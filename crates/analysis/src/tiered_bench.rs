//! The tiered read-write benchmark: measures what the write path costs
//! the readers, and emits `BENCH_tiered.json` for the CI perf job.
//!
//! Three phases over the same key population:
//!
//! 1. **`readonly_forest`** — point lookups against a plain immutable
//!    [`Forest`] served from memory-mapped shard files. This is the
//!    paper-regime baseline: no buffers, no locks, no writers.
//! 2. **`tiered_idle`** — the same lookups through a durable
//!    [`TieredForest`] whose memtable is drained, measuring the pure
//!    overhead of the tier dispatch (a read-lock + two empty buffer
//!    probes per op).
//! 3. **`tiered_mixed`** — the same lookups while a concurrent writer
//!    thread streams inserts and removes through the engine and the
//!    background worker compacts, measuring reads under churn.
//!
//! The headline number is `read_p99_ratio_vs_readonly`: phase-3 read
//! p99 over phase-1 read p99. The acceptance bar tracked by CI is that
//! this ratio stays within 2× while the engine is absorbing writes.
//! Alongside it the report records writer throughput (`writes_per_sec`)
//! and how many compactions the run forced (`flushes`, `final_epoch`).
//!
//! Like [`crate::throughput`], the JSON comes from the shared
//! [`crate::json`] writer (the workspace builds offline, no serde) with
//! a stable field order.

use crate::json::{finite, percentile, JsonObject};
use cobtree_core::io::ScratchDir;
use cobtree_core::NamedLayout;
use cobtree_search::tiered::TieredForest;
use cobtree_search::workload::UniformKeys;
use cobtree_search::{Forest, Storage};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Sample one in `2^LATENCY_SHIFT` reads for the latency percentiles
/// (same cadence as the forest harness).
const LATENCY_SHIFT: usize = 4;

/// Configuration of one tiered read-write run.
#[derive(Debug, Clone)]
pub struct TieredBenchConfig {
    /// Range-partition count for both the baseline forest and the
    /// tiered engine.
    pub shards: usize,
    /// Stored keys (the population is `{2, 4, …, 2·keys}`, so uniform
    /// probes over `1..=2·keys` hit ~50%).
    pub keys: u64,
    /// Point reads per phase.
    pub reads: usize,
    /// Writer operations in the mixed phase (alternating inserts of
    /// fresh odd keys and removes of previously inserted ones).
    pub writes: usize,
    /// Memtable entry budget of the engine — crossing it wakes the
    /// background compaction worker, so `writes / memtable_entries`
    /// roughly lower-bounds the compactions the mixed phase forces.
    pub memtable_entries: usize,
    /// Per-shard layout.
    pub layout: NamedLayout,
    /// Workload seed.
    pub seed: u64,
}

impl TieredBenchConfig {
    /// The fixed workload the CI bench job replays.
    #[must_use]
    pub fn ci() -> Self {
        Self {
            shards: 4,
            keys: 400_000,
            reads: 200_000,
            writes: 60_000,
            memtable_entries: 4_096,
            layout: NamedLayout::MinWep,
            seed: 0x7EED_BEEF_1214,
        }
    }

    /// Minimal profile for unit tests (debug builds).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            shards: 2,
            keys: 4_000,
            reads: 3_000,
            writes: 1_200,
            memtable_entries: 256,
            layout: NamedLayout::MinWep,
            seed: 11,
        }
    }
}

/// One measured read phase.
#[derive(Debug, Clone)]
pub struct PhasePoint {
    /// Phase name: `readonly_forest`, `tiered_idle` or `tiered_mixed`.
    pub phase: &'static str,
    /// Point reads performed.
    pub ops: usize,
    /// Wall time of the read loop in nanoseconds.
    pub wall_ns: u64,
    /// Read throughput, operations per second.
    pub ops_per_sec: f64,
    /// Sampled per-read latency, median (ns).
    pub p50_ns: f64,
    /// Sampled per-read latency, 99th percentile (ns).
    pub p99_ns: f64,
    /// Fraction of probes that found a live key.
    pub hit_rate: f64,
}

/// The full report — one run of [`run`].
#[derive(Debug, Clone)]
pub struct TieredBenchReport {
    /// The configuration replayed.
    pub config: TieredBenchConfig,
    /// The three read phases, in order.
    pub phases: Vec<PhasePoint>,
    /// Writer operations completed in the mixed phase.
    pub write_ops: usize,
    /// Writer throughput in the mixed phase, operations per second.
    pub writes_per_sec: f64,
    /// Compactions the engine completed over the whole run.
    pub flushes: u64,
    /// Manifest epoch after the final drain.
    pub final_epoch: u64,
    /// Mixed-phase read p99 over read-only forest read p99 — the
    /// headline CI acceptance ratio (bar: ≤ 2.0).
    pub read_p99_ratio_vs_readonly: f64,
}

/// Times `reads` point lookups through `probe`, sampling latency one op
/// in `2^LATENCY_SHIFT`. Returns the finished [`PhasePoint`].
fn read_phase(
    phase: &'static str,
    cfg: &TieredBenchConfig,
    seed: u64,
    mut probe: impl FnMut(u64) -> bool,
) -> PhasePoint {
    let probes: Vec<u64> = UniformKeys::new(cfg.keys * 2, seed)
        .take(cfg.reads)
        .collect();
    let mut samples = Vec::with_capacity(cfg.reads >> LATENCY_SHIFT);
    let mut hits = 0usize;
    let start = Instant::now();
    for (i, &key) in probes.iter().enumerate() {
        if i & ((1 << LATENCY_SHIFT) - 1) == 0 {
            let t = Instant::now();
            hits += usize::from(black_box(probe(key)));
            samples.push(t.elapsed().as_nanos() as u64);
        } else {
            hits += usize::from(black_box(probe(key)));
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    samples.sort_unstable();
    PhasePoint {
        phase,
        ops: cfg.reads,
        wall_ns,
        ops_per_sec: finite(cfg.reads as f64 / (wall_ns as f64 / 1e9)),
        p50_ns: percentile(&samples, 0.50),
        p99_ns: percentile(&samples, 0.99),
        hit_rate: hits as f64 / cfg.reads.max(1) as f64,
    }
}

/// Runs the three phases and assembles the report. Builds its stores
/// in a temp directory private to this run and removes it on the way
/// out.
#[must_use]
pub fn run(cfg: &TieredBenchConfig) -> TieredBenchReport {
    let scratch = ScratchDir::new("tiered-bench");
    let forest_dir = scratch.path().join("forest");
    let engine_dir = scratch.path().join("tiered");
    std::fs::create_dir_all(&forest_dir).expect("create bench scratch dir");

    let keys: Vec<u64> = (1..=cfg.keys).map(|k| k * 2).collect();

    // Phase 1: the read-only mapped forest baseline.
    let built = Forest::builder()
        .shards(cfg.shards)
        .layout(cfg.layout)
        .keys(keys.iter().copied())
        .build()
        .expect("build baseline forest");
    built.save(&forest_dir).expect("save baseline forest");
    let forest: Forest<u64> = Forest::open(&forest_dir).expect("map baseline forest");
    assert_eq!(forest.storage(), Storage::Mapped);
    let readonly = read_phase("readonly_forest", cfg, cfg.seed, |k| forest.contains(k));

    // Phase 2: the same reads through a drained tiered engine.
    let engine: TieredForest<u64> = TieredForest::builder()
        .layout(cfg.layout)
        .shards(cfg.shards)
        .memtable_entries(cfg.memtable_entries)
        .path(&engine_dir)
        .keys(keys.iter().copied())
        .background(true)
        .build()
        .expect("build tiered engine");
    assert_eq!(
        engine.buffered(),
        0,
        "seeding must leave the memtable empty"
    );
    let idle = read_phase("tiered_idle", cfg, cfg.seed, |k| engine.contains(k));

    // Phase 3: the same reads while a writer streams updates and the
    // background worker compacts.
    let (mixed, write_ops, write_wall_ns) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // Fresh odd keys never collide with the even population;
            // every third write deletes the key two steps back, so
            // tombstones against both the memtable and the base flow
            // through compaction.
            let start = Instant::now();
            let mut inserted: Vec<u64> = Vec::new();
            let mut probe = UniformKeys::new(u64::MAX / 2, cfg.seed ^ 0xA5A5);
            for i in 0..cfg.writes {
                if i % 3 == 2 && inserted.len() >= 2 {
                    let victim = inserted[inserted.len() - 2];
                    black_box(engine.remove(victim));
                } else {
                    let key = probe.next().expect("endless workload") | 1;
                    black_box(engine.insert(key));
                    inserted.push(key);
                }
            }
            (cfg.writes, start.elapsed().as_nanos() as u64)
        });
        let mixed = read_phase("tiered_mixed", cfg, cfg.seed ^ 1, |k| engine.contains(k));
        let (ops, wall) = writer.join().expect("writer thread");
        (mixed, ops, wall)
    });

    // Drain so the recorded epoch reflects every acknowledged write.
    engine.compact().expect("final drain");
    if let Some(err) = engine.take_compaction_error() {
        panic!("background compaction failed during bench: {err}");
    }
    let flushes = engine.flushes();
    let final_epoch = engine.epoch();
    drop(engine);

    let ratio = finite(mixed.p99_ns / readonly.p99_ns.max(1.0));
    TieredBenchReport {
        config: cfg.clone(),
        phases: vec![readonly, idle, mixed],
        write_ops,
        writes_per_sec: finite(write_ops as f64 / (write_wall_ns as f64 / 1e9)),
        flushes,
        final_epoch,
        read_p99_ratio_vs_readonly: ratio,
    }
}

/// Renders the report as stable-field-order JSON (the shared
/// [`crate::json`] writer).
#[must_use]
pub fn to_json(report: &TieredBenchReport) -> String {
    let cfg = &report.config;
    JsonObject::new()
        .with("bench", "tiered_readwrite")
        .with("schema_version", 1u64)
        .with(
            "config",
            JsonObject::new()
                .with("shards", cfg.shards)
                .with("keys", cfg.keys)
                .with("reads", cfg.reads)
                .with("writes", cfg.writes)
                .with("memtable_entries", cfg.memtable_entries)
                .with("layout", cfg.layout.to_string())
                .with("seed", cfg.seed),
        )
        .with(
            "phases",
            report
                .phases
                .iter()
                .map(|p| {
                    JsonObject::new()
                        .with("phase", p.phase)
                        .with("ops", p.ops)
                        .with("wall_ns", p.wall_ns)
                        .with("ops_per_sec", p.ops_per_sec)
                        .with("p50_ns", p.p50_ns)
                        .with("p99_ns", p.p99_ns)
                        .with("hit_rate", p.hit_rate)
                })
                .collect::<Vec<_>>(),
        )
        .with("write_ops", report.write_ops)
        .with("writes_per_sec", report.writes_per_sec)
        .with("flushes", report.flushes)
        .with("final_epoch", report.final_epoch)
        .with(
            "read_p99_ratio_vs_readonly",
            report.read_p99_ratio_vs_readonly,
        )
        .render()
}

/// Writes the JSON artifact, creating parent directories.
pub fn write_json(report: &TieredBenchReport, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, to_json(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::assert_jsonish;

    #[test]
    fn tiny_run_produces_complete_report() {
        let cfg = TieredBenchConfig::tiny();
        let report = run(&cfg);
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.phases[0].phase, "readonly_forest");
        assert_eq!(report.phases[1].phase, "tiered_idle");
        assert_eq!(report.phases[2].phase, "tiered_mixed");
        for p in &report.phases {
            assert_eq!(p.ops, cfg.reads, "{}", p.phase);
            assert!(p.ops_per_sec > 0.0, "{}", p.phase);
            assert!(p.p99_ns >= p.p50_ns, "{}", p.phase);
            // ~50% of uniform probes over 1..=2n hit the even population.
            assert!(
                p.hit_rate > 0.3 && p.hit_rate < 0.8,
                "{}: hit rate {}",
                p.phase,
                p.hit_rate
            );
        }
        assert_eq!(report.write_ops, cfg.writes);
        assert!(report.writes_per_sec > 0.0);
        // 1 200 writes over a 256-entry budget forces compactions; the
        // seeding flush counts too.
        assert!(report.flushes >= 2, "flushes {}", report.flushes);
        assert!(report.final_epoch >= 2, "epoch {}", report.final_epoch);
        assert!(report.read_p99_ratio_vs_readonly > 0.0);

        let json = to_json(&report);
        assert_jsonish(&json);
        for field in [
            "\"bench\": \"tiered_readwrite\"",
            "\"schema_version\": 1",
            "\"tiered_mixed\"",
            "\"writes_per_sec\"",
            "\"flushes\"",
            "\"read_p99_ratio_vs_readonly\"",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
    }

    #[test]
    fn write_json_creates_parent_dirs() {
        let cfg = TieredBenchConfig::tiny();
        let mut report = run(&TieredBenchConfig {
            reads: 200,
            writes: 90,
            keys: 500,
            ..cfg
        });
        report.read_p99_ratio_vs_readonly = 1.25;
        let dir = ScratchDir::new("tiered-bench-json");
        let path = dir.path().join("nested").join("BENCH_tiered.json");
        write_json(&report, &path).expect("write artifact");
        let back = std::fs::read_to_string(&path).expect("read artifact");
        assert!(back.contains("\"read_p99_ratio_vs_readonly\": 1.25"));
    }
}
