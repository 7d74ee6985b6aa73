//! The forest throughput harness: replays serving workload mixes
//! against a sharded [`Forest`] at configurable thread counts and emits
//! a machine-readable JSON report (`BENCH_forest.json`) — the artifact
//! the CI perf-tracking job uploads so throughput is diffable across
//! PRs.
//!
//! Three knobs define a run: the forest shape (shards × keys × layout,
//! served from memory-mapped shard files by default — the production
//! scenario), the workload mixes (uniform point lookups, Zipf-skewed
//! point lookups, stitched range scans, and one big sorted batch
//! dispatched through [`Forest::par_search_batch`]), and the thread
//! counts to sweep. For every `(mix, threads)` cell the report records
//! throughput (ops/s), sampled per-op latency (p50/p99), and — once per
//! mix — the simulated L1 block transfers per op from a cachesim replay
//! of the identical access stream, so wall-clock regressions can be
//! told apart from locality regressions.
//!
//! The driver binary (`cargo run -p cobtree-analysis --bin throughput`)
//! and the `forest` repro experiment both run through [`run`]; the JSON
//! comes from [`to_json`] via the shared [`crate::json`] writer (the
//! workspace builds offline, no serde).

use crate::json::{finite, percentile, JsonObject};
use cobtree_cachesim::presets;
use cobtree_cachesim::replay::{
    replay_forest_point, replay_forest_scan, replay_forest_sorted_batch,
};
use cobtree_core::io::ScratchDir;
use cobtree_core::NamedLayout;
use cobtree_search::workload::{scan_starts, UniformKeys, ZipfKeys, ZipfTable};
use cobtree_search::{Forest, Storage};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Sample one in `2^LATENCY_SHIFT` operations for the latency
/// percentiles, so the `Instant` overhead stays off the hot path.
const LATENCY_SHIFT: usize = 4;

/// Configuration of one throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Range-partition count.
    pub shards: usize,
    /// Stored keys (the key set is `{2, 4, …, 2·keys}`, so uniform
    /// probes over `1..=2·keys` hit ~50%).
    pub keys: u64,
    /// Operations per `(mix, threads)` cell (scans count one op per
    /// `scan_span`-key scan).
    pub ops: usize,
    /// Thread counts to sweep, ascending.
    pub threads: Vec<usize>,
    /// Zipf skew for the skewed point mix.
    pub zipf_s: f64,
    /// Keys per range-scan operation.
    pub scan_span: u64,
    /// Workload seed.
    pub seed: u64,
    /// Per-shard layout.
    pub layout: NamedLayout,
    /// Serve from memory-mapped shard files in a temp directory
    /// (`true`, the production scenario) or from heap shards.
    pub mapped: bool,
}

impl ThroughputConfig {
    /// The fixed small workload the CI bench job replays: big enough
    /// that per-shard work dominates thread bookkeeping, small enough
    /// to finish in seconds.
    #[must_use]
    pub fn ci() -> Self {
        Self {
            shards: 4,
            keys: 400_000,
            ops: 200_000,
            threads: vec![1, 2, 4],
            zipf_s: 1.1,
            scan_span: 64,
            seed: 0x5EED_F04E_5700,
            layout: NamedLayout::MinWep,
            mapped: true,
        }
    }

    /// Minimal profile for unit tests (debug builds).
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            shards: 3,
            keys: 2_000,
            ops: 1_500,
            threads: vec![1, 2],
            zipf_s: 1.1,
            scan_span: 16,
            seed: 7,
            layout: NamedLayout::MinWep,
            mapped: true,
        }
    }
}

/// One measured `(mix, threads)` cell.
#[derive(Debug, Clone)]
pub struct MixPoint {
    /// Workload mix name: `uniform`, `zipf`, `scan`, `batch` or
    /// `ibatch` (the interleaved-kernel batch).
    pub mix: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Operations performed.
    pub ops: usize,
    /// Wall time of the whole cell in nanoseconds.
    pub wall_ns: u64,
    /// Throughput, operations per second.
    pub ops_per_sec: f64,
    /// Sampled per-op latency, median (ns). For the `batch` mix — which
    /// has no per-op boundary — this is the per-op mean.
    pub p50_ns: f64,
    /// Sampled per-op latency, 99th percentile (ns); per-op mean for
    /// `batch`.
    pub p99_ns: f64,
    /// Simulated L1 misses per op from a cachesim replay of the same
    /// access stream (thread-independent, measured once per mix).
    pub l1_misses_per_op: f64,
}

/// The full report [`run`] produces; serialize with [`to_json`].
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Requested shard count.
    pub shards: usize,
    /// Non-empty shards.
    pub active_shards: usize,
    /// Stored keys.
    pub keys: u64,
    /// Ops per cell.
    pub ops: usize,
    /// Layout label shared by the shards.
    pub layout: String,
    /// Per-shard storage backend served.
    pub storage: String,
    /// Zipf skew of the skewed mix.
    pub zipf_s: f64,
    /// Keys per scan op.
    pub scan_span: u64,
    /// Every measured `(mix, threads)` cell.
    pub points: Vec<MixPoint>,
    /// Smallest swept thread count — the scaling baseline (1 for the
    /// CI workload).
    pub base_threads: usize,
    /// Largest swept thread count.
    pub max_threads: usize,
    /// `batch` ops/s at `max_threads` divided by `batch` ops/s at
    /// `base_threads` — the scaling headline the CI workload tracks.
    pub par_batch_scaling: f64,
    /// Cursor-hoist regression: keys yielded by one full stitched
    /// iteration over the (padded, mapped) shards — must equal `keys`.
    pub stitched_scan_keys: u64,
    /// Nanoseconds per key of that full stitched iteration.
    pub stitched_scan_ns_per_key: f64,
}

/// Draws the probe set for a point mix. The Zipf weight table is taken
/// by reference so one `(n, s)` table serves every workload mix and
/// driver in a process (it used to be rebuilt per draw).
fn point_probes(cfg: &ThroughputConfig, zipf: Option<&ZipfTable>) -> Vec<u64> {
    match zipf {
        Some(table) => ZipfKeys::from_table(table, cfg.seed)
            .map(|r| r * 2)
            .take(cfg.ops)
            .collect(),
        None => UniformKeys::new(cfg.keys * 2, cfg.seed).take_vec(cfg.ops),
    }
}

/// Runs a point mix at `threads` workers: contiguous probe chunks, one
/// worker each, every 16th op timed for the latency sample. Returns
/// `(found-rank checksum, wall ns, latency samples)`.
fn point_cell(forest: &Forest<u64>, probes: &[u64], threads: usize) -> (u64, u64, Vec<u64>) {
    let workers = threads.max(1).min(probes.len().max(1));
    let chunk = probes.len().div_ceil(workers).max(1);
    let start = Instant::now();
    let mut checksum = 0u64;
    let mut latencies = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = probes
            .chunks(chunk)
            .map(|sub| {
                scope.spawn(move || {
                    let mut acc = 0u64;
                    let mut lats = Vec::with_capacity(sub.len() >> LATENCY_SHIFT);
                    for (i, &k) in sub.iter().enumerate() {
                        if i & ((1 << LATENCY_SHIFT) - 1) == 0 {
                            let t0 = Instant::now();
                            if let Some(hit) = black_box(forest.locate(k)) {
                                acc = acc.wrapping_add(hit.rank);
                            }
                            lats.push(t0.elapsed().as_nanos() as u64);
                        } else if let Some(hit) = forest.locate(k) {
                            acc = acc.wrapping_add(hit.rank);
                        }
                    }
                    (acc, lats)
                })
            })
            .collect();
        for h in handles {
            let (acc, lats) = h.join().expect("worker panicked");
            checksum = checksum.wrapping_add(acc);
            latencies.extend(lats);
        }
    });
    (checksum, start.elapsed().as_nanos() as u64, latencies)
}

/// Runs the scan mix at `threads` workers: each op walks one
/// `span`-key stitched range; every 4th scan is timed.
fn scan_cell(
    forest: &Forest<u64>,
    starts: &[u64],
    span: u64,
    threads: usize,
) -> (u64, u64, Vec<u64>) {
    let workers = threads.max(1).min(starts.len().max(1));
    let chunk = starts.len().div_ceil(workers).max(1);
    let start = Instant::now();
    let mut checksum = 0u64;
    let mut latencies = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = starts
            .chunks(chunk)
            .map(|sub| {
                scope.spawn(move || {
                    let mut acc = 0u64;
                    let mut lats = Vec::with_capacity(sub.len() / 4 + 1);
                    for (i, &s) in sub.iter().enumerate() {
                        let timed = i % 4 == 0;
                        let t0 = timed.then(Instant::now);
                        for k in forest.range_by_rank(s, s + span - 1) {
                            acc = acc.wrapping_add(k);
                        }
                        if let Some(t0) = t0 {
                            lats.push(t0.elapsed().as_nanos() as u64);
                        }
                    }
                    (black_box(acc), lats)
                })
            })
            .collect();
        for h in handles {
            let (acc, lats) = h.join().expect("worker panicked");
            checksum = checksum.wrapping_add(acc);
            latencies.extend(lats);
        }
    });
    (checksum, start.elapsed().as_nanos() as u64, latencies)
}

/// Replays `f` through a fresh Westmere L1/L2 hierarchy and returns the
/// L1 miss count.
fn l1_misses(f: impl FnOnce(&mut cobtree_cachesim::CacheHierarchy) -> u64) -> u64 {
    let mut sim = presets::westmere_l1_l2();
    let _ = f(&mut sim);
    sim.level_stats(0).misses
}

/// Builds the forest (mapped shard files in a temp directory when
/// `cfg.mapped`), sweeps every mix × thread count, replays each mix
/// through cachesim for block transfers, and returns the report.
///
/// # Panics
/// Panics when a mix's checksum varies across thread counts (a
/// concurrency bug), when the stitched-iteration regression yields the
/// wrong key count (the cursor padding-hoist guard), or on temp-file
/// I/O failures.
#[must_use]
pub fn run(cfg: &ThroughputConfig) -> ThroughputReport {
    run_with_zipf(cfg, &ZipfTable::new(cfg.keys, cfg.zipf_s))
}

/// [`run`] with a caller-supplied Zipf weight table (built once per
/// `(n, s)` and shared with e.g. the kernel benchmark driver).
///
/// # Panics
/// As for [`run`]; additionally if `zipf` was built for a different
/// key-space size.
#[must_use]
pub fn run_with_zipf(cfg: &ThroughputConfig, zipf: &ZipfTable) -> ThroughputReport {
    assert_eq!(zipf.n(), cfg.keys, "Zipf table size must match cfg.keys");
    let built = Forest::builder()
        .layout(cfg.layout)
        .storage(Storage::Implicit)
        .shards(cfg.shards)
        .keys((1..=cfg.keys).map(|k| k * 2))
        .build()
        .expect("throughput forest");
    let dir = ScratchDir::new("throughput");
    let forest = if cfg.mapped {
        built.save(dir.path()).expect("save forest to scratch dir");
        Forest::open(dir.path()).expect("open saved forest")
    } else {
        built
    };
    let total = forest.len();

    // Cursor-hoist regression: one full stitched iteration over the
    // (padded, possibly mapped) shards must yield every stored key —
    // and its per-key cost is recorded so the hoist is visible in the
    // JSON artifact.
    let t0 = Instant::now();
    let stitched_scan_keys = forest.iter().fold(0u64, |n, k| n + u64::from(k > 0));
    let stitched_scan_ns_per_key = t0.elapsed().as_nanos() as f64 / stitched_scan_keys as f64;
    assert_eq!(
        stitched_scan_keys, total,
        "stitched iteration must yield every stored key exactly once"
    );

    let uniform = point_probes(cfg, None);
    let zipf = point_probes(cfg, Some(zipf));
    let scan_ops = (cfg.ops as u64 / cfg.scan_span).clamp(50, 20_000) as usize;
    let starts = scan_starts(total, cfg.scan_span, scan_ops, cfg.seed ^ 0xA5);
    let mut batch = UniformKeys::new(cfg.keys * 2, cfg.seed ^ 0x5A).take_vec(cfg.ops);
    batch.sort_unstable();

    // Simulated block transfers per op, once per mix (single-threaded;
    // the access stream is thread-count independent).
    let uniform_misses = l1_misses(|sim| replay_forest_point(sim, &forest, 8, 0, &uniform));
    let zipf_misses = l1_misses(|sim| replay_forest_point(sim, &forest, 8, 0, &zipf));
    let scan_misses =
        l1_misses(|sim| replay_forest_scan(sim, &forest, 8, 0, &starts, cfg.scan_span));
    let batch_misses = l1_misses(|sim| {
        replay_forest_sorted_batch(sim, &forest, 8, 0, std::slice::from_ref(&batch))
    });
    // The interleaved batch path performs independent per-probe
    // descents (no shared-prefix restarts), so its simulated access
    // stream is the per-probe point replay of the same probes — the
    // kernel's traces are bit-identical to point traces.
    let ibatch_misses = l1_misses(|sim| replay_forest_point(sim, &forest, 8, 0, &batch));

    // Reference answers, once per mix: every thread count must
    // reproduce them exactly (the harness's concurrency self-check).
    let uniform_ref = forest.rank_checksum(&uniform);
    let zipf_ref = forest.rank_checksum(&zipf);
    let scan_ref = starts.iter().fold(0u64, |acc, &s| {
        forest
            .range_by_rank(s, s + cfg.scan_span - 1)
            .fold(acc, u64::wrapping_add)
    });
    let batch_ref = {
        let mut out = Vec::new();
        forest
            .search_sorted_batch(&batch, &mut out)
            .expect("ascending batch");
        out
    };

    let mut points = Vec::new();
    let mut batch_ops_per_sec: Vec<(usize, f64)> = Vec::new();
    for &threads in &cfg.threads {
        // Point mixes: uniform and Zipf.
        for (mix, probes, misses, reference) in [
            ("uniform", &uniform, uniform_misses, uniform_ref),
            ("zipf", &zipf, zipf_misses, zipf_ref),
        ] {
            let (checksum, wall_ns, mut lats) = point_cell(&forest, probes, threads);
            assert_eq!(
                checksum, reference,
                "{mix}@{threads}: parallel checksum diverged"
            );
            lats.sort_unstable();
            points.push(MixPoint {
                mix,
                threads,
                ops: probes.len(),
                wall_ns,
                ops_per_sec: finite(probes.len() as f64 / (wall_ns as f64 / 1e9)),
                p50_ns: percentile(&lats, 0.50),
                p99_ns: percentile(&lats, 0.99),
                l1_misses_per_op: finite(misses as f64 / probes.len() as f64),
            });
        }
        // Stitched range scans.
        {
            let (checksum, wall_ns, mut lats) = scan_cell(&forest, &starts, cfg.scan_span, threads);
            assert_eq!(
                checksum, scan_ref,
                "scan@{threads}: parallel checksum diverged"
            );
            lats.sort_unstable();
            points.push(MixPoint {
                mix: "scan",
                threads,
                ops: starts.len(),
                wall_ns,
                ops_per_sec: finite(starts.len() as f64 / (wall_ns as f64 / 1e9)),
                p50_ns: percentile(&lats, 0.50),
                p99_ns: percentile(&lats, 0.99),
                l1_misses_per_op: finite(scan_misses as f64 / starts.len() as f64),
            });
        }
        // The split-and-dispatch parallel batch.
        {
            let mut out = Vec::new();
            let t0 = Instant::now();
            forest
                .par_search_batch(&batch, threads, &mut out)
                .expect("ascending batch");
            let wall_ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(
                black_box(&out),
                &batch_ref,
                "batch@{threads}: parallel results diverged from serial dispatch"
            );
            let ops_per_sec = finite(batch.len() as f64 / (wall_ns as f64 / 1e9));
            let per_op = wall_ns as f64 / batch.len() as f64;
            batch_ops_per_sec.push((threads, ops_per_sec));
            points.push(MixPoint {
                mix: "batch",
                threads,
                ops: batch.len(),
                wall_ns,
                ops_per_sec,
                p50_ns: finite(per_op),
                p99_ns: finite(per_op),
                l1_misses_per_op: finite(batch_misses as f64 / batch.len() as f64),
            });
        }
        // The same batch on the interleaved descent kernels
        // (`par_search_batch_interleaved`): per-shard multi-query
        // lookups with up to 8 in flight, no sorted-input requirement.
        // Must reproduce the sorted dispatch's answers exactly.
        {
            let mut out = Vec::new();
            let t0 = Instant::now();
            forest.par_search_batch_interleaved(&batch, 8, threads, &mut out);
            let wall_ns = t0.elapsed().as_nanos() as u64;
            assert_eq!(
                black_box(&out),
                &batch_ref,
                "ibatch@{threads}: interleaved results diverged from sorted dispatch"
            );
            let ops_per_sec = finite(batch.len() as f64 / (wall_ns as f64 / 1e9));
            let per_op = wall_ns as f64 / batch.len() as f64;
            points.push(MixPoint {
                mix: "ibatch",
                threads,
                ops: batch.len(),
                wall_ns,
                ops_per_sec,
                p50_ns: finite(per_op),
                p99_ns: finite(per_op),
                l1_misses_per_op: finite(ibatch_misses as f64 / batch.len() as f64),
            });
        }
    }

    // Scaling baseline: the smallest swept thread count (1 when the
    // sweep includes it); the report records which, so consumers never
    // compare headlines with mismatched baselines.
    let (base_threads, base) = batch_ops_per_sec
        .iter()
        .copied()
        .min_by_key(|&(t, _)| t)
        .unwrap_or((1, 0.0));
    let peak = batch_ops_per_sec
        .iter()
        .max_by_key(|(t, _)| *t)
        .map_or(0.0, |&(_, v)| v);
    let report = ThroughputReport {
        shards: cfg.shards,
        active_shards: forest.active_shards(),
        keys: cfg.keys,
        ops: cfg.ops,
        layout: forest.layout_label().to_string(),
        storage: forest.storage().to_string(),
        zipf_s: cfg.zipf_s,
        scan_span: cfg.scan_span,
        points,
        base_threads,
        max_threads: cfg.threads.iter().copied().max().unwrap_or(1),
        par_batch_scaling: finite(peak / base),
        stitched_scan_keys,
        stitched_scan_ns_per_key: finite(stitched_scan_ns_per_key),
    };
    report
}

/// Renders the report as the `BENCH_forest.json` artifact: stable field
/// order, every number finite, no trailing commas — parseable by any
/// JSON reader without a schema (the shared [`crate::json`] writer).
#[must_use]
pub fn to_json(r: &ThroughputReport) -> String {
    JsonObject::new()
        .with("bench", "forest_throughput")
        .with("schema_version", 1u64)
        .with(
            "config",
            JsonObject::new()
                .with("shards", r.shards)
                .with("active_shards", r.active_shards)
                .with("keys", r.keys)
                .with("ops", r.ops)
                .with("layout", r.layout.as_str())
                .with("storage", r.storage.as_str())
                .with("zipf_s", r.zipf_s)
                .with("scan_span", r.scan_span),
        )
        .with(
            "mixes",
            r.points
                .iter()
                .map(|p| {
                    JsonObject::new()
                        .with("mix", p.mix)
                        .with("threads", p.threads)
                        .with("ops", p.ops)
                        .with("wall_ns", p.wall_ns)
                        .with("ops_per_sec", p.ops_per_sec)
                        .with("p50_ns", p.p50_ns)
                        .with("p99_ns", p.p99_ns)
                        .with("l1_misses_per_op", p.l1_misses_per_op)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "par_batch",
            JsonObject::new()
                .with("threads_base", r.base_threads)
                .with("threads_max", r.max_threads)
                .with("scaling_base_to_max", r.par_batch_scaling),
        )
        .with(
            "cursor_hoist_regression",
            JsonObject::new()
                .with("stitched_scan_keys", r.stitched_scan_keys)
                .with("ns_per_key", r.stitched_scan_ns_per_key)
                .with("ok", r.stitched_scan_keys == r.keys),
        )
        .render()
}

/// Writes [`to_json`] to `path` (parent directories created).
///
/// # Errors
/// Any `std::io::Error` from directory creation or the write.
pub fn write_json(r: &ThroughputReport, path: impl AsRef<Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, to_json(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_a_complete_valid_report() {
        let cfg = ThroughputConfig::tiny();
        let report = run(&cfg);
        // 5 mixes × 2 thread counts.
        assert_eq!(report.points.len(), 10);
        assert_eq!(report.storage, "mapped");
        assert_eq!(report.stitched_scan_keys, cfg.keys);
        for p in &report.points {
            assert!(p.ops > 0, "{}: zero ops", p.mix);
            assert!(p.ops_per_sec > 0.0, "{}: zero throughput", p.mix);
            assert!(p.l1_misses_per_op >= 0.0);
        }
        assert!(report.par_batch_scaling > 0.0);
        let json = to_json(&report);
        crate::json::assert_jsonish(&json);
        for field in [
            "\"bench\": \"forest_throughput\"",
            "\"mix\": \"uniform\"",
            "\"mix\": \"zipf\"",
            "\"mix\": \"scan\"",
            "\"mix\": \"batch\"",
            "\"mix\": \"ibatch\"",
            "\"par_batch\"",
            "\"cursor_hoist_regression\"",
            "\"ok\": true",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn heap_serving_also_runs() {
        let mut cfg = ThroughputConfig::tiny();
        cfg.mapped = false;
        cfg.threads = vec![1];
        let report = run(&cfg);
        assert_eq!(report.storage, "implicit");
        assert_eq!(report.points.len(), 5);
    }
}
