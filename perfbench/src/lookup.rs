//! `lookup-uniform`: an embedded, read-only forest far larger than the
//! last-level cache. 2^24 keys `{2, 4, …}` (128 MiB of keys) in 16
//! MINWEP shards are built, saved and reopened as memory-mapped `.cobt`
//! files; one thread then runs uniform point lookups, sorted batches
//! through the public batch API, and range scans. Almost every lookup
//! misses cache, so the layout, the descent kernel and mapped storage do
//! the work; the server, protocol and tiered layers do none.

use crate::layers::{self, SCAN_SPAN};
use crate::report::{median, quiet_rate, Report, Windows};
use crate::rng::Rng;
use crate::sys::{self, CountingIo, ProcSample, ScratchDir};
use crate::trace::Span;
use crate::Ctx;
use cobtree_core::format::DEFAULT_BLOCK_BYTES;
use cobtree_core::NamedLayout;
use cobtree_search::{Forest, SearchBackend, Storage};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const KEYS: u64 = 1 << 24;
const SHARDS: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Sizes of the blocks of work that take turns, a few to tens of
/// milliseconds each; each block is timed in slices of about two
/// milliseconds (`SLICE` lookups, one batch, `SCANS_PER_SLICE` scans).
const POINT_BLOCK: usize = 32_768;
const SLICE: usize = 2048;
const SCANS_PER_SLICE: usize = 32;
const LATENCY_BLOCK: usize = 8_192;
const TRACED_BLOCK: usize = 8_192;
const BATCH_KEYS: usize = 4096;
const BATCHES_PER_BLOCK: usize = 8;
/// Keys per range scan.
const SCAN_KEYS: u64 = 1024;
const SCANS_PER_BLOCK: usize = 128;
/// Timed lookups per window of the latency quantiles (20 beyond the
/// p99).
const LATENCY_WINDOW: usize = 2_000;
/// Probes for the per-layer timings of a traced run.
const LAYER_PROBES: usize = 200_000;

/// A stored key drawn uniformly, with its 1-based rank: key `2r` sits
/// at rank `r`.
fn draw(rng: &mut Rng) -> (u64, u64) {
    let r = rng.below(KEYS) + 1;
    (2 * r, r)
}

struct Setup {
    forest: Forest<u64>,
    _dir: ScratchDir,
    io: CountingIo,
    build_s: f64,
    save_s: f64,
    open_s: f64,
    setup_s: f64,
    disk_bytes: u64,
}

/// Keys → built → saved → reopened mapped: the set-up a user pays
/// before the first lookup.
fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let dir = ScratchDir::new(&ctx.out_dir, "lookup").map_err(|e| e.to_string())?;
    let io = CountingIo::default();
    let t0 = Instant::now();
    let built = Forest::builder()
        .layout(NamedLayout::MinWep)
        .storage(Storage::Implicit)
        .shards(SHARDS)
        .keys((1..=KEYS).map(|r| 2 * r))
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let t1 = Instant::now();
    built
        .save_with_profiles_io(dir.path(), DEFAULT_BLOCK_BYTES, &[], &io)
        .map_err(|e| format!("save: {e}"))?;
    let t2 = Instant::now();
    drop(built);
    let t3 = Instant::now();
    let forest = Forest::open(dir.path()).map_err(|e| format!("open: {e}"))?;
    let t4 = Instant::now();
    if forest.len() != KEYS || forest.storage() != Storage::Mapped {
        return Err(format!("reopened forest holds {} keys", forest.len()));
    }
    let disk_bytes = sys::dir_bytes(dir.path());
    Ok(Setup {
        forest,
        _dir: dir,
        io,
        build_s: (t1 - t0).as_secs_f64(),
        save_s: (t2 - t1).as_secs_f64(),
        open_s: (t4 - t3).as_secs_f64(),
        setup_s: ((t2 - t0) + (t4 - t3)).as_secs_f64(),
        disk_bytes,
    })
}

pub fn run(ctx: &mut Ctx, rep: &mut Report) -> Result<(), String> {
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let s = setup(ctx)?;
        for (v, x) in times
            .iter_mut()
            .zip([s.build_s, s.save_s, s.open_s, s.setup_s])
        {
            v.push(x);
        }
        last = Some(s);
    }
    let s = last.expect("at least one set-up");
    let forest = &s.forest;
    rep.set("forest.build_s", median(&times[0]), "s");
    rep.set("forest.save_s", median(&times[1]), "s");
    rep.set("forest.open_s", median(&times[2]), "s");
    rep.set("setup_s", median(&times[3]), "s");
    for (name, v, unit) in s.io.rows() {
        rep.set(name, v, unit);
    }
    rep.set(
        "format.disk_bytes_per_key",
        s.disk_bytes as f64 / KEYS as f64,
        "bytes",
    );

    let pid = std::process::id();
    let before = ProcSample::own();

    // The four kinds of work take turns in short blocks until the
    // budget is spent, so each one samples the whole run.
    let mut m = Measure::new(forest, Rng::derive(ctx.seed, 1));
    let end = Instant::now() + ctx.budget(1.0);
    while m.point.is_empty() || Instant::now() < end {
        m.point_block();
        m.latency_block();
        m.batch_block();
        m.scan_block();
    }
    let Measure {
        point,
        lats,
        batch,
        scan,
        checked,
        wrong,
        notes,
        mut rng,
        ..
    } = m;
    rep.book(checked, wrong, &notes);
    let lookup_ops = quiet_rate(&point);
    rep.set("lookup_ops_per_s", lookup_ops, "ops/s");
    rep.set("ops_per_s", lookup_ops, "ops/s");
    let (p50, p99, samples) = lats.finish();
    rep.set("read_p50_us", p50 / 1e3, "us");
    rep.set("read_p99_us", p99 / 1e3, "us");
    rep.set("read_samples", samples as f64, "count");
    rep.set("batch_ops_per_s", quiet_rate(&batch), "keys/s");
    rep.set("scan_keys_per_s", quiet_rate(&scan), "keys/s");

    for (name, v, unit) in ProcSample::own().since(before).rows() {
        rep.set(name, v, unit);
    }
    rep.set("peak_rss_mb", sys::peak_rss_mb(pid), "MiB");
    for name in [
        "tiered.flushes",
        "server.busy",
        "server.timeouts",
        "gen.sent",
    ] {
        rep.set(name, 0.0, "count");
    }

    if ctx.tracer.is_some() {
        traced(ctx, forest, &mut rng, lookup_ops, rep);
    }
    Ok(())
}

/// The timed loops, their results and their answer checks.
struct Measure<'f> {
    forest: &'f Forest<u64>,
    rng: Rng,
    out: Vec<Option<(usize, u64)>>,
    /// Block rates of point lookups, sorted-batch keys and scanned keys.
    point: Vec<f64>,
    batch: Vec<f64>,
    scan: Vec<f64>,
    /// Single-lookup latencies, ns.
    lats: Windows,
    checked: u64,
    wrong: u64,
    /// The first few wrong answers.
    notes: Vec<String>,
}

impl<'f> Measure<'f> {
    fn new(forest: &'f Forest<u64>, rng: Rng) -> Self {
        Measure {
            forest,
            rng,
            out: Vec::new(),
            point: Vec::new(),
            batch: Vec::new(),
            scan: Vec::new(),
            lats: Windows::new(LATENCY_WINDOW),
            checked: 0,
            wrong: 0,
            notes: Vec::new(),
        }
    }

    fn check(&mut self, good: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !good {
            self.wrong += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Point lookups through `Forest::locate`: key `2r` at rank `r`.
    fn point_block(&mut self) {
        let keys: Vec<(u64, u64)> = (0..POINT_BLOCK).map(|_| draw(&mut self.rng)).collect();
        let mut ranks = Vec::with_capacity(keys.len());
        for slice in keys.chunks(SLICE) {
            let t = Instant::now();
            for &(k, _) in slice {
                ranks.push(self.forest.locate(k).map(|hit| hit.rank));
            }
            self.point
                .push(slice.len() as f64 / t.elapsed().as_secs_f64());
        }
        for (&(k, r), &got) in keys.iter().zip(&ranks) {
            self.check(got == Some(r), || {
                format!("lookup of {k}: rank {got:?}, expected {r}")
            });
        }
    }

    /// Lookups timed one by one.
    fn latency_block(&mut self) {
        for _ in 0..LATENCY_BLOCK {
            let (k, r) = draw(&mut self.rng);
            let t = Instant::now();
            let hit = self.forest.locate(black_box(k));
            self.lats.push(t.elapsed().as_nanos() as u64);
            let got = hit.map(|h| h.rank);
            self.check(got == Some(r), || {
                format!("timed lookup of {k}: rank {got:?}, expected {r}")
            });
        }
    }

    /// Sorted batches through `Forest::search_sorted_batch`: every probe
    /// hits, on the shard the router names.
    fn batch_block(&mut self) {
        for _ in 0..BATCHES_PER_BLOCK {
            let mut keys: Vec<u64> = (0..BATCH_KEYS).map(|_| draw(&mut self.rng).0).collect();
            keys.sort_unstable();
            let t = Instant::now();
            self.forest
                .search_sorted_batch(&keys, &mut self.out)
                .expect("sorted batches are ascending");
            self.batch
                .push(keys.len() as f64 / t.elapsed().as_secs_f64());
            let out = std::mem::take(&mut self.out);
            for (&k, hit) in keys.iter().zip(&out) {
                let routed = self.forest.route(k).map(|(s, _)| s);
                self.check(hit.is_some() && hit.map(|h| h.0) == routed, || {
                    format!("batch probe {k}: {hit:?}, routed to {routed:?}")
                });
            }
            self.out = out;
        }
    }

    /// Range scans: sorted, contiguous and `SCAN_KEYS` long.
    fn scan_block(&mut self) {
        let mut yielded = 0u64;
        let mut took = Duration::ZERO;
        for i in 0..SCANS_PER_BLOCK {
            let r = self.rng.below(KEYS - SCAN_KEYS) + 1;
            let (lo, hi) = (2 * r, 2 * (r + SCAN_KEYS - 1));
            let t = Instant::now();
            let mut expect = lo;
            let mut contiguous = true;
            for k in self.forest.range(lo..=hi) {
                contiguous &= k == expect;
                expect += 2;
            }
            took += t.elapsed();
            yielded += (expect - lo) / 2;
            self.check(contiguous && expect == hi + 2, || {
                format!("scan {lo}..={hi}: gapped, unsorted or short")
            });
            if (i + 1) % SCANS_PER_SLICE == 0 {
                self.scan.push(yielded as f64 / took.as_secs_f64());
                (yielded, took) = (0, Duration::ZERO);
            }
        }
    }
}

/// Point lookups with a span around each layer call, the tracing
/// overhead against the plain loop, and the shared layer probes.
fn traced(ctx: &mut Ctx, forest: &Forest<u64>, rng: &mut Rng, plain_ops: f64, rep: &mut Report) {
    let end = Instant::now() + ctx.budget(0.2);
    let tracer = ctx.tracer.as_mut().expect("traced run");
    let mut wrong = 0u64;
    let mut ops = 0u64;
    let mut rates = Vec::new();
    while ops == 0 || Instant::now() < end {
        let t = Instant::now();
        for _ in 0..TRACED_BLOCK {
            let (k, r) = draw(rng);
            let t0 = tracer.now();
            let routed = forest.route(k);
            let t1 = tracer.now();
            let (t2, rank) = match routed {
                Some((shard, tree)) => {
                    let lb = SearchBackend::lower_bound_rank(tree, k);
                    let present = SearchBackend::key_at_rank(tree, lb) == Some(k);
                    let t2 = tracer.now();
                    (
                        t2,
                        present.then(|| forest.rank_base(shard).unwrap_or(0) + lb),
                    )
                }
                None => (t1, None),
            };
            let t3 = tracer.now();
            if rank != Some(r) {
                wrong += 1;
            }
            tracer.record(
                ops,
                &[
                    Span {
                        name: "lookup.locate",
                        start_ns: t0,
                        end_ns: t3,
                        parent: None,
                    },
                    Span {
                        name: "forest.route",
                        start_ns: t0,
                        end_ns: t1,
                        parent: Some(0),
                    },
                    Span {
                        name: "kernel.lower_bound_rank",
                        start_ns: t1,
                        end_ns: t2,
                        parent: Some(0),
                    },
                ],
            );
            ops += 1;
        }
        rates.push(TRACED_BLOCK as f64 / t.elapsed().as_secs_f64());
    }
    let traced_ops = quiet_rate(&rates);
    rep.book(
        ops,
        wrong,
        &["traced lookup: missing key or wrong rank".into()],
    );
    rep.set("trace.lookup_ops_per_s", traced_ops, "ops/s");
    rep.set("trace.overhead_frac", plain_ops / traced_ops - 1.0, "ratio");

    // A stream of its own, so the cache simulation replays the same
    // probes for a seed however long the timed loops ran.
    let mut probes = Rng::derive(ctx.seed, 6);
    let points: Vec<u64> = (0..LAYER_PROBES).map(|_| draw(&mut probes).0).collect();
    let starts: Vec<u64> = (0..2_000)
        .map(|_| probes.below(KEYS - SCAN_SPAN) + 1)
        .collect();
    layers::probe_forest(forest, &points, &starts, rep);
}
