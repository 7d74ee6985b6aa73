//! `ingest-churn`: the durable tiered engine with `TieredBuilder`'s default
//! configuration, seeded with 2^20 keys `{2, 4, …}`. One writer thread
//! runs a fixed count of odd-key inserts and removes (many memtable
//! flushes), while one reader thread runs uniform point lookups. Writes
//! run at full speed beside reads with real durable I/O, so the
//! read-versus-write-versus-space trade shows: read latency while
//! shards are rebuilt, and bytes written per user byte. Afterwards the
//! directory is reopened and every acknowledged write must be there.

use crate::layers::{self, SCAN_SPAN};
use crate::report::{median, quantile, quiet_rate, Report, Windows};
use crate::rng::Rng;
use crate::sys::{self, CountingIo, ProcSample, ScratchDir};
use crate::trace::Span;
use crate::Ctx;
use cobtree_core::io::StorageIo;
use cobtree_search::{TierPlace, TieredForest};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SEED_KEYS: u64 = 1 << 20;
/// Writer operations per second of `--seconds`: a fixed count for a
/// given run length, enough for one memtable flush every ~4096 writes.
const WRITES_PER_SECOND_OF_RUN: f64 = 8_000.0;
/// Reads per window of the read latency quantiles (20 beyond the p99).
const LATENCY_WINDOW: usize = 2_000;
const SETUP_REPS: usize = 3;
const LAYER_PROBES: usize = 100_000;
/// Bytes of one `u64` key.
const KEY_BYTES: f64 = 8.0;

/// One scripted writer operation and the answer it must get.
#[derive(Debug, Clone, Copy)]
struct WriteOp {
    key: u64,
    remove: bool,
    /// Whether the live set changes.
    changes: bool,
}

/// The writer's script: two inserts of fresh odd keys for every remove
/// of a live one, so most operations add a memtable entry. Returns the
/// ops, the live odd keys after them, and every odd key ever inserted.
fn script(seed: u64, count: usize) -> (Vec<WriteOp>, BTreeSet<u64>, BTreeSet<u64>) {
    let mut rng = Rng::derive(seed, 3);
    let mut live_vec: Vec<u64> = Vec::new();
    let mut live = BTreeSet::new();
    let mut ever = BTreeSet::new();
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        if live_vec.is_empty() || rng.below(3) < 2 {
            let key = 2 * rng.below(SEED_KEYS) + 1;
            let changes = live.insert(key);
            if changes {
                live_vec.push(key);
            }
            ever.insert(key);
            ops.push(WriteOp {
                key,
                remove: false,
                changes,
            });
        } else {
            let i = rng.below(live_vec.len() as u64) as usize;
            let key = live_vec.swap_remove(i);
            live.remove(&key);
            ops.push(WriteOp {
                key,
                remove: true,
                changes: true,
            });
        }
    }
    (ops, live, ever)
}

fn build(ctx: &Ctx) -> Result<(TieredForest<u64>, ScratchDir, Arc<CountingIo>, f64), String> {
    let dir = ScratchDir::new(&ctx.out_dir, "ingest").map_err(|e| e.to_string())?;
    let io = Arc::new(CountingIo::default());
    let t = Instant::now();
    let engine = TieredForest::<u64>::builder()
        .path(dir.path())
        .io(Arc::clone(&io) as Arc<dyn StorageIo>)
        .keys((1..=SEED_KEYS).map(|r| 2 * r))
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let took = t.elapsed().as_secs_f64();
    if engine.len() != SEED_KEYS {
        return Err(format!("seeded engine holds {} keys", engine.len()));
    }
    Ok((engine, dir, io, took))
}

/// What the reader thread saw.
struct ReadTally {
    lats: Windows,
    wrong: u64,
    notes: Vec<String>,
    base: u64,
    /// When each buffer hit happened, to classify it later.
    buffer_hits: Vec<Instant>,
}

pub fn run(ctx: &mut Ctx, rep: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (engine, dir, io, took) = build(ctx)?;
        setups.push(took);
        last = Some((engine, dir, io));
    }
    let (engine, dir, io) = last.expect("at least one set-up");
    rep.set("setup_s", median(&setups), "s");

    let count = (WRITES_PER_SECOND_OF_RUN * ctx.seconds).round().max(1.0) as usize;
    let (ops, live, ever) = script(ctx.seed, count);
    let io_before = io.rows();
    let flushes_before = engine.flushes();
    let pid = std::process::id();
    let before = ProcSample::own();

    // Writer and reader side by side; the reader stops when the writer
    // is done.
    let done = AtomicBool::new(false);
    let mut write_lats: Vec<u64> = Vec::with_capacity(ops.len());
    let mut flush_spans: Vec<(Instant, Instant)> = Vec::new();
    let mut write_wrong: Vec<String> = Vec::new();
    let mut cycle_rates: Vec<f64> = Vec::new();
    let mut tracer = ctx.tracer.take();
    let mut read_rng = Rng::derive(ctx.seed, 4);
    let (writer_s, reads) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut tally = ReadTally {
                lats: Windows::new(LATENCY_WINDOW),
                wrong: 0,
                notes: Vec::new(),
                base: 0,
                buffer_hits: Vec::new(),
            };
            while !done.load(Ordering::Relaxed) {
                for _ in 0..256 {
                    let key = read_rng.below(2 * SEED_KEYS) + 1;
                    let t = Instant::now();
                    let hit = engine.locate(black_box(key));
                    tally.lats.push(t.elapsed().as_nanos() as u64);
                    match hit.map(|h| h.place) {
                        Some(TierPlace::Shard { .. }) => tally.base += 1,
                        Some(TierPlace::Buffer) => tally.buffer_hits.push(t),
                        None => {}
                    }
                    // Seeded keys never move; odd keys may come and go
                    // but only the scripted ones can ever be found.
                    let good = if key % 2 == 0 {
                        hit.is_some()
                    } else {
                        hit.is_none() || ever.contains(&key)
                    };
                    if !good {
                        tally.wrong += 1;
                        if tally.notes.len() < 8 {
                            tally
                                .notes
                                .push(format!("concurrent read of {key}: {hit:?}"));
                        }
                    }
                }
            }
            tally
        });
        let t = Instant::now();
        let (mut cycle_first, mut cycle_start) = (0, t);
        for (i, op) in ops.iter().enumerate() {
            let epoch = engine.epoch();
            let t0 = Instant::now();
            let changed = if op.remove {
                engine.remove(op.key)
            } else {
                engine.insert(op.key)
            };
            let t1 = Instant::now();
            write_lats.push((t1 - t0).as_nanos() as u64);
            if engine.epoch() != epoch {
                flush_spans.push((t0, t1));
                // One memtable cycle ends with the write that flushed it.
                cycle_rates.push((i + 1 - cycle_first) as f64 / (t1 - cycle_start).as_secs_f64());
                (cycle_first, cycle_start) = (i + 1, t1);
            }
            if changed != op.changes {
                write_wrong.push(format!("write #{i} {op:?} returned {changed}"));
            }
            if let Some(tr) = tracer.as_mut() {
                let (s, e) = (tr.at(t0), tr.at(t1));
                let name = if op.remove {
                    "tiered.remove"
                } else {
                    "tiered.insert"
                };
                tr.record(
                    i as u64,
                    &[
                        Span {
                            name: "ingest.write",
                            start_ns: s,
                            end_ns: e,
                            parent: None,
                        },
                        Span {
                            name,
                            start_ns: s,
                            end_ns: e,
                            parent: Some(0),
                        },
                    ],
                );
            }
        }
        let writer_s = t.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        (writer_s, reader.join().expect("reader thread panicked"))
    });
    ctx.tracer = tracer;
    if let Some(e) = engine.take_compaction_error() {
        return Err(format!("compaction failed during churn: {e}"));
    }

    // Write results.
    rep.book(ops.len() as u64, write_wrong.len() as u64, &write_wrong);
    // Each memtable cycle is a block of writes ending in its flush.
    let writes_per_s = if cycle_rates.is_empty() {
        ops.len() as f64 / writer_s
    } else {
        quiet_rate(&cycle_rates)
    };
    rep.set("ingest_writer_s", writer_s, "s");
    rep.set("ingest_writes_per_s", writes_per_s, "ops/s");
    rep.set("ops_per_s", writes_per_s, "ops/s");
    let flushes = engine.flushes() - flushes_before;
    rep.set("tiered.flushes", flushes as f64, "count");
    write_lats.sort_unstable();
    rep.set("tiered.insert_p50_ns", quantile(&write_lats, 0.50), "ns");
    rep.set("tiered.insert_p99_ns", quantile(&write_lats, 0.99), "ns");
    let mut flush_ms: Vec<f64> = flush_spans
        .iter()
        .map(|(a, b)| (*b - *a).as_secs_f64() * 1e3)
        .collect();
    rep.set("tiered.flush_ms_p50", median(&flush_ms), "ms");
    flush_ms.sort_by(f64::total_cmp);
    rep.set(
        "tiered.flush_ms_max",
        flush_ms.last().copied().unwrap_or(0.0),
        "ms",
    );

    // Read results.
    let ReadTally {
        lats,
        wrong,
        notes,
        base,
        buffer_hits,
    } = reads;
    let (p50, p99, reads) = lats.finish();
    rep.book(reads, wrong, &notes);
    rep.set("ingest_read_p50_ns", p50, "ns");
    rep.set("ingest_read_p99_ns", p99, "ns");
    rep.set("read_p50_us", p50 / 1e3, "us");
    rep.set("read_p99_us", p99 / 1e3, "us");
    rep.set("read_samples", reads as f64, "count");
    let frozen = buffer_hits
        .iter()
        .filter(|t| flush_spans.iter().any(|(a, b)| a <= *t && *t <= b))
        .count() as u64;
    let hits = (base + buffer_hits.len() as u64).max(1) as f64;
    rep.set("tiered.hit_base_frac", base as f64 / hits, "ratio");
    rep.set(
        "tiered.hit_mem_frac",
        (buffer_hits.len() as u64 - frozen) as f64 / hits,
        "ratio",
    );
    rep.set("tiered.hit_frozen_frac", frozen as f64 / hits, "ratio");

    // Reads with the writer paused, then the tracing overhead on the
    // same loop.
    let mut rng = Rng::derive(ctx.seed, 5);
    let idle_ns = idle_reads(&engine, &mut rng, ctx.budget(0.05), rep, None);
    rep.set("tiered.locate_idle_ns", idle_ns, "ns");
    let budget = ctx.budget(0.05);
    if let Some(tracer) = ctx.tracer.as_mut() {
        let traced_ns = idle_reads(&engine, &mut rng, budget, rep, Some(tracer));
        rep.set("trace.overhead_frac", traced_ns / idle_ns - 1.0, "ratio");
    }

    // Make the tail durable, then count what the churn wrote.
    engine.flush().map_err(|e| format!("final flush: {e}"))?;
    let io_after = io.rows();
    for ((name, b, unit), (_, a, _)) in io_before.iter().zip(io_after.iter()) {
        rep.set(name, a - b, unit);
    }
    let user_bytes = ops.len() as f64 * KEY_BYTES;
    rep.set(
        "write_amp",
        (io_after[0].1 - io_before[0].1) / user_bytes,
        "bytes/byte",
    );
    let live_keys = SEED_KEYS + live.len() as u64;
    rep.set(
        "format.disk_bytes_per_key",
        sys::dir_bytes(dir.path()) as f64 / live_keys as f64,
        "bytes",
    );
    for (name, v, unit) in ProcSample::own().since(before).rows() {
        rep.set(name, v, unit);
    }

    if ctx.tracer.is_some() {
        let snap = engine.snapshot();
        let base = snap.base().ok_or("no base forest after flush")?;
        // A stream of its own, so the cache simulation replays the same
        // probes for a seed however long the timed loops ran.
        let mut probes = Rng::derive(ctx.seed, 6);
        let points: Vec<u64> = (0..LAYER_PROBES)
            .map(|_| 2 * (probes.below(SEED_KEYS) + 1))
            .collect();
        let starts: Vec<u64> = (0..2_000)
            .map(|_| probes.below(base.len() - SCAN_SPAN) + 1)
            .collect();
        layers::probe_forest(base, &points, &starts, rep);
    }

    // Reopen from disk: every acknowledged write must be there.
    drop(engine);
    verify_reopened(dir.path(), &live, rep)?;
    rep.set("peak_rss_mb", sys::peak_rss_mb(pid), "MiB");
    for name in ["server.busy", "server.timeouts", "gen.sent"] {
        rep.set(name, 0.0, "count");
    }
    Ok(())
}

/// Uniform reads of seeded keys with no writer running; mean ns per
/// read. Traced when a tracer is given.
fn idle_reads(
    engine: &TieredForest<u64>,
    rng: &mut Rng,
    budget: Duration,
    rep: &mut Report,
    mut tracer: Option<&mut crate::trace::Tracer>,
) -> f64 {
    let end = Instant::now() + budget;
    let mut n = 0u64;
    let mut wrong = 0u64;
    let t = Instant::now();
    while n == 0 || Instant::now() < end {
        for _ in 0..1024 {
            let key = 2 * (rng.below(SEED_KEYS) + 1);
            let found = match tracer.as_deref_mut() {
                Some(tr) => {
                    let t0 = tr.now();
                    let hit = engine.locate(key);
                    let t1 = tr.now();
                    tr.record(
                        n,
                        &[
                            Span {
                                name: "ingest.read",
                                start_ns: t0,
                                end_ns: t1,
                                parent: None,
                            },
                            Span {
                                name: "tiered.locate",
                                start_ns: t0,
                                end_ns: t1,
                                parent: Some(0),
                            },
                        ],
                    );
                    hit.is_some()
                }
                None => engine.locate(black_box(key)).is_some(),
            };
            wrong += u64::from(!found);
            n += 1;
        }
    }
    let ns = t.elapsed().as_nanos() as f64 / n as f64;
    rep.ok(n - wrong);
    for _ in 0..wrong {
        rep.wrong(|| "idle read: seeded key missing".into());
    }
    ns
}

/// Reopens the store with `TieredForest::open` and compares its keys
/// with the seeded even keys plus the live odd keys.
fn verify_reopened(
    dir: &std::path::Path,
    live: &BTreeSet<u64>,
    rep: &mut Report,
) -> Result<(), String> {
    let reopened = TieredForest::<u64>::open(dir).map_err(|e| format!("reopen: {e}"))?;
    let mut expected = (1..=SEED_KEYS).map(|r| 2 * r).peekable();
    let mut odd = live.iter().copied().peekable();
    let mut mismatches = 0u64;
    let mut first = None;
    let mut seen = 0u64;
    for key in reopened.snapshot().iter() {
        let want = match (expected.peek(), odd.peek()) {
            (Some(&e), Some(&o)) if o < e => odd.next(),
            (Some(_), _) => expected.next(),
            (None, _) => odd.next(),
        };
        if want != Some(key) {
            mismatches += 1;
            first.get_or_insert(format!("reopened store yields {key}, expected {want:?}"));
        }
        seen += 1;
    }
    let want_len = SEED_KEYS + live.len() as u64;
    if seen != want_len {
        mismatches += 1;
        first.get_or_insert(format!(
            "reopened store holds {seen} keys, expected {want_len}"
        ));
    }
    rep.check(mismatches == 0, || first.unwrap_or_default());
    rep.set("durable_mismatches", mismatches as f64, "count");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_answers_match_a_set_and_reopen_check_catches_a_lost_write() {
        let (ops, live, ever) = script(9, 20_000);
        let mut set = BTreeSet::new();
        for op in &ops {
            let changed = if op.remove {
                set.remove(&op.key)
            } else {
                set.insert(op.key)
            };
            assert_eq!(changed, op.changes, "{op:?}");
            assert!(op.key % 2 == 1 && ever.contains(&op.key));
        }
        assert_eq!(set, live);

        let dir = ScratchDir::new(&std::env::temp_dir(), "ingest-test").unwrap();
        let engine = TieredForest::<u64>::builder()
            .path(dir.path())
            .keys((1..=SEED_KEYS).map(|r| 2 * r))
            .build()
            .unwrap();
        for op in &ops {
            if op.remove {
                engine.remove(op.key);
            } else {
                engine.insert(op.key);
            }
        }
        assert!(engine.flushes() > 1);
        engine.flush().unwrap();
        drop(engine);

        let mut rep = Report::default();
        verify_reopened(dir.path(), &live, &mut rep).unwrap();
        assert_eq!(rep.wrong, 0, "{:?}", rep.wrong_notes);
        let mut claimed = live.clone();
        claimed.insert(3);
        claimed.insert(2 * SEED_KEYS + 1);
        let mut rep = Report::default();
        verify_reopened(dir.path(), &claimed, &mut rep).unwrap();
        assert_eq!(rep.wrong, 1);
    }
}
