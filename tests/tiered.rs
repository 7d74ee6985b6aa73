//! Acceptance tests for the tiered write path: under arbitrary
//! interleavings of inserts, removes, flushes and reads, the
//! [`TieredForest`] must answer the full ordered-map surface exactly
//! like a `BTreeSet` oracle — cursors straddling tiers, rank/select
//! with pending tombstones, empty-memtable and memtable-only edge
//! cases included — and a compaction killed at any write must leave a
//! store that reopens to precisely the state of the last successful
//! publish, without panicking.

use cobtree::core::io::ScratchDir;
use cobtree::core::NamedLayout;
use cobtree::{TierPlace, TieredForest};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Checks the complete query surface of `engine` against `oracle`,
/// probing around every live key and a sweep of absent ones.
fn assert_matches_oracle(engine: &TieredForest<u64>, oracle: &BTreeSet<u64>, tag: &str) {
    let keys: Vec<u64> = oracle.iter().copied().collect();
    assert_eq!(engine.len(), keys.len() as u64, "{tag}: len");
    assert_eq!(engine.is_empty(), keys.is_empty(), "{tag}");

    // Full sorted iteration (the three-tier merge) and its reverse.
    let snapshot = engine.snapshot();
    let forward: Vec<u64> = snapshot.iter().collect();
    assert_eq!(forward, keys, "{tag}: iter");
    let mut backward: Vec<u64> = snapshot.iter().rev().collect();
    backward.reverse();
    assert_eq!(backward, keys, "{tag}: iter().rev()");

    // Point + ordered queries at, below and above every live key, plus
    // the extremes.
    let probes: Vec<u64> = keys
        .iter()
        .flat_map(|&k| [k.saturating_sub(1), k, k + 1])
        .chain([0, 1, u64::MAX / 2, u64::MAX - 1])
        .collect();
    for &p in &probes {
        let lt = keys.partition_point(|&k| k < p) as u64;
        let le = keys.partition_point(|&k| k <= p) as u64;
        let present = oracle.contains(&p);
        assert_eq!(engine.contains(p), present, "{tag}: contains({p})");
        assert_eq!(engine.rank(p), lt, "{tag}: rank({p})");
        assert_eq!(engine.lower_bound_rank(p), lt + 1, "{tag}: lb_rank({p})");
        assert_eq!(engine.upper_bound_rank(p), le + 1, "{tag}: ub_rank({p})");
        assert_eq!(
            engine.lower_bound(p),
            keys.get(lt as usize).copied(),
            "{tag}: lower_bound({p})"
        );
        assert_eq!(
            engine.upper_bound(p),
            keys.get(le as usize).copied(),
            "{tag}: upper_bound({p})"
        );
        assert_eq!(
            engine.predecessor(p),
            (lt > 0).then(|| keys[lt as usize - 1]),
            "{tag}: predecessor({p})"
        );
        assert_eq!(
            engine.successor(p),
            keys.get(le as usize).copied(),
            "{tag}: successor({p})"
        );
        let hit = engine.locate(p);
        assert_eq!(hit.is_some(), present, "{tag}: locate({p})");
        if let Some(hit) = hit {
            assert_eq!(hit.rank, le, "{tag}: locate({p}).rank");
        }
    }

    // select is the exact inverse of the dense rank sequence.
    assert_eq!(engine.select(0), None, "{tag}");
    assert_eq!(engine.select(keys.len() as u64 + 1), None, "{tag}");
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(
            engine.select(i as u64 + 1),
            Some(k),
            "{tag}: select({})",
            i + 1
        );
    }

    // Range windows between consecutive live keys (and a full scan).
    let scan: Vec<u64> = snapshot.range(..).collect();
    assert_eq!(scan, keys, "{tag}: range(..)");
    for w in keys.windows(3).step_by(2) {
        let got: Vec<u64> = snapshot.range(w[0]..=w[2]).collect();
        assert_eq!(got, w.to_vec(), "{tag}: range({}..={})", w[0], w[2]);
        let half: Vec<u64> = snapshot.range(w[0] + 1..w[2]).collect();
        let expect: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| k > w[0] && k < w[2])
            .collect();
        assert_eq!(half, expect, "{tag}: range({}..{})", w[0] + 1, w[2]);
    }

    // Cursor walk: seek each probe to its lower bound, then step both
    // ways and return.
    let mut cur = snapshot.cursor();
    for &p in probes.iter().take(24) {
        let lt = keys.partition_point(|&k| k < p);
        assert_eq!(cur.seek(p), keys.get(lt).copied(), "{tag}: seek({p})");
        assert_eq!(
            cur.next(),
            keys.get(lt + 1).copied(),
            "{tag}: seek({p}).next"
        );
        // `next` past the end stays on the after-last sentinel, so a
        // probe above every key steps back onto the last key.
        let back = if lt == keys.len() {
            keys.last()
        } else {
            keys.get(lt)
        };
        assert_eq!(cur.prev(), back.copied(), "{tag}: back to seek({p})");
    }
    assert_eq!(cur.seek_first(), keys.first().copied(), "{tag}");
    assert_eq!(cur.seek_last(), keys.last().copied(), "{tag}");

    // Sorted-batch search over every live key and the gaps between.
    let mut batch: Vec<u64> = probes.clone();
    batch.sort_unstable();
    batch.dedup();
    let mut out = Vec::new();
    engine
        .search_sorted_batch(&batch, &mut out)
        .expect("sorted batch");
    for (&p, hit) in batch.iter().zip(&out) {
        assert_eq!(hit.is_some(), oracle.contains(&p), "{tag}: batch({p})");
    }
}

/// The oracle replay shared by the random and the scripted cases: seed
/// a durable two-shard engine, apply `ops` — `(0, k)` insert, `(1, k)`
/// remove, `(2, k)` read (every third one compacts first), `(3, _)`
/// incremental flush — against a `BTreeSet`, then check the engine
/// buffered, flushed, reopened, compacted and reopened again.
fn replay_against_oracle(
    layout: NamedLayout,
    seed_keys: BTreeSet<u64>,
    ops: &[(u64, u64)],
    dir: &std::path::Path,
) -> Result<(), TestCaseError> {
    let engine: TieredForest<u64> = TieredForest::builder()
        .layout(layout)
        .shards(2)
        .memtable_entries(1 << 30) // only explicit flushes
        .path(dir)
        .keys(seed_keys.iter().copied())
        .build()
        .expect("build durable engine");
    let mut oracle: BTreeSet<u64> = seed_keys;

    for (i, &(op, key)) in ops.iter().enumerate() {
        match op {
            0 => prop_assert_eq!(
                engine.insert(key),
                oracle.insert(key),
                "op {} insert {}",
                i,
                key
            ),
            1 => prop_assert_eq!(
                engine.remove(key),
                oracle.remove(&key),
                "op {} remove {}",
                i,
                key
            ),
            2 => {
                prop_assert_eq!(
                    engine.contains(key),
                    oracle.contains(&key),
                    "op {} get {}",
                    i,
                    key
                );
                // Every third read op forces a compaction first, so
                // later ops run against a freshly published base
                // with an empty memtable.
                if i % 3 == 0 {
                    engine.compact().expect("compact");
                    prop_assert_eq!(engine.buffered(), 0, "op {}", i);
                }
            }
            _ => {
                // Rebuild only the shards the buffer touches: they are
                // gathered at one height and may be scattered at another.
                engine.flush().expect("flush");
                prop_assert_eq!(engine.buffered(), 0, "op {}", i);
                let live: Vec<u64> = engine.snapshot().iter().collect();
                let expect: Vec<u64> = oracle.iter().copied().collect();
                prop_assert_eq!(live, expect, "op {} flush", i);
            }
        }
        prop_assert_eq!(engine.len(), oracle.len() as u64, "op {}", i);
    }

    // Mid-stream: memtable (and possibly tombstones) pending.
    assert_matches_oracle(&engine, &oracle, "buffered");
    // Incrementally flushed, then durable across a reopen.
    engine.flush().expect("final flush");
    assert_matches_oracle(&engine, &oracle, "flushed");
    drop(engine);
    let engine: TieredForest<u64> = TieredForest::open(dir).expect("reopen after flush");
    assert_matches_oracle(&engine, &oracle, "reopened after flush");
    // Drained: empty memtable, pure base.
    engine.compact().expect("final compact");
    assert_matches_oracle(&engine, &oracle, "drained");
    // Durable: a reopened store serves the identical state.
    drop(engine);
    let reopened: TieredForest<u64> = TieredForest::open(dir).expect("reopen");
    assert_matches_oracle(&reopened, &oracle, "reopened");
    Ok(())
}

/// Scripted flush cases for [`replay_against_oracle`], for every layout
/// and several heights `h`. Seeding `2·(2^h − 1)` keys puts exactly
/// `2^h − 1` in each shard; then shard 0 grows to `2^h` keys and shrinks
/// back (so the flush gathers at one height and scatters at the other),
/// both shards lose their first and last keys to tombstones, and keys
/// arrive below the first fence — with an incremental flush after each
/// step and a `BTreeSet` replay checked against the reopened store.
#[test]
fn flush_cases_match_btreeset_replay() {
    for layout in NamedLayout::ALL {
        for h in [1u32, 3, 6] {
            let per_shard = (1u64 << h) - 1;
            let seed: BTreeSet<u64> = (1..=2 * per_shard).map(|k| k * 10).collect();
            let last0 = per_shard * 10;
            let (first1, last1) = (last0 + 10, 2 * per_shard * 10);
            let flush = (3, 0);
            let ops = [
                (0, 15), // shard 0 grows from 2^h − 1 to 2^h keys
                flush,
                (1, 15), // ... and shrinks back to 2^h − 1
                flush,
                (1, 10), // tombstones on both shards' first and last keys
                (1, last0),
                (1, first1),
                (1, last1),
                flush,
                (0, 1), // inserts below the first fence
                (0, 5),
                (0, last1 + 5), // and above the last key
                flush,
            ];
            let dir = ScratchDir::new("tiered-flush-cases");
            replay_against_oracle(layout, seed, &ops, dir.path())
                .unwrap_or_else(|e| panic!("{layout} h={h}: {e:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cross-tier ordered-map oracle: arbitrary interleavings of
    /// inserts, removes, incremental flushes, explicit compactions and
    /// reads against a durable (mapped-storage) engine for ≥2 layouts,
    /// with the oracle consulted mid-stream (memtable populated,
    /// tombstones pending against the base) and after a full drain
    /// (empty memtable).
    #[test]
    fn ordered_api_matches_btreeset_across_tiers(
        layout in proptest::sample::select(vec![NamedLayout::MinWep, NamedLayout::PreVeb]),
        seed_keys in proptest::collection::btree_set(0u64..4_000, 0..120),
        ops in proptest::collection::vec((0u64..4u64, 0u64..4_000), 1..160),
    ) {
        let dir = ScratchDir::new("tiered-oracle");
        replay_against_oracle(layout, seed_keys, &ops, dir.path())?;
    }

    /// Crash consistency: kill the compaction at an arbitrary write
    /// (optionally tearing that write in half), drop the engine, and
    /// reopen the directory. The store must come back to exactly the
    /// state of the last *successful* publish — nothing flushed is ever
    /// lost, nothing half-flushed ever surfaces, and no input panics.
    #[test]
    fn killed_compaction_reopens_to_last_publish(
        rounds in proptest::collection::vec(
            // (ops this round, kill-at-write budget, tear the last write)
            (1u64..40, 0usize..6, any::<bool>()),
            1..5,
        ),
        salt in any::<u64>(),
    ) {
        let dir = ScratchDir::new("tiered-crash");
        let seed: Vec<u64> = (1..=200u64).map(|k| k * 3).collect();
        let mut engine: TieredForest<u64> = TieredForest::builder()
            .shards(3)
            .memtable_entries(1 << 30)
            .path(&dir)
            .keys(seed.iter().copied())
            .build()
            .expect("build durable engine");

        let mut oracle: BTreeSet<u64> = seed.into_iter().collect();
        let mut durable = oracle.clone(); // state of the last publish
        let mut state = salt | 1;

        for &(ops, budget, tear) in &rounds {
            for _ in 0..ops {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = (state >> 33) % 900;
                if state % 3 == 0 {
                    engine.remove(key);
                    oracle.remove(&key);
                } else {
                    engine.insert(key);
                    oracle.insert(key);
                }
            }
            match engine.flush_with_failpoint(budget, tear) {
                Ok(_) => durable = oracle.clone(),
                Err(_) => {
                    // Crash: drop the wounded engine without retrying.
                    drop(engine);
                    let back: TieredForest<u64> =
                        TieredForest::open(&dir).expect("reopen after kill");
                    let got: Vec<u64> = back.snapshot().iter().collect();
                    let expect: Vec<u64> = durable.iter().copied().collect();
                    prop_assert_eq!(got, expect, "budget {} tear {}", budget, tear);
                    // The acknowledged-but-unflushed tail is gone with
                    // the crash; resync the oracle to the survivor.
                    oracle = durable.clone();
                    engine = back;
                }
            }
            // Whatever happened, the live engine serves its oracle.
            prop_assert_eq!(engine.len(), oracle.len() as u64);
            for &p in oracle.iter().take(8) {
                prop_assert!(engine.contains(p));
            }
        }

        // A final clean drain always succeeds and reopens losslessly.
        engine.compact().expect("final compact");
        drop(engine);
        let back: TieredForest<u64> = TieredForest::open(&dir).expect("final reopen");
        let got: Vec<u64> = back.snapshot().iter().collect();
        let expect: Vec<u64> = oracle.iter().copied().collect();
        prop_assert_eq!(got, expect);
    }
}

/// Memtable-only edge: every query works before any flush exists, with
/// no base forest and no directory.
#[test]
fn memtable_only_engine_matches_oracle() {
    let engine: TieredForest<u64> = TieredForest::builder()
        .memtable_entries(1 << 30)
        .build()
        .expect("in-memory engine");
    let mut oracle = BTreeSet::new();
    for k in [55u64, 13, 89, 2, 34, 21, 1, 3, 8, 5] {
        assert!(engine.insert(k));
        oracle.insert(k);
    }
    assert!(engine.remove(34));
    oracle.remove(&34);
    assert_matches_oracle(&engine, &oracle, "memtable-only");
    // Every hit resolves in the buffer tier: there is no base.
    for &k in &oracle {
        assert_eq!(
            engine.locate(k).expect("live key").place,
            TierPlace::Buffer,
            "{k}"
        );
    }
}

/// Empty-engine edge: all queries are total on a store with no keys at
/// all, and stay total after the last key is tombstoned away.
#[test]
fn empty_and_fully_drained_engines_answer_every_query() {
    let dir = ScratchDir::new("tiered-empty");
    let engine: TieredForest<u64> = TieredForest::builder()
        .shards(2)
        .path(&dir)
        .build()
        .expect("empty durable engine");
    assert_matches_oracle(&engine, &BTreeSet::new(), "born empty");

    for k in 0..40u64 {
        engine.insert(k * 7);
    }
    engine.compact().expect("publish");
    for k in 0..40u64 {
        engine.remove(k * 7);
    }
    // Tombstones for every base key are pending: the engine is logically
    // empty while the base still holds 40 keys.
    assert_matches_oracle(&engine, &BTreeSet::new(), "all tombstoned");
    engine.compact().expect("drain to empty");
    assert_matches_oracle(&engine, &BTreeSet::new(), "drained empty");

    // And the emptied store round-trips through disk (a v2 manifest
    // with zero total keys is valid).
    drop(engine);
    let back: TieredForest<u64> = TieredForest::open(&dir).expect("reopen empty");
    assert_matches_oracle(&back, &BTreeSet::new(), "reopened empty");
}
