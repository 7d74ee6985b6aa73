//! Acceptance tests for the sharded serving engine: a [`Forest`] over
//! any shard count must answer point, range, rank/select and batch
//! queries — and their checksums — *identically* to a single unsharded
//! [`SearchTree`] over the same keys, across storage backends and
//! through a save→open round trip of mapped shard files. Cross-shard
//! edge cases (empty shards, single-key shards, ranges straddling
//! multiple fences, ranks at shard boundaries) get deterministic
//! coverage on top of the property sweep.

use cobtree::core::io::ScratchDir;
use cobtree::core::NamedLayout;
use cobtree::search::forest::rank_checksum;
use cobtree::{Forest, SearchTree, Storage};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn single(keys: &[u64]) -> SearchTree<u64> {
    SearchTree::builder()
        .storage(Storage::Implicit)
        .keys(keys.iter().copied())
        .build()
        .expect("oracle tree")
}

fn forest(keys: &[u64], shards: usize, storage: Storage) -> Forest<u64> {
    Forest::builder()
        .shards(shards)
        .storage(storage)
        .keys(keys.iter().copied())
        .build()
        .expect("forest builds")
}

/// Boundary-heavy probe set: every fence key, its neighbours, and the
/// extremes.
fn boundary_probes(f: &Forest<u64>) -> Vec<u64> {
    let mut probes = vec![0, 1, u64::MAX];
    for &fence in f.router().fences() {
        probes.extend([fence.saturating_sub(1), fence, fence + 1]);
    }
    for tree in f.shards() {
        let last = tree.select(tree.len()).unwrap();
        probes.extend([last.saturating_sub(1), last, last + 1]);
    }
    probes
}

#[test]
fn four_shard_forest_matches_unsharded_tree_on_everything() {
    // The headline acceptance criterion: >= 4 shards, every query
    // surface, checksums equal to the single tree's.
    let keys: Vec<u64> = (0..2_000u64).map(|k| k * 7 + (k % 5)).collect();
    let oracle = single(&keys);
    for storage in [Storage::Explicit, Storage::Implicit, Storage::IndexOnly] {
        let f = forest(&keys, 4, storage);
        assert_eq!(f.shard_count(), 4);
        assert_eq!(f.active_shards(), 4);
        assert_eq!(f.len(), oracle.len());

        let probes: Vec<u64> = (0..30_000u64)
            .step_by(7)
            .chain(boundary_probes(&f))
            .collect();
        assert_eq!(
            f.rank_checksum(&probes),
            rank_checksum(&oracle, &probes),
            "{storage}: rank checksum"
        );
        for &p in &probes {
            assert_eq!(f.contains(p), oracle.contains(p), "{storage} contains({p})");
            assert_eq!(f.rank(p), oracle.rank(p), "{storage} rank({p})");
            assert_eq!(f.lower_bound(p), oracle.lower_bound(p), "{storage} lb({p})");
            assert_eq!(f.upper_bound(p), oracle.upper_bound(p), "{storage} ub({p})");
            assert_eq!(
                f.predecessor(p),
                oracle.predecessor(p),
                "{storage} pred({p})"
            );
        }
        for r in [0u64, 1, 2, 499, 500, 501, 999, 1000, 1001, 1999, 2000, 2001] {
            assert_eq!(f.select(r), oracle.select(r), "{storage} select({r})");
        }
        assert_eq!(
            f.iter().collect::<Vec<u64>>(),
            oracle.iter().collect::<Vec<u64>>(),
            "{storage}: full iteration"
        );
    }
}

#[test]
fn mapped_forest_round_trip_preserves_every_answer() {
    let keys: Vec<u64> = (1..=1_500u64).map(|k| k * 11).collect();
    let oracle = single(&keys);
    let built = forest(&keys, 6, Storage::Implicit);
    let dir = ScratchDir::new("forest-accept");
    built.save(&dir).expect("save forest");
    let served: Forest<u64> = Forest::open(&dir).expect("open forest");
    assert_eq!(served.storage(), Storage::Mapped);
    assert!(served.shards().all(|t| t.storage() == Storage::Mapped));

    let probes: Vec<u64> = (0..20_000u64).step_by(3).collect();
    assert_eq!(
        served.rank_checksum(&probes),
        rank_checksum(&oracle, &probes)
    );
    let mut batch = probes.clone();
    batch.sort_unstable();
    let mut serial = Vec::new();
    served.search_sorted_batch(&batch, &mut serial).unwrap();
    for threads in [1, 2, 4] {
        let mut par = Vec::new();
        served.par_search_batch(&batch, threads, &mut par).unwrap();
        assert_eq!(par, serial, "threads={threads}");
    }
    for (i, &p) in batch.iter().enumerate() {
        assert_eq!(serial[i].is_some(), oracle.contains(p), "probe {p}");
    }
    assert_eq!(
        served.par_range(100u64..=12_000, 4),
        oracle.range(100u64..=12_000).collect::<Vec<u64>>()
    );
}

#[test]
fn empty_shards_answer_like_the_oracle() {
    // More shards than keys: most partition slots stay empty, and the
    // whole surface must still match the unsharded tree.
    let keys = [5u64, 100, 101, 9_000];
    let oracle = single(&keys);
    for shards in [5, 8, 64] {
        let f = forest(&keys, shards, Storage::Implicit);
        assert_eq!(f.shard_count(), shards);
        assert_eq!(f.active_shards(), keys.len());
        for p in (0..10_000u64)
            .step_by(11)
            .chain([4, 5, 6, 99, 102, 8_999, 9_000, 9_001])
        {
            assert_eq!(
                f.contains(p),
                oracle.contains(p),
                "{shards} shards: contains({p})"
            );
            assert_eq!(f.rank(p), oracle.rank(p), "{shards} shards: rank({p})");
            assert_eq!(f.lower_bound(p), oracle.lower_bound(p));
        }
        for r in 0..=5u64 {
            assert_eq!(f.select(r), oracle.select(r));
        }
        assert_eq!(f.iter().collect::<Vec<u64>>(), keys.to_vec());
        // Save → open keeps the empty slots (manifest rows) intact.
        let dir = ScratchDir::new("forest-empty");
        f.save(&dir).unwrap();
        let served: Forest<u64> = Forest::open(&dir).unwrap();
        assert_eq!(served.shard_count(), shards);
        assert_eq!(served.active_shards(), keys.len());
        assert_eq!(served.iter().collect::<Vec<u64>>(), keys.to_vec());
    }
}

#[test]
fn single_key_shards_hold_the_global_contract() {
    // Exactly one key per shard: every fence is a one-key partition and
    // every rank sits on a shard boundary.
    let keys: Vec<u64> = (1..=9u64).map(|k| k * 10).collect();
    let f = forest(&keys, 9, Storage::Implicit);
    assert_eq!(f.active_shards(), 9);
    assert!(f.shards().all(|t| t.len() == 1));
    let oracle = single(&keys);
    for p in 0..=100u64 {
        assert_eq!(f.rank(p), oracle.rank(p), "rank({p})");
        assert_eq!(f.contains(p), oracle.contains(p));
        assert_eq!(f.upper_bound(p), oracle.upper_bound(p));
    }
    for r in 0..=10u64 {
        assert_eq!(f.select(r), oracle.select(r), "select({r})");
    }
    let window: Vec<u64> = f.range(15u64..=75).collect();
    assert_eq!(window, vec![20, 30, 40, 50, 60, 70]);
    // A cursor walk crosses eight fences.
    assert_eq!(f.cursor().collect::<Vec<u64>>(), keys);
}

#[test]
fn ranges_straddling_multiple_fences_match_the_btreeset_oracle() {
    let keys: Vec<u64> = (0..600u64).map(|k| k * 3 + (k % 2)).collect();
    let oracle: BTreeSet<u64> = keys.iter().copied().collect();
    let f = forest(&keys, 6, Storage::Implicit);
    let fences = f.router().fences().to_vec();
    assert_eq!(fences.len(), 6);
    // Windows spanning exactly 2, 3 and all 6 shards, with bounds on
    // and next to the fences.
    for (i, j) in [(0usize, 1usize), (1, 3), (0, 5), (2, 4), (3, 5)] {
        for lo_off in [0i64, -1, 1] {
            for hi_off in [0i64, -1, 1] {
                let lo = fences[i].saturating_add_signed(lo_off);
                let hi = fences[j].saturating_add_signed(hi_off);
                let got: Vec<u64> = f.range(lo..=hi).collect();
                let expect: Vec<u64> = oracle.range(lo..=hi).copied().collect();
                assert_eq!(got, expect, "straddle {i}->{j} [{lo}, {hi}]");
                let got_rev: Vec<u64> = f.range(lo..hi).rev().collect();
                let mut expect_rev: Vec<u64> = oracle.range(lo..hi).copied().collect();
                expect_rev.reverse();
                assert_eq!(got_rev, expect_rev, "rev straddle {i}->{j}");
                assert_eq!(f.par_range(lo..=hi, 3), expect, "par straddle {i}->{j}");
            }
        }
    }
}

#[test]
fn rank_select_at_shard_boundaries() {
    let keys: Vec<u64> = (1..=400u64).map(|k| k * 5).collect();
    let f = forest(&keys, 8, Storage::Implicit);
    let oracle = single(&keys);
    // The global rank of each shard's first and last key must agree
    // with the oracle, and select must invert it — the prefix-sum
    // translation is exactly what these hit.
    for tree in f.shards() {
        let first = tree.select(1).unwrap();
        let last = tree.select(tree.len()).unwrap();
        for k in [first, last] {
            let hit = f.locate(k).expect("stored key");
            assert_eq!(hit.rank, oracle.rank(k) + 1, "rank of boundary key {k}");
            assert_eq!(f.select(hit.rank), Some(k), "select inverts at {k}");
            // Off-by-one probes around the boundary.
            assert_eq!(f.rank(k + 1), oracle.rank(k + 1));
            assert_eq!(
                f.rank(k.saturating_sub(1)),
                oracle.rank(k.saturating_sub(1))
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full ordered surface of an arbitrary forest (random keys,
    /// shard count, layout) equals the unsharded oracle's.
    #[test]
    fn forest_matches_unsharded_oracle(
        layout in proptest::sample::select(vec![
            NamedLayout::MinWep,
            NamedLayout::PreVeb,
            NamedLayout::InOrder,
            NamedLayout::PreBreadth,
        ]),
        shards in 1usize..10,
        raw in proptest::collection::btree_set(0u64..50_000, 1..400),
        probes in proptest::collection::vec(0u64..55_000, 64),
    ) {
        let keys: Vec<u64> = raw.iter().copied().collect();
        let oracle = SearchTree::builder()
            .layout(layout)
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .expect("oracle");
        let f = Forest::builder()
            .layout(layout)
            .shards(shards)
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .expect("forest");
        prop_assert_eq!(f.len(), oracle.len());
        prop_assert_eq!(
            f.rank_checksum(&probes),
            rank_checksum(&oracle, &probes),
            "rank checksum {}x{}", layout, shards
        );
        for &p in &probes {
            prop_assert_eq!(f.contains(p), oracle.contains(p), "contains({})", p);
            prop_assert_eq!(f.rank(p), oracle.rank(p), "rank({})", p);
            prop_assert_eq!(f.lower_bound(p), oracle.lower_bound(p), "lb({})", p);
            prop_assert_eq!(f.upper_bound(p), oracle.upper_bound(p), "ub({})", p);
            prop_assert_eq!(f.predecessor(p), oracle.predecessor(p), "pred({})", p);
        }
        for r in 0..=(keys.len() as u64 + 1) {
            prop_assert_eq!(f.select(r), oracle.select(r), "select({})", r);
        }
        prop_assert_eq!(f.iter().collect::<Vec<u64>>(), keys);
    }

    /// Ranges with arbitrary bounds — straddling however many fences
    /// the draw produces — match the BTreeSet oracle, serially and in
    /// parallel.
    #[test]
    fn forest_ranges_match_oracle(
        shards in 1usize..9,
        raw in proptest::collection::btree_set(0u64..30_000, 1..300),
        bounds in proptest::collection::vec(0u64..33_000, 8),
    ) {
        let keys: Vec<u64> = raw.iter().copied().collect();
        let oracle: BTreeSet<u64> = raw;
        let f = Forest::builder()
            .shards(shards)
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .expect("forest");
        for w in bounds.windows(2) {
            let (a, b) = (w[0].min(w[1]), w[0].max(w[1]));
            let got: Vec<u64> = f.range(a..b).collect();
            let expect: Vec<u64> = oracle.range(a..b).copied().collect();
            prop_assert_eq!(&got, &expect, "{}..{}", a, b);
            prop_assert_eq!(f.par_range(a..b, 4), expect, "par {}..{}", a, b);
            let got: Vec<u64> = f.range(a..=b).rev().collect();
            let mut expect: Vec<u64> = oracle.range(a..=b).copied().collect();
            expect.reverse();
            prop_assert_eq!(got, expect, "rev {}..={}", a, b);
        }
    }

    /// Sorted batches — serial and at every thread count — agree with
    /// the unsharded tree probe for probe, and the cursor seek lands on
    /// the global lower bound.
    #[test]
    fn forest_batches_and_cursor_match_oracle(
        shards in 1usize..8,
        raw in proptest::collection::btree_set(0u64..20_000, 2..250),
        probes in proptest::collection::vec(0u64..22_000, 100),
    ) {
        let keys: Vec<u64> = raw.iter().copied().collect();
        let oracle = single(&keys);
        let f = forest(&keys, shards, Storage::Implicit);
        let mut batch = probes;
        batch.sort_unstable();
        let mut serial = Vec::new();
        f.search_sorted_batch(&batch, &mut serial).unwrap();
        prop_assert_eq!(serial.len(), batch.len());
        for (i, &p) in batch.iter().enumerate() {
            prop_assert_eq!(serial[i].is_some(), oracle.contains(p), "probe {}", p);
            if let Some((shard, pos)) = serial[i] {
                // The reported location is the shard's own answer.
                prop_assert_eq!(f.shard(shard).unwrap().search(p), Some(pos));
            }
        }
        for threads in [1usize, 3, 6] {
            let mut par = Vec::new();
            f.par_search_batch(&batch, threads, &mut par).unwrap();
            prop_assert_eq!(&par, &serial, "threads={}", threads);
        }
        let mut cur = f.cursor();
        for &p in batch.iter().take(10) {
            prop_assert_eq!(cur.seek(p), oracle.lower_bound(p), "seek({})", p);
        }
    }
}
