//! Replaying live search backends through the simulated hierarchy.
//!
//! Figure 2's miss-rate panel traces search workloads through a
//! Westmere-geometry cache. The original harness derived addresses from
//! bare position indexers; with the [`SearchBackend`] trait the same
//! experiment runs against *any* storage backend — explicit, implicit,
//! index-only, or the whole `SearchTree` facade — by replaying exactly
//! the positions each backend visits. Since the ordered-query redesign
//! this covers the richer workloads too: [`replay_range_scan`] feeds
//! cursor-driven range scans through the hierarchy and
//! [`replay_sorted_batches`] the shared-prefix sorted-batch searches, so
//! block transfers can be reported for scans and batches, not just
//! point queries.
//!
//! The forest replays ([`replay_forest_point`], [`replay_forest_scan`],
//! [`replay_forest_sorted_batch`]) extend the same discipline to the
//! sharded serving engine: each shard's tree occupies its own
//! block-aligned address window (`shard stride` = the largest shard's
//! footprint, rounded up), and every probe/scan/batch element is routed
//! exactly as [`Forest`] routes it — so the counters model N mapped
//! shard files served side by side, and a one-shard forest replays
//! *identically* to the unsharded backend (the multi-tree parity test
//! below pins that). [`replay_tiered_point`] extends the discipline to
//! the tiered write engine's merged read path: buffer-resolved probes
//! cost no modeled traffic, base-resolved probes replay exactly like
//! the read-only forest.

use crate::hierarchy::CacheHierarchy;
use cobtree_search::{Forest, SearchBackend, TieredSnapshot};

/// Searches every key on `backend`, feeding each visited position
/// (scaled by `node_bytes`, offset by `base`) through the hierarchy.
/// Returns the number of keys found.
pub fn replay_search_backend<K: Copy + Ord>(
    hierarchy: &mut CacheHierarchy,
    backend: &dyn SearchBackend<K>,
    node_bytes: u64,
    base: u64,
    keys: &[K],
) -> u64 {
    let mut found = 0u64;
    let mut visited = Vec::with_capacity(backend.height() as usize);
    for &key in keys {
        visited.clear();
        if backend.search_traced(key, &mut visited).is_some() {
            found += 1;
        }
        for &p in &visited {
            hierarchy.access(base + p * node_bytes);
        }
    }
    found
}

/// [`replay_search_backend`] on the backend's **compiled kernel**
/// trace ([`SearchBackend::search_traced_kernel`]): the branch-free
/// descent with its match overshoot truncated. Because kernel traces
/// are bit-identical to slow-path traces, this must produce exactly the
/// same access stream — and therefore the same hit/miss counters — as
/// [`replay_search_backend`]; the `kernel` repro experiment asserts
/// this block-sequence parity per probe.
pub fn replay_point_kernel<K: Copy + Ord>(
    hierarchy: &mut CacheHierarchy,
    backend: &dyn SearchBackend<K>,
    node_bytes: u64,
    base: u64,
    keys: &[K],
) -> u64 {
    let mut found = 0u64;
    let mut visited = Vec::with_capacity(backend.height() as usize);
    for &key in keys {
        visited.clear();
        if backend.search_traced_kernel(key, &mut visited).is_some() {
            found += 1;
        }
        for &p in &visited {
            hierarchy.access(base + p * node_bytes);
        }
    }
    found
}

/// Replays in-order range scans: for every 1-based start rank in
/// `starts`, visits `span` consecutive ranks and feeds each element's
/// layout position through the hierarchy. Returns the number of elements
/// visited.
pub fn replay_range_scan<K: Copy + Ord>(
    hierarchy: &mut CacheHierarchy,
    backend: &dyn SearchBackend<K>,
    node_bytes: u64,
    base: u64,
    starts: &[u64],
    span: u64,
) -> u64 {
    let mut visited = Vec::with_capacity(span as usize);
    let mut touched = 0u64;
    for &start in starts {
        visited.clear();
        backend.scan_positions_traced(start, start + span - 1, &mut visited);
        touched += visited.len() as u64;
        for &p in &visited {
            hierarchy.access(base + p * node_bytes);
        }
    }
    touched
}

/// Replays sorted-batch searches: every batch runs through
/// [`SearchBackend::search_sorted_batch_traced`], so only the nodes the
/// shared-prefix descent actually fetches reach the hierarchy. Returns
/// the number of probes found.
///
/// # Panics
/// Panics if a batch is not ascending (`Error::UnsortedBatch`);
/// generate batches with
/// [`cobtree_search::workload::sorted_batches`].
pub fn replay_sorted_batches<K: Copy + Ord>(
    hierarchy: &mut CacheHierarchy,
    backend: &dyn SearchBackend<K>,
    node_bytes: u64,
    base: u64,
    batches: &[Vec<K>],
) -> u64 {
    let mut found = 0u64;
    let max_batch = batches.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(max_batch);
    // A traced batch fetches at most height nodes per probe.
    let mut visited = Vec::with_capacity(max_batch * backend.height() as usize);
    for batch in batches {
        visited.clear();
        backend
            .search_sorted_batch_traced(batch, &mut out, &mut visited)
            .expect("sorted-batch replay requires ascending batches");
        found += out.iter().filter(|p| p.is_some()).count() as u64;
        for &p in &visited {
            hierarchy.access(base + p * node_bytes);
        }
    }
    found
}

/// Byte distance between consecutive shards' address windows: the
/// largest shard's node footprint, rounded up to a 64-byte block so
/// shards never share a cache line.
#[must_use]
pub fn forest_shard_stride<K: Copy + Ord>(forest: &Forest<K>, node_bytes: u64) -> u64 {
    let widest = forest.shards().map(|t| t.capacity()).max().unwrap_or(0);
    (widest * node_bytes).div_ceil(64) * 64
}

/// Replays point lookups over a sharded forest: each probe is routed to
/// its shard and the shard's traced descent feeds the hierarchy at that
/// shard's address window (`base + shard × stride + position ×
/// node_bytes`). Returns the number of probes found.
pub fn replay_forest_point<K: Copy + Ord>(
    hierarchy: &mut CacheHierarchy,
    forest: &Forest<K>,
    node_bytes: u64,
    base: u64,
    keys: &[K],
) -> u64 {
    let stride = forest_shard_stride(forest, node_bytes);
    let mut found = 0u64;
    // Shards share one height bound; reserve it once so no traced
    // search grows the scratch vector mid-replay.
    let height = forest.shards().map(|t| t.height()).max().unwrap_or(0);
    let mut visited = Vec::with_capacity(height as usize);
    for &key in keys {
        let Some((shard, tree)) = forest.route(key) else {
            continue;
        };
        visited.clear();
        if tree.search_traced(key, &mut visited).is_some() {
            found += 1;
        }
        let shard_base = base + shard as u64 * stride;
        for &p in &visited {
            hierarchy.access(shard_base + p * node_bytes);
        }
    }
    found
}

/// Replays stitched range scans over a forest: for every forest-wide
/// 1-based start rank in `starts`, visits `span` consecutive ranks —
/// crossing shard fences exactly as [`Forest::range_by_rank`] does —
/// and feeds each element's position through the hierarchy in its
/// shard's address window. Returns the number of elements visited.
pub fn replay_forest_scan<K: Copy + Ord>(
    hierarchy: &mut CacheHierarchy,
    forest: &Forest<K>,
    node_bytes: u64,
    base: u64,
    starts: &[u64],
    span: u64,
) -> u64 {
    if span == 0 {
        // A zero-length scan touches nothing (and `start + span - 1`
        // must not wrap into a whole-forest scan).
        return 0;
    }
    let stride = forest_shard_stride(forest, node_bytes);
    let mut visited = Vec::with_capacity(span as usize);
    let mut touched = 0u64;
    for &start in starts {
        for (shard, llo, lhi) in forest.rank_windows(start, start + span - 1) {
            visited.clear();
            forest
                .shard(shard)
                .expect("window names an active shard")
                .scan_positions_traced(llo, lhi, &mut visited);
            touched += visited.len() as u64;
            let shard_base = base + shard as u64 * stride;
            for &p in &visited {
                hierarchy.access(shard_base + p * node_bytes);
            }
        }
    }
    touched
}

/// Replays sorted-batch searches over a forest: every batch is split at
/// the shard fences ([`Forest::shard_batches`]) and each sub-batch runs
/// through its shard's shared-prefix traced search, feeding the
/// hierarchy in that shard's address window. Returns the number of
/// probes found.
///
/// # Panics
/// Panics if a batch is not ascending (`Error::UnsortedBatch`).
pub fn replay_forest_sorted_batch<K: Copy + Ord>(
    hierarchy: &mut CacheHierarchy,
    forest: &Forest<K>,
    node_bytes: u64,
    base: u64,
    batches: &[Vec<K>],
) -> u64 {
    let stride = forest_shard_stride(forest, node_bytes);
    let mut found = 0u64;
    let max_batch = batches.iter().map(Vec::len).max().unwrap_or(0);
    let height = forest.shards().map(|t| t.height()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(max_batch);
    let mut visited = Vec::with_capacity(max_batch * height as usize);
    for batch in batches {
        for (shard, sub) in forest
            .shard_batches(batch)
            .expect("forest batch replay requires ascending batches")
        {
            visited.clear();
            forest
                .shard(shard)
                .expect("split names an active shard")
                .search_sorted_batch_traced(sub, &mut out, &mut visited)
                .expect("sub-batches of an ascending batch are ascending");
            found += out.iter().filter(|p| p.is_some()).count() as u64;
            let shard_base = base + shard as u64 * stride;
            for &p in &visited {
                hierarchy.access(shard_base + p * node_bytes);
            }
        }
    }
    found
}

/// Replays point lookups over a **tiered engine snapshot**: probes the
/// buffer tiers first (the memtable and frozen buffer resolve a probe
/// with zero modeled memory traffic — they are small and hot by
/// construction), and only probes the buffers leave unresolved descend
/// into the snapshot's base forest, traced and addressed exactly like
/// [`replay_forest_point`]. With empty buffers this replays
/// *bit-identically* to the read-only forest replay — the merged read
/// path's cache parity contract (pinned by a test below). Returns the
/// number of probes found live.
pub fn replay_tiered_point<K: Copy + Ord>(
    hierarchy: &mut CacheHierarchy,
    snapshot: &TieredSnapshot<K>,
    node_bytes: u64,
    base: u64,
    keys: &[K],
) -> u64 {
    let mut found = 0u64;
    let Some(forest) = snapshot.base() else {
        // Memtable-only engine: every probe resolves in the buffers.
        return keys
            .iter()
            .filter(|&&k| snapshot.buffer_lookup(k) == Some(true))
            .count() as u64;
    };
    let stride = forest_shard_stride(forest, node_bytes);
    let height = forest.shards().map(|t| t.height()).max().unwrap_or(0);
    let mut visited = Vec::with_capacity(height as usize);
    for &key in keys {
        if let Some(live) = snapshot.buffer_lookup(key) {
            found += u64::from(live);
            continue;
        }
        let Some((shard, tree)) = forest.route(key) else {
            continue;
        };
        visited.clear();
        if tree.search_traced(key, &mut visited).is_some() {
            found += 1;
        }
        let shard_base = base + shard as u64 * stride;
        for &p in &visited {
            hierarchy.access(shard_base + p * node_bytes);
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use cobtree_core::NamedLayout;
    use cobtree_search::trace::search_addresses;
    use cobtree_search::workload::UniformKeys;
    use cobtree_search::{SearchTree, Storage};

    fn implicit(layout: NamedLayout, keys: &[u64]) -> SearchTree<u64> {
        SearchTree::builder()
            .layout(layout)
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .unwrap()
    }

    #[test]
    fn backend_replay_matches_index_replay() {
        // For a full rank-keyed implicit tree the backend trace equals
        // the index-derived address trace, so both replays must produce
        // identical counters.
        let h = 12;
        let layout = NamedLayout::MinWep;
        let keys: Vec<u64> = (1..=(1u64 << h) - 1).collect();
        let tree = implicit(layout, &keys);
        let workload = UniformKeys::for_height(h, 9).take_vec(20_000);

        let mut via_backend = presets::westmere_l1_l2();
        let found = replay_search_backend(&mut via_backend, &tree, 4, 0, &workload);
        assert_eq!(found, workload.len() as u64);

        let mut via_index = presets::westmere_l1_l2();
        let idx = layout.indexer(h);
        search_addresses(idx.as_ref(), 4, 0, workload.iter().copied(), |a| {
            via_index.access(a);
        });

        for level in 0..2 {
            assert_eq!(
                via_backend.level_stats(level),
                via_index.level_stats(level),
                "level {level}"
            );
        }
    }

    #[test]
    fn kernel_replay_matches_slow_path_replay_exactly() {
        // The compiled kernel's traces are bit-identical to the slow
        // path's, so replaying either must produce identical counters
        // at every level — the property the `kernel` repro experiment
        // asserts per probe at block granularity.
        let h = 11;
        let keys: Vec<u64> = (1..=(1u64 << h) - 1).map(|k| k * 5).collect();
        for layout in [
            NamedLayout::MinWep,
            NamedLayout::PreVeb,
            NamedLayout::HalfWep,
        ] {
            let tree = implicit(layout, &keys);
            // Probes mix hits and misses.
            let workload: Vec<u64> = UniformKeys::new(tree.len() * 6, 17).take_vec(10_000);
            let mut slow = presets::westmere_l1_l2();
            let slow_found = replay_search_backend(&mut slow, &tree, 8, 0, &workload);
            let mut fast = presets::westmere_l1_l2();
            let fast_found = replay_point_kernel(&mut fast, &tree, 8, 0, &workload);
            assert_eq!(slow_found, fast_found, "{layout}");
            for level in 0..2 {
                assert_eq!(
                    slow.level_stats(level),
                    fast.level_stats(level),
                    "{layout} level {level}"
                );
            }
        }
    }

    #[test]
    fn range_scan_replay_counts_every_element() {
        let keys: Vec<u64> = (1..=1023u64).collect();
        let tree = implicit(NamedLayout::InOrder, &keys);
        let starts = cobtree_search::workload::scan_starts(1023, 32, 100, 7);
        let mut sim = presets::westmere_l1_l2();
        let touched = replay_range_scan(&mut sim, &tree, 4, 0, &starts, 32);
        assert_eq!(touched, 100 * 32);
        assert_eq!(sim.level_stats(0).accesses, touched);
        // IN-ORDER scans are contiguous: misses ≈ touched / 16 per
        // 64-byte line, far below one per element.
        assert!(sim.level_stats(0).misses < touched / 8);
    }

    #[test]
    fn sorted_batch_replay_accesses_no_more_than_point_replay() {
        let h = 12;
        let keys: Vec<u64> = (1..=(1u64 << h) - 1).collect();
        let tree = implicit(NamedLayout::MinWep, &keys);
        let batches = cobtree_search::workload::sorted_batches(tree.len(), 64, 50, 0.0, 3);

        let mut batch_sim = presets::westmere_l1_l2();
        let found = replay_sorted_batches(&mut batch_sim, &tree, 4, 0, &batches);
        assert_eq!(found, 50 * 64);

        let mut point_sim = presets::westmere_l1_l2();
        for b in &batches {
            replay_search_backend(&mut point_sim, &tree, 4, 0, b);
        }
        assert!(
            batch_sim.level_stats(0).accesses < point_sim.level_stats(0).accesses,
            "batched replay must fetch strictly fewer nodes"
        );
    }

    #[test]
    fn explicit_and_implicit_replays_share_miss_counts() {
        // Same positions (one shared index per layout) ⇒ same addresses
        // ⇒ identical simulated misses across storage backends — the
        // saved-and-reopened mapped backend included.
        use cobtree_search::{SaveOptions, SearchTree, Storage};
        let keys: Vec<u64> = (1..=4000u64).map(|k| k * 3).collect();
        let workload = UniformKeys::new(12_000, 5).take_vec(10_000);
        let mut stats = Vec::new();
        let mut trees: Vec<SearchTree<u64>> = Storage::ALL
            .iter()
            .map(|&storage| {
                SearchTree::builder()
                    .storage(storage)
                    .keys(keys.iter().copied())
                    .build()
                    .unwrap()
            })
            .collect();
        let image = trees[0].encode(&SaveOptions::new()).unwrap();
        trees.push(SearchTree::open_bytes(image).unwrap());
        for tree in &trees {
            let mut sim = presets::westmere_l1_l2();
            replay_search_backend(&mut sim, tree, 4, 0, &workload);
            stats.push(sim.level_stats(0));
        }
        for pair in stats.windows(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn one_shard_forest_replays_identically_to_the_unsharded_backend() {
        // Multi-tree replay parity, base case: a forest of one shard is
        // the unsharded tree, so every workload must produce the exact
        // same counters at every level. (Keys start at 1 so no probe
        // sorts below the fence — the router rejects those without a
        // descent, which the unsharded replay has no notion of.)
        use cobtree_search::{Forest, SearchTree, Storage};
        let keys: Vec<u64> = (1..=3000u64).map(|k| k * 2 - 1).collect();
        let single = SearchTree::builder()
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .unwrap();
        let forest = Forest::builder()
            .shards(1)
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .unwrap();

        let points = UniformKeys::new(6500, 3).take_vec(8_000);
        let mut a = presets::westmere_l1_l2();
        let mut b = presets::westmere_l1_l2();
        // One shard ⇒ stride is irrelevant; same base, same addresses.
        let fa = replay_search_backend(&mut a, &single, 8, 0, &points);
        let fb = replay_forest_point(&mut b, &forest, 8, 0, &points);
        assert_eq!(fa, fb);
        for level in 0..2 {
            assert_eq!(a.level_stats(level), b.level_stats(level), "point L{level}");
        }

        let starts = cobtree_search::workload::scan_starts(3000, 32, 60, 5);
        let mut a = presets::westmere_l1_l2();
        let mut b = presets::westmere_l1_l2();
        let ta = replay_range_scan(&mut a, &single, 8, 0, &starts, 32);
        let tb = replay_forest_scan(&mut b, &forest, 8, 0, &starts, 32);
        assert_eq!(ta, tb);
        assert_eq!(a.level_stats(0), b.level_stats(0), "scan");

        let batches = cobtree_search::workload::sorted_batches(6500, 48, 30, 0.0, 9);
        let mut a = presets::westmere_l1_l2();
        let mut b = presets::westmere_l1_l2();
        let fa = replay_sorted_batches(&mut a, &single, 8, 0, &batches);
        let fb = replay_forest_sorted_batch(&mut b, &forest, 8, 0, &batches);
        assert_eq!(fa, fb);
        assert_eq!(a.level_stats(0), b.level_stats(0), "batch");
    }

    #[test]
    fn sharded_forest_replay_accesses_sum_over_per_shard_replays() {
        // Multi-tree replay parity, sharded case: routing a workload
        // through a 4-shard forest touches exactly the accesses of the
        // four per-shard replays combined. Access counts are
        // interleave-independent and asserted exactly; miss counts
        // depend on how the interleaved streams share the cache, so no
        // bound on them is asserted here.
        use cobtree_search::{Forest, Storage};
        let keys: Vec<u64> = (1..=4000u64).map(|k| k * 3).collect();
        let forest = Forest::builder()
            .shards(4)
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .unwrap();
        let points = UniformKeys::new(13_000, 11).take_vec(12_000);

        let mut whole = presets::westmere_l1_l2();
        let found = replay_forest_point(&mut whole, &forest, 8, 0, &points);
        assert!(found > 0);

        // Route the same probes manually, replay each shard alone.
        let mut per_shard_accesses = 0u64;
        let mut per_shard_found = 0u64;
        for (i, tree) in forest.shards().enumerate() {
            let sub: Vec<u64> = points
                .iter()
                .copied()
                .filter(|&k| forest.route(k).map(|(s, _)| s) == Some(i))
                .collect();
            let mut sim = presets::westmere_l1_l2();
            per_shard_found += replay_search_backend(&mut sim, tree, 8, 0, &sub);
            per_shard_accesses += sim.level_stats(0).accesses;
        }
        assert_eq!(found, per_shard_found);
        assert_eq!(whole.level_stats(0).accesses, per_shard_accesses);
    }

    #[test]
    fn mapped_scan_and_batch_replays_match_implicit() {
        // The richer workloads also replay identically over a file:
        // cursor-driven scans and shared-prefix batches visit the same
        // positions whether the key array lives on the heap or in a
        // mapped tree file.
        use cobtree_search::{SaveOptions, SearchTree, Storage};
        let tree = SearchTree::builder()
            .layout(NamedLayout::MinWep)
            .storage(Storage::Implicit)
            .keys((1..=2000u64).map(|k| k * 2))
            .build()
            .unwrap();
        let mapped: SearchTree<u64> =
            SearchTree::open_bytes(tree.encode(&SaveOptions::new()).unwrap()).unwrap();

        let starts = cobtree_search::workload::scan_starts(2000, 16, 80, 3);
        let mut heap_sim = presets::westmere_l1_l2();
        let mut file_sim = presets::westmere_l1_l2();
        let a = replay_range_scan(&mut heap_sim, &tree, 8, 0, &starts, 16);
        let b = replay_range_scan(&mut file_sim, &mapped, 8, 0, &starts, 16);
        assert_eq!(a, b);
        assert_eq!(heap_sim.level_stats(0), file_sim.level_stats(0));

        let batches = cobtree_search::workload::sorted_batches(4000, 32, 40, 0.8, 11);
        let mut heap_sim = presets::westmere_l1_l2();
        let mut file_sim = presets::westmere_l1_l2();
        let a = replay_sorted_batches(&mut heap_sim, &tree, 8, 0, &batches);
        let b = replay_sorted_batches(&mut file_sim, &mapped, 8, 0, &batches);
        assert_eq!(a, b);
        assert_eq!(heap_sim.level_stats(0), file_sim.level_stats(0));
    }

    #[test]
    fn tiered_replay_with_empty_buffers_matches_forest_replay() {
        // The merged read path's cache parity contract: an engine whose
        // buffers are drained replays bit-identically to the read-only
        // forest over the same keys — the write path costs nothing once
        // compacted.
        use cobtree_search::TieredForest;
        let keys: Vec<u64> = (1..=4000u64).map(|k| k * 3).collect();
        let forest = Forest::builder()
            .layout(NamedLayout::MinWep)
            .shards(4)
            .keys(keys.iter().copied())
            .build()
            .unwrap();
        let engine = TieredForest::<u64>::builder()
            .layout(NamedLayout::MinWep)
            .shards(4)
            .keys(keys.iter().copied())
            .build()
            .unwrap();
        let probes = UniformKeys::new(13_000, 23).take_vec(10_000);

        let mut read_only = presets::westmere_l1_l2();
        let a = replay_forest_point(&mut read_only, &forest, 8, 0, &probes);
        let mut tiered = presets::westmere_l1_l2();
        let b = replay_tiered_point(&mut tiered, &engine.snapshot(), 8, 0, &probes);
        assert_eq!(a, b, "found counts diverge");
        for level in 0..2 {
            assert_eq!(
                read_only.level_stats(level),
                tiered.level_stats(level),
                "level {level}"
            );
        }
    }

    #[test]
    fn tiered_replay_resolves_buffered_probes_without_traffic() {
        use cobtree_search::TieredForest;
        let engine = TieredForest::<u64>::builder()
            .shards(2)
            .keys((1..=500u64).map(|k| k * 4))
            .build()
            .unwrap();
        engine.insert(5); // buffered insert
        engine.remove(8); // tombstone over a base key
        let snap = engine.snapshot();

        // Buffer-resolved probes (a live buffered insert, a tombstoned
        // base key) produce zero modeled accesses.
        let mut sim = presets::westmere_l1_l2();
        let found = replay_tiered_point(&mut sim, &snap, 8, 0, &[5, 8]);
        assert_eq!(found, 1, "insert live, tombstone dead");
        assert_eq!(sim.level_stats(0).accesses, 0);

        // A base-resolved probe descends into its routed shard.
        let mut sim = presets::westmere_l1_l2();
        assert_eq!(replay_tiered_point(&mut sim, &snap, 8, 0, &[12]), 1);
        assert!(sim.level_stats(0).accesses > 0);

        // A memtable-only engine resolves everything in the buffers.
        let buffered = TieredForest::<u64>::builder().build().unwrap();
        buffered.insert(9);
        let mut sim = presets::westmere_l1_l2();
        assert_eq!(
            replay_tiered_point(&mut sim, &buffered.snapshot(), 8, 0, &[9, 10]),
            1
        );
        assert_eq!(sim.level_stats(0).accesses, 0);
    }
}
