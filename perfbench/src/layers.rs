//! Per-layer probes over a serving forest, shared by every workload:
//! the router (`forest`), the descent kernel and its reference oracle
//! (`kernel`), the per-shard range iterator (`cursor`) and a cache
//! simulation of a fixed-size sample of the workload's own stream
//! (`cachesim`). Each probe times a loop of calls into one layer's
//! public functions and checks the answers against the others.

use crate::report::{quantile, Report};
use cobtree_cachesim::presets;
use cobtree_cachesim::replay::{forest_shard_stride, replay_forest_point, replay_forest_scan};
use cobtree_search::Forest;
use std::hint::black_box;
use std::time::Instant;

/// Probes of the workload stream the cache simulation replays. Fixed,
/// so the counts are exact and repeat for a seed.
pub const CACHESIM_SAMPLE: usize = 20_000;
/// Scans the cache simulation replays, each `SCAN_SPAN` keys long.
pub const CACHESIM_SCANS: usize = 200;
/// Keys per replayed scan and per timed cursor scan.
pub const SCAN_SPAN: u64 = 256;
/// Bytes per key slot in a mapped shard image.
const NODE_BYTES: u64 = 8;
/// Probes per sorted batch.
const BATCH: usize = 4096;

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Times the forest, kernel and cursor layers on `points` (stored keys
/// drawn from the workload's stream) and simulates the cache behaviour
/// of a fixed prefix of them. `scan_ranks` are 1-based start ranks.
pub fn probe_forest(forest: &Forest<u64>, points: &[u64], scan_ranks: &[u64], rep: &mut Report) {
    // forest: routing alone.
    let t = Instant::now();
    for &k in points {
        black_box(forest.route(black_box(k)));
    }
    rep.set("forest.route_ns", ns_per(t, points.len()), "ns");

    let routed: Vec<(usize, u64)> = points
        .iter()
        .map(|&k| (forest.route(k).map_or(usize::MAX, |(s, _)| s), k))
        .collect();
    let tree = |s: usize| forest.shard(s);

    // kernel: the compiled descent, then the reference oracle on the
    // same probes; every answer must agree and be a hit.
    let mut found = Vec::with_capacity(routed.len());
    let t = Instant::now();
    for &(s, k) in &routed {
        found.push(tree(s).and_then(|t| t.search(black_box(k))));
    }
    rep.set("kernel.search_ns", ns_per(t, routed.len()), "ns");
    let mut reference = Vec::with_capacity(routed.len());
    let t = Instant::now();
    for &(s, k) in &routed {
        reference.push(tree(s).and_then(|t| t.search_reference(black_box(k))));
    }
    rep.set("kernel.reference_ns", ns_per(t, routed.len()), "ns");
    for (i, (&f, &r)) in found.iter().zip(&reference).enumerate() {
        let key = points[i];
        rep.check(f.is_some() && f == r, || {
            format!("kernel key {key}: search {f:?}, reference {r:?}")
        });
    }

    // kernel: sorted batches through the per-shard batch search.
    let mut batch_ns = 0u128;
    let mut out = Vec::new();
    for chunk in points.chunks(BATCH) {
        let mut keys = chunk.to_vec();
        keys.sort_unstable();
        let subs = forest
            .shard_batches(&keys)
            .expect("sorted batches are ascending");
        for (shard, sub) in subs {
            let t = Instant::now();
            tree(shard)
                .expect("split names an active shard")
                .search_sorted_batch(sub, &mut out)
                .expect("sub-batches are ascending");
            batch_ns += t.elapsed().as_nanos();
            for (&k, &p) in sub.iter().zip(&out) {
                let direct = tree(shard).and_then(|t| t.search(k));
                rep.check(p.is_some() && p == direct, || {
                    format!("batch key {k}: batch {p:?}, search {direct:?}")
                });
            }
        }
    }
    rep.set(
        "kernel.batch_ns_per_key",
        batch_ns as f64 / points.len().max(1) as f64,
        "ns",
    );

    // cursor: in-shard range iteration from each start rank.
    let mut yielded = 0u64;
    let mut scan_ns = 0u128;
    for &start in scan_ranks {
        let Some(lo) = forest.select(start) else {
            continue;
        };
        let Some((_, shard)) = forest.route(lo) else {
            continue;
        };
        let t = Instant::now();
        let mut prev = None;
        let mut sorted = true;
        let mut n = 0u64;
        for k in shard.range(lo..).take(SCAN_SPAN as usize) {
            sorted &= prev.is_none_or(|p| p < k);
            prev = Some(k);
            n += 1;
        }
        scan_ns += t.elapsed().as_nanos();
        yielded += n;
        rep.check(sorted && n > 0, || {
            format!("cursor scan from {lo} unsorted or empty")
        });
    }
    rep.set(
        "cursor.scan_ns_per_key",
        scan_ns as f64 / yielded.max(1) as f64,
        "ns",
    );

    cache_counts(forest, points, scan_ranks, rep);
}

/// Exact simulated counts on `presets::westmere_full()`: misses per
/// level per probe, block transfers per query (distinct 64-byte lines a
/// descent touches) and L1 misses per scanned key. Replays twice and
/// books a wrong answer if the two replays differ.
fn cache_counts(forest: &Forest<u64>, points: &[u64], scan_ranks: &[u64], rep: &mut Report) {
    let sample = &points[..points.len().min(CACHESIM_SAMPLE)];
    let starts = &scan_ranks[..scan_ranks.len().min(CACHESIM_SCANS)];
    let counts = || {
        let mut sim = presets::westmere_full();
        replay_forest_point(&mut sim, forest, NODE_BYTES, 0, sample);
        let point: Vec<u64> = (0..3).map(|l| sim.level_stats(l).misses).collect();
        let mut sim = presets::westmere_full();
        let touched = replay_forest_scan(&mut sim, forest, NODE_BYTES, 0, starts, SCAN_SPAN);
        (point, sim.level_stats(0).misses, touched)
    };
    let first = counts();
    let second = counts();
    rep.check(first == second, || {
        format!("cachesim replay not repeatable: {first:?} vs {second:?}")
    });
    let (point, scan_l1, touched) = first;
    let per_op = |m: u64| m as f64 / sample.len().max(1) as f64;
    rep.set("cachesim.l1_miss_per_op", per_op(point[0]), "count");
    rep.set("cachesim.l2_miss_per_op", per_op(point[1]), "count");
    rep.set("cachesim.l3_miss_per_op", per_op(point[2]), "count");
    rep.set(
        "cachesim.scan_l1_miss_per_key",
        scan_l1 as f64 / touched.max(1) as f64,
        "count",
    );

    let stride = forest_shard_stride(forest, NODE_BYTES);
    let mut visited = Vec::new();
    let mut blocks: Vec<u64> = sample
        .iter()
        .filter_map(|&k| {
            let (shard, tree) = forest.route(k)?;
            visited.clear();
            tree.search_traced(k, &mut visited);
            let mut lines: Vec<u64> = visited
                .iter()
                .map(|&p| (shard as u64 * stride + p * NODE_BYTES) / 64)
                .collect();
            lines.sort_unstable();
            lines.dedup();
            Some(lines.len() as u64)
        })
        .collect();
    blocks.sort_unstable();
    rep.set(
        "cachesim.blocks_per_query_p99",
        quantile(&blocks, 0.99),
        "count",
    );
    rep.set(
        "cachesim.blocks_per_query_max",
        blocks.last().copied().unwrap_or(0) as f64,
        "count",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobtree_core::NamedLayout;
    use cobtree_search::Storage;

    fn small_forest() -> Forest<u64> {
        Forest::builder()
            .layout(NamedLayout::MinWep)
            .storage(Storage::Implicit)
            .shards(4)
            .keys((1..=50_000u64).map(|k| 2 * k))
            .build()
            .unwrap()
    }

    #[test]
    fn probes_check_every_answer_and_repeat_counts_for_a_seed() {
        let forest = small_forest();
        let mut rng = crate::rng::Rng::new(3);
        let points: Vec<u64> = (0..5_000).map(|_| 2 * (rng.below(50_000) + 1)).collect();
        let starts: Vec<u64> = (0..50).map(|_| rng.below(50_000) + 1).collect();
        let mut a = Report::default();
        probe_forest(&forest, &points, &starts, &mut a);
        let mut b = Report::default();
        probe_forest(&forest, &points, &starts, &mut b);
        assert_eq!(a.wrong, 0, "{:?}", a.wrong_notes);
        assert!(a.attempted > 10_000);
        for name in [
            "cachesim.l1_miss_per_op",
            "cachesim.l2_miss_per_op",
            "cachesim.l3_miss_per_op",
            "cachesim.blocks_per_query_p99",
            "cachesim.blocks_per_query_max",
            "cachesim.scan_l1_miss_per_key",
        ] {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
        assert!(a.get("cachesim.l1_miss_per_op").unwrap() > 0.0);
    }
}
