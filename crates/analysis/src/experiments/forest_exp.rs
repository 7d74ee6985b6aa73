//! The `forest` experiment: the sharded serving engine held to its two
//! contracts — *parity* (a forest answers exactly what one unsharded
//! tree over the same keys answers, whether its shards live on the heap
//! or in mapped files) and *throughput* (the workload mixes the
//! `BENCH_forest.json` artifact tracks across PRs).

use super::Config;
use crate::report::Table;
use crate::throughput::{self, ThroughputConfig};
use cobtree_cachesim::presets;
use cobtree_cachesim::replay::{replay_forest_point, replay_search_backend};
use cobtree_core::io::ScratchDir;
use cobtree_search::forest::rank_checksum;
use cobtree_search::workload::UniformKeys;
use cobtree_search::{Forest, SearchTree, Storage};

fn irregular_keys(n: u64) -> Vec<u64> {
    (1..=n).map(|k| k * 5 + (k % 4)).collect()
}

/// Answers point/rank/select/range/batch workloads on a 5-shard forest
/// — heap shards and save→open mapped shards — and on the single
/// unsharded tree, reporting the checksums side by side.
///
/// # Panics
/// Panics if any forest checksum diverges from the unsharded tree's —
/// the acceptance criterion of the sharded serving engine.
#[must_use]
pub fn single_tree_parity(cfg: &Config) -> Table {
    let n = (cfg.searches as u64).clamp(2_000, 60_000);
    let keys = irregular_keys(n);
    let single = SearchTree::builder()
        .storage(Storage::Implicit)
        .keys(keys.iter().copied())
        .build()
        .expect("unsharded oracle");
    let heap = Forest::builder()
        .shards(5)
        .storage(Storage::Implicit)
        .keys(keys.iter().copied())
        .build()
        .expect("heap forest");
    let dir = ScratchDir::new("forest-exp-parity");
    heap.save(dir.path()).expect("save forest");
    let mapped: Forest<u64> = Forest::open(dir.path()).expect("open forest");

    let probes = UniformKeys::new(n * 6, cfg.seed).take_vec(cfg.searches.min(50_000));
    let mut sorted = probes.clone();
    sorted.sort_unstable();

    let mut t = Table::new(
        "forest_parity",
        &format!("Forest: sharded vs unsharded checksums (n={n}, 5 shards)"),
        &[
            "workload",
            "single_tree",
            "forest_heap",
            "forest_mapped",
            "equal",
        ],
    );
    type Kernel = Box<dyn Fn(&dyn Probe) -> u64>;
    let kernels: Vec<(&str, Kernel)> = vec![
        (
            "point rank checksum",
            Box::new({
                let probes = probes.clone();
                move |p: &dyn Probe| p.rank_checksum(&probes)
            }),
        ),
        (
            "range window key sum",
            Box::new({
                let keys = keys.clone();
                move |p: &dyn Probe| {
                    let mut acc = 0u64;
                    for w in keys.chunks(keys.len() / 7 + 1) {
                        acc = acc.wrapping_add(p.range_sum(w[0] + 1, w[w.len() - 1] + 2));
                    }
                    acc
                }
            }),
        ),
        (
            "rank/select sweep",
            Box::new(move |p: &dyn Probe| {
                let mut acc = 0u64;
                for r in (1..=n).step_by(97) {
                    if let Some(k) = p.select(r) {
                        acc = acc.wrapping_add(k).wrapping_add(p.rank(k));
                    }
                }
                acc
            }),
        ),
        (
            "sorted batch found count",
            Box::new({
                let sorted = sorted.clone();
                move |p: &dyn Probe| p.batch_found(&sorted)
            }),
        ),
    ];
    for (name, kernel) in kernels {
        let s = kernel(&single);
        let h = kernel(&heap);
        let m = kernel(&mapped);
        assert_eq!(s, h, "{name}: heap forest diverged from single tree");
        assert_eq!(s, m, "{name}: mapped forest diverged from single tree");
        t.push_row(vec![
            name.to_string(),
            s.to_string(),
            h.to_string(),
            m.to_string(),
            "yes".into(),
        ]);
    }
    t
}

/// The common query surface the parity kernels exercise, implemented by
/// both the unsharded tree and the forest.
trait Probe {
    fn rank_checksum(&self, probes: &[u64]) -> u64;
    fn range_sum(&self, lo: u64, hi: u64) -> u64;
    fn rank(&self, key: u64) -> u64;
    fn select(&self, rank: u64) -> Option<u64>;
    fn batch_found(&self, sorted: &[u64]) -> u64;
}

impl Probe for SearchTree<u64> {
    fn rank_checksum(&self, probes: &[u64]) -> u64 {
        rank_checksum(self, probes)
    }
    fn range_sum(&self, lo: u64, hi: u64) -> u64 {
        self.range(lo..hi).fold(0u64, u64::wrapping_add)
    }
    fn rank(&self, key: u64) -> u64 {
        SearchTree::rank(self, key)
    }
    fn select(&self, rank: u64) -> Option<u64> {
        SearchTree::select(self, rank)
    }
    fn batch_found(&self, sorted: &[u64]) -> u64 {
        let mut out = Vec::new();
        self.search_sorted_batch(sorted, &mut out).expect("sorted");
        out.iter().filter(|p| p.is_some()).count() as u64
    }
}

impl Probe for Forest<u64> {
    fn rank_checksum(&self, probes: &[u64]) -> u64 {
        Forest::rank_checksum(self, probes)
    }
    fn range_sum(&self, lo: u64, hi: u64) -> u64 {
        self.range(lo..hi).fold(0u64, u64::wrapping_add)
    }
    fn rank(&self, key: u64) -> u64 {
        Forest::rank(self, key)
    }
    fn select(&self, rank: u64) -> Option<u64> {
        Forest::select(self, rank)
    }
    fn batch_found(&self, sorted: &[u64]) -> u64 {
        let mut out = Vec::new();
        // Four worker threads exercise the concurrent path under the
        // same parity contract.
        self.par_search_batch(sorted, 4, &mut out).expect("sorted");
        out.iter().filter(|p| p.is_some()).count() as u64
    }
}

/// Multi-tree cache replay parity: a one-shard forest replays
/// identically to the unsharded backend, and a sharded forest's access
/// count decomposes exactly into its per-shard replays.
///
/// # Panics
/// Panics when either parity breaks.
#[must_use]
pub fn replay_parity(cfg: &Config) -> Table {
    let n = (cfg.searches as u64).clamp(2_000, 30_000);
    let keys: Vec<u64> = (1..=n).map(|k| k * 2 - 1).collect();
    let probes = UniformKeys::new(n * 2, cfg.seed ^ 3).take_vec(cfg.searches.min(30_000));
    let mut t = Table::new(
        "forest_replay_parity",
        &format!("Forest: cachesim multi-tree replay parity (n={n})"),
        &["configuration", "l1_accesses", "l1_misses", "found"],
    );

    let single = SearchTree::builder()
        .storage(Storage::Implicit)
        .keys(keys.iter().copied())
        .build()
        .expect("oracle");
    let mut sim = presets::westmere_l1_l2();
    let found_single = replay_search_backend(&mut sim, &single, 8, 0, &probes);
    let single_stats = sim.level_stats(0);
    t.push_row(vec![
        "unsharded tree".into(),
        single_stats.accesses.to_string(),
        single_stats.misses.to_string(),
        found_single.to_string(),
    ]);

    for shards in [1usize, 4] {
        let forest = Forest::builder()
            .shards(shards)
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .expect("forest");
        let mut sim = presets::westmere_l1_l2();
        let found = replay_forest_point(&mut sim, &forest, 8, 0, &probes);
        let stats = sim.level_stats(0);
        assert_eq!(found, found_single, "{shards}-shard forest lost probes");
        if shards == 1 {
            assert_eq!(
                stats, single_stats,
                "a one-shard forest must replay identically to the unsharded tree"
            );
        }
        t.push_row(vec![
            format!(
                "forest ({shards} shard{})",
                if shards == 1 { "" } else { "s" }
            ),
            stats.accesses.to_string(),
            stats.misses.to_string(),
            found.to_string(),
        ]);
    }
    t
}

/// Runs the throughput harness on a repro-sized workload, writes the
/// `BENCH_forest.json` artifact into the results directory, and reports
/// every `(mix, threads)` cell as a table.
///
/// # Panics
/// Panics on harness assertion failures (checksum divergence across
/// thread counts, stitched-scan regression) or if the JSON artifact
/// cannot be written.
#[must_use]
pub fn throughput_table(cfg: &Config) -> Table {
    let mut tcfg = ThroughputConfig::ci();
    tcfg.keys = (cfg.searches as u64).clamp(20_000, 400_000);
    tcfg.ops = cfg.searches.clamp(20_000, 200_000);
    tcfg.seed = cfg.seed;
    let report = throughput::run(&tcfg);
    let json_path = cfg.results_dir.join("BENCH_forest.json");
    throughput::write_json(&report, &json_path).expect("write BENCH_forest.json");
    eprintln!(
        "[forest throughput JSON written to {}]",
        json_path.display()
    );

    let mut t = Table::new(
        "forest_throughput",
        &format!(
            "Forest: throughput over {} mapped shards ({} keys; batch 1→{} scaling {:.2}x)",
            report.shards, report.keys, report.max_threads, report.par_batch_scaling
        ),
        &[
            "mix",
            "threads",
            "ops_per_sec",
            "p50_ns",
            "p99_ns",
            "l1_misses_per_op",
        ],
    );
    for p in &report.points {
        t.push_row(vec![
            p.mix.to_string(),
            p.threads.to_string(),
            format!("{:.0}", p.ops_per_sec),
            format!("{:.0}", p.p50_ns),
            format!("{:.0}", p.p99_ns),
            format!("{:.3}", p.l1_misses_per_op),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_table_has_all_checks_equal() {
        let t = single_tree_parity(&Config::tiny());
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "yes");
            assert_eq!(row[1], row[2], "{}", row[0]);
            assert_eq!(row[1], row[3], "{}", row[0]);
        }
    }

    #[test]
    fn replay_parity_rows_decompose() {
        let t = replay_parity(&Config::tiny());
        assert_eq!(t.rows.len(), 3);
        // One-shard forest row equals the unsharded row, counter for
        // counter (the generator asserts this too).
        assert_eq!(t.rows[0][1..], t.rows[1][1..]);
    }
}
