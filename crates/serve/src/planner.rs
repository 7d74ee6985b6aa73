//! The re-optimization planner: the control loop that turns sampled
//! traffic into hot-swapped shard layouts.
//!
//! [`AdaptiveEngine`] bundles the three moving parts of the adaptive
//! loop behind one handle the server can clone per worker:
//!
//! 1. an [`AdaptiveForest`] — the atomically swappable forest handle
//!    readers snapshot per operation;
//! 2. a [`TrafficSampler`] — the lock-free sampled per-key access
//!    sketch every point lookup feeds;
//! 3. the planner itself ([`AdaptiveEngine::reoptimize`], driven by the
//!    protocol's `Reopt` op): for each shard with enough samples, build
//!    an [`ObservedProfile`] from the sketch, compare it against the
//!    profile the shard's current layout was built for (total-variation
//!    divergence), and when the traffic has drifted past the threshold,
//!    run the weighted layout optimizer
//!    ([`cobtree_optimizer::optimize_for_profile`]), rebuild the shard
//!    over the same key set, and publish it with
//!    [`AdaptiveForest::swap_shard`] — readers migrate shard-by-shard
//!    with no downtime and bit-identical answers.
//!
//! The pass runs inline on whichever worker received the `Reopt`
//! request; it is an explicit admin operation, not a background thread,
//! so its cost lands where the operator asked for it.

use crate::sampler::{TrafficSampler, DEFAULT_SAMPLE_INTERVAL};
use cobtree_core::{ObservedProfile, Result};
use cobtree_optimizer::optimize_for_profile;
use cobtree_search::{AdaptiveForest, Forest, SearchTree, Storage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default divergence gate: a shard re-optimizes when the
/// total-variation distance between its observed and built-for access
/// distributions reaches 0.15.
pub const DEFAULT_REOPT_THRESHOLD: f64 = 0.15;

/// Minimum sampled accesses a shard needs before its profile is
/// trusted enough to drive a rebuild.
pub const MIN_SHARD_SAMPLES: u64 = 64;

/// What one `Reopt` pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReoptOutcome {
    /// Shards whose sketch was examined.
    pub scanned: u32,
    /// Shards re-optimized and hot-swapped.
    pub swapped: u32,
}

/// The traffic-adaptive forest engine: swappable forest + sampler +
/// planner configuration.
#[derive(Debug)]
pub struct AdaptiveEngine {
    forest: AdaptiveForest<u64>,
    sampler: TrafficSampler,
    threshold: f64,
    min_samples: u64,
    scans: AtomicU64,
}

impl AdaptiveEngine {
    /// Wraps `forest` with default sampling interval and divergence
    /// threshold.
    #[must_use]
    pub fn new(forest: Forest<u64>) -> Self {
        Self::with_config(forest, DEFAULT_SAMPLE_INTERVAL, DEFAULT_REOPT_THRESHOLD)
    }

    /// Wraps `forest`, sampling one in `interval` lookups and swapping
    /// shards whose divergence reaches `threshold`.
    #[must_use]
    pub fn with_config(forest: Forest<u64>, interval: u64, threshold: f64) -> Self {
        let sampler = TrafficSampler::new(&forest, interval);
        AdaptiveEngine {
            forest: AdaptiveForest::new(forest),
            sampler,
            threshold,
            min_samples: MIN_SHARD_SAMPLES,
            scans: AtomicU64::new(0),
        }
    }

    /// The swappable forest handle.
    #[must_use]
    pub fn forest(&self) -> &AdaptiveForest<u64> {
        &self.forest
    }

    /// The traffic sketch.
    #[must_use]
    pub fn sampler(&self) -> &TrafficSampler {
        &self.sampler
    }

    /// The divergence gate.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The current forest snapshot — pin once per operation; answers
    /// from one snapshot are always mutually consistent.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Forest<u64>> {
        self.forest.snapshot()
    }

    /// `(sampled_reads, reopt_scans, reopt_swaps)` — the three adaptive
    /// stats words.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.sampler.sampled(),
            self.scans.load(Ordering::Relaxed),
            self.forest.swaps(),
        )
    }

    /// One full planner pass over every shard; see the module docs.
    ///
    /// # Errors
    /// Build or swap failures from the underlying facade — the engine
    /// keeps serving its previous layouts when a pass fails.
    pub fn reoptimize(&self) -> Result<ReoptOutcome> {
        let forest = self.forest.snapshot();
        let mut scanned = 0u32;
        let mut swapped = 0u32;
        for shard in 0..forest.active_shards() {
            let Some(counts) = self.sampler.counts(shard) else {
                continue;
            };
            scanned += 1;
            if counts.iter().sum::<u64>() < self.min_samples {
                continue;
            }
            let tree = forest.shard(shard).expect("dense shard index");
            let profile = ObservedProfile::with_height(&counts, tree.height());
            if !self
                .forest
                .should_reoptimize(shard, &profile, self.threshold)
            {
                continue;
            }
            let (_, layout) = optimize_for_profile(&profile);
            // A mapped shard's replacement is built as an in-memory
            // image, so it stays on the same key plane and descent
            // kernels as the file it replaces; other storages rebuild
            // as themselves.
            let storage = match forest.storage() {
                Storage::Mapped => Storage::Implicit,
                s => s,
            };
            let keys: Vec<u64> = tree.iter().collect();
            let rebuilt = SearchTree::builder()
                .layout(layout)
                .storage(storage)
                .keys(keys)
                .build()?;
            self.forest
                .swap_shard(shard, Arc::new(rebuilt), Some(Arc::new(profile)))?;
            self.sampler.reset(shard);
            swapped += 1;
        }
        self.scans.fetch_add(u64::from(scanned), Ordering::Relaxed);
        Ok(ReoptOutcome { scanned, swapped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobtree_core::NamedLayout;
    use cobtree_search::workload::{ZipfKeys, ZipfTable};

    fn engine(n: u64, shards: usize, interval: u64) -> AdaptiveEngine {
        let forest = Forest::builder()
            .layout(NamedLayout::MinWep)
            .storage(Storage::Implicit)
            .shards(shards)
            .keys((1..=n).map(|k| k * 2))
            .build()
            .expect("forest");
        AdaptiveEngine::with_config(forest, interval, DEFAULT_REOPT_THRESHOLD)
    }

    #[test]
    fn undersampled_shards_are_scanned_but_not_swapped() {
        let e = engine(1_000, 2, 1);
        let before = e.snapshot();
        let out = e.reoptimize().expect("pass");
        assert_eq!(out.scanned, 2);
        assert_eq!(out.swapped, 0);
        assert!(Arc::ptr_eq(&before, &e.snapshot()), "nothing published");
    }

    #[test]
    fn skewed_traffic_swaps_shards_and_preserves_answers() {
        let e = engine(4_096, 4, 1);
        let pinned = e.snapshot();
        let table = ZipfTable::new(4_096, 1.2);
        for rank in ZipfKeys::from_table(&table, 7).take(20_000) {
            e.sampler().observe(&pinned, rank * 2);
        }
        let out = e.reoptimize().expect("pass");
        assert_eq!(out.scanned, 4);
        assert!(out.swapped >= 1, "zipf traffic diverges from uniform");
        let (sampled, scans, swaps) = e.counters();
        assert!(sampled > 0);
        assert_eq!(scans, 4);
        assert_eq!(swaps, u64::from(out.swapped));

        // The swapped forest is the same ordered map, bit for bit.
        let after = e.snapshot();
        assert!(!Arc::ptr_eq(&pinned, &after));
        assert_eq!(after.len(), pinned.len());
        for key in [0u64, 2, 3, 4_096, 8_191, 8_192, 8_193] {
            assert_eq!(pinned.contains(key), after.contains(key), "contains({key})");
            assert_eq!(pinned.rank(key), after.rank(key), "rank({key})");
            assert_eq!(
                pinned.lower_bound(key),
                after.lower_bound(key),
                "lower_bound({key})"
            );
        }
        let probes: Vec<u64> = (0..4_096).map(|i| i * 5).collect();
        assert_eq!(pinned.rank_checksum(&probes), after.rank_checksum(&probes));

        // A second pass sees traffic matching the built-for profiles
        // (the sketch was reset), so nothing swaps again.
        let again = e.reoptimize().expect("second pass");
        assert_eq!(again.swapped, 0, "converged: no further drift");
    }
}
