//! `LayoutMap` — a minimal dynamic ordered set over the static
//! cache-oblivious layouts.
//!
//! The paper treats static complete trees; real deployments (§I cites
//! cache-oblivious B-trees) need updates. Historically this module
//! carried its own private answer — a sorted insertion buffer, a
//! tombstone set and a rebuild-on-growth heuristic. That machinery is
//! now the [`crate::tiered`] subsystem's job: `LayoutMap` is a thin
//! facade over a single-shard, in-memory [`TieredForest`], kept for its
//! small `&mut`-style set API and as the simplest possible entry point
//! to the write path. One write-path story, one set of invariants.
//!
//! Lookups stay cache-oblivious on the compacted bulk; updates cost
//! O(log n) amortized plus the engine's periodic compactions.

use crate::forest::Forest;
use crate::tiered::TieredForest;
use crate::workload::UniformKeys;
use cobtree_core::format::FixedKey;
use cobtree_core::NamedLayout;
use std::sync::Arc;

/// Memtable entry budget of the facade's engine: small enough that the
/// bulk absorbs updates promptly, large enough to amortize rebuilds.
const BUFFER_BUDGET: usize = 256;

/// A dynamic ordered set with cache-oblivious bulk storage — a facade
/// over a single-shard in-memory [`TieredForest`].
///
/// ```
/// use cobtree_search::map::LayoutMap;
///
/// let mut m = LayoutMap::new();
/// for k in [5u64, 1, 9, 3] {
///     assert!(m.insert(k));
/// }
/// assert!(m.contains(&9));
/// assert!(m.remove(&9));
/// assert!(!m.contains(&9));
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![1, 3, 5]);
/// ```
pub struct LayoutMap<K> {
    layout: NamedLayout,
    tiered: TieredForest<K>,
}

impl<K: FixedKey> Default for LayoutMap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: FixedKey> LayoutMap<K> {
    /// Empty map with the MINWEP bulk layout.
    #[must_use]
    pub fn new() -> Self {
        Self::with_layout(NamedLayout::MinWep)
    }

    /// Empty map with a chosen bulk layout (for comparisons).
    #[must_use]
    pub fn with_layout(layout: NamedLayout) -> Self {
        let tiered = TieredForest::builder()
            .layout(layout)
            .shards(1)
            .memtable_entries(BUFFER_BUDGET)
            .build()
            .expect("an empty in-memory engine cannot fail to build");
        Self { layout, tiered }
    }

    /// Number of live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.tiered.len()).expect("in-memory set fits usize")
    }

    /// `true` when no live keys remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tiered.is_empty()
    }

    /// The bulk layout in use.
    #[must_use]
    pub fn bulk_layout(&self) -> NamedLayout {
        self.layout
    }

    /// The compacted bulk (the engine's immutable base forest), when
    /// one has been published.
    #[must_use]
    pub fn bulk(&self) -> Option<Arc<Forest<K>>> {
        self.tiered.base()
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.tiered.contains(*key)
    }

    /// Inserts `key`; returns `false` if it was already present.
    pub fn insert(&mut self, key: K) -> bool {
        self.tiered.insert(key)
    }

    /// Removes `key`; returns `false` if it was absent.
    pub fn remove(&mut self, key: &K) -> bool {
        self.tiered.remove(*key)
    }

    /// Sorted iteration over the live keys — the engine's three-tier
    /// merge.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        let keys: Vec<K> = self.tiered.snapshot().iter().collect();
        keys.into_iter()
    }

    /// Compacts every buffered update into the bulk (also shrinks).
    pub fn compact(&mut self) {
        self.tiered
            .compact()
            .expect("in-memory compaction cannot fail");
    }

    /// Fills the map with `n` random distinct u64-convertible keys — test
    /// and benchmark helper.
    pub fn extend_random(&mut self, n: usize, seed: u64)
    where
        K: From<u64>,
    {
        for k in UniformKeys::new(u64::MAX - 1, seed).take(n * 2) {
            if self.len() >= n {
                break;
            }
            self.insert(K::from(k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut m = LayoutMap::new();
        assert!(m.is_empty());
        for k in 0..200u64 {
            assert!(m.insert(k * 3));
            assert!(!m.insert(k * 3), "double insert of {k}");
        }
        assert_eq!(m.len(), 200);
        for k in 0..200u64 {
            assert!(m.contains(&(k * 3)));
            assert!(!m.contains(&(k * 3 + 1)));
        }
        for k in (0..200u64).step_by(2) {
            assert!(m.remove(&(k * 3)));
            assert!(!m.remove(&(k * 3)));
        }
        assert_eq!(m.len(), 100);
        let collected: Vec<u64> = m.iter().collect();
        let expect: Vec<u64> = (0..200u64).filter(|k| k % 2 == 1).map(|k| k * 3).collect();
        assert_eq!(collected, expect);
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut m = LayoutMap::with_layout(NamedLayout::MinWep);
        for k in 0..50u64 {
            m.insert(k);
        }
        m.compact();
        for k in 0..50u64 {
            assert!(m.contains(&k), "{k} lost in compaction");
        }
        assert!(!m.contains(&50));
        // Padding keys must be unreachable.
        assert_eq!(m.iter().count(), 50);
        assert_eq!(m.bulk().unwrap().len(), 50);
    }

    #[test]
    fn tombstone_resurrection() {
        let mut m = LayoutMap::new();
        for k in 0..40u64 {
            m.insert(k);
        }
        m.compact();
        assert!(m.remove(&7));
        assert!(!m.contains(&7));
        assert!(m.insert(7));
        assert!(m.contains(&7));
    }

    #[test]
    fn random_ops_match_btreeset() {
        let mut m = LayoutMap::new();
        let mut oracle = BTreeSet::new();
        let mut state = 0x1234_5678_u64;
        for step in 0..3000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (state >> 33) % 500;
            match state % 3 {
                0 => assert_eq!(
                    m.insert(key),
                    oracle.insert(key),
                    "step {step} insert {key}"
                ),
                1 => assert_eq!(
                    m.remove(&key),
                    oracle.remove(&key),
                    "step {step} remove {key}"
                ),
                _ => assert_eq!(
                    m.contains(&key),
                    oracle.contains(&key),
                    "step {step} get {key}"
                ),
            }
            assert_eq!(m.len(), oracle.len(), "step {step}");
        }
        let got: Vec<u64> = m.iter().collect();
        let expect: Vec<u64> = oracle.into_iter().collect();
        assert_eq!(got, expect);
    }

    /// Regression test for the remove + compact interaction: interleave
    /// inserts, removes and *explicit* compactions (at several cadences,
    /// so compaction fires with tombstones pending against the bulk in
    /// every configuration) and require exact agreement with `BTreeSet`,
    /// including `len`, after every single operation.
    #[test]
    fn interleaved_remove_and_compact_match_btreeset_exactly() {
        for (cadence, seed) in [(3usize, 1u64), (7, 2), (13, 3), (29, 4)] {
            let mut m = LayoutMap::with_layout(NamedLayout::MinWep);
            let mut oracle = BTreeSet::new();
            let mut state = seed;
            for step in 0..1500usize {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = (state >> 33) % 200;
                if state % 2 == 0 {
                    assert_eq!(
                        m.insert(key),
                        oracle.insert(key),
                        "cadence {cadence} step {step} insert {key}"
                    );
                } else {
                    assert_eq!(
                        m.remove(&key),
                        oracle.remove(&key),
                        "cadence {cadence} step {step} remove {key}"
                    );
                }
                if step % cadence == 0 {
                    m.compact();
                }
                assert_eq!(m.len(), oracle.len(), "cadence {cadence} step {step} len");
                assert_eq!(
                    m.contains(&key),
                    oracle.contains(&key),
                    "cadence {cadence} step {step} readback {key}"
                );
            }
            let got: Vec<u64> = m.iter().collect();
            let expect: Vec<u64> = oracle.iter().copied().collect();
            assert_eq!(got, expect, "cadence {cadence} final contents");
            // One more compaction must be a no-op on the contents.
            m.compact();
            assert_eq!(m.iter().collect::<Vec<_>>(), expect, "cadence {cadence}");
            assert_eq!(m.len(), expect.len());
        }
    }

    #[test]
    fn works_with_every_bulk_layout() {
        for layout in [
            NamedLayout::PreVeb,
            NamedLayout::InOrder,
            NamedLayout::HalfWep,
        ] {
            let mut m = LayoutMap::with_layout(layout);
            for k in 0..100u64 {
                m.insert(k ^ 0x55);
            }
            m.compact();
            for k in 0..100u64 {
                assert!(m.contains(&(k ^ 0x55)), "{layout}");
            }
        }
    }
}
