//! Hot-swappable serving forest — the publication side of the adaptive
//! layout loop.
//!
//! The paper's layouts are chosen *ahead of time* for a uniform search
//! distribution; a serving engine can do better by re-optimizing each
//! shard for the traffic it actually receives
//! (`cobtree_optimizer::profile` is the planner). What that loop
//! needs from the data plane is an engine whose shards can be replaced
//! **while readers are in flight**, without a stop-the-world barrier
//! and without perturbing a single answer. [`AdaptiveForest`] supplies
//! exactly that:
//!
//! * readers take a [`snapshot`](AdaptiveForest::snapshot) — an
//!   `Arc<Forest<K>>` — and run any number of ordered-API queries
//!   against it; a snapshot is immutable, so a swap published after it
//!   was taken is invisible to it (epoch-style consistency, the same
//!   discipline as [`crate::tiered`]'s versioned snapshots);
//! * [`swap_shard`](AdaptiveForest::swap_shard) publishes a forest that
//!   *shares* every unchanged shard with its predecessor
//!   ([`Forest::with_swapped_shard`]), so a swap costs O(shards)
//!   pointer work no matter how many keys the forest holds, and
//!   validates that the replacement serves the identical key set —
//!   layouts may change, answers may not;
//! * each shard remembers the traffic profile its current layout was
//!   **built for** ([`built_for`](AdaptiveForest::built_for)), which is
//!   what the planner diffs fresh observations against
//!   ([`should_reoptimize`](AdaptiveForest::should_reoptimize));
//! * persistence rides the forest's manifest-last discipline:
//!   [`save`](AdaptiveForest::save) writes per-shard `.cobt` files with
//!   `.cobw` weight-profile sidecars and the manifest last, and
//!   [`open`](AdaptiveForest::open) restores both the trees and the
//!   built-for profiles.
//!
//! ```
//! use cobtree_search::{AdaptiveForest, Forest};
//! use cobtree_core::{NamedLayout, ObservedProfile};
//! use std::sync::Arc;
//!
//! let forest = Forest::builder()
//!     .layout(NamedLayout::MinWep)
//!     .shards(2)
//!     .keys((1..=1000u64).map(|k| k * 2))
//!     .build()?;
//! let engine = AdaptiveForest::new(forest);
//!
//! // A reader pins a snapshot; swaps published later cannot touch it.
//! let before = engine.snapshot();
//!
//! // Rebuild shard 0 for skewed traffic and hot-swap it in.
//! let shard = engine.snapshot().shard_arc(0).unwrap();
//! let keys: Vec<u64> = shard.iter().collect();
//! let counts: Vec<u64> = (0..keys.len() as u64).map(|r| 1 + 1000 / (r + 1)).collect();
//! let profile = Arc::new(ObservedProfile::from_access_counts(&counts));
//! let hot = cobtree_optimizer::optimize_for_profile(
//!     &ObservedProfile::with_height(profile.counts(), shard.height()),
//! ).1;
//! let rebuilt = cobtree_search::SearchTree::builder()
//!     .layout(hot)
//!     .keys(keys.iter().copied())
//!     .build()?;
//! engine.swap_shard(0, Arc::new(rebuilt), Some(profile))?;
//!
//! // Old and new snapshots answer identically — only positions moved.
//! let after = engine.snapshot();
//! assert_eq!(engine.swaps(), 1);
//! assert_eq!(before.rank(1000), after.rank(1000));
//! assert_eq!(
//!     before.iter().collect::<Vec<u64>>(),
//!     after.iter().collect::<Vec<u64>>(),
//! );
//! # Ok::<(), cobtree_core::Error>(())
//! ```

use crate::facade::{read_weight_sidecar, SearchTree};
use crate::forest::{shard_file_name, Forest};
use cobtree_core::error::{Error, Result};
use cobtree_core::format::{self, FixedKey};
use cobtree_core::ObservedProfile;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The swappable state: the published forest and, per dense shard, the
/// traffic profile its current layout was optimized for (`None` =
/// built for uniform traffic, e.g. a paper layout).
struct AdaptiveState<K> {
    forest: Arc<Forest<K>>,
    built_for: Vec<Option<Arc<ObservedProfile>>>,
}

/// A [`Forest`] behind an atomically swappable handle: readers pin
/// immutable snapshots, the planner publishes re-optimized shards with
/// [`AdaptiveForest::swap_shard`]. See the [module docs](self).
pub struct AdaptiveForest<K> {
    state: RwLock<AdaptiveState<K>>,
    /// Published shard swaps over this engine's lifetime.
    swaps: AtomicU64,
}

impl<K: Ord + Copy> AdaptiveForest<K> {
    /// Wraps a forest whose layouts were built for uniform traffic
    /// (no built-for profiles).
    #[must_use]
    pub fn new(forest: Forest<K>) -> Self {
        let built_for = (0..forest.active_shards()).map(|_| None).collect();
        Self {
            state: RwLock::new(AdaptiveState {
                forest: Arc::new(forest),
                built_for,
            }),
            swaps: AtomicU64::new(0),
        }
    }

    /// Wraps a forest together with the traffic profile each dense
    /// shard's layout was built for.
    ///
    /// # Errors
    /// [`Error::Malformed`] when `built_for` is not one entry per
    /// active shard.
    pub fn with_profiles(
        forest: Forest<K>,
        built_for: Vec<Option<Arc<ObservedProfile>>>,
    ) -> Result<Self> {
        if built_for.len() != forest.active_shards() {
            return Err(Error::Malformed {
                detail: format!(
                    "{} built-for profiles for {} active shards",
                    built_for.len(),
                    forest.active_shards()
                ),
            });
        }
        Ok(Self {
            state: RwLock::new(AdaptiveState {
                forest: Arc::new(forest),
                built_for,
            }),
            swaps: AtomicU64::new(0),
        })
    }

    /// The currently published forest. The returned handle is
    /// immutable: queries against it are unaffected by swaps published
    /// after it was taken, so a multi-query operation (batch, range,
    /// cursor walk) sees one consistent forest throughout.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Forest<K>> {
        Arc::clone(&self.state.read().expect("adaptive lock poisoned").forest)
    }

    /// The traffic profile dense shard `shard`'s current layout was
    /// built for; `None` for uniform-traffic (paper) layouts or an
    /// out-of-range index.
    #[must_use]
    pub fn built_for(&self, shard: usize) -> Option<Arc<ObservedProfile>> {
        self.state.read().expect("adaptive lock poisoned").built_for[..]
            .get(shard)
            .and_then(Clone::clone)
    }

    /// Number of shard swaps published over this engine's lifetime.
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Total stored keys (swap-invariant: replacements must serve the
    /// same key set).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.snapshot().len()
    }

    /// `false`; forests hold at least one key.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `observed` traffic has drifted far enough from what
    /// dense shard `shard`'s layout was built for to justify paying
    /// for re-optimization: total-variation
    /// [`divergence`](ObservedProfile::divergence) at least
    /// `threshold`. A shard with no built-for profile is compared
    /// against the uniform profile its paper layout optimizes.
    #[must_use]
    pub fn should_reoptimize(
        &self,
        shard: usize,
        observed: &ObservedProfile,
        threshold: f64,
    ) -> bool {
        let state = self.state.read().expect("adaptive lock poisoned");
        let Some(slot) = state.built_for.get(shard) else {
            return false;
        };
        let divergence = match slot {
            Some(built) => built.divergence(observed),
            None => {
                let h = observed.height();
                let uniform = ObservedProfile::with_height(&vec![1; (1usize << h) - 1], h);
                uniform.divergence(observed)
            }
        };
        divergence >= threshold
    }

    /// Publishes a re-optimized replacement for dense shard `shard`,
    /// recording the `profile` its new layout was built for. Readers
    /// migrate at their next [`snapshot`](AdaptiveForest::snapshot);
    /// snapshots already taken keep serving the old forest (their
    /// `Arc` keeps it alive). Unchanged shards are shared between the
    /// old and new forest, so the critical section is O(shards).
    ///
    /// # Errors
    /// [`Error::Malformed`] when the replacement does not serve
    /// exactly the old shard's key set (see
    /// [`Forest::with_swapped_shard`]).
    pub fn swap_shard(
        &self,
        shard: usize,
        tree: Arc<SearchTree<K>>,
        profile: Option<Arc<ObservedProfile>>,
    ) -> Result<()> {
        let mut state = self.state.write().expect("adaptive lock poisoned");
        let next = state.forest.with_swapped_shard(shard, tree)?;
        state.forest = Arc::new(next);
        state.built_for[shard] = profile;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl<K: Ord + Copy + FixedKey> AdaptiveForest<K> {
    /// Saves the published forest into `dir` — one `.cobt` per shard,
    /// a `.cobw` weight-profile sidecar for every shard with a
    /// built-for profile (stale sidecars removed), manifest last — so
    /// [`AdaptiveForest::open`] restores trees *and* profiles.
    ///
    /// # Errors
    /// As for [`Forest::save`].
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<()> {
        let (forest, built_for) = {
            let state = self.state.read().expect("adaptive lock poisoned");
            (Arc::clone(&state.forest), state.built_for.clone())
        };
        forest.save_with_profiles(dir, format::DEFAULT_BLOCK_BYTES, &built_for)
    }

    /// Opens a saved forest directory ([`Forest::open`]) and restores
    /// each shard's built-for profile from its `.cobw` sidecar, where
    /// present.
    ///
    /// # Errors
    /// As for [`Forest::open`], plus sidecar parse errors (a missing
    /// sidecar is not an error — the shard is treated as built for
    /// uniform traffic).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        let forest: Forest<K> = Forest::open(dir)?;
        let mut built_for = Vec::with_capacity(forest.active_shards());
        for dense in 0..forest.active_shards() {
            let slot = forest.slot_of(dense).expect("dense shard has a slot");
            let profile = read_weight_sidecar(dir.join(shard_file_name(slot)))?;
            built_for.push(profile.map(Arc::new));
        }
        Self::with_profiles(forest, built_for)
    }
}

impl<K: Ord + Copy> std::fmt::Debug for AdaptiveForest<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.read().expect("adaptive lock poisoned");
        f.debug_struct("AdaptiveForest")
            .field("active", &state.forest.active_shards())
            .field(
                "adapted",
                &state.built_for.iter().filter(|p| p.is_some()).count(),
            )
            .field("swaps", &self.swaps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::Storage;
    use cobtree_core::io::ScratchDir;
    use cobtree_core::NamedLayout;

    fn keys(n: u64) -> Vec<u64> {
        (1..=n).map(|k| k * 2).collect()
    }

    fn forest(n: u64, shards: usize) -> Forest<u64> {
        Forest::builder()
            .shards(shards)
            .storage(Storage::Implicit)
            .keys(keys(n))
            .build()
            .unwrap()
    }

    /// Rebuilds dense shard `shard` of `f` with a different layout.
    fn rebuilt(f: &Forest<u64>, shard: usize, layout: NamedLayout) -> Arc<SearchTree<u64>> {
        let keys: Vec<u64> = f.shard(shard).unwrap().iter().collect();
        Arc::new(
            SearchTree::builder()
                .layout(layout)
                .keys(keys.iter().copied())
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn swap_is_invisible_to_the_ordered_api() {
        let engine = AdaptiveForest::new(forest(500, 4));
        let before = engine.snapshot();
        let all: Vec<u64> = before.iter().collect();
        let probes: Vec<u64> = (0..1200).collect();
        let checksum = before.rank_checksum(&probes);

        engine
            .swap_shard(1, rebuilt(&before, 1, NamedLayout::InVeb), None)
            .unwrap();
        engine
            .swap_shard(3, rebuilt(&before, 3, NamedLayout::InOrder), None)
            .unwrap();
        assert_eq!(engine.swaps(), 2);

        let after = engine.snapshot();
        // Answers are bit-identical; only layouts moved.
        assert_eq!(after.iter().collect::<Vec<u64>>(), all);
        assert_eq!(after.rank_checksum(&probes), checksum);
        for p in 0..1100u64 {
            assert_eq!(after.contains(p), before.contains(p), "contains {p}");
            assert_eq!(after.rank(p), before.rank(p), "rank {p}");
        }
        for r in 0..=502u64 {
            assert_eq!(after.select(r), before.select(r), "select {r}");
        }
        // The pinned pre-swap snapshot still serves, and unchanged
        // shards are shared, not copied.
        assert_eq!(before.rank_checksum(&probes), checksum);
        for shard in [0usize, 2] {
            assert!(Arc::ptr_eq(
                &before.shard_arc(shard).unwrap(),
                &after.shard_arc(shard).unwrap()
            ));
        }
        for shard in [1usize, 3] {
            assert!(!Arc::ptr_eq(
                &before.shard_arc(shard).unwrap(),
                &after.shard_arc(shard).unwrap()
            ));
        }
    }

    #[test]
    fn swap_rejects_a_different_key_set() {
        let engine = AdaptiveForest::new(forest(100, 2));
        let snap = engine.snapshot();
        // Wrong keys: shard 1's tree in shard 0's slot.
        let err = engine
            .swap_shard(0, snap.shard_arc(1).unwrap(), None)
            .unwrap_err();
        assert!(matches!(err, Error::Malformed { .. }));
        // Out-of-range shard.
        let err = engine
            .swap_shard(9, snap.shard_arc(0).unwrap(), None)
            .unwrap_err();
        assert!(matches!(err, Error::Malformed { .. }));
        assert_eq!(engine.swaps(), 0);
    }

    #[test]
    fn divergence_gate_compares_against_the_built_for_profile() {
        let engine = AdaptiveForest::new(forest(300, 2));
        let h = engine.snapshot().shard(0).unwrap().height();
        let n = (1usize << h) - 1;
        let uniform = ObservedProfile::with_height(&vec![1; n], h);
        let mut hot = vec![0u64; n];
        hot[0] = 1_000;
        let skewed = Arc::new(ObservedProfile::with_height(&hot, h));

        // Uniform traffic over a uniform-built shard: no drift.
        assert!(!engine.should_reoptimize(0, &uniform, 0.15));
        // Heavy skew over a uniform-built shard: drift.
        assert!(engine.should_reoptimize(0, &skewed, 0.15));
        // After adopting the skewed profile, the same traffic no
        // longer justifies another rebuild.
        let snap = engine.snapshot();
        engine
            .swap_shard(
                0,
                snap.shard_arc(0).unwrap().clone(),
                Some(Arc::clone(&skewed)),
            )
            .unwrap();
        assert!(!engine.should_reoptimize(0, &skewed, 0.15));
        assert!(engine.should_reoptimize(0, &uniform, 0.15));
        // Out-of-range shards never trigger.
        assert!(!engine.should_reoptimize(7, &skewed, 0.15));
    }

    #[test]
    fn save_open_round_trips_profiles() {
        let dir = ScratchDir::new("adaptive-profiles");
        let engine = AdaptiveForest::new(forest(200, 3));
        let h = engine.snapshot().shard(1).unwrap().height();
        let n = (1usize << h) - 1;
        let mut counts = vec![1u64; n];
        counts[n / 2] = 500;
        let profile = Arc::new(ObservedProfile::with_height(&counts, h));
        let snap = engine.snapshot();
        engine
            .swap_shard(1, snap.shard_arc(1).unwrap(), Some(Arc::clone(&profile)))
            .unwrap();

        engine.save(&dir).unwrap();
        let reopened: AdaptiveForest<u64> = AdaptiveForest::open(&dir).unwrap();
        assert_eq!(reopened.built_for(0), None);
        assert_eq!(reopened.built_for(1).as_deref(), Some(profile.as_ref()));
        assert_eq!(reopened.built_for(2), None);
        let probes: Vec<u64> = (0..500).collect();
        assert_eq!(
            reopened.snapshot().rank_checksum(&probes),
            engine.snapshot().rank_checksum(&probes)
        );

        // Dropping the profile and re-saving removes the stale sidecar.
        let snap = engine.snapshot();
        engine
            .swap_shard(1, snap.shard_arc(1).unwrap(), None)
            .unwrap();
        engine.save(&dir).unwrap();
        let reopened: AdaptiveForest<u64> = AdaptiveForest::open(&dir).unwrap();
        assert_eq!(reopened.built_for(1), None);
    }

    #[test]
    fn swaps_race_concurrent_readers_without_perturbing_answers() {
        let engine = Arc::new(AdaptiveForest::new(forest(400, 4)));
        let probes: Vec<u64> = (0..900).collect();
        let expect = engine.snapshot().rank_checksum(&probes);
        std::thread::scope(|scope| {
            let swapper = {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    for round in 0..20 {
                        let snap = engine.snapshot();
                        let shard = round % 4;
                        let layout = if round % 2 == 0 {
                            NamedLayout::InVeb
                        } else {
                            NamedLayout::MinWep
                        };
                        engine
                            .swap_shard(shard, rebuilt(&snap, shard, layout), None)
                            .unwrap();
                    }
                })
            };
            for _ in 0..3 {
                let engine = Arc::clone(&engine);
                let probes = &probes;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while engine.swaps() < 20 {
                        let snap = engine.snapshot();
                        assert_eq!(snap.rank_checksum(probes), expect);
                        snap.par_search_batch(probes, 2, &mut out).unwrap();
                        assert_eq!(out.iter().filter(|o| o.is_some()).count(), 400);
                    }
                });
            }
            swapper.join().unwrap();
        });
        assert_eq!(engine.swaps(), 20);
    }
}
