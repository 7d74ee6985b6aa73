//! The index-only storage backend: keys in plain sorted order, layout
//! positions computed on demand.
//!
//! This generalizes the paper's §IV-E trick (keys `1..=n` inferred from
//! the BFS index) to arbitrary key sets: the descent compares against
//! the *in-order* key array — no layout-ordered storage exists at all —
//! and the position index is consulted only to *report* layout
//! positions, so results stay interchangeable with the other backends.
//! When the keys really are `1..=n`, [`IndexOnlySearcher`] is the
//! memory-access-free instrument the paper times.

use crate::backend::SearchBackend;
use crate::kernel::{self, PosRef, RankPlane};
use crate::slot::{padded_slots, Padded, Slot};
use cobtree_core::error::{check_sorted_keys, Error, Result};
use cobtree_core::index::{PositionIndex, StepPlan};
use cobtree_core::Tree;

/// A complete BST stored as a *sorted* key array, searched by BFS
/// descent with positions derived from an owned arithmetic index.
pub struct IndexOnlyTree<K> {
    tree: Tree,
    index: Box<dyn PositionIndex>,
    /// `keys[r - 1]` is the key with in-order rank `r` — i.e. the input
    /// keys verbatim, in sorted order.
    keys: Vec<K>,
    /// Compiled descent plan where the layout has one (`None` for the
    /// generic-interpreter layouts — no table is materialized here, so
    /// building stays O(n) regardless of layout).
    plan: Option<StepPlan>,
}

impl<K: Ord + Copy> IndexOnlyTree<K> {
    /// Builds the backend over `index` and strictly sorted `keys`.
    ///
    /// # Errors
    /// [`Error::EmptyKeys`] / [`Error::UnsortedKeys`] /
    /// [`Error::KeyCountMismatch`].
    pub fn try_build(index: Box<dyn PositionIndex>, keys: &[K]) -> Result<Self> {
        let tree = Tree::try_new(index.height())?;
        check_sorted_keys(keys)?;
        if keys.len() as u64 != tree.len() {
            return Err(Error::KeyCountMismatch {
                expected: tree.len(),
                got: keys.len() as u64,
            });
        }
        let plan = index.compile_plan();
        Ok(Self {
            tree,
            index,
            keys: keys.to_vec(),
            plan,
        })
    }

    /// The descent plane the kernels run on: comparisons read the
    /// sorted key array by rank (no layout-ordered storage exists);
    /// positions come from the compiled plan when one exists.
    #[inline]
    fn plane(&self) -> RankPlane<'_, K> {
        let pos = match &self.plan {
            Some(plan) => PosRef::Plan(plan),
            None => PosRef::Index(self.index.as_ref()),
        };
        RankPlane::new(&self.keys, pos, self.tree.height())
    }

    /// Builds the backend, panicking where [`IndexOnlyTree::try_build`]
    /// errors.
    ///
    /// # Panics
    /// See [`IndexOnlyTree::try_build`].
    #[must_use]
    pub fn build(index: Box<dyn PositionIndex>, keys: &[K]) -> Self {
        match Self::try_build(index, keys) {
            Ok(tree) => tree,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `false`; at least the root exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sorted key array.
    #[must_use]
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The position index used to report layout positions.
    #[must_use]
    pub fn index(&self) -> &dyn PositionIndex {
        self.index.as_ref()
    }

    /// Searches for `key`; returns the layout position of the matching
    /// node (computed once, on the match — the kernel's hoisted-equality
    /// descent preserves exactly this discipline).
    #[inline]
    pub fn search(&self, key: K) -> Option<u64> {
        kernel::search(&self.plane(), key)
    }

    /// The pre-kernel descent, kept as the verification oracle.
    #[inline]
    pub fn search_reference(&self, key: K) -> Option<u64> {
        let h = self.tree.height();
        let mut i = 1u64;
        let mut d = 0u32;
        loop {
            let k = self.keys[(self.tree.in_order_rank(i) - 1) as usize];
            match key.cmp(&k) {
                std::cmp::Ordering::Equal => return Some(self.index.position(i, d)),
                std::cmp::Ordering::Less => i *= 2,
                std::cmp::Ordering::Greater => i = 2 * i + 1,
            }
            d += 1;
            if d >= h {
                return None;
            }
        }
    }

    /// Searches while recording the layout position of every visited
    /// node — here every transition pays the full index computation,
    /// exactly the §IV-E cost model.
    pub fn search_traced(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        let h = self.tree.height();
        let mut i = 1u64;
        let mut d = 0u32;
        loop {
            let p = self.index.position(i, d);
            visited.push(p);
            let k = self.keys[(self.tree.in_order_rank(i) - 1) as usize];
            match key.cmp(&k) {
                std::cmp::Ordering::Equal => return Some(p),
                std::cmp::Ordering::Less => i *= 2,
                std::cmp::Ordering::Greater => i = 2 * i + 1,
            }
            d += 1;
            if d >= h {
                return None;
            }
        }
    }

    /// Searches an arbitrary-order probe batch on the interleaved
    /// kernel — see [`crate::kernel::fold_interleaved`].
    pub fn search_batch_interleaved(&self, keys: &[K], width: usize, out: &mut Vec<Option<u64>>) {
        kernel::search_batch_interleaved(&self.plane(), keys, width, out);
    }

    /// Benchmark kernel: sum of found positions, via the shared
    /// interleaved checksum kernel.
    #[must_use]
    pub fn search_batch_checksum(&self, keys: &[K]) -> u64 {
        kernel::batch_checksum(&self.plane(), keys, kernel::DEFAULT_LANES)
    }
}

impl<K> std::fmt::Debug for IndexOnlyTree<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexOnlyTree")
            .field("height", &self.tree.height())
            .field("len", &self.keys.len())
            .finish()
    }
}

/// The [`crate::SearchTree`] facade's index-only backend: `keys` padded
/// with suprema to the complete tree `index` describes.
pub(crate) fn build_padded<K: Ord + Copy>(
    index: Box<dyn PositionIndex>,
    keys: &[K],
) -> Result<Padded<IndexOnlyTree<Slot<K>>>> {
    let slots = padded_slots(keys, index.height());
    Ok(Padded::new(
        IndexOnlyTree::try_build(index, &slots)?,
        keys.len() as u64,
    ))
}

impl<K: Ord + Copy> SearchBackend<K> for IndexOnlyTree<K> {
    fn height(&self) -> u32 {
        self.tree.height()
    }

    fn key_count(&self) -> u64 {
        self.keys.len() as u64
    }

    fn search(&self, key: K) -> Option<u64> {
        IndexOnlyTree::search(self, key)
    }

    fn search_reference(&self, key: K) -> Option<u64> {
        IndexOnlyTree::search_reference(self, key)
    }

    fn search_traced(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        IndexOnlyTree::search_traced(self, key, visited)
    }

    fn search_traced_kernel(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        kernel::search_traced(&self.plane(), key, visited)
    }

    fn search_batch_interleaved(&self, keys: &[K], width: usize, out: &mut Vec<Option<u64>>) {
        IndexOnlyTree::search_batch_interleaved(self, keys, width, out);
    }

    fn search_batch_checksum(&self, keys: &[K]) -> u64 {
        IndexOnlyTree::search_batch_checksum(self, keys)
    }

    fn key_at_rank(&self, rank: u64) -> Option<K> {
        // The key array *is* the in-order sequence.
        (rank >= 1 && rank <= self.keys.len() as u64).then(|| self.keys[(rank - 1) as usize])
    }

    fn position_of_rank(&self, rank: u64) -> Option<u64> {
        (rank >= 1 && rank <= self.tree.len()).then(|| self.index.position_of_in_order(rank))
    }
}

/// Times pure index computation: keys are the in-order ranks `1..=n`, so
/// comparisons need no memory at all (§IV-E footnote 1). Every transition
/// still performs the full position computation, whose result is folded
/// into a checksum the optimizer cannot discard.
pub struct IndexOnlySearcher<'a> {
    tree: Tree,
    index: &'a dyn PositionIndex,
}

impl<'a> IndexOnlySearcher<'a> {
    /// Creates a searcher over the arithmetic layout `index`.
    #[must_use]
    pub fn new(index: &'a dyn PositionIndex) -> Self {
        Self {
            tree: Tree::new(index.height()),
            index,
        }
    }

    /// "Searches" for in-order rank `key ∈ 1..=n`, computing the layout
    /// position of every node on the path; returns the sum of positions.
    #[inline]
    pub fn search(&self, key: u64) -> u64 {
        let h = self.tree.height();
        let mut i = 1u64;
        let mut acc = 0u64;
        for d in 0..h {
            acc = acc.wrapping_add(self.index.position(i, d));
            let k = self.tree.in_order_rank(i);
            match key.cmp(&k) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Less => i *= 2,
                std::cmp::Ordering::Greater => i = 2 * i + 1,
            }
        }
        acc
    }

    /// Checksum over a batch of keys.
    #[must_use]
    pub fn search_batch_checksum(&self, keys: &[u64]) -> u64 {
        let mut acc = 0u64;
        for &k in keys {
            acc = acc.wrapping_add(self.search(k));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{SearchTree, Storage};
    use cobtree_core::NamedLayout;

    fn implicit(layout: NamedLayout, keys: &[u64]) -> SearchTree<u64> {
        SearchTree::builder()
            .layout(layout)
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .unwrap()
    }

    #[test]
    fn agrees_with_implicit_backend_on_positions() {
        for layout in [
            NamedLayout::MinWep,
            NamedLayout::PreVeb,
            NamedLayout::InOrder,
        ] {
            let h = 8;
            let keys: Vec<u64> = (1..=(1u64 << h) - 1).map(|k| k * 5 + 1).collect();
            let io = IndexOnlyTree::build(layout.indexer(h), &keys);
            let it = implicit(layout, &keys);
            for probe in 0..=keys.len() as u64 * 5 + 2 {
                assert_eq!(io.search(probe), it.search(probe), "{layout} probe {probe}");
            }
        }
    }

    #[test]
    fn traced_positions_match_implicit_trace() {
        let h = 7;
        let keys: Vec<u64> = (1..=(1u64 << h) - 1).collect();
        let io = IndexOnlyTree::build(NamedLayout::HalfWep.indexer(h), &keys);
        let it = implicit(NamedLayout::HalfWep, &keys);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for key in [1u64, 33, 64, 127] {
            a.clear();
            b.clear();
            io.search_traced(key, &mut a);
            it.search_traced(key, &mut b);
            assert_eq!(a, b, "key {key}");
        }
    }

    #[test]
    fn rejects_invalid_keys() {
        let idx = NamedLayout::MinWep.indexer(3);
        assert_eq!(
            IndexOnlyTree::<u64>::try_build(idx, &[]).unwrap_err(),
            Error::EmptyKeys
        );
        let idx = NamedLayout::MinWep.indexer(3);
        assert!(matches!(
            IndexOnlyTree::try_build(idx, &[1u64, 2]).unwrap_err(),
            Error::KeyCountMismatch { .. }
        ));
    }

    #[test]
    fn index_only_searcher_visits_the_right_path() {
        let layout = NamedLayout::MinWep;
        let h = 7;
        let idx = layout.indexer(h);
        let s = IndexOnlySearcher::new(idx.as_ref());
        let tree = Tree::new(h);
        for key in 1..=tree.len() {
            let expect: u64 = tree
                .search_path(key)
                .iter()
                .map(|&i| idx.position(i, tree.depth(i)))
                .sum();
            assert_eq!(s.search(key), expect, "key {key}");
        }
    }

    #[test]
    fn checksums_deterministic() {
        let idx = NamedLayout::HalfWep.indexer(8);
        let s = IndexOnlySearcher::new(idx.as_ref());
        let keys: Vec<u64> = (1..=255).collect();
        assert_eq!(
            s.search_batch_checksum(&keys),
            s.search_batch_checksum(&keys)
        );
    }
}
