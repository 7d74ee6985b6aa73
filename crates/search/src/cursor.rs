//! Lending cursors and range iterators over any [`SearchBackend`].
//!
//! Both types speak **in-order ranks** (see the [`crate::backend`]
//! module docs for the position ⇄ rank contract) and work on
//! `&dyn SearchBackend<K>`, so one implementation serves every layout ×
//! storage combination — including the [`crate::SearchTree`] facade,
//! which exposes them as [`crate::SearchTree::cursor`] and
//! [`crate::SearchTree::range`].
//!
//! ```
//! use cobtree_search::cursor::Cursor;
//! use cobtree_search::{SearchTree, Storage};
//!
//! let tree = SearchTree::builder()
//!     .storage(Storage::Implicit)
//!     .keys((1..=100u64).map(|k| k * 10))
//!     .build()?;
//! let mut cur = Cursor::new(&tree);
//! assert_eq!(cur.seek(95), Some(100)); // lands on the lower bound
//! assert_eq!(cur.next(), Some(110)); // Iterator::next advances
//! assert_eq!(cur.prev(), Some(100));
//! # Ok::<(), cobtree_core::Error>(())
//! ```

use crate::backend::SearchBackend;
use std::ops::{Bound, RangeBounds};

/// A bidirectional cursor borrowing a backend ("lending": keys are read
/// on demand, nothing is copied out of the tree up front).
///
/// The cursor sits either on an entry (rank `1..=len`) or on one of two
/// sentinels: *before-first* (the initial state) and *after-last*.
/// [`Iterator::next`] and [`Cursor::prev`] move one entry and return the
/// new current key; [`Cursor::seek`] jumps to the lower bound of a key.
pub struct Cursor<'a, K: Copy + Ord> {
    backend: &'a dyn SearchBackend<K>,
    len: u64,
    /// Current rank; `0` = before-first, `len + 1` = after-last.
    rank: u64,
}

impl<'a, K: Copy + Ord> Cursor<'a, K> {
    /// A cursor positioned before the first entry.
    #[must_use]
    pub fn new(backend: &'a dyn SearchBackend<K>) -> Self {
        Self {
            backend,
            len: backend.key_count(),
            rank: 0,
        }
    }

    /// Moves to the first stored key `>= key` (the lower bound) and
    /// returns it; lands after-last (returning `None`) when every key
    /// is smaller.
    pub fn seek(&mut self, key: K) -> Option<K> {
        self.rank = self.backend.lower_bound_rank(key).min(self.len + 1);
        self.key()
    }

    /// Moves onto the first entry and returns its key.
    pub fn seek_first(&mut self) -> Option<K> {
        self.rank = 1.min(self.len + 1);
        self.key()
    }

    /// Moves onto the last entry and returns its key.
    pub fn seek_last(&mut self) -> Option<K> {
        self.rank = self.len;
        self.key()
    }

    /// Key under the cursor, `None` on a sentinel.
    ///
    /// The stored-key bound is hoisted here against the `len` cached at
    /// construction (and clamped once per [`Cursor::seek`]), so
    /// navigation never asks the backend about sentinel ranks — on a
    /// padded mapped tree, `key_at_rank` would otherwise re-derive the
    /// padding bound arithmetically on every step.
    #[must_use]
    pub fn key(&self) -> Option<K> {
        if self.rank < 1 || self.rank > self.len {
            return None;
        }
        self.backend.key_at_rank(self.rank)
    }

    /// 1-based in-order rank of the current entry, `None` on a sentinel.
    #[must_use]
    pub fn rank(&self) -> Option<u64> {
        (self.rank >= 1 && self.rank <= self.len).then_some(self.rank)
    }

    /// Layout position of the current entry, `None` on a sentinel.
    #[must_use]
    pub fn position(&self) -> Option<u64> {
        self.rank().and_then(|r| self.backend.position_of_rank(r))
    }

    /// Steps back one entry and returns the new current key; `None`
    /// (and the before-first state) when already at the front.
    pub fn prev(&mut self) -> Option<K> {
        self.rank = self.rank.saturating_sub(1);
        self.key()
    }
}

impl<K: Copy + Ord> Iterator for Cursor<'_, K> {
    type Item = K;

    /// Steps forward one entry and returns the new current key; `None`
    /// (and the after-last state) once the keys are exhausted.
    fn next(&mut self) -> Option<K> {
        if self.rank <= self.len {
            self.rank += 1;
        }
        self.key()
    }
}

impl<K: Copy + Ord> std::fmt::Debug for Cursor<'_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor")
            .field("rank", &self.rank)
            .field("len", &self.len)
            .finish()
    }
}

/// Double-ended iterator over the keys in a contiguous rank window.
/// Built by [`range_of`] / [`crate::SearchTree::range`], or directly
/// from a rank interval with [`Range::from_ranks`].
pub struct Range<'a, K: Copy + Ord> {
    backend: &'a dyn SearchBackend<K>,
    /// Next rank the front will yield; the window is empty once
    /// `front > back`.
    front: u64,
    /// Next rank the back will yield (inclusive).
    back: u64,
}

impl<'a, K: Copy + Ord> Range<'a, K> {
    /// The window of ranks `lo..=hi` (1-based, clamped to the stored
    /// keys; `lo > hi` yields nothing). Clamping here hoists the
    /// stored-key bound out of the iteration: every rank the window
    /// yields is a real key, so per-step `key_at_rank` calls never land
    /// on padding.
    #[must_use]
    pub fn from_ranks(backend: &'a dyn SearchBackend<K>, lo: u64, hi: u64) -> Self {
        Self {
            backend,
            front: lo.max(1),
            back: hi.min(backend.key_count()),
        }
    }

    /// Remaining `(rank, key, layout position)` triples — the variant
    /// scans feed to cache replay when positions matter.
    pub fn entries(self) -> impl Iterator<Item = (u64, K, u64)> + 'a {
        let backend = self.backend;
        // An inverted window (`front > back`) is simply empty.
        (self.front..=self.back).filter_map(move |r| {
            let k = backend.key_at_rank(r)?;
            let p = backend.position_of_rank(r)?;
            Some((r, k, p))
        })
    }
}

impl<K: Copy + Ord> Iterator for Range<'_, K> {
    type Item = K;

    fn next(&mut self) -> Option<K> {
        if self.front > self.back {
            return None;
        }
        let k = self.backend.key_at_rank(self.front);
        self.front += 1;
        k
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.back + 1).saturating_sub(self.front) as usize;
        (n, Some(n))
    }
}

impl<K: Copy + Ord> DoubleEndedIterator for Range<'_, K> {
    fn next_back(&mut self) -> Option<K> {
        if self.front > self.back {
            return None;
        }
        let k = self.backend.key_at_rank(self.back);
        self.back -= 1;
        k
    }
}

impl<K: Copy + Ord> ExactSizeIterator for Range<'_, K> {}

impl<K: Copy + Ord> std::fmt::Debug for Range<'_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Range")
            .field("front", &self.front)
            .field("back", &self.back)
            .finish()
    }
}

/// Keys of `backend` within `bounds`, in ascending order — the
/// `BTreeSet::range` equivalent for any layout × storage backend.
/// Inverted bounds (start past end) yield an empty iterator.
pub fn range_of<'a, K: Copy + Ord>(
    backend: &'a dyn SearchBackend<K>,
    bounds: impl RangeBounds<K>,
) -> Range<'a, K> {
    let lo = match bounds.start_bound() {
        Bound::Unbounded => 1,
        Bound::Included(&a) => backend.lower_bound_rank(a),
        Bound::Excluded(&a) => backend.upper_bound_rank(a),
    };
    let hi = match bounds.end_bound() {
        Bound::Unbounded => backend.key_count(),
        Bound::Included(&b) => backend.upper_bound_rank(b) - 1,
        Bound::Excluded(&b) => backend.lower_bound_rank(b) - 1,
    };
    Range::from_ranks(backend, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{SearchTree, Storage};
    use cobtree_core::NamedLayout;

    fn tree() -> SearchTree<u64> {
        SearchTree::builder()
            .layout(NamedLayout::MinWep)
            .storage(Storage::Implicit)
            .keys((1..=63u64).map(|k| k * 10))
            .build()
            .unwrap()
    }

    #[test]
    fn cursor_walks_the_whole_key_set_in_order() {
        let t = tree();
        let forward: Vec<u64> = Cursor::new(&t).collect();
        let expect: Vec<u64> = (1..=63u64).map(|k| k * 10).collect();
        assert_eq!(forward, expect);
        let mut cur = Cursor::new(&t);
        assert_eq!(cur.seek_last(), Some(630));
        let mut backward = vec![630u64];
        while let Some(k) = cur.prev() {
            backward.push(k);
        }
        backward.reverse();
        assert_eq!(backward, expect);
    }

    #[test]
    fn cursor_seek_rank_and_position_agree_with_the_backend() {
        let t = tree();
        let mut cur = Cursor::new(&t);
        assert_eq!(cur.seek(95), Some(100));
        assert_eq!(cur.rank(), Some(10));
        assert_eq!(cur.position(), t.search(100));
        assert_eq!(cur.seek(630), Some(630));
        assert_eq!(cur.next(), None); // after-last sentinel
        assert_eq!(cur.rank(), None);
        assert_eq!(cur.position(), None);
        assert_eq!(cur.prev(), Some(630)); // steps back onto the last key
        assert_eq!(cur.seek(631), None);
        assert_eq!(cur.seek_first(), Some(10));
        assert_eq!(cur.prev(), None); // before-first sentinel
    }

    #[test]
    fn range_matches_a_sorted_vec_oracle_for_all_bound_kinds() {
        let t = tree();
        let keys: Vec<u64> = (1..=63u64).map(|k| k * 10).collect();
        for a in [0u64, 10, 95, 100, 300, 630, 700] {
            for b in [0u64, 10, 105, 300, 629, 630, 700] {
                let got: Vec<u64> = range_of(&t, a..b).collect();
                let expect: Vec<u64> = keys.iter().copied().filter(|&k| a <= k && k < b).collect();
                assert_eq!(got, expect, "{a}..{b}");
                let got: Vec<u64> = range_of(&t, a..=b).collect();
                let expect: Vec<u64> = keys.iter().copied().filter(|&k| a <= k && k <= b).collect();
                assert_eq!(got, expect, "{a}..={b}");
            }
        }
        let all: Vec<u64> = range_of(&t, ..).collect();
        assert_eq!(all, keys);
        let tail: Vec<u64> = range_of(
            &t,
            (
                std::ops::Bound::Excluded(600u64),
                std::ops::Bound::Unbounded,
            ),
        )
        .collect();
        assert_eq!(tail, vec![610, 620, 630]);
    }

    #[test]
    fn range_is_double_ended_and_exact_size() {
        let t = tree();
        let r = range_of(&t, 100u64..=150);
        assert_eq!(r.len(), 6);
        let rev: Vec<u64> = range_of(&t, 100u64..=150).rev().collect();
        assert_eq!(rev, vec![150, 140, 130, 120, 110, 100]);
        let mut r = range_of(&t, 100u64..=130);
        assert_eq!(r.next(), Some(100));
        assert_eq!(r.next_back(), Some(130));
        assert_eq!(r.next(), Some(110));
        assert_eq!(r.next_back(), Some(120));
        assert_eq!(r.next(), None);
        assert_eq!(r.next_back(), None);
    }

    #[test]
    fn entries_report_consistent_positions() {
        let t = tree();
        for (rank, key, pos) in range_of(&t, 200u64..=260).entries() {
            assert_eq!(t.key_at_rank(rank), Some(key));
            assert_eq!(t.search(key), Some(pos));
        }
        assert_eq!(range_of(&t, 200u64..=260).entries().count(), 7);
    }
}
