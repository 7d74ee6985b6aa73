//! The [`SearchBackend`] trait: one *ordered-index* interface over every
//! storage discipline.
//!
//! The paper's point is that the search *algorithm* is identical across
//! layouts and storage kinds — only the position computation changes.
//! This trait makes that literal: pointer-based ([`crate::ExplicitTree`]),
//! layout-ordered key images ([`crate::MappedTree`]), index-only
//! ([`crate::IndexOnlyTree`]) trees and the [`crate::SearchTree`] facade
//! all expose the same surface, so benches, the cache simulator and the analysis harness
//! iterate backends generically through `&dyn SearchBackend<K>`.
//!
//! # The position ⇄ in-order rank contract
//!
//! Every backend stores its keys at the nodes of a complete binary tree
//! of height `h`, and the in-order traversal of that tree visits keys in
//! ascending order. Two coordinate systems therefore describe the same
//! entry:
//!
//! * the **layout position** `p ∈ 0..2^h − 1` — where the entry's node
//!   sits in the storage array (layout-dependent; what [`SearchBackend::search`]
//!   returns and what cache simulation consumes);
//! * the **in-order rank** `r ∈ 1..=key_count` — the entry's ordinal
//!   among the stored keys (layout-independent; what ordered-map
//!   operations speak).
//!
//! The two required primitives [`SearchBackend::key_at_rank`] and
//! [`SearchBackend::position_of_rank`] translate rank → (key, position);
//! everything else — `lower_bound`/`upper_bound`, `rank`/`select`,
//! cursors and range scans ([`crate::cursor`]), and sorted-batch search
//! — is provided once on the trait and inherited by all backends.
//!
//! Contract details implementations must uphold:
//!
//! * ranks `1..=key_count` hold the stored keys in strictly ascending
//!   order: `key_at_rank(r)` is `Some` and increasing in `r`;
//! * the underlying complete tree may be *larger* than `key_count`
//!   (padding, as in the [`crate::SearchTree`] facade): for padded ranks
//!   `key_count < r ≤ 2^h − 1`, `key_at_rank` returns `None` — the
//!   provided descents treat such slots as `+∞` — while
//!   `position_of_rank` still returns the padding node's position so
//!   traced walks record every touched node;
//! * `position_of_rank(r)` agrees with [`SearchBackend::search`]: for a
//!   stored key `k` at rank `r`, `search(k) == position_of_rank(r)`.
//!
//! Positions are 0-based offsets into the backend's layout array,
//! reported as `u64` regardless of the backend's internal width.

use cobtree_core::error::{Error, Result};
use cobtree_core::Tree;

/// Object-safe ordered-index interface shared by all storage backends.
pub trait SearchBackend<K: Copy + Ord> {
    /// Height `h` of the underlying complete tree.
    fn height(&self) -> u32;

    /// Number of stored keys — in-order ranks `1..=key_count()` hold
    /// them in ascending order. The underlying complete tree may be
    /// larger (padding slots carry no key).
    fn key_count(&self) -> u64;

    /// Searches for `key`; returns the 0-based layout position of the
    /// node holding it, if present.
    fn search(&self, key: K) -> Option<u64>;

    /// Like [`SearchBackend::search`], recording the layout position of
    /// every visited node (for cache-simulation traces).
    fn search_traced(&self, key: K, visited: &mut Vec<u64>) -> Option<u64>;

    /// Key stored at 1-based in-order rank `rank`, or `None` when
    /// `rank` is `0`, beyond [`SearchBackend::key_count`], or a padding
    /// slot. See the module docs for the full contract.
    fn key_at_rank(&self, rank: u64) -> Option<K>;

    /// Layout position of the node with 1-based in-order rank `rank`,
    /// or `None` when `rank` is outside `1..=2^h − 1`. Unlike
    /// [`SearchBackend::key_at_rank`] this *does* answer for padding
    /// ranks, so traces can record every touched node.
    fn position_of_rank(&self, rank: u64) -> Option<u64>;

    /// The raw little-endian key region, in layout order, of the
    /// encoded binary `.cobt` image this backend serves from; `None`
    /// for the explicit and index-only backends and for fat-node images. With the layout's
    /// rank → position table a caller reads every stored key back in
    /// sorted order, one load per key and no descent.
    fn key_region(&self) -> Option<&[u8]> {
        None
    }

    // ------------------------------------------------------------------
    // Provided: point queries
    // ------------------------------------------------------------------

    /// Membership test — provided so callers stop re-deriving it from
    /// [`SearchBackend::search`].
    fn contains(&self, key: K) -> bool {
        self.search(key).is_some()
    }

    /// The pre-kernel descent path, kept as the oracle the compiled
    /// kernels are verified against. Backends with a compiled kernel
    /// override this with their original per-level loop; for everything
    /// else `search` *is* the reference, which the default reflects.
    fn search_reference(&self, key: K) -> Option<u64> {
        self.search(key)
    }

    /// [`SearchBackend::search_traced`] on the compiled kernel: a
    /// branch-free full-height descent whose recorded trace is truncated
    /// at the match, so the visited sequence is **bit-identical** to the
    /// slow path's (the repro harness asserts the two hit the same
    /// simulated-L1 blocks). Backends without a kernel fall back to the
    /// slow trace, which is trivially identical.
    fn search_traced_kernel(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        self.search_traced(key, visited)
    }

    /// Searches an arbitrary-order probe batch with up to `width`
    /// lookups interleaved in flight (memory-level parallelism — see
    /// [`crate::kernel`]). `out` is cleared and filled with one entry
    /// per probe, in probe order; results are bit-identical to mapping
    /// [`SearchBackend::search`] over the batch, which is exactly what
    /// the default does for backends without an interleaved kernel.
    fn search_batch_interleaved(&self, keys: &[K], width: usize, out: &mut Vec<Option<u64>>) {
        let _ = width;
        out.clear();
        out.extend(keys.iter().map(|&k| self.search(k)));
    }

    /// Sums the positions of all successful lookups — the benchmark
    /// kernel whose result must be consumed to defeat dead-code
    /// elimination. Backends built from the same position index return
    /// identical checksums for identical keys. Scratch-free: no
    /// allocation, one [`SearchBackend::search`] per probe. The four
    /// storage backends override this with the shared interleaved
    /// checksum kernel ([`crate::kernel::batch_checksum`]); the sum is
    /// identical either way.
    fn search_batch_checksum(&self, keys: &[K]) -> u64 {
        let mut acc = 0u64;
        for &k in keys {
            if let Some(p) = self.search(k) {
                acc = acc.wrapping_add(p);
            }
        }
        acc
    }

    // ------------------------------------------------------------------
    // Provided: ordered navigation (rank/select, bounds)
    // ------------------------------------------------------------------

    /// 1-based in-order rank of the first stored key `>= key`, or
    /// `key_count() + 1` when every stored key is smaller.
    fn lower_bound_rank(&self, key: K) -> u64 {
        lower_bound_impl(self, key, None)
    }

    /// [`SearchBackend::lower_bound_rank`], recording the layout
    /// position of every node the descent visits (padding included).
    fn lower_bound_rank_traced(&self, key: K, visited: &mut Vec<u64>) -> u64 {
        lower_bound_impl(self, key, Some(visited))
    }

    /// 1-based in-order rank of the first stored key `> key`, or
    /// `key_count() + 1` when none is larger.
    fn upper_bound_rank(&self, key: K) -> u64 {
        let h = self.height();
        let tree = Tree::new(h);
        let mut i = 1u64;
        for _ in 0..h {
            let r = tree.in_order_rank(i);
            // Padding slots compare as +∞, so `key < slot` goes left.
            let go_right = match self.key_at_rank(r) {
                Some(k) => key >= k,
                None => false,
            };
            i = (i << 1) | u64::from(go_right);
        }
        // `i` is a virtual leaf; its gap index counts the slots <= key.
        (i - (1u64 << h)) + 1
    }

    /// Number of stored keys strictly less than `key` (a key's 0-based
    /// insertion index). `rank(select(r)) == r − 1` for stored ranks.
    fn rank(&self, key: K) -> u64 {
        self.lower_bound_rank(key) - 1
    }

    /// The `rank`-th smallest stored key (1-based), `None` out of
    /// range. Inverse of [`SearchBackend::rank`] up to the 0/1 base
    /// shift: `select(rank(k) + 1) == Some(k)` for stored `k`.
    fn select(&self, rank: u64) -> Option<K> {
        self.key_at_rank(rank)
    }

    /// Smallest stored key `>= key` (`key` itself when present).
    fn lower_bound(&self, key: K) -> Option<K> {
        self.key_at_rank(self.lower_bound_rank(key))
    }

    /// Smallest stored key `> key` — the in-order successor.
    fn upper_bound(&self, key: K) -> Option<K> {
        self.key_at_rank(self.upper_bound_rank(key))
    }

    /// Largest stored key `< key` — the in-order predecessor.
    fn predecessor(&self, key: K) -> Option<K> {
        match self.rank(key) {
            0 => None,
            r => self.key_at_rank(r),
        }
    }

    /// Alias for [`SearchBackend::upper_bound`]: the in-order successor.
    fn successor(&self, key: K) -> Option<K> {
        self.upper_bound(key)
    }

    // ------------------------------------------------------------------
    // Provided: scans and sorted batches
    // ------------------------------------------------------------------

    /// Pushes the layout position of every stored rank in
    /// `lo_rank..=hi_rank` (clamped to `1..=key_count()`) — the
    /// element-granularity access trace of an in-order range scan, ready
    /// for cache replay.
    fn scan_positions_traced(&self, lo_rank: u64, hi_rank: u64, visited: &mut Vec<u64>) {
        let lo = lo_rank.max(1);
        let hi = hi_rank.min(self.key_count());
        for r in lo..=hi {
            if let Some(p) = self.position_of_rank(r) {
                visited.push(p);
            }
        }
    }

    /// Searches an ascending probe batch, amortizing root-path traversal:
    /// consecutive probes restart the descent from the lowest common
    /// ancestor of their paths instead of the root, so shared path
    /// prefixes are fetched once per batch rather than once per probe.
    ///
    /// `out` is cleared and filled with one entry per probe (the found
    /// layout position, as [`SearchBackend::search`] would return).
    /// Scratch-free: callers reuse `out` across batches.
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`] if `keys` has a descending adjacent pair
    /// (equal probes are fine).
    fn search_sorted_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) -> Result<()> {
        sorted_batch_impl(self, keys, out, None)
    }

    /// [`SearchBackend::search_sorted_batch`], recording the layout
    /// position of every *newly fetched* node. Nodes on the shared path
    /// prefix between consecutive probes are carried in the descent
    /// stack and not re-fetched, so for a sorted batch the trace is a
    /// subset of — and strictly shorter than — the concatenation of the
    /// probes' independent [`SearchBackend::search_traced`] traces.
    ///
    /// # Errors
    /// [`Error::UnsortedBatch`] as for [`SearchBackend::search_sorted_batch`].
    fn search_sorted_batch_traced(
        &self,
        keys: &[K],
        out: &mut Vec<Option<u64>>,
        visited: &mut Vec<u64>,
    ) -> Result<()> {
        sorted_batch_impl(self, keys, out, Some(visited))
    }
}

/// Shared descent for `lower_bound_rank{,_traced}`: first rank holding a
/// key `>= probe`, visiting one node per level like `search_traced`.
fn lower_bound_impl<K, B>(backend: &B, key: K, mut visited: Option<&mut Vec<u64>>) -> u64
where
    K: Copy + Ord,
    B: SearchBackend<K> + ?Sized,
{
    let h = backend.height();
    let tree = Tree::new(h);
    let mut i = 1u64;
    for _ in 0..h {
        let r = tree.in_order_rank(i);
        if let Some(v) = visited.as_deref_mut() {
            if let Some(p) = backend.position_of_rank(r) {
                v.push(p);
            }
        }
        match backend.key_at_rank(r) {
            Some(k) => match key.cmp(&k) {
                std::cmp::Ordering::Equal => return r,
                std::cmp::Ordering::Less => i <<= 1,
                std::cmp::Ordering::Greater => i = (i << 1) | 1,
            },
            // Padding slot: compares as +∞, descend left.
            None => i <<= 1,
        }
    }
    // `i` is a virtual leaf in [2^h, 2^{h+1}); exactly `i − 2^h` slots
    // precede its gap in in-order, all strictly below `key`.
    (i - (1u64 << h)) + 1
}

/// Shared sorted-batch kernel. Maintains the current root-to-node path as
/// a stack of `(bfs node, rank, key, exclusive upper bound)`; each probe
/// pops to the deepest stacked ancestor whose subtree can still contain
/// it (the LCA of consecutive search paths) and resumes the descent from
/// there. Only newly pushed nodes are fetched from the backend (and
/// recorded when tracing) — the popped prefix rides along in the stack.
fn sorted_batch_impl<K, B>(
    backend: &B,
    keys: &[K],
    out: &mut Vec<Option<u64>>,
    mut visited: Option<&mut Vec<u64>>,
) -> Result<()>
where
    K: Copy + Ord,
    B: SearchBackend<K> + ?Sized,
{
    out.clear();
    out.reserve(keys.len());
    let h = backend.height();
    let tree = Tree::new(h);
    // (bfs node, in-order rank, key — None is a padding slot and
    // compares as +∞, exclusive upper key bound inherited from the
    // nearest left-turn ancestor).
    let mut stack: Vec<(u64, u64, Option<K>, Option<K>)> = Vec::with_capacity(h as usize);
    let mut prev: Option<K> = None;
    for (idx, &probe) in keys.iter().enumerate() {
        if let Some(p) = prev {
            if probe < p {
                return Err(Error::UnsortedBatch { index: idx - 1 });
            }
        }
        prev = Some(probe);
        // Pop everything whose subtree lies entirely below `probe`: an
        // entry with upper bound `u <= probe` cannot contain it (when
        // `probe == u`, the match — if any — is the ancestor holding
        // `u`, which stays on the stack).
        while let Some(&(_, _, _, upper)) = stack.last() {
            match upper {
                Some(u) if probe >= u => {
                    stack.pop();
                }
                _ => break,
            }
        }
        if stack.is_empty() {
            let r = tree.in_order_rank(1);
            if let Some(v) = visited.as_deref_mut() {
                if let Some(p) = backend.position_of_rank(r) {
                    v.push(p);
                }
            }
            stack.push((1, r, backend.key_at_rank(r), None));
        }
        // Resume the descent from the stack top (already fetched).
        let result = loop {
            let &(i, r, k, upper) = stack.last().expect("stack holds at least the root");
            let go_right = match k {
                Some(k) => match probe.cmp(&k) {
                    std::cmp::Ordering::Equal => break backend.position_of_rank(r),
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Greater => true,
                },
                // Padding slot = +∞: the probe sorts below it.
                None => false,
            };
            let child = (i << 1) | u64::from(go_right);
            if child > tree.len() {
                break None; // fell off a leaf: absent
            }
            let cr = tree.in_order_rank(child);
            if let Some(v) = visited.as_deref_mut() {
                if let Some(p) = backend.position_of_rank(cr) {
                    v.push(p);
                }
            }
            // Turning left tightens the upper bound to this node's key
            // (padding keys are +∞ and leave it unchanged).
            let cupper = if go_right { upper } else { k.or(upper) };
            stack.push((child, cr, backend.key_at_rank(cr), cupper));
        };
        out.push(result);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{SearchTree, Storage};
    use cobtree_core::NamedLayout;

    fn tree(h: u32) -> SearchTree<u64> {
        SearchTree::builder()
            .layout(NamedLayout::MinWep)
            .storage(Storage::Implicit)
            .keys((1..=(1u64 << h) - 1).map(|k| k * 10))
            .build()
            .unwrap()
    }

    #[test]
    fn bounds_and_rank_select_match_a_sorted_vec() {
        let t = tree(6);
        let keys: Vec<u64> = (1..=63u64).map(|k| k * 10).collect();
        for probe in 0..=640u64 {
            let lb = keys.partition_point(|&k| k < probe) as u64;
            assert_eq!(t.rank(probe), lb, "rank({probe})");
            assert_eq!(t.lower_bound_rank(probe), lb + 1);
            assert_eq!(t.lower_bound(probe), keys.get(lb as usize).copied());
            let ub = keys.partition_point(|&k| k <= probe) as u64;
            assert_eq!(t.upper_bound_rank(probe), ub + 1, "upper({probe})");
            assert_eq!(t.upper_bound(probe), keys.get(ub as usize).copied());
            assert_eq!(
                t.predecessor(probe),
                keys[..lb as usize].last().copied(),
                "pred({probe})"
            );
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.select(i as u64 + 1), Some(k));
            assert_eq!(t.rank(k), i as u64);
        }
        assert_eq!(t.select(0), None);
        assert_eq!(t.select(64), None);
    }

    #[test]
    fn lower_bound_trace_matches_search_trace_for_present_keys() {
        let t = tree(7);
        for k in [10u64, 640, 1270] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let rank = t.lower_bound_rank_traced(k, &mut a);
            assert_eq!(t.search_traced(k, &mut b), t.position_of_rank(rank));
            assert_eq!(a, b, "key {k}");
        }
    }

    #[test]
    fn sorted_batch_agrees_with_point_searches_and_visits_fewer() {
        let t = tree(8);
        let probes: Vec<u64> = (0..300u64).map(|k| k * 7 + 3).collect();
        let mut out = Vec::new();
        let mut batch_visits = Vec::new();
        t.search_sorted_batch_traced(&probes, &mut out, &mut batch_visits)
            .unwrap();
        let mut independent_visits = Vec::new();
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(out[i], t.search(p), "probe {p}");
            t.search_traced(p, &mut independent_visits);
        }
        assert!(
            batch_visits.len() < independent_visits.len(),
            "batch {} vs independent {}",
            batch_visits.len(),
            independent_visits.len()
        );
        // Untraced variant returns the same answers.
        let mut out2 = Vec::new();
        t.search_sorted_batch(&probes, &mut out2).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn sorted_batch_rejects_descending_probes() {
        let t = tree(4);
        let mut out = Vec::new();
        assert_eq!(
            t.search_sorted_batch(&[30u64, 10], &mut out).unwrap_err(),
            Error::UnsortedBatch { index: 0 }
        );
        // Equal adjacent probes are allowed.
        t.search_sorted_batch(&[30u64, 30, 40], &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn scan_positions_cover_the_requested_ranks() {
        let t = tree(5);
        let mut visited = Vec::new();
        t.scan_positions_traced(3, 9, &mut visited);
        assert_eq!(visited.len(), 7);
        for (off, &p) in visited.iter().enumerate() {
            assert_eq!(Some(p), t.position_of_rank(3 + off as u64));
        }
        // Clamped: out-of-range bounds shrink to the stored ranks.
        visited.clear();
        t.scan_positions_traced(0, u64::MAX, &mut visited);
        assert_eq!(visited.len(), 31);
        // Empty window.
        visited.clear();
        t.scan_positions_traced(9, 3, &mut visited);
        assert!(visited.is_empty());
    }

    #[test]
    fn contains_is_derived_from_search() {
        let t = tree(4);
        assert!(t.contains(10));
        assert!(!t.contains(11));
    }
}
