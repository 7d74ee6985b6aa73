//! Supremum padding for the two heap backends that store typed keys:
//! the explicit pointer tree and the index-only sorted array.
//!
//! The paper's trees are complete (`2^h − 1` nodes); arbitrary key
//! counts are supported by padding the key sequence with *supremum*
//! sentinels that compare greater than every real key. Suprema carry a
//! distinct index so the padded sequence stays strictly sorted, which is
//! what the backend constructors require. [`Padded`] hides the slots
//! again, so the [`crate::SearchTree`] facade talks to a padded backend
//! as a plain [`SearchBackend<K>`]. (Image-backed trees pad
//! arithmetically instead — see [`crate::mapped`].)

use crate::backend::SearchBackend;
use crate::kernel;
use cobtree_core::error::Result;

/// One storage slot: a real key, or the `i`-th supremum sentinel.
///
/// The derived ordering makes every `Key(_)` sort below every `Sup(_)`
/// (variant order), and suprema sort among themselves by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Slot<K> {
    /// A real key.
    Key(K),
    /// The `i`-th padding sentinel (`i` keeps the sequence strict).
    Sup(u32),
}

/// Pads `keys` (strictly sorted) to the `2^height − 1` slots of a
/// complete tree, in key order: real keys first, then suprema.
pub(crate) fn padded_slots<K: Ord + Copy>(keys: &[K], height: u32) -> Vec<Slot<K>> {
    let total = (1u64 << height) - 1;
    debug_assert!(keys.len() as u64 <= total);
    let mut slots = Vec::with_capacity(total as usize);
    slots.extend(keys.iter().map(|&k| Slot::Key(k)));
    slots.extend((0..total - keys.len() as u64).map(|i| Slot::Sup(i as u32)));
    slots
}

/// A backend built over padded slots, answering in plain keys: probes
/// are wrapped as [`Slot::Key`] and padding ranks read as absent.
pub(crate) struct Padded<B> {
    inner: B,
    key_count: u64,
}

impl<B> Padded<B> {
    /// Wraps `inner`, whose ranks `1..=key_count` hold the real keys.
    pub(crate) fn new(inner: B, key_count: u64) -> Self {
        Self { inner, key_count }
    }
}

/// Runs `f` over `keys` as slots, chunk-wise through a lane-sized stack
/// buffer — never a probes-length allocation, so a kernel's cost is
/// what gets measured.
fn for_slot_chunks<K: Copy>(keys: &[K], width: usize, mut f: impl FnMut(&[Slot<K>])) {
    let mut slots = [Slot::Sup(0); kernel::MAX_LANES];
    for chunk in keys.chunks(width.clamp(1, kernel::MAX_LANES)) {
        for (slot, &k) in slots.iter_mut().zip(chunk) {
            *slot = Slot::Key(k);
        }
        f(&slots[..chunk.len()]);
    }
}

// Ranks are storage-independent and suprema sort above every real
// probe, so every rank the inner backend reports is at most
// `key_count + 1` — exactly the "absent" sentinel of this wrapper.
impl<K: Ord + Copy, B: SearchBackend<Slot<K>>> SearchBackend<K> for Padded<B> {
    fn height(&self) -> u32 {
        self.inner.height()
    }

    fn key_count(&self) -> u64 {
        self.key_count
    }

    fn search(&self, key: K) -> Option<u64> {
        self.inner.search(Slot::Key(key))
    }

    fn search_reference(&self, key: K) -> Option<u64> {
        self.inner.search_reference(Slot::Key(key))
    }

    fn search_traced(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        self.inner.search_traced(Slot::Key(key), visited)
    }

    fn search_traced_kernel(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        self.inner.search_traced_kernel(Slot::Key(key), visited)
    }

    fn search_batch_interleaved(&self, keys: &[K], width: usize, out: &mut Vec<Option<u64>>) {
        out.clear();
        out.reserve(keys.len());
        let mut lane_out = Vec::with_capacity(kernel::MAX_LANES);
        for_slot_chunks(keys, width, |slots| {
            self.inner
                .search_batch_interleaved(slots, width, &mut lane_out);
            out.extend_from_slice(&lane_out);
        });
    }

    fn search_batch_checksum(&self, keys: &[K]) -> u64 {
        let mut acc = 0u64;
        for_slot_chunks(keys, kernel::DEFAULT_LANES, |slots| {
            acc = acc.wrapping_add(self.inner.search_batch_checksum(slots));
        });
        acc
    }

    fn key_at_rank(&self, rank: u64) -> Option<K> {
        match self.inner.key_at_rank(rank) {
            Some(Slot::Key(k)) => Some(k),
            _ => None,
        }
    }

    fn position_of_rank(&self, rank: u64) -> Option<u64> {
        // Not clamped to `key_count`: padding nodes have positions too,
        // and traced descents record them.
        self.inner.position_of_rank(rank)
    }

    fn lower_bound_rank(&self, key: K) -> u64 {
        self.inner.lower_bound_rank(Slot::Key(key))
    }

    fn lower_bound_rank_traced(&self, key: K, visited: &mut Vec<u64>) -> u64 {
        self.inner.lower_bound_rank_traced(Slot::Key(key), visited)
    }

    fn upper_bound_rank(&self, key: K) -> u64 {
        self.inner.upper_bound_rank(Slot::Key(key))
    }

    fn search_sorted_batch(&self, keys: &[K], out: &mut Vec<Option<u64>>) -> Result<()> {
        let slots: Vec<Slot<K>> = keys.iter().map(|&k| Slot::Key(k)).collect();
        self.inner.search_sorted_batch(&slots, out)
    }

    fn search_sorted_batch_traced(
        &self,
        keys: &[K],
        out: &mut Vec<Option<u64>>,
        visited: &mut Vec<u64>,
    ) -> Result<()> {
        let slots: Vec<Slot<K>> = keys.iter().map(|&k| Slot::Key(k)).collect();
        self.inner.search_sorted_batch_traced(&slots, out, visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_keeps_keys_below_suprema() {
        assert!(Slot::Key(u64::MAX) < Slot::<u64>::Sup(0));
        assert!(Slot::<u64>::Sup(0) < Slot::<u64>::Sup(1));
        assert!(Slot::Key(1u64) < Slot::Key(2u64));
    }

    #[test]
    fn padding_is_strictly_sorted() {
        let slots = padded_slots(&[10u64, 20, 30], 3);
        assert_eq!(slots.len(), 7);
        assert!(slots.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(slots[0], Slot::Key(10));
        assert_eq!(slots[3], Slot::Sup(0));
    }
}
