//! Empirical locality measurement from live search backends.
//!
//! The analytic `β(N)` (Eq. 3) averages the single-block miss
//! probability over the *affinity* edge distribution. These helpers
//! derive the same quantity from what a storage backend actually does:
//! replay a workload through [`SearchBackend::search_traced`] and apply
//! Eq. 1 to every observed position transition. Under the uniform
//! workload the estimate converges to the analytic curve, which is
//! exactly the §II-A validation experiment — now runnable against *any*
//! backend (explicit, implicit, index-only, or the whole facade).

use cobtree_search::SearchBackend;

/// Accumulates Eq. 1 over the position transitions of one trace.
fn accumulate_transitions(visited: &[u64], block_sizes: &[u64], sums: &mut [f64]) -> u64 {
    for pair in visited.windows(2) {
        let len = pair[0].abs_diff(pair[1]);
        for (sum, &n) in sums.iter_mut().zip(block_sizes) {
            debug_assert!(n >= 1);
            *sum += if len >= n { 1.0 } else { len as f64 / n as f64 };
        }
    }
    visited.len().saturating_sub(1) as u64
}

fn normalize(mut sums: Vec<f64>, transitions: u64) -> Vec<f64> {
    if transitions > 0 {
        for sum in &mut sums {
            *sum /= transitions as f64;
        }
    }
    sums
}

/// Observed block-transition fraction for each block size: the mean of
/// `M_N(ℓ) = min(ℓ/N, 1)` (Eq. 1) over every position transition the
/// backend performs while searching `keys`.
///
/// Returns one value per entry of `block_sizes` (all 0 if the workload
/// produces no transitions, e.g. a height-1 tree).
#[must_use]
pub fn observed_block_transitions<K: Copy + Ord>(
    backend: &dyn SearchBackend<K>,
    keys: &[K],
    block_sizes: &[u64],
) -> Vec<f64> {
    let mut sums = vec![0.0f64; block_sizes.len()];
    let mut transitions = 0u64;
    let mut visited = Vec::with_capacity(backend.height() as usize);
    for &key in keys {
        visited.clear();
        backend.search_traced(key, &mut visited);
        transitions += accumulate_transitions(&visited, block_sizes, &mut sums);
    }
    normalize(sums, transitions)
}

/// Observed block-transition fraction of in-order range scans: Eq. 1
/// averaged over the position transitions of a `span`-element scan from
/// every 1-based rank in `starts` — the scan-locality counterpart of
/// [`observed_block_transitions`]. Low fractions mean consecutive keys
/// share blocks (IN-ORDER is unbeatable here; point-search-optimal
/// layouts pay).
#[must_use]
pub fn observed_scan_block_transitions<K: Copy + Ord>(
    backend: &dyn SearchBackend<K>,
    starts: &[u64],
    span: u64,
    block_sizes: &[u64],
) -> Vec<f64> {
    let mut sums = vec![0.0f64; block_sizes.len()];
    let mut transitions = 0u64;
    let mut visited = Vec::with_capacity(span as usize);
    for &start in starts {
        visited.clear();
        backend.scan_positions_traced(start, start + span - 1, &mut visited);
        transitions += accumulate_transitions(&visited, block_sizes, &mut sums);
    }
    normalize(sums, transitions)
}

/// Observed block-transition fraction of sorted-batch searches: Eq. 1
/// over the positions the shared-prefix batch descent actually fetches
/// ([`SearchBackend::search_sorted_batch_traced`]).
///
/// # Panics
/// Panics if a batch is not ascending; generate batches with
/// [`cobtree_search::workload::sorted_batches`].
#[must_use]
pub fn observed_batch_block_transitions<K: Copy + Ord>(
    backend: &dyn SearchBackend<K>,
    batches: &[Vec<K>],
    block_sizes: &[u64],
) -> Vec<f64> {
    let mut sums = vec![0.0f64; block_sizes.len()];
    let mut transitions = 0u64;
    let mut out = Vec::new();
    let mut visited = Vec::new();
    for batch in batches {
        visited.clear();
        backend
            .search_sorted_batch_traced(batch, &mut out, &mut visited)
            .expect("observed batches must be ascending");
        transitions += accumulate_transitions(&visited, block_sizes, &mut sums);
    }
    normalize(sums, transitions)
}

/// Mean observed search-path edge length — the workload-weighted
/// counterpart of `ν1` computed from a live backend.
#[must_use]
pub fn observed_mean_transition_length<K: Copy + Ord>(
    backend: &dyn SearchBackend<K>,
    keys: &[K],
) -> f64 {
    let mut total = 0u128;
    let mut transitions = 0u64;
    let mut visited = Vec::with_capacity(backend.height() as usize);
    for &key in keys {
        visited.clear();
        backend.search_traced(key, &mut visited);
        for pair in visited.windows(2) {
            total += u128::from(pair[0].abs_diff(pair[1]));
            transitions += 1;
        }
    }
    if transitions == 0 {
        0.0
    } else {
        total as f64 / transitions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_transitions;
    use cobtree_core::{EdgeWeights, NamedLayout};
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
    fn mapped_backend_observes_the_same_locality_as_implicit() {
        // The observed measures are functions of visited positions
        // only, so a saved-and-reopened tree must report bit-identical
        // estimates to the in-memory backend it was serialized from.
        use cobtree_search::SaveOptions;
        let built = SearchTree::builder()
            .layout(NamedLayout::MinWep)
            .storage(Storage::Implicit)
            .keys((1..=3000u64).map(|k| k * 5))
            .build()
            .unwrap();
        let mapped: SearchTree<u64> =
            SearchTree::open_bytes(built.encode(&SaveOptions::new()).unwrap()).unwrap();
        let workload = UniformKeys::new(15_000, 13).take_vec(20_000);
        let sizes = [2u64, 16, 64];
        assert_eq!(
            observed_block_transitions(&built, &workload, &sizes),
            observed_block_transitions(&mapped, &workload, &sizes),
        );
        let starts = cobtree_search::workload::scan_starts(3000, 32, 100, 7);
        assert_eq!(
            observed_scan_block_transitions(&built, &starts, 32, &sizes),
            observed_scan_block_transitions(&mapped, &starts, 32, &sizes),
        );
    }

    #[test]
    fn observed_beta_tracks_analytic_beta() {
        // Uniform random searches on a full rank-keyed tree realize the
        // affinity edge probabilities (Eq. 2), so the observed fraction
        // must approach the analytic curve.
        let h = 10;
        let layout = NamedLayout::MinWep;
        let keys: Vec<u64> = (1..=(1u64 << h) - 1).collect();
        let tree = implicit(layout, &keys);
        let workload = UniformKeys::for_height(h, 42).take_vec(60_000);
        let sizes = [1u64, 2, 16, 64];
        let observed = observed_block_transitions(&tree, &workload, &sizes);
        let mat = layout.materialize(h);
        let analytic = block_transitions(h, mat.edge_lengths(), EdgeWeights::Exact, &sizes);
        for ((o, a), n) in observed.iter().zip(&analytic).zip(sizes) {
            assert!((o - a).abs() < 0.02, "N={n}: observed {o} vs analytic {a}");
        }
        // N = 1: every transition crosses a block boundary.
        assert!((observed[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scan_transitions_favor_in_order_and_batches_beat_points() {
        let h = 12;
        let keys: Vec<u64> = (1..=(1u64 << h) - 1).collect();
        let n = keys.len() as u64;
        let in_order = implicit(NamedLayout::InOrder, &keys);
        let minwep = implicit(NamedLayout::MinWep, &keys);
        let starts = cobtree_search::workload::scan_starts(n, 64, 200, 5);
        let sizes = [16u64];
        let scan_in_order = observed_scan_block_transitions(&in_order, &starts, 64, &sizes);
        let scan_minwep = observed_scan_block_transitions(&minwep, &starts, 64, &sizes);
        // Scans on IN-ORDER cross a 16-element block once per 16 steps.
        assert!(scan_in_order[0] < 0.1, "in-order {scan_in_order:?}");
        assert!(scan_in_order[0] < scan_minwep[0]);

        // Batched sorted probes skip the re-fetched root region, so the
        // per-transition block fraction stays finite and the *number* of
        // traced transitions shrinks versus independent searches.
        let batches = cobtree_search::workload::sorted_batches(n, 64, 30, 0.0, 11);
        let batched = observed_batch_block_transitions(&minwep, &batches, &sizes);
        assert!(batched[0] > 0.0 && batched[0] <= 1.0);
    }

    #[test]
    fn mean_length_positive_and_backend_independent() {
        let h = 8;
        let keys: Vec<u64> = (1..=(1u64 << h) - 1).collect();
        let workload = UniformKeys::for_height(h, 3).take_vec(5_000);
        let a = implicit(NamedLayout::PreVeb, &keys);
        let b = implicit(NamedLayout::PreVeb, &keys);
        let la = observed_mean_transition_length(&a, &workload);
        let lb = observed_mean_transition_length(&b, &workload);
        assert!(la > 0.0);
        assert_eq!(la, lb);
    }
}
