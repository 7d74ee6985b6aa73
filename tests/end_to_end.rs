//! Cross-crate integration tests: the paper's qualitative claims, checked
//! end-to-end through layouts → measures → search → cache simulation.

use cobtree::cachesim::presets;
use cobtree::core::{EdgeWeights, NamedLayout, Tree};
use cobtree::measures::{block_transitions, functionals};
use cobtree::search::trace::search_addresses;
use cobtree::search::workload::UniformKeys;
use cobtree::search::{ExplicitTree, SearchTree, Storage};

fn nu0(layout: NamedLayout, h: u32) -> f64 {
    let l = layout.materialize(h);
    functionals(h, l.edge_lengths(), EdgeWeights::Approximate).nu0
}

#[test]
fn headline_nu0_ordering_holds_at_scale() {
    // Fig 2/4 top-left: MINWEP <= HALFWEP < IN-VEBA <= IN-VEB < PRE-VEBA
    // < PRE-VEB, and the breadth-first layouts trail far behind.
    for h in [12u32, 16, 20] {
        let minwep = nu0(NamedLayout::MinWep, h);
        let halfwep = nu0(NamedLayout::HalfWep, h);
        let in_veba = nu0(NamedLayout::InVebA, h);
        let in_veb = nu0(NamedLayout::InVeb, h);
        let pre_veba = nu0(NamedLayout::PreVebA, h);
        let pre_veb = nu0(NamedLayout::PreVeb, h);
        let pre_breadth = nu0(NamedLayout::PreBreadth, h);
        assert!(minwep <= halfwep + 1e-9, "h={h}");
        assert!(halfwep < in_veba, "h={h}");
        assert!(in_veba <= in_veb + 1e-9, "h={h}");
        assert!(in_veb < pre_veba, "h={h}");
        assert!(pre_veba < pre_veb, "h={h}");
        assert!(pre_veb < pre_breadth, "h={h}");
    }
}

#[test]
fn minwep_improvement_over_pre_veb_is_substantial() {
    // The paper reports ~20% better search times; the locality measure
    // gap that drives it grows with height (ν0 ratio ≥ 1.3 by h = 16).
    for h in [16u32, 20] {
        let ratio = nu0(NamedLayout::PreVeb, h) / nu0(NamedLayout::MinWep, h);
        assert!(ratio > 1.3, "h={h}: ratio {ratio}");
    }
}

#[test]
fn in_veb_dominates_pre_veb_for_every_block_size() {
    // Figure 1's central observation.
    let h = 16;
    let pre = NamedLayout::PreVeb.materialize(h);
    let inn = NamedLayout::InVeb.materialize(h);
    let sizes: Vec<u64> = (0..=h).map(|k| 1u64 << k).collect();
    let bp = block_transitions(h, pre.edge_lengths(), EdgeWeights::Approximate, &sizes);
    let bi = block_transitions(h, inn.edge_lengths(), EdgeWeights::Approximate, &sizes);
    for (k, (i, p)) in bi.iter().zip(&bp).enumerate() {
        assert!(i <= p, "N=2^{k}");
    }
}

#[test]
fn alternation_keeps_nu1_and_reduces_nu0() {
    // §IV-A: "alternating a particular layout has no effect on ν1", but
    // reduces ν0 and may increase µ∞.
    for h in 4..=14u32 {
        for (plain, alt) in [
            (NamedLayout::PreVeb, NamedLayout::PreVebA),
            (NamedLayout::InVeb, NamedLayout::InVebA),
        ] {
            let p = plain.materialize(h);
            let a = alt.materialize(h);
            let fp = functionals(h, p.edge_lengths(), EdgeWeights::Approximate);
            let fa = functionals(h, a.edge_lengths(), EdgeWeights::Approximate);
            assert!((fp.nu1 - fa.nu1).abs() < 1e-9, "{plain} h={h}: nu1 changed");
            assert!(fa.nu0 <= fp.nu0 + 1e-9, "{plain} h={h}: nu0 grew");
            assert!(fa.mu_inf >= fp.mu_inf, "{plain} h={h}: mu_inf shrank");
        }
    }
}

#[test]
fn bender_never_beats_pre_veb_and_ties_at_power_of_two_heights() {
    // §IV-D: BENDER equals PRE-VEB at power-of-two heights and is
    // otherwise no better, sometimes ~20% worse. (At a few heights, e.g.
    // h = 7, the two cut rules coincide on every subtree and the layouts
    // tie exactly.)
    let mut strictly_worse = 0;
    for h in 4..=17u32 {
        let b = nu0(NamedLayout::Bender, h);
        let p = nu0(NamedLayout::PreVeb, h);
        assert!(b >= p - 1e-12, "h={h}: BENDER beat PRE-VEB");
        if h.is_power_of_two() {
            assert!((b - p).abs() < 1e-12, "h={h}");
        } else if b > p + 1e-9 {
            strictly_worse += 1;
        }
    }
    assert!(
        strictly_worse >= 6,
        "BENDER should lag at most non-pow2 heights"
    );
}

#[test]
fn explicit_implicit_and_oracle_agree() {
    let h = 10;
    let tree = Tree::new(h);
    for layout in [
        NamedLayout::MinWep,
        NamedLayout::HalfWep,
        NamedLayout::Bender,
    ] {
        let mat = layout.materialize(h);
        let keys: Vec<u64> = (1..=tree.len()).map(|k| k * 7 + 3).collect();
        let et = ExplicitTree::build(&mat, &keys);
        let it = SearchTree::builder()
            .layout(layout)
            .storage(Storage::Implicit)
            .keys(keys.iter().copied())
            .build()
            .unwrap();
        let set: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        for probe in (0..=keys.len() as u64 * 7 + 10).step_by(3) {
            let expect = set.contains(&probe);
            assert_eq!(
                et.search(probe).is_some(),
                expect,
                "{layout} explicit {probe}"
            );
            assert_eq!(
                it.search(probe).is_some(),
                expect,
                "{layout} implicit {probe}"
            );
        }
    }
}

#[test]
fn search_trace_edges_match_layout_edge_lengths() {
    // The address trace of a root-to-leaf search steps across exactly the
    // layout's path edges.
    let h = 8;
    let layout = NamedLayout::MinWep;
    let mat = layout.materialize(h);
    let idx = layout.indexer(h);
    let tree = Tree::new(h);
    for key in [1u64, 77, 200, 255] {
        let mut positions = Vec::new();
        search_addresses(idx.as_ref(), 1, 0, [key], |a| positions.push(a));
        let path = tree.search_path(key);
        assert_eq!(positions.len(), path.len());
        for (w, pair) in path.windows(2).enumerate() {
            // The indexer may be an automorphic image of the engine
            // layout, so compare against the indexer's own edge length;
            // per-depth length multisets agree with `mat` (tested in
            // cobtree-measures::stream).
            let expect = idx
                .position(pair[1], tree.depth(pair[1]))
                .abs_diff(idx.position(pair[0], tree.depth(pair[0])));
            let got = positions[w + 1].abs_diff(positions[w]);
            assert_eq!(got, expect, "key {key} step {w}");
            assert!(got >= 1 && got <= mat.len());
        }
    }
}

#[test]
fn simulated_l1_misses_follow_the_nu0_ordering() {
    // Figure 2 bottom-right, end to end: MINWEP < IN-VEB < PRE-VEB on
    // simulated L1 misses for identical workloads.
    let h = 16;
    let keys = UniformKeys::for_height(h, 5).take_vec(50_000);
    let mut rates = Vec::new();
    for layout in [NamedLayout::MinWep, NamedLayout::InVeb, NamedLayout::PreVeb] {
        let idx = layout.indexer(h);
        let mut sim = presets::westmere_l1_l2();
        search_addresses(idx.as_ref(), 4, 0, keys.iter().copied(), |a| {
            sim.access(a);
        });
        rates.push(sim.global_miss_rate(0));
    }
    assert!(
        rates[0] < rates[1],
        "MINWEP {} !< IN-VEB {}",
        rates[0],
        rates[1]
    );
    assert!(
        rates[1] < rates[2],
        "IN-VEB {} !< PRE-VEB {}",
        rates[1],
        rates[2]
    );
}

#[test]
fn minwep_beats_pre_veb_on_both_cache_levels() {
    // Figure 2 bottom-right: MINWEP's miss rates sit well below
    // PRE-VEB's at both simulated levels (the paper's stronger
    // "MINWEP L1 < PRE-VEB L2" crossing depends on valgrind's last-level
    // model and is documented, not asserted, in EXPERIMENTS.md).
    let h = 20;
    let keys = UniformKeys::for_height(h, 6).take_vec(50_000);
    let run = |layout: NamedLayout| {
        let idx = layout.indexer(h);
        let mut sim = presets::westmere_l1_l2();
        search_addresses(idx.as_ref(), 4, 0, keys.iter().copied(), |a| {
            sim.access(a);
        });
        (sim.global_miss_rate(0), sim.global_miss_rate(1))
    };
    let (minwep_l1, minwep_l2) = run(NamedLayout::MinWep);
    let (pre_veb_l1, pre_veb_l2) = run(NamedLayout::PreVeb);
    assert!(
        minwep_l1 < pre_veb_l1 * 0.85,
        "L1: MINWEP {minwep_l1} vs PRE-VEB {pre_veb_l1}"
    );
    assert!(
        minwep_l2 < pre_veb_l2 * 0.85,
        "L2: MINWEP {minwep_l2} vs PRE-VEB {pre_veb_l2}"
    );
}
