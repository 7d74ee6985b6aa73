//! Compiled descent plans: per-layout position arithmetic, flattened
//! into a form a search loop can evaluate with **zero virtual calls**.
//!
//! A [`PositionIndex`](crate::index::PositionIndex) answers `position(node, depth)` behind a vtable —
//! fine for building trees, but a point lookup pays that indirect call
//! once per level. A [`StepPlan`] is built once per tree and precomputes
//! whatever the layout allows:
//!
//! * [`StepPlan::Terms`] — per-depth **closed-form coefficients**: at
//!   depth `d` the position is `base_d + Σ_k ((node >> s_k) & m_k) · c_k`,
//!   a handful of shift/mask/multiply terms with no branches at all.
//!   This covers the seven layouts whose position arithmetic has
//!   depth-determined control flow: BFS and IN-ORDER (one term),
//!   IN-BREADTH (two terms), PRE-ORDER (`d` one-bit terms), and the
//!   non-alternating vEB family PRE-VEB / BENDER / IN-VEB (one or two
//!   terms per cut crossed — the descent loops of
//!   [`super::veb`] unrolled per depth at plan-build time);
//! * [`StepPlan::Wep`] / [`StepPlan::MinWla`] — static dispatch to the
//!   Listing-1 translation ([`super::wep::wep_index`]) and the MINWLA
//!   closed form. Their control flow is data-dependent, so they cannot
//!   be flattened to terms, but the call is direct and inlinable;
//! * [`StepPlan::Table`] — a flat `u32` position table indexed by BFS
//!   node, for materialized layouts and for layouts whose arithmetic is
//!   expensive enough that one predictable load wins (the WEP family
//!   served from an in-memory backend, the alternating vEB variants,
//!   HALFWEP). BFS order makes the top of the table hot: the first
//!   `2^k − 1` entries serve every query's first `k` levels.
//!
//! Layouts with none of the above (the generic spec interpreter) simply
//! return `None` from
//! [`PositionIndex::compile_plan`](crate::index::PositionIndex::compile_plan)
//! and keep their
//! virtual dispatch — the descent kernels in `cobtree-search` accept
//! either.
//!
//! Plans are **bit-identical** to the indexers they compile: every
//! constructor in this module is pinned against the corresponding
//! `PositionIndex` over all nodes in the tests below, and the search
//! kernels built on plans are pinned against the slow descent paths in
//! `cobtree-search`.

use crate::named::NamedLayout;
use crate::spec::CutRule;
use crate::tree::{NodeId, Tree};

/// One `((node >> shift) & mask) * stride` term of a per-depth closed
/// form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskTerm {
    /// Right shift applied to the BFS node index.
    pub shift: u32,
    /// Mask applied after the shift.
    pub mask: u64,
    /// Multiplier applied to the masked value.
    pub stride: u64,
}

/// The closed form for one depth: `base + Σ terms(node)` (wrapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelPlan {
    /// Wrapping additive constant (negative offsets are encoded as
    /// two's-complement `u64`).
    pub base: u64,
    /// Masked multiply-add terms, evaluated left to right.
    pub terms: Vec<MaskTerm>,
}

impl LevelPlan {
    /// Evaluates the closed form for `node` (which must lie on this
    /// level).
    #[inline]
    #[must_use]
    pub fn eval(&self, node: NodeId) -> u64 {
        let mut p = self.base;
        for t in &self.terms {
            p = p.wrapping_add(((node >> t.shift) & t.mask).wrapping_mul(t.stride));
        }
        p
    }
}

/// A compiled, devirtualized position computation for one layout at one
/// height. See the module docs for which layouts compile to what.
pub enum StepPlan {
    /// Per-depth closed-form coefficients (`levels[d]` serves depth `d`).
    Terms {
        /// Tree height the plan serves.
        height: u32,
        /// One closed form per depth.
        levels: Vec<LevelPlan>,
    },
    /// Direct (static) call to the Listing-1 WEP translation with the
    /// given `partition()` cut.
    Wep {
        /// Tree height the plan serves.
        height: u32,
        /// The pre-order cut rule (`partition()` of Listing 1).
        partition: fn(u32) -> u32,
    },
    /// Direct (static) call to the MINWLA closed form.
    MinWla {
        /// Tree height the plan serves.
        height: u32,
    },
    /// Flat position table indexed by `node − 1` (BFS order).
    Table {
        /// Tree height the plan serves.
        height: u32,
        /// `positions[node − 1]` is the layout position of `node`.
        positions: Vec<u32>,
    },
}

impl StepPlan {
    /// Tree height this plan serves.
    #[must_use]
    pub fn height(&self) -> u32 {
        match self {
            StepPlan::Terms { height, .. }
            | StepPlan::Wep { height, .. }
            | StepPlan::MinWla { height }
            | StepPlan::Table { height, .. } => *height,
        }
    }

    /// Layout position of `node` at `depth` — the devirtualized
    /// equivalent of
    /// [`PositionIndex::position`](crate::index::PositionIndex::position).
    #[inline]
    #[must_use]
    pub fn position(&self, node: NodeId, depth: u32) -> u64 {
        match self {
            StepPlan::Terms { levels, .. } => levels[depth as usize].eval(node),
            StepPlan::Wep { height, partition } => {
                super::wep::wep_index(*partition, node, depth, *height) - 1
            }
            StepPlan::MinWla { height } => super::wep::minwla_position(*height, node, depth),
            StepPlan::Table { positions, .. } => u64::from(positions[(node - 1) as usize]),
        }
    }

    /// `true` when evaluating a level costs O(terms) straight-line
    /// arithmetic or one table load — cheap enough that the search
    /// kernels compute *extra* positions to prefetch both children a
    /// level ahead. `Wep`/`MinWla` positions cost a whole O(h) loop, so
    /// kernels skip the speculative child computations there.
    #[must_use]
    pub fn prefetch_is_cheap(&self) -> bool {
        matches!(self, StepPlan::Terms { .. } | StepPlan::Table { .. })
    }

    /// Builds a [`StepPlan::Table`] from positions already computed by a
    /// tree constructor (`positions[node − 1]`, BFS order) — the "free"
    /// path: backends that iterate all nodes at build time anyway record
    /// the table as they go.
    #[must_use]
    pub fn from_positions(height: u32, positions: Vec<u32>) -> StepPlan {
        debug_assert_eq!(positions.len() as u64, Tree::new(height).len());
        StepPlan::Table { height, positions }
    }
}

impl std::fmt::Debug for StepPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepPlan::Terms { height, levels } => f
                .debug_struct("StepPlan::Terms")
                .field("height", height)
                .field(
                    "terms",
                    &levels.iter().map(|l| l.terms.len()).sum::<usize>(),
                )
                .finish(),
            StepPlan::Wep { height, .. } => f
                .debug_struct("StepPlan::Wep")
                .field("height", height)
                .finish(),
            StepPlan::MinWla { height } => f
                .debug_struct("StepPlan::MinWla")
                .field("height", height)
                .finish(),
            StepPlan::Table { height, positions } => f
                .debug_struct("StepPlan::Table")
                .field("height", height)
                .field("len", &positions.len())
                .finish(),
        }
    }
}

// ---------------------------------------------------------------------------
// Closed-form compilation, one constructor per layout family
// ---------------------------------------------------------------------------

/// All-ones mask for full-width terms.
const FULL: u64 = u64::MAX;

/// PRE-BREADTH: `pos = node − 1` at every depth.
#[must_use]
pub fn compile_bfs(height: u32) -> StepPlan {
    let levels = (0..height)
        .map(|_| LevelPlan {
            base: 0u64.wrapping_sub(1),
            terms: vec![MaskTerm {
                shift: 0,
                mask: FULL,
                stride: 1,
            }],
        })
        .collect();
    StepPlan::Terms { height, levels }
}

/// IN-ORDER: `pos = (node − 2^d)·span + span/2 − 1` with
/// `span = 2^{h−d}`, affine in `node` per depth.
#[must_use]
pub fn compile_in_order(height: u32) -> StepPlan {
    let levels = (0..height)
        .map(|d| {
            let span = 1u64 << (height - d);
            LevelPlan {
                base: (span / 2 - 1).wrapping_sub((1u64 << d).wrapping_mul(span)),
                terms: vec![MaskTerm {
                    shift: 0,
                    mask: FULL,
                    stride: span,
                }],
            }
        })
        .collect();
    StepPlan::Terms { height, levels }
}

/// IN-BREADTH: level-rank plus a one-bit flank correction (the first
/// descent direction decides left/right half of the level).
#[must_use]
pub fn compile_in_breadth(height: u32) -> StepPlan {
    let levels = (0..height)
        .map(|d| {
            if d == 0 {
                LevelPlan {
                    base: (1u64 << (height - 1)) - 1,
                    terms: Vec::new(),
                }
            } else {
                LevelPlan {
                    base: (1u64 << (height - 1)).wrapping_sub(1u64 << d),
                    terms: vec![
                        // level rank j = node & (2^d − 1)
                        MaskTerm {
                            shift: 0,
                            mask: (1u64 << d) - 1,
                            stride: 1,
                        },
                        // right flank: + (2^d − 1)
                        MaskTerm {
                            shift: d - 1,
                            mask: 1,
                            stride: (1u64 << d) - 1,
                        },
                    ],
                }
            }
        })
        .collect();
    StepPlan::Terms { height, levels }
}

/// PRE-ORDER: depth plus one one-bit term per path step (each right
/// turn skips a whole left-sibling subtree).
#[must_use]
pub fn compile_pre_order(height: u32) -> StepPlan {
    let levels = (0..height)
        .map(|d| LevelPlan {
            base: u64::from(d),
            terms: (0..d)
                .map(|j| MaskTerm {
                    shift: d - 1 - j,
                    mask: 1,
                    stride: (1u64 << (height - 1 - j)) - 1,
                })
                .collect(),
        })
        .collect();
    StepPlan::Terms { height, levels }
}

/// PRE-VEB / BENDER: the [`super::veb::PreVebIndex`] descent loop
/// unrolled per depth. The loop's control flow depends only on
/// `(h, depth)`, so each target depth compiles to a fixed term list —
/// one term per cut crossed.
#[must_use]
pub fn compile_pre_veb(height: u32, cut: CutRule) -> StepPlan {
    let levels = (0..height)
        .map(|d| {
            let mut base = 0u64;
            let mut terms = Vec::new();
            let mut h = height;
            let mut dd = d;
            while dd > 0 {
                let g = cut.cut(h);
                if dd < g {
                    h = g;
                } else {
                    base += (1u64 << g) - 1;
                    terms.push(MaskTerm {
                        shift: dd - g,
                        mask: (1u64 << g) - 1,
                        stride: (1u64 << (h - g)) - 1,
                    });
                    h -= g;
                    dd -= g;
                }
            }
            LevelPlan { base, terms }
        })
        .collect();
    StepPlan::Terms { height, levels }
}

/// IN-VEB: the [`super::veb::InVebIndex`] loop unrolled per depth. The
/// in-order flank choice (`b < half`) becomes a branch-free one-bit
/// term: for `b ≥ half` the block offset is `b·s + (2^g − 1)`, i.e. the
/// top bit of `b` contributes a constant.
#[must_use]
pub fn compile_in_veb(height: u32) -> StepPlan {
    let levels = (0..height)
        .map(|d| {
            let mut base = 0u64;
            let mut terms = Vec::new();
            let mut h = height;
            let mut dd = d;
            while h > 1 {
                let g = h / 2;
                let s = (1u64 << (h - g)) - 1;
                let half = 1u64 << (g - 1);
                if dd < g {
                    base += half * s;
                    h = g;
                } else {
                    terms.push(MaskTerm {
                        shift: dd - g,
                        mask: (1u64 << g) - 1,
                        stride: s,
                    });
                    terms.push(MaskTerm {
                        shift: dd - 1,
                        mask: 1,
                        stride: (1u64 << g) - 1,
                    });
                    h -= g;
                    dd -= g;
                }
            }
            LevelPlan { base, terms }
        })
        .collect();
    StepPlan::Terms { height, levels }
}

impl NamedLayout {
    /// Compiles the fastest available [`StepPlan`] for this layout, or
    /// `None` for the layouts served by the generic spec interpreter
    /// (the alternating vEB variants and HALFWEP), whose position
    /// computation has data-dependent recursion that neither flattens
    /// to terms nor dispatches statically. Callers wanting a plan for
    /// those layouts record a [`StepPlan::Table`] instead (see
    /// [`crate::index::rank_positions`]).
    #[must_use]
    pub fn compile_plan(&self, height: u32) -> Option<StepPlan> {
        use super::wep::{partition_minep, partition_minwep};
        match self {
            NamedLayout::PreBreadth => Some(compile_bfs(height)),
            NamedLayout::InOrder => Some(compile_in_order(height)),
            NamedLayout::InBreadth => Some(compile_in_breadth(height)),
            NamedLayout::PreOrder => Some(compile_pre_order(height)),
            NamedLayout::PreVeb => Some(compile_pre_veb(height, CutRule::Half)),
            NamedLayout::Bender => Some(compile_pre_veb(height, CutRule::Bender)),
            NamedLayout::InVeb => Some(compile_in_veb(height)),
            NamedLayout::MinWep => Some(StepPlan::Wep {
                height,
                partition: partition_minwep,
            }),
            NamedLayout::MinEp => Some(StepPlan::Wep {
                height,
                partition: partition_minep,
            }),
            NamedLayout::MinWla => Some(StepPlan::MinWla { height }),
            NamedLayout::PreVebA | NamedLayout::InVebA | NamedLayout::HalfWep => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_plan_matches_indexer(layout: NamedLayout, h: u32) {
        let idx = layout.indexer(h);
        let Some(plan) = layout.compile_plan(h) else {
            return;
        };
        let tree = Tree::new(h);
        assert_eq!(plan.height(), h);
        for i in tree.nodes() {
            let d = tree.depth(i);
            assert_eq!(
                plan.position(i, d),
                idx.position(i, d),
                "{layout} h={h} node {i}"
            );
        }
    }

    #[test]
    fn compiled_plans_match_their_indexers_exactly() {
        for layout in NamedLayout::ALL {
            for h in 1..=12 {
                assert_plan_matches_indexer(layout, h);
            }
        }
    }

    #[test]
    fn compiled_plans_match_at_moderate_height() {
        for layout in [
            NamedLayout::MinWep,
            NamedLayout::PreVeb,
            NamedLayout::InVeb,
            NamedLayout::Bender,
            NamedLayout::InBreadth,
            NamedLayout::PreOrder,
        ] {
            assert_plan_matches_indexer(layout, 16);
        }
    }

    #[test]
    fn table_plan_reproduces_any_indexer() {
        for layout in [
            NamedLayout::HalfWep,
            NamedLayout::PreVebA,
            NamedLayout::InVebA,
        ] {
            let h = 9;
            let idx = layout.indexer(h);
            let mut by_node = Vec::new();
            crate::index::rank_positions(idx.as_ref(), Some(&mut by_node)).expect("h <= 31");
            let plan = StepPlan::from_positions(h, by_node);
            let tree = Tree::new(h);
            for i in tree.nodes() {
                let d = tree.depth(i);
                assert_eq!(plan.position(i, d), idx.position(i, d), "{layout} node {i}");
            }
        }
    }

    #[test]
    fn which_layouts_compile_is_pinned() {
        // The generic-interpreter layouts are the only ones without a
        // compiled plan; everything else must devirtualize.
        for layout in NamedLayout::ALL {
            let compiled = layout.compile_plan(8).is_some();
            let expect = !matches!(
                layout,
                NamedLayout::PreVebA | NamedLayout::InVebA | NamedLayout::HalfWep
            );
            assert_eq!(compiled, expect, "{layout}");
        }
    }

    #[test]
    fn prefetch_cheapness_is_pinned_per_variant() {
        assert!(compile_bfs(6).prefetch_is_cheap());
        assert!(StepPlan::from_positions(3, vec![0, 1, 2, 3, 4, 5, 6]).prefetch_is_cheap());
        assert!(!NamedLayout::MinWep
            .compile_plan(6)
            .unwrap()
            .prefetch_is_cheap());
        assert!(!NamedLayout::MinWla
            .compile_plan(6)
            .unwrap()
            .prefetch_is_cheap());
    }

    #[test]
    fn debug_formats_do_not_explode() {
        let s = format!("{:?}", NamedLayout::PreVeb.compile_plan(10).unwrap());
        assert!(s.contains("Terms"));
        let s = format!("{:?}", NamedLayout::MinWep.compile_plan(10).unwrap());
        assert!(s.contains("Wep"));
    }
}
