//! # cobtree-search
//!
//! Search-tree substrate: the data structures whose wall-clock behaviour
//! the paper measures (§II-B, §IV-D/E/F), unified behind one facade.
//!
//! * [`facade`] — **start here**: [`SearchTree`] builds any layout ×
//!   storage combination from a plain sorted key set
//!   (`SearchTree::builder().layout(..).storage(..).keys(..).build()`),
//!   padding to the next complete tree internally;
//! * [`backend`] — the [`SearchBackend`] trait every storage kind
//!   implements: point search *plus* the full ordered-index surface
//!   (`lower_bound`/`upper_bound`, `rank`/`select`, sorted-batch search
//!   with shared-prefix restarts), so harnesses iterate backends
//!   generically;
//! * [`cursor`] — lending [`cursor::Cursor`] (seek/next/prev) and
//!   [`cursor::Range`] iterators over any backend, built on the
//!   position ⇄ in-order-rank contract;
//! * [`explicit`] — *pointer-based* trees: each node stores its key and
//!   two child positions, laid out in an arbitrary layout order; a search
//!   follows positions with no index arithmetic (Figure 2 / Figure 4
//!   "explicit search time");
//! * [`mapped`] — *pointer-less* trees as one key plane: a `.cobt`
//!   image (`docs/FORMAT.md`) whose key region holds the keys in layout
//!   order, every transition recomputing the child's position (Figure 4
//!   "implicit search"). [`MappedTree`] serves `Storage::Implicit`
//!   trees — images the builder scatters into an owned buffer, keeping
//!   the position table its build pass records as the descent plan —
//!   and `Storage::Mapped` trees opened zero-copy from saved files
//!   (`SearchTree::write_file`/`open`); the two differ only in where
//!   the bytes live and whether a table plan is kept;
//! * [`index_only`] — keys in plain sorted order, layout positions
//!   computed on demand (the §IV-E discipline generalized to arbitrary
//!   keys), plus [`IndexOnlySearcher`], the memory-access-free variant
//!   used to time pure index computation (keys `1..=n` inferred from
//!   the BFS index, §IV-E footnote 1);
//! * [`kernel`] — the *compiled descent kernels* every backend's hot
//!   path dispatches into: devirtualized per-layout
//!   [`cobtree_core::index::StepPlan`]s, branch-free descent with the
//!   equality check hoisted out of the loop, software prefetch of both
//!   candidate children, and an interleaved multi-query kernel that
//!   keeps up to 16 lookups in flight (the original per-level loops
//!   remain as `search_reference`, the verification oracle);
//! * [`adaptive`] — the *adaptive serving engine*:
//!   [`adaptive::AdaptiveForest`] wraps a forest behind an atomically
//!   swappable handle so the traffic-adaptive layout loop can publish
//!   re-optimized shards (validated to serve the identical key set)
//!   while readers keep pinned snapshots — plus built-for profile
//!   bookkeeping and `.cobw` sidecar persistence;
//! * [`forest`] — the *serving engine*: [`forest::Forest`]
//!   range-partitions a key set across N per-shard `SearchTree`s behind
//!   a fence router, answers the global ordered surface (rank/select,
//!   stitched cursors/ranges, split-and-dispatch sorted batches), fans
//!   reads out over scoped threads (`par_search_batch`/`par_range`),
//!   and saves/opens as one `.cobt` file per shard plus a manifest;
//! * [`tiered`] — the *write path*: [`TieredForest`] layers an
//!   LSM-style memtable (sorted inserts + tombstones) over an immutable
//!   `Forest` base, keeps the full ordered surface rank-correct across
//!   tiers, and compacts in the background into fresh `.cobt` shards
//!   published by atomic epoch-versioned manifest swap;
//! * [`map`] — [`LayoutMap`], a minimal dynamic ordered-set facade over
//!   a single-shard in-memory [`TieredForest`];
//! * [`workload`] — reproducible workloads: uniform random keys (the
//!   paper's 10 M random searches), the §II-A affinity-graph random walk,
//!   and skewed variants for extensions;
//! * [`trace`] — position/address trace collection for the cache
//!   simulator, from bare indexers or whole backends.

pub mod adaptive;
pub mod backend;
pub mod cursor;
pub mod explicit;
pub mod facade;
pub mod forest;
pub mod index_only;
pub mod kernel;
pub mod map;
pub mod mapped;
pub(crate) mod slot;
pub mod tiered;
pub mod trace;
pub mod workload;

pub use adaptive::AdaptiveForest;
pub use backend::SearchBackend;
pub use cursor::{range_of, Cursor, Range};
pub use explicit::ExplicitTree;
pub use facade::{
    read_weight_sidecar, DescriptorKind, LayoutSource, SaveOptions, SearchTree, SearchTreeBuilder,
    Storage,
};
pub use forest::{
    Forest, ForestBuilder, ForestCursor, ForestHit, ForestRange, ScrubReport, ShardRouter,
};
pub use index_only::{IndexOnlySearcher, IndexOnlyTree};
pub use map::LayoutMap;
pub use mapped::MappedTree;
pub use tiered::{
    TierPlace, TieredBuilder, TieredConfig, TieredCursor, TieredForest, TieredHit, TieredRange,
    TieredSnapshot,
};
pub use workload::{UniformKeys, ZipfKeys, ZipfTable};
