//! The image backend: a [`SearchBackend`] served directly from the
//! bytes of a `.cobt` tree image — zero deserialization.
//!
//! This is the serving model the paper's layouts exist for: a
//! hierarchical layout is a *static artifact*, computed once, whose
//! payoff arrives when the byte order on the storage medium **is** the
//! layout order (Demaine et al. make the same point for external
//! memory). [`MappedTree`] navigates an image in the
//! [`cobtree_core::format`] container in place:
//!
//! * the descent reads keys straight out of the key region at
//!   `key_region + position × key_width`;
//! * positions come from the image's layout descriptor — rebuilt
//!   arithmetic indexer for named layouts, or little-endian `u32` reads
//!   from the index region for materialized ones;
//! * padding slots are detected arithmetically (in-order rank beyond
//!   the stored key count compares as `+∞`), so the image needs no
//!   sentinel values.
//!
//! It is the one key plane of the crate: `Storage::Mapped` trees serve
//! a saved file (memory-mapped, or read into an owned buffer), and
//! `Storage::Implicit` trees serve an image the builder scattered into
//! an owned buffer (`MappedTree::from_image`). The two differ only in
//! where the bytes live and in whether the node → position table of
//! the build pass is kept as the descent plan.
//!
//! Because the backend implements the full [`SearchBackend`] contract,
//! every cursor, range scan, rank/select query and sorted-batch search
//! from the ordered-map API works over an image verbatim — and visits
//! exactly the positions the other backends visit, so cache-replay
//! results and `search_batch_checksum`s are identical across storage.

use crate::backend::SearchBackend;
use crate::kernel::{self, FatPlane, MappedPlane, PosRef};
use cobtree_core::error::{Error, Result};
use cobtree_core::fat::{FatIndex, FatLayout};
use cobtree_core::format::{self, FixedKey, Geometry};
use cobtree_core::index::{PositionIndex, StepPlan};
use cobtree_core::{NamedLayout, Tree};
use std::marker::PhantomData;
use std::path::Path;

/// Where the file bytes live. Both variants are immutable for the
/// tree's lifetime.
enum Region {
    /// A buffer owned by this process (`read`/`from_bytes`).
    Owned(Vec<u8>),
    /// A read-only file mapping (`open`).
    Mapped(memmap2::Mmap),
}

impl Region {
    fn bytes(&self) -> &[u8] {
        match self {
            Region::Owned(v) => v,
            Region::Mapped(m) => m,
        }
    }
}

/// A search tree served from the raw bytes of a `.cobt` image.
///
/// Construction fully validates the container (magic, version,
/// checksums, shape, permutation) and then never copies: searches read
/// keys at `key_region + position × width` for exactly the nodes the
/// descent visits.
///
/// ```
/// use cobtree_search::{MappedTree, SaveOptions, SearchBackend, SearchTree, Storage};
/// use cobtree_core::NamedLayout;
///
/// let tree = SearchTree::builder()
///     .layout(NamedLayout::MinWep)
///     .storage(Storage::Implicit)
///     .keys((1..=100u64).map(|k| k * 3))
///     .build()?;
/// let mapped: MappedTree<u64> = MappedTree::from_bytes(tree.encode(&SaveOptions::new())?)?;
/// assert_eq!(mapped.key_count(), 100);
/// assert_eq!(mapped.search(30), tree.search(30)); // identical positions
/// assert_eq!(mapped.search(31), None);
/// # Ok::<(), cobtree_core::Error>(())
/// ```
pub struct MappedTree<K> {
    region: Region,
    geometry: Geometry,
    tree: Tree,
    /// `Some` for named-layout files (arithmetic positions); `None` for
    /// table files (positions read from the mapped index region).
    arithmetic: Option<Box<dyn PositionIndex>>,
    /// Compiled descent plan for named-layout files whose arithmetic
    /// compiles (see [`cobtree_core::index::StepPlan`]). Opened files
    /// never materialize a table — open stays zero-copy, and table
    /// files read positions from the index region instead; images
    /// built in memory keep the node → position table their build pass
    /// recorded ([`MappedTree::from_image`]).
    plan: Option<StepPlan>,
    /// The named layout, when the file carries one (drives re-save).
    named: Option<NamedLayout>,
    /// `Some` for fat-node files (header arity > 0): rank-of-key
    /// descent over whole mapped chunks instead of binary descent.
    fat_index: Option<FatIndex>,
    label: String,
    _keys: PhantomData<fn() -> K>,
}

/// Whether an image built in memory keeps the node → position table of
/// its build pass as its descent plan, given the layout's own compiled
/// `plan`: yes unless that plan is already cheap per level (closed-form
/// terms or a table). The WEP family's data-dependent loops and the
/// plan-less generic layouts run the interleaved kernel at about half
/// speed without one.
pub(crate) fn wants_table_plan(plan: Option<&StepPlan>) -> bool {
    !plan.is_some_and(StepPlan::prefetch_is_cheap)
}

impl<K: FixedKey> MappedTree<K> {
    /// Memory-maps `path` and validates it as a tree file of `K` keys.
    ///
    /// # Errors
    /// [`Error::Io`] on filesystem failures, [`Error::KeyTypeMismatch`]
    /// when the file stores a different key type, and every
    /// [`cobtree_core::format::parse`] error on malformed bytes.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::File::open(path).map_err(|e| Error::io(&e))?;
        // Safety contract (see the memmap2 shim): tree files are
        // written once and only read afterwards.
        let map = unsafe { memmap2::Mmap::map(&file) }.map_err(|e| Error::io(&e))?;
        Self::from_region(Region::Mapped(map))
    }

    /// Reads `path` into an owned buffer instead of mapping it — same
    /// validation, same behaviour, no page-cache sharing.
    ///
    /// # Errors
    /// As for [`MappedTree::open`].
    pub fn read(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| Error::io(&e))?;
        Self::from_bytes(bytes)
    }

    /// [`MappedTree::open`] through an explicit storage seam: real
    /// seams memory-map as usual, while fault schedules
    /// (`supports_mmap() == false`) load the file through `io.read`
    /// into owned memory so scripted read faults reach the validation
    /// path instead of being hidden by the page cache.
    ///
    /// # Errors
    /// As for [`MappedTree::open`].
    pub fn open_with_io(
        path: impl AsRef<Path>,
        io: &dyn cobtree_core::io::StorageIo,
    ) -> Result<Self> {
        if io.supports_mmap() {
            Self::open(path)
        } else {
            Self::from_bytes(io.read(path.as_ref())?)
        }
    }

    /// Serves a tree from an in-memory image (e.g. the output of
    /// `SearchTree::encode`, or bytes fetched from object
    /// storage).
    ///
    /// # Errors
    /// As for [`MappedTree::open`], minus the I/O cases.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        Self::from_region(Region::Owned(bytes))
    }

    /// Serves an image built in memory (`Storage::Implicit`), keeping
    /// `plan` — the node → position table its build pass recorded — in
    /// place of the descriptor's own plan. Files opened from disk stay
    /// zero-copy and never carry one.
    ///
    /// # Errors
    /// As for [`MappedTree::from_bytes`].
    pub(crate) fn from_image(bytes: Vec<u8>, plan: Option<StepPlan>) -> Result<Self> {
        let mut tree = Self::from_bytes(bytes)?;
        if plan.is_some() {
            tree.plan = plan;
        }
        Ok(tree)
    }

    fn from_region(region: Region) -> Result<Self> {
        let geometry = format::parse(region.bytes())?;
        format::expect_key_type::<K>(&geometry)?;
        let tree = Tree::try_new(geometry.height)?;
        let label = geometry.descriptor_str(region.bytes()).to_string();
        let (arithmetic, named, fat_index) = if geometry.arity > 0 {
            // `parse` already cross-checked the label against the
            // header arity, so this parse cannot fail on a valid file.
            let layout: FatLayout = label.parse()?;
            (
                None,
                None,
                Some(FatIndex::try_new(layout, geometry.height)?),
            )
        } else {
            match geometry.kind {
                format::DescriptorKind::Named => {
                    let layout: NamedLayout = label.parse()?;
                    (
                        Some(layout.try_indexer(geometry.height)?),
                        Some(layout),
                        None,
                    )
                }
                format::DescriptorKind::Table => (None, None, None),
            }
        };
        let plan = arithmetic.as_ref().and_then(|ix| ix.compile_plan());
        Ok(Self {
            region,
            geometry,
            tree,
            arithmetic,
            named,
            fat_index,
            plan,
            label,
            _keys: PhantomData,
        })
    }

    /// The descent plane the kernels run on: keys straight from the
    /// mapped key region, positions from the compiled plan (named
    /// layouts), the mapped `u32` index region (table files), or the
    /// virtual indexer (named layouts that do not compile).
    #[inline]
    fn plane(&self) -> MappedPlane<'_, K> {
        let file = self.region.bytes();
        let pos = match (&self.plan, &self.arithmetic) {
            (Some(plan), _) => PosRef::Plan(plan),
            (None, Some(ix)) => PosRef::Index(ix.as_ref()),
            (None, None) => {
                let (off, len) = self.geometry.index;
                PosRef::Raw32(&file[off..off + len])
            }
        };
        let (koff, klen) = self.geometry.keys;
        MappedPlane::new(
            &file[koff..koff + klen],
            pos,
            self.geometry.height,
            self.geometry.key_count,
        )
    }

    /// The fat descent plane, when the file stores a fat-node layout.
    #[inline]
    fn fat_plane(&self) -> Option<FatPlane<'_, K>> {
        self.fat_index.as_ref().map(|index| {
            FatPlane::new(
                index,
                self.geometry.key_bytes(self.region.bytes()),
                self.geometry.key_count,
            )
        })
    }

    /// Tree height `h` of the (padded) complete tree.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.geometry.height
    }

    /// Number of stored (real) keys.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.geometry.key_count
    }

    /// `false`; files carry at least one key.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total slots including padding, `2^h − 1`.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.geometry.capacity()
    }

    /// The layout name or label stored in the file's descriptor.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The named layout, when the file's descriptor carries one.
    #[must_use]
    pub fn named_layout(&self) -> Option<NamedLayout> {
        self.named
    }

    /// The fat-node layout, when the file stores one (header arity > 0).
    #[must_use]
    pub fn fat_layout(&self) -> Option<FatLayout> {
        self.fat_index.as_ref().map(FatIndex::layout)
    }

    /// Block alignment the writer used.
    #[must_use]
    pub fn block_bytes(&self) -> u64 {
        self.geometry.block_bytes
    }

    /// Layout position of BFS `node` at `depth` — arithmetic for named
    /// and fat layouts, one mapped `u32` read for table files.
    #[inline]
    fn position(&self, node: u64, depth: u32) -> u64 {
        if let Some(fi) = &self.fat_index {
            return fi.position(node, depth);
        }
        match &self.arithmetic {
            Some(index) => index.position(node, depth),
            None => self.geometry.table_position(self.region.bytes(), node),
        }
    }

    /// Key stored at layout position `pos` (must not be a padding slot).
    #[inline]
    fn key_at_position(&self, pos: u64) -> K {
        self.geometry.key_at_position::<K>(self.region.bytes(), pos)
    }

    /// Searches for `key`, reading one mapped key per visited node (one
    /// mapped chunk per fat level for fat files); returns the layout
    /// position of the match.
    ///
    /// Runs on the compiled descent kernel (the rank-of-key fat kernel
    /// for fat files); bit-identical to
    /// [`MappedTree::search_reference`].
    #[inline]
    #[must_use]
    pub fn search(&self, key: K) -> Option<u64> {
        match self.fat_plane() {
            Some(p) => kernel::fat_search(&p, key),
            None => kernel::search(&self.plane(), key),
        }
    }

    /// The pre-kernel descent, kept as the verification oracle.
    #[inline]
    #[must_use]
    pub fn search_reference(&self, key: K) -> Option<u64> {
        let h = self.tree.height();
        let n = self.geometry.key_count;
        let mut i = 1u64;
        let mut d = 0u32;
        loop {
            let p = self.position(i, d);
            // Padding slots (rank beyond the stored keys) compare as
            // +∞: descend left without touching the key bytes.
            let go_right = if self.tree.in_order_rank(i) > n {
                false
            } else {
                match key.cmp(&self.key_at_position(p)) {
                    std::cmp::Ordering::Equal => return Some(p),
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Greater => true,
                }
            };
            i = (i << 1) | u64::from(go_right);
            d += 1;
            if d >= h {
                return None;
            }
        }
    }

    /// [`MappedTree::search`], recording every visited layout position.
    /// Fat files record at **chunk granularity** (all slots of each
    /// entered chunk — a rank-of-key loads the whole chunk), matching
    /// the fat kernel's traces slot for slot.
    pub fn search_traced(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        let h = self.tree.height();
        let n = self.geometry.key_count;
        let stride = self.fat_index.as_ref().map(FatIndex::stride);
        let mut last_chunk = u64::MAX;
        let mut i = 1u64;
        let mut d = 0u32;
        loop {
            let p = self.position(i, d);
            match stride {
                None => visited.push(p),
                Some(s) => {
                    let chunk = p / s;
                    if chunk != last_chunk {
                        let base = chunk * s;
                        for off in 0..s {
                            visited.push(base + off);
                        }
                        last_chunk = chunk;
                    }
                }
            }
            let go_right = if self.tree.in_order_rank(i) > n {
                false
            } else {
                match key.cmp(&self.key_at_position(p)) {
                    std::cmp::Ordering::Equal => return Some(p),
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Greater => true,
                }
            };
            i = (i << 1) | u64::from(go_right);
            d += 1;
            if d >= h {
                return None;
            }
        }
    }
}

impl<K> MappedTree<K> {
    /// Total size of the backing file image in bytes.
    #[must_use]
    pub fn file_len(&self) -> u64 {
        self.region.bytes().len() as u64
    }

    /// Byte offset of the key region inside the file — the `base` to
    /// hand a cache replay so simulated addresses equal real file
    /// offsets (the region is aligned to [`MappedTree::block_bytes`]).
    #[must_use]
    pub fn key_region_offset(&self) -> u64 {
        self.geometry.keys.0 as u64
    }

    /// `true` when the bytes come from a live `mmap` rather than an
    /// owned buffer.
    #[must_use]
    pub fn is_memory_mapped(&self) -> bool {
        matches!(self.region, Region::Mapped(_))
    }
}

impl<K: FixedKey> SearchBackend<K> for MappedTree<K> {
    fn height(&self) -> u32 {
        self.geometry.height
    }

    fn key_count(&self) -> u64 {
        self.geometry.key_count
    }

    fn search(&self, key: K) -> Option<u64> {
        MappedTree::search(self, key)
    }

    fn search_reference(&self, key: K) -> Option<u64> {
        MappedTree::search_reference(self, key)
    }

    fn search_traced(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        MappedTree::search_traced(self, key, visited)
    }

    fn search_traced_kernel(&self, key: K, visited: &mut Vec<u64>) -> Option<u64> {
        match self.fat_plane() {
            Some(p) => kernel::fat_search_traced(&p, key, visited),
            None => kernel::search_traced(&self.plane(), key, visited),
        }
    }

    fn search_batch_interleaved(&self, keys: &[K], width: usize, out: &mut Vec<Option<u64>>) {
        match self.fat_plane() {
            Some(p) => kernel::fat_search_batch_interleaved(&p, keys, width, out),
            None => kernel::search_batch_interleaved(&self.plane(), keys, width, out),
        }
    }

    fn search_batch_checksum(&self, keys: &[K]) -> u64 {
        match self.fat_plane() {
            Some(p) => kernel::fat_batch_checksum(&p, keys, kernel::DEFAULT_LANES),
            None => kernel::batch_checksum(&self.plane(), keys, kernel::DEFAULT_LANES),
        }
    }

    fn lower_bound_rank(&self, key: K) -> u64 {
        match self.fat_plane() {
            Some(p) => kernel::fat_bound_rank::<_, false>(&p, key),
            None => kernel::bound_rank::<_, false>(&self.plane(), key),
        }
    }

    fn upper_bound_rank(&self, key: K) -> u64 {
        match self.fat_plane() {
            Some(p) => kernel::fat_bound_rank::<_, true>(&p, key),
            None => kernel::bound_rank::<_, true>(&self.plane(), key),
        }
    }

    fn key_at_rank(&self, rank: u64) -> Option<K> {
        (rank >= 1 && rank <= self.geometry.key_count).then(|| {
            let node = self.tree.node_at_in_order(rank);
            self.key_at_position(self.position(node, self.tree.depth(node)))
        })
    }

    fn position_of_rank(&self, rank: u64) -> Option<u64> {
        (rank >= 1 && rank <= self.tree.len()).then(|| {
            let node = self.tree.node_at_in_order(rank);
            self.position(node, self.tree.depth(node))
        })
    }

    fn key_region(&self) -> Option<&[u8]> {
        self.fat_index
            .is_none()
            .then(|| self.geometry.key_bytes(self.region.bytes()))
    }
}

impl<K> std::fmt::Debug for MappedTree<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedTree")
            .field("layout", &self.label)
            .field("height", &self.geometry.height)
            .field("len", &self.geometry.key_count)
            .field("file_len", &self.file_len())
            .field("mmap", &self.is_memory_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::{SaveOptions, SearchTree, Storage};
    use cobtree_core::io::ScratchDir;
    use cobtree_core::NamedLayout;

    fn build(layout: NamedLayout, n: u64) -> SearchTree<u64> {
        SearchTree::builder()
            .layout(layout)
            .storage(Storage::Implicit)
            .keys((1..=n).map(|k| k * 7))
            .build()
            .unwrap()
    }

    #[test]
    fn mapped_file_agrees_with_implicit_on_everything() {
        let source = build(NamedLayout::MinWep, 300);
        let dir = ScratchDir::new("mapped-agree");
        let path = dir.path().join("tree.cobt");
        source.write_file(&path, &SaveOptions::new()).unwrap();
        let mapped: MappedTree<u64> = MappedTree::open(&path).unwrap();
        assert!(mapped.is_memory_mapped());
        assert_eq!(mapped.len(), 300);
        assert_eq!(mapped.label(), "MINWEP");
        assert_eq!(mapped.named_layout(), Some(NamedLayout::MinWep));
        for probe in 0..=2200u64 {
            assert_eq!(mapped.search(probe), source.search(probe), "probe {probe}");
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for probe in [7u64, 1050, 2100, 9999] {
            a.clear();
            b.clear();
            assert_eq!(
                mapped.search_traced(probe, &mut a),
                source.search_traced(probe, &mut b)
            );
            assert_eq!(a, b, "trace for {probe}");
        }
    }

    #[test]
    fn read_and_open_validate_identically() {
        let source = build(NamedLayout::PreVeb, 64);
        let dir = ScratchDir::new("mapped-read");
        let path = dir.path().join("tree.cobt");
        source.write_file(&path, &SaveOptions::new()).unwrap();
        let via_read: MappedTree<u64> = MappedTree::read(&path).unwrap();
        assert!(!via_read.is_memory_mapped());
        let via_open: MappedTree<u64> = MappedTree::open(&path).unwrap();
        let probes: Vec<u64> = (0..500).collect();
        assert_eq!(
            via_read.search_batch_checksum(&probes),
            via_open.search_batch_checksum(&probes)
        );
    }

    #[test]
    fn missing_file_and_wrong_key_type_are_typed_errors() {
        let dir = ScratchDir::new("mapped-missing");
        assert!(matches!(
            MappedTree::<u64>::open(dir.path().join("nonexistent.cobt")).unwrap_err(),
            Error::Io { .. }
        ));
        let bytes = build(NamedLayout::InOrder, 20)
            .encode(&SaveOptions::new())
            .unwrap();
        assert_eq!(
            MappedTree::<u32>::from_bytes(bytes).unwrap_err(),
            Error::KeyTypeMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn table_descriptor_files_serve_without_an_indexer() {
        // A materialized-layout source round-trips through the table
        // descriptor kind: positions come from the mapped index region.
        let layout = NamedLayout::HalfWep.materialize(6);
        let tree = SearchTree::builder()
            .layout(layout)
            .storage(Storage::Implicit)
            .keys((1..=63u64).map(|k| k * 2))
            .build()
            .unwrap();
        let mapped: MappedTree<u64> =
            MappedTree::from_bytes(tree.encode(&SaveOptions::new()).unwrap()).unwrap();
        assert_eq!(mapped.named_layout(), None);
        for probe in 0..=130u64 {
            assert_eq!(mapped.search(probe), tree.search(probe), "probe {probe}");
        }
    }
}
