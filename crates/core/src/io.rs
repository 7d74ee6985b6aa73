//! The storage I/O seam: every durable byte the store writes or
//! re-reads goes through a [`StorageIo`] implementation.
//!
//! Two implementations exist:
//!
//! * [`RealIo`] — the production path. Its [`StorageIo::write_atomic`]
//!   is the full crash-safe discipline: write a temp file, `fsync` it,
//!   rename over the final path, then `fsync` the parent directory so
//!   the rename itself is durable. A crash at any point leaves either
//!   the old file or the new one at the live path — never a torn
//!   hybrid.
//! * [`FaultIo`] — the same operations with a deterministic, scripted
//!   fault schedule threaded through. Each operation kind keeps its
//!   own 1-based counter; a [`FaultRule`] fires when its operation's
//!   counter reaches `nth`, injecting the scripted [`FaultKind`]
//!   (failed or torn writes, fsync errors, ENOSPC, short reads,
//!   bit-flips). Every injection is appended to an event log whose
//!   rendering is byte-identical across runs of the same schedule —
//!   the chaos harness asserts exactly that.
//!
//! [`ScratchDir`] is the one scratch-directory helper the tests,
//! experiment drivers and tools share: a private directory that
//! removes itself on drop.
//!
//! The seam is deliberately coarse (whole-file write / read / remove)
//! because that is the store's actual access pattern: `.cobt` shard
//! files and `.cobf` manifests are written once, immutable afterwards,
//! and re-read wholesale by recovery and the scrubber.

use crate::error::{Error, Result};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The filesystem operations the store performs, each with its own
/// fault counter inside [`FaultIo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A whole-file write (the data phase of [`StorageIo::write_atomic`]).
    Write,
    /// An `fsync` — of the temp file or of the parent directory.
    Sync,
    /// The rename publishing a temp file at its final path.
    Rename,
    /// A whole-file read ([`StorageIo::read`]).
    Read,
}

impl IoOp {
    fn index(self) -> usize {
        match self {
            IoOp::Write => 0,
            IoOp::Sync => 1,
            IoOp::Rename => 2,
            IoOp::Read => 3,
        }
    }

    /// Stable lower-case label (used by the event log).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IoOp::Write => "write",
            IoOp::Sync => "sync",
            IoOp::Rename => "rename",
            IoOp::Read => "read",
        }
    }
}

/// What a matched [`FaultRule`] does to its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails cleanly: no bytes reach the target.
    Fail,
    /// A torn write: the first half of the bytes land **at the final
    /// path** (simulating a pre-atomic writer crashing mid-write, or a
    /// torn sector), then the write reports failure.
    Torn,
    /// The write fails with an out-of-space error.
    Enospc,
    /// The data lands but the `fsync` making it durable fails.
    FsyncFail,
    /// The read returns only the first `n` bytes.
    ShortRead(u64),
    /// The read succeeds but bit `offset % (len * 8)` of the returned
    /// bytes is flipped — a simulated media error the checksums must
    /// catch.
    BitFlip(u64),
}

impl FaultKind {
    fn describe(self) -> String {
        match self {
            FaultKind::Fail => "fail".to_string(),
            FaultKind::Torn => "torn".to_string(),
            FaultKind::Enospc => "enospc".to_string(),
            FaultKind::FsyncFail => "fsync-fail".to_string(),
            FaultKind::ShortRead(n) => format!("short-read:{n}"),
            FaultKind::BitFlip(off) => format!("bit-flip:{off}"),
        }
    }
}

/// One scripted fault: when operation `op`'s 1-based counter reaches
/// `nth`, inject `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Operation kind the rule watches.
    pub op: IoOp,
    /// 1-based occurrence that triggers the fault.
    pub nth: u64,
    /// The injected failure.
    pub kind: FaultKind,
}

/// One injected fault, as recorded in [`FaultIo`]'s event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Operation the fault hit.
    pub op: IoOp,
    /// The operation counter value when it hit.
    pub nth: u64,
    /// The injected failure.
    pub kind: FaultKind,
    /// File name (not the full path — paths differ across temp dirs,
    /// the schedule must not) the operation targeted.
    pub file: String,
}

/// The storage seam. All paths are absolute or caller-relative; every
/// method maps OS errors to [`Error::Io`].
pub trait StorageIo: Send + Sync + std::fmt::Debug {
    /// Durably replaces `path` with `bytes`: temp file → `sync_all` →
    /// rename → parent-directory fsync. After `Ok`, the bytes are on
    /// disk at `path` and survive a crash; after `Err`, the previous
    /// content of `path` is still intact (unless a scripted torn-write
    /// fault deliberately broke that contract).
    ///
    /// # Errors
    /// [`Error::Io`] on any step failing (or being failed).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()>;

    /// Reads the whole file at `path`.
    ///
    /// # Errors
    /// [`Error::Io`]; fault schedules may also return corrupted or
    /// truncated bytes *without* an error — checksums are the defense.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;

    /// Removes `path`; a missing file is not an error.
    ///
    /// # Errors
    /// [`Error::Io`] for anything but `NotFound`.
    fn remove(&self, path: &Path) -> Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Error::io(&e)),
        }
    }

    /// Creates `dir` and its parents.
    ///
    /// # Errors
    /// [`Error::Io`].
    fn create_dir_all(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(|e| Error::io(&e))
    }

    /// Whether files written through this seam may be served via
    /// `mmap`. Fault schedules answer `false` so reads route through
    /// [`StorageIo::read`] (where faults can be injected) instead of
    /// the page cache.
    fn supports_mmap(&self) -> bool {
        true
    }
}

/// The temp-file name `write_atomic` stages `path` under.
fn temp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".tmp");
    path.with_file_name(name)
}

/// `fsync` of `path`'s parent directory, making a rename in it durable.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    std::fs::File::open(parent)?.sync_all()
}

/// The production storage seam: real files, full crash-safe atomic
/// writes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl StorageIo for RealIo {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let run = || -> std::io::Result<()> {
            let tmp = temp_path(path);
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)?;
            sync_parent_dir(path)
        };
        run().map_err(|e| Error::io(&e))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        std::fs::read(path).map_err(|e| Error::io(&e))
    }
}

/// A directory under the system temp dir private to its owner and
/// removed, with everything in it, on drop.
///
/// The name joins the caller's tag, the process id and a process-wide
/// counter, so no two instances — in one process, across threads, or
/// across concurrently running test binaries — share a path.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh, empty directory named after `tag`.
    ///
    /// # Panics
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cobtree-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create scratch dir {}: {e}", dir.display()));
        Self(dir)
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Per-operation counters plus the pending rules and the event log.
#[derive(Debug, Default)]
struct FaultState {
    counts: [u64; 4],
    rules: Vec<FaultRule>,
    events: Vec<FaultEvent>,
}

impl FaultState {
    /// Bumps `op`'s counter and pops the first matching rule.
    fn check(&mut self, op: IoOp, path: &Path) -> Option<FaultKind> {
        self.counts[op.index()] += 1;
        let nth = self.counts[op.index()];
        let hit = self.rules.iter().position(|r| r.op == op && r.nth == nth)?;
        let rule = self.rules.remove(hit);
        self.events.push(FaultEvent {
            op,
            nth,
            kind: rule.kind,
            file: path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
        });
        Some(rule.kind)
    }
}

/// The deterministic fault-injecting storage seam. Built from an
/// explicit rule script ([`FaultIo::scripted`]) or from a seed that
/// expands into one ([`FaultIo::seeded`]); either way the injected
/// failure sequence is a pure function of the schedule and the
/// operation stream, and [`FaultIo::event_log`] renders it
/// byte-identically across runs.
#[derive(Debug)]
pub struct FaultIo {
    state: Mutex<FaultState>,
}

/// `splitmix64` — the tiny seeded generator behind [`FaultIo::seeded`]
/// (no external RNG dependency in `cobtree-core`).
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultIo {
    /// A fault seam with an explicit schedule. Rules are one-shot: each
    /// fires at most once, at its operation's `nth` occurrence.
    #[must_use]
    pub fn scripted(rules: impl Into<Vec<FaultRule>>) -> Self {
        FaultIo {
            state: Mutex::new(FaultState {
                rules: rules.into(),
                ..FaultState::default()
            }),
        }
    }

    /// A pass-through seam with no faults — behaves like [`RealIo`]
    /// except that reads never use `mmap` and every injection seam is
    /// armed (useful as a baseline in determinism tests).
    #[must_use]
    pub fn passthrough() -> Self {
        Self::scripted(Vec::new())
    }

    /// Expands `seed` into `faults` scripted rules over the first
    /// `horizon` occurrences of each operation — the seeded fuzzing
    /// constructor. The expansion is a pure function of the arguments,
    /// so the same seed always yields the same schedule and therefore
    /// the same injected failure sequence.
    #[must_use]
    pub fn seeded(seed: u64, faults: usize, horizon: u64) -> Self {
        let mut s = seed;
        let horizon = horizon.max(1);
        let rules = (0..faults)
            .map(|_| {
                let op = match splitmix64(&mut s) % 4 {
                    0 => IoOp::Write,
                    1 => IoOp::Sync,
                    2 => IoOp::Rename,
                    _ => IoOp::Read,
                };
                let nth = splitmix64(&mut s) % horizon + 1;
                let kind = match (op, splitmix64(&mut s) % 3) {
                    (IoOp::Write, 0) => FaultKind::Torn,
                    (IoOp::Write, 1) => FaultKind::Enospc,
                    (IoOp::Sync, _) => FaultKind::FsyncFail,
                    (IoOp::Read, 0) => FaultKind::ShortRead(splitmix64(&mut s) % 96),
                    (IoOp::Read, 1) => FaultKind::BitFlip(splitmix64(&mut s)),
                    _ => FaultKind::Fail,
                };
                FaultRule { op, nth, kind }
            })
            .collect::<Vec<_>>();
        Self::scripted(rules)
    }

    /// Every fault injected so far, in injection order.
    #[must_use]
    pub fn events(&self) -> Vec<FaultEvent> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .clone()
    }

    /// The canonical one-line-per-event rendering of the injected
    /// sequence — two runs of the same schedule over the same
    /// operation stream produce byte-identical logs.
    #[must_use]
    pub fn event_log(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let _ = writeln!(
                out,
                "{}#{} {} {}",
                e.op.label(),
                e.nth,
                e.kind.describe(),
                e.file
            );
        }
        out
    }

    /// Rules not yet fired (empty once the whole schedule has been
    /// driven through).
    #[must_use]
    pub fn pending_rules(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .rules
            .len()
    }

    /// How many `op` operations have gone through the seam so far —
    /// the value the *next* occurrence's 1-based `nth` exceeds by one.
    /// Lets a harness arm a rule for "the next read" without counting
    /// boot-time operations by hand.
    #[must_use]
    pub fn op_count(&self, op: IoOp) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).counts[op.index()]
    }

    /// Appends a rule to the live schedule; it fires exactly like a
    /// scripted one, at its operation's `nth` occurrence.
    pub fn add_rule(&self, rule: FaultRule) {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .rules
            .push(rule);
    }

    fn check(&self, op: IoOp, path: &Path) -> Option<FaultKind> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .check(op, path)
    }

    fn injected(kind: &str, path: &Path) -> Error {
        Error::Io {
            kind: format!("injected-{kind}"),
            detail: format!("fault schedule hit {}", path.display()),
        }
    }
}

impl StorageIo for FaultIo {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        match self.check(IoOp::Write, path) {
            Some(FaultKind::Fail) => return Err(Self::injected("write-fail", path)),
            Some(FaultKind::Enospc) => return Err(Self::injected("enospc", path)),
            Some(FaultKind::Torn) => {
                // The torn write lands at the FINAL path — simulating a
                // pre-atomic writer or torn sector the recovery scan
                // must survive.
                let _ = std::fs::write(path, &bytes[..bytes.len() / 2]);
                return Err(Self::injected("torn-write", path));
            }
            _ => {}
        }
        let tmp = temp_path(path);
        let stage = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()
        };
        stage().map_err(|e| Error::io(&e))?;
        if matches!(
            self.check(IoOp::Sync, path),
            Some(FaultKind::FsyncFail | FaultKind::Fail)
        ) {
            // Data staged but not durable: the temp file stays behind,
            // the final path is untouched.
            return Err(Self::injected("fsync-fail", path));
        }
        if self.check(IoOp::Rename, path).is_some() {
            return Err(Self::injected("rename-fail", path));
        }
        std::fs::rename(&tmp, path).map_err(|e| Error::io(&e))?;
        sync_parent_dir(path).map_err(|e| Error::io(&e))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let fault = self.check(IoOp::Read, path);
        if matches!(fault, Some(FaultKind::Fail)) {
            return Err(Self::injected("read-fail", path));
        }
        let mut bytes = std::fs::read(path).map_err(|e| Error::io(&e))?;
        match fault {
            Some(FaultKind::ShortRead(n)) => {
                bytes.truncate(usize::try_from(n).unwrap_or(usize::MAX).min(bytes.len()));
            }
            Some(FaultKind::BitFlip(offset)) if !bytes.is_empty() => {
                let bit = offset % (bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            _ => {}
        }
        Ok(bytes)
    }

    fn supports_mmap(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_distinct_even_across_threads() {
        let a = ScratchDir::new("same-tag");
        let b = ScratchDir::new("same-tag");
        assert_ne!(a.path(), b.path());
        let threaded: Vec<ScratchDir> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| ScratchDir::new("same-tag")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut paths: Vec<&Path> = threaded.iter().map(ScratchDir::path).collect();
        paths.extend([a.path(), b.path()]);
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), 6, "two scratch dirs share a path");
        assert!(paths.iter().all(|p| p.is_dir()));
    }

    #[test]
    fn scratch_dir_exists_while_held_and_is_removed_with_contents_on_drop() {
        let dir = ScratchDir::new("drop");
        let path = dir.path().to_path_buf();
        assert!(path.is_dir());
        std::fs::create_dir(path.join("nested")).unwrap();
        std::fs::write(path.join("nested").join("file"), b"bytes").unwrap();
        std::fs::write(path.join("top"), b"bytes").unwrap();
        drop(dir);
        assert!(!path.exists(), "{} outlived its ScratchDir", path.display());
    }

    #[test]
    fn real_io_atomic_write_round_trips_and_replaces() {
        let dir = ScratchDir::new("io-atomic");
        let path = dir.path().join("atomic");
        let io = RealIo;
        io.write_atomic(&path, b"first").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"first");
        io.write_atomic(&path, b"second").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"second");
        // No temp droppings left behind.
        assert!(!temp_path(&path).exists());
        io.remove(&path).unwrap();
        io.remove(&path).unwrap(); // idempotent
    }

    #[test]
    fn scripted_faults_fire_at_exact_counts() {
        let dir = ScratchDir::new("io-scripted");
        let path = dir.path().join("scripted");
        let io = FaultIo::scripted(vec![
            FaultRule {
                op: IoOp::Write,
                nth: 2,
                kind: FaultKind::Torn,
            },
            FaultRule {
                op: IoOp::Read,
                nth: 2,
                kind: FaultKind::BitFlip(7),
            },
        ]);
        io.write_atomic(&path, b"payload-bytes").unwrap(); // write #1: clean
        let err = io.write_atomic(&path, b"payload-bytes").unwrap_err(); // #2: torn
        assert!(matches!(err, Error::Io { .. }), "{err}");
        // Torn write left half the bytes at the live path.
        assert_eq!(std::fs::read(&path).unwrap(), b"payloa");
        std::fs::write(&path, b"payload-bytes").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"payload-bytes"); // read #1: clean
        let corrupt = io.read(&path).unwrap(); // read #2: flipped
        assert_ne!(corrupt, b"payload-bytes");
        assert_eq!(corrupt.len(), b"payload-bytes".len());
        assert_eq!(io.pending_rules(), 0);
    }

    #[test]
    fn fsync_fault_leaves_final_path_untouched() {
        let dir = ScratchDir::new("io-fsync");
        let path = dir.path().join("fsync");
        std::fs::write(&path, b"old").unwrap();
        let io = FaultIo::scripted(vec![FaultRule {
            op: IoOp::Sync,
            nth: 1,
            kind: FaultKind::FsyncFail,
        }]);
        io.write_atomic(&path, b"new-longer-content").unwrap_err();
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
    }

    #[test]
    fn same_seed_yields_byte_identical_event_logs() {
        let drive = |io: &FaultIo| {
            let dir = ScratchDir::new("io-det");
            let path = dir.path().join("det");
            for i in 0..6u32 {
                let _ = io.write_atomic(&path, format!("content-{i}").as_bytes());
                let _ = io.read(&path);
            }
        };
        let (a, b) = (FaultIo::seeded(0xC0B7, 4, 6), FaultIo::seeded(0xC0B7, 4, 6));
        drive(&a);
        drive(&b);
        assert!(
            !a.event_log().is_empty(),
            "seeded schedule injected nothing"
        );
        assert_eq!(a.event_log(), b.event_log());
        let c = FaultIo::seeded(0xC0B8, 4, 6);
        drive(&c);
        assert_ne!(a.event_log(), c.event_log(), "different seed, same log");
    }

    #[test]
    fn short_read_truncates_without_error() {
        let dir = ScratchDir::new("io-short");
        let path = dir.path().join("short");
        std::fs::write(&path, vec![7u8; 100]).unwrap();
        let io = FaultIo::scripted(vec![FaultRule {
            op: IoOp::Read,
            nth: 1,
            kind: FaultKind::ShortRead(10),
        }]);
        assert_eq!(io.read(&path).unwrap().len(), 10);
        assert_eq!(io.read(&path).unwrap().len(), 100);
    }
}
