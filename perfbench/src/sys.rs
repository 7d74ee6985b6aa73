//! Operating-system plumbing: per-run scratch directories, a counting
//! storage seam, and `/proc` readers for the software counters that
//! stand in for a missing PMU.

use cobtree_core::io::{RealIo, StorageIo};
use cobtree_core::Result;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Scratch directories
// ---------------------------------------------------------------------

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A directory unique to this process and call (pid plus a counter),
/// removed with everything in it on drop — consecutive or parallel runs
/// never share a path.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(root: &Path, tag: &str) -> std::io::Result<Self> {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("scratch-{tag}-{}-{seq}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Counting storage seam
// ---------------------------------------------------------------------

/// [`RealIo`] with counters. Each `write_atomic` is one data write, two
/// fsyncs (the temp file and its parent directory) and one rename —
/// the discipline [`RealIo`] documents.
#[derive(Debug, Default)]
pub struct CountingIo {
    bytes_written: AtomicU64,
    write_calls: AtomicU64,
    syncs: AtomicU64,
    renames: AtomicU64,
    bytes_read: AtomicU64,
    write_ns: AtomicU64,
}

impl StorageIo for CountingIo {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        self.syncs.fetch_add(2, Ordering::Relaxed);
        self.renames.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let done = RealIo.write_atomic(path, bytes);
        self.write_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        done
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let bytes = RealIo.read(path)?;
        self.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }
}

impl CountingIo {
    /// `io.*` rows for the report.
    pub fn rows(&self) -> [(&'static str, f64, &'static str); 6] {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        [
            ("io.bytes_written", get(&self.bytes_written), "bytes"),
            ("io.write_calls", get(&self.write_calls), "count"),
            ("io.syncs", get(&self.syncs), "count"),
            ("io.renames", get(&self.renames), "count"),
            ("io.bytes_read", get(&self.bytes_read), "bytes"),
            ("io.write_s", get(&self.write_ns) / 1e9, "s"),
        ]
    }
}

// ---------------------------------------------------------------------
// /proc readers
// ---------------------------------------------------------------------

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf only reads a configuration value; any name is
    // allowed and an unknown one returns -1.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Fields of a `/proc/<pid>[/task/<tid>]/stat` line after the command
/// name (which may hold spaces), so index 0 is the state field.
fn stat_fields(path: &Path) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(
        rest.split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect(),
    )
}

fn status_number(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Software counters of one process, all threads included.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub cpu_s: f64,
    pub minflt: u64,
    pub majflt: u64,
    pub ctx_switches: u64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

impl ProcSample {
    /// This process, with every thread it ran (exited ones too), CPU
    /// time to the microsecond.
    pub fn own() -> ProcSample {
        let mut u = Rusage {
            utime: [0; 2],
            stime: [0; 2],
            counters: [0; 14],
        };
        // SAFETY: `u` is a writable `struct rusage` for this target, and
        // RUSAGE_SELF is a valid selector; getrusage only writes `u`.
        if unsafe { getrusage(RUSAGE_SELF, &mut u) } != 0 {
            return ProcSample::read(std::process::id());
        }
        let secs = |t: [i64; 2]| t[0] as f64 + t[1] as f64 / 1e6;
        let count = |i: usize| u64::try_from(u.counters[i]).unwrap_or(0);
        ProcSample {
            cpu_s: secs(u.utime) + secs(u.stime),
            minflt: count(4),
            majflt: count(5),
            ctx_switches: count(12) + count(13),
        }
    }

    /// Another process (the server), from `/proc` at clock-tick
    /// resolution; threads that already exited count only in the CPU
    /// time and fault totals.
    pub fn read(pid: u32) -> ProcSample {
        let base = PathBuf::from(format!("/proc/{pid}"));
        let mut s = ProcSample::default();
        // Fields after the name: state(0) … minflt(7) cminflt(8)
        // majflt(9) cmajflt(10) utime(11) stime(12).
        if let Some(f) = stat_fields(&base.join("stat")) {
            s.minflt = f.get(7).copied().unwrap_or(0);
            s.majflt = f.get(9).copied().unwrap_or(0);
            let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
            s.cpu_s = ticks as f64 / clock_ticks_per_s();
        }
        // Context switches are per thread in /proc; sum the tasks.
        if let Ok(tasks) = std::fs::read_dir(base.join("task")) {
            for task in tasks.flatten() {
                if let Ok(text) = std::fs::read_to_string(task.path().join("status")) {
                    s.ctx_switches += status_number(&text, "voluntary_ctxt_switches:").unwrap_or(0)
                        + status_number(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0);
                }
            }
        }
        s
    }

    pub fn since(self, before: ProcSample) -> ProcSample {
        ProcSample {
            cpu_s: self.cpu_s - before.cpu_s,
            minflt: self.minflt.saturating_sub(before.minflt),
            majflt: self.majflt.saturating_sub(before.majflt),
            ctx_switches: self.ctx_switches.saturating_sub(before.ctx_switches),
        }
    }

    /// `proc.*` rows for the report.
    pub fn rows(self) -> [(&'static str, f64, &'static str); 4] {
        [
            ("proc.cpu_s", self.cpu_s, "s"),
            ("proc.minflt", self.minflt as f64, "count"),
            ("proc.majflt", self.majflt as f64, "count"),
            ("proc.ctx_switches", self.ctx_switches as f64, "count"),
        ]
    }
}

/// Peak resident set (VmHWM) of a process, MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|t| status_number(&t, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// CPU seconds per thread name (`comm`, at most 15 bytes), summed over
/// the threads that share a name.
pub fn thread_cpu_s(pid: u32) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    let hz = clock_ticks_per_s();
    for task in tasks.flatten() {
        let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) else {
            continue;
        };
        let Some(f) = stat_fields(&task.path().join("stat")) else {
            continue;
        };
        let cpu = (f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0)) as f64 / hz;
        let name = comm.trim().to_string();
        match out.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += cpu,
            None => out.push((name, cpu)),
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Summed CPU of the threads whose name starts with `prefix`.
pub fn cpu_of(threads: &[(String, f64)], prefix: &str) -> f64 {
    threads
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .map(|(_, c)| c)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_unique_and_removed() {
        let root = std::env::temp_dir();
        let a = ScratchDir::new(&root, "t").unwrap();
        let b = ScratchDir::new(&root, "t").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"12345").unwrap();
        assert_eq!(dir_bytes(a.path()), 5);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
    }

    #[test]
    fn counting_io_counts_and_delegates() {
        let dir = ScratchDir::new(&std::env::temp_dir(), "io").unwrap();
        let io = CountingIo::default();
        let p = dir.path().join("x.bin");
        io.write_atomic(&p, &[7u8; 100]).unwrap();
        assert_eq!(io.read(&p).unwrap().len(), 100);
        let rows = io.rows();
        assert_eq!(rows[0], ("io.bytes_written", 100.0, "bytes"));
        assert_eq!(rows[2], ("io.syncs", 2.0, "count"));
        assert_eq!(rows[4], ("io.bytes_read", 100.0, "bytes"));
        assert_eq!((rows[5].0, rows[5].2), ("io.write_s", "s"));
        assert!(rows[5].1 > 0.0);
    }

    #[test]
    fn own_process_counters_are_readable() {
        let pid = std::process::id();
        let s = ProcSample::read(pid);
        assert!(s.minflt > 0);
        let own = ProcSample::own();
        assert!(own.minflt > 0 && own.cpu_s > 0.0 && own.ctx_switches > 0);
        assert!(peak_rss_mb(pid) > 0.0);
        assert!(!thread_cpu_s(pid).is_empty());
    }
}
