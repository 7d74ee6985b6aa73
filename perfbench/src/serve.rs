//! `serve-mixed`: the shipped `cobtree-serve --engine tiered` binary as
//! a subprocess (2^20 keys `{2, 4, …}`, 8 shards, 2 workers) driven over
//! loopback by the benchmark's own open-loop generator: a Poisson
//! stream of Zipf(0.99) keys in the blend get/insert/remove/range/rank
//! = 80/8/4/4/4: one fixed rate below the knee, one explicit flush, a
//! closed-loop saturation phase and a rate ladder. The hot set fits in
//! L2, so the descent is a small share of each request: transport, the
//! worker poll loop, the protocol, handoffs and inline memtable flushes
//! dominate.
//!
//! One data connection carries every request, so the server executes
//! writes, ranges and ranks in send order and the generator predicts
//! every answer exactly.

use crate::layers;
use crate::report::{fractile, median, quantile, Report, Windows};
use crate::rng::{Rng, Zipf};
use crate::sys::{self, ProcSample};
use crate::trace::Span;
use crate::Ctx;
use cobtree_core::protocol::{
    decode_request, decode_response, encode_ok, encode_request, FrameDecoder, Reply, Request,
    Response, StatsSnapshot, Status,
};
use cobtree_core::NamedLayout;
use cobtree_search::{SaveOptions, TieredForest};
use cobtree_serve::ServeEngine;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: u64 = 1 << 20;
const SHARDS: usize = 8;
const WORKERS: usize = 2;
const ZIPF_S: f64 = 0.99;
/// Weights of get, insert, remove, range, rank.
const MIX: [u64; 5] = [80, 8, 4, 4, 4];
/// Key span of a range request; the limit is above the most keys the
/// span can hold (65 even and 64 odd), so replies are never truncated.
const RANGE_SPAN: u64 = 128;
const RANGE_LIMIT: u32 = 256;
/// The fixed rate, below the knee where the server falls behind.
const FIXED_RATE: f64 = 3_000.0;
/// The ladder climbs by this factor until a step fails, then bisects.
const LADDER_START: f64 = 20_000.0;
const LADDER_FACTOR: f64 = 1.5;
const LADDER_MAX: f64 = 250_000.0;
const BISECTIONS: usize = 2;
/// Requests kept in flight when measuring the saturated throughput, and
/// the (never reached) schedule rate their order is drawn from.
const SATURATE_WINDOW: usize = 64;
const SATURATE_SCHEDULE_RATE: f64 = 300_000.0;
/// Requests per saturation burst: well short of the ~90k requests of
/// this blend that fill the memtable, so a burst that starts from an
/// empty memtable never holds an inline flush.
const SATURATE_BURST: usize = 30_000;
/// A burst slower than this many seconds is cut short.
const SATURATE_BURST_LIMIT: Duration = Duration::from_secs(5);
/// Bursts measured however short the run.
const SATURATE_MIN_BURSTS: usize = 5;
/// Completions are counted in slices this long (about 400 answers
/// each), and the rate reported is this fractile of the slices: replies
/// come back in lumps, so the top fifth of short slices measures lumps
/// rather than quiet time.
const SATURATE_SLICE: Duration = Duration::from_millis(2);
const SATURATE_QUIET: f64 = 0.8;
/// The latency limit a ladder step's p99 must meet.
const LIMIT_NS: u64 = 1_000_000;
/// Share of requests allowed over the limit (the p99).
const MISS_BUDGET: f64 = 0.01;
/// A ladder step is judged on the median of its windows' miss shares,
/// so one host hiccup does not decide it.
const STEP_WINDOW: Duration = Duration::from_millis(100);
/// Gets per window of the fixed phase's p99 (ten beyond it), and per
/// window of its p50: about 20 ms of Gets, short enough that some
/// windows fall between a noisy host's stalls.
const GET_WINDOW: usize = 1_000;
const GET_P50_WINDOW: usize = 50;
/// A sender this late has a growing backlog; the phase stops there.
const ABORT_LATE: Duration = Duration::from_millis(500);
/// How long after its last send a phase waits for replies.
const DRAIN_GRACE: Duration = Duration::from_secs(2);
const SETUP_REPS: usize = 9;
const PINGS: usize = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Get,
    Insert,
    Remove,
    Range,
    Rank,
    Flush,
}

const BLEND: [Kind; 5] = [
    Kind::Get,
    Kind::Insert,
    Kind::Remove,
    Kind::Range,
    Kind::Rank,
];

/// The answer a request must get.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expect {
    Found,
    Applied(bool),
    Keys(Vec<u64>),
    Rank(u64),
    /// A flush publishes or not, depending on what is buffered.
    Flushed,
}

#[derive(Debug, Clone)]
struct Planned {
    /// Due time, ns after its phase starts.
    due_ns: u64,
    kind: Kind,
    req: Request,
    expect: Expect,
}

/// Whether `reply` is the predicted answer.
fn matches(expect: &Expect, reply: &Reply) -> bool {
    match (expect, reply) {
        (Expect::Found, Reply::Hit { found, .. }) => *found,
        (Expect::Applied(a), Reply::Applied { applied }) => a == applied,
        (
            Expect::Keys(keys),
            Reply::Keys {
                truncated,
                keys: got,
            },
        ) => !truncated && keys == got,
        (Expect::Rank(r), Reply::Rank { rank }) => r == rank,
        (Expect::Flushed, Reply::Applied { .. }) => true,
        _ => false,
    }
}

/// Fenwick tree over odd-key indices: live odd keys below a bound.
#[derive(Clone)]
struct Fenwick(Vec<i64>);

impl Fenwick {
    fn add(&mut self, mut i: usize, d: i64) {
        while i < self.0.len() {
            self.0[i] += d;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over indices `1..=i`.
    fn prefix(&self, mut i: usize) -> i64 {
        let mut s = 0;
        while i > 0 {
            s += self.0[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// The live odd keys `2j + 1` (`j` in `1..=KEYS`), as the server holds
/// them after each request in send order.
#[derive(Clone)]
struct Model {
    live: Vec<bool>,
    count: Fenwick,
}

impl Model {
    fn new() -> Self {
        Model {
            live: vec![false; KEYS as usize + 2],
            count: Fenwick(vec![0; KEYS as usize + 2]),
        }
    }

    fn set(&mut self, j: u64, on: bool) -> bool {
        let changed = self.live[j as usize] != on;
        if changed {
            self.live[j as usize] = on;
            self.count.add(j as usize, if on { 1 } else { -1 });
        }
        changed
    }

    /// The answer to `req`, moving the model past it.
    fn apply(&mut self, req: &Request) -> Expect {
        match *req {
            Request::Get { .. } => Expect::Found,
            Request::Insert { key } => Expect::Applied(self.set(key / 2, true)),
            Request::Remove { key } => Expect::Applied(self.set(key / 2, false)),
            Request::Range { lo, hi, .. } => Expect::Keys(
                (lo..=hi)
                    .filter(|&k| {
                        let j = k / 2;
                        (1..=KEYS).contains(&j) && (k % 2 == 0 || self.live[j as usize])
                    })
                    .collect(),
            ),
            // Keys below 2r: the r − 1 even ones and the live odd
            // 2j + 1 with j <= r − 1.
            Request::Rank { key } => {
                let r = key / 2;
                Expect::Rank(r - 1 + self.count.prefix((r - 1) as usize) as u64)
            }
            Request::Flush => Expect::Flushed,
            _ => unreachable!("the generator sends the blend and flushes"),
        }
    }
}

/// Makes each phase's schedule and predicts its answers.
struct Generator {
    zipf: Zipf,
    rng: Rng,
    model: Model,
}

impl Generator {
    fn new(seed: u64) -> Self {
        Generator {
            zipf: Zipf::new(KEYS, ZIPF_S),
            rng: Rng::derive(seed, 2),
            model: Model::new(),
        }
    }

    /// A Poisson schedule at `rate` for `dur`, with a `Flush` inserted
    /// at `flush_at` when given.
    fn phase(&mut self, rate: f64, dur: Duration, flush_at: Option<Duration>) -> Vec<Planned> {
        let total: u64 = MIX.iter().sum();
        let mut reqs = Vec::new();
        let mut flush_at = flush_at.map(|d| d.as_nanos() as u64);
        let mut t = 0.0;
        loop {
            t += self.rng.exp_gap(rate);
            if t >= dur.as_secs_f64() {
                break;
            }
            let due_ns = (t * 1e9) as u64;
            if let Some(at) = flush_at.filter(|&f| f <= due_ns) {
                flush_at = None;
                reqs.push(Planned {
                    due_ns: at,
                    kind: Kind::Flush,
                    req: Request::Flush,
                    expect: self.model.apply(&Request::Flush),
                });
            }
            let r = self.zipf.sample(&mut self.rng);
            let mut pick = self.rng.below(total);
            let kind = BLEND[MIX
                .iter()
                .position(|&w| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .expect("weights cover the draw")];
            let req = match kind {
                Kind::Get => Request::Get { key: 2 * r },
                Kind::Insert => Request::Insert { key: 2 * r + 1 },
                Kind::Remove => Request::Remove { key: 2 * r + 1 },
                Kind::Range => Request::Range {
                    lo: 2 * r,
                    hi: 2 * r + RANGE_SPAN,
                    limit: RANGE_LIMIT,
                },
                Kind::Rank | Kind::Flush => Request::Rank { key: 2 * r },
            };
            let expect = self.model.apply(&req);
            reqs.push(Planned {
                due_ns,
                kind,
                req,
                expect,
            });
        }
        reqs
    }
}

// ---------------------------------------------------------------------
// The server process and a blocking control connection
// ---------------------------------------------------------------------

/// A running `cobtree-serve`; killed and reaped on drop.
struct ServerProc {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    /// Spawns the server and waits for its `LISTENING` line; returns it
    /// with the time from spawn to that line.
    fn spawn(bin: &std::path::Path) -> Result<(ServerProc, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "tcp:127.0.0.1:0", "--engine", "tiered"])
            .args(["--keys", &KEYS.to_string(), "--shards", &SHARDS.to_string()])
            .args(["--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = std::sync::mpsc::channel();
        // Reads the first line, then drains stdout until the server
        // exits, so it never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let _ = tx.send(lines.next());
            for _ in lines {}
        });
        let mut server = ServerProc {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        let line = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "server printed no LISTENING line within 60 s".to_string())?;
        let took = t.elapsed().as_secs_f64();
        let line = line
            .and_then(Result::ok)
            .ok_or("server exited before listening")?;
        let spec = line
            .strip_prefix("LISTENING tcp:")
            .ok_or_else(|| format!("unexpected server line '{line}'"))?;
        server.addr = spec.trim().to_string();
        Ok((server, took))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the server to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        Control::connect(&self.addr)?.call(&Request::Shutdown)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("server did not exit within 20 s of Shutdown".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One request at a time over its own connection.
struct Control {
    stream: TcpStream,
    dec: FrameDecoder,
    next_id: u32,
}

impl Control {
    fn connect(addr: &str) -> Result<Control, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(Control {
            stream,
            dec: FrameDecoder::new(),
            next_id: 1,
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut buf = Vec::new();
        encode_request(id, req, &mut buf);
        self.stream.write_all(&buf).map_err(|e| e.to_string())?;
        let mut scratch = [0u8; 64 * 1024];
        loop {
            if let Some(body) = self.dec.next_frame().map_err(|e| e.to_string())? {
                let resp = decode_response(&body).map_err(|e| e.to_string())?;
                if resp.req_id == id {
                    return Ok(resp);
                }
                continue;
            }
            let n = self.stream.read(&mut scratch).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server closed the control connection".into());
            }
            self.dec.feed(&scratch[..n]);
        }
    }

    fn stats(&mut self) -> Result<StatsSnapshot, String> {
        match self.call(&Request::Stats)? {
            Response {
                reply: Some(Reply::Stats(s)),
                ..
            } => Ok(*s),
            other => Err(format!("STATS answered {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// Sending one phase open-loop
// ---------------------------------------------------------------------

const PENDING: u8 = 0;
const OK: u8 = 1;
const WRONG: u8 = 2;
const REFUSED: u8 = 3;

/// One slot per request of a phase, shared by sender and receiver.
/// Times are ns since `epoch`, 0 meaning "not yet".
struct Slots {
    epoch: Instant,
    sent_ns: Vec<AtomicU64>,
    done_ns: Vec<AtomicU64>,
    outcome: Vec<AtomicU8>,
    answered: AtomicU64,
    stop: AtomicBool,
}

impl Slots {
    fn new(epoch: Instant, n: usize) -> Self {
        Slots {
            epoch,
            sent_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            done_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            outcome: (0..n).map(|_| AtomicU8::new(PENDING)).collect(),
            answered: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }
}

/// Books every complete reply buffered in `dec`: stamps it, checks it
/// against the schedule and notes wrong answers. Request ids are
/// `id_base + index`. Returns how many replies it booked, or an error
/// when the stream is desynced.
fn book_replies(
    dec: &mut FrameDecoder,
    reqs: &[Planned],
    id_base: u32,
    slots: &Slots,
    notes: &mut Vec<String>,
) -> Result<usize, String> {
    let now = slots.now_ns();
    let mut booked = 0;
    while let Some(body) = dec
        .next_frame()
        .map_err(|e| format!("reply stream desynced: {e}"))?
    {
        let resp = match decode_response(&body) {
            Ok(r) => r,
            Err(e) => {
                notes.push(format!("undecodable reply: {e}"));
                continue;
            }
        };
        let Some(i) = resp
            .req_id
            .checked_sub(id_base)
            .map(|i| i as usize)
            .filter(|&i| i < reqs.len())
        else {
            // A straggler of an earlier phase, already booked lost.
            continue;
        };
        let outcome = match (&resp.status, &resp.reply) {
            (Status::Ok, Some(reply)) if matches(&reqs[i].expect, reply) => OK,
            (Status::Ok, reply) => {
                if notes.len() < 8 {
                    notes.push(format!(
                        "{:?} expected {:?}, got {reply:?}",
                        reqs[i].req, reqs[i].expect
                    ));
                }
                WRONG
            }
            _ => REFUSED,
        };
        if slots.outcome[i].swap(outcome, Ordering::Relaxed) == PENDING {
            slots.done_ns[i].store(now, Ordering::Relaxed);
            slots.answered.fetch_add(1, Ordering::Relaxed);
            booked += 1;
        }
    }
    Ok(booked)
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// Receives replies until told to stop, blocking on the socket (with a
/// short timeout only to notice the stop flag).
fn receive(mut stream: TcpStream, reqs: &[Planned], id_base: u32, slots: &Slots) -> Vec<String> {
    let mut notes = Vec::new();
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 256 * 1024];
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    while !slots.stop.load(Ordering::Relaxed) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => dec.feed(&buf[..n]),
            Err(e) if is_timeout(&e) => continue,
            Err(_) => break,
        }
        if let Err(e) = book_replies(&mut dec, reqs, id_base, slots, &mut notes) {
            notes.push(e);
            break;
        }
    }
    notes
}

/// Keeps `window` requests in flight on one thread for `dur`: every
/// reply releases the next request. Returns the number sent.
fn closed_loop(
    stream: &TcpStream,
    reqs: &[Planned],
    id_base: u32,
    slots: &Slots,
    window: usize,
    dur: Duration,
    notes: &mut Vec<String>,
) -> Result<usize, String> {
    let mut stream = stream.try_clone().map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(DRAIN_GRACE))
        .map_err(|e| e.to_string())?;
    let end = Instant::now() + dur;
    let mut dec = FrameDecoder::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut out = Vec::new();
    let mut sent = 0usize;
    let mut answered = 0usize;
    loop {
        let open = Instant::now() < end;
        out.clear();
        let first = sent;
        while open && sent < reqs.len() && sent < answered + window {
            encode_request(id_base + sent as u32, &reqs[sent].req, &mut out);
            sent += 1;
        }
        let now = slots.now_ns();
        for slot in &slots.sent_ns[first..sent] {
            slot.store(now, Ordering::Relaxed);
        }
        stream.write_all(&out).map_err(|e| format!("send: {e}"))?;
        if answered == sent {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => dec.feed(&buf[..n]),
            // Replies overdue by the drain grace are lost.
            Err(e) if is_timeout(&e) => break,
            Err(e) => return Err(format!("receive: {e}")),
        }
        answered += book_replies(&mut dec, reqs, id_base, slots, notes)?;
    }
    Ok(sent)
}

/// Sends `reqs` on their schedule: sleeps until each due instant and
/// writes every request already due in one go. A sender `ABORT_LATE`
/// behind schedule has a growing backlog and stops. Returns the phase
/// start (ns since the slots' epoch) and the number sent.
fn send(
    stream: &mut TcpStream,
    reqs: &[Planned],
    id_base: u32,
    slots: &Slots,
) -> Result<(u64, usize), String> {
    let start = Instant::now();
    let start_ns = slots.now_ns();
    let mut i = 0;
    let mut buf = Vec::new();
    while i < reqs.len() {
        let due = start + Duration::from_nanos(reqs[i].due_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
            continue;
        }
        buf.clear();
        let mut j = i;
        while j < reqs.len() && j - i < 256 && start + Duration::from_nanos(reqs[j].due_ns) <= now {
            encode_request(id_base + j as u32, &reqs[j].req, &mut buf);
            j += 1;
        }
        let sent = slots.now_ns();
        for slot in &slots.sent_ns[i..j] {
            slot.store(sent, Ordering::Relaxed);
        }
        stream.write_all(&buf).map_err(|e| format!("send: {e}"))?;
        i = j;
        if now - due > ABORT_LATE {
            break;
        }
    }
    let deadline = Instant::now() + DRAIN_GRACE;
    while slots.answered.load(Ordering::Relaxed) < i as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((start_ns, i))
}

/// One finished phase.
struct PhaseRun {
    reqs: Vec<Planned>,
    start_ns: u64,
    sent: usize,
    slots: Slots,
    notes: Vec<String>,
}

impl PhaseRun {
    fn outcome(&self, i: usize) -> u8 {
        self.slots.outcome[i].load(Ordering::Relaxed)
    }

    fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + self.reqs[i].due_ns
    }

    /// Due → reply in ns; `u64::MAX` for a refused, lost or unsent
    /// request, which misses every limit.
    fn latency(&self, i: usize) -> u64 {
        match self.outcome(i) {
            OK if i < self.sent => self.slots.done_ns[i]
                .load(Ordering::Relaxed)
                .saturating_sub(self.due_ns(i)),
            _ => u64::MAX,
        }
    }

    /// Latencies of one kind, in schedule order.
    fn latencies(&self, kind: Kind) -> Vec<u64> {
        (0..self.reqs.len())
            .filter(|&i| self.reqs[i].kind == kind)
            .map(|i| self.latency(i))
            .collect()
    }

    /// Ok answers per second of schedule.
    fn achieved(&self) -> f64 {
        let ok = (0..self.sent).filter(|&i| self.outcome(i) == OK).count();
        let span = self.reqs.last().map_or(1, |p| p.due_ns.max(1));
        ok as f64 / (span as f64 / 1e9)
    }

    fn ok_count(&self) -> usize {
        (0..self.sent).filter(|&i| self.outcome(i) == OK).count()
    }

    /// Phase start to its last reply, in ns.
    fn span_ns(&self) -> u64 {
        self.last_done_ns().saturating_sub(self.start_ns).max(1)
    }

    /// Ok answers per second in each full `SATURATE_SLICE` of the phase.
    fn slice_rates(&self) -> Vec<f64> {
        let w = SATURATE_SLICE.as_nanos() as u64;
        let mut done = vec![0u64; (self.span_ns() / w) as usize];
        for i in (0..self.sent).filter(|&i| self.outcome(i) == OK) {
            let at = self.slots.done_ns[i].load(Ordering::Relaxed);
            if let Some(slot) = done.get_mut((at.saturating_sub(self.start_ns) / w) as usize) {
                *slot += 1;
            }
        }
        done.iter()
            .map(|&n| n as f64 / SATURATE_SLICE.as_secs_f64())
            .collect()
    }

    fn last_done_ns(&self) -> u64 {
        (0..self.sent)
            .map(|i| self.slots.done_ns[i].load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// The median over `STEP_WINDOW` windows of the share of requests
    /// due in the window that missed the limit.
    fn windowed_miss_share(&self) -> f64 {
        let w = STEP_WINDOW.as_nanos() as u64;
        let windows = self.reqs.last().map_or(0, |p| p.due_ns / w) as usize + 1;
        let mut due = vec![0u64; windows];
        let mut missed = vec![0u64; windows];
        for i in 0..self.reqs.len() {
            let k = (self.reqs[i].due_ns / w) as usize;
            due[k] += 1;
            missed[k] += u64::from(self.latency(i) > LIMIT_NS);
        }
        let shares: Vec<f64> = due
            .iter()
            .zip(&missed)
            .filter(|(d, _)| **d > 0)
            .map(|(d, m)| *m as f64 / *d as f64)
            .collect();
        median(&shares)
    }

    /// Books every request: right, wrong, or refused, lost or shed.
    fn book(&self, rep: &mut Report) {
        let refused = self.book_overload(rep);
        rep.refused(refused);
    }

    /// Books the right and wrong answers and returns how many requests
    /// were refused, lost or shed — for a phase that overloads or stalls
    /// the server on purpose, whose caller counts those apart.
    fn book_overload(&self, rep: &mut Report) -> u64 {
        let mut refused = 0;
        for i in 0..self.reqs.len() {
            match self.outcome(i) {
                OK if i < self.sent => rep.ok(1),
                WRONG => rep.wrong(|| "wrong answer over the wire".into()),
                _ => refused += 1,
            }
        }
        refused
    }
}

/// The data connection and what every phase on it shares.
struct Wire<'a> {
    data: &'a TcpStream,
    epoch: Instant,
    next_id: u32,
}

impl Wire<'_> {
    /// Schedules and sends one phase, keeping the generator's model in
    /// step with what the server actually received.
    fn phase(
        &mut self,
        gen: &mut Generator,
        rate: f64,
        dur: Duration,
        flush_at: Option<Duration>,
    ) -> Result<PhaseRun, String> {
        let before = gen.model.clone();
        let reqs = gen.phase(rate, dur, flush_at);
        let n = reqs.len() as u32;
        let run = run_phase(self.data, reqs, self.next_id, self.epoch)?;
        self.next_id += n;
        if run.sent < run.reqs.len() {
            // Unsent writes never happened: replay only what was sent.
            gen.model = before;
            for p in &run.reqs[..run.sent] {
                gen.model.apply(&p.req);
            }
        }
        for note in &run.notes {
            println!("note serve-mixed {note}");
        }
        Ok(run)
    }

    /// Keeps `SATURATE_WINDOW` requests in flight until about
    /// `SATURATE_BURST` requests are answered (or `SATURATE_BURST_LIMIT`
    /// passes) and books them; the run holds only the requests that were
    /// sent.
    fn saturate(&mut self, gen: &mut Generator, rep: &mut Report) -> Result<PhaseRun, String> {
        let before = gen.model.clone();
        let burst = Duration::from_secs_f64(SATURATE_BURST as f64 / SATURATE_SCHEDULE_RATE);
        let mut reqs = gen.phase(SATURATE_SCHEDULE_RATE, burst, None);
        let slots = Slots::new(self.epoch, reqs.len());
        let mut notes = Vec::new();
        let start_ns = slots.now_ns();
        let sent = closed_loop(
            self.data,
            &reqs,
            self.next_id,
            &slots,
            SATURATE_WINDOW,
            SATURATE_BURST_LIMIT,
            &mut notes,
        )?;
        self.next_id += reqs.len() as u32;
        gen.model = before;
        for p in &reqs[..sent] {
            gen.model.apply(&p.req);
        }
        reqs.truncate(sent);
        let run = PhaseRun {
            reqs,
            start_ns,
            sent,
            slots,
            notes,
        };
        run.book(rep);
        Ok(run)
    }
}

/// Runs one phase over `data`: a receiver thread blocking on the socket
/// and this thread sending on schedule.
fn run_phase(
    data: &TcpStream,
    reqs: Vec<Planned>,
    id_base: u32,
    epoch: Instant,
) -> Result<PhaseRun, String> {
    let slots = Slots::new(epoch, reqs.len());
    let mut sender = data.try_clone().map_err(|e| e.to_string())?;
    let reader = data.try_clone().map_err(|e| e.to_string())?;
    let (sent, notes) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(reader, &reqs, id_base, &slots));
        let sent = send(&mut sender, &reqs, id_base, &slots);
        slots.stop.store(true, Ordering::Relaxed);
        (sent, receiver.join().expect("receiver thread panicked"))
    });
    let (start_ns, sent) = sent?;
    Ok(PhaseRun {
        reqs,
        start_ns,
        sent,
        slots,
        notes,
    })
}

fn set_timer_slack_ns(ns: u64) {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes how late this thread's timed sleeps may wake.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0);
    }
}

/// A latency in µs from ns, where `u64::MAX` marks a failed request; a
/// quantile landing on one reads as the whole drain window.
fn us(ns: f64) -> f64 {
    if ns >= u64::MAX as f64 {
        DRAIN_GRACE.as_secs_f64() * 1e6
    } else {
        ns / 1e3
    }
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

pub fn run(ctx: &mut Ctx, rep: &mut Report) -> Result<(), String> {
    // The sender's sleeps then wake within microseconds of the due time.
    set_timer_slack_ns(1);
    let mut gen = Generator::new(ctx.seed);

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            ServerProc::shutdown(s)?;
        }
        let (s, took) = ServerProc::spawn(&ctx.serve_bin)?;
        setups.push(took);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    rep.set("setup_s", median(&setups), "s");
    let pid = server.pid();
    let mut control = Control::connect(&server.addr)?;
    if ctx.tracer.is_some() {
        ping_rtt(&mut control, rep)?;
    }

    let data = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    data.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut wire = Wire {
        data: &data,
        epoch: Instant::now(),
        next_id: 1,
    };
    // The fixed phase, with server counters around it.
    let proc_before = ProcSample::read(pid);
    let threads_before = sys::thread_cpu_s(pid);
    let stats_before = control.stats()?;
    let t = Instant::now();
    let fixed = wire.phase(&mut gen, FIXED_RATE, ctx.budget(0.4), None)?;
    fixed.book(rep);
    let fixed_wall = t.elapsed().as_secs_f64();
    let stats_fixed = control.stats()?;
    let threads_fixed = sys::thread_cpu_s(pid);
    fixed_metrics(rep, &fixed);
    server_counters(
        rep,
        &stats_before,
        &stats_fixed,
        &threads_before,
        &threads_fixed,
        fixed_wall,
    );

    // One explicit flush at the fixed rate: the stall an inline flush
    // puts on the requests queued behind it.
    let flush_dur = ctx.budget(0.05).max(Duration::from_millis(500));
    let probe = wire.phase(&mut gen, FIXED_RATE, flush_dur, Some(flush_dur / 2))?;
    // The stall is the measurement here: requests it gets refused are
    // counted with it, not as failures (a wrong answer still is one).
    let flush_refused = probe.book_overload(rep);
    rep.set("serve.flush_refused", flush_refused as f64, "count");
    flush_metrics(rep, &probe);
    // Peak memory of serving at the fixed rate through one flush; the
    // overload phases below buffer in proportion to how far they get.
    rep.set("peak_rss_mb", sys::peak_rss_mb(pid), "MiB");

    // Saturated throughput, closed loop, in bursts that each start from
    // an empty memtable and end before it fills: the quiet end of the
    // bursts' short slices, and all bursts pooled.
    let sat_end = Instant::now() + ctx.budget(0.25);
    let (mut bursts, mut slices) = (0, Vec::new());
    let (mut sat_ok, mut sat_ns, mut sat_sent) = (0, 0, 0);
    while bursts < SATURATE_MIN_BURSTS || Instant::now() < sat_end {
        flush(&mut control, rep)?;
        let sat = wire.saturate(&mut gen, rep)?;
        slices.extend(sat.slice_rates());
        bursts += 1;
        sat_ok += sat.ok_count();
        sat_ns += sat.span_ns();
        sat_sent += sat.sent;
    }
    let saturated = fractile(&slices, SATURATE_QUIET);
    rep.set(
        "saturated_overall_ops_per_s",
        sat_ok as f64 / (sat_ns as f64 / 1e9),
        "ops/s",
    );
    rep.set("saturated_ops_per_s", saturated, "ops/s");
    rep.set("saturate_bursts", bursts as f64, "count");
    rep.set("ops_per_s", saturated, "ops/s");

    // The ladder: climb until a step fails, then bisect.
    let step = ctx.budget(0.03).max(Duration::from_millis(500));
    let mut best: Option<(f64, f64)> = None;
    let mut fail: Option<f64> = None;
    let mut rate = LADDER_START;
    let mut steps = Vec::new();
    let mut bisected = 0;
    let mut ladder_refused = 0;
    loop {
        // Every step starts with an empty memtable, so no step holds a
        // flush (one comes every ~90k requests of this blend) and the
        // ladder finds the flush-free knee; the probe above measured
        // the flush stall.
        flush(&mut control, rep)?;
        let run = wire.phase(&mut gen, rate, step, None)?;
        ladder_refused += run.book_overload(rep);
        let share = run.windowed_miss_share();
        let passed = run.sent == run.reqs.len() && share <= MISS_BUDGET;
        println!(
            "ladder serve-mixed rate={rate:.0} planned={} sent={} achieved={:.1} windowed_miss_share={share:.4} passed={passed}",
            run.reqs.len(),
            run.sent,
            run.achieved()
        );
        if passed {
            best = Some((rate, run.achieved()));
        } else {
            fail = Some(rate);
        }
        steps.push(run);
        let lo = best.map_or(FIXED_RATE, |b| b.0);
        rate = match fail {
            None if rate * LADDER_FACTOR <= LADDER_MAX => rate * LADDER_FACTOR,
            Some(hi) if bisected < BISECTIONS => {
                bisected += 1;
                (lo + hi) / 2.0
            }
            _ => break,
        };
    }
    let sustained = best.map_or(fixed.achieved(), |b| b.1);
    rep.set("sustained_ops_per_s", sustained, "ops/s");
    rep.set("ladder_steps", steps.len() as f64, "count");
    rep.set("ladder_refused", ladder_refused as f64, "count");

    let proc_after = ProcSample::read(pid);
    let stats_after = control.stats()?;
    drop(control);
    drop(data);
    server.shutdown()?;

    rep.set(
        "server.busy",
        (stats_after.busy - stats_before.busy) as f64,
        "count",
    );
    rep.set(
        "server.timeouts",
        (stats_after.timeouts - stats_before.timeouts) as f64,
        "count",
    );
    let sent: usize = sat_sent
        + [&fixed, &probe]
            .into_iter()
            .chain(&steps)
            .map(|r| r.sent)
            .sum::<usize>();
    rep.set("gen.sent", sent as f64, "count");
    for (name, v, unit) in proc_after.since(proc_before).rows() {
        rep.set(name, v, unit);
    }
    rep.set("io.write_s", 0.0, "s");
    for name in ["io.bytes_written", "io.bytes_read"] {
        rep.set(name, 0.0, "bytes");
    }
    for name in ["io.write_calls", "io.syncs", "io.renames"] {
        rep.set(name, 0.0, "count");
    }
    if ctx.tracer.is_some() {
        replay(ctx, &fixed, rep)?;
        protocol_costs(&fixed.reqs, rep);
    } else {
        rep.set("tiered.flushes", 0.0, "count");
    }
    Ok(())
}

/// Empties the server's memtable with an explicit flush.
fn flush(control: &mut Control, rep: &mut Report) -> Result<(), String> {
    let flushed = control.call(&Request::Flush)?;
    rep.check(flushed.status == Status::Ok, || {
        format!("FLUSH answered {flushed:?}")
    });
    Ok(())
}

/// Latencies at the fixed rate, from the due time to the reply.
fn fixed_metrics(rep: &mut Report, fixed: &PhaseRun) {
    let gets = fixed.latencies(Kind::Get);
    let quiet_end = |per_window| {
        let mut windows = Windows::new(per_window);
        gets.iter().for_each(|&g| windows.push(g));
        windows.finish()
    };
    let p50 = us(quiet_end(GET_P50_WINDOW).0);
    let p99 = us(quiet_end(GET_WINDOW).1);
    rep.set("get_p50_us", p50, "us");
    rep.set("get_p99_us", p99, "us");
    rep.set("read_p50_us", p50, "us");
    rep.set("read_p99_us", p99, "us");
    rep.set("get_samples", gets.len() as f64, "count");
    let mut writes: Vec<u64> = fixed
        .latencies(Kind::Insert)
        .into_iter()
        .chain(fixed.latencies(Kind::Remove))
        .collect();
    writes.sort_unstable();
    rep.set("write_p99_us", us(quantile(&writes, 0.99)), "us");
    let mut ranges = fixed.latencies(Kind::Range);
    ranges.sort_unstable();
    rep.set("range_p99_us", us(quantile(&ranges, 0.99)), "us");
    rep.set("range_samples", ranges.len() as f64, "count");
    let mut late: Vec<u64> = (0..fixed.sent)
        .map(|i| {
            fixed.slots.sent_ns[i]
                .load(Ordering::Relaxed)
                .saturating_sub(fixed.due_ns(i))
        })
        .collect();
    late.sort_unstable();
    rep.set("gen.late_p99_us", quantile(&late, 0.99) / 1e3, "us");
    rep.set("fixed_ops_per_s", fixed.achieved(), "ops/s");
}

/// The explicit flush's own latency and how many requests from it on
/// missed the limit.
fn flush_metrics(rep: &mut Report, probe: &PhaseRun) {
    let flush = (0..probe.reqs.len()).find(|&i| probe.reqs[i].kind == Kind::Flush);
    let (ms, stalled) = flush.map_or((0.0, 0), |f| {
        (
            us(probe.latency(f) as f64) / 1e3,
            (f..probe.reqs.len())
                .filter(|&i| probe.latency(i) > LIMIT_NS)
                .count(),
        )
    });
    rep.set("serve.flush_ms", ms, "ms");
    rep.set("serve.flush_stalled_requests", stalled as f64, "count");
}

fn server_counters(
    rep: &mut Report,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    threads_before: &[(String, f64)],
    threads_after: &[(String, f64)],
    wall_s: f64,
) {
    let mut delta = StatsSnapshot {
        requests: after.requests - before.requests,
        handoffs: after.handoffs - before.handoffs,
        ..StatsSnapshot::default()
    };
    for (d, (a, b)) in delta
        .latency_buckets
        .iter_mut()
        .zip(after.latency_buckets.iter().zip(&before.latency_buckets))
    {
        *d = a - b;
    }
    rep.set(
        "server.handoff_frac",
        delta.handoffs as f64 / delta.requests.max(1) as f64,
        "ratio",
    );
    rep.set("server.p50_us", delta.latency_quantile_ns(0.50) / 1e3, "us");
    rep.set("server.p99_us", delta.latency_quantile_ns(0.99) / 1e3, "us");
    let cpu = |t: &[(String, f64)], p: &str| sys::cpu_of(t, p);
    let workers = cpu(threads_after, "serve-worker") - cpu(threads_before, "serve-worker");
    rep.set(
        "server.worker_busy_frac",
        workers / (wall_s * WORKERS as f64),
        "ratio",
    );
    rep.set(
        "server.acceptor_cpu_s",
        cpu(threads_after, "serve-acceptor") - cpu(threads_before, "serve-acceptor"),
        "s",
    );
}

/// Closed-loop PINGs on the control connection: transport plus the
/// server loop, no engine work.
fn ping_rtt(control: &mut Control, rep: &mut Report) -> Result<(), String> {
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        let resp = control.call(&Request::Ping)?;
        rtts.push(t.elapsed().as_nanos() as u64);
        rep.check(resp.status == Status::Ok, || {
            format!("PING answered {resp:?}")
        });
    }
    rtts.sort_unstable();
    rep.set("net.ping_rtt_p50_us", quantile(&rtts, 0.50) / 1e3, "us");
    rep.set("net.ping_rtt_p99_us", quantile(&rtts, 0.99) / 1e3, "us");
    Ok(())
}

/// An in-process engine built the way `cobtree-serve` builds its own.
fn engine() -> Result<ServeEngine, String> {
    let forest = TieredForest::<u64>::builder()
        .layout(NamedLayout::MinWep)
        .shards(SHARDS)
        .background(false)
        .keys((1..=KEYS).map(|r| 2 * r))
        .build()
        .map_err(|e| format!("replay engine: {e}"))?;
    Ok(ServeEngine::Tiered(Arc::new(forest)))
}

fn call(engine: &ServeEngine, req: &Request) -> Result<Reply, Status> {
    match *req {
        Request::Get { key } => engine.get(key),
        Request::Insert { key } => engine.write(key, false),
        Request::Remove { key } => engine.write(key, true),
        Request::Range { lo, hi, limit } => engine.range(lo, hi, limit),
        Request::Rank { key } => engine.rank(key),
        Request::Flush => engine.flush(),
        _ => unreachable!("the generator sends the blend and flushes"),
    }
}

/// Replays the fixed phase's requests, in order, on an in-process
/// engine; each wire request becomes a root span (send → reply) whose
/// child is the engine call; the tracing overhead is measured against an
/// untraced replay. Then the shared forest probes on the engine's base
/// forest.
fn replay(ctx: &mut Ctx, fixed: &PhaseRun, rep: &mut Report) -> Result<(), String> {
    // The untraced replay runs first, on its own engine, so a cold
    // start counts against it rather than against the traced one.
    let bare = engine()?;
    let t = Instant::now();
    for p in &fixed.reqs[..fixed.sent] {
        let _ = black_box(call(&bare, &p.req));
    }
    let bare_s = t.elapsed().as_secs_f64();
    drop(bare);

    let traced = engine()?;
    let ServeEngine::Tiered(forest) = &traced else {
        unreachable!("built tiered")
    };
    let seeded_flushes = forest.flushes();
    let names = [
        "engine.get",
        "engine.insert",
        "engine.remove",
        "engine.range",
        "engine.rank",
        "engine.flush",
    ];
    let mut ns = [0u64; 6];
    let mut n = [0u64; 6];
    let tracer = ctx.tracer.as_mut().expect("traced run");
    let offset = tracer.at(fixed.slots.epoch);
    let t = Instant::now();
    for (i, p) in fixed.reqs[..fixed.sent].iter().enumerate() {
        let t0 = Instant::now();
        let reply = call(&traced, &p.req);
        let took = t0.elapsed().as_nanos() as u64;
        let k = p.kind as usize;
        ns[k] += took;
        n[k] += 1;
        rep.check(reply.as_ref().is_ok_and(|r| matches(&p.expect, r)), || {
            format!(
                "replayed {:?} expected {:?}, got {reply:?}",
                p.req, p.expect
            )
        });
        if fixed.outcome(i) == OK {
            let start = offset + fixed.slots.sent_ns[i].load(Ordering::Relaxed);
            let end = offset + fixed.slots.done_ns[i].load(Ordering::Relaxed);
            tracer.record(
                i as u64,
                &[
                    Span {
                        name: "gen.request",
                        start_ns: start,
                        end_ns: end,
                        parent: None,
                    },
                    Span {
                        name: names[k],
                        start_ns: start,
                        end_ns: (start + took).min(end),
                        parent: Some(0),
                    },
                ],
            );
        }
    }
    let traced_s = t.elapsed().as_secs_f64();
    let mean = |k: &[usize]| {
        k.iter().map(|&k| ns[k]).sum::<u64>() as f64
            / k.iter().map(|&k| n[k]).sum::<u64>().max(1) as f64
    };
    rep.set("engine.get_ns", mean(&[0]), "ns");
    rep.set("engine.write_ns", mean(&[1, 2]), "ns");
    rep.set("engine.range_ns", mean(&[3]), "ns");
    rep.set("engine.rank_ns", mean(&[4]), "ns");

    rep.set("trace.overhead_frac", traced_s / bare_s - 1.0, "ratio");
    rep.set(
        "tiered.flushes",
        (forest.flushes() - seeded_flushes) as f64,
        "count",
    );
    let snap = forest.snapshot();
    let base = snap.base().ok_or("replay engine has no base forest")?;
    let bytes: usize = base
        .shards()
        .map(|t| t.encode(&SaveOptions::new()).map_or(0, |b| b.len()))
        .sum();
    rep.set(
        "format.disk_bytes_per_key",
        bytes as f64 / base.len() as f64,
        "bytes",
    );
    let points: Vec<u64> = fixed
        .reqs
        .iter()
        .filter_map(|p| match p.req {
            Request::Get { key } => Some(key),
            _ => None,
        })
        .collect();
    let starts: Vec<u64> = fixed
        .reqs
        .iter()
        .filter_map(|p| match p.req {
            Request::Range { lo, .. } => Some(base.lower_bound_rank(lo)),
            _ => None,
        })
        .collect();
    layers::probe_forest(base, &points, &starts, rep);
    Ok(())
}

/// Codec costs over the fixed phase's requests and their replies.
fn protocol_costs(fixed: &[Planned], rep: &mut Report) {
    let n = fixed.len().max(1) as f64;
    let mut frames = Vec::with_capacity(fixed.len());
    let t = Instant::now();
    for (i, p) in fixed.iter().enumerate() {
        let mut buf = Vec::with_capacity(32);
        encode_request(i as u32, black_box(&p.req), &mut buf);
        frames.push(buf);
    }
    rep.set(
        "protocol.encode_request_ns",
        t.elapsed().as_nanos() as f64 / n,
        "ns",
    );
    let bytes: usize = frames.iter().map(Vec::len).sum();
    rep.set("protocol.request_bytes", bytes as f64 / n, "bytes");
    let t = Instant::now();
    for f in &frames {
        black_box(decode_request(&f[4..]).is_ok());
    }
    rep.set(
        "protocol.decode_request_ns",
        t.elapsed().as_nanos() as f64 / n,
        "ns",
    );
    let replies: Vec<(Request, Reply)> = fixed
        .iter()
        .map(|p| {
            let reply = match &p.expect {
                Expect::Found => Reply::Hit {
                    found: true,
                    shard: 0,
                    position: 0,
                },
                Expect::Applied(a) => Reply::Applied { applied: *a },
                Expect::Flushed => Reply::Applied { applied: true },
                Expect::Keys(k) => Reply::Keys {
                    truncated: false,
                    keys: k.clone(),
                },
                Expect::Rank(r) => Reply::Rank { rank: *r },
            };
            (p.req.clone(), reply)
        })
        .collect();
    let mut encoded = Vec::with_capacity(replies.len());
    let t = Instant::now();
    for (i, (req, reply)) in replies.iter().enumerate() {
        let mut out = Vec::with_capacity(32);
        encode_ok(i as u32, req.opcode(), black_box(reply), &mut out);
        encoded.push(out);
    }
    rep.set(
        "protocol.encode_reply_ns",
        t.elapsed().as_nanos() as f64 / n,
        "ns",
    );
    let t = Instant::now();
    for b in &encoded {
        black_box(decode_response(&b[4..]).is_ok());
    }
    rep.set(
        "protocol.decode_response_ns",
        t.elapsed().as_nanos() as f64 / n,
        "ns",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_predicts_what_a_btreeset_answers() {
        let mut gen = Generator::new(5);
        let mut reqs = gen.phase(
            20_000.0,
            Duration::from_millis(300),
            Some(Duration::from_millis(100)),
        );
        reqs.extend(gen.phase(30_000.0, Duration::from_millis(300), None));
        assert_eq!(reqs.iter().filter(|p| p.kind == Kind::Flush).count(), 1);
        let mut set: std::collections::BTreeSet<u64> = (1..=KEYS).map(|r| 2 * r).collect();
        for p in &reqs {
            let want = match p.req {
                Request::Get { key } => {
                    assert!(set.contains(&key));
                    Expect::Found
                }
                Request::Insert { key } => Expect::Applied(set.insert(key)),
                Request::Remove { key } => Expect::Applied(set.remove(&key)),
                Request::Range { lo, hi, .. } => {
                    Expect::Keys(set.range(lo..=hi).copied().collect())
                }
                Request::Rank { key } => Expect::Rank(set.range(..key).count() as u64),
                Request::Flush => Expect::Flushed,
                _ => unreachable!(),
            };
            assert_eq!(want, p.expect, "{:?}", p.req);
        }
    }
}
