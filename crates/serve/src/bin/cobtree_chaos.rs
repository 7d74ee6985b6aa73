//! `cobtree-chaos` — the seeded chaos drill behind the CI `chaos`
//! job, emitting the `BENCH_chaos.json` artifact.
//!
//! ```text
//! cobtree-chaos [--seed N] [--keys N] [--shards N]
//!               [--duration-ms N] [--connections N] [--max-retries N]
//!               [--path DIR] [--out BENCH_chaos.json]
//! ```
//!
//! One full robustness episode, in process: boot a durable tiered
//! store behind the deterministic fault seam, bomb it for a healthy
//! baseline, bit-flip the next shard read so the background scrubber
//! quarantines exactly one shard, bomb again degraded (clients back
//! off and retry; only the quarantined key range answers `UNAVAIL`),
//! heal by flush, and bomb a third time. The artifact carries the
//! numbers the CI gates grep:
//!
//! * `lost_acked` — acknowledged durable writes missing after a cold
//!   reopen (**must be 0**);
//! * `quarantined` / `healed` — shards the episode quarantined and
//!   healed (**must be ≥ 1 each**);
//! * `p99_post_heal_ns` vs `p99_baseline_ns` — post-heal tail
//!   (**must stay ≤ 1.25× baseline**).

use cobtree_analysis::json::JsonObject;
use cobtree_core::io::{FaultIo, FaultKind, FaultRule, IoOp, ScratchDir, StorageIo};
use cobtree_core::protocol::{Request, Status};
use cobtree_core::NamedLayout;
use cobtree_search::tiered::TieredForest;
use cobtree_serve::bomber::{self, BomberConfig, OpMix};
use cobtree_serve::{Client, ServeEngine, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse()
        .unwrap_or_else(|_| panic!("{flag}: unparseable value"))
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mut seed: u64 = 42;
    let mut keys: u64 = 1 << 14;
    let mut shards: usize = 4;
    let mut duration = Duration::from_millis(1_500);
    let mut connections: usize = 4;
    let mut max_retries: u32 = 3;
    let mut path: Option<PathBuf> = None;
    let mut out = PathBuf::from("BENCH_chaos.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = parse("--seed", args.next()),
            "--keys" => keys = parse("--keys", args.next()),
            "--shards" => shards = parse("--shards", args.next()),
            "--duration-ms" => {
                duration = Duration::from_millis(parse("--duration-ms", args.next()));
            }
            "--connections" => connections = parse("--connections", args.next()),
            "--max-retries" => max_retries = parse("--max-retries", args.next()),
            "--path" => path = Some(PathBuf::from(parse::<String>("--path", args.next()))),
            "--out" => out = PathBuf::from(parse::<String>("--out", args.next())),
            "--help" | "-h" => {
                println!(
                    "usage: cobtree-chaos [--seed N] [--keys N] [--shards N] [--duration-ms N] \
                     [--connections N] [--max-retries N] [--path DIR] [--out FILE]"
                );
                return;
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    // `--path` names a directory the drill clears and then owns;
    // without it the store lives in a private scratch dir.
    let scratch = ScratchDir::new("chaos");
    let dir = match path {
        Some(p) => {
            std::fs::remove_dir_all(&p).ok();
            p
        }
        None => scratch.path().to_path_buf(),
    };

    // Boot: seed with clean I/O, reopen behind the fault seam so every
    // durable byte of the episode is observable and injectable.
    drop(
        TieredForest::builder()
            .layout(NamedLayout::MinWep)
            .shards(shards)
            .path(&dir)
            .background(false)
            .keys((1..=keys).map(|k| k * 2))
            .build()
            .expect("seed store"),
    );
    let fault = Arc::new(FaultIo::passthrough());
    let tiered = Arc::new(
        TieredForest::builder()
            .path(&dir)
            .background(false)
            .io(Arc::clone(&fault) as Arc<dyn StorageIo>)
            .build()
            .expect("reopen behind fault seam"),
    );
    let server = Server::start(
        ServeEngine::Tiered(Arc::clone(&tiered)),
        "tcp:127.0.0.1:0",
        ServerConfig {
            durable_writes: true,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr().to_spec();
    bomber::await_ready(&addr, Duration::from_secs(10)).expect("server ready");

    let bomb = BomberConfig {
        addr: addr.clone(),
        connections,
        users: keys.min(1 << 20),
        zipf_s: 0.9,
        window: 32,
        mix: OpMix::parse("85,8,2,0,5").expect("mix"),
        duration,
        seed,
        max_retries,
        ..BomberConfig::default()
    };
    eprintln!("[chaos] phase 1: healthy baseline");
    let baseline = bomber::run(&bomb).expect("baseline run");
    assert!(baseline.completed > 0, "baseline served nothing");

    // Corrupt: arm a bit-flip on the next shard read — the scrubber's.
    eprintln!("[chaos] phase 2: bit-flip next shard read, scrub");
    let mut client = Client::connect(&addr).expect("connect");
    fault.add_rule(FaultRule {
        op: IoOp::Read,
        nth: fault.op_count(IoOp::Read) + 1,
        kind: FaultKind::BitFlip(seed),
    });
    let scrub = tiered.scrub_step(0);
    let quarantined = scrub.newly_quarantined.len() as u64;
    assert!(quarantined >= 1, "scrub never quarantined: {scrub:?}");

    eprintln!("[chaos] phase 3: degraded bombing (UNAVAIL + retries)");
    let degraded = bomber::run(&BomberConfig {
        mix: OpMix::parse("100,0,0,0,0").expect("mix"),
        ..bomb.clone()
    })
    .expect("degraded run");
    assert!(degraded.completed > 0, "degraded store stopped serving");

    // Heal: one acked durable write forces a republishing flush.
    eprintln!("[chaos] phase 4: heal by flush");
    let heal_key = 2 * keys + 99_999;
    assert_eq!(
        client
            .call(&Request::Insert { key: heal_key })
            .expect("insert")
            .status,
        Status::Ok
    );
    assert_eq!(
        client.call(&Request::Flush).expect("flush").status,
        Status::Ok
    );
    let healed = tiered.heals();
    assert_eq!(tiered.quarantined_shards(), 0, "flush must heal");

    eprintln!("[chaos] phase 5: post-heal bombing");
    let post = bomber::run(&bomb).expect("post-heal run");
    let stats = client.stats().expect("stats");
    drop(client);
    server.shutdown().expect("shutdown");

    // Cold-reopen audit: every key the episode guarantees durable.
    let reopened: TieredForest<u64> = TieredForest::open(&dir).expect("cold reopen");
    let mut lost_acked = 0u64;
    for k in (1..=keys).map(|k| k * 2).chain([heal_key]) {
        if reopened.locate(k).is_none() {
            lost_acked += 1;
        }
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();

    let json = JsonObject::new()
        .with("bench", "chaos")
        .with("schema_version", 1u64)
        .with("seed", seed)
        .with("keys", keys)
        .with("shards", shards as u64)
        .with("lost_acked", lost_acked)
        .with("quarantined", quarantined)
        .with("healed", healed)
        .with("unavail_served", degraded.unavail)
        .with("client_retries", degraded.retries)
        .with("client_give_ups", degraded.give_ups)
        .with(
            "scrub_passes",
            stats.scrub_passes.max(tiered.scrub_passes()),
        )
        .with("p99_baseline_ns", baseline.p99_ns)
        .with("p99_degraded_ns", degraded.p99_ns)
        .with("p99_post_heal_ns", post.p99_ns)
        .with(
            "p99_post_heal_ratio",
            if baseline.p99_ns > 0.0 {
                post.p99_ns / baseline.p99_ns
            } else {
                0.0
            },
        )
        .with("fault_events", fault.event_log().trim_end())
        .with("baseline", baseline.to_json_object())
        .with("degraded", degraded.to_json_object())
        .with("post_heal", post.to_json_object())
        .render();
    std::fs::write(&out, &json).expect("write artifact");
    eprintln!(
        "[chaos] lost_acked {lost_acked}, quarantined {quarantined}, healed {healed}, \
         p99 {:.0}us -> {:.0}us (degraded {:.0}us) -> {}",
        baseline.p99_ns / 1e3,
        post.p99_ns / 1e3,
        degraded.p99_ns / 1e3,
        out.display()
    );
    assert_eq!(lost_acked, 0, "acked durable writes lost");
    assert!(healed >= 1, "no shard healed");
}
