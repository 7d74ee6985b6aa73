//! End-to-end tests for the network serving subsystem: a real
//! `Server` on loopback, real sockets, and — the acceptance bar — a
//! single-worker server whose answers are **bit-identical** to direct
//! `Forest` calls over every read opcode.

use cobtree::core::io::ScratchDir;
use cobtree::core::protocol::{BatchHit, Reply, Request, Status, BUFFER_SHARD};
use cobtree::core::NamedLayout;
use cobtree::serve::{Client, ServeEngine, Server, ServerConfig};
use cobtree::{Forest, Storage, TieredForest};
use std::sync::Arc;
use std::time::Duration;

fn forest_engine(n: u64, shards: usize) -> (Arc<Forest<u64>>, ServeEngine) {
    let forest = Arc::new(
        Forest::builder()
            .layout(NamedLayout::MinWep)
            .storage(Storage::Implicit)
            .shards(shards)
            .keys((1..=n).map(|k| k * 2))
            .build()
            .expect("build forest"),
    );
    (Arc::clone(&forest), ServeEngine::Forest(forest))
}

fn one_worker() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// The acceptance parity sweep: every read opcode of a 1-worker server
/// answers exactly what the in-process `Forest` answers, over a probe
/// sweep that covers misses, hits, fences and out-of-range keys.
#[test]
fn one_worker_server_matches_direct_forest_calls() {
    let n = 2_000u64;
    let (forest, engine) = forest_engine(n, 3);
    let server = Server::start(engine, "tcp:127.0.0.1:0", one_worker()).expect("start");
    let addr = server.addr().to_spec();
    let mut client = Client::connect(&addr).expect("connect");

    let mut probes: Vec<u64> = (0..=(2 * n + 5)).step_by(13).collect();
    probes.extend([0, 1, 2, 2 * n - 1, 2 * n, 2 * n + 1, u64::MAX]);
    for &key in &probes {
        // Get ≡ locate.
        let expect = match forest.locate(key) {
            Some(h) => Reply::Hit {
                found: true,
                shard: h.shard as u32,
                position: h.position,
            },
            None => Reply::Hit {
                found: false,
                shard: 0,
                position: 0,
            },
        };
        assert_eq!(
            client.call_ok(&Request::Get { key }).expect("get"),
            expect,
            "get({key})"
        );
        // Bounds.
        let lb = forest.lower_bound(key);
        assert_eq!(
            client.call_ok(&Request::LowerBound { key }).expect("lb"),
            Reply::KeyOpt {
                found: lb.is_some(),
                key: lb.unwrap_or(0)
            },
            "lower_bound({key})"
        );
        let ub = forest.upper_bound(key);
        assert_eq!(
            client.call_ok(&Request::UpperBound { key }).expect("ub"),
            Reply::KeyOpt {
                found: ub.is_some(),
                key: ub.unwrap_or(0)
            },
            "upper_bound({key})"
        );
        // Rank.
        assert_eq!(
            client.call_ok(&Request::Rank { key }).expect("rank"),
            Reply::Rank {
                rank: forest.rank(key)
            },
            "rank({key})"
        );
    }

    // Select across the whole valid range plus both invalid ends.
    for rank in [0u64, 1, 2, n / 2, n - 1, n, n + 1, u64::MAX] {
        let expect = forest.select(rank);
        assert_eq!(
            client.call_ok(&Request::Select { rank }).expect("select"),
            Reply::KeyOpt {
                found: expect.is_some(),
                key: expect.unwrap_or(0)
            },
            "select({rank})"
        );
    }

    // Range windows, truncated and not.
    for (lo, hi, limit) in [(0u64, 50u64, 100u32), (7, 4001, 64), (3, 3, 5), (1, 1, 1)] {
        let reply = client
            .call_ok(&Request::Range { lo, hi, limit })
            .expect("range");
        let direct: Vec<u64> = forest.range(lo..=hi).collect();
        let expect_truncated = direct.len() > limit as usize;
        let expect_keys: Vec<u64> = direct.into_iter().take(limit as usize).collect();
        assert_eq!(
            reply,
            Reply::Keys {
                truncated: expect_truncated,
                keys: expect_keys
            },
            "range({lo},{hi},{limit})"
        );
    }

    // Sorted batch ≡ per-key locate.
    let batch: Vec<u64> = (0..500).map(|i| i * 11).collect();
    let Reply::Batch { hits } = client
        .call_ok(&Request::Batch {
            keys: batch.clone(),
        })
        .expect("batch")
    else {
        panic!("batch reply shape");
    };
    assert_eq!(hits.len(), batch.len());
    for (key, hit) in batch.iter().zip(&hits) {
        let expect = match forest.locate(*key) {
            Some(h) => BatchHit {
                found: true,
                shard: h.shard as u32,
                position: h.position,
            },
            None => BatchHit {
                found: false,
                shard: 0,
                position: 0,
            },
        };
        assert_eq!(*hit, expect, "batch probe {key}");
    }

    // Writes against an immutable forest are refused, not mis-applied.
    assert_eq!(
        client
            .call(&Request::Insert { key: 7 })
            .expect("insert")
            .status,
        Status::Unsupported
    );
    assert_eq!(
        client.call(&Request::Flush).expect("flush").status,
        Status::Unsupported
    );

    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.requests, stats.responses, "every request answered");
    assert_eq!(stats.frame_errors, 0);
    assert_eq!(stats.bad_requests, 0);
}

/// Multi-worker serving returns the same answers as single-worker
/// (shard handoff is invisible to clients), over TCP and Unix sockets.
#[test]
fn multi_worker_and_unix_socket_agree_with_direct_calls() {
    let n = 1_500u64;
    let (forest, engine) = forest_engine(n, 5);
    let dir = ScratchDir::new("serve-sock");
    for spec in [
        "tcp:127.0.0.1:0".to_string(),
        format!("unix:{}", dir.path().join("sock").display()),
    ] {
        let cfg = ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        };
        let server = Server::start(engine.clone(), &spec, cfg).expect("start");
        let addr = server.addr().to_spec();
        let mut client = Client::connect(&addr).expect("connect");
        for key in (0..=(2 * n + 3)).step_by(29) {
            let expect = forest.locate(key).map(|h| (h.shard as u32, h.position));
            let Reply::Hit {
                found,
                shard,
                position,
            } = client.call_ok(&Request::Get { key }).expect("get")
            else {
                panic!("hit shape")
            };
            assert_eq!(found, expect.is_some(), "get({key}) over {spec}");
            if let Some((s, p)) = expect {
                assert_eq!((shard, position), (s, p), "get({key}) over {spec}");
            }
        }
        let stats = server.shutdown().expect("shutdown");
        assert!(stats.handoffs > 0, "3 workers over 5 shards must hand off");
    }
}

/// The tiered engine over the wire: writes land, buffer hits are
/// flagged with `BUFFER_SHARD`, and every answer matches the direct
/// `TieredForest` API.
#[test]
fn tiered_engine_round_trip_with_writes() {
    let tiered: TieredForest<u64> = TieredForest::builder()
        .layout(NamedLayout::MinWep)
        .shards(2)
        .background(false)
        .keys((1..=500u64).map(|k| k * 2))
        .build()
        .expect("build tiered");
    let tiered = Arc::new(tiered);
    let engine = ServeEngine::Tiered(Arc::clone(&tiered));
    let server = Server::start(engine, "tcp:127.0.0.1:0", one_worker()).expect("start");
    let mut client = Client::connect(&server.addr().to_spec()).expect("connect");

    // Insert odd keys; they hit in the buffer tier.
    for key in (1..100u64).step_by(2) {
        assert_eq!(
            client.call_ok(&Request::Insert { key }).expect("insert"),
            Reply::Applied { applied: true }
        );
    }
    let Reply::Hit { found, shard, .. } = client.call_ok(&Request::Get { key: 51 }).expect("get")
    else {
        panic!("hit shape")
    };
    assert!(found);
    assert_eq!(shard, BUFFER_SHARD, "memtable hit is flagged as buffer");

    // Rank/bound answers match the engine mid-write.
    for key in [0u64, 1, 50, 51, 52, 997, 1000, 1001] {
        assert_eq!(
            client.call_ok(&Request::Rank { key }).expect("rank"),
            Reply::Rank {
                rank: tiered.rank(key)
            }
        );
        let lb = tiered.lower_bound(key);
        assert_eq!(
            client.call_ok(&Request::LowerBound { key }).expect("lb"),
            Reply::KeyOpt {
                found: lb.is_some(),
                key: lb.unwrap_or(0)
            }
        );
    }

    // Remove round-trips; removing twice reports applied = false.
    assert_eq!(
        client
            .call_ok(&Request::Remove { key: 51 })
            .expect("remove"),
        Reply::Applied { applied: true }
    );
    assert_eq!(
        client
            .call_ok(&Request::Remove { key: 51 })
            .expect("remove"),
        Reply::Applied { applied: false }
    );

    // Flush over the wire, then the server keeps answering.
    assert_eq!(
        client.call_ok(&Request::Flush).expect("flush"),
        Reply::Applied { applied: true }
    );
    let Reply::Hit { found, .. } = client.call_ok(&Request::Get { key: 53 }).expect("get") else {
        panic!("hit shape")
    };
    assert!(found, "flushed write still found");

    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.requests, stats.responses);
}

/// The adaptive engine over the wire: skewed traffic is sampled, a
/// `Reopt` request swaps at least one shard, the ordered query surface
/// stays bit-identical to a never-swapped oracle forest across the
/// swap, and the adaptive stats words ship over the wire.
#[test]
fn adaptive_engine_reopt_over_the_wire() {
    use cobtree::search::workload::{ZipfKeys, ZipfTable};
    use cobtree::serve::AdaptiveEngine;

    // 3 shards of 2048 keys: tall enough that the planner's optimizer
    // takes its greedy path (heights ≤ 10 descend a far slower local
    // search — fine offline, too slow for a debug-build wire test).
    let n = 6_144u64;
    let build = || {
        Forest::builder()
            .layout(NamedLayout::MinWep)
            .storage(Storage::Implicit)
            .shards(3)
            .keys((1..=n).map(|k| k * 2))
            .build()
            .expect("build forest")
    };
    // The oracle never sees traffic and never swaps; the served forest
    // starts identical to it.
    let oracle = build();
    let engine = ServeEngine::Adaptive(Arc::new(AdaptiveEngine::with_config(build(), 1, 0.15)));
    let server = Server::start(engine, "tcp:127.0.0.1:0", one_worker()).expect("start");
    let mut client = Client::connect(&server.addr().to_spec()).expect("connect");

    // The adaptive engine is read-only, exactly like the plain forest.
    assert_eq!(
        client
            .call(&Request::Insert { key: 7 })
            .expect("insert")
            .status,
        Status::Unsupported
    );

    // Drive skewed traffic through batch gets (sample interval 1, so
    // every served key lands in the sketch). Batches must be sorted.
    let table = ZipfTable::new(n, 1.2);
    let ranks: Vec<u64> = ZipfKeys::from_table(&table, 7).take(24_000).collect();
    for chunk in ranks.chunks(4_096) {
        let mut keys: Vec<u64> = chunk.iter().map(|r| r * 2).collect();
        keys.sort_unstable();
        let Reply::Batch { hits } = client.call_ok(&Request::Batch { keys }).expect("batch") else {
            panic!("batch reply shape");
        };
        assert!(hits.iter().all(|h| h.found), "zipf probes are stored keys");
    }

    let (scanned, swapped) = client.reopt().expect("reopt");
    assert_eq!(scanned, 3, "every dense shard is scanned");
    assert!(
        swapped >= 1,
        "skewed traffic re-optimizes at least one shard"
    );

    // Across the swap the ordered surface matches the oracle exactly.
    // `position` is a layout coordinate and legitimately moves when a
    // shard's layout is rebuilt, so Get compares (found, shard) only.
    let mut probes: Vec<u64> = (0..=(2 * n + 5)).step_by(17).collect();
    probes.extend([0, 1, 2, 2 * n - 1, 2 * n, 2 * n + 1, u64::MAX]);
    for &key in &probes {
        let Reply::Hit { found, shard, .. } = client.call_ok(&Request::Get { key }).expect("get")
        else {
            panic!("hit shape");
        };
        let expect = oracle.locate(key);
        assert_eq!(found, expect.is_some(), "get({key}) across swap");
        if let Some(h) = expect {
            assert_eq!(shard, h.shard as u32, "get({key}) shard across swap");
        }
        let lb = oracle.lower_bound(key);
        assert_eq!(
            client.call_ok(&Request::LowerBound { key }).expect("lb"),
            Reply::KeyOpt {
                found: lb.is_some(),
                key: lb.unwrap_or(0)
            },
            "lower_bound({key}) across swap"
        );
        assert_eq!(
            client.call_ok(&Request::Rank { key }).expect("rank"),
            Reply::Rank {
                rank: oracle.rank(key)
            },
            "rank({key}) across swap"
        );
    }
    for rank in [0u64, 1, n / 2, n, n + 1] {
        let expect = oracle.select(rank);
        assert_eq!(
            client.call_ok(&Request::Select { rank }).expect("select"),
            Reply::KeyOpt {
                found: expect.is_some(),
                key: expect.unwrap_or(0)
            },
            "select({rank}) across swap"
        );
    }
    let window: Vec<u64> = oracle.range(101..=999).collect();
    assert_eq!(
        client
            .call_ok(&Request::Range {
                lo: 101,
                hi: 999,
                limit: 4_096
            })
            .expect("range"),
        Reply::Keys {
            truncated: false,
            keys: window
        },
        "range across swap"
    );

    // The adaptive counters ride the ordinary STATS reply.
    let wire = client.stats().expect("stats");
    assert!(
        wire.sampled_reads >= 24_000,
        "interval 1 samples every batch get: {}",
        wire.sampled_reads
    );
    assert_eq!(wire.reopt_scans, 3);
    assert_eq!(wire.reopt_swaps, u64::from(swapped));

    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.requests, stats.responses);
    assert_eq!(stats.bad_requests, 0);
}

/// Explicit backpressure: a connection at its in-flight cap gets
/// `BUSY`, not unbounded buffering — and the refused requests are
/// still answered (every request gets exactly one response).
#[test]
fn inflight_cap_refuses_with_busy() {
    let n = 4_000u64;
    let (forest, engine) = forest_engine(n, 4);
    // Two workers so some shard is foreign to the connection's worker;
    // in-flight cap of 1 so pipelining past it must refuse.
    let cfg = ServerConfig {
        workers: 2,
        inflight_per_conn: 1,
        ..ServerConfig::default()
    };
    // The acceptor deals connections round-robin starting at worker 0,
    // so the FIRST connection lands on worker 0 — make that the raw
    // pipelined stream and probe a key worker 1 owns, forcing every
    // burst frame through the cross-worker handoff (and its cap).
    let foreign_key = (1..=n)
        .map(|k| k * 2)
        .find(|&k| forest.router().route(k).is_some_and(|s| s % 2 == 1))
        .expect("some key routes to an odd shard");
    let server = Server::start(engine, "tcp:127.0.0.1:0", cfg).expect("start");

    // Fire 16 gets in one burst over a raw pipelined stream.
    use cobtree::core::protocol::{decode_response, encode_request, FrameDecoder};
    use std::io::{Read, Write};
    let mut raw = cobtree::serve::net::NetStream::connect(
        &cobtree::serve::net::Addr::parse(&server.addr().to_spec()).unwrap(),
    )
    .expect("raw connect");
    let mut client = Client::connect(&server.addr().to_spec()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut burst = Vec::new();
    for req_id in 1..=16u32 {
        encode_request(req_id, &Request::Get { key: foreign_key }, &mut burst);
    }
    raw.write_all(&burst).expect("burst write");
    let mut decoder = FrameDecoder::new();
    let mut scratch = [0u8; 4096];
    let mut statuses = Vec::new();
    while statuses.len() < 16 {
        if let Some(body) = decoder.next_frame().expect("frame") {
            statuses.push(decode_response(&body).expect("decode").status);
            continue;
        }
        let got = raw.read(&mut scratch).expect("read");
        assert!(got > 0, "server hung up mid-burst");
        decoder.feed(&scratch[..got]);
    }
    let ok = statuses.iter().filter(|&&s| s == Status::Ok).count();
    let busy = statuses.iter().filter(|&&s| s == Status::Busy).count();
    assert_eq!(ok + busy, 16, "only OK or BUSY expected: {statuses:?}");
    assert!(busy >= 1, "the cap must refuse at least once: {statuses:?}");
    assert!(ok >= 1, "some lookups must succeed: {statuses:?}");

    // The control connection still works afterwards.
    client.ping().expect("server alive after backpressure");
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.busy, busy as u64);
}

/// A client-initiated `Shutdown` drains the server: the request is
/// acknowledged, the server leaves the running state, and the process
/// can join it without further client help.
#[test]
fn client_shutdown_request_drains_server() {
    let (_, engine) = forest_engine(200, 2);
    let server = Server::start(engine, "tcp:127.0.0.1:0", one_worker()).expect("start");
    let mut client = Client::connect(&server.addr().to_spec()).expect("connect");
    client.ping().expect("ping");
    client.shutdown_server().expect("shutdown request");
    assert!(server.is_draining());
    let stats = server.shutdown().expect("join");
    assert!(stats.requests >= 2);
    assert_eq!(stats.requests, stats.responses);
}

/// The `STATS` opcode ships live counters over the wire that match the
/// in-process snapshot.
#[test]
fn stats_opcode_reports_live_counters() {
    let (_, engine) = forest_engine(300, 2);
    let server = Server::start(engine, "tcp:127.0.0.1:0", one_worker()).expect("start");
    let mut client = Client::connect(&server.addr().to_spec()).expect("connect");
    for key in 0..50u64 {
        client.call_ok(&Request::Get { key }).expect("get");
    }
    let wire = client.stats().expect("stats over wire");
    assert!(wire.requests >= 50);
    assert_eq!(wire.connections_opened, 1);
    assert!(wire.sampled() >= 50, "latency histogram is populated");
    assert!(wire.latency_quantile_ns(0.5) > 0.0);
    let local = server.stats();
    assert!(local.requests >= wire.requests);
    server.shutdown().expect("shutdown");
}
