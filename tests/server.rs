//! The network front door, proven under real concurrency and hostile bytes.
//!
//! Mirrors `tests/serving.rs` *through the socket*: concurrent TCP clients
//! must observe only consistent, monotone epochs while `run_update` publishes
//! new ones — and on top of that, the wire layer must shrug off malformed
//! frames, truncated prefixes, oversized declarations, and random fuzz
//! without a panic or a wedged connection, the bounded line of requests
//! waiting for an execution slot must refuse floods with a typed
//! `overloaded` response and recover after the drain, and a panicking batch
//! must neither take its connection down nor keep its slot.

mod support;

use deepdive_repro::prelude::*;
use deepdive_repro::server::{BatchHandler, ErrorKind, Request, Response, SnapshotBatchHandler};
use deepdive_repro::wire::json::{parse, Json};
use deepdive_repro::wire::{read_frame, write_frame, FrameError};
use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;
use support::spouses::{engine, supervised, update_for};
use support::Rng;

/// A reader over a tiny synthetic snapshot, for tests that exercise the wire
/// layer and don't need a live engine behind the socket.
fn synthetic_reader() -> SnapshotReader {
    let mut catalog = std::collections::HashMap::new();
    catalog.insert(
        ("Fact".to_string(), deepdive_repro::relstore::tuple![1i64]),
        0usize,
    );
    catalog.insert(
        ("Fact".to_string(), deepdive_repro::relstore::tuple![2i64]),
        1usize,
    );
    SnapshotReader::fixed(Snapshot::synthetic(
        1,
        vec![0.9, 0.4],
        CatalogShards::build(catalog.iter(), 1),
    ))
}

/// The consistency batch the concurrent clients hammer with: every result
/// must come from one snapshot, so the cross-checks below can only pass if
/// the server really pinned a single epoch for the whole batch.
fn consistency_ops(supervised: &Tuple) -> Vec<Op> {
    vec![
        Op::Stats,
        Op::probability_of("MarriedMentions", supervised.clone()),
        Op::query("MarriedMentions", FactQuerySpec::default()),
        Op::query(
            "MarriedMentions",
            FactQuerySpec {
                top_k: Some(1),
                ..FactQuerySpec::default()
            },
        ),
    ]
}

/// Assert one batch answer is internally consistent; returns its epoch.
fn check_consistency(batch: &deepdive_repro::server::Batch) -> u64 {
    let OpResult::Stats { num_catalogued, .. } = batch.results[0] else {
        panic!("expected stats, got {:?}", batch.results[0]);
    };
    let OpResult::Probability(supervised_p) = batch.results[1] else {
        panic!("expected probability, got {:?}", batch.results[1]);
    };
    let OpResult::Facts(ref all) = batch.results[2] else {
        panic!("expected facts, got {:?}", batch.results[2]);
    };
    let OpResult::Facts(ref top) = batch.results[3] else {
        panic!("expected facts, got {:?}", batch.results[3]);
    };

    // The supervised fact is pinned at 1.0 in every epoch that has it.
    assert_eq!(
        supervised_p,
        Some(1.0),
        "supervised fact not pinned in epoch {}",
        batch.epoch
    );
    // The full scan agrees with the catalog of the same snapshot — a mix of
    // two epochs would disagree while an update is being published.
    assert_eq!(all.len(), num_catalogued);
    assert!(all.iter().all(|(_, p)| (0.0..=1.0).contains(p)));
    // Top-k over the same pinned snapshot matches the full scan's maximum.
    let best = all
        .iter()
        .map(|(_, p)| *p)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(top[0].1, best);
    batch.epoch
}

#[test]
fn concurrent_clients_observe_consistent_epochs_during_updates() {
    const CLIENTS: usize = 4;
    const UPDATES: i64 = 3;

    let mut engine = engine();
    engine.initial_run().expect("initial run");
    engine.materialize().unwrap();
    let server = Server::bind("127.0.0.1:0", engine.reader(), ServerConfig::default())
        .expect("server binds");
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let supervised = supervised();

    thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let supervised = supervised.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut last_epoch = 0u64;
                    let mut epochs_seen = 0u64;
                    let mut batches = 0u64;
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        let batch = client
                            .batch(consistency_ops(&supervised))
                            .expect("batch succeeds");
                        let epoch = check_consistency(&batch);
                        // Epochs only move forward on one connection.
                        assert!(
                            epoch >= last_epoch,
                            "epoch went backwards over the socket: {last_epoch} -> {epoch}"
                        );
                        if epoch != last_epoch {
                            last_epoch = epoch;
                            epochs_seen += 1;
                        }
                        batches += 1;
                        if done {
                            break;
                        }
                    }
                    (epochs_seen, batches)
                })
            })
            .collect();

        // The writer thread: live incremental updates while clients hammer.
        for i in 0..UPDATES {
            engine
                .run_update(&update_for(i), ExecutionMode::Incremental)
                .expect("update applies");
        }
        stop.store(true, Ordering::Relaxed);

        for handle in handles {
            let (epochs_seen, batches) = handle.join().expect("client thread panicked");
            assert!(batches > 0);
            assert!(epochs_seen >= 1);
        }
    });

    // A fresh connection now serves the final epoch with every new pair.
    let mut client = Client::connect(addr).expect("client connects");
    assert_eq!(client.epoch().expect("epoch"), 1 + UPDATES as u64);
    assert_eq!(client.epoch().expect("epoch"), engine.epoch());
    for i in 0..UPDATES {
        let pair = Tuple::from_iter([Value::Int(100 + 2 * i), Value::Int(101 + 2 * i)]);
        let (_, p) = client
            .probability_of("MarriedMentions", pair)
            .expect("lookup");
        assert!(p.is_some(), "pair from update {i} missing in final epoch");
    }
    assert_eq!(
        client.relations().expect("relations"),
        vec!["MarriedMentions".to_string()]
    );
    assert!(server.stats().batches_served > 0);
    server.shutdown();
}

/// Send `payload` as one well-formed frame and decode the one response frame.
fn roundtrip_raw(stream: &mut TcpStream, payload: &[u8]) -> Json {
    write_frame(stream, payload).expect("frame writes");
    stream.flush().expect("flush");
    let response = read_frame(stream, 1 << 20).expect("response frame");
    parse(std::str::from_utf8(&response).expect("utf-8 response")).expect("json response")
}

fn error_kind(doc: &Json) -> Option<&str> {
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    doc.get("error")?.get("kind")?.as_str()
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let server = Server::bind("127.0.0.1:0", synthetic_reader(), ServerConfig::default())
        .expect("server binds");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Garbage payload in a well-formed frame: typed malformed_frame error.
    let doc = roundtrip_raw(&mut stream, b"this is not json {{{");
    assert_eq!(error_kind(&doc), Some("malformed_frame"));

    // Non-UTF-8 payload: same taxonomy.
    let doc = roundtrip_raw(&mut stream, &[0xff, 0xfe, 0x00, 0x80]);
    assert_eq!(error_kind(&doc), Some("malformed_frame"));

    // 100 KB of '[' — hostile nesting depth must be a typed parse error,
    // not a connection-thread stack overflow (which would abort the whole
    // server process).
    let doc = roundtrip_raw(&mut stream, "[".repeat(100_000).as_bytes());
    assert_eq!(error_kind(&doc), Some("malformed_frame"));

    // Well-formed JSON that is not a valid request: bad_request.
    let doc = roundtrip_raw(&mut stream, br#"{"ops": [{"op": "warp_drive"}]}"#);
    assert_eq!(error_kind(&doc), Some("bad_request"));

    // The sleep op is fault-injection only and this server didn't enable it.
    let doc = roundtrip_raw(
        &mut stream,
        br#"{"ops": [{"op": "sleep", "millis": 9999}]}"#,
    );
    assert_eq!(error_kind(&doc), Some("bad_request"));

    // The SAME connection still serves valid requests afterwards.
    let doc = roundtrip_raw(&mut stream, &Request::new(vec![Op::Epoch]).encode());
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("epoch").and_then(Json::as_f64), Some(1.0));

    // Three of the four probes fail at decode time (the disabled sleep op
    // decodes fine and is refused at execution instead).
    assert!(server.stats().malformed_frames >= 3);
    server.shutdown();
}

#[test]
fn truncated_and_oversized_frames_close_cleanly_without_taking_the_server_down() {
    let config = ServerConfig {
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", synthetic_reader(), config).expect("server binds");
    let addr = server.local_addr();

    // Truncated length prefix: two bytes, then half-close.  The server must
    // drop the connection without answering (nothing well-formed to answer).
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&[0x00, 0x00]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        assert!(matches!(
            read_frame(&mut stream, 1 << 20),
            Err(FrameError::Closed)
        ));
    }

    // Truncated payload: full prefix declaring 100 bytes, 3 delivered.
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(b"abc").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        assert!(matches!(
            read_frame(&mut stream, 1 << 20),
            Err(FrameError::Closed)
        ));
    }

    // Oversized declaration: typed `oversized` response, then close (the
    // stream cannot be re-synchronized past an unread declared payload).
    {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
        let response = read_frame(&mut stream, 1 << 20).expect("oversized response");
        let doc = parse(std::str::from_utf8(&response).unwrap()).unwrap();
        assert_eq!(error_kind(&doc), Some("oversized"));
        assert!(matches!(
            read_frame(&mut stream, 1 << 20),
            Err(FrameError::Closed)
        ));
    }

    // After all that abuse, a normal client still gets served.
    let mut client = Client::connect(addr).expect("client connects");
    assert_eq!(client.epoch().expect("epoch"), 1);
    server.shutdown();
}

#[test]
fn idle_and_stalled_connections_are_reaped_by_the_slowloris_deadline() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", synthetic_reader(), config).expect("server binds");
    let addr = server.local_addr();

    // One connection that never sends, one stalled mid-prefix: both must be
    // closed by the idle deadline instead of occupying slots forever.
    let mut silent = TcpStream::connect(addr).expect("connects");
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut stalled = TcpStream::connect(addr).expect("connects");
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stalled.write_all(&[0x00]).unwrap(); // one byte of a four-byte prefix
    assert!(
        matches!(read_frame(&mut silent, 1 << 20), Err(FrameError::Closed)),
        "silent connection not reaped"
    );
    assert!(
        matches!(read_frame(&mut stalled, 1 << 20), Err(FrameError::Closed)),
        "stalled connection not reaped"
    );

    // An active client keeps being served well past the idle window.
    let mut client = Client::connect(addr).expect("connects");
    for _ in 0..3 {
        assert_eq!(client.epoch().expect("epoch"), 1);
        thread::sleep(Duration::from_millis(120));
    }
    server.shutdown();
}

#[test]
fn random_byte_fuzz_yields_typed_errors_or_clean_closes_never_hangs() {
    let config = ServerConfig {
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", synthetic_reader(), config).expect("server binds");
    let addr = server.local_addr();
    // A fixed seed: the fuzz corpus is the same on every run.
    let mut rng = Rng(0xdd5e_17e5);

    for round in 0..60 {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let len = (rng.next() % 64) as usize;
        let junk: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        // The server may refuse and close while we are still writing (e.g. a
        // junk prefix declaring an oversized frame); a broken pipe here is an
        // acceptable outcome, not a failure.
        let _ = stream.write_all(&junk);
        let _ = stream.shutdown(Shutdown::Write);
        // Drain whatever the server sends: zero or more typed error frames,
        // then a close.  A read *timeout* here would mean a wedged
        // connection — that's the failure this test exists to catch.
        loop {
            match read_frame(&mut stream, 1 << 20) {
                Ok(frame) => {
                    let doc = parse(std::str::from_utf8(&frame).expect("utf-8"))
                        .expect("server always sends well-formed JSON");
                    assert_eq!(
                        doc.get("ok").and_then(Json::as_bool),
                        Some(false),
                        "round {round}: junk cannot produce a success response"
                    );
                    assert!(error_kind(&doc).is_some());
                }
                Err(FrameError::Closed) => break,
                // An abortive close (RST) is still a close, not a hang.
                Err(FrameError::Truncated { .. }) => break,
                Err(FrameError::Io(err))
                    if !matches!(
                        err.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break;
                }
                Err(other) => panic!("round {round}: connection wedged: {other}"),
            }
        }
    }

    // The server survived 60 rounds of garbage and still serves.
    let mut client = Client::connect(addr).expect("client connects");
    assert_eq!(client.epoch().expect("epoch"), 1);
    server.shutdown();
}

#[test]
fn bounded_queue_returns_overloaded_under_flood_and_recovers_after_drain() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    };
    let handler = SnapshotBatchHandler::new(synthetic_reader(), true);
    let server = Server::bind_with_handler("127.0.0.1:0", std::sync::Arc::new(handler), config)
        .expect("server binds");
    let addr = server.local_addr();

    thread::scope(|scope| {
        // Occupy the single worker for a while...
        let busy = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("connects");
            client
                .batch(vec![Op::Sleep { millis: 600 }])
                .expect("sleep batch")
        });
        thread::sleep(Duration::from_millis(150)); // worker now holds it
                                                   // ...fill both queue slots...
        let queued: Vec<_> = (0..2)
            .map(|_| {
                let handle = scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connects");
                    client
                        .batch(vec![Op::Sleep { millis: 0 }])
                        .expect("queued batch")
                });
                thread::sleep(Duration::from_millis(100)); // let it enqueue
                handle
            })
            .collect();

        // ...and the next request must be refused with the TYPED overload
        // signal — immediately, not after an unbounded wait.
        let mut flooded = Client::connect(addr).expect("connects");
        let refusal = flooded.batch(vec![Op::Epoch]).expect_err("must be refused");
        assert!(
            refusal.is_overloaded(),
            "expected overloaded, got: {refusal}"
        );
        match refusal {
            ClientError::Server { kind, message } => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert!(message.contains("capacity 2"));
            }
            other => panic!("expected a server refusal, got {other}"),
        }

        // Every admitted request completes normally.
        assert_eq!(busy.join().expect("busy client").epoch, 1);
        for handle in queued {
            assert_eq!(handle.join().expect("queued client").epoch, 1);
        }

        // After the drain, the SAME flooded connection is served again.
        let batch = flooded
            .batch(vec![Op::Epoch])
            .expect("recovers after drain");
        assert_eq!(batch.epoch, 1);
    });

    assert!(server.stats().overload_rejections >= 1);
    assert!(server.stats().batches_served >= 4);
    server.shutdown();
}

/// Answers every batch from the synthetic snapshot, except that a batch
/// asking for `relations` panics mid-execution.
struct PanicsOnRelations(SnapshotBatchHandler);

impl BatchHandler for PanicsOnRelations {
    fn execute(&self, request: &Request) -> Response {
        if request.ops.iter().any(|op| matches!(op, Op::Relations)) {
            panic!("injected handler panic");
        }
        self.0.execute(request)
    }
}

#[test]
fn a_panicking_batch_is_answered_internal_and_its_slot_is_released() {
    let handler = PanicsOnRelations(SnapshotBatchHandler::new(synthetic_reader(), false));
    // One slot: had the panic leaked it, every later batch would wait forever.
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind_with_handler("127.0.0.1:0", std::sync::Arc::new(handler), config)
        .expect("server binds");
    let addr = server.local_addr();
    // A leaked slot shows up as a timed-out read here, not as a hung test.
    let timely = ClientConfig {
        read_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, timely.clone()).expect("connects");
    for _ in 0..3 {
        match client.batch(vec![Op::Relations]) {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::Internal),
            other => panic!("expected a typed internal error, got {other:?}"),
        }
        // The same connection keeps serving...
        assert_eq!(client.epoch().expect("epoch after the panic"), 1);
    }
    // ...and so does a fresh one.
    let mut fresh = Client::connect_with(addr, timely).expect("connects");
    assert_eq!(fresh.epoch().expect("epoch on a fresh connection"), 1);
    assert_eq!(server.stats().batches_served, 4);
    server.shutdown();
}

/// CI soak: clients loop mixed batches against a live server while the
/// writer applies a stream of incremental updates.  Run explicitly with
/// `cargo test --release --test server -- --ignored`.
#[test]
#[ignore = "soak test; CI runs it explicitly"]
fn soak_concurrent_clients_with_live_updates() {
    const CLIENTS: usize = 4;
    const UPDATES: i64 = 6;

    let mut engine = engine();
    engine.initial_run().expect("initial run");
    engine.materialize().unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        engine.reader(),
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let supervised = supervised();

    thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|worker| {
                let supervised = supervised.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connects");
                    let mut last_epoch = 0u64;
                    let mut batches = 0u64;
                    let mut overloads = 0u64;
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        let mut ops = consistency_ops(&supervised);
                        ops.push(Op::query(
                            "MarriedMentions",
                            FactQuerySpec {
                                min_probability: 0.5,
                                top_k: Some(10),
                                offset: worker,
                                limit: Some(3),
                            },
                        ));
                        match client.batch(ops) {
                            Ok(batch) => {
                                let epoch = check_consistency(&batch);
                                assert!(epoch >= last_epoch, "epoch regression in soak");
                                last_epoch = epoch;
                                batches += 1;
                            }
                            // Backpressure is a legal answer under flood; the
                            // connection stays usable.
                            Err(err) if err.is_overloaded() => overloads += 1,
                            Err(err) => panic!("soak client failed: {err}"),
                        }
                        if done {
                            break;
                        }
                    }
                    (batches, overloads)
                })
            })
            .collect();

        for i in 0..UPDATES {
            engine
                .run_update(&update_for(i), ExecutionMode::Incremental)
                .expect("update applies");
            thread::sleep(Duration::from_millis(50));
        }
        stop.store(true, Ordering::Relaxed);

        let mut total_batches = 0;
        for handle in handles {
            let (batches, _overloads) = handle.join().expect("soak client panicked");
            assert!(batches > 0);
            total_batches += batches;
        }
        assert!(total_batches >= CLIENTS as u64);
    });

    assert_eq!(engine.epoch(), 1 + UPDATES as u64);
    let mut client = Client::connect(addr).expect("connects");
    assert_eq!(client.epoch().expect("epoch"), engine.epoch());
    server.shutdown();
}
