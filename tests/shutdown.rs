//! `Server::shutdown` always returns.
//!
//! A connection thread parks in a blocking socket read whose only deadline
//! is the idle timeout (60 s by default); shutdown ends that read by shutting
//! the registered socket down, not by waiting for the deadline.  One test
//! holds such a silent connection open across a shutdown.
//!
//! A request waiting for an execution slot must not miss the wake-up
//! shutdown sends it: the stop flag is raised under the slot lock, so the
//! waiter either sees it or is already waiting when `notify_all` runs.  A
//! lost wake-up would park the waiter's connection thread, and the join in
//! `shutdown` with it, forever.  The last test puts such a waiter in line —
//! one request holds the only slot while another waits for it when shutdown
//! begins.  The cycle tests run thousands of `bind` + `shutdown` cycles of a
//! one-slot server, shutting down at every point of its start-up.  Every
//! scenario runs on a thread of its own under a watchdog that fails the test
//! when it takes longer than any healthy run could.

use deepdive_repro::prelude::*;
use deepdive_repro::server::{ErrorKind, SnapshotBatchHandler};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// A healthy cycle takes well under a millisecond.
const STALL: Duration = Duration::from_secs(20);

fn reader() -> SnapshotReader {
    SnapshotReader::fixed(Snapshot::synthetic(1, Vec::new(), CatalogShards::new()))
}

fn bind_and_shut_down(cycles: usize) {
    let reader = reader();
    let (done, progress) = mpsc::channel();
    let cycler = thread::spawn(move || {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        for cycle in 0..cycles {
            let server =
                Server::bind("127.0.0.1:0", reader.clone(), config.clone()).expect("server binds");
            server.shutdown();
            if done.send(cycle).is_err() {
                return;
            }
        }
    });
    for expected in 0..cycles {
        match progress.recv_timeout(STALL) {
            Ok(cycle) => assert_eq!(cycle, expected),
            Err(_) => panic!("shutdown hung in cycle {expected} of {cycles}"),
        }
    }
    cycler.join().expect("the cycling thread finishes");
}

#[test]
fn shutdown_never_loses_the_workers_wake_up() {
    bind_and_shut_down(5_000);
}

#[test]
#[ignore = "soak: cargo test --release --test shutdown -- --ignored"]
fn shutdown_never_loses_the_workers_wake_up_soak() {
    bind_and_shut_down(20_000);
}

#[test]
fn shutdown_answers_a_request_waiting_for_the_slot() {
    let (done, finished) = mpsc::channel();
    let scenario = thread::spawn(move || {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let handler = Arc::new(SnapshotBatchHandler::new(reader(), true));
        let server =
            Server::bind_with_handler("127.0.0.1:0", handler, config).expect("server binds");
        let addr = server.local_addr();
        let holder = thread::spawn(move || {
            let mut client = Client::connect(addr).expect("holder connects");
            // Its answer may be lost to the closing socket; only the hang matters.
            let _ = client.batch(vec![Op::Sleep { millis: 2_000 }]);
        });
        thread::sleep(Duration::from_millis(300)); // the holder now has the slot
        let waiter = thread::spawn(move || {
            let mut client = Client::connect(addr).expect("waiter connects");
            client.batch(vec![Op::Epoch])
        });
        thread::sleep(Duration::from_millis(300)); // the waiter is now in line
        server.shutdown();
        let answer = waiter.join().expect("the waiter returns");
        holder.join().expect("the holder returns");
        let _ = done.send(answer);
    });
    let answer = finished
        .recv_timeout(STALL)
        .expect("shutdown hung with a request waiting for the slot");
    match answer {
        Err(ClientError::Server {
            kind: ErrorKind::ShuttingDown,
            ..
        })
        | Err(ClientError::Io(_))
        | Err(ClientError::Frame(_)) => {}
        other => panic!("expected shutting_down or a closed socket, got {other:?}"),
    }
    scenario.join().expect("the scenario thread finishes");
}

#[test]
fn shutdown_unblocks_a_connection_parked_in_a_read() {
    let (done, finished) = mpsc::channel();
    let scenario = thread::spawn(move || {
        let config = ServerConfig::default();
        assert_eq!(config.idle_timeout, Duration::from_secs(60));
        assert!(
            config.idle_timeout > STALL,
            "the deadline must not end the read"
        );
        let server = Server::bind("127.0.0.1:0", reader(), config).expect("server binds");
        // Served once, then silent: its thread is parked reading the next
        // frame, with nothing but the idle deadline to wake it.
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        assert_eq!(client.epoch().expect("epoch"), 1);
        let silent = TcpStream::connect(server.local_addr()).expect("silent connects");
        thread::sleep(Duration::from_millis(100)); // both threads are parked
        server.shutdown();
        drop((client, silent));
        let _ = done.send(());
    });
    finished
        .recv_timeout(STALL)
        .expect("shutdown hung on a connection parked in a read");
    scenario.join().expect("the scenario thread finishes");
}
