//! `Server::shutdown` always returns.
//!
//! A worker that has checked the stop flag but not yet started waiting for
//! work must not miss the wake-up shutdown sends it.  The window is a few
//! instructions wide, so it is hit by volume: thousands of `bind` +
//! `shutdown` cycles of a one-worker server, whose worker is often still in
//! that window when shutdown begins.  A lost wake-up parks the worker, and
//! the join in `shutdown` with it, forever — so the cycles run on a thread
//! of their own under a watchdog that fails the test when a cycle takes
//! longer than any healthy one could.

use deepdive_repro::prelude::*;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// A healthy cycle takes well under a millisecond.
const STALL: Duration = Duration::from_secs(20);

fn bind_and_shut_down(cycles: usize) {
    let reader = SnapshotReader::fixed(Snapshot::synthetic(1, Vec::new(), CatalogShards::new()));
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
