//! Concurrent serving: N reader threads hammer `Snapshot::probability_of` and
//! `FactQuery` while the main thread executes incremental updates.  Every
//! reader must observe a sequence of fully consistent epochs — monotonically
//! increasing, internally coherent (no torn reads), with the supervised fact
//! pinned at probability 1.0 in every epoch that contains it.

mod support;

use deepdive_repro::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use support::spouses::{engine, supervised, update_for};

#[test]
fn readers_observe_consistent_epochs_during_updates() {
    const READERS: usize = 4;
    const UPDATES: i64 = 3;

    let mut engine = engine();
    engine.initial_run().expect("initial run");
    engine.materialize().unwrap();
    let reader = engine.reader();
    let stop = AtomicBool::new(false);
    let supervised = supervised();

    thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let reader = reader.clone();
                let supervised = supervised.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    let mut epochs_seen = 0u64;
                    let mut reads = 0u64;
                    loop {
                        let done = stop.load(Ordering::Relaxed);
                        let snap = reader.snapshot();

                        // Epochs only move forward.
                        assert!(
                            snap.epoch() >= last_epoch,
                            "epoch went backwards: {} -> {}",
                            last_epoch,
                            snap.epoch()
                        );
                        if snap.epoch() != last_epoch {
                            last_epoch = snap.epoch();
                            epochs_seen += 1;
                        }

                        // The supervised fact is pinned at 1.0 in every epoch.
                        assert_eq!(
                            snap.probability_of("MarriedMentions", &supervised),
                            Some(1.0),
                            "supervised fact not pinned in epoch {}",
                            snap.epoch()
                        );

                        // No torn reads: every catalog entry resolves inside
                        // this snapshot's own marginal vector, and the stats
                        // agree with the catalog — the snapshot is one
                        // consistent version, not a mix of two epochs.
                        let all = snap.facts("MarriedMentions").run();
                        assert_eq!(all.len(), snap.num_catalogued_variables());
                        assert_eq!(snap.stats().num_variables, snap.marginals().len());
                        assert!(all.iter().all(|(_, p)| (0.0..=1.0).contains(p)));

                        // Paginated top-k agrees with the full scan of the
                        // same snapshot (it could not if rows came from
                        // different versions).
                        let top = snap.facts("MarriedMentions").top_k(1).run();
                        let best = all
                            .iter()
                            .map(|(_, p)| *p)
                            .fold(f64::NEG_INFINITY, f64::max);
                        assert_eq!(top[0].1, best);

                        reads += 1;
                        if done {
                            break;
                        }
                    }
                    (epochs_seen, reads)
                })
            })
            .collect();

        // Writer: run incremental updates while the readers hammer away.
        for i in 0..UPDATES {
            engine
                .run_update(&update_for(i), ExecutionMode::Incremental)
                .expect("update applies");
        }
        stop.store(true, Ordering::Relaxed);

        for handle in handles {
            let (epochs_seen, reads) = handle.join().expect("reader thread panicked");
            assert!(reads > 0);
            assert!(epochs_seen >= 1);
        }
    });

    // All epochs published: initial run + one per update.
    assert_eq!(engine.epoch(), 1 + UPDATES as u64);
    // A handle taken now serves the final epoch, and the new pairs are there.
    let final_snap = reader.snapshot();
    assert_eq!(final_snap.epoch(), engine.epoch());
    for i in 0..UPDATES {
        let pair = Tuple::from_iter([Value::Int(100 + 2 * i), Value::Int(101 + 2 * i)]);
        assert!(
            final_snap
                .probability_of("MarriedMentions", &pair)
                .is_some(),
            "pair from update {i} missing in final epoch"
        );
    }
}

#[test]
fn snapshots_taken_before_an_update_are_immutable() {
    let mut engine = engine();
    engine.initial_run().expect("initial run");
    engine.materialize().unwrap();
    let before = engine.snapshot();
    let facts_before = before.facts("MarriedMentions").run();

    engine
        .run_update(&update_for(0), ExecutionMode::Incremental)
        .expect("update applies");

    // The old snapshot is untouched by the update...
    assert_eq!(before.epoch(), 1);
    assert_eq!(before.facts("MarriedMentions").run(), facts_before);
    // ...while the engine already serves the next epoch with more facts.
    let after = engine.snapshot();
    assert_eq!(after.epoch(), 2);
    assert!(after.facts("MarriedMentions").run().len() > facts_before.len());
}
