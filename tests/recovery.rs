//! Crash-recovery integration tests for the durability layer.
//!
//! Three kinds of fault are injected here, end to end through the public
//! `DeepDiveBuilder::durability` API:
//!
//! * **kill -9** — a child *process* (this same test binary, re-spawned in
//!   child mode) runs a workload against a data directory and `abort()`s
//!   without any cleanup; the parent recovers the directory and asserts the
//!   recovered engine is *byte-identical* (via the canonical snapshot
//!   encoding) to a reference engine that executed the same operations and
//!   never crashed.
//! * **byte-level WAL damage** — the log's final record is truncated at every
//!   byte boundary and bit-flipped at every byte offset; recovery must never
//!   panic, and must land exactly on the state without the damaged operation.
//! * **checkpoint damage** — the newest checkpoint file is corrupted;
//!   recovery must fall back to the previous checkpoint and replay the WAL
//!   forward without losing a single operation.
//!
//! Recovery is also exercised for idempotency (recovering the same directory
//! twice changes nothing, on disk or in the recovered state — including with
//! `.tmp` debris from a crashed checkpoint rotation), and a recovered engine
//! is put behind a real `dd-server` socket to prove it serves the exact
//! pre-crash answers, pinned supervised facts included.
//!
//! Every engine samples with the one sequential Gibbs sampler, so a run and
//! its WAL replay are bit-exact per seed at any graph size — the property
//! the byte-identical assertions lean on.  The small program below keeps the
//! fault sweeps fast; the "replay at any graph size" test holds the same
//! rule on a graph with over 2 000 coupled variables.

mod support;

use deepdive_repro::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use support::scratch_dir;
use support::spouses::PROGRAM;

fn database() -> Database {
    let mut db = Database::new();
    db.create_table(
        "Sentence",
        Schema::of(&[("s", DataType::Int), ("content", DataType::Text)]),
    )
    .unwrap();
    db.create_table(
        "PersonCandidate",
        Schema::of(&[
            ("s", DataType::Int),
            ("m", DataType::Int),
            ("t", DataType::Text),
        ]),
    )
    .unwrap();
    db.create_table(
        "EL",
        Schema::of(&[("m", DataType::Int), ("e", DataType::Text)]),
    )
    .unwrap();
    db.create_table(
        "Married",
        Schema::of(&[("e1", DataType::Text), ("e2", DataType::Text)]),
    )
    .unwrap();
    db.insert_all(
        "Sentence",
        vec![
            Tuple::from_iter([
                Value::Int(1),
                Value::text("Barack and his wife Michelle attended the dinner"),
            ]),
            Tuple::from_iter([
                Value::Int(2),
                Value::text("George and his wife Laura were married"),
            ]),
            Tuple::from_iter([
                Value::Int(3),
                Value::text("Malia and Sasha attended the state dinner"),
            ]),
        ],
    )
    .unwrap();
    db.insert_all(
        "PersonCandidate",
        vec![
            Tuple::from_iter([Value::Int(1), Value::Int(10), Value::text("Barack")]),
            Tuple::from_iter([Value::Int(1), Value::Int(11), Value::text("Michelle")]),
            Tuple::from_iter([Value::Int(2), Value::Int(20), Value::text("George")]),
            Tuple::from_iter([Value::Int(2), Value::Int(21), Value::text("Laura")]),
            Tuple::from_iter([Value::Int(3), Value::Int(30), Value::text("Malia")]),
            Tuple::from_iter([Value::Int(3), Value::Int(31), Value::text("Sasha")]),
        ],
    )
    .unwrap();
    db.insert_all(
        "EL",
        vec![
            Tuple::from_iter([Value::Int(10), Value::text("Barack_Obama_1")]),
            Tuple::from_iter([Value::Int(11), Value::text("Michelle_Obama_1")]),
        ],
    )
    .unwrap();
    db.insert_all(
        "Married",
        vec![Tuple::from_iter([
            Value::text("Barack_Obama_1"),
            Value::text("Michelle_Obama_1"),
        ])],
    )
    .unwrap();
    db
}

/// A durable engine over `dir` — opens a pristine directory or recovers an
/// existing one.
fn durable(dir: &Path) -> DeepDive {
    DeepDive::builder()
        .program_text(PROGRAM)
        .database(database())
        .config(EngineConfig::fast())
        .durability(DurabilityConfig::new(dir))
        .build()
        .expect("durable engine opens or recovers")
}

/// The in-memory twin: same program, database, and config — no data dir.
fn in_memory() -> DeepDive {
    DeepDive::builder()
        .program_text(PROGRAM)
        .database(database())
        .config(EngineConfig::fast())
        .build()
        .expect("in-memory engine builds")
}

/// The canonical operation sequence every test draws a prefix of.  Ops 6 and
/// 7 exercise the retraction surface: a deletion update that compacts the
/// factor graph (op 6) and a supervision retraction logged as its own
/// `RetractSupervision` WAL record (op 7) — so every kill-9 boundary,
/// truncation sweep, and bit-flip sweep below covers them too.
const NUM_OPS: u64 = 7;

fn apply_op(dd: &mut DeepDive, op: u64) {
    match op {
        1 => {
            dd.initial_run().unwrap();
        }
        2 => dd.materialize().unwrap(),
        3 => {
            // New supervision: George/Laura become a known married pair.
            let mut update = KbcUpdate::new();
            update
                .insert(
                    "EL",
                    Tuple::from_iter([Value::Int(20), Value::text("George_Bush_1")]),
                )
                .insert(
                    "EL",
                    Tuple::from_iter([Value::Int(21), Value::text("Laura_Bush_1")]),
                )
                .insert(
                    "Married",
                    Tuple::from_iter([Value::text("George_Bush_1"), Value::text("Laura_Bush_1")]),
                );
            dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        }
        4 => {
            // New document: the graph grows past the materialization.
            let mut update = KbcUpdate::new();
            update
                .insert(
                    "Sentence",
                    Tuple::from_iter([
                        Value::Int(4),
                        Value::text("Franklin and his wife Eleanor hosted the gala"),
                    ]),
                )
                .insert(
                    "PersonCandidate",
                    Tuple::from_iter([Value::Int(4), Value::Int(40), Value::text("Franklin")]),
                )
                .insert(
                    "PersonCandidate",
                    Tuple::from_iter([Value::Int(4), Value::Int(41), Value::text("Eleanor")]),
                );
            dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        }
        5 => {
            dd.refresh().unwrap();
        }
        6 => {
            // Retract the document added by op 4: the candidate pair, its
            // variable, and its factors are swap-remove-compacted away, and
            // the stale materialization is dropped.
            let mut update = KbcUpdate::new();
            update.delete(
                "PersonCandidate",
                Tuple::from_iter([Value::Int(4), Value::Int(40), Value::text("Franklin")]),
            );
            dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        }
        7 => {
            // Un-pin the original supervised fact; logged as its own
            // `RetractSupervision` WAL op.
            dd.retract_supervision(
                "MarriedMentions",
                Tuple::from_iter([Value::Int(10), Value::Int(11)]),
            )
            .unwrap();
        }
        _ => unreachable!("op {op} is not part of the canonical sequence"),
    }
}

/// `(epoch, canonical snapshot bytes)` of an engine that executed ops
/// `1..=upto` and never crashed.
fn reference_state(upto: u64) -> (u64, Vec<u8>) {
    let mut dd = in_memory();
    for op in 1..=upto {
        apply_op(&mut dd, op);
    }
    (dd.epoch(), encode_snapshot(&dd.snapshot()))
}

fn recovered_state(dir: &Path) -> (u64, Vec<u8>) {
    let dd = durable(dir);
    (dd.epoch(), encode_snapshot(&dd.snapshot()))
}

// ------------------------------------------------------------- kill -9 tests

/// Child half of the kill-9 tests.  Inert in a normal test run; when the
/// parent re-spawns this binary with `DD_RECOVERY_DIR` set, it executes the
/// requested operation prefix against that directory and dies by `abort()` —
/// no destructors, no flushes, no clean shutdown.
#[test]
fn recovery_child() {
    let Ok(dir) = std::env::var("DD_RECOVERY_DIR") else {
        return;
    };
    let crash_after: u64 = std::env::var("DD_CRASH_AFTER").unwrap().parse().unwrap();
    let checkpoint_after: Option<u64> = std::env::var("DD_CHECKPOINT_AFTER")
        .ok()
        .map(|v| v.parse().unwrap());
    let mut dd = durable(Path::new(&dir));
    for op in 1..=crash_after {
        apply_op(&mut dd, op);
        if checkpoint_after == Some(op) {
            dd.checkpoint().unwrap();
        }
    }
    std::process::abort();
}

/// Re-run this test binary as a crashing child and wait for it to die.
fn spawn_crashing_child(dir: &Path, crash_after: u64, checkpoint_after: Option<u64>) {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = Command::new(exe);
    cmd.arg("recovery_child")
        .arg("--exact")
        .arg("--nocapture")
        .env("DD_RECOVERY_DIR", dir)
        .env("DD_CRASH_AFTER", crash_after.to_string());
    if let Some(op) = checkpoint_after {
        cmd.env("DD_CHECKPOINT_AFTER", op.to_string());
    }
    let status = cmd.status().expect("spawning the crashing child");
    assert!(
        !status.success(),
        "the child is supposed to abort, got {status:?}"
    );
    // A panic inside the child would be a clean (failing) exit with a code; a
    // real kill has none.  Distinguishing the two keeps a broken child
    // workload from masquerading as a crash test.
    #[cfg(unix)]
    assert!(
        status.code().is_none(),
        "the child must die by signal, not exit cleanly: {status:?}"
    );
}

#[test]
fn killed_at_every_op_boundary_recovers_the_exact_pre_crash_state() {
    for crash_after in 1..=NUM_OPS {
        let dir = scratch_dir(&format!("kill{crash_after}"));
        spawn_crashing_child(&dir, crash_after, None);
        let (epoch, bytes) = recovered_state(&dir);
        let (want_epoch, want_bytes) = reference_state(crash_after);
        assert_eq!(epoch, want_epoch, "epoch after crash at op {crash_after}");
        assert_eq!(
            bytes, want_bytes,
            "snapshot after crash at op {crash_after} must be byte-identical"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_after_a_mid_stream_checkpoint_recovers_identically() {
    // Checkpoint after op 3: recovery loads that checkpoint and replays only
    // op 4's WAL record — and must land on the same bytes as a full rerun.
    let dir = scratch_dir("killckpt");
    spawn_crashing_child(&dir, 4, Some(3));
    let (epoch, bytes) = recovered_state(&dir);
    let (want_epoch, want_bytes) = reference_state(4);
    assert_eq!(epoch, want_epoch);
    assert_eq!(bytes, want_bytes);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovered_engine_serves_exact_answers_through_the_server() {
    let dir = scratch_dir("serve");
    spawn_crashing_child(&dir, 3, Some(2));
    let recovered = durable(&dir);
    let (want_epoch, _) = reference_state(3);

    let server = Server::bind("127.0.0.1:0", recovered.reader(), ServerConfig::default())
        .expect("server binds over the recovered engine");
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.epoch().unwrap(), want_epoch);

    // The original supervised fact is still pinned at probability 1.0...
    let (epoch, p) = client
        .probability_of(
            "MarriedMentions",
            Tuple::from_iter([Value::Int(10), Value::Int(11)]),
        )
        .unwrap();
    assert_eq!(epoch, want_epoch);
    assert_eq!(p, Some(1.0), "supervised fact must stay pinned");
    // ...and so is the one supervised by the *replayed* update.
    let (_, p) = client
        .probability_of(
            "MarriedMentions",
            Tuple::from_iter([Value::Int(20), Value::Int(21)]),
        )
        .unwrap();
    assert_eq!(p, Some(1.0), "fact supervised by the replayed op 3");

    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------- byte-level WAL damage

/// Offsets at which each WAL record starts, by walking the length prefixes
/// (`[u32 len][u32 crc][u64 seq][payload]`, so a record spans `16 + len`).
fn record_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut offset = 0usize;
    while offset + 16 <= bytes.len() {
        starts.push(offset);
        let len = u32::from_be_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 16 + len;
    }
    assert_eq!(offset, bytes.len(), "segment ends on a record boundary");
    starts
}

/// The single live WAL segment of a data dir (these workloads never rotate
/// past one).
fn only_wal_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 1, "expected exactly one WAL segment");
    segments.remove(0)
}

#[test]
fn wal_tail_truncated_at_every_byte_boundary_recovers_cleanly() {
    let dir = scratch_dir("truncate");
    {
        let mut dd = durable(&dir);
        for op in 1..=4 {
            apply_op(&mut dd, op);
        }
    }
    let segment = only_wal_segment(&dir);
    let intact = fs::read(&segment).unwrap();
    let tail_start = *record_starts(&intact).last().unwrap();
    let with_tail = reference_state(4);
    let without_tail = reference_state(3);

    // Undamaged log replays everything.
    assert_eq!(recovered_state(&dir), with_tail);

    // Every truncation point inside the final record cleanly loses exactly
    // that one operation — no panic, no partial application.
    for cut in tail_start..intact.len() {
        fs::write(&segment, &intact[..cut]).unwrap();
        assert_eq!(
            recovered_state(&dir),
            without_tail,
            "truncation at byte {cut} of {}",
            intact.len()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wal_tail_bit_flips_are_detected_and_truncated() {
    let dir = scratch_dir("bitflip");
    {
        let mut dd = durable(&dir);
        for op in 1..=4 {
            apply_op(&mut dd, op);
        }
    }
    let segment = only_wal_segment(&dir);
    let intact = fs::read(&segment).unwrap();
    let tail_start = *record_starts(&intact).last().unwrap();
    let without_tail = reference_state(3);

    // A flip anywhere in the final record — length prefix, checksum,
    // sequence, or payload — must be caught and truncated away.
    for byte in tail_start..intact.len() {
        let mut damaged = intact.clone();
        damaged[byte] ^= 0x40;
        fs::write(&segment, &damaged).unwrap();
        assert_eq!(
            recovered_state(&dir),
            without_tail,
            "bit flip at byte {byte} of {}",
            intact.len()
        );
        // Recovery repaired the file in place; restore the full log so the
        // next iteration damages a fresh copy.
        fs::write(&segment, &intact).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mid_log_damage_truncates_everything_after_it() {
    // Damage in the *middle* of the log is still tail damage — everything
    // from the damaged record on is unreachable and gets truncated.  Here the
    // materialize record (op 2) is hit, so only op 1 survives.
    let dir = scratch_dir("midlog");
    {
        let mut dd = durable(&dir);
        for op in 1..=4 {
            apply_op(&mut dd, op);
        }
    }
    let segment = only_wal_segment(&dir);
    let mut bytes = fs::read(&segment).unwrap();
    let starts = record_starts(&bytes);
    assert_eq!(starts.len(), 4);
    bytes[starts[1] + 20] ^= 0x01; // payload byte of record 2
    fs::write(&segment, &bytes).unwrap();
    assert_eq!(recovered_state(&dir), reference_state(1));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn retraction_wal_records_survive_tail_truncation_and_bit_flips() {
    // Run the full sequence so the final two records are the retraction ops:
    // record 6 is the deletion `Update`, record 7 the `RetractSupervision`.
    let dir = scratch_dir("retracttail");
    {
        let mut dd = durable(&dir);
        for op in 1..=NUM_OPS {
            apply_op(&mut dd, op);
        }
    }
    let segment = only_wal_segment(&dir);
    let intact = fs::read(&segment).unwrap();
    let starts = record_starts(&intact);
    assert_eq!(starts.len(), NUM_OPS as usize);
    let without_tail = reference_state(NUM_OPS - 1);

    // Undamaged: the whole sequence, retractions included, replays.
    assert_eq!(recovered_state(&dir), reference_state(NUM_OPS));

    // Truncation anywhere inside the RetractSupervision record cleanly loses
    // exactly that op.
    let tail_start = *starts.last().unwrap();
    for cut in (tail_start..intact.len()).step_by(3) {
        fs::write(&segment, &intact[..cut]).unwrap();
        assert_eq!(
            recovered_state(&dir),
            without_tail,
            "truncation at byte {cut} of {}",
            intact.len()
        );
    }

    // Bit flips in the final record are detected and truncated away; a flip
    // in the deletion-update record (6) truncates ops 6..=7.
    for byte in (tail_start..intact.len()).step_by(3) {
        let mut damaged = intact.clone();
        damaged[byte] ^= 0x40;
        fs::write(&segment, &damaged).unwrap();
        assert_eq!(
            recovered_state(&dir),
            without_tail,
            "bit flip at byte {byte} of {}",
            intact.len()
        );
        fs::write(&segment, &intact).unwrap();
    }
    let mut damaged = intact.clone();
    damaged[starts[5] + 20] ^= 0x01; // payload byte of the deletion record
    fs::write(&segment, &damaged).unwrap();
    assert_eq!(recovered_state(&dir), reference_state(5));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_after_retractions_recovers_byte_exactly() {
    // The checkpoint is written *after* both retraction ops, so the v2
    // grounder codec must round-trip the shrunken graph, the grounding
    // records, and the sticky suppression set byte-exactly.
    let dir = scratch_dir("retractckpt");
    spawn_crashing_child(&dir, NUM_OPS, Some(NUM_OPS));
    let (epoch, bytes) = recovered_state(&dir);
    let (want_epoch, want_bytes) = reference_state(NUM_OPS);
    assert_eq!(epoch, want_epoch);
    assert_eq!(
        bytes, want_bytes,
        "checkpoint taken after retraction ops must recover byte-identically"
    );
    let _ = fs::remove_dir_all(&dir);
}

// --------------------------------------------------------- checkpoint damage

#[test]
fn damaged_newest_checkpoint_falls_back_without_losing_operations() {
    let dir = scratch_dir("ckptdmg");
    {
        let mut dd = durable(&dir);
        apply_op(&mut dd, 1);
        apply_op(&mut dd, 2);
        // Writes ckpt-2; with keep_checkpoints=2 the baseline ckpt-0 is
        // retained too, so the WAL keeps records 1..=2 for exactly this
        // fallback.
        dd.checkpoint().unwrap();
        apply_op(&mut dd, 3);
    }
    let newest = dir
        .join("checkpoints")
        .join("ckpt-00000000000000000002.ckpt");
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    fs::write(&newest, &bytes).unwrap();

    // Fallback lands on the baseline checkpoint and replays ops 1..=3 from
    // the (un-pruned) WAL: nothing is lost.
    assert_eq!(recovered_state(&dir), reference_state(3));
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------------------ replay at any graph size

/// `pairs` two-mention sentences (mentions `2s` and `2s + 1` of sentence
/// `s`, over four phrasings) with every hundredth pair supervised, and the
/// symmetry rule I1 coupling each candidate pair to its mirror image: about
/// `2 * pairs` coupled query variables.
fn coupled_inputs(pairs: i64) -> (String, Database) {
    const PHRASES: [&str; 4] = ["and his wife", "met with", "and the widow of", "sued"];
    let program = format!(
        "{PROGRAM}\n    rule I1 inference: MarriedMentions(m2, m1) :- MarriedMentions(m1, m2) \
         weight = 1.5.\n"
    );
    let mut db = database();
    for s in 100..100 + pairs {
        let (m1, m2) = (2 * s, 2 * s + 1);
        let (a, b) = (format!("A{s}"), format!("B{s}"));
        let phrase = PHRASES[(s % 4) as usize];
        db.insert_all(
            "Sentence",
            [Tuple::from_iter([
                Value::Int(s),
                Value::text(format!("{a} {phrase} {b} yesterday")),
            ])],
        )
        .unwrap();
        db.insert_all(
            "PersonCandidate",
            [
                Tuple::from_iter([Value::Int(s), Value::Int(m1), Value::text(a.clone())]),
                Tuple::from_iter([Value::Int(s), Value::Int(m2), Value::text(b.clone())]),
            ],
        )
        .unwrap();
        if s % 100 == 0 {
            db.insert_all(
                "EL",
                [
                    Tuple::from_iter([Value::Int(m1), Value::text(format!("e{m1}"))]),
                    Tuple::from_iter([Value::Int(m2), Value::text(format!("e{m2}"))]),
                ],
            )
            .unwrap();
            db.insert_all(
                "Married",
                [Tuple::from_iter([
                    Value::text(format!("e{m1}")),
                    Value::text(format!("e{m2}")),
                ])],
            )
            .unwrap();
        }
    }
    (program, db)
}

/// Ten new documents, the first of them a supervised married pair.
fn coupled_update() -> KbcUpdate {
    let mut update = KbcUpdate::new();
    for s in 5000..5010i64 {
        let (m1, m2) = (2 * s, 2 * s + 1);
        let (a, b) = (format!("A{s}"), format!("B{s}"));
        update
            .insert(
                "Sentence",
                Tuple::from_iter([Value::Int(s), Value::text(format!("{a} and his wife {b}"))]),
            )
            .insert(
                "PersonCandidate",
                Tuple::from_iter([Value::Int(s), Value::Int(m1), Value::text(a)]),
            )
            .insert(
                "PersonCandidate",
                Tuple::from_iter([Value::Int(s), Value::Int(m2), Value::text(b)]),
            );
    }
    update
        .insert(
            "EL",
            Tuple::from_iter([Value::Int(10000), Value::text("e10000")]),
        )
        .insert(
            "EL",
            Tuple::from_iter([Value::Int(10001), Value::text("e10001")]),
        )
        .insert(
            "Married",
            Tuple::from_iter([Value::text("e10000"), Value::text("e10001")]),
        );
    update
}

/// WAL replay re-runs learning and full Gibbs on the recovered engine, so it
/// is only exact if every sweep is a function of the seed alone.  This graph
/// has more coupled query variables than the 2 048 at which full Gibbs and
/// the learner once switched to multi-threaded sampling; replay must still
/// land on the live state bit for bit, and so must a second engine built
/// from the same inputs.
#[test]
fn replay_is_exact_on_a_graph_with_thousands_of_coupled_variables() {
    let dir = scratch_dir("coupled");
    let (program, db) = coupled_inputs(1100);
    let build = |durability: Option<&Path>| {
        let mut builder = DeepDive::builder()
            .program_text(program.clone())
            .database(db.clone())
            .config(EngineConfig::fast());
        if let Some(dir) = durability {
            builder = builder.durability(DurabilityConfig::new(dir));
        }
        builder.build().expect("engine builds")
    };
    let run = |dd: &mut DeepDive| {
        dd.initial_run().unwrap();
        dd.run_update(&coupled_update(), ExecutionMode::Incremental)
            .unwrap();
        (dd.epoch(), encode_snapshot(&dd.snapshot()))
    };

    // The live engine: both operations land in the WAL only (the builder's
    // baseline checkpoint predates them), and the engine is dropped without
    // a checkpoint, so recovery replays both.
    let live = {
        let mut dd = build(Some(&dir));
        let live = run(&mut dd);
        let coupled = dd.graph().compile().coupled_query_variables().len();
        assert!(coupled > 2048, "only {coupled} coupled query variables");
        live
    };
    let recovered = build(Some(&dir));
    assert!(recovered.recovery_replay_errors().is_empty());
    assert_eq!(recovered.epoch(), live.0);
    assert!(
        encode_snapshot(&recovered.snapshot()) == live.1,
        "the replayed snapshot differs from the live one"
    );

    let twin = run(&mut build(None));
    assert!(twin == live, "a second engine on the same inputs differs");
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------- recovery idempotency

/// Every `(relative path, contents)` under `dir`, sorted — a full fingerprint
/// of the on-disk state.
fn dir_fingerprint(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                out.push((rel, fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

#[test]
fn recovering_the_same_directory_twice_is_byte_identical() {
    let dir = scratch_dir("idem");
    {
        let mut dd = durable(&dir);
        apply_op(&mut dd, 1);
        apply_op(&mut dd, 2);
        dd.checkpoint().unwrap();
        apply_op(&mut dd, 3);
    }
    let first = recovered_state(&dir);
    let disk_after_first = dir_fingerprint(&dir);
    let second = recovered_state(&dir);
    let disk_after_second = dir_fingerprint(&dir);

    assert_eq!(first, second, "two recoveries must agree byte for byte");
    assert_eq!(first, reference_state(3));
    assert_eq!(
        disk_after_first, disk_after_second,
        "a recovery with nothing to repair must not touch the directory"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_idempotent_across_a_crashed_checkpoint_rotation() {
    // Simulate dying mid-checkpoint: `.tmp` debris in the checkpoint dir and
    // a torn final WAL record, at the same time.
    let dir = scratch_dir("idemtmp");
    {
        let mut dd = durable(&dir);
        for op in 1..=3 {
            apply_op(&mut dd, op);
        }
    }
    fs::write(
        dir.join("checkpoints")
            .join("ckpt-00000000000000000003.ckpt.tmp"),
        b"half-written checkpoint payload",
    )
    .unwrap();
    let segment = only_wal_segment(&dir);
    let intact = fs::read(&segment).unwrap();
    fs::write(&segment, &intact[..intact.len() - 7]).unwrap();

    let first = recovered_state(&dir);
    let second = recovered_state(&dir);
    assert_eq!(first, second);
    // The torn op 3 is gone; ops 1..=2 survive.
    assert_eq!(first, reference_state(2));
    // The debris was swept by the first recovery.
    assert!(
        !dir.join("checkpoints")
            .join("ckpt-00000000000000000003.ckpt.tmp")
            .exists(),
        ".tmp debris must be swept on open"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn replay_divergence_from_a_changed_udf_registry_is_surfaced() {
    use dd_grounding::{parse_rule, UdfRegistry};

    // A program with no tied-weight rules, so it builds under any registry;
    // the UDF dependency arrives later through an update.
    const UNTIED_PROGRAM: &str = r#"
        relation Claim(id: int, text: text) base.
        relation Fact(id: int) variable.
        rule F feature: Fact(id) :- Claim(id, text) weight = 1.0.
    "#;
    let dir = scratch_dir("divergence");
    let build = |udfs: UdfRegistry| {
        let mut db = Database::new();
        db.create_table(
            "Claim",
            Schema::of(&[("id", DataType::Int), ("text", DataType::Text)]),
        )
        .unwrap();
        db.insert_all(
            "Claim",
            vec![Tuple::from_iter([Value::Int(1), Value::text("alpha")])],
        )
        .unwrap();
        DeepDive::builder()
            .program_text(UNTIED_PROGRAM)
            .database(db)
            .config(EngineConfig::fast())
            .udfs(udfs)
            .durability(DurabilityConfig::new(&dir))
            .build()
    };

    // Original run: the standard registry resolves `phrase`, and the tied
    // rule lands in the WAL only (the baseline checkpoint predates it).
    {
        let mut dd = build(standard_udfs()).unwrap();
        dd.initial_run().unwrap();
        let mut update = KbcUpdate::new();
        update.add_rule(
            parse_rule(
                "rule F2 feature: Fact(id) :- Claim(id, text) weight = phrase(text, text, text).",
            )
            .unwrap(),
        );
        dd.run_update(&update, ExecutionMode::Rerun).unwrap();
        assert!(dd.recovery_replay_errors().is_empty());
    }

    // Recovering with the same registry replays cleanly: nothing to report.
    {
        let dd = build(standard_udfs()).unwrap();
        assert!(dd.recovery_replay_errors().is_empty());
    }

    // Recovering with a different registry makes the logged update
    // un-replayable; the divergence must be surfaced, not silently dropped.
    let dd = build(UdfRegistry::new()).unwrap();
    let errors = dd.recovery_replay_errors();
    assert_eq!(
        errors.len(),
        1,
        "exactly the update op diverges: {errors:?}"
    );
    assert!(
        errors[0].contains("phrase"),
        "the error names the missing UDF: {}",
        errors[0]
    );
    let _ = fs::remove_dir_all(&dir);
}

// ----------------------------------------------------- auto-checkpoint policy

/// The newest WAL sequence any checkpoint file in `dir` covers (filenames
/// are `ckpt-<covered seq>.ckpt`); the baseline checkpoint the builder
/// writes on a pristine open covers sequence 0.
fn newest_covered_seq(dir: &Path) -> u64 {
    fs::read_dir(dir.join("checkpoints"))
        .unwrap()
        .filter_map(|entry| {
            let name = entry.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("ckpt-")?
                .strip_suffix(".ckpt")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .expect("at least the baseline checkpoint exists")
}

/// Without a policy, nothing checkpoints behind the caller's back: after the
/// whole op sequence only the builder's baseline checkpoint (covering seq 0)
/// exists.
#[test]
fn manual_only_engines_never_checkpoint_automatically() {
    let dir = scratch_dir("manual-only");
    {
        let mut dd = durable(&dir);
        for op in 1..=NUM_OPS {
            apply_op(&mut dd, op);
        }
    }
    assert_eq!(newest_covered_seq(&dir), 0, "only the baseline checkpoint");
    let _ = fs::remove_dir_all(&dir);
}

/// `checkpoint_every_records(2)` checkpoints after every second logged
/// operation, bounding the replay window, and the recovered state stays
/// byte-identical to a never-crashed reference engine.
#[test]
fn records_policy_checkpoints_automatically_and_recovers_exactly() {
    let dir = scratch_dir("auto-records");
    {
        let mut dd = DeepDive::builder()
            .program_text(PROGRAM)
            .database(database())
            .config(EngineConfig::fast())
            .durability(
                DurabilityConfig::new(&dir)
                    .fsync(FsyncPolicy::Never)
                    .checkpoint_every_records(2),
            )
            .build()
            .unwrap();
        for op in 1..=NUM_OPS {
            apply_op(&mut dd, op);
        }
        // 7 logged records, trigger every 2: auto-checkpoints covered seqs
        // 2, 4, and 6 — the newest on disk must cover 6, with one record
        // (seq 7) left for replay.
        assert_eq!(newest_covered_seq(&dir), 6);
    }
    let (epoch, bytes) = recovered_state(&dir);
    let (want_epoch, want_bytes) = reference_state(NUM_OPS);
    assert_eq!(epoch, want_epoch);
    assert_eq!(
        bytes, want_bytes,
        "auto-checkpointed recovery is byte-exact"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `checkpoint_every_bytes(1)` is the most aggressive byte policy: every
/// state-changing call ends in a checkpoint, so the WAL never needs replay.
#[test]
fn bytes_policy_checkpoints_after_every_operation() {
    let dir = scratch_dir("auto-bytes");
    {
        let mut dd = DeepDive::builder()
            .program_text(PROGRAM)
            .database(database())
            .config(EngineConfig::fast())
            .durability(
                DurabilityConfig::new(&dir)
                    .fsync(FsyncPolicy::Never)
                    .checkpoint_every_bytes(1),
            )
            .build()
            .unwrap();
        for op in 1..=5 {
            apply_op(&mut dd, op);
            // Every op crosses the 1-byte threshold immediately, so the
            // newest checkpoint always covers the op just logged.
            assert_eq!(newest_covered_seq(&dir), op);
        }
    }
    let (epoch, bytes) = recovered_state(&dir);
    let (want_epoch, want_bytes) = reference_state(5);
    assert_eq!(epoch, want_epoch);
    assert_eq!(bytes, want_bytes);
    let _ = fs::remove_dir_all(&dir);
}

/// A manual checkpoint resets the policy counters: the window restarts from
/// the manual call, so the next auto-trigger lands `n` records later.
#[test]
fn manual_checkpoints_restart_the_policy_window() {
    let dir = scratch_dir("auto-restart");
    {
        let mut dd = DeepDive::builder()
            .program_text(PROGRAM)
            .database(database())
            .config(EngineConfig::fast())
            .durability(
                DurabilityConfig::new(&dir)
                    .fsync(FsyncPolicy::Never)
                    .checkpoint_every_records(3),
            )
            .build()
            .unwrap();
        apply_op(&mut dd, 1);
        apply_op(&mut dd, 2);
        assert_eq!(newest_covered_seq(&dir), 0, "2 of 3 records: not yet due");
        dd.checkpoint().unwrap(); // manual — covers seq 2, resets counters
        assert_eq!(newest_covered_seq(&dir), 2);
        apply_op(&mut dd, 3);
        apply_op(&mut dd, 4);
        assert_eq!(
            newest_covered_seq(&dir),
            2,
            "window restarted at the manual call"
        );
        apply_op(&mut dd, 5);
        assert_eq!(
            newest_covered_seq(&dir),
            5,
            "third record after the reset triggers"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------- measurement

/// Prints the numbers quoted in PERFORMANCE.md ("Durability cost" section):
/// checkpoint size, WAL size, and wall-clock recovery time for the two
/// recovery paths (checkpoint-load vs full-WAL replay).  Run with
/// `cargo test --release --test recovery -- --ignored recovery_timing --nocapture`.
#[test]
#[ignore = "measurement probe, not an assertion; run with --nocapture"]
fn recovery_timing() {
    use std::time::Instant;

    let dir = scratch_dir("timing");
    {
        let mut dd = durable(&dir);
        for op in 1..=NUM_OPS {
            apply_op(&mut dd, op);
        }
        dd.checkpoint().unwrap();
    }
    let ckpt_bytes: u64 = fs::read_dir(dir.join("checkpoints"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .max()
        .unwrap();
    let start = Instant::now();
    let dd = durable(&dir);
    let from_checkpoint = start.elapsed();
    assert_eq!(dd.epoch(), reference_state(NUM_OPS).0);
    drop(dd);
    let _ = fs::remove_dir_all(&dir);

    let dir = scratch_dir("timing-replay");
    let wal_bytes;
    {
        let mut dd = durable(&dir);
        for op in 1..=NUM_OPS {
            apply_op(&mut dd, op);
        }
        wal_bytes = fs::metadata(only_wal_segment(&dir)).unwrap().len();
    }
    let start = Instant::now();
    let dd = durable(&dir);
    let from_replay = start.elapsed();
    assert_eq!(dd.epoch(), reference_state(NUM_OPS).0);
    drop(dd);
    let _ = fs::remove_dir_all(&dir);

    println!("checkpoint size       : {ckpt_bytes} bytes");
    println!("WAL size ({NUM_OPS} ops)      : {wal_bytes} bytes");
    println!("recover from checkpoint: {from_checkpoint:?}");
    println!("recover by full replay : {from_replay:?}");
}

// ------------------------------------------------------------------- soak

/// Kill-loop soak: repeatedly crash a child at every op boundary, with and
/// without mid-stream checkpoints, recovering and verifying each time.
/// Ignored by default; the CI recovery job runs it with `--ignored`.
#[test]
#[ignore = "kill-loop soak; run explicitly with --ignored"]
fn kill_loop_soak_recovers_every_time() {
    for round in 0..3u64 {
        for crash_after in 1..=NUM_OPS {
            // Round 0: no checkpoint.  Later rounds: checkpoint mid-stream.
            let checkpoint_after = (round > 0).then(|| round.min(crash_after));
            let dir = scratch_dir(&format!("soak{round}-{crash_after}"));
            spawn_crashing_child(&dir, crash_after, checkpoint_after);
            let (epoch, bytes) = recovered_state(&dir);
            let (want_epoch, want_bytes) = reference_state(crash_after);
            assert_eq!(
                epoch, want_epoch,
                "soak round {round}, crash after op {crash_after}"
            );
            assert_eq!(
                bytes, want_bytes,
                "soak round {round}, crash after op {crash_after}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
