//! `doc_stream`: data deltas instead of rule deltas, with durability on.
//!
//! An episode is a fresh durable engine over the first half of a News corpus
//! (FE1 + S1 + S2 in the program), then a fixed script of [`ROUNDS`] rounds
//! of eight new documents — every fourth round deleting the eight oldest live
//! ones and retracting one supervision label instead — with a re-materialize
//! and a checkpoint every sixteenth round.  A fixed set of [`EPISODES`]
//! corpora is drawn from the seed; one *pass* runs an episode on each, twice
//! in a row (a traced run keeps spans for one of the two and compares), and
//! passes repeat until the window is used — always whole passes, so the work
//! is the same on every commit (the KB does not grow with the machine's
//! speed, and a faster commit fits more passes).  Counts — WAL records and
//! bytes, checkpoints, write amplification — are those of the first pass,
//! which every run completes, so they repeat exactly for a seed.  After the
//! window the last engine is dropped without a checkpoint and its directory
//! reopened.

use crate::dev_loop::{twice, RELATION};
use crate::engine_ops::{
    relation_keys, snapshot_reads, timed_initial_run, timed_materialize, timed_retract,
    timed_update, ReadLatencies, Run, UpdateTotals,
};
use crate::inputs::{engine_config, round_script, row_bytes, InputDigest, Round, DOCS_PER_ROUND};
use crate::report::Values;
use crate::stats::{Recorder, SplitMix64};
use crate::trace::ROOT;
use deepdive_repro::engine::{
    encode_snapshot, DeepDive, DurabilityConfig, ExecutionMode, FsyncPolicy,
};
use deepdive_repro::grounding::{KbcUpdate, Program};
use deepdive_repro::relstore::{Database, Tuple, Value};
use deepdive_repro::storage::{CheckpointStore, Wal};
use deepdive_repro::workloads::corpus::DocumentDelta;
use deepdive_repro::workloads::{KbcSystem, RuleTemplate, SystemKind};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// 648 documents: 324 loaded up front, up to 288 streamed in.
const SCALE: f64 = 3.0;
const ROUNDS: usize = 48;
const CHECKPOINT_EVERY: usize = 16;
const EPISODES: usize = 3;

struct Episode {
    program: Program,
    initial: Database,
    later: Vec<DocumentDelta>,
    /// Document id of `later[0]`.
    cutoff: i64,
    script: Vec<Round>,
}

fn episode(seed: u64, index: usize, scale: f64, rounds: usize) -> Episode {
    let seed = SplitMix64::fork(seed, index as u64);
    let system = KbcSystem::generate(SystemKind::News, scale, seed);
    let mut program = system.program.clone();
    for template in [RuleTemplate::FE1, RuleTemplate::S1, RuleTemplate::S2] {
        program.rules.push(template.rule(system.semantics));
    }
    let (initial, later) = system.corpus.split_for_incremental(0.5);
    let cutoff = (system.corpus.config.num_documents - later.len()) as i64;
    Episode {
        program,
        initial,
        later,
        cutoff,
        script: round_script(rounds),
    }
}

impl Episode {
    fn update_of(&self, round: &Round) -> KbcUpdate {
        let mut update = KbcUpdate::new();
        match round {
            Round::Insert(docs) => {
                for (relation, row) in docs.iter().flat_map(|d| &self.later[*d].rows) {
                    update.insert(relation, row.clone());
                }
            }
            Round::Delete(docs) => {
                for (relation, row) in docs.iter().flat_map(|d| &self.later[*d].rows) {
                    update.delete(relation, row.clone());
                }
            }
        }
        update
    }

    fn user_bytes(&self, round: &Round) -> u64 {
        let (Round::Insert(docs) | Round::Delete(docs)) = round;
        docs.iter()
            .flat_map(|d| &self.later[*d].rows)
            .map(|(_, row)| row_bytes(row))
            .sum()
    }

    /// The mention pair of late document `index` — the head tuple whose
    /// supervision a delete round retracts first.
    fn mention_pair(&self, index: usize) -> Tuple {
        let doc = self.cutoff + index as i64;
        Tuple::from_iter([Value::Int(2 * doc), Value::Int(2 * doc + 1)])
    }

    /// The database a from-scratch engine would load after the whole script.
    fn surviving_database(&self) -> Database {
        let mut db = self.initial.clone();
        for round in &self.script {
            match round {
                Round::Insert(docs) => {
                    for (relation, row) in docs.iter().flat_map(|d| &self.later[*d].rows) {
                        db.insert(relation, row.clone())
                            .expect("row matches its schema");
                    }
                }
                Round::Delete(docs) => {
                    for (relation, row) in docs.iter().flat_map(|d| &self.later[*d].rows) {
                        db.table_mut(relation).expect("table exists").delete(row);
                    }
                }
            }
        }
        db
    }
}

fn input_digest(episodes: &[Episode]) -> InputDigest {
    let mut digest = InputDigest::default();
    for e in episodes {
        digest.program(&e.program);
        digest.database(&e.initial);
        for round in &e.script {
            let (Round::Insert(docs) | Round::Delete(docs)) = round;
            digest.text(if matches!(round, Round::Insert(_)) {
                "+"
            } else {
                "-"
            });
            for (relation, row) in docs.iter().flat_map(|d| &e.later[*d].rows) {
                digest.row(relation, row);
            }
        }
    }
    digest
}

fn durability(dir: &Path) -> DurabilityConfig {
    // Checkpoints are taken by the harness (`DeepDive::checkpoint`) rather
    // than by the record-count trigger, so their cost and bytes are observed
    // at a known point instead of inside whichever update crossed the line.
    DurabilityConfig::new(dir).fsync(FsyncPolicy::Always)
}

/// Bytes appended under a directory since the last poll: the growth of every
/// file still there plus the full size of new ones.  Polled after every
/// engine call, so nothing is pruned between a write and its poll.
#[derive(Default)]
struct DirGrowth {
    seen: HashMap<PathBuf, u64>,
    appended: u64,
    deltas: Vec<u64>,
}

impl DirGrowth {
    /// Returns whether a file seen earlier is gone (pruned).
    fn poll(&mut self, dir: &Path) -> bool {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return false;
        };
        let mut present: HashMap<PathBuf, u64> = HashMap::new();
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                present.insert(entry.path(), meta.len());
            }
        }
        let delta: u64 = present
            .iter()
            .map(|(path, len)| len.saturating_sub(self.seen.get(path).copied().unwrap_or(0)))
            .sum();
        if delta > 0 {
            self.appended += delta;
            self.deltas.push(delta);
        }
        let pruned = self.seen.keys().any(|path| !present.contains_key(path));
        self.seen = present;
        pruned
    }
}

#[derive(Default)]
struct StorageCounts {
    wal_records: u64,
    wal_bytes: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    user_bytes: u64,
    /// Directory syncs of pruning, on top of the fixed six per checkpoint.
    prune_syncs: u64,
    last_wal_deltas: Vec<u64>,
    last_checkpoint_bytes: u64,
}

impl StorageCounts {
    /// Derived from the policy, not observed: under `FsyncPolicy::Always`
    /// every record is one data sync; a checkpoint syncs the WAL, its own
    /// file and directory, the sealed segment, the new segment and the WAL
    /// directory (six), plus one directory sync for each of the two stores
    /// it pruned something from.
    fn fsyncs(&self) -> u64 {
        self.wal_records + 6 * self.checkpoints + self.prune_syncs
    }

    /// Bytes appended to WAL and checkpoint files per byte of user rows.
    fn write_amp(&self) -> f64 {
        (self.wal_bytes + self.checkpoint_bytes) as f64 / self.user_bytes.max(1) as f64
    }
}

/// One episode's window: what it applied and what it left on disk.
struct EpisodeOutcome {
    engine: DeepDive,
    dir: PathBuf,
    wal: DirGrowth,
    checkpoints: DirGrowth,
    prune_syncs: u64,
    user_bytes: u64,
}

#[derive(Default)]
struct Samples {
    setup_s: Recorder,
    grounding_full_s: Recorder,
    round_ms: Recorder,
    docs_per_s: Recorder,
    ground_insert_ms: Recorder,
    ground_delete_ms: Recorder,
    first_quarter_ms: Recorder,
    last_quarter_ms: Recorder,
    materialize_s: Recorder,
    checkpoint_ms: Recorder,
    compile_ms: Recorder,
    new_factors: Recorder,
    removed: Recorder,
    totals: UpdateTotals,
}

/// Set up a durable engine over the episode's first half and run its script.
fn run_episode(
    run: &mut Run,
    ep: &Episode,
    gen_s: f64,
    dir: PathBuf,
    root: Option<u32>,
    out: &mut Samples,
) -> Option<EpisodeOutcome> {
    let rounds = ep.script.len();
    let (mut wal, mut checkpoints) = (DirGrowth::default(), DirGrowth::default());
    let setup_started = Instant::now();
    let (built, _, _) = run.tracer.time("core.build", root, 0, || {
        DeepDive::builder()
            .program(ep.program.clone())
            .database(ep.initial.clone())
            .config(engine_config())
            .durability(durability(&dir))
            .build()
    });
    let mut engine = run.attempt("build", built)?;
    let report = timed_initial_run(run, &mut engine, root)?;
    out.grounding_full_s.record(report.grounding_secs);
    timed_materialize(run, &mut engine, root);
    out.setup_s
        .record(setup_started.elapsed().as_secs_f64() + gen_s);
    // What set-up wrote is not the window's.
    wal.poll(&dir.join("wal"));
    checkpoints.poll(&dir.join("checkpoints"));
    (wal.appended, checkpoints.appended) = (0, 0);
    wal.deltas.clear();
    checkpoints.deltas.clear();

    let window = Instant::now();
    let (mut applied, mut user_bytes, mut prune_syncs) = (0usize, 0u64, 0u64);
    for (number, round) in ep.script.iter().enumerate() {
        let update = ep.update_of(round);
        let before = engine.graph().num_variables() + engine.graph().num_factors();
        let mut wall = 0.0;
        if let Round::Delete(docs) = round {
            let pair = ep.mention_pair(docs[0]);
            if let Some((_, s)) =
                timed_retract(run, &mut engine, RELATION, pair, root, number as u64)
            {
                wall += s;
            }
            wal.poll(&dir.join("wal"));
        }
        let Some((report, seconds)) = timed_update(
            run,
            &mut engine,
            &update,
            ExecutionMode::Incremental,
            root,
            number as u64,
        ) else {
            continue;
        };
        wall += seconds;
        wal.poll(&dir.join("wal"));
        out.totals.add(&report, seconds);
        out.round_ms.record(wall * 1e3);
        applied += DOCS_PER_ROUND;
        user_bytes += ep.user_bytes(round);
        let ground_ms = report.grounding_secs * 1e3;
        match round {
            Round::Insert(_) => {
                out.ground_insert_ms.record(ground_ms);
                out.new_factors.record(report.new_factors as f64);
                if number < rounds / 4 {
                    out.first_quarter_ms.record(ground_ms);
                } else if number >= rounds - rounds / 4 {
                    out.last_quarter_ms.record(ground_ms);
                }
            }
            Round::Delete(_) => {
                out.ground_delete_ms.record(ground_ms);
                let after = engine.graph().num_variables() + engine.graph().num_factors();
                out.removed.record(before.saturating_sub(after) as f64);
            }
        }
        // A probe of dd-factorgraph between rounds, outside the round's time.
        let (flat, seconds, _) = run
            .tracer
            .time("factorgraph.compile", root, 0, || engine.graph().compile());
        std::hint::black_box(flat);
        out.compile_ms.record(seconds * 1e3);
        // The last rounds are left un-checkpointed: recovery has a WAL tail
        // to replay.
        if number % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1 && number + 1 != rounds {
            out.materialize_s
                .record(timed_materialize(run, &mut engine, root));
            wal.poll(&dir.join("wal"));
            let (result, checkpoint_s, _) = run
                .tracer
                .time("core.checkpoint", root, 0, || engine.checkpoint());
            run.attempt("checkpoint", result);
            out.checkpoint_ms.record(checkpoint_s * 1e3);
            prune_syncs += u64::from(checkpoints.poll(&dir.join("checkpoints")));
            prune_syncs += u64::from(wal.poll(&dir.join("wal")));
        }
    }
    out.docs_per_s
        .record(applied as f64 / window.elapsed().as_secs_f64().max(1e-9));
    Some(EpisodeOutcome {
        engine,
        dir,
        wal,
        checkpoints,
        prune_syncs,
        user_bytes,
    })
}

pub fn run(run: &mut Run) -> Values {
    let (scale, rounds) = if run.smoke {
        (1.0, 16)
    } else {
        (SCALE, ROUNDS)
    };
    let mut values = Values::default();

    // ---- the inputs: generated once, streamed again in every pass.
    let mut gen_s = Vec::new();
    let episodes: Vec<Episode> = (0..EPISODES)
        .map(|index| {
            let started = Instant::now();
            let ep = episode(run.seed, index, scale, rounds);
            gen_s.push(started.elapsed().as_secs_f64());
            ep
        })
        .collect();
    let digest = input_digest(&episodes);
    values.set("gen.input_digest32", (digest.finish() & 0xFFFF_FFFF) as f64);
    values.set("gen.rows", digest.rows as f64);
    let docs: usize = episodes
        .iter()
        .map(|ep| ep.initial.table("Sentence").map_or(0, |t| t.len()) + ep.later.len())
        .sum();
    values.set("gen.docs", docs as f64);
    values.set("gen.corpus_s", gen_s.iter().sum::<f64>() / EPISODES as f64);

    let mut samples = Samples::default();
    let mut storage = StorageCounts::default();
    let mut reads = ReadLatencies::default();
    let mut read_rng = SplitMix64::new(SplitMix64::fork(run.seed, 999_999));
    let mut materialization_bytes = 0usize;
    let mut last: Option<EpisodeOutcome> = None;

    let started = Instant::now();
    let (mut pass, mut repetitions) = (0u64, 0u64);
    while pass == 0 || (started.elapsed().as_secs_f64() < run.seconds && !run.smoke) {
        for (index, twin, ep) in twice(&episodes) {
            let repetition_started = Instant::now();
            let (root, traced) = run.open_repetition(pass, twin);
            repetitions += 1;
            let dir = run.scratch.join(format!("episode-{repetitions}"));
            let Some(outcome) = run_episode(run, ep, gen_s[index], dir, root, &mut samples) else {
                return values;
            };
            if pass == 0 {
                storage.wal_records += outcome.engine.last_wal_seq().unwrap_or(0);
                storage.wal_bytes += outcome.wal.appended;
                storage.checkpoints += outcome.checkpoints.deltas.len() as u64;
                storage.checkpoint_bytes += outcome.checkpoints.appended;
                storage.prune_syncs += outcome.prune_syncs;
                storage.user_bytes += outcome.user_bytes;
            }
            materialization_bytes = outcome
                .engine
                .materialization()
                .map_or(materialization_bytes, |m| m.sample_storage_bytes());

            // A probe of the read path on the finished KB.
            let snapshot = outcome.engine.snapshot();
            let keys = relation_keys(&snapshot, RELATION, usize::MAX);
            snapshot_reads(
                run,
                &snapshot,
                RELATION,
                &keys,
                &mut read_rng,
                root,
                &mut reads,
            );
            if let Some(previous) = last.replace(outcome) {
                let _ = std::fs::remove_dir_all(previous.dir);
            }
            run.close_repetition(
                index,
                root,
                traced,
                repetition_started.elapsed().as_secs_f64(),
            );
        }
        pass += 1;
    }

    // ---- crash, recover, compare: always the last corpus's episode.
    run.tracer.set_recording(true);
    let root = run.tracer.open(ROOT, None, 0);
    if let Some(outcome) = last.take() {
        let (engine, dir) = (outcome.engine, outcome.dir);
        let ep = &episodes[EPISODES - 1];
        storage.last_checkpoint_bytes = outcome.checkpoints.deltas.last().copied().unwrap_or(0);
        storage.last_wal_deltas = outcome.wal.deltas;
        let before = encode_snapshot(&engine.snapshot());
        let epoch = engine.epoch();
        values.set("factorgraph.vars", engine.graph().num_variables() as f64);
        values.set("factorgraph.factors", engine.graph().num_factors() as f64);
        drop(engine);
        storage_probes(run, &dir, &storage, root, &mut values);
        let (recovered, seconds, _) = run.tracer.time("recovery.reopen", root, 0, || {
            DeepDive::builder()
                .config(engine_config())
                .durability(durability(&dir))
                .build()
                .map(|engine| (encode_snapshot(&engine.snapshot()), engine))
        });
        values.set("recovery_s", seconds);
        let check = run.tracer.open("harness.check", root, 0);
        if let Some((after, recovered)) = run.attempt("recovery", recovered) {
            if after != before {
                run.problem(format!(
                    "recovered snapshot differs from the pre-crash one (epoch {} vs {epoch})",
                    recovered.epoch()
                ));
            }
            if !recovered.recovery_replay_errors().is_empty() {
                run.problem(format!(
                    "replay errors: {:?}",
                    recovered.recovery_replay_errors()
                ));
            }
            // Same catalog as an engine that loaded the surviving documents
            // from scratch.
            let reference = DeepDive::builder()
                .program(ep.program.clone())
                .database(ep.surviving_database())
                .config(engine_config())
                .build()
                .and_then(|mut e| e.initial_run().map(|_| e));
            if let Some(reference) = run.attempt("reference engine", reference) {
                let (got, want) = (
                    recovered.snapshot().num_catalogued_variables(),
                    reference.snapshot().num_catalogued_variables(),
                );
                if got != want {
                    run.problem(format!(
                        "catalog holds {got} facts, a from-scratch engine {want}"
                    ));
                }
            }
        }
        run.tracer.close(check);
    }
    run.tracer.close(root);

    let s = &mut samples;
    values.set("setup_s", s.setup_s.median());
    values.set("round_p50_ms", s.round_ms.median());
    values.set(
        "round_p90_ms",
        s.round_ms.supported_percentile(0.9).unwrap_or(0.0),
    );
    values.set("ingest_docs_per_s", s.docs_per_s.median());
    reads.report(&mut values);

    values.set("grounding.full_s", s.grounding_full_s.median());
    values.set("grounding.round_ms_p50", s.ground_insert_ms.median());
    values.set(
        "grounding.ms_per_doc",
        s.ground_insert_ms.median() / DOCS_PER_ROUND as f64,
    );
    values.set(
        "grounding.last_vs_first_quarter_x",
        s.last_quarter_ms.median() / s.first_quarter_ms.median().max(1e-9),
    );
    values.set("grounding.delete_round_ms_p50", s.ground_delete_ms.median());
    values.set(
        "grounding.share_of_round",
        s.totals.share(s.totals.grounding_s),
    );
    values.set("grounding.new_factors_per_round", s.new_factors.mean());
    values.set("grounding.removed_per_delete_round", s.removed.mean());
    values.set("factorgraph.compile_ms", s.compile_ms.median());
    values.set(
        "inference.share_of_round",
        s.totals.share(s.totals.learning_s + s.totals.inference_s),
    );
    values.set("core.materialize_s", s.materialize_s.median());
    values.set("core.materialization_bytes", materialization_bytes as f64);
    values.set("core.update_self_ms", s.totals.self_ms_per_update());
    values.set(
        "core.resharded_per_update",
        s.totals.resharded as f64 / s.totals.updates.max(1) as f64,
    );
    values.set("core.checkpoint_ms", s.checkpoint_ms.median());
    values.set("storage.wal_records", storage.wal_records as f64);
    values.set("storage.wal_bytes", storage.wal_bytes as f64);
    values.set("storage.checkpoints", storage.checkpoints as f64);
    values.set("storage.checkpoint_bytes", storage.checkpoint_bytes as f64);
    values.set("storage.fsyncs", storage.fsyncs() as f64);
    values.set("write_amp", storage.write_amp());
    eprintln!(
        "doc_stream: {pass} passes over {EPISODES} episodes of {rounds} rounds ({docs} docs); \
         round p50 {:.3} ms (n={}), {:.1} docs/s, write amplification {:.4}",
        s.round_ms.median(),
        s.round_ms.count(),
        s.docs_per_s.median(),
        storage.write_amp(),
    );
    values
}

/// Replay the storage layer's share of the run in isolation: appends of the
/// last episode's record sizes, a checkpoint write of its checkpoint size,
/// and a WAL open over a copy of the crashed directory.
fn storage_probes(
    run: &mut Run,
    crashed: &Path,
    storage: &StorageCounts,
    parent: Option<u32>,
    values: &mut Values,
) {
    let dir = run.scratch.join("storage-probe");
    let mut append_us = Recorder::default();
    match Wal::open(dir.join("wal"), FsyncPolicy::Always) {
        Ok((mut wal, _)) => {
            for size in &storage.last_wal_deltas {
                let payload = vec![0x5Au8; *size as usize];
                let (result, seconds, _) = run
                    .tracer
                    .time("storage.wal_append", parent, 0, || wal.append(&payload));
                if run.attempt("wal append replay", result).is_some() {
                    append_us.record(seconds * 1e6);
                }
            }
        }
        Err(err) => run.problem(format!("opening the probe WAL: {err}")),
    }
    values.set("storage.wal_append_us", append_us.median());

    let mut write_ms = Recorder::default();
    match CheckpointStore::open(dir.join("checkpoints")) {
        Ok(mut store) => {
            let payload = vec![0xA5u8; storage.last_checkpoint_bytes as usize];
            for seq in 1..=5 {
                let (result, seconds, _) =
                    run.tracer.time("storage.checkpoint_write", parent, 0, || {
                        store.write(seq, &payload)
                    });
                if run.attempt("checkpoint write replay", result).is_some() {
                    write_ms.record(seconds * 1e3);
                }
            }
        }
        Err(err) => run.problem(format!("opening the probe checkpoint store: {err}")),
    }
    values.set("storage.checkpoint_write_ms", write_ms.median());

    // `Wal::open` repairs torn tails in place, so it runs on a copy.
    let copy = dir.join("wal-copy");
    let copied = std::fs::create_dir_all(&copy).and_then(|()| {
        for entry in std::fs::read_dir(crashed.join("wal"))? {
            let entry = entry?;
            std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
        }
        Ok(())
    });
    if let Err(err) = copied {
        run.problem(format!("copying the crashed WAL: {err}"));
        return;
    }
    let (opened, seconds, _) = run.tracer.time("storage.wal_open", parent, 0, || {
        Wal::open(&copy, FsyncPolicy::Always)
    });
    if let Some((_, tail)) = run.attempt("wal open", opened) {
        values.set("storage.wal_open_ms", seconds * 1e3);
        values.set("storage.replayed_records", tail.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counts behind `write_amp` and `storage.*` depend on the inputs
    /// alone: two runs of one episode agree on every one of them — the size
    /// of a checkpoint file to within the few bytes by which the timing
    /// fields it carries print longer or shorter.
    #[test]
    fn an_episodes_counts_repeat() {
        let counts = |tag: &str| {
            let scratch = std::env::temp_dir().join(format!(
                "dd-benchmark-doc-stream-{}-{tag}",
                std::process::id()
            ));
            let mut run = Run::for_test(scratch.clone());
            // 20 rounds: five of them retractions, one checkpoint after the
            // sixteenth, four rounds of WAL tail.
            let ep = episode(7, 0, 1.5, 20);
            let mut samples = Samples::default();
            let outcome = run_episode(
                &mut run,
                &ep,
                0.0,
                scratch.join("episode"),
                None,
                &mut samples,
            )
            .expect("the episode runs");
            assert!(run.problems.is_empty(), "{:?}", run.problems);
            let exact = (
                outcome.engine.last_wal_seq(),
                outcome.wal.appended,
                outcome.checkpoints.deltas.len(),
                outcome.user_bytes,
                outcome.prune_syncs,
            );
            let checkpoint_bytes = outcome.checkpoints.appended;
            drop(outcome);
            std::fs::remove_dir_all(&scratch).expect("scratch directory is removable");
            (exact, checkpoint_bytes)
        };
        let (first, first_bytes) = counts("a");
        let (second, second_bytes) = counts("b");
        assert_eq!(first, second);
        assert!(
            first_bytes.abs_diff(second_bytes) <= 16,
            "{first_bytes} vs {second_bytes}"
        );
        // 20 updates + 5 retractions, one checkpoint, something written.
        assert!(first.0 >= Some(25) && first.1 > 0 && first.2 == 1 && first.3 > 0);
        assert!(first_bytes > 100_000);
    }
}
