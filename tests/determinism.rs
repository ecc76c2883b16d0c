//! Per-seed determinism pins across the sampler stack.
//!
//! The engine's contract is that every sampler consumes the same RNG stream
//! in the same order for a given seed, so marginals, MH acceptance rates and
//! canonical snapshot bytes are a pure function of (corpus seed, config).
//! A change that moves a digest changed a chain, not just its cost.
//!
//! The digests were first recorded on the commit *before* the sample store
//! and the relation catalog changed representation (arena-backed
//! `SampleSet`, interned relation names) and held through it.  Every
//! snapshot digest (`PINNED`, both columns, and `PINNED_CLAIMS`) was then
//! re-recorded once, deliberately, by the change that made the samplers act
//! on the static/coupled split of the query variables: a static variable's
//! published marginal is now its exact value instead of a 300-sweep
//! estimate, its column of the sample store is i.i.d. draws instead of a
//! Gibbs chain's, the coupled variables' chain no longer shares its RNG
//! stream with coin flips for static ones, and a round over a graph without
//! coupled variables reports no MH acceptance rate.  Learning was not
//! touched: `PINNED_WEIGHTS` was recorded on the parent of that change and
//! holds across it bit for bit.
//!
//! `PINNED_CLAIMS` alone was re-recorded once more, by the change that had
//! the variational strategy read the current graph plus the change
//! accumulated since materialization.  Before it, that strategy replayed the
//! round's own delta on its approximate graph, and a bounds check in the
//! wrong id space rejected every delta that labels a variable it also
//! creates — so each of the claims KB's Variational rounds had been answered
//! by full Gibbs.  They are now answered by the approximation.  `PINNED`
//! (every Variational round of the News loop couples no query variable and
//! is answered in closed form) and `PINNED_WEIGHTS` held across it.
//!
//! `PINNED` and `PINNED_WEIGHTS` were then re-recorded once, by the change
//! that made the graph's weights the engine's only model.  Before it, a warm
//! (Incremental) round restarted learning from a copy of the last learned
//! weight vector padded with 0.0, so a weight the round's new rule created
//! started at 0.0 instead of its declared value — a fixed one stayed there.
//! The News loop adds I1 (`weight = 1.5`, fixed) incrementally, so every
//! round from I1 on moved.  `PINNED_CLAIMS` (every claims rule is in the
//! initial program, so no round creates a weight) held across it, as did
//! every digest before the model change itself: the seeds moving from the
//! option structs to arguments changed no stream.
//!
//! `PINNED` and `PINNED_CLAIMS` were then re-recorded once more, by the
//! change that made the query component the unit of inference: every
//! component of at most 12 query variables — every component of both
//! programs — is now answered by exact enumeration on the current graph,
//! in every mode and strategy, where a Gibbs chain or an MH chain over the
//! stored worlds estimated it before.  News moves from I1 on (before it,
//! every component was a static singleton and already exact); its MH rounds
//! now report no acceptance rate, and the digest of materializing once now
//! equals the one of re-materializing after every update, since the store
//! keeps no column for a graph of small components.  The claims KB moves
//! from the first publish: rule `C` ties each document's one open claim to
//! a labelled one, which the old static/coupled split called coupled and
//! sampled; evidence now cuts it into a one-variable component.  Learning
//! was not touched and `PINNED_WEIGHTS` holds bit for bit.

mod support;

use deepdive_repro::prelude::*;
use support::scratch_dir;

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn news(seed: u64) -> (KbcSystem, DeepDive) {
    let system = KbcSystem::generate(SystemKind::News, 0.2, seed);
    let engine = DeepDive::builder()
        .program(system.program.clone())
        .database(system.corpus.database.clone())
        .udfs(standard_udfs())
        .config(EngineConfig {
            num_threads: Some(1),
            ..EngineConfig::fast()
        })
        .build()
        .expect("engine builds");
    (system, engine)
}

/// `initial_run` + `materialize` + the six development updates run
/// incrementally, digesting the canonical snapshot bytes, the optimizer's
/// choice and the MH acceptance rate after every step.  With
/// `rematerialize`, the materialization is rebuilt after every update (the
/// repo benchmark's `dev_loop` shape), so each update's MH chain runs
/// against a fresh sample store.
fn development_digest(seed: u64, rematerialize: bool) -> u64 {
    let (system, mut engine) = news(seed);
    let mut digest = Fnv::new();
    engine.initial_run().expect("initial run");
    digest.write(&encode_snapshot(&engine.snapshot()));
    engine.materialize().expect("materialize");
    let materialization = engine.materialization().expect("just materialized");
    digest.write(&(materialization.sample_storage_bytes() as u64).to_le_bytes());
    for p in materialization.sampling.original_marginals().values() {
        digest.write(&p.to_bits().to_le_bytes());
    }
    for (template, update) in system.development_updates() {
        let report = engine
            .run_update(&update, ExecutionMode::Incremental)
            .unwrap_or_else(|e| panic!("{}: {e}", template.name()));
        digest.write(format!("{:?}", report.strategy).as_bytes());
        digest.write(
            &report
                .acceptance_rate
                .map_or(u64::MAX, f64::to_bits)
                .to_le_bytes(),
        );
        digest.write(&[u8::from(report.fell_back_to_variational)]);
        digest.write(&encode_snapshot(&engine.snapshot()));
        if rematerialize {
            engine.materialize().expect("re-materialize");
        }
    }
    digest.0
}

/// The learned model through [`development_digest`]'s steps: `initial_run`
/// learns cold, every development update warm.
fn learned_weights_digest(seed: u64) -> u64 {
    let (system, mut engine) = news(seed);
    let mut digest = Fnv::new();
    let mut absorb = |engine: &DeepDive| {
        for w in engine.learned_weights() {
            digest.write(&w.to_bits().to_le_bytes());
        }
    };
    engine.initial_run().expect("initial run");
    absorb(&engine);
    engine.materialize().expect("materialize");
    for (template, update) in system.development_updates() {
        engine
            .run_update(&update, ExecutionMode::Incremental)
            .unwrap_or_else(|e| panic!("{}: {e}", template.name()));
        absorb(&engine);
    }
    digest.0
}

/// Claims-shaped program (the serving benchmark's shape): variables are
/// created by the *initial* full grounding, two variable relations, most
/// variables pinned by supervision, claim 5 of every document left open.
const CLAIMS_PROGRAM: &str = "\
    relation Claim(doc: int, id: int) base.\n\
    relation Pos(doc: int, id: int) base.\n\
    relation Neg(doc: int, id: int) base.\n\
    relation Link(doc: int, a: int, b: int) base.\n\
    relation Fact(doc: int, id: int) variable.\n\
    relation Rel(doc: int, a: int, b: int) variable.\n\
    rule F feature: Fact(doc, id) :- Claim(doc, id) weight = 1.5.\n\
    rule SP supervision+: Fact(doc, id) :- Claim(doc, id), Pos(doc, id).\n\
    rule SN supervision-: Fact(doc, id) :- Claim(doc, id), Neg(doc, id).\n\
    rule L feature: Rel(doc, a, b) :- Link(doc, a, b) weight = 0.5.\n\
    rule LP supervision+: Rel(doc, a, b) :- Link(doc, a, b), Pos(doc, a).\n\
    rule LN supervision-: Rel(doc, a, b) :- Link(doc, a, b), Neg(doc, a).\n\
    rule C inference: Fact(doc, b) :- Link(doc, a, b), Fact(doc, a) weight = 0.8.\n";

fn ints(values: &[i64]) -> Tuple {
    Tuple::from_iter(values.iter().map(|v| Value::Int(*v)))
}

/// The rows of one document, a pure function of `(seed, doc)`.
fn claim_rows(seed: u64, doc: i64) -> Vec<(&'static str, Tuple)> {
    let mut bits = Fnv::new();
    bits.write(&seed.to_le_bytes());
    bits.write(&doc.to_le_bytes());
    let bits = bits.0;
    let mut rows = Vec::new();
    for id in 0..6i64 {
        rows.push(("Claim", ints(&[doc, id])));
        if id < 5 {
            let label = if (bits >> id) & 1 == 1 { "Pos" } else { "Neg" };
            rows.push((label, ints(&[doc, id])));
        }
    }
    for index in 0..2i64 {
        let b = ((bits >> (8 + 4 * index)) % 6) as i64;
        rows.push(("Link", ints(&[doc, index, b])));
    }
    rows
}

fn claims_database(seed: u64, docs: std::ops::Range<i64>) -> Database {
    let mut db = Database::new();
    let pair = || Schema::of(&[("doc", DataType::Int), ("id", DataType::Int)]);
    for table in ["Claim", "Pos", "Neg"] {
        db.create_table(table, pair()).expect("fresh database");
    }
    let link = Schema::of(&[
        ("doc", DataType::Int),
        ("a", DataType::Int),
        ("b", DataType::Int),
    ]);
    db.create_table("Link", link).expect("fresh database");
    for doc in docs {
        for (relation, row) in claim_rows(seed, doc) {
            db.insert(relation, row).expect("row matches its schema");
        }
    }
    db
}

fn claims_builder(seed: u64, docs: std::ops::Range<i64>) -> DeepDiveBuilder {
    DeepDive::builder()
        .program_text(CLAIMS_PROGRAM)
        .database(claims_database(seed, docs))
        .config(EngineConfig {
            num_threads: Some(1),
            ..EngineConfig::fast()
        })
}

fn insert_docs(seed: u64, docs: std::ops::Range<i64>) -> KbcUpdate {
    let mut update = KbcUpdate::new();
    for doc in docs {
        for (relation, row) in claim_rows(seed, doc) {
            update.insert(relation, row);
        }
    }
    update
}

/// Initial run over 40 documents, materialize, then insert / delete /
/// supervision-retraction rounds (the deletes compact variable and factor
/// ids by `swap_remove`, so the digest also pins id assignment).
fn claims_digest(seed: u64) -> u64 {
    let mut engine = claims_builder(seed, 0..40).build().expect("engine builds");
    let mut digest = Fnv::new();
    engine.initial_run().expect("initial run");
    digest.write(&encode_snapshot(&engine.snapshot()));
    engine.materialize().expect("materialize");
    let docs_update = |docs: std::ops::Range<i64>, insert: bool| {
        let mut update = KbcUpdate::new();
        for doc in docs {
            for (relation, row) in claim_rows(seed, doc) {
                if insert {
                    update.insert(relation, row);
                } else {
                    update.delete(relation, row);
                }
            }
        }
        update
    };
    let mut step = |engine: &mut DeepDive, update: &KbcUpdate| {
        let report = engine
            .run_update(update, ExecutionMode::Incremental)
            .expect("update applies");
        digest.write(format!("{:?}", report.strategy).as_bytes());
        digest.write(
            &report
                .acceptance_rate
                .map_or(u64::MAX, f64::to_bits)
                .to_le_bytes(),
        );
        digest.write(&encode_snapshot(&engine.snapshot()));
    };
    step(&mut engine, &docs_update(40..48, true));
    step(&mut engine, &docs_update(48..56, true));
    step(&mut engine, &docs_update(3..11, false));
    engine.materialize().expect("re-materialize");
    let mut retract = KbcUpdate::new();
    retract.retract_supervision("Fact", ints(&[20, 1]));
    step(&mut engine, &retract);
    engine.materialize().expect("re-materialize");
    step(&mut engine, &docs_update(56..60, true));
    step(&mut engine, &docs_update(0..3, false));
    digest.0
}

/// `(corpus seed, digest materializing once, digest re-materializing after
/// every update)`.
const PINNED: [(u64, u64, u64); 3] = [
    (3, 0x6100_0d5e_e3c7_b588, 0x6100_0d5e_e3c7_b588),
    (5, 0x11ee_c472_b09e_0a92, 0x11ee_c472_b09e_0a92),
    (11, 0x8227_945f_2d74_8f02, 0x8227_945f_2d74_8f02),
];

#[test]
fn development_loop_digests_are_pinned_per_seed() {
    let got: Vec<(u64, u64, u64)> = PINNED
        .iter()
        .map(|&(seed, _, _)| {
            (
                seed,
                development_digest(seed, false),
                development_digest(seed, true),
            )
        })
        .collect();
    assert_eq!(got, PINNED, "got {got:#018x?}");
}

/// `(corpus seed, digest)` of [`learned_weights_digest`], recorded when warm
/// rounds started learning from the graph's own weights (see the module
/// docs): `sweep` and the gradient chains sample every free variable on the
/// same RNG streams as before the static/coupled split.
const PINNED_WEIGHTS: [(u64, u64); 3] = [
    (3, 0xfdb1_c660_78f7_4b08),
    (5, 0x86ef_3410_c5bf_f62c),
    (11, 0x72ad_ec23_d0c3_f08e),
];

#[test]
fn learned_weights_are_bit_identical_to_the_parents() {
    let got: Vec<(u64, u64)> = PINNED_WEIGHTS
        .iter()
        .map(|&(seed, _)| (seed, learned_weights_digest(seed)))
        .collect();
    assert_eq!(got, PINNED_WEIGHTS, "got {got:#018x?}");
}

/// The same seed twice: identical snapshot bytes after every step, and an
/// identical sample store — which, every News component being small enough
/// to enumerate, keeps the sample count and no column.
#[test]
fn same_seed_twice_gives_identical_snapshots_and_sample_store() {
    let run = |seed: u64| {
        let (system, mut engine) = news(seed);
        let mut snapshots = Vec::new();
        engine.initial_run().expect("initial run");
        snapshots.push(encode_snapshot(&engine.snapshot()));
        engine.materialize().expect("materialize");
        for (_, update) in system.development_updates() {
            engine
                .run_update(&update, ExecutionMode::Incremental)
                .expect("update applies");
            snapshots.push(encode_snapshot(&engine.snapshot()));
            engine.materialize().expect("re-materialize");
        }
        let store = engine
            .materialization()
            .expect("materialized")
            .sampling
            .samples()
            .clone();
        (snapshots, store)
    };
    let (snapshots_a, store_a) = run(5);
    let (snapshots_b, store_b) = run(5);
    assert!(snapshots_a == snapshots_b, "snapshot bytes differ");
    assert!(!store_a.is_empty() && store_a.columns().is_empty());
    assert!(store_a == store_b, "sample stores differ");
    let (snapshots_c, _) = run(6);
    assert!(snapshots_a != snapshots_c);
}

/// `(seed, digest)` of [`claims_digest`].
const PINNED_CLAIMS: [(u64, u64); 3] = [
    (1, 0x4b0b_140f_bcc9_5b16),
    (2, 0x2539_5a82_df14_b341),
    (9, 0xae06_d936_c264_6006),
];

#[test]
fn claims_kb_digests_are_pinned_per_seed() {
    let got: Vec<(u64, u64)> = PINNED_CLAIMS
        .iter()
        .map(|&(seed, _)| (seed, claims_digest(seed)))
        .collect();
    assert_eq!(got, PINNED_CLAIMS, "got {got:#018x?}");
}

// ------------------------------------------------------------ checkpoints

/// The durable scenario behind the checkpoint tests and the committed
/// fixture: 6 documents (48 variables — not a multiple of 64, so sample
/// rows end in a partial word), `initial_run`, `materialize`, one
/// incremental insert, a checkpoint, and one more insert left in the WAL.
fn durable_claims_run(dir: &std::path::Path) -> DeepDive {
    let mut engine = claims_builder(1, 0..6)
        .durability(DurabilityConfig::new(dir))
        .build()
        .expect("durable engine builds");
    engine.initial_run().expect("initial run");
    engine.materialize().expect("materialize");
    engine
        .run_update(&insert_docs(1, 6..8), ExecutionMode::Incremental)
        .expect("first insert");
    engine.checkpoint().expect("checkpoint");
    engine
        .run_update(&insert_docs(1, 8..9), ExecutionMode::Incremental)
        .expect("second insert");
    engine
}

fn checkpoint_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("checkpoints"))
        .expect("checkpoint dir lists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "ckpt"))
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), std::fs::read(&path).expect("readable"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn two_durable_runs_of_one_seed_write_identical_checkpoint_files() {
    let (a, b) = (scratch_dir("ckpt-a"), scratch_dir("ckpt-b"));
    drop(durable_claims_run(&a));
    drop(durable_claims_run(&b));
    let (files_a, files_b) = (checkpoint_files(&a), checkpoint_files(&b));
    assert!(!files_a.is_empty(), "the run checkpointed");
    assert_eq!(
        files_a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        files_b.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    for ((name, bytes_a), (_, bytes_b)) in files_a.iter().zip(&files_b) {
        assert!(
            bytes_a == bytes_b,
            "{name}: checkpoint bytes are not a pure function of the inputs"
        );
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("target dir");
    for entry in std::fs::read_dir(from).expect("source dir lists") {
        let path = entry.expect("dir entry").path();
        let target = to.join(path.file_name().expect("file name"));
        if path.is_dir() {
            copy_dir(&path, &target);
        } else {
            std::fs::copy(&path, &target).expect("copy");
        }
    }
}

/// `tests/fixtures/parent_datadir` is the data directory
/// [`durable_claims_run`] left behind on commit a1ef59d, the last to write
/// checkpoint format 2 (each variable's active flag, the whole-graph
/// strawman, the materialization's model weights, seconds and sample
/// counts, the engine's coverage pair).  It must keep recovering: same
/// snapshot as an engine that never stopped, and — since the decoded sample
/// store and approximation feed the next round — the same snapshot after one
/// more incremental update.
#[test]
fn parent_written_data_directory_still_recovers() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_datadir");
    let dir = scratch_dir("fixture");
    copy_dir(&fixture, &dir);
    let mut recovered = claims_builder(1, 0..6)
        .durability(DurabilityConfig::new(&dir))
        .build()
        .expect("parent-written directory recovers");
    assert!(recovered.recovery_replay_errors().is_empty());

    let reference_dir = scratch_dir("fixture-reference");
    let mut reference = durable_claims_run(&reference_dir);
    assert_eq!(recovered.epoch(), reference.epoch());
    assert!(encode_snapshot(&recovered.snapshot()) == encode_snapshot(&reference.snapshot()));
    assert_eq!(
        recovered
            .materialization()
            .map(|m| m.sample_storage_bytes()),
        reference
            .materialization()
            .map(|m| m.sample_storage_bytes()),
    );

    let next = insert_docs(1, 9..11);
    for engine in [&mut recovered, &mut reference] {
        engine
            .run_update(&next, ExecutionMode::Incremental)
            .expect("update after recovery");
    }
    assert!(encode_snapshot(&recovered.snapshot()) == encode_snapshot(&reference.snapshot()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}
