//! Golden bytes of the durable codec.
//!
//! The checkpoint, snapshot and WAL-operation bytes of the engines
//! `tests/determinism.rs` drives (News seeds 3 and 5 through the six
//! development updates, the claims KB through insert / delete / retraction
//! rounds), plus one document that runs every encoder over every variant it
//! has, banked as FNV-1a 64 digests with their lengths.  The bytes were
//! recorded from the tree encoder's output, which the streaming encoder
//! matched byte for byte: a checkpoint file, a WAL record or a snapshot must
//! not change by one byte because of how it is produced.  A digest that
//! moves means the on-disk format moved, which needs a new
//! [`CHECKPOINT_FORMAT_VERSION`].
//!
//! The News digests of the I1 and A1 rounds were re-recorded once, without a
//! format change, by the change that made the graph's weights the engine's
//! only model: a warm round used to restart learning from the last learned
//! weight vector padded with 0.0, so I1's fixed `weight = 1.5`, created by
//! that round, was learned from and published as 0.0.  It now keeps its
//! declared value, which moves the marginals, the snapshot and the
//! checkpoint of that round and of every later one.  Every other golden —
//! the claims KB's, whose rules are all in the initial program, included —
//! held.
//!
//! Every checkpoint golden was re-recorded once more with checkpoint format
//! 4, by the change that made the query component the unit of inference:
//! the sample store names its columns (a column per variable of a component
//! above the enumeration limit, so none for these graphs) and the
//! `learned_weights` copy of the graph's weights is gone.  The same change
//! moved the snapshots of the News I1 and A1 rounds (their two-variable
//! components are now enumerated exactly instead of sampled) and every
//! claims snapshot (each document's open claim, tied by rule `C` to a
//! labelled one, was sampled as "coupled" and is now a one-variable
//! component answered exactly).  The WAL-operation goldens held.
//!
//! Every checkpoint is also encoded a second way and must agree: streamed
//! through the bounded chunk into a sink, and re-encoded by an engine
//! restored from the decoded payload (the recovery-idempotency guarantee).

use super::*;
use crate::{DeepDive, EngineConfig};
use dd_grounding::standard_udfs;
use dd_workloads::{KbcSystem, SystemKind};

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub(super) fn config() -> EngineConfig {
    EngineConfig {
        num_threads: Some(1),
        ..EngineConfig::fast()
    }
}

/// Every `(label, bytes)` the goldens pin, in order.
#[derive(Default)]
struct Banked(Vec<(String, Vec<u8>)>);

impl Banked {
    fn push(&mut self, label: impl Into<String>, bytes: Vec<u8>) {
        self.0.push((label.into(), bytes));
    }

    /// The engine's checkpoint and snapshot bytes.
    fn engine(&mut self, engine: &DeepDive, udfs: fn() -> dd_grounding::UdfRegistry, what: &str) {
        let bytes = checkpoint_bytes(engine, udfs, what);
        self.push(format!("{what} / checkpoint"), bytes);
        self.push(format!("{what} / snapshot"), snapshot_bytes(engine, what));
    }

    fn wal_op(&mut self, op: &WalOp<'_>, what: &str) {
        let bytes = encode_wal_op(op);
        let decoded = decode_wal_op(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(
            encode_wal_op(&decoded) == bytes,
            "{what}: re-encodes differently"
        );
        self.push(format!("{what} / wal op"), bytes);
    }

    /// Compare against `golden`; on a mismatch, print what was computed.
    fn check(&self, golden: &[(&str, usize, u64)]) {
        let computed: Vec<(String, usize, u64)> = self
            .0
            .iter()
            .map(|(label, bytes)| (label.clone(), bytes.len(), fnv64(bytes)))
            .collect();
        let expected: Vec<(String, usize, u64)> = golden
            .iter()
            .map(|&(label, len, digest)| (label.to_string(), len, digest))
            .collect();
        if computed != expected {
            for (label, len, digest) in &computed {
                println!("    ({label:?}, {len}, 0x{digest:016x}),");
            }
            for (c, e) in computed.iter().zip(&expected) {
                assert_eq!(c, e, "first differing golden");
            }
            assert_eq!(computed.len(), expected.len(), "number of goldens");
        }
    }
}

/// The checkpoint payload of `engine`, checked to stream through the chunk
/// as the same bytes, to decode, and to re-encode identically from an engine
/// restored from it.
fn checkpoint_bytes(
    engine: &DeepDive,
    udfs: fn() -> dd_grounding::UdfRegistry,
    what: &str,
) -> Vec<u8> {
    let snapshot = engine.snapshot();
    let view = engine.checkpoint_view(&snapshot);
    let bytes = view.to_bytes();
    let mut streamed = Vec::new();
    view.write_to(&mut streamed)
        .expect("a Vec takes every chunk");
    assert!(streamed == bytes, "{what}: streamed bytes differ");
    let state = decode_checkpoint(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    let restored = DeepDive::from_checkpoint(state, udfs(), config())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let snapshot = restored.snapshot();
    assert!(
        restored.checkpoint_view(&snapshot).to_bytes() == bytes,
        "{what}: restored engine re-encodes differently"
    );
    bytes
}

fn snapshot_bytes(engine: &DeepDive, what: &str) -> Vec<u8> {
    let bytes = encode_snapshot(&engine.snapshot());
    let decoded = decode_snapshot(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(encode_snapshot(&decoded) == bytes, "{what}");
    bytes
}

fn no_udfs() -> dd_grounding::UdfRegistry {
    dd_grounding::UdfRegistry::new()
}

#[test]
fn news_development_loop_bytes_match_the_goldens() {
    let mut banked = Banked::default();
    for seed in [3, 5] {
        let system = KbcSystem::generate(SystemKind::News, 0.2, seed);
        let mut engine = DeepDive::builder()
            .program(system.program.clone())
            .database(system.corpus.database.clone())
            .udfs(standard_udfs())
            .config(config())
            .build()
            .expect("engine builds");
        banked.engine(&engine, standard_udfs, &format!("news {seed} fresh"));
        engine.initial_run().expect("initial run");
        banked.engine(&engine, standard_udfs, &format!("news {seed} initial run"));
        engine.materialize().expect("materialize");
        banked.engine(&engine, standard_udfs, &format!("news {seed} materialized"));
        for (template, update) in system.development_updates() {
            let what = format!("news {seed} {}", template.name());
            for mode in [ExecutionMode::Incremental, ExecutionMode::Rerun] {
                let op = WalOp::Update {
                    mode,
                    update: Cow::Borrowed(&update),
                };
                banked.wal_op(&op, &format!("{what} {mode:?}"));
            }
            engine
                .run_update(&update, ExecutionMode::Incremental)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            banked.engine(&engine, standard_udfs, &what);
        }
    }
    banked.check(NEWS_GOLDEN);
}

pub(super) const CLAIMS_PROGRAM: &str = "\
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

/// The rows of one document: six claims, five of them labelled by the
/// document's parity pattern, two links.
fn claim_rows(doc: i64) -> Vec<(&'static str, Tuple)> {
    let mut rows = Vec::new();
    for id in 0..6i64 {
        rows.push(("Claim", ints(&[doc, id])));
        if id < 5 {
            let label = if (doc + id) % 3 == 0 { "Neg" } else { "Pos" };
            rows.push((label, ints(&[doc, id])));
        }
    }
    for index in 0..2i64 {
        rows.push(("Link", ints(&[doc, index, (doc + 2 * index) % 6])));
    }
    rows
}

pub(super) fn docs_update(docs: std::ops::Range<i64>, insert: bool) -> KbcUpdate {
    let mut update = KbcUpdate::new();
    for (relation, row) in docs.flat_map(claim_rows) {
        if insert {
            update.insert(relation, row);
        } else {
            update.delete(relation, row);
        }
    }
    update
}

#[test]
fn claims_kb_round_bytes_match_the_goldens() {
    let mut engine = DeepDive::builder()
        .program_text(CLAIMS_PROGRAM)
        .database(claims_database(0..40))
        .config(config())
        .build()
        .expect("engine builds");
    engine.initial_run().expect("initial run");
    engine.materialize().expect("materialize");
    let mut banked = Banked::default();
    banked.engine(&engine, no_udfs, "claims materialized");

    let mut retract = KbcUpdate::new();
    retract.retract_supervision("Fact", ints(&[20, 1]));
    let rounds = [
        ("claims insert 40..48", docs_update(40..48, true)),
        ("claims delete 3..11", docs_update(3..11, false)),
        ("claims retract one label", retract),
        ("claims insert 56..60", docs_update(56..60, true)),
    ];
    for (what, update) in rounds {
        let mode = ExecutionMode::Incremental;
        let op = WalOp::Update {
            mode,
            update: Cow::Borrowed(&update),
        };
        banked.wal_op(&op, what);
        engine.run_update(&update, mode).expect("update applies");
        banked.engine(&engine, no_udfs, what);
    }
    let plain = [
        ("initial run", WalOp::InitialRun),
        ("refresh", WalOp::Refresh),
        ("materialize", WalOp::Materialize),
        (
            "retract supervision",
            WalOp::RetractSupervision {
                relation: Cow::Borrowed("Fact \"quoted\"\n"),
                tuple: every_value(),
            },
        ),
    ];
    for (what, op) in plain {
        banked.wal_op(&op, what);
    }
    banked.check(CLAIMS_GOLDEN);
}

/// The claims database of documents `docs`.
pub(super) fn claims_database(docs: std::ops::Range<i64>) -> Database {
    let mut db = Database::new();
    for table in ["Claim", "Pos", "Neg"] {
        let pair = Schema::of(&[("doc", DataType::Int), ("id", DataType::Int)]);
        db.create_table(table, pair).expect("fresh database");
    }
    let link = Schema::of(&[
        ("doc", DataType::Int),
        ("a", DataType::Int),
        ("b", DataType::Int),
    ]);
    db.create_table("Link", link).expect("fresh database");
    for (relation, row) in docs.flat_map(claim_rows) {
        db.insert(relation, row).expect("row matches its schema");
    }
    db
}

/// A grounder whose catalog ops were never drained by a publish: the one
/// state in which a checkpoint carries pending upserts and removals.
#[test]
fn undrained_grounder_bytes_match_the_golden() {
    let program = dd_grounding::parse_program(CLAIMS_PROGRAM).expect("program parses");
    let mut grounder = dd_grounding::Grounder::new(program, claims_database(0..12), no_udfs())
        .expect("grounder builds");
    grounder.ground().expect("grounds");
    grounder
        .ground_incremental(&docs_update(3..5, false))
        .expect("deletes");
    let mut bytes = Vec::new();
    enc_grounder_state(&mut JsonWriter::new(&mut bytes), &grounder.export_state());
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.contains(r#"["upsert",["#) && text.contains(r#"["remove",["#));
    let mut banked = Banked::default();
    banked.push("claims grounder, ops pending", bytes);
    banked.check(UNDRAINED_GOLDEN);
}

/// One tuple holding every [`Value`] variant, the awkward ones included.
fn every_value() -> Tuple {
    Tuple::new(vec![
        Value::Int(i64::MIN),
        Value::text("é\u{1}🚀\\"),
        Value::Float(f64::NAN),
        Value::Float(-0.0),
        Value::Bool(false),
        Value::Null,
    ])
}

/// A program declaring every relation role and column type, with a rule of
/// every kind, weight spec, filter and semantics, constant terms and a
/// negated atom.
fn every_program() -> Program {
    let all_types = Schema::of(&[
        ("i", DataType::Int),
        ("t", DataType::Text),
        ("b", DataType::Bool),
        ("f", DataType::Float),
        ("n", DataType::Null),
    ]);
    let pair = || Schema::of(&[("x", DataType::Int), ("y", DataType::Int)]);
    let atom = |relation: &str| QueryAtom::new(relation, vec![Term::var("x"), Term::var("y")]);
    let rules = [
        (
            RuleKind::CandidateMapping,
            WeightSpec::None,
            Semantics::Linear,
        ),
        (
            RuleKind::FeatureExtraction,
            WeightSpec::Tied {
                udf: "phrase".into(),
                args: vec!["x".into(), "y".into()],
            },
            Semantics::Ratio,
        ),
        (
            RuleKind::Supervision,
            WeightSpec::Label(false),
            Semantics::Logical,
        ),
        (
            RuleKind::Inference,
            WeightSpec::Learnable { initial: -0.25 },
            Semantics::Ratio,
        ),
        (
            RuleKind::ErrorAnalysis,
            WeightSpec::Fixed(f64::INFINITY),
            Semantics::Linear,
        ),
    ];
    let mut program = Program::new()
        .declare(RelationDecl::new("All", all_types, RelationRole::Base))
        .declare(RelationDecl::new("Cand", pair(), RelationRole::Derived))
        .declare(RelationDecl::new("V", pair(), RelationRole::Variable));
    for (index, (kind, weight, semantics)) in rules.into_iter().enumerate() {
        let body = vec![
            QueryAtom::new(
                "All",
                vec![
                    Term::var("x"),
                    Term::val(Value::text("k\"")),
                    Term::val(Value::Bool(true)),
                    Term::val(Value::Float(1.5)),
                    Term::val(Value::Null),
                ],
            ),
            atom("Cand"),
            atom("V").negated(),
        ];
        let filters = vec![
            Filter::Ne("x".into(), "y".into()),
            Filter::Eq("x".into(), "x".into()),
            Filter::Lt("y".into(), "x".into()),
        ];
        program = program.rule(
            Rule::new(format!("R{index}"), kind, atom("V"), body, weight)
                .with_filters(filters)
                .with_semantics(semantics),
        );
    }
    program
}

/// A graph with every variable role and factor kind, fixed and learnable
/// weights, a non-finite weight value and a 64-bit origin key.
fn every_graph() -> FactorGraph {
    let mut g = FactorGraph::new();
    let w0 = g.add_weight(Weight::learnable(0, 0.5, "w::feat \"q\""));
    let w1 = g.add_weight(Weight::fixed(0, f64::NEG_INFINITY, "w::prior"));
    let v0 = g.add_variable(Variable::query(0).with_origin("R", u64::MAX - 1));
    let v1 = g.add_variable(Variable::evidence(0, true).with_origin("R", 2));
    let v2 = g.add_variable(Variable::evidence(0, false).with_origin("S", 3));
    g.add_factor(Factor::conjunction(w0, &[v0, v1]));
    g.add_factor(Factor::imply(w0, &[v0, v2], v1));
    g.add_factor(Factor::equal(w1, v0, v2));
    g.add_factor(Factor::is_true(w1, v2));
    for semantics in [Semantics::Linear, Semantics::Ratio, Semantics::Logical] {
        g.add_factor(Factor::new(
            w0,
            FactorKind::Aggregate {
                head: Lit::neg(v1),
                semantics,
                groundings: vec![vec![Lit::neg(v0)], vec![Lit::pos(v0), Lit::pos(v2)]],
            },
        ));
    }
    g
}

/// A database with one row of every value type, a negative count included.
fn every_database() -> Database {
    let mut db = Database::new();
    let schema = Schema::of(&[
        ("i", DataType::Int),
        ("t", DataType::Text),
        ("f", DataType::Float),
        ("f2", DataType::Float),
        ("b", DataType::Bool),
        ("n", DataType::Null),
    ]);
    db.create_table("Z", schema.clone()).expect("fresh");
    db.create_table("A", schema).expect("fresh");
    let table = db.table_mut("Z").expect("created");
    table.insert_with_count(every_value(), 3).expect("row");
    let mut other = every_value().values().to_vec();
    other[0] = Value::Int(7);
    table.insert_with_count(Tuple::new(other), -2).expect("row");
    db
}

#[test]
fn every_encoder_variant_matches_the_golden() {
    let change = DistributionChange {
        new_factors: vec![3, 1],
        changed_weights: vec![(0, 0.75), (1, f64::NAN)],
        new_evidence: vec![(2, true), (0, false)],
        new_variables: vec![4],
    };
    let records = [
        GroundingRecord {
            support: -3,
            factor: None,
            label: None,
        },
        GroundingRecord {
            support: i64::MAX,
            factor: Some(9),
            label: Some(true),
        },
    ];
    let ops = [
        CatalogOp::Upsert(ints(&[1, 2]), 5),
        CatalogOp::Remove(every_value()),
    ];
    let mut bytes = Vec::new();
    JsonWriter::new(&mut bytes).object(|w| {
        enc_program(w.key("program"), &every_program());
        enc_database(w.key("db"), &every_database());
        enc_graph(w.key("graph"), &every_graph());
        enc_distribution_change(w.key("change"), &change);
        w.key("records").array(&records, enc_grounding_record);
        w.key("ops").array(&ops, enc_catalog_op);
        w.key("floats")
            .array([0.1 + 0.2, -0.0, 1e300, f64::NAN, f64::INFINITY], |w, x| {
                enc_f64(w, x)
            });
    });
    let mut banked = Banked::default();
    banked.push("every variant", bytes);
    banked.check(EVERY_VARIANT_GOLDEN);
}

const UNDRAINED_GOLDEN: &[(&str, usize, u64)] =
    &[("claims grounder, ops pending", 57187, 0x261608b3abd67331)];

const EVERY_VARIANT_GOLDEN: &[(&str, usize, u64)] = &[("every variant", 5910, 0xdb34469f3ee2064b)];

const NEWS_GOLDEN: &[(&str, usize, u64)] = &[
    ("news 3 fresh / checkpoint", 18961, 0x1b099cfafc4bc07c),
    ("news 3 fresh / snapshot", 230, 0x7f8817f61cf0a7b8),
    ("news 3 initial run / checkpoint", 21104, 0xebdfb3bc595db4b1),
    ("news 3 initial run / snapshot", 230, 0x98617d20b3d4ad85),
    (
        "news 3 materialized / checkpoint",
        22498,
        0x7c17a70ce1e040a2,
    ),
    ("news 3 materialized / snapshot", 230, 0x98617d20b3d4ad85),
    ("news 3 FE1 Incremental / wal op", 678, 0xec951f489d2bbe07),
    ("news 3 FE1 Rerun / wal op", 672, 0xe55f866b538fb479),
    ("news 3 FE1 / checkpoint", 47706, 0x88f4d45ec8dcc9c5),
    ("news 3 FE1 / snapshot", 3545, 0x7ff3cfcca4a89c1d),
    ("news 3 FE2 Incremental / wal op", 588, 0x181887aa682bab19),
    ("news 3 FE2 Rerun / wal op", 582, 0xc2801ae7b24d2573),
    ("news 3 FE2 / checkpoint", 62438, 0xd74e0d8c8f492572),
    ("news 3 FE2 / snapshot", 4408, 0x78cd0401d7a971e3),
    ("news 3 S1 Incremental / wal op", 592, 0x2277a4fe9d2010c9),
    ("news 3 S1 Rerun / wal op", 586, 0xe9f81f33c656318b),
    ("news 3 S1 / checkpoint", 63634, 0x39bb9c6afdb7e0bf),
    ("news 3 S1 / snapshot", 4234, 0x2ee76d8a8d01f3bf),
    ("news 3 S2 Incremental / wal op", 593, 0xd8a4b67d007cbee9),
    ("news 3 S2 Rerun / wal op", 587, 0x48e8a02f81e0b9af),
    ("news 3 S2 / checkpoint", 64143, 0x4bd1be82cefe1a72),
    ("news 3 S2 / snapshot", 4234, 0xe42f35387342a336),
    ("news 3 I1 Incremental / wal op", 373, 0x17bd31c476c17ee0),
    ("news 3 I1 Rerun / wal op", 367, 0x254923e83ddc33e2),
    ("news 3 I1 / checkpoint", 85098, 0x01ac2c300e76cfaa),
    ("news 3 I1 / snapshot", 7211, 0x4bb7e8ef9d2f30e1),
    ("news 3 A1 Incremental / wal op", 95, 0xa19e5437450768ab),
    ("news 3 A1 Rerun / wal op", 89, 0x2c9f131b62b99291),
    ("news 3 A1 / checkpoint", 85098, 0xf8583fbf030d8776),
    ("news 3 A1 / snapshot", 7211, 0xd9ea5e360cfda88a),
    ("news 5 fresh / checkpoint", 18437, 0x51383544a1b175ee),
    ("news 5 fresh / snapshot", 230, 0x7f8817f61cf0a7b8),
    ("news 5 initial run / checkpoint", 20580, 0x3ab83b65204549c5),
    ("news 5 initial run / snapshot", 230, 0x98617d20b3d4ad85),
    (
        "news 5 materialized / checkpoint",
        21974,
        0x91eb35f74ef5b92e,
    ),
    ("news 5 materialized / snapshot", 230, 0x98617d20b3d4ad85),
    ("news 5 FE1 Incremental / wal op", 678, 0xec951f489d2bbe07),
    ("news 5 FE1 Rerun / wal op", 672, 0xe55f866b538fb479),
    ("news 5 FE1 / checkpoint", 47012, 0x9314d6873ed7a010),
    ("news 5 FE1 / snapshot", 3503, 0xcf5b3c2d21e5eca8),
    ("news 5 FE2 Incremental / wal op", 588, 0x181887aa682bab19),
    ("news 5 FE2 Rerun / wal op", 582, 0xc2801ae7b24d2573),
    ("news 5 FE2 / checkpoint", 61775, 0x719c9d0b8fe186b2),
    ("news 5 FE2 / snapshot", 4388, 0xf4ef2f0de67b0568),
    ("news 5 S1 Incremental / wal op", 592, 0x2277a4fe9d2010c9),
    ("news 5 S1 Rerun / wal op", 586, 0xe9f81f33c656318b),
    ("news 5 S1 / checkpoint", 62743, 0xcc3ab02da33b49fb),
    ("news 5 S1 / snapshot", 4279, 0x75dddaa244539d56),
    ("news 5 S2 Incremental / wal op", 593, 0xd8a4b67d007cbee9),
    ("news 5 S2 Rerun / wal op", 587, 0x48e8a02f81e0b9af),
    ("news 5 S2 / checkpoint", 63252, 0x7575a5e9c7e2b428),
    ("news 5 S2 / snapshot", 4279, 0xb05a3673c5708c51),
    ("news 5 I1 Incremental / wal op", 373, 0x17bd31c476c17ee0),
    ("news 5 I1 Rerun / wal op", 367, 0x254923e83ddc33e2),
    ("news 5 I1 / checkpoint", 84218, 0xf50d6256ed4dd097),
    ("news 5 I1 / snapshot", 7257, 0xd2d2b7cea0a83e2f),
    ("news 5 A1 Incremental / wal op", 95, 0xa19e5437450768ab),
    ("news 5 A1 Rerun / wal op", 89, 0x2c9f131b62b99291),
    ("news 5 A1 / checkpoint", 84218, 0x014d4924baac282b),
    ("news 5 A1 / snapshot", 7257, 0xf7ddb4ebfaa99e10),
];

const CLAIMS_GOLDEN: &[(&str, usize, u64)] = &[
    (
        "claims materialized / checkpoint",
        207843,
        0x6f27af5e1e70c541,
    ),
    ("claims materialized / snapshot", 21710, 0x8284ce572bc5ba16),
    ("claims insert 40..48 / wal op", 5637, 0x317364d2d7f9fec3),
    (
        "claims insert 40..48 / checkpoint",
        245398,
        0x665ff00e3405b197,
    ),
    ("claims insert 40..48 / snapshot", 25558, 0x6c8a19c5537f3b25),
    ("claims delete 3..11 / wal op", 5650, 0x4e085c82c6f09dc6),
    (
        "claims delete 3..11 / checkpoint",
        202293,
        0xe7ea97c48f63fab6,
    ),
    ("claims delete 3..11 / snapshot", 21299, 0x93d3522842ec5c31),
    ("claims retract one label / wal op", 146, 0x94ef43b94692987e),
    (
        "claims retract one label / checkpoint",
        202362,
        0x811a62afc30fe6fa,
    ),
    (
        "claims retract one label / snapshot",
        21316,
        0x0e247e6c9114f5f3,
    ),
    ("claims insert 56..60 / wal op", 2929, 0x360af301852b28f3),
    (
        "claims insert 56..60 / checkpoint",
        220372,
        0xc6ef3c04eb5a88fb,
    ),
    ("claims insert 56..60 / snapshot", 23226, 0xea1e1504b5cb4e02),
    ("initial run / wal op", 20, 0xf7a3ee72556be95e),
    ("refresh / wal op", 16, 0xa6d96f0d59dcb477),
    ("materialize / wal op", 20, 0xae0b37989599f371),
    ("retract supervision / wal op", 262, 0xb11186023c78d6f9),
];
