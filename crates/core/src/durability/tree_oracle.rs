//! The tree encoder the streaming codec replaced, kept as the byte-for-byte
//! oracle: every `enc_*` below builds a [`Json`] tree exactly as the
//! production encoders did before they wrote through `JsonWriter`, and the
//! tests compare the two on the engines `tests/determinism.rs` drives (News
//! corpora through the six development updates, the claims KB through
//! insert / delete / retraction rounds).  A checkpoint file, a WAL record or
//! a snapshot must not change by one byte because of how it is produced.
//! The oracle encodes the format the encoder writes: when checkpoint format 3
//! retired members of format 2, they were dropped here too.

use super::*;
use dd_wire::json::Json;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Integers ride as decimal strings (JSON numbers are f64; 2^53 is too small
/// for seqs, epochs, and variable keys).
fn enc_u64(n: u64) -> Json {
    Json::String(n.to_string())
}

fn enc_i64(n: i64) -> Json {
    Json::String(n.to_string())
}

fn enc_usize(n: usize) -> Json {
    Json::String(n.to_string())
}

/// Finite floats encode as JSON numbers (shortest round-trip form); NaN and
/// infinities — which JSON cannot represent — as `"bits:<hex>"`.
fn enc_f64(x: f64) -> Json {
    if x.is_finite() {
        Json::Number(x)
    } else {
        Json::String(format!("bits:{:016x}", x.to_bits()))
    }
}

/// Bit-exact float form, used for all non-finite floats and for every
/// [`Value::Float`] (tuple equality is bit-level).
fn enc_f64_bits(x: f64) -> Json {
    Json::String(format!("bits:{:016x}", x.to_bits()))
}

/// Lower-case hex of `len` bytes.
fn enc_hex(len: usize, bytes: impl Iterator<Item = u8>) -> Json {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(len * 2);
    for b in bytes {
        s.push(DIGITS[usize::from(b >> 4)] as char);
        s.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    Json::String(s)
}

fn enc_value(v: &Value) -> Json {
    match v {
        Value::Int(i) => obj(vec![("t", Json::String("int".into())), ("v", enc_i64(*i))]),
        Value::Text(s) => obj(vec![
            ("t", Json::String("text".into())),
            ("v", Json::String(s.to_string())),
        ]),
        Value::Bool(b) => obj(vec![
            ("t", Json::String("bool".into())),
            ("v", Json::Bool(*b)),
        ]),
        Value::Float(x) => obj(vec![
            ("t", Json::String("float".into())),
            ("v", enc_f64_bits(*x)),
        ]),
        Value::Null => obj(vec![("t", Json::String("null".into()))]),
    }
}

fn enc_tuple(t: &Tuple) -> Json {
    Json::Array(t.values().iter().map(enc_value).collect())
}

fn enc_data_type(t: DataType) -> Json {
    Json::String(
        match t {
            DataType::Int => "int",
            DataType::Text => "text",
            DataType::Bool => "bool",
            DataType::Float => "float",
            DataType::Null => "null",
        }
        .into(),
    )
}

fn enc_schema(s: &Schema) -> Json {
    Json::Array(
        s.columns()
            .iter()
            .map(|c| {
                obj(vec![
                    ("name", Json::String(c.name.clone())),
                    ("type", enc_data_type(c.data_type)),
                ])
            })
            .collect(),
    )
}

fn enc_table(t: &Table) -> Json {
    // `iter_net_counted` (not `iter_counted`): DRed over-deletion can leave
    // *negative* counts in a view table, and exact recovery must keep them.
    obj(vec![
        ("name", Json::String(t.name().to_string())),
        ("schema", enc_schema(t.schema())),
        (
            "rows",
            Json::Array(
                t.iter_net_counted()
                    .map(|(tuple, count)| Json::Array(vec![enc_tuple(tuple), enc_i64(count)]))
                    .collect(),
            ),
        ),
    ])
}

fn enc_database(db: &Database) -> Json {
    let mut names = db.table_names();
    names.sort();
    Json::Array(
        names
            .iter()
            .map(|n| enc_table(db.table(n).expect("listed table exists")))
            .collect(),
    )
}

fn enc_delta_relation(d: &DeltaRelation) -> Json {
    obj(vec![
        ("relation", Json::String(d.relation().to_string())),
        (
            "changes",
            Json::Array(
                d.iter()
                    .map(|(t, c)| Json::Array(vec![enc_tuple(t), enc_i64(c)]))
                    .collect(),
            ),
        ),
    ])
}

fn enc_term(t: &Term) -> Json {
    match t {
        Term::Var(v) => obj(vec![("var", Json::String(v.clone()))]),
        Term::Const(v) => obj(vec![("const", enc_value(v))]),
    }
}

fn enc_atom(a: &QueryAtom) -> Json {
    obj(vec![
        ("relation", Json::String(a.relation.clone())),
        ("terms", Json::Array(a.terms.iter().map(enc_term).collect())),
        ("negated", Json::Bool(a.negated)),
    ])
}

fn enc_filter(f: &Filter) -> Json {
    let (op, l, r) = match f {
        Filter::Ne(l, r) => ("ne", l, r),
        Filter::Eq(l, r) => ("eq", l, r),
        Filter::Lt(l, r) => ("lt", l, r),
    };
    obj(vec![
        ("op", Json::String(op.into())),
        ("l", Json::String(l.clone())),
        ("r", Json::String(r.clone())),
    ])
}

fn enc_semantics(s: Semantics) -> Json {
    Json::String(s.label().into())
}

fn enc_rule_kind(k: RuleKind) -> Json {
    Json::String(k.label().into())
}

fn enc_weight_spec(w: &WeightSpec) -> Json {
    match w {
        WeightSpec::Fixed(v) => obj(vec![
            ("t", Json::String("fixed".into())),
            ("v", enc_f64(*v)),
        ]),
        WeightSpec::Learnable { initial } => obj(vec![
            ("t", Json::String("learnable".into())),
            ("initial", enc_f64(*initial)),
        ]),
        WeightSpec::Tied { udf, args } => obj(vec![
            ("t", Json::String("tied".into())),
            ("udf", Json::String(udf.clone())),
            (
                "args",
                Json::Array(args.iter().map(|a| Json::String(a.clone())).collect()),
            ),
        ]),
        WeightSpec::Label(polarity) => obj(vec![
            ("t", Json::String("label".into())),
            ("v", Json::Bool(*polarity)),
        ]),
        WeightSpec::None => obj(vec![("t", Json::String("none".into()))]),
    }
}

fn enc_rule(r: &Rule) -> Json {
    obj(vec![
        ("name", Json::String(r.name.clone())),
        ("kind", enc_rule_kind(r.kind)),
        ("head", enc_atom(&r.head)),
        ("body", Json::Array(r.body.iter().map(enc_atom).collect())),
        (
            "filters",
            Json::Array(r.filters.iter().map(enc_filter).collect()),
        ),
        ("weight", enc_weight_spec(&r.weight)),
        ("semantics", enc_semantics(r.semantics)),
    ])
}

fn enc_program(p: &Program) -> Json {
    obj(vec![
        (
            "relations",
            Json::Array(
                p.relations
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("name", Json::String(d.name.clone())),
                            ("schema", enc_schema(&d.schema)),
                            (
                                "role",
                                Json::String(
                                    match d.role {
                                        RelationRole::Base => "base",
                                        RelationRole::Derived => "derived",
                                        RelationRole::Variable => "variable",
                                    }
                                    .into(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("rules", Json::Array(p.rules.iter().map(enc_rule).collect())),
    ])
}

fn enc_variable(v: &Variable) -> Json {
    obj(vec![
        ("id", enc_usize(v.id)),
        (
            "role",
            Json::String(
                match v.role {
                    VariableRole::Query => "query",
                    VariableRole::PositiveEvidence => "pos",
                    VariableRole::NegativeEvidence => "neg",
                }
                .into(),
            ),
        ),
        ("initial_value", Json::Bool(v.initial_value)),
        ("relation", Json::String(v.relation.to_string())),
        ("key", enc_u64(v.key)),
    ])
}

fn enc_lit(l: &Lit) -> Json {
    Json::Array(vec![enc_usize(l.var), Json::Bool(l.positive)])
}

fn enc_lits(lits: &[Lit]) -> Json {
    Json::Array(lits.iter().map(enc_lit).collect())
}

fn enc_factor(f: &Factor) -> Json {
    let kind = match &f.kind {
        FactorKind::Conjunction(lits) => obj(vec![
            ("t", Json::String("conj".into())),
            ("lits", enc_lits(lits)),
        ]),
        FactorKind::Imply { body, head } => obj(vec![
            ("t", Json::String("imply".into())),
            ("body", enc_lits(body)),
            ("head", enc_lit(head)),
        ]),
        FactorKind::Equal(a, b) => obj(vec![
            ("t", Json::String("equal".into())),
            ("a", enc_usize(*a)),
            ("b", enc_usize(*b)),
        ]),
        FactorKind::IsTrue(v) => obj(vec![
            ("t", Json::String("is_true".into())),
            ("v", enc_usize(*v)),
        ]),
        FactorKind::Aggregate {
            head,
            semantics,
            groundings,
        } => obj(vec![
            ("t", Json::String("agg".into())),
            ("head", enc_lit(head)),
            ("semantics", enc_semantics(*semantics)),
            (
                "groundings",
                Json::Array(groundings.iter().map(|g| enc_lits(g)).collect()),
            ),
        ]),
    };
    obj(vec![("weight", enc_usize(f.weight_id)), ("kind", kind)])
}

fn enc_graph(g: &FactorGraph) -> Json {
    obj(vec![
        (
            "variables",
            Json::Array(g.variables().iter().map(enc_variable).collect()),
        ),
        (
            "weights",
            Json::Array(
                g.weights()
                    .iter()
                    .map(|w| {
                        obj(vec![
                            ("id", enc_usize(w.id)),
                            ("value", enc_f64(w.value)),
                            ("fixed", Json::Bool(w.fixed)),
                            ("description", Json::String(w.description.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "factors",
            Json::Array(g.factors().iter().map(enc_factor).collect()),
        ),
    ])
}

fn enc_f64s(xs: &[f64]) -> Json {
    Json::Array(xs.iter().map(|&x| enc_f64(x)).collect())
}

fn enc_marginals(m: &Marginals) -> Json {
    enc_f64s(m.values())
}

/// One hex string per sample — the sample's bits, 8 variables per byte —
/// which is what the per-sample byte bundles this store used to be made of
/// encoded to; the arena's rows write the same bytes.
fn enc_sample_set(s: &SampleSet) -> Json {
    let bytes_per_sample = s.num_vars().div_ceil(8);
    let bundles = s
        .rows()
        .map(|row| enc_hex(bytes_per_sample, row.bytes()))
        .collect();
    obj(vec![
        ("num_vars", enc_usize(s.num_vars())),
        ("bundles", Json::Array(bundles)),
    ])
}

fn enc_materialization(m: &Materialization) -> Json {
    obj(vec![
        (
            "sampling",
            obj(vec![("samples", enc_sample_set(m.sampling.samples()))]),
        ),
        (
            "variational",
            obj(vec![
                ("approx_graph", enc_graph(m.variational.approx_graph())),
                (
                    "pairwise_factors",
                    enc_usize(m.variational.num_pairwise_factors()),
                ),
                (
                    "candidate_pairs",
                    enc_usize(m.variational.num_candidate_pairs()),
                ),
                ("lambda", enc_f64(m.variational.lambda())),
            ]),
        ),
    ])
}

fn enc_distribution_change(c: &DistributionChange) -> Json {
    obj(vec![
        (
            "new_factors",
            Json::Array(c.new_factors.iter().map(|&f| enc_usize(f)).collect()),
        ),
        (
            "changed_weights",
            Json::Array(
                c.changed_weights
                    .iter()
                    .map(|&(w, v)| Json::Array(vec![enc_usize(w), enc_f64(v)]))
                    .collect(),
            ),
        ),
        (
            "new_evidence",
            Json::Array(
                c.new_evidence
                    .iter()
                    .map(|&(v, b)| Json::Array(vec![enc_usize(v), Json::Bool(b)]))
                    .collect(),
            ),
        ),
        (
            "new_variables",
            Json::Array(c.new_variables.iter().map(|&v| enc_usize(v)).collect()),
        ),
    ])
}

fn enc_grounder_state(s: &GrounderState) -> Json {
    obj(vec![
        ("program", enc_program(&s.program)),
        ("db", enc_database(&s.db)),
        ("graph", enc_graph(&s.graph)),
        (
            "var_catalog",
            Json::Array(
                s.var_catalog
                    .iter()
                    .map(|(rel, tuple, var)| {
                        Json::Array(vec![
                            Json::String(rel.clone()),
                            enc_tuple(tuple),
                            enc_usize(*var),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "catalog_ops",
            Json::Array(
                s.catalog_ops
                    .iter()
                    .map(|(rel, ops)| {
                        Json::Array(vec![
                            Json::String(rel.clone()),
                            Json::Array(ops.iter().map(enc_catalog_op).collect()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "grounded_bindings",
            Json::Array(
                s.grounded_bindings
                    .iter()
                    .map(|(rule, bindings)| {
                        Json::Array(vec![
                            Json::String(rule.clone()),
                            Json::Array(
                                bindings
                                    .iter()
                                    .map(|(t, rec)| {
                                        Json::Array(vec![enc_tuple(t), enc_grounding_record(rec)])
                                    })
                                    .collect(),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "view_rules",
            Json::Array(
                s.view_rules
                    .iter()
                    .map(|r| Json::String(r.clone()))
                    .collect(),
            ),
        ),
        (
            "suppressed_labels",
            Json::Array(
                s.suppressed_labels
                    .iter()
                    .map(|(rel, t)| Json::Array(vec![Json::String(rel.clone()), enc_tuple(t)]))
                    .collect(),
            ),
        ),
        ("next_var_key", enc_u64(s.next_var_key)),
    ])
}

fn enc_catalog_op(op: &CatalogOp) -> Json {
    match op {
        CatalogOp::Upsert(t, v) => Json::Array(vec![
            Json::String("upsert".into()),
            enc_tuple(t),
            enc_usize(*v),
        ]),
        CatalogOp::Remove(t) => Json::Array(vec![Json::String("remove".into()), enc_tuple(t)]),
    }
}

fn enc_grounding_record(rec: &GroundingRecord) -> Json {
    obj(vec![
        ("support", enc_i64(rec.support)),
        (
            "factor",
            match rec.factor {
                None => Json::Null,
                Some(f) => enc_usize(f),
            },
        ),
        (
            "label",
            match rec.label {
                None => Json::Null,
                Some(b) => Json::Bool(b),
            },
        ),
    ])
}

fn enc_stats(s: &GraphStats) -> Json {
    obj(vec![
        ("num_variables", enc_usize(s.num_variables)),
        ("num_query_variables", enc_usize(s.num_query_variables)),
        (
            "num_evidence_variables",
            enc_usize(s.num_evidence_variables),
        ),
        ("num_factors", enc_usize(s.num_factors)),
        ("num_weights", enc_usize(s.num_weights)),
        ("weight_density", enc_f64(s.weight_density)),
        ("avg_degree", enc_f64(s.avg_degree)),
    ])
}

fn enc_catalog(c: &CatalogShards) -> Json {
    Json::Array(
        c.shards()
            .iter()
            .map(|shard| {
                obj(vec![
                    ("relation", Json::String(shard.relation().to_string())),
                    ("generation", enc_u64(shard.generation())),
                    (
                        "entries",
                        Json::Array(
                            shard
                                .index()
                                .entries()
                                .iter()
                                .map(|(t, v)| Json::Array(vec![enc_tuple(t), enc_usize(*v)]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn snapshot_to_json(s: &Snapshot) -> Json {
    obj(vec![
        ("epoch", enc_u64(s.epoch())),
        ("marginals", enc_marginals(s.marginals())),
        ("weights", enc_f64s(s.weights())),
        ("catalog", enc_catalog(s.catalog())),
        ("stats", enc_stats(s.stats())),
        ("fact_threshold", enc_f64(s.fact_threshold())),
    ])
}

/// Encode a [`Snapshot`] to its canonical checkpoint-codec bytes.
///
/// The encoding is deterministic: two snapshots with equal state produce
/// byte-identical output, which is what the recovery-idempotency tests
/// compare.  Pairs with [`decode_snapshot`].
pub(super) fn encode_snapshot(s: &Snapshot) -> Vec<u8> {
    snapshot_to_json(s).encode().into_bytes()
}

pub(super) fn encode_wal_op(op: &WalOp<'_>) -> Vec<u8> {
    let json = match op {
        WalOp::InitialRun => obj(vec![("op", Json::String("initial_run".into()))]),
        WalOp::Refresh => obj(vec![("op", Json::String("refresh".into()))]),
        WalOp::Materialize => obj(vec![("op", Json::String("materialize".into()))]),
        WalOp::Update { mode, update } => {
            let mut deltas: Vec<(&String, &DeltaRelation)> = update.base_deltas.iter().collect();
            deltas.sort_by(|a, b| a.0.cmp(b.0));
            obj(vec![
                ("op", Json::String("update".into())),
                (
                    "mode",
                    Json::String(
                        match mode {
                            ExecutionMode::Rerun => "rerun",
                            ExecutionMode::Incremental => "incremental",
                        }
                        .into(),
                    ),
                ),
                (
                    "base_deltas",
                    Json::Array(deltas.iter().map(|(_, d)| enc_delta_relation(d)).collect()),
                ),
                (
                    "retracted_supervision",
                    Json::Array(
                        update
                            .retracted_supervision
                            .iter()
                            .map(|(rel, t)| {
                                Json::Array(vec![Json::String(rel.clone()), enc_tuple(t)])
                            })
                            .collect(),
                    ),
                ),
                (
                    "new_rules",
                    Json::Array(update.new_rules.iter().map(enc_rule).collect()),
                ),
            ])
        }
        WalOp::RetractSupervision { relation, tuple } => obj(vec![
            ("op", Json::String("retract_supervision".into())),
            ("relation", Json::String(relation.to_string())),
            ("tuple", enc_tuple(tuple)),
        ]),
    };
    json.encode().into_bytes()
}

pub(super) fn encode_checkpoint(state: &CheckpointState) -> Vec<u8> {
    obj(vec![
        ("format", enc_u64(CHECKPOINT_FORMAT_VERSION)),
        ("grounder", enc_grounder_state(&state.grounder)),
        (
            "materialization",
            match &state.materialization {
                None => Json::Null,
                Some(m) => enc_materialization(m),
            },
        ),
        (
            "materialized_epoch",
            match state.materialized_epoch {
                None => Json::Null,
                Some(e) => enc_u64(e),
            },
        ),
        (
            "cumulative_change",
            enc_distribution_change(&state.cumulative_change),
        ),
        ("learned_weights", enc_f64s(&state.learned_weights)),
        ("epoch", enc_u64(state.epoch)),
        ("snapshot", snapshot_to_json(&state.snapshot)),
    ])
    .encode()
    .into_bytes()
}

// ---------------------------------------------------------------------------
// The engines, and the comparison.
// ---------------------------------------------------------------------------

use crate::{DeepDive, EngineConfig};
use dd_grounding::standard_udfs;
use dd_workloads::{KbcSystem, SystemKind};

fn config() -> EngineConfig {
    EngineConfig {
        num_threads: Some(1),
        ..EngineConfig::fast()
    }
}

/// The streaming encoding of `state` must be the tree encoding, decode, and
/// re-encode to itself; the snapshot inside it likewise on its own.
fn assert_checkpoint_matches_tree(engine: &DeepDive, what: &str) {
    let state = engine.export_checkpoint_state();
    let mut bytes = vec![0xAA; 3]; // stale content must be replaced, not kept
    super::encode_checkpoint(&state, &mut bytes);
    assert!(
        bytes == encode_checkpoint(&state),
        "{what}: checkpoint bytes differ from the tree encoder's"
    );
    let decoded = decode_checkpoint(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(
        decoded.to_bytes() == bytes,
        "{what}: decoded checkpoint re-encodes differently"
    );
    assert_eq!(decoded.epoch, state.epoch);
    assert_eq!(
        decoded.materialization.is_some(),
        state.materialization.is_some()
    );

    let snapshot = super::encode_snapshot(&state.snapshot);
    assert!(
        snapshot == encode_snapshot(&state.snapshot),
        "{what}: snapshot bytes differ from the tree encoder's"
    );
    let decoded = decode_snapshot(&snapshot).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(super::encode_snapshot(&decoded) == snapshot, "{what}");
}

fn assert_wal_op_matches_tree(op: &WalOp<'_>, what: &str) {
    let bytes = super::encode_wal_op(op);
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&encode_wal_op(op)),
        "{what}"
    );
    let decoded = decode_wal_op(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(super::encode_wal_op(&decoded), bytes, "{what}");
}

#[test]
fn news_development_loop_encodes_as_the_tree_encoder_did() {
    for seed in [3, 5] {
        let system = KbcSystem::generate(SystemKind::News, 0.2, seed);
        let mut engine = DeepDive::builder()
            .program(system.program.clone())
            .database(system.corpus.database.clone())
            .udfs(standard_udfs())
            .config(config())
            .build()
            .expect("engine builds");
        assert_checkpoint_matches_tree(&engine, "fresh engine");
        engine.initial_run().expect("initial run");
        assert_checkpoint_matches_tree(&engine, "after the initial run");
        engine.materialize().expect("materialize");
        assert_checkpoint_matches_tree(&engine, "materialized");
        for (template, update) in system.development_updates() {
            let what = format!("seed {seed}, {}", template.name());
            for mode in [ExecutionMode::Incremental, ExecutionMode::Rerun] {
                let update = Cow::Borrowed(&update);
                assert_wal_op_matches_tree(&WalOp::Update { mode, update }, &what);
            }
            engine
                .run_update(&update, ExecutionMode::Incremental)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_checkpoint_matches_tree(&engine, &what);
        }
    }
}

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

fn docs_update(docs: std::ops::Range<i64>, insert: bool) -> KbcUpdate {
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
fn claims_kb_rounds_encode_as_the_tree_encoder_did() {
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
    for (relation, row) in (0..40).flat_map(claim_rows) {
        db.insert(relation, row).expect("row matches its schema");
    }
    let mut engine = DeepDive::builder()
        .program_text(CLAIMS_PROGRAM)
        .database(db)
        .config(config())
        .build()
        .expect("engine builds");
    engine.initial_run().expect("initial run");
    engine.materialize().expect("materialize");
    assert_checkpoint_matches_tree(&engine, "materialized claims KB");

    let mut retract = KbcUpdate::new();
    retract.retract_supervision("Fact", ints(&[20, 1]));
    let rounds = [
        ("insert 40..48", docs_update(40..48, true)),
        ("delete 3..11", docs_update(3..11, false)),
        ("retract one label", retract),
        ("insert 56..60", docs_update(56..60, true)),
    ];
    for (what, update) in rounds {
        let (mode, update) = (ExecutionMode::Incremental, update);
        assert_wal_op_matches_tree(
            &WalOp::Update {
                mode,
                update: Cow::Borrowed(&update),
            },
            what,
        );
        engine.run_update(&update, mode).expect("update applies");
        assert_checkpoint_matches_tree(&engine, what);
    }
    for op in [
        WalOp::InitialRun,
        WalOp::Refresh,
        WalOp::Materialize,
        WalOp::RetractSupervision {
            relation: Cow::Borrowed("Fact \"quoted\"\n"),
            tuple: Tuple::new(vec![
                Value::Int(i64::MIN),
                Value::text("é\u{1}🚀\\"),
                Value::Float(f64::NAN),
                Value::Float(-0.0),
                Value::Bool(false),
                Value::Null,
            ]),
        },
    ] {
        assert_wal_op_matches_tree(&op, "plain op");
    }
}

/// Resident set size of this process, in KB.
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .expect("value")
        .parse()
        .expect("kB count")
}

/// The numbers behind PERFORMANCE.md's "Codec" section: resident set size
/// around one checkpoint encode and decode, streaming codec first (in a
/// fresh heap), then the tree encoder on the same state.  Linux only; run
/// alone with
/// `cargo test --release -p deepdive --lib rss_trace -- --ignored --nocapture`.
#[test]
#[ignore = "prints a measurement; run alone, with --nocapture"]
fn rss_trace_around_the_checkpoint_codec() {
    use dd_workloads::RuleTemplate;
    let system = KbcSystem::generate(SystemKind::News, 3.0, 1);
    let mut program = system.program.clone();
    for template in [RuleTemplate::FE1, RuleTemplate::S1, RuleTemplate::S2] {
        program.rules.push(template.rule(system.semantics));
    }
    let mut engine = DeepDive::builder()
        .program(program)
        .database(system.corpus.database.clone())
        .udfs(standard_udfs())
        .config(EngineConfig {
            num_threads: Some(1),
            ..EngineConfig::default()
        })
        .build()
        .expect("engine builds");
    engine.initial_run().expect("initial run");
    engine.materialize().expect("materialize");
    let state = engine.export_checkpoint_state();

    let mut bytes = Vec::new();
    let before = vm_rss_kb();
    let start = std::time::Instant::now();
    super::encode_checkpoint(&state, &mut bytes);
    let encode_ms = start.elapsed().as_secs_f64() * 1e3;
    let encoded = vm_rss_kb();
    let start = std::time::Instant::now();
    let decoded_state = decode_checkpoint(&bytes).expect("decodes");
    let decode_ms = start.elapsed().as_secs_f64() * 1e3;
    let decoded = vm_rss_kb();
    println!(
        "streaming: payload {} KB | RSS {before} KB -> {encoded} KB after encode (+{}, \
         {encode_ms:.1} ms) -> {decoded} KB holding the decoded state (+{}, {decode_ms:.1} ms)",
        bytes.len() / 1024,
        encoded - before,
        decoded.saturating_sub(encoded),
    );
    drop(decoded_state);
    let before = vm_rss_kb();
    let tree_bytes = encode_checkpoint(&state);
    let after = vm_rss_kb();
    println!(
        "tree:      payload {} KB | RSS {before} KB -> {after} KB after encode (+{})",
        tree_bytes.len() / 1024,
        after.saturating_sub(before)
    );
    assert!(bytes == tree_bytes);
}
