//! Durable state codec: checkpoint and WAL record payloads.
//!
//! The engine's durability story (see [`crate::DeepDiveBuilder::durability`])
//! is the classic ARIES-lite shape: an append-only WAL of logical operations
//! plus periodic full checkpoints, where recovery loads the newest valid
//! checkpoint and replays the WAL tail.  This module owns the *payload* layer:
//! a canonical, self-describing encoding of every piece of engine state into
//! the single-line JSON of [`dd_wire::json`], framed and CRC-protected by
//! [`dd_storage`]'s record layer.
//!
//! Encoding conventions, chosen so that `encode(decode(bytes)) == bytes` for
//! every valid payload (the recovery-idempotency guarantee):
//!
//! * Objects are emitted with a fixed field order (the [`dd_wire::json::Json`]
//!   object is an ordered list of pairs, so encoding is deterministic).
//! * `u64` / `i64` / `usize` quantities are encoded as decimal *strings* —
//!   JSON numbers are `f64` and silently lose precision past 2^53.
//! * `f64` quantities encode as JSON numbers when finite (the encoder prints
//!   the shortest round-tripping form) and as `"bits:<16 hex digits>"`
//!   otherwise, so NaN / infinity survive instead of degrading to `null`.
//! * [`Value::Float`] tuple fields always encode as bit strings: tuple
//!   equality is bit-level (`-0.0 != 0.0` there), and catalog lookups after
//!   recovery must see the exact same keys.
//! * Gibbs sample bundles are opaque byte strings and encode as hex.
//!
//! Every decode failure is a typed [`StorageError::Codec`] naming the field
//! that was malformed — corrupt state is reported, never panicked on and
//! never silently repaired.

use crate::engine::ExecutionMode;
use crate::materialization::Materialization;
use crate::snapshot::{CatalogShard, CatalogShards, Snapshot};
use dd_factorgraph::{
    Factor, FactorGraph, FactorKind, GraphStats, Lit, RelName, Semantics, Variable, VariableRole,
    Weight,
};
use dd_grounding::grounder::GroundingRecord;
use dd_grounding::{
    CatalogOp, GrounderState, KbcUpdate, Program, RelationDecl, RelationRole, Rule, RuleKind,
    WeightSpec,
};
use dd_inference::{
    DistributionChange, Marginals, SampleMaterialization, SampleSet, StrawmanMaterialization,
    VariationalMaterialization,
};
use dd_relstore::view::{Filter, QueryAtom, Term};
use dd_relstore::{Column, DataType, Database, DeltaRelation, Schema, Table, Tuple, Value};
use dd_storage::{CheckpointStore, StorageError, Wal};
use dd_wire::json::{parse, Json};
use std::collections::HashSet;

/// Format version stamped into every checkpoint payload.  Bumped whenever the
/// encoding changes incompatibly; recovery refuses versions it does not know
/// instead of misreading them.
pub const CHECKPOINT_FORMAT_VERSION: u64 = 2;

type R<T> = Result<T, StorageError>;

// ---------------------------------------------------------------------------
// The durable operation log.
// ---------------------------------------------------------------------------

/// One logical operation appended to the WAL *before* it executes.
///
/// Replay re-executes the operation against the recovered state.  All four
/// operations are deterministic given the engine state and config (Gibbs
/// sampling is seeded), so replaying the tail after the last checkpoint
/// reproduces the exact pre-crash state — with one documented exception: a
/// graph large enough to cross `EngineConfig::parallel_threshold` samples with
/// hogwild threads, whose interleaving is not replayable (the checkpoint
/// itself is always exact; see ARCHITECTURE.md).
#[derive(Debug, Clone)]
pub(crate) enum WalOp {
    /// `DeepDive::initial_run`.
    InitialRun,
    /// `DeepDive::run_update` with the given mode.
    Update {
        mode: ExecutionMode,
        update: KbcUpdate,
    },
    /// `DeepDive::retract_supervision`.
    RetractSupervision { relation: String, tuple: Tuple },
    /// `DeepDive::refresh`.
    Refresh,
    /// `DeepDive::materialize`.
    Materialize,
}

/// The open durability stores of a running engine.
pub(crate) struct DurabilityHandle {
    pub wal: Wal,
    pub checkpoints: CheckpointStore,
    /// How many checkpoint files to retain after a successful rotation.
    pub keep_checkpoints: usize,
    /// Auto-checkpoint after this many WAL records since the last
    /// checkpoint (`None`: manual-only).
    pub checkpoint_every_records: Option<u64>,
    /// Auto-checkpoint after this many encoded WAL bytes since the last
    /// checkpoint (`None`: manual-only).
    pub checkpoint_every_bytes: Option<u64>,
    /// WAL records appended since the last checkpoint.
    pub records_since_checkpoint: u64,
    /// Encoded WAL bytes appended since the last checkpoint.
    pub bytes_since_checkpoint: u64,
}

impl DurabilityHandle {
    /// True once either configured threshold has been reached.
    pub fn auto_checkpoint_due(&self) -> bool {
        self.checkpoint_every_records
            .is_some_and(|n| self.records_since_checkpoint >= n)
            || self
                .checkpoint_every_bytes
                .is_some_and(|n| self.bytes_since_checkpoint >= n)
    }
}

/// Everything needed to reconstruct a `DeepDive` engine at a point in time
/// (minus the config and UDF registry, which the builder re-supplies — UDFs
/// are function pointers and cannot be serialized).
pub(crate) struct CheckpointState {
    pub grounder: GrounderState,
    pub materialization: Option<Materialization>,
    pub materialized_epoch: Option<u64>,
    pub materialized_coverage: Option<(usize, usize)>,
    pub cumulative_change: DistributionChange,
    pub learned_weights: Vec<f64>,
    pub epoch: u64,
    pub snapshot: Snapshot,
}

// ---------------------------------------------------------------------------
// Small encode/decode helpers.
// ---------------------------------------------------------------------------

fn bad(context: &str, detail: impl Into<String>) -> StorageError {
    StorageError::codec(context, detail)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn field<'a>(j: &'a Json, key: &str, ctx: &str) -> R<&'a Json> {
    j.get(key)
        .ok_or_else(|| bad(ctx, format!("missing field `{key}`")))
}

fn str_of<'a>(j: &'a Json, ctx: &str) -> R<&'a str> {
    j.as_str().ok_or_else(|| bad(ctx, "expected a string"))
}

fn bool_of(j: &Json, ctx: &str) -> R<bool> {
    j.as_bool().ok_or_else(|| bad(ctx, "expected a boolean"))
}

fn arr_of<'a>(j: &'a Json, ctx: &str) -> R<&'a [Json]> {
    j.as_array().ok_or_else(|| bad(ctx, "expected an array"))
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

fn u64_of(j: &Json, ctx: &str) -> R<u64> {
    str_of(j, ctx)?
        .parse::<u64>()
        .map_err(|e| bad(ctx, format!("bad u64: {e}")))
}

fn i64_of(j: &Json, ctx: &str) -> R<i64> {
    str_of(j, ctx)?
        .parse::<i64>()
        .map_err(|e| bad(ctx, format!("bad i64: {e}")))
}

fn usize_of(j: &Json, ctx: &str) -> R<usize> {
    str_of(j, ctx)?
        .parse::<usize>()
        .map_err(|e| bad(ctx, format!("bad usize: {e}")))
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

fn f64_of(j: &Json, ctx: &str) -> R<f64> {
    match j {
        Json::Number(n) => Ok(*n),
        Json::String(s) => f64_bits_of(s, ctx),
        _ => Err(bad(ctx, "expected a number or bits string")),
    }
}

/// Bit-exact float form, used for all non-finite floats and for every
/// [`Value::Float`] (tuple equality is bit-level).
fn enc_f64_bits(x: f64) -> Json {
    Json::String(format!("bits:{:016x}", x.to_bits()))
}

fn f64_bits_of(s: &str, ctx: &str) -> R<f64> {
    let hex = s
        .strip_prefix("bits:")
        .ok_or_else(|| bad(ctx, format!("expected `bits:<hex>`, got `{s}`")))?;
    let bits =
        u64::from_str_radix(hex, 16).map_err(|e| bad(ctx, format!("bad float bits: {e}")))?;
    Ok(f64::from_bits(bits))
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

fn hex_of(j: &Json, ctx: &str) -> R<Vec<u8>> {
    let s = str_of(j, ctx)?;
    if s.len() % 2 != 0 {
        return Err(bad(ctx, "hex string has odd length"));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for i in (0..s.len()).step_by(2) {
        let byte = u8::from_str_radix(&s[i..i + 2], 16)
            .map_err(|e| bad(ctx, format!("bad hex byte: {e}")))?;
        out.push(byte);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Relational layer: Value, Tuple, Schema, Table, Database, DeltaRelation.
// ---------------------------------------------------------------------------

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

fn dec_value(j: &Json, ctx: &str) -> R<Value> {
    match str_of(field(j, "t", ctx)?, ctx)? {
        "int" => Ok(Value::Int(i64_of(field(j, "v", ctx)?, ctx)?)),
        "text" => Ok(Value::text(str_of(field(j, "v", ctx)?, ctx)?)),
        "bool" => Ok(Value::Bool(bool_of(field(j, "v", ctx)?, ctx)?)),
        "float" => Ok(Value::Float(f64_bits_of(
            str_of(field(j, "v", ctx)?, ctx)?,
            ctx,
        )?)),
        "null" => Ok(Value::Null),
        other => Err(bad(ctx, format!("unknown value tag `{other}`"))),
    }
}

fn enc_tuple(t: &Tuple) -> Json {
    Json::Array(t.values().iter().map(enc_value).collect())
}

fn dec_tuple(j: &Json, ctx: &str) -> R<Tuple> {
    let values = arr_of(j, ctx)?
        .iter()
        .map(|v| dec_value(v, ctx))
        .collect::<R<Vec<_>>>()?;
    Ok(Tuple::new(values))
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

fn dec_data_type(j: &Json, ctx: &str) -> R<DataType> {
    match str_of(j, ctx)? {
        "int" => Ok(DataType::Int),
        "text" => Ok(DataType::Text),
        "bool" => Ok(DataType::Bool),
        "float" => Ok(DataType::Float),
        "null" => Ok(DataType::Null),
        other => Err(bad(ctx, format!("unknown data type `{other}`"))),
    }
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

fn dec_schema(j: &Json, ctx: &str) -> R<Schema> {
    let columns = arr_of(j, ctx)?
        .iter()
        .map(|c| {
            Ok(Column::new(
                str_of(field(c, "name", ctx)?, ctx)?,
                dec_data_type(field(c, "type", ctx)?, ctx)?,
            ))
        })
        .collect::<R<Vec<_>>>()?;
    Ok(Schema::new(columns))
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

fn dec_table(j: &Json, ctx: &str) -> R<Table> {
    let name = str_of(field(j, "name", ctx)?, ctx)?;
    let schema = dec_schema(field(j, "schema", ctx)?, ctx)?;
    let mut table = Table::new(name, schema);
    for row in arr_of(field(j, "rows", ctx)?, ctx)? {
        let pair = arr_of(row, ctx)?;
        if pair.len() != 2 {
            return Err(bad(ctx, "table row is not a [tuple, count] pair"));
        }
        let tuple = dec_tuple(&pair[0], ctx)?;
        let count = i64_of(&pair[1], ctx)?;
        table
            .insert_with_count(tuple, count)
            .map_err(|e| bad(ctx, format!("row rejected by schema: {e}")))?;
    }
    Ok(table)
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

fn dec_database(j: &Json, ctx: &str) -> R<Database> {
    let mut db = Database::new();
    for t in arr_of(j, ctx)? {
        let table = dec_table(t, ctx)?;
        let name = table.name().to_string();
        db.create_or_replace_table(&name, table.schema().clone());
        let dst = db.table_mut(&name).expect("just created");
        for (tuple, count) in table.iter_net_counted() {
            dst.insert_with_count(tuple.clone(), count)
                .map_err(|e| bad(ctx, format!("row rejected by schema: {e}")))?;
        }
    }
    Ok(db)
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

fn dec_delta_relation(j: &Json, ctx: &str) -> R<DeltaRelation> {
    let mut delta = DeltaRelation::new(str_of(field(j, "relation", ctx)?, ctx)?);
    for change in arr_of(field(j, "changes", ctx)?, ctx)? {
        let pair = arr_of(change, ctx)?;
        if pair.len() != 2 {
            return Err(bad(ctx, "delta change is not a [tuple, count] pair"));
        }
        delta.change(dec_tuple(&pair[0], ctx)?, i64_of(&pair[1], ctx)?);
    }
    Ok(delta)
}

// ---------------------------------------------------------------------------
// Program layer: terms, atoms, filters, rules, declarations.
// ---------------------------------------------------------------------------

fn enc_term(t: &Term) -> Json {
    match t {
        Term::Var(v) => obj(vec![("var", Json::String(v.clone()))]),
        Term::Const(v) => obj(vec![("const", enc_value(v))]),
    }
}

fn dec_term(j: &Json, ctx: &str) -> R<Term> {
    if let Some(v) = j.get("var") {
        Ok(Term::Var(str_of(v, ctx)?.to_string()))
    } else if let Some(v) = j.get("const") {
        Ok(Term::Const(dec_value(v, ctx)?))
    } else {
        Err(bad(ctx, "term is neither `var` nor `const`"))
    }
}

fn enc_atom(a: &QueryAtom) -> Json {
    obj(vec![
        ("relation", Json::String(a.relation.clone())),
        ("terms", Json::Array(a.terms.iter().map(enc_term).collect())),
        ("negated", Json::Bool(a.negated)),
    ])
}

fn dec_atom(j: &Json, ctx: &str) -> R<QueryAtom> {
    let terms = arr_of(field(j, "terms", ctx)?, ctx)?
        .iter()
        .map(|t| dec_term(t, ctx))
        .collect::<R<Vec<_>>>()?;
    let mut atom = QueryAtom::new(str_of(field(j, "relation", ctx)?, ctx)?, terms);
    if bool_of(field(j, "negated", ctx)?, ctx)? {
        atom = atom.negated();
    }
    Ok(atom)
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

fn dec_filter(j: &Json, ctx: &str) -> R<Filter> {
    let l = str_of(field(j, "l", ctx)?, ctx)?.to_string();
    let r = str_of(field(j, "r", ctx)?, ctx)?.to_string();
    match str_of(field(j, "op", ctx)?, ctx)? {
        "ne" => Ok(Filter::Ne(l, r)),
        "eq" => Ok(Filter::Eq(l, r)),
        "lt" => Ok(Filter::Lt(l, r)),
        other => Err(bad(ctx, format!("unknown filter op `{other}`"))),
    }
}

fn enc_semantics(s: Semantics) -> Json {
    Json::String(s.label().into())
}

fn dec_semantics(j: &Json, ctx: &str) -> R<Semantics> {
    match str_of(j, ctx)? {
        "Linear" => Ok(Semantics::Linear),
        "Ratio" => Ok(Semantics::Ratio),
        "Logical" => Ok(Semantics::Logical),
        other => Err(bad(ctx, format!("unknown semantics `{other}`"))),
    }
}

fn enc_rule_kind(k: RuleKind) -> Json {
    Json::String(k.label().into())
}

fn dec_rule_kind(j: &Json, ctx: &str) -> R<RuleKind> {
    match str_of(j, ctx)? {
        "candidate" => Ok(RuleKind::CandidateMapping),
        "feature" => Ok(RuleKind::FeatureExtraction),
        "supervision" => Ok(RuleKind::Supervision),
        "inference" => Ok(RuleKind::Inference),
        "analysis" => Ok(RuleKind::ErrorAnalysis),
        other => Err(bad(ctx, format!("unknown rule kind `{other}`"))),
    }
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

fn dec_weight_spec(j: &Json, ctx: &str) -> R<WeightSpec> {
    match str_of(field(j, "t", ctx)?, ctx)? {
        "fixed" => Ok(WeightSpec::Fixed(f64_of(field(j, "v", ctx)?, ctx)?)),
        "learnable" => Ok(WeightSpec::Learnable {
            initial: f64_of(field(j, "initial", ctx)?, ctx)?,
        }),
        "tied" => Ok(WeightSpec::Tied {
            udf: str_of(field(j, "udf", ctx)?, ctx)?.to_string(),
            args: arr_of(field(j, "args", ctx)?, ctx)?
                .iter()
                .map(|a| Ok(str_of(a, ctx)?.to_string()))
                .collect::<R<Vec<_>>>()?,
        }),
        "label" => Ok(WeightSpec::Label(bool_of(field(j, "v", ctx)?, ctx)?)),
        "none" => Ok(WeightSpec::None),
        other => Err(bad(ctx, format!("unknown weight spec `{other}`"))),
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

fn dec_rule(j: &Json, ctx: &str) -> R<Rule> {
    let body = arr_of(field(j, "body", ctx)?, ctx)?
        .iter()
        .map(|a| dec_atom(a, ctx))
        .collect::<R<Vec<_>>>()?;
    let filters = arr_of(field(j, "filters", ctx)?, ctx)?
        .iter()
        .map(|f| dec_filter(f, ctx))
        .collect::<R<Vec<_>>>()?;
    Ok(Rule::new(
        str_of(field(j, "name", ctx)?, ctx)?,
        dec_rule_kind(field(j, "kind", ctx)?, ctx)?,
        dec_atom(field(j, "head", ctx)?, ctx)?,
        body,
        dec_weight_spec(field(j, "weight", ctx)?, ctx)?,
    )
    .with_filters(filters)
    .with_semantics(dec_semantics(field(j, "semantics", ctx)?, ctx)?))
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

fn dec_program(j: &Json, ctx: &str) -> R<Program> {
    let mut program = Program::new();
    for d in arr_of(field(j, "relations", ctx)?, ctx)? {
        let role = match str_of(field(d, "role", ctx)?, ctx)? {
            "base" => RelationRole::Base,
            "derived" => RelationRole::Derived,
            "variable" => RelationRole::Variable,
            other => return Err(bad(ctx, format!("unknown relation role `{other}`"))),
        };
        program = program.declare(RelationDecl::new(
            str_of(field(d, "name", ctx)?, ctx)?,
            dec_schema(field(d, "schema", ctx)?, ctx)?,
            role,
        ));
    }
    for r in arr_of(field(j, "rules", ctx)?, ctx)? {
        program = program.rule(dec_rule(r, ctx)?);
    }
    Ok(program)
}

// ---------------------------------------------------------------------------
// Factor graph layer.
// ---------------------------------------------------------------------------

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
        ("active", Json::Bool(v.active)),
        ("relation", Json::String(v.relation.to_string())),
        ("key", enc_u64(v.key)),
    ])
}

/// Decode one variable; `relations` interns the relation names of one
/// graph, so its variables share one handle per relation as they did when
/// the graph was grounded.
fn dec_variable(j: &Json, relations: &mut HashSet<RelName>, ctx: &str) -> R<Variable> {
    let role = match str_of(field(j, "role", ctx)?, ctx)? {
        "query" => VariableRole::Query,
        "pos" => VariableRole::PositiveEvidence,
        "neg" => VariableRole::NegativeEvidence,
        other => return Err(bad(ctx, format!("unknown variable role `{other}`"))),
    };
    let mut var = Variable::query(usize_of(field(j, "id", ctx)?, ctx)?);
    var.role = role;
    var.initial_value = bool_of(field(j, "initial_value", ctx)?, ctx)?;
    var.active = bool_of(field(j, "active", ctx)?, ctx)?;
    let relation = str_of(field(j, "relation", ctx)?, ctx)?;
    var.relation = match relations.get(relation) {
        Some(handle) => handle.clone(),
        None => {
            let handle = RelName::from(relation);
            relations.insert(handle.clone());
            handle
        }
    };
    var.key = u64_of(field(j, "key", ctx)?, ctx)?;
    Ok(var)
}

fn enc_lit(l: &Lit) -> Json {
    Json::Array(vec![enc_usize(l.var), Json::Bool(l.positive)])
}

fn dec_lit(j: &Json, ctx: &str) -> R<Lit> {
    let pair = arr_of(j, ctx)?;
    if pair.len() != 2 {
        return Err(bad(ctx, "literal is not a [var, positive] pair"));
    }
    Ok(Lit {
        var: usize_of(&pair[0], ctx)?,
        positive: bool_of(&pair[1], ctx)?,
    })
}

fn enc_lits(lits: &[Lit]) -> Json {
    Json::Array(lits.iter().map(enc_lit).collect())
}

fn dec_lits(j: &Json, ctx: &str) -> R<Vec<Lit>> {
    arr_of(j, ctx)?.iter().map(|l| dec_lit(l, ctx)).collect()
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

fn dec_factor(j: &Json, ctx: &str) -> R<Factor> {
    let weight_id = usize_of(field(j, "weight", ctx)?, ctx)?;
    let k = field(j, "kind", ctx)?;
    let kind = match str_of(field(k, "t", ctx)?, ctx)? {
        "conj" => FactorKind::Conjunction(dec_lits(field(k, "lits", ctx)?, ctx)?),
        "imply" => FactorKind::Imply {
            body: dec_lits(field(k, "body", ctx)?, ctx)?,
            head: dec_lit(field(k, "head", ctx)?, ctx)?,
        },
        "equal" => FactorKind::Equal(
            usize_of(field(k, "a", ctx)?, ctx)?,
            usize_of(field(k, "b", ctx)?, ctx)?,
        ),
        "is_true" => FactorKind::IsTrue(usize_of(field(k, "v", ctx)?, ctx)?),
        "agg" => FactorKind::Aggregate {
            head: dec_lit(field(k, "head", ctx)?, ctx)?,
            semantics: dec_semantics(field(k, "semantics", ctx)?, ctx)?,
            groundings: arr_of(field(k, "groundings", ctx)?, ctx)?
                .iter()
                .map(|g| dec_lits(g, ctx))
                .collect::<R<Vec<_>>>()?,
        },
        other => return Err(bad(ctx, format!("unknown factor kind `{other}`"))),
    };
    Ok(Factor::new(weight_id, kind))
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

fn dec_graph(j: &Json, ctx: &str) -> R<FactorGraph> {
    let mut graph = FactorGraph::new();
    // Replay in id order: `add_*` assigns ids sequentially, so re-adding in
    // the encoded (id) order reproduces ids and the factor adjacency lists
    // exactly.
    for w in arr_of(field(j, "weights", ctx)?, ctx)? {
        let mut weight = Weight::learnable(
            usize_of(field(w, "id", ctx)?, ctx)?,
            f64_of(field(w, "value", ctx)?, ctx)?,
            str_of(field(w, "description", ctx)?, ctx)?,
        );
        weight.fixed = bool_of(field(w, "fixed", ctx)?, ctx)?;
        graph.add_weight(weight);
    }
    let mut relations = HashSet::new();
    for v in arr_of(field(j, "variables", ctx)?, ctx)? {
        graph.add_variable(dec_variable(v, &mut relations, ctx)?);
    }
    for f in arr_of(field(j, "factors", ctx)?, ctx)? {
        graph.add_factor(dec_factor(f, ctx)?);
    }
    Ok(graph)
}

// ---------------------------------------------------------------------------
// Inference layer: marginals, samples, materializations, distribution change.
// ---------------------------------------------------------------------------

fn enc_f64s(xs: &[f64]) -> Json {
    Json::Array(xs.iter().map(|&x| enc_f64(x)).collect())
}

fn dec_f64s(j: &Json, ctx: &str) -> R<Vec<f64>> {
    arr_of(j, ctx)?.iter().map(|x| f64_of(x, ctx)).collect()
}

fn enc_marginals(m: &Marginals) -> Json {
    enc_f64s(m.values())
}

fn dec_marginals(j: &Json, ctx: &str) -> R<Marginals> {
    Ok(Marginals::from_values(dec_f64s(j, ctx)?))
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

fn dec_sample_set(j: &Json, ctx: &str) -> R<SampleSet> {
    let mut samples = SampleSet::new(usize_of(field(j, "num_vars", ctx)?, ctx)?);
    for bundle in arr_of(field(j, "bundles", ctx)?, ctx)? {
        if !samples.push_bytes(&hex_of(bundle, ctx)?) {
            return Err(bad(ctx, "sample bundle does not cover the variables"));
        }
    }
    Ok(samples)
}

fn enc_materialization(m: &Materialization) -> Json {
    let strawman = match &m.strawman {
        None => Json::Null,
        Some(s) => obj(vec![
            (
                "query_vars",
                Json::Array(s.query_vars().iter().map(|&v| enc_usize(v)).collect()),
            ),
            ("num_vars", enc_usize(s.num_vars())),
            (
                "base_world",
                Json::Array(s.base_world().iter().map(|&b| Json::Bool(b)).collect()),
            ),
            ("log_weights", enc_f64s(s.log_weights())),
        ]),
    };
    obj(vec![
        (
            "sampling",
            obj(vec![
                ("samples", enc_sample_set(m.sampling.samples())),
                (
                    "num_original_vars",
                    enc_usize(m.sampling.num_original_vars()),
                ),
            ]),
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
        ("strawman", strawman),
        ("weights", enc_f64s(&m.weights)),
        // Wall-clock: recorded as 0 so the bytes depend on the inputs only.
        // The field stays (and is decoded) for directories written before.
        ("seconds", enc_f64(0.0)),
        ("num_samples", enc_usize(m.num_samples)),
    ])
}

fn dec_materialization(j: &Json, ctx: &str) -> R<Materialization> {
    let s = field(j, "sampling", ctx)?;
    let sampling = SampleMaterialization::from_samples(
        dec_sample_set(field(s, "samples", ctx)?, ctx)?,
        usize_of(field(s, "num_original_vars", ctx)?, ctx)?,
    );
    let v = field(j, "variational", ctx)?;
    let variational = VariationalMaterialization::from_parts(
        dec_graph(field(v, "approx_graph", ctx)?, ctx)?,
        usize_of(field(v, "pairwise_factors", ctx)?, ctx)?,
        usize_of(field(v, "candidate_pairs", ctx)?, ctx)?,
        f64_of(field(v, "lambda", ctx)?, ctx)?,
    );
    let strawman = match field(j, "strawman", ctx)? {
        Json::Null => None,
        s => {
            let query_vars = arr_of(field(s, "query_vars", ctx)?, ctx)?
                .iter()
                .map(|v| usize_of(v, ctx))
                .collect::<R<Vec<_>>>()?;
            let base_world = arr_of(field(s, "base_world", ctx)?, ctx)?
                .iter()
                .map(|b| bool_of(b, ctx))
                .collect::<R<Vec<_>>>()?;
            Some(StrawmanMaterialization::from_parts(
                query_vars,
                usize_of(field(s, "num_vars", ctx)?, ctx)?,
                base_world,
                dec_f64s(field(s, "log_weights", ctx)?, ctx)?,
            ))
        }
    };
    Ok(Materialization {
        sampling,
        variational,
        strawman,
        weights: dec_f64s(field(j, "weights", ctx)?, ctx)?,
        seconds: f64_of(field(j, "seconds", ctx)?, ctx)?,
        num_samples: usize_of(field(j, "num_samples", ctx)?, ctx)?,
    })
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

fn dec_distribution_change(j: &Json, ctx: &str) -> R<DistributionChange> {
    let mut change = DistributionChange::default();
    for f in arr_of(field(j, "new_factors", ctx)?, ctx)? {
        change.new_factors.push(usize_of(f, ctx)?);
    }
    for pair in arr_of(field(j, "changed_weights", ctx)?, ctx)? {
        let p = arr_of(pair, ctx)?;
        if p.len() != 2 {
            return Err(bad(ctx, "changed weight is not a [id, value] pair"));
        }
        change
            .changed_weights
            .push((usize_of(&p[0], ctx)?, f64_of(&p[1], ctx)?));
    }
    for pair in arr_of(field(j, "new_evidence", ctx)?, ctx)? {
        let p = arr_of(pair, ctx)?;
        if p.len() != 2 {
            return Err(bad(ctx, "new evidence is not a [var, value] pair"));
        }
        change
            .new_evidence
            .push((usize_of(&p[0], ctx)?, bool_of(&p[1], ctx)?));
    }
    for v in arr_of(field(j, "new_variables", ctx)?, ctx)? {
        change.new_variables.push(usize_of(v, ctx)?);
    }
    Ok(change)
}

// ---------------------------------------------------------------------------
// Grounder state.
// ---------------------------------------------------------------------------

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

fn dec_catalog_op(j: &Json, ctx: &str) -> R<CatalogOp> {
    let e = arr_of(j, ctx)?;
    match e.first().map(|tag| str_of(tag, ctx)).transpose()? {
        Some("upsert") if e.len() == 3 => Ok(CatalogOp::Upsert(
            dec_tuple(&e[1], ctx)?,
            usize_of(&e[2], ctx)?,
        )),
        Some("remove") if e.len() == 2 => Ok(CatalogOp::Remove(dec_tuple(&e[1], ctx)?)),
        _ => Err(bad(
            ctx,
            "catalog op is not [\"upsert\", tuple, var] or [\"remove\", tuple]",
        )),
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

fn dec_grounding_record(j: &Json, ctx: &str) -> R<GroundingRecord> {
    let factor = match field(j, "factor", ctx)? {
        Json::Null => None,
        other => Some(usize_of(other, ctx)?),
    };
    let label = match field(j, "label", ctx)? {
        Json::Null => None,
        other => Some(bool_of(other, ctx)?),
    };
    Ok(GroundingRecord {
        support: i64_of(field(j, "support", ctx)?, ctx)?,
        factor,
        label,
    })
}

fn dec_grounder_state(j: &Json, ctx: &str) -> R<GrounderState> {
    let mut var_catalog = Vec::new();
    for entry in arr_of(field(j, "var_catalog", ctx)?, ctx)? {
        let e = arr_of(entry, ctx)?;
        if e.len() != 3 {
            return Err(bad(ctx, "var_catalog entry is not [relation, tuple, var]"));
        }
        var_catalog.push((
            str_of(&e[0], ctx)?.to_string(),
            dec_tuple(&e[1], ctx)?,
            usize_of(&e[2], ctx)?,
        ));
    }
    let mut catalog_ops = Vec::new();
    for entry in arr_of(field(j, "catalog_ops", ctx)?, ctx)? {
        let e = arr_of(entry, ctx)?;
        if e.len() != 2 {
            return Err(bad(ctx, "catalog_ops entry is not [relation, ops]"));
        }
        let ops = arr_of(&e[1], ctx)?
            .iter()
            .map(|op| dec_catalog_op(op, ctx))
            .collect::<R<Vec<_>>>()?;
        catalog_ops.push((str_of(&e[0], ctx)?.to_string(), ops));
    }
    let mut grounded_bindings = Vec::new();
    for entry in arr_of(field(j, "grounded_bindings", ctx)?, ctx)? {
        let e = arr_of(entry, ctx)?;
        if e.len() != 2 {
            return Err(bad(ctx, "grounded_bindings entry is not [rule, bindings]"));
        }
        let mut bindings = Vec::new();
        for pair in arr_of(&e[1], ctx)? {
            let p = arr_of(pair, ctx)?;
            if p.len() != 2 {
                return Err(bad(ctx, "grounded binding is not a [tuple, record] pair"));
            }
            bindings.push((dec_tuple(&p[0], ctx)?, dec_grounding_record(&p[1], ctx)?));
        }
        grounded_bindings.push((str_of(&e[0], ctx)?.to_string(), bindings));
    }
    let view_rules = arr_of(field(j, "view_rules", ctx)?, ctx)?
        .iter()
        .map(|r| Ok(str_of(r, ctx)?.to_string()))
        .collect::<R<Vec<_>>>()?;
    let mut suppressed_labels = Vec::new();
    for entry in arr_of(field(j, "suppressed_labels", ctx)?, ctx)? {
        let e = arr_of(entry, ctx)?;
        if e.len() != 2 {
            return Err(bad(ctx, "suppressed label is not a [relation, tuple] pair"));
        }
        suppressed_labels.push((str_of(&e[0], ctx)?.to_string(), dec_tuple(&e[1], ctx)?));
    }
    Ok(GrounderState {
        program: dec_program(field(j, "program", ctx)?, ctx)?,
        db: dec_database(field(j, "db", ctx)?, ctx)?,
        graph: dec_graph(field(j, "graph", ctx)?, ctx)?,
        var_catalog,
        catalog_ops,
        grounded_bindings,
        view_rules,
        suppressed_labels,
        next_var_key: u64_of(field(j, "next_var_key", ctx)?, ctx)?,
    })
}

// ---------------------------------------------------------------------------
// Snapshot codec (public: satellite for storage tests and tooling).
// ---------------------------------------------------------------------------

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

fn dec_stats(j: &Json, ctx: &str) -> R<GraphStats> {
    Ok(GraphStats {
        num_variables: usize_of(field(j, "num_variables", ctx)?, ctx)?,
        num_query_variables: usize_of(field(j, "num_query_variables", ctx)?, ctx)?,
        num_evidence_variables: usize_of(field(j, "num_evidence_variables", ctx)?, ctx)?,
        num_factors: usize_of(field(j, "num_factors", ctx)?, ctx)?,
        num_weights: usize_of(field(j, "num_weights", ctx)?, ctx)?,
        weight_density: f64_of(field(j, "weight_density", ctx)?, ctx)?,
        avg_degree: f64_of(field(j, "avg_degree", ctx)?, ctx)?,
    })
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

fn dec_catalog(j: &Json, ctx: &str) -> R<CatalogShards> {
    let mut shards = Vec::new();
    for s in arr_of(j, ctx)? {
        let mut entries = Vec::new();
        for pair in arr_of(field(s, "entries", ctx)?, ctx)? {
            let p = arr_of(pair, ctx)?;
            if p.len() != 2 {
                return Err(bad(ctx, "catalog entry is not a [tuple, var] pair"));
            }
            entries.push((dec_tuple(&p[0], ctx)?, usize_of(&p[1], ctx)?));
        }
        shards.push(CatalogShard::from_parts(
            str_of(field(s, "relation", ctx)?, ctx)?.to_string(),
            u64_of(field(s, "generation", ctx)?, ctx)?,
            entries,
        ));
    }
    Ok(CatalogShards::from_shards(shards))
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

fn snapshot_from_json(j: &Json, ctx: &str) -> R<Snapshot> {
    Ok(Snapshot::publish(
        u64_of(field(j, "epoch", ctx)?, ctx)?,
        dec_marginals(field(j, "marginals", ctx)?, ctx)?,
        dec_f64s(field(j, "weights", ctx)?, ctx)?,
        dec_catalog(field(j, "catalog", ctx)?, ctx)?,
        dec_stats(field(j, "stats", ctx)?, ctx)?,
        f64_of(field(j, "fact_threshold", ctx)?, ctx)?,
    ))
}

/// Encode a [`Snapshot`] to its canonical checkpoint-codec bytes.
///
/// The encoding is deterministic: two snapshots with equal state produce
/// byte-identical output, which is what the recovery-idempotency tests
/// compare.  Pairs with [`decode_snapshot`].
pub fn encode_snapshot(s: &Snapshot) -> Vec<u8> {
    snapshot_to_json(s).encode().into_bytes()
}

/// Decode bytes produced by [`encode_snapshot`].
///
/// Malformed input yields a typed [`StorageError::Codec`]; this never panics.
pub fn decode_snapshot(bytes: &[u8]) -> R<Snapshot> {
    let ctx = "decoding snapshot";
    let text = std::str::from_utf8(bytes).map_err(|e| bad(ctx, format!("not UTF-8: {e}")))?;
    let json = parse(text).map_err(|e| bad(ctx, e))?;
    snapshot_from_json(&json, ctx)
}

// ---------------------------------------------------------------------------
// WAL op + checkpoint payloads.
// ---------------------------------------------------------------------------

pub(crate) fn encode_wal_op(op: &WalOp) -> Vec<u8> {
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
            ("relation", Json::String(relation.clone())),
            ("tuple", enc_tuple(tuple)),
        ]),
    };
    json.encode().into_bytes()
}

pub(crate) fn decode_wal_op(bytes: &[u8]) -> R<WalOp> {
    let ctx = "decoding WAL operation";
    let text = std::str::from_utf8(bytes).map_err(|e| bad(ctx, format!("not UTF-8: {e}")))?;
    let json = parse(text).map_err(|e| bad(ctx, e))?;
    match str_of(field(&json, "op", ctx)?, ctx)? {
        "initial_run" => Ok(WalOp::InitialRun),
        "refresh" => Ok(WalOp::Refresh),
        "materialize" => Ok(WalOp::Materialize),
        "update" => {
            let mode = match str_of(field(&json, "mode", ctx)?, ctx)? {
                "rerun" => ExecutionMode::Rerun,
                "incremental" => ExecutionMode::Incremental,
                other => return Err(bad(ctx, format!("unknown execution mode `{other}`"))),
            };
            let mut update = KbcUpdate::new();
            for d in arr_of(field(&json, "base_deltas", ctx)?, ctx)? {
                let delta = dec_delta_relation(d, ctx)?;
                update
                    .base_deltas
                    .insert(delta.relation().to_string(), delta);
            }
            for entry in arr_of(field(&json, "retracted_supervision", ctx)?, ctx)? {
                let e = arr_of(entry, ctx)?;
                if e.len() != 2 {
                    return Err(bad(
                        ctx,
                        "retracted supervision is not a [relation, tuple] pair",
                    ));
                }
                update
                    .retracted_supervision
                    .push((str_of(&e[0], ctx)?.to_string(), dec_tuple(&e[1], ctx)?));
            }
            for r in arr_of(field(&json, "new_rules", ctx)?, ctx)? {
                update.new_rules.push(dec_rule(r, ctx)?);
            }
            Ok(WalOp::Update { mode, update })
        }
        "retract_supervision" => Ok(WalOp::RetractSupervision {
            relation: str_of(field(&json, "relation", ctx)?, ctx)?.to_string(),
            tuple: dec_tuple(field(&json, "tuple", ctx)?, ctx)?,
        }),
        other => Err(bad(ctx, format!("unknown WAL op `{other}`"))),
    }
}

pub(crate) fn encode_checkpoint(state: &CheckpointState) -> Vec<u8> {
    let coverage = match state.materialized_coverage {
        None => Json::Null,
        Some((vars, weights)) => Json::Array(vec![enc_usize(vars), enc_usize(weights)]),
    };
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
        ("materialized_coverage", coverage),
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

pub(crate) fn decode_checkpoint(bytes: &[u8]) -> R<CheckpointState> {
    let ctx = "decoding checkpoint";
    let text = std::str::from_utf8(bytes).map_err(|e| bad(ctx, format!("not UTF-8: {e}")))?;
    let json = parse(text).map_err(|e| bad(ctx, e))?;
    let format = u64_of(field(&json, "format", ctx)?, ctx)?;
    if format != CHECKPOINT_FORMAT_VERSION {
        return Err(bad(
            ctx,
            format!("unsupported checkpoint format {format} (this build reads {CHECKPOINT_FORMAT_VERSION})"),
        ));
    }
    let materialization = match field(&json, "materialization", ctx)? {
        Json::Null => None,
        m => Some(dec_materialization(m, ctx)?),
    };
    let materialized_epoch = match field(&json, "materialized_epoch", ctx)? {
        Json::Null => None,
        e => Some(u64_of(e, ctx)?),
    };
    let materialized_coverage = match field(&json, "materialized_coverage", ctx)? {
        Json::Null => None,
        c => {
            let pair = arr_of(c, ctx)?;
            if pair.len() != 2 {
                return Err(bad(ctx, "coverage is not a [vars, weights] pair"));
            }
            Some((usize_of(&pair[0], ctx)?, usize_of(&pair[1], ctx)?))
        }
    };
    Ok(CheckpointState {
        grounder: dec_grounder_state(field(&json, "grounder", ctx)?, ctx)?,
        materialization,
        materialized_epoch,
        materialized_coverage,
        cumulative_change: dec_distribution_change(field(&json, "cumulative_change", ctx)?, ctx)?,
        learned_weights: dec_f64s(field(&json, "learned_weights", ctx)?, ctx)?,
        epoch: u64_of(field(&json, "epoch", ctx)?, ctx)?,
        snapshot: snapshot_from_json(field(&json, "snapshot", ctx)?, ctx)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::tuple;

    #[test]
    fn values_round_trip_including_float_bits() {
        let values = vec![
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::text("héllo \"quoted\"\n"),
            Value::Bool(true),
            Value::Float(0.1 + 0.2),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
            Value::Null,
        ];
        for v in &values {
            let decoded = dec_value(&enc_value(v), "test").unwrap();
            // Value equality is bit-level for floats, so NaN == NaN here.
            assert_eq!(&decoded, v, "value {v:?} did not round-trip");
        }
        // -0.0 keeps its sign bit (tuple ordering and equality depend on it).
        let neg_zero = dec_value(&enc_value(&Value::Float(-0.0)), "test").unwrap();
        match neg_zero {
            Value::Float(f) => assert_eq!(f.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn big_integers_survive_the_f64_bottleneck() {
        // 2^60 + 1 is not representable as f64; the string encoding keeps it.
        let big = (1u64 << 60) + 1;
        assert_eq!(u64_of(&enc_u64(big), "test").unwrap(), big);
        let big_i = -(1i64 << 60) - 1;
        assert_eq!(i64_of(&enc_i64(big_i), "test").unwrap(), big_i);
    }

    #[test]
    fn tables_round_trip_with_negative_counts() {
        let mut t = Table::new(
            "V",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Text)]),
        );
        t.insert_with_count(tuple![1i64, "x"], 3).unwrap();
        // DRed over-deletion: a net-negative row must survive recovery.
        t.insert_with_count(tuple![2i64, "y"], -2).unwrap();
        let decoded = dec_table(&enc_table(&t), "test").unwrap();
        assert_eq!(decoded.count(&tuple![1i64, "x"]), 3);
        assert_eq!(decoded.count(&tuple![2i64, "y"]), -2);
        assert_eq!(enc_table(&decoded).encode(), enc_table(&t).encode());
    }

    #[test]
    fn rules_round_trip_every_weight_spec() {
        use dd_relstore::view::Term;
        let specs = vec![
            WeightSpec::Fixed(2.5),
            WeightSpec::Learnable { initial: -1.0 },
            WeightSpec::Tied {
                udf: "phrase".into(),
                args: vec!["m1".into(), "sent".into()],
            },
            WeightSpec::Label(false),
            WeightSpec::None,
        ];
        for spec in specs {
            let rule = Rule::new(
                "R",
                RuleKind::FeatureExtraction,
                QueryAtom::new("Head", vec![Term::var("x"), Term::val(Value::Int(7))]),
                vec![QueryAtom::new("Body", vec![Term::var("x")]).negated()],
                spec.clone(),
            )
            .with_filters(vec![Filter::Lt("x".into(), "y".into())])
            .with_semantics(Semantics::Logical);
            let decoded = dec_rule(&enc_rule(&rule), "test").unwrap();
            assert_eq!(decoded, rule, "weight spec {spec:?} did not round-trip");
        }
    }

    #[test]
    fn factor_graphs_round_trip_with_identical_ids_and_origins() {
        let mut g = FactorGraph::new();
        let w0 = g.add_weight(Weight::learnable(0, 0.5, "w::feat"));
        let w1 = g.add_weight(Weight::fixed(0, 3.0, "w::prior"));
        let mut v0 = Variable::query(0);
        v0.relation = "R".into();
        v0.key = u64::MAX - 1;
        let v0 = g.add_variable(v0);
        let v1 = g.add_variable(Variable::evidence(0, true));
        g.add_factor(Factor::imply(w0, &[v0], v1));
        g.add_factor(Factor::equal(w1, v0, v1));
        g.add_factor(Factor::new(
            w0,
            FactorKind::Aggregate {
                head: Lit::pos(v1),
                semantics: Semantics::Ratio,
                groundings: vec![vec![Lit::neg(v0)], vec![Lit::pos(v0), Lit::pos(v1)]],
            },
        ));

        let decoded = dec_graph(&enc_graph(&g), "test").unwrap();
        assert_eq!(decoded.num_variables(), g.num_variables());
        assert_eq!(decoded.num_weights(), g.num_weights());
        assert_eq!(decoded.factors(), g.factors());
        assert_eq!(decoded.variables(), g.variables());
        assert_eq!(decoded.weights(), g.weights());
        // Origins survive (a 64-bit key beyond f64's integer range included).
        assert_eq!(decoded.find_variable("R", u64::MAX - 1), Some(v0));
        // Adjacency is rebuilt too.
        assert_eq!(decoded.factors_of(v0), g.factors_of(v0));
        // Determinism: re-encoding the decoded graph is byte-identical.
        assert_eq!(enc_graph(&decoded).encode(), enc_graph(&g).encode());
    }

    #[test]
    fn sample_sets_round_trip_through_hex() {
        // Sub-byte, sub-word, word-aligned and word-straddling sizes.
        for num_vars in [0usize, 5, 12, 64, 70, 130] {
            let mut set = SampleSet::new(num_vars);
            for s in 0..4 {
                let values = (0..num_vars).map(|v| (v * 5 + s) % 3 == 0).collect();
                set.push(&dd_factorgraph::World::from_values(values));
            }
            let encoded = enc_sample_set(&set);
            let decoded = dec_sample_set(&encoded, "test").unwrap();
            assert_eq!(decoded, set, "{num_vars} vars");
            assert_eq!(enc_sample_set(&decoded).encode(), encoded.encode());
        }
        // The empty set.
        let empty = SampleSet::new(12);
        let decoded = dec_sample_set(&enc_sample_set(&empty), "test").unwrap();
        assert_eq!(decoded, empty);
        assert!(hex_of(&Json::String("0g".into()), "test").is_err());
        assert!(hex_of(&Json::String("abc".into()), "test").is_err());
    }

    #[test]
    fn sample_sets_keep_the_per_bundle_hex_format() {
        // The payload a store of per-sample byte bundles over 12 variables
        // wrote for the worlds {0, 2, 9} and {11}: one two-byte hex string
        // per sample.  The arena must write exactly that, and read it back.
        let payload = r#"{"num_vars":"12","bundles":["0502","0008"]}"#;
        let decoded = dec_sample_set(&parse(payload).unwrap(), "test").unwrap();
        assert_eq!(decoded.len(), 2);
        let trues = |i: usize| -> Vec<usize> {
            let row = decoded.row(i);
            (0..12)
                .filter(|&v| dd_factorgraph::WorldView::value(&row, v))
                .collect()
        };
        assert_eq!(trues(0), vec![0, 2, 9]);
        assert_eq!(trues(1), vec![11]);
        assert_eq!(enc_sample_set(&decoded).encode(), payload);
        // A bundle of the wrong length is a typed error, not a panic.
        let short = r#"{"num_vars":"12","bundles":["05"]}"#;
        assert!(dec_sample_set(&parse(short).unwrap(), "test").is_err());
    }

    #[test]
    fn wal_ops_round_trip() {
        let mut update = KbcUpdate::new();
        update.insert("Sentence", tuple![9i64, "text"]);
        update.delete("Sentence", tuple![1i64, "old"]);
        update.insert("Anchor", tuple![5i64, 6i64]);
        for op in [
            WalOp::InitialRun,
            WalOp::Refresh,
            WalOp::Materialize,
            WalOp::Update {
                mode: ExecutionMode::Incremental,
                update: update.clone(),
            },
            WalOp::Update {
                mode: ExecutionMode::Rerun,
                update,
            },
        ] {
            let bytes = encode_wal_op(&op);
            let decoded = decode_wal_op(&bytes).unwrap();
            // Re-encode: the codec is canonical, so this must be byte-identical.
            assert_eq!(encode_wal_op(&decoded), bytes);
            match (&op, &decoded) {
                (WalOp::InitialRun, WalOp::InitialRun)
                | (WalOp::Refresh, WalOp::Refresh)
                | (WalOp::Materialize, WalOp::Materialize) => {}
                (
                    WalOp::Update {
                        mode: m1,
                        update: u1,
                    },
                    WalOp::Update {
                        mode: m2,
                        update: u2,
                    },
                ) => {
                    assert_eq!(m1, m2);
                    assert_eq!(u1.base_deltas.len(), u2.base_deltas.len());
                    assert_eq!(u2.base_deltas["Sentence"].count(&tuple![9i64, "text"]), 1);
                    assert_eq!(u2.base_deltas["Sentence"].count(&tuple![1i64, "old"]), -1);
                }
                (a, b) => panic!("op {a:?} decoded as {b:?}"),
            }
        }
    }

    #[test]
    fn snapshot_codec_round_trips_synthetic_snapshots() {
        let mut shards = CatalogShards::new();
        shards.merge_delta(
            "HasSpouse",
            vec![(tuple![1i64, 2i64], 0), (tuple![3i64, 4i64], 1)],
            7,
            &Marginals::from_values(vec![0.25, 0.75]),
        );
        let snapshot = Snapshot::synthetic(42, vec![0.25, 0.75], shards)
            .with_weights(vec![1.5, -0.5])
            .with_fact_threshold(0.8);
        let bytes = encode_snapshot(&snapshot);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded.epoch(), 42);
        assert_eq!(decoded.marginals().values(), snapshot.marginals().values());
        assert_eq!(decoded.weights(), snapshot.weights());
        assert_eq!(decoded.fact_threshold(), 0.8);
        assert_eq!(
            decoded.probability_of("HasSpouse", &tuple![3i64, 4i64]),
            Some(0.75)
        );
        assert_eq!(
            decoded.catalog().shard("HasSpouse").unwrap().generation(),
            7
        );
        // Byte-identical re-encode: the idempotency guarantee.
        assert_eq!(encode_snapshot(&decoded), bytes);
    }

    #[test]
    fn malformed_payloads_yield_typed_errors_not_panics() {
        let cases: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"not json".to_vec(),
            b"{}".to_vec(),
            b"{\"op\":\"warp\"}".to_vec(),
            b"{\"epoch\":12}".to_vec(), // epoch must be a string
            vec![0xff, 0xfe, 0x80],     // invalid UTF-8
            encode_wal_op(&WalOp::InitialRun)[..5].to_vec(), // truncated JSON
        ];
        for bytes in cases {
            assert!(matches!(
                decode_snapshot(&bytes),
                Err(StorageError::Codec { .. })
            ));
            assert!(matches!(
                decode_wal_op(&bytes),
                Err(StorageError::Codec { .. })
            ));
            assert!(matches!(
                decode_checkpoint(&bytes),
                Err(StorageError::Codec { .. })
            ));
        }
    }

    #[test]
    fn checkpoint_rejects_unknown_format_versions() {
        let doc = format!("{{\"format\":\"{}\"}}", CHECKPOINT_FORMAT_VERSION + 1);
        let err = match decode_checkpoint(doc.as_bytes()) {
            Err(e) => e,
            Ok(_) => panic!("future-format checkpoint was accepted"),
        };
        assert!(err.to_string().contains("unsupported checkpoint format"));
    }
}
