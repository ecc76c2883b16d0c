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
//! A checkpoint is encoded from the live engine: `CheckpointView` borrows
//! the engine's parts (the grounder's through
//! [`dd_grounding::Grounder::export_state`]), the orderings the format needs
//! are vectors of references, and the encoding streams through one chunk of
//! [`dd_wire::json::CHUNK_BYTES`] into the checkpoint file
//! ([`dd_storage::CheckpointStore::write_with`]).  No copy of the engine and
//! no payload buffer is made.  Decoding produces the owned
//! `CheckpointState` recovery rebuilds the engine from.
//!
//! Encoding conventions, chosen so that `encode(decode(bytes)) == bytes` for
//! every valid payload (the recovery-idempotency guarantee):
//!
//! * Objects are emitted with a fixed field order through
//!   [`dd_wire::json::JsonWriter`]; decoding pulls members by
//!   name through [`dd_wire::json::JsonReader`] without building a tree, and
//!   asks for them in that same order, so a payload is read exactly once.
//!   The engine's own types implement [`Encode`] / [`Decode`]; the types of
//!   the crates below get a function pair each.
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
    CatalogOp, GrounderState, GrounderStateRef, KbcUpdate, Program, RelationDecl, RelationRole,
    Rule, RuleKind, WeightSpec,
};
use dd_inference::{
    DistributionChange, Marginals, SampleMaterialization, SampleSet, VariationalMaterialization,
};
use dd_relstore::view::{Filter, QueryAtom, Term};
use dd_relstore::{Column, DataType, Database, DeltaRelation, Schema, Table, Tuple, Value};
use dd_storage::{CheckpointStore, StorageError, Wal};
use dd_wire::json::{hex_bytes, Decode, Encode, JsonReader, JsonWriter, Kind};
use std::borrow::Cow;
use std::collections::HashSet;

/// Format version stamped into every checkpoint payload.  Bumped whenever the
/// encoding changes incompatibly; recovery refuses versions it does not know
/// instead of misreading them.
pub const CHECKPOINT_FORMAT_VERSION: u64 = 3;

/// The oldest format recovery still reads.  A format-2 payload is a format-3
/// one plus members decoding passes over: each variable's active flag, the
/// materialization's strawman, model weights, wall-clock seconds and two
/// sample counts, and the engine's coverage pair.
const OLDEST_READABLE_FORMAT: u64 = 2;

type R<T> = Result<T, StorageError>;

// ---------------------------------------------------------------------------
// The durable operation log.
// ---------------------------------------------------------------------------

/// One logical operation appended to the WAL *before* it executes.
///
/// Replay re-executes the operation against the recovered state.  All four
/// operations are deterministic given the engine state and config (every
/// sampler is sequential and seeded), so replaying the tail after the last
/// checkpoint reproduces the exact pre-crash state, bit for bit, at any
/// graph size.
///
/// The same value is what the engine executes, live and on replay: a live
/// call borrows its caller's arguments (nothing is cloned to log or run an
/// operation), a decoded record owns them.
#[derive(Debug, Clone)]
pub(crate) enum WalOp<'a> {
    /// `DeepDive::initial_run`.
    InitialRun,
    /// `DeepDive::run_update` with the given mode.
    Update {
        mode: ExecutionMode,
        update: Cow<'a, KbcUpdate>,
    },
    /// `DeepDive::retract_supervision`.
    RetractSupervision {
        relation: Cow<'a, str>,
        tuple: Tuple,
    },
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

    /// Append one logical operation to the WAL.
    pub fn append(&mut self, op: &WalOp<'_>) -> R<()> {
        let payload = encode_wal_op(op);
        self.wal.append(&payload)?;
        self.records_since_checkpoint += 1;
        self.bytes_since_checkpoint += payload.len() as u64;
        Ok(())
    }

    /// Write `state` as a checkpoint covering everything logged so far, then
    /// prune the WAL and the older checkpoints it supersedes.  Returns the
    /// covered sequence number.
    ///
    /// Ordering is what makes this crash-safe at every byte boundary:
    ///
    /// 1. fsync the WAL — nothing the checkpoint covers may be volatile;
    /// 2. write the checkpoint file atomically: `state` is encoded straight
    ///    into a temp file, whose header is written last, then fsync,
    ///    rename, fsync the directory;
    /// 3. rotate the WAL onto a fresh segment (unless the current one holds
    ///    no record yet);
    /// 4. prune older checkpoints and fully-covered WAL segments.
    ///
    /// A crash between any two steps leaves either the old checkpoint or the
    /// new one fully intact, and the WAL always reaches from the newest valid
    /// checkpoint to the last logged operation.
    pub fn checkpoint(&mut self, state: &impl Encode) -> R<u64> {
        self.wal.sync()?;
        let covered = self.wal.last_seq();
        self.checkpoints
            .write_with(covered, |sink| state.write_to(sink))?;
        self.wal.rotate()?;
        self.checkpoints.prune(self.keep_checkpoints)?;
        // Prune below the *oldest retained* checkpoint, not the one just
        // written: if the newest file is later damaged, recovery falls back
        // to an older checkpoint and must still find every WAL record from
        // that point forward.
        let oldest = self
            .checkpoints
            .covered_seqs()?
            .first()
            .copied()
            .unwrap_or(covered);
        self.wal.prune_below(oldest + 1)?;
        // The auto-checkpoint window restarts here for both policy counters
        // (manual checkpoints count too: they bound replay just the same).
        self.records_since_checkpoint = 0;
        self.bytes_since_checkpoint = 0;
        Ok(covered)
    }
}

/// A checkpoint of a live engine, borrowed from its parts: what
/// [`DurabilityHandle::checkpoint`] encodes into the checkpoint file.
pub(crate) struct CheckpointView<'a> {
    pub grounder: GrounderStateRef<'a>,
    pub materialization: Option<&'a Materialization>,
    pub materialized_epoch: Option<u64>,
    /// The change accumulated since materialization (`None`: nothing is
    /// materialized, and the empty change is written).
    pub cumulative_change: Option<&'a DistributionChange>,
    pub epoch: u64,
    pub snapshot: &'a Snapshot,
}

/// Everything needed to reconstruct a `DeepDive` engine at a point in time
/// (minus the config and UDF registry, which the builder re-supplies — UDFs
/// are function pointers and cannot be serialized), as a checkpoint decodes.
/// The fields are those of [`CheckpointView`], owned.
pub(crate) struct CheckpointState {
    pub grounder: GrounderState,
    pub materialization: Option<Materialization>,
    pub materialized_epoch: Option<u64>,
    pub cumulative_change: DistributionChange,
    pub epoch: u64,
    pub snapshot: Snapshot,
}

// ---------------------------------------------------------------------------
// Small encode/decode helpers.
// ---------------------------------------------------------------------------

/// A decode failure from the reader or from a decoder below; the entry
/// points wrap it into a [`StorageError::Codec`] naming what was decoded.
type D<T> = Result<T, String>;

fn bad(context: &str, detail: impl Into<String>) -> StorageError {
    StorageError::codec(context, detail)
}

/// Integers ride as decimal strings (JSON numbers are f64; 2^53 is too small
/// for seqs, epochs, and variable keys).
fn enc_usize(w: &mut JsonWriter<'_>, n: usize) {
    w.u64_string(n as u64);
}

fn dec_u64(r: &mut JsonReader<'_>) -> D<u64> {
    r.parsed("u64")
}

fn dec_i64(r: &mut JsonReader<'_>) -> D<i64> {
    r.parsed("i64")
}

fn dec_usize(r: &mut JsonReader<'_>) -> D<usize> {
    r.parsed("usize")
}

/// Finite floats encode as JSON numbers (shortest round-trip form); NaN and
/// infinities — which JSON cannot represent — as `"bits:<hex>"`.
fn enc_f64(w: &mut JsonWriter<'_>, x: f64) {
    if x.is_finite() {
        w.number(x);
    } else {
        enc_f64_bits(w, x);
    }
}

fn dec_f64(r: &mut JsonReader<'_>) -> D<f64> {
    match r.peek()? {
        Kind::Number => r.number(),
        Kind::String => dec_f64_bits(r),
        _ => Err(r.error("expected a number or bits string")),
    }
}

/// Bit-exact float form, used for all non-finite floats and for every
/// [`Value::Float`] (tuple equality is bit-level).
fn enc_f64_bits(w: &mut JsonWriter<'_>, x: f64) {
    w.display(format_args!("bits:{:016x}", x.to_bits()));
}

fn dec_f64_bits(r: &mut JsonReader<'_>) -> D<f64> {
    let s = r.string()?;
    let hex = s
        .strip_prefix("bits:")
        .ok_or_else(|| r.error(format_args!("expected `bits:<hex>`, got `{s}`")))?;
    let bits =
        u64::from_str_radix(hex, 16).map_err(|e| r.error(format_args!("bad float bits: {e}")))?;
    Ok(f64::from_bits(bits))
}

/// A string naming one of a closed set of variants.
fn dec_name<T>(r: &mut JsonReader<'_>, what: &str, variant: impl Fn(&str) -> Option<T>) -> D<T> {
    let name = r.string()?;
    variant(&name).ok_or_else(|| r.error(format_args!("unknown {what} `{name}`")))
}

// ---------------------------------------------------------------------------
// Relational layer: Value, Tuple, Schema, Table, Database, DeltaRelation.
// ---------------------------------------------------------------------------

fn enc_value(w: &mut JsonWriter<'_>, v: &Value) {
    w.object(|w| match v {
        Value::Int(i) => {
            w.field("t", "int");
            w.key("v").i64_string(*i);
        }
        Value::Text(s) => {
            w.field("t", "text");
            w.field("v", &**s);
        }
        Value::Bool(b) => {
            w.field("t", "bool");
            w.field("v", b);
        }
        Value::Float(x) => {
            w.field("t", "float");
            enc_f64_bits(w.key("v"), *x);
        }
        Value::Null => w.field("t", "null"),
    });
}

fn dec_value(r: &mut JsonReader<'_>) -> D<Value> {
    r.object(|o| match &*o.field("t")?.string()? {
        "int" => Ok(Value::Int(dec_i64(o.field("v")?)?)),
        "text" => Ok(Value::text(o.field("v")?.string()?)),
        "bool" => Ok(Value::Bool(o.field("v")?.bool()?)),
        "float" => Ok(Value::Float(dec_f64_bits(o.field("v")?)?)),
        "null" => Ok(Value::Null),
        other => Err(o.error(format_args!("unknown value tag `{other}`"))),
    })
}

fn enc_tuple(w: &mut JsonWriter<'_>, t: &Tuple) {
    w.array(t.values(), enc_value);
}

fn dec_tuple(r: &mut JsonReader<'_>) -> D<Tuple> {
    r.seq(dec_value).map(Tuple::new)
}

/// `[tuple, count]` with the count a decimal string — one counted row.
fn enc_counted(w: &mut JsonWriter<'_>, (tuple, count): (&Tuple, i64)) {
    w.tuple(|w| {
        enc_tuple(w, tuple);
        w.i64_string(count);
    });
}

fn enc_data_type(w: &mut JsonWriter<'_>, t: DataType) {
    w.string(match t {
        DataType::Int => "int",
        DataType::Text => "text",
        DataType::Bool => "bool",
        DataType::Float => "float",
        DataType::Null => "null",
    });
}

fn dec_data_type(r: &mut JsonReader<'_>) -> D<DataType> {
    dec_name(r, "data type", |name| match name {
        "int" => Some(DataType::Int),
        "text" => Some(DataType::Text),
        "bool" => Some(DataType::Bool),
        "float" => Some(DataType::Float),
        "null" => Some(DataType::Null),
        _ => None,
    })
}

fn enc_schema(w: &mut JsonWriter<'_>, s: &Schema) {
    w.array(s.columns(), |w, c| {
        w.object(|w| {
            w.field("name", &c.name);
            enc_data_type(w.key("type"), c.data_type);
        })
    });
}

fn dec_schema(r: &mut JsonReader<'_>) -> D<Schema> {
    let column = |r: &mut JsonReader<'_>| {
        r.object(|o| {
            let name = o.field("name")?.string()?;
            Ok(Column::new(name, dec_data_type(o.field("type")?)?))
        })
    };
    r.seq(column).map(Schema::new)
}

fn enc_table(w: &mut JsonWriter<'_>, t: &Table) {
    // `iter_net_counted` (not `iter_counted`): DRed over-deletion can leave
    // *negative* counts in a view table, and exact recovery must keep them.
    w.object(|w| {
        w.field("name", t.name());
        enc_schema(w.key("schema"), t.schema());
        w.key("rows").array(t.iter_net_counted(), enc_counted);
    });
}

fn dec_table(r: &mut JsonReader<'_>) -> D<Table> {
    r.object(|o| {
        let name = o.field("name")?.string()?;
        let mut table = Table::new(name, dec_schema(o.field("schema")?)?);
        o.field("rows")?.for_each(|r| {
            let (tuple, count) =
                r.pair("table row is not a [tuple, count] pair", dec_tuple, dec_i64)?;
            table
                .insert_with_count(tuple, count)
                .map_err(|e| r.error(format_args!("row rejected by schema: {e}")))
        })?;
        Ok(table)
    })
}

fn enc_database(w: &mut JsonWriter<'_>, db: &Database) {
    let mut names = db.table_names();
    names.sort();
    w.array(&names, |w, n| {
        enc_table(w, db.table(n).expect("listed table exists"))
    });
}

fn dec_database(r: &mut JsonReader<'_>) -> D<Database> {
    let mut db = Database::new();
    r.for_each(|r| {
        let table = dec_table(r)?;
        db.create_or_replace_table(table.name(), table.schema().clone());
        let dst = db.table_mut(table.name()).expect("just created");
        for (tuple, count) in table.iter_net_counted() {
            dst.insert_with_count(tuple.clone(), count)
                .map_err(|e| r.error(format_args!("row rejected by schema: {e}")))?;
        }
        Ok(())
    })?;
    Ok(db)
}

fn enc_delta_relation(w: &mut JsonWriter<'_>, d: &DeltaRelation) {
    w.object(|w| {
        w.field("relation", d.relation());
        w.key("changes").array(d.iter(), enc_counted);
    });
}

fn dec_delta_relation(r: &mut JsonReader<'_>) -> D<DeltaRelation> {
    r.object(|o| {
        let mut delta = DeltaRelation::new(o.field("relation")?.string()?);
        o.field("changes")?.for_each(|r| {
            let (tuple, count) = r.pair(
                "delta change is not a [tuple, count] pair",
                dec_tuple,
                dec_i64,
            )?;
            delta.change(tuple, count);
            Ok(())
        })?;
        Ok(delta)
    })
}

/// `[relation, tuple]` — a supervision head.
fn enc_head(w: &mut JsonWriter<'_>, relation: &str, tuple: &Tuple) {
    w.tuple(|w| {
        w.string(relation);
        enc_tuple(w, tuple);
    });
}

fn dec_head(r: &mut JsonReader<'_>, shape: &str) -> D<(String, Tuple)> {
    r.pair(shape, String::decode, dec_tuple)
}

// ---------------------------------------------------------------------------
// Program layer: terms, atoms, filters, rules, declarations.
// ---------------------------------------------------------------------------

fn enc_term(w: &mut JsonWriter<'_>, t: &Term) {
    w.object(|w| match t {
        Term::Var(v) => w.field("var", v),
        Term::Const(v) => enc_value(w.key("const"), v),
    });
}

fn dec_term(r: &mut JsonReader<'_>) -> D<Term> {
    r.object(|o| {
        if let Some(r) = o.opt_field("var")? {
            Ok(Term::Var(String::decode(r)?))
        } else if let Some(r) = o.opt_field("const")? {
            Ok(Term::Const(dec_value(r)?))
        } else {
            Err(o.error("term is neither `var` nor `const`"))
        }
    })
}

fn enc_atom(w: &mut JsonWriter<'_>, a: &QueryAtom) {
    w.object(|w| {
        w.field("relation", &a.relation);
        w.key("terms").array(&a.terms, enc_term);
        w.field("negated", &a.negated);
    });
}

fn dec_atom(r: &mut JsonReader<'_>) -> D<QueryAtom> {
    r.object(|o| {
        let relation = o.field("relation")?.string()?;
        let atom = QueryAtom::new(relation, o.field("terms")?.seq(dec_term)?);
        Ok(if o.field("negated")?.bool()? {
            atom.negated()
        } else {
            atom
        })
    })
}

fn enc_filter(w: &mut JsonWriter<'_>, f: &Filter) {
    let (op, l, r) = match f {
        Filter::Ne(l, r) => ("ne", l, r),
        Filter::Eq(l, r) => ("eq", l, r),
        Filter::Lt(l, r) => ("lt", l, r),
    };
    w.object(|w| {
        w.field("op", op);
        w.field("l", l);
        w.field("r", r);
    });
}

fn dec_filter(r: &mut JsonReader<'_>) -> D<Filter> {
    r.object(|o| {
        let op = dec_name(o.field("op")?, "filter op", |name| match name {
            "ne" => Some(Filter::Ne as fn(String, String) -> Filter),
            "eq" => Some(Filter::Eq),
            "lt" => Some(Filter::Lt),
            _ => None,
        })?;
        Ok(op(
            String::decode(o.field("l")?)?,
            String::decode(o.field("r")?)?,
        ))
    })
}

fn dec_semantics(r: &mut JsonReader<'_>) -> D<Semantics> {
    dec_name(r, "semantics", |name| match name {
        "Linear" => Some(Semantics::Linear),
        "Ratio" => Some(Semantics::Ratio),
        "Logical" => Some(Semantics::Logical),
        _ => None,
    })
}

fn dec_rule_kind(r: &mut JsonReader<'_>) -> D<RuleKind> {
    dec_name(r, "rule kind", |name| match name {
        "candidate" => Some(RuleKind::CandidateMapping),
        "feature" => Some(RuleKind::FeatureExtraction),
        "supervision" => Some(RuleKind::Supervision),
        "inference" => Some(RuleKind::Inference),
        "analysis" => Some(RuleKind::ErrorAnalysis),
        _ => None,
    })
}

fn enc_weight_spec(w: &mut JsonWriter<'_>, spec: &WeightSpec) {
    w.object(|w| match spec {
        WeightSpec::Fixed(v) => {
            w.field("t", "fixed");
            enc_f64(w.key("v"), *v);
        }
        WeightSpec::Learnable { initial } => {
            w.field("t", "learnable");
            enc_f64(w.key("initial"), *initial);
        }
        WeightSpec::Tied { udf, args } => {
            w.field("t", "tied");
            w.field("udf", udf);
            w.field("args", args);
        }
        WeightSpec::Label(polarity) => {
            w.field("t", "label");
            w.field("v", polarity);
        }
        WeightSpec::None => w.field("t", "none"),
    });
}

fn dec_weight_spec(r: &mut JsonReader<'_>) -> D<WeightSpec> {
    r.object(|o| match &*o.field("t")?.string()? {
        "fixed" => Ok(WeightSpec::Fixed(dec_f64(o.field("v")?)?)),
        "learnable" => Ok(WeightSpec::Learnable {
            initial: dec_f64(o.field("initial")?)?,
        }),
        "tied" => Ok(WeightSpec::Tied {
            udf: String::decode(o.field("udf")?)?,
            args: o.field("args")?.seq(String::decode)?,
        }),
        "label" => Ok(WeightSpec::Label(o.field("v")?.bool()?)),
        "none" => Ok(WeightSpec::None),
        other => Err(o.error(format_args!("unknown weight spec `{other}`"))),
    })
}

fn enc_rule(w: &mut JsonWriter<'_>, r: &Rule) {
    w.object(|w| {
        w.field("name", &r.name);
        w.field("kind", r.kind.label());
        enc_atom(w.key("head"), &r.head);
        w.key("body").array(&r.body, enc_atom);
        w.key("filters").array(&r.filters, enc_filter);
        enc_weight_spec(w.key("weight"), &r.weight);
        w.field("semantics", r.semantics.label());
    });
}

fn dec_rule(r: &mut JsonReader<'_>) -> D<Rule> {
    r.object(|o| {
        let name = o.field("name")?.string()?;
        let kind = dec_rule_kind(o.field("kind")?)?;
        let head = dec_atom(o.field("head")?)?;
        let body = o.field("body")?.seq(dec_atom)?;
        let filters = o.field("filters")?.seq(dec_filter)?;
        let weight = dec_weight_spec(o.field("weight")?)?;
        Ok(Rule::new(name, kind, head, body, weight)
            .with_filters(filters)
            .with_semantics(dec_semantics(o.field("semantics")?)?))
    })
}

fn enc_program(w: &mut JsonWriter<'_>, p: &Program) {
    w.object(|w| {
        w.key("relations").array(&p.relations, |w, d| {
            w.object(|w| {
                w.field("name", &d.name);
                enc_schema(w.key("schema"), &d.schema);
                w.field(
                    "role",
                    match d.role {
                        RelationRole::Base => "base",
                        RelationRole::Derived => "derived",
                        RelationRole::Variable => "variable",
                    },
                );
            })
        });
        w.key("rules").array(&p.rules, enc_rule);
    });
}

fn dec_program(r: &mut JsonReader<'_>) -> D<Program> {
    r.object(|o| {
        let mut program = Program::new();
        let relations = o.field("relations")?.seq(|r| {
            r.object(|o| {
                let name = o.field("name")?.string()?;
                let schema = dec_schema(o.field("schema")?)?;
                let role = dec_name(o.field("role")?, "relation role", |name| match name {
                    "base" => Some(RelationRole::Base),
                    "derived" => Some(RelationRole::Derived),
                    "variable" => Some(RelationRole::Variable),
                    _ => None,
                })?;
                Ok(RelationDecl::new(name, schema, role))
            })
        })?;
        for decl in relations {
            program = program.declare(decl);
        }
        for rule in o.field("rules")?.seq(dec_rule)? {
            program = program.rule(rule);
        }
        Ok(program)
    })
}

// ---------------------------------------------------------------------------
// Factor graph layer.
// ---------------------------------------------------------------------------

fn enc_variable(w: &mut JsonWriter<'_>, v: &Variable) {
    w.object(|w| {
        enc_usize(w.key("id"), v.id);
        w.field(
            "role",
            match v.role {
                VariableRole::Query => "query",
                VariableRole::PositiveEvidence => "pos",
                VariableRole::NegativeEvidence => "neg",
            },
        );
        w.field("initial_value", &v.initial_value);
        w.field("relation", &*v.relation);
        w.key("key").u64_string(v.key);
    });
}

/// Decode one variable; `relations` interns the relation names of one
/// graph, so its variables share one handle per relation as they did when
/// the graph was grounded.
fn dec_variable(r: &mut JsonReader<'_>, relations: &mut HashSet<RelName>) -> D<Variable> {
    r.object(|o| {
        let mut var = Variable::query(dec_usize(o.field("id")?)?);
        var.role = dec_name(o.field("role")?, "variable role", |name| match name {
            "query" => Some(VariableRole::Query),
            "pos" => Some(VariableRole::PositiveEvidence),
            "neg" => Some(VariableRole::NegativeEvidence),
            _ => None,
        })?;
        var.initial_value = o.field("initial_value")?.bool()?;
        let relation = o.field("relation")?.string()?;
        var.relation = match relations.get(&*relation) {
            Some(handle) => handle.clone(),
            None => {
                let handle = RelName::from(&*relation);
                relations.insert(handle.clone());
                handle
            }
        };
        var.key = dec_u64(o.field("key")?)?;
        Ok(var)
    })
}

fn enc_lit(w: &mut JsonWriter<'_>, l: &Lit) {
    w.tuple(|w| {
        enc_usize(w, l.var);
        w.bool(l.positive);
    });
}

fn dec_lit(r: &mut JsonReader<'_>) -> D<Lit> {
    let (var, positive) = r.pair("literal is not a [var, positive] pair", dec_usize, |r| {
        r.bool()
    })?;
    Ok(Lit { var, positive })
}

fn enc_lits(w: &mut JsonWriter<'_>, lits: &[Lit]) {
    w.array(lits, enc_lit);
}

fn dec_lits(r: &mut JsonReader<'_>) -> D<Vec<Lit>> {
    r.seq(dec_lit)
}

fn enc_factor(w: &mut JsonWriter<'_>, f: &Factor) {
    w.object(|w| {
        enc_usize(w.key("weight"), f.weight_id);
        w.key("kind").object(|w| match &f.kind {
            FactorKind::Conjunction(lits) => {
                w.field("t", "conj");
                enc_lits(w.key("lits"), lits);
            }
            FactorKind::Imply { body, head } => {
                w.field("t", "imply");
                enc_lits(w.key("body"), body);
                enc_lit(w.key("head"), head);
            }
            FactorKind::Equal(a, b) => {
                w.field("t", "equal");
                enc_usize(w.key("a"), *a);
                enc_usize(w.key("b"), *b);
            }
            FactorKind::IsTrue(v) => {
                w.field("t", "is_true");
                enc_usize(w.key("v"), *v);
            }
            FactorKind::Aggregate {
                head,
                semantics,
                groundings,
            } => {
                w.field("t", "agg");
                enc_lit(w.key("head"), head);
                w.field("semantics", semantics.label());
                w.key("groundings")
                    .array(groundings, |w, lits| enc_lits(w, lits));
            }
        });
    });
}

fn dec_factor(r: &mut JsonReader<'_>) -> D<Factor> {
    r.object(|o| {
        let weight_id = dec_usize(o.field("weight")?)?;
        let kind = o
            .field("kind")?
            .object(|k| match &*k.field("t")?.string()? {
                "conj" => Ok(FactorKind::Conjunction(dec_lits(k.field("lits")?)?)),
                "imply" => Ok(FactorKind::Imply {
                    body: dec_lits(k.field("body")?)?,
                    head: dec_lit(k.field("head")?)?,
                }),
                "equal" => Ok(FactorKind::Equal(
                    dec_usize(k.field("a")?)?,
                    dec_usize(k.field("b")?)?,
                )),
                "is_true" => Ok(FactorKind::IsTrue(dec_usize(k.field("v")?)?)),
                "agg" => Ok(FactorKind::Aggregate {
                    head: dec_lit(k.field("head")?)?,
                    semantics: dec_semantics(k.field("semantics")?)?,
                    groundings: k.field("groundings")?.seq(dec_lits)?,
                }),
                other => Err(k.error(format_args!("unknown factor kind `{other}`"))),
            })?;
        Ok(Factor::new(weight_id, kind))
    })
}

fn enc_graph(w: &mut JsonWriter<'_>, g: &FactorGraph) {
    w.object(|w| {
        w.key("variables").array(g.variables(), enc_variable);
        w.key("weights").array(g.weights(), |w, weight| {
            w.object(|w| {
                enc_usize(w.key("id"), weight.id);
                enc_f64(w.key("value"), weight.value);
                w.field("fixed", &weight.fixed);
                w.field("description", &weight.description);
            })
        });
        w.key("factors").array(g.factors(), enc_factor);
    });
}

fn dec_graph(r: &mut JsonReader<'_>) -> D<FactorGraph> {
    r.object(|o| {
        let mut graph = FactorGraph::new();
        // Replay in id order: `add_*` assigns ids sequentially, so re-adding
        // in the encoded (id) order reproduces ids and the factor adjacency
        // lists exactly.  Factors go last: they refer to the other two.
        let mut relations = HashSet::new();
        o.field("variables")?.for_each(|r| {
            graph.add_variable(dec_variable(r, &mut relations)?);
            Ok(())
        })?;
        o.field("weights")?.for_each(|r| {
            let weight = r.object(|o| {
                let id = dec_usize(o.field("id")?)?;
                let value = dec_f64(o.field("value")?)?;
                let fixed = o.field("fixed")?.bool()?;
                let mut weight = Weight::learnable(id, value, o.field("description")?.string()?);
                weight.fixed = fixed;
                Ok(weight)
            })?;
            graph.add_weight(weight);
            Ok(())
        })?;
        o.field("factors")?.for_each(|r| {
            graph.add_factor(dec_factor(r)?);
            Ok(())
        })?;
        Ok(graph)
    })
}

// ---------------------------------------------------------------------------
// Inference layer: marginals, samples, materializations, distribution change.
// ---------------------------------------------------------------------------

fn enc_f64s(w: &mut JsonWriter<'_>, xs: &[f64]) {
    w.array(xs, |w, &x| enc_f64(w, x));
}

fn dec_f64s(r: &mut JsonReader<'_>) -> D<Vec<f64>> {
    r.seq(dec_f64)
}

fn enc_usizes(w: &mut JsonWriter<'_>, ns: &[usize]) {
    w.array(ns, |w, &n| enc_usize(w, n));
}

/// One hex string per sample — the sample's bits, 8 variables per byte —
/// which is what the per-sample byte bundles this store used to be made of
/// encoded to; the arena's rows write the same bytes.
fn enc_sample_set(w: &mut JsonWriter<'_>, s: &SampleSet) {
    w.object(|w| {
        enc_usize(w.key("num_vars"), s.num_vars());
        w.key("bundles")
            .array(s.rows(), |w, row| w.hex(row.bytes()));
    });
}

/// Each bundle's nibbles go straight into the arena row they spell.
fn dec_sample_set(r: &mut JsonReader<'_>) -> D<SampleSet> {
    r.object(|o| {
        let mut samples = SampleSet::new(dec_usize(o.field("num_vars")?)?);
        o.field("bundles")?.for_each(|r| {
            let bundle = r.string()?;
            let bytes = hex_bytes(&bundle).map_err(|e| r.error(e))?;
            if samples.push_byte_iter(bytes) {
                Ok(())
            } else {
                Err(r.error("sample bundle does not cover the variables"))
            }
        })?;
        Ok(samples)
    })
}

fn enc_materialization(w: &mut JsonWriter<'_>, m: &Materialization) {
    w.object(|w| {
        w.key("sampling").object(|w| {
            enc_sample_set(w.key("samples"), m.sampling.samples());
        });
        w.key("variational").object(|w| {
            enc_graph(w.key("approx_graph"), m.variational.approx_graph());
            enc_usize(
                w.key("pairwise_factors"),
                m.variational.num_pairwise_factors(),
            );
            enc_usize(
                w.key("candidate_pairs"),
                m.variational.num_candidate_pairs(),
            );
            enc_f64(w.key("lambda"), m.variational.lambda());
        });
    });
}

fn dec_materialization(r: &mut JsonReader<'_>) -> D<Materialization> {
    r.object(|o| {
        let sampling = o.field("sampling")?.object(|s| {
            Ok(SampleMaterialization::from_samples(dec_sample_set(
                s.field("samples")?,
            )?))
        })?;
        let variational = o.field("variational")?.object(|v| {
            Ok(VariationalMaterialization::from_parts(
                dec_graph(v.field("approx_graph")?)?,
                dec_usize(v.field("pairwise_factors")?)?,
                dec_usize(v.field("candidate_pairs")?)?,
                dec_f64(v.field("lambda")?)?,
            ))
        })?;
        Ok(Materialization {
            sampling,
            variational,
        })
    })
}

fn enc_distribution_change(w: &mut JsonWriter<'_>, c: &DistributionChange) {
    w.object(|w| {
        enc_usizes(w.key("new_factors"), &c.new_factors);
        w.key("changed_weights")
            .array(&c.changed_weights, |w, &(id, value)| {
                w.tuple(|w| {
                    enc_usize(w, id);
                    enc_f64(w, value);
                })
            });
        w.key("new_evidence")
            .array(&c.new_evidence, |w, &(var, value)| {
                w.tuple(|w| {
                    enc_usize(w, var);
                    w.bool(value);
                })
            });
        enc_usizes(w.key("new_variables"), &c.new_variables);
    });
}

fn dec_distribution_change(r: &mut JsonReader<'_>) -> D<DistributionChange> {
    r.object(|o| {
        Ok(DistributionChange {
            new_factors: o.field("new_factors")?.seq(dec_usize)?,
            changed_weights: o.field("changed_weights")?.seq(|r| {
                r.pair(
                    "changed weight is not a [id, value] pair",
                    dec_usize,
                    dec_f64,
                )
            })?,
            new_evidence: o.field("new_evidence")?.seq(|r| {
                r.pair("new evidence is not a [var, value] pair", dec_usize, |r| {
                    r.bool()
                })
            })?,
            new_variables: o.field("new_variables")?.seq(dec_usize)?,
        })
    })
}

// ---------------------------------------------------------------------------
// Grounder state.
// ---------------------------------------------------------------------------

fn enc_grounder_state(w: &mut JsonWriter<'_>, s: &GrounderStateRef<'_>) {
    w.object(|w| {
        enc_program(w.key("program"), s.program);
        enc_database(w.key("db"), s.db);
        enc_graph(w.key("graph"), s.graph);
        w.key("var_catalog")
            .array(&s.var_catalog, |w, &(rel, tuple, var)| {
                w.tuple(|w| {
                    w.string(rel);
                    enc_tuple(w, tuple);
                    enc_usize(w, var);
                })
            });
        w.key("catalog_ops")
            .array(&s.catalog_ops, |w, &(rel, ops)| {
                w.tuple(|w| {
                    w.string(rel);
                    w.array(ops, enc_catalog_op);
                })
            });
        w.key("grounded_bindings")
            .array(&s.grounded_bindings, |w, &(rule, bindings)| {
                w.tuple(|w| {
                    w.string(rule);
                    w.array(bindings, |w, (t, rec)| {
                        w.tuple(|w| {
                            enc_tuple(w, t);
                            enc_grounding_record(w, rec);
                        })
                    });
                })
            });
        w.key("view_rules")
            .array(&s.view_rules, |w, rule| w.string(rule));
        w.key("suppressed_labels")
            .array(&s.suppressed_labels, |w, &(rel, tuple)| {
                enc_head(w, rel, tuple)
            });
        w.key("next_var_key").u64_string(s.next_var_key);
    });
}

fn enc_catalog_op(w: &mut JsonWriter<'_>, op: &CatalogOp) {
    w.tuple(|w| match op {
        CatalogOp::Upsert(t, v) => {
            w.string("upsert");
            enc_tuple(w, t);
            enc_usize(w, *v);
        }
        CatalogOp::Remove(t) => {
            w.string("remove");
            enc_tuple(w, t);
        }
    });
}

fn dec_catalog_op(r: &mut JsonReader<'_>) -> D<CatalogOp> {
    let shape = "catalog op is not [\"upsert\", tuple, var] or [\"remove\", tuple]";
    r.begin_array()?;
    r.element(shape)?;
    let tag = r.string()?;
    r.element(shape)?;
    let tuple = dec_tuple(r)?;
    let op = match &*tag {
        "upsert" => {
            r.element(shape)?;
            CatalogOp::Upsert(tuple, dec_usize(r)?)
        }
        "remove" => CatalogOp::Remove(tuple),
        _ => return Err(r.error(shape)),
    };
    r.end_array(shape)?;
    Ok(op)
}

fn enc_grounding_record(w: &mut JsonWriter<'_>, rec: &GroundingRecord) {
    w.object(|w| {
        w.key("support").i64_string(rec.support);
        match rec.factor {
            None => w.key("factor").null(),
            Some(f) => enc_usize(w.key("factor"), f),
        }
        w.field("label", &rec.label);
    });
}

fn dec_grounding_record(r: &mut JsonReader<'_>) -> D<GroundingRecord> {
    r.object(|o| {
        Ok(GroundingRecord {
            support: dec_i64(o.field("support")?)?,
            factor: o.field("factor")?.null_or(dec_usize)?,
            label: o.field("label")?.null_or(|r| r.bool())?,
        })
    })
}

fn dec_grounder_state(r: &mut JsonReader<'_>) -> D<GrounderState> {
    r.object(|o| {
        Ok(GrounderState {
            program: dec_program(o.field("program")?)?,
            db: dec_database(o.field("db")?)?,
            graph: dec_graph(o.field("graph")?)?,
            var_catalog: o.field("var_catalog")?.seq(|r| {
                let shape = "var_catalog entry is not [relation, tuple, var]";
                r.begin_array()?;
                r.element(shape)?;
                let relation = String::decode(r)?;
                r.element(shape)?;
                let tuple = dec_tuple(r)?;
                r.element(shape)?;
                let var = dec_usize(r)?;
                r.end_array(shape)?;
                Ok((relation, tuple, var))
            })?,
            catalog_ops: o.field("catalog_ops")?.seq(|r| {
                r.pair(
                    "catalog_ops entry is not [relation, ops]",
                    String::decode,
                    |r| r.seq(dec_catalog_op),
                )
            })?,
            grounded_bindings: o.field("grounded_bindings")?.seq(|r| {
                r.pair(
                    "grounded_bindings entry is not [rule, bindings]",
                    String::decode,
                    |r| {
                        r.seq(|r| {
                            r.pair(
                                "grounded binding is not a [tuple, record] pair",
                                dec_tuple,
                                dec_grounding_record,
                            )
                        })
                    },
                )
            })?,
            view_rules: o.field("view_rules")?.seq(String::decode)?,
            suppressed_labels: o
                .field("suppressed_labels")?
                .seq(|r| dec_head(r, "suppressed label is not a [relation, tuple] pair"))?,
            next_var_key: dec_u64(o.field("next_var_key")?)?,
        })
    })
}

// ---------------------------------------------------------------------------
// Snapshot codec (public: satellite for storage tests and tooling).
// ---------------------------------------------------------------------------

fn enc_stats(w: &mut JsonWriter<'_>, s: &GraphStats) {
    w.object(|w| {
        enc_usize(w.key("num_variables"), s.num_variables);
        enc_usize(w.key("num_query_variables"), s.num_query_variables);
        enc_usize(w.key("num_evidence_variables"), s.num_evidence_variables);
        enc_usize(w.key("num_factors"), s.num_factors);
        enc_usize(w.key("num_weights"), s.num_weights);
        enc_f64(w.key("weight_density"), s.weight_density);
        enc_f64(w.key("avg_degree"), s.avg_degree);
    });
}

fn dec_stats(r: &mut JsonReader<'_>) -> D<GraphStats> {
    r.object(|o| {
        Ok(GraphStats {
            num_variables: dec_usize(o.field("num_variables")?)?,
            num_query_variables: dec_usize(o.field("num_query_variables")?)?,
            num_evidence_variables: dec_usize(o.field("num_evidence_variables")?)?,
            num_factors: dec_usize(o.field("num_factors")?)?,
            num_weights: dec_usize(o.field("num_weights")?)?,
            weight_density: dec_f64(o.field("weight_density")?)?,
            avg_degree: dec_f64(o.field("avg_degree")?)?,
        })
    })
}

fn enc_catalog(w: &mut JsonWriter<'_>, c: &CatalogShards) {
    w.array(c.shards(), |w, shard| {
        w.object(|w| {
            w.field("relation", shard.relation());
            w.key("generation").u64_string(shard.generation());
            w.key("entries")
                .array(shard.index().entries(), |w, (tuple, var)| {
                    w.tuple(|w| {
                        enc_tuple(w, tuple);
                        enc_usize(w, *var);
                    })
                });
        })
    });
}

fn dec_catalog(r: &mut JsonReader<'_>) -> D<CatalogShards> {
    let shard = |r: &mut JsonReader<'_>| {
        r.object(|o| {
            let relation = String::decode(o.field("relation")?)?;
            let generation = dec_u64(o.field("generation")?)?;
            let entries = o.field("entries")?.seq(|r| {
                r.pair(
                    "catalog entry is not a [tuple, var] pair",
                    dec_tuple,
                    dec_usize,
                )
            })?;
            Ok(CatalogShard::from_parts(relation, generation, entries))
        })
    };
    r.seq(shard).map(CatalogShards::from_shards)
}

impl Encode for Snapshot {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("epoch").u64_string(self.epoch());
            enc_f64s(w.key("marginals"), self.marginals().values());
            enc_f64s(w.key("weights"), self.weights());
            enc_catalog(w.key("catalog"), self.catalog());
            enc_stats(w.key("stats"), self.stats());
            enc_f64(w.key("fact_threshold"), self.fact_threshold());
        });
    }
}

impl Decode for Snapshot {
    fn decode(r: &mut JsonReader<'_>) -> D<Self> {
        r.object(|o| {
            Ok(Snapshot::publish(
                dec_u64(o.field("epoch")?)?,
                Marginals::from_values(dec_f64s(o.field("marginals")?)?),
                dec_f64s(o.field("weights")?)?,
                dec_catalog(o.field("catalog")?)?,
                dec_stats(o.field("stats")?)?,
                dec_f64(o.field("fact_threshold")?)?,
            ))
        })
    }
}

/// Encode a [`Snapshot`] to its canonical checkpoint-codec bytes.
///
/// The encoding is deterministic: two snapshots with equal state produce
/// byte-identical output, which is what the recovery-idempotency tests
/// compare.  Pairs with [`decode_snapshot`].
pub fn encode_snapshot(s: &Snapshot) -> Vec<u8> {
    s.to_bytes()
}

/// Decode bytes produced by [`encode_snapshot`].
///
/// Malformed input yields a typed [`StorageError::Codec`]; this never panics.
pub fn decode_snapshot(bytes: &[u8]) -> R<Snapshot> {
    Snapshot::from_bytes(bytes).map_err(|e| bad("decoding snapshot", e))
}

// ---------------------------------------------------------------------------
// WAL op + checkpoint payloads.
// ---------------------------------------------------------------------------

impl Encode for WalOp<'_> {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| match self {
            WalOp::InitialRun => w.field("op", "initial_run"),
            WalOp::Refresh => w.field("op", "refresh"),
            WalOp::Materialize => w.field("op", "materialize"),
            WalOp::Update { mode, update } => {
                let mut deltas: Vec<(&String, &DeltaRelation)> =
                    update.base_deltas.iter().collect();
                deltas.sort_by(|a, b| a.0.cmp(b.0));
                w.field("op", "update");
                w.field(
                    "mode",
                    match mode {
                        ExecutionMode::Rerun => "rerun",
                        ExecutionMode::Incremental => "incremental",
                    },
                );
                w.key("base_deltas")
                    .array(deltas, |w, (_, d)| enc_delta_relation(w, d));
                w.key("retracted_supervision")
                    .array(&update.retracted_supervision, |w, (rel, tuple)| {
                        enc_head(w, rel, tuple)
                    });
                w.key("new_rules").array(&update.new_rules, enc_rule);
            }
            WalOp::RetractSupervision { relation, tuple } => {
                w.field("op", "retract_supervision");
                w.field("relation", &**relation);
                enc_tuple(w.key("tuple"), tuple);
            }
        });
    }
}

impl Decode for WalOp<'static> {
    fn decode(r: &mut JsonReader<'_>) -> D<Self> {
        r.object(|o| match &*o.field("op")?.string()? {
            "initial_run" => Ok(WalOp::InitialRun),
            "refresh" => Ok(WalOp::Refresh),
            "materialize" => Ok(WalOp::Materialize),
            "update" => {
                let mode = dec_name(o.field("mode")?, "execution mode", |name| match name {
                    "rerun" => Some(ExecutionMode::Rerun),
                    "incremental" => Some(ExecutionMode::Incremental),
                    _ => None,
                })?;
                let mut update = KbcUpdate::new();
                for delta in o.field("base_deltas")?.seq(dec_delta_relation)? {
                    update
                        .base_deltas
                        .insert(delta.relation().to_string(), delta);
                }
                update.retracted_supervision = o.field("retracted_supervision")?.seq(|r| {
                    dec_head(r, "retracted supervision is not a [relation, tuple] pair")
                })?;
                update.new_rules = o.field("new_rules")?.seq(dec_rule)?;
                Ok(WalOp::Update {
                    mode,
                    update: Cow::Owned(update),
                })
            }
            "retract_supervision" => Ok(WalOp::RetractSupervision {
                relation: Cow::Owned(String::decode(o.field("relation")?)?),
                tuple: dec_tuple(o.field("tuple")?)?,
            }),
            other => Err(o.error(format_args!("unknown WAL op `{other}`"))),
        })
    }
}

pub(crate) fn encode_wal_op(op: &WalOp<'_>) -> Vec<u8> {
    op.to_bytes()
}

pub(crate) fn decode_wal_op(bytes: &[u8]) -> R<WalOp<'static>> {
    WalOp::from_bytes(bytes).map_err(|e| bad("decoding WAL operation", e))
}

impl Encode for CheckpointView<'_> {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("format").u64_string(CHECKPOINT_FORMAT_VERSION);
            enc_grounder_state(w.key("grounder"), &self.grounder);
            match self.materialization {
                None => w.key("materialization").null(),
                Some(m) => enc_materialization(w.key("materialization"), m),
            }
            match self.materialized_epoch {
                None => w.key("materialized_epoch").null(),
                Some(e) => w.key("materialized_epoch").u64_string(e),
            }
            let change = w.key("cumulative_change");
            match self.cumulative_change {
                None => enc_distribution_change(change, &DistributionChange::default()),
                Some(c) => enc_distribution_change(change, c),
            }
            // The model is the graph's weights, which the grounder state
            // carries; this copy of their values keeps the format.
            let weights = self.grounder.graph.weights();
            w.key("learned_weights")
                .array(weights, |w, weight| enc_f64(w, weight.value));
            w.key("epoch").u64_string(self.epoch);
            w.field("snapshot", self.snapshot);
        });
    }
}

impl Decode for CheckpointState {
    fn decode(r: &mut JsonReader<'_>) -> D<Self> {
        r.object(|o| {
            let format = dec_u64(o.field("format")?)?;
            if !(OLDEST_READABLE_FORMAT..=CHECKPOINT_FORMAT_VERSION).contains(&format) {
                return Err(format!(
                    "unsupported checkpoint format {format} (this build reads {OLDEST_READABLE_FORMAT} to {CHECKPOINT_FORMAT_VERSION})"
                ));
            }
            let grounder = dec_grounder_state(o.field("grounder")?)?;
            let materialization = o.field("materialization")?.null_or(dec_materialization)?;
            let materialized_epoch = o.field("materialized_epoch")?.null_or(dec_u64)?;
            let cumulative_change = dec_distribution_change(o.field("cumulative_change")?)?;
            // A copy of the grounder's weight values.
            o.field("learned_weights")?.skip_value()?;
            Ok(CheckpointState {
                grounder,
                materialization,
                materialized_epoch,
                cumulative_change,
                epoch: dec_u64(o.field("epoch")?)?,
                snapshot: Snapshot::decode(o.field("snapshot")?)?,
            })
        })
    }
}

pub(crate) fn decode_checkpoint(bytes: &[u8]) -> R<CheckpointState> {
    CheckpointState::from_bytes(bytes).map_err(|e| bad("decoding checkpoint", e))
}

#[cfg(test)]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::tuple;
    use dd_wire::json::{parse, Json};

    /// What `enc` writes, as a tree.
    fn tree(enc: impl FnOnce(&mut JsonWriter<'_>)) -> Json {
        let mut out = Vec::new();
        enc(&mut JsonWriter::new(&mut out));
        parse(std::str::from_utf8(&out).unwrap()).unwrap()
    }

    /// What `dec` reads from the text of `j`.
    fn read<T>(j: &Json, dec: impl FnOnce(&mut JsonReader<'_>) -> D<T>) -> R<T> {
        let text = j.encode();
        let mut r = JsonReader::new(text.as_bytes());
        dec(&mut r).map_err(|e| bad("test", e))
    }

    // The sample-set tests below predate the streaming codec and are kept as
    // they were written, against these tree-shaped stand-ins.
    fn enc_sample_set(s: &SampleSet) -> Json {
        tree(|w| super::enc_sample_set(w, s))
    }

    fn dec_sample_set(j: &Json, _ctx: &str) -> R<SampleSet> {
        read(j, super::dec_sample_set)
    }

    fn hex_of(j: &Json, ctx: &str) -> R<Vec<u8>> {
        let hex = j.as_str().ok_or_else(|| bad(ctx, "expected a string"))?;
        Ok(hex_bytes(hex).map_err(|e| bad(ctx, e))?.collect())
    }

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
            let decoded = read(&tree(|w| enc_value(w, v)), dec_value).unwrap();
            // Value equality is bit-level for floats, so NaN == NaN here.
            assert_eq!(&decoded, v, "value {v:?} did not round-trip");
        }
        // -0.0 keeps its sign bit (tuple ordering and equality depend on it).
        let neg_zero = read(&tree(|w| enc_value(w, &Value::Float(-0.0))), dec_value).unwrap();
        match neg_zero {
            Value::Float(f) => assert_eq!(f.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn big_integers_survive_the_f64_bottleneck() {
        // 2^60 + 1 is not representable as f64; the string encoding keeps it.
        let big = (1u64 << 60) + 1;
        assert_eq!(read(&tree(|w| w.u64_string(big)), dec_u64).unwrap(), big);
        let big_i = -(1i64 << 60) - 1;
        assert_eq!(
            read(&tree(|w| w.i64_string(big_i)), dec_i64).unwrap(),
            big_i
        );
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
        let decoded = read(&tree(|w| enc_table(w, &t)), dec_table).unwrap();
        assert_eq!(decoded.count(&tuple![1i64, "x"]), 3);
        assert_eq!(decoded.count(&tuple![2i64, "y"]), -2);
        assert_eq!(tree(|w| enc_table(w, &decoded)), tree(|w| enc_table(w, &t)));
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
            let decoded = read(&tree(|w| enc_rule(w, &rule)), dec_rule).unwrap();
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

        let decoded = read(&tree(|w| enc_graph(w, &g)), dec_graph).unwrap();
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
        assert_eq!(tree(|w| enc_graph(w, &decoded)), tree(|w| enc_graph(w, &g)));
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
                update: Cow::Borrowed(&update),
            },
            WalOp::Update {
                mode: ExecutionMode::Rerun,
                update: Cow::Borrowed(&update),
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
        shards.apply_delta(
            "HasSpouse",
            vec![(tuple![1i64, 2i64], Some(0)), (tuple![3i64, 4i64], Some(1))],
            7,
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

    fn temp_data_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "deepdive-durability-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `(wal, checkpoint store)` fsync counts of a durable engine.
    fn fsyncs(engine: &mut crate::DeepDive) -> (u64, u64) {
        let handle = engine.durability_handle().expect("durable");
        (handle.wal.fsyncs(), handle.checkpoints.fsyncs())
    }

    #[test]
    fn a_pristine_directory_syncs_in_a_pinned_sequence() {
        use dd_storage::{DurabilityConfig, FsyncPolicy};
        // The stores as the builder opens them, step by step.
        let dir = temp_data_dir("fsyncs");
        let checkpoints = CheckpointStore::open(dir.join("checkpoints")).unwrap();
        // The parents of the data directory and of `checkpoints/`.
        assert_eq!(checkpoints.fsyncs(), 2);
        let (wal, _) = Wal::open(dir.join("wal"), FsyncPolicy::Always).unwrap();
        // The parent of `wal/`, then the first segment and its directory.
        assert_eq!(wal.fsyncs(), 3);
        let mut handle = DurabilityHandle {
            wal,
            checkpoints,
            keep_checkpoints: 2,
            checkpoint_every_records: None,
            checkpoint_every_bytes: None,
            records_since_checkpoint: 0,
            bytes_since_checkpoint: 0,
        };
        // The baseline checkpoint: the WAL, the temp file, the checkpoint
        // directory — and no rotation of the segment that holds no record.
        assert_eq!(handle.checkpoint(&String::from("baseline")).unwrap(), 0);
        assert_eq!((handle.wal.fsyncs(), handle.checkpoints.fsyncs()), (4, 4));
        assert_eq!(handle.wal.segment_paths().unwrap().len(), 1);
        handle.append(&WalOp::Refresh).unwrap();
        assert_eq!((handle.wal.fsyncs(), handle.checkpoints.fsyncs()), (5, 4));
        drop(handle);
        let _ = std::fs::remove_dir_all(&dir);

        // The builder takes the same steps.
        let dir = temp_data_dir("fsyncs-engine");
        let mut engine = crate::DeepDive::builder()
            .program_text(golden::CLAIMS_PROGRAM)
            .database(golden::claims_database(0..2))
            .config(golden::config())
            .durability(DurabilityConfig::new(&dir).fsync(FsyncPolicy::Always))
            .build()
            .unwrap();
        assert_eq!(fsyncs(&mut engine), (4, 4));
        engine.refresh().unwrap();
        assert_eq!(fsyncs(&mut engine), (5, 4));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_cut_anywhere_leaves_debris_and_recovery_replays_the_tail() {
        use dd_storage::DurabilityConfig;
        use dd_wire::json::CHUNK_BYTES;
        use dd_wire::record::RECORD_HEADER_BYTES;
        let dir = temp_data_dir("cut");
        let open = || {
            crate::DeepDive::builder()
                .program_text(golden::CLAIMS_PROGRAM)
                .database(golden::claims_database(0..40))
                .config(golden::config())
                .durability(DurabilityConfig::new(&dir))
                .build()
                .unwrap()
        };
        let state_bytes = |engine: &crate::DeepDive| {
            let snapshot = engine.snapshot();
            engine.checkpoint_view(&snapshot).to_bytes()
        };
        let files = || {
            let mut names: Vec<String> = std::fs::read_dir(dir.join("checkpoints"))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let mut engine = open();
        engine.initial_run().unwrap();
        engine.materialize().unwrap();
        engine.checkpoint().unwrap();
        let good = files();
        // The WAL tail the recovery has to replay.
        for update in [
            golden::docs_update(40..44, true),
            golden::docs_update(3..5, false),
        ] {
            engine
                .run_update(&update, ExecutionMode::Incremental)
                .unwrap();
        }
        let reference = state_bytes(&engine);
        let (header, len) = (RECORD_HEADER_BYTES as u64, reference.len() as u64);
        assert!(len > 3 * CHUNK_BYTES as u64, "{len} bytes: too few chunks");
        // Inside the placeholder header, at every chunk boundary and a byte
        // either side, and inside the header written back at the end.
        let mut cuts = vec![0, header - 1];
        for k in 0..=len / CHUNK_BYTES as u64 {
            let boundary = header + k * CHUNK_BYTES as u64;
            cuts.extend([boundary - 1, boundary, boundary + 1]);
        }
        cuts.extend([
            header + len - 1,
            header + len,
            header + len + 8,
            2 * header + len - 1,
        ]);
        for cut in cuts {
            let handle = engine.durability_handle().unwrap();
            handle.checkpoints.fail_next_write_after(cut);
            assert!(engine.checkpoint().is_err(), "cut at {cut}");
            let (tmp, kept): (Vec<String>, Vec<String>) =
                files().into_iter().partition(|f| f.ends_with(".tmp"));
            assert_eq!((tmp.len(), &kept), (1, &good), "cut at {cut}");
            drop(engine);
            engine = open();
            assert_eq!(files(), good, "cut at {cut}: debris swept");
            assert!(
                state_bytes(&engine) == reference,
                "cut at {cut}: recovered state differs"
            );
        }
        // Unbroken, the checkpoint lands and recovery starts from it.
        let covered = engine.checkpoint().unwrap();
        drop(engine);
        let engine = open();
        assert_eq!(files().last(), Some(&format!("ckpt-{covered:020}.ckpt")));
        assert!(state_bytes(&engine) == reference);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rejects_unknown_format_versions() {
        for format in [OLDEST_READABLE_FORMAT - 1, CHECKPOINT_FORMAT_VERSION + 1] {
            let doc = format!("{{\"format\":\"{format}\"}}");
            let err = match decode_checkpoint(doc.as_bytes()) {
                Err(e) => e,
                Ok(_) => panic!("format-{format} checkpoint was accepted"),
            };
            assert!(err.to_string().contains("unsupported checkpoint format"));
        }
    }
}
