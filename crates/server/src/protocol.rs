//! The request/response protocol spoken over [`dd_wire::frame`] frames.
//!
//! One frame carries one JSON document.  A client sends a **batch** — an
//! object `{"ops": [...]}` with up to [`MAX_OPS_PER_BATCH`] operations — and
//! receives exactly one response frame for it.  Batching is the unit of
//! consistency: the server pins **one** snapshot per batch, so every
//! operation in a batch answers from the same epoch (the analytical-reads
//! isolation the snapshot layer provides in-process, carried over the wire).
//!
//! A success response is `{"ok": true, "epoch": E, "results": [...]}` with
//! one result per operation, in order.  A failure is
//! `{"ok": false, "error": {"kind": "...", "message": "..."}}` — always a
//! frame, never a dropped connection, so clients can distinguish *typed*
//! overload/malformed-input conditions from transport failures.
//!
//! # Routing metadata (sharded deployments)
//!
//! A batch response may carry `"epochs": [e0, null, e2, ...]` — the
//! **cross-shard epoch vector** the `dd-router` scatter-gather front door
//! reports: entry `i` is the epoch shard `i`'s answers came from, `null` for
//! shards the batch never consulted.  The scalar `epoch` field then carries
//! the maximum consulted entry as a coarse cluster version; the vector is
//! authoritative.  Direct servers never send it, and unsharded clients never
//! need it.
//!
//! # Operations
//!
//! | `op`             | arguments                                              | result |
//! |------------------|--------------------------------------------------------|--------|
//! | `epoch`          | —                                                      | `{}` (epoch is in the envelope) |
//! | `relations`      | —                                                      | `{"relations": [..]}` |
//! | `stats`          | —                                                      | `{"num_variables", "num_factors", "num_weights", "num_catalogued"}` |
//! | `probability_of` | `relation`, `tuple`                                    | `{"probability": p \| null}` |
//! | `query`          | `relation`, `min_probability?`, `top_k?`, `offset?`, `limit?` | `{"facts": [{"tuple", "probability"}, ..]}` |
//! | `all_facts`      | `min_probability?`, `offset?`, `limit?`                | `{"cross_relation": true, "facts": [{"relation", "tuple", "probability"}, ..]}` |
//! | `sleep`          | `millis`                                               | `{}` (fault-injection; rejected unless the server enables it) |
//!
//! # Value encoding
//!
//! Tuples are JSON arrays.  `Int` is a plain integral number, `Text` a
//! string, `Bool` a boolean, `Null` is `null`, and `Float` is tagged as
//! `{"float": x}` so `Value::Float(2.0)` and `Value::Int(2)` — distinct
//! tuple keys in the store — stay distinct on the wire.  Integers round-trip
//! exactly up to ±2⁵³ (the JSON number mantissa); KBC ids are far below that.

use dd_relstore::{Tuple, Value};
use dd_wire::json::{self, Decode, Encode, JsonReader, JsonWriter, Kind, ObjectReader};

/// Hard cap on operations per batch; a request above it is a `bad_request`.
pub const MAX_OPS_PER_BATCH: usize = 1024;

/// Pagination and ranking parameters of a [`Op::Query`], mirroring
/// `deepdive::FactQuery`'s builder surface.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FactQuerySpec {
    /// Keep only facts with probability at least this.
    pub min_probability: f64,
    /// Keep only the `k` most probable facts (switches result order to
    /// descending probability).
    pub top_k: Option<usize>,
    /// Skip the first `n` facts of the ordered result.
    pub offset: usize,
    /// Return at most `n` facts after the offset.
    pub limit: Option<usize>,
}

/// One operation inside a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// The current epoch (carried by the response envelope; the result slot
    /// is empty).
    Epoch,
    /// Sorted names of the catalogued variable relations.
    Relations,
    /// Graph-level statistics of the pinned snapshot.
    Stats,
    /// Marginal probability of one tuple of a variable relation.
    ProbabilityOf { relation: String, tuple: Tuple },
    /// A paginated/top-k fact query against one relation — the primary read
    /// primitive of the wire protocol.
    Query {
        relation: String,
        spec: FactQuerySpec,
    },
    /// Paginated facts across every relation, in (relation, tuple) order.
    AllFacts {
        min_probability: f64,
        offset: usize,
        limit: usize,
    },
    /// Fault-injection: hold an execution slot for `millis` before answering.  The
    /// server rejects it unless explicitly enabled (tests use it to make
    /// backpressure deterministic).
    Sleep { millis: u64 },
}

impl Op {
    /// Convenience constructor for [`Op::ProbabilityOf`].
    pub fn probability_of(relation: impl Into<String>, tuple: Tuple) -> Self {
        Op::ProbabilityOf {
            relation: relation.into(),
            tuple,
        }
    }

    /// Convenience constructor for [`Op::Query`].
    pub fn query(relation: impl Into<String>, spec: FactQuerySpec) -> Self {
        Op::Query {
            relation: relation.into(),
            spec,
        }
    }
}

/// A decoded request: the operations of one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub ops: Vec<Op>,
}

impl Request {
    /// A request of these operations.
    pub fn new(ops: Vec<Op>) -> Self {
        Request { ops }
    }
}

/// Why a request payload could not be decoded, already classified into the
/// wire taxonomy: byte/JSON-level breakage is [`ErrorKind::MalformedFrame`],
/// well-formed JSON that is not a valid request is [`ErrorKind::BadRequest`].
/// The server copies both fields into its error response verbatim, so the
/// wire-visible kind never depends on message wording.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    pub kind: ErrorKind,
    pub message: String,
}

/// One operation's result, in batch order.
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    /// [`Op::Epoch`] and [`Op::Sleep`] carry no payload.
    Empty,
    Relations(Vec<String>),
    Stats {
        num_variables: usize,
        num_factors: usize,
        num_weights: usize,
        num_catalogued: usize,
    },
    Probability(Option<f64>),
    Facts(Vec<(Tuple, f64)>),
    AllFacts(Vec<(String, Tuple, f64)>),
}

/// A successful batch response: one epoch, one result per operation, and —
/// when a router answered — the cross-shard epoch vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    pub epoch: u64,
    pub results: Vec<OpResult>,
    /// Per-shard epochs this batch was served from (`None` entries are
    /// shards the batch never consulted).  `None` as a whole on direct,
    /// unsharded responses.
    pub epochs: Option<Vec<Option<u64>>>,
}

/// The typed failure taxonomy of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame's payload was not a well-formed protocol document.
    MalformedFrame,
    /// Well-formed JSON, but not a valid request (unknown op, bad argument
    /// types, too many ops, disabled fault-injection op, ...).
    BadRequest,
    /// Too many requests were already waiting for an execution slot (or the
    /// connection cap was reached) — explicit backpressure.  Retry after a
    /// drain; the server never queues unboundedly.
    Overloaded,
    /// The frame declared a payload above the server's cap.
    Oversized,
    /// The server is shutting down and will not serve this request.
    ShuttingDown,
    /// A shard this batch needs is down or unreachable (router-originated;
    /// the batch degraded with a typed error instead of hanging).
    ShardUnavailable,
    /// A server-side invariant failure (should not happen).
    Internal,
}

impl ErrorKind {
    /// The wire-level name of this kind.
    pub fn wire_name(self) -> &'static str {
        match self {
            ErrorKind::MalformedFrame => "malformed_frame",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Oversized => "oversized",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::ShardUnavailable => "shard_unavailable",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parse a wire-level name.
    pub fn from_wire_name(name: &str) -> Option<Self> {
        Some(match name {
            "malformed_frame" => ErrorKind::MalformedFrame,
            "bad_request" => ErrorKind::BadRequest,
            "overloaded" => ErrorKind::Overloaded,
            "oversized" => ErrorKind::Oversized,
            "shutting_down" => ErrorKind::ShuttingDown,
            "shard_unavailable" => ErrorKind::ShardUnavailable,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// One response frame: a batch or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Batch(Batch),
    Error { kind: ErrorKind, message: String },
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Self {
        Response::Error {
            kind,
            message: message.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// Value / tuple codec
// ---------------------------------------------------------------------------

/// The largest magnitude at which every integer is an exact `f64` (2⁵³).
const MAX_EXACT_INT: f64 = 9.007_199_254_740_992e15;

/// Encode one store value (see the module docs for the mapping).
pub fn encode_value(w: &mut JsonWriter<'_>, value: &Value) {
    match value {
        Value::Int(i) => w.number(*i as f64),
        Value::Text(s) => w.string(s),
        Value::Bool(b) => w.bool(*b),
        Value::Float(f) => w.object(|w| w.field("float", f)),
        Value::Null => w.null(),
    }
}

/// Decode one store value.
pub fn decode_value(r: &mut JsonReader<'_>) -> Result<Value, String> {
    match r.peek()? {
        Kind::Null => r.null().map(|()| Value::Null),
        Kind::Bool => r.bool().map(Value::Bool),
        Kind::String => r.string().map(Value::text),
        Kind::Number => r.number().map(|n| {
            if n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT {
                Value::Int(n as i64)
            } else {
                Value::Float(n)
            }
        }),
        Kind::Object => {
            let shape = "object values must be {\"float\": x}";
            r.begin_object()?;
            if r.next_key()?.as_deref() != Some("float") || r.peek()? != Kind::Number {
                return Err(r.error(shape));
            }
            let float = r.number()?;
            match r.next_key()? {
                None => Ok(Value::Float(float)),
                Some(_) => Err(r.error(shape)),
            }
        }
        Kind::Array => Err(r.error("arrays are tuples, not values")),
    }
}

/// Encode a tuple as a JSON array of values.
pub fn encode_tuple(w: &mut JsonWriter<'_>, tuple: &Tuple) {
    w.array(tuple.values(), encode_value);
}

/// Decode a tuple from a JSON array of values.
pub fn decode_tuple(r: &mut JsonReader<'_>) -> Result<Tuple, String> {
    if r.peek()? != Kind::Array {
        return Err(r.error("tuple must be an array"));
    }
    r.seq(decode_value).map(Tuple::new)
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

fn string_field(o: &mut ObjectReader<'_, '_>, key: &str) -> Result<String, String> {
    match o.opt_field_of(key, Kind::String)? {
        Some(r) => Ok(r.string()?.into_owned()),
        None => Err(o.error(format_args!("missing or non-string \"{key}\""))),
    }
}

/// An optional number member that `accept` approves (`None` when absent or
/// `null`); `wanted` words the refusal of any other value.
fn number_field(
    o: &mut ObjectReader<'_, '_>,
    key: &str,
    wanted: &str,
    accept: impl Fn(f64) -> bool,
) -> Result<Option<f64>, String> {
    let Some(r) = o.opt_field(key)? else {
        return Ok(None);
    };
    match r.peek()? {
        Kind::Null => r.null().map(|()| None),
        Kind::Number => match r.number()? {
            n if accept(n) => Ok(Some(n)),
            _ => Err(r.error(format_args!("\"{key}\" must be {wanted}"))),
        },
        _ => Err(r.error(format_args!("\"{key}\" must be {wanted}"))),
    }
}

/// An optional non-negative integral field.
fn optional_usize_field(o: &mut ObjectReader<'_, '_>, key: &str) -> Result<Option<usize>, String> {
    let small = |n: f64| n.fract() == 0.0 && n >= 0.0 && n <= u32::MAX as f64;
    let n = number_field(o, key, "a small non-negative integer", small)?;
    Ok(n.map(|n| n as usize))
}

/// An optional non-negative integral field (`default` when absent).
fn usize_field(o: &mut ObjectReader<'_, '_>, key: &str, default: usize) -> Result<usize, String> {
    Ok(optional_usize_field(o, key)?.unwrap_or(default))
}

fn f64_field(o: &mut ObjectReader<'_, '_>, key: &str, default: f64) -> Result<f64, String> {
    let n = number_field(o, key, "a finite number", f64::is_finite)?;
    Ok(n.unwrap_or(default))
}

impl Encode for Op {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| match self {
            Op::Epoch => w.field("op", "epoch"),
            Op::Relations => w.field("op", "relations"),
            Op::Stats => w.field("op", "stats"),
            Op::ProbabilityOf { relation, tuple } => {
                w.field("op", "probability_of");
                w.field("relation", relation);
                encode_tuple(w.key("tuple"), tuple);
            }
            Op::Query { relation, spec } => {
                w.field("op", "query");
                w.field("relation", relation);
                w.field("min_probability", &spec.min_probability);
                if let Some(k) = spec.top_k {
                    w.key("top_k").number(k as f64);
                }
                w.key("offset").number(spec.offset as f64);
                if let Some(l) = spec.limit {
                    w.key("limit").number(l as f64);
                }
            }
            Op::AllFacts {
                min_probability,
                offset,
                limit,
            } => {
                w.field("op", "all_facts");
                w.field("min_probability", min_probability);
                w.key("offset").number(*offset as f64);
                w.key("limit").number(*limit as f64);
            }
            Op::Sleep { millis } => {
                w.field("op", "sleep");
                w.key("millis").number(*millis as f64);
            }
        });
    }
}

impl Decode for Op {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, String> {
        r.object(|o| {
            let name = match o.opt_field_of("op", Kind::String)? {
                Some(r) => r.string()?,
                None => return Err(o.error("operation is missing a string \"op\" field")),
            };
            match &*name {
                "epoch" => Ok(Op::Epoch),
                "relations" => Ok(Op::Relations),
                "stats" => Ok(Op::Stats),
                "probability_of" => Ok(Op::ProbabilityOf {
                    relation: string_field(o, "relation")?,
                    tuple: match o.opt_field("tuple")? {
                        Some(r) => decode_tuple(r)?,
                        None => return Err(o.error("missing \"tuple\"")),
                    },
                }),
                "query" => Ok(Op::Query {
                    relation: string_field(o, "relation")?,
                    spec: FactQuerySpec {
                        min_probability: f64_field(o, "min_probability", 0.0)?,
                        top_k: optional_usize_field(o, "top_k")?,
                        offset: usize_field(o, "offset", 0)?,
                        limit: optional_usize_field(o, "limit")?,
                    },
                }),
                "all_facts" => Ok(Op::AllFacts {
                    min_probability: f64_field(o, "min_probability", 0.0)?,
                    offset: usize_field(o, "offset", 0)?,
                    limit: usize_field(o, "limit", u32::MAX as usize)?,
                }),
                "sleep" => Ok(Op::Sleep {
                    millis: usize_field(o, "millis", 0)? as u64,
                }),
                other => Err(o.error(format_args!("unknown op \"{other}\""))),
            }
        })
    }
}

impl Encode for Request {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| w.field("ops", &self.ops));
    }
}

impl Decode for Request {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, String> {
        let no_ops = "request must be an object with an \"ops\" array";
        if r.peek()? != Kind::Object {
            return Err(r.error(no_ops));
        }
        r.object(|o| {
            let Some(r) = o.opt_field_of("ops", Kind::Array)? else {
                return Err(o.error(no_ops));
            };
            let mut ops = Vec::new();
            r.for_each(|r| {
                if ops.len() == MAX_OPS_PER_BATCH {
                    return Err(
                        r.error(format_args!("batch exceeds the {MAX_OPS_PER_BATCH}-op cap"))
                    );
                }
                ops.push(Op::decode(r)?);
                Ok(())
            })?;
            Ok(Request { ops })
        })
    }
}

impl Request {
    /// Encode to the frame payload.
    pub fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }

    /// Decode a frame payload, classifying failures into the wire taxonomy
    /// (see [`DecodeError`]).
    pub fn decode(payload: &[u8]) -> Result<Request, DecodeError> {
        // A payload that is not one JSON document is a malformed frame
        // wherever in it the first problem of any kind sits, so that is
        // settled before the request is read; whatever fails afterwards is a
        // well-formed document that is not a request.
        json::validate(payload).map_err(|message| DecodeError {
            kind: ErrorKind::MalformedFrame,
            message,
        })?;
        Request::from_bytes(payload).map_err(|message| DecodeError {
            kind: ErrorKind::BadRequest,
            message,
        })
    }
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

fn encode_fact(w: &mut JsonWriter<'_>, relation: Option<&str>, tuple: &Tuple, probability: f64) {
    w.object(|w| {
        if let Some(relation) = relation {
            w.field("relation", relation);
        }
        encode_tuple(w.key("tuple"), tuple);
        w.field("probability", &probability);
    });
}

/// The `tuple` and `probability` members every fact carries.
fn decode_fact(o: &mut ObjectReader<'_, '_>) -> Result<(Tuple, f64), String> {
    let tuple = match o.opt_field("tuple")? {
        Some(r) => decode_tuple(r)?,
        None => return Err(o.error("fact missing \"tuple\"")),
    };
    match o.opt_field_of("probability", Kind::Number)? {
        Some(r) => Ok((tuple, r.number()?)),
        None => Err(o.error("fact missing numeric \"probability\"")),
    }
}

impl Encode for OpResult {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| match self {
            OpResult::Empty => {}
            OpResult::Relations(names) => w.field("relations", names),
            OpResult::Stats {
                num_variables,
                num_factors,
                num_weights,
                num_catalogued,
            } => {
                w.key("num_variables").number(*num_variables as f64);
                w.key("num_factors").number(*num_factors as f64);
                w.key("num_weights").number(*num_weights as f64);
                w.key("num_catalogued").number(*num_catalogued as f64);
            }
            OpResult::Probability(p) => w.field("probability", p),
            OpResult::Facts(facts) => {
                w.key("facts")
                    .array(facts, |w, (tuple, p)| encode_fact(w, None, tuple, *p));
            }
            // The `cross_relation` marker keeps the variant decodable even
            // when the fact list is empty (per-fact `relation` keys can't
            // tell then).
            OpResult::AllFacts(facts) => {
                w.field("cross_relation", &true);
                w.key("facts").array(facts, |w, (relation, tuple, p)| {
                    encode_fact(w, Some(relation), tuple, *p)
                });
            }
        });
    }
}

/// The shape keys the variant: results are self-describing, so a client does
/// not need the request to interpret them (though slots do arrive in request
/// order).  A fact list is looked for first — it is the one shape whose size
/// is unbounded, and asking for other members first would scan past it.
impl Decode for OpResult {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, String> {
        r.object(|o| {
            if o.is_empty()? {
                return Ok(OpResult::Empty);
            }
            let cross_relation = match o.opt_field_of("cross_relation", Kind::Bool)? {
                Some(r) => r.bool()?,
                None => false,
            };
            if let Some(r) = o.opt_field("facts")? {
                if r.peek()? != Kind::Array {
                    return Err(r.error("\"facts\" must be an array"));
                }
                return if cross_relation {
                    let fact = |r: &mut JsonReader<'_>| {
                        r.object(|o| {
                            let relation = match o.opt_field_of("relation", Kind::String)? {
                                Some(r) => r.string()?.into_owned(),
                                None => {
                                    return Err(o.error("cross-relation fact missing \"relation\""))
                                }
                            };
                            let (tuple, p) = decode_fact(o)?;
                            Ok((relation, tuple, p))
                        })
                    };
                    r.seq(fact).map(OpResult::AllFacts)
                } else {
                    r.seq(|r| r.object(decode_fact)).map(OpResult::Facts)
                };
            }
            if let Some(r) = o.opt_field("relations")? {
                if r.peek()? != Kind::Array {
                    return Err(r.error("\"relations\" must be an array"));
                }
                let name = |r: &mut JsonReader<'_>| match r.peek()? {
                    Kind::String => String::decode(r),
                    _ => Err(r.error("relation names must be strings")),
                };
                return r.seq(name).map(OpResult::Relations);
            }
            if let Some(num_variables) = optional_usize_field(o, "num_variables")? {
                return Ok(OpResult::Stats {
                    num_variables,
                    num_factors: usize_field(o, "num_factors", 0)?,
                    num_weights: usize_field(o, "num_weights", 0)?,
                    num_catalogued: usize_field(o, "num_catalogued", 0)?,
                });
            }
            if let Some(r) = o.opt_field("probability")? {
                return match r.peek()? {
                    Kind::Null | Kind::Number => Option::decode(r).map(OpResult::Probability),
                    _ => Err(r.error("\"probability\" must be a number or null")),
                };
            }
            Err(o.error("unrecognized result shape"))
        })
    }
}

impl Encode for Response {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| match self {
            Response::Batch(batch) => {
                w.field("ok", &true);
                w.key("epoch").number(batch.epoch as f64);
                if let Some(epochs) = &batch.epochs {
                    w.key("epochs").array(epochs, |w, e| match e {
                        None => w.null(),
                        Some(e) => w.number(*e as f64),
                    });
                }
                w.field("results", &batch.results);
            }
            Response::Error { kind, message } => {
                w.field("ok", &false);
                w.key("error").object(|w| {
                    w.field("kind", kind.wire_name());
                    w.field("message", message);
                });
            }
        });
    }
}

impl Decode for Response {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, String> {
        r.object(|o| {
            let ok = match o.opt_field_of("ok", Kind::Bool)? {
                Some(r) => r.bool()?,
                None => return Err(o.error("response must carry a boolean \"ok\"")),
            };
            if !ok {
                let Some(r) = o.opt_field("error")? else {
                    return Err(o.error("missing \"error\" object"));
                };
                let unknown = "missing or unknown error \"kind\"";
                return r.object(|o| {
                    let kind = match o.opt_field_of("kind", Kind::String)? {
                        Some(r) => ErrorKind::from_wire_name(&r.string()?),
                        None => None,
                    };
                    let kind = kind.ok_or_else(|| o.error(unknown))?;
                    let message = match o.opt_field_of("message", Kind::String)? {
                        Some(r) => r.string()?.into_owned(),
                        None => String::new(),
                    };
                    Ok(Response::Error { kind, message })
                });
            }
            let epoch = match o.opt_field_of("epoch", Kind::Number)? {
                Some(r) => Some(r.number()?).filter(|e| e.fract() == 0.0 && *e >= 0.0),
                None => None,
            };
            let epoch = epoch.ok_or_else(|| o.error("missing integral \"epoch\""))? as u64;
            // `results` before `epochs`, though it is written after: a
            // direct server's response has no `epochs`, and looking for it
            // first would scan past every result to learn that.
            let results = match o.opt_field_of("results", Kind::Array)? {
                Some(r) => Vec::decode(r)?,
                None => return Err(o.error("missing \"results\" array")),
            };
            let epochs = match o.opt_field("epochs")? {
                None => None,
                Some(r) => match r.peek()? {
                    Kind::Null => r.null().map(|()| None)?,
                    Kind::Array => Some(r.seq(|r| match r.null_or(|r| r.number())? {
                        None => Ok(None),
                        Some(e) if e.fract() == 0.0 && e >= 0.0 => Ok(Some(e as u64)),
                        Some(_) => Err(r.error("\"epochs\" entries must be integers or null")),
                    })?),
                    _ => return Err(r.error("\"epochs\" must be an array")),
                },
            };
            Ok(Response::Batch(Batch {
                epoch,
                results,
                epochs,
            }))
        })
    }
}

impl Response {
    /// Encode to the frame payload.
    pub fn encode(&self) -> Vec<u8> {
        self.to_bytes()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        Response::from_bytes(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::tuple;

    #[test]
    fn values_round_trip_with_types_intact() {
        let originals = vec![
            Value::Int(42),
            Value::Int(-7),
            Value::text("hello \"world\" 🚀"),
            Value::Bool(true),
            Value::Float(0.25),
            Value::Float(2.0), // must NOT collapse into Int(2)
            Value::Null,
        ];
        for value in &originals {
            let mut text = Vec::new();
            encode_value(&mut JsonWriter::new(&mut text), value);
            let back = decode_value(&mut JsonReader::new(&text)).unwrap();
            assert_eq!(&back, value, "round-trip of {value:?}");
        }
    }

    #[test]
    fn requests_round_trip() {
        let request = Request::new(vec![
            Op::Epoch,
            Op::Relations,
            Op::Stats,
            Op::probability_of("Fact", tuple![1i64, "a"]),
            Op::query(
                "Fact",
                FactQuerySpec {
                    min_probability: 0.5,
                    top_k: Some(10),
                    offset: 2,
                    limit: Some(3),
                },
            ),
            Op::AllFacts {
                min_probability: 0.9,
                offset: 0,
                limit: 100,
            },
            Op::Sleep { millis: 5 },
        ]);
        let decoded = Request::decode(&request.encode()).unwrap();
        assert_eq!(decoded, request);
    }

    #[test]
    fn request_defaults_fill_in_for_sparse_queries() {
        let decoded =
            Request::decode(br#"{"ops": [{"op": "query", "relation": "Fact"}]}"#).unwrap();
        assert_eq!(decoded.ops[0], Op::query("Fact", FactQuerySpec::default()));
        // Members nobody reads are skipped, whatever their value.
        let decoded = Request::decode(br#"{"ops": [], "at_epoch": -3}"#).unwrap();
        assert_eq!(decoded, Request::new(Vec::new()));
    }

    #[test]
    fn malformed_requests_are_rejected_with_typed_kinds() {
        let kind = |payload: &[u8]| Request::decode(payload).unwrap_err().kind;
        // Byte/JSON-level breakage is a malformed frame...
        assert_eq!(kind(b"not json"), ErrorKind::MalformedFrame);
        assert_eq!(kind(&[0xff, 0xfe]), ErrorKind::MalformedFrame); // not UTF-8
                                                                    // ...while well-formed JSON that is not a valid request is a bad
                                                                    // request — even when its content echoes parser wording.
        assert_eq!(kind(b"{}"), ErrorKind::BadRequest); // no ops
        assert_eq!(kind(b"[1]"), ErrorKind::BadRequest); // not an object
        assert_eq!(kind(br#"{"ops": [{"op": "warp"}]}"#), ErrorKind::BadRequest);
        assert_eq!(
            kind(br#"{"ops": [{"op": "invalid JSON"}]}"#),
            ErrorKind::BadRequest
        );
        assert_eq!(
            kind(br#"{"ops": [{"op": "query"}]}"#),
            ErrorKind::BadRequest
        );
        assert_eq!(
            kind(br#"{"ops": [{"op": "query", "relation": "F", "top_k": -1}]}"#),
            ErrorKind::BadRequest
        );
        let too_many = Request::new(vec![Op::Epoch; MAX_OPS_PER_BATCH + 1]);
        let err = Request::decode(&too_many.encode()).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("cap"));
    }

    #[test]
    fn responses_round_trip() {
        let response = Response::Batch(Batch {
            epoch: 7,
            epochs: None,
            results: vec![
                OpResult::Empty,
                OpResult::Relations(vec!["Fact".to_string(), "Other".to_string()]),
                OpResult::Stats {
                    num_variables: 10,
                    num_factors: 20,
                    num_weights: 3,
                    num_catalogued: 10,
                },
                OpResult::Probability(Some(0.75)),
                OpResult::Probability(None),
                OpResult::Facts(vec![(tuple![1i64], 1.0), (tuple![2i64, "b"], 0.5)]),
                OpResult::AllFacts(vec![("Fact".to_string(), tuple![1i64], 1.0)]),
                // Empty lists must keep their variant (the cross_relation
                // marker disambiguates where per-fact keys cannot).
                OpResult::Facts(Vec::new()),
                OpResult::AllFacts(Vec::new()),
            ],
        });
        assert_eq!(Response::decode(&response.encode()).unwrap(), response);

        let error = Response::error(ErrorKind::Overloaded, "queue full (capacity 64)");
        assert_eq!(Response::decode(&error.encode()).unwrap(), error);
    }

    #[test]
    fn epoch_vectors_round_trip_including_unconsulted_shards() {
        let response = Response::Batch(Batch {
            epoch: 9,
            epochs: Some(vec![Some(9), None, Some(4), None]),
            results: vec![OpResult::Empty],
        });
        let decoded = Response::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
        // A vector-free response stays vector-free (direct servers).
        let plain = Response::Batch(Batch {
            epoch: 1,
            epochs: None,
            results: Vec::new(),
        });
        assert_eq!(Response::decode(&plain.encode()).unwrap(), plain);
        assert!(
            Response::decode(br#"{"ok": true, "epoch": 1, "epochs": 5, "results": []}"#).is_err()
        );
    }

    #[test]
    fn every_error_kind_round_trips_its_wire_name() {
        for kind in [
            ErrorKind::MalformedFrame,
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::Oversized,
            ErrorKind::ShuttingDown,
            ErrorKind::ShardUnavailable,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_wire_name(kind.wire_name()), Some(kind));
        }
        assert_eq!(ErrorKind::from_wire_name("nope"), None);
    }

    #[test]
    fn malformed_responses_are_rejected() {
        assert!(Response::decode(b"{}").is_err());
        assert!(Response::decode(br#"{"ok": true}"#).is_err()); // no epoch
        assert!(Response::decode(br#"{"ok": false}"#).is_err()); // no error
        assert!(Response::decode(br#"{"ok": false, "error": {"kind": "weird"}}"#).is_err());
    }
}
