//! The wire protocol's frames against the tree codec they replaced.
//!
//! `mod tree` is the `Json`-tree encoder and decoder `protocol.rs` used
//! before it wrote through `JsonWriter` and read through `JsonReader`, kept
//! as the oracle: every request and response must encode to the same bytes
//! (`wire.bytes_per_op` may not move, and a peer built before the change
//! must read what one built after it writes), and decode to the same value
//! or the same kind of refusal — also when a hand-written frame orders its
//! members differently, repeats one, or carries ones nobody reads.

use dd_relstore::{Tuple, Value};
use dd_server::{
    Batch, DecodeError, ErrorKind, FactQuerySpec, Op, OpResult, Request, Response,
    MAX_OPS_PER_BATCH,
};

mod tree {
    use super::*;
    use dd_wire::json::{self, Json};

    /// Encode one store value (see the module docs for the mapping).
    pub fn value_to_json(value: &Value) -> Json {
        match value {
            Value::Int(i) => Json::Number(*i as f64),
            Value::Text(s) => Json::String(s.to_string()),
            Value::Bool(b) => Json::Bool(*b),
            Value::Float(f) => Json::Object(vec![("float".to_string(), Json::Number(*f))]),
            Value::Null => Json::Null,
        }
    }

    /// Decode one store value.
    pub fn value_from_json(json: &Json) -> Result<Value, String> {
        match json {
            Json::Null => Ok(Value::Null),
            Json::Bool(b) => Ok(Value::Bool(*b)),
            Json::String(s) => Ok(Value::text(s)),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 {
                    Ok(Value::Int(*n as i64))
                } else {
                    Ok(Value::Float(*n))
                }
            }
            Json::Object(fields) => match fields.as_slice() {
                [(key, Json::Number(f))] if key == "float" => Ok(Value::Float(*f)),
                _ => Err("object values must be {\"float\": x}".to_string()),
            },
            Json::Array(_) => Err("arrays are tuples, not values".to_string()),
        }
    }

    /// Encode a tuple as a JSON array of values.
    pub fn tuple_to_json(tuple: &Tuple) -> Json {
        Json::Array(tuple.values().iter().map(value_to_json).collect())
    }

    /// Decode a tuple from a JSON array of values.
    pub fn tuple_from_json(json: &Json) -> Result<Tuple, String> {
        let items = json.as_array().ok_or("tuple must be an array")?;
        let values = items
            .iter()
            .map(value_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Tuple::new(values))
    }

    fn string_field(obj: &Json, key: &str) -> Result<String, String> {
        obj.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string \"{key}\""))
    }

    /// An optional non-negative integral field (`default` when absent).
    fn usize_field(obj: &Json, key: &str, default: usize) -> Result<usize, String> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(default),
            Some(Json::Number(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= u32::MAX as f64 => {
                Ok(*n as usize)
            }
            Some(_) => Err(format!("\"{key}\" must be a small non-negative integer")),
        }
    }

    fn optional_usize_field(obj: &Json, key: &str) -> Result<Option<usize>, String> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(_) => usize_field(obj, key, 0).map(Some),
        }
    }

    fn f64_field(obj: &Json, key: &str, default: f64) -> Result<f64, String> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(default),
            Some(Json::Number(n)) if n.is_finite() => Ok(*n),
            Some(_) => Err(format!("\"{key}\" must be a finite number")),
        }
    }

    fn op_to_json(op: &Op) -> Json {
        let mut fields = Vec::new();
        let name = match op {
            Op::Epoch => "epoch",
            Op::Relations => "relations",
            Op::Stats => "stats",
            Op::ProbabilityOf { relation, tuple } => {
                fields.push(("relation".to_string(), Json::String(relation.clone())));
                fields.push(("tuple".to_string(), tuple_to_json(tuple)));
                "probability_of"
            }
            Op::Query { relation, spec } => {
                fields.push(("relation".to_string(), Json::String(relation.clone())));
                fields.push((
                    "min_probability".to_string(),
                    Json::Number(spec.min_probability),
                ));
                if let Some(k) = spec.top_k {
                    fields.push(("top_k".to_string(), Json::Number(k as f64)));
                }
                fields.push(("offset".to_string(), Json::Number(spec.offset as f64)));
                if let Some(l) = spec.limit {
                    fields.push(("limit".to_string(), Json::Number(l as f64)));
                }
                "query"
            }
            Op::AllFacts {
                min_probability,
                offset,
                limit,
            } => {
                fields.push((
                    "min_probability".to_string(),
                    Json::Number(*min_probability),
                ));
                fields.push(("offset".to_string(), Json::Number(*offset as f64)));
                fields.push(("limit".to_string(), Json::Number(*limit as f64)));
                "all_facts"
            }
            Op::Sleep { millis } => {
                fields.push(("millis".to_string(), Json::Number(*millis as f64)));
                "sleep"
            }
        };
        fields.insert(0, ("op".to_string(), Json::String(name.to_string())));
        Json::Object(fields)
    }

    fn op_from_json(json: &Json) -> Result<Op, String> {
        let name = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or("operation is missing a string \"op\" field")?;
        match name {
            "epoch" => Ok(Op::Epoch),
            "relations" => Ok(Op::Relations),
            "stats" => Ok(Op::Stats),
            "probability_of" => Ok(Op::ProbabilityOf {
                relation: string_field(json, "relation")?,
                tuple: tuple_from_json(json.get("tuple").ok_or("missing \"tuple\"")?)?,
            }),
            "query" => Ok(Op::Query {
                relation: string_field(json, "relation")?,
                spec: FactQuerySpec {
                    min_probability: f64_field(json, "min_probability", 0.0)?,
                    top_k: optional_usize_field(json, "top_k")?,
                    offset: usize_field(json, "offset", 0)?,
                    limit: optional_usize_field(json, "limit")?,
                },
            }),
            "all_facts" => Ok(Op::AllFacts {
                min_probability: f64_field(json, "min_probability", 0.0)?,
                offset: usize_field(json, "offset", 0)?,
                limit: usize_field(json, "limit", u32::MAX as usize)?,
            }),
            "sleep" => Ok(Op::Sleep {
                millis: usize_field(json, "millis", 0)? as u64,
            }),
            other => Err(format!("unknown op \"{other}\"")),
        }
    }

    pub fn encode_request(this: &Request) -> Vec<u8> {
        Json::Object(vec![(
            "ops".to_string(),
            Json::Array(this.ops.iter().map(op_to_json).collect()),
        )])
        .encode()
        .into_bytes()
    }

    pub fn decode_request(payload: &[u8]) -> Result<Request, DecodeError> {
        {
            let malformed = |message: String| DecodeError {
                kind: ErrorKind::MalformedFrame,
                message,
            };
            let bad_request = |message: String| DecodeError {
                kind: ErrorKind::BadRequest,
                message,
            };
            let text = std::str::from_utf8(payload)
                .map_err(|_| malformed("payload is not UTF-8".to_string()))?;
            let doc = json::parse(text).map_err(malformed)?;
            let ops_json = doc.get("ops").and_then(Json::as_array).ok_or_else(|| {
                bad_request("request must be an object with an \"ops\" array".into())
            })?;
            if ops_json.len() > MAX_OPS_PER_BATCH {
                return Err(bad_request(format!(
                    "batch of {} ops exceeds the {MAX_OPS_PER_BATCH}-op cap",
                    ops_json.len()
                )));
            }
            let ops = ops_json
                .iter()
                .map(op_from_json)
                .collect::<Result<Vec<_>, _>>()
                .map_err(bad_request)?;
            Ok(Request { ops })
        }
    }

    fn fact_to_json(relation: Option<&str>, tuple: &Tuple, probability: f64) -> Json {
        let mut fields = Vec::new();
        if let Some(relation) = relation {
            fields.push(("relation".to_string(), Json::String(relation.to_string())));
        }
        fields.push(("tuple".to_string(), tuple_to_json(tuple)));
        fields.push(("probability".to_string(), Json::Number(probability)));
        Json::Object(fields)
    }

    fn result_to_json(result: &OpResult) -> Json {
        match result {
            OpResult::Empty => Json::Object(Vec::new()),
            OpResult::Relations(names) => Json::Object(vec![(
                "relations".to_string(),
                Json::Array(names.iter().map(|n| Json::String(n.clone())).collect()),
            )]),
            OpResult::Stats {
                num_variables,
                num_factors,
                num_weights,
                num_catalogued,
            } => Json::Object(vec![
                (
                    "num_variables".to_string(),
                    Json::Number(*num_variables as f64),
                ),
                ("num_factors".to_string(), Json::Number(*num_factors as f64)),
                ("num_weights".to_string(), Json::Number(*num_weights as f64)),
                (
                    "num_catalogued".to_string(),
                    Json::Number(*num_catalogued as f64),
                ),
            ]),
            OpResult::Probability(p) => Json::Object(vec![(
                "probability".to_string(),
                p.map_or(Json::Null, Json::Number),
            )]),
            OpResult::Facts(facts) => Json::Object(vec![(
                "facts".to_string(),
                Json::Array(
                    facts
                        .iter()
                        .map(|(tuple, p)| fact_to_json(None, tuple, *p))
                        .collect(),
                ),
            )]),
            // The `cross_relation` marker keeps the variant decodable even when
            // the fact list is empty (per-fact `relation` keys can't tell then).
            OpResult::AllFacts(facts) => Json::Object(vec![
                ("cross_relation".to_string(), Json::Bool(true)),
                (
                    "facts".to_string(),
                    Json::Array(
                        facts
                            .iter()
                            .map(|(relation, tuple, p)| fact_to_json(Some(relation), tuple, *p))
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    /// Decode one result slot.  The shape keys the variant: results are
    /// self-describing, so a client does not need the request to interpret them
    /// (though slots do arrive in request order).
    fn result_from_json(json: &Json) -> Result<OpResult, String> {
        let fields = json.as_object().ok_or("result must be an object")?;
        if fields.is_empty() {
            return Ok(OpResult::Empty);
        }
        if let Some(names) = json.get("relations") {
            let names = names.as_array().ok_or("\"relations\" must be an array")?;
            return Ok(OpResult::Relations(
                names
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .map(str::to_string)
                            .ok_or("relation names must be strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ));
        }
        if json.get("num_variables").is_some() {
            return Ok(OpResult::Stats {
                num_variables: usize_field(json, "num_variables", 0)?,
                num_factors: usize_field(json, "num_factors", 0)?,
                num_weights: usize_field(json, "num_weights", 0)?,
                num_catalogued: usize_field(json, "num_catalogued", 0)?,
            });
        }
        if let Some(p) = json.get("probability") {
            return Ok(OpResult::Probability(match p {
                Json::Null => None,
                Json::Number(p) => Some(*p),
                _ => return Err("\"probability\" must be a number or null".to_string()),
            }));
        }
        if let Some(facts) = json.get("facts") {
            let facts = facts.as_array().ok_or("\"facts\" must be an array")?;
            let cross_relation = json.get("cross_relation").and_then(Json::as_bool) == Some(true);
            if cross_relation {
                let mut out = Vec::new();
                for fact in facts {
                    let relation = fact
                        .get("relation")
                        .and_then(Json::as_str)
                        .ok_or("cross-relation fact missing \"relation\"")?;
                    let tuple =
                        tuple_from_json(fact.get("tuple").ok_or("fact missing \"tuple\"")?)?;
                    let p = fact
                        .get("probability")
                        .and_then(Json::as_f64)
                        .ok_or("fact missing numeric \"probability\"")?;
                    out.push((relation.to_string(), tuple, p));
                }
                return Ok(OpResult::AllFacts(out));
            }
            let mut out = Vec::new();
            for fact in facts {
                let tuple = tuple_from_json(fact.get("tuple").ok_or("fact missing \"tuple\"")?)?;
                let p = fact
                    .get("probability")
                    .and_then(Json::as_f64)
                    .ok_or("fact missing numeric \"probability\"")?;
                out.push((tuple, p));
            }
            return Ok(OpResult::Facts(out));
        }
        Err("unrecognized result shape".to_string())
    }

    pub fn encode_response(this: &Response) -> Vec<u8> {
        {
            let doc = match this {
                Response::Batch(batch) => {
                    let mut fields = vec![
                        ("ok".to_string(), Json::Bool(true)),
                        ("epoch".to_string(), Json::Number(batch.epoch as f64)),
                    ];
                    if let Some(epochs) = &batch.epochs {
                        fields.push((
                            "epochs".to_string(),
                            Json::Array(
                                epochs
                                    .iter()
                                    .map(|e| e.map_or(Json::Null, |e| Json::Number(e as f64)))
                                    .collect(),
                            ),
                        ));
                    }
                    fields.push((
                        "results".to_string(),
                        Json::Array(batch.results.iter().map(result_to_json).collect()),
                    ));
                    Json::Object(fields)
                }
                Response::Error { kind, message } => Json::Object(vec![
                    ("ok".to_string(), Json::Bool(false)),
                    (
                        "error".to_string(),
                        Json::Object(vec![
                            (
                                "kind".to_string(),
                                Json::String(kind.wire_name().to_string()),
                            ),
                            ("message".to_string(), Json::String(message.clone())),
                        ]),
                    ),
                ]),
            };
            doc.encode().into_bytes()
        }
    }

    pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
        {
            let text =
                std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
            let doc = json::parse(text)?;
            match doc.get("ok").and_then(Json::as_bool) {
                Some(true) => {
                    let epoch =
                        doc.get("epoch")
                            .and_then(Json::as_f64)
                            .filter(|e| e.fract() == 0.0 && *e >= 0.0)
                            .ok_or("missing integral \"epoch\"")? as u64;
                    let epochs = match doc.get("epochs") {
                        None | Some(Json::Null) => None,
                        Some(Json::Array(entries)) => Some(
                            entries
                                .iter()
                                .map(|e| match e {
                                    Json::Null => Ok(None),
                                    Json::Number(n) if n.fract() == 0.0 && *n >= 0.0 => {
                                        Ok(Some(*n as u64))
                                    }
                                    _ => Err("\"epochs\" entries must be integers or null"),
                                })
                                .collect::<Result<Vec<_>, _>>()?,
                        ),
                        Some(_) => return Err("\"epochs\" must be an array".to_string()),
                    };
                    let results = doc
                        .get("results")
                        .and_then(Json::as_array)
                        .ok_or("missing \"results\" array")?
                        .iter()
                        .map(result_from_json)
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(Response::Batch(Batch {
                        epoch,
                        results,
                        epochs,
                    }))
                }
                Some(false) => {
                    let error = doc.get("error").ok_or("missing \"error\" object")?;
                    let kind = error
                        .get("kind")
                        .and_then(Json::as_str)
                        .and_then(ErrorKind::from_wire_name)
                        .ok_or("missing or unknown error \"kind\"")?;
                    let message = string_field(error, "message").unwrap_or_default();
                    Ok(Response::Error { kind, message })
                }
                None => Err("response must carry a boolean \"ok\"".to_string()),
            }
        }
    }
}

/// SplitMix64 — the same tiny deterministic PRNG the other suites use.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn random_value(rng: &mut SplitMix64) -> Value {
    match rng.below(7) {
        0 => Value::Int(rng.next() as i64 % 1_000_000),
        // Either side of 2^53, where Int stops being exact on the wire.
        1 => Value::Int([9_007_199_254_740_992, -9_007_199_254_740_993, 0][rng.below(3)]),
        2 => Value::text(["", "plain", "q\"uote\\", "é🚀\n", "\u{1}"][rng.below(5)]),
        3 => Value::Bool(rng.below(2) == 0),
        4 => Value::Float([0.25, 2.0, -0.0, 1e300, 1e15, 0.1 + 0.2][rng.below(6)]),
        5 => Value::Float(f64::from_bits(rng.next())),
        _ => Value::Null,
    }
}

fn random_tuple(rng: &mut SplitMix64) -> Tuple {
    Tuple::new((0..rng.below(4)).map(|_| random_value(rng)).collect())
}

fn random_probability(rng: &mut SplitMix64) -> f64 {
    [0.0, 1.0, 0.5, 0.123_456_789_012_345_68, 1e-12][rng.below(5)]
}

fn random_op(rng: &mut SplitMix64) -> Op {
    let optional = |rng: &mut SplitMix64| (rng.below(2) == 0).then(|| rng.below(5_000));
    match rng.below(7) {
        0 => Op::Epoch,
        1 => Op::Relations,
        2 => Op::Stats,
        3 => Op::probability_of("Fact", random_tuple(rng)),
        4 => Op::query(
            ["Fact", "Rel \"x\""][rng.below(2)],
            FactQuerySpec {
                min_probability: random_probability(rng),
                top_k: optional(rng),
                offset: rng.below(100),
                limit: optional(rng),
            },
        ),
        5 => Op::AllFacts {
            min_probability: random_probability(rng),
            offset: rng.below(1_000),
            limit: [100, u32::MAX as usize][rng.below(2)],
        },
        _ => Op::Sleep {
            millis: rng.below(50) as u64,
        },
    }
}

fn random_result(rng: &mut SplitMix64) -> OpResult {
    match rng.below(6) {
        0 => OpResult::Empty,
        1 => OpResult::Relations((0..rng.below(3)).map(|i| format!("R{i}\t")).collect()),
        2 => OpResult::Stats {
            num_variables: rng.below(100_000),
            num_factors: rng.below(100_000),
            num_weights: rng.below(100),
            num_catalogued: rng.below(100_000),
        },
        3 => OpResult::Probability((rng.below(3) != 0).then(|| random_probability(rng))),
        4 => OpResult::Facts(
            (0..rng.below(5))
                .map(|_| (random_tuple(rng), random_probability(rng)))
                .collect(),
        ),
        _ => OpResult::AllFacts(
            (0..rng.below(5))
                .map(|_| {
                    let relation = "Fact".to_string();
                    (relation, random_tuple(rng), random_probability(rng))
                })
                .collect(),
        ),
    }
}

/// Two NaNs are never equal, so decoded frames are compared by what they
/// encode back to.
fn same_request(a: &Request, b: &Request) -> bool {
    tree::encode_request(a) == tree::encode_request(b)
}

fn same_response(a: &Response, b: &Response) -> bool {
    tree::encode_response(a) == tree::encode_response(b)
}

#[test]
fn requests_encode_and_decode_as_the_tree_codec_did() {
    let mut rng = SplitMix64(0x51);
    for case in 0..2_000 {
        let request = Request::new((0..rng.below(6)).map(|_| random_op(&mut rng)).collect());
        let bytes = request.encode();
        assert_eq!(
            String::from_utf8_lossy(&bytes),
            String::from_utf8_lossy(&tree::encode_request(&request)),
            "case {case}"
        );
        let (new, old) = (Request::decode(&bytes), tree::decode_request(&bytes));
        match (&new, &old) {
            (Ok(new), Ok(old)) => assert!(same_request(new, old), "case {case}"),
            _ => panic!("case {case}: {new:?} vs {old:?}"),
        }
    }
}

#[test]
fn responses_encode_and_decode_as_the_tree_codec_did() {
    let mut rng = SplitMix64(0x52);
    for case in 0..2_000 {
        let response = if rng.below(8) == 0 {
            Response::error(
                [
                    ErrorKind::Overloaded,
                    ErrorKind::BadRequest,
                    ErrorKind::Internal,
                ][rng.below(3)],
                ["", "queue full (capacity 64)", "bad \"x\"\n"][rng.below(3)],
            )
        } else {
            Response::Batch(Batch {
                epoch: rng.next() % 100_000,
                results: (0..rng.below(6)).map(|_| random_result(&mut rng)).collect(),
                epochs: (rng.below(2) == 0).then(|| {
                    (0..4)
                        .map(|_| (rng.below(3) != 0).then(|| rng.next() % 1_000))
                        .collect()
                }),
            })
        };
        let bytes = response.encode();
        assert_eq!(
            String::from_utf8_lossy(&bytes),
            String::from_utf8_lossy(&tree::encode_response(&response)),
            "case {case}"
        );
        let (new, old) = (Response::decode(&bytes), tree::decode_response(&bytes));
        match (&new, &old) {
            (Ok(new), Ok(old)) => assert!(same_response(new, old), "case {case}"),
            _ => panic!("case {case}: {new:?} vs {old:?}"),
        }
    }
}

#[test]
fn hand_written_requests_get_the_same_answer() {
    let too_many = format!(
        "{{\"ops\": [{}]}}",
        vec!["{\"op\": \"epoch\"}"; MAX_OPS_PER_BATCH + 1].join(",")
    );
    let frames: Vec<&[u8]> = vec![
        br#"{"ops": []}"#,
        br#" { "at_epoch" : 7 , "ops" : [ { "op" : "epoch" } ] } "#,
        br#"{"ops": [{"relation": "Fact", "limit": 3, "op": "query", "unknown": [1, {"x": null}]}]}"#,
        br#"{"ops": [{"op": "query", "relation": "Fact", "top_k": null, "offset": null}]}"#,
        br#"{"ops": [{"op": "query", "op": "stats", "relation": "A", "relation": "B"}]}"#,
        br#"{"ops": [{"tuple": [1, "a", true, null, {"float": 2}, 2.5], "relation": "F", "op": "probability_of"}]}"#,
        br#"{"ops": [{"op": "probability_of", "relation": "F", "tuple": [9007199254740993]}]}"#,
        br#"{"ops": [{"op": "all_facts"}], "ops": "shadowed", "at_epoch": null}"#,
        br#"{"ops": [{"op": "sleep", "millis": 4294967295}]}"#,
        // An `at_epoch` member is read by nobody, whatever its value.
        br#"{"ops": [], "at_epoch": -3}"#,
        br#"{"ops": [], "at_epoch": "7"}"#,
        // Refused: as bad requests...
        br#"{}"#,
        br#"[1]"#,
        br#"{"ops": 3}"#,
        br#"{"ops": [1]}"#,
        br#"{"ops": [{"op": 7}]}"#,
        br#"{"ops": [{"op": "warp"}]}"#,
        br#"{"ops": [{"op": "query"}]}"#,
        br#"{"ops": [{"op": "query", "relation": 5}]}"#,
        br#"{"ops": [{"op": "query", "relation": "F", "top_k": -1}]}"#,
        br#"{"ops": [{"op": "query", "relation": "F", "top_k": 1.5}]}"#,
        br#"{"ops": [{"op": "query", "relation": "F", "limit": "3"}]}"#,
        br#"{"ops": [{"op": "query", "relation": "F", "min_probability": "high"}]}"#,
        br#"{"ops": [{"op": "sleep", "millis": 4294967296}]}"#,
        br#"{"ops": [{"op": "probability_of", "relation": "F"}]}"#,
        br#"{"ops": [{"op": "probability_of", "relation": "F", "tuple": 3}]}"#,
        br#"{"ops": [{"op": "probability_of", "relation": "F", "tuple": [[1]]}]}"#,
        br#"{"ops": [{"op": "probability_of", "relation": "F", "tuple": [{"float": "x"}]}]}"#,
        br#"{"ops": [{"op": "probability_of", "relation": "F", "tuple": [{"float": 1, "more": 2}]}]}"#,
        too_many.as_bytes(),
        // ...and as malformed frames, wherever the damage is.
        b"",
        b"not json",
        &[0xff, 0xfe],
        br#"{"ops": [1,]}"#,
        br#"{"ops": [{"op": "warp"}], "junk": tru}"#,
        br#"{"ops": 3, "later": "\ud800"}"#,
        br#"{"ops": []} trailing"#,
        b"{\"ops\": [], \"note\": \"\xff\"}",
    ];
    for frame in frames {
        let (new, old) = (Request::decode(frame), tree::decode_request(frame));
        let shown = String::from_utf8_lossy(frame);
        match (&new, &old) {
            (Ok(new), Ok(old)) => assert_eq!(new, old, "{shown}"),
            (Err(new), Err(old)) => assert_eq!(new.kind, old.kind, "{shown}: {new:?} vs {old:?}"),
            _ => panic!("{shown}: {new:?} vs {old:?}"),
        }
    }
}

#[test]
fn hand_written_responses_get_the_same_answer() {
    let frames: Vec<&[u8]> = vec![
        br#"{"results": [], "epoch": 3, "ok": true}"#,
        br#"{"ok": true, "epoch": 3, "epochs": null, "results": [{}]}"#,
        br#"{"ok": true, "epoch": 3, "results": [{"probability": null, "extra": 1}], "epochs": [1, null]}"#,
        br#"{"ok": true, "epoch": 3, "results": [{"facts": [{"probability": 0.5, "tuple": [1]}]}]}"#,
        br#"{"ok": true, "epoch": 3, "results": [{"facts": [{"tuple": [1], "probability": 1, "relation": "ignored"}]}]}"#,
        br#"{"ok": true, "epoch": 3, "results": [{"facts": [], "cross_relation": true}]}"#,
        br#"{"ok": true, "epoch": 3, "results": [{"cross_relation": false, "facts": []}]}"#,
        br#"{"ok": true, "epoch": 3, "results": [{"cross_relation": "yes", "facts": []}]}"#,
        br#"{"ok": true, "epoch": 3, "results": [{"num_variables": 4, "num_weights": 2}]}"#,
        br#"{"ok": true, "epoch": 3, "results": [{"relations": []}]}"#,
        br#"{"ok": false, "error": {"message": "m", "kind": "overloaded"}, "results": "unread"}"#,
        br#"{"ok": false, "error": {"kind": "internal", "message": 5}}"#,
        br#"{"ok": false, "ok": true, "error": {"kind": "internal"}}"#,
        // Refused.
        br#"{}"#,
        br#"[]"#,
        br#"{"ok": "true"}"#,
        br#"{"ok": true}"#,
        br#"{"ok": true, "epoch": 1.5, "results": []}"#,
        br#"{"ok": true, "epoch": -1, "results": []}"#,
        br#"{"ok": true, "epoch": 1}"#,
        br#"{"ok": true, "epoch": 1, "results": {}}"#,
        br#"{"ok": true, "epoch": 1, "epochs": 5, "results": []}"#,
        br#"{"ok": true, "epoch": 1, "epochs": [1.5], "results": []}"#,
        br#"{"ok": true, "epoch": 1, "results": [3]}"#,
        br#"{"ok": true, "epoch": 1, "results": [{"weird": 1}]}"#,
        br#"{"ok": true, "epoch": 1, "results": [{"relations": [1]}]}"#,
        br#"{"ok": true, "epoch": 1, "results": [{"relations": "R"}]}"#,
        br#"{"ok": true, "epoch": 1, "results": [{"probability": "p"}]}"#,
        br#"{"ok": true, "epoch": 1, "results": [{"facts": 3}]}"#,
        br#"{"ok": true, "epoch": 1, "results": [{"facts": [{"tuple": [1]}]}]}"#,
        br#"{"ok": true, "epoch": 1, "results": [{"facts": [{"probability": 1}]}]}"#,
        br#"{"ok": true, "epoch": 1, "results": [{"cross_relation": true, "facts": [{"tuple": [], "probability": 1}]}]}"#,
        br#"{"ok": true, "epoch": 1, "results": [{"num_variables": -1}]}"#,
        br#"{"ok": false}"#,
        br#"{"ok": false, "error": 3}"#,
        br#"{"ok": false, "error": {"kind": "weird"}}"#,
        br#"{"ok": true, "epoch": 1, "results": [], "junk": 01}"#,
        br#"{"ok": false, "error": {"kind": "internal", "message": "\q"}}"#,
        br#"{"ok": true, "epoch": 1, "results": []} x"#,
        b"\xff",
    ];
    for frame in frames {
        let (new, old) = (Response::decode(frame), tree::decode_response(frame));
        let shown = String::from_utf8_lossy(frame);
        match (&new, &old) {
            (Ok(new), Ok(old)) => assert_eq!(new, old, "{shown}"),
            (Err(_), Err(_)) => {}
            _ => panic!("{shown}: {new:?} vs {old:?}"),
        }
    }
}
