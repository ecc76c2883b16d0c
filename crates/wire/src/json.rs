//! A small, strict JSON data model, parser, and encoder.
//!
//! Promoted out of `dd_bench::sweeps` (where it parsed `BENCH_sweeps.json`
//! for the CI perf gate) so the network protocol shares the same
//! implementation.  The parser accepts arbitrary well-formed JSON — including
//! `\uXXXX` escapes with surrogate pairs — and rejects everything else with a
//! byte-offset error message, so a truncated or hand-mangled document fails
//! loudly instead of being half-read.  The encoder produces a canonical
//! single-line form that the parser round-trips.
//!
//! The tree is for tooling and tests.  The codecs on the serving and
//! durability paths never build one: they write through [`JsonWriter`] and
//! read through [`JsonReader`], each implementing [`Encode`] / [`Decode`]
//! for its own types.  [`parse`] reads through the same [`JsonReader`], and
//! [`Json::encode`] is kept independent of [`JsonWriter`] as the oracle the
//! writer is tested against byte for byte.
//!
//! ```
//! use dd_wire::json::{parse, Json};
//!
//! let value = parse(r#"{"op": "query", "top_k": 3}"#).unwrap();
//! assert_eq!(value.get("op").and_then(Json::as_str), Some("query"));
//! assert_eq!(value.get("top_k").and_then(Json::as_f64), Some(3.0));
//! assert_eq!(parse(&value.encode()).unwrap(), value);
//! ```

mod reader;
mod writer;

pub use reader::{hex_bytes, Decode, JsonReader, Kind, ObjectReader};
pub use writer::{Encode, JsonWriter, CHUNK_BYTES};

/// A parsed JSON value.
///
/// Objects preserve insertion order (they are a `Vec` of pairs, not a map):
/// encoding is deterministic and duplicate keys are representable, with
/// [`Json::get`] resolving to the first occurrence like most JSON readers.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// The string payload, if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Number`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an `Object`.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// First value of `key`, if this is an `Object` containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Encode to the canonical single-line JSON text.
    ///
    /// Non-finite numbers have no JSON representation and encode as `null`
    /// (the usual lenient-writer convention); everything else round-trips
    /// through [`parse`].
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => {
                if n.is_finite() {
                    // Integral values print without a fraction; `{:?}` keeps
                    // full f64 round-trip precision for the rest.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n:?}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::String(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            // Raw UTF-8 is valid JSON; no need to escape non-ASCII.
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting [`parse`] and [`JsonReader`] accept.  Reading
/// nested values recurses, so without a bound a few kilobytes of `[`
/// characters would overflow the thread stack — an abort no `catch_unwind`
/// can stop.  128 levels is far beyond any document this workspace produces.
pub const MAX_NESTING_DEPTH: usize = 128;

/// Parse one JSON document.  Trailing non-whitespace content is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    Json::from_bytes(text.as_bytes())
}

/// Whether `bytes` is one JSON document, without building anything.
pub fn validate(bytes: &[u8]) -> Result<(), String> {
    let mut r = JsonReader::new(bytes);
    r.skip_value()?;
    r.finish()
}

impl Decode for Json {
    fn decode(r: &mut JsonReader<'_>) -> Result<Self, String> {
        Ok(match r.peek()? {
            Kind::Null => r.null().map(|()| Json::Null)?,
            Kind::Bool => Json::Bool(r.bool()?),
            Kind::Number => Json::Number(r.number()?),
            Kind::String => Json::String(r.string()?.into_owned()),
            Kind::Array => Json::Array(r.seq(Json::decode)?),
            Kind::Object => {
                let mut fields = Vec::new();
                r.begin_object()?;
                while let Some(key) = r.next_key()? {
                    fields.push((key.into_owned(), Json::decode(r)?));
                }
                Json::Object(fields)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_value_kinds() {
        let value = parse(r#"{"a": [1, -2.5, true, false, null, "s"], "b": {}}"#).unwrap();
        let items = value.get("a").unwrap().as_array().unwrap();
        assert_eq!(items[0], Json::Number(1.0));
        assert_eq!(items[1], Json::Number(-2.5));
        assert_eq!(items[2], Json::Bool(true));
        assert_eq!(items[3], Json::Bool(false));
        assert_eq!(items[4], Json::Null);
        assert_eq!(items[5].as_str(), Some("s"));
        assert_eq!(value.get("b"), Some(&Json::Object(Vec::new())));
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("[{\"name\": \"x\"").is_err()); // truncated
        assert!(parse("[1, 2,]").is_err()); // trailing comma
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("'single'").is_err());
        assert!(parse("{\"a\" 1}").is_err()); // missing colon
    }

    #[test]
    fn number_syntax_is_rfc_strict_and_finite() {
        // Lenient forms f64::parse would accept are rejected.
        assert!(parse("[01]").is_err()); // leading zero
        assert!(parse("[1.]").is_err()); // trailing dot
        assert!(parse("[.5]").is_err()); // missing integer part
        assert!(parse("[+1]").is_err()); // leading plus
        assert!(parse("[1e]").is_err()); // empty exponent
        assert!(parse("[1e+]").is_err());
        assert!(parse("[-]").is_err());
        // Overflow-to-infinity is refused, not silently absorbed.
        assert!(parse("[1e999]").unwrap_err().contains("out of range"));
        assert!(parse("[-1e999]").is_err());
        // The valid grammar still parses.
        for ok in ["0", "-0", "10", "0.5", "-2.25", "1e3", "1E-3", "1.5e+2"] {
            assert!(parse(ok).is_ok(), "rejected valid number {ok}");
        }
    }

    #[test]
    fn parses_escapes_and_negative_exponents() {
        let value = parse("{\"name\": \"a\\\"b\\u0041\\n\", \"value\": -1.5e2}").unwrap();
        assert_eq!(value.get("name").and_then(Json::as_str), Some("a\"bA\n"));
        assert_eq!(value.get("value").and_then(Json::as_f64), Some(-150.0));
    }

    #[test]
    fn parses_surrogate_pairs_and_rejects_lone_surrogates() {
        assert_eq!(
            parse("\"\\ud83d\\ude80!\"").unwrap(),
            Json::String("🚀!".to_string())
        );
        assert!(parse("\"\\ud83dX\"").is_err()); // high surrogate, no low
        assert!(parse("\"\\ude80\"").is_err()); // lone low surrogate
        assert!(parse("\"\\ud83d\\u0041\"").is_err()); // bad low surrogate
    }

    #[test]
    fn encode_round_trips_through_parse() {
        let value = Json::Object(vec![
            ("int".to_string(), Json::Number(42.0)),
            ("float".to_string(), Json::Number(0.1 + 0.2)),
            ("neg".to_string(), Json::Number(-1.5e-8)),
            (
                "text".to_string(),
                Json::String("quote\" slash\\ nl\n tab\t nul\u{1} 🚀".to_string()),
            ),
            ("flag".to_string(), Json::Bool(true)),
            ("nothing".to_string(), Json::Null),
            (
                "nested".to_string(),
                Json::Array(vec![Json::Number(1.0), Json::Object(Vec::new())]),
            ),
        ]);
        assert_eq!(parse(&value.encode()).unwrap(), value);
    }

    #[test]
    fn encode_prints_integral_numbers_without_fraction() {
        assert_eq!(Json::Number(3.0).encode(), "3");
        assert_eq!(Json::Number(-7.0).encode(), "-7");
        assert_eq!(Json::Number(2.5).encode(), "2.5");
        // Non-finite numbers degrade to null rather than emitting invalid JSON.
        assert_eq!(Json::Number(f64::NAN).encode(), "null");
        assert_eq!(Json::Number(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn nesting_is_bounded_so_hostile_depth_cannot_blow_the_stack() {
        // A few KB of '[' must be a parse error, not a stack overflow abort.
        let hostile = "[".repeat(100_000);
        let err = parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "got: {err}");
        // Mixed-container depth counts too.
        let mixed = "{\"a\":".repeat(200) + "1" + &"}".repeat(200);
        assert!(parse(&mixed).is_err());
        // Reasonable depth (well under the cap) still round-trips.
        let deep = "[".repeat(64) + "1" + &"]".repeat(64);
        let value = parse(&deep).unwrap();
        assert_eq!(parse(&value.encode()).unwrap(), value);
    }

    #[test]
    fn get_resolves_first_duplicate_key() {
        let value = parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(value.get("k").and_then(Json::as_f64), Some(1.0));
    }
}
