//! User-defined functions for feature extraction and weight tying.
//!
//! DeepDive "allows users to write feature extraction code in familiar languages
//! (Python, SQL, and Scala)" (§2.3).  Here a UDF is a Rust closure from bound
//! values to a value; when used in a `weight = udf(…)` position its (stringified)
//! output is the weight-tying key, exactly like `phrase(m1, m2, sent)` in rule
//! FE1 returning "and his wife".

use dd_relstore::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A user-defined function over bound rule variables.
pub(crate) type Udf = Arc<dyn Fn(&[Value]) -> Value + Send + Sync>;

/// A registry of named UDFs.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    udfs: HashMap<String, Udf>,
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&String> = self.udfs.keys().collect();
        names.sort();
        f.debug_struct("UdfRegistry").field("udfs", &names).finish()
    }
}

impl UdfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        UdfRegistry::default()
    }

    /// Register a UDF under `name`.
    pub(crate) fn register<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&[Value]) -> Value + Send + Sync + 'static,
    {
        self.udfs.insert(name.into(), Arc::new(f));
    }

    /// Look up a UDF.
    pub fn get(&self, name: &str) -> Option<&Udf> {
        self.udfs.get(name)
    }

    /// Call a UDF, returning `Value::Null` if it is not registered (grounding
    /// treats a Null tying key as "one shared weight for the whole rule").
    pub(crate) fn call(&self, name: &str, args: &[Value]) -> Value {
        match self.udfs.get(name) {
            Some(f) => f(args),
            None => Value::Null,
        }
    }

    /// Names of all registered UDFs, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.udfs.keys().cloned().collect();
        names.sort();
        names
    }
}

/// The standard UDFs shipped with the engine, mirroring the feature extractors
/// the paper's example systems use.
pub fn standard_udfs() -> UdfRegistry {
    let mut reg = UdfRegistry::new();
    // identity: the feature value itself is the tying key (Example 2.6's
    // `weight = w(f)` classifier).
    reg.register("identity", |args: &[Value]| {
        args.first().cloned().unwrap_or(Value::Null)
    });
    // concat: join all arguments with '_' — a generic composite feature.
    reg.register("concat", |args: &[Value]| {
        Value::text(
            args.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("_"),
        )
    });
    // phrase: the words strictly between two mention tokens inside a sentence,
    // the "… and his wife …" feature of Example 2.3.  Arguments: mention1 text,
    // mention2 text, sentence text.
    reg.register("phrase", |args: &[Value]| {
        let (m1, m2, sent) = match (args.first(), args.get(1), args.get(2)) {
            (Some(a), Some(b), Some(c)) => (a.to_string(), b.to_string(), c.to_string()),
            _ => return Value::Null,
        };
        match (sent.find(&m1), sent.find(&m2)) {
            (Some(p1), Some(p2)) => {
                let (start, end) = if p1 < p2 {
                    (p1 + m1.len(), p2)
                } else {
                    (p2 + m2.len(), p1)
                };
                if start >= end {
                    Value::text("")
                } else {
                    Value::text(sent[start..end].trim())
                }
            }
            _ => Value::Null,
        }
    });
    // bucket: coarse numeric bucketing, useful for distance-style features.
    reg.register("bucket", |args: &[Value]| {
        match args.first().and_then(|v| v.as_float()) {
            Some(x) => Value::Int((x / 10.0).floor() as i64),
            None => Value::Null,
        }
    });
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_call() {
        let mut reg = UdfRegistry::new();
        reg.register("double", |args: &[Value]| {
            Value::Int(args[0].as_int().unwrap_or(0) * 2)
        });
        assert_eq!(reg.call("double", &[Value::Int(21)]), Value::Int(42));
        assert!(reg.get("double").is_some());
        assert_eq!(reg.call("missing", &[]), Value::Null);
        assert_eq!(reg.names(), vec!["double"]);
    }

    #[test]
    fn standard_identity_and_concat() {
        let reg = standard_udfs();
        assert_eq!(
            reg.call("identity", &[Value::text("dep_path")]),
            Value::text("dep_path")
        );
        assert_eq!(
            reg.call("concat", &[Value::text("a"), Value::Int(3)]),
            Value::text("a_3")
        );
        assert_eq!(reg.call("identity", &[]), Value::Null);
    }

    #[test]
    fn phrase_extracts_text_between_mentions() {
        let reg = standard_udfs();
        let sent = Value::text("B. Obama and his wife M. Obama were married");
        let out = reg.call(
            "phrase",
            &[
                Value::text("B. Obama"),
                Value::text("M. Obama"),
                sent.clone(),
            ],
        );
        assert_eq!(out, Value::text("and his wife"));
        // order of mentions does not matter
        let out2 = reg.call(
            "phrase",
            &[Value::text("M. Obama"), Value::text("B. Obama"), sent],
        );
        assert_eq!(out2, Value::text("and his wife"));
        // missing mention -> Null
        let out3 = reg.call(
            "phrase",
            &[
                Value::text("Nobody"),
                Value::text("M. Obama"),
                Value::text("nothing here"),
            ],
        );
        assert_eq!(out3, Value::Null);
    }

    #[test]
    fn bucket_udf() {
        let reg = standard_udfs();
        assert_eq!(reg.call("bucket", &[Value::Float(37.0)]), Value::Int(3));
        assert_eq!(reg.call("bucket", &[Value::Int(5)]), Value::Int(0));
        assert_eq!(reg.call("bucket", &[Value::text("x")]), Value::Null);
    }

    #[test]
    fn debug_output_lists_names() {
        let reg = standard_udfs();
        let dbg = format!("{reg:?}");
        assert!(dbg.contains("phrase"));
        assert!(dbg.contains("identity"));
    }
}
