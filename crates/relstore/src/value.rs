//! Typed scalar values stored in relations.

use std::fmt;
use std::sync::Arc;

/// The data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string (interned via `Arc<str>` so copies are cheap).
    Text,
    /// Boolean.
    Bool,
    /// 64-bit float.  Only used for probabilities and weights; never used as a
    /// join key, so the lack of `Eq` on `f64` is handled by bit-level
    /// equality and the lack of `Ord` by IEEE 754's total order.
    Float,
    /// Null / missing.
    Null,
}

/// A scalar value.
///
/// Values are small and cheap to clone; strings are reference counted so the
/// same mention/feature string shared across millions of tuples is stored once.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i64),
    Text(Arc<str>),
    Bool(bool),
    Float(f64),
    Null,
}

impl Value {
    /// Data type of this value.
    pub(crate) fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Text(_) => DataType::Text,
            Value::Bool(_) => DataType::Bool,
            Value::Float(_) => DataType::Float,
            Value::Null => DataType::Null,
        }
    }

    /// Construct a text value.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Arc::from(s.as_ref()))
    }

    /// Return the integer payload if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Return the string payload if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Return the float payload if this is a `Float` (or an `Int`, widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// True if the value is `Null`.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            // Bit-level equality: values are only compared for joins/dedup, where
            // reflexivity matters more than IEEE NaN semantics.
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Null, Value::Null) => true,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(i) => {
                0u8.hash(state);
                i.hash(state);
            }
            Value::Text(s) => {
                1u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                2u8.hash(state);
                b.hash(state);
            }
            Value::Float(f) => {
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Null => 4u8.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) => 2,
                Float(_) => 3,
                Text(_) => 4,
            }
        }
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            // `total_cmp` is Equal exactly when the bits match, as `Eq`
            // and `Hash` decide: -0.0 and 0.0 are two rows, and so are two
            // NaNs with different payloads.
            (Float(a), Float(b)) => a.total_cmp(b),
            (Null, Null) => Ordering::Equal,
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::Int(3).data_type(), DataType::Int);
        assert_eq!(Value::text("x").data_type(), DataType::Text);
        assert_eq!(Value::Bool(true).data_type(), DataType::Bool);
        assert_eq!(Value::Float(0.5).data_type(), DataType::Float);
        assert_eq!(Value::Null.data_type(), DataType::Null);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::text("hi").as_text(), Some("hi"));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert!(Value::Null.is_null());
        assert_eq!(Value::text("hi").as_int(), None);
    }

    #[test]
    fn equality_and_hash_consistency() {
        let a = Value::text("spouse");
        let b = Value::text("spouse");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));

        let f1 = Value::Float(0.25);
        let f2 = Value::Float(0.25);
        assert_eq!(f1, f2);
        assert_eq!(hash_of(&f1), hash_of(&f2));
    }

    #[test]
    fn cross_type_values_are_not_equal() {
        assert_ne!(Value::Int(1), Value::Bool(true));
        assert_ne!(Value::Int(0), Value::Null);
        assert_ne!(Value::text("1"), Value::Int(1));
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = vec![
            Value::text("b"),
            Value::Int(2),
            Value::Null,
            Value::Bool(true),
            Value::Int(1),
            Value::text("a"),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(1));
        assert_eq!(vals[3], Value::Int(2));
        assert_eq!(vals[4], Value::text("a"));
        assert_eq!(vals[5], Value::text("b"));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3usize), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::text("x"));
        assert_eq!(Value::from(String::from("y")), Value::text("y"));
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::text("obama").to_string(), "obama");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
