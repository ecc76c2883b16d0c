//! Tuples (rows) of values.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A row of values.
///
/// Tuples are the unit of storage in [`crate::Table`], the unit of change in
/// [`crate::DeltaRelation`], and — after grounding — each tuple of a user
/// relation corresponds to one Boolean random variable of the factor graph
/// (paper §2.4).
///
/// The values live behind an `Arc`, so a clone is a *row handle*: the table,
/// its secondary indexes, delta relations and the grounder's catalogs all
/// share one allocation per row.  Equality, ordering and hashing are those of
/// the value slice, which is what lets maps keyed by `Tuple` be probed with a
/// borrowed `&[Value]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// Build a tuple from anything convertible to `Value`.
    pub fn from_iter<I, V>(iter: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Tuple {
            values: iter.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at position `idx`.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Extract a key: the values at `indices`, in that order (an index past
    /// the row's end contributes nothing).
    pub fn key(&self, indices: &[usize]) -> Vec<Value> {
        indices
            .iter()
            .filter_map(|&i| self.values.get(i).cloned())
            .collect()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Shorthand macro for building tuples in tests and examples.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::from_iter([Value::Int(1), Value::text("obama")]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(0), Some(&Value::Int(1)));
        assert_eq!(t.get(1).and_then(|v| v.as_text()), Some("obama"));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn macro_builds_mixed_tuples() {
        let t = tuple![1i64, "spouse", true];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(1).and_then(|v| v.as_text()), Some("spouse"));
        assert_eq!(t.get(2), Some(&Value::Bool(true)));
    }

    #[test]
    fn key_extraction() {
        let t = tuple![10i64, "a", 20i64];
        assert_eq!(t.key(&[0, 2]), vec![Value::Int(10), Value::Int(20)]);
        // out-of-range indices are skipped rather than panicking
        assert_eq!(t.key(&[5]), Vec::<Value>::new());
    }

    #[test]
    fn display_formats_row() {
        let t = tuple![1i64, "b"];
        assert_eq!(t.to_string(), "(1, b)");
    }

    #[test]
    fn tuples_are_hashable_and_ordered() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(tuple![1i64, "a"]);
        s.insert(tuple![1i64, "a"]);
        s.insert(tuple![2i64, "a"]);
        assert_eq!(s.len(), 2);

        let mut v = vec![tuple![2i64], tuple![1i64]];
        v.sort();
        assert_eq!(v[0], tuple![1i64]);
    }
}
