//! Relation schemas: named, typed columns.

pub use crate::value::DataType;
use crate::value::Value;

/// A single column: a name plus a data type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
}

impl Column {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
        }
    }
}

/// The schema of a relation: an ordered list of columns.
///
/// DeepDive user relations are small and wide-typed (mention ids, sentence ids,
/// feature strings, boolean labels); schema checking catches the most common
/// grounding-rule mistakes (arity mismatch, joining a text column against an id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Convenience constructor from slices of `(&str, DataType)`.
    pub fn of(cols: &[(&str, DataType)]) -> Self {
        Schema {
            columns: cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
        }
    }

    /// Number of columns (arity).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Data type of the column at `idx`.
    pub fn type_at(&self, idx: usize) -> Option<DataType> {
        self.columns.get(idx).map(|c| c.data_type)
    }

    /// Check that a row of values is compatible with this schema.
    ///
    /// `Null` is accepted in any column; otherwise the value's type must match
    /// the declared column type exactly.
    pub(crate) fn check(&self, values: &[Value]) -> bool {
        values.len() == self.arity()
            && values
                .iter()
                .zip(self.columns.iter())
                .all(|(v, c)| v.is_null() || v.data_type() == c.data_type)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_schema() -> Schema {
        Schema::of(&[
            ("sentence_id", DataType::Int),
            ("mention_id", DataType::Int),
            ("text", DataType::Text),
        ])
    }

    #[test]
    fn arity_and_types() {
        let s = person_schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.type_at(2), Some(DataType::Text));
        assert_eq!(s.type_at(5), None);
    }

    #[test]
    fn check_accepts_matching_rows() {
        let s = person_schema();
        assert!(s.check(&[Value::Int(1), Value::Int(10), Value::text("Obama")]));
        assert!(s.check(&[Value::Int(1), Value::Null, Value::text("Obama")]));
    }

    #[test]
    fn check_rejects_bad_rows() {
        let s = person_schema();
        // wrong arity
        assert!(!s.check(&[Value::Int(1), Value::Int(10)]));
        // wrong type
        assert!(!s.check(&[Value::Int(1), Value::text("x"), Value::text("Obama")]));
    }
}
