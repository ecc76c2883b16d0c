//! Secondary hash indexes over a table's rows.
//!
//! An index maps the values of a column set to the handles of the rows that
//! carry them.  It mirrors the table's *stored* rows — every tuple with a
//! non-zero net count, over-deleted (negative) ones included — so maintaining
//! it is a matter of row creation and row removal only; whether a row is
//! currently present is decided at probe time from its count.
//!
//! Indexes are derived state: they are never persisted, a cloned table
//! starts without them, and the first probe on a column set builds it.

use crate::hash::RowMap;
use crate::tuple::Tuple;
use crate::value::Value;

/// Row handles grouped by the values at `cols`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HashIndex {
    cols: Vec<usize>,
    buckets: RowMap<Vec<Value>, Vec<Tuple>>,
}

impl HashIndex {
    /// Index `rows` on `cols` (ascending column positions).
    pub(crate) fn build<'a>(cols: &[usize], rows: impl Iterator<Item = &'a Tuple>) -> Self {
        let mut index = HashIndex {
            cols: cols.to_vec(),
            buckets: RowMap::default(),
        };
        for row in rows {
            index.insert(row);
        }
        index
    }

    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Rows whose values at the indexed columns equal `key`.
    pub(crate) fn get(&self, key: &[Value]) -> &[Tuple] {
        self.buckets.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Register a row the table just started storing.
    pub(crate) fn insert(&mut self, row: &Tuple) {
        self.buckets
            .entry(row.key(&self.cols))
            .or_default()
            .push(row.clone());
    }

    /// Forget a row the table stopped storing.
    pub(crate) fn remove(&mut self, row: &Tuple) {
        let key = row.key(&self.cols);
        if let Some(bucket) = self.buckets.get_mut(&key) {
            if let Some(at) = bucket.iter().position(|r| r == row) {
                bucket.swap_remove(at);
            }
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
        }
    }

    /// Order-independent form for comparing a maintained index against one
    /// rebuilt from the table.
    pub(crate) fn canonical(&self) -> Vec<(Vec<Value>, Vec<Tuple>)> {
        let mut entries: Vec<(Vec<Value>, Vec<Tuple>)> = self
            .buckets
            .iter()
            .map(|(key, rows)| {
                let mut rows = rows.clone();
                rows.sort();
                (key.clone(), rows)
            })
            .collect();
        entries.sort();
        entries
    }
}
