//! Counted tables (bag relations with derivation counts).

use crate::error::{RelError, RelResult};
use crate::index::HashIndex;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// An in-memory relation.
///
/// Tuples are stored with a *derivation count*, exactly as required by
/// counting-based incremental view maintenance and the DRed algorithm the paper
/// adopts for incremental grounding (§3.1): "for each relation `R_i` … we create a
/// delta relation `Rδ_i` with the same schema … and an additional column `count`".
/// Base tables normally hold count 1 per tuple; materialized views hold the number
/// of alternative derivations, so deleting one derivation does not delete the
/// tuple while another derivation survives.
/// Rows are kept in a `BTreeMap` so iteration order is the tuple order —
/// every downstream consumer (view maintenance, grounding, variable/weight id
/// assignment) is then deterministic per seed, which the samplers' "runs are
/// reproducible" guarantee depends on.  A `HashMap` here made grounding order
/// — and therefore learned models — vary per *process*.
///
/// Query execution probes the table through secondary hash indexes keyed by
/// column set.  An index is built on the first probe that needs it and
/// from then on maintained by every mutation, so a join against an unchanged
/// table costs the rows it touches, not the rows the table holds.  Indexes
/// are derived state: a clone starts without them and they are never part of
/// a persisted table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: BTreeMap<Tuple, i64>,
    /// Number of rows with a positive count.
    present: usize,
    /// Sum of the positive counts.
    present_total: i64,
    indexes: Indexes,
}

/// The table's secondary indexes.  Behind a lock because they are created
/// through `&Table`; handed out as `Arc`s so a query holds no lock while it
/// runs, and `Arc::make_mut` keeps maintenance copy-free once it is done.
#[derive(Debug, Default)]
struct Indexes(RwLock<Vec<Arc<HashIndex>>>);

impl Clone for Indexes {
    fn clone(&self) -> Self {
        Indexes::default()
    }
}

impl Indexes {
    fn get_mut(&mut self) -> &mut Vec<Arc<HashIndex>> {
        // A poisoned lock only means a panic elsewhere while the list was
        // held; the list itself is valid after every step of every update.
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: BTreeMap::new(),
            present: 0,
            present_total: 0,
            indexes: Indexes::default(),
        }
    }

    /// A table over rows already in tuple order, distinct, with positive
    /// counts (a query result): the map is built in one pass.
    pub(crate) fn from_sorted_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<(Tuple, i64)>,
    ) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(rows.iter().all(|(_, count)| *count > 0));
        Table {
            present: rows.len(),
            present_total: rows.iter().map(|(_, count)| count).sum(),
            rows: rows.into_iter().collect(),
            ..Table::new(name, schema)
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of distinct tuples currently present (count > 0).
    pub fn len(&self) -> usize {
        self.present
    }

    /// True if no tuple is present.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Total multiplicity (sum of positive counts).
    pub fn total_count(&self) -> i64 {
        self.present_total
    }

    /// Insert a tuple with multiplicity 1, schema-checked.
    pub fn insert(&mut self, tuple: Tuple) -> RelResult<()> {
        self.insert_with_count(tuple, 1)
    }

    /// Insert a tuple with the given multiplicity (may be negative: a deletion).
    pub fn insert_with_count(&mut self, tuple: Tuple, count: i64) -> RelResult<()> {
        self.check(&tuple)?;
        self.merge_unchecked(tuple, count);
        Ok(())
    }

    fn check(&self, tuple: &Tuple) -> RelResult<()> {
        if self.schema.check(tuple.values()) {
            Ok(())
        } else {
            Err(RelError::SchemaMismatch {
                table: self.name.clone(),
                detail: format!("tuple {tuple} does not match schema"),
            })
        }
    }

    /// Insert one derivation of a tuple unless it is already present
    /// (count > 0), schema-checked.  Returns whether it was inserted.
    pub fn insert_if_absent(&mut self, tuple: Tuple) -> RelResult<bool> {
        self.check(&tuple)?;
        Ok(self.merge_with(tuple, |count| i64::from(count <= 0)) != 0)
    }

    /// Merge a count without schema checking (internal fast path for operators
    /// whose output schema is constructed to match by construction).
    pub(crate) fn merge_unchecked(&mut self, tuple: Tuple, count: i64) {
        self.merge_with(tuple, |_| count);
    }

    /// Add `change(current count)` to a tuple's count in one map descent and
    /// return the change.  Every mutation of `rows` goes through here, which
    /// is what keeps the presence counters and the indexes in step.
    fn merge_with(&mut self, tuple: Tuple, change: impl FnOnce(i64) -> i64) -> i64 {
        let (before, after) = match self.rows.entry(tuple) {
            Entry::Occupied(mut e) => {
                let before = *e.get();
                let after = before + change(before);
                if after == 0 {
                    let (row, _) = e.remove_entry();
                    for index in self.indexes.get_mut() {
                        Arc::make_mut(index).remove(&row);
                    }
                } else {
                    *e.get_mut() = after;
                }
                (before, after)
            }
            Entry::Vacant(e) => {
                let after = change(0);
                if after != 0 {
                    for index in self.indexes.get_mut() {
                        Arc::make_mut(index).insert(e.key());
                    }
                    e.insert(after);
                }
                (0, after)
            }
        };
        if before > 0 {
            self.present -= 1;
            self.present_total -= before;
        }
        if after > 0 {
            self.present += 1;
            self.present_total += after;
        }
        after - before
    }

    /// Delete one derivation of a tuple.  Returns `true` if the tuple was present.
    pub fn delete(&mut self, tuple: &Tuple) -> bool {
        self.merge_with(tuple.clone(), |count| -i64::from(count > 0)) != 0
    }

    /// Remove all derivations of a tuple, returning the previous count.
    pub fn remove_all(&mut self, tuple: &Tuple) -> i64 {
        -self.merge_with(tuple.clone(), |count| -count)
    }

    /// Current multiplicity of a tuple (0 when absent).
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.count_of(tuple.values())
    }

    /// [`Table::count`] for a row given as a value slice (no tuple is built).
    pub(crate) fn count_of(&self, values: &[Value]) -> i64 {
        self.rows.get(values).copied().unwrap_or(0)
    }

    /// True if the tuple is present with positive multiplicity.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.count(tuple) > 0
    }

    /// Iterate over present tuples (count > 0).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter().filter(|(_, &c)| c > 0).map(|(t, _)| t)
    }

    /// Iterate over every stored `(tuple, net count)` pair, *including*
    /// negative (over-deleted) counts — exact-state access for persistence.
    /// Zero counts are never stored, so every yielded count is non-zero.
    pub fn iter_net_counted(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.rows.iter().map(|(t, &c)| (t, c))
    }

    /// Iterate over `(tuple, count)` pairs with positive count.
    pub fn iter_counted(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.rows
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(t, &c)| (t, c))
    }

    /// Collect all present tuples into a vector (sorted, which is also the
    /// natural iteration order of the underlying map).
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }

    /// Remove every tuple.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.present = 0;
        self.present_total = 0;
        self.indexes.get_mut().clear();
    }

    /// The index on `cols` (ascending column positions), built from the
    /// stored rows if this is the first probe on that column set.
    pub(crate) fn index(&self, cols: &[usize]) -> Arc<HashIndex> {
        let find = |list: &[Arc<HashIndex>]| list.iter().find(|i| i.cols() == cols).cloned();
        let existing = find(&self.indexes.0.read().unwrap_or_else(|e| e.into_inner()));
        if let Some(index) = existing {
            return index;
        }
        let mut list = self.indexes.0.write().unwrap_or_else(|e| e.into_inner());
        if let Some(index) = find(&list) {
            return index;
        }
        let index = Arc::new(HashIndex::build(cols, self.rows.keys()));
        list.push(Arc::clone(&index));
        index
    }

    /// Compare every maintained index with one rebuilt from the stored rows.
    /// Returns the number of indexes checked, or the column set of the first
    /// one that has drifted — an invariant probe for tests.
    pub fn verify_indexes(&self) -> Result<usize, Vec<usize>> {
        let list = self.indexes.0.read().unwrap_or_else(|e| e.into_inner());
        for index in list.iter() {
            let rebuilt = HashIndex::build(index.cols(), self.rows.keys());
            if index.canonical() != rebuilt.canonical() {
                return Err(index.cols().to_vec());
            }
        }
        Ok(list.len())
    }

    /// Bulk-load tuples with count 1 (schema-checked, stops at the first error).
    pub fn extend<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I) -> RelResult<usize> {
        let mut n = 0;
        for t in tuples {
            self.insert(t)?;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use crate::tuple;

    fn people() -> Table {
        Table::new(
            "PersonCandidate",
            Schema::of(&[
                ("sentence_id", DataType::Int),
                ("mention_id", DataType::Int),
            ]),
        )
    }

    #[test]
    fn insert_and_contains() {
        let mut t = people();
        t.insert(tuple![1i64, 10i64]).unwrap();
        t.insert(tuple![1i64, 11i64]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.contains(&tuple![1i64, 10i64]));
        assert!(!t.contains(&tuple![2i64, 10i64]));
    }

    #[test]
    fn schema_checked_insert() {
        let mut t = people();
        let err = t.insert(tuple!["not an int", 10i64]).unwrap_err();
        assert!(matches!(err, RelError::SchemaMismatch { .. }));
    }

    #[test]
    fn counts_accumulate_and_cancel() {
        let mut t = people();
        t.insert(tuple![1i64, 10i64]).unwrap();
        t.insert(tuple![1i64, 10i64]).unwrap();
        assert_eq!(t.count(&tuple![1i64, 10i64]), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.total_count(), 2);

        assert!(t.delete(&tuple![1i64, 10i64]));
        assert!(t.contains(&tuple![1i64, 10i64]));
        assert!(t.delete(&tuple![1i64, 10i64]));
        assert!(!t.contains(&tuple![1i64, 10i64]));
        assert!(!t.delete(&tuple![1i64, 10i64]));
    }

    #[test]
    fn negative_counts_via_merge() {
        let mut t = people();
        t.insert_with_count(tuple![1i64, 10i64], 3).unwrap();
        t.insert_with_count(tuple![1i64, 10i64], -3).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn presence_counters_follow_every_mutation() {
        let mut t = people();
        t.insert_with_count(tuple![1i64, 10i64], 3).unwrap();
        t.insert(tuple![1i64, 11i64]).unwrap();
        // An over-deleted row is stored but not present.
        t.insert_with_count(tuple![2i64, 12i64], -2).unwrap();
        assert_eq!((t.len(), t.total_count()), (2, 4));
        assert_eq!(t.iter_net_counted().count(), 3);
        t.insert_with_count(tuple![2i64, 12i64], 3).unwrap();
        assert_eq!((t.len(), t.total_count()), (3, 5));
        assert!(t.delete(&tuple![1i64, 10i64]));
        assert_eq!((t.len(), t.total_count()), (3, 4));
        assert_eq!(t.remove_all(&tuple![1i64, 10i64]), 2);
        assert_eq!((t.len(), t.total_count()), (2, 2));
        t.clear();
        assert_eq!((t.len(), t.total_count()), (0, 0));
        assert!(t.is_empty());
    }

    #[test]
    fn insert_if_absent_adds_one_derivation_at_most() {
        let mut t = people();
        assert_eq!(t.insert_if_absent(tuple![1i64, 10i64]), Ok(true));
        assert_eq!(t.insert_if_absent(tuple![1i64, 10i64]), Ok(false));
        assert_eq!(t.count(&tuple![1i64, 10i64]), 1);
        // An over-deleted row is not present: it gains a derivation.
        t.insert_with_count(tuple![2i64, 20i64], -1).unwrap();
        assert_eq!(t.insert_if_absent(tuple![2i64, 20i64]), Ok(true));
        assert_eq!(t.iter_net_counted().count(), 1);
        assert!(t.insert_if_absent(tuple!["x", 1i64]).is_err());
    }

    #[test]
    fn index_is_built_on_first_probe_and_maintained_afterwards() {
        let mut t = people();
        t.insert(tuple![1i64, 10i64]).unwrap();
        t.insert(tuple![1i64, 11i64]).unwrap();
        t.insert(tuple![2i64, 12i64]).unwrap();
        assert_eq!(t.verify_indexes(), Ok(0));
        assert_eq!(t.index(&[0]).get(&[Value::Int(1)]).len(), 2);
        assert_eq!(t.verify_indexes(), Ok(1));

        t.insert(tuple![1i64, 13i64]).unwrap();
        t.insert(tuple![1i64, 13i64]).unwrap();
        assert!(t.delete(&tuple![1i64, 10i64]));
        t.remove_all(&tuple![2i64, 12i64]);
        let index = t.index(&[0]);
        assert_eq!(index.get(&[Value::Int(1)]).len(), 2);
        assert!(index.get(&[Value::Int(2)]).is_empty());
        assert_eq!(t.verify_indexes(), Ok(1));

        // Derived state: a clone starts without indexes, `clear` drops them.
        assert_eq!(t.clone().verify_indexes(), Ok(0));
        t.clear();
        assert_eq!(t.verify_indexes(), Ok(0));
    }

    #[test]
    fn sorted_tuples_is_deterministic() {
        let mut t = people();
        t.insert(tuple![2i64, 1i64]).unwrap();
        t.insert(tuple![1i64, 2i64]).unwrap();
        let v = t.sorted_tuples();
        assert_eq!(v[0], tuple![1i64, 2i64]);
        assert_eq!(v[1], tuple![2i64, 1i64]);
    }

    #[test]
    fn extend_bulk_loads() {
        let mut t = people();
        let n = t
            .extend((0..5).map(|i| tuple![i as i64, (i * 10) as i64]))
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn remove_all_and_clear() {
        let mut t = people();
        t.insert_with_count(tuple![1i64, 1i64], 4).unwrap();
        assert_eq!(t.remove_all(&tuple![1i64, 1i64]), 4);
        t.insert(tuple![2i64, 2i64]).unwrap();
        t.clear();
        assert!(t.is_empty());
    }
}
