//! Delta relations: descriptions of change to a base relation.
//!
//! Incremental grounding (paper §3.1) starts from a set of *changes to the input*:
//! newly loaded documents, retracted supervision tuples, and so on.  A
//! [`DeltaRelation`] records such a change as a counted set of insertions and
//! deletions, mirroring the `Rδ` relations of the DRed algorithm.

use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A counted set of changes against one relation.
#[derive(Debug, Clone, Default)]
pub struct DeltaRelation {
    relation: String,
    /// tuple -> non-zero net count change (positive = insertions, negative =
    /// deletions); a change that cancels out leaves no entry.
    /// Ordered so delta iteration — and thus incremental grounding — is
    /// deterministic (see the note on [`Table`]).
    changes: BTreeMap<Tuple, i64>,
}

impl DeltaRelation {
    /// An empty delta against `relation`.
    pub fn new(relation: impl Into<String>) -> Self {
        DeltaRelation {
            relation: relation.into(),
            changes: BTreeMap::new(),
        }
    }

    /// A delta from changes in tuple order, distinct (zero counts are
    /// dropped): the map is built in one pass.
    pub(crate) fn from_sorted(relation: impl Into<String>, changes: Vec<(Tuple, i64)>) -> Self {
        debug_assert!(changes.windows(2).all(|w| w[0].0 < w[1].0));
        DeltaRelation {
            relation: relation.into(),
            changes: changes.into_iter().filter(|(_, c)| *c != 0).collect(),
        }
    }

    /// Name of the relation this delta applies to.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Record an insertion of `tuple`.
    pub fn insert(&mut self, tuple: Tuple) {
        self.change(tuple, 1);
    }

    /// Record a deletion of `tuple`.
    pub fn delete(&mut self, tuple: Tuple) {
        self.change(tuple, -1);
    }

    /// Record a change with an explicit count.
    pub fn change(&mut self, tuple: Tuple, count: i64) {
        if count == 0 {
            return;
        }
        match self.changes.entry(tuple) {
            Entry::Occupied(mut e) => {
                *e.get_mut() += count;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            Entry::Vacant(e) => {
                e.insert(count);
            }
        }
    }

    /// Net change for a tuple.
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.count_of(tuple.values())
    }

    /// [`DeltaRelation::count`] for a row given as a value slice.
    pub(crate) fn count_of(&self, values: &[Value]) -> i64 {
        self.changes.get(values).copied().unwrap_or(0)
    }

    /// Number of tuples with a non-zero net change.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True if there is no net change.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Iterate over `(tuple, net count)` pairs with non-zero net change.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.changes.iter().map(|(t, &c)| (t, c))
    }

    /// Only the insertions (positive part), as a counted table-like iterator.
    pub fn insertions(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.iter().filter(|(_, c)| *c > 0)
    }

    /// Only the deletions (negative part), with positive counts.
    pub fn deletions(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.changes
            .iter()
            .filter(|(_, &c)| c < 0)
            .map(|(t, &c)| (t, -c))
    }

    /// Apply this delta to a base table in place (counts merge; tuples whose
    /// count reaches zero disappear).  Schema checking is the caller's concern:
    /// deltas are produced by the same code paths that produced the base rows.
    pub fn apply_to(&self, table: &mut Table) {
        for (t, c) in self.iter() {
            table.merge_unchecked(t.clone(), c);
        }
    }

    /// Merge another delta into this one.
    pub fn merge(&mut self, other: &DeltaRelation) {
        for (t, c) in other.iter() {
            self.change(t.clone(), c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};
    use crate::tuple;

    #[test]
    fn insert_delete_cancel() {
        let mut d = DeltaRelation::new("R");
        d.insert(tuple![1i64]);
        d.insert(tuple![1i64]);
        d.delete(tuple![1i64]);
        assert_eq!(d.count(&tuple![1i64]), 1);
        d.delete(tuple![1i64]);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn positive_and_negative_parts() {
        let mut d = DeltaRelation::new("R");
        d.insert(tuple![1i64]);
        d.delete(tuple![2i64]);
        d.delete(tuple![2i64]);
        let ins: Vec<_> = d.insertions().collect();
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].1, 1);
        let dels: Vec<_> = d.deletions().collect();
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].1, 2);
    }

    #[test]
    fn apply_to_table() {
        let mut t = Table::new("R", Schema::of(&[("x", DataType::Int)]));
        t.insert(tuple![1i64]).unwrap();
        t.insert(tuple![2i64]).unwrap();

        let mut d = DeltaRelation::new("R");
        d.delete(tuple![1i64]);
        d.insert(tuple![3i64]);
        d.apply_to(&mut t);

        assert!(!t.contains(&tuple![1i64]));
        assert!(t.contains(&tuple![2i64]));
        assert!(t.contains(&tuple![3i64]));
    }

    #[test]
    fn merging_adds_counts() {
        let mut a = DeltaRelation::new("R");
        a.insert(tuple![1i64]);
        let mut b = DeltaRelation::new("R");
        b.insert(tuple![1i64]);
        b.delete(tuple![2i64]);
        a.merge(&b);
        assert_eq!(a.count(&tuple![1i64]), 2);
        assert_eq!(a.count(&tuple![2i64]), -1);
    }
}
