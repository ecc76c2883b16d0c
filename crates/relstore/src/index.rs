//! Secondary hash indexes over a table's rows.
//!
//! An index maps the values of a column set to the handles of the rows that
//! carry them.  It mirrors the table's *stored* rows — every tuple with a
//! non-zero net count, over-deleted (negative) ones included — so maintaining
//! it is a matter of row creation and row removal only; whether a row is
//! currently present is decided at probe time from its count.
//!
//! The map is keyed by the [`RowHash`] of the key columns, not by the key
//! values: a row is hashed where it lies, so no key is copied out of it.  A
//! bucket is one row handle — the common case, a key with one row — or a
//! `Vec` of handles once several rows share the hash, and turns back into
//! one handle when all but one leave.  A probe hashes its key slice the same
//! way and yields only the bucket's rows whose key columns equal the key, so
//! two keys whose 64-bit hashes collide share a bucket but never each
//! other's rows.  Within a key, rows keep their insertion order; a removal
//! moves the key's last row into the gap.
//!
//! Indexes are derived state: they are never persisted, a cloned table
//! starts without them, and the first probe on a column set builds it.

use crate::hash::RowHash;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Row handles grouped by the hash of the values at `cols`, hashed by `S`
/// (the tests swap in a hasher under which every key collides).
#[derive(Debug, Clone)]
pub(crate) struct HashIndex<S = RowHash> {
    cols: Vec<usize>,
    hash: S,
    buckets: HashMap<u64, Bucket, BuildHasherDefault<KeyHashed>>,
}

/// The rows filed under one key hash.
#[derive(Debug, Clone)]
enum Bucket {
    One(Tuple),
    /// Two or more rows: in insertion order per key.
    Many(Vec<Tuple>),
}

impl Bucket {
    fn rows(&self) -> &[Tuple] {
        match self {
            Bucket::One(row) => std::slice::from_ref(row),
            Bucket::Many(rows) => rows,
        }
    }
}

/// The buckets' own hasher: their keys are key hashes already, so it passes
/// the word through.
#[derive(Default)]
struct KeyHashed(u64);

impl Hasher for KeyHashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("index buckets are keyed by u64 hashes")
    }

    #[inline]
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl<S: BuildHasher + Default> HashIndex<S> {
    /// Index `rows` on `cols` (ascending column positions).
    pub(crate) fn build<'a>(cols: &[usize], rows: impl Iterator<Item = &'a Tuple>) -> Self {
        let mut index = HashIndex {
            cols: cols.to_vec(),
            hash: S::default(),
            buckets: HashMap::default(),
        };
        for row in rows {
            index.insert(row);
        }
        index
    }

    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Number of row handles held.
    pub(crate) fn len(&self) -> usize {
        self.buckets
            .values()
            .map(|bucket| bucket.rows().len())
            .sum()
    }

    /// Rows whose values at the indexed columns equal `key`, in insertion
    /// order.  Allocates nothing.
    pub(crate) fn get<'a>(&'a self, key: &'a [Value]) -> impl Iterator<Item = &'a Tuple> + 'a {
        let rows = self
            .buckets
            .get(&hash_values(&self.hash, key.iter()))
            .map_or(&[][..], Bucket::rows);
        rows.iter().filter(move |row| self.row_has_key(row, key))
    }

    /// Register a row the table just started storing.
    pub(crate) fn insert(&mut self, row: &Tuple) {
        match self.buckets.entry(self.row_hash(row)) {
            Entry::Vacant(slot) => {
                slot.insert(Bucket::One(row.clone()));
            }
            Entry::Occupied(mut slot) => {
                let bucket = slot.get_mut();
                match bucket {
                    Bucket::One(first) => *bucket = Bucket::Many(vec![first.clone(), row.clone()]),
                    Bucket::Many(rows) => rows.push(row.clone()),
                }
            }
        }
    }

    /// Forget a row the table stopped storing.
    pub(crate) fn remove(&mut self, row: &Tuple) {
        let hash = self.row_hash(row);
        let cols = &self.cols;
        let Entry::Occupied(mut slot) = self.buckets.entry(hash) else {
            return;
        };
        match slot.get_mut() {
            Bucket::One(only) => {
                if only == row {
                    slot.remove();
                }
            }
            Bucket::Many(rows) => {
                let Some(at) = rows.iter().position(|r| r == row) else {
                    return;
                };
                // A `swap_remove` within the key: its last row takes the
                // gap, and the rows of a colliding key keep their order.
                let same_key = |r: &Tuple| cols.iter().all(|&c| r.get(c) == row.get(c));
                let last = rows.iter().rposition(same_key).expect("the row itself");
                rows.swap(at, last);
                rows.remove(last);
                if rows.len() == 1 {
                    let only = rows.pop().expect("one row");
                    slot.insert(Bucket::One(only));
                }
            }
        }
    }

    /// Order-independent form for comparing a maintained index against one
    /// rebuilt from the table: each key's rows, sorted, by key.  A row filed
    /// under a hash other than its key's is one no probe finds, so it is
    /// left out, and the comparison with a rebuilt index shows it missing.
    pub(crate) fn canonical(&self) -> Vec<(Vec<Value>, Vec<Tuple>)> {
        let mut rows: Vec<(Vec<Value>, &Tuple)> = self
            .buckets
            .iter()
            .flat_map(|(&hash, bucket)| bucket.rows().iter().map(move |row| (hash, row)))
            .filter(|&(hash, row)| hash == self.row_hash(row))
            .map(|(_, row)| (row.key(&self.cols), row))
            .collect();
        rows.sort();
        let mut entries: Vec<(Vec<Value>, Vec<Tuple>)> = Vec::new();
        for (key, row) in rows {
            match entries.last_mut() {
                Some((last, group)) if *last == key => group.push(row.clone()),
                _ => entries.push((key, vec![row.clone()])),
            }
        }
        entries
    }

    /// The hash of `row`'s key, read in place: equal to the hash of the
    /// key's values that a probe computes.
    fn row_hash(&self, row: &Tuple) -> u64 {
        hash_values(&self.hash, self.cols.iter().filter_map(|&c| row.get(c)))
    }

    /// Whether `row`'s values at the indexed columns equal `key`.  A row too
    /// short to have one of the columns (a Δ row is not schema-checked)
    /// matches no key.
    fn row_has_key(&self, row: &Tuple, key: &[Value]) -> bool {
        self.cols.len() == key.len()
            && self
                .cols
                .iter()
                .zip(key)
                .all(|(&c, value)| row.get(c) == Some(value))
    }
}

/// The hash of a key given as its values in column order.
fn hash_values<'v>(hash: &impl BuildHasher, values: impl Iterator<Item = &'v Value>) -> u64 {
    let mut hasher = hash.build_hasher();
    for value in values {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    /// Hashes every key alike: every row of an index under it collides.
    #[derive(Default)]
    struct Collide;

    impl Hasher for Collide {
        fn write(&mut self, _: &[u8]) {}

        fn finish(&self) -> u64 {
            7
        }
    }

    type Colliding = HashIndex<BuildHasherDefault<Collide>>;

    fn probe<S: BuildHasher + Default>(index: &HashIndex<S>, key: i64) -> Vec<Tuple> {
        index.get(&[Value::Int(key)]).cloned().collect()
    }

    #[test]
    fn colliding_keys_share_a_bucket_but_never_each_others_rows() {
        let (a1, a2, a3) = (tuple![1i64, "a1"], tuple![1i64, "a2"], tuple![1i64, "a3"]);
        let (b1, b2) = (tuple![2i64, "b1"], tuple![2i64, "b2"]);
        let mut index = Colliding::build(&[0], [&a1, &b1, &a2, &b2, &a3].into_iter());
        assert_eq!(index.buckets.len(), 1, "one hash for both keys");
        assert_eq!(probe(&index, 1), [a1.clone(), a2.clone(), a3.clone()]);
        assert_eq!(probe(&index, 2), [b1.clone(), b2.clone()]);
        assert!(probe(&index, 3).is_empty());

        // Removing one key's row: its last row takes the gap, as a
        // `swap_remove` of that key's own list would; the other key's rows
        // keep their order.
        index.remove(&a1);
        assert_eq!(probe(&index, 1), [a3.clone(), a2.clone()]);
        assert_eq!(probe(&index, 2), [b1.clone(), b2.clone()]);
        index.remove(&tuple![1i64, "absent"]);
        assert_eq!(index.buckets[&7].rows().len(), 4);

        // The canonical form groups by the real key values.
        assert_eq!(
            index.canonical(),
            vec![
                (vec![Value::Int(1)], vec![a2.clone(), a3.clone()]),
                (vec![Value::Int(2)], vec![b1.clone(), b2.clone()]),
            ]
        );
        let rebuilt = Colliding::build(&[0], [&b1, &a2, &a3, &b2].into_iter());
        assert_eq!(index.canonical(), rebuilt.canonical());

        index.remove(&a2);
        index.remove(&a3);
        assert!(probe(&index, 1).is_empty());
        assert_eq!(probe(&index, 2), [b1.clone(), b2.clone()]);
        index.remove(&b1);
        assert!(matches!(index.buckets[&7], Bucket::One(ref row) if *row == b2));
        index.remove(&b2);
        assert!(index.buckets.is_empty());
    }

    #[test]
    fn a_key_with_one_row_is_one_handle() {
        let rows: Vec<Tuple> = (0..8i64).map(|k| tuple![k, "x"]).collect();
        let mut index = HashIndex::<RowHash>::build(&[0], rows.iter());
        assert!(index.buckets.values().all(|b| matches!(b, Bucket::One(_))));
        // A second row of a key turns its bucket into a list, and back.
        let twin = tuple![3i64, "y"];
        index.insert(&twin);
        assert_eq!(probe(&index, 3), [rows[3].clone(), twin.clone()]);
        index.remove(&rows[3]);
        assert_eq!(probe(&index, 3), [twin]);
        assert!(index.buckets.values().all(|b| matches!(b, Bucket::One(_))));
        assert_eq!(index.buckets.len(), 8);
    }

    #[test]
    fn a_misfiled_row_is_left_out_of_the_canonical_form() {
        let (a, b) = (tuple![1i64, "a"], tuple![2i64, "b"]);
        let mut index = HashIndex::<RowHash>::build(&[0], [&a].into_iter());
        let rebuilt = HashIndex::<RowHash>::build(&[0], [&a, &b].into_iter());
        // `b` under `a`'s hash: no probe for key 2 can find it.
        let hash = index.row_hash(&a);
        index.buckets.insert(hash, Bucket::Many(vec![a.clone(), b]));
        assert!(probe(&index, 2).is_empty());
        assert_ne!(index.canonical(), rebuilt.canonical());
    }

    #[test]
    fn short_rows_match_no_key() {
        // Δ rows are not schema-checked: one without the key column is
        // indexed but no probe yields it.
        let short = tuple![5i64];
        let index = HashIndex::<RowHash>::build(&[0, 1], [&short].into_iter());
        assert_eq!(index.get(&[Value::Int(5)]).count(), 0);
        assert_eq!(index.get(&[Value::Int(5), Value::Null]).count(), 0);
    }
}
