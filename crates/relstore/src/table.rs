//! Counted tables (bag relations with derivation counts).

use crate::error::{RelError, RelResult};
use crate::index::HashIndex;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::btree_map::{self, Entry};
use std::collections::BTreeMap;
use std::iter::Peekable;
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
/// Rows are kept in tuple order — one sorted run plus a small ordered
/// overlay — so iteration order is the tuple order and every
/// downstream consumer (view maintenance, grounding, variable/weight id
/// assignment) is deterministic per seed, which the samplers' "runs are
/// reproducible" guarantee depends on.  A `HashMap` here made grounding order
/// — and therefore learned models — vary per *process*.
///
/// A point lookup ([`Table::count`]) or a write costs a binary search of
/// the run's keys — a dense array of one `u64` per row — that reads one
/// row, the one it lands on (see `Rows`); query execution streams its
/// lookups through a cursor, so lookups that arrive in tuple order cost a
/// few comparisons each.
///
/// Query execution probes the table through secondary hash indexes keyed by
/// column set.  An index is built on the first probe that needs it and
/// from then on maintained by every mutation, so a join against an unchanged
/// table costs the rows it touches, not the rows the table holds.  An index
/// files each row's handle under the hash of its key columns — one handle
/// per bucket while a key has one row — and copies no key values (see
/// `index.rs`).  Indexes are derived state: a clone starts without them and
/// they are never part of a persisted table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Rows,
    /// Number of rows with a positive count.
    present: usize,
    indexes: Indexes,
}

/// The overlay is merged into the run once it holds more than
/// `1 / OVERLAY_FRACTION` of the run's rows …
const OVERLAY_FRACTION: usize = 8;
/// … or once more than `1 / TOMBSTONE_FRACTION` of the run is tombstones,
/// which the same merge compacts away.
const TOMBSTONE_FRACTION: usize = 4;
/// Below this many pending rows (overlay or tombstones) nothing is merged:
/// a small table's overlay costs less than rewriting its run.
const MIN_PENDING: usize = 32;

/// A table's stored rows: every `(tuple, net count)` with a non-zero count,
/// in tuple order, split over two ordered parts.
///
/// * `run` — a tuple-sorted vector.  A tuple greater than the run's last is
///   pushed: rows that arrive in order (bulk loads, query results, a
///   partition's slice, a checkpoint's tables) cost one comparison each.  A
///   count that drops to zero stays in place as a *tombstone* (count 0), so
///   deleting and re-inserting a row moves nothing.
/// * `overlay` — the tuples that arrived below the run's last one.  Every
///   overlay key sorts before the run's last tuple, and no key is in both.
///
/// Once the overlay or the tombstones pass a fixed fraction of the run, one
/// linear merge folds the overlay in and drops the tombstones.  Each row
/// that ever entered the overlay is thereby copied a bounded number of
/// times, amortised.  A point lookup is one search of the run plus, only
/// for tuples not in it, one probe of the small overlay.  The search
/// compares each entry's 64-bit [`abbreviate`] key first and reads row
/// values only where keys tie, which for rows led by an integer below 2³¹
/// takes equal first *and* second values; it is a binary search for a
/// lookup of its own, and a gallop of a few entries from the last hit for
/// a stream of lookups in tuple order ([`Cursor`]).  The keys live in an
/// array of their own, eight to a cache line, so a search reads one run
/// entry — the one it lands on — and otherwise stays in a quarter of the
/// run's memory.
#[derive(Debug, Clone, Default)]
struct Rows {
    /// [`abbreviate`]`(row)` of each run entry, in run order.
    keys: Vec<u64>,
    run: Vec<RunEntry>,
    overlay: BTreeMap<Tuple, i64>,
    /// Number of count-0 entries in `run`.
    tombstones: usize,
}

/// One row of the run.
#[derive(Debug, Clone)]
struct RunEntry {
    row: Tuple,
    count: i64,
}

/// First values in `-SMALL_INT..SMALL_INT` leave room in the key for the
/// row's second value.
const SMALL_INT: i64 = 1 << 31;
/// First values beyond ±2⁶⁰ abbreviate alike.
const INT_SPAN: i64 = 1 << 60;
/// Where each kind of first value starts in the key space, in [`Value`]'s
/// cross-type order: 0 is the empty row, 1 `Null`, 2 and 3 the booleans.
const KEY_INT_BELOW: u64 = 4;
const KEY_SMALL_INT: u64 = KEY_INT_BELOW + (INT_SPAN - SMALL_INT) as u64;
const KEY_INT_ABOVE: u64 = KEY_SMALL_INT + (1 << 63);
const KEY_FLOAT: u64 = KEY_INT_ABOVE + (INT_SPAN - SMALL_INT) as u64;
const KEY_TEXT: u64 = KEY_FLOAT + 1;

/// An order-preserving 64-bit abbreviation of a row — Postgres's
/// "abbreviated keys": `a < b` implies `abbreviate(a) <= abbreviate(b)`, so
/// unequal abbreviations order two rows without reading either.  The key
/// space is cut into consecutive ranges, one per kind of first value in
/// [`Value`]'s cross-type order: the empty row, `Null`, a boolean, an
/// integer — exact when below 2⁶⁰ in magnitude, clamped beyond — a float
/// (all alike), a string's first 7 bytes.  An integer in `i32`'s range
/// owns 2³¹ consecutive keys, told apart by [`abbreviate_second`] of the
/// row's second value, so rows led by ids that repeat (a document, a
/// sentence) still abbreviate apart.
fn abbreviate(values: &[Value]) -> u64 {
    match values.first() {
        None => 0,
        Some(Value::Null) => 1,
        Some(Value::Bool(b)) => 2 + u64::from(*b),
        Some(Value::Int(i)) if *i < -SMALL_INT => {
            KEY_INT_BELOW + ((*i).max(-INT_SPAN) + INT_SPAN) as u64
        }
        Some(Value::Int(i)) if *i < SMALL_INT => {
            KEY_SMALL_INT + ((((i + SMALL_INT) as u64) << 31) | abbreviate_second(values.get(1)))
        }
        Some(Value::Int(i)) => KEY_INT_ABOVE + ((*i).min(INT_SPAN - 1) - SMALL_INT) as u64,
        Some(Value::Float(_)) => KEY_FLOAT,
        Some(Value::Text(s)) => KEY_TEXT + text_prefix::<7>(s),
    }
}

/// A row's second value (`None` for a one-value row) abbreviated to 31
/// bits, order-preserving the same way: three bits of type rank — a
/// missing value first, as a shorter row sorts first — and 28 of payload:
/// an integer exact below 2²⁷ in magnitude, a string's first 3 bytes, a
/// boolean; floats alike.
fn abbreviate_second(value: Option<&Value>) -> u64 {
    const SPAN: i64 = 1 << 27;
    let (rank, payload) = match value {
        None => (0, 0),
        Some(Value::Null) => (1, 0),
        Some(Value::Bool(b)) => (2, u64::from(*b)),
        Some(Value::Int(i)) => (3, ((*i).clamp(-SPAN, SPAN - 1) + SPAN) as u64),
        Some(Value::Float(_)) => (4, 0),
        Some(Value::Text(s)) => (5, text_prefix::<3>(s)),
    };
    (rank << 28) | payload
}

/// The first `N` (at most 8) bytes of `s` as a big-endian number,
/// zero-padded: shorter strings and smaller bytes come first, as in
/// `str`'s order.
fn text_prefix<const N: usize>(s: &str) -> u64 {
    let mut head = [0u8; 8];
    let n = s.len().min(N);
    head[..n].copy_from_slice(&s.as_bytes()[..n]);
    u64::from_be_bytes(head) >> (64 - 8 * N)
}

/// Where a tuple is, or would go.
enum Slot {
    /// Position in the run (possibly a tombstone).
    Run(usize),
    /// Below the run's last tuple but not in the run: in the overlay or
    /// absent.
    Overlay,
    /// Past the run's last tuple (or the table is empty): absent, and
    /// appended, with this [`abbreviate`] key, when it arrives.
    Append(u64),
}

/// A stream of point lookups into one table: remembers where the last one
/// landed in the run, so a lookup ahead of it gallops forward from there —
/// a few comparisons for a stream that arrives in tuple order — instead of
/// binary-searching the whole run.  A lookup behind it searches only what
/// precedes it.  Any position gives the right answer, so one cursor may
/// follow a table through mutations, or even move to another table; it
/// only stops saving work.  A new cursor starts at the front.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor(usize);

impl Cursor {
    /// A lookup of its own: a probe past the run's last entry costs one
    /// comparison, any other a binary search of the run.
    fn one_off() -> Self {
        Cursor(usize::MAX)
    }
}

impl Rows {
    /// Find `values`, searching from `cursor` on if the probe is past the
    /// entry before it and among the entries before it otherwise, and
    /// leave the cursor where the probe landed: every entry before it
    /// orders below the probe.
    fn locate(&self, values: &[Value], cursor: &mut Cursor) -> Slot {
        let key = abbreviate(values);
        let (keys, run) = (&self.keys, &self.run);
        let order = |at: usize| {
            keys[at]
                .cmp(&key)
                .then_with(|| run[at].row.values().cmp(values))
        };
        let from = cursor.0.min(run.len());
        let found = if from == 0 || order(from - 1) == Ordering::Less {
            gallop(from, run.len(), order)
        } else {
            search(0, from, order)
        };
        match found {
            Ok(at) => {
                cursor.0 = at;
                Slot::Run(at)
            }
            Err(at) => {
                cursor.0 = at;
                if at == run.len() {
                    Slot::Append(key)
                } else {
                    Slot::Overlay
                }
            }
        }
    }

    fn count_of(&self, values: &[Value], cursor: &mut Cursor) -> i64 {
        match self.locate(values, cursor) {
            Slot::Run(at) => self.run[at].count,
            Slot::Overlay => self.overlay.get(values).copied().unwrap_or(0),
            Slot::Append(_) => 0,
        }
    }

    fn needs_merge(&self) -> bool {
        let pending = |fraction: usize| MIN_PENDING.max(self.run.len() / fraction);
        self.overlay.len() > pending(OVERLAY_FRACTION)
            || self.tombstones > pending(TOMBSTONE_FRACTION)
    }

    /// Fold the overlay into the run and drop the tombstones: one linear
    /// merge of two ordered sequences.
    fn merge(&mut self) {
        let keys = std::mem::take(&mut self.keys);
        let run = std::mem::take(&mut self.run);
        let mut overlay = std::mem::take(&mut self.overlay).into_iter().peekable();
        let capacity = run.len() - self.tombstones + overlay.len();
        self.keys.reserve_exact(capacity);
        self.run.reserve_exact(capacity);
        for (key, entry) in keys.into_iter().zip(run).filter(|(_, e)| e.count != 0) {
            while let Some((row, count)) = overlay.next_if(|(t, _)| *t < entry.row) {
                self.push(row, count);
            }
            self.keys.push(key);
            self.run.push(entry);
        }
        for (row, count) in overlay {
            self.push(row, count);
        }
        self.tombstones = 0;
    }

    /// Append a row past the run's last.
    fn push(&mut self, row: Tuple, count: i64) {
        self.keys.push(abbreviate(row.values()));
        self.run.push(RunEntry { row, count });
    }

    fn iter(&self) -> RowsIter<'_> {
        RowsIter {
            run: self.run.iter(),
            overlay: self.overlay.iter().peekable(),
        }
    }
}

/// Binary search of the entries `lo..hi`, `order(at)` comparing entry
/// `at` with the probe: `Ok` where it is equal, `Err` where it would go —
/// `slice::binary_search_by` over positions instead of elements.
fn search(lo: usize, hi: usize, order: impl Fn(usize) -> Ordering) -> Result<usize, usize> {
    let (mut base, mut size) = (lo, hi - lo);
    if size == 0 {
        return Err(lo);
    }
    while size > 1 {
        let half = size / 2;
        if order(base + half) != Ordering::Greater {
            base += half;
        }
        size -= half;
    }
    match order(base) {
        Ordering::Equal => Ok(base),
        Ordering::Less => Err(base + 1),
        Ordering::Greater => Err(base),
    }
}

/// Exponential search of the entries `from..len`, all before `from`
/// ordering below the probe: probe `from`, `from + 1`, `from + 3`,
/// `from + 7`, … until an entry does not order below, then binary-search
/// the last stride.  `O(log d)` comparisons for an answer `d` entries on.
fn gallop(from: usize, len: usize, order: impl Fn(usize) -> Ordering) -> Result<usize, usize> {
    let (mut lo, mut hi, mut stride) = (from, from, 1);
    while hi < len && order(hi) == Ordering::Less {
        lo = hi + 1;
        hi += stride;
        stride *= 2;
    }
    search(lo, len.min(hi + 1), order)
}

/// The stored rows of a [`Table`] in tuple order: the run and the overlay
/// merged on the fly, tombstones skipped.
struct RowsIter<'a> {
    run: std::slice::Iter<'a, RunEntry>,
    overlay: Peekable<btree_map::Iter<'a, Tuple, i64>>,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = (&'a Tuple, i64);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let next_run = self.run.as_slice().first();
            let (row, count) = match self.overlay.peek() {
                Some(&(earlier, &count)) if next_run.is_none_or(|e| *earlier < e.row) => {
                    self.overlay.next();
                    (earlier, count)
                }
                _ => self.run.next().map(|e| (&e.row, e.count))?,
            };
            if count != 0 {
                return Some((row, count));
            }
        }
    }
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

    /// Register a row the table just started storing.
    fn insert(&mut self, row: &Tuple) {
        for index in self.get_mut() {
            Arc::make_mut(index).insert(row);
        }
    }

    /// Forget a row the table stopped storing.
    fn remove(&mut self, row: &Tuple) {
        for index in self.get_mut() {
            Arc::make_mut(index).remove(row);
        }
    }
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Rows::default(),
            present: 0,
            indexes: Indexes::default(),
        }
    }

    /// A table over rows already in tuple order, distinct, with positive
    /// counts (a query result): they become the run as they are.
    pub(crate) fn from_sorted_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<(Tuple, i64)>,
    ) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(rows.iter().all(|(_, count)| *count > 0));
        Table {
            present: rows.len(),
            rows: Rows {
                keys: rows
                    .iter()
                    .map(|(row, _)| abbreviate(row.values()))
                    .collect(),
                run: rows
                    .into_iter()
                    .map(|(row, count)| RunEntry { row, count })
                    .collect(),
                ..Rows::default()
            },
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

    /// Add `change(current count)` to a tuple's count and return the change.
    /// Every mutation of the rows goes through here, which is what keeps
    /// the presence counters, the tombstone count and the indexes in step.
    fn merge_with(&mut self, tuple: Tuple, change: impl FnOnce(i64) -> i64) -> i64 {
        let rows = &mut self.rows;
        let (before, after) = match rows.locate(tuple.values(), &mut Cursor::one_off()) {
            Slot::Append(key) => {
                let after = change(0);
                if after != 0 {
                    self.indexes.insert(&tuple);
                    rows.keys.push(key);
                    rows.run.push(RunEntry {
                        row: tuple,
                        count: after,
                    });
                }
                (0, after)
            }
            Slot::Run(at) => {
                let entry = &mut rows.run[at];
                let before = entry.count;
                let after = before + change(before);
                entry.count = after;
                if before == 0 && after != 0 {
                    rows.tombstones -= 1;
                    self.indexes.insert(&entry.row);
                } else if before != 0 && after == 0 {
                    rows.tombstones += 1;
                    self.indexes.remove(&entry.row);
                }
                (before, after)
            }
            Slot::Overlay => match rows.overlay.entry(tuple) {
                Entry::Occupied(mut e) => {
                    let before = *e.get();
                    let after = before + change(before);
                    if after == 0 {
                        let (row, _) = e.remove_entry();
                        self.indexes.remove(&row);
                    } else {
                        *e.get_mut() = after;
                    }
                    (before, after)
                }
                Entry::Vacant(e) => {
                    let after = change(0);
                    if after != 0 {
                        self.indexes.insert(e.key());
                        e.insert(after);
                    }
                    (0, after)
                }
            },
        };
        if rows.needs_merge() {
            rows.merge();
        }
        if before > 0 {
            self.present -= 1;
        }
        if after > 0 {
            self.present += 1;
        }
        after - before
    }

    /// Delete one derivation of a tuple.  Returns `true` if the tuple was present.
    pub fn delete(&mut self, tuple: &Tuple) -> bool {
        self.merge_with(tuple.clone(), |count| -i64::from(count > 0)) != 0
    }

    /// Remove all derivations of a tuple, returning the previous count.
    #[cfg(test)]
    pub(crate) fn remove_all(&mut self, tuple: &Tuple) -> i64 {
        -self.merge_with(tuple.clone(), |count| -count)
    }

    /// Current multiplicity of a tuple (0 when absent).
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.count_of(tuple.values())
    }

    /// [`Table::count`] for a row given as a value slice (no tuple is built).
    pub(crate) fn count_of(&self, values: &[Value]) -> i64 {
        self.rows.count_of(values, &mut Cursor::one_off())
    }

    /// [`Table::count_of`] as one of a stream of lookups, searching from
    /// where `cursor` left the previous one (see [`Cursor`]).
    pub(crate) fn count_at(&self, values: &[Value], cursor: &mut Cursor) -> i64 {
        self.rows.count_of(values, cursor)
    }

    /// True if the tuple is present with positive multiplicity.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.count(tuple) > 0
    }

    /// Iterate over present tuples (count > 0).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.iter_counted().map(|(t, _)| t)
    }

    /// Iterate over every stored `(tuple, net count)` pair, *including*
    /// negative (over-deleted) counts — exact-state access for persistence.
    /// Zero counts (tombstones) are skipped, so every yielded count is
    /// non-zero.
    pub fn iter_net_counted(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.rows.iter()
    }

    /// Iterate over `(tuple, count)` pairs with positive count.
    pub fn iter_counted(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.rows.iter().filter(|(_, c)| *c > 0)
    }

    /// Collect all present tuples into a vector (sorted, which is also the
    /// natural iteration order of the stored rows).
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }

    /// Remove every tuple.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.rows = Rows::default();
        self.present = 0;
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
        let index = Arc::new(HashIndex::build(cols, self.stored_rows()));
        list.push(Arc::clone(&index));
        index
    }

    /// Compare every maintained index with one rebuilt from the stored rows.
    /// Returns the number of indexes checked, or the column set of the first
    /// one that has drifted — an invariant probe for tests.
    pub fn verify_indexes(&self) -> Result<usize, Vec<usize>> {
        let list = self.indexes.0.read().unwrap_or_else(|e| e.into_inner());
        for index in list.iter() {
            let rebuilt = <HashIndex>::build(index.cols(), self.stored_rows());
            if index.canonical() != rebuilt.canonical() {
                return Err(index.cols().to_vec());
            }
        }
        Ok(list.len())
    }

    /// Drop the secondary indexes — derived state: the next probe rebuilds
    /// the one it needs — and return the number of row handles they held.
    pub fn drop_indexes(&mut self) -> usize {
        std::mem::take(self.indexes.get_mut())
            .iter()
            .map(|index| index.len())
            .sum()
    }

    /// Every stored row (non-zero count): what the indexes mirror.
    fn stored_rows(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter().map(|(t, _)| t)
    }

    /// Bulk-load tuples with count 1 (schema-checked, stops at the first error).
    pub(crate) fn extend<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I) -> RelResult<usize> {
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

    /// Sum of the positive counts.
    fn total(t: &Table) -> i64 {
        t.iter_counted().map(|(_, count)| count).sum()
    }

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
        assert_eq!(total(&t), 2);

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
        assert_eq!((t.len(), total(&t)), (2, 4));
        assert_eq!(t.iter_net_counted().count(), 3);
        t.insert_with_count(tuple![2i64, 12i64], 3).unwrap();
        assert_eq!((t.len(), total(&t)), (3, 5));
        assert!(t.delete(&tuple![1i64, 10i64]));
        assert_eq!((t.len(), total(&t)), (3, 4));
        assert_eq!(t.remove_all(&tuple![1i64, 10i64]), 2);
        assert_eq!((t.len(), total(&t)), (2, 2));
        t.clear();
        assert_eq!((t.len(), total(&t)), (0, 0));
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
        assert_eq!(t.index(&[0]).get(&[Value::Int(1)]).count(), 2);
        assert_eq!(t.verify_indexes(), Ok(1));

        t.insert(tuple![1i64, 13i64]).unwrap();
        t.insert(tuple![1i64, 13i64]).unwrap();
        assert!(t.delete(&tuple![1i64, 10i64]));
        t.remove_all(&tuple![2i64, 12i64]);
        let index = t.index(&[0]);
        assert_eq!(index.get(&[Value::Int(1)]).count(), 2);
        assert_eq!(index.get(&[Value::Int(2)]).count(), 0);
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
    fn in_order_rows_append_and_stragglers_wait_in_the_overlay() {
        let mut t = people();
        for i in 0..100i64 {
            t.insert(tuple![i, 0i64]).unwrap();
        }
        assert_eq!((t.rows.run.len(), t.rows.overlay.len()), (100, 0));
        // Below the run's last tuple: the overlay, until it passes its share.
        for i in 0..MIN_PENDING as i64 {
            t.insert(tuple![i, 1i64]).unwrap();
        }
        assert_eq!((t.rows.run.len(), t.rows.overlay.len()), (100, MIN_PENDING));
        t.insert(tuple![50i64, 2i64]).unwrap();
        assert_eq!((t.rows.run.len(), t.rows.overlay.len()), (133, 0));
        // A deleted row stays as a tombstone and is revived in place.
        assert!(t.delete(&tuple![7i64, 0i64]));
        assert_eq!((t.rows.run.len(), t.rows.tombstones), (133, 1));
        t.insert(tuple![7i64, 0i64]).unwrap();
        assert_eq!((t.rows.run.len(), t.rows.tombstones), (133, 0));
        assert_eq!(t.len(), 133);
        assert!(t.sorted_tuples().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn floats_are_ordered_as_their_bits_are_compared() {
        let mut t = Table::new("Floats", Schema::of(&[("x", DataType::Float)]));
        let row = |x: f64| Tuple::new(vec![Value::Float(x)]);
        // -0.0 and 0.0 are unequal tuples, so they are two rows ...
        t.insert(row(0.0)).unwrap();
        t.insert(row(-0.0)).unwrap();
        assert_eq!(
            (t.len(), t.count(&row(0.0)), t.count(&row(-0.0))),
            (2, 1, 1)
        );
        // ... and a NaN is not merged into the row before it.
        t.insert(row(1.0)).unwrap();
        t.insert(row(f64::NAN)).unwrap();
        assert_eq!((t.count(&row(1.0)), t.count(&row(f64::NAN))), (1, 1));
        assert_eq!(t.len(), 4);
        let bits: Vec<u64> = t
            .iter()
            .map(|r| r.values()[0].as_float().expect("a float").to_bits())
            .collect();
        let expected = [-0.0, 0.0, 1.0, f64::NAN].map(f64::to_bits);
        assert_eq!(bits, expected);
    }

    /// The first-value abbreviation the run's keys refine: a key may tell
    /// more rows apart than this, never fewer.
    fn first_value_key(values: &[Value]) -> u64 {
        let (rank, payload) = match values.first() {
            None => (0, 0),
            Some(Value::Null) => (1, 0),
            Some(Value::Bool(b)) => (2, u64::from(*b)),
            Some(Value::Int(i)) => (3, ((*i).clamp(-INT_SPAN, INT_SPAN - 1) + INT_SPAN) as u64),
            Some(Value::Float(_)) => (4, 0),
            Some(Value::Text(s)) => (5, text_prefix::<7>(s)),
        };
        (rank << 61) | payload
    }

    /// Rows over every kind of first and second value, at and across the
    /// edges of the key's ranges.
    fn edge_rows() -> Vec<Tuple> {
        let (big, small, span2) = (INT_SPAN, SMALL_INT, 1i64 << 27);
        let ints = |edges: &[i64]| -> Vec<Value> {
            let mut out: Vec<Value> = edges
                .iter()
                .flat_map(|&e| [e.saturating_sub(1), e, e.saturating_add(1)])
                .map(Value::Int)
                .collect();
            out.extend([i64::MIN, i64::MAX, 0, 7].map(Value::Int));
            out
        };
        let floats = [-2.5, -0.0, 0.0, 0.5, f64::NAN].map(Value::Float);
        let texts = [
            "", "a", "ab\u{0}", "abc", "abd", "abcdefg", "abcdefgh", "abcdefgz", "b",
        ]
        .map(Value::text);
        let others = [Value::Null, Value::Bool(false), Value::Bool(true)];
        let firsts: Vec<Value> = others
            .iter()
            .cloned()
            .chain(ints(&[-big, -small, small, big]))
            .chain(floats.iter().cloned())
            .chain(texts.iter().cloned())
            .collect();
        let seconds: Vec<Value> = others
            .iter()
            .cloned()
            .chain(ints(&[-span2, span2]))
            .chain(floats.iter().cloned())
            .chain(texts.iter().cloned())
            .collect();
        let mut rows: Vec<Tuple> = vec![Tuple::new(Vec::new())];
        for first in &firsts {
            rows.push(Tuple::new(vec![first.clone()]));
            for second in &seconds {
                rows.push(Tuple::new(vec![first.clone(), second.clone()]));
            }
            rows.push(Tuple::new(vec![
                first.clone(),
                Value::Int(1),
                Value::Int(-3),
            ]));
            rows.push(Tuple::new(vec![
                first.clone(),
                Value::Int(1),
                Value::text("x"),
            ]));
        }
        rows
    }

    #[test]
    fn abbreviations_never_contradict_the_row_order() {
        let mut rows = edge_rows();
        rows.sort();
        rows.dedup();
        let keys: Vec<(u64, u64)> = rows
            .iter()
            .map(|r| (abbreviate(r.values()), first_value_key(r.values())))
            .collect();
        // Sorted rows: every later row is greater, so its key must not be
        // smaller, and wherever the first-value key already tells two rows
        // apart the key does too.
        for (i, (a, (key_a, first_a))) in rows.iter().zip(&keys).enumerate() {
            for (b, (key_b, first_b)) in rows[i + 1..].iter().zip(&keys[i + 1..]) {
                assert!(key_a <= key_b, "{a} < {b} but their abbreviations disagree");
                if first_a < first_b {
                    assert!(
                        key_a < key_b,
                        "{a} and {b} abbreviate alike, which they did not"
                    );
                }
            }
        }
        // Rows led by a small integer abbreviate apart by their second
        // value as well.
        let led_by = |first: i64, second: Value| abbreviate(&[Value::Int(first), second]);
        for first in [-SMALL_INT, -1, 0, 499, SMALL_INT - 1] {
            assert!(led_by(first, Value::Int(0)) < led_by(first, Value::Int(1)));
            assert!(led_by(first, Value::Bool(true)) < led_by(first, Value::Int(-1)));
            assert!(led_by(first, Value::text("ab")) < led_by(first, Value::text("b")));
        }
        // Every row is found again, whatever order it arrived in, by
        // one-off lookups and by cursor streams in and against tuple order.
        let mut t = Table::new("Mixed", Schema::new(Vec::new()));
        for (i, row) in rows.iter().enumerate().rev() {
            t.merge_unchecked(row.clone(), i as i64 + 1);
        }
        let mut ascending = Cursor::default();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(t.count(row), i as i64 + 1, "{row}");
            assert_eq!(
                t.count_at(row.values(), &mut ascending),
                i as i64 + 1,
                "{row}"
            );
        }
        let mut descending = Cursor::default();
        for (i, row) in rows.iter().enumerate().rev() {
            assert_eq!(
                t.count_at(row.values(), &mut descending),
                i as i64 + 1,
                "{row}"
            );
        }
        assert_eq!(t.sorted_tuples(), rows);
    }

    /// Differential oracle for the run + overlay storage: seeded op
    /// sequences against a `BTreeMap<Tuple, i64>` — the storage the table
    /// used to be — with every observable compared after every op.
    mod storage_oracle {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Random tuples draw both columns from `0..DOMAIN`; in-order
        /// appends use first columns from `DOMAIN` up, past all of them.
        const DOMAIN: i64 = 48;

        /// What the sequences exercised, asserted over a whole run.
        #[derive(Debug, Default)]
        struct Coverage {
            appends: usize,
            overlay_merges: usize,
            compactions: usize,
            revivals: usize,
            over_deletes: usize,
            clears: usize,
            indexes: usize,
        }

        /// Apply `change` to the model the way `merge_with` applies it to
        /// the table, returning the change.
        fn apply(
            model: &mut BTreeMap<Tuple, i64>,
            t: &Tuple,
            change: impl FnOnce(i64) -> i64,
        ) -> i64 {
            let before = model.get(t).copied().unwrap_or(0);
            let after = before + change(before);
            if after == 0 {
                model.remove(t);
            } else {
                model.insert(t.clone(), after);
            }
            after - before
        }

        /// The storage's own invariants.
        fn check_invariants(rows: &Rows) {
            assert!(
                rows.run.windows(2).all(|w| w[0].row < w[1].row),
                "run out of order"
            );
            assert!(
                rows.keys.len() == rows.run.len()
                    && rows
                        .keys
                        .iter()
                        .zip(&rows.run)
                        .all(|(&key, e)| key == abbreviate(e.row.values())),
                "stale abbreviation"
            );
            let zeros = rows.run.iter().filter(|e| e.count == 0).count();
            assert_eq!(zeros, rows.tombstones, "tombstone count");
            assert!(rows.overlay.values().all(|c| *c != 0), "zero in overlay");
            if let Some(last) = rows.run.last() {
                assert!(
                    rows.overlay.keys().all(|k| *k < last.row),
                    "overlay past the run"
                );
            } else {
                assert!(rows.overlay.is_empty(), "overlay without a run");
            }
            for key in rows.overlay.keys() {
                assert!(rows.run.binary_search_by(|e| e.row.cmp(key)).is_err());
            }
        }

        fn assert_matches(
            table: &Table,
            model: &BTreeMap<Tuple, i64>,
            probes: &[&Tuple],
            indexes: usize,
            at: &str,
        ) {
            check_invariants(&table.rows);
            assert!(
                table
                    .iter_net_counted()
                    .eq(model.iter().map(|(t, c)| (t, *c))),
                "iter_net_counted {at}"
            );
            let present: Vec<(&Tuple, i64)> = model
                .iter()
                .filter(|(_, c)| **c > 0)
                .map(|(t, c)| (t, *c))
                .collect();
            assert!(
                table.iter_counted().eq(present.iter().copied()),
                "iter_counted {at}"
            );
            assert!(
                table.iter().eq(present.iter().map(|(t, _)| *t)),
                "iter {at}"
            );
            assert_eq!(table.len(), present.len(), "len {at}");
            for t in probes {
                let expected = model.get(*t).copied().unwrap_or(0);
                assert_eq!(table.count(t), expected, "count of {t} {at}");
            }
            // The same probes as cursor streams: in tuple order (the cursor
            // gallops ahead), against it (it searches behind itself), and
            // as given (both).
            let mut ascending = probes.to_vec();
            ascending.sort();
            let descending: Vec<&Tuple> = ascending.iter().rev().copied().collect();
            for (order, stream) in [
                ("ascending", &ascending),
                ("descending", &descending),
                ("as given", &probes.to_vec()),
            ] {
                let mut cursor = Cursor::default();
                for t in stream {
                    let expected = model.get(*t).copied().unwrap_or(0);
                    let found = table.count_at(t.values(), &mut cursor);
                    assert_eq!(found, expected, "{order} cursor count of {t} {at}");
                }
            }
            assert_eq!(table.verify_indexes(), Ok(indexes), "indexes {at}");
        }

        fn run_sequence(seed: u64, ops: usize, cov: &mut Coverage) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = people();
            let mut model: BTreeMap<Tuple, i64> = BTreeMap::new();
            let mut next_append = DOMAIN;
            let mut removed: Vec<Tuple> = Vec::new();
            let mut indexed: Vec<Vec<usize>> = Vec::new();
            let mut carried = Cursor::default();
            for step in 0..ops {
                let at = format!("(seed {seed}, step {step})");
                let (overlay_before, tombstones_before) =
                    (table.rows.overlay.len(), table.rows.tombstones);
                let random = tuple![rng.gen_range(0..DOMAIN), rng.gen_range(0..DOMAIN)];
                let stored = match model.len() {
                    0 => random.clone(),
                    n => model
                        .keys()
                        .nth(rng.gen_range(0..n))
                        .cloned()
                        .expect("in range"),
                };
                // Growth and shrinking phases alternate, so sequences cross
                // both the overlay-merge and the tombstone threshold.
                let shrinking = (step / 200) % 2 == 1;
                let roll = rng.gen_range(0..1000) + if shrinking { 400 } else { 0 };
                let count = rng.gen_range(1..3i64);
                let touched = match roll {
                    0..=2 => {
                        table.clear();
                        model.clear();
                        removed.clear();
                        indexed.clear();
                        cov.clears += 1;
                        random
                    }
                    3..=299 => {
                        let t = tuple![next_append, rng.gen_range(0..DOMAIN)];
                        next_append += 1;
                        cov.appends += 1;
                        table.insert_with_count(t.clone(), count).unwrap();
                        apply(&mut model, &t, |_| count);
                        t
                    }
                    300..=549 => {
                        table.insert_with_count(random.clone(), count).unwrap();
                        apply(&mut model, &random, |_| count);
                        random
                    }
                    550..=649 => {
                        let inserted = table.insert_if_absent(random.clone()).unwrap();
                        let change = apply(&mut model, &random, |c| i64::from(c <= 0));
                        assert_eq!(inserted, change != 0, "insert_if_absent {at}");
                        random
                    }
                    650..=699 => {
                        let t = match removed.len() {
                            0 => random,
                            n => removed[rng.gen_range(0..n)].clone(),
                        };
                        if matches!(table.rows.locate(t.values(), &mut Cursor::one_off()), Slot::Run(i) if table.rows.run[i].count == 0)
                        {
                            cov.revivals += 1;
                        }
                        table.insert(t.clone()).unwrap();
                        apply(&mut model, &t, |_| 1);
                        t
                    }
                    700..=759 => {
                        let cols = if rng.gen_bool(0.5) { vec![0] } else { vec![1] };
                        table.index(&cols);
                        if !indexed.contains(&cols) {
                            indexed.push(cols);
                            cov.indexes += 1;
                        }
                        stored
                    }
                    760..=899 => {
                        let previous = table.remove_all(&stored);
                        assert_eq!(
                            previous,
                            -apply(&mut model, &stored, |c| -c),
                            "remove_all {at}"
                        );
                        removed.push(stored.clone());
                        stored
                    }
                    900..=1099 => {
                        let deleted = table.delete(&stored);
                        let change = apply(&mut model, &stored, |c| -i64::from(c > 0));
                        assert_eq!(deleted, change != 0, "delete {at}");
                        if !model.contains_key(&stored) {
                            removed.push(stored.clone());
                        }
                        stored
                    }
                    _ => {
                        // An over-delete: a negative count, stored but not present.
                        let t = if rng.gen_bool(0.5) { stored } else { random };
                        table.insert_with_count(t.clone(), -count).unwrap();
                        apply(&mut model, &t, |_| -count);
                        if model.get(&t).is_some_and(|c| *c < 0) {
                            cov.over_deletes += 1;
                        }
                        t
                    }
                };
                // One op moves the overlay or the tombstones by at most one,
                // so both emptying at once from two or more is a merge.
                let rows = &table.rows;
                if rows.overlay.is_empty()
                    && rows.tombstones == 0
                    && overlay_before + tombstones_before >= 2
                    && roll > 2
                {
                    cov.overlay_merges += usize::from(overlay_before > MIN_PENDING);
                    cov.compactions += usize::from(tombstones_before > MIN_PENDING);
                }
                // A full count check every 64 ops, the touched and a
                // random tuple after every op.
                let probe_all: Vec<&Tuple> = if step % 64 == 0 {
                    model.keys().chain(&removed).collect()
                } else {
                    Vec::new()
                };
                let probe = random_probe(&mut rng);
                // A cursor carried across mutations stays a valid hint.
                let expected = model.get(&probe).copied().unwrap_or(0);
                let found = table.count_at(probe.values(), &mut carried);
                assert_eq!(found, expected, "carried cursor count of {probe} {at}");
                let probes: Vec<&Tuple> = [&touched, &probe].into_iter().chain(probe_all).collect();
                assert_matches(&table, &model, &probes, indexed.len(), &at);
            }
        }

        fn random_probe(rng: &mut StdRng) -> Tuple {
            tuple![rng.gen_range(0..DOMAIN + 8), rng.gen_range(0..DOMAIN)]
        }

        fn run_seeds(seeds: std::ops::Range<u64>, ops: usize) {
            let mut cov = Coverage::default();
            for seed in seeds {
                run_sequence(seed, ops, &mut cov);
            }
            let Coverage {
                appends,
                overlay_merges,
                compactions,
                revivals,
                over_deletes,
                clears,
                indexes,
            } = cov;
            for (what, n) in [
                ("appends", appends),
                ("overlay merges", overlay_merges),
                ("tombstone compactions", compactions),
                ("revivals", revivals),
                ("over-deletes", over_deletes),
                ("clears", clears),
                ("indexes", indexes),
            ] {
                assert!(n > 0, "no {what} exercised: {cov:?}");
            }
        }

        #[test]
        fn storage_matches_the_ordered_map_model() {
            run_seeds(0..16, 1_200);
        }

        #[test]
        #[ignore = "soak: cargo test --release -p dd-relstore -- --ignored"]
        fn storage_matches_the_ordered_map_model_soak() {
            run_seeds(16..216, 3_000);
        }
    }
}
