//! Shard-assignment helpers for partitioning a knowledge base across
//! independent engines.
//!
//! A [`ShardAssignment`] maps every tuple of every relation to one of `N`
//! shards by looking at a single **partition-key column** (the same column
//! index in every relation, conventionally column 0 — a document id).  As
//! long as every rule in the program joins its body atoms on that key, every
//! grounding is local to one shard and the union of the shard catalogs is
//! exactly the catalog an unsharded engine would build.  That invariant is
//! what lets a scatter-gather router (the `dd-router` crate) answer queries
//! byte-identically to a single engine.
//!
//! Two assignment strategies are provided:
//!
//! * [`ShardAssignment::HashKey`] — FNV-1a over the canonical bytes of the
//!   key value, modulo the shard count.  Works for any value type and gives
//!   an even spread with no tuning.
//! * [`ShardAssignment::RangeKey`] — ordered split points over an integer
//!   key, so contiguous key ranges stay co-located (useful when updates
//!   arrive in key order and should hit one shard at a time).
//!
//! The helpers here are pure: [`ShardAssignment::partition_database`] splits
//! an input [`Database`] into per-shard databases (every shard keeps every
//! table's schema, rows are routed by key), and
//! [`ShardAssignment::partition_update`] splits a [`KbcUpdate`] the same way
//! (new rules are broadcast to every shard, since programs are replicated).

use std::collections::HashMap;
use std::fmt;

use dd_grounding::KbcUpdate;
use dd_relstore::{Database, DeltaRelation, Table, Tuple, Value};

/// How tuples are assigned to shards.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardAssignment {
    /// FNV-1a hash of the value in `column`, modulo the shard count.
    HashKey {
        /// Partition-key column index (same in every relation).
        column: usize,
    },
    /// Range partitioning over an integer key in `column`.
    ///
    /// `bounds` must be sorted ascending and hold exactly `num_shards - 1`
    /// split points: shard `i` owns keys `k` with
    /// `bounds[i-1] <= k < bounds[i]` (shard 0 owns everything below
    /// `bounds[0]`, the last shard everything at or above the last bound).
    RangeKey {
        /// Partition-key column index (same in every relation).
        column: usize,
        /// Ascending split points; `len() == num_shards - 1`.
        bounds: Vec<i64>,
    },
}

/// Typed errors from shard routing.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardingError {
    /// The assignment needs column `column` but the tuple only has `arity`
    /// values.
    ColumnOutOfBounds { column: usize, arity: usize },
    /// Range partitioning requires an integer key; the tuple held something
    /// else at the key column.
    NonIntegerRangeKey { column: usize, found: String },
    /// `num_shards` was zero.
    NoShards,
    /// A `RangeKey` assignment was asked to route across `num_shards` shards
    /// but holds `bounds` split points (needs `num_shards - 1`).
    WrongBoundCount { bounds: usize, num_shards: usize },
    /// `RangeKey` bounds are not strictly ascending.
    UnsortedBounds,
}

impl fmt::Display for ShardingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardingError::ColumnOutOfBounds { column, arity } => write!(
                f,
                "partition-key column {column} out of bounds for tuple of arity {arity}"
            ),
            ShardingError::NonIntegerRangeKey { column, found } => write!(
                f,
                "range partitioning needs an integer key at column {column}, found {found}"
            ),
            ShardingError::NoShards => write!(f, "cannot route across zero shards"),
            ShardingError::WrongBoundCount { bounds, num_shards } => write!(
                f,
                "range assignment has {bounds} split points but {num_shards} shards \
                 (needs num_shards - 1)"
            ),
            ShardingError::UnsortedBounds => {
                write!(f, "range split points must be strictly ascending")
            }
        }
    }
}

impl std::error::Error for ShardingError {}

/// FNV-1a offset basis / prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = FNV_OFFSET;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of a value's canonical bytes: a one-byte type tag followed by the
/// value's natural encoding, fed to the hash as they are read — nothing is
/// copied.  Stable across processes (no pointer or HashMap dependence), so
/// hash routing is deterministic fleet-wide.
fn value_hash(value: &Value) -> u64 {
    let word: [u8; 8];
    let (tag, body): (u8, &[u8]) = match value {
        Value::Int(i) => {
            word = i.to_le_bytes();
            (0x01, &word)
        }
        Value::Text(s) => (0x02, s.as_bytes()),
        Value::Bool(b) => (0x03, if *b { &[1] } else { &[0] }),
        Value::Float(x) => {
            word = x.to_bits().to_le_bytes();
            (0x04, &word)
        }
        Value::Null => (0x05, &[]),
    };
    fnv1a(std::iter::once(tag).chain(body.iter().copied()))
}

impl ShardAssignment {
    /// Partition-key column this assignment reads.
    pub fn column(&self) -> usize {
        match self {
            ShardAssignment::HashKey { column } => *column,
            ShardAssignment::RangeKey { column, .. } => *column,
        }
    }

    /// Validate this assignment against a shard count (bound count and
    /// ordering for range assignments).
    pub fn validate(&self, num_shards: usize) -> Result<(), ShardingError> {
        if num_shards == 0 {
            return Err(ShardingError::NoShards);
        }
        if let ShardAssignment::RangeKey { bounds, .. } = self {
            if bounds.len() + 1 != num_shards {
                return Err(ShardingError::WrongBoundCount {
                    bounds: bounds.len(),
                    num_shards,
                });
            }
            if bounds.windows(2).any(|w| w[0] >= w[1]) {
                return Err(ShardingError::UnsortedBounds);
            }
        }
        Ok(())
    }

    /// Shard index (`0..num_shards`) owning `tuple`.
    pub fn shard_of(&self, tuple: &Tuple, num_shards: usize) -> Result<usize, ShardingError> {
        self.validate(num_shards)?;
        self.owner(tuple, num_shards)
    }

    /// [`ShardAssignment::shard_of`] under an assignment already validated
    /// for `num_shards`.
    fn owner(&self, tuple: &Tuple, num_shards: usize) -> Result<usize, ShardingError> {
        let column = self.column();
        let key = tuple.get(column).ok_or(ShardingError::ColumnOutOfBounds {
            column,
            arity: tuple.arity(),
        })?;
        match self {
            ShardAssignment::HashKey { .. } => Ok((value_hash(key) % num_shards as u64) as usize),
            ShardAssignment::RangeKey { bounds, .. } => {
                let k = match key {
                    Value::Int(i) => *i,
                    other => {
                        return Err(ShardingError::NonIntegerRangeKey {
                            column,
                            found: format!("{other:?}"),
                        })
                    }
                };
                Ok(bounds.partition_point(|b| *b <= k))
            }
        }
    }

    /// Split `db` into `num_shards` databases.  Every shard gets every
    /// table (with its schema); each row lands on its owning shard with its
    /// multiplicity preserved.  Rows are read in tuple order, so each
    /// shard's slice of a table is written as one sorted run.
    pub fn partition_database(
        &self,
        db: &Database,
        num_shards: usize,
    ) -> Result<Vec<Database>, ShardingError> {
        self.validate(num_shards)?;
        let mut parts: Vec<Database> = (0..num_shards).map(|_| Database::new()).collect();
        for table in db.tables() {
            let mut slices: Vec<&mut Table> = parts
                .iter_mut()
                .map(|part| {
                    part.create_table(table.name(), table.schema().clone())
                        .expect("fresh database cannot already hold this table");
                    part.table_mut(table.name()).expect("table created above")
                })
                .collect();
            for (tuple, count) in table.iter_net_counted() {
                slices[self.owner(tuple, num_shards)?]
                    .insert_with_count(tuple.clone(), count)
                    .expect("row schema-checked by the source table");
            }
        }
        Ok(parts)
    }

    /// Split `update` into one sub-update per shard.  Base-relation deltas
    /// and supervision retractions route to the owning shard; new rules are
    /// broadcast (every shard runs the full program).  Sub-updates may be
    /// empty — callers should skip those shards entirely
    /// ([`KbcUpdate::is_empty`]) so untouched shards keep their epoch.
    pub fn partition_update(
        &self,
        update: &KbcUpdate,
        num_shards: usize,
    ) -> Result<Vec<KbcUpdate>, ShardingError> {
        self.validate(num_shards)?;
        let mut parts: Vec<KbcUpdate> = (0..num_shards).map(|_| KbcUpdate::new()).collect();
        for (relation, delta) in &update.base_deltas {
            for (tuple, count) in delta.iter() {
                let shard = self.owner(tuple, num_shards)?;
                parts[shard]
                    .base_deltas
                    .entry(relation.clone())
                    .or_insert_with(|| DeltaRelation::new(relation.clone()))
                    .change(tuple.clone(), count);
            }
        }
        for (relation, tuple) in &update.retracted_supervision {
            let shard = self.owner(tuple, num_shards)?;
            parts[shard]
                .retracted_supervision
                .push((relation.clone(), tuple.clone()));
        }
        for rule in &update.new_rules {
            for part in &mut parts {
                part.new_rules.push(rule.clone());
            }
        }
        Ok(parts)
    }

    /// Histogram of shard ownership over a database: `result[s]` is the
    /// number of distinct rows owned by shard `s`.  Handy for eyeballing
    /// balance before committing to an assignment.
    pub fn balance(&self, db: &Database, num_shards: usize) -> Result<Vec<usize>, ShardingError> {
        self.validate(num_shards)?;
        let mut hist = vec![0usize; num_shards];
        for table in db.tables() {
            for (tuple, _) in table.iter_net_counted() {
                hist[self.owner(tuple, num_shards)?] += 1;
            }
        }
        Ok(hist)
    }
}

/// Group `(relation, tuple)` pairs by owning shard, preserving input order
/// within each shard.  Used by the router to fan point-lookups out.
pub fn group_by_shard<'a, I>(
    assignment: &ShardAssignment,
    num_shards: usize,
    items: I,
) -> Result<HashMap<usize, Vec<(&'a str, &'a Tuple)>>, ShardingError>
where
    I: IntoIterator<Item = (&'a str, &'a Tuple)>,
{
    let mut by_shard: HashMap<usize, Vec<(&'a str, &'a Tuple)>> = HashMap::new();
    for (relation, tuple) in items {
        let shard = assignment.shard_of(tuple, num_shards)?;
        by_shard.entry(shard).or_default().push((relation, tuple));
    }
    Ok(by_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::{DataType, Schema};

    fn hash0() -> ShardAssignment {
        ShardAssignment::HashKey { column: 0 }
    }

    #[test]
    fn hash_routing_is_deterministic_and_in_range() {
        let a = hash0();
        for doc in 0..200i64 {
            let t = Tuple::from_iter([doc, doc * 7]);
            let s = a.shard_of(&t, 4).unwrap();
            assert!(s < 4);
            assert_eq!(s, a.shard_of(&t, 4).unwrap());
        }
    }

    #[test]
    fn hash_routing_is_pinned_per_value_type() {
        // Recorded when each value's bytes were copied into a buffer before
        // hashing: routing may not drift, or a cluster would re-home rows.
        let pinned: [(Value, u64, usize); 13] = [
            (Value::Int(0), 0x529a_2cdc_8ff5_33ac, 0),
            (Value::Int(1), 0x7194_f3e5_9ae4_7dcd, 1),
            (Value::Int(7), 0x339f_65d3_8505_e98b, 3),
            (Value::Int(-3), 0x88a3_521e_687c_0466, 2),
            (Value::Int(i64::MAX), 0x685d_583a_d34c_0da4, 0),
            (Value::text(""), 0xaf63_bf4c_8601_bb45, 1),
            (Value::text("obama"), 0xc4b1_04c7_891d_4ca5, 1),
            (Value::text("doc-17"), 0x3f03_5391_bea6_cce4, 0),
            (Value::Bool(true), 0x0835_ef07_b4ee_54c9, 1),
            (Value::Bool(false), 0x0835_ee07_b4ee_5316, 2),
            (Value::Float(0.5), 0x9a7a_e9c3_d3f2_45fa, 2),
            (Value::Float(-2.25), 0x9853_a0c3_d21d_44e1, 1),
            (Value::Null, 0xaf63_b84c_8601_af60, 0),
        ];
        let a = hash0();
        for (value, hash, shard) in pinned {
            assert_eq!(value_hash(&value), hash, "{value:?}");
            let row = Tuple::new(vec![value.clone(), Value::Int(9)]);
            assert_eq!(a.shard_of(&row, 4), Ok(shard), "{value:?}");
        }
    }

    #[test]
    fn hash_routing_ignores_non_key_columns() {
        let a = hash0();
        let s1 = a.shard_of(&Tuple::from_iter([5i64, 1]), 4).unwrap();
        let s2 = a.shard_of(&Tuple::from_iter([5i64, 99]), 4).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn hash_spreads_across_shards() {
        let a = hash0();
        let mut seen = vec![false; 4];
        for doc in 0..64i64 {
            seen[a.shard_of(&Tuple::from_iter([doc]), 4).unwrap()] = true;
        }
        assert!(seen.iter().all(|s| *s), "64 keys should hit all 4 shards");
    }

    #[test]
    fn range_routing_respects_bounds() {
        let a = ShardAssignment::RangeKey {
            column: 0,
            bounds: vec![10, 20, 30],
        };
        assert_eq!(a.shard_of(&Tuple::from_iter([-5i64]), 4).unwrap(), 0);
        assert_eq!(a.shard_of(&Tuple::from_iter([9i64]), 4).unwrap(), 0);
        assert_eq!(a.shard_of(&Tuple::from_iter([10i64]), 4).unwrap(), 1);
        assert_eq!(a.shard_of(&Tuple::from_iter([19i64]), 4).unwrap(), 1);
        assert_eq!(a.shard_of(&Tuple::from_iter([20i64]), 4).unwrap(), 2);
        assert_eq!(a.shard_of(&Tuple::from_iter([30i64]), 4).unwrap(), 3);
        assert_eq!(a.shard_of(&Tuple::from_iter([1000i64]), 4).unwrap(), 3);
    }

    #[test]
    fn range_key_type_and_bound_errors_are_typed() {
        let a = ShardAssignment::RangeKey {
            column: 0,
            bounds: vec![10],
        };
        assert!(matches!(
            a.shard_of(&Tuple::from_iter(["abc"]), 2),
            Err(ShardingError::NonIntegerRangeKey { column: 0, .. })
        ));
        assert!(matches!(
            a.shard_of(&Tuple::from_iter([1i64]), 4),
            Err(ShardingError::WrongBoundCount {
                bounds: 1,
                num_shards: 4
            })
        ));
        let unsorted = ShardAssignment::RangeKey {
            column: 0,
            bounds: vec![20, 10],
        };
        assert!(matches!(
            unsorted.shard_of(&Tuple::from_iter([1i64]), 3),
            Err(ShardingError::UnsortedBounds)
        ));
    }

    #[test]
    fn missing_column_and_zero_shards_are_typed() {
        let a = ShardAssignment::HashKey { column: 2 };
        assert_eq!(
            a.shard_of(&Tuple::from_iter([1i64]), 4),
            Err(ShardingError::ColumnOutOfBounds {
                column: 2,
                arity: 1
            })
        );
        assert_eq!(
            hash0().shard_of(&Tuple::from_iter([1i64]), 0),
            Err(ShardingError::NoShards)
        );
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "Claim",
            Schema::of(&[("doc", DataType::Int), ("id", DataType::Int)]),
        )
        .unwrap();
        for doc in 0..10i64 {
            for id in 0..3i64 {
                db.insert("Claim", Tuple::from_iter([doc, id])).unwrap();
            }
        }
        // A duplicate row: multiplicity must survive partitioning.
        db.insert("Claim", Tuple::from_iter([0i64, 0])).unwrap();
        db
    }

    #[test]
    fn partition_database_preserves_rows_and_schemas() {
        let db = sample_db();
        let parts = hash0().partition_database(&db, 4).unwrap();
        assert_eq!(parts.len(), 4);
        let mut total = 0i64;
        for part in &parts {
            let table = part.table("Claim").unwrap();
            assert_eq!(table.schema(), db.table("Claim").unwrap().schema());
            for (tuple, count) in table.iter_net_counted() {
                assert_eq!(hash0().shard_of(tuple, 4).unwrap(), {
                    let mut owner = 5;
                    for (i, p) in parts.iter().enumerate() {
                        if p.table("Claim").unwrap().count(tuple) > 0 {
                            owner = i;
                        }
                    }
                    owner
                });
                total += count;
            }
        }
        assert_eq!(total, 31, "10*3 rows + 1 duplicate");
        // The duplicated tuple keeps count 2 on exactly one shard.
        let dup = Tuple::from_iter([0i64, 0]);
        let counts: Vec<i64> = parts
            .iter()
            .map(|p| p.table("Claim").unwrap().count(&dup))
            .collect();
        assert_eq!(counts.iter().sum::<i64>(), 2);
        assert_eq!(counts.iter().filter(|c| **c > 0).count(), 1);
    }

    #[test]
    fn partition_update_routes_deltas_and_broadcasts_rules() {
        let mut update = KbcUpdate::new();
        for doc in 0..8i64 {
            update.insert("Claim", Tuple::from_iter([doc, 0]));
        }
        update.delete("Claim", Tuple::from_iter([3i64, 0]));
        update.retract_supervision("Fact", Tuple::from_iter([5i64, 0]));
        let rule = dd_grounding::parse_rule("rule F feature: F(x) :- C(x) weight = 1.0.").unwrap();
        update.add_rule(rule);

        let parts = hash0().partition_update(&update, 4).unwrap();
        assert_eq!(parts.len(), 4);
        // Every part carries the broadcast rule.
        assert!(parts.iter().all(|p| p.new_rules.len() == 1));
        // Net counts per tuple are preserved across the union.
        for doc in 0..8i64 {
            let t = Tuple::from_iter([doc, 0]);
            let expected = if doc == 3 { 0 } else { 1 };
            let total: i64 = parts
                .iter()
                .filter_map(|p| p.base_deltas.get("Claim"))
                .map(|d| d.count(&t))
                .sum();
            assert_eq!(total, expected, "doc {doc}");
        }
        // The retraction landed on exactly the owning shard.
        let owner = hash0().shard_of(&Tuple::from_iter([5i64, 0]), 4).unwrap();
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.retracted_supervision.len(), usize::from(i == owner));
        }
    }

    #[test]
    fn balance_histogram_sums_to_row_count() {
        let db = sample_db();
        let hist = hash0().balance(&db, 4).unwrap();
        assert_eq!(hist.iter().sum::<usize>(), 30, "distinct rows");
    }

    #[test]
    fn group_by_shard_preserves_order_within_shard() {
        let tuples: Vec<Tuple> = (0..12i64).map(|d| Tuple::from_iter([d])).collect();
        let items: Vec<(&str, &Tuple)> = tuples.iter().map(|t| ("Fact", t)).collect();
        let grouped = group_by_shard(&hash0(), 4, items).unwrap();
        for (shard, group) in grouped {
            let mut last = None;
            for (_, tuple) in group {
                assert_eq!(hash0().shard_of(tuple, 4).unwrap(), shard);
                let doc = match tuple.get(0).unwrap() {
                    Value::Int(i) => *i,
                    _ => unreachable!(),
                };
                if let Some(prev) = last {
                    assert!(doc > prev, "input order preserved within shard");
                }
                last = Some(doc);
            }
        }
    }
}
