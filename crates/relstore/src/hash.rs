//! The row hash: one fast keyed hasher for every tuple- or key-keyed map.
//!
//! Grounding and query execution probe hash maps keyed by rows — the
//! secondary indexes (filed by the hash of a row's key columns), the
//! grounder's `tuple → variable` catalogs, its weight catalog — once or
//! more per binding.  std's SipHash-1-3 spends
//! most of such a probe mixing a few machine words; [`RowHash`] folds each
//! word in with one 64×64→128-bit multiply instead (the "folded multiply"
//! of foldhash / aHash's fallback), which is about a third of the cost on
//! the same keys.
//!
//! The hasher is *keyed*: its seed is drawn once per process from std's
//! [`RandomState`], so — exactly as with the default hasher — colliding keys
//! cannot be computed ahead of time, and iteration order of a map differs
//! between processes.  Nothing may depend on that order; every consumer
//! that emits rows sorts them or reads an ordered table.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashed by [`RowHash`].
pub type RowMap<K, V> = HashMap<K, V, RowHash>;

/// Odd constant with well-spread bits (the fractional part of π) that every
/// word is multiplied by.
const MULTIPLIER: u64 = 0x243f_6a88_85a3_08d3;

/// The per-process seed: drawn on first use, the same for every map after.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

/// The low and high halves of the full product, folded together: every
/// output bit depends on every input bit.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// [`BuildHasher`] of [`RowHasher`]s under the per-process seed.
#[derive(Debug, Clone, Copy)]
pub struct RowHash {
    seed: u64,
}

impl Default for RowHash {
    fn default() -> Self {
        RowHash {
            seed: process_seed(),
        }
    }
}

impl BuildHasher for RowHash {
    type Hasher = RowHasher;

    #[inline]
    fn build_hasher(&self) -> RowHasher {
        RowHasher {
            state: self.seed,
            seed: self.seed,
        }
    }
}

/// The streaming hasher: each word written is folded into the state by one
/// multiply; [`Hasher::finish`] folds in the seed once more.
#[derive(Debug, Clone)]
pub struct RowHasher {
    state: u64,
    seed: u64,
}

impl Hasher for RowHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, MULTIPLIER);
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
            self.write_u64(word);
        }
        let rest = chunks.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        // The tail's length rides in its top byte, so "ab" and "ab\0" differ.
        self.write_u64(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.state, self.seed | 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tuple, Tuple, Value};
    use std::collections::HashSet;

    fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
        RowHash::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_within_a_process() {
        assert_eq!(hash_of(&tuple![1i64, "a"]), hash_of(&tuple![1i64, "a"]));
        // A tuple and the value slice it borrows as hash alike (map probes
        // by `&[Value]` rely on it).
        let row = tuple![7i64, "spouse", 2.5];
        assert_eq!(hash_of(&row), hash_of(&row.values().to_vec()));
        assert_eq!(hash_of(&"FE1::and"), hash_of(&String::from("FE1::and")));
    }

    #[test]
    fn nearby_keys_spread_over_buckets() {
        // Small ints, one-off strings, prefix strings: distinct hashes, and
        // both the low bits (bucket) and the top bits (control byte) vary.
        let mut rows: Vec<Tuple> = Vec::new();
        for doc in 0..64i64 {
            for id in 0..6i64 {
                rows.push(tuple![doc, id]);
            }
        }
        rows.extend((0..64).map(|n| tuple!["x".repeat(n)]));
        rows.extend((0..64).map(|n| Tuple::new(vec![Value::Null; n])));
        let hashes: Vec<u64> = rows.iter().map(hash_of).collect();
        assert_eq!(hashes.iter().collect::<HashSet<_>>().len(), rows.len());
        let low: HashSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        let high: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(low.len() > 180, "{} of 256 low bytes", low.len());
        assert!(high.len() > 100, "{} of 128 control bytes", high.len());
    }

    #[test]
    fn the_seed_is_drawn_once_per_process() {
        assert_eq!(RowHash::default().seed, RowHash::default().seed);
        let map: RowMap<Tuple, usize> =
            [(tuple![1i64], 1), (tuple![2i64], 2)].into_iter().collect();
        assert_eq!(map.get(&[Value::Int(2)][..]), Some(&2));
    }
}
