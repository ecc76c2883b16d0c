//! Possible worlds (assignments of truth values to variables).

use crate::variable::VarId;

/// A bit-packed possible world: one bit per variable, stored in `u64` words.
///
/// Paper §2.4: "An assignment to each of the query variables yields a possible
/// world I that must contain all positive evidence variables … and must not
/// contain any negatives."  Evidence handling is done by the samplers, which
/// never flip evidence variables; `World` itself is just the assignment vector.
///
/// The packed layout is the same "1 bit per variable" representation the
/// sampling materialization stores (§3.2.2), which lets `to_bitvec` be a
/// reinterpretation instead of a conversion.
///
/// Invariant: bits at positions `>= len` are always zero, so derived equality
/// and hashing over `words` are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct World {
    words: Vec<u64>,
    len: usize,
}

impl World {
    /// A world with all variables false.
    pub fn all_false(num_vars: usize) -> Self {
        World {
            words: vec![0u64; num_vars.div_ceil(64)],
            len: num_vars,
        }
    }

    /// A world from an explicit assignment vector.
    pub fn from_values(values: Vec<bool>) -> Self {
        let mut world = World::all_false(values.len());
        for (i, &b) in values.iter().enumerate() {
            if b {
                world.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        world
    }

    /// The underlying 64-variable words (low bit of word 0 is variable 0).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the world has no variables.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Truth value of variable `v`.
    #[inline]
    pub fn value(&self, v: VarId) -> bool {
        self.words[v / 64] >> (v % 64) & 1 == 1
    }

    /// Set the value of a variable.
    #[inline]
    pub fn set(&mut self, v: VarId, value: bool) {
        assert!(v < self.len, "variable {v} out of bounds ({})", self.len);
        let bit = 1u64 << (v % 64);
        if value {
            self.words[v / 64] |= bit;
        } else {
            self.words[v / 64] &= !bit;
        }
    }

    /// The assignment as a dense vector (boundary/interop use only; the hot
    /// paths stay on the packed words).
    pub fn to_vec(&self) -> Vec<bool> {
        (0..self.len).map(|v| self.value(v)).collect()
    }

    /// Iterate the truth values in variable order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |v| self.value(v))
    }

    /// Pack the world into bytes (8 variables per byte), the "1 bit per variable"
    /// tuple-bundle storage of the sampling materialization approach (§3.2.2).
    pub fn to_bitvec(&self) -> Vec<u8> {
        self.words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(self.len.div_ceil(8))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_mutation() {
        let mut w = World::all_false(4);
        assert_eq!(w.len(), 4);
        assert_eq!(w.iter().filter(|&b| b).count(), 0);
        w.set(2, true);
        assert!(w.value(2));
        assert!(!w.value(0));
        assert_eq!(w.iter().filter(|&b| b).count(), 1);
    }

    #[test]
    fn bitvec_holds_variable_i_at_bit_i() {
        let w = World::from_values((0..37).map(|i| i % 3 == 0).collect());
        let bits = w.to_bitvec();
        assert_eq!(bits.len(), 5);
        let back: Vec<bool> = (0..37).map(|i| bits[i / 8] >> (i % 8) & 1 == 1).collect();
        assert_eq!(back, w.to_vec());
    }

    #[test]
    fn bitvec_is_one_bit_per_variable() {
        let w = World::all_false(1024);
        assert_eq!(w.to_bitvec().len(), 128);
    }

    #[test]
    fn values_round_trip_across_word_boundaries() {
        // 130 variables spans three words; pattern straddles word edges.
        let values: Vec<bool> = (0..130).map(|i| i % 7 == 0 || i == 63 || i == 64).collect();
        let w = World::from_values(values.clone());
        assert_eq!(w.to_vec(), values);
        assert_eq!(w.as_words().len(), 3);
    }

    #[test]
    fn eq_is_content_based_across_representations() {
        let a = World::from_values(vec![true, false, true, false, true]);
        let mut b = World::all_false(5);
        b.set(0, true);
        b.set(2, true);
        b.set(4, true);
        assert_eq!(a, b);
        b.set(1, true);
        assert_ne!(a, b);
    }
}
