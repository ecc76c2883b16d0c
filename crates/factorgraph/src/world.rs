//! Possible worlds (assignments of truth values to variables).

use crate::variable::VarId;

/// Read-only view of a possible world.
///
/// Both the sequential sampler's [`World`] and the parallel sampler's atomic
/// assignment (in `dd-inference`) implement this, so factor energies can be
/// evaluated against either representation.
pub trait WorldView {
    /// Truth value of variable `v` in this world.
    fn value(&self, v: VarId) -> bool;
}

/// A bit-packed possible world: one bit per variable, stored in `u64` words.
///
/// Paper §2.4: "An assignment to each of the query variables yields a possible
/// world I that must contain all positive evidence variables … and must not
/// contain any negatives."  Evidence handling is done by the samplers, which
/// never flip evidence variables; `World` itself is just the assignment vector.
///
/// The packed layout is the same "1 bit per variable" representation the
/// sampling materialization stores (§3.2.2), which makes `count_true` and
/// `hamming_distance` single popcount passes and lets `to_bitvec` be a
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

    /// A world from raw words (e.g. a snapshot of the parallel sampler's atomic
    /// assignment).  Trailing bits beyond `num_vars` are cleared.
    pub fn from_words(mut words: Vec<u64>, num_vars: usize) -> Self {
        words.resize(num_vars.div_ceil(64), 0);
        let mut world = World {
            words,
            len: num_vars,
        };
        world.mask_tail();
        world
    }

    /// Overwrite this world with `prefix` on variables `0..prefix_len` (packed
    /// words, bits at positions `>= prefix_len` zero) and `rest` on the
    /// variables after them — how a stored sample of a smaller, earlier graph
    /// is extended over this world's graph without allocating.
    pub fn assign_prefix_and_rest(&mut self, prefix: &[u64], prefix_len: usize, rest: &World) {
        assert_eq!(rest.len, self.len, "worlds over different graphs");
        assert!(prefix_len <= self.len && prefix.len() == prefix_len.div_ceil(64));
        self.words.copy_from_slice(&rest.words);
        let whole = prefix_len / 64;
        self.words[..whole].copy_from_slice(&prefix[..whole]);
        let tail = prefix_len % 64;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            self.words[whole] = (prefix[whole] & mask) | (self.words[whole] & !mask);
        }
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

    /// Flip a variable, returning the new value.
    #[inline]
    pub fn flip(&mut self, v: VarId) -> bool {
        assert!(v < self.len, "variable {v} out of bounds ({})", self.len);
        let bit = 1u64 << (v % 64);
        self.words[v / 64] ^= bit;
        self.words[v / 64] & bit != 0
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

    /// Number of true variables (popcount over the words).
    pub fn count_true(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another world of the same length (xor + popcount).
    pub fn hamming_distance(&self, other: &World) -> usize {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
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

    /// Unpack a bit-packed world.
    pub fn from_bitvec(bits: &[u8], num_vars: usize) -> Self {
        let mut world = World::all_false(num_vars);
        for (i, &byte) in bits.iter().enumerate() {
            if byte != 0 {
                world.words[i / 8] |= (byte as u64) << ((i % 8) * 8);
            }
        }
        world.mask_tail();
        world
    }

    /// Enumerate every possible world over `num_vars` variables (2^n of them).
    /// Used by the strawman materialization strategy and by exact-inference tests;
    /// callers must keep `num_vars` small.
    pub fn enumerate(num_vars: usize) -> impl Iterator<Item = World> {
        assert!(
            num_vars < usize::BITS as usize,
            "cannot enumerate worlds over {num_vars} variables"
        );
        (0..(1usize << num_vars)).map(move |mask| World::from_words(vec![mask as u64], num_vars))
    }

    /// Clear any bits at positions `>= len` to preserve the Eq/Hash invariant.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl WorldView for World {
    #[inline]
    fn value(&self, v: VarId) -> bool {
        self.words[v / 64] >> (v % 64) & 1 == 1
    }
}

impl WorldView for Vec<bool> {
    fn value(&self, v: VarId) -> bool {
        self[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_mutation() {
        let mut w = World::all_false(4);
        assert_eq!(w.len(), 4);
        assert_eq!(w.count_true(), 0);
        w.set(2, true);
        assert!(w.value(2));
        assert!(!w.value(0));
        assert!(w.flip(0));
        assert!(!w.flip(0));
        assert_eq!(w.count_true(), 1);
    }

    #[test]
    fn hamming_distance() {
        let a = World::from_values(vec![true, false, true]);
        let b = World::from_values(vec![true, true, false]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn bitvec_round_trip() {
        let w = World::from_values((0..37).map(|i| i % 3 == 0).collect());
        let bits = w.to_bitvec();
        assert_eq!(bits.len(), 5);
        let back = World::from_bitvec(&bits, 37);
        assert_eq!(w, back);
    }

    #[test]
    fn bitvec_is_one_bit_per_variable() {
        let w = World::all_false(1024);
        assert_eq!(w.to_bitvec().len(), 128);
    }

    #[test]
    fn enumerate_covers_all_worlds() {
        let worlds: Vec<World> = World::enumerate(3).collect();
        assert_eq!(worlds.len(), 8);
        let distinct: std::collections::HashSet<Vec<bool>> =
            worlds.iter().map(|w| w.to_vec()).collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn worldview_for_vec() {
        let v = vec![false, true];
        assert!(!WorldView::value(&v, 0));
        assert!(WorldView::value(&v, 1));
    }

    #[test]
    fn words_round_trip_across_boundaries() {
        // 130 variables spans three words; pattern straddles word edges.
        let values: Vec<bool> = (0..130).map(|i| i % 7 == 0 || i == 63 || i == 64).collect();
        let w = World::from_values(values.clone());
        assert_eq!(w.to_vec(), values);
        let back = World::from_words(w.as_words().to_vec(), 130);
        assert_eq!(back, w);
        assert_eq!(w.count_true(), values.iter().filter(|&&b| b).count());
    }

    #[test]
    fn prefix_and_rest_assignment_splits_mid_word() {
        // 70 stored variables extended over a 150-variable graph: the split
        // falls inside word 1.
        let stored: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let rest: Vec<bool> = (0..150).map(|i| i % 2 == 0).collect();
        let prefix = World::from_values(stored.clone());
        let rest_world = World::from_values(rest.clone());
        let mut w = World::from_values(vec![true; 150]);
        w.assign_prefix_and_rest(prefix.as_words(), 70, &rest_world);
        let expected: Vec<bool> = (0..150)
            .map(|i| if i < 70 { stored[i] } else { rest[i] })
            .collect();
        assert_eq!(w, World::from_values(expected));
        // Degenerate splits: nothing stored, everything stored.
        w.assign_prefix_and_rest(&[], 0, &rest_world);
        assert_eq!(w, rest_world);
        let full = World::from_values((0..150).map(|i| i % 5 == 0).collect());
        w.assign_prefix_and_rest(full.as_words(), 150, &rest_world);
        assert_eq!(w, full);
    }

    #[test]
    fn from_words_masks_tail_bits() {
        // Give a word with garbage above bit 2; equality must ignore it.
        let w = World::from_words(vec![0b1111_1111], 3);
        assert_eq!(w.count_true(), 3);
        assert_eq!(w, World::from_values(vec![true, true, true]));
    }

    #[test]
    fn eq_is_content_based_across_representations() {
        let a = World::from_values(vec![true, false, true, false, true]);
        let mut b = World::all_false(5);
        b.set(0, true);
        b.set(2, true);
        b.set(4, true);
        assert_eq!(a, b);
        b.flip(1);
        assert_ne!(a, b);
    }
}
