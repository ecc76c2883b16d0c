//! Sequential Gibbs sampling.
//!
//! "Like many other systems, DeepDive uses Gibbs sampling to estimate the
//! marginal probability of every tuple in the database" (paper §2.5).  The
//! sampler sweeps over the query variables; for each it computes the conditional
//! probability `P(v = 1 | rest) = σ(ΔE_v)` where `ΔE_v` is the energy difference
//! between the worlds with `v` set true and false (all other variables held), and
//! resamples `v` from that Bernoulli.
//!
//! The sweep runs on the compiled [`FlatGraph`] representation (CSR adjacency,
//! pre-resolved weights, single-pass energy deltas — see `dd_factorgraph::flat`),
//! not on the pointer-rich build-side [`FactorGraph`].
//!
//! # What is sampled and what is exact
//!
//! A query variable whose factors mention no other variable is independent
//! of the rest of the graph; its marginal is the constant
//! [`FlatGraph::static_p_true`].  KBC graphs are dominated by such variables
//! (Example 2.6), so the two estimators act on the compiler's static/coupled
//! split: [`GibbsSampler::run`] sweeps the coupled variables and reports the
//! static ones exactly, and [`GibbsSampler::draw_samples`] sweeps the coupled
//! variables and fills the static ones' columns of the [`SampleSet`] with
//! i.i.d. Bernoulli bits, 64 samples per handful of random words.  A sampler
//! given its variables explicitly ([`GibbsSampler::with_free_vars`]) sweeps
//! all of them, and [`GibbsSampler::sweep`] always resamples every free
//! variable — the learning gradient needs the whole world sampled.

use crate::marginals::Marginals;
use dd_factorgraph::{FactorGraph, FlatGraph, VarId, World, WorldView};
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// The RNG driving sampler sweeps.  A type alias so the generator can be
/// swapped in one place; sweeps are throughput-bound on RNG draws, so this
/// points at the fast small-state generator rather than `StdRng`.
pub type SweepRng = rand::rngs::SmallRng;

/// Options controlling a Gibbs run.
#[derive(Debug, Clone)]
pub struct GibbsOptions {
    /// Number of full sweeps used to estimate marginals.
    pub sweeps: usize,
    /// Sweeps discarded before collecting statistics.
    pub burn_in: usize,
}

impl Default for GibbsOptions {
    fn default() -> Self {
        GibbsOptions {
            sweeps: 200,
            burn_in: 50,
        }
    }
}

impl GibbsOptions {
    /// Shorthand used by tests and benchmarks.
    pub fn new(sweeps: usize, burn_in: usize) -> Self {
        GibbsOptions { sweeps, burn_in }
    }
}

/// A set of worlds drawn from a factor graph — the "tuple bundles" that the
/// sampling materialization strategy stores (§3.2.2, after MCDB).
///
/// All samples live in one contiguous arena of `u64` words with a fixed
/// stride of `num_vars.div_ceil(64)` words per sample, in the same packed
/// layout as [`World`] (low bit of a row's word 0 is variable 0, bits at
/// positions `>= num_vars` are zero).  Storing a sample appends the
/// sampler's words; reading one is a borrowed [`SampleRow`] — no sample is
/// ever its own heap object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleSet {
    num_vars: usize,
    /// Number of stored samples (the arena is empty when `num_vars == 0`).
    len: usize,
    words: Vec<u64>,
}

/// One stored sample, borrowed from its [`SampleSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRow<'a> {
    words: &'a [u64],
    num_vars: usize,
}

impl<'a> SampleRow<'a> {
    /// The row's packed words (see [`World::as_words`]).
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// The row as bytes, 8 variables per byte — `num_vars.div_ceil(8)` of
    /// them, exactly [`World::to_bitvec`] of the sampled world (the
    /// checkpoint codec's unit).
    pub fn bytes(&self) -> impl Iterator<Item = u8> + 'a {
        self.words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(self.num_vars.div_ceil(8))
    }
}

impl WorldView for SampleRow<'_> {
    #[inline]
    fn value(&self, v: VarId) -> bool {
        self.words[v / 64] >> (v % 64) & 1 == 1
    }
}

impl SampleSet {
    /// An empty sample set over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        SampleSet {
            num_vars,
            len: 0,
            words: Vec::new(),
        }
    }

    /// Number of variables every sample assigns.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Words per stored sample.
    fn stride(&self) -> usize {
        self.num_vars.div_ceil(64)
    }

    /// Make room for `additional` more samples.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.words.reserve(additional * self.stride());
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store a world: its words are appended to the arena.
    pub fn push(&mut self, world: &World) {
        assert_eq!(world.len(), self.num_vars, "sample over the wrong graph");
        self.words.extend_from_slice(world.as_words());
        self.len += 1;
    }

    /// Store a sample given as bytes, 8 variables per byte (the inverse of
    /// [`SampleRow::bytes`]; bits at positions `>= num_vars` are dropped).
    /// Returns `false`, storing nothing, unless there are exactly
    /// `num_vars.div_ceil(8)` bytes.  The bytes may be produced one at a
    /// time (a decoder's output): they are packed straight into the new row.
    pub fn push_byte_iter(&mut self, bytes: impl ExactSizeIterator<Item = u8>) -> bool {
        if bytes.len() != self.num_vars.div_ceil(8) {
            return false;
        }
        let mut word = 0u64;
        let mut filled = 0;
        for byte in bytes {
            word |= u64::from(byte) << (8 * filled);
            filled += 1;
            if filled == 8 {
                self.words.push(word);
                (word, filled) = (0, 0);
            }
        }
        if filled != 0 {
            self.words.push(word);
        }
        let tail = self.num_vars % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        self.len += 1;
        true
    }

    /// The `i`-th stored sample.
    pub fn row(&self, i: usize) -> SampleRow<'_> {
        assert!(i < self.len, "sample {i} out of bounds ({})", self.len);
        let stride = self.stride();
        SampleRow {
            words: &self.words[i * stride..(i + 1) * stride],
            num_vars: self.num_vars,
        }
    }

    /// The stored samples, in the order they were drawn.
    pub fn rows(&self) -> impl Iterator<Item = SampleRow<'_>> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Storage size in bytes at 1 bit per variable per sample (the arena
    /// itself rounds every sample up to whole words).
    pub(crate) fn storage_bytes(&self) -> usize {
        self.len * self.num_vars.div_ceil(8)
    }

    /// Empirical marginals of the stored samples, accumulated straight off the
    /// packed bits (no per-sample `World` is ever materialized).
    pub fn marginals(&self) -> Marginals {
        let counts = self.true_counts(&vec![u64::MAX; self.stride()]);
        let n = self.len.max(1) as f64;
        Marginals::from_values(counts.into_iter().map(|c| c as f64 / n).collect())
    }

    /// In how many stored samples each variable is true, for the variables
    /// whose bit is set in `mask` (one word per arena column, laid out like
    /// a sample; the others read 0).  Word-level: the cost follows the set
    /// bits under the mask, so a caller interested in the query variables
    /// of a mostly-evidence graph does not pay for (or even read) the
    /// evidence.
    pub(crate) fn true_counts(&self, mask: &[u64]) -> Vec<usize> {
        assert_eq!(mask.len(), self.stride(), "mask over the wrong graph");
        let mut counts = vec![0usize; self.num_vars];
        // Arena columns with nothing selected are never read.
        let selected: Vec<(usize, u64)> = mask
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, keep)| keep != 0)
            .collect();
        for row in self.rows() {
            for &(word_index, keep) in &selected {
                let mut bits = row.words[word_index] & keep;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    counts[word_index * 64 + bit] += 1;
                    bits &= bits - 1;
                }
            }
        }
        counts
    }

    /// Variable `v` across the stored samples as a bitset: bit `i % 64` of
    /// word `i / 64` is `v`'s value in sample `i` (bits past the last sample
    /// are zero), so pair statistics are an AND and a popcount per 64
    /// samples.
    pub fn column(&self, v: VarId) -> Vec<u64> {
        assert!(v < self.num_vars, "variable {v} out of bounds");
        let stride = self.stride();
        let (word, shift) = (v / 64, v % 64);
        let mut column = vec![0u64; self.len.div_ceil(64)];
        for i in 0..self.len {
            column[i / 64] |= (self.words[i * stride + word] >> shift & 1) << (i % 64);
        }
        column
    }

    /// Overwrite the bits of `vars` (ascending ids) in the `count <= 64`
    /// samples from `base` on with independent Bernoulli(`p_true(v)`) draws.
    /// Every other bit of those rows is left as it is.
    ///
    /// Each variable's 64 draws come from one [`bernoulli_word`]; the words
    /// of up to 64 variables sharing an arena column are transposed from
    /// variable-major to sample-major as one 64×64 bit matrix, so the arena
    /// is written a word — not a bit — at a time.
    fn fill_bernoulli(
        &mut self,
        base: usize,
        count: usize,
        vars: &[VarId],
        p_true: impl Fn(VarId) -> f64,
        rng: &mut SweepRng,
    ) {
        assert!(count <= 64 && base + count <= self.len);
        let stride = self.stride();
        for group in vars.chunk_by(|a, b| a / 64 == b / 64) {
            let mut block = [0u64; 64];
            let mut mask = 0u64;
            for &v in group {
                block[v % 64] = bernoulli_word(p_true(v), rng);
                mask |= 1 << (v % 64);
            }
            transpose64(&mut block);
            let column = group[0] / 64;
            for (i, bits) in block[..count].iter().enumerate() {
                let word = &mut self.words[(base + i) * stride + column];
                *word = *word & !mask | bits;
            }
        }
    }
}

/// 64 independent Bernoulli(`p`) bits (bit `i` is draw `i`), exact to the
/// 2⁻⁵³ resolution of a uniform `f64` draw: draw `i` is `U_i < p` for a
/// 53-bit uniform `U_i`, and the 64 comparisons run bit-sliced, most
/// significant bit first — one random word supplies bit `k` of all 64 `U_i`,
/// and a draw is decided at the first bit where `U_i` and `p` differ.  Every
/// word decides half of the draws still open, so 64 draws cost about 8
/// random words instead of 64 (and none once the rest of `p` is zero).
fn bernoulli_word(p: f64, rng: &mut SweepRng) -> u64 {
    if p >= 1.0 {
        return u64::MAX;
    }
    // ⌊p · 2⁵³⌋, left-aligned: the bits of `p` still to be compared.
    let mut rest = ((p * (1u64 << 53) as f64) as u64) << 11;
    let mut ones = 0u64;
    let mut open = u64::MAX;
    while open != 0 && rest != 0 {
        let r: u64 = rng.gen();
        if rest >> 63 == 1 {
            // p has a 1 here: draws with a 0 are below p.
            ones |= open & !r;
            open &= r;
        } else {
            // p has a 0 here: draws with a 1 are above p.
            open &= !r;
        }
        rest <<= 1;
    }
    ones
}

/// Transpose a 64×64 bit matrix in place: bit `j` of `m[i]` becomes bit `i`
/// of `m[j]` (recursive block swaps, 6 × 32 word operations).
fn transpose64(m: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask = 0x0000_0000_ffff_ffffu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = (m[k] >> j ^ m[k + j]) & mask;
            m[k] ^= t << j;
            m[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Resample every variable of `vars` once, in order.
pub(crate) fn sweep_over(flat: &FlatGraph, vars: &[VarId], world: &mut World, rng: &mut SweepRng) {
    for &v in vars {
        // Constant-folded conditional where possible; otherwise a single
        // traversal of v's incident factors, with no world mutation.
        let p_true = flat.conditional_p_true(v, world);
        let value = rng.gen::<f64>() < p_true;
        world.set(v, value);
    }
}

/// Expected value (over `sweeps` Gibbs sweeps of `vars`) of the total
/// feature value of every weight: `E[Σ_{f: weight(f)=k} φ_f(I)]` for each
/// weight `k`.  This is the sufficient statistic needed by the learning
/// gradient.
pub(crate) fn expected_feature_counts_over(
    flat: &FlatGraph,
    vars: &[VarId],
    world: &mut World,
    rng: &mut SweepRng,
    sweeps: usize,
) -> Vec<f64> {
    let mut totals = vec![0.0; flat.num_weights()];
    let sweeps = sweeps.max(1);
    for _ in 0..sweeps {
        sweep_over(flat, vars, world, rng);
        flat.accumulate_feature_counts(world, &mut totals);
    }
    for t in &mut totals {
        *t /= sweeps as f64;
    }
    totals
}

/// A sequential Gibbs sampler bound to a compiled factor graph.
///
/// Construct it from a [`FactorGraph`] (compiling on the spot) or, when the
/// caller already holds a compiled graph — the learning loop, the MH
/// proposal-extension path — borrow one with [`GibbsSampler::from_flat`].
///
/// ```
/// use dd_factorgraph::{Factor, FactorGraphBuilder};
/// use dd_inference::{GibbsOptions, GibbsSampler};
///
/// // One query variable with a positive prior factor.
/// let mut b = FactorGraphBuilder::new();
/// let v = b.add_query_variables(1)[0];
/// let w = b.tied_weight("prior", 1.0, false);
/// b.add_factor(Factor::is_true(w, v));
/// let graph = b.build();
///
/// let mut sampler = GibbsSampler::new(&graph, 7);
/// let marginals = sampler.run(&GibbsOptions::new(4000, 200));
/// // P(v) = sigmoid(1.0) ≈ 0.731; the chain estimate lands nearby.
/// assert!((marginals.get(v) - 0.731).abs() < 0.05);
/// // Runs are bit-deterministic for a fixed seed.
/// let again = GibbsSampler::new(&graph, 7).run(&GibbsOptions::new(4000, 200));
/// assert_eq!(marginals.values(), again.values());
/// ```
pub struct GibbsSampler<'g> {
    flat: Cow<'g, FlatGraph>,
    rng: SweepRng,
    world: World,
    /// The resampled variables when given explicitly; `None` is the graph's
    /// query variables, which the estimators split into coupled (swept) and
    /// static (exact) — see the module docs.
    free_vars: Option<Vec<VarId>>,
}

impl<'g> GibbsSampler<'g> {
    /// Create a sampler whose free variables are the graph's query variables and
    /// whose starting world is the graph's initial world.  Compiles `graph`;
    /// use [`GibbsSampler::from_flat`] to reuse an existing compilation.
    pub fn new(graph: &'g FactorGraph, seed: u64) -> Self {
        Self::from_owned_flat(graph.compile(), seed)
    }

    /// Create a sampler borrowing an already-compiled graph.
    pub fn from_flat(flat: &'g FlatGraph, seed: u64) -> Self {
        GibbsSampler {
            rng: SweepRng::seed_from_u64(seed),
            world: flat.initial_world(),
            free_vars: None,
            flat: Cow::Borrowed(flat),
        }
    }

    fn from_owned_flat(flat: FlatGraph, seed: u64) -> Self {
        GibbsSampler {
            rng: SweepRng::seed_from_u64(seed),
            world: flat.initial_world(),
            free_vars: None,
            flat: Cow::Owned(flat),
        }
    }

    /// Resample exactly `free_vars` (the decomposition optimization samples
    /// one variable group at a time; the free chain of learning resamples
    /// evidence too).  Every one of them is swept, by the estimators as
    /// well: an explicit list opts out of the closed-form treatment of
    /// static variables.
    pub fn with_free_vars(mut self, free_vars: Vec<VarId>) -> Self {
        self.free_vars = Some(free_vars);
        self
    }

    /// Restart the RNG stream from `seed`, keeping the current world.
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.rng = SweepRng::seed_from_u64(seed);
    }

    /// The current world, for overwriting in place (the caller keeps its
    /// length and the evidence assignment).
    pub(crate) fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The current world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Perform one full sweep (resample every free variable once).
    pub fn sweep(&mut self) {
        let vars = free_vars_of(&self.free_vars, &self.flat);
        sweep_over(&self.flat, vars, &mut self.world, &mut self.rng);
    }

    /// Run `options.sweeps` sweeps after `options.burn_in` and return the
    /// marginal estimate for every variable (evidence variables get 0/1).
    /// The sweeps continue the sampler's RNG stream: the seed it was built
    /// with, or the last `GibbsSampler::reseed`.
    ///
    /// Only coupled variables are swept; static ones report their exact
    /// marginal, so a graph without coupled variables is answered without
    /// sampling anything (see the module docs).
    pub fn run(&mut self, options: &GibbsOptions) -> Marginals {
        let (swept, exact) = estimation_split(&self.free_vars, &self.flat);
        let sweeps = options.sweeps.max(1);
        // Only swept variables can change between sweeps, so only they are
        // counted per sweep; everything else is filled in once at the end.
        let mut counts = vec![0usize; swept.len()];
        for _ in 0..options.burn_in {
            sweep_over(&self.flat, swept, &mut self.world, &mut self.rng);
        }
        for _ in 0..sweeps {
            sweep_over(&self.flat, swept, &mut self.world, &mut self.rng);
            for (count, &v) in counts.iter_mut().zip(swept) {
                *count += usize::from(self.world.value(v));
            }
        }
        let mut values: Vec<f64> = self
            .world
            .iter()
            .map(|b| if b { 1.0 } else { 0.0 })
            .collect();
        for (&count, &v) in counts.iter().zip(swept) {
            values[v] = count as f64 / sweeps as f64;
        }
        for &v in exact {
            values[v] = self.flat.static_p_true(v).expect("static variable");
        }
        Marginals::from_values(values)
    }

    /// Draw `n` samples (one per sweep, after burn-in) into a [`SampleSet`] —
    /// this is the materialization phase of the sampling approach.
    ///
    /// Coupled variables are one Gibbs chain, as ever.  Static variables are
    /// drawn i.i.d. from their exact marginal, a column at a time (see the
    /// module docs): exact, autocorrelation-free proposals, which is what
    /// the independence sampler of §3.2.2 wants of its stored worlds.  The
    /// sampler's own world keeps the chain's state; its static bits are not
    /// the last row's.
    pub fn draw_samples(&mut self, n: usize, burn_in: usize) -> SampleSet {
        self.draw(n, burn_in, |drawn| drawn < n)
    }

    /// [`GibbsSampler::draw_samples`] for as long as `more(samples drawn so
    /// far)` holds (asked before every sample): the best-effort
    /// materialization of §3.3 draws until a time budget is spent.
    pub fn draw_samples_while(
        &mut self,
        burn_in: usize,
        more: impl FnMut(usize) -> bool,
    ) -> SampleSet {
        self.draw(0, burn_in, more)
    }

    /// The drawing loop, into a set with room for `expected` samples.
    fn draw(
        &mut self,
        expected: usize,
        burn_in: usize,
        mut more: impl FnMut(usize) -> bool,
    ) -> SampleSet {
        let (swept, exact) = estimation_split(&self.free_vars, &self.flat);
        let flat = &*self.flat;
        let p_true = |v| flat.static_p_true(v).expect("static variable");
        let mut set = SampleSet::new(flat.num_variables());
        set.reserve(expected);
        for _ in 0..burn_in {
            sweep_over(flat, swept, &mut self.world, &mut self.rng);
        }
        // Blocks of 64 samples, the unit the static columns are drawn in.
        loop {
            let base = set.len();
            while set.len() - base < 64 && more(set.len()) {
                sweep_over(flat, swept, &mut self.world, &mut self.rng);
                set.push(&self.world);
            }
            let count = set.len() - base;
            set.fill_bernoulli(base, count, exact, p_true, &mut self.rng);
            if count < 64 {
                return set;
            }
        }
    }
}

/// The variables a sampler resamples: the explicit list, or by default the
/// graph's query variables.  (Functions of the two fields rather than
/// methods, so a sweep can borrow the world and the RNG mutably beside them.)
fn free_vars_of<'a>(explicit: &'a Option<Vec<VarId>>, flat: &'a FlatGraph) -> &'a [VarId] {
    match explicit {
        Some(explicit) => explicit,
        None => flat.query_variables(),
    }
}

/// `(swept, exact)`: the variables [`GibbsSampler::run`] and
/// [`GibbsSampler::draw_samples`] sweep, and the ones they answer from
/// [`FlatGraph::static_p_true`] instead.
fn estimation_split<'a>(
    explicit: &'a Option<Vec<VarId>>,
    flat: &'a FlatGraph,
) -> (&'a [VarId], &'a [VarId]) {
    match explicit {
        Some(explicit) => (explicit, &[]),
        None => (
            flat.coupled_query_variables(),
            flat.static_query_variables(),
        ),
    }
}

/// Logistic function.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder};

    fn single_var_graph(weight: f64) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let v = b.add_query_variables(1)[0];
        let w = b.tied_weight("prior", weight, false);
        b.add_factor(Factor::is_true(w, v));
        b.build()
    }

    fn pair_graph(prior: f64, coupling: f64) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(2);
        let wp = b.tied_weight("prior", prior, false);
        let wc = b.tied_weight("couple", coupling, false);
        b.add_factor(Factor::is_true(wp, vs[0]));
        b.add_factor(Factor::equal(wc, vs[0], vs[1]));
        b.build()
    }

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(20.0) > 0.999);
        assert!(sigmoid(-20.0) < 0.001);
        // numerically stable for large negative inputs
        assert!(sigmoid(-1000.0) >= 0.0);
    }

    #[test]
    fn gibbs_matches_exact_marginal_single_variable() {
        let g = single_var_graph(1.0);
        let mut s = GibbsSampler::new(&g, 7);
        let m = s.run(&GibbsOptions::new(4000, 200));
        let expected = g.exact_marginal(0);
        assert!(
            (m.get(0) - expected).abs() < 0.03,
            "gibbs {} vs exact {}",
            m.get(0),
            expected
        );
    }

    #[test]
    fn gibbs_matches_exact_marginal_pair() {
        let g = pair_graph(0.8, 1.2);
        let mut s = GibbsSampler::new(&g, 11);
        let m = s.run(&GibbsOptions::new(6000, 500));
        for v in 0..2 {
            let expected = g.exact_marginal(v);
            assert!(
                (m.get(v) - expected).abs() < 0.03,
                "var {v}: gibbs {} vs exact {}",
                m.get(v),
                expected
            );
        }
    }

    #[test]
    fn evidence_variables_are_never_flipped() {
        let mut b = FactorGraphBuilder::new();
        let q = b.add_query_variables(1)[0];
        let e = b.add_evidence_variable(true);
        let w = b.tied_weight("eq", -5.0, false);
        b.add_factor(Factor::equal(w, q, e));
        let g = b.build();
        let mut s = GibbsSampler::new(&g, 3);
        let m = s.run(&GibbsOptions::new(500, 50));
        // evidence stays pinned at 1.0
        assert_eq!(m.get(e), 1.0);
        // strong negative coupling pushes q towards false
        assert!(m.get(q) < 0.15);
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let g = pair_graph(0.3, 0.9);
        let m1 = GibbsSampler::new(&g, 99).run(&GibbsOptions::new(300, 10));
        let m2 = GibbsSampler::new(&g, 99).run(&GibbsOptions::new(300, 10));
        assert_eq!(m1.values(), m2.values());
    }

    #[test]
    fn borrowed_and_owned_compilations_agree_exactly() {
        // Determinism across representations: a sampler compiled on the spot
        // and one borrowing a pre-compiled FlatGraph must walk the same chain.
        let g = pair_graph(0.3, 0.9);
        let flat = g.compile();
        let opts = GibbsOptions::new(300, 10);
        let owned = GibbsSampler::new(&g, 99).run(&opts);
        let borrowed = GibbsSampler::from_flat(&flat, 99).run(&opts);
        assert_eq!(owned.values(), borrowed.values());
    }

    #[test]
    fn sample_set_round_trip_and_storage() {
        let g = pair_graph(0.0, 0.5);
        let mut s = GibbsSampler::new(&g, 5);
        let set = s.draw_samples(64, 10);
        assert_eq!(set.len(), 64);
        // 2 variables -> 1 byte per sample
        assert_eq!(set.storage_bytes(), 64);
        // The last row is the sampler's final world, bit for bit.
        let last = set.row(63);
        assert_eq!(last.words(), s.world().as_words());
        assert_eq!(last.bytes().collect::<Vec<u8>>(), s.world().to_bitvec());
        let m = set.marginals();
        assert!(m.get(0) >= 0.0 && m.get(0) <= 1.0);
    }

    #[test]
    fn sample_set_marginals_match_per_world_counting() {
        let g = pair_graph(0.4, 0.2);
        let mut s = GibbsSampler::new(&g, 21);
        let set = s.draw_samples(200, 20);
        let fast = set.marginals();
        // Reference: read every row bit by bit and count.
        let mut counts = vec![0usize; set.num_vars()];
        for row in set.rows() {
            for (v, c) in counts.iter_mut().enumerate() {
                if row.value(v) {
                    *c += 1;
                }
            }
        }
        for (v, &c) in counts.iter().enumerate() {
            assert!((fast.get(v) - c as f64 / set.len() as f64).abs() < 1e-12);
        }
        // Under a mask, only the selected variable is counted.
        assert_eq!(set.true_counts(&[0b10]), vec![0, counts[1]]);
    }

    /// The per-sample `Vec<u8>` bundle store the arena replaced, kept as the
    /// reference the arena's byte view must reproduce.
    fn reference_bundles(worlds: &[World]) -> Vec<Vec<u8>> {
        worlds.iter().map(World::to_bitvec).collect()
    }

    #[test]
    fn arena_rows_round_trip_through_bundle_bytes() {
        // Word-aligned, sub-word, and straddling sizes; 0 variables too.
        for num_vars in [0usize, 1, 7, 8, 63, 64, 65, 130, 192] {
            let worlds: Vec<World> = (0..5)
                .map(|s| World::from_values((0..num_vars).map(|v| (v * 7 + s) % 3 == 0).collect()))
                .collect();
            let mut set = SampleSet::new(num_vars);
            for w in &worlds {
                set.push(w);
            }
            assert_eq!(set.len(), 5);
            assert_eq!(set.storage_bytes(), 5 * num_vars.div_ceil(8));
            let bundles = reference_bundles(&worlds);
            let mut decoded = SampleSet::new(num_vars);
            for (row, bundle) in set.rows().zip(&bundles) {
                assert_eq!(&row.bytes().collect::<Vec<u8>>(), bundle, "{num_vars} vars");
                assert!(decoded.push_byte_iter(bundle.iter().copied()));
            }
            assert_eq!(decoded, set, "{num_vars} vars");
            for (row, world) in decoded.rows().zip(&worlds) {
                assert_eq!(row.words(), world.as_words());
                assert!((0..num_vars).all(|v| row.value(v) == world.value(v)));
            }
        }
        // The empty set: nothing stored, nothing to read, marginals all zero.
        let empty = SampleSet::new(70);
        assert!(empty.is_empty());
        assert_eq!(empty.rows().count(), 0);
        assert_eq!(empty.storage_bytes(), 0);
        assert_eq!(empty.marginals().values(), vec![0.0; 70]);
    }

    #[test]
    fn push_byte_iter_rejects_wrong_lengths_and_masks_the_tail() {
        let mut set = SampleSet::new(12);
        assert!(!set.push_byte_iter([0xff].into_iter()));
        assert!(!set.push_byte_iter([0xff, 0xff, 0xff].into_iter()));
        assert!(set.is_empty());
        // Bits 12..16 of the second byte are beyond the variables.
        assert!(set.push_byte_iter([0xff, 0xff].into_iter()));
        assert_eq!(set.row(0).words(), &[0x0fff]);
        assert_eq!(set.row(0).bytes().collect::<Vec<u8>>(), vec![0xff, 0x0f]);
    }

    #[test]
    fn transpose64_matches_the_bitwise_definition() {
        let mut rng = SweepRng::seed_from_u64(5);
        let original: [u64; 64] = std::array::from_fn(|_| rng.gen());
        let mut m = original;
        transpose64(&mut m);
        for (i, row) in m.iter().enumerate() {
            for (j, source) in original.iter().enumerate() {
                assert_eq!(row >> j & 1, source >> i & 1, "bit ({i}, {j})");
            }
        }
        transpose64(&mut m);
        assert_eq!(m, original);
    }

    #[test]
    fn bernoulli_word_is_exact_at_the_ends_and_unbiased_between() {
        let mut rng = SweepRng::seed_from_u64(9);
        assert_eq!(bernoulli_word(0.0, &mut rng), 0);
        assert_eq!(bernoulli_word(1.0, &mut rng), u64::MAX);
        // Below the 2^-53 resolution of a uniform draw: never true.
        assert_eq!(bernoulli_word(1e-17, &mut rng), 0);
        // p = 0.5 is one bit of p, so one random word; p = 0 is none.
        let mut a = SweepRng::seed_from_u64(3);
        let mut b = SweepRng::seed_from_u64(3);
        bernoulli_word(0.0, &mut a);
        bernoulli_word(0.5, &mut a);
        let _: u64 = b.gen();
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        for p in [1e-9, 0.03, 0.25, 0.5, 0.731, 1.0 - 1e-9] {
            let words = 4000;
            let ones: u32 = (0..words)
                .map(|_| bernoulli_word(p, &mut rng).count_ones())
                .sum();
            let n = f64::from(words * 64);
            let sigma = (p * (1.0 - p) / n).sqrt();
            assert!(
                (f64::from(ones) / n - p).abs() <= 4.5 * sigma + 1e-12,
                "p = {p}: {ones} ones in {n} draws"
            );
        }
    }

    #[test]
    fn static_columns_overwrite_exactly_their_own_bits() {
        // 130 variables, every third one "static": fill two blocks (64 + 6
        // samples) over rows preset to all-ones / all-zeros and check that
        // only static bits moved.
        let num_vars = 130;
        let statics: Vec<VarId> = (0..num_vars).filter(|v| v % 3 == 0).collect();
        for preset in [false, true] {
            let world = World::from_values(vec![preset; num_vars]);
            let mut set = SampleSet::new(num_vars);
            for _ in 0..70 {
                set.push(&world);
            }
            let mut rng = SweepRng::seed_from_u64(1);
            let p_true = |v: VarId| if v % 2 == 0 { 1.0 } else { 0.0 };
            set.fill_bernoulli(0, 64, &statics, p_true, &mut rng);
            set.fill_bernoulli(64, 6, &statics, p_true, &mut rng);
            for row in set.rows() {
                for v in 0..num_vars {
                    let expected = if v % 3 == 0 { v % 2 == 0 } else { preset };
                    assert_eq!(row.value(v), expected, "variable {v}");
                }
                // The tail of the last word stays clear.
                assert_eq!(row.words()[2] >> 2, 0);
            }
        }
    }

    #[test]
    fn column_reads_a_variable_across_samples() {
        let g = pair_graph(0.4, 0.2);
        let set = GibbsSampler::new(&g, 21).draw_samples(150, 5);
        for v in 0..2 {
            let column = set.column(v);
            assert_eq!(column.len(), 3);
            for (i, row) in set.rows().enumerate() {
                assert_eq!(column[i / 64] >> (i % 64) & 1 == 1, row.value(v));
            }
            assert_eq!(column[2] >> (150 - 128), 0);
        }
    }

    #[test]
    fn expected_feature_counts_reflect_marginals() {
        let g = single_var_graph(2.0);
        let mut s = GibbsSampler::new(&g, 17);
        for _ in 0..100 {
            s.sweep();
        }
        let vars = free_vars_of(&s.free_vars, &s.flat);
        let counts = expected_feature_counts_over(&s.flat, vars, &mut s.world, &mut s.rng, 2000);
        let expected = g.exact_marginal(0);
        assert!((counts[0] - expected).abs() < 0.05);
    }

    #[test]
    fn with_free_vars_restricts_resampling() {
        let g = pair_graph(5.0, 0.0);
        // only variable 1 is free; variable 0 keeps its initial (false) value.
        let mut s = GibbsSampler::new(&g, 2).with_free_vars(vec![1]);
        let m = s.run(&GibbsOptions::new(200, 10));
        assert_eq!(m.get(0), 0.0);
    }
}
