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
//! The compiled graph splits its query variables into components
//! ([`FlatGraph::query_components`]).  A component of at most
//! [`dd_factorgraph::MAX_ENUMERATED_VARS`] variables is answered exactly
//! by [`crate::enumerate_components`]; KBC graphs are dominated by such
//! components (Example 2.6's logistic-regression variables are singletons).
//! So [`GibbsSampler::run`] sweeps only the variables of the larger
//! components ([`FlatGraph::sampled_query_variables`]) and enumerates the
//! rest, and [`GibbsSampler::draw_samples`] sweeps the same variables and
//! stores only their columns.  A sampler given its variables explicitly
//! ([`GibbsSampler::with_free_vars`]) sweeps, and stores, all of them and
//! enumerates nothing, and [`GibbsSampler::sweep`] always resamples every
//! free variable — the learning gradient needs the whole world sampled.

use crate::exact::enumerate_components;
use crate::marginals::Marginals;
use dd_factorgraph::{FactorGraph, FlatGraph, VarId, World};
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
/// A sample keeps the values of its *columns* only: the variables the
/// sampler swept, in id order (the variables of the graph's sampled
/// components — every other variable is evidence or enumerated, and has
/// nothing to store).  All samples live in one contiguous arena of `u64`
/// words with a fixed stride of `columns.len().div_ceil(64)` words per
/// sample; bit `j` of a row is column `j` (low bit of word 0 first, bits
/// past the last column zero).  Reading one is a borrowed [`SampleRow`] —
/// no sample is ever its own heap object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleSet {
    /// Variables of the graph the samples were drawn from.
    num_vars: usize,
    /// The variable each column holds, ascending.
    columns: Vec<VarId>,
    /// Number of stored samples (the arena is empty without columns).
    len: usize,
    words: Vec<u64>,
}

/// One stored sample, borrowed from its [`SampleSet`]: bit `j` is the value
/// of column `j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRow<'a> {
    words: &'a [u64],
    num_columns: usize,
}

impl<'a> SampleRow<'a> {
    /// The row's packed words.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// The value of column `j`.
    pub fn get(&self, j: usize) -> bool {
        self.words[j / 64] >> (j % 64) & 1 == 1
    }

    /// The row as bytes, 8 columns per byte — `num_columns.div_ceil(8)` of
    /// them (the checkpoint codec's unit).
    pub fn bytes(&self) -> impl Iterator<Item = u8> + 'a {
        self.words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(self.num_columns.div_ceil(8))
    }
}

impl SampleSet {
    /// An empty sample set over `columns` (ascending) of a graph of
    /// `num_vars` variables.
    pub fn new(num_vars: usize, columns: Vec<VarId>) -> Self {
        debug_assert!(columns.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(columns.last().is_none_or(|&v| v < num_vars));
        SampleSet {
            num_vars,
            columns,
            len: 0,
            words: Vec::new(),
        }
    }

    /// Number of variables of the graph the samples were drawn from.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The variable each column holds, ascending.
    pub fn columns(&self) -> &[VarId] {
        &self.columns
    }

    /// Words per stored sample.
    fn stride(&self) -> usize {
        self.columns.len().div_ceil(64)
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

    /// Store the columns of a world.
    pub fn push(&mut self, world: &World) {
        assert_eq!(world.len(), self.num_vars, "sample over the wrong graph");
        let bits = self.columns.iter().map(|&v| world.value(v));
        push_row(&mut self.words, self.columns.len(), bits);
        self.len += 1;
    }

    /// Store a sample given as bytes, 8 columns per byte (the inverse of
    /// [`SampleRow::bytes`]; bits past the last column are dropped).
    /// Returns `false`, storing nothing, unless there are exactly
    /// `columns.len().div_ceil(8)` bytes.  The bytes may be produced one at
    /// a time (a decoder's output): they are packed straight into the new
    /// row.
    pub fn push_byte_iter(&mut self, bytes: impl ExactSizeIterator<Item = u8>) -> bool {
        let num_columns = self.columns.len();
        if bytes.len() != num_columns.div_ceil(8) {
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
        let tail = num_columns % 64;
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
            num_columns: self.columns.len(),
        }
    }

    /// The stored samples, in the order they were drawn.
    pub fn rows(&self) -> impl Iterator<Item = SampleRow<'_>> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Write sample `i`'s columns into `world`; every other variable keeps
    /// its value.
    pub fn load_row(&self, i: usize, world: &mut World) {
        let row = self.row(i);
        for (j, &v) in self.columns.iter().enumerate() {
            world.set(v, row.get(j));
        }
    }

    /// The same samples over the columns of `keep` that this set has (both
    /// ascending): how a store written before a column went away is read.
    pub fn restrict_to(&self, keep: &[VarId]) -> SampleSet {
        let kept: Vec<usize> = keep
            .iter()
            .filter_map(|v| self.columns.binary_search(v).ok())
            .collect();
        let mut out = SampleSet::new(
            self.num_vars,
            kept.iter().map(|&j| self.columns[j]).collect(),
        );
        out.reserve(self.len);
        for row in self.rows() {
            push_row(&mut out.words, kept.len(), kept.iter().map(|&j| row.get(j)));
            out.len += 1;
        }
        out
    }

    /// Storage size in bytes at 1 bit per column per sample (the arena
    /// itself rounds every sample up to whole words).
    pub(crate) fn storage_bytes(&self) -> usize {
        self.len * self.columns.len().div_ceil(8)
    }

    /// Empirical marginals of the stored samples over the graph's
    /// variables, accumulated straight off the packed bits (no per-sample
    /// `World` is ever materialized); a variable without a column reads 0.
    pub fn marginals(&self) -> Marginals {
        let mut values = vec![0.0; self.num_vars];
        let n = self.len.max(1) as f64;
        for (&v, count) in self.columns.iter().zip(self.column_counts()) {
            values[v] = count as f64 / n;
        }
        Marginals::from_values(values)
    }

    /// In how many stored samples each column is true.  Word-level: the
    /// cost follows the set bits.
    pub(crate) fn column_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.columns.len()];
        for row in self.rows() {
            for (word_index, &word) in row.words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    counts[word_index * 64 + bits.trailing_zeros() as usize] += 1;
                    bits &= bits - 1;
                }
            }
        }
        counts
    }

    /// Column `j` across the stored samples as a bitset: bit `i % 64` of
    /// word `i / 64` is its value in sample `i` (bits past the last sample
    /// are zero), so pair statistics are an AND and a popcount per 64
    /// samples.
    pub fn column(&self, j: usize) -> Vec<u64> {
        assert!(j < self.columns.len(), "column {j} out of bounds");
        let stride = self.stride();
        let (word, shift) = (j / 64, j % 64);
        let mut column = vec![0u64; self.len.div_ceil(64)];
        for i in 0..self.len {
            column[i / 64] |= (self.words[i * stride + word] >> shift & 1) << (i % 64);
        }
        column
    }
}

/// Append one arena row: `num_columns` bits in column order, 64 to a word.
fn push_row(words: &mut Vec<u64>, num_columns: usize, mut bits: impl Iterator<Item = bool>) {
    for _ in 0..num_columns.div_ceil(64) {
        let word = bits
            .by_ref()
            .take(64)
            .enumerate()
            .fold(0u64, |word, (bit, value)| word | u64::from(value) << bit);
        words.push(word);
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
/// caller already holds a compiled graph — the learning loop, the engine's
/// inference after it — borrow one with [`GibbsSampler::from_flat`].
///
/// ```
/// use dd_factorgraph::{Factor, FactorGraphBuilder, MAX_ENUMERATED_VARS};
/// use dd_inference::{GibbsOptions, GibbsSampler};
///
/// // One query variable with a positive prior factor, and a chain of
/// // variables one longer than the enumeration limit.
/// let mut b = FactorGraphBuilder::new();
/// let v = b.add_query_variables(1)[0];
/// let w = b.tied_weight("prior", 1.0, false);
/// b.add_factor(Factor::is_true(w, v));
/// let chain = b.add_query_variables(MAX_ENUMERATED_VARS + 1);
/// for pair in chain.windows(2) {
///     b.add_factor(Factor::equal(w, pair[0], pair[1]));
/// }
/// let graph = b.build();
///
/// let mut sampler = GibbsSampler::new(&graph, 7);
/// let marginals = sampler.run(&GibbsOptions::new(4000, 200));
/// // P(v) = sigmoid(1.0) ≈ 0.731, enumerated exactly ...
/// assert!((marginals.get(v) - 1.0f64.exp() / (1.0 + 1.0f64.exp())).abs() < 1e-15);
/// // ... and the chain, by symmetry at 0.5, sampled.
/// assert!((marginals.get(chain[0]) - 0.5).abs() < 0.1);
/// // Runs are bit-deterministic for a fixed seed.
/// let again = GibbsSampler::new(&graph, 7).run(&GibbsOptions::new(4000, 200));
/// assert_eq!(marginals.values(), again.values());
/// ```
pub struct GibbsSampler<'g> {
    flat: Cow<'g, FlatGraph>,
    rng: SweepRng,
    world: World,
    /// The resampled variables when given explicitly; `None` is the graph's
    /// query variables, of which the estimators sweep the sampled
    /// components' and enumerate the rest — see the module docs.
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
    /// one variable group at a time; the engine samples the components its
    /// materialization cannot serve).  Every one of them is swept, by the
    /// estimators as well: an explicit list opts out of enumeration.
    pub fn with_free_vars(mut self, free_vars: Vec<VarId>) -> Self {
        self.free_vars = Some(free_vars);
        self
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
    /// The sweeps continue the sampler's RNG stream from the seed it was
    /// built with.
    ///
    /// Only the variables of sampled components are swept; enumerated
    /// components report their exact marginals, so a graph without a
    /// sampled component is answered without drawing a random number (see
    /// the module docs).
    pub fn run(&mut self, options: &GibbsOptions) -> Marginals {
        let swept = swept_vars(&self.free_vars, &self.flat);
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
        let mut marginals = Marginals::from_values(
            self.world
                .iter()
                .map(|b| if b { 1.0 } else { 0.0 })
                .collect(),
        );
        for (&count, &v) in counts.iter().zip(swept) {
            marginals.set(v, count as f64 / sweeps as f64);
        }
        if self.free_vars.is_none() {
            enumerate_components(&self.flat, &mut marginals);
        }
        marginals
    }

    /// Draw `n` samples (one per sweep, after burn-in) into a [`SampleSet`] —
    /// this is the materialization phase of the sampling approach.  Its
    /// columns are the swept variables (see the module docs): a graph
    /// without a sampled component stores `n` samples of no bits.
    pub fn draw_samples(&mut self, n: usize, burn_in: usize) -> SampleSet {
        self.draw(n, burn_in, |drawn| drawn < n)
    }

    /// [`GibbsSampler::draw_samples`] for as long as `more(samples drawn so
    /// far)` holds (asked before every sample): the best-effort
    /// materialization of §3.3 draws until a time budget is spent.  With
    /// nothing to sweep a sample stores no bit and costs no RNG draw, but is
    /// counted all the same.
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
        let swept = swept_vars(&self.free_vars, &self.flat);
        let flat = &*self.flat;
        let mut set = SampleSet::new(flat.num_variables(), swept.to_vec());
        set.reserve(expected);
        for _ in 0..burn_in {
            sweep_over(flat, swept, &mut self.world, &mut self.rng);
        }
        while more(set.len()) {
            sweep_over(flat, swept, &mut self.world, &mut self.rng);
            set.push(&self.world);
        }
        set
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

/// The variables [`GibbsSampler::run`] and [`GibbsSampler::draw_samples`]
/// sweep: the explicit list, or by default the sampled components'.
fn swept_vars<'a>(explicit: &'a Option<Vec<VarId>>, flat: &'a FlatGraph) -> &'a [VarId] {
    match explicit {
        Some(explicit) => explicit,
        None => flat.sampled_query_variables(),
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
    use dd_factorgraph::{Factor, FactorGraphBuilder, MAX_ENUMERATED_VARS};

    fn single_var_graph(weight: f64) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let v = b.add_query_variables(1)[0];
        let w = b.tied_weight("prior", weight, false);
        b.add_factor(Factor::is_true(w, v));
        b.build()
    }

    /// A chain of `n` query variables tied by `equal`, a prior on its head:
    /// one component, sampled when `n > MAX_ENUMERATED_VARS`.
    fn chain_graph(n: usize, prior: f64, coupling: f64) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(n);
        let wp = b.tied_weight("prior", prior, false);
        let wc = b.tied_weight("couple", coupling, false);
        b.add_factor(Factor::is_true(wp, vs[0]));
        for pair in vs.windows(2) {
            b.add_factor(Factor::equal(wc, pair[0], pair[1]));
        }
        b.build()
    }

    const SAMPLED: usize = MAX_ENUMERATED_VARS + 1;

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(20.0) > 0.999);
        assert!(sigmoid(-20.0) < 0.001);
        // numerically stable for large negative inputs
        assert!(sigmoid(-1000.0) >= 0.0);
    }

    #[test]
    fn small_components_are_exact_without_sweeping() {
        for g in [
            single_var_graph(1.0),
            chain_graph(MAX_ENUMERATED_VARS, 0.8, 1.2),
        ] {
            let flat = g.compile();
            assert!(flat.sampled_query_variables().is_empty());
            let a = GibbsSampler::from_flat(&flat, 7).run(&GibbsOptions::new(0, 0));
            let b = GibbsSampler::from_flat(&flat, 8).run(&GibbsOptions::new(500, 50));
            assert_eq!(a.values(), b.values());
            for v in 0..g.num_variables() {
                assert!((a.get(v) - g.exact_marginal(v)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gibbs_matches_exact_marginal_on_a_sampled_chain() {
        let g = chain_graph(SAMPLED, 0.8, 1.2);
        let flat = g.compile();
        assert_eq!(flat.sampled_query_variables().len(), SAMPLED);
        let m = GibbsSampler::from_flat(&flat, 11).run(&GibbsOptions::new(6000, 500));
        for v in [0, SAMPLED / 2, SAMPLED - 1] {
            let expected = g.exact_marginal(v);
            assert!(
                (m.get(v) - expected).abs() < 0.04,
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
        let mut s = GibbsSampler::new(&g, 3).with_free_vars(vec![q]);
        let m = s.run(&GibbsOptions::new(500, 50));
        // evidence stays pinned at 1.0
        assert_eq!(m.get(e), 1.0);
        // strong negative coupling pushes q towards false
        assert!(m.get(q) < 0.15);
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let g = chain_graph(SAMPLED, 0.3, 0.9);
        let m1 = GibbsSampler::new(&g, 99).run(&GibbsOptions::new(300, 10));
        let m2 = GibbsSampler::new(&g, 99).run(&GibbsOptions::new(300, 10));
        assert_eq!(m1.values(), m2.values());
    }

    #[test]
    fn borrowed_and_owned_compilations_agree_exactly() {
        // Determinism across representations: a sampler compiled on the spot
        // and one borrowing a pre-compiled FlatGraph must walk the same chain.
        let g = chain_graph(SAMPLED, 0.3, 0.9);
        let flat = g.compile();
        let opts = GibbsOptions::new(300, 10);
        let owned = GibbsSampler::new(&g, 99).run(&opts);
        let borrowed = GibbsSampler::from_flat(&flat, 99).run(&opts);
        assert_eq!(owned.values(), borrowed.values());
    }

    #[test]
    fn samples_store_the_sampled_components_columns_only() {
        // A sampled chain, a small pair and an evidence variable between.
        let mut b = FactorGraphBuilder::new();
        let w = b.tied_weight("w", 0.5, false);
        let chain = b.add_query_variables(SAMPLED);
        let e = b.add_evidence_variable(true);
        let pair = b.add_query_variables(2);
        for p in chain.windows(2).chain([&pair[..]]) {
            b.add_factor(Factor::equal(w, p[0], p[1]));
        }
        b.add_factor(Factor::imply(w, &[e], chain[0]));
        let g = b.build();
        let mut s = GibbsSampler::new(&g, 5);
        let set = s.draw_samples(70, 10);
        assert_eq!(set.len(), 70);
        assert_eq!(set.columns(), chain.as_slice());
        // 13 columns -> 2 bytes per sample
        assert_eq!(set.storage_bytes(), 70 * 2);
        // The last row is the sampler's final world's columns.
        let last = set.row(69);
        for (j, &v) in chain.iter().enumerate() {
            assert_eq!(last.get(j), s.world().value(v));
        }
        let mut world = World::all_false(g.num_variables());
        set.load_row(69, &mut world);
        assert!(chain.iter().all(|&v| world.value(v) == s.world().value(v)));
        assert!(
            !world.value(e) && !world.value(pair[0]),
            "other bits untouched"
        );
        // Marginals by variable id: no column, no count.
        let m = set.marginals();
        assert_eq!(m.len(), g.num_variables());
        assert_eq!((m.get(e), m.get(pair[0])), (0.0, 0.0));
        // A graph without a sampled component stores samples of no bits.
        let small = single_var_graph(0.4);
        let empty = GibbsSampler::new(&small, 5).draw_samples(1500, 100);
        assert_eq!((empty.len(), empty.storage_bytes()), (1500, 0));
        assert!(empty.columns().is_empty());
    }

    #[test]
    fn sample_set_marginals_match_per_row_counting() {
        let g = chain_graph(SAMPLED, 0.4, 0.2);
        let mut s = GibbsSampler::new(&g, 21);
        let set = s.draw_samples(200, 20);
        let fast = set.marginals();
        // Reference: read every row bit by bit and count.
        let mut counts = vec![0usize; set.columns().len()];
        for row in set.rows() {
            for (j, c) in counts.iter_mut().enumerate() {
                *c += usize::from(row.get(j));
            }
        }
        assert_eq!(set.column_counts(), counts);
        for (&v, &c) in set.columns().iter().zip(&counts) {
            assert!((fast.get(v) - c as f64 / set.len() as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn arena_rows_round_trip_through_bundle_bytes() {
        // Word-aligned, sub-word, and straddling column counts; 0 too.
        for num_columns in [0usize, 1, 7, 8, 63, 64, 65, 130, 192] {
            let num_vars = num_columns * 2 + 1;
            let columns: Vec<VarId> = (0..num_columns).map(|j| 2 * j + 1).collect();
            let worlds: Vec<World> = (0..5)
                .map(|s| World::from_values((0..num_vars).map(|v| (v * 7 + s) % 3 == 0).collect()))
                .collect();
            let mut set = SampleSet::new(num_vars, columns.clone());
            for w in &worlds {
                set.push(w);
            }
            assert_eq!(set.len(), 5);
            assert_eq!(set.storage_bytes(), 5 * num_columns.div_ceil(8));
            let mut decoded = SampleSet::new(num_vars, columns.clone());
            for row in set.rows() {
                let bytes: Vec<u8> = row.bytes().collect();
                assert_eq!(bytes.len(), num_columns.div_ceil(8));
                assert!(decoded.push_byte_iter(bytes.into_iter()));
            }
            assert_eq!(decoded, set, "{num_columns} columns");
            for (row, world) in decoded.rows().zip(&worlds) {
                assert!((0..num_columns).all(|j| row.get(j) == world.value(columns[j])));
            }
            // Restricting to every other column keeps exactly those bits.
            let keep: Vec<VarId> = columns.iter().copied().step_by(2).collect();
            let narrow = set.restrict_to(&keep);
            assert_eq!(narrow.columns(), keep.as_slice());
            for (row, world) in narrow.rows().zip(&worlds) {
                assert!((0..keep.len()).all(|j| row.get(j) == world.value(keep[j])));
            }
        }
        // The empty set: nothing stored, nothing to read, marginals all zero.
        let empty = SampleSet::new(70, vec![3, 9]);
        assert!(empty.is_empty());
        assert_eq!(empty.rows().count(), 0);
        assert_eq!(empty.storage_bytes(), 0);
        assert_eq!(empty.marginals().values(), vec![0.0; 70]);
    }

    #[test]
    fn push_byte_iter_rejects_wrong_lengths_and_masks_the_tail() {
        let mut set = SampleSet::new(20, (0..12).collect());
        assert!(!set.push_byte_iter([0xff].into_iter()));
        assert!(!set.push_byte_iter([0xff, 0xff, 0xff].into_iter()));
        assert!(set.is_empty());
        // Bits 12..16 of the second byte are beyond the columns.
        assert!(set.push_byte_iter([0xff, 0xff].into_iter()));
        assert_eq!(set.row(0).words(), &[0x0fff]);
        assert_eq!(set.row(0).bytes().collect::<Vec<u8>>(), vec![0xff, 0x0f]);
    }

    #[test]
    fn column_reads_a_variable_across_samples() {
        let g = chain_graph(SAMPLED, 0.4, 0.2);
        let set = GibbsSampler::new(&g, 21).draw_samples(150, 5);
        for j in 0..2 {
            let column = set.column(j);
            assert_eq!(column.len(), 3);
            for (i, row) in set.rows().enumerate() {
                assert_eq!(column[i / 64] >> (i % 64) & 1 == 1, row.get(j));
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
        let g = chain_graph(2, 5.0, 0.0);
        // only variable 1 is free; variable 0 keeps its initial (false) value.
        let mut s = GibbsSampler::new(&g, 2).with_free_vars(vec![1]);
        let m = s.run(&GibbsOptions::new(200, 10));
        assert_eq!(m.get(0), 0.0);
    }
}
