//! Lock-free parallel Gibbs sampling (hogwild style) on a persistent pool.
//!
//! DimmWitted — the sampler behind DeepDive — runs Gibbs sweeps on many cores
//! concurrently without locking the assignment vector; races are tolerated
//! because each variable update only reads a small neighbourhood and the chain
//! remains ergodic.  We reproduce that design: the world lives in a vector of
//! `AtomicU64` bit-words (the same 1-bit-per-variable layout as the sequential
//! sampler's `World`), and each sweep partitions the query variables into
//! chunks dispatched across worker threads.
//!
//! Three runtime properties distinguish this from a naive fork-join sweep:
//!
//! * **Persistent workers** — sweeps are dispatched onto a long-lived
//!   [`rayon::ThreadPool`] (the process-global one by default, or any pool
//!   given to [`ParallelGibbs::with_pool`]); workers park between sweeps
//!   instead of being respawned, so the per-sweep cost is an epoch-barrier
//!   wake rather than thread creation.
//! * **Persistent RNG streams** — every chunk owns a [`SweepRng`] seeded once
//!   via [`mix_seed`] (a splitmix64-style avalanche mixer)
//!   and advanced across the whole run, instead of reseeding from weakly
//!   mixed `(seed, sweep, chunk)` XORs every sweep.  Runs remain fully
//!   deterministic for a fixed `(seed, chunk count)` whenever chunks execute
//!   without interleaving (one chunk, or a pool of size 1); with real
//!   hogwild interleaving, per-chunk streams still make each chunk's draw
//!   sequence reproducible even though read timing is not.
//! * **Worker-local marginal counting** — during counting sweeps each chunk
//!   accumulates `true` counts for *its own* variables into a chunk-local
//!   buffer while it still holds them in cache; [`ParallelGibbs::run`] merges
//!   the buffers once at the end.  A variable's value only changes when its
//!   own chunk resamples it, so counting at resample time is exactly
//!   equivalent to (and much cheaper than) a sequential end-of-sweep scan of
//!   the shared world.
//!
//! Like the sequential sampler, [`ParallelGibbs::run`] sweeps only the
//! *coupled* query variables and reports static ones from
//! [`FlatGraph::static_p_true`] (exactly, and the same whatever the chunking
//! or interleaving), unless the variables were given explicitly;
//! [`ParallelGibbs::sweep`] resamples every free variable.  The chunk
//! layout is a function of the list being swept and the chunk count, so both
//! run on the same per-chunk RNG streams.
//!
//! The energy computation is the *same* single-pass
//! [`FlatGraph::energy_delta`] the sequential sampler uses — it reads the
//! shared world through [`WorldView`] and overrides the variable being
//! resampled internally, so no per-thread scratch world or pinning wrapper is
//! needed and there is exactly one energy-delta implementation in the system.

use crate::gibbs::SweepRng;
use crate::marginals::Marginals;
use crate::rng::mix_seed;
use dd_factorgraph::{FactorGraph, FlatGraph, VarId, World, WorldView};
use rand::{Rng, SeedableRng};
use rayon::ThreadPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared, lock-free, bit-packed world representation.
struct AtomicWorld {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicWorld {
    fn from_world(world: &World) -> Self {
        AtomicWorld {
            words: world
                .as_words()
                .iter()
                .map(|&w| AtomicU64::new(w))
                .collect(),
            len: world.len(),
        }
    }

    fn to_world(&self) -> World {
        World::from_words(
            self.words
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            self.len,
        )
    }

    fn set(&self, v: VarId, value: bool) {
        let bit = 1u64 << (v % 64);
        if value {
            self.words[v / 64].fetch_or(bit, Ordering::Relaxed);
        } else {
            self.words[v / 64].fetch_and(!bit, Ordering::Relaxed);
        }
    }
}

impl WorldView for AtomicWorld {
    #[inline]
    fn value(&self, v: VarId) -> bool {
        self.words[v / 64].load(Ordering::Relaxed) >> (v % 64) & 1 == 1
    }
}

/// State owned by one variable chunk, surviving across sweeps.
///
/// Exactly one worker touches a given chunk per sweep (chunks are the unit of
/// dispatch), so the mutex is uncontended — it exists to move mutable access
/// through the `&self` the pool job closure captures.
struct ChunkState {
    /// This chunk's RNG stream, advanced monotonically across the run.
    rng: SweepRng,
    /// Per-variable `true` counts for the current counting phase
    /// (`counts[j]` belongs to the chunk's `j`-th variable).
    counts: Vec<u64>,
}

/// Multi-threaded Gibbs sampler over a compiled factor graph.
///
/// ```
/// use dd_factorgraph::{Factor, FactorGraphBuilder};
/// use dd_inference::ParallelGibbs;
///
/// // A 3-variable chain with a prior on the first variable.
/// let mut b = FactorGraphBuilder::new();
/// let vs = b.add_query_variables(3);
/// let prior = b.tied_weight("prior", 1.5, false);
/// let couple = b.tied_weight("couple", 0.8, false);
/// b.add_factor(Factor::is_true(prior, vs[0]));
/// b.add_factor(Factor::equal(couple, vs[0], vs[1]));
/// b.add_factor(Factor::equal(couple, vs[1], vs[2]));
/// let graph = b.build();
///
/// // One chunk => a fully deterministic chain for a fixed seed.
/// let mut sampler = ParallelGibbs::new(&graph, 7).with_chunks(1);
/// let marginals = sampler.run(2000, 200);
/// assert!(marginals.get(vs[0]) > 0.5); // positive prior pulls it up
/// let again = ParallelGibbs::new(&graph, 7).with_chunks(1).run(2000, 200);
/// assert_eq!(marginals.values(), again.values());
/// ```
pub struct ParallelGibbs {
    flat: FlatGraph,
    world: AtomicWorld,
    /// The resampled variables when given explicitly; `None` is the graph's
    /// query variables (of which `run` sweeps the coupled ones).
    free_vars: Option<Vec<VarId>>,
    seed: u64,
    /// Requested chunk count; `None` follows the dispatch pool's size.
    chunks: Option<usize>,
    /// The persistent worker pool sweeps are dispatched on; `None` means the
    /// process-global pool, resolved lazily at the first sweep so that
    /// constructing a sampler (or immediately overriding with
    /// [`ParallelGibbs::with_pool`]) never instantiates it.
    pool: Option<Arc<ThreadPool>>,
    /// One state per chunk (RNG stream + count buffer), kept across sweeps;
    /// empty until the first sweep after a (re)configuration.
    chunk_states: Vec<Mutex<ChunkState>>,
}

impl ParallelGibbs {
    /// Create a parallel sampler over the graph's query variables, running on
    /// the process-global worker pool.
    pub fn new(graph: &FactorGraph, seed: u64) -> Self {
        Self::from_flat(graph.compile(), seed)
    }

    /// Create a parallel sampler from an already-compiled graph.
    pub fn from_flat(flat: FlatGraph, seed: u64) -> Self {
        let world = AtomicWorld::from_world(&flat.initial_world());
        ParallelGibbs {
            flat,
            world,
            free_vars: None,
            seed,
            chunks: None,
            pool: None,
            chunk_states: Vec::new(),
        }
    }

    /// Run on `pool` instead of the process-global one, with one chunk per
    /// pool thread (call [`ParallelGibbs::with_chunks`] *after* this to
    /// override the chunk count).
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self.chunks = None;
        self.chunk_states.clear();
        self
    }

    /// Override the number of chunks the variable set is split into per sweep.
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = Some(chunks.max(1));
        self.chunk_states.clear();
        self
    }

    /// Restrict (or extend) the set of resampled variables — e.g. the free
    /// chain of weight learning resamples evidence variables too.  An
    /// explicit list is swept in full by [`ParallelGibbs::run`] as well.
    pub fn with_free_vars(mut self, free_vars: Vec<VarId>) -> Self {
        self.free_vars = Some(free_vars);
        self
    }

    /// The variables a sweep resamples — of an estimation run (`estimate`)
    /// only the coupled ones, unless the list was given explicitly.
    fn swept(&self, estimate: bool) -> &[VarId] {
        match &self.free_vars {
            Some(explicit) => explicit,
            None if estimate => self.flat.coupled_query_variables(),
            None => self.flat.query_variables(),
        }
    }

    /// Re-resolve weight values from `graph` after learning moved them,
    /// without rebuilding topology, chunk layout, or RNG streams.
    pub fn refresh_weights(&mut self, graph: &FactorGraph) {
        self.flat.refresh_weights(graph);
    }

    /// The dispatch pool, falling back to the process-global one (and caching
    /// that choice) if none was configured.
    fn pool(&mut self) -> Arc<ThreadPool> {
        Arc::clone(
            self.pool
                .get_or_insert_with(|| Arc::clone(rayon::global_pool())),
        )
    }

    /// Build per-chunk state if the configuration changed since the last
    /// sweep: one RNG stream per configured chunk (splitmix-mixed from the
    /// run seed).  Which variables a chunk owns is decided per sweep, from
    /// the length of the list being swept.
    fn ensure_chunk_states(&mut self) {
        if !self.chunk_states.is_empty() {
            return;
        }
        let chunks = match self.chunks {
            Some(c) => c,
            None => self.pool().num_threads(),
        }
        .max(1);
        self.chunk_states = (0..chunks)
            .map(|chunk| {
                Mutex::new(ChunkState {
                    rng: SweepRng::seed_from_u64(mix_seed(self.seed, chunk as u64)),
                    counts: Vec::new(),
                })
            })
            .collect();
    }

    /// One hogwild sweep: every free variable is resampled exactly once, with
    /// the variable set partitioned across the pool's threads.
    pub fn sweep(&mut self) {
        self.sweep_internal(false, false);
    }

    /// One sweep over [`ParallelGibbs::swept`]`(estimate)`; with `count`,
    /// every chunk also counts its variables' `true` draws (into buffers
    /// [`ParallelGibbs::run`] sized for this list).
    fn sweep_internal(&mut self, estimate: bool, count: bool) {
        if self.swept(estimate).is_empty() {
            return;
        }
        self.ensure_chunk_states();
        let pool = self.pool();
        let flat = &self.flat;
        let world = &self.world;
        let vars = self.swept(estimate);
        let chunk_states = &self.chunk_states;
        let chunk_size = chunk_size(vars.len(), chunk_states.len());
        let num_chunks = vars.len().div_ceil(chunk_size);
        let run_chunk = |chunk: usize| {
            let range = chunk_range(chunk, chunk_size, vars.len());
            let mut state = lock_chunk(&chunk_states[chunk]);
            let state = &mut *state;
            for (j, &v) in vars[range].iter().enumerate() {
                let p_true = flat.conditional_p_true(v, world);
                let value = state.rng.gen::<f64>() < p_true;
                world.set(v, value);
                if count && value {
                    state.counts[j] += 1;
                }
            }
        };
        pool.run_chunks(num_chunks, &run_chunk);
    }

    /// Run burn-in plus `sweeps` counting sweeps, returning marginals.
    ///
    /// Only coupled variables are swept; static ones report their exact
    /// marginal, and a graph without coupled variables is answered without
    /// a sweep (or a pool).
    pub fn run(&mut self, sweeps: usize, burn_in: usize) -> Marginals {
        let sweeps = sweeps.max(1);
        let num_swept = self.swept(true).len();
        if num_swept > 0 {
            for _ in 0..burn_in {
                self.sweep_internal(true, false);
            }
            // Counting phase: chunks count their own variables locally
            // during the sweep (see module docs); zero the buffers first.
            self.ensure_chunk_states();
            let chunk_size = chunk_size(num_swept, self.chunk_states.len());
            for (chunk, state) in self.chunk_states.iter().enumerate() {
                let range = chunk_range(chunk, chunk_size, num_swept);
                lock_chunk(state).counts = vec![0; range.len()];
            }
            for _ in 0..sweeps {
                self.sweep_internal(true, true);
            }
        }
        // Merge: clamped variables report their fixed value, swept variables
        // their empirical frequency, static ones their exact marginal.
        let mut values: Vec<f64> = self
            .world
            .to_world()
            .iter()
            .map(|b| if b { 1.0 } else { 0.0 })
            .collect();
        if num_swept > 0 {
            let swept = self.swept(true);
            let chunk_size = chunk_size(num_swept, self.chunk_states.len());
            for (chunk, state) in self.chunk_states.iter().enumerate() {
                let lo = chunk_range(chunk, chunk_size, num_swept).start;
                let state = lock_chunk(state);
                for (j, &c) in state.counts.iter().enumerate() {
                    values[swept[lo + j]] = c as f64 / sweeps as f64;
                }
            }
        }
        if self.free_vars.is_none() {
            for &v in self.flat.static_query_variables() {
                values[v] = self.flat.static_p_true(v).expect("static variable");
            }
        }
        Marginals::from_values(values)
    }

    /// Expected total feature value per weight over `sweeps` hogwild samples —
    /// the sufficient statistic of the learning gradient, estimated with the
    /// parallel chain (the pool-backed counterpart of
    /// [`GibbsSampler::expected_feature_counts`](crate::GibbsSampler::expected_feature_counts)).
    pub fn expected_feature_counts(&mut self, sweeps: usize) -> Vec<f64> {
        let mut totals = vec![0.0; self.flat.num_weights()];
        let sweeps = sweeps.max(1);
        for _ in 0..sweeps {
            self.sweep();
            self.flat
                .accumulate_feature_counts(&self.world, &mut totals);
        }
        for t in &mut totals {
            *t /= sweeps as f64;
        }
        totals
    }

    /// Snapshot of the current world.
    pub fn world(&self) -> World {
        self.world.to_world()
    }
}

/// Variables per chunk when `num_vars` are split over at most `chunks`.
fn chunk_size(num_vars: usize, chunks: usize) -> usize {
    num_vars.div_ceil(chunks).max(1)
}

/// The variable index range owned by `chunk` under a fixed chunk size
/// (empty for chunks past the end of the list).
fn chunk_range(chunk: usize, chunk_size: usize, num_vars: usize) -> std::ops::Range<usize> {
    let lo = (chunk * chunk_size).min(num_vars);
    lo..(lo + chunk_size).min(num_vars)
}

/// Chunk mutexes are uncontended by construction (one worker per chunk per
/// sweep); ignore poisoning so an aborted sweep doesn't brick the sampler.
fn lock_chunk(state: &Mutex<ChunkState>) -> MutexGuard<'_, ChunkState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder};

    fn chain_graph(n: usize, prior: f64, coupling: f64) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(n);
        let wp = b.tied_weight("prior", prior, false);
        let wc = b.tied_weight("couple", coupling, false);
        b.add_factor(Factor::is_true(wp, vs[0]));
        for i in 1..n {
            b.add_factor(Factor::equal(wc, vs[i - 1], vs[i]));
        }
        b.build()
    }

    #[test]
    fn parallel_matches_exact_on_small_chain() {
        let g = chain_graph(4, 1.0, 0.8);
        let mut s = ParallelGibbs::new(&g, 123).with_chunks(2);
        let m = s.run(6000, 500);
        for v in 0..4 {
            let expected = g.exact_marginal(v);
            assert!(
                (m.get(v) - expected).abs() < 0.05,
                "var {v}: parallel {} vs exact {}",
                m.get(v),
                expected
            );
        }
    }

    #[test]
    fn evidence_is_respected() {
        let mut b = FactorGraphBuilder::new();
        let q = b.add_query_variables(1)[0];
        let e = b.add_evidence_variable(false);
        let w = b.tied_weight("eq", 4.0, false);
        b.add_factor(Factor::equal(w, q, e));
        let g = b.build();
        let mut s = ParallelGibbs::new(&g, 9);
        let m = s.run(800, 100);
        assert_eq!(m.get(e), 0.0);
        assert!(m.get(q) < 0.15);
    }

    #[test]
    fn world_snapshot_has_right_size() {
        let g = chain_graph(10, 0.0, 0.1);
        let mut s = ParallelGibbs::new(&g, 5);
        s.sweep();
        assert_eq!(s.world().len(), 10);
    }

    #[test]
    fn larger_graph_runs_quickly_and_in_bounds() {
        let g = chain_graph(500, 0.2, 0.3);
        let mut s = ParallelGibbs::new(&g, 77);
        let m = s.run(50, 10);
        for v in 0..500 {
            let p = m.get(v);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn single_chunk_parallel_is_deterministic_per_seed() {
        // With one chunk there is no cross-thread interleaving, so the chain
        // is exactly reproducible for a fixed seed.
        let g = chain_graph(32, 0.3, 0.4);
        let m1 = ParallelGibbs::new(&g, 41).with_chunks(1).run(200, 20);
        let m2 = ParallelGibbs::new(&g, 41).with_chunks(1).run(200, 20);
        assert_eq!(m1.values(), m2.values());
    }

    #[test]
    fn explicit_pool_runs_and_counts_correctly() {
        let g = chain_graph(64, 0.5, 0.2);
        let pool = Arc::new(ThreadPool::new(3));
        let mut s = ParallelGibbs::new(&g, 11).with_pool(Arc::clone(&pool));
        s.sweep();
        // Default chunking follows the explicit pool's size (built lazily at
        // the first sweep).
        assert_eq!(s.chunk_states.len(), 3);
        let m = s.run(400, 50);
        for v in 0..64 {
            assert!((0.0..=1.0).contains(&m.get(v)));
        }
        // Pool outlives the sampler and stays usable.
        drop(s);
        let mut s2 = ParallelGibbs::new(&g, 12).with_pool(pool);
        s2.sweep();
    }

    #[test]
    fn worker_local_counts_match_end_of_sweep_scan() {
        // Run the counting phase, then verify against marginals recomputed by
        // replaying the identical chain with a sequential end-of-sweep scan.
        let g = chain_graph(20, 0.4, 0.6);
        let m_fast = ParallelGibbs::new(&g, 99).with_chunks(1).run(300, 30);

        let mut s = ParallelGibbs::new(&g, 99).with_chunks(1);
        for _ in 0..30 {
            s.sweep();
        }
        let mut counts = vec![0usize; 20];
        for _ in 0..300 {
            s.sweep();
            let w = s.world();
            for (v, c) in counts.iter_mut().enumerate() {
                if w.value(v) {
                    *c += 1;
                }
            }
        }
        for v in 0..20 {
            assert!((m_fast.get(v) - counts[v] as f64 / 300.0).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_feature_counts_reflect_marginals() {
        let mut b = FactorGraphBuilder::new();
        let v = b.add_query_variables(1)[0];
        let w = b.tied_weight("prior", 2.0, false);
        b.add_factor(Factor::is_true(w, v));
        let g = b.build();
        let mut s = ParallelGibbs::new(&g, 17);
        for _ in 0..100 {
            s.sweep();
        }
        let counts = s.expected_feature_counts(3000);
        let expected = g.exact_marginal(0);
        assert!(
            (counts[0] - expected).abs() < 0.05,
            "{} vs {}",
            counts[0],
            expected
        );
    }
}
