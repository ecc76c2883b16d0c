//! Weight learning: contrastive stochastic gradient descent with warmstart.
//!
//! "During inference, the values of all weights w are assumed to be known, while,
//! in learning, one finds the set of weights that maximizes the probability of
//! the evidence" (paper §2.4).  The gradient of the log-likelihood w.r.t. weight
//! `k` is the familiar difference of expectations
//!
//! ```text
//!   ∂L/∂w_k = E_clamped[ Σ_{f : weight(f)=k} φ_f(I) ] − E_free[ Σ φ_f(I) ]
//! ```
//!
//! where the *clamped* expectation fixes evidence variables to their observed
//! values and the *free* expectation samples them as well.  Both expectations are
//! estimated by Gibbs chains, which is exactly what DimmWitted does.
//!
//! Appendix B.3 compares three strategies for *incremental* learning after a KBC
//! update: stochastic gradient descent with warmstart (DeepDive's choice),
//! stochastic gradient descent from a cold start, and full-batch gradient descent
//! with warmstart.  [`LearnStrategy`] selects between them and
//! [`Learner::learn`] records a [`LearningTrace`] so Figure 16 can be reproduced.

use crate::gibbs::{expected_feature_counts_over, sigmoid, SweepRng};
use crate::parallel::ParallelGibbs;
use crate::rng::mix_seed;
use dd_factorgraph::{FactorGraph, FlatGraph};
use rand::SeedableRng;
use rayon::ThreadPool;
use std::sync::Arc;

/// Stream-id offset separating the free chain's RNG streams from the clamped
/// chain's in [`mix_seed`]'s stream space.
const FREE_STREAM: u64 = 0x8000_0000;

/// Which optimization strategy to use (Appendix B.3 / Figure 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnStrategy {
    /// Stochastic gradient descent: one (mini-batch) gradient estimate per epoch
    /// from short Gibbs chains.
    Sgd,
    /// Full-batch gradient descent: long Gibbs chains per epoch for a low-noise
    /// gradient estimate.
    GradientDescent,
}

/// Options controlling a learning run.
#[derive(Debug, Clone)]
pub struct LearnOptions {
    pub strategy: LearnStrategy,
    /// Number of epochs (gradient steps).
    pub epochs: usize,
    /// Step size.
    pub learning_rate: f64,
    /// Multiplicative step-size decay per epoch.
    pub decay: f64,
    /// ℓ2 regularization strength.
    pub l2: f64,
    /// Gibbs sweeps per expectation estimate (SGD uses this number, full
    /// gradient descent uses 10×).
    pub sweeps_per_epoch: usize,
    /// If set, initialize weights from this vector instead of the graph's
    /// current values — "warmstart means that DeepDive uses the learned model in
    /// the last run as the starting point" (Appendix B.3).
    pub warmstart: Option<Vec<f64>>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LearnOptions {
    fn default() -> Self {
        LearnOptions {
            strategy: LearnStrategy::Sgd,
            epochs: 30,
            learning_rate: 0.1,
            decay: 0.97,
            l2: 1e-4,
            sweeps_per_epoch: 5,
            warmstart: None,
            seed: 7,
        }
    }
}

/// The loss and weight trajectory of one learning run.
#[derive(Debug, Clone, Default)]
pub struct LearningTrace {
    /// Loss after each epoch (negative pseudo-log-likelihood of the evidence,
    /// averaged per evidence variable).
    pub losses: Vec<f64>,
    /// Final weight vector.
    pub final_weights: Vec<f64>,
    /// Gibbs sweeps run, clamped and free chains together.
    pub sweeps: usize,
}

impl LearningTrace {
    /// The best (lowest) loss observed.
    pub fn best_loss(&self) -> f64 {
        self.losses.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// First epoch whose loss is within `fraction` (e.g. 0.10) of `optimal`,
    /// or `None` if never reached — the measurement Figure 16 reports.
    pub fn epochs_to_within(&self, optimal: f64, fraction: f64) -> Option<usize> {
        let target = optimal * (1.0 + fraction);
        self.losses.iter().position(|&l| l <= target)
    }
}

/// Weight learner bound to a mutable factor graph.
///
/// The learner compiles the graph once and reuses both the compilation and
/// the Gibbs chain *states* across epochs: the clamped and free chains warm-
/// start each epoch from where the previous epoch left them (persistent
/// contrastive divergence), instead of re-burning a cold chain per gradient
/// step.  With [`Learner::with_pool`], expectation estimation for large
/// graphs runs on the persistent hogwild sampler instead of the sequential
/// one.
pub struct Learner<'g> {
    graph: &'g mut FactorGraph,
    pool: Option<Arc<ThreadPool>>,
    /// Minimum number of *query* variables before expectation estimation
    /// switches to the parallel sampler (hogwild pays off only on large
    /// graphs) — the same metric as `EngineConfig::parallel_threshold`.
    parallel_threshold: usize,
}

impl<'g> Learner<'g> {
    pub fn new(graph: &'g mut FactorGraph) -> Self {
        Learner {
            graph,
            pool: None,
            parallel_threshold: usize::MAX,
        }
    }

    /// Estimate gradient expectations on `pool` (hogwild) for graphs with at
    /// least `threshold` *query* variables; smaller graphs stay on the
    /// sequential sampler, whose single chain mixes faster than an
    /// under-utilized parallel dispatch.
    pub fn with_pool(mut self, pool: Arc<ThreadPool>, threshold: usize) -> Self {
        self.pool = Some(pool);
        self.parallel_threshold = threshold;
        self
    }

    /// Negative pseudo-log-likelihood of the evidence under the current weights:
    /// for every evidence variable `v`, `−log P(v = observed | rest of world)`
    /// with the rest of the world set to the evidence/initial assignment.
    /// Deterministic, cheap, and monotone in fit quality — the "loss" axis of
    /// Figure 16 and Figure 17.
    pub fn evidence_loss(&self) -> f64 {
        self.evidence_loss_on(&self.graph.compile())
    }

    /// [`Learner::evidence_loss`] against an existing compilation (the learning
    /// loop compiles once and refreshes weights instead of recompiling each
    /// epoch).
    fn evidence_loss_on(&self, flat: &FlatGraph) -> f64 {
        let graph = &*self.graph;
        let world = flat.initial_world();
        let evidence = graph.evidence_variables();
        if evidence.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for &v in &evidence {
            let observed = graph.variable(v).fixed_value().unwrap_or(false);
            let delta = flat.energy_delta(v, &world);
            let p_true = sigmoid(delta);
            let p_obs = if observed { p_true } else { 1.0 - p_true };
            total -= p_obs.max(1e-12).ln();
        }
        total / evidence.len() as f64
    }

    /// Run learning, mutating the graph's weights, and return the trace.
    pub fn learn(&mut self, options: &LearnOptions) -> LearningTrace {
        let mut flat = self.graph.compile();
        self.learn_on(&mut flat, options)
    }

    /// [`Learner::learn`] on a compilation of the learner's graph the caller
    /// holds — and keeps: it comes back carrying the learned weights, ready
    /// for the inference that follows.
    pub fn learn_on(&mut self, flat: &mut FlatGraph, options: &LearnOptions) -> LearningTrace {
        if let Some(ws) = &options.warmstart {
            self.graph.set_weight_values(ws);
            flat.refresh_weights(self.graph);
        }

        let mut trace = LearningTrace::default();
        let mut lr = options.learning_rate;
        let (clamped_sweeps, free_sweeps) = match options.strategy {
            LearnStrategy::Sgd => (options.sweeps_per_epoch, options.sweeps_per_epoch),
            LearnStrategy::GradientDescent => {
                (options.sweeps_per_epoch * 10, options.sweeps_per_epoch * 10)
            }
        };

        // `flat` serves the whole run: each epoch only moves weight values,
        // which `refresh_weights` re-resolves in place without rebuilding
        // topology.
        //
        // Nothing to learn: every epoch would sample both chains only to
        // skip every weight, and the loss never moves.
        if self.graph.weights().iter().all(|w| w.fixed) {
            trace.losses = vec![self.evidence_loss_on(flat); options.epochs];
            trace.final_weights = self.graph.weight_values();
            return trace;
        }
        let all_vars: Vec<usize> = (0..self.graph.num_variables()).collect();

        // Large graph + pool => estimate expectations with persistent hogwild
        // samplers that live for the whole learning run.  The threshold counts
        // query variables, the same metric the engine's full-Gibbs routing
        // uses (clamped chains resample exactly those).
        let use_parallel = self.pool.as_ref().is_some_and(|pool| {
            pool.num_threads() > 1 && self.graph.query_variables().len() >= self.parallel_threshold
        });
        let mut hogwild = use_parallel.then(|| {
            let pool = self.pool.as_ref().expect("use_parallel implies pool");
            let clamped =
                ParallelGibbs::from_flat(flat.clone(), options.seed).with_pool(Arc::clone(pool));
            let free = ParallelGibbs::from_flat(flat.clone(), mix_seed(options.seed, FREE_STREAM))
                .with_pool(Arc::clone(pool))
                .with_free_vars(all_vars.clone());
            (clamped, free)
        });

        // Sequential chain states, persisted across epochs (PCD warmstart):
        // the clamped chain resamples the query variables, the free chain
        // everything.  Each epoch continues both worlds on a fresh RNG
        // stream; `flat` is only borrowed per estimate, so it stays free for
        // `refresh_weights` in between.  Both chains sweep *every* one of
        // their variables, static ones included — the gradient is a
        // statistic of whole worlds.
        let mut clamped_world = flat.initial_world();
        let mut free_world = flat.initial_world();

        for epoch in 0..options.epochs {
            // Expectations with evidence clamped / free.
            let (clamped, free) = match &mut hogwild {
                Some((clamped_chain, free_chain)) => (
                    clamped_chain.expected_feature_counts(clamped_sweeps),
                    free_chain.expected_feature_counts(free_sweeps),
                ),
                None => {
                    let estimate = |vars, world, stream, sweeps| {
                        let mut rng = SweepRng::seed_from_u64(mix_seed(options.seed, stream));
                        expected_feature_counts_over(flat, vars, world, &mut rng, sweeps)
                    };
                    (
                        estimate(
                            flat.query_variables(),
                            &mut clamped_world,
                            epoch as u64,
                            clamped_sweeps,
                        ),
                        estimate(
                            &all_vars,
                            &mut free_world,
                            FREE_STREAM + epoch as u64,
                            free_sweeps,
                        ),
                    )
                }
            };

            // Gradient ascent on the log-likelihood (descent on the loss).
            for k in 0..self.graph.num_weights() {
                if self.graph.weight(k).fixed {
                    continue;
                }
                let g = clamped[k] - free[k] - options.l2 * self.graph.weight(k).value;
                let new = self.graph.weight(k).value + lr * g;
                self.graph.set_weight_value(k, new);
            }
            lr *= options.decay;
            trace.sweeps += clamped_sweeps + free_sweeps;
            flat.refresh_weights(self.graph);
            if let Some((clamped_chain, free_chain)) = &mut hogwild {
                clamped_chain.refresh_weights(self.graph);
                free_chain.refresh_weights(self.graph);
            }
            trace.losses.push(self.evidence_loss_on(flat));
        }
        trace.final_weights = self.graph.weight_values();
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder};

    /// A logistic-regression-shaped graph: `Class(x) :- R(x, f) weight = w(f)`
    /// (Example 2.6).  Objects with feature A are labeled true, objects with
    /// feature B are labeled false; learning should drive w(A) up and w(B) down.
    fn classifier_graph(num_objects: usize) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let w_a = b.tied_weight("feat:A", 0.0, false);
        let w_b = b.tied_weight("feat:B", 0.0, false);
        for i in 0..num_objects {
            let label = i % 2 == 0;
            let v = b.add_evidence_variable(label);
            let w = if label { w_a } else { w_b };
            b.add_factor(Factor::is_true(w, v));
        }
        b.build()
    }

    #[test]
    fn learning_separates_features() {
        let mut g = classifier_graph(40);
        let mut learner = Learner::new(&mut g);
        let initial_loss = learner.evidence_loss();
        let trace = learner.learn(&LearnOptions {
            epochs: 40,
            learning_rate: 0.3,
            sweeps_per_epoch: 3,
            ..Default::default()
        });
        assert!(g.weight(0).value > 0.5, "w(A) = {}", g.weight(0).value);
        assert!(g.weight(1).value < -0.5, "w(B) = {}", g.weight(1).value);
        assert!(trace.best_loss() < initial_loss);
        assert_eq!(trace.losses.len(), 40);
        assert_eq!(trace.final_weights.len(), 2);
    }

    #[test]
    fn pooled_learner_separates_features_too() {
        // Same learning problem, but with gradient expectations estimated by
        // the persistent hogwild chains (threshold 1 forces the parallel path).
        let mut g = classifier_graph(40);
        let pool = Arc::new(ThreadPool::new(2));
        let trace = Learner::new(&mut g)
            .with_pool(pool, 1)
            .learn(&LearnOptions {
                epochs: 40,
                learning_rate: 0.3,
                sweeps_per_epoch: 3,
                ..Default::default()
            });
        assert!(g.weight(0).value > 0.5, "w(A) = {}", g.weight(0).value);
        assert!(g.weight(1).value < -0.5, "w(B) = {}", g.weight(1).value);
        assert_eq!(trace.losses.len(), 40);
    }

    #[test]
    fn fixed_weights_are_not_updated() {
        let mut b = FactorGraphBuilder::new();
        let w_fixed = b.tied_weight("prior", 2.0, true);
        let v = b.add_evidence_variable(false);
        b.add_factor(Factor::is_true(w_fixed, v));
        let mut g = b.build();
        let mut learner = Learner::new(&mut g);
        learner.learn(&LearnOptions {
            epochs: 5,
            ..Default::default()
        });
        assert_eq!(g.weight(0).value, 2.0);
    }

    #[test]
    fn fixed_only_graph_performs_zero_sweeps() {
        let mut b = FactorGraphBuilder::new();
        let w_fixed = b.tied_weight("prior", 2.0, true);
        for label in [false, true, true] {
            let v = b.add_evidence_variable(label);
            b.add_factor(Factor::is_true(w_fixed, v));
        }
        let mut g = b.build();
        let mut learner = Learner::new(&mut g);
        let loss = learner.evidence_loss();
        let trace = learner.learn(&LearnOptions {
            epochs: 7,
            ..Default::default()
        });
        assert_eq!(trace.sweeps, 0);
        // Same shape as a run that sampled: one loss per epoch, all weights.
        assert_eq!(trace.losses, vec![loss; 7]);
        assert_eq!(trace.final_weights, vec![2.0]);
        // A warmstart still lands before the early return.
        let warm = Learner::new(&mut g).learn(&LearnOptions {
            warmstart: Some(vec![1.25]),
            ..Default::default()
        });
        assert_eq!(warm.sweeps, 0);
        assert_eq!(warm.final_weights, vec![1.25]);
    }

    #[test]
    fn learnable_graph_learns_exactly_as_before_the_early_return() {
        // One learnable weight next to a fixed one: the sampled path must be
        // untouched by the fixed-only shortcut.  The expected bits were
        // produced by the learner as it was before the shortcut existed.
        let mut g = classifier_graph(12);
        let w_fixed = g.add_weight(dd_factorgraph::Weight::fixed(0, 0.5, "prior"));
        g.add_factor(Factor::is_true(w_fixed, 0));
        let trace = Learner::new(&mut g).learn(&LearnOptions {
            epochs: 6,
            seed: 11,
            ..Default::default()
        });
        assert_eq!(trace.sweeps, 6 * 10);
        let bits: Vec<u64> = trace.final_weights.iter().map(|w| w.to_bits()).collect();
        let losses: Vec<u64> = trace.losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(
            bits,
            [
                4607780335375980280u64,
                13832070731799581772,
                4602678819172646912
            ]
        );
        assert_eq!(
            losses,
            [
                4602881041733272363u64,
                4601495772975223839,
                4599964078515135439,
                4599276352698096894,
                4598666901093035367,
                4598098136681051001
            ]
        );
    }

    #[test]
    fn warmstart_initializes_from_previous_model() {
        let mut g = classifier_graph(20);
        let opts = LearnOptions {
            epochs: 1,
            warmstart: Some(vec![3.0, -3.0]),
            learning_rate: 0.0,
            ..Default::default()
        };
        let trace = Learner::new(&mut g).learn(&opts);
        // with zero learning rate the weights stay at the warmstart values
        assert_eq!(trace.final_weights, vec![3.0, -3.0]);
    }

    #[test]
    fn warmstart_converges_faster_than_cold_start() {
        // Learn a good model once, then restart learning warm vs cold and compare
        // the first-epoch loss.
        let mut g = classifier_graph(40);
        let good = Learner::new(&mut g)
            .learn(&LearnOptions {
                epochs: 40,
                learning_rate: 0.3,
                ..Default::default()
            })
            .final_weights;

        let mut g_warm = classifier_graph(40);
        let warm = Learner::new(&mut g_warm).learn(&LearnOptions {
            epochs: 1,
            learning_rate: 0.05,
            warmstart: Some(good),
            ..Default::default()
        });
        let mut g_cold = classifier_graph(40);
        let cold = Learner::new(&mut g_cold).learn(&LearnOptions {
            epochs: 1,
            learning_rate: 0.05,
            ..Default::default()
        });
        assert!(warm.losses[0] < cold.losses[0]);
    }

    #[test]
    fn epochs_to_within_threshold() {
        let trace = LearningTrace {
            losses: vec![1.0, 0.6, 0.45, 0.41, 0.40],
            ..Default::default()
        };
        assert_eq!(trace.epochs_to_within(0.40, 0.10), Some(3));
        assert_eq!(trace.epochs_to_within(0.40, 0.5), Some(1));
        assert_eq!(trace.epochs_to_within(0.1, 0.10), None);
        assert!((trace.best_loss() - 0.40).abs() < 1e-12);
    }

    #[test]
    fn loss_is_zero_without_evidence() {
        let mut b = FactorGraphBuilder::new();
        b.add_query_variables(3);
        let mut g = b.build();
        assert_eq!(Learner::new(&mut g).evidence_loss(), 0.0);
    }
}
