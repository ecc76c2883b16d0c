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
use crate::rng::mix_seed;
use dd_factorgraph::{FactorGraph, FlatGraph};
use rand::SeedableRng;

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
    /// Gibbs sweeps per expectation estimate (SGD uses this number, full
    /// gradient descent uses 10×).
    pub sweeps_per_epoch: usize,
}

impl Default for LearnOptions {
    fn default() -> Self {
        LearnOptions {
            strategy: LearnStrategy::Sgd,
            epochs: 30,
            learning_rate: 0.1,
            sweeps_per_epoch: 5,
        }
    }
}

/// Multiplicative step-size decay per epoch.
const DECAY: f64 = 0.97;

/// ℓ2 regularization strength.
const L2: f64 = 1e-4;

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

    /// How many epochs ran until the loss was first within `fraction` (e.g.
    /// 0.10) of `optimal` — a count, so a run within it after its first
    /// epoch reads 1 — or `None` if never reached: the measurement Figure 16
    /// reports.
    pub fn epochs_to_within(&self, optimal: f64, fraction: f64) -> Option<usize> {
        let target = optimal * (1.0 + fraction);
        self.losses.iter().position(|&l| l <= target).map(|i| i + 1)
    }
}

/// Weight learner bound to a mutable factor graph.
///
/// The learner compiles the graph once and reuses both the compilation and
/// the Gibbs chain *states* across epochs: the clamped and free chains warm-
/// start each epoch from where the previous epoch left them (persistent
/// contrastive divergence), instead of re-burning a cold chain per gradient
/// step.
pub struct Learner<'g> {
    graph: &'g mut FactorGraph,
}

impl<'g> Learner<'g> {
    pub fn new(graph: &'g mut FactorGraph) -> Self {
        Learner { graph }
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

    /// Run learning on the RNG streams of `seed`, starting from the weights
    /// the graph holds and leaving the learned ones in their place; return
    /// the trace.  Warmstart — "the learned model in the last run as the
    /// starting point" (Appendix B.3) — is a graph that still holds that
    /// model; a cold start is one whose weights were reset first.
    pub fn learn(&mut self, options: &LearnOptions, seed: u64) -> LearningTrace {
        let mut flat = self.graph.compile();
        self.learn_on(&mut flat, options, seed)
    }

    /// [`Learner::learn`] on a compilation of the learner's graph the caller
    /// holds — and keeps: it comes back carrying the learned weights, ready
    /// for the inference that follows.
    pub fn learn_on(
        &mut self,
        flat: &mut FlatGraph,
        options: &LearnOptions,
        seed: u64,
    ) -> LearningTrace {
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

        // Chain states, persisted across epochs (PCD warmstart):
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
            let estimate = |vars, world, stream, sweeps| {
                let mut rng = SweepRng::seed_from_u64(mix_seed(seed, stream));
                expected_feature_counts_over(flat, vars, world, &mut rng, sweeps)
            };
            let clamped = estimate(
                flat.query_variables(),
                &mut clamped_world,
                epoch as u64,
                clamped_sweeps,
            );
            let free = estimate(
                &all_vars,
                &mut free_world,
                FREE_STREAM + epoch as u64,
                free_sweeps,
            );

            // Gradient ascent on the log-likelihood (descent on the loss).
            for k in 0..self.graph.num_weights() {
                if self.graph.weight(k).fixed {
                    continue;
                }
                let g = clamped[k] - free[k] - L2 * self.graph.weight(k).value;
                let new = self.graph.weight(k).value + lr * g;
                self.graph.set_weight_value(k, new);
            }
            lr *= DECAY;
            trace.sweeps += clamped_sweeps + free_sweeps;
            flat.refresh_weights(self.graph);
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
        let trace = learner.learn(
            &LearnOptions {
                epochs: 40,
                learning_rate: 0.3,
                sweeps_per_epoch: 3,
                ..Default::default()
            },
            7,
        );
        assert!(g.weight(0).value > 0.5, "w(A) = {}", g.weight(0).value);
        assert!(g.weight(1).value < -0.5, "w(B) = {}", g.weight(1).value);
        assert!(trace.best_loss() < initial_loss);
        assert_eq!(trace.losses.len(), 40);
        assert_eq!(trace.final_weights.len(), 2);
    }

    #[test]
    fn fixed_weights_are_not_updated() {
        let mut b = FactorGraphBuilder::new();
        let w_fixed = b.tied_weight("prior", 2.0, true);
        let v = b.add_evidence_variable(false);
        b.add_factor(Factor::is_true(w_fixed, v));
        let mut g = b.build();
        let mut learner = Learner::new(&mut g);
        learner.learn(
            &LearnOptions {
                epochs: 5,
                ..Default::default()
            },
            7,
        );
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
        let trace = learner.learn(
            &LearnOptions {
                epochs: 7,
                ..Default::default()
            },
            7,
        );
        assert_eq!(trace.sweeps, 0);
        // Same shape as a run that sampled: one loss per epoch, all weights.
        assert_eq!(trace.losses, vec![loss; 7]);
        assert_eq!(trace.final_weights, vec![2.0]);
    }

    #[test]
    fn learnable_graph_learns_exactly_as_before_the_early_return() {
        // One learnable weight next to a fixed one: the sampled path must be
        // untouched by the fixed-only shortcut.  The expected bits were
        // produced by the learner as it was before the shortcut existed.
        let mut g = classifier_graph(12);
        let w_fixed = g.add_weight(dd_factorgraph::Weight::fixed(0, 0.5, "prior"));
        g.add_factor(Factor::is_true(w_fixed, 0));
        let trace = Learner::new(&mut g).learn(
            &LearnOptions {
                epochs: 6,
                ..Default::default()
            },
            11,
        );
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
    fn learning_starts_from_the_weights_the_graph_holds() {
        let mut g = classifier_graph(20);
        g.set_weight_values(&[3.0, -3.0]);
        let opts = LearnOptions {
            epochs: 1,
            learning_rate: 0.0,
            ..Default::default()
        };
        let trace = Learner::new(&mut g).learn(&opts, 7);
        // with zero learning rate the weights stay where they started
        assert_eq!(trace.final_weights, vec![3.0, -3.0]);
    }

    #[test]
    fn warmstart_converges_faster_than_cold_start() {
        // Learn a good model once, then restart learning warm vs cold and compare
        // the first-epoch loss.
        let mut g = classifier_graph(40);
        let good = Learner::new(&mut g)
            .learn(
                &LearnOptions {
                    epochs: 40,
                    learning_rate: 0.3,
                    ..Default::default()
                },
                7,
            )
            .final_weights;

        let restart = LearnOptions {
            epochs: 1,
            learning_rate: 0.05,
            ..Default::default()
        };
        let mut g_warm = classifier_graph(40);
        g_warm.set_weight_values(&good);
        let warm = Learner::new(&mut g_warm).learn(&restart, 7);
        let mut g_cold = classifier_graph(40);
        let cold = Learner::new(&mut g_cold).learn(&restart, 7);
        assert!(warm.losses[0] < cold.losses[0]);
    }

    #[test]
    fn epochs_to_within_threshold() {
        let trace = LearningTrace {
            losses: vec![1.0, 0.6, 0.45, 0.41, 0.40],
            ..Default::default()
        };
        // Counts, not indexes: 0.41 is the fourth loss, 0.6 the second.
        assert_eq!(trace.epochs_to_within(0.40, 0.10), Some(4));
        assert_eq!(trace.epochs_to_within(0.40, 0.5), Some(2));
        assert_eq!(trace.epochs_to_within(1.0, 0.0), Some(1));
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
