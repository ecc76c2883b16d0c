//! Incremental learning strategies (paper Appendix B.3, Figure 16).
//!
//! When an update brings new training data or new features, the weights must be
//! re-learned.  DeepDive adapts standard online learning: stochastic gradient
//! descent *warmstarted* from the previous model.  This module runs the three
//! strategies the paper compares — SGD+warmstart, SGD from a cold start, and
//! full gradient descent with warmstart — over the same graph and reports their
//! loss trajectories, which is exactly what Figure 16 plots.

use dd_factorgraph::FactorGraph;
use dd_inference::{LearnOptions, LearnStrategy, Learner, LearningTrace};
use std::time::Instant;

/// The loss trajectory of one learning strategy.
#[derive(Debug, Clone)]
pub struct LearningComparison {
    pub strategy: String,
    pub trace: LearningTrace,
    pub seconds: f64,
}

/// Run the three strategies of Figure 16 on clones of `graph`, each on the
/// RNG streams of `seed`.
///
/// `graph` is the updated graph as a warm round meets it: the weights it had
/// before the update hold the model learned then (the warmstart point), the
/// weights the update created their declared values.  The warmstart
/// strategies learn from those weights; the cold start first resets every
/// learnable weight to 0.0.
pub fn compare_learning_strategies(
    graph: &FactorGraph,
    epochs: usize,
    seed: u64,
) -> Vec<LearningComparison> {
    let options = |strategy| LearnOptions {
        strategy,
        epochs,
        ..Default::default()
    };
    let configs = [
        ("SGD+Warmstart", options(LearnStrategy::Sgd), false),
        ("SGD-Warmstart", options(LearnStrategy::Sgd), true),
        (
            "GradientDescent+Warmstart",
            options(LearnStrategy::GradientDescent),
            false,
        ),
    ];

    configs
        .into_iter()
        .map(|(name, options, cold)| {
            let mut g = graph.clone();
            if cold {
                for k in 0..g.num_weights() {
                    if !g.weight(k).fixed {
                        g.set_weight_value(k, 0.0);
                    }
                }
            }
            let start = Instant::now();
            let trace = Learner::new(&mut g).learn(&options, seed);
            LearningComparison {
                strategy: name.to_string(),
                trace,
                seconds: start.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder};
    use dd_inference::LearnOptions;

    /// Labeled classifier graph (as in the learning tests) used to obtain a warm
    /// model and then compare restart strategies.
    fn classifier(n: usize) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let wa = b.tied_weight("feat:A", 0.0, false);
        let wb = b.tied_weight("feat:B", 0.0, false);
        for i in 0..n {
            let label = i % 2 == 0;
            let v = b.add_evidence_variable(label);
            b.add_factor(Factor::is_true(if label { wa } else { wb }, v));
        }
        b.build()
    }

    #[test]
    fn warmstart_starts_with_lower_loss() {
        let mut g = classifier(40);
        // learn a decent model first: the graph holds it afterwards
        Learner::new(&mut g).learn(
            &LearnOptions {
                epochs: 30,
                learning_rate: 0.3,
                ..Default::default()
            },
            7,
        );

        let comparisons = compare_learning_strategies(&g, 3, 11);
        assert_eq!(comparisons.len(), 3);
        let loss_of = |name: &str| {
            comparisons
                .iter()
                .find(|c| c.strategy == name)
                .unwrap()
                .trace
                .losses[0]
        };
        assert!(loss_of("SGD+Warmstart") < loss_of("SGD-Warmstart"));
        assert!(loss_of("GradientDescent+Warmstart") <= loss_of("SGD-Warmstart"));
        for c in &comparisons {
            assert!(c.seconds >= 0.0);
            assert_eq!(c.trace.losses.len(), 3);
        }
    }
}
