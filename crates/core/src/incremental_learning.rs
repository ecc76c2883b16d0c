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

/// Run the three strategies of Figure 16 on (clones of) `graph`.
///
/// * `warm_weights` — the model learned before the update (the warmstart point).
/// * `epochs` — epochs per strategy.
pub fn compare_learning_strategies(
    graph: &FactorGraph,
    warm_weights: &[f64],
    epochs: usize,
    seed: u64,
) -> Vec<LearningComparison> {
    let configs: Vec<(&str, LearnOptions)> = vec![
        (
            "SGD+Warmstart",
            LearnOptions {
                strategy: LearnStrategy::Sgd,
                epochs,
                warmstart: Some(warm_weights.to_vec()),
                seed,
                ..Default::default()
            },
        ),
        (
            "SGD-Warmstart",
            LearnOptions {
                strategy: LearnStrategy::Sgd,
                epochs,
                warmstart: None,
                seed,
                ..Default::default()
            },
        ),
        (
            "GradientDescent+Warmstart",
            LearnOptions {
                strategy: LearnStrategy::GradientDescent,
                epochs,
                warmstart: Some(warm_weights.to_vec()),
                seed,
                ..Default::default()
            },
        ),
    ];

    configs
        .into_iter()
        .map(|(name, options)| {
            let mut g = graph.clone();
            let start = Instant::now();
            let trace = Learner::new(&mut g).learn(&options);
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
        // learn a decent model first
        let warm = Learner::new(&mut g)
            .learn(&LearnOptions {
                epochs: 30,
                learning_rate: 0.3,
                ..Default::default()
            })
            .final_weights;

        let fresh = classifier(40);
        let comparisons = compare_learning_strategies(&fresh, &warm, 3, 11);
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
