//! Synthetic pairwise factor graphs for the tradeoff study (paper §3.2.4).
//!
//! "We use a synthetic factor graph with pairwise factors and control the
//! following axes: (1) number of variables …, (2) amount of change …,
//! (3) sparsity of correlations …  The numbers are reported for a factor graph
//! whose factor weights are sampled at random from [−0.5, 0.5]."

use dd_factorgraph::{Factor, FactorGraph, FactorGraphBuilder, WeightId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic pairwise graph.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of variables.
    pub num_variables: usize,
    /// Fraction of pairwise weights that are non-zero (the sparsity axis).
    pub sparsity: f64,
    /// Weights are drawn uniformly from `[-weight_range, weight_range]`.
    pub weight_range: f64,
    /// Average number of pairwise factors per variable.
    pub factors_per_variable: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            num_variables: 100,
            sparsity: 1.0,
            weight_range: 0.5,
            factors_per_variable: 2,
            seed: 17,
        }
    }
}

/// Generate a random pairwise factor graph per the configuration.
///
/// Factors connect each variable to `factors_per_variable` random partners with
/// `Equal` potentials; a `1 − sparsity` fraction of the weights is set to zero,
/// exactly how the paper's sparsity axis is constructed ("selecting uniformly at
/// random a subset of factors and set their weight to zero").
pub fn pairwise_graph(config: &SyntheticConfig) -> FactorGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = FactorGraphBuilder::new();
    let vars = b.add_query_variables(config.num_variables);
    let mut graph = b.build();

    if config.num_variables < 2 {
        return graph;
    }
    let num_factors = config.num_variables * config.factors_per_variable;
    for i in 0..num_factors {
        let a = vars[rng.gen_range(0..vars.len())];
        let mut c = vars[rng.gen_range(0..vars.len())];
        if c == a {
            c = vars[(a + 1) % vars.len()];
        }
        let zeroed = rng.gen::<f64>() > config.sparsity;
        let w = if zeroed {
            0.0
        } else {
            rng.gen_range(-config.weight_range..=config.weight_range)
        };
        let wid = graph.add_weight(dd_factorgraph::Weight::learnable(0, w, format!("pair:{i}")));
        graph.add_factor(Factor::equal(wid, a, c));
    }
    graph
}

/// Perturb a fraction of `graph`'s weights by `magnitude` in place,
/// returning each perturbed weight with its value before — the
/// `changed_weights` of the resulting `DistributionChange`.
///
/// This is the "amount of change" knob of Figure 5(b): larger perturbations make
/// the updated distribution farther from the materialized one, which lowers the
/// acceptance rate of the sampling strategy.
pub fn weight_perturbation(
    graph: &mut FactorGraph,
    fraction: f64,
    magnitude: f64,
    seed: u64,
) -> Vec<(WeightId, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut changed = Vec::new();
    for w in 0..graph.num_weights() {
        if rng.gen::<f64>() < fraction {
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let old = graph.weight(w).value;
            graph.set_weight_value(w, old + sign * magnitude);
            changed.push((w, old));
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_has_requested_size() {
        let g = pairwise_graph(&SyntheticConfig {
            num_variables: 50,
            factors_per_variable: 3,
            ..Default::default()
        });
        assert_eq!(g.num_variables(), 50);
        assert_eq!(g.num_factors(), 150);
        assert_eq!(g.num_weights(), 150);
    }

    #[test]
    fn sparsity_controls_nonzero_weights() {
        let dense = pairwise_graph(&SyntheticConfig {
            num_variables: 200,
            sparsity: 1.0,
            ..Default::default()
        });
        let sparse = pairwise_graph(&SyntheticConfig {
            num_variables: 200,
            sparsity: 0.1,
            ..Default::default()
        });
        assert!(dense.stats().weight_density > 0.95);
        assert!(sparse.stats().weight_density < 0.2);
    }

    #[test]
    fn weights_stay_in_range() {
        let g = pairwise_graph(&SyntheticConfig {
            num_variables: 100,
            weight_range: 0.5,
            ..Default::default()
        });
        assert!(g.weights().iter().all(|w| w.value.abs() <= 0.5));
    }

    #[test]
    fn degenerate_sizes_are_handled() {
        let g = pairwise_graph(&SyntheticConfig {
            num_variables: 1,
            ..Default::default()
        });
        assert_eq!(g.num_variables(), 1);
        assert_eq!(g.num_factors(), 0);
        let g2 = pairwise_graph(&SyntheticConfig {
            num_variables: 2,
            factors_per_variable: 1,
            ..Default::default()
        });
        // factors never connect a variable to itself
        for f in g2.factors() {
            let vars = f.variables();
            assert_ne!(vars[0], vars[1]);
        }
    }

    #[test]
    fn perturbation_scales_with_fraction_and_magnitude() {
        let g = pairwise_graph(&SyntheticConfig::default());
        let perturbed = |fraction, magnitude| {
            let mut updated = g.clone();
            let changed = weight_perturbation(&mut updated, fraction, magnitude, 3);
            (updated, changed)
        };
        let (small_graph, small) = perturbed(0.1, 0.1);
        let (_, large) = perturbed(0.9, 0.1);
        assert!(large.len() > small.len());
        for &(w, old) in &small {
            assert_eq!(old, g.weight(w).value);
            assert!((small_graph.weight(w).value - old).abs() > 0.09);
        }
        let (unchanged, none) = perturbed(0.0, 1.0);
        assert!(none.is_empty());
        assert_eq!(unchanged, g);
        // deterministic for a fixed seed
        assert_eq!(perturbed(0.1, 0.1), (small_graph, small));
    }
}
