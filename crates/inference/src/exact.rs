//! Exact inference per query component.
//!
//! §3.2.1's strawman — enumerate every possible world — is exact, and cheap
//! whenever the world is small.  App. B.1 lets conditionally independent
//! groups be handled apart: conditioned on the evidence, the query
//! components of a graph are independent, so a component of `k` variables
//! has `2^k` worlds of its own no matter how large the graph is.  Every
//! component of at most [`MAX_ENUMERATED_VARS`] variables is answered here,
//! on the current graph: no random number is drawn and nothing is stored,
//! so the answer is the same on any seed, shard or strategy.
//!
//! [`MAX_ENUMERATED_VARS`]: dd_factorgraph::MAX_ENUMERATED_VARS

use crate::marginals::Marginals;
use dd_factorgraph::{FlatGraph, VarId, World, MAX_ENUMERATED_VARS};

/// Set the marginal of every variable of every enumerated component of
/// `flat` ([`FlatGraph::enumerated_components`]) to its exact value.
/// Every other entry of `marginals` is left as it is.
///
/// ```
/// use dd_factorgraph::{Factor, FactorGraphBuilder};
/// use dd_inference::{enumerate_components, Marginals};
///
/// // Two variables tied by `equal`, one of them with a prior.
/// let mut b = FactorGraphBuilder::new();
/// let vs = b.add_query_variables(2);
/// let prior = b.tied_weight("prior", 1.0, false);
/// let tie = b.tied_weight("tie", 1.5, false);
/// b.add_factor(Factor::is_true(prior, vs[0]));
/// b.add_factor(Factor::equal(tie, vs[0], vs[1]));
/// let graph = b.build();
///
/// let mut marginals = Marginals::zeros(2);
/// enumerate_components(&graph.compile(), &mut marginals);
/// for v in vs {
///     assert!((marginals.get(v) - graph.exact_marginal(v)).abs() < 1e-12);
/// }
/// ```
pub fn enumerate_components(flat: &FlatGraph, marginals: &mut Marginals) {
    let mut world = flat.initial_world();
    let mut log_weights = Vec::new();
    for component in flat.enumerated_components() {
        enumerate(flat, component, &mut world, &mut log_weights, marginals);
    }
}

/// One component's exact marginals.  Its worlds are walked in Gray-code
/// order, so each differs from the previous one in one variable and its
/// log-weight (relative to the all-false world) is the previous one plus
/// that variable's energy delta.  `world` holds the evidence; only the
/// component's own variables are written, and no factor of the component
/// reads any other query variable.
fn enumerate(
    flat: &FlatGraph,
    vars: &[VarId],
    world: &mut World,
    log_weights: &mut Vec<f64>,
    marginals: &mut Marginals,
) {
    debug_assert!(vars.len() <= MAX_ENUMERATED_VARS);
    for &v in vars {
        world.set(v, false);
    }
    let worlds = 1usize << vars.len();
    log_weights.clear();
    log_weights.resize(worlds, 0.0);
    let mut log_weight = 0.0;
    for step in 1..worlds {
        let v = vars[step.trailing_zeros() as usize];
        let delta = flat.energy_delta(v, world);
        let value = !world.value(v);
        world.set(v, value);
        log_weight += if value { delta } else { -delta };
        log_weights[step ^ (step >> 1)] = log_weight;
    }
    let max = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let mut z = 0.0;
    let mut p_true = [0.0f64; MAX_ENUMERATED_VARS];
    for (mask, &lw) in log_weights.iter().enumerate() {
        let w = (lw - max).exp();
        z += w;
        let mut bits = mask;
        while bits != 0 {
            p_true[bits.trailing_zeros() as usize] += w;
            bits &= bits - 1;
        }
    }
    for (&v, p) in vars.iter().zip(p_true) {
        marginals.set(v, p / z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder, FactorKind, Lit, Semantics};

    #[test]
    fn every_factor_kind_matches_brute_force_at_the_limit() {
        // One component of exactly MAX_ENUMERATED_VARS variables, every
        // factor kind, an evidence variable inside some factors.
        let mut b = FactorGraphBuilder::new();
        let q = b.add_query_variables(MAX_ENUMERATED_VARS);
        let e = b.add_evidence_variable(true);
        let w: Vec<_> = [0.7, -1.3, 2.0, 0.4]
            .iter()
            .enumerate()
            .map(|(i, &x)| b.tied_weight(&format!("w{i}"), x, false))
            .collect();
        for (i, pair) in q.windows(2).enumerate() {
            b.add_factor(Factor::equal(w[i % 4], pair[0], pair[1]));
        }
        b.add_factor(Factor::is_true(w[0], q[0]));
        b.add_factor(Factor::conjunction(w[2], &[q[1], q[2], e]));
        b.add_factor(Factor::imply(w[1], &[q[3], e], q[7]));
        b.add_factor(Factor::new(
            w[3],
            FactorKind::Aggregate {
                head: Lit::pos(q[11]),
                semantics: Semantics::Ratio,
                groundings: vec![
                    vec![Lit::pos(q[4]), Lit::neg(q[5])],
                    vec![Lit::pos(e)],
                    vec![Lit::neg(q[9])],
                ],
            },
        ));
        let graph = b.build();
        let flat = graph.compile();
        assert_eq!(flat.enumerated_components().count(), 1);
        let mut marginals = Marginals::zeros(graph.num_variables());
        marginals.set(e, 1.0);
        enumerate_components(&flat, &mut marginals);
        for &v in &q {
            let exact = graph.exact_marginal(v);
            assert!(
                (marginals.get(v) - exact).abs() < 1e-12,
                "variable {v}: {} vs {exact}",
                marginals.get(v)
            );
        }
        assert_eq!(marginals.get(e), 1.0, "evidence is not written");
    }

    #[test]
    fn large_components_are_left_alone_and_small_ones_answered() {
        let mut b = FactorGraphBuilder::new();
        let w = b.tied_weight("w", 0.8, false);
        let long = b.add_query_variables(MAX_ENUMERATED_VARS + 1);
        for pair in long.windows(2) {
            b.add_factor(Factor::equal(w, pair[0], pair[1]));
        }
        let single = b.add_query_variables(1)[0];
        b.add_factor(Factor::is_true(w, single));
        let graph = b.build();
        let mut marginals = Marginals::from_values(vec![-1.0; graph.num_variables()]);
        enumerate_components(&graph.compile(), &mut marginals);
        assert!(long.iter().all(|&v| marginals.get(v) == -1.0));
        assert!((marginals.get(single) - crate::sigmoid(0.8)).abs() < 1e-15);
    }
}
