//! The Voting program of Example 2.5 / Appendix A.
//!
//! A single query variable `q` receives "Up" and "Down" votes; under semantics
//! `g` the log-odds of `q` are `w·(g(|Up ∩ I|) − g(|Down ∩ I|))`.  Figure 13
//! measures how many Gibbs iterations are needed to estimate `P(q)` to within
//! 1 % as `|U| + |D|` grows, for each of the three semantics; Figure 12 gives the
//! corresponding theoretical bounds (Θ(n log n) for Logical/Ratio, exponential
//! for Linear).

use dd_factorgraph::{Factor, FactorGraph, FactorGraphBuilder, FactorKind, Lit, Semantics, VarId};

/// Build the voting factor graph.
///
/// * `num_up`, `num_down` — number of Up/Down vote variables; all vote variables
///   are non-evidence (the hardest case analysed in Appendix A).
/// * `weight` — the shared rule weight `w`.
/// * `semantics` — the `g` function.
///
/// Returns the graph and the id of the query variable `q`.
pub fn voting_graph(
    num_up: usize,
    num_down: usize,
    weight: f64,
    semantics: Semantics,
) -> (FactorGraph, VarId) {
    let mut b = FactorGraphBuilder::new();
    let q = b.add_query_variables(1)[0];
    let ups = b.add_query_variables(num_up);
    let downs = b.add_query_variables(num_down);
    let w_up = b.tied_weight("vote:up", weight, false);
    let w_down = b.tied_weight("vote:down", -weight, false);
    let mut graph = b.build();

    if num_up > 0 {
        graph.add_factor(Factor::new(
            w_up,
            FactorKind::Aggregate {
                head: Lit::pos(q),
                semantics,
                groundings: ups.iter().map(|&u| vec![Lit::pos(u)]).collect(),
            },
        ));
    }
    if num_down > 0 {
        graph.add_factor(Factor::new(
            w_down,
            FactorKind::Aggregate {
                head: Lit::pos(q),
                semantics,
                groundings: downs.iter().map(|&d| vec![Lit::pos(d)]).collect(),
            },
        ));
    }
    (graph, q)
}

/// The exact marginal of `q` when the votes are symmetric (|U| = |D| and no
/// evidence): by symmetry it is exactly 0.5 under every semantics — the target
/// Figure 13's convergence measurement uses.
pub fn symmetric_target() -> f64 {
    0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_inference::{GibbsOptions, GibbsSampler};

    #[test]
    fn builds_expected_structure() {
        let (g, q) = voting_graph(5, 3, 1.0, Semantics::Ratio);
        assert_eq!(q, 0);
        assert_eq!(g.num_variables(), 9);
        assert_eq!(g.num_factors(), 2);
        assert_eq!(g.num_weights(), 2);
    }

    #[test]
    fn symmetric_votes_give_half_probability() {
        for s in Semantics::all() {
            let (g, q) = voting_graph(3, 3, 1.0, s);
            let p = g.exact_marginal(q);
            assert!(
                (p - symmetric_target()).abs() < 1e-9,
                "{s:?}: expected 0.5, got {p}"
            );
        }
    }

    #[test]
    fn more_up_votes_raise_probability() {
        // With evidence-free votes the marginal of q still leans towards the
        // larger side because more worlds support it.
        let (g, q) = voting_graph(4, 1, 1.0, Semantics::Linear);
        assert!(g.exact_marginal(q) > 0.6);
        let (g2, q2) = voting_graph(1, 4, 1.0, Semantics::Linear);
        assert!(g2.exact_marginal(q2) < 0.4);
    }

    #[test]
    fn gibbs_estimates_the_symmetric_marginal() {
        let (g, q) = voting_graph(6, 6, 0.5, Semantics::Logical);
        let m = GibbsSampler::new(&g, 3).run(&GibbsOptions::new(3000, 300));
        assert!((m.get(q) - 0.5).abs() < 0.06);
    }

    #[test]
    fn degenerate_vote_counts() {
        let (g, q) = voting_graph(0, 0, 1.0, Semantics::Ratio);
        assert_eq!(g.num_factors(), 0);
        assert!((g.exact_marginal(q) - 0.5).abs() < 1e-12);
    }
}
