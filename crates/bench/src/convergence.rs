//! Empirical convergence / mixing-time measurement.
//!
//! Appendix A of the paper derives mixing-time bounds for the Voting program
//! under the three semantics (Figure 12) and measures, empirically, the number
//! of Gibbs iterations needed to get within 1 % of the correct marginal of the
//! query variable (Figure 13).  This module provides that measurement for any
//! factor graph with a known (or exactly computable) target marginal;
//! `reproduce fig13` and `examples/voting_semantics.rs` run it.

use dd_factorgraph::{FactorGraph, VarId};
use dd_inference::GibbsSampler;

/// The result of a convergence measurement.
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// Number of sweeps after which the running marginal estimate stayed within
    /// `tolerance` of the target.
    pub sweeps_to_converge: usize,
    /// Whether convergence was reached before the sweep budget ran out.
    pub converged: bool,
    /// The final running estimate.
    pub final_estimate: f64,
    /// The target marginal.
    pub target: f64,
}

/// Run Gibbs sampling on `graph` and report how many sweeps the *running*
/// estimate of `P(var = true)` needs before it first comes within `tolerance`
/// of `target` and stays there for `stability_window` consecutive sweeps.
///
/// `max_sweeps` bounds the run; if the estimate never stabilizes the report has
/// `converged == false` and `sweeps_to_converge == max_sweeps`.
pub fn iterations_to_converge(
    graph: &FactorGraph,
    var: VarId,
    target: f64,
    tolerance: f64,
    max_sweeps: usize,
    stability_window: usize,
    seed: u64,
) -> ConvergenceReport {
    let mut sampler = GibbsSampler::new(graph, seed);
    let mut true_count = 0usize;
    let mut within_since: Option<usize> = None;

    for sweep in 1..=max_sweeps {
        sampler.sweep();
        if sampler.world().value(var) {
            true_count += 1;
        }
        let estimate = true_count as f64 / sweep as f64;
        if (estimate - target).abs() <= tolerance {
            let since = *within_since.get_or_insert(sweep);
            if sweep - since + 1 >= stability_window {
                return ConvergenceReport {
                    sweeps_to_converge: since,
                    converged: true,
                    final_estimate: estimate,
                    target,
                };
            }
        } else {
            within_since = None;
        }
    }
    let final_estimate = true_count as f64 / max_sweeps.max(1) as f64;
    ConvergenceReport {
        sweeps_to_converge: max_sweeps,
        converged: false,
        final_estimate,
        target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder};

    fn prior_graph(w: f64) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let v = b.add_query_variables(1)[0];
        let wid = b.tied_weight("prior", w, false);
        b.add_factor(Factor::is_true(wid, v));
        b.build()
    }

    #[test]
    fn converges_to_exact_marginal() {
        let g = prior_graph(0.0); // P(true) = 0.5
        let report = iterations_to_converge(&g, 0, 0.5, 0.05, 20_000, 50, 3);
        assert!(report.converged);
        assert!(report.sweeps_to_converge < 20_000);
        assert!((report.final_estimate - 0.5).abs() <= 0.06);
    }

    #[test]
    fn impossible_target_does_not_converge() {
        let g = prior_graph(0.0);
        let report = iterations_to_converge(&g, 0, 0.99, 0.001, 500, 10, 3);
        assert!(!report.converged);
        assert_eq!(report.sweeps_to_converge, 500);
    }

    #[test]
    fn tighter_tolerance_takes_at_least_as_long() {
        let g = prior_graph(0.4);
        let target = g.exact_marginal(0);
        let loose = iterations_to_converge(&g, 0, target, 0.1, 50_000, 20, 7);
        let tight = iterations_to_converge(&g, 0, target, 0.01, 50_000, 20, 7);
        assert!(loose.converged);
        assert!(tight.sweeps_to_converge >= loose.sweeps_to_converge);
    }
}
