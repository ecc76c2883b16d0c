//! The strawman strategy: complete materialization of all possible worlds
//! (paper §3.2.1).
//!
//! "We explicitly store the value of the probability `Pr[I]` for every possible
//! world I.  This approach has perfect fidelity, but storing all possible worlds
//! takes an exponential amount of space and time."  It exists to anchor the
//! tradeoff study (Figure 5a): it is exact and its incremental-inference phase is
//! extremely cheap, but it is infeasible beyond ~20 query variables.

use crate::change::DistributionChange;
use crate::marginals::Marginals;
use dd_factorgraph::{FactorGraph, VarId, World, WorldView};

/// Hard cap on the number of query variables the strawman will enumerate.
pub const MAX_STRAWMAN_VARS: usize = 22;

/// Complete materialization: the log-weight of every possible world over the
/// query variables of the original graph.
#[derive(Debug, Clone)]
pub struct StrawmanMaterialization {
    /// Query variables enumerated, in bit order.
    query_vars: Vec<VarId>,
    /// Total number of variables of the original graph.
    num_vars: usize,
    /// Evidence/initial values for non-query variables.
    base_world: Vec<bool>,
    /// `log_weights[mask]` = unnormalized log-weight of the world where query
    /// variable `i` is true iff bit `i` of `mask` is set.
    log_weights: Vec<f64>,
}

impl StrawmanMaterialization {
    /// Enumerate and store every possible world.  Returns `None` if the graph
    /// has too many query variables to enumerate.
    pub fn materialize(graph: &FactorGraph) -> Option<Self> {
        let query_vars = graph.query_variables();
        if query_vars.len() > MAX_STRAWMAN_VARS {
            return None;
        }
        let mut world = graph.initial_world();
        let base_world = world.to_vec();
        let mut log_weights = Vec::with_capacity(1 << query_vars.len());
        for mask in 0u64..(1u64 << query_vars.len()) {
            for (i, &v) in query_vars.iter().enumerate() {
                world.set(v, (mask >> i) & 1 == 1);
            }
            log_weights.push(graph.log_weight(&world));
        }
        Some(StrawmanMaterialization {
            query_vars,
            num_vars: graph.num_variables(),
            base_world,
            log_weights,
        })
    }

    /// Number of stored worlds (2^|Q|).
    pub fn num_worlds(&self) -> usize {
        self.log_weights.len()
    }

    /// Approximate storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.log_weights.len() * std::mem::size_of::<f64>()
    }

    /// Exact marginals of the *original* distribution (no change applied).
    pub fn original_marginals(&self) -> Marginals {
        self.marginals_with(|_world| 0.0, self.num_vars)
    }

    /// Exact marginals of the *updated* distribution described by `change`
    /// against the updated graph.
    ///
    /// New variables introduced by the change are enumerated on the fly (their
    /// count must keep the total enumeration feasible); evidence changes are
    /// handled by `ResolvedChange::delta_log_weight` returning −∞ for
    /// inconsistent worlds.
    pub fn incremental_marginals(
        &self,
        updated: &FactorGraph,
        change: &DistributionChange,
    ) -> Option<Marginals> {
        let new_vars = &change.new_variables;
        if self.query_vars.len() + new_vars.len() > MAX_STRAWMAN_VARS {
            return None;
        }
        let total_vars = updated.num_variables();
        let mut values = self.base_world.clone();
        // extend with the updated graph's initial values for new variables
        let init = updated.initial_world();
        for v in self.num_vars..total_vars {
            values.push(init.value(v));
        }
        let mut world = World::from_values(values);
        let resolved = change.resolve(updated);

        let mut z = 0.0f64;
        let mut p_true = vec![0.0f64; total_vars];
        // Normalize against the maximum exponent for stability.
        let max_base = self
            .log_weights
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);

        for (mask, &base_lw) in self.log_weights.iter().enumerate() {
            for (i, &v) in self.query_vars.iter().enumerate() {
                world.set(v, (mask >> i) & 1 == 1);
            }
            for new_mask in 0u64..(1u64 << new_vars.len()) {
                for (i, &v) in new_vars.iter().enumerate() {
                    world.set(v, (new_mask >> i) & 1 == 1);
                }
                let delta = resolved.delta_log_weight(&world);
                if delta == f64::NEG_INFINITY {
                    continue;
                }
                let w = (base_lw - max_base + delta).exp();
                z += w;
                for (v, p) in p_true.iter_mut().enumerate() {
                    if world.value(v) {
                        *p += w;
                    }
                }
            }
        }
        if z == 0.0 {
            return None;
        }
        Some(Marginals::from_values(
            p_true.into_iter().map(|p| p / z).collect(),
        ))
    }

    fn marginals_with<F>(&self, extra: F, total_vars: usize) -> Marginals
    where
        F: Fn(&World) -> f64,
    {
        let mut world = World::from_values(self.base_world.clone());
        let mut z = 0.0f64;
        let mut p_true = vec![0.0f64; total_vars];
        let max_base = self
            .log_weights
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        for (mask, &base_lw) in self.log_weights.iter().enumerate() {
            for (i, &v) in self.query_vars.iter().enumerate() {
                world.set(v, (mask >> i) & 1 == 1);
            }
            let w = (base_lw - max_base + extra(&world)).exp();
            z += w;
            for (v, p) in p_true.iter_mut().enumerate() {
                if world.value(v) {
                    *p += w;
                }
            }
        }
        Marginals::from_values(p_true.into_iter().map(|p| p / z).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder, Variable, VariableRole, Weight};

    fn small_graph() -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(3);
        let wp = b.tied_weight("prior", 0.6, false);
        let wc = b.tied_weight("couple", 0.9, false);
        b.add_factor(Factor::is_true(wp, vs[0]));
        b.add_factor(Factor::equal(wc, vs[0], vs[1]));
        b.add_factor(Factor::equal(wc, vs[1], vs[2]));
        b.build()
    }

    #[test]
    fn original_marginals_match_exact() {
        let g = small_graph();
        let m = StrawmanMaterialization::materialize(&g).unwrap();
        assert_eq!(m.num_worlds(), 8);
        let marg = m.original_marginals();
        for v in 0..3 {
            assert!((marg.get(v) - g.exact_marginal(v)).abs() < 1e-10);
        }
    }

    #[test]
    fn refuses_large_graphs() {
        let mut b = FactorGraphBuilder::new();
        b.add_query_variables(MAX_STRAWMAN_VARS + 1);
        let g = b.build();
        assert!(StrawmanMaterialization::materialize(&g).is_none());
    }

    #[test]
    fn incremental_weight_change_matches_exact() {
        let g0 = small_graph();
        let straw = StrawmanMaterialization::materialize(&g0).unwrap();

        let mut g = g0.clone();
        g.set_weight_value(0, -1.0);
        let change = DistributionChange {
            changed_weights: vec![(0, 0.6)],
            ..Default::default()
        };
        let marg = straw.incremental_marginals(&g, &change).unwrap();
        for v in 0..3 {
            assert!(
                (marg.get(v) - g.exact_marginal(v)).abs() < 1e-10,
                "var {v}: {} vs {}",
                marg.get(v),
                g.exact_marginal(v)
            );
        }
    }

    #[test]
    fn incremental_new_factor_and_variable_matches_exact() {
        let g0 = small_graph();
        let straw = StrawmanMaterialization::materialize(&g0).unwrap();

        let mut g = g0.clone();
        let v = g.add_variable(Variable::query(0));
        let w = g.add_weight(Weight::learnable(0, 1.3, "new"));
        let f = g.add_factor(Factor::equal(w, 2, v));
        let change = DistributionChange {
            new_variables: vec![v],
            new_factors: vec![f],
            ..Default::default()
        };
        let marg = straw.incremental_marginals(&g, &change).unwrap();
        for v in 0..4 {
            assert!(
                (marg.get(v) - g.exact_marginal(v)).abs() < 1e-10,
                "var {v}: {} vs {}",
                marg.get(v),
                g.exact_marginal(v)
            );
        }
    }

    #[test]
    fn incremental_evidence_change_matches_exact() {
        let g0 = small_graph();
        let straw = StrawmanMaterialization::materialize(&g0).unwrap();

        let mut g = g0.clone();
        let var = g.variable_mut(2);
        var.role = VariableRole::PositiveEvidence;
        var.initial_value = true;
        let change = DistributionChange {
            new_evidence: vec![(2, true)],
            ..Default::default()
        };
        let marg = straw.incremental_marginals(&g, &change).unwrap();
        assert_eq!(marg.get(2), 1.0);
        for v in 0..2 {
            assert!((marg.get(v) - g.exact_marginal(v)).abs() < 1e-10);
        }
    }

    #[test]
    fn storage_grows_exponentially() {
        let g = small_graph();
        let m = StrawmanMaterialization::materialize(&g).unwrap();
        assert_eq!(m.storage_bytes(), 8 * 8);
    }
}
