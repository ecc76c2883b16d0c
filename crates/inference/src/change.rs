//! Description of how a distribution changed between the materialized factor
//! graph `Pr(0)` and the updated factor graph `Pr(Δ)`.
//!
//! All incremental-inference strategies need to evaluate
//! `ΔW(I) = log Pr(Δ)[I] − log Pr(0)[I] + const`, i.e. the log-weight
//! contribution of exactly the *changed* part of the graph:
//!
//! * factors that did not exist in the original graph,
//! * factors whose (tied) weight value changed, counted at the weight difference,
//! * evidence changes, which make inconsistent worlds impossible (−∞).
//!
//! The strawman looks this quantity up per enumerated world and the sampling
//! approach uses it in the Metropolis–Hastings acceptance test (where the
//! original-graph terms cancel).  The variational approach reads the same
//! description differently: it samples its approximate graph over the updated
//! graph's variables and roles plus the new factors, so new evidence and ΔF
//! reach it and changed weights only through the factors that are new.
//!
//! Whoever changes a graph writes the change down beside the edit:
//! incremental grounding reports its ranges and new evidence
//! (`dd_grounding::IncrementalGrounding`), learning records the weights it
//! moved ([`DistributionChange::record_changed_weights`]).  A change that
//! un-pins evidence or removes structure has no description here: the
//! stored samples of such a graph are discarded instead.

use dd_factorgraph::{FactorGraph, FactorId, VarId, WeightId, WorldView};
use std::collections::{HashMap, HashSet};

/// The changed part of a distribution, expressed against the *updated* graph.
#[derive(Debug, Clone, Default)]
pub struct DistributionChange {
    /// Factors that are new in the updated graph.
    pub new_factors: Vec<FactorId>,
    /// Weights whose value changed: `(weight id, old value)`.  The new value is
    /// read from the updated graph.
    pub changed_weights: Vec<(WeightId, f64)>,
    /// Evidence assignments introduced by the update: `(variable, required value)`.
    pub new_evidence: Vec<(VarId, bool)>,
    /// Variables that are new in the updated graph (ΔV); they have no value in
    /// stored samples/worlds and must be sampled afresh.
    pub new_variables: Vec<VarId>,
}

impl DistributionChange {
    /// Fold a later change into this one, so that it describes everything
    /// that happened since one original distribution — what the stored
    /// samples of a materialization must be corrected for after several
    /// updates.  New evidence overwrites older values for the same variable;
    /// for changed weights the *oldest* recorded pre-change value wins.
    pub fn absorb(&mut self, next: DistributionChange) {
        self.new_factors.extend(next.new_factors);
        self.new_variables.extend(next.new_variables);
        let mut evidence_index: HashMap<VarId, usize> = self
            .new_evidence
            .iter()
            .enumerate()
            .map(|(i, &(v, _))| (v, i))
            .collect();
        for (v, val) in next.new_evidence {
            match evidence_index.get(&v) {
                Some(&i) => self.new_evidence[i].1 = val,
                None => {
                    evidence_index.insert(v, self.new_evidence.len());
                    self.new_evidence.push((v, val));
                }
            }
        }
        self.record_changed_weights(next.changed_weights);
    }

    /// Add `(weight, value before the change)` entries, keeping the entry a
    /// weight already has.
    pub fn record_changed_weights(&mut self, changed: Vec<(WeightId, f64)>) {
        if changed.is_empty() {
            return;
        }
        let mut seen: HashSet<WeightId> = self.changed_weights.iter().map(|&(w, _)| w).collect();
        for (w, old) in changed {
            if seen.insert(w) {
                self.changed_weights.push((w, old));
            }
        }
    }

    /// True if the change is empty (distribution unchanged).
    pub fn is_empty(&self) -> bool {
        self.new_factors.is_empty()
            && self.changed_weights.is_empty()
            && self.new_evidence.is_empty()
            && self.new_variables.is_empty()
    }

    /// Resolve the change against the *updated* graph, once, into what an
    /// evaluation of `ΔW(I)` reads per world: the new factors, and every
    /// pre-existing factor tied to a changed weight with its weight
    /// difference.  Finding the latter is one pass over the graph's factors;
    /// callers that price many worlds (an MH chain, the strawman's
    /// enumeration) resolve once and evaluate per world.
    pub(crate) fn resolve<'a>(&'a self, updated: &'a FactorGraph) -> ResolvedChange<'a> {
        // Changed weights with a non-zero difference, in recorded order (a
        // weight recorded twice contributes twice, as it always has).
        let changed: Vec<(WeightId, f64)> = self
            .changed_weights
            .iter()
            .map(|&(w, old_value)| (w, updated.weight(w).value - old_value))
            .filter(|&(_, diff)| diff != 0.0)
            .collect();
        let mut reweighted = Vec::new();
        if !changed.is_empty() {
            let new_factors: HashSet<FactorId> = self.new_factors.iter().copied().collect();
            let mut tied: HashMap<WeightId, Vec<FactorId>> =
                changed.iter().map(|&(w, _)| (w, Vec::new())).collect();
            for (fid, factor) in updated.factors().iter().enumerate() {
                if let Some(factors) = tied.get_mut(&factor.weight_id) {
                    if !new_factors.contains(&fid) {
                        factors.push(fid);
                    }
                }
            }
            // Changed-weight order, then factor-id order: the order the sum
            // has always been taken in, so it is bit-identical.
            for &(w, diff) in &changed {
                reweighted.extend(tied[&w].iter().map(|&fid| (fid, diff)));
            }
        }
        ResolvedChange {
            change: self,
            updated,
            reweighted,
        }
    }
}

/// A [`DistributionChange`] resolved against its updated graph (see
/// [`DistributionChange::resolve`]).
#[derive(Debug, Clone)]
pub(crate) struct ResolvedChange<'a> {
    change: &'a DistributionChange,
    updated: &'a FactorGraph,
    /// `(factor, w_new − w_old)` for every pre-existing factor tied to a
    /// changed weight.
    reweighted: Vec<(FactorId, f64)>,
}

impl ResolvedChange<'_> {
    /// `ΔW(I)`: the log-weight difference contributed by the changed part of the
    /// graph, evaluated in `world` against the *updated* graph.  Returns
    /// `f64::NEG_INFINITY` for worlds inconsistent with new evidence.
    pub(crate) fn delta_log_weight<W: WorldView + ?Sized>(&self, world: &W) -> f64 {
        for &(v, required) in &self.change.new_evidence {
            if world.value(v) != required {
                return f64::NEG_INFINITY;
            }
        }
        let updated = self.updated;
        let mut total = 0.0;
        for &f in &self.change.new_factors {
            let factor = updated.factor(f);
            total += factor.energy(world, updated.weight(factor.weight_id).value);
        }
        // Every factor tied to a changed weight contributes (w_new − w_old)·φ.
        for &(f, diff) in &self.reweighted {
            total += diff * updated.factor(f).feature_value(world);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder, Variable, VariableRole, Weight, World};

    fn base() -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(2);
        let w = b.tied_weight("w0", 1.0, false);
        b.add_factor(Factor::is_true(w, vs[0]));
        b.add_factor(Factor::is_true(w, vs[1]));
        b.build()
    }

    #[test]
    fn prices_a_new_factor_over_a_new_variable() {
        let mut g = base();
        let v = g.add_variable(Variable::query(0));
        let w = g.add_weight(Weight::learnable(0, 2.0, "new"));
        let f = g.add_factor(Factor::conjunction(w, &[0, v]));
        let change = DistributionChange {
            new_variables: vec![v],
            new_factors: vec![f],
            ..Default::default()
        };
        assert!(!change.is_empty());

        // Δ log-weight is 2.0 only when both var 0 and the new var are true.
        let world_both = World::from_values(vec![true, false, true]);
        assert!((change.resolve(&g).delta_log_weight(&world_both) - 2.0).abs() < 1e-12);
        let world_one = World::from_values(vec![true, false, false]);
        assert_eq!(change.resolve(&g).delta_log_weight(&world_one), 0.0);
    }

    #[test]
    fn prices_a_weight_change_on_every_tied_factor() {
        let mut g = base();
        g.set_weight_value(0, 1.5);
        let change = DistributionChange {
            changed_weights: vec![(0, 1.0)],
            ..Default::default()
        };
        // Both variables true -> two factors tied to weight 0 -> Δ = 2 × 0.5.
        let world = World::from_values(vec![true, true]);
        assert!((change.resolve(&g).delta_log_weight(&world) - 1.0).abs() < 1e-12);
        let world0 = World::from_values(vec![false, false]);
        assert_eq!(change.resolve(&g).delta_log_weight(&world0), 0.0);
    }

    #[test]
    fn new_evidence_is_a_hard_constraint() {
        let mut g = base();
        let var = g.variable_mut(1);
        var.role = VariableRole::PositiveEvidence;
        var.initial_value = true;
        let change = DistributionChange {
            new_evidence: vec![(1, true)],
            ..Default::default()
        };
        let consistent = World::from_values(vec![false, true]);
        assert_eq!(change.resolve(&g).delta_log_weight(&consistent), 0.0);
        let inconsistent = World::from_values(vec![false, false]);
        assert_eq!(
            change.resolve(&g).delta_log_weight(&inconsistent),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn empty_change_prices_nothing() {
        let g = base();
        let change = DistributionChange::default();
        assert!(change.is_empty());
        let w = World::from_values(vec![true, true]);
        assert_eq!(change.resolve(&g).delta_log_weight(&w), 0.0);
    }
}
