//! Factor-graph deltas: the (ΔV, ΔF) object of incremental inference.
//!
//! Incremental grounding (paper §3.1) produces "the 'delta' of the modified
//! factor graph, i.e. the modified variables ΔV and factors ΔF"; incremental
//! inference (§3.2) consumes it.  A [`GraphDelta`] captures every kind of change
//! a KBC iteration can make:
//!
//! * new variables (new candidate tuples from new documents or new rules),
//! * new factors (new features, new inference rules),
//! * weight changes (re-learned or manually adjusted weights),
//! * evidence changes (new supervision labels turning query variables into
//!   evidence, or retracted labels turning evidence back into queries),
//! * factor/variable *removals* (retracted facts whose derivations vanished —
//!   the negative half of the Z-set delta the DRed pass produces).
//!
//! Removals are recorded as **ordered op lists**: each id is valid at its
//! position in the sequence, accounting for the `swap_remove` compaction moves
//! of [`FactorGraph::remove_factor`]/[`FactorGraph::remove_variable`].
//! Replaying a delta on a clone of the pre-update graph therefore reproduces
//! the exact ids of the in-place update.

use crate::factor::{Factor, FactorId};
use crate::graph::FactorGraph;
use crate::variable::{VarId, Variable, VariableRole};
use crate::weight::{Weight, WeightId};

/// A change to one weight value.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightChange {
    pub weight_id: WeightId,
    pub new_value: f64,
}

/// A change to one variable's evidence status.
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceChange {
    pub var: VarId,
    pub new_role: VariableRole,
}

/// The set of modifications to a factor graph produced by one KBC update.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    /// Variables to add.  Their `id` fields are reassigned on application; the
    /// positions in this vector are referred to by [`GraphDelta::new_factors`]
    /// through [`NewVarRef::New`].
    pub new_variables: Vec<Variable>,
    /// Weights to add (ids reassigned on application).
    pub new_weights: Vec<Weight>,
    /// Factors to add.  Variable references use [`NewVarRef`] resolved at
    /// application time; weight references use [`NewWeightRef`].
    pub new_factors: Vec<DeltaFactor>,
    /// Weight-value changes to existing weights.
    pub weight_changes: Vec<WeightChange>,
    /// Evidence-status changes to existing variables.
    pub evidence_changes: Vec<EvidenceChange>,
    /// Factors to remove, **before** any addition, in recorded order.  Each id
    /// is valid at its point in the sequence (`swap_remove` semantics).
    pub removed_factors: Vec<FactorId>,
    /// Variables to remove after factor removals, in recorded order; every
    /// removed variable must be factor-free by then.
    pub removed_variables: Vec<VarId>,
}

/// Reference to a variable that either already exists or is introduced by the
/// same delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NewVarRef {
    Existing(VarId),
    /// Index into [`GraphDelta::new_variables`].
    New(usize),
}

/// Reference to a weight that either already exists or is introduced by the
/// same delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NewWeightRef {
    Existing(WeightId),
    /// Index into [`GraphDelta::new_weights`].
    New(usize),
}

/// A factor whose variable/weight references may point at delta-local entities.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFactor {
    pub weight: NewWeightRef,
    /// A template factor whose variable ids index into `var_refs`.
    pub template: Factor,
    /// The actual references, in the order the template's variable slots use
    /// them: template variable id `i` resolves to `var_refs[i]`.
    pub var_refs: Vec<NewVarRef>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// True if the delta makes no change at all.
    pub fn is_empty(&self) -> bool {
        self.new_variables.is_empty()
            && self.new_weights.is_empty()
            && self.new_factors.is_empty()
            && self.weight_changes.is_empty()
            && self.evidence_changes.is_empty()
            && self.removed_factors.is_empty()
            && self.removed_variables.is_empty()
    }

    /// True if the delta retracts structure (removed factors or variables) —
    /// the negative half of the Z-set.
    pub fn has_removals(&self) -> bool {
        !self.removed_factors.is_empty() || !self.removed_variables.is_empty()
    }

    /// True if the delta changes the *structure* of the graph (new or removed
    /// variables/factors) as opposed to only weights/evidence — the distinction
    /// the rule-based optimizer of §3.3 keys on.
    pub fn changes_structure(&self) -> bool {
        !self.new_variables.is_empty() || !self.new_factors.is_empty() || self.has_removals()
    }

    /// True if the delta modifies evidence (new supervision labels).
    pub fn changes_evidence(&self) -> bool {
        !self.evidence_changes.is_empty()
    }

    /// True if the delta introduces new weights (new features).
    pub fn introduces_new_features(&self) -> bool {
        !self.new_weights.is_empty()
    }

    /// Number of modified variables |ΔV| (new + removed + evidence-changed).
    pub fn num_modified_variables(&self) -> usize {
        self.new_variables.len() + self.removed_variables.len() + self.evidence_changes.len()
    }

    /// Number of modified factors |ΔF| (new + removed + weight-changed).
    pub fn num_modified_factors(&self) -> usize {
        self.new_factors.len() + self.removed_factors.len() + self.weight_changes.len()
    }

    /// Describe what `graph` appended past `since` — its
    /// `(variables, weights, factors)` counts at some earlier point — as the
    /// additions of a delta: the tail variables and weights as the graph
    /// holds them, and each tail factor over [`NewVarRef`]s and a
    /// [`NewWeightRef`] that are `Existing` below the mark and `New` past it.
    /// Applied to a graph of `since`'s sizes, the delta appends exactly that
    /// tail again, ids included.
    pub fn describe_tail(graph: &FactorGraph, since: (usize, usize, usize)) -> Self {
        let (variables, weights, factors) = since;
        let var_ref = |v: VarId| match v.checked_sub(variables) {
            Some(i) => NewVarRef::New(i),
            None => NewVarRef::Existing(v),
        };
        let new_factors = graph.factors()[factors..]
            .iter()
            .map(|factor| {
                // Template slot `i` is the factor's `i`-th distinct variable.
                let mut vars = factor.variables();
                vars.sort_unstable();
                vars.dedup();
                let mut template = factor.clone();
                template.weight_id = 0;
                remap_factor_vars(&mut template, &|v| {
                    vars.binary_search(&v).expect("a variable of the factor")
                });
                DeltaFactor {
                    weight: match factor.weight_id.checked_sub(weights) {
                        Some(i) => NewWeightRef::New(i),
                        None => NewWeightRef::Existing(factor.weight_id),
                    },
                    template,
                    var_refs: vars.into_iter().map(var_ref).collect(),
                }
            })
            .collect();
        GraphDelta {
            new_variables: graph.variables()[variables..].to_vec(),
            new_weights: graph.weights()[weights..].to_vec(),
            new_factors,
            ..GraphDelta::default()
        }
    }

    /// Apply the delta to a graph, returning the ids assigned to the new
    /// variables and factors.
    ///
    /// Order matters and mirrors how the grounder mutates its own graph:
    /// removals first (factors, then variables, each list in recorded order),
    /// then additions, then weight and evidence changes.  This makes replaying
    /// a delta on a clone of the pre-update graph id-exact.
    pub fn apply(&self, graph: &mut FactorGraph) -> (Vec<VarId>, Vec<FactorId>) {
        // 0. removals (ordered op lists; ids valid at each step)
        for &f in &self.removed_factors {
            graph.remove_factor(f);
        }
        for &v in &self.removed_variables {
            graph.remove_variable(v);
        }
        // 1. new variables
        let new_var_ids: Vec<VarId> = self
            .new_variables
            .iter()
            .map(|v| graph.add_variable(v.clone()))
            .collect();
        // 2. new weights
        let new_weight_ids: Vec<WeightId> = self
            .new_weights
            .iter()
            .map(|w| graph.add_weight(w.clone()))
            .collect();
        // 3. new factors with references resolved
        let mut new_factor_ids = Vec::with_capacity(self.new_factors.len());
        for df in &self.new_factors {
            let resolve_var = |r: NewVarRef| -> VarId {
                match r {
                    NewVarRef::Existing(v) => v,
                    NewVarRef::New(i) => new_var_ids[i],
                }
            };
            let weight_id = match df.weight {
                NewWeightRef::Existing(w) => w,
                NewWeightRef::New(i) => new_weight_ids[i],
            };
            let mut factor = df.template.clone();
            factor.weight_id = weight_id;
            remap_factor_vars(&mut factor, &|slot| resolve_var(df.var_refs[slot]));
            new_factor_ids.push(graph.add_factor(factor));
        }
        // 4. weight changes
        for wc in &self.weight_changes {
            graph.set_weight_value(wc.weight_id, wc.new_value);
        }
        // 5. evidence changes.  Un-pinning (back to `Query`) resets the initial
        // value to the query default so the variable is indistinguishable from
        // one that was never evidence — required for retraction equivalence.
        for ec in &self.evidence_changes {
            let var = graph.variable_mut(ec.var);
            var.role = ec.new_role;
            var.initial_value = ec.new_role.fixed_value().unwrap_or(false);
        }
        (new_var_ids, new_factor_ids)
    }
}

/// Rewrite every variable reference inside a factor through `map`.
pub(crate) fn remap_factor_vars(factor: &mut Factor, map: &dyn Fn(usize) -> VarId) {
    use crate::factor::FactorKind::*;
    match &mut factor.kind {
        Conjunction(lits) => {
            for l in lits {
                l.var = map(l.var);
            }
        }
        Imply { body, head } => {
            for l in body {
                l.var = map(l.var);
            }
            head.var = map(head.var);
        }
        Equal(a, b) => {
            *a = map(*a);
            *b = map(*b);
        }
        IsTrue(v) => {
            *v = map(*v);
        }
        Aggregate {
            head, groundings, ..
        } => {
            head.var = map(head.var);
            for g in groundings {
                for l in g {
                    l.var = map(l.var);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{Factor, FactorKind, Lit};
    use crate::graph::FactorGraphBuilder;
    use crate::semantics::Semantics;

    fn base_graph() -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(2);
        let w = b.tied_weight("w0", 1.0, false);
        b.add_factor(Factor::equal(w, vs[0], vs[1]));
        b.build()
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let mut g = base_graph();
        let before = g.stats();
        let d = GraphDelta::new();
        assert!(d.is_empty());
        assert!(!d.changes_structure());
        let (vs, fs) = g.apply_delta(&d);
        assert!(vs.is_empty() && fs.is_empty());
        assert_eq!(g.stats(), before);
    }

    #[test]
    fn delta_adds_variables_factors_and_weights() {
        let mut g = base_graph();
        let d = GraphDelta {
            new_variables: vec![Variable::query(0).with_origin("MarriedMentions", 99)],
            new_weights: vec![Weight::learnable(0, 0.7, "FE2:dep_path")],
            new_factors: vec![DeltaFactor {
                weight: NewWeightRef::New(0),
                // template: conjunction over slots 0 (existing var 1) and 1 (new var 0)
                template: Factor::conjunction(0, &[0, 1]),
                var_refs: vec![NewVarRef::Existing(1), NewVarRef::New(0)],
            }],
            weight_changes: vec![WeightChange {
                weight_id: 0,
                new_value: -0.5,
            }],
            evidence_changes: vec![EvidenceChange {
                var: 0,
                new_role: VariableRole::PositiveEvidence,
            }],
            ..Default::default()
        };
        assert!(d.changes_structure());
        assert!(d.changes_evidence());
        assert!(d.introduces_new_features());
        assert_eq!(d.num_modified_variables(), 2);
        assert_eq!(d.num_modified_factors(), 2);

        let (new_vars, new_factors) = g.apply_delta(&d);
        assert_eq!(new_vars.len(), 1);
        assert_eq!(new_factors.len(), 1);
        assert_eq!(g.num_variables(), 3);
        assert_eq!(g.num_factors(), 2);
        assert_eq!(g.num_weights(), 2);

        // weight change applied
        assert_eq!(g.weight(0).value, -0.5);
        // evidence change applied
        assert!(g.variable(0).is_evidence());
        assert_eq!(g.variable(0).fixed_value(), Some(true));
        // the new factor touches the existing variable 1 and the new variable
        let f = g.factor(new_factors[0]);
        let vars = f.variables();
        assert!(vars.contains(&1));
        assert!(vars.contains(&new_vars[0]));
        assert_eq!(f.weight_id, 1);
        // adjacency updated
        assert!(g.factors_of(new_vars[0]).contains(&new_factors[0]));
    }

    #[test]
    fn delta_remaps_aggregate_factors() {
        let mut g = base_graph();
        let d = GraphDelta {
            new_variables: vec![Variable::query(0), Variable::evidence(0, true)],
            new_weights: vec![Weight::learnable(0, 1.0, "vote")],
            new_factors: vec![DeltaFactor {
                weight: NewWeightRef::New(0),
                template: Factor::new(
                    0,
                    FactorKind::Aggregate {
                        head: Lit::pos(0),
                        semantics: Semantics::Logical,
                        groundings: vec![vec![Lit::pos(1)]],
                    },
                ),
                var_refs: vec![NewVarRef::New(0), NewVarRef::New(1)],
            }],
            ..Default::default()
        };
        let (new_vars, new_factors) = g.apply_delta(&d);
        let f = g.factor(new_factors[0]);
        match &f.kind {
            FactorKind::Aggregate {
                head, groundings, ..
            } => {
                assert_eq!(head.var, new_vars[0]);
                assert_eq!(groundings[0][0].var, new_vars[1]);
            }
            other => panic!("unexpected factor kind {other:?}"),
        }
    }

    #[test]
    fn removal_delta_replays_id_exact_on_a_clone() {
        // Build v0..v2 with f0: is_true(v0), f1: equal(v1, v2); retract f0+v0
        // in place while recording the ops, then replay on a clone.
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(3);
        let w = b.tied_weight("w", 1.0, false);
        b.add_factor(Factor::is_true(w, vs[0]));
        b.add_factor(Factor::equal(w, vs[1], vs[2]));
        let g0 = b.build();

        let mut live = g0.clone();
        let mut delta = GraphDelta::new();
        live.remove_factor(0);
        delta.removed_factors.push(0);
        live.remove_variable(0);
        delta.removed_variables.push(0);
        assert!(delta.has_removals());
        assert!(delta.changes_structure());
        assert_eq!(delta.num_modified_variables(), 1);
        assert_eq!(delta.num_modified_factors(), 1);

        let mut replayed = g0.clone();
        replayed.apply_delta(&delta);
        assert_eq!(replayed.num_variables(), live.num_variables());
        assert_eq!(replayed.num_factors(), live.num_factors());
        for v in 0..live.num_variables() {
            assert_eq!(replayed.variable(v).relation, live.variable(v).relation);
            assert_eq!(replayed.variable(v).key, live.variable(v).key);
            assert_eq!(replayed.factors_of(v), live.factors_of(v));
        }
        for f in 0..live.num_factors() {
            assert_eq!(replayed.factor(f).variables(), live.factor(f).variables());
        }
    }

    #[test]
    fn a_described_tail_replays_to_the_same_graph() {
        let before = base_graph();
        let mut grown = before.clone();
        let v = grown.add_variable(Variable::query(0).with_origin("R", 9));
        let w = grown.add_weight(Weight::learnable(0, 0.3, "new"));
        grown.add_factor(Factor::new(
            w,
            FactorKind::Aggregate {
                head: Lit::pos(v),
                semantics: Semantics::Ratio,
                groundings: vec![vec![Lit::neg(1), Lit::pos(v)]],
            },
        ));
        grown.add_factor(Factor::imply(0, &[0], v));
        let since = (
            before.num_variables(),
            before.num_weights(),
            before.num_factors(),
        );
        let delta = GraphDelta::describe_tail(&grown, since);
        assert_eq!(delta.new_variables.len(), 1);
        assert_eq!(delta.new_weights.len(), 1);
        assert_eq!(delta.new_factors[0].weight, NewWeightRef::New(0));
        assert_eq!(delta.new_factors[1].weight, NewWeightRef::Existing(0));
        assert_eq!(
            delta.new_factors[0].var_refs,
            vec![NewVarRef::Existing(1), NewVarRef::New(0)]
        );
        let mut replayed = before;
        replayed.apply_delta(&delta);
        assert_eq!(replayed, grown);
        // Nothing appended describes an empty delta.
        assert!(GraphDelta::describe_tail(&grown, (3, 2, 3)).is_empty());
    }

    #[test]
    fn unpinning_resets_initial_value() {
        let mut g = base_graph();
        g.apply_delta(&GraphDelta {
            evidence_changes: vec![EvidenceChange {
                var: 1,
                new_role: VariableRole::PositiveEvidence,
            }],
            ..Default::default()
        });
        assert!(g.variable(1).initial_value);
        g.apply_delta(&GraphDelta {
            evidence_changes: vec![EvidenceChange {
                var: 1,
                new_role: VariableRole::Query,
            }],
            ..Default::default()
        });
        assert!(!g.variable(1).initial_value);
        assert_eq!(g.variable(1).role, VariableRole::Query);
    }

    #[test]
    fn evidence_retraction_round_trip() {
        let mut g = base_graph();
        let to_evidence = GraphDelta {
            evidence_changes: vec![EvidenceChange {
                var: 1,
                new_role: VariableRole::NegativeEvidence,
            }],
            ..Default::default()
        };
        g.apply_delta(&to_evidence);
        assert_eq!(g.query_variables(), vec![0]);

        let back_to_query = GraphDelta {
            evidence_changes: vec![EvidenceChange {
                var: 1,
                new_role: VariableRole::Query,
            }],
            ..Default::default()
        };
        g.apply_delta(&back_to_query);
        assert_eq!(g.query_variables(), vec![0, 1]);
    }
}
