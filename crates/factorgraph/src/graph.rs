//! The factor graph: variables, weights, factors, and adjacency.

use crate::factor::{Factor, FactorId, FactorKind};
use crate::variable::{VarId, Variable};
use crate::weight::{Weight, WeightId};
use crate::world::{World, WorldView};
use std::collections::HashMap;

/// Summary statistics of a factor graph (used by Figure 7 and the optimizer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    pub num_variables: usize,
    pub num_query_variables: usize,
    pub num_evidence_variables: usize,
    pub num_factors: usize,
    pub num_weights: usize,
    /// Fraction of weights with non-zero value — the "sparsity of correlations"
    /// axis of the tradeoff study (§3.2.4).
    pub weight_density: f64,
    /// Average number of factors incident to a variable.
    pub avg_degree: f64,
}

/// A factor graph `(V, F, w)` (paper §2.5).
///
/// This is the *mutable build/delta* representation: grounding appends to it
/// and learning rewrites its weights.  Samplers run on the compiled
/// [`crate::FlatGraph`] produced by [`FactorGraph::compile`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FactorGraph {
    variables: Vec<Variable>,
    factors: Vec<Factor>,
    weights: Vec<Weight>,
    /// Jagged adjacency: `adjacency[v]` lists the factors touching variable v.
    /// (The samplers use the true-CSR copy inside [`crate::FlatGraph`].)
    adjacency: Vec<Vec<FactorId>>,
}

impl FactorGraph {
    /// An empty graph.
    pub fn new() -> Self {
        FactorGraph::default()
    }

    // ------------------------------------------------------------------ sizes

    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    pub fn num_weights(&self) -> usize {
        self.weights.len()
    }

    // --------------------------------------------------------------- building

    /// A graph over the same variables (ids, roles, origins) with no weights
    /// and no factors — the starting point of an approximate graph of this
    /// one.
    pub fn variables_only(&self) -> FactorGraph {
        FactorGraph {
            variables: self.variables.clone(),
            factors: Vec::new(),
            weights: Vec::new(),
            adjacency: vec![Vec::new(); self.variables.len()],
        }
    }

    /// Add a variable, returning its id.
    pub fn add_variable(&mut self, mut var: Variable) -> VarId {
        let id = self.variables.len();
        var.id = id;
        self.variables.push(var);
        self.adjacency.push(Vec::new());
        id
    }

    /// Add a weight, returning its id.
    pub fn add_weight(&mut self, mut weight: Weight) -> WeightId {
        let id = self.weights.len();
        weight.id = id;
        self.weights.push(weight);
        id
    }

    /// Add a factor, updating adjacency.  Panics if the factor references an
    /// unknown variable or weight (grounding bugs should fail loudly).
    pub fn add_factor(&mut self, factor: Factor) -> FactorId {
        assert!(
            factor.weight_id < self.weights.len(),
            "factor references unknown weight {}",
            factor.weight_id
        );
        let id = self.factors.len();
        if let FactorKind::IsTrue(v) = factor.kind {
            // The per-variable prior every feature grounding creates: one
            // variable, nothing to collect or dedup.
            assert!(
                v < self.variables.len(),
                "factor references unknown variable {v}"
            );
            self.adjacency[v].push(id);
            self.factors.push(factor);
            return id;
        }
        let mut vars = factor.variables();
        for &v in &vars {
            assert!(
                v < self.variables.len(),
                "factor references unknown variable {v}"
            );
        }
        // Sort + dedup instead of a quadratic `seen.contains` scan; aggregate
        // factors can mention hundreds of variables.
        vars.sort_unstable();
        vars.dedup();
        for v in vars {
            self.adjacency[v].push(id);
        }
        self.factors.push(factor);
        id
    }

    // --------------------------------------------------------------- accessors

    pub fn variable(&self, v: VarId) -> &Variable {
        &self.variables[v]
    }

    pub fn variable_mut(&mut self, v: VarId) -> &mut Variable {
        &mut self.variables[v]
    }

    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    pub fn factor(&self, f: FactorId) -> &Factor {
        &self.factors[f]
    }

    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    pub fn weight(&self, w: WeightId) -> &Weight {
        &self.weights[w]
    }

    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Set a weight's value (used by learning).
    pub fn set_weight_value(&mut self, w: WeightId, value: f64) {
        self.weights[w].value = value;
    }

    /// All weight values as a vector (used by warmstart snapshots).
    pub fn weight_values(&self) -> Vec<f64> {
        self.weights.iter().map(|w| w.value).collect()
    }

    /// Bulk-set weight values from a vector (shorter vectors set a prefix, which
    /// is what warmstart over a grown weight set needs).
    pub fn set_weight_values(&mut self, values: &[f64]) {
        for (w, &v) in self.weights.iter_mut().zip(values.iter()) {
            w.value = v;
        }
    }

    /// Factors adjacent to a variable.
    pub fn factors_of(&self, v: VarId) -> &[FactorId] {
        &self.adjacency[v]
    }

    /// Ids of all query (non-evidence) variables.
    pub fn query_variables(&self) -> Vec<VarId> {
        self.variables
            .iter()
            .filter(|v| !v.is_evidence())
            .map(|v| v.id)
            .collect()
    }

    /// Ids of all evidence variables.
    pub fn evidence_variables(&self) -> Vec<VarId> {
        self.variables
            .iter()
            .filter(|v| v.is_evidence())
            .map(|v| v.id)
            .collect()
    }

    /// Look up a variable id by its `(relation, key)` origin: a scan (on
    /// duplicate origins the first variable wins).  Nothing on a hot path
    /// asks — the grounder's catalog maps tuples to variables — so the graph
    /// maintains no index for it.
    pub fn find_variable(&self, relation: &str, key: u64) -> Option<VarId> {
        self.variables
            .iter()
            .position(|v| v.key == key && &*v.relation == relation)
    }

    // ---------------------------------------------------------------- energies

    /// A world respecting evidence and using each variable's initial value for
    /// query variables.
    pub fn initial_world(&self) -> World {
        World::from_values(
            self.variables
                .iter()
                .map(|v| v.fixed_value().unwrap_or(v.initial_value))
                .collect(),
        )
    }

    /// Total log-weight `W(F, I)` of a world (paper Equation before §2.5's `Pr[I]`).
    pub fn log_weight<W: WorldView + ?Sized>(&self, world: &W) -> f64 {
        self.factors
            .iter()
            .map(|f| f.energy(world, self.weights[f.weight_id].value))
            .sum()
    }

    /// Energy of only the factors adjacent to `v`.
    pub(crate) fn local_energy<W: WorldView + ?Sized>(&self, v: VarId, world: &W) -> f64 {
        self.adjacency[v]
            .iter()
            .map(|&f| self.factors[f].energy(world, self.weights[self.factors[f].weight_id].value))
            .sum()
    }

    /// The energy difference `W(I[v←true]) − W(I[v←false])`, computed over only
    /// the factors adjacent to `v`.  The Gibbs conditional is
    /// `P(v = true | rest) = σ(energy_delta)`.
    pub fn energy_delta(&self, v: VarId, world: &mut World) -> f64 {
        let old = world.value(v);
        world.set(v, true);
        let e_true = self.local_energy(v, world);
        world.set(v, false);
        let e_false = self.local_energy(v, world);
        world.set(v, old);
        e_true - e_false
    }

    // ------------------------------------------------------------------- stats

    /// Summary statistics.
    pub fn stats(&self) -> GraphStats {
        let num_evidence = self.variables.iter().filter(|v| v.is_evidence()).count();
        let nonzero_weights = self
            .weights
            .iter()
            .filter(|w| w.value.abs() > 1e-12)
            .count();
        let degree_sum: usize = self.adjacency.iter().map(|a| a.len()).sum();
        GraphStats {
            num_variables: self.variables.len(),
            num_query_variables: self.variables.len() - num_evidence,
            num_evidence_variables: num_evidence,
            num_factors: self.factors.len(),
            num_weights: self.weights.len(),
            weight_density: if self.weights.is_empty() {
                0.0
            } else {
                nonzero_weights as f64 / self.weights.len() as f64
            },
            avg_degree: if self.variables.is_empty() {
                0.0
            } else {
                degree_sum as f64 / self.variables.len() as f64
            },
        }
    }

    /// Connected components over *query* variables, where two variables are
    /// connected if they share a factor.  Evidence variables do not connect
    /// components (conditioning on evidence separates them), which is exactly the
    /// decomposition property Appendix B.1 exploits.
    ///
    /// No other crate calls this yet: it is kept as the reference an
    /// exactness oracle over components tests against (see ROADMAP.md).
    pub fn query_components(&self) -> Vec<Vec<VarId>> {
        self.components_excluding(&|v| self.variables[v].is_evidence())
    }

    /// Connected components of the variables for which `excluded(v)` is false,
    /// treating excluded variables as removed from the graph.
    pub fn components_excluding(&self, excluded: &dyn Fn(VarId) -> bool) -> Vec<Vec<VarId>> {
        let n = self.variables.len();
        let mut comp = vec![usize::MAX; n];
        let mut components = Vec::new();
        for start in 0..n {
            if excluded(start) || comp[start] != usize::MAX {
                continue;
            }
            let cid = components.len();
            let mut stack = vec![start];
            let mut members = Vec::new();
            comp[start] = cid;
            while let Some(v) = stack.pop() {
                members.push(v);
                for &f in &self.adjacency[v] {
                    for u in self.factors[f].variables() {
                        if u < n && !excluded(u) && comp[u] == usize::MAX {
                            comp[u] = cid;
                            stack.push(u);
                        }
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        components
    }

    // -------------------------------------------------------------- retraction

    /// Remove a factor, keeping the factor store dense via `swap_remove`.
    ///
    /// The factor is detached from its variables' adjacency lists.  If another
    /// factor occupied the last slot, it is moved into the freed id and every
    /// adjacency entry pointing at its old id is patched (lists stay sorted).
    /// Returns the *previous* id of the moved factor (`Some(old_last)`), or
    /// `None` if the removed factor was itself last — callers that track
    /// factors by id (the grounder) use this to follow the move.
    pub fn remove_factor(&mut self, f: FactorId) -> Option<FactorId> {
        assert!(f < self.factors.len(), "remove_factor: unknown factor {f}");
        let mut vars = self.factors[f].variables();
        vars.sort_unstable();
        vars.dedup();
        for v in vars {
            self.adjacency[v].retain(|&g| g != f);
        }
        let last = self.factors.len() - 1;
        self.factors.swap_remove(f);
        if f == last {
            return None;
        }
        // The factor formerly at `last` now lives at `f`: patch adjacency.
        let mut moved_vars = self.factors[f].variables();
        moved_vars.sort_unstable();
        moved_vars.dedup();
        for v in moved_vars {
            for g in self.adjacency[v].iter_mut() {
                if *g == last {
                    *g = f;
                }
            }
            self.adjacency[v].sort_unstable();
        }
        Some(last)
    }

    /// Remove a variable with no incident factors, keeping the variable store
    /// dense via `swap_remove`.  Panics if factors still touch it — detach them
    /// with [`FactorGraph::remove_factor`] first (retraction bugs fail loudly).
    ///
    /// If another variable occupied the last slot it is moved into the freed
    /// id; its `id` field and its factors' literal references are patched.
    /// Returns the moved variable's
    /// previous id (`Some(old_last)`), or `None` if the removed variable was
    /// last.
    pub fn remove_variable(&mut self, v: VarId) -> Option<VarId> {
        assert!(
            v < self.variables.len(),
            "remove_variable: unknown variable {v}"
        );
        assert!(
            self.adjacency[v].is_empty(),
            "remove_variable: variable {v} still has incident factors"
        );
        let last = self.variables.len() - 1;
        self.variables.swap_remove(v);
        self.adjacency.swap_remove(v);
        if v == last {
            return None;
        }
        // The variable formerly at `last` now lives at `v`.
        self.variables[v].id = v;
        for &f in &self.adjacency[v] {
            self.factors[f].rename_variable(last, v);
        }
        Some(last)
    }

    /// Marginal-style helper: exact probability that variable `v` is true,
    /// computed by brute-force enumeration over query variables.  Only usable on
    /// tiny graphs; primarily for tests and the strawman strategy.
    pub fn exact_marginal(&self, v: VarId) -> f64 {
        let query: Vec<VarId> = self.query_variables();
        assert!(
            query.len() <= 24,
            "exact_marginal is exponential; {} query variables is too many",
            query.len()
        );
        let mut world = self.initial_world();
        let mut z = 0.0;
        let mut p_true = 0.0;
        for mask in 0u64..(1u64 << query.len()) {
            for (i, &q) in query.iter().enumerate() {
                world.set(q, (mask >> i) & 1 == 1);
            }
            let w = self.log_weight(&world).exp();
            z += w;
            if world.value(v) {
                p_true += w;
            }
        }
        p_true / z
    }
}

/// Builder for synthetic factor graphs (used heavily by the tradeoff-study
/// workloads and by tests).
#[derive(Debug, Default)]
pub struct FactorGraphBuilder {
    graph: FactorGraph,
    weight_index: HashMap<String, WeightId>,
}

impl FactorGraphBuilder {
    pub fn new() -> Self {
        FactorGraphBuilder::default()
    }

    /// Add `n` fresh query variables, returning their ids.
    pub fn add_query_variables(&mut self, n: usize) -> Vec<VarId> {
        (0..n)
            .map(|_| self.graph.add_variable(Variable::query(0)))
            .collect()
    }

    /// Add an evidence variable fixed to `value`.
    pub fn add_evidence_variable(&mut self, value: bool) -> VarId {
        self.graph.add_variable(Variable::evidence(0, value))
    }

    /// Intern a weight by description, creating it on first use — this is weight
    /// tying: all factors created with the same description share the weight.
    pub fn tied_weight(&mut self, description: &str, initial: f64, fixed: bool) -> WeightId {
        if let Some(&w) = self.weight_index.get(description) {
            return w;
        }
        let weight = if fixed {
            Weight::fixed(0, initial, description)
        } else {
            Weight::learnable(0, initial, description)
        };
        let id = self.graph.add_weight(weight);
        self.weight_index.insert(description.to_string(), id);
        id
    }

    /// Add a factor.
    pub fn add_factor(&mut self, factor: Factor) -> FactorId {
        self.graph.add_factor(factor)
    }

    /// Finish building.
    pub fn build(self) -> FactorGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{FactorKind, Lit};
    use crate::semantics::Semantics;

    /// Two-variable chain: prior on v0, equality between v0 and v1.
    fn chain() -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(2);
        let w_prior = b.tied_weight("prior", 1.0, false);
        let w_eq = b.tied_weight("eq", 2.0, false);
        b.add_factor(Factor::is_true(w_prior, vs[0]));
        b.add_factor(Factor::equal(w_eq, vs[0], vs[1]));
        b.build()
    }

    #[test]
    fn building_and_adjacency() {
        let g = chain();
        assert_eq!(g.num_variables(), 2);
        assert_eq!(g.num_factors(), 2);
        assert_eq!(g.num_weights(), 2);
        assert_eq!(g.factors_of(0).len(), 2);
        assert_eq!(g.factors_of(1).len(), 1);
    }

    #[test]
    fn weight_tying_interns_by_description() {
        let mut b = FactorGraphBuilder::new();
        let w1 = b.tied_weight("FE1:and his wife", 0.0, false);
        let w2 = b.tied_weight("FE1:and his wife", 0.0, false);
        let w3 = b.tied_weight("FE1:his sister", 0.0, false);
        assert_eq!(w1, w2);
        assert_ne!(w1, w3);
        assert_eq!(b.graph.num_weights(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn adding_factor_with_unknown_variable_panics() {
        let mut g = FactorGraph::new();
        g.add_weight(Weight::learnable(0, 1.0, "w"));
        g.add_factor(Factor::is_true(0, 7));
    }

    #[test]
    fn log_weight_and_energy_delta_agree() {
        let g = chain();
        let mut w = g.initial_world();
        // brute force check of energy_delta for both variables in both worlds
        for v in 0..2 {
            for &val in &[false, true] {
                w.set(1 - v, val);
                let delta = g.energy_delta(v, &mut w);
                w.set(v, true);
                let e1 = g.log_weight(&w);
                w.set(v, false);
                let e0 = g.log_weight(&w);
                assert!((delta - (e1 - e0)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn exact_marginal_of_symmetric_equal_factor() {
        // Only an equality factor: marginal of each variable must be exactly 0.5.
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(2);
        let w = b.tied_weight("eq", 3.0, false);
        b.add_factor(Factor::equal(w, vs[0], vs[1]));
        let g = b.build();
        assert!((g.exact_marginal(0) - 0.5).abs() < 1e-12);
        assert!((g.exact_marginal(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_marginal_with_prior() {
        // Single variable with prior weight w: P(true) = e^w / (e^w + 1).
        let mut b = FactorGraphBuilder::new();
        let v = b.add_query_variables(1)[0];
        let w = b.tied_weight("prior", 1.5, false);
        b.add_factor(Factor::is_true(w, v));
        let g = b.build();
        let expected = (1.5f64).exp() / ((1.5f64).exp() + 1.0);
        assert!((g.exact_marginal(v) - expected).abs() < 1e-12);
    }

    #[test]
    fn evidence_respected_by_initial_world_and_queries() {
        let mut b = FactorGraphBuilder::new();
        let q = b.add_query_variables(1)[0];
        let e_pos = b.add_evidence_variable(true);
        let e_neg = b.add_evidence_variable(false);
        let g = b.build();
        let w = g.initial_world();
        assert!(!w.value(q));
        assert!(w.value(e_pos));
        assert!(!w.value(e_neg));
        assert_eq!(g.query_variables(), vec![q]);
        assert_eq!(g.evidence_variables(), vec![e_pos, e_neg]);
    }

    #[test]
    fn stats_and_density() {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(3);
        let w1 = b.tied_weight("a", 1.0, false);
        let w2 = b.tied_weight("b", 0.0, false);
        b.add_factor(Factor::equal(w1, vs[0], vs[1]));
        b.add_factor(Factor::equal(w2, vs[1], vs[2]));
        let g = b.build();
        let s = g.stats();
        assert_eq!(s.num_variables, 3);
        assert_eq!(s.num_factors, 2);
        assert_eq!(s.num_weights, 2);
        assert!((s.weight_density - 0.5).abs() < 1e-12);
        assert!((s.avg_degree - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn query_components_split_by_evidence() {
        // v0 - e - v1 : conditioning on evidence e separates v0 and v1.
        let mut b = FactorGraphBuilder::new();
        let v0 = b.add_query_variables(1)[0];
        let e = b.add_evidence_variable(true);
        let v1 = b.add_query_variables(1)[0];
        let w = b.tied_weight("w", 1.0, false);
        b.add_factor(Factor::equal(w, v0, e));
        b.add_factor(Factor::equal(w, e, v1));
        let g = b.build();
        let comps = g.query_components();
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![v0]));
        assert!(comps.contains(&vec![v1]));
    }

    #[test]
    fn find_variable_by_origin() {
        let mut g = FactorGraph::new();
        g.add_variable(Variable::query(0).with_origin("MarriedMentions", 7));
        g.add_variable(Variable::query(0).with_origin("MarriedMentions", 8));
        assert_eq!(g.find_variable("MarriedMentions", 8), Some(1));
        assert_eq!(g.find_variable("MarriedMentions", 9), None);
        assert_eq!(g.find_variable("Other", 7), None);
    }

    #[test]
    fn aggregate_factor_in_graph_energy() {
        // Voting: q with 2 up votes (evidence true) under Ratio semantics.
        let mut b = FactorGraphBuilder::new();
        let q = b.add_query_variables(1)[0];
        let u1 = b.add_evidence_variable(true);
        let u2 = b.add_evidence_variable(true);
        let w = b.tied_weight("vote", 1.0, false);
        b.add_factor(Factor::new(
            w,
            FactorKind::Aggregate {
                head: Lit::pos(q),
                semantics: Semantics::Ratio,
                groundings: vec![vec![Lit::pos(u1)], vec![Lit::pos(u2)]],
            },
        ));
        let g = b.build();
        let expected_w = (3.0f64).ln();
        let p = g.exact_marginal(q);
        let expected = (expected_w).exp() / ((expected_w).exp() + (-expected_w).exp());
        assert!((p - expected).abs() < 1e-9);
    }

    #[test]
    fn remove_factor_compacts_and_patches_adjacency() {
        // f0: is_true(v0), f1: equal(v0, v1), f2: is_true(v1)
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(2);
        let w = b.tied_weight("w", 1.0, false);
        b.add_factor(Factor::is_true(w, vs[0]));
        b.add_factor(Factor::equal(w, vs[0], vs[1]));
        b.add_factor(Factor::is_true(w, vs[1]));
        let mut g = b.build();

        // Removing f0 moves f2 into slot 0.
        assert_eq!(g.remove_factor(0), Some(2));
        assert_eq!(g.num_factors(), 2);
        assert!(matches!(g.factor(0).kind, FactorKind::IsTrue(1)));
        assert_eq!(g.factors_of(0), &[1]);
        assert_eq!(g.factors_of(1), &[0, 1]);

        // Removing the last factor moves nothing.
        assert_eq!(g.remove_factor(1), None);
        assert_eq!(g.num_factors(), 1);
        assert_eq!(g.factors_of(0), &[] as &[FactorId]);
        assert_eq!(g.factors_of(1), &[0]);
    }

    #[test]
    fn remove_variable_compacts_and_remaps_moved_factors() {
        let mut g = FactorGraph::new();
        let v0 = g.add_variable(Variable::query(0).with_origin("R", 0));
        let v1 = g.add_variable(Variable::query(0).with_origin("R", 1));
        let v2 = g.add_variable(Variable::query(0).with_origin("S", 0));
        let w = g.add_weight(Weight::learnable(0, 1.0, "w"));
        let f = g.add_factor(Factor::equal(w, v1, v2));

        // v0 is isolated; removing it moves v2 into slot 0.
        assert_eq!(g.remove_variable(v0), Some(2));
        assert_eq!(g.num_variables(), 2);
        assert_eq!(&*g.variable(0).relation, "S");
        assert_eq!(g.variable(0).id, 0);
        assert_eq!(g.find_variable("S", 0), Some(0));
        assert_eq!(g.find_variable("R", 0), None);
        assert_eq!(g.find_variable("R", 1), Some(1));
        // The factor's reference to old id 2 was remapped to 0.
        let mut vars = g.factor(f).variables();
        vars.sort_unstable();
        assert_eq!(vars, vec![0, 1]);
        assert_eq!(g.factors_of(0), &[f]);
        assert_eq!(g.factors_of(1), &[f]);
    }

    #[test]
    #[should_panic(expected = "still has incident factors")]
    fn remove_variable_with_factors_panics() {
        let mut g = chain();
        g.remove_variable(0);
    }

    #[test]
    fn remove_then_rebuild_matches_fresh_graph_energy() {
        // Retract a factor+variable, then check energies equal a graph never
        // containing them (same remaining structure, possibly different ids).
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(3);
        let w = b.tied_weight("w", 0.8, false);
        b.add_factor(Factor::is_true(w, vs[0]));
        b.add_factor(Factor::equal(w, vs[1], vs[2]));
        let mut g = b.build();
        g.remove_factor(0);
        g.remove_variable(0);

        let mut b2 = FactorGraphBuilder::new();
        let us = b2.add_query_variables(2);
        let w2 = b2.tied_weight("w", 0.8, false);
        b2.add_factor(Factor::equal(w2, us[0], us[1]));
        let fresh = b2.build();

        assert_eq!(g.num_variables(), fresh.num_variables());
        assert_eq!(g.num_factors(), fresh.num_factors());
        for v in 0..g.num_variables() {
            assert!((g.exact_marginal(v) - 0.5).abs() < 1e-12);
        }
        assert!((fresh.exact_marginal(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weight_value_roundtrip() {
        let mut g = chain();
        assert_eq!(g.weight_values(), vec![1.0, 2.0]);
        g.set_weight_value(0, -1.0);
        assert_eq!(g.weight(0).value, -1.0);
        g.set_weight_values(&[5.0]);
        assert_eq!(g.weight_values(), vec![5.0, 2.0]);
    }
}
