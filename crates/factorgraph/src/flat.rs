//! The compiled, flat inference representation of a factor graph.
//!
//! [`crate::FactorGraph`] is the *mutable* representation: grounding appends
//! to it, incremental grounding also removes from it and re-pins its
//! variables, learning rewrites its weights.  Its layout is pointer-rich (jagged adjacency, per-factor
//! `Vec<Lit>`, `factor → weight_id → weights[w].value` double indirection),
//! which is exactly what a Gibbs sweep — the hot loop behind every figure of
//! the paper — should not be chasing.
//!
//! [`FlatGraph`] is the read-only representation samplers run on, built once
//! per graph version by [`FactorGraph::compile`]:
//!
//! * **CSR adjacency** — `var_offsets`/`var_factors` flatten the
//!   variable→factor index into two contiguous arrays;
//! * **flat factor arena** — every factor's literals live in one shared
//!   `lits` array (aggregate groundings add a shared offsets array), so
//!   evaluating a factor walks contiguous memory;
//! * **pre-resolved weights** — each compiled factor carries its weight
//!   *value*; the sweep never touches the weight table;
//! * **single-pass energy deltas** — [`FlatGraph::energy_delta`] computes each
//!   incident factor's contribution for `v = true` and `v = false` in one
//!   traversal of its literals, instead of two full `local_energy` passes, and
//!   needs only a `&World` (no temporary mutation), which is what the lock-free
//!   parallel sweep requires.
//!
//! Compilation also splits the query variables into **static** ones — every
//! incident factor mentions no other variable, so the conditional is a
//! constant and the variable is independent of the rest of the graph — and
//! **coupled** ones.  The split depends on structure only; samplers sweep
//! the coupled variables and read the static ones' marginals off
//! [`FlatGraph::static_p_true`].
//!
//! After a change to the graph's structure or roles recompile; after a
//! learning step that only moved weight values,
//! [`FlatGraph::refresh_weights`] updates the cached values in place without
//! rebuilding the topology.

use crate::factor::{FactorId, FactorKind, Lit};
use crate::graph::FactorGraph;
use crate::variable::VarId;
use crate::world::{World, WorldView};

/// Sentinel "no variable is being flipped" marker for single-world evaluation.
const NO_VAR: usize = usize::MAX;

/// A literal packed into 32 bits: variable id in the high bits, polarity in
/// bit 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedLit(u32);

impl PackedLit {
    #[inline]
    fn new(lit: Lit) -> Self {
        debug_assert!(lit.var < (u32::MAX >> 1) as usize);
        PackedLit(((lit.var as u32) << 1) | lit.positive as u32)
    }

    #[inline]
    pub(crate) fn var(self) -> VarId {
        (self.0 >> 1) as VarId
    }

    #[inline]
    pub(crate) fn positive(self) -> bool {
        self.0 & 1 == 1
    }

    /// `(holds if flip_var = true, holds if flip_var = false)` in `world`,
    /// where the value of `flip_var` is overridden rather than read.
    #[inline]
    fn holds_pair<W: WorldView + ?Sized>(self, world: &W, flip_var: VarId) -> (bool, bool) {
        let positive = self.positive();
        if self.var() == flip_var {
            (positive, !positive)
        } else {
            let holds = world.value(self.var()) == positive;
            (holds, holds)
        }
    }
}

/// Range into the shared literal arena.
#[derive(Debug, Clone, Copy)]
struct LitRange {
    start: u32,
    end: u32,
}

/// Compiled factor function, with all literal storage externalized to the
/// arenas of the owning [`FlatGraph`].
#[derive(Debug, Clone, Copy)]
enum FlatKind {
    /// Satisfied iff every literal in the range holds.
    Conjunction(LitRange),
    /// Satisfied iff some body literal fails or the head holds.
    Imply { body: LitRange, head: PackedLit },
    /// Satisfied iff both variables have the same value.
    Equal(u32, u32),
    /// Satisfied iff the variable is true.
    IsTrue(u32),
    /// Equation 1: `sign(head) · g(#satisfied groundings)`.  Grounding `j`
    /// (for `j < num_groundings`) has literals
    /// `grounding_offsets[offsets_start + j] .. grounding_offsets[offsets_start + j + 1]`;
    /// `g` is pre-tabulated as `g_table[g_start + n]` for `n ≤ num_groundings`
    /// (the satisfied-grounding count is bounded by the grounding count, so the
    /// sweep never evaluates the semantics function — for Ratio semantics that
    /// removes an `ln` call per factor evaluation).
    Aggregate {
        head: PackedLit,
        g_start: u32,
        offsets_start: u32,
        num_groundings: u32,
    },
}

/// A compiled factor: its function plus the pre-resolved weight value.
#[derive(Debug, Clone)]
struct FlatFactor {
    /// Cached `weights[weight_id].value` — refreshed by
    /// [`FlatGraph::refresh_weights`].
    weight: f64,
    weight_id: u32,
    kind: FlatKind,
}

/// The compiled flat factor graph.  See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct FlatGraph {
    num_vars: usize,
    /// CSR: factors incident to `v` are
    /// `var_factors[var_offsets[v] .. var_offsets[v + 1]]`.
    var_offsets: Vec<u32>,
    var_factors: Vec<u32>,
    factors: Vec<FlatFactor>,
    /// Shared literal arena for conjunction/implication bodies and aggregate
    /// groundings.
    lits: Vec<PackedLit>,
    /// Shared grounding-boundary arena for aggregate factors.
    grounding_offsets: Vec<u32>,
    /// Pre-tabulated semantics values `g(n)` for aggregate factors.
    g_table: Vec<f64>,
    /// Weight values by id (the learning gradient is indexed by weight id).
    weights: Vec<f64>,
    /// Query (non-evidence) variables in id order.
    query_vars: Vec<VarId>,
    /// Evidence flags by variable id.
    evidence: Vec<bool>,
    /// Evidence/initial assignment.
    initial: World,
    /// Constant-folded Gibbs conditionals: `static_p_true[v]` is
    /// `σ(energy_delta(v, ·))` when every factor incident to `v` mentions no
    /// other variable (so the conditional is world-independent), `NaN`
    /// otherwise.  KBC feature graphs are dominated by such
    /// logistic-regression-shaped variables (paper Example 2.6), and for them
    /// the sweep reduces to one cached-probability coin flip.
    static_p_true: Vec<f64>,
    /// The query variables with a constant-folded conditional, in id order.
    static_query: Vec<VarId>,
    /// The other query variables, in id order.
    coupled_query: Vec<VarId>,
}

impl FactorGraph {
    /// Compile this graph into the flat representation the samplers run on.
    ///
    /// Compilation is cheap (microseconds for typical KBC graphs) and the
    /// result is immutable except for [`FlatGraph::refresh_weights`], so one
    /// compilation can be shared by many samplers:
    ///
    /// ```
    /// use dd_factorgraph::{Factor, FactorGraphBuilder};
    ///
    /// let mut b = FactorGraphBuilder::new();
    /// let vs = b.add_query_variables(2);
    /// let w = b.tied_weight("couple", 0.7, false);
    /// b.add_factor(Factor::equal(w, vs[0], vs[1]));
    /// let graph = b.build();
    ///
    /// let flat = graph.compile();
    /// assert_eq!(flat.num_variables(), 2);
    /// assert_eq!(flat.query_variables(), &[vs[0], vs[1]]);
    /// // The flat energy delta agrees with the build-side reference
    /// // implementation (which needs scratch mutation) for every variable.
    /// let mut world = flat.initial_world();
    /// for v in 0..2 {
    ///     assert_eq!(flat.energy_delta(v, &world), graph.energy_delta(v, &mut world));
    /// }
    /// ```
    pub fn compile(&self) -> FlatGraph {
        FlatGraph::compile(self)
    }
}

impl FlatGraph {
    /// Build the flat representation from a [`FactorGraph`].
    pub fn compile(graph: &FactorGraph) -> Self {
        let num_vars = graph.num_variables();

        // CSR adjacency straight from the build-side index.
        let mut var_offsets = Vec::with_capacity(num_vars + 1);
        let mut var_factors = Vec::new();
        var_offsets.push(0u32);
        for v in 0..num_vars {
            let incident = graph.factors_of(v);
            var_factors.extend(incident.iter().map(|&f| f as u32));
            var_offsets.push(var_factors.len() as u32);
        }

        // Flatten factors into the arenas, resolving weight values.
        let mut factors = Vec::with_capacity(graph.num_factors());
        let mut lits: Vec<PackedLit> = Vec::new();
        let mut grounding_offsets: Vec<u32> = Vec::new();
        let mut g_table: Vec<f64> = Vec::new();
        for factor in graph.factors() {
            let kind = match &factor.kind {
                FactorKind::Conjunction(body) => FlatKind::Conjunction(push_lits(&mut lits, body)),
                FactorKind::Imply { body, head } => FlatKind::Imply {
                    body: push_lits(&mut lits, body),
                    head: PackedLit::new(*head),
                },
                FactorKind::Equal(a, b) => FlatKind::Equal(*a as u32, *b as u32),
                FactorKind::IsTrue(v) => FlatKind::IsTrue(*v as u32),
                FactorKind::Aggregate {
                    head,
                    semantics,
                    groundings,
                } => {
                    let offsets_start = grounding_offsets.len() as u32;
                    grounding_offsets.push(lits.len() as u32);
                    for grounding in groundings {
                        lits.extend(grounding.iter().copied().map(PackedLit::new));
                        grounding_offsets.push(lits.len() as u32);
                    }
                    let g_start = g_table.len() as u32;
                    g_table.extend((0..=groundings.len()).map(|n| semantics.g(n)));
                    FlatKind::Aggregate {
                        head: PackedLit::new(*head),
                        g_start,
                        offsets_start,
                        num_groundings: groundings.len() as u32,
                    }
                }
            };
            factors.push(FlatFactor {
                weight: graph.weight(factor.weight_id).value,
                weight_id: factor.weight_id as u32,
                kind,
            });
        }

        let mut flat = FlatGraph {
            num_vars,
            var_offsets,
            var_factors,
            factors,
            lits,
            grounding_offsets,
            g_table,
            weights: graph.weight_values(),
            query_vars: graph.query_variables(),
            evidence: graph.variables().iter().map(|v| v.is_evidence()).collect(),
            initial: graph.initial_world(),
            static_p_true: Vec::new(),
            static_query: Vec::new(),
            coupled_query: Vec::new(),
        };
        flat.static_p_true = (0..num_vars)
            .map(|v| {
                if flat
                    .factors_of(v)
                    .iter()
                    .all(|&f| flat.factor_touches_only(f as usize, v))
                {
                    sigmoid(flat.energy_delta(v, &flat.initial))
                } else {
                    f64::NAN
                }
            })
            .collect();
        (flat.static_query, flat.coupled_query) = flat
            .query_vars
            .iter()
            .copied()
            .partition(|&v| !flat.static_p_true[v].is_nan());
        flat
    }

    /// Re-resolve cached weight values from `graph` without rebuilding the
    /// topology.  Valid only when `graph` has the same factors/weights as the
    /// one this was compiled from (the learning loop's situation).
    pub fn refresh_weights(&mut self, graph: &FactorGraph) {
        assert_eq!(graph.num_weights(), self.weights.len(), "topology changed");
        assert_eq!(graph.num_factors(), self.factors.len(), "topology changed");
        for (slot, w) in self.weights.iter_mut().zip(graph.weights()) {
            *slot = w.value;
        }
        for factor in &mut self.factors {
            factor.weight = self.weights[factor.weight_id as usize];
        }
        // Re-fold the constant conditionals under the new weights.  Which
        // variables are static depends only on topology, which is unchanged.
        for v in 0..self.num_vars {
            if !self.static_p_true[v].is_nan() {
                self.static_p_true[v] = sigmoid(self.energy_delta(v, &self.initial));
            }
        }
    }

    // ------------------------------------------------------------------ sizes

    pub fn num_variables(&self) -> usize {
        self.num_vars
    }

    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    pub fn num_weights(&self) -> usize {
        self.weights.len()
    }

    // ------------------------------------------------------------- variables

    /// Query (non-evidence) variables in id order.
    pub fn query_variables(&self) -> &[VarId] {
        &self.query_vars
    }

    /// The query variables whose conditional depends on no other variable
    /// (every incident factor mentions them alone), in id order.  Each is
    /// independent of the rest of the graph, so its marginal is exactly
    /// [`FlatGraph::static_p_true`] — nothing to sample.
    pub fn static_query_variables(&self) -> &[VarId] {
        &self.static_query
    }

    /// The query variables that share a factor with another variable, in id
    /// order: the ones inference has to sample.
    pub fn coupled_query_variables(&self) -> &[VarId] {
        &self.coupled_query
    }

    /// `P(v = true)` when `v`'s conditional is world-independent (for a
    /// query variable: its exact marginal), `None` when `v` is coupled.
    pub fn static_p_true(&self, v: VarId) -> Option<f64> {
        let p = self.static_p_true[v];
        (!p.is_nan()).then_some(p)
    }

    /// True if `v` is an evidence variable.
    pub fn is_evidence(&self, v: VarId) -> bool {
        self.evidence[v]
    }

    /// The evidence/initial assignment the samplers start from.
    pub fn initial_world(&self) -> World {
        self.initial.clone()
    }

    /// Factor ids incident to `v` (CSR row).
    pub(crate) fn factors_of(&self, v: VarId) -> &[u32] {
        let start = self.var_offsets[v] as usize;
        let end = self.var_offsets[v + 1] as usize;
        &self.var_factors[start..end]
    }

    // -------------------------------------------------------------- energies

    /// The energy difference `W(I[v←true]) − W(I[v←false])` over the factors
    /// adjacent to `v`, each evaluated in a single pass.  The Gibbs conditional
    /// is `P(v = true | rest) = σ(energy_delta)`.
    ///
    /// Unlike [`FactorGraph::energy_delta`] this never mutates the world, so
    /// it works directly against shared/atomic world views.
    pub fn energy_delta<W: WorldView + ?Sized>(&self, v: VarId, world: &W) -> f64 {
        let mut delta = 0.0;
        for &f in self.factors_of(v) {
            let factor = &self.factors[f as usize];
            let (phi_true, phi_false) = self.feature_pair(factor, v, world);
            if phi_true != phi_false {
                delta += factor.weight * (phi_true - phi_false);
            }
        }
        delta
    }

    /// The Gibbs conditional `P(v = true | rest of world) = σ(energy_delta)`.
    ///
    /// For variables whose conditional was constant-folded at compile time
    /// this is a single table read — no factor traversal, no `exp`.
    #[inline]
    pub fn conditional_p_true<W: WorldView + ?Sized>(&self, v: VarId, world: &W) -> f64 {
        let cached = self.static_p_true[v];
        if !cached.is_nan() {
            cached
        } else {
            sigmoid(self.energy_delta(v, world))
        }
    }

    /// True if factor `f` mentions no variable other than `v`.
    fn factor_touches_only(&self, f: FactorId, v: VarId) -> bool {
        let only = |range: LitRange| {
            self.lits[range.start as usize..range.end as usize]
                .iter()
                .all(|lit| lit.var() == v)
        };
        match self.factors[f].kind {
            FlatKind::Conjunction(range) => only(range),
            FlatKind::Imply { body, head } => only(body) && head.var() == v,
            FlatKind::Equal(a, b) => a as usize == v && b as usize == v,
            FlatKind::IsTrue(u) => u as usize == v,
            FlatKind::Aggregate {
                head,
                offsets_start,
                num_groundings,
                ..
            } => {
                let offsets = &self.grounding_offsets[offsets_start as usize..]
                    [..num_groundings as usize + 1];
                head.var() == v
                    && only(LitRange {
                        start: offsets[0],
                        end: offsets[num_groundings as usize],
                    })
            }
        }
    }

    /// Total log-weight `W(F, I)` of a world.
    pub fn log_weight<W: WorldView + ?Sized>(&self, world: &W) -> f64 {
        self.factors
            .iter()
            .map(|factor| factor.weight * self.feature_pair(factor, NO_VAR, world).0)
            .sum()
    }

    /// Add every factor's feature value to `totals[weight_id]` — one flat pass
    /// producing the sufficient statistic of the learning gradient.
    pub fn accumulate_feature_counts<W: WorldView + ?Sized>(&self, world: &W, totals: &mut [f64]) {
        for factor in &self.factors {
            let phi = self.feature_pair(factor, NO_VAR, world).0;
            if phi != 0.0 {
                totals[factor.weight_id as usize] += phi;
            }
        }
    }

    /// `(φ(I[flip_var←true]), φ(I[flip_var←false]))` for one factor, computed
    /// in a single traversal of its literals.  With `flip_var == NO_VAR` both
    /// components equal φ(I).
    #[inline]
    fn feature_pair<W: WorldView + ?Sized>(
        &self,
        factor: &FlatFactor,
        flip_var: VarId,
        world: &W,
    ) -> (f64, f64) {
        match factor.kind {
            FlatKind::Conjunction(range) => {
                let (t, f) = self.conjunction_pair(range, flip_var, world);
                (t as u8 as f64, f as u8 as f64)
            }
            FlatKind::Imply { body, head } => {
                let (body_t, body_f) = self.conjunction_pair(body, flip_var, world);
                let (head_t, head_f) = head.holds_pair(world, flip_var);
                (
                    (!body_t || head_t) as u8 as f64,
                    (!body_f || head_f) as u8 as f64,
                )
            }
            FlatKind::Equal(a, b) => {
                let (a_t, a_f) = value_pair(world, a as usize, flip_var);
                let (b_t, b_f) = value_pair(world, b as usize, flip_var);
                ((a_t == b_t) as u8 as f64, (a_f == b_f) as u8 as f64)
            }
            FlatKind::IsTrue(v) => {
                let (t, f) = value_pair(world, v as usize, flip_var);
                (t as u8 as f64, f as u8 as f64)
            }
            FlatKind::Aggregate {
                head,
                g_start,
                offsets_start,
                num_groundings,
            } => {
                let mut n_true = 0usize;
                let mut n_false = 0usize;
                let offsets = &self.grounding_offsets[offsets_start as usize..]
                    [..num_groundings as usize + 1];
                for j in 0..num_groundings as usize {
                    let range = LitRange {
                        start: offsets[j],
                        end: offsets[j + 1],
                    };
                    let (sat_t, sat_f) = self.conjunction_pair(range, flip_var, world);
                    n_true += sat_t as usize;
                    n_false += sat_f as usize;
                }
                let (head_t, head_f) = head.holds_pair(world, flip_var);
                let sign = |holds: bool| if holds { 1.0 } else { -1.0 };
                let g = &self.g_table[g_start as usize..][..num_groundings as usize + 1];
                (sign(head_t) * g[n_true], sign(head_f) * g[n_false])
            }
        }
    }

    /// Whether all literals in `range` hold, under both values of `flip_var`.
    #[inline]
    fn conjunction_pair<W: WorldView + ?Sized>(
        &self,
        range: LitRange,
        flip_var: VarId,
        world: &W,
    ) -> (bool, bool) {
        let mut sat_true = true;
        let mut sat_false = true;
        for &lit in &self.lits[range.start as usize..range.end as usize] {
            let (t, f) = lit.holds_pair(world, flip_var);
            sat_true &= t;
            sat_false &= f;
            if !sat_true && !sat_false {
                break;
            }
        }
        (sat_true, sat_false)
    }
}

/// Numerically stable logistic function (kept private here; `dd-inference`
/// exposes its own copy for the non-compiled code paths).
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `(value if flip_var = true, value if flip_var = false)` of variable `x`.
#[inline]
fn value_pair<W: WorldView + ?Sized>(world: &W, x: VarId, flip_var: VarId) -> (bool, bool) {
    if x == flip_var {
        (true, false)
    } else {
        let b = world.value(x);
        (b, b)
    }
}

fn push_lits(arena: &mut Vec<PackedLit>, body: &[Lit]) -> LitRange {
    let start = arena.len() as u32;
    arena.extend(body.iter().copied().map(PackedLit::new));
    LitRange {
        start,
        end: arena.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{Factor, FactorKind, Lit};
    use crate::graph::FactorGraphBuilder;
    use crate::semantics::Semantics;
    use crate::weight::WeightId;

    /// A graph exercising every factor kind.
    fn zoo() -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(5);
        let e = b.add_evidence_variable(true);
        let w1 = b.tied_weight("w1", 0.7, false);
        let w2 = b.tied_weight("w2", -1.3, false);
        let w3 = b.tied_weight("w3", 2.0, false);
        b.add_factor(Factor::is_true(w1, vs[0]));
        b.add_factor(Factor::equal(w2, vs[0], vs[1]));
        b.add_factor(Factor::conjunction(w3, &[vs[1], vs[2], e]));
        b.add_factor(Factor::imply(w1, &[vs[2], vs[3]], vs[4]));
        b.add_factor(Factor::new(
            w2,
            FactorKind::Aggregate {
                head: Lit::pos(vs[4]),
                semantics: Semantics::Ratio,
                groundings: vec![
                    vec![Lit::pos(vs[0]), Lit::neg(vs[3])],
                    vec![Lit::pos(vs[2])],
                    vec![Lit::neg(vs[1]), Lit::pos(e)],
                ],
            },
        ));
        b.build()
    }

    fn worlds_to_try(n: usize) -> Vec<World> {
        // A spread of assignments, not exhaustive for big n.
        (0..1usize << n)
            .step_by(1)
            .map(|mask| World::from_values((0..n).map(|v| mask >> v & 1 == 1).collect()))
            .collect()
    }

    #[test]
    fn log_weight_matches_factor_graph_on_all_worlds() {
        let g = zoo();
        let flat = g.compile();
        for world in worlds_to_try(g.num_variables()) {
            let dense = g.log_weight(&world);
            let packed = flat.log_weight(&world);
            assert!(
                (dense - packed).abs() < 1e-12,
                "world {:?}: {dense} vs {packed}",
                world.to_vec()
            );
        }
    }

    #[test]
    fn energy_delta_matches_factor_graph_for_every_variable_and_world() {
        let g = zoo();
        let flat = g.compile();
        for world in worlds_to_try(g.num_variables()) {
            for v in 0..g.num_variables() {
                let mut scratch = world.clone();
                let legacy = g.energy_delta(v, &mut scratch);
                let fast = flat.energy_delta(v, &world);
                assert!(
                    (legacy - fast).abs() < 1e-9,
                    "var {v} world {:?}: legacy {legacy} vs flat {fast}",
                    world.to_vec()
                );
            }
        }
    }

    #[test]
    fn energy_delta_does_not_mutate_the_world() {
        let g = zoo();
        let flat = g.compile();
        let world = g.initial_world();
        let before = world.clone();
        let _ = flat.energy_delta(0, &world);
        assert_eq!(world, before);
    }

    #[test]
    fn feature_values_and_weight_ids_match() {
        let g = zoo();
        let flat = g.compile();
        let world = World::from_values(vec![true, false, true, true, false, true]);
        for (f, factor) in g.factors().iter().enumerate() {
            let flat_factor = &flat.factors[f];
            assert_eq!(flat_factor.weight_id as WeightId, factor.weight_id);
            let phi = flat.feature_pair(flat_factor, NO_VAR, &world).0;
            assert!((phi - factor.feature_value(&world)).abs() < 1e-12);
        }
    }

    #[test]
    fn accumulate_feature_counts_matches_per_factor_sum() {
        let g = zoo();
        let flat = g.compile();
        let world = World::from_values(vec![true, true, false, true, true, true]);
        let mut totals = vec![0.0; g.num_weights()];
        flat.accumulate_feature_counts(&world, &mut totals);
        let mut expected = vec![0.0; g.num_weights()];
        for factor in g.factors() {
            expected[factor.weight_id] += factor.feature_value(&world);
        }
        for (a, b) in totals.iter().zip(expected.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn csr_adjacency_matches_jagged_adjacency() {
        let g = zoo();
        let flat = g.compile();
        for v in 0..g.num_variables() {
            let csr: Vec<usize> = flat.factors_of(v).iter().map(|&f| f as usize).collect();
            assert_eq!(csr, g.factors_of(v).to_vec(), "adjacency of {v}");
        }
    }

    #[test]
    fn refresh_weights_tracks_learning_updates() {
        let g = zoo();
        let mut g2 = g.clone();
        let mut flat = g.compile();
        g2.set_weight_value(0, 5.5);
        g2.set_weight_value(2, -0.25);
        flat.refresh_weights(&g2);
        let world = g.initial_world();
        assert!((flat.log_weight(&world) - g2.log_weight(&world)).abs() < 1e-12);
        for v in 0..g.num_variables() {
            let mut scratch = world.clone();
            assert!((flat.energy_delta(v, &world) - g2.energy_delta(v, &mut scratch)).abs() < 1e-9);
        }
    }

    #[test]
    fn conditional_p_true_matches_sigmoid_of_energy_delta() {
        let g = zoo();
        let flat = g.compile();
        for world in worlds_to_try(g.num_variables()) {
            for v in 0..g.num_variables() {
                let expected = sigmoid(flat.energy_delta(v, &world));
                let got = flat.conditional_p_true(v, &world);
                assert!(
                    (expected - got).abs() < 1e-15,
                    "var {v}: {expected} vs {got}"
                );
            }
        }
    }

    #[test]
    fn prior_only_variables_get_constant_folded_conditionals() {
        // A logistic-regression-shaped graph: every conditional is static.
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(3);
        let w = b.tied_weight("w", 1.5, false);
        for &v in &vs {
            b.add_factor(Factor::is_true(w, v));
        }
        let mut g = b.build();
        let mut flat = g.compile();
        let expected = sigmoid(1.5);
        let world = flat.initial_world();
        for &v in &vs {
            assert!((flat.conditional_p_true(v, &world) - expected).abs() < 1e-15);
        }
        // Folding must track weight updates through refresh_weights.
        g.set_weight_value(0, -2.0);
        flat.refresh_weights(&g);
        let expected = sigmoid(-2.0);
        for &v in &vs {
            assert!((flat.conditional_p_true(v, &world) - expected).abs() < 1e-15);
        }
    }

    #[test]
    fn coupled_variables_are_not_constant_folded() {
        // v0 -- v1 equality: both conditionals depend on the other's value.
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(2);
        let w = b.tied_weight("eq", 2.0, false);
        b.add_factor(Factor::equal(w, vs[0], vs[1]));
        let g = b.build();
        let flat = g.compile();
        let mut world = flat.initial_world();
        let p_with_false = flat.conditional_p_true(0, &world);
        world.set(1, true);
        let p_with_true = flat.conditional_p_true(0, &world);
        assert!((p_with_false - sigmoid(-2.0)).abs() < 1e-15);
        assert!((p_with_true - sigmoid(2.0)).abs() < 1e-15);
    }

    #[test]
    fn query_variables_split_into_static_and_coupled() {
        // q0: prior only; q1 -- q2 coupled; q3: no factor at all; q4 shares a
        // factor with evidence (still coupled: the split is structural);
        // e2 has only a prior of its own but is not a query variable.
        let mut b = FactorGraphBuilder::new();
        let q = b.add_query_variables(5);
        let e = b.add_evidence_variable(true);
        let e2 = b.add_evidence_variable(false);
        let w = b.tied_weight("w", 0.9, false);
        b.add_factor(Factor::is_true(w, q[0]));
        b.add_factor(Factor::is_true(w, q[0]));
        b.add_factor(Factor::equal(w, q[1], q[2]));
        b.add_factor(Factor::imply(w, &[e], q[4]));
        b.add_factor(Factor::is_true(w, e2));
        let mut g = b.build();
        let mut flat = g.compile();
        assert_eq!(flat.static_query_variables(), &[q[0], q[3]]);
        assert_eq!(flat.coupled_query_variables(), &[q[1], q[2], q[4]]);
        assert_eq!(flat.static_p_true(q[0]), Some(sigmoid(1.8)));
        assert_eq!(flat.static_p_true(q[3]), Some(0.5));
        assert_eq!(flat.static_p_true(q[1]), None);
        assert_eq!(flat.static_p_true(e), None);
        assert_eq!(flat.static_p_true(e2), Some(sigmoid(0.9)));
        for &v in flat.static_query_variables() {
            assert!((flat.static_p_true(v).unwrap() - g.exact_marginal(v)).abs() < 1e-12);
        }
        // Weights move the probabilities, never the split.
        g.set_weight_value(0, -0.4);
        flat.refresh_weights(&g);
        assert_eq!(flat.static_query_variables(), &[q[0], q[3]]);
        assert_eq!(flat.static_p_true(q[0]), Some(sigmoid(-0.8)));
    }

    #[test]
    fn query_and_evidence_metadata_survive_compilation() {
        let g = zoo();
        let flat = g.compile();
        assert_eq!(flat.query_variables(), g.query_variables().as_slice());
        assert_eq!(flat.num_variables(), g.num_variables());
        assert_eq!(flat.num_factors(), g.num_factors());
        assert_eq!(flat.num_weights(), g.num_weights());
        assert!(flat.is_evidence(5));
        assert!(!flat.is_evidence(0));
        assert_eq!(flat.initial_world(), g.initial_world());
    }
}
