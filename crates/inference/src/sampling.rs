//! The sampling materialization strategy with independent Metropolis–Hastings
//! incremental inference (paper §3.2.2).
//!
//! *Materialization phase*: draw possible worlds from the original distribution
//! with Gibbs sampling and store them as bit-packed tuple bundles (after MCDB).
//!
//! *Inference phase*: the stored samples are proposals for an independent
//! Metropolis–Hastings chain targeting the updated distribution `Pr(Δ)`.  The
//! acceptance test only needs the changed factors (ΔF), the changed weights, and
//! the new evidence — "we may fetch many fewer factors than in the original
//! graph, but we still converge to the correct answer."  The fraction of accepted
//! proposals is the *acceptance rate*, the key performance parameter of the
//! approach (Figure 5b); when the stored samples are exhausted, the caller is
//! told so it can fall back to the variational approach or to fresh Gibbs
//! sampling (the optimizer rule of §3.3).

use crate::change::DistributionChange;
use crate::gibbs::{GibbsSampler, SampleSet};
use crate::marginals::Marginals;
use dd_factorgraph::{FactorGraph, FlatGraph, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of an incremental MH inference run.
#[derive(Debug, Clone)]
pub struct MhOutcome {
    /// Marginal estimates under the updated distribution.
    pub marginals: Marginals,
    /// Fraction of proposals accepted.
    pub acceptance_rate: f64,
    /// Number of stored samples consumed.
    pub proposals_used: usize,
    /// True if the run stopped because the stored samples were exhausted before
    /// the requested number of inference samples was reached.
    pub exhausted: bool,
}

/// The sampling materialization: stored tuple bundles.
#[derive(Debug, Clone)]
pub struct SampleMaterialization {
    samples: SampleSet,
}

impl SampleMaterialization {
    /// Store `samples`, worlds drawn from the original graph by
    /// [`GibbsSampler::draw_samples`] (the engine shares one Gibbs run
    /// between the sampling and variational materializations).
    pub fn from_samples(samples: SampleSet) -> Self {
        SampleMaterialization { samples }
    }

    /// Number of stored samples.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// The stored tuple bundles (checkpoint codec access).
    pub fn samples(&self) -> &SampleSet {
        &self.samples
    }

    /// Approximate storage size in bytes (1 bit per variable per sample).
    pub fn storage_bytes(&self) -> usize {
        self.samples.storage_bytes()
    }

    /// Marginals of the original distribution, straight from the stored samples.
    pub fn original_marginals(&self) -> Marginals {
        self.samples.marginals()
    }

    /// Run independent Metropolis–Hastings against the updated distribution.
    ///
    /// * `updated` — the factor graph *after* the change.
    /// * `change`  — the [`DistributionChange`] describing ΔF / weight / evidence
    ///   changes, written by whoever changed the graph.
    /// * `inference_samples` — number of chain steps requested (`S_I`).
    ///
    /// Each chain step consumes one stored proposal; if the store runs out the
    /// outcome is flagged `exhausted` and the marginals reflect the steps taken
    /// so far.
    ///
    /// A step allocates nothing: the change is resolved against the updated
    /// graph once ([`DistributionChange::resolve`]), proposals are read as
    /// borrowed rows of the sample arena into one reusable world, and the
    /// chain's state is added to the marginal counts once per *stay* —
    /// `steps spent in the state × its bits` when the chain leaves it —
    /// instead of once per step.
    pub fn infer(
        &self,
        updated: &FactorGraph,
        change: &DistributionChange,
        inference_samples: usize,
        seed: u64,
    ) -> MhOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_vars = updated.num_variables();

        if self.samples.is_empty() {
            return MhOutcome {
                marginals: Marginals::zeros(total_vars),
                acceptance_rate: 0.0,
                proposals_used: 0,
                exhausted: true,
            };
        }

        let resolved = change.resolve(updated);
        // Proposal extension Gibbs-samples the new variables; compile the
        // updated graph once here instead of once per stored proposal.
        let flat = (!change.new_variables.is_empty()).then(|| updated.compile());
        let mut proposals = ProposalStage::new(self, flat.as_ref(), updated, change);

        // Proposals are consumed in a shuffled order.  Consecutive Gibbs sweeps
        // are autocorrelated; the independence-sampler analysis (and therefore
        // the chain's stationary distribution) requires each proposal to be
        // independent of the current state, which the shuffle restores while
        // keeping the "each stored sample is used at most once" exhaustion
        // semantics.
        let mut order: Vec<usize> = (0..self.samples.len()).collect();
        shuffle(&mut order, &mut rng);

        // The initial state: the first stored sample consistent with any new
        // evidence.  Repairing a sample (instead of rejecting it) would distort
        // the conditional distribution of the variables correlated with the
        // evidence, so consistency is found by scanning, and only if *no* stored
        // sample is consistent do we repair one as a last resort.
        let mut next_proposal = 0usize;
        let mut found: Option<f64> = None;
        while next_proposal < order.len() {
            let cand = proposals.load(order[next_proposal], seed);
            next_proposal += 1;
            let d = resolved.delta_log_weight(cand);
            if d > f64::NEG_INFINITY {
                found = Some(d);
                break;
            }
        }
        let mut current_delta = match found {
            Some(d) => d,
            None => {
                let c = proposals.load(order[0], seed);
                for &(v, val) in &change.new_evidence {
                    c.set(v, val);
                }
                let d = resolved.delta_log_weight(c);
                if d == f64::NEG_INFINITY {
                    0.0
                } else {
                    d
                }
            }
        };
        // The chain's state, and the steps it has been counted for so far.
        let mut current = proposals.take();
        let mut stay = 0usize;

        let mut counts = vec![0usize; total_vars];
        let mut accepted = 0usize;
        let mut steps = 0usize;
        let mut exhausted = false;
        for _ in 0..inference_samples {
            if next_proposal >= order.len() {
                exhausted = true;
                break;
            }
            let proposal = proposals.load(order[next_proposal], seed ^ 0x9e37);
            next_proposal += 1;
            steps += 1;

            let proposal_delta = resolved.delta_log_weight(proposal);
            // Independence sampler acceptance: the Pr(0) terms cancel, leaving
            // exp(ΔW(I') − ΔW(I)).
            let log_alpha = proposal_delta - current_delta;
            if log_alpha >= 0.0 || rng.gen::<f64>() < log_alpha.exp() {
                add_weighted(&mut counts, &current, stay);
                proposals.swap(&mut current);
                stay = 0;
                current_delta = proposal_delta;
                accepted += 1;
            }
            stay += 1;
        }
        add_weighted(&mut counts, &current, stay);

        let denom = steps.max(1) as f64;
        MhOutcome {
            marginals: Marginals::from_values(
                counts.into_iter().map(|c| c as f64 / denom).collect(),
            ),
            acceptance_rate: if steps == 0 {
                0.0
            } else {
                accepted as f64 / steps as f64
            },
            proposals_used: next_proposal,
            exhausted,
        }
    }
}

/// `counts[v] += times` for every variable `v` true in `world` (variables
/// beyond `counts` are not counted).
fn add_weighted(counts: &mut [usize], world: &World, times: usize) {
    if times == 0 {
        return;
    }
    for (word_index, &word) in world.as_words().iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let v = word_index * 64 + bits.trailing_zeros() as usize;
            if let Some(count) = counts.get_mut(v) {
                *count += times;
            }
            bits &= bits - 1;
        }
    }
}

/// Turns stored samples into proposals over the updated graph, one at a time,
/// in one reusable world: new variables (ΔV) get values by Gibbs-sampling
/// them conditioned on the stored part, everything else the stored sample
/// does not cover starts from the updated graph's initial world.
struct ProposalStage<'a> {
    samples: &'a SampleSet,
    /// The updated graph's initial world.
    init: World,
    /// Restricted sampler over the non-evidence new variables (its world is
    /// the staged proposal); `None` when the change adds none.
    sampler: Option<GibbsSampler<'a>>,
    /// The staged proposal when there is no sampler to hold it.
    world: World,
}

impl<'a> ProposalStage<'a> {
    /// `flat` is the compiled updated graph, present exactly when the change
    /// introduces new variables.
    fn new(
        materialization: &'a SampleMaterialization,
        flat: Option<&'a FlatGraph>,
        updated: &FactorGraph,
        change: &DistributionChange,
    ) -> Self {
        let samples = &materialization.samples;
        let mut init = updated.initial_world();
        if init.len() < samples.num_vars() {
            // A stored sample never covers more than the graph it extends
            // to; keep every stored bit addressable if a caller breaks that.
            init = World::all_false(samples.num_vars());
        }
        let sampler = flat.and_then(|flat| {
            // A few restricted Gibbs sweeps over only the new variables.
            let free: Vec<usize> = change
                .new_variables
                .iter()
                .copied()
                .filter(|&v| !flat.is_evidence(v))
                .collect();
            (!free.is_empty() && flat.num_variables() == init.len())
                .then(|| GibbsSampler::from_flat(flat, 0).with_free_vars(free))
        });
        ProposalStage {
            samples,
            world: init.clone(),
            init,
            sampler,
        }
    }

    fn staged(&mut self) -> &mut World {
        match &mut self.sampler {
            Some(sampler) => sampler.world_mut(),
            None => &mut self.world,
        }
    }

    /// Stage stored sample `i` extended to the updated graph.
    fn load(&mut self, i: usize, seed: u64) -> &mut World {
        let row = self.samples.row(i);
        let num_stored = self.samples.num_vars();
        match &mut self.sampler {
            Some(sampler) => {
                sampler
                    .world_mut()
                    .assign_prefix_and_rest(row.words(), num_stored, &self.init);
                sampler.reseed(seed.wrapping_add(i as u64));
                for _ in 0..3 {
                    sampler.sweep();
                }
            }
            None => self
                .world
                .assign_prefix_and_rest(row.words(), num_stored, &self.init),
        }
        self.staged()
    }

    /// Move the staged proposal out (the stage keeps a world to reuse).
    fn take(&mut self) -> World {
        let mut out = self.init.clone();
        self.swap(&mut out);
        out
    }

    /// Exchange the staged proposal with `other`.
    fn swap(&mut self, other: &mut World) {
        std::mem::swap(self.staged(), other);
    }
}

/// Fisher–Yates shuffle (kept local to avoid pulling in rand's slice extension
/// trait just for this).
fn shuffle(indices: &mut [usize], rng: &mut StdRng) {
    for i in (1..indices.len()).rev() {
        let j = rng.gen_range(0..=i);
        indices.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder, Variable, VariableRole, Weight};

    fn graph(prior: f64) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(4);
        let wp = b.tied_weight("prior", prior, false);
        let wc = b.tied_weight("couple", 0.7, false);
        b.add_factor(Factor::is_true(wp, vs[0]));
        b.add_factor(Factor::is_true(wp, vs[2]));
        b.add_factor(Factor::equal(wc, vs[0], vs[1]));
        b.add_factor(Factor::equal(wc, vs[2], vs[3]));
        b.build()
    }

    fn materialize(g: &FactorGraph, n: usize) -> SampleMaterialization {
        SampleMaterialization::from_samples(GibbsSampler::new(g, 13).draw_samples(n, 200))
    }

    #[test]
    fn identity_update_has_full_acceptance() {
        let g0 = graph(0.5);
        let mat = materialize(&g0, 800);
        let g = g0.clone();
        let change = DistributionChange::default();
        let out = mat.infer(&g, &change, 500, 3);
        assert!(!out.exhausted);
        assert_eq!(out.acceptance_rate, 1.0);
        // Marginals close to the exact ones of the (unchanged) distribution.
        for v in 0..4 {
            assert!((out.marginals.get(v) - g.exact_marginal(v)).abs() < 0.08);
        }
    }

    #[test]
    fn weight_change_lowers_acceptance_but_stays_accurate() {
        let g0 = graph(0.5);
        let mat = materialize(&g0, 3000);
        let mut g = g0.clone();
        g.set_weight_value(0, 1.8);
        let change = DistributionChange {
            changed_weights: vec![(0, 0.5)],
            ..Default::default()
        };
        let out = mat.infer(&g, &change, 2500, 5);
        assert!(out.acceptance_rate < 1.0);
        assert!(out.acceptance_rate > 0.05);
        for v in 0..4 {
            assert!(
                (out.marginals.get(v) - g.exact_marginal(v)).abs() < 0.1,
                "var {v}: {} vs {}",
                out.marginals.get(v),
                g.exact_marginal(v)
            );
        }
    }

    #[test]
    fn larger_change_means_lower_acceptance() {
        let g0 = graph(0.0);
        let mat = materialize(&g0, 2000);
        let mut acc = Vec::new();
        for &new_w in &[0.2, 1.0, 3.0] {
            let mut g = g0.clone();
            g.set_weight_value(0, new_w);
            let change = DistributionChange {
                changed_weights: vec![(0, 0.0)],
                ..Default::default()
            };
            let out = mat.infer(&g, &change, 1500, 11);
            acc.push(out.acceptance_rate);
        }
        assert!(acc[0] > acc[1]);
        assert!(acc[1] > acc[2]);
    }

    #[test]
    fn new_variable_and_factor_are_handled() {
        let g0 = graph(0.3);
        let mat = materialize(&g0, 2000);
        let mut g = g0.clone();
        let v = g.add_variable(Variable::query(0));
        let w = g.add_weight(Weight::learnable(0, 1.2, "new"));
        let f = g.add_factor(Factor::equal(w, 0, v));
        let change = DistributionChange {
            new_variables: vec![v],
            new_factors: vec![f],
            ..Default::default()
        };
        let out = mat.infer(&g, &change, 1500, 17);
        assert_eq!(out.marginals.len(), 5);
        for v in 0..5 {
            assert!(
                (out.marginals.get(v) - g.exact_marginal(v)).abs() < 0.12,
                "var {v}: {} vs {}",
                out.marginals.get(v),
                g.exact_marginal(v)
            );
        }
    }

    #[test]
    fn evidence_change_pins_variable() {
        let g0 = graph(0.0);
        let mat = materialize(&g0, 1500);
        let mut g = g0.clone();
        let var = g.variable_mut(0);
        var.role = VariableRole::PositiveEvidence;
        var.initial_value = true;
        let change = DistributionChange {
            new_evidence: vec![(0, true)],
            ..Default::default()
        };
        let out = mat.infer(&g, &change, 1000, 23);
        assert_eq!(out.marginals.get(0), 1.0);
        // variable 1 is coupled to 0, so its marginal should rise above 0.5
        assert!(out.marginals.get(1) > 0.55);
    }

    #[test]
    fn exhaustion_is_reported() {
        let g0 = graph(0.1);
        let mat = materialize(&g0, 50);
        let change = DistributionChange::default();
        let out = mat.infer(&g0, &change, 500, 1);
        assert!(out.exhausted);
        assert!(out.proposals_used <= 50);
    }

    #[test]
    fn empty_materialization_is_immediately_exhausted() {
        let g0 = graph(0.1);
        let mat = SampleMaterialization::from_samples(SampleSet::new(g0.num_variables()));
        let change = DistributionChange::default();
        let out = mat.infer(&g0, &change, 10, 1);
        assert!(out.exhausted);
        assert_eq!(out.proposals_used, 0);
    }

    #[test]
    fn storage_is_one_bit_per_variable() {
        let g0 = graph(0.1);
        let mat = materialize(&g0, 100);
        // 4 variables -> 1 byte per sample
        assert_eq!(mat.storage_bytes(), 100);
        assert_eq!(mat.num_samples(), 100);
    }
}
