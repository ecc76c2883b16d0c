//! The combined materialization of §3.3.
//!
//! "We propose to materialize the factor graph using both the sampling approach
//! and the variational approach, and defer the decision to the inference phase."
//! Both strategies need Gibbs samples from the original distribution — "this is
//! the dominant cost during materialization" — so the engine draws one sample set
//! and feeds it to both.  The strawman (complete enumeration) is also retained
//! for graphs small enough to afford it, mirroring its role as the exactness
//! anchor of the tradeoff study.

use crate::config::EngineConfig;
use dd_factorgraph::{FactorGraph, FlatGraph, GraphDelta};
use dd_inference::{
    DistributionChange, GibbsSampler, SampleMaterialization, SampleSet, StrawmanMaterialization,
    VariationalMaterialization,
};
use std::time::Instant;

/// Everything stored by the materialization phase.
#[derive(Debug, Clone)]
pub struct Materialization {
    pub sampling: SampleMaterialization,
    pub variational: VariationalMaterialization,
    /// Present only when the graph has few enough query variables to enumerate.
    pub strawman: Option<StrawmanMaterialization>,
    /// Weight values at materialization time (the warmstart model).
    pub weights: Vec<f64>,
    /// Wall-clock seconds spent materializing.  In-memory only: checkpoints
    /// record `0`, so their bytes are a pure function of the engine's inputs.
    pub seconds: f64,
    /// Number of samples drawn.
    pub num_samples: usize,
}

impl Materialization {
    /// Materialize both strategies from one Gibbs run over `graph`.
    pub fn build(graph: &FactorGraph, config: &EngineConfig) -> Self {
        Self::build_on(&graph.compile(), graph, config)
    }

    /// [`Materialization::build`] on a compilation of `graph` the caller
    /// already holds (the engine's learner and full-Gibbs inference compile
    /// the same graph just before).
    pub fn build_on(flat: &FlatGraph, graph: &FactorGraph, config: &EngineConfig) -> Self {
        let start = Instant::now();
        let samples = GibbsSampler::from_flat(flat, config.seed)
            .draw_samples(config.materialization_samples, burn_in(config));
        Self::from_sample_set(graph, samples, config, start)
    }

    /// Materialize as many samples as possible within a wall-clock budget — the
    /// "best-effort approach: it generates as many samples as possible when idle
    /// or within a user-specified time interval" (§3.3), measured by Figure 15.
    pub fn build_with_budget(
        graph: &FactorGraph,
        config: &EngineConfig,
        budget_seconds: f64,
    ) -> Self {
        let start = Instant::now();
        let flat = graph.compile();
        let samples = GibbsSampler::from_flat(&flat, config.seed)
            .draw_samples_while(burn_in(config), |_| {
                start.elapsed().as_secs_f64() < budget_seconds
            });
        Self::from_sample_set(graph, samples, config, start)
    }

    /// Both strategies (and the strawman, where affordable) from one drawn
    /// sample set: the variational approximation reads the rows in place,
    /// then the sampling strategy takes the set over as its proposal store.
    fn from_sample_set(
        graph: &FactorGraph,
        samples: SampleSet,
        config: &EngineConfig,
        start: Instant,
    ) -> Self {
        let num_samples = samples.len();
        let variational =
            VariationalMaterialization::from_samples(graph, &samples, &config.variational);
        let sampling = SampleMaterialization::from_samples(samples, graph.num_variables());
        let strawman = StrawmanMaterialization::materialize(graph);
        Materialization {
            sampling,
            variational,
            strawman,
            weights: graph.weight_values(),
            seconds: start.elapsed().as_secs_f64(),
            num_samples,
        }
    }

    /// Total storage used by the stored samples, in bytes.
    pub fn sample_storage_bytes(&self) -> usize {
        self.sampling.storage_bytes()
    }
}

/// Burn-in of the materialization chain.  One Gibbs run feeds both
/// strategies, so it discards the longer of their two burn-ins.
fn burn_in(config: &EngineConfig) -> usize {
    config.gibbs.burn_in.max(config.variational.burn_in)
}

/// A [`Materialization`] in an engine's service: when it was taken, what it
/// covers, and how far the graph has moved from it since.  The engine holds
/// one of these or nothing, so the accumulated change cannot outlive (or
/// grow without) the stored samples it is a correction for.
#[derive(Debug, Clone)]
pub(crate) struct Materialized {
    pub materialization: Materialization,
    /// Engine epoch at which it was taken.
    pub epoch: u64,
    /// `(num_variables, num_weights)` of the *full* graph when it was taken.
    /// (The approximate graph carries its own unary/pairwise weight space, so
    /// its counts say nothing about the model's.)
    pub coverage: (usize, usize),
    /// The distribution change accumulated since: successive rounds all reuse
    /// the same stored samples, so the MH acceptance test must compare
    /// against the *materialized* distribution, not just the previous
    /// round's.
    pub change: DistributionChange,
}

impl Materialized {
    /// Whether the variational strategy can serve an update that took the
    /// full graph from `pre_update` `(variables, weights)` through `delta`.
    ///
    /// It infers over (a clone of) the *materialized* approximate graph plus
    /// the delta.  Two conditions: the materialization must still cover the
    /// full pre-update graph (if an earlier update grew the graph past it —
    /// e.g. one served by sampling — the result would span the wrong id space
    /// and the newer facts would vanish from the snapshot), and the delta's
    /// entity references must be in-bounds for the *approximate* graph it is
    /// applied to.  The sampling strategy has no such limit: it extends its
    /// stored proposals over new entities against the current full graph.
    pub fn variational_serves(&self, delta: &GraphDelta, pre_update: (usize, usize)) -> bool {
        let approx = self.materialization.variational.approx_graph();
        self.coverage == pre_update
            && delta.refers_within(approx.num_variables(), approx.num_weights())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_factorgraph::{Factor, FactorGraphBuilder};

    fn graph(n: usize) -> FactorGraph {
        let mut b = FactorGraphBuilder::new();
        let vs = b.add_query_variables(n);
        let w = b.tied_weight("w", 0.5, false);
        for i in 1..n {
            b.add_factor(Factor::equal(w, vs[i - 1], vs[i]));
        }
        b.build()
    }

    #[test]
    fn builds_both_strategies_from_one_sample_run() {
        let g = graph(6);
        let config = EngineConfig::fast();
        let m = Materialization::build(&g, &config);
        assert_eq!(m.sampling.num_samples(), config.materialization_samples);
        assert_eq!(m.variational.approx_graph().num_variables(), 6);
        assert!(m.strawman.is_some());
        assert_eq!(m.weights.len(), 1);
        assert!(m.seconds >= 0.0);
    }

    #[test]
    fn strawman_absent_for_large_graphs() {
        let g = graph(40);
        let m = Materialization::build(&g, &EngineConfig::fast());
        assert!(m.strawman.is_none());
    }

    #[test]
    fn budgeted_and_counted_builds_burn_in_identically() {
        // One burn-in rule: the first sample either path stores is the same
        // world of the same chain, even when the two configured burn-ins
        // differ in either direction.
        let g = graph(10);
        for (gibbs_burn_in, variational_burn_in) in [(5, 40), (40, 5)] {
            let mut config = EngineConfig::fast();
            config.gibbs.burn_in = gibbs_burn_in;
            config.variational.burn_in = variational_burn_in;
            let counted = Materialization::build(&g, &config);
            let budgeted = Materialization::build_with_budget(&g, &config, 0.02);
            assert!(budgeted.num_samples >= 1);
            assert_eq!(
                counted.sampling.samples().row(0),
                budgeted.sampling.samples().row(0)
            );
            // ... and that world is 40 burn-in sweeps + 1 into the chain.
            let flat = g.compile();
            let mut chain = GibbsSampler::from_flat(&flat, config.seed);
            for _ in 0..41 {
                chain.sweep();
            }
            assert_eq!(
                counted.sampling.samples().row(0).words(),
                chain.world().as_words()
            );
        }
    }

    #[test]
    fn budgeted_materialization_scales_with_budget() {
        let g = graph(10);
        let config = EngineConfig::fast();
        let small = Materialization::build_with_budget(&g, &config, 0.02);
        let large = Materialization::build_with_budget(&g, &config, 0.1);
        assert!(small.num_samples >= 1);
        assert!(large.num_samples >= small.num_samples);
        assert!(large.sample_storage_bytes() >= small.sample_storage_bytes());
    }
}
