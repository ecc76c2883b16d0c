//! The combined materialization of §3.3.
//!
//! "We propose to materialize the factor graph using both the sampling approach
//! and the variational approach, and defer the decision to the inference phase."
//! Both strategies need Gibbs samples from the original distribution — "this is
//! the dominant cost during materialization" — so the engine draws one sample set
//! and feeds it to both.  While it is in service, both read one description of
//! what changed since: `Materialized::change`.

use crate::config::EngineConfig;
use dd_factorgraph::{FactorGraph, FlatGraph};
use dd_inference::{
    DistributionChange, GibbsSampler, SampleMaterialization, SampleSet, VariationalMaterialization,
};
use std::time::Instant;

/// Everything stored by the materialization phase.
#[derive(Debug, Clone)]
pub struct Materialization {
    pub sampling: SampleMaterialization,
    pub variational: VariationalMaterialization,
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
        let samples = GibbsSampler::from_flat(flat, config.seed)
            .draw_samples(config.materialization_samples, burn_in(config));
        Self::from_sample_set(graph, samples, config)
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
        Self::from_sample_set(graph, samples, config)
    }

    /// Both strategies from one drawn sample set: the variational
    /// approximation reads the rows in place, then the sampling strategy
    /// takes the set over as its proposal store.
    fn from_sample_set(graph: &FactorGraph, samples: SampleSet, config: &EngineConfig) -> Self {
        let variational =
            VariationalMaterialization::from_samples(graph, &samples, &config.variational);
        Materialization {
            sampling: SampleMaterialization::from_samples(samples),
            variational,
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

/// A [`Materialization`] in an engine's service: when it was taken and how
/// far the graph has moved from it since.  The engine holds one of these or
/// nothing, so the accumulated change cannot outlive (or grow without) the
/// stored samples and approximation it is a correction for.
#[derive(Debug, Clone)]
pub(crate) struct Materialized {
    pub materialization: Materialization,
    /// Engine epoch at which it was taken.
    pub epoch: u64,
    /// The distribution change accumulated since, against the current graph:
    /// successive rounds all reuse the same materialization, so both
    /// strategies must correct for everything since it was taken, not just
    /// the last round.  The graph only grows meanwhile (a retraction drops
    /// the materialization), so its ids keep their meaning.
    pub change: DistributionChange,
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
            assert!(budgeted.sampling.num_samples() >= 1);
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
        assert!(small.sampling.num_samples() >= 1);
        assert!(large.sampling.num_samples() >= small.sampling.num_samples());
        assert!(large.sample_storage_bytes() >= small.sample_storage_bytes());
    }
}
