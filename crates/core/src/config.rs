//! Engine configuration.

use dd_inference::{GibbsOptions, LearnOptions, VariationalOptions};

/// Query-variable count at which hogwild inference starts paying for its
/// dispatch overhead (measured with `bench_sweeps`: the 65-variable fig9
/// graph loses, the 4000-variable fig5 graph wins).
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 2048;

/// Configuration of a [`crate::DeepDive`] engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Gibbs options for full (Rerun) inference.
    pub gibbs: GibbsOptions,
    /// Learning options for the initial run and for Rerun (cold start).
    pub learn: LearnOptions,
    /// Number of samples stored by the sampling materialization (`S_M`).
    pub materialization_samples: usize,
    /// Number of chain steps requested at incremental-inference time (`S_I`).
    pub inference_samples: usize,
    /// Options for the variational materialization (Algorithm 1).
    pub variational: VariationalOptions,
    /// Probability threshold above which a fact is emitted into the output KB
    /// (the paper uses `p > 0.9` / `p > 0.95` in different places).
    pub fact_threshold: f64,
    /// Random seed shared by the engine's samplers.
    pub seed: u64,
    /// Size of the engine's persistent worker pool.  `None` (the default)
    /// shares the process-global pool, sized to the machine; `Some(n)` gives
    /// this engine a dedicated pool of parallelism `n` (`Some(1)` forces all
    /// inference sequential).
    pub num_threads: Option<usize>,
    /// Minimum number of variables a sampler sweeps — the *coupled* query
    /// variables for full Gibbs inference, every query variable for
    /// learning-gradient estimation — before it switches from the sequential
    /// sampler to hogwild sweeps on the worker pool.  Small graphs stay
    /// sequential: a single chain mixes faster than an under-utilized
    /// parallel dispatch, and sequential runs are bit-deterministic per seed.
    pub parallel_threshold: usize,
    /// When true, an Incremental update that the stored materialization
    /// cannot serve — never materialized, samples exhausted with the
    /// variational fallback stale, or the variational strategy chosen while
    /// stale — returns [`crate::EngineError::StaleMaterialization`] exactly
    /// where the non-strict engine would silently fall back to full Gibbs
    /// sampling.  A serving deployment usually wants to re-materialize on its
    /// own schedule ([`crate::DeepDive::materialize`] +
    /// [`crate::DeepDive::refresh`]) rather than absorb an unbounded latency
    /// spike mid-update.  Defaults to false (paper behavior).
    pub strict_incremental: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            gibbs: GibbsOptions::new(300, 60, 7),
            learn: LearnOptions {
                epochs: 20,
                sweeps_per_epoch: 3,
                ..Default::default()
            },
            materialization_samples: 1500,
            inference_samples: 800,
            variational: VariationalOptions::default(),
            fact_threshold: 0.9,
            seed: 7,
            num_threads: None,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            strict_incremental: false,
        }
    }
}

impl EngineConfig {
    /// A configuration scaled for fast unit tests: smaller sample counts, fewer
    /// epochs.  Experiments use [`EngineConfig::default`] or their own settings.
    pub fn fast() -> Self {
        EngineConfig {
            gibbs: GibbsOptions::new(240, 40, 7),
            learn: LearnOptions {
                epochs: 12,
                sweeps_per_epoch: 4,
                learning_rate: 0.2,
                ..Default::default()
            },
            materialization_samples: 400,
            inference_samples: 300,
            variational: VariationalOptions {
                num_samples: 200,
                burn_in: 40,
                ..Default::default()
            },
            fact_threshold: 0.9,
            seed: 7,
            num_threads: None,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            strict_incremental: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = EngineConfig::default();
        assert!(c.materialization_samples > c.inference_samples);
        assert!(c.fact_threshold > 0.5 && c.fact_threshold < 1.0);
    }

    #[test]
    fn fast_config_is_smaller() {
        let fast = EngineConfig::fast();
        let full = EngineConfig::default();
        assert!(fast.materialization_samples < full.materialization_samples);
        assert!(fast.learn.epochs < full.learn.epochs);
    }
}
