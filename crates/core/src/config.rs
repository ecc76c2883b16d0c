//! Engine configuration.

use dd_inference::{GibbsOptions, LearnOptions, VariationalOptions};

/// Configuration of a [`crate::DeepDive`] engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Gibbs options for full (Rerun) inference and for the materialization
    /// chain.
    pub gibbs: GibbsOptions,
    /// Learning options for the initial run and for Rerun; a warm
    /// (Incremental) round learns for half the epochs.
    pub learn: LearnOptions,
    /// Number of samples stored by the sampling materialization (`S_M`).
    pub materialization_samples: usize,
    /// Number of chain steps requested at incremental-inference time (`S_I`).
    pub inference_samples: usize,
    /// Options for the variational materialization (Algorithm 1).  The
    /// approximation is estimated from the one materialization chain's
    /// `materialization_samples` rows.
    pub variational: VariationalOptions,
    /// Probability threshold above which a fact is emitted into the output KB
    /// (the paper uses `p > 0.9` / `p > 0.95` in different places).
    pub fact_threshold: f64,
    /// The engine's one random seed: every sampler and the learner run on
    /// streams of it.
    pub seed: u64,
    /// Has no effect: every engine samples on its calling thread.  The field
    /// is kept so existing configurations still compile; a change that may
    /// edit the benchmark harness (which sets it) removes it.
    pub num_threads: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            gibbs: GibbsOptions::new(300, 60),
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
        }
    }
}

impl EngineConfig {
    /// A configuration scaled for fast unit tests: smaller sample counts, fewer
    /// epochs.  Experiments use [`EngineConfig::default`] or their own settings.
    pub fn fast() -> Self {
        EngineConfig {
            gibbs: GibbsOptions::new(240, 40),
            learn: LearnOptions {
                epochs: 12,
                sweeps_per_epoch: 4,
                learning_rate: 0.2,
                ..Default::default()
            },
            materialization_samples: 400,
            inference_samples: 300,
            variational: VariationalOptions {
                burn_in: 40,
                ..Default::default()
            },
            fact_threshold: 0.9,
            seed: 7,
            num_threads: None,
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
