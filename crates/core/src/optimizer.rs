//! The rule-based strategy optimizer of paper §3.3.
//!
//! "We propose to materialize the factor graph using both the sampling approach
//! and the variational approach, and defer the decision to the inference phase
//! when we can observe the workload."  The rules:
//!
//! 1. if an update does not change the structure of the graph → sampling;
//! 2. if an update modifies the evidence → variational;
//! 3. if an update introduces new features → sampling;
//! 4. if we run out of samples → variational.

use dd_inference::DistributionChange;

/// The materialization strategy selected for one update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyChoice {
    /// Reuse stored samples with the Metropolis–Hastings acceptance test.
    Sampling,
    /// Run Gibbs on the (updated) sparse approximate factor graph.
    Variational,
}

impl StrategyChoice {
    /// Label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            StrategyChoice::Sampling => "sampling",
            StrategyChoice::Variational => "variational",
        }
    }
}

/// Apply the §3.3 rules to a described distribution change.
///
/// `samples_remaining` is the number of unused stored samples; when it is zero
/// rule 4 fires regardless of the change.
pub fn choose_strategy(change: &DistributionChange, samples_remaining: usize) -> StrategyChoice {
    // Rule 4 (no samples left) and rule 2 (evidence modified: the acceptance
    // rate collapses) are the two ways to variational; rule 2 wins over new
    // features arriving in the same update.
    if samples_remaining == 0 || !change.new_evidence.is_empty() {
        return StrategyChoice::Variational;
    }
    // Rules 1 and 3: the structure is unchanged (highest acceptance rate),
    // or the change is new features.
    StrategyChoice::Sampling
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_inference::DistributionChange;

    fn empty() -> DistributionChange {
        DistributionChange::default()
    }

    #[test]
    fn no_structure_change_prefers_sampling() {
        // e.g. the error-analysis rule A1 or a pure weight re-estimate
        let mut c = empty();
        c.changed_weights = vec![(0, 0.5)];
        assert_eq!(choose_strategy(&c, 100), StrategyChoice::Sampling);
        assert_eq!(choose_strategy(&empty(), 100), StrategyChoice::Sampling);
    }

    #[test]
    fn evidence_change_prefers_variational() {
        let mut c = empty();
        c.new_evidence = vec![(3, true)];
        assert_eq!(choose_strategy(&c, 100), StrategyChoice::Variational);
    }

    #[test]
    fn new_features_prefer_sampling() {
        let mut c = empty();
        c.new_factors = vec![10, 11];
        c.new_variables = vec![5];
        assert_eq!(choose_strategy(&c, 100), StrategyChoice::Sampling);
    }

    #[test]
    fn exhausted_samples_force_variational() {
        let mut c = empty();
        c.new_factors = vec![10];
        assert_eq!(choose_strategy(&c, 0), StrategyChoice::Variational);
        assert_eq!(choose_strategy(&empty(), 0), StrategyChoice::Variational);
    }

    #[test]
    fn evidence_beats_new_features() {
        // An update that both adds features and modifies evidence (e.g. a new
        // distant-supervision rule) is routed to the variational approach.
        let mut c = empty();
        c.new_factors = vec![1];
        c.new_evidence = vec![(0, false)];
        assert_eq!(choose_strategy(&c, 100), StrategyChoice::Variational);
        assert_eq!(StrategyChoice::Sampling.label(), "sampling");
        assert_eq!(StrategyChoice::Variational.label(), "variational");
    }
}
