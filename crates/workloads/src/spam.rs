//! The concept-drift e-mail stream of Appendix B.4 (Figure 17).
//!
//! The paper follows Katakis et al.: 9,324 chronologically ordered e-mails,
//! predict spam vs ham, train on the first 10 % / 30 % and test on the remaining
//! 70 %.  Concept drift means the distribution generating the e-mails changes
//! over time.  The synthetic stream reproduces that setup: spam e-mails draw
//! their features from a spam vocabulary that *rotates* part-way through the
//! stream, so a model trained on the 10 % prefix is partially stale for the
//! 30 % prefix and the 70 % test suffix.

use dd_factorgraph::{Factor, FactorGraph, FactorGraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Parameters of the synthetic e-mail stream.
#[derive(Debug, Clone)]
pub struct SpamConfig {
    /// Number of e-mails (the paper's dataset has 9,324; default is scaled down).
    pub num_emails: usize,
    /// Number of features (tokens) per e-mail.
    pub features_per_email: usize,
    /// Size of each vocabulary partition.
    pub vocabulary: usize,
    /// Position (fraction of the stream) at which the spam vocabulary rotates.
    pub drift_point: f64,
    /// Probability an e-mail is spam.
    pub spam_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SpamConfig {
    fn default() -> Self {
        SpamConfig {
            num_emails: 900,
            features_per_email: 4,
            vocabulary: 30,
            drift_point: 0.2,
            spam_rate: 0.5,
            seed: 23,
        }
    }
}

/// One e-mail: its features (token strings) and its label.
#[derive(Debug, Clone)]
pub struct Email {
    pub features: Vec<String>,
    pub spam: bool,
}

/// The generated chronological stream.
#[derive(Debug, Clone)]
pub struct SpamStream {
    pub emails: Vec<Email>,
    pub config: SpamConfig,
}

/// Generate the stream.
pub fn spam_stream(config: SpamConfig) -> SpamStream {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let drift_at = (config.num_emails as f64 * config.drift_point) as usize;
    let mut emails = Vec::with_capacity(config.num_emails);
    for i in 0..config.num_emails {
        let spam = rng.gen::<f64>() < config.spam_rate;
        let drifted = i >= drift_at;
        let mut features = Vec::with_capacity(config.features_per_email);
        for _ in 0..config.features_per_email {
            let token = rng.gen_range(0..config.vocabulary);
            let feature = match (spam, drifted) {
                // Before the drift spam uses the "spamA" vocabulary; after, half
                // of its tokens come from a new "spamB" vocabulary instead.
                (true, false) => format!("spamA_{token}"),
                (true, true) => {
                    if rng.gen::<bool>() {
                        format!("spamB_{token}")
                    } else {
                        format!("spamA_{token}")
                    }
                }
                (false, _) => format!("ham_{token}"),
            };
            features.push(feature);
        }
        emails.push(Email { features, spam });
    }
    SpamStream { emails, config }
}

impl SpamStream {
    /// Number of e-mails.
    pub fn len(&self) -> usize {
        self.emails.len()
    }

    /// True if the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.emails.is_empty()
    }

    /// Build the logistic-regression factor graph (Example 2.6:
    /// `Class(x) :- R(x, f) weight = w(f)`) over the e-mails in `range`, using
    /// their labels as evidence.  Returns the graph plus the feature→weight map.
    pub fn build_training_graph(
        &self,
        range: std::ops::Range<usize>,
    ) -> (FactorGraph, HashMap<String, usize>) {
        let mut b = FactorGraphBuilder::new();
        let mut weight_of: HashMap<String, usize> = HashMap::new();
        for email in &self.emails[range] {
            let v = b.add_evidence_variable(email.spam);
            for f in &email.features {
                let w = b.tied_weight(f, 0.0, false);
                weight_of.insert(f.clone(), w);
                b.add_factor(Factor::is_true(w, v));
            }
        }
        (b.build(), weight_of)
    }

    /// Average logistic loss of a feature-weight model over the e-mails in
    /// `range` — the "test set loss" axis of Figure 17.
    pub fn test_loss(
        &self,
        range: std::ops::Range<usize>,
        weight_of: &HashMap<String, usize>,
        weights: &[f64],
    ) -> f64 {
        let emails = &self.emails[range];
        if emails.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for email in emails {
            let score: f64 = email
                .features
                .iter()
                .filter_map(|f| weight_of.get(f).and_then(|&w| weights.get(w)))
                .sum();
            let p_spam = 1.0 / (1.0 + (-score).exp());
            let p = if email.spam { p_spam } else { 1.0 - p_spam };
            total -= p.max(1e-12).ln();
        }
        total / emails.len() as f64
    }

    /// Index marking the first `fraction` of the stream.
    pub fn prefix(&self, fraction: f64) -> usize {
        ((self.emails.len() as f64) * fraction).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_inference::{LearnOptions, Learner};

    #[test]
    fn stream_has_requested_shape() {
        let s = spam_stream(SpamConfig {
            num_emails: 200,
            ..Default::default()
        });
        assert_eq!(s.len(), 200);
        assert!(!s.is_empty());
        let spam_count = s.emails.iter().filter(|e| e.spam).count();
        assert!(spam_count > 50 && spam_count < 150);
        assert_eq!(s.prefix(0.1), 20);
    }

    #[test]
    fn drift_changes_the_spam_vocabulary() {
        let s = spam_stream(SpamConfig {
            num_emails: 400,
            drift_point: 0.5,
            ..Default::default()
        });
        let early_has_b = s.emails[..200]
            .iter()
            .any(|e| e.features.iter().any(|f| f.starts_with("spamB_")));
        let late_has_b = s.emails[200..]
            .iter()
            .any(|e| e.features.iter().any(|f| f.starts_with("spamB_")));
        assert!(!early_has_b);
        assert!(late_has_b);
    }

    #[test]
    fn training_on_prefix_reduces_test_loss() {
        let s = spam_stream(SpamConfig {
            num_emails: 300,
            ..Default::default()
        });
        let train_end = s.prefix(0.3);
        let (mut graph, weight_of) = s.build_training_graph(0..train_end);
        let untrained_loss = s.test_loss(train_end..s.len(), &weight_of, &graph.weight_values());
        Learner::new(&mut graph).learn(
            &LearnOptions {
                epochs: 25,
                learning_rate: 0.3,
                sweeps_per_epoch: 2,
                ..Default::default()
            },
            7,
        );
        let trained_loss = s.test_loss(train_end..s.len(), &weight_of, &graph.weight_values());
        assert!(
            trained_loss < untrained_loss,
            "trained {trained_loss} should beat untrained {untrained_loss}"
        );
    }
}
