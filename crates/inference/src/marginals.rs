//! Marginal probability vectors, distances, and calibration.

/// Marginal probabilities, one per variable of a factor graph.
///
/// This is the output of inference: "the marginal probability of every tuple in
/// the database" (paper §1).  The comparison helpers implement the fact-level
/// similarity measures of §4.2 ("99 % of high-confidence facts also appear …
/// at most 4 % of facts differ by more than 0.05 in probability").
#[derive(Debug, Clone, PartialEq)]
pub struct Marginals {
    values: Vec<f64>,
}

impl Marginals {
    /// Wrap a vector of probabilities.
    pub fn from_values(values: Vec<f64>) -> Self {
        Marginals { values }
    }

    /// All-zero marginals over `n` variables.
    pub fn zeros(n: usize) -> Self {
        Marginals {
            values: vec![0.0; n],
        }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Probability of variable `v`.
    pub fn get(&self, v: usize) -> f64 {
        self.values[v]
    }

    /// Set the probability of variable `v`.
    pub fn set(&mut self, v: usize, p: f64) {
        self.values[v] = p;
    }

    /// The underlying slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Largest absolute difference to another marginal vector (compared on the
    /// shared prefix, so graphs that grew by ΔV can still be compared).
    pub fn max_abs_diff(&self, other: &Marginals) -> f64 {
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Mean absolute difference on the shared prefix.
    pub fn mean_abs_diff(&self, other: &Marginals) -> f64 {
        let n = self.values.len().min(other.values.len());
        if n == 0 {
            return 0.0;
        }
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / n as f64
    }

    /// Fraction of variables whose probabilities differ by more than `eps`.
    pub fn fraction_differing(&self, other: &Marginals, eps: f64) -> f64 {
        let n = self.values.len().min(other.values.len());
        if n == 0 {
            return 0.0;
        }
        let d = self
            .values
            .iter()
            .zip(other.values.iter())
            .filter(|(a, b)| (*a - *b).abs() > eps)
            .count();
        d as f64 / n as f64
    }

    /// Of the variables with probability above `threshold` in `self`, the
    /// fraction that are also above `threshold` in `other` (the "99 % of
    /// high-confidence facts also appear" comparison of §4.2).
    pub fn high_confidence_overlap(&self, other: &Marginals, threshold: f64) -> f64 {
        let high: Vec<usize> = self
            .values
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > threshold)
            .map(|(i, _)| i)
            .collect();
        if high.is_empty() {
            return 1.0;
        }
        let kept = high
            .iter()
            .filter(|&&i| other.values.get(i).copied().unwrap_or(0.0) > threshold)
            .count();
        kept as f64 / high.len() as f64
    }

    /// Average per-variable symmetric KL divergence between the Bernoulli
    /// distributions described by the two marginal vectors.  Used by the λ-search
    /// protocol for the variational approach (§3.2.3).
    pub fn mean_symmetric_kl(&self, other: &Marginals) -> f64 {
        let n = self.values.len().min(other.values.len());
        if n == 0 {
            return 0.0;
        }
        let eps = 1e-6;
        let clamp = |p: f64| p.clamp(eps, 1.0 - eps);
        let kl = |p: f64, q: f64| {
            let (p, q) = (clamp(p), clamp(q));
            p * (p / q).ln() + (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln()
        };
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(&a, &b)| 0.5 * (kl(a, b) + kl(b, a)))
            .sum::<f64>()
            / n as f64
    }
}

/// One calibration bucket: predicted-probability range vs empirical accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationBucket {
    pub low: f64,
    pub high: f64,
    pub count: usize,
    /// Fraction of facts in this bucket that are actually true.
    pub accuracy: f64,
}

/// Compute calibration buckets: DeepDive "produces marginal probabilities that
/// are calibrated: if one examined all facts with probability 0.9, we would
/// expect that approximately 90 % of these facts would be correct" (§1).
pub fn calibration_buckets(
    marginals: &Marginals,
    truth: &[bool],
    num_buckets: usize,
) -> Vec<CalibrationBucket> {
    assert!(num_buckets > 0);
    let mut counts = vec![0usize; num_buckets];
    let mut correct = vec![0usize; num_buckets];
    for (i, &p) in marginals.values().iter().enumerate() {
        if i >= truth.len() {
            break;
        }
        let b = ((p * num_buckets as f64) as usize).min(num_buckets - 1);
        counts[b] += 1;
        if truth[i] {
            correct[b] += 1;
        }
    }
    (0..num_buckets)
        .map(|b| CalibrationBucket {
            low: b as f64 / num_buckets as f64,
            high: (b + 1) as f64 / num_buckets as f64,
            count: counts[b],
            accuracy: if counts[b] == 0 {
                0.0
            } else {
                correct[b] as f64 / counts[b] as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let mut m = Marginals::zeros(3);
        assert_eq!(m.len(), 3);
        m.set(1, 0.7);
        assert_eq!(m.get(1), 0.7);
        assert_eq!(m.values(), &[0.0, 0.7, 0.0]);
    }

    #[test]
    fn diff_metrics() {
        let a = Marginals::from_values(vec![0.9, 0.5, 0.1]);
        let b = Marginals::from_values(vec![0.88, 0.5, 0.4]);
        assert!((a.max_abs_diff(&b) - 0.3).abs() < 1e-12);
        assert!((a.mean_abs_diff(&b) - (0.02 + 0.0 + 0.3) / 3.0).abs() < 1e-12);
        assert!((a.fraction_differing(&b, 0.05) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.fraction_differing(&b, 0.5), 0.0);
    }

    #[test]
    fn high_confidence_overlap() {
        let a = Marginals::from_values(vec![0.95, 0.92, 0.2, 0.97]);
        let b = Marginals::from_values(vec![0.96, 0.4, 0.91, 0.99]);
        // a's high-confidence facts: {0, 1, 3}; of those, b keeps {0, 3}
        assert!((a.high_confidence_overlap(&b, 0.9) - 2.0 / 3.0).abs() < 1e-12);
        // no high-confidence facts -> vacuously 1.0
        let none = Marginals::from_values(vec![0.1, 0.2]);
        assert_eq!(none.high_confidence_overlap(&b, 0.9), 1.0);
    }

    #[test]
    fn symmetric_kl_is_zero_on_identical_and_positive_otherwise() {
        let a = Marginals::from_values(vec![0.3, 0.8]);
        assert!(a.mean_symmetric_kl(&a) < 1e-12);
        let b = Marginals::from_values(vec![0.7, 0.2]);
        assert!(a.mean_symmetric_kl(&b) > 0.1);
    }

    #[test]
    fn calibration_perfectly_calibrated_input() {
        // probabilities 0.05..0.95, truth assigned to match the probability
        let probs: Vec<f64> = (0..1000).map(|i| (i % 100) as f64 / 100.0).collect();
        let truth: Vec<bool> = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| (i * 7 % 100) as f64 / 100.0 < p)
            .collect();
        let m = Marginals::from_values(probs);
        let buckets = calibration_buckets(&m, &truth, 10);
        assert_eq!(buckets.len(), 10);
        // the top bucket should be much more accurate than the bottom bucket
        assert!(buckets[9].accuracy > buckets[0].accuracy + 0.5);
        let total: usize = buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn calibration_handles_empty_buckets() {
        let m = Marginals::from_values(vec![0.95, 0.96]);
        let buckets = calibration_buckets(&m, &[true, false], 10);
        assert_eq!(buckets[0].count, 0);
        assert_eq!(buckets[0].accuracy, 0.0);
        assert_eq!(buckets[9].count, 2);
        assert!((buckets[9].accuracy - 0.5).abs() < 1e-12);
    }
}
