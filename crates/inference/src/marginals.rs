//! Marginal probability vectors and distances between them.

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
}
