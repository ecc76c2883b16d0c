//! The transformation-group function `g` of Equation 1 (paper Figure 4).
//!
//! DeepDive extends Markov Logic with *implication semantics*: the weight a rule
//! contributes to a possible world is `w · sign(γ, I) · g(n(γ, I))`, where `n` is
//! the number of satisfied groundings.  Three choices of `g` are supported:
//!
//! | semantics | g(n)        | behaviour                                        |
//! |-----------|-------------|--------------------------------------------------|
//! | Linear    | `n`         | raw counts matter (classic MLN behaviour)         |
//! | Ratio     | `log(1+n)`  | vote *ratios* matter, robust to large raw counts  |
//! | Logical   | `1{n>0}`    | existence matters, strength of evidence ignored   |
//!
//! Example 2.5 (the Voting program) and Appendix A show that the choice changes
//! both output probabilities and Gibbs-sampling mixing time; Figure 10(b) shows
//! it changes end-to-end KBC quality by up to 10 % F1.

/// The three rule semantics supported by DeepDive (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Semantics {
    /// `g(n) = n`
    Linear,
    /// `g(n) = log(1 + n)`
    #[default]
    Ratio,
    /// `g(n) = 1 if n > 0 else 0`
    Logical,
}

impl Semantics {
    /// Evaluate `g(n)`.
    pub fn g(self, n: usize) -> f64 {
        match self {
            Semantics::Linear => n as f64,
            Semantics::Ratio => (1.0 + n as f64).ln(),
            Semantics::Logical => {
                if n > 0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// All three semantics, in the order used by Figure 10(b).
    pub fn all() -> [Semantics; 3] {
        [Semantics::Linear, Semantics::Logical, Semantics::Ratio]
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Semantics::Linear => "Linear",
            Semantics::Ratio => "Ratio",
            Semantics::Logical => "Logical",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_identity_on_counts() {
        for n in 0..10 {
            assert_eq!(Semantics::Linear.g(n), n as f64);
        }
    }

    #[test]
    fn ratio_is_log1p() {
        assert_eq!(Semantics::Ratio.g(0), 0.0);
        assert!((Semantics::Ratio.g(1) - (2.0f64).ln()).abs() < 1e-12);
        assert!((Semantics::Ratio.g(9) - (10.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn logical_is_indicator() {
        assert_eq!(Semantics::Logical.g(0), 0.0);
        assert_eq!(Semantics::Logical.g(1), 1.0);
        assert_eq!(Semantics::Logical.g(1_000_000), 1.0);
    }

    #[test]
    fn monotonicity() {
        for s in Semantics::all() {
            for n in 0..20 {
                assert!(s.g(n + 1) >= s.g(n), "{s:?} not monotone at {n}");
            }
        }
    }

    /// Example 2.5: with |Up| = 10^6 and |Down| = 10^6 - 100, Linear semantics
    /// drives the probability of q to ~1 while Ratio keeps it near 0.5.
    #[test]
    fn voting_example_from_paper() {
        let up = 1_000_000usize;
        let down = up - 100;
        let prob = |s: Semantics| {
            let w = s.g(up) - s.g(down);
            (w).exp() / ((-w).exp() + w.exp())
        };
        assert!(prob(Semantics::Linear) > 0.999);
        assert!((prob(Semantics::Ratio) - 0.5).abs() < 0.01);
        assert!((prob(Semantics::Logical) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn labels() {
        assert_eq!(Semantics::Linear.label(), "Linear");
        assert_eq!(Semantics::Ratio.label(), "Ratio");
        assert_eq!(Semantics::Logical.label(), "Logical");
    }
}
