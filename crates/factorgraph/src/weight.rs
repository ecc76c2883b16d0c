//! Tied, learnable factor weights.

/// Index of a weight in its [`crate::FactorGraph`].
pub type WeightId = usize;

/// A factor weight.
///
/// Weight *tying* (paper §2.3) means many factors share one weight: the rule
/// `MarriedMentions(m1,m2) :- … weight = phrase(m1,m2,sent)` creates one weight
/// per distinct phrase, shared by every mention pair exhibiting that phrase.  The
/// `description` carries the tying key (e.g. `"FE1:and his wife"`) so learned
/// weights can be inspected during error analysis and reused across program
/// snapshots (warmstart, Appendix B.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Weight {
    pub id: WeightId,
    /// Current value (log-linear weight).
    pub value: f64,
    /// Fixed weights are not updated by learning (e.g. hard supervision priors).
    pub fixed: bool,
    /// Human-readable tying key, `"<rule>:<feature>"`.
    pub description: String,
}

impl Weight {
    /// A learnable weight starting at `value`.
    pub fn learnable(id: WeightId, value: f64, description: impl Into<String>) -> Self {
        Weight {
            id,
            value,
            fixed: false,
            description: description.into(),
        }
    }

    /// A fixed weight (never updated by learning).
    pub fn fixed(id: WeightId, value: f64, description: impl Into<String>) -> Self {
        Weight {
            id,
            value,
            fixed: true,
            description: description.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let w = Weight::learnable(0, 0.5, "FE1:and his wife");
        assert!(!w.fixed);
        assert_eq!(w.value, 0.5);
        assert_eq!(w.description, "FE1:and his wife");

        let f = Weight::fixed(1, -2.0, "prior");
        assert!(f.fixed);
        assert_eq!(f.value, -2.0);
    }
}
