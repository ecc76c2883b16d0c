//! Boolean random variables of the factor graph.

use std::sync::{Arc, OnceLock};

/// An interned relation name: cloning is a reference-count bump, comparing
/// two handles of the same interning is a pointer check, and ordering is the
/// name's — so ordered collections keyed by it iterate exactly as they did
/// when keyed by `String`.  Names are plain strings only at the edges
/// (parser, durability codec, wire, snapshot API).
pub type RelName = Arc<str>;

/// The shared empty relation name of variables without an origin.
fn no_relation() -> RelName {
    static EMPTY: OnceLock<RelName> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from("")).clone()
}

/// Index of a variable in its [`crate::FactorGraph`].
pub type VarId = usize;

/// Whether a variable is part of the evidence or is to be inferred.
///
/// Paper §2.4: "V has two parts: a set E of evidence variables (those fixed to a
/// specific value) and a set Q of query variables whose value the system will
/// infer", with evidence further split into positive and negative evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariableRole {
    /// Value is inferred by sampling.
    Query,
    /// Fixed to `true` (positive evidence).
    PositiveEvidence,
    /// Fixed to `false` (negative evidence).
    NegativeEvidence,
}

impl VariableRole {
    /// The fixed value, if this role is evidence.
    pub fn fixed_value(self) -> Option<bool> {
        match self {
            VariableRole::Query => None,
            VariableRole::PositiveEvidence => Some(true),
            VariableRole::NegativeEvidence => Some(false),
        }
    }

    /// True if the variable is evidence of either polarity.
    pub(crate) fn is_evidence(self) -> bool {
        !matches!(self, VariableRole::Query)
    }
}

/// A Boolean random variable.
///
/// In the KBC setting each variable corresponds to one tuple of the user schema
/// (e.g. one `MarriedMentions(m1, m2)` candidate).  The `relation`/`key` pair is
/// carried along so marginal probabilities can be written back to the right
/// tuples after inference, and so incremental grounding can find the variable for
/// a changed tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    pub id: VarId,
    pub role: VariableRole,
    /// Initial value used when a sampler needs a starting world.
    pub initial_value: bool,
    /// Name of the user relation this variable's tuple belongs to (may be empty
    /// for synthetic graphs).
    pub relation: RelName,
    /// Opaque key identifying the tuple within its relation.
    pub key: u64,
}

impl Variable {
    /// A fresh query variable.
    pub fn query(id: VarId) -> Self {
        Variable {
            id,
            role: VariableRole::Query,
            initial_value: false,
            relation: no_relation(),
            key: id as u64,
        }
    }

    /// A fresh evidence variable fixed to `value`.
    pub fn evidence(id: VarId, value: bool) -> Self {
        Variable {
            id,
            role: if value {
                VariableRole::PositiveEvidence
            } else {
                VariableRole::NegativeEvidence
            },
            initial_value: value,
            relation: no_relation(),
            key: id as u64,
        }
    }

    /// Attach a relation name and key (builder style).  Passing an existing
    /// [`RelName`] handle shares it; a `&str` interns a fresh one.
    pub fn with_origin(mut self, relation: impl Into<RelName>, key: u64) -> Self {
        self.relation = relation.into();
        self.key = key;
        self
    }

    /// True if the variable is evidence.
    pub fn is_evidence(&self) -> bool {
        self.role.is_evidence()
    }

    /// The value the variable is fixed to, if evidence.
    pub fn fixed_value(&self) -> Option<bool> {
        self.role.fixed_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles() {
        assert_eq!(VariableRole::Query.fixed_value(), None);
        assert_eq!(VariableRole::PositiveEvidence.fixed_value(), Some(true));
        assert_eq!(VariableRole::NegativeEvidence.fixed_value(), Some(false));
        assert!(!VariableRole::Query.is_evidence());
        assert!(VariableRole::PositiveEvidence.is_evidence());
    }

    #[test]
    fn constructors() {
        let q = Variable::query(3);
        assert_eq!(q.id, 3);
        assert!(!q.is_evidence());

        let e = Variable::evidence(4, true);
        assert!(e.is_evidence());
        assert_eq!(e.fixed_value(), Some(true));
        assert!(e.initial_value);

        let n = Variable::evidence(5, false);
        assert_eq!(n.fixed_value(), Some(false));
    }

    #[test]
    fn builders() {
        let v = Variable::query(0).with_origin("MarriedMentions", 42);
        assert_eq!(&*v.relation, "MarriedMentions");
        assert_eq!(v.key, 42);
    }
}
