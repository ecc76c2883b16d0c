//! The rule AST of the DeepDive language.

use dd_factorgraph::Semantics;
use dd_relstore::view::{Filter, QueryAtom, Term};
use dd_relstore::ConjunctiveQuery;

/// The four workload categories the paper's experiments group rules into
/// (Figure 8: A1, FE1/FE2, S1/S2, I1), plus candidate mappings which feed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// SQL-like ETL producing candidate tuples of a derived relation (rule R1).
    CandidateMapping,
    /// Attaches a tied-weight factor to a variable relation (rules FE1, FE2).
    FeatureExtraction,
    /// Labels variables as positive/negative evidence — distant supervision
    /// (rules S1, S2).
    Supervision,
    /// Adds correlations between variable relations (rule I1).
    Inference,
    /// Error-analysis query: reads marginals, changes nothing (rule A1).
    ErrorAnalysis,
}

impl RuleKind {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            RuleKind::CandidateMapping => "candidate",
            RuleKind::FeatureExtraction => "feature",
            RuleKind::Supervision => "supervision",
            RuleKind::Inference => "inference",
            RuleKind::ErrorAnalysis => "analysis",
        }
    }
}

/// One atom of a rule (head or body).
pub type RuleAtom = QueryAtom;

/// How the weight of a rule's factors is determined.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightSpec {
    /// A fixed (non-learnable) weight, e.g. hard constraints.
    Fixed(f64),
    /// One learnable weight shared by every grounding of the rule (classic MLN).
    Learnable { initial: f64 },
    /// Weight tying through a UDF: `weight = udf(arg_vars…)`.  Every grounding
    /// whose UDF output matches shares one learnable weight (paper §2.3).
    Tied { udf: String, args: Vec<String> },
    /// Supervision rules label variables instead of weighting factors; the bool
    /// is the label polarity.
    Label(bool),
    /// Error-analysis rules carry no weight at all.
    None,
}

/// A DeepDive rule: `head :- body [filters] weight = … (kind, semantics)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (e.g. "FE1"); used for weight descriptions and reporting.
    pub name: String,
    pub kind: RuleKind,
    /// The head atom.  Its relation is a derived relation (candidate mappings) or
    /// a variable relation (feature extraction / supervision / inference).
    pub head: RuleAtom,
    /// Body atoms.
    pub body: Vec<RuleAtom>,
    /// Comparison filters over bound variables.
    pub filters: Vec<Filter>,
    pub weight: WeightSpec,
    /// The semantics `g` used when groundings of this rule are aggregated
    /// (paper Figure 4); only meaningful for weighted rules.
    pub semantics: Semantics,
}

impl Rule {
    /// Create a rule with default (Ratio) semantics and no filters.
    pub fn new(
        name: impl Into<String>,
        kind: RuleKind,
        head: RuleAtom,
        body: Vec<RuleAtom>,
        weight: WeightSpec,
    ) -> Self {
        Rule {
            name: name.into(),
            kind,
            head,
            body,
            filters: Vec::new(),
            weight,
            semantics: Semantics::default(),
        }
    }

    /// Builder: add filters.
    pub fn with_filters(mut self, filters: Vec<Filter>) -> Self {
        self.filters = filters;
        self
    }

    /// Builder: set the semantics.
    pub fn with_semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Variables appearing in the head atom.
    pub fn head_vars(&self) -> Vec<String> {
        self.head
            .terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(v.clone()),
                Term::Const(_) => None,
            })
            .collect()
    }

    /// Variables appearing anywhere in the body.
    pub fn body_vars(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for atom in &self.body {
            for t in &atom.terms {
                if let Term::Var(v) = t {
                    if !out.contains(v) {
                        out.push(v.clone());
                    }
                }
            }
        }
        out
    }

    /// All variables needed to evaluate this rule's body query: the head
    /// variables plus any variables the weight UDF needs.
    pub fn projection_vars(&self) -> Vec<String> {
        let mut vars = self.head_vars();
        if let WeightSpec::Tied { args, .. } = &self.weight {
            for a in args {
                if !vars.contains(a) {
                    vars.push(a.clone());
                }
            }
        }
        vars
    }

    /// The body as a [`ConjunctiveQuery`] projecting onto [`Self::projection_vars`].
    pub fn body_query(&self) -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            format!("{}::body", self.name),
            self.projection_vars(),
            self.body.clone(),
        )
        .with_filters(self.filters.clone())
    }

    /// The relations read by the body.
    pub fn body_relations(&self) -> Vec<&str> {
        self.body.iter().map(|a| a.relation.as_str()).collect()
    }

    /// A rule is *hierarchical* (Definition A.3) if its head has no variables or
    /// there is a single variable shared by every body atom.
    pub fn is_hierarchical(&self) -> bool {
        let head_vars = self.head_vars();
        if head_vars.is_empty() {
            return true;
        }
        head_vars.iter().any(|hv| {
            self.body.iter().all(|atom| {
                atom.terms
                    .iter()
                    .any(|t| matches!(t, Term::Var(v) if v == hv))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::view::Term;

    fn atom(rel: &str, vars: &[&str]) -> RuleAtom {
        RuleAtom::new(rel, vars.iter().map(|v| Term::var(*v)).collect())
    }

    /// R1 from the paper: MarriedCandidate(m1,m2) :- PersonCandidate(s,m1), PersonCandidate(s,m2).
    fn r1() -> Rule {
        Rule::new(
            "R1",
            RuleKind::CandidateMapping,
            atom("MarriedCandidate", &["m1", "m2"]),
            vec![
                atom("PersonCandidate", &["s", "m1"]),
                atom("PersonCandidate", &["s", "m2"]),
            ],
            WeightSpec::None,
        )
    }

    /// FE1: MarriedMentions(m1,m2) :- MarriedCandidate(m1,m2), Sentence(s,sent)
    ///       weight = phrase(m1, m2, sent).
    fn fe1() -> Rule {
        Rule::new(
            "FE1",
            RuleKind::FeatureExtraction,
            atom("MarriedMentions", &["m1", "m2"]),
            vec![
                atom("MarriedCandidate", &["m1", "m2"]),
                atom("Sentence", &["s", "sent"]),
            ],
            WeightSpec::Tied {
                udf: "phrase".into(),
                args: vec!["m1".into(), "m2".into(), "sent".into()],
            },
        )
    }

    #[test]
    fn head_and_body_vars() {
        let r = r1();
        assert_eq!(r.head_vars(), vec!["m1", "m2"]);
        assert_eq!(r.body_vars(), vec!["s", "m1", "m2"]);
        assert_eq!(
            r.body_relations(),
            vec!["PersonCandidate", "PersonCandidate"]
        );
    }

    #[test]
    fn projection_includes_udf_args() {
        let r = fe1();
        let vars = r.projection_vars();
        assert!(vars.contains(&"m1".to_string()));
        assert!(vars.contains(&"m2".to_string()));
        assert!(vars.contains(&"sent".to_string()));
        let q = r.body_query();
        assert_eq!(q.head_vars, vars);
        assert_eq!(q.atoms.len(), 2);
    }

    #[test]
    fn hierarchical_check() {
        // r1 is not hierarchical: no single variable appears in both body atoms
        // *and* the head… actually `m1` is in the head and only in the first atom,
        // while `s` spans both atoms but is not needed; per Definition A.3 we need
        // one head variable present in every body atom, which fails here.
        assert!(!r1().is_hierarchical());

        // A classifier rule Class(x) :- R(x, f) is hierarchical.
        let classifier = Rule::new(
            "C",
            RuleKind::FeatureExtraction,
            atom("Class", &["x"]),
            vec![atom("R", &["x", "f"])],
            WeightSpec::Tied {
                udf: "identity".into(),
                args: vec!["f".into()],
            },
        );
        assert!(classifier.is_hierarchical());

        // A boolean rule q() :- Up(x) is trivially hierarchical.
        let voting = Rule::new(
            "V",
            RuleKind::Inference,
            RuleAtom::new("q", vec![]),
            vec![atom("Up", &["x"])],
            WeightSpec::Learnable { initial: 1.0 },
        );
        assert!(voting.is_hierarchical());
    }

    #[test]
    fn builders_and_labels() {
        let r = r1()
            .with_filters(vec![Filter::Lt("m1".into(), "m2".into())])
            .with_semantics(Semantics::Logical);
        assert_eq!(r.filters.len(), 1);
        assert_eq!(r.semantics, Semantics::Logical);
        assert_eq!(RuleKind::FeatureExtraction.label(), "feature");
        assert_eq!(RuleKind::ErrorAnalysis.label(), "analysis");
    }
}
