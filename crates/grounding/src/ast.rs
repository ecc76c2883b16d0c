//! The rule AST of the DeepDive language.

use dd_factorgraph::Semantics;
use dd_relstore::ConjunctiveQuery;
use dd_relstore::{Filter, QueryAtom, Term};

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
    pub(crate) fn head_vars(&self) -> Vec<String> {
        self.head
            .terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) => Some(v.clone()),
                Term::Const(_) => None,
            })
            .collect()
    }

    /// All variables needed to evaluate this rule's body query: the head
    /// variables plus any variables the weight UDF needs.
    pub(crate) fn projection_vars(&self) -> Vec<String> {
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
    pub(crate) fn body_query(&self) -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            format!("{}::body", self.name),
            self.projection_vars(),
            self.body.clone(),
        )
        .with_filters(self.filters.clone())
    }

    /// The relations read by the body.
    pub(crate) fn body_relations(&self) -> Vec<&str> {
        self.body.iter().map(|a| a.relation.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::Term;

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
    fn head_vars_and_body_relations() {
        let r = r1();
        assert_eq!(r.head_vars(), vec!["m1", "m2"]);
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
