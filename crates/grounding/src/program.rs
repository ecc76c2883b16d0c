//! Programs: relation declarations plus rules, with stratification helpers.

use crate::ast::{Rule, RuleKind};
use crate::error::ProgramError;
use dd_relstore::{Database, Schema};
use std::collections::{HashMap, HashSet};

/// How a relation participates in the probabilistic model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationRole {
    /// Loaded data (documents, sentences, existing KBs, entity linking, …).
    Base,
    /// Populated by candidate-mapping rules; deterministic, not a random variable.
    Derived,
    /// Every tuple is a Boolean random variable whose marginal is inferred
    /// (e.g. `MarriedMentions`).
    Variable,
}

/// Declaration of one relation: name, schema, role.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationDecl {
    pub name: String,
    pub schema: Schema,
    pub role: RelationRole,
}

impl RelationDecl {
    pub fn new(name: impl Into<String>, schema: Schema, role: RelationRole) -> Self {
        RelationDecl {
            name: name.into(),
            schema,
            role,
        }
    }
}

/// A DeepDive program: declarations plus rules, in execution order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    pub relations: Vec<RelationDecl>,
    pub rules: Vec<Rule>,
}

impl Program {
    pub fn new() -> Self {
        Program::default()
    }

    /// Add a relation declaration (builder style).
    pub fn declare(mut self, decl: RelationDecl) -> Self {
        self.relations.push(decl);
        self
    }

    /// Add a rule (builder style).
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Look up a relation declaration by name.
    pub(crate) fn relation(&self, name: &str) -> Option<&RelationDecl> {
        self.relations.iter().find(|r| r.name == name)
    }

    /// The role of a relation, defaulting to `Base` for undeclared names.
    pub(crate) fn role_of(&self, name: &str) -> RelationRole {
        self.relation(name)
            .map(|r| r.role)
            .unwrap_or(RelationRole::Base)
    }

    /// Rules of a given kind, in program order.
    pub(crate) fn rules_of_kind(&self, kind: RuleKind) -> Vec<&Rule> {
        self.rules.iter().filter(|r| r.kind == kind).collect()
    }

    /// Create every declared relation in a database (derived and variable
    /// relations start empty; base relations are expected to be loaded by the
    /// caller).
    pub fn create_schema(&self, db: &mut Database) {
        for decl in &self.relations {
            if !db.has_table(&decl.name) {
                db.create_or_replace_table(&decl.name, decl.schema.clone());
            }
        }
    }

    /// Candidate-mapping rules ordered so that a rule producing relation `R`
    /// comes before any rule reading `R` (topological order of the derived-
    /// relation dependency graph).  Returns `None` if the dependencies are
    /// cyclic (the program cannot be stratified).
    pub(crate) fn stratified_candidate_rules(&self) -> Option<Vec<&Rule>> {
        let candidates: Vec<&Rule> = self.rules_of_kind(RuleKind::CandidateMapping);
        // Map: derived relation -> indices of rules producing it.
        let mut producers: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, r) in candidates.iter().enumerate() {
            producers
                .entry(r.head.relation.as_str())
                .or_default()
                .push(i);
        }
        // Edges: rule i -> rule j if j reads i's head relation.
        let n = candidates.len();
        let mut in_degree = vec![0usize; n];
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (j, r) in candidates.iter().enumerate() {
            for rel in r.body_relations() {
                if let Some(prods) = producers.get(rel) {
                    for &i in prods {
                        if i != j {
                            edges[i].push(j);
                            in_degree[j] += 1;
                        }
                    }
                }
            }
        }
        // Kahn's algorithm.
        let mut queue: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(candidates[i]);
            for &j in &edges[i] {
                in_degree[j] -= 1;
                if in_degree[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Structural validation: every relation referenced by a rule is declared,
    /// weighted rules head into variable relations, and the candidate-mapping
    /// rules can be stratified.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let declared: HashSet<&str> = self.relations.iter().map(|r| r.name.as_str()).collect();
        for rule in &self.rules {
            if rule.kind != RuleKind::ErrorAnalysis
                && !declared.contains(rule.head.relation.as_str())
            {
                return Err(ProgramError::UndeclaredHead {
                    rule: rule.name.clone(),
                    relation: rule.head.relation.clone(),
                });
            }
            for rel in rule.body_relations() {
                if !declared.contains(rel) {
                    return Err(ProgramError::UndeclaredBody {
                        rule: rule.name.clone(),
                        relation: rel.to_string(),
                    });
                }
            }
            match rule.kind {
                RuleKind::FeatureExtraction | RuleKind::Supervision | RuleKind::Inference => {
                    if self.role_of(&rule.head.relation) != RelationRole::Variable {
                        return Err(ProgramError::NonVariableHead {
                            rule: rule.name.clone(),
                            kind: rule.kind,
                            relation: rule.head.relation.clone(),
                            role: self.role_of(&rule.head.relation),
                        });
                    }
                }
                RuleKind::CandidateMapping => {
                    if self.role_of(&rule.head.relation) == RelationRole::Base {
                        return Err(ProgramError::CandidateHeadIsBase {
                            rule: rule.name.clone(),
                            relation: rule.head.relation.clone(),
                        });
                    }
                }
                RuleKind::ErrorAnalysis => {}
            }
        }
        if self.stratified_candidate_rules().is_none() {
            return Err(ProgramError::CyclicCandidateRules);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{RuleAtom, WeightSpec};
    use dd_relstore::DataType;
    use dd_relstore::Term;

    fn atom(rel: &str, vars: &[&str]) -> RuleAtom {
        RuleAtom::new(rel, vars.iter().map(|v| Term::var(*v)).collect())
    }

    fn spouse_program() -> Program {
        Program::new()
            .declare(RelationDecl::new(
                "PersonCandidate",
                Schema::of(&[("s", DataType::Int), ("m", DataType::Int)]),
                RelationRole::Base,
            ))
            .declare(RelationDecl::new(
                "Sentence",
                Schema::of(&[("s", DataType::Int), ("sent", DataType::Text)]),
                RelationRole::Base,
            ))
            .declare(RelationDecl::new(
                "MarriedCandidate",
                Schema::of(&[("m1", DataType::Int), ("m2", DataType::Int)]),
                RelationRole::Derived,
            ))
            .declare(RelationDecl::new(
                "MarriedMentions",
                Schema::of(&[("m1", DataType::Int), ("m2", DataType::Int)]),
                RelationRole::Variable,
            ))
            .rule(Rule::new(
                "R1",
                RuleKind::CandidateMapping,
                atom("MarriedCandidate", &["m1", "m2"]),
                vec![
                    atom("PersonCandidate", &["s", "m1"]),
                    atom("PersonCandidate", &["s", "m2"]),
                ],
                WeightSpec::None,
            ))
            .rule(Rule::new(
                "FE1",
                RuleKind::FeatureExtraction,
                atom("MarriedMentions", &["m1", "m2"]),
                vec![atom("MarriedCandidate", &["m1", "m2"])],
                WeightSpec::Learnable { initial: 0.0 },
            ))
    }

    #[test]
    fn roles_and_lookup() {
        let p = spouse_program();
        assert_eq!(p.role_of("PersonCandidate"), RelationRole::Base);
        assert_eq!(p.role_of("MarriedCandidate"), RelationRole::Derived);
        assert_eq!(p.role_of("MarriedMentions"), RelationRole::Variable);
        assert_eq!(p.role_of("Unknown"), RelationRole::Base);
        assert_eq!(p.rules_of_kind(RuleKind::CandidateMapping).len(), 1);
    }

    #[test]
    fn validation_passes_and_catches_errors() {
        let p = spouse_program();
        assert!(p.validate().is_ok());

        // Feature rule heading into a derived relation is rejected.
        let bad = spouse_program().rule(Rule::new(
            "BAD",
            RuleKind::FeatureExtraction,
            atom("MarriedCandidate", &["m1", "m2"]),
            vec![atom("PersonCandidate", &["s", "m1"])],
            WeightSpec::Learnable { initial: 0.0 },
        ));
        assert!(bad.validate().is_err());

        // Undeclared relation is rejected.
        let bad2 = spouse_program().rule(Rule::new(
            "BAD2",
            RuleKind::CandidateMapping,
            atom("MarriedCandidate", &["m1", "m2"]),
            vec![atom("Nowhere", &["m1", "m2"])],
            WeightSpec::None,
        ));
        assert!(bad2.validate().is_err());
    }

    #[test]
    fn create_schema_builds_tables() {
        let p = spouse_program();
        let mut db = Database::new();
        p.create_schema(&mut db);
        assert!(db.has_table("PersonCandidate"));
        assert!(db.has_table("MarriedMentions"));
    }

    #[test]
    fn stratification_orders_dependent_rules() {
        // Two candidate rules where the second depends on the first, declared in
        // the "wrong" order.
        let p = Program::new()
            .declare(RelationDecl::new(
                "A",
                Schema::of(&[("x", DataType::Int)]),
                RelationRole::Base,
            ))
            .declare(RelationDecl::new(
                "B",
                Schema::of(&[("x", DataType::Int)]),
                RelationRole::Derived,
            ))
            .declare(RelationDecl::new(
                "C",
                Schema::of(&[("x", DataType::Int)]),
                RelationRole::Derived,
            ))
            .rule(Rule::new(
                "make_c",
                RuleKind::CandidateMapping,
                atom("C", &["x"]),
                vec![atom("B", &["x"])],
                WeightSpec::None,
            ))
            .rule(Rule::new(
                "make_b",
                RuleKind::CandidateMapping,
                atom("B", &["x"]),
                vec![atom("A", &["x"])],
                WeightSpec::None,
            ));
        let order = p.stratified_candidate_rules().unwrap();
        assert_eq!(order[0].name, "make_b");
        assert_eq!(order[1].name, "make_c");
    }

    #[test]
    fn cyclic_candidate_rules_cannot_be_stratified() {
        let p = Program::new()
            .declare(RelationDecl::new(
                "B",
                Schema::of(&[("x", DataType::Int)]),
                RelationRole::Derived,
            ))
            .declare(RelationDecl::new(
                "C",
                Schema::of(&[("x", DataType::Int)]),
                RelationRole::Derived,
            ))
            .rule(Rule::new(
                "b_from_c",
                RuleKind::CandidateMapping,
                atom("B", &["x"]),
                vec![atom("C", &["x"])],
                WeightSpec::None,
            ))
            .rule(Rule::new(
                "c_from_b",
                RuleKind::CandidateMapping,
                atom("C", &["x"]),
                vec![atom("B", &["x"])],
                WeightSpec::None,
            ));
        assert!(p.stratified_candidate_rules().is_none());
        assert_eq!(p.validate(), Err(ProgramError::CyclicCandidateRules));
    }

    #[test]
    fn validation_errors_are_typed() {
        let bad = spouse_program().rule(Rule::new(
            "BAD2",
            RuleKind::CandidateMapping,
            atom("MarriedCandidate", &["m1", "m2"]),
            vec![atom("Nowhere", &["m1", "m2"])],
            WeightSpec::None,
        ));
        assert_eq!(
            bad.validate(),
            Err(ProgramError::UndeclaredBody {
                rule: "BAD2".into(),
                relation: "Nowhere".into(),
            })
        );
    }
}
