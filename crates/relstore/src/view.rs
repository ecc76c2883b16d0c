//! Conjunctive (rule-shaped) queries and incrementally maintained views.
//!
//! Grounding in DeepDive is "a series of SQL queries" whose bodies are
//! conjunctions of user relations (§2.2, §3.1).  This module provides:
//!
//! * [`ConjunctiveQuery`] — `head(vars) :- atom_1, …, atom_k, filters`, where each
//!   atom binds variables against a relation and may be negated;
//! * evaluation and delta evaluation, both run by the compiled
//!   [`crate::plan::QueryPlan`] executor;
//! * [`MaterializedView`] — a stored result maintained incrementally from
//!   [`DeltaRelation`]s ([`MaterializedView::refresh_dred`]) with the classic
//!   counting / DRed delta-rule evaluation the paper adopts from
//!   Gupta–Mumick–Subrahmanian.
//!
//! The delta rule implemented here is the textbook one: for an update touching
//! relations `R_{i1}, …`, the view delta is the sum over changed atoms `i` of the
//! query with atom `i` replaced by its delta, atoms before `i` evaluated against
//! the *new* state, and atoms after `i` against the *old* state.  Counts may be
//! negative (deletions); applying the delta to the stored counted result gives the
//! new view contents without recomputation.

use crate::database::Database;
use crate::delta::DeltaRelation;
use crate::error::RelResult;
use crate::plan::{ExecStats, QueryPlan};
use crate::schema::{Column, DataType, Schema};
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;

/// A term in a query atom: a variable name or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    Var(String),
    Const(Value),
}

impl Term {
    /// Convenience constructor for variables.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }
    /// Convenience constructor for constants.
    pub fn val(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }
}

/// One atom of a rule body: `relation(term, term, …)`, possibly negated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAtom {
    pub relation: String,
    pub terms: Vec<Term>,
    pub negated: bool,
}

impl QueryAtom {
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        QueryAtom {
            relation: relation.into(),
            terms,
            negated: false,
        }
    }

    pub fn negated(mut self) -> Self {
        self.negated = true;
        self
    }

    /// Variables mentioned by this atom, in order of first appearance.
    pub fn variables(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if !seen.contains(&v.as_str()) {
                    seen.push(v.as_str());
                }
            }
        }
        seen
    }
}

/// Comparison filters applied to bound variables after the joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// The two variables must bind to different values.
    Ne(String, String),
    /// The two variables must bind to equal values.
    Eq(String, String),
    /// Left variable strictly less than right variable.
    Lt(String, String),
}

/// A conjunctive query `name(head_vars) :- atoms, filters`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    pub name: String,
    pub head_vars: Vec<String>,
    pub atoms: Vec<QueryAtom>,
    pub filters: Vec<Filter>,
}

impl ConjunctiveQuery {
    pub fn new(name: impl Into<String>, head_vars: Vec<String>, atoms: Vec<QueryAtom>) -> Self {
        ConjunctiveQuery {
            name: name.into(),
            head_vars,
            atoms,
            filters: Vec::new(),
        }
    }

    pub fn with_filters(mut self, filters: Vec<Filter>) -> Self {
        self.filters = filters;
        self
    }

    /// Relations referenced (positively or negatively) by this query.
    pub fn relations(&self) -> Vec<&str> {
        self.atoms.iter().map(|a| a.relation.as_str()).collect()
    }

    /// Output schema: one column per head variable.  Column types are inferred
    /// from the first atom that binds each variable; `Null` if unbound (which
    /// plan compilation reports as an error).
    pub fn output_schema(&self, db: &Database) -> Schema {
        let mut cols = Vec::new();
        for hv in &self.head_vars {
            let mut ty = DataType::Null;
            'outer: for atom in &self.atoms {
                if let Ok(tbl) = db.table(&atom.relation) {
                    for (i, term) in atom.terms.iter().enumerate() {
                        if let Term::Var(v) = term {
                            if v == hv {
                                if let Some(t) = tbl.schema().type_at(i) {
                                    ty = t;
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
            }
            cols.push(Column::new(hv.clone(), ty));
        }
        Schema::new(cols)
    }

    /// Evaluate against `db`: compile the query and run the plan once.  Callers
    /// that evaluate the same query repeatedly keep the [`QueryPlan`].
    pub fn evaluate(&self, db: &Database) -> RelResult<Table> {
        QueryPlan::compile(self)?.evaluate(db, &mut ExecStats::default())
    }

    /// Compute the *delta* of this query caused by `deltas`, with `db` in its
    /// **pre-update** state.
    ///
    /// The standard counting delta rule is used:
    /// `ΔQ = Σ_i  body[..i] (new) ⋈ Δatom_i ⋈ body[i+1..] (old)`,
    /// where insertions contribute positively and deletions negatively.  This
    /// handles self-joins correctly because each atom *position* is differentiated
    /// independently.
    ///
    /// Negated atoms over changed relations are not supported by the counting
    /// delta rule; an error is returned in that case (the caller should fall back
    /// to full recomputation).
    pub fn delta_evaluate(
        &self,
        db: &Database,
        deltas: &HashMap<String, DeltaRelation>,
    ) -> RelResult<DeltaRelation> {
        QueryPlan::compile(self)?.delta_evaluate(db, deltas, &mut ExecStats::default())
    }
}

/// A materialized, incrementally maintainable view over a conjunctive query.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    /// The defining query, compiled once.
    plan: QueryPlan,
    result: Table,
    /// Work done by every evaluation and refresh so far.
    stats: ExecStats,
}

impl MaterializedView {
    /// Materialize the view by full evaluation.
    pub fn materialize(query: ConjunctiveQuery, db: &Database) -> RelResult<Self> {
        let plan = QueryPlan::compile(&query)?;
        let mut stats = ExecStats::default();
        let result = plan.evaluate(db, &mut stats)?;
        Ok(MaterializedView {
            plan,
            result,
            stats,
        })
    }

    /// The stored result.
    pub fn result(&self) -> &Table {
        &self.result
    }

    /// The defining query.
    pub fn query(&self) -> &ConjunctiveQuery {
        self.plan.query()
    }

    /// Rows visited by every evaluation and refresh of this view so far
    /// (see [`ExecStats::rows_probed`]).
    pub fn rows_probed(&self) -> u64 {
        self.stats.rows_probed
    }

    /// DRed-style maintenance returning the **distinct presence delta**, with
    /// `db` in its **pre-update** state: the stored counted result takes the
    /// view's full counted delta, the caller gets the presence transitions.
    ///
    /// Gupta–Mumick–Subrahmanian DRed proceeds in two phases: *over-delete*
    /// every derivation a deleted tuple participated in, then *re-derive*
    /// tuples that still have an alternative derivation.  For the
    /// non-recursive conjunctive queries grounding uses, the counting delta
    /// rule computes both phases in one shot: a deletion subtracts exactly the
    /// derivations it supported, and the surviving count *is* the re-derived
    /// support.  What the grounder's candidate cascade needs on top of the
    /// counted maintenance is the set of tuples whose **presence** flipped:
    ///
    /// * `+1` — the tuple appeared (count crossed zero upward);
    /// * `-1` — the tuple's last derivation vanished (count crossed to ≤ 0).
    ///
    /// Tuples whose count changed without crossing zero (an alternative
    /// derivation survives — DRed's re-derived tuples) are *not* reported,
    /// which is what stops spurious downstream retraction.  Cross-**rule**
    /// re-derivation (another view deriving the same head tuple) is the
    /// caller's job: it has the sibling views, this view does not.
    pub fn refresh_dred(
        &mut self,
        db: &Database,
        deltas: &HashMap<String, DeltaRelation>,
    ) -> RelResult<DeltaRelation> {
        let view_delta = self.plan.delta_evaluate(db, deltas, &mut self.stats)?;
        let mut distinct = DeltaRelation::new(self.plan.query().name.clone());
        for (t, c) in view_delta.iter() {
            let before = self.result.count(t);
            let after = before + c;
            if before <= 0 && after > 0 {
                distinct.change(t.clone(), 1);
            } else if before > 0 && after <= 0 {
                distinct.change(t.clone(), -1);
            }
        }
        view_delta.apply_to(&mut self.result);
        Ok(distinct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RelError;
    use crate::schema::DataType;
    use crate::tuple;

    /// Build the running-example database: PersonCandidate(s, m), Sentence(s).
    fn example_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "PersonCandidate",
            Schema::of(&[("s", DataType::Int), ("m", DataType::Int)]),
        )
        .unwrap();
        db.create_table("Sentence", Schema::of(&[("s", DataType::Int)]))
            .unwrap();
        db.create_table(
            "EL",
            Schema::of(&[("m", DataType::Int), ("e", DataType::Text)]),
        )
        .unwrap();
        db.insert_all(
            "PersonCandidate",
            vec![
                tuple![1i64, 10i64],
                tuple![1i64, 11i64],
                tuple![2i64, 20i64],
            ],
        )
        .unwrap();
        db.insert_all("Sentence", vec![tuple![1i64], tuple![2i64]])
            .unwrap();
        db.insert_all(
            "EL",
            vec![
                tuple![10i64, "Barack_Obama_1"],
                tuple![11i64, "Michelle_Obama_1"],
            ],
        )
        .unwrap();
        db
    }

    /// R1: MarriedCandidate(m1, m2) :- PersonCandidate(s, m1), PersonCandidate(s, m2), m1 < m2.
    fn married_candidate_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            "MarriedCandidate",
            vec!["m1".into(), "m2".into()],
            vec![
                QueryAtom::new("PersonCandidate", vec![Term::var("s"), Term::var("m1")]),
                QueryAtom::new("PersonCandidate", vec![Term::var("s"), Term::var("m2")]),
            ],
        )
        .with_filters(vec![Filter::Lt("m1".into(), "m2".into())])
    }

    #[test]
    fn evaluate_self_join_with_filter() {
        let db = example_db();
        let q = married_candidate_query();
        let out = q.evaluate(&db).unwrap();
        // only sentence 1 has two person candidates
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![10i64, 11i64]));
    }

    #[test]
    fn evaluate_with_constants_and_negation() {
        let db = example_db();
        // persons in sentence 1 that are NOT linked to an entity
        let q = ConjunctiveQuery::new(
            "Unlinked",
            vec!["m".into()],
            vec![
                QueryAtom::new("PersonCandidate", vec![Term::val(1i64), Term::var("m")]),
                QueryAtom::new("EL", vec![Term::var("m"), Term::var("e")]),
            ],
        );
        let linked = q.evaluate(&db).unwrap();
        assert_eq!(linked.len(), 2);

        let q_neg = ConjunctiveQuery::new(
            "NotInSentence1",
            vec!["m".into()],
            vec![
                QueryAtom::new("PersonCandidate", vec![Term::var("s"), Term::var("m")]),
                QueryAtom::new("PersonCandidate", vec![Term::val(1i64), Term::var("m")]).negated(),
            ],
        );
        let out = q_neg.evaluate(&db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![20i64]));
    }

    #[test]
    fn unbound_head_variable_is_an_error() {
        let db = example_db();
        let q = ConjunctiveQuery::new(
            "Bad",
            vec!["zzz".into()],
            vec![QueryAtom::new("Sentence", vec![Term::var("s")])],
        );
        assert!(matches!(q.evaluate(&db), Err(RelError::InvalidQuery(_))));
    }

    #[test]
    fn negation_with_unbound_variable_is_an_error() {
        let db = example_db();
        let q = ConjunctiveQuery::new(
            "Bad",
            vec!["s".into()],
            vec![
                QueryAtom::new("Sentence", vec![Term::var("s")]),
                QueryAtom::new("PersonCandidate", vec![Term::var("s2"), Term::var("m")]).negated(),
            ],
        );
        assert!(matches!(q.evaluate(&db), Err(RelError::InvalidQuery(_))));
    }

    #[test]
    fn arity_mismatch_is_one_typed_error_on_both_paths() {
        let db = example_db();
        // Sentence has arity 1; the atom gives it two terms.
        let q = ConjunctiveQuery::new(
            "Bad",
            vec!["s".into()],
            vec![
                QueryAtom::new("PersonCandidate", vec![Term::var("s"), Term::var("m")]),
                QueryAtom::new("Sentence", vec![Term::var("s"), Term::var("x")]),
            ],
        );
        let mut deltas = HashMap::new();
        let mut d = DeltaRelation::new("PersonCandidate");
        d.insert(tuple![3i64, 30i64]);
        deltas.insert("PersonCandidate".to_string(), d);
        let full = q.evaluate(&db).unwrap_err();
        let delta = q.delta_evaluate(&db, &deltas).unwrap_err();
        assert_eq!(full, delta);
        let RelError::InvalidQuery(message) = full else {
            panic!("expected InvalidQuery, got {full:?}");
        };
        assert!(message.contains("`Sentence`"), "{message}");
        assert!(message.contains("2 terms"), "{message}");
        assert!(message.contains("arity 1"), "{message}");
    }

    #[test]
    fn counts_reflect_number_of_derivations() {
        let db = example_db();
        // project persons per sentence onto sentence id: sentence 1 has 2 derivations
        let q = ConjunctiveQuery::new(
            "SentencesWithPeople",
            vec!["s".into()],
            vec![QueryAtom::new(
                "PersonCandidate",
                vec![Term::var("s"), Term::var("m")],
            )],
        );
        let out = q.evaluate(&db).unwrap();
        assert_eq!(out.count(&tuple![1i64]), 2);
        assert_eq!(out.count(&tuple![2i64]), 1);
    }

    #[test]
    fn dred_insert_then_delete_matches_full_recompute() {
        let mut db = example_db();
        let q = married_candidate_query();
        let mut view = MaterializedView::materialize(q.clone(), &db).unwrap();
        assert_eq!(view.result().len(), 1);

        // A new person candidate in sentence 2 creates the pair (20, 21);
        // deleting one of sentence 1's retracts the pair (10, 11).
        for (row, count, pair) in [
            (tuple![2i64, 21i64], 1, tuple![20i64, 21i64]),
            (tuple![1i64, 11i64], -1, tuple![10i64, 11i64]),
        ] {
            let mut delta = DeltaRelation::new("PersonCandidate");
            delta.change(row, count);
            let mut deltas = HashMap::new();
            deltas.insert("PersonCandidate".to_string(), delta.clone());
            let distinct = view.refresh_dred(&db, &deltas).unwrap();
            assert_eq!(distinct.iter().count(), 1);
            assert_eq!(distinct.count(&pair), count);

            // Apply the base delta and compare with full recomputation.
            delta.apply_to(db.table_mut("PersonCandidate").unwrap());
            let full = q.evaluate(&db).unwrap();
            assert_eq!(view.result().sorted_tuples(), full.sorted_tuples());
        }
        assert_eq!(view.result().sorted_tuples(), vec![tuple![20i64, 21i64]]);
    }

    #[test]
    fn dred_update_of_two_relations() {
        // EL join: MarriedMentions_Ev(m1, m2) :- MarriedCandidate-like join over EL.
        let mut db = example_db();
        let q = ConjunctiveQuery::new(
            "Linked",
            vec!["m".into(), "e".into()],
            vec![
                QueryAtom::new("PersonCandidate", vec![Term::var("s"), Term::var("m")]),
                QueryAtom::new("EL", vec![Term::var("m"), Term::var("e")]),
            ],
        );
        let mut view = MaterializedView::materialize(q.clone(), &db).unwrap();

        let mut d_pc = DeltaRelation::new("PersonCandidate");
        d_pc.insert(tuple![2i64, 21i64]);
        let mut d_el = DeltaRelation::new("EL");
        d_el.insert(tuple![21i64, "New_Person_1"]);
        d_el.delete(tuple![11i64, "Michelle_Obama_1"]);

        let mut deltas = HashMap::new();
        deltas.insert("PersonCandidate".to_string(), d_pc.clone());
        deltas.insert("EL".to_string(), d_el.clone());

        let distinct = view.refresh_dred(&db, &deltas).unwrap();
        assert_eq!(distinct.count(&tuple![21i64, "New_Person_1"]), 1);
        assert_eq!(distinct.count(&tuple![11i64, "Michelle_Obama_1"]), -1);

        d_pc.apply_to(db.table_mut("PersonCandidate").unwrap());
        d_el.apply_to(db.table_mut("EL").unwrap());
        let full = q.evaluate(&db).unwrap();
        assert_eq!(view.result().sorted_tuples(), full.sorted_tuples());
    }

    #[test]
    fn delta_over_negated_atom_is_rejected() {
        let db = example_db();
        // Negation must be safe (all variables bound), so probe a specific entity.
        let q = ConjunctiveQuery::new(
            "NotLinked",
            vec!["m".into()],
            vec![
                QueryAtom::new("PersonCandidate", vec![Term::var("s"), Term::var("m")]),
                QueryAtom::new("EL", vec![Term::var("m"), Term::val("Barack_Obama_1")]).negated(),
            ],
        );
        let _ = q.evaluate(&db).unwrap();
        let mut deltas = HashMap::new();
        let mut d = DeltaRelation::new("EL");
        d.insert(tuple![20i64, "X"]);
        deltas.insert("EL".to_string(), d);
        assert!(q.delta_evaluate(&db, &deltas).is_err());
        drop(q);
    }

    #[test]
    fn dred_reports_only_presence_transitions() {
        // SentencesWithPeople(s) :- PersonCandidate(s, m): sentence 1 has two
        // derivations, so deleting one of them must NOT retract the tuple.
        let mut db = example_db();
        let q = ConjunctiveQuery::new(
            "SentencesWithPeople",
            vec!["s".into()],
            vec![QueryAtom::new(
                "PersonCandidate",
                vec![Term::var("s"), Term::var("m")],
            )],
        );
        let mut view = MaterializedView::materialize(q.clone(), &db).unwrap();
        assert_eq!(view.result().count(&tuple![1i64]), 2);

        // Delete one derivation of sentence 1: count 2 → 1, no transition.
        let mut delta = DeltaRelation::new("PersonCandidate");
        delta.delete(tuple![1i64, 10i64]);
        let mut deltas = HashMap::new();
        deltas.insert("PersonCandidate".to_string(), delta.clone());
        let distinct = view.refresh_dred(&db, &deltas).unwrap();
        assert!(distinct.is_empty(), "re-derived tuple must not be reported");
        assert_eq!(view.result().count(&tuple![1i64]), 1);
        delta.apply_to(db.table_mut("PersonCandidate").unwrap());

        // Delete the last derivation: presence flips, -1 reported.
        let mut delta2 = DeltaRelation::new("PersonCandidate");
        delta2.delete(tuple![1i64, 11i64]);
        let mut deltas2 = HashMap::new();
        deltas2.insert("PersonCandidate".to_string(), delta2.clone());
        let distinct2 = view.refresh_dred(&db, &deltas2).unwrap();
        assert_eq!(distinct2.count(&tuple![1i64]), -1);
        assert!(!view.result().contains(&tuple![1i64]));
        delta2.apply_to(db.table_mut("PersonCandidate").unwrap());

        // Insert into a fresh sentence: presence appears, +1 reported.
        let mut delta3 = DeltaRelation::new("PersonCandidate");
        delta3.insert(tuple![9i64, 90i64]);
        let mut deltas3 = HashMap::new();
        deltas3.insert("PersonCandidate".to_string(), delta3);
        let distinct3 = view.refresh_dred(&db, &deltas3).unwrap();
        assert_eq!(distinct3.count(&tuple![9i64]), 1);

        // The maintained result always matches full recomputation.
        let full = q.evaluate(&db).unwrap();
        // (delta3 not yet applied to db; apply before comparing)
        let mut db2 = db.clone();
        db2.table_mut("PersonCandidate")
            .unwrap()
            .insert(tuple![9i64, 90i64])
            .unwrap();
        let full2 = q.evaluate(&db2).unwrap();
        assert_ne!(full.sorted_tuples(), full2.sorted_tuples());
        assert_eq!(view.result().sorted_tuples(), full2.sorted_tuples());
    }
}
