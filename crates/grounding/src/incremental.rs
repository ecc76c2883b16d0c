//! Incremental grounding with retraction (paper §3.1).
//!
//! A KBC iteration changes the input data (new documents, new labels, and —
//! since facts get corrected — *deleted* tuples and *retracted* supervision)
//! and/or the program (new rules).  Incremental grounding turns such a
//! [`KbcUpdate`] into the factor-graph delta (ΔV, ΔF) that incremental
//! inference consumes:
//!
//! 1. supervision retractions are applied first: the head joins the grounder's
//!    sticky suppression set and existing labels are un-pinned;
//! 2. base-relation deltas are cascaded through the candidate-mapping rules as
//!    signed multiplicities (Z-sets).  Each rule's materialized view runs a
//!    DRed-style distinct refresh ([`dd_relstore::MaterializedView::refresh_dred`]); a
//!    deletion reported by one view is cancelled when a sibling rule with the
//!    same head still derives the tuple (re-derivation);
//! 3. the weighted and supervision rules are differentiated against the
//!    combined base + derived deltas.  Positive binding counts raise the
//!    support of existing groundings or create new ones; negative counts lower
//!    support, and a grounding whose support reaches zero is *retracted*: its
//!    factor is removed from the graph (`swap_remove` compaction), its label
//!    contribution is withdrawn, and variables left without any referencing
//!    grounding are removed along with their catalog entries;
//! 4. new bindings are grounded in place by the one path full grounding
//!    uses (`Grounder::ground_bindings`): the positive bindings of existing
//!    rules first, then brand-new rules in full against the post-update
//!    database — so a new rule reading a variable relation sees the heads
//!    this update grounded, as a from-scratch grounding would;
//! 5. every variable whose label counts changed gets the role its counters
//!    imply, and the grounder *reports* what it did
//!    ([`IncrementalGrounding`]): the id ranges it appended past the
//!    post-removal mark, the evidence it newly pinned, and whether it
//!    retracted anything — exactly what §3.2's inference reads.
//!
//! A deletion is never silently dropped: retracting a grounding the grounder
//! has no record of, or driving a binding's derivation support negative, is a
//! typed [`GroundingError::Retraction`].
//!
//! What this does not yet match: an *existing* rule whose body reads a
//! variable relation is differentiated against the pre-update database with
//! only base and derived deltas, so it does not see the heads the same
//! update grounds, where a from-scratch grounding (in program order) would.

use crate::ast::{Rule, RuleKind};
use crate::catalog::VarKey;
use crate::error::{GroundingError, ProgramError};
use crate::grounder::{Grounder, RuleTemplate};
use dd_factorgraph::{FactorId, VarId, VariableRole};
use dd_relstore::{DeltaRelation, ExecStats, Tuple};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// One update to a KBC system: data changes, supervision retractions, and/or
/// new rules.
#[derive(Debug, Clone, Default)]
pub struct KbcUpdate {
    /// Changes to base relations, keyed by relation name.
    pub base_deltas: HashMap<String, DeltaRelation>,
    /// Supervision heads `(relation, tuple)` whose labels are withdrawn and
    /// permanently suppressed.
    pub retracted_supervision: Vec<(String, Tuple)>,
    /// Rules added in this iteration.
    pub new_rules: Vec<Rule>,
}

impl KbcUpdate {
    pub fn new() -> Self {
        KbcUpdate::default()
    }

    /// Record an insertion into a base relation.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> &mut Self {
        self.base_deltas
            .entry(relation.to_string())
            .or_insert_with(|| DeltaRelation::new(relation))
            .insert(tuple);
        self
    }

    /// Record a deletion from a base relation.
    pub fn delete(&mut self, relation: &str, tuple: Tuple) -> &mut Self {
        self.base_deltas
            .entry(relation.to_string())
            .or_insert_with(|| DeltaRelation::new(relation))
            .delete(tuple);
        self
    }

    /// Withdraw supervision from one head tuple (sticky: later labels for the
    /// same head are recorded but never pin the variable again).
    pub fn retract_supervision(&mut self, relation: &str, tuple: Tuple) -> &mut Self {
        self.retracted_supervision
            .push((relation.to_string(), tuple));
        self
    }

    /// Add a new rule.
    pub fn add_rule(&mut self, rule: Rule) -> &mut Self {
        self.new_rules.push(rule);
        self
    }

    /// True if the update changes nothing.
    pub fn is_empty(&self) -> bool {
        self.new_rules.is_empty()
            && self.retracted_supervision.is_empty()
            && self.base_deltas.values().all(|d| d.is_empty())
    }
}

/// Outcome of one incremental grounding run: the change it applied to the
/// grounder's graph, (ΔV, ΔF) in the terms §3.2's inference reads.
#[derive(Debug, Clone, Default)]
pub struct IncrementalGrounding {
    /// The variables the run appended (after its removals), as an id range.
    pub new_variables: Range<VarId>,
    /// The factors the run appended (after its removals), as an id range.
    pub new_factors: Range<FactorId>,
    /// `(variable, value)` for every variable the run pinned to a value its
    /// `(relation, tuple)` was not pinned to before — a variable the run
    /// created counts as not pinned before — in `(relation, tuple)` order.
    pub new_evidence: Vec<(VarId, bool)>,
    /// True if the run retracted anything: it removed a factor or a
    /// variable, or returned an evidence variable to `Query`.
    pub retracted: bool,
    /// Number of new groundings (factors or labels) produced.
    pub new_groundings: usize,
    /// Number of groundings whose support reached zero and whose artifacts
    /// (factor, label, orphaned variables) were removed from the graph.
    pub retracted_groundings: usize,
    /// Deterministic work counter of the relational side of this run: Δ rows
    /// the delta rules were seeded from plus index entries and rows the joins
    /// visited (see [`ExecStats::rows_probed`]).  For a fixed Δ it does not
    /// depend on how large the rest of the knowledge base is.
    pub rows_probed: u64,
}

/// What one retraction sweep removed.
#[derive(Default)]
struct Retracted {
    factors: usize,
    variables: usize,
    groundings: usize,
}

impl Grounder {
    /// Remove one factor from the graph, keeping ownership bookkeeping and
    /// weight refcounts current across the `swap_remove` move.
    fn retract_factor(&mut self, fid: FactorId) {
        let weight_id = self.graph.factor(fid).weight_id;
        let moved = self.graph.remove_factor(fid);
        self.factor_owners.swap_remove(fid);
        if moved.is_some() {
            // The factor formerly last now lives at `fid`: re-point its record.
            let (rule, binding) = &self.factor_owners[fid];
            if let Some(rec) = self
                .program
                .rules
                .get(*rule)
                .and_then(|r| self.grounded_bindings.get_mut(&r.name))
                .and_then(|m| m.get_mut(binding))
            {
                rec.factor = Some(fid);
            }
        }
        self.weight_use[weight_id] -= 1;
        if self.weight_use[weight_id] <= 0 {
            let description = &self.graph.weight(weight_id).description;
            // The weight slot itself stays in the graph (learned-weight vectors
            // are indexed by WeightId); only the catalog forgets it.
            if self.weight_catalog.get(description) == Some(&weight_id) {
                self.weight_catalog.remove(description);
            }
        }
    }

    /// Cascade the base deltas in `accumulated` through the candidate-mapping
    /// rules (pre-update database), adding each rule's distinct head delta.
    fn cascade_candidates(
        &mut self,
        accumulated: &mut HashMap<String, DeltaRelation>,
        stats: &mut ExecStats,
    ) -> Result<(), GroundingError> {
        let ordered: Vec<Rule> = self
            .program
            .stratified_candidate_rules()
            .ok_or(ProgramError::CyclicCandidateRules)?
            .into_iter()
            .cloned()
            .collect();
        // Candidate rules that have never been evaluated (e.g. the program was
        // created and updates were applied without an explicit initial run, or
        // the rule was added in an earlier update without data) are grounded
        // now, against the pre-update state, so their derived tuples are
        // visible to the weighted rules below.
        for rule in &ordered {
            if !self.candidate_views.contains_key(&rule.name) {
                self.evaluate_candidate_rule(rule)?;
            }
        }
        for rule in &ordered {
            let touches_change = rule
                .body_relations()
                .iter()
                .any(|r| accumulated.contains_key(*r));
            if !touches_change {
                continue;
            }
            let head_rel = &rule.head.relation;

            // DRed distinct refresh of this rule's view: ±1 presence
            // transitions within the view, over-deletions already cancelled
            // against the view's own remaining derivations.
            let view = self
                .candidate_views
                .get_mut(&rule.name)
                .expect("every candidate rule was materialized above");
            let probed_before = view.rows_probed();
            let view_delta = view.refresh_dred(&self.db, accumulated)?;
            stats.rows_probed += view.rows_probed() - probed_before;

            // Cross-rule re-derivation and dedup: a tuple deleted from this
            // view survives if a sibling rule with the same head still derives
            // it; a tuple added by this view is only new if the head relation
            // did not already carry it (base table + deltas accumulated so far).
            let mut distinct_delta = DeltaRelation::new(head_rel.clone());
            for (tuple, transition) in view_delta.iter() {
                let head_count = self.db.table(head_rel).map(|t| t.count(tuple)).unwrap_or(0);
                let pending = accumulated
                    .get(head_rel)
                    .map(|d| d.count(tuple))
                    .unwrap_or(0);
                let present_before = head_count + pending > 0;
                if transition > 0 {
                    if !present_before {
                        distinct_delta.insert(tuple.clone());
                    }
                } else if present_before {
                    let rederived = self.candidate_views.iter().any(|(name, sibling)| {
                        name != &rule.name
                            && sibling.query().name == *head_rel
                            && sibling.result().contains(tuple)
                    });
                    if !rederived {
                        distinct_delta.delete(tuple.clone());
                    }
                }
            }
            if !distinct_delta.is_empty() {
                accumulated
                    .entry(head_rel.clone())
                    .or_insert_with(|| DeltaRelation::new(head_rel.clone()))
                    .merge(&distinct_delta);
            }
        }
        Ok(())
    }

    /// The retraction sweep: negative binding counts lower support; support
    /// hitting zero retracts the grounding (factor out, label withdrawn,
    /// refcounts down), and variables left unreferenced are removed
    /// afterwards in sorted key order.  Variables whose label counts changed
    /// are pushed onto `label_dirty` (its reader deduplicates it).
    fn retract_groundings(
        &mut self,
        rule_deltas: &[(Arc<RuleTemplate>, DeltaRelation)],
        label_dirty: &mut Vec<VarKey>,
    ) -> Result<Retracted, GroundingError> {
        let mut retracted = Retracted::default();
        let mut dead_vars: Vec<VarId> = Vec::new();
        for (template, delta) in rule_deltas {
            for (binding, count) in delta.deletions() {
                // One descent of the rule's record map finds, lowers and —
                // at zero support — removes the record.
                let records = self.grounded_bindings.get_mut(&template.name);
                let Some(Entry::Occupied(mut entry)) = records.map(|m| m.entry(binding.clone()))
                else {
                    return Err(GroundingError::Retraction {
                        rule: template.name.clone(),
                        detail: format!(
                            "no grounding recorded for binding {binding:?} (delta -{count})"
                        ),
                    });
                };
                let record = entry.get_mut();
                if record.support < count {
                    return Err(GroundingError::Retraction {
                        rule: template.name.clone(),
                        detail: format!(
                            "binding {binding:?} has support {} but delta -{count} \
                             (more deletions than derivations)",
                            record.support
                        ),
                    });
                }
                record.support -= count;
                if record.support > 0 {
                    continue;
                }
                let record = entry.remove();
                retracted.groundings += 1;

                let (head, referenced) = self.record_vars(template, binding);
                if let Some(fid) = record.factor {
                    self.retract_factor(fid);
                    retracted.factors += 1;
                }
                let vars = &mut self.catalog.vars;
                for var in referenced {
                    let usage = &mut vars.usage[var];
                    usage.refs -= 1;
                    if usage.refs <= 0 {
                        dead_vars.push(var);
                    }
                }
                let Some(head) = head else {
                    continue;
                };
                let usage = &mut vars.usage[head];
                if let Some(label) = record.label {
                    usage.add_label(label, -1);
                    label_dirty.push(vars.keys[head].clone());
                }
                usage.head_refs -= 1;
                if usage.head_refs <= 0 {
                    // Withdraw the derivation this grounding inserted into
                    // the head's variable relation.
                    if let Ok(table) = self.db.table_mut(&template.head.relation) {
                        table.delete(&vars.keys[head].1);
                    }
                }
            }
        }
        // Dead variables go in key order.  The catalog patches the entry of
        // the variable `swap_remove` moved into the freed id and records
        // both catalog ops.
        let keys = &self.catalog.vars.keys;
        dead_vars.sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]));
        dead_vars.dedup();
        let dead_var_keys: Vec<VarKey> = dead_vars.iter().map(|&var| keys[var].clone()).collect();
        for key in &dead_var_keys {
            retracted.variables += usize::from(self.catalog.remove(key, &mut self.graph).is_some());
        }
        Ok(retracted)
    }

    /// Incrementally ground an update, mutating the database, the catalogs, and
    /// the factor graph, and reporting the change applied to the graph plus
    /// statistics.
    pub fn ground_incremental(
        &mut self,
        update: &KbcUpdate,
    ) -> Result<IncrementalGrounding, GroundingError> {
        let mut accumulated: HashMap<String, DeltaRelation> = update
            .base_deltas
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut stats = ExecStats::default();

        // New rules are compiled before anything is touched, so a malformed
        // rule rejects the update instead of landing half of it.
        let new_templates = update
            .new_rules
            .iter()
            .enumerate()
            .map(|(i, rule)| {
                let index = self.program.rules.len() + i;
                RuleTemplate::compile(&self.program, &mut self.catalog, rule, index)
            })
            .collect::<Result<Vec<_>, _>>()?;

        // ---- 0. supervision retractions (sticky suppression + un-pinning).
        // The graph is mutated in place; the evidence pass reports the
        // transitions once every removal and addition has settled the
        // variable ids.  Each forced key remembers the role its variable held
        // before the first un-pinning.
        let mut forced_evidence: BTreeMap<VarKey, VariableRole> = BTreeMap::new();
        for (relation, tuple) in &update.retracted_supervision {
            let slot = self.catalog.intern(relation);
            let head = self.catalog.relation(slot);
            let previous = match head.vars.get(tuple) {
                Some(&var) => self.graph.variable(var).role,
                None => VariableRole::Query,
            };
            forced_evidence
                .entry((head.handle.clone(), tuple.clone()))
                .or_insert(previous);
            self.apply_supervision_retraction(relation, tuple);
        }

        // ---- 1. cascade through candidate-mapping rules (pre-update database).
        self.cascade_candidates(&mut accumulated, &mut stats)?;

        // ---- 2. differentiate the weighted and supervision rules (pre-update db).
        let mut rule_deltas: Vec<(Arc<RuleTemplate>, DeltaRelation)> = Vec::new();
        for template in self.grounding_templates() {
            let touches_change = template
                .plan
                .query()
                .relations()
                .iter()
                .any(|r| accumulated.contains_key(*r));
            if !touches_change {
                continue;
            }
            let delta = template
                .plan
                .delta_evaluate(&self.db, &accumulated, &mut stats)?;
            if !delta.is_empty() {
                rule_deltas.push((template, delta));
            }
        }

        // ---- 2b. retraction sweep.
        let mut label_dirty: Vec<VarKey> = Vec::new();
        let retracted = self.retract_groundings(&rule_deltas, &mut label_dirty)?;

        // ---- 3. apply the relational deltas to the database.  A deletion
        // may take a row some grounding still has as its head.
        for (relation, delta) in accumulated.iter() {
            if let Ok(table) = self.db.table_mut(relation) {
                delta.apply_to(table);
            }
            if delta.deletions().next().is_some() {
                self.catalog.heads_maybe_removed(Some(relation));
            }
        }

        // ---- 4. additions, in place: positive binding counts against the
        // post-removal graph, then brand-new rules in full against the
        // post-update database.  Labelled heads are collected for the
        // evidence pass; the graph keeps them `Query` until then.
        let since = (self.graph.num_variables(), self.graph.num_factors());
        let mut labelled: Vec<VarId> = Vec::new();
        let mut new_groundings = 0;
        for (template, delta) in &rule_deltas {
            let mut records = self.grounded_bindings.get_mut(&template.name);
            let mut fresh = Vec::new();
            for (binding, count) in delta.insertions() {
                match records.as_deref_mut().and_then(|m| m.get_mut(binding)) {
                    // Already grounded: the new derivations only raise support.
                    Some(record) => record.support += count,
                    None => fresh.push((binding.clone(), count)),
                }
            }
            new_groundings += self.ground_bindings(template, fresh, Some(&mut labelled));
        }
        for (rule, template) in update.new_rules.iter().zip(new_templates) {
            self.program.rules.push(rule.clone());
            self.templates.push(template.clone());
            if rule.kind == RuleKind::CandidateMapping {
                // Full evaluation of the new candidate rule; the inserted
                // tuples immediately become visible to subsequently added
                // rules and to later incremental updates.
                self.evaluate_candidate_rule(rule)?;
            }
            if let Some(template) = template {
                new_groundings += self.ground_rule(&template, &mut stats, Some(&mut labelled))?;
            }
        }

        // ---- 5. the evidence pass: every variable whose label counts changed
        // (or whose supervision was forcibly retracted) gets the role its
        // counters imply, in key order.  A forced key's role was already
        // updated in phase 0, so its previous role is the one it remembered.
        let keys = &self.catalog.vars.keys;
        label_dirty.extend(labelled.into_iter().map(|var| keys[var].clone()));
        let mut new_evidence = Vec::new();
        let mut unpinned = false;
        let dirty: BTreeSet<&VarKey> = label_dirty.iter().chain(forced_evidence.keys()).collect();
        for key in dirty {
            let Some(var) = self.catalog.get_key(key) else {
                continue;
            };
            let changed = self.catalog.vars.usage[var].apply_role(self.graph.variable_mut(var));
            let Some(previous) = forced_evidence.get(key).copied().or(changed) else {
                continue;
            };
            // A variable this run created counts as not pinned before.
            let before = if var < since.0 {
                previous.fixed_value()
            } else {
                None
            };
            match self.graph.variable(var).fixed_value() {
                Some(value) if before != Some(value) => new_evidence.push((var, value)),
                Some(_) => {}
                None => unpinned |= before.is_some(),
            }
        }

        Ok(IncrementalGrounding {
            new_variables: since.0..self.graph.num_variables(),
            new_factors: since.1..self.graph.num_factors(),
            new_evidence,
            retracted: retracted.factors + retracted.variables > 0 || unpinned,
            new_groundings,
            retracted_groundings: retracted.groundings,
            rows_probed: stats.rows_probed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{RuleAtom, WeightSpec};
    use crate::grounder::CatalogOp;
    use crate::program::{Program, RelationDecl, RelationRole};
    use crate::udf::standard_udfs;
    use dd_factorgraph::VariableRole;
    use dd_relstore::view::{Filter, Term};
    use dd_relstore::{tuple, DataType, Database, Schema};

    fn atom(rel: &str, vars: &[&str]) -> RuleAtom {
        RuleAtom::new(rel, vars.iter().map(|v| Term::var(*v)).collect())
    }

    /// Same spouse program as the grounder tests, without the supervision rule.
    fn program() -> Program {
        Program::new()
            .declare(RelationDecl::new(
                "Sentence",
                Schema::of(&[("s", DataType::Int), ("content", DataType::Text)]),
                RelationRole::Base,
            ))
            .declare(RelationDecl::new(
                "PersonCandidate",
                Schema::of(&[
                    ("s", DataType::Int),
                    ("m", DataType::Int),
                    ("text", DataType::Text),
                ]),
                RelationRole::Base,
            ))
            .declare(RelationDecl::new(
                "EL",
                Schema::of(&[("m", DataType::Int), ("e", DataType::Text)]),
                RelationRole::Base,
            ))
            .declare(RelationDecl::new(
                "Married",
                Schema::of(&[("e1", DataType::Text), ("e2", DataType::Text)]),
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
            .rule(
                Rule::new(
                    "R1",
                    RuleKind::CandidateMapping,
                    atom("MarriedCandidate", &["m1", "m2"]),
                    vec![
                        RuleAtom::new(
                            "PersonCandidate",
                            vec![Term::var("s"), Term::var("m1"), Term::var("t1")],
                        ),
                        RuleAtom::new(
                            "PersonCandidate",
                            vec![Term::var("s"), Term::var("m2"), Term::var("t2")],
                        ),
                    ],
                    WeightSpec::None,
                )
                .with_filters(vec![Filter::Lt("m1".into(), "m2".into())]),
            )
            .rule(Rule::new(
                "FE1",
                RuleKind::FeatureExtraction,
                atom("MarriedMentions", &["m1", "m2"]),
                vec![
                    atom("MarriedCandidate", &["m1", "m2"]),
                    RuleAtom::new(
                        "PersonCandidate",
                        vec![Term::var("s"), Term::var("m1"), Term::var("t1")],
                    ),
                    RuleAtom::new(
                        "PersonCandidate",
                        vec![Term::var("s"), Term::var("m2"), Term::var("t2")],
                    ),
                    RuleAtom::new("Sentence", vec![Term::var("s"), Term::var("content")]),
                ],
                WeightSpec::Tied {
                    udf: "phrase".into(),
                    args: vec!["t1".into(), "t2".into(), "content".into()],
                },
            ))
    }

    fn base_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "Sentence",
            Schema::of(&[("s", DataType::Int), ("content", DataType::Text)]),
        )
        .unwrap();
        db.create_table(
            "PersonCandidate",
            Schema::of(&[
                ("s", DataType::Int),
                ("m", DataType::Int),
                ("text", DataType::Text),
            ]),
        )
        .unwrap();
        db.create_table(
            "EL",
            Schema::of(&[("m", DataType::Int), ("e", DataType::Text)]),
        )
        .unwrap();
        db.create_table(
            "Married",
            Schema::of(&[("e1", DataType::Text), ("e2", DataType::Text)]),
        )
        .unwrap();
        db.insert_all(
            "Sentence",
            vec![tuple![
                1i64,
                "Barack and his wife Michelle attended the dinner"
            ]],
        )
        .unwrap();
        db.insert_all(
            "PersonCandidate",
            vec![
                tuple![1i64, 10i64, "Barack"],
                tuple![1i64, 11i64, "Michelle"],
            ],
        )
        .unwrap();
        db.insert_all(
            "EL",
            vec![
                tuple![10i64, "Barack_Obama_1"],
                tuple![11i64, "Michelle_Obama_1"],
            ],
        )
        .unwrap();
        db.insert_all(
            "Married",
            vec![tuple!["Barack_Obama_1", "Michelle_Obama_1"]],
        )
        .unwrap();
        db
    }

    fn grounded() -> Grounder {
        let mut g = Grounder::new(program(), base_db(), standard_udfs()).unwrap();
        g.ground().unwrap();
        g
    }

    #[test]
    fn new_document_cascades_to_new_variable_and_factor() {
        let mut g = grounded();
        let vars_before = g.graph().num_variables();
        let factors_before = g.graph().num_factors();
        let weights_before = g.graph().num_weights();

        // A new document with a new person pair arrives.
        let mut update = KbcUpdate::new();
        update
            .insert(
                "Sentence",
                tuple![2i64, "George and his wife Laura were married"],
            )
            .insert("PersonCandidate", tuple![2i64, 20i64, "George"])
            .insert("PersonCandidate", tuple![2i64, 21i64, "Laura"]);

        let inc = g.ground_incremental(&update).unwrap();

        // The candidate pair (20, 21) is derived and the MarriedMentions variable
        // plus its FE1 factor are created.
        assert_eq!(inc.new_groundings, 1);
        assert_eq!(inc.new_variables, vars_before..vars_before + 1);
        assert_eq!(inc.new_factors, factors_before..factors_before + 1);
        assert_eq!(g.graph().num_variables(), vars_before + 1);
        assert_eq!(g.graph().num_factors(), factors_before + 1);
        assert!(!inc.retracted);
        assert!(g
            .database()
            .table("MarriedCandidate")
            .unwrap()
            .contains(&tuple![20i64, 21i64]));
        assert!(g
            .variable_for("MarriedMentions", &tuple![20i64, 21i64])
            .is_some());
        // The "and his wife" weight is shared with the original grounding.
        assert_eq!(g.graph().num_weights(), weights_before);

        // The drainable catalog delta — the publish dirty-set — names exactly
        // the grown relation and carries its new entry (on top of the
        // entries still pending from the initial full grounding).
        let fresh = g.take_catalog_delta();
        assert_eq!(fresh.len(), 1);
        assert!(fresh["MarriedMentions"]
            .iter()
            .any(|op| matches!(op, CatalogOp::Upsert(t, _) if *t == tuple![20i64, 21i64])));
        // Drained: a second drain with no new grounding is empty.
        assert!(g.take_catalog_delta().is_empty());
    }

    #[test]
    fn incremental_matches_rerun_from_scratch() {
        // Ground incrementally, then compare against grounding the post-update
        // database from scratch: same number of variables, factors, weights.
        let mut inc_grounder = grounded();
        let mut update = KbcUpdate::new();
        update
            .insert("Sentence", tuple![2i64, "Ann and her colleague Bob met"])
            .insert("PersonCandidate", tuple![2i64, 20i64, "Ann"])
            .insert("PersonCandidate", tuple![2i64, 21i64, "Bob"]);
        inc_grounder.ground_incremental(&update).unwrap();

        let mut rerun_db = base_db();
        rerun_db
            .insert_all(
                "Sentence",
                vec![tuple![2i64, "Ann and her colleague Bob met"]],
            )
            .unwrap();
        rerun_db
            .insert_all(
                "PersonCandidate",
                vec![tuple![2i64, 20i64, "Ann"], tuple![2i64, 21i64, "Bob"]],
            )
            .unwrap();
        let mut rerun = Grounder::new(program(), rerun_db, standard_udfs()).unwrap();
        rerun.ground().unwrap();

        assert_eq!(
            inc_grounder.graph().num_variables(),
            rerun.graph().num_variables()
        );
        assert_eq!(
            inc_grounder.graph().num_factors(),
            rerun.graph().num_factors()
        );
        assert_eq!(
            inc_grounder.graph().num_weights(),
            rerun.graph().num_weights()
        );
    }

    #[test]
    fn new_supervision_rule_changes_evidence() {
        let mut g = grounded();
        assert_eq!(g.graph().stats().num_evidence_variables, 0);

        let s1 = Rule::new(
            "S1",
            RuleKind::Supervision,
            atom("MarriedMentions", &["m1", "m2"]),
            vec![
                atom("MarriedCandidate", &["m1", "m2"]),
                RuleAtom::new("EL", vec![Term::var("m1"), Term::var("e1")]),
                RuleAtom::new("EL", vec![Term::var("m2"), Term::var("e2")]),
                RuleAtom::new("Married", vec![Term::var("e1"), Term::var("e2")]),
            ],
            WeightSpec::Label(true),
        );
        let mut update = KbcUpdate::new();
        update.add_rule(s1);
        let inc = g.ground_incremental(&update).unwrap();

        assert_eq!(g.graph().stats().num_evidence_variables, 1);
        let v = g
            .variable_for("MarriedMentions", &tuple![10i64, 11i64])
            .unwrap();
        assert_eq!(g.graph().variable(v).fixed_value(), Some(true));
        assert_eq!(inc.new_evidence, vec![(v, true)]);
        assert!(!inc.retracted);
    }

    #[test]
    fn new_feature_rule_adds_weights_and_factors() {
        let mut g = grounded();
        let weights_before = g.graph().num_weights();

        // FE2: a coarser feature keyed on the sentence id bucket.
        let fe2 = Rule::new(
            "FE2",
            RuleKind::FeatureExtraction,
            atom("MarriedMentions", &["m1", "m2"]),
            vec![atom("MarriedCandidate", &["m1", "m2"])],
            WeightSpec::Learnable { initial: 0.0 },
        );
        let mut update = KbcUpdate::new();
        update.add_rule(fe2);
        let inc = g.ground_incremental(&update).unwrap();

        assert_eq!(inc.new_factors.len(), 1);
        assert_eq!(g.graph().num_weights(), weights_before + 1);
        assert_eq!(inc.new_groundings, 1);
        assert!(g.weight_for("FE2::rule").is_some());
    }

    #[test]
    fn deletion_retracts_the_factor_and_orphaned_variable() {
        let mut g = grounded();
        assert_eq!(g.graph().num_factors(), 1);
        assert_eq!(g.graph().num_variables(), 1);
        let mut update = KbcUpdate::new();
        update.delete("PersonCandidate", tuple![1i64, 11i64, "Michelle"]);
        let inc = g.ground_incremental(&update).unwrap();
        assert_eq!(inc.retracted_groundings, 1);
        assert!(inc.retracted);
        // The grounding, its factor, and the now-unreferenced variable are gone.
        assert_eq!(g.graph().num_factors(), 0);
        assert_eq!(g.graph().num_variables(), 0);
        assert!(g
            .variable_for("MarriedMentions", &tuple![10i64, 11i64])
            .is_none());
        // Base table, derived candidate, and head variable relation all shrank.
        assert!(!g
            .database()
            .table("PersonCandidate")
            .unwrap()
            .contains(&tuple![1i64, 11i64, "Michelle"]));
        assert!(!g
            .database()
            .table("MarriedCandidate")
            .unwrap()
            .contains(&tuple![10i64, 11i64]));
        assert!(!g
            .database()
            .table("MarriedMentions")
            .unwrap()
            .contains(&tuple![10i64, 11i64]));
        // The catalog delta records the removal for the snapshot publisher.
        let fresh = g.take_catalog_delta();
        assert!(fresh["MarriedMentions"]
            .iter()
            .any(|op| matches!(op, CatalogOp::Remove(t) if *t == tuple![10i64, 11i64])));
    }

    #[test]
    fn deleting_more_derivations_than_exist_is_a_typed_error() {
        let mut g = grounded();
        let mut update = KbcUpdate::new();
        // Two deletions of a tuple that carries one derivation.
        update.delete(
            "Sentence",
            tuple![1i64, "Barack and his wife Michelle attended the dinner"],
        );
        update.delete(
            "Sentence",
            tuple![1i64, "Barack and his wife Michelle attended the dinner"],
        );
        let err = g.ground_incremental(&update).unwrap_err();
        assert!(matches!(err, GroundingError::Retraction { .. }));
    }

    #[test]
    fn insert_then_delete_round_trips_to_the_original_graph() {
        let mut g = grounded();
        let baseline = g.graph().clone();
        let mut grow = KbcUpdate::new();
        grow.insert(
            "Sentence",
            tuple![2i64, "George and his wife Laura were married"],
        )
        .insert("PersonCandidate", tuple![2i64, 20i64, "George"])
        .insert("PersonCandidate", tuple![2i64, 21i64, "Laura"]);
        g.ground_incremental(&grow).unwrap();
        assert_eq!(g.graph().num_variables(), 2);

        let mut shrink = KbcUpdate::new();
        shrink
            .delete(
                "Sentence",
                tuple![2i64, "George and his wife Laura were married"],
            )
            .delete("PersonCandidate", tuple![2i64, 20i64, "George"])
            .delete("PersonCandidate", tuple![2i64, 21i64, "Laura"]);
        let inc = g.ground_incremental(&shrink).unwrap();
        assert_eq!(inc.retracted_groundings, 1);
        assert_eq!(g.graph().num_variables(), baseline.num_variables());
        assert_eq!(g.graph().num_factors(), baseline.num_factors());
        assert!(inc.retracted);
    }

    #[test]
    fn empty_update_is_a_noop() {
        let mut g = grounded();
        let before = g.graph().stats();
        let inc = g.ground_incremental(&KbcUpdate::new()).unwrap();
        assert!(inc.new_variables.is_empty() && inc.new_factors.is_empty());
        assert!(inc.new_evidence.is_empty());
        assert!(!inc.retracted);
        assert_eq!(inc.new_groundings, 0);
        assert_eq!(inc.retracted_groundings, 0);
        assert_eq!(g.graph().stats(), before);
        assert!(KbcUpdate::new().is_empty());
    }

    #[test]
    fn repeated_identical_update_grounds_nothing_new() {
        let mut g = grounded();
        let mut update = KbcUpdate::new();
        update
            .insert(
                "Sentence",
                tuple![2i64, "Carol and her husband Dave laughed"],
            )
            .insert("PersonCandidate", tuple![2i64, 20i64, "Carol"])
            .insert("PersonCandidate", tuple![2i64, 21i64, "Dave"]);
        let first = g.ground_incremental(&update).unwrap();
        assert_eq!(first.new_groundings, 1);
        // Applying an update that changes nothing further (its tuples are already
        // present, so the base delta adds derivation counts only) must not create
        // duplicate variables or factors.
        let factors_after_first = g.graph().num_factors();
        let second = g.ground_incremental(&update).unwrap();
        assert_eq!(second.new_groundings, 0);
        assert_eq!(g.graph().num_factors(), factors_after_first);
    }

    #[test]
    fn retract_supervision_unpins_and_suppresses_future_labels() {
        let mut g = grounded();
        let s1 = Rule::new(
            "S1",
            RuleKind::Supervision,
            atom("MarriedMentions", &["m1", "m2"]),
            vec![
                atom("MarriedCandidate", &["m1", "m2"]),
                RuleAtom::new("EL", vec![Term::var("m1"), Term::var("e1")]),
                RuleAtom::new("EL", vec![Term::var("m2"), Term::var("e2")]),
                RuleAtom::new("Married", vec![Term::var("e1"), Term::var("e2")]),
            ],
            WeightSpec::Label(true),
        );
        let mut add = KbcUpdate::new();
        add.add_rule(s1);
        g.ground_incremental(&add).unwrap();
        assert_eq!(g.graph().stats().num_evidence_variables, 1);

        let mut retract = KbcUpdate::new();
        retract.retract_supervision("MarriedMentions", tuple![10i64, 11i64]);
        let inc = g.ground_incremental(&retract).unwrap();
        assert!(inc.retracted);
        assert!(inc.new_evidence.is_empty());
        assert_eq!(g.graph().stats().num_evidence_variables, 0);
        let v = g
            .variable_for("MarriedMentions", &tuple![10i64, 11i64])
            .unwrap();
        assert_eq!(g.graph().variable(v).role, VariableRole::Query);
        assert!(!g.graph().variable(v).initial_value);
        assert!(g.is_supervision_suppressed("MarriedMentions", &tuple![10i64, 11i64]));
        // The suppressed record is still tracked, just label-free.
        let record = g.grounding_record("S1", &tuple![10i64, 11i64]).unwrap();
        assert_eq!(record.label, None);
    }

    /// A doc-keyed claims KB: six claims, their labels and two links per
    /// document, every rule joining on `doc`.  `Pair` adds a candidate rule
    /// and a self-join on a partial key, so the delta path goes through an
    /// index probe and a maintained view as well as point lookups.
    const CLAIMS: &str = "\
        relation Claim(doc: int, id: int) base.\n\
        relation Pos(doc: int, id: int) base.\n\
        relation Neg(doc: int, id: int) base.\n\
        relation Link(doc: int, a: int, b: int) base.\n\
        relation PairCandidate(doc: int, a: int, b: int) derived.\n\
        relation Fact(doc: int, id: int) variable.\n\
        relation Rel(doc: int, a: int, b: int) variable.\n\
        relation Pair(doc: int, a: int, b: int) variable.\n\
        rule C candidate: PairCandidate(doc, a, b) :- Link(doc, a, x), Link(doc, b, y), a < b.\n\
        rule F feature: Fact(doc, id) :- Claim(doc, id) weight = 1.5.\n\
        rule SP supervision+: Fact(doc, id) :- Claim(doc, id), Pos(doc, id).\n\
        rule SN supervision-: Fact(doc, id) :- Claim(doc, id), Neg(doc, id).\n\
        rule L feature: Rel(doc, a, b) :- Link(doc, a, b) weight = 0.5.\n\
        rule LP supervision+: Rel(doc, a, b) :- Link(doc, a, b), Pos(doc, a).\n\
        rule P feature: Pair(doc, a, b) :- PairCandidate(doc, a, b), Claim(doc, a) weight = 0.25.\n";

    fn claims_rows(doc: i64) -> Vec<(&'static str, Tuple)> {
        let mut rows = Vec::new();
        for id in 0..6 {
            rows.push(("Claim", tuple![doc, id]));
            let label = if (doc + id) % 3 == 0 { "Neg" } else { "Pos" };
            rows.push((label, tuple![doc, id]));
        }
        for index in 0..2 {
            rows.push(("Link", tuple![doc, index, (doc + index) % 6]));
        }
        rows
    }

    fn claims_grounder(docs: i64) -> Grounder {
        let program = crate::parser::parse_program(CLAIMS).unwrap();
        let mut db = Database::new();
        program.create_schema(&mut db);
        for doc in 0..docs {
            for (relation, row) in claims_rows(doc) {
                db.insert(relation, row).unwrap();
            }
        }
        let mut g = Grounder::new(program, db, standard_udfs()).unwrap();
        g.ground().unwrap();
        g
    }

    #[test]
    fn delta_work_does_not_depend_on_kb_size() {
        let new_docs = 1_000_000..1_000_008;
        let mut insert = KbcUpdate::new();
        let mut delete = KbcUpdate::new();
        for doc in new_docs {
            for (relation, row) in claims_rows(doc) {
                insert.insert(relation, row.clone());
                delete.delete(relation, row);
            }
        }
        let mut small = claims_grounder(500);
        let mut large = claims_grounder(5_000);
        for (what, update) in [("insert", &insert), ("delete", &delete)] {
            let on_small = small.ground_incremental(update).unwrap();
            let on_large = large.ground_incremental(update).unwrap();
            assert!(on_small.rows_probed > 0, "{what}");
            assert_eq!(on_small.rows_probed, on_large.rows_probed, "{what}");
            assert_eq!(on_small.new_groundings, on_large.new_groundings, "{what}");
            assert_eq!(
                on_small.retracted_groundings, on_large.retracted_groundings,
                "{what}"
            );
        }
        // The 8 documents came and went; each other one keeps its 6 `Fact`,
        // 2 `Rel` and 1 `Pair` variables.
        assert_eq!(small.graph().num_variables(), 500 * 9);
        assert_eq!(large.graph().num_variables(), 5_000 * 9);
    }

    /// A grounding's content whatever ids it assigned: variables by
    /// `(relation, tuple)` with their roles, each factor as its weight over
    /// its variables' keys, and the weights — each list sorted.
    fn content(g: &Grounder) -> [Vec<String>; 3] {
        let graph = g.graph();
        let mut keys = vec![String::new(); graph.num_variables()];
        for ((relation, tuple), &var) in g.variable_catalog() {
            keys[var] = format!("{relation}{tuple}");
        }
        let mut variables: Vec<String> = graph
            .variables()
            .iter()
            .map(|v| format!("{} {:?}", keys[v.id], v.role))
            .collect();
        let mut factors: Vec<String> = graph
            .factors()
            .iter()
            .map(|f| {
                let vars: Vec<&str> = f.variables().iter().map(|&v| keys[v].as_str()).collect();
                format!("{} {vars:?}", graph.weight(f.weight_id).description)
            })
            .collect();
        let mut weights: Vec<String> = graph
            .weights()
            .iter()
            .map(|w| format!("{} {}", w.description, w.value))
            .collect();
        for list in [&mut variables, &mut factors, &mut weights] {
            list.sort();
        }
        [variables, factors, weights]
    }

    /// `relation`'s stored rows with their counts, in tuple order.
    fn rows_of(g: &Grounder, relation: &str) -> Vec<(Tuple, i64)> {
        let table = g.database().table(relation).unwrap();
        table
            .iter_net_counted()
            .map(|(t, c)| (t.clone(), c))
            .collect()
    }

    #[test]
    fn a_head_regrounded_after_its_last_reference_went_is_inserted_again() {
        let i1 = Rule::new(
            "I1",
            RuleKind::Inference,
            atom("MarriedMentions", &["m2", "m1"]),
            vec![atom("MarriedMentions", &["m1", "m2"])],
            WeightSpec::Fixed(3.0),
        );
        let mut g = Grounder::new(program().rule(i1.clone()), base_db(), standard_udfs()).unwrap();
        g.ground().unwrap();
        let head = tuple![10i64, 11i64];
        let michelle = tuple![1i64, 11i64, "Michelle"];

        // FE1's only grounding onto MarriedMentions(10, 11) goes: the head
        // leaves its table, while I1's factor keeps the variable alive as a
        // body literal.
        let mut delete = KbcUpdate::new();
        delete.delete("PersonCandidate", michelle.clone());
        g.ground_incremental(&delete).unwrap();
        assert!(g.variable_for("MarriedMentions", &head).is_some());
        assert!(!g
            .database()
            .table("MarriedMentions")
            .unwrap()
            .contains(&head));

        // Derived again: the head's first reference puts it back.
        let mut insert = KbcUpdate::new();
        insert.insert("PersonCandidate", michelle);
        g.ground_incremental(&insert).unwrap();
        let mut scratch = Grounder::new(program().rule(i1), base_db(), standard_udfs()).unwrap();
        scratch.ground().unwrap();
        assert_eq!(
            rows_of(&g, "MarriedMentions"),
            rows_of(&scratch, "MarriedMentions")
        );
    }

    #[test]
    fn a_head_deleted_by_an_update_is_inserted_by_its_next_grounding() {
        let mut g = claims_grounder(2);
        // Fact(0, 0) is F's and SN's head; the update deletes it from the
        // variable relation directly and labels it positive too.
        let mut update = KbcUpdate::new();
        update
            .delete("Fact", tuple![0i64, 0i64])
            .insert("Pos", tuple![0i64, 0i64]);
        let grounded = g.ground_incremental(&update).unwrap();
        assert_eq!(grounded.new_groundings, 2, "SP and LP");
        assert!(g
            .database()
            .table("Fact")
            .unwrap()
            .contains(&tuple![0i64, 0i64]));
    }

    #[test]
    fn a_rule_added_with_new_data_sees_the_heads_that_data_grounds() {
        let i1 = || {
            Rule::new(
                "I1",
                RuleKind::Inference,
                atom("MarriedMentions", &["m2", "m1"]),
                vec![atom("MarriedMentions", &["m1", "m2"])],
                WeightSpec::Fixed(3.0),
            )
        };
        let document = [
            (
                "Sentence",
                tuple![2i64, "George and his wife Laura were married"],
            ),
            ("PersonCandidate", tuple![2i64, 20i64, "George"]),
            ("PersonCandidate", tuple![2i64, 21i64, "Laura"]),
        ];
        let mut g = grounded();
        let mut update = KbcUpdate::new();
        for (relation, row) in &document {
            update.insert(relation, row.clone());
        }
        update.add_rule(i1());
        g.ground_incremental(&update).unwrap();

        // From scratch: FE1 puts MarriedMentions(20, 21) in its table
        // before I1 reads it, so I1 grounds its mirror image too.
        let mut db = base_db();
        for (relation, row) in document {
            db.insert(relation, row).unwrap();
        }
        let mut scratch = Grounder::new(program().rule(i1()), db, standard_udfs()).unwrap();
        scratch.ground().unwrap();
        assert!(g
            .variable_for("MarriedMentions", &tuple![21i64, 20i64])
            .is_some());
        assert_eq!(content(&g), content(&scratch));
    }
}
