//! Full grounding: program + database → factor graph.
//!
//! "Grounding: … one evaluates a sequence of SQL queries to produce a data
//! structure called a factor graph … Essentially, every tuple in the database or
//! result of a query is a random variable (node) in this factor graph" (§1,
//! Figure 3).  The [`Grounder`] owns the database, the catalogs mapping tuples to
//! variables and tying keys to weights, and the factor graph it produces; the
//! incremental grounder in [`crate::incremental`] updates all of them in place.

use crate::ast::{Rule, RuleKind, WeightSpec};
use crate::catalog::{RelSlot, VariableCatalog};
use crate::error::{GroundingError, ProgramError};
use crate::program::{Program, RelationRole};
use crate::udf::UdfRegistry;
use dd_factorgraph::{
    Factor, FactorGraph, FactorId, FactorKind, Lit, RelName, Semantics, VarId, Variable,
    VariableRole, Weight, WeightId,
};
use dd_relstore::RowMap;
use dd_relstore::Term;
use dd_relstore::{
    Column, DataType, Database, ExecStats, MaterializedView, QueryPlan, RelError, Schema, Table,
    Tuple, Value,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Summary of one grounding run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundingResult {
    pub num_variables: usize,
    pub num_factors: usize,
    pub num_weights: usize,
    pub num_evidence: usize,
    /// Per-rule number of groundings produced.
    pub groundings_per_rule: HashMap<String, usize>,
    /// Rows the run's queries probed — candidate-mapping views and body
    /// queries together (see [`ExecStats::rows_probed`]); 0 in
    /// `Grounder::result`, which describes state, not a run.
    pub rows_probed: u64,
}

/// One operation against a relation's published catalog shard.  The grounder
/// emits these in chronological order; the publisher nets them per tuple
/// (last op wins) and re-indexes only the relations that appear — the same
/// O(Δ) contract the grow-only dirty-set had, extended with removals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogOp {
    /// The tuple maps to this variable id (new variable, or an existing
    /// variable whose id moved during compaction).
    Upsert(Tuple, VarId),
    /// The tuple's variable was retracted.
    Remove(Tuple),
}

impl CatalogOp {
    /// Net one relation's chronological op-log to one change per tuple —
    /// the last op wins: `Some(var)` for an upsert, `None` for a removal —
    /// in tuple order.  One stable sort keeps each tuple's ops in log order;
    /// a cold start's log is tuple-ordered already, which the sort detects
    /// in one pass.
    pub fn net(ops: Vec<CatalogOp>) -> Vec<(Tuple, Option<VarId>)> {
        let mut changes: Vec<(Tuple, Option<VarId>)> = ops
            .into_iter()
            .map(|op| match op {
                CatalogOp::Upsert(tuple, var) => (tuple, Some(var)),
                CatalogOp::Remove(tuple) => (tuple, None),
            })
            .collect();
        changes.sort_by(|a, b| a.0.cmp(&b.0));
        changes.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        changes
    }
}

/// Book-keeping for one grounded binding of a weighted or supervision rule.
///
/// `support` counts the binding's derivations in the rule's body query —
/// the Z-set multiplicity.  Positive deltas raise it, negative deltas lower
/// it; at zero the grounding's artifacts (factor or label) are retracted.
/// Driving it below zero is a typed [`GroundingError::Retraction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundingRecord {
    pub support: i64,
    /// The factor this grounding created (weighted rules).  Kept current
    /// across `swap_remove` compaction moves.
    pub factor: Option<FactorId>,
    /// The label this grounding contributed (supervision rules); `None` when
    /// the head's supervision is suppressed by `retract_supervision`.
    pub label: Option<bool>,
}

/// Per-variable usage counters.  Stored in a vector parallel to the graph's
/// variables and compacted with the same `swap_remove` moves, so a counter
/// always sits at its variable's current id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct VarUse {
    /// Grounding records referencing the variable: as their head, or as a
    /// body literal of the factor they created.
    pub refs: i64,
    /// Grounding records whose *head* is this variable.
    pub head_refs: i64,
    /// Positive supervision labels currently attached.
    pub pos_labels: i64,
    /// Negative supervision labels currently attached.
    pub neg_labels: i64,
}

impl VarUse {
    /// Give `var` the role these label counts imply, returning the role it
    /// held when that changes it.  Negative evidence dominates positive (a
    /// deliberate, order-independent policy — last-writer-wins would make
    /// incremental and from-scratch grounding diverge on conflicting labels).
    pub(crate) fn apply_role(&self, var: &mut Variable) -> Option<VariableRole> {
        let role = if self.neg_labels > 0 {
            VariableRole::NegativeEvidence
        } else if self.pos_labels > 0 {
            VariableRole::PositiveEvidence
        } else {
            VariableRole::Query
        };
        if var.role == role {
            return None;
        }
        var.initial_value = role.fixed_value().unwrap_or(false);
        Some(std::mem::replace(&mut var.role, role))
    }

    pub(crate) fn add_label(&mut self, polarity: bool, by: i64) {
        if polarity {
            self.pos_labels += by;
        } else {
            self.neg_labels += by;
        }
    }
}

/// Where one term of an atom instantiated under a binding comes from.
#[derive(Debug, Clone)]
enum TermSrc {
    Const(Value),
    /// Position in the body query's projection (the binding tuple).
    Binding(usize),
    /// A variable the projection does not carry.
    Null,
}

impl TermSrc {
    /// The source of rule variable `name` under a body query projecting
    /// onto `projection`.
    fn var(projection: &[String], name: &str) -> Self {
        projection
            .iter()
            .position(|p| p == name)
            .map_or(TermSrc::Null, TermSrc::Binding)
    }

    fn value<'a>(&'a self, binding: &'a Tuple) -> &'a Value {
        match self {
            TermSrc::Const(v) => v,
            TermSrc::Binding(i) => binding.get(*i).unwrap_or(&Value::Null),
            TermSrc::Null => &Value::Null,
        }
    }
}

/// An atom over a variable relation, ready to be instantiated per binding.
#[derive(Debug, Clone)]
pub(crate) struct AtomTemplate {
    /// The relation's interned name.
    pub relation: RelName,
    /// Its slot in the grounder's variable catalog, resolved once here so
    /// grounding a binding never looks a relation up by name.
    pub slot: RelSlot,
    terms: Vec<TermSrc>,
    /// The terms are exactly the projection, in order: the instantiated
    /// tuple *is* the binding (the usual shape of a rule head).
    is_binding: bool,
    /// Literal polarity (body atoms; the head is always positive).
    pub positive: bool,
}

impl AtomTemplate {
    fn new(
        atom: &crate::ast::RuleAtom,
        projection: &[String],
        catalog: &mut VariableCatalog,
    ) -> Self {
        let terms: Vec<TermSrc> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(v) => TermSrc::Const(v.clone()),
                Term::Var(v) => TermSrc::var(projection, v),
            })
            .collect();
        let is_binding = terms.len() == projection.len()
            && terms
                .iter()
                .enumerate()
                .all(|(i, t)| matches!(t, TermSrc::Binding(at) if *at == i));
        let slot = catalog.intern(&atom.relation);
        AtomTemplate {
            relation: catalog.relation(slot).handle.clone(),
            slot,
            terms,
            is_binding,
            positive: !atom.negated,
        }
    }

    pub(crate) fn instantiate(&self, binding: &Tuple) -> Tuple {
        if self.is_binding && binding.arity() == self.terms.len() {
            return binding.clone();
        }
        Tuple::from_iter(self.terms.iter().map(|t| t.value(binding).clone()))
    }

    /// Whether `self.instantiate(binding) == *tuple`, without building it.
    fn instantiates_to(&self, binding: &Tuple, tuple: &Tuple) -> bool {
        self.terms.len() == tuple.arity()
            && self
                .terms
                .iter()
                .zip(tuple.values())
                .all(|(t, v)| t.value(binding) == v)
    }
}

/// How the weight of one grounding is found.
#[derive(Debug, Clone)]
enum WeightTemplate {
    /// One weight for every grounding of the rule.
    Shared {
        description: String,
        initial: f64,
        fixed: bool,
    },
    /// `rule::udf(args…)`: groundings whose UDF output matches share a weight.
    Tied {
        prefix: String,
        udf: String,
        args: Vec<TermSrc>,
    },
}

/// Everything about a weighted or supervision rule that does not depend on
/// the binding being grounded, computed once when the rule enters the
/// program: the compiled body query and, relative to its projection, the
/// head, the body literals and the weight key.
#[derive(Debug)]
pub(crate) struct RuleTemplate {
    /// Position of the rule in `program.rules`.
    pub index: usize,
    pub name: String,
    /// The body query projecting onto [`Rule::projection_vars`].
    pub plan: QueryPlan,
    pub head: AtomTemplate,
    /// Body atoms over variable relations: the factor's body literals.
    /// Empty for label rules, which create no factor.
    pub body_vars: Vec<AtomTemplate>,
    /// Label polarity for supervision rules; weighted rules carry `None`.
    pub label: Option<bool>,
    weight: WeightTemplate,
    pub semantics: Semantics,
}

impl RuleTemplate {
    /// Compile the template of `rule`, which is (or is about to become)
    /// `program.rules[index]`; `None` for rule kinds the grounder never
    /// grounds bindings of.  The variable relations the rule mentions get
    /// their (possibly still empty) slot in `catalog`.
    pub(crate) fn compile(
        program: &Program,
        catalog: &mut VariableCatalog,
        rule: &Rule,
        index: usize,
    ) -> Result<Option<Arc<Self>>, RelError> {
        if !matches!(
            rule.kind,
            RuleKind::FeatureExtraction | RuleKind::Inference | RuleKind::Supervision
        ) {
            return Ok(None);
        }
        let projection = rule.projection_vars();
        let label = match (&rule.kind, &rule.weight) {
            (RuleKind::Supervision, WeightSpec::Label(polarity)) => Some(*polarity),
            _ => None,
        };
        let shared = |suffix: &str, initial: f64, fixed: bool| WeightTemplate::Shared {
            description: format!("{}::{suffix}", rule.name),
            initial,
            fixed,
        };
        let weight = match &rule.weight {
            WeightSpec::Fixed(w) => shared("fixed", *w, true),
            WeightSpec::Learnable { initial } => shared("rule", *initial, false),
            WeightSpec::Tied { udf, args } => WeightTemplate::Tied {
                prefix: format!("{}::", rule.name),
                udf: udf.clone(),
                args: args.iter().map(|a| TermSrc::var(&projection, a)).collect(),
            },
            WeightSpec::Label(_) | WeightSpec::None => shared("none", 0.0, true),
        };
        let body_vars = if label.is_some() {
            Vec::new()
        } else {
            rule.body
                .iter()
                .filter(|atom| program.role_of(&atom.relation) == RelationRole::Variable)
                .map(|atom| AtomTemplate::new(atom, &projection, catalog))
                .collect()
        };
        Ok(Some(Arc::new(RuleTemplate {
            index,
            name: rule.name.clone(),
            plan: QueryPlan::compile(&rule.body_query())?,
            head: AtomTemplate::new(&rule.head, &projection, catalog),
            body_vars,
            label,
            weight,
            semantics: rule.semantics,
        })))
    }

    /// The weight descriptor of one grounding: `(tying key, initial value, fixed)`.
    pub(crate) fn weight_descriptor(
        &self,
        udfs: &UdfRegistry,
        binding: &Tuple,
    ) -> (Cow<'_, str>, f64, bool) {
        match &self.weight {
            WeightTemplate::Shared {
                description,
                initial,
                fixed,
            } => (Cow::Borrowed(description), *initial, *fixed),
            WeightTemplate::Tied { prefix, udf, args } => {
                let arg_values: Vec<Value> =
                    args.iter().map(|a| a.value(binding).clone()).collect();
                let key = udfs.call(udf, &arg_values);
                (Cow::Owned(format!("{prefix}{key}")), 0.0, false)
            }
        }
    }
}

/// The grounding engine.
pub struct Grounder {
    pub(crate) program: Program,
    pub(crate) db: Database,
    pub(crate) udfs: UdfRegistry,
    pub(crate) graph: FactorGraph,
    /// Per-rule grounding templates, parallel to `program.rules`.
    pub(crate) templates: Vec<Option<Arc<RuleTemplate>>>,
    /// Per-relation `tuple → variable id` maps with their pending publish
    /// ops and suppressed supervision heads, plus the inverse map and the
    /// usage counters (vectors parallel to the graph's variables, patched on
    /// every `swap_remove` move).
    pub(crate) catalog: VariableCatalog,
    /// weight description → weight id, covering only weights with at least one
    /// referencing factor.  Orphaned weight slots stay in the graph (learned
    /// weight vectors are indexed by `WeightId`) but leave the catalog.
    pub(crate) weight_catalog: RowMap<String, WeightId>,
    /// rule name → grounded body-query bindings with their support records.
    /// `BTreeMap` so retraction sweeps are deterministic per seed.
    pub(crate) grounded_bindings: RowMap<String, BTreeMap<Tuple, GroundingRecord>>,
    /// factor id → (rule index, binding) that owns it: the inverse of
    /// `GroundingRecord::factor`, parallel to the graph's factors and
    /// compacted with the same `swap_remove` moves.
    pub(crate) factor_owners: Vec<(usize, Tuple)>,
    /// weight id → number of referencing factors, parallel to the graph's
    /// weights.
    pub(crate) weight_use: Vec<i64>,
    /// Materialized views for candidate-mapping rules (incremental maintenance).
    pub(crate) candidate_views: HashMap<String, MaterializedView>,
}

/// The graph-side state a grounding loop mutates, borrowed apart from the
/// database and the record maps so the loop can hold its rule's head table
/// and record map across bindings.
struct GraphSide<'a> {
    graph: &'a mut FactorGraph,
    catalog: &'a mut VariableCatalog,
    weight_catalog: &'a mut RowMap<String, WeightId>,
    factor_owners: &'a mut Vec<(usize, Tuple)>,
    weight_use: &'a mut Vec<i64>,
    udfs: &'a UdfRegistry,
}

impl GraphSide<'_> {
    /// Ground one not-yet-grounded body-query binding of a weighted or
    /// supervision rule with the given derivation count, which becomes the
    /// retraction support of the record returned for it (with the head
    /// tuple, for the caller to insert into the head relation, and the head
    /// variable).  A label is only counted: the caller settles the head's
    /// role ([`VarUse::apply_role`]).
    /// `shared_weight` caches the rule's weight id across the bindings of
    /// one loop when every grounding shares it.
    fn ground_binding(
        &mut self,
        template: &RuleTemplate,
        binding: &Tuple,
        count: i64,
        shared_weight: &mut Option<WeightId>,
    ) -> (GroundingRecord, Tuple, VarId) {
        // Resolve the head tuple and its variable.
        let head_tuple = template.head.instantiate(binding);
        let (head_relation, vars) = self.catalog.relation_and_vars(template.head.slot);
        let head_var = head_relation.var_for(&head_tuple, vars, self.graph);

        let mut record = GroundingRecord {
            support: count.max(1),
            factor: None,
            label: None,
        };

        match template.label {
            Some(polarity) => {
                let usage = &mut vars.usage[head_var];
                if !head_relation.suppressed.contains(&head_tuple) {
                    record.label = Some(polarity);
                    usage.add_label(polarity, 1);
                }
                usage.refs += 1;
            }
            None => {
                let weight_id = self.weight_for_binding(template, binding, shared_weight);
                // Body atoms over variable relations become body literals.
                let mut body_lits = Vec::with_capacity(template.body_vars.len());
                for atom in &template.body_vars {
                    let (relation, vars) = self.catalog.relation_and_vars(atom.slot);
                    let var = relation.var_for(&atom.instantiate(binding), vars, self.graph);
                    body_lits.push(Lit {
                        var,
                        positive: atom.positive,
                    });
                }
                // Reference counting, for retraction: once per distinct variable.
                let usage = &mut self.catalog.vars.usage;
                if body_lits.is_empty() {
                    usage[head_var].refs += 1;
                } else {
                    let mut referenced: Vec<VarId> = body_lits.iter().map(|l| l.var).collect();
                    referenced.push(head_var);
                    referenced.sort_unstable();
                    referenced.dedup();
                    for var in referenced {
                        usage[var].refs += 1;
                    }
                }
                let factor =
                    Grounder::make_factor(weight_id, body_lits, head_var, template.semantics);
                let fid = self.graph.add_factor(factor);
                record.factor = Some(fid);
                debug_assert_eq!(
                    fid,
                    self.factor_owners.len(),
                    "factors are appended densely"
                );
                self.factor_owners.push((template.index, binding.clone()));
                if self.weight_use.len() <= weight_id {
                    self.weight_use.resize(weight_id + 1, 0);
                }
                self.weight_use[weight_id] += 1;
            }
        }
        self.catalog.vars.usage[head_var].head_refs += 1;
        (record, head_tuple, head_var)
    }

    /// Resolve the weight for one grounding of a rule, creating it on first use.
    fn weight_for_binding(
        &mut self,
        template: &RuleTemplate,
        binding: &Tuple,
        shared_weight: &mut Option<WeightId>,
    ) -> WeightId {
        if let Some(w) = *shared_weight {
            return w;
        }
        let (description, initial, fixed) = template.weight_descriptor(self.udfs, binding);
        // A borrowed description is the rule's one weight for every
        // grounding: nothing about the next binding can change the answer.
        let shared = matches!(description, Cow::Borrowed(_));
        let id = match self.weight_catalog.get(description.as_ref()) {
            Some(&w) => w,
            None => {
                let weight = if fixed {
                    Weight::fixed(0, initial, description.as_ref())
                } else {
                    Weight::learnable(0, initial, description.as_ref())
                };
                let id = self.graph.add_weight(weight);
                self.weight_catalog.insert(description.into_owned(), id);
                id
            }
        };
        if shared {
            *shared_weight = Some(id);
        }
        id
    }
}

impl Grounder {
    /// Create a grounder over a program, database, and UDF registry.  Declared
    /// relations missing from the database are created empty.
    pub fn new(
        program: Program,
        mut db: Database,
        udfs: UdfRegistry,
    ) -> Result<Self, GroundingError> {
        program.validate()?;
        program.create_schema(&mut db);
        let mut grounder = Grounder {
            program,
            db,
            udfs,
            graph: FactorGraph::new(),
            templates: Vec::new(),
            catalog: VariableCatalog::default(),
            weight_catalog: RowMap::default(),
            grounded_bindings: RowMap::default(),
            factor_owners: Vec::new(),
            weight_use: Vec::new(),
            candidate_views: HashMap::new(),
        };
        grounder.compile_templates()?;
        Ok(grounder)
    }

    /// Compile the template of every rule of the program.
    fn compile_templates(&mut self) -> Result<(), RelError> {
        self.templates = self
            .program
            .rules
            .iter()
            .enumerate()
            .map(|(index, rule)| {
                RuleTemplate::compile(&self.program, &mut self.catalog, rule, index)
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Templates of the weighted and supervision rules, in program order.
    pub(crate) fn grounding_templates(&self) -> Vec<Arc<RuleTemplate>> {
        self.templates.iter().flatten().cloned().collect()
    }

    // ---------------------------------------------------------------- accessors

    /// The current factor graph.
    pub fn graph(&self) -> &FactorGraph {
        &self.graph
    }

    /// Mutable access to the factor graph (the engine's learner needs it).
    pub fn graph_mut(&mut self) -> &mut FactorGraph {
        &mut self.graph
    }

    /// The database (post-grounding it also holds derived candidate tuples).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable database access (used to load base data before grounding).
    /// Whatever it removes, grounding re-inserts the heads of later
    /// groundings as needed.
    pub fn database_mut(&mut self) -> &mut Database {
        self.catalog.heads_maybe_removed(None);
        &mut self.db
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The UDF registry.
    pub fn udfs(&self) -> &UdfRegistry {
        &self.udfs
    }

    /// Variable id of a tuple, if it has one.
    pub fn variable_for(&self, relation: &str, tuple: &Tuple) -> Option<VarId> {
        self.catalog.get(relation, tuple)
    }

    /// Iterate over the `(relation, tuple) → variable` catalog, relation by
    /// relation (entries of one relation in no particular order).
    pub fn variable_catalog(&self) -> impl Iterator<Item = ((&String, &Tuple), &VarId)> {
        self.catalog.iter()
    }

    /// Number of entries in the `(relation, tuple) → variable` catalog.
    pub fn num_catalogued_variables(&self) -> usize {
        self.catalog.len()
    }

    /// Drain the catalog ops recorded since the last drain, grouped by
    /// relation in sorted order.  The keys are exactly the relations a
    /// publisher must re-index — every other relation's index is unchanged —
    /// which is what makes the catalog side of snapshot publication O(Δ)
    /// instead of O(catalog).
    /// Ops within a relation are chronological; netting them per tuple
    /// (last op wins) yields the upserts and removals to apply.
    pub fn take_catalog_delta(&mut self) -> BTreeMap<String, Vec<CatalogOp>> {
        self.catalog.take_delta()
    }

    /// Weight id for a tying key, if it has at least one live factor.
    pub fn weight_for(&self, description: &str) -> Option<WeightId> {
        self.weight_catalog.get(description).copied()
    }

    /// True if supervision labels on this head are suppressed.
    pub fn is_supervision_suppressed(&self, relation: &str, tuple: &Tuple) -> bool {
        self.catalog.is_suppressed(relation, tuple)
    }

    // ---------------------------------------------------------------- grounding

    /// Ground the whole program from scratch.
    pub fn ground(&mut self) -> Result<GroundingResult, GroundingError> {
        // Phase 1: candidate mappings in stratified order.
        let ordered: Vec<Rule> = self
            .program
            .stratified_candidate_rules()
            .ok_or(ProgramError::CyclicCandidateRules)?
            .into_iter()
            .cloned()
            .collect();
        let mut stats = ExecStats::default();
        for rule in &ordered {
            self.evaluate_candidate_rule(rule)?;
            stats.rows_probed += self.candidate_views[&rule.name].rows_probed();
        }

        // Phase 2: weighted and supervision rules.
        for template in self.grounding_templates() {
            self.ground_rule(&template, &mut stats, None)?;
        }

        Ok(GroundingResult {
            rows_probed: stats.rows_probed,
            ..self.result()
        })
    }

    /// Ground one weighted or supervision rule over the current database,
    /// skipping bindings already grounded (see [`Grounder::ground_bindings`]).
    pub(crate) fn ground_rule(
        &mut self,
        template: &RuleTemplate,
        stats: &mut ExecStats,
        labelled: Option<&mut Vec<VarId>>,
    ) -> Result<usize, RelError> {
        let bindings = template.plan.bindings(&self.db, stats)?;
        Ok(self.ground_bindings(template, bindings, labelled))
    }

    /// Ground the not-yet-grounded ones of `bindings` — body-query bindings
    /// of one weighted or supervision rule in tuple order, each with its
    /// derivation count — into the graph, the catalogs, the rule's records
    /// and its head relation, returning how many were grounded.  A labelled
    /// head's role is settled at once, or, given `labelled`, left to the
    /// caller: the head's id is pushed there instead.
    pub(crate) fn ground_bindings(
        &mut self,
        template: &RuleTemplate,
        bindings: Vec<(Tuple, i64)>,
        mut labelled: Option<&mut Vec<VarId>>,
    ) -> usize {
        // Everything a binding needs is resolved once per rule: the rule's
        // records leave the grounder for the loop, the head relation's table
        // is held across it, and the catalogs are reached through the
        // template's slots — a binding costs no lookup by name.
        let mut records = self
            .grounded_bindings
            .remove(&template.name)
            .unwrap_or_default();
        let mut side = GraphSide {
            graph: &mut self.graph,
            catalog: &mut self.catalog,
            weight_catalog: &mut self.weight_catalog,
            factor_owners: &mut self.factor_owners,
            weight_use: &mut self.weight_use,
            udfs: &self.udfs,
        };
        let mut shared_weight = None;
        let heads_in_table = side.catalog.relation(template.head.slot).heads_in_table;
        // Bindings arrive in tuple order, so the new records are collected
        // and enter the map in one ordered pass; the head tuples too enter
        // their relation in one ordered pass after the loop, which reads no
        // table.  A head some earlier grounding already references is in
        // the table while `heads_in_table` holds: only a head's first
        // reference inserts it.
        let mut grounded: Vec<(Tuple, GroundingRecord)> = Vec::new();
        let mut heads: Vec<Tuple> = Vec::with_capacity(bindings.len());
        for (binding, count) in bindings {
            if records.contains_key(&binding) {
                continue;
            }
            let (record, head_tuple, head) =
                side.ground_binding(template, &binding, count, &mut shared_weight);
            if !heads_in_table || side.catalog.vars.usage[head].head_refs == 1 {
                heads.push(head_tuple);
            }
            if record.label.is_some() {
                match labelled.as_deref_mut() {
                    Some(labelled) => labelled.push(head),
                    None => {
                        side.catalog.vars.usage[head].apply_role(side.graph.variable_mut(head));
                    }
                }
            }
            grounded.push((binding, record));
        }
        // Make sure every head tuple exists in its relation so
        // error-analysis queries can see it (unless it does not fit the
        // declared schema).  A head that is the binding itself arrives
        // sorted already, and sorted tuples past the table's last row are
        // appended.
        if let Ok(table) = self.db.table_mut(&template.head.relation) {
            heads.sort_unstable();
            heads.dedup();
            for head in heads {
                let _ = table.insert_if_absent(head);
            }
        }
        let new_groundings = grounded.len();
        if records.is_empty() {
            records = grounded.into_iter().collect();
        } else {
            records.extend(grounded);
        }
        self.grounded_bindings
            .insert(template.name.clone(), records);
        new_groundings
    }

    /// Evaluate one candidate-mapping rule, inserting the (distinct) head tuples
    /// into the head relation and remembering the materialized view.
    pub(crate) fn evaluate_candidate_rule(&mut self, rule: &Rule) -> Result<usize, RelError> {
        let head_vars = rule.head_vars();
        let query = dd_relstore::ConjunctiveQuery::new(
            rule.head.relation.clone(),
            head_vars,
            rule.body.clone(),
        )
        .with_filters(rule.filters.clone());
        let view = MaterializedView::materialize(query, &self.db)?;
        let mut inserted = 0usize;
        {
            let head_table = self.db.table_mut(&rule.head.relation)?;
            for tuple in view.result().iter() {
                if head_table.insert_if_absent(tuple.clone())? {
                    inserted += 1;
                }
            }
        }
        self.candidate_views.insert(rule.name.clone(), view);
        Ok(inserted)
    }

    /// The variables a grounding record of `template` under `binding`
    /// references — its head and, for weighted rules, the body literals of
    /// its factor — resolved through the catalog: `(head, distinct ids)`.
    /// A label rule's body is not referenced: it creates no factor, so
    /// nothing of it lives in the graph.
    pub(crate) fn record_vars(
        &self,
        template: &RuleTemplate,
        binding: &Tuple,
    ) -> (Option<VarId>, Vec<VarId>) {
        let var_of = |atom: &AtomTemplate| {
            let relation = self.catalog.relation(atom.slot);
            relation.vars.get(&atom.instantiate(binding)).copied()
        };
        let head = var_of(&template.head);
        let mut vars: Vec<VarId> = head
            .into_iter()
            .chain(template.body_vars.iter().filter_map(var_of))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        (head, vars)
    }

    /// Build the factor for one grounding.  With Linear semantics (or an empty
    /// body) this is the classic per-grounding factor; with Ratio/Logical
    /// semantics a single-grounding Aggregate factor carries the `g` function.
    pub(crate) fn make_factor(
        weight_id: WeightId,
        body_lits: Vec<Lit>,
        head_var: VarId,
        semantics: Semantics,
    ) -> Factor {
        if body_lits.is_empty() {
            return Factor::is_true(weight_id, head_var);
        }
        match semantics {
            Semantics::Linear => Factor::new(
                weight_id,
                FactorKind::Imply {
                    body: body_lits,
                    head: Lit::pos(head_var),
                },
            ),
            _ => Factor::new(
                weight_id,
                FactorKind::Aggregate {
                    head: Lit::pos(head_var),
                    semantics,
                    groundings: vec![body_lits],
                },
            ),
        }
    }

    /// Summary of the current grounding state.
    pub(crate) fn result(&self) -> GroundingResult {
        let stats = self.graph.stats();
        GroundingResult {
            num_variables: stats.num_variables,
            num_factors: stats.num_factors,
            num_weights: stats.num_weights,
            num_evidence: stats.num_evidence_variables,
            groundings_per_rule: self
                .grounded_bindings
                .iter()
                .map(|(k, v)| (k.clone(), v.len()))
                .collect(),
            rows_probed: 0,
        }
    }

    /// The `<relation>_marginal` table — `(original columns…, probability)`
    /// for every variable of `relation` — built on demand.  This mirrors
    /// DeepDive reloading each tuple into the database with its marginal
    /// probability (§2.5); serving reads go through snapshots instead, so
    /// nothing materializes these tables per epoch.  The slice is indexed by
    /// variable id; variables beyond its end are skipped.
    pub fn marginal_table(&self, relation: &str, marginals: &[f64]) -> Result<Table, RelError> {
        let base = self.db.table(relation)?;
        let mut columns: Vec<Column> = base.schema().columns().to_vec();
        columns.push(Column::new("probability", DataType::Float));
        let mut table = Table::new(format!("{relation}_marginal"), Schema::new(columns));
        let Some(catalog) = self.catalog.by_name(relation) else {
            return Ok(table);
        };
        for (tuple, &var) in &catalog.vars {
            if let Some(&p) = marginals.get(var) {
                let mut values = tuple.values().to_vec();
                values.push(Value::Float(p));
                table.insert(Tuple::new(values))?;
            }
        }
        Ok(table)
    }

    /// Permanently suppress supervision for one head tuple and un-pin any
    /// labels it already carries.
    ///
    /// The suppression is *sticky*: the head joins `suppressed_labels`, so
    /// labels from supervision-rule groundings that arrive later (including a
    /// from-scratch rebuild replaying the same updates) are recorded with
    /// `label: None` and never pin the variable.  Existing label-carrying
    /// records have their label taken and the usage counters decremented,
    /// and the variable takes the role its remaining labels imply, in place.
    pub fn apply_supervision_retraction(&mut self, relation: &str, tuple: &Tuple) {
        let slot = self.catalog.intern(relation);
        let (head_relation, vars) = self.catalog.relation_and_vars(slot);
        head_relation.suppressed.insert(tuple.clone());

        let mut pos_cleared = 0i64;
        let mut neg_cleared = 0i64;
        for template in self.templates.iter().flatten() {
            if template.label.is_none() || template.head.slot != slot {
                continue;
            }
            let Some(records) = self.grounded_bindings.get_mut(&template.name) else {
                continue;
            };
            for (binding, record) in records.iter_mut() {
                if record.label.is_none() || !template.head.instantiates_to(binding, tuple) {
                    continue;
                }
                match record.label.take() {
                    Some(true) => pos_cleared += 1,
                    Some(false) => neg_cleared += 1,
                    None => unreachable!(),
                }
            }
        }

        let Some(&var) = head_relation.vars.get(tuple) else {
            return;
        };
        let usage = &mut vars.usage[var];
        usage.pos_labels -= pos_cleared;
        usage.neg_labels -= neg_cleared;
        usage.apply_role(self.graph.variable_mut(var));
    }

    // ------------------------------------------------------------- persistence

    /// Every piece of grounder state a checkpoint must carry, borrowed, in
    /// deterministic (sorted) order.  Nothing is copied: the orderings the
    /// checkpoint format needs are vectors of references.
    ///
    /// The UDF registry is deliberately absent: it holds function pointers
    /// and cannot be serialized — [`Grounder::from_state`] takes it back as
    /// an argument.  Candidate-mapping views are represented by rule *name*
    /// only; restore re-materializes them from the restored database, which
    /// reproduces the maintained view exactly (view maintenance is
    /// deterministic in the database contents).
    pub fn export_state(&self) -> GrounderStateRef<'_> {
        let mut var_catalog: Vec<(&str, &Tuple, VarId)> = Vec::with_capacity(self.catalog.len());
        var_catalog.extend(
            self.catalog
                .iter()
                .map(|((rel, tuple), &var)| (rel.as_str(), tuple, var)),
        );
        var_catalog.sort_unstable();
        let mut grounded_bindings: Vec<(&str, &BTreeMap<Tuple, GroundingRecord>)> = self
            .grounded_bindings
            .iter()
            .map(|(rule, records)| (rule.as_str(), records))
            .collect();
        grounded_bindings.sort_unstable_by_key(|&(rule, _)| rule);
        let mut view_rules: Vec<&str> = self.candidate_views.keys().map(String::as_str).collect();
        view_rules.sort_unstable();
        GrounderStateRef {
            program: &self.program,
            db: &self.db,
            graph: &self.graph,
            var_catalog,
            catalog_ops: self.catalog.pending_ops(),
            grounded_bindings,
            view_rules,
            suppressed_labels: self.catalog.suppressed(),
            next_var_key: self.catalog.vars.next_key,
        }
    }

    /// Rebuild a grounder from exported state plus a (re-supplied) UDF
    /// registry.
    ///
    /// Derived bookkeeping is reconstructed rather than persisted: rule
    /// templates are recompiled from the program, the catalog's inverse comes
    /// from the catalog, the weight catalog and per-weight refcounts come from
    /// scanning the graph's factors (so orphaned weight slots stay out of the
    /// catalog), per-variable usage counters are recomputed from the grounding
    /// records via `Grounder::record_vars` (the same computation the live
    /// retraction sweep uses), and candidate views are re-materialized from
    /// the restored database.
    pub fn from_state(state: GrounderState, udfs: UdfRegistry) -> Result<Self, GroundingError> {
        // Per-weight refcounts and the live-weight catalog, from the factors.
        let mut weight_use = vec![0i64; state.graph.num_weights()];
        for factor in state.graph.factors() {
            weight_use[factor.weight_id] += 1;
        }
        let weight_catalog: RowMap<String, WeightId> = state
            .graph
            .weights()
            .iter()
            .filter(|w| weight_use[w.id] > 0)
            .map(|w| (w.description.clone(), w.id))
            .collect();
        let num_variables = state.graph.num_variables();
        // Owners are filled in from the records below; a factor without a
        // record keeps an owner no rule index matches.
        let unowned = (usize::MAX, Tuple::new(Vec::new()));
        let factor_owners = vec![unowned; state.graph.num_factors()];
        let mut grounder = Grounder {
            program: state.program,
            db: state.db,
            udfs,
            graph: state.graph,
            templates: Vec::new(),
            catalog: VariableCatalog::restore(
                state.var_catalog,
                state.catalog_ops,
                state.suppressed_labels,
                state.next_var_key,
                num_variables,
            ),
            weight_catalog,
            grounded_bindings: state
                .grounded_bindings
                .into_iter()
                .map(|(rule, records)| (rule, records.into_iter().collect()))
                .collect(),
            factor_owners,
            weight_use,
            candidate_views: HashMap::new(),
        };
        grounder.compile_templates()?;

        // Per-variable usage and factor ownership, from the records.
        for (rule_name, records) in &grounder.grounded_bindings {
            let template = grounder
                .templates
                .iter()
                .flatten()
                .find(|t| t.name == *rule_name)
                .ok_or(GroundingError::Program(ProgramError::UnknownRule {
                    rule: rule_name.clone(),
                }))?;
            for (binding, record) in records {
                let (head, vars) = grounder.record_vars(template, binding);
                for var in vars {
                    grounder.catalog.vars.usage[var].refs += 1;
                }
                if let Some(head) = head {
                    let usage = &mut grounder.catalog.vars.usage[head];
                    usage.head_refs += 1;
                    if let Some(polarity) = record.label {
                        usage.add_label(polarity, 1);
                    }
                }
                if let Some(slot) = record
                    .factor
                    .and_then(|f| grounder.factor_owners.get_mut(f))
                {
                    *slot = (template.index, binding.clone());
                }
            }
        }
        // Nothing says the restored tables hold every head: later
        // groundings insert theirs if absent.
        grounder.catalog.heads_maybe_removed(None);

        for rule_name in state.view_rules {
            let rule = grounder
                .program
                .rules
                .iter()
                .find(|r| r.name == rule_name)
                .cloned()
                .ok_or(GroundingError::Program(ProgramError::UnknownRule {
                    rule: rule_name,
                }))?;
            grounder.evaluate_candidate_rule(&rule)?;
        }
        Ok(grounder)
    }
}

/// The state of a [`Grounder`] as a checkpoint carries it, owned: what a
/// decoded checkpoint hands [`Grounder::from_state`].  The fields and their
/// orders are those of [`GrounderStateRef`].
#[derive(Debug, Clone)]
pub struct GrounderState {
    pub program: Program,
    pub db: Database,
    pub graph: FactorGraph,
    /// `(relation, tuple, variable id)`, sorted.
    pub var_catalog: Vec<(String, Tuple, VarId)>,
    /// Undrained catalog ops, per relation (sorted by relation, chronological
    /// within a relation).
    pub catalog_ops: Vec<(String, Vec<CatalogOp>)>,
    /// Rule name → sorted bindings already grounded, with support records.
    pub grounded_bindings: Vec<(String, Vec<(Tuple, GroundingRecord)>)>,
    /// Names of candidate-mapping rules with a materialized view.
    pub view_rules: Vec<String>,
    /// Heads with suppressed supervision, sorted.
    pub suppressed_labels: Vec<(String, Tuple)>,
    /// Monotonic origin-key counter for new variables.
    pub next_var_key: u64,
}

/// The state of a live [`Grounder`] as a checkpoint carries it, borrowed
/// from the grounder by [`Grounder::export_state`].  All collections are
/// sorted so that encoding the same state twice yields identical bytes.
pub struct GrounderStateRef<'a> {
    pub program: &'a Program,
    pub db: &'a Database,
    pub graph: &'a FactorGraph,
    /// `(relation, tuple, variable id)`, sorted.
    pub var_catalog: Vec<(&'a str, &'a Tuple, VarId)>,
    /// Undrained catalog ops, per relation (sorted by relation, chronological
    /// within a relation).
    pub catalog_ops: Vec<(&'a str, &'a [CatalogOp])>,
    /// Rule name → bindings already grounded, with support records; sorted
    /// by rule, each map in tuple order.
    pub grounded_bindings: Vec<(&'a str, &'a BTreeMap<Tuple, GroundingRecord>)>,
    /// Names of candidate-mapping rules with a materialized view, sorted.
    pub view_rules: Vec<&'a str>,
    /// Heads with suppressed supervision, sorted.
    pub suppressed_labels: Vec<(&'a str, &'a Tuple)>,
    /// Monotonic origin-key counter for new variables.
    pub next_var_key: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::RuleAtom;
    use crate::program::RelationDecl;
    use crate::udf::standard_udfs;
    use dd_relstore::Filter;
    use dd_relstore::{tuple, DataType, Schema};

    fn atom(rel: &str, vars: &[&str]) -> RuleAtom {
        RuleAtom::new(rel, vars.iter().map(|v| Term::var(*v)).collect())
    }

    /// The running spouse example (Figure 2), scaled to a handful of tuples.
    fn spouse_program() -> Program {
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
            // R1: candidate generation
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
            // FE1: phrase feature between the two mentions
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
            // S1: distant supervision from the Married KB
            .rule(Rule::new(
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
            ))
    }

    fn spouse_db() -> Database {
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
            vec![
                tuple![1i64, "Barack and his wife Michelle attended the dinner"],
                tuple![2i64, "Malia and Sasha attended the state dinner"],
            ],
        )
        .unwrap();
        db.insert_all(
            "PersonCandidate",
            vec![
                tuple![1i64, 10i64, "Barack"],
                tuple![1i64, 11i64, "Michelle"],
                tuple![2i64, 20i64, "Malia"],
                tuple![2i64, 21i64, "Sasha"],
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

    fn grounder() -> Grounder {
        Grounder::new(spouse_program(), spouse_db(), standard_udfs()).unwrap()
    }

    #[test]
    fn full_grounding_produces_expected_structure() {
        let mut g = grounder();
        let result = g.ground().unwrap();

        // Two candidate pairs: (10,11) in sentence 1 and (20,21) in sentence 2.
        let candidates = g.database().table("MarriedCandidate").unwrap();
        assert_eq!(candidates.len(), 2);
        assert!(candidates.contains(&tuple![10i64, 11i64]));
        assert!(candidates.contains(&tuple![20i64, 21i64]));

        // Two MarriedMentions variables; (10,11) is positive evidence via S1.
        assert_eq!(result.num_variables, 2);
        assert_eq!(result.num_evidence, 1);
        let v = g
            .variable_for("MarriedMentions", &tuple![10i64, 11i64])
            .unwrap();
        assert!(g.graph().variable(v).is_evidence());
        let v2 = g
            .variable_for("MarriedMentions", &tuple![20i64, 21i64])
            .unwrap();
        assert!(!g.graph().variable(v2).is_evidence());

        // FE1 grounds one factor per candidate pair, with distinct phrase weights.
        assert_eq!(result.groundings_per_rule["FE1"], 2);
        assert!(g.weight_for("FE1::and his wife").is_some());
        assert!(g.weight_for("FE1::and").is_some());
        assert!(result.num_factors >= 2);
    }

    #[test]
    fn weight_tying_shares_weights_across_identical_phrases() {
        let mut g = grounder();
        // Add a second sentence with the same "and his wife" phrase.
        g.database_mut()
            .insert_all(
                "Sentence",
                vec![tuple![3i64, "George and his wife Laura were married"]],
            )
            .unwrap();
        g.database_mut()
            .insert_all(
                "PersonCandidate",
                vec![tuple![3i64, 30i64, "George"], tuple![3i64, 31i64, "Laura"]],
            )
            .unwrap();
        let result = g.ground().unwrap();
        assert_eq!(result.groundings_per_rule["FE1"], 3);
        // "and his wife" appears twice but creates only one weight.
        let tied = g.weight_for("FE1::and his wife").unwrap();
        let shared_factor_count = g
            .graph()
            .factors()
            .iter()
            .filter(|f| f.weight_id == tied)
            .count();
        assert_eq!(shared_factor_count, 2);
    }

    #[test]
    fn grounding_twice_does_not_duplicate_factors() {
        let mut g = grounder();
        let first = g.ground().unwrap();
        let second = g.ground().unwrap();
        assert_eq!(first.num_factors, second.num_factors);
        assert_eq!(first.num_variables, second.num_variables);
    }

    #[test]
    fn inference_rule_connects_two_variables() {
        // Symmetry rule: MarriedMentions(m2, m1) :- MarriedMentions(m1, m2).
        let program = spouse_program().rule(Rule::new(
            "I1",
            RuleKind::Inference,
            atom("MarriedMentions", &["m2", "m1"]),
            vec![atom("MarriedMentions", &["m1", "m2"])],
            WeightSpec::Fixed(3.0),
        ));
        let mut g = Grounder::new(program, spouse_db(), standard_udfs()).unwrap();
        let result = g.ground().unwrap();
        // Symmetric counterparts (11,10) and (21,20) now exist as variables too.
        assert!(g
            .variable_for("MarriedMentions", &tuple![11i64, 10i64])
            .is_some());
        assert_eq!(result.num_variables, 4);
        // The I1 factors are Aggregate (default Ratio semantics) implications.
        let has_aggregate = g
            .graph()
            .factors()
            .iter()
            .any(|f| matches!(f.kind, FactorKind::Aggregate { .. }));
        assert!(has_aggregate);
    }

    #[test]
    fn linear_semantics_emits_imply_factors() {
        let program = spouse_program().rule(
            Rule::new(
                "I1",
                RuleKind::Inference,
                atom("MarriedMentions", &["m2", "m1"]),
                vec![atom("MarriedMentions", &["m1", "m2"])],
                WeightSpec::Fixed(3.0),
            )
            .with_semantics(Semantics::Linear),
        );
        let mut g = Grounder::new(program, spouse_db(), standard_udfs()).unwrap();
        g.ground().unwrap();
        let has_imply = g
            .graph()
            .factors()
            .iter()
            .any(|f| matches!(f.kind, FactorKind::Imply { .. }));
        assert!(has_imply);
    }

    #[test]
    fn marginal_table_is_built_on_demand() {
        let mut g = grounder();
        g.ground().unwrap();
        let n = g.graph().num_variables();
        let marginals: Vec<f64> = (0..n).map(|i| 0.25 + 0.5 * (i % 2) as f64).collect();
        let t = g.marginal_table("MarriedMentions", &marginals).unwrap();
        assert_eq!(t.name(), "MarriedMentions_marginal");
        assert_eq!(t.len(), n);
        assert_eq!(t.schema().arity(), 3);
        let v = g
            .variable_for("MarriedMentions", &tuple![10i64, 11i64])
            .unwrap();
        assert!(t.contains(&tuple![10i64, 11i64, marginals[v]]));
        // A short slice covers only the variables it reaches.
        let none = g
            .marginal_table("MarriedMentions", &marginals[..0])
            .unwrap();
        assert!(none.is_empty());
        // Nothing is written into the database.
        assert!(!g.database().has_table("MarriedMentions_marginal"));
        assert!(matches!(
            g.marginal_table("Nowhere", &marginals),
            Err(RelError::NoSuchTable(_))
        ));
    }

    #[test]
    fn invalid_program_is_rejected_at_construction() {
        let bad = Program::new().rule(Rule::new(
            "X",
            RuleKind::CandidateMapping,
            atom("Nowhere", &["x"]),
            vec![atom("AlsoNowhere", &["x"])],
            WeightSpec::None,
        ));
        assert!(Grounder::new(bad, Database::new(), standard_udfs()).is_err());
    }
}
