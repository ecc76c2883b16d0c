//! One seeded op generator and model for every differential oracle.
//!
//! A [`Spec`] names a small KB — its program, the value universes of its base
//! relations, the rules withheld until an `add-rule` op, a salt and an op
//! table — and a [`Generator`] draws one seeded op sequence over it while its
//! [`Model`] keeps the net database the sequence implies.  [`run_seeds`]
//! drives every spec through one loop: each op goes through
//! [`DeepDive::run_update`] on a durable engine, and after every op both
//! oracles run —
//!
//! * **grounding**: the engine's grounder [`signature`] equals that of a
//!   from-scratch rebuild over the model ([`Spec::oracle`]), and the
//!   published snapshot serves exactly the variable catalog;
//! * **queries**: the snapshot's tuple index holds what a from-scratch
//!   catalog build holds, and every `FactQuery` shape over every variable
//!   relation answers bit-identically indexed and scanned
//!   ([`check_queries`]).
//!
//! The engine checkpoints at a seed-chosen op; at the end of the sequence it
//! is dropped and rebuilt from its data directory, and the rebuilt engine
//! must match the live one in `encode_snapshot` bytes and grounder
//! signature, report no replay errors, and pass the query oracle.
//!
//! The incremental path and the rebuild share no grounding code path for
//! deletions: the engine runs DRed + Z-set deltas + swap-remove compaction,
//! the oracle grounds the final database from an empty graph.  Any divergence
//! — a leaked factor, a variable the sweep missed, a catalog entry the O(Δ)
//! publish failed to drop, a ranked view a merge left stale — shows up as a
//! diff naming the exact variable, factor or query shape.

use super::{scratch_dir, Rng};
use deepdive_repro::factorgraph::{FactorKind, Lit};
use deepdive_repro::grounding::{RelationRole, Rule};
use deepdive_repro::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::path::Path;

/// A base fact, or a head when retracting supervision.
pub type Fact = (&'static str, Tuple);

/// One row of a spec's op table.
#[derive(Clone, Copy, Debug)]
pub enum OpKind {
    /// Insert a fact of a random base relation (duplicates allowed: counted
    /// rows).
    Insert,
    /// Delete one present base fact.
    Delete,
    /// Delete one present base fact and, in the same update, insert the same
    /// tuple into the fact's partner in this mirror table if it has one, else
    /// a random fact of the candidate relation.
    Flip(&'static [(&'static str, &'static str)]),
    /// Retract supervision (sticky) of a random head whose tuple is drawn
    /// from the candidate relation's universe; with `Some(label)`, a coin
    /// flip also inserts that tuple into `label` in the same update.
    Retract(Option<&'static str>),
    /// Add the next withheld rule.
    AddRule,
    /// Insert one tuple, drawn from the first listed relation's universe,
    /// into every listed relation.
    Label(&'static [&'static str]),
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Insert => "insert",
            OpKind::Delete => "delete",
            OpKind::Flip(_) => "flip",
            OpKind::Retract(_) => "retract-supervision",
            OpKind::AddRule => "add-rule",
            OpKind::Label(_) => "label",
        }
    }
}

/// A small KB the generator draws op sequences over.
pub struct Spec {
    /// Names the spec in failure messages.
    pub name: &'static str,
    /// The program an engine starts from.
    pub program: Program,
    /// Rules withheld from `program`, added by `AddRule` in this order.
    pub late_rules: Vec<Rule>,
    /// Base relations, in the order `Insert` draws them, with the tuples
    /// each op draws for them.  The first is the candidate relation.
    pub universes: Vec<(&'static str, Vec<Tuple>)>,
    /// Variable relations `Retract` draws a head from.
    pub heads: &'static [&'static str],
    /// Mixed into every seed, so specs draw independent streams.
    pub salt: u64,
    /// Op kinds with their weights: a roll below the weights' sum walks it.
    pub ops: &'static [(usize, OpKind)],
    /// What an op with nothing to act on (no present fact, no withheld rule
    /// left) becomes; `None` skips the step.
    pub fallback: Option<OpKind>,
    /// Draws a seed's initial corpus.
    pub corpus: fn(&Spec, &mut Rng) -> Vec<Fact>,
}

pub fn pair(a: i64, b: i64) -> Tuple {
    Tuple::from_iter([Value::Int(a), Value::Int(b)])
}

pub fn feat(a: i64, f: &str) -> Tuple {
    Tuple::from_iter([Value::Int(a), Value::text(f)])
}

/// Candidate pairs from `Link`, a feature rule, a positive supervision rule,
/// and a second feature rule plus a negative supervision rule (`FE2`, `S2`)
/// that arrive mid-sequence.
pub fn retraction_spec() -> Spec {
    let pairs: Vec<Tuple> = (0..4)
        .flat_map(|a| (a + 1..4).map(move |b| pair(a, b)))
        .collect();
    let feats: Vec<Tuple> = (0..4)
        .flat_map(|a| ["fA", "fB"].map(|f| feat(a, f)))
        .collect();
    let (program, late_rules) = split_program(
        r#"
            relation Link(a: int, b: int) base.
            relation Feat(a: int, f: text) base.
            relation Truth(a: int, b: int) base.
            relation Wrong(a: int, b: int) base.
            relation Cand(a: int, b: int) derived.
            relation Fact(a: int, b: int) variable.

            rule C1 candidate: Cand(a, b) :- Link(a, b).
            rule FE1 feature: Fact(a, b) :- Cand(a, b), Feat(a, f) weight = identity(f).
            rule S1 supervision+: Fact(a, b) :- Cand(a, b), Truth(a, b).
            rule FE2 feature: Fact(a, b) :- Cand(a, b), Feat(b, f) weight = identity(f).
            rule S2 supervision-: Fact(a, b) :- Cand(a, b), Wrong(a, b).
        "#,
        &["FE2", "S2"],
    );
    Spec {
        name: "retraction",
        program,
        late_rules,
        universes: vec![
            ("Link", pairs.clone()),
            ("Feat", feats),
            ("Truth", pairs.clone()),
            ("Wrong", pairs),
        ],
        heads: &["Fact"],
        salt: 0xDEAD_BEEF,
        ops: &[
            (4, OpKind::Insert),
            (3, OpKind::Delete),
            (1, OpKind::Flip(&[])),
            (1, OpKind::Retract(None)),
            (1, OpKind::AddRule),
        ],
        fallback: None,
        corpus: |spec, rng| {
            let corpus = ["Link", "Link", "Feat", "Truth"].map(|rel| spec.draw(rng, rel));
            let wrong = (rng.below(2) == 0).then(|| spec.draw(rng, "Wrong"));
            corpus.into_iter().chain(wrong).collect()
        },
    }
}

/// Parse `text` and withhold the rules named in `late`: the program an
/// engine starts from, and the withheld rules in program order.
pub fn split_program(text: &str, late: &[&str]) -> (Program, Vec<Rule>) {
    let mut program = parse_program(text).expect("spec program parses");
    let (late, early) = std::mem::take(&mut program.rules)
        .into_iter()
        .partition(|rule| late.contains(&rule.name.as_str()));
    program.rules = early;
    (program, late)
}

impl Spec {
    fn universe(&self, rel: &str) -> &[Tuple] {
        let (_, values) = self.universes.iter().find(|(r, _)| *r == rel).unwrap();
        values
    }

    /// The op kind a roll below the table's total weight lands on.
    fn kind_at(&self, mut roll: usize) -> OpKind {
        for &(weight, kind) in self.ops {
            if roll < weight {
                return kind;
            }
            roll -= weight;
        }
        unreachable!("a roll below the total weight lands in the table")
    }

    /// A random fact of `rel`.
    pub fn draw(&self, rng: &mut Rng, rel: &'static str) -> Fact {
        (rel, rng.pick(self.universe(rel)).clone())
    }

    /// Every base table of the program, holding `facts`.
    pub fn database(&self, facts: &[Fact]) -> Database {
        let mut db = Database::new();
        for decl in &self.program.relations {
            if decl.role == RelationRole::Base {
                db.create_table(&decl.name, decl.schema.clone()).unwrap();
            }
        }
        for (rel, t) in facts {
            db.insert(rel, t.clone()).unwrap();
        }
        db
    }

    /// An engine over `facts`, durable in `dir` when given — where an
    /// existing directory is recovered and `facts` ignored.
    pub fn engine(&self, facts: &[Fact], dir: Option<&Path>) -> DeepDive {
        let mut builder = DeepDive::builder()
            .program(self.program.clone())
            .database(self.database(facts))
            .udfs(standard_udfs())
            .config(fast_config());
        if let Some(dir) = dir {
            builder = builder.durability(DurabilityConfig::new(dir).fsync(FsyncPolicy::Never));
        }
        builder.build().expect("engine builds")
    }

    /// From-scratch rebuild: a fresh grounder over the model's net database
    /// with every rule added so far, then the sticky supervision
    /// suppressions applied in place.
    pub fn oracle(&self, model: &Model) -> Grounder {
        let mut program = self.program.clone();
        program.rules.extend(model.added_rules.iter().cloned());
        let mut db = self.database(&[]);
        for ((rel, t), &n) in &model.counts {
            if n > 0 {
                db.table_mut(rel)
                    .unwrap()
                    .insert_with_count(t.clone(), n)
                    .unwrap();
            }
        }
        let mut g = Grounder::new(program, db, standard_udfs()).expect("oracle grounder builds");
        g.ground().expect("oracle grounds");
        for (rel, t) in &model.suppressed {
            g.apply_supervision_retraction(rel, t);
        }
        g
    }

    /// Both oracles on the live engine (see the module docs).
    pub fn check(&self, dd: &DeepDive, model: &Model, context: &str) {
        assert_same_signature(
            &signature(dd.grounder()),
            &signature(&self.oracle(model)),
            &format!("{context}: incremental state vs from-scratch oracle"),
        );
        let snap = dd.snapshot();
        let catalog: BTreeSet<(String, Tuple)> = dd
            .grounder()
            .variable_catalog()
            .map(|((r, t), _)| (r.clone(), t.clone()))
            .collect();
        let served: BTreeSet<(String, Tuple)> = snap
            .all_facts(0.0, 0, usize::MAX)
            .into_iter()
            .map(|(r, t, _)| (r.to_string(), t))
            .collect();
        assert_eq!(
            served, catalog,
            "{context}: published snapshot diverged from the variable catalog"
        );
        assert_eq!(snap.num_catalogued_variables(), catalog.len());
        check_queries(dd, context);
    }
}

/// The logical state the oracle rebuilds from: net base-fact counts, rules
/// added so far, and heads whose supervision has been retracted (sticky).
#[derive(Default)]
pub struct Model {
    counts: BTreeMap<Fact, i64>,
    added_rules: Vec<Rule>,
    pub suppressed: BTreeSet<Fact>,
}

impl Model {
    pub fn new(corpus: &[Fact]) -> Model {
        let mut model = Model::default();
        for fact in corpus {
            model.insert(fact.clone());
        }
        model
    }

    fn insert(&mut self, fact: Fact) {
        *self.counts.entry(fact).or_insert(0) += 1;
    }

    fn present(&self) -> Vec<Fact> {
        self.counts
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(fact, _)| fact.clone())
            .collect()
    }
}

/// `rel` applied to `t`: a unary fact prints as `FactA(3)`, a wider one with
/// its tuple's own parentheses, `Link((0, 1))`.
fn show(rel: &str, t: &Tuple) -> String {
    if t.arity() == 1 {
        format!("{rel}{t}")
    } else {
        format!("{rel}({t})")
    }
}

/// One op: its update, what it does, and its kind.
pub struct Step {
    pub update: KbcUpdate,
    pub what: String,
    pub kind: OpKind,
}

/// One seeded op sequence over a spec.
pub struct Generator<'a> {
    spec: &'a Spec,
    rng: Rng,
    pool: Vec<Rule>,
    pub model: Model,
}

impl<'a> Generator<'a> {
    /// The generator of `seed`, and the initial corpus it drew (already in
    /// its model).
    pub fn new(spec: &'a Spec, seed: u64) -> (Self, Vec<Fact>) {
        let mut rng = Rng::seeded(seed, spec.salt);
        let corpus = (spec.corpus)(spec, &mut rng);
        let generator = Generator {
            spec,
            rng,
            pool: spec.late_rules.clone(),
            model: Model::new(&corpus),
        };
        (generator, corpus)
    }

    fn insert(&mut self, update: &mut KbcUpdate, (rel, t): Fact) {
        update.insert(rel, t.clone());
        self.model.insert((rel, t));
    }

    fn delete(&mut self, update: &mut KbcUpdate, (rel, t): Fact) {
        update.delete(rel, t.clone());
        *self.model.counts.get_mut(&(rel, t)).unwrap() -= 1;
    }

    /// Draw the next op and apply it to the model; `None` when it had
    /// nothing to act on and the spec has no fallback.
    pub fn next(&mut self) -> Option<Step> {
        let spec = self.spec;
        let present = self.model.present();
        let mut kind = spec.kind_at(self.rng.below(spec.ops.iter().map(|(w, _)| w).sum()));
        let stuck = match kind {
            OpKind::Delete | OpKind::Flip(_) => present.is_empty(),
            OpKind::AddRule => self.pool.is_empty(),
            _ => false,
        };
        if stuck {
            kind = spec.fallback?;
        }
        let mut update = KbcUpdate::new();
        let detail = match kind {
            OpKind::Insert => {
                let rel = spec.universes[self.rng.below(spec.universes.len())].0;
                let (rel, t) = spec.draw(&mut self.rng, rel);
                self.insert(&mut update, (rel, t.clone()));
                show(rel, &t)
            }
            OpKind::Delete => {
                let (rel, t) = self.rng.pick(&present).clone();
                self.delete(&mut update, (rel, t.clone()));
                show(rel, &t)
            }
            OpKind::Flip(mirror) => {
                let (rel, t) = self.rng.pick(&present).clone();
                self.delete(&mut update, (rel, t.clone()));
                let (rel2, t2) = match mirror.iter().find(|(from, _)| *from == rel) {
                    Some(&(_, other)) => (other, t.clone()),
                    None => spec.draw(&mut self.rng, spec.universes[0].0),
                };
                self.insert(&mut update, (rel2, t2.clone()));
                format!("-{} +{}", show(rel, &t), show(rel2, &t2))
            }
            OpKind::Retract(relabel) => {
                let (_, t) = spec.draw(&mut self.rng, spec.universes[0].0);
                // A single head relation costs no draw.
                let rel = match spec.heads {
                    [only] => *only,
                    heads => *self.rng.pick(heads),
                };
                update.retract_supervision(rel, t.clone());
                self.model.suppressed.insert((rel, t.clone()));
                if let Some(label) = relabel {
                    if self.rng.below(2) == 0 {
                        self.insert(&mut update, (label, t.clone()));
                    }
                }
                show(rel, &t)
            }
            OpKind::AddRule => {
                let rule = self.pool.remove(0);
                update.add_rule(rule.clone());
                self.model.added_rules.push(rule.clone());
                rule.name
            }
            OpKind::Label(rels) => {
                let (_, t) = spec.draw(&mut self.rng, rels[0]);
                let mut shown = Vec::new();
                for &rel in rels {
                    self.insert(&mut update, (rel, t.clone()));
                    shown.push(show(rel, &t));
                }
                shown.join(" + ")
            }
        };
        let what = format!("{} {detail}", kind.name());
        Some(Step { update, what, kind })
    }
}

/// Even smaller than `EngineConfig::fast()`: the oracles run thousands of
/// full-Gibbs updates, and marginal quality is irrelevant here.
pub fn fast_config() -> EngineConfig {
    let mut config = EngineConfig::fast();
    config.gibbs = GibbsOptions::new(40, 8);
    config.learn = LearnOptions {
        epochs: 2,
        sweeps_per_epoch: 2,
        ..config.learn
    };
    config
}

/// Canonical, id-free description of a grounder's state: every line names a
/// variable (with role), a factor (weight description + literal structure,
/// with multiplicity), or a row of any table of the program (with count).
/// Two grounders are equivalent iff their signatures are equal, regardless
/// of the variable and factor ids their histories assigned.
pub fn signature(g: &Grounder) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut rev: HashMap<usize, String> = HashMap::new();
    for ((rel, tuple), &v) in g.variable_catalog() {
        rev.insert(v, format!("{rel}({tuple})"));
        out.insert(format!(
            "var {rel}({tuple}) role={:?}",
            g.graph().variable(v).role
        ));
    }
    assert_eq!(
        rev.len(),
        g.graph().num_variables(),
        "every graph variable must be catalogued"
    );

    let lit = |l: &Lit| format!("{}{}", if l.positive { '+' } else { '-' }, rev[&l.var]);
    let lits = |ls: &[Lit]| {
        let mut v: Vec<String> = ls.iter().map(lit).collect();
        v.sort();
        v.join(",")
    };
    let mut factors: BTreeMap<String, usize> = BTreeMap::new();
    for f in g.graph().factors() {
        let w = g.graph().weight(f.weight_id);
        let kind = match &f.kind {
            FactorKind::Conjunction(ls) => format!("conj[{}]", lits(ls)),
            FactorKind::Imply { body, head } => {
                format!("imply[{} => {}]", lits(body), lit(head))
            }
            FactorKind::Equal(a, b) => {
                let (mut x, mut y) = (rev[a].clone(), rev[b].clone());
                if x > y {
                    std::mem::swap(&mut x, &mut y);
                }
                format!("equal[{x},{y}]")
            }
            FactorKind::IsTrue(v) => format!("istrue[{}]", rev[v]),
            FactorKind::Aggregate {
                head,
                semantics,
                groundings,
            } => {
                let mut gs: Vec<String> = groundings.iter().map(|g| lits(g)).collect();
                gs.sort();
                format!("agg[{} {:?} {}]", lit(head), semantics, gs.join(";"))
            }
        };
        *factors
            .entry(format!(
                "factor `{}` fixed={} {kind}",
                w.description, w.fixed
            ))
            .or_insert(0) += 1;
    }
    out.extend(factors.into_iter().map(|(line, n)| format!("{line} x{n}")));

    for decl in &g.program().relations {
        if let Ok(table) = g.database().table(&decl.name) {
            for (tuple, n) in table.iter_counted() {
                if n != 0 {
                    out.insert(format!("row {}({tuple}) x{n}", decl.name));
                }
            }
        }
    }
    out
}

fn assert_same_signature(got: &BTreeSet<String>, want: &BTreeSet<String>, context: &str) {
    if got != want {
        let missing: Vec<&String> = want.difference(got).collect();
        let extra: Vec<&String> = got.difference(want).collect();
        panic!("{context} diverged\n  missing: {missing:#?}\n  extra: {extra:#?}");
    }
}

/// Bitwise equality: tuples must match exactly and probabilities must be the
/// same f64 bit pattern (`==` would let -0.0/+0.0 or a NaN slip through).
fn same_bits(got: &[(Tuple, f64)], want: &[(Tuple, f64)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// The query oracle: the snapshot's Δ-maintained tuple index holds exactly
/// the grounder's catalog, variable ids included — what a from-scratch
/// `CatalogShards::build` holds, so the scan path ([`FactQuery::run_scan`],
/// a function of that index and the marginals) answers as on a rebuilt
/// snapshot and no merge/retraction drift can hide behind a matching pair
/// of stale views — and over every variable relation of the program and a
/// missing one, every `FactQuery` shape (`min_probability` × `top_k` ×
/// `offset` × `limit`) answers bit-identically on the indexed path
/// ([`FactQuery::run`]) and the scan path.
pub fn check_queries(dd: &DeepDive, context: &str) {
    let snap = dd.snapshot();
    let mut sizes: HashMap<&str, usize> = HashMap::new();
    for ((rel, tuple), &var) in dd.grounder().variable_catalog() {
        let shard = snap.catalog().shard(rel);
        assert_eq!(
            shard.and_then(|s| s.index().get(tuple)),
            Some(var),
            "{context}: {rel}({tuple}) in the tuple index"
        );
        *sizes.entry(rel).or_default() += 1;
    }
    let variables = dd.grounder().program().relations.iter();
    let relations = variables
        .filter(|decl| decl.role == RelationRole::Variable)
        .map(|decl| decl.name.as_str())
        .chain(["Missing"]);
    for relation in relations {
        let shard = snap.catalog().shard(relation);
        assert_eq!(
            shard.map_or(0, |s| s.index().len()),
            sizes.get(relation).copied().unwrap_or(0),
            "{context}: {relation}'s tuple index holds entries the catalog does not"
        );
        // Fixed probes plus live marginals: the exact values sitting at
        // partition-point boundaries, where an off-by-one cut would hide.
        let mut probes = vec![0.0, 0.3, 0.5, 0.8, 1.0];
        if let Some(shard) = shard {
            for &(p, _, _) in shard.ranked().entries().iter().take(2) {
                if !probes.contains(&p) {
                    probes.push(p);
                }
            }
        }
        for &min_p in &probes {
            for top_k in [None, Some(0), Some(1), Some(3), Some(100)] {
                for offset in [0usize, 1, 5] {
                    for limit in [None, Some(0), Some(2)] {
                        let mut q = snap.facts(relation).min_probability(min_p).offset(offset);
                        if let Some(k) = top_k {
                            q = q.top_k(k);
                        }
                        if let Some(l) = limit {
                            q = q.limit(l);
                        }
                        let (indexed, scan) = (q.clone().run(), q.run_scan());
                        assert!(
                            same_bits(&indexed, &scan),
                            "{context}: {relation} min_p={min_p} top_k={top_k:?} \
                             offset={offset} limit={limit:?}\n  indexed: {indexed:?}\n  \
                             scan: {scan:?}"
                        );
                    }
                }
            }
        }
    }
}

/// What a run of sequences exercised, so a generator drift cannot make it
/// vacuous.
#[derive(Default)]
struct Tally {
    sequences: usize,
    fired: BTreeMap<&'static str, usize>,
    recoveries: usize,
    /// Recoveries that loaded a checkpoint taken after the initial run and
    /// replayed a non-empty WAL tail beyond it.
    replayed_tails: usize,
}

/// Run one sequence per seed through the composed loop (see the module
/// docs), then assert every op kind of the table fired, every sequence ended
/// in a recovery, and some recoveries replayed a WAL tail.
pub fn run_seeds(spec: &Spec, seeds: Range<u64>, ops: usize) {
    let mut tally = Tally::default();
    for seed in seeds {
        run_sequence(spec, seed, ops, &mut tally);
    }
    for (_, kind) in spec.ops {
        assert!(
            tally.fired.contains_key(kind.name()),
            "{}: no {} op fired",
            spec.name,
            kind.name()
        );
    }
    assert_eq!(tally.recoveries, tally.sequences);
    assert!(
        tally.replayed_tails > 0,
        "{}: no recovery replayed a tail",
        spec.name
    );
}

fn run_sequence(spec: &Spec, seed: u64, ops: usize, tally: &mut Tally) {
    let name = spec.name;
    let (mut generator, corpus) = Generator::new(spec, seed);
    let dir = scratch_dir(&format!("oracle-{name}"));
    let mut dd = spec.engine(&corpus, Some(&dir));
    dd.initial_run().expect("initial run");
    spec.check(
        &dd,
        &generator.model,
        &format!("{name} seed {seed} initial"),
    );

    // A separate stream, so the op draws stay the spec's own: `ops` means
    // after the last op, when recovery has no tail to replay.
    let checkpoint_at = Rng::seeded(seed, !spec.salt).below(ops + 1);
    let mut covered = None;
    for step in 0..=ops {
        if step == checkpoint_at {
            covered = Some(dd.checkpoint().expect("checkpoint"));
        }
        if step == ops {
            break;
        }
        let Some(op) = generator.next() else { continue };
        let context = format!("{name} seed {seed} step {step} ({})", op.what);
        dd.run_update(&op.update, ExecutionMode::Incremental)
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        spec.check(&dd, &generator.model, &context);
        *tally.fired.entry(op.kind.name()).or_insert(0) += 1;
    }
    tally.sequences += 1;
    tally.replayed_tails += usize::from(dd.last_wal_seq() > covered);

    let context = format!("{name} seed {seed} recovery");
    let (bytes, live) = (encode_snapshot(&dd.snapshot()), signature(dd.grounder()));
    drop(dd);
    let recovered = spec.engine(&[], Some(&dir));
    assert!(
        recovered.recovery_replay_errors().is_empty(),
        "{context}: {:?}",
        recovered.recovery_replay_errors()
    );
    assert!(
        encode_snapshot(&recovered.snapshot()) == bytes,
        "{context}: snapshot bytes differ from the live engine's"
    );
    assert_same_signature(
        &signature(recovered.grounder()),
        &live,
        &format!("{context}: recovered state vs live engine"),
    );
    check_queries(&recovered, &context);
    tally.recoveries += 1;
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
