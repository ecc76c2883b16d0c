//! Differential oracle for "the grounder describes what it applied".
//!
//! The engine builds each round's [`DistributionChange`] from what incremental
//! grounding reports ([`DistributionChange::from_applied`]) instead of
//! replaying the delta on a copy of the pre-update graph.  Here the replay
//! ([`DistributionChange::apply_and_describe`] on a clone taken before every
//! update) is the oracle: over seeded insert / delete / supervision-flip /
//! supervision-retraction / add-rule sequences the two descriptions must be
//! equal field for field, in the same order, removal-carrying deltas
//! included, and every reported previous role must be the role the variable
//! held — by `(relation, tuple)` identity — before the update (`Query` for a
//! variable the update created, even in place of one it removed).

use dd_factorgraph::VariableRole;
use dd_grounding::{parse_program, standard_udfs, Grounder, KbcUpdate, Rule};
use dd_inference::DistributionChange;
use dd_relstore::{DataType, Database, Schema, Tuple, Value};
use std::collections::{BTreeMap, HashMap};

/// The rule pool: `FE2` and `S2` arrive mid-sequence through `add_rule`.
const PROGRAM: &str = r#"
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
"#;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// What the sweep exercised, so a generator drift cannot make it vacuous.
#[derive(Default)]
struct Coverage {
    updates: usize,
    with_removals: usize,
    evidence_changes: usize,
    /// Evidence changes of removal-free deltas on already-pinned variables:
    /// the ones whose reported previous role decides `new_evidence`.
    previously_pinned: usize,
    new_evidence: usize,
    new_structure: usize,
}

type Fact = (&'static str, Tuple);

fn roles_by_key(grounder: &Grounder) -> HashMap<(String, Tuple), VariableRole> {
    grounder
        .variable_catalog()
        .map(|((rel, tuple), &var)| {
            (
                (rel.clone(), tuple.clone()),
                grounder.graph().variable(var).role,
            )
        })
        .collect()
}

/// Apply one update both ways and compare the descriptions.
fn check_update(grounder: &mut Grounder, update: &KbcUpdate, cover: &mut Coverage, what: &str) {
    let mut replayed = grounder.graph().clone();
    let roles_before = roles_by_key(grounder);

    let grounding = grounder
        .ground_incremental(update)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let delta = &grounding.delta;

    // The report is truthful: each re-labelled variable's previous role is
    // the one its (relation, tuple) held before the update.
    let key_of: HashMap<usize, (String, Tuple)> = grounder
        .variable_catalog()
        .map(|((rel, tuple), &var)| (var, (rel.clone(), tuple.clone())))
        .collect();
    assert_eq!(
        grounding.previous_roles.len(),
        delta.evidence_changes.len(),
        "{what}"
    );
    for (ec, &previous) in delta.evidence_changes.iter().zip(&grounding.previous_roles) {
        let held = if grounding.new_variable_ids.contains(&ec.var) {
            VariableRole::Query
        } else {
            roles_before[&key_of[&ec.var]]
        };
        assert_eq!(
            previous, held,
            "{what}: previous role of variable {}",
            ec.var
        );
        cover.previously_pinned +=
            usize::from(previous != VariableRole::Query && !delta.has_removals());
    }

    let oracle = DistributionChange::apply_and_describe(&mut replayed, delta);
    let reported = DistributionChange::from_applied(
        delta,
        grounding.new_variable_ids.clone(),
        grounding.new_factor_ids.clone(),
        &grounding.previous_roles,
    );
    assert_eq!(reported.new_variables, oracle.new_variables, "{what}");
    assert_eq!(reported.new_factors, oracle.new_factors, "{what}");
    assert_eq!(reported.new_evidence, oracle.new_evidence, "{what}");
    assert_eq!(reported.changed_weights, oracle.changed_weights, "{what}");

    // The replay the oracle ran really is the grounder's own application.
    let live = grounder.graph();
    assert_eq!(replayed.num_variables(), live.num_variables(), "{what}");
    assert_eq!(replayed.num_factors(), live.num_factors(), "{what}");
    assert_eq!(replayed.num_weights(), live.num_weights(), "{what}");
    for (a, b) in replayed.variables().iter().zip(live.variables()) {
        assert_eq!(a.role, b.role, "{what}: role of variable {}", a.id);
    }
    assert_eq!(&replayed, live, "{what}");

    cover.updates += 1;
    cover.with_removals += usize::from(delta.has_removals());
    cover.evidence_changes += delta.evidence_changes.len();
    cover.new_evidence += reported.new_evidence.len();
    cover.new_structure += reported.new_variables.len() + reported.new_factors.len();
}

fn insert(update: &mut KbcUpdate, counts: &mut BTreeMap<Fact, i64>, rel: &'static str, t: Tuple) {
    update.insert(rel, t.clone());
    *counts.entry((rel, t)).or_insert(0) += 1;
}

fn run_sequence(seed: u64, ops: usize, cover: &mut Coverage) {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD15C_0DE5);
    let pair = |a: i64, b: i64| Tuple::from_iter([Value::Int(a), Value::Int(b)]);
    let pairs: Vec<Tuple> = (0..4)
        .flat_map(|a| (a + 1..4).map(move |b| pair(a, b)))
        .collect();
    let feats: Vec<Tuple> = (0..4)
        .flat_map(|a| ["fA", "fB"].map(|f| Tuple::from_iter([Value::Int(a), Value::text(f)])))
        .collect();

    let pool = parse_program(PROGRAM).expect("program parses");
    let mut late_rules: Vec<Rule> = Vec::new();
    let mut program = pool.clone();
    program.rules.retain(|rule| {
        let late = rule.name == "FE2" || rule.name == "S2";
        if late {
            late_rules.push(rule.clone());
        }
        !late
    });

    let ii = || Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]);
    let mut db = Database::new();
    db.create_table("Link", ii()).unwrap();
    db.create_table(
        "Feat",
        Schema::of(&[("a", DataType::Int), ("f", DataType::Text)]),
    )
    .unwrap();
    db.create_table("Truth", ii()).unwrap();
    db.create_table("Wrong", ii()).unwrap();

    // Net counts of the base facts, so deletes only name present rows.
    let mut counts: BTreeMap<Fact, i64> = BTreeMap::new();
    let initial: Vec<Fact> = vec![
        ("Link", rng.pick(&pairs).clone()),
        ("Link", rng.pick(&pairs).clone()),
        ("Feat", rng.pick(&feats).clone()),
        ("Truth", rng.pick(&pairs).clone()),
        ("Wrong", rng.pick(&pairs).clone()),
    ];
    for (rel, t) in initial {
        db.insert(rel, t.clone()).unwrap();
        *counts.entry((rel, t)).or_insert(0) += 1;
    }
    let mut grounder = Grounder::new(program, db, standard_udfs()).expect("grounder builds");
    grounder.ground().expect("initial grounding");

    for step in 0..ops {
        let mut update = KbcUpdate::new();
        let present: Vec<Fact> = counts
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(fact, _)| fact.clone())
            .collect();
        let what;
        match rng.below(10) {
            0..=2 => {
                let (rel, t) = match rng.below(4) {
                    0 => ("Link", rng.pick(&pairs).clone()),
                    1 => ("Feat", rng.pick(&feats).clone()),
                    2 => ("Truth", rng.pick(&pairs).clone()),
                    _ => ("Wrong", rng.pick(&pairs).clone()),
                };
                what = format!("insert {rel}({t})");
                insert(&mut update, &mut counts, rel, t);
            }
            3..=4 if !present.is_empty() => {
                let (rel, t) = rng.pick(&present).clone();
                what = format!("delete {rel}({t})");
                update.delete(rel, t.clone());
                *counts.get_mut(&(rel, t)).unwrap() -= 1;
            }
            // Supervision flip: one label leaves as the opposite one arrives.
            5..=6 if !present.is_empty() => {
                let (rel, t) = rng.pick(&present).clone();
                update.delete(rel, t.clone());
                *counts.get_mut(&(rel, t.clone())).unwrap() -= 1;
                let (other, t2) = match rel {
                    "Truth" => ("Wrong", t.clone()),
                    "Wrong" => ("Truth", t.clone()),
                    _ => ("Link", rng.pick(&pairs).clone()),
                };
                what = format!("flip -{rel}({t}) +{other}({t2})");
                insert(&mut update, &mut counts, other, t2);
            }
            7 => {
                let t = rng.pick(&pairs).clone();
                what = format!("retract-supervision Fact({t})");
                update.retract_supervision("Fact", t.clone());
                // ...together with a fresh label for the same head, which
                // the sticky suppression must keep from pinning it again.
                if rng.below(2) == 0 {
                    insert(&mut update, &mut counts, "Truth", t);
                }
            }
            8..=9 if !late_rules.is_empty() => {
                let rule = late_rules.remove(0);
                what = format!("add-rule {}", rule.name);
                update.add_rule(rule);
            }
            _ => {
                let t = rng.pick(&pairs).clone();
                what = format!("label Truth({t}) + Link({t})");
                insert(&mut update, &mut counts, "Truth", t.clone());
                insert(&mut update, &mut counts, "Link", t);
            }
        }
        check_update(
            &mut grounder,
            &update,
            cover,
            &format!("seed {seed} step {step} ({what})"),
        );
    }
}

#[test]
fn reported_description_equals_the_replayed_one() {
    let mut cover = Coverage::default();
    for seed in 0..240 {
        run_sequence(seed, 8, &mut cover);
    }
    assert_eq!(cover.updates, 240 * 8);
    assert!(cover.with_removals > 100, "{}", cover.with_removals);
    assert!(cover.evidence_changes > 150, "{}", cover.evidence_changes);
    assert!(cover.previously_pinned > 25, "{}", cover.previously_pinned);
    assert!(cover.new_evidence > 100, "{}", cover.new_evidence);
    assert!(cover.new_structure > 300, "{}", cover.new_structure);
}
