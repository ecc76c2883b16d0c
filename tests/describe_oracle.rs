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

mod support;

use deepdive_repro::factorgraph::VariableRole;
use deepdive_repro::inference::DistributionChange;
use deepdive_repro::prelude::*;
use std::collections::HashMap;
use support::oracle::{retraction_spec, Generator, OpKind, Spec};

/// The retraction spec's program, universes and rule pool under its own
/// salt and op table: supervision flips swap a label for its opposite, a
/// retraction may come with a fresh label the sticky suppression must keep
/// from pinning the head again, and an op with nothing to act on labels a
/// new candidate instead.
fn spec() -> Spec {
    Spec {
        name: "describe",
        salt: 0xD15C_0DE5,
        ops: &[
            (3, OpKind::Insert),
            (2, OpKind::Delete),
            (2, OpKind::Flip(&[("Truth", "Wrong"), ("Wrong", "Truth")])),
            (1, OpKind::Retract(Some("Truth"))),
            (2, OpKind::AddRule),
        ],
        fallback: Some(OpKind::Label(&["Truth", "Link"])),
        corpus: |spec, rng| {
            ["Link", "Link", "Feat", "Truth", "Wrong"]
                .map(|rel| spec.draw(rng, rel))
                .to_vec()
        },
        ..retraction_spec()
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

fn run_sequence(spec: &Spec, seed: u64, ops: usize, cover: &mut Coverage) {
    let (mut generator, corpus) = Generator::new(spec, seed);
    let mut grounder = Grounder::new(
        spec.program.clone(),
        spec.database(&corpus),
        standard_udfs(),
    )
    .expect("grounder builds");
    grounder.ground().expect("initial grounding");
    for step in 0..ops {
        let op = generator.next().expect("the fallback always applies");
        check_update(
            &mut grounder,
            &op.update,
            cover,
            &format!("seed {seed} step {step} ({})", op.what),
        );
    }
}

#[test]
fn reported_description_equals_the_replayed_one() {
    let (spec, mut cover) = (spec(), Coverage::default());
    for seed in 0..240 {
        run_sequence(&spec, seed, 8, &mut cover);
    }
    assert_eq!(cover.updates, 240 * 8);
    assert!(cover.with_removals > 100, "{}", cover.with_removals);
    assert!(cover.evidence_changes > 150, "{}", cover.evidence_changes);
    assert!(cover.previously_pinned > 25, "{}", cover.previously_pinned);
    assert!(cover.new_evidence > 100, "{}", cover.new_evidence);
    assert!(cover.new_structure > 300, "{}", cover.new_structure);
}
