//! Differential oracle for retraction-capable incremental grounding, on the
//! retraction spec (`support::oracle::retraction_spec`).
//!
//! Every op sequence (inserts, deletes, delete+insert flips, supervision
//! retractions, rule additions) is applied **incrementally** through
//! [`DeepDive::run_update`] and, after every single op, the engine's grounder
//! state is compared against a **from-scratch rebuild** over the net database
//! — same variables (by `(relation, tuple)` identity and role), same factors
//! (by weight description and literal structure), same rows in every table —
//! the published snapshot's fact set must equal the variable catalog, and
//! every query shape must answer the same indexed as scanned.  Each sequence
//! ends by recovering its durable engine; `support::oracle` has the loop.

mod support;

use deepdive_repro::prelude::*;
use support::oracle::{feat, pair, retraction_spec, run_seeds, signature, Fact, Model};

/// The headline proof: 200 seeded random insert/delete/flip/retract/add-rule
/// sequences, each op applied through `run_update` and checked against the
/// from-scratch oracle.  Split into four tests so the harness runs them on
/// separate threads.
#[test]
fn differential_oracle_seeds_0_to_49() {
    run_seeds(&retraction_spec(), 0..50, 6);
}

#[test]
fn differential_oracle_seeds_50_to_99() {
    run_seeds(&retraction_spec(), 50..100, 6);
}

#[test]
fn differential_oracle_seeds_100_to_149() {
    run_seeds(&retraction_spec(), 100..150, 6);
}

#[test]
fn differential_oracle_seeds_150_to_199() {
    run_seeds(&retraction_spec(), 150..200, 6);
}

/// Longer soak: more seeds, deeper sequences.  Run with
/// `cargo test --test retraction -- --ignored`.
#[test]
#[ignore = "soak: ~10x the default oracle run"]
fn differential_oracle_soak() {
    run_seeds(&retraction_spec(), 200..600, 16);
}

/// An in-memory engine over `corpus` and the model of it.
fn engine(corpus: &[Fact]) -> (DeepDive, Model) {
    let mut dd = retraction_spec().engine(corpus, None);
    dd.initial_run().expect("initial run");
    (dd, Model::new(corpus))
}

/// Deleting a base fact that was never inserted is a *typed* grounding error
/// (`GroundingError::Retraction` surfaced as `EngineError::Grounding`), not a
/// silent skip: there is no `skipped_deletions` counter to quietly absorb it.
#[test]
fn nonapplicable_deletion_is_a_typed_error() {
    let (mut dd, _) = engine(&[
        ("Link", pair(0, 1)),
        ("Feat", feat(0, "fA")),
        ("Truth", pair(0, 1)),
    ]);

    // Truth(0,1) exists once; deleting it twice in one update retracts more
    // derivations of S1's grounding than exist.
    let mut update = KbcUpdate::new();
    update.delete("Truth", pair(0, 1));
    update.delete("Truth", pair(0, 1));
    let err = dd
        .run_update(&update, ExecutionMode::Incremental)
        .expect_err("over-deletion must be rejected");
    match err {
        EngineError::Grounding(g) => {
            let msg = g.to_string();
            assert!(
                msg.contains("cannot retract"),
                "expected a typed retraction error, got: {msg}"
            );
        }
        other => panic!("expected EngineError::Grounding, got: {other}"),
    }
}

/// The public `DeepDive::retract_supervision` entry point: un-pins the
/// evidence variable in the published snapshot and suppresses future labels.
#[test]
fn engine_retract_supervision_unpins_the_variable() {
    let (mut dd, mut model) = engine(&[
        ("Link", pair(0, 1)),
        ("Feat", feat(0, "fA")),
        ("Truth", pair(0, 1)),
    ]);
    let var = dd.grounder().variable_for("Fact", &pair(0, 1)).unwrap();
    assert!(dd.graph().variable(var).is_evidence());
    let before = dd.snapshot();

    dd.retract_supervision("Fact", pair(0, 1))
        .expect("retraction applies");
    model.suppressed.insert(("Fact", pair(0, 1)));
    retraction_spec().check(&dd, &model, "engine retract_supervision");

    let var = dd.grounder().variable_for("Fact", &pair(0, 1)).unwrap();
    assert!(
        !dd.graph().variable(var).is_evidence(),
        "retraction must un-pin the supervision label"
    );
    assert!(dd.grounder().is_supervision_suppressed("Fact", &pair(0, 1)));

    // Re-deriving the same supervision must stay suppressed (sticky).
    let mut update = KbcUpdate::new();
    update.insert("Truth", pair(0, 1));
    dd.run_update(&update, ExecutionMode::Incremental)
        .expect("update applies");
    let var = dd.grounder().variable_for("Fact", &pair(0, 1)).unwrap();
    assert!(
        !dd.graph().variable(var).is_evidence(),
        "suppression is sticky across re-derivation"
    );

    // The pre-retraction snapshot still serves the pinned state.
    assert_eq!(before.epoch(), 1);
    assert!(before.probability_of("Fact", &pair(0, 1)).is_some());
}

/// Insert-then-delete round-trips the *engine* back to the original published
/// state: same catalog, same fact set, no orphaned factors.
#[test]
fn engine_insert_delete_round_trip() {
    let (mut dd, model) = engine(&[("Link", pair(0, 1)), ("Feat", feat(0, "fA"))]);
    let baseline = signature(dd.grounder());

    let mut grow = KbcUpdate::new();
    grow.insert("Link", pair(2, 3));
    grow.insert("Feat", feat(2, "fB"));
    dd.run_update(&grow, ExecutionMode::Incremental)
        .expect("growth applies");
    assert_ne!(signature(dd.grounder()), baseline);

    let mut shrink = KbcUpdate::new();
    shrink.delete("Link", pair(2, 3));
    shrink.delete("Feat", feat(2, "fB"));
    dd.run_update(&shrink, ExecutionMode::Incremental)
        .expect("shrink applies");
    assert_eq!(
        signature(dd.grounder()),
        baseline,
        "insert-then-delete must round-trip to the original state"
    );
    retraction_spec().check(&dd, &model, "round trip");
}
