//! Differential oracle for the probability-ordered read indexes, on a KB of
//! two variable relations.
//!
//! Every op sequence (inserts, deletes, delete+insert flips, supervision
//! retractions) is applied **incrementally** through [`DeepDive::run_update`],
//! so the published snapshot's catalog — both the tuple-sorted index and the
//! ranked view — is the product of many O(Δ) `apply_delta` merges.  After
//! every single op, every `FactQuery` shape (thresholds including the exact
//! marginals sitting at partition-point boundaries) must answer bitwise the
//! same indexed, scanned, and scanned on a from-scratch snapshot, and the
//! grounder must match a from-scratch rebuild; each sequence ends by
//! recovering its durable engine (`support::oracle` has the loop and the
//! checks).
//!
//! A separate deterministic test pins the structural-sharing contract:
//! relations untouched by an update keep **both** index views `Arc`-shared
//! across epochs (their supervision-pinned marginals are bit-stable, so the
//! publish-time revalidation keeps the old Arcs instead of re-ranking).

mod support;

use deepdive_repro::prelude::*;
use std::sync::Arc;
use support::oracle::{check_queries, run_seeds, split_program, Fact, OpKind, Spec};

fn id(i: i64) -> Tuple {
    Tuple::from_iter([Value::Int(i)])
}

/// Two variable relations so the sharded catalog has multiple shards to get
/// wrong: `FactA` is driven by mixed pinned/unpinned claims (diverse, tied,
/// and exact-0/1 marginals), `FactB` by its own claim table.
fn spec() -> Spec {
    let ids: Vec<Tuple> = (0..8).map(id).collect();
    let (program, late_rules) = split_program(
        r#"
            relation ClaimA(id: int) base.
            relation ClaimB(id: int) base.
            relation PosA(id: int) base.
            relation NegA(id: int) base.
            relation PosB(id: int) base.
            relation FactA(id: int) variable.
            relation FactB(id: int) variable.

            rule FA feature: FactA(id) :- ClaimA(id) weight = 1.5.
            rule SAP supervision+: FactA(id) :- ClaimA(id), PosA(id).
            rule SAN supervision-: FactA(id) :- ClaimA(id), NegA(id).
            rule FB feature: FactB(id) :- ClaimB(id) weight = 0.5.
            rule SBP supervision+: FactB(id) :- ClaimB(id), PosB(id).
        "#,
        &[],
    );
    Spec {
        name: "indexes",
        program,
        late_rules,
        universes: ["ClaimA", "ClaimB", "PosA", "NegA", "PosB"]
            .map(|rel| (rel, ids.clone()))
            .to_vec(),
        heads: &["FactA", "FactB"],
        salt: 0xC0FF_EE00,
        ops: &[
            (4, OpKind::Insert),
            (3, OpKind::Delete),
            (1, OpKind::Flip(&[])),
            (2, OpKind::Retract(None)),
        ],
        fallback: None,
        // A few claims per relation, labels on a subset (so each relation
        // serves a mix of pinned and Gibbs marginals).
        corpus: |_, rng| {
            let mut corpus = Vec::new();
            for i in 0..(3 + rng.below(3) as i64) {
                corpus.push(("ClaimA", id(i)));
                match rng.below(3) {
                    0 => corpus.push(("PosA", id(i))),
                    1 => corpus.push(("NegA", id(i))),
                    _ => {}
                }
            }
            for i in 0..(2 + rng.below(2) as i64) {
                corpus.push(("ClaimB", id(i)));
                if rng.below(2) == 0 {
                    corpus.push(("PosB", id(i)));
                }
            }
            corpus
        },
    }
}

/// The headline proof: 200 seeded random insert/delete/flip/retract
/// sequences, each op applied through `run_update` and every query shape
/// checked bitwise against both references.  Split into four tests so the
/// harness runs them on separate threads.
#[test]
fn indexed_query_oracle_seeds_0_to_49() {
    run_seeds(&spec(), 0..50, 6);
}

#[test]
fn indexed_query_oracle_seeds_50_to_99() {
    run_seeds(&spec(), 50..100, 6);
}

#[test]
fn indexed_query_oracle_seeds_100_to_149() {
    run_seeds(&spec(), 100..150, 6);
}

#[test]
fn indexed_query_oracle_seeds_150_to_199() {
    run_seeds(&spec(), 150..200, 6);
}

/// Longer soak: more seeds, deeper sequences.  Run with
/// `cargo test --test indexes -- --ignored`.
#[test]
#[ignore = "soak: ~10x the default oracle run"]
fn indexed_query_oracle_soak() {
    run_seeds(&spec(), 200..600, 16);
}

/// The structural-sharing contract: an update that only touches `FactA`'s
/// claims leaves `FactB`'s shard — tuple-sorted index *and* ranked view —
/// `Arc`-shared with every previous epoch.  `FactB` is fully
/// supervision-pinned here, so its marginals are bit-stable and the
/// publish-time revalidation must keep the old Arcs instead of re-ranking.
#[test]
fn untouched_relations_share_both_views_across_epochs() {
    let initial: Vec<Fact> = (0..4)
        .flat_map(|i| [("ClaimB", id(i)), ("PosB", id(i))])
        .chain((0..3).map(|i| ("ClaimA", id(i))))
        .collect();
    let mut dd = spec().engine(&initial, None);
    dd.initial_run().expect("initial run");

    let mut previous = dd.snapshot();
    for step in 0..4i64 {
        let mut update = KbcUpdate::new();
        update.insert("ClaimA", id(10 + step));
        if step % 2 == 0 {
            update.insert("PosA", id(10 + step));
        }
        dd.run_update(&update, ExecutionMode::Incremental)
            .expect("update applies");
        let current = dd.snapshot();
        assert_eq!(current.epoch(), previous.epoch() + 1);

        let old = previous.catalog().shard("FactB").expect("FactB shard");
        let new = current.catalog().shard("FactB").expect("FactB shard");
        assert!(
            Arc::ptr_eq(old.index(), new.index()),
            "step {step}: untouched FactB must share its tuple-sorted index"
        );
        assert!(
            Arc::ptr_eq(old.ranked(), new.ranked()),
            "step {step}: untouched FactB must share its ranked view"
        );
        // The touched relation was re-indexed in both views.
        let old_a = previous.catalog().shard("FactA").expect("FactA shard");
        let new_a = current.catalog().shard("FactA").expect("FactA shard");
        assert!(!Arc::ptr_eq(old_a.index(), new_a.index()));
        assert!(!Arc::ptr_eq(old_a.ranked(), new_a.ranked()));
        check_queries(&dd, &format!("sharing step {step}"));
        previous = current;
    }
}
