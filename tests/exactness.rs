//! Engine-level exactness oracle: after every rule template of the
//! development order, in both modes, on every KBC system, each query
//! variable in a component of at most 16 variables lies within a bound of
//! its exact marginal — 1e-9 for a component the engine enumerates, a bound
//! derived from the sample counts for a larger one.  The reference is
//! brute force over `FactorGraph::query_components()` (`dd_bench::exactness`),
//! not the engine's enumerator.
//!
//! Also the closed-form case the incremental sampler used to get wrong: an
//! old variable with a prior, and a variable a later update ties to it.

use dd_bench::exactness::{development_cells, ENUMERATED_TOLERANCE};
use deepdive_repro::grounding::parse_rule;
use deepdive_repro::prelude::*;

#[test]
fn every_small_component_is_published_exactly() {
    let mut failures = Vec::new();
    for system in SystemKind::all() {
        for mode in [ExecutionMode::Incremental, ExecutionMode::Rerun] {
            for cell in development_cells(system, 0.15, 41, mode) {
                let what = format!("{} {} {:?}", system.name(), cell.template.name(), cell.mode);
                if cell.enumerated_max_gap > ENUMERATED_TOLERANCE {
                    failures.push(format!("{what}: max gap {}", cell.enumerated_max_gap));
                }
                for (v, gap, bound) in cell.sampled_misses {
                    failures.push(format!("{what}: variable {v} off by {gap} (bound {bound})"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// `Old(id)` has a prior of 1.0; the update ties a new `New(id)` to it with
/// the factor pair that is `equal` at weight 1.5 up to a constant: a
/// Logical-semantics implication of weight 1.5 (`3·old·new − 1.5·old`) plus
/// a prior of −1.5 on the new variable.  Exact: `P(new) = 0.6467`,
/// `P(old) = σ(1) = 0.7311`.  The stored samples have no column for
/// `New`; proposals that extended them by Gibbs-sampling it under the
/// updated graph read about 0.707.
#[test]
fn a_new_variable_tied_to_an_old_one_is_exact_after_an_incremental_round() {
    let mut db = Database::new();
    db.create_table("Item", Schema::of(&[("id", DataType::Int)]))
        .expect("fresh database");
    db.insert_all(
        "Item",
        (0..40i64)
            .map(|id| Tuple::new(vec![Value::Int(id)]))
            .collect::<Vec<_>>(),
    )
    .expect("rows match the schema");
    let mut engine = DeepDive::builder()
        .program_text(
            "relation Item(id: int) base.\n\
             relation Old(id: int) variable.\n\
             relation New(id: int) variable.\n\
             rule F feature: Old(id) :- Item(id) weight = 1.0.\n",
        )
        .database(db)
        .config(EngineConfig::fast())
        .build()
        .expect("engine builds");
    engine.initial_run().expect("initial run");
    engine.materialize().expect("materialize");
    let mut update = KbcUpdate::new();
    for rule in [
        "rule P feature: New(id) :- Item(id) weight = -1.5.",
        "rule T inference@logical: New(id) :- Old(id) weight = 1.5.",
    ] {
        update.add_rule(parse_rule(rule).expect("rule parses"));
    }
    let report = engine
        .run_update(&update, ExecutionMode::Incremental)
        .expect("update applies");
    assert!(report.new_variables >= 40);

    let (z, e1, e15, e25) = (1.0f64, 1.0f64.exp(), 1.5f64.exp(), 2.5f64.exp());
    let total = z + e1 + e15 + e25;
    let (p_new, p_old) = ((z + e25) / total, (e1 + e25) / total);
    assert!((p_new - 0.6467).abs() < 1e-4 && (p_old - 0.7311).abs() < 1e-4);
    let snapshot = engine.snapshot();
    for id in 0..40i64 {
        let key = Tuple::new(vec![Value::Int(id)]);
        let new = snapshot.probability_of("New", &key).expect("new variable");
        let old = snapshot.probability_of("Old", &key).expect("old variable");
        assert!(
            (new - p_new).abs() < 0.005,
            "New({id}) = {new}, exact {p_new}"
        );
        assert!(
            (old - p_old).abs() < 0.005,
            "Old({id}) = {old}, exact {p_old}"
        );
    }
}
