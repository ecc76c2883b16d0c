//! Figure 10(a): quality (F1) over cumulative execution time, Rerun vs
//! Incremental, across the six development snapshots of the News system.
//! Figure 10(b): end-to-end F1 under the Linear / Logical / Ratio semantics for
//! each of the five systems.  Also reports the §4.2 fact-agreement statistics
//! (high-confidence overlap, fraction differing by more than 0.05).

use crate::engine_for;
use dd_bench::print_table;
use dd_factorgraph::Semantics;
use dd_workloads::{KbcSystem, SystemKind};
use deepdive::ExecutionMode;

pub fn run() {
    println!("# Figure 10(a) — quality over time (News, six snapshots)");
    let system = KbcSystem::generate(SystemKind::News, 0.3, 51);

    let mut rows = Vec::new();
    let mut marginal_pairs = None;
    for mode in [ExecutionMode::Rerun, ExecutionMode::Incremental] {
        let mut engine = engine_for(&system);
        if mode == ExecutionMode::Incremental {
            engine.initial_run().expect("initial run");
            engine.materialize().unwrap();
        }
        let mut cumulative = 0.0;
        for (template, update) in system.development_updates() {
            let report = engine.run_update(&update, mode).expect("update applies");
            cumulative += report.inference_and_learning_secs();
            let q = engine.quality("MarriedMentions", system.truth());
            rows.push(vec![
                mode.label().to_string(),
                template.name().to_string(),
                format!("{cumulative:.2}s"),
                format!("{:.3}", q.f1),
                format!("{:.3}", q.precision),
                format!("{:.3}", q.recall),
            ]);
        }
        // keep the final marginals of each mode for the agreement comparison
        let snapshot = engine.snapshot();
        let m = (snapshot.epoch() > 0).then(|| snapshot.marginals().clone());
        marginal_pairs = match (marginal_pairs, m) {
            (None, Some(m)) => Some((Some(m), None)),
            (Some((a, _)), Some(m)) => Some((a, Some(m))),
            (p, None) => p,
        };
    }
    print_table(
        "F1 vs cumulative learning+inference time",
        &[
            "mode",
            "after rule",
            "cumulative time",
            "F1",
            "precision",
            "recall",
        ],
        &rows,
    );

    if let Some((Some(rerun_m), Some(inc_m))) = marginal_pairs {
        let overlap = rerun_m.high_confidence_overlap(&inc_m, 0.9);
        let differing = rerun_m.fraction_differing(&inc_m, 0.05);
        println!(
            "Fact agreement (§4.2): {:.1}% of Rerun's high-confidence (p > 0.9) facts are\n\
             also high-confidence under Incremental; {:.1}% of facts differ by more than\n\
             0.05 in probability (paper: 99% and <4%).\n",
            overlap * 100.0,
            differing * 100.0
        );
    }

    println!("# Figure 10(b) — F1 under Linear / Logical / Ratio semantics");
    let mut rows = Vec::new();
    for kind in SystemKind::all() {
        let mut cells = vec![kind.name().to_string()];
        for semantics in [Semantics::Linear, Semantics::Logical, Semantics::Ratio] {
            let system = KbcSystem::generate_with_semantics(kind, 0.2, 61, semantics);
            let mut engine = engine_for(&system);
            for (_, update) in system.development_updates() {
                engine
                    .run_update(&update, ExecutionMode::Rerun)
                    .expect("update applies");
            }
            let q = engine.quality("MarriedMentions", system.truth());
            cells.push(format!("{:.3}", q.f1));
        }
        rows.push(cells);
    }
    print_table(
        "End-to-end F1 per semantics",
        &["system", "Linear", "Logical", "Ratio"],
        &rows,
    );
    println!("Paper shape: Logical/Ratio match or beat Linear on every system (up to ~10% F1).");
}
