//! Figure 6: quality (F1) and number of retained factors of the News system as
//! the variational regularization parameter λ varies.

use crate::engine_for;
use dd_bench::print_table;
use dd_inference::{GibbsOptions, GibbsSampler, VariationalMaterialization, VariationalOptions};
use dd_relstore::Tuple;
use dd_workloads::{KbcSystem, RuleTemplate, SystemKind};
use deepdive::{evaluate_quality, ExecutionMode};

pub fn run() {
    println!("# Figure 6 — variational regularization parameter λ (News)");

    // Build the News system with features + supervision, and the symmetry
    // rule I1: without it no factor couples two query variables, and there
    // would be no pair for λ to keep or drop.
    let system = KbcSystem::generate(SystemKind::News, 0.3, 21);
    let mut engine = engine_for(&system);
    for t in [
        RuleTemplate::FE1,
        RuleTemplate::FE2,
        RuleTemplate::S1,
        RuleTemplate::S2,
        RuleTemplate::I1,
    ] {
        engine
            .run_update(&system.template_update(t), ExecutionMode::Rerun)
            .expect("update applies");
    }
    let graph = engine.graph().clone();
    let truth = system.truth();

    let mut rows = Vec::new();
    for &lambda in &[0.001f64, 0.01, 0.1, 1.0, 10.0] {
        let options = VariationalOptions {
            burn_in: 50,
            lambda,
            exact_solver_max_vars: 0,
        };
        let samples = GibbsSampler::new(&graph, 19).draw_samples(400, options.burn_in);
        let mat = VariationalMaterialization::from_samples(&graph, &samples, &options);
        let marginals = GibbsSampler::new(mat.approx_graph(), 5).run(&GibbsOptions::new(200, 40));
        // Extract facts above the threshold through the engine's variable catalog.
        let extracted: Vec<Tuple> = engine
            .grounder()
            .variable_catalog()
            .filter(|((rel, _), _)| *rel == "MarriedMentions")
            .filter(|(_, &v)| marginals.get(v) > 0.9)
            .map(|((_, t), _)| t.clone())
            .collect();
        let q = evaluate_quality(&extracted, truth);
        rows.push(vec![
            format!("{lambda}"),
            format!("{}", mat.num_pairwise_factors()),
            format!("{:.3}", mat.retention()),
            format!("{:.3}", q.f1),
        ]);
    }
    print_table(
        "F1 and retained factors vs λ",
        &["λ", "# pairwise factors", "retention", "F1"],
        &rows,
    );
    println!(
        "Paper shape: quality is flat for λ ≲ 0.1 and degrades for large λ, while the\n\
         number of factors (and hence inference time) drops steeply with λ."
    );
}
