//! Figure 11: lesion study of the materialization strategies on the News rule
//! templates — the full system vs NoSamplingAll (sampling disabled),
//! NoRelaxation (variational disabled), and NoWorkloadInfo (use sampling until
//! exhausted, then variational, ignoring the workload-based rules of §3.3).

use crate::prepared;
use dd_bench::{print_table, secs, timed};
use dd_inference::{DistributionChange, GibbsOptions};
use dd_workloads::{KbcSystem, RuleTemplate, SystemKind};
use deepdive::{choose_strategy, ExecutionMode, StrategyChoice};

pub fn run() {
    println!("# Figure 11 — lesion study of the materialization strategies (News)");
    let system = KbcSystem::generate(SystemKind::News, 0.2, 71);

    let mut rows = Vec::new();
    for template in RuleTemplate::all() {
        // Prepare a trained, materialized engine just before this rule's iteration.
        let engine = prepared(&system);
        let update = system.template_update(template);

        let mat = engine.materialization().expect("materialized").clone();
        let gibbs = GibbsOptions::new(120, 30);

        // Grounding of the update (shared by all variants).
        let mut grounded_engine = engine;
        let pre_graph = grounded_engine.graph().clone();
        // Apply the update once so the updated graph (and the same distribution
        // change) is shared by every lesion variant.
        grounded_engine
            .run_update(&update, ExecutionMode::Incremental)
            .expect("update applies");
        let updated_graph = grounded_engine.graph().clone();
        // Reconstruct the distribution change from the graphs' difference: new
        // factors are those beyond the pre-update count.
        let mut change = DistributionChange::default();
        change.new_factors = (pre_graph.num_factors()..updated_graph.num_factors()).collect();
        change.new_variables = (pre_graph.num_variables()..updated_graph.num_variables()).collect();
        for v in 0..pre_graph.num_variables() {
            let before = pre_graph.variable(v).fixed_value();
            let after = updated_graph.variable(v).fixed_value();
            if before != after {
                if let Some(val) = after {
                    change.new_evidence.push((v, val));
                }
            }
        }
        let (_, t_full) = timed(
            || match choose_strategy(&change, mat.sampling.num_samples()) {
                StrategyChoice::Sampling => {
                    let out = mat.sampling.infer(&updated_graph, &change, 400, 3);
                    if out.exhausted {
                        let _ = mat.variational.infer(&updated_graph, &change, &gibbs, 3);
                    }
                }
                StrategyChoice::Variational => {
                    let _ = mat.variational.infer(&updated_graph, &change, &gibbs, 3);
                }
            },
        );
        let (_, t_no_sampling) =
            timed(|| mat.variational.infer(&updated_graph, &change, &gibbs, 3));
        let (out_sampling, t_no_relax) =
            timed(|| mat.sampling.infer(&updated_graph, &change, 400, 3));
        let (_, t_no_workload) = timed(|| {
            let out = mat.sampling.infer(&updated_graph, &change, 400, 3);
            if out.exhausted || out.acceptance_rate < 0.05 {
                let _ = mat.variational.infer(&updated_graph, &change, &gibbs, 3);
            }
        });

        rows.push(vec![
            template.name().to_string(),
            secs(t_full),
            secs(t_no_sampling),
            secs(t_no_relax),
            secs(t_no_workload),
            format!("{:.2}", out_sampling.acceptance_rate),
        ]);
    }
    print_table(
        "Inference time per rule template under each lesion",
        &[
            "rule",
            "full system",
            "NoSamplingAll",
            "NoRelaxation",
            "NoWorkloadInfo",
            "sampling acceptance",
        ],
        &rows,
    );
    println!(
        "Paper shape: disabling either strategy slows some rule class down (A1/FE suffer\n\
         without sampling; supervision rules suffer without the variational fallback)."
    );
}
