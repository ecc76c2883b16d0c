//! Figures 8 & 9: the rule templates and the end-to-end efficiency of
//! incremental inference and learning (Rerun vs Incremental, per rule template,
//! per system).

use crate::prepared;
use dd_bench::{print_table, secs, speedup, timed};
use dd_workloads::{KbcSystem, RuleTemplate, SystemKind};
use deepdive::ExecutionMode;

pub fn run() {
    println!("# Figure 8 — rule templates");
    let rows: Vec<Vec<String>> = RuleTemplate::all()
        .iter()
        .map(|t| vec![t.name().to_string(), t.description().to_string()])
        .collect();
    print_table("The six rule templates", &["rule", "description"], &rows);

    println!("# Figure 9 — Rerun vs Incremental, inference + learning time");
    let scale = 0.15;
    let mut rows = Vec::new();
    for kind in SystemKind::all() {
        let system = KbcSystem::generate(kind, scale, 41);
        for template in RuleTemplate::all() {
            let update = system.template_update(template);

            let mut rerun_engine = prepared(&system);
            let (rerun_report, _) = timed(|| {
                rerun_engine
                    .run_update(&update, ExecutionMode::Rerun)
                    .expect("rerun applies")
            });
            let mut inc_engine = prepared(&system);
            let (inc_report, _) = timed(|| {
                inc_engine
                    .run_update(&update, ExecutionMode::Incremental)
                    .expect("incremental applies")
            });

            let rerun_t = rerun_report.inference_and_learning_secs();
            let inc_t = inc_report.inference_and_learning_secs();
            rows.push(vec![
                kind.name().to_string(),
                template.name().to_string(),
                secs(rerun_t),
                secs(inc_t),
                speedup(rerun_t, inc_t),
                inc_report
                    .strategy
                    .map(|s| s.label().to_string())
                    .unwrap_or_default(),
                inc_report
                    .acceptance_rate
                    .map(|a| format!("{a:.2}"))
                    .unwrap_or_else(|| "—".into()),
            ]);
        }
    }
    print_table(
        "Per-rule execution time (learning + inference)",
        &[
            "system",
            "rule",
            "Rerun",
            "Incremental",
            "speedup",
            "strategy",
            "acceptance",
        ],
        &rows,
    );
    println!(
        "Paper shape: A1 achieves the largest speedups (distribution unchanged → 100%\n\
         acceptance); feature/supervision/inference rules achieve smaller but still\n\
         order-of-magnitude speedups."
    );
}
