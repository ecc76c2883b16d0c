//! Figure 15: how many samples each system can materialize within a fixed
//! wall-clock budget (the paper uses 8 hours; here the budget is scaled down
//! with everything else).

use crate::trained;
use dd_bench::print_table;
use dd_workloads::{KbcSystem, SystemKind};
use deepdive::Materialization;

pub fn run() {
    println!("# Figure 15 — samples materializable within a fixed budget");
    let budget_seconds = 2.0;
    let mut rows = Vec::new();
    for kind in SystemKind::all() {
        let system = KbcSystem::generate(kind, 0.15, 81);
        let engine = trained(&system);
        let mat =
            Materialization::build_with_budget(engine.graph(), engine.config(), budget_seconds);
        let sampled = engine.graph().compile().sampled_query_variables().len();
        rows.push(vec![
            kind.name().to_string(),
            engine.graph().num_variables().to_string(),
            sampled.to_string(),
            mat.sampling.num_samples().to_string(),
            format!("{} bytes", mat.sample_storage_bytes()),
        ]);
    }
    print_table(
        &format!("Samples drawn in a {budget_seconds}s budget"),
        &[
            "system",
            "#vars",
            "#sampled vars",
            "#samples",
            "sample storage",
        ],
        &rows,
    );
    println!(
        "Paper shape: every system materializes thousands of samples within the budget;\n\
         smaller graphs (Genomics) materialize the most.  Only variables of components\n\
         above the enumeration limit are sampled and stored; a system without any\n\
         stores nothing (every component is answered exactly): its samples hold no\n\
         bit, so its count only measures how fast the budget loop turns."
    );
}
