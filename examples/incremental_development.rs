//! The engineering-in-the-loop development cycle of Figure 1, incrementally.
//!
//! Generates the scaled-down News system, runs the initial pipeline, materializes
//! the factor graph, and then applies the six rule-template iterations
//! (FE1, FE2, S1, S2, I1, A1) both from scratch (Rerun) and incrementally,
//! reporting the per-iteration time and F1 — a miniature of Figures 9 and 10(a).
//!
//! Run with `cargo run --release --example incremental_development`.

use deepdive_repro::prelude::*;
use std::time::Instant;

fn main() -> Result<(), EngineError> {
    let system = KbcSystem::generate(SystemKind::News, 0.25, 7);

    for mode in [ExecutionMode::Rerun, ExecutionMode::Incremental] {
        println!("== {} ==", mode.label());
        let mut engine = DeepDive::builder()
            .program(system.program.clone())
            .database(system.corpus.database.clone())
            .udfs(standard_udfs())
            .config(EngineConfig::fast())
            .build()?;
        engine.initial_run()?;
        if mode == ExecutionMode::Incremental {
            let started = Instant::now();
            engine.materialize().unwrap();
            println!(
                "materialized {} samples in {:.2}s",
                engine.materialization().unwrap().sampling.num_samples(),
                started.elapsed().as_secs_f64()
            );
        }
        let mut cumulative = 0.0;
        for (template, update) in system.development_updates() {
            let report = engine.run_update(&update, mode)?;
            cumulative += report.inference_and_learning_secs();
            let quality = engine.quality("MarriedMentions", system.truth());
            println!(
                "  {:<4} strategy={:<12} learn+infer={:>8.3}s cumulative={:>8.3}s F1={:.3}",
                template.name(),
                report
                    .strategy
                    .map(|s| s.label().to_string())
                    .unwrap_or_else(|| "full".into()),
                report.inference_and_learning_secs(),
                cumulative,
                quality.f1,
            );
        }
        println!();
    }
    Ok(())
}
