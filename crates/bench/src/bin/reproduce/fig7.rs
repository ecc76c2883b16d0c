//! Figure 7: statistics of the five KBC systems — the paper's deployment sizes
//! next to the scaled-down synthetic equivalents this repository generates.

use crate::engine_for;
use dd_bench::print_table;
use dd_workloads::{KbcSystem, SystemKind};
use deepdive::ExecutionMode;

pub fn run() {
    println!("# Figure 7 — statistics of the KBC systems");
    let mut rows = Vec::new();
    for kind in SystemKind::all() {
        let paper = kind.paper_stats();
        let system = KbcSystem::generate(kind, 0.2, 31);
        let mut engine = engine_for(&system);
        // Apply every rule template so the graph contains all rules (as Figure 7
        // counts "factor graphs that contain all rules").
        for (_, update) in system.development_updates() {
            engine
                .run_update(&update, ExecutionMode::Incremental)
                .expect("update applies");
        }
        let stats = engine.graph().stats();
        rows.push(vec![
            kind.name().to_string(),
            format!("{:.1e}", paper.documents as f64),
            paper.relations.to_string(),
            paper.rules.to_string(),
            format!("{:.1e}", paper.variables),
            format!("{:.1e}", paper.factors),
            system
                .corpus
                .database
                .table("Sentence")
                .map(|t| t.len())
                .unwrap_or(0)
                .to_string(),
            stats.num_variables.to_string(),
            stats.num_factors.to_string(),
        ]);
    }
    print_table(
        "Paper deployments vs scaled-down synthetic systems",
        &[
            "system",
            "paper #docs",
            "paper #rels",
            "paper #rules",
            "paper #vars",
            "paper #factors",
            "ours #docs",
            "ours #vars",
            "ours #factors",
        ],
        &rows,
    );
}
