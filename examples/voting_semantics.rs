//! Example 2.5: the Voting program and the three rule semantics.
//!
//! Shows how the Linear, Ratio, and Logical semantics (Figure 4) change the
//! probability of a fact supported by conflicting evidence, and how they change
//! Gibbs-sampling convergence (the phenomenon behind Figures 12–13).
//!
//! Run with `cargo run --release --example voting_semantics`.

use dd_bench::iterations_to_converge;
use deepdive_repro::inference::{GibbsOptions, GibbsSampler};
use deepdive_repro::prelude::*;
use deepdive_repro::workloads::voting_graph;

fn main() {
    // "Barack Obama is born in Hawaii" has 1,000 supporting mentions and 900
    // contradicting ones (scaled down from the paper's 10^6).
    println!("probability of q with 1000 up-votes and 900 down-votes:");
    for semantics in [Semantics::Linear, Semantics::Ratio, Semantics::Logical] {
        let w = semantics.g(1000) - semantics.g(900);
        let p = w.exp() / (w.exp() + (-w).exp());
        println!("  {:<8} -> {:.4}", semantics.label(), p);
    }
    println!(
        "\nLinear saturates to ~1 (raw counts matter), Ratio stays near 0.5 (only the\n\
         ratio matters), Logical is exactly 0.5 (only existence matters).\n"
    );

    // Convergence: how many sweeps until the estimate of P(q) is within 2%.
    println!("Gibbs sweeps to estimate P(q) within 2% (|U| = |D| = n):");
    println!(
        "{:>8} {:>10} {:>10} {:>10}",
        "n", "Logical", "Ratio", "Linear"
    );
    for &n in &[10usize, 50, 200] {
        let mut cells = vec![format!("{n:>8}")];
        for semantics in [Semantics::Logical, Semantics::Ratio, Semantics::Linear] {
            let (graph, q) = voting_graph(n, n, 0.5, semantics);
            let report = iterations_to_converge(&graph, q, 0.5, 0.02, 50_000, 100, 11);
            cells.push(format!(
                "{:>10}",
                if report.converged {
                    report.sweeps_to_converge.to_string()
                } else {
                    ">50000".to_string()
                }
            ));
        }
        println!("{}", cells.join(" "));
    }

    // The same voting graph can also be queried for marginals directly.
    let (graph, q) = voting_graph(20, 5, 0.5, Semantics::Ratio);
    let marginals = GibbsSampler::new(&graph, 1).run(&GibbsOptions::new(2000, 200));
    println!(
        "\nwith 20 up-votes and 5 down-votes under Ratio semantics, P(q) ≈ {:.3}",
        marginals.get(q)
    );
}
