//! Figures 12 & 13: convergence of Gibbs sampling on the Voting program under
//! the Linear / Ratio / Logical semantics as the number of vote variables grows.
//! The paper's bound (Figure 12) is Θ(n log n) sweeps for Logical/Ratio and
//! exponential for Linear; Figure 13 plots the measured iterations to get within
//! 1% of the correct marginal.

use dd_bench::print_table;
use dd_factorgraph::Semantics;
use dd_inference::iterations_to_converge;
use dd_workloads::voting_graph;

pub fn run() {
    println!("# Figures 12–13 — Voting-program convergence per semantics");
    let sizes = [10usize, 30, 100, 300, 1000];
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut cells = vec![format!("{}", 2 * n)];
        for semantics in [Semantics::Logical, Semantics::Ratio, Semantics::Linear] {
            let (graph, q) = voting_graph(n, n, 0.5, semantics);
            // Symmetric votes -> exact marginal 0.5; measure sweeps to 1%.
            let max_sweeps = if semantics == Semantics::Linear {
                60_000
            } else {
                30_000
            };
            let report = iterations_to_converge(&graph, q, 0.5, 0.01, max_sweeps, 200, 9);
            cells.push(if report.converged {
                report.sweeps_to_converge.to_string()
            } else {
                format!(">{max_sweeps}")
            });
        }
        rows.push(cells);
    }
    print_table(
        "Gibbs sweeps to reach within 1% of the correct marginal of q",
        &["|U| + |D|", "Logical", "Ratio", "Linear"],
        &rows,
    );
    println!(
        "Paper shape (Figure 13): Logical and Ratio converge in near-linear time in the\n\
         number of votes, while Linear's convergence deteriorates sharply — consistent\n\
         with the Θ(n log n) vs exponential bounds of Figure 12."
    );
}
