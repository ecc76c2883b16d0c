//! Figure 5: the tradeoff space of the three materialization strategies.
//!
//! Reproduces the three panels at laptop scale:
//!   (a) materialization + inference time vs graph size,
//!   (b) inference time vs acceptance rate (amount of change),
//!   (c) inference time vs sparsity of correlations.

use dd_bench::{print_table, secs, timed};
use dd_factorgraph::FactorGraph;
use dd_inference::{
    DistributionChange, GibbsOptions, GibbsSampler, SampleMaterialization, StrawmanMaterialization,
    VariationalMaterialization, VariationalOptions,
};
use dd_workloads::{pairwise_graph, weight_perturbation, SyntheticConfig};

/// The sampling materialization: `n` worlds of `g` after `burn_in` sweeps,
/// drawn on `seed`.
fn sampling_of(g: &FactorGraph, n: usize, burn_in: usize, seed: u64) -> SampleMaterialization {
    SampleMaterialization::from_samples(GibbsSampler::new(g, seed).draw_samples(n, burn_in))
}

/// Algorithm 1 over 300 worlds of `g`, drawn on seed 19.
fn variational_of(g: &FactorGraph) -> VariationalMaterialization {
    let options = VariationalOptions {
        burn_in: 40,
        lambda: 0.01,
        exact_solver_max_vars: 60,
    };
    let samples = GibbsSampler::new(g, 19).draw_samples(300, options.burn_in);
    VariationalMaterialization::from_samples(g, &samples, &options)
}

pub fn run() {
    println!("# Figure 5 — tradeoffs between materialization strategies");

    // ---------------------------------------------------------------- panel (a)
    let mut rows = Vec::new();
    for &n in &[2usize, 10, 17, 100, 1000] {
        let g = pairwise_graph(&SyntheticConfig {
            num_variables: n,
            sparsity: 0.5,
            seed: 5,
            ..Default::default()
        });
        let straw = if n <= 17 {
            let (m, t) = timed(|| StrawmanMaterialization::materialize(&g));
            m.map(|_| secs(t)).unwrap_or_else(|| "—".into())
        } else {
            "infeasible".to_string()
        };
        let (_, t_samp) = timed(|| sampling_of(&g, 500, 50, 1));
        let (_, t_var) = timed(|| variational_of(&g));
        rows.push(vec![n.to_string(), straw, secs(t_samp), secs(t_var)]);
    }
    print_table(
        "Figure 5(a): materialization time vs graph size",
        &["#vars", "strawman", "sampling (500 samples)", "variational"],
        &rows,
    );

    // ---------------------------------------------------------------- panel (b)
    let g = pairwise_graph(&SyntheticConfig {
        num_variables: 200,
        sparsity: 0.5,
        seed: 7,
        ..Default::default()
    });
    let sampling = sampling_of(&g, 2000, 100, 2);
    let variational = variational_of(&g);
    let mut rows = Vec::new();
    for &magnitude in &[0.0f64, 0.05, 0.3, 1.0, 3.0] {
        let mut updated = g.clone();
        let change = DistributionChange {
            changed_weights: weight_perturbation(&mut updated, 0.5, magnitude, 11),
            ..Default::default()
        };
        let (outcome, t_samp) = timed(|| sampling.infer(&updated, &change, 1000, 3));
        let (_, t_var) =
            timed(|| variational.infer(&updated, &change, &GibbsOptions::new(150, 30), 3));
        rows.push(vec![
            format!("{magnitude:.2}"),
            format!("{:.2}", outcome.acceptance_rate),
            secs(t_samp),
            secs(t_var),
            if outcome.acceptance_rate > 0.2 {
                "sampling"
            } else {
                "variational"
            }
            .to_string(),
        ]);
    }
    print_table(
        "Figure 5(b): inference time vs amount of change (acceptance rate)",
        &[
            "perturbation",
            "acceptance rate",
            "sampling",
            "variational",
            "winner (expected)",
        ],
        &rows,
    );

    // ---------------------------------------------------------------- panel (c)
    let mut rows = Vec::new();
    for &sparsity in &[0.1f64, 0.2, 0.3, 0.5, 1.0] {
        let g = pairwise_graph(&SyntheticConfig {
            num_variables: 200,
            sparsity,
            seed: 13,
            ..Default::default()
        });
        let sampling = sampling_of(&g, 800, 60, 2);
        let variational = variational_of(&g);
        // a moderate change so the sampling approach actually works
        let mut updated = g.clone();
        let change = DistributionChange {
            changed_weights: weight_perturbation(&mut updated, 0.5, 0.4, 17),
            ..Default::default()
        };
        let (_, t_samp) = timed(|| sampling.infer(&updated, &change, 600, 3));
        let (_, t_var) =
            timed(|| variational.infer(&updated, &change, &GibbsOptions::new(150, 30), 3));
        rows.push(vec![
            format!("{sparsity:.1}"),
            variational.num_pairwise_factors().to_string(),
            secs(t_samp),
            secs(t_var),
        ]);
    }
    print_table(
        "Figure 5(c): inference time vs sparsity of correlations",
        &[
            "non-zero weight fraction",
            "approx-graph factors",
            "sampling",
            "variational",
        ],
        &rows,
    );
}
