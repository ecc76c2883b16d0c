//! Explore the incremental-inference tradeoff space (paper §3.2.4) by hand.
//!
//! Builds a synthetic pairwise factor graph, materializes it with both the
//! sampling and the variational strategies, applies distribution changes of
//! increasing magnitude, and prints which strategy the rule-based optimizer
//! picks along with the measured acceptance rate and marginal error of each.
//!
//! Run with `cargo run --release --example tradeoff_explorer`.

use deepdive_repro::engine::choose_strategy;
use deepdive_repro::inference::{
    DistributionChange, GibbsOptions, GibbsSampler, SampleMaterialization,
    VariationalMaterialization, VariationalOptions,
};
use deepdive_repro::workloads::{pairwise_graph, weight_perturbation, SyntheticConfig};

fn main() {
    let graph = pairwise_graph(&SyntheticConfig {
        num_variables: 120,
        sparsity: 0.5,
        seed: 19,
        ..Default::default()
    });
    println!(
        "synthetic graph: {} variables, {} factors",
        graph.num_variables(),
        graph.num_factors()
    );

    let sampling =
        SampleMaterialization::from_samples(GibbsSampler::new(&graph, 1).draw_samples(1500, 100));
    let options = VariationalOptions {
        lambda: 0.01,
        exact_solver_max_vars: 0,
        ..Default::default()
    };
    let samples = GibbsSampler::new(&graph, 19).draw_samples(400, options.burn_in);
    let variational = VariationalMaterialization::from_samples(&graph, &samples, &options);
    println!(
        "materialized {} samples and an approximate graph with {} pairwise factors\n",
        sampling.num_samples(),
        variational.num_pairwise_factors()
    );

    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "change", "optimizer", "acceptance", "samp. err", "var. err", "rerun err"
    );
    for &magnitude in &[0.0f64, 0.1, 0.5, 2.0] {
        let mut updated = graph.clone();
        let change = DistributionChange {
            changed_weights: weight_perturbation(&mut updated, 0.5, magnitude, 5),
            ..Default::default()
        };

        // Reference answer: a long Gibbs run on the updated graph.
        let reference = GibbsSampler::new(&updated, 2).run(&GibbsOptions::new(2000, 200));

        let choice = choose_strategy(&change, sampling.num_samples());
        let mh = sampling.infer(&updated, &change, 1000, 3);
        let var = variational.infer(&updated, &change, &GibbsOptions::new(300, 50), 3);
        let rerun = GibbsSampler::new(&updated, 4).run(&GibbsOptions::new(300, 50));

        println!(
            "{:>12.2} {:>12} {:>12.2} {:>12.3} {:>12.3} {:>12.3}",
            magnitude,
            choice.label(),
            mh.acceptance_rate,
            mh.marginals.mean_abs_diff(&reference),
            var.mean_abs_diff(&reference),
            rerun.mean_abs_diff(&reference),
        );
    }
    println!(
        "\nSmall changes keep the acceptance rate high (sampling wins); large changes\n\
         collapse it, and the variational approximation becomes the better choice —\n\
         the tradeoff the rule-based optimizer of §3.3 encodes."
    );
}
