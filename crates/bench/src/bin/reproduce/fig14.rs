//! Figure 14: lesion study of the decomposition optimization (Appendix B.1).
//!
//! Compares materializing and re-sampling the whole factor graph against
//! materializing each Algorithm-2 group independently, for a graph whose active
//! variables ("the interest area for the next iteration") separate the inactive
//! variables into many small groups.

use dd_bench::{print_table, secs, timed};
use dd_inference::{GibbsOptions, GibbsSampler};
use dd_workloads::{pairwise_graph, SyntheticConfig};
use deepdive::decompose;

pub fn run() {
    println!("# Figure 14 — decomposition with inactive variables");
    // A blocky graph: 20 blocks of 20 variables, connected through one active
    // variable each, so conditioning on the active variables decomposes it.
    let g = pairwise_graph(&SyntheticConfig {
        num_variables: 400,
        sparsity: 0.6,
        factors_per_variable: 2,
        seed: 3,
        ..Default::default()
    });
    // Every 20th variable is in the developer's interest area (active).
    let active: Vec<bool> = (0..g.num_variables()).map(|v| v % 20 == 0).collect();
    let groups = decompose(&g, &active);

    let gibbs = GibbsOptions::new(150, 30);
    let (_, t_whole) = timed(|| GibbsSampler::new(&g, 5).run(&gibbs));
    let (_, t_grouped) = timed(|| {
        for group in &groups {
            let free = group.all_variables();
            let mut sampler = GibbsSampler::new(&g, 5).with_free_vars(free);
            let _ = sampler.run(&gibbs);
        }
    });

    print_table(
        "Materialization sampling cost: whole graph vs per-group",
        &["configuration", "groups", "time"],
        &[
            vec![
                "NoDecomposition (whole graph)".into(),
                "1".into(),
                secs(t_whole),
            ],
            vec![
                "Decomposition (Algorithm 2)".into(),
                groups.len().to_string(),
                secs(t_grouped),
            ],
        ],
    );
    println!(
        "Paper shape: per-group sampling is comparable or faster for feature/supervision\n\
         workloads because each group touches a fraction of the variables; the analysis\n\
         rule A1 sees little difference."
    );
}
