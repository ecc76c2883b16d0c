//! Statistical oracle for the static/coupled split (ROADMAP item 1(4), first
//! piece): what the samplers answer in closed form must *equal* the exact
//! marginal, and what they still sample must sit within a bound derived from
//! the sample size.
//!
//! * static variables: `run()` equals `FactorGraph::exact_marginal` to
//!   1e-12, on any seed;
//! * mixed graphs (static + at most 12 coupled variables): the swept
//!   variables' estimates stay within a binomial bound of exact;
//! * the bit-sliced i.i.d. columns of `draw_samples`: per-variable means
//!   within 4σ over 20 seeds, independent pairs uncorrelated, evidence bits
//!   untouched, right for sample counts that are not multiples of 64 and for
//!   p ∈ {0, 1e-9, 0.5, 1 − 1e-9, 1};
//! * independent MH over such a store after a unary weight change matches
//!   the exact marginals of the updated graph.
//!
//! The engine-level leg (a round over a graph without coupled variables
//! consumes no stored proposal and reports `acceptance_rate: None`) lives
//! with the engine: `deepdive::engine::tests::
//! incremental_round_without_coupled_variables_skips_the_materialization`.
//!
//! Every test runs on fixed seeds, so a failure is a changed sampler, never
//! bad luck.

use dd_factorgraph::{
    Factor, FactorGraph, FactorGraphBuilder, GraphDelta, VarId, WeightChange, WorldView,
};
use dd_inference::{DistributionChange, GibbsOptions, GibbsSampler, SampleMaterialization};

/// `num_static` variables with a prior of their own each (weights spread
/// over [-2, 2]), then a chain of `num_coupled` variables with a prior on its
/// head, interleaved with a few evidence variables so that static, coupled
/// and evidence bits share arena words.
struct Mixed {
    graph: FactorGraph,
    statics: Vec<VarId>,
    coupled: Vec<VarId>,
    evidence: Vec<(VarId, bool)>,
}

fn mixed(num_static: usize, num_coupled: usize, coupling: f64) -> Mixed {
    let mut b = FactorGraphBuilder::new();
    let (mut statics, mut coupled, mut evidence) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..num_static.max(num_coupled) {
        if i < num_static {
            let v = b.add_query_variables(1)[0];
            let spread = i as f64 / num_static.max(2) as f64;
            let w = b.tied_weight(&format!("prior:{i}"), 4.0 * spread - 2.0, false);
            b.add_factor(Factor::is_true(w, v));
            statics.push(v);
        }
        if i % 3 == 0 {
            let value = i % 2 == 0;
            evidence.push((b.add_evidence_variable(value), value));
        }
        if i < num_coupled {
            coupled.push(b.add_query_variables(1)[0]);
        }
    }
    let head = b.tied_weight("head", 0.7, false);
    let link = b.tied_weight("link", coupling, false);
    if let Some(&first) = coupled.first() {
        b.add_factor(Factor::is_true(head, first));
        // Evidence in a factor keeps the variable coupled: the split is
        // structural.
        b.add_factor(Factor::imply(link, &[evidence[0].0], first));
    }
    for pair in coupled.windows(2) {
        b.add_factor(Factor::equal(link, pair[0], pair[1]));
    }
    Mixed {
        graph: b.build(),
        statics,
        coupled,
        evidence,
    }
}

/// Half-width of the acceptance band for an estimate of `p` from `n` draws
/// with integrated autocorrelation time at most `tau`: `z` standard errors
/// of a binomial proportion over `n / tau` effective draws.
fn binomial_bound(p: f64, n: usize, tau: f64, z: f64) -> f64 {
    z * (p * (1.0 - p) * tau / n as f64).sqrt()
}

#[test]
fn static_marginals_are_exact_in_every_sampler() {
    let m = mixed(9, 5, 0.5);
    let flat = m.graph.compile();
    assert_eq!(flat.static_query_variables(), m.statics.as_slice());
    assert_eq!(flat.coupled_query_variables(), m.coupled.as_slice());

    // Few sweeps on purpose: exactness must not depend on the chain length.
    let sequential = GibbsSampler::from_flat(&flat, 3).run(&GibbsOptions::new(10, 2, 3));
    let other_seed = GibbsSampler::from_flat(&flat, 5).run(&GibbsOptions::new(10, 2, 5));
    for &v in &m.statics {
        let exact = m.graph.exact_marginal(v);
        for (name, got) in [
            ("sequential", sequential.get(v)),
            ("sequential, other seed", other_seed.get(v)),
        ] {
            assert!(
                (got - exact).abs() < 1e-12,
                "{name}: variable {v} reports {got}, exact {exact}"
            );
        }
        // Seed-invariant, bit for bit.
        assert_eq!(sequential.get(v).to_bits(), other_seed.get(v).to_bits());
    }
    for &(v, value) in &m.evidence {
        assert_eq!(sequential.get(v), f64::from(u8::from(value)));
    }
}

#[test]
fn a_graph_without_coupled_variables_is_answered_without_sampling() {
    let m = mixed(40, 0, 0.0);
    let flat = m.graph.compile();
    assert!(flat.coupled_query_variables().is_empty());
    // Zero sweeps requested, two different seeds: the same exact answer.
    let a = GibbsSampler::from_flat(&flat, 1).run(&GibbsOptions::new(0, 0, 1));
    let b = GibbsSampler::from_flat(&flat, 2).run(&GibbsOptions::new(500, 50, 2));
    assert_eq!(a.values(), b.values());
    // The same sampler told to sweep everything only gets close.
    let swept = GibbsSampler::from_flat(&flat, 1)
        .with_free_vars(flat.query_variables().to_vec())
        .run(&GibbsOptions::new(500, 50, 1));
    let gap = a.max_abs_diff(&swept);
    assert!(gap > 0.0 && gap < 0.1, "swept estimate off by {gap}");
    assert!((a.get(m.statics[0]) - dd_inference::sigmoid(-2.0)).abs() < 1e-15);
}

#[test]
fn coupled_marginals_stay_within_a_binomial_bound_of_exact() {
    // 14 query variables (6 static + 8 coupled): exact enumeration is 2^14.
    for (seed, coupling) in [(11u64, 0.4), (12, -0.5), (13, 0.6)] {
        let m = mixed(6, 8, coupling);
        let sweeps = 20_000;
        let got = GibbsSampler::new(&m.graph, seed).run(&GibbsOptions::new(sweeps, 500, seed));
        for &v in &m.coupled {
            let exact = m.graph.exact_marginal(v);
            // Couplings this weak decorrelate within a few sweeps; τ = 4 is
            // generous, and 5 standard errors leaves fixed seeds room.
            let bound = binomial_bound(exact, sweeps, 4.0, 5.0);
            assert!(
                (got.get(v) - exact).abs() <= bound,
                "coupling {coupling}: variable {v} estimated {} vs exact {exact} (bound {bound})",
                got.get(v)
            );
        }
        for &v in &m.statics {
            assert!((got.get(v) - m.graph.exact_marginal(v)).abs() < 1e-12);
        }
    }
}

#[test]
fn twelve_coupled_variables_are_still_within_bound() {
    let m = mixed(4, 12, 0.3);
    let sweeps = 20_000;
    let got = GibbsSampler::new(&m.graph, 21).run(&GibbsOptions::new(sweeps, 500, 21));
    for v in m.coupled.iter().chain(&m.statics) {
        let exact = m.graph.exact_marginal(*v);
        assert!((got.get(*v) - exact).abs() <= binomial_bound(exact, sweeps, 4.0, 5.0) + 1e-12);
    }
}

/// A prior-only graph with the given `P(v = true)` per variable (through the
/// logit; 0 and 1 through weights large enough to saturate the sigmoid),
/// with an evidence variable after every query variable.
fn priors(ps: &[f64]) -> (FactorGraph, Vec<VarId>, Vec<(VarId, bool)>) {
    let mut b = FactorGraphBuilder::new();
    let (mut vars, mut evidence) = (Vec::new(), Vec::new());
    for (i, &p) in ps.iter().enumerate() {
        let logit = if p <= 0.0 {
            -800.0
        } else if p >= 1.0 {
            800.0
        } else {
            (p / (1.0 - p)).ln()
        };
        let v = b.add_query_variables(1)[0];
        let w = b.tied_weight(&format!("p:{i}"), logit, true);
        b.add_factor(Factor::is_true(w, v));
        vars.push(v);
        evidence.push((b.add_evidence_variable(i % 2 == 0), i % 2 == 0));
    }
    (b.build(), vars, evidence)
}

#[test]
fn iid_columns_have_the_right_means_over_twenty_seeds() {
    let ps = [0.02, 0.1, 0.27, 0.5, 0.731, 0.9, 0.985];
    // Repeat the probabilities so the variables span three arena words.
    let all: Vec<f64> = ps.iter().cycle().take(70).copied().collect();
    let (graph, vars, evidence) = priors(&all);
    let flat = graph.compile();
    let n = 1000; // 15 blocks of 64 and one of 40
    let seeds = 20;
    let mut pooled = vec![0.0; all.len()];
    for seed in 0..seeds {
        let set = GibbsSampler::from_flat(&flat, seed).draw_samples(n, 7);
        assert_eq!(set.len(), n);
        let means = set.marginals();
        for ((&v, &p), total) in vars.iter().zip(&all).zip(&mut pooled) {
            // 1 400 single-seed checks: 5σ each ...
            assert!(
                (means.get(v) - p).abs() <= binomial_bound(p, n, 1.0, 5.0),
                "seed {seed}: variable {v} (p = {p}) has mean {}",
                means.get(v)
            );
            *total += means.get(v);
        }
        for row in set.rows() {
            for &(e, value) in &evidence {
                assert_eq!(row.value(e), value, "seed {seed}: evidence bit {e} moved");
            }
        }
    }
    // ... and 4σ for every variable's mean over the 20 seeds together.
    for ((&v, &p), total) in vars.iter().zip(&all).zip(pooled) {
        let mean = total / seeds as f64;
        assert!(
            (mean - p).abs() <= binomial_bound(p, n * seeds as usize, 1.0, 4.0),
            "variable {v} (p = {p}) has mean {mean} over {seeds} seeds"
        );
    }
}

#[test]
fn iid_columns_are_exact_at_extreme_probabilities_and_odd_sample_counts() {
    let ps = [0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0];
    let (graph, vars, evidence) = priors(&ps);
    let flat = graph.compile();
    for n in [0usize, 1, 63, 64, 65, 130, 1000] {
        for seed in 0..20u64 {
            let set = GibbsSampler::from_flat(&flat, seed).draw_samples(n, 0);
            assert_eq!(set.len(), n);
            let count = |v: VarId| set.rows().filter(|row| row.value(v)).count();
            assert_eq!(count(vars[0]), 0, "p = 0");
            assert_eq!(count(vars[4]), n, "p = 1");
            // ~26 000 draws at 1e-9 in total: a hit has probability 3e-5.
            assert_eq!(count(vars[1]), 0, "p = 1e-9, n = {n}, seed {seed}");
            assert_eq!(count(vars[3]), n, "p = 1 - 1e-9, n = {n}, seed {seed}");
            if n >= 63 {
                let half = count(vars[2]) as f64 / n as f64;
                assert!((half - 0.5).abs() <= 4.5 * (0.25 / n as f64).sqrt());
            }
            for &(e, value) in &evidence {
                assert!(set.rows().all(|row| row.value(e) == value));
            }
            // Nothing past the last variable, nothing past the last sample.
            assert_eq!(
                set.column(vars[4])
                    .iter()
                    .map(|w| w.count_ones())
                    .sum::<u32>() as usize,
                n
            );
        }
    }
}

#[test]
fn two_static_columns_are_uncorrelated() {
    let (graph, vars, _) = priors(&[0.3, 0.3, 0.6, 0.5, 0.5, 0.85]);
    let flat = graph.compile();
    let n = 4096;
    for seed in 0..20u64 {
        let set = GibbsSampler::from_flat(&flat, seed).draw_samples(n, 0);
        let means = set.marginals();
        for (i, &a) in vars.iter().enumerate() {
            for &b in &vars[i + 1..] {
                let both: u32 = set
                    .column(a)
                    .iter()
                    .zip(set.column(b))
                    .map(|(x, y)| (x & y).count_ones())
                    .sum();
                let (ma, mb) = (means.get(a), means.get(b));
                let cov = f64::from(both) / n as f64 - ma * mb;
                let r = cov / (ma * (1.0 - ma) * mb * (1.0 - mb)).sqrt();
                // r of independent columns is ~ N(0, 1/n).
                assert!(
                    r.abs() <= 4.5 / (n as f64).sqrt(),
                    "seed {seed}: columns {a} and {b} correlate at {r}"
                );
            }
        }
        // ... and successive samples of one column do not either (a Gibbs
        // chain's would not, for a static variable, but nothing should tie
        // sample i to sample i + 1 of a block).
        let column = set.column(vars[3]);
        let lagged: u32 = column.iter().map(|w| (w & (w >> 1)).count_ones()).sum();
        let pairs = (n - n / 64) as f64; // pairs within a word
                                         // x_i·x_{i+1} at p = 0.5: variance 3/16, plus 2 × 1/16 for the
                                         // overlap with the next pair.
        let sigma = (5.0f64 / 16.0 / pairs).sqrt();
        assert!((f64::from(lagged) / pairs - 0.25).abs() <= 4.5 * sigma);
    }
}

#[test]
fn draws_are_deterministic_per_seed_and_keep_the_coupled_chain() {
    let m = mixed(70, 6, 0.5);
    let flat = m.graph.compile();
    let a = GibbsSampler::from_flat(&flat, 9).draw_samples(200, 10);
    let b = GibbsSampler::from_flat(&flat, 9).draw_samples(200, 10);
    assert_eq!(a, b);
    assert_ne!(a, GibbsSampler::from_flat(&flat, 10).draw_samples(200, 10));
    // The store's marginals agree with the exact ones on both kinds.
    let n = 6000;
    let means = GibbsSampler::from_flat(&flat, 9)
        .draw_samples(n, 100)
        .marginals();
    let sub = mixed(0, 6, 0.5); // the coupled part on its own: 2^6 worlds
    for (&v, &s) in m.coupled.iter().zip(&sub.coupled) {
        let exact = sub.graph.exact_marginal(s);
        assert!((means.get(v) - exact).abs() <= binomial_bound(exact, n, 4.0, 5.0));
    }
    for &v in &m.statics {
        let exact = flat.static_p_true(v).expect("static");
        assert!((means.get(v) - exact).abs() <= binomial_bound(exact, n, 1.0, 4.5));
    }
}

#[test]
fn mh_over_an_iid_store_matches_exact_marginals_after_a_unary_weight_change() {
    let m = mixed(5, 5, 0.5);
    let mat = SampleMaterialization::materialize(&m.graph, 6000, 200, 13);
    let mut updated = m.graph.clone();
    // Move one static variable's prior and the coupled chain's head prior.
    let static_prior = 2; // "prior:2"
    let head = updated
        .weights()
        .iter()
        .position(|w| w.description == "head")
        .expect("head weight");
    let delta = GraphDelta {
        weight_changes: vec![
            WeightChange {
                weight_id: static_prior,
                new_value: 1.1,
            },
            WeightChange {
                weight_id: head,
                new_value: -0.4,
            },
        ],
        ..Default::default()
    };
    let change = DistributionChange::apply_and_describe(&mut updated, &delta);
    let steps = 5000;
    let out = mat.infer(&updated, &change, steps, 5);
    assert!(!out.exhausted);
    assert!(out.acceptance_rate > 0.3 && out.acceptance_rate < 1.0);
    for &v in m.statics.iter().chain(&m.coupled) {
        let exact = updated.exact_marginal(v);
        // An independence chain at this acceptance rate repeats states a
        // few times: τ = 6.
        let bound = binomial_bound(exact, steps, 6.0, 5.0);
        assert!(
            (out.marginals.get(v) - exact).abs() <= bound,
            "variable {v}: MH {} vs exact {exact} (bound {bound})",
            out.marginals.get(v)
        );
    }
}
