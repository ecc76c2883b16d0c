//! Statistical oracle for the component path: what the samplers enumerate
//! must *equal* the exact marginal, and what they still sample must sit
//! within a bound derived from the sample size.
//!
//! * enumerated components (every component of at most
//!   `MAX_ENUMERATED_VARS` variables, coupled or not): `run()` equals
//!   `FactorGraph::exact_marginal` to 1e-12, on any seed, with any number
//!   of sweeps;
//! * sampled components (above the limit): the swept variables' estimates
//!   stay within a binomial bound of exact, on a graph that also has
//!   enumerated components;
//! * `draw_samples` stores the sampled components' columns and nothing
//!   else, deterministically per seed, with per-column means within a bound
//!   of exact;
//! * independent MH over such a store after a weight change matches the
//!   exact marginals of the updated graph.
//!
//! The engine-level legs — a round over a graph of small components
//! consumes no stored proposal, and the exactness oracle over every system
//! and rule template — are `deepdive::engine::tests::
//! incremental_round_over_small_components_skips_the_materialization` and
//! `tests/exactness.rs`.
//!
//! Every test runs on fixed seeds, so a failure is a changed sampler, never
//! bad luck.

use dd_factorgraph::{Factor, FactorGraph, FactorGraphBuilder, VarId, MAX_ENUMERATED_VARS};
use dd_inference::{DistributionChange, GibbsOptions, GibbsSampler, SampleMaterialization};

/// `num_single` variables with a prior of their own each (weights spread
/// over [-2, 2]), `num_pairs` pairs tied by `equal`, then a chain of
/// `num_chain` variables with a prior on its head, interleaved with a few
/// evidence variables (one of which the chain's head shares a factor with)
/// so that every kind of bit shares arena words.
struct Mixed {
    graph: FactorGraph,
    small: Vec<VarId>,
    chain: Vec<VarId>,
    evidence: Vec<(VarId, bool)>,
}

fn mixed(num_single: usize, num_pairs: usize, num_chain: usize, coupling: f64) -> Mixed {
    let mut b = FactorGraphBuilder::new();
    let (mut small, mut chain, mut evidence) = (Vec::new(), Vec::new(), Vec::new());
    let link = b.tied_weight("link", coupling, false);
    for i in 0..num_single.max(num_chain).max(num_pairs) {
        if i < num_single {
            let v = b.add_query_variables(1)[0];
            let spread = i as f64 / num_single.max(2) as f64;
            let w = b.tied_weight(&format!("prior:{i}"), 4.0 * spread - 2.0, false);
            b.add_factor(Factor::is_true(w, v));
            small.push(v);
        }
        if i % 3 == 0 {
            let value = i % 2 == 0;
            evidence.push((b.add_evidence_variable(value), value));
        }
        if i < num_pairs {
            let pair = b.add_query_variables(2);
            b.add_factor(Factor::equal(link, pair[0], pair[1]));
            b.add_factor(Factor::is_true(link, pair[0]));
            small.extend(pair);
        }
        if i < num_chain {
            chain.push(b.add_query_variables(1)[0]);
        }
    }
    let head = b.tied_weight("head", 0.7, false);
    if let Some(&first) = chain.first() {
        b.add_factor(Factor::is_true(head, first));
        b.add_factor(Factor::imply(link, &[evidence[0].0], first));
    }
    for pair in chain.windows(2) {
        b.add_factor(Factor::equal(link, pair[0], pair[1]));
    }
    Mixed {
        graph: b.build(),
        small,
        chain,
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
fn enumerated_components_are_exact_in_every_run() {
    let m = mixed(6, 3, MAX_ENUMERATED_VARS + 1, 0.5);
    let flat = m.graph.compile();
    assert_eq!(flat.sampled_query_variables(), m.chain.as_slice());

    // Few sweeps on purpose: exactness must not depend on the chain length.
    let a = GibbsSampler::from_flat(&flat, 3).run(&GibbsOptions::new(10, 2));
    let b = GibbsSampler::from_flat(&flat, 5).run(&GibbsOptions::new(0, 0));
    for &v in &m.small {
        let exact = m.graph.exact_marginal(v);
        assert!(
            (a.get(v) - exact).abs() < 1e-12,
            "variable {v} reports {}, exact {exact}",
            a.get(v)
        );
        // Seed- and sweep-invariant, bit for bit.
        assert_eq!(a.get(v).to_bits(), b.get(v).to_bits());
    }
    for &(v, value) in &m.evidence {
        assert_eq!(a.get(v), f64::from(u8::from(value)));
    }
}

#[test]
fn a_graph_without_sampled_components_is_answered_without_sampling() {
    // One-variable components only.
    let m = mixed(40, 0, 0, 0.0);
    let flat = m.graph.compile();
    assert!(flat.sampled_query_variables().is_empty());
    // Zero sweeps requested, two different seeds: the same exact answer.
    let a = GibbsSampler::from_flat(&flat, 1).run(&GibbsOptions::new(0, 0));
    let b = GibbsSampler::from_flat(&flat, 2).run(&GibbsOptions::new(500, 50));
    assert_eq!(a.values(), b.values());
    // The same sampler told to sweep everything only gets close.
    let swept = GibbsSampler::from_flat(&flat, 1)
        .with_free_vars(flat.query_variables().to_vec())
        .run(&GibbsOptions::new(500, 50));
    let gap = a.max_abs_diff(&swept);
    assert!(gap > 0.0 && gap < 0.1, "swept estimate off by {gap}");
    assert!((a.get(m.small[0]) - dd_inference::sigmoid(-2.0)).abs() < 1e-15);

    // Pairs and a chain at the enumeration limit are answered exactly too.
    let m = mixed(20, 6, MAX_ENUMERATED_VARS, 0.4);
    let flat = m.graph.compile();
    assert!(flat.sampled_query_variables().is_empty());
    let a = GibbsSampler::from_flat(&flat, 1).run(&GibbsOptions::new(0, 0));
    let b = GibbsSampler::from_flat(&flat, 2).run(&GibbsOptions::new(500, 50));
    assert_eq!(a.values(), b.values());
    for &v in m.small.iter().chain(&m.chain) {
        assert!((a.get(v) - m.graph.exact_marginal(v)).abs() < 1e-12);
    }
}

#[test]
fn sampled_marginals_stay_within_a_binomial_bound_of_exact() {
    let n = MAX_ENUMERATED_VARS + 1;
    for (seed, coupling) in [(11u64, 0.4), (12, -0.5), (13, 0.6)] {
        let m = mixed(6, 2, n, coupling);
        let sweeps = 20_000;
        let got = GibbsSampler::new(&m.graph, seed).run(&GibbsOptions::new(sweeps, 500));
        for &v in &m.chain {
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
    }
}

#[test]
fn draws_store_the_sampled_columns_deterministically_per_seed() {
    let n = MAX_ENUMERATED_VARS + 1;
    let m = mixed(70, 5, n, 0.5);
    let flat = m.graph.compile();
    let a = GibbsSampler::from_flat(&flat, 9).draw_samples(200, 10);
    let b = GibbsSampler::from_flat(&flat, 9).draw_samples(200, 10);
    assert_eq!(a, b);
    assert_ne!(a, GibbsSampler::from_flat(&flat, 10).draw_samples(200, 10));
    assert_eq!(a.columns(), m.chain.as_slice());
    assert_eq!(a.row(0).bytes().count(), n.div_ceil(8));
    // The store's column means agree with the exact marginals; variables
    // without a column read 0.
    let samples = 6000;
    let means = GibbsSampler::from_flat(&flat, 9)
        .draw_samples(samples, 100)
        .marginals();
    for &v in &m.chain {
        let exact = m.graph.exact_marginal(v);
        assert!((means.get(v) - exact).abs() <= binomial_bound(exact, samples, 4.0, 5.0));
    }
    assert!(m.small.iter().all(|&v| means.get(v) == 0.0));
    for &(v, _) in &m.evidence {
        assert_eq!(means.get(v), 0.0);
    }
}

#[test]
fn mh_over_a_stored_chain_matches_exact_marginals_after_a_weight_change() {
    let n = MAX_ENUMERATED_VARS + 1;
    let m = mixed(0, 0, n, 0.5);
    let mat = SampleMaterialization::from_samples(
        GibbsSampler::new(&m.graph, 13).draw_samples(6000, 200),
    );
    assert_eq!(mat.samples().columns(), m.chain.as_slice());
    let mut updated = m.graph.clone();
    // Move the chain's head prior.
    let head = updated
        .weights()
        .iter()
        .position(|w| w.description == "head")
        .expect("head weight");
    let old = updated.weight(head).value;
    updated.set_weight_value(head, -0.4);
    let change = DistributionChange {
        changed_weights: vec![(head, old)],
        ..Default::default()
    };
    let steps = 5000;
    let out = mat.infer(&updated, &change, steps, 5);
    assert!(!out.exhausted);
    assert!(out.acceptance_rate > 0.3 && out.acceptance_rate < 1.0);
    for &v in &m.chain {
        let exact = updated.exact_marginal(v);
        // An independence chain at this acceptance rate repeats states a
        // few times, over stored samples that are a Gibbs chain: τ = 6.
        let bound = binomial_bound(exact, steps, 6.0, 5.0);
        assert!(
            (out.marginals.get(v) - exact).abs() <= bound,
            "variable {v}: MH {} vs exact {exact} (bound {bound})",
            out.marginals.get(v)
        );
    }
    // Evidence reads its value.
    for &(v, value) in &m.evidence {
        assert_eq!(out.marginals.get(v), f64::from(u8::from(value)));
    }
    // A row's bits are the chain's columns.
    let row = mat.samples().row(0);
    let mut world = m.graph.initial_world();
    mat.samples().load_row(0, &mut world);
    assert!((0..n).all(|j| row.get(j) == world.value(m.chain[j])));
}
