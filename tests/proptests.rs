//! Property-based tests over the core data structures and invariants.
//!
//! The build environment has no crates.io access, so instead of the `proptest`
//! crate these use a small in-file harness: each property runs over `CASES`
//! deterministic seeds, generating random inputs from the vendored RNG.  A
//! failing case prints its seed, which reproduces the input exactly.

use deepdive_repro::factorgraph::FlatGraph;
use deepdive_repro::inference::{
    DistributionChange, GibbsOptions, GibbsSampler, SampleMaterialization, StrawmanMaterialization,
};
use deepdive_repro::prelude::*;
use deepdive_repro::relstore::{ConjunctiveQuery, DeltaRelation, MaterializedView};
use deepdive_repro::relstore::{Filter, QueryAtom, Term};
use deepdive_repro::workloads::{pairwise_graph, weight_perturbation, SyntheticConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Number of random cases per property.
const CASES: u64 = 24;

/// Run `body` for `CASES` seeds, labelling failures with the seed.
fn for_cases(name: &str, mut body: impl FnMut(&mut StdRng, u64)) {
    for case in 0..CASES {
        let seed = 0xdd00 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng, seed)));
        if let Err(panic) = result {
            eprintln!("property `{name}` failed for case seed {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A random synthetic pairwise graph of 2..max_vars variables.
fn random_graph(rng: &mut StdRng, max_vars: usize) -> FactorGraph {
    pairwise_graph(&SyntheticConfig {
        num_variables: rng.gen_range(2..max_vars),
        sparsity: rng.gen_range(0.1..=1.0),
        seed: rng.gen::<u64>() % 500,
        ..Default::default()
    })
}

/// A uniformly random world over the graph's variables.
fn random_world(rng: &mut StdRng, g: &FactorGraph) -> deepdive_repro::factorgraph::World {
    deepdive_repro::factorgraph::World::from_values(
        (0..g.num_variables()).map(|_| rng.gen::<bool>()).collect(),
    )
}

/// Counting IVM invariant: for any sequence of insertions and deletions to
/// the base relation, incrementally maintaining the self-join view gives
/// exactly the same result as recomputing it from scratch.
#[test]
fn incremental_view_matches_full_recompute() {
    for_cases("incremental_view_matches_full_recompute", |rng, _| {
        let mut db = Database::new();
        db.create_table(
            "PersonCandidate",
            Schema::of(&[("s", DataType::Int), ("m", DataType::Int)]),
        )
        .unwrap();
        let num_docs = rng.gen_range(1..25);
        for _ in 0..num_docs {
            let s = rng.gen_range(0i64..6);
            let m = rng.gen_range(0i64..12);
            db.insert(
                "PersonCandidate",
                Tuple::from_iter([Value::Int(s), Value::Int(m)]),
            )
            .unwrap();
        }
        let query = ConjunctiveQuery::new(
            "Pairs",
            vec!["m1".into(), "m2".into()],
            vec![
                QueryAtom::new("PersonCandidate", vec![Term::var("s"), Term::var("m1")]),
                QueryAtom::new("PersonCandidate", vec![Term::var("s"), Term::var("m2")]),
            ],
        )
        .with_filters(vec![Filter::Lt("m1".into(), "m2".into())]);
        let mut view = MaterializedView::materialize(query.clone(), &db).unwrap();

        let mut delta = DeltaRelation::new("PersonCandidate");
        let num_changes = rng.gen_range(1..10);
        for _ in 0..num_changes {
            let insert = rng.gen::<bool>();
            let s = rng.gen_range(0i64..6);
            let m = rng.gen_range(0i64..12);
            let t = Tuple::from_iter([Value::Int(s), Value::Int(m)]);
            if insert {
                delta.insert(t);
            } else if db.table("PersonCandidate").unwrap().contains(&t) {
                delta.delete(t);
            }
        }
        let mut deltas = HashMap::new();
        deltas.insert("PersonCandidate".to_string(), delta.clone());
        view.refresh_dred(&db, &deltas).unwrap();

        delta.apply_to(db.table_mut("PersonCandidate").unwrap());
        let full = query.evaluate(&db).unwrap();
        assert_eq!(view.result().sorted_tuples(), full.sorted_tuples());
    });
}

/// The factor-graph energy decomposes locally: the energy delta computed
/// from a variable's adjacent factors equals the difference of total log
/// weights of the two full worlds.
#[test]
fn energy_delta_matches_global_difference() {
    for_cases("energy_delta_matches_global_difference", |rng, _| {
        let g = random_graph(rng, 12);
        let v = rng.gen_range(0..g.num_variables());
        let mut world = g.initial_world();
        let delta = g.energy_delta(v, &mut world);
        world.set(v, true);
        let e1 = g.log_weight(&world);
        world.set(v, false);
        let e0 = g.log_weight(&world);
        assert!((delta - (e1 - e0)).abs() < 1e-9);
    });
}

/// The compiled representation computes exactly the same energy deltas as the
/// build-side graph, for every variable, on arbitrary worlds — the invariant
/// every sampler's correctness now rests on.
#[test]
fn flat_energy_delta_matches_factor_graph() {
    for_cases("flat_energy_delta_matches_factor_graph", |rng, _| {
        let g = random_graph(rng, 16);
        let flat = g.compile();
        for _ in 0..4 {
            let world = random_world(rng, &g);
            let mut scratch = world.clone();
            for v in 0..g.num_variables() {
                let legacy = g.energy_delta(v, &mut scratch);
                let fast = flat.energy_delta(v, &world);
                assert!(
                    (legacy - fast).abs() < 1e-9,
                    "var {v}: legacy {legacy} vs flat {fast}"
                );
            }
            // The scratch world must have been restored by the legacy path.
            assert_eq!(scratch, world);
        }
    });
}

/// Flat log-weight over the bit-packed world equals the dense log-weight over
/// the same assignment viewed as a plain `Vec<bool>`.
#[test]
fn flat_log_weight_matches_dense_log_weight() {
    for_cases("flat_log_weight_matches_dense_log_weight", |rng, _| {
        let g = random_graph(rng, 16);
        let flat = g.compile();
        for _ in 0..4 {
            let world = random_world(rng, &g);
            let dense: Vec<bool> = world.to_vec();
            let packed = flat.log_weight(&world);
            let reference = g.log_weight(&dense);
            assert!(
                (packed - reference).abs() < 1e-9,
                "packed {packed} vs dense {reference}"
            );
        }
    });
}

/// Marginal probabilities are always valid probabilities, evidence variables
/// are pinned, and a deterministic seed reproduces the run.
#[test]
fn gibbs_marginals_are_probabilities() {
    for_cases("gibbs_marginals_are_probabilities", |rng, _| {
        let seed = rng.gen::<u64>() % 100;
        let g = pairwise_graph(&SyntheticConfig {
            num_variables: rng.gen_range(2..20),
            seed,
            ..Default::default()
        });
        let m1 = GibbsSampler::new(&g, seed).run(&GibbsOptions::new(60, 10));
        let m2 = GibbsSampler::new(&g, seed).run(&GibbsOptions::new(60, 10));
        assert_eq!(m1.values(), m2.values());
        for v in 0..g.num_variables() {
            assert!((0.0..=1.0).contains(&m1.get(v)));
        }
    });
}

/// Determinism across representations: a sampler that compiles the graph
/// itself and one borrowing a shared [`FlatGraph`] compilation walk the exact
/// same chain for the same seed.
#[test]
fn gibbs_is_deterministic_across_representations() {
    for_cases("gibbs_is_deterministic_across_representations", |rng, _| {
        let g = random_graph(rng, 20);
        let flat = FlatGraph::compile(&g);
        let seed = rng.gen::<u64>();
        let opts = GibbsOptions::new(50, 5);
        let owned = GibbsSampler::new(&g, seed).run(&opts);
        let borrowed = GibbsSampler::from_flat(&flat, seed).run(&opts);
        assert_eq!(owned.values(), borrowed.values());

        // Sweep-level worlds agree too, not just aggregated marginals.
        let mut a = GibbsSampler::new(&g, seed);
        let mut b = GibbsSampler::from_flat(&flat, seed);
        for _ in 0..10 {
            a.sweep();
            b.sweep();
            assert_eq!(a.world(), b.world());
        }
    });
}

/// The sampling strategy's tuple bundles use one bit per variable, and the
/// strawman's incremental marginals agree with exact enumeration after an
/// arbitrary weight perturbation.
#[test]
fn strawman_incremental_is_exact() {
    for_cases("strawman_incremental_is_exact", |rng, _| {
        let n = rng.gen_range(2..8);
        let seed = rng.gen::<u64>() % 200;
        let g0 = pairwise_graph(&SyntheticConfig {
            num_variables: n,
            seed,
            ..Default::default()
        });
        let straw = StrawmanMaterialization::materialize(&g0).unwrap();
        let sampling =
            SampleMaterialization::from_samples(GibbsSampler::new(&g0, seed).draw_samples(16, 4));
        assert_eq!(sampling.storage_bytes(), 16 * n.div_ceil(8));

        let magnitude = rng.gen_range(0.0..2.0);
        let mut g = g0.clone();
        let change = DistributionChange {
            changed_weights: weight_perturbation(&mut g, 0.5, magnitude, seed ^ 0xabc),
            ..Default::default()
        };
        let marginals = straw.incremental_marginals(&g, &change).unwrap();
        for v in 0..n {
            assert!((marginals.get(v) - g.exact_marginal(v)).abs() < 1e-9);
        }
    });
}

/// Rule semantics: g is monotone and Logical is bounded by 1.
#[test]
fn semantics_monotonicity() {
    for_cases("semantics_monotonicity", |rng, _| {
        let count = rng.gen_range(0usize..10_000);
        for s in Semantics::all() {
            assert!(s.g(count + 1) >= s.g(count));
        }
        assert!(Semantics::Logical.g(count) <= 1.0);
        assert!((Semantics::Linear.g(count) - count as f64).abs() < 1e-12);
    });
}
