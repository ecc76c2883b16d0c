//! The exactness oracle: an engine's published marginals against exact
//! marginals computed by brute force, per query component.
//!
//! The reference is [`FactorGraph::exact_marginal`] of every variable of
//! each component of at most [`REFERENCE_MAX_VARS`] variables of
//! [`FactorGraph::query_components`]: brute force on the build-side graph,
//! with no compiled graph and no inference code, so it is independent of
//! the enumerator the engine answers small components with.  A component the
//! engine enumerates must match to [`ENUMERATED_TOLERANCE`]; a larger one
//! within a bound derived from the engine's sample counts.
//!
//! `tests/exactness.rs` runs it over every system, rule template and mode;
//! `bench_sweeps` records its largest gap per system as the
//! `exactness/max_gap_<system>` counters.

use dd_factorgraph::{FactorGraph, VarId, MAX_ENUMERATED_VARS};
use dd_grounding::standard_udfs;
use dd_workloads::{KbcSystem, RuleTemplate, SystemKind};
use deepdive::{DeepDive, EngineConfig, ExecutionMode};

/// The largest component the reference enumerates.
pub const REFERENCE_MAX_VARS: usize = 16;

/// How far an enumerated component may be from the reference: floating
/// point rounding only.
pub const ENUMERATED_TOLERANCE: f64 = 1e-9;

/// One component's exact marginals, its variables ascending.
pub struct ComponentReference {
    pub vars: Vec<VarId>,
    pub exact: Vec<f64>,
}

/// The exact marginals of every query component of `graph` with at most
/// [`REFERENCE_MAX_VARS`] variables.
pub fn reference(graph: &FactorGraph) -> Vec<ComponentReference> {
    graph
        .query_components()
        .into_iter()
        .filter(|vars| vars.len() <= REFERENCE_MAX_VARS)
        .map(|vars| ComponentReference {
            exact: vars.iter().map(|&v| graph.exact_marginal(v)).collect(),
            vars,
        })
        .collect()
}

/// One oracle cell: a system's engine after one rule template of the
/// development order, in one mode.
pub struct Cell {
    pub template: RuleTemplate,
    pub mode: ExecutionMode,
    /// The largest |published − exact| over the enumerated components.
    pub enumerated_max_gap: f64,
    /// Every variable of a sampled component the reference covers whose
    /// gap exceeds its bound: `(variable, gap, bound)`.
    pub sampled_misses: Vec<(VarId, f64, f64)>,
}

/// `initial_run` + `materialize`, then the six templates in development
/// order in `mode`, checking the published marginals after each.
pub fn development_cells(
    system: SystemKind,
    scale: f64,
    seed: u64,
    mode: ExecutionMode,
) -> Vec<Cell> {
    let kbc = KbcSystem::generate(system, scale, seed);
    let config = EngineConfig::fast();
    // The smallest number of steps any path estimates a sampled marginal
    // from, and an autocorrelation allowance for the slowest of them.
    let draws = config.gibbs.sweeps.min(config.inference_samples).max(1);
    let mut engine = DeepDive::builder()
        .program(kbc.program.clone())
        .database(kbc.corpus.database.clone())
        .udfs(standard_udfs())
        .config(config)
        .build()
        .expect("engine builds");
    engine.initial_run().expect("initial run");
    engine.materialize().expect("materialize");
    kbc.development_updates()
        .into_iter()
        .map(|(template, update)| {
            engine
                .run_update(&update, mode)
                .unwrap_or_else(|e| panic!("{} {}: {e}", system.name(), template.name()));
            let snapshot = engine.snapshot();
            let published = snapshot.marginals();
            let mut cell = Cell {
                template,
                mode,
                enumerated_max_gap: 0.0,
                sampled_misses: Vec::new(),
            };
            for component in reference(engine.graph()) {
                for (&v, &exact) in component.vars.iter().zip(&component.exact) {
                    let gap = (published.get(v) - exact).abs();
                    if component.vars.len() <= MAX_ENUMERATED_VARS {
                        cell.enumerated_max_gap = cell.enumerated_max_gap.max(gap);
                    } else {
                        let bound = 5.0 * (exact * (1.0 - exact) * 10.0 / draws as f64).sqrt();
                        if gap > bound {
                            cell.sampled_misses.push((v, gap, bound));
                        }
                    }
                }
            }
            cell
        })
        .collect()
}
