//! Gibbs sweep throughput benchmark, emitting a machine-readable trajectory.
//!
//! Measures sweeps/second of the inference hot path on the two workloads the
//! paper's headline figures are bottlenecked on — the fig9 end-to-end News
//! system graph and a fig5-style synthetic pairwise graph — and writes
//! `BENCH_sweeps.json` in the `[{name, unit, value}]` schema
//! (github-action-benchmark style) so future PRs can track the trajectory.
//!
//! Two implementations are timed per workload:
//!
//! * `legacy` — the pre-compilation hot path: jagged adjacency on
//!   [`FactorGraph`], two `local_energy` passes per resample, weight-table
//!   indirection (kept in-tree as the build/delta representation);
//! * `flat`   — [`GibbsSampler`] on the compiled [`FlatGraph`] (CSR,
//!   literal arenas, pre-resolved weights, single-pass energy deltas).
//!
//! A third series, `publish_cost/*`, tracks the snapshot-publish path: the
//! old full catalog rebuild (`CatalogShards::build` over every entry) raced
//! against the sharded Δ-publish the engine actually performs (`clone` +
//! `apply_delta` on the one touched relation + the publish's
//! `refresh_ranked`, which checks every ranked view and re-ranks the touched
//! one) at growing catalog sizes.  `publish_speedup_n{N}` is the factor the
//! sharding buys for a Δ-update against an N-entry catalog.
//!
//! A fourth series, `retraction_cost/*`, prices deletion the paper's way
//! (Fig 10's rerun-vs-incremental axis, pointed at retractions): the same
//! batch of base-tuple deletions is grounded twice — once by rebuilding a
//! fresh grounder over the post-delete corpus (what a rerun pays), once by
//! `Grounder::ground_incremental`'s DRed retraction sweep on the live
//! graph (what the engine actually pays).  `delete_speedup_n{N}` is the
//! O(n)-vs-O(Δ) factor incrementality buys at an N-claim KB, and
//! `deletes_per_sec_n{N}` tracks absolute retraction throughput.
//! `fixed_delete_ms_n{N}` times one *fixed* 100-claim deletion batch on a
//! live N-claim KB, and `delete_scaling_x` is that time at the largest KB
//! over the smallest: about 1 when a retraction costs what it deletes, the
//! ratio of the KB sizes when it re-reads the whole KB — the ratio
//! `check_sweeps` holds to a ceiling.
//!
//! Beside it, `grounding_cost/*` prices grounding itself by KB size on the
//! same program: `full_ms_n{N}` is a from-scratch `Grounder::ground` of an
//! N-claim corpus, `incremental_insert_ms_n{N}` is `ground_incremental` of
//! one *fixed* 100-claim insertion into a live N-claim KB — flat in N when
//! delta grounding is O(Δ) — and `incremental_allocs_per_binding` is that
//! insertion's heap allocations per grounding it creates, an exact count
//! `check_sweeps` holds to a ceiling like the cold path's.
//!
//! A fifth series, `query_cost/*`, prices the serving read path: the
//! probability-ordered index every publish maintains (`FactQuery::run`)
//! raced against the full tuple-index scan (`FactQuery::run_scan`) on
//! synthetic snapshots of growing size, for the top-k and selective
//! threshold query shapes.  `{topk,threshold}_speedup_n{N}` is the factor
//! the ranked index buys over rescanning at an N-fact relation.
//!
//! A sixth series, `cold_start/*`, prices the path a fresh engine pays once:
//! loading the input rows in order (`load_ms_claims_n4000`) and, for a
//! routed cluster, partitioning them over 4 shards
//! (`partition_ms_claims_n4000`); then ground → learn + infer → publish →
//! materialize, in milliseconds per phase at 4 000 and 16 000 facts on a
//! claims-shaped KB (every fact pinned by supervision: the serving
//! benchmark's shape) and at two News corpus scales.
//! Beside the timings it reports counts that repeat exactly, taken with a
//! counting global allocator: `allocs_per_binding` (heap allocations of one
//! `Grounder::ground` per grounded binding), `rows_probed_per_binding` (the
//! same grounding's `GroundingResult::rows_probed` per binding, not an
//! allocation count but as exact), `allocs_per_sample` (the
//! allocations one more stored sample adds to `materialize`),
//! `allocs_per_mh_step` (the allocations one more chain step adds to
//! `SampleMaterialization::infer`) and `index_heap_bytes_per_row` (the live
//! heap the persistent indexes of a 4 000-fact News grounding hold, per row
//! handle in them, read off the allocator's live-heap tally as they are
//! dropped).  `check_sweeps` holds them to ceilings,
//! so a per-binding or per-sample allocation cannot return unnoticed on a
//! box too noisy to show it in a timing.
//!
//! A seventh series, `codec/*`, prices the JSON codec under checkpoints, WAL
//! records and wire frames.  `parse_ns_per_byte_{64k,1m}` time
//! `dd_wire::json::parse` on two documents of one shape, 64 KB and 1 MB, and
//! `parse_scaling_x` is their ratio: about 1 for a scanner that is linear in
//! the document, 16–20 for the one this replaced (it re-validated the rest of
//! the document at every character of every string).
//! `checkpoint_encode_allocs_per_row` (heap allocations of one steady-state
//! `DeepDive::checkpoint` per stored base row: state export, encoding, file
//! write) and `response_decode_allocs_per_row` (`Response::decode` of a
//! 400-fact `all_facts` page, per fact) are exact counts under ceilings like
//! the cold path's, and so are two byte counts the allocator's live-heap
//! tally gives: `checkpoint_peak_heap_per_payload_byte` (the most extra live
//! heap at any moment of that checkpoint, per payload byte written) and
//! `checkpoint_retained_heap_bytes` (the live heap a checkpoint leaves
//! behind: after − before the first checkpoint of the full state).
//! `recovery_ms_n650` is the reopening of a durable
//! 648-document News directory holding a checkpoint with a materialization
//! and 16 update rounds logged after it.
//!
//! An eighth series, `materialize_cost/*`, prices drawing and digesting the
//! materialization's sample store on two 4 000-variable graphs:
//! `unary_n4000` (every variable has only a prior of its own — the
//! logistic-regression shape of Example 2.6 — so every component is a
//! singleton) and `chained_n4000` (the same variables chained into one
//! component).  `draw_ms_*` is `GibbsSampler::draw_samples` of 1 500
//! samples, which sweeps and stores only the variables of components above
//! the enumeration limit; `moments_ms_*` is
//! `VariationalMaterialization::from_samples` over the drawn store; and
//! `stored_bits_per_var_*` the store's bits per query variable, exact: 0
//! for the unary graph, 1 500 for the chained one.  `check_sweeps` holds
//! both to ceilings.
//!
//! A ninth series, `exactness/max_gap_<system>`, runs the exactness oracle
//! (`dd_bench::exactness`) over every rule template in development order
//! in both modes at scale 0.15, and records the largest |published − exact|
//! over the components the engine enumerates — exact, so `check_sweeps`
//! holds it to a 1e-9 ceiling.
//!
//! A tenth series, `router/page_allocs_per_row`, builds a 4-shard cluster
//! of the 4 000-fact claims KB and counts the heap allocations one warm
//! `Router::batch` of an `all_facts` page at offset 300 makes on the
//! calling thread, per row of the 100-row page: what the router's merge
//! costs, without the shard servers' own work.  `check_sweeps` holds it to
//! a ceiling.
//!
//! Usage: `cargo run --release -p dd-bench --bin bench_sweeps [--smoke] [--only <series>] [output.json]`
//!
//! `--only cold_start` (any series name above) runs that series alone, for
//! work on one layer; the partial file it writes is not one `check_sweeps`
//! accepts.
//!
//! `--smoke` runs a reduced-iteration profile (fewer sweeps, smaller publish
//! catalogs) for CI: the emitted metrics keep the same names and the same
//! `*_speedup >= 1` gate semantics (enforced by `check_sweeps`), just with
//! cheaper, noisier estimates.

use dd_bench::secs;
use dd_factorgraph::{Factor, FactorGraph, FactorGraphBuilder, FlatGraph};
use dd_grounding::{standard_udfs, KbcUpdate, Program};
use dd_inference::{
    sigmoid, DistributionChange, GibbsSampler, Marginals, SampleMaterialization, SweepRng,
    VariationalMaterialization, VariationalOptions,
};
use dd_relstore::{tuple, DataType, Database, Schema, Tuple};
use dd_router::{Cluster, ClusterConfig, RouterConfig};
use dd_server::{Batch, Op, OpResult, Response};
use dd_workloads::{pairwise_graph, KbcSystem, RuleTemplate, SyntheticConfig, SystemKind};
use deepdive::{
    CatalogShards, DeepDive, DurabilityConfig, EngineConfig, ExecutionMode, FsyncPolicy,
    ShardAssignment, Snapshot,
};
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// The system allocator, counting calls that obtain memory (`alloc`,
/// `alloc_zeroed`, `realloc`) and tallying the bytes live on the heap with
/// their high-water mark.  The counters are statistics only: they publish no
/// other data, hence `Relaxed`.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's share of `ALLOCATIONS`.  A const-initialized
    /// `Cell` allocates nothing and has no destructor, so the allocator may
    /// touch it.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one call that obtains memory.
fn obtained() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // A thread that is being torn down has no slot left to count in.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn heap_grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn heap_shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        obtained();
        // SAFETY: `layout` is the caller's, passed through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            heap_grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        obtained();
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            heap_grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        obtained();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(grown) => heap_grew(grown),
                None => heap_shrank(layout.size() - new_size),
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        heap_shrank(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `work` and return its result with the number of heap allocations the
/// process made meanwhile (the bench is single-threaded wherever this is
/// used, so they are the work's own).
fn count_allocations<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = work();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// [`count_allocations`] for work that runs beside other threads (servers):
/// only the allocations of the calling thread are counted.
fn count_thread_allocations<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, THREAD_ALLOCATIONS.with(Cell::get) - before)
}

/// What a piece of work did to the live heap, in bytes.
struct HeapUse {
    /// The most live heap beyond what was live before, at any moment.
    peak_extra: usize,
    /// Live heap after minus before: what the work left allocated.
    retained: i64,
}

/// Run `work` and return its result with what it did to the live heap (the
/// bench is single-threaded wherever this is used).
fn measure_heap<T>(work: impl FnOnce() -> T) -> (T, HeapUse) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let out = work();
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    let heap = HeapUse {
        peak_extra: PEAK_BYTES.load(Ordering::Relaxed) - before,
        retained: after as i64 - before as i64,
    };
    (out, heap)
}

/// Relations the synthetic publish-cost catalog is spread over.
const PUBLISH_RELATIONS: usize = 16;

/// Tuples added by the Δ-update whose publish cost is measured.
const PUBLISH_DELTA: usize = 64;

struct Entry {
    name: String,
    unit: &'static str,
    value: f64,
}

/// One sweep of the pre-compilation implementation (the seed hot path,
/// verbatim): two-pass energy delta on the jagged graph, mutating the world.
fn legacy_sweep(
    graph: &FactorGraph,
    free_vars: &[usize],
    world: &mut dd_factorgraph::World,
    rng: &mut SweepRng,
) {
    for &v in free_vars {
        let delta = graph.energy_delta(v, world);
        let p_true = sigmoid(delta);
        let value = rng.gen::<f64>() < p_true;
        world.set(v, value);
    }
}

/// Time `sweeps` legacy sweeps, returning sweeps/second.
fn bench_legacy(graph: &FactorGraph, sweeps: usize, seed: u64) -> f64 {
    let free_vars = graph.query_variables();
    let mut world = graph.initial_world();
    let mut rng = SweepRng::seed_from_u64(seed);
    // Warm up one sweep outside the timed region.
    legacy_sweep(graph, &free_vars, &mut world, &mut rng);
    let start = Instant::now();
    for _ in 0..sweeps {
        legacy_sweep(graph, &free_vars, &mut world, &mut rng);
    }
    sweeps as f64 / start.elapsed().as_secs_f64()
}

/// Time `sweeps` compiled-representation sweeps, returning sweeps/second.
fn bench_flat(flat: &FlatGraph, sweeps: usize, seed: u64) -> f64 {
    let mut sampler = GibbsSampler::from_flat(flat, seed);
    sampler.sweep();
    let start = Instant::now();
    for _ in 0..sweeps {
        sampler.sweep();
    }
    sweeps as f64 / start.elapsed().as_secs_f64()
}

fn bench_workload(label: &str, graph: &FactorGraph, sweeps: usize, entries: &mut Vec<Entry>) {
    let stats = graph.stats();
    println!(
        "\n{label}: {} variables ({} query), {} factors, avg degree {:.2}",
        stats.num_variables, stats.num_query_variables, stats.num_factors, stats.avg_degree
    );

    let compile_start = Instant::now();
    let flat = graph.compile();
    let compile_secs = compile_start.elapsed().as_secs_f64();

    let legacy = bench_legacy(graph, sweeps, 7);
    let flat_rate = bench_flat(&flat, sweeps, 7);
    let speedup = flat_rate / legacy;

    println!("  compile: {}", secs(compile_secs));
    println!("  legacy:  {legacy:>12.1} sweeps/s");
    println!("  flat:    {flat_rate:>12.1} sweeps/s  ({speedup:.2}x legacy)");

    for (kind, value, unit) in [
        ("legacy_sequential", legacy, "sweeps/s"),
        ("flat_sequential", flat_rate, "sweeps/s"),
        ("flat_vs_legacy_speedup", speedup, "x"),
        ("compile_seconds", compile_secs, "s"),
    ] {
        entries.push(Entry {
            name: format!("{label}/{kind}"),
            unit,
            value,
        });
    }
}

/// The fig9 end-to-end workload graph: the News KBC system brought to the
/// state just before the FE2 iteration, exactly like the fig9 bench.
fn fig9_graph() -> FactorGraph {
    let system = KbcSystem::generate(SystemKind::News, 0.3, 11);
    let mut engine = DeepDive::builder()
        .program(system.program.clone())
        .database(system.corpus.database.clone())
        .udfs(standard_udfs())
        .config(EngineConfig::fast())
        .build()
        .expect("engine builds");
    engine
        .run_update(
            &system.template_update(RuleTemplate::FE1),
            ExecutionMode::Rerun,
        )
        .expect("FE1 applies");
    engine
        .run_update(
            &system.template_update(RuleTemplate::S1),
            ExecutionMode::Rerun,
        )
        .expect("S1 applies");
    engine.graph().clone()
}

/// A fig5-style synthetic pairwise graph (the tradeoff-study shape), a tenth
/// of the size in the smoke profile.
fn fig5_graph(smoke: bool) -> FactorGraph {
    pairwise_graph(&SyntheticConfig {
        num_variables: if smoke { 400 } else { 4000 },
        sparsity: 0.8,
        factors_per_variable: 6,
        seed: 5,
        ..Default::default()
    })
}

/// Time the two snapshot-publish strategies over synthetic catalogs of
/// growing size: the old O(n) full rebuild vs the sharded publish (clone the
/// shard vector, Δ-merge the one touched relation's index, rank) that
/// `commit_marginals` performs after a Δ-update.
fn bench_publish_cost(sizes: &[usize], reps: usize, entries: &mut Vec<Entry>) {
    println!(
        "\npublish_cost: full rebuild vs sharded Δ-publish \
         ({PUBLISH_RELATIONS} relations, Δ = {PUBLISH_DELTA} tuples in one relation)"
    );
    for &n in sizes {
        // A synthetic `(relation, tuple) → variable` catalog with `n` entries
        // spread evenly over the relations — the shape the engine's catalog
        // cache holds after grounding a large KB.
        let catalog: HashMap<(String, Tuple), usize> = (0..n)
            .map(|i| {
                let relation = format!("Rel{:02}", i % PUBLISH_RELATIONS);
                ((relation, tuple![i as i64]), i)
            })
            .collect();
        let mut base = CatalogShards::build(catalog.iter(), 1);
        // Rank the base once against a fixed marginal vector, as the served
        // snapshot's catalog is ranked by its own publish; the timed Δ-publish
        // below then keeps every untouched ranked view and re-ranks only the
        // touched one, not a first-time build of all of them.
        let marginals = Marginals::from_values(
            (0..n + PUBLISH_DELTA)
                .map(|i| (i % 997) as f64 / 997.0)
                .collect(),
        );
        base.refresh_ranked(&marginals);
        let delta: Vec<(Tuple, Option<usize>)> = (0..PUBLISH_DELTA)
            .map(|i| (tuple![(n + i) as i64], Some(n + i)))
            .collect();

        // Baseline: the pre-sharding publish — re-index every relation from a
        // full catalog scan, as the engine used to do whenever the graph grew.
        let mut full_secs = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            let rebuilt = CatalogShards::build(catalog.iter(), 2);
            full_secs = full_secs.min(start.elapsed().as_secs_f64());
            assert_eq!(rebuilt.num_entries(), n);
        }

        // Sharded: what `commit_marginals` pays now — clone the shard vector
        // (Arc bumps for every untouched relation), sorted-merge the Δ
        // entries into the single touched shard's index, and rank as
        // `Snapshot::publish` does: an O(n) bitwise check of every ranked
        // view, one sort of the touched shard's.
        let mut sharded_secs = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            let mut next = base.clone();
            next.apply_delta("Rel00", delta.clone(), 2);
            next.refresh_ranked(&marginals);
            sharded_secs = sharded_secs.min(start.elapsed().as_secs_f64());
            assert_eq!(next.num_entries(), n + PUBLISH_DELTA);
        }

        let speedup = full_secs / sharded_secs;
        println!(
            "  n={n:>8}: full rebuild {:>10} | sharded publish {:>10}  ({speedup:.1}x)",
            secs(full_secs),
            secs(sharded_secs)
        );
        for (kind, value, unit) in [
            (format!("full_rebuild_ms_n{n}"), full_secs * 1e3, "ms"),
            (format!("sharded_publish_ms_n{n}"), sharded_secs * 1e3, "ms"),
            (format!("publish_speedup_n{n}"), speedup, "x"),
        ] {
            entries.push(Entry {
                name: format!("publish_cost/{kind}"),
                unit,
                value,
            });
        }
    }
}

/// Time the two read paths over synthetic snapshots of growing size: the
/// full scan (`FactQuery::run_scan`, iterate the tuple-sorted index and
/// filter) vs the ranked-index path (`FactQuery::run`, prefix/partition-point
/// reads of the probability-ordered view every publish maintains).  Two
/// query shapes per size — a top-k page over a threshold (the serving
/// harness's `topk` op) and a selective threshold selection — with the
/// indexed result asserted byte-identical to the scan before timing.
/// Emits `query_cost/{scan,indexed}_{shape}_us_n{N}` and
/// `query_cost/{shape}_speedup_n{N}`.
fn bench_query_cost(sizes: &[usize], reps: usize, entries: &mut Vec<Entry>) {
    println!("\nquery_cost: ranked-index read path vs full scan");
    for &n in sizes {
        // One n-tuple relation with marginals spread over [0, 1): the shape
        // a catalog shard holds after grounding and inferring a large KB.
        let catalog: HashMap<(String, Tuple), usize> = (0..n)
            .map(|i| (("Fact".to_string(), tuple![i as i64]), i))
            .collect();
        let marginals: Vec<f64> = (0..n).map(|i| (i % 997) as f64 / 997.0).collect();
        let snapshot = Snapshot::synthetic(1, marginals, CatalogShards::build(catalog.iter(), 1));

        // (label, min_probability, top_k, limit): the top-k page mirrors the
        // serving harness's `topk` op; the threshold shape selects the ~1%
        // high-confidence slice without pagination.
        let shapes: [(&str, f64, Option<usize>, Option<usize>); 2] = [
            ("topk", 0.5, Some(10), Some(10)),
            ("threshold", 0.99, None, None),
        ];
        for (label, min_p, top_k, limit) in shapes {
            let make = || {
                let mut query = snapshot.facts("Fact").min_probability(min_p);
                if let Some(k) = top_k {
                    query = query.top_k(k);
                }
                if let Some(l) = limit {
                    query = query.limit(l);
                }
                query
            };
            // The indexed path must answer byte-identically to the scan.
            assert_eq!(make().run(), make().run_scan());

            let iters = (1_000_000 / n).clamp(3, 200);
            let (mut indexed_secs, mut scan_secs) = (f64::INFINITY, f64::INFINITY);
            let mut sink = 0usize;
            for _ in 0..reps {
                let start = Instant::now();
                for _ in 0..iters {
                    sink += make().run().len();
                }
                indexed_secs = indexed_secs.min(start.elapsed().as_secs_f64() / iters as f64);
                let start = Instant::now();
                for _ in 0..iters {
                    sink += make().run_scan().len();
                }
                scan_secs = scan_secs.min(start.elapsed().as_secs_f64() / iters as f64);
            }
            assert!(sink > 0, "queries returned no facts — nothing was measured");

            let speedup = scan_secs / indexed_secs;
            println!(
                "  n={n:>8} {label:>9}: scan {:>10} | indexed {:>10}  ({speedup:.1}x)",
                secs(scan_secs),
                secs(indexed_secs)
            );
            for (kind, value, unit) in [
                (format!("scan_{label}_us_n{n}"), scan_secs * 1e6, "us"),
                (format!("indexed_{label}_us_n{n}"), indexed_secs * 1e6, "us"),
                (format!("{label}_speedup_n{n}"), speedup, "x"),
            ] {
                entries.push(Entry {
                    name: format!("query_cost/{kind}"),
                    unit,
                    value,
                });
            }
        }
    }
}

/// The program the retraction benchmark grounds: claims become facts, every
/// third claim is positively labelled.
const RETRACTION_PROGRAM: &str = "\
    relation Claim(id: int) base.\n\
    relation Label(id: int) base.\n\
    relation Fact(id: int) variable.\n\
    rule F feature: Fact(id) :- Claim(id) weight = 1.5.\n\
    rule S supervision+: Fact(id) :- Claim(id), Label(id).\n";

/// A corpus of `n` claims, every third one labelled, minus the ids in
/// `skip` (sorted).
fn retraction_database(n: usize, skip: &[usize]) -> Database {
    let mut db = Database::new();
    db.create_table("Claim", Schema::of(&[("id", DataType::Int)]))
        .expect("fresh table");
    db.create_table("Label", Schema::of(&[("id", DataType::Int)]))
        .expect("fresh table");
    for i in 0..n {
        if skip.binary_search(&i).is_ok() {
            continue;
        }
        db.insert("Claim", tuple![i as i64]).expect("seed row");
        if i % 3 == 0 {
            db.insert("Label", tuple![i as i64]).expect("seed label");
        }
    }
    db
}

/// Claims deleted by the `retraction_cost` fixed batch, whatever the KB size.
const RETRACTION_BATCH: usize = 100;

/// Best-of count of the fixed batch in both profiles: its timing at 2 000
/// claims (~0.15 ms) is the denominator of a gated ratio.
const RETRACTION_BATCH_REPS: usize = 7;

/// The incremental grounding of `update` on a live, fully grounded N-claim
/// KB (preparation untimed), best of `reps`: the seconds, the groundings
/// it retracted and the KB's catalogued variables after it.
fn time_incremental_delete(
    program: &Program,
    n: usize,
    update: &KbcUpdate,
    reps: usize,
) -> (f64, usize, usize) {
    let mut best = f64::INFINITY;
    let (mut retracted, mut left) = (0, 0);
    for _ in 0..reps {
        let mut grounder = dd_grounding::Grounder::new(
            program.clone(),
            retraction_database(n, &[]),
            standard_udfs(),
        )
        .expect("grounder builds");
        grounder.ground().expect("initial ground");
        let start = Instant::now();
        let grounding = grounder
            .ground_incremental(update)
            .expect("incremental delete batch");
        best = best.min(start.elapsed().as_secs_f64());
        retracted = grounding.retracted_groundings;
        left = grounder.num_catalogued_variables();
    }
    (best, retracted, left)
}

/// Groundings deleting `victims` retracts: every victim loses its feature
/// grounding, labelled victims their supervision grounding too.
fn retracted_by(victims: &[usize]) -> usize {
    victims.len() + victims.iter().filter(|id| *id % 3 == 0).count()
}

/// Deleting `victims` (claim ids) and their labels.
fn delete_claims(victims: &[usize]) -> KbcUpdate {
    let mut update = KbcUpdate::new();
    for &id in victims {
        update.delete("Claim", tuple![id as i64]);
        if id % 3 == 0 {
            update.delete("Label", tuple![id as i64]);
        }
    }
    update
}

/// Time the same deletion batch grounded from scratch vs through the DRed
/// retraction sweep, and one fixed batch through the sweep at every KB size.
/// Emits `retraction_cost/{rerun_delete_ms, incremental_delete_ms,
/// delete_speedup, deletes_per_sec, fixed_delete_ms}_n{N}` and
/// `retraction_cost/delete_scaling_x`.
fn bench_retraction_cost(sizes: &[usize], reps: usize, entries: &mut Vec<Entry>) {
    println!("\nretraction_cost: from-scratch re-ground vs incremental DRed deletes");
    let program = dd_grounding::parse_program(RETRACTION_PROGRAM).expect("program parses");
    let mut fixed_ms = Vec::new();
    for &n in sizes {
        let deletes = (n / 20).max(1);
        let victims: Vec<usize> = (0..deletes).map(|i| i * 20).collect();
        let update = delete_claims(&victims);

        // Baseline: what a rerun pays for the deletion — re-grounding the
        // whole post-delete corpus into a fresh graph.
        let mut rerun_secs = f64::INFINITY;
        for _ in 0..reps {
            let db = retraction_database(n, &victims);
            let start = Instant::now();
            let mut grounder = dd_grounding::Grounder::new(program.clone(), db, standard_udfs())
                .expect("grounder builds");
            grounder.ground().expect("full re-ground");
            rerun_secs = rerun_secs.min(start.elapsed().as_secs_f64());
            assert_eq!(grounder.num_catalogued_variables(), n - deletes);
        }

        // Incremental: the DRed retraction sweep on a live, fully-grounded
        // graph.
        let (incremental_secs, retracted, left) =
            time_incremental_delete(&program, n, &update, reps);
        assert_eq!((retracted, left), (retracted_by(&victims), n - deletes));
        // The fixed batch, spread over the KB.
        let stride = n / RETRACTION_BATCH;
        let batch: Vec<usize> = (0..RETRACTION_BATCH).map(|i| i * stride).collect();
        let (fixed_secs, retracted, left) =
            time_incremental_delete(&program, n, &delete_claims(&batch), RETRACTION_BATCH_REPS);
        assert_eq!(
            (retracted, left),
            (retracted_by(&batch), n - RETRACTION_BATCH)
        );
        fixed_ms.push(fixed_secs * 1e3);

        let speedup = rerun_secs / incremental_secs;
        let throughput = deletes as f64 / incremental_secs;
        println!(
            "  n={n:>6} (Δ = {deletes} deletes): re-ground {:>10} | incremental {:>10}  \
             ({speedup:.1}x, {throughput:.0} deletes/s)",
            secs(rerun_secs),
            secs(incremental_secs)
        );
        for (kind, value, unit) in [
            (format!("rerun_delete_ms_n{n}"), rerun_secs * 1e3, "ms"),
            (
                format!("incremental_delete_ms_n{n}"),
                incremental_secs * 1e3,
                "ms",
            ),
            (format!("delete_speedup_n{n}"), speedup, "x"),
            (format!("deletes_per_sec_n{n}"), throughput, "deletes/s"),
            (format!("fixed_delete_ms_n{n}"), fixed_secs * 1e3, "ms"),
        ] {
            entries.push(Entry {
                name: format!("retraction_cost/{kind}"),
                unit,
                value,
            });
        }
    }
    let scaling = fixed_ms[fixed_ms.len() - 1] / fixed_ms[0];
    println!(
        "  {RETRACTION_BATCH} deletes: {} at n={} | {} at n={} ({scaling:.2}x)",
        secs(fixed_ms[0] / 1e3),
        sizes[0],
        secs(fixed_ms[fixed_ms.len() - 1] / 1e3),
        sizes[sizes.len() - 1]
    );
    entries.push(Entry {
        name: "retraction_cost/delete_scaling_x".to_string(),
        unit: "x",
        value: scaling,
    });
}

/// Claims inserted by the `grounding_cost` delta, whatever the KB size.
const GROUNDING_DELTA: usize = 100;

/// Time a from-scratch grounding of an N-claim corpus and the incremental
/// grounding of one fixed-size insertion into it.  Emits
/// `grounding_cost/{full_ms, incremental_insert_ms}_n{N}` and the insert's
/// `grounding_cost/incremental_allocs_per_binding`.
fn bench_grounding_cost(sizes: &[usize], reps: usize, entries: &mut Vec<Entry>) {
    println!("\ngrounding_cost: full grounding vs one {GROUNDING_DELTA}-claim insert, by KB size");
    let program = dd_grounding::parse_program(RETRACTION_PROGRAM).expect("program parses");
    for &n in sizes {
        let mut update = KbcUpdate::new();
        for id in n..n + GROUNDING_DELTA {
            update.insert("Claim", tuple![id as i64]);
            if id % 3 == 0 {
                update.insert("Label", tuple![id as i64]);
            }
        }
        let (mut full_secs, mut insert_secs) = (f64::INFINITY, f64::INFINITY);
        let mut allocs_per_binding = 0.0;
        for _ in 0..reps {
            let db = retraction_database(n, &[]);
            let start = Instant::now();
            let mut grounder = dd_grounding::Grounder::new(program.clone(), db, standard_udfs())
                .expect("grounder builds");
            grounder.ground().expect("full grounding");
            full_secs = full_secs.min(start.elapsed().as_secs_f64());

            let start = Instant::now();
            let (grounding, allocations) = count_allocations(|| {
                grounder
                    .ground_incremental(&update)
                    .expect("incremental insert batch")
            });
            insert_secs = insert_secs.min(start.elapsed().as_secs_f64());
            assert_eq!(grounding.new_variables.len(), GROUNDING_DELTA);
            assert_eq!(grounder.num_catalogued_variables(), n + GROUNDING_DELTA);
            allocs_per_binding = allocations as f64 / grounding.new_groundings as f64;
        }
        println!(
            "  n={n:>6}: full {:>10} | +{GROUNDING_DELTA} claims {:>10}",
            secs(full_secs),
            secs(insert_secs)
        );
        for (kind, value) in [
            ("full_ms", full_secs),
            ("incremental_insert_ms", insert_secs),
        ] {
            entries.push(Entry {
                name: format!("grounding_cost/{kind}_n{n}"),
                unit: "ms",
                value: value * 1e3,
            });
        }
        // Every rep counts the same insert into a fresh grounder; the
        // smallest KB runs in both profiles.
        if n == sizes[0] {
            println!("  allocations: {allocs_per_binding:.3} per new grounding at n={n}");
            entries.push(Entry {
                name: "grounding_cost/incremental_allocs_per_binding".to_string(),
                unit: "allocs",
                value: allocs_per_binding,
            });
        }
    }
}

/// Doc-keyed claims program (the serving benchmark's KB): two variable
/// relations, six rules, every fact pinned by a supervision rule.
const CLAIMS_PROGRAM: &str = "\
    relation Claim(doc: int, id: int) base.\n\
    relation Pos(doc: int, id: int) base.\n\
    relation Neg(doc: int, id: int) base.\n\
    relation Link(doc: int, a: int, b: int) base.\n\
    relation Fact(doc: int, id: int) variable.\n\
    relation Rel(doc: int, a: int, b: int) variable.\n\
    rule F feature: Fact(doc, id) :- Claim(doc, id) weight = 1.5.\n\
    rule SP supervision+: Fact(doc, id) :- Claim(doc, id), Pos(doc, id).\n\
    rule SN supervision-: Fact(doc, id) :- Claim(doc, id), Neg(doc, id).\n\
    rule L feature: Rel(doc, a, b) :- Link(doc, a, b) weight = 0.5.\n\
    rule LP supervision+: Rel(doc, a, b) :- Link(doc, a, b), Pos(doc, a).\n\
    rule LN supervision-: Rel(doc, a, b) :- Link(doc, a, b), Neg(doc, a).\n";

/// Facts (variables) one claims document contributes: 6 `Fact` + 2 `Rel`.
const CLAIMS_FACTS_PER_DOC: usize = 8;

/// A claims KB of `facts` facts; labels and links from a fixed mixing of the
/// document number.
fn claims_database(facts: usize) -> Database {
    let mut db = Database::new();
    let pair = || Schema::of(&[("doc", DataType::Int), ("id", DataType::Int)]);
    for table in ["Claim", "Pos", "Neg"] {
        db.create_table(table, pair()).expect("fresh table");
    }
    let link = Schema::of(&[
        ("doc", DataType::Int),
        ("a", DataType::Int),
        ("b", DataType::Int),
    ]);
    db.create_table("Link", link).expect("fresh table");
    for doc in 0..(facts / CLAIMS_FACTS_PER_DOC) as i64 {
        let bits = (doc as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for id in 0..6i64 {
            db.insert("Claim", tuple![doc, id]).expect("seed row");
            let label = if (bits >> id) & 1 == 1 { "Pos" } else { "Neg" };
            db.insert(label, tuple![doc, id]).expect("seed row");
        }
        for index in 0..2i64 {
            let b = ((bits >> (8 + 4 * index)) % 6) as i64;
            db.insert("Link", tuple![doc, index, b]).expect("seed row");
        }
    }
    db
}

/// The News system with FE1 + S1 + S2 in the program from the start (the
/// document-stream benchmark's program), so a cold start grounds variables.
fn news_cold_start(scale: f64) -> (Program, Database) {
    let system = KbcSystem::generate(SystemKind::News, scale, 11);
    (stream_program(&system), system.corpus.database.clone())
}

/// `system`'s program with FE1 + S1 + S2 added.
fn stream_program(system: &KbcSystem) -> Program {
    let mut program = system.program.clone();
    for template in [RuleTemplate::FE1, RuleTemplate::S1, RuleTemplate::S2] {
        program.rules.push(template.rule(system.semantics));
    }
    program
}

/// Time the phases of a cold start (best of `reps` fresh engines) and emit
/// `cold_start/{ground,learn_infer,publish,materialize}_ms_{label}`.
fn bench_cold_start_phases(
    label: &str,
    program: &Program,
    db: &Database,
    reps: usize,
    entries: &mut Vec<Entry>,
) {
    let mut best = [f64::INFINITY; 4];
    let mut facts = 0;
    for _ in 0..reps {
        let mut engine = DeepDive::builder()
            .program(program.clone())
            .database(db.clone())
            .udfs(standard_udfs())
            .config(EngineConfig::default())
            .build()
            .expect("engine builds");
        let start = Instant::now();
        let report = engine.initial_run().expect("initial run");
        let run_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        engine.materialize().expect("materialize");
        let materialize_secs = start.elapsed().as_secs_f64();
        let learn_infer = report.learning_secs + report.inference_secs;
        // What `initial_run` spends outside its three reported phases is the
        // snapshot publish (catalog shards, ranked indexes, the swap).
        let publish = run_secs - report.grounding_secs - learn_infer;
        for (slot, value) in best.iter_mut().zip([
            report.grounding_secs,
            learn_infer,
            publish,
            materialize_secs,
        ]) {
            *slot = slot.min(value);
        }
        facts = engine.snapshot().num_catalogued_variables();
    }
    println!(
        "  {label:>12} ({facts} facts): ground {:>9} | learn+infer {:>9} | publish {:>9} | materialize {:>9}",
        secs(best[0]),
        secs(best[1]),
        secs(best[2]),
        secs(best[3])
    );
    for (phase, value) in ["ground", "learn_infer", "publish", "materialize"]
        .into_iter()
        .zip(best)
    {
        entries.push(Entry {
            name: format!("cold_start/{phase}_ms_{label}"),
            unit: "ms",
            value: value * 1e3,
        });
    }
}

/// The exact counters of the cold path, on the 4 000-fact claims KB and a
/// fixed synthetic chain: allocations per grounded binding, per additional
/// stored sample, per additional MH step; and on the 4 000-fact News corpus,
/// the heap its grounding's indexes hold per indexed row.
fn bench_cold_start_allocations(entries: &mut Vec<Entry>) {
    // Per binding: one full grounding.
    let program = dd_grounding::parse_program(CLAIMS_PROGRAM).expect("program parses");
    let mut grounder =
        dd_grounding::Grounder::new(program.clone(), claims_database(4_000), standard_udfs())
            .expect("grounder builds");
    let (result, allocations) = count_allocations(|| grounder.ground().expect("full grounding"));
    let bindings: usize = result.groundings_per_rule.values().sum();
    let per_binding = allocations as f64 / bindings as f64;
    let probed_per_binding = result.rows_probed as f64 / bindings as f64;

    // Per sample: what doubling the sample count adds to `materialize`.
    const SAMPLES: usize = 1_000;
    let materialize_allocations = |samples: usize| {
        let mut engine = DeepDive::builder()
            .program(program.clone())
            .database(claims_database(4_000))
            .config(EngineConfig {
                materialization_samples: samples,
                ..EngineConfig::default()
            })
            .build()
            .expect("engine builds");
        engine.initial_run().expect("initial run");
        count_allocations(|| engine.materialize().expect("materialize")).1
    };
    let (base, doubled) = (
        materialize_allocations(SAMPLES),
        materialize_allocations(2 * SAMPLES),
    );
    let per_sample = doubled.saturating_sub(base) as f64 / SAMPLES as f64;

    // Per MH step: what doubling the chain length adds to `infer`, on a
    // graph with free variables and a changed (tied) weight.
    let graph = fig5_graph(true);
    let materialization = SampleMaterialization::from_samples(
        GibbsSampler::new(&graph, 7).draw_samples(4 * SAMPLES, 20),
    );
    let mut updated = graph.clone();
    let old = updated.weight(0).value;
    updated.set_weight_value(0, old + 0.3);
    let change = DistributionChange {
        changed_weights: vec![(0, old)],
        ..Default::default()
    };
    let infer_allocations = |steps: usize| {
        let (outcome, allocations) =
            count_allocations(|| materialization.infer(&updated, &change, steps, 7));
        assert!(!outcome.exhausted);
        allocations
    };
    let (base, doubled) = (infer_allocations(SAMPLES), infer_allocations(2 * SAMPLES));
    let per_step = doubled.saturating_sub(base) as f64 / SAMPLES as f64;

    // Per indexed row: the live heap the persistent indexes of one News
    // grounding hold, freed by dropping them, per row handle they held.
    let (program, database) = news_cold_start(4_000.0 / 216.0);
    let mut grounder =
        dd_grounding::Grounder::new(program, database, standard_udfs()).expect("grounder builds");
    grounder.ground().expect("full grounding");
    let database = grounder.database_mut();
    let (indexed_rows, heap) = measure_heap(|| {
        database
            .table_names()
            .iter()
            .map(|name| database.table_mut(name).expect("listed").drop_indexes())
            .sum::<usize>()
    });
    let index_bytes = -heap.retained;
    let index_per_row = index_bytes as f64 / indexed_rows as f64;

    println!(
        "  allocations: {per_binding:.3} per binding ({allocations} over {bindings} bindings) | \
         {per_sample:.4} per sample | {per_step:.4} per MH step"
    );
    println!(
        "  indexes: {index_per_row:.1} heap bytes per indexed row ({index_bytes} B over \
         {indexed_rows} rows, News n4000)"
    );
    println!(
        "  rows probed: {probed_per_binding:.3} per binding ({} over {bindings} bindings)",
        result.rows_probed
    );
    for (name, unit, value) in [
        ("allocs_per_binding", "allocs", per_binding),
        ("rows_probed_per_binding", "rows", probed_per_binding),
        ("allocs_per_sample", "allocs", per_sample),
        ("allocs_per_mh_step", "allocs", per_step),
        ("index_heap_bytes_per_row", "B", index_per_row),
    ] {
        entries.push(Entry {
            name: format!("cold_start/{name}"),
            unit,
            value,
        });
    }
}

/// Milliseconds of the fastest of `reps` runs of `work`.
fn best_ms(reps: usize, work: &mut dyn FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// What a cold start pays before grounding, on the 4 000-fact claims KB:
/// loading its rows in order through `Database::insert`, and splitting the
/// loaded database over 4 shards as a routed cluster does.  Best of `reps`.
fn bench_cold_start_loading(reps: usize, entries: &mut Vec<Entry>) {
    const FACTS: usize = 4_000;
    let load_ms = best_ms(reps, &mut || {
        black_box(claims_database(FACTS));
    });
    let database = claims_database(FACTS);
    let assignment = ShardAssignment::HashKey { column: 0 };
    let partition_ms = best_ms(reps, &mut || {
        black_box(
            assignment
                .partition_database(&database, 4)
                .expect("claims rows carry the key column"),
        );
    });
    println!(
        "  {:>12} ({} rows): load {load_ms:.3} ms | partition into 4 shards {partition_ms:.3} ms",
        format!("claims_n{FACTS}"),
        database.total_tuples()
    );
    for (phase, value) in [("load", load_ms), ("partition", partition_ms)] {
        entries.push(Entry {
            name: format!("cold_start/{phase}_ms_claims_n{FACTS}"),
            unit: "ms",
            value,
        });
    }
}

fn bench_cold_start(reps: usize, entries: &mut Vec<Entry>) {
    println!("\ncold_start: ground / learn+infer / publish / materialize of a fresh engine");
    bench_cold_start_loading(4 * reps, entries);
    let claims = dd_grounding::parse_program(CLAIMS_PROGRAM).expect("program parses");
    for facts in [4_000usize, 16_000] {
        let label = format!("claims_n{facts}");
        bench_cold_start_phases(&label, &claims, &claims_database(facts), reps, entries);
    }
    // News grounds one candidate fact per document, 216 documents per unit
    // of scale.
    for facts in [4_000usize, 16_000] {
        let (program, db) = news_cold_start(facts as f64 / 216.0);
        bench_cold_start_phases(&format!("news_n{facts}"), &program, &db, reps, entries);
    }
    bench_cold_start_allocations(entries);
}

/// `num_vars` query variables with a prior each (16 tied weights spread
/// over [-2, 2]); the first `num_coupled` of them are also chained pairwise.
fn materialize_cost_graph(num_vars: usize, num_coupled: usize) -> FactorGraph {
    let mut b = FactorGraphBuilder::new();
    let vars = b.add_query_variables(num_vars);
    let priors: Vec<_> = (0..16)
        .map(|k| b.tied_weight(&format!("prior:{k}"), k as f64 * 0.25 - 2.0, false))
        .collect();
    for (i, &v) in vars.iter().enumerate() {
        b.add_factor(Factor::is_true(priors[i % priors.len()], v));
    }
    let link = b.tied_weight("link", 0.4, false);
    for pair in vars[..num_coupled].windows(2) {
        b.add_factor(Factor::equal(link, pair[0], pair[1]));
    }
    b.build()
}

/// `materialize_cost/*` for one graph (see the module docs).
fn bench_materialize_cost_of(
    label: &str,
    graph: &FactorGraph,
    reps: usize,
    entries: &mut Vec<Entry>,
) {
    let samples_per_store = EngineConfig::default().materialization_samples;
    const BURN_IN: usize = 100;
    let flat = graph.compile();
    let draw_ms = best_ms(reps, &mut || {
        black_box(GibbsSampler::from_flat(&flat, 7).draw_samples(samples_per_store, BURN_IN));
    });
    let samples = GibbsSampler::from_flat(&flat, 7).draw_samples(samples_per_store, BURN_IN);
    let options = VariationalOptions::default();
    let moments_ms = best_ms(reps, &mut || {
        black_box(VariationalMaterialization::from_samples(
            graph, &samples, &options,
        ));
    });
    // Exact: one bit per sample for each variable of a sampled component,
    // nothing for the others.
    let stored_bits = samples.len() * samples.columns().len();
    let sampled = flat.sampled_query_variables().len();
    assert_eq!(stored_bits, samples_per_store * sampled, "{label}");
    let bits_per_var = stored_bits as f64 / flat.query_variables().len() as f64;
    println!(
        "  {label}: draw {draw_ms:.3} ms | moments {moments_ms:.3} ms | \
         {stored_bits} stored bits ({bits_per_var:.1} per query variable)"
    );
    for (kind, unit, value) in [
        ("draw_ms", "ms", draw_ms),
        ("moments_ms", "ms", moments_ms),
        ("stored_bits_per_var", "bits", bits_per_var),
    ] {
        entries.push(Entry {
            name: format!("materialize_cost/{kind}_{label}"),
            unit,
            value,
        });
    }
}

fn bench_materialize_cost(reps: usize, entries: &mut Vec<Entry>) {
    println!("\nmaterialize_cost: 1 500 samples of the sampled components' columns");
    bench_materialize_cost_of(
        "unary_n4000",
        &materialize_cost_graph(4_000, 0),
        reps,
        entries,
    );
    bench_materialize_cost_of(
        "chained_n4000",
        &materialize_cost_graph(4_000, 4_000),
        reps,
        entries,
    );
}

/// `exactness/max_gap_<system>`: the largest |published − exact| over the
/// enumerated components of `dd_bench::exactness`'s oracle cells — every
/// rule template in development order, both modes — at scale 0.15.
fn bench_exactness(entries: &mut Vec<Entry>) {
    println!("\nexactness: published vs brute-force marginals of every small component");
    for system in SystemKind::all() {
        let gap = [ExecutionMode::Incremental, ExecutionMode::Rerun]
            .into_iter()
            .flat_map(|mode| dd_bench::exactness::development_cells(system, 0.15, 41, mode))
            .map(|cell| cell.enumerated_max_gap)
            .fold(0.0, f64::max);
        println!("  {}: max gap {gap:.3e}", system.name());
        entries.push(Entry {
            name: format!("exactness/max_gap_{}", system.name().to_lowercase()),
            unit: "abs",
            value: gap,
        });
    }
}

/// A wire response holding one `all_facts` page of `rows` facts.
fn all_facts_page(rows: usize) -> Response {
    let facts = (0..rows as i64)
        .map(|i| {
            let relation = if i % 3 == 0 { "Rel" } else { "Fact" };
            (
                relation.to_string(),
                tuple![i / 6, i % 6],
                0.5 + 0.001 * (i % 400) as f64,
            )
        })
        .collect();
    Response::Batch(Batch {
        epoch: 7,
        results: vec![OpResult::AllFacts(facts)],
        epochs: None,
    })
}

/// Best-of-`reps` nanoseconds per byte of `json::parse` on an `all_facts`
/// document of about `bytes` bytes.
fn parse_ns_per_byte(bytes: usize, reps: usize) -> f64 {
    // A fact row encodes to ~55 bytes.
    let text = String::from_utf8(all_facts_page(bytes / 55).encode()).expect("JSON is UTF-8");
    let best = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let doc = dd_wire::json::parse(black_box(&text)).expect("the encoder's output parses");
            let elapsed = start.elapsed().as_secs_f64();
            black_box(doc);
            elapsed
        })
        .fold(f64::INFINITY, f64::min);
    best * 1e9 / text.len() as f64
}

/// A scratch directory for one durable engine of this process.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dd-bench-sweeps-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_codec(reps: usize, entries: &mut Vec<Entry>) {
    println!("\ncodec: scanner scaling, allocations per row, recovery of a durable directory");
    let (small, large) = (
        parse_ns_per_byte(64 << 10, 4 * reps),
        parse_ns_per_byte(1 << 20, reps),
    );
    println!(
        "  parse: {small:.2} ns/B at 64 KB | {large:.2} ns/B at 1 MB | scaling {:.2}x",
        large / small
    );

    // The heap the first checkpoint of the full state leaves behind, then
    // the allocations and the peak extra heap of a steady-state checkpoint
    // (the second one), on the claims KB.
    let dir = scratch_dir("checkpoint");
    let database = claims_database(4_000);
    let rows = database.total_tuples();
    let mut engine = DeepDive::builder()
        .program_text(CLAIMS_PROGRAM)
        .database(database)
        .config(EngineConfig::default())
        .durability(DurabilityConfig::new(&dir).fsync(FsyncPolicy::Never))
        .build()
        .expect("durable engine builds");
    engine.initial_run().expect("initial run");
    let (_, first) = measure_heap(|| engine.checkpoint().expect("first checkpoint"));
    let ((covered, allocations), steady) =
        measure_heap(|| count_allocations(|| engine.checkpoint().expect("checkpoint")));
    let checkpoint_per_row = allocations as f64 / rows as f64;
    let file = dir
        .join("checkpoints")
        .join(format!("ckpt-{covered:020}.ckpt"));
    let payload = std::fs::metadata(&file).expect("checkpoint file").len()
        - dd_wire::RECORD_HEADER_BYTES as u64;
    let peak_per_byte = steady.peak_extra as f64 / payload as f64;
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "  checkpoint heap: {} KB payload | peak {} KB extra ({peak_per_byte:.4} per payload \
         byte) | {} bytes retained by the first one",
        payload / 1024,
        steady.peak_extra / 1024,
        first.retained
    );

    // Allocations of decoding one 400-fact page, per fact.
    const PAGE: usize = 400;
    let frame = all_facts_page(PAGE).encode();
    let (decoded, allocations) = count_allocations(|| Response::decode(&frame));
    assert!(decoded.is_ok());
    let decode_per_row = allocations as f64 / PAGE as f64;
    println!(
        "  allocations: {checkpoint_per_row:.4} per row of a checkpoint ({rows} rows) | \
         {decode_per_row:.4} per fact of a decoded page"
    );

    // Recovery: the document-stream benchmark's last episode in small — half
    // of a 648-document News corpus up front, 8 documents a round, a
    // materialization and a checkpoint after round 16, 16 more rounds left
    // in the WAL — then the directory reopened.
    let dir = scratch_dir("recovery");
    let system = KbcSystem::generate(SystemKind::News, 3.0, 11);
    let program = stream_program(&system);
    let (initial, later) = system.corpus.split_for_incremental(0.5);
    let open = |database: Database| {
        DeepDive::builder()
            .program(program.clone())
            .database(database)
            .udfs(standard_udfs())
            .config(EngineConfig::default())
            .durability(DurabilityConfig::new(&dir).fsync(FsyncPolicy::Never))
            .build()
            .expect("durable engine builds")
    };
    let mut engine = open(initial.clone());
    engine.initial_run().expect("initial run");
    for (round, documents) in later.chunks(8).take(32).enumerate() {
        let mut update = KbcUpdate::new();
        for (relation, row) in documents.iter().flat_map(|d| &d.rows) {
            update.insert(relation, row.clone());
        }
        engine
            .run_update(&update, ExecutionMode::Incremental)
            .expect("round applies");
        if round + 1 == 16 {
            engine.materialize().expect("materialize");
            engine.checkpoint().expect("checkpoint");
        }
    }
    let epoch = engine.snapshot().epoch();
    drop(engine);
    let recovery = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let engine = open(initial.clone());
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(
                engine.snapshot().epoch(),
                epoch,
                "recovery replays the tail"
            );
            elapsed
        })
        .fold(f64::INFINITY, f64::min);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "  recovery: {:.1} ms to reopen at epoch {epoch}",
        recovery * 1e3
    );

    for (name, unit, value) in [
        ("parse_ns_per_byte_64k", "ns/B", small),
        ("parse_ns_per_byte_1m", "ns/B", large),
        ("parse_scaling_x", "x", large / small),
        (
            "checkpoint_encode_allocs_per_row",
            "allocs",
            checkpoint_per_row,
        ),
        (
            "checkpoint_peak_heap_per_payload_byte",
            "B/B",
            peak_per_byte,
        ),
        ("checkpoint_retained_heap_bytes", "B", first.retained as f64),
        ("response_decode_allocs_per_row", "allocs", decode_per_row),
        ("recovery_ms_n650", "ms", recovery * 1e3),
    ] {
        entries.push(Entry {
            name: format!("codec/{name}"),
            unit,
            value,
        });
    }
}

/// The router's share of a paged scan: the heap allocations one warm
/// `Router::batch` of an `all_facts` page at offset 300 makes, per row of
/// the page, over a 4-shard cluster of the 4 000-fact claims KB.  Every
/// shard answers 400 rows; the router's thread does all of the scatter,
/// gather and merge, and only its allocations are counted.
fn bench_router(entries: &mut Vec<Entry>) {
    println!("\nrouter: allocations of one routed page");
    const OFFSET: usize = 300;
    const PAGE: usize = 100;
    let cluster = Cluster::build(
        CLAIMS_PROGRAM,
        &claims_database(4_000),
        &standard_udfs(),
        &ClusterConfig::new(4),
    )
    .expect("cluster builds");
    cluster.initial_run().expect("initial run");
    let mut router = cluster
        .router(RouterConfig::default())
        .expect("router over the cluster");
    let page = [Op::AllFacts {
        min_probability: 0.0,
        offset: OFFSET,
        limit: PAGE,
    }];
    // The first batch dials every shard; the counted one reuses the
    // connections.
    router.batch(&page).expect("routed page");
    let (batch, allocations) = count_thread_allocations(|| router.batch(&page));
    let batch = batch.expect("routed page");
    assert!(
        matches!(&batch.results[..], [OpResult::AllFacts(rows)] if rows.len() == PAGE),
        "the page is full"
    );
    let per_row = allocations as f64 / PAGE as f64;
    println!("  allocations: {per_row:.2} per row of a {PAGE}-row page at offset {OFFSET}");
    entries.push(Entry {
        name: "router/page_allocs_per_row".to_string(),
        unit: "allocs",
        value: per_row,
    });
}

fn main() {
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut out_path = "BENCH_sweeps.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--only" => only = args.next(),
            other if other.starts_with('-') => {
                eprintln!(
                    "bench_sweeps: unknown flag '{other}' \
                     (expected [--smoke] [--only <series>] [output.json])"
                );
                std::process::exit(2);
            }
            other => out_path = other.to_string(),
        }
    }
    // `--only cold_start` runs one series (a partial file: not for the gate).
    let runs = |series: &str| only.as_deref().is_none_or(|o| o == series);

    // Smoke mode trades precision for CI wall-clock: fewer timed sweeps and
    // smaller publish catalogs, same metrics, same gates.
    let (fig9_sweeps, fig5_sweeps) = if smoke { (60, 40) } else { (300, 100) };
    let publish_sizes: &[usize] = if smoke {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let publish_reps = if smoke { 3 } else { 5 };
    // One range in both profiles: `check_sweeps` holds
    // `retraction_cost/delete_scaling_x`, the 32 000-claim end over the
    // 2 000-claim end, to a ceiling.
    let retraction_sizes: &[usize] = &[2_000, 8_000, 32_000];

    let mut entries = Vec::new();
    if runs("fig9_news_end_to_end") {
        bench_workload(
            "fig9_news_end_to_end",
            &fig9_graph(),
            fig9_sweeps,
            &mut entries,
        );
    }
    if runs("fig5_synthetic_pairwise") {
        bench_workload(
            "fig5_synthetic_pairwise",
            &fig5_graph(smoke),
            fig5_sweeps,
            &mut entries,
        );
    }
    if runs("publish_cost") {
        bench_publish_cost(publish_sizes, publish_reps, &mut entries);
    }
    if runs("retraction_cost") {
        bench_retraction_cost(retraction_sizes, publish_reps, &mut entries);
    }
    if runs("grounding_cost") {
        bench_grounding_cost(retraction_sizes, publish_reps, &mut entries);
    }
    if runs("query_cost") {
        bench_query_cost(publish_sizes, publish_reps, &mut entries);
    }
    if runs("cold_start") {
        bench_cold_start(publish_reps, &mut entries);
    }
    if runs("codec") {
        bench_codec(publish_reps, &mut entries);
    }
    if runs("materialize_cost") {
        bench_materialize_cost(publish_reps, &mut entries);
    }
    if runs("exactness") {
        bench_exactness(&mut entries);
    }
    if runs("router") {
        bench_router(&mut entries);
    }

    let mut json = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "  {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {:.6}}}{}",
            e.name,
            e.unit,
            e.value,
            if i + 1 == entries.len() { "" } else { "," }
        );
    }
    json.push_str("]\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {} entries to {out_path}", entries.len());
}
