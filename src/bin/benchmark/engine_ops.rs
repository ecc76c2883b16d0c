//! Timed calls into the engine, shared by every workload: each call is one
//! span, and `run_update` / `initial_run` spans get `grounding` / `inference`
//! children synthesised from the `IterationReport` the call returned.

use crate::inputs::{SCAN_LIMIT, SCAN_PAGES, TOP_K};
use crate::report::Values;
use crate::stats::{Calibrator, Recorder, SplitMix64};
use crate::trace::{OnOffWalls, Tracer, ROOT};
use deepdive_repro::engine::{DeepDive, EngineError, ExecutionMode, IterationReport, Snapshot};
use deepdive_repro::grounding::KbcUpdate;
use deepdive_repro::relstore::Tuple;

/// What the workloads share: arguments, the trace, problems found by checks
/// and the attempted/failed operation counts.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    /// Shrunk inputs for `--smoke`; the metrics are not comparable.
    pub smoke: bool,
    pub scratch: std::path::PathBuf,
    pub tracer: Tracer,
    /// Walls of the run's repetitions with and without spans kept.
    pub on_off: OnOffWalls,
    /// Machine-speed samples taken between the repetitions.
    pub calibrator: Calibrator,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Run {
    /// An untraced run over a scratch directory of the caller's.
    #[cfg(test)]
    pub fn for_test(scratch: std::path::PathBuf) -> Run {
        Run {
            seed: 1,
            seconds: 1.0,
            smoke: true,
            scratch,
            tracer: Tracer::new(false, std::time::Instant::now()),
            on_off: OnOffWalls::default(),
            calibrator: Calibrator::default(),
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Record a failed check; the run ends with `correct: false`.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("check failed: {what}");
        self.problems.push(what);
    }

    /// Start twin `twin` (0 or 1) of a unit of work in pass `pass`, under a
    /// root span of its own.  Every unit is repeated in back-to-back pairs of
    /// which one keeps its spans (which one goes first alternates by pass), so
    /// a traced run measures each unit both ways within a second or two.
    /// Returns the root span and whether spans are kept.
    pub fn open_repetition(&mut self, pass: u64, twin: u64) -> (Option<u32>, bool) {
        self.tracer.set_recording((pass + twin).is_multiple_of(2));
        let root = self.tracer.open(ROOT, None, 2 * pass + twin);
        (root, self.tracer.is_recording())
    }

    pub fn close_repetition(&mut self, unit: usize, root: Option<u32>, traced: bool, seconds: f64) {
        self.tracer.close(root);
        self.on_off.record(unit, traced, seconds);
        self.calibrator.sample();
    }

    /// Count one operation, and its failure if it failed.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(err) => {
                self.failed += 1;
                self.problem(format!("{what} failed: {err}"));
                None
            }
        }
    }
}

pub fn report_children(report: &IterationReport) -> [(&'static str, f64); 3] {
    [
        ("grounding.ground", report.grounding_secs),
        ("inference.learn", report.learning_secs),
        ("inference.infer", report.inference_secs),
    ]
}

/// Phase totals over a set of `run_update` calls.
#[derive(Debug, Default, Clone)]
pub struct UpdateTotals {
    pub updates: u64,
    pub wall_s: f64,
    pub grounding_s: f64,
    pub learning_s: f64,
    pub inference_s: f64,
    pub resharded: u64,
}

impl UpdateTotals {
    pub fn add(&mut self, report: &IterationReport, wall_s: f64) {
        self.updates += 1;
        self.wall_s += wall_s;
        self.grounding_s += report.grounding_secs;
        self.learning_s += report.learning_secs;
        self.inference_s += report.inference_secs;
        self.resharded += report.resharded_relations.len() as u64;
    }

    /// `run_update` wall not covered by ground/learn/infer: snapshot publish,
    /// WAL append, bookkeeping.
    pub fn self_ms_per_update(&self) -> f64 {
        let own = self.wall_s - self.grounding_s - self.learning_s - self.inference_s;
        own.max(0.0) * 1e3 / self.updates.max(1) as f64
    }

    pub fn share(&self, part_s: f64) -> f64 {
        if self.wall_s > 0.0 {
            part_s / self.wall_s
        } else {
            0.0
        }
    }
}

pub fn timed_initial_run(
    run: &mut Run,
    engine: &mut DeepDive,
    parent: Option<u32>,
) -> Option<IterationReport> {
    let (result, _, span) = run
        .tracer
        .time("core.initial_run", parent, 0, || engine.initial_run());
    let report = run.attempt("initial_run", result)?;
    run.tracer
        .synthesise_children(span, &report_children(&report));
    Some(report)
}

pub fn timed_materialize(run: &mut Run, engine: &mut DeepDive, parent: Option<u32>) -> f64 {
    let (result, seconds, _) = run
        .tracer
        .time("core.materialize", parent, 0, || engine.materialize());
    run.attempt("materialize", result);
    seconds
}

/// One `run_update`; returns the report and the call's wall seconds.
pub fn timed_update(
    run: &mut Run,
    engine: &mut DeepDive,
    update: &KbcUpdate,
    mode: ExecutionMode,
    parent: Option<u32>,
    op_id: u64,
) -> Option<(IterationReport, f64)> {
    let (result, seconds, span) = run.tracer.time("core.run_update", parent, op_id, || {
        engine.run_update(update, mode)
    });
    let report = run.attempt("run_update", result)?;
    run.tracer
        .synthesise_children(span, &report_children(&report));
    Some((report, seconds))
}

pub fn timed_retract(
    run: &mut Run,
    engine: &mut DeepDive,
    relation: &str,
    tuple: Tuple,
    parent: Option<u32>,
    op_id: u64,
) -> Option<(IterationReport, f64)> {
    let (result, seconds, span): (Result<IterationReport, EngineError>, _, _) =
        run.tracer
            .time("core.retract_supervision", parent, op_id, || {
                engine.retract_supervision(relation, tuple)
            });
    let report = run.attempt("retract_supervision", result)?;
    run.tracer
        .synthesise_children(span, &report_children(&report));
    Some((report, seconds))
}

/// Per-op latency recorders of the three read classes, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct ReadLatencies {
    pub point_ms: Recorder,
    pub topk_ms: Recorder,
    pub scan_ms: Recorder,
}

impl ReadLatencies {
    /// The in-process reads as the per-layer `core.snapshot_*_us` metrics.
    pub fn report(&mut self, values: &mut Values) {
        values.set("core.snapshot_point_us", self.point_ms.median() * 1e3);
        values.set("core.snapshot_topk_us", self.topk_ms.median() * 1e3);
        values.set("core.snapshot_scan_us", self.scan_ms.median() * 1e3);
    }
}

/// The first `limit` tuples of a variable relation, in tuple order.
pub fn relation_keys(snapshot: &Snapshot, relation: &str, limit: usize) -> Vec<Tuple> {
    snapshot
        .facts(relation)
        .limit(limit)
        .run()
        .into_iter()
        .map(|(tuple, _)| tuple)
        .collect()
}

/// Batches per call: ~2 000 point reads, ~400 top-k queries, ~100 pages.
const READ_BATCHES: usize = 24;
const POINTS_PER_BATCH: usize = 64;
const TOPKS_PER_BATCH: usize = 16;
const SCANS_PER_BATCH: usize = 4;

/// The serving mix's three reads, issued in-process against one snapshot:
/// the floor under the same reads over a socket (a per-layer probe of
/// `deepdive`'s read path, not an end-to-end metric of any workload).  Ops are timed in small batches (one clock
/// pair per batch), each batch contributing its per-op mean.
pub fn snapshot_reads(
    run: &mut Run,
    snapshot: &Snapshot,
    relation: &str,
    keys: &[Tuple],
    rng: &mut SplitMix64,
    parent: Option<u32>,
    out: &mut ReadLatencies,
) {
    if keys.is_empty() {
        run.problem("no keys to read");
        return;
    }
    let pages = ((snapshot.num_catalogued_variables() / SCAN_LIMIT) as u64).clamp(1, SCAN_PAGES);
    for _ in 0..READ_BATCHES {
        let picks: Vec<&Tuple> = (0..POINTS_PER_BATCH)
            .map(|_| &keys[rng.below(keys.len() as u64) as usize])
            .collect();
        let (hits, seconds, _) = run.tracer.time("core.snapshot_point", parent, 0, || {
            picks
                .iter()
                .filter(|t| std::hint::black_box(snapshot.probability_of(relation, t)).is_some())
                .count()
        });
        if hits != picks.len() {
            run.problem(format!(
                "{} of {} point reads missed",
                picks.len() - hits,
                picks.len()
            ));
        }
        out.point_ms.record(seconds * 1e3 / POINTS_PER_BATCH as f64);

        let (sorted, seconds, _) = run.tracer.time("core.snapshot_topk", parent, 0, || {
            (0..TOPKS_PER_BATCH).all(|_| {
                let facts = snapshot
                    .facts(relation)
                    .min_probability(0.5)
                    .top_k(TOP_K)
                    .limit(TOP_K)
                    .run();
                top_k_is_ordered(&facts)
            })
        });
        if !sorted {
            run.problem("in-process top-k not sorted prob-desc/tuple-asc");
        }
        out.topk_ms.record(seconds * 1e3 / TOPKS_PER_BATCH as f64);

        let offsets: Vec<usize> = (0..SCANS_PER_BATCH)
            .map(|_| rng.below(pages) as usize * SCAN_LIMIT)
            .collect();
        let (rows, seconds, _) = run.tracer.time("core.snapshot_scan", parent, 0, || {
            offsets
                .iter()
                .map(|offset| {
                    std::hint::black_box(snapshot.all_facts(0.0, *offset, SCAN_LIMIT)).len()
                })
                .sum::<usize>()
        });
        if rows == 0 {
            run.problem("in-process scan returned nothing");
        }
        out.scan_ms.record(seconds * 1e3 / SCANS_PER_BATCH as f64);
    }
    run.attempted += (READ_BATCHES * (POINTS_PER_BATCH + TOPKS_PER_BATCH + SCANS_PER_BATCH)) as u64;
}

/// Top-k answers come back by descending probability, ties by ascending
/// tuple, each at or above the 0.5 threshold of the mix.
pub fn top_k_is_ordered(facts: &[(Tuple, f64)]) -> bool {
    facts.len() <= TOP_K
        && facts.iter().all(|(_, p)| *p >= 0.5)
        && facts
            .windows(2)
            .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 <= w[1].0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepdive_repro::relstore::Value;

    #[test]
    fn top_k_order_check() {
        let t = |v: i64| Tuple::from_iter([Value::Int(v)]);
        assert!(top_k_is_ordered(&[]));
        assert!(top_k_is_ordered(&[(t(2), 1.0), (t(5), 1.0), (t(1), 0.7)]));
        assert!(!top_k_is_ordered(&[(t(5), 1.0), (t(2), 1.0)]));
        assert!(!top_k_is_ordered(&[(t(1), 0.7), (t(2), 0.9)]));
        assert!(!top_k_is_ordered(&[(t(1), 0.4)]));
    }

    #[test]
    fn update_self_time_is_wall_minus_phases() {
        let mut totals = UpdateTotals::default();
        let report = IterationReport {
            mode: ExecutionMode::Incremental,
            strategy: None,
            grounding_secs: 0.006,
            learning_secs: 0.001,
            inference_secs: 0.001,
            acceptance_rate: None,
            new_variables: 0,
            new_factors: 0,
            fell_back_to_variational: false,
            resharded_relations: vec!["Fact".into()],
        };
        totals.add(&report, 0.010);
        totals.add(&report, 0.010);
        assert!((totals.self_ms_per_update() - 2.0).abs() < 1e-9);
        assert!((totals.share(totals.grounding_s) - 0.6).abs() < 1e-9);
        assert_eq!(totals.resharded, 2);
    }
}
