//! `dev_loop`: the paper's Fig. 9/10 scenario.  A fixed set of [`CORPORA`]
//! News corpora is drawn from the seed; one *pass* develops each of them: a
//! fresh engine, the six rule templates in development order under
//! `Incremental` (re-materializing after every update), then the same six
//! under `Rerun` on [`RERUN_LOOPS`] fresh engines — and then does all of that
//! a second time, so that a traced run can keep spans for one of the two and
//! compare.  Passes repeat until the window is used — always whole passes, so
//! every corpus contributes the same number of samples whatever the machine's
//! speed, and a faster commit fits more passes, not different work.  The MH
//! acceptance rate, and with it the incremental loop's time, differs from
//! corpus to corpus, which is why one run covers several.

use crate::engine_ops::{
    relation_keys, snapshot_reads, timed_initial_run, timed_materialize, timed_update,
    ReadLatencies, Run, UpdateTotals,
};
use crate::inputs::{engine_config, InputDigest};
use crate::report::{Values, TEMPLATES};
use crate::stats::{Recorder, SplitMix64};
use crate::trace::ROOT;
use deepdive_repro::engine::{DeepDive, ExecutionMode, StrategyChoice};
use deepdive_repro::inference::GibbsSampler;
use deepdive_repro::workloads::{KbcSystem, SystemKind};
use std::time::Instant;

/// News at this scale is 432 documents and as many query variables: one
/// corpus's share of a pass takes about a second.
const SCALE: f64 = 2.0;
const SMOKE_SCALE: f64 = 0.5;
const CORPORA: usize = 4;
/// Rerun loops per corpus and pass: they are a tenth of the incremental
/// loop's cost and need the samples more.
const RERUN_LOOPS: usize = 2;
pub const RELATION: &str = "MarriedMentions";

pub fn input_digest(systems: &[KbcSystem]) -> InputDigest {
    let mut digest = InputDigest::default();
    for system in systems {
        digest.program(&system.program);
        digest.database(&system.corpus.database);
        for (template, update) in system.development_updates() {
            digest.text(template.name());
            digest.text(&format!("{:?}", update.new_rules));
        }
    }
    digest
}

/// Every item twice in a row, as `(index, twin, item)` with twin 0 and 1.
pub fn twice<T>(items: &[T]) -> impl Iterator<Item = (usize, u64, &T)> {
    items
        .iter()
        .enumerate()
        .flat_map(|(index, item)| [(index, 0, item), (index, 1, item)])
}

/// Build + `initial_run` + first `materialize`; returns the engine and the
/// initial run's grounding seconds.
fn set_up(run: &mut Run, system: &KbcSystem, parent: Option<u32>) -> Option<(DeepDive, f64)> {
    let (built, _, _) = run.tracer.time("core.build", parent, 0, || {
        DeepDive::builder()
            .program(system.program.clone())
            .database(system.corpus.database.clone())
            .config(engine_config())
            .build()
    });
    let mut engine = run.attempt("build", built)?;
    let report = timed_initial_run(run, &mut engine, parent)?;
    timed_materialize(run, &mut engine, parent);
    Some((engine, report.grounding_secs))
}

#[derive(Default)]
struct PerTemplate {
    learn_s: [Recorder; 6],
    infer_s: [Recorder; 6],
    acceptance: [Recorder; 6],
    strategy: [Recorder; 6],
}

pub fn run(run: &mut Run) -> Values {
    let mut values = Values::default();
    let (scale, corpora) = if run.smoke {
        (SMOKE_SCALE, 1)
    } else {
        (SCALE, CORPORA)
    };

    // ---- the inputs: generated once, developed again in every pass.
    let mut gen_s = Vec::new();
    let systems: Vec<KbcSystem> = (0..corpora)
        .map(|index| {
            let started = Instant::now();
            let seed = SplitMix64::fork(run.seed, index as u64);
            let system = KbcSystem::generate(SystemKind::News, scale, seed);
            gen_s.push(started.elapsed().as_secs_f64());
            system
        })
        .collect();
    let digest = input_digest(&systems);
    values.set("gen.input_digest32", (digest.finish() & 0xFFFF_FFFF) as f64);
    values.set("gen.rows", digest.rows as f64);
    let docs: usize = systems.iter().map(|s| s.corpus.config.num_documents).sum();
    values.set("gen.docs", docs as f64);
    values.set("gen.corpus_s", gen_s.iter().sum::<f64>() / corpora as f64);

    let (mut setup_s, mut grounding_full_s) = (Recorder::default(), Recorder::default());
    let (mut incremental_loop_s, mut rerun_loop_s) = (Recorder::default(), Recorder::default());
    let (mut rerun_learn_s, mut rerun_infer_s) = (Recorder::default(), Recorder::default());
    let (mut materialize_s, mut compile_ms) = (Recorder::default(), Recorder::default());
    let (mut f1_incremental, mut f1_rerun, mut marginal_gap) = (
        Recorder::default(),
        Recorder::default(),
        Recorder::default(),
    );
    let mut per_template = PerTemplate::default();
    let mut mh_us_per_step = Recorder::default();
    let mut reads = ReadLatencies::default();
    let mut totals = UpdateTotals::default();
    let (mut fallbacks, mut materialization_bytes) = (0u64, 0usize);
    let mut last_engine: Option<DeepDive> = None;
    let mut read_rng = SplitMix64::new(SplitMix64::fork(run.seed, 999_999));

    let started = Instant::now();
    let (mut pass, mut repetitions) = (0u64, 0u64);
    while pass == 0 || (started.elapsed().as_secs_f64() < run.seconds && !run.smoke) {
        for (index, twin, system) in twice(&systems) {
            let repetition_started = Instant::now();
            let (root, traced) = run.open_repetition(pass, twin);
            repetitions += 1;
            let updates = system.development_updates();

            // ---- the six templates, incrementally.
            let setup_started = Instant::now();
            let Some((mut engine, ground_s)) = set_up(run, system, root) else {
                return values;
            };
            setup_s.record(setup_started.elapsed().as_secs_f64() + gen_s[index]);
            grounding_full_s.record(ground_s);
            let mut loop_s = 0.0;
            for (t, (_, update)) in updates.iter().enumerate() {
                let op_id = repetitions * 6 + t as u64;
                let Some((report, wall)) = timed_update(
                    run,
                    &mut engine,
                    update,
                    ExecutionMode::Incremental,
                    root,
                    op_id,
                ) else {
                    continue;
                };
                loop_s += wall;
                totals.add(&report, wall);
                per_template.learn_s[t].record(report.learning_secs);
                per_template.infer_s[t].record(report.inference_secs);
                per_template.strategy[t].record(match report.strategy {
                    None => 0.0,
                    Some(StrategyChoice::Sampling) => 1.0,
                    Some(StrategyChoice::Variational) => 2.0,
                });
                if let Some(rate) = report.acceptance_rate {
                    per_template.acceptance[t].record(rate);
                    let steps = engine.config().inference_samples.max(1) as f64;
                    mh_us_per_step.record(report.inference_secs * 1e6 / steps);
                }
                fallbacks += u64::from(report.fell_back_to_variational);
                // A probe of dd-factorgraph between updates, outside the
                // loop's time.
                let (flat, seconds, _) = run
                    .tracer
                    .time("factorgraph.compile", root, 0, || engine.graph().compile());
                std::hint::black_box(flat);
                compile_ms.record(seconds * 1e3);
                materialize_s.record(timed_materialize(run, &mut engine, root));
            }
            incremental_loop_s.record(loop_s);
            materialization_bytes = engine
                .materialization()
                .map_or(0, |m| m.sample_storage_bytes());

            // ---- the finished KB: a probe of the read path, then the checks.
            let snapshot = engine.snapshot();
            let keys = relation_keys(&snapshot, RELATION, usize::MAX);
            snapshot_reads(
                run,
                &snapshot,
                RELATION,
                &keys,
                &mut read_rng,
                root,
                &mut reads,
            );
            let check = run.tracer.open("harness.check", root, 0);
            // Supervised facts stay pinned at their label.
            let graph = engine.graph();
            for var in graph.evidence_variables() {
                let expected = f64::from(u8::from(graph.variable(var).fixed_value() == Some(true)));
                if snapshot.marginals().get(var) != expected {
                    run.problem(format!(
                        "evidence variable {var} reads {} instead of {expected}",
                        snapshot.marginals().get(var)
                    ));
                    break;
                }
            }
            f1_incremental.record(snapshot.quality(RELATION, system.truth()).f1);
            run.tracer.close(check);

            // ---- the same six, from scratch, on fresh engines.
            let mut rerun_snapshot = None;
            for _ in 0..RERUN_LOOPS {
                let setup_started = Instant::now();
                let Some((mut engine, ground_s)) = set_up(run, system, root) else {
                    return values;
                };
                setup_s.record(setup_started.elapsed().as_secs_f64() + gen_s[index]);
                grounding_full_s.record(ground_s);
                let (mut loop_s, mut learn_s, mut infer_s) = (0.0, 0.0, 0.0);
                for (_, update) in &updates {
                    let Some((report, wall)) =
                        timed_update(run, &mut engine, update, ExecutionMode::Rerun, root, 0)
                    else {
                        continue;
                    };
                    loop_s += wall;
                    learn_s += report.learning_secs;
                    infer_s += report.inference_secs;
                }
                rerun_loop_s.record(loop_s);
                rerun_learn_s.record(learn_s);
                rerun_infer_s.record(infer_s);
                rerun_snapshot = Some(engine.snapshot());
            }
            let check = run.tracer.open("harness.check", root, 0);
            if let Some(rerun) = rerun_snapshot {
                f1_rerun.record(rerun.quality(RELATION, system.truth()).f1);
                let gap = keys
                    .iter()
                    .filter_map(|t| {
                        Some(
                            (snapshot.probability_of(RELATION, t)?
                                - rerun.probability_of(RELATION, t)?)
                            .abs(),
                        )
                    })
                    .fold(0.0, f64::max);
                marginal_gap.record(gap);
                if rerun.num_catalogued_variables() != snapshot.num_catalogued_variables() {
                    run.problem("incremental and rerun catalogs differ in size");
                }
            }
            run.tracer.close(check);
            last_engine = Some(engine);
            run.close_repetition(
                index,
                root,
                traced,
                repetition_started.elapsed().as_secs_f64(),
            );
        }
        eprintln!(
            "dev_loop: pass {pass}: incremental loops {:.3?} s",
            &incremental_loop_s.samples()[incremental_loop_s.count() - 2 * corpora..]
        );
        pass += 1;
    }

    // Quality parity: incremental must not trail rerun (paper Fig. 10).
    if f1_incremental.mean() < f1_rerun.mean() - 0.10 {
        run.problem(format!(
            "incremental F1 {:.3} trails rerun F1 {:.3} by more than 0.10",
            f1_incremental.mean(),
            f1_rerun.mean()
        ));
    }

    // ---- a probe of dd-inference on the last graph.
    run.tracer.set_recording(true);
    let root = run.tracer.open(ROOT, None, 0);
    if let Some(engine) = &last_engine {
        let flat = engine.graph().compile();
        values.set("factorgraph.vars", flat.num_variables() as f64);
        values.set("factorgraph.factors", flat.num_factors() as f64);
        let mut sampler = GibbsSampler::from_flat(&flat, run.seed);
        let sweeps = 2_000;
        let (_, seconds, _) = run.tracer.time("inference.gibbs_probe", root, 0, || {
            for _ in 0..sweeps {
                sampler.sweep();
            }
        });
        values.set(
            "inference.gibbs_sweeps_per_s",
            f64::from(sweeps) / seconds.max(1e-9),
        );
    }
    run.tracer.close(root);

    values.set("setup_s", setup_s.median());
    values.set("incremental_loop_s", incremental_loop_s.median());
    values.set("rerun_loop_s", rerun_loop_s.median());
    reads.report(&mut values);

    values.set("grounding.full_s", grounding_full_s.median());
    values.set("factorgraph.compile_ms", compile_ms.median());
    for (index, template) in TEMPLATES.iter().enumerate() {
        values.set(
            format!("inference.incr_learn_s.{template}"),
            per_template.learn_s[index].median(),
        );
        values.set(
            format!("inference.incr_infer_s.{template}"),
            per_template.infer_s[index].median(),
        );
        values.set(
            format!("inference.mh_acceptance.{template}"),
            per_template.acceptance[index].median(),
        );
        values.set(
            format!("core.strategy.{template}"),
            per_template.strategy[index].median(),
        );
    }
    values.set("inference.rerun_learn_s", rerun_learn_s.median());
    values.set("inference.rerun_infer_s", rerun_infer_s.median());
    values.set("inference.mh_us_per_step", mh_us_per_step.median());
    values.set("inference.fallbacks", fallbacks as f64);
    values.set(
        "inference.share_of_round",
        totals.share(totals.learning_s + totals.inference_s),
    );
    values.set("grounding.share_of_round", totals.share(totals.grounding_s));
    values.set(
        "core.rerun_over_incremental_x",
        rerun_loop_s.median() / incremental_loop_s.median().max(1e-9),
    );
    values.set("core.materialize_s", materialize_s.median());
    values.set("core.materialization_bytes", materialization_bytes as f64);
    values.set("core.update_self_ms", totals.self_ms_per_update());
    values.set(
        "core.resharded_per_update",
        totals.resharded as f64 / totals.updates.max(1) as f64,
    );
    values.set("core.f1_incremental", f1_incremental.mean());
    values.set("core.f1_rerun", f1_rerun.mean());
    values.set("core.max_marginal_gap", marginal_gap.max());
    eprintln!(
        "dev_loop: {pass} passes over {corpora} corpora ({docs} docs); incremental loop {:.3} s, \
         rerun loop {:.3} s (rerun/incremental {:.3}x, not gated); F1 incremental {:.3} vs rerun {:.3}",
        incremental_loop_s.median(),
        rerun_loop_s.median(),
        rerun_loop_s.median() / incremental_loop_s.median().max(1e-9),
        f1_incremental.mean(),
        f1_rerun.mean(),
    );
    values
}
