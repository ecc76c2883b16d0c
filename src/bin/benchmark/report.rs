//! Metric names, units and bounds, and the one-line result object the driver
//! reads.  `BENCHMARK.json` at the repository root lists the same names; a
//! unit test fails when the two disagree.

use deepdive_repro::wire::json::Json;
use std::collections::BTreeMap;

pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [&str; 4] = ["dev_loop", "doc_stream", "serve_direct", "serve_routed"];
const SERVING: &[&str] = &["serve_direct", "serve_routed"];

/// A metric a user of the system sees, with the share of the baseline median
/// by which it may worsen before a change counts as a regression.
pub struct Gated {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// `Some(0.0)`: a count, which two runs of one seed must agree on.
    /// `None`: reported, but `benchmark compare` gives no verdict on it.
    pub bound: Option<f64>,
    /// The workloads that report it.
    pub workloads: &'static [&'static str],
}

/// What the driver gates.  Its contract takes only metrics that *every*
/// workload reports, never 0, and rejects the benchmark if one of them
/// spreads by more than its bound over ten runs: that leaves the two metrics
/// of the issue's table that apply to all four workloads.  No timing of any
/// workload repeats within a quarter on this box (see the README baseline),
/// so none could be added as a roll-up.
pub const END_TO_END: [Gated; 2] = [
    Gated {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: Some(0.25),
        workloads: &WORKLOADS,
    },
    Gated {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: Some(0.25),
        workloads: &WORKLOADS,
    },
];

/// The issue's bound for a timing, which a timing gets back by repeating
/// within it: over two sets of ten runs on this box (README baseline) none
/// did, so per the issue's rule each is reported without a bound and
/// `benchmark compare` shows its medians and spreads but gives no verdict.
const DID_NOT_REPEAT: Option<f64> = None;

/// The issue's end-to-end metrics that belong to some workloads only.  Every
/// run of those workloads measures and prints them; the driver's contract
/// leaves `per_layer` as the only place `BENCHMARK.json` can list them.
pub const SPECIFIC: [Gated; 12] = [
    Gated {
        name: "incremental_loop_s",
        unit: "s",
        higher_is_better: false,
        bound: DID_NOT_REPEAT,
        workloads: &["dev_loop"],
    },
    Gated {
        name: "rerun_loop_s",
        unit: "s",
        higher_is_better: false,
        bound: DID_NOT_REPEAT,
        workloads: &["dev_loop"],
    },
    Gated {
        name: "ingest_docs_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: DID_NOT_REPEAT,
        workloads: &["doc_stream"],
    },
    Gated {
        name: "round_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: DID_NOT_REPEAT,
        workloads: &["doc_stream", "serve_direct", "serve_routed"],
    },
    Gated {
        name: "round_p90_ms",
        unit: "ms",
        higher_is_better: false,
        bound: DID_NOT_REPEAT,
        workloads: &["doc_stream"],
    },
    Gated {
        name: "recovery_s",
        unit: "s",
        higher_is_better: false,
        bound: DID_NOT_REPEAT,
        workloads: &["doc_stream"],
    },
    Gated {
        name: "write_amp",
        unit: "ratio",
        higher_is_better: false,
        bound: Some(0.0),
        workloads: &["doc_stream"],
    },
    Gated {
        name: "read_ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: DID_NOT_REPEAT,
        workloads: SERVING,
    },
    Gated {
        name: "point_read_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: DID_NOT_REPEAT,
        workloads: SERVING,
    },
    Gated {
        name: "topk_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: DID_NOT_REPEAT,
        workloads: SERVING,
    },
    Gated {
        name: "scan_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: DID_NOT_REPEAT,
        workloads: SERVING,
    },
    Gated {
        name: "open_p99_ms",
        unit: "ms",
        higher_is_better: false,
        bound: DID_NOT_REPEAT,
        workloads: SERVING,
    },
];

/// Per-layer counts that depend on the inputs alone: `benchmark compare`
/// requires two runs of one seed to agree on them exactly.
pub const EXACT_COUNTS: [&str; 8] = [
    "gen.docs",
    "gen.rows",
    "gen.input_digest32",
    "storage.wal_records",
    "storage.wal_bytes",
    "storage.checkpoints",
    "storage.checkpoint_bytes",
    "storage.fsyncs",
];

pub const TEMPLATES: [&str; 6] = ["FE1", "FE2", "S1", "S2", "I1", "A1"];

/// The layers whose self time a traced run reports (span-name prefixes);
/// everything else — the harness's own work, input generation, deliberate
/// sleeps, the one-off recovery — is `trace.self_s.other`.
pub const LAYERS: [&str; 8] = [
    "grounding",
    "factorgraph",
    "inference",
    "core",
    "storage",
    "wire",
    "server",
    "router",
];

/// `(name, unit, better)` of every metric `--trace 1` reports: the
/// workload-specific end-to-end metrics, then the layers'.  A workload that
/// does not exercise a layer reports that layer's metrics as 0.
pub fn per_layer_spec() -> Vec<(String, &'static str, &'static str)> {
    let mut spec: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        spec.push((name.to_string(), unit, better));
    };
    for m in &SPECIFIC {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        add(m.name, m.unit, better);
    }
    // Input generation (dd-workloads and the harness's own generators).
    add("gen.corpus_s", "s", "lower");
    add("gen.docs", "count", "lower");
    add("gen.rows", "count", "lower");
    add("gen.input_digest32", "count", "lower");
    // dd-grounding + dd-relstore.
    add("grounding.full_s", "s", "lower");
    add("grounding.round_ms_p50", "ms", "lower");
    add("grounding.ms_per_doc", "ms", "lower");
    add("grounding.last_vs_first_quarter_x", "ratio", "lower");
    add("grounding.delete_round_ms_p50", "ms", "lower");
    add("grounding.share_of_round", "ratio", "lower");
    add("grounding.new_factors_per_round", "count", "lower");
    add("grounding.removed_per_delete_round", "count", "lower");
    // dd-factorgraph.
    add("factorgraph.compile_ms", "ms", "lower");
    add("factorgraph.vars", "count", "lower");
    add("factorgraph.factors", "count", "lower");
    // dd-inference.
    for phase in ["learn", "infer"] {
        for template in TEMPLATES {
            add(
                &format!("inference.incr_{phase}_s.{template}"),
                "s",
                "lower",
            );
        }
        add(&format!("inference.rerun_{phase}_s"), "s", "lower");
    }
    for template in TEMPLATES {
        add(
            &format!("inference.mh_acceptance.{template}"),
            "ratio",
            "higher",
        );
    }
    add("inference.mh_us_per_step", "us", "lower");
    add("inference.fallbacks", "count", "lower");
    add("inference.gibbs_sweeps_per_s", "1/s", "higher");
    add("inference.share_of_round", "ratio", "lower");
    // deepdive (core).
    for template in TEMPLATES {
        // 0 = none/full Gibbs, 1 = sampling, 2 = variational.
        add(&format!("core.strategy.{template}"), "code", "lower");
    }
    add("core.rerun_over_incremental_x", "ratio", "higher");
    add("core.materialize_s", "s", "lower");
    add("core.materialization_bytes", "bytes", "lower");
    add("core.update_self_ms", "ms", "lower");
    add("core.resharded_per_update", "count", "lower");
    add("core.checkpoint_ms", "ms", "lower");
    add("core.snapshot_point_us", "us", "lower");
    add("core.snapshot_topk_us", "us", "lower");
    add("core.snapshot_scan_us", "us", "lower");
    add("core.f1_incremental", "ratio", "higher");
    add("core.f1_rerun", "ratio", "higher");
    add("core.max_marginal_gap", "ratio", "lower");
    // dd-storage.
    add("storage.wal_records", "count", "lower");
    add("storage.wal_bytes", "bytes", "lower");
    add("storage.checkpoints", "count", "lower");
    add("storage.checkpoint_bytes", "bytes", "lower");
    add("storage.fsyncs", "count", "lower");
    add("storage.wal_append_us", "us", "lower");
    add("storage.checkpoint_write_ms", "ms", "lower");
    add("storage.wal_open_ms", "ms", "lower");
    add("storage.replayed_records", "count", "lower");
    // dd-wire (+ the protocol codec of dd-server).
    add("wire.request_encode_us", "us", "lower");
    add("wire.request_decode_us", "us", "lower");
    add("wire.response_encode_us", "us", "lower");
    add("wire.response_decode_us", "us", "lower");
    add("wire.bytes_per_op", "bytes", "lower");
    // dd-server.
    add("server.queue_wait_us_mean", "us", "lower");
    add("server.service_us_mean", "us", "lower");
    add("server.max_queue_wait_us", "us", "lower");
    add("server.batches_served", "count", "higher");
    add("server.overload_rejections", "count", "lower");
    add("server.rtt_floor_us", "us", "lower");
    add("server.unaccounted_us", "us", "lower");
    add("server.read_p99_writer_off_ms", "ms", "lower");
    add("server.read_p99_writer_on_ms", "ms", "lower");
    add("server.round_ms_closed_p50", "ms", "lower");
    add("server.open_p99_ms_r500", "ms", "lower");
    add("server.open_p99_ms_r2000", "ms", "lower");
    add("server.max_rate_within_limit", "1/s", "higher");
    add("server.generator_late_ms_p99", "ms", "lower");
    add("server.epoch_staleness_max", "count", "lower");
    // dd-router.
    add("router.batch_ms_p50", "ms", "lower");
    add("router.shard_call_ms_p50", "ms", "lower");
    add("router.self_ms", "ms", "lower");
    add("router.fanout_per_op", "count", "lower");
    add("router.overhead_x", "ratio", "lower");
    // The trace itself.
    for layer in LAYERS {
        add(&format!("trace.self_s.{layer}"), "s", "lower");
    }
    add("trace.self_s.other", "s", "lower");
    add("trace.accounted_share", "ratio", "higher");
    add("trace.overhead_pct", "%", "lower");
    add("trace.spans", "count", "lower");
    add("harness.calibration_ms", "ms", "lower");
    spec
}

/// The unit a metric is printed with.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            per_layer_spec()
                .into_iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, unit, _)| unit)
        })
        .unwrap_or("?")
}

/// Values a workload measured, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(name, value)| (name.as_str(), *value))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Select the end-to-end (`trace == false`) or per-layer metrics out of
    /// the measured values.  A missing, zero or non-finite end-to-end value,
    /// or a missing metric of the workload's own, makes a full-length run
    /// incorrect; a per-layer metric of a layer the workload does not touch
    /// reads 0.
    pub fn assemble(
        workload: &str,
        trace: bool,
        smoke: bool,
        (attempted, failed): (u64, u64),
        values: &Values,
        problems: &mut Vec<String>,
    ) -> RunResult {
        let spec = per_layer_spec();
        for (name, value) in values.iter() {
            let declared =
                END_TO_END.iter().any(|m| m.name == name) || spec.iter().any(|(n, _, _)| n == name);
            if !declared || !value.is_finite() {
                problems.push(format!(
                    "metric {name} = {value} is undeclared or not finite"
                ));
            }
        }
        for m in END_TO_END.iter().chain(&SPECIFIC) {
            let measured = values.get(m.name).is_some_and(|v| v > 0.0);
            // A smoke run's phases are too short for every percentile.
            if m.workloads.contains(&workload) && !measured && !smoke {
                problems.push(format!("{} was not measured", m.name));
            }
        }
        let value_of = |name: &str| values.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
        let metrics = if trace {
            spec.iter()
                .map(|(name, unit, _)| Metric {
                    name: name.clone(),
                    value: value_of(name),
                    unit: unit.to_string(),
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| Metric {
                    name: m.name.to_string(),
                    value: value_of(m.name),
                    unit: m.unit.to_string(),
                })
                .collect()
        };
        RunResult {
            correct: problems.is_empty() && failed == 0,
            attempted: attempted.max(1),
            failed,
            metrics,
        }
    }

    /// One line of JSON.  Values print with every digit `f64` holds.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    Json::String(m.name.clone()).encode(),
                    m.value,
                    Json::String(m.unit.clone()).encode()
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    #[cfg(test)]
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let doc = deepdive_repro::wire::json::parse(line)?;
        let field = |name: &str| doc.get(name).ok_or(format!("missing key {name}"));
        let whole = |name: &str| {
            field(name)?
                .as_f64()
                .filter(|v| v.fract() == 0.0 && *v >= 0.0)
                .map(|v| v as u64)
                .ok_or(format!("{name} is not a whole number"))
        };
        let mut metrics = Vec::new();
        for (name, body) in field("metrics")?
            .as_object()
            .ok_or("metrics is not an object")?
        {
            metrics.push(Metric {
                name: name.clone(),
                value: body
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{name} has no numeric value"))?,
                unit: body
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or(format!("{name} has no unit"))?
                    .to_string(),
            });
        }
        Ok(RunResult {
            correct: field("correct")?
                .as_bool()
                .ok_or("correct is not a boolean")?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepdive_repro::wire::json;

    #[test]
    fn result_json_round_trips_with_all_digits() {
        let result = RunResult {
            correct: true,
            attempted: 1234,
            failed: 2,
            metrics: vec![
                Metric {
                    name: "setup_s".into(),
                    value: 0.812_734_561_234_567_8,
                    unit: "s".into(),
                },
                Metric {
                    name: "round_p50_ms".into(),
                    value: 0.000_000_123_456_789,
                    unit: "ms".into(),
                },
                Metric {
                    name: "peak_rss_mb".into(),
                    value: 6294.0,
                    unit: "MB".into(),
                },
            ],
        };
        let line = result.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::parse(&line).unwrap(), result);
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn assemble_reports_every_declared_metric_and_flags_gaps() {
        let mut values = Values::default();
        for m in END_TO_END.iter().chain(&SPECIFIC) {
            if m.workloads.contains(&"doc_stream") {
                values.set(m.name, 1.5);
            }
        }
        let assemble = |workload: &str, trace, smoke, failed, values: &Values| {
            RunResult::assemble(workload, trace, smoke, (10, failed), values, &mut vec![])
        };
        let ok = assemble("doc_stream", false, false, 0, &values);
        assert!(ok.correct);
        assert_eq!(ok.metrics.len(), END_TO_END.len());
        let layers = assemble("doc_stream", true, false, 0, &values);
        assert!(layers.correct);
        assert_eq!(layers.metrics.len(), per_layer_spec().len());
        let of = |name: &str| {
            layers
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!((of("recovery_s"), of("router.self_ms")), (1.5, 0.0));
        // A failed operation or an earlier problem makes the run incorrect.
        assert!(!assemble("doc_stream", false, false, 1, &values).correct);
        let mut earlier = vec!["a check failed".to_string()];
        assert!(
            !RunResult::assemble("doc_stream", false, false, (0, 0), &values, &mut earlier).correct
        );

        // The same values are not a complete serving run, unless it is a
        // smoke run ...
        assert!(!assemble("serve_direct", false, false, 0, &values).correct);
        assert!(assemble("serve_direct", false, true, 0, &values).correct);
        // ... a zero end-to-end value is a gap, and so is an undeclared name.
        values.set("setup_s", 0.0);
        assert!(!assemble("doc_stream", false, false, 0, &values).correct);
        values.set("setup_s", 1.0);
        values.set("router.no_such_metric", 1.0);
        assert!(!assemble("doc_stream", true, false, 0, &values).correct);
    }

    /// `[profile.release]` up to the next table, comments and blanks dropped.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn the_package_builds_with_the_root_release_profile() {
        let root = release_profile(include_str!("../../../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(root, release_profile(include_str!("Cargo.toml")));
    }

    #[test]
    fn benchmark_json_lists_these_metrics_within_the_contract() {
        let doc = json::parse(include_str!("../../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let text = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("no {key}"))
                .to_string()
        };
        let entries = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let workloads: Vec<String> = entries("workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for w in entries("workloads") {
            let why = text(&w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", why.len());
        }
        let direction = |higher: bool| if higher { "higher" } else { "lower" };
        let listed: Vec<(String, String, String, Option<f64>)> = entries("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, Option<f64>)> = END_TO_END
            .iter()
            .map(|m| {
                assert!(m.workloads == WORKLOADS && m.bound.is_some_and(|b| b <= 0.25));
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    direction(m.higher_is_better).to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(listed, expected);
        assert!(listed.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
        let per_layer: Vec<(String, String, String)> = entries("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let spec: Vec<(String, String, String)> = per_layer_spec()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(per_layer, spec);
        assert!((1..=128).contains(&per_layer.len()), "{}", per_layer.len());
        let mut all: Vec<String> = workloads
            .into_iter()
            .chain(listed.into_iter().map(|m| m.0))
            .chain(per_layer.into_iter().map(|m| m.0))
            .collect();
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");
        for name in &all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
