//! `benchmark compare <a.jsonl> <b.jsonl>`: the agreement rule every later
//! claim uses.  Each file holds one line per run, as written by `--append`:
//! `{"workload": .., "seed": .., "trace": 0|1, "correct": .., "attempted": ..,
//! "failed": .., "metrics": {name: value, ..}}` with every metric the run
//! measured.  Only untraced runs are compared.

use crate::report::{Gated, Values, END_TO_END, EXACT_COUNTS, SPECIFIC, WORKLOADS};
use crate::stats::quartiles;
use deepdive_repro::wire::json::{self, Json};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

pub fn append_run(
    path: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
    outcome: (bool, u64, u64),
    values: &Values,
) -> std::io::Result<()> {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| format!("{}: {value}", Json::String(name.to_string()).encode()))
        .collect();
    let (correct, attempted, failed) = outcome;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        Json::String(workload.to_string()).encode(),
        u8::from(trace),
        metrics.join(", ")
    )
}

/// `(workload, metric) -> (seed, value)` over the untraced runs of one file.
type RunSet = BTreeMap<(String, String), Vec<(u64, f64)>>;

pub fn parse_run_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let context = |e: &str| format!("line {}: {e}", number + 1);
        let doc = json::parse(line).map_err(|e| context(&e))?;
        if doc.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| context("no workload"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| context("no seed"))? as u64;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| context("no metrics"))?;
        for (name, value) in metrics {
            let value = value
                .as_f64()
                .ok_or_else(|| context(&format!("{name} is not a number")))?;
            set.entry((workload.to_string(), name.clone()))
                .or_default()
                .push((seed, value));
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// Either side's own spread is wider than the bound, or an exact count
    /// has no seed in common to be compared on.
    Unresolved,
    /// An exact count differs between two runs of one seed.
    Differs,
    /// Reported without a bound: it did not repeat on this box.
    Context,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
            Verdict::Context => "(no bound)",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// Distance between the quartiles as a share of the median, per side.
    pub spread_a: f64,
    pub spread_b: f64,
    pub verdict: Verdict,
}

/// Median and spread of one side; with fewer than two runs the spread reads 0.
fn side(values: &[f64]) -> Option<(f64, f64)> {
    match quartiles(values) {
        Some((q1, median, q3)) => Some((
            median,
            if median != 0.0 {
                (q3 - q1) / median.abs()
            } else {
                0.0
            },
        )),
        None => values.first().map(|v| (*v, 0.0)),
    }
}

/// Compare one metric on one workload.  `b` is *worse* when its median is
/// worse than `a`'s by more than the bound, *better* when it is better by
/// more than the bound, and *unresolved* when either side's own spread is
/// wider than the bound (the runs cannot tell a change of that size from
/// noise).  Without a bound the row is context only.  `medians_only` skips
/// the spread rule: the driver's contract gates `setup_s` on its medians
/// whatever its spread (a set-up is tens of milliseconds of mostly fsync),
/// and so does `compare`.
pub fn judge(
    a: &[f64],
    b: &[f64],
    bound: Option<f64>,
    higher_is_better: bool,
    medians_only: bool,
) -> Option<Row> {
    let (median_a, spread_a) = side(a)?;
    let (median_b, spread_b) = side(b)?;
    let change = if median_a != 0.0 {
        (median_b - median_a) / median_a.abs()
    } else {
        0.0
    };
    let worsening = if higher_is_better { -change } else { change };
    let verdict = match bound {
        None => Verdict::Context,
        Some(bound) if !medians_only && (spread_a > bound || spread_b > bound) => {
            Verdict::Unresolved
        }
        Some(bound) if worsening > bound => Verdict::Worse,
        Some(bound) if worsening < -bound => Verdict::Better,
        Some(_) => Verdict::Same,
    };
    Some(Row {
        median_a,
        median_b,
        spread_a,
        spread_b,
        verdict,
    })
}

/// Two runs of one seed agree on a count when they differ by less than this
/// share of it.  Not zero because a checkpoint file carries a few timing
/// fields whose printed length varies: its size, and with it `write_amp`,
/// moves by a few bytes in eight million.
const COUNT_TOLERANCE: f64 = 1e-5;

/// Compare a count that depends on the inputs alone: every seed both sides
/// ran must have one and the same value in all its runs.
pub fn judge_exact(a: &[(u64, f64)], b: &[(u64, f64)]) -> Verdict {
    let mut by_seed: BTreeMap<u64, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (seed, value) in a {
        by_seed.entry(*seed).or_default().0.push(*value);
    }
    for (seed, value) in b {
        by_seed.entry(*seed).or_default().1.push(*value);
    }
    let mut shared = by_seed
        .values()
        .filter(|(a, b)| !a.is_empty() && !b.is_empty())
        .peekable();
    if shared.peek().is_none() {
        return Verdict::Unresolved;
    }
    let agree = |v: f64, w: f64| (v - w).abs() <= COUNT_TOLERANCE * w.abs();
    if shared.all(|(a, b)| a.iter().chain(b).all(|v| agree(*v, a[0]))) {
        Verdict::Same
    } else {
        Verdict::Differs
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: benchmark compare <a.jsonl> <b.jsonl>");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse_run_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<13} {:<19} {:>12} {:>8} {:>12} {:>8} {:>6} {:>5}  verdict",
        "workload", "metric", "median a", "iqr a", "median b", "iqr b", "bound", "runs"
    );
    let mut failures = 0;
    for workload in WORKLOADS {
        let gated = |m: &&Gated| m.workloads.contains(&workload);
        for metric in END_TO_END.iter().chain(&SPECIFIC).filter(gated) {
            let key = (workload.to_string(), metric.name.to_string());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let values = |side: &[(u64, f64)]| side.iter().map(|(_, v)| *v).collect::<Vec<_>>();
            let (va, vb) = (values(sa), values(sb));
            let medians_only = metric.name == "setup_s";
            let row = judge(
                &va,
                &vb,
                metric.bound,
                metric.higher_is_better,
                medians_only,
            );
            let Some(mut row) = row else {
                continue;
            };
            if metric.bound == Some(0.0) {
                row.verdict = judge_exact(sa, sb);
            }
            failures += usize::from(matches!(row.verdict, Verdict::Worse | Verdict::Differs));
            println!(
                "{:<13} {:<19} {:>12.5} {:>7.1}% {:>12.5} {:>7.1}% {:>6} {:>2}/{:<2}  {}",
                workload,
                metric.name,
                row.median_a,
                row.spread_a * 100.0,
                row.median_b,
                row.spread_b * 100.0,
                match metric.bound {
                    None => "-".to_string(),
                    Some(0.0) => "exact".to_string(),
                    Some(b) => format!("{:.0}%", b * 100.0),
                },
                va.len(),
                vb.len(),
                row.verdict.label()
            );
        }
        let mut compared = 0;
        for name in EXACT_COUNTS {
            let key = (workload.to_string(), name.to_string());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            compared += 1;
            let verdict = judge_exact(sa, sb);
            if verdict != Verdict::Same {
                failures += usize::from(verdict == Verdict::Differs);
                println!("{workload:<13} {name:<19} {}", verdict.label());
            }
        }
        if compared > 0 {
            println!("{workload:<13} {compared} gen.* / storage.* counts compared seed by seed");
        }
    }
    if failures > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let noisy = [8.0, 12.0, 10.0, 14.0, 6.0];
        let verdict =
            |a: &[f64], b: &[f64], higher| judge(a, b, Some(0.1), higher, false).unwrap().verdict;
        assert_eq!(verdict(&steady, &steady, false), Verdict::Same);
        assert_eq!(verdict(&steady, &slower, false), Verdict::Worse);
        assert_eq!(verdict(&slower, &steady, false), Verdict::Better);
        // For a rate, a larger median is the improvement.
        assert_eq!(verdict(&steady, &slower, true), Verdict::Better);
        assert_eq!(verdict(&slower, &steady, true), Verdict::Worse);
        assert_eq!(verdict(&steady, &noisy, false), Verdict::Unresolved);
        // A demoted metric gets its numbers but no verdict.
        let demoted = judge(&steady, &slower, None, false, false).unwrap();
        assert_eq!(demoted.verdict, Verdict::Context);
        // `setup_s` is judged on its medians however wide its spread.
        let setup = judge(&steady, &noisy, Some(0.1), false, true).unwrap();
        assert_eq!(setup.verdict, Verdict::Same);
        // A single run per side still compares, with no spread to report.
        let single = judge(&[1.0], &[1.05], Some(0.1), false, false).unwrap();
        assert_eq!((single.verdict, single.spread_a), (Verdict::Same, 0.0));
        assert_eq!(judge(&[], &[1.0], Some(0.1), false, false), None);
    }

    #[test]
    fn exact_counts_compare_per_seed() {
        let a = [(1, 35.25), (2, 36.5), (1, 35.25)];
        assert_eq!(judge_exact(&a, &[(2, 36.5), (1, 35.25)]), Verdict::Same);
        assert_eq!(judge_exact(&a, &[(2, 36.51)]), Verdict::Differs);
        // A few bytes of timing fields in eight million are not a difference,
        // one fsync in 468 is.
        assert_eq!(
            judge_exact(&[(1, 8_518_377.0)], &[(1, 8_518_373.0)]),
            Verdict::Same
        );
        assert_eq!(judge_exact(&[(1, 468.0)], &[(1, 469.0)]), Verdict::Differs);
        // Seed 1 disagrees with itself inside one side.
        assert_eq!(
            judge_exact(&[(1, 35.25), (1, 35.5)], &[(1, 35.25)]),
            Verdict::Differs
        );
        assert_eq!(judge_exact(&a, &[(3, 35.25)]), Verdict::Unresolved);
    }

    #[test]
    fn appended_runs_parse_back_and_traced_runs_are_skipped() {
        let dir = std::env::temp_dir().join(format!("dd-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let _ = std::fs::remove_file(&path);
        let values = |v: f64| {
            let mut values = Values::default();
            values.set("setup_s", v);
            values.set("write_amp", 35.5);
            values
        };
        append_run(&path, "doc_stream", 1, false, (true, 5, 0), &values(0.5)).unwrap();
        append_run(&path, "doc_stream", 2, false, (true, 5, 0), &values(0.7)).unwrap();
        append_run(&path, "doc_stream", 2, true, (true, 5, 0), &values(9.0)).unwrap();
        let set = parse_run_set(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            set[&("doc_stream".to_string(), "setup_s".to_string())],
            vec![(1, 0.5), (2, 0.7)]
        );
        assert_eq!(
            set[&("doc_stream".to_string(), "write_amp".to_string())].len(),
            2
        );
        assert!(parse_run_set("{\"workload\": 3}").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
