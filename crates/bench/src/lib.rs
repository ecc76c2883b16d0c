//! Shared helpers for the figure-reproduction binary and benchmark tooling.
//!
//! `reproduce <figure>` regenerates one table or figure of the paper's
//! evaluation (`ARCHITECTURE.md` §4 has the full index), `bench_sweeps`
//! tracks the per-layer cost trajectory in `BENCH_sweeps.json`, which
//! `check_sweeps` gates, and `check_docs` keeps the docs' links, anchors and
//! commands resolving.  This library holds what they share: timing, table
//! printing, the `BENCH_sweeps.json` schema, the doc audit, the
//! exactness oracle (which `tests/exactness.rs` also runs) and the
//! mixing-time measurement of Figures 12/13 (which
//! `examples/voting_semantics.rs` also runs).
//!
//! End-to-end and serving numbers are not measured here: the repository
//! benchmark (`src/bin/benchmark/`, declared by `BENCHMARK.json`) is the one
//! harness for those.

#![warn(unreachable_pub)]

use std::time::Instant;

mod convergence;
pub mod docs;
pub mod exactness;
pub mod sweeps;

pub use convergence::{iterations_to_converge, ConvergenceReport};

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Print a markdown-style table row.
pub(crate) fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Print a full markdown table with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!(
        "{}",
        row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        row(&header.iter().map(|_| "---".to_string()).collect::<Vec<_>>())
    );
    for r in rows {
        println!("{}", row(r));
    }
    println!();
}

/// Format seconds with a sensible precision for experiment tables.
pub fn secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Format a speedup factor.
pub fn speedup(baseline: f64, improved: f64) -> String {
    if improved <= 0.0 {
        "∞".to_string()
    } else {
        format!("{:.1}×", baseline / improved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_and_formatting() {
        let (v, t) = timed(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(t >= 0.0);
        assert!(secs(0.0000005).ends_with("µs"));
        assert!(secs(0.5).ends_with("ms"));
        assert!(secs(2.0).ends_with('s'));
        assert_eq!(speedup(10.0, 2.0), "5.0×");
        assert_eq!(speedup(1.0, 0.0), "∞");
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
    }
}
