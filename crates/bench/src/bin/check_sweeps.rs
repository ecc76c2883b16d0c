//! CI perf gate over a `BENCH_sweeps.json` produced by `bench_sweeps`.
//!
//! Exits non-zero when the file is unreadable, malformed, empty, holds a
//! non-finite value, any `*_speedup` metric sits below 1.0× — i.e. when an
//! optimization this repo has already banked (compiled flat graph, sharded
//! O(Δ) publish, incremental retraction, indexed reads) has regressed
//! behind its baseline — a whole required series stopped emitting speedup
//! entries (the coverage floor: a sweep that silently stops running is a
//! regression too), or an exact counter of the cold path
//! (`dd_bench::sweeps::COUNT_CEILINGS`: `cold_start/allocs_per_binding`,
//! `rows_probed_per_binding`, `allocs_per_sample`, `allocs_per_mh_step`,
//! `index_heap_bytes_per_row`),
//! of incremental grounding
//! (`grounding_cost/incremental_allocs_per_binding`) or of the codec
//! (`codec/checkpoint_encode_allocs_per_row`,
//! `checkpoint_peak_heap_per_payload_byte`,
//! `checkpoint_retained_heap_bytes`, `response_decode_allocs_per_row`), of
//! the router's merge (`router/page_allocs_per_row`), of
//! the sample store (`materialize_cost/stored_bits_per_var_unary_n4000` 0,
//! `stored_bits_per_var_chained_n4000` 1 500) or of exact inference
//! (`exactness/max_gap_<system>`, rounding only) is
//! missing or not below its ceiling — a count repeats exactly, so this gate
//! holds on a box too noisy for a timing — or a cost grows with its input
//! (`dd_bench::sweeps::RATIO_CEILINGS`, ratios of two timings of one run:
//! `codec/parse_scaling_x` < 2, where the quadratic scanner read 19.6, and
//! `retraction_cost/delete_scaling_x` < 8, a fixed deletion batch on a 16×
//! larger KB, so an O(KB) "incremental" retraction cannot silently return).
//!
//! Usage: `cargo run --release -p dd-bench --bin check_sweeps [file.json]`
//! (default `BENCH_sweeps.json`).  CI runs it against a fresh `--smoke` file:
//!
//! ```sh
//! cargo run --release -p dd-bench --bin bench_sweeps -- --smoke ci-smoke.json
//! cargo run --release -p dd-bench --bin check_sweeps -- ci-smoke.json
//! ```

use dd_bench::sweeps::{
    ceiling_violations, coverage_violations, gate_violations, parse_bench_entries, COUNT_CEILINGS,
    RATIO_CEILINGS,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweeps.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("check_sweeps: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let entries = match parse_bench_entries(&text) {
        Ok(entries) => entries,
        Err(err) => {
            eprintln!("check_sweeps: {path} is not a valid benchmark file: {err}");
            return ExitCode::FAILURE;
        }
    };

    let speedups: Vec<_> = entries
        .iter()
        .filter(|e| e.name.contains("speedup"))
        .collect();
    println!(
        "check_sweeps: {path}: {} entries, {} speedup gates",
        entries.len(),
        speedups.len()
    );
    for entry in &speedups {
        println!("  {:<55} {:>9.3}{}", entry.name, entry.value, entry.unit);
    }

    for (name, ceiling) in COUNT_CEILINGS.iter().chain(&RATIO_CEILINGS) {
        if let Some(entry) = entries.iter().find(|e| e.name == *name) {
            println!(
                "  {:<55} {:>9.4} (ceiling {ceiling})",
                entry.name, entry.value
            );
        }
    }

    let mut violations = gate_violations(&entries, 1.0);
    violations.extend(coverage_violations(&entries));
    violations.extend(ceiling_violations(&entries));
    if violations.is_empty() {
        println!("check_sweeps: all gates pass");
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("check_sweeps: FAIL {violation}");
        }
        ExitCode::FAILURE
    }
}
