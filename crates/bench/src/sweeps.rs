//! The `BENCH_sweeps.json` schema: emission, parsing, and the CI smoke gate.
//!
//! `bench_sweeps` writes a flat `[{name, unit, value}]` array
//! (github-action-benchmark style).  The `check_sweeps` binary re-reads that
//! file in CI and fails the build when the file is malformed, any
//! `*_speedup` metric has regressed below 1.0×, or an exact counter or a
//! scaling ratio has risen past its ceiling — the cheapest mechanical guard
//! that the perf trajectory (compiled flat graph, sharded O(Δ) publish,
//! incremental retraction, indexed reads, allocation-free cold path, linear
//! tree-free codec, bit-sliced static draws) never silently goes backwards.
//!
//! The workspace is fully offline (vendored stand-in deps only), so parsing
//! uses the workspace's hand-rolled JSON reader — [`dd_wire::json`], the same
//! implementation the network protocol speaks (it originally lived in this
//! module and was promoted to `dd-wire` when the serving layer landed).  It
//! accepts arbitrary well-formed JSON and then shape-checks the result, so a
//! truncated or hand-mangled file fails loudly instead of being half-read.

use dd_wire::json::{self, Json};

/// One benchmark data point.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Parse a `BENCH_sweeps.json` document into its entries.  Rejects anything
/// that is not a JSON array of `{name: string, unit: string, value: number}`
/// objects.
pub fn parse_bench_entries(text: &str) -> Result<Vec<BenchEntry>, String> {
    let Json::Array(items) = json::parse(text)? else {
        return Err("top-level value must be an array".to_string());
    };
    items
        .into_iter()
        .enumerate()
        .map(|(i, item)| {
            let Json::Object(fields) = item else {
                return Err(format!("entry {i} is not an object"));
            };
            let field = |key: &str| {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or_else(|| format!("entry {i} is missing \"{key}\""))
            };
            let Json::String(name) = field("name")? else {
                return Err(format!("entry {i}: \"name\" must be a string"));
            };
            let Json::String(unit) = field("unit")? else {
                return Err(format!("entry {i}: \"unit\" must be a string"));
            };
            let Json::Number(value) = field("value")? else {
                return Err(format!("entry {i}: \"value\" must be a number"));
            };
            Ok(BenchEntry {
                name: name.clone(),
                unit: unit.clone(),
                value: *value,
            })
        })
        .collect()
}

/// The benchmark series a `BENCH_sweeps.json` must cover: each of these
/// prefixes has banked at least one `*speedup*` gate (flat-graph inference
/// on both sweep workloads, sharded publish, incremental retraction, indexed
/// reads),
/// and a file missing a whole series means a sweep silently stopped running —
/// which the per-entry gate alone cannot see.
pub const REQUIRED_SPEEDUP_SERIES: [&str; 5] = [
    "fig9_news_end_to_end/",
    "fig5_synthetic_pairwise/",
    "publish_cost/",
    "retraction_cost/",
    "query_cost/",
];

/// The coverage floor: every series in [`REQUIRED_SPEEDUP_SERIES`] must
/// contribute at least one `speedup` entry.  Returns one violation message
/// per missing series.
pub fn coverage_violations(entries: &[BenchEntry]) -> Vec<String> {
    REQUIRED_SPEEDUP_SERIES
        .iter()
        .filter(|prefix| {
            !entries
                .iter()
                .any(|e| e.name.starts_with(*prefix) && e.name.contains("speedup"))
        })
        .map(|prefix| format!("series {prefix}* has no speedup entry — did its sweep not run?"))
        .collect()
}

/// Speedups held to more than the general 1.0×.  An "incremental" deletion
/// that re-reads the whole KB still beats a from-scratch re-ground by a
/// constant (it was a flat 2.4× at every size when the floor was set at 5×);
/// several × at 8 000 claims with a 5 % deletion batch is only reachable when
/// the work follows the delta.  The floor is 4× since the from-scratch
/// baseline itself got 1.9× cheaper (interned catalog: 9.2 → 4.8 ms at 8 000
/// claims) while a retraction got 1.4× cheaper — the ratio fell from ~8× to
/// ~6× with both sides faster, and the whole-KB signature would now read
/// ~1.3×, so 4× separates the two by more than 5× did.
///
/// `materialize_cost/draw_speedup_unary_n4000` — drawing 1 500 samples of a
/// 4 000-variable graph in which every variable is static, against the same
/// sampler sweeping all of them — is the bit-sliced i.i.d. generator against
/// one coin flip and one bit store per variable per sample: ~8 random words
/// per 64 samples instead of 64.  Falling back to a per-variable sweep reads
/// 1×; 5× leaves the generator (measured 15–20×) room on a slow box.
pub const SPEEDUP_FLOORS: [(&str, f64); 2] = [
    ("retraction_cost/delete_speedup_n8000", 4.0),
    ("materialize_cost/draw_speedup_unary_n4000", 5.0),
];

/// The named floors of [`SPEEDUP_FLOORS`]: each entry must be present and at
/// or above its floor.  Returns one violation message per failure.
pub fn floor_violations(entries: &[BenchEntry]) -> Vec<String> {
    SPEEDUP_FLOORS
        .iter()
        .filter_map(
            |(name, floor)| match entries.iter().find(|e| e.name == *name) {
                None => Some(format!("{name} is missing (floor {floor:.1}x)")),
                Some(e) if e.value.is_nan() || e.value < *floor => Some(format!(
                    "{name}: {:.3}x is below its {floor:.1}x floor",
                    e.value
                )),
                Some(_) => None,
            },
        )
        .collect()
}

/// Counts held to a ceiling: exact counters (`bench_sweeps` takes them with a
/// counting allocator), so unlike a timing they repeat run to run and a
/// regression shows on any box.  `allocs_per_binding` — heap allocations of
/// one full grounding of the 4 000-fact claims KB per grounded binding —
/// measured 1.709 when the relation catalog was interned (5.276 before: the
/// body query's projected tuple is the 1.0, a new variable's adjacency list
/// 0.5, map and vector growth the rest); one more allocation per variable
/// would be +0.5.  `allocs_per_sample` and `allocs_per_mh_step` — what one
/// more stored sample adds to `materialize`, one more step to the MH chain —
/// measured 0 on the sample arena (3.0 each before it).
/// `grounding_cost/incremental_allocs_per_binding` — one 100-claim
/// `Grounder::ground_incremental` into a 2 000-claim KB per grounding it
/// creates (133) — measured 4.654 once new bindings are grounded in place
/// by the path full grounding uses (6.000 when they were staged as a delta
/// and resolved in a second pass); one more allocation per grounding would
/// be +1.
/// `codec/checkpoint_encode_allocs_per_row` — one steady-state
/// `DeepDive::checkpoint` of the 4 000-fact claims KB per stored base row —
/// measured 1.436 once the payload is written straight into a reused buffer:
/// all of it is the state export cloning tables and catalog, encoding adds
/// nothing (through the `Json` tree it replaced the same call made 85.1 per
/// row).
/// `codec/response_decode_allocs_per_row` — `Response::decode` of a 400-fact
/// `all_facts` page per fact — measured 3.02: the relation name, the tuple's
/// values as they are read, the tuple itself (10.07 through the tree).
pub const COUNT_CEILINGS: [(&str, f64); 6] = [
    ("cold_start/allocs_per_binding", 1.75),
    ("cold_start/allocs_per_sample", 0.01),
    ("cold_start/allocs_per_mh_step", 0.01),
    ("grounding_cost/incremental_allocs_per_binding", 4.7),
    ("codec/checkpoint_encode_allocs_per_row", 1.5),
    ("codec/response_decode_allocs_per_row", 3.1),
];

/// Ratios of two timings of one run held to a ceiling.  The timings are
/// taken in the same process on the same data shape, so the box's speed
/// cancels and what is left is how cost grows.  `codec/parse_scaling_x` —
/// nanoseconds per byte of `json::parse` at 1 MB over the same at 64 KB — is
/// about 1 for a scanner linear in the document (1.15 measured) and read 19.6
/// for the one
/// `JsonReader` replaced, which re-validated the rest of the document at
/// every character of every string.
pub const RATIO_CEILINGS: [(&str, f64); 1] = [("codec/parse_scaling_x", 2.0)];

/// The named ceilings of [`COUNT_CEILINGS`] and [`RATIO_CEILINGS`]: each
/// entry must be present and below its ceiling (at it counts as over: the
/// ceilings sit just above the measured values).  Returns one violation
/// message per failure.
pub fn ceiling_violations(entries: &[BenchEntry]) -> Vec<String> {
    COUNT_CEILINGS
        .iter()
        .chain(&RATIO_CEILINGS)
        .filter_map(
            |(name, ceiling)| match entries.iter().find(|e| e.name == *name) {
                None => Some(format!("{name} is missing (ceiling {ceiling})")),
                Some(e) if e.value.is_nan() || e.value >= *ceiling => Some(format!(
                    "{name}: {:.4} is not below its ceiling of {ceiling}",
                    e.value
                )),
                Some(_) => None,
            },
        )
        .collect()
}

/// The smoke gate: every entry must hold a finite value, and every metric
/// whose name contains `speedup` must be at least `min_speedup` (the CI gate
/// uses 1.0 — "never slower than the baseline it replaced").  Returns the
/// list of violation messages, empty when the file passes.
pub fn gate_violations(entries: &[BenchEntry], min_speedup: f64) -> Vec<String> {
    let mut violations = Vec::new();
    if entries.is_empty() {
        violations.push("no benchmark entries found".to_string());
    }
    for entry in entries {
        if !entry.value.is_finite() {
            violations.push(format!("{}: non-finite value {}", entry.name, entry.value));
        } else if entry.name.contains("speedup") && entry.value < min_speedup {
            violations.push(format!(
                "{}: {:.3}x is below the {min_speedup:.1}x floor",
                entry.name, entry.value
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_emitted_schema() {
        let text = r#"[
  {"name": "fig9/legacy_sequential", "unit": "sweeps/s", "value": 592750.659435},
  {"name": "fig9/flat_vs_legacy_speedup", "unit": "x", "value": 4.939105}
]
"#;
        let entries = parse_bench_entries(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "fig9/legacy_sequential");
        assert_eq!(entries[1].unit, "x");
        assert!((entries[1].value - 4.939105).abs() < 1e-9);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_bench_entries("").is_err());
        assert!(parse_bench_entries("[{\"name\": \"x\"").is_err()); // truncated
        assert!(parse_bench_entries("{\"name\": \"x\"}").is_err()); // not an array
        assert!(parse_bench_entries("[1, 2]").is_err()); // not objects
        assert!(parse_bench_entries("[{\"name\": \"x\", \"unit\": \"s\"}]").is_err()); // no value
        assert!(parse_bench_entries("[{}] trailing").is_err());
        assert!(parse_bench_entries("[{\"name\": 3, \"unit\": \"s\", \"value\": 1}]").is_err());
    }

    #[test]
    fn parses_escapes_and_nested_values() {
        let entries = parse_bench_entries(
            "[{\"name\": \"a\\\"b\\u0041\", \"unit\": \"x\", \"value\": -1.5e2}]",
        )
        .unwrap();
        assert_eq!(entries[0].name, "a\"bA");
        assert_eq!(entries[0].value, -150.0);
    }

    #[test]
    fn parses_surrogate_pairs_and_rejects_lone_surrogates() {
        let entries =
            parse_bench_entries("[{\"name\": \"\\ud83d\\ude80!\", \"unit\": \"x\", \"value\": 1}]")
                .unwrap();
        assert_eq!(entries[0].name, "🚀!");
        assert!(
            parse_bench_entries("[{\"name\": \"\\ud83dX\", \"unit\": \"x\", \"value\": 1}]")
                .is_err()
        );
        assert!(
            parse_bench_entries("[{\"name\": \"\\ude80\", \"unit\": \"x\", \"value\": 1}]")
                .is_err()
        );
    }

    #[test]
    fn gate_flags_regressed_speedups_only() {
        let entries = vec![
            BenchEntry {
                name: "w/flat_sequential".into(),
                unit: "sweeps/s".into(),
                value: 0.5, // raw rates below 1.0 are fine
            },
            BenchEntry {
                name: "w/flat_vs_legacy_speedup".into(),
                unit: "x".into(),
                value: 2.0,
            },
            BenchEntry {
                name: "w/draw_speedup_mixed_n4000".into(),
                unit: "x".into(),
                value: 0.93,
            },
        ];
        let violations = gate_violations(&entries, 1.0);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("draw_speedup_mixed_n4000"));
    }

    #[test]
    fn coverage_floor_requires_every_series() {
        let entry = |name: &str| BenchEntry {
            name: name.into(),
            unit: "x".into(),
            value: 2.0,
        };
        let full: Vec<BenchEntry> = REQUIRED_SPEEDUP_SERIES
            .iter()
            .map(|p| entry(&format!("{p}some_speedup_n1")))
            .collect();
        assert!(coverage_violations(&full).is_empty());

        // Dropping one series is caught and named.
        let partial = &full[..full.len() - 1];
        let violations = coverage_violations(partial);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("query_cost/"));

        // A raw (non-speedup) metric does not satisfy the floor.
        let mut decoy = partial.to_vec();
        decoy.push(entry("query_cost/indexed_topk_us_n1"));
        assert_eq!(coverage_violations(&decoy).len(), 1);
    }

    #[test]
    fn named_floors_require_presence_and_value() {
        // Every floor met except, in turn, the one under test.
        for (index, &(name, floor)) in SPEEDUP_FLOORS.iter().enumerate() {
            let entries = |value: f64| -> Vec<BenchEntry> {
                SPEEDUP_FLOORS
                    .iter()
                    .enumerate()
                    .map(|(i, &(n, f))| BenchEntry {
                        name: n.into(),
                        unit: "x".into(),
                        value: if i == index { value } else { f },
                    })
                    .collect()
            };
            assert!(floor_violations(&entries(floor)).is_empty());
            assert!(floor_violations(&entries(floor + 10.0)).is_empty());
            // The O(KB) path's flat 2.4x (or a draw that sweeps after all)
            // passes the general gate but not this one.
            assert!(gate_violations(&entries(2.4), 1.0).is_empty());
            assert_eq!(floor_violations(&entries(2.4)).len(), 1);
            assert_eq!(floor_violations(&entries(f64::NAN)).len(), 1);
            let mut without = entries(floor);
            without.remove(index);
            let missing = floor_violations(&without);
            assert_eq!(missing.len(), 1);
            assert!(missing[0].contains(name) && missing[0].contains("missing"));
        }
    }

    #[test]
    fn named_ceilings_require_presence_and_value() {
        // Every gated entry at its measured value, but for the first two.
        let entries = |binding: f64, sample: f64| -> Vec<BenchEntry> {
            [binding, sample, 0.0, 4.654, 1.436, 3.0225, 1.15]
                .into_iter()
                .zip(COUNT_CEILINGS.iter().chain(&RATIO_CEILINGS))
                .map(|(value, (name, _))| BenchEntry {
                    name: name.to_string(),
                    unit: "allocs".into(),
                    value,
                })
                .collect()
        };
        assert!(ceiling_violations(&entries(1.709, 0.0)).is_empty());
        // The parent's 5.276 per binding and 3.0 per sample are both caught,
        // and so is one more allocation per new variable (+0.5).
        assert_eq!(ceiling_violations(&entries(5.276, 3.001)).len(), 2);
        assert_eq!(ceiling_violations(&entries(2.209, 0.0)).len(), 1);
        assert_eq!(ceiling_violations(&entries(f64::NAN, 0.0)).len(), 1);
        // The staged incremental grounder's 6.0 per grounding, the tree
        // codec's allocations and the quadratic scanner's 19.6x.
        let mut parents = entries(1.709, 0.0);
        for (entry, value) in parents[3..].iter_mut().zip([6.0, 85.12, 10.065, 19.6]) {
            entry.value = value;
        }
        assert_eq!(ceiling_violations(&parents).len(), 4);
        let missing = ceiling_violations(&[]);
        assert_eq!(missing.len(), COUNT_CEILINGS.len() + RATIO_CEILINGS.len());
        assert!(missing[0].contains("missing"));
    }

    #[test]
    fn gate_flags_empty_and_non_finite() {
        assert_eq!(gate_violations(&[], 1.0).len(), 1);
        let nan = vec![BenchEntry {
            name: "w/anything".into(),
            unit: "s".into(),
            value: f64::NAN,
        }];
        assert_eq!(gate_violations(&nan, 1.0).len(), 1);
        // A NaN speedup cannot sneak past the comparison either.
        let nan_speedup = vec![BenchEntry {
            name: "w/x_speedup".into(),
            unit: "x".into(),
            value: f64::NAN,
        }];
        assert_eq!(gate_violations(&nan_speedup, 1.0).len(), 1);
    }
}
