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

/// Speedups held to more than the general 1.0×.
///
/// `materialize_cost/draw_speedup_unary_n4000` — drawing 1 500 samples of a
/// 4 000-variable graph in which every variable is static, against the same
/// sampler sweeping all of them — is the bit-sliced i.i.d. generator against
/// one coin flip and one bit store per variable per sample: ~8 random words
/// per 64 samples instead of 64.  Falling back to a per-variable sweep reads
/// 1×; 5× leaves the generator (measured 15–20×) room on a slow box.
///
/// `retraction_cost/delete_speedup_n8000` is recorded without a floor: it
/// raced an O(Δ) path against full grounding, and full grounding got cheaper
/// (3.6× in the committed file against a 4× floor, on unchanged code).
/// Whether a retraction costs what it deletes is
/// `retraction_cost/delete_scaling_x`'s ceiling in [`RATIO_CEILINGS`].
pub const SPEEDUP_FLOORS: [(&str, f64); 1] = [("materialize_cost/draw_speedup_unary_n4000", 5.0)];

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
/// measured 0.630 once a binding that is one body atom's row shares that
/// row's allocation (1.629 before, the projected tuple being the 1.0; 5.276
/// before the relation catalog was interned); a new variable's adjacency
/// list is 0.5, map and vector growth the rest, so one more allocation per
/// variable would be +0.5.  `rows_probed_per_binding` — the same grounding's
/// `GroundingResult::rows_probed` per binding, exact like the allocation
/// counts — measured 1.75 once lookup-only joins start from their smaller
/// atom (2.5 when `SP` and `SN` scanned the 3 000 claims to probe the 1 500
/// labels each).  `allocs_per_sample` and `allocs_per_mh_step` — what one
/// more stored sample adds to `materialize`, one more step to the MH chain —
/// measured 0 on the sample arena (3.0 each before it).
/// `grounding_cost/incremental_allocs_per_binding` — one 100-claim
/// `Grounder::ground_incremental` into a 2 000-claim KB per grounding it
/// creates (133) — measured 1.842 once the run reports id ranges instead of
/// copying every new variable, weight and factor into a replayable delta
/// (3.406 with that copy; 6.000 when new bindings were staged as a delta
/// and resolved in a second pass); one more allocation per grounding would
/// be +1.
/// `codec/checkpoint_encode_allocs_per_row` — one steady-state
/// `DeepDive::checkpoint` of the 4 000-fact claims KB per stored base row —
/// measured 0.0076 (53 allocations for 7 000 rows) once the checkpoint is
/// encoded from the live engine into its file: the chunk, the vectors of
/// references that order the catalog, paths and directory listings.  It
/// read 1.177 while the state was cloned into an export first (85.1
/// through the `Json` tree before that); one allocation per catalog entry
/// would be +0.57.
/// `codec/checkpoint_peak_heap_per_payload_byte` — the most extra live heap
/// during that checkpoint per payload byte — measured 0.082: the 64 KiB
/// chunk and the catalog's vector of references (0.675 while the state was
/// cloned before it was encoded).  `codec/checkpoint_retained_heap_bytes` —
/// the live heap the first full checkpoint leaves behind — measured 0; it
/// must stay below one chunk (3 670 016 bytes while the engine kept its
/// payload buffer).
/// `codec/response_decode_allocs_per_row` — `Response::decode` of a 400-fact
/// `all_facts` page per fact — measured 3.02: the relation name, the tuple's
/// values as they are read, the tuple itself (10.07 through the tree).
/// `cold_start/index_heap_bytes_per_row` — the live heap the persistent
/// indexes of one full grounding of the 4 000-fact News corpus hold, per
/// row handle in them — measured 65.1 once an index is keyed by the hash of
/// the key columns and a key with one row is one handle; it read 233.1
/// while every key was a `Vec<Value>` and every bucket a `Vec` of handles.
pub const COUNT_CEILINGS: [(&str, f64); 10] = [
    ("cold_start/allocs_per_binding", 0.7),
    ("cold_start/rows_probed_per_binding", 1.8),
    ("cold_start/allocs_per_sample", 0.01),
    ("cold_start/allocs_per_mh_step", 0.01),
    ("cold_start/index_heap_bytes_per_row", 70.0),
    ("grounding_cost/incremental_allocs_per_binding", 1.9),
    ("codec/checkpoint_encode_allocs_per_row", 0.01),
    ("codec/checkpoint_peak_heap_per_payload_byte", 0.1),
    (
        "codec/checkpoint_retained_heap_bytes",
        dd_wire::json::CHUNK_BYTES as f64,
    ),
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
///
/// `retraction_cost/delete_scaling_x` — one fixed 100-claim deletion batch
/// grounded incrementally on a live 32 000-claim KB over the same on a
/// 2 000-claim KB, best of 7 each — measured 2.8–3.6 (0.15–0.23 → 0.6 ms):
/// sub-linear in a 16× larger KB, though not flat like an insert.  A
/// deletion that re-grounds the whole KB read 22.5, one that copies the
/// database 8.7; 8 sits below both with room for the box's ±30 % on
/// sub-millisecond timings.  It replaced a 4× floor on
/// `delete_speedup_n8000`, a race against full grounding that went red on
/// unchanged code once full grounding got cheaper.
pub const RATIO_CEILINGS: [(&str, f64); 2] = [
    ("codec/parse_scaling_x", 2.0),
    ("retraction_cost/delete_scaling_x", 8.0),
];

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
            // A draw that sweeps after all passes the general gate but not
            // this one.
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
        // Every gated entry at its measured value, but for the first three.
        let entries = |binding: f64, probed: f64, sample: f64| -> Vec<BenchEntry> {
            [
                binding, probed, sample, 0.0, 65.1, 1.842, 0.0076, 0.0824, 0.0, 3.0225, 1.15, 4.2,
            ]
            .into_iter()
            .zip(COUNT_CEILINGS.iter().chain(&RATIO_CEILINGS))
            .map(|(value, (name, _))| BenchEntry {
                name: name.to_string(),
                unit: "allocs".into(),
                value,
            })
            .collect()
        };
        assert!(ceiling_violations(&entries(0.630, 1.75, 0.0)).is_empty());
        // The tuple allocated per binding (1.629), the written-order probes
        // (2.5 per binding) and 3.0 allocations per sample are each caught,
        // and so is one more allocation per new variable (+0.5).
        assert_eq!(ceiling_violations(&entries(1.629, 2.5, 3.001)).len(), 3);
        assert_eq!(ceiling_violations(&entries(1.130, 1.75, 0.0)).len(), 1);
        assert_eq!(ceiling_violations(&entries(f64::NAN, 1.75, 0.0)).len(), 1);
        // Indexes keyed by `Vec<Value>` with a `Vec` per bucket (233.1
        // bytes per indexed row), the incremental grounder's copy of its
        // additions into a replayable delta (3.406 per grounding), the
        // cloned checkpoint export's allocations, peak and retained buffer,
        // the tree codec's allocations, the quadratic scanner's 19.6x and a
        // deletion that re-grounds the whole KB.
        let mut parents = entries(0.630, 1.75, 0.0);
        let parent_values = [
            233.1,
            3.406,
            1.1767,
            0.6752,
            3_670_016.0,
            10.065,
            19.6,
            23.0,
        ];
        for (entry, value) in parents[4..].iter_mut().zip(parent_values) {
            entry.value = value;
        }
        assert_eq!(ceiling_violations(&parents).len(), 8);
        // A retained chunk is allowed; a retained payload buffer is not.
        let mut chunk = entries(0.630, 1.75, 0.0);
        chunk[8].value = dd_wire::json::CHUNK_BYTES as f64 - 1.0;
        assert!(ceiling_violations(&chunk).is_empty());
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
