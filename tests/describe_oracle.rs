//! Differential oracle for "incremental grounding reports the change it
//! applied".
//!
//! The engine writes each round's [`DistributionChange`] from what
//! [`Grounder::ground_incremental`] reports: the id ranges it appended, the
//! evidence it newly pinned, and whether it retracted anything.  Here the
//! reference is a diff of a clone taken before every update — the graph plus
//! every variable's `(relation, tuple)` and role — against the grounder after
//! it.  Over seeded insert / delete / supervision-flip /
//! supervision-retraction / add-rule sequences:
//!
//! * on a round without removals, the pre-update factors and weights are an
//!   unchanged prefix of the updated graph, its variables are unchanged
//!   except for their roles, and the reported ranges are exactly the tail;
//! * on every round, the post-update count is the pre-update count plus the
//!   reported new ones minus the removed ones, for variables and factors
//!   alike; `new_evidence` equals the role diff by `(relation, tuple)` (a
//!   variable inside the reported range counts as not pinned before); and
//!   the retraction flag is set exactly when the diff shows a removal or an
//!   evidence → `Query` transition.
//!
//! [`DistributionChange`]: deepdive_repro::inference::DistributionChange

mod support;

use deepdive_repro::factorgraph::{VarId, VariableRole};
use deepdive_repro::grounding::IncrementalGrounding;
use deepdive_repro::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
use support::oracle::{retraction_spec, Generator, OpKind, Spec};

/// The retraction spec's program, universes and rule pool under its own
/// salt and op table: supervision flips swap a label for its opposite, a
/// retraction may come with a fresh label the sticky suppression must keep
/// from pinning the head again, and an op with nothing to act on labels a
/// new candidate instead.
fn spec() -> Spec {
    Spec {
        name: "describe",
        salt: 0xD15C_0DE5,
        ops: &[
            (3, OpKind::Insert),
            (2, OpKind::Delete),
            (2, OpKind::Flip(&[("Truth", "Wrong"), ("Wrong", "Truth")])),
            (1, OpKind::Retract(Some("Truth"))),
            (2, OpKind::AddRule),
        ],
        fallback: Some(OpKind::Label(&["Truth", "Link"])),
        corpus: |spec, rng| {
            ["Link", "Link", "Feat", "Truth", "Wrong"]
                .map(|rel| spec.draw(rng, rel))
                .to_vec()
        },
        ..retraction_spec()
    }
}

/// What the sweep exercised, counted off the diff, so a generator drift
/// cannot make it vacuous.
#[derive(Debug, Default)]
struct Coverage {
    updates: usize,
    /// Rounds that removed a variable or a factor.
    with_removals: usize,
    /// Variables whose role differs from the one their `(relation, tuple)`
    /// held before (`Query` for a variable the round created).
    evidence_changes: usize,
    /// Of those, on rounds without removals, the ones pinned before.
    previously_pinned: usize,
    new_evidence: usize,
    new_structure: usize,
    /// Evidence → `Query` transitions on rounds that removed nothing and
    /// retracted no supervision: rounds only their un-pins make retractions.
    unpins_without_removal: usize,
}

type Key = (String, Tuple);

/// Each variable's `(relation, tuple)`, indexed by id.
fn keys_by_id(grounder: &Grounder) -> Vec<Key> {
    let mut keys = vec![None; grounder.graph().num_variables()];
    for ((rel, tuple), &var) in grounder.variable_catalog() {
        keys[var] = Some((rel.clone(), tuple.clone()));
    }
    keys.into_iter()
        .map(|key| key.expect("every variable is catalogued"))
        .collect()
}

/// A factor by content: its weight and its variables' keys in slot order.
fn factor_line(graph: &FactorGraph, keys: &[Key], factor: &Factor) -> String {
    let vars: Vec<&Key> = factor.variables().iter().map(|&v| &keys[v]).collect();
    format!("{} {vars:?}", graph.weight(factor.weight_id).description)
}

/// The grounder's state before an update, for diffing against after.
struct Before {
    graph: FactorGraph,
    keys: Vec<Key>,
}

impl Before {
    fn take(grounder: &Grounder) -> Self {
        Before {
            graph: grounder.graph().clone(),
            keys: keys_by_id(grounder),
        }
    }

    /// Diff against the grounder after the update, assert the report, and
    /// count what the round exercised.
    fn check(
        &self,
        grounder: &Grounder,
        update: &KbcUpdate,
        report: &IncrementalGrounding,
        cover: &mut Coverage,
        what: &str,
    ) {
        let (pre, post) = (&self.graph, grounder.graph());
        let post_keys = keys_by_id(grounder);
        let roles_before: HashMap<&Key, VariableRole> = self
            .keys
            .iter()
            .zip(pre.variables())
            .map(|(key, var)| (key, var.role))
            .collect();
        let is_new_var = |v: VarId| report.new_variables.contains(&v);
        assert_eq!(report.new_variables.end, post.num_variables(), "{what}");
        assert_eq!(report.new_factors.end, post.num_factors(), "{what}");

        // Variables: every one outside the reported range was there before,
        // under the same key; the rest of the pre-update keys were removed.
        let survivors: HashSet<&Key> = post_keys
            .iter()
            .enumerate()
            .filter(|&(v, _)| !is_new_var(v))
            .map(|(_, key)| key)
            .collect();
        for key in &survivors {
            assert!(
                roles_before.contains_key(key),
                "{what}: {key:?} is new but outside the reported range"
            );
        }
        let removed_variables = self.keys.iter().filter(|k| !survivors.contains(k)).count();
        assert_eq!(
            post.num_variables() + removed_variables,
            pre.num_variables() + report.new_variables.len(),
            "{what}: variables"
        );

        // Factors, by content: every one outside the reported range was
        // there before; the rest of the pre-update factors were removed.
        let mut unmatched: BTreeMap<String, usize> = BTreeMap::new();
        for factor in pre.factors() {
            *unmatched
                .entry(factor_line(pre, &self.keys, factor))
                .or_default() += 1;
        }
        for (f, factor) in post.factors().iter().enumerate() {
            if report.new_factors.contains(&f) {
                continue;
            }
            let line = factor_line(post, &post_keys, factor);
            let left = unmatched.get_mut(&line).filter(|n| **n > 0);
            let left = left.unwrap_or_else(|| {
                panic!("{what}: factor {f} ({line}) is new but outside the reported range")
            });
            *left -= 1;
        }
        let removed_factors: usize = unmatched.values().sum();
        assert_eq!(
            post.num_factors() + removed_factors,
            pre.num_factors() + report.new_factors.len(),
            "{what}: factors"
        );
        assert_eq!(
            post.weights()[..pre.num_weights()],
            *pre.weights(),
            "{what}: weights are never removed or re-valued"
        );

        let removals = removed_variables + removed_factors > 0;
        if !removals {
            assert_eq!(
                report.new_variables,
                pre.num_variables()..post.num_variables(),
                "{what}"
            );
            assert_eq!(
                report.new_factors,
                pre.num_factors()..post.num_factors(),
                "{what}"
            );
            assert_eq!(
                post.factors()[..pre.num_factors()],
                *pre.factors(),
                "{what}"
            );
            for (before, after) in pre.variables().iter().zip(post.variables()) {
                let mut expected = before.clone();
                expected.role = after.role;
                expected.initial_value = after.initial_value;
                assert_eq!(*after, expected, "{what}: only roles change in place");
            }
        }

        // Roles, by key and in key order.
        let mut by_key: Vec<(&Key, VarId)> = post_keys
            .iter()
            .enumerate()
            .map(|(v, key)| (key, v))
            .collect();
        by_key.sort();
        let mut new_evidence = Vec::new();
        let mut unpins = 0;
        for (key, var) in by_key {
            let role = post.variable(var).role;
            let held = roles_before.get(key).copied();
            let previous = if is_new_var(var) {
                VariableRole::Query
            } else {
                held.expect("a survivor")
            };
            if role != previous {
                cover.evidence_changes += 1;
                cover.previously_pinned +=
                    usize::from(!removals && previous.fixed_value().is_some());
            }
            match role.fixed_value() {
                Some(value) if previous.fixed_value() != Some(value) => {
                    new_evidence.push((var, value))
                }
                Some(_) => {}
                None => unpins += usize::from(held.and_then(|r| r.fixed_value()).is_some()),
            }
        }
        assert_eq!(report.new_evidence, new_evidence, "{what}: new evidence");
        assert_eq!(
            report.retracted,
            removals || unpins > 0,
            "{what}: retraction flag ({removed_variables} variables and \
             {removed_factors} factors removed, {unpins} un-pinned)"
        );

        cover.updates += 1;
        cover.with_removals += usize::from(removals);
        cover.new_evidence += new_evidence.len();
        cover.new_structure += report.new_variables.len() + report.new_factors.len();
        if !removals && update.retracted_supervision.is_empty() {
            cover.unpins_without_removal += unpins;
        }
    }
}

fn run_sequence(spec: &Spec, seed: u64, ops: usize, cover: &mut Coverage) {
    let (mut generator, corpus) = Generator::new(spec, seed);
    let mut grounder = Grounder::new(
        spec.program.clone(),
        spec.database(&corpus),
        standard_udfs(),
    )
    .expect("grounder builds");
    grounder.ground().expect("initial grounding");
    for step in 0..ops {
        let op = generator.next().expect("the fallback always applies");
        let what = format!("seed {seed} step {step} ({})", op.what);
        let before = Before::take(&grounder);
        let report = grounder
            .ground_incremental(&op.update)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        before.check(&grounder, &op.update, &report, cover, &what);
    }
}

#[test]
fn reported_change_equals_the_diff_against_a_pre_update_clone() {
    let (spec, mut cover) = (spec(), Coverage::default());
    for seed in 0..240 {
        run_sequence(&spec, seed, 8, &mut cover);
    }
    eprintln!("{cover:?}");
    assert_eq!(cover.updates, 240 * 8);
    assert!(cover.with_removals > 100, "{}", cover.with_removals);
    assert!(cover.evidence_changes > 150, "{}", cover.evidence_changes);
    assert!(cover.previously_pinned > 25, "{}", cover.previously_pinned);
    assert!(cover.new_evidence > 100, "{}", cover.new_evidence);
    assert!(cover.new_structure > 300, "{}", cover.new_structure);
    assert!(
        cover.unpins_without_removal > 5,
        "{}",
        cover.unpins_without_removal
    );
}
