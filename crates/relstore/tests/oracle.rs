//! Differential oracle for the slot-compiled executor.
//!
//! [`reference`] is the evaluator the executor replaced — `HashMap` bindings,
//! a whole-table hash index rebuilt per atom, cloned "new"/"old"/"delta"
//! tables per atom position — kept here, outside the production crate, as the
//! specification.  Seeded random (schema, query, database, signed delta) cases
//! must give equal tuples **and counts** for `evaluate`, `delta_evaluate` and
//! `refresh_dred`, and every index the executor built along the way must equal
//! one rebuilt from the post-update table.

use dd_relstore::view::{Filter, QueryAtom, Term};
use dd_relstore::{
    ConjunctiveQuery, DataType, Database, DeltaRelation, ExecStats, MaterializedView, QueryPlan,
    RelError, Schema, Table, Tuple, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The parent commit's interpretive evaluator, on the public API.
mod reference {
    use super::*;

    type Bindings = Vec<(HashMap<String, Value>, i64)>;
    pub type RelResult<T> = Result<T, RelError>;

    fn index_on(table: &Table, key_cols: &[usize]) -> HashMap<Vec<Value>, Vec<Tuple>> {
        let mut index: HashMap<Vec<Value>, Vec<Tuple>> = HashMap::new();
        for t in table.iter() {
            index.entry(t.key(key_cols)).or_default().push(t.clone());
        }
        index
    }

    fn positive_table(delta: &DeltaRelation, proto: &Table, name: &str) -> Table {
        let mut t = Table::new(name, proto.schema().clone());
        for (tup, c) in delta.insertions() {
            t.insert_with_count(tup.clone(), c).unwrap();
        }
        t
    }

    fn negative_table(delta: &DeltaRelation, proto: &Table, name: &str) -> Table {
        let mut t = Table::new(name, proto.schema().clone());
        for (tup, c) in delta.deletions() {
            t.insert_with_count(tup.clone(), c).unwrap();
        }
        t
    }

    pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> RelResult<Table> {
        let fetch = |name: &str| -> RelResult<&Table> { db.table(name) };
        evaluate_fetch(q, db, &fetch, q)
    }

    fn evaluate_fetch<'a, F>(
        q: &ConjunctiveQuery,
        db: &Database,
        fetch: &F,
        schema_source: &ConjunctiveQuery,
    ) -> RelResult<Table>
    where
        F: Fn(&str) -> RelResult<&'a Table>,
    {
        // Bindings: variable assignment plus derivation count.
        let mut bindings: Bindings = vec![(HashMap::new(), 1)];

        for atom in &q.atoms {
            let table = fetch(&atom.relation)?;
            bindings = if atom.negated {
                apply_negated_atom(atom, table, bindings)?
            } else {
                apply_positive_atom(atom, table, bindings)
            };
            if bindings.is_empty() {
                break;
            }
        }

        // Filters.
        for f in &q.filters {
            bindings.retain(|(b, _)| filter_holds(f, b));
        }

        // Project onto head variables.
        let schema = schema_source.output_schema(db);
        let mut out = Table::new(q.name.clone(), schema);
        for (b, c) in bindings {
            let mut row = Vec::with_capacity(q.head_vars.len());
            for hv in &q.head_vars {
                match b.get(hv) {
                    Some(v) => row.push(v.clone()),
                    None => {
                        return Err(RelError::InvalidQuery(format!(
                            "head variable `{hv}` is not bound by the body of `{}`",
                            q.name
                        )))
                    }
                }
            }
            out.insert_with_count(Tuple::new(row), c).unwrap();
        }
        Ok(out)
    }

    fn filter_holds(f: &Filter, b: &HashMap<String, Value>) -> bool {
        let get = |n: &str| b.get(n);
        match f {
            Filter::Ne(a, c) => match (get(a), get(c)) {
                (Some(x), Some(y)) => x != y,
                _ => false,
            },
            Filter::Eq(a, c) => match (get(a), get(c)) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            },
            Filter::Lt(a, c) => match (get(a), get(c)) {
                (Some(x), Some(y)) => x < y,
                _ => false,
            },
        }
    }

    fn apply_positive_atom(atom: &QueryAtom, table: &Table, bindings: Bindings) -> Bindings {
        // Positions whose value is determined by the current bindings/constants.
        let mut out = Vec::new();
        if bindings.is_empty() {
            return out;
        }
        // Determine the "bound positions" w.r.t. the first binding — all bindings
        // share the same bound-variable set because atoms are processed in order.
        let sample = &bindings[0].0;
        let bound_positions: Vec<usize> = atom
            .terms
            .iter()
            .enumerate()
            .filter(|(_, t)| match t {
                Term::Const(_) => true,
                Term::Var(v) => sample.contains_key(v),
            })
            .map(|(i, _)| i)
            .collect();
        let index = index_on(table, &bound_positions);

        for (binding, count) in bindings {
            let key: Vec<Value> = bound_positions
                .iter()
                .map(|&i| match &atom.terms[i] {
                    Term::Const(v) => v.clone(),
                    Term::Var(v) => binding[v].clone(),
                })
                .collect();
            let Some(matches) = index.get(&key) else {
                continue;
            };
            for tuple in matches {
                let tuple_count = table.count(tuple);
                // Unify the unbound positions.
                let mut new_binding = binding.clone();
                let mut ok = true;
                for (i, term) in atom.terms.iter().enumerate() {
                    if bound_positions.contains(&i) {
                        continue;
                    }
                    match term {
                        Term::Const(v) => {
                            if tuple.get(i) != Some(v) {
                                ok = false;
                                break;
                            }
                        }
                        Term::Var(v) => {
                            let val = tuple.get(i).cloned().unwrap_or(Value::Null);
                            match new_binding.get(v) {
                                Some(existing) if existing != &val => {
                                    ok = false;
                                    break;
                                }
                                Some(_) => {}
                                None => {
                                    new_binding.insert(v.clone(), val);
                                }
                            }
                        }
                    }
                }
                if ok {
                    out.push((new_binding, count * tuple_count));
                }
            }
        }
        out
    }

    fn apply_negated_atom(
        atom: &QueryAtom,
        table: &Table,
        bindings: Bindings,
    ) -> RelResult<Bindings> {
        // All variables of a negated atom must already be bound (safe negation).
        if let Some((sample, _)) = bindings.first() {
            for v in atom.variables() {
                if !sample.contains_key(v) {
                    return Err(RelError::InvalidQuery(format!(
                        "negated atom `{}` uses unbound variable `{v}`",
                        atom.relation
                    )));
                }
            }
        }
        Ok(bindings
            .into_iter()
            .filter(|(b, _)| {
                let probe: Vec<Value> = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(v) => v.clone(),
                        Term::Var(v) => b[v].clone(),
                    })
                    .collect();
                !table.contains(&Tuple::new(probe))
            })
            .collect())
    }

    pub fn delta_evaluate(
        query: &ConjunctiveQuery,
        db: &Database,
        deltas: &HashMap<String, DeltaRelation>,
    ) -> RelResult<DeltaRelation> {
        // Pre-materialize the "new" version of every changed relation.
        let mut new_tables: HashMap<String, Table> = HashMap::new();
        for (name, delta) in deltas {
            if let Ok(base) = db.table(name) {
                let mut t = base.clone();
                delta.apply_to(&mut t);
                new_tables.insert(name.clone(), t);
            }
        }

        let mut result = DeltaRelation::new(query.name.clone());

        for (i, atom) in query.atoms.iter().enumerate() {
            let Some(delta) = deltas.get(&atom.relation) else {
                continue;
            };
            if delta.is_empty() {
                continue;
            }
            if atom.negated {
                return Err(RelError::InvalidQuery(format!(
                    "cannot incrementally maintain negated atom over changed relation `{}`",
                    atom.relation
                )));
            }
            let base = db.table(&atom.relation)?;

            for (sign, part) in [
                (1i64, positive_table(delta, base, &atom.relation)),
                (-1i64, negative_table(delta, base, &atom.relation)),
            ] {
                if part.is_empty() {
                    continue;
                }
                // Rename every atom to a unique per-position alias and bind each
                // alias to the table version it should read: the delta part at
                // position i, the post-update state before i, the pre-update
                // state after i.
                let mut q = query.clone();
                let mut ov: HashMap<String, Table> = HashMap::new();
                for (j, other) in query.atoms.iter().enumerate() {
                    let alias = format!("__delta_pos_{j}__");
                    q.atoms[j].relation = alias.clone();
                    let tbl = if j == i {
                        part.clone()
                    } else if j < i {
                        match new_tables.get(&other.relation) {
                            Some(t) => t.clone(),
                            None => db.table(&other.relation)?.clone(),
                        }
                    } else {
                        db.table(&other.relation)?.clone()
                    };
                    ov.insert(alias, tbl);
                }
                let fetch = |name: &str| -> RelResult<&Table> {
                    if let Some(t) = ov.get(name) {
                        Ok(t)
                    } else {
                        db.table(name)
                    }
                };
                let partial = evaluate_fetch(&q, db, &fetch, query)?;
                for (t, c) in partial.iter_counted() {
                    result.change(t.clone(), sign * c);
                }
            }
        }
        Ok(result)
    }

    /// `MaterializedView::refresh_dred` against an explicit stored result.
    pub fn refresh_dred(
        query: &ConjunctiveQuery,
        result: &mut Table,
        db: &Database,
        deltas: &HashMap<String, DeltaRelation>,
    ) -> RelResult<DeltaRelation> {
        let view_delta = delta_evaluate(query, db, deltas)?;
        let mut distinct = DeltaRelation::new(query.name.clone());
        for (t, c) in view_delta.iter() {
            let before = result.count(t);
            let after = before + c;
            if before <= 0 && after > 0 {
                distinct.change(t.clone(), 1);
            } else if before > 0 && after <= 0 {
                distinct.change(t.clone(), -1);
            }
        }
        view_delta.apply_to(result);
        Ok(distinct)
    }
}

// ------------------------------------------------------------------ generator

const RELATIONS: usize = 4;
const DOMAIN: i64 = 4;
const VARS: [&str; 4] = ["a", "b", "c", "d"];

fn rel(i: usize) -> String {
    format!("R{i}")
}

fn random_row(rng: &mut StdRng, arity: usize) -> Tuple {
    Tuple::from_iter((0..arity).map(|_| Value::Int(rng.gen_range(0..DOMAIN))))
}

/// What one generated case exercises, summed over the run so the coverage
/// the oracle claims is itself asserted.
#[derive(Default)]
struct Coverage {
    self_joins: usize,
    constants: usize,
    repeated_var_in_atom: usize,
    negation: usize,
    filters: [usize; 3],
    multi_relation_deltas: usize,
    cancelled_changes: usize,
    over_deletions: usize,
    indexes_verified: usize,
    /// Full evaluations that probed fewer rows than the written order's
    /// first table stores: they started from a smaller atom.
    smaller_seeds: usize,
}

struct Case {
    arities: Vec<usize>,
    db: Database,
    query: ConjunctiveQuery,
    /// Relations read by a negated atom: deltas must leave them alone.
    frozen: Vec<String>,
}

fn random_case(rng: &mut StdRng, cov: &mut Coverage) -> Case {
    let arities: Vec<usize> = (0..RELATIONS).map(|_| rng.gen_range(1..=3)).collect();
    let mut db = Database::new();
    for (i, &arity) in arities.iter().enumerate() {
        let cols: Vec<(String, DataType)> = (0..arity)
            .map(|c| (format!("c{c}"), DataType::Int))
            .collect();
        let cols: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        db.create_table(&rel(i), Schema::of(&cols)).unwrap();
        for _ in 0..rng.gen_range(0..14) {
            // Repeats raise a row's count above one.
            db.insert(&rel(i), random_row(rng, arity)).unwrap();
        }
    }

    let mut atoms = Vec::new();
    let mut bound: Vec<&str> = Vec::new();
    for _ in 0..rng.gen_range(1..=4) {
        let r = rng.gen_range(0..RELATIONS);
        let mut seen_here: Vec<&str> = Vec::new();
        let terms: Vec<Term> = (0..arities[r])
            .map(|_| {
                if rng.gen_bool(0.2) {
                    cov.constants += 1;
                    Term::val(rng.gen_range(0..DOMAIN))
                } else {
                    let v = VARS[rng.gen_range(0..VARS.len())];
                    if seen_here.contains(&v) {
                        cov.repeated_var_in_atom += 1;
                    }
                    seen_here.push(v);
                    Term::var(v)
                }
            })
            .collect();
        for v in seen_here {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        atoms.push(QueryAtom::new(rel(r), terms));
    }
    let positive: Vec<&str> = atoms.iter().map(|a| a.relation.as_str()).collect();
    if (1..positive.len()).any(|i| positive[..i].contains(&positive[i])) {
        cov.self_joins += 1;
    }

    // Safe negation: bound variables and constants only, appended at a random
    // position after the atoms that bind what it uses — i.e. at the end.
    let mut frozen = Vec::new();
    if !bound.is_empty() && rng.gen_bool(0.3) {
        let r = rng.gen_range(0..RELATIONS);
        let terms: Vec<Term> = (0..arities[r])
            .map(|_| {
                if rng.gen_bool(0.3) {
                    Term::val(rng.gen_range(0..DOMAIN))
                } else {
                    Term::var(bound[rng.gen_range(0..bound.len())])
                }
            })
            .collect();
        atoms.push(QueryAtom::new(rel(r), terms).negated());
        frozen.push(rel(r));
        cov.negation += 1;
    }

    let head_vars: Vec<String> = bound
        .iter()
        .filter(|_| rng.gen_bool(0.6))
        .map(|v| v.to_string())
        .collect();
    let mut filters = Vec::new();
    if bound.len() >= 2 {
        for _ in 0..rng.gen_range(0..=2) {
            let a = bound[rng.gen_range(0..bound.len())].to_string();
            let b = bound[rng.gen_range(0..bound.len())].to_string();
            let kind = rng.gen_range(0..3);
            cov.filters[kind] += 1;
            filters.push(match kind {
                0 => Filter::Ne(a, b),
                1 => Filter::Eq(a, b),
                _ => Filter::Lt(a, b),
            });
        }
    }
    let query = ConjunctiveQuery::new("Q", head_vars, atoms).with_filters(filters);
    Case {
        arities,
        db,
        query,
        frozen,
    }
}

/// A case whose written order scans a large relation and point-looks-up a
/// smaller one of the same arity over the same variables: full evaluation
/// may start from the smaller one instead.
fn smaller_seed_case(rng: &mut StdRng, cov: &mut Coverage) -> Case {
    let large = rng.gen_range(0..RELATIONS);
    let small = (large + rng.gen_range(1..RELATIONS)) % RELATIONS;
    let mut arities: Vec<usize> = (0..RELATIONS).map(|_| rng.gen_range(1..=3)).collect();
    arities[small] = arities[large];
    let mut db = Database::new();
    for (i, &arity) in arities.iter().enumerate() {
        let cols: Vec<(String, DataType)> = (0..arity)
            .map(|c| (format!("c{c}"), DataType::Int))
            .collect();
        let cols: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        db.create_table(&rel(i), Schema::of(&cols)).unwrap();
        let rows = match i {
            i if i == large => rng.gen_range(10..24),
            i if i == small => rng.gen_range(1..5),
            _ => rng.gen_range(0..14),
        };
        for _ in 0..rows {
            db.insert(&rel(i), random_row(rng, arity)).unwrap();
        }
    }
    // The same distinct variables, in the same or the reverse order.
    let mut vars: Vec<&str> = VARS[..arities[large]].to_vec();
    let terms = |vars: &[&str]| vars.iter().map(|v| Term::var(*v)).collect();
    let scanned = QueryAtom::new(rel(large), terms(&vars));
    if rng.gen_bool(0.5) {
        vars.reverse();
    }
    let probed = QueryAtom::new(rel(small), terms(&vars));
    let head_vars: Vec<String> = vars
        .iter()
        .filter(|_| rng.gen_bool(0.6))
        .map(|v| v.to_string())
        .collect();
    let mut filters = Vec::new();
    if vars.len() >= 2 && rng.gen_bool(0.5) {
        cov.filters[2] += 1;
        filters.push(Filter::Lt(vars[0].to_string(), vars[1].to_string()));
    }
    Case {
        arities,
        db,
        query: ConjunctiveQuery::new("Q", head_vars, vec![scanned, probed]).with_filters(filters),
        frozen: Vec::new(),
    }
}

fn random_deltas(
    rng: &mut StdRng,
    case: &Case,
    cov: &mut Coverage,
) -> HashMap<String, DeltaRelation> {
    let mut deltas = HashMap::new();
    for (i, &arity) in case.arities.iter().enumerate() {
        let name = rel(i);
        if case.frozen.contains(&name) || rng.gen_bool(0.35) {
            continue;
        }
        let table = case.db.table(&name).unwrap();
        let existing = table.sorted_tuples();
        let mut delta = DeltaRelation::new(name.clone());
        for _ in 0..rng.gen_range(1..6) {
            match rng.gen_range(0..10) {
                // Delete a present row (one derivation of it).
                0..=3 if !existing.is_empty() => {
                    delta.delete(existing[rng.gen_range(0..existing.len())].clone());
                }
                // Insert and delete the same tuple: the change cancels out.
                4 => {
                    let t = random_row(rng, arity);
                    delta.insert(t.clone());
                    delta.delete(t);
                    cov.cancelled_changes += 1;
                }
                // Delete a row that may not exist: an over-deletion.
                5 => {
                    let t = random_row(rng, arity);
                    if !table.contains(&t) {
                        cov.over_deletions += 1;
                    }
                    delta.delete(t);
                }
                _ => delta.insert(random_row(rng, arity)),
            }
        }
        deltas.insert(name, delta);
    }
    if deltas.values().filter(|d| !d.is_empty()).count() >= 2 {
        cov.multi_relation_deltas += 1;
    }
    deltas
}

fn counted(table: &Table) -> Vec<(Tuple, i64)> {
    table
        .iter_net_counted()
        .map(|(t, c)| (t.clone(), c))
        .collect()
}

fn changes(delta: &DeltaRelation) -> Vec<(Tuple, i64)> {
    delta.iter().map(|(t, c)| (t.clone(), c)).collect()
}

#[test]
fn executor_matches_the_reference_evaluator_on_random_cases() {
    const CASES: u64 = 300;
    const ROUNDS: usize = 2;
    let mut cov = Coverage::default();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x0d1f_f000 + seed);
        let mut case = random_case(&mut rng, &mut cov);
        let ctx = |what: &str| format!("seed {seed}: {what} of {:?}", case.query);

        let expected = reference::evaluate(&case.query, &case.db).unwrap();
        let got = case.query.evaluate(&case.db).unwrap();
        assert_eq!(counted(&got), counted(&expected), "{}", ctx("evaluate"));

        let mut view = MaterializedView::materialize(case.query.clone(), &case.db).unwrap();
        let mut expected_result = expected;
        for round in 0..ROUNDS {
            let deltas = random_deltas(&mut rng, &case, &mut cov);

            let expected_delta = reference::delta_evaluate(&case.query, &case.db, &deltas).unwrap();
            let got_delta = case.query.delta_evaluate(&case.db, &deltas).unwrap();
            assert_eq!(
                changes(&got_delta),
                changes(&expected_delta),
                "{} (round {round})",
                ctx("delta_evaluate")
            );

            let expected_distinct =
                reference::refresh_dred(&case.query, &mut expected_result, &case.db, &deltas)
                    .unwrap();
            let got_distinct = view.refresh_dred(&case.db, &deltas).unwrap();
            assert_eq!(
                changes(&got_distinct),
                changes(&expected_distinct),
                "{} (round {round})",
                ctx("refresh_dred")
            );
            assert_eq!(
                counted(view.result()),
                counted(&expected_result),
                "{} (round {round})",
                ctx("maintained result")
            );

            // Land the update.  The tables carry whatever indexes the
            // executor built above; maintenance must leave each one equal to
            // an index rebuilt from the post-update rows.
            for (name, delta) in &deltas {
                delta.apply_to(case.db.table_mut(name).unwrap());
            }
            for table in case.db.tables() {
                match table.verify_indexes() {
                    Ok(n) => cov.indexes_verified += n,
                    Err(cols) => panic!(
                        "seed {seed} round {round}: index of `{}` on {cols:?} drifted",
                        table.name()
                    ),
                }
            }

            // Full evaluation through the maintained indexes agrees with the
            // reference (which never uses them) and with the maintained view.
            let expected_post = reference::evaluate(&case.query, &case.db).unwrap();
            let got_post = case.query.evaluate(&case.db).unwrap();
            assert_eq!(
                counted(&got_post),
                counted(&expected_post),
                "{} (round {round})",
                ctx("post-update evaluate")
            );
            assert_eq!(
                view.result().sorted_tuples(),
                expected_post.sorted_tuples(),
                "{} (round {round})",
                ctx("view vs recompute")
            );
        }
    }

    // Full evaluation of conjunctions it may start from their smaller
    // atom, before and after signed deltas (over-deletions included) land
    // in the tables.
    const SMALLER_SEED_CASES: u64 = 100;
    for seed in 0..SMALLER_SEED_CASES {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + seed);
        let mut case = smaller_seed_case(&mut rng, &mut cov);
        for round in 0..=ROUNDS {
            let ctx = format!("smaller-seed {seed} round {round}: {:?}", case.query);
            let expected = reference::evaluate(&case.query, &case.db).unwrap();
            let plan = QueryPlan::compile(&case.query).unwrap();
            let mut stats = ExecStats::default();
            let got = plan.evaluate(&case.db, &mut stats).unwrap();
            assert_eq!(counted(&got), counted(&expected), "{ctx}");
            // The written order visits every stored row of its first table.
            let first = case.db.table(&case.query.atoms[0].relation).unwrap();
            if stats.rows_probed < first.iter_net_counted().count() as u64 {
                cov.smaller_seeds += 1;
            }
            for (name, delta) in random_deltas(&mut rng, &case, &mut cov) {
                delta.apply_to(case.db.table_mut(&name).unwrap());
            }
        }
    }

    // The generator really covers what the oracle is meant to pin.
    assert!(cov.self_joins >= 50, "self-joins: {}", cov.self_joins);
    assert!(cov.constants >= 50, "constants: {}", cov.constants);
    assert!(
        cov.repeated_var_in_atom >= 30,
        "repeated variable inside one atom: {}",
        cov.repeated_var_in_atom
    );
    assert!(cov.negation >= 30, "negation: {}", cov.negation);
    assert!(
        cov.filters.iter().all(|&n| n >= 20),
        "Ne/Eq/Lt filters: {:?}",
        cov.filters
    );
    assert!(
        cov.multi_relation_deltas >= 100,
        "deltas on several relations at once: {}",
        cov.multi_relation_deltas
    );
    assert!(
        cov.cancelled_changes >= 50,
        "insert+delete of the same tuple: {}",
        cov.cancelled_changes
    );
    assert!(
        cov.over_deletions >= 20,
        "over-deletions: {}",
        cov.over_deletions
    );
    assert!(
        cov.indexes_verified >= 200,
        "maintained indexes verified: {}",
        cov.indexes_verified
    );
    assert!(
        cov.smaller_seeds >= 150,
        "full evaluations started from an atom smaller than the written first: {}",
        cov.smaller_seeds
    );
}
