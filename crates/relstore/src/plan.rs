//! Slot-compiled, index-backed execution of conjunctive queries.
//!
//! A [`ConjunctiveQuery`] is compiled once into a [`QueryPlan`]: every
//! variable becomes a register slot, and for every join order the plan needs
//! — the written order for full evaluation, plus one order per positive atom
//! that starts from that atom and continues with whatever the bindings so
//! far determine best, for delta evaluation — each atom
//! becomes a step that knows which of its columns are already determined
//! when it runs (its probe key), which columns bind a new slot, which must
//! equal a slot bound earlier in the same row, and which filters become
//! decidable once it has matched.
//!
//! Execution is a depth-first nested-loop join over those steps.  A step
//! with a full key is a point lookup, a step with a partial key probes the
//! table's persistent hash index on exactly those columns, and only a
//! step with no key at all scans.  Nothing is materialized between steps:
//! the register file is overwritten in place.  Each step keeps a table
//! cursor, so its lookups — which follow the outer steps' rows, mostly in
//! tuple order — gallop forward from the last one instead of searching the
//! whole table again; that includes reading the count of each row an
//! index probe yields.  A binding whose head tuple is exactly one step's
//! row shares that row instead of allocating a tuple.
//!
//! Full evaluation runs the written order, unless that order scans its
//! first atom and point-looks-up every other: such an order costs one
//! probe per step per row of the first atom, and so does the seeded order
//! of any other atom that only looks up, per row of *that* atom.  Full
//! evaluation then starts from the smallest of those atoms — same bindings
//! and counts (they are sorted and summed at the end), fewer probes.
//!
//! Delta evaluation is the counting delta rule
//! `ΔQ = Σ_i body[..i](new) ⋈ Δatom_i ⋈ body[i+1..](old)`: for each changed
//! atom position `i` the join is *seeded* from the Δ rows, positions before
//! `i` read the post-update state through a base ⊕ Δ overlay (the base
//! table's index plus a small index over the Δ rows, signed counts summed)
//! and positions after `i` read the base table.  The cost is
//! O(|Δ| · fan-out): no table is cloned and no index is rebuilt.

use crate::database::Database;
use crate::delta::DeltaRelation;
use crate::error::{RelError, RelResult};
use crate::index::HashIndex;
use crate::table::{Cursor, Table};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::view::{ConjunctiveQuery, Filter, QueryAtom, Term};
use std::collections::HashMap;
use std::sync::Arc;

/// Deterministic work counters of one or more plan executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows visited: Δ rows a join was seeded from, rows a scan or an index
    /// probe yielded, and point lookups.  A pure function of the query, the
    /// data reachable from the seeds and the deltas — not of timing or hash
    /// order.
    pub rows_probed: u64,
}

/// Where a key column's value comes from when a step runs.
#[derive(Debug, Clone)]
enum Src {
    Const(Value),
    Slot(usize),
}

#[derive(Debug, Clone, Copy)]
enum Cmp {
    Ne,
    Eq,
    Lt,
}

/// One atom of one join order.
#[derive(Debug, Clone)]
struct Step {
    /// Position of the atom in the query body.
    atom: usize,
    negated: bool,
    /// Columns determined before the step runs (constants and variables
    /// bound by earlier steps), ascending — the probe key's column set.
    key_cols: Vec<usize>,
    key_src: Vec<Src>,
    /// `(column, slot)`: first occurrence of a variable; the row's value is
    /// written to the slot.
    bind: Vec<(usize, usize)>,
    /// `(column, slot)`: a variable repeated inside this atom; the row's
    /// value must equal the slot an earlier column of the same row bound.
    check: Vec<(usize, usize)>,
    /// Filters whose two slots are both bound once this step has matched.
    filters: Vec<(Cmp, usize, usize)>,
    /// The matched row is the head tuple: the step binds every head slot,
    /// column by column in head order, and its atom has no other column.
    binds_head: bool,
}

/// A compiled [`ConjunctiveQuery`].
#[derive(Debug, Clone)]
pub struct QueryPlan {
    query: ConjunctiveQuery,
    num_slots: usize,
    /// Slot of each head variable.
    head: Vec<usize>,
    /// The written join order.
    full: Vec<Step>,
    /// `seeded[i]`: the order with atom `i` first (positive atoms only).
    seeded: Vec<Option<Vec<Step>>>,
    /// When the written order scans its first atom and point-looks-up every
    /// other: the atoms whose seeded order does the same, which full
    /// evaluation may start from instead (see [`QueryPlan::bindings`]).
    lookup_seeds: Vec<usize>,
    /// A filter names a variable no positive atom binds: nothing qualifies.
    unsatisfiable: bool,
}

impl QueryPlan {
    /// Compile `query`.  Fails on a head variable no positive atom binds and
    /// on a negated atom using a variable that no *earlier* positive atom
    /// binds (unsafe negation).
    pub fn compile(query: &ConjunctiveQuery) -> RelResult<QueryPlan> {
        let mut slots: HashMap<&str, usize> = HashMap::new();
        for atom in query.atoms.iter().filter(|a| !a.negated) {
            for var in atom.variables() {
                let next = slots.len();
                slots.entry(var).or_insert(next);
            }
        }
        let mut bound_so_far: Vec<&str> = Vec::new();
        for atom in &query.atoms {
            for var in atom.variables() {
                if atom.negated && !bound_so_far.contains(&var) {
                    return Err(RelError::InvalidQuery(format!(
                        "negated atom `{}` uses unbound variable `{var}`",
                        atom.relation
                    )));
                }
                if !atom.negated && !bound_so_far.contains(&var) {
                    bound_so_far.push(var);
                }
            }
        }
        let head = query
            .head_vars
            .iter()
            .map(|hv| {
                slots.get(hv.as_str()).copied().ok_or_else(|| {
                    RelError::InvalidQuery(format!(
                        "head variable `{hv}` is not bound by the body of `{}`",
                        query.name
                    ))
                })
            })
            .collect::<RelResult<Vec<usize>>>()?;

        let mut filters = Vec::new();
        let mut unsatisfiable = false;
        for f in &query.filters {
            let (cmp, a, b) = match f {
                Filter::Ne(a, b) => (Cmp::Ne, a, b),
                Filter::Eq(a, b) => (Cmp::Eq, a, b),
                Filter::Lt(a, b) => (Cmp::Lt, a, b),
            };
            match (slots.get(a.as_str()), slots.get(b.as_str())) {
                (Some(&a), Some(&b)) => filters.push((cmp, a, b)),
                _ => unsatisfiable = true,
            }
        }

        let n = query.atoms.len();
        let written: Vec<usize> = (0..n).collect();
        let full = compile_order(&query.atoms, &slots, &filters, &head, &written);
        let seeded: Vec<Option<Vec<Step>>> = (0..n)
            .map(|i| {
                (!query.atoms[i].negated).then(|| {
                    let order = seeded_order(&query.atoms, i);
                    compile_order(&query.atoms, &slots, &filters, &head, &order)
                })
            })
            .collect();
        let lookup_only = |steps: &[Step]| {
            steps.first().is_some_and(|seed| seed.key_cols.is_empty())
                && steps[1..]
                    .iter()
                    .all(|step| step.key_cols.len() == query.atoms[step.atom].terms.len())
        };
        let lookup_seeds = if lookup_only(&full) {
            (0..n)
                .filter(|&i| seeded[i].as_deref().is_some_and(lookup_only))
                .collect()
        } else {
            Vec::new()
        };
        Ok(QueryPlan {
            query: query.clone(),
            num_slots: slots.len(),
            head,
            full,
            seeded,
            lookup_seeds,
            unsatisfiable,
        })
    }

    /// The query this plan was compiled from.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// Evaluate against `db`, producing the counted result relation.
    pub fn evaluate(&self, db: &Database, stats: &mut ExecStats) -> RelResult<Table> {
        let rows = self.bindings(db, stats)?;
        Ok(Table::from_sorted_rows(
            self.query.name.clone(),
            self.query.output_schema(db),
            rows,
        ))
    }

    /// The rows of [`QueryPlan::evaluate`] — distinct head tuples in tuple
    /// order, each with its derivation count — without the table around them.
    /// Starts from the smallest atom among the lookup-only orders (the
    /// written one on ties; see the module documentation).
    pub fn bindings(&self, db: &Database, stats: &mut ExecStats) -> RelResult<Vec<(Tuple, i64)>> {
        let tables = self.resolve_tables(db)?;
        let mut rows: Vec<(Tuple, i64)> = Vec::new();
        if self.unsatisfiable {
            return Ok(rows);
        }
        let first = |steps: &[Step]| tables[steps[0].atom].len();
        let steps = self
            .lookup_seeds
            .iter()
            .filter_map(|&i| self.seeded[i].as_deref())
            .fold(self.full.as_slice(), |best, seeded| {
                if first(seeded) < first(best) {
                    seeded
                } else {
                    best
                }
            });
        let sources: Vec<Source> = steps
            .iter()
            .map(|step| Source::new(step, tables[step.atom], None))
            .collect();
        let run = Run {
            steps,
            sources: &sources,
        };
        let mut state = State::new(self.num_slots, steps.len(), stats);
        let mut keys = vec![Value::Null; key_space(steps)];
        let mut emit = |regs: &[Value], row: Option<&Tuple>, count: i64| {
            rows.push((self.project(regs, row), count))
        };
        run.descend(0, 1, None, &mut keys, &mut state, &mut emit);
        sort_and_sum(&mut rows);
        Ok(rows)
    }

    /// Compute the *delta* of the query caused by `deltas`, with `db` in its
    /// **pre-update** state (see the module documentation).
    ///
    /// Negated atoms over changed relations are not supported by the counting
    /// delta rule; an error is returned in that case (the caller should fall
    /// back to full recomputation).
    pub fn delta_evaluate(
        &self,
        db: &Database,
        deltas: &HashMap<String, DeltaRelation>,
        stats: &mut ExecStats,
    ) -> RelResult<DeltaRelation> {
        let tables = self.resolve_tables(db)?;
        let atom_delta: Vec<Option<&DeltaRelation>> = self
            .query
            .atoms
            .iter()
            .map(|atom| deltas.get(&atom.relation).filter(|d| !d.is_empty()))
            .collect();
        for (atom, delta) in self.query.atoms.iter().zip(&atom_delta) {
            if atom.negated && delta.is_some() {
                return Err(RelError::InvalidQuery(format!(
                    "cannot incrementally maintain negated atom over changed relation `{}`",
                    atom.relation
                )));
            }
        }
        let mut rows: Vec<(Tuple, i64)> = Vec::new();
        if self.unsatisfiable {
            return Ok(DeltaRelation::new(self.query.name.clone()));
        }
        // Small indexes over the Δ rows, shared by every seed position.
        let mut delta_indexes: Vec<(usize, Arc<HashIndex>)> = Vec::new();
        let mut state = State::new(self.num_slots, self.query.atoms.len(), stats);
        let mut keys: Vec<Value> = Vec::new();
        let mut emit = |regs: &[Value], row: Option<&Tuple>, count: i64| {
            rows.push((self.project(regs, row), count))
        };
        for (i, steps) in self.seeded.iter().enumerate() {
            let (Some(steps), Some(seed_delta)) = (steps, atom_delta[i]) else {
                continue;
            };
            // The seed step iterates the Δ rows itself; the rest of the order
            // joins against tables, positions before the seed through the
            // overlay that makes them read the post-update state.
            let (seed, rest) = steps.split_first().expect("a seeded order has its seed");
            let sources: Vec<Source> = rest
                .iter()
                .map(|step| {
                    let overlay = atom_delta[step.atom].filter(|_| step.atom < i);
                    let mut source = Source::new(step, tables[step.atom], overlay);
                    if let (Some(delta), true) = (overlay, source.index.is_some()) {
                        source.delta_index = Some(delta_index(&mut delta_indexes, step, delta));
                    }
                    source
                })
                .collect();
            let run = Run {
                steps: rest,
                sources: &sources,
            };
            state.cursors.fill(Cursor::default());
            keys.resize(key_space(rest), Value::Null);
            for (row, count) in seed_delta.iter() {
                state.stats.rows_probed += 1;
                if seed.key_matches(row, &state.regs) && seed.bind_row(row, &mut state.regs) {
                    let head_row = seed.binds_head.then_some(row);
                    run.descend(0, count, head_row, &mut keys, &mut state, &mut emit);
                }
            }
        }
        sort_and_sum(&mut rows);
        Ok(DeltaRelation::from_sorted(self.query.name.clone(), rows))
    }

    /// The head tuple of a binding: `row` itself when a step's row is
    /// exactly the head ([`Step::binds_head`]), which shares its
    /// allocation; otherwise one allocation, the slice iterator's exact
    /// length sizing the `Arc`.
    fn project(&self, regs: &[Value], row: Option<&Tuple>) -> Tuple {
        match row {
            // A Δ row is not schema-checked: only one of the head's arity
            // is the tuple the registers spell.
            Some(row) if row.arity() == self.head.len() => row.clone(),
            _ => Tuple::from_iter(self.head.iter().map(|&s| regs[s].clone())),
        }
    }

    /// The table behind every atom, arity-checked against the atom.
    fn resolve_tables<'a>(&self, db: &'a Database) -> RelResult<Vec<&'a Table>> {
        self.query
            .atoms
            .iter()
            .map(|atom| {
                let table = db.table(&atom.relation)?;
                if table.schema().arity() != atom.terms.len() {
                    return Err(RelError::InvalidQuery(format!(
                        "atom `{}` of `{}` has {} terms but the relation has arity {}",
                        atom.relation,
                        self.query.name,
                        atom.terms.len(),
                        table.schema().arity()
                    )));
                }
                Ok(table)
            })
            .collect()
    }
}

/// The join order for delta evaluation seeded at atom `seed`: the seed, then
/// greedily the atom the bindings so far determine best — a fully determined
/// one (a point lookup, or a negated atom's check) before a partially
/// determined one (an index probe) before an undetermined one (a scan);
/// written order breaks ties.  Following the written order instead would
/// scan whole tables whenever the atom after the seed shares no variable
/// with it.
fn seeded_order(atoms: &[QueryAtom], seed: usize) -> Vec<usize> {
    let mut bound: Vec<&str> = atoms[seed].variables();
    let mut order = vec![seed];
    let mut remaining: Vec<usize> = (0..atoms.len()).filter(|&j| j != seed).collect();
    while !remaining.is_empty() {
        let determined = |j: usize| {
            atoms[j]
                .terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(&v.as_str()),
                })
                .count()
        };
        let pick = remaining
            .iter()
            .position(|&j| determined(j) == atoms[j].terms.len())
            .or_else(|| {
                remaining
                    .iter()
                    .position(|&j| !atoms[j].negated && determined(j) > 0)
            })
            .or_else(|| remaining.iter().position(|&j| !atoms[j].negated))
            .expect("a negated atom is fully determined once the positive atoms ran");
        let next = remaining.remove(pick);
        for var in atoms[next].variables() {
            if !bound.contains(&var) {
                bound.push(var);
            }
        }
        order.push(next);
    }
    order
}

/// Compile the atoms in `order` into steps, attaching each filter to the
/// first step after which both of its slots are bound.
fn compile_order(
    atoms: &[QueryAtom],
    slots: &HashMap<&str, usize>,
    filters: &[(Cmp, usize, usize)],
    head: &[usize],
    order: &[usize],
) -> Vec<Step> {
    let mut bound = vec![false; slots.len()];
    let mut attached = vec![false; filters.len()];
    order
        .iter()
        .map(|&i| {
            let atom = &atoms[i];
            let mut step = Step {
                atom: i,
                negated: atom.negated,
                key_cols: Vec::new(),
                key_src: Vec::new(),
                bind: Vec::new(),
                check: Vec::new(),
                filters: Vec::new(),
                binds_head: false,
            };
            let mut bound_here: Vec<usize> = Vec::new();
            for (col, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(v) => {
                        step.key_cols.push(col);
                        step.key_src.push(Src::Const(v.clone()));
                    }
                    Term::Var(name) => {
                        let slot = slots[name.as_str()];
                        if bound[slot] {
                            step.key_cols.push(col);
                            step.key_src.push(Src::Slot(slot));
                        } else if bound_here.contains(&slot) {
                            step.check.push((col, slot));
                        } else {
                            bound_here.push(slot);
                            step.bind.push((col, slot));
                        }
                    }
                }
            }
            step.binds_head = step.bind.len() == atom.terms.len()
                && step
                    .bind
                    .iter()
                    .map(|&(_, slot)| slot)
                    .eq(head.iter().copied());
            for slot in bound_here {
                bound[slot] = true;
            }
            for (f, done) in filters.iter().zip(attached.iter_mut()) {
                if !*done && bound[f.1] && bound[f.2] {
                    *done = true;
                    step.filters.push(*f);
                }
            }
            step
        })
        .collect()
}

/// The value of `row` at `col`.  Deltas are not schema-checked on the way
/// in, so a row may be shorter than its relation's arity; a missing cell
/// reads as `Null`, which no well-formed key matches.
fn cell(row: &Tuple, col: usize) -> &Value {
    row.get(col).unwrap_or(&Value::Null)
}

impl Step {
    /// Whether `row` carries the step's key values (used where rows do not
    /// come out of an index on exactly the key columns).
    fn key_matches(&self, row: &Tuple, regs: &[Value]) -> bool {
        self.key_cols
            .iter()
            .zip(&self.key_src)
            .all(|(&col, src)| match src {
                Src::Const(v) => cell(row, col) == v,
                Src::Slot(s) => *cell(row, col) == regs[*s],
            })
    }

    /// Unify `row` with the step's unbound positions and apply the filters
    /// that became decidable; `false` prunes the row.
    fn bind_row(&self, row: &Tuple, regs: &mut [Value]) -> bool {
        for &(col, slot) in &self.bind {
            regs[slot] = cell(row, col).clone();
        }
        self.check
            .iter()
            .all(|&(col, slot)| *cell(row, col) == regs[slot])
            && self.filters_hold(regs)
    }

    fn filters_hold(&self, regs: &[Value]) -> bool {
        self.filters.iter().all(|&(cmp, a, b)| match cmp {
            Cmp::Ne => regs[a] != regs[b],
            Cmp::Eq => regs[a] == regs[b],
            Cmp::Lt => regs[a] < regs[b],
        })
    }

    /// Write the step's probe key into `key` (its `key_cols.len()` slots).
    fn fill_key(&self, regs: &[Value], key: &mut [Value]) {
        for (value, src) in key.iter_mut().zip(&self.key_src) {
            *value = match src {
                Src::Const(v) => v.clone(),
                Src::Slot(s) => regs[*s].clone(),
            };
        }
    }
}

/// What one step reads: a table, optionally overlaid with a delta, and the
/// indexes its partial key (if any) probes.
struct Source<'a> {
    table: &'a Table,
    overlay: Option<&'a DeltaRelation>,
    /// The table's index on the step's key columns (partial keys only).
    index: Option<Arc<HashIndex>>,
    /// The overlay's own index on the same columns.
    delta_index: Option<Arc<HashIndex>>,
}

impl<'a> Source<'a> {
    fn new(step: &Step, table: &'a Table, overlay: Option<&'a DeltaRelation>) -> Self {
        let partial = !step.key_cols.is_empty() && step.key_cols.len() < table.schema().arity();
        Source {
            table,
            overlay,
            index: partial.then(|| table.index(&step.key_cols)),
            delta_index: None,
        }
    }

    /// Net count of a row in the state this source stands for, the table
    /// searched from `cursor` on.
    fn count_at(&self, values: &[Value], cursor: &mut Cursor) -> i64 {
        self.table.count_at(values, cursor) + self.overlay.map_or(0, |d| d.count_of(values))
    }
}

/// Sort emitted rows by tuple and fold the counts of equal tuples — each
/// an alternative derivation — into one.  Joins over ordered tables mostly
/// emit in order already, which the sort detects.
fn sort_and_sum(rows: &mut Vec<(Tuple, i64)>) {
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    rows.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
}

/// The index over `delta`'s rows on `step`'s key columns, built once per
/// (atom position, delta evaluation).
fn delta_index(
    cache: &mut Vec<(usize, Arc<HashIndex>)>,
    step: &Step,
    delta: &DeltaRelation,
) -> Arc<HashIndex> {
    if let Some((_, index)) = cache
        .iter()
        .find(|(atom, index)| *atom == step.atom && index.cols() == step.key_cols)
    {
        return Arc::clone(index);
    }
    let index = Arc::new(HashIndex::build(
        &step.key_cols,
        delta.iter().map(|(row, _)| row),
    ));
    cache.push((step.atom, Arc::clone(&index)));
    index
}

/// The probe-key space of a join order: every step's key, in step order.
/// Each step fills its own slots, so a probe key outlives the rows its
/// probe yields while deeper steps probe with theirs.
fn key_space(steps: &[Step]) -> usize {
    steps.iter().map(|step| step.key_cols.len()).sum()
}

/// Mutable execution state: the register file, one table cursor per step,
/// and the work counters.
struct State<'s> {
    regs: Vec<Value>,
    /// `cursors[depth]`: where the step at `depth` last found a row.  A
    /// step's lookups follow its outer steps' rows, which a scan and a
    /// point lookup visit in tuple order, so they mostly arrive in tuple
    /// order too.
    cursors: Vec<Cursor>,
    stats: &'s mut ExecStats,
}

impl<'s> State<'s> {
    fn new(num_slots: usize, num_steps: usize, stats: &'s mut ExecStats) -> Self {
        State {
            regs: vec![Value::Null; num_slots],
            cursors: vec![Cursor::default(); num_steps],
            stats,
        }
    }
}

/// Called per full binding with the registers, the row that is the head
/// tuple if a step matched one, and the binding's derivation count.
type Emit<'e> = dyn FnMut(&[Value], Option<&Tuple>, i64) + 'e;

/// One join order bound to the sources its steps read.
struct Run<'a> {
    steps: &'a [Step],
    sources: &'a [Source<'a>],
}

impl Run<'_> {
    /// Extend the partial binding in `state.regs` (carrying `count`
    /// derivations, and `head_row` if an earlier step's row is the head
    /// tuple) through steps `depth..`, calling `emit` per full binding.
    /// `keys` is the key space of steps `depth..` (see [`key_space`]).
    fn descend(
        &self,
        depth: usize,
        count: i64,
        head_row: Option<&Tuple>,
        keys: &mut [Value],
        state: &mut State,
        emit: &mut Emit,
    ) {
        let Some(step) = self.steps.get(depth) else {
            emit(&state.regs, head_row, count);
            return;
        };
        let source = &self.sources[depth];
        let arity = source.table.schema().arity();
        let (key, deeper) = keys.split_at_mut(step.key_cols.len());

        if step.key_cols.len() == arity {
            // Every column is determined: a point lookup.
            step.fill_key(&state.regs, key);
            state.stats.rows_probed += 1;
            let present = source.count_at(key, &mut state.cursors[depth]);
            if step.negated {
                if present <= 0 {
                    self.descend(depth + 1, count, head_row, deeper, state, emit);
                }
            } else if present > 0 && step.filters_hold(&state.regs) {
                self.descend(depth + 1, count * present, head_row, deeper, state, emit);
            }
            return;
        }

        let mut visit = |row: &Tuple, present: i64, state: &mut State| {
            state.stats.rows_probed += 1;
            if present > 0 && step.bind_row(row, &mut state.regs) {
                let head_row = if step.binds_head { Some(row) } else { head_row };
                self.descend(depth + 1, count * present, head_row, deeper, state, emit);
            }
        };
        match &source.index {
            Some(index) => {
                // The key stays in this step's slots while its rows are
                // visited: deeper steps probe with theirs.
                step.fill_key(&state.regs, key);
                let key = &*key;
                for row in index.get(key) {
                    let present = source.count_at(row.values(), &mut state.cursors[depth]);
                    visit(row, present, state);
                }
                if let (Some(delta), Some(delta_index)) = (source.overlay, &source.delta_index) {
                    // Rows only the overlay knows; the rest came out of the
                    // base index above with the overlay's count added.
                    for row in delta_index.get(key) {
                        if source.table.count_of(row.values()) == 0 {
                            visit(row, delta.count_of(row.values()), state);
                        }
                    }
                }
            }
            None => {
                // No key at all (a fully determined key returned above).
                for (row, base) in source.table.iter_net_counted() {
                    let extra = source.overlay.map_or(0, |d| d.count_of(row.values()));
                    visit(row, base + extra, state);
                }
                if let Some(delta) = source.overlay {
                    for (row, extra) in delta.iter() {
                        if source.table.count_of(row.values()) == 0 {
                            visit(row, extra, state);
                        }
                    }
                }
            }
        }
    }
}
