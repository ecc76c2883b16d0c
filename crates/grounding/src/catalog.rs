//! The grounder's variable catalog: per-relation `tuple → variable` maps,
//! their inverse, and the per-variable usage counters.
//!
//! Relation names are interned once ([`RelName`]): a relation's catalog is
//! found by a dense [`RelSlot`] that rule templates resolve when they are
//! compiled, and probed by `&Tuple` — grounding a binding builds no key and
//! hashes no string.  The name itself travels only as the cheap handle
//! (variables' origins, [`VarKey`]s); it is a plain `String` again only at
//! the edges ([`VariableCatalog::iter`], [`VariableCatalog::take_delta`],
//! export).

use crate::grounder::{CatalogOp, VarUse};
use dd_factorgraph::{FactorGraph, RelName, VarId, Variable};
use dd_relstore::hash::RowMap;
use dd_relstore::Tuple;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Position of a variable relation in the catalog (dense, never reused).
pub(crate) type RelSlot = usize;

/// A variable's identity: its relation's handle and its tuple.  Orders by
/// relation *name* first, so ordered collections of keys iterate exactly as
/// `(String, Tuple)` pairs would.
pub(crate) type VarKey = (RelName, Tuple);

/// Everything the grounder keeps per variable relation.
#[derive(Debug)]
pub(crate) struct RelationCatalog {
    /// The name as the edges see it.
    name: String,
    /// The interned handle new variables and [`VarKey`]s share.
    pub handle: RelName,
    /// Tuple → variable id, under the row hash.
    pub vars: RowMap<Tuple, VarId>,
    /// Catalog ops recorded since the last [`VariableCatalog::take_delta`]
    /// drain — the dirty-set a sharded snapshot publish consumes to re-index
    /// only the relations that actually changed.
    pub fresh: Vec<CatalogOp>,
    /// Heads whose supervision labels are suppressed (sticky): existing
    /// labels were un-pinned and future labels are recorded but not applied.
    pub suppressed: BTreeSet<Tuple>,
    /// Every tuple whose variable is some grounding's head (`head_refs >
    /// 0`) is present in the relation's table, so grounding one more
    /// binding onto such a head need not insert it again.  Holds while
    /// only grounding removes the table's rows (at the last head
    /// reference); cleared for good once anything else may have — an
    /// update's deletions, direct database access, a restore from state —
    /// after which every grounding inserts its head if absent.
    pub heads_in_table: bool,
}

impl RelationCatalog {
    /// Get or create the random variable for `tuple`, entering a new one
    /// into the graph, the map, its inverse, the usage counters and the
    /// publish dirty-set.  The tuple is hashed once either way.
    pub fn var_for(
        &mut self,
        tuple: &Tuple,
        vars: &mut VarTable,
        graph: &mut FactorGraph,
    ) -> VarId {
        let slot = match self.vars.entry(tuple.clone()) {
            Entry::Occupied(known) => return *known.get(),
            Entry::Vacant(slot) => slot,
        };
        let origin_key = vars.next_key;
        vars.next_key += 1;
        let id =
            graph.add_variable(Variable::query(0).with_origin(self.handle.clone(), origin_key));
        debug_assert_eq!(id, vars.keys.len(), "variables are appended densely");
        self.fresh.push(CatalogOp::Upsert(tuple.clone(), id));
        vars.keys.push((self.handle.clone(), tuple.clone()));
        vars.usage.push(VarUse::default());
        slot.insert(id);
        id
    }
}

/// The catalog's inverse and the per-variable counters: vectors parallel to
/// the graph's variables, compacted by the same `swap_remove` moves.
#[derive(Debug, Default)]
pub(crate) struct VarTable {
    /// variable id → key.
    pub keys: Vec<VarKey>,
    /// variable id → reference/label counters.
    pub usage: Vec<VarUse>,
    /// Monotonic origin-key counter for new variables.  Never reused after a
    /// removal, so `(relation, key)` origins stay unique for the graph's
    /// lifetime (a catalog-length counter would collide after shrinkage).
    pub next_key: u64,
}

/// All variable relations' catalogs plus the id-indexed side of them.
#[derive(Debug, Default)]
pub(crate) struct VariableCatalog {
    relations: Vec<RelationCatalog>,
    /// Name → slot, probed by `&str`.
    slots: RowMap<RelName, RelSlot>,
    pub vars: VarTable,
}

impl VariableCatalog {
    /// Rebuild the catalog from exported state: `(relation, tuple, variable)`
    /// entries, undrained ops per relation, suppressed heads and the
    /// origin-key counter, over a graph of `num_variables` variables.  The
    /// usage counters start at zero (the grounder recomputes them from its
    /// records).
    pub fn restore(
        entries: Vec<(String, Tuple, VarId)>,
        ops: Vec<(String, Vec<CatalogOp>)>,
        suppressed: Vec<(String, Tuple)>,
        next_key: u64,
        num_variables: usize,
    ) -> Self {
        let mut catalog = VariableCatalog::default();
        let unkeyed: VarKey = (RelName::from(""), Tuple::new(Vec::new()));
        catalog.vars = VarTable {
            keys: vec![unkeyed; num_variables],
            usage: vec![VarUse::default(); num_variables],
            next_key,
        };
        for (relation, tuple, var) in entries {
            let slot = catalog.intern(&relation);
            let relation = &mut catalog.relations[slot];
            if let Some(key) = catalog.vars.keys.get_mut(var) {
                *key = (relation.handle.clone(), tuple.clone());
            }
            relation.vars.insert(tuple, var);
        }
        for (relation, fresh) in ops {
            let slot = catalog.intern(&relation);
            catalog.relations[slot].fresh = fresh;
        }
        for (relation, tuple) in suppressed {
            let slot = catalog.intern(&relation);
            catalog.relations[slot].suppressed.insert(tuple);
        }
        catalog
    }

    /// The slot of `relation`, if it has one.
    pub fn slot(&self, relation: &str) -> Option<RelSlot> {
        self.slots.get(relation).copied()
    }

    /// The slot of `relation`, created (empty) on first use.
    pub fn intern(&mut self, relation: &str) -> RelSlot {
        if let Some(slot) = self.slot(relation) {
            return slot;
        }
        let slot = self.relations.len();
        let handle: RelName = RelName::from(relation);
        self.relations.push(RelationCatalog {
            name: relation.to_string(),
            handle: handle.clone(),
            vars: RowMap::default(),
            fresh: Vec::new(),
            suppressed: BTreeSet::new(),
            heads_in_table: true,
        });
        self.slots.insert(handle, slot);
        slot
    }

    pub fn relation(&self, slot: RelSlot) -> &RelationCatalog {
        &self.relations[slot]
    }

    /// One relation's catalog together with the id-indexed tables, which a
    /// new variable has to enter too.
    pub fn relation_and_vars(&mut self, slot: RelSlot) -> (&mut RelationCatalog, &mut VarTable) {
        (&mut self.relations[slot], &mut self.vars)
    }

    /// Clear [`RelationCatalog::heads_in_table`] of `relation`, or of every
    /// relation when `None`: rows may have left its table behind
    /// grounding's back.
    pub fn heads_maybe_removed(&mut self, relation: Option<&str>) {
        match relation {
            Some(name) => {
                if let Some(slot) = self.slot(name) {
                    self.relations[slot].heads_in_table = false;
                }
            }
            None => {
                for relation in &mut self.relations {
                    relation.heads_in_table = false;
                }
            }
        }
    }

    /// The catalog of `relation`, if any variable relation has that name.
    pub fn by_name(&self, relation: &str) -> Option<&RelationCatalog> {
        self.slot(relation).map(|slot| &self.relations[slot])
    }

    /// Variable id of a tuple, if it has one.
    pub fn get(&self, relation: &str, tuple: &Tuple) -> Option<VarId> {
        self.by_name(relation)?.vars.get(tuple).copied()
    }

    /// Variable id of a [`VarKey`], if it is (still) catalogued.
    pub fn get_key(&self, key: &VarKey) -> Option<VarId> {
        self.get(&key.0, &key.1)
    }

    /// Number of catalogued variables.
    pub fn len(&self) -> usize {
        self.relations.iter().map(|r| r.vars.len()).sum()
    }

    /// Every `((relation, tuple), variable)` entry, relation by relation.
    pub fn iter(&self) -> impl Iterator<Item = ((&String, &Tuple), &VarId)> {
        self.relations.iter().flat_map(|r| {
            r.vars
                .iter()
                .map(move |(tuple, var)| ((&r.name, tuple), var))
        })
    }

    /// True if supervision labels on this head are suppressed.
    pub fn is_suppressed(&self, relation: &str, tuple: &Tuple) -> bool {
        self.by_name(relation)
            .is_some_and(|r| r.suppressed.contains(tuple))
    }

    /// Suppressed heads as sorted `(relation, tuple)` pairs.
    pub fn suppressed(&self) -> Vec<(&str, &Tuple)> {
        let mut out: Vec<(&str, &Tuple)> = self
            .relations
            .iter()
            .flat_map(|r| r.suppressed.iter().map(|t| (r.name.as_str(), t)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Pending catalog ops per relation, sorted by relation, without
    /// draining them.
    pub fn pending_ops(&self) -> Vec<(&str, &[CatalogOp])> {
        let mut out: Vec<(&str, &[CatalogOp])> = self
            .relations
            .iter()
            .filter(|r| !r.fresh.is_empty())
            .map(|r| (r.name.as_str(), r.fresh.as_slice()))
            .collect();
        out.sort_unstable_by_key(|&(relation, _)| relation);
        out
    }

    /// Drain the pending catalog ops, grouped by relation in sorted order.
    pub fn take_delta(&mut self) -> BTreeMap<String, Vec<CatalogOp>> {
        self.relations
            .iter_mut()
            .filter(|r| !r.fresh.is_empty())
            .map(|r| (r.name.clone(), std::mem::take(&mut r.fresh)))
            .collect()
    }

    /// Remove one unreferenced variable from the graph, the catalog and its
    /// inverse, patching the entry of the variable `swap_remove` moved into
    /// the freed id and recording both catalog ops.  Returns the removed id;
    /// `None` if the key is not catalogued.
    pub fn remove(&mut self, key: &VarKey, graph: &mut FactorGraph) -> Option<VarId> {
        let slot = self.slot(&key.0)?;
        let relation = &mut self.relations[slot];
        let vid = relation.vars.remove(&key.1)?;
        relation.fresh.push(CatalogOp::Remove(key.1.clone()));
        let moved = graph.remove_variable(vid);
        self.vars.keys.swap_remove(vid);
        self.vars.usage.swap_remove(vid);
        if moved.is_some() {
            // The variable formerly last now lives at `vid`.
            let (moved_relation, moved_tuple) = &self.vars.keys[vid];
            let relation = &mut self.relations[self.slots[&**moved_relation]];
            if let Some(id) = relation.vars.get_mut(moved_tuple) {
                *id = vid;
            }
            relation
                .fresh
                .push(CatalogOp::Upsert(moved_tuple.clone(), vid));
        }
        Some(vid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::tuple;

    /// A catalog over relations `A` and `B` with variables
    /// `A(0)=0, B(0)=1, A(1)=2, B(1)=3` and the graph that holds them.
    fn two_relations() -> (VariableCatalog, FactorGraph) {
        let mut catalog = VariableCatalog::default();
        let mut graph = FactorGraph::new();
        let (a, b) = (catalog.intern("A"), catalog.intern("B"));
        for (slot, n) in [(a, 0i64), (b, 0), (a, 1), (b, 1)] {
            let (relation, vars) = catalog.relation_and_vars(slot);
            relation.var_for(&tuple![n], vars, &mut graph);
        }
        (catalog, graph)
    }

    #[test]
    fn interning_is_idempotent_and_handles_are_shared() {
        let (mut catalog, graph) = two_relations();
        assert_eq!(catalog.intern("A"), catalog.slot("A").unwrap());
        assert_eq!(catalog.slot("Nowhere"), None);
        assert_eq!(catalog.len(), 4);
        assert_eq!(catalog.get("B", &tuple![1i64]), Some(3));
        assert_eq!(catalog.get("B", &tuple![2i64]), None);
        assert_eq!(catalog.get("Nowhere", &tuple![0i64]), None);
        // Every variable of a relation, its key and the catalog share one
        // interned name; origin keys count up across relations.
        let handle = &catalog.by_name("A").unwrap().handle;
        assert!(RelName::ptr_eq(handle, &graph.variable(0).relation));
        assert!(RelName::ptr_eq(handle, &graph.variable(2).relation));
        assert!(RelName::ptr_eq(handle, &catalog.vars.keys[2].0));
        assert_eq!(graph.variable(3).key, 3);
        assert_eq!(catalog.vars.next_key, 4);
        // A second request for a catalogued tuple creates nothing.
        let slot = catalog.slot("A").unwrap();
        let mut graph = graph;
        let (relation, vars) = catalog.relation_and_vars(slot);
        assert_eq!(relation.var_for(&tuple![1i64], vars, &mut graph), 2);
        assert_eq!(graph.num_variables(), 4);
    }

    #[test]
    fn removal_patches_the_variable_swap_remove_moved() {
        let (mut catalog, mut graph) = two_relations();
        catalog.take_delta();
        catalog.vars.usage[3].refs = 7; // travels with its variable

        // Removing A(0) (id 0) moves B(1) (id 3, the last) into id 0.
        let a0: VarKey = (catalog.by_name("A").unwrap().handle.clone(), tuple![0i64]);
        assert_eq!(catalog.remove(&a0, &mut graph), Some(0));
        assert_eq!(catalog.get("A", &tuple![0i64]), None);
        assert_eq!(catalog.get("B", &tuple![1i64]), Some(0));
        assert_eq!(graph.variable(0).id, 0);
        assert_eq!(&*graph.variable(0).relation, "B");
        assert_eq!(catalog.vars.keys.len(), 3);
        assert_eq!(&*catalog.vars.keys[0].0, "B");
        assert_eq!(catalog.vars.keys[0].1, tuple![1i64]);
        assert_eq!(catalog.vars.usage[0].refs, 7);
        // Both relations are dirty: A lost a tuple, B had one re-pointed.
        let delta = catalog.take_delta();
        assert_eq!(delta["A"], vec![CatalogOp::Remove(tuple![0i64])]);
        assert_eq!(delta["B"], vec![CatalogOp::Upsert(tuple![1i64], 0)]);

        // Removing the last variable moves nothing; an unknown key is a no-op.
        let a1: VarKey = (a0.0.clone(), tuple![1i64]);
        assert_eq!(catalog.remove(&a1, &mut graph), Some(2));
        assert_eq!(catalog.take_delta().len(), 1);
        assert_eq!(catalog.remove(&a1, &mut graph), None);
        assert_eq!(catalog.len(), 2);
        assert_eq!(graph.num_variables(), 2);
        // Origin keys are never reused after a removal.
        let (relation, vars) = catalog.relation_and_vars(catalog.slot("A").unwrap());
        let again = relation.var_for(&tuple![0i64], vars, &mut graph);
        assert_eq!(graph.variable(again).key, 4);
    }

    #[test]
    fn suppressed_heads_are_per_relation_and_export_sorted() {
        let (mut catalog, _graph) = two_relations();
        for (relation, n) in [("B", 5i64), ("A", 9), ("B", 1)] {
            let slot = catalog.intern(relation);
            let (relation, _) = catalog.relation_and_vars(slot);
            relation.suppressed.insert(tuple![n]);
        }
        assert!(catalog.is_suppressed("A", &tuple![9i64]));
        assert!(!catalog.is_suppressed("B", &tuple![9i64]));
        assert!(!catalog.is_suppressed("Nowhere", &tuple![9i64]));
        assert_eq!(
            catalog.suppressed(),
            vec![
                ("A", &tuple![9i64]),
                ("B", &tuple![1i64]),
                ("B", &tuple![5i64]),
            ]
        );
    }

    #[test]
    fn restore_round_trips_entries_ops_and_suppression() {
        let (mut catalog, graph) = two_relations();
        let slot = catalog.intern("B");
        let (relation, _) = catalog.relation_and_vars(slot);
        relation.suppressed.insert(tuple![1i64]);
        let mut entries: Vec<(String, Tuple, VarId)> = catalog
            .iter()
            .map(|((r, t), &v)| (r.clone(), t.clone(), v))
            .collect();
        entries.sort();
        let restored = VariableCatalog::restore(
            entries.clone(),
            catalog
                .pending_ops()
                .into_iter()
                .map(|(r, ops)| (r.to_string(), ops.to_vec()))
                .collect(),
            catalog
                .suppressed()
                .into_iter()
                .map(|(r, t)| (r.to_string(), t.clone()))
                .collect(),
            catalog.vars.next_key,
            graph.num_variables(),
        );
        let mut again: Vec<(String, Tuple, VarId)> = restored
            .iter()
            .map(|((r, t), &v)| (r.clone(), t.clone(), v))
            .collect();
        again.sort();
        assert_eq!(again, entries);
        assert_eq!(restored.vars.keys, catalog.vars.keys);
        assert_eq!(restored.pending_ops(), catalog.pending_ops());
        assert_eq!(restored.suppressed(), catalog.suppressed());
        assert_eq!(restored.vars.next_key, 4);
    }
}
