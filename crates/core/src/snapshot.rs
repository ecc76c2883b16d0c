//! Lock-free read snapshots for online serving, with a sharded variable
//! catalog so publishing an epoch costs O(Δ), not O(catalog).
//!
//! The paper's system is an *online* KBC service: analysts and applications
//! query the current knowledge base continuously while incremental updates land
//! (§1, §3.3).  A [`Snapshot`] is the read half of that split — an immutable,
//! `Send + Sync` view bundling the marginals, the learned weights, the
//! `(relation, tuple) → variable` catalog, the graph statistics, and an epoch
//! number.  [`crate::DeepDive::initial_run`] and [`crate::DeepDive::run_update`]
//! publish a fresh snapshot atomically (a pointer swap under a briefly-held
//! write lock); readers hold `Arc<Snapshot>` handles, so every query they run
//! touches no lock at all and always observes one consistent epoch — the same
//! snapshot-isolation structure HTAP designs use to let analytical readers run
//! against a stable version while the update path proceeds.
//!
//! # Catalog sharding
//!
//! The catalog is a [`CatalogShards`]: one [`CatalogShard`] per variable
//! relation, each holding an `Arc<RelationIndex>` (a tuple-sorted vector,
//! binary-searched for point lookups) plus the epoch that last re-indexed it.
//! Publishing after an update re-indexes *only the shards whose relations
//! gained variables* — a sorted merge of the Δ entries into the old index —
//! while every untouched shard is shared by `Arc` clone with the previous
//! epoch's snapshot.  A ten-tuple update against a million-tuple catalog
//! therefore pays a ten-entry merge, not a million-entry rebuild; that
//! incremental-maintenance asymmetry is exactly what the paper's Δ-grounding
//! is designed to preserve end to end.
//!
//! # Probability-ordered read indexes
//!
//! Next to its tuple-sorted index every shard carries a [`RankedIndex`]: the
//! same entries with the publish-time marginal baked in, sorted by
//! `(probability desc, tuple asc)` — the exact comparator [`FactQuery`] uses
//! for `top_k`.  Threshold (`min_probability`) and `top_k` queries answer
//! from an ordered *prefix* of this view (a `partition_point` cut) instead of
//! scanning the relation's full marginal set per request; pure-pagination
//! queries keep using the tuple-sorted index.
//!
//! The ranked view is derived state with one maintainer, `Snapshot::publish`
//! ([`CatalogShards::refresh_ranked`]).  [`CatalogShards::apply_delta`]
//! Δ-merges only a touched shard's tuple-sorted index and resets its ranked
//! view to empty; the publish then keeps a ranked `Arc` only where the
//! shard's index is unchanged and every baked probability is bit-equal to
//! the new marginal, and re-ranks every other shard with one sort.  So a
//! shard untouched in catalog *and* marginals shares both views with the
//! previous epoch, while a Δ-touched shard, one whose marginals moved, or
//! one decoded from a checkpoint is ranked afresh.  The check is an
//! O(catalog) bitwise compare piggybacking on the publish's existing
//! O(#variables) marginal passes; the tuple-sorted catalog work stays O(Δ).
//! The indexed path is byte-identical to the scan path
//! ([`FactQuery::run_scan`]) — proven per-op by the `tests/indexes.rs`
//! differential oracle.
//!
//! Shards are kept sorted by relation name, which makes every catalog
//! enumeration ([`Snapshot::relation_names`], [`Snapshot::all_facts`])
//! deterministic across processes — no `HashMap` iteration order leaks into
//! served results.
//!
//! ```
//! use deepdive::{DeepDive, EngineConfig};
//! use dd_grounding::standard_udfs;
//! use dd_relstore::{tuple, Database, DataType, Schema};
//!
//! let mut db = Database::new();
//! db.create_table("Claim", Schema::of(&[("id", DataType::Int)])).unwrap();
//! db.create_table("Label", Schema::of(&[("id", DataType::Int)])).unwrap();
//! db.insert_all("Claim", vec![tuple![1i64], tuple![2i64]]).unwrap();
//! db.insert_all("Label", vec![tuple![1i64]]).unwrap();
//!
//! let mut dd = DeepDive::builder()
//!     .program_text(r#"
//!         relation Claim(id: int) base.
//!         relation Label(id: int) base.
//!         relation Fact(id: int) variable.
//!         rule F feature: Fact(id) :- Claim(id) weight = 1.5.
//!         rule S supervision+: Fact(id) :- Claim(id), Label(id).
//!     "#)
//!     .database(db)
//!     .config(EngineConfig::fast())
//!     .build()
//!     .unwrap();
//! dd.initial_run().unwrap();
//!
//! // A snapshot is a cheap Arc clone; hand it to any number of threads.
//! let snap = dd.snapshot();
//! assert_eq!(snap.epoch(), 1);
//! assert_eq!(snap.probability_of("Fact", &tuple![1i64]), Some(1.0));
//! let top = snap.facts("Fact").min_probability(0.5).top_k(1).run();
//! assert_eq!(top[0].0, tuple![1i64]);
//! // Relation enumeration is sorted, hence deterministic across processes.
//! assert_eq!(snap.relation_names(), vec!["Fact"]);
//! ```

use crate::quality::{evaluate_quality, QualityReport};
use dd_factorgraph::GraphStats;
use dd_inference::Marginals;
use dd_relstore::Tuple;
use std::collections::HashSet;
use std::sync::{Arc, RwLock};

/// One relation's slice of the variable catalog, pre-indexed for serving: a
/// single tuple-sorted vector, so scans are pre-ordered (un-ranked queries
/// never sort) and point lookups are allocation-free binary searches.
///
/// Instances are immutable and shared by `Arc` across epochs (see
/// [`CatalogShards`]); growth produces a *new* index by sorted Δ-merge
/// instead of mutating the published one.
#[derive(Debug, Default)]
pub struct RelationIndex {
    sorted: Vec<(Tuple, usize)>,
}

impl RelationIndex {
    /// Build an index from unordered `(tuple, variable)` entries.
    pub(crate) fn from_entries(mut entries: Vec<(Tuple, usize)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        RelationIndex { sorted: entries }
    }

    /// A new index with a signed delta — tuple-sorted, one change per
    /// tuple — merged in: `Some(var)` upserts the tuple's mapping
    /// (replacing one already present), `None` removes it (retraction).  A
    /// single O(existing + Δ) merge of two sorted runs — the incremental
    /// re-index path of a sharded publish, which touches only the changed
    /// shard.
    pub(crate) fn merged_with_changes(&self, delta: &[(Tuple, Option<usize>)]) -> Self {
        let mut merged = Vec::with_capacity(self.sorted.len() + delta.len());
        let mut old = self.sorted.iter().peekable();
        for (tuple, change) in delta {
            while let Some(kept) = old.next_if(|(t, _)| t < tuple) {
                merged.push(kept.clone());
            }
            // The old mapping of a changed tuple is replaced or dropped.
            old.next_if(|(t, _)| t == tuple);
            merged.extend(change.map(|var| (tuple.clone(), var)));
        }
        merged.extend(old.cloned());
        RelationIndex { sorted: merged }
    }

    /// Number of catalogued tuples in this relation.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the relation has no catalogued tuples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Variable id of `tuple`, if catalogued.
    pub fn get(&self, tuple: &Tuple) -> Option<usize> {
        self.sorted
            .binary_search_by(|(t, _)| t.cmp(tuple))
            .ok()
            .map(|i| self.sorted[i].1)
    }

    /// The tuple-sorted `(tuple, variable)` entries.
    pub(crate) fn entries(&self) -> &[(Tuple, usize)] {
        &self.sorted
    }
}

/// One relation's probability-ordered serving view: the shard's `(tuple,
/// variable)` entries with the publish-time marginal baked in, sorted by
/// `(probability desc, tuple asc)`.  Threshold and top-k queries answer from
/// a prefix of this vector (`partition_point` on the probability) instead of
/// scanning and re-sorting the relation per request.
///
/// Entries whose variable id is out of range for the marginal vector are
/// excluded — the scan path skips them too, so the two paths agree on every
/// query shape.  Like [`RelationIndex`], instances are immutable and shared
/// by `Arc` across epochs; a publish whose shard changed in catalog or in
/// marginals builds a *new* one ([`CatalogShards::refresh_ranked`]).
#[derive(Debug, Default)]
pub struct RankedIndex {
    /// `(probability, tuple, variable)`, probability descending, ties by
    /// tuple ascending.
    sorted: Vec<(f64, Tuple, usize)>,
}

impl RankedIndex {
    /// Rank a relation's tuple-sorted entries against a marginal vector: one
    /// O(m log m) sort into `(probability desc, tuple asc)` order —
    /// byte-for-byte the order `FactQuery::top_k` has always served, so a
    /// prefix is exactly what the scan path would have sorted out.  The sort
    /// is stable and on the probability alone, so equal probabilities keep
    /// their tuple order and no tuple is compared.
    fn build(entries: &[(Tuple, usize)], marginals: &Marginals) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut sorted: Vec<(f64, Tuple, usize)> = entries
            .iter()
            .filter(|(_, var)| *var < marginals.len())
            .map(|(tuple, var)| (marginals.get(*var), tuple.clone(), *var))
            .collect();
        sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        RankedIndex { sorted }
    }

    /// True when this ranked view, built from `index` at an earlier
    /// publish, is still the ranking of `index` under `marginals`: same
    /// in-range entry count and every baked probability bitwise equal to
    /// the variable's current marginal.  O(m), no sort — the check
    /// [`CatalogShards::refresh_ranked`] runs per publish.
    ///
    /// It reads the variable ids baked into the entries, not `index`'s
    /// current mapping, so it is only sound for a view of the *same* index:
    /// a same-length delete + insert with equal probabilities would pass.
    /// That is why [`CatalogShards::apply_delta`] resets a touched shard's
    /// view to empty, which fails the count unless the shard ranks nothing.
    fn is_consistent(&self, index: &RelationIndex, marginals: &Marginals) -> bool {
        let in_range = index
            .entries()
            .iter()
            .filter(|(_, var)| *var < marginals.len())
            .count();
        self.sorted.len() == in_range
            && self.sorted.iter().all(|(p, _, var)| {
                *var < marginals.len() && marginals.get(*var).to_bits() == p.to_bits()
            })
    }

    /// Number of ranked entries (equals the relation's in-range catalog size).
    pub(crate) fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The ranked `(probability, tuple, variable)` entries, probability
    /// descending with ties broken by tuple ascending.
    pub fn entries(&self) -> &[(f64, Tuple, usize)] {
        &self.sorted
    }

    /// Index of the first entry below `min_probability` — the prefix
    /// `[0, cut)` is exactly the facts a threshold scan would keep.
    /// O(log m).
    pub(crate) fn threshold_cut(&self, min_probability: f64) -> usize {
        self.sorted
            .partition_point(|(p, _, _)| *p >= min_probability)
    }
}

/// One relation's shard of the catalog: its tuple-sorted serving index, the
/// epoch that last re-indexed it, and its probability-ordered
/// [`RankedIndex`].  Both views are behind `Arc`s, so consecutive epochs
/// whose updates touched neither this relation's catalog nor its marginals
/// share them pointer-identically.
#[derive(Debug, Clone)]
pub struct CatalogShard {
    relation: String,
    generation: u64,
    index: Arc<RelationIndex>,
    ranked: Arc<RankedIndex>,
}

impl CatalogShard {
    /// The relation this shard indexes.
    pub(crate) fn relation(&self) -> &str {
        &self.relation
    }

    /// Epoch whose publish last re-indexed this shard.  Comparing generations
    /// across snapshots shows which relations an epoch actually re-indexed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shared serving index.  Callers may `Arc::ptr_eq` indexes from two
    /// epochs to verify (or rely on) structural sharing.
    pub fn index(&self) -> &Arc<RelationIndex> {
        &self.index
    }

    /// The shared probability-ordered view.  `Arc::ptr_eq`-comparable across
    /// epochs exactly like [`CatalogShard::index`].
    pub fn ranked(&self) -> &Arc<RankedIndex> {
        &self.ranked
    }

    /// Rebuild a shard from its persisted parts (checkpoint codec access).
    /// Only the tuple-sorted entries are persisted; the ranked view is
    /// derived, so it starts empty here and [`Snapshot::publish`] ranks it
    /// when the decoded snapshot is published.
    pub(crate) fn from_parts(
        relation: String,
        generation: u64,
        entries: Vec<(Tuple, usize)>,
    ) -> Self {
        CatalogShard {
            relation,
            generation,
            index: Arc::new(RelationIndex::from_entries(entries)),
            ranked: Arc::default(),
        }
    }
}

/// The epoch-versioned, per-relation sharded variable catalog.
///
/// Shards are kept sorted by relation name, so enumeration order is
/// deterministic.  Cloning is O(#relations) `Arc` clones — this is what the
/// engine pays per publish for the untouched part of the catalog, regardless
/// of how many tuples those shards hold.
#[derive(Debug, Clone, Default)]
pub struct CatalogShards {
    /// Sorted by relation name.
    shards: Vec<CatalogShard>,
}

/// The `(relation, tuple)` key of a catalog entry handed to
/// [`CatalogShards::build`]: a pair behind one reference (a map's own key)
/// or a pair of references (the grounder's per-relation catalog, which
/// stores no such pair).
pub trait CatalogKey<'a> {
    fn parts(self) -> (&'a str, &'a Tuple);
}

impl<'a> CatalogKey<'a> for &'a (String, Tuple) {
    fn parts(self) -> (&'a str, &'a Tuple) {
        (&self.0, &self.1)
    }
}

impl<'a> CatalogKey<'a> for (&'a String, &'a Tuple) {
    fn parts(self) -> (&'a str, &'a Tuple) {
        (self.0, self.1)
    }
}

impl CatalogShards {
    /// An empty catalog (the epoch-0 state).
    pub fn new() -> Self {
        CatalogShards::default()
    }

    /// Build every shard from a full `(relation, tuple) → variable` catalog
    /// scan.  This is the O(n) full-rebuild path the sharded publish replaces;
    /// it remains the baseline leg of the `publish_cost` benchmark series and
    /// the constructor of choice when no previous epoch exists.
    pub fn build<'a, K: CatalogKey<'a>>(
        entries: impl Iterator<Item = (K, &'a usize)>,
        generation: u64,
    ) -> Self {
        let mut per_relation: std::collections::BTreeMap<&'a str, Vec<(Tuple, usize)>> =
            std::collections::BTreeMap::new();
        for (key, &var) in entries {
            let (relation, tuple) = key.parts();
            per_relation
                .entry(relation)
                .or_default()
                .push((tuple.clone(), var));
        }
        CatalogShards {
            shards: per_relation
                .into_iter()
                .map(|(relation, entries)| {
                    let index = RelationIndex::from_entries(entries);
                    CatalogShard {
                        relation: relation.to_string(),
                        generation,
                        index: Arc::new(index),
                        ranked: Arc::default(),
                    }
                })
                .collect(),
        }
    }

    /// Apply a signed catalog delta for one relation: `Some(var)` upserts a
    /// tuple's mapping, `None` removes it.  `changes` is tuple-sorted with
    /// one change per tuple — an op-log netted by
    /// [`dd_grounding::CatalogOp::net`].  The touched shard's tuple-sorted
    /// index is replaced by a Δ-merged one stamped `generation` and its
    /// ranked view is reset to empty, for the next publish to rank: the
    /// publish-time check reads the variable ids baked into a ranked view,
    /// so a kept view could pass a same-length swap with bit-equal
    /// probabilities and keep serving the deleted tuple.  Every other shard
    /// stays `Arc`-shared with previously published epochs.  Cost:
    /// O(|shard| + |Δ|) for the touched shard only; a new shard's index is
    /// the delta itself, not sorted again.
    pub fn apply_delta(
        &mut self,
        relation: &str,
        changes: Vec<(Tuple, Option<usize>)>,
        generation: u64,
    ) {
        debug_assert!(
            changes.windows(2).all(|w| w[0].0 < w[1].0),
            "catalog changes must be tuple-sorted and distinct"
        );
        if changes.is_empty() {
            return;
        }
        match self
            .shards
            .binary_search_by(|s| s.relation.as_str().cmp(relation))
        {
            Ok(i) => {
                let shard = &mut self.shards[i];
                shard.index = Arc::new(shard.index.merged_with_changes(&changes));
                shard.ranked = Arc::default();
                shard.generation = generation;
            }
            Err(i) => {
                let sorted: Vec<(Tuple, usize)> = changes
                    .into_iter()
                    .filter_map(|(t, change)| change.map(|var| (t, var)))
                    .collect();
                if sorted.is_empty() {
                    return;
                }
                self.shards.insert(
                    i,
                    CatalogShard {
                        relation: relation.to_string(),
                        generation,
                        index: Arc::new(RelationIndex { sorted }),
                        ranked: Arc::default(),
                    },
                );
            }
        }
    }

    /// Bring every shard's ranked view in line with `marginals`.
    ///
    /// Each shard gets an O(m) bitwise check (`RankedIndex::is_consistent`,
    /// no sort): a shard whose index is unchanged and whose marginals are
    /// bit-stable since its last ranking keeps its `Arc`, preserving
    /// cross-epoch sharing.  Every other shard — Δ-touched (its view was
    /// reset), marginals moved, or decoded from a checkpoint — is re-ranked
    /// with one O(m log m) sort.  `Snapshot::publish` calls this once per
    /// publish, so a published snapshot's ranked views are consistent by
    /// construction.
    pub fn refresh_ranked(&mut self, marginals: &Marginals) {
        for shard in &mut self.shards {
            if !shard.ranked.is_consistent(&shard.index, marginals) {
                shard.ranked = Arc::new(RankedIndex::build(shard.index.entries(), marginals));
            }
        }
    }

    /// The shard of `relation`, if any (binary search by name).
    pub fn shard(&self, relation: &str) -> Option<&CatalogShard> {
        self.shards
            .binary_search_by(|s| s.relation.as_str().cmp(relation))
            .ok()
            .map(|i| &self.shards[i])
    }

    /// All shards, sorted by relation name.
    pub(crate) fn shards(&self) -> &[CatalogShard] {
        &self.shards
    }

    /// Relation names in sorted (deterministic) order.
    pub(crate) fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.shards.iter().map(|s| s.relation.as_str())
    }

    /// Total number of `(relation, tuple)` entries across all shards.
    pub fn num_entries(&self) -> usize {
        self.shards.iter().map(|s| s.index.len()).sum()
    }

    /// Rebuild a catalog from persisted shards (checkpoint codec access).
    /// Shards are re-sorted by relation name to restore the lookup invariant.
    pub(crate) fn from_shards(mut shards: Vec<CatalogShard>) -> Self {
        shards.sort_by(|a, b| a.relation.cmp(&b.relation));
        CatalogShards { shards }
    }
}

/// An immutable, shareable view of the knowledge base at one epoch.
///
/// All read APIs of the engine live here; [`crate::DeepDive`]'s read methods
/// are thin wrappers over its current snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    marginals: Marginals,
    weights: Vec<f64>,
    /// Per-relation sharded variable catalog, frozen at publish time.  Shards
    /// whose relations did not grow in this epoch are `Arc`-shared with the
    /// previous epoch's snapshot (see [`CatalogShards`]).
    catalog: CatalogShards,
    stats: GraphStats,
    /// The engine's fact-extraction threshold at publish time (used by
    /// [`Snapshot::quality`]).
    fact_threshold: f64,
}

impl Snapshot {
    /// The empty epoch-0 snapshot an engine holds before any run.
    pub(crate) fn empty(fact_threshold: f64) -> Self {
        Snapshot {
            epoch: 0,
            marginals: Marginals::zeros(0),
            weights: Vec::new(),
            catalog: CatalogShards::new(),
            stats: GraphStats {
                num_variables: 0,
                num_query_variables: 0,
                num_evidence_variables: 0,
                num_factors: 0,
                num_weights: 0,
                weight_density: 0.0,
                avg_degree: 0.0,
            },
            fact_threshold,
        }
    }

    /// A free-standing snapshot from raw marginals and a pre-built catalog —
    /// for serving-layer tests and tooling that need a `Snapshot` without
    /// running an engine.  Graph stats are synthesized to agree with the
    /// marginal vector (`num_variables == marginals.len()`), the epoch and
    /// catalog are taken as given, the fact threshold is 0.9 and the weight
    /// vector is empty.  A synthetic snapshot round-trips bit-exactly through
    /// the checkpoint codec ([`crate::encode_snapshot`] /
    /// [`crate::decode_snapshot`]), so storage tests can run without a full
    /// engine.
    pub fn synthetic(epoch: u64, marginals: Vec<f64>, catalog: CatalogShards) -> Self {
        let mut stats = Snapshot::empty(0.9).stats;
        stats.num_variables = marginals.len();
        Snapshot::publish(
            epoch,
            Marginals::from_values(marginals),
            Vec::new(),
            catalog,
            stats,
            0.9,
        )
    }

    /// The fact-extraction threshold this snapshot was published with.
    pub(crate) fn fact_threshold(&self) -> f64 {
        self.fact_threshold
    }

    /// Assemble one epoch's snapshot — the engine's publish, a decoded
    /// checkpoint, and [`Snapshot::synthetic`] all come through here, and
    /// this is the only place ranked views are built.
    pub(crate) fn publish(
        epoch: u64,
        marginals: Marginals,
        weights: Vec<f64>,
        mut catalog: CatalogShards,
        stats: GraphStats,
        fact_threshold: f64,
    ) -> Self {
        // The one place ranked views are built: shards unchanged in index and
        // marginals keep their Arcs, the rest (Δ-touched, drifted, decoded)
        // are re-ranked, so consistency is an invariant of every snapshot.
        catalog.refresh_ranked(&marginals);
        Snapshot {
            epoch,
            marginals,
            weights,
            catalog,
            stats,
            fact_threshold,
        }
    }

    /// The epoch this snapshot was published at (0 = never ran, then +1 per
    /// completed `initial_run` / `run_update`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Marginal probabilities, one per variable.
    pub fn marginals(&self) -> &Marginals {
        &self.marginals
    }

    /// The learned weight vector of this epoch's model.
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Graph statistics at publish time.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// The sharded variable catalog of this epoch.  Exposed so serving
    /// infrastructure (and tests) can observe per-shard generations and the
    /// `Arc` sharing of untouched shards across epochs.
    pub fn catalog(&self) -> &CatalogShards {
        &self.catalog
    }

    /// Catalogued variable-relation names, in sorted order — deterministic
    /// across processes (no hash-map iteration order leaks out).
    pub fn relation_names(&self) -> Vec<&str> {
        self.catalog.relation_names().collect()
    }

    /// Number of `(relation, tuple)` entries in the variable catalog.
    pub fn num_catalogued_variables(&self) -> usize {
        self.catalog.num_entries()
    }

    /// Probability currently assigned to one tuple of a variable relation
    /// (allocation-free: a binary search in the per-relation index).
    pub fn probability_of(&self, relation: &str, tuple: &Tuple) -> Option<f64> {
        let var = self.catalog.shard(relation)?.index().get(tuple)?;
        (var < self.marginals.len()).then(|| self.marginals.get(var))
    }

    /// Facts of `relation` whose marginal probability is at least `threshold`,
    /// sorted by tuple.  Convenience wrapper over [`Snapshot::facts`].
    pub(crate) fn extract_facts(&self, relation: &str, threshold: f64) -> Vec<(Tuple, f64)> {
        self.facts(relation).min_probability(threshold).run()
    }

    /// Facts across *all* relations with probability at least
    /// `min_probability`, paginated with `offset`/`limit`.
    ///
    /// Results are ordered by relation name, then tuple — a total order that
    /// is stable across epochs that share shards and identical across
    /// processes, so pages never skip or repeat facts while the snapshot is
    /// held.
    pub fn all_facts(
        &self,
        min_probability: f64,
        offset: usize,
        limit: usize,
    ) -> Vec<(&str, Tuple, f64)> {
        let mut out = Vec::new();
        let mut skip = offset;
        for shard in self.catalog.shards() {
            if out.len() == limit {
                break;
            }
            for (tuple, var) in shard.index().entries() {
                let Some(p) = (*var < self.marginals.len()).then(|| self.marginals.get(*var))
                else {
                    continue;
                };
                if p < min_probability {
                    continue;
                }
                if skip > 0 {
                    skip -= 1;
                    continue;
                }
                out.push((shard.relation(), tuple.clone(), p));
                if out.len() == limit {
                    break;
                }
            }
        }
        out
    }

    /// Start building a paginated fact query against this snapshot.
    pub fn facts<'a>(&'a self, relation: &'a str) -> FactQuery<'a> {
        FactQuery {
            snapshot: self,
            relation,
            min_probability: 0.0,
            top_k: None,
            offset: 0,
            limit: None,
        }
    }

    /// Quality of the facts extracted from `relation` at the engine's
    /// configured threshold, against a ground-truth set.
    pub fn quality(&self, relation: &str, truth: &HashSet<Tuple>) -> QualityReport {
        let extracted: Vec<Tuple> = self
            .extract_facts(relation, self.fact_threshold)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        evaluate_quality(&extracted, truth)
    }
}

/// A cloneable, thread-safe handle onto an engine's *current* snapshot.
///
/// Obtained from [`crate::DeepDive::reader`] and handed to serving threads:
/// each call to [`SnapshotReader::snapshot`] returns the most recently
/// published epoch as a cheap `Arc` clone.  The engine's publish step swaps the
/// pointer under a write lock held only for the swap itself, so readers never
/// wait on grounding, learning, or inference — once a reader holds an
/// `Arc<Snapshot>`, every query on it is lock-free and epoch-consistent.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    current: Arc<RwLock<Arc<Snapshot>>>,
}

impl SnapshotReader {
    pub(crate) fn new(current: Arc<RwLock<Arc<Snapshot>>>) -> Self {
        SnapshotReader { current }
    }

    /// A reader pinned to one free-standing snapshot, never advancing — for
    /// serving infrastructure tests and tooling that need a reader without
    /// an engine publishing behind it (pairs with [`Snapshot::synthetic`]).
    pub fn fixed(snapshot: Snapshot) -> SnapshotReader {
        SnapshotReader {
            current: Arc::new(RwLock::new(Arc::new(snapshot))),
        }
    }

    /// The most recently published snapshot (cheap: one `Arc` clone under a
    /// briefly-held read lock).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        // A poisoned lock can only mean a panic during the pointer swap
        // itself; the Arc inside is still valid, so recover it.
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }
}

/// A builder-style query over one relation's facts in a [`Snapshot`].
///
/// Filters by probability threshold, optionally keeps only the `top_k` most
/// probable facts, and paginates with `offset`/`limit`.  Results are ordered by
/// descending probability when `top_k` is set and by tuple otherwise, so pages
/// are stable for a given snapshot.  For a deterministic enumeration spanning
/// every relation, see [`Snapshot::all_facts`].
#[derive(Debug, Clone)]
pub struct FactQuery<'a> {
    snapshot: &'a Snapshot,
    relation: &'a str,
    min_probability: f64,
    top_k: Option<usize>,
    offset: usize,
    limit: Option<usize>,
}

impl<'a> FactQuery<'a> {
    /// Keep only facts with probability at least `p`.
    pub fn min_probability(mut self, p: f64) -> Self {
        self.min_probability = p;
        self
    }

    /// Keep only the `k` most probable facts (switches the result order to
    /// descending probability, ties broken by tuple).
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Skip the first `n` facts of the ordered result (pagination).
    pub fn offset(mut self, n: usize) -> Self {
        self.offset = n;
        self
    }

    /// Return at most `n` facts after the offset (pagination).
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Execute the query over the snapshot's indexes.
    ///
    /// Routing, by query shape:
    /// - `top_k` → a prefix read of the shard's [`RankedIndex`]: O(log m)
    ///   `partition_point` threshold cut, then at most `k` entries cloned.
    ///   No per-request sort.
    /// - `min_probability` without `top_k` → the same O(log m) cut selects
    ///   the surviving set; only those entries are re-ordered by tuple to
    ///   keep the documented result order, so cost scales with the *answer*,
    ///   not the relation.
    /// - pure pagination (no threshold, no `top_k`) → the tuple-sorted index
    ///   as before: O(offset + limit) clones.  A threshold the whole
    ///   relation passes degenerates to this path too.
    ///
    /// Results are byte-identical to [`FactQuery::run_scan`] for every query
    /// shape — pinned per-op by the `tests/indexes.rs` differential oracle.
    pub fn run(self) -> Vec<(Tuple, f64)> {
        let Some(shard) = self.snapshot.catalog.shard(self.relation) else {
            return Vec::new();
        };
        let ranked = shard.ranked();
        let limit = self.limit.unwrap_or(usize::MAX);
        match self.top_k {
            Some(k) => {
                let cut = ranked.threshold_cut(self.min_probability).min(k);
                ranked.entries()[..cut]
                    .iter()
                    .skip(self.offset)
                    .take(limit)
                    .map(|(p, tuple, _)| (tuple.clone(), *p))
                    .collect()
            }
            None if self.min_probability > 0.0 => {
                let cut = ranked.threshold_cut(self.min_probability);
                if cut == ranked.len() {
                    // Nothing filtered: the tuple-sorted index already holds
                    // the answer in result order.
                    return self.run_scan();
                }
                let mut facts: Vec<(&Tuple, f64)> = ranked.entries()[..cut]
                    .iter()
                    .map(|(p, tuple, _)| (tuple, *p))
                    .collect();
                facts.sort_by(|a, b| a.0.cmp(b.0));
                facts
                    .into_iter()
                    .skip(self.offset)
                    .take(limit)
                    .map(|(tuple, p)| (tuple.clone(), p))
                    .collect()
            }
            None => self.run_scan(),
        }
    }

    /// Execute the query by scanning the tuple-sorted index — the reference
    /// implementation [`FactQuery::run`] must stay byte-identical to.  Kept
    /// public for the differential oracle and the `query_cost` benchmarks;
    /// un-ranked pages also route here (it *is* the fast path for them).
    pub fn run_scan(self) -> Vec<(Tuple, f64)> {
        let Some(shard) = self.snapshot.catalog.shard(self.relation) else {
            return Vec::new();
        };
        let marginals = &self.snapshot.marginals;
        // Filter before cloning: only facts that reach the page allocate.
        let surviving = shard.index().entries().iter().filter_map(|(tuple, var)| {
            let p = (*var < marginals.len()).then(|| marginals.get(*var))?;
            (p >= self.min_probability).then_some((tuple, p))
        });
        let limit = self.limit.unwrap_or(usize::MAX);
        match self.top_k {
            Some(k) => {
                let mut facts: Vec<(Tuple, f64)> =
                    surviving.map(|(tuple, p)| (tuple.clone(), p)).collect();
                facts.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                });
                facts.truncate(k);
                facts.into_iter().skip(self.offset).take(limit).collect()
            }
            None => surviving
                .skip(self.offset)
                .take(limit)
                .map(|(tuple, p)| (tuple.clone(), p))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::tuple;
    use std::collections::HashMap;

    fn catalog_entries() -> HashMap<(String, Tuple), usize> {
        let mut catalog = HashMap::new();
        catalog.insert(("Fact".to_string(), tuple![1i64]), 0usize);
        catalog.insert(("Fact".to_string(), tuple![2i64]), 1usize);
        catalog.insert(("Fact".to_string(), tuple![3i64]), 2usize);
        catalog.insert(("Other".to_string(), tuple![9i64]), 3usize);
        catalog
    }

    fn snapshot() -> Snapshot {
        Snapshot::publish(
            4,
            Marginals::from_values(vec![1.0, 0.7, 0.2, 0.5]),
            vec![1.5, -0.5],
            CatalogShards::build(catalog_entries().iter(), 4),
            Snapshot::empty(0.9).stats,
            0.9,
        )
    }

    #[test]
    fn probability_lookup_and_epoch() {
        let s = snapshot();
        assert_eq!(s.epoch(), 4);
        assert_eq!(s.probability_of("Fact", &tuple![1i64]), Some(1.0));
        assert_eq!(s.probability_of("Fact", &tuple![42i64]), None);
        assert_eq!(s.probability_of("Nothing", &tuple![1i64]), None);
        assert_eq!(s.weights(), &[1.5, -0.5]);
    }

    #[test]
    fn relation_names_are_sorted() {
        let s = snapshot();
        assert_eq!(s.relation_names(), vec!["Fact", "Other"]);
        assert_eq!(s.num_catalogued_variables(), 4);
    }

    #[test]
    fn fact_query_threshold_and_order() {
        let s = snapshot();
        let all = s.facts("Fact").run();
        assert_eq!(all.len(), 3);
        // default order: by tuple
        assert_eq!(all[0].0, tuple![1i64]);
        let high = s.facts("Fact").min_probability(0.5).run();
        assert_eq!(high.len(), 2);
        assert!(s.facts("Nothing").run().is_empty());
    }

    #[test]
    fn fact_query_top_k_orders_by_probability() {
        let s = snapshot();
        let top = s.facts("Fact").top_k(2).run();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], (tuple![1i64], 1.0));
        assert_eq!(top[1], (tuple![2i64], 0.7));
    }

    #[test]
    fn fact_query_pagination() {
        let s = snapshot();
        let page1 = s.facts("Fact").limit(2).run();
        let page2 = s.facts("Fact").offset(2).limit(2).run();
        assert_eq!(page1.len(), 2);
        assert_eq!(page2.len(), 1);
        assert_eq!(page1[0].0, tuple![1i64]);
        assert_eq!(page2[0].0, tuple![3i64]);
        // offset past the end is empty, not a panic
        assert!(s.facts("Fact").offset(10).run().is_empty());
    }

    #[test]
    fn all_facts_paginates_across_relations_in_sorted_order() {
        let s = snapshot();
        let all = s.all_facts(0.0, 0, usize::MAX);
        // relation-name order first ("Fact" < "Other"), tuple order within.
        let names: Vec<&str> = all.iter().map(|(r, _, _)| *r).collect();
        assert_eq!(names, vec!["Fact", "Fact", "Fact", "Other"]);
        assert_eq!(all[0].1, tuple![1i64]);
        assert_eq!(all[3].1, tuple![9i64]);
        // Page boundaries never skip or repeat facts.
        let page1 = s.all_facts(0.0, 0, 3);
        let page2 = s.all_facts(0.0, 3, 3);
        assert_eq!(page1.len(), 3);
        assert_eq!(page2.len(), 1);
        assert_eq!(page2[0].0, "Other");
        // Threshold filters before pagination.
        let high = s.all_facts(0.5, 0, usize::MAX);
        assert_eq!(high.len(), 3);
    }

    #[test]
    fn apply_delta_reindexes_only_the_touched_shard() {
        let marginals = Marginals::from_values(vec![1.0, 0.7, 0.2, 0.5, 0.6]);
        let mut base = CatalogShards::build(catalog_entries().iter(), 1);
        base.refresh_ranked(&marginals);
        let mut next = base.clone();
        next.apply_delta("Fact", vec![(tuple![4i64], Some(4))], 2);

        // The touched shard was re-indexed and its ranked view reset...
        assert!(!Arc::ptr_eq(
            base.shard("Fact").unwrap().index(),
            next.shard("Fact").unwrap().index()
        ));
        assert_eq!(next.shard("Fact").unwrap().generation(), 2);
        assert_eq!(next.shard("Fact").unwrap().index().len(), 4);
        assert_eq!(next.shard("Fact").unwrap().ranked().len(), 0);
        assert_eq!(
            next.shard("Fact").unwrap().index().get(&tuple![4i64]),
            Some(4)
        );
        // ...which the publish-time refresh ranks afresh...
        next.refresh_ranked(&marginals);
        assert_eq!(next.shard("Fact").unwrap().ranked().len(), 4);
        // ...while the untouched shard shares both views pointer-identically.
        assert!(Arc::ptr_eq(
            base.shard("Other").unwrap().index(),
            next.shard("Other").unwrap().index()
        ));
        assert!(Arc::ptr_eq(
            base.shard("Other").unwrap().ranked(),
            next.shard("Other").unwrap().ranked()
        ));
        assert_eq!(next.shard("Other").unwrap().generation(), 1);
        // The base catalog is unchanged.
        assert_eq!(base.shard("Fact").unwrap().index().len(), 3);
        assert_eq!(base.shard("Fact").unwrap().ranked().len(), 3);
    }

    #[test]
    fn apply_delta_creates_missing_shards_in_sorted_position() {
        let mut shards = CatalogShards::build(catalog_entries().iter(), 1);
        shards.apply_delta("Alpha", vec![(tuple![7i64], Some(9))], 2);
        let names: Vec<&str> = shards.relation_names().collect();
        assert_eq!(names, vec!["Alpha", "Fact", "Other"]);
        assert_eq!(
            shards.shard("Alpha").unwrap().index().get(&tuple![7i64]),
            Some(9)
        );
        shards.refresh_ranked(&Marginals::from_values(vec![1.0; 10]));
        assert_eq!(shards.shard("Alpha").unwrap().ranked().len(), 1);
        // An empty delta, or one that only retracts from a missing shard, is
        // a no-op (no shard created, no generation bump).
        shards.apply_delta("Beta", Vec::new(), 3);
        shards.apply_delta("Beta", vec![(tuple![7i64], None)], 3);
        assert!(shards.shard("Beta").is_none());
    }

    #[test]
    fn ranked_index_orders_by_probability_desc_then_tuple() {
        let s = snapshot();
        let ranked = s.catalog().shard("Fact").unwrap().ranked();
        let probs: Vec<f64> = ranked.entries().iter().map(|(p, _, _)| *p).collect();
        assert_eq!(probs, vec![1.0, 0.7, 0.2]);
        assert_eq!(ranked.threshold_cut(0.5), 2);
        assert_eq!(ranked.threshold_cut(0.7), 2); // inclusive: p >= 0.7 survives
        assert_eq!(ranked.threshold_cut(1.5), 0);
        assert_eq!(ranked.threshold_cut(0.0), 3);
    }

    #[test]
    fn refresh_ranked_rebuilds_only_on_marginal_drift() {
        let marginals = Marginals::from_values(vec![1.0, 0.7, 0.2, 0.5]);
        let mut shards = CatalogShards::build(catalog_entries().iter(), 1);
        shards.refresh_ranked(&marginals);
        let fact = Arc::clone(shards.shard("Fact").unwrap().ranked());
        let other = Arc::clone(shards.shard("Other").unwrap().ranked());
        assert_eq!((fact.len(), other.len()), (3, 1));
        // Bit-stable marginals: the check keeps both Arcs.
        shards.refresh_ranked(&marginals);
        assert!(Arc::ptr_eq(&fact, shards.shard("Fact").unwrap().ranked()));
        assert!(Arc::ptr_eq(&other, shards.shard("Other").unwrap().ranked()));
        // Drift in one relation's marginal re-ranks only that shard.
        let drifted = Marginals::from_values(vec![1.0, 0.7, 0.2, 0.8]);
        shards.refresh_ranked(&drifted);
        assert!(Arc::ptr_eq(&fact, shards.shard("Fact").unwrap().ranked()));
        assert!(!Arc::ptr_eq(
            &other,
            shards.shard("Other").unwrap().ranked()
        ));
        assert_eq!(shards.shard("Other").unwrap().ranked().entries()[0].0, 0.8);
    }

    /// One publish deletes tuple D and inserts tuple N in the same shard:
    /// N takes over D's variable id (as retraction's swap-remove compaction
    /// hands ids on), so the shard keeps its length and every marginal is
    /// bit-identical.  The previous epoch's ranked view would pass the
    /// publish-time check, which reads the ids baked into it; only the reset
    /// in `apply_delta` makes the publish rank N.
    #[test]
    fn publish_ranks_a_same_length_swap_with_equal_probabilities() {
        let marginals = vec![1.0, 0.7, 0.2, 0.5];
        let catalog = CatalogShards::build(catalog_entries().iter(), 1);
        let before = Snapshot::synthetic(1, marginals.clone(), catalog);
        let (deleted, inserted) = (tuple![2i64], tuple![5i64]);
        let mut catalog = before.catalog().clone();
        catalog.apply_delta(
            "Fact",
            vec![(deleted.clone(), None), (inserted.clone(), Some(1))],
            2,
        );
        let after = Snapshot::synthetic(2, marginals, catalog);
        assert_eq!(after.catalog().shard("Fact").unwrap().index().len(), 3);

        for (min_p, top_k) in [(0.0, Some(3)), (0.5, Some(2)), (0.5, None), (0.7, None)] {
            let query = || {
                let q = after.facts("Fact").min_probability(min_p);
                match top_k {
                    Some(k) => q.top_k(k),
                    None => q,
                }
            };
            let got = query().run();
            assert_eq!(got, query().run_scan(), "min_p={min_p} top_k={top_k:?}");
            assert!(got.contains(&(inserted.clone(), 0.7)), "{got:?}");
            assert!(got.iter().all(|(t, _)| *t != deleted), "{got:?}");
        }
    }

    #[test]
    fn indexed_run_matches_scan_on_every_query_shape() {
        let s = snapshot();
        for min_p in [0.0, 0.2, 0.5, 0.7, 0.9, 1.0, 1.1] {
            for top_k in [None, Some(0), Some(1), Some(2), Some(10)] {
                for offset in [0usize, 1, 3] {
                    for limit in [None, Some(0), Some(1), Some(2)] {
                        let build = |relation: &'static str| {
                            let mut q = s.facts(relation).min_probability(min_p).offset(offset);
                            if let Some(k) = top_k {
                                q = q.top_k(k);
                            }
                            if let Some(l) = limit {
                                q = q.limit(l);
                            }
                            q
                        };
                        for relation in ["Fact", "Other", "Nothing"] {
                            assert_eq!(
                                build(relation).run(),
                                build(relation).run_scan(),
                                "relation={relation} min_p={min_p} top_k={top_k:?} \
                                 offset={offset} limit={limit:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn merged_index_interleaves_replaces_and_removes() {
        let base = RelationIndex::from_entries(vec![
            (tuple![1i64], 0),
            (tuple![3i64], 1),
            (tuple![4i64], 3),
        ]);
        let merged = base.merged_with_changes(&[
            (tuple![2i64], Some(2)),
            (tuple![3i64], Some(9)),
            (tuple![4i64], None),
            (tuple![5i64], None),
        ]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.get(&tuple![1i64]), Some(0));
        assert_eq!(merged.get(&tuple![2i64]), Some(2));
        // Same-tuple upserts replace the old mapping; removals drop it.
        assert_eq!(merged.get(&tuple![3i64]), Some(9));
        assert_eq!(merged.get(&tuple![4i64]), None);
        // Result stays tuple-sorted.
        let tuples: Vec<&Tuple> = merged.entries().iter().map(|(t, _)| t).collect();
        assert!(tuples.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn quality_uses_the_published_threshold() {
        let s = snapshot();
        let truth: HashSet<Tuple> = [tuple![1i64]].into_iter().collect();
        let q = s.quality("Fact", &truth);
        // threshold 0.9 extracts only tuple 1 -> perfect precision and recall
        assert_eq!(q.extracted, 1);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();
        assert_send_sync::<std::sync::Arc<Snapshot>>();
    }
}
