//! The DeepDive engine: end-to-end KBC execution, Rerun vs Incremental.
//!
//! The engine owns a [`Grounder`] (program + database + factor graph, whose
//! weights are the learned model), an [`EngineConfig`], the current
//! marginals, and — after [`DeepDive::materialize`] has been called — the
//! combined materialization of §3.3.  A KBC iteration ([`KbcUpdate`]: new data
//! and/or new rules) can then be executed in either mode:
//!
//! * [`ExecutionMode::Rerun`] — the baseline of §4.2: learning runs the full
//!   epochs from the graph's current weights (not from a cold model) and
//!   inference runs full Gibbs sampling over the whole updated factor graph;
//! * [`ExecutionMode::Incremental`] — the paper's system: learning warmstarts
//!   from the previous model (Appendix B.3), the rule-based optimizer (§3.3)
//!   picks the sampling or variational strategy for the observed change, and
//!   inference touches only the changed part of the graph (falling back from
//!   sampling to variational when the stored samples run out).
//!
//! Grounding is incremental in both modes; the relational (DRed) speedup is
//! measured separately by `reproduce grounding`, matching how the paper
//! reports it separately from Figure 9.
//!
//! # One staged round
//!
//! Every state-changing entry point is one logical operation (`WalOp`) and
//! goes through one wrapper, `DeepDive::execute`: append the operation to the
//! WAL, run it, auto-checkpoint.  WAL replay hands a decoded operation to the
//! same `DeepDive::run_op` the wrapper calls, so a replayed operation cannot
//! run differently from a live one.  Every operation except `materialize` is a
//! *round* (`DeepDive::run_round`) of five stages; ground, learn and infer are
//! each timed once, for the round's report:
//!
//! 1. **ground** — the whole program (initial run), one Δ (an update, in
//!    either mode), or nothing (refresh).  A Δ that retracts anything —
//!    removes structure or un-pins evidence — drops the materialization
//!    here.
//! 2. **describe + accumulate** — the round's [`DistributionChange`] decides
//!    the §3.3 strategy and whether the model needs learning, and joins the
//!    change accumulated since the materialization was taken.  This does not
//!    depend on the mode, and happens only while a materialization exists:
//!    the accumulated change is what the stored samples must be corrected
//!    for, whoever changed the graph.
//! 3. **learn** — the full epochs (initial run, Rerun), half of them
//!    (Incremental, when the change calls for it), or not at all.  Learning
//!    always starts from the weights the graph holds: the model the last
//!    round learned, and the declared value of every weight this round
//!    created — App. B.3's warmstart.  Weights that learning moves join the
//!    accumulated change.
//! 4. **infer** — one stage for every round (`DeepDive::infer`), which
//!    answers each query component once: an enumerated component exactly,
//!    a sampled component the materialization has a column for every
//!    variable of by the chosen §3.3 strategy (Incremental Δ rounds only),
//!    and every other sampled component by Gibbs.  A round that serves
//!    nothing from a materialization — the initial run, Rerun, refresh, or
//!    a round with none in service — is one plain Gibbs run.  No round is
//!    refused for want of a materialization.
//! 5. **publish** — commit the marginals as the next epoch's snapshot; the
//!    round's one [`IterationReport`] is built from the stage results.
//!
//! A round that grounds therefore publishes: the only errors after the
//! ground stage are the publish's own invariant checks.
//!
//! **The grounder reports what it did.**  Incremental grounding changes
//! the engine's graph in place, through the binding path full grounding
//! uses, and reports the change it applied
//! ([`dd_grounding::IncrementalGrounding`]): the id ranges it appended, the
//! evidence it newly pinned, and whether it retracted anything.  The round's
//! [`DistributionChange`] is written from that report; the engine never
//! copies its graph.

use crate::builder::DeepDiveBuilder;
use crate::config::EngineConfig;
use crate::durability::{CheckpointState, CheckpointView, DurabilityHandle, WalOp};
use crate::error::EngineError;
use crate::materialization::{Materialization, Materialized};
use crate::optimizer::{choose_strategy, StrategyChoice};
use crate::quality::QualityReport;
use crate::snapshot::{CatalogShards, Snapshot, SnapshotReader};
use dd_factorgraph::{FactorGraph, FlatGraph, VarId};
use dd_grounding::{Grounder, KbcUpdate, Program, UdfRegistry};
use dd_inference::{enumerate_components, DistributionChange, GibbsSampler, Learner, Marginals};
use dd_relstore::{Database, Tuple};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Whether an update is executed from scratch or incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    Rerun,
    Incremental,
}

impl ExecutionMode {
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::Rerun => "Rerun",
            ExecutionMode::Incremental => "Incremental",
        }
    }
}

/// Timing and bookkeeping for one executed iteration.
#[derive(Debug, Clone)]
pub struct IterationReport {
    pub mode: ExecutionMode,
    /// Strategy chosen by the optimizer (None for Rerun / the initial run).
    pub strategy: Option<StrategyChoice>,
    pub grounding_secs: f64,
    pub learning_secs: f64,
    pub inference_secs: f64,
    /// Acceptance rate of the MH chain, when the sampling strategy ran.
    pub acceptance_rate: Option<f64>,
    pub new_variables: usize,
    pub new_factors: usize,
    /// True if the sampling strategy exhausted its samples and fell back.
    pub fell_back_to_variational: bool,
    /// Variable relations whose catalog shard was re-indexed by this run's
    /// snapshot publish (sorted).  Every relation *not* listed here kept its
    /// serving index `Arc`-shared with the previous epoch — the observable
    /// face of the O(Δ) sharded publish.
    pub resharded_relations: Vec<String>,
}

impl IterationReport {
    /// Learning + inference time — the quantity Figure 9 tabulates.
    pub fn inference_and_learning_secs(&self) -> f64 {
        self.learning_secs + self.inference_secs
    }
}

/// The end-to-end engine.
///
/// Constructed with [`DeepDive::builder`]; queried through lock-free
/// [`Snapshot`]s (see [`DeepDive::snapshot`] / [`DeepDive::reader`]) while
/// updates run.
///
/// ```
/// use dd_relstore::{tuple, Database, DataType, Schema};
/// use deepdive::{DeepDive, EngineConfig};
///
/// let mut db = Database::new();
/// db.create_table("Claim", Schema::of(&[("id", DataType::Int), ("text", DataType::Text)])).unwrap();
/// db.create_table("Label", Schema::of(&[("id", DataType::Int)])).unwrap();
/// db.insert_all("Claim", vec![tuple![1i64, "alpha"], tuple![2i64, "beta"]]).unwrap();
/// db.insert_all("Label", vec![tuple![1i64]]).unwrap();
///
/// // A one-rule program: every claim with a supervision label becomes
/// // evidence; the others get their probability from the shared weight.
/// let mut dd = DeepDive::builder()
///     .program_text(r#"
///         relation Claim(id: int, text: text) base.
///         relation Label(id: int) base.
///         relation Fact(id: int) variable.
///
///         rule F feature:
///           Fact(id) :- Claim(id, text) weight = 1.5.
///
///         rule S supervision+:
///           Fact(id) :- Claim(id, text), Label(id).
///     "#)
///     .database(db)
///     .config(EngineConfig::fast())
///     .build()
///     .unwrap();
/// dd.initial_run().unwrap();
///
/// // Reads are served from an immutable snapshot of the run's epoch.
/// let snap = dd.snapshot();
/// assert_eq!(snap.epoch(), 1);
/// // The supervised claim is pinned to probability 1...
/// assert_eq!(snap.probability_of("Fact", &tuple![1i64]), Some(1.0));
/// // ...and the unsupervised one gets a high (but uncertain) probability.
/// let p = snap.probability_of("Fact", &tuple![2i64]).unwrap();
/// assert!(p > 0.5 && p < 1.0);
/// ```
pub struct DeepDive {
    grounder: Grounder,
    config: EngineConfig,
    /// The compilation of the grounder's current graph, when one is at hand:
    /// the learner compiles (and keeps current with the weights it moves),
    /// the infer stage and the materialization that follow sample on the
    /// same compilation.  Dropped whenever grounding is about to
    /// change the graph.
    compiled: Option<FlatGraph>,
    /// The materialization in service, with the change accumulated since it
    /// was taken; `None` before [`DeepDive::materialize`] and after a
    /// retraction dropped it.
    materialized: Option<Materialized>,
    /// Number of completed runs; every publish bumps it by one.
    epoch: u64,
    /// The currently served snapshot.  Readers clone the inner `Arc` under a
    /// briefly-held read lock; the publish step swaps the pointer under the
    /// write lock — held only for the swap, never across inference.
    current: Arc<RwLock<Arc<Snapshot>>>,
    /// Open WAL + checkpoint stores when the engine was built with
    /// [`DeepDiveBuilder::durability`]; `None` for in-memory engines.  Every
    /// state-changing public method appends its logical operation *before*
    /// executing it, so recovery can roll the tail forward.
    durability: Option<DurabilityHandle>,
    /// Failures recorded while replaying the WAL tail during recovery; see
    /// [`DeepDive::recovery_replay_errors`].
    replay_errors: Vec<String>,
}

impl std::fmt::Debug for DeepDive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeepDive")
            .field("epoch", &self.epoch)
            .field("config", &self.config)
            .field("materialized_epoch", &self.materialized_epoch())
            .field("graph", &self.grounder.graph().stats())
            .field("durable", &self.durability.is_some())
            .finish_non_exhaustive()
    }
}

/// What the ground stage of a round does.
#[derive(Clone, Copy)]
enum Ground<'a> {
    /// Ground the whole program (the initial run).
    Full,
    /// Ground one update incrementally.
    Delta(&'a KbcUpdate),
    /// Leave the graph as it is (a refresh).
    None,
}

/// What the ground stage leaves for the later stages of its round.
#[derive(Default)]
struct Grounded {
    /// This round's own distribution change.
    change: DistributionChange,
    /// The Δ removed structure, un-pinned evidence or withdrew supervision.
    has_retraction: bool,
    /// What the round reports as new.
    new_variables: usize,
    new_factors: usize,
}

impl DeepDive {
    /// Start building an engine: program, database, UDFs, and config are all
    /// named fields, and every misconfiguration is a typed [`EngineError`]
    /// reported by [`DeepDiveBuilder::build`].
    pub fn builder() -> DeepDiveBuilder {
        DeepDiveBuilder::default()
    }

    /// Assemble the engine from already-validated parts ([`DeepDiveBuilder`]
    /// is the public entrance).
    pub(crate) fn from_parts(
        program: Program,
        db: Database,
        udfs: UdfRegistry,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        Ok(Self::fresh(Grounder::new(program, db, udfs)?, config))
    }

    /// An engine at epoch 0 around `grounder`: nothing learned, nothing
    /// materialized, serving the empty snapshot.
    fn fresh(grounder: Grounder, config: EngineConfig) -> Self {
        let empty = Arc::new(Snapshot::empty(config.fact_threshold));
        DeepDive {
            grounder,
            config,
            compiled: None,
            materialized: None,
            epoch: 0,
            current: Arc::new(RwLock::new(empty)),
            durability: None,
            replay_errors: Vec::new(),
        }
    }

    /// Reconstruct an engine from a decoded checkpoint (recovery path of
    /// [`DeepDiveBuilder::build`]).  The config and UDF registry are
    /// re-supplied by the builder — UDFs are function pointers and cannot be
    /// persisted.  The caller replays the WAL tail and then attaches the
    /// durability handle, so replayed operations are not re-appended.
    pub(crate) fn from_checkpoint(
        state: CheckpointState,
        udfs: UdfRegistry,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        let mut engine = Self::fresh(Grounder::from_state(state.grounder, udfs)?, config);
        if let (Some(materialization), Some(epoch)) =
            (state.materialization, state.materialized_epoch)
        {
            engine.materialized = Some(Materialized {
                materialization,
                epoch,
                change: state.cumulative_change,
            });
        }
        engine.epoch = state.epoch;
        // The next publish starts from this snapshot's catalog; entries
        // grounded after it was published are still pending in the
        // grounder's dirty-set and merge on that commit.
        engine.current = Arc::new(RwLock::new(Arc::new(state.snapshot)));
        Ok(engine)
    }

    // ------------------------------------------------------------------ access

    pub fn graph(&self) -> &FactorGraph {
        self.grounder.graph()
    }

    pub fn grounder(&self) -> &Grounder {
        &self.grounder
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn materialization(&self) -> Option<&Materialization> {
        self.materialized.as_ref().map(|m| &m.materialization)
    }

    fn materialized_epoch(&self) -> Option<u64> {
        self.materialized.as_ref().map(|m| m.epoch)
    }

    /// The learned model: the graph's weight values.
    pub fn learned_weights(&self) -> Vec<f64> {
        self.grounder.graph().weight_values()
    }

    // -------------------------------------------------------------- snapshots

    /// The currently served snapshot (cheap: one `Arc` clone).  Epoch 0 — an
    /// empty catalog — until the first completed run.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.reader().snapshot()
    }

    /// A cloneable handle serving threads can poll for the latest snapshot
    /// while this engine keeps running updates.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::new(Arc::clone(&self.current))
    }

    /// The engine's current epoch (number of completed runs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Commit one run's inference output: validate it and atomically publish
    /// it as the next epoch's snapshot.  Validation happens first so a
    /// rejected result leaves the served snapshot untouched; the write lock is
    /// held only for the pointer swap.  Nothing is written into the database:
    /// the `<relation>_marginal` tables of §2.5 are built on demand by
    /// [`Grounder::marginal_table`].
    ///
    /// The publish starts from the served snapshot's catalog (an `Arc`-shared
    /// clone) and is O(Δ) in *catalog* work: the grounder's drained dirty-set
    /// names exactly the relations whose variables changed since the last
    /// publish, and only those shards are re-indexed (sorted Δ-merge); all
    /// other shards go into the new snapshot as `Arc` clones shared with the
    /// previous epoch.  What stays O(variables) per epoch is the marginal
    /// vector itself (validated here, owned by the snapshot) and
    /// [`Snapshot::publish`]'s ranking check against it.  Returns the
    /// re-indexed relation names (sorted).
    fn commit_marginals(&mut self, marginals: Marginals) -> Result<Vec<String>, EngineError> {
        let num_variables = self.grounder.graph().num_variables();
        if marginals.len() != num_variables {
            return Err(EngineError::Inference {
                stage: "snapshot publish",
                detail: format!(
                    "marginal vector covers {} of {num_variables} variables",
                    marginals.len()
                ),
            });
        }
        if let Some(bad) = marginals.values().iter().find(|p| !p.is_finite()) {
            return Err(EngineError::Inference {
                stage: "snapshot publish",
                detail: format!("non-finite marginal probability {bad}"),
            });
        }

        // Drain the grounder's catalog op-log and re-index only the relations
        // that appear in it.  Ops are recorded chronologically; netting them
        // per tuple (last op wins) collapses remove-then-re-add churn within
        // one publish into a single signed change per tuple, in tuple order.
        // Ops from a rejected earlier commit stay pending until the next
        // successful publish, so the catalog never misses growth or shrinkage.
        self.epoch += 1;
        let mut catalog = self.snapshot().catalog().clone();
        let fresh = self.grounder.take_catalog_delta();
        let mut resharded = Vec::with_capacity(fresh.len());
        for (relation, ops) in fresh {
            catalog.apply_delta(&relation, dd_grounding::CatalogOp::net(ops), self.epoch);
            resharded.push(relation);
        }
        // Self-healing backstop: every grounder-side catalog change is
        // op-logged, so an entry-count mismatch means some code path bypassed
        // the dirty-set.  Fall back to the O(n) full rebuild rather than serve
        // a snapshot that silently lacks (or over-reports) variables.  The
        // count itself is O(#relations).
        if catalog.num_entries() != self.grounder.num_catalogued_variables() {
            debug_assert!(false, "catalog dirty-set missed entries; full rebuild");
            catalog = CatalogShards::build(self.grounder.variable_catalog(), self.epoch);
            resharded = catalog.relation_names().map(String::from).collect();
        }
        let snapshot = Snapshot::publish(
            self.epoch,
            marginals,
            self.learned_weights(),
            catalog,
            self.grounder.graph().stats(),
            self.config.fact_threshold,
        );
        let next = Arc::new(snapshot);
        match self.current.write() {
            Ok(mut guard) => *guard = next,
            Err(poisoned) => *poisoned.into_inner() = next,
        }
        Ok(resharded)
    }

    // ------------------------------------------------------------ operations

    /// Run the full pipeline once: grounding, learning, inference; publishes
    /// epoch 1's snapshot.
    pub fn initial_run(&mut self) -> Result<IterationReport, EngineError> {
        self.execute_round(WalOp::InitialRun)
    }

    /// Build the combined materialization (sampling + variational).
    ///
    /// Only fallible on durable engines (the WAL append); in-memory engines
    /// cannot fail here.
    pub fn materialize(&mut self) -> Result<(), EngineError> {
        self.execute(WalOp::Materialize).map(drop)
    }

    /// Re-run full inference over the current graph and publish a fresh epoch
    /// without applying any update: no grounding, no learning, full Gibbs
    /// over the graph as it stands.  Useful to re-sample the served
    /// marginals, e.g. after [`DeepDive::materialize`].
    pub fn refresh(&mut self) -> Result<IterationReport, EngineError> {
        self.execute_round(WalOp::Refresh)
    }

    /// Execute one KBC update in the given mode; on success the next epoch's
    /// snapshot is published and previously handed-out snapshots keep serving
    /// their own epoch untouched.
    pub fn run_update(
        &mut self,
        update: &KbcUpdate,
        mode: ExecutionMode,
    ) -> Result<IterationReport, EngineError> {
        self.execute_round(WalOp::Update {
            mode,
            update: Cow::Borrowed(update),
        })
    }

    /// Un-pin a supervision label: the variable for `tuple` in `relation`
    /// reverts to an open query variable and future re-derivations of the same
    /// supervision rule no longer re-pin it.  Runs as an incremental update
    /// (WAL-logged as its own operation), so the next published snapshot
    /// reflects the freed variable without re-grounding.
    pub fn retract_supervision(
        &mut self,
        relation: &str,
        tuple: Tuple,
    ) -> Result<IterationReport, EngineError> {
        self.execute_round(WalOp::RetractSupervision {
            relation: Cow::Borrowed(relation),
            tuple,
        })
    }

    /// The one way in for a state-changing operation: log it (redo logging:
    /// once the append returns, recovery rolls the operation forward even if
    /// the process dies mid-inference), run it, and checkpoint if the policy
    /// says the log has grown enough.
    fn execute(&mut self, op: WalOp<'_>) -> Result<Option<IterationReport>, EngineError> {
        self.log_op(&op)?;
        let report = self.run_op(&op)?;
        self.maybe_auto_checkpoint()?;
        Ok(report)
    }

    /// [`DeepDive::execute`] for the operations that are rounds.
    fn execute_round(&mut self, op: WalOp<'_>) -> Result<IterationReport, EngineError> {
        let report = self.execute(op)?;
        Ok(report.expect("every operation but Materialize runs a round"))
    }

    /// Run one operation, live or replayed: a round and its report, or —
    /// for `Materialize` — no round.
    fn run_op(&mut self, op: &WalOp<'_>) -> Result<Option<IterationReport>, EngineError> {
        // The update a supervision retraction stands for.
        let mut retraction = KbcUpdate::new();
        let (ground, mode) = match op {
            WalOp::Materialize => {
                self.build_materialization();
                return Ok(None);
            }
            WalOp::InitialRun => (Ground::Full, ExecutionMode::Rerun),
            WalOp::Refresh => (Ground::None, ExecutionMode::Rerun),
            WalOp::Update { mode, update } => (Ground::Delta(update), *mode),
            WalOp::RetractSupervision { relation, tuple } => {
                retraction.retract_supervision(relation, tuple.clone());
                (Ground::Delta(&retraction), ExecutionMode::Incremental)
            }
        };
        self.run_round(ground, mode).map(Some)
    }

    fn build_materialization(&mut self) {
        let graph = self.grounder.graph();
        let flat = self.compiled.get_or_insert_with(|| graph.compile());
        self.materialized = Some(Materialized {
            materialization: Materialization::build_on(flat, graph, &self.config),
            epoch: self.epoch,
            change: DistributionChange::default(),
        });
    }

    // ------------------------------------------------------------------ rounds

    /// One round: ground → describe + accumulate → learn → infer → publish
    /// (see the module docs).  Rounds that do not ground a Δ run as `Rerun`.
    fn run_round(
        &mut self,
        ground: Ground<'_>,
        mode: ExecutionMode,
    ) -> Result<IterationReport, EngineError> {
        let incremental = matches!(ground, Ground::Delta(_)) && mode == ExecutionMode::Incremental;

        let t = Instant::now();
        let grounded = self.ground(ground)?;
        let grounding_secs = t.elapsed().as_secs_f64();

        // §3.3's rules read *this* round's change; MH reads the accumulated one.
        let change = grounded.change;
        let samples_remaining = self
            .materialization()
            .map_or(0, |m| m.sampling.num_samples());
        let strategy = incremental.then(|| choose_strategy(&change, samples_remaining));
        // Incremental learning is only needed when the model itself must
        // change: new features, new evidence, or a retraction.
        let model_changes = !change.new_factors.is_empty()
            || !change.new_evidence.is_empty()
            || grounded.has_retraction;
        // `Some(warm)`: learn, for half the epochs when warm.
        let learn = match ground {
            Ground::None => None,
            Ground::Delta(_) if incremental => model_changes.then_some(true),
            Ground::Full | Ground::Delta(_) => Some(false),
        };
        if let Some(materialized) = &mut self.materialized {
            materialized.change.absorb(change);
        }

        let t = Instant::now();
        if let Some(warm) = learn {
            self.learn(warm);
        }
        let learning_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (marginals, acceptance_rate, fell_back_to_variational) = self.infer(strategy);
        let inference_secs = t.elapsed().as_secs_f64();

        let resharded_relations = self.commit_marginals(marginals)?;
        Ok(IterationReport {
            mode,
            strategy,
            grounding_secs,
            learning_secs,
            inference_secs,
            acceptance_rate,
            new_variables: grounded.new_variables,
            new_factors: grounded.new_factors,
            fell_back_to_variational,
            resharded_relations,
        })
    }

    /// The ground stage.
    fn ground(&mut self, ground: Ground<'_>) -> Result<Grounded, EngineError> {
        let update = match ground {
            Ground::None => return Ok(Grounded::default()),
            Ground::Full => {
                self.compiled = None;
                self.grounder.ground()?;
                let stats = self.grounder.graph().stats();
                return Ok(Grounded {
                    new_variables: stats.num_variables,
                    new_factors: stats.num_factors,
                    ..Grounded::default()
                });
            }
            Ground::Delta(update) => update,
        };
        // Rules arriving mid-stream get the same UDF-resolution guarantee the
        // builder gives construction-time rules.  Checked before grounding,
        // so a rejected update leaves the engine untouched.
        crate::builder::check_tied_udfs(&update.new_rules, self.grounder.udfs())?;

        self.compiled = None;
        let grounding = self.grounder.ground_incremental(update)?;

        // Retraction compacts the factor graph in place (swap-remove), so any
        // stored materialization — samples and approximate factorization alike
        // — is keyed by variable/weight ids that no longer mean the same thing;
        // an un-pinned variable has stored samples drawn while it was pinned,
        // which no `DistributionChange` can correct.  Either way the
        // materialization is dropped, and rounds are served by full Gibbs
        // until the next one is built.  A supervision retraction counts even
        // when it un-pinned nothing.
        let has_retraction = grounding.retracted || !update.retracted_supervision.is_empty();
        if has_retraction {
            self.materialized = None;
        }

        Ok(Grounded {
            new_variables: grounding.new_variables.len(),
            new_factors: grounding.new_factors.len(),
            change: DistributionChange {
                new_factors: grounding.new_factors.collect(),
                changed_weights: Vec::new(),
                new_evidence: grounding.new_evidence,
                new_variables: grounding.new_variables.collect(),
            },
            has_retraction,
        })
    }

    /// The learn stage: the configured epochs, or half of them when `warm`,
    /// from the weights the graph holds.  While a materialization exists,
    /// the weights learning moves are part of the distribution change its
    /// stored samples must be corrected for, whichever mode moved them.
    fn learn(&mut self, warm: bool) {
        let before = self
            .materialized
            .is_some()
            .then(|| self.grounder.graph().weight_values());
        let mut options = self.config.learn.clone();
        if warm {
            options.epochs = (options.epochs / 2).max(1);
        }
        let mut flat = match self.compiled.take() {
            Some(flat) => flat,
            None => self.grounder.graph().compile(),
        };
        let learned = Learner::new(self.grounder.graph_mut())
            .learn_on(&mut flat, &options, self.config.seed)
            .final_weights;
        self.compiled = Some(flat);
        if let (Some(before), Some(materialized)) = (before, &mut self.materialized) {
            let moved = before
                .iter()
                .zip(&learned)
                .enumerate()
                .filter(|(_, (old, new))| (*old - *new).abs() > 1e-12)
                .map(|(w, (&old, _))| (w, old))
                .collect();
            materialized.change.record_changed_weights(moved);
        }
    }

    /// The infer stage of every round: each query component of the current
    /// graph answered once.  An enumerated component is exact; on an
    /// Incremental Δ round, a sampled component the materialization has a
    /// column for every variable of is served by the §3.3 strategy, which
    /// reads the current graph and the change accumulated since the
    /// materialization; every other sampled component is Gibbs-sampled, in
    /// ascending variable order on one stream of the seed.  A round that
    /// serves nothing is one [`GibbsSampler::run`].  Returns the marginals,
    /// the MH acceptance rate and whether sampling fell back to variational.
    fn infer(&mut self, strategy: Option<StrategyChoice>) -> (Marginals, Option<f64>, bool) {
        let (graph, config) = (self.grounder.graph(), &self.config);
        let flat = &*self.compiled.get_or_insert_with(|| graph.compile());
        let served = strategy
            .zip(self.materialized.as_ref())
            .and_then(|(strategy, m)| {
                let stored = m.materialization.sampling.samples().columns();
                let (served, unserved): (Vec<&[VarId]>, Vec<&[VarId]>) = flat
                    .sampled_components()
                    .partition(|c| c.iter().all(|v| stored.binary_search(v).is_ok()));
                (!served.is_empty()).then(|| (strategy, m, unserved.concat()))
            });
        let Some((strategy, materialized, mut unserved)) = served else {
            let marginals = GibbsSampler::from_flat(flat, config.seed).run(&config.gibbs);
            return (marginals, None, false);
        };

        let (mat, change) = (&materialized.materialization, &materialized.change);
        let variational = || {
            mat.variational
                .infer(graph, change, &config.gibbs, config.seed)
        };
        let (mut marginals, acceptance_rate, fell_back) = match strategy {
            StrategyChoice::Sampling => {
                let outcome =
                    mat.sampling
                        .infer(graph, change, config.inference_samples, config.seed);
                // Rule 4: out of samples → variational.
                let marginals = if outcome.exhausted {
                    variational()
                } else {
                    outcome.marginals
                };
                (marginals, Some(outcome.acceptance_rate), outcome.exhausted)
            }
            StrategyChoice::Variational => (variational(), None, false),
        };
        if !unserved.is_empty() {
            unserved.sort_unstable();
            let fresh = GibbsSampler::from_flat(flat, config.seed)
                .with_free_vars(unserved.clone())
                .run(&config.gibbs);
            for v in unserved {
                marginals.set(v, fresh.get(v));
            }
        }
        enumerate_components(flat, &mut marginals);
        (marginals, acceptance_rate, fell_back)
    }

    // ------------------------------------------------------------- durability

    /// Sequence number of the last WAL record (0 before the first append);
    /// `None` on in-memory engines.
    pub fn last_wal_seq(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.wal.last_seq())
    }

    /// Write a checkpoint covering everything logged so far, then prune the
    /// WAL and older checkpoints it supersedes (crash-safe at every byte
    /// boundary; the ordering is `DurabilityHandle::checkpoint`'s).  Returns
    /// the covered sequence number.
    ///
    /// Errors with [`dd_storage::StorageError::NotConfigured`] when the engine
    /// was built without [`DeepDiveBuilder::durability`].
    pub fn checkpoint(&mut self) -> Result<u64, EngineError> {
        let mut handle = self
            .durability
            .take()
            .ok_or(dd_storage::StorageError::NotConfigured)?;
        let snapshot = self.snapshot();
        let covered = handle.checkpoint(&self.checkpoint_view(&snapshot));
        self.durability = Some(handle);
        Ok(covered?)
    }

    /// Trigger [`DeepDive::checkpoint`] when the configured auto-checkpoint
    /// policy ([`dd_storage::DurabilityConfig::checkpoint_every_records`] /
    /// `checkpoint_every_bytes`) has accumulated enough WAL since the last
    /// checkpoint.  Called after every successful state-changing operation;
    /// a no-op for in-memory engines and manual-only policies.
    fn maybe_auto_checkpoint(&mut self) -> Result<(), EngineError> {
        let due = self
            .durability
            .as_ref()
            .is_some_and(DurabilityHandle::auto_checkpoint_due);
        if due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Append one logical operation to the WAL (no-op on in-memory engines).
    /// Called *before* the operation executes: recovery rolls every logged
    /// operation forward, and re-executing an operation that failed with an
    /// [`EngineError`] fails identically (the engine's side effects are
    /// deterministic), so replayed state matches original state either way.
    fn log_op(&mut self, op: &WalOp<'_>) -> Result<(), EngineError> {
        match &mut self.durability {
            Some(handle) => Ok(handle.append(op)?),
            None => Ok(()),
        }
    }

    /// The complete engine state as a checkpoint carries it, borrowed:
    /// everything a restored engine needs except the config and the UDF
    /// registry (function pointers — re-supplied by the builder at
    /// recovery).  `snapshot` is the served one.
    pub(crate) fn checkpoint_view<'a>(&'a self, snapshot: &'a Snapshot) -> CheckpointView<'a> {
        CheckpointView {
            grounder: self.grounder.export_state(),
            materialization: self.materialization(),
            materialized_epoch: self.materialized_epoch(),
            cumulative_change: self.materialized.as_ref().map(|m| &m.change),
            epoch: self.epoch,
            snapshot,
        }
    }

    /// Re-execute one logged operation during recovery.  Must run *before*
    /// the durability handle is attached so replay does not re-append.
    ///
    /// An error here is usually not new information: an operation that failed
    /// when first executed (e.g. an update whose rule ties its weight to an
    /// unregistered UDF, [`EngineError::Udf`]) fails the same way on replay
    /// and leaves the same state.  But if the engine was rebuilt with a
    /// *different* UDF registry or config than the run that wrote the log, a
    /// failure marks genuine replay divergence — so the builder records every
    /// error into [`DeepDive::recovery_replay_errors`] instead of discarding
    /// them.
    pub(crate) fn apply_wal_op(&mut self, op: WalOp<'static>) -> Result<(), EngineError> {
        debug_assert!(
            self.durability.is_none(),
            "WAL replay must happen before the durability handle is attached"
        );
        self.run_op(&op).map(drop)
    }

    /// Note a failed replay during recovery (builder-only).  Every round
    /// that grounds publishes, so a recorded error was raised before
    /// grounding, by it, or by the publish's invariant checks; see
    /// [`DeepDive::recovery_replay_errors`] for when it means divergence.
    pub(crate) fn record_replay_error(&mut self, seq: u64, err: &EngineError) {
        self.replay_errors
            .push(format!("replaying WAL record {seq}: {err}"));
    }

    /// Operations that failed while replaying the WAL tail during this
    /// engine's recovery, as `"replaying WAL record <seq>: <error>"` lines.
    /// Empty for in-memory engines and clean recoveries.
    ///
    /// A non-empty list with the *same* config and UDF registry as the
    /// original run merely repeats errors that run already reported (replay
    /// is deterministic, so the op failed identically then).  With a
    /// different registry or config it signals replay divergence: operations
    /// that originally succeeded were dropped, and the recovered state does
    /// not match the pre-crash state.
    pub fn recovery_replay_errors(&self) -> &[String] {
        &self.replay_errors
    }

    /// The open WAL + checkpoint stores, for tests that count or break
    /// their writes.
    #[cfg(test)]
    pub(crate) fn durability_handle(&mut self) -> Option<&mut DurabilityHandle> {
        self.durability.as_mut()
    }

    /// Hand the engine its open WAL + checkpoint stores.  Called by the
    /// builder once construction (and any replay) is complete.
    pub(crate) fn attach_durability(&mut self, handle: DurabilityHandle) {
        self.durability = Some(handle);
    }

    // ---------------------------------------------------------------- outputs
    //
    // Thin wrappers over the current snapshot, kept for single-threaded
    // callers; serving threads should hold a [`Snapshot`] (or a
    // [`SnapshotReader`]) instead and query it directly.

    /// Facts of `relation` whose marginal probability is at least `threshold`.
    pub fn extract_facts(&self, relation: &str, threshold: f64) -> Vec<(Tuple, f64)> {
        self.snapshot().extract_facts(relation, threshold)
    }

    /// Quality of the facts currently extracted from `relation` (using the
    /// configured threshold) against a ground-truth set.
    pub fn quality(&self, relation: &str, truth: &HashSet<Tuple>) -> QualityReport {
        self.snapshot().quality(relation, truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability;
    use dd_grounding::{parse_program, standard_udfs};
    use dd_relstore::{tuple, DataType, Schema};

    const PROGRAM: &str = r#"
        relation Sentence(s: int, content: text) base.
        relation PersonCandidate(s: int, m: int, t: text) base.
        relation EL(m: int, e: text) base.
        relation Married(e1: text, e2: text) base.
        relation MarriedCandidate(m1: int, m2: int) derived.
        relation MarriedMentions(m1: int, m2: int) variable.

        rule R1 candidate:
          MarriedCandidate(m1, m2) :-
            PersonCandidate(s, m1, t1), PersonCandidate(s, m2, t2), m1 < m2.

        rule FE1 feature:
          MarriedMentions(m1, m2) :-
            MarriedCandidate(m1, m2),
            PersonCandidate(s, m1, t1), PersonCandidate(s, m2, t2),
            Sentence(s, content)
          weight = phrase(t1, t2, content).

        rule S1 supervision+:
          MarriedMentions(m1, m2) :-
            MarriedCandidate(m1, m2), EL(m1, e1), EL(m2, e2), Married(e1, e2).
    "#;

    fn database() -> Database {
        let mut db = Database::new();
        db.create_table(
            "Sentence",
            Schema::of(&[("s", DataType::Int), ("content", DataType::Text)]),
        )
        .unwrap();
        db.create_table(
            "PersonCandidate",
            Schema::of(&[
                ("s", DataType::Int),
                ("m", DataType::Int),
                ("t", DataType::Text),
            ]),
        )
        .unwrap();
        db.create_table(
            "EL",
            Schema::of(&[("m", DataType::Int), ("e", DataType::Text)]),
        )
        .unwrap();
        db.create_table(
            "Married",
            Schema::of(&[("e1", DataType::Text), ("e2", DataType::Text)]),
        )
        .unwrap();
        // Three "documents": two with the spouse phrase, one with a neutral one.
        db.insert_all(
            "Sentence",
            vec![
                tuple![1i64, "Barack and his wife Michelle attended the dinner"],
                tuple![2i64, "George and his wife Laura were married"],
                tuple![3i64, "Malia and Sasha attended the state dinner"],
            ],
        )
        .unwrap();
        db.insert_all(
            "PersonCandidate",
            vec![
                tuple![1i64, 10i64, "Barack"],
                tuple![1i64, 11i64, "Michelle"],
                tuple![2i64, 20i64, "George"],
                tuple![2i64, 21i64, "Laura"],
                tuple![3i64, 30i64, "Malia"],
                tuple![3i64, 31i64, "Sasha"],
            ],
        )
        .unwrap();
        db.insert_all(
            "EL",
            vec![
                tuple![10i64, "Barack_Obama_1"],
                tuple![11i64, "Michelle_Obama_1"],
            ],
        )
        .unwrap();
        db.insert_all(
            "Married",
            vec![tuple!["Barack_Obama_1", "Michelle_Obama_1"]],
        )
        .unwrap();
        db
    }

    fn engine() -> DeepDive {
        DeepDive::builder()
            .program(parse_program(PROGRAM).unwrap())
            .database(database())
            .udfs(standard_udfs())
            .config(EngineConfig::fast())
            .build()
            .unwrap()
    }

    /// [`engine`] with the symmetry rule of Figure 8's I1 on top: every pair
    /// is tied to its mirror image: two-variable components, enumerated.
    fn coupled_engine() -> DeepDive {
        let mut program = parse_program(PROGRAM).unwrap();
        program.rules.push(
            dd_grounding::parse_rule(
                "rule I1 inference: MarriedMentions(m2, m1) :- MarriedMentions(m1, m2) \
                 weight = 1.5.",
            )
            .unwrap(),
        );
        DeepDive::builder()
            .program(program)
            .database(database())
            .udfs(standard_udfs())
            .config(EngineConfig::fast())
            .build()
            .unwrap()
    }

    #[test]
    fn initial_run_learns_the_spouse_phrase() {
        let mut dd = engine();
        let report = dd.initial_run().unwrap();
        assert!(report.new_variables >= 3);
        assert!(report.grounding_secs + report.inference_and_learning_secs() >= 0.0);

        // The supervised pair has probability 1; the George/Laura pair shares the
        // "and his wife" feature and should get a high probability; the
        // Malia/Sasha pair should not.
        let supervised = dd
            .snapshot()
            .probability_of("MarriedMentions", &tuple![10i64, 11i64])
            .unwrap();
        assert_eq!(supervised, 1.0);
        let same_phrase = dd
            .snapshot()
            .probability_of("MarriedMentions", &tuple![20i64, 21i64])
            .unwrap();
        let other = dd
            .snapshot()
            .probability_of("MarriedMentions", &tuple![30i64, 31i64])
            .unwrap();
        assert!(
            same_phrase > other,
            "same-phrase pair {same_phrase} should beat {other}"
        );
    }

    #[test]
    fn incremental_update_with_new_document() {
        let mut dd = engine();
        dd.initial_run().unwrap();
        dd.materialize().unwrap();

        let mut update = KbcUpdate::new();
        update
            .insert(
                "Sentence",
                tuple![4i64, "Franklin and his wife Eleanor hosted the gala"],
            )
            .insert("PersonCandidate", tuple![4i64, 40i64, "Franklin"])
            .insert("PersonCandidate", tuple![4i64, 41i64, "Eleanor"]);

        let report = dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        assert_eq!(report.mode, ExecutionMode::Incremental);
        assert_eq!(report.new_variables, 1);
        // New factors → the optimizer picks the sampling strategy.
        assert_eq!(report.strategy, Some(StrategyChoice::Sampling));
        let p = dd
            .snapshot()
            .probability_of("MarriedMentions", &tuple![40i64, 41i64])
            .unwrap();
        assert!(
            p > 0.5,
            "new pair sharing the learned spouse phrase should be likely, got {p}"
        );
    }

    #[test]
    fn supervision_update_routes_to_variational() {
        let mut dd = engine();
        dd.initial_run().unwrap();
        dd.materialize().unwrap();

        // New distant-supervision fact labels the George/Laura pair.
        let mut update = KbcUpdate::new();
        update
            .insert("EL", tuple![20i64, "George_Bush_1"])
            .insert("EL", tuple![21i64, "Laura_Bush_1"])
            .insert("Married", tuple!["George_Bush_1", "Laura_Bush_1"]);

        let report = dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        assert_eq!(report.strategy, Some(StrategyChoice::Variational));
        let p = dd
            .snapshot()
            .probability_of("MarriedMentions", &tuple![20i64, 21i64])
            .unwrap();
        assert_eq!(p, 1.0);
    }

    #[test]
    fn rerun_and_incremental_agree_on_high_confidence_facts() {
        let mut update = KbcUpdate::new();
        update
            .insert(
                "Sentence",
                tuple![4i64, "Franklin and his wife Eleanor hosted the gala"],
            )
            .insert("PersonCandidate", tuple![4i64, 40i64, "Franklin"])
            .insert("PersonCandidate", tuple![4i64, 41i64, "Eleanor"]);

        let mut incremental = engine();
        incremental.initial_run().unwrap();
        incremental.materialize().unwrap();
        incremental
            .run_update(&update, ExecutionMode::Incremental)
            .unwrap();

        let mut rerun = engine();
        rerun.initial_run().unwrap();
        rerun.run_update(&update, ExecutionMode::Rerun).unwrap();

        // §4.2: high-confidence facts of the two executions overlap heavily.
        let inc_facts: HashSet<Tuple> = incremental
            .extract_facts("MarriedMentions", 0.9)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        let rerun_facts: HashSet<Tuple> = rerun
            .extract_facts("MarriedMentions", 0.9)
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        // The supervised fact must be in both.
        assert!(inc_facts.contains(&tuple![10i64, 11i64]));
        assert!(rerun_facts.contains(&tuple![10i64, 11i64]));
    }

    #[test]
    fn quality_against_planted_truth() {
        let mut dd = engine();
        dd.initial_run().unwrap();
        let truth: HashSet<Tuple> = [tuple![10i64, 11i64], tuple![20i64, 21i64]]
            .into_iter()
            .collect();
        let q = dd.quality("MarriedMentions", &truth);
        assert!(q.precision > 0.0);
        assert!(q.recall > 0.0);
        assert!(q.extracted >= 1);
    }

    #[test]
    fn extract_facts_respects_threshold() {
        let mut dd = engine();
        dd.initial_run().unwrap();
        let all = dd.extract_facts("MarriedMentions", 0.0);
        let high = dd.extract_facts("MarriedMentions", 0.99);
        assert!(all.len() >= high.len());
        assert!(high.iter().all(|(_, p)| *p >= 0.99));
        // unknown relation -> empty
        assert!(dd.extract_facts("Nothing", 0.0).is_empty());
    }

    #[test]
    fn update_without_materialization_falls_back_to_full_gibbs() {
        let mut dd = engine();
        dd.initial_run().unwrap();
        let mut update = KbcUpdate::new();
        update.insert("PersonCandidate", tuple![3i64, 32i64, "Joe"]);
        let report = dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        // The optimizer still chooses, but with nothing materialized the
        // round runs full Gibbs (no MH chain) and publishes regardless.
        assert!(report.strategy.is_some());
        assert_eq!(report.acceptance_rate, None);
        assert!(report.inference_secs >= 0.0);
        assert_eq!(dd.epoch(), 2);
        let snapshot = dd.snapshot();
        assert_eq!(snapshot.epoch(), 2);
        assert!(snapshot
            .probability_of("MarriedMentions", &tuple![30i64, 32i64])
            .is_some());
        // Materializing and refreshing publishes, and the next update too.
        dd.materialize().unwrap();
        dd.refresh().unwrap();
        assert_eq!(dd.epoch(), 3);
        let mut update = KbcUpdate::new();
        update.insert("PersonCandidate", tuple![3i64, 33i64, "Jill"]);
        dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        assert_eq!(dd.epoch(), 4);
    }

    #[test]
    fn update_rule_with_unknown_udf_is_rejected_before_grounding() {
        use dd_grounding::{Rule, RuleAtom, RuleKind, WeightSpec};
        use dd_relstore::Term;

        let mut dd = engine();
        dd.initial_run().unwrap();
        let vars_before = dd.graph().num_variables();
        let epoch_before = dd.epoch();

        let mut update = KbcUpdate::new();
        update.insert("PersonCandidate", tuple![3i64, 32i64, "Joe"]);
        update.add_rule(Rule::new(
            "FE_typo",
            RuleKind::FeatureExtraction,
            RuleAtom::new("MarriedMentions", vec![Term::var("m1"), Term::var("m2")]),
            vec![RuleAtom::new(
                "MarriedCandidate",
                vec![Term::var("m1"), Term::var("m2")],
            )],
            WeightSpec::Tied {
                udf: "phrse".into(), // typo: not registered
                args: vec![],
            },
        ));
        let err = dd
            .run_update(&update, ExecutionMode::Incremental)
            .unwrap_err();
        match err {
            EngineError::Udf { rule, udf, .. } => {
                assert_eq!(rule, "FE_typo");
                assert_eq!(udf, "phrse");
            }
            other => panic!("expected Udf error, got {other:?}"),
        }
        // Rejected before grounding: no data applied, no epoch published.
        assert_eq!(dd.graph().num_variables(), vars_before);
        assert_eq!(dd.epoch(), epoch_before);
    }

    #[test]
    fn snapshots_are_epoch_consistent_across_updates() {
        let mut dd = engine();
        assert_eq!(dd.snapshot().epoch(), 0);
        dd.initial_run().unwrap();
        dd.materialize().unwrap();
        let epoch1 = dd.snapshot();
        assert_eq!(epoch1.epoch(), 1);
        let facts_before = epoch1.extract_facts("MarriedMentions", 0.0).len();

        let mut update = KbcUpdate::new();
        update
            .insert(
                "Sentence",
                tuple![4i64, "Franklin and his wife Eleanor hosted the gala"],
            )
            .insert("PersonCandidate", tuple![4i64, 40i64, "Franklin"])
            .insert("PersonCandidate", tuple![4i64, 41i64, "Eleanor"]);
        dd.run_update(&update, ExecutionMode::Incremental).unwrap();

        // The old handle still serves its own epoch: the new pair is invisible.
        assert_eq!(epoch1.epoch(), 1);
        assert_eq!(
            epoch1.probability_of("MarriedMentions", &tuple![40i64, 41i64]),
            None
        );
        assert_eq!(
            epoch1.extract_facts("MarriedMentions", 0.0).len(),
            facts_before
        );
        // The fresh snapshot sees it.
        let epoch2 = dd.snapshot();
        assert_eq!(epoch2.epoch(), 2);
        assert!(epoch2
            .probability_of("MarriedMentions", &tuple![40i64, 41i64])
            .is_some());
    }

    #[test]
    fn variational_update_after_sampling_served_growth_keeps_full_coverage() {
        // materialize() at N variables; a document update grows the graph
        // (served by sampling); a later supervision-only update routes to the
        // variational strategy, whose materialized approx graph predates the
        // growth.  It samples over the current graph's variables plus every
        // factor added since, so it publishes marginals over the *full*
        // graph — the grown fact stays visible in every later epoch.
        let mut dd = engine();
        dd.initial_run().unwrap();
        dd.materialize().unwrap();

        let mut grow = KbcUpdate::new();
        grow.insert(
            "Sentence",
            tuple![4i64, "Franklin and his wife Eleanor hosted the gala"],
        )
        .insert("PersonCandidate", tuple![4i64, 40i64, "Franklin"])
        .insert("PersonCandidate", tuple![4i64, 41i64, "Eleanor"]);
        let report = dd.run_update(&grow, ExecutionMode::Incremental).unwrap();
        assert_eq!(report.strategy, Some(StrategyChoice::Sampling));
        assert_eq!(report.new_variables, 1);

        let mut label = KbcUpdate::new();
        label
            .insert("EL", tuple![20i64, "George_Bush_1"])
            .insert("EL", tuple![21i64, "Laura_Bush_1"])
            .insert("Married", tuple!["George_Bush_1", "Laura_Bush_1"]);
        dd.run_update(&label, ExecutionMode::Incremental).unwrap();

        let snap = dd.snapshot();
        assert_eq!(snap.stats().num_variables, snap.marginals().len());
        assert!(
            snap.probability_of("MarriedMentions", &tuple![40i64, 41i64])
                .is_some(),
            "fact from the sampling-served growth update must survive the later epoch"
        );
        assert_eq!(
            snap.probability_of("MarriedMentions", &tuple![20i64, 21i64]),
            Some(1.0)
        );
    }

    /// The change accumulated since materialization, as a checkpoint records it.
    fn accumulated(dd: &DeepDive) -> DistributionChange {
        dd.materialized
            .as_ref()
            .map(|m| m.change.clone())
            .unwrap_or_default()
    }

    /// `update` plus distant supervision labelling the mention pair `(m1, m2)`.
    fn with_label(mut update: KbcUpdate, m1: i64, m2: i64) -> KbcUpdate {
        let (e1, e2) = (format!("E{m1}"), format!("E{m2}"));
        update
            .insert("EL", tuple![m1, e1.as_str()])
            .insert("EL", tuple![m2, e2.as_str()])
            .insert("Married", tuple![e1.as_str(), e2.as_str()]);
        update
    }

    #[test]
    fn variational_rounds_keep_every_change_since_materialization() {
        // Two supervision rounds after one materialize(), both served by the
        // variational strategy: the second round's approximation must still
        // carry the first round's label, not just its own.
        let mut dd = coupled_engine();
        dd.initial_run().unwrap();
        dd.materialize().unwrap();
        for (m1, m2) in [(20, 21), (30, 31)] {
            let report = dd
                .run_update(
                    &with_label(KbcUpdate::new(), m1, m2),
                    ExecutionMode::Incremental,
                )
                .unwrap();
            assert_eq!(report.strategy, Some(StrategyChoice::Variational));
        }
        for pair in [tuple![20i64, 21i64], tuple![30i64, 31i64]] {
            assert_eq!(
                dd.snapshot().probability_of("MarriedMentions", &pair),
                Some(1.0)
            );
        }
    }

    /// Items whose `On` variables are tied together by rule `C`, so linked
    /// items form one query component.  (Its body variable `a` is not
    /// projected — a known grounding gap — so every `C` factor ties its
    /// head to one shared `On(NULL)`: one star-shaped component either way.)
    const CHAIN_PROGRAM: &str = "
        relation Item(id: int) base.
        relation Link(a: int, b: int) base.
        relation Label(id: int) base.
        relation Boost(id: int) base.
        relation On(id: int) variable.
        rule F feature: On(id) :- Item(id) weight = 0.5.
        rule C inference: On(b) :- Link(a, b), On(a) weight = 0.8.
        rule S supervision+: On(id) :- Item(id), Label(id).
    ";

    /// An engine over `n` linked items, not yet run.
    fn chain_builder(n: i64) -> crate::builder::DeepDiveBuilder {
        let mut db = Database::new();
        for table in ["Item", "Label", "Boost"] {
            db.create_table(table, Schema::of(&[("id", DataType::Int)]))
                .unwrap();
        }
        db.create_table(
            "Link",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
        )
        .unwrap();
        db.insert_all("Item", (0..n).map(|id| tuple![id]).collect::<Vec<_>>())
            .unwrap();
        db.insert_all(
            "Link",
            (1..n).map(|id| tuple![id - 1, id]).collect::<Vec<_>>(),
        )
        .unwrap();
        DeepDive::builder()
            .program_text(CHAIN_PROGRAM)
            .database(db)
            .config(EngineConfig::fast())
    }

    /// `n` linked items: a component far above the enumeration limit, which
    /// the materialization stores a column for every variable of.
    fn chain_engine(n: i64) -> DeepDive {
        let mut dd = chain_builder(n).build().unwrap();
        dd.initial_run().unwrap();
        dd.materialize().unwrap();
        let flat = dd.graph().compile();
        assert!(flat.sampled_query_variables().len() >= n as usize);
        let columns = dd.materialization().unwrap().sampling.samples().columns();
        assert_eq!(columns, flat.sampled_query_variables());
        dd
    }

    #[test]
    fn a_variational_round_serves_the_components_it_has_columns_for() {
        // Labelling an item leaves the large component(s) above the limit
        // and stored: the approximation over the current graph and the
        // accumulated change serves them.
        let mut dd = chain_engine(40);
        let mut update = KbcUpdate::new();
        update.insert("Label", tuple![20i64]);
        let report = dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        assert_eq!(report.strategy, Some(StrategyChoice::Variational));
        assert_eq!(
            dd.snapshot().probability_of("On", &tuple![20i64]),
            Some(1.0)
        );

        let expected = dd.materialization().unwrap().variational.infer(
            dd.graph(),
            &accumulated(&dd),
            &dd.config.gibbs,
            dd.config.seed,
        );
        let flat = dd.graph().compile();
        assert!(!flat.sampled_query_variables().is_empty());
        let published = dd.snapshot();
        for &v in flat.sampled_query_variables() {
            assert_eq!(
                published.marginals().get(v).to_bits(),
                expected.get(v).to_bits(),
                "variable {v}"
            );
        }
    }

    #[test]
    fn a_sampling_round_serves_the_stored_components_by_mh() {
        // A new feature over old items only: every variable of the one
        // large component has a column, so the stored worlds serve it.
        let mut dd = chain_engine(30);
        let mut update = KbcUpdate::new();
        update.insert("Boost", tuple![3i64]);
        update.add_rule(
            dd_grounding::parse_rule("rule B feature: On(id) :- Item(id), Boost(id) weight = 1.0.")
                .unwrap(),
        );
        let report = dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        assert_eq!(report.strategy, Some(StrategyChoice::Sampling));
        assert!(report.acceptance_rate.is_some(), "served by MH");
        assert!(!report.fell_back_to_variational);
    }

    #[test]
    fn a_large_component_that_gained_a_variable_is_gibbs_sampled() {
        // Item 30 joins the component: the stored worlds have no column for
        // it, so the component is not proposed from them; the round samples
        // it on the current graph — full Gibbs, as no other large component
        // is left for the store to serve.
        let mut dd = chain_engine(30);
        let mut update = KbcUpdate::new();
        update.insert("Item", tuple![30i64]);
        update.insert("Link", tuple![29i64, 30i64]);
        let report = dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        assert_eq!(report.strategy, Some(StrategyChoice::Sampling));
        assert_eq!(report.acceptance_rate, None, "no proposal was consumed");
        let expected = GibbsSampler::new(dd.graph(), dd.config.seed).run(&dd.config.gibbs);
        assert!(dd.snapshot().marginals().values() == expected.values());
    }

    #[test]
    fn an_unmaterialized_incremental_round_publishes_what_refresh_does() {
        // Neither round learns (an empty Δ changes no model), and neither
        // has a materialization to serve from: both reach the infer stage's
        // nothing-served path, one Gibbs run over the sampled component.
        let mut round = chain_builder(30).build().unwrap();
        let mut twin = chain_builder(30).build().unwrap();
        for dd in [&mut round, &mut twin] {
            dd.initial_run().unwrap();
        }
        assert!(!round.graph().compile().sampled_query_variables().is_empty());
        let report = round
            .run_update(&KbcUpdate::new(), ExecutionMode::Incremental)
            .unwrap();
        assert_eq!(report.acceptance_rate, None);
        twin.refresh().unwrap();
        let (a, b) = (round.snapshot(), twin.snapshot());
        assert_eq!(a.epoch(), b.epoch());
        assert!(a.marginals().values() == b.marginals().values());
    }

    fn franklin_document() -> KbcUpdate {
        let mut update = KbcUpdate::new();
        update
            .insert(
                "Sentence",
                tuple![4i64, "Franklin and his wife Eleanor hosted the gala"],
            )
            .insert("PersonCandidate", tuple![4i64, 40i64, "Franklin"])
            .insert("PersonCandidate", tuple![4i64, 41i64, "Eleanor"]);
        update
    }

    #[test]
    fn rerun_update_on_a_materialized_engine_stays_visible_to_sampling() {
        // A Rerun round changes the graph under the stored samples exactly as
        // an Incremental one does, so its new variables, factors and relearned
        // weights must reach the accumulated change: the next sampling-served
        // round would otherwise never sample the new pair and publish it at 0.
        let mut dd = engine();
        dd.initial_run().unwrap();
        dd.materialize().unwrap();
        dd.run_update(&franklin_document(), ExecutionMode::Rerun)
            .unwrap();
        let pair = tuple![40i64, 41i64];
        let full_gibbs = dd
            .snapshot()
            .probability_of("MarriedMentions", &pair)
            .unwrap();
        assert!(full_gibbs > 0.5, "well-supported pair, got {full_gibbs}");
        assert_eq!(accumulated(&dd).new_variables.len(), 1);
        assert!(!accumulated(&dd).new_factors.is_empty());

        let report = dd
            .run_update(&KbcUpdate::new(), ExecutionMode::Incremental)
            .unwrap();
        assert_eq!(report.strategy, Some(StrategyChoice::Sampling));
        assert!(!report.fell_back_to_variational);
        let sampled = dd
            .snapshot()
            .probability_of("MarriedMentions", &pair)
            .unwrap();
        assert!(
            (sampled - full_gibbs).abs() < 0.3,
            "MH over the stored samples gives {sampled}, full Gibbs gave {full_gibbs}"
        );
    }

    #[test]
    fn incremental_round_over_small_components_skips_the_materialization() {
        // The spouse program's query components are single pairs (with I1:
        // each pair and its mirror image), so every one is enumerated: the
        // sampling strategy is chosen, but nothing was stored and no
        // proposal is consumed — there is no acceptance rate to report.
        for mut dd in [engine(), coupled_engine()] {
            dd.initial_run().unwrap();
            dd.materialize().unwrap();
            assert_eq!(dd.materialization().unwrap().sample_storage_bytes(), 0);
            let report = dd
                .run_update(&franklin_document(), ExecutionMode::Incremental)
                .unwrap();
            assert_eq!(report.strategy, Some(StrategyChoice::Sampling));
            assert_eq!(report.acceptance_rate, None, "no proposal was consumed");
            assert!(!report.fell_back_to_variational);
            // What was published is exact, for old and new pairs.
            let flat = dd.graph().compile();
            assert!(flat.sampled_query_variables().is_empty());
            let mut exact = dd.snapshot().marginals().clone();
            enumerate_components(&flat, &mut exact);
            assert!(exact.values() == dd.snapshot().marginals().values());
            let pair = tuple![40i64, 41i64];
            assert!(
                dd.snapshot()
                    .probability_of("MarriedMentions", &pair)
                    .unwrap()
                    > 0.5
            );
        }
    }

    #[test]
    fn a_round_that_only_unpins_drops_the_materialization() {
        // Deleting the row a label came from un-pins its head without
        // removing a factor or a variable.  No `DistributionChange` can
        // describe an un-pin, so MH over samples drawn while the variable was
        // pinned would keep publishing it at 1.0: the round must drop the
        // materialization and run full Gibbs instead.
        let program = parse_program(
            "relation Claim(doc: int, id: int) base.\n\
             relation Pos(doc: int, id: int) base.\n\
             relation Link(doc: int, a: int, b: int) base.\n\
             relation Fact(doc: int, id: int) variable.\n\
             relation Rel(doc: int, a: int, b: int) variable.\n\
             rule F feature: Fact(doc, id) :- Claim(doc, id) weight = 0.3.\n\
             rule SP supervision+: Fact(doc, id) :- Claim(doc, id), Pos(doc, id).\n\
             rule C inference: Rel(doc, a, b) :- Link(doc, a, b), Fact(doc, a) weight = 2.0.\n",
        )
        .unwrap();
        let mut db = Database::new();
        program.create_schema(&mut db);
        for doc in 0..20i64 {
            for id in 0..3i64 {
                db.insert("Claim", tuple![doc, id]).unwrap();
                db.insert("Link", tuple![doc, id, (id + 1) % 3]).unwrap();
            }
            db.insert("Pos", tuple![doc, 0i64]).unwrap();
        }
        let mut dd = DeepDive::builder()
            .program(program)
            .database(db)
            .udfs(standard_udfs())
            .config(EngineConfig::fast())
            .build()
            .unwrap();
        dd.initial_run().unwrap();
        dd.materialize().unwrap();
        let fact = tuple![5i64, 0i64];
        assert_eq!(dd.snapshot().probability_of("Fact", &fact), Some(1.0));

        let mut update = KbcUpdate::new();
        update.delete("Pos", fact.clone());
        let before = dd.graph().stats();
        let report = dd.run_update(&update, ExecutionMode::Incremental).unwrap();
        let after = dd.graph().stats();
        assert_eq!(
            (after.num_variables, after.num_factors),
            (before.num_variables, before.num_factors),
            "nothing was removed"
        );
        assert_eq!(report.acceptance_rate, None, "served by full Gibbs");
        assert!(dd.materialization().is_none());
        let p = dd.snapshot().probability_of("Fact", &fact).unwrap();
        assert!(p < 0.95, "the un-pinned variable is published at {p}");
    }

    #[test]
    fn change_accumulates_only_while_a_materialization_exists() {
        let grow = |dd: &mut DeepDive, mention: i64| {
            let mut update = KbcUpdate::new();
            update.insert("PersonCandidate", tuple![3i64, mention, "Joe"]);
            let report = dd.run_update(&update, ExecutionMode::Incremental).unwrap();
            assert!(report.new_variables > 0 && report.new_factors > 0);
        };
        // Never materialized: nothing to correct stored samples for.
        let mut dd = engine();
        dd.initial_run().unwrap();
        for i in 0..20 {
            grow(&mut dd, 32 + i);
        }
        assert!(accumulated(&dd).is_empty());

        // Materialized: the change accumulates...
        dd.materialize().unwrap();
        grow(&mut dd, 60);
        assert!(!accumulated(&dd).is_empty());
        // ...until a retraction drops the materialization, and stays empty
        // until the next one is built.
        let mut delete = KbcUpdate::new();
        delete.delete("PersonCandidate", tuple![3i64, 60i64, "Joe"]);
        dd.run_update(&delete, ExecutionMode::Incremental).unwrap();
        assert!(dd.materialization().is_none());
        grow(&mut dd, 61);
        assert!(accumulated(&dd).is_empty());
    }

    /// `(fixed, learnable)`: the weights of two rules one `mode` round adds
    /// to a materialized engine — `weight = 1.5` and `weight = learn(0.5)` —
    /// after the round learned at rate 0, i.e. where its learning started.
    fn added_rule_weights(mode: ExecutionMode) -> (f64, f64) {
        let mut config = EngineConfig::fast();
        config.learn.learning_rate = 0.0;
        let mut dd = DeepDive::builder()
            .program(parse_program(PROGRAM).unwrap())
            .database(database())
            .udfs(standard_udfs())
            .config(config)
            .build()
            .unwrap();
        dd.initial_run().unwrap();
        dd.materialize().unwrap();
        let mut update = KbcUpdate::new();
        for rule in [
            "rule I1 inference: MarriedMentions(m2, m1) :- MarriedMentions(m1, m2) weight = 1.5.",
            "rule FE3 feature: MarriedMentions(m1, m2) :- MarriedCandidate(m1, m2) \
             weight = learn(0.5).",
        ] {
            update.add_rule(dd_grounding::parse_rule(rule).unwrap());
        }
        dd.run_update(&update, mode).unwrap();
        let weight = |description| {
            let w = dd
                .grounder()
                .weight_for(description)
                .expect("rule grounded");
            dd.graph().weight(w).value
        };
        (weight("I1::fixed"), weight("FE3::rule"))
    }

    #[test]
    fn a_warm_round_learns_new_weights_from_their_declared_values() {
        let incremental = added_rule_weights(ExecutionMode::Incremental);
        assert_eq!(incremental, (1.5, 0.5));
        assert_eq!(incremental, added_rule_weights(ExecutionMode::Rerun));
    }

    #[test]
    fn fact_query_on_engine_snapshot_paginates() {
        let mut dd = engine();
        dd.initial_run().unwrap();
        let snap = dd.snapshot();
        let all = snap.facts("MarriedMentions").run();
        assert_eq!(all.len(), 3);
        let top = snap.facts("MarriedMentions").top_k(1).run();
        assert_eq!(top[0].0, tuple![10i64, 11i64]); // the supervised pair at 1.0
        let page = snap.facts("MarriedMentions").offset(2).limit(5).run();
        assert_eq!(page.len(), 1);
    }

    // ------------------------------------------------------------ durability

    fn temp_data_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "deepdive-engine-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_engine(dir: &std::path::Path) -> DeepDive {
        DeepDive::builder()
            .program(parse_program(PROGRAM).unwrap())
            .database(database())
            .udfs(standard_udfs())
            .config(EngineConfig::fast())
            .durability(dd_storage::DurabilityConfig::new(dir))
            .build()
            .unwrap()
    }

    #[test]
    fn checkpoint_without_durability_is_a_typed_error() {
        let mut dd = engine();
        assert!(dd.durability.is_none());
        assert!(dd.last_wal_seq().is_none());
        match dd.checkpoint() {
            Err(EngineError::Storage(dd_storage::StorageError::NotConfigured)) => {}
            other => panic!("expected NotConfigured, got {other:?}"),
        }
    }

    #[test]
    fn durable_engine_recovers_exact_state_from_wal_replay() {
        let dir = temp_data_dir("replay");
        let reference = {
            let mut dd = durable_engine(&dir);
            assert!(dd.durability.is_some());
            dd.initial_run().unwrap();
            dd.materialize().unwrap();
            let mut update = KbcUpdate::new();
            update
                .insert("EL", tuple![20i64, "George_Bush_1"])
                .insert("EL", tuple![21i64, "Laura_Bush_1"])
                .insert("Married", tuple!["George_Bush_1", "Laura_Bush_1"]);
            dd.run_update(&update, ExecutionMode::Incremental).unwrap();
            // 3 logged ops on top of the baseline checkpoint; no checkpoint
            // since, so recovery is pure WAL replay.
            assert_eq!(dd.last_wal_seq(), Some(3));
            (dd.epoch(), durability::encode_snapshot(&dd.snapshot()))
        };

        let recovered = durable_engine(&dir);
        assert_eq!(recovered.epoch(), reference.0);
        assert_eq!(
            durability::encode_snapshot(&recovered.snapshot()),
            reference.1,
            "replayed snapshot must be byte-identical to the pre-shutdown one"
        );
        assert_eq!(
            recovered
                .snapshot()
                .probability_of("MarriedMentions", &tuple![10i64, 11i64]),
            Some(1.0)
        );
        assert_eq!(
            recovered
                .snapshot()
                .probability_of("MarriedMentions", &tuple![20i64, 21i64]),
            Some(1.0)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A [`CheckpointView`]'s bytes as a format-3 checkpoint wrote them: no
    /// `columns` member, one bit per variable of the graph in every sample,
    /// and a copy of the learned weights.
    fn as_format_3(
        checkpoint: &[u8],
        graph: &FactorGraph,
        samples: &dd_inference::SampleSet,
    ) -> Vec<u8> {
        use dd_wire::json::{parse, Json};
        fn member<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
            match j {
                Json::Object(members) => &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1,
                _ => panic!("{key}: not an object"),
            }
        }
        let mut doc = parse(std::str::from_utf8(checkpoint).unwrap()).unwrap();
        *member(&mut doc, "format") = Json::String("3".into());
        let store = member(
            member(member(&mut doc, "materialization"), "sampling"),
            "samples",
        );
        let Json::Object(fields) = store else {
            panic!("samples: not an object")
        };
        fields.retain(|(k, _)| k != "columns");
        let mut world = graph.initial_world();
        let bundles = (0..samples.len())
            .map(|i| {
                samples.load_row(i, &mut world);
                let bytes = (0..graph.num_variables().div_ceil(8)).map(|b| {
                    (0..8)
                        .filter(|bit| b * 8 + bit < world.len() && world.value(b * 8 + bit))
                        .fold(0u8, |byte, bit| byte | 1 << bit)
                });
                Json::String(bytes.map(|byte| format!("{byte:02x}")).collect())
            })
            .collect();
        *member(store, "bundles") = Json::Array(bundles);
        let Json::Object(top) = &mut doc else {
            unreachable!()
        };
        top.push(("learned_weights".into(), Json::Array(Vec::new())));
        doc.encode().into_bytes()
    }

    #[test]
    fn a_sampled_component_replays_and_recovers_bit_identically() {
        // The durable path of a sample store with columns: a format-4
        // checkpoint holding them, then MH over the stored worlds and a
        // Gibbs round of a component that gained a variable, replayed from
        // the WAL; then a checkpoint covering both rounds.
        use dd_wire::json::Encode;
        let dir = temp_data_dir("sampled");
        let open = || {
            chain_builder(30)
                .durability(dd_storage::DurabilityConfig::new(&dir))
                .build()
                .unwrap()
        };
        let state = |dd: &DeepDive| {
            let snapshot = dd.snapshot();
            dd.checkpoint_view(&snapshot).to_bytes()
        };
        let mut dd = open();
        dd.initial_run().unwrap();
        dd.materialize().unwrap();
        let store = dd.materialization().unwrap().sampling.samples().clone();
        assert!(store.columns().len() >= 30 && !store.is_empty());
        dd.checkpoint().unwrap();

        // A format-3 checkpoint of the same state keeps every variable per
        // sample; it decodes to the columns of the graph's large components.
        let legacy = as_format_3(&state(&dd), dd.graph(), &store);
        let decoded = durability::decode_checkpoint(&legacy).unwrap();
        assert!(decoded.materialization.unwrap().sampling.samples() == &store);

        let mut mh = KbcUpdate::new();
        mh.insert("Boost", tuple![3i64]);
        mh.add_rule(
            dd_grounding::parse_rule("rule B feature: On(id) :- Item(id), Boost(id) weight = 1.0.")
                .unwrap(),
        );
        let report = dd.run_update(&mh, ExecutionMode::Incremental).unwrap();
        assert!(report.acceptance_rate.is_some(), "served by MH");
        let mut gain = KbcUpdate::new();
        gain.insert("Item", tuple![30i64]);
        gain.insert("Link", tuple![29i64, 30i64]);
        let report = dd.run_update(&gain, ExecutionMode::Incremental).unwrap();
        assert_eq!(report.acceptance_rate, None, "Gibbs-sampled");
        let reference = state(&dd);
        drop(dd);

        let mut recovered = open();
        assert!(recovered.recovery_replay_errors().is_empty());
        assert!(state(&recovered) == reference, "replayed state differs");
        assert!(recovered.materialization().unwrap().sampling.samples() == &store);
        recovered.checkpoint().unwrap();
        drop(recovered);
        assert!(state(&open()) == reference, "checkpointed state differs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_supersedes_the_wal_and_recovery_matches() {
        let dir = temp_data_dir("checkpoint");
        let reference = {
            let mut dd = durable_engine(&dir);
            dd.initial_run().unwrap();
            dd.materialize().unwrap();
            let covered = dd.checkpoint().unwrap();
            assert_eq!(covered, 2);
            // Post-checkpoint update lives only in the WAL tail.
            let mut update = KbcUpdate::new();
            update
                .insert("EL", tuple![20i64, "George_Bush_1"])
                .insert("EL", tuple![21i64, "Laura_Bush_1"])
                .insert("Married", tuple!["George_Bush_1", "Laura_Bush_1"]);
            dd.run_update(&update, ExecutionMode::Incremental).unwrap();
            (dd.epoch(), durability::encode_snapshot(&dd.snapshot()))
        };

        let recovered = durable_engine(&dir);
        assert_eq!(recovered.epoch(), reference.0);
        assert_eq!(
            durability::encode_snapshot(&recovered.snapshot()),
            reference.1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_engine_keeps_serving_and_logging() {
        // Recovery is not read-only: the recovered engine must accept further
        // updates, checkpoint them, and recover *again*.
        let dir = temp_data_dir("continue");
        {
            let mut dd = durable_engine(&dir);
            dd.initial_run().unwrap();
            dd.materialize().unwrap();
        }
        let reference = {
            let mut dd = durable_engine(&dir);
            let mut update = KbcUpdate::new();
            update
                .insert("EL", tuple![20i64, "George_Bush_1"])
                .insert("EL", tuple![21i64, "Laura_Bush_1"])
                .insert("Married", tuple!["George_Bush_1", "Laura_Bush_1"]);
            dd.run_update(&update, ExecutionMode::Incremental).unwrap();
            dd.checkpoint().unwrap();
            (dd.epoch(), durability::encode_snapshot(&dd.snapshot()))
        };
        let recovered = durable_engine(&dir);
        assert_eq!(recovered.epoch(), reference.0);
        assert_eq!(
            durability::encode_snapshot(&recovered.snapshot()),
            reference.1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
