//! # deepdive — the end-to-end incremental KBC engine
//!
//! This crate ties the substrates together into the system the paper describes:
//! a DeepDive program plus input data goes through *candidate generation &
//! feature extraction*, *supervision*, *grounding*, *learning & inference*, and
//! *error analysis* (Figure 1), and — after an initial run has been
//! *materialized* — every subsequent KBC iteration can be executed either from
//! scratch (`Rerun`) or incrementally (`Incremental`), which is the comparison
//! of the paper's evaluation (§4).
//!
//! The public API is organized around three pillars:
//!
//! * **Builder construction** — [`DeepDive::builder`] names every input
//!   (program, database, UDFs, config) and validates the whole configuration
//!   at [`builder::DeepDiveBuilder::build`] time.
//! * **Typed errors** — every fallible path returns [`error::EngineError`],
//!   with source payloads chaining down to the grounding and relational
//!   layers; no `Result<_, String>` anywhere.
//! * **Lock-free read snapshots** — [`DeepDive::initial_run`] /
//!   [`DeepDive::run_update`] atomically publish an immutable
//!   [`snapshot::Snapshot`] per epoch; any number of serving threads query
//!   `Arc<Snapshot>` handles (see [`DeepDive::reader`]) while the next update
//!   grounds, learns, and infers.  The variable catalog inside each snapshot
//!   is sharded per relation ([`snapshot::CatalogShards`]): publishing after
//!   an update re-indexes only the relations that grew (O(Δ)), and every
//!   untouched shard is `Arc`-shared with the previous epoch's snapshot.
//!
//! Modules:
//!
//! * [`config`]   — engine configuration (sampler, learner, materialization).
//! * [`builder`]  — [`builder::DeepDiveBuilder`], the validated constructor.
//! * [`error`]    — [`error::EngineError`].
//! * [`engine`]   — the [`DeepDive`] engine: initial run, materialization,
//!   Rerun vs Incremental update execution, snapshot publication.
//! * [`snapshot`] — [`snapshot::Snapshot`], [`snapshot::FactQuery`], and the
//!   [`snapshot::SnapshotReader`] serving handle.
//! * [`materialization`] — the combined sampling + variational materialization
//!   (§3.3: both are materialized, the choice is deferred to inference time).
//! * [`optimizer`] — the rule-based strategy optimizer of §3.3.
//! * [`decomposition`] — Algorithm 2: grouping inactive variables (Appendix B.1).
//! * [`incremental_learning`] — SGD/GD with and without warmstart (Appendix B.3).
//! * [`quality`]  — precision / recall / F1 against a ground-truth fact set.
//! * [`sharding`] — shard-assignment helpers (hash / range partition keys)
//!   used by the `dd-router` cluster layer to split a KB across engines.
//!
//! Every engine samples on its calling thread: full-Gibbs inference, both
//! learning chains and the materialization run the one sequential sampler,
//! so a run — and a WAL replay of it — is bit-deterministic per seed at any
//! graph size.  See
//! `PERFORMANCE.md` at the repo root for the runtime design and measured
//! numbers, and `ARCHITECTURE.md` for the paper-to-module map.

pub mod builder;
pub mod config;
pub mod decomposition;
pub mod durability;
pub mod engine;
pub mod error;
pub mod incremental_learning;
pub mod materialization;
pub mod optimizer;
pub mod quality;
pub mod sharding;
pub mod snapshot;

pub use builder::DeepDiveBuilder;
pub use config::EngineConfig;
pub use decomposition::{decompose, DecompositionGroup};
pub use durability::{decode_snapshot, encode_snapshot, CHECKPOINT_FORMAT_VERSION};
pub use engine::{DeepDive, ExecutionMode, IterationReport};
pub use error::EngineError;
pub use incremental_learning::{compare_learning_strategies, LearningComparison};
pub use materialization::Materialization;
pub use optimizer::{choose_strategy, StrategyChoice};
pub use quality::{evaluate_quality, QualityReport};
pub use sharding::{ShardAssignment, ShardingError};
pub use snapshot::{
    CatalogShard, CatalogShards, FactQuery, RankedIndex, RelationIndex, Snapshot, SnapshotReader,
};

// Durability configuration lives in `dd-storage`; re-exported so callers can
// write `deepdive::DurabilityConfig` without a second dependency.
pub use dd_storage::{DurabilityConfig, FsyncPolicy, StorageError};
