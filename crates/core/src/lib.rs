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
//!   at [`DeepDiveBuilder::build`] time.
//! * **Typed errors** — every fallible path returns [`EngineError`],
//!   with source payloads chaining down to the grounding and relational
//!   layers; no `Result<_, String>` anywhere.
//! * **Lock-free read snapshots** — [`DeepDive::initial_run`] /
//!   [`DeepDive::run_update`] atomically publish an immutable
//!   [`Snapshot`] per epoch; any number of serving threads query
//!   `Arc<Snapshot>` handles (see [`DeepDive::reader`]) while the next update
//!   grounds, learns, and infers.  The variable catalog inside each snapshot
//!   is sharded per relation ([`CatalogShards`]): publishing after
//!   an update re-indexes only the relations that grew (O(Δ)), and every
//!   untouched shard is `Arc`-shared with the previous epoch's snapshot.
//!
//! The parts:
//!
//! * [`EngineConfig`] — engine configuration (sampler, learner, materialization).
//! * [`DeepDiveBuilder`] — the validated constructor.
//! * [`EngineError`] — the one error type.
//! * [`DeepDive`] — the engine: initial run, materialization, Rerun vs
//!   Incremental update execution, snapshot publication.
//! * [`Snapshot`], [`FactQuery`], and the [`SnapshotReader`] serving handle.
//! * [`Materialization`] — the combined sampling + variational materialization
//!   (§3.3: both are materialized, the choice is deferred to inference time).
//! * [`choose_strategy`] — the rule-based strategy optimizer of §3.3.
//! * [`decompose`] — Algorithm 2: grouping inactive variables (Appendix B.1).
//! * [`compare_learning_strategies`] — SGD/GD with and without warmstart
//!   (Appendix B.3).
//! * [`evaluate_quality`] — precision / recall / F1 against a ground-truth fact set.
//! * [`ShardAssignment`] — shard assignment (hash / range partition keys), used
//!   by the `dd-router` cluster layer to split a KB across engines.
//!
//! Every engine samples on its calling thread: full-Gibbs inference, both
//! learning chains and the materialization run the one sequential sampler,
//! so a run — and a WAL replay of it — is bit-deterministic per seed at any
//! graph size.  See
//! `PERFORMANCE.md` at the repo root for the runtime design and measured
//! numbers, and `ARCHITECTURE.md` for the paper-to-module map.

#![warn(unreachable_pub)]

mod builder;
mod config;
mod decomposition;
mod durability;
mod engine;
mod error;
mod incremental_learning;
mod materialization;
mod optimizer;
mod quality;
mod sharding;
mod snapshot;

pub use builder::DeepDiveBuilder;
pub use config::EngineConfig;
pub use decomposition::{decompose, DecompositionGroup};
pub use durability::{decode_snapshot, encode_snapshot};
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
