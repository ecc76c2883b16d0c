//! # deepdive-repro — umbrella crate
//!
//! A from-scratch Rust reproduction of *Incremental Knowledge Base Construction
//! Using DeepDive* (Shin et al., VLDB 2015).  This umbrella crate re-exports the
//! workspace's public API so examples, integration tests, and downstream users
//! can depend on a single crate:
//!
//! * [`relstore`] — the in-memory relational substrate with DRed view maintenance;
//! * [`factorgraph`] — factor graphs with Linear/Ratio/Logical rule semantics;
//! * [`inference`] — Gibbs sampling, learning, and the three incremental-inference
//!   materialization strategies;
//! * [`grounding`] — the DeepDive rule language, grounding, and incremental
//!   grounding;
//! * [`engine`] — the end-to-end engine: builder construction, typed
//!   [`engine::EngineError`]s, Rerun vs Incremental execution, and lock-free
//!   [`engine::Snapshot`] reads for multi-threaded serving;
//! * [`workloads`] — synthetic corpora, the five KBC systems, the Voting program,
//!   and the tradeoff-study graphs;
//! * [`wire`] — the offline wire format: hand-rolled JSON and length-prefixed
//!   framing, shared by the server and the bench tooling;
//! * [`storage`] — durable persistence: a CRC-checked write-ahead log,
//!   atomically-rotated checkpoint files, and the crash-recovery machinery
//!   behind [`engine::DeepDiveBuilder::durability`];
//! * [`server`] — the TCP front door: batched snapshot reads over a
//!   length-prefixed JSON protocol with bounded-queue backpressure, plus the
//!   blocking [`server::Client`];
//! * [`router`] — multi-engine KB sharding: a cluster of engines partitioned
//!   under a [`engine::ShardAssignment`], presented as one logical KB by a
//!   scatter-gather router with cross-shard epoch vectors and typed
//!   degradation.
//!
//! See `README.md` for a quickstart and `ARCHITECTURE.md` for the
//! paper-to-module map.

pub use dd_factorgraph as factorgraph;
pub use dd_grounding as grounding;
pub use dd_inference as inference;
pub use dd_relstore as relstore;
pub use dd_router as router;
pub use dd_server as server;
pub use dd_storage as storage;
pub use dd_wire as wire;
pub use dd_workloads as workloads;
pub use deepdive as engine;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use dd_factorgraph::{Factor, FactorGraph, FactorGraphBuilder, Semantics};
    pub use dd_grounding::{
        parse_program, standard_udfs, Grounder, GroundingError, KbcUpdate, Program, ProgramError,
    };
    pub use dd_inference::{GibbsOptions, GibbsSampler, LearnOptions, Learner, Marginals};
    pub use dd_relstore::{DataType, Database, RelError, Schema, Tuple, Value};
    pub use dd_router::{
        Cluster, ClusterConfig, ClusterError, Router, RouterBatch, RouterConfig, RouterError,
        RouterHandler,
    };
    pub use dd_server::{
        Client, ClientConfig, ClientError, FactQuerySpec, Op, OpResult, RetryPolicy, Server,
        ServerConfig, ServerStats,
    };
    pub use dd_workloads::{KbcSystem, RuleTemplate, SystemKind};
    pub use deepdive::{
        decode_snapshot, encode_snapshot, CatalogShard, CatalogShards, DeepDive, DeepDiveBuilder,
        DurabilityConfig, EngineConfig, EngineError, ExecutionMode, FactQuery, FsyncPolicy,
        RankedIndex, RelationIndex, ShardAssignment, ShardingError, Snapshot, SnapshotReader,
        StorageError, StrategyChoice,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let config = EngineConfig::fast();
        assert!(config.fact_threshold > 0.0);
        let _ = Semantics::Ratio;
    }
}
