//! # dd-router — multi-engine KB sharding behind one scatter-gather front door
//!
//! A single [`deepdive::DeepDive`] engine holds the whole knowledge base in
//! one process.  This crate scales that out: the KB is partitioned across N
//! independent engines under a [`deepdive::ShardAssignment`], each shard runs
//! its own WAL/checkpoint directory and snapshot stream, and a
//! router presents the cluster as one logical KB over the existing dd-wire
//! protocol.
//!
//! The crate has three layers:
//!
//! - [`Cluster`] — the deployment: partition a database, build one engine +
//!   one [`dd_server::Server`] per shard, apply updates to owning shards.
//! - [`Router`] — the scatter-gather core: fan a wire batch out to the
//!   shards it needs, one frame per shard, report the **cross-shard epoch
//!   vector** the answers came from, merge partial results into exactly the
//!   answer an unsharded engine would give, and degrade into typed
//!   `shard_unavailable` errors — never a hang — when shards are down.
//! - [`RouterHandler`] — the front door: a [`dd_server::BatchHandler`] pool serving
//!   routed batches through an unmodified wire server, so clients cannot
//!   tell a cluster from a single engine (except for the extra `epochs`
//!   vector in the batch envelope).
//!
//! ## Soundness contract
//!
//! Sharding is *transparent* — byte-identical answers to the unsharded
//! engine — when every rule joins relations on the full partition key.  Then
//! every grounding is shard-local, the per-shard factor graphs are disjoint
//! sub-graphs of the global one, and reads merge by order restoration alone
//! (shards own disjoint tuple sets).  `tests/router.rs` enforces this as a
//! differential oracle against a single-engine reference.
//!
//! ```no_run
//! use dd_router::{Cluster, ClusterConfig, RouterConfig};
//! use dd_grounding::standard_udfs;
//! use dd_relstore::{tuple, Database, DataType, Schema};
//!
//! let program = "relation Claim(doc: int, id: int) base.\n\
//!                relation Fact(doc: int, id: int) variable.\n\
//!                rule F feature: Fact(doc, id) :- Claim(doc, id) weight = 1.5.";
//! let mut db = Database::new();
//! let schema = Schema::of(&[("doc", DataType::Int), ("id", DataType::Int)]);
//! db.create_table("Claim", schema).unwrap();
//! db.insert("Claim", tuple![1i64, 10i64]).unwrap();
//!
//! let cluster = Cluster::build(program, &db, &standard_udfs(), &ClusterConfig::new(4))?;
//! cluster.initial_run()?;
//!
//! let mut router = cluster.router(RouterConfig::default())?;
//! let page = router.batch(&[dd_server::Op::AllFacts {
//!     min_probability: 0.5,
//!     offset: 0,
//!     limit: 100,
//! }])?;
//! println!("epoch vector: {:?}", page.epochs);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(unreachable_pub)]

mod cluster;
mod front;
mod router;

pub use cluster::{Cluster, ClusterConfig, ClusterError};
pub use front::RouterHandler;
pub use router::{Router, RouterBatch, RouterConfig, RouterError};
