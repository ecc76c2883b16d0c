//! An in-process sharded deployment: N independent [`DeepDive`] engines,
//! each serving its partition of the KB over its own [`dd_server::Server`].
//!
//! [`Cluster`] is the operational side of sharding.  It partitions the base
//! database under a [`ShardAssignment`], builds one engine per shard (every
//! shard runs the *full* program — partition-key joins make groundings
//! shard-local, so the union of shard answers equals the unsharded answer),
//! and binds one loopback server per shard.  Updates are split with
//! [`ShardAssignment::partition_update`] and applied only to the shards they
//! touch, so shard epochs advance independently — exactly the situation the
//! router's cross-shard epoch vector exists to make readable.
//!
//! Durability composes per shard: a template [`DurabilityConfig`] is
//! specialised to `data_dir/shard-<i>`, giving each engine its own WAL and
//! checkpoint stream with the same fsync/retention/auto-checkpoint policy.
//!
//! The cluster is deliberately process-local (engines behind `Mutex`es,
//! servers on loopback): it is the harness for differential testing and the
//! reference topology for a real multi-process deployment, which would run
//! the same binary once per shard.

use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dd_grounding::{KbcUpdate, UdfRegistry};
use dd_relstore::{Database, Tuple};
use dd_server::{Server, ServerConfig};
use deepdive::{
    DeepDive, DurabilityConfig, EngineConfig, EngineError, ExecutionMode, IterationReport,
    ShardAssignment, ShardingError,
};

use crate::front::RouterHandler;
use crate::router::{Router, RouterConfig};

/// How to build a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards (engines/servers) to run.
    pub num_shards: usize,
    /// How tuples map to shards.  Rules must join on the partition key for
    /// the sharding to be sound; see [`ShardAssignment`].
    pub assignment: ShardAssignment,
    /// Engine configuration, cloned into every shard.
    pub engine: EngineConfig,
    /// Per-shard server configuration, cloned into every shard.
    pub server: ServerConfig,
    /// Durability template: when set, shard `i` persists under
    /// `data_dir/shard-<i>` with this policy.
    pub durability: Option<DurabilityConfig>,
}

impl ClusterConfig {
    /// `num_shards` hash-partitioned on column 0, in-memory, default server
    /// settings.
    pub fn new(num_shards: usize) -> Self {
        ClusterConfig {
            num_shards,
            assignment: ShardAssignment::HashKey { column: 0 },
            engine: EngineConfig::default(),
            server: ServerConfig::default(),
            durability: None,
        }
    }
}

/// Why a cluster operation failed.
#[derive(Debug)]
pub enum ClusterError {
    /// A shard's engine rejected the operation.
    Engine { shard: usize, source: EngineError },
    /// The database or an update could not be partitioned.
    Sharding(ShardingError),
    /// Binding a shard server failed.
    Io(io::Error),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Engine { shard, source } => {
                write!(f, "shard {shard} engine error: {source}")
            }
            ClusterError::Sharding(err) => write!(f, "sharding error: {err}"),
            ClusterError::Io(err) => write!(f, "server bind error: {err}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ShardingError> for ClusterError {
    fn from(err: ShardingError) -> Self {
        ClusterError::Sharding(err)
    }
}

impl From<io::Error> for ClusterError {
    fn from(err: io::Error) -> Self {
        ClusterError::Io(err)
    }
}

struct Shard {
    engine: Mutex<DeepDive>,
    /// `None` after [`Cluster::kill_shard`]: the engine stays alive (its
    /// data is not lost) but the wire endpoint is gone.
    server: Option<Server>,
    addr: SocketAddr,
}

/// A process-local sharded deployment of N engines + N loopback servers.
pub struct Cluster {
    assignment: ShardAssignment,
    shards: Vec<Shard>,
}

impl Cluster {
    /// Partition `database` and bring up one engine + server per shard.
    ///
    /// Every shard compiles the full `program` over its slice of the data.
    /// Engines come up at epoch 0; call [`Cluster::initial_run`] (or replay
    /// durable state) to publish the first snapshot.
    pub fn build(
        program: &str,
        database: &Database,
        udfs: &UdfRegistry,
        config: &ClusterConfig,
    ) -> Result<Cluster, ClusterError> {
        config.assignment.validate(config.num_shards)?;
        let parts = config
            .assignment
            .partition_database(database, config.num_shards)?;
        let mut shards = Vec::with_capacity(config.num_shards);
        for (index, part) in parts.into_iter().enumerate() {
            let mut builder = DeepDive::builder()
                .program_text(program)
                .database(part)
                .udfs(udfs.clone())
                .config(config.engine.clone());
            if let Some(template) = &config.durability {
                let mut durability = template.clone();
                durability.data_dir = template.data_dir.join(format!("shard-{index}"));
                builder = builder.durability(durability);
            }
            let engine = builder.build().map_err(|source| ClusterError::Engine {
                shard: index,
                source,
            })?;
            let server = Server::bind("127.0.0.1:0", engine.reader(), config.server.clone())?;
            let addr = server.local_addr();
            shards.push(Shard {
                engine: Mutex::new(engine),
                server: Some(server),
                addr,
            });
        }
        Ok(Cluster {
            assignment: config.assignment.clone(),
            shards,
        })
    }

    /// The assignment tuples are routed under.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assignment
    }

    /// Shard server addresses, index-aligned with shard numbering (killed
    /// shards keep their — now dead — address).
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(|s| s.addr).collect()
    }

    /// Current per-shard epochs (the cluster-side view of the epoch vector).
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| self.lock(s).epoch()).collect()
    }

    /// Ground, learn, and publish epoch 1 on every shard.
    pub fn initial_run(&self) -> Result<Vec<IterationReport>, ClusterError> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                self.lock(s)
                    .initial_run()
                    .map_err(|source| ClusterError::Engine { shard, source })
            })
            .collect()
    }

    /// Split `update` along the partition key and run each non-empty slice
    /// on its owning shard.  Shards the update does not touch keep their
    /// epoch — the returned vector has `None` in those slots.
    ///
    /// New rules are broadcast to every shard (each shard grounds them over
    /// its own slice), so a rule-bearing update advances all epochs.
    pub fn run_update(
        &self,
        update: &KbcUpdate,
        mode: ExecutionMode,
    ) -> Result<Vec<Option<IterationReport>>, ClusterError> {
        let parts = self
            .assignment
            .partition_update(update, self.shards.len())?;
        parts
            .into_iter()
            .zip(&self.shards)
            .enumerate()
            .map(|(shard, (part, s))| {
                if part.is_empty() {
                    return Ok(None);
                }
                self.lock(s)
                    .run_update(&part, mode)
                    .map(Some)
                    .map_err(|source| ClusterError::Engine { shard, source })
            })
            .collect()
    }

    /// Retract one supervision label on the shard that owns `tuple`.
    pub fn retract_supervision(
        &self,
        relation: &str,
        tuple: Tuple,
    ) -> Result<IterationReport, ClusterError> {
        let shard = self.assignment.shard_of(&tuple, self.shards.len())?;
        self.lock(&self.shards[shard])
            .retract_supervision(relation, tuple)
            .map_err(|source| ClusterError::Engine { shard, source })
    }

    /// Direct access to one shard's engine (tests and operational tooling).
    pub fn engine(&self, shard: usize) -> MutexGuard<'_, DeepDive> {
        self.lock(&self.shards[shard])
    }

    /// Tear down one shard's server, keeping its engine (and durable state)
    /// intact.  Routed batches that need this shard now degrade into typed
    /// `shard_unavailable` errors until a new deployment rebinds it.
    pub fn kill_shard(&mut self, shard: usize) {
        if let Some(server) = self.shards[shard].server.take() {
            server.shutdown();
        }
    }

    /// Whether the shard's server is still up.
    pub fn is_alive(&self, shard: usize) -> bool {
        self.shards[shard].server.is_some()
    }

    /// One shard server's live counters (`None` once the shard is killed).
    /// The repository benchmark's serving workloads
    /// (`src/bin/benchmark/serve.rs`) sum these across shards to report
    /// shard-side overload rejections and queue-wait/service-time totals
    /// that the front door's own stats cannot see.
    pub fn server_stats(&self, shard: usize) -> Option<dd_server::ServerStats> {
        self.shards[shard].server.as_ref().map(Server::stats)
    }

    /// A fresh scatter-gather client over this cluster's shards.
    pub fn router(&self, config: RouterConfig) -> Result<Router, ShardingError> {
        Router::new(self.assignment.clone(), &self.addrs(), config)
    }

    /// Bind the scatter-gather front door: a wire server whose batches are
    /// answered by a pool of routers over this cluster's shards.  Clients
    /// speak the ordinary dd-wire protocol to it and receive cross-shard
    /// epoch vectors in their batch envelopes.
    pub fn serve_front(
        &self,
        addr: &str,
        router: RouterConfig,
        server: ServerConfig,
        pool: usize,
    ) -> Result<Server, ClusterError> {
        let handler = RouterHandler::new(self.assignment.clone(), &self.addrs(), router, pool)?;
        Ok(Server::bind_with_handler(addr, Arc::new(handler), server)?)
    }

    fn lock<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, DeepDive> {
        shard.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            if let Some(server) = shard.server.take() {
                server.shutdown();
            }
        }
    }
}
