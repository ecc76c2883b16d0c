//! The scatter-gather router: one logical KB view over N shard servers.
//!
//! A [`Router`] owns one [`dd_server::Client`] per shard and turns a batch of
//! wire [`Op`]s into per-shard sub-batches:
//!
//! - **Broadcast ops** (`Epoch`, `Relations`, `Stats`, `Query`, `AllFacts`)
//!   fan out to every shard and the partial results are merged back into the
//!   exact answer the unsharded engine would give (see *Merge semantics*).
//! - **Keyed ops** (`ProbabilityOf`) route to the single shard that owns the
//!   tuple under the cluster's [`ShardAssignment`].
//! - `Sleep` is fault-injection for a single server and is rejected with
//!   `bad_request` — it has no meaning across shards.
//!
//! A batch runs on the calling thread: it writes every consulted shard's
//! sub-batch as one frame, then reads every reply, both in shard order.  The
//! shards work on their frames at once, so a batch costs its slowest shard.
//! A server reads a whole frame before executing it and frees its execution
//! slot before replying, so the unread replies block no one.
//!
//! # Epoch vector
//!
//! Shards publish epochs independently, so there is no single "cluster
//! epoch".  Instead every batch reports a **cross-shard epoch vector**: each
//! consulted shard receives its whole sub-batch as one request frame, and a
//! server answers a request from one pinned snapshot, so the epoch a shard
//! reports is the one every answer it gave came from.  Every result a batch
//! returns is therefore a consistent read of each consulted shard, and the
//! vector of consulted epochs is reported back (`None` entries are shards
//! the batch never touched).  One frame holds at most [`MAX_OPS_PER_BATCH`]
//! ops, so a batch that gives any shard more is refused with
//! [`RouterError::BadRequest`] before a shard is dialed.
//!
//! # Merge semantics
//!
//! Partition keys make shards disjoint, so merging is order restoration, not
//! deduplication.  Each merge mirrors the corresponding single-engine read
//! byte for byte:
//!
//! - unranked `Query`: shards are asked for the first `offset + limit` facts
//!   (tuple-ascending); the merged stream is re-sorted by tuple, then the
//!   global `offset`/`limit` window is applied.
//! - `top_k` `Query`: shards return their full local top-k; the union is
//!   re-ranked (probability descending, ties by tuple ascending — the same
//!   comparator as `FactQuery::run`), truncated to `k`, then paginated.
//!   The global top-k is always contained in the union of local top-k sets.
//! - `AllFacts`: per-shard windows of `offset + limit`, merged in
//!   `(relation, tuple)` order, then the global window is applied.
//! - `Relations`: sorted union.  `Stats`: field-wise sum.
//!
//! # Failure
//!
//! A shard that cannot be reached — dial failure, socket death, or a retry
//! budget exhausted against `overloaded`/`shutting_down` refusals — fails the
//! whole batch with a typed [`RouterError::ShardUnavailable`] naming the
//! shard.  The router never hangs and never silently drops a shard's slice
//! of the answer: a degraded cluster answers with a typed error, not with a
//! hole in the data.

use std::collections::{BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::time::Duration;

use dd_server::{
    Batch, Client, ClientConfig, ClientError, ErrorKind, FactQuerySpec, Op, OpResult, Request,
    Response, RetryPolicy, MAX_OPS_PER_BATCH,
};
use deepdive::{ShardAssignment, ShardingError};

/// The wire integer cap: `usize` fields are encoded as JSON numbers and
/// bounded at `u32::MAX` on decode, so rewritten windows clamp there.
const WIRE_USIZE_MAX: usize = u32::MAX as usize;

/// Connection and retry policy of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backoff schedule for `overloaded`/`shutting_down` refusals, applied
    /// per shard call.
    pub retry: RetryPolicy,
    /// Socket behaviour of each per-shard client.  The defaults bound every
    /// dial and every read, so a dead shard becomes a typed error instead of
    /// a hang.
    pub client: ClientConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            retry: RetryPolicy::default(),
            client: ClientConfig {
                connect_timeout: Some(Duration::from_secs(2)),
                read_timeout: Some(Duration::from_secs(30)),
            },
        }
    }
}

/// Why a routed batch failed.  Every variant is a *typed* outcome: the
/// router's contract is that a sick cluster degrades into one of these, never
/// into a hang or a partial answer.
#[derive(Debug)]
pub enum RouterError {
    /// A shard the batch needs is down or unreachable after the retry budget.
    ShardUnavailable {
        shard: usize,
        addr: SocketAddr,
        message: String,
    },
    /// The batch itself is not routable (e.g. contains `Sleep`, or gives one
    /// shard more than [`MAX_OPS_PER_BATCH`] ops).
    BadRequest(String),
    /// A keyed op's tuple cannot be mapped to a shard.
    Sharding(ShardingError),
    /// A shard answered with something the router cannot reconcile — a
    /// result-count or result-type mismatch.  Indicates a version skew or a
    /// bug, not load.
    Protocol { shard: usize, message: String },
}

impl RouterError {
    /// The wire taxonomy kind this error maps to when the router is serving
    /// as a front door.
    pub(crate) fn kind(&self) -> ErrorKind {
        match self {
            RouterError::ShardUnavailable { .. } => ErrorKind::ShardUnavailable,
            RouterError::BadRequest(_) | RouterError::Sharding(_) => ErrorKind::BadRequest,
            RouterError::Protocol { .. } => ErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::ShardUnavailable {
                shard,
                addr,
                message,
            } => write!(f, "shard {shard} ({addr}) is unavailable: {message}"),
            RouterError::BadRequest(message) => write!(f, "unroutable request: {message}"),
            RouterError::Sharding(err) => write!(f, "cannot route tuple: {err}"),
            RouterError::Protocol { shard, message } => {
                write!(f, "shard {shard} answered inconsistently: {message}")
            }
        }
    }
}

impl std::error::Error for RouterError {}

impl From<ShardingError> for RouterError {
    fn from(err: ShardingError) -> Self {
        RouterError::Sharding(err)
    }
}

/// A merged batch answer: one result per submitted op, plus the epoch vector
/// the answer was read from.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterBatch {
    /// Per-shard epochs; `None` entries are shards this batch never
    /// consulted.
    pub epochs: Vec<Option<u64>>,
    /// One result per op, in submission order.
    pub results: Vec<OpResult>,
}

/// Where one op goes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Target {
    /// Fan out to every shard and merge.
    All,
    /// Route to the single owning shard.
    One(usize),
}

/// One shard's connection slot.  Clients dial lazily and are dropped on
/// transport errors, so a shard that restarts is re-dialed transparently on
/// the next batch.
struct ShardSlot {
    addr: SocketAddr,
    client: Option<Client>,
}

impl ShardSlot {
    /// The shard's client, dialed first if the slot has none.
    fn client(&mut self, config: &RouterConfig) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            self.client = Some(Client::connect_with(self.addr, config.client.clone())?);
        }
        Ok(self.client.as_mut().expect("dialed above"))
    }
}

/// A multi-shard scatter-gather client presenting one logical KB.
pub struct Router {
    assignment: ShardAssignment,
    config: RouterConfig,
    shards: Vec<ShardSlot>,
}

impl Router {
    /// Build a router over `addrs` (one per shard, index-aligned with the
    /// cluster's shard numbering).  Connections are dialed lazily on first
    /// use.
    pub(crate) fn new(
        assignment: ShardAssignment,
        addrs: &[SocketAddr],
        config: RouterConfig,
    ) -> Result<Router, ShardingError> {
        assignment.validate(addrs.len())?;
        Ok(Router {
            assignment,
            config,
            shards: addrs
                .iter()
                .map(|&addr| ShardSlot { addr, client: None })
                .collect(),
        })
    }

    /// Execute a batch of ops against the cluster and merge the answer.
    ///
    /// Each consulted shard answers its sub-batch — the broadcast ops plus
    /// the keyed ops it owns — in one frame, so the sub-batch is held to the
    /// wire cap: a batch that gives one shard more than
    /// [`MAX_OPS_PER_BATCH`] ops is refused with [`RouterError::BadRequest`]
    /// before any shard is dialed.  A failure names the first failing shard.
    pub fn batch(&mut self, ops: &[Op]) -> Result<RouterBatch, RouterError> {
        let num_shards = self.shards.len();
        let mut targets = Vec::with_capacity(ops.len());
        for op in ops {
            targets.push(self.target_of(op)?);
        }

        // Build each shard's sub-batch (ops rewritten for local execution,
        // in submission order, so merging pops front-to-back).
        let mut plans: Vec<Vec<Op>> = (0..num_shards).map(|_| Vec::new()).collect();
        for (op, target) in ops.iter().zip(&targets) {
            match target {
                Target::One(shard) => plans[*shard].push(op.clone()),
                Target::All => {
                    let rewritten = rewrite_for_shard(op);
                    for plan in &mut plans {
                        plan.push(rewritten.clone());
                    }
                }
            }
        }

        if let Some(shard) = plans.iter().position(|p| p.len() > MAX_OPS_PER_BATCH) {
            return Err(RouterError::BadRequest(format!(
                "the batch gives shard {shard} {} ops; one shard answers at most \
                 {MAX_OPS_PER_BATCH} per batch",
                plans[shard].len()
            )));
        }

        // Scatter every frame (a failed write drops its client), then gather
        // every reply, even after a failure: no connection is left holding
        // an unread reply.
        let config = &self.config;
        let mut sent: Vec<Option<Result<bool, ClientError>>> = Vec::new();
        for (slot, plan) in self.shards.iter_mut().zip(&plans) {
            sent.push((!plan.is_empty()).then(|| {
                let written = slot.client(config)?.send(plan).is_ok();
                if !written {
                    slot.client = None;
                }
                Ok(written)
            }));
        }
        let mut epochs: Vec<Option<u64>> = vec![None; num_shards];
        let mut queues: Vec<VecDeque<OpResult>> =
            (0..num_shards).map(|_| VecDeque::new()).collect();
        let mut failure = None;
        let gather = self.shards.iter_mut().zip(&plans).zip(sent).enumerate();
        for (shard, ((slot, plan), sent)) in gather {
            let Some(sent) = sent else { continue };
            match sent.and_then(|written| call_shard(slot, plan, written, config)) {
                Ok(batch) => {
                    epochs[shard] = Some(batch.epoch);
                    queues[shard] = batch.results.into();
                }
                Err(err) => {
                    failure.get_or_insert((shard, slot.addr, err));
                }
            }
        }
        // The first failing shard fails the batch with a typed error.
        if let Some((shard, addr, err)) = failure {
            return Err(match err {
                ClientError::Protocol(message) => RouterError::Protocol { shard, message },
                err => RouterError::ShardUnavailable {
                    shard,
                    addr,
                    message: err.to_string(),
                },
            });
        }

        // Merge, popping each consulted shard's queue in submission order.
        let mut pop = |shard: usize| {
            queues[shard]
                .pop_front()
                .ok_or_else(|| RouterError::Protocol {
                    shard,
                    message: "returned fewer results than ops sent".to_string(),
                })
        };
        let mut results = Vec::with_capacity(ops.len());
        for (op, target) in ops.iter().zip(&targets) {
            results.push(match target {
                Target::One(shard) => pop(*shard)?,
                Target::All => {
                    let parts = (0..num_shards)
                        .map(|shard| Ok((shard, pop(shard)?)))
                        .collect::<Result<_, RouterError>>()?;
                    merge_broadcast(op, parts)?
                }
            });
        }

        Ok(RouterBatch { epochs, results })
    }

    /// Serve one wire [`Request`] — the front-door entry point.
    ///
    /// The response's `epochs` field carries the cross-shard epoch vector;
    /// its scalar `epoch` is only informational (the highest consulted shard
    /// epoch), since no single number can name a cross-shard read.
    pub(crate) fn execute(&mut self, request: &Request) -> Response {
        match self.batch(&request.ops) {
            Ok(batch) => {
                let epoch = batch.epochs.iter().filter_map(|e| *e).max().unwrap_or(0);
                Response::Batch(Batch {
                    epoch,
                    results: batch.results,
                    epochs: Some(batch.epochs),
                })
            }
            Err(err) => Response::error(err.kind(), err.to_string()),
        }
    }

    fn target_of(&self, op: &Op) -> Result<Target, RouterError> {
        match op {
            Op::Epoch | Op::Relations | Op::Stats | Op::Query { .. } | Op::AllFacts { .. } => {
                Ok(Target::All)
            }
            Op::ProbabilityOf { tuple, .. } => Ok(Target::One(
                self.assignment.shard_of(tuple, self.shards.len())?,
            )),
            Op::Sleep { .. } => Err(RouterError::BadRequest(
                "sleep is single-server fault injection and is not routable".to_string(),
            )),
        }
    }
}

/// Rewrite a broadcast op into the per-shard variant whose union contains
/// the global answer (pagination widened to `offset + limit`, ranking kept
/// at full local `top_k`).
fn rewrite_for_shard(op: &Op) -> Op {
    match op {
        Op::Query { relation, spec } => Op::Query {
            relation: relation.clone(),
            spec: FactQuerySpec {
                min_probability: spec.min_probability,
                top_k: spec.top_k.map(|k| k.min(WIRE_USIZE_MAX)),
                offset: 0,
                limit: match spec.top_k {
                    Some(_) => None,
                    None => spec
                        .limit
                        .map(|l| l.saturating_add(spec.offset).min(WIRE_USIZE_MAX)),
                },
            },
        },
        Op::AllFacts {
            min_probability,
            offset,
            limit,
        } => Op::AllFacts {
            min_probability: *min_probability,
            offset: 0,
            limit: limit.saturating_add(*offset).min(WIRE_USIZE_MAX),
        },
        other => other.clone(),
    }
}

/// Gather one shard's answer to its whole sub-batch, with transparent
/// reconnect: a transport error drops the cached client and re-dials once
/// before giving up.  If the scatter `written` the frame, the first attempt
/// only reads; a write that failed was the first attempt.
fn call_shard(
    slot: &mut ShardSlot,
    ops: &[Op],
    mut written: bool,
    config: &RouterConfig,
) -> Result<Batch, ClientError> {
    let mut redialed = !written;
    loop {
        let client = slot.client(config)?;
        let outcome = client.call_with_retry(&config.retry, |c| {
            if !std::mem::take(&mut written) {
                c.send(ops)?;
            }
            c.recv()
        });
        match outcome {
            Ok(batch) => return Ok(batch),
            Err(err @ (ClientError::Io(_) | ClientError::Frame(_))) => {
                slot.client = None;
                if redialed {
                    return Err(err);
                }
                redialed = true;
            }
            Err(err) => return Err(err),
        }
    }
}

/// Merge one broadcast op's per-shard partial results into the answer the
/// unsharded engine would give.
fn merge_broadcast(op: &Op, parts: Vec<(usize, OpResult)>) -> Result<OpResult, RouterError> {
    match op {
        Op::Epoch => Ok(OpResult::Empty),
        Op::Relations => {
            let mut names = BTreeSet::new();
            for (shard, part) in parts {
                let OpResult::Relations(part) = part else {
                    return Err(mismatch(shard, "relations", &part));
                };
                names.extend(part);
            }
            Ok(OpResult::Relations(names.into_iter().collect()))
        }
        Op::Stats => {
            let (mut variables, mut factors, mut weights, mut catalogued) = (0, 0, 0, 0);
            for (shard, part) in parts {
                let OpResult::Stats {
                    num_variables,
                    num_factors,
                    num_weights,
                    num_catalogued,
                } = part
                else {
                    return Err(mismatch(shard, "stats", &part));
                };
                variables += num_variables;
                factors += num_factors;
                // Weights belong to rules, and every shard compiles the full
                // program: the weight set is replicated, not partitioned.
                weights = num_weights.max(weights);
                catalogued += num_catalogued;
            }
            Ok(OpResult::Stats {
                num_variables: variables,
                num_factors: factors,
                num_weights: weights,
                num_catalogued: catalogued,
            })
        }
        Op::Query { spec, .. } => {
            let mut facts = Vec::new();
            for (shard, part) in parts {
                let OpResult::Facts(part) = part else {
                    return Err(mismatch(shard, "facts", &part));
                };
                facts.extend(part);
            }
            match spec.top_k {
                Some(k) => {
                    // The exact comparator of `FactQuery::run`'s ranked path:
                    // probability descending, ties by tuple ascending.
                    facts.sort_by(|a, b| {
                        b.1.partial_cmp(&a.1)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then_with(|| a.0.cmp(&b.0))
                    });
                    facts.truncate(k);
                }
                // Shards are tuple-disjoint, so sorting the union by tuple
                // restores the single-index scan order.
                None => facts.sort_by(|a, b| a.0.cmp(&b.0)),
            }
            let limit = spec.limit.unwrap_or(usize::MAX);
            Ok(OpResult::Facts(
                facts.into_iter().skip(spec.offset).take(limit).collect(),
            ))
        }
        Op::AllFacts { offset, limit, .. } => {
            let mut facts = Vec::new();
            for (shard, part) in parts {
                let OpResult::AllFacts(part) = part else {
                    return Err(mismatch(shard, "all_facts", &part));
                };
                facts.extend(part);
            }
            facts.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            Ok(OpResult::AllFacts(
                facts.into_iter().skip(*offset).take(*limit).collect(),
            ))
        }
        Op::ProbabilityOf { .. } | Op::Sleep { .. } => Err(RouterError::BadRequest(
            "keyed and fault-injection ops are never broadcast".to_string(),
        )),
    }
}

fn mismatch(shard: usize, wanted: &str, got: &OpResult) -> RouterError {
    RouterError::Protocol {
        shard,
        message: format!("expected a {wanted} result, got {got:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::tuple;
    use dd_server::{BatchHandler, Server, ServerConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    fn hash_router(num_shards: usize) -> Router {
        let addrs: Vec<SocketAddr> = (0..num_shards)
            .map(|i| format!("127.0.0.1:{}", 40000 + i).parse().unwrap())
            .collect();
        Router::new(
            ShardAssignment::HashKey { column: 0 },
            &addrs,
            RouterConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn broadcast_and_keyed_ops_pick_the_right_targets() {
        let router = hash_router(4);
        assert_eq!(router.target_of(&Op::Epoch).unwrap(), Target::All);
        assert_eq!(router.target_of(&Op::Relations).unwrap(), Target::All);
        let keyed = Op::probability_of("Fact", tuple![7i64, 1i64]);
        let Target::One(shard) = router.target_of(&keyed).unwrap() else {
            panic!("keyed op must route to one shard");
        };
        assert!(shard < 4);
        assert!(matches!(
            router.target_of(&Op::Sleep { millis: 1 }),
            Err(RouterError::BadRequest(_))
        ));
    }

    #[test]
    fn pagination_rewrites_widen_the_window_and_clamp_to_the_wire_cap() {
        let op = Op::Query {
            relation: "Fact".to_string(),
            spec: FactQuerySpec {
                min_probability: 0.5,
                top_k: None,
                offset: 10,
                limit: Some(5),
            },
        };
        let Op::Query { spec, .. } = rewrite_for_shard(&op) else {
            panic!("rewrite preserves the op kind");
        };
        assert_eq!(spec.offset, 0);
        assert_eq!(spec.limit, Some(15));

        let op = Op::AllFacts {
            min_probability: 0.0,
            offset: 3,
            limit: usize::MAX,
        };
        let Op::AllFacts { offset, limit, .. } = rewrite_for_shard(&op) else {
            panic!("rewrite preserves the op kind");
        };
        assert_eq!(offset, 0);
        assert_eq!(limit, WIRE_USIZE_MAX);
    }

    #[test]
    fn top_k_merge_reranks_across_shards() {
        let op = Op::Query {
            relation: "Fact".to_string(),
            spec: FactQuerySpec {
                min_probability: 0.0,
                top_k: Some(2),
                offset: 0,
                limit: None,
            },
        };
        let parts = vec![
            (
                0,
                OpResult::Facts(vec![(tuple![2i64], 0.9), (tuple![4i64], 0.2)]),
            ),
            (
                1,
                OpResult::Facts(vec![(tuple![1i64], 0.8), (tuple![3i64], 0.7)]),
            ),
        ];
        let OpResult::Facts(merged) = merge_broadcast(&op, parts).unwrap() else {
            panic!("query merges into facts");
        };
        assert_eq!(merged, vec![(tuple![2i64], 0.9), (tuple![1i64], 0.8)]);
    }

    #[test]
    fn unranked_merge_restores_tuple_order_and_applies_the_global_window() {
        let op = Op::Query {
            relation: "Fact".to_string(),
            spec: FactQuerySpec {
                min_probability: 0.0,
                top_k: None,
                offset: 1,
                limit: Some(2),
            },
        };
        let parts = vec![
            (
                0,
                OpResult::Facts(vec![(tuple![2i64], 0.5), (tuple![5i64], 0.5)]),
            ),
            (
                1,
                OpResult::Facts(vec![(tuple![1i64], 0.5), (tuple![4i64], 0.5)]),
            ),
        ];
        let OpResult::Facts(merged) = merge_broadcast(&op, parts).unwrap() else {
            panic!("query merges into facts");
        };
        assert_eq!(merged, vec![(tuple![2i64], 0.5), (tuple![4i64], 0.5)]);
    }

    #[test]
    fn stats_merge_sums_and_relations_merge_unions() {
        let parts = vec![
            (
                0,
                OpResult::Stats {
                    num_variables: 1,
                    num_factors: 2,
                    num_weights: 3,
                    num_catalogued: 4,
                },
            ),
            (
                1,
                OpResult::Stats {
                    num_variables: 10,
                    num_factors: 20,
                    num_weights: 30,
                    num_catalogued: 40,
                },
            ),
        ];
        let merged = merge_broadcast(&Op::Stats, parts).unwrap();
        assert_eq!(
            merged,
            OpResult::Stats {
                num_variables: 11,
                num_factors: 22,
                // Replicated across shards, so merged by max, not sum.
                num_weights: 30,
                num_catalogued: 44,
            }
        );

        let parts = vec![
            (0, OpResult::Relations(vec!["B".into(), "A".into()])),
            (1, OpResult::Relations(vec!["A".into(), "C".into()])),
        ];
        let OpResult::Relations(names) = merge_broadcast(&Op::Relations, parts).unwrap() else {
            panic!("relations merge");
        };
        assert_eq!(names, vec!["A".to_string(), "B".into(), "C".into()]);
    }

    #[test]
    fn result_type_mismatches_surface_as_protocol_errors() {
        let parts = vec![(0, OpResult::Empty)];
        let err = merge_broadcast(&Op::Relations, parts).unwrap_err();
        assert!(matches!(err, RouterError::Protocol { shard: 0, .. }));
        assert_eq!(err.kind(), ErrorKind::Internal);
    }

    #[test]
    fn an_unreachable_shard_is_a_typed_error_not_a_hang() {
        // Nothing listens on these ports; connect_timeout bounds the dial.
        let mut router = Router::new(
            ShardAssignment::HashKey { column: 0 },
            &[
                "127.0.0.1:1".parse().unwrap(),
                "127.0.0.1:2".parse().unwrap(),
            ],
            RouterConfig {
                retry: RetryPolicy {
                    max_attempts: 1,
                    ..RetryPolicy::default()
                },
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let err = router.batch(&[Op::Epoch]).unwrap_err();
        assert!(matches!(err, RouterError::ShardUnavailable { .. }));
        assert_eq!(err.kind(), ErrorKind::ShardUnavailable);
        assert!(err.to_string().contains("unavailable"));
    }

    #[test]
    fn a_shard_sub_batch_over_the_wire_cap_is_refused_before_any_dial() {
        // Nothing listens here: a dial would end in `ShardUnavailable`, so
        // `BadRequest` shows the refusal came first.
        let mut router = Router::new(
            ShardAssignment::HashKey { column: 0 },
            &["127.0.0.1:1".parse().unwrap()],
            RouterConfig::default(),
        )
        .unwrap();
        let ops = vec![Op::probability_of("Fact", tuple![7i64]); MAX_OPS_PER_BATCH + 1];
        let err = router.batch(&ops).unwrap_err();
        assert!(matches!(err, RouterError::BadRequest(_)), "{err}");
        assert!(err.to_string().contains("1025 ops"), "{err}");
    }

    // The scatter-gather against live shard servers: fan-out concurrency,
    // retries against `overloaded`, and the redial after a shard restart.

    /// A shard stand-in: sleeps `delay` per batch, refuses its first
    /// `refusals` batches as `overloaded`, and answers every other op `Empty`
    /// at epoch 0.
    struct TestShard {
        delay: Duration,
        refusals: AtomicUsize,
    }

    impl BatchHandler for TestShard {
        fn execute(&self, request: &Request) -> Response {
            std::thread::sleep(self.delay);
            let refuse = self
                .refusals
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if refuse {
                return Response::error(ErrorKind::Overloaded, "test refusal");
            }
            Response::Batch(Batch {
                epoch: 0,
                results: vec![OpResult::Empty; request.ops.len()],
                epochs: None,
            })
        }
    }

    fn serve(addr: &str, delay: Duration, refusals: usize) -> Server {
        let handler = TestShard {
            delay,
            refusals: AtomicUsize::new(refusals),
        };
        Server::bind_with_handler(addr, Arc::new(handler), ServerConfig::default())
            .expect("test shard binds")
    }

    fn router_over(shards: &[Server], retry: RetryPolicy) -> Router {
        let addrs: Vec<SocketAddr> = shards.iter().map(Server::local_addr).collect();
        Router::new(
            ShardAssignment::HashKey { column: 0 },
            &addrs,
            RouterConfig {
                retry,
                ..RouterConfig::default()
            },
        )
        .unwrap()
    }

    fn quick_retries(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn a_fan_out_batch_costs_its_slowest_shard_not_the_sum() {
        let delay = Duration::from_millis(100);
        let shards: Vec<Server> = (0..4).map(|_| serve("127.0.0.1:0", delay, 0)).collect();
        let mut router = router_over(&shards, RetryPolicy::default());
        // The first batch dials every shard; the timed one reuses the clients.
        router.batch(&[Op::Epoch]).unwrap();

        let start = Instant::now();
        let batch = router.batch(&[Op::Epoch]).unwrap();
        let elapsed = start.elapsed();
        // One shard at a time would take 4 × 100 ms.
        assert!(elapsed < 2 * delay, "fan-out took {elapsed:?}");
        assert_eq!(batch.epochs, vec![Some(0); 4]);
        assert_eq!(batch.results, vec![OpResult::Empty]);
        for shard in shards {
            shard.shutdown();
        }
    }

    #[test]
    fn the_router_rides_out_overloaded_within_its_retry_budget() {
        let cluster = || -> Vec<Server> {
            (0..4)
                .map(|shard| {
                    serve(
                        "127.0.0.1:0",
                        Duration::ZERO,
                        if shard == 2 { 2 } else { 0 },
                    )
                })
                .collect()
        };

        let shards = cluster();
        let batch = router_over(&shards, quick_retries(3))
            .batch(&[Op::Epoch])
            .unwrap();
        assert_eq!(batch.epochs, vec![Some(0); 4]);
        shards.into_iter().for_each(Server::shutdown);

        let shards = cluster();
        let err = router_over(&shards, quick_retries(1))
            .batch(&[Op::Epoch])
            .unwrap_err();
        let RouterError::ShardUnavailable { shard, addr, .. } = &err else {
            panic!("expected shard_unavailable, got {err}");
        };
        assert_eq!((*shard, *addr), (2, shards[2].local_addr()));
        assert!(err.to_string().contains("overloaded"), "{err}");
        shards.into_iter().for_each(Server::shutdown);
    }

    #[test]
    fn a_restarted_shard_is_redialed_once() {
        let shard = serve("127.0.0.1:0", Duration::ZERO, 0);
        let addr = shard.local_addr();
        let mut router = router_over(std::slice::from_ref(&shard), quick_retries(1));
        router.batch(&[Op::Epoch]).unwrap();

        // The router still holds a client on the old server's dead connection:
        // the frame it sends there fails, and the shard is dialed again.
        shard.shutdown();
        let restarted = serve(&addr.to_string(), Duration::ZERO, 0);
        let batch = router.batch(&[Op::Epoch]).unwrap();
        assert_eq!(batch.epochs, vec![Some(0)]);
        assert_eq!(restarted.stats().connections_accepted, 1);
        restarted.shutdown();
    }
}
