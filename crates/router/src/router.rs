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
    pub fn kind(&self) -> ErrorKind {
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
    pub fn new(
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

    /// Number of shards behind this router.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The assignment used to route keyed ops.
    pub fn assignment(&self) -> &ShardAssignment {
        &self.assignment
    }

    /// The shard addresses, index-aligned with the epoch vector.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.shards.iter().map(|s| s.addr).collect()
    }

    /// Execute a batch of ops against the cluster and merge the answer.
    ///
    /// Each consulted shard answers its sub-batch — the broadcast ops plus
    /// the keyed ops it owns — in one frame, so the sub-batch is held to the
    /// wire cap: a batch that gives one shard more than
    /// [`MAX_OPS_PER_BATCH`] ops is refused with [`RouterError::BadRequest`]
    /// before any shard is dialed.
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

        // Scatter: each consulted shard answers its sub-batch in one frame.
        // Real fan-out gets a thread per shard; a batch for one shard (every
        // point read) runs on this thread, since a spawn and a join cost as
        // much as the shard call they would wrap.
        let config = &self.config;
        let consulted = plans.iter().filter(|plan| !plan.is_empty()).count();
        let jobs = self.shards.iter_mut().zip(&plans);
        let outcomes: Vec<Option<Result<Batch, ClientError>>> = if consulted <= 1 {
            jobs.map(|(slot, plan)| (!plan.is_empty()).then(|| call_shard(slot, plan, config)))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .map(|(slot, plan)| {
                        (!plan.is_empty())
                            .then(|| scope.spawn(move || call_shard(slot, plan, config)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.map(|h| h.join().expect("shard workers do not panic")))
                    .collect()
            })
        };

        // Gather: surface the first shard failure as a typed error, else
        // collect per-shard result queues and the epoch vector.
        let mut epochs: Vec<Option<u64>> = vec![None; num_shards];
        let mut queues: Vec<VecDeque<OpResult>> =
            (0..num_shards).map(|_| VecDeque::new()).collect();
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                None => {}
                Some(Ok(batch)) => {
                    epochs[shard] = Some(batch.epoch);
                    queues[shard] = batch.results.into();
                }
                Some(Err(ClientError::Protocol(message))) => {
                    return Err(RouterError::Protocol { shard, message });
                }
                Some(Err(err)) => {
                    return Err(RouterError::ShardUnavailable {
                        shard,
                        addr: self.shards[shard].addr,
                        message: err.to_string(),
                    });
                }
            }
        }

        // Merge, popping each consulted shard's queue in submission order.
        let mut results = Vec::with_capacity(ops.len());
        for (op, target) in ops.iter().zip(&targets) {
            let merged = match target {
                Target::One(shard) => {
                    queues[*shard]
                        .pop_front()
                        .ok_or_else(|| RouterError::Protocol {
                            shard: *shard,
                            message: "returned fewer results than ops sent".to_string(),
                        })?
                }
                Target::All => {
                    let mut parts = Vec::with_capacity(num_shards);
                    for (shard, queue) in queues.iter_mut().enumerate() {
                        parts.push((
                            shard,
                            queue.pop_front().ok_or_else(|| RouterError::Protocol {
                                shard,
                                message: "returned fewer results than ops sent".to_string(),
                            })?,
                        ));
                    }
                    merge_broadcast(op, parts)?
                }
            };
            results.push(merged);
        }

        Ok(RouterBatch { epochs, results })
    }

    /// Serve one wire [`Request`] — the front-door entry point.
    ///
    /// The response's `epochs` field carries the cross-shard epoch vector;
    /// its scalar `epoch` is only informational (the highest consulted shard
    /// epoch), since no single number can name a cross-shard read.
    pub fn execute(&mut self, request: &Request) -> Response {
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
        Op::Query { relation, spec } => {
            let local = if spec.top_k.is_some() {
                FactQuerySpec {
                    min_probability: spec.min_probability,
                    top_k: spec.top_k.map(|k| k.min(WIRE_USIZE_MAX)),
                    offset: 0,
                    limit: None,
                }
            } else {
                FactQuerySpec {
                    min_probability: spec.min_probability,
                    top_k: None,
                    offset: 0,
                    limit: spec
                        .limit
                        .map(|l| l.saturating_add(spec.offset).min(WIRE_USIZE_MAX)),
                }
            };
            Op::Query {
                relation: relation.clone(),
                spec: local,
            }
        }
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

/// One shard's whole sub-batch in one call, with transparent reconnect: a
/// transport error drops the cached client and re-dials once before giving
/// up.
fn call_shard(
    slot: &mut ShardSlot,
    ops: &[Op],
    config: &RouterConfig,
) -> Result<Batch, ClientError> {
    let mut redialed = false;
    loop {
        if slot.client.is_none() {
            match Client::connect_with(slot.addr, config.client.clone()) {
                Ok(client) => slot.client = Some(client),
                Err(err) => return Err(ClientError::Io(err)),
            }
        }
        let client = slot.client.as_mut().expect("dialed above");
        match client.call_with_retry(&config.retry, |c| c.batch(ops.to_vec())) {
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
            let limit = spec.limit.unwrap_or(usize::MAX);
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
                    Ok(OpResult::Facts(
                        facts.into_iter().skip(spec.offset).take(limit).collect(),
                    ))
                }
                None => {
                    // Shards are tuple-disjoint, so sorting the union by
                    // tuple restores the single-index scan order.
                    facts.sort_by(|a, b| a.0.cmp(&b.0));
                    Ok(OpResult::Facts(
                        facts.into_iter().skip(spec.offset).take(limit).collect(),
                    ))
                }
            }
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
}
