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
//! byte for byte.  Every shard's fact list already arrives sorted in its
//! op's own order, so nothing is re-sorted: the router keeps each shard's
//! reply payload and runs a streaming k-way merge over the lists, straight
//! from the payloads.  It passes over the first `offset` merged rows,
//! comparing them in reused buffers without building them, and decodes
//! only the rows the page keeps:
//!
//! - unranked `Query`: shards are asked for the first `offset + limit` facts
//!   (tuple-ascending), merged by tuple.
//! - `top_k` `Query`: shards return their full local top-k, merged by the
//!   comparator of `FactQuery::run` (probability descending, ties by tuple
//!   ascending); the merged stream ends at the `k`-th row, and the page is
//!   cut from what comes before.  The global top-k is always contained in
//!   the union of local top-k sets.
//! - `AllFacts`: per-shard windows of `offset + limit`, merged in
//!   `(relation, tuple)` order.
//! - `Relations`: sorted union.  `Stats`: field-wise sum.  These, `Epoch`
//!   and the keyed ops decode one result per shard whole.
//!
//! A shard reply is never silently a wrong page: a fact list that is not
//! sorted in its op's order (as far as the merge reads it), a result of the
//! wrong kind, or fewer results than the sub-batch had ops fails the batch
//! with [`RouterError::Protocol`] naming the shard.
//!
//! # Failure
//!
//! A shard that cannot be reached — dial failure, socket death, or a retry
//! budget exhausted against `overloaded`/`shutting_down` refusals — fails the
//! whole batch with a typed [`RouterError::ShardUnavailable`] naming the
//! shard.  The router never hangs and never silently drops a shard's slice
//! of the answer: a degraded cluster answers with a typed error, not with a
//! hole in the data.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::Duration;

use dd_server::{
    Batch, BatchCursor, Client, ClientConfig, ClientError, ErrorKind, FactBuf, FactQuerySpec,
    FactStream, Op, OpResult, Reply, Request, Response, RetryPolicy, MAX_OPS_PER_BATCH,
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
        let mut replies: Vec<Option<Vec<u8>>> = vec![None; num_shards];
        let mut failure = None;
        let gather = self.shards.iter_mut().zip(&plans).zip(sent).enumerate();
        for (shard, ((slot, plan), sent)) in gather {
            let Some(sent) = sent else { continue };
            match sent.and_then(|written| call_shard(slot, plan, written, config)) {
                Ok(payload) => replies[shard] = Some(payload),
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
        merge_replies(ops, &targets, &replies)
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
/// only reads; a write that failed was the first attempt.  The answer is the
/// batch response's payload, read later by [`merge_replies`].
fn call_shard(
    slot: &mut ShardSlot,
    ops: &[Op],
    mut written: bool,
    config: &RouterConfig,
) -> Result<Vec<u8>, ClientError> {
    let mut redialed = !written;
    loop {
        let client = slot.client(config)?;
        let outcome = client.call_with_retry(&config.retry, |c| {
            if !std::mem::take(&mut written) {
                c.send(ops)?;
            }
            c.recv_payload()
        });
        match outcome {
            Ok(payload) => return Ok(payload),
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

/// Answer `ops` from the consulted shards' batch-response payloads
/// (`replies[shard]` is `None` for a shard no op targets), walking every
/// sub-batch op by op in submission order; a reply must then hold no
/// result more and end well.
fn merge_replies(
    ops: &[Op],
    targets: &[Target],
    replies: &[Option<Vec<u8>>],
) -> Result<RouterBatch, RouterError> {
    let mut cursors = Vec::with_capacity(replies.len());
    for (shard, reply) in replies.iter().enumerate() {
        cursors.push(match reply {
            None => None,
            Some(payload) => match Reply::open(payload) {
                Ok(Reply::Batch(cursor)) => Some(cursor),
                Ok(Reply::Error { kind, .. }) => {
                    return Err(protocol(shard, format!("a {kind} refusal read as a batch")))
                }
                Err(message) => return Err(protocol(shard, message)),
            },
        });
    }
    let epochs = cursors
        .iter()
        .map(|cursor| cursor.as_ref().map(BatchCursor::epoch))
        .collect();

    let mut results = Vec::with_capacity(ops.len());
    for (op, target) in ops.iter().zip(targets) {
        results.push(match (target, op) {
            (Target::One(shard), _) => next_result(&mut cursors, *shard)?,
            (Target::All, Op::Query { spec, .. }) => {
                let order = match spec.top_k {
                    Some(_) => FactOrder::Ranked,
                    None => FactOrder::Tuple,
                };
                // `top_k` cuts the ranked stream before the window does.
                let ranked = spec
                    .top_k
                    .map_or(usize::MAX, |k| k.saturating_sub(spec.offset));
                let take = spec.limit.unwrap_or(usize::MAX).min(ranked);
                let mut facts = Vec::new();
                merge_facts(&mut cursors, order, spec.offset, take, |fact| {
                    facts.push(fact.to_fact())
                })?;
                OpResult::Facts(facts)
            }
            (Target::All, Op::AllFacts { offset, limit, .. }) => {
                let mut facts = Vec::new();
                merge_facts(
                    &mut cursors,
                    FactOrder::RelationTuple,
                    *offset,
                    *limit,
                    |fact| facts.push(fact.to_cross_fact()),
                )?;
                OpResult::AllFacts(facts)
            }
            (Target::All, _) => {
                let parts = (0..cursors.len())
                    .map(|shard| Ok((shard, next_result(&mut cursors, shard)?)))
                    .collect::<Result<_, RouterError>>()?;
                merge_broadcast(op, parts)?
            }
        });
    }
    for (shard, cursor) in cursors.into_iter().enumerate() {
        if let Some(cursor) = cursor {
            cursor
                .finish()
                .map_err(|message| protocol(shard, message))?;
        }
    }
    Ok(RouterBatch { epochs, results })
}

/// Shard `shard`'s next result, decoded whole.
fn next_result(
    cursors: &mut [Option<BatchCursor<'_>>],
    shard: usize,
) -> Result<OpResult, RouterError> {
    cursors[shard]
        .as_mut()
        .expect("every shard an op targets was consulted")
        .next_result()
        .map_err(|message| protocol(shard, message))?
        .ok_or_else(|| too_few(shard))
}

/// The order of one fact-list op's rows, on every shard and in the merged
/// page alike.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FactOrder {
    /// Unranked `query`: tuple ascending (the single-index scan order).
    Tuple,
    /// `top_k` `query`: the comparator of `FactQuery::run`'s ranked path,
    /// probability descending, ties by tuple ascending.
    Ranked,
    /// `all_facts`: `(relation, tuple)` ascending.
    RelationTuple,
}

impl FactOrder {
    fn cmp(self, a: &FactBuf, b: &FactBuf) -> Ordering {
        match self {
            FactOrder::Tuple => a.values.cmp(&b.values),
            FactOrder::Ranked => b
                .probability
                .partial_cmp(&a.probability)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.values.cmp(&b.values)),
            FactOrder::RelationTuple => a
                .relation
                .cmp(&b.relation)
                .then_with(|| a.values.cmp(&b.values)),
        }
    }

    /// The result kind this order's op answers with.
    fn kind(self) -> &'static str {
        match self {
            FactOrder::Tuple | FactOrder::Ranked => "facts",
            FactOrder::RelationTuple => "all_facts",
        }
    }
}

/// One shard's fact list during a merge: its stream, the fact at its head,
/// and the fact before it, which the order check compares against.
struct ShardFacts<'c, 'a> {
    shard: usize,
    facts: FactStream<'c, 'a>,
    head: FactBuf,
    prev: FactBuf,
    /// `head` holds a fact (the stream is not exhausted).
    live: bool,
}

impl ShardFacts<'_, '_> {
    /// Read the next fact into `head`, checking that it does not sort before
    /// the one it follows.
    fn advance(&mut self, order: FactOrder) -> Result<(), RouterError> {
        let had_head = self.live;
        std::mem::swap(&mut self.head, &mut self.prev);
        self.live = self
            .facts
            .next_into(&mut self.head)
            .map_err(|message| protocol(self.shard, message))?;
        if had_head && self.live && order.cmp(&self.prev, &self.head) == Ordering::Greater {
            return Err(protocol(
                self.shard,
                format!("its {} rows are out of order", order.kind()),
            ));
        }
        Ok(())
    }
}

/// Merge one fact-list op's per-shard streams into the page the unsharded
/// engine would return: a k-way merge under `order` that passes over the
/// first `skip` rows and hands the next `take` to `keep`.  Each stream is
/// read only as far as the page needs; a row passed over is compared in a
/// reused buffer and never built.
fn merge_facts(
    cursors: &mut [Option<BatchCursor<'_>>],
    order: FactOrder,
    skip: usize,
    take: usize,
    mut keep: impl FnMut(&FactBuf),
) -> Result<(), RouterError> {
    let mut streams = Vec::with_capacity(cursors.len());
    for (shard, cursor) in cursors.iter_mut().enumerate() {
        let cursor = cursor
            .as_mut()
            .expect("a broadcast op consults every shard");
        let facts = cursor
            .next_facts()
            .map_err(|message| protocol(shard, message))?
            .ok_or_else(|| too_few(shard))?;
        if facts.cross_relation() != (order == FactOrder::RelationTuple) {
            let got = if facts.cross_relation() {
                "all_facts"
            } else {
                "facts"
            };
            return Err(protocol(
                shard,
                format!("expected a {} result, got {got}", order.kind()),
            ));
        }
        let mut stream = ShardFacts {
            shard,
            facts,
            head: FactBuf::default(),
            prev: FactBuf::default(),
            live: false,
        };
        stream.advance(order)?;
        streams.push(stream);
    }
    let (mut passed, mut kept) = (0, 0);
    while kept < take {
        // The least head; of equal heads, the lowest shard's.
        let mut least: Option<usize> = None;
        for (i, stream) in streams.iter().enumerate().filter(|(_, s)| s.live) {
            if least.is_none_or(|l| order.cmp(&stream.head, &streams[l].head) == Ordering::Less) {
                least = Some(i);
            }
        }
        let Some(least) = least else { break };
        if passed < skip {
            passed += 1;
        } else {
            keep(&streams[least].head);
            kept += 1;
        }
        streams[least].advance(order)?;
    }
    Ok(())
}

/// Merge the per-shard results of a broadcast `epoch`, `relations` or
/// `stats` op into the answer the unsharded engine would give.
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
        Op::Query { .. } | Op::AllFacts { .. } | Op::ProbabilityOf { .. } | Op::Sleep { .. } => {
            Err(RouterError::BadRequest(
                "fact lists merge as streams, and keyed and fault-injection ops are never \
                 broadcast"
                    .to_string(),
            ))
        }
    }
}

fn mismatch(shard: usize, wanted: &str, got: &OpResult) -> RouterError {
    protocol(shard, format!("expected a {wanted} result, got {got:?}"))
}

fn too_few(shard: usize) -> RouterError {
    protocol(shard, "returned fewer results than ops sent".to_string())
}

fn protocol(shard: usize, message: String) -> RouterError {
    RouterError::Protocol { shard, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_relstore::{tuple, Tuple};
    use dd_server::{BatchHandler, Server, ServerConfig};
    use std::collections::VecDeque;
    use std::sync::atomic::{self, AtomicUsize};
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

    /// Shard replies as real batch-response payloads: `answers[shard]` is
    /// that shard's results in sub-batch order, `None` for a shard the
    /// batch did not consult.
    fn replies(answers: Vec<Option<Vec<OpResult>>>) -> Vec<Option<Vec<u8>>> {
        answers
            .into_iter()
            .enumerate()
            .map(|(shard, results)| {
                results.map(|results| {
                    Response::Batch(Batch {
                        epoch: 10 + shard as u64,
                        results,
                        epochs: None,
                    })
                    .encode()
                })
            })
            .collect()
    }

    fn query(top_k: Option<usize>, offset: usize, limit: Option<usize>) -> Op {
        Op::Query {
            relation: "Fact".to_string(),
            spec: FactQuerySpec {
                min_probability: 0.0,
                top_k,
                offset,
                limit,
            },
        }
    }

    /// One broadcast op answered by every shard with one result each.
    fn merge_one(op: &Op, answers: Vec<OpResult>) -> Result<OpResult, RouterError> {
        let replies = replies(answers.into_iter().map(|a| Some(vec![a])).collect());
        let mut batch = merge_replies(std::slice::from_ref(op), &[Target::All], &replies)?;
        Ok(batch.results.remove(0))
    }

    #[test]
    fn top_k_merge_reranks_across_shards() {
        let merged = merge_one(
            &query(Some(2), 0, None),
            vec![
                OpResult::Facts(vec![(tuple![2i64], 0.9), (tuple![4i64], 0.2)]),
                OpResult::Facts(vec![(tuple![1i64], 0.8), (tuple![3i64], 0.7)]),
            ],
        );
        assert_eq!(
            merged.unwrap(),
            OpResult::Facts(vec![(tuple![2i64], 0.9), (tuple![1i64], 0.8)])
        );
    }

    #[test]
    fn unranked_merge_restores_tuple_order_and_applies_the_global_window() {
        let merged = merge_one(
            &query(None, 1, Some(2)),
            vec![
                OpResult::Facts(vec![(tuple![2i64], 0.5), (tuple![5i64], 0.5)]),
                OpResult::Facts(vec![(tuple![1i64], 0.5), (tuple![4i64], 0.5)]),
            ],
        );
        assert_eq!(
            merged.unwrap(),
            OpResult::Facts(vec![(tuple![2i64], 0.5), (tuple![4i64], 0.5)])
        );
    }

    // The k-way merge against the sort-based merge it replaced.

    /// The sort-based merge of fact lists the k-way merge replaced, kept as
    /// its reference: concatenate every shard's whole list, sort, cut the
    /// window.
    fn sort_merge(op: &Op, parts: Vec<(usize, OpResult)>) -> Result<OpResult, RouterError> {
        match op {
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
                        facts.sort_by(|a, b| {
                            b.1.partial_cmp(&a.1)
                                .unwrap_or(Ordering::Equal)
                                .then_with(|| a.0.cmp(&b.0))
                        });
                        facts.truncate(k);
                    }
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
            other => merge_broadcast(other, parts),
        }
    }

    /// [`merge_replies`] computed the old way: every reply decoded whole,
    /// results popped shard by shard, fact lists through [`sort_merge`].
    fn reference_merge(
        ops: &[Op],
        targets: &[Target],
        replies: &[Option<Vec<u8>>],
    ) -> Result<RouterBatch, RouterError> {
        let mut epochs = Vec::new();
        let mut queues = Vec::new();
        for reply in replies {
            let batch = reply
                .as_ref()
                .map(|payload| match Response::decode(payload) {
                    Ok(Response::Batch(batch)) => batch,
                    other => panic!("test replies are batches, got {other:?}"),
                });
            epochs.push(batch.as_ref().map(|b| b.epoch));
            queues.push(batch.map_or_else(VecDeque::new, |b| VecDeque::from(b.results)));
        }
        let mut pop = |shard: usize| queues[shard].pop_front().ok_or_else(|| too_few(shard));
        let mut results = Vec::new();
        for (op, target) in ops.iter().zip(targets) {
            results.push(match target {
                Target::One(shard) => pop(*shard)?,
                Target::All => {
                    let parts = (0..replies.len())
                        .map(|shard| Ok((shard, pop(shard)?)))
                        .collect::<Result<_, RouterError>>()?;
                    sort_merge(op, parts)?
                }
            });
        }
        Ok(RouterBatch { epochs, results })
    }

    /// SplitMix64, for seeded test data.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// A probability from a small set, so ranked lists tie often.
        fn probability(&mut self) -> f64 {
            [0.25, 0.5, 0.75, 1.0][self.below(4)]
        }
    }

    /// Disjoint per-shard fact lists of one op, each sorted in the op's
    /// order; a shard draws nothing now and then.
    fn shard_facts(rng: &mut Rng, op: &Op, num_shards: usize) -> Vec<Vec<(String, Tuple, f64)>> {
        let order = match op {
            Op::Query { spec, .. } if spec.top_k.is_some() => FactOrder::Ranked,
            Op::Query { .. } => FactOrder::Tuple,
            _ => FactOrder::RelationTuple,
        };
        let relations = if order == FactOrder::RelationTuple {
            3
        } else {
            1
        };
        let empty = rng.below(num_shards + 2);
        let mut lists = vec![Vec::new(); num_shards];
        for relation in ["A", "B", "C"].into_iter().take(relations) {
            for id in 0..rng.below(40) as i64 {
                let shard = rng.below(num_shards);
                if shard != empty {
                    let tuple = tuple![id % 5, id];
                    lists[shard].push((relation.to_string(), tuple, rng.probability()));
                }
            }
        }
        let key = |(relation, tuple, p): &(String, Tuple, f64)| FactBuf {
            relation: relation.clone(),
            values: tuple.values().to_vec(),
            probability: *p,
        };
        for list in &mut lists {
            list.sort_by(|a, b| order.cmp(&key(a), &key(b)));
        }
        lists
    }

    /// A broadcast op of any kind, or a keyed one, with windows that reach
    /// past the data, `top_k` below the offset and open limits.
    fn random_op(rng: &mut Rng) -> Op {
        let limit = |rng: &mut Rng| [None, Some(0), Some(3), Some(25)][rng.below(4)];
        match rng.below(7) {
            0 | 1 => query(None, rng.below(50), limit(rng)),
            2 | 3 => query(Some(rng.below(60)), rng.below(50), limit(rng)),
            4 => Op::AllFacts {
                min_probability: 0.0,
                offset: rng.below(150),
                limit: rng.below(40),
            },
            5 => Op::probability_of("Fact", tuple![rng.below(100) as i64]),
            _ => [Op::Epoch, Op::Relations, Op::Stats][rng.below(3)].clone(),
        }
    }

    #[test]
    fn the_k_way_merge_answers_as_the_sort_merge_did() {
        let mut rng = Rng(7);
        for case in 0..400 {
            let num_shards = 1 + rng.below(4);
            let mut ops: Vec<Op> = (0..1 + rng.below(6)).map(|_| random_op(&mut rng)).collect();
            if case == 0 {
                // The edges every run must cover, whatever the seed draws.
                ops = vec![
                    query(Some(3), 5, None),
                    query(None, 1_000, Some(5)),
                    query(None, 0, None),
                    Op::AllFacts {
                        min_probability: 0.0,
                        offset: 10_000,
                        limit: 10,
                    },
                ];
            }
            let mut targets = Vec::new();
            let mut answers: Vec<Option<Vec<OpResult>>> = vec![None; num_shards];
            for op in &ops {
                let target = match op {
                    Op::ProbabilityOf { .. } => Target::One(rng.below(num_shards)),
                    _ => Target::All,
                };
                targets.push(target);
                let lists = match op {
                    Op::Query { .. } | Op::AllFacts { .. } => shard_facts(&mut rng, op, num_shards),
                    _ => vec![Vec::new(); num_shards],
                };
                for (shard, list) in lists.into_iter().enumerate() {
                    let result = match op {
                        Op::Query { .. } => {
                            OpResult::Facts(list.into_iter().map(|(_, t, p)| (t, p)).collect())
                        }
                        Op::AllFacts { .. } => OpResult::AllFacts(list),
                        Op::ProbabilityOf { .. } if target != Target::One(shard) => continue,
                        Op::ProbabilityOf { .. } => OpResult::Probability(Some(rng.probability())),
                        Op::Relations => OpResult::Relations(
                            ["A", "B", "C"]
                                .into_iter()
                                .filter(|_| rng.below(2) == 0)
                                .map(String::from)
                                .collect(),
                        ),
                        Op::Stats => OpResult::Stats {
                            num_variables: rng.below(100),
                            num_factors: rng.below(100),
                            num_weights: rng.below(10),
                            num_catalogued: rng.below(100),
                        },
                        _ => OpResult::Empty,
                    };
                    answers[shard].get_or_insert_with(Vec::new).push(result);
                }
            }
            let replies = replies(answers);
            let merged = merge_replies(&ops, &targets, &replies).unwrap();
            let reference = reference_merge(&ops, &targets, &replies).unwrap();
            assert_eq!(merged, reference, "case {case}: {ops:?}");
        }
    }

    // A wrong shard reply is a protocol error naming the shard.

    #[test]
    fn a_fact_list_out_of_order_is_a_protocol_error() {
        let sorted = OpResult::AllFacts(vec![
            ("A".to_string(), tuple![1i64], 0.5),
            ("B".to_string(), tuple![0i64], 0.5),
        ]);
        let unsorted = |op: &Op| match op {
            Op::AllFacts { .. } => OpResult::AllFacts(vec![
                ("B".to_string(), tuple![0i64], 0.5),
                ("A".to_string(), tuple![1i64], 0.5),
            ]),
            Op::Query { spec, .. } if spec.top_k.is_some() => {
                OpResult::Facts(vec![(tuple![2i64], 0.5), (tuple![1i64], 0.9)])
            }
            _ => OpResult::Facts(vec![(tuple![2i64], 0.5), (tuple![1i64], 0.5)]),
        };
        let all_facts = Op::AllFacts {
            min_probability: 0.0,
            offset: 0,
            limit: 10,
        };
        for op in [query(None, 0, None), query(Some(5), 0, None), all_facts] {
            let first = match op {
                Op::AllFacts { .. } => sorted.clone(),
                _ => OpResult::Facts(Vec::new()),
            };
            let err = merge_one(&op, vec![first, unsorted(&op)]).unwrap_err();
            let RouterError::Protocol { shard, message } = &err else {
                panic!("expected a protocol error, got {err}");
            };
            assert_eq!(*shard, 1, "{op:?}: {err}");
            assert!(message.contains("out of order"), "{op:?}: {err}");
        }
    }

    #[test]
    fn a_result_of_the_wrong_kind_is_a_protocol_error() {
        let all_facts = Op::AllFacts {
            min_probability: 0.0,
            offset: 0,
            limit: 10,
        };
        // A whole-decoded result of the wrong kind is
        // `result_type_mismatches_surface_as_protocol_errors`.
        for (op, wrong) in [
            (query(None, 0, None), OpResult::AllFacts(Vec::new())),
            (all_facts.clone(), OpResult::Facts(Vec::new())),
            (all_facts, OpResult::Relations(Vec::new())),
        ] {
            let right = match &op {
                Op::Query { .. } => OpResult::Facts(Vec::new()),
                _ => OpResult::AllFacts(Vec::new()),
            };
            let err = merge_one(&op, vec![right, wrong]).unwrap_err();
            assert!(
                matches!(err, RouterError::Protocol { shard: 1, .. }),
                "{op:?}: {err}"
            );
        }
    }

    #[test]
    fn a_reply_with_too_few_results_is_a_protocol_error() {
        let ops = [Op::Epoch, query(None, 0, None)];
        let targets = [Target::All, Target::All];
        let facts = OpResult::Facts(vec![(tuple![1i64], 0.5)]);
        for short in [vec![OpResult::Empty], Vec::new()] {
            let replies = replies(vec![
                Some(vec![OpResult::Empty, facts.clone()]),
                Some(short),
            ]);
            let err = merge_replies(&ops, &targets, &replies).unwrap_err();
            let RouterError::Protocol { shard, message } = &err else {
                panic!("expected a protocol error, got {err}");
            };
            assert_eq!(*shard, 1, "{err}");
            assert!(message.contains("fewer results"), "{err}");
        }
        // More results than ops is no answer to the batch either.
        let replies = replies(vec![Some(vec![OpResult::Empty, facts.clone(), facts])]);
        let err = merge_replies(&ops[..1], &targets[..1], &replies).unwrap_err();
        assert!(
            matches!(err, RouterError::Protocol { shard: 0, .. }),
            "{err}"
        );
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
                .fetch_update(atomic::Ordering::SeqCst, atomic::Ordering::SeqCst, |n| {
                    n.checked_sub(1)
                })
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
