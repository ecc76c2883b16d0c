//! `serve_direct` and `serve_routed`: mixed reads over loopback sockets while
//! a writer lands update rounds next door.
//!
//! Both drive the same claims KB, read mix, writer script and phases; they
//! differ only in the deployment — one `dd-server` over one engine, or the
//! scatter-gather front door over four shards.  A run, traced or not, is the
//! same five phases, each a fixed share of `--seconds`:
//!
//! * **closed loop** ([`CLOSED_SHARE`]): [`CONNECTIONS`] connections, each
//!   sending its next read when the previous one returns.  Callers that wait
//!   for their answer (an analyst's tool, the router's own shard calls)
//!   behave like this; it yields the sustainable rate and the latency under
//!   that load.
//! * **open loop** at 500, 1 000 and 2 000 req/s ([`OPEN_SHARES`]): one
//!   generator thread writes requests onto the connections round-robin at
//!   their scheduled times without waiting for answers; a reader thread per
//!   connection takes the answers off.  Latency counts from the *scheduled*
//!   send time, so a stall's backlog counts against every request it delays,
//!   and how late the generator itself ran is reported.  Independent users
//!   behave like this; it yields the tail at a given rate.
//! * **closed loop with the writer held still** ([`QUIET_SHARE`]): what the
//!   writer's rounds add to the read tail.
//!
//! Eight connections on a two-core machine is deliberate.  The box is a VM
//! whose idle virtual CPUs take a millisecond or more to wake, so with one or
//! two connections the closed loop measures the hypervisor's wake-up latency
//! and differs by 2x between runs of the same binary; eight waiting callers
//! keep both cores busy.  The client threads spend their time blocked in
//! `recv`, the engine's pool is pinned to one thread, and the writer is one
//! more thread with a duty cycle of roughly a quarter.

use crate::engine_ops::{
    relation_keys, report_children, snapshot_reads, top_k_is_ordered, ReadLatencies, Run,
    UpdateTotals,
};
use crate::inputs::{
    engine_config, ClaimsKb, InputDigest, ReadClass, ReadOp, ReadStream, CLAIMS_PROGRAM,
    DOCS_PER_ROUND, SCAN_LIMIT,
};
use crate::report::Values;
use crate::stats::{windowed_p99_median, Recorder, SplitMix64};
use crate::trace::{Tracer, ROOT};
use deepdive_repro::engine::{DeepDive, ExecutionMode, IterationReport, Snapshot};
use deepdive_repro::grounding::standard_udfs;
use deepdive_repro::router::{Cluster, ClusterConfig, RouterConfig};
use deepdive_repro::server::{
    Batch, BatchHandler, Client, ClientConfig, Op, OpResult, Request, Response, Server,
    ServerConfig, ServerStats, SnapshotBatchHandler,
};
use deepdive_repro::wire::{read_frame, write_frame, MAX_FRAME_BYTES};
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    Direct,
    Routed,
}

/// 500 documents, 4 000 facts over two variable relations.  Incremental
/// grounding is O(KB) at the parent commit — an 8-document round costs ~50 ms
/// at 1 000 documents and 0.5 s at 6 000 when nothing else runs — which is
/// what bounds the size: the writer must not own a core.
const BASE_DOCS: i64 = 500;
const SMOKE_DOCS: i64 = 200;
const SHARDS: usize = 4;
const CONNECTIONS: usize = 8;
const WRITE_PERIOD: Duration = Duration::from_millis(500);
const SETUP_REPEATS: usize = 9;
/// Shares of the window.
const CLOSED_SHARE: f64 = 0.3;
const QUIET_SHARE: f64 = 0.125;
/// `(total requests per second, share of the window)`.  The lowest rate gets
/// the most time because the writer's rounds are measured under it: it is
/// the one load that neither deployment is saturated by.
const OPEN_SHARES: [(u32, f64); 3] = [(500, 0.3), (1_000, 0.2), (2_000, 0.075)];
/// An open-loop phase whose backlog stays above this many seconds of requests
/// for this many seconds is over capacity by a wide margin (the latency limit
/// is 5 ms): it stops sending, so that draining the backlog of a deployment
/// that has become much slower cannot outlast the run.  A stall the
/// deployment catches up from does not end the phase.
const BACKLOG_LIMIT_S: f64 = 0.5;
/// Open-loop latency limit on the windowed p99.
const LIMIT_MS: f64 = 5.0;
/// A closed-loop connection keeps spans for every other block of this many
/// requests (traced runs), so the cost of tracing is a measured difference.
const TRACE_BLOCK: u64 = 256;
const PROBE_OPS: usize = 64;
const PROBE_SAMPLE: usize = 500;
const DIGEST_OPS: usize = 4_096;

pub fn input_digest(kb: ClaimsKb) -> InputDigest {
    let mut digest = InputDigest::default();
    digest.text(CLAIMS_PROGRAM);
    digest.database(&kb.database_of(0..kb.base_docs));
    for connection in 0..CONNECTIONS as u64 {
        ReadStream::new(kb, connection).digest_prefix(DIGEST_OPS, &mut digest);
    }
    // The writer's first rounds (it keeps going for as long as the window).
    for doc in kb.base_docs..kb.base_docs + 64 {
        for (relation, row) in kb.doc_rows(doc) {
            digest.row(relation, &row);
        }
    }
    digest
}

// ------------------------------------------------------------ deployment

enum Deployment {
    Direct {
        engine: Box<DeepDive>,
        server: Server,
    },
    Routed {
        cluster: Cluster,
        front: Server,
    },
}

impl Deployment {
    /// Generate the KB, build, `initial_run`, first `materialize`, bind.
    fn set_up(
        target: Target,
        kb: ClaimsKb,
        tracer: &mut Tracer,
        parent: Option<u32>,
    ) -> Result<(Deployment, f64), String> {
        let (database, gen_s, _) =
            tracer.time("gen.corpus", parent, 0, || kb.database_of(0..kb.base_docs));
        match target {
            Target::Direct => {
                let (engine, _, _) = tracer.time("core.setup", parent, 0, || {
                    let mut engine = DeepDive::builder()
                        .program_text(CLAIMS_PROGRAM)
                        .database(database)
                        .config(engine_config())
                        .build()?;
                    engine.initial_run()?;
                    engine.materialize()?;
                    Ok::<_, deepdive_repro::engine::EngineError>(engine)
                });
                let engine = engine.map_err(|e| format!("engine set-up: {e}"))?;
                let (server, _, _) = tracer.time("server.bind", parent, 0, || {
                    Server::bind("127.0.0.1:0", engine.reader(), ServerConfig::default())
                });
                let server = server.map_err(|e| format!("bind: {e}"))?;
                let engine = Box::new(engine);
                Ok((Deployment::Direct { engine, server }, gen_s))
            }
            Target::Routed => {
                let mut config = ClusterConfig::new(SHARDS);
                config.engine = engine_config();
                config.server.workers = 1;
                let (cluster, _, _) = tracer.time("core.setup", parent, 0, || {
                    let cluster =
                        Cluster::build(CLAIMS_PROGRAM, &database, &standard_udfs(), &config)
                            .map_err(|e| e.to_string())?;
                    cluster.initial_run().map_err(|e| e.to_string())?;
                    for shard in 0..SHARDS {
                        cluster
                            .engine(shard)
                            .materialize()
                            .map_err(|e| e.to_string())?;
                    }
                    Ok::<_, String>(cluster)
                });
                let cluster = cluster.map_err(|e| format!("cluster set-up: {e}"))?;
                let (front, _, _) = tracer.time("server.bind", parent, 0, || {
                    cluster.serve_front(
                        "127.0.0.1:0",
                        RouterConfig::default(),
                        ServerConfig {
                            workers: CONNECTIONS,
                            ..ServerConfig::default()
                        },
                        CONNECTIONS,
                    )
                });
                let front = front.map_err(|e| format!("bind front door: {e}"))?;
                Ok((Deployment::Routed { cluster, front }, gen_s))
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Deployment::Direct { server, .. } => server.local_addr(),
            Deployment::Routed { front, .. } => front.local_addr(),
        }
    }

    /// Stats of the server the clients talk to.
    fn front_stats(&self) -> ServerStats {
        match self {
            Deployment::Direct { server, .. } => server.stats(),
            Deployment::Routed { front, .. } => front.stats(),
        }
    }

    /// Queue-wait plus service nanoseconds summed over the shard servers
    /// behind the front door (0 for the direct deployment).
    fn shard_busy_nanos(&self) -> u64 {
        match self {
            Deployment::Direct { .. } => 0,
            Deployment::Routed { cluster, .. } => (0..SHARDS)
                .filter_map(|s| cluster.server_stats(s))
                .map(|s| s.queue_wait_nanos_total + s.service_nanos_total)
                .sum(),
        }
    }

    fn epochs(&self) -> Vec<u64> {
        match self {
            Deployment::Direct { engine, .. } => vec![engine.epoch()],
            Deployment::Routed { cluster, .. } => cluster.epochs(),
        }
    }

    fn shut_down(self) {
        match self {
            Deployment::Direct { server, .. } => server.shutdown(),
            Deployment::Routed { cluster, front } => {
                front.shutdown();
                drop(cluster);
            }
        }
    }
}

// ----------------------------------------------------------------- writer

/// What the client threads are doing while a writer round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Load {
    /// The saturated closed loop.
    Closed = 0,
    /// The lowest open-loop rate.
    Light = 1,
    /// The higher open-loop rates.
    Heavy = 2,
}

/// What the writer thread hands back.
#[derive(Default)]
struct WriterLog {
    /// Round wall in ms, by the [`Load`] the round started under.
    round_ms: [Recorder; 3],
    totals: UpdateTotals,
    attempted: u64,
    problems: Vec<String>,
    /// Writer-added documents still in the KB when it stopped.
    live: VecDeque<i64>,
}

fn sum_reports(reports: impl Iterator<Item = IterationReport>) -> Option<IterationReport> {
    reports.reduce(|mut a, b| {
        a.grounding_secs += b.grounding_secs;
        a.learning_secs += b.learning_secs;
        a.inference_secs += b.inference_secs;
        a.new_variables += b.new_variables;
        a.new_factors += b.new_factors;
        a.resharded_relations.extend(b.resharded_relations);
        a
    })
}

/// What the writer and the phases share.
struct Shared {
    /// Highest epoch published per shard slot (one slot when unsharded).
    published: Vec<AtomicU64>,
    stop: AtomicBool,
    paused: AtomicBool,
    /// The current [`Load`].
    load: AtomicUsize,
}

/// One round every [`WRITE_PERIOD`]: eight new documents, or — every fourth
/// round — one supervision retraction plus the deletion of the eight oldest
/// documents the writer added.
fn writer_loop(
    deployment: &mut Deployment,
    kb: ClaimsKb,
    shared: &Shared,
    mut tracer: Tracer,
) -> (WriterLog, Tracer) {
    let mut log = WriterLog::default();
    let root = tracer.open(ROOT, None, 0);
    let mut next_doc = kb.base_docs;
    let mut round = 0u64;
    let mut due = Instant::now();
    while !shared.stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now < due {
            let nap = (due - now).min(Duration::from_millis(10));
            tracer.time("idle.sleep", root, 0, || std::thread::sleep(nap));
            continue;
        }
        due += WRITE_PERIOD;
        if shared.paused.load(Ordering::Acquire) {
            continue;
        }
        let load = shared.load.load(Ordering::Acquire);
        let delete = round % 4 == 3 && log.live.len() >= DOCS_PER_ROUND;
        let docs: Vec<i64> = if delete {
            log.live.drain(..DOCS_PER_ROUND).collect()
        } else {
            let docs: Vec<i64> = (next_doc..next_doc + DOCS_PER_ROUND as i64).collect();
            next_doc += DOCS_PER_ROUND as i64;
            log.live.extend(&docs);
            docs
        };
        let update = if delete {
            kb.delete_docs(&docs)
        } else {
            kb.insert_docs(&docs)
        };
        let span = tracer.open("core.run_update", root, round);
        let started = Instant::now();
        let result: Result<Option<IterationReport>, String> = match deployment {
            Deployment::Direct { engine, .. } => (|| {
                let mut reports = Vec::new();
                if delete {
                    reports.push(engine.retract_supervision("Fact", ClaimsKb::fact(docs[0], 0))?);
                }
                reports.push(engine.run_update(&update, ExecutionMode::Incremental)?);
                Ok::<_, deepdive_repro::engine::EngineError>(sum_reports(reports.into_iter()))
            })()
            .map_err(|e| e.to_string()),
            Deployment::Routed { cluster, .. } => (|| {
                let mut reports = Vec::new();
                if delete {
                    reports.push(cluster.retract_supervision("Fact", ClaimsKb::fact(docs[0], 0))?);
                }
                reports.extend(
                    cluster
                        .run_update(&update, ExecutionMode::Incremental)?
                        .into_iter()
                        .flatten(),
                );
                Ok::<_, deepdive_repro::router::ClusterError>(sum_reports(reports.into_iter()))
            })()
            .map_err(|e| e.to_string()),
        };
        let wall = started.elapsed().as_secs_f64();
        tracer.close(span);
        log.attempted += 1;
        match result {
            Ok(report) => {
                log.round_ms[load].record(wall * 1e3);
                if let Some(report) = report {
                    log.totals.add(&report, wall);
                    tracer.synthesise_children(span, &report_children(&report));
                }
            }
            Err(err) => log.problems.push(format!("writer round {round}: {err}")),
        }
        for (slot, epoch) in deployment.epochs().into_iter().enumerate() {
            shared.published[slot].fetch_max(epoch, Ordering::AcqRel);
        }
        round += 1;
    }
    tracer.close(root);
    (log, tracer)
}

// ---------------------------------------------------------------- clients

/// What the client threads saw in one phase.
#[derive(Default)]
struct ClientLog {
    /// Latency in ms, by whether spans were kept for the request, per read
    /// class.
    latency_ms: [[Recorder; 3]; 2],
    /// Open loop: `(scheduled offset s, latency ms)` and generator lateness.
    scheduled: Vec<(f64, f64)>,
    late_ms: Recorder,
    attempted: u64,
    failed: u64,
    staleness_max: u64,
    problems: Vec<String>,
}

impl ClientLog {
    fn merge(&mut self, other: ClientLog) {
        for (mine, theirs) in self
            .latency_ms
            .iter_mut()
            .flatten()
            .zip(other.latency_ms.iter().flatten())
        {
            mine.merge(theirs);
        }
        self.scheduled.extend(other.scheduled);
        self.late_ms.merge(&other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.staleness_max = self.staleness_max.max(other.staleness_max);
        self.problems.extend(other.problems);
    }

    fn class_latencies(&self, class: ReadClass) -> Recorder {
        let mut all = self.latency_ms[0][class.index()].clone();
        all.merge(&self.latency_ms[1][class.index()]);
        all
    }

    fn all_latencies(&self) -> Recorder {
        let mut all = Recorder::default();
        for class in self.latency_ms.iter().flatten() {
            all.merge(class);
        }
        all
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problem(what);
    }
}

/// Checks the answers arriving on one connection.
struct Checker {
    /// Highest epoch seen per shard slot (one slot when unsharded).
    seen: Vec<u64>,
    log: ClientLog,
}

impl Checker {
    fn new(slots: usize) -> Checker {
        Checker {
            seen: vec![0; slots],
            log: ClientLog::default(),
        }
    }

    fn check(&mut self, read: &ReadOp, batch: &Batch, published: &[AtomicU64]) {
        // Epochs never run backwards on one connection.
        let observed: Vec<Option<u64>> = match &batch.epochs {
            Some(vector) => vector.clone(),
            None => vec![Some(batch.epoch)],
        };
        for (slot, epoch) in observed.iter().enumerate() {
            let (Some(epoch), Some(seen)) = (epoch, self.seen.get_mut(slot)) else {
                continue;
            };
            if *epoch < *seen {
                self.log.problem(format!(
                    "epoch went from {seen} back to {epoch} on slot {slot}"
                ));
            }
            *seen = (*seen).max(*epoch);
            let lag = published[slot]
                .load(Ordering::Acquire)
                .saturating_sub(*epoch);
            self.log.staleness_max = self.log.staleness_max.max(lag);
        }
        match (&read.class, batch.results.as_slice()) {
            (ReadClass::Point, [OpResult::Probability(p)]) => {
                if *p != read.expected {
                    self.log.problem(format!(
                        "pinned fact read {p:?}, expected {:?}",
                        read.expected
                    ));
                }
            }
            (ReadClass::TopK, [OpResult::Facts(facts)]) => {
                if !top_k_is_ordered(facts) {
                    self.log
                        .problem("top-k not sorted prob-desc/tuple-asc".to_string());
                }
            }
            (ReadClass::Scan, [OpResult::AllFacts(rows)]) => {
                let ordered = rows
                    .windows(2)
                    .all(|w| (&w[0].0, &w[0].1) < (&w[1].0, &w[1].1));
                if rows.len() != SCAN_LIMIT || !ordered {
                    self.log.problem(format!(
                        "scan page of {} rows, ordered: {ordered}",
                        rows.len()
                    ));
                }
            }
            (_, other) => self
                .log
                .problem(format!("unexpected result shape {other:?}")),
        }
    }
}

/// One closed-loop connection.
struct Connection {
    client: Client,
    stream: ReadStream,
    checker: Checker,
    tracer: Tracer,
    root: Option<u32>,
    ops: u64,
}

impl Connection {
    fn open(
        addr: SocketAddr,
        kb: ClaimsKb,
        id: u64,
        slots: usize,
        tracer: Tracer,
    ) -> Result<Connection, String> {
        let config = ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
        };
        let client = Client::connect_with(addr, config).map_err(|e| format!("connect: {e}"))?;
        Ok(Connection {
            client,
            stream: ReadStream::new(kb, id),
            checker: Checker::new(slots),
            tracer,
            root: None,
            ops: 0,
        })
    }

    /// Keep spans for every other block of requests, each traced stretch
    /// under a root span of its own.
    fn alternate_tracing(&mut self) {
        if !self.ops.is_multiple_of(TRACE_BLOCK) {
            return;
        }
        self.tracer.close(self.root.take());
        self.tracer
            .set_recording((self.ops / TRACE_BLOCK).is_multiple_of(2));
        self.root = self.tracer.open(ROOT, None, self.ops);
    }

    /// Send one read, wait for its answer and check it.
    fn send(&mut self, published: &[AtomicU64]) {
        self.alternate_tracing();
        self.ops += 1;
        let read = self.stream.next_op();
        let log = &mut self.checker.log;
        log.attempted += 1;
        let (result, seconds, span) =
            self.tracer.time("server.request", self.root, self.ops, || {
                self.client.batch(vec![read.op.clone()])
            });
        match result {
            Ok(batch) => {
                log.latency_ms[usize::from(span.is_some())][read.class.index()]
                    .record(seconds * 1e3);
                self.checker.check(&read, &batch, published);
            }
            Err(err) => {
                // Refusals and timeouts are failures, not retried: the
                // workload is sized so that none occur.
                log.fail(format!("read failed: {err}"));
                let _ = self.client.reconnect();
            }
        }
    }

    fn finish(mut self) -> (ClientLog, Tracer) {
        self.tracer.close(self.root);
        (self.checker.log, self.tracer)
    }
}

/// What every phase's client threads need.
struct Clients<'a> {
    addr: SocketAddr,
    kb: ClaimsKb,
    /// Shard slots in the epoch vector (one when unsharded).
    slots: usize,
    published: &'a [AtomicU64],
    /// A tracer for one more thread of the run.
    sibling: &'a (dyn Fn() -> Tracer + Sync),
}

impl Clients<'_> {
    /// One closed-loop phase: [`CONNECTIONS`] threads, each sending its next
    /// read when the previous one returned.  Returns the log, the phase's
    /// wall seconds and the threads' tracers.
    fn closed_loop(&self, id_base: u64, seconds: f64) -> (ClientLog, f64, Vec<Tracer>) {
        let (mut merged, mut tracers) = (ClientLog::default(), Vec::new());
        let mut connections = Vec::new();
        for c in 0..CONNECTIONS as u64 {
            let tracer = (self.sibling)();
            match Connection::open(self.addr, self.kb, id_base + c, self.slots, tracer) {
                Ok(connection) => connections.push(connection),
                Err(err) => merged.fail(err),
            }
        }
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        std::thread::scope(|scope| {
            let handles: Vec<_> = connections
                .into_iter()
                .map(|mut connection| {
                    scope.spawn(move || {
                        while Instant::now() < deadline {
                            connection.send(self.published);
                        }
                        connection.finish()
                    })
                })
                .collect();
            for handle in handles {
                let (log, tracer) = handle.join().expect("client thread panicked");
                merged.merge(log);
                tracers.push(tracer);
            }
        });
        (merged, started.elapsed().as_secs_f64(), tracers)
    }
}

/// A clock the open-loop pacer can be tested against.
pub trait Clock {
    /// Time since the pacer started.
    fn now(&self) -> Duration;
    fn wait_until(&mut self, at: Duration);
}

/// The real clock: sleeps to shortly before the target, then spins, because
/// a sleeping thread on this VM wakes up to a millisecond late.
struct WallClock(Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn wait_until(&mut self, at: Duration) {
        const SPIN: Duration = Duration::from_micros(150);
        let now = self.0.elapsed();
        if at > now + SPIN {
            std::thread::sleep(at - now - SPIN);
        }
        while self.0.elapsed() < at {
            std::hint::spin_loop();
        }
    }
}

/// One open-loop request on its way: when it was due and when the generator
/// actually got to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paced {
    pub due: Duration,
    pub sent: Duration,
}

impl Paced {
    /// How late the generator ran.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Latency of an answer that arrived at `done`, counted from when the
    /// request was *due*: the wait a stall imposes on the requests behind it
    /// is part of their latency.
    pub fn latency(&self, done: Duration) -> Duration {
        done.saturating_sub(self.due)
    }
}

/// Hand request `n` to `send` at `n x interval`, whatever happened to the ones
/// before: when a send blocks, the next ones are already overdue and go out
/// back to back.  `send` returns whether the request went out.
pub fn pace<C: Clock>(
    clock: &mut C,
    interval: Duration,
    duration: Duration,
    mut send: impl FnMut(&mut C, u64, Paced) -> bool,
) -> u64 {
    let mut sent = 0;
    for n in 0u64.. {
        let due = interval.mul_f64(n as f64);
        if due >= duration {
            break;
        }
        clock.wait_until(due);
        let now = clock.now();
        if now >= duration {
            // Over capacity: the backlog outlived the phase.  What was never
            // sent is not attempted; the lateness already recorded shows it.
            break;
        }
        sent += u64::from(send(clock, n, Paced { due, sent: now }));
    }
    sent
}

/// What the generator tells a connection's reader about a request it wrote.
struct InFlight {
    paced: Paced,
    read: ReadOp,
}

/// Take the answers off one open-loop connection, in the order the requests
/// were written, until the generator hangs up.
fn open_loop_reader(
    mut socket: TcpStream,
    requests: mpsc::Receiver<InFlight>,
    answered: &AtomicU64,
    started: Instant,
    mut checker: Checker,
    mut tracer: Tracer,
    published: &[AtomicU64],
) -> (ClientLog, Tracer) {
    let root = tracer.open(ROOT, None, 0);
    let at = |tracer: &Tracer, d: Duration| {
        tracer
            .now_ns()
            .saturating_sub((started.elapsed().saturating_sub(d)).as_nanos() as u64)
    };
    let mut last_done = Duration::ZERO;
    for (n, request) in requests.into_iter().enumerate() {
        let InFlight { paced, read } = request;
        checker.log.attempted += 1;
        let answer = read_frame(&mut socket, MAX_FRAME_BYTES)
            .map_err(|e| e.to_string())
            .and_then(|payload| Response::decode(&payload));
        let done = started.elapsed();
        answered.fetch_add(1, Ordering::Relaxed);
        // The connection had nothing in flight between the previous answer
        // and this request: it waited for the schedule.
        if paced.sent > last_done {
            let (from, to) = (at(&tracer, last_done), at(&tracer, paced.sent));
            tracer.push("idle.schedule", from, to, root, 0);
        }
        let from = at(&tracer, paced.sent.max(last_done));
        let to = at(&tracer, done);
        tracer.push("server.request", from, to, root, n as u64);
        last_done = done;
        match answer {
            Ok(Response::Batch(batch)) => {
                checker.log.scheduled.push((
                    paced.due.as_secs_f64(),
                    paced.latency(done).as_secs_f64() * 1e3,
                ));
                checker.log.late_ms.record(paced.late().as_secs_f64() * 1e3);
                checker.check(&read, &batch, published);
            }
            Ok(Response::Error { kind, message }) => {
                checker
                    .log
                    .fail(format!("read refused: {kind:?} {message}"));
            }
            Err(err) => {
                // The stream is no longer aligned with the requests.
                checker.log.fail(format!("read failed: {err}"));
                break;
            }
        }
    }
    tracer.close(root);
    (checker.log, tracer)
}

impl Clients<'_> {
    /// One open-loop phase at `rate_per_s` requests per second in total:
    /// this thread is the generator.
    fn open_loop(&self, id: u64, rate_per_s: f64, duration: Duration) -> (ClientLog, Vec<Tracer>) {
        let mut merged = ClientLog::default();
        let mut tracers = Vec::new();
        if let Err(err) = self.paced_phase(id, rate_per_s, duration, &mut merged, &mut tracers) {
            merged.fail(err);
        }
        (merged, tracers)
    }

    fn paced_phase(
        &self,
        id: u64,
        rate_per_s: f64,
        duration: Duration,
        merged: &mut ClientLog,
        tracers: &mut Vec<Tracer>,
    ) -> Result<(), String> {
        let (kb, slots, published) = (self.kb, self.slots, self.published);
        let mut sockets = Vec::new();
        for _ in 0..CONNECTIONS {
            let socket = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))
                .and_then(|s| {
                    s.set_nodelay(true)?;
                    s.set_read_timeout(Some(Duration::from_secs(30)))?;
                    Ok(s)
                })
                .map_err(|e| format!("connect: {e}"))?;
            sockets.push(socket);
        }
        let mut stream = ReadStream::new(kb, id);
        // A statistic the generator reads to see its backlog; it publishes no
        // other data.
        let answered = AtomicU64::new(0);
        let backlog_limit = (rate_per_s * BACKLOG_LIMIT_S) as u64;
        std::thread::scope(|scope| {
            let started = Instant::now();
            let answered = &answered;
            let mut lanes = Vec::new();
            let mut readers = Vec::new();
            for socket in &sockets {
                let (lane, requests) = mpsc::channel();
                lanes.push(lane);
                let socket = socket
                    .try_clone()
                    .map_err(|e| format!("socket clone: {e}"))?;
                let (checker, tracer) = (Checker::new(slots), (self.sibling)());
                readers.push(scope.spawn(move || {
                    open_loop_reader(
                        socket, requests, answered, started, checker, tracer, published,
                    )
                }));
            }
            let mut frame = Vec::new();
            let mut write_failure = None;
            let mut behind_since: Option<Duration> = None;
            let mut over_capacity = false;
            pace(
                &mut WallClock(started),
                Duration::from_secs_f64(1.0 / rate_per_s),
                duration,
                |_, n, paced| {
                    if n - answered.load(Ordering::Relaxed) > backlog_limit {
                        let since = *behind_since.get_or_insert(paced.sent);
                        over_capacity |= (paced.sent - since).as_secs_f64() > BACKLOG_LIMIT_S;
                    } else {
                        behind_since = None;
                    }
                    if over_capacity {
                        return false;
                    }
                    let lane = n as usize % CONNECTIONS;
                    let read = stream.next_op();
                    frame.clear();
                    let written =
                        write_frame(&mut frame, &Request::new(vec![read.op.clone()]).encode())
                            .and_then(|()| (&sockets[lane]).write_all(&frame));
                    match written {
                        // The reader learns of the request only once it is on
                        // the wire, so it never waits for an answer to nothing.
                        Ok(()) => lanes[lane].send(InFlight { paced, read }).is_ok(),
                        Err(err) => {
                            write_failure = Some(format!("request write failed: {err}"));
                            false
                        }
                    }
                },
            );
            drop(lanes);
            for reader in readers {
                let (log, tracer) = reader.join().expect("open-loop reader panicked");
                merged.merge(log);
                tracers.push(tracer);
            }
            if let Some(err) = write_failure {
                merged.attempted += 1;
                merged.fail(err);
            }
            if over_capacity {
                eprintln!(
                    "open loop at {rate_per_s} req/s: over capacity, stopped after {} requests",
                    merged.attempted
                );
            }
            Ok::<_, String>(())
        })
    }
}

// ------------------------------------------------------------------- run

pub fn run(run: &mut Run, target: Target) -> Values {
    let mut values = Values::default();
    let kb = ClaimsKb {
        seed: run.seed,
        base_docs: if run.smoke { SMOKE_DOCS } else { BASE_DOCS },
    };
    let digest = input_digest(kb);
    values.set("gen.input_digest32", (digest.finish() & 0xFFFF_FFFF) as f64);
    values.set("gen.rows", digest.rows as f64);
    values.set("gen.docs", kb.base_docs as f64);

    // ---- set-up, several times; the last deployment is the one measured.
    let root = run.tracer.open(ROOT, None, 0);
    let (mut setup_s, mut gen_s) = (Recorder::default(), Recorder::default());
    let mut deployment: Option<Deployment> = None;
    let setups = if run.smoke { 3 } else { SETUP_REPEATS };
    for _ in 0..setups {
        if let Some(previous) = deployment.take() {
            run.tracer
                .time("server.shutdown", root, 0, || previous.shut_down());
        }
        let started = Instant::now();
        match Deployment::set_up(target, kb, &mut run.tracer, root) {
            Ok((d, seconds)) => {
                deployment = Some(d);
                gen_s.record(seconds);
            }
            Err(err) => {
                run.problem(err);
                return values;
            }
        }
        setup_s.record(started.elapsed().as_secs_f64());
        run.calibrator.sample();
    }
    let mut deployment = deployment.expect("at least one set-up");
    values.set("setup_s", setup_s.median());
    values.set("gen.corpus_s", gen_s.median());
    // This thread only drives the phases from here to the window's end.
    run.tracer.close(root);

    let addr = deployment.addr();
    let slots = deployment.epochs().len();
    let shared = Shared {
        published: deployment
            .epochs()
            .into_iter()
            .map(AtomicU64::new)
            .collect(),
        stop: AtomicBool::new(false),
        paused: AtomicBool::new(false),
        load: AtomicUsize::new(Load::Closed as usize),
    };
    let stats_before = deployment.front_stats();
    let shard_busy_before = deployment.shard_busy_nanos();

    let mut closed = ClientLog::default();
    let mut open: Vec<ClientLog> = Vec::new();
    let mut quiet = ClientLog::default();
    let mut closed_wall = 0.0;
    let mut tracers: Vec<Tracer> = Vec::new();
    let seconds = run.seconds;
    let sibling = || run.tracer.sibling();

    let writer_log = std::thread::scope(|scope| {
        let writer_tracer = sibling();
        let shared = &shared;
        let writer_deployment = &mut deployment;
        let writer = scope.spawn(move || writer_loop(writer_deployment, kb, shared, writer_tracer));
        let clients = Clients {
            addr,
            kb,
            slots,
            published: &shared.published,
            sibling: &sibling,
        };

        // Between phases only the writer competes for the two cores.
        run.calibrator.sample();
        let phase_tracers;
        (closed, closed_wall, phase_tracers) = clients.closed_loop(0, seconds * CLOSED_SHARE);
        tracers.extend(phase_tracers);
        for (i, (rate, share)) in OPEN_SHARES.iter().enumerate() {
            run.calibrator.sample();
            let load = if i == 0 { Load::Light } else { Load::Heavy };
            shared.load.store(load as usize, Ordering::Release);
            let (log, phase_tracers) = clients.open_loop(
                100 * (i as u64 + 1),
                f64::from(*rate),
                Duration::from_secs_f64(seconds * share),
            );
            open.push(log);
            tracers.extend(phase_tracers);
        }
        // The same closed loop with the writer held still: what its rounds
        // add to the read tail.
        shared.paused.store(true, Ordering::Release);
        run.calibrator.sample();
        let phase_tracers;
        (quiet, _, phase_tracers) = clients.closed_loop(1_000, seconds * QUIET_SHARE);
        tracers.extend(phase_tracers);
        shared.stop.store(true, Ordering::Release);
        let (log, tracer) = writer.join().expect("writer thread panicked");
        tracers.push(tracer);
        log
    });
    let root = run.tracer.open(ROOT, None, 0);
    let stats_after = deployment.front_stats();
    let shard_busy_after = deployment.shard_busy_nanos();
    for tracer in tracers {
        run.tracer.absorb(tracer);
    }

    // ---- fold the logs.
    run.attempted += writer_log.attempted;
    run.failed += writer_log.problems.len() as u64;
    for problem in &writer_log.problems {
        run.problem(problem.clone());
    }
    let mut staleness_max = 0;
    for log in [&closed, &quiet].into_iter().chain(&open) {
        run.attempted += log.attempted;
        run.failed += log.failed;
        staleness_max = staleness_max.max(log.staleness_max);
        for problem in &log.problems {
            run.problem(problem.clone());
        }
    }
    // What tracing cost the closed loop: per read class, the median latency
    // of the traced blocks against the untraced ones.
    for class in 0..3 {
        for (traced, recorder) in [&closed.latency_ms[0][class], &closed.latency_ms[1][class]]
            .into_iter()
            .enumerate()
        {
            for ms in recorder.samples() {
                run.on_off.record(class, traced == 1, ms / 1e3);
            }
        }
    }

    // The writer's round under the lightest paced load: under the saturated
    // closed loop (and, routed, under the higher rates) it mostly waits for a
    // core, and a median over a mix of the two flips between them.
    let [mut round_closed_ms, mut round_open_ms, _] = writer_log.round_ms.clone();
    values.set("round_p50_ms", round_open_ms.median());
    values.set("server.round_ms_closed_p50", round_closed_ms.median());
    let completed = closed.all_latencies().count();
    values.set("read_ops_per_s", completed as f64 / closed_wall.max(1e-9));
    for (name, class) in [
        ("point_read_p50_ms", ReadClass::Point),
        ("topk_p50_ms", ReadClass::TopK),
        ("scan_p50_ms", ReadClass::Scan),
    ] {
        values.set(name, closed.class_latencies(class).median());
    }

    let mut late_ms = Recorder::default();
    let mut best_rate = 0.0;
    for ((rate, _), log) in OPEN_SHARES.iter().zip(&mut open) {
        late_ms.merge(&log.late_ms);
        // Windows of at least a second and at least 1 000 samples, so each
        // window's p99 has its ten samples beyond.
        let window_s = (1_000.0 / f64::from(*rate)).max(1.0);
        // A phase cut short has no whole window: its p99 is then that of all
        // its requests, a backlog's worth of latency either way.
        let p99 = windowed_p99_median(&log.scheduled, window_s).map_or_else(
            || {
                let mut all = Recorder::default();
                log.scheduled.iter().for_each(|(_, ms)| all.record(*ms));
                all.percentile(0.99).unwrap_or(0.0)
            },
            |(p99, _)| p99,
        );
        let name = match rate {
            1_000 => "open_p99_ms".to_string(),
            rate => format!("server.open_p99_ms_r{rate}"),
        };
        values.set(name, p99);
        let generator_kept_up = log.late_ms.percentile(0.99).unwrap_or(0.0) < LIMIT_MS;
        if p99 > 0.0 && p99 <= LIMIT_MS && log.failed == 0 && generator_kept_up {
            best_rate = f64::from(*rate);
        }
    }
    values.set("server.max_rate_within_limit", best_rate);
    values.set(
        "server.generator_late_ms_p99",
        late_ms.supported_percentile(0.99).unwrap_or(0.0),
    );
    values.set("server.epoch_staleness_max", staleness_max as f64);

    let served = stats_after
        .batches_served
        .saturating_sub(stats_before.batches_served);
    let per_batch_us = |total: u64| total as f64 / served.max(1) as f64 / 1e3;
    let queue_us =
        per_batch_us(stats_after.queue_wait_nanos_total - stats_before.queue_wait_nanos_total);
    let service_us =
        per_batch_us(stats_after.service_nanos_total - stats_before.service_nanos_total);
    let shard_us = per_batch_us(shard_busy_after - shard_busy_before);
    values.set("server.queue_wait_us_mean", queue_us);
    values.set("server.service_us_mean", service_us);
    values.set(
        "server.max_queue_wait_us",
        stats_after.max_queue_wait_nanos as f64 / 1e3,
    );
    values.set("server.batches_served", served as f64);
    values.set(
        "server.overload_rejections",
        (stats_after.overload_rejections - stats_before.overload_rejections) as f64,
    );
    let totals = &writer_log.totals;
    values.set("grounding.share_of_round", totals.share(totals.grounding_s));
    values.set(
        "inference.share_of_round",
        totals.share(totals.learning_s + totals.inference_s),
    );
    values.set("core.update_self_ms", totals.self_ms_per_update());
    values.set(
        "core.resharded_per_update",
        totals.resharded as f64 / totals.updates.max(1) as f64,
    );
    values.set(
        "grounding.round_ms_p50",
        totals.grounding_s * 1e3 / totals.updates.max(1) as f64,
    );

    // ---- after the writer stopped: the deployment answers exactly like one
    // engine that loaded the final document set from scratch.
    let final_docs: Vec<i64> = (0..kb.base_docs)
        .chain(writer_log.live.iter().copied())
        .collect();
    let check = run.tracer.open("harness.check", root, 0);
    final_answer_check(run, kb, &final_docs, addr);
    run.tracer.close(check);

    // ---- probes of the layers a request crosses.
    let codec = codec_probe(run, kb, addr, root, &mut values);
    let mean_ms = closed.all_latencies().mean();
    values.set(
        "server.unaccounted_us",
        (mean_ms * 1e3 - queue_us - service_us - codec.total_us()).max(0.0),
    );
    values.set(
        "server.read_p99_writer_on_ms",
        closed
            .all_latencies()
            .supported_percentile(0.99)
            .unwrap_or(0.0),
    );
    values.set(
        "server.read_p99_writer_off_ms",
        quiet
            .all_latencies()
            .supported_percentile(0.99)
            .unwrap_or(0.0),
    );
    // Far-side shares of every request, from the servers' own counter means.
    let far_side: Vec<(&'static str, f64)> = match target {
        Target::Direct => vec![
            ("wire.codec", codec.total_us() / 1e6),
            ("server.queue", queue_us / 1e6),
            ("server.service", service_us / 1e6),
        ],
        Target::Routed => vec![
            ("wire.codec", codec.total_us() / 1e6),
            ("server.queue", queue_us / 1e6),
            ("router.execute", (service_us - shard_us).max(0.0) / 1e6),
            ("server.shard", shard_us.min(service_us) / 1e6),
        ],
    };
    run.tracer
        .synthesise_children_of_all("server.request", &far_side);

    let snapshot: Arc<Snapshot> = match &deployment {
        Deployment::Direct { engine, .. } => engine.snapshot(),
        Deployment::Routed { cluster, .. } => cluster.engine(0).snapshot(),
    };
    values.set("factorgraph.vars", snapshot.stats().num_variables as f64);
    values.set("factorgraph.factors", snapshot.stats().num_factors as f64);
    let keys = relation_keys(&snapshot, "Fact", 4_096);
    let mut in_process = ReadLatencies::default();
    let mut rng = SplitMix64::new(SplitMix64::fork(run.seed, 999_999));
    snapshot_reads(
        run,
        &snapshot,
        "Fact",
        &keys,
        &mut rng,
        root,
        &mut in_process,
    );
    in_process.report(&mut values);
    if let Deployment::Routed { cluster, .. } = &deployment {
        router_probe(run, kb, cluster, root, &mut values);
    }
    let mut all = closed.all_latencies();
    eprintln!(
        "{target:?}: closed-loop latency ms: mean {:.4} p50 {:.4} p90 {:.4} p99 {:.4} p99.9 {:.4} max {:.4}",
        all.mean(),
        all.median(),
        all.percentile(0.9).unwrap_or(0.0),
        all.percentile(0.99).unwrap_or(0.0),
        all.percentile(0.999).unwrap_or(0.0),
        all.max(),
    );
    eprintln!(
        "{target:?}: {completed} closed-loop reads in {closed_wall:.2} s over {CONNECTIONS} connections; \
         writer rounds p50 {:.2} ms under the closed loop (n={}), {:.2} ms under the open loop at 500 req/s (n={}); \
         open-loop p99 at 1000 req/s {:.3} ms (limit {LIMIT_MS} ms), generator p99 lateness {:.3} ms",
        round_closed_ms.median(),
        round_closed_ms.count(),
        round_open_ms.median(),
        round_open_ms.count(),
        values.get("open_p99_ms").unwrap_or(0.0),
        values.get("server.generator_late_ms_p99").unwrap_or(0.0),
    );
    run.tracer
        .time("server.shutdown", root, 0, || deployment.shut_down());
    run.tracer.close(root);
    values
}

fn probe_sample(run: &Run) -> usize {
    if run.smoke {
        PROBE_SAMPLE / 5
    } else {
        PROBE_SAMPLE
    }
}

/// The fixed probe batch of the final check.
fn probe_ops(kb: ClaimsKb) -> Vec<Op> {
    let mut stream = ReadStream::new(kb, 777);
    let mut ops: Vec<Op> = (0..PROBE_OPS).map(|_| stream.next_op().op).collect();
    ops.push(Op::Relations);
    ops
}

fn final_answer_check(run: &mut Run, kb: ClaimsKb, final_docs: &[i64], addr: SocketAddr) {
    let reference = DeepDive::builder()
        .program_text(CLAIMS_PROGRAM)
        .database(kb.database_of(final_docs.iter().copied()))
        .config(engine_config())
        .build()
        .and_then(|mut e| e.initial_run().map(|_| e));
    let Some(reference) = run.attempt("reference engine", reference) else {
        return;
    };
    let ops = probe_ops(kb);
    let expected = match SnapshotBatchHandler::new(reference.reader(), false)
        .execute(&Request::new(ops.clone()))
    {
        Response::Batch(batch) => batch.results,
        Response::Error { message, .. } => {
            run.problem(format!("reference engine refused the probe: {message}"));
            return;
        }
    };
    let served = Client::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.batch(ops).map_err(|e| e.to_string()));
    let Some(served) = run.attempt("probe batch", served) else {
        return;
    };
    // Byte-identical once the envelope (epochs differ by construction) is
    // set aside: compare the encoded results.
    let encode = |results: Vec<OpResult>| {
        Response::Batch(Batch {
            epoch: 0,
            results,
            epochs: None,
        })
        .encode()
    };
    if encode(served.results) != encode(expected) {
        run.problem("the probe batch differs from a single from-scratch engine's answers");
    }
}

/// Mean codec cost per op of the mix, in microseconds.
#[derive(Default)]
struct Codec {
    request_encode: Recorder,
    request_decode: Recorder,
    response_encode: Recorder,
    response_decode: Recorder,
}

impl Codec {
    fn total_us(&self) -> f64 {
        self.request_encode.mean()
            + self.request_decode.mean()
            + self.response_encode.mean()
            + self.response_decode.mean()
    }
}

/// Encode and decode the run's own frames outside the server, and time the
/// cheapest possible round trip (`epoch`).
fn codec_probe(
    run: &mut Run,
    kb: ClaimsKb,
    addr: SocketAddr,
    parent: Option<u32>,
    values: &mut Values,
) -> Codec {
    let mut codec = Codec::default();
    let mut bytes = Recorder::default();
    let mut rtt_us = Recorder::default();
    let Some(mut client) = run.attempt("codec probe connect", Client::connect(addr)) else {
        return codec;
    };
    let mut stream = ReadStream::new(kb, 555);
    let us = |seconds: f64| seconds * 1e6;
    for _ in 0..probe_sample(run) {
        let request = Request::new(vec![stream.next_op().op]);
        let (frame, seconds, _) = run
            .tracer
            .time("wire.request_encode", parent, 0, || request.encode());
        codec.request_encode.record(us(seconds));
        let (decoded, seconds, _) = run
            .tracer
            .time("wire.request_decode", parent, 0, || Request::decode(&frame));
        codec.request_decode.record(us(seconds));
        let Some(decoded) = run.attempt("request decode", decoded.map_err(|e| e.message)) else {
            continue;
        };
        let Some(batch) = run.attempt("codec probe read", client.batch(decoded.ops)) else {
            continue;
        };
        let response = Response::Batch(batch);
        let (payload, seconds, _) = run
            .tracer
            .time("wire.response_encode", parent, 0, || response.encode());
        codec.response_encode.record(us(seconds));
        let (back, seconds, _) = run.tracer.time("wire.response_decode", parent, 0, || {
            Response::decode(&payload)
        });
        codec.response_decode.record(us(seconds));
        if back.ok() != Some(response) {
            run.problem("a response did not survive encode/decode");
        }
        bytes.record((frame.len() + payload.len()) as f64);
    }
    for _ in 0..probe_sample(run) {
        let (epoch, seconds, _) = run
            .tracer
            .time("server.rtt_probe", parent, 0, || client.epoch());
        if run.attempt("epoch op", epoch).is_some() {
            rtt_us.record(us(seconds));
        }
    }
    values.set("wire.request_encode_us", codec.request_encode.mean());
    values.set("wire.request_decode_us", codec.request_decode.mean());
    values.set("wire.response_encode_us", codec.response_encode.mean());
    values.set("wire.response_decode_us", codec.response_decode.mean());
    values.set("wire.bytes_per_op", bytes.mean());
    values.set("server.rtt_floor_us", rtt_us.median());
    codec
}

/// The router's own share: the same point reads through an in-process
/// `Router` and straight to the owning shard.
fn router_probe(
    run: &mut Run,
    kb: ClaimsKb,
    cluster: &Cluster,
    parent: Option<u32>,
    values: &mut Values,
) {
    let Some(mut router) = run.attempt("router", cluster.router(RouterConfig::default())) else {
        return;
    };
    let mut shards: Vec<Client> = Vec::new();
    for addr in cluster.addrs() {
        match run.attempt("shard connect", Client::connect(addr)) {
            Some(client) => shards.push(client),
            None => return,
        }
    }
    let (mut routed_ms, mut direct_ms, mut fanout) = (
        Recorder::default(),
        Recorder::default(),
        Recorder::default(),
    );
    let mut stream = ReadStream::new(kb, 666);
    for _ in 0..probe_sample(run) {
        let read = stream.next_op();
        let (batch, seconds, _) = run.tracer.time("router.batch", parent, 0, || {
            router.batch(std::slice::from_ref(&read.op))
        });
        let Some(batch) = run.attempt("router batch", batch) else {
            continue;
        };
        fanout.record(batch.epochs.iter().flatten().count() as f64);
        let Op::ProbabilityOf { tuple, .. } = &read.op else {
            continue;
        };
        routed_ms.record(seconds * 1e3);
        let Some(shard) = run.attempt("shard_of", cluster.assignment().shard_of(tuple, SHARDS))
        else {
            continue;
        };
        let (answer, seconds, _) = run.tracer.time("server.shard_call", parent, 0, || {
            shards[shard].batch(vec![read.op.clone()])
        });
        if let Some(answer) = run.attempt("shard call", answer) {
            direct_ms.record(seconds * 1e3);
            if answer.results != batch.results {
                run.problem("router and owning shard disagree on a point read");
            }
        }
    }
    values.set("router.batch_ms_p50", routed_ms.median());
    values.set("router.shard_call_ms_p50", direct_ms.median());
    values.set(
        "router.self_ms",
        (routed_ms.median() - direct_ms.median()).max(0.0),
    );
    values.set("router.fanout_per_op", fanout.mean());
    values.set(
        "router.overhead_x",
        routed_ms.median() / direct_ms.median().max(1e-9),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A virtual clock: waiting jumps to the target, sending costs what the
    /// test says.
    struct FakeClock(Duration);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0
        }

        fn wait_until(&mut self, at: Duration) {
            self.0 = self.0.max(at);
        }
    }

    #[test]
    fn open_loop_counts_the_backlog_of_a_stall() {
        let ms = Duration::from_millis;
        let us = Duration::from_micros;
        // 1 000 req/s for 200 ms over one connection whose server answers in
        // order, 0.1 ms per request — except request 50, which takes 50 ms.
        let mut requests = Vec::new();
        let sent = pace(
            &mut FakeClock(Duration::ZERO),
            ms(1),
            ms(200),
            |_, _, paced| {
                requests.push(paced);
                true
            },
        );
        assert_eq!((sent, requests.len()), (200, 200));
        // The generator never blocked, so it kept its schedule to the tick.
        assert!(requests.iter().all(|r| r.late() == Duration::ZERO));
        let mut free_at = Duration::ZERO;
        let mut latencies = Vec::new();
        let mut service_only = Vec::new();
        for (n, request) in requests.iter().enumerate() {
            let service = if n == 50 { ms(50) } else { us(100) };
            let begins = free_at.max(request.sent);
            free_at = begins + service;
            latencies.push(request.latency(free_at));
            service_only.push(free_at - begins);
        }
        assert_eq!(latencies[49], us(100));
        assert_eq!(latencies[50], ms(50));
        // Request 51 was due at 51 ms but its answer could only start at
        // 100 ms: its latency counts the 49 ms it waited plus its service.
        assert_eq!(latencies[51], ms(49) + us(100));
        // The backlog drains at 0.9 ms per request: ~55 requests are slow.
        let slow = latencies.iter().filter(|l| **l > ms(1)).count();
        assert!((50..=60).contains(&slow), "{slow}");
        assert_eq!(latencies[199], us(100));
        // Timed from when the server got to each, only one would look slow.
        assert_eq!(service_only.iter().filter(|l| **l > ms(1)).count(), 1);
    }

    #[test]
    fn a_blocked_generator_catches_up_and_reports_how_late_it_ran() {
        let ms = Duration::from_millis;
        // The write of request 10 blocks for 5 ms (a full socket buffer).
        let mut requests = Vec::new();
        pace(
            &mut FakeClock(Duration::ZERO),
            ms(1),
            ms(20),
            |clock, n, paced| {
                requests.push(paced);
                if n == 10 {
                    clock.0 += ms(5);
                }
                n % 2 == 0
            },
        );
        // Requests are never skipped or rescheduled: 11..15 go out back to
        // back at 15 ms, each late by what it waited.
        assert_eq!(requests.len(), 20);
        assert_eq!(requests[11].due, ms(11));
        assert_eq!(requests[11].late(), ms(4));
        assert_eq!(requests[14].late(), ms(1));
        assert_eq!(requests[15].late(), Duration::ZERO);
        // A send that fails is not counted as sent.
        let sent = pace(&mut FakeClock(Duration::ZERO), ms(1), ms(10), |_, n, _| {
            n % 2 == 0
        });
        assert_eq!(sent, 5);
    }

    #[test]
    fn summed_reports_add_phase_times() {
        let report = |g: f64| IterationReport {
            mode: ExecutionMode::Incremental,
            strategy: None,
            grounding_secs: g,
            learning_secs: 0.5,
            inference_secs: 0.25,
            acceptance_rate: None,
            new_variables: 1,
            new_factors: 2,
            fell_back_to_variational: false,
            resharded_relations: vec!["Fact".into()],
        };
        let sum = sum_reports([report(1.0), report(2.0)].into_iter()).unwrap();
        assert_eq!(
            (sum.grounding_secs, sum.learning_secs, sum.new_factors),
            (3.0, 1.0, 4)
        );
        assert_eq!(sum.resharded_relations.len(), 2);
        assert!(sum_reports(std::iter::empty()).is_none());
    }
}
