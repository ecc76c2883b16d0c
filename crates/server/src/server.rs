//! The TCP front door: acceptor, bounded request queue, worker pool.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ─▶ connection thread ─▶ bounded queue ─▶ worker: pin one snapshot,
//!            (read frame,          (full ⇒ typed     run the whole batch
//!             decode request)       Overloaded        against that epoch
//!                                   response,    ◀─ respond ──┘
//!                                   never grows)
//! ```
//!
//! The design borrows the `vendor/rayon` pool's idioms — workers spawned
//! once, parked on a condvar, poison-immune locks, named threads — but the
//! dispatch shape is a queue, not an epoch barrier: requests are independent,
//! so workers pull them one at a time instead of all running one job.
//!
//! **Backpressure is explicit and typed.**  The request queue is bounded at
//! [`ServerConfig::queue_capacity`]; when it is full the connection thread
//! immediately answers `overloaded` instead of enqueueing — memory use is
//! bounded by `capacity + workers` in-flight requests no matter how hard
//! clients flood, and clients get a machine-readable retry signal rather
//! than unbounded latency (the same reasoning as the bounded epoch-barrier
//! pool: admission control beats hidden buffering).
//!
//! **Batches are the consistency unit.**  A worker pins `reader.snapshot()`
//! exactly once per batch, so every operation in the batch reads the same
//! epoch even while `run_update` publishes new ones next door.  Consecutive
//! batches on one connection observe monotonically non-decreasing epochs
//! because publishes swap a single pointer.
//!
//! **Robustness over politeness.**  Malformed JSON, bad requests, oversized
//! declarations, and floods all produce typed error *responses*; only framing
//! violations that make the byte stream unrecoverable (a truncated frame, an
//! oversized prefix whose payload we refuse to read) close the connection —
//! after sending the typed error when the stream still permits one.  Nothing
//! a client sends can panic the server: worker panics are caught and turned
//! into `internal` responses, and the worker survives.

use crate::protocol::{Batch, ErrorKind, Op, OpResult, Request, Response};
use dd_wire::frame::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
use deepdive::{Snapshot, SnapshotReader};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Lock ignoring poisoning (same rationale as the vendored pool: state
/// transitions are panic-safe, so poisoned data is still consistent).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing batches (each pins one snapshot at a time).
    pub workers: usize,
    /// Bound of the request queue; a request arriving while it is full gets
    /// an immediate `overloaded` response.
    pub queue_capacity: usize,
    /// Cap on one frame's payload; larger declarations get `oversized`.
    pub max_frame_bytes: usize,
    /// Connections beyond this are answered `overloaded` and closed.
    pub max_connections: usize,
    /// Enable the `sleep` fault-injection op (tests use it to hold workers
    /// busy deterministically; keep it off for real deployments).
    pub allow_sleep_op: bool,
    /// How often parked connection threads wake to check for shutdown.
    pub poll_interval: Duration,
    /// Cap on how long one response write may block on a peer that stopped
    /// reading before the connection is dropped.
    pub write_timeout: Duration,
    /// A connection that delivers no byte for this long is closed — the
    /// slowloris bound: idle (or partial-frame-stalled) sockets cannot hold
    /// connection slots forever.  Clients reconnect on demand.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            max_frame_bytes: MAX_FRAME_BYTES,
            max_connections: 256,
            allow_sleep_op: false,
            poll_interval: Duration::from_millis(25),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// What a worker runs a decoded batch through.  The default is
/// [`SnapshotBatchHandler`] (pin one snapshot, answer every op from it);
/// the `dd-router` front door substitutes a scatter-gather implementation
/// behind the same acceptor/queue/worker machinery via
/// [`Server::bind_with_handler`].
///
/// Implementations never see transport concerns: framing, decode
/// classification, backpressure, and shutdown refusals are all handled
/// before `execute` is called, and worker panics are caught and turned into
/// typed `internal` errors after it.
pub trait BatchHandler: Send + Sync + 'static {
    /// Execute one decoded batch, returning the response frame's content.
    fn execute(&self, request: &Request) -> Response;
}

/// The default [`BatchHandler`]: pins `reader.snapshot()` once per batch so
/// every op answers from the same epoch, honoring the request's `at_epoch`
/// pin (answering [`ErrorKind::EpochUnavailable`] when the current snapshot
/// is at any other epoch).
pub struct SnapshotBatchHandler {
    reader: SnapshotReader,
    allow_sleep: bool,
}

impl SnapshotBatchHandler {
    /// Wrap a snapshot reader; `allow_sleep` enables the fault-injection
    /// `sleep` op (see [`ServerConfig::allow_sleep_op`]).
    pub fn new(reader: SnapshotReader, allow_sleep: bool) -> Self {
        SnapshotBatchHandler {
            reader,
            allow_sleep,
        }
    }
}

impl BatchHandler for SnapshotBatchHandler {
    fn execute(&self, request: &Request) -> Response {
        // One snapshot pin per batch: every op below reads this epoch.
        let snapshot = self.reader.snapshot();
        if let Some(want) = request.at_epoch {
            if snapshot.epoch() != want {
                return Response::error(
                    ErrorKind::EpochUnavailable,
                    format!(
                        "pinned epoch {want} is not this server's current epoch {}",
                        snapshot.epoch()
                    ),
                );
            }
        }
        execute_batch(&snapshot, request, self.allow_sleep)
    }
}

/// Monotonic counters, readable while the server runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (including ones later rejected for the cap).
    pub connections_accepted: u64,
    /// Batches answered from a pinned snapshot.
    pub batches_served: u64,
    /// Requests refused with `overloaded` (queue full or connection cap).
    pub overload_rejections: u64,
    /// Frames refused as malformed / oversized / otherwise undecodable.
    pub malformed_frames: u64,
    /// Total nanoseconds served batches spent waiting in the bounded queue
    /// (enqueue → worker pop).  Divide by `batches_served` for the mean.
    pub queue_wait_nanos_total: u64,
    /// Total nanoseconds workers spent executing batches (pop → response).
    pub service_nanos_total: u64,
    /// The single longest queue wait observed, in nanoseconds.
    pub max_queue_wait_nanos: u64,
}

/// One queued unit of work: a decoded batch plus the channel that hands the
/// response back to its connection thread.
struct QueuedRequest {
    request: Request,
    respond: mpsc::Sender<Response>,
    /// When the request entered the queue; workers subtract this from their
    /// pop time to account queue wait separately from service time.
    enqueued_at: std::time::Instant,
}

/// One live connection in the server's registry: the thread serving it plus
/// a clone of its socket, so shutdown can force-unblock the thread's reads
/// and writes with `Shutdown::Both` before joining it.
struct Connection {
    handle: JoinHandle<()>,
    stream: TcpStream,
}

struct Shared {
    queue: Mutex<VecDeque<QueuedRequest>>,
    work_ready: Condvar,
    stop: AtomicBool,
    config: ServerConfig,
    active_connections: AtomicU64,
    connections_accepted: AtomicU64,
    batches_served: AtomicU64,
    overload_rejections: AtomicU64,
    malformed_frames: AtomicU64,
    queue_wait_nanos: AtomicU64,
    service_nanos: AtomicU64,
    max_queue_wait_nanos: AtomicU64,
}

impl Shared {
    /// Admit a request or refuse it, never blocking and never growing the
    /// queue past its bound.  `Err` returns the request to the caller so the
    /// connection thread can answer `overloaded` itself.
    fn try_enqueue(&self, item: QueuedRequest) -> Result<(), QueuedRequest> {
        {
            let mut queue = lock(&self.queue);
            if self.stop.load(Ordering::Acquire) || queue.len() >= self.config.queue_capacity {
                drop(queue);
                return Err(item);
            }
            queue.push_back(item);
        }
        self.work_ready.notify_one();
        Ok(())
    }

    /// Block until a request is available or shutdown begins (`None`).
    fn pop(&self) -> Option<QueuedRequest> {
        let mut queue = lock(&self.queue);
        loop {
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            if let Some(item) = queue.pop_front() {
                return Some(item);
            }
            queue = self
                .work_ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A running TCP serving layer over one engine's [`SnapshotReader`].
///
/// Bind with [`Server::bind`]; the acceptor, workers, and per-connection
/// threads all run in the background until [`Server::shutdown`] (or drop).
/// See the module docs for the request lifecycle.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<Connection>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `reader`'s snapshots.  Returns as soon as the listener is live.
    pub fn bind(
        addr: impl ToSocketAddrs,
        reader: SnapshotReader,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let handler = Arc::new(SnapshotBatchHandler::new(reader, config.allow_sleep_op));
        Server::bind_with_handler(addr, handler, config)
    }

    /// Bind `addr` and serve batches through a custom [`BatchHandler`]
    /// (acceptor, bounded queue, typed backpressure, and worker-panic
    /// containment all behave exactly as with [`Server::bind`]).
    pub fn bind_with_handler(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn BatchHandler>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            config: config.clone(),
            active_connections: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            batches_served: AtomicU64::new(0),
            overload_rejections: AtomicU64::new(0),
            malformed_frames: AtomicU64::new(0),
            queue_wait_nanos: AtomicU64::new(0),
            service_nanos: AtomicU64::new(0),
            max_queue_wait_nanos: AtomicU64::new(0),
        });

        let workers = (0..config.workers.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("dd-server-worker-{index}"))
                    .spawn(move || worker_loop(&shared, handler.as_ref()))
                    .expect("spawn server worker")
            })
            .collect();

        let connections = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::Builder::new()
                .name("dd-server-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, &shared, &connections))
                .expect("spawn server acceptor")
        };

        Ok(Server {
            local_addr,
            shared,
            acceptor: Some(acceptor),
            workers,
            connections,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current counter values.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections_accepted: self.shared.connections_accepted.load(Ordering::Relaxed),
            batches_served: self.shared.batches_served.load(Ordering::Relaxed),
            overload_rejections: self.shared.overload_rejections.load(Ordering::Relaxed),
            malformed_frames: self.shared.malformed_frames.load(Ordering::Relaxed),
            queue_wait_nanos_total: self.shared.queue_wait_nanos.load(Ordering::Relaxed),
            service_nanos_total: self.shared.service_nanos.load(Ordering::Relaxed),
            max_queue_wait_nanos: self.shared.max_queue_wait_nanos.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, refuse queued work, join every thread.  Connections
    /// mid-request receive a `shutting_down` error before their socket
    /// closes.  Also runs on drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // The flag is raised under the queue lock: a worker in `pop` checks
        // it and starts waiting under that lock too, so it either sees the
        // flag or is already waiting when `notify_all` runs.  Raised outside
        // the lock, the store and the notification could both land between
        // a worker's check and its wait, and that worker — and the join
        // below — would sleep forever.
        {
            let _queue = lock(&self.shared.queue);
            self.shared.stop.store(true, Ordering::Release);
        }
        self.shared.work_ready.notify_all();
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection; it checks the stop flag before serving anything.  A
        // wildcard bind (0.0.0.0/[::]) is not connectable on every platform,
        // so aim the poke at the loopback of the same family.
        let mut poke_addr = self.local_addr;
        if poke_addr.ip().is_unspecified() {
            poke_addr.set_ip(match poke_addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(poke_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Requests that were queued but never popped: dropping them drops
        // their response senders, which tells the waiting connection threads
        // (blocked in `recv`) that the server is going away.
        lock(&self.shared.queue).clear();
        // Force-unblock any connection thread still parked in a socket read
        // or wedged in a write to a peer that stopped reading, then join.
        for conn in lock(&self.connections).drain(..) {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            let _ = conn.handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn acceptor_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    connections: &Mutex<Vec<Connection>>,
) {
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                // Persistent accept errors (e.g. EMFILE when the fd limit is
                // hit) return immediately; back off instead of hot-spinning.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        shared.connections_accepted.fetch_add(1, Ordering::Relaxed);
        let active = shared.active_connections.fetch_add(1, Ordering::Relaxed) + 1;
        if active > shared.config.max_connections as u64 {
            // Over the cap: answer with the typed overload signal and close.
            shared.overload_rejections.fetch_add(1, Ordering::Relaxed);
            shared.active_connections.fetch_sub(1, Ordering::Relaxed);
            let mut stream = stream;
            let refusal = Response::error(
                ErrorKind::Overloaded,
                format!(
                    "connection cap of {} reached; retry later",
                    shared.config.max_connections
                ),
            );
            let _ = write_frame(&mut stream, &refusal.encode()).and_then(|_| stream.flush());
            continue;
        }
        let id = next_id;
        next_id += 1;
        // Reap entries of connections that already finished, so the registry
        // tracks concurrent connections, not total-ever-accepted (dropping a
        // finished handle detaches nothing — the thread is gone).
        lock(connections).retain(|conn| !conn.handle.is_finished());
        // The registry keeps a socket clone so shutdown can force-unblock
        // the thread; without one we'd rather refuse than serve unjoinably.
        let Ok(stream_clone) = stream.try_clone() else {
            shared.active_connections.fetch_sub(1, Ordering::Relaxed);
            continue;
        };
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("dd-server-conn-{id}"))
            .spawn(move || {
                connection_loop(&stream, &shared);
                // The registry holds a duplicate of this socket, so dropping
                // `stream` alone would leave the peer's connection half-open
                // until server shutdown; `shutdown` closes every duplicate.
                let _ = stream.shutdown(std::net::Shutdown::Both);
                shared.active_connections.fetch_sub(1, Ordering::Relaxed);
            })
            .expect("spawn connection thread");
        lock(connections).push(Connection {
            handle,
            stream: stream_clone,
        });
    }
}

/// A `Read` adapter that turns the socket's read timeout into a shutdown
/// and idle-deadline poll: timeouts retry (preserving frame alignment — no
/// byte is lost) until data arrives, the peer closes, the server stops, or
/// the connection has been silent past its idle deadline (the slowloris
/// bound — a peer holding the socket open without sending cannot occupy a
/// connection slot forever).
struct PolledStream<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    idle_timeout: Duration,
    last_byte: std::time::Instant,
}

impl Read for PolledStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(err)
                    if matches!(
                        err.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.stop.load(Ordering::Acquire) {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "server shutting down",
                        ));
                    }
                    if self.last_byte.elapsed() >= self.idle_timeout {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "connection idle past the deadline",
                        ));
                    }
                }
                Ok(n) => {
                    if n > 0 {
                        self.last_byte = std::time::Instant::now();
                    }
                    return Ok(n);
                }
                other => return other,
            }
        }
    }
}

/// Serve one connection until it closes, violates framing, or the server
/// stops.  One request is in flight per connection at a time, so responses
/// are trivially ordered.
fn connection_loop(stream: &TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    // A peer that stops *reading* must not wedge this thread forever in
    // `write_all`; on timeout the write fails and the connection closes
    // (shutdown also force-unblocks via `Shutdown::Both` on the registry).
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = PolledStream {
        stream,
        stop: &shared.stop,
        idle_timeout: shared.config.idle_timeout,
        last_byte: std::time::Instant::now(),
    };
    let mut writer = stream;

    loop {
        let payload = match read_frame(&mut reader, shared.config.max_frame_bytes) {
            Ok(payload) => payload,
            Err(FrameError::Closed) => return,
            Err(err @ FrameError::Oversized { .. }) => {
                // The declared payload is still in flight and we refuse to
                // read it, so the stream cannot be re-synchronized: send the
                // typed refusal, then close.
                shared.malformed_frames.fetch_add(1, Ordering::Relaxed);
                let refusal = Response::error(ErrorKind::Oversized, err.to_string());
                let _ = write_response(&mut writer, &refusal);
                return;
            }
            // Truncated frame, shutdown poll, or transport error: nothing
            // well-formed to answer.
            Err(_) => return,
        };

        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(err) => {
                // The frame itself was sound, so the stream stays aligned —
                // answer with the typed error and keep serving.  The decode
                // layer already classified the failure into the taxonomy.
                shared.malformed_frames.fetch_add(1, Ordering::Relaxed);
                if write_response(&mut writer, &Response::error(err.kind, err.message)).is_err() {
                    return;
                }
                continue;
            }
        };

        let (respond, result) = mpsc::channel();
        let queued = QueuedRequest {
            request,
            respond,
            enqueued_at: std::time::Instant::now(),
        };
        let response = match shared.try_enqueue(queued) {
            Ok(()) => match result.recv() {
                Ok(response) => response,
                // The worker (or queue) dropped the sender: shutdown.
                Err(_) => Response::error(ErrorKind::ShuttingDown, "server shutting down"),
            },
            Err(_refused) => {
                if shared.stop.load(Ordering::Acquire) {
                    // A shutdown-time refusal is not a backpressure event;
                    // keep it out of the overload counter.
                    Response::error(ErrorKind::ShuttingDown, "server shutting down")
                } else {
                    shared.overload_rejections.fetch_add(1, Ordering::Relaxed);
                    Response::error(
                        ErrorKind::Overloaded,
                        format!(
                            "request queue full (capacity {}); retry after backoff",
                            shared.config.queue_capacity
                        ),
                    )
                }
            }
        };
        if write_response(&mut writer, &response).is_err() {
            return;
        }
        if matches!(
            response,
            Response::Error {
                kind: ErrorKind::ShuttingDown,
                ..
            }
        ) {
            return;
        }
    }
}

fn write_response(writer: &mut impl Write, response: &Response) -> io::Result<()> {
    write_frame(writer, &response.encode())?;
    writer.flush()
}

fn worker_loop(shared: &Shared, handler: &dyn BatchHandler) {
    while let Some(QueuedRequest {
        request,
        respond,
        enqueued_at,
    }) = shared.pop()
    {
        let wait = enqueued_at.elapsed().as_nanos() as u64;
        shared.queue_wait_nanos.fetch_add(wait, Ordering::Relaxed);
        shared
            .max_queue_wait_nanos
            .fetch_max(wait, Ordering::Relaxed);
        let started = std::time::Instant::now();
        let response = catch_unwind(AssertUnwindSafe(|| handler.execute(&request)))
            .unwrap_or_else(|_| Response::error(ErrorKind::Internal, "batch execution panicked"));
        shared
            .service_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if matches!(response, Response::Batch(_)) {
            shared.batches_served.fetch_add(1, Ordering::Relaxed);
        }
        // A vanished connection thread is fine; drop the response.
        let _ = respond.send(response);
    }
}

/// Run every op of a batch against one pinned snapshot.
fn execute_batch(snapshot: &Snapshot, request: &Request, allow_sleep: bool) -> Response {
    let mut results = Vec::with_capacity(request.ops.len());
    for op in &request.ops {
        let result = match op {
            Op::Epoch => OpResult::Empty,
            Op::Relations => OpResult::Relations(
                snapshot
                    .relation_names()
                    .into_iter()
                    .map(str::to_string)
                    .collect(),
            ),
            Op::Stats => OpResult::Stats {
                num_variables: snapshot.stats().num_variables,
                num_factors: snapshot.stats().num_factors,
                num_weights: snapshot.stats().num_weights,
                num_catalogued: snapshot.num_catalogued_variables(),
            },
            Op::ProbabilityOf { relation, tuple } => {
                OpResult::Probability(snapshot.probability_of(relation, tuple))
            }
            Op::Query { relation, spec } => {
                let mut query = snapshot
                    .facts(relation)
                    .min_probability(spec.min_probability)
                    .offset(spec.offset);
                if let Some(k) = spec.top_k {
                    query = query.top_k(k);
                }
                if let Some(l) = spec.limit {
                    query = query.limit(l);
                }
                OpResult::Facts(query.run())
            }
            Op::AllFacts {
                min_probability,
                offset,
                limit,
            } => OpResult::AllFacts(
                snapshot
                    .all_facts(*min_probability, *offset, *limit)
                    .into_iter()
                    .map(|(relation, tuple, p)| (relation.to_string(), tuple, p))
                    .collect(),
            ),
            Op::Sleep { millis } => {
                if !allow_sleep {
                    return Response::error(
                        ErrorKind::BadRequest,
                        "the sleep op is disabled on this server",
                    );
                }
                std::thread::sleep(Duration::from_millis(*millis));
                OpResult::Empty
            }
        };
        results.push(result);
    }
    Response::Batch(Batch {
        epoch: snapshot.epoch(),
        epochs: None,
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FactQuerySpec;
    use dd_relstore::tuple;
    use deepdive::{CatalogShards, Snapshot, SnapshotReader};

    fn test_snapshot() -> Snapshot {
        let mut catalog = std::collections::HashMap::new();
        catalog.insert(("Fact".to_string(), tuple![1i64]), 0usize);
        catalog.insert(("Fact".to_string(), tuple![2i64]), 1usize);
        Snapshot::synthetic(3, vec![0.9, 0.2], CatalogShards::build(catalog.iter(), 3))
    }

    #[test]
    fn execute_batch_pins_one_epoch_and_answers_in_order() {
        let snapshot = test_snapshot();
        let request = Request::new(vec![
            Op::Epoch,
            Op::Relations,
            Op::probability_of("Fact", tuple![1i64]),
            Op::probability_of("Fact", tuple![404i64]),
            Op::query(
                "Fact",
                FactQuerySpec {
                    min_probability: 0.5,
                    ..FactQuerySpec::default()
                },
            ),
            Op::AllFacts {
                min_probability: 0.0,
                offset: 0,
                limit: 10,
            },
            Op::Stats,
        ]);
        let Response::Batch(batch) = execute_batch(&snapshot, &request, false) else {
            panic!("expected a batch response");
        };
        assert_eq!(batch.epoch, 3);
        assert_eq!(batch.results.len(), 7);
        assert_eq!(batch.results[0], OpResult::Empty);
        assert_eq!(
            batch.results[1],
            OpResult::Relations(vec!["Fact".to_string()])
        );
        assert_eq!(batch.results[2], OpResult::Probability(Some(0.9)));
        assert_eq!(batch.results[3], OpResult::Probability(None));
        assert_eq!(batch.results[4], OpResult::Facts(vec![(tuple![1i64], 0.9)]));
        assert_eq!(
            batch.results[5],
            OpResult::AllFacts(vec![
                ("Fact".to_string(), tuple![1i64], 0.9),
                ("Fact".to_string(), tuple![2i64], 0.2),
            ])
        );
        assert!(matches!(
            batch.results[6],
            OpResult::Stats {
                num_catalogued: 2,
                ..
            }
        ));
    }

    #[test]
    fn sleep_op_is_rejected_unless_enabled() {
        let snapshot = test_snapshot();
        let request = Request::new(vec![Op::Sleep { millis: 0 }]);
        assert!(matches!(
            execute_batch(&snapshot, &request, false),
            Response::Error {
                kind: ErrorKind::BadRequest,
                ..
            }
        ));
        assert!(matches!(
            execute_batch(&snapshot, &request, true),
            Response::Batch(_)
        ));
    }

    #[test]
    fn bounded_queue_admits_to_capacity_then_refuses() {
        let shared = Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            stop: AtomicBool::new(false),
            config: ServerConfig {
                queue_capacity: 2,
                ..ServerConfig::default()
            },
            active_connections: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            batches_served: AtomicU64::new(0),
            overload_rejections: AtomicU64::new(0),
            malformed_frames: AtomicU64::new(0),
            queue_wait_nanos: AtomicU64::new(0),
            service_nanos: AtomicU64::new(0),
            max_queue_wait_nanos: AtomicU64::new(0),
        };
        let item = || {
            let (respond, _rx) = mpsc::channel();
            QueuedRequest {
                request: Request::new(Vec::new()),
                respond,
                enqueued_at: std::time::Instant::now(),
            }
        };
        assert!(shared.try_enqueue(item()).is_ok());
        assert!(shared.try_enqueue(item()).is_ok());
        assert!(shared.try_enqueue(item()).is_err()); // full: refused, not queued
        assert!(shared.pop().is_some()); // drain one slot...
        assert!(shared.try_enqueue(item()).is_ok()); // ...and admission resumes
        shared.stop.store(true, Ordering::Release);
        assert!(shared.try_enqueue(item()).is_err()); // stopping: refuse
        assert!(shared.pop().is_none()); // stopping: workers exit
    }

    #[test]
    fn snapshot_handler_enforces_the_epoch_pin() {
        let handler = SnapshotBatchHandler::new(SnapshotReader::fixed(test_snapshot()), false);
        // Matching pin (the synthetic snapshot is at epoch 3): served.
        let pinned = Request {
            ops: vec![Op::Epoch],
            at_epoch: Some(3),
        };
        let Response::Batch(batch) = handler.execute(&pinned) else {
            panic!("matching pin must be served");
        };
        assert_eq!(batch.epoch, 3);
        // Any other pin: the typed epoch_unavailable error, not a stale cut.
        let stale = Request {
            ops: vec![Op::Epoch],
            at_epoch: Some(2),
        };
        assert!(matches!(
            handler.execute(&stale),
            Response::Error {
                kind: ErrorKind::EpochUnavailable,
                ..
            }
        ));
        // No pin: served from whatever is current.
        assert!(matches!(
            handler.execute(&Request::new(vec![Op::Epoch])),
            Response::Batch(_)
        ));
    }

    #[test]
    fn timing_counters_account_queue_wait_and_service_time() {
        let config = ServerConfig {
            allow_sleep_op: true,
            ..ServerConfig::default()
        };
        let server = Server::bind(
            "127.0.0.1:0",
            SnapshotReader::fixed(test_snapshot()),
            config,
        )
        .expect("bind loopback server");
        let mut client =
            crate::client::Client::connect(server.local_addr()).expect("connect test client");
        client
            .batch(vec![Op::Sleep { millis: 5 }])
            .expect("sleep batch is served");
        let stats = server.stats();
        assert_eq!(stats.batches_served, 1);
        // The worker slept 5ms inside execute, so service time must show it.
        assert!(
            stats.service_nanos_total >= 5_000_000,
            "service time {} too small",
            stats.service_nanos_total
        );
        // One batch: the max queue wait IS the total queue wait.
        assert_eq!(stats.max_queue_wait_nanos, stats.queue_wait_nanos_total);
        server.shutdown();
    }
}
