//! The TCP front door: an acceptor, and one thread per connection that runs
//! every batch it reads.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ─▶ one thread per connection, for each frame in turn:
//!
//!   read frame ─▶ decode ─▶ take an execution slot ─▶ execute ─▶ release ─▶ respond
//!                           (arrival order; past the     (pin one snapshot,
//!                            waiter bound ⇒ typed         run the whole batch
//!                            Overloaded response)         against that epoch)
//! ```
//!
//! **No hand-off.**  A read is a lock-free `Arc<Snapshot>` lookup, so the
//! thread that decoded a batch also executes it and writes the answer: a
//! request touches one thread from its first byte to its last.  What a queue
//! in front of a worker pool would add is admission control, and the
//! execution slots keep exactly that: at most [`ServerConfig::workers`]
//! batches execute at once, the rest wait for a slot in arrival order.
//!
//! **Backpressure is explicit and typed.**  At most
//! [`ServerConfig::queue_capacity`] requests wait for a slot; one that would
//! make more waiters is answered `overloaded` at once — clients get a
//! machine-readable retry signal rather than unbounded latency (admission
//! control beats hidden buffering).
//!
//! **Batches are the consistency unit.**  A batch pins `reader.snapshot()`
//! exactly once, so every operation in it reads the same epoch even while
//! `run_update` publishes new ones next door.  Consecutive batches on one
//! connection observe monotonically non-decreasing epochs because publishes
//! swap a single pointer.
//!
//! **Robustness over politeness.**  Malformed JSON, bad requests, oversized
//! declarations, and floods all produce typed error *responses*; only framing
//! violations that make the byte stream unrecoverable (a truncated frame, an
//! oversized prefix whose payload we refuse to read) close the connection —
//! after sending the typed error when the stream still permits one.  Nothing
//! a client sends can panic the server: a panicking batch is caught on its
//! connection thread and answered `internal`, its slot is released, and the
//! connection keeps serving.
//!
//! **Every blocking socket call has a deadline.**  A connection thread parks
//! in the socket's own blocking read, with [`ServerConfig::idle_timeout`] as
//! the read timeout: a peer that sends nothing for that long — idle, or
//! stalled inside a frame — is closed, so it cannot hold a connection slot
//! forever.  A response write blocks at most [`ServerConfig::write_timeout`]
//! on a peer that stopped reading.  Neither deadline can be switched off: a
//! zero duration would mean "no timeout" to the socket, so [`Server::bind`]
//! refuses it.  Shutdown does not wait for either deadline: it shuts every
//! registered socket down, which ends a parked read or write at once.

use crate::protocol::{Batch, ErrorKind, Op, OpResult, Request, Response};
use dd_wire::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
use deepdive::{Snapshot, SnapshotReader};
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock ignoring poisoning (same rationale as the vendored pool: state
/// transitions are panic-safe, so poisoned data is still consistent).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Execution slots: how many batches run at once (each on its own
    /// connection thread, pinning one snapshot).
    pub workers: usize,
    /// How many requests may wait for a slot; one arriving while that many
    /// wait gets an immediate `overloaded` response.
    pub queue_capacity: usize,
    /// Cap on one frame's payload; larger declarations get `oversized`.
    pub max_frame_bytes: usize,
    /// Connections beyond this are answered `overloaded` and closed.
    pub max_connections: usize,
    /// Cap on how long one response write may block on a peer that stopped
    /// reading before the connection is dropped.  Must not be zero.
    pub write_timeout: Duration,
    /// A connection that delivers no byte for this long is closed — the
    /// slowloris bound: idle (or partial-frame-stalled) sockets cannot hold
    /// connection slots forever.  Clients reconnect on demand.  It is the
    /// socket's read timeout, so it must not be zero.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            max_frame_bytes: MAX_FRAME_BYTES,
            max_connections: 256,
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// What a connection thread runs a decoded batch through.  The default is
/// [`SnapshotBatchHandler`] (pin one snapshot, answer every op from it);
/// the `dd-router` front door substitutes a scatter-gather implementation
/// behind the same acceptor, connection threads and execution slots via
/// [`Server::bind_with_handler`].
///
/// Implementations never see transport concerns: framing, decode
/// classification, backpressure, and shutdown refusals are all handled
/// before `execute` is called, and panics are caught and turned into typed
/// `internal` errors after it.
pub trait BatchHandler: Send + Sync + 'static {
    /// Execute one decoded batch, returning the response frame's content.
    fn execute(&self, request: &Request) -> Response;
}

/// The default [`BatchHandler`]: pins `reader.snapshot()` once per batch so
/// every op answers from the same epoch.
pub struct SnapshotBatchHandler {
    reader: SnapshotReader,
    allow_sleep: bool,
}

impl SnapshotBatchHandler {
    /// Wrap a snapshot reader; `allow_sleep` enables the fault-injection
    /// `sleep` op, which tests use to hold execution slots busy
    /// deterministically.  [`Server::bind`] serves with it off; a server
    /// that should take it is bound through [`Server::bind_with_handler`].
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
        execute_batch(&self.reader.snapshot(), request, self.allow_sleep)
    }
}

/// Monotonic counters, readable while the server runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (including ones later rejected for the cap).
    pub connections_accepted: u64,
    /// Batches answered from a pinned snapshot.
    pub batches_served: u64,
    /// Requests refused with `overloaded` (too many waiting for a slot, or
    /// the connection cap).
    pub overload_rejections: u64,
    /// Frames refused as malformed / oversized / otherwise undecodable.
    pub malformed_frames: u64,
    /// Total nanoseconds executed batches spent waiting for an execution
    /// slot (decoded → slot taken).  Divide by `batches_served` for the mean.
    pub queue_wait_nanos_total: u64,
    /// Total nanoseconds spent executing batches (slot taken → response).
    pub service_nanos_total: u64,
    /// The single longest wait for a slot observed, in nanoseconds.
    pub max_queue_wait_nanos: u64,
}

/// The execution-slot count, guarded by `Shared::slots`.  Requests take
/// ticket numbers in arrival order, and ticket `t` runs once
/// `finished + workers > t`: at most `workers` batches execute at once, and
/// a waiter goes as soon as every earlier ticket has started.
#[derive(Default)]
struct Tickets {
    /// Tickets handed out (the next arrival's number).
    issued: u64,
    /// Tickets whose batch has finished executing.
    finished: u64,
}

/// One live connection in the server's registry: the thread serving it plus
/// a clone of its socket, so shutdown can force-unblock the thread's reads
/// and writes with `Shutdown::Both` before joining it.
struct Connection {
    handle: JoinHandle<()>,
    stream: TcpStream,
}

struct Shared {
    handler: Arc<dyn BatchHandler>,
    slots: Mutex<Tickets>,
    /// Signalled when a waiter's turn may have come, and at shutdown.
    slot_freed: Condvar,
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

fn shutting_down() -> Response {
    Response::error(ErrorKind::ShuttingDown, "server shutting down")
}

impl Shared {
    fn new(handler: Arc<dyn BatchHandler>, config: ServerConfig) -> Shared {
        Shared {
            handler,
            slots: Mutex::new(Tickets::default()),
            slot_freed: Condvar::new(),
            stop: AtomicBool::new(false),
            config,
            active_connections: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            batches_served: AtomicU64::new(0),
            overload_rejections: AtomicU64::new(0),
            malformed_frames: AtomicU64::new(0),
            queue_wait_nanos: AtomicU64::new(0),
            service_nanos: AtomicU64::new(0),
            max_queue_wait_nanos: AtomicU64::new(0),
        }
    }

    fn workers(&self) -> u64 {
        self.config.workers.max(1) as u64
    }

    /// Take an execution slot, waiting in arrival order.  A request that
    /// would make more than `queue_capacity` waiters is refused at once, and
    /// no request waits past shutdown; `Err` is the typed response the
    /// connection sends instead.
    fn acquire_slot(&self) -> Result<(), Response> {
        let workers = self.workers();
        let mut slots = lock(&self.slots);
        if self.stop.load(Ordering::Acquire) {
            return Err(shutting_down());
        }
        let ticket = slots.issued;
        if ticket - slots.finished >= workers + self.config.queue_capacity as u64 {
            drop(slots);
            self.overload_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(Response::error(
                ErrorKind::Overloaded,
                format!(
                    "request queue full (capacity {}); retry after backoff",
                    self.config.queue_capacity
                ),
            ));
        }
        slots.issued += 1;
        // `stop` is raised under this lock before its `notify_all`, so a
        // waiter either sees it here or is already waiting when the wake-up
        // comes — it cannot slip between the check and the wait.
        while slots.finished + workers <= ticket {
            slots = self
                .slot_freed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
            if self.stop.load(Ordering::Acquire) {
                return Err(shutting_down());
            }
        }
        Ok(())
    }

    fn release_slot(&self) {
        let mut slots = lock(&self.slots);
        slots.finished += 1;
        // Wake the waiters only if one of them now holds a runnable ticket.
        let turn_came = slots.issued >= slots.finished + self.workers();
        drop(slots);
        if turn_came {
            self.slot_freed.notify_all();
        }
    }

    /// Run one decoded batch on the calling connection thread: take a slot,
    /// execute under `catch_unwind`, release the slot.
    fn serve(&self, request: &Request) -> Response {
        let arrived = Instant::now();
        if let Err(refusal) = self.acquire_slot() {
            return refusal;
        }
        let started = Instant::now();
        let wait = started.duration_since(arrived).as_nanos() as u64;
        self.queue_wait_nanos.fetch_add(wait, Ordering::Relaxed);
        self.max_queue_wait_nanos.fetch_max(wait, Ordering::Relaxed);
        let response = catch_unwind(AssertUnwindSafe(|| self.handler.execute(request)))
            .unwrap_or_else(|_| Response::error(ErrorKind::Internal, "batch execution panicked"));
        self.service_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.release_slot();
        if matches!(response, Response::Batch(_)) {
            self.batches_served.fetch_add(1, Ordering::Relaxed);
        }
        response
    }
}

/// A running TCP serving layer over one engine's [`SnapshotReader`].
///
/// Bind with [`Server::bind`]; the acceptor and the per-connection threads
/// run in the background until [`Server::shutdown`] (or drop).  See the
/// module docs for the request lifecycle.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<Connection>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `reader`'s snapshots, with the `sleep` op refused.  Returns as soon as
    /// the listener is live.  A zero `idle_timeout` or `write_timeout` is
    /// refused with [`io::ErrorKind::InvalidInput`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        reader: SnapshotReader,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let handler = Arc::new(SnapshotBatchHandler::new(reader, false));
        Server::bind_with_handler(addr, handler, config)
    }

    /// Bind `addr` and serve batches through a custom [`BatchHandler`]
    /// (acceptor, execution slots, typed backpressure, panic containment
    /// and the refusal of zero timeouts all behave exactly as with
    /// [`Server::bind`]).
    pub fn bind_with_handler(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn BatchHandler>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        for (name, timeout) in [
            ("idle_timeout", config.idle_timeout),
            ("write_timeout", config.write_timeout),
        ] {
            if timeout.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{name} must be positive: a zero socket timeout means none"),
                ));
            }
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(handler, config));
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

    /// Stop accepting, refuse waiting requests, join every thread.
    /// Connections waiting for a slot receive a `shutting_down` error before
    /// their socket closes.  Also runs on drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // The flag is raised under the slot lock: a request waiting for a
        // slot checks it and starts waiting under that lock too, so it
        // either sees the flag or is already waiting when `notify_all` runs.
        // Raised outside the lock, the store and the notification could both
        // land between a waiter's check and its wait, and that connection
        // thread — and the join below — would sleep forever.
        {
            let _slots = lock(&self.shared.slots);
            self.shared.stop.store(true, Ordering::Release);
        }
        self.shared.slot_freed.notify_all();
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

/// Serve one connection until it closes, violates framing, or the server
/// stops.  One request is in flight per connection at a time, so responses
/// are trivially ordered.
fn connection_loop(stream: &TcpStream, shared: &Shared) {
    // A peer that goes silent, or stops *reading*, must not wedge this
    // thread forever: on either deadline the read or write fails and the
    // connection closes (shutdown also force-unblocks both via
    // `Shutdown::Both` on the registry).  A socket that refuses a deadline
    // is not served at all.
    let deadlines = stream
        .set_read_timeout(Some(shared.config.idle_timeout))
        .and_then(|()| stream.set_write_timeout(Some(shared.config.write_timeout)));
    if deadlines.is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut stream = stream;

    loop {
        let payload = match read_frame(&mut stream, shared.config.max_frame_bytes) {
            Ok(payload) => payload,
            Err(FrameError::Closed) => return,
            Err(err @ FrameError::Oversized { .. }) => {
                // The declared payload is still in flight and we refuse to
                // read it, so the stream cannot be re-synchronized: send the
                // typed refusal, then close.
                shared.malformed_frames.fetch_add(1, Ordering::Relaxed);
                let refusal = Response::error(ErrorKind::Oversized, err.to_string());
                let _ = write_response(&mut stream, &refusal);
                return;
            }
            // Truncated frame, idle deadline, shutdown, or transport error:
            // nothing well-formed to answer.
            Err(_) => return,
        };

        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(err) => {
                // The frame itself was sound, so the stream stays aligned —
                // answer with the typed error and keep serving.  The decode
                // layer already classified the failure into the taxonomy.
                shared.malformed_frames.fetch_add(1, Ordering::Relaxed);
                if write_response(&mut stream, &Response::error(err.kind, err.message)).is_err() {
                    return;
                }
                continue;
            }
        };

        let response = shared.serve(&request);
        if write_response(&mut stream, &response).is_err() {
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

    fn is_error(response: &Response, want: ErrorKind) -> bool {
        matches!(response, Response::Error { kind, .. } if *kind == want)
    }

    #[test]
    fn bounded_queue_admits_to_capacity_then_refuses() {
        let handler = Arc::new(SnapshotBatchHandler::new(
            SnapshotReader::fixed(test_snapshot()),
            false,
        ));
        let shared = Shared::new(
            handler,
            ServerConfig {
                workers: 1,
                queue_capacity: 2,
                ..ServerConfig::default()
            },
        );
        let issued = |n| {
            while lock(&shared.slots).issued < n {
                std::thread::yield_now();
            }
        };
        shared
            .acquire_slot()
            .expect("the free slot is taken at once");
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            // Two waiters line up behind the running batch, in order...
            for waiter in 0..2u64 {
                let (shared, order) = (&shared, &order);
                scope.spawn(move || {
                    shared.acquire_slot().expect("a waiter gets its turn");
                    lock(order).push(waiter);
                    shared.release_slot();
                });
                issued(waiter + 2);
            }
            // ...a third would wait past the bound: refused, not queued.
            let refusal = shared.acquire_slot().expect_err("two are waiting");
            assert!(is_error(&refusal, ErrorKind::Overloaded));
            shared.release_slot();
        });
        assert_eq!(*lock(&order), vec![0, 1], "slots go in arrival order");
        assert_eq!(shared.overload_rejections.load(Ordering::Relaxed), 1);
        // Drained: admission resumes.
        shared.acquire_slot().expect("admission resumes");
        shared.release_slot();

        // A waiter is told `shutting_down` once shutdown raises the flag.
        shared
            .acquire_slot()
            .expect("the free slot is taken at once");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| shared.acquire_slot());
            issued(6);
            {
                let _slots = lock(&shared.slots);
                shared.stop.store(true, Ordering::Release);
            }
            shared.slot_freed.notify_all();
            let answer = waiter.join().expect("waiter returns");
            assert!(is_error(&answer.unwrap_err(), ErrorKind::ShuttingDown));
        });
        // Stopping: no new request is admitted either.
        assert!(is_error(
            &shared.acquire_slot().unwrap_err(),
            ErrorKind::ShuttingDown
        ));
    }

    #[test]
    fn timing_counters_account_queue_wait_and_service_time() {
        let handler = SnapshotBatchHandler::new(SnapshotReader::fixed(test_snapshot()), true);
        let server =
            Server::bind_with_handler("127.0.0.1:0", Arc::new(handler), ServerConfig::default())
                .expect("bind loopback server");
        let mut client =
            crate::client::Client::connect(server.local_addr()).expect("connect test client");
        client
            .batch(vec![Op::Sleep { millis: 5 }])
            .expect("sleep batch is served");
        let stats = server.stats();
        assert_eq!(stats.batches_served, 1);
        // The batch slept 5ms inside execute, so service time must show it.
        assert!(
            stats.service_nanos_total >= 5_000_000,
            "service time {} too small",
            stats.service_nanos_total
        );
        // One batch: the max queue wait IS the total queue wait.
        assert_eq!(stats.max_queue_wait_nanos, stats.queue_wait_nanos_total);
        server.shutdown();
    }

    /// Binds a server with one timeout zeroed and returns the refusal.
    fn bind_refusal(config: ServerConfig) -> io::Error {
        let reader = SnapshotReader::fixed(test_snapshot());
        match Server::bind("127.0.0.1:0", reader, config) {
            Ok(_) => panic!("a zero timeout must be refused"),
            Err(err) => err,
        }
    }

    #[test]
    fn a_zero_idle_timeout_is_refused_at_bind() {
        let err = bind_refusal(ServerConfig {
            idle_timeout: Duration::ZERO,
            ..ServerConfig::default()
        });
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("idle_timeout"), "{err}");
    }

    #[test]
    fn a_zero_write_timeout_is_refused_at_bind() {
        let err = bind_refusal(ServerConfig {
            write_timeout: Duration::ZERO,
            ..ServerConfig::default()
        });
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("write_timeout"), "{err}");
    }
}
