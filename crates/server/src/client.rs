//! A blocking client for the [`crate::Server`] wire protocol.
//!
//! One [`Client`] owns one TCP connection and sends one batch at a time
//! (request, then response — the protocol keeps a single request in flight
//! per connection).  Typed server refusals — `overloaded` above all — arrive
//! as [`ClientError::Server`], distinct from transport failures, so callers
//! can implement retry-with-backoff against backpressure without string
//! matching.
//!
//! ```no_run
//! use dd_server::{Client, FactQuerySpec};
//!
//! let mut client = Client::connect("127.0.0.1:7171")?;
//! let epoch = client.epoch()?;
//! let facts = client.query(
//!     "MarriedMentions",
//!     FactQuerySpec { min_probability: 0.9, top_k: Some(10), ..Default::default() },
//! )?;
//! println!("epoch {epoch}: {} facts", facts.len());
//! # Ok::<(), dd_server::ClientError>(())
//! ```

use crate::protocol::{Batch, ErrorKind, FactQuerySpec, Op, OpResult, Request, Response};
use dd_relstore::Tuple;
use dd_wire::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connection-level knobs of a [`Client`] (see [`Client::connect_with`]).
///
/// Both timeouts default to `None` — block indefinitely, the plain
/// `TcpStream` behavior — which is right for trusted local serving.  A
/// router fanning a batch out across shards sets both, so one dead or
/// wedged shard turns into a timely typed error instead of hanging the
/// whole batch.
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Cap on establishing the TCP connection (per resolved address).
    pub connect_timeout: Option<Duration>,
    /// Cap on waiting for any single read while receiving a response.
    pub read_timeout: Option<Duration>,
}

/// Bounded exponential backoff for retrying `overloaded` refusals
/// (see [`Client::call_with_retry`]).
///
/// Attempt `n` (0-based) sleeps a jittered duration drawn from
/// `[backoff/2, backoff]` where `backoff = initial_backoff * 2^n`, capped at
/// `max_backoff`.  Jitter is deterministic per [`RetryPolicy::jitter_seed`]
/// (SplitMix64), so tests and reproductions see identical schedules while
/// distinct clients — distinct seeds — still decorrelate their retries.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (at least 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub initial_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Six attempts backing off 10ms → 320ms: rides out about a second of
    /// sustained overload before giving up.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry number `attempt` (0-based).
    fn backoff_for(&self, attempt: u32, rng: &mut u64) -> Duration {
        let base = self
            .initial_backoff
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        let half = base / 2;
        let span = base.saturating_sub(half).as_nanos() as u64;
        let jitter = if span == 0 {
            0
        } else {
            splitmix64(rng) % (span + 1)
        };
        half + Duration::from_nanos(jitter)
    }
}

/// SplitMix64: tiny, seedable, and plenty for decorrelating retry sleeps.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, send, socket death).
    Io(io::Error),
    /// The response stream violated framing (truncated, oversized, closed
    /// mid-exchange).
    Frame(FrameError),
    /// The server answered, but not with a document this client understands.
    Protocol(String),
    /// A typed refusal from the server — `overloaded`, `bad_request`, ...
    Server { kind: ErrorKind, message: String },
}

impl ClientError {
    /// True when the server refused with backpressure; retry after backoff.
    ///
    /// A queue-full refusal leaves the connection open, so retrying on the
    /// same [`Client`] works.  A *connection-cap* refusal (the message names
    /// the cap) also closes the socket — treat a transport error on the next
    /// call as the signal to reconnect before retrying.
    pub fn is_overloaded(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                kind: ErrorKind::Overloaded,
                ..
            }
        )
    }

    /// True when the server refused because it is shutting down.  The server
    /// closes the connection after this refusal, so a retry must reconnect
    /// first — [`Client::call_with_retry`] does exactly that, which is how a
    /// shard restart becomes a ride-out instead of a hard failure.
    pub(crate) fn is_shutting_down(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                kind: ErrorKind::ShuttingDown,
                ..
            }
        )
    }

    /// True for the refusals [`Client::call_with_retry`] spends budget on:
    /// `overloaded` (transient backpressure) and `shutting_down` (a restart
    /// in progress).  Everything else — transport errors, framing errors,
    /// other refusals — is not load and returns immediately.
    pub(crate) fn is_retryable(&self) -> bool {
        self.is_overloaded() || self.is_shutting_down()
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport error: {err}"),
            ClientError::Frame(err) => write!(f, "framing error: {err}"),
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
            ClientError::Server { kind, message } => {
                write!(f, "server refused ({kind}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(err) => Some(err),
            ClientError::Frame(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<FrameError> for ClientError {
    fn from(err: FrameError) -> Self {
        ClientError::Frame(err)
    }
}

/// A blocking connection to a [`crate::Server`].
pub struct Client {
    stream: TcpStream,
    /// The addresses `connect` resolved, kept so [`Client::reconnect`] can
    /// re-dial the same server after a restart.
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
}

impl Client {
    /// Connect to a server with default (blocking, no-timeout) settings.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit connection/read timeouts.
    ///
    /// ```no_run
    /// use dd_server::{Client, ClientConfig};
    /// use std::time::Duration;
    ///
    /// let client = Client::connect_with(
    ///     "127.0.0.1:7171",
    ///     ClientConfig {
    ///         connect_timeout: Some(Duration::from_millis(250)),
    ///         read_timeout: Some(Duration::from_secs(5)),
    ///     },
    /// )?;
    /// # Ok::<(), std::io::Error>(())
    /// ```
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = Client::dial(&addrs, &config)?;
        Ok(Client {
            stream,
            addrs,
            config,
        })
    }

    fn dial(addrs: &[SocketAddr], config: &ClientConfig) -> io::Result<TcpStream> {
        let mut last_err = None;
        for addr in addrs {
            let attempt = match config.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(addr, timeout),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    stream.set_read_timeout(config.read_timeout)?;
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Drop the current connection and dial the same server again (same
    /// resolved addresses, same [`ClientConfig`]).  Used after a
    /// `shutting_down` refusal — the server closes the socket behind that
    /// refusal, so the next attempt needs a fresh connection.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Client::dial(&self.addrs, &self.config)?;
        Ok(())
    }

    /// Send one batch and wait for its response.  Returns the batch (epoch +
    /// per-op results) on success, or the typed refusal as
    /// [`ClientError::Server`].
    pub fn batch(&mut self, ops: Vec<Op>) -> Result<Batch, ClientError> {
        write_frame(&mut self.stream, &Request::new(ops).encode())?;
        self.stream.flush()?;
        let payload = read_frame(&mut self.stream, MAX_FRAME_BYTES)?;
        match Response::decode(&payload).map_err(ClientError::Protocol)? {
            Response::Batch(batch) => Ok(batch),
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
        }
    }

    /// The server's current epoch.
    pub fn epoch(&mut self) -> Result<u64, ClientError> {
        Ok(self.batch(vec![Op::Epoch])?.epoch)
    }

    /// Sorted names of the catalogued variable relations.
    pub fn relations(&mut self) -> Result<Vec<String>, ClientError> {
        match self.batch(vec![Op::Relations])?.results.pop() {
            Some(OpResult::Relations(names)) => Ok(names),
            other => Err(Self::unexpected("relations", &other)),
        }
    }

    /// Marginal probability of one tuple, with the epoch it was read at.
    pub fn probability_of(
        &mut self,
        relation: impl Into<String>,
        tuple: Tuple,
    ) -> Result<(u64, Option<f64>), ClientError> {
        let mut batch = self.batch(vec![Op::probability_of(relation, tuple)])?;
        match batch.results.pop() {
            Some(OpResult::Probability(p)) => Ok((batch.epoch, p)),
            other => Err(Self::unexpected("probability", &other)),
        }
    }

    /// Run one paginated/top-k fact query.
    pub fn query(
        &mut self,
        relation: impl Into<String>,
        spec: FactQuerySpec,
    ) -> Result<Vec<(Tuple, f64)>, ClientError> {
        match self.batch(vec![Op::query(relation, spec)])?.results.pop() {
            Some(OpResult::Facts(facts)) => Ok(facts),
            other => Err(Self::unexpected("facts", &other)),
        }
    }

    /// Run `call`, retrying with bounded exponential backoff while the server
    /// refuses for transient reasons (`ClientError::is_retryable`).
    ///
    /// `overloaded` refusals leave the connection healthy, so their retries
    /// reuse it.  `shutting_down` refusals are followed by a socket close on
    /// the server side — here the backoff sleep is followed by a
    /// [`Client::reconnect`] attempt, so a shard restarting behind the same
    /// address is ridden out within the budget (a failed reconnect leaves
    /// the dead socket in place, and the next attempt's transport error
    /// returns immediately).  Transport errors, framing errors, and every
    /// other server refusal return immediately: they are not load, and
    /// retrying them blind would mask real failures.  The last attempt's
    /// error is returned when the budget runs out.
    ///
    /// ```no_run
    /// use dd_server::{Client, RetryPolicy};
    ///
    /// let mut client = Client::connect("127.0.0.1:7171")?;
    /// let epoch = client.call_with_retry(&RetryPolicy::default(), |c| c.epoch())?;
    /// # Ok::<(), dd_server::ClientError>(())
    /// ```
    pub fn call_with_retry<T>(
        &mut self,
        policy: &RetryPolicy,
        mut call: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let attempts = policy.max_attempts.max(1);
        let mut rng = policy.jitter_seed;
        for attempt in 0..attempts {
            match call(self) {
                Err(err) if err.is_retryable() && attempt + 1 < attempts => {
                    std::thread::sleep(policy.backoff_for(attempt, &mut rng));
                    if err.is_shutting_down() {
                        // The server closed this socket behind its refusal;
                        // dial again so the next attempt has a live one.  A
                        // refused dial (still restarting) is left for the
                        // next attempt to surface as a transport error.
                        let _ = self.reconnect();
                    }
                }
                other => return other,
            }
        }
        unreachable!("the final attempt always returns from the loop")
    }

    fn unexpected(wanted: &str, got: &Option<OpResult>) -> ClientError {
        ClientError::Protocol(format!("expected a {wanted} result, got {got:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_refusals_are_recognizable() {
        let err = ClientError::Server {
            kind: ErrorKind::Overloaded,
            message: "queue full".to_string(),
        };
        assert!(err.is_overloaded());
        assert!(err.to_string().contains("overloaded"));
        assert!(!ClientError::Protocol("x".to_string()).is_overloaded());
    }

    #[test]
    fn errors_chain_their_sources() {
        let err = ClientError::from(io::Error::new(io::ErrorKind::ConnectionRefused, "nope"));
        assert!(std::error::Error::source(&err).is_some());
        let err = ClientError::from(FrameError::Closed);
        assert!(err.to_string().contains("closed"));
    }

    #[test]
    fn backoff_schedule_is_bounded_exponential_and_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 8,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 42,
        };
        let mut rng_a = policy.jitter_seed;
        let mut rng_b = policy.jitter_seed;
        for attempt in 0..8 {
            let d = policy.backoff_for(attempt, &mut rng_a);
            // Jitter stays within [base/2, base], and base is capped.
            let base = Duration::from_millis(10)
                .saturating_mul(1 << attempt)
                .min(Duration::from_millis(100));
            assert!(d >= base / 2, "attempt {attempt}: {d:?} below half base");
            assert!(d <= base, "attempt {attempt}: {d:?} above base");
            // Same seed, same schedule.
            assert_eq!(d, policy.backoff_for(attempt, &mut rng_b));
        }
        // Shift overflow on huge attempt numbers must not panic.
        let mut rng = 1;
        assert!(policy.backoff_for(u32::MAX, &mut rng) <= Duration::from_millis(100));
    }

    /// A client connected to a listener that never answers — good enough as
    /// `self` for closure-driven retry tests that never touch the socket.
    fn idle_client() -> (std::net::TcpListener, Client) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        (listener, client)
    }

    fn overloaded() -> ClientError {
        ClientError::Server {
            kind: ErrorKind::Overloaded,
            message: "queue full".to_string(),
        }
    }

    #[test]
    fn retry_budget_is_spent_only_on_overload() {
        let tiny = RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(20),
            jitter_seed: 1,
        };
        let (_listener, mut client) = idle_client();

        // Persistent overload: all four attempts spent, last error returned.
        let mut attempts = 0;
        let err = client
            .call_with_retry(&tiny, |_| -> Result<(), ClientError> {
                attempts += 1;
                Err(overloaded())
            })
            .unwrap_err();
        assert_eq!(attempts, 4);
        assert!(err.is_overloaded());

        // Non-overload errors return immediately: they are not backpressure.
        let mut attempts = 0;
        let err = client
            .call_with_retry(&tiny, |_| -> Result<(), ClientError> {
                attempts += 1;
                Err(ClientError::Protocol("bad document".to_string()))
            })
            .unwrap_err();
        assert_eq!(attempts, 1);
        assert!(!err.is_overloaded());

        // Success after transient overload.
        let mut attempts = 0;
        let value = client
            .call_with_retry(&tiny, |_| {
                attempts += 1;
                if attempts < 3 {
                    Err(overloaded())
                } else {
                    Ok(attempts)
                }
            })
            .unwrap();
        assert_eq!(value, 3);
    }

    #[test]
    fn shutting_down_refusals_are_retried_with_a_reconnect() {
        let tiny = RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(20),
            jitter_seed: 1,
        };
        let (listener, mut client) = idle_client();

        // A shutting_down refusal spends budget (it is a restart in
        // progress, not a dead end) and triggers a reconnect between
        // attempts — observable as fresh connections on the listener.
        listener.set_nonblocking(true).unwrap();
        // Drain the initial connection so only retry-driven dials remain.
        while listener.accept().is_ok() {}
        let mut attempts = 0;
        let value = client
            .call_with_retry(&tiny, |_| {
                attempts += 1;
                if attempts < 3 {
                    Err(ClientError::Server {
                        kind: ErrorKind::ShuttingDown,
                        message: "server shutting down".to_string(),
                    })
                } else {
                    Ok(attempts)
                }
            })
            .unwrap();
        assert_eq!(value, 3, "two shutting_down refusals then success");
        let mut reconnects = 0;
        while listener.accept().is_ok() {
            reconnects += 1;
        }
        assert_eq!(reconnects, 2, "one fresh dial per shutting_down refusal");

        // Budget exhaustion returns the last shutting_down error.
        let mut attempts = 0;
        let err = client
            .call_with_retry(&tiny, |_| -> Result<(), ClientError> {
                attempts += 1;
                Err(ClientError::Server {
                    kind: ErrorKind::ShuttingDown,
                    message: "still going down".to_string(),
                })
            })
            .unwrap_err();
        assert_eq!(attempts, 4);
        assert!(err.is_shutting_down());
        assert!(err.is_retryable());
    }

    #[test]
    fn call_with_retry_rides_out_a_flooded_server() {
        use crate::server::{Server, ServerConfig, SnapshotBatchHandler};
        use deepdive::{CatalogShards, Snapshot, SnapshotReader};
        use std::collections::HashMap;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let mut catalog = HashMap::new();
        catalog.insert(("Fact".to_string(), dd_relstore::tuple![1i64]), 0usize);
        let reader = SnapshotReader::fixed(Snapshot::synthetic(
            7,
            vec![0.9],
            CatalogShards::build(catalog.iter(), 7),
        ));
        // One worker, one queue slot: two concurrent sleeps saturate it.
        let server = Server::bind_with_handler(
            "127.0.0.1:0",
            Arc::new(SnapshotBatchHandler::new(reader, true)),
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        // Flooders hold the worker (and the queue slot) with sleep batches
        // until told to stop; refusals they receive themselves are expected.
        let stop = Arc::new(AtomicBool::new(false));
        let flooders: Vec<_> = (0..3)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    while !stop.load(Ordering::Acquire) {
                        let _ = c.batch(vec![Op::Sleep { millis: 40 }]);
                    }
                })
            })
            .collect();

        // The flood must produce at least one typed overload refusal.
        let mut client = Client::connect(addr).unwrap();
        let mut saw_overload = false;
        for _ in 0..200 {
            match client.epoch() {
                Err(err) if err.is_overloaded() => {
                    saw_overload = true;
                    break;
                }
                Ok(_) => continue, // slipped into a free slot; flood again
                Err(err) => panic!("unexpected failure under flood: {err}"),
            }
        }
        assert!(saw_overload, "three flooders never filled a 1-slot queue");

        // Overload is transient: the flood lifts ~100ms from now.  A plain
        // call right now is (very likely) refused, but the backoff budget
        // spans well past the flood, so call_with_retry must ride it out on
        // the same connection.
        let lifter = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                stop.store(true, Ordering::Release);
            })
        };
        let policy = RetryPolicy {
            max_attempts: 50,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            jitter_seed: 7,
        };
        let epoch = client.call_with_retry(&policy, |c| c.epoch()).unwrap();
        assert_eq!(epoch, 7);

        lifter.join().unwrap();
        for f in flooders {
            f.join().unwrap();
        }
        server.shutdown();
    }
}
