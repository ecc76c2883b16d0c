//! # dd-server — the network front door for snapshot serving
//!
//! Everything the engine publishes through its lock-free
//! [`deepdive::SnapshotReader`] becomes reachable from outside the process
//! here: a TCP server speaking a length-prefixed JSON protocol
//! ([`dd_wire`]), with an acceptor and one thread per connection that reads,
//! executes and answers each batch itself, holding one of a few **bounded**
//! execution slots while it runs.  `crates.io` is unreachable in this
//! workspace, so the stack is hand-rolled on `std::net` in the same spirit
//! as the `vendor/` stand-ins — no async runtime, no JSON crate.
//!
//! Three properties define the design (see [`Server`] for the full
//! lifecycle):
//!
//! 1. **Batch = consistency unit.**  A request is a batch of operations; the
//!    connection thread pins one `Arc<Snapshot>` for the whole batch, so
//!    every answer in it comes from a single epoch even while `run_update`
//!    publishes new epochs concurrently.
//! 2. **Backpressure is typed, not implicit.**  The line of requests waiting
//!    for an execution slot is bounded; when it is full, clients receive an
//!    `overloaded` error response immediately instead of the server
//!    buffering unboundedly.
//! 3. **Hostile bytes can't take the server down.**  Malformed frames,
//!    truncated prefixes, oversized declarations, and fuzzed garbage all
//!    produce typed error responses or clean closes — never a panic, never a
//!    wedged connection.
//!
//! ```no_run
//! use deepdive::{DeepDive, EngineConfig};
//! use dd_server::{Client, Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let mut engine: DeepDive = unimplemented!();
//! engine.initial_run()?;
//! let server = Server::bind("127.0.0.1:0", engine.reader(), ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! println!("serving epoch {}", client.epoch()?);
//! // ... run_update on the engine while clients keep reading ...
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod client;
mod protocol;
mod server;

pub use client::{Client, ClientConfig, ClientError, RetryPolicy};
pub use protocol::{
    Batch, BatchCursor, DecodeError, ErrorKind, FactBuf, FactQuerySpec, FactStream, Op, OpResult,
    Reply, Request, Response, MAX_OPS_PER_BATCH,
};
pub use server::{BatchHandler, Server, ServerConfig, ServerStats, SnapshotBatchHandler};
