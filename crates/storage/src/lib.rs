//! Durable persistence for the engine: a write-ahead log plus checkpoints.
//!
//! The paper's serving story (PRs 3–5) keeps everything in memory; this crate
//! is the missing durability layer, following the write-path discipline of
//! append-only sequential logs with explicit fsync barriers:
//!
//! * [`wal`] — an append-only log of opaque payloads (the engine logs one
//!   canonical-JSON operation per record) split into sequential segment
//!   files.  Each record carries a CRC-32 and a monotone sequence number
//!   (`dd_wire::record`); on open, a torn or bit-flipped tail is detected
//!   and *physically truncated* at the last valid record — never a panic,
//!   never silently-accepted corruption.
//! * [`checkpoint`] — compact point-in-time state files, written with the
//!   classic atomic-rename dance (write temp → fsync file → rename →
//!   fsync dir) so a crash leaves either the old checkpoint set or the new
//!   one, nothing in between.  Recovery is "load the newest valid
//!   checkpoint, replay the WAL tail past it".
//! * [`failpoint`] — an always-compiled fault-injection writer that kills
//!   the write path at an exact byte budget, so crash tests can produce a
//!   torn prefix of *every* length without racing a real `kill -9`.
//!
//! This crate is deliberately bytes-only: it knows nothing about snapshots,
//! factor graphs, or engines.  `deepdive` owns the codecs that turn engine
//! state into payloads; `dd-storage` owns getting those payloads onto disk
//! and back without lying.

pub mod checkpoint;
pub mod config;
mod dir;
pub mod error;
pub mod failpoint;
pub mod wal;

pub use checkpoint::CheckpointStore;
pub use config::{DurabilityConfig, FsyncPolicy};
pub use error::StorageError;
pub use failpoint::FailpointWriter;
pub use wal::Wal;
