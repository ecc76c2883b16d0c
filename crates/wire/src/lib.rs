//! The wire layer shared by `dd-server` and the bench tooling.
//!
//! The workspace is fully offline (vendored stand-in dependencies only), so
//! everything that would normally come from a JSON crate and an async codec is
//! hand-rolled here, in the same spirit as the `vendor/` stand-ins:
//!
//! * [`json`] — a small, strict JSON data model ([`json::Json`]), parser, and
//!   encoder.  This started life inside `dd_bench::sweeps` as the
//!   `BENCH_sweeps.json` reader; it was promoted here so the network
//!   protocol's encode/decode and the CI perf gate share one implementation
//!   (surrogate-pair handling and all).
//! * [`read_frame`] / [`write_frame`] — length-prefixed message framing over any `Read`/`Write`
//!   byte stream: a 4-byte big-endian payload length followed by the payload.
//!   Reads are bounded by an explicit payload-size cap so a hostile or
//!   corrupt peer cannot make the server allocate unboundedly, and every
//!   failure mode (clean close, truncated prefix, truncated payload,
//!   oversized declaration) is a distinct [`FrameError`] variant.
//! * [`encode_record`] / [`read_record`] — the frame layout extended with a CRC-32 checksum and a
//!   monotone sequence number, for `dd-storage`'s write-ahead log and
//!   checkpoint files: torn tails and bit flips decode to typed errors,
//!   never to panics or silently-corrupt payloads.  A payload can also be
//!   streamed into its record ([`RecordStream`]), the header written
//!   once the checksum and length are known.
//!
//! Nothing in this crate knows about snapshots or engines; it is pure bytes
//! and values, which is what lets `dd-bench` depend on it without pulling in
//! the serving stack.

#![warn(unreachable_pub)]

mod frame;
pub mod json;
mod record;

pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
pub use record::{
    encode_record, read_record, split_record, RecordError, RecordStream, MAX_PAYLOAD_BYTES,
    MAX_RECORD_BYTES, RECORD_HEADER_BYTES,
};
