//! Deterministic write-path fault injection.
//!
//! [`FailpointWriter`] wraps any byte sink and dies after an exact byte
//! budget, capturing the prefix it let through.  Crash tests use it to
//! produce a torn write of *every* possible length — the same family of
//! states a `kill -9` (or power cut) can leave on disk — without the
//! nondeterminism of actually racing a signal:
//!
//! ```
//! use dd_storage::FailpointWriter;
//! use dd_wire::record::encode_record;
//! use std::io::Write;
//!
//! let full = encode_record(1, b"payload");
//! for budget in 0..full.len() {
//!     let mut w = FailpointWriter::new(budget);
//!     assert!(w.write_all(&full).is_err());
//!     assert_eq!(w.written(), &full[..budget]);
//! }
//! ```
//!
//! It lives in the library (not behind `#[cfg(test)]`) so integration tests
//! and other crates' crash harnesses can drive it too.

use std::io::{self, Write};

/// A `Write` impl that accepts exactly `budget` bytes, then fails forever.
#[derive(Debug)]
pub struct FailpointWriter {
    budget: usize,
    written: Vec<u8>,
    tripped: bool,
}

impl FailpointWriter {
    /// A writer that will accept `budget` bytes before dying.
    pub fn new(budget: usize) -> Self {
        FailpointWriter {
            budget,
            written: Vec::new(),
            tripped: false,
        }
    }

    /// The bytes that made it through before the failpoint tripped — the
    /// "what's on disk after the crash" prefix.
    pub fn written(&self) -> &[u8] {
        &self.written
    }

    /// True once the failpoint has fired.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Consume the writer and take the surviving prefix.
    pub fn into_written(self) -> Vec<u8> {
        self.written
    }
}

impl Write for FailpointWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let remaining = self.budget - self.written.len();
        if buf.len() <= remaining {
            self.written.extend_from_slice(buf);
            return Ok(buf.len());
        }
        // Let the allowed prefix through, then die: this models the kernel
        // persisting part of a write before the process was killed.
        self.written.extend_from_slice(&buf[..remaining]);
        self.tripped = true;
        Err(io::Error::new(
            io::ErrorKind::Other,
            format!("failpoint tripped after {} bytes", self.budget),
        ))
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.tripped {
            return Err(io::Error::new(io::ErrorKind::Other, "failpoint tripped"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_wire::record::encode_record;

    #[test]
    fn cuts_at_exactly_the_budget() {
        let record = encode_record(3, b"abcdef");
        for budget in 0..=record.len() {
            let mut w = FailpointWriter::new(budget);
            let result = w.write_all(&record);
            if budget >= record.len() {
                assert!(result.is_ok());
                assert!(!w.tripped());
            } else {
                assert!(result.is_err());
                assert!(w.tripped());
            }
            assert_eq!(w.written(), &record[..budget.min(record.len())]);
        }
    }

    #[test]
    fn stays_dead_after_tripping() {
        let mut w = FailpointWriter::new(2);
        assert!(w.write_all(b"abc").is_err());
        assert!(w.write_all(b"more").is_err());
        assert!(w.flush().is_err());
        assert_eq!(w.into_written(), b"ab");
    }
}
