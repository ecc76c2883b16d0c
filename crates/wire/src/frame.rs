//! Length-prefixed message framing over any byte stream.
//!
//! One frame is a 4-byte big-endian payload length followed by that many
//! payload bytes.  The format carries arbitrary bytes; `dd-server` puts one
//! JSON document per frame.  Two properties matter for a network front door:
//!
//! * **Bounded allocation** — [`read_frame`] takes an explicit payload cap
//!   and refuses to allocate for a frame that declares more, so a hostile or
//!   corrupt length prefix costs four bytes of reading, not gigabytes of
//!   memory.  [`FrameError::Oversized`] reports what was declared.
//! * **Distinguishable failure modes** — a peer closing cleanly *between*
//!   frames ([`FrameError::Closed`]) is the normal end of a connection; a
//!   stream ending *inside* a frame ([`FrameError::Truncated`]) is a protocol
//!   violation.  Servers treat the former as goodbye and the latter as an
//!   error worth logging.
//!
//! ```
//! use dd_wire::{read_frame, write_frame, FrameError};
//! use std::io::Cursor;
//!
//! let mut buf = Vec::new();
//! write_frame(&mut buf, b"hello").unwrap();
//! let mut stream = Cursor::new(buf);
//! assert_eq!(read_frame(&mut stream, 1024).unwrap(), b"hello");
//! assert!(matches!(read_frame(&mut stream, 1024), Err(FrameError::Closed)));
//! ```

use std::io::{self, ErrorKind, IoSlice, Read, Write};

/// Default cap on a single frame's payload (16 MiB) — far above any batch the
/// protocol produces, far below what would let a bad length prefix hurt.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary (normal connection close).
    Closed,
    /// The stream ended mid-prefix or mid-payload: the peer violated the
    /// framing protocol or died.  Carries how many bytes were still expected.
    Truncated { missing: usize },
    /// The prefix declared a payload larger than the reader's cap.
    Oversized { declared: usize, max: usize },
    /// An I/O error other than end-of-stream.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { missing } => {
                write!(f, "stream truncated mid-frame ({missing} bytes missing)")
            }
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} bytes, cap is {max}")
            }
            FrameError::Io(err) => write!(f, "frame I/O error: {err}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(err: io::Error) -> Self {
        FrameError::Io(err)
    }
}

/// Write one frame: 4-byte big-endian length, then the payload.
///
/// Prefix and payload go out in one vectored write, so on a `TCP_NODELAY`
/// socket a frame costs one syscall and leaves as one segment, not two; a
/// partial write continues where it stopped.  Refuses payloads longer than
/// `u32::MAX` (they could not be declared in the prefix).  Does not flush —
/// callers batching several frames flush once.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            ErrorKind::InvalidInput,
            format!(
                "payload of {} bytes exceeds the u32 frame prefix",
                payload.len()
            ),
        )
    })?;
    let prefix = len.to_be_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut unwritten = &mut slices[..];
    while !unwritten.is_empty() {
        match writer.write_vectored(unwritten) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::WriteZero,
                    "the writer took no byte of the frame",
                ))
            }
            Ok(written) => IoSlice::advance_slices(&mut unwritten, written),
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(())
}

/// Read one frame's payload, allocating at most `max_payload` bytes.
///
/// End-of-stream before the first prefix byte is [`FrameError::Closed`];
/// end-of-stream anywhere later is [`FrameError::Truncated`].
pub fn read_frame(reader: &mut impl Read, max_payload: usize) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    read_exact_or(reader, &mut prefix, true)?;
    let declared = u32::from_be_bytes(prefix) as usize;
    if declared > max_payload {
        return Err(FrameError::Oversized {
            declared,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; declared];
    read_exact_or(reader, &mut payload, false)?;
    Ok(payload)
}

/// `read_exact` that maps end-of-stream to [`FrameError::Closed`] when no
/// byte of `buf` has arrived yet and `clean_close_ok` is set, and to
/// [`FrameError::Truncated`] otherwise.
fn read_exact_or(
    reader: &mut impl Read,
    buf: &mut [u8],
    clean_close_ok: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && clean_close_ok {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Truncated {
                        missing: buf.len() - filled,
                    })
                };
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) => return Err(FrameError::Io(err)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "🚀 second".as_bytes()).unwrap();
        let mut stream = Cursor::new(buf);
        assert_eq!(read_frame(&mut stream, 1024).unwrap(), b"first");
        assert_eq!(read_frame(&mut stream, 1024).unwrap(), b"");
        assert_eq!(
            read_frame(&mut stream, 1024).unwrap(),
            "🚀 second".as_bytes()
        );
        assert!(matches!(
            read_frame(&mut stream, 1024).unwrap_err(),
            FrameError::Closed
        ));
    }

    #[test]
    fn truncated_prefix_and_payload_are_not_clean_closes() {
        // Two bytes of a four-byte prefix.
        let mut stream = Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut stream, 1024),
            Err(FrameError::Truncated { missing: 2 })
        ));
        // Full prefix declaring 8 bytes, only 3 delivered.
        let mut partial = Vec::new();
        write_frame(&mut partial, b"12345678").unwrap();
        partial.truncate(4 + 3);
        let mut stream = Cursor::new(partial);
        assert!(matches!(
            read_frame(&mut stream, 1024),
            Err(FrameError::Truncated { missing: 5 })
        ));
    }

    #[test]
    fn oversized_declaration_fails_before_allocating() {
        let mut stream = Cursor::new(u32::MAX.to_be_bytes().to_vec());
        match read_frame(&mut stream, 1024) {
            Err(FrameError::Oversized { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn payload_at_exactly_the_cap_is_accepted() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 16]).unwrap();
        let mut stream = Cursor::new(buf);
        assert_eq!(read_frame(&mut stream, 16).unwrap(), vec![7u8; 16]);
    }

    /// A writer that records the bytes each call took, and takes at most
    /// `cap` bytes per call.
    struct Recorder {
        calls: Vec<Vec<u8>>,
        cap: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let call: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
            let taken = call.len().min(self.cap);
            self.calls.push(call[..taken].to_vec());
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_frame_is_one_write_and_partial_writes_resume() {
        let mut whole = Recorder {
            calls: Vec::new(),
            cap: usize::MAX,
        };
        write_frame(&mut whole, b"payload").unwrap();
        assert_eq!(whole.calls, vec![b"\0\0\0\x07payload".to_vec()]);

        // A writer that takes three bytes a call still gets the frame whole,
        // in order, across the prefix/payload boundary.
        let mut trickle = Recorder {
            calls: Vec::new(),
            cap: 3,
        };
        write_frame(&mut trickle, b"payload").unwrap();
        assert_eq!(trickle.calls.len(), 4);
        assert_eq!(trickle.calls.concat(), whole.calls.concat());
        let mut stream = Cursor::new(trickle.calls.concat());
        assert_eq!(read_frame(&mut stream, 1024).unwrap(), b"payload");

        // A writer that takes nothing is an error, not a spin.
        let mut stuck = Recorder {
            calls: Vec::new(),
            cap: 0,
        };
        let err = write_frame(&mut stuck, b"x").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn errors_display_and_chain() {
        let err = FrameError::from(io::Error::new(ErrorKind::ConnectionReset, "reset"));
        assert!(err.to_string().contains("reset"));
        assert!(std::error::Error::source(&err).is_some());
        assert!(!matches!(err, FrameError::Closed));
        assert!(FrameError::Closed.to_string().contains("closed"));
    }
}
