//! Checksummed, sequence-numbered record framing for durable storage.
//!
//! A record extends the plain [`frame`](crate::frame) layout with exactly the
//! two fields a write-ahead log needs to survive crashes:
//!
//! ```text
//! [u32 payload len (BE)] [u32 CRC-32 (BE)] [u64 sequence (BE)] [payload…]
//! ```
//!
//! The CRC-32 (IEEE polynomial, the one Ethernet/zip/PNG use) covers the
//! sequence number *and* the payload, so a bit flip anywhere after the length
//! prefix is detected.  The length prefix itself is implicitly validated: a
//! flipped length either trips the reader's cap ([`RecordError::Oversized`]),
//! runs past end-of-file ([`RecordError::Truncated`]), or shifts the CRC
//! window so the checksum no longer matches ([`RecordError::Corrupt`]).
//!
//! Like the frame layer, every failure mode is a typed error — **never a
//! panic, never silently accepted bytes**:
//!
//! * [`RecordError::Closed`] — end-of-stream on a record boundary; the normal
//!   end of a well-formed log.
//! * [`RecordError::Truncated`] — end-of-stream inside a record; a torn write
//!   from a crash.  Storage layers truncate the log here.
//! * [`RecordError::Oversized`] — the prefix declares more than the reader's
//!   cap; bounded allocation, exactly as in [`read_frame`](crate::read_frame).
//! * [`RecordError::Corrupt`] — checksum mismatch; a bit flip or a torn write
//!   that happened to leave enough bytes behind.
//!
//! Sequence numbers are carried, not policed: the storage layer knows what
//! sequence it expects next and treats a mismatch as corruption, but this
//! layer only guarantees the number read is the number written.
//!
//! ```
//! use dd_wire::record::{encode_record, read_record, RecordError};
//! use std::io::Cursor;
//!
//! let mut stream = Cursor::new(encode_record(7, b"payload"));
//! assert_eq!(read_record(&mut stream, 1024).unwrap(), (7, b"payload".to_vec()));
//! assert!(matches!(read_record(&mut stream, 1024), Err(RecordError::Closed)));
//! ```

use std::io::{self, ErrorKind, Read, Write};

/// Default cap on a single record's payload for *streaming* readers — the
/// same bound as the wire frames.  Readers of trusted local files (the WAL
/// and checkpoint stores) instead cap at the file's own size, so a durable
/// record may legitimately exceed this.
pub const MAX_RECORD_BYTES: usize = crate::frame::MAX_FRAME_BYTES;

/// Hard ceiling on a single payload: the most the u32 length prefix can
/// carry.  Writers enforce it ([`RecordStream`], and the storage layer's
/// append/write paths with a typed error), which guarantees that any record a
/// writer accepted can be read back by a reader whose cap is at least the
/// containing file's size.
pub const MAX_PAYLOAD_BYTES: usize = u32::MAX as usize;

/// Bytes of header before the payload: length + checksum + sequence.
pub const RECORD_HEADER_BYTES: usize = 4 + 4 + 8;

/// CRC-32 (IEEE, reflected, polynomial `0xEDB88320`) lookup tables for
/// slicing-by-8, built at compile time.  `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, which lets the hot loop fold eight input bytes per step
/// with eight independent table loads instead of a chain of eight dependent
/// ones.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `bytes`.  Matches zlib's `crc32(0, …)`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// Feed `bytes` into a running (un-finalized) CRC-32 state, eight bytes per
/// step (slicing-by-8) and the tail a byte at a time.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][chunk[4] as usize]
            ^ CRC_TABLES[2][chunk[5] as usize]
            ^ CRC_TABLES[1][chunk[6] as usize]
            ^ CRC_TABLES[0][chunk[7] as usize];
    }
    crc32_update_bytewise(crc, chunks.remainder())
}

/// One table load per byte: the tail of [`crc32_update`], and the reference
/// its tests compare the sliced loop against.
fn crc32_update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The checksum a record stores: over the sequence number, then the payload.
fn record_crc(seq_be: &[u8; 8], payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, seq_be), payload)
}

/// The 16 header bytes of a record: payload length, checksum, sequence.
fn header_bytes(len: usize, crc: u32, seq_be: [u8; 8]) -> [u8; RECORD_HEADER_BYTES] {
    let mut header = [0u8; RECORD_HEADER_BYTES];
    header[..4].copy_from_slice(&(len as u32).to_be_bytes());
    header[4..8].copy_from_slice(&crc.to_be_bytes());
    header[8..].copy_from_slice(&seq_be);
    header
}

/// The 16 header bytes of the record carrying `payload` under `seq`.
fn record_header(seq: u64, payload: &[u8]) -> [u8; RECORD_HEADER_BYTES] {
    let seq_be = seq.to_be_bytes();
    header_bytes(payload.len(), record_crc(&seq_be, payload), seq_be)
}

/// Split a header into `(declared payload length, stored checksum, sequence
/// number as written)`.
fn parse_header(header: &[u8; RECORD_HEADER_BYTES]) -> (usize, u32, [u8; 8]) {
    let word = |at: usize| {
        u32::from_be_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
    };
    let mut seq_be = [0u8; 8];
    seq_be.copy_from_slice(&header[8..]);
    (word(0) as usize, word(4), seq_be)
}

/// The sequence number of a record whose payload matches its checksum.
fn verified_seq(stored: u32, seq_be: [u8; 8], payload: &[u8]) -> Result<u64, RecordError> {
    let computed = record_crc(&seq_be, payload);
    if computed == stored {
        Ok(u64::from_be_bytes(seq_be))
    } else {
        Err(RecordError::Corrupt { stored, computed })
    }
}

/// Why a record could not be read.
#[derive(Debug)]
pub enum RecordError {
    /// The stream ended cleanly on a record boundary (well-formed end of log).
    Closed,
    /// The stream ended mid-record: a torn write.  Carries how many bytes were
    /// still expected.
    Truncated { missing: usize },
    /// The prefix declared a payload larger than the reader's cap.
    Oversized { declared: usize, max: usize },
    /// The checksum did not match the header+payload bytes read.
    Corrupt { stored: u32, computed: u32 },
    /// An I/O error other than end-of-stream.
    Io(io::Error),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Closed => write!(f, "log ended on a record boundary"),
            RecordError::Truncated { missing } => {
                write!(f, "log truncated mid-record ({missing} bytes missing)")
            }
            RecordError::Oversized { declared, max } => {
                write!(f, "record declares {declared} bytes, cap is {max}")
            }
            RecordError::Corrupt { stored, computed } => write!(
                f,
                "record checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            RecordError::Io(err) => write!(f, "record I/O error: {err}"),
        }
    }
}

impl std::error::Error for RecordError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecordError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for RecordError {
    fn from(err: io::Error) -> Self {
        RecordError::Io(err)
    }
}

impl RecordError {
    /// True for the clean end-of-log case.
    pub fn is_closed(&self) -> bool {
        matches!(self, RecordError::Closed)
    }

    /// True for the cases a WAL reader treats as a torn/corrupt tail to
    /// truncate at the previous record: everything except a clean close and a
    /// non-EOF I/O error (which is an environment failure, not bad bytes).
    pub fn is_tail_damage(&self) -> bool {
        matches!(
            self,
            RecordError::Truncated { .. }
                | RecordError::Oversized { .. }
                | RecordError::Corrupt { .. }
        )
    }
}

/// Encode one record to a buffer: header then payload.
///
/// Callers refuse payloads longer than [`MAX_PAYLOAD_BYTES`] before they
/// get here (the WAL's append does, with a typed error).
pub fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    buf.extend_from_slice(&record_header(seq, payload));
    buf.extend_from_slice(payload);
    buf
}

/// The payload of one record, written as it is produced: the checksum and
/// the length accumulate as the bytes pass through to `inner`, and
/// [`RecordStream::header`] then gives the header the record needs in front
/// — for a writer that wrote a placeholder there and patches it afterwards.
///
/// A payload longer than its cap (at most [`MAX_PAYLOAD_BYTES`]) is
/// refused: the write that would pass the cap fails before any of its bytes
/// reach `inner`, and [`RecordStream::header`] reports
/// [`RecordError::Oversized`].
///
/// ```
/// use dd_wire::record::{encode_record, RecordStream, MAX_PAYLOAD_BYTES, RECORD_HEADER_BYTES};
/// use std::io::Write;
///
/// let mut file = vec![0u8; RECORD_HEADER_BYTES];
/// let mut stream = RecordStream::new(&mut file, 7, MAX_PAYLOAD_BYTES);
/// stream.write_all(b"pay").unwrap();
/// stream.write_all(b"load").unwrap();
/// let header = stream.header().unwrap();
/// file[..RECORD_HEADER_BYTES].copy_from_slice(&header);
/// assert_eq!(file, encode_record(7, b"payload"));
/// ```
#[derive(Debug)]
pub struct RecordStream<W> {
    inner: W,
    seq_be: [u8; 8],
    /// Running (un-finalized) CRC-32 over the sequence, then the payload.
    crc: u32,
    /// Payload bytes written, plus those of a refused write.
    len: usize,
    cap: usize,
}

impl<W: Write> RecordStream<W> {
    /// The payload of the record `seq`, streamed into `inner`, refusing
    /// payloads past `cap` bytes (at most [`MAX_PAYLOAD_BYTES`]).
    pub fn new(inner: W, seq: u64, cap: usize) -> Self {
        let seq_be = seq.to_be_bytes();
        RecordStream {
            inner,
            seq_be,
            crc: crc32_update(0xFFFF_FFFF, &seq_be),
            len: 0,
            cap: cap.min(MAX_PAYLOAD_BYTES),
        }
    }

    /// The header of the record the written payload makes, or
    /// [`RecordError::Oversized`] if a write was refused.
    pub fn header(&self) -> Result<[u8; RECORD_HEADER_BYTES], RecordError> {
        if self.len > self.cap {
            return Err(RecordError::Oversized {
                declared: self.len,
                max: self.cap,
            });
        }
        Ok(header_bytes(self.len, !self.crc, self.seq_be))
    }
}

impl<W: Write> Write for RecordStream<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.len() > self.cap - self.len.min(self.cap) {
            self.len = self.len.saturating_add(buf.len());
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                format!(
                    "payload of more than {} bytes exceeds the record cap",
                    self.cap
                ),
            ));
        }
        let n = self.inner.write(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        self.len += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Read one record, allocating at most `max_payload` bytes, verifying the
/// checksum, and returning `(sequence, payload)`.
///
/// End-of-stream before the first header byte is [`RecordError::Closed`];
/// end-of-stream anywhere later is [`RecordError::Truncated`].
pub fn read_record(
    reader: &mut impl Read,
    max_payload: usize,
) -> Result<(u64, Vec<u8>), RecordError> {
    let mut header = [0u8; RECORD_HEADER_BYTES];
    read_exact_or(reader, &mut header[..4], true)?;
    let (declared, ..) = parse_header(&header);
    if declared > max_payload {
        return Err(RecordError::Oversized {
            declared,
            max: max_payload,
        });
    }
    read_exact_or(reader, &mut header[4..], false)?;
    let (_, stored, seq_be) = parse_header(&header);
    let mut payload = vec![0u8; declared];
    read_exact_or(reader, &mut payload, false)?;
    Ok((verified_seq(stored, seq_be, &payload)?, payload))
}

/// [`read_record`] for a record already in memory: the payload is returned
/// as a slice of `bytes`, followed by whatever lies after the record.
///
/// The errors are those of a reader over `bytes` capped at `bytes.len()`:
/// nothing at all is [`RecordError::Closed`], a record that runs past the
/// end is [`RecordError::Truncated`].
pub fn split_record(bytes: &[u8]) -> Result<(u64, &[u8], &[u8]), RecordError> {
    if bytes.is_empty() {
        return Err(RecordError::Closed);
    }
    let Some((header, rest)) = bytes.split_first_chunk::<RECORD_HEADER_BYTES>() else {
        return Err(RecordError::Truncated {
            missing: RECORD_HEADER_BYTES - bytes.len(),
        });
    };
    let (declared, stored, seq_be) = parse_header(header);
    if declared > rest.len() {
        return Err(RecordError::Truncated {
            missing: declared - rest.len(),
        });
    }
    let (payload, rest) = rest.split_at(declared);
    Ok((verified_seq(stored, seq_be, payload)?, payload, rest))
}

/// `read_exact` that maps end-of-stream to [`RecordError::Closed`] when no
/// byte of `buf` has arrived yet and `clean_close_ok` is set, and to
/// [`RecordError::Truncated`] otherwise.
fn read_exact_or(
    reader: &mut impl Read,
    buf: &mut [u8],
    clean_close_ok: bool,
) -> Result<(), RecordError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && clean_close_ok {
                    Err(RecordError::Closed)
                } else {
                    Err(RecordError::Truncated {
                        missing: buf.len() - filled,
                    })
                };
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) => return Err(RecordError::Io(err)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_loop_at_every_length_and_alignment() {
        // xorshift bytes; lengths 0..4 KiB (dense below 64, then strided),
        // each started at 8 different offsets into the buffer so the 8-byte
        // chunks fall on every alignment, and from a non-initial state.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        let lengths = (0..64).chain((64..=4096).step_by(61)).chain([4095, 4096]);
        for len in lengths {
            for offset in 0..8 {
                let bytes = &buffer[offset..offset + len];
                for state in [0xFFFF_FFFFu32, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(state, bytes),
                        crc32_update_bytewise(state, bytes),
                        "length {len} at offset {offset}"
                    );
                }
            }
        }
    }

    #[test]
    fn records_round_trip_back_to_back() {
        let mut buf = encode_record(1, b"first");
        buf.extend(encode_record(2, b""));
        buf.extend(encode_record(u64::MAX, "🚀 third".as_bytes()));
        let mut stream = Cursor::new(buf);
        assert_eq!(
            read_record(&mut stream, 1024).unwrap(),
            (1, b"first".to_vec())
        );
        assert_eq!(read_record(&mut stream, 1024).unwrap(), (2, Vec::new()));
        assert_eq!(
            read_record(&mut stream, 1024).unwrap(),
            (u64::MAX, "🚀 third".as_bytes().to_vec())
        );
        assert!(read_record(&mut stream, 1024).unwrap_err().is_closed());
    }

    #[test]
    fn a_streamed_payload_makes_the_record_encode_record_makes() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut streamed = Vec::new();
        let mut stream = RecordStream::new(&mut streamed, u64::MAX - 3, MAX_PAYLOAD_BYTES);
        for piece in payload.chunks(333) {
            stream.write_all(piece).unwrap();
        }
        let header = stream.header().unwrap();
        streamed.splice(0..0, header);
        assert_eq!(streamed, encode_record(u64::MAX - 3, &payload));
    }

    #[test]
    fn a_stream_past_its_cap_is_refused_before_the_bytes_go_out() {
        let mut out = Vec::new();
        let mut stream = RecordStream::new(&mut out, 1, 10);
        stream.write_all(b"0123456").unwrap();
        assert!(stream.write_all(b"789a").is_err());
        assert!(matches!(
            stream.header(),
            Err(RecordError::Oversized {
                declared: 11,
                max: 10
            })
        ));
        assert_eq!(out, b"0123456");
    }

    #[test]
    fn truncation_at_every_byte_boundary_is_typed() {
        let full = encode_record(9, b"some payload worth checking");
        for cut in 0..full.len() {
            let mut stream = Cursor::new(full[..cut].to_vec());
            match read_record(&mut stream, 1024) {
                Err(RecordError::Closed) => assert_eq!(cut, 0),
                Err(RecordError::Truncated { missing }) => {
                    assert!(missing > 0, "cut at {cut} reported zero missing bytes")
                }
                other => panic!("cut at {cut}: expected Closed/Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let full = encode_record(7, b"bit flips must never pass");
        for byte in 0..full.len() {
            for bit in 0..8 {
                let mut damaged = full.clone();
                damaged[byte] ^= 1 << bit;
                let mut stream = Cursor::new(damaged);
                match read_record(&mut stream, full.len() + 64) {
                    Err(RecordError::Corrupt { stored, computed }) => {
                        assert_ne!(stored, computed)
                    }
                    // A flipped length bit can also declare too much or run
                    // off the end of the buffer — both are typed, both fine.
                    Err(RecordError::Oversized { .. }) | Err(RecordError::Truncated { .. }) => {}
                    Ok((seq, payload)) => panic!(
                        "flip {byte}/{bit} accepted: seq {seq}, {} bytes",
                        payload.len()
                    ),
                    Err(other) => panic!("flip {byte}/{bit}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_declaration_fails_before_allocating() {
        let mut stream = Cursor::new(u32::MAX.to_be_bytes().to_vec());
        match read_record(&mut stream, 1024) {
            Err(RecordError::Oversized { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_and_chain() {
        let err = RecordError::from(io::Error::new(ErrorKind::ConnectionReset, "reset"));
        assert!(err.to_string().contains("reset"));
        assert!(std::error::Error::source(&err).is_some());
        assert!(!err.is_closed());
        assert!(!err.is_tail_damage());
        assert!(RecordError::Closed.is_closed());
        let torn = RecordError::Truncated { missing: 3 };
        assert!(torn.is_tail_damage());
        assert!(torn.to_string().contains("3 bytes"));
        let bad = RecordError::Corrupt {
            stored: 1,
            computed: 2,
        };
        assert!(bad.is_tail_damage());
        assert!(bad.to_string().contains("mismatch"));
    }
}
