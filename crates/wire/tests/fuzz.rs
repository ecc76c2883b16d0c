//! Seeded corruption fuzzing of the frame and record decoders.
//!
//! Every test starts from a stream of valid frames/records, applies a
//! deterministic (seeded) corruption — bit flips, truncation, or both — and
//! asserts the decoder either returns data or a typed error.  Nothing here
//! inspects *which* error beyond the documented taxonomy; the property under
//! test is "hostile bytes can never panic or hang the decoder, and truncation
//! is always reported as truncation".

mod common;

use common::SplitMix64;
use dd_wire::RecordError;
use dd_wire::{encode_record, read_frame, read_record, write_frame, FrameError};
use std::io::Cursor;

/// A stream of a few valid frames with mixed payload sizes.
fn valid_frames(rng: &mut SplitMix64) -> Vec<u8> {
    let mut buf = Vec::new();
    for _ in 0..4 {
        let len = rng.below(200);
        let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        write_frame(&mut buf, &payload).unwrap();
    }
    buf
}

/// A stream of a few valid records with consecutive sequence numbers.
fn valid_records(rng: &mut SplitMix64) -> Vec<u8> {
    let mut buf = Vec::new();
    for seq in 1..=4u64 {
        let len = rng.below(200);
        let payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        buf.extend(encode_record(seq, &payload));
    }
    buf
}

/// Drain a frame stream; count decoded frames; panic only if the decoder does.
fn drain_frames(bytes: Vec<u8>, cap: usize) -> usize {
    let mut stream = Cursor::new(bytes);
    let mut decoded = 0;
    loop {
        match read_frame(&mut stream, cap) {
            Ok(_) => decoded += 1,
            Err(FrameError::Closed) => return decoded,
            Err(FrameError::Truncated { .. })
            | Err(FrameError::Oversized { .. })
            | Err(FrameError::Io(_)) => return decoded,
        }
    }
}

/// Drain a record stream; count records that decoded with a valid checksum.
fn drain_records(bytes: Vec<u8>, cap: usize) -> usize {
    let mut stream = Cursor::new(bytes);
    let mut decoded = 0;
    loop {
        match read_record(&mut stream, cap) {
            Ok(_) => decoded += 1,
            Err(RecordError::Closed) => return decoded,
            Err(RecordError::Truncated { .. })
            | Err(RecordError::Oversized { .. })
            | Err(RecordError::Corrupt { .. })
            | Err(RecordError::Io(_)) => return decoded,
        }
    }
}

#[test]
fn random_bit_flips_never_panic_frame_decoding() {
    let mut rng = SplitMix64(0xF1A6);
    for _ in 0..200 {
        let mut bytes = valid_frames(&mut rng);
        for _ in 0..1 + rng.below(8) {
            let pos = rng.below(bytes.len());
            bytes[pos] ^= 1 << rng.below(8);
        }
        drain_frames(bytes, 4096);
    }
}

#[test]
fn random_bit_flips_never_panic_record_decoding() {
    let mut rng = SplitMix64(0x5EED);
    for _ in 0..200 {
        let mut bytes = valid_records(&mut rng);
        for _ in 0..1 + rng.below(8) {
            let pos = rng.below(bytes.len());
            bytes[pos] ^= 1 << rng.below(8);
        }
        drain_records(bytes, 4096);
    }
}

#[test]
fn truncation_at_every_length_yields_typed_errors() {
    let mut rng = SplitMix64(0x7123);
    let frames = valid_frames(&mut rng);
    for cut in 0..frames.len() {
        drain_frames(frames[..cut].to_vec(), 4096);
    }
    let records = valid_records(&mut rng);
    for cut in 0..records.len() {
        drain_records(records[..cut].to_vec(), 4096);
    }
}

#[test]
fn mid_record_truncation_is_reported_as_truncated_not_closed() {
    let mut buf = encode_record(1, b"intact");
    let mark = buf.len();
    buf.extend(encode_record(2, b"this one gets torn"));
    // Cut strictly inside the second record, at every possible boundary.
    for cut in mark + 1..buf.len() {
        let mut stream = Cursor::new(buf[..cut].to_vec());
        assert!(read_record(&mut stream, 4096).is_ok());
        match read_record(&mut stream, 4096) {
            Err(RecordError::Truncated { missing }) => assert!(missing > 0),
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
    // Cut exactly between the two records: a clean close.
    let mut stream = Cursor::new(buf[..mark].to_vec());
    assert!(read_record(&mut stream, 4096).is_ok());
    assert!(read_record(&mut stream, 4096).unwrap_err().is_closed());
}

#[test]
fn single_bit_flips_in_record_payload_are_always_caught() {
    let mut rng = SplitMix64(0xBEEF);
    let buf = encode_record(1, b"the checksum window covers sequence and payload");
    for _ in 0..500 {
        let mut damaged = buf.clone();
        let pos = rng.below(damaged.len());
        damaged[pos] ^= 1 << rng.below(8);
        let mut stream = Cursor::new(damaged);
        match read_record(&mut stream, 4096) {
            Ok(_) => panic!("a single bit flip at byte {pos} went undetected"),
            Err(err) => assert!(
                err.is_tail_damage(),
                "flip at byte {pos} produced unexpected {err:?}"
            ),
        }
    }
}

#[test]
fn oversized_prefixes_fail_before_allocation_under_fuzz() {
    let mut rng = SplitMix64(0xCAFE);
    for _ in 0..100 {
        // A length prefix far above the cap followed by random garbage.
        let declared = 4096 + rng.below(1 << 20) as u32;
        let mut bytes = declared.to_be_bytes().to_vec();
        for _ in 0..rng.below(64) {
            bytes.push(rng.next() as u8);
        }
        let mut stream = Cursor::new(bytes.clone());
        assert!(matches!(
            read_frame(&mut stream, 4096),
            Err(FrameError::Oversized { .. })
        ));
        let mut stream = Cursor::new(bytes);
        assert!(matches!(
            read_record(&mut stream, 4096),
            Err(RecordError::Oversized { .. })
        ));
    }
}

/// The in-memory decoder must read a damaged stream exactly as the
/// streaming one capped at the stream's length does: the same records, then
/// the same kind of stop.
#[test]
fn split_record_reads_what_read_record_reads() {
    use dd_wire::split_record;
    let mut rng = SplitMix64(0x5711);
    for round in 0..300 {
        let mut bytes = valid_records(&mut rng);
        match round % 3 {
            0 => {}
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            _ => {
                let pos = rng.below(bytes.len());
                bytes[pos] ^= 1 << rng.below(8);
            }
        }
        let mut stream = Cursor::new(bytes.clone());
        let mut rest = bytes.as_slice();
        loop {
            let streamed = read_record(&mut stream, bytes.len());
            match (streamed, split_record(rest)) {
                (Ok((seq, payload)), Ok((split_seq, split_payload, after))) => {
                    assert_eq!((seq, payload.as_slice()), (split_seq, split_payload));
                    rest = after;
                }
                (Err(a), Err(b)) => {
                    // Past the cap a stream says Oversized where a slice,
                    // which cannot hold the bytes either, says Truncated.
                    let kind = |e: &RecordError| match e {
                        RecordError::Oversized { .. } => {
                            std::mem::discriminant(&RecordError::Truncated { missing: 0 })
                        }
                        other => std::mem::discriminant(other),
                    };
                    assert_eq!(kind(&a), kind(&b), "round {round}: {a:?} vs {b:?}");
                    break;
                }
                (a, b) => panic!("round {round}: {a:?} vs {b:?}"),
            }
        }
    }
}
