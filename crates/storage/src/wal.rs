//! The append-only write-ahead log.
//!
//! Layout: a `wal/` directory holding sequential segment files named
//! `wal-<start sequence, zero-padded>.log`.  Every record inside a segment is
//! a `dd_wire::record` (length + CRC-32 + sequence + payload); sequences are
//! contiguous across segments, so the segment name states exactly which
//! record the file starts with.
//!
//! ## Crash behaviour
//!
//! Appends are single `write(2)` calls of a fully-encoded record, so a crash
//! leaves at most one torn record at the end of the newest segment.  On
//! [`Wal::open`], the log is scanned from the first segment forward and is
//! *physically repaired*:
//!
//! * a record that fails its checksum, truncates mid-record, declares a
//!   length past the end of its segment, or carries the wrong sequence
//!   number marks the torn tail — the segment is `set_len`-truncated back to
//!   the last valid record, and any later segments (unreachable past the
//!   tear) are deleted.  The scan's size cap is the segment's own length
//!   (not a fixed constant), so any payload [`Wal::append`] accepted is
//!   readable and is never misdiagnosed as damage;
//! * everything before the tear is returned to the caller for replay.
//!
//! Opening is therefore idempotent: a second open of the same directory
//! performs no writes and returns byte-identical records.
//!
//! ## Fsync discipline
//!
//! [`FsyncPolicy`] governs per-append syncs.  Rotation always syncs the old
//! segment, creates the new one, and fsyncs the directory so the new name is
//! durable — the barrier that makes "checkpoint then prune" safe.  A segment
//! that holds no record yet is not rotated: it already starts at the next
//! sequence.  [`Wal::open`] makes the directory it creates durable by
//! fsyncing its parent, and [`Wal::fsyncs`] counts every sync the log issues.

use crate::config::FsyncPolicy;
use crate::dir::{create_dir_durably, sync_dir};
use crate::error::StorageError;
use dd_wire::{encode_record, read_record, RecordError, MAX_PAYLOAD_BYTES};
use std::fs::{self, File, OpenOptions};
use std::io::{Cursor, Write};
use std::path::{Path, PathBuf};

/// The append-only, checksummed, crash-repairing log.
pub struct Wal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    file: File,
    current_path: PathBuf,
    /// Sequence of the first record of the current segment.
    segment_start: u64,
    next_seq: u64,
    unsynced: u64,
    /// Fsyncs issued so far, the ones `open` made included.
    fsyncs: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("next_seq", &self.next_seq)
            .field("current", &self.current_path)
            .finish()
    }
}

/// Name of the segment whose first record carries `start_seq`.
fn segment_name(start_seq: u64) -> String {
    format!("wal-{start_seq:020}.log")
}

/// Parse a segment filename back to its starting sequence.
fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// All segment files in `dir`, sorted by starting sequence.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    let mut segments = Vec::new();
    let entries = fs::read_dir(dir)
        .map_err(|e| StorageError::io(format!("listing WAL dir {}", dir.display()), e))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| StorageError::io(format!("listing WAL dir {}", dir.display()), e))?;
        if let Some(start) = entry.file_name().to_str().and_then(parse_segment_name) {
            segments.push((start, entry.path()));
        }
    }
    segments.sort();
    Ok(segments)
}

/// One logged record as [`Wal::open`] returns it: `(seq, payload)`.
pub(crate) type Record = (u64, Vec<u8>);

impl Wal {
    /// Open (or create) the log in `dir`, repair any torn tail, and return
    /// the WAL positioned for appending plus every valid `(seq, payload)`
    /// record currently in the log.
    pub fn open(
        dir: impl Into<PathBuf>,
        fsync: FsyncPolicy,
    ) -> Result<(Wal, Vec<Record>), StorageError> {
        let dir = dir.into();
        let mut fsyncs = 0;
        create_dir_durably(&dir, "WAL", &mut fsyncs)?;
        let segments = list_segments(&dir)?;

        if segments.is_empty() {
            let (file, path) = Wal::create_segment(&dir, 1, &mut fsyncs)?;
            return Ok((
                Wal {
                    dir,
                    fsync,
                    file,
                    current_path: path,
                    segment_start: 1,
                    next_seq: 1,
                    unsynced: 0,
                    fsyncs,
                },
                Vec::new(),
            ));
        }

        let mut records = Vec::new();
        let mut expected = segments[0].0;
        // Index of the last segment that survives the scan.
        let mut keep_through = 0usize;

        'segments: for (idx, (start, path)) in segments.iter().enumerate() {
            if *start != expected {
                // A gap: this segment starts past (or before) the record we
                // need next, so everything from here on is unreachable.
                // Possible after a tear truncated the previous segment.
                for (_, stale) in &segments[idx..] {
                    fs::remove_file(stale).map_err(|e| {
                        StorageError::io(format!("removing stale segment {}", stale.display()), e)
                    })?;
                }
                sync_dir(&dir, &mut fsyncs)?;
                break 'segments;
            }
            keep_through = idx;
            let bytes = fs::read(path)
                .map_err(|e| StorageError::io(format!("reading segment {}", path.display()), e))?;
            let mut cursor = Cursor::new(&bytes);
            let mut valid_end = 0u64;
            loop {
                // Cap reads at the segment's own size: a valid record can
                // never declare more bytes than the file that holds it, so
                // every payload `append` accepted reads back, while a torn
                // length prefix still fails typed (Oversized past the file,
                // Truncated/Corrupt within it) and allocation stays bounded.
                match read_record(&mut cursor, bytes.len()) {
                    Ok((seq, payload)) if seq == expected => {
                        expected += 1;
                        valid_end = cursor.position();
                        records.push((seq, payload));
                    }
                    // Wrong sequence number: a tear that left stale bytes
                    // behind, or cross-segment inconsistency.  Same repair.
                    Ok(_) => {
                        Wal::repair_tail(&dir, &segments, idx, path, valid_end, &mut fsyncs)?;
                        break 'segments;
                    }
                    Err(RecordError::Closed) => break,
                    Err(err) if err.is_tail_damage() => {
                        Wal::repair_tail(&dir, &segments, idx, path, valid_end, &mut fsyncs)?;
                        break 'segments;
                    }
                    Err(RecordError::Io(e)) => {
                        return Err(StorageError::io(
                            format!("scanning segment {}", path.display()),
                            e,
                        ));
                    }
                    Err(other) => {
                        return Err(StorageError::Record {
                            path: path.clone(),
                            source: other,
                        });
                    }
                }
            }
        }

        let (segment_start, current_path) = segments[keep_through].clone();
        let file = OpenOptions::new()
            .append(true)
            .open(&current_path)
            .map_err(|e| {
                StorageError::io(format!("opening segment {}", current_path.display()), e)
            })?;
        Ok((
            Wal {
                dir,
                fsync,
                file,
                current_path,
                segment_start,
                next_seq: expected,
                unsynced: 0,
                fsyncs,
            },
            records,
        ))
    }

    /// Truncate `path` back to `valid_end` and delete every later segment.
    fn repair_tail(
        dir: &Path,
        segments: &[(u64, PathBuf)],
        idx: usize,
        path: &Path,
        valid_end: u64,
        fsyncs: &mut u64,
    ) -> Result<(), StorageError> {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StorageError::io(format!("opening {} for repair", path.display()), e))?;
        file.set_len(valid_end)
            .map_err(|e| StorageError::io(format!("truncating {}", path.display()), e))?;
        file.sync_all()
            .map_err(|e| StorageError::io(format!("syncing {}", path.display()), e))?;
        *fsyncs += 1;
        for (_, stale) in &segments[idx + 1..] {
            fs::remove_file(stale).map_err(|e| {
                StorageError::io(format!("removing stale segment {}", stale.display()), e)
            })?;
        }
        sync_dir(dir, fsyncs)
    }

    fn create_segment(
        dir: &Path,
        start_seq: u64,
        fsyncs: &mut u64,
    ) -> Result<(File, PathBuf), StorageError> {
        let path = dir.join(segment_name(start_seq));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| StorageError::io(format!("creating segment {}", path.display()), e))?;
        file.sync_all()
            .map_err(|e| StorageError::io(format!("syncing new segment {}", path.display()), e))?;
        *fsyncs += 1;
        sync_dir(dir, fsyncs)?;
        Ok((file, path))
    }

    /// Append one payload as the next record; returns its sequence number.
    ///
    /// The record is written with a single `write` call so a crash tears at
    /// most the final record, then synced according to the [`FsyncPolicy`].
    ///
    /// Payloads the record format cannot represent (longer than the u32
    /// length prefix allows) are refused with a typed error *before* any
    /// bytes hit the file — everything this method accepts is guaranteed to
    /// read back on recovery.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StorageError> {
        if payload.len() > MAX_PAYLOAD_BYTES {
            return Err(StorageError::Record {
                path: self.current_path.clone(),
                source: RecordError::Oversized {
                    declared: payload.len(),
                    max: MAX_PAYLOAD_BYTES,
                },
            });
        }
        let seq = self.next_seq;
        let encoded = encode_record(seq, payload);
        self.file
            .write_all(&encoded)
            .map_err(|e| StorageError::io(format!("appending record {seq}"), e))?;
        self.next_seq += 1;
        self.unsynced += 1;
        match self.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Flush appended records to stable storage now.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file
            .sync_data()
            .map_err(|e| StorageError::io("syncing WAL segment", e))?;
        self.fsyncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// Seal the current segment and start a new one at the next sequence.
    ///
    /// Syncs the sealed segment and the directory before returning, so the
    /// rotation itself is durable.  A no-op while the current segment holds
    /// no record: it already starts at the next sequence.
    pub fn rotate(&mut self) -> Result<(), StorageError> {
        if self.next_seq == self.segment_start {
            return Ok(());
        }
        self.sync()?;
        let (file, path) = Wal::create_segment(&self.dir, self.next_seq, &mut self.fsyncs)?;
        self.file = file;
        self.current_path = path;
        self.segment_start = self.next_seq;
        Ok(())
    }

    /// Delete sealed segments whose records are *all* below `seq` (i.e. are
    /// covered by a checkpoint).  The segment currently open for append is
    /// never deleted.
    pub fn prune_below(&mut self, seq: u64) -> Result<(), StorageError> {
        let segments = list_segments(&self.dir)?;
        let mut removed = false;
        for window in segments.windows(2) {
            let (_, ref path) = window[0];
            let (next_start, _) = window[1];
            if next_start <= seq && *path != self.current_path {
                fs::remove_file(path).map_err(|e| {
                    StorageError::io(format!("pruning segment {}", path.display()), e)
                })?;
                removed = true;
            }
        }
        if removed {
            sync_dir(&self.dir, &mut self.fsyncs)?;
        }
        Ok(())
    }

    /// Sequence number of the last appended record (0 if nothing was ever
    /// appended to a fresh log).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Fsyncs this log has issued since it was opened, the ones `open` made
    /// included.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Paths of all segment files, sorted by starting sequence (test/tooling
    /// aid).
    pub fn segment_paths(&self) -> Result<Vec<PathBuf>, StorageError> {
        Ok(list_segments(&self.dir)?
            .into_iter()
            .map(|(_, p)| p)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dd-storage-wal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payloads(records: &[(u64, Vec<u8>)]) -> Vec<&[u8]> {
        records.iter().map(|(_, p)| p.as_slice()).collect()
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let dir = temp_dir("roundtrip");
        let (mut wal, recovered) = Wal::open(&dir, FsyncPolicy::Always).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(wal.last_seq(), 0);
        assert_eq!(wal.append(b"one").unwrap(), 1);
        assert_eq!(wal.append(b"two").unwrap(), 2);
        drop(wal);
        let (wal, recovered) = Wal::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(recovered, vec![(1, b"one".to_vec()), (2, b"two".to_vec())]);
        assert_eq!(wal.next_seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_at_every_byte_boundary_recovers_cleanly() {
        // A reference log of three records; then for every possible torn
        // prefix of the fourth, recovery keeps exactly the first three and
        // truncates the file back to their bytes.
        let dir = temp_dir("torn");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Never).unwrap();
        for p in [&b"alpha"[..], b"beta", b"gamma"] {
            wal.append(p).unwrap();
        }
        wal.sync().unwrap();
        let path = wal.segment_paths().unwrap().pop().unwrap();
        drop(wal);
        let intact = fs::read(&path).unwrap();
        let torn_record = encode_record(4, b"delta gets torn");

        for cut in 0..torn_record.len() {
            let mut bytes = intact.clone();
            bytes.extend_from_slice(&torn_record[..cut]);
            fs::write(&path, &bytes).unwrap();
            let (wal, recovered) = Wal::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(
                payloads(&recovered),
                vec![&b"alpha"[..], b"beta", b"gamma"],
                "cut at {cut}"
            );
            assert_eq!(wal.next_seq, 4, "cut at {cut}");
            drop(wal);
            // The tail was physically removed.
            assert_eq!(fs::read(&path).unwrap(), intact, "cut at {cut}");
            // And a second open is a no-op returning identical records.
            let (_, again) = Wal::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(again, recovered, "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_in_the_tail_truncate_to_last_valid_record() {
        let dir = temp_dir("flip");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Never).unwrap();
        wal.append(b"keep me").unwrap();
        let keep_len = fs::metadata(wal.segment_paths().unwrap().pop().unwrap())
            .unwrap()
            .len();
        wal.append(b"flip me").unwrap();
        wal.sync().unwrap();
        let path = wal.segment_paths().unwrap().pop().unwrap();
        drop(wal);
        let intact = fs::read(&path).unwrap();
        for byte in keep_len as usize..intact.len() {
            for bit in 0..8 {
                let mut damaged = intact.clone();
                damaged[byte] ^= 1 << bit;
                fs::write(&path, &damaged).unwrap();
                let (wal, recovered) = Wal::open(&dir, FsyncPolicy::Never).unwrap();
                assert_eq!(payloads(&recovered), vec![&b"keep me"[..]]);
                assert_eq!(wal.next_seq, 2);
                drop(wal);
                assert_eq!(fs::metadata(&path).unwrap().len(), keep_len);
                // Restore the intact bytes for the next iteration.
                fs::write(&path, &intact).unwrap();
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_pruning_keeps_the_tail() {
        let dir = temp_dir("rotate");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        wal.rotate().unwrap();
        wal.append(b"c").unwrap();
        assert_eq!(wal.segment_paths().unwrap().len(), 2);
        drop(wal);

        let (mut wal, recovered) = Wal::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(payloads(&recovered), vec![&b"a"[..], b"b", b"c"]);

        // After a checkpoint covering record 2, records < 3 are disposable:
        // the first segment (records 1–2) goes.
        wal.prune_below(3).unwrap();
        assert_eq!(wal.segment_paths().unwrap().len(), 1);
        drop(wal);
        let (wal, recovered) = Wal::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(recovered, vec![(3, b"c".to_vec())]);
        assert_eq!(wal.next_seq, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotating_a_segment_without_records_is_a_no_op() {
        let root = temp_dir("empty-rotate");
        let dir = root.join("wal");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Always).unwrap();
        // The parents of `root` and `wal`, the new segment and its directory.
        assert_eq!(wal.fsyncs(), 4);
        wal.rotate().unwrap();
        assert_eq!(wal.fsyncs(), 4);
        assert_eq!(wal.segment_paths().unwrap().len(), 1);
        wal.append(b"a").unwrap();
        assert_eq!(wal.fsyncs(), 5);
        // A segment with a record rotates: the sealed segment, the new one
        // and the directory.
        wal.rotate().unwrap();
        assert_eq!(wal.fsyncs(), 8);
        wal.rotate().unwrap();
        assert_eq!(wal.fsyncs(), 8);
        assert_eq!(wal.segment_paths().unwrap().len(), 2);
        drop(wal);
        // Reopened on its empty last segment, it does not rotate either.
        let (mut wal, recovered) = Wal::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(recovered, vec![(1, b"a".to_vec())]);
        assert_eq!(wal.fsyncs(), 0);
        wal.rotate().unwrap();
        assert_eq!(wal.fsyncs(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tear_in_earlier_segment_drops_later_segments() {
        let dir = temp_dir("cascade");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Never).unwrap();
        wal.append(b"a").unwrap();
        wal.rotate().unwrap();
        wal.append(b"b").unwrap();
        wal.sync().unwrap();
        let first = wal.segment_paths().unwrap()[0].clone();
        drop(wal);
        // Corrupt the sealed first segment: its tail (record 1) dies, and the
        // second segment (record 2) becomes unreachable.
        let mut bytes = fs::read(&first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&first, &bytes).unwrap();
        let (wal, recovered) = Wal::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(wal.next_seq, 1);
        assert_eq!(wal.segment_paths().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payloads_past_the_streaming_cap_round_trip() {
        // Regression: appends used to succeed for any u32-sized payload while
        // recovery read with the 16 MiB streaming cap, so a large committed
        // record (e.g. a bulk-update WAL op) was misread as a torn tail and
        // silently truncated away along with everything after it.
        let dir = temp_dir("bigrec");
        let big = vec![0xA7u8; dd_wire::MAX_RECORD_BYTES + 1];
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(wal.append(&big).unwrap(), 1);
        assert_eq!(wal.append(b"after the big one").unwrap(), 2);
        wal.sync().unwrap();
        drop(wal);
        let (wal, recovered) = Wal::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0], (1, big));
        assert_eq!(recovered[1], (2, b"after the big one".to_vec()));
        assert_eq!(wal.next_seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_n_policy_counts_appends() {
        let dir = temp_dir("everyn");
        let (mut wal, _) = Wal::open(&dir, FsyncPolicy::EveryN(3)).unwrap();
        for i in 0..7u8 {
            wal.append(&[i]).unwrap();
        }
        // No assertion beyond "it works and recovers" — the sync counter is
        // not observable without OS hooks, but the path must be exercised.
        drop(wal);
        let (_, recovered) = Wal::open(&dir, FsyncPolicy::EveryN(3)).unwrap();
        assert_eq!(recovered.len(), 7);
        let _ = fs::remove_dir_all(&dir);
    }
}
