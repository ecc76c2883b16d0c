//! Atomically-rotated checkpoint files.
//!
//! A checkpoint is one record (`dd_wire::record`) in a file named
//! `ckpt-<covered sequence, zero-padded>.ckpt`, where the covered sequence is
//! the last WAL record whose effects are folded into the payload.  Recovery
//! loads the newest *valid* checkpoint and replays WAL records past it.
//!
//! A write streams the payload into the file as its producer encodes it —
//! the payload is never held in memory whole — inside the classic
//! atomic-replace dance:
//!
//! 1. write a placeholder header to `ckpt-….ckpt.tmp`, then the payload
//!    through a [`RecordStream`] that accumulates its length and CRC,
//! 2. seek back and write the real header over the placeholder,
//! 3. `fsync` the temp file,
//! 4. `rename` it to its final name,
//! 5. `fsync` the directory.
//!
//! A crash anywhere in that sequence leaves either no new file or a complete
//! one; a leftover `.tmp` is swept on [`CheckpointStore::open`].  The record
//! CRC additionally guards against bit rot: [`CheckpointStore::latest_valid`]
//! walks checkpoints newest-first and skips any that fail validation, so one
//! damaged checkpoint degrades to the previous one instead of to data loss.

use crate::dir::{create_dir_durably, sync_dir};
use crate::error::StorageError;
use dd_wire::{split_record, RecordStream, MAX_PAYLOAD_BYTES, RECORD_HEADER_BYTES};
use std::fs::{self, File};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::PathBuf;

/// The checkpoint directory: atomic writes, validated reads, pruning.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    /// Fsyncs issued so far: files, the directory and, on open, the parents
    /// of the directories it created.
    fsyncs: u64,
    /// Bytes the next write may put into its temp file before it fails
    /// ([`CheckpointStore::fail_next_write_after`]).
    fail_after: Option<u64>,
}

fn checkpoint_name(covered_seq: u64) -> String {
    format!("ckpt-{covered_seq:020}.ckpt")
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The temp file of one write; a write armed by
/// [`CheckpointStore::fail_next_write_after`] lets exactly its budget of
/// bytes through and then fails, as a crash would cut it.
struct TmpFile {
    file: File,
    budget: Option<u64>,
}

impl Write for TmpFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(budget) = &mut self.budget else {
            return self.file.write(buf);
        };
        if *budget == 0 {
            return Err(io::Error::other("checkpoint write failpoint tripped"));
        }
        let allowed = buf
            .len()
            .min(usize::try_from(*budget).unwrap_or(usize::MAX));
        let n = self.file.write(&buf[..allowed])?;
        *budget -= n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Seek for TmpFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.file.seek(pos)
    }
}

impl CheckpointStore {
    /// Open (or create) the store in `dir`, sweeping any `.tmp` debris a
    /// crashed writer left behind.  Directories it creates are made durable
    /// (their parents fsynced) before it returns.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, StorageError> {
        let dir = dir.into();
        let mut fsyncs = 0;
        create_dir_durably(&dir, "checkpoint", &mut fsyncs)?;
        let entries = fs::read_dir(&dir)
            .map_err(|e| StorageError::io(format!("listing {}", dir.display()), e))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| StorageError::io(format!("listing {}", dir.display()), e))?;
            let name = entry.file_name();
            if name.to_str().is_some_and(|n| n.ends_with(".tmp")) {
                fs::remove_file(entry.path()).map_err(|e| {
                    StorageError::io(format!("sweeping {}", entry.path().display()), e)
                })?;
            }
        }
        Ok(CheckpointStore {
            dir,
            fsyncs,
            fail_after: None,
        })
    }

    /// All checkpoint files, sorted by covered sequence ascending.
    fn list(&self) -> Result<Vec<(u64, PathBuf)>, StorageError> {
        let mut found = Vec::new();
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| StorageError::io(format!("listing {}", self.dir.display()), e))?;
        for entry in entries {
            let entry = entry
                .map_err(|e| StorageError::io(format!("listing {}", self.dir.display()), e))?;
            if let Some(seq) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
                found.push((seq, entry.path()));
            }
        }
        found.sort();
        Ok(found)
    }

    /// Atomically write `payload` as the checkpoint covering WAL records
    /// `..= covered_seq`; see [`CheckpointStore::write_with`].
    pub fn write(&mut self, covered_seq: u64, payload: &[u8]) -> Result<PathBuf, StorageError> {
        self.write_with(covered_seq, |sink| sink.write_all(payload))
    }

    /// Atomically write the checkpoint covering WAL records `..= covered_seq`,
    /// its payload being whatever `payload` writes into the sink it is
    /// handed — streamed into the temp file as it comes, never collected.
    ///
    /// A payload the record format cannot represent (longer than the u32
    /// length prefix allows) is refused with a typed
    /// [`RecordError::Oversized`](dd_wire::RecordError::Oversized): its temp
    /// file is removed and nothing is renamed.  An I/O error leaves the temp
    /// file for the next [`CheckpointStore::open`] to sweep, as a crash
    /// would.  Every checkpoint this method accepts is readable by
    /// [`CheckpointStore::latest_valid`], which caps reads at the file's own
    /// size rather than any fixed constant.
    pub fn write_with(
        &mut self,
        covered_seq: u64,
        payload: impl FnOnce(&mut dyn Write) -> io::Result<()>,
    ) -> Result<PathBuf, StorageError> {
        self.write_capped(covered_seq, MAX_PAYLOAD_BYTES, payload)
    }

    fn write_capped(
        &mut self,
        covered_seq: u64,
        cap: usize,
        payload: impl FnOnce(&mut dyn Write) -> io::Result<()>,
    ) -> Result<PathBuf, StorageError> {
        let final_path = self.dir.join(checkpoint_name(covered_seq));
        let tmp_path = self
            .dir
            .join(format!("{}.tmp", checkpoint_name(covered_seq)));
        let io_error = |e| StorageError::io(format!("writing {}", tmp_path.display()), e);
        let file = File::create(&tmp_path)
            .map_err(|e| StorageError::io(format!("creating {}", tmp_path.display()), e))?;
        let mut tmp = TmpFile {
            file,
            budget: self.fail_after.take(),
        };
        tmp.write_all(&[0; RECORD_HEADER_BYTES]).map_err(io_error)?;
        let mut stream = RecordStream::new(&mut tmp, covered_seq, cap);
        let streamed = payload(&mut stream);
        let header = match stream.header() {
            Ok(header) => header,
            Err(oversized) => {
                drop(tmp);
                let _ = fs::remove_file(&tmp_path);
                return Err(StorageError::Record {
                    path: final_path,
                    source: oversized,
                });
            }
        };
        streamed.map_err(io_error)?;
        tmp.seek(SeekFrom::Start(0)).map_err(io_error)?;
        tmp.write_all(&header).map_err(io_error)?;
        tmp.file
            .sync_all()
            .map_err(|e| StorageError::io(format!("syncing {}", tmp_path.display()), e))?;
        self.fsyncs += 1;
        drop(tmp);
        fs::rename(&tmp_path, &final_path).map_err(|e| {
            StorageError::io(format!("renaming {} into place", tmp_path.display()), e)
        })?;
        sync_dir(&self.dir, &mut self.fsyncs)?;
        Ok(final_path)
    }

    /// Crash-test hook: the next write puts exactly `bytes` bytes into its
    /// temp file — placeholder header, payload and header back-patch,
    /// counted in the order they are written — and then fails with an I/O
    /// error, leaving the temp file behind as a crash at that byte would.
    pub fn fail_next_write_after(&mut self, bytes: u64) {
        self.fail_after = Some(bytes);
    }

    /// Fsyncs this store has issued since it was opened, the ones `open`
    /// made included.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Load the newest checkpoint that passes validation, returning its
    /// covered sequence and payload.  Damaged checkpoints (torn, bit-flipped,
    /// or mislabeled) are skipped, newest first.
    pub fn latest_valid(&self) -> Result<Option<(u64, Vec<u8>)>, StorageError> {
        for (seq, path) in self.list()?.into_iter().rev() {
            let mut bytes = fs::read(&path)
                .map_err(|e| StorageError::io(format!("reading {}", path.display()), e))?;
            // A checkpoint payload JSON-encodes the full database, graph,
            // and sample bundles, and can legitimately dwarf the 16 MiB
            // streaming cap; the only bound here is the file itself, which a
            // valid record never outruns — a corrupt length prefix reads as
            // truncation.  Valid only if the record agrees with its filename
            // and the file holds exactly one record.
            match split_record(&bytes) {
                Ok((record_seq, _, rest)) if record_seq == seq && rest.is_empty() => {
                    // Hand the payload over in the buffer it was read into.
                    bytes.drain(..RECORD_HEADER_BYTES);
                    return Ok(Some((seq, bytes)));
                }
                _ => continue,
            }
        }
        Ok(None)
    }

    /// Delete all but the newest `keep` checkpoints (always keeps at least
    /// one).
    pub fn prune(&mut self, keep: usize) -> Result<(), StorageError> {
        let all = self.list()?;
        let keep = keep.max(1);
        if all.len() <= keep {
            return Ok(());
        }
        let cut = all.len() - keep;
        for (_, path) in &all[..cut] {
            fs::remove_file(path)
                .map_err(|e| StorageError::io(format!("pruning {}", path.display()), e))?;
        }
        sync_dir(&self.dir, &mut self.fsyncs)
    }

    /// Covered sequences of all checkpoint files, ascending (unvalidated —
    /// callers use this to size WAL pruning, where counting a damaged file
    /// merely keeps more log around).
    ///
    /// This is what makes [`CheckpointStore::latest_valid`]'s damage fallback
    /// sound end to end: the WAL must be pruned below the *oldest retained*
    /// checkpoint, not the newest, so that falling back to an older
    /// checkpoint still finds every record needed to replay forward.
    pub fn covered_seqs(&self) -> Result<Vec<u64>, StorageError> {
        Ok(self.list()?.into_iter().map(|(seq, _)| seq).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dd-storage-ckpt-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_latest_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir).unwrap();
        assert!(store.latest_valid().unwrap().is_none());
        store.write(5, b"state at five").unwrap();
        store.write(9, b"state at nine").unwrap();
        assert_eq!(
            store.latest_valid().unwrap(),
            Some((9, b"state at nine".to_vec()))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_newest_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.write(3, b"good old").unwrap();
        let newest = store.write(7, b"doomed new").unwrap();
        // Bit-flip every byte of the newest checkpoint in turn; recovery must
        // always land on the older one.
        let intact = fs::read(&newest).unwrap();
        for byte in 0..intact.len() {
            let mut damaged = intact.clone();
            damaged[byte] ^= 0x10;
            fs::write(&newest, &damaged).unwrap();
            assert_eq!(
                store.latest_valid().unwrap(),
                Some((3, b"good old".to_vec())),
                "flip at byte {byte}"
            );
        }
        // Truncated-to-every-length newest also falls back.
        for cut in 0..intact.len() {
            fs::write(&newest, &intact[..cut]).unwrap();
            assert_eq!(
                store.latest_valid().unwrap(),
                Some((3, b"good old".to_vec())),
                "cut at {cut}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_past_the_streaming_cap_round_trip() {
        // Regression: writes used to succeed for any u32-sized payload while
        // `latest_valid` read with the 16 MiB streaming cap, so a large
        // checkpoint (realistic — it JSON-encodes the full engine state) was
        // written durably but permanently unreadable, turning into
        // "unrecoverable corruption" once the WAL was pruned beneath it.
        let dir = temp_dir("big");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let big = vec![0x5Cu8; dd_wire::MAX_RECORD_BYTES + 1];
        store.write(6, &big).unwrap();
        assert_eq!(store.latest_valid().unwrap(), Some((6, big)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_debris_is_swept_and_never_loaded() {
        let dir = temp_dir("tmp");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.write(2, b"real").unwrap();
        // Simulate a crash mid-write: a half-written temp file.
        fs::write(dir.join("ckpt-00000000000000000009.ckpt.tmp"), b"half").unwrap();
        let store2 = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store2.latest_valid().unwrap(), Some((2, b"real".to_vec())));
        assert_eq!(store2.covered_seqs().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_the_newest() {
        let dir = temp_dir("prune");
        let mut store = CheckpointStore::open(&dir).unwrap();
        for seq in [1u64, 4, 8, 12] {
            store.write(seq, format!("s{seq}").as_bytes()).unwrap();
        }
        store.prune(2).unwrap();
        assert_eq!(store.covered_seqs().unwrap().len(), 2);
        assert_eq!(store.latest_valid().unwrap(), Some((12, b"s12".to_vec())));
        // keep = 0 is clamped to 1.
        store.prune(0).unwrap();
        assert_eq!(store.covered_seqs().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// What the store's directory holds: checkpoint files and temp files.
    fn listing(dir: &std::path::Path) -> (Vec<String>, Vec<String>) {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names.into_iter().partition(|n| !n.ends_with(".tmp"))
    }

    /// A payload of `len` bytes that is not one repeated byte.
    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 253) as u8).collect()
    }

    const CHUNK: usize = dd_wire::json::CHUNK_BYTES;

    #[test]
    fn a_payload_streamed_in_many_chunks_round_trips() {
        let dir = temp_dir("stream");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let big = payload(5 * CHUNK + 17);
        store
            .write_with(11, |sink| {
                for chunk in big.chunks(CHUNK) {
                    sink.write_all(chunk)?;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(store.latest_valid().unwrap(), Some((11, big.clone())));
        let file = fs::read(dir.join(checkpoint_name(11))).unwrap();
        assert_eq!(file, dd_wire::encode_record(11, &big));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_oversized_payload_is_refused_typed_and_leaves_nothing() {
        let dir = temp_dir("oversized");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.write(2, b"previous").unwrap();
        let big = payload(3 * CHUNK);
        let err = store
            .write_capped(5, 2 * CHUNK, |sink| {
                for chunk in big.chunks(CHUNK) {
                    sink.write_all(chunk)?;
                }
                Ok(())
            })
            .unwrap_err();
        match err {
            StorageError::Record {
                source: dd_wire::RecordError::Oversized { declared, max },
                ..
            } => assert_eq!((declared, max), (3 * CHUNK, 2 * CHUNK)),
            other => panic!("expected a typed oversize refusal, got {other}"),
        }
        assert_eq!(listing(&dir), (vec![checkpoint_name(2)], Vec::new()));
        assert_eq!(
            store.latest_valid().unwrap(),
            Some((2, b"previous".to_vec()))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_write_cut_at_any_chunk_boundary_or_in_the_header_leaves_only_debris() {
        let dir = temp_dir("cut");
        let len = 3 * CHUNK + 100;
        let big = payload(len);
        let header = RECORD_HEADER_BYTES as u64;
        let end = header + len as u64;
        // Every chunk boundary and a byte either side, the end of the
        // payload, and every byte of the header written back over the
        // placeholder.
        let mut cuts = vec![0, 1, header - 1];
        for k in 0..=3 {
            let boundary = header + (k * CHUNK) as u64;
            cuts.extend([boundary - 1, boundary, boundary + 1]);
        }
        cuts.extend(end - 1..end + header);
        for cut in cuts {
            let _ = fs::remove_dir_all(&dir);
            let mut store = CheckpointStore::open(&dir).unwrap();
            store.write(3, b"previous").unwrap();
            store.fail_next_write_after(cut);
            let result = store.write_with(9, |sink| {
                for chunk in big.chunks(CHUNK) {
                    sink.write_all(chunk)?;
                }
                Ok(())
            });
            assert!(
                matches!(result, Err(StorageError::Io { .. })),
                "cut at {cut}"
            );
            let tmp = format!("{}.tmp", checkpoint_name(9));
            assert_eq!(
                listing(&dir),
                (vec![checkpoint_name(3)], vec![tmp.clone()]),
                "cut at {cut}"
            );
            assert_eq!(fs::metadata(dir.join(&tmp)).unwrap().len(), cut.min(end));
            assert_eq!(
                store.latest_valid().unwrap(),
                Some((3, b"previous".to_vec()))
            );
            let reopened = CheckpointStore::open(&dir).unwrap();
            assert_eq!(listing(&dir), (vec![checkpoint_name(3)], Vec::new()));
            assert_eq!(
                reopened.latest_valid().unwrap(),
                Some((3, b"previous".to_vec()))
            );
        }
        // Unarmed, the same write goes through.
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.write(9, &big).unwrap();
        assert_eq!(store.latest_valid().unwrap(), Some((9, big)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_syncs_the_parent_of_each_directory_it_creates() {
        let root = temp_dir("fsyncs");
        let dir = root.join("data").join("checkpoints");
        let mut store = CheckpointStore::open(&dir).unwrap();
        // `root`, `data` and `checkpoints` were created: their three parents.
        assert_eq!(store.fsyncs(), 3);
        store.write(1, b"one").unwrap();
        // The temp file and the directory.
        assert_eq!(store.fsyncs(), 5);
        store.write(2, b"two").unwrap();
        store.prune(1).unwrap();
        assert_eq!(store.fsyncs(), 8);
        assert_eq!(CheckpointStore::open(&dir).unwrap().fsyncs(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn trailing_garbage_invalidates_a_checkpoint() {
        let dir = temp_dir("garbage");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let path = store.write(4, b"clean").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"junk after the record");
        fs::write(&path, &bytes).unwrap();
        assert!(store.latest_valid().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
