//! Atomically-rotated checkpoint files.
//!
//! A checkpoint is one record (`dd_wire::record`) in a file named
//! `ckpt-<covered sequence, zero-padded>.ckpt`, where the covered sequence is
//! the last WAL record whose effects are folded into the payload.  Recovery
//! loads the newest *valid* checkpoint and replays WAL records past it.
//!
//! Writes use the classic atomic-replace dance:
//!
//! 1. write the record to `ckpt-….ckpt.tmp`,
//! 2. `fsync` the temp file,
//! 3. `rename` it to its final name,
//! 4. `fsync` the directory.
//!
//! A crash anywhere in that sequence leaves either no new file or a complete
//! one; a leftover `.tmp` is swept on [`CheckpointStore::open`].  The record
//! CRC additionally guards against bit rot: [`CheckpointStore::latest_valid`]
//! walks checkpoints newest-first and skips any that fail validation, so one
//! damaged checkpoint degrades to the previous one instead of to data loss.

use crate::error::StorageError;
use dd_wire::record::{
    split_record, write_record, RecordError, MAX_PAYLOAD_BYTES, RECORD_HEADER_BYTES,
};
use std::fs::{self, File};
use std::path::{Path, PathBuf};

/// The checkpoint directory: atomic writes, validated reads, pruning.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
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

fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StorageError::io(format!("fsyncing dir {}", dir.display()), e))
}

impl CheckpointStore {
    /// Open (or create) the store in `dir`, sweeping any `.tmp` debris a
    /// crashed writer left behind.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, StorageError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| {
            StorageError::io(format!("creating checkpoint dir {}", dir.display()), e)
        })?;
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
        Ok(CheckpointStore { dir })
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

    /// Atomically write the checkpoint covering WAL records `..= covered_seq`.
    ///
    /// Payloads the record format cannot represent (longer than the u32
    /// length prefix allows) are refused with a typed error before anything
    /// is written; every checkpoint this method accepts is readable by
    /// [`CheckpointStore::latest_valid`], which caps reads at the file's own
    /// size rather than any fixed constant.
    pub fn write(&mut self, covered_seq: u64, payload: &[u8]) -> Result<PathBuf, StorageError> {
        let final_path = self.dir.join(checkpoint_name(covered_seq));
        if payload.len() > MAX_PAYLOAD_BYTES {
            return Err(StorageError::Record {
                path: final_path,
                source: RecordError::Oversized {
                    declared: payload.len(),
                    max: MAX_PAYLOAD_BYTES,
                },
            });
        }
        let tmp_path = self
            .dir
            .join(format!("{}.tmp", checkpoint_name(covered_seq)));
        let mut tmp = File::create(&tmp_path)
            .map_err(|e| StorageError::io(format!("creating {}", tmp_path.display()), e))?;
        write_record(&mut tmp, covered_seq, payload)
            .map_err(|e| StorageError::io(format!("writing {}", tmp_path.display()), e))?;
        tmp.sync_all()
            .map_err(|e| StorageError::io(format!("syncing {}", tmp_path.display()), e))?;
        drop(tmp);
        fs::rename(&tmp_path, &final_path).map_err(|e| {
            StorageError::io(format!("renaming {} into place", tmp_path.display()), e)
        })?;
        sync_dir(&self.dir)?;
        Ok(final_path)
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
        sync_dir(&self.dir)
    }

    /// Paths of all checkpoint files, sorted by covered sequence (test aid).
    pub fn paths(&self) -> Result<Vec<PathBuf>, StorageError> {
        Ok(self.list()?.into_iter().map(|(_, p)| p).collect())
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
        assert_eq!(store2.paths().unwrap().len(), 1);
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
        assert_eq!(store.paths().unwrap().len(), 2);
        assert_eq!(store.latest_valid().unwrap(), Some((12, b"s12".to_vec())));
        // keep = 0 is clamped to 1.
        store.prune(0).unwrap();
        assert_eq!(store.paths().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
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
