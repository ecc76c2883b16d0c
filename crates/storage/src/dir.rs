//! Directory durability shared by both stores: fsyncing a directory, and
//! creating one so that a crash cannot lose it.  Every sync is counted into
//! the caller's fsync counter.

use crate::error::StorageError;
use std::fs::{self, File};
use std::path::Path;

/// Fsync `dir` so the creates, renames and unlinks inside it are durable.
pub(crate) fn sync_dir(dir: &Path, fsyncs: &mut u64) -> Result<(), StorageError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| StorageError::io(format!("fsyncing dir {}", dir.display()), e))?;
    *fsyncs += 1;
    Ok(())
}

/// Create `dir` and its missing ancestors, then fsync the parent of each
/// directory this call created, outermost first: a new directory's name is
/// only durable once its parent is synced, and the records later
/// acknowledged inside it are only as durable as that name.
pub(crate) fn create_dir_durably(
    dir: &Path,
    what: &str,
    fsyncs: &mut u64,
) -> Result<(), StorageError> {
    let mut created = Vec::new();
    let mut at = Some(dir);
    while let Some(path) = at.filter(|p| !p.as_os_str().is_empty() && !p.exists()) {
        created.push(path);
        at = path.parent();
    }
    fs::create_dir_all(dir)
        .map_err(|e| StorageError::io(format!("creating {what} dir {}", dir.display()), e))?;
    for path in created.iter().rev() {
        let parent = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        sync_dir(parent, fsyncs)?;
    }
    Ok(())
}
