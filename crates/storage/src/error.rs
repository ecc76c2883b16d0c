//! The one error type every storage operation returns.

use dd_wire::RecordError;
use std::io;
use std::path::PathBuf;

/// Why a storage operation failed.
///
/// Torn and bit-flipped WAL *tails* are not errors — [`crate::Wal::open`]
/// truncates them and reports what it kept.  `StorageError` is for conditions
/// the caller must handle: the environment failing (I/O), payloads that
/// cannot be encoded/decoded, or structural damage that truncation cannot
/// repair (for example a segment whose first record contradicts its
/// filename).
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure, with what we were doing at the time.
    Io { context: String, source: io::Error },
    /// A record-level failure in a place where damage is not recoverable by
    /// tail truncation (e.g. while *writing*).
    Record { path: PathBuf, source: RecordError },
    /// Engine state could not be encoded to or decoded from a payload.
    Codec { context: String, detail: String },
    /// Structural damage truncation cannot repair.
    Corrupt { path: PathBuf, detail: String },
    /// A durability operation was requested on an engine built without
    /// [`crate::DurabilityConfig`].
    NotConfigured,
}

impl StorageError {
    /// Convenience constructor for the I/O case.
    pub(crate) fn io(context: impl Into<String>, source: io::Error) -> Self {
        StorageError::Io {
            context: context.into(),
            source,
        }
    }

    /// Convenience constructor for the codec case.
    pub fn codec(context: impl Into<String>, detail: impl Into<String>) -> Self {
        StorageError::Codec {
            context: context.into(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { context, source } => {
                write!(f, "storage I/O failure while {context}: {source}")
            }
            StorageError::Record { path, source } => {
                write!(f, "record failure in {}: {source}", path.display())
            }
            StorageError::Codec { context, detail } => {
                write!(f, "storage codec failure while {context}: {detail}")
            }
            StorageError::Corrupt { path, detail } => {
                write!(
                    f,
                    "unrecoverable corruption in {}: {detail}",
                    path.display()
                )
            }
            StorageError::NotConfigured => write!(
                f,
                "durability is not configured; build the engine with .durability(DurabilityConfig)"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            StorageError::Record { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chains() {
        let err = StorageError::io("appending", io::Error::other("disk gone"));
        assert!(err.to_string().contains("appending"));
        assert!(err.to_string().contains("disk gone"));
        assert!(std::error::Error::source(&err).is_some());

        let err = StorageError::Record {
            path: PathBuf::from("/tmp/wal-1.log"),
            source: RecordError::Corrupt {
                stored: 1,
                computed: 2,
            },
        };
        assert!(err.to_string().contains("wal-1.log"));
        assert!(std::error::Error::source(&err).is_some());

        let err = StorageError::codec("encoding snapshot", "non-finite weight");
        assert!(err.to_string().contains("non-finite weight"));
        assert!(std::error::Error::source(&err).is_none());

        assert!(StorageError::NotConfigured
            .to_string()
            .contains("durability"));
        let err = StorageError::Corrupt {
            path: PathBuf::from("x"),
            detail: "bad".into(),
        };
        assert!(err.to_string().contains("unrecoverable"));
    }
}
