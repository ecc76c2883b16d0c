//! The engine's typed error surface.
//!
//! Every fallible public API of the `deepdive` crate returns [`EngineError`].
//! Each variant carries the source payload of the layer that failed, so a
//! serving deployment can branch on the failure class — reject a bad program at
//! build time, surface a schema conflict to the data loader, or report a failed
//! WAL append — without ever parsing an error string.  An incremental round
//! the stored materialization cannot serve is not an error: it falls back to
//! full Gibbs sampling and publishes (§3.3).

use dd_grounding::{GroundingError, ParseError};
use dd_relstore::RelError;
use dd_storage::StorageError;
use std::fmt;

/// Any failure raised by the DeepDive engine.
#[derive(Debug)]
pub enum EngineError {
    /// The program text handed to the builder did not parse.
    Parse(ParseError),
    /// A pre-loaded table's schema conflicts with the program's declaration of
    /// the same relation, or a relational operation failed.
    Schema(RelError),
    /// Program validation or rule evaluation failed in the grounding layer.
    Grounding(GroundingError),
    /// A rule ties its weight through a UDF that is not registered.
    Udf {
        /// The rule whose `weight = udf(…)` clause references the UDF.
        rule: String,
        /// The missing UDF name.
        udf: String,
        /// The names that *are* registered, for the error message.
        available: Vec<String>,
    },
    /// An internal invariant of the inference pipeline was violated (e.g. the
    /// sampler returned a marginal vector that does not cover the graph).
    Inference {
        /// The pipeline stage that failed.
        stage: &'static str,
        detail: String,
    },
    /// The durability layer failed: WAL append, checkpoint write, recovery
    /// scan, or state (de)serialization.  Carries the typed
    /// [`dd_storage::StorageError`] source chain.  Raised also when a
    /// durability-only operation ([`crate::DeepDive::checkpoint`]) is called
    /// on an engine built without
    /// [`crate::DeepDiveBuilder::durability`].
    Storage(StorageError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "program parse failed: {e}"),
            EngineError::Schema(e) => write!(f, "schema conflict: {e}"),
            EngineError::Grounding(e) => write!(f, "grounding failed: {e}"),
            EngineError::Udf {
                rule,
                udf,
                available,
            } => write!(
                f,
                "rule `{rule}` ties its weight through unregistered UDF `{udf}` (registered: {})",
                if available.is_empty() {
                    "none".to_string()
                } else {
                    available.join(", ")
                }
            ),
            EngineError::Inference { stage, detail } => {
                write!(f, "inference invariant violated during {stage}: {detail}")
            }
            EngineError::Storage(e) => write!(f, "durability failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Schema(e) => Some(e),
            EngineError::Grounding(e) => Some(e),
            EngineError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<RelError> for EngineError {
    fn from(e: RelError) -> Self {
        EngineError::Schema(e)
    }
}

impl From<GroundingError> for EngineError {
    fn from(e: GroundingError) -> Self {
        EngineError::Grounding(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_grounding::ProgramError;

    #[test]
    fn conversion_chain_preserves_the_source() {
        use std::error::Error;
        let inner = GroundingError::Program(ProgramError::CyclicCandidateRules);
        let e: EngineError = inner.into();
        let source = e.source().expect("grounding source");
        assert!(source.to_string().contains("cyclic"));
        // ...and the grounding error itself chains down to the program error.
        assert!(source.source().is_some());
    }

    #[test]
    fn display_is_actionable() {
        let e = EngineError::Udf {
            rule: "FE1".into(),
            udf: "phrse".into(),
            available: vec!["phrase".into(), "identity".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("FE1") && msg.contains("phrse") && msg.contains("phrase"));
    }
}
