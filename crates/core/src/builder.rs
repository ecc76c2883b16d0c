//! Builder construction of a [`DeepDive`] engine.
//!
//! Replaces the old positional 4-argument constructor with a named-field
//! builder whose [`DeepDiveBuilder::build`] performs *all* misconfiguration
//! checks up front and reports them as typed [`EngineError`]s: the program
//! parses and validates, every pre-loaded table matches its declared schema,
//! and every `weight = udf(…)` clause resolves against the registry — so a
//! serving deployment fails at construction, not mid-pipeline.

use crate::config::EngineConfig;
use crate::durability::{self, DurabilityHandle};
use crate::engine::DeepDive;
use crate::error::EngineError;
use dd_grounding::{parse_program, standard_udfs, Program, Rule, UdfRegistry, WeightSpec};
use dd_relstore::{Database, RelError};
use dd_storage::{CheckpointStore, DurabilityConfig, StorageError, Wal};

/// Reject any rule whose tied weight references an unregistered UDF — an
/// unregistered name would silently collapse the rule to one shared weight.
/// Shared by [`DeepDiveBuilder::build`] (construction-time rules) and
/// [`crate::DeepDive::run_update`] (rules arriving via `KbcUpdate::add_rule`).
pub(crate) fn check_tied_udfs<'a>(
    rules: impl IntoIterator<Item = &'a Rule>,
    udfs: &UdfRegistry,
) -> Result<(), EngineError> {
    for rule in rules {
        if let WeightSpec::Tied { udf, .. } = &rule.weight {
            if udfs.get(udf).is_none() {
                return Err(EngineError::Udf {
                    rule: rule.name.clone(),
                    udf: udf.clone(),
                    available: udfs.names(),
                });
            }
        }
    }
    Ok(())
}

/// Builder for [`DeepDive`] — start with [`DeepDive::builder`].
///
/// Defaults: empty program, empty database, [`standard_udfs`], and
/// [`EngineConfig::default`].
#[derive(Debug)]
pub struct DeepDiveBuilder {
    program: Option<Program>,
    program_text: Option<String>,
    database: Database,
    udfs: UdfRegistry,
    config: EngineConfig,
    durability: Option<DurabilityConfig>,
}

impl Default for DeepDiveBuilder {
    fn default() -> Self {
        DeepDiveBuilder {
            program: None,
            program_text: None,
            database: Database::new(),
            udfs: standard_udfs(),
            config: EngineConfig::default(),
            durability: None,
        }
    }
}

impl DeepDiveBuilder {
    /// Use an already-constructed [`Program`].
    pub fn program(mut self, program: Program) -> Self {
        self.program = Some(program);
        self.program_text = None;
        self
    }

    /// Use a program written in the text syntax; parsed (and reported as
    /// [`EngineError::Parse`]) by [`DeepDiveBuilder::build`].
    pub fn program_text(mut self, text: impl Into<String>) -> Self {
        self.program_text = Some(text.into());
        self.program = None;
        self
    }

    /// The database of pre-loaded base relations.  Declared relations missing
    /// from it are created empty at build time.
    pub fn database(mut self, db: Database) -> Self {
        self.database = db;
        self
    }

    /// The UDF registry used for feature extraction and weight tying
    /// (defaults to [`standard_udfs`]).
    pub fn udfs(mut self, udfs: UdfRegistry) -> Self {
        self.udfs = udfs;
        self
    }

    /// The engine configuration (defaults to [`EngineConfig::default`]).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Persist the engine to `config.data_dir`: every state-changing call
    /// (`initial_run`, `run_update`, `refresh`, `materialize`) is written to a
    /// write-ahead log before executing, and [`DeepDive::checkpoint`] rolls
    /// the log into a compact checkpoint file.
    ///
    /// [`DeepDiveBuilder::build`] then *opens or recovers* the directory:
    ///
    /// * **Pristine directory** — the engine is built from the supplied
    ///   program/database and a baseline checkpoint of that initial state is
    ///   written immediately, so the directory is recoverable from its first
    ///   moment.
    /// * **Existing directory** — the newest valid checkpoint is loaded and
    ///   the WAL tail beyond it is replayed; the supplied program and
    ///   database are **ignored** in favor of the recovered state (config and
    ///   UDFs are taken from the builder — UDFs are function pointers and
    ///   cannot be persisted, so re-supply the same registry).
    ///
    /// Torn or bit-flipped WAL tails are detected via per-record CRCs and
    /// truncated away; damaged checkpoint files are skipped in favor of the
    /// previous one.
    pub fn durability(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Validate the whole configuration and construct the engine.
    ///
    /// Checks, in order: the program text parses ([`EngineError::Parse`]);
    /// every pre-loaded table agrees with its declaration's arity and column
    /// types ([`EngineError::Schema`]); every tied weight resolves to a
    /// registered UDF ([`EngineError::Udf`]); the program is structurally
    /// valid ([`EngineError::Grounding`], from the grounder itself).
    pub fn build(self) -> Result<DeepDive, EngineError> {
        let program = match (self.program, self.program_text) {
            (Some(p), _) => p,
            (None, Some(text)) => parse_program(&text)?,
            (None, None) => Program::new(),
        };
        // Structural program validation happens once, inside `Grounder::new`
        // (reached via `from_parts` below), and surfaces here as
        // `EngineError::Grounding`.

        // Program-vs-database schema agreement: a pre-loaded table whose shape
        // contradicts the declaration would otherwise surface as a confusing
        // join failure deep inside grounding.
        for decl in &program.relations {
            let Ok(table) = self.database.table(&decl.name) else {
                continue; // created empty by the grounder
            };
            let actual = table.schema();
            let expected = &decl.schema;
            let types_match = actual.arity() == expected.arity()
                && actual
                    .columns()
                    .iter()
                    .zip(expected.columns())
                    .all(|(a, e)| a.data_type == e.data_type);
            if !types_match {
                return Err(EngineError::Schema(RelError::SchemaMismatch {
                    table: decl.name.clone(),
                    detail: format!(
                        "declared as {:?}, loaded as {:?}",
                        expected
                            .columns()
                            .iter()
                            .map(|c| c.data_type)
                            .collect::<Vec<_>>(),
                        actual
                            .columns()
                            .iter()
                            .map(|c| c.data_type)
                            .collect::<Vec<_>>()
                    ),
                }));
            }
        }

        check_tied_udfs(&program.rules, &self.udfs)?;

        let Some(cfg) = self.durability else {
            return DeepDive::from_parts(program, self.database, self.udfs, self.config);
        };

        // Open (or create) the stores.  `Wal::open` repairs any torn tail and
        // hands back every surviving `(seq, payload)` record;
        // `CheckpointStore::open` sweeps leftover `.tmp` debris from a crash
        // mid-rotation.
        let checkpoints = CheckpointStore::open(cfg.data_dir.join("checkpoints"))?;
        let (wal, tail) = Wal::open(cfg.data_dir.join("wal"), cfg.fsync)?;
        let latest = checkpoints.latest_valid()?;
        let handle = DurabilityHandle {
            wal,
            checkpoints,
            keep_checkpoints: cfg.keep_checkpoints.max(1),
            checkpoint_every_records: cfg.checkpoint_every_records.map(|n| n.max(1)),
            checkpoint_every_bytes: cfg.checkpoint_every_bytes.map(|n| n.max(1)),
            records_since_checkpoint: 0,
            bytes_since_checkpoint: 0,
        };

        match latest {
            Some((covered, bytes)) => {
                // Recovery: newest valid checkpoint + WAL tail beyond it.
                let state = durability::decode_checkpoint(&bytes)?;
                drop(bytes);
                let mut engine = DeepDive::from_checkpoint(state, self.udfs, self.config)?;
                // `Wal::open` guarantees the tail is contiguous; the one gap
                // still possible is between the checkpoint and the tail's
                // first record — replaying across it would silently skip
                // operations, so refuse instead.
                let mut expected = covered + 1;
                for (seq, payload) in tail {
                    if seq <= covered {
                        continue;
                    }
                    if seq != expected {
                        return Err(EngineError::Storage(StorageError::Corrupt {
                            path: cfg.data_dir.clone(),
                            detail: format!(
                                "checkpoint covers sequence {covered} but the WAL resumes \
                                 at {seq}; records in between have been lost"
                            ),
                        }));
                    }
                    expected += 1;
                    let op = durability::decode_wal_op(&payload)?;
                    if let Err(err) = engine.apply_wal_op(op) {
                        engine.record_replay_error(seq, &err);
                    }
                }
                engine.attach_durability(handle);
                Ok(engine)
            }
            None => {
                // No usable checkpoint.  A WAL that does not reach back to
                // sequence 1 means history before it was pruned after a
                // checkpoint that is now gone — nothing to rebuild from.
                if let Some((first_seq, _)) = tail.first() {
                    if *first_seq > 1 {
                        return Err(EngineError::Storage(StorageError::Corrupt {
                            path: cfg.data_dir.clone(),
                            detail: format!(
                                "no valid checkpoint, and the WAL starts at sequence \
                                 {first_seq}; the operations a checkpoint covered have \
                                 been pruned"
                            ),
                        }));
                    }
                }
                // Pristine directory (or a complete WAL from sequence 1):
                // build from the supplied inputs, replay whatever the log
                // holds, then write the baseline checkpoint.
                let mut engine =
                    DeepDive::from_parts(program, self.database, self.udfs, self.config)?;
                for (seq, payload) in tail {
                    let op = durability::decode_wal_op(&payload)?;
                    if let Err(err) = engine.apply_wal_op(op) {
                        engine.record_replay_error(seq, &err);
                    }
                }
                engine.attach_durability(handle);
                engine.checkpoint()?;
                Ok(engine)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use dd_relstore::{tuple, DataType, Schema};

    const PROGRAM: &str = r#"
        relation Claim(id: int, text: text) base.
        relation Fact(id: int) variable.
        rule F feature: Fact(id) :- Claim(id, text) weight = phrase(text, text, text).
    "#;

    #[test]
    fn build_with_defaults_succeeds() {
        let dd = DeepDive::builder().build().expect("empty engine builds");
        assert_eq!(dd.snapshot().epoch(), 0);
    }

    #[test]
    fn parse_errors_are_typed() {
        let err = DeepDive::builder()
            .program_text("relatio Claim(id: int) base.")
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::Parse(_)));
    }

    #[test]
    fn invalid_programs_are_grounding_errors() {
        let err = DeepDive::builder()
            .program_text("rule R candidate: A(x) :- B(x).")
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::Grounding(_)));
    }

    #[test]
    fn schema_conflicts_are_caught_at_build_time() {
        let mut db = Database::new();
        // Claim loaded with the wrong arity/types.
        db.create_table("Claim", Schema::of(&[("id", DataType::Text)]))
            .unwrap();
        db.insert("Claim", tuple!["oops"]).unwrap();
        let err = DeepDive::builder()
            .program_text(PROGRAM)
            .database(db)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Schema(RelError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn missing_udfs_are_caught_at_build_time() {
        let err = DeepDive::builder()
            .program_text(PROGRAM)
            .udfs(UdfRegistry::new())
            .build()
            .unwrap_err();
        match err {
            EngineError::Udf {
                rule,
                udf,
                available,
            } => {
                assert_eq!(rule, "F");
                assert_eq!(udf, "phrase");
                assert!(available.is_empty());
            }
            other => panic!("expected Udf error, got {other:?}"),
        }
    }

    #[test]
    fn well_formed_configuration_builds() {
        let mut db = Database::new();
        db.create_table(
            "Claim",
            Schema::of(&[("id", DataType::Int), ("text", DataType::Text)]),
        )
        .unwrap();
        db.insert("Claim", tuple![1i64, "alpha"]).unwrap();
        let dd = DeepDive::builder()
            .program_text(PROGRAM)
            .database(db)
            .config(EngineConfig::fast())
            .build()
            .expect("builds");
        assert_eq!(dd.config().seed, EngineConfig::fast().seed);
    }
}
