//! # dd-grounding — DeepDive's declarative rule language and grounding
//!
//! DeepDive programs are sets of datalog-style rules over a relational schema
//! (paper §2.2): *candidate mapping* rules populate derived relations,
//! *feature extraction* rules attach tied-weight factors to candidate tuples,
//! *supervision* rules label variables as positive/negative evidence (distant
//! supervision), and *inference* rules add correlations between variables.
//! Grounding evaluates those rules against the database and emits a factor graph
//! in which every tuple of a variable relation is a Boolean random variable and
//! every rule grounding is a factor (§2.4–2.5, Figure 3).
//!
//! This crate contains:
//!
//! * [`ast`] — the rule AST ([`Rule`], [`RuleKind`], [`WeightSpec`]);
//! * [`program`] — relation declarations, whole programs, stratification and the
//!   hierarchical-program check of Appendix A;
//! * [`udf`] — the user-defined-function registry used for feature extraction
//!   and weight tying (`weight = phrase(m1, m2, sent)`);
//! * [`parser`] — a small text syntax for writing programs in examples/tests;
//! * [`grounder`] — full grounding: rules + database → factor graph, one
//!   binding at a time through the one path every grounding takes;
//! * [`incremental`] — incremental grounding: base-relation deltas and/or new
//!   rules → cascaded view deltas (DRed, §3.1) → retractions and new
//!   bindings applied in place, reported as the change (ΔV, ΔF) they made to
//!   the factor graph ([`IncrementalGrounding`]).

pub mod ast;
mod catalog;
pub mod error;
pub mod grounder;
pub mod incremental;
pub mod parser;
pub mod program;
pub mod udf;

pub use ast::{Rule, RuleAtom, RuleKind, WeightSpec};
pub use error::{GroundingError, ProgramError};
pub use grounder::{CatalogOp, Grounder, GrounderState, GrounderStateRef, GroundingResult};
pub use incremental::{IncrementalGrounding, KbcUpdate};
pub use parser::{parse_program, parse_rule, ParseError};
pub use program::{Program, RelationDecl, RelationRole};
pub use udf::{standard_udfs, UdfRegistry};
