//! # dd-relstore — in-memory relational substrate for DeepDive
//!
//! The original DeepDive system stores every relation (documents, sentences,
//! candidate mentions, features, supervision labels, …) in Postgres/Greenplum and
//! performs grounding and incremental grounding with SQL queries.  This crate is
//! the Rust substitute for that substrate: a small, typed, in-memory relational
//! engine with
//!
//! * a catalog of named, schema-checked [`Table`]s collected in a [`Database`],
//!   each one sorted run of rows plus a small ordered overlay, so rows that
//!   arrive in order are appended,
//! * one slot-compiled, index-backed executor for rule-shaped (conjunctive)
//!   queries ([`plan`]) over persistent secondary hash indexes,
//! * one keyed row hash ([`hash`]) under those indexes and the grounder's
//!   tuple- and name-keyed catalogs,
//! * *counted* relations — every tuple carries a derivation count, which is the
//!   representation required by counting-based incremental view maintenance and
//!   by the DRed algorithm of Gupta, Mumick & Subrahmanian that DeepDive uses for
//!   incremental grounding (paper §3.1),
//! * [`delta::DeltaRelation`]s describing insertions/deletions, and
//! * [`view`] — materialized views over rule-shaped (conjunctive) queries with
//!   both full recomputation and incremental (delta-rule / DRed) maintenance.
//!
//! The crate is deliberately independent of the factor-graph and inference layers
//! so that it can be tested and benchmarked in isolation.

pub mod database;
pub mod delta;
pub mod error;
pub mod hash;
mod index;
pub mod plan;
pub mod schema;
pub mod table;
pub mod tuple;
pub mod value;
pub mod view;

pub use database::Database;
pub use delta::DeltaRelation;
pub use error::{RelError, RelResult};
pub use plan::{ExecStats, QueryPlan};
pub use schema::{Column, DataType, Schema};
pub use table::Table;
pub use tuple::Tuple;
pub use value::Value;
pub use view::{ConjunctiveQuery, MaterializedView, QueryAtom, Term};
