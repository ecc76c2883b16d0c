//! # dd-factorgraph — factor graphs with DeepDive's rule semantics
//!
//! DeepDive's grounding phase turns a declarative program plus a database into a
//! *factor graph*: every tuple of the user schema becomes a Boolean random
//! variable, and every grounding of an inference rule becomes a factor over the
//! variables it mentions (paper §2.4–2.5).  This crate holds that data structure
//! and everything the samplers need from it:
//!
//! * [`Variable`]s, which are query variables or (positive/negative) evidence;
//! * [`Weight`]s, shared ("tied") across factors as in rule `FE1` of the paper;
//! * [`Factor`]s of several kinds — conjunctions, implications, equality, and the
//!   per-rule *aggregate* factor that implements Equation 1 with the
//!   [`Semantics`] function `g` (Linear / Ratio / Logical, Figure 4);
//! * the [`FactorGraph`] itself with a variable→factor adjacency index, world
//!   evaluation, per-variable energy deltas (the quantity Gibbs sampling needs),
//!   and graph statistics;
//! * [`FlatGraph`] — the compiled, read-only representation the samplers run
//!   on: CSR adjacency, flat literal arenas, pre-resolved weight values, and
//!   single-pass energy deltas (see the [`flat`] module docs).

pub mod factor;
pub mod flat;
pub mod graph;
pub mod semantics;
pub mod variable;
pub mod weight;
pub mod world;

pub use factor::{Factor, FactorId, FactorKind, Lit};
pub use flat::FlatGraph;
pub use graph::{FactorGraph, FactorGraphBuilder, GraphStats};
pub use semantics::Semantics;
pub use variable::{RelName, VarId, Variable, VariableRole};
pub use weight::{Weight, WeightId};
pub use world::{World, WorldView};
