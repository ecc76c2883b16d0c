//! # dd-workloads — synthetic corpora, KBC systems, and tradeoff-study graphs
//!
//! The paper evaluates DeepDive on five real KBC deployments (News/TAC-KBP,
//! Adversarial, Genomics, Pharmacogenomics, Paleontology), on a synthetic
//! pairwise factor graph for the tradeoff study (Figure 5), on the Voting
//! program of Example 2.5 for the semantics/convergence study (Figures 12–13),
//! and on a chronological e-mail stream for the concept-drift study (Figure 17).
//! None of those corpora can be redistributed, so this crate generates synthetic
//! equivalents whose *structure* matches: documents with entity mentions and
//! indicative/neutral phrases drawn from a planted ground-truth KB, distant
//! supervision from an incomplete slice of that KB, and the same six rule
//! templates (A1, FE1, FE2, S1, S2, I1) applied as development-iteration
//! updates.
//!
//! * [`pairwise_graph`] — pairwise factor graphs with controllable size,
//!   sparsity, and amount-of-change (Figure 5's three axes).
//! * [`voting_graph`] — the Voting program under Linear/Ratio/Logical semantics.
//! * [`corpus`] — the synthetic document/mention/KB generator.
//! * [`KbcSystem`] — the five KBC systems and their rule-template updates.
//! * [`spam_stream`] — the concept-drift e-mail stream.

#![warn(unreachable_pub)]

pub mod corpus;
mod spam;
mod synthetic;
mod systems;
mod voting;

pub use spam::{spam_stream, SpamConfig, SpamStream};
pub use synthetic::{pairwise_graph, weight_perturbation, SyntheticConfig};
pub use systems::{KbcSystem, RuleTemplate, SystemKind};
pub use voting::voting_graph;
