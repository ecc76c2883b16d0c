//! # dd-inference — statistical inference and learning for DeepDive factor graphs
//!
//! This crate is the Rust counterpart of DimmWitted, the sampler the original
//! DeepDive delegates inference and learning to, *plus* the paper's novel
//! incremental-inference machinery (§3.2):
//!
//! * [`GibbsSampler`] — sequential Gibbs sampling over a [`dd_factorgraph::FactorGraph`],
//!   producing marginal probabilities for every query variable.  It is the
//!   one sampler: full inference, both learning chains and the sampling
//!   materialization all sweep on the calling thread, so every run is
//!   bit-deterministic per seed;
//! * `rng.rs` — splitmix-style seed mixing that fans one run seed out into
//!   decorrelated per-epoch RNG streams;
//! * [`enumerate_components`] — exact marginals of every query component
//!   small enough to enumerate (§3.2.1's strawman per component, App. B.1):
//!   every inference path answers those components this way and samples
//!   only the larger ones;
//! * [`Marginals`] — marginal vectors and distances between them;
//! * [`Learner`] — weight learning by contrastive stochastic gradient descent
//!   and full-batch gradient descent, with warmstart (Appendix B.3);
//! * [`StrawmanMaterialization`] — complete materialization of all possible worlds (§3.2.1);
//! * [`SampleMaterialization`] — sample (tuple-bundle) materialization with independent
//!   Metropolis–Hastings incremental inference (§3.2.2);
//! * [`VariationalMaterialization`] — the log-determinant/ℓ1 variational materialization of
//!   Algorithm 1 (§3.2.3).

#![warn(unreachable_pub)]

mod change;
mod exact;
mod gibbs;
mod learning;
mod marginals;
mod rng;
mod sampling;
mod strawman;
mod variational;

pub use change::DistributionChange;
pub use exact::enumerate_components;
pub use gibbs::{sigmoid, GibbsOptions, GibbsSampler, SampleRow, SampleSet, SweepRng};
pub use learning::{LearnOptions, Learner, LearningTrace};
pub use marginals::Marginals;
pub use sampling::{MhOutcome, SampleMaterialization};
pub use strawman::StrawmanMaterialization;
pub use variational::{VariationalMaterialization, VariationalOptions};
