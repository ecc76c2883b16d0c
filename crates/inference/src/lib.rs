//! # dd-inference — statistical inference and learning for DeepDive factor graphs
//!
//! This crate is the Rust counterpart of DimmWitted, the sampler the original
//! DeepDive delegates inference and learning to, *plus* the paper's novel
//! incremental-inference machinery (§3.2):
//!
//! * [`gibbs`] — sequential Gibbs sampling over a [`dd_factorgraph::FactorGraph`],
//!   producing marginal probabilities for every query variable.  It is the
//!   one sampler: full inference, both learning chains and the sampling
//!   materialization all sweep on the calling thread, so every run is
//!   bit-deterministic per seed;
//! * [`rng`] — splitmix-style seed mixing that fans one run seed out into
//!   decorrelated per-epoch RNG streams;
//! * [`marginals`] — marginal vectors and distances between them;
//! * [`learning`] — weight learning by contrastive stochastic gradient descent
//!   and full-batch gradient descent, with warmstart (Appendix B.3);
//! * [`strawman`] — complete materialization of all possible worlds (§3.2.1);
//! * [`sampling`] — sample (tuple-bundle) materialization with independent
//!   Metropolis–Hastings incremental inference (§3.2.2);
//! * [`variational`] — the log-determinant/ℓ1 variational materialization of
//!   Algorithm 1 (§3.2.3);
//! * [`convergence`] — empirical mixing-time measurement used for Figures 12/13.

pub mod change;
pub mod convergence;
pub mod gibbs;
pub mod learning;
pub mod marginals;
pub mod rng;
pub mod sampling;
pub mod strawman;
pub mod variational;

pub use change::{DistributionChange, ResolvedChange};
pub use convergence::{iterations_to_converge, ConvergenceReport};
pub use gibbs::{sigmoid, GibbsOptions, GibbsSampler, SampleRow, SampleSet, SweepRng};
pub use learning::{LearnOptions, LearnStrategy, Learner, LearningTrace};
pub use marginals::Marginals;
pub use rng::mix_seed;
pub use sampling::{MhOutcome, SampleMaterialization};
pub use strawman::StrawmanMaterialization;
pub use variational::{VariationalMaterialization, VariationalOptions};
