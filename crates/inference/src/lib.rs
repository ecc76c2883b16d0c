//! # dd-inference — statistical inference and learning for DeepDive factor graphs
//!
//! This crate is the Rust counterpart of DimmWitted, the sampler the original
//! DeepDive delegates inference and learning to, *plus* the paper's novel
//! incremental-inference machinery (§3.2):
//!
//! * [`gibbs`] — sequential Gibbs sampling over a [`dd_factorgraph::FactorGraph`],
//!   producing marginal probabilities for every query variable;
//! * [`parallel`] — a lock-free, multi-threaded (hogwild-style) Gibbs sweep, the
//!   way DimmWitted actually runs on many cores, dispatched onto a persistent
//!   worker pool ([`rayon::ThreadPool`]) with per-chunk RNG streams and
//!   worker-local marginal counting;
//! * [`rng`] — splitmix-style seed mixing that fans one run seed out into
//!   decorrelated per-chunk RNG streams;
//! * [`marginals`] — marginal vectors, distances between them, and probability
//!   calibration;
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
pub mod parallel;
pub mod rng;
pub mod sampling;
pub mod strawman;
pub mod variational;

pub use change::{DistributionChange, ResolvedChange};
pub use convergence::{iterations_to_converge, ConvergenceReport};
pub use gibbs::{sigmoid, GibbsOptions, GibbsSampler, SampleRow, SampleSet, SweepRng};
pub use learning::{LearnOptions, LearnStrategy, Learner, LearningTrace};
pub use marginals::{calibration_buckets, CalibrationBucket, Marginals};
pub use parallel::ParallelGibbs;
pub use rng::mix_seed;
pub use sampling::{MhOutcome, SampleMaterialization};
pub use strawman::StrawmanMaterialization;
pub use variational::{VariationalMaterialization, VariationalOptions};
