//! # ftb-stats
//!
//! Statistics substrate for the `ftb` fault-tolerance-boundary library.
//!
//! The fault-injection experiments in the paper report means and standard
//! deviations over repeated trials (Tables 2–4), histograms of per-site
//! prediction error (Figure 3), and confidence intervals for the
//! statistical-fault-injection baseline it compares against. This crate
//! provides those building blocks plus the weighted sampling primitive used
//! by the adaptive sampler of Section 3.4 (probability of picking a site
//! proportional to `1 / S_i`).
//!
//! Everything here is deterministic given a seed; no global RNG state is
//! used anywhere in the workspace.

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod ci;
pub mod descriptive;
pub mod histogram;
pub mod online;
pub mod sampling;

pub use ci::{proportion_ci_normal, proportion_ci_wilson, ConfidenceInterval};
pub use descriptive::{mean, sample_std, sample_variance, Summary};
pub use histogram::Histogram;
pub use online::OnlineStats;
pub use sampling::{sample_weighted_without_replacement, sample_without_replacement, seeded_rng};
