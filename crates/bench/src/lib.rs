//! # ftb-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see `src/bin/`), built on a shared benchmark suite defined
//! here, plus Criterion performance benches (see `benches/`).
//!
//! | Artifact  | Binary              | Paper content |
//! |-----------|---------------------|---------------|
//! | Table 1   | `table1`            | golden vs boundary-approximated SDC ratio (exhaustive) |
//! | Figure 3  | `figure3`           | ΔSDC histograms of the exhaustive boundary |
//! | Figure 4  | `figure4`           | per-group true/predicted SDC + potential impact + adaptive row |
//! | Table 2   | `table2`            | precision/recall/uncertainty at 1% sampling, 10 trials |
//! | Figure 5  | `figure5`           | precision/recall vs sample size, filter on/off |
//! | Table 3   | `table3`            | adaptive sampling size + predicted SDC, 10 trials |
//! | Table 4   | `table4`            | CG scaling study (two grid sizes, 1000 samples) |
//! | Figure 1  | `figure1`           | coverage: Monte-Carlo campaign vs boundary |
//! | Figure 2  | `figure2`           | one masked experiment's propagation curve |
//! | §5        | `monotonicity`      | stencil/matvec error-growth linearity |
//! | §5        | `bench_suite`       | extraction-path throughput (`BENCH_ppopp21.json`) |
//! | CI        | `bench_ratchet`     | gate table on every report + fresh-vs-committed perf delta |
//! |           | `calibrate`         | tolerance/size calibration helper |

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod flags;
pub mod gates;
pub mod perf;
pub mod ratchet;
pub mod suite;

pub use cache::{exhaustive_cached, sampled_truth_cached};
pub use gates::{failures, Failure, Gate, GATES};
pub use perf::{perf_suite, run_suite, BenchDoc, PerfReport, BENCH_SCHEMA};
pub use ratchet::{compare, extract_metrics, markdown_table, MetricDelta};
pub use suite::{paper_suite, Benchmark, Scale};
