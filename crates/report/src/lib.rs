//! # ftb-report
//!
//! Presentation utilities for the `ftb` bench harness: fixed-width ASCII
//! tables (the paper's Tables 1–4), CSV series (the data behind Figures
//! 3–5), per-group aggregation of per-site profiles (the paper groups 8
//! consecutive dynamic instructions in CG, 147 in LU, 208 in FFT for its
//! Figure 4), and terminal histogram rendering (Figure 3).

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod bits_table;
pub mod boundary_cmp;
pub mod grouping;
pub mod histo;
pub mod plot;
pub mod sections_table;
pub mod series;
pub mod table;

pub use bits_table::{bits_vuln_table, BitsVulnRow};
pub use boundary_cmp::{boundary_comparison, BoundaryMethodRow};
pub use grouping::{group_means, group_sums};
pub use histo::render_histogram;
pub use plot::LinePlot;
pub use sections_table::{sections_table, SectionRow};
pub use series::Series;
pub use table::Table;
