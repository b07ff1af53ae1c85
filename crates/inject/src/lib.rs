//! # ftb-inject
//!
//! The fault-injection engine: runs single-bit-flip experiments against an
//! instrumented kernel and classifies their outcomes into the paper's
//! three categories (§2.1):
//!
//! * **Masked** — the output is within the domain tolerance `T` of the
//!   golden output (not necessarily bitwise identical);
//! * **SDC** — the run terminates normally but the output violates `T`;
//! * **Crash** — the run dies with a symptom: a non-finite value (the
//!   NaN-exception model) or an iteration blow-up (the hang model for
//!   iterative solvers).
//!
//! Campaign styles:
//!
//! * [`Injector::exhaustive`] — every bit of every dynamic instruction
//!   (the ground truth of the paper's §4.1, Rayon-parallel over sites);
//! * [`Injector::run_many`] — an arbitrary experiment list in parallel
//!   (used by the boundary samplers);
//! * [`monte_carlo()`] — the uniform statistical-fault-injection baseline
//!   (Leveugle et al., reference 18 of the paper) that reports an overall SDC
//!   ratio with a binomial confidence interval;
//! * [`ChunkedCampaign`] — any fixed fault plan run chunk-at-a-time with
//!   a crash-safe streaming [`ledger`], live [`obs`] metrics, and
//!   kill-and-resume recovery.
//!
//! Every campaign style above is an outcome campaign and runs through
//! [`Injector::run_many`]: classification needs only the final output,
//! so no faulty run is compared against the golden trace. Propagation
//! data (for Algorithm 1 and composition) comes from
//! [`Injector::extract_propagation`], which compares one faulty run
//! against a shared read-only golden buffer while it executes
//! ([`ftb_trace::Tracer::comparing`]). [`Injector::run_one_traced`] —
//! record the full faulty trace, then compare — is kept as the
//! reference both paths must reproduce bit for bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod batch;
pub mod campaign;
pub mod characterize;
pub mod experiment;
pub mod ledger;
pub mod monte_carlo;
pub mod obs;
pub mod outcome;
pub mod runner;
pub mod sections;
pub mod snapshot;

pub use campaign::{ExhaustiveResult, ExtractionSummary, Injector};
pub use characterize::{
    characterize, site_tvd, CharacterizeReport, PairDelta, SiteHistogram, ThreadRun,
};
pub use experiment::Experiment;
pub use ledger::{
    read_ledger, BatchBinding, BitPruneBinding, CampaignBinding, LedgerError, LedgerHeader,
    LedgerWriter, SnapshotBinding,
};
pub use monte_carlo::{monte_carlo, MonteCarloEstimate};
pub use obs::{CampaignMetrics, MetricsSnapshot, ProgressReporter};
pub use outcome::{Classifier, CrashKind, Outcome};
pub use runner::{
    exhaustive_plan, monte_carlo_plan, pruned_exhaustive_plan, ChunkedCampaign, DEFAULT_CHUNK,
};
pub use sections::{
    create_section_ledger, read_section_ledger, run_section_campaign, SectionCampaign,
    SectionCampaignConfig, SectionLedgerRecovery, SectionRecord, SectionSummary, SlotAmp,
    SECTIONS_FORMAT,
};
pub use snapshot::{schedule_snapshot_major, Snapshot, SnapshotStore, DEFAULT_MAX_SNAPSHOTS};
