//! # ftb-core
//!
//! The fault tolerance boundary — the primary contribution of the PPoPP'21
//! paper *"Understanding a Program's Resiliency Through Error
//! Propagation"* (Li, Menon, Livnat, Bremer, Mohror, Pascucci).
//!
//! A program's **fault tolerance boundary** assigns every dynamic
//! instruction `i` a threshold `Δe_i`: the largest error that can be
//! injected at `i` such that any error `ε ≤ Δe_i` still yields an
//! acceptable program output (paper §3.2). Knowing the boundary gives a
//! *full-resolution* resiliency profile — the predicted SDC ratio of
//! every single dynamic instruction — without an exhaustive
//! `sites × bits` fault-injection campaign.
//!
//! The pipeline, crate by crate:
//!
//! 1. `ftb-trace` + `ftb-kernels` record a golden run of an instrumented
//!    kernel;
//! 2. `ftb-inject` runs a *small* set of fault-injection experiments;
//! 3. this crate infers the boundary from the **error propagation data of
//!    the masked experiments** (Algorithm 1, [`infer`]): if an error
//!    injected at `i` propagated a perturbation `Δe` to instruction `k`
//!    and the run was still acceptable, then `k` tolerates at least `Δe`;
//! 4. [`predict`] turns the boundary into per-site outcome predictions —
//!    for any untested `(site, bit)` the corrupted value is computable
//!    from the golden trace alone, so prediction needs **zero** further
//!    executions;
//! 5. [`metrics`] scores predictions (precision/recall against ground
//!    truth, and the self-verifying *uncertainty* of §3.6 that needs no
//!    ground truth at all);
//! 6. [`adaptive`] closes the loop with the §3.4 progressive sampler that
//!    biases new experiments toward under-informed sites and prunes
//!    already-predicted-masked candidates from the sample space.
//!
//! ## Quickstart
//!
//! ```
//! use ftb_core::prelude::*;
//! use ftb_kernels::{MatvecConfig, MatvecKernel};
//!
//! let kernel = MatvecKernel::new(MatvecConfig { n: 4, ..MatvecConfig::small() });
//! let analysis = Analysis::new(&kernel, Classifier::new(1e-6));
//!
//! // sample 20% of sites uniformly, infer the boundary with the filter on
//! let samples = analysis.sample_uniform(0.20, /*seed=*/ 7);
//! let inference = analysis.infer(&samples, FilterMode::PerSite);
//!
//! // predict every experiment in the space and self-verify
//! let uncertainty = analysis.uncertainty(&inference.boundary, &samples);
//! assert!(uncertainty > 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod absint;
pub mod adaptive;
pub mod analysis;
pub mod boundary;
pub mod compose;
pub mod infer;
pub mod metrics;
pub mod pilot;
pub mod predict;
pub mod protection;
pub mod region;
pub mod sample;
pub mod staticbound;

pub use absint::{
    affine_bound, affine_forward, certify_bits, forward_pass, influence_slice, safe_bit_masks,
    AbsIntError, AffineBound, AffineConfig, BitClass, BitMasks, Certification, CertifyConfig,
    CertifyError, Domain, ForwardConfig, ForwardIntervals, InfluenceSlice, Interval, MaskSource,
};
pub use adaptive::{
    adaptive_boundary, adaptive_boundary_with_prior, AdaptiveConfig, AdaptiveResult, AdaptiveState,
    RoundStats,
};
pub use analysis::Analysis;
pub use boundary::{golden_boundary, Boundary};
pub use compose::{
    compose_analysis, compose_thresholds, plan_incremental, ComposeConfig, ComposeError,
    ComposeParams, ComposeResult, Composed, IncrementalPlan, SectionDag,
};
pub use infer::{infer_boundary, FilterMode, Inference};
pub use metrics::{
    conservative_fraction, delta_sdc, min_sdc_per_site, BitsScorecard, BoundaryEval, SdcProfile,
};
pub use pilot::{pilot_estimate, PilotConfig, PilotEstimate};
pub use predict::{crash_known_set, PredictedOutcome, Predictor};
pub use protection::ProtectionPlan;
pub use region::{by_region, by_static_instruction, RegionError, RegionProfile, StaticProfile};
pub use sample::SampleSet;
pub use staticbound::{
    static_bound, validate_static, StaticBound, StaticBoundConfig, StaticBoundError,
    StaticValidation,
};

/// Convenient single-import surface.
pub mod prelude {
    pub use crate::absint::{
        affine_bound, affine_forward, certify_bits, forward_pass, safe_bit_masks, AffineBound,
        AffineConfig, BitClass, BitMasks, Certification, CertifyConfig, Domain, ForwardConfig,
        ForwardIntervals, Interval, MaskSource,
    };
    pub use crate::adaptive::{
        adaptive_boundary, adaptive_boundary_with_prior, AdaptiveConfig, AdaptiveResult,
        AdaptiveState,
    };
    pub use crate::analysis::Analysis;
    pub use crate::boundary::{golden_boundary, Boundary};
    pub use crate::compose::{
        compose_analysis, compose_thresholds, ComposeConfig, ComposeError, ComposeParams,
        ComposeResult, SectionDag,
    };
    pub use crate::infer::{infer_boundary, FilterMode, Inference};
    pub use crate::metrics::{
        conservative_fraction, delta_sdc, min_sdc_per_site, BitsScorecard, BoundaryEval, SdcProfile,
    };
    pub use crate::pilot::{pilot_estimate, PilotConfig, PilotEstimate};
    pub use crate::predict::{crash_known_set, PredictedOutcome, Predictor};
    pub use crate::protection::ProtectionPlan;
    pub use crate::region::{by_region, by_static_instruction, RegionError};
    pub use crate::sample::SampleSet;
    pub use crate::staticbound::{
        static_bound, validate_static, StaticBound, StaticBoundConfig, StaticValidation,
    };
    pub use ftb_inject::{Classifier, Injector, Outcome};
}
