//! Calibration of the static boundary against injection ground truth —
//! the paper's §3.6 metrics applied to the zero-injection predictor.
//!
//! The acceptance story of the static analysis is *conservatism*: every
//! experiment it predicts masked must truly be masked (precision → 1),
//! while recall measures how much of the masked space the analytical
//! bound manages to certify. The §3.6 uncertainty — precision restricted
//! to a pinned-seed sample — is what a user can compute without an
//! exhaustive campaign, exactly as for the inferred boundary.

use crate::metrics::{min_sdc_per_site, BoundaryEval};
use crate::predict::Predictor;
use crate::sample::SampleSet;
use ftb_inject::ExhaustiveResult;
use ftb_trace::GoldenRun;
use serde::{Deserialize, Serialize};

/// How a static boundary scores against injection ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticValidation {
    /// Precision/recall against the full exhaustive campaign.
    pub eval: BoundaryEval,
    /// The §3.6 uncertainty: precision over the sampled experiments only.
    pub uncertainty: f64,
    /// Fraction of sites with a known SDC outcome whose static threshold
    /// sits strictly below the site's *minimum SDC-causing injected
    /// error* — the per-site conservativeness rate. (The empirical
    /// golden threshold is the wrong envelope for this check: flip
    /// errors are discrete, so a sound analytical bound may exceed the
    /// largest *realizable* masked error without ever admitting an SDC.)
    pub conservative_fraction: f64,
    /// Median of `min_sdc_error / static_threshold` over those sites:
    /// the analytical bound's median headroom to the first harmful
    /// error (`> 1` means conservative by that factor).
    pub median_slack: f64,
    /// Injections spent producing the static boundary itself — zero by
    /// construction; recorded so artifacts carry the claim explicitly.
    pub n_injections_static: u64,
}

/// Score a static boundary (via its `predictor`) against an exhaustive
/// campaign and a pinned-seed sample. `golden` supplies the per-site
/// flip-error table used to locate each site's minimum SDC error.
pub fn validate_static(
    predictor: &Predictor<'_>,
    truth: &ExhaustiveResult,
    samples: &SampleSet,
    golden: &GoldenRun,
    static_thresholds: &[f64],
) -> StaticValidation {
    let eval = BoundaryEval::against_exhaustive(predictor, truth);
    let uncertainty = BoundaryEval::uncertainty(predictor, samples).precision;

    let mut conservative = 0usize;
    let mut constrained = 0usize;
    let mut slacks: Vec<f64> = Vec::new();
    for (&s, &min_sdc) in static_thresholds
        .iter()
        .zip(&min_sdc_per_site(golden, truth))
    {
        if !min_sdc.is_finite() {
            continue; // no SDC observed: nothing to violate
        }
        constrained += 1;
        if s < min_sdc {
            conservative += 1;
            if s > 0.0 {
                slacks.push(min_sdc / s);
            }
        }
    }
    slacks.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_slack = if slacks.is_empty() {
        f64::NAN
    } else {
        slacks[slacks.len() / 2]
    };

    StaticValidation {
        eval,
        uncertainty,
        conservative_fraction: if constrained == 0 {
            1.0
        } else {
            conservative as f64 / constrained as f64
        },
        median_slack,
        n_injections_static: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::Predictor;
    use crate::staticbound::{static_bound, StaticBoundConfig};
    use ftb_inject::{Classifier, Injector};
    use ftb_kernels::{GemmConfig, GemmKernel, Kernel};

    #[test]
    fn gemm_static_bound_is_conservative() {
        let k = GemmKernel::new(GemmConfig {
            n: 5,
            ..GemmConfig::small()
        });
        let tol = 1e-6;
        let (golden, ddg) = k.golden_with_ddg();
        let sb = static_bound(&ddg, &StaticBoundConfig::new(tol)).unwrap();
        let static_b = sb.boundary();

        let inj = Injector::with_golden(&k, golden, Classifier::new(tol));
        let truth = inj.exhaustive();
        let predictor = Predictor::new(inj.golden(), &static_b);

        let samples = SampleSet::sample_sites(&inj, (inj.n_sites() / 4).max(1), 7);

        let v = validate_static(&predictor, &truth, &samples, inj.golden(), &sb.thresholds);
        // GEMM is exactly linear per injected operand: no masked-predicted
        // experiment may be SDC in truth
        assert_eq!(
            v.eval.precision, 1.0,
            "static bound overcertified: {:?}",
            v.eval
        );
        assert!(v.eval.recall > 0.1, "recall collapsed: {:?}", v.eval);
        assert!(v.uncertainty >= 0.99, "uncertainty {}", v.uncertainty);
        assert_eq!(v.n_injections_static, 0);
        assert!(
            v.conservative_fraction > 0.95,
            "conservativeness {}",
            v.conservative_fraction
        );
        assert!(v.median_slack >= 1.0, "slack {}", v.median_slack);
    }
}
