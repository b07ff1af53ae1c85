//! Boundary-based outcome prediction.
//!
//! The decisive property of the boundary method: for **any** `(site, bit)`
//! experiment, the corrupted value `flip(v, bit)` is computable from the
//! golden trace alone, so once the boundary is built, predicting the whole
//! `sites × bits` space needs zero further kernel executions.
//!
//! Prediction rules (paper §3.3, §4.4, plus the crash-aware refinement
//! documented in DESIGN.md):
//!
//! * the flip yields a non-finite value ⇒ **Crash** predicted (exact,
//!   since this is precisely the NaN-exception trigger — only available
//!   in `crash_aware` mode, the default);
//! * injected error `ε ≤ Δe_site` ⇒ **Masked** predicted;
//! * otherwise ⇒ **assumed SDC** (the conservative default the paper
//!   uses for unknown cases — the source of SDC-ratio overestimation at
//!   low sampling rates).

use crate::boundary::Boundary;
use crate::sample::SampleSet;
use ftb_inject::ExhaustiveResult;
use ftb_trace::bits::injected_error;
use ftb_trace::GoldenRun;
use serde::{Deserialize, Serialize};

/// A predicted experiment outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictedOutcome {
    /// Below the boundary: predicted masked.
    Masked,
    /// Above the boundary: assumed SDC (could in truth be SDC, crash, or
    /// a non-monotonically masked case).
    AssumedSdc,
    /// The flip itself produces a non-finite value: predicted crash.
    Crash,
}

impl PredictedOutcome {
    /// Whether this prediction counts as a positive "masked" call.
    #[inline]
    pub fn is_masked(self) -> bool {
        matches!(self, PredictedOutcome::Masked)
    }
}

/// Predicts experiment outcomes from a boundary and the golden trace.
#[derive(Debug, Clone, Copy)]
pub struct Predictor<'a> {
    golden: &'a GoldenRun,
    boundary: &'a Boundary,
    crash_aware: bool,
}

impl<'a> Predictor<'a> {
    /// A crash-aware predictor (the default configuration).
    pub fn new(golden: &'a GoldenRun, boundary: &'a Boundary) -> Self {
        assert_eq!(
            golden.n_sites(),
            boundary.n_sites(),
            "boundary does not match the golden run"
        );
        Predictor {
            golden,
            boundary,
            crash_aware: true,
        }
    }

    /// Disable crash prediction: non-finite flips fall through to the
    /// boundary test like any other error (the paper's plain formulation;
    /// kept as an ablation).
    pub fn without_crash_prediction(mut self) -> Self {
        self.crash_aware = false;
        self
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.golden.n_sites()
    }

    /// Bits per site.
    pub fn bits(&self) -> u8 {
        self.golden.precision.bits()
    }

    /// Predict one experiment.
    pub fn predict(&self, site: usize, bit: u8) -> PredictedOutcome {
        let v = self.golden.value(site);
        let prec = self.golden.precision;
        if self.crash_aware && !prec.flip(prec.quantize(v), bit).is_finite() {
            return PredictedOutcome::Crash;
        }
        let eps = injected_error(prec, v, bit);
        if self.boundary.predicts_masked(site, eps) {
            PredictedOutcome::Masked
        } else {
            PredictedOutcome::AssumedSdc
        }
    }

    /// Predicted SDC ratio of one site: the fraction of its flips
    /// predicted (assumed) SDC, with known experiment outcomes taking
    /// precedence over prediction when provided — the §4.4 rule ("if all
    /// possible error conditions are injected into a dynamic instruction,
    /// we simply use the correct boundary value").
    pub fn sdc_ratio_at(&self, site: usize, known: Option<&SampleSet>) -> f64 {
        let bits = self.bits();
        let mut sdc = 0u32;
        for bit in 0..bits {
            let is_sdc = match known.and_then(|k| k.get(site, bit)) {
                Some(e) => e.outcome.is_sdc(),
                None => self.predict(site, bit) == PredictedOutcome::AssumedSdc,
            };
            sdc += u32::from(is_sdc);
        }
        f64::from(sdc) / f64::from(bits)
    }

    /// Predicted per-site SDC ratios over the whole program.
    pub fn sdc_ratio_per_site(&self, known: Option<&SampleSet>) -> Vec<f64> {
        (0..self.n_sites())
            .map(|s| self.sdc_ratio_at(s, known))
            .collect()
    }

    /// Predicted overall SDC ratio (mean of the per-site ratios, which
    /// equals predicted-SDC count over the whole experiment space).
    pub fn overall_sdc_ratio(&self, known: Option<&SampleSet>) -> f64 {
        let per = self.sdc_ratio_per_site(known);
        if per.is_empty() {
            return 0.0;
        }
        per.iter().sum::<f64>() / per.len() as f64
    }
}

/// Extract the **crash** experiments of an exhaustive campaign as a known
/// set. In the §4.1 golden-boundary evaluation, crashes are *detected*
/// outcomes of the campaign the boundary was built from (they are not
/// silent), so SDC-ratio prediction may legitimately treat them as known;
/// the boundary abstraction models only the masked/SDC divide. The
/// remaining ΔSDC then isolates exactly the non-monotonicity error the
/// paper's Figure 3 discusses.
pub fn crash_known_set(golden: &GoldenRun, truth: &ExhaustiveResult) -> SampleSet {
    let mut set = SampleSet::new();
    for (site, bit, o) in truth.iter() {
        if o.is_crash() {
            set.insert(ftb_inject::Experiment {
                site,
                bit,
                injected_err: injected_error(golden.precision, golden.value(site), bit),
                output_err: f64::INFINITY,
                outcome: o,
            });
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::Boundary;
    use ftb_trace::{Precision, StaticId, Tracer};

    fn golden_with_values(vals: &[f64]) -> GoldenRun {
        let mut t = Tracer::golden(Precision::F64);
        for &v in vals {
            t.value(StaticId(0), v);
        }
        t.finish_golden(vals.to_vec())
    }

    #[test]
    fn predicts_masked_below_threshold() {
        let g = golden_with_values(&[1.0, 1.0]);
        let mut b = Boundary::zero(2);
        b.observe(0, 1.0); // site 0 tolerates up to 1.0
        let p = Predictor::new(&g, &b);
        // bit 51 flip of 1.0: error 0.5 ≤ 1.0 -> masked
        assert_eq!(p.predict(0, 51), PredictedOutcome::Masked);
        // sign flip: error 2.0 > 1.0 -> assumed SDC
        assert_eq!(p.predict(0, 63), PredictedOutcome::AssumedSdc);
        // site 1 has no information: everything (finite, nonzero) assumed SDC
        assert_eq!(p.predict(1, 51), PredictedOutcome::AssumedSdc);
    }

    #[test]
    fn crash_aware_flags_nonfinite_flips() {
        let g = golden_with_values(&[1.0]);
        let b = Boundary::zero(1);
        let p = Predictor::new(&g, &b);
        // bit 62 of 1.0 -> +Inf
        assert_eq!(p.predict(0, 62), PredictedOutcome::Crash);
        let p2 = p.without_crash_prediction();
        assert_eq!(p2.predict(0, 62), PredictedOutcome::AssumedSdc);
    }

    #[test]
    fn sdc_ratio_counts_assumed_sdc_only() {
        let g = golden_with_values(&[1.0]);
        let mut b = Boundary::zero(1);
        b.observe(0, f64::MAX); // tolerate everything finite
        let p = Predictor::new(&g, &b);
        // the only non-masked predictions are the non-finite flips (crash)
        let r = p.sdc_ratio_at(0, None);
        assert_eq!(r, 0.0);
        let overall = p.overall_sdc_ratio(None);
        assert_eq!(overall, 0.0);
    }

    #[test]
    fn zero_boundary_assumes_everything_sdc_except_nop_and_crash_flips() {
        let g = golden_with_values(&[1.0]);
        let b = Boundary::zero(1);
        let p = Predictor::new(&g, &b);
        let r = p.sdc_ratio_at(0, None);
        // 64 flips of 1.0: one produces +Inf (bit 62, predicted crash);
        // none are error-free; the rest are assumed SDC
        assert!((r - 63.0 / 64.0).abs() < 1e-12, "ratio {r}");
    }

    #[test]
    fn known_outcomes_override_prediction() {
        use ftb_inject::{Experiment, Outcome};
        let g = golden_with_values(&[1.0]);
        let b = Boundary::zero(1); // predicts assumed-SDC everywhere
        let p = Predictor::new(&g, &b);
        let mut known = SampleSet::new();
        for bit in 0..64u8 {
            known.insert(Experiment {
                site: 0,
                bit,
                injected_err: 0.0,
                output_err: 0.0,
                outcome: Outcome::Masked,
            });
        }
        assert_eq!(p.sdc_ratio_at(0, Some(&known)), 0.0);
        assert!(p.sdc_ratio_at(0, None) > 0.9);
    }

    #[test]
    #[should_panic]
    fn mismatched_boundary_rejected() {
        let g = golden_with_values(&[1.0, 2.0]);
        let b = Boundary::zero(5);
        let _ = Predictor::new(&g, &b);
    }
}
