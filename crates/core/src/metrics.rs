//! Evaluation metrics: precision, recall, the self-verifying uncertainty
//! (paper §3.6), and the ΔSDC profile (paper §4.1/Figure 3).
//!
//! The boundary is treated like a trained classifier whose positive class
//! is "masked":
//!
//! * `Precision = M_positive / M_predict` — of all experiments predicted
//!   masked, the fraction truly masked;
//! * `Recall = M_positive / M_total` — of all truly masked experiments,
//!   the fraction the boundary finds;
//! * `Uncertainty = Ms_positive / Ms_predict` — precision restricted to
//!   the *sampled* experiments. Because it needs no ground truth beyond
//!   the samples already run, it lets an application programmer verify
//!   the boundary without an exhaustive campaign; §4.3 shows it tracks
//!   the true precision closely.
//!
//! Every boundary is scored against exhaustive truth through this module:
//! [`BoundaryEval`] for threshold boundaries, [`min_sdc_per_site`] and
//! [`conservative_fraction`] for per-site conservatism, and
//! [`BitsScorecard`] for certified bit masks.

use crate::absint::{BitClass, BitMasks};
use crate::boundary::Boundary;
use crate::predict::Predictor;
use crate::sample::SampleSet;
use ftb_inject::{ExhaustiveResult, Outcome};
use ftb_trace::GoldenRun;
use serde::{Deserialize, Serialize};

/// Classifier-style evaluation of a boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundaryEval {
    /// Truly masked among predicted-masked, over the evaluated truth set.
    pub precision: f64,
    /// Predicted-masked among all truly masked.
    pub recall: f64,
    /// Number of experiments predicted masked (`M_predict`).
    pub m_predict: u64,
    /// Number of correct masked predictions (`M_positive`).
    pub m_positive: u64,
    /// Number of truly masked experiments (`M_total`).
    pub m_total: u64,
    /// Number of truth experiments evaluated.
    pub n_evaluated: u64,
}

impl BoundaryEval {
    /// Evaluate predictions against an arbitrary stream of ground-truth
    /// outcomes. Conventions: an empty predicted-masked set has precision
    /// 1 (no false claims); an empty truth-masked set has recall 1.
    pub fn from_truth<I>(predictor: &Predictor<'_>, truth: I) -> Self
    where
        I: IntoIterator<Item = (usize, u8, Outcome)>,
    {
        let mut m_predict = 0u64;
        let mut m_positive = 0u64;
        let mut m_total = 0u64;
        let mut n = 0u64;
        for (site, bit, actual) in truth {
            n += 1;
            let predicted_masked = predictor.predict(site, bit).is_masked();
            let actually_masked = actual.is_masked();
            m_predict += u64::from(predicted_masked);
            m_total += u64::from(actually_masked);
            m_positive += u64::from(predicted_masked && actually_masked);
        }
        BoundaryEval {
            precision: if m_predict == 0 {
                1.0
            } else {
                m_positive as f64 / m_predict as f64
            },
            recall: if m_total == 0 {
                1.0
            } else {
                m_positive as f64 / m_total as f64
            },
            m_predict,
            m_positive,
            m_total,
            n_evaluated: n,
        }
    }

    /// Evaluate against a full exhaustive campaign (the whole experiment
    /// space).
    pub fn against_exhaustive(predictor: &Predictor<'_>, truth: &ExhaustiveResult) -> Self {
        Self::from_truth(predictor, truth.iter())
    }

    /// The §3.6 uncertainty: precision over the sampled experiments only.
    /// Returns the same struct shape with `precision` holding
    /// `Ms_positive / Ms_predict`.
    pub fn uncertainty(predictor: &Predictor<'_>, samples: &SampleSet) -> Self {
        Self::from_truth(
            predictor,
            samples
                .experiments()
                .iter()
                .map(|e| (e.site, e.bit, e.outcome)),
        )
    }
}

/// Per-site smallest SDC-causing injected error under exhaustive truth
/// (`+∞` where no bit of the site is SDC).
pub fn min_sdc_per_site(golden: &GoldenRun, truth: &ExhaustiveResult) -> Vec<f64> {
    (0..golden.n_sites())
        .map(|site| {
            let errs = golden.flip_errors(site);
            (0..truth.bits)
                .filter(|&bit| truth.outcome(site, bit).is_sdc())
                .map(|bit| errs[bit as usize])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Fraction of all sites whose `boundary` threshold sits strictly below
/// their smallest SDC-causing error (`min_sdc`, from
/// [`min_sdc_per_site`]); sites with no SDC count as conservative.
pub fn conservative_fraction(boundary: &Boundary, min_sdc: &[f64]) -> f64 {
    min_sdc
        .iter()
        .enumerate()
        .filter(|&(s, &m)| boundary.threshold(s) < m || m.is_infinite())
        .count() as f64
        / min_sdc.len().max(1) as f64
}

/// How certified bit masks score against ground-truth outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BitsScorecard {
    /// Certified bits whose true outcome is SDC or Crash. Soundness
    /// demands zero.
    pub violations: u64,
    /// Bits that really are masked in the truth set.
    pub truly_masked: u64,
    /// Fraction of truly-masked bits the analysis certified without an
    /// injection (the map's recall; 1 - this is the conservatism cost).
    pub certified_recall: f64,
    /// Crash-likely bits whose true outcome really is a crash.
    pub crash_likely_hits: u64,
    /// Truth outcomes scored: the injections the validation spent.
    pub n_injections: u64,
}

impl BitsScorecard {
    /// Score `masks` against `(site, bit, outcome)` truth triples.
    pub fn score<I>(masks: &BitMasks, truth: I) -> Self
    where
        I: IntoIterator<Item = (usize, u8, Outcome)>,
    {
        let (mut violations, mut truly_masked, mut certified_ok, mut crash_hits, mut n) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for (site, bit, o) in truth {
            n += 1;
            let masked = o.is_masked();
            truly_masked += u64::from(masked);
            match masks.class(site, bit) {
                BitClass::CertifiedMasked => {
                    certified_ok += u64::from(masked);
                    violations += u64::from(!masked);
                }
                BitClass::CrashLikely => crash_hits += u64::from(matches!(o, Outcome::Crash(_))),
                BitClass::Unknown => {}
            }
        }
        BitsScorecard {
            violations,
            truly_masked,
            certified_recall: certified_ok as f64 / truly_masked.max(1) as f64,
            crash_likely_hits: crash_hits,
            n_injections: n,
        }
    }
}

/// Per-site SDC profile: the ground-truth and predicted vulnerability of
/// every dynamic instruction, plus their difference (ΔSDC).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SdcProfile {
    /// Ground-truth per-site SDC ratio.
    pub golden: Vec<f64>,
    /// Predicted per-site SDC ratio.
    pub predicted: Vec<f64>,
}

impl SdcProfile {
    /// Build the profile from an exhaustive truth and a predictor,
    /// optionally letting known sample outcomes override predictions.
    pub fn new(
        truth: &ExhaustiveResult,
        predictor: &Predictor<'_>,
        known: Option<&SampleSet>,
    ) -> Self {
        SdcProfile {
            golden: truth.sdc_ratio_per_site(),
            predicted: predictor.sdc_ratio_per_site(known),
        }
    }

    /// `ΔSDC_i = golden_i − predicted_i` per site (negative = the method
    /// overestimates the site's SDC ratio, the direction the paper
    /// reports for non-monotonic sites).
    pub fn delta(&self) -> Vec<f64> {
        delta_sdc(&self.golden, &self.predicted)
    }

    /// Overall (mean) golden and predicted SDC ratios.
    pub fn overall(&self) -> (f64, f64) {
        let n = self.golden.len().max(1) as f64;
        (
            self.golden.iter().sum::<f64>() / n,
            self.predicted.iter().sum::<f64>() / n,
        )
    }

    /// Fraction of sites whose prediction is exact (|ΔSDC| < tol).
    pub fn exact_fraction(&self, tol: f64) -> f64 {
        if self.golden.is_empty() {
            return 1.0;
        }
        let exact = self.delta().iter().filter(|d| d.abs() < tol).count();
        exact as f64 / self.golden.len() as f64
    }
}

/// `ΔSDC = golden − predicted`, elementwise.
///
/// # Panics
/// Panics on length mismatch.
pub fn delta_sdc(golden: &[f64], predicted: &[f64]) -> Vec<f64> {
    assert_eq!(golden.len(), predicted.len(), "profile length mismatch");
    golden.iter().zip(predicted).map(|(&g, &p)| g - p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::{golden_boundary, Boundary};
    use ftb_inject::{Classifier, Injector};
    use ftb_kernels::{MatvecConfig, MatvecKernel};
    use ftb_trace::{Precision, StaticId, Tracer};

    fn tiny_golden(vals: &[f64]) -> ftb_trace::GoldenRun {
        let mut t = Tracer::golden(Precision::F64);
        for &v in vals {
            t.value(StaticId(0), v);
        }
        t.finish_golden(vals.to_vec())
    }

    #[test]
    fn perfect_boundary_scores_perfectly() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let ex = inj.exhaustive();
        let b = golden_boundary(inj.golden(), &ex);
        let p = Predictor::new(inj.golden(), &b);
        let eval = BoundaryEval::against_exhaustive(&p, &ex);
        // the golden boundary never claims masked for an SDC case
        assert_eq!(
            eval.precision, 1.0,
            "golden boundary mispredicted an SDC case"
        );
        assert!(eval.recall > 0.5, "golden boundary recall {}", eval.recall);
        assert_eq!(eval.n_evaluated, ex.n_experiments());
    }

    #[test]
    fn zero_boundary_has_trivial_precision_and_zero_recall() {
        let g = tiny_golden(&[1.0, 2.0]);
        let b = Boundary::zero(2);
        let p = Predictor::new(&g, &b);
        // truth: everything masked
        let truth: Vec<(usize, u8, Outcome)> = (0..2usize)
            .flat_map(|s| (1..64u8).map(move |bit| (s, bit, Outcome::Masked)))
            .collect();
        let eval = BoundaryEval::from_truth(&p, truth);
        assert_eq!(eval.m_predict, 0);
        assert_eq!(eval.precision, 1.0, "vacuous precision convention");
        assert_eq!(eval.recall, 0.0);
    }

    #[test]
    fn uncertainty_equals_precision_on_the_sample_set_itself() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let ex = inj.exhaustive();
        let b = golden_boundary(inj.golden(), &ex);
        let p = Predictor::new(inj.golden(), &b);
        // a "sample set" that is the whole space: uncertainty == precision
        let mut all = SampleSet::new();
        for site in 0..inj.n_sites() {
            for bit in 0..64u8 {
                all.insert(ftb_inject::Experiment {
                    site,
                    bit,
                    injected_err: 0.0,
                    output_err: 0.0,
                    outcome: ex.outcome(site, bit),
                });
            }
        }
        let eval = BoundaryEval::against_exhaustive(&p, &ex);
        let unc = BoundaryEval::uncertainty(&p, &all);
        assert!((eval.precision - unc.precision).abs() < 1e-12);
    }

    #[test]
    fn min_sdc_bounds_the_golden_boundary_from_above() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let ex = inj.exhaustive();
        let min_sdc = min_sdc_per_site(inj.golden(), &ex);
        assert_eq!(min_sdc.len(), inj.n_sites());
        for (site, &m) in min_sdc.iter().enumerate() {
            let errs = inj.golden().flip_errors(site);
            for bit in 0..ex.bits {
                if ex.outcome(site, bit).is_sdc() {
                    assert!(m <= errs[bit as usize], "site {site} bit {bit}");
                }
            }
        }
        assert!(min_sdc.iter().any(|m| m.is_finite()), "no SDC at all");
        // the golden boundary sits strictly below every first SDC error
        let gb = golden_boundary(inj.golden(), &ex);
        assert_eq!(conservative_fraction(&gb, &min_sdc), 1.0);
        // an everything-masked boundary is conservative only where no
        // bit is SDC
        let all = Boundary::from_static(&vec![f64::MAX; inj.n_sites()]);
        let sdc_free = min_sdc.iter().filter(|m| m.is_infinite()).count();
        assert_eq!(
            conservative_fraction(&all, &min_sdc),
            sdc_free as f64 / min_sdc.len() as f64
        );
    }

    #[test]
    fn bits_scorecard_counts_each_class() {
        use crate::absint::{MaskSource, SiteMask};
        let masks = BitMasks {
            bits: 64,
            source: MaskSource::Static,
            sites: vec![SiteMask {
                certified: 0b0011,
                crash_likely: 0b1100,
            }],
        };
        let crash = Outcome::Crash(ftb_inject::CrashKind::NonFinite);
        let truth = [
            (0, 0, Outcome::Masked), // certified, right
            (0, 1, Outcome::Sdc),    // certified, wrong
            (0, 2, crash),           // crash-likely, right
            (0, 3, Outcome::Masked), // crash-likely, wrong
            (0, 4, Outcome::Masked), // unknown
        ];
        let sc = BitsScorecard::score(&masks, truth);
        assert_eq!(sc.violations, 1);
        assert_eq!(sc.truly_masked, 3);
        assert!((sc.certified_recall - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(sc.crash_likely_hits, 1);
        assert_eq!(sc.n_injections, 5);
    }

    #[test]
    fn delta_sdc_signs() {
        let d = delta_sdc(&[0.5, 0.2], &[0.4, 0.6]);
        assert!((d[0] - 0.1).abs() < 1e-15, "underestimate is positive");
        assert!((d[1] + 0.4).abs() < 1e-15, "overestimate is negative");
    }

    #[test]
    fn profile_overall_and_exact_fraction() {
        let p = SdcProfile {
            golden: vec![0.5, 0.5],
            predicted: vec![0.5, 1.0],
        };
        let (g, pr) = p.overall();
        assert!((g - 0.5).abs() < 1e-15);
        assert!((pr - 0.75).abs() < 1e-15);
        assert!((p.exact_fraction(1e-6) - 0.5).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn delta_sdc_length_mismatch_panics() {
        let _ = delta_sdc(&[0.1], &[0.1, 0.2]);
    }
}
