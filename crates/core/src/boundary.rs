//! The fault tolerance boundary data structure.

use crate::metrics::min_sdc_per_site;
use ftb_inject::ExhaustiveResult;
use ftb_trace::GoldenRun;
use serde::{Deserialize, Serialize};

/// A program's fault tolerance boundary: per dynamic instruction, the
/// inferred maximum tolerable injected error `Δe` (paper §3.2).
///
/// `Δe = 0` means *no information*: the conservative floor ("the smallest
/// possible threshold value for a dynamic instruction is zero"). The
/// boundary also tracks, per site, how many masked-propagation
/// observations supported the threshold — the `S_i` information count
/// driving the §3.4 adaptive sampler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Boundary {
    thresholds: Vec<f64>,
    support: Vec<u32>,
}

impl Boundary {
    /// The all-zero (fully conservative) boundary over `n_sites` sites.
    pub fn zero(n_sites: usize) -> Self {
        Boundary {
            thresholds: vec![0.0; n_sites],
            support: vec![0; n_sites],
        }
    }

    /// Construct directly from threshold values (support set to 1 where
    /// the threshold is positive). Mostly useful in tests and for the
    /// exhaustive golden boundary.
    pub fn from_thresholds(thresholds: Vec<f64>) -> Self {
        let support = thresholds.iter().map(|&t| u32::from(t > 0.0)).collect();
        Boundary {
            thresholds,
            support,
        }
    }

    /// Construct from the static analyzer's analytical thresholds
    /// (`ftb-core::staticbound`). Non-finite entries (sites with no path
    /// to any sink) clamp to `f64::MAX` — any *finite* perturbation is
    /// certified there, while non-finite flips stay with the crash-aware
    /// predictor. Each positive threshold carries support 1: one
    /// analytical certificate, the seed for the §3.4 information count.
    pub fn from_static(thresholds: &[f64]) -> Self {
        let thresholds: Vec<f64> = thresholds
            .iter()
            .map(|&t| if t.is_finite() { t.max(0.0) } else { f64::MAX })
            .collect();
        let support = thresholds.iter().map(|&t| u32::from(t > 0.0)).collect();
        Boundary {
            thresholds,
            support,
        }
    }

    /// Construct from the compositional analyzer's composed thresholds
    /// (`ftb-core::compose`). Non-finite or negative entries clamp to
    /// the conservative floor `0` — unlike the static bound, a composed
    /// threshold is rooted in finite empirical budgets, so an unbounded
    /// value can only mean "no information". Positive thresholds carry
    /// support 1: one composed certificate.
    pub fn from_composed(thresholds: Vec<f64>) -> Self {
        let thresholds: Vec<f64> = thresholds
            .into_iter()
            .map(|t| if t.is_finite() { t.max(0.0) } else { 0.0 })
            .collect();
        let support = thresholds.iter().map(|&t| u32::from(t > 0.0)).collect();
        Boundary {
            thresholds,
            support,
        }
    }

    /// Seed this boundary with a prior (typically a static analysis):
    /// thresholds take the pointwise max — both are valid lower-bound
    /// certificates — and the prior's support counts add in. Merging a
    /// [`Boundary::zero`] prior is the identity.
    ///
    /// # Panics
    /// Panics on size mismatch.
    pub fn merge_prior(&mut self, prior: &Boundary) {
        assert_eq!(self.n_sites(), prior.n_sites(), "boundary size mismatch");
        for i in 0..self.thresholds.len() {
            if prior.thresholds[i] > self.thresholds[i] {
                self.thresholds[i] = prior.thresholds[i];
            }
            self.support[i] = self.support[i].saturating_add(prior.support[i]);
        }
    }

    /// Number of sites covered.
    #[inline]
    pub fn n_sites(&self) -> usize {
        self.thresholds.len()
    }

    /// Whether thresholds and support both cover exactly `n_sites` sites
    /// (a deserialized boundary need not).
    pub(crate) fn covers(&self, n_sites: usize) -> bool {
        self.thresholds.len() == n_sites && self.support.len() == n_sites
    }

    /// The threshold `Δe` at `site`.
    #[inline]
    pub fn threshold(&self, site: usize) -> f64 {
        self.thresholds[site]
    }

    /// All thresholds.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// Number of masked-propagation observations folded into `site`.
    #[inline]
    pub fn support(&self, site: usize) -> u32 {
        self.support[site]
    }

    /// Algorithm 1's fold: raise the threshold at `site` to at least
    /// `err` (a perturbation a masked run was observed to tolerate) and
    /// count the observation. Non-finite observations are ignored — a
    /// masked run cannot genuinely certify an unbounded perturbation.
    #[inline]
    pub fn observe(&mut self, site: usize, err: f64) {
        if !err.is_finite() {
            return;
        }
        let t = &mut self.thresholds[site];
        if err > *t {
            *t = err;
        }
        self.support[site] += 1;
    }

    /// Merge another boundary into this one (parallel reduction: the
    /// per-site max of two valid lower-bound certificates is valid).
    ///
    /// # Panics
    /// Panics on size mismatch.
    pub fn merge(&mut self, other: &Boundary) {
        assert_eq!(self.n_sites(), other.n_sites(), "boundary size mismatch");
        for i in 0..self.thresholds.len() {
            if other.thresholds[i] > self.thresholds[i] {
                self.thresholds[i] = other.thresholds[i];
            }
            self.support[i] += other.support[i];
        }
    }

    /// Cap the threshold at `site` strictly below `cap` (used when a new
    /// SDC observation with injected error `cap` arrives after masked
    /// propagation data was already folded in — the incremental form of
    /// the §3.5 filter operation).
    #[inline]
    pub fn clamp_below(&mut self, site: usize, cap: f64) {
        if cap.is_finite() && self.thresholds[site] >= cap {
            self.thresholds[site] = cap.next_down().max(0.0);
        }
    }

    /// Whether the boundary predicts an injected error of magnitude `err`
    /// at `site` to be masked (`err ≤ Δe_site`).
    #[inline]
    pub fn predicts_masked(&self, site: usize, err: f64) -> bool {
        err <= self.thresholds[site]
    }

    /// Fraction of sites with any information (`Δe > 0`).
    pub fn coverage(&self) -> f64 {
        if self.thresholds.is_empty() {
            return 0.0;
        }
        let covered = self.thresholds.iter().filter(|&&t| t > 0.0).count();
        covered as f64 / self.thresholds.len() as f64
    }
}

/// Build the *golden* boundary from an exhaustive campaign (paper §4.1):
/// at each site the threshold is the largest masked injected error that is
/// still **below every SDC-causing injected error** at that site —
/// "the maximum value that results in a masked outcome, but is also less
/// than the minimum value that results in SDC".
///
/// Non-monotonic sites (a small error causes SDC while some larger error
/// is masked) therefore get a conservative threshold, which is exactly
/// the source of the small ΔSDC overestimation the paper reports in its
/// Figure 3.
pub fn golden_boundary(golden: &GoldenRun, exhaustive: &ExhaustiveResult) -> Boundary {
    assert_eq!(
        golden.n_sites(),
        exhaustive.n_sites,
        "golden/exhaustive mismatch"
    );
    let mut b = Boundary::zero(golden.n_sites());
    for (site, min_sdc) in min_sdc_per_site(golden, exhaustive).into_iter().enumerate() {
        let errs = golden.flip_errors(site);
        let best = (0..exhaustive.bits)
            .filter(|&bit| exhaustive.outcome(site, bit).is_masked())
            .map(|bit| errs[bit as usize])
            .filter(|&e| e < min_sdc && e.is_finite())
            .fold(0.0, f64::max);
        if best > 0.0 {
            b.observe(site, best);
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_inject::{Classifier, Injector, Outcome};
    use ftb_kernels::{MatvecConfig, MatvecKernel};

    #[test]
    fn zero_boundary_predicts_nothing_masked_except_zero_error() {
        let b = Boundary::zero(4);
        assert!(b.predicts_masked(0, 0.0), "zero error is always tolerable");
        assert!(!b.predicts_masked(0, 1e-300));
        assert_eq!(b.coverage(), 0.0);
    }

    #[test]
    fn observe_takes_running_max_and_counts_support() {
        let mut b = Boundary::zero(2);
        b.observe(0, 1.0);
        b.observe(0, 0.5);
        b.observe(0, 2.0);
        assert_eq!(b.threshold(0), 2.0);
        assert_eq!(b.support(0), 3);
        assert_eq!(b.threshold(1), 0.0);
        assert_eq!(b.coverage(), 0.5);
    }

    #[test]
    fn observe_ignores_non_finite() {
        let mut b = Boundary::zero(1);
        b.observe(0, f64::INFINITY);
        b.observe(0, f64::NAN);
        assert_eq!(b.threshold(0), 0.0);
        assert_eq!(b.support(0), 0);
    }

    #[test]
    fn merge_is_pointwise_max() {
        let mut a = Boundary::zero(3);
        a.observe(0, 1.0);
        a.observe(2, 5.0);
        let mut b = Boundary::zero(3);
        b.observe(0, 3.0);
        b.observe(1, 2.0);
        a.merge(&b);
        assert_eq!(a.thresholds(), &[3.0, 2.0, 5.0]);
        assert_eq!(a.support(0), 2);
    }

    #[test]
    #[should_panic]
    fn merge_size_mismatch_panics() {
        let mut a = Boundary::zero(2);
        a.merge(&Boundary::zero(3));
    }

    #[test]
    fn golden_boundary_separates_masked_from_sdc() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let ex = inj.exhaustive();
        let b = golden_boundary(inj.golden(), &ex);
        // every monotonic site: prediction from the boundary reproduces
        // the exhaustive outcome exactly for masked/SDC experiments below
        // the threshold
        let g = inj.golden();
        let mut checked = 0;
        for site in 0..g.n_sites() {
            let errs = g.flip_errors(site);
            for bit in 0..64u8 {
                let truth = ex.outcome(site, bit);
                if truth.is_masked() && b.predicts_masked(site, errs[bit as usize]) {
                    checked += 1;
                }
                // no SDC experiment may sit below the golden threshold
                if truth.is_sdc() {
                    assert!(
                        !b.predicts_masked(site, errs[bit as usize])
                            || errs[bit as usize] == b.threshold(site),
                        "SDC below golden threshold at site {site} bit {bit}"
                    );
                }
            }
            // SDC strictly below threshold is impossible by construction
            let min_sdc = (0..64u8)
                .filter(|&bit| ex.outcome(site, bit).is_sdc())
                .map(|bit| errs[bit as usize])
                .fold(f64::INFINITY, f64::min);
            assert!(
                b.threshold(site) < min_sdc || min_sdc.is_infinite(),
                "threshold {} not below min SDC error {min_sdc} at {site}",
                b.threshold(site)
            );
        }
        assert!(
            checked > 0,
            "golden boundary certified no masked cases at all"
        );
    }

    #[test]
    fn golden_boundary_counts_match_outcomes() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let ex = inj.exhaustive();
        let b = golden_boundary(inj.golden(), &ex);
        // any site with at least one finite-error masked outcome below all
        // its SDC errors must be covered
        for (site, _, o) in ex.iter() {
            if o == Outcome::Masked && b.threshold(site) > 0.0 {
                assert!(b.support(site) >= 1);
            }
        }
    }
}
