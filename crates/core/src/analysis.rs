//! High-level analysis facade: the one-stop API a downstream user drives.
//!
//! Wraps a kernel + classifier pair and exposes the full workflow —
//! golden recording, uniform or adaptive sampling, boundary inference,
//! prediction, self-verification, and ground-truth evaluation — behind a
//! handful of methods. The bench harness and CLI are thin wrappers over
//! this type.

use crate::adaptive::{adaptive_boundary, AdaptiveConfig, AdaptiveResult};
use crate::boundary::{golden_boundary, Boundary};
use crate::infer::{infer_boundary, FilterMode, Inference};
use crate::metrics::{BoundaryEval, SdcProfile};
use crate::predict::Predictor;
use crate::protection::ProtectionPlan;
use crate::sample::SampleSet;
use ftb_inject::{monte_carlo, Classifier, ExhaustiveResult, Injector, MonteCarloEstimate};
use ftb_kernels::Kernel;
use ftb_trace::GoldenRun;

/// A bound analysis session over one kernel.
pub struct Analysis<'k> {
    injector: Injector<'k>,
}

impl<'k> Analysis<'k> {
    /// Record the golden run and prepare the session. Outcome
    /// experiments run under the injector's one execution policy
    /// ([`Injector::with_execution_policy`]): snapshot resume and lane
    /// batching wherever the kernel supports them, with records
    /// bit-identical to from-scratch execution.
    pub fn new(kernel: &'k dyn Kernel, classifier: Classifier) -> Self {
        Analysis {
            injector: Injector::new(kernel, classifier).with_execution_policy(),
        }
    }

    /// The underlying injector.
    pub fn injector(&self) -> &Injector<'k> {
        &self.injector
    }

    /// The golden reference run.
    pub fn golden(&self) -> &GoldenRun {
        self.injector.golden()
    }

    /// Number of fault-injection sites.
    pub fn n_sites(&self) -> usize {
        self.injector.n_sites()
    }

    /// Run the exhaustive ground-truth campaign (`sites × bits` runs).
    pub fn exhaustive(&self) -> ExhaustiveResult {
        self.injector.exhaustive()
    }

    /// Build the *golden boundary* from exhaustive data (paper §4.1).
    pub fn golden_boundary(&self, exhaustive: &ExhaustiveResult) -> Boundary {
        golden_boundary(self.golden(), exhaustive)
    }

    /// The paper's uniform sampling: select `rate × n_sites` dynamic
    /// instructions uniformly and inject **every bit** of each (§4.4).
    pub fn sample_uniform(&self, rate: f64, seed: u64) -> SampleSet {
        let k = ((rate * self.n_sites() as f64).round() as usize).max(1);
        SampleSet::sample_sites(&self.injector, k, seed)
    }

    /// Infer the fault tolerance boundary from a sample set
    /// (Algorithm 1 + filter operation).
    pub fn infer(&self, samples: &SampleSet, filter: FilterMode) -> Inference {
        infer_boundary(&self.injector, samples, filter)
    }

    /// Run the §3.4 adaptive sampling loop.
    pub fn adaptive(&self, cfg: &AdaptiveConfig) -> AdaptiveResult {
        adaptive_boundary(&self.injector, cfg)
    }

    /// A predictor over the whole experiment space for a boundary.
    pub fn predictor<'b>(&'b self, boundary: &'b Boundary) -> Predictor<'b> {
        Predictor::new(self.golden(), boundary)
    }

    /// Precision/recall of a boundary against exhaustive ground truth.
    pub fn evaluate(&self, boundary: &Boundary, truth: &ExhaustiveResult) -> BoundaryEval {
        BoundaryEval::against_exhaustive(&self.predictor(boundary), truth)
    }

    /// The §3.6 self-verifying uncertainty of a boundary over the samples
    /// it was built from (no ground truth needed).
    pub fn uncertainty(&self, boundary: &Boundary, samples: &SampleSet) -> f64 {
        BoundaryEval::uncertainty(&self.predictor(boundary), samples).precision
    }

    /// Per-site golden vs predicted SDC profile.
    pub fn profile(
        &self,
        boundary: &Boundary,
        truth: &ExhaustiveResult,
        known: Option<&SampleSet>,
    ) -> SdcProfile {
        SdcProfile::new(truth, &self.predictor(boundary), known)
    }

    /// The statistical-fault-injection baseline (uniform Monte Carlo).
    pub fn monte_carlo(&self, n: u64, level: f64, seed: u64) -> MonteCarloEstimate {
        monte_carlo(&self.injector, n, level, seed)
    }

    /// Plan selective protection for `budget` sites from a boundary's
    /// predictions (see [`ProtectionPlan`]).
    pub fn protection_plan(
        &self,
        boundary: &Boundary,
        known: Option<&SampleSet>,
        budget: usize,
    ) -> ProtectionPlan {
        ProtectionPlan::rank(&self.predictor(boundary), known, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_kernels::{MatvecConfig, MatvecKernel};

    fn session(k: &MatvecKernel) -> Analysis<'_> {
        Analysis::new(k, Classifier::new(1e-6))
    }

    #[test]
    fn end_to_end_uniform_pipeline() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 5,
            ..MatvecConfig::small()
        });
        let a = session(&k);
        let truth = a.exhaustive();
        let samples = a.sample_uniform(0.5, 3);
        let inf = a.infer(&samples, FilterMode::PerSite);
        let eval = a.evaluate(&inf.boundary, &truth);
        let unc = a.uncertainty(&inf.boundary, &samples);
        assert!(eval.precision > 0.8, "precision {}", eval.precision);
        assert!(eval.recall > 0.0);
        assert!(unc > 0.8, "uncertainty {unc}");
        // self-verification: uncertainty approximates precision
        assert!(
            (unc - eval.precision).abs() < 0.2,
            "uncertainty {unc} far from precision {}",
            eval.precision
        );
    }

    #[test]
    fn golden_boundary_beats_inferred_recall() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 5,
            ..MatvecConfig::small()
        });
        let a = session(&k);
        let truth = a.exhaustive();
        let gb = a.golden_boundary(&truth);
        let samples = a.sample_uniform(0.2, 3);
        let inf = a.infer(&samples, FilterMode::PerSite);
        let golden_eval = a.evaluate(&gb, &truth);
        let inferred_eval = a.evaluate(&inf.boundary, &truth);
        assert!(golden_eval.recall >= inferred_eval.recall);
    }

    #[test]
    fn profile_dimensions_match() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 5,
            ..MatvecConfig::small()
        });
        let a = session(&k);
        let truth = a.exhaustive();
        let samples = a.sample_uniform(0.3, 9);
        let inf = a.infer(&samples, FilterMode::PerSite);
        let profile = a.profile(&inf.boundary, &truth, Some(&samples));
        assert_eq!(profile.golden.len(), a.n_sites());
        assert_eq!(profile.predicted.len(), a.n_sites());
        let (g, p) = profile.overall();
        assert!((0.0..=1.0).contains(&g));
        assert!((0.0..=1.0).contains(&p));
        // assumed-SDC convention: prediction never underestimates overall
        // SDC by much at moderate rates
        assert!(p >= g - 0.05, "golden {g} predicted {p}");
    }

    #[test]
    fn adaptive_via_facade() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 5,
            ..MatvecConfig::small()
        });
        let a = session(&k);
        let res = a.adaptive(&AdaptiveConfig {
            round_fraction: 0.02,
            ..Default::default()
        });
        assert!(!res.samples.is_empty());
        let truth = a.exhaustive();
        let eval = a.evaluate(&res.inference.boundary, &truth);
        assert!(
            eval.precision > 0.8,
            "adaptive precision {}",
            eval.precision
        );
    }

    #[test]
    fn monte_carlo_via_facade() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 5,
            ..MatvecConfig::small()
        });
        let a = session(&k);
        let est = a.monte_carlo(200, 0.95, 4);
        assert_eq!(est.n, 200);
    }
}
