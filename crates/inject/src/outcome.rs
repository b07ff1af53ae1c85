//! Outcome classification of fault-injected runs.

use ftb_trace::norms::Norm;
use ftb_trace::{GoldenRun, RunTrace};
use serde::{Deserialize, Serialize};

/// Why a run is considered crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CrashKind {
    /// A non-finite value was produced within the hang budget (the
    /// NaN-exception model — the paper's example: "a variable value could
    /// be corrupted such that it causes a NaN exception").
    NonFinite,
    /// The run executed more dynamic instructions than the hang budget
    /// ([`Classifier::budget`]): an iterative solver spinning without
    /// converging, stopped at the budget as a watchdog would stop it. A
    /// non-finite value after the budget is never observed.
    Hang,
}

/// The paper's three outcome categories (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// Output acceptable within the domain tolerance.
    Masked,
    /// Silent data corruption: normal termination, unacceptable output.
    Sdc,
    /// Abnormal termination.
    Crash(CrashKind),
}

impl Outcome {
    /// Compact code for dense campaign storage (2 bits of information).
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            Outcome::Masked => 0,
            Outcome::Sdc => 1,
            Outcome::Crash(CrashKind::NonFinite) => 2,
            Outcome::Crash(CrashKind::Hang) => 3,
        }
    }

    /// Inverse of [`Outcome::code`].
    ///
    /// # Panics
    /// Panics on codes ≥ 4.
    #[inline]
    pub fn from_code(c: u8) -> Self {
        match c {
            0 => Outcome::Masked,
            1 => Outcome::Sdc,
            2 => Outcome::Crash(CrashKind::NonFinite),
            3 => Outcome::Crash(CrashKind::Hang),
            _ => panic!("invalid outcome code {c}"),
        }
    }

    /// Whether this outcome is Masked.
    #[inline]
    pub fn is_masked(self) -> bool {
        matches!(self, Outcome::Masked)
    }

    /// Whether this outcome is SDC.
    #[inline]
    pub fn is_sdc(self) -> bool {
        matches!(self, Outcome::Sdc)
    }

    /// Whether this outcome is a crash of either kind.
    #[inline]
    pub fn is_crash(self) -> bool {
        matches!(self, Outcome::Crash(_))
    }
}

/// Classifies run outcomes against a golden run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Classifier {
    /// The domain user's output tolerance `T`: outputs within `T` under
    /// `norm` are acceptable (Masked).
    pub tolerance: f64,
    /// Output-comparison norm (the paper uses L∞).
    pub norm: Norm,
    /// A run executing more than `hang_factor × golden` dynamic
    /// instructions is a crash (hang); see [`Classifier::budget`]. Set to
    /// `f64::INFINITY` to disable. Must be at least 1 (the golden run
    /// itself is no hang); [`Injector`](crate::Injector) refuses less.
    pub hang_factor: f64,
    /// Whether a produced non-finite value is a crash (the NaN-exception
    /// model). When `false`, non-finite outputs classify as SDC via the
    /// norm (which reports `∞` distance for them).
    pub trap_nonfinite: bool,
}

impl Classifier {
    /// A classifier with the paper's defaults: L∞ norm, NaN trap on,
    /// hang bound 4× golden length.
    pub fn new(tolerance: f64) -> Self {
        Classifier {
            tolerance,
            norm: Norm::LInf,
            hang_factor: 4.0,
            trap_nonfinite: true,
        }
    }

    /// The hang budget for a golden run of `golden_n` dynamic
    /// instructions: `floor(hang_factor × golden_n)`, or `usize::MAX` when
    /// `hang_factor` is infinite. A run executing more instructions than
    /// this is a hang. The one definition of the bound: the classifier
    /// applies it, and outcome campaigns hand it to the tracer as a stop
    /// index ([`Tracer::with_budget`](ftb_trace::Tracer::with_budget)).
    pub fn budget(&self, golden_n: usize) -> usize {
        if self.hang_factor == f64::INFINITY {
            usize::MAX
        } else {
            // `as` saturates, so a huge finite factor degrades to MAX
            (self.hang_factor * golden_n as f64).floor() as usize
        }
    }

    /// Classify a fault-injected run. Returns the outcome and the output
    /// error under the classifier's norm.
    ///
    /// The result depends only on the run's first `budget` dynamic
    /// instructions ([`Classifier::budget`]): a non-finite value is a
    /// crash only if it appeared before the budget, and a run past the
    /// budget is a hang whatever it did afterwards, with output error
    /// `+∞` (its output is never observed). So a run stopped just past
    /// its budget and the same run executed to completion classify
    /// identically, bit for bit.
    pub fn classify(&self, golden: &GoldenRun, run: &RunTrace) -> (Outcome, f64) {
        let budget = self.budget(golden.n_dynamic);
        if self.trap_nonfinite && run.first_nonfinite.is_some_and(|i| i < budget) {
            let dist = self.norm.distance(&golden.output, &run.output);
            return (Outcome::Crash(CrashKind::NonFinite), dist);
        }
        if run.n_dynamic > budget {
            return (Outcome::Crash(CrashKind::Hang), f64::INFINITY);
        }
        let dist = self.norm.distance(&golden.output, &run.output);
        if dist <= self.tolerance {
            (Outcome::Masked, dist)
        } else {
            (Outcome::Sdc, dist)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_trace::{Precision, StaticId, Tracer};

    fn golden_of(vals: &[f64]) -> GoldenRun {
        let mut t = Tracer::golden(Precision::F64);
        for &v in vals {
            t.value(StaticId(0), v);
        }
        t.finish_golden(vals.to_vec())
    }

    fn run_of(vals: &[f64]) -> RunTrace {
        RunTrace {
            values: None,
            branches: None,
            output: vals.to_vec(),
            n_dynamic: vals.len(),
            first_nonfinite: None,
            fault: None,
            injected_err: Some(0.0),
        }
    }

    #[test]
    fn within_tolerance_is_masked() {
        let g = golden_of(&[1.0, 2.0]);
        let c = Classifier::new(1e-6);
        let (o, d) = c.classify(&g, &run_of(&[1.0 + 1e-7, 2.0]));
        assert_eq!(o, Outcome::Masked);
        assert!(d > 0.0 && d < 1e-6);
    }

    #[test]
    fn beyond_tolerance_is_sdc() {
        let g = golden_of(&[1.0, 2.0]);
        let c = Classifier::new(1e-6);
        let (o, _) = c.classify(&g, &run_of(&[1.1, 2.0]));
        assert_eq!(o, Outcome::Sdc);
    }

    #[test]
    fn exactly_at_tolerance_is_masked() {
        let g = golden_of(&[1.0]);
        let c = Classifier::new(0.5);
        let (o, _) = c.classify(&g, &run_of(&[1.5]));
        assert_eq!(o, Outcome::Masked, "tolerance is inclusive (ε ≤ T)");
    }

    #[test]
    fn nonfinite_trap_is_crash() {
        let g = golden_of(&[1.0]);
        let c = Classifier::new(1e-6);
        let mut r = run_of(&[1.0]);
        r.first_nonfinite = Some(0);
        let (o, _) = c.classify(&g, &r);
        assert_eq!(o, Outcome::Crash(CrashKind::NonFinite));
    }

    #[test]
    fn trap_disabled_classifies_nan_output_as_sdc() {
        let g = golden_of(&[1.0]);
        let mut c = Classifier::new(1e-6);
        c.trap_nonfinite = false;
        let mut r = run_of(&[f64::NAN]);
        r.first_nonfinite = Some(0);
        let (o, d) = c.classify(&g, &r);
        assert_eq!(o, Outcome::Sdc);
        assert_eq!(d, f64::INFINITY);
    }

    #[test]
    fn runaway_execution_is_hang() {
        let g = golden_of(&[1.0]);
        let c = Classifier::new(1e-6);
        let mut r = run_of(&[1.0]);
        r.n_dynamic = 100;
        let (o, _) = c.classify(&g, &r);
        assert_eq!(o, Outcome::Crash(CrashKind::Hang));
    }

    #[test]
    fn runaway_execution_reports_unobserved_output() {
        // the hang's output is never observed, even when it is golden
        let g = golden_of(&[1.0]);
        let c = Classifier::new(1e-6);
        let mut r = run_of(&[1.0]);
        r.n_dynamic = 5;
        assert_eq!(
            c.classify(&g, &r),
            (Outcome::Crash(CrashKind::Hang), f64::INFINITY)
        );
    }

    /// A golden run of 10 instructions under the default factor 4: the
    /// budget is 40.
    fn budget_fixture() -> (GoldenRun, Classifier) {
        let g = golden_of(&[1.0; 10]);
        let c = Classifier::new(1e-6);
        assert_eq!(c.budget(g.n_dynamic), 40);
        (g, c)
    }

    #[test]
    fn nan_just_inside_budget_is_nonfinite() {
        let (g, c) = budget_fixture();
        let mut r = run_of(&[f64::NAN]);
        r.n_dynamic = 40;
        r.first_nonfinite = Some(39);
        let (o, d) = c.classify(&g, &r);
        assert_eq!(o, Outcome::Crash(CrashKind::NonFinite));
        assert_eq!(d, f64::INFINITY, "NaN output is at infinite distance");
        // ...and still NonFinite when the run then ran past the budget
        r.n_dynamic = 1000;
        assert_eq!(c.classify(&g, &r).0, Outcome::Crash(CrashKind::NonFinite));
    }

    #[test]
    fn nan_at_or_past_budget_is_hang() {
        let (g, c) = budget_fixture();
        for at in [40, 41, 500] {
            let mut r = run_of(&[1.0]);
            r.n_dynamic = at + 1;
            r.first_nonfinite = Some(at);
            assert_eq!(
                c.classify(&g, &r),
                (Outcome::Crash(CrashKind::Hang), f64::INFINITY),
                "NaN at {at}"
            );
        }
    }

    #[test]
    fn run_of_exactly_budget_is_not_hang() {
        let (g, c) = budget_fixture();
        let mut r = run_of(&[1.0; 10]);
        r.n_dynamic = 40;
        assert_eq!(c.classify(&g, &r), (Outcome::Masked, 0.0));
        r.n_dynamic = 41;
        assert_eq!(c.classify(&g, &r).0, Outcome::Crash(CrashKind::Hang));
    }

    #[test]
    fn budget_floors_fractional_factors() {
        let mut c = Classifier::new(1e-6);
        c.hang_factor = 1.25;
        assert_eq!(c.budget(10), 12);
        assert_eq!(c.budget(8), 10);
        c.hang_factor = 1.0;
        assert_eq!(c.budget(7), 7);
    }

    #[test]
    fn infinite_factor_has_no_budget() {
        let mut c = Classifier::new(1e-6);
        c.hang_factor = f64::INFINITY;
        assert_eq!(c.budget(10), usize::MAX);
        assert_eq!(c.budget(0), usize::MAX);
        let g = golden_of(&[1.0]);
        let mut r = run_of(&[f64::NAN]);
        r.n_dynamic = 1 << 40;
        r.first_nonfinite = Some(1 << 39);
        assert_eq!(c.classify(&g, &r).0, Outcome::Crash(CrashKind::NonFinite));
    }

    #[test]
    fn output_length_mismatch_is_sdc() {
        let g = golden_of(&[1.0, 2.0]);
        let c = Classifier::new(1e-6);
        let (o, d) = c.classify(&g, &run_of(&[1.0]));
        assert_eq!(o, Outcome::Sdc);
        assert_eq!(d, f64::INFINITY);
    }

    #[test]
    fn code_roundtrip() {
        for o in [
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::Crash(CrashKind::NonFinite),
            Outcome::Crash(CrashKind::Hang),
        ] {
            assert_eq!(Outcome::from_code(o.code()), o);
        }
    }

    #[test]
    fn predicates() {
        assert!(Outcome::Masked.is_masked());
        assert!(Outcome::Sdc.is_sdc());
        assert!(Outcome::Crash(CrashKind::Hang).is_crash());
        assert!(!Outcome::Masked.is_sdc());
    }

    #[test]
    #[should_panic]
    fn bad_code_panics() {
        let _ = Outcome::from_code(7);
    }
}
