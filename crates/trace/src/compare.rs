//! Golden-vs-faulty trace comparison: the error-propagation extractor.
//!
//! This implements the paper's §2.2: the error at dynamic instruction `i`
//! is `Δx_i = |x_i − x'_i|`, tracked **only until the computation
//! diverges** — "without the same computation sequence, defining an error
//! represents a fundamental challenge". Divergence is detected by
//! comparing the branch-outcome streams of the two runs; the comparison
//! window ends at the dynamic-instruction cursor of the first mismatching
//! branch event.

use crate::golden::{GoldenRun, GoldenValues, RunTrace};
use serde::{Deserialize, Serialize};

/// Per-dynamic-instruction perturbation of one fault-injected run relative
/// to the golden run (the curve of the paper's Figure 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Propagation {
    /// Fault site the run was injected at.
    pub injected_at: usize,
    /// Dynamic instructions `0 .. compare_len` are comparable (identical
    /// control flow up to here).
    pub compare_len: usize,
    /// `Δx_i` for `i` in `injected_at .. compare_len`; indices before the
    /// injection site are identically zero and not stored.
    pub errors: Vec<f64>,
    /// Whether control flow diverged before the end of the golden run.
    pub diverged: bool,
}

impl Propagation {
    /// The perturbation at dynamic instruction `site`, or `None` outside
    /// the comparable window (before injection the error is exactly zero
    /// and `Some(0.0)` is returned).
    #[inline]
    pub fn error_at(&self, site: usize) -> Option<f64> {
        if site >= self.compare_len {
            None
        } else if site < self.injected_at {
            Some(0.0)
        } else {
            Some(self.errors[site - self.injected_at])
        }
    }

    /// Iterate `(site, Δx)` over the stored window.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.errors
            .iter()
            .enumerate()
            .map(move |(k, &e)| (self.injected_at + k, e))
    }

    /// Number of sites with a perturbation strictly above `threshold`.
    pub fn touched(&self, threshold: f64) -> usize {
        self.errors.iter().filter(|&&e| e > threshold).count()
    }
}

/// Dynamic-instruction cursor at which the two branch streams first
/// disagree, or `None` if the shorter stream is a prefix of the longer
/// *and* both have equal length (i.e. no divergence at all).
///
/// A length difference with an identical common prefix still means the
/// executions separated (one run kept looping after the other stopped);
/// the divergence point is then the cursor of the first unmatched event.
pub fn divergence_cursor(golden: &[u64], faulty: &[u64]) -> Option<usize> {
    let n = golden.len().min(faulty.len());
    for i in 0..n {
        if golden[i] != faulty[i] {
            // events encode (cursor << 1) | taken; divergence where the
            // earlier of the two mismatching events sits
            let gc = (golden[i] >> 1) as usize;
            let fc = (faulty[i] >> 1) as usize;
            return Some(gc.min(fc));
        }
    }
    match golden.len().cmp(&faulty.len()) {
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Less => Some((faulty[n] >> 1) as usize),
        std::cmp::Ordering::Greater => Some((golden[n] >> 1) as usize),
    }
}

/// Extract the propagation data of a fault-injected, fully recorded run.
///
/// # Panics
/// Panics if `faulty` carries no fault or was not recorded with
/// `RecordMode::Full`.
#[expect(clippy::expect_used, reason = "documented panic")]
pub fn propagation(golden: &GoldenRun, faulty: &RunTrace) -> Propagation {
    let fault = faulty
        .fault
        .expect("propagation requires a fault-injected run");
    let fvalues = faulty
        .values
        .as_ref()
        .expect("propagation requires RecordMode::Full values");
    let fbranches = faulty
        .branches
        .as_ref()
        .expect("propagation requires RecordMode::Full branches");

    let div = divergence_cursor(&golden.branches, fbranches);
    let mut compare_len = golden.n_dynamic.min(fvalues.len());
    if let Some(d) = div {
        compare_len = compare_len.min(d);
    }

    let injected_at = fault.site.min(compare_len);
    let window = injected_at..compare_len;
    let faulty = &fvalues[window.clone()];
    let delta = |g: f64, f: f64| {
        let d = (g - f).abs();
        // a NaN difference (faulty value went non-finite inside the
        // window) is an unbounded perturbation
        if d.is_nan() {
            f64::INFINITY
        } else {
            d
        }
    };
    let errors: Vec<f64> = match golden.values_view() {
        GoldenValues::F32(g) => g[window]
            .iter()
            .zip(faulty)
            .map(|(&g, &f)| delta(f64::from(g), f))
            .collect(),
        GoldenValues::F64(g) => g[window]
            .iter()
            .zip(faulty)
            .map(|(&g, &f)| delta(g, f))
            .collect(),
    };

    Propagation {
        injected_at,
        compare_len,
        errors,
        diverged: div.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Precision;
    use crate::site::StaticId;
    use crate::tracer::{FaultSpec, RecordMode, Tracer};

    const SID: StaticId = StaticId(0);

    /// Kernel: running sum of i, with a data-dependent early exit when the
    /// sum exceeds `cap`.
    fn capped_sum(t: &mut Tracer, cap: f64) -> Vec<f64> {
        let mut acc = 0.0;
        for i in 1..=6 {
            acc = t.value(SID, acc + i as f64);
            if t.branch(acc > cap) {
                break;
            }
        }
        vec![acc]
    }

    fn golden(cap: f64) -> GoldenRun {
        let mut t = Tracer::golden(Precision::F64);
        let out = capped_sum(&mut t, cap);
        t.finish_golden(out)
    }

    #[test]
    fn no_divergence_on_identical_streams() {
        let g = golden(100.0);
        assert_eq!(divergence_cursor(&g.branches, &g.branches), None);
    }

    #[test]
    fn propagation_of_masked_flip() {
        let g = golden(100.0); // runs all 6 iterations, acc = 21
                               // flip mantissa bit 10 of site 0 (acc = 1.0): a 2^-42 error, small
                               // but well above the ulp of every later sum (max 21, ulp 2^-48),
                               // so it propagates additively and exactly through every later sum
        let f = FaultSpec { site: 0, bit: 10 };
        let mut t = Tracer::inject(Precision::F64, f, RecordMode::Full);
        let out = capped_sum(&mut t, 100.0);
        let r = t.finish(out);
        let p = propagation(&g, &r);
        assert!(!p.diverged);
        assert_eq!(p.injected_at, 0);
        assert_eq!(p.compare_len, 6);
        let inj = r.injected_err.unwrap();
        assert!(inj > 0.0);
        // additive propagation: every subsequent site carries exactly the
        // injected perturbation
        for (_, e) in p.iter() {
            assert!((e - inj).abs() < 1e-15, "e={e} inj={inj}");
        }
    }

    #[test]
    fn error_at_respects_window() {
        let g = golden(100.0);
        let f = FaultSpec { site: 2, bit: 1 };
        let mut t = Tracer::inject(Precision::F64, f, RecordMode::Full);
        let out = capped_sum(&mut t, 100.0);
        let p = propagation(&g, &t.finish(out));
        assert_eq!(p.error_at(0), Some(0.0));
        assert_eq!(p.error_at(1), Some(0.0));
        assert!(p.error_at(2).unwrap() > 0.0);
        assert_eq!(p.error_at(6), None);
    }

    #[test]
    fn control_flow_divergence_truncates_window() {
        // golden exits when acc > 10 (after i=5, acc=15, 5 sites).
        let g = golden(10.0);
        assert_eq!(g.n_dynamic, 5);
        // flipping the sign of site 3 (acc=10 -> -10) delays the exit:
        // faulty run keeps iterating, so branch streams diverge at the
        // event following site 3.
        let f = FaultSpec { site: 3, bit: 63 };
        let mut t = Tracer::inject(Precision::F64, f, RecordMode::Full);
        let out = capped_sum(&mut t, 10.0);
        let r = t.finish(out);
        let p = propagation(&g, &r);
        assert!(p.diverged);
        // comparable only through the site whose branch outcome changed
        assert!(p.compare_len <= 5);
        assert!(p.compare_len >= 4);
    }

    #[test]
    fn divergence_by_length_difference() {
        let a = vec![(1u64 << 1) | 1, (2 << 1) | 1];
        let b = vec![(1u64 << 1) | 1, (2 << 1) | 1, 3 << 1];
        assert_eq!(divergence_cursor(&a, &b), Some(3));
        assert_eq!(divergence_cursor(&b, &a), Some(3));
    }

    #[test]
    fn divergence_takes_earlier_cursor() {
        let a = vec![(5u64 << 1) | 1];
        let b = vec![(3u64 << 1) | 1];
        assert_eq!(divergence_cursor(&a, &b), Some(3));
    }

    #[test]
    fn nonfinite_corruption_is_infinite_error() {
        let g = golden(100.0);
        // setting bit 62 of site 0's value 1.0 yields +Inf; every later
        // sum is then non-finite, so all window errors are infinite
        let f = FaultSpec { site: 0, bit: 62 };
        let mut t = Tracer::inject(Precision::F64, f, RecordMode::Full);
        let out = capped_sum(&mut t, 100.0);
        let r = t.finish(out);
        assert_eq!(r.first_nonfinite, Some(0));
        let p = propagation(&g, &r);
        for (_, e) in p.iter() {
            assert!(e.is_infinite());
        }
    }

    #[test]
    fn touched_counts_significant_sites() {
        let g = golden(100.0);
        let f = FaultSpec { site: 0, bit: 10 };
        let mut t = Tracer::inject(Precision::F64, f, RecordMode::Full);
        let out = capped_sum(&mut t, 100.0);
        let p = propagation(&g, &t.finish(out));
        assert_eq!(p.touched(0.0), 6);
        assert_eq!(p.touched(f64::INFINITY), 0);
    }

    #[test]
    #[should_panic]
    fn propagation_requires_full_record() {
        let g = golden(100.0);
        let f = FaultSpec { site: 0, bit: 2 };
        let mut t = Tracer::inject(Precision::F64, f, RecordMode::OutputOnly);
        let out = capped_sum(&mut t, 100.0);
        let _ = propagation(&g, &t.finish(out));
    }
}
