//! One-sided streaming propagation extraction.
//!
//! The paper's §5 prices its approach at `8 bytes × dynamic instructions`
//! of golden state per *extraction*, and names computation duplication
//! (a golden re-execution per experiment) as the way around it. This
//! module takes a third route: the golden trace is recorded
//! **once** into a shared, read-only
//! [`GoldenRun`](crate::golden::GoldenRun), and every faulty
//! execution compares its value and branch streams against it *while it
//! runs* — no second golden thread, no channels, and no per-experiment
//! full-trace buffer. The only per-experiment state is a
//! [`CompareScratch`] of nonzero `(site, Δx)` pairs, which a campaign
//! worker reuses across experiments.
//!
//! Semantics are bit-identical to the buffered
//! [`propagation`](crate::compare::propagation) extractor: the comparable
//! window ends at the first control-flow divergence (branch-stream
//! mismatch, or a length difference between the streams), NaN differences
//! are treated as unbounded perturbations, and sites before the fault are
//! exactly zero (the executions are identical up to the flip, so they are
//! skipped rather than compared).

use crate::compare::Propagation;

/// Reusable per-worker accumulator for a streamed comparison: the nonzero
/// `(site, Δx)` pairs of one faulty execution, in cursor order.
///
/// Built once per campaign worker and handed to
/// [`Tracer::comparing`](crate::tracer::Tracer::comparing) for each
/// experiment; the backing allocation is retained between experiments, so
/// a steady-state campaign performs no per-experiment heap traffic.
#[derive(Debug, Default)]
pub struct CompareScratch {
    pub(crate) deltas: Vec<(usize, f64)>,
}

impl CompareScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop any previous experiment's contents (capacity is kept).
    pub(crate) fn clear(&mut self) {
        self.deltas.clear();
    }

    /// The recorded nonzero `(site, Δx)` pairs, cursor-ordered. Valid
    /// after [`Tracer::finish_compare`](crate::tracer::Tracer::finish_compare)
    /// has sealed the window; entries outside the comparable window have
    /// been truncated away.
    pub fn deltas(&self) -> &[(usize, f64)] {
        &self.deltas
    }

    /// Truncate to the comparable window and summarise. Entries are
    /// cursor-ordered, so the cut point is a partition point.
    pub(crate) fn seal(&mut self, compare_len: usize, diverged: bool) -> StreamedWindow {
        let keep = self.deltas.partition_point(|&(site, _)| site < compare_len);
        self.deltas.truncate(keep);
        let max_err = self.deltas.iter().fold(0.0f64, |m, &(_, d)| m.max(d));
        StreamedWindow {
            compare_len,
            diverged,
            max_err,
        }
    }
}

/// Summary of one streamed comparison window (the streamed analogue of
/// the header fields of a [`Propagation`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedWindow {
    /// Dynamic instructions `0 .. compare_len` were comparable.
    pub compare_len: usize,
    /// Whether control flow diverged from the golden run.
    pub diverged: bool,
    /// Largest perturbation inside the window (`0.0` if none).
    pub max_err: f64,
}

/// Rebuild the dense [`Propagation`] record from a sealed streamed
/// comparison — bit-identical to what the buffered extractor
/// [`propagation`](crate::compare::propagation) produces for the same
/// `(kernel, fault)` pair.
pub fn streamed_propagation(
    fault_site: usize,
    window: StreamedWindow,
    scratch: &CompareScratch,
) -> Propagation {
    let injected_at = fault_site.min(window.compare_len);
    let mut errors = vec![0.0; window.compare_len - injected_at];
    for &(site, d) in scratch.deltas() {
        errors[site - injected_at] = d;
    }
    Propagation {
        injected_at,
        compare_len: window.compare_len,
        errors,
        diverged: window.diverged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Precision;
    use crate::compare::propagation;
    use crate::golden::GoldenRun;
    use crate::site::StaticId;
    use crate::tracer::{FaultSpec, RecordMode, Tracer};

    const SID: StaticId = StaticId(0);

    /// Kernel: running sum with a data-dependent early exit (so faults can
    /// change the branch stream).
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

    fn compact(cap: f64) -> GoldenRun {
        let mut t = Tracer::golden(Precision::F64);
        let out = capped_sum(&mut t, cap);
        t.finish_golden(out)
    }

    fn both_paths(cap: f64, fault: FaultSpec) -> (Propagation, Propagation) {
        let golden = compact(cap);

        let mut t = Tracer::inject(Precision::F64, fault, RecordMode::Full);
        let out = capped_sum(&mut t, cap);
        let buffered = propagation(&golden, &t.finish(out));

        let mut scratch = CompareScratch::new();
        let mut t = Tracer::comparing(fault, &golden, &mut scratch);
        let out = capped_sum(&mut t, cap);
        let (_, window) = t.finish_compare(out);
        let streamed = streamed_propagation(fault.site, window, &scratch);
        (buffered, streamed)
    }

    #[test]
    fn matches_buffered_without_divergence() {
        let (b, s) = both_paths(100.0, FaultSpec { site: 0, bit: 10 });
        assert_eq!(b, s);
        assert!(!s.diverged);
        assert_eq!(s.compare_len, 6);
    }

    #[test]
    fn matches_buffered_under_divergence() {
        // sign flip of site 3 delays the early exit: branch streams split
        let (b, s) = both_paths(10.0, FaultSpec { site: 3, bit: 63 });
        assert_eq!(b, s);
        assert!(s.diverged);
    }

    #[test]
    fn matches_buffered_for_unreached_site() {
        let (b, s) = both_paths(100.0, FaultSpec { site: 1000, bit: 1 });
        assert_eq!(b, s);
        assert!(s.errors.is_empty());
    }

    #[test]
    fn matches_buffered_for_nonfinite_corruption() {
        // bit 62 of 1.0 yields +Inf: every later delta is infinite
        let (b, s) = both_paths(100.0, FaultSpec { site: 0, bit: 62 });
        assert_eq!(b, s);
        assert!(s.errors.iter().all(|e| e.is_infinite()));
    }

    #[test]
    fn scratch_is_reusable_across_experiments() {
        let golden = compact(100.0);
        let mut scratch = CompareScratch::new();
        let mut last = None;
        for bit in [10u8, 62, 63] {
            let fault = FaultSpec { site: 1, bit };
            let mut t = Tracer::comparing(fault, &golden, &mut scratch);
            let out = capped_sum(&mut t, 100.0);
            let (_, window) = t.finish_compare(out);
            last = Some(streamed_propagation(fault.site, window, &scratch));
        }
        // the final reuse still matches a fresh buffered extraction
        let (b, _) = both_paths(100.0, FaultSpec { site: 1, bit: 63 });
        assert_eq!(last.unwrap(), b);
    }

    /// [`capped_sum`] with a [`Tracer::should_stop`] poll per step, so a
    /// stopped tracer ends the run.
    fn polled_sum(t: &mut Tracer, cap: f64) -> Vec<f64> {
        let mut acc = 0.0;
        for i in 1..=6 {
            if t.should_stop() {
                break;
            }
            acc = t.value(SID, acc + i as f64);
            if t.branch(acc > cap) {
                break;
            }
        }
        vec![acc]
    }

    #[test]
    fn stopped_window_is_the_whole_window_cut_at_stop() {
        // cap 10: the sign flip at site 1 delays the early exit, so the
        // branch streams split at cursor 4
        for (cap, fault) in [
            (100.0, FaultSpec { site: 1, bit: 30 }),
            (10.0, FaultSpec { site: 1, bit: 63 }),
        ] {
            let golden = compact(cap);
            let mut scratch = CompareScratch::new();
            let mut t = Tracer::comparing(fault, &golden, &mut scratch);
            let out = polled_sum(&mut t, cap);
            let (_, whole) = t.finish_compare(out);
            let whole_deltas = scratch.deltas().to_vec();
            assert_eq!(whole.diverged, cap == 10.0);
            for stop in fault.site..=whole.compare_len + 1 {
                let mut t = Tracer::comparing(fault, &golden, &mut scratch).with_stop(stop);
                let out = polled_sum(&mut t, cap);
                let (run, window) = t.finish_compare(out);
                let cut: Vec<_> = whole_deltas
                    .iter()
                    .copied()
                    .filter(|&(s, _)| s < stop)
                    .collect();
                assert_eq!(scratch.deltas(), &cut[..], "cap {cap} stop {stop}");
                assert_eq!(window.compare_len, whole.compare_len.min(stop));
                assert_eq!(window.diverged, whole.diverged && stop > whole.compare_len);
                // the run ended at the first poll past the stop
                assert!(run.n_dynamic <= stop + 1, "cap {cap} stop {stop}");
            }
        }
    }

    #[test]
    fn window_max_err_matches_propagation() {
        let golden = compact(100.0);
        let fault = FaultSpec { site: 2, bit: 30 };
        let mut scratch = CompareScratch::new();
        let mut t = Tracer::comparing(fault, &golden, &mut scratch);
        let out = capped_sum(&mut t, 100.0);
        let (_, window) = t.finish_compare(out);
        let expect = scratch.deltas().iter().fold(0.0f64, |m, &(_, d)| m.max(d));
        assert_eq!(window.max_err, expect);
        assert!(window.max_err > 0.0);
    }
}
