//! Lane-batched tracing: N fault-injected runs advance together.
//!
//! Experiments that resume from the same section snapshot share their
//! entire prefix and differ only in the single bit each one flips.
//! [`BatchTracer`] exploits that: the kernel executes **once** over a
//! structure-of-arrays state (element-major, lane-minor), and every
//! dynamic instruction passes one *row* of per-lane values through
//! [`BatchTracer::row`]. The cursor is shared — which is sound exactly
//! for branch-free kernels whose trip counts are data-independent, so
//! every lane executes the identical dynamic-instruction sequence — while
//! quantisation, fault flips and the non-finite trap are applied per
//! lane. Batched runs classify outcomes only, so nothing is compared
//! against the golden trace.
//!
//! Lanes retire mid-run (bitwise reconvergence, contraction certificate,
//! or the kernel's own trap break); [`BatchTracer::compact_lanes`] and
//! [`compact_soa`] drop retired lanes in place, preserving the relative
//! order of survivors so the remaining sweep touches only live state.

use crate::bits::Precision;
use crate::tracer::FaultSpec;

/// A lane-batched tracer: one shared cursor, per-lane fault state.
///
/// Semantically equivalent to `lanes` independent
/// `Tracer::inject(.., RecordMode::OutputOnly).resume_at(cursor, 0, ..)`
/// tracers, restricted to branch-free kernels: per lane, the quantise →
/// flip-at-site → non-finite-trap pipeline of `Tracer::value` is
/// reproduced bit-for-bit.
#[derive(Debug)]
pub struct BatchTracer {
    precision: Precision,
    cursor: usize,
    /// Next dynamic index at which some live lane's fault fires
    /// (`usize::MAX` once every fault has fired). Keeps the per-row hot
    /// path free of per-lane site tests: rows only take the flip path
    /// when the shared cursor reaches this watermark.
    next_site: usize,
    sites: Vec<usize>,
    bits: Vec<u8>,
    injected_errs: Vec<Option<f64>>,
    first_nonfinite: Vec<Option<usize>>,
}

impl BatchTracer {
    /// A batch of fault-injected lanes resuming at `cursor` (each lane's
    /// fault site must lie at or past the resume point, mirroring
    /// `Tracer::resume_at`).
    pub fn resumed(precision: Precision, faults: &[FaultSpec], cursor: usize) -> Self {
        for f in faults {
            assert!(
                f.site >= cursor,
                "fault site {} lies inside the skipped prefix (resume cursor {cursor})",
                f.site
            );
            assert!(
                f.bit < precision.bits(),
                "bit {} out of range for {:?}",
                f.bit,
                precision
            );
        }
        let lanes = faults.len();
        BatchTracer {
            precision,
            cursor,
            next_site: faults.iter().map(|f| f.site).min().unwrap_or(usize::MAX),
            sites: faults.iter().map(|f| f.site).collect(),
            bits: faults.iter().map(|f| f.bit).collect(),
            injected_errs: vec![None; lanes],
            first_nonfinite: vec![None; lanes],
        }
    }

    /// Trace one dynamic instruction across all live lanes. `vals[l]` is
    /// lane `l`'s produced value; it is quantised (and possibly flipped)
    /// in place, exactly as `Tracer::value` would return it.
    ///
    /// The hot path is branch-free per lane: fault flips only run on the
    /// row the `next_site` watermark names, and non-finite bookkeeping
    /// only when a vectorisable all-finite scan fails.
    #[inline(always)]
    pub fn row(&mut self, vals: &mut [f64]) {
        debug_assert_eq!(vals.len(), self.sites.len(), "row width != lane count");
        let idx = self.cursor;
        self.cursor = idx + 1;
        if self.precision == Precision::F32 {
            for v in vals.iter_mut() {
                *v = *v as f32 as f64;
            }
        }
        if idx == self.next_site {
            self.flip_lanes(idx, vals);
        }
        let mut all_finite = true;
        for &v in vals.iter() {
            all_finite &= v.is_finite();
        }
        if !all_finite {
            self.note_nonfinite(idx, vals);
        }
    }

    /// Fire every fault scheduled at dynamic index `idx` (values are
    /// already quantised) and advance the watermark to the next pending
    /// site.
    #[cold]
    fn flip_lanes(&mut self, idx: usize, vals: &mut [f64]) {
        for (l, v) in vals.iter_mut().enumerate() {
            if self.sites[l] == idx {
                let orig = *v;
                let flipped = self.precision.flip(orig, self.bits[l]);
                *v = flipped;
                self.injected_errs[l] = Some(if flipped.is_finite() {
                    (flipped - orig).abs()
                } else {
                    f64::INFINITY
                });
            }
        }
        self.next_site = self
            .sites
            .iter()
            .copied()
            .filter(|&s| s > idx)
            .min()
            .unwrap_or(usize::MAX);
    }

    /// Record first-non-finite indices for the lanes that went non-finite
    /// on this row (off the hot path: rows where every lane is finite
    /// never get here).
    #[cold]
    fn note_nonfinite(&mut self, idx: usize, vals: &[f64]) {
        for (l, &v) in vals.iter().enumerate() {
            if !v.is_finite() && self.first_nonfinite[l].is_none() {
                self.first_nonfinite[l] = Some(idx);
            }
        }
    }

    /// Number of live lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.sites.len()
    }

    /// Shared dynamic-instruction cursor (= every live lane's
    /// `n_dynamic` so far).
    #[inline]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The fault lane `l` carries.
    #[inline]
    pub fn lane_fault(&self, l: usize) -> FaultSpec {
        FaultSpec {
            site: self.sites[l],
            bit: self.bits[l],
        }
    }

    /// Whether lane `l`'s fault has not fired yet (its site is at or past
    /// the shared cursor) — such a lane is still bit-identical to golden
    /// and must not be retired.
    #[inline]
    pub fn lane_fault_pending(&self, l: usize) -> bool {
        self.cursor <= self.sites[l]
    }

    /// Injected-error magnitude of lane `l`, once its fault has fired.
    #[inline]
    pub fn lane_injected_err(&self, l: usize) -> Option<f64> {
        self.injected_errs[l]
    }

    /// Dynamic index of lane `l`'s first non-finite value, once its trap
    /// has fired. Batch lanes have no hang budget: batch-capable kernels
    /// have fixed trip counts, so a lane never runs longer than the
    /// golden run.
    #[inline]
    pub fn lane_first_nonfinite(&self, l: usize) -> Option<usize> {
        self.first_nonfinite[l]
    }

    /// Drop retired lanes: lane `l` survives iff `keep[l]`. Survivors
    /// keep their relative order; lane indices shift down accordingly.
    pub fn compact_lanes(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.sites.len(), "keep mask width");
        let mut w = 0;
        for (r, &kept) in keep.iter().enumerate() {
            if kept {
                self.sites[w] = self.sites[r];
                self.bits[w] = self.bits[r];
                self.injected_errs[w] = self.injected_errs[r];
                self.first_nonfinite[w] = self.first_nonfinite[r];
                w += 1;
            }
        }
        self.sites.truncate(w);
        self.bits.truncate(w);
        self.injected_errs.truncate(w);
        self.first_nonfinite.truncate(w);
        // the retired lanes may have owned the watermark
        self.next_site = self
            .sites
            .iter()
            .copied()
            .filter(|&s| s >= self.cursor)
            .min()
            .unwrap_or(usize::MAX);
    }
}

/// Broadcast a scalar state array into an SoA buffer: element-major,
/// lane-minor (`out[e * lanes + l] = src[e]`).
pub fn broadcast_soa(src: &[f64], lanes: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(src.len() * lanes);
    for &v in src {
        for _ in 0..lanes {
            out.push(v);
        }
    }
    out
}

/// Compact an SoA buffer in place after lane retirement: lane `l`
/// survives iff `keep[l]`. The forward pass is order-preserving and
/// writes never overtake reads (the write index trails the read index
/// because the new lane count is no larger than the old).
pub fn compact_soa(buf: &mut Vec<f64>, lanes: usize, keep: &[bool]) {
    assert_eq!(keep.len(), lanes, "keep mask width");
    assert_eq!(buf.len() % lanes.max(1), 0, "buffer is not lane-aligned");
    let new_lanes = keep.iter().filter(|&&k| k).count();
    if new_lanes == lanes {
        return;
    }
    let n = buf.len() / lanes;
    let mut w = 0;
    for e in 0..n {
        for (l, &k) in keep.iter().enumerate() {
            if k {
                buf[w] = buf[e * lanes + l];
                w += 1;
            }
        }
    }
    buf.truncate(n * new_lanes);
}

/// Extract one lane's column from an SoA buffer as a contiguous array.
pub fn extract_lane(buf: &[f64], lanes: usize, lane: usize) -> Vec<f64> {
    assert!(lane < lanes, "lane {lane} out of {lanes}");
    assert_eq!(buf.len() % lanes, 0, "buffer is not lane-aligned");
    let n = buf.len() / lanes;
    (0..n).map(|e| buf[e * lanes + lane]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::StaticId;
    use crate::tracer::{KernelState, RecordMode, Tracer};

    /// A deterministic pseudo-random value stream (no external RNG).
    fn stream(n: usize) -> Vec<f64> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect()
    }

    /// Every lane of a batch row-for-row matches a solo outcome-only
    /// scalar tracer carrying the same fault and resumed at the same
    /// cursor: values, injected error and trap index.
    #[test]
    fn lanes_match_solo_scalar_tracers_bitwise() {
        const RESUME: usize = 2;
        for precision in [Precision::F64, Precision::F32] {
            let vals = stream(200);
            let faults = [
                FaultSpec { site: 3, bit: 0 },
                FaultSpec {
                    site: 50,
                    bit: precision.bits() - 2,
                }, // exponent: traps
                FaultSpec { site: 199, bit: 7 },
                FaultSpec { site: 500, bit: 1 }, // never reached
            ];
            let mut bt = BatchTracer::resumed(precision, &faults, RESUME);
            let lanes = faults.len();
            let mut row = vec![0.0; lanes];
            let mut solo_vals: Vec<Vec<f64>> = vec![Vec::new(); lanes];
            for &v in &vals[RESUME..] {
                row.iter_mut().for_each(|r| *r = v);
                bt.row(&mut row);
                for (l, sv) in solo_vals.iter_mut().enumerate() {
                    sv.push(row[l]);
                }
            }
            for (l, &fault) in faults.iter().enumerate() {
                let state = KernelState {
                    step: 0,
                    arrays: Vec::new(),
                };
                let mut t = Tracer::inject(precision, fault, RecordMode::OutputOnly)
                    .resume_at(RESUME, 0, state);
                assert!(t.take_resume().is_some());
                let produced: Vec<f64> = vals[RESUME..]
                    .iter()
                    .map(|&v| t.value(StaticId(0), v))
                    .collect();
                let run = t.finish(vec![0.0]);
                assert_eq!(
                    produced.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    solo_vals[l].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{precision:?} lane {l}: traced values diverge"
                );
                assert_eq!(
                    run.injected_err.map(f64::to_bits),
                    bt.lane_injected_err(l).map(f64::to_bits),
                    "{precision:?} lane {l}: injected_err"
                );
                assert_eq!(run.first_nonfinite, bt.lane_first_nonfinite(l));
                assert_eq!(run.n_dynamic, bt.cursor());
            }
            assert_eq!(bt.cursor(), vals.len());
        }
    }

    #[test]
    fn compaction_preserves_survivor_order_and_state() {
        let faults: Vec<FaultSpec> = (0..5)
            .map(|i| FaultSpec {
                site: i * 10,
                bit: 2,
            })
            .collect();
        let mut bt = BatchTracer::resumed(Precision::F64, &faults, 0);
        let mut row = vec![1.0; 5];
        bt.row(&mut row); // fires lane 0's fault at site 0
        let keep = [false, true, true, false, true];
        bt.compact_lanes(&keep);
        assert_eq!(bt.lanes(), 3);
        assert_eq!(bt.lane_fault(0), FaultSpec { site: 10, bit: 2 });
        assert_eq!(bt.lane_fault(2), FaultSpec { site: 40, bit: 2 });

        let mut soa: Vec<f64> = (0..15).map(|i| i as f64).collect(); // 3 elements × 5 lanes
        compact_soa(&mut soa, 5, &keep);
        assert_eq!(soa, vec![1.0, 2.0, 4.0, 6.0, 7.0, 9.0, 11.0, 12.0, 14.0]);
        assert_eq!(extract_lane(&soa, 3, 1), vec![2.0, 7.0, 12.0]);
    }

    #[test]
    fn broadcast_is_element_major_lane_minor() {
        let soa = broadcast_soa(&[1.0, 2.0], 3);
        assert_eq!(soa, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "skipped prefix")]
    fn resume_past_fault_site_panics() {
        let _ = BatchTracer::resumed(Precision::F64, &[FaultSpec { site: 3, bit: 0 }], 5);
    }
}
