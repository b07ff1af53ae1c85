//! Lane-batched campaign execution over shared snapshots, and the one
//! boundary monitor every outcome run shares.
//!
//! Experiments whose fault sites are served by the *same* golden-run
//! snapshot share their entire resume prefix: the live state, the tracer
//! cursor, and — for branch-free kernels with data-independent trip
//! counts — the whole remaining dynamic-instruction sequence. The batch
//! engine exploits that by running up to `lanes` such experiments as one
//! sweep over a structure-of-arrays state ([`ftb_trace::BatchTracer`],
//! [`ftb_kernels::Kernel::run_batch_resumed`]), amortising the kernel's
//! address arithmetic and the shared read-only arrays across all lanes.
//! It is an outcome-only path: like `Injector::run_one`, it classifies
//! each lane from its final output and compares nothing against the
//! golden trace on the way. A fault before the first retained boundary
//! has no serving snapshot; it runs on its own, from scratch, as one
//! more job of the same self-scheduled job list ([`Job`]).
//!
//! Every outcome run under a snapshot store — a lane of a chunk, a
//! scalar run resumed from a snapshot, or a scalar run from scratch —
//! is watched by the same rule at each retained boundary past its
//! fault, applied in this order:
//!
//! 1. a lane whose kernel trap-breaks at section bottoms retires with
//!    the state it holds at that boundary (the scalar run breaks out of
//!    its loop there and classifies a `NonFinite` crash);
//! 2. a lane whose fault has not fired yet (`cursor <= site`) is never
//!    retired — it is still bit-identical to golden;
//! 3. a run whose compared state matches the retained golden boundary
//!    bitwise exits as `(Masked, 0.0)` (bitwise reconvergence);
//! 4. with certified exits enabled, a run whose state deviation admits
//!    a contraction-certificate bound within tolerance exits as
//!    `(Masked, bound)`.
//!
//! Only the arrays the kernel mutates are compared: one it marks
//! read-only ([`Kernel::batch_laned_arrays`]) is the same at every
//! boundary (asserted by `SnapshotStore::capture`), so it is golden in
//! a resumed run. A run from scratch may carry its fault in one, so
//! [`ScalarWatch`] compares those once and, if they differ, stops
//! watching.
//!
//! Retired lanes are compacted out of the SoA buffers in place
//! ([`ftb_trace::compact_soa`]); the remaining sweep touches only live
//! state. Lanes that run to completion classify through the ordinary
//! [`Classifier`] on a synthesised [`RunTrace`] whose output column is
//! extracted from the laned output buffer — the same values, bit for
//! bit, a scalar resumed run would have produced.

use crate::experiment::Experiment;
use crate::outcome::{Classifier, Outcome};
use crate::snapshot::{bits_eq, Snapshot, SnapshotStore};
use ftb_kernels::{Kernel, MAX_BATCH_LANES};
use ftb_trace::{compact_soa, extract_lane, BatchTracer, FaultSpec, GoldenRun, RunTrace};

/// Per-lane results of one row-major boundary scan over the laned SoA
/// buffers: bitwise equality with the golden boundary and (when
/// certificates are live) per-slot L∞ deviations.
struct LaneScan {
    /// `eq[l]`: lane `l`'s laned state matches the boundary bitwise.
    eq: Vec<bool>,
    /// Every laned buffer had the expected `golden_len × lanes` shape;
    /// certificates refuse when it does not.
    shape_ok: bool,
    /// `devs[j][l]`: lane `l`'s L∞ deviation on the `j`-th laned slot
    /// (zeros when certificates are off — never read in that case).
    devs: Vec<Vec<f64>>,
}

/// A unit of a batched plan, claimed by whichever worker is free: a
/// lane chunk, or the plan position of a fault no snapshot serves, run
/// scalar from scratch under the boundary monitor.
pub(crate) enum Job {
    Lanes(BatchChunk),
    Scalar(usize),
}

/// A group of faults served by one snapshot, at most `lanes` wide, with
/// their positions in the caller's plan (for scattering results back
/// into input order).
pub(crate) struct BatchChunk {
    snap_idx: usize,
    /// Plan positions, parallel to `faults`.
    pub(crate) idxs: Vec<usize>,
    faults: Vec<FaultSpec>,
}

/// The lane-batched execution engine, whose boundary checks are also
/// the monitor of scalar runs (their one-lane instance, [`ScalarWatch`]):
/// everything a chunk run needs, borrowed from the owning `Injector`.
#[derive(Clone, Copy)]
pub(crate) struct BatchEngine<'a> {
    pub kernel: &'a dyn Kernel,
    pub golden: &'a GoldenRun,
    pub classifier: &'a Classifier,
    pub store: &'a SnapshotStore,
    /// The classifier tolerance when a contraction certificate can fire
    /// — requested, under the L∞ norm, and offered by the kernel, decided
    /// once per injector; `None` scans for bitwise equality only.
    pub certify: Option<f64>,
    pub lanes: usize,
}

impl BatchEngine<'_> {
    /// Partition a plan into one job list: each fault with no serving
    /// snapshot (a pre-first-boundary site) is a scalar job, listed
    /// first so that the one which never reconverges starts early and
    /// overlaps the lane chunks; faults served by the same snapshot
    /// group into chunks of at most `min(lanes, MAX_BATCH_LANES)` (each
    /// lane's result is independent of the width it runs at, so wider
    /// configurations only change how the faults are grouped, never
    /// their records). Within a group the plan order is preserved, so
    /// the job list is deterministic.
    pub(crate) fn plan(&self, faults: &[FaultSpec]) -> Vec<Job> {
        let store = self.store;
        let mut jobs = Vec::new();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); store.len()];
        for (i, f) in faults.iter().enumerate() {
            match store.for_site(f.site) {
                Some((s, _)) => groups[s].push(i),
                None => jobs.push(Job::Scalar(i)),
            }
        }
        for (snap_idx, group) in groups.iter().enumerate() {
            for idxs in group.chunks(self.lanes.min(MAX_BATCH_LANES)) {
                jobs.push(Job::Lanes(BatchChunk {
                    snap_idx,
                    idxs: idxs.to_vec(),
                    faults: idxs.iter().map(|&i| faults[i]).collect(),
                }));
            }
        }
        jobs
    }

    /// Run one chunk: a single lane-batched kernel execution resumed
    /// from the chunk's serving snapshot. Returns experiments in chunk
    /// order, each bit-identical to the scalar resumed run of the same
    /// fault.
    #[expect(clippy::expect_used, reason = "every lane exits early or completes")]
    pub(crate) fn run_chunk(&self, chunk: &BatchChunk) -> Vec<Experiment> {
        let (kernel, store) = (self.kernel, self.store);
        let snap = store.get(chunk.snap_idx);
        let state = store.state(snap);
        let n_lanes = chunk.faults.len();
        let mut bt = BatchTracer::resumed(kernel.precision(), &chunk.faults, snap.cursor);
        let laned_mask = kernel.batch_laned_arrays();
        let classified = |run: &RunTrace| {
            let fault = run.fault.expect("an injected run");
            let verdict = self.classifier.classify(self.golden, run);
            Experiment::new(fault, run.injected_err, verdict)
        };

        // records of retired lanes are taken at retirement, since lane
        // compaction destroys per-lane tracer state afterwards
        let mut results: Vec<Option<Experiment>> = vec![None; n_lanes];
        // live lane index -> chunk index, compacted alongside the tracer
        let mut live: Vec<usize> = (0..n_lanes).collect();

        let mut monitor = |bt: &mut BatchTracer,
                           step: u64,
                           trap_break: bool,
                           laned: &mut [&mut Vec<f64>]|
         -> bool {
            let cursor = bt.cursor();
            let lanes = bt.lanes();
            debug_assert_eq!(lanes, live.len());
            // a lane awaiting its fault is still bit-identical to golden
            // and is never examined at a boundary, so a chunk whose
            // lanes are all pending skips the boundary scans outright
            let pending: Vec<bool> = (0..lanes).map(|l| bt.lane_fault_pending(l)).collect();
            let boundary = if pending.iter().all(|&p| p) {
                None
            } else {
                store.boundary_at(cursor)
            };
            // only the laned arrays are compared (shared ones are golden
            // at every boundary), scanned once, row-major, for every lane
            // together — per-lane strided gathers would re-read the
            // whole SoA buffer once per live lane
            let lane_scan = boundary
                .map(|snap_b| self.scan_laned_arrays(snap_b, laned_mask, laned, lanes, &pending));
            let mut keep = vec![true; lanes];
            for l in 0..lanes {
                let fault = chunk.faults[live[l]];
                let record = if let (true, Some(first_nonfinite)) =
                    (trap_break, bt.lane_first_nonfinite(l))
                {
                    // the scalar run breaks out of its loop here, so
                    // its output is the lane's state column
                    classified(&RunTrace {
                        values: None,
                        branches: None,
                        output: extract_lane(laned[0], lanes, l),
                        n_dynamic: cursor,
                        first_nonfinite: Some(first_nonfinite),
                        fault: Some(fault),
                        injected_err: bt.lane_injected_err(l),
                    })
                } else if let (false, Some(snap_b), Some(scan)) = (pending[l], boundary, &lane_scan)
                {
                    let Some(output_err) = self.exit(snap_b, step, laned_mask, scan, l) else {
                        continue;
                    };
                    let verdict = (Outcome::Masked, output_err);
                    Experiment::new(fault, bt.lane_injected_err(l), verdict)
                } else {
                    continue;
                };
                results[live[l]] = Some(record);
                keep[l] = false;
            }
            if keep.contains(&false) {
                for buf in laned.iter_mut() {
                    compact_soa(buf, lanes, &keep);
                }
                bt.compact_lanes(&keep);
                let mut w = 0;
                for (l, &k) in keep.iter().enumerate() {
                    if k {
                        live[w] = live[l];
                        w += 1;
                    }
                }
                live.truncate(w);
            }
            bt.lanes() == 0
        };
        let out = kernel.run_batch_resumed(&mut bt, &state, &mut monitor);

        // lanes that ran to completion: classify exactly as a scalar
        // resumed run would — full output, shared final cursor
        let final_lanes = bt.lanes();
        for (l, &ci) in live.iter().enumerate().take(final_lanes) {
            results[ci] = Some(classified(&RunTrace {
                values: None,
                branches: None,
                output: extract_lane(&out, final_lanes, l),
                n_dynamic: bt.cursor(),
                first_nonfinite: bt.lane_first_nonfinite(l),
                fault: Some(chunk.faults[ci]),
                injected_err: bt.lane_injected_err(l),
            }));
        }
        results
            .into_iter()
            .map(|e| e.expect("every lane retires or completes"))
            .collect()
    }

    /// One row-major pass over every laned SoA buffer at a boundary,
    /// producing for each lane its bitwise-equality flag against the
    /// golden boundary and (when certificates are live) its per-slot L∞
    /// deviation. Equivalent to a per-lane strided bitwise compare and
    /// L∞ fold, but touching each cache line once instead of once per
    /// lane.
    ///
    /// The scan aborts early once no lane's retirement decision can
    /// still change: every non-pending lane has bitwise-diverged, and —
    /// when certificates are live — is already past the budget on a
    /// laned slot. The abort is decision-preserving because a sound
    /// [`Kernel::masked_exit_bound`] dominates each laned array's
    /// current deviation (acceptance must establish the "state within
    /// budget throughout the suffix" premise at the boundary itself),
    /// so a running deviation above the budget already guarantees the
    /// certificate rejects. Unscanned slots report `+∞` deviations,
    /// which are never consulted: `cert_over` lanes reject on the
    /// over-budget slot alone.
    fn scan_laned_arrays(
        &self,
        snap_b: &Snapshot,
        laned_mask: &[bool],
        laned: &[&mut Vec<f64>],
        lanes: usize,
        pending: &[bool],
    ) -> LaneScan {
        const SCAN_BLOCK: usize = 64;
        let want_devs = self.certify.is_some();
        let budget = self.certify.unwrap_or(f64::INFINITY);
        let n_laned = laned_mask.iter().filter(|&&m| m).count();
        let mut eq = vec![true; lanes];
        let mut shape_ok = true;
        // cert_over[l]: an already-scanned laned slot deviates beyond
        // the budget, so lane l's certificate is guaranteed to reject
        let mut cert_over = vec![false; lanes];
        // devs[j][l]: lane l's L∞ deviation on the j-th laned slot
        let mut devs: Vec<Vec<f64>> = Vec::with_capacity(n_laned);
        'slots: for (slot, &is_laned) in laned_mask.iter().enumerate() {
            if !is_laned {
                continue;
            }
            let g = self.store.snapshot_array(snap_b, slot);
            let buf = &laned[devs.len()][..];
            if buf.len() != g.len() * lanes {
                // shape mismatch: not bitwise-equal, and the
                // certificate path refuses outright
                eq.fill(false);
                shape_ok = false;
                devs.push(vec![f64::INFINITY; lanes]);
                continue;
            }
            let mut slot_devs = vec![0.0f64; lanes];
            for (bi, gblock) in g.chunks(SCAN_BLOCK).enumerate() {
                let base = bi * SCAN_BLOCK;
                for (e, gv) in gblock.iter().enumerate() {
                    let r = base + e;
                    let rowb = &buf[r * lanes..r * lanes + lanes];
                    if want_devs {
                        for l in 0..lanes {
                            let v = rowb[l];
                            eq[l] &= v.to_bits() == gv.to_bits();
                            let d = (gv - v).abs();
                            let grown = if d > slot_devs[l] { d } else { slot_devs[l] };
                            slot_devs[l] = if d.is_nan() { f64::INFINITY } else { grown };
                        }
                    } else {
                        for (l, eql) in eq.iter_mut().enumerate() {
                            *eql &= rowb[l].to_bits() == gv.to_bits();
                        }
                    }
                }
                let decided = (0..lanes).all(|l| {
                    pending[l] || (!eq[l] && (!want_devs || cert_over[l] || slot_devs[l] > budget))
                });
                if decided {
                    devs.push(slot_devs);
                    devs.resize(n_laned, vec![f64::INFINITY; lanes]);
                    break 'slots;
                }
            }
            for (over, &d) in cert_over.iter_mut().zip(slot_devs.iter()) {
                *over |= d > budget;
            }
            devs.push(slot_devs);
        }
        LaneScan { eq, shape_ok, devs }
    }

    /// Lane `l`'s exit at this boundary, if any, as the `output_err` its
    /// Masked record carries: exactly 0 when the scan found its laned
    /// state equal to golden (bitwise reconvergence), else the bound of
    /// the contraction certificate on its per-array L∞ deviations
    /// (non-finite → ∞; shared read-only arrays are golden, so 0).
    fn exit(
        &self,
        snap_b: &Snapshot,
        step: u64,
        laned_mask: &[bool],
        scan: &LaneScan,
        l: usize,
    ) -> Option<f64> {
        if scan.eq[l] {
            return Some(0.0);
        }
        if !scan.shape_ok {
            return None;
        }
        let mut laned_devs = scan.devs.iter();
        let devs: Vec<f64> = laned_mask
            .iter()
            .map(|&is_laned| {
                if is_laned {
                    // a missing row (never: one per laned slot) certifies nothing
                    laned_devs.next().map_or(f64::INFINITY, |d| d[l])
                } else {
                    0.0
                }
            })
            .collect();
        self.certificate(snap_b, step, &devs)
    }

    /// The contraction certificate on per-array L∞ deviations `devs`
    /// from the golden boundary `snap_b`: the kernel's bound on the final
    /// deviation, given the boundary's suffix-magnitude bounds, accepted
    /// only when finite and within tolerance.
    fn certificate(&self, snap_b: &Snapshot, step: u64, devs: &[f64]) -> Option<f64> {
        let budget = self.certify?;
        let bound = self
            .kernel
            .masked_exit_bound(step, devs, snap_b.suffix_mags(), budget)?;
        (bound.is_finite() && bound <= budget).then_some(bound)
    }

    /// Whether a boundary check compares state slot `slot`: every slot
    /// but those the kernel marks read-only.
    fn compares(&self, slot: usize) -> bool {
        self.kernel.batch_laned_arrays().get(slot) != Some(&false)
    }
}

/// The monitor on one scalar outcome run: the one-lane instance of the
/// lane chunks' rule, plus the read-only check a run from scratch needs.
pub(crate) struct ScalarWatch<'a> {
    engine: BatchEngine<'a>,
    site: usize,
    /// Whether the arrays the kernel marks read-only are golden: `None`
    /// until a run from scratch checks them, once, at its first checked
    /// boundary (a resumed run holds them golden). They never change
    /// again, so once they differ no boundary can match: the monitor is
    /// off.
    read_only_golden: Option<bool>,
    /// The `output_err` of the run's Masked early exit, once it has
    /// exited.
    pub(crate) exit: Option<f64>,
}

impl<'a> ScalarWatch<'a> {
    /// Watch the run of a fault at `site`, started from scratch or from
    /// a snapshot.
    pub(crate) fn new(engine: BatchEngine<'a>, site: usize, from_scratch: bool) -> Self {
        ScalarWatch {
            engine,
            site,
            read_only_golden: (!from_scratch).then_some(true),
            exit: None,
        }
    }

    /// The run's boundary hook: `true` stops the run. The bitwise checks
    /// compare in place and allocate nothing, since most boundaries of
    /// a small kernel's run are checked and end in a mismatch.
    pub(crate) fn boundary(&mut self, cursor: usize, step: u64, arrays: &[&[f64]]) -> bool {
        // step 0 is reported straight after initialisation, before the
        // kernel's first non-finite poll, so a golden state there would
        // not prove a clean run; every later boundary follows a poll
        let (engine, store) = (self.engine, self.engine.store);
        let snap_b = match store.boundary_at(cursor) {
            Some(s) if self.read_only_golden != Some(false) && step > 0 && cursor > self.site => s,
            _ => return false,
        };
        if arrays.len() != snap_b.n_arrays() {
            return false;
        }
        // the compared (`true`) or read-only (`false`) slots all match
        let golden = |compared: bool| {
            (arrays.iter().enumerate()).all(|(slot, a)| {
                engine.compares(slot) != compared || bits_eq(a, store.snapshot_array(snap_b, slot))
            })
        };
        if !*self.read_only_golden.get_or_insert_with(|| golden(false)) {
            return false;
        }
        self.exit = if golden(true) {
            Some(0.0)
        } else {
            self.certified(snap_b, step, arrays)
        };
        self.exit.is_some()
    }

    /// The certificate's check of a state that is not golden, when one
    /// can fire: the per-array L∞ deviations of the compared arrays
    /// (read-only ones are golden, so 0), with no certificate once one
    /// passes the budget or is NaN — a sound bound dominates every
    /// array's deviation, the premise of the lane chunks' early stop too.
    fn certified(&self, snap_b: &Snapshot, step: u64, arrays: &[&[f64]]) -> Option<f64> {
        let budget = self.engine.certify?;
        let linf = |m: f64, (x, y): (&f64, &f64)| {
            let d = (x - y).abs();
            (d <= budget).then_some(m.max(d))
        };
        let mut devs = vec![0.0; arrays.len()];
        for (slot, (a, dev)) in arrays.iter().zip(&mut devs).enumerate() {
            let g = self.engine.store.snapshot_array(snap_b, slot);
            if self.engine.compares(slot) {
                *dev = (g.len() == a.len()).then(|| g.iter().zip(*a).try_fold(0.0, linf))??;
            }
        }
        self.engine.certificate(snap_b, step, &devs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_kernels::jacobi::{JacobiConfig, JacobiKernel};

    fn kernel() -> JacobiKernel {
        JacobiKernel::new(JacobiConfig {
            sweeps: 12,
            ..JacobiConfig::small()
        })
    }

    fn engine<'a>(
        kernel: &'a JacobiKernel,
        golden: &'a GoldenRun,
        classifier: &'a Classifier,
        store: &'a SnapshotStore,
        certify: Option<f64>,
    ) -> BatchEngine<'a> {
        BatchEngine {
            kernel,
            golden,
            classifier,
            store,
            certify,
            lanes: 1,
        }
    }

    fn views(arrays: &[Vec<f64>]) -> Vec<&[f64]> {
        arrays.iter().map(|a| a.as_slice()).collect()
    }

    /// The scalar monitor exits only at a retained boundary's exact
    /// cursor past the fault, on a bitwise match of the compared state;
    /// a run from scratch also needs the read-only arrays golden, and
    /// stays off once they are not.
    #[test]
    fn monitor_is_exact_cursor_and_bitwise() {
        let k = kernel();
        let store = SnapshotStore::capture(&k, &k.golden(), usize::MAX).unwrap();
        let golden_run = k.golden();
        let classifier = Classifier::new(1e-6);
        let monitor = engine(&k, &golden_run, &classifier, &store, None);
        let snap = store.get(3);
        let (cursor, step) = (snap.cursor, snap.step);
        let golden = store.state(snap).arrays;
        let exits = |site: usize, from_scratch: bool, cursor: usize, step: u64, s: &[Vec<f64>]| {
            ScalarWatch::new(monitor, site, from_scratch).boundary(cursor, step, &views(s))
        };
        assert!(exits(0, false, cursor, step, &golden));
        assert!(exits(0, true, cursor, step, &golden));
        // off the retained cursor, at or before the fault, or at step 0
        assert!(!exits(0, false, cursor + 1, step, &golden));
        assert!(!exits(cursor, false, cursor, step, &golden));
        assert!(!exits(0, true, cursor, 0, &golden));
        // one flipped bit of the iterate x
        let mut bent_x = golden.clone();
        bent_x[0][0] = f64::from_bits(bent_x[0][0].to_bits() ^ 1);
        assert!(!exits(0, false, cursor, step, &bent_x));
        // one flipped bit of the read-only b: a resumed run holds b
        // golden by construction and never compares it, but a run from
        // scratch does, once, and then never exits
        let mut bent_b = golden.clone();
        bent_b[1][0] = f64::from_bits(bent_b[1][0].to_bits() ^ 1);
        assert!(exits(0, false, cursor, step, &bent_b));
        let mut w = ScalarWatch::new(monitor, 0, true);
        assert!(!w.boundary(cursor, step, &views(&bent_b)));
        assert!(!w.boundary(cursor, step, &views(&golden)));
        assert!(w.exit.is_none());
    }

    /// The lane scan measures each laned slot's L∞ deviation from
    /// golden (NaN as ∞) and refuses a wrong-shape buffer; the scalar
    /// certificate check measures the same deviations, counts read-only
    /// arrays as golden and gives up past the budget.
    #[test]
    fn monitor_scan_measures_linf_from_golden() {
        let k = kernel();
        let store = SnapshotStore::capture(&k, &k.golden(), usize::MAX).unwrap();
        let golden_run = k.golden();
        let classifier = Classifier::new(1e-3);
        let monitor = engine(&k, &golden_run, &classifier, &store, Some(1e-3));
        let snap = store.get(3);
        let golden = store.state(snap).arrays;
        let compared: Vec<bool> = (0..2).map(|slot| monitor.compares(slot)).collect();
        assert_eq!(compared, [true, false]);
        let scan_x =
            |x: &[f64]| monitor.scan_laned_arrays(snap, &compared, &[&mut x.to_vec()], 1, &[false]);
        let scan = scan_x(&golden[0]);
        assert!(scan.eq[0] && scan.shape_ok);
        assert_eq!(scan.devs, [[0.0]]);
        let mut bent = golden[0].clone();
        bent[5] += 3e-4;
        let scan = scan_x(&bent);
        assert!(!scan.eq[0]);
        assert!((scan.devs[0][0] - 3e-4).abs() < 1e-12);
        let mut nan = bent.clone();
        nan[0] = f64::NAN;
        assert_eq!(scan_x(&nan).devs[0][0], f64::INFINITY);
        // two lanes, one golden and one off by 1 everywhere
        let mut two: Vec<f64> = golden[0].iter().flat_map(|&v| [v, v + 1.0]).collect();
        let scan = monitor.scan_laned_arrays(snap, &compared, &[&mut two], 2, &[false, false]);
        assert_eq!(scan.eq, [true, false]);
        assert_eq!(scan.devs, [[0.0, 1.0]]);
        // a wrong-shape buffer matches nothing and certifies nothing
        let scan = scan_x(&golden[0][1..]);
        assert!(!scan.eq[0] && !scan.shape_ok);
        assert!(monitor.exit(snap, snap.step, &compared, &scan, 0).is_none());

        let watch = ScalarWatch::new(monitor, 0, false);
        let certified = |x: &[f64], b: &[f64]| watch.certified(snap, snap.step, &[x, b]);
        let bound = certified(&bent, &golden[1]).expect("3e-4 is within the 1e-3 budget");
        assert!((3e-4..=1e-3).contains(&bound));
        let mut bent_b = golden[1].clone();
        bent_b[0] += 0.5;
        assert_eq!(certified(&bent, &bent_b), Some(bound), "b is not compared");
        let mut far = golden[0].clone();
        far[7] += 2e-3;
        assert_eq!(certified(&far, &golden[1]), None);
        assert_eq!(certified(&nan, &golden[1]), None);
    }
}
