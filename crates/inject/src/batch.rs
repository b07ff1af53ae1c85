//! Lane-batched campaign execution over shared snapshots.
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
//! golden trace on the way.
//!
//! Bit identity with scalar execution is the contract, not a best
//! effort. Per lane, the engine reproduces exactly the scalar resumed
//! monitor of `Injector::try_run_one_resumed`, in the same order the
//! scalar path evaluates it:
//!
//! 1. a lane whose kernel trap-breaks at section bottoms retires with
//!    the state it holds at that boundary (the scalar run breaks out of
//!    its loop there and classifies a `NonFinite` crash);
//! 2. a lane whose fault has not fired yet (`cursor <= site`) is never
//!    retired — it is still bit-identical to golden;
//! 3. a lane whose full state matches a retained golden boundary
//!    bitwise retires as `(Masked, 0.0)` (bitwise reconvergence);
//! 4. with certified exits enabled, a lane whose state deviation admits
//!    a contraction-certificate bound within tolerance retires as
//!    `(Masked, bound)`.
//!
//! Retired lanes are compacted out of the SoA buffers in place
//! ([`ftb_trace::compact_soa`]); the remaining sweep touches only live
//! state. Lanes that run to completion classify through the ordinary
//! [`Classifier`] on a synthesised [`RunTrace`] whose output column is
//! extracted from the laned output buffer — the same values, bit for
//! bit, a scalar resumed run would have produced.

use crate::experiment::Experiment;
use crate::outcome::{Classifier, Outcome};
use crate::snapshot::{Snapshot, SnapshotStore};
use ftb_kernels::{Kernel, MAX_BATCH_LANES};
use ftb_trace::norms::Norm;
use ftb_trace::{compact_soa, extract_lane, BatchTracer, FaultSpec, GoldenRun, RunTrace};

/// How a retired lane left the sweep, captured at retirement time
/// (lane compaction destroys per-lane tracer state afterwards).
enum LaneExit {
    /// Non-finite trap fired in a kernel that breaks at section bottoms:
    /// the scalar run would have broken out of its loop here, so the
    /// lane's output is its state column at the boundary.
    Trapped {
        injected_err: Option<f64>,
        first_nonfinite: usize,
        output: Vec<f64>,
        n_dynamic: usize,
    },
    /// Live state reconverged bitwise with a retained golden boundary:
    /// the suffix replays the golden run exactly — `(Masked, 0.0)`.
    Bitwise { injected_err: Option<f64> },
    /// Contraction certificate bounded the final deviation within
    /// tolerance — `(Masked, bound)`.
    Certified {
        injected_err: Option<f64>,
        bound: f64,
    },
}

/// Per-lane results of one row-major boundary scan over the laned SoA
/// buffers: bitwise equality with the golden boundary and (when
/// certificates are live) per-slot L∞ deviations.
struct LaneScan {
    /// `eq[l]`: lane `l`'s laned state matches the boundary bitwise.
    eq: Vec<bool>,
    /// Every laned buffer had the expected `golden_len × lanes` shape;
    /// certificates refuse when it does not (mirroring scalar).
    shape_ok: bool,
    /// `devs[j][l]`: lane `l`'s L∞ deviation on the `j`-th laned slot
    /// (zeros when certificates are off — never read in that case).
    devs: Vec<Vec<f64>>,
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

/// The lane-batched execution engine: everything a chunk run needs,
/// borrowed from the owning `Injector`.
pub(crate) struct BatchEngine<'a> {
    pub kernel: &'a dyn Kernel,
    pub golden: &'a GoldenRun,
    pub classifier: &'a Classifier,
    pub store: &'a SnapshotStore,
    pub certified_exits: bool,
    pub lanes: usize,
}

impl BatchEngine<'_> {
    /// Partition a plan snapshot-major: faults served by the same
    /// snapshot group into chunks of at most `min(lanes,
    /// MAX_BATCH_LANES)` (each lane's result is independent of the width
    /// it runs at, so wider configurations only change how the faults
    /// are grouped, never their records); faults with no
    /// serving snapshot (pre-first-boundary sites) are returned as
    /// from-scratch leftovers. Within a group the plan order is
    /// preserved, so chunking is deterministic.
    pub(crate) fn plan(&self, faults: &[FaultSpec]) -> (Vec<BatchChunk>, Vec<usize>) {
        let mut scalars = Vec::new();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.store.len()];
        for (i, f) in faults.iter().enumerate() {
            match self.store.for_site(f.site) {
                Some((s, _)) => groups[s].push(i),
                None => scalars.push(i),
            }
        }
        let mut chunks = Vec::new();
        for (snap_idx, group) in groups.iter().enumerate() {
            for idxs in group.chunks(self.lanes.min(MAX_BATCH_LANES)) {
                chunks.push(BatchChunk {
                    snap_idx,
                    idxs: idxs.to_vec(),
                    faults: idxs.iter().map(|&i| faults[i]).collect(),
                });
            }
        }
        (chunks, scalars)
    }

    /// Run one chunk: a single lane-batched kernel execution resumed
    /// from the chunk's serving snapshot. Returns experiments in chunk
    /// order, each bit-identical to the scalar resumed run of the same
    /// fault.
    pub(crate) fn run_chunk(&self, chunk: &BatchChunk) -> Vec<Experiment> {
        let snap = self.store.get(chunk.snap_idx);
        let state = self.store.state(snap);
        let n_lanes = chunk.faults.len();
        let mut bt = BatchTracer::resumed(self.kernel.precision(), &chunk.faults, snap.cursor);
        let laned_mask = self.kernel.batch_laned_arrays();

        let mut exits: Vec<Option<LaneExit>> = (0..n_lanes).map(|_| None).collect();
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
                self.store.boundary_at(cursor)
            };
            // shared (non-laned) arrays are golden at every boundary
            // (asserted by `SnapshotStore::capture`), so only the laned
            // arrays decide. They are scanned once, row-major, for every lane
            // together — per-lane strided gathers would re-read the
            // whole SoA buffer once per live lane
            let lane_scan = boundary
                .map(|snap_b| self.scan_laned_arrays(snap_b, laned_mask, laned, lanes, &pending));
            let mut keep = vec![true; lanes];
            let mut any_retired = false;
            for l in 0..lanes {
                if trap_break && bt.lane_trapped(l) {
                    exits[live[l]] = Some(LaneExit::Trapped {
                        injected_err: bt.lane_injected_err(l),
                        first_nonfinite: bt.lane_first_nonfinite(l).expect("trapped lane"),
                        output: extract_lane(laned[0], lanes, l),
                        n_dynamic: cursor,
                    });
                    keep[l] = false;
                    any_retired = true;
                    continue;
                }
                if bt.lane_fault_pending(l) {
                    continue;
                }
                let (Some(snap_b), Some(scan)) = (boundary, &lane_scan) else {
                    continue;
                };
                if scan.eq[l] {
                    exits[live[l]] = Some(LaneExit::Bitwise {
                        injected_err: bt.lane_injected_err(l),
                    });
                    keep[l] = false;
                    any_retired = true;
                    continue;
                }
                if let Some(bound) = self.certified_lane_exit(snap_b, step, laned_mask, scan, l) {
                    exits[live[l]] = Some(LaneExit::Certified {
                        injected_err: bt.lane_injected_err(l),
                        bound,
                    });
                    keep[l] = false;
                    any_retired = true;
                }
            }
            if any_retired {
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
        let out = self.kernel.run_batch_resumed(&mut bt, &state, &mut monitor);

        let mut results: Vec<Option<Experiment>> = vec![None; n_lanes];
        // lanes that ran to completion: classify exactly as a scalar
        // resumed run would — full output, shared final cursor
        let final_lanes = bt.lanes();
        for (l, &ci) in live.iter().enumerate().take(final_lanes) {
            let fault = chunk.faults[ci];
            let run = RunTrace {
                values: None,
                branches: None,
                output: extract_lane(&out, final_lanes, l),
                n_dynamic: bt.cursor(),
                first_nonfinite: bt.lane_first_nonfinite(l),
                fault: Some(fault),
                injected_err: bt.lane_injected_err(l),
            };
            let (outcome, output_err) = self.classifier.classify(self.golden, &run);
            results[ci] = Some(Experiment {
                site: fault.site,
                bit: fault.bit,
                injected_err: run.injected_err.unwrap_or(0.0),
                output_err,
                outcome,
            });
        }
        for (ci, exit) in exits.into_iter().enumerate() {
            let Some(exit) = exit else { continue };
            let fault = chunk.faults[ci];
            let e = match exit {
                LaneExit::Trapped {
                    injected_err,
                    first_nonfinite,
                    output,
                    n_dynamic,
                } => {
                    let run = RunTrace {
                        values: None,
                        branches: None,
                        output,
                        n_dynamic,
                        first_nonfinite: Some(first_nonfinite),
                        fault: Some(fault),
                        injected_err,
                    };
                    let (outcome, output_err) = self.classifier.classify(self.golden, &run);
                    Experiment {
                        site: fault.site,
                        bit: fault.bit,
                        injected_err: injected_err.unwrap_or(0.0),
                        output_err,
                        outcome,
                    }
                }
                LaneExit::Bitwise { injected_err } => Experiment {
                    site: fault.site,
                    bit: fault.bit,
                    injected_err: injected_err.unwrap_or(0.0),
                    output_err: 0.0,
                    outcome: Outcome::Masked,
                },
                LaneExit::Certified {
                    injected_err,
                    bound,
                } => Experiment {
                    site: fault.site,
                    bit: fault.bit,
                    injected_err: injected_err.unwrap_or(0.0),
                    output_err: bound,
                    outcome: Outcome::Masked,
                },
            };
            results[ci] = Some(e);
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
        let want_devs = self.certified_exits && matches!(self.classifier.norm, Norm::LInf);
        let budget = self.classifier.tolerance;
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
                // certificate path refuses outright (as scalar does)
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
                    while devs.len() < n_laned {
                        devs.push(vec![f64::INFINITY; lanes]);
                    }
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

    /// The per-lane contraction-certificate check, mirroring the scalar
    /// `Injector::certified_exit`: per-array L∞ deviations from the
    /// golden boundary (non-finite → ∞; shared arrays are golden, so 0),
    /// the boundary's suffix-magnitude bounds, and the kernel's bound,
    /// accepted only when finite and within tolerance.
    fn certified_lane_exit(
        &self,
        snap_b: &Snapshot,
        step: u64,
        laned_mask: &[bool],
        scan: &LaneScan,
        l: usize,
    ) -> Option<f64> {
        if !self.certified_exits || !matches!(self.classifier.norm, Norm::LInf) || !scan.shape_ok {
            return None;
        }
        let budget = self.classifier.tolerance;
        let mut laned_devs = scan.devs.iter();
        let devs: Vec<f64> = laned_mask
            .iter()
            .map(|&is_laned| {
                if is_laned {
                    laned_devs.next().expect("laned slot deviation")[l]
                } else {
                    0.0
                }
            })
            .collect();
        let bound = self
            .kernel
            .masked_exit_bound(step, &devs, snap_b.suffix_mags(), budget)?;
        (bound.is_finite() && bound <= budget).then_some(bound)
    }
}
