//! Content-addressed snapshot store for snapshot-resume campaign execution.
//!
//! During (or rather, immediately after) the golden run the full kernel
//! state is captured at each section boundary: the live arrays, the
//! kernel's own loop counter, and the tracer position (dynamic cursor +
//! branch count). An injection experiment at site `s` can then start from
//! the latest snapshot whose cursor is `≤ s`, skipping almost all
//! pre-fault execution for late-trace sites.
//!
//! Array payloads are interned in a content-addressed pool keyed by an
//! FNV-1a digest of the raw f64 bits (with bitwise verification on hash
//! collision), so arrays that do not change between boundaries — e.g. the
//! Jacobi right-hand side `b` — are stored exactly once. The store digest
//! binds the snapshot content *and* the golden run it was captured
//! against, and is persisted into campaign ledgers (see
//! [`CampaignBinding::snapshot`](crate::ledger::CampaignBinding)) so a
//! resumed campaign cannot silently mix snapshots from a different golden.
//!
//! Correctness rests on two bitwise invariants, both enforced here:
//!
//! 1. **Capture fidelity** — the capture run must reproduce the recorded
//!    golden run exactly (same output bits, same dynamic-instruction
//!    count). Asserted in [`SnapshotStore::capture`].
//! 2. **Reconvergence** — an injected run whose live state becomes
//!    bitwise identical to a stored golden snapshot *after* the fault
//!    site has executed will replay the golden suffix exactly, so its
//!    outcome is `(Masked, 0.0)` with no further execution. Callers test
//!    this with [`SnapshotStore::state_matches`].
//!
//! A third invariant serves lane-batched execution: every array a
//! batch-capable kernel marks read-only
//! ([`ftb_kernels::Kernel::batch_laned_arrays`]) holds the same bits at
//! every boundary, so the batch engine shares one copy across lanes and
//! never compares it. Also asserted in [`SnapshotStore::capture`].

use ftb_kernels::{Kernel, KernelState};
use ftb_trace::{FaultSpec, Fnv1a, GoldenRun, Tracer};
use std::collections::HashMap;

/// Default number of retained snapshots per store.
///
/// Paper-scale kernels run hundreds of outer-loop steps; retaining every
/// boundary would multiply the resident state by that factor for almost
/// no extra prefix skipping. 128 evenly spaced boundaries bound the skip
/// granularity to <1% of the trace.
pub const DEFAULT_MAX_SNAPSHOTS: usize = 128;

/// One captured section-boundary snapshot. Array payloads live in the
/// store's content-addressed pool; this is metadata plus pool indices.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Tracer cursor at the boundary (dynamic instructions executed).
    pub cursor: usize,
    /// Tracer branch count at the boundary.
    pub branch_count: usize,
    /// Kernel loop step at the boundary (sweeps / rows / iterations done).
    pub step: u64,
    /// Pool indices of the state arrays, in kernel order.
    arrays: Vec<u32>,
    /// Per-array upper bound on the golden state magnitudes over the
    /// *remaining* run — every boundary at or after this one (including
    /// boundaries later dropped by thinning) plus the final output. Feeds
    /// the contraction certificate's rounding-slack term
    /// ([`ftb_kernels::Kernel::masked_exit_bound`]).
    suffix_mags: Vec<f64>,
}

/// Snapshot store: boundary snapshots sorted by cursor over a shared
/// content-addressed array pool.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    snapshots: Vec<Snapshot>,
    pool: Vec<Vec<f64>>,
    digest: u64,
}

impl Snapshot {
    /// Golden suffix-magnitude bounds per state array (certificate
    /// input, see [`ftb_kernels::Kernel::masked_exit_bound`]).
    pub(crate) fn suffix_mags(&self) -> &[f64] {
        &self.suffix_mags
    }
}

#[inline]
pub(crate) fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn hash_array(a: &[f64]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(a.len() as u64);
    for v in a {
        h.write_u64(v.to_bits());
    }
    h.finish()
}

impl SnapshotStore {
    /// Capture a snapshot store for `kernel` against its recorded
    /// `golden` run. Returns `None` if the kernel is not
    /// snapshot-capable.
    ///
    /// The capture re-runs the kernel under an untraced tracer (site
    /// counting and value quantisation only — no recording) whose
    /// boundary hook records every state the kernel reports, which is
    /// cheap next to the golden run itself, and asserts bitwise
    /// agreement with `golden` so a capture that drifted from the
    /// recorded trace can never serve resumed experiments.
    #[expect(clippy::expect_used, reason = "pool indices fit u32")]
    pub fn capture(
        kernel: &dyn Kernel,
        golden: &GoldenRun,
        max_snapshots: usize,
    ) -> Option<SnapshotStore> {
        if !kernel.snapshot_capable() {
            return None;
        }
        assert!(max_snapshots > 0, "snapshot store needs at least one slot");

        let mut pool: Vec<Vec<f64>> = Vec::new();
        let mut interned: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut snapshots: Vec<Snapshot> = Vec::new();

        let mut capture = |cursor: usize, branch_count: usize, step: u64, arrays: &[&[f64]]| {
            let idxs = arrays
                .iter()
                .map(|a| {
                    let candidates = interned.entry(hash_array(a)).or_default();
                    for &i in candidates.iter() {
                        if bits_eq(&pool[i as usize], a) {
                            return i;
                        }
                    }
                    let i = u32::try_from(pool.len()).expect("snapshot pool overflow");
                    pool.push(a.to_vec());
                    candidates.push(i);
                    i
                })
                .collect();
            let own_mags = arrays
                .iter()
                .map(|a| a.iter().fold(0.0f64, |m, v| m.max(v.abs())))
                .collect();
            snapshots.push(Snapshot {
                cursor,
                branch_count,
                step,
                arrays: idxs,
                // per-boundary magnitudes for now; folded into suffix
                // maxima below, once the whole run has been seen
                suffix_mags: own_mags,
            });
            false
        };
        let mut t = Tracer::untraced(kernel.precision()).with_boundary_hook(&mut capture);
        let out = kernel.run(&mut t);
        let run = t.finish(out);
        let out = run.output;

        // capture fidelity: the capture run must be the golden run
        assert_eq!(
            run.n_dynamic, golden.n_dynamic,
            "snapshot capture executed a different dynamic-instruction count than the golden run"
        );
        assert!(
            bits_eq(&out, &golden.output),
            "snapshot capture output diverged bitwise from the golden run"
        );
        debug_assert!(
            snapshots.windows(2).all(|w| w[0].cursor < w[1].cursor),
            "boundary cursors must be strictly increasing"
        );

        // turn per-boundary magnitudes into suffix maxima, seeded with
        // the final output (whose values no boundary state holds): the
        // certificate needs a magnitude cap over the *whole* remaining
        // run, and it must survive thinning, so it is computed before
        let out_mag = out.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut suffix: Vec<f64> = Vec::new();
        for s in snapshots.iter_mut().rev() {
            if suffix.is_empty() {
                suffix = vec![out_mag; s.suffix_mags.len()];
            }
            for (acc, own) in suffix.iter_mut().zip(&s.suffix_mags) {
                *acc = acc.max(*own);
            }
            s.suffix_mags.copy_from_slice(&suffix);
        }

        // thin to the cap: keep evenly spaced boundaries including the
        // first (earliest resume point) and the last
        if snapshots.len() > max_snapshots {
            let n = snapshots.len();
            let mut keep = vec![false; n];
            for k in 0..max_snapshots {
                keep[k * (n - 1) / (max_snapshots - 1).max(1)] = true;
            }
            let mut keep = keep.into_iter();
            snapshots.retain(|_| keep.next().unwrap_or(false));
        }

        // the batch engine shares one copy of each array the kernel
        // marks read-only across its lanes, and never compares it at a
        // boundary: that is sound only if the array is the same at every
        // boundary, i.e. interned to one pool entry
        if kernel.batch_capable() {
            let laned = kernel.batch_laned_arrays();
            assert!(
                snapshots.iter().all(|s| laned.len() == s.arrays.len()
                    && (laned.iter().zip(&s.arrays).zip(&snapshots[0].arrays))
                        .all(|((&l, a), first)| l || a == first)),
                "the laned-array mask must cover the kernel state, and every array it marks \
                 read-only must be the same at every boundary"
            );
        }

        // garbage-collect pool entries orphaned by thinning, remapping
        // the surviving indices
        let mut remap = vec![u32::MAX; pool.len()];
        let mut compact: Vec<Vec<f64>> = Vec::new();
        for s in &mut snapshots {
            for idx in &mut s.arrays {
                let old = *idx as usize;
                if remap[old] == u32::MAX {
                    remap[old] = compact.len() as u32;
                    compact.push(std::mem::take(&mut pool[old]));
                }
                *idx = remap[old];
            }
        }
        let pool = compact;

        // digest: snapshot content + the golden identity it was captured
        // against
        let mut h = Fnv1a::new();
        h.write_u64(pool.len() as u64);
        for arr in &pool {
            h.write_u64(arr.len() as u64);
            for v in arr {
                h.write_u64(v.to_bits());
            }
        }
        h.write_u64(snapshots.len() as u64);
        for s in &snapshots {
            h.write_u64(s.cursor as u64);
            h.write_u64(s.branch_count as u64);
            h.write_u64(s.step);
            for &i in &s.arrays {
                h.write_u64(u64::from(i));
            }
            for &m in &s.suffix_mags {
                h.write_u64(m.to_bits());
            }
        }
        h.write_u64(golden.n_dynamic as u64);
        for v in &golden.output {
            h.write_u64(v.to_bits());
        }

        Some(SnapshotStore {
            snapshots,
            pool,
            digest: h.finish(),
        })
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True if no snapshot was captured.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Content digest (also binds the golden run the store was captured
    /// against).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Resident payload size of the content-addressed pool, in bytes.
    pub fn store_bytes(&self) -> usize {
        self.pool.iter().map(|a| a.len() * 8).sum()
    }

    /// Ledger-side identity of this store.
    pub fn binding(&self) -> crate::ledger::SnapshotBinding {
        crate::ledger::SnapshotBinding {
            snapshots: self.snapshots.len() as u64,
            digest: self.digest,
        }
    }

    /// The snapshot a fault at `site` should resume from: the latest
    /// boundary whose cursor is `≤ site` (the fault must not lie inside
    /// the skipped prefix). Returns the snapshot's index for scheduling
    /// plus the snapshot itself; `None` means run from `t = 0`.
    pub fn for_site(&self, site: usize) -> Option<(usize, &Snapshot)> {
        let i = self.snapshots.partition_point(|s| s.cursor <= site);
        i.checked_sub(1).map(|i| (i, &self.snapshots[i]))
    }

    /// The retained snapshot at scheduling index `i` (the index
    /// [`SnapshotStore::for_site`] reports).
    pub(crate) fn get(&self, i: usize) -> &Snapshot {
        &self.snapshots[i]
    }

    /// The retained boundary at exactly cursor `cursor`, if one survived
    /// thinning (the lane-batched engine's reconvergence lookup).
    pub(crate) fn boundary_at(&self, cursor: usize) -> Option<&Snapshot> {
        let i = self.snapshots.partition_point(|s| s.cursor < cursor);
        self.snapshots.get(i).filter(|s| s.cursor == cursor)
    }

    /// Pooled golden array of `snap`'s state slot `slot`.
    pub(crate) fn snapshot_array(&self, snap: &Snapshot, slot: usize) -> &[f64] {
        &self.pool[snap.arrays[slot] as usize]
    }

    /// Materialise the kernel state of a snapshot (clones the pooled
    /// arrays; cheap next to the execution it saves).
    pub fn state(&self, snap: &Snapshot) -> KernelState {
        KernelState {
            step: snap.step,
            arrays: snap
                .arrays
                .iter()
                .map(|&i| self.pool[i as usize].clone())
                .collect(),
        }
    }

    /// Does the golden state at exactly boundary-cursor `cursor` match
    /// `arrays` bitwise? Used as the reconvergence test by resumed
    /// experiments: a bitwise match after the fault site proves the rest
    /// of the run replays the golden suffix.
    pub fn state_matches(&self, cursor: usize, arrays: &[&[f64]]) -> bool {
        let i = self.snapshots.partition_point(|s| s.cursor < cursor);
        let Some(s) = self.snapshots.get(i) else {
            return false;
        };
        s.cursor == cursor
            && s.arrays.len() == arrays.len()
            && s.arrays
                .iter()
                .zip(arrays)
                .all(|(&pi, a)| bits_eq(&self.pool[pi as usize], a))
    }

    /// Per-array L∞ deviations of `arrays` from the golden boundary
    /// state at exactly cursor `cursor`, paired with that boundary's
    /// golden suffix-magnitude bounds — the inputs of the contraction
    /// certificate ([`ftb_kernels::Kernel::masked_exit_bound`]). `None`
    /// when no snapshot sits at this cursor or the state shapes differ;
    /// a non-finite faulty element yields an infinite deviation (which
    /// no certificate can accept).
    pub fn state_deviations(&self, cursor: usize, arrays: &[&[f64]]) -> Option<(Vec<f64>, &[f64])> {
        let i = self.snapshots.partition_point(|s| s.cursor < cursor);
        let s = self.snapshots.get(i)?;
        if s.cursor != cursor || s.arrays.len() != arrays.len() {
            return None;
        }
        let mut devs = Vec::with_capacity(arrays.len());
        for (&pi, a) in s.arrays.iter().zip(arrays) {
            let g = &self.pool[pi as usize];
            if g.len() != a.len() {
                return None;
            }
            let mut m = 0.0f64;
            for (x, y) in g.iter().zip(*a) {
                let d = (x - y).abs();
                if d.is_nan() {
                    m = f64::INFINITY;
                    break;
                }
                m = m.max(d);
            }
            devs.push(m);
        }
        Some((devs, s.suffix_mags.as_slice()))
    }
}

/// Reorder an experiment plan section-major: stable-sort by the serving
/// snapshot so one warm snapshot serves a whole contiguous batch before
/// the next is touched. Faults with no serving snapshot (pre-first-boundary
/// sites, run from `t = 0`) come first; within each group the original
/// order is preserved, so a site-major exhaustive plan — whose serving
/// snapshot is already monotone in the site — passes through unchanged.
pub fn schedule_snapshot_major(plan: &[FaultSpec], store: &SnapshotStore) -> Vec<FaultSpec> {
    let mut out = plan.to_vec();
    out.sort_by_key(|f| store.for_site(f.site).map_or(0, |(i, _)| i + 1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_kernels::jacobi::{JacobiConfig, JacobiKernel};
    use ftb_kernels::Kernel;

    fn kernel() -> JacobiKernel {
        JacobiKernel::new(JacobiConfig {
            sweeps: 12,
            ..JacobiConfig::small()
        })
    }

    #[test]
    fn capture_interns_unchanged_arrays() {
        let k = kernel();
        let g = k.golden();
        let store = SnapshotStore::capture(&k, &g, usize::MAX).unwrap();
        assert_eq!(store.len(), k.config().sweeps);
        // every snapshot holds [x, b]; b never changes, so the pool has
        // one distinct x per boundary plus exactly one b
        assert_eq!(store.pool.len(), store.len() + 1);
    }

    /// Jacobi claiming its iterate `x` is read-only: the batch engine
    /// would share one stale copy of it across lanes.
    struct MislabelledJacobi(JacobiKernel);

    impl Kernel for MislabelledJacobi {
        fn name(&self) -> &'static str {
            "mislabelled-jacobi"
        }
        fn precision(&self) -> ftb_trace::Precision {
            self.0.precision()
        }
        fn registry(&self) -> ftb_trace::StaticRegistry {
            self.0.registry()
        }
        fn run(&self, t: &mut Tracer) -> Vec<f64> {
            self.0.run(t)
        }
        fn snapshot_capable(&self) -> bool {
            true
        }
        fn batch_capable(&self) -> bool {
            true
        }
        fn batch_laned_arrays(&self) -> &'static [bool] {
            &[false, false]
        }
    }

    #[test]
    #[should_panic(expected = "read-only must be the same at every boundary")]
    fn capture_refuses_a_read_only_array_that_changes() {
        let k = MislabelledJacobi(kernel());
        let g = k.golden();
        SnapshotStore::capture(&k, &g, usize::MAX);
    }

    #[test]
    fn thinning_keeps_first_and_last_boundary() {
        let k = kernel();
        let g = k.golden();
        let full = SnapshotStore::capture(&k, &g, usize::MAX).unwrap();
        let thin = SnapshotStore::capture(&k, &g, 5).unwrap();
        assert_eq!(thin.len(), 5);
        assert_eq!(thin.snapshots[0].cursor, full.snapshots[0].cursor);
        assert_eq!(
            thin.snapshots.last().unwrap().cursor,
            full.snapshots.last().unwrap().cursor
        );
        // thinning must GC orphaned pool arrays
        assert_eq!(thin.pool.len(), thin.len() + 1);
        assert!(thin.store_bytes() < full.store_bytes());
    }

    #[test]
    fn for_site_picks_latest_preceding_boundary() {
        let k = kernel();
        let g = k.golden();
        let store = SnapshotStore::capture(&k, &g, usize::MAX).unwrap();
        let first = store.snapshots[0].cursor;
        assert!(store.for_site(first - 1).is_none());
        let (i, snap) = store.for_site(first).unwrap();
        assert_eq!((i, snap.cursor), (0, first));
        let (i, snap) = store.for_site(g.n_dynamic - 1).unwrap();
        assert_eq!(i, store.len() - 1);
        assert!(snap.cursor < g.n_dynamic);
    }

    #[test]
    fn state_matches_is_exact_cursor_and_bitwise() {
        let k = kernel();
        let g = k.golden();
        let store = SnapshotStore::capture(&k, &g, usize::MAX).unwrap();
        let snap = &store.snapshots[3];
        let st = store.state(snap);
        let views: Vec<&[f64]> = st.arrays.iter().map(|a| a.as_slice()).collect();
        assert!(store.state_matches(snap.cursor, &views));
        assert!(!store.state_matches(snap.cursor + 1, &views));
        let mut bent = st.clone();
        bent.arrays[0][0] = f64::from_bits(bent.arrays[0][0].to_bits() ^ 1);
        let views: Vec<&[f64]> = bent.arrays.iter().map(|a| a.as_slice()).collect();
        assert!(!store.state_matches(snap.cursor, &views));
    }

    #[test]
    fn digest_binds_golden_identity() {
        let k = kernel();
        let g = k.golden();
        let a = SnapshotStore::capture(&k, &g, usize::MAX).unwrap();
        let b = SnapshotStore::capture(&k, &g, usize::MAX).unwrap();
        assert_eq!(a.digest(), b.digest());
        let thin = SnapshotStore::capture(&k, &g, 5).unwrap();
        assert_ne!(a.digest(), thin.digest());
        let other = JacobiKernel::new(JacobiConfig {
            sweeps: 12,
            seed: 99,
            ..JacobiConfig::small()
        });
        let og = other.golden();
        let o = SnapshotStore::capture(&other, &og, usize::MAX).unwrap();
        assert_ne!(a.digest(), o.digest());
    }

    #[test]
    fn suffix_mags_are_nonincreasing_suffix_maxima() {
        let k = kernel();
        let g = k.golden();
        let store = SnapshotStore::capture(&k, &g, usize::MAX).unwrap();
        let n_arrays = store.snapshots[0].arrays.len();
        // suffix maxima are non-increasing front-to-back, per array slot
        for slot in 0..n_arrays {
            for w in store.snapshots.windows(2) {
                assert!(w[0].suffix_mags[slot] >= w[1].suffix_mags[slot]);
            }
        }
        // every boundary's suffix bound dominates its own state and the
        // final golden output (the fold is seeded with the output max)
        let out_mag = g.output.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for s in &store.snapshots {
            for (&pi, &sm) in s.arrays.iter().zip(&s.suffix_mags) {
                let own = store.pool[pi as usize]
                    .iter()
                    .fold(0.0f64, |m, v| m.max(v.abs()));
                assert!(sm >= own);
            }
            assert!(s.suffix_mags[0] >= out_mag);
        }
        // thinning keeps the pre-thinning bounds (covering dropped
        // boundaries), so digest changes but bounds stay sound
        let thin = SnapshotStore::capture(&k, &g, 5).unwrap();
        for s in &thin.snapshots {
            let full = store
                .snapshots
                .iter()
                .find(|f| f.cursor == s.cursor)
                .unwrap();
            assert_eq!(s.suffix_mags, full.suffix_mags);
        }
    }

    #[test]
    fn state_deviations_measure_linf_from_golden() {
        let k = kernel();
        let g = k.golden();
        let store = SnapshotStore::capture(&k, &g, usize::MAX).unwrap();
        let snap = &store.snapshots[3];
        let st = store.state(snap);
        let views: Vec<&[f64]> = st.arrays.iter().map(|a| a.as_slice()).collect();
        let (devs, mags) = store.state_deviations(snap.cursor, &views).unwrap();
        assert!(devs.iter().all(|&d| d == 0.0));
        assert_eq!(mags, snap.suffix_mags.as_slice());
        // off-boundary cursor: no certificate inputs
        assert!(store.state_deviations(snap.cursor + 1, &views).is_none());
        // a perturbation shows up as exactly its L∞ distance
        let mut bent = st.clone();
        bent.arrays[0][5] += 3e-4;
        let views: Vec<&[f64]> = bent.arrays.iter().map(|a| a.as_slice()).collect();
        let (devs, _) = store.state_deviations(snap.cursor, &views).unwrap();
        assert!((devs[0] - 3e-4).abs() < 1e-12);
        assert_eq!(devs[1], 0.0);
        // non-finite state must yield an unacceptable (infinite) deviation
        bent.arrays[0][0] = f64::NAN;
        let views: Vec<&[f64]> = bent.arrays.iter().map(|a| a.as_slice()).collect();
        let (devs, _) = store.state_deviations(snap.cursor, &views).unwrap();
        assert_eq!(devs[0], f64::INFINITY);
    }

    #[test]
    fn snapshot_major_schedule_is_stable_and_grouped() {
        let k = kernel();
        let g = k.golden();
        let store = SnapshotStore::capture(&k, &g, usize::MAX).unwrap();
        let c0 = store.snapshots[0].cursor;
        let c2 = store.snapshots[2].cursor;
        // interleave sites served by snapshot 2, snapshot 0, and none
        let plan = vec![
            FaultSpec {
                site: c2 + 1,
                bit: 0,
            },
            FaultSpec { site: 0, bit: 1 },
            FaultSpec { site: c0, bit: 2 },
            FaultSpec { site: c2, bit: 3 },
            FaultSpec { site: 1, bit: 4 },
        ];
        let sched = schedule_snapshot_major(&plan, &store);
        let bits: Vec<u8> = sched.iter().map(|f| f.bit).collect();
        // group order: from-scratch (orig order), snap 0, snap 2 (orig order)
        assert_eq!(bits, vec![1, 4, 2, 0, 3]);
        // a site-major plan passes through unchanged
        let monotone: Vec<FaultSpec> = (0..g.n_sites())
            .step_by(97)
            .map(|site| FaultSpec { site, bit: 0 })
            .collect();
        assert_eq!(schedule_snapshot_major(&monotone, &store), monotone);
    }
}
