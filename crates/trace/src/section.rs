//! Golden-run segmentation into **sections** — the phase structure behind
//! compositional boundary analysis (`ftb-core::compose`).
//!
//! A *section* is a contiguous range of dynamic instructions that forms
//! one phase of the computation: the initialization prologue, then one
//! slice per outer-loop repetition (a Jacobi sweep, a CG iteration). The
//! segmentation is heuristic but deterministic, driven by structure the
//! golden run already records:
//!
//! * the **init boundary** — the first transition out of a
//!   [`Region::Init`] static instruction ends the prologue section;
//! * a **phase restart** — a [`Region::Reduction`] site (a convergence
//!   monitor: a residual, a dot product feeding a stopping test) followed
//!   by a *smaller* static id marks re-entry into an earlier source line,
//!   i.e. the outer loop wrapped around;
//! * a **phase head** — a site the kernel explicitly marked
//!   (`phase_head` on [`StaticInstr`], declared with the `phase` marker
//!   in `static_instrs!`): transitioning into it from a *different*
//!   static instruction starts a new section. This is how monitor-free
//!   kernels (stencil sweeps, LU block steps, FFT six-step stages)
//!   expose their outer-loop structure without a reduction site.
//!
//! Kernels without reduction monitors or phase-head marks (e.g. a
//! single-pass GEMM) segment into prologue + one compute section, for
//! which composition degenerates to the monolithic analysis — correct,
//! just not incremental.
//!
//! [`StaticInstr`]: crate::site::StaticInstr
//!
//! Each section exposes an **output frontier**: the sites whose values
//! are live at the section boundary. We over-approximate it as every
//! non-[`Region::Reduction`] site in the section (monitor values feed
//! only the stopping test, not the carried state). Over-approximating
//! the frontier can only *overestimate* cross-section amplification,
//! which pushes composed thresholds down — the conservative direction.
//!
//! Sections also carry a **content signature** (FNV-1a over the static-id
//! stream, the site range, and the kernel's [`code_version`] stamp) used
//! by the incremental ledger to decide which sections a kernel edit
//! dirtied.
//!
//! [`code_version`]: SectionMap::signature

use crate::golden::GoldenRun;
use crate::site::{Region, StaticId, StaticRegistry};
use serde::{Deserialize, Serialize};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over byte slices (no `std::hash` so the
/// result is stable across Rust versions and platforms — it is persisted
/// in ledgers).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// The section decomposition of one golden run: a partition of
/// `0..n_sites` into contiguous phases.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectionMap {
    /// Start site of each section; `starts[0] == 0`, strictly increasing.
    starts: Vec<usize>,
    /// Total dynamic instructions covered.
    n_sites: usize,
}

impl SectionMap {
    /// The trivial decomposition: one section spanning the whole run.
    /// Composing over it must reproduce the monolithic analysis.
    pub fn whole(n_sites: usize) -> Self {
        assert!(n_sites > 0, "cannot section an empty run");
        Self {
            starts: vec![0],
            n_sites,
        }
    }

    /// Segment a golden run into phases using the init-boundary,
    /// phase-restart and phase-head heuristics described at module level.
    ///
    /// # Panics
    /// Panics if the golden run recorded no dynamic instructions.
    pub fn phases(golden: &GoldenRun, registry: &StaticRegistry) -> Self {
        let n_sites = golden.n_sites();
        assert!(n_sites > 0, "cannot section an empty run");
        let mut starts = vec![0];
        let mut ids = golden.static_ids(0..n_sites);
        let mut prev_id = ids.next().unwrap_or(StaticId(0));
        for (i, id) in (1..).zip(ids) {
            let prev = registry.get(prev_id).region;
            let cur = registry.get(id);
            let init_boundary = prev == Region::Init && cur.region != Region::Init;
            let phase_restart = prev == Region::Reduction && id < prev_id;
            let phase_head = id != prev_id && cur.phase_head;
            if init_boundary || phase_restart || phase_head {
                starts.push(i);
            }
            prev_id = id;
        }
        Self { starts, n_sites }
    }

    /// Coalesce adjacent sections until at most `max_sections` remain,
    /// merging evenly. Bounds per-section campaign count for long runs
    /// (600 sweeps need not mean 600 campaigns).
    pub fn coalesce(self, max_sections: usize) -> Self {
        let max = max_sections.max(1);
        let m = self.starts.len();
        if m <= max {
            return self;
        }
        // group k of `max` takes sections [k*m/max, (k+1)*m/max)
        let starts = (0..max).map(|k| self.starts[k * m / max]).collect();
        Self {
            starts,
            n_sites: self.n_sites,
        }
    }

    /// Number of sections.
    pub fn n_sections(&self) -> usize {
        self.starts.len()
    }

    /// Total dynamic instructions covered.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Site range `[lo, hi)` of section `t`.
    pub fn range(&self, t: usize) -> (usize, usize) {
        let lo = self.starts[t];
        let hi = self.starts.get(t + 1).copied().unwrap_or(self.n_sites);
        (lo, hi)
    }

    /// The section containing dynamic instruction `site`.
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn section_of(&self, site: usize) -> usize {
        assert!(site < self.n_sites, "site {site} out of range");
        match self.starts.binary_search(&site) {
            Ok(t) => t,
            Err(ins) => ins - 1,
        }
    }

    /// Output-frontier sites of section `t`: every site in the range
    /// whose static instruction is not a [`Region::Reduction`] monitor.
    pub fn frontier(&self, golden: &GoldenRun, registry: &StaticRegistry, t: usize) -> Vec<usize> {
        let (lo, hi) = self.range(t);
        (lo..hi)
            .zip(golden.static_ids(lo..hi))
            .filter(|&(_, id)| registry.get(id).region != Region::Reduction)
            .map(|(s, _)| s)
            .collect()
    }

    /// Content signature of section `t`: FNV-1a over the site range, the
    /// static-id stream, and the kernel-supplied `code_version` stamp for
    /// the range. The stream captures the *shape* of the code executed —
    /// not the values — so editing one sweep's arithmetic changes only
    /// that section's signature (via `code_version`), while changing the
    /// iteration structure changes the stream itself.
    pub fn signature(&self, golden: &GoldenRun, t: usize, code_version: u64) -> u64 {
        let (lo, hi) = self.range(t);
        let mut h = Fnv1a::new();
        h.write_u64(lo as u64);
        h.write_u64(hi as u64);
        for id in golden.static_ids(lo..hi) {
            h.write(&id.0.to_le_bytes());
        }
        h.write_u64(code_version);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::Precision;
    use crate::tracer::Tracer;

    crate::static_instrs! {
        mod sid {
            INIT => ("k.init", Init),
            BODY => ("k.body", Compute),
            RESID => ("k.resid", Reduction),
        }
    }

    /// init ×3, then `sweeps` repetitions of (body ×3, resid).
    fn sweep_golden(sweeps: usize) -> GoldenRun {
        let mut t = Tracer::golden(Precision::F64);
        for i in 0..3 {
            t.value(sid::INIT, i as f64);
        }
        for s in 0..sweeps {
            for i in 0..3 {
                t.value(sid::BODY, (s * 3 + i) as f64);
            }
            t.value(sid::RESID, s as f64);
        }
        t.finish_golden(vec![0.0])
    }

    #[test]
    fn phases_split_init_and_sweeps() {
        let g = sweep_golden(4);
        let m = SectionMap::phases(&g, &sid::registry());
        // prologue + one section per sweep
        assert_eq!(m.n_sections(), 5);
        assert_eq!(m.range(0), (0, 3));
        assert_eq!(m.range(1), (3, 7));
        assert_eq!(m.range(4), (15, 19));
        assert_eq!(m.n_sites(), g.n_sites());
    }

    crate::static_instrs! {
        mod hsid {
            INIT => ("h.init", Init),
            HEAD => ("h.head", Compute, phase),
            TAIL => ("h.tail", Compute),
        }
    }

    /// init ×2, then `phases` repetitions of (head ×3, tail ×2) — a
    /// monitor-free kernel whose outer loop is exposed by the phase-head
    /// mark alone.
    fn head_golden(phases: usize) -> GoldenRun {
        let mut t = Tracer::golden(Precision::F64);
        for i in 0..2 {
            t.value(hsid::INIT, i as f64);
        }
        for p in 0..phases {
            for i in 0..3 {
                t.value(hsid::HEAD, (p * 3 + i) as f64);
            }
            for i in 0..2 {
                t.value(hsid::TAIL, (p * 2 + i) as f64);
            }
        }
        t.finish_golden(vec![0.0])
    }

    #[test]
    fn phase_head_marks_split_monitor_free_phases() {
        let g = head_golden(3);
        let m = SectionMap::phases(&g, &hsid::registry());
        // prologue + one section per (head, tail) phase; consecutive HEAD
        // sites within one phase must NOT split (same static id)
        assert_eq!(m.n_sections(), 4);
        assert_eq!(m.range(0), (0, 2));
        assert_eq!(m.range(1), (2, 7));
        assert_eq!(m.range(2), (7, 12));
        assert_eq!(m.range(3), (12, 17));
    }

    #[test]
    fn phase_head_coincident_with_init_boundary_splits_once() {
        // first TAIL→HEAD transition after init: init_boundary and
        // phase_head agree on the same index — one section start, not two
        let g = head_golden(1);
        let m = SectionMap::phases(&g, &hsid::registry());
        assert_eq!(m.n_sections(), 2);
        assert_eq!(m.range(0), (0, 2));
        assert_eq!(m.range(1), (2, 7));
    }

    #[test]
    fn unmarked_registry_segmentation_is_unchanged() {
        // the sweep kernel marks nothing: adding the phase-head rule must
        // not perturb reduction-restart segmentation
        let g = sweep_golden(4);
        let m = SectionMap::phases(&g, &sid::registry());
        assert_eq!(m.n_sections(), 5);
    }

    #[test]
    fn section_of_is_inverse_of_range() {
        let g = sweep_golden(3);
        let m = SectionMap::phases(&g, &sid::registry());
        for t in 0..m.n_sections() {
            let (lo, hi) = m.range(t);
            for s in lo..hi {
                assert_eq!(m.section_of(s), t, "site {s}");
            }
        }
    }

    #[test]
    fn whole_covers_everything() {
        let m = SectionMap::whole(17);
        assert_eq!(m.n_sections(), 1);
        assert_eq!(m.range(0), (0, 17));
        assert_eq!(m.section_of(16), 0);
    }

    #[test]
    fn frontier_excludes_reduction_monitors() {
        let g = sweep_golden(2);
        let m = SectionMap::phases(&g, &sid::registry());
        let f = m.frontier(&g, &sid::registry(), 1);
        // body sites 3..6, resid site 6 excluded
        assert_eq!(f, vec![3, 4, 5]);
    }

    #[test]
    fn coalesce_bounds_section_count() {
        let g = sweep_golden(10);
        let m = SectionMap::phases(&g, &sid::registry());
        assert_eq!(m.n_sections(), 11);
        let c = m.clone().coalesce(4);
        assert_eq!(c.n_sections(), 4);
        // still a partition of the same sites
        assert_eq!(c.range(0).0, 0);
        assert_eq!(c.range(3).1, g.n_sites());
        for t in 1..4 {
            assert_eq!(c.range(t - 1).1, c.range(t).0);
        }
        // coalescing below the current count is the identity
        assert_eq!(m.clone().coalesce(100), m);
    }

    #[test]
    fn signature_tracks_code_version_and_shape() {
        let g = sweep_golden(3);
        let m = SectionMap::phases(&g, &sid::registry());
        let base = m.signature(&g, 1, 0);
        // same shape, same stamp → same signature
        assert_eq!(m.signature(&g, 1, 0), base);
        // a code edit changes it
        assert_ne!(m.signature(&g, 1, 7), base);
        // sweep sections share a static-id shape but not a range
        assert_ne!(m.signature(&g, 2, 0), base);
    }

    #[test]
    fn fnv_is_stable() {
        // pinned digest: the signature is persisted in ledgers, so the
        // hash must never drift across platforms or refactors
        let mut h = Fnv1a::new();
        h.write(b"ftb");
        assert_eq!(h.finish(), 0xdc93_9218_febf_562f);
    }
}
