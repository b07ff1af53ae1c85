//! Affine-form (zonotope) abstract interpretation over the provenance
//! DDG — the tight second pass on top of the interval domain.
//!
//! The interval forward pass and the backward threshold sweep both fold
//! *magnitudes*: every reconverging path contributes `amp·|Δ|` and the
//! contributions add (triangle inequality). That is sound but blind to
//! **cancellation** — `x − x` is as wide as `x + x`. This module keeps
//! each deviation as an affine form over shared noise symbols,
//!
//! ```text
//!   dev_u = Σ_s c_{u,s}·ε_s ± k_{u,s}·|ε_s|   (+ rem_u · [condensed])
//! ```
//!
//! with one symbol `ε_s` per injection site (threshold mode) or per
//! source site (value-envelope mode). The signed linear coefficient
//! `c` rides through the [`ftb_trace::OpKind::signed_derivative`]
//! channel; everything the secant table certifies beyond the linear
//! part — curvature slack `amp − |∂|`, unknown-sign edges, rounding of
//! the coefficient arithmetic itself — is folded into the unsigned
//! slack `k`, rounded outward at every step. Reconverging paths then
//! add **signed** `c`s: opposite-sign derivatives cancel in `c` and
//! only their rounding residue lands in `k`.
//!
//! Graceful degradation: an edge with no recorded derivative sign moves
//! its whole mass `|c| + k` into `k` (the interval transfer's mass),
//! and the value-envelope sweep condenses the oldest noise symbols into
//! an interval remainder `rem` whenever a node holds more than
//! [`AffineConfig::budget`] of them. With every edge sign-unknown, or
//! with the budget at one, the domain carries the interval domain's
//! masses but is not identical to it: `transfer`, `mass` and
//! `accumulate` add outward rounding pads (`up`, `comp`) the interval
//! pass does not, so the raw affine results can be a few ulps looser.
//! What makes the affine results never looser is the final clamp
//! against their interval counterparts (`max` on thresholds, `min` on
//! radii).
//!
//! Cost: the [`super::slice`] prepass certifies empty-cone sites
//! outright and confines the sweep to the live subgraph; threshold mode
//! processes injection sites in chunks of at most `budget` (≤ 64)
//! shared symbols per sweep, so one sweep costs `O(edges · chunk)` and
//! never needs condensation. The chunks are independent (no symbol ever
//! reads another's state), so they run in parallel on the ambient rayon
//! pool, each worker reusing one sweep scratch, with results identical
//! at every thread count and chunk width.
//!
//! The modelling caveat is inherited unchanged from the backward pass:
//! per-edge secant bounds compose over paths, and cross terms of one
//! perturbation reaching both operands of a product are outside the
//! certificate (see DESIGN.md). The conformance harness checks both
//! domains against exhaustive ground truth at zero violations.

use super::forward::{forward_pass, AbsIntError, ForwardConfig, ForwardIntervals};
use super::interval::Interval;
use super::slice::influence_slice;
use crate::staticbound::{backward_pass, StaticBoundError};
use ftb_trace::{Ddg, GoldenRun};
use rayon::prelude::*;

/// Tuning knobs of the affine domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineConfig {
    /// Noise-symbol budget per node.
    ///
    /// In threshold mode ([`affine_bound`]) it only sets the chunk
    /// width, `min(budget, 64)` injection sites sharing one sweep: it
    /// changes the cost, never a threshold. In the value-envelope sweep
    /// ([`affine_forward`]) the oldest symbols beyond this many condense
    /// into the interval remainder, so there a larger budget is tighter
    /// and proportionally more expensive.
    pub budget: usize,
}

impl Default for AffineConfig {
    fn default() -> Self {
        AffineConfig { budget: 32 }
    }
}

/// The affine-tightened static boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct AffineBound {
    /// Per-site thresholds: pointwise `max` of the affine per-sink
    /// certificates and the backward-pass thresholds, with empty-cone
    /// sites certified at `f64::MAX`.
    pub thresholds: Vec<f64>,
    /// Sites with at least one path to a sink (from the backward pass).
    pub n_constrained: usize,
    /// Empty-cone sites certified `Masked` outright by the slice.
    pub n_dead: usize,
    /// Swept sites whose threshold is strictly larger than the
    /// backward pass's.
    pub n_tightened: usize,
    /// Sites the affine sweep actually processed (the target list
    /// restricted to the live slice).
    pub n_swept: usize,
    /// Value-flow edges in the graph.
    pub n_edges: usize,
}

impl AffineBound {
    /// Number of dynamic instructions covered.
    pub fn n_sites(&self) -> usize {
        self.thresholds.len()
    }

    /// Convert to a [`crate::boundary::Boundary`] (same clamping rules
    /// as the backward pass's conversion).
    pub fn boundary(&self) -> crate::boundary::Boundary {
        crate::boundary::Boundary::from_static(&self.thresholds)
    }
}

/// Round up by one ulp; NaN conservatively becomes `+∞`.
#[inline]
fn up(x: f64) -> f64 {
    if x.is_nan() {
        f64::INFINITY
    } else {
        x.next_up()
    }
}

/// Outward compensation for one round-to-nearest operation that
/// produced `x`: half an ulp, over-approximated (with a subnormal
/// floor so `x = 0` still gets a positive pad).
#[inline]
fn comp(x: f64) -> f64 {
    up(x.abs() * f64::EPSILON) + f64::MIN_POSITIVE
}

/// One affine pair: `(symbol, signed linear coefficient, unsigned
/// slack)`. The certified deviation mass of the pair is `|c| + k` per
/// unit of its symbol's magnitude.
type Pair = (u32, f64, f64);

/// Certified per-unit deviation mass of a pair.
#[inline]
fn mass(c: f64, k: f64) -> f64 {
    up(c.abs() + k)
}

/// Push a pair through one edge. The edge certifies
/// `|Δuse − ∂·Δdef| ≤ (amp − |∂|)·|Δdef|` when the signed derivative
/// `∂` is recorded (finite), and `|Δuse| ≤ amp·|Δdef|` always, both
/// for `|Δdef| ≤ cap` (enforced separately by the per-node cap
/// constraints).
#[inline]
fn transfer(amp: f64, dcoef: f64, c: f64, k: f64) -> (f64, f64) {
    let m = mass(c, k);
    if dcoef.is_finite() {
        let slack = {
            let s = amp - dcoef.abs();
            if s.is_nan() {
                f64::INFINITY
            } else {
                s.max(0.0)
            }
        };
        let c2 = dcoef * c;
        let k2 = up(up(up(dcoef.abs() * k) + up(slack * m)) + comp(c2));
        (c2, k2)
    } else {
        // sign unknown: the whole mass is slack — the interval transfer
        (0.0, up(amp * m))
    }
}

/// Signed-coefficient accumulation `c += dc` with its rounding residue
/// compensated into `k` (plus the incoming slack `dk`).
#[inline]
fn accumulate(c: &mut f64, k: &mut f64, dc: f64, dk: f64) {
    let s = *c + dc;
    *k = up(up(*k + dk) + comp(s));
    *c = s;
}

/// The per-edge signed derivative, `NaN` (sign unknown) for graphs
/// recorded before the channel existed.
#[inline]
fn dcoef_at(ddg: &Ddg, e: usize) -> f64 {
    ddg.dcoefs.get(e).copied().unwrap_or(f64::NAN)
}

/// Per-node tightest curvature cap.
fn min_caps(ddg: &Ddg) -> Vec<f64> {
    let mut cap = vec![f64::INFINITY; ddg.n_sites];
    for &(s, c) in &ddg.caps {
        let slot = &mut cap[s as usize];
        if c < *slot {
            *slot = c;
        }
    }
    cap
}

/// Out-degree per def — the refcount that lets a sweep free a node's
/// pair list after its last out-edge folds.
fn out_degrees(ddg: &Ddg) -> Vec<u32> {
    let mut deg = vec![0u32; ddg.n_sites];
    for &d in &ddg.defs {
        deg[d as usize] += 1;
    }
    deg
}

/// Sinks sorted by def site for `O(log)` per-node range lookup.
struct SinkIndex {
    outs: Vec<(u32, f64)>,
    branches: Vec<(u32, f64, f64)>,
}

impl SinkIndex {
    fn new(ddg: &Ddg) -> Self {
        let mut outs = ddg.out_sinks.clone();
        outs.sort_unstable_by_key(|&(d, _)| d);
        let mut branches = ddg.branch_sinks.clone();
        branches.sort_unstable_by_key(|&(d, _, _)| d);
        SinkIndex { outs, branches }
    }

    fn outs_at(&self, u: u32) -> &[(u32, f64)] {
        let lo = self.outs.partition_point(|&(d, _)| d < u);
        let hi = self.outs.partition_point(|&(d, _)| d <= u);
        &self.outs[lo..hi]
    }

    fn branches_at(&self, u: u32) -> &[(u32, f64, f64)] {
        let lo = self.branches.partition_point(|&(d, _, _)| d < u);
        let hi = self.branches.partition_point(|&(d, _, _)| d <= u);
        &self.branches[lo..hi]
    }
}

/// A conservatively rounded-down quotient `num / den` clamped to
/// `[0, ∞)`: one `next_down` absorbs the half-ulp of correctly rounded
/// division.
#[inline]
fn quot_down(num: f64, den: f64) -> f64 {
    (num / den).next_down().max(0.0)
}

/// Graph facts every threshold sweep reads, built once per
/// [`affine_bound`] call and shared read-only by all workers.
struct SweepGraph<'a> {
    ddg: &'a Ddg,
    reach: &'a [bool],
    sinks: SinkIndex,
    cap: Vec<f64>,
    outdeg: Vec<u32>,
    tolerance: f64,
}

impl<'a> SweepGraph<'a> {
    fn new(ddg: &'a Ddg, reach: &'a [bool], tolerance: f64) -> Self {
        SweepGraph {
            ddg,
            reach,
            sinks: SinkIndex::new(ddg),
            cap: min_caps(ddg),
            outdeg: out_degrees(ddg),
            tolerance,
        }
    }
}

/// One worker's reusable scratch for the chunked threshold sweep. Node
/// `u` carries the symbols set in `syms[u]`, and `pairs[u]` holds their
/// `(c, k)` pairs in ascending symbol order, allocated at exactly that
/// length.
struct ThresholdSweep {
    outdeg: Vec<u32>,
    syms: Vec<u64>,
    pairs: Vec<Vec<(f64, f64)>>,
}

impl ThresholdSweep {
    fn new(g: &SweepGraph<'_>) -> Self {
        let n = g.ddg.n_sites;
        ThresholdSweep {
            outdeg: g.outdeg.clone(),
            syms: vec![0; n],
            pairs: vec![Vec::new(); n],
        }
    }

    fn release(&mut self, u: usize) {
        self.syms[u] = 0;
        self.pairs[u] = Vec::new();
    }

    /// One forward sweep for `seeds.len() ≤ 64` distinct injection sites
    /// sharing the symbol space `0..seeds.len()`. Returns the per-seed
    /// raw threshold (before the safety division), `+∞` when nothing in
    /// the cone constrains the site.
    fn run(&mut self, g: &SweepGraph<'_>, seeds: &[usize]) -> Vec<f64> {
        debug_assert!(seeds.len() <= 64);
        let ddg = g.ddg;
        let ne = ddg.defs.len();
        let mut t = vec![f64::INFINITY; seeds.len()];
        let mut touched: Vec<usize> = Vec::new();
        for (j, &s) in seeds.iter().enumerate() {
            debug_assert_eq!(self.syms[s], 0, "seed {s} repeats within a chunk");
            self.syms[s] = 1 << j;
            self.pairs[s] = vec![(1.0, 0.0)];
            touched.push(s);
        }

        // per-node scratch, keyed by symbol (≤ 64 ⇒ a bitmask index)
        let mut acc_c = [0.0f64; 64];
        let mut acc_k = [0.0f64; 64];

        let mut e = 0usize;
        for u in 0..ddg.n_sites {
            let live = g.reach[u];
            let mut seen: u64 = 0;
            while e < ne && ddg.uses[e] as usize == u {
                let d = ddg.defs[e] as usize;
                let amp = ddg.amps[e];
                if live && amp > 0.0 && self.syms[d] != 0 {
                    let dc = dcoef_at(ddg, e);
                    let mut bits = self.syms[d];
                    for &(c, k) in &self.pairs[d] {
                        let i = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let (c2, k2) = transfer(amp, dc, c, k);
                        if seen >> i & 1 == 1 {
                            accumulate(&mut acc_c[i], &mut acc_k[i], c2, k2);
                        } else {
                            seen |= 1 << i;
                            acc_c[i] = c2;
                            acc_k[i] = k2;
                        }
                    }
                }
                self.outdeg[d] -= 1;
                if self.outdeg[d] == 0 {
                    self.release(d);
                }
                e += 1;
            }
            if seen != 0 {
                // Edges point backward, so the only symbol `u` can hold
                // already is its own seed's, with its initial pair.
                let own = self.syms[u];
                debug_assert_eq!(own & seen, 0, "edge into its own def at {u}");
                if own == 0 {
                    touched.push(u);
                }
                let syms = own | seen;
                let mut pu = Vec::with_capacity(syms.count_ones() as usize);
                let mut bits = syms;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    pu.push(if own >> i & 1 == 1 {
                        (1.0, 0.0)
                    } else {
                        (acc_c[i], acc_k[i])
                    });
                }
                self.syms[u] = syms;
                self.pairs[u] = pu;
            }
            if self.syms[u] == 0 {
                continue;
            }
            // constraints at u: curvature cap, then each sink reached
            let cu = g.cap[u];
            let outs = g.sinks.outs_at(u as u32);
            let branches = g.sinks.branches_at(u as u32);
            if cu.is_finite() || !outs.is_empty() || !branches.is_empty() {
                let mut bits = self.syms[u];
                for &(c, k) in &self.pairs[u] {
                    let m = mass(c, k);
                    let tj = &mut t[bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    if cu.is_finite() {
                        *tj = tj.min(quot_down(cu, m));
                    }
                    for &(_, amp) in outs {
                        if amp > 0.0 {
                            *tj = tj.min(quot_down(g.tolerance, up(amp * m)));
                        }
                    }
                    for &(_, amp, margin) in branches {
                        if amp > 0.0 {
                            *tj = if margin > 0.0 {
                                tj.min(quot_down(margin, up(amp * m)))
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }

        // reset for the next chunk
        for s in touched {
            self.release(s);
        }
        self.outdeg.copy_from_slice(&g.outdeg);
        t
    }
}

/// The affine-tightened static boundary: backward-pass thresholds,
/// lifted per target site by the chunked affine threshold sweep and to
/// `f64::MAX` on empty-cone sites.
///
/// `targets` restricts the (per-site-cost) affine sweep to the given
/// injection sites — the shape campaign stride plans want; `None`
/// sweeps every live site. Duplicates and order in `targets` do not
/// matter. Untargeted sites keep their backward-pass thresholds, so the
/// result is sound and complete either way.
///
/// The seed chunks run in parallel on the ambient rayon pool, one
/// reusable sweep scratch per worker. A chunk's thresholds depend only
/// on its own seeds, so the result is identical at every thread count
/// and every `cfg.budget`.
///
/// # Errors
/// Same contract as [`crate::static_bound`]: refuses uninstrumented
/// graphs and non-positive tolerances.
pub fn affine_bound(
    ddg: &Ddg,
    tolerance: f64,
    safety: f64,
    cfg: &AffineConfig,
    targets: Option<&[usize]>,
) -> Result<AffineBound, StaticBoundError> {
    if !(tolerance > 0.0 && tolerance.is_finite()) {
        return Err(StaticBoundError::BadTolerance(tolerance));
    }
    if !ddg.is_instrumented() {
        return Err(StaticBoundError::NotInstrumented);
    }
    let safety = safety.max(1.0);
    let n = ddg.n_sites;
    let bw = backward_pass(ddg, tolerance, safety);
    let slice = influence_slice(ddg);

    let mut thresholds = bw.thresholds;
    for (i, t) in thresholds.iter_mut().enumerate() {
        if !slice.reach[i] {
            *t = f64::MAX;
        }
    }

    // sorted and distinct: a site seeded twice in one chunk would share
    // one symbol slot between two seeds
    let target_list: Vec<usize> = match targets {
        Some(list) => {
            let mut list: Vec<usize> = list
                .iter()
                .copied()
                .filter(|&s| s < n && slice.reach[s])
                .collect();
            list.sort_unstable();
            list.dedup();
            list
        }
        None => (0..n).filter(|&s| slice.reach[s]).collect(),
    };

    // each worker builds one scratch on its first chunk and keeps it
    let chunks: Vec<&[usize]> = target_list.chunks(cfg.budget.clamp(1, 64)).collect();
    let g = SweepGraph::new(ddg, &slice.reach, tolerance);
    let (_, mut done) = (0..chunks.len())
        .into_par_iter()
        .fold(
            || (None, Vec::new()),
            |(sweep, mut done): (Option<ThresholdSweep>, Vec<_>), ci| {
                let mut sweep = sweep.unwrap_or_else(|| ThresholdSweep::new(&g));
                done.push((ci, sweep.run(&g, chunks[ci])));
                (Some(sweep), done)
            },
        )
        .reduce(
            || (None, Vec::new()),
            |(_, mut a), (_, b)| {
                a.extend(b);
                (None, a)
            },
        );
    done.sort_unstable_by_key(|&(ci, _)| ci);
    let raw = done.into_iter().flat_map(|(_, r)| r);

    let mut n_tightened = 0usize;
    for (&s, r) in target_list.iter().zip(raw) {
        let ta = if r.is_finite() {
            (r / safety).next_down().max(0.0)
        } else {
            f64::MAX
        };
        if ta > thresholds[s] {
            thresholds[s] = ta;
            n_tightened += 1;
        }
    }

    Ok(AffineBound {
        thresholds,
        n_constrained: bw.n_constrained,
        n_dead: slice.n_dead,
        n_tightened,
        n_swept: target_list.len(),
        n_edges: ddg.n_edges(),
    })
}

/// The value-envelope affine sweep: one noise symbol per source site,
/// coefficients pre-scaled by the source radius `widen·|golden|`,
/// oldest-symbol condensation into the remainder beyond the budget.
/// Returns per-site deviation radii (`+∞` past a curvature cap).
fn value_sweep(ddg: &Ddg, golden: &GoldenRun, widen: f64, budget: usize) -> Vec<f64> {
    let n = ddg.n_sites;
    let ne = ddg.defs.len();
    let cap = min_caps(ddg);
    let mut outdeg = out_degrees(ddg);
    let mut has_inedge = vec![false; n];
    for &u in &ddg.uses {
        has_inedge[u as usize] = true;
    }

    let mut pairs: Vec<Vec<Pair>> = vec![Vec::new(); n];
    let mut rem = vec![0.0f64; n];
    let mut radius = vec![0.0f64; n];
    let mut next_sym = 0u32;
    let mut scratch: Vec<Pair> = Vec::new();

    let mut e = 0usize;
    for u in 0..n {
        scratch.clear();
        let mut r_in = 0.0f64;
        while e < ne && ddg.uses[e] as usize == u {
            let d = ddg.defs[e] as usize;
            let amp = ddg.amps[e];
            if amp > 0.0 && radius[d] > 0.0 {
                if radius[d] > cap[d] {
                    // outside the def's secant certificate: unbounded
                    r_in = f64::INFINITY;
                } else {
                    let dc = dcoef_at(ddg, e);
                    for &(sym, c, k) in &pairs[d] {
                        let (c2, k2) = transfer(amp, dc, c, k);
                        scratch.push((sym, c2, k2));
                    }
                    if rem[d] > 0.0 {
                        r_in = up(r_in + up(amp * rem[d]));
                    }
                }
            }
            outdeg[d] -= 1;
            if outdeg[d] == 0 {
                pairs[d] = Vec::new();
            }
            e += 1;
        }
        if !has_inedge[u] {
            // seed: coefficient pre-scaled by the source radius, so the
            // symbol ranges over [-1, 1]
            let r0 = up(widen * golden.value(u).abs());
            if r0 > 0.0 {
                scratch.push((next_sym, r0, 0.0));
                next_sym += 1;
            }
        }
        if scratch.is_empty() && r_in == 0.0 {
            continue;
        }
        // merge contributions sharing a symbol: signed coefficients add
        scratch.sort_unstable_by_key(|&(sym, _, _)| sym);
        let pu = &mut pairs[u];
        for &(sym, c, k) in scratch.iter() {
            match pu.last_mut() {
                Some(last) if last.0 == sym => accumulate(&mut last.1, &mut last.2, c, k),
                _ => pu.push((sym, c, k)),
            }
        }
        // condense the oldest symbols beyond the budget (keep-newest is
        // what makes a larger budget monotonically tighter)
        let mut r_u = r_in;
        if pu.len() > budget.max(1) {
            let drop = pu.len() - budget.max(1);
            for &(_, c, k) in pu.iter().take(drop) {
                r_u = up(r_u + mass(c, k));
            }
            pu.drain(..drop);
        }
        rem[u] = r_u;
        let mut total = r_u;
        for &(_, c, k) in pu.iter() {
            total = up(total + mass(c, k));
        }
        radius[u] = total;
    }
    radius
}

/// The affine value-envelope pass: interval forward pass, tightened
/// per site by the condensing affine sweep (pointwise `min` of radii,
/// so never looser than [`forward_pass`]).
///
/// # Errors
/// Same contract as [`forward_pass`].
pub fn affine_forward(
    ddg: &Ddg,
    golden: &GoldenRun,
    cfg: &ForwardConfig,
    acfg: &AffineConfig,
) -> Result<ForwardIntervals, AbsIntError> {
    let base = forward_pass(ddg, golden, cfg)?;
    if cfg.widen == 0.0 {
        // every radius is already zero: the domains coincide
        return Ok(base);
    }
    let affine = value_sweep(ddg, golden, cfg.widen, acfg.budget);
    let mut n_unbounded = 0usize;
    let mut radii = base.radii;
    let mut intervals = base.intervals;
    for i in 0..radii.len() {
        if affine[i] < radii[i] {
            radii[i] = affine[i];
            intervals[i] = Interval::centered(golden.value(i), affine[i]);
        }
        if !radii[i].is_finite() {
            n_unbounded += 1;
        }
    }
    Ok(ForwardIntervals {
        precision: base.precision,
        intervals,
        radii,
        n_sources: base.n_sources,
        n_unbounded,
    })
}

/// Affine inlet / per-site amplification bounds for one trace section
/// `[lo, hi)` — the compose sweep's tightened `static_amp` inputs.
///
/// Runs a *backward* chunked-symbol sweep from the section's frontier
/// slots: each frontier site is one shared noise symbol, and the signed
/// derivative channel accumulates reconverging paths with their signs,
/// so opposing paths cancel instead of adding. Every result is clamped
/// by the plain interval path-product bound computed in the same call,
/// so the affine bounds are never looser than the interval ones.
///
/// Returns `(site_amp, inlet_amp)`:
/// - `site_amp[li]` bounds `|Δfrontier| / |Δinjected|` for an error
///   injected at section site `lo + li` (a frontier slot itself is at
///   least `1`, its direct perturbation);
/// - `inlet_amp` bounds the same ratio for an error arriving at any
///   def *before* `lo` that the section reads — the affine analogue of
///   the compose module's interval path-product fold.
///
/// # Panics
/// Panics if `is_frontier.len() != hi - lo`.
pub fn affine_section_amp(
    ddg: &Ddg,
    lo: usize,
    hi: usize,
    is_frontier: &[bool],
) -> (Vec<f64>, f64) {
    assert_eq!(is_frontier.len(), hi - lo, "frontier flag length mismatch");
    // Edge window touching the section: uses are non-decreasing, so the
    // in-section uses form one contiguous index range.
    let e_lo = ddg.uses.partition_point(|&u| (u as usize) < lo);
    let e_hi = ddg.uses.partition_point(|&u| (u as usize) < hi);

    // Interval reference: one reverse max-path-product pass. Defs
    // strictly precede uses, so reverse edge order finalizes every
    // node's bound before it flows into its defs.
    let mut iamp = vec![0.0f64; hi];
    for (li, &f) in is_frontier.iter().enumerate() {
        if f {
            iamp[lo + li] = 1.0;
        }
    }
    for e in (e_lo..e_hi).rev() {
        let d = ddg.defs[e] as usize;
        let v = ddg.amps[e] * iamp[ddg.uses[e] as usize];
        if v > iamp[d] {
            iamp[d] = v;
        }
    }

    // Affine sweep: symbols are frontier slots, chunked to 64; signed
    // coefficients to the *same* slot cancel across reconverging paths.
    let slots: Vec<usize> = is_frontier
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f)
        .map(|(li, _)| lo + li)
        .collect();
    let mut best = vec![0.0f64; hi];
    for chunk in slots.chunks(64) {
        let mut pairs: Vec<Vec<Pair>> = vec![Vec::new(); hi];
        for (j, &s) in chunk.iter().enumerate() {
            pairs[s].push((j as u32, 1.0, 0.0));
        }
        for e in (e_lo..e_hi).rev() {
            let d = ddg.defs[e] as usize;
            let u = ddg.uses[e] as usize;
            if pairs[u].is_empty() {
                continue;
            }
            let amp = ddg.amps[e];
            let dc = dcoef_at(ddg, e);
            let (head, tail) = pairs.split_at_mut(u);
            let dst = &mut head[d];
            for &(s, c, k) in &tail[0] {
                let (c2, k2) = transfer(amp, dc, c, k);
                match dst.iter_mut().find(|p| p.0 == s) {
                    Some(p) => accumulate(&mut p.1, &mut p.2, c2, k2),
                    None => dst.push((s, c2, k2)),
                }
            }
        }
        for (u, list) in pairs.iter().enumerate() {
            for &(_, c, k) in list {
                let m = mass(c, k);
                if m > best[u] {
                    best[u] = m;
                }
            }
        }
    }

    let site_amp: Vec<f64> = (lo..hi).map(|u| best[u].min(iamp[u])).collect();
    let inlet_amp = (0..lo).map(|d| best[d].min(iamp[d])).fold(0.0f64, f64::max);
    (site_amp, inlet_amp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staticbound::backward_pass;
    use ftb_trace::{OpKind, Precision, StaticId, Tracer};

    const SID: StaticId = StaticId(0);
    const CFG: AffineConfig = AffineConfig { budget: 32 };

    /// `s0 → s1 = s0` and `s0 → s2 = −s0`, reconverging at
    /// `s3 = s1 + s2 ≡ 0`, which is the output.
    fn cancelling_diamond() -> (GoldenRun, Ddg) {
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 2.0); // s0
        t.dep(0, OpKind::Add);
        t.value(SID, 2.0); // s1 = +s0
        t.dep(0, OpKind::Sub);
        t.value(SID, -2.0); // s2 = −s0
        t.dep(1, OpKind::Add);
        t.dep(2, OpKind::Add);
        t.value(SID, 0.0); // s3 = s1 + s2
        t.out_dep(3, 1.0);
        t.finish_golden_with_ddg(vec![0.0])
    }

    #[test]
    fn cancellation_tightens_the_reconverged_site() {
        let (_, ddg) = cancelling_diamond();
        let tol = 1e-3;
        let bw = backward_pass(&ddg, tol, 1.0);
        let af = affine_bound(&ddg, tol, 1.0, &CFG, None).unwrap();
        // backward: two unit paths add ⇒ Δe(s0) = tol/2. Affine: the
        // signed coefficients cancel to ~0 mass at the sink, leaving
        // only rounding compensation ⇒ a vastly larger threshold.
        assert!((bw.thresholds[0] - tol / 2.0).abs() < 1e-18);
        assert!(
            af.thresholds[0] > 1e3 * bw.thresholds[0],
            "affine {} vs backward {}",
            af.thresholds[0],
            bw.thresholds[0]
        );
        assert_eq!(af.n_tightened, 1, "only s0 reconverges");
        assert_eq!(af.n_dead, 0);
    }

    #[test]
    fn never_looser_than_backward_and_max_on_dead_sites() {
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 1.0); // s0: dead
        t.value(SID, 3.0); // s1
        t.dep(1, OpKind::Square(3.0));
        t.value(SID, 9.0); // s2
        t.out_dep(2, 1.0);
        let (_, ddg) = t.finish_golden_with_ddg(vec![9.0]);
        let tol = 0.1;
        let bw = backward_pass(&ddg, tol, 1.0);
        let af = affine_bound(&ddg, tol, 1.0, &CFG, None).unwrap();
        for (a, b) in af.thresholds.iter().zip(&bw.thresholds) {
            assert!(a >= b, "affine {a} looser than backward {b}");
        }
        assert_eq!(af.thresholds[0], f64::MAX, "dead site certified outright");
        assert_eq!(af.n_dead, 1);
    }

    #[test]
    fn per_sink_min_beats_backward_sum_on_multi_sink_sites() {
        // s0 feeds two distinct output elements through unit copies:
        // backward adds the reciprocals (T = tol/2), affine takes the
        // min over sinks (T = tol)
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 1.0); // s0
        t.dep(0, OpKind::Add);
        t.value(SID, 1.0); // s1
        t.out_dep(1, 1.0);
        t.dep(0, OpKind::Add);
        t.value(SID, 1.0); // s2
        t.out_dep(2, 1.0);
        let (_, ddg) = t.finish_golden_with_ddg(vec![1.0, 1.0]);
        let tol = 1e-2;
        let bw = backward_pass(&ddg, tol, 1.0);
        let af = affine_bound(&ddg, tol, 1.0, &CFG, None).unwrap();
        assert!((bw.thresholds[0] - tol / 2.0).abs() < 1e-17);
        assert!(af.thresholds[0] > 1.9 * bw.thresholds[0]);
        assert!(af.thresholds[0] <= tol, "still below the per-sink budget");
    }

    #[test]
    fn safety_and_targets_behave_like_backward() {
        let (_, ddg) = cancelling_diamond();
        let a1 = affine_bound(&ddg, 1e-3, 1.0, &CFG, None).unwrap();
        let a2 = affine_bound(&ddg, 1e-3, 2.0, &CFG, None).unwrap();
        for (x, y) in a1.thresholds.iter().zip(&a2.thresholds) {
            assert!(y <= x, "safety must not loosen: {y} > {x}");
        }
        // restricting the sweep leaves untargeted sites at backward
        let only_s1 = affine_bound(&ddg, 1e-3, 1.0, &CFG, Some(&[1])).unwrap();
        let bw = backward_pass(&ddg, 1e-3, 1.0);
        assert_eq!(only_s1.thresholds[0], bw.thresholds[0]);
        assert_eq!(only_s1.n_swept, 1);
    }

    #[test]
    fn duplicated_unsorted_targets_sweep_each_site_once() {
        let (_, ddg) = cancelling_diamond();
        for budget in [1, 32] {
            let cfg = AffineConfig { budget };
            let clean = affine_bound(&ddg, 1e-3, 1.0, &cfg, Some(&[0, 1, 3])).unwrap();
            let messy = affine_bound(&ddg, 1e-3, 1.0, &cfg, Some(&[3, 0, 1, 0, 3, 0, 9])).unwrap();
            assert_eq!(messy, clean, "budget {budget}");
            assert_eq!(messy.n_swept, 3);
            assert_eq!(messy.n_tightened, 1, "s0 is tightened once");
        }
    }

    #[test]
    fn refusals_match_static_bound() {
        let (_, ddg) = cancelling_diamond();
        assert!(matches!(
            affine_bound(&ddg, -1.0, 1.0, &CFG, None),
            Err(StaticBoundError::BadTolerance(_))
        ));
        let bare = Ddg {
            n_sites: 3,
            ..Ddg::default()
        };
        assert!(matches!(
            affine_bound(&bare, 1e-3, 1.0, &CFG, None),
            Err(StaticBoundError::NotInstrumented)
        ));
    }

    #[test]
    fn value_envelope_cancellation_beats_interval() {
        // x0 source; x1 = x0 (copy); x2 = x0 − x1 ≡ 0: the interval
        // radii add (2·r0) while the affine form cancels
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 4.0); // x0 source
        t.dep(0, OpKind::Add);
        t.value(SID, 4.0); // x1
        t.dep(0, OpKind::Add);
        t.dep(1, OpKind::Sub);
        t.value(SID, 0.0); // x2
        t.out_dep(2, 1.0);
        let (golden, ddg) = t.finish_golden_with_ddg(vec![0.0]);
        let fcfg = ForwardConfig { widen: 1e-3 };
        let iv = forward_pass(&ddg, &golden, &fcfg).unwrap();
        let af = affine_forward(&ddg, &golden, &fcfg, &CFG).unwrap();
        assert!(af.contains_golden(&golden));
        let r0 = 1e-3 * 4.0;
        assert!(iv.radii[2] >= 2.0 * r0, "interval adds the paths");
        assert!(
            af.radii[2] < 1e-6 * r0,
            "affine cancels: {} vs interval {}",
            af.radii[2],
            iv.radii[2]
        );
        // and never looser anywhere
        for (a, b) in af.radii.iter().zip(&iv.radii) {
            assert!(a <= b);
        }
    }

    #[test]
    fn condensation_is_monotone_in_budget() {
        // many sources reconverging: sum of 8 inputs, alternating signs
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        for i in 0..8 {
            t.value(SID, 1.0 + i as f64);
        }
        for i in 0..8u32 {
            t.dep(
                i as usize,
                if i % 2 == 0 { OpKind::Add } else { OpKind::Sub },
            );
        }
        t.value(SID, -4.0);
        t.out_dep(8, 1.0);
        let (golden, ddg) = t.finish_golden_with_ddg(vec![-4.0]);
        let fcfg = ForwardConfig { widen: 1e-4 };
        let radii: Vec<f64> = [1, 2, 4, 8, 32]
            .iter()
            .map(|&b| {
                let af = affine_forward(&ddg, &golden, &fcfg, &AffineConfig { budget: b }).unwrap();
                assert!(af.contains_golden(&golden), "budget {b}");
                af.radii[8]
            })
            .collect();
        for w in radii.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-12),
                "larger budget must not widen: {radii:?}"
            );
        }
        // at budget 1 everything condenses: the result matches the
        // interval sum; at 32 the signed view is active (tighter or
        // equal — here strictly, since the slacks alone are tiny)
        assert!(radii[4] <= radii[0]);
    }

    #[test]
    fn value_envelope_cap_escape_stays_unbounded() {
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 0.5);
        t.dep(0, OpKind::Square(0.5));
        t.value(SID, 0.25);
        t.out_dep(1, 1.0);
        let (golden, ddg) = t.finish_golden_with_ddg(vec![0.25]);
        let af = affine_forward(&ddg, &golden, &ForwardConfig { widen: 3.0 }, &CFG).unwrap();
        assert!(af.radii[1].is_infinite());
        assert_eq!(af.n_unbounded, 1);
        assert!(af.contains_golden(&golden));
    }

    #[test]
    fn unknown_sign_edges_degrade_to_the_interval_transfer() {
        // Linear has no recorded derivative sign: on a Linear-only graph
        // the affine sweep carries the interval transfer's mass, so its
        // radii agree with the interval radii up to rounding pads
        let mut t = Tracer::golden(Precision::F64).with_ddg();
        t.value(SID, 1.0);
        t.dep(0, OpKind::Linear);
        t.value(SID, 1.0);
        t.dep(0, OpKind::Linear);
        t.dep(1, OpKind::Linear);
        t.value(SID, 2.0);
        t.out_dep(2, 1.0);
        let (golden, ddg) = t.finish_golden_with_ddg(vec![2.0]);
        let fcfg = ForwardConfig { widen: 1e-3 };
        let iv = forward_pass(&ddg, &golden, &fcfg).unwrap();
        let af = affine_forward(&ddg, &golden, &fcfg, &CFG).unwrap();
        for (i, (a, b)) in af.radii.iter().zip(&iv.radii).enumerate() {
            assert!(a <= b, "site {i}");
            // within a few ulps: same mass, slightly different rounding
            assert!(*a >= b * (1.0 - 1e-12), "site {i}: {a} vs {b}");
        }
        // Unclamped, the sweep is not the interval pass bit for bit: the
        // outward pads of `mass` and `accumulate` (`up`, `comp`) leave it
        // a few ulps wider at every site here, and the final `min`
        // against `forward_pass` is what hands back the interval radii.
        let raw = value_sweep(&ddg, &golden, fcfg.widen, CFG.budget);
        for (i, (r, b)) in raw.iter().zip(&iv.radii).enumerate() {
            assert!(r > b, "site {i}: unclamped {r:e} vs interval {b:e}");
            assert!(*r <= b * (1.0 + 1e-12), "site {i}: {r:e} vs {b:e}");
            assert_eq!(af.radii[i], *b, "site {i}: the clamp keeps the interval");
        }
    }

    #[test]
    fn section_amp_cancels_reconverging_paths() {
        let (_, ddg) = cancelling_diamond();
        // whole trace as one section, s3 the only frontier slot
        let flags = [false, false, false, true];
        let (site, _) = affine_section_amp(&ddg, 0, 4, &flags);
        // s0's ±1 paths reconverge at s3 and cancel to rounding noise
        assert!(site[0] < 1e-6, "cancellation lost: {}", site[0]);
        // a frontier slot absorbs its own perturbation 1:1
        assert!((site[3] - 1.0).abs() < 1e-12);
        // the intermediates each carry one unit path
        assert!((site[1] - 1.0).abs() < 1e-9, "{}", site[1]);
        assert!((site[2] - 1.0).abs() < 1e-9, "{}", site[2]);
    }

    #[test]
    fn section_amp_inlet_bound_sees_the_cancellation() {
        let (_, ddg) = cancelling_diamond();
        // section [1,4): s0 is the inlet def feeding both branches
        let flags = [false, false, true];
        let (_, inlet) = affine_section_amp(&ddg, 1, 4, &flags);
        assert!(inlet < 1e-6, "inlet cancellation lost: {inlet}");
    }

    #[test]
    fn section_amp_never_exceeds_the_interval_path_bound() {
        // 0 -(x2)-> 1 -(x3)-> 2, section [1,3), frontier {1, 2}: the
        // max path product through the section is 2·3 = 6 for the inlet
        // and 3 for site 1.
        let ddg = Ddg {
            n_sites: 3,
            defs: vec![0, 1],
            uses: vec![1, 2],
            amps: vec![2.0, 3.0],
            dcoefs: vec![2.0, 3.0],
            out_sinks: vec![(2, 1.0)],
            ..Ddg::default()
        };
        let (site, inlet) = affine_section_amp(&ddg, 1, 3, &[true, true]);
        assert!(site[0] <= 3.0 * (1.0 + 1e-12), "{}", site[0]);
        assert!((site[1] - 1.0).abs() < 1e-12);
        assert!(inlet <= 6.0 * (1.0 + 1e-12), "{inlet}");
        assert!(inlet >= 6.0 * (1.0 - 1e-9), "{inlet}");
    }
}
