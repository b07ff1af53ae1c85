//! The instrumentation handle kernels execute against.
//!
//! A kernel is written once against [`Tracer`] and then driven in four
//! modes by the rest of the library:
//!
//! * **Golden recording** ([`Tracer::golden`]) — the fault-free run whose
//!   full value stream and branch stream become the reference
//!   ([`GoldenRun`]). The paper's §5 "Overhead" discussion notes this is
//!   the memory cost of the whole approach: one `f64` per dynamic
//!   instruction.
//! * **Fault injection, full trace** ([`Tracer::inject`] with
//!   [`RecordMode::Full`]) — the reference propagation extractor: record
//!   the faulty trace, compare it with the golden one afterwards.
//! * **Fault injection, outcome only** ([`RecordMode::OutputOnly`]) — every
//!   outcome campaign (exhaustive, Monte-Carlo, ledger chunks, samplers):
//!   classifying Masked/SDC/Crash needs only the final output, so
//!   nothing is buffered or compared. These runs also carry the
//!   classifier's hang budget ([`Tracer::with_budget`]) and stop once
//!   past it.
//! * **One-sided streamed comparison** ([`Tracer::comparing`]) — propagation
//!   extraction for the masked experiments that feed Algorithm 1 and
//!   composition: the run compares its value/branch streams against a
//!   shared read-only [`CompactGolden`] *while executing*, accumulating
//!   only the nonzero `(site, Δx)` pairs into a reusable
//!   [`CompareScratch`] or handing them to an online fold. See
//!   [`crate::streamed`].
//!
//! Any of these runs can also start mid-execution and watch section
//! boundaries: [`Tracer::resume_at`] hands a snapshot-capable kernel the
//! [`KernelState`] to re-enter its main loop from, and
//! [`Tracer::with_boundary_hook`] installs the [`BoundaryHook`] the
//! kernel calls ([`Tracer::boundary`]) at every section boundary — the
//! snapshot store's capture and a resumed experiment's early exits.

use crate::bits::Precision;
use crate::compact::{CompactGolden, GoldenValues};
use crate::ddg::{Ddg, DdgBuilder, OpKind};
use crate::golden::{GoldenRun, RunTrace};
use crate::site::StaticId;
use crate::streamed::{CompareScratch, StreamedWindow};
use serde::{Deserialize, Serialize};

/// Full mid-run state of a snapshot-capable kernel at a section
/// boundary: everything needed to re-enter the kernel's main loop and
/// reproduce the remaining execution bit-for-bit. The tracer position
/// (cursor, branch count) travels separately — it belongs to the
/// instrumentation, not the kernel ([`Tracer::resume_at`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelState {
    /// Loop progress: completed sweeps / rows / iterations.
    pub step: u64,
    /// The live arrays, in the kernel-defined order its boundary hook
    /// calls report them in ([`Tracer::boundary`]) and its resumed `run`
    /// takes them back in. Values are exactly as the tracer quantised
    /// them, so resumed arithmetic is bit-identical.
    pub arrays: Vec<Vec<f64>>,
}

/// Section-boundary hook ([`Tracer::with_boundary_hook`]):
/// `hook(cursor, branch_count, step, arrays)` fires wherever the live
/// `arrays` plus the loop `step` fully determine the rest of the run;
/// returning `true` stops the run early.
pub type BoundaryHook<'g> = &'g mut dyn FnMut(usize, usize, u64, &[&[f64]]) -> bool;

/// [`BoundaryHook`] holder, so the tracer stays `Debug`.
struct Hook<'g>(BoundaryHook<'g>);

impl std::fmt::Debug for Hook<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoundaryHook")
    }
}

/// A single-bit-flip fault: flip bit `bit` of the value produced by
/// dynamic instruction `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Dynamic-instruction index (position in the golden value stream).
    pub site: usize,
    /// Bit to flip, `0 ..< precision.bits()`.
    pub bit: u8,
}

/// How much of a fault-injected run to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordMode {
    /// Record the value stream and branch stream (needed to extract
    /// propagation data for Algorithm 1).
    Full,
    /// Record nothing; only the returned output, dynamic-instruction count
    /// and non-finite trap survive. The fast path for exhaustive
    /// ground-truth campaigns.
    OutputOnly,
}

/// Values a comparing-mode tracer batches up before comparing them
/// against the golden buffer in one contiguous pass. A cache-line-scale
/// block keeps the per-experiment state O(1) while letting the compare
/// loop run over two flat slices — with hardware prefetch and overlapped
/// loads — instead of issuing one dependent golden load per traced value.
const COMPARE_BLOCK: usize = 64;

/// Live state of a one-sided streamed comparison ([`Tracer::comparing`]).
/// Value and branch storage are resolved to raw slices up front so the
/// per-value hot path is a single indexed load, not a walk through
/// [`CompactGolden`]'s representation enums.
struct CompareState<'g> {
    gvalues: GoldenValues<'g>,
    gbranches: &'g [u64],
    scratch: &'g mut CompareScratch,
    /// Index of the next golden branch event to match.
    branch_idx: usize,
    /// Cursor of the first control-flow divergence, once detected.
    div_cursor: Option<usize>,
    /// Sites at or beyond this cursor are outside the comparable window.
    limit: usize,
    /// Where the comparison ends ([`Tracer::with_stop`]; `usize::MAX` =
    /// the whole run): nothing at or past it is compared or reported.
    stop: usize,
    /// Cursor of `block[0]` (meaningful while `block_len > 0`).
    block_start: usize,
    /// Number of pending values in `block`.
    block_len: usize,
    /// Pending faulty values awaiting a batched compare.
    block: [f64; COMPARE_BLOCK],
    /// Where each flushed block's nonzero deltas go.
    route: DeltaRoute<'g>,
    /// Largest in-window delta seen by the online `Sink` route; the
    /// scratch route computes it in `seal` instead.
    online_max: f64,
}

/// An online fold receiving each flushed block's nonzero `(site, Δx)`
/// pairs; see [`Tracer::with_delta_sink`].
pub type DeltaSink<'g> = &'g mut dyn FnMut(&[(usize, f64)]);

/// Destination of the nonzero deltas a compare block produces.
///
/// The online `Sink` route retains nothing per experiment and is only
/// sound against a branch-free golden trace; see
/// [`Tracer::with_delta_sink`] for the argument.
enum DeltaRoute<'g> {
    /// Retain `(site, Δx)` pairs in the scratch, sealed post-hoc against
    /// the final comparable window. The general (branch-capable) path.
    Scratch,
    /// Hand each flushed block's nonzero deltas to an online fold — one
    /// indirect call per *block*, not per delta.
    Sink(DeltaSink<'g>),
}

impl std::fmt::Debug for CompareState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompareState")
            .field("branch_idx", &self.branch_idx)
            .field("div_cursor", &self.div_cursor)
            .field("limit", &self.limit)
            .field("online", &!matches!(self.route, DeltaRoute::Scratch))
            .finish_non_exhaustive()
    }
}

impl CompareState<'_> {
    /// Compare the pending block against the golden buffer and push the
    /// nonzero deltas. The window `limit` is re-applied here because a
    /// divergence may have shrunk it after some of these values were
    /// buffered; entries at or past the limit are outside the comparable
    /// window and dropped, exactly as the buffered extractor would.
    fn flush(&mut self) {
        let len = self.block_len;
        self.block_len = 0;
        let start = self.block_start;
        let end = (start + len).min(self.limit);
        if end <= start {
            return;
        }
        let faulty = &self.block[..end - start];
        match &mut self.route {
            DeltaRoute::Scratch => {
                let deltas = &mut self.scratch.deltas;
                let mut emit = |s: usize, d: f64| deltas.push((s, d));
                match self.gvalues {
                    GoldenValues::F64(g) => {
                        push_deltas_f64(&mut emit, start, &g[start..end], faulty)
                    }
                    GoldenValues::F32(g) => {
                        push_deltas_f32(&mut emit, start, &g[start..end], faulty)
                    }
                }
            }
            DeltaRoute::Sink(sink) => {
                // stage the block's deltas on the stack so the fold costs
                // one indirect call per block, not one per delta
                let mut staged = [(0usize, 0.0f64); COMPARE_BLOCK];
                let mut n = 0usize;
                let mut max = self.online_max;
                {
                    let mut emit = |s: usize, d: f64| {
                        max = max.max(d);
                        staged[n] = (s, d);
                        n += 1;
                    };
                    match self.gvalues {
                        GoldenValues::F64(g) => {
                            push_deltas_f64(&mut emit, start, &g[start..end], faulty)
                        }
                        GoldenValues::F32(g) => {
                            push_deltas_f32(&mut emit, start, &g[start..end], faulty)
                        }
                    }
                }
                if n > 0 {
                    sink(&staged[..n]);
                }
                self.online_max = max;
            }
        }
    }
}

/// Batched delta extraction: a vectorisable any-difference scan first, so
/// the common all-identical block (masked faults, decayed perturbations)
/// never enters the scalar push loop.
fn push_deltas_f64(
    emit: &mut impl FnMut(usize, f64),
    start: usize,
    golden: &[f64],
    faulty: &[f64],
) {
    let mut any = false;
    for (&g, &f) in golden.iter().zip(faulty) {
        // NaN compares unequal to everything, so corruption lands in the
        // scalar pass below
        any |= (g - f).abs() != 0.0;
    }
    if !any {
        return;
    }
    for (i, (&g, &f)) in golden.iter().zip(faulty).enumerate() {
        let d = (g - f).abs();
        if d > 0.0 {
            emit(start + i, d);
        } else if d.is_nan() {
            emit(start + i, f64::INFINITY);
        }
    }
}

/// `f32`-golden variant of [`push_deltas_f64`] (values widen losslessly;
/// the faulty stream was quantised by the tracer before buffering).
fn push_deltas_f32(
    emit: &mut impl FnMut(usize, f64),
    start: usize,
    golden: &[f32],
    faulty: &[f64],
) {
    let mut any = false;
    for (&g, &f) in golden.iter().zip(faulty) {
        any |= (f64::from(g) - f).abs() != 0.0;
    }
    if !any {
        return;
    }
    for (i, (&g, &f)) in golden.iter().zip(faulty).enumerate() {
        let d = (f64::from(g) - f).abs();
        if d > 0.0 {
            emit(start + i, d);
        } else if d.is_nan() {
            emit(start + i, f64::INFINITY);
        }
    }
}

/// Instrumentation handle. See the module docs for the modes. The
/// lifetime ties a comparing-mode tracer to the golden buffer and scratch
/// it borrows; all other modes are `Tracer<'static>`-compatible and
/// kernels stay generic over it via elision.
#[derive(Debug)]
pub struct Tracer<'g> {
    precision: Precision,
    /// `usize::MAX` = no fault; avoids an `Option` discriminant test in
    /// the hot path.
    fault_site: usize,
    fault_bit: u8,
    record_values: bool,
    record_ids: bool,
    record_branches: bool,
    trap_nonfinite: bool,
    cursor: usize,
    branch_count: usize,
    values: Vec<f64>,
    static_ids: Vec<u32>,
    branches: Vec<u64>,
    first_nonfinite: Option<usize>,
    injected_err: Option<f64>,
    /// Absolute dynamic index past which [`Tracer::should_stop`] fires
    /// (`usize::MAX` = never; see [`Tracer::with_budget`]).
    budget: usize,
    /// One-sided comparison state ([`Tracer::comparing`]).
    compare: Option<CompareState<'g>>,
    /// Operand-provenance recorder ([`Tracer::with_ddg`]); golden mode
    /// only, `None` in every hot injection path.
    ddg: Option<Box<DdgBuilder>>,
    /// Kernel state to resume from ([`Tracer::resume_at`]), until the
    /// kernel takes it ([`Tracer::take_resume`]).
    resume: Option<KernelState>,
    /// Section-boundary hook ([`Tracer::with_boundary_hook`]).
    hook: Option<Hook<'g>>,
}

impl<'g> Tracer<'g> {
    fn with_flags(
        precision: Precision,
        fault: Option<FaultSpec>,
        record_values: bool,
        record_ids: bool,
        record_branches: bool,
    ) -> Self {
        Tracer {
            precision,
            fault_site: fault.map_or(usize::MAX, |f| f.site),
            fault_bit: fault.map_or(0, |f| f.bit),
            record_values,
            record_ids,
            record_branches,
            trap_nonfinite: true,
            cursor: 0,
            branch_count: 0,
            values: Vec::new(),
            static_ids: Vec::new(),
            branches: Vec::new(),
            first_nonfinite: None,
            injected_err: None,
            budget: usize::MAX,
            compare: None,
            ddg: None,
            resume: None,
            hook: None,
        }
    }

    /// A golden (fault-free) recording tracer: values, static ids and
    /// branches are all captured.
    pub fn golden(precision: Precision) -> Self {
        Self::with_flags(precision, None, true, true, true)
    }

    /// A fault-injecting tracer.
    ///
    /// # Panics
    /// Panics if `fault.bit` is out of range for `precision`.
    pub fn inject(precision: Precision, fault: FaultSpec, record: RecordMode) -> Self {
        assert!(
            fault.bit < precision.bits(),
            "bit {} out of range for {:?}",
            fault.bit,
            precision
        );
        let full = record == RecordMode::Full;
        Self::with_flags(precision, Some(fault), full, false, full)
    }

    /// An untraced, fault-free tracer (used to measure raw kernel cost and
    /// instrumentation overhead in the benches).
    pub fn untraced(precision: Precision) -> Self {
        Self::with_flags(precision, None, false, false, false)
    }

    /// A *comparing* tracer: the one-sided streaming extraction fast path.
    /// The faulty run compares every produced value and branch event
    /// against the shared read-only `golden` buffer as it executes,
    /// pushing only nonzero `(site, Δx)` pairs into `scratch` (cleared
    /// here, so workers reuse one scratch across experiments). Nothing
    /// else is buffered and no second thread exists. Finish with
    /// [`Tracer::finish_compare`].
    ///
    /// The tracer's precision is taken from `golden` — the comparison is
    /// only meaningful against the same kernel that recorded it.
    ///
    /// # Panics
    /// Panics if `fault.bit` is out of range for the golden precision.
    pub fn comparing(
        fault: FaultSpec,
        golden: &'g CompactGolden,
        scratch: &'g mut CompareScratch,
    ) -> Self {
        let precision = golden.precision();
        assert!(
            fault.bit < precision.bits(),
            "bit {} out of range for {:?}",
            fault.bit,
            precision
        );
        scratch.clear();
        let mut t = Self::with_flags(precision, Some(fault), false, false, false);
        t.compare = Some(CompareState {
            limit: golden.n_sites(),
            stop: usize::MAX,
            gvalues: golden.values_view(),
            gbranches: golden.branches_view(),
            scratch,
            branch_idx: 0,
            div_cursor: None,
            block_start: 0,
            block_len: 0,
            block: [0.0; COMPARE_BLOCK],
            route: DeltaRoute::Scratch,
            online_max: 0.0,
        });
        t
    }

    /// Upgrade a comparing-mode tracer to *online-fold* mode: each
    /// compare block's nonzero `(site, Δx)` pairs are handed to `sink` as
    /// the block flushes (one call per block, cursor-ordered), and
    /// nothing is retained in the scratch — the per-experiment state
    /// becomes O(1) even when the perturbation touches every site.
    ///
    /// Only sound when the golden trace has **no branch events**: a
    /// retained delta can be invalidated later only by a control-flow
    /// divergence whose cursor falls below the delta's site, and with an
    /// empty golden branch stream the only possible divergence cursor is
    /// the faulty run's own cursor at its first branch event — strictly
    /// past every site already compared. Every delta emitted here is
    /// therefore final and inside the sealed window, in the same cursor
    /// order the scratch would have recorded.
    ///
    /// # Panics
    /// Panics if the tracer is not in comparing mode, or if the golden
    /// trace has branch events.
    pub fn with_delta_sink(mut self, sink: DeltaSink<'g>) -> Self {
        let cs = self
            .compare
            .as_mut()
            .expect("with_delta_sink requires a Tracer::comparing tracer");
        assert!(
            cs.gbranches.is_empty(),
            "online delta folding requires a branch-free golden trace"
        );
        cs.route = DeltaRoute::Sink(sink);
        self
    }

    /// End a comparing-mode run at dynamic instruction `stop`: the
    /// comparable window is capped at `stop`, and the run's budget
    /// ([`Tracer::with_budget`]) is lowered to it, so a kernel polling
    /// [`Tracer::should_stop`] ends the run at its first poll past
    /// `stop` instead of executing to the end. The sealed window then
    /// describes only the prefix `0 .. stop`: its deltas, `compare_len`
    /// (never above `stop`) and divergence flag (set only by a
    /// divergence before `stop`) are exactly those of the complete run
    /// cut at `stop`. The run's output need not be the program's, so
    /// its record must not be classified.
    ///
    /// # Panics
    /// Panics if the tracer is not in comparing mode.
    pub fn with_stop(mut self, stop: usize) -> Self {
        let cs = self
            .compare
            .as_mut()
            .expect("with_stop requires a Tracer::comparing tracer");
        cs.limit = cs.limit.min(stop);
        cs.stop = stop;
        self.budget = self.budget.min(stop);
        self
    }

    /// Resume from a captured section boundary — the snapshot-resume
    /// entry point. The tracer is positioned as if `cursor` dynamic
    /// instructions and `branch_count` branch events had already
    /// executed, and a snapshot-capable kernel's `run` takes `state`
    /// ([`Tracer::take_resume`]) and re-enters its main loop there
    /// instead of initialising. Every recorded index (fault site,
    /// divergence cursor, non-finite trap, branch encoding) comes out in
    /// the same absolute coordinates a from-`t=0` run would have
    /// produced.
    ///
    /// In comparing mode the golden branch stream is fast-forwarded by
    /// the same `branch_count`, so online divergence detection stays
    /// index-aligned. Values are never recorded for the skipped prefix.
    ///
    /// # Panics
    /// Panics if the tracer injects a fault *before* `cursor` — the
    /// skipped prefix would silently never flip — or if values were
    /// already traced. [`Tracer::finish`] panics if the kernel never took
    /// `state`: a kernel that is not snapshot-capable would otherwise run
    /// from scratch at a shifted cursor. Panics on a provenance tracer
    /// ([`Tracer::with_ddg`]): the skipped prefix would record no def
    /// sites.
    pub fn resume_at(mut self, cursor: usize, branch_count: usize, state: KernelState) -> Self {
        assert!(self.ddg.is_none(), "resume_at refuses a with_ddg tracer");
        assert!(
            self.fault_site == usize::MAX || self.fault_site >= cursor,
            "fault site {} lies inside the skipped prefix (resume cursor {})",
            self.fault_site,
            cursor
        );
        assert!(
            self.cursor == 0 && self.branch_count == 0,
            "resume_at requires a fresh tracer"
        );
        self.cursor = cursor;
        self.branch_count = branch_count;
        if let Some(cs) = &mut self.compare {
            cs.branch_idx = branch_count;
        }
        self.resume = Some(state);
        self
    }

    /// Take the state set by [`Tracer::resume_at`]: `Some` exactly once
    /// on a resumed tracer, when a snapshot-capable kernel's `run`
    /// starts; `None` means run from the initial state.
    pub fn take_resume(&mut self) -> Option<KernelState> {
        self.resume.take()
    }

    /// Install a section-boundary hook: snapshot-capable kernels call it
    /// through [`Tracer::boundary`] right after initialisation (step 0,
    /// from-scratch runs only) and at the bottom of each outer-loop
    /// step, before the dynamic instructions of the next. Snapshot
    /// capture records states with it; resumed experiments use it to
    /// stop once the outcome is decided.
    pub fn with_boundary_hook(mut self, hook: BoundaryHook<'g>) -> Self {
        self.hook = Some(Hook(hook));
        self
    }

    /// Report a section boundary: `step` loop steps are done and
    /// `arrays` (the kernel's [`KernelState`] order) hold the live state.
    /// Calls the hook with the tracer's cursor and branch count and
    /// returns its answer — `true` means stop the run — or `false` when
    /// no hook is installed.
    #[inline]
    pub fn boundary(&mut self, step: u64, arrays: &[&[f64]]) -> bool {
        match &mut self.hook {
            Some(Hook(hook)) => hook(self.cursor, self.branch_count, step, arrays),
            None => false,
        }
    }

    /// Stop the run once it has executed more than `budget` dynamic
    /// instructions: [`Tracer::should_stop`] fires at the kernel's first
    /// poll past that point, as a watchdog would kill a hung program.
    /// The index is absolute, so a snapshot-resumed tracer
    /// ([`Tracer::resume_at`]) stops at the same point as a from-scratch
    /// one. Outcome campaigns pass the classifier's hang budget, past
    /// which the outcome is already decided.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Upgrade a golden tracer to **operand-provenance mode**: the run
    /// additionally records a data-dependence graph ([`Ddg`]) from the
    /// `dep`/`branch_dep`/`out_dep` calls the kernel issues. Finish with
    /// [`Tracer::finish_golden_with_ddg`].
    ///
    /// # Panics
    /// Panics unless the tracer is a [`Tracer::golden`] tracer —
    /// provenance of a faulty run would be meaningless (the amplification
    /// factors are evaluated at the golden operand values) — or if it was
    /// resumed ([`Tracer::resume_at`]), whose skipped prefix would record
    /// no def sites.
    pub fn with_ddg(mut self) -> Self {
        assert!(
            self.fault_site == usize::MAX && self.record_values && self.record_ids,
            "with_ddg requires a Tracer::golden tracer"
        );
        assert!(self.resume.is_none(), "with_ddg refuses a resumed tracer");
        self.ddg = Some(Box::new(DdgBuilder::new()));
        self
    }

    /// Whether operand-provenance recording is active. Kernels branch on
    /// it once per run, into the provenance instance of their body; the
    /// other instance compiles without any `dep()` bookkeeping (def-site
    /// maps, amplification arithmetic).
    #[inline]
    pub fn ddg_enabled(&self) -> bool {
        self.ddg.is_some()
    }

    /// Declare that the **next** traced value depends on the value
    /// produced at dynamic instruction `def` through operation `op`.
    /// No-op outside provenance mode; call once per operand.
    #[inline]
    pub fn dep(&mut self, def: usize, op: OpKind) {
        if let Some(ddg) = &mut self.ddg {
            ddg.push_dep(def, op);
        }
    }

    /// Declare that the data value of an upcoming branch condition
    /// depends on dynamic instruction `def` with amplification `amp`,
    /// and that the golden condition value sits `margin` away from the
    /// decision threshold. A perturbation at the condition below
    /// `margin / amp` provably cannot flip the branch. No-op outside
    /// provenance mode.
    #[inline]
    pub fn branch_dep(&mut self, def: usize, amp: f64, margin: f64) {
        if let Some(ddg) = &mut self.ddg {
            ddg.push_branch_sink(def, amp, margin);
        }
    }

    /// Register an explicit perturbation cap for dynamic instruction
    /// `def`: amplifications attributed to `def` (via [`Tracer::dep`] or
    /// [`Tracer::branch_dep`]) are secant bounds only valid for
    /// perturbations up to `cap`. The backward pass never certifies a
    /// threshold above the tightest cap. No-op outside provenance mode.
    #[inline]
    pub fn dep_cap(&mut self, def: usize, cap: f64) {
        if let Some(ddg) = &mut self.ddg {
            ddg.push_cap(def, cap);
        }
    }

    /// Declare that an output element depends on dynamic instruction
    /// `def` with amplification `amp` (typically the last def of each
    /// output element, with amplification 1). The classifier's output
    /// tolerance anchors the backward pass here. No-op outside
    /// provenance mode.
    #[inline]
    pub fn out_dep(&mut self, def: usize, amp: f64) {
        if let Some(ddg) = &mut self.ddg {
            ddg.push_out_sink(def, amp);
        }
    }

    /// Reserve capacity for an expected number of dynamic instructions
    /// (avoids `Vec` growth reallocations in recording runs).
    pub fn reserve(&mut self, n_sites: usize, n_branches: usize) {
        if self.record_values {
            self.values.reserve_exact(n_sites);
        }
        if self.record_ids {
            self.static_ids.reserve_exact(n_sites);
        }
        if self.record_branches {
            self.branches.reserve_exact(n_branches);
        }
    }

    /// Register the production of one floating-point data element — one
    /// *dynamic instruction*. Returns the value the kernel must continue
    /// with (possibly bit-flipped, always quantised to the tracer's
    /// precision).
    #[inline]
    pub fn value(&mut self, sid: StaticId, v: f64) -> f64 {
        let mut v = self.precision.quantize(v);
        let idx = self.cursor;
        self.cursor = idx + 1;
        if idx == self.fault_site {
            let orig = v;
            v = self.precision.flip(v, self.fault_bit);
            self.injected_err = Some(if v.is_finite() {
                (v - orig).abs()
            } else {
                f64::INFINITY
            });
        }
        if self.trap_nonfinite && !v.is_finite() && self.first_nonfinite.is_none() {
            self.first_nonfinite = Some(idx);
        }
        if self.record_values {
            self.values.push(v);
            if self.record_ids {
                self.static_ids.push(sid.0);
            }
        }
        if let Some(ddg) = &mut self.ddg {
            ddg.flush_value(idx);
        }
        if let Some(cs) = &mut self.compare {
            // Sites before the fault are identical by construction (the
            // executions only differ from the flip onward), matching the
            // buffered extractor's window start of `fault.site`.
            if idx >= self.fault_site && idx < cs.limit {
                if cs.block_len == 0 {
                    cs.block_start = idx;
                }
                cs.block[cs.block_len] = v;
                cs.block_len += 1;
                if cs.block_len == COMPARE_BLOCK {
                    cs.flush();
                }
            }
        }
        v
    }

    /// Register a data-dependent branch outcome. Returns `taken` so the
    /// call can wrap the condition inline:
    /// `while t.branch(residual > tol) { ... }`.
    #[inline]
    pub fn branch(&mut self, taken: bool) -> bool {
        self.branch_count += 1;
        let encoded = ((self.cursor as u64) << 1) | taken as u64;
        if self.record_branches {
            self.branches.push(encoded);
        }
        if let Some(cs) = &mut self.compare {
            if cs.div_cursor.is_none() {
                // Index-wise comparison against the golden branch stream:
                // exactly `divergence_cursor`, evaluated online.
                let div = match cs.gbranches.get(cs.branch_idx).copied() {
                    Some(g) if g != encoded => Some(((g >> 1).min(encoded >> 1)) as usize),
                    // faulty stream outran the golden stream
                    None => Some((encoded >> 1) as usize),
                    _ => None,
                };
                if let Some(d) = div {
                    cs.div_cursor = Some(d);
                    cs.limit = cs.limit.min(d);
                }
            }
            cs.branch_idx += 1;
        }
        taken
    }

    /// Number of branch events observed so far (counted in every mode,
    /// recorded only in `Full`/golden modes).
    #[inline]
    pub fn branch_count(&self) -> usize {
        self.branch_count
    }

    /// Number of dynamic instructions executed so far.
    #[inline]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Whether the run should stop: the non-finite trap has fired, or
    /// the cursor has passed the budget ([`Tracer::with_budget`]).
    /// Kernels poll this once per outer iteration to emulate the program
    /// dying at the exception, or being killed by a watchdog, rather than
    /// spinning on. The outcome classification is identical either way:
    /// it depends only on the first `budget` dynamic instructions.
    #[inline]
    pub fn should_stop(&self) -> bool {
        self.first_nonfinite.is_some() || self.cursor > self.budget
    }

    /// Dynamic index at which the first non-finite value appeared.
    pub fn first_nonfinite(&self) -> Option<usize> {
        self.first_nonfinite
    }

    /// The realised injected-error magnitude, once the fault site has
    /// executed (`None` before that, or if the site was never reached).
    pub fn realized_injected_error(&self) -> Option<f64> {
        self.injected_err
    }

    /// Refuse to yield a record for a resumed run whose kernel ignored
    /// the resume state (see [`Tracer::resume_at`]).
    fn assert_resume_taken(&self) {
        assert!(
            self.resume.is_none(),
            "the kernel never took its resume state: a kernel that is not \
             snapshot-capable ran from scratch at a resumed cursor ({})",
            self.cursor
        );
    }

    /// Consume the tracer, yielding the run record.
    ///
    /// # Panics
    /// Panics if a resume state ([`Tracer::resume_at`]) was never taken.
    pub fn finish(self, output: Vec<f64>) -> RunTrace {
        self.assert_resume_taken();
        RunTrace {
            values: if self.record_values {
                Some(self.values)
            } else {
                None
            },
            branches: if self.record_branches {
                Some(self.branches)
            } else {
                None
            },
            output,
            n_dynamic: self.cursor,
            first_nonfinite: self.first_nonfinite,
            fault: if self.fault_site == usize::MAX {
                None
            } else {
                Some(FaultSpec {
                    site: self.fault_site,
                    bit: self.fault_bit,
                })
            },
            injected_err: self.injected_err,
        }
    }

    /// Consume a comparing-mode tracer: seal the comparable window and
    /// yield the run record plus a [`StreamedWindow`] summary. The folded
    /// `(site, Δx)` pairs remain in the scratch the tracer was built with,
    /// truncated to the window (see
    /// [`streamed_propagation`](crate::streamed::streamed_propagation)).
    ///
    /// # Panics
    /// Panics if the tracer was not built with [`Tracer::comparing`].
    pub fn finish_compare(mut self, output: Vec<f64>) -> (RunTrace, StreamedWindow) {
        let mut cs = self
            .compare
            .take()
            .expect("finish_compare requires a Tracer::comparing tracer");
        cs.flush();
        let mut div = cs.div_cursor;
        if div.is_none() && cs.branch_idx < cs.gbranches.len() {
            // the golden run kept branching after the faulty run stopped:
            // divergence at the cursor of the first unmatched golden event
            div = Some((cs.gbranches[cs.branch_idx] >> 1) as usize);
        }
        // a stopped run reports nothing at or past its stop
        let div = div.filter(|&d| d < cs.stop);
        let n_golden_sites = match cs.gvalues {
            GoldenValues::F32(v) => v.len(),
            GoldenValues::F64(v) => v.len(),
        };
        let mut compare_len = n_golden_sites.min(self.cursor).min(cs.stop);
        if let Some(d) = div {
            compare_len = compare_len.min(d);
        }
        let window = match cs.route {
            // online fold: every folded delta is already final and
            // in-window (see `with_delta_sink`), so the summary is
            // complete without a scratch pass
            DeltaRoute::Sink(_) => StreamedWindow {
                compare_len,
                diverged: div.is_some(),
                max_err: cs.online_max,
            },
            DeltaRoute::Scratch => cs.scratch.seal(compare_len, div.is_some()),
        };
        (self.finish(output), window)
    }

    /// Consume a provenance-mode golden tracer, yielding the reference
    /// run together with the recorded data-dependence graph.
    ///
    /// # Panics
    /// Panics if the tracer was not upgraded with [`Tracer::with_ddg`],
    /// or on any [`Tracer::finish_golden`] violation.
    pub fn finish_golden_with_ddg(mut self, output: Vec<f64>) -> (GoldenRun, Ddg) {
        let builder = *self
            .ddg
            .take()
            .expect("finish_golden_with_ddg requires a Tracer::with_ddg tracer");
        let n_sites = self.cursor;
        let golden = self.finish_golden(output);
        (golden, builder.finish(n_sites))
    }

    /// Consume a golden-mode tracer, yielding the reference run.
    ///
    /// # Panics
    /// Panics if the tracer was not constructed with [`Tracer::golden`]
    /// (a fault or missing recording would poison every later comparison),
    /// or if a resume state was never taken.
    pub fn finish_golden(self, output: Vec<f64>) -> GoldenRun {
        self.assert_resume_taken();
        assert!(
            self.fault_site == usize::MAX && self.record_values && self.record_ids,
            "finish_golden requires a Tracer::golden tracer"
        );
        assert!(
            self.first_nonfinite.is_none(),
            "golden run produced a non-finite value at dynamic instruction {:?}; \
             the kernel input is invalid as a reference",
            self.first_nonfinite
        );
        GoldenRun {
            precision: self.precision,
            values: self.values,
            static_ids: self.static_ids,
            branches: self.branches,
            output,
            n_dynamic: self.cursor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::StaticId;

    const SID: StaticId = StaticId(0);

    /// A resume state for tests that drive the tracer by hand.
    fn state() -> KernelState {
        KernelState {
            step: 1,
            arrays: vec![vec![1.0]],
        }
    }

    /// A toy "kernel": y = sum of squares of 1..=4, each square traced.
    fn toy(t: &mut Tracer) -> Vec<f64> {
        let mut acc = 0.0;
        for i in 1..=4 {
            let sq = t.value(SID, (i as f64) * (i as f64));
            acc = t.value(SID, acc + sq);
        }
        vec![acc]
    }

    #[test]
    fn golden_records_everything() {
        let mut t = Tracer::golden(Precision::F64);
        let out = toy(&mut t);
        let g = t.finish_golden(out);
        assert_eq!(g.n_dynamic, 8);
        assert_eq!(g.values.len(), 8);
        assert_eq!(g.static_ids.len(), 8);
        assert_eq!(g.output, vec![30.0]);
    }

    #[test]
    fn untraced_matches_golden_output() {
        let mut t = Tracer::untraced(Precision::F64);
        let out = toy(&mut t);
        let r = t.finish(out);
        assert_eq!(r.output, vec![30.0]);
        assert_eq!(r.n_dynamic, 8);
        assert!(r.values.is_none());
    }

    #[test]
    fn inject_flips_exactly_one_site() {
        // flip the sign bit of the value produced by dynamic instr 2 (the
        // square 4.0 -> -4.0), so acc becomes 1 - 4 + 9 + 16 = 22
        let f = FaultSpec { site: 2, bit: 63 };
        let mut t = Tracer::inject(Precision::F64, f, RecordMode::OutputOnly);
        let out = toy(&mut t);
        let r = t.finish(out);
        assert_eq!(r.output, vec![22.0]);
        assert_eq!(r.injected_err, Some(8.0));
        assert_eq!(r.fault, Some(f));
    }

    #[test]
    fn inject_full_records_values() {
        let f = FaultSpec { site: 0, bit: 63 };
        let mut t = Tracer::inject(Precision::F64, f, RecordMode::Full);
        let out = toy(&mut t);
        let r = t.finish(out);
        let vals = r.values.unwrap();
        assert_eq!(vals[0], -1.0);
        assert_eq!(vals.len(), 8);
    }

    #[test]
    fn fault_site_beyond_execution_is_benign() {
        let f = FaultSpec { site: 1000, bit: 1 };
        let mut t = Tracer::inject(Precision::F64, f, RecordMode::OutputOnly);
        let out = toy(&mut t);
        let r = t.finish(out);
        assert_eq!(r.output, vec![30.0]);
        assert_eq!(r.injected_err, None);
    }

    #[test]
    fn nonfinite_trap_fires() {
        let mut t = Tracer::golden(Precision::F64);
        t.value(SID, 1.0);
        assert!(!t.should_stop());
        t.value(SID, f64::NAN);
        assert!(t.should_stop());
        assert_eq!(t.first_nonfinite(), Some(1));
    }

    #[test]
    fn budget_stops_past_its_absolute_index() {
        let f = FaultSpec { site: 5, bit: 0 };
        let mut t = Tracer::inject(Precision::F64, f, RecordMode::OutputOnly)
            .resume_at(4, 0, state())
            .with_budget(6);
        for expect_stop in [false, false, true] {
            t.value(SID, 1.0);
            assert_eq!(t.should_stop(), expect_stop, "cursor {}", t.cursor());
        }
        assert_eq!(t.first_nonfinite(), None);
    }

    #[test]
    fn branch_recording_encodes_cursor_and_taken() {
        let mut t = Tracer::golden(Precision::F64);
        t.value(SID, 1.0);
        assert!(t.branch(true));
        assert!(!t.branch(false));
        let g = t.finish_golden(vec![]);
        assert_eq!(g.branches, vec![(1 << 1) | 1, 1 << 1]);
    }

    #[test]
    fn f32_precision_quantizes_stream() {
        let mut t = Tracer::golden(Precision::F32);
        let v = t.value(SID, 0.1);
        assert_eq!(v, 0.1f32 as f64);
    }

    #[test]
    #[should_panic]
    fn finish_golden_rejects_injecting_tracer() {
        let t = Tracer::inject(
            Precision::F64,
            FaultSpec { site: 0, bit: 0 },
            RecordMode::Full,
        );
        let _ = t.finish_golden(vec![]);
    }

    #[test]
    #[should_panic(expected = "resume_at refuses a with_ddg tracer")]
    fn resume_refuses_a_provenance_tracer() {
        let _ = Tracer::golden(Precision::F64)
            .with_ddg()
            .resume_at(4, 0, state());
    }

    #[test]
    #[should_panic(expected = "with_ddg refuses a resumed tracer")]
    fn provenance_refuses_a_resumed_tracer() {
        let _ = Tracer::golden(Precision::F64)
            .resume_at(4, 0, state())
            .with_ddg();
    }

    #[test]
    fn resume_at_presets_absolute_coordinates() {
        let f = FaultSpec { site: 5, bit: 63 };
        let mut t =
            Tracer::inject(Precision::F64, f, RecordMode::OutputOnly).resume_at(4, 1, state());
        assert_eq!(t.take_resume(), Some(state()));
        assert_eq!(t.take_resume(), None);
        // sites 4 and 5 execute; the flip lands on site 5
        let a = t.value(SID, 1.0);
        assert_eq!(a, 1.0);
        let b = t.value(SID, 1.0);
        assert_eq!(b, -1.0);
        assert!(t.branch(true));
        assert_eq!(t.cursor(), 6);
        assert_eq!(t.branch_count(), 2);
        let r = t.finish(vec![b]);
        assert_eq!(r.n_dynamic, 6);
        assert_eq!(r.injected_err, Some(2.0));
    }

    #[test]
    #[should_panic(expected = "skipped prefix")]
    fn resume_past_fault_site_rejected() {
        let f = FaultSpec { site: 2, bit: 0 };
        let _ = Tracer::inject(Precision::F64, f, RecordMode::OutputOnly).resume_at(3, 0, state());
    }

    #[test]
    #[should_panic(expected = "never took its resume state")]
    fn finish_refuses_an_untaken_resume_state() {
        let f = FaultSpec { site: 5, bit: 0 };
        let mut t =
            Tracer::inject(Precision::F64, f, RecordMode::OutputOnly).resume_at(4, 0, state());
        let out = toy(&mut t);
        let _ = t.finish(out);
    }

    #[test]
    fn boundary_reports_absolute_position_to_the_hook() {
        let mut t = Tracer::untraced(Precision::F64);
        assert!(!t.boundary(0, &[]), "no hook: never stop");
        let mut seen = Vec::new();
        let mut hook = |cursor: usize, bc: usize, step: u64, arrays: &[&[f64]]| {
            seen.push((cursor, bc, step, arrays.concat()));
            step == 2
        };
        let mut t = Tracer::inject(
            Precision::F64,
            FaultSpec { site: 9, bit: 0 },
            RecordMode::OutputOnly,
        )
        .resume_at(3, 1, state())
        .with_boundary_hook(&mut hook);
        let _ = t.take_resume();
        t.value(SID, 1.0);
        t.branch(true);
        assert!(!t.boundary(1, &[&[4.0]]));
        t.value(SID, 2.0);
        assert!(t.boundary(2, &[&[5.0], &[6.0]]));
        let _ = t.finish(vec![]);
        assert_eq!(seen, vec![(4, 2, 1, vec![4.0]), (5, 2, 2, vec![5.0, 6.0])]);
    }

    #[test]
    #[should_panic]
    fn inject_rejects_out_of_range_bit() {
        let _ = Tracer::inject(
            Precision::F32,
            FaultSpec { site: 0, bit: 40 },
            RecordMode::Full,
        );
    }
}
