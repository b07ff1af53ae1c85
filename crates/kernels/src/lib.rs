//! # ftb-kernels
//!
//! Instrumented HPC kernels — the workloads of the PPoPP'21 evaluation,
//! re-implemented against the [`ftb_trace::Tracer`] substrate.
//!
//! The paper evaluates three kernels (§4): **conjugate gradient** on a
//! MiniFE-style finite-element system, the **SPLASH-2 blocked dense LU**
//! factorization, and the **SPLASH-2 six-step 1-D FFT**. Its §5
//! additionally analyses the error-monotonicity of **2-D stencil** and
//! **matrix-vector / matrix-matrix** computation, which we implement as
//! well so the monotonicity claims can be checked experimentally.
//!
//! ## Tracing granularity
//!
//! Following the paper's error-propagation model (§2.2: "tracking the
//! data variables of a program execution during load/store operations"),
//! a *dynamic instruction* here is **one store of a floating-point data
//! element** — a vector/matrix element update or a produced scalar
//! (dot products, α/β in CG). Intermediate register arithmetic is not a
//! separate site, exactly as in the paper's LLVM instrumentation, which
//! injects into the *result* of an instruction that writes a data value.
//!
//! ## The kernel contract
//!
//! A kernel has one scalar entry point, [`Kernel::run`]: every mode of
//! execution lives in the [`Tracer`] it runs against. Snapshot-capable
//! kernels (matrix-free `cg`, `jacobi`, `gemm`, `lu`) additionally start
//! from the tracer's resume state when one is set and report their
//! section boundaries to the tracer's boundary hook, which is all
//! snapshot capture and snapshot-resumed experiments need.
//!
//! Each kernel writes its scalar computation once, as a body generic
//! over `const DDG: bool`: every operand-provenance call (def-site maps,
//! [`Tracer::dep`] and its siblings) sits behind `if DDG`, and `run`
//! branches once on [`Tracer::ddg_enabled`] into `body::<true>` or
//! `body::<false>`. The recording that [`Kernel::golden_with_ddg`]
//! takes is therefore a compile-time instance of the very loop that
//! fault injection runs, not a copy of it. Batch-capable kernels add
//! one laned entry point, [`Kernel::run_batch_resumed`], that runs up to
//! [`MAX_BATCH_LANES`] resumed experiments as one sweep.
//!
//! ## Determinism
//!
//! Every kernel builds its input deterministically from a `u64` seed, so
//! a `(kernel-config, seed, fault)` triple reproduces an experiment
//! bit-for-bit.

#![warn(missing_docs)]
// `deny` rather than `forbid`: the lane-batched sweeps carry runtime
// SIMD multiversions (`#[target_feature(enable = "avx2")]` clones of
// safe code), and the feature-detected dispatch call is necessarily an
// `unsafe` block. Those two sites carry scoped `#[allow(unsafe_code)]`
// with safety comments; everything else in the crate stays safe.
#![deny(unsafe_code)]

pub mod cg;
pub mod csr;
pub mod fft;
pub mod gemm;
pub mod inputs;
pub mod jacobi;
pub mod lu;
pub mod matvec;
pub mod spmv;
pub mod stencil;
#[cfg(feature = "stub")]
pub mod stub;

use ftb_trace::{
    BatchTracer, Ddg, FaultSpec, GoldenRun, Precision, RecordMode, RunTrace, StaticId,
    StaticRegistry, Tracer,
};
use serde::{Deserialize, Serialize};

pub use ftb_trace::KernelState;

pub use cg::{CgConfig, CgKernel, CgStorage};
pub use csr::Csr;
pub use fft::{FftConfig, FftKernel};
pub use gemm::{GemmConfig, GemmKernel};
pub use jacobi::{JacobiConfig, JacobiKernel, SweepTweak};
pub use lu::{LuConfig, LuKernel};
pub use matvec::{MatvecConfig, MatvecKernel};
pub use spmv::{SpmvConfig, SpmvKernel};
pub use stencil::{StencilConfig, StencilKernel};
#[cfg(feature = "stub")]
pub use stub::StubKernel;

/// Widest lane batch a batch-capable kernel runs in one
/// [`Kernel::run_batch_resumed`] call. Batch planners split wider
/// configured widths into chunks of at most this many lanes; each
/// lane's result is independent of the width it ran at.
pub const MAX_BATCH_LANES: usize = 16;

/// A snapshot-capable kernel's live arrays, in [`KernelState`] order.
type StateArrays<const N: usize> = [Vec<f64>; N];

/// Where a snapshot-capable kernel's [`Kernel::run`] starts: the
/// tracer's resume state ([`Tracer::take_resume`]) as
/// `(step, arrays)`, or else the arrays `init` traces, reported to
/// [`Tracer::boundary`] as step 0. `Err` holds the initial arrays when
/// that report asks the run to stop.
fn resume_or_init<const N: usize>(
    t: &mut Tracer,
    init: impl FnOnce(&mut Tracer) -> StateArrays<N>,
) -> Result<(usize, StateArrays<N>), StateArrays<N>> {
    if let Some(state) = t.take_resume() {
        let arrays = state.arrays.try_into().unwrap_or_else(|a: Vec<Vec<f64>>| {
            panic!(
                "resume state holds {} arrays, the kernel takes {N}",
                a.len()
            )
        });
        return Ok((state.step as usize, arrays));
    }
    let arrays = init(t);
    if t.boundary(0, &arrays.each_ref().map(Vec::as_slice)) {
        return Err(arrays);
    }
    Ok((0, arrays))
}

/// Trace a copy of `src`, one `sid` store per element — a kernel's load
/// of its input. The provenance instance (`DDG`) appends each store's
/// def site to `defs`.
fn load<const DDG: bool>(
    t: &mut Tracer,
    sid: StaticId,
    src: &[f64],
    defs: &mut Vec<usize>,
) -> Vec<f64> {
    if DDG {
        defs.reserve_exact(src.len());
    }
    src.iter()
        .map(|&v| {
            if DDG {
                defs.push(t.cursor());
            }
            t.value(sid, v)
        })
        .collect()
}

/// Per-boundary lane controller for [`Kernel::run_batch_resumed`]:
/// `monitor(bt, step, trap_break, laned)` fires at exactly the section
/// boundaries where a resumed scalar [`Kernel::run`] calls
/// [`Tracer::boundary`]. `laned` holds every lane-major SoA buffer the
/// kernel iterates — the laned state arrays in state order first (so
/// `laned[0]` is the output buffer), then internal scratch; the monitor
/// retires lanes by compacting the tracer and every buffer in `laned`
/// with one keep mask. `trap_break` is `true` when the scalar path
/// breaks out of its loop on `Tracer::should_stop` at this point, so
/// trapped lanes retire here with the shared cursor as their
/// `n_dynamic`; kernels without a trap break (gemm) pass `false` and
/// trapped lanes run to completion, exactly as their scalar loop does. Only the trap half of `should_stop` applies:
/// batch-capable kernels have fixed trip counts, so no lane ever passes
/// a hang budget. Returns `true` to stop the run (no live lanes remain).
pub type BatchBoundary<'a> =
    &'a mut dyn FnMut(&mut BatchTracer, u64, bool, &mut [&mut Vec<f64>]) -> bool;

/// A fault-injectable computational kernel.
///
/// Implementations hold their (deterministically generated) input data and
/// are immutable during runs, so campaigns can execute them from many
/// threads concurrently (`Send + Sync`).
pub trait Kernel: Send + Sync {
    /// Short stable name, e.g. `"cg"`.
    fn name(&self) -> &'static str;

    /// Floating-point width of the kernel's data elements.
    fn precision(&self) -> Precision;

    /// The kernel's static-instruction registry (source-site metadata).
    fn registry(&self) -> StaticRegistry;

    /// Execute against a tracer, returning the program output — the one
    /// scalar entry point. Golden recording, provenance recording, fault
    /// injection, streamed comparison, snapshot capture and
    /// snapshot-resumed experiments all differ only in how the tracer was
    /// built. The kernel's one body is generic over `const DDG: bool`;
    /// `run` picks the provenance instance when [`Tracer::ddg_enabled`]
    /// and the other one otherwise, and both execute the same dynamic
    /// instructions. A
    /// [`Kernel::snapshot_capable`] kernel starts from the tracer's resume
    /// state when one is set ([`Tracer::take_resume`]) and otherwise from
    /// its initial state, reporting step 0 to [`Tracer::boundary`] right
    /// after initialisation; either way it reports every later section
    /// boundary — a point where the live arrays plus the loop step fully
    /// determine the rest of the run — at the bottom of each outer-loop
    /// step, and stops when [`Tracer::boundary`] answers `true` (the
    /// returned output is then unspecified). A run resumed from any
    /// reported state reproduces the remaining trace bit-for-bit.
    fn run(&self, t: &mut Tracer) -> Vec<f64>;

    /// Expected dynamic-instruction count, used to pre-size trace buffers
    /// (`0` = unknown).
    fn estimated_sites(&self) -> usize {
        0
    }

    /// Expected branch-event count (`0` = unknown).
    fn estimated_branches(&self) -> usize {
        0
    }

    /// Version stamp of the *code* that produces dynamic instructions
    /// `[lo, hi)` — the compositional analyzer's invalidation hook. Two
    /// builds of a kernel must return the same stamp for a range iff the
    /// arithmetic producing that range is unchanged; input values do not
    /// count (the golden run captures those). The default claims the
    /// whole program is version `0`, i.e. editing the config rebuilds
    /// everything — correct but never incremental. Kernels with
    /// localized, configurable variants (e.g. [`JacobiConfig::tweak`])
    /// override this to confine invalidation to the edited phase.
    fn code_version(&self, _lo: usize, _hi: usize) -> u64 {
        0
    }

    /// Whether this kernel's [`Kernel::run`] supports snapshot-resume
    /// execution: it reports section boundaries through
    /// [`Tracer::boundary`] and re-enters its main loop from a resume
    /// state ([`Tracer::take_resume`]). The default is `false`: such a
    /// kernel never takes a resume state, so campaigns run it from
    /// `t=0` (and [`Tracer::finish`] refuses a resumed run of it).
    fn snapshot_capable(&self) -> bool {
        false
    }

    /// Whether this kernel supports lane-batched resumed execution
    /// ([`Kernel::run_batch_resumed`]). Sound only for snapshot-capable
    /// kernels whose remaining control flow is branch-free with
    /// data-independent trip counts: every lane then executes the
    /// identical dynamic-instruction sequence, which is what lets the
    /// lanes share one cursor.
    fn batch_capable(&self) -> bool {
        false
    }

    /// For each snapshot state array (in [`KernelState`] order), whether
    /// the batched path must lane it (`true`: mutated after resume, one
    /// SoA column per lane) or can share the snapshot's single copy
    /// across lanes (`false`: read-only for the rest of the run). Empty
    /// for non-batch-capable kernels.
    fn batch_laned_arrays(&self) -> &'static [bool] {
        &[]
    }

    /// Run every lane of `bt` together from `state`, one perturbed
    /// execution per lane, mirroring a resumed scalar [`Kernel::run`]'s
    /// arithmetic bit-for-bit per lane. Calls `monitor` at exactly the
    /// boundaries where that run calls [`Tracer::boundary`] (the monitor
    /// may retire lanes by compacting `bt` and the passed SoA buffers);
    /// returns the laned output buffer holding every lane that ran to
    /// completion. `bt` holds at most [`MAX_BATCH_LANES`] lanes.
    ///
    /// # Panics
    /// The default panics: only kernels reporting
    /// [`Kernel::batch_capable`] implement this.
    fn run_batch_resumed(
        &self,
        _bt: &mut BatchTracer,
        _state: &KernelState,
        _monitor: BatchBoundary<'_>,
    ) -> Vec<f64> {
        panic!("kernel {:?} is not batch-capable", self.name());
    }

    /// Contraction certificate for snapshot-resumed early exit: a sound
    /// upper bound on the L∞ deviation of the *final output* from the
    /// golden output, given the per-array L∞ deviations of the live
    /// state from the golden state at a section boundary with `step`
    /// loop steps completed. `suffix_mags` are per-array upper bounds on
    /// the golden state magnitudes over the remaining suffix (supplied
    /// by the snapshot store, which records them at capture time).
    ///
    /// The contract is *conditionally* sound: the returned bound must
    /// hold whenever it is at most `budget` (the classifier tolerance) —
    /// i.e. the implementation may assume the faulty state stays within
    /// `budget` of golden throughout the suffix, which the caller's
    /// acceptance test (`bound ≤ budget`) makes self-consistent for
    /// monotone bounds. Implementations must also guarantee that a
    /// state within the bound can neither produce a non-finite value
    /// nor change the remaining control flow (no data-dependent trip
    /// counts), so the outcome code is provably `Masked`.
    ///
    /// The default (`None`) offers no certificate; only kernels whose
    /// remaining iteration is non-expansive under the output norm (e.g.
    /// diagonally dominant Jacobi relaxation) should implement this.
    fn masked_exit_bound(
        &self,
        _step: u64,
        _deviations: &[f64],
        _suffix_mags: &[f64],
        _budget: f64,
    ) -> Option<f64> {
        None
    }

    /// Record the golden (fault-free) run.
    fn golden(&self) -> GoldenRun {
        let mut t = Tracer::golden(self.precision());
        t.reserve(self.estimated_sites(), self.estimated_branches());
        let out = self.run(&mut t);
        t.finish_golden(out)
    }

    /// Record the golden run in operand-provenance mode, returning the
    /// data-dependence graph alongside the reference run. Kernels whose
    /// `run` carries no [`Tracer::dep`] instrumentation yield an empty
    /// graph (`!Ddg::is_instrumented()`), which the static analyzer
    /// rejects with an explicit error rather than an unsound bound.
    fn golden_with_ddg(&self) -> (GoldenRun, Ddg) {
        let mut t = Tracer::golden(self.precision()).with_ddg();
        t.reserve(self.estimated_sites(), self.estimated_branches());
        let out = self.run(&mut t);
        t.finish_golden_with_ddg(out)
    }

    /// Execute with a single-bit-flip fault injected.
    fn run_injected(&self, fault: FaultSpec, mode: RecordMode) -> RunTrace {
        let mut t = Tracer::inject(self.precision(), fault, mode);
        if mode == RecordMode::Full {
            t.reserve(self.estimated_sites(), self.estimated_branches());
        }
        let out = self.run(&mut t);
        t.finish(out)
    }

    /// Execute untraced (instrumentation-overhead baseline for benches).
    fn run_untraced(&self) -> RunTrace {
        let mut t = Tracer::untraced(self.precision());
        let out = self.run(&mut t);
        t.finish(out)
    }
}

/// A serialisable kernel selection + configuration, the unit the CLI and
/// bench harness pass around.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KernelConfig {
    /// Conjugate gradient on a 2-D Poisson finite-element system.
    Cg(CgConfig),
    /// Blocked dense LU factorization (SPLASH-2 style, no pivoting).
    Lu(LuConfig),
    /// Six-step 1-D complex FFT (SPLASH-2 style).
    Fft(FftConfig),
    /// 2-D five-point Jacobi stencil.
    Stencil(StencilConfig),
    /// Dense matrix-vector product.
    Matvec(MatvecConfig),
    /// Sparse (CSR) matrix-vector product on the Poisson operator.
    Spmv(SpmvConfig),
    /// Dense matrix-matrix product.
    Gemm(GemmConfig),
    /// Jacobi iterative solver on the Poisson system.
    Jacobi(JacobiConfig),
}

impl KernelConfig {
    /// Instantiate the kernel (generates its input from the config seed).
    pub fn build(&self) -> Box<dyn Kernel> {
        match self {
            KernelConfig::Cg(c) => Box::new(CgKernel::new(c.clone())),
            KernelConfig::Lu(c) => Box::new(LuKernel::new(c.clone())),
            KernelConfig::Fft(c) => Box::new(FftKernel::new(c.clone())),
            KernelConfig::Stencil(c) => Box::new(StencilKernel::new(c.clone())),
            KernelConfig::Matvec(c) => Box::new(MatvecKernel::new(c.clone())),
            KernelConfig::Spmv(c) => Box::new(SpmvKernel::new(c.clone())),
            KernelConfig::Gemm(c) => Box::new(GemmKernel::new(c.clone())),
            KernelConfig::Jacobi(c) => Box::new(JacobiKernel::new(c.clone())),
        }
    }

    /// Check the configuration describes a buildable kernel (the
    /// condition each kernel constructor asserts), so callers can refuse
    /// bad input before building.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            KernelConfig::Cg(c) => c.validate(),
            KernelConfig::Lu(c) => c.validate(),
            KernelConfig::Fft(c) => c.validate(),
            KernelConfig::Stencil(c) => c.validate(),
            KernelConfig::Matvec(c) => c.validate(),
            KernelConfig::Spmv(c) => c.validate(),
            KernelConfig::Gemm(c) => c.validate(),
            KernelConfig::Jacobi(c) => c.validate(),
        }
    }

    /// The kernel's short name without instantiating it.
    pub fn name(&self) -> &'static str {
        match self {
            KernelConfig::Cg(_) => "cg",
            KernelConfig::Lu(_) => "lu",
            KernelConfig::Fft(_) => "fft",
            KernelConfig::Stencil(_) => "stencil",
            KernelConfig::Matvec(_) => "matvec",
            KernelConfig::Spmv(_) => "spmv",
            KernelConfig::Gemm(_) => "gemm",
            KernelConfig::Jacobi(_) => "jacobi",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_build_and_name() {
        let cfgs = [
            KernelConfig::Cg(CgConfig::small()),
            KernelConfig::Lu(LuConfig::small()),
            KernelConfig::Fft(FftConfig::small()),
            KernelConfig::Stencil(StencilConfig::small()),
            KernelConfig::Matvec(MatvecConfig::small()),
            KernelConfig::Spmv(SpmvConfig::small()),
            KernelConfig::Gemm(GemmConfig::small()),
            KernelConfig::Jacobi(JacobiConfig::small()),
        ];
        for cfg in cfgs {
            let k = cfg.build();
            assert_eq!(k.name(), cfg.name());
            let g = k.golden();
            assert!(g.n_sites() > 0, "{} produced no sites", k.name());
            assert!(!g.output.is_empty(), "{} produced no output", k.name());
        }
    }

    #[test]
    fn golden_runs_are_deterministic() {
        for cfg in [
            KernelConfig::Cg(CgConfig::small()),
            KernelConfig::Lu(LuConfig::small()),
            KernelConfig::Fft(FftConfig::small()),
        ] {
            let a = cfg.build().golden();
            let b = cfg.build().golden();
            assert_eq!(
                a.values,
                b.values,
                "{} golden not deterministic",
                cfg.name()
            );
            assert_eq!(a.output, b.output);
            assert_eq!(a.branches, b.branches);
        }
    }

    #[test]
    fn estimated_sites_close_to_actual() {
        for cfg in [
            KernelConfig::Cg(CgConfig::small()),
            KernelConfig::Lu(LuConfig::small()),
            KernelConfig::Fft(FftConfig::small()),
            KernelConfig::Stencil(StencilConfig::small()),
        ] {
            let k = cfg.build();
            let est = k.estimated_sites();
            let act = k.golden().n_sites();
            assert!(
                est >= act,
                "{}: estimate {est} below actual {act} (reserve would reallocate)",
                k.name()
            );
            assert!(
                est <= act * 3,
                "{}: estimate {est} wildly above actual {act}",
                k.name()
            );
        }
    }
}
