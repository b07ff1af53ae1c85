//! Jacobi iterative solver on the 2-D Poisson system.
//!
//! A contrasting workload for the boundary method: where CG's
//! short-recurrence coupling makes error propagation noisy and
//! non-monotonic, Jacobi is a *contraction* — each sweep multiplies the
//! error by the iteration matrix whose spectral radius is < 1, so an
//! injected perturbation **decays geometrically**. Propagation data from
//! masked Jacobi runs therefore certifies large thresholds for early
//! instructions (their errors die out), the mirror image of the LU/FFT
//! pattern where early errors persist.
//!
//! The solve is `x_{k+1} = D⁻¹ (b − (A − D) x_k)` for the 5-point
//! Poisson operator, with the same manufactured right-hand side as the
//! CG kernel and a fixed sweep count (data-independent control flow).

use crate::csr::Csr;
use crate::inputs::uniform_vec;
use crate::{load, resume_or_init, BatchBoundary, Kernel, KernelState, MAX_BATCH_LANES};
use ftb_trace::{broadcast_soa, BatchTracer, OpKind, Precision, StaticRegistry, Tracer};
use serde::{Deserialize, Serialize};

ftb_trace::static_instrs! {
    pub mod sid {
        INIT_X    => ("jacobi.init.x=0", Init),
        INIT_B    => ("jacobi.init.b", Init),
        SWEEP_ACC => ("jacobi.sweep.acc", Compute),
        SWEEP_X   => ("jacobi.sweep.x", Compute),
        RESID     => ("jacobi.residual", Reduction),
    }
}

/// Configuration of the Jacobi solver kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JacobiConfig {
    /// Mesh is `grid × grid`.
    pub grid: usize,
    /// Number of sweeps (fixed; Jacobi converges slowly and the paper's
    /// model prefers deterministic control flow where the algorithm has
    /// it).
    pub sweeps: usize,
    /// Element precision.
    pub precision: Precision,
    /// Input seed.
    pub seed: u64,
    /// Instruction-granularity instrumentation: trace every off-diagonal
    /// accumulation of the sweep as its own dynamic instruction, the way
    /// the paper's LLVM-level model sees the program. The default
    /// (`false`) traces at row-store granularity, which keeps traces
    /// small; fine-grained mode is what extraction-path benchmarks use,
    /// since extraction cost per experiment scales with instrumentation
    /// density. Coarse-grained goldens are unaffected by the flag.
    #[serde(default)]
    pub fine_grained: bool,
    /// Compute and trace the residual norm every this many sweeps
    /// (`0` and `1` both mean every sweep — `0` only arises when an
    /// older serialized config omits the field, and it preserves that
    /// config's behaviour). Real solvers amortise convergence checks
    /// over several iterations; the residual's sparse matrix–vector
    /// product is the dominant *untraced* cost of a sweep, so benchmark
    /// configs raise this to keep the workload dominated by traced
    /// stores.
    #[serde(default)]
    pub residual_every: usize,
    /// Optional single-sweep code edit: replace one sweep's update with
    /// the weighted-Jacobi relaxation `x ← (1−ω)·x + ω·x_jacobi`. This is
    /// the compositional analyzer's incremental-re-analysis demo: it
    /// changes the *arithmetic* of exactly one phase (reflected in
    /// [`Kernel::code_version`](crate::Kernel::code_version)) while
    /// leaving the dynamic-instruction stream's shape untouched.
    #[serde(default)]
    pub tweak: Option<SweepTweak>,
}

/// A localized code edit to one Jacobi sweep (see [`JacobiConfig::tweak`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepTweak {
    /// Zero-based index of the sweep whose body is modified.
    pub sweep: usize,
    /// Relaxation weight ω of the modified sweep (`1.0` reproduces the
    /// plain Jacobi update bit-for-bit in exact arithmetic, but still
    /// counts as an edit — the stamp hashes the parameters, not the
    /// values they happen to produce).
    pub omega: f64,
}

impl JacobiConfig {
    /// Check the configuration describes a buildable kernel; the
    /// constructor panics with this message otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.grid == 0 {
            return Err("Jacobi needs grid >= 1".into());
        }
        Ok(())
    }

    /// Laptop-scale default: 6×6 mesh, 30 sweeps.
    pub fn small() -> Self {
        JacobiConfig {
            grid: 6,
            sweeps: 30,
            precision: Precision::F64,
            seed: 42,
            fine_grained: false,
            residual_every: 1,
            tweak: None,
        }
    }
}

/// Row-structure bounds backing [`Kernel::masked_exit_bound`], computed
/// once from the Jacobi splitting.
#[derive(Debug, Clone, Copy)]
struct CertBounds {
    /// `max_r Σ_c |off_rc| / |d_r|` — the sweep's L∞ amplification of a
    /// state deviation. ≤ 1 (diagonal dominance) is what makes the
    /// contraction certificate sound.
    row_gain: f64,
    /// `max_r 1 / |d_r|` — amplification of a persistent `b` deviation
    /// per sweep.
    inv_diag: f64,
    /// `max_r Σ_c |off_rc|` — magnitude bound factor for the off-diagonal
    /// accumulation.
    row_abs: f64,
    /// `max_r (row degree) / |d_r|` — per-sweep count of fine-grained
    /// accumulation quantisations, already divided through by the
    /// diagonal they end up scaled by.
    acc_factor: f64,
}

/// The instrumented Jacobi solver.
#[derive(Debug, Clone)]
pub struct JacobiKernel {
    cfg: JacobiConfig,
    matrix: Csr,
    x_true: Vec<f64>,
    b: Vec<f64>,
    /// The Jacobi splitting `A = D + (A − D)`, precomputed once: `diag[r]`
    /// and the off-diagonal entries of row `r` in their CSR order (so the
    /// sweep's `off` accumulation is bit-identical to iterating the full
    /// row and skipping the diagonal, without a per-entry diagonal test).
    diag: Vec<f64>,
    off_ptr: Vec<u32>,
    off_cols: Vec<u32>,
    off_vals: Vec<f64>,
    cert: CertBounds,
}

impl JacobiKernel {
    /// Build the kernel (assembles the Poisson system, manufactures `b`,
    /// and precomputes the Jacobi splitting).
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`JacobiConfig::validate`]).
    pub fn new(cfg: JacobiConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let n = cfg.grid * cfg.grid;
        let matrix = Csr::poisson_2d(cfg.grid);
        let x_true = uniform_vec(cfg.seed, n, -1.0, 1.0);
        let mut b = vec![0.0; n];
        matrix.spmv(&x_true, &mut b);
        let mut diag = vec![0.0; n];
        let mut off_ptr = Vec::with_capacity(n + 1);
        let mut off_cols = Vec::new();
        let mut off_vals = Vec::new();
        off_ptr.push(0u32);
        for (r, d) in diag.iter_mut().enumerate() {
            for (c, v) in matrix.row(r) {
                if c == r {
                    *d = v;
                } else {
                    off_cols.push(c as u32);
                    off_vals.push(v);
                }
            }
            off_ptr.push(off_cols.len() as u32);
        }
        let mut cert = CertBounds {
            row_gain: 0.0,
            inv_diag: 0.0,
            row_abs: 0.0,
            acc_factor: 0.0,
        };
        for r in 0..n {
            let lo = off_ptr[r] as usize;
            let hi = off_ptr[r + 1] as usize;
            let row_abs: f64 = off_vals[lo..hi].iter().map(|v| v.abs()).sum();
            let d = diag[r].abs();
            cert.row_gain = cert.row_gain.max(row_abs / d);
            cert.inv_diag = cert.inv_diag.max(1.0 / d);
            cert.row_abs = cert.row_abs.max(row_abs);
            cert.acc_factor = cert.acc_factor.max((hi - lo) as f64 / d);
        }
        JacobiKernel {
            cfg,
            matrix,
            x_true,
            b,
            diag,
            off_ptr,
            off_cols,
            off_vals,
            cert,
        }
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &JacobiConfig {
        &self.cfg
    }

    /// The manufactured exact solution.
    pub fn x_true(&self) -> &[f64] {
        &self.x_true
    }

    /// The one scalar body; `DDG` compiles in the operand-provenance
    /// bookkeeping (def-site maps for the `x`/`b` elements, updated as the
    /// sweep overwrites them). Starts from the tracer's resume state when
    /// one is set.
    fn body<const DDG: bool>(&self, t: &mut Tracer) -> Vec<f64> {
        let (mut def_x, mut def_b) = (Vec::new(), Vec::new());
        // `x = 0` and the traced copy of `b`, in state order `[x, b]`
        let init = |t: &mut Tracer| {
            let x = load::<DDG>(t, sid::INIT_X, &vec![0.0; self.b.len()], &mut def_x);
            let b = load::<DDG>(t, sid::INIT_B, &self.b, &mut def_b);
            [x, b]
        };
        let (start, [mut x, b]) = match resume_or_init(t, init) {
            Ok(started) => started,
            Err([x, _]) => return x,
        };
        self.sweep_loop::<DDG>(t, start, &mut x, &b, &mut def_x, &def_b);
        if DDG {
            for &d in &def_x {
                t.out_dep(d, 1.0);
            }
        }
        x
    }

    /// The Jacobi sweeps from `start` onward, whether the run started
    /// from scratch or from a resume state. Reports `[x, b]` to
    /// [`Tracer::boundary`] at the bottom of every sweep but the last and
    /// stops when it answers `true`.
    // kept out of line, like `LuKernel::block_steps`, so its loops are
    // register-allocated on their own
    #[inline(never)]
    fn sweep_loop<const DDG: bool>(
        &self,
        t: &mut Tracer,
        start: usize,
        x: &mut Vec<f64>,
        b: &[f64],
        def_x: &mut Vec<usize>,
        def_b: &[usize],
    ) {
        let n = self.cfg.grid * self.cfg.grid;
        let resid_every = self.cfg.residual_every.max(1);
        let mut next = vec![0.0; n];
        let mut def_next = vec![0usize; if DDG { n } else { 0 }];
        let mut ax = vec![0.0; n];
        for sweep in start..self.cfg.sweeps {
            // weighted-relaxation factor when this sweep's body is the
            // tweaked one; `None` keeps the plain path byte-identical to
            // an untweaked build
            let omega = match self.cfg.tweak {
                Some(tw) if tw.sweep == sweep => Some(tw.omega),
                _ => None,
            };
            for (r, nr) in next.iter_mut().enumerate() {
                let lo = self.off_ptr[r] as usize;
                let hi = self.off_ptr[r + 1] as usize;
                let mut off = 0.0;
                // def site of the latest fine-grained accumulation
                let mut acc_def = usize::MAX;
                if self.cfg.fine_grained {
                    for (&c, &v) in self.off_cols[lo..hi].iter().zip(&self.off_vals[lo..hi]) {
                        if DDG {
                            if acc_def != usize::MAX {
                                t.dep(acc_def, OpKind::Add);
                            }
                            t.dep(def_x[c as usize], OpKind::Scale(v));
                            acc_def = t.cursor();
                        }
                        off = t.value(sid::SWEEP_ACC, off + v * x[c as usize]);
                    }
                } else {
                    for (&c, &v) in self.off_cols[lo..hi].iter().zip(&self.off_vals[lo..hi]) {
                        if DDG {
                            // ∂x_r/∂x_c = −(ω)·v/d_r at the golden values:
                            // the off-diagonal contribution is subtracted
                            let amp = match omega {
                                Some(w) => w * v / self.diag[r],
                                None => v / self.diag[r],
                            };
                            t.dep(def_x[c as usize], OpKind::Scale(-amp));
                        }
                        off += v * x[c as usize];
                    }
                }
                if DDG {
                    // x_r = (b_r − off) / d_r, damped by ω when tweaked
                    if let Some(w) = omega {
                        t.dep(def_b[r], OpKind::Scale(w / self.diag[r]));
                        if acc_def != usize::MAX {
                            // x_r falls as off rises: ∂x_r/∂off = −ω/d_r
                            t.dep(acc_def, OpKind::Scale(-(w / self.diag[r])));
                        }
                        t.dep(def_x[r], OpKind::Scale(1.0 - w));
                    } else {
                        t.dep(def_b[r], OpKind::DivNum(self.diag[r]));
                        if acc_def != usize::MAX {
                            // ∂x_r/∂off = −1/d_r
                            t.dep(acc_def, OpKind::Scale(-1.0 / self.diag[r]));
                        }
                    }
                    def_next[r] = t.cursor();
                }
                let xj = (b[r] - off) / self.diag[r];
                *nr = t.value(
                    sid::SWEEP_X,
                    match omega {
                        Some(w) => (1.0 - w) * x[r] + w * xj,
                        None => xj,
                    },
                );
            }
            std::mem::swap(x, &mut next);
            if DDG {
                std::mem::swap(def_x, &mut def_next);
            }
            // residual norm², traced as a reduction (a typical
            // convergence-monitoring store in real solvers), amortised
            // over `residual_every` sweeps. Carries no provenance deps:
            // the monitor value feeds neither the output nor any branch,
            // so its in-edges cannot constrain any threshold — flips *at*
            // a RESID site are covered by the crash-aware predictor
            // (non-finite) or masked (the stored value is discarded).
            if (sweep + 1) % resid_every == 0 {
                let mut res2 = 0.0;
                self.matrix.spmv(x, &mut ax);
                for r in 0..n {
                    let d = b[r] - ax[r];
                    res2 += d * d;
                }
                let _ = t.value(sid::RESID, res2);
            }
            if t.should_stop() {
                break;
            }
            if sweep + 1 < self.cfg.sweeps && t.boundary((sweep + 1) as u64, &[x, b]) {
                break;
            }
        }
    }

    /// The batched sweep entry point behind
    /// [`Kernel::run_batch_resumed`]'s feature dispatch: sets up the
    /// SoA state and re-dispatches into a lane-count-monomorphised span
    /// whenever retirement changes the live width.
    #[inline(always)]
    fn batch_sweeps(
        &self,
        bt: &mut BatchTracer,
        state: &KernelState,
        monitor: BatchBoundary<'_>,
    ) -> Vec<f64> {
        assert_eq!(state.arrays.len(), 2, "jacobi state is [x, b]");
        let b = &state.arrays[1]; // shared: never written after init
        let mut x = broadcast_soa(&state.arrays[0], bt.lanes());
        let mut next = vec![0.0; x.len()];
        let mut ax = vec![0.0; x.len()];
        let mut sweep = state.step as usize;
        // monomorphise every lane width up to MAX_BATCH_LANES: each arm
        // is a fixed-trip `[f64; L]` span the vectoriser fully unrolls
        macro_rules! span {
            ($($l:literal)*) => {
                while sweep < self.cfg.sweeps {
                    let done = match bt.lanes() {
                        0 => break,
                        $($l => self.batch_span::<$l>(
                            bt, &mut x, &mut next, &mut ax, b, &mut sweep, &mut *monitor,
                        ),)*
                        w => too_wide(w),
                    };
                    if done {
                        break;
                    }
                }
            };
        }
        const _: () = assert!(MAX_BATCH_LANES == 16, "span! must list every width");
        span!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16);
        x
    }

    /// AVX2 clone of [`JacobiKernel::batch_sweeps`]: identical Rust
    /// code compiled with 256-bit vectors. Element-wise IEEE ops at any
    /// width produce the same bits, so this is purely a throughput
    /// multiversion.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    // SAFETY: callers must verify AVX2 support first (the dispatch
    // site below does); the body itself is safe Rust.
    unsafe fn batch_sweeps_avx2(
        &self,
        bt: &mut BatchTracer,
        state: &KernelState,
        monitor: BatchBoundary<'_>,
    ) -> Vec<f64> {
        self.batch_sweeps(bt, state, monitor)
    }

    /// Lane-count-monomorphised batched sweep span: runs sweeps while
    /// the live lane count stays exactly `L`, so every per-row loop is
    /// a fixed-trip scan over `[f64; L]` the vectoriser unrolls.
    /// Returns `true` when the run is over (monitor break or sweep
    /// budget exhausted), `false` when retirement changed the lane
    /// count and the dispatcher must re-enter at the new width.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn batch_span<const L: usize>(
        &self,
        bt: &mut BatchTracer,
        x: &mut Vec<f64>,
        next: &mut Vec<f64>,
        ax: &mut Vec<f64>,
        b: &[f64],
        sweep: &mut usize,
        monitor: BatchBoundary<'_>,
    ) -> bool {
        let n = self.cfg.grid * self.cfg.grid;
        let resid_every = self.cfg.residual_every.max(1);
        while *sweep < self.cfg.sweeps {
            debug_assert_eq!(bt.lanes(), L);
            let s = *sweep;
            let omega = match self.cfg.tweak {
                Some(tw) if tw.sweep == s => Some(tw.omega),
                _ => None,
            };
            for r in 0..n {
                let lo = self.off_ptr[r] as usize;
                let hi = self.off_ptr[r + 1] as usize;
                let mut offs = [0.0f64; L];
                if self.cfg.fine_grained {
                    let mut rowv = [0.0f64; L];
                    for (&c, &v) in self.off_cols[lo..hi].iter().zip(&self.off_vals[lo..hi]) {
                        let xc = &x[c as usize * L..c as usize * L + L];
                        for l in 0..L {
                            rowv[l] = offs[l] + v * xc[l];
                        }
                        bt.row(&mut rowv);
                        offs = rowv;
                    }
                } else {
                    for (&c, &v) in self.off_cols[lo..hi].iter().zip(&self.off_vals[lo..hi]) {
                        let xc = &x[c as usize * L..c as usize * L + L];
                        for l in 0..L {
                            offs[l] += v * xc[l];
                        }
                    }
                }
                let rowv = &mut next[r * L..r * L + L];
                let br = b[r];
                let dr = self.diag[r];
                match omega {
                    Some(w) => {
                        let xr = &x[r * L..r * L + L];
                        for l in 0..L {
                            let xj = (br - offs[l]) / dr;
                            rowv[l] = (1.0 - w) * xr[l] + w * xj;
                        }
                    }
                    None => {
                        for l in 0..L {
                            rowv[l] = (br - offs[l]) / dr;
                        }
                    }
                }
                bt.row(rowv);
            }
            std::mem::swap(x, next);
            if (s + 1) % resid_every == 0 {
                // per-lane residual: ax = A·x with Csr::spmv's exact
                // accumulation order, then the r-major res² fold
                for r in 0..n {
                    let mut acc = [0.0f64; L];
                    for (c, v) in self.matrix.row(r) {
                        let xc = &x[c * L..c * L + L];
                        for l in 0..L {
                            acc[l] += v * xc[l];
                        }
                    }
                    ax[r * L..r * L + L].copy_from_slice(&acc);
                }
                let mut rowv = [0.0f64; L];
                for r in 0..n {
                    let axr = &ax[r * L..r * L + L];
                    for l in 0..L {
                        let d = b[r] - axr[l];
                        rowv[l] += d * d;
                    }
                }
                bt.row(&mut rowv);
            }
            *sweep = s + 1;
            // the scalar loop trap-breaks before its boundary fires, so
            // trapped lanes retire at this point (trap_break = true)
            if s + 1 < self.cfg.sweeps {
                let mut laned: [&mut Vec<f64>; 3] = [x, next, ax];
                if monitor(bt, (s + 1) as u64, true, &mut laned) {
                    return true;
                }
                if bt.lanes() != L {
                    return false;
                }
            }
        }
        true
    }
}

/// The batched sweep's refusal of a batch wider than [`MAX_BATCH_LANES`]
/// (batch planners never build one), kept cold and out of line so it
/// adds no code to the function the monomorphised spans are inlined in.
#[cold]
#[inline(never)]
fn too_wide(lanes: usize) -> ! {
    panic!("batch of {lanes} lanes is wider than MAX_BATCH_LANES");
}

impl Kernel for JacobiKernel {
    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn precision(&self) -> Precision {
        self.cfg.precision
    }

    fn registry(&self) -> StaticRegistry {
        sid::registry()
    }

    fn estimated_sites(&self) -> usize {
        let n = self.cfg.grid * self.cfg.grid;
        let per_sweep = if self.cfg.fine_grained {
            self.off_cols.len() + n
        } else {
            n
        };
        let resid_sites = self.cfg.sweeps / self.cfg.residual_every.max(1);
        2 * n + self.cfg.sweeps * per_sweep + resid_sites
    }

    fn code_version(&self, lo: usize, hi: usize) -> u64 {
        let Some(tw) = self.cfg.tweak else {
            return 0;
        };
        if tw.sweep >= self.cfg.sweeps {
            return 0;
        }
        // site layout: [0,2n) init, then per sweep `per_sweep` stores with
        // one residual store after every `residual_every`-th sweep
        let n = self.cfg.grid * self.cfg.grid;
        let per_sweep = if self.cfg.fine_grained {
            self.off_cols.len() + n
        } else {
            n
        };
        let re = self.cfg.residual_every.max(1);
        let start = 2 * n + tw.sweep * per_sweep + tw.sweep / re;
        let end = start + per_sweep;
        if start < hi && lo < end {
            let mut h = ftb_trace::Fnv1a::new();
            h.write_u64(tw.sweep as u64);
            h.write_u64(tw.omega.to_bits());
            h.finish()
        } else {
            0
        }
    }

    fn snapshot_capable(&self) -> bool {
        true
    }

    /// Contraction certificate: one Jacobi sweep maps a state deviation
    /// `δx` to at most `row_gain·δx + δb/|d| + ρ`, where `row_gain =
    /// max_r Σ|off|/|d_r| ≤ 1` by diagonal dominance of the Poisson
    /// operator, `δb` is the (persistent) right-hand-side deviation and
    /// `ρ` is the per-sweep quantisation slack. The sweep's exact
    /// arithmetic is a convex-ish row combination, so with `row_gain ≤ 1`
    /// the deviation after the `S` remaining sweeps is at most
    /// `δx + S·(δb·max(1/|d|) + ρ)` — and the output *is* the final
    /// iterate, so that bounds the classifier's L∞ output distance.
    ///
    /// `ρ` accounts for every rounding the two runs can disagree by: one
    /// round-to-nearest quantisation of each stored update (each run
    /// moves by at most half a [`Precision::ulp_of`] at the magnitude
    /// cap), an explicit guard for the `f64` intermediate-arithmetic
    /// divergence (`16ε₆₄` per unit of intermediate magnitude, far above
    /// the ≤6 roundings a row update performs), plus — in fine-grained
    /// mode — the quantisation of each off-diagonal accumulation, scaled
    /// through the diagonal.
    /// Magnitudes are capped by the snapshot store's recorded golden
    /// suffix maxima plus the deviation budget, valid under the trait's
    /// self-consistency condition (`bound ≤ budget` throughout, since
    /// the bound grows monotonically with remaining sweeps).
    ///
    /// Control flow is data-independent (fixed sweep count) and every
    /// value stays finite inside the magnitude cap, so an accepted bound
    /// proves the outcome code is exactly `Masked`. A tweaked remaining
    /// sweep with ω outside `[0, 1]` breaks the convex-combination
    /// argument, so no certificate is offered there.
    fn masked_exit_bound(
        &self,
        step: u64,
        deviations: &[f64],
        suffix_mags: &[f64],
        budget: f64,
    ) -> Option<f64> {
        if self.cert.row_gain > 1.0 || !budget.is_finite() {
            return None;
        }
        if let Some(tw) = self.cfg.tweak {
            if tw.sweep >= step as usize && !(0.0..=1.0).contains(&tw.omega) {
                return None;
            }
        }
        let [dx, db] = deviations else { return None };
        let mx = *suffix_mags.first()?;
        let remaining = self.cfg.sweeps.saturating_sub(step as usize) as f64;
        let m_hat = mx + budget;
        let p = self.cfg.precision;
        let dust = 16.0 * f64::EPSILON * (self.cert.row_abs + 2.0) * m_hat;
        let rho = if self.cfg.fine_grained {
            self.cert.acc_factor * p.ulp_of(self.cert.row_abs * m_hat) + p.ulp_of(m_hat) + dust
        } else {
            p.ulp_of(m_hat) + dust
        };
        Some(dx + remaining * (db * self.cert.inv_diag + rho))
    }

    fn batch_capable(&self) -> bool {
        true
    }

    fn batch_laned_arrays(&self) -> &'static [bool] {
        // x is rewritten every sweep; b is read-only after init
        &[true, false]
    }

    /// The lane-batched sweep loop: per lane, the arithmetic mirrors the
    /// scalar body's sweep loop (`JacobiKernel::sweep_loop`, whose
    /// `DDG = false` instance injection runs) operation-for-operation —
    /// the same
    /// off-diagonal accumulation order, the same hoisted `xj`, and a
    /// residual whose per-lane SpMV accumulates in exactly
    /// [`Csr::spmv`]'s entry order — so a lane's value stream is
    /// bit-identical to the scalar resumed run carrying the same fault.
    ///
    /// Dispatch monomorphises the sweep on the live lane count (1 to
    /// [`MAX_BATCH_LANES`]): the per-row loops become straight-line code
    /// over `[f64; L]` buffers the vectoriser handles directly, and
    /// whenever retirement compacts the batch the loop re-dispatches at
    /// the new width. Batch planners never hand it a wider batch.
    /// On x86-64 the whole sweep is additionally multiversioned for
    /// AVX2 with runtime detection: the wider clone changes vector
    /// width only, never FP semantics (no contraction, IEEE-exact
    /// element-wise ops), so outputs stay bit-identical across hosts.
    fn run_batch_resumed(
        &self,
        bt: &mut BatchTracer,
        state: &KernelState,
        monitor: BatchBoundary<'_>,
    ) -> Vec<f64> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence was just verified on this host.
            #[allow(unsafe_code)]
            return unsafe { self.batch_sweeps_avx2(bt, state, monitor) };
        }
        self.batch_sweeps(bt, state, monitor)
    }

    fn run(&self, t: &mut Tracer) -> Vec<f64> {
        if t.ddg_enabled() {
            self.body::<true>(t)
        } else {
            self.body::<false>(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;
    use ftb_trace::norms::Norm;
    use ftb_trace::{FaultSpec, RecordMode};

    #[test]
    fn converges_toward_manufactured_solution() {
        let k = JacobiKernel::new(JacobiConfig {
            sweeps: 400,
            ..JacobiConfig::small()
        });
        let g = k.golden();
        let err = Norm::LInf.distance(&g.output, k.x_true());
        assert!(err < 1e-3, "Jacobi did not converge: {err}");
    }

    #[test]
    fn residual_sites_decrease() {
        let k = JacobiKernel::new(JacobiConfig::small());
        let g = k.golden();
        let resids: Vec<f64> = (0..g.n_sites())
            .filter(|&s| g.static_id(s) == sid::RESID)
            .map(|s| g.values[s])
            .collect();
        assert_eq!(resids.len(), k.config().sweeps);
        assert!(
            resids.last().unwrap() < &(resids[0] * 0.5),
            "residual did not shrink: {resids:?}"
        );
    }

    #[test]
    fn injected_error_decays_across_sweeps() {
        // the contraction property: a perturbation in an early sweep
        // store leaves a *smaller* perturbation in the final output than
        // it injected
        let k = JacobiKernel::new(JacobiConfig::small());
        let g = k.golden();
        let n = k.config().grid * k.config().grid;
        // first sweep's x store for an interior-ish row
        let site = 2 * n + 7;
        assert_eq!(g.static_id(site), sid::SWEEP_X);
        let bit = 51; // sizeable mantissa perturbation
        let r = k.run_injected(FaultSpec { site, bit }, RecordMode::OutputOnly);
        let inj = r.injected_err.unwrap();
        let out = Norm::LInf.distance(&g.output, &r.output);
        assert!(
            out < inj * 0.5,
            "Jacobi should damp the perturbation: injected {inj:.3e}, output {out:.3e}"
        );
    }

    #[test]
    fn estimate_covers_actual() {
        let k = JacobiKernel::new(JacobiConfig::small());
        let g = k.golden();
        assert!(k.estimated_sites() >= g.n_sites());
        assert!(k.estimated_sites() <= g.n_sites() + 8);
    }

    #[test]
    fn tweak_changes_one_sweep_but_not_the_shape() {
        let base = JacobiKernel::new(JacobiConfig::small());
        let tweaked = JacobiKernel::new(JacobiConfig {
            tweak: Some(SweepTweak {
                sweep: 3,
                omega: 0.7,
            }),
            ..JacobiConfig::small()
        });
        let g0 = base.golden();
        let g1 = tweaked.golden();
        // identical dynamic-instruction stream shape …
        assert_eq!(g0.static_ids, g1.static_ids);
        // … but different values from the tweaked sweep onward
        let n = base.config().grid * base.config().grid;
        let sweep3 = 2 * n + 3 * (n + 1);
        assert_eq!(g0.values[..sweep3], g1.values[..sweep3]);
        assert_ne!(g0.values[sweep3..], g1.values[sweep3..]);
        // a damped sweep still converges
        let err = Norm::LInf.distance(&g1.output, &g0.output);
        assert!(err.is_finite());
    }

    #[test]
    fn code_version_localizes_the_edit() {
        let cfg = JacobiConfig {
            tweak: Some(SweepTweak {
                sweep: 2,
                omega: 0.5,
            }),
            ..JacobiConfig::small()
        };
        let k = JacobiKernel::new(cfg.clone());
        let n = cfg.grid * cfg.grid;
        // sweep s occupies [2n + s(n+1), 2n + s(n+1) + n) with
        // residual_every = 1
        let start = 2 * n + 2 * (n + 1);
        assert_ne!(k.code_version(start, start + n + 1), 0);
        // neighbouring sweeps are untouched
        assert_eq!(k.code_version(2 * n + (n + 1), start), 0);
        assert_eq!(k.code_version(start + n + 1, start + 2 * (n + 1)), 0);
        // an untweaked build stamps everything 0
        let plain = JacobiKernel::new(JacobiConfig::small());
        assert_eq!(plain.code_version(0, plain.estimated_sites()), 0);
    }

    #[test]
    fn masked_exit_bound_is_monotone_and_gated() {
        let k = JacobiKernel::new(JacobiConfig::small());
        let tol = 1e-6;
        // Poisson rows are diagonally dominant with unit off-diagonals
        assert!(k.cert.row_gain <= 1.0);
        assert_eq!(k.cert.inv_diag, 0.25);
        // a bit-identical state certifies trivially: only rounding slack
        let b0 = k
            .masked_exit_bound(10, &[0.0, 0.0], &[1.0, 8.0], tol)
            .unwrap();
        assert!(b0 < tol, "pure slack must be far below tolerance: {b0}");
        // more remaining sweeps, larger deviations ⇒ larger bound
        let early = k
            .masked_exit_bound(2, &[1e-8, 1e-9], &[1.0, 8.0], tol)
            .unwrap();
        let late = k
            .masked_exit_bound(25, &[1e-8, 1e-9], &[1.0, 8.0], tol)
            .unwrap();
        assert!(early > late && late > b0);
        // the x deviation enters the bound directly
        let shifted = k
            .masked_exit_bound(25, &[3e-7, 0.0], &[1.0, 8.0], tol)
            .unwrap();
        assert!(shifted >= 3e-7);
        // a non-convex tweak in the remaining sweeps voids the
        // certificate; one already executed does not
        let tweaked = JacobiKernel::new(JacobiConfig {
            tweak: Some(SweepTweak {
                sweep: 20,
                omega: 1.5,
            }),
            ..JacobiConfig::small()
        });
        assert!(tweaked
            .masked_exit_bound(10, &[0.0, 0.0], &[1.0, 8.0], tol)
            .is_none());
        assert!(tweaked
            .masked_exit_bound(21, &[0.0, 0.0], &[1.0, 8.0], tol)
            .is_some());
        // a convex tweak keeps it
        let damped = JacobiKernel::new(JacobiConfig {
            tweak: Some(SweepTweak {
                sweep: 20,
                omega: 0.7,
            }),
            ..JacobiConfig::small()
        });
        assert!(damped
            .masked_exit_bound(10, &[0.0, 0.0], &[1.0, 8.0], tol)
            .is_some());
    }

    #[test]
    fn resumed_run_is_bitwise_identical_to_scratch() {
        let k = JacobiKernel::new(JacobiConfig::small());
        let g = k.golden();
        let mut snaps: Vec<(usize, usize, u64, Vec<Vec<f64>>)> = Vec::new();
        let mut capture = |c: usize, bc: usize, s: u64, arrays: &[&[f64]]| {
            snaps.push((c, bc, s, arrays.iter().map(|a| a.to_vec()).collect()));
            false
        };
        let mut t = Tracer::untraced(Precision::F64).with_boundary_hook(&mut capture);
        let out = k.run(&mut t);
        let run = t.finish(out);
        assert_eq!(run.output, g.output);
        assert_eq!(run.n_dynamic, g.n_dynamic);
        // one boundary after init (step 0) plus one per sweep but the last
        assert_eq!(snaps.len(), k.config().sweeps);

        let (cursor, bc, step, arrays) = snaps[7].clone();
        let state = KernelState { step, arrays };
        // a fault-free resume completes to the golden output
        let mut t = Tracer::untraced(Precision::F64).resume_at(cursor, bc, state.clone());
        let out = k.run(&mut t);
        assert_eq!(out, g.output);
        assert_eq!(t.cursor(), g.n_dynamic);

        // a faulty resume matches the from-scratch injected run exactly
        let fault = FaultSpec {
            site: cursor + 3,
            bit: 61,
        };
        let scratch = k.run_injected(fault, RecordMode::OutputOnly);
        let mut t = Tracer::inject(Precision::F64, fault, RecordMode::OutputOnly)
            .resume_at(cursor, bc, state);
        let out = k.run(&mut t);
        assert_eq!(out, scratch.output);
        assert_eq!(t.cursor(), scratch.n_dynamic);
    }

    #[test]
    fn tweaked_ddg_stays_instrumented() {
        let k = JacobiKernel::new(JacobiConfig {
            grid: 4,
            sweeps: 6,
            tweak: Some(SweepTweak {
                sweep: 1,
                omega: 0.6,
            }),
            ..JacobiConfig::small()
        });
        let (g, ddg) = k.golden_with_ddg();
        assert!(ddg.is_instrumented());
        assert_eq!(ddg.n_sites, g.n_sites());
    }
}
