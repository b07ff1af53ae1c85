//! Conjugate gradient on a MiniFE-style 2-D Poisson finite-element system.
//!
//! The paper's CG benchmark (from MiniFE) solves a sparse linear system
//! arising from a finite-element discretisation. We use the standard
//! 5-point Poisson operator on a `grid × grid` mesh with a manufactured
//! right-hand side, applied matrix-free (identical arithmetic to a CSR
//! apply of the assembled stencil matrix).
//!
//! The dynamic-instruction layout deliberately mirrors the paper's §4.2
//! description of its Figure 4:
//!
//! 1. the run opens with `x = 0` stores — "the first 80 dynamic
//!    instructions initialize floating point variables to zero", whose
//!    flips are almost all tiny (§4.2's analysis of bit flips on a
//!    32-bit zero);
//! 2. a one-shot setup region (`b`, `r = b`, `p = r`) that later errors
//!    never propagate back into;
//! 3. the iterative compute/reduction region, where errors injected early
//!    propagate through every subsequent iteration.
//!
//! The convergence test goes through [`Tracer::branch`], so a fault that
//! changes the iteration count is detected as control-flow divergence.

use crate::csr::Csr;
use crate::inputs::uniform_vec;
use crate::{load, resume_or_init, Kernel};
use ftb_trace::{Fnv1a, OpKind, Precision, StaticRegistry, Tracer};
use serde::{Deserialize, Serialize};

ftb_trace::static_instrs! {
    pub mod sid {
        INIT_X   => ("cg.init.x=0", Init),
        INIT_MAT => ("cg.init.matrix", Init),
        INIT_B   => ("cg.init.b", Init),
        INIT_R   => ("cg.init.r=b", Init),
        INIT_P   => ("cg.init.p=r", Init),
        DOT_RR0  => ("cg.dot.rr0", Reduction),
        // phase head: every iteration of the solve loop opens with the
        // operator application, so marking it aligns section boundaries
        // with CG iterations (including the first, which otherwise fuses
        // with the setup region under pure id-restart segmentation)
        SPMV_Q   => ("cg.spmv.q=Ap", Compute, phase),
        DOT_PQ   => ("cg.dot.pq", Reduction),
        ALPHA    => ("cg.alpha", Compute),
        UPDATE_X => ("cg.update.x", Compute),
        UPDATE_R => ("cg.update.r", Compute),
        DOT_RR   => ("cg.dot.rr", Reduction),
        BETA     => ("cg.beta", Compute),
        UPDATE_P => ("cg.update.p", Compute),
    }
}

/// How the CG kernel represents the Poisson operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CgStorage {
    /// Apply the 5-point stencil directly (no stored matrix data).
    #[default]
    MatrixFree,
    /// Assemble an explicit CSR matrix first (MiniFE semantics): every
    /// stored matrix entry is itself an injectable dynamic instruction,
    /// and a corrupted entry perturbs both the right-hand-side assembly
    /// and every subsequent operator application.
    AssembledCsr,
}

/// Configuration of the CG kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CgConfig {
    /// Mesh is `grid × grid`; the system has `grid²` unknowns. The
    /// paper's §4.6 scaling study uses 20×20 and 100×100.
    pub grid: usize,
    /// Relative residual reduction target (‖r‖² ≤ rtol² ‖b‖²).
    pub rtol: f64,
    /// Hard iteration cap. Outcome campaigns stop a faulty run earlier,
    /// at the classifier's hang budget (`Tracer::with_budget`).
    pub max_iters: usize,
    /// Element precision. The paper analyses CG with 32-bit floats.
    pub precision: Precision,
    /// Input seed.
    pub seed: u64,
    /// Operator representation.
    #[serde(default)]
    pub storage: CgStorage,
}

impl CgConfig {
    /// Check the configuration describes a buildable kernel; the
    /// constructor panics with this message otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.grid == 0 {
            return Err("CG needs grid >= 1".into());
        }
        Ok(())
    }

    /// A laptop-scale default: 8×8 mesh (64 unknowns), f32 elements.
    pub fn small() -> Self {
        CgConfig {
            grid: 8,
            rtol: 1e-4,
            max_iters: 200,
            precision: Precision::F32,
            seed: 42,
            storage: CgStorage::MatrixFree,
        }
    }

    /// The paper-proportioned sizes of §4.6.
    pub fn paper_scaling(grid: usize) -> Self {
        CgConfig {
            grid,
            rtol: 1e-4,
            max_iters: 4 * grid * grid,
            precision: Precision::F32,
            seed: 42,
            storage: CgStorage::MatrixFree,
        }
    }
}

/// The instrumented CG kernel. Immutable after construction; safe to run
/// from many campaign threads concurrently.
#[derive(Debug, Clone)]
pub struct CgKernel {
    cfg: CgConfig,
    /// Manufactured solution used to build the right-hand side.
    x_true: Vec<f64>,
    /// Assembled operator (only in [`CgStorage::AssembledCsr`] mode).
    matrix: Option<Csr>,
    sites_hint: usize,
    branches_hint: usize,
}

impl CgKernel {
    /// Build the kernel, generating its input from `cfg.seed` and running
    /// one untraced dry run to size the trace buffers exactly.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`CgConfig::validate`]).
    pub fn new(cfg: CgConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let n = cfg.grid * cfg.grid;
        let x_true = uniform_vec(cfg.seed, n, -1.0, 1.0);
        let matrix = match cfg.storage {
            CgStorage::MatrixFree => None,
            CgStorage::AssembledCsr => Some(Csr::poisson_2d(cfg.grid)),
        };
        let mut k = CgKernel {
            cfg,
            x_true,
            matrix,
            sites_hint: 0,
            branches_hint: 0,
        };
        let mut t = Tracer::untraced(k.cfg.precision);
        let _ = k.run(&mut t);
        k.sites_hint = t.cursor();
        k.branches_hint = t.branch_count();
        k
    }

    /// Number of unknowns (`grid²`).
    pub fn n_unknowns(&self) -> usize {
        self.cfg.grid * self.cfg.grid
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &CgConfig {
        &self.cfg
    }

    /// Apply the 5-point Poisson operator: `q = A v`, tracing each store
    /// of `q`. Dirichlet boundary: off-grid neighbours are zero. With
    /// `DDG`, `dv` supplies the def sites of `v`'s elements and `dq`
    /// receives the def sites of `q`'s stores (both unused otherwise).
    // kept out of line, like `solve_loop` itself, so the stencil loop and
    // the solve loop are register-allocated apart
    #[inline(never)]
    fn apply_poisson<const DDG: bool>(
        &self,
        t: &mut Tracer,
        v: &[f64],
        q: &mut [f64],
        dv: &[usize],
        dq: &mut [usize],
    ) {
        let g = self.cfg.grid;
        for i in 0..g {
            for j in 0..g {
                let idx = i * g + j;
                if DDG {
                    // q_idx = 4 v_idx − Σ v_neighbour
                    t.dep(dv[idx], OpKind::Scale(4.0));
                    if i > 0 {
                        t.dep(dv[idx - g], OpKind::Sub);
                    }
                    if i + 1 < g {
                        t.dep(dv[idx + g], OpKind::Sub);
                    }
                    if j > 0 {
                        t.dep(dv[idx - 1], OpKind::Sub);
                    }
                    if j + 1 < g {
                        t.dep(dv[idx + 1], OpKind::Sub);
                    }
                    dq[idx] = t.cursor();
                }
                q[idx] = t.value(sid::SPMV_Q, poisson_at(g, v, i, j));
            }
        }
    }

    /// The one scalar body; `DDG` compiles in the operand-provenance
    /// bookkeeping. The matrix-free configuration starts from the
    /// tracer's resume state when one is set; the assembled-CSR one
    /// (not snapshot-capable) always runs its setup.
    fn body<const DDG: bool>(&self, t: &mut Tracer) -> Vec<f64> {
        let len = if DDG { self.n_unknowns() } else { 0 };
        let mut d = Defs {
            x: Vec::new(),
            b: Vec::new(),
            mat: Vec::new(),
            r: vec![0; len],
            p: vec![0; len],
            q: vec![0; len],
            rr: usize::MAX,
        };
        let mut avals = Vec::new();
        let started = if self.matrix.is_none() {
            resume_or_init(t, |t| self.setup::<DDG>(t, &mut d, &mut avals))
        } else {
            Ok((0, self.setup::<DDG>(t, &mut d, &mut avals)))
        };
        let (start, [mut x, mut r, mut p, b, rr]) = match started {
            Ok(started) => started,
            Err([x, ..]) => return x,
        };
        self.solve_loop::<DDG>(t, &mut x, &mut r, &mut p, &b, rr[0], start, &avals, &mut d);
        if DDG {
            for &dx in &d.x {
                t.out_dep(dx, 1.0);
            }
        }
        x
    }

    /// The setup region, in state order `[x, r, p, b, [rr]]`.
    ///
    /// Region 1 zero-initialises the solution vector. Region 1b
    /// ([`CgStorage::AssembledCsr`] only) assembles the matrix into
    /// `avals`: every stored entry is a dynamic instruction (MiniFE
    /// semantics) whose def site feeds every later operator application.
    /// Region 2 is the one-shot setup `b = A x_true` (manufactured),
    /// `r = b`, `p = r`, `rr = ⟨r, r⟩`; errors injected later in the run
    /// never propagate back into it.
    fn setup<const DDG: bool>(
        &self,
        t: &mut Tracer,
        d: &mut Defs,
        avals: &mut Vec<f64>,
    ) -> [Vec<f64>; 5] {
        let n = self.n_unknowns();
        let g = self.cfg.grid;
        let x = load::<DDG>(t, sid::INIT_X, &vec![0.0; n], &mut d.x);
        // the right-hand side comes from the source term, not from the
        // stored operator entries (so a corrupted matrix entry leads to an
        // inconsistent system, as in a real FE code where b is integrated
        // independently): compute from pristine values, trace the stores
        let rhs = match &self.matrix {
            Some(m) => {
                *avals = load::<DDG>(t, sid::INIT_MAT, m.values(), &mut d.mat);
                let mut rhs = vec![0.0; n];
                m.spmv(&self.x_true, &mut rhs);
                rhs
            }
            None => (0..n)
                .map(|idx| poisson_at(g, &self.x_true, idx / g, idx % g))
                .collect(),
        };
        let b = load::<DDG>(t, sid::INIT_B, &rhs, &mut d.b);
        let mut r = vec![0.0; n];
        for i in 0..n {
            if DDG {
                t.dep(d.b[i], OpKind::Add);
                d.r[i] = t.cursor();
            }
            r[i] = t.value(sid::INIT_R, b[i]);
        }
        let mut p = vec![0.0; n];
        for i in 0..n {
            if DDG {
                t.dep(d.r[i], OpKind::Add);
                d.p[i] = t.cursor();
            }
            p[i] = t.value(sid::INIT_P, r[i]);
        }
        if DDG {
            for (&def, &ri) in d.r.iter().zip(&r) {
                t.dep(def, OpKind::Square(ri));
            }
            d.rr = t.cursor();
        }
        let rr = t.value(sid::DOT_RR0, dot(&r, &r));
        [x, r, p, b, vec![rr]]
    }

    /// Region 3, the CG iterations from `start_it` onward, whether the run
    /// started from scratch or from a resume state. `tol2` is recomputed
    /// from the traced `b`, so a resumed run reproduces the convergence
    /// test bit-for-bit. The matrix-free state `[x, r, p, b, [rr]]` is
    /// reported to [`Tracer::boundary`] at the bottom of every completed
    /// iteration; an answer of `true` stops the loop.
    // kept out of line, like `LuKernel::block_steps`: inlined into
    // `body`, its loops would be register-allocated together with the
    // setup region
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn solve_loop<const DDG: bool>(
        &self,
        t: &mut Tracer,
        x: &mut [f64],
        r: &mut [f64],
        p: &mut [f64],
        b: &[f64],
        rr0: f64,
        start_it: usize,
        avals: &[f64],
        d: &mut Defs,
    ) {
        let n = self.n_unknowns();
        let bb: f64 = dot(b, b);
        let tol2 = self.cfg.rtol * self.cfg.rtol * bb;
        let mut q = vec![0.0; n];
        let mut rr = rr0;
        let mut it = start_it;
        loop {
            if DDG {
                // Convergence test `rr > tol2`: the condition value
                // depends on the latest rr (amp 1) and — through
                // tol2 = rtol²·Σ b_i² — on every b element. The margin is
                // how far the golden condition sits from flipping.
                let margin = (rr - tol2).abs();
                t.branch_dep(d.rr, 1.0, margin);
                let rtol2 = self.cfg.rtol * self.cfg.rtol;
                for (&def, &bi) in d.b.iter().zip(b) {
                    let (amp, cap) = OpKind::Square(bi).amplification();
                    t.branch_dep(def, rtol2 * amp, margin);
                    t.dep_cap(def, cap);
                }
            }
            if !t.branch(it < self.cfg.max_iters && rr > tol2) {
                break;
            }
            match &self.matrix {
                Some(m) => {
                    m.spmv_traced::<DDG>(t, sid::SPMV_Q, avals, &d.mat, p, &d.p, &mut q, &mut d.q)
                }
                None => self.apply_poisson::<DDG>(t, p, &mut q, &d.p, &mut d.q),
            }
            if DDG {
                // pq = Σ p_i q_i: bilinear, |∂/∂p_i| = |q_i| and vice
                // versa (cross terms of a propagated perturbation are the
                // documented soundness caveat)
                for i in 0..n {
                    t.dep(d.p[i], OpKind::Scale(q[i]));
                    t.dep(d.q[i], OpKind::Scale(p[i]));
                }
            }
            let def_pq = t.cursor();
            let pq = t.value(sid::DOT_PQ, dot(p, &q));
            if DDG {
                t.dep(d.rr, OpKind::DivNum(pq));
                t.dep(def_pq, OpKind::DivDen { num: rr, den: pq });
            }
            let def_alpha = t.cursor();
            let alpha = t.value(sid::ALPHA, rr / pq);
            for i in 0..n {
                if DDG {
                    t.dep(d.x[i], OpKind::Add);
                    t.dep(def_alpha, OpKind::Scale(p[i]));
                    t.dep(d.p[i], OpKind::Scale(alpha));
                    d.x[i] = t.cursor();
                }
                x[i] = t.value(sid::UPDATE_X, x[i] + alpha * p[i]);
            }
            for i in 0..n {
                if DDG {
                    // r ← r − α·q: ∂r/∂α = −q_i, ∂r/∂q_i = −α
                    t.dep(d.r[i], OpKind::Add);
                    t.dep(def_alpha, OpKind::Scale(-q[i]));
                    t.dep(d.q[i], OpKind::Scale(-alpha));
                    d.r[i] = t.cursor();
                }
                r[i] = t.value(sid::UPDATE_R, r[i] - alpha * q[i]);
            }
            if DDG {
                for (&def, &ri) in d.r.iter().zip(r.iter()) {
                    t.dep(def, OpKind::Square(ri));
                }
            }
            let def_rr_new = t.cursor();
            let rr_new = t.value(sid::DOT_RR, dot(r, r));
            if DDG {
                t.dep(def_rr_new, OpKind::DivNum(rr));
                t.dep(
                    d.rr,
                    OpKind::DivDen {
                        num: rr_new,
                        den: rr,
                    },
                );
            }
            let def_beta = t.cursor();
            let beta = t.value(sid::BETA, rr_new / rr);
            for i in 0..n {
                if DDG {
                    t.dep(d.r[i], OpKind::Add);
                    t.dep(def_beta, OpKind::Scale(p[i]));
                    t.dep(d.p[i], OpKind::Scale(beta));
                    d.p[i] = t.cursor();
                }
                p[i] = t.value(sid::UPDATE_P, r[i] + beta * p[i]);
            }
            rr = rr_new;
            if DDG {
                d.rr = def_rr_new;
            }
            it += 1;
            // NaN-exception model: the program dies at the trap rather
            // than iterating on poisoned data. A run past the tracer's
            // hang budget is killed here too, as a watchdog would.
            if t.should_stop() {
                break;
            }
            if self.matrix.is_none() && t.boundary(it as u64, &[x, r, p, b, &[rr]]) {
                break;
            }
        }
    }
}

/// Def sites of the CG body's arrays and scalars: the dynamic
/// instruction that last defined each element. Filled only by the
/// provenance instance of the body (`x`, `b` and `mat` by [`load`]); the
/// vectors stay empty otherwise.
struct Defs {
    x: Vec<usize>,
    b: Vec<usize>,
    r: Vec<usize>,
    p: Vec<usize>,
    q: Vec<usize>,
    /// The assembled operator's entries ([`CgStorage::AssembledCsr`]).
    mat: Vec<usize>,
    /// The latest `rr = ⟨r, r⟩`.
    rr: usize,
}

impl Kernel for CgKernel {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn precision(&self) -> Precision {
        self.cfg.precision
    }

    fn registry(&self) -> StaticRegistry {
        sid::registry()
    }

    fn estimated_sites(&self) -> usize {
        self.sites_hint
    }

    fn estimated_branches(&self) -> usize {
        self.branches_hint
    }

    fn code_version(&self, _lo: usize, _hi: usize) -> u64 {
        // structural stamp: the seed changes values, not code; grid,
        // iteration budget, convergence target and operator storage all
        // change which instruction stream a section covers
        let mut h = Fnv1a::new();
        h.write(b"cg/minife-poisson/v1");
        h.write_u64(self.cfg.grid as u64);
        h.write_u64(self.cfg.max_iters as u64);
        h.write_u64(self.cfg.rtol.to_bits());
        h.write_u64(match self.cfg.storage {
            CgStorage::MatrixFree => 0,
            CgStorage::AssembledCsr => 1,
        });
        h.finish()
    }

    fn snapshot_capable(&self) -> bool {
        // AssembledCsr keeps its traced operator entries live across the
        // whole loop; snapshotting it would have to carry the full matrix
        // in every state. Matrix-free is the paper-scale configuration.
        self.matrix.is_none()
    }

    fn run(&self, t: &mut Tracer) -> Vec<f64> {
        if t.ddg_enabled() {
            self.body::<true>(t)
        } else {
            self.body::<false>(t)
        }
    }
}

/// `(A v)` at cell `(i, j)` of the 5-point Poisson operator on a
/// `g × g` mesh: `4 v_ij` minus each in-grid neighbour (Dirichlet
/// boundary: off-grid neighbours are zero).
#[inline(always)]
fn poisson_at(g: usize, v: &[f64], i: usize, j: usize) -> f64 {
    let idx = i * g + j;
    let mut s = 4.0 * v[idx];
    if i > 0 {
        s -= v[idx - g];
    }
    if i + 1 < g {
        s -= v[idx + g];
    }
    if j > 0 {
        s -= v[idx - 1];
    }
    if j + 1 < g {
        s -= v[idx + 1];
    }
    s
}

/// Untraced dot product (its *result* is traced by the caller; the paper's
/// fault model corrupts stored data elements, and the partial sums live in
/// registers).
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;
    use ftb_trace::norms::Norm;
    use ftb_trace::{FaultSpec, RecordMode};

    #[test]
    fn golden_solves_the_system() {
        let k = CgKernel::new(CgConfig::small());
        let g = k.golden();
        // the solution approximates the manufactured x_true
        let err = Norm::LInf.distance(&g.output, &k.x_true);
        assert!(err < 2e-3, "CG did not converge: L∞ error {err}");
    }

    #[test]
    fn converges_before_iteration_cap() {
        let k = CgKernel::new(CgConfig::small());
        let g = k.golden();
        // branch events = iterations + final false test; far below cap
        assert!(g.branches.len() < CgConfig::small().max_iters);
        assert!(g.branches.len() > 3, "suspiciously few iterations");
    }

    #[test]
    fn site_layout_starts_with_zero_init() {
        let k = CgKernel::new(CgConfig::small());
        let g = k.golden();
        let n = k.n_unknowns();
        for i in 0..n {
            assert_eq!(g.values[i], 0.0, "x init site {i} not zero");
            assert_eq!(g.static_id(i), sid::INIT_X);
        }
        assert_eq!(g.static_id(n), sid::INIT_B);
    }

    #[test]
    fn f32_precision_quantizes_all_sites() {
        let k = CgKernel::new(CgConfig::small());
        let g = k.golden();
        for (i, &v) in g.values.iter().enumerate() {
            assert_eq!(v, v as f32 as f64, "site {i} not an f32 value");
        }
    }

    #[test]
    fn low_mantissa_flip_late_in_run_is_masked() {
        let k = CgKernel::new(CgConfig::small());
        let g = k.golden();
        // flip the lowest mantissa bit of one of the last x updates
        let site = g.n_sites() - 2;
        let r = k.run_injected(FaultSpec { site, bit: 0 }, RecordMode::OutputOnly);
        let d = Norm::LInf.distance(&g.output, &r.output);
        assert!(
            d < 1e-5,
            "tiny late flip should be inconsequential, got {d}"
        );
    }

    #[test]
    fn sign_flip_of_rhs_is_not_masked() {
        let k = CgKernel::new(CgConfig::small());
        let g = k.golden();
        let n = k.n_unknowns();
        // find a b-init site with non-trivial magnitude and flip its sign
        let site = (n..2 * n)
            .max_by(|&a, &b| g.values[a].abs().partial_cmp(&g.values[b].abs()).unwrap())
            .unwrap();
        let r = k.run_injected(FaultSpec { site, bit: 31 }, RecordMode::OutputOnly);
        let d = Norm::LInf.distance(&g.output, &r.output);
        assert!(
            d > 1e-2,
            "sign flip of b should corrupt the solution, got {d}"
        );
    }

    #[test]
    fn faulty_iteration_count_shows_as_branch_divergence() {
        let k = CgKernel::new(CgConfig::small());
        let g = k.golden();
        let n = k.n_unknowns();
        // corrupt an early residual-ish site hard: sign flip of r init
        let r = k.run_injected(
            FaultSpec {
                site: 2 * n + 3,
                bit: 31,
            },
            RecordMode::Full,
        );
        let p = ftb_trace::propagation(&g, &r);
        // either control flow diverged or the run still compared fully —
        // but a sign flip of r definitely perturbs later instructions
        assert!(p.errors.iter().any(|&e| e > 0.0));
    }

    #[test]
    fn dry_run_hints_match_golden_exactly() {
        let k = CgKernel::new(CgConfig::small());
        let g = k.golden();
        assert_eq!(k.estimated_sites(), g.n_sites());
        assert_eq!(k.estimated_branches(), g.branches.len());
    }

    #[test]
    fn assembled_csr_solves_like_matrix_free() {
        let free = CgKernel::new(CgConfig::small());
        let csr = CgKernel::new(CgConfig {
            storage: CgStorage::AssembledCsr,
            ..CgConfig::small()
        });
        let gf = free.golden();
        let gc = csr.golden();
        // identical arithmetic, identical solution (both f32-quantised)
        let err = Norm::LInf.distance(&gf.output, &gc.output);
        assert!(err < 1e-5, "storage modes disagree by {err}");
        // but the CSR run has nnz extra injectable sites
        assert!(
            gc.n_sites() > gf.n_sites(),
            "assembled mode should expose matrix-entry sites"
        );
    }

    #[test]
    fn corrupting_a_matrix_entry_perturbs_the_solution() {
        let k = CgKernel::new(CgConfig {
            storage: CgStorage::AssembledCsr,
            ..CgConfig::small()
        });
        let g = k.golden();
        let n = k.n_unknowns();
        // matrix sites follow the n zero-init sites; sign-flip a diagonal
        // entry (value 4.0 -> -4.0): the operator changes, so the solve
        // lands somewhere else entirely
        let site = (n..g.n_sites())
            .find(|&s| g.static_id(s) == sid::INIT_MAT && g.values[s] == 4.0)
            .expect("no diagonal matrix site found");
        let r = k.run_injected(FaultSpec { site, bit: 31 }, RecordMode::OutputOnly);
        let d = Norm::LInf.distance(&g.output, &r.output);
        assert!(d > 1e-3, "matrix corruption should show, got {d}");
    }

    #[test]
    fn scaling_config_grows_sites() {
        let small = CgKernel::new(CgConfig {
            grid: 6,
            ..CgConfig::small()
        });
        let large = CgKernel::new(CgConfig {
            grid: 12,
            ..CgConfig::small()
        });
        assert!(large.estimated_sites() > 3 * small.estimated_sites());
    }
}
