//! Blocked dense LU factorization, SPLASH-2 style.
//!
//! The SPLASH-2 `lu` benchmark factors a dense, diagonally dominant
//! matrix without pivoting, processing it in square blocks: factor the
//! diagonal block, update the row and column panels, then update the
//! trailing submatrix. The paper factors a 32×32 matrix in 16×16 blocks
//! and observes (its Figure 4) that each block step opens a region into
//! which earlier errors do not propagate — our default configuration uses
//! four block steps so that structure is visible at laptop scale.
//!
//! Every store to the matrix is a dynamic instruction; the output is the
//! packed `L\U` factorization itself, so most significant perturbations
//! are *not* masked — this is why LU has by far the highest SDC ratio of
//! the paper's three benchmarks (35.9% in its Table 1).

use crate::inputs::diag_dominant_matrix;
use crate::{load, resume_or_init, BatchBoundary, Kernel, KernelState};
use ftb_trace::{broadcast_soa, BatchTracer, Fnv1a, OpKind, Precision, StaticRegistry, Tracer};
use serde::{Deserialize, Serialize};

ftb_trace::static_instrs! {
    pub mod sid {
        INIT_A  => ("lu.init.a", Init),
        // phase head: every re-entry into the diagonal scale loop (from
        // the previous k-step's updates or the previous block's trailing
        // update) opens a new section — `coalesce` merges these k-step
        // sections up to block granularity for compositional analysis
        DIAG_L  => ("lu.diag.scale", Compute, phase),
        DIAG_U  => ("lu.diag.update", Compute),
        COL_L   => ("lu.colpanel.scale", Compute),
        COL_U   => ("lu.colpanel.update", Compute),
        ROW_U   => ("lu.rowpanel.update", Compute),
        TRAIL   => ("lu.trailing.update", Compute),
    }
}

/// Configuration of the blocked LU kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LuConfig {
    /// Matrix dimension (`n × n`).
    pub n: usize,
    /// Square block size; must divide `n`.
    pub block: usize,
    /// Element precision.
    pub precision: Precision,
    /// Input seed.
    pub seed: u64,
}

impl LuConfig {
    /// Check the configuration describes a buildable kernel; the
    /// constructor panics with this message otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 || self.block == 0 {
            return Err("LU needs n >= 1 and block >= 1".into());
        }
        if self.n % self.block != 0 {
            return Err(format!("LU block {} must divide n {}", self.block, self.n));
        }
        Ok(())
    }

    /// Laptop-scale default: 16×16 matrix in 4×4 blocks (four block steps,
    /// matching the four-region structure of the paper's Figure 4).
    pub fn small() -> Self {
        LuConfig {
            n: 16,
            block: 4,
            precision: Precision::F64,
            seed: 42,
        }
    }

    /// The paper's SPLASH-2 configuration: 32×32 matrix, 16×16 blocks.
    pub fn paper() -> Self {
        LuConfig {
            n: 32,
            block: 16,
            precision: Precision::F64,
            seed: 42,
        }
    }
}

/// The instrumented blocked LU kernel.
#[derive(Debug, Clone)]
pub struct LuKernel {
    cfg: LuConfig,
    a0: Vec<f64>,
    sites_hint: usize,
}

impl LuKernel {
    /// Build the kernel; generates the diagonally dominant input matrix.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`LuConfig::validate`]).
    pub fn new(cfg: LuConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let a0 = diag_dominant_matrix(cfg.seed, cfg.n);
        let mut k = LuKernel {
            cfg,
            a0,
            sites_hint: 0,
        };
        let mut t = Tracer::untraced(k.cfg.precision);
        let _ = k.run(&mut t);
        k.sites_hint = t.cursor();
        k
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &LuConfig {
        &self.cfg
    }

    /// The one scalar body; `DDG` compiles in the operand-provenance
    /// bookkeeping. Starts from the tracer's resume state when one is
    /// set.
    ///
    /// Provenance: `def[idx]` is the dynamic instruction that last
    /// defined `a[idx]`; every store records its operands' secant
    /// amplifications before the defining `t.value`. The divisions use
    /// DivNum/DivDen (the denominator path carries the |den|/2
    /// perturbation cap), everything else is Add/Scale with signed
    /// coefficients (the updates subtract their products).
    fn body<const DDG: bool>(&self, t: &mut Tracer) -> Vec<f64> {
        let mut def = Vec::new();
        let init = |t: &mut Tracer| [load::<DDG>(t, sid::INIT_A, &self.a0, &mut def)];
        let (start, [mut a]) = match resume_or_init(t, init) {
            Ok(started) => started,
            Err([a]) => return a,
        };
        self.block_steps::<DDG>(t, start, &mut a, &mut def);
        // The output is the packed L\U factorization itself: every
        // element's final definition reaches the output with
        // amplification 1.
        if DDG {
            for &d in &def {
                t.out_dep(d, 1.0);
            }
        }
        a
    }

    /// The block steps from `start_block` onward, whether the run started
    /// from scratch or from a resume state. Each step opens at the
    /// `lu.diag.scale` section boundary of its k-range. `[a]` is reported
    /// to [`Tracer::boundary`] at the bottom of every block step but the
    /// last, after the trap check; an answer of `true` stops the loop.
    // kept out of line so its loops are register-allocated on their own
    // (inlined into `run` next to another copy of the loops, from-scratch
    // runs of LU n=48 measured about 15% slower)
    #[inline(never)]
    fn block_steps<const DDG: bool>(
        &self,
        t: &mut Tracer,
        start_block: usize,
        a: &mut [f64],
        def: &mut [usize],
    ) {
        let n = self.cfg.n;
        let nb = self.cfg.block;
        let nblocks = n / nb;
        for blk in start_block..nblocks {
            let k0 = blk * nb;
            let kend = k0 + nb;

            // 1. Factor the diagonal block A[k0..kend, k0..kend].
            for k in k0..kend {
                let pivot = a[k * n + k];
                for i in (k + 1)..kend {
                    let num = a[i * n + k];
                    if DDG {
                        t.dep(def[i * n + k], OpKind::DivNum(pivot));
                        t.dep(def[k * n + k], OpKind::DivDen { num, den: pivot });
                        def[i * n + k] = t.cursor();
                    }
                    a[i * n + k] = t.value(sid::DIAG_L, num / pivot);
                }
                for i in (k + 1)..kend {
                    let lik = a[i * n + k];
                    for j in (k + 1)..kend {
                        if DDG {
                            // a_ij ← a_ij − l_ik·a_kj: the product
                            // operands enter with negative derivative
                            t.dep(def[i * n + j], OpKind::Add);
                            t.dep(def[i * n + k], OpKind::Scale(-a[k * n + j]));
                            t.dep(def[k * n + j], OpKind::Scale(-lik));
                            def[i * n + j] = t.cursor();
                        }
                        a[i * n + j] = t.value(sid::DIAG_U, a[i * n + j] - lik * a[k * n + j]);
                    }
                }
            }

            // 2. Column panel: rows below the diagonal block.
            for k in k0..kend {
                let pivot = a[k * n + k];
                for i in kend..n {
                    let num = a[i * n + k];
                    if DDG {
                        t.dep(def[i * n + k], OpKind::DivNum(pivot));
                        t.dep(def[k * n + k], OpKind::DivDen { num, den: pivot });
                        def[i * n + k] = t.cursor();
                    }
                    a[i * n + k] = t.value(sid::COL_L, num / pivot);
                }
                for i in kend..n {
                    let lik = a[i * n + k];
                    for j in (k + 1)..kend {
                        if DDG {
                            t.dep(def[i * n + j], OpKind::Add);
                            t.dep(def[i * n + k], OpKind::Scale(-a[k * n + j]));
                            t.dep(def[k * n + j], OpKind::Scale(-lik));
                            def[i * n + j] = t.cursor();
                        }
                        a[i * n + j] = t.value(sid::COL_U, a[i * n + j] - lik * a[k * n + j]);
                    }
                }
            }

            // 3. Row panel: columns right of the diagonal block
            //    (forward-substitute L of the diagonal block through them).
            for k in k0..kend {
                for i in (k + 1)..kend {
                    let lik = a[i * n + k];
                    for j in kend..n {
                        if DDG {
                            t.dep(def[i * n + j], OpKind::Add);
                            t.dep(def[i * n + k], OpKind::Scale(-a[k * n + j]));
                            t.dep(def[k * n + j], OpKind::Scale(-lik));
                            def[i * n + j] = t.cursor();
                        }
                        a[i * n + j] = t.value(sid::ROW_U, a[i * n + j] - lik * a[k * n + j]);
                    }
                }
            }

            // 4. Trailing submatrix update: one store per element, inner
            //    accumulation in registers (a GEMM tile). Provenance: Add
            //    in the accumulator, negated Scale in each subtracted
            //    product operand.
            for i in kend..n {
                for j in kend..n {
                    if DDG {
                        t.dep(def[i * n + j], OpKind::Add);
                    }
                    let mut s = a[i * n + j];
                    for k in k0..kend {
                        if DDG {
                            t.dep(def[i * n + k], OpKind::Scale(-a[k * n + j]));
                            t.dep(def[k * n + j], OpKind::Scale(-a[i * n + k]));
                        }
                        s -= a[i * n + k] * a[k * n + j];
                    }
                    if DDG {
                        def[i * n + j] = t.cursor();
                    }
                    a[i * n + j] = t.value(sid::TRAIL, s);
                }
            }

            if t.should_stop() {
                break;
            }
            if blk + 1 < nblocks && t.boundary((blk + 1) as u64, &[a]) {
                break;
            }
        }
    }
}

impl Kernel for LuKernel {
    fn name(&self) -> &'static str {
        "lu"
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

    fn code_version(&self, _lo: usize, _hi: usize) -> u64 {
        // structural stamp: seeds change values, not code; n and block
        // change which instruction stream a section covers
        let mut h = Fnv1a::new();
        h.write(b"lu/blocked-right-looking/v1");
        h.write_u64(self.cfg.n as u64);
        h.write_u64(self.cfg.block as u64);
        h.finish()
    }

    fn snapshot_capable(&self) -> bool {
        true
    }

    fn batch_capable(&self) -> bool {
        true
    }

    fn batch_laned_arrays(&self) -> &'static [bool] {
        // the packed factorization is rewritten in place throughout
        &[true]
    }

    /// The lane-batched block-step loop: the whole matrix is laned (every
    /// element is both read and rewritten), and each lane's operation
    /// sequence mirrors the scalar body's `LuKernel::block_steps`
    /// exactly — the hoisted
    /// `pivot`/`lik` reads are loop-invariant there, so re-reading them
    /// per store produces the same values. `trap_break` is `true`: the
    /// scalar loop breaks on `Tracer::should_stop` at every block bottom.
    fn run_batch_resumed(
        &self,
        bt: &mut BatchTracer,
        state: &KernelState,
        monitor: BatchBoundary<'_>,
    ) -> Vec<f64> {
        assert_eq!(state.arrays.len(), 1, "lu state is [a]");
        let n = self.cfg.n;
        let nb = self.cfg.block;
        let nblocks = n / nb;
        let lanes0 = bt.lanes();
        let mut a = broadcast_soa(&state.arrays[0], lanes0);
        let mut row = vec![0.0; lanes0];
        for blk in (state.step as usize)..nblocks {
            let lanes = bt.lanes();
            if lanes == 0 {
                break;
            }
            let k0 = blk * nb;
            let kend = k0 + nb;

            for k in k0..kend {
                for i in (k + 1)..kend {
                    let rowv = &mut row[..lanes];
                    for l in 0..lanes {
                        rowv[l] = a[(i * n + k) * lanes + l] / a[(k * n + k) * lanes + l];
                    }
                    bt.row(rowv);
                    a[(i * n + k) * lanes..(i * n + k) * lanes + lanes].copy_from_slice(rowv);
                }
                for i in (k + 1)..kend {
                    for j in (k + 1)..kend {
                        let rowv = &mut row[..lanes];
                        for l in 0..lanes {
                            rowv[l] = a[(i * n + j) * lanes + l]
                                - a[(i * n + k) * lanes + l] * a[(k * n + j) * lanes + l];
                        }
                        bt.row(rowv);
                        a[(i * n + j) * lanes..(i * n + j) * lanes + lanes].copy_from_slice(rowv);
                    }
                }
            }

            for k in k0..kend {
                for i in kend..n {
                    let rowv = &mut row[..lanes];
                    for l in 0..lanes {
                        rowv[l] = a[(i * n + k) * lanes + l] / a[(k * n + k) * lanes + l];
                    }
                    bt.row(rowv);
                    a[(i * n + k) * lanes..(i * n + k) * lanes + lanes].copy_from_slice(rowv);
                }
                for i in kend..n {
                    for j in (k + 1)..kend {
                        let rowv = &mut row[..lanes];
                        for l in 0..lanes {
                            rowv[l] = a[(i * n + j) * lanes + l]
                                - a[(i * n + k) * lanes + l] * a[(k * n + j) * lanes + l];
                        }
                        bt.row(rowv);
                        a[(i * n + j) * lanes..(i * n + j) * lanes + lanes].copy_from_slice(rowv);
                    }
                }
            }

            for k in k0..kend {
                for i in (k + 1)..kend {
                    for j in kend..n {
                        let rowv = &mut row[..lanes];
                        for l in 0..lanes {
                            rowv[l] = a[(i * n + j) * lanes + l]
                                - a[(i * n + k) * lanes + l] * a[(k * n + j) * lanes + l];
                        }
                        bt.row(rowv);
                        a[(i * n + j) * lanes..(i * n + j) * lanes + lanes].copy_from_slice(rowv);
                    }
                }
            }

            for i in kend..n {
                for j in kend..n {
                    let rowv = &mut row[..lanes];
                    rowv.copy_from_slice(&a[(i * n + j) * lanes..(i * n + j) * lanes + lanes]);
                    for k in k0..kend {
                        for l in 0..lanes {
                            rowv[l] -= a[(i * n + k) * lanes + l] * a[(k * n + j) * lanes + l];
                        }
                    }
                    bt.row(rowv);
                    a[(i * n + j) * lanes..(i * n + j) * lanes + lanes].copy_from_slice(rowv);
                }
            }

            if blk + 1 < nblocks {
                let mut laned: [&mut Vec<f64>; 1] = [&mut a];
                if monitor(bt, (blk + 1) as u64, true, &mut laned) {
                    break;
                }
            }
        }
        a
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

    /// Multiply the packed factors back together: (L with unit diagonal) · U.
    fn reassemble(lu: &[f64], n: usize) -> Vec<f64> {
        let mut m = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu[i * n + k] };
                    s += l * lu[k * n + j];
                }
                m[i * n + j] = s;
            }
        }
        m
    }

    #[test]
    fn factorization_reassembles_to_input() {
        let k = LuKernel::new(LuConfig::small());
        let g = k.golden();
        let n = k.config().n;
        let back = reassemble(&g.output, n);
        let err = Norm::LInf.distance(&back, &k.a0);
        assert!(err < 1e-9, "L·U != A, L∞ error {err}");
    }

    #[test]
    fn blocked_matches_unblocked() {
        let small = LuConfig {
            n: 12,
            block: 12,
            ..LuConfig::small()
        };
        let blocked = LuConfig {
            n: 12,
            block: 4,
            ..LuConfig::small()
        };
        let a = LuKernel::new(small).golden().output;
        let b = LuKernel::new(blocked).golden().output;
        let err = Norm::LInf.distance(&a, &b);
        assert!(
            err < 1e-10,
            "blocked and unblocked factorizations differ by {err}"
        );
    }

    #[test]
    fn init_region_leads_the_trace() {
        let k = LuKernel::new(LuConfig::small());
        let g = k.golden();
        let n2 = k.config().n * k.config().n;
        for i in 0..n2 {
            assert_eq!(g.static_id(i), sid::INIT_A);
        }
        assert_ne!(g.static_id(n2), sid::INIT_A);
    }

    #[test]
    fn sign_flip_in_factor_region_corrupts_output() {
        let k = LuKernel::new(LuConfig::small());
        let g = k.golden();
        let n2 = k.config().n * k.config().n;
        let r = k.run_injected(
            FaultSpec {
                site: n2 + 1,
                bit: 63,
            },
            RecordMode::OutputOnly,
        );
        let d = Norm::LInf.distance(&g.output, &r.output);
        assert!(d > 1e-3, "sign flip in factorization should show, got {d}");
    }

    #[test]
    fn low_bit_flip_is_small_in_output() {
        let k = LuKernel::new(LuConfig::small());
        let g = k.golden();
        let r = k.run_injected(FaultSpec { site: 10, bit: 0 }, RecordMode::OutputOnly);
        let d = Norm::LInf.distance(&g.output, &r.output);
        assert!(d < 1e-8, "ulp flip should stay tiny, got {d}");
    }

    #[test]
    fn no_branches_in_lu() {
        // LU control flow is data-independent: propagation windows never
        // truncate.
        let k = LuKernel::new(LuConfig::small());
        let g = k.golden();
        assert!(g.branches.is_empty());
    }

    #[test]
    fn provenance_mode_matches_plain_golden() {
        let k = LuKernel::new(LuConfig::small());
        let plain = k.golden();
        let (with_ddg, ddg) = k.golden_with_ddg();
        assert_eq!(plain.values, with_ddg.values);
        assert_eq!(plain.output, with_ddg.output);
        assert!(ddg.is_instrumented(), "LU must record output sinks");
    }

    #[test]
    fn every_output_element_has_an_out_sink() {
        let k = LuKernel::new(LuConfig::small());
        let (_, ddg) = k.golden_with_ddg();
        let n2 = k.config().n * k.config().n;
        assert_eq!(ddg.out_sinks.len(), n2);
    }

    #[test]
    fn code_version_tracks_structure_not_seed() {
        let base = LuKernel::new(LuConfig::small());
        let reseeded = LuKernel::new(LuConfig {
            seed: 7,
            ..LuConfig::small()
        });
        let reblocked = LuKernel::new(LuConfig {
            block: 8,
            ..LuConfig::small()
        });
        assert_eq!(base.code_version(0, 10), reseeded.code_version(0, 10));
        assert_ne!(base.code_version(0, 10), reblocked.code_version(0, 10));
    }

    #[test]
    #[should_panic]
    fn block_must_divide_n() {
        let _ = LuKernel::new(LuConfig {
            n: 10,
            block: 4,
            ..LuConfig::small()
        });
    }
}
