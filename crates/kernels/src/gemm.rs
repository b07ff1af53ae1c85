//! Dense matrix-matrix product (`C = A·B`).
//!
//! Rounds out the §5 family ("sparse or dense matrix multiplication can be
//! proven to have such a property"): an error in one element of `A` or `B`
//! perturbs a single row/column of `C` linearly. Also serves as an extra
//! workload for the campaign and boundary machinery beyond the paper's
//! three evaluation kernels.

use crate::inputs::uniform_vec;
use crate::{load, resume_or_init, BatchBoundary, Kernel, KernelState};
use ftb_trace::{broadcast_soa, BatchTracer, OpKind, Precision, StaticRegistry, Tracer};
use serde::{Deserialize, Serialize};

ftb_trace::static_instrs! {
    pub mod sid {
        INIT_A => ("gemm.init.a", Init),
        INIT_B => ("gemm.init.b", Init),
        CELL   => ("gemm.cell", Compute),
    }
}

/// Configuration of the GEMM kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmConfig {
    /// Matrices are `n × n`.
    pub n: usize,
    /// Element precision.
    pub precision: Precision,
    /// Input seed.
    pub seed: u64,
}

impl GemmConfig {
    /// Check the configuration describes a buildable kernel; the
    /// constructor panics with this message otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("GEMM needs n >= 1".into());
        }
        Ok(())
    }

    /// Laptop-scale default: 12×12.
    pub fn small() -> Self {
        GemmConfig {
            n: 12,
            precision: Precision::F64,
            seed: 42,
        }
    }
}

/// The instrumented GEMM kernel.
#[derive(Debug, Clone)]
pub struct GemmKernel {
    cfg: GemmConfig,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl GemmKernel {
    /// Build the kernel with random `A` and `B`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`GemmConfig::validate`]).
    pub fn new(cfg: GemmConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let a = uniform_vec(cfg.seed, cfg.n * cfg.n, -1.0, 1.0);
        let b = uniform_vec(cfg.seed.wrapping_add(1), cfg.n * cfg.n, -1.0, 1.0);
        GemmKernel { cfg, a, b }
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &GemmConfig {
        &self.cfg
    }

    /// The one scalar body; `DDG` compiles in the operand-provenance
    /// bookkeeping. Starts from the tracer's resume state when one is
    /// set.
    fn body<const DDG: bool>(&self, t: &mut Tracer) -> Vec<f64> {
        // INIT_A occupies sites [0, n²), INIT_B sites [n², 2n²) —
        // recorded explicitly rather than assumed
        let (mut def_a, mut def_b) = (Vec::new(), Vec::new());
        // the traced copies of `A` and `B` and a zeroed `C`, in state
        // order `[a, b, c]`
        let init = |t: &mut Tracer| {
            let a = load::<DDG>(t, sid::INIT_A, &self.a, &mut def_a);
            let b = load::<DDG>(t, sid::INIT_B, &self.b, &mut def_b);
            [a, b, vec![0.0; self.cfg.n * self.cfg.n]]
        };
        let (start, [a, b, mut c]) = match resume_or_init(t, init) {
            Ok(started) => started,
            Err([_, _, c]) => return c,
        };
        self.cell_rows::<DDG>(t, start, &a, &b, &mut c, &def_a, &def_b);
        c
    }

    /// The CELL rows from `start_row` onward, whether the run started
    /// from scratch or from a resume state. Reports `[a, b, c]` to
    /// [`Tracer::boundary`] after every row but the last and stops when
    /// it answers `true`.
    // kept out of line, like `LuKernel::block_steps`, so its loops are
    // register-allocated on their own
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn cell_rows<const DDG: bool>(
        &self,
        t: &mut Tracer,
        start_row: usize,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        def_a: &[usize],
        def_b: &[usize],
    ) {
        let n = self.cfg.n;
        for i in start_row..n {
            for j in 0..n {
                if DDG {
                    // c_ij = Σ_k a_ik b_kj: |∂c/∂a_ik| = |b_kj| and
                    // vice versa, exact for one perturbed operand
                    for k in 0..n {
                        t.dep(def_a[i * n + k], OpKind::Scale(b[k * n + j]));
                        t.dep(def_b[k * n + j], OpKind::Scale(a[i * n + k]));
                    }
                }
                let mut s = 0.0;
                for k in 0..n {
                    s += a[i * n + k] * b[k * n + j];
                }
                let def = t.cursor();
                c[i * n + j] = t.value(sid::CELL, s);
                if DDG {
                    t.out_dep(def, 1.0);
                }
            }
            if i + 1 < n && t.boundary((i + 1) as u64, &[a, b, c]) {
                return;
            }
        }
    }
}

impl Kernel for GemmKernel {
    fn name(&self) -> &'static str {
        "gemm"
    }

    fn precision(&self) -> Precision {
        self.cfg.precision
    }

    fn registry(&self) -> StaticRegistry {
        sid::registry()
    }

    fn estimated_sites(&self) -> usize {
        3 * self.cfg.n * self.cfg.n
    }

    fn snapshot_capable(&self) -> bool {
        true
    }

    fn batch_capable(&self) -> bool {
        true
    }

    fn batch_laned_arrays(&self) -> &'static [bool] {
        // a and b are read-only after init; only c is written
        &[false, false, true]
    }

    /// The lane-batched row loop. `a` and `b` are shared and `c` is
    /// never read back, so the cell value `s` is computed once and
    /// broadcast — lanes diverge only through the tracer (quantisation,
    /// the flip, the non-finite trap). `trap_break` is `false`: the
    /// scalar body's row loop (`GemmKernel::cell_rows`, whose
    /// `DDG = false` instance injection runs) has no
    /// `Tracer::should_stop` break, so trapped lanes run to completion
    /// exactly as scalar runs do.
    fn run_batch_resumed(
        &self,
        bt: &mut BatchTracer,
        state: &KernelState,
        monitor: BatchBoundary<'_>,
    ) -> Vec<f64> {
        assert_eq!(state.arrays.len(), 3, "gemm state is [a, b, c]");
        let n = self.cfg.n;
        let a = &state.arrays[0];
        let b = &state.arrays[1];
        let lanes0 = bt.lanes();
        let mut c = broadcast_soa(&state.arrays[2], lanes0);
        let mut row = vec![0.0; lanes0];
        for i in (state.step as usize)..n {
            let lanes = bt.lanes();
            if lanes == 0 {
                break;
            }
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a[i * n + k] * b[k * n + j];
                }
                let rowv = &mut row[..lanes];
                rowv.fill(s);
                bt.row(rowv);
                c[(i * n + j) * lanes..(i * n + j) * lanes + lanes].copy_from_slice(rowv);
            }
            if i + 1 < n {
                let mut laned: [&mut Vec<f64>; 1] = [&mut c];
                if monitor(bt, (i + 1) as u64, false, &mut laned) {
                    break;
                }
            }
        }
        c
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
    use ftb_trace::{FaultSpec, RecordMode};

    #[test]
    fn output_matches_direct_product() {
        let k = GemmKernel::new(GemmConfig::small());
        let g = k.golden();
        let n = k.config().n;
        for i in 0..n {
            for j in 0..n {
                let expect: f64 = (0..n).map(|x| k.a[i * n + x] * k.b[x * n + j]).sum();
                assert!((g.output[i * n + j] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn corrupting_a_element_touches_one_row_of_c() {
        let k = GemmKernel::new(GemmConfig::small());
        let g = k.golden();
        let n = k.config().n;
        // flip sign of A[2][5] (init site 2*n+5)
        let site = 2 * n + 5;
        let r = k.run_injected(FaultSpec { site, bit: 63 }, RecordMode::OutputOnly);
        for i in 0..n {
            for j in 0..n {
                let changed = (g.output[i * n + j] - r.output[i * n + j]).abs() > 1e-12;
                assert_eq!(changed, i == 2, "C[{i}][{j}] change pattern wrong");
            }
        }
    }

    #[test]
    fn estimated_sites_is_exact() {
        let k = GemmKernel::new(GemmConfig::small());
        assert_eq!(k.estimated_sites(), k.golden().n_sites());
    }
}
