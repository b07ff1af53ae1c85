//! Sparse matrix-vector product (`y = A·x`, CSR).
//!
//! Completes the §5 monotonicity family: "sparse or dense matrix
//! multiplication can be proven to have such a property". An error in
//! `x[k]` perturbs the output by `‖A[:,k]‖₂ · ε` under the L2 norm, with
//! the column now *sparse* — so the propagation constant is exactly
//! computable and small, and corrupting `x[k]` touches only the rows
//! whose stencil references cell `k`.

use crate::csr::Csr;
use crate::inputs::uniform_vec;
use crate::{load, Kernel};
use ftb_trace::{Fnv1a, Precision, StaticRegistry, Tracer};
use serde::{Deserialize, Serialize};

ftb_trace::static_instrs! {
    pub mod sid {
        INIT_A => ("spmv.init.a", Init),
        INIT_X => ("spmv.init.x", Init),
        ROW    => ("spmv.row", Compute),
    }
}

/// Configuration of the sparse matvec kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpmvConfig {
    /// The operator is the 2-D Poisson matrix on a `grid × grid` mesh.
    pub grid: usize,
    /// Element precision.
    pub precision: Precision,
    /// Input seed.
    pub seed: u64,
}

impl SpmvConfig {
    /// Check the configuration describes a buildable kernel; the
    /// constructor panics with this message otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.grid == 0 {
            return Err("SpMV needs grid >= 1".into());
        }
        Ok(())
    }

    /// Laptop-scale default: 10×10 mesh (100×100 matrix, 460 nnz).
    pub fn small() -> Self {
        SpmvConfig {
            grid: 10,
            precision: Precision::F64,
            seed: 42,
        }
    }
}

/// The instrumented sparse matvec kernel.
#[derive(Debug, Clone)]
pub struct SpmvKernel {
    cfg: SpmvConfig,
    matrix: Csr,
    x: Vec<f64>,
}

impl SpmvKernel {
    /// Build the kernel.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`SpmvConfig::validate`]).
    pub fn new(cfg: SpmvConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let matrix = Csr::poisson_2d(cfg.grid);
        let x = uniform_vec(cfg.seed, matrix.n_cols(), -1.0, 1.0);
        SpmvKernel { cfg, matrix, x }
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &SpmvConfig {
        &self.cfg
    }

    /// Dynamic-instruction index of the `x[k]` init store.
    pub fn x_site(&self, k: usize) -> usize {
        self.matrix.nnz() + k
    }

    /// Closed-form §5 propagation constant for an error in `x[k]` under
    /// the L2 output norm: the sparse column norm `‖A[:,k]‖₂`.
    pub fn l2_constant(&self, k: usize) -> f64 {
        let mut s = 0.0;
        for r in 0..self.matrix.n_rows() {
            for (c, v) in self.matrix.row(r) {
                if c == k {
                    s += v * v;
                }
            }
        }
        s.sqrt()
    }

    /// The one scalar body; `DDG` compiles in the operand-provenance
    /// bookkeeping: the init def sites here, the per-entry product
    /// secants in [`Csr::spmv_traced`], and one sink per output row.
    fn body<const DDG: bool>(&self, t: &mut Tracer) -> Vec<f64> {
        let n = self.matrix.n_rows();
        // Init: matrix entries, then the input vector.
        let (mut def_a, mut def_x) = (Vec::new(), Vec::new());
        let avals = load::<DDG>(t, sid::INIT_A, self.matrix.values(), &mut def_a);
        let x = load::<DDG>(t, sid::INIT_X, &self.x, &mut def_x);
        // Compute: one store per output row.
        let mut def_y = vec![0usize; if DDG { n } else { 0 }];
        let mut y = vec![0.0; n];
        self.matrix
            .spmv_traced::<DDG>(t, sid::ROW, &avals, &def_a, &x, &def_x, &mut y, &mut def_y);
        if DDG {
            for d in def_y {
                t.out_dep(d, 1.0);
            }
        }
        y
    }
}

impl Kernel for SpmvKernel {
    fn name(&self) -> &'static str {
        "spmv"
    }

    fn precision(&self) -> Precision {
        self.cfg.precision
    }

    fn registry(&self) -> StaticRegistry {
        sid::registry()
    }

    fn estimated_sites(&self) -> usize {
        self.matrix.nnz() + 2 * self.matrix.n_rows()
    }

    fn code_version(&self, _lo: usize, _hi: usize) -> u64 {
        // the mesh size shapes the sparsity pattern (and thus the
        // instruction stream); the seed only changes input values
        let mut h = Fnv1a::new();
        h.write(b"spmv/csr-poisson/v1");
        h.write_u64(self.cfg.grid as u64);
        h.finish()
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
    use ftb_trace::{injected_error, FaultSpec, RecordMode};

    #[test]
    fn output_matches_untraced_spmv() {
        let k = SpmvKernel::new(SpmvConfig::small());
        let g = k.golden();
        let mut y = vec![0.0; k.matrix.n_rows()];
        k.matrix.spmv(&k.x, &mut y);
        assert_eq!(g.output, y);
    }

    #[test]
    fn closed_form_constant_matches_measurement() {
        let k = SpmvKernel::new(SpmvConfig::small());
        let g = k.golden();
        let col = 37;
        let site = k.x_site(col);
        let bit = 45;
        let r = k.run_injected(FaultSpec { site, bit }, RecordMode::OutputOnly);
        let eps = injected_error(Precision::F64, g.value(site), bit);
        let measured = Norm::L2.distance(&g.output, &r.output);
        let predicted = k.l2_constant(col) * eps;
        assert!(
            (measured - predicted).abs() / predicted < 1e-3,
            "measured {measured} vs closed form {predicted}"
        );
    }

    #[test]
    fn corrupting_x_touches_only_stencil_neighbours() {
        let k = SpmvKernel::new(SpmvConfig::small());
        let g = k.golden();
        let col = 55; // interior cell
        let r = k.run_injected(
            FaultSpec {
                site: k.x_site(col),
                bit: 62,
            },
            RecordMode::OutputOnly,
        );
        let touched: Vec<usize> = g
            .output
            .iter()
            .zip(&r.output)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        // a 5-point interior column touches exactly 5 rows
        assert_eq!(touched.len(), 5, "touched rows {touched:?}");
        assert!(touched.contains(&col));
    }

    #[test]
    fn provenance_mode_matches_plain_golden() {
        let k = SpmvKernel::new(SpmvConfig::small());
        let plain = k.golden();
        let (with_ddg, ddg) = k.golden_with_ddg();
        assert_eq!(plain, with_ddg);
        assert_eq!(plain.output, with_ddg.output);
        assert!(ddg.is_instrumented());
        assert_eq!(ddg.out_sinks.len(), k.matrix.n_rows());
    }

    #[test]
    fn poisson_column_norm_is_sqrt_20_for_interior() {
        // interior column: diag 4 plus four −1 neighbours => sqrt(16+4)
        let k = SpmvKernel::new(SpmvConfig::small());
        let c = k.l2_constant(55);
        assert!((c - 20.0f64.sqrt()).abs() < 1e-12);
    }
}
