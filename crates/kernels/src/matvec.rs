//! Dense matrix-vector product.
//!
//! The second §5 monotonicity example: one output element of `y = A·x` is
//! `Σ_j a_{ij} x_j`, so an error `ε` in `x_k` produces output error
//! `f(ε) = sqrt(Σ_i a_{ik}²) · ε` under the L2 norm — linear in `ε`.
//! The `monotonicity` bench verifies the measured constant against that
//! closed form.

use crate::inputs::uniform_vec;
use crate::{load, Kernel};
use ftb_trace::{Fnv1a, OpKind, Precision, StaticRegistry, Tracer};
use serde::{Deserialize, Serialize};

ftb_trace::static_instrs! {
    pub mod sid {
        INIT_A => ("matvec.init.a", Init),
        INIT_X => ("matvec.init.x", Init),
        ROW    => ("matvec.row", Compute),
    }
}

/// Configuration of the matvec kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatvecConfig {
    /// Matrix dimension (`n × n`).
    pub n: usize,
    /// Element precision.
    pub precision: Precision,
    /// Input seed.
    pub seed: u64,
}

impl MatvecConfig {
    /// Check the configuration describes a buildable kernel; the
    /// constructor panics with this message otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("matvec needs n >= 1".into());
        }
        Ok(())
    }

    /// Laptop-scale default: 24×24.
    pub fn small() -> Self {
        MatvecConfig {
            n: 24,
            precision: Precision::F64,
            seed: 42,
        }
    }
}

/// The instrumented matvec kernel.
#[derive(Debug, Clone)]
pub struct MatvecKernel {
    cfg: MatvecConfig,
    a: Vec<f64>,
    x: Vec<f64>,
}

impl MatvecKernel {
    /// Build the kernel with random `A` and `x`.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`MatvecConfig::validate`]).
    pub fn new(cfg: MatvecConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let a = uniform_vec(cfg.seed, cfg.n * cfg.n, -1.0, 1.0);
        let x = uniform_vec(cfg.seed.wrapping_add(1), cfg.n, -1.0, 1.0);
        MatvecKernel { cfg, a, x }
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &MatvecConfig {
        &self.cfg
    }

    /// Dynamic-instruction index of the `x[k]` init store (for targeted
    /// monotonicity experiments).
    pub fn x_site(&self, k: usize) -> usize {
        self.cfg.n * self.cfg.n + k
    }

    /// The closed-form §5 propagation constant for an error in `x[k]`
    /// under the L2 output norm: `sqrt(Σ_i a_{ik}²)`.
    pub fn l2_constant(&self, k: usize) -> f64 {
        let n = self.cfg.n;
        (0..n)
            .map(|i| self.a[i * n + k] * self.a[i * n + k])
            .sum::<f64>()
            .sqrt()
    }

    /// The one scalar body; `DDG` compiles in the operand-provenance
    /// bookkeeping. `y_i = Σ_j a_ij x_j`, so `|∂y_i/∂a_ij| = |x_j|` and
    /// `|∂y_i/∂x_j| = |a_ij|` — exact for one perturbed operand.
    fn body<const DDG: bool>(&self, t: &mut Tracer) -> Vec<f64> {
        let n = self.cfg.n;
        let (mut def_a, mut def_x) = (Vec::new(), Vec::new());
        let a = load::<DDG>(t, sid::INIT_A, &self.a, &mut def_a);
        let x = load::<DDG>(t, sid::INIT_X, &self.x, &mut def_x);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = 0.0;
            for j in 0..n {
                if DDG {
                    t.dep(def_a[i * n + j], OpKind::Scale(x[j]));
                    t.dep(def_x[j], OpKind::Scale(a[i * n + j]));
                }
                s += a[i * n + j] * x[j];
            }
            let def = t.cursor();
            y[i] = t.value(sid::ROW, s);
            if DDG {
                t.out_dep(def, 1.0);
            }
        }
        y
    }
}

impl Kernel for MatvecKernel {
    fn name(&self) -> &'static str {
        "matvec"
    }

    fn precision(&self) -> Precision {
        self.cfg.precision
    }

    fn registry(&self) -> StaticRegistry {
        sid::registry()
    }

    fn estimated_sites(&self) -> usize {
        self.cfg.n * self.cfg.n + 2 * self.cfg.n
    }

    fn code_version(&self, _lo: usize, _hi: usize) -> u64 {
        let mut h = Fnv1a::new();
        h.write(b"matvec/dense/v1");
        h.write_u64(self.cfg.n as u64);
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
    use ftb_trace::{FaultSpec, RecordMode};

    #[test]
    fn output_matches_direct_product() {
        let k = MatvecKernel::new(MatvecConfig::small());
        let g = k.golden();
        let n = k.config().n;
        for i in 0..n {
            let expect: f64 = (0..n).map(|j| k.a[i * n + j] * k.x[j]).sum();
            assert!((g.output[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn x_site_indexing() {
        let k = MatvecKernel::new(MatvecConfig::small());
        let g = k.golden();
        for j in [0, 5, k.config().n - 1] {
            assert_eq!(g.static_id(k.x_site(j)), sid::INIT_X);
            assert!((g.value(k.x_site(j)) - k.x[j]).abs() < 1e-15);
        }
    }

    #[test]
    fn closed_form_constant_matches_measurement() {
        // the heart of the §5 argument: measured f(ε)/ε equals the column
        // norm sqrt(Σ a_{ik}²)
        let k = MatvecKernel::new(MatvecConfig::small());
        let g = k.golden();
        let col = 3;
        let site = k.x_site(col);
        let bit = 45; // a mid-mantissa flip: clearly nonzero, clearly finite
        let r = k.run_injected(FaultSpec { site, bit }, RecordMode::OutputOnly);
        let measured = Norm::L2.distance(&g.output, &r.output);
        let eps = ftb_trace::injected_error(Precision::F64, g.value(site), bit);
        let predicted = k.l2_constant(col) * eps;
        assert!(
            (measured - predicted).abs() / predicted < 1e-3,
            "measured {measured} vs closed form {predicted}"
        );
    }

    #[test]
    fn estimated_sites_is_exact() {
        let k = MatvecKernel::new(MatvecConfig::small());
        assert_eq!(k.estimated_sites(), k.golden().n_sites());
    }

    #[test]
    fn provenance_mode_matches_plain_golden() {
        let k = MatvecKernel::new(MatvecConfig::small());
        let plain = k.golden();
        let (with_ddg, ddg) = k.golden_with_ddg();
        assert_eq!(plain, with_ddg);
        assert_eq!(plain.output, with_ddg.output);
        assert!(ddg.is_instrumented());
        assert_eq!(ddg.out_sinks.len(), k.config().n);
    }
}
