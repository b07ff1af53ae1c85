//! 2-D five-point Jacobi stencil.
//!
//! The paper's §5 uses this kernel to argue monotonicity of error
//! propagation: each sweep computes
//! `s(x_{i,j}) = 0.2 · (x_{i,j} + x_{i+1,j} + x_{i,j+1} + x_{i-1,j} + x_{i,j-1})`,
//! so an injected error `ε` contributes linearly (`f(ε) = C·ε`) to the
//! final output — the error function is monotonic in `ε`. The
//! `monotonicity` bench sweeps injected errors through this kernel to
//! verify that analysis experimentally.

use crate::inputs::uniform_vec;
use crate::Kernel;
use ftb_trace::{Fnv1a, OpKind, Precision, StaticRegistry, Tracer};
use serde::{Deserialize, Serialize};

ftb_trace::static_instrs! {
    pub mod sid {
        INIT  => ("stencil.init", Init),
        // phase head: each sweep re-enters the interior loop from the
        // previous sweep's edge copies, opening one section per sweep
        SWEEP => ("stencil.sweep", Compute, phase),
        EDGE  => ("stencil.edge.copy", DataMovement),
    }
}

/// Configuration of the Jacobi stencil kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StencilConfig {
    /// Grid dimension (`grid × grid` cells).
    pub grid: usize,
    /// Number of Jacobi sweeps.
    pub sweeps: usize,
    /// Element precision.
    pub precision: Precision,
    /// Input seed.
    pub seed: u64,
}

impl StencilConfig {
    /// Check the configuration describes a buildable kernel; the
    /// constructor panics with this message otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.grid < 3 {
            return Err(format!(
                "stencil grid needs an interior (grid >= 3), got {}",
                self.grid
            ));
        }
        Ok(())
    }

    /// Laptop-scale default: 12×12 grid, 8 sweeps.
    pub fn small() -> Self {
        StencilConfig {
            grid: 12,
            sweeps: 8,
            precision: Precision::F64,
            seed: 42,
        }
    }
}

/// The instrumented Jacobi stencil kernel.
#[derive(Debug, Clone)]
pub struct StencilKernel {
    cfg: StencilConfig,
    initial: Vec<f64>,
    sites_hint: usize,
}

impl StencilKernel {
    /// Build the kernel with a random initial grid.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`StencilConfig::validate`]).
    pub fn new(cfg: StencilConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let initial = uniform_vec(cfg.seed, cfg.grid * cfg.grid, 0.0, 1.0);
        let mut k = StencilKernel {
            cfg,
            initial,
            sites_hint: 0,
        };
        let mut t = Tracer::untraced(k.cfg.precision);
        let _ = k.run(&mut t);
        k.sites_hint = t.cursor();
        k
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &StencilConfig {
        &self.cfg
    }
}

impl Kernel for StencilKernel {
    fn name(&self) -> &'static str {
        "stencil"
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
        // structural stamp: grid and sweep count shape the instruction
        // stream; the seed only changes input values
        let mut h = Fnv1a::new();
        h.write(b"stencil/five-point/v1");
        h.write_u64(self.cfg.grid as u64);
        h.write_u64(self.cfg.sweeps as u64);
        h.finish()
    }

    fn run(&self, t: &mut Tracer) -> Vec<f64> {
        let g = self.cfg.grid;

        // Hot (injection) path: no def-map bookkeeping.
        if !t.ddg_enabled() {
            // Init region: load the grid.
            let mut cur = vec![0.0; g * g];
            for (dst, &src) in cur.iter_mut().zip(&self.initial) {
                *dst = t.value(sid::INIT, src);
            }

            let mut next = vec![0.0; g * g];
            for _ in 0..self.cfg.sweeps {
                // interior: the five-point average of the paper's §5
                for i in 1..g - 1 {
                    for j in 1..g - 1 {
                        let idx = i * g + j;
                        let s = 0.2
                            * (cur[idx]
                                + cur[idx - g]
                                + cur[idx + g]
                                + cur[idx - 1]
                                + cur[idx + 1]);
                        next[idx] = t.value(sid::SWEEP, s);
                    }
                }
                // fixed boundary: copied forward (traced data movement)
                for j in 0..g {
                    next[j] = t.value(sid::EDGE, cur[j]);
                    next[(g - 1) * g + j] = t.value(sid::EDGE, cur[(g - 1) * g + j]);
                }
                for i in 1..g - 1 {
                    next[i * g] = t.value(sid::EDGE, cur[i * g]);
                    next[i * g + g - 1] = t.value(sid::EDGE, cur[i * g + g - 1]);
                }
                std::mem::swap(&mut cur, &mut next);
                if t.should_stop() {
                    break;
                }
            }

            return cur;
        }

        // Provenance mode: def maps travel with the value buffers (and
        // swap with them). Each interior store is a five-operand average
        // — |∂s/∂x| = 0.2 for every neighbour — and each edge copy is
        // Linear in its source.
        let mut def_cur = vec![0usize; g * g];
        let mut def_next = vec![0usize; g * g];
        let mut cur = vec![0.0; g * g];
        for (i, (dst, &src)) in cur.iter_mut().zip(&self.initial).enumerate() {
            def_cur[i] = t.cursor();
            *dst = t.value(sid::INIT, src);
        }

        let mut next = vec![0.0; g * g];
        for _ in 0..self.cfg.sweeps {
            for i in 1..g - 1 {
                for j in 1..g - 1 {
                    let idx = i * g + j;
                    for nb in [idx, idx - g, idx + g, idx - 1, idx + 1] {
                        t.dep(def_cur[nb], OpKind::Scale(0.2));
                    }
                    let s = 0.2
                        * (cur[idx] + cur[idx - g] + cur[idx + g] + cur[idx - 1] + cur[idx + 1]);
                    def_next[idx] = t.cursor();
                    next[idx] = t.value(sid::SWEEP, s);
                }
            }
            for j in 0..g {
                t.dep(def_cur[j], OpKind::Add);
                def_next[j] = t.cursor();
                next[j] = t.value(sid::EDGE, cur[j]);
                let bot = (g - 1) * g + j;
                t.dep(def_cur[bot], OpKind::Add);
                def_next[bot] = t.cursor();
                next[bot] = t.value(sid::EDGE, cur[bot]);
            }
            for i in 1..g - 1 {
                let left = i * g;
                t.dep(def_cur[left], OpKind::Add);
                def_next[left] = t.cursor();
                next[left] = t.value(sid::EDGE, cur[left]);
                let right = i * g + g - 1;
                t.dep(def_cur[right], OpKind::Add);
                def_next[right] = t.cursor();
                next[right] = t.value(sid::EDGE, cur[right]);
            }
            std::mem::swap(&mut cur, &mut next);
            std::mem::swap(&mut def_cur, &mut def_next);
            if t.should_stop() {
                break;
            }
        }

        // Output: the final grid, one sink per element.
        for &d in &def_cur {
            t.out_dep(d, 1.0);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;
    use ftb_trace::norms::Norm;
    use ftb_trace::{FaultSpec, RecordMode};

    #[test]
    fn sweep_smooths_toward_interior_average() {
        let k = StencilKernel::new(StencilConfig {
            sweeps: 200,
            ..StencilConfig::small()
        });
        let g = k.golden();
        let n = k.config().grid;
        // after many sweeps the interior varies smoothly: neighbour
        // differences shrink well below the initial random contrast
        let mut max_jump = 0.0f64;
        for i in 1..n - 1 {
            for j in 1..n - 2 {
                let d = (g.output[i * n + j] - g.output[i * n + j + 1]).abs();
                max_jump = max_jump.max(d);
            }
        }
        assert!(
            max_jump < 0.2,
            "interior still rough after 200 sweeps: {max_jump}"
        );
    }

    #[test]
    fn boundary_is_preserved() {
        let k = StencilKernel::new(StencilConfig::small());
        let g = k.golden();
        let n = k.config().grid;
        for j in 0..n {
            assert_eq!(g.output[j], k.initial[j]);
            assert_eq!(g.output[(n - 1) * n + j], k.initial[(n - 1) * n + j]);
        }
    }

    #[test]
    fn error_propagation_is_linear_in_epsilon() {
        // §5's claim: f(ε) = C·ε for the stencil. Compare the output error
        // of two flips at the same site whose injected errors differ.
        let k = StencilKernel::new(StencilConfig::small());
        let g = k.golden();
        let n2 = k.config().grid * k.config().grid;
        let site = n2 + (k.config().grid + 1); // early interior sweep store
        let e_small = {
            let r = k.run_injected(FaultSpec { site, bit: 50 }, RecordMode::OutputOnly);
            Norm::L2.distance(&g.output, &r.output)
        };
        let e_big = {
            let r = k.run_injected(FaultSpec { site, bit: 52 }, RecordMode::OutputOnly);
            Norm::L2.distance(&g.output, &r.output)
        };
        let inj_small = ftb_trace::injected_error(Precision::F64, g.values[site], 50);
        let inj_big = ftb_trace::injected_error(Precision::F64, g.values[site], 52);
        let (c1, c2) = (e_small / inj_small, e_big / inj_big);
        assert!(
            (c1 - c2).abs() / c1 < 1e-6,
            "propagation constant not linear: {c1} vs {c2}"
        );
    }

    #[test]
    fn sweeps_zero_is_identity() {
        let k = StencilKernel::new(StencilConfig {
            sweeps: 0,
            ..StencilConfig::small()
        });
        let g = k.golden();
        assert_eq!(g.output, k.initial);
    }

    #[test]
    fn provenance_mode_matches_plain_golden() {
        let k = StencilKernel::new(StencilConfig::small());
        let plain = k.golden();
        let (with_ddg, ddg) = k.golden_with_ddg();
        assert_eq!(plain.values, with_ddg.values);
        assert_eq!(plain.output, with_ddg.output);
        assert!(ddg.is_instrumented());
        assert_eq!(
            ddg.out_sinks.len(),
            k.config().grid * k.config().grid,
            "one output sink per grid cell"
        );
    }

    #[test]
    fn zero_sweep_provenance_sinks_the_init_defs() {
        let k = StencilKernel::new(StencilConfig {
            sweeps: 0,
            ..StencilConfig::small()
        });
        let (g, ddg) = k.golden_with_ddg();
        assert!(ddg.is_instrumented());
        assert_eq!(g.output, k.initial);
    }

    #[test]
    #[should_panic]
    fn tiny_grid_rejected() {
        let _ = StencilKernel::new(StencilConfig {
            grid: 2,
            ..StencilConfig::small()
        });
    }
}
