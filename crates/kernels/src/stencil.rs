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
use crate::{load, Kernel};
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

    /// The one scalar body; `DDG` compiles in the operand-provenance
    /// bookkeeping: def maps travel with the value buffers (and swap with
    /// them). Each interior store is a five-operand average — `|∂s/∂x| =
    /// 0.2` for every neighbour — and each edge copy is linear in its
    /// source.
    fn body<const DDG: bool>(&self, t: &mut Tracer) -> Vec<f64> {
        let g = self.cfg.grid;
        // Init region: load the grid.
        let mut def_cur = Vec::new();
        let mut cur = load::<DDG>(t, sid::INIT, &self.initial, &mut def_cur);
        let mut def_next = def_cur.clone();

        let mut next = vec![0.0; g * g];
        for _ in 0..self.cfg.sweeps {
            // interior: the five-point average of the paper's §5
            for i in 1..g - 1 {
                for j in 1..g - 1 {
                    let idx = i * g + j;
                    if DDG {
                        for nb in [idx, idx - g, idx + g, idx - 1, idx + 1] {
                            t.dep(def_cur[nb], OpKind::Scale(0.2));
                        }
                        def_next[idx] = t.cursor();
                    }
                    let s = 0.2
                        * (cur[idx] + cur[idx - g] + cur[idx + g] + cur[idx - 1] + cur[idx + 1]);
                    next[idx] = t.value(sid::SWEEP, s);
                }
            }
            // fixed boundary: copied forward (traced data movement)
            let mut edge = |e: usize| {
                if DDG {
                    t.dep(def_cur[e], OpKind::Add);
                    def_next[e] = t.cursor();
                }
                next[e] = t.value(sid::EDGE, cur[e]);
            };
            for j in 0..g {
                edge(j);
                edge((g - 1) * g + j);
            }
            for i in 1..g - 1 {
                edge(i * g);
                edge(i * g + g - 1);
            }
            std::mem::swap(&mut cur, &mut next);
            if DDG {
                std::mem::swap(&mut def_cur, &mut def_next);
            }
            if t.should_stop() {
                break;
            }
        }

        // Output: the final grid, one sink per element.
        if DDG {
            for &d in &def_cur {
                t.out_dep(d, 1.0);
            }
        }
        cur
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
        let inj_small = ftb_trace::injected_error(Precision::F64, g.value(site), 50);
        let inj_big = ftb_trace::injected_error(Precision::F64, g.value(site), 52);
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
        assert_eq!(plain, with_ddg);
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
