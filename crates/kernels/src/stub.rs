//! A deliberately uninstrumented kernel (feature `stub`, test-only).
//!
//! Every real kernel in this crate carries operand-provenance
//! instrumentation, so the static analyzers' `NotInstrumented` refusal
//! path — "reject an empty dependence graph rather than emit an unsound
//! bound" — would otherwise have nothing left to exercise. The stub
//! traces real dynamic instructions (its golden run has sites, output
//! and deterministic values) but registers no `dep()` edges and no
//! sinks, so `Ddg::is_instrumented()` is `false` by construction.

use crate::inputs::uniform_vec;
use crate::Kernel;
use ftb_trace::{Precision, StaticRegistry, Tracer};

ftb_trace::static_instrs! {
    pub mod sid {
        INIT => ("stub.init", Init),
        ACC  => ("stub.acc", Compute),
    }
}

/// A tiny prefix-sum kernel with zero provenance instrumentation.
#[derive(Debug, Clone)]
pub struct StubKernel {
    input: Vec<f64>,
}

impl StubKernel {
    /// Build with `n` deterministically seeded elements.
    pub fn new(n: usize, seed: u64) -> Self {
        StubKernel {
            input: uniform_vec(seed, n.max(1), -1.0, 1.0),
        }
    }
}

impl Kernel for StubKernel {
    fn name(&self) -> &'static str {
        "stub"
    }

    fn precision(&self) -> Precision {
        Precision::F64
    }

    fn registry(&self) -> StaticRegistry {
        sid::registry()
    }

    fn estimated_sites(&self) -> usize {
        2 * self.input.len()
    }

    fn run(&self, t: &mut Tracer) -> Vec<f64> {
        let mut v: Vec<f64> = self.input.iter().map(|&x| t.value(sid::INIT, x)).collect();
        let mut acc = 0.0;
        for x in v.iter_mut() {
            // no t.dep()/t.out_dep(): the graph stays empty on purpose
            acc = t.value(sid::ACC, acc + *x);
            *x = acc;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stub_traces_sites_but_no_provenance() {
        let k = StubKernel::new(8, 42);
        let (golden, ddg) = k.golden_with_ddg();
        assert!(golden.n_sites() > 0);
        assert!(!golden.output.is_empty());
        assert!(!ddg.is_instrumented(), "stub must stay uninstrumented");
        assert_eq!(ddg.n_edges(), 0);
    }

    #[test]
    fn stub_is_deterministic() {
        let a = StubKernel::new(8, 7).golden();
        let b = StubKernel::new(8, 7).golden();
        assert_eq!(a, b);
    }
}
