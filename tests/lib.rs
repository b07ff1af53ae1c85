//! Shared fixtures for the `ftb` integration test suite.
//!
//! The integration tests exercise whole pipelines across crates — kernel
//! → injector → sampler → inference → prediction → metrics — on kernels
//! small enough that even exhaustive ground truth is cheap in a debug
//! test run.

use ftb_core::prelude::*;
use ftb_inject::{ExhaustiveResult, Experiment, ExtractionSummary};
use ftb_kernels::{
    CgConfig, FftConfig, GemmConfig, JacobiConfig, Kernel, KernelConfig, LuConfig, MatvecConfig,
    SpmvConfig, StencilConfig,
};
use ftb_trace::FaultSpec;

/// Tiny variants of every kernel, with tolerances that give a non-trivial
/// masked/SDC mix.
pub fn tiny_suite() -> Vec<(KernelConfig, f64)> {
    vec![
        (
            KernelConfig::Cg(CgConfig {
                grid: 4,
                max_iters: 100,
                ..CgConfig::small()
            }),
            1e-1,
        ),
        (
            KernelConfig::Lu(LuConfig {
                n: 8,
                block: 4,
                ..LuConfig::small()
            }),
            3e-5,
        ),
        (
            KernelConfig::Fft(FftConfig {
                n1: 4,
                n2: 4,
                ..FftConfig::small()
            }),
            1.0,
        ),
        (
            KernelConfig::Stencil(StencilConfig {
                grid: 6,
                sweeps: 3,
                ..StencilConfig::small()
            }),
            1e-6,
        ),
        (
            KernelConfig::Matvec(MatvecConfig {
                n: 6,
                ..MatvecConfig::small()
            }),
            1e-6,
        ),
        (
            KernelConfig::Gemm(GemmConfig {
                n: 5,
                ..GemmConfig::small()
            }),
            1e-6,
        ),
        (
            KernelConfig::Spmv(SpmvConfig {
                grid: 5,
                ..SpmvConfig::small()
            }),
            1e-6,
        ),
        (
            KernelConfig::Jacobi(JacobiConfig {
                grid: 4,
                sweeps: 10,
                ..JacobiConfig::small()
            }),
            1e-4,
        ),
    ]
}

/// Build a kernel and run `f` with an analysis session over it.
pub fn with_analysis<R>(
    config: &KernelConfig,
    tolerance: f64,
    f: impl FnOnce(&dyn Kernel, &Analysis<'_>) -> R,
) -> R {
    let kernel = config.build();
    let analysis = Analysis::new(kernel.as_ref(), Classifier::new(tolerance));
    f(kernel.as_ref(), &analysis)
}

/// The reference results for a fault plan: every fault run from scratch
/// with its full trace recorded ([`Injector::run_one_traced`]), serially.
/// Streamed, snapshot-resumed and lane-batched execution must reproduce
/// these records bit for bit.
pub fn reference_batch(injector: &Injector<'_>, plan: &[FaultSpec]) -> Vec<Experiment> {
    plan.iter()
        .map(|f| injector.run_one_traced(f.site, f.bit).0)
        .collect()
}

/// The reference exhaustive outcome table: [`reference_batch`] over every
/// bit of every site, in [`Injector::exhaustive`]'s layout.
pub fn reference_exhaustive(injector: &Injector<'_>) -> ExhaustiveResult {
    let bits = injector.bits();
    let plan: Vec<FaultSpec> = (0..injector.n_sites())
        .flat_map(|site| (0..bits).map(move |bit| FaultSpec { site, bit }))
        .collect();
    ExhaustiveResult {
        n_sites: injector.n_sites(),
        bits,
        codes: reference_batch(injector, &plan)
            .iter()
            .map(|e| e.outcome.code())
            .collect(),
    }
}

/// The reference propagation extraction of one experiment: the recorded
/// trace compared after the fact ([`Injector::run_one_traced`]), its
/// nonzero `(site, Δx)` pairs folded in cursor order — what
/// [`Injector::extract_propagation`] must reproduce bit for bit.
pub fn reference_extraction(
    injector: &Injector<'_>,
    site: usize,
    bit: u8,
    mut fold: impl FnMut(usize, f64),
) -> ExtractionSummary {
    let (experiment, prop) = injector.run_one_traced(site, bit);
    let mut max_err = 0.0f64;
    for (s, d) in prop.iter().filter(|&(_, d)| d > 0.0) {
        fold(s, d);
        max_err = max_err.max(d);
    }
    ExtractionSummary {
        experiment: Some(experiment),
        compare_len: prop.compare_len,
        diverged: prop.diverged,
        max_err,
    }
}
