//! Acceptance tests for the zero-injection static boundary analyzer:
//! the ISSUE-3 gates (jacobi precision ≥ 0.95 against a pinned-seed
//! exhaustive campaign; jacobi/gemm/cg all produce a boundary with zero
//! injection experiments) plus DDG determinism across thread counts and
//! extraction paths.

use ftb_core::prelude::*;
use ftb_core::staticbound::StaticBoundError;
use ftb_inject::Injector;
use ftb_kernels::{
    CgConfig, CgKernel, CgStorage, GemmConfig, GemmKernel, JacobiConfig, JacobiKernel, Kernel,
    LuConfig, LuKernel,
};
use ftb_trace::{Ddg, Precision};

fn jacobi_tiny() -> JacobiKernel {
    JacobiKernel::new(JacobiConfig {
        grid: 4,
        sweeps: 10,
        precision: Precision::F64,
        seed: 42,
        fine_grained: false,
        residual_every: 1,
        tweak: None,
    })
}

fn gemm_tiny() -> GemmKernel {
    GemmKernel::new(GemmConfig {
        n: 5,
        ..GemmConfig::small()
    })
}

fn cg_tiny() -> CgKernel {
    CgKernel::new(CgConfig {
        grid: 4,
        max_iters: 100,
        ..CgConfig::small()
    })
}

/// The static pipeline for one kernel: DDG from the golden run, backward
/// pass, validation against a pinned-seed exhaustive campaign. Returns
/// `(validation, n_constrained, n_sites)`.
fn run_static(kernel: &dyn Kernel, tolerance: f64) -> (StaticValidation, usize, usize) {
    let (golden, ddg) = kernel.golden_with_ddg();
    let sb = static_bound(&ddg, &StaticBoundConfig::new(tolerance)).expect("static bound");
    let boundary = sb.boundary();
    assert_eq!(boundary.n_sites(), golden.n_sites());

    let inj = Injector::with_golden(kernel, golden, Classifier::new(tolerance));
    let truth = inj.exhaustive();
    let predictor = Predictor::new(inj.golden(), &boundary);
    let samples = SampleSet::sample_sites(&inj, (inj.n_sites() / 10).max(4), 41);
    let v = validate_static(&predictor, &truth, &samples, inj.golden(), &sb.thresholds);
    (v, sb.n_constrained, inj.n_sites())
}

#[test]
fn jacobi_static_precision_gate() {
    let k = jacobi_tiny();
    let (v, constrained, n_sites) = run_static(&k, 1e-4);
    println!(
        "jacobi: precision {:.4} recall {:.4} uncertainty {:.4} conservative {:.4} slack {:.2} constrained {}/{}",
        v.eval.precision, v.eval.recall, v.uncertainty, v.conservative_fraction, v.median_slack,
        constrained, n_sites
    );
    assert_eq!(v.n_injections_static, 0);
    assert!(
        v.eval.precision >= 0.95,
        "jacobi static precision {} below the 0.95 acceptance gate ({:?})",
        v.eval.precision,
        v.eval
    );
    assert!(v.eval.recall > 0.0, "static bound certified nothing");
    assert!(
        v.conservative_fraction >= 0.95,
        "conservativeness {}",
        v.conservative_fraction
    );
}

#[test]
fn gemm_static_boundary_zero_injections() {
    let k = gemm_tiny();
    let (v, constrained, _) = run_static(&k, 1e-6);
    println!(
        "gemm: precision {:.4} recall {:.4} uncertainty {:.4} conservative {:.4} slack {:.2}",
        v.eval.precision, v.eval.recall, v.uncertainty, v.conservative_fraction, v.median_slack
    );
    assert_eq!(v.n_injections_static, 0);
    assert!(constrained > 0);
    // per-injection GEMM is exactly linear: the secant bounds are exact
    assert_eq!(v.eval.precision, 1.0, "{:?}", v.eval);
    assert!(v.eval.recall > 0.1, "{:?}", v.eval);
}

#[test]
fn cg_static_boundary_zero_injections() {
    let k = cg_tiny();
    let (v, constrained, n_sites) = run_static(&k, 1e-1);
    println!(
        "cg: precision {:.4} recall {:.4} uncertainty {:.4} conservative {:.4} slack {:.2} constrained {}/{}",
        v.eval.precision, v.eval.recall, v.uncertainty, v.conservative_fraction, v.median_slack,
        constrained, n_sites
    );
    assert_eq!(v.n_injections_static, 0);
    assert!(constrained > 0, "no site constrained");
    // CG is genuinely nonlinear (cross terms are the documented caveat);
    // the bound must still be near-conservative and certify something
    assert!(v.eval.recall > 0.0, "{:?}", v.eval);
    assert!(
        v.eval.precision >= 0.8,
        "cg static precision collapsed: {:?}",
        v.eval
    );
}

#[test]
fn formerly_dormant_lu_is_now_instrumented() {
    let k = LuKernel::new(LuConfig::small());
    let (_, ddg) = k.golden_with_ddg();
    assert!(ddg.is_instrumented());
    static_bound(&ddg, &StaticBoundConfig::new(1e-6))
        .expect("instrumented LU must admit a static bound");
}

#[test]
fn assembled_csr_cg_is_now_instrumented() {
    let k = CgKernel::new(CgConfig {
        storage: CgStorage::AssembledCsr,
        ..CgConfig::small()
    });
    let (_, ddg) = k.golden_with_ddg();
    assert!(
        ddg.is_instrumented(),
        "CSR-mode CG must carry full operand provenance"
    );
    static_bound(&ddg, &StaticBoundConfig::new(1e-6))
        .expect("instrumented CSR CG must admit a static bound");
}

#[test]
fn uninstrumented_stub_is_rejected_not_miscertified() {
    // the refusal path outlives the last real uninstrumented kernel via
    // the feature-gated stub: real traced sites, zero recorded edges
    let k = ftb_kernels::StubKernel::new(16, 42);
    let (_, ddg) = k.golden_with_ddg();
    assert!(
        !ddg.is_instrumented(),
        "stub must not emit a partial (unsound) provenance graph"
    );
    let err = static_bound(&ddg, &StaticBoundConfig::new(1e-6)).unwrap_err();
    assert_eq!(err, StaticBoundError::NotInstrumented);
}

/// DDG construction must be a pure function of the kernel config: same
/// edges regardless of the rayon pool the recording happens under and of
/// the extraction (streamed or the buffered reference) any surrounding
/// analysis runs.
#[test]
fn ddg_is_deterministic_across_thread_counts_and_extraction_modes() {
    fn ddg_of(kernel: &dyn Kernel) -> Ddg {
        kernel.golden_with_ddg().1
    }

    let kernels: Vec<Box<dyn Kernel>> = vec![
        Box::new(jacobi_tiny()),
        Box::new(gemm_tiny()),
        Box::new(cg_tiny()),
    ];
    for k in &kernels {
        let reference = ddg_of(k.as_ref());
        assert!(reference.n_edges() > 0, "{}: empty DDG", k.name());

        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| ddg_of(k.as_ref()));
            assert_eq!(
                got,
                reference,
                "{}: DDG differs under {threads}-thread pool",
                k.name()
            );
        }

        // an analysis must see the identical graph whichever way it
        // extracts: extraction concerns faulty-run comparison, never the
        // golden provenance pass
        let inj = Injector::new(k.as_ref(), Classifier::new(1e-4));
        let _ = inj.extract_propagation(0, 1, |_, _| {});
        let _ = inj.run_one_traced(0, 1);
        let got = ddg_of(k.as_ref());
        assert_eq!(got, reference, "{}: DDG differs after extraction", k.name());
    }
}

/// The same static thresholds must come out of every run, bit for bit.
#[test]
fn static_thresholds_are_deterministic() {
    let k = jacobi_tiny();
    let t1 = static_bound(&k.golden_with_ddg().1, &StaticBoundConfig::new(1e-4))
        .unwrap()
        .thresholds;
    let t2 = static_bound(&k.golden_with_ddg().1, &StaticBoundConfig::new(1e-4))
        .unwrap()
        .thresholds;
    let bits1: Vec<u64> = t1.iter().map(|v| v.to_bits()).collect();
    let bits2: Vec<u64> = t2.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits1, bits2);
}

/// Provenance mode must not perturb the golden run itself.
#[test]
fn ddg_mode_golden_matches_plain_golden() {
    for k in [
        Box::new(jacobi_tiny()) as Box<dyn Kernel>,
        Box::new(gemm_tiny()),
        Box::new(cg_tiny()),
    ] {
        let plain = k.golden();
        let (with_ddg, _) = k.golden_with_ddg();
        assert_eq!(plain.values, with_ddg.values, "{}", k.name());
        assert_eq!(plain.branches, with_ddg.branches, "{}", k.name());
        assert_eq!(plain.output, with_ddg.output, "{}", k.name());
    }
}
