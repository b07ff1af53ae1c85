//! Acceptance tests for the zero-injection static boundary analyzer:
//! the ISSUE-3 gates (jacobi precision ≥ 0.95 against a pinned-seed
//! exhaustive campaign; jacobi/gemm/cg all produce a boundary with zero
//! injection experiments) plus DDG determinism across thread counts and
//! extraction paths.

use ftb_core::prelude::*;
use ftb_core::staticbound::StaticBoundError;
use ftb_inject::Injector;
use ftb_kernels::{
    CgConfig, CgKernel, CgStorage, FftConfig, FftKernel, GemmConfig, GemmKernel, JacobiConfig,
    JacobiKernel, Kernel, LuConfig, LuKernel, MatvecConfig, MatvecKernel, SpmvConfig, SpmvKernel,
    StencilConfig, StencilKernel, SweepTweak,
};
use ftb_trace::{Ddg, Fnv1a, GoldenRun, Precision};

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
        let _ = inj.extract_propagation(0, 1, inj.n_sites(), |_, _| {});
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

/// One small config of every kernel and of every variant that changes
/// its provenance body: CG with both operator storages, jacobi plain,
/// fine-grained, tweaked and with an amortised residual, multi-block LU,
/// and the four kernels without snapshot support.
fn provenance_table() -> Vec<(&'static str, Box<dyn Kernel>)> {
    let jacobi = |label, cfg| (label, Box::new(JacobiKernel::new(cfg)) as Box<dyn Kernel>);
    vec![
        ("cg-matrix-free", Box::new(cg_tiny()) as Box<dyn Kernel>),
        (
            "cg-assembled-csr",
            Box::new(CgKernel::new(CgConfig {
                grid: 4,
                max_iters: 100,
                storage: CgStorage::AssembledCsr,
                ..CgConfig::small()
            })),
        ),
        jacobi("jacobi", jacobi_tiny().config().clone()),
        jacobi(
            "jacobi-fine-grained",
            JacobiConfig {
                fine_grained: true,
                ..jacobi_tiny().config().clone()
            },
        ),
        jacobi(
            "jacobi-tweaked",
            JacobiConfig {
                tweak: Some(SweepTweak {
                    sweep: 3,
                    omega: 0.7,
                }),
                ..jacobi_tiny().config().clone()
            },
        ),
        jacobi(
            "jacobi-fine-grained-tweaked",
            JacobiConfig {
                fine_grained: true,
                tweak: Some(SweepTweak {
                    sweep: 2,
                    omega: 0.6,
                }),
                ..jacobi_tiny().config().clone()
            },
        ),
        jacobi(
            "jacobi-residual-every-3",
            JacobiConfig {
                residual_every: 3,
                ..jacobi_tiny().config().clone()
            },
        ),
        ("gemm", Box::new(gemm_tiny())),
        (
            "lu-3-blocks",
            Box::new(LuKernel::new(LuConfig {
                n: 12,
                block: 4,
                ..LuConfig::small()
            })),
        ),
        (
            "fft",
            Box::new(FftKernel::new(FftConfig {
                n1: 4,
                n2: 8,
                ..FftConfig::small()
            })),
        ),
        (
            "stencil",
            Box::new(StencilKernel::new(StencilConfig {
                grid: 5,
                sweeps: 3,
                ..StencilConfig::small()
            })),
        ),
        (
            "matvec",
            Box::new(MatvecKernel::new(MatvecConfig {
                n: 6,
                ..MatvecConfig::small()
            })),
        ),
        (
            "spmv",
            Box::new(SpmvKernel::new(SpmvConfig {
                grid: 4,
                ..SpmvConfig::small()
            })),
        ),
    ]
}

/// Provenance mode must not perturb the golden run itself.
#[test]
fn ddg_mode_golden_matches_plain_golden() {
    for (label, k) in provenance_table() {
        let plain = k.golden();
        let (with_ddg, ddg) = k.golden_with_ddg();
        let bits = |g: &GoldenRun| {
            (0..g.n_sites())
                .map(|s| g.value(s).to_bits())
                .collect::<Vec<_>>()
        };
        let out_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&with_ddg), "{label}");
        assert_eq!(plain, with_ddg, "{label}");
        assert_eq!(
            out_bits(&plain.output),
            out_bits(&with_ddg.output),
            "{label}"
        );
        assert!(ddg.is_instrumented(), "{label}: uninstrumented DDG");
        assert_eq!(ddg.n_sites, plain.n_sites(), "{label}");
    }
}

/// Digest of one table config's streams: the plain golden run's values,
/// static ids, branches and output, then every field of the provenance
/// run's [`Ddg`], floats as bit patterns.
fn stream_digest(k: &dyn Kernel) -> u64 {
    let golden = k.golden();
    let (_, ddg) = k.golden_with_ddg();
    let mut h = Fnv1a::new();
    let floats = |h: &mut Fnv1a, v: &[f64]| {
        h.write_u64(v.len() as u64);
        v.iter().for_each(|x| h.write_u64(x.to_bits()));
    };
    let n = golden.n_sites();
    h.write_u64(n as u64);
    (0..n).for_each(|s| h.write_u64(golden.value(s).to_bits()));
    h.write_u64(n as u64);
    golden
        .static_ids(0..n)
        .for_each(|id| h.write_u64(u64::from(id.0)));
    h.write_u64(golden.branches.len() as u64);
    golden.branches.iter().for_each(|&b| h.write_u64(b));
    floats(&mut h, &golden.output);
    h.write_u64(ddg.n_sites as u64);
    for sites in [&ddg.defs, &ddg.uses] {
        h.write_u64(sites.len() as u64);
        sites.iter().for_each(|&s| h.write_u64(u64::from(s)));
    }
    floats(&mut h, &ddg.amps);
    floats(&mut h, &ddg.dcoefs);
    for sinks in [&ddg.caps, &ddg.out_sinks] {
        h.write_u64(sinks.len() as u64);
        for &(s, v) in sinks.iter() {
            h.write_u64(u64::from(s));
            h.write_u64(v.to_bits());
        }
    }
    h.write_u64(ddg.branch_sinks.len() as u64);
    for &(s, amp, margin) in &ddg.branch_sinks {
        h.write_u64(u64::from(s));
        h.write_u64(amp.to_bits());
        h.write_u64(margin.to_bits());
    }
    h.finish()
}

/// Pinned golden and provenance streams of every [`provenance_table`]
/// config: a kernel edit that changes a single value, branch, output bit
/// or DDG edge in either the injection or the provenance instance of a
/// kernel body fails here.
#[test]
fn provenance_table_streams_are_pinned() {
    const PINNED: [(&str, u64); 13] = [
        ("cg-matrix-free", 0xc39a_c2cb_ee04_fbea),
        ("cg-assembled-csr", 0x6bc6_6295_2db8_08a8),
        ("jacobi", 0xd8d1_949a_4540_c2d7),
        ("jacobi-fine-grained", 0x97bd_95a9_d1df_2611),
        ("jacobi-tweaked", 0xf867_45f0_0947_de60),
        ("jacobi-fine-grained-tweaked", 0x5d67_c6f5_a96d_3b83),
        ("jacobi-residual-every-3", 0x4c47_5da0_ee23_1b3a),
        ("gemm", 0x6751_9978_6f96_b7a5),
        ("lu-3-blocks", 0x8c6d_fc68_c341_acd2),
        ("fft", 0xa209_bc74_e4c2_213c),
        ("stencil", 0xe4b8_6056_d255_ba18),
        ("matvec", 0xef4a_e373_46ac_78be),
        ("spmv", 0xa3b4_733e_044c_6105),
    ];
    let got: Vec<(&str, u64)> = provenance_table()
        .iter()
        .map(|(label, k)| (*label, stream_digest(k.as_ref())))
        .collect();
    for ((label, d), (pinned_label, pinned)) in got.iter().zip(PINNED) {
        assert_eq!(*label, pinned_label);
        assert_eq!(*d, pinned, "{label}: streams drifted (digest {d:#018x})");
    }
    assert_eq!(got.len(), PINNED.len());
}
