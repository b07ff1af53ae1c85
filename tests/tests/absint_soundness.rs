//! Soundness and conservatism acceptance for the forward interval
//! analyzer: the forward envelope must contain the concrete golden run
//! regardless of thread pool or extraction path, widening must only
//! grow intervals, and — the load-bearing property — no bit the
//! analyzer certifies as masked may be SDC or Crash in the exhaustive
//! ground truth, on any instrumented kernel. Ends with the bit-prune
//! differential: a pruned exhaustive campaign must be bit-identical to
//! the unpruned table on every non-certified cell, including across a
//! kill/resume of its ledger.

use ftb_core::prelude::*;
use ftb_inject::{
    exhaustive_plan, pruned_exhaustive_plan, BitPruneBinding, CampaignBinding, ChunkedCampaign,
};
use ftb_kernels::{
    CgConfig, CgKernel, FftConfig, FftKernel, GemmConfig, GemmKernel, JacobiConfig, JacobiKernel,
    Kernel, KernelConfig, LuConfig, LuKernel, MatvecConfig, MatvecKernel, SpmvConfig, SpmvKernel,
    StencilConfig, StencilKernel,
};
use ftb_trace::{GoldenRun, Precision};
use proptest::prelude::*;

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

fn kernels() -> Vec<(Box<dyn Kernel>, f64)> {
    vec![
        (Box::new(jacobi_tiny()) as Box<dyn Kernel>, 1e-4),
        (Box::new(gemm_tiny()), 1e-6),
        (Box::new(cg_tiny()), 1e-1),
        (
            Box::new(LuKernel::new(LuConfig {
                n: 8,
                block: 4,
                ..LuConfig::small()
            })),
            3e-5,
        ),
        (
            Box::new(FftKernel::new(FftConfig {
                n1: 4,
                n2: 4,
                ..FftConfig::small()
            })),
            1.0,
        ),
        (
            Box::new(StencilKernel::new(StencilConfig {
                grid: 6,
                sweeps: 3,
                ..StencilConfig::small()
            })),
            1e-6,
        ),
        (
            Box::new(MatvecKernel::new(MatvecConfig {
                n: 6,
                ..MatvecConfig::small()
            })),
            1e-6,
        ),
        (
            Box::new(SpmvKernel::new(SpmvConfig {
                grid: 5,
                ..SpmvConfig::small()
            })),
            1e-6,
        ),
    ]
}

fn envelope(kernel: &dyn Kernel, widen: f64) -> (GoldenRun, ForwardIntervals) {
    let (golden, ddg) = kernel.golden_with_ddg();
    let fw = forward_pass(&ddg, &golden, &ForwardConfig { widen }).expect("forward pass");
    (golden, fw)
}

/// Soundness: every concrete golden value lies inside its forward
/// interval, for every instrumented kernel, under 1/4/8-thread rayon
/// pools and after exercising streamed and buffered extraction. The forward pass
/// reads only the DDG and the golden run, so nothing here may move.
#[test]
fn forward_envelope_contains_golden_across_threads_and_modes() {
    for (kernel, tolerance) in kernels() {
        let (golden, fw) = envelope(kernel.as_ref(), 0.0);
        assert_eq!(fw.n_sites(), golden.n_sites(), "{}", kernel.name());
        assert!(
            fw.contains_golden(&golden),
            "{}: golden escapes the forward envelope",
            kernel.name()
        );

        for threads in [1usize, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (g, f) = pool.install(|| envelope(kernel.as_ref(), 0.0));
            assert!(
                f.contains_golden(&g),
                "{}: envelope unsound under {threads}-thread pool",
                kernel.name()
            );
            // determinism rider: the envelope is a pure function of the
            // kernel config, bit for bit
            let bits_ref: Vec<(u64, u64)> = fw
                .intervals
                .iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                .collect();
            let bits_got: Vec<(u64, u64)> = f
                .intervals
                .iter()
                .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                .collect();
            assert_eq!(
                bits_ref,
                bits_got,
                "{}: envelope drifts under {threads}-thread pool",
                kernel.name()
            );
        }

        // extraction concerns faulty-run comparison; the golden
        // provenance pass the envelope is built from must be blind to it
        let inj = Injector::new(kernel.as_ref(), Classifier::new(tolerance));
        let _ = inj.extract_propagation(0, 1, inj.n_sites(), |_, _| {});
        let _ = inj.run_one_traced(0, 1);
        let (g, f) = envelope(kernel.as_ref(), 0.0);
        assert!(
            f.contains_golden(&g),
            "{}: envelope unsound after extraction",
            kernel.name()
        );
    }
}

/// Widening only grows intervals: a larger `widen` factor must produce
/// an envelope that encloses the tighter one site-for-site, and the
/// golden run stays inside at every level.
#[test]
fn widening_is_monotone() {
    for (kernel, _) in kernels() {
        let widths = [0.0, 0.25, 1.0, 4.0];
        let mut prev: Option<ForwardIntervals> = None;
        for &w in &widths {
            let (golden, fw) = envelope(kernel.as_ref(), w);
            assert!(
                fw.contains_golden(&golden),
                "{}: golden escapes at widen {w}",
                kernel.name()
            );
            if let Some(p) = &prev {
                assert!(
                    fw.max_width() >= p.max_width(),
                    "{}: max width shrank under widening",
                    kernel.name()
                );
                for (site, (narrow, wide)) in p.intervals.iter().zip(&fw.intervals).enumerate() {
                    assert!(
                        wide.encloses(*narrow),
                        "{}: site {site} interval shrank at widen {w}",
                        kernel.name()
                    );
                }
            }
            prev = Some(fw);
        }
    }
}

fn masks_for(kernel: &dyn Kernel, tolerance: f64) -> (GoldenRun, BitMasks) {
    let (golden, ddg) = kernel.golden_with_ddg();
    let sb = static_bound(&ddg, &StaticBoundConfig::new(tolerance)).expect("static bound");
    let fw = forward_pass(&ddg, &golden, &ForwardConfig { widen: 0.0 }).expect("forward pass");
    let masks = safe_bit_masks(&fw, &sb.boundary(), MaskSource::Static);
    (golden, masks)
}

/// The acceptance property: 100% conservative certification. Across
/// every instrumented kernel — jacobi, gemm, cg, lu, fft, stencil,
/// matvec and spmv — every bit classified `CertifiedMasked` must be
/// Masked in the exhaustive ground truth — zero SDC, zero Crash. The
/// test also demands each kernel certifies a non-trivial fraction so
/// the property is not vacuously true.
#[test]
fn certified_masked_bits_are_masked_in_exhaustive_truth() {
    for (kernel, tolerance) in kernels() {
        let (golden, masks) = masks_for(kernel.as_ref(), tolerance);
        assert!(
            masks.certified_total() > 0,
            "{}: nothing certified — vacuous",
            kernel.name()
        );

        let inj = Injector::with_golden(kernel.as_ref(), golden, Classifier::new(tolerance));
        let truth = inj.exhaustive();
        let mut checked = 0u64;
        for site in 0..masks.n_sites() {
            for bit in 0..masks.bits {
                if masks.class(site, bit) == BitClass::CertifiedMasked {
                    checked += 1;
                    let got = truth.outcome(site, bit);
                    assert!(
                        got.is_masked(),
                        "{}: certified bit (site {site}, bit {bit}) measured {got:?}",
                        kernel.name()
                    );
                }
            }
        }
        assert_eq!(checked, masks.certified_total(), "{}", kernel.name());
        println!(
            "{}: {} certified bits all masked ({:.2}x reduction)",
            kernel.name(),
            checked,
            masks.reduction_factor()
        );
    }
}

/// Bit-prune differential: the pruned exhaustive campaign agrees with
/// the unpruned table bit-for-bit on every non-certified cell, and the
/// certified cells it back-fills as Masked match the ground truth — so
/// the two boundaries are identical.
#[test]
fn pruned_campaign_matches_unpruned_on_non_certified_cells() {
    let kernel = jacobi_tiny();
    let tolerance = 1e-4;
    let (golden, masks) = masks_for(&kernel, tolerance);
    let certified = masks.certified_masks();
    let inj = Injector::with_golden(&kernel, golden, Classifier::new(tolerance));

    let truth = inj.exhaustive();
    let plan = pruned_exhaustive_plan(inj.n_sites(), inj.bits(), &certified);
    let full = exhaustive_plan(inj.n_sites(), inj.bits());
    assert!(
        plan.len() * 2 <= full.len(),
        "pruning removed under half the table: {} of {}",
        plan.len(),
        full.len()
    );

    let mut campaign = ChunkedCampaign::new(&inj, plan, 128);
    campaign.run_to_completion().unwrap();
    let pruned = campaign.into_exhaustive_with_certified(&certified);

    for site in 0..inj.n_sites() {
        for bit in 0..inj.bits() {
            let want = truth.outcome(site, bit);
            let got = pruned.outcome(site, bit);
            if masks.class(site, bit) == BitClass::CertifiedMasked {
                assert!(got.is_masked(), "certified cell ({site}, {bit}) not filled");
                assert_eq!(want, got, "certificate contradicted at ({site}, {bit})");
            } else {
                assert_eq!(want, got, "pruned run diverged at ({site}, {bit})");
            }
        }
    }
}

/// A pruned campaign killed mid-flight and resumed from its ledger must
/// finish with the identical experiment sequence, and a resume attempt
/// under drifted masks must be rejected by the binding.
#[test]
fn pruned_campaign_resumes_from_ledger() {
    let kernel = jacobi_tiny();
    let tolerance = 1e-4;
    let (golden, masks) = masks_for(&kernel, tolerance);
    let certified = masks.certified_masks();
    let inj = Injector::with_golden(&kernel, golden, Classifier::new(tolerance));
    let plan = pruned_exhaustive_plan(inj.n_sites(), inj.bits(), &certified);

    let binding = CampaignBinding {
        kernel: KernelConfig::Jacobi(JacobiConfig {
            grid: 4,
            sweeps: 10,
            precision: Precision::F64,
            seed: 42,
            fine_grained: false,
            residual_every: 1,
            tweak: None,
        }),
        classifier: *inj.classifier(),
        n_sites: inj.n_sites(),
        bits: inj.bits(),
        plan: "exhaustive bit-prune".to_string(),
        bit_prune: Some(BitPruneBinding {
            certified: masks.certified_total(),
            digest: masks.digest(),
        }),
        snapshot: None,
        batch: None,
    };

    let dir = std::env::temp_dir().join("ftb-absint-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pruned-resume.ledger");
    let _ = std::fs::remove_file(&path);

    // straight-through reference
    let mut reference = ChunkedCampaign::new(&inj, plan.clone(), 64);
    reference.run_to_completion().unwrap();
    let want: Vec<_> = reference.experiments().to_vec();

    // killed after two chunks, then resumed
    let mut first = ChunkedCampaign::new(&inj, plan.clone(), 64)
        .with_ledger(&path, binding.clone(), false)
        .unwrap();
    first.step().unwrap();
    first.step().unwrap();
    assert!(!first.is_done());
    drop(first);

    let mut resumed = ChunkedCampaign::new(&inj, plan.clone(), 64)
        .with_ledger(&path, binding.clone(), true)
        .unwrap();
    resumed.run_to_completion().unwrap();
    let got: Vec<_> = resumed.experiments().to_vec();
    assert_eq!(want, got, "resume changed the experiment sequence");

    // drifted masks (different digest) must not silently resume
    let drifted = CampaignBinding {
        bit_prune: Some(BitPruneBinding {
            certified: masks.certified_total(),
            digest: masks.digest() ^ 1,
        }),
        ..binding
    };
    let err = ChunkedCampaign::new(&inj, plan, 64)
        .with_ledger(&path, drifted, true)
        .err();
    assert!(
        err.is_some(),
        "drifted bit-prune binding accepted on resume"
    );

    let _ = std::fs::remove_file(&path);
}

proptest! {
    /// `Precision::flip` is an involution in both precisions: flipping
    /// the same bit twice restores the exact bit pattern of the
    /// quantised value.
    #[test]
    fn precision_flip_is_involution_f64(bits in any::<u64>(), bit in 0u8..64) {
        let v = f64::from_bits(bits);
        let back = Precision::F64.flip(Precision::F64.flip(v, bit), bit);
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    /// The F32 path round-trips through `f64`, which is only exact for
    /// finite values (NaN payloads may be quieted by the conversion), so
    /// the property is stated over finite intermediates.
    #[test]
    fn precision_flip_is_involution_f32(v in -1e30f64..1e30, bit in 0u8..32) {
        let q = Precision::F32.quantize(v);
        let flipped = Precision::F32.flip(q, bit);
        if flipped.is_finite() {
            let back = Precision::F32.flip(flipped, bit);
            prop_assert_eq!(back.to_bits(), q.to_bits());
        }
    }

    /// Widening the interval domain directly: `expand` never shrinks and
    /// keeps every previously-contained point.
    #[test]
    fn interval_expand_is_monotone(
        lo in -1e12f64..1e12,
        w in 0.0f64..1e6,
        r in 0.0f64..1e6,
        p in 0.0f64..1.0,
    ) {
        let iv = Interval::new(lo, lo + w);
        let wide = iv.expand(r);
        prop_assert!(wide.encloses(iv));
        let point = lo + w * p;
        prop_assert!(iv.contains(point));
        prop_assert!(wide.contains(point));
    }
}
