//! Reproducibility: identical seeds give identical campaigns, boundaries
//! and adaptive trajectories — including under different Rayon pool
//! sizes, since the parallel reductions are order-independent.

use ftb_core::prelude::*;
use ftb_integration::{tiny_suite, with_analysis};

#[test]
fn sampled_campaigns_are_reproducible() {
    let (config, tol) = &tiny_suite()[4]; // matvec
    with_analysis(config, *tol, |_, analysis| {
        let a = analysis.sample_uniform(0.2, 7);
        let b = analysis.sample_uniform(0.2, 7);
        assert_eq!(a.experiments(), b.experiments());
        let c = analysis.sample_uniform(0.2, 8);
        assert_ne!(a.experiments(), c.experiments());
    });
}

#[test]
fn inference_identical_across_thread_counts() {
    let (config, tol) = &tiny_suite()[3]; // stencil
    let kernel = config.build();

    let run_with_pool = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let analysis = Analysis::new(kernel.as_ref(), Classifier::new(*tol));
            let samples = analysis.sample_uniform(0.2, 5);
            let inference = analysis.infer(&samples, FilterMode::PerSite);
            (samples, inference)
        })
    };

    let (s1, i1) = run_with_pool(1);
    let (s4, i4) = run_with_pool(4);
    assert_eq!(s1.experiments(), s4.experiments());
    assert_eq!(i1.boundary, i4.boundary);
    assert_eq!(i1.prop_hits, i4.prop_hits);
    assert_eq!(i1.sig_injections, i4.sig_injections);
}

/// The affine threshold sweep runs its seed chunks on the ambient pool.
/// Its thresholds (bit for bit), counts and the affine mask digest must
/// not depend on the worker count.
#[test]
fn affine_sweep_identical_across_thread_counts() {
    let lu = ftb_kernels::KernelConfig::Lu(ftb_kernels::LuConfig {
        n: 24,
        block: 8,
        ..ftb_kernels::LuConfig::small()
    });
    let jacobi = &tiny_suite()[7];
    for (config, tol) in [(&lu, 3e-5), (&jacobi.0, jacobi.1)] {
        let (golden, ddg) = config.build().golden_with_ddg();
        let acfg = AffineConfig::default();
        let envelope = affine_forward(&ddg, &golden, &ForwardConfig { widen: 0.0 }, &acfg).unwrap();
        let run_with_pool = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let b = pool.install(|| affine_bound(&ddg, tol, 1.0, &acfg, None).unwrap());
            let digest = safe_bit_masks(&envelope, &b.boundary(), MaskSource::Affine).digest();
            let bits: Vec<u64> = b.thresholds.iter().map(|t| t.to_bits()).collect();
            (bits, b.n_tightened, b.n_swept, digest)
        };
        let serial = run_with_pool(1);
        assert!(serial.1 > 0, "{config:?}: the sweep tightens nothing");
        assert!(serial.2 > acfg.budget, "{config:?}: one chunk only");
        for threads in [2, 12, 64] {
            assert!(
                run_with_pool(threads) == serial,
                "{config:?}: {threads} workers differ from 1"
            );
        }
    }
}

#[test]
fn exhaustive_campaign_identical_across_thread_counts() {
    let (config, tol) = &tiny_suite()[5]; // gemm
    let kernel = config.build();
    let run_with_pool = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| Analysis::new(kernel.as_ref(), Classifier::new(*tol)).exhaustive())
    };
    assert_eq!(run_with_pool(1), run_with_pool(3));
}

/// The streamed extraction path keeps per-worker scratch in
/// thread-locals; boundary inference over it must still be independent
/// of how Rayon schedules experiments onto workers.
#[test]
fn streamed_inference_identical_across_thread_counts() {
    let (config, tol) = &tiny_suite()[7]; // jacobi
    let kernel = config.build();

    let run_with_pool = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let analysis = Analysis::new(kernel.as_ref(), Classifier::new(*tol));
            let samples = analysis.sample_uniform(0.2, 11);
            let inference = analysis.infer(&samples, FilterMode::PerSite);
            (samples, inference, analysis.exhaustive())
        })
    };

    let (s1, i1, e1) = run_with_pool(1);
    let (s2, i2, e2) = run_with_pool(2);
    let (s8, i8, e8) = run_with_pool(8);
    assert_eq!(s1.experiments(), s2.experiments());
    assert_eq!(s1.experiments(), s8.experiments());
    assert_eq!(i1.boundary, i2.boundary);
    assert_eq!(i1.boundary, i8.boundary);
    assert_eq!(i1.prop_hits, i8.prop_hits);
    assert_eq!(i1.sig_injections, i8.sig_injections);
    assert_eq!(e1, e2);
    assert_eq!(e1, e8);
}

/// `RAYON_NUM_THREADS` shapes the default pool size, and results do not
/// depend on it.
#[test]
fn rayon_num_threads_env_is_honoured_and_benign() {
    let (config, tol) = &tiny_suite()[4]; // matvec
    let kernel = config.build();
    let infer = || {
        let analysis = Analysis::new(kernel.as_ref(), Classifier::new(*tol));
        let samples = analysis.sample_uniform(0.3, 13);
        analysis.infer(&samples, FilterMode::PerSite)
    };

    let baseline = infer();
    std::env::set_var("RAYON_NUM_THREADS", "3");
    assert_eq!(rayon::current_num_threads(), 3);
    let under_env = infer();
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(baseline.boundary, under_env.boundary);
    assert_eq!(baseline.prop_hits, under_env.prop_hits);
}

#[test]
fn adaptive_trajectory_is_reproducible() {
    let (config, tol) = &tiny_suite()[4];
    with_analysis(config, *tol, |_, analysis| {
        let cfg = AdaptiveConfig {
            seed: 9,
            ..Default::default()
        };
        let a = analysis.adaptive(&cfg);
        let b = analysis.adaptive(&cfg);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.samples.experiments(), b.samples.experiments());
        assert_eq!(a.inference.boundary, b.inference.boundary);
    });
}

/// Workers claim experiments from a shared counter, so which experiments
/// share a fold partial differs from run to run. Boundary inference and
/// the adaptive trajectory must not: repeated runs under 2 and 12
/// workers reproduce the 1-worker result byte for byte, on CG, whose
/// experiment costs vary most.
#[test]
fn repeated_runs_identical_under_self_scheduling() {
    let (config, tol) = &tiny_suite()[0]; // cg
    let kernel = config.build();
    let run_with_pool = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let analysis = Analysis::new(kernel.as_ref(), Classifier::new(*tol));
            let samples = analysis.sample_uniform(0.3, 21);
            let inferred = analysis.infer(&samples, FilterMode::PerSite);
            let adaptive = analysis.adaptive(&AdaptiveConfig {
                seed: 21,
                ..Default::default()
            });
            (
                serde_json::to_string(&inferred.boundary).unwrap(),
                inferred.prop_hits,
                adaptive.rounds,
                adaptive.samples.experiments().to_vec(),
                serde_json::to_string(&adaptive.inference.boundary).unwrap(),
            )
        })
    };
    let serial = run_with_pool(1);
    for threads in [2, 12] {
        for repeat in 0..3 {
            assert!(
                run_with_pool(threads) == serial,
                "{threads} workers, repeat {repeat}: result differs from 1 worker"
            );
        }
    }
}

/// The serial-vs-parallel characterization itself: for the acceptance
/// trio (lu, fft, stencil) the per-site outcome distributions under
/// 1-, 4- and 8-thread pools must be indistinguishable — every pairwise
/// total-variation distance exactly zero, `deterministic` set. This is
/// the same artifact `ftb analyze characterize` gates in CI.
#[test]
fn characterize_reports_zero_tvd_across_pools() {
    for idx in [1usize, 2, 3] {
        // lu, fft, stencil
        let (config, tol) = &tiny_suite()[idx];
        let kernel = config.build();
        let inj = ftb_inject::Injector::new(kernel.as_ref(), Classifier::new(*tol));
        let report = ftb_inject::characterize(&inj, &[1, 4, 8]);
        assert_eq!(report.thread_counts, vec![1, 4, 8], "{config:?}");
        assert_eq!(report.runs.len(), 3, "{config:?}");
        assert_eq!(report.pairs.len(), 3, "{config:?}: 1↔4, 1↔8, 4↔8");
        assert!(
            report.deterministic,
            "{config:?}: outcome distribution depends on pool size"
        );
        for pair in &report.pairs {
            assert_eq!(
                pair.max_tvd, 0.0,
                "{config:?}: {} vs {} threads diverge at site {:?}",
                pair.threads_a, pair.threads_b, pair.worst_site
            );
            assert_eq!(pair.diverging_sites, 0, "{config:?}");
        }
        // the histograms really partition the whole experiment space
        for run in &report.runs {
            assert_eq!(run.histograms.len(), report.n_sites, "{config:?}");
            assert_eq!(
                run.masked + run.sdc + run.crash,
                report.n_experiments,
                "{config:?}"
            );
        }
    }
}

#[test]
fn golden_runs_identical_across_rebuilds() {
    for (config, _) in tiny_suite() {
        let g1 = config.build().golden();
        let g2 = config.build().golden();
        assert_eq!(g1, g2);
    }
}
