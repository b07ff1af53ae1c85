//! Differential harness for the compositional analyzer: composed
//! boundaries vs exhaustive ground truth, vs the monolithic inferred
//! boundary, across snapshot and lane configurations and thread counts,
//! with the propagation folds it consumes checked against the buffered
//! reference.

use ftb_core::prelude::*;
use ftb_core::{compose_analysis, ComposeConfig};
use ftb_inject::{Classifier, Injector};
use ftb_integration::{reference_extraction, tiny_suite};
use ftb_kernels::KernelConfig;

/// The jacobi / gemm / cg members of the tiny suite.
fn compose_suite() -> Vec<(KernelConfig, f64)> {
    tiny_suite()
        .into_iter()
        .filter(|(k, _)| matches!(k.name(), "jacobi" | "gemm" | "cg"))
        .collect()
}

fn cfg(tol: f64) -> ComposeConfig {
    ComposeConfig {
        rate: 0.4,
        seed: 41,
        ..ComposeConfig::new(tol)
    }
}

#[test]
fn composed_is_precise_and_conservative_vs_exhaustive() {
    for (config, tol) in compose_suite() {
        let kernel = config.build();
        let inj = Injector::new(kernel.as_ref(), Classifier::new(tol));
        let r = compose_analysis(kernel.as_ref(), &config, &inj, &cfg(tol), None).unwrap();
        let truth = inj.exhaustive();

        let eval =
            BoundaryEval::against_exhaustive(&Predictor::new(inj.golden(), &r.boundary), &truth);
        assert!(
            eval.precision >= 0.95,
            "{}: composed precision {:.4} below 0.95",
            config.name(),
            eval.precision
        );

        // conservative: no composed threshold may reach a site's
        // smallest SDC-causing error. CG is the paper's non-monotonic
        // hard case (its Figure 5): a few *local folds* there certify a
        // masked perturbation above an SDC error the campaign never
        // sampled — the same limitation the monolithic inferred
        // boundary has. Composition itself must add no unsoundness, so
        // extrapolated sites are held to zero violations everywhere.
        let min_sdc = min_sdc_per_site(inj.golden(), &truth);
        let violating: Vec<usize> = (0..inj.n_sites())
            .filter(|&s| min_sdc[s].is_finite() && r.boundary.threshold(s) >= min_sdc[s])
            .collect();
        let extrapolated_violations = violating.iter().filter(|&&s| r.extrapolated[s]).count();
        assert_eq!(
            extrapolated_violations,
            0,
            "{}: budget extrapolation certified above a known SDC error",
            config.name()
        );
        if config.name() == "cg" {
            // baseline: the monolithic inferred boundary on the union of
            // the same local experiments. Composition may not violate on
            // more sites than plain Algorithm-1 inference does.
            let mut samples = SampleSet::new();
            for c in r.campaigns.iter().flatten() {
                for e in &c.local_experiments {
                    samples.insert(*e);
                }
            }
            let inferred = infer_boundary(&inj, &samples, FilterMode::PerSite);
            let inferred_violations = (0..inj.n_sites())
                .filter(|&s| min_sdc[s].is_finite() && inferred.boundary.threshold(s) >= min_sdc[s])
                .count();
            assert!(
                violating.len() <= inferred_violations,
                "cg: composed violates on {} sites, monolithic inferred on {}",
                violating.len(),
                inferred_violations
            );
        } else {
            assert_eq!(
                violating.len(),
                0,
                "{}: sites {violating:?} certified at/above a known SDC error",
                config.name()
            );
        }

        // and it is not vacuous: near-total coverage, high recall
        assert!(
            r.boundary.coverage() > 0.9,
            "{}: coverage {:.3}",
            config.name(),
            r.boundary.coverage()
        );
        assert!(
            eval.recall > 0.85,
            "{}: recall {:.3}",
            config.name(),
            eval.recall
        );
    }
}

#[test]
fn composed_never_looser_than_monolithic_inferred_on_local_sites() {
    // The monolithic baseline is fed the union of the per-section LOCAL
    // experiments (inlet probes excluded: they would inject at section
    // t's frontier from section t+1's campaign and change the per-site
    // SDC floors), so both analyses fold the same observations. On every
    // non-extrapolated site, composition can then only discard
    // information (cross-section propagation), never invent it.
    for (config, tol) in compose_suite() {
        let kernel = config.build();
        let inj = Injector::new(kernel.as_ref(), Classifier::new(tol));
        let r = compose_analysis(kernel.as_ref(), &config, &inj, &cfg(tol), None).unwrap();

        let mut samples = SampleSet::new();
        for c in r.campaigns.iter().flatten() {
            for e in &c.local_experiments {
                samples.insert(*e);
            }
        }
        let inferred = infer_boundary(&inj, &samples, FilterMode::PerSite);
        let mut shared = 0usize;
        for site in 0..inj.n_sites() {
            if r.extrapolated[site] {
                continue;
            }
            assert!(
                r.boundary.threshold(site) <= inferred.boundary.threshold(site),
                "{}: composed {} > inferred {} at non-extrapolated site {site}",
                config.name(),
                r.boundary.threshold(site),
                inferred.boundary.threshold(site)
            );
            shared += 1;
        }
        assert!(shared > 0, "{}: no shared sites compared", config.name());
    }
}

#[test]
fn composed_is_identical_across_extraction_paths() {
    for (config, tol) in compose_suite() {
        let kernel = config.build();
        // the folds phase 2 of every section campaign consumes: streamed
        // extraction must reproduce the buffered reference bit for bit
        let probe = Injector::new(kernel.as_ref(), Classifier::new(tol));
        let mid = probe.bits() / 2;
        for site in 0..probe.n_sites() {
            for bit in [mid - 8, mid] {
                let (mut streamed, mut reference) = (Vec::new(), Vec::new());
                let s = probe.extract_propagation(site, bit, probe.n_sites(), |j, d| {
                    streamed.push((j, d.to_bits()))
                });
                let r = reference_extraction(&probe, site, bit, |j, d| {
                    reference.push((j, d.to_bits()))
                });
                assert_eq!(
                    (s, streamed),
                    (r, reference),
                    "{} site {site} bit {bit}",
                    config.name()
                );
            }
        }
        // and the composed result is the same whether the section
        // campaigns run from scratch, snapshot-resumed, or lane-batched
        let mut results = Vec::new();
        for (snapshots, lanes) in [(false, 1usize), (true, 1), (true, 8)] {
            let mut inj = Injector::new(kernel.as_ref(), Classifier::new(tol));
            if snapshots {
                inj = inj.with_snapshots(usize::MAX).with_batch_lanes(lanes);
            }
            let r = compose_analysis(kernel.as_ref(), &config, &inj, &cfg(tol), None).unwrap();
            results.push(((snapshots, lanes), r));
        }
        let bits =
            |b: &Boundary| -> Vec<u64> { b.thresholds().iter().map(|t| t.to_bits()).collect() };
        let reference = bits(&results[0].1.boundary);
        for ((snapshots, lanes), r) in &results[1..] {
            assert_eq!(
                bits(&r.boundary),
                reference,
                "{}: snapshots {snapshots}, {lanes} lanes diverged from scratch",
                config.name()
            );
            assert_eq!(r.summaries, results[0].1.summaries, "{}", config.name());
            assert_eq!(r.budgets, results[0].1.budgets, "{}", config.name());
        }
    }
}

#[test]
fn composed_is_identical_across_thread_counts() {
    let (config, tol) = tiny_suite()
        .into_iter()
        .find(|(k, _)| k.name() == "jacobi")
        .unwrap();
    let kernel = config.build();
    let run = || {
        let inj = Injector::new(kernel.as_ref(), Classifier::new(tol));
        let r = compose_analysis(kernel.as_ref(), &config, &inj, &cfg(tol), None).unwrap();
        (
            r.boundary
                .thresholds()
                .iter()
                .map(|t| t.to_bits())
                .collect::<Vec<u64>>(),
            r.summaries,
        )
    };
    let reference = run();
    for threads in [1usize, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool.install(run);
        assert_eq!(got, reference, "{threads} threads diverged");
    }
}

/// FNV-1a digest of the section summaries' JSON: the exact bytes a
/// section ledger persists.
fn summaries_digest(summaries: &[ftb_inject::SectionSummary]) -> u64 {
    let mut h = ftb_trace::Fnv1a::new();
    h.write(serde_json::to_string(summaries).unwrap().as_bytes());
    h.finish()
}

#[test]
fn section_summaries_match_pinned_digests() {
    // Digests of summaries folded from whole-program extraction runs: a
    // phase 2 that stops at the section's end or resumes from a snapshot
    // must fold exactly the same values.
    let mut cases: Vec<(&str, KernelConfig, ComposeConfig, u64)> = Vec::new();
    for (config, tol) in compose_suite() {
        let pinned = match config.name() {
            "jacobi" => 0x3444_9c25_b3c0_e914,
            "gemm" => 0x34e7_034f_9172_fc7e,
            "cg" => 0xc89d_7aae_a0f3_eb0e,
            other => unreachable!("{other} is not in the compose suite"),
        };
        cases.push(("tiny", config, cfg(tol), pinned));
    }
    let grid = 8;
    cases.push((
        "grid 8",
        KernelConfig::Cg(ftb_kernels::CgConfig {
            grid,
            max_iters: 4 * grid * grid,
            ..ftb_kernels::CgConfig::small()
        }),
        ComposeConfig {
            seed: 41,
            ..ComposeConfig::new(0.1)
        },
        0x4bb9_d01d_768c_763f,
    ));
    for (size, config, ccfg, pinned) in cases {
        let kernel = config.build();
        let scratch = Injector::new(kernel.as_ref(), Classifier::new(ccfg.tolerance));
        let policy =
            Injector::new(kernel.as_ref(), Classifier::new(ccfg.tolerance)).with_execution_policy();
        for (path, inj) in [("from scratch", &scratch), ("execution policy", &policy)] {
            let r = compose_analysis(kernel.as_ref(), &config, inj, &ccfg, None).unwrap();
            let got = summaries_digest(&r.summaries);
            let name = config.name();
            assert_eq!(got, pinned, "{size} {name} ({path}): summaries moved");
        }
    }
}
