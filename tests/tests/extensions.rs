//! Integration tests for the extension features: streamed inference,
//! the pilot-grouping baseline, and compact golden storage — exercised
//! across kernels rather than on a single fixture.

use ftb_core::prelude::*;
use ftb_integration::{reference_extraction, tiny_suite, with_analysis};
use ftb_trace::CompactGolden;

#[test]
fn pilot_baseline_runs_on_every_kernel() {
    for (config, tol) in tiny_suite() {
        with_analysis(&config, tol, |kernel, analysis| {
            let est = pilot_estimate(analysis.injector(), &PilotConfig::default());
            assert_eq!(est.per_site.len(), analysis.n_sites());
            assert!(
                (est.samples.len() as u64) <= analysis.golden().n_experiments(),
                "{}: pilot cost exceeds exhaustive",
                kernel.name()
            );
            let truth = analysis.exhaustive();
            // pilot overall estimate is in the ballpark of the truth for
            // these small kernels (grouping assumption approximately holds)
            let err = (est.overall_sdc_ratio() - truth.overall_sdc_ratio()).abs();
            assert!(err < 0.20, "{}: pilot overall err {err}", kernel.name());
        });
    }
}

#[test]
fn compact_golden_roundtrips_every_kernel() {
    for (config, _) in tiny_suite() {
        let kernel = config.build();
        let golden = kernel.golden();
        let compact = CompactGolden::from_golden(&golden);
        assert_eq!(compact.to_golden(), golden, "{}", kernel.name());
        assert!(
            compact.memory_bytes() <= golden.memory_bytes(),
            "{}: compaction grew the trace",
            kernel.name()
        );
    }
}

#[test]
fn streaming_inference_matches_buffered_on_every_kernel() {
    for (config, tol) in tiny_suite() {
        with_analysis(&config, tol, |kernel, analysis| {
            let samples = analysis.sample_uniform(0.1, 77);
            let streamed = analysis.infer(&samples, FilterMode::PerSite);
            // reference: Algorithm 1 + the per-site filter over fully
            // recorded faulty traces
            let mins = samples.min_sdc_injected(analysis.n_sites());
            let mut buffered = Boundary::zero(analysis.n_sites());
            for e in samples.masked() {
                reference_extraction(analysis.injector(), e.site, e.bit, |site, err| {
                    if err < mins[site] {
                        buffered.observe(site, err);
                    }
                });
            }
            assert_eq!(
                buffered,
                streamed.boundary,
                "{}: streaming inference differs",
                kernel.name()
            );
        });
    }
}
