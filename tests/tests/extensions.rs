//! Integration tests for the extension features: streamed inference,
//! the pilot-grouping baseline, and compact golden recording — exercised
//! across kernels rather than on a single fixture.

use ftb_core::prelude::*;
use ftb_integration::{reference_extraction, tiny_suite, with_analysis};
use ftb_trace::{FaultSpec, RecordMode};

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

/// The golden run is recorded compact; a fault-free `RecordMode::Full`
/// run records the same stream independently, at full width. Every
/// golden value must be bit-equal to it.
#[test]
fn compact_recording_is_lossless_on_every_kernel() {
    for (config, _) in tiny_suite() {
        let kernel = config.build();
        let golden = kernel.golden();
        // a fault site past the end of the run is never reached
        let unreached = FaultSpec {
            site: golden.n_sites(),
            bit: 0,
        };
        let full = kernel.run_injected(unreached, RecordMode::Full);
        assert_eq!(full.injected_err, None, "{}", kernel.name());
        let values = full.values.expect("a Full run records values");
        assert_eq!(values.len(), golden.n_sites(), "{}", kernel.name());
        for (s, v) in values.iter().enumerate() {
            assert_eq!(
                golden.value(s).to_bits(),
                v.to_bits(),
                "{} site {s}",
                kernel.name()
            );
        }
        assert_eq!(full.branches.as_ref(), Some(&golden.branches));
        assert_eq!(full.output, golden.output);
        let full_width = golden.n_sites() * 12 + (golden.branches.len() + golden.output.len()) * 8;
        assert!(
            golden.memory_bytes() < full_width,
            "{}: compact recording is no smaller than full width",
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
