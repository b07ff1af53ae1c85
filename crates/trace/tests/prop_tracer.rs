//! Property tests for the tracer semantics: the invariants every kernel
//! and campaign relies on.

use ftb_trace::bits::Precision;
use ftb_trace::{propagation, FaultSpec, RecordMode, StaticId, Tracer};
use proptest::prelude::*;

const SID: StaticId = StaticId(0);

/// A tiny synthetic "kernel": a chain of multiply-adds over the supplied
/// coefficients, one traced store per step.
fn chain(t: &mut Tracer, coeffs: &[f64]) -> Vec<f64> {
    let mut acc = 1.0;
    for &c in coeffs {
        acc = t.value(SID, acc * 0.5 + c);
    }
    vec![acc]
}

proptest! {
    /// The cursor counts every traced value exactly once, in every mode.
    #[test]
    fn cursor_counts_all_values(coeffs in proptest::collection::vec(-10.0f64..10.0, 1..100)) {
        let mut g = Tracer::golden(Precision::F64);
        chain(&mut g, &coeffs);
        prop_assert_eq!(g.cursor(), coeffs.len());

        let mut u = Tracer::untraced(Precision::F64);
        chain(&mut u, &coeffs);
        prop_assert_eq!(u.cursor(), coeffs.len());
    }

    /// Injecting at a site changes that recorded value by exactly the
    /// bit-flip delta and leaves all earlier values untouched.
    #[test]
    fn fault_is_local_until_its_site(
        coeffs in proptest::collection::vec(-10.0f64..10.0, 2..60),
        site_frac in 0.0f64..1.0,
        bit in 0u8..64,
    ) {
        let site = ((coeffs.len() - 1) as f64 * site_frac) as usize;
        let mut g = Tracer::golden(Precision::F64);
        let gout = chain(&mut g, &coeffs);
        let golden = g.finish_golden(gout);

        let mut f = Tracer::inject(Precision::F64, FaultSpec { site, bit }, RecordMode::Full);
        let fout = chain(&mut f, &coeffs);
        let faulty = f.finish(fout);
        let fvals = faulty.values.as_ref().unwrap();

        for (i, fv) in fvals.iter().enumerate().take(site) {
            prop_assert_eq!(fv.to_bits(), golden.value(i).to_bits(),
                "value before the fault site changed at {}", i);
        }
        let expected = ftb_trace::flip_bit_f64(golden.value(site), bit);
        prop_assert_eq!(fvals[site].to_bits(), expected.to_bits());
    }

    /// Propagation windows never report negative errors, errors before
    /// the injection site are zero, and `compare_len` is bounded by both
    /// runs.
    #[test]
    fn propagation_window_is_sane(
        coeffs in proptest::collection::vec(-10.0f64..10.0, 2..60),
        site_frac in 0.0f64..1.0,
        bit in 0u8..63, // exclude the sign bit of potentially-zero values
    ) {
        let site = ((coeffs.len() - 1) as f64 * site_frac) as usize;
        let mut g = Tracer::golden(Precision::F64);
        let gout = chain(&mut g, &coeffs);
        let golden = g.finish_golden(gout);

        let mut f = Tracer::inject(Precision::F64, FaultSpec { site, bit }, RecordMode::Full);
        let fout = chain(&mut f, &coeffs);
        let faulty = f.finish(fout);

        let p = propagation(&golden, &faulty);
        prop_assert!(p.compare_len <= golden.n_dynamic);
        prop_assert_eq!(p.injected_at, site.min(p.compare_len));
        for (s, e) in p.iter() {
            prop_assert!(e >= 0.0, "negative error at {}", s);
        }
        for s in 0..p.injected_at {
            prop_assert_eq!(p.error_at(s), Some(0.0));
        }
    }

    /// Quantisation to f32 is idempotent through the tracer.
    #[test]
    fn f32_quantisation_is_idempotent(v in -1e30f64..1e30) {
        let mut t = Tracer::untraced(Precision::F32);
        let once = t.value(SID, v);
        let twice = t.value(SID, once);
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    /// Branch events encode (cursor, taken) losslessly.
    #[test]
    fn branch_encoding_roundtrips(
        pattern in proptest::collection::vec(any::<bool>(), 0..50)
    ) {
        let mut t = Tracer::golden(Precision::F64);
        for (i, &b) in pattern.iter().enumerate() {
            t.value(SID, i as f64);
            t.branch(b);
        }
        let g = t.finish_golden(vec![]);
        prop_assert_eq!(g.branches.len(), pattern.len());
        for (i, (&enc, &b)) in g.branches.iter().zip(&pattern).enumerate() {
            prop_assert_eq!((enc & 1) == 1, b);
            prop_assert_eq!((enc >> 1) as usize, i + 1);
        }
    }

    /// An un-faulted full-record run reproduces the golden values exactly
    /// (record mode itself must not perturb the computation).
    #[test]
    fn record_mode_does_not_perturb(coeffs in proptest::collection::vec(-10.0f64..10.0, 1..60)) {
        let mut g = Tracer::golden(Precision::F64);
        let gout = chain(&mut g, &coeffs);
        let golden = g.finish_golden(gout);

        // a fault at a site beyond the run is never applied
        let mut f = Tracer::inject(
            Precision::F64,
            FaultSpec { site: usize::MAX - 1, bit: 0 },
            RecordMode::Full,
        );
        let fout = chain(&mut f, &coeffs);
        let faulty = f.finish(fout);
        let fvals = faulty.values.as_ref().unwrap();
        prop_assert_eq!(fvals.len(), golden.n_sites());
        for (s, fv) in fvals.iter().enumerate() {
            prop_assert_eq!(golden.value(s), *fv);
        }
        prop_assert_eq!(&golden.output, &faulty.output);
    }
}
