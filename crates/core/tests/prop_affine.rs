//! Property tests for the affine-form abstract domain: soundness and
//! tightness relative to the interval domain on synthetic dependence
//! graphs, budget monotonicity of the condensation rule, chunk
//! independence of the threshold sweep, and the influence slice's
//! `Masked` certificates against exhaustive ground truth on real
//! kernels.

use ftb_core::absint::{
    affine_bound, affine_forward, forward_pass, influence_slice, AffineConfig, ForwardConfig,
};
use ftb_core::{static_bound, StaticBoundConfig};
use ftb_inject::{Classifier, Injector};
use ftb_kernels::{GemmConfig, GemmKernel, JacobiConfig, JacobiKernel, Kernel};
use ftb_trace::{Ddg, Precision, StaticId, Tracer};
use proptest::prelude::*;

/// Build a golden run holding exactly `vals`.
fn golden_of(vals: &[f64]) -> ftb_trace::GoldenRun {
    let mut t = Tracer::golden(Precision::F64);
    for &v in vals {
        t.value(StaticId(0), v);
    }
    t.finish_golden(vals.to_vec())
}

/// Build a synthetic instrumented DDG over `n` sites from raw edge
/// material: each tuple picks a def below its use pseudo-randomly and
/// carries an amplification plus a signed-derivative fraction in
/// `[-1, 1]` (`|dfrac| > 0.95` degrades the edge to sign-unknown, the
/// interval transfer). Uses are assigned round-robin over `1..n` and
/// sorted, preserving the recorder's non-decreasing-use invariant; the
/// last site is the output sink, so early sites with no forward path
/// to it form genuine empty cones.
fn build_ddg(n: usize, edges: &[(u64, f64, f64)]) -> Ddg {
    let mut es: Vec<(u32, u32, f64, f64)> = edges
        .iter()
        .enumerate()
        .map(|(i, &(dsel, amp, dfrac))| {
            let u = 1 + (i % (n - 1));
            let d = (dsel % u as u64) as u32;
            let dcoef = if dfrac.abs() > 0.95 {
                f64::NAN
            } else {
                amp * dfrac
            };
            (d, u as u32, amp, dcoef)
        })
        .collect();
    es.sort_by_key(|e| e.1);
    let mut ddg = Ddg {
        n_sites: n,
        ..Ddg::default()
    };
    for (d, u, a, dc) in es {
        ddg.defs.push(d);
        ddg.uses.push(u);
        ddg.amps.push(a);
        ddg.dcoefs.push(dc);
    }
    ddg.out_sinks.push(((n - 1) as u32, 1.0));
    ddg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness floor of the forward sweep: the affine envelopes always
    /// contain the golden values, for any widening and budget.
    #[test]
    fn affine_envelopes_contain_golden(
        vals in proptest::collection::vec(0.5f64..10.0, 3..14),
        edges in proptest::collection::vec(
            (any::<u64>(), 0.1f64..3.0, -1.0f64..1.0), 2..40),
        widen in 0.0f64..0.5,
        budget in 1usize..64,
    ) {
        let n = vals.len();
        let ddg = build_ddg(n, &edges);
        let golden = golden_of(&vals);
        let fa = affine_forward(
            &ddg, &golden, &ForwardConfig { widen }, &AffineConfig { budget },
        ).unwrap();
        prop_assert!(fa.contains_golden(&golden));
    }

    /// Domination: at equal widening the affine radii are never wider
    /// than the interval radii, site by site — the affine domain may
    /// only cancel mass the interval domain double-counts.
    #[test]
    fn affine_never_wider_than_interval(
        vals in proptest::collection::vec(0.5f64..10.0, 3..14),
        edges in proptest::collection::vec(
            (any::<u64>(), 0.1f64..3.0, -1.0f64..1.0), 2..40),
        widen in 0.0f64..0.5,
        budget in 1usize..64,
    ) {
        let n = vals.len();
        let ddg = build_ddg(n, &edges);
        let golden = golden_of(&vals);
        let cfg = ForwardConfig { widen };
        let fi = forward_pass(&ddg, &golden, &cfg).unwrap();
        let fa = affine_forward(&ddg, &golden, &cfg, &AffineConfig { budget }).unwrap();
        for (i, (&ra, &ri)) in fa.radii.iter().zip(&fi.radii).enumerate() {
            prop_assert!(
                ra <= ri,
                "site {i}: affine radius {ra:e} wider than interval {ri:e}"
            );
        }
    }

    /// The condensation rule is monotone: a larger noise-symbol budget
    /// condenses later, so its envelopes are tighter or equal.
    #[test]
    fn condensation_is_monotone_in_the_budget(
        vals in proptest::collection::vec(0.5f64..10.0, 3..14),
        edges in proptest::collection::vec(
            (any::<u64>(), 0.1f64..3.0, -1.0f64..1.0), 2..40),
        widen in 1e-3f64..0.5,
        small in 1usize..8,
        extra in 0usize..56,
    ) {
        let n = vals.len();
        let ddg = build_ddg(n, &edges);
        let golden = golden_of(&vals);
        let cfg = ForwardConfig { widen };
        let lo = affine_forward(&ddg, &golden, &cfg, &AffineConfig { budget: small }).unwrap();
        let hi = affine_forward(
            &ddg, &golden, &cfg, &AffineConfig { budget: small + extra },
        ).unwrap();
        for (i, (&rh, &rl)) in hi.radii.iter().zip(&lo.radii).enumerate() {
            prop_assert!(
                rh <= rl,
                "site {i}: budget {} radius {rh:e} looser than budget {} radius {rl:e}",
                small + extra, small
            );
        }
    }

    /// The affine boundary degrades gracefully: its thresholds are never
    /// below the interval backward pass at the same tolerance and
    /// safety, and every empty-cone site is certified outright.
    #[test]
    fn affine_bound_never_looser_than_backward(
        vals in proptest::collection::vec(0.5f64..10.0, 3..14),
        edges in proptest::collection::vec(
            (any::<u64>(), 0.1f64..3.0, -1.0f64..1.0), 2..40),
        tolerance in 1e-8f64..1e-2,
        budget in 1usize..64,
    ) {
        let n = vals.len();
        let ddg = build_ddg(n, &edges);
        let sb = static_bound(&ddg, &StaticBoundConfig::new(tolerance)).unwrap();
        let ab = affine_bound(
            &ddg, tolerance, 1.0, &AffineConfig { budget }, None,
        ).unwrap();
        let slice = influence_slice(&ddg);
        for i in 0..n {
            prop_assert!(
                ab.thresholds[i] >= sb.thresholds[i],
                "site {i}: affine {:e} below interval {:e}",
                ab.thresholds[i], sb.thresholds[i]
            );
            if !slice.reach[i] {
                prop_assert_eq!(ab.thresholds[i], f64::MAX);
            }
        }
        prop_assert_eq!(ab.n_dead, slice.n_dead);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chunk independence, the property the parallel sweep relies on: a
    /// site's affine threshold never depends on which other sites share
    /// its chunk. Every swept site's threshold is bit-identical at chunk
    /// widths 1, 7, 32 and 64 and in a sweep of that site alone.
    #[test]
    fn swept_thresholds_ignore_the_chunking(
        n in 3usize..120,
        edges in proptest::collection::vec(
            (any::<u64>(), 0.1f64..3.0, -1.0f64..1.0), 2..400),
        tolerance in 1e-8f64..1e-2,
    ) {
        let ddg = build_ddg(n, &edges);
        let sweep = |budget: usize, targets: Option<&[usize]>| {
            affine_bound(&ddg, tolerance, 1.0, &AffineConfig { budget }, targets).unwrap()
        };
        let reference = sweep(1, None);
        for budget in [7, 32, 64] {
            let b = sweep(budget, None);
            prop_assert_eq!(b.n_swept, reference.n_swept);
            prop_assert_eq!(b.n_tightened, reference.n_tightened);
            for (i, (x, r)) in b.thresholds.iter().zip(&reference.thresholds).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), r.to_bits(),
                    "site {}: budget {} gives {:e}, budget 1 gives {:e}", i, budget, x, r
                );
            }
        }
        let slice = influence_slice(&ddg);
        for s in (0..n).filter(|&s| slice.reach[s]) {
            let alone = sweep(32, Some(&[s]));
            prop_assert_eq!(alone.n_swept, 1);
            prop_assert_eq!(
                alone.thresholds[s].to_bits(), reference.thresholds[s].to_bits(),
                "site {}: swept alone {:e}, in chunks {:e}",
                s, alone.thresholds[s], reference.thresholds[s]
            );
        }
    }
}

proptest! {
    // exhaustive-per-dead-site campaigns are the expensive part; a few
    // configurations cover the claim
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Influence-slice certificates are exact on Jacobi: a site whose
    /// forward cone is empty is bit-for-bit `Masked` under exhaustive
    /// injection. With a per-sweep residual check the traced residual
    /// magnitudes themselves feed no sink, so the property is
    /// non-vacuous here (one dead site per sweep).
    #[test]
    fn slice_empty_jacobi_sites_are_exhaustively_masked(
        grid in 3u32..6,
        sweeps in 4usize..12,
        seed in 1u64..500,
    ) {
        let k = JacobiKernel::new(JacobiConfig {
            grid: grid as usize,
            sweeps,
            precision: Precision::F64,
            seed,
            fine_grained: false,
            residual_every: 1,
            tweak: None,
        });
        let (_, ddg) = k.golden_with_ddg();
        let slice = influence_slice(&ddg);
        prop_assert!(slice.n_dead > 0, "expected dead residual-tail sites");
        let inj = Injector::new(&k, Classifier::new(1e-4));
        for site in (0..ddg.n_sites).filter(|&s| !slice.reach[s]) {
            for bit in 0..64u8 {
                let e = inj.run_one(site, bit);
                // a flip that itself lands on a non-finite value is
                // intercepted by the crash band (the masks classify it
                // CrashLikely, never CertifiedMasked); every finite
                // flip at an empty-cone site must vanish
                if e.injected_err.is_finite() {
                    prop_assert!(
                        e.outcome.is_masked(),
                        "dead site {site} bit {bit}: {:?}",
                        e.outcome
                    );
                }
            }
        }
    }

    /// Same property on GEMM, where every MAC feeds an output element:
    /// the slice certifies nothing, and claims nothing false.
    #[test]
    fn slice_empty_gemm_sites_are_exhaustively_masked(
        n in 3usize..7,
        seed in 1u64..500,
    ) {
        let k = GemmKernel::new(GemmConfig {
            n,
            precision: Precision::F64,
            seed,
        });
        let (_, ddg) = k.golden_with_ddg();
        let slice = influence_slice(&ddg);
        let inj = Injector::new(&k, Classifier::new(1e-6));
        for site in (0..ddg.n_sites).filter(|&s| !slice.reach[s]) {
            for bit in 0..64u8 {
                let e = inj.run_one(site, bit);
                if e.injected_err.is_finite() {
                    prop_assert!(
                        e.outcome.is_masked(),
                        "dead site {site} bit {bit}: {:?}",
                        e.outcome
                    );
                }
            }
        }
    }
}
