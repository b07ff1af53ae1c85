//! Property tests for the lane-batched SoA execution engine.
//!
//! The batched engine retires lanes mid-sweep (trap, bitwise
//! reconvergence, contraction certificate) and compacts survivors, so
//! the two properties most at risk are (1) a retired lane's
//! `Experiment` drifting from what the same fault produces alone, and
//! (2) the result depending on which faults happen to share a chunk.
//! Both must hold bitwise for every lane width and plan order —
//! including widths above `MAX_BATCH_LANES`, which the planner splits
//! into chunks of at most that many lanes.

use ftb_inject::{Classifier, Experiment, Injector};
use ftb_integration::tiny_suite;
use ftb_kernels::{KernelConfig, MAX_BATCH_LANES};
use ftb_trace::FaultSpec;
use proptest::prelude::*;

/// tiny_suite indices of the batch-capable kernels: lu, gemm, jacobi.
const BATCHABLE: [usize; 3] = [1, 5, 7];

/// Lane widths under test: 2 to 9, which kernels run at directly, and
/// three above `MAX_BATCH_LANES`, which run as chunks of at most that
/// width.
const WIDTHS: [usize; 11] = [2, 3, 4, 5, 6, 7, 8, 9, 17, 24, 33];

fn pick(idx: usize) -> (KernelConfig, f64) {
    tiny_suite().swap_remove(BATCHABLE[idx])
}

/// Everything observable about an experiment, with errors as raw bits.
fn key(e: &Experiment) -> (usize, u8, u64, u64, u8) {
    (
        e.site,
        e.bit,
        e.injected_err.to_bits(),
        e.output_err.to_bits(),
        e.outcome.code(),
    )
}

/// Map proptest's unit-interval draws onto a concrete fault plan.
fn make_plan(raw: &[(f64, u8)], n_sites: usize, bits: u8) -> Vec<FaultSpec> {
    raw.iter()
        .map(|&(f, b)| FaultSpec {
            site: ((f * n_sites as f64) as usize).min(n_sites - 1),
            bit: b % bits,
        })
        .collect()
}

/// Deterministic Fisher–Yates driven by a splitmix64 stream.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

proptest! {
    // 14 cases keep about 10 of them at the widths 2 to 9
    #![proptest_config(ProptestConfig::with_cases(14))]

    /// A fault that runs inside a batch — including lanes retired early
    /// by trap, bitwise reconvergence, or a contraction certificate —
    /// yields the same `Experiment`, bit for bit, as running that fault
    /// solo: both as a scalar snapshot-resumed run and as a
    /// single-lane chunk through the batched engine.
    #[test]
    fn early_retired_lane_matches_solo_run(
        kernel_idx in 0usize..3,
        width in 0..WIDTHS.len(),
        raw in proptest::collection::vec((0.0f64..1.0, 0u8..64), 1..20),
    ) {
        let lanes = WIDTHS[width];
        let (config, tol) = pick(kernel_idx);
        let kernel = config.build();
        let batched_inj = Injector::new(kernel.as_ref(), Classifier::new(tol))
            .with_snapshots(usize::MAX)
            .with_certified_exits()
            .with_batch_lanes(lanes);
        prop_assert!(batched_inj.batch_binding().is_some());
        let plan = make_plan(&raw, batched_inj.n_sites(), batched_inj.bits());
        let batched = batched_inj.run_many(&plan);

        let scalar_inj = Injector::new(kernel.as_ref(), Classifier::new(tol))
            .with_snapshots(usize::MAX)
            .with_certified_exits();
        for (fault, exp) in plan.iter().zip(&batched) {
            let scalar_solo = scalar_inj.run_many(&[*fault])[0];
            prop_assert_eq!(
                key(exp),
                key(&scalar_solo),
                "{:?} fault {:?}: batched (lanes {}) vs scalar solo",
                config, fault, lanes
            );
            let batched_solo = batched_inj.run_many(&[*fault])[0];
            prop_assert_eq!(
                key(exp),
                key(&batched_solo),
                "{:?} fault {:?}: full batch (lanes {}) vs singleton chunk",
                config, fault, lanes
            );
        }
    }

    /// Batch results are a pure function of the fault set: reordering
    /// the plan (which reshuffles chunk membership) and changing the
    /// lane width both leave every per-fault `Experiment` bitwise
    /// unchanged.
    #[test]
    fn batch_invariant_to_lane_order_and_count(
        kernel_idx in 0usize..3,
        width_a in 0..WIDTHS.len(),
        width_b in 0..WIDTHS.len(),
        raw in proptest::collection::vec((0.0f64..1.0, 0u8..64), 2..24),
        perm_seed in any::<u64>(),
    ) {
        let (lanes_a, lanes_b) = (WIDTHS[width_a], WIDTHS[width_b]);
        let (config, tol) = pick(kernel_idx);
        let kernel = config.build();
        let inj = |lanes: usize| {
            Injector::new(kernel.as_ref(), Classifier::new(tol))
                .with_snapshots(usize::MAX)
                .with_certified_exits()
                .with_batch_lanes(lanes)
        };
        let inj_a = inj(lanes_a);
        let plan = make_plan(&raw, inj_a.n_sites(), inj_a.bits());
        let mut shuffled = plan.clone();
        shuffle(&mut shuffled, perm_seed);

        let mut a: Vec<_> = inj_a.run_many(&plan).iter().map(key).collect();
        let mut b: Vec<_> = inj(lanes_b).run_many(&shuffled).iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(
            a, b,
            "{:?}: lanes {} (plan order) vs lanes {} (shuffled)",
            config, lanes_a, lanes_b
        );
    }
}

/// A snapshot group wider than `MAX_BATCH_LANES` — every fault served by
/// one boundary — runs at widths 17, 24 and 33 as chunks of at most
/// `MAX_BATCH_LANES` lanes, each fault's record bitwise equal to its
/// scalar solo run.
#[test]
fn groups_wider_than_the_lane_cap_match_scalar_solo_runs() {
    for kernel_idx in 0..BATCHABLE.len() {
        let (config, tol) = pick(kernel_idx);
        let kernel = config.build();
        let inj = |lanes: usize| {
            Injector::new(kernel.as_ref(), Classifier::new(tol))
                .with_snapshots(usize::MAX)
                .with_certified_exits()
                .with_batch_lanes(lanes)
        };
        let scalar = inj(1);
        let store = scalar
            .snapshot_store()
            .expect("batch-capable kernels snapshot");
        // every site served by the last boundary, all bits of each
        let (last, _) = store.for_site(scalar.n_sites() - 1).expect("served");
        let plan: Vec<FaultSpec> = (0..scalar.n_sites())
            .filter(|&s| store.for_site(s).is_some_and(|(i, _)| i == last))
            .flat_map(|site| (0..scalar.bits()).map(move |bit| FaultSpec { site, bit }))
            .take(3 * MAX_BATCH_LANES)
            .collect();
        assert!(
            plan.len() > 2 * MAX_BATCH_LANES,
            "{config:?}: group too narrow"
        );
        let want: Vec<_> = plan
            .iter()
            .map(|f| key(&scalar.run_many(&[*f])[0]))
            .collect();
        for lanes in [17, 24, 33] {
            let got: Vec<_> = inj(lanes).run_many(&plan).iter().map(key).collect();
            assert_eq!(got, want, "{config:?}: {lanes} lanes vs scalar solo");
        }
    }
}
