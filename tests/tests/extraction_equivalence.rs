//! Differential harness: every execution path against the buffered
//! reference.
//!
//! The paper's §2.2 extractor — record the full faulty trace, compare
//! afterwards ([`Injector::run_one_traced`]) — is kept as the reference.
//! Two paths must be **bit-identical** to it:
//!
//! * streamed propagation extraction ([`Injector::extract_propagation`]),
//!   which compares each faulty run against the shared compact golden
//!   trace while it executes: same `Propagation` folds, same
//!   `Outcome` classifications, same `injected_err`/`output_err`;
//! * every public outcome entry point — `run_many`, `run_batch`,
//!   `exhaustive` and a `ChunkedCampaign` ledger run — across every
//!   kernel, fault site, bit, control-flow shape, snapshot and lane
//!   configuration, and thread pool.

use ftb_inject::{
    read_ledger, CampaignBinding, ChunkedCampaign, Classifier, Experiment, ExtractionSummary,
    Injector,
};
use ftb_integration::{reference_batch, reference_exhaustive, reference_extraction, tiny_suite};
use ftb_kernels::{CgConfig, Kernel, KernelConfig};
use ftb_trace::{
    propagation, streamed_propagation, CompareScratch, FaultSpec, Propagation, RecordMode, Tracer,
};
use proptest::prelude::*;

/// Everything one extraction produces, in comparable form.
#[derive(Debug, Clone, PartialEq)]
struct Extraction {
    folded: Vec<(usize, u64)>,
    injected_err: u64,
    output_err: u64,
    outcome: u8,
    compare_len: usize,
    diverged: bool,
    max_err: u64,
}

/// Run one `(site, bit)` experiment through the streamed path, or the
/// buffered reference when `reference` is set, capturing the fold with
/// errors as raw bit patterns so equality is bitwise, not approximate.
fn extract(kernel: &dyn Kernel, tol: f64, reference: bool, site: usize, bit: u8) -> Extraction {
    let inj = Injector::new(kernel, Classifier::new(tol));
    let mut folded = Vec::new();
    let fold = |s: usize, d: f64| folded.push((s, d.to_bits()));
    let summary: ExtractionSummary = if reference {
        reference_extraction(&inj, site, bit, fold)
    } else {
        inj.extract_propagation(site, bit, inj.n_sites(), fold)
    };
    let experiment = summary
        .experiment
        .expect("a whole-program run is classified");
    Extraction {
        folded,
        injected_err: experiment.injected_err.to_bits(),
        output_err: experiment.output_err.to_bits(),
        outcome: experiment.outcome.code(),
        compare_len: summary.compare_len,
        diverged: summary.diverged,
        max_err: summary.max_err.to_bits(),
    }
}

fn assert_paths_agree(config: &KernelConfig, tol: f64, site: usize, bit: u8) {
    let kernel = config.build();
    let buffered = extract(kernel.as_ref(), tol, true, site, bit);
    let streamed = extract(kernel.as_ref(), tol, false, site, bit);
    assert_eq!(
        buffered, streamed,
        "buffered vs streamed disagree: {config:?} site {site} bit {bit}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core differential property: an arbitrary kernel, site and bit
    /// produce bit-identical extractions on the streamed path and the
    /// buffered reference.
    #[test]
    fn all_paths_agree_on_arbitrary_faults(
        kernel_idx in 0usize..8,
        site_raw in any::<usize>(),
        bit_raw in any::<u8>(),
    ) {
        let (config, tol) = &tiny_suite()[kernel_idx];
        let kernel = config.build();
        let n_sites = kernel.golden().n_sites();
        let bits = kernel.precision().bits();
        let site = site_raw % n_sites;
        let bit = bit_raw % bits;
        assert_paths_agree(config, *tol, site, bit);
    }
}

/// High bits of early sites: the faults most likely to derail control
/// flow (divergence, crashes, hangs) on every kernel in the suite.
#[test]
fn all_paths_agree_on_high_bit_faults_across_kernels() {
    for (config, tol) in &tiny_suite() {
        let kernel = config.build();
        let bits = kernel.precision().bits();
        for site in [0, 1] {
            for bit in [bits - 1, bits - 2, 0] {
                assert_paths_agree(config, *tol, site, bit);
            }
        }
    }
}

/// Divergent control flow: find faults that change CG's iteration count,
/// then check the streamed extractor truncates its window exactly where
/// the reference does.
#[test]
fn all_paths_agree_under_control_flow_divergence() {
    let config = KernelConfig::Cg(CgConfig {
        grid: 4,
        max_iters: 100,
        ..CgConfig::small()
    });
    let tol = 1e-1;
    let kernel = config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(tol));
    let mut diverging = 0;
    for site in 0..inj.n_sites() {
        let (_, prop) = inj.run_one_traced(site, 30);
        if prop.diverged {
            assert_paths_agree(&config, tol, site, 30);
            diverging += 1;
            if diverging >= 4 {
                break;
            }
        }
    }
    assert!(
        diverging > 0,
        "no diverging fault found to exercise the test"
    );
}

/// One extraction's fold (errors as raw bit patterns) and summary.
fn fold_of(
    inj: &Injector<'_>,
    site: usize,
    bit: u8,
    stop: usize,
) -> (Vec<(usize, u64)>, ExtractionSummary) {
    let mut folded = Vec::new();
    let summary = inj.extract_propagation(site, bit, stop, |s, d| folded.push((s, d.to_bits())));
    (folded, summary)
}

/// The stop contract of `extract_propagation`, from scratch and resumed
/// from a policy injector's snapshot store: a run stopped at `stop`
/// folds exactly the whole-program reference fold at sites `< stop`,
/// its window is the reference window cut at `stop`, it reports a
/// divergence only where the reference diverged before `stop`, and it
/// carries an experiment exactly when it ran the whole program.
fn assert_stop_cuts_the_whole_fold(
    scratch: &Injector<'_>,
    policy: &Injector<'_>,
    site: usize,
    bit: u8,
    stop: usize,
) {
    let mut whole_fold = Vec::new();
    let whole = reference_extraction(scratch, site, bit, |s, d| whole_fold.push((s, d.to_bits())));
    let want: Vec<(usize, u64)> = whole_fold.into_iter().filter(|&(s, _)| s < stop).collect();
    let want_max = want
        .iter()
        .fold(0.0f64, |m, &(_, d)| m.max(f64::from_bits(d)));
    let n_sites = scratch.n_sites();
    let name = scratch.kernel().name();
    for (path, inj) in [("from scratch", scratch), ("resumed", policy)] {
        let ctx = format!("{name} {path}: site {site} bit {bit} stop {stop}");
        let (folded, got) = fold_of(inj, site, bit, stop);
        assert_eq!(folded, want, "{ctx}: fold");
        assert!(got.compare_len <= stop, "{ctx}: compare_len past stop");
        assert_eq!(got.compare_len, whole.compare_len.min(stop), "{ctx}");
        assert_eq!(got.max_err.to_bits(), want_max.to_bits(), "{ctx}: max_err");
        if stop >= n_sites {
            assert_eq!(got, whole, "{ctx}: whole-program summary");
        } else {
            assert_eq!(got.experiment, None, "{ctx}: a stopped run was classified");
            assert!(
                !got.diverged || whole.diverged,
                "{ctx}: invented divergence"
            );
            if stop <= whole.compare_len {
                assert!(!got.diverged, "{ctx}: divergence past stop reported");
            }
        }
    }
}

/// A from-scratch and an execution-policy injector over `kernel`.
fn injector_pair(kernel: &dyn Kernel, tol: f64) -> (Injector<'_>, Injector<'_>) {
    (
        Injector::new(kernel, Classifier::new(tol)),
        Injector::new(kernel, Classifier::new(tol)).with_execution_policy(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stopping is a cut: for any kernel, site, bit and `stop ≥ site`,
    /// the stopped extraction is the whole-program one restricted to
    /// `< stop`, from scratch and snapshot-resumed.
    #[test]
    fn stopped_extraction_is_the_whole_extraction_cut_at_stop(
        kernel_idx in 0usize..8,
        site_raw in any::<usize>(),
        bit_raw in any::<u8>(),
        stop_raw in any::<usize>(),
    ) {
        let (config, tol) = &tiny_suite()[kernel_idx];
        let kernel = config.build();
        let (scratch, policy) = injector_pair(kernel.as_ref(), *tol);
        let n_sites = scratch.n_sites();
        let site = site_raw % n_sites;
        let bit = bit_raw % scratch.bits();
        let stop = site + stop_raw % (n_sites - site + 1);
        assert_stop_cuts_the_whole_fold(&scratch, &policy, site, bit, stop);
    }
}

/// The stop on the two extraction routes, with snapshot-served faults:
/// CG's golden trace has branches (the scratch route, sealed at finish),
/// jacobi's has none (the online delta-sink route). On CG the faults
/// include ones whose control flow diverges, stopped both before and
/// after the divergence.
#[test]
fn stopped_extraction_cuts_both_routes_and_divergence() {
    let suite = tiny_suite();
    for (config, tol) in [&suite[0], &suite[7]] {
        // cg, jacobi
        let kernel = config.build();
        let (scratch, policy) = injector_pair(kernel.as_ref(), *tol);
        let store = policy.snapshot_store().expect("snapshot-capable kernel");
        let n_sites = scratch.n_sites();
        let branchy = !scratch.golden().branches.is_empty();
        assert_eq!(
            branchy,
            config.name() == "cg",
            "{config:?}: extraction route"
        );
        let mut served = 0;
        let mut diverging = 0;
        for i in 0..12 {
            let site = i * (n_sites - 1) / 11;
            served += usize::from(store.for_site(site).is_some());
            for bit in [scratch.bits() / 2, scratch.bits() - 2] {
                let whole = reference_extraction(&scratch, site, bit, |_, _| {});
                let mut stops = vec![site, site + 1, (site + n_sites) / 2, n_sites - 1, n_sites];
                if whole.diverged {
                    diverging += 1;
                    // the divergence cuts the window: stop on both sides
                    stops.extend([whole.compare_len, whole.compare_len + 1]);
                }
                for stop in stops {
                    assert_stop_cuts_the_whole_fold(
                        &scratch,
                        &policy,
                        site,
                        bit,
                        stop.min(n_sites),
                    );
                }
            }
        }
        assert!(served >= 6, "{config:?}: only {served} sites resumed");
        if branchy {
            assert!(diverging > 0, "cg: no diverging fault exercised the stop");
        }
    }
}

/// The site-never-reached edge case, at the trace level: a fault site
/// beyond the execution leaves `injected_err` unset and the propagation
/// window empty, identically on the buffered and streamed paths.
#[test]
fn buffered_and_streamed_agree_when_fault_site_is_never_reached() {
    let (config, _) = &tiny_suite()[4]; // matvec
    let kernel = config.build();
    let golden = kernel.golden();
    let fault = FaultSpec {
        site: golden.n_sites() + 7,
        bit: 1,
    };

    let buffered_run = kernel.run_injected(fault, RecordMode::Full);
    let buffered: Propagation = propagation(&golden, &buffered_run);

    let mut scratch = CompareScratch::new();
    let mut t = Tracer::comparing(fault, &golden, &mut scratch);
    let out = kernel.run(&mut t);
    let (streamed_run, window) = t.finish_compare(out);
    let streamed = streamed_propagation(fault.site, window, &scratch);

    assert_eq!(buffered, streamed);
    assert!(streamed.errors.is_empty());
    assert_eq!(buffered_run.injected_err, None);
    assert_eq!(streamed_run.injected_err, None);
    assert_eq!(buffered_run.output, streamed_run.output);
}

/// Render a run's experiments as their serialized ledger records, so
/// equality covers every recorded bit.
fn records(experiments: &[Experiment]) -> Vec<String> {
    experiments
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect()
}

/// A strided fault plan over every site: every seventh bit plus the sign
/// and top exponent bits, so the matrices stay affordable in a debug run
/// (full-bit-axis agreement is covered by
/// `exhaustive_outcome_tables_identical_across_paths` and the proptest).
fn strided_plan(probe: &Injector<'_>) -> Vec<FaultSpec> {
    let bits = probe.bits();
    let mut probe_bits: Vec<u8> = (0..bits).step_by(7).collect();
    probe_bits.extend([bits - 2, bits - 1]);
    probe_bits.dedup();
    (0..probe.n_sites())
        .flat_map(|site| probe_bits.iter().map(move |&bit| FaultSpec { site, bit }))
        .collect()
}

/// A `ChunkedCampaign` over `plan` with a fresh ledger, in 37-experiment
/// chunks (not a multiple of any lane width, so chunk edges split lane
/// batches). Returns the records read back from the ledger, after
/// checking they equal the campaign's in-memory experiments.
fn ledger_run(inj: &Injector<'_>, config: &KernelConfig, plan: &[FaultSpec]) -> Vec<Experiment> {
    let dir = std::env::temp_dir().join("ftb-extraction-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{}-{:?}-{}.jsonl",
        config.name(),
        std::thread::current().id(),
        inj.batch_lanes()
    ));
    let binding = CampaignBinding {
        kernel: config.clone(),
        classifier: *inj.classifier(),
        n_sites: inj.n_sites(),
        bits: inj.bits(),
        plan: "strided".to_string(),
        bit_prune: None,
        snapshot: inj.snapshot_store().map(|s| s.binding()),
        batch: inj.batch_binding(),
    };
    let mut cc = ChunkedCampaign::new(inj, plan.to_vec(), 37)
        .with_ledger(&path, binding, false)
        .unwrap();
    cc.run_to_completion().unwrap();
    let ledger = read_ledger(&path).unwrap().experiments;
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        ledger,
        cc.into_experiments(),
        "{config:?}: ledger != memory"
    );
    ledger
}

/// The rayon pool sizes every outcome entry point runs under. Twelve
/// workers split short inputs unevenly (37 items leave the last two
/// workers nothing), which is what a ledger's 37-experiment chunks and
/// the tiny kernels' lane and scalar lists exercise.
const POOLS: [usize; 4] = [1, 4, 8, 12];

/// Every public outcome entry point over `plan`, by name: `run_many`,
/// `run_batch` and a `ChunkedCampaign` ledger run, each under every
/// pool in [`POOLS`]. The exhaustive table is covered by
/// `exhaustive_outcome_tables_identical_across_paths`.
fn assert_outcome_entry_points_agree(
    inj: &Injector<'_>,
    config: &KernelConfig,
    plan: &[FaultSpec],
    reference: &[String],
    setting: &str,
) {
    for threads in POOLS {
        let got = in_pool(threads, || {
            [
                inj.run_many(plan),
                inj.run_batch(plan),
                ledger_run(inj, config, plan),
            ]
        });
        for (entry, got) in ["run_many", "run_batch", "ledger run"].iter().zip(got) {
            assert_eq!(
                reference,
                records(&got),
                "{config:?}: {setting} {entry} under a {threads}-thread pool \
                 diverged from the serial buffered reference"
            );
        }
    }
}

/// Run `f` inside a dedicated `threads`-worker rayon pool.
fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// The full conformance matrix: every instrumented kernel in the tiny
/// suite × {1, 4, 8}-thread rayon pools × every outcome entry point,
/// from scratch, yields experiment records bit-identical to the serial
/// buffered reference — this is the acceptance matrix for wiring the
/// previously-dormant kernels (lu, fft, spmv, stencil, matvec) into the
/// campaign stack.
#[test]
fn conformance_matrix_all_kernels_modes_and_pools() {
    for (config, tol) in &tiny_suite() {
        let kernel = config.build();
        let inj = Injector::new(kernel.as_ref(), Classifier::new(*tol));
        let plan = strided_plan(&inj);
        assert!(!plan.is_empty(), "{config:?}: empty campaign");
        let reference = records(&reference_batch(&inj, &plan));
        assert_outcome_entry_points_agree(&inj, config, &plan, &reference, "from-scratch");
    }
}

/// The snapshot and batched-execution axes of the conformance matrix:
/// the same kernels, plans, pools and entry points as
/// `conformance_matrix_all_kernels_modes_and_pools`, but with snapshots
/// captured and a lane width of 1 (scalar snapshot-resumed execution) or
/// 8. On batch-capable kernels (jacobi, gemm, lu) the 8-lane cells run
/// the lane-batched SoA engine; on every other kernel they silently fall
/// back to scalar execution. Every cell must reproduce the serial
/// buffered reference's serialized ledger records bitwise.
#[test]
fn conformance_matrix_batched_axis() {
    let mut batched_somewhere = 0;
    for (config, tol) in &tiny_suite() {
        let kernel = config.build();
        let probe = Injector::new(kernel.as_ref(), Classifier::new(*tol));
        let plan = strided_plan(&probe);
        let reference = records(&reference_batch(&probe, &plan));
        for lanes in [1usize, 8] {
            let inj = Injector::new(kernel.as_ref(), Classifier::new(*tol))
                .with_snapshots(usize::MAX)
                .with_batch_lanes(lanes);
            if lanes > 1 && inj.batch_binding().is_some() {
                batched_somewhere += 1;
            }
            let setting = format!("snapshot-resumed, {lanes}-lane");
            assert_outcome_entry_points_agree(&inj, config, &plan, &reference, &setting);
        }
    }
    assert!(
        batched_somewhere >= 3,
        "batching applied to only {batched_somewhere} suite kernels — the axis is vacuous"
    );
}

/// Exhaustive agreement: the whole `sites × bits` outcome table of
/// `Injector::exhaustive` equals the buffered reference's (the same
/// assertion the bench suite makes) — on matvec from scratch, and on
/// branchy CG and batch-capable jacobi from scratch, from snapshots and
/// at 8 lanes, each under every pool in [`POOLS`] and a 64-worker pool
/// (which splits jacobi's 1,360 lane chunks unevenly: the last worker
/// gets nothing).
#[test]
fn exhaustive_outcome_tables_identical_across_paths() {
    let pools = POOLS.into_iter().chain([64]);
    let suite = tiny_suite();
    let (config, tol) = &suite[4]; // matvec
    let kernel = config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(*tol));
    let reference = reference_exhaustive(&inj);
    for threads in pools.clone() {
        assert_eq!(reference, in_pool(threads, || inj.exhaustive()));
    }

    for (config, tol) in [&suite[0], &suite[7]] {
        // cg, jacobi
        let kernel = config.build();
        let scratch = Injector::new(kernel.as_ref(), Classifier::new(*tol));
        let reference = reference_exhaustive(&scratch);
        let snapshots = [1usize, 8].map(|lanes| {
            Injector::new(kernel.as_ref(), Classifier::new(*tol))
                .with_snapshots(usize::MAX)
                .with_batch_lanes(lanes)
        });
        for inj in &snapshots {
            assert!(inj.snapshot_store().is_some(), "{config:?}: no snapshots");
        }
        for threads in pools.clone() {
            assert_eq!(
                reference,
                in_pool(threads, || scratch.exhaustive()),
                "{config:?}: from scratch, {threads} threads"
            );
            for inj in &snapshots {
                assert_eq!(
                    reference,
                    in_pool(threads, || inj.exhaustive()),
                    "{config:?}: {} lanes, {threads} threads",
                    inj.batch_lanes()
                );
            }
        }
    }
}
