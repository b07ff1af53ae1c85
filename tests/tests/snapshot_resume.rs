//! Snapshot-resume differential tests: experiments served from
//! golden-run boundary snapshots must be **bit-identical** to the
//! from-scratch buffered reference (`Injector::run_one_traced`) — at one
//! and several lanes, across worker thread counts, and across a
//! kill/resume of a snapshot-backed ledger
//! campaign mid-section. The snapshot store is a pure performance
//! artefact; nothing downstream may be able to tell it was there.
//! Underneath, every snapshot-capable kernel's one entry point,
//! `Kernel::run`, must resume from each boundary it reports exactly as
//! it would have continued, and a kernel that ignores a resume state
//! must be refused.

use ftb_core::prelude::*;
use ftb_inject::{
    monte_carlo_plan, read_ledger, schedule_snapshot_major, CampaignBinding, ChunkedCampaign,
    Experiment, LedgerError, DEFAULT_MAX_SNAPSHOTS,
};
use ftb_integration::reference_batch;
use ftb_kernels::{
    CgConfig, CgKernel, CgStorage, GemmConfig, GemmKernel, JacobiConfig, JacobiKernel, Kernel,
    KernelConfig, KernelState, LuConfig, LuKernel, StencilConfig, StubKernel, SweepTweak,
};
use ftb_trace::{FaultSpec, Precision, RecordMode, RunTrace, StaticRegistry, Tracer};
use std::path::PathBuf;

fn cfg() -> JacobiConfig {
    JacobiConfig {
        sweeps: 8,
        ..JacobiConfig::small()
    }
}

fn kernel() -> JacobiKernel {
    JacobiKernel::new(cfg())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ftb-snapshot-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Faults spread over the whole trace (early sites have no serving
/// snapshot, so both execution paths are exercised) and over the whole
/// word (low bits reconverge, high bits crash or corrupt).
fn spread_faults(n_sites: usize, count: usize) -> Vec<FaultSpec> {
    (0..count)
        .map(|i| FaultSpec {
            site: i * (n_sites - 1) / (count - 1),
            bit: (i * 11 % 64) as u8,
        })
        .collect()
}

fn binding(inj: &Injector<'_>, plan: &str) -> CampaignBinding {
    CampaignBinding {
        kernel: KernelConfig::Jacobi(cfg()),
        classifier: *inj.classifier(),
        n_sites: inj.n_sites(),
        bits: inj.bits(),
        plan: plan.to_string(),
        bit_prune: None,
        snapshot: inj.snapshot_store().map(|s| s.binding()),
        batch: inj.batch_binding(),
    }
}

/// Snapshot-started experiments are bit-identical to the from-scratch
/// buffered reference, at 1 and 8 lanes and under 1, 4, and 8 worker
/// threads — both as in-memory values and through the serialized
/// (ledger) byte form.
#[test]
fn snapshot_resume_is_bit_identical_across_modes_and_threads() {
    let k = kernel();
    let classifier = Classifier::new(1e-6);
    let probe = Injector::new(&k, classifier);
    let faults = spread_faults(probe.n_sites(), 36);
    let reference = reference_batch(&probe, &faults);
    let ref_bytes = serde_json::to_string(&reference).unwrap();
    assert_eq!(
        reference,
        probe.run_many(&faults),
        "from-scratch run diverged"
    );

    for lanes in [1usize, 8] {
        let inj = Injector::new(&k, classifier)
            .with_snapshots(usize::MAX)
            .with_batch_lanes(lanes);
        assert!(inj.snapshot_store().is_some());
        for threads in [1usize, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got: Vec<Experiment> = pool.install(|| inj.run_many(&faults));
            assert_eq!(reference, got, "{lanes} lanes, {threads} threads diverged");
            assert_eq!(
                ref_bytes,
                serde_json::to_string(&got).unwrap(),
                "{lanes} lanes, {threads} threads serialized differently"
            );
        }
    }
}

/// Contraction-certificate early exits keep
/// the exhaustive outcome table cell-for-cell identical to from-scratch
/// execution: a certificate may only fire where Masked is provable.
#[test]
fn certified_exits_keep_exhaustive_table_identical() {
    let k = kernel();
    let scratch = Injector::new(&k, Classifier::new(1e-6)).exhaustive();
    let certified = Injector::new(&k, Classifier::new(1e-6))
        .with_certified_exits()
        .with_snapshots(usize::MAX)
        .exhaustive();
    assert_eq!(scratch, certified);
}

/// A record with its floats as raw bits, so `-0.0`/`0.0` and NaN
/// payloads count.
fn record_bits(e: &Experiment) -> (usize, u8, u64, u64, u8) {
    (
        e.site,
        e.bit,
        e.injected_err.to_bits(),
        e.output_err.to_bits(),
        e.outcome.code(),
    )
}

/// Every fault before the first retained boundary — each site before
/// it, times every bit — runs from scratch under the boundary monitor,
/// and its record is bit-identical to the unmonitored run's, on every
/// snapshot-capable kernel. Those sites are the kernels' input loads
/// (jacobi's `x` and read-only `b`, gemm's read-only A and B, lu's
/// matrix, cg's setup), so a fault in a read-only array must never exit
/// on a match of the mutated arrays alone.
#[test]
fn pre_boundary_faults_match_from_scratch_bitwise() {
    let kernels: [(&str, Box<dyn Kernel>, f64); 4] = [
        ("jacobi", Box::new(kernel()), 1e-6),
        (
            "gemm",
            Box::new(GemmKernel::new(GemmConfig {
                n: 6,
                ..GemmConfig::small()
            })),
            1e-6,
        ),
        (
            "lu",
            Box::new(LuKernel::new(LuConfig {
                n: 8,
                block: 4,
                ..LuConfig::small()
            })),
            3e-5,
        ),
        (
            "cg",
            Box::new(CgKernel::new(CgConfig {
                grid: 4,
                ..CgConfig::small()
            })),
            1e-3,
        ),
    ];
    for (name, k, tol) in kernels {
        let classifier = Classifier::new(tol);
        let scratch = Injector::new(k.as_ref(), classifier);
        let policy = Injector::new(k.as_ref(), classifier).with_execution_policy();
        let single = Injector::new(k.as_ref(), classifier).with_snapshots(DEFAULT_MAX_SNAPSHOTS);
        let store = single.snapshot_store().expect("snapshot-capable");
        let first = (0..scratch.n_sites())
            .find(|&site| store.for_site(site).is_some())
            .expect("a retained boundary");
        assert!(first > 0, "{name}: no site before the first boundary");
        let faults: Vec<FaultSpec> = (0..first)
            .flat_map(|site| (0..scratch.bits()).map(move |bit| FaultSpec { site, bit }))
            .collect();
        let want: Vec<_> = scratch.run_many(&faults).iter().map(record_bits).collect();
        for (path, inj) in [("policy", &policy), ("1 lane", &single)] {
            let got: Vec<_> = inj.run_many(&faults).iter().map(record_bits).collect();
            assert!(got == want, "{name}: {path} diverged from scratch");
        }
    }
}

/// A snapshot-backed ledger campaign killed mid-section (the chunk
/// boundary falls inside a snapshot-major section, not at its edge) and
/// resumed from the ledger matches the uninterrupted run exactly, and
/// re-executes only the missing tail.
#[test]
fn snapshot_campaign_kill_resume_mid_section_matches_uninterrupted() {
    let k = kernel();
    let inj = Injector::new(&k, Classifier::new(1e-6)).with_snapshots(usize::MAX);
    let store = inj.snapshot_store().unwrap();
    let plan = schedule_snapshot_major(&monte_carlo_plan(inj.n_sites(), inj.bits(), 180, 7), store);
    let desc = "mc n=180 seed=7 snapshot-major";

    // uninterrupted reference, same injector and plan order
    let mut full = ChunkedCampaign::new(&inj, plan.clone(), 32);
    full.run_to_completion().unwrap();
    let reference = full.into_experiments();

    // the kill: one 32-experiment chunk lands inside a section (sections
    // span ~25 experiments here), then the process dies with no shutdown
    let path = tmp("snapshot-mid-section.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut first = ChunkedCampaign::new(&inj, plan.clone(), 32)
        .with_ledger(&path, binding(&inj, desc), false)
        .unwrap();
    first.step().unwrap();
    drop(first);

    let mut resumed = ChunkedCampaign::new(&inj, plan, 32)
        .with_ledger(&path, binding(&inj, desc), true)
        .unwrap();
    resumed.run_to_completion().unwrap();
    let metrics = resumed.metrics();
    assert_eq!(metrics.resumed, 32);
    assert_eq!(metrics.executed, 180 - 32);
    assert_eq!(reference, resumed.into_experiments());

    // the finished ledger holds the full campaign, byte-faithfully
    assert_eq!(read_ledger(&path).unwrap().experiments, reference);
    let _ = std::fs::remove_file(&path);
}

/// A ledger recorded under one snapshot store must refuse to resume
/// under a different store: the snapshot binding (count + content
/// digest) is part of the campaign identity.
#[test]
fn snapshot_campaign_resume_rejects_different_store() {
    let k = kernel();
    let inj = Injector::new(&k, Classifier::new(1e-6)).with_snapshots(4);
    let plan = monte_carlo_plan(inj.n_sites(), inj.bits(), 60, 3);
    let desc = "mc n=60 seed=3";

    let path = tmp("snapshot-binding-mismatch.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut first = ChunkedCampaign::new(&inj, plan.clone(), 16)
        .with_ledger(&path, binding(&inj, desc), false)
        .unwrap();
    first.step().unwrap();
    drop(first);

    // same campaign, different snapshot store (2 boundaries, not 4)
    let other = Injector::new(&k, Classifier::new(1e-6)).with_snapshots(2);
    match ChunkedCampaign::new(&other, plan, 16).with_ledger(&path, binding(&other, desc), true) {
        Err(LedgerError::BindingMismatch { .. }) => {}
        Err(e) => panic!("unexpected error: {e}"),
        Ok(_) => panic!("resume under a different snapshot store must be refused"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Blocked LU captures per-k-step section-boundary snapshots, and
/// snapshot-resumed (plus certificate-gated) LU experiments are
/// bit-identical to the from-scratch buffered reference, scalar and
/// batched.
#[test]
fn lu_snapshot_resume_is_bit_identical() {
    let k = LuKernel::new(LuConfig {
        n: 8,
        block: 4,
        ..LuConfig::small()
    });
    let classifier = Classifier::new(3e-5);
    let probe = Injector::new(&k, classifier);
    let faults = spread_faults(probe.n_sites(), 36);
    let reference = reference_batch(&probe, &faults);

    for lanes in [1usize, 8] {
        let inj = Injector::new(&k, classifier)
            .with_snapshots(usize::MAX)
            .with_batch_lanes(lanes);
        let store = inj
            .snapshot_store()
            .expect("blocked LU must be snapshot-capable");
        assert!(
            store.len() > 1,
            "LU should snapshot at each k-step boundary, got {}",
            store.len()
        );
        assert_eq!(reference, inj.run_many(&faults), "{lanes} lanes diverged");
        let certified = Injector::new(&k, classifier)
            .with_snapshots(usize::MAX)
            .with_batch_lanes(lanes)
            .with_certified_exits()
            .run_many(&faults);
        let codes = |v: &[Experiment]| -> Vec<u8> { v.iter().map(|e| e.outcome.code()).collect() };
        assert_eq!(
            codes(&reference),
            codes(&certified),
            "{lanes} lanes: certified exits changed an LU outcome"
        );
    }
}

/// A batched snapshot-backed ledger campaign killed mid-run resumes to
/// a ledger byte-identical to both the uninterrupted batched run and
/// the scalar run — even though the kill point reshuffles which faults
/// share a lane batch on resume.
#[test]
fn batched_campaign_kill_resume_matches_uninterrupted_and_scalar() {
    let k = kernel();
    let inj = Injector::new(&k, Classifier::new(1e-6))
        .with_snapshots(usize::MAX)
        .with_batch_lanes(8);
    assert!(inj.batch_binding().is_some());
    let store = inj.snapshot_store().unwrap();
    let plan = schedule_snapshot_major(&monte_carlo_plan(inj.n_sites(), inj.bits(), 180, 7), store);
    let desc = "mc n=180 seed=7 snapshot-major batched";

    // uninterrupted batched reference: the whole plan in one chunk, so
    // lane batches span the full campaign
    let mut full = ChunkedCampaign::new(&inj, plan.clone(), plan.len());
    full.run_to_completion().unwrap();
    let reference = full.into_experiments();

    // scalar cross-check: batching must be invisible in the records
    let scalar = Injector::new(&k, Classifier::new(1e-6))
        .with_snapshots(usize::MAX)
        .run_many(&plan);
    assert_eq!(reference, scalar, "batched campaign diverged from scalar");

    // the kill: chunk size 20 is deliberately not a multiple of the lane
    // width, so the interruption lands mid-batch relative to the
    // uninterrupted run's chunking
    let path = tmp("batched-kill-resume.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut first = ChunkedCampaign::new(&inj, plan.clone(), 20)
        .with_ledger(&path, binding(&inj, desc), false)
        .unwrap();
    first.step().unwrap();
    drop(first);

    let mut resumed = ChunkedCampaign::new(&inj, plan, 20)
        .with_ledger(&path, binding(&inj, desc), true)
        .unwrap();
    resumed.run_to_completion().unwrap();
    let metrics = resumed.metrics();
    assert_eq!(metrics.resumed, 20);
    assert_eq!(metrics.executed, 180 - 20);
    assert_eq!(reference, resumed.into_experiments());
    assert_eq!(read_ledger(&path).unwrap().experiments, reference);
    let _ = std::fs::remove_file(&path);
}

/// A ledger recorded under one lane configuration refuses to resume
/// under another: the `BatchBinding` (lane width + snapshot-store
/// digest) is part of the campaign identity, so a batched ledger can be
/// resumed neither scalar nor at a different width.
#[test]
fn batched_campaign_resume_rejects_changed_lane_config() {
    let k = kernel();
    let inj = Injector::new(&k, Classifier::new(1e-6))
        .with_snapshots(usize::MAX)
        .with_batch_lanes(8);
    let plan = monte_carlo_plan(inj.n_sites(), inj.bits(), 60, 3);
    let desc = "mc n=60 seed=3 batched";

    let path = tmp("batched-binding-mismatch.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut first = ChunkedCampaign::new(&inj, plan.clone(), 16)
        .with_ledger(&path, binding(&inj, desc), false)
        .unwrap();
    first.step().unwrap();
    drop(first);

    // same campaign, 4 lanes instead of 8 — and scalar (no batching)
    let narrower = Injector::new(&k, Classifier::new(1e-6))
        .with_snapshots(usize::MAX)
        .with_batch_lanes(4);
    let scalar = Injector::new(&k, Classifier::new(1e-6)).with_snapshots(usize::MAX);
    for other in [&narrower, &scalar] {
        match ChunkedCampaign::new(other, plan.clone(), 16).with_ledger(
            &path,
            binding(other, desc),
            true,
        ) {
            Err(LedgerError::BindingMismatch { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => panic!("resume under a changed lane configuration must be refused"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

// ------------------------------------------------------ kernel entry point

/// A section boundary as `Tracer::boundary` reports it: cursor, branch
/// count, step and the live arrays (as raw bits).
type Reported = (usize, usize, u64, Vec<Vec<u64>>);

fn bits_of(arrays: &[&[f64]]) -> Vec<Vec<u64>> {
    arrays
        .iter()
        .map(|a| a.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Run `kernel` fault-free, from scratch or from `resume` (cursor,
/// branch count, state), collecting every boundary it reports.
fn run_hooked(
    kernel: &dyn Kernel,
    resume: Option<(usize, usize, KernelState)>,
) -> (RunTrace, Vec<Reported>) {
    let mut seen = Vec::new();
    let mut hook = |cursor: usize, bc: usize, step: u64, arrays: &[&[f64]]| {
        seen.push((cursor, bc, step, bits_of(arrays)));
        false
    };
    let mut t = Tracer::untraced(kernel.precision());
    if let Some((cursor, bc, state)) = resume {
        t = t.resume_at(cursor, bc, state);
    }
    let mut t = t.with_boundary_hook(&mut hook);
    let out = kernel.run(&mut t);
    let run = t.finish(out);
    (run, seen)
}

/// Everything observable about a run's end, with floats as raw bits.
fn run_key(r: &RunTrace) -> (Vec<u64>, usize, Option<usize>, Option<u64>) {
    (
        r.output.iter().map(|v| v.to_bits()).collect(),
        r.n_dynamic,
        r.first_nonfinite,
        r.injected_err.map(f64::to_bits),
    )
}

/// The one-entry-point contract, for every snapshot-capable kernel: at
/// each boundary a capture run reports, (1) a fault-free resume
/// reproduces the golden output and final cursor bit for bit, (2) the
/// resumed run reports exactly the capture's later boundaries — the
/// same cursors, branch counts, steps and states — and (3) a fault at or
/// after the boundary gives the same run, bit for bit, as the
/// from-scratch `Kernel::run_injected`.
#[test]
fn every_boundary_resumes_bit_identically() {
    let jacobi = JacobiConfig {
        sweeps: 8,
        ..JacobiConfig::small()
    };
    let kernels: Vec<(&str, Box<dyn Kernel>)> = vec![
        (
            "cg",
            Box::new(CgKernel::new(CgConfig {
                grid: 5,
                ..CgConfig::small()
            })),
        ),
        ("jacobi", Box::new(JacobiKernel::new(jacobi.clone()))),
        (
            "jacobi fine-grained",
            Box::new(JacobiKernel::new(JacobiConfig {
                fine_grained: true,
                ..jacobi.clone()
            })),
        ),
        (
            "jacobi tweaked",
            Box::new(JacobiKernel::new(JacobiConfig {
                tweak: Some(SweepTweak {
                    sweep: 3,
                    omega: 0.7,
                }),
                ..jacobi
            })),
        ),
        (
            "gemm",
            Box::new(GemmKernel::new(GemmConfig {
                n: 6,
                ..GemmConfig::small()
            })),
        ),
        ("lu", Box::new(LuKernel::new(LuConfig::small()))),
    ];
    for (name, k) in kernels {
        assert!(k.snapshot_capable(), "{name}");
        let p = k.precision();
        let golden = k.golden();
        let (capture, boundaries) = run_hooked(k.as_ref(), None);
        let golden_bits: Vec<u64> = golden.output.iter().map(|v| v.to_bits()).collect();
        assert_eq!(run_key(&capture).0, golden_bits, "{name}: capture output");
        assert_eq!(
            capture.n_dynamic, golden.n_dynamic,
            "{name}: capture cursor"
        );
        assert!(boundaries.len() >= 3, "{name}: too few boundaries");
        assert_eq!(boundaries[0].2, 0, "{name}: no step-0 boundary");
        for (i, (cursor, bc, step, arrays)) in boundaries.iter().enumerate() {
            let state = || KernelState {
                step: *step,
                arrays: arrays
                    .iter()
                    .map(|a| a.iter().map(|&b| f64::from_bits(b)).collect())
                    .collect(),
            };
            let (resumed, later) = run_hooked(k.as_ref(), Some((*cursor, *bc, state())));
            assert_eq!(
                run_key(&resumed).0,
                golden_bits,
                "{name}: fault-free resume from step {step}"
            );
            assert_eq!(resumed.n_dynamic, golden.n_dynamic, "{name} step {step}");
            assert!(
                later == boundaries[i + 1..],
                "{name}: resume from step {step} reported other boundaries"
            );
            // CG reports its last iteration too, past which no site lies
            let faultable = if *cursor < golden.n_dynamic { 3 } else { 0 };
            for j in 0..faultable {
                let fault = FaultSpec {
                    site: cursor + (golden.n_dynamic - 1 - cursor) * j / 2,
                    bit: ((i * 7 + j * 19) % p.bits() as usize) as u8,
                };
                let want = k.run_injected(fault, RecordMode::OutputOnly);
                let mut t = Tracer::inject(p, fault, RecordMode::OutputOnly).resume_at(
                    *cursor,
                    *bc,
                    state(),
                );
                let out = k.run(&mut t);
                assert_eq!(
                    run_key(&t.finish(out)),
                    run_key(&want),
                    "{name}: {fault:?} resumed from step {step}"
                );
            }
        }
    }
}

/// Claims snapshot capability and reports a boundary after each of its
/// steps, so a snapshot store serves late sites from them, but never
/// takes the resume state: every run restarts from its initial state.
struct Forgetful(StubKernel);

const FORGETFUL_STEPS: u64 = 3;

impl Kernel for Forgetful {
    fn name(&self) -> &'static str {
        "forgetful"
    }
    fn precision(&self) -> Precision {
        self.0.precision()
    }
    fn registry(&self) -> StaticRegistry {
        self.0.registry()
    }
    fn run(&self, t: &mut Tracer) -> Vec<f64> {
        let mut out = Vec::new();
        for step in 1..=FORGETFUL_STEPS {
            out = self.0.run(t);
            if step < FORGETFUL_STEPS && t.boundary(step, &[&out]) {
                break;
            }
        }
        out
    }
    fn snapshot_capable(&self) -> bool {
        true
    }
}

/// A resume state the kernel never takes fails loudly: a resumed
/// experiment on a kernel that ignores it would otherwise run from
/// scratch at a shifted cursor and report a wrong outcome.
#[test]
#[should_panic(expected = "never took its resume state")]
fn ignored_resume_state_is_refused() {
    let k = Forgetful(StubKernel::new(12, 3));
    let inj = Injector::new(&k, Classifier::new(1e-6)).with_snapshots(usize::MAX);
    let store = inj.snapshot_store().expect("captured");
    assert_eq!(store.len(), FORGETFUL_STEPS as usize - 1);
    let last = inj.n_sites() - 1;
    // a site before the first boundary runs from scratch and is fine
    let _ = inj.run_one(0, 3);
    assert!(store.for_site(last).is_some());
    let _ = inj.run_one(last, 3);
}

// ---------------------------------------------------------------- CLI level

fn cli(args: &[&str]) -> String {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let parsed = ftb_cli::parse(&raw).unwrap();
    ftb_cli::commands::dispatch(&parsed).unwrap()
}

/// End-to-end: the CLI campaign, which resumes experiments from
/// snapshots and runs them lane-batched on jacobi, records exactly the
/// library's from-scratch experiments and estimate; crashed mid-run
/// (torn tail) and resumed, it reproduces its report and ledger byte for
/// byte.
#[test]
fn cli_snapshot_campaign_crash_resume_matches_uninterrupted() {
    let ledger = tmp("cli-snap-ledger.jsonl");
    let json = tmp("cli-snap-estimate.json");
    let _ = std::fs::remove_file(&ledger);
    let (lp, jp) = (ledger.to_str().unwrap(), json.to_str().unwrap());

    let base = [
        "campaign",
        "--kernel",
        "jacobi",
        "--grid",
        "4",
        "--sweeps",
        "10",
        "--tolerance",
        "1e-4",
        "--samples",
        "120",
        "--seed",
        "5",
        "--checkpoint",
        lp,
    ];
    let mut first = base.to_vec();
    first.extend(["--json", jp]);
    let out = cli(&first);

    // from-scratch library reference of the same plan
    let raw: Vec<String> = base.iter().map(|s| s.to_string()).collect();
    let kernel = ftb_cli::parse(&raw).unwrap().kernel.build();
    let scratch = Injector::new(kernel.as_ref(), Classifier::new(1e-4));
    assert!(scratch.snapshot_store().is_none());
    let plan = monte_carlo_plan(scratch.n_sites(), scratch.bits(), 120, 5);
    let mut expected = scratch.run_many(&plan);
    let estimate: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(
        estimate,
        serde_json::to_value(ftb_inject::monte_carlo::summarize(&expected, 0.95)).unwrap()
    );
    // the ledger holds the plan in snapshot-major order, record for
    // record the from-scratch experiments
    let rec = read_ledger(&ledger).unwrap();
    assert!(rec.header.binding.snapshot.is_some() && rec.header.binding.batch.is_some());
    let mut recorded = rec.experiments;
    recorded.sort_by_key(|e| e.key());
    expected.sort_by_key(|e| e.key());
    assert_eq!(recorded, expected);

    // crash at 60 records with a torn tail
    let text = std::fs::read_to_string(&ledger).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 121, "header + 120 records");
    let mut crashed = lines[..61].join("\n");
    crashed.push_str("\n{\"site\":4,\"bit\"");
    let full_bytes = text.clone().into_bytes();
    std::fs::write(&ledger, crashed).unwrap();

    // resume: identical report, and the healed ledger is byte-identical
    // to the uninterrupted one
    let mut resume = base.to_vec();
    resume.push("--resume");
    assert_eq!(out, cli(&resume));
    assert_eq!(full_bytes, std::fs::read(&ledger).unwrap());

    let _ = std::fs::remove_file(&ledger);
    let _ = std::fs::remove_file(&json);
}

/// `Analysis::new` runs outcome experiments under the execution policy
/// (snapshot resume and lane batching wherever the kernel supports
/// them); its exhaustive table is the from-scratch injector's, cell for
/// cell, on every snapshot-capable kernel and on one that is not.
#[test]
fn policy_exhaustive_matches_from_scratch_per_kernel() {
    let cg = CgConfig {
        grid: 4,
        ..CgConfig::small()
    };
    // (config, tolerance, snapshot-capable, batch-capable)
    let table: [(KernelConfig, f64, bool, bool); 6] = [
        (KernelConfig::Jacobi(cfg()), 1e-4, true, true),
        (
            KernelConfig::Gemm(GemmConfig {
                n: 6,
                ..GemmConfig::small()
            }),
            1e-6,
            true,
            true,
        ),
        (
            KernelConfig::Lu(LuConfig {
                n: 8,
                block: 4,
                ..LuConfig::small()
            }),
            1e-6,
            true,
            true,
        ),
        (KernelConfig::Cg(cg.clone()), 1e-3, true, false),
        (
            KernelConfig::Cg(CgConfig {
                storage: CgStorage::AssembledCsr,
                ..cg
            }),
            1e-3,
            false,
            false,
        ),
        (
            KernelConfig::Stencil(StencilConfig {
                grid: 6,
                sweeps: 4,
                ..StencilConfig::small()
            }),
            1e-6,
            false,
            false,
        ),
    ];
    for (config, tol, snapshots, batched) in table {
        let kernel = config.build();
        let analysis = Analysis::new(kernel.as_ref(), Classifier::new(tol));
        let injector = analysis.injector();
        assert_eq!(injector.snapshot_store().is_some(), snapshots, "{config:?}");
        assert_eq!(injector.batch_binding().is_some(), batched, "{config:?}");
        let scratch = Injector::new(kernel.as_ref(), Classifier::new(tol));
        assert_eq!(analysis.exhaustive(), scratch.exhaustive(), "{config:?}");
    }
}

/// Run a CLI command with `--json` and return the JSON it wrote, plus
/// the arguments it parsed.
fn cli_json(args: &[&str], name: &str) -> (serde_json::Value, ftb_cli::Args) {
    let path = tmp(name);
    let _ = std::fs::remove_file(&path);
    let mut full = args.to_vec();
    full.extend(["--json", path.to_str().unwrap()]);
    cli(&full);
    let json = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    (json, ftb_cli::parse(&raw).unwrap())
}

const POLICY_CLI_KERNELS: [&[&str]; 2] = [
    &[
        "--kernel",
        "jacobi",
        "--grid",
        "4",
        "--sweeps",
        "10",
        "--tolerance",
        "1e-4",
        "--seed",
        "41",
    ],
    &["--kernel", "cg", "--grid", "4", "--tolerance", "1e-3"],
];

/// CLI `adaptive` (snapshot-resumed outcome runs) reproduces the
/// library's from-scratch adaptive result exactly, on jacobi and
/// matrix-free CG.
#[test]
fn cli_adaptive_matches_from_scratch_library() {
    for kernel_args in POLICY_CLI_KERNELS {
        let mut args = vec!["adaptive"];
        args.extend_from_slice(kernel_args);
        let (json, parsed) = cli_json(&args, "policy-adaptive.json");
        let kernel = parsed.kernel.build();
        let scratch = Injector::new(kernel.as_ref(), Classifier::new(parsed.tolerance));
        let cfg = AdaptiveConfig {
            seed: parsed.seed,
            ..AdaptiveConfig::default()
        };
        let reference = adaptive_boundary(&scratch, &cfg);
        assert_eq!(json, serde_json::to_value(&reference).unwrap(), "{args:?}");
    }
}

/// CLI `analyze compose` (snapshot-resumed section campaigns and
/// exhaustive scorecard) reproduces the library's from-scratch section
/// summaries and composed-boundary scores, on jacobi and matrix-free CG.
#[test]
fn cli_compose_matches_from_scratch_library() {
    for kernel_args in POLICY_CLI_KERNELS {
        let mut args = vec!["analyze", "compose", "--rate", "0.5"];
        args.extend_from_slice(kernel_args);
        let (json, parsed) = cli_json(&args, "policy-compose.json");
        let kernel = parsed.kernel.build();
        let scratch = Injector::new(kernel.as_ref(), Classifier::new(parsed.tolerance));
        let cfg = ComposeConfig {
            rate: parsed.rate,
            seed: parsed.seed,
            ..ComposeConfig::new(parsed.tolerance)
        };
        let r = compose_analysis(kernel.as_ref(), &parsed.kernel, &scratch, &cfg, None).unwrap();
        let field = |row: &serde_json::Value, key: &str| row.get(key).unwrap().as_f64();
        assert_eq!(field(&json, "n_injections"), Some(r.n_experiments as f64));
        let sections = json.get("sections").unwrap().as_array().unwrap();
        assert_eq!(sections.len(), r.summaries.len(), "{args:?}");
        for (row, (summary, &budget)) in sections.iter().zip(r.summaries.iter().zip(&r.budgets)) {
            let injections = field(row, "injections");
            assert_eq!(injections, Some(summary.n_experiments as f64), "{args:?}");
            assert_eq!(field(row, "amp_in"), Some(summary.amp_in), "{args:?}");
            assert_eq!(field(row, "budget"), Some(budget), "{args:?}");
        }
        let truth = scratch.exhaustive();
        let golden = scratch.golden();
        let eval = BoundaryEval::against_exhaustive(&Predictor::new(golden, &r.boundary), &truth);
        let composed = &json.get("comparison").unwrap().as_array().unwrap()[0];
        assert_eq!(composed.get("method").unwrap().as_str(), Some("composed"));
        assert_eq!(
            field(composed, "precision"),
            Some(eval.precision),
            "{args:?}"
        );
        assert_eq!(field(composed, "recall"), Some(eval.recall), "{args:?}");
        assert_eq!(
            field(composed, "coverage"),
            Some(r.boundary.coverage()),
            "{args:?}"
        );
    }
}
