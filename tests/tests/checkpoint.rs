//! Checkpoint/resume equivalence: a campaign killed after N chunks and
//! resumed from its ledger must be indistinguishable from one that was
//! never interrupted — identical experiment sets, byte-identical
//! inferred boundaries — while re-executing only the remaining pairs.

use ftb_core::prelude::*;
use ftb_inject::{
    exhaustive_plan, monte_carlo_plan, read_ledger, CampaignBinding, ChunkedCampaign, Experiment,
    MetricsSnapshot,
};
use ftb_kernels::{KernelConfig, MatvecConfig, MatvecKernel};
use ftb_trace::FaultSpec;
use proptest::prelude::*;
use std::path::PathBuf;

fn tiny_kernel() -> MatvecKernel {
    MatvecKernel::new(MatvecConfig {
        n: 4,
        ..MatvecConfig::small()
    })
}

fn binding(inj: &Injector<'_>, plan: &str) -> CampaignBinding {
    CampaignBinding {
        kernel: KernelConfig::Matvec(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        }),
        classifier: *inj.classifier(),
        n_sites: inj.n_sites(),
        bits: inj.bits(),
        plan: plan.to_string(),
        bit_prune: None,
        snapshot: None,
        batch: None,
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ftb-checkpoint-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn boundary_json(inj: &Injector<'_>, experiments: &[Experiment]) -> String {
    let mut samples = SampleSet::new();
    for &e in experiments {
        samples.insert(e);
    }
    let inference = infer_boundary(inj, &samples, FilterMode::PerSite);
    serde_json::to_string(&inference.boundary).unwrap()
}

/// Run `plan` with a ledger, dropping the campaign after `chunks_before_kill`
/// chunks, then resume from the ledger and run to completion.
fn run_with_kill(
    inj: &Injector<'_>,
    plan: Vec<FaultSpec>,
    plan_desc: &str,
    path: &PathBuf,
    chunk: usize,
    chunks_before_kill: usize,
) -> (Vec<Experiment>, MetricsSnapshot) {
    let _ = std::fs::remove_file(path);
    let mut first = ChunkedCampaign::new(inj, plan.clone(), chunk)
        .with_ledger(path, binding(inj, plan_desc), false)
        .unwrap();
    for _ in 0..chunks_before_kill {
        if first.step().unwrap() == 0 {
            break;
        }
    }
    drop(first); // the "kill": no graceful shutdown, the ledger is all that survives

    let mut resumed = ChunkedCampaign::new(inj, plan, chunk)
        .with_ledger(path, binding(inj, plan_desc), true)
        .unwrap();
    resumed.run_to_completion().unwrap();
    let metrics = resumed.metrics();
    (resumed.into_experiments(), metrics)
}

#[test]
fn dropped_and_resumed_exhaustive_matches_uninterrupted() {
    let k = tiny_kernel();
    let inj = Injector::new(&k, Classifier::new(1e-6));
    let plan = exhaustive_plan(inj.n_sites(), inj.bits());
    let total = plan.len();

    // uninterrupted reference
    let mut full = ChunkedCampaign::new(&inj, plan.clone(), 64);
    full.run_to_completion().unwrap();
    let reference = full.into_experiments();

    // killed after 3 chunks of 64, then resumed
    let path = tmp("acceptance.jsonl");
    let (resumed, metrics) = run_with_kill(&inj, plan, "exhaustive", &path, 64, 3);

    // identical experiment sets…
    assert_eq!(reference, resumed);
    // …byte-identical inferred boundaries…
    assert_eq!(
        boundary_json(&inj, &reference),
        boundary_json(&inj, &resumed)
    );
    // …and the resumed run re-executed only the remaining pairs
    assert_eq!(metrics.resumed, 3 * 64);
    assert_eq!(metrics.executed, (total - 3 * 64) as u64);
    assert_eq!(metrics.completed, total as u64);

    // the finished ledger holds the full campaign
    let rec = read_ledger(&path).unwrap();
    assert_eq!(rec.experiments, reference);
}

#[test]
fn resume_tolerates_torn_final_record() {
    let k = tiny_kernel();
    let inj = Injector::new(&k, Classifier::new(1e-6));
    let plan = exhaustive_plan(inj.n_sites(), inj.bits());
    let path = tmp("torn-resume.jsonl");
    let _ = std::fs::remove_file(&path);

    let mut first = ChunkedCampaign::new(&inj, plan.clone(), 100)
        .with_ledger(&path, binding(&inj, "exhaustive"), false)
        .unwrap();
    first.step().unwrap();
    first.step().unwrap();
    drop(first);

    // a crash mid-write leaves half a record with no newline
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"{\"site\":3,\"bit\":9,\"inj").unwrap();
    drop(f);

    let mut resumed = ChunkedCampaign::new(&inj, plan, 100)
        .with_ledger(&path, binding(&inj, "exhaustive"), true)
        .unwrap();
    assert_eq!(resumed.metrics().resumed, 200, "torn record must not count");
    resumed.run_to_completion().unwrap();
    assert_eq!(resumed.into_exhaustive(), inj.exhaustive());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed, sample count, chunk size, and kill point, the
    /// dropped-and-resumed Monte-Carlo campaign equals the uninterrupted
    /// one: same experiments, same inferred boundary bytes, and only the
    /// tail is re-executed.
    #[test]
    fn resumed_campaign_equals_uninterrupted(
        seed in 0u64..10_000,
        n in 120u64..260,
        chunk in 16usize..64,
        kill_after in 1usize..5,
    ) {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let plan = monte_carlo_plan(inj.n_sites(), inj.bits(), n, seed);
        let desc = format!("monte-carlo n={n} seed={seed}");

        let mut full = ChunkedCampaign::new(&inj, plan.clone(), chunk);
        full.run_to_completion().unwrap();
        let reference = full.into_experiments();

        let path = tmp(&format!("prop-{seed}-{n}-{chunk}-{kill_after}.jsonl"));
        let (resumed, metrics) = run_with_kill(&inj, plan, &desc, &path, chunk, kill_after);
        let _ = std::fs::remove_file(&path);

        prop_assert_eq!(&reference, &resumed);
        prop_assert_eq!(
            boundary_json(&inj, &reference),
            boundary_json(&inj, &resumed)
        );
        let expected_resumed = (chunk * kill_after).min(n as usize) as u64;
        prop_assert_eq!(metrics.resumed, expected_resumed);
        prop_assert_eq!(metrics.executed, n - expected_resumed);
    }
}

// ---------------------------------------------------------------- CLI level

fn cli(args: &[&str]) -> String {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let parsed = ftb_cli::parse(&raw).unwrap();
    ftb_cli::commands::dispatch(&parsed).unwrap()
}

#[test]
fn cli_campaign_resume_after_simulated_crash_matches_full_run() {
    let ledger = tmp("cli-ledger.jsonl");
    let metrics_path = tmp("cli-metrics.json");
    let _ = std::fs::remove_file(&ledger);
    let lp = ledger.to_str().unwrap();
    let mp = metrics_path.to_str().unwrap();

    let base = [
        "campaign",
        "--kernel",
        "matvec",
        "--n",
        "4",
        "--samples",
        "200",
        "--seed",
        "9",
    ];

    // full run with a ledger
    let mut with_ledger = base.to_vec();
    with_ledger.extend(["--checkpoint", lp]);
    let full_out = cli(&with_ledger);

    // simulate a crash at 100 records: header + 100 lines + a torn tail
    let text = std::fs::read_to_string(&ledger).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 201, "header + 200 records");
    let mut crashed = lines[..101].join("\n");
    crashed.push_str("\n{\"site\":2,\"bit\"");
    std::fs::write(&ledger, crashed).unwrap();

    // resume; stdout must match the uninterrupted run exactly
    let mut resume = base.to_vec();
    resume.extend(["--checkpoint", lp, "--resume", "--metrics-out", mp]);
    let resumed_out = cli(&resume);
    assert_eq!(full_out, resumed_out);

    let metrics: MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(metrics.resumed, 100);
    assert_eq!(metrics.executed, 100);
    assert_eq!(metrics.total, 200);
    assert_eq!(metrics.masked + metrics.sdc + metrics.crash, 200);

    let _ = std::fs::remove_file(&ledger);
    let _ = std::fs::remove_file(&metrics_path);
}

/// End-to-end against the buffered reference: a streamed campaign killed
/// mid-run and resumed must produce a ledger **byte-identical** to an
/// uninterrupted run of the same campaign, whose every record is in turn
/// byte-identical to the serialized buffered reference experiment
/// (`Injector::run_one_traced`) for the same fault.
#[test]
fn cli_streamed_resume_ledger_matches_uninterrupted_buffered_byte_for_byte() {
    let full_ledger = tmp("cli-xtr-full.jsonl");
    let crashed_ledger = tmp("cli-xtr-crashed.jsonl");
    let _ = std::fs::remove_file(&full_ledger);
    let _ = std::fs::remove_file(&crashed_ledger);
    let fl = full_ledger.to_str().unwrap();
    let cl = crashed_ledger.to_str().unwrap();

    let base = [
        "campaign",
        "--kernel",
        "matvec",
        "--n",
        "4",
        "--samples",
        "180",
        "--seed",
        "21",
    ];

    // uninterrupted run
    let mut full = base.to_vec();
    full.extend(["--checkpoint", fl]);
    let full_out = cli(&full);

    // its records are the buffered reference's, byte for byte
    let raw: Vec<String> = base.iter().map(|s| s.to_string()).collect();
    let args = ftb_cli::parse(&raw).unwrap();
    let kernel = args.kernel.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(args.tolerance));
    let recorded = std::fs::read_to_string(&full_ledger).unwrap();
    for line in recorded.lines().skip(1) {
        let e: Experiment = serde_json::from_str(line).unwrap();
        let reference = inj.run_one_traced(e.site, e.bit).0;
        assert_eq!(line, serde_json::to_string(&reference).unwrap());
    }

    // the same run, crashed at 90 records (torn tail), then resumed
    let mut crashing = base.to_vec();
    crashing.extend(["--checkpoint", cl]);
    let _ = cli(&crashing);
    let text = std::fs::read_to_string(&crashed_ledger).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 181, "header + 180 records");
    let mut crashed = lines[..91].join("\n");
    crashed.push_str("\n{\"site\":1,\"bit\"");
    std::fs::write(&crashed_ledger, crashed).unwrap();

    let mut resume = base.to_vec();
    resume.extend(["--checkpoint", cl, "--resume"]);
    let resumed_out = cli(&resume);

    assert_eq!(full_out, resumed_out, "reports must be identical");
    assert_eq!(
        std::fs::read(&full_ledger).unwrap(),
        std::fs::read(&crashed_ledger).unwrap(),
        "resumed ledger must be byte-identical to the uninterrupted one"
    );

    let _ = std::fs::remove_file(&full_ledger);
    let _ = std::fs::remove_file(&crashed_ledger);
}

#[test]
fn cli_resume_rejects_different_campaign() {
    let ledger = tmp("cli-mismatch.jsonl");
    let _ = std::fs::remove_file(&ledger);
    let lp = ledger.to_str().unwrap();

    cli(&[
        "campaign",
        "--kernel",
        "matvec",
        "--n",
        "4",
        "--samples",
        "50",
        "--checkpoint",
        lp,
    ]);

    // same ledger, different seed ⇒ different plan ⇒ must be refused
    let raw: Vec<String> = [
        "campaign",
        "--kernel",
        "matvec",
        "--n",
        "4",
        "--samples",
        "50",
        "--seed",
        "77",
        "--checkpoint",
        lp,
        "--resume",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let parsed = ftb_cli::parse(&raw).unwrap();
    let err = ftb_cli::commands::dispatch(&parsed).unwrap_err();
    assert!(
        err.0.contains("different campaign"),
        "unexpected error: {}",
        err.0
    );
    let _ = std::fs::remove_file(&ledger);
}

#[test]
fn cli_adaptive_checkpoint_roundtrips() {
    let cp = tmp("cli-adaptive.json");
    let metrics_path = tmp("cli-adaptive-metrics.json");
    let _ = std::fs::remove_file(&cp);
    let cpp = cp.to_str().unwrap();
    let mp = metrics_path.to_str().unwrap();

    let base = ["adaptive", "--kernel", "matvec", "--n", "6", "--seed", "11"];
    let reference = cli(&base);

    // run with per-round checkpointing, then resume from the final state:
    // the sampler must recognise the run as complete and reproduce the
    // same report without new experiments
    let mut with_cp = base.to_vec();
    with_cp.extend(["--checkpoint", cpp]);
    let first = cli(&with_cp);
    assert_eq!(reference, first);
    assert!(cp.exists(), "per-round checkpoint must be written");

    let mut resume = base.to_vec();
    resume.extend(["--checkpoint", cpp, "--resume", "--metrics-out", mp]);
    let resumed = cli(&resume);
    assert_eq!(reference, resumed);

    let metrics: MetricsSnapshot =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(
        metrics.executed, 0,
        "resuming a finished adaptive run must re-execute nothing"
    );
    assert!(metrics.resumed > 0);

    let _ = std::fs::remove_file(&cp);
    let _ = std::fs::remove_file(&metrics_path);
}

/// Run `args` through the CLI, expecting a refusal; returns the message.
fn cli_err(args: &[&str]) -> String {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let parsed = ftb_cli::parse(&raw).unwrap();
    ftb_cli::commands::dispatch(&parsed).unwrap_err().0
}

/// Rewrite the format tag at the head of the file at `path` (the
/// ledger's header line, or the adaptive checkpoint's first member).
fn retag(path: &std::path::Path, from: &str, to: &str) {
    let data = std::fs::read_to_string(path).unwrap();
    let tag = format!("{{\"format\":\"{from}\"");
    assert!(data.starts_with(&tag), "{path:?} does not start with {tag}");
    let retagged = format!("{{\"format\":\"{to}\"{}", &data[tag.len()..]);
    std::fs::write(path, retagged).unwrap();
}

/// Ledgers and adaptive checkpoints written before hangs were stopped at
/// their budget record hang outcomes differently; resuming one must be
/// refused, not mixed with new records.
#[test]
fn cli_resume_refuses_v1_ledgers_and_checkpoints() {
    let ledger = tmp("cli-v1.jsonl");
    let _ = std::fs::remove_file(&ledger);
    let lp = ledger.to_str().unwrap();
    let campaign = [
        "campaign",
        "--kernel",
        "matvec",
        "--n",
        "4",
        "--samples",
        "50",
        "--checkpoint",
        lp,
    ];
    cli(&campaign);
    retag(&ledger, "ftb-ledger-v2", "ftb-ledger-v1");
    let mut resume = campaign.to_vec();
    resume.push("--resume");
    let err = cli_err(&resume);
    assert!(err.contains("\"ftb-ledger-v1\""), "unexpected error: {err}");

    let cp = tmp("cli-adaptive-v1.json");
    let _ = std::fs::remove_file(&cp);
    let cpp = cp.to_str().unwrap();
    let adaptive = [
        "adaptive",
        "--kernel",
        "matvec",
        "--n",
        "6",
        "--seed",
        "11",
        "--checkpoint",
        cpp,
    ];
    cli(&adaptive);
    retag(&cp, "ftb-adaptive-v2", "ftb-adaptive-v1");
    let mut resume = adaptive.to_vec();
    resume.push("--resume");
    let err = cli_err(&resume);
    assert!(
        err.contains("unsupported checkpoint format \"ftb-adaptive-v1\""),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_file(&ledger);
    let _ = std::fs::remove_file(&cp);
}

/// Mutable object member `key` of a JSON value.
fn member<'a>(v: &'a mut serde_json::Value, key: &str) -> &'a mut serde_json::Value {
    v.as_object_mut()
        .expect("JSON object")
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, m)| m)
        .unwrap_or_else(|| panic!("checkpoint has no field {key:?}"))
}

fn array(v: &mut serde_json::Value) -> &mut Vec<serde_json::Value> {
    match v {
        serde_json::Value::Array(items) => items,
        other => panic!("expected an array, found {}", other.kind()),
    }
}

/// A resumed adaptive state indexes its per-site vectors, candidate
/// masks and samples by site and bit without further checks, so each
/// way a checkpoint can disagree with its own fault space must be
/// refused with an error before the sampler runs — never panic inside
/// `step` or `finish`.
#[test]
fn cli_adaptive_resume_refuses_tampered_checkpoint() {
    let cp = tmp("cli-adaptive-tamper.json");
    let tampered = tmp("cli-adaptive-tampered.json");
    let _ = std::fs::remove_file(&cp);
    let cpp = cp.to_str().unwrap();
    let tp = tampered.to_str().unwrap();

    let base = [
        "adaptive", "--kernel", "matvec", "--n", "6", "--f32", "--seed", "11",
    ];
    let mut with_cp = base.to_vec();
    with_cp.extend(["--checkpoint", cpp]);
    cli(&with_cp);
    let real: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&cp).unwrap()).unwrap();
    let n_sites = real.get("state").unwrap().get("n_sites").unwrap();
    let n_sites = n_sites.as_u64().unwrap() as usize;

    type Tamper = Box<dyn Fn(&mut serde_json::Value)>;
    let pop = |field: &'static str| -> Tamper {
        Box::new(move |s| {
            array(member(s, field)).pop();
        })
    };
    let cases: Vec<(&str, Tamper, &str)> = vec![
        ("untampered", Box::new(|_| {}), ""),
        (
            "information",
            pop("information"),
            "`information` does not cover",
        ),
        ("min_sdc", pop("min_sdc"), "`min_sdc` does not cover"),
        (
            "candidate masks",
            Box::new(|s| {
                array(member(member(s, "space"), "masks")).pop();
            }),
            "`space.masks` does not cover",
        ),
        (
            "candidate bit past the width",
            Box::new(|s| {
                array(member(member(s, "space"), "masks"))[0] = serde_json::Value::PosInt(1 << 40);
            }),
            "exceeds 32 bits",
        ),
        (
            "boundary thresholds",
            Box::new(|s| {
                array(member(member(s, "boundary"), "thresholds")).pop();
            }),
            "`boundary` does not cover",
        ),
        (
            "boundary support",
            Box::new(|s| {
                array(member(member(s, "boundary"), "support")).pop();
            }),
            "`boundary` does not cover",
        ),
        (
            "prior",
            Box::new(move |s| {
                *member(s, "prior") = serde_json::to_value(Boundary::zero(n_sites - 1)).unwrap();
            }),
            "`prior` does not cover",
        ),
        (
            "sample site",
            Box::new(move |s| {
                let sample = &mut array(member(s, "samples"))[0];
                *member(sample, "site") = serde_json::Value::PosInt(n_sites as u64);
            }),
            "outside the fault space",
        ),
        (
            "sample bit",
            Box::new(|s| {
                let sample = &mut array(member(s, "samples"))[0];
                *member(sample, "bit") = serde_json::Value::PosInt(32);
            }),
            "outside the fault space",
        ),
    ];

    for (name, tamper, expected) in cases {
        let mut cp_json = real.clone();
        let state = member(&mut cp_json, "state");
        // reopen the finished run so a resume would also reach `step`
        *member(state, "done") = serde_json::Value::Bool(false);
        tamper(state);
        std::fs::write(&tampered, serde_json::to_string(&cp_json).unwrap()).unwrap();

        let mut resume = base.to_vec();
        resume.extend(["--checkpoint", tp, "--resume"]);
        let raw: Vec<String> = resume.iter().map(|s| s.to_string()).collect();
        let result = ftb_cli::commands::dispatch(&ftb_cli::parse(&raw).unwrap());
        if expected.is_empty() {
            assert!(result.is_ok(), "{name}: {:?}", result.err());
        } else {
            let err = result.expect_err(name);
            assert!(
                err.0.contains("corrupt or foreign checkpoint") && err.0.contains(expected),
                "{name}: unexpected error: {}",
                err.0
            );
        }
    }
    let _ = std::fs::remove_file(&cp);
    let _ = std::fs::remove_file(&tampered);
}
