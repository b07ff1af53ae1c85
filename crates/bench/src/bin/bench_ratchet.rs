//! Bench-report gate: evaluate the gate table on the committed
//! `BENCH_ppopp21.json` and on freshly measured reports, then compare
//! the fresh extraction-suite tier against the committed one and fail on
//! throughput regressions.
//!
//! Usage:
//!   `cargo run --release -p ftb-bench --bin bench_ratchet -- \
//!      --baseline BENCH_ppopp21.json --fresh bench-smoke.json \
//!      [--fresh bench-smoke-2.json ...] [--tier quick] [--tolerance 0.2]`
//!
//! Exits nonzero, naming each failed row, if any row of the gate table
//! (`ftb_bench::gates`) fails on any tier of the baseline or on the
//! compared tier of any fresh report, or if any throughput metric of the
//! baseline's tier fell more than the tolerance band below its committed
//! value. `--fresh` may repeat: each metric's fresh value is the
//! per-metric **max** across the runs, so one slow sample on a noisy
//! runner is not a regression, N in a row is. Metrics the baseline lacks
//! are skipped. The delta table goes to stdout and, when
//! `$GITHUB_STEP_SUMMARY` is set, to the job summary. Unknown flags, an
//! unreadable or foreign-schema report and a malformed `--tolerance`
//! exit 2; `--help` prints usage.

use ftb_bench::flags::flags_or_exit;
use ftb_bench::ratchet::{compare, extract_metrics, markdown_table};
use ftb_bench::{failures, BenchDoc, PerfReport};

const USAGE: &str =
    "usage: bench_ratchet [--baseline PATH] [--fresh PATH ...] [--tier NAME] [--tolerance F]

  --baseline PATH   committed report (BENCH_ppopp21.json)
  --fresh PATH      fresh report; repeat to take the per-metric max (bench-smoke.json)
  --tier NAME       tier to compare (quick)
  --tolerance F     allowed fractional drop, in [0, 1) (0.2)";

fn load(path: &str) -> BenchDoc {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| BenchDoc::parse(&text));
    doc.unwrap_or_else(|e| {
        eprintln!("bench_ratchet: {path}: {e}");
        std::process::exit(2);
    })
}

/// Print every row `report` fails; whether it failed any.
fn gate(path: &str, tier: &str, report: &PerfReport) -> bool {
    let failed = failures(report);
    for f in &failed {
        eprintln!("FAIL: {path} {tier} tier: {f}");
    }
    !failed.is_empty()
}

fn main() {
    let flags = flags_or_exit(
        USAGE,
        &[],
        &["--baseline", "--fresh", "--tier", "--tolerance"],
    );
    let baseline_path = flags.value("--baseline").unwrap_or("BENCH_ppopp21.json");
    let mut fresh_paths = flags.values("--fresh");
    if fresh_paths.is_empty() {
        fresh_paths.push("bench-smoke.json");
    }
    let tier = flags.value("--tier").unwrap_or("quick");
    let tolerance = match flags.value("--tolerance").map(str::parse::<f64>) {
        None => 0.2,
        Some(Ok(t)) if (0.0..1.0).contains(&t) => t,
        Some(_) => {
            eprintln!("error: --tolerance takes a fraction in [0, 1), e.g. 0.2\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    let baseline = load(baseline_path);
    let mut gate_failed = false;
    for name in ["full", "quick"] {
        if let Some(report) = baseline.tier(name) {
            gate_failed |= gate(baseline_path, name, report);
        }
    }
    let mut fresh: Vec<(String, f64)> = Vec::new();
    for path in &fresh_paths {
        let doc = load(path);
        let Some(fresh_tier) = doc.tier(tier) else {
            eprintln!("bench_ratchet: {path} has no '{tier}' tier");
            std::process::exit(2);
        };
        gate_failed |= gate(path, tier, fresh_tier);
        for (name, v) in extract_metrics(fresh_tier) {
            match fresh.iter_mut().find(|(n, _)| *n == name) {
                Some(e) => e.1 = e.1.max(v),
                None => fresh.push((name, v)),
            }
        }
    }

    let mut regressed = false;
    if let Some(base_tier) = baseline.tier(tier) {
        let deltas = compare(&extract_metrics(base_tier), &fresh, tolerance);
        let table = markdown_table(&deltas, tolerance);
        print!("{table}");
        if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
            use std::io::Write;
            if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&summary) {
                let _ = f.write_all(table.as_bytes());
            }
        }
        for d in deltas.iter().filter(|d| d.regressed) {
            regressed = true;
            eprintln!(
                "FAIL: {} regressed to {:.2}x of committed baseline ({:.3} -> {:.3})",
                d.name, d.ratio, d.baseline, d.fresh
            );
        }
    } else {
        // no committed numbers for this tier yet: nothing to ratchet
        println!("bench_ratchet: {baseline_path} has no '{tier}' tier; nothing to compare");
    }
    if gate_failed || regressed {
        std::process::exit(1);
    }
}
