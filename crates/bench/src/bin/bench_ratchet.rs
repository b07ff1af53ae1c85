//! Perf-ratchet gate: compare a freshly measured extraction-suite tier
//! against the committed `BENCH_ppopp21.json` and fail on regressions.
//!
//! Usage:
//!   `cargo run --release -p ftb-bench --bin bench_ratchet -- \
//!      --baseline BENCH_ppopp21.json --fresh bench-smoke.json \
//!      [--fresh bench-smoke-2.json ...] [--tier quick] [--tolerance 0.2]`
//!
//! Exits nonzero if any throughput metric in the committed baseline's
//! tier fell more than the tolerance band below its committed value in
//! the fresh run. `--fresh` may repeat: each metric's fresh value is the
//! per-metric **max** across the given runs, so a regression means even
//! the best of N fresh runs could not reach the band — one slow sample
//! on a noisy shared runner is not a regression, N in a row is. Metrics
//! the baseline lacks are skipped — the ratchet only tightens after a
//! number is committed. The delta table goes to stdout and, when
//! `$GITHUB_STEP_SUMMARY` is set, to the job summary. Unknown flags and
//! a malformed `--tolerance` exit 2; `--help` prints usage.

use ftb_bench::flags::flags_or_exit;
use ftb_bench::ratchet::{compare, extract_metrics, markdown_table};
use serde_json::Value;

const USAGE: &str =
    "usage: bench_ratchet [--baseline PATH] [--fresh PATH ...] [--tier NAME] [--tolerance F]

  --baseline PATH   committed report (BENCH_ppopp21.json)
  --fresh PATH      fresh report; repeat to take the per-metric max (bench-smoke.json)
  --tier NAME       tier to compare (quick)
  --tolerance F     allowed fractional drop, in [0, 1) (0.2)";

fn load_tier(path: &str, tier: &str) -> Option<Value> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| {
            eprintln!("bench_ratchet: cannot read {path}: {e}");
            std::process::exit(2);
        })
        .unwrap();
    let doc: Value = serde_json::from_str(&text)
        .map_err(|e| {
            eprintln!("bench_ratchet: {path} is not valid JSON: {e}");
            std::process::exit(2);
        })
        .unwrap();
    if doc.get("schema").and_then(Value::as_str) != Some(ftb_bench::BENCH_SCHEMA) {
        eprintln!(
            "bench_ratchet: {path} has schema {:?}, expected {:?}",
            doc.get("schema"),
            ftb_bench::BENCH_SCHEMA
        );
        std::process::exit(2);
    }
    doc.get("tiers").and_then(|t| t.get(tier)).cloned()
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

    let Some(base_tier) = load_tier(baseline_path, tier) else {
        // no committed numbers for this tier yet: nothing to ratchet
        println!("bench_ratchet: {baseline_path} has no '{tier}' tier; nothing to compare");
        return;
    };
    let mut fresh: Vec<(String, f64)> = Vec::new();
    for path in &fresh_paths {
        let Some(fresh_tier) = load_tier(path, tier) else {
            eprintln!("bench_ratchet: {path} has no '{tier}' tier");
            std::process::exit(2);
        };
        for (name, v) in extract_metrics(&fresh_tier) {
            match fresh.iter_mut().find(|(n, _)| *n == name) {
                Some(e) => e.1 = e.1.max(v),
                None => fresh.push((name, v)),
            }
        }
    }

    let deltas = compare(&extract_metrics(&base_tier), &fresh, tolerance);
    let table = markdown_table(&deltas, tolerance);
    print!("{table}");
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&summary) {
            let _ = f.write_all(table.as_bytes());
        }
    }

    let regressed: Vec<_> = deltas.iter().filter(|d| d.regressed).collect();
    if !regressed.is_empty() {
        for d in &regressed {
            eprintln!(
                "FAIL: {} regressed to {:.2}x of committed baseline ({:.3} -> {:.3})",
                d.name, d.ratio, d.baseline, d.fresh
            );
        }
        std::process::exit(1);
    }
}
