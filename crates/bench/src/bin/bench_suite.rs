//! The extraction-path performance suite: exhaustive + adaptive
//! campaigns over the instrumented kernels at pinned seeds and sizes,
//! streamed extraction timed against the buffered reference, with a machine-readable
//! report (the quick tier also characterizes serial-vs-parallel outcome
//! distributions per workload and gates their TVD at exactly zero).
//!
//! Usage:
//!   `cargo run --release -p ftb-bench --bin bench_suite [-- --quick] [-- --out PATH]`
//!
//! `--quick` runs the tiny CI-smoke tier; the default full tier is what
//! the committed `BENCH_ppopp21.json` reports. Exits nonzero if the
//! streamed path disagrees with the reference on any outcome table — a
//! throughput number from a path that produces different results is
//! meaningless. Unknown flags exit 2 and `--help` prints usage, both
//! without running anything.

use ftb_bench::flags::flags_or_exit;
use ftb_bench::perf::{merge_tier, run_suite};

const USAGE: &str = "usage: bench_suite [--quick] [--out PATH]

  --quick      run the quick (CI-smoke) tier instead of the full tier
  --out PATH   report to merge this tier into (BENCH_ppopp21.json)";

fn main() {
    let flags = flags_or_exit(USAGE, &["--quick"], &["--out"]);
    let quick = flags.has("--quick");
    let out = flags
        .value("--out")
        .unwrap_or("BENCH_ppopp21.json")
        .to_string();

    let report = run_suite(quick);

    let tier = if quick { "quick" } else { "full" };
    println!(
        "extraction suite ({tier} tier, {} threads)\n",
        report.threads
    );
    for w in &report.workloads {
        println!(
            "{:8} {} sites x {} bits  (golden {:.1} KiB full / {:.1} KiB compact)",
            w.name,
            w.n_sites,
            w.bits,
            w.golden_bytes_full as f64 / 1024.0,
            w.golden_bytes_compact as f64 / 1024.0,
        );
        for p in &w.paths {
            println!(
                "  {:9} {:>9.0} exp/s  ({} experiments in {:.2}s, stride {}{})",
                p.path,
                p.experiments_per_sec,
                p.exhaustive_experiments,
                p.exhaustive_secs,
                p.site_stride,
                p.adaptive_secs
                    .map(|s| format!(", adaptive {s:.2}s"))
                    .unwrap_or_default(),
            );
        }
        println!(
            "  streamed vs buffered: {:.2}x (floor {:.1})   agree: {}",
            w.speedup_streamed_vs_buffered, w.min_streamed_speedup, w.paths_agree
        );
        if let Some(s) = &w.snapshot {
            println!(
                "  snapshot  {:>9.0} exp/s  ({} experiments in {:.2}s from {} snapshots, \
                 {:.1} MiB store, captured in {:.2}s): {:.2}x vs streamed (floor {:.1}, \
                 eps floor {:.1}), identical {}",
                s.experiments_per_sec,
                s.exhaustive_experiments,
                s.exhaustive_secs,
                s.snapshots,
                s.store_mb,
                s.capture_secs,
                s.speedup_vs_streamed,
                s.min_speedup,
                s.min_eps,
                s.identical,
            );
        }
        if let Some(b) = &w.batch {
            println!(
                "  batch     {:>9.0} exp/s  ({} experiments in {:.2}s, {} lanes): \
                 {:.2}x vs snapshot (floor {:.1}, eps floor {:.1}), {:.2}x vs streamed, \
                 identical {}",
                b.experiments_per_sec,
                b.exhaustive_experiments,
                b.exhaustive_secs,
                b.lanes,
                b.speedup_vs_snapshot,
                b.min_speedup,
                b.min_eps,
                b.speedup_vs_streamed,
                b.identical,
            );
        }
        if let Some(c) = &w.compose {
            println!(
                "  compose   {} sections, {} injections in {:.2}s: precision {:.4}, \
                 recall {:.4}, conservative {:.1}%",
                c.n_sections,
                c.n_injections,
                c.analyze_secs,
                c.precision,
                c.recall,
                c.conservative_fraction * 100.0,
            );
            if let Some(i) = &c.incremental {
                println!(
                    "  compose~  edit re-ran {} of {} sections ({} injections, {:.2}s): \
                     precision {:.4}, recall {:.4}",
                    i.dirty_sections,
                    c.n_sections,
                    i.n_injections,
                    i.reanalyze_secs,
                    i.precision_after_edit,
                    i.recall_after_edit,
                );
            }
        }
        if let Some(sb) = &w.staticbound {
            println!(
                "  static    {:>6.1} ms record + {:.1} ms backward ({} edges, 0 injections): \
                 precision {:.4}, recall {:.4}, conservative {:.1}%",
                sb.record_secs * 1e3,
                sb.backward_secs * 1e3,
                sb.n_edges,
                sb.precision,
                sb.recall,
                sb.conservative_fraction * 100.0,
            );
        }
        if let Some(t) = &w.tvd {
            println!(
                "  tvd       pools {:?}: max {:.3e}, mean {:.3e} over {} sites \
                 ({} experiments per pool), diverging sites {}, deterministic {}",
                t.thread_counts,
                t.max_tvd,
                t.mean_tvd,
                t.n_sites,
                t.n_experiments,
                t.diverging_sites,
                t.deterministic,
            );
        }
        if let Some(b) = &w.bits_map {
            println!(
                "  bits      {:.2}x reduction ({} of {} bits certified, {:.1} ms analysis): \
                 unpruned {:.0} exp/s ({} exp), pruned {:.0} exp/s ({} exp), \
                 violations {}, agree {}",
                b.reduction_factor,
                b.certified_measured,
                b.total_measured,
                b.analysis_secs * 1e3,
                b.unpruned_eps,
                b.unpruned_experiments,
                b.pruned_eps,
                b.pruned_experiments,
                b.violations,
                b.agree_non_certified,
            );
        }
        println!();
    }

    // merge this tier into the existing document so a quick run never
    // clobbers committed paper-scale numbers (and vice versa)
    let prev = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    let doc = merge_tier(prev, &report);
    let json = serde_json::to_string_pretty(&doc).unwrap();
    std::fs::write(&out, json + "\n").unwrap();
    println!("wrote {out} ({tier} tier)");

    if !report.all_paths_agree {
        eprintln!("FAIL: streamed extraction disagrees with the buffered reference on at least one outcome table");
        std::process::exit(1);
    }
    if !report.compose_ok {
        eprintln!("FAIL: a compositional-analysis stanza missed its quality gate");
        std::process::exit(1);
    }
    if !report.bits_ok {
        eprintln!(
            "FAIL: a bit-prune stanza missed its gate (certified-bit violation, \
             pruned/unpruned divergence, or reduction below floor)"
        );
        std::process::exit(1);
    }
    if !report.snapshot_ok {
        eprintln!(
            "FAIL: a snapshot leg missed its gate (resumed outcome table diverged \
             from the from-t=0 table, speedup below the workload's floor, or \
             absolute exp/s below the workload's eps floor)"
        );
        std::process::exit(1);
    }
    if !report.batch_ok {
        eprintln!(
            "FAIL: a batched-execution leg missed its gate (batched outcome table \
             diverged from the from-t=0 table, speedup over the scalar snapshot \
             leg below the workload's floor, or absolute exp/s below the \
             workload's eps floor)"
        );
        std::process::exit(1);
    }
    if !report.streamed_ok {
        eprintln!("FAIL: streamed-vs-buffered speedup fell below a workload's pinned floor");
        std::process::exit(1);
    }
    if !report.tvd_ok {
        eprintln!(
            "FAIL: a serial-vs-parallel characterization found a nonzero \
             total-variation distance between pool sizes"
        );
        std::process::exit(1);
    }
}
