//! The perf-ratchet comparison behind the `bench_ratchet` binary.
//!
//! Compares a freshly measured tier of the extraction suite against the
//! same tier of the committed `BENCH_ppopp21.json` and fails on any
//! throughput metric that regressed past a tolerance band. Every metric
//! is higher-is-better; metrics absent from the committed baseline — a
//! new workload, a new stanza — are skipped rather than failed: the
//! ratchet only tightens once a number has been committed.
//!
//! CI runners are noisy and differ from the machine that produced the
//! committed baseline, hence the generous default band (20%), the
//! best-of-N timing of each ratcheted leg (`PerfWorkload::timing_repeats`)
//! and the per-metric max over several fresh runs in `bench_ratchet`.
//! The speedup rows additionally divide the machine out.

use crate::perf::PerfReport;

/// One metric's baseline/fresh pair and its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Slash-separated metric path, e.g. `jacobi/streamed/exp_per_sec`.
    pub name: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// `fresh / baseline`.
    pub ratio: f64,
    /// Whether `fresh < baseline * (1 - tolerance)`.
    pub regressed: bool,
}

/// The ratcheted metric set of one tier's report. Every metric is
/// higher-is-better.
pub fn extract_metrics(tier: &PerfReport) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for w in &tier.workloads {
        let name = &w.name;
        for p in &w.paths {
            out.push((
                format!("{name}/{}/exp_per_sec", p.path),
                p.experiments_per_sec,
            ));
        }
        out.push((
            format!("{name}/speedup_streamed_vs_buffered"),
            w.speedup_streamed_vs_buffered,
        ));
        if let Some(s) = &w.snapshot {
            out.push((
                format!("{name}/snapshot/exp_per_sec"),
                s.experiments_per_sec,
            ));
            out.push((
                format!("{name}/snapshot/speedup_vs_streamed"),
                s.speedup_vs_streamed,
            ));
        }
        if let Some(b) = &w.batch {
            out.push((format!("{name}/batch/exp_per_sec"), b.experiments_per_sec));
            out.push((
                format!("{name}/batch/speedup_vs_snapshot"),
                b.speedup_vs_snapshot,
            ));
        }
    }
    out
}

/// Compare fresh metrics against the baseline. Metrics the baseline
/// lacks are skipped (the ratchet has nothing to hold them to yet);
/// metrics the fresh run lacks are reported as full regressions — a
/// stanza that stopped running is exactly what the gate exists to catch.
pub fn compare(
    baseline: &[(String, f64)],
    fresh: &[(String, f64)],
    tolerance: f64,
) -> Vec<MetricDelta> {
    baseline
        .iter()
        .filter(|(_, b)| b.is_finite() && *b > 0.0)
        .map(|(name, b)| {
            let f = fresh
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            MetricDelta {
                name: name.clone(),
                baseline: *b,
                fresh: f,
                ratio: f / b,
                regressed: f < b * (1.0 - tolerance),
            }
        })
        .collect()
}

/// Render the delta table as GitHub-flavoured markdown for the job
/// summary.
pub fn markdown_table(deltas: &[MetricDelta], tolerance: f64) -> String {
    let mut s = String::from("## Perf ratchet\n\n");
    s.push_str(&format!(
        "Tolerance band: {:.0}% below committed baseline.\n\n",
        tolerance * 100.0
    ));
    s.push_str("| metric | baseline | fresh | ratio | verdict |\n");
    s.push_str("|---|---:|---:|---:|---|\n");
    for d in deltas {
        s.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:.2}x | {} |\n",
            d.name,
            d.baseline,
            d.fresh,
            d.ratio,
            if d.regressed { "REGRESSED" } else { "ok" },
        ));
    }
    let n = deltas.iter().filter(|d| d.regressed).count();
    s.push_str(&format!(
        "\n{} of {} metrics regressed past the band.\n",
        n,
        deltas.len()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_path_speedup_and_snapshot_metrics() {
        let quick = crate::gates::tests::committed().tiers.quick.unwrap();
        let m = extract_metrics(&quick);
        let names: Vec<&str> = m.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names[..7],
            [
                "jacobi/buffered/exp_per_sec",
                "jacobi/streamed/exp_per_sec",
                "jacobi/speedup_streamed_vs_buffered",
                "jacobi/snapshot/exp_per_sec",
                "jacobi/snapshot/speedup_vs_streamed",
                "jacobi/batch/exp_per_sec",
                "jacobi/batch/speedup_vs_snapshot",
            ]
        );
        assert_eq!(m[2].1, quick.workloads[0].speedup_streamed_vs_buffered);
        // a workload without snapshot and batch legs ratchets its paths only
        let fft: Vec<&str> = names
            .into_iter()
            .filter(|n| n.starts_with("fft/"))
            .collect();
        assert_eq!(
            fft,
            [
                "fft/buffered/exp_per_sec",
                "fft/streamed/exp_per_sec",
                "fft/speedup_streamed_vs_buffered",
            ]
        );
    }

    #[test]
    fn regression_detection_respects_tolerance_band() {
        let base = vec![("a".to_string(), 100.0), ("b".to_string(), 100.0)];
        let fresh = vec![("a".to_string(), 81.0), ("b".to_string(), 79.0)];
        let d = compare(&base, &fresh, 0.2);
        assert!(!d[0].regressed, "within band: {:?}", d[0]);
        assert!(d[1].regressed, "past band: {:?}", d[1]);
    }

    #[test]
    fn baseline_only_metrics_gate_fresh_only_metrics_skip() {
        let base = vec![("gone".to_string(), 50.0)];
        let fresh = vec![("new".to_string(), 9.0)];
        let d = compare(&base, &fresh, 0.2);
        // a metric the fresh run no longer produces is a regression...
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].name, "gone");
        assert!(d[0].regressed);
        // ...while a metric with no committed baseline is not gated
        assert!(!d.iter().any(|m| m.name == "new"));
    }

    #[test]
    fn zero_and_nonfinite_baselines_are_skipped() {
        let base = vec![("z".to_string(), 0.0), ("n".to_string(), f64::NAN)];
        let d = compare(&base, &[], 0.2);
        assert!(d.is_empty());
    }

    #[test]
    fn markdown_table_lists_every_metric() {
        let d = compare(&[("a".to_string(), 100.0)], &[("a".to_string(), 50.0)], 0.2);
        let md = markdown_table(&d, 0.2);
        assert!(md.contains("| a | 100.000 | 50.000 | 0.50x | REGRESSED |"));
        assert!(md.contains("1 of 1 metrics regressed"));
    }
}
