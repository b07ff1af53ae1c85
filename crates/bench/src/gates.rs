//! The bench gate table: every check a [`PerfReport`] tier must pass,
//! declared once. `bench_suite` (on the tier it measured), `bench_ratchet`
//! (on every tier of the baseline and the compared tier of each fresh
//! report) and the tests (on the committed `BENCH_ppopp21.json`) judge
//! reports by these rows; no verdict is stored. Most rows are
//! differential checks: a throughput number from a path whose results
//! differ from the reference is meaningless. The floor rows read the
//! floors the report records (0.0 disables one).

use crate::perf::{PerfReport, WorkloadReport};
use std::fmt;

/// One row of the gate table.
#[derive(Debug)]
pub struct Gate {
    /// Row name, printed when the row fails.
    pub name: &'static str,
    /// The report stanza the row reads.
    pub stanza: &'static str,
    /// Whether a tier in which no workload carries the stanza fails the
    /// row: the check must have run somewhere to vouch for anything.
    pub required: bool,
    /// The predicate over one workload.
    pub check: Check,
}

/// A row's predicate; `None` when the workload does not carry the stanza.
pub type Check = fn(&WorkloadReport) -> Option<bool>;

const fn row(name: &'static str, stanza: &'static str, check: Check) -> Gate {
    Gate {
        name,
        stanza,
        required: false,
        check,
    }
}

/// The gate table.
#[rustfmt::skip]
pub const GATES: &[Gate] = &[
    // streamed extraction reproduces the buffered reference's outcome
    // table, and both paths ran
    row("paths_agree", "paths", |w| Some(w.paths_agree)),
    row("paths_measured", "paths", |w| Some(w.paths.iter().all(|p| p.experiments_per_sec > 0.0))),
    // the shared compact golden is smaller than the full trace (§5)
    row("compact_golden", "paths", |w| Some(w.golden_bytes_compact < w.golden_bytes_full)),
    // guards against re-introducing the streamed-path slowdown the
    // `DeltaRoute` split fixed
    row("streamed_speedup_floor", "paths", |w| Some(w.speedup_streamed_vs_buffered >= w.min_streamed_speedup)),
    // resume is bit-exact: a divergence is a bug, not noise
    row("snapshot_identical", "snapshot", |w| w.snapshot.as_ref().map(|s| s.identical)),
    row("snapshot_captured", "snapshot", |w| w.snapshot.as_ref().map(|s| s.snapshots > 0 && s.store_mb > 0.0)),
    // the floors each workload pins (`PerfWorkload`), relative and absolute
    row("snapshot_speedup_floor", "snapshot", |w| w.snapshot.as_ref().map(|s| s.speedup_vs_streamed >= s.min_speedup)),
    row("snapshot_eps_floor", "snapshot", |w| w.snapshot.as_ref().map(|s| s.experiments_per_sec >= s.min_eps)),
    // batching is invisible in the results, on the snapshot leg's plan
    row("batch_identical", "batch", |w| w.batch.as_ref().map(|b| b.identical)),
    row("batch_same_plan", "batch", |w| w.batch.as_ref().map(|b| {
        b.experiments_per_sec > 0.0
            && Some(b.exhaustive_experiments) == w.snapshot.as_ref().map(|s| s.exhaustive_experiments)
    })),
    row("batch_speedup_floor", "batch", |w| w.batch.as_ref().map(|b| b.speedup_vs_snapshot >= b.min_speedup)),
    row("batch_eps_floor", "batch", |w| w.batch.as_ref().map(|b| b.experiments_per_sec >= b.min_eps)),
    // no certified bit is observed unmasked, and every tier certifies
    Gate { required: true, ..row("bits_sound", "bits_map", |w| w.bits_map.as_ref().map(|b| b.violations == 0)) },
    // the pruned campaign reproduces the unpruned outcome on every cell
    // it runs, runs fewer cells, and meets the workload's floor
    row("bits_pruned_agree", "bits_map", |w| w.bits_map.as_ref().map(|b| b.agree_non_certified)),
    row("bits_pruned_fewer", "bits_map", |w| w.bits_map.as_ref().map(|b| b.pruned_experiments < b.unpruned_experiments)),
    row("bits_reduction_floor", "bits_map", |w| w.bits_map.as_ref().map(|b| b.reduction_factor >= b.min_reduction)),
    // the affine domain is never looser than the interval domain
    row("bits_affine_ge_interval", "bits_map", |w| {
        w.bits_map.as_ref().map(|b| b.affine_certified_measured >= b.interval_certified_measured)
    }),
    // the zero-injection bound spends no injections and stays precise
    row("static_quality", "staticbound", |w| w.staticbound.as_ref().map(|s| {
        s.n_injections_static == 0 && s.n_edges > 0 && s.precision >= 0.95 && s.recall > 0.0
    })),
    // the composed boundary is precise and fully conservative; the
    // pinned edit dirties exactly one section and reuses the rest
    row("compose_quality", "compose", |w| w.compose.as_ref().map(|c| {
        c.precision >= 0.95 && c.conservative_fraction >= 1.0 && c.recall >= 0.9
    })),
    row("compose_incremental", "compose", |w| {
        let c = w.compose.as_ref()?;
        c.incremental.as_ref().map(|i| {
            i.dirty_sections == 1 && i.reused_sections + 1 == c.n_sections && i.n_injections < c.n_injections
                && i.recall_after_edit >= 0.9 && i.precision_after_edit >= 0.95
        })
    }),
    // outcomes are a pure function of the fault: the pool size changes
    // no per-site distribution of the whole exhaustive table
    row("tvd_zero", "tvd", |w| w.tvd.as_ref().map(|t| t.deterministic && t.max_tvd == 0.0 && t.diverging_sites == 0)),
    row("tvd_full_table", "tvd", |w| w.tvd.as_ref().map(|t| t.n_experiments == w.n_sites as u64 * u64::from(w.bits))),
];

/// A row a tier fails.
#[derive(Debug)]
pub struct Failure {
    /// The failed row.
    pub gate: &'static Gate,
    /// The workloads that failed it; empty when a required stanza ran
    /// on no workload.
    pub workloads: Vec<String>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Gate { name, stanza, .. } = self.gate;
        match &self.workloads[..] {
            [] => write!(f, "gate {name} ({stanza}): no workload carries the stanza"),
            failed => write!(f, "gate {name} ({stanza}) fails on {}", failed.join(", ")),
        }
    }
}

/// Every row `tier` fails, in table order.
pub fn failures(tier: &PerfReport) -> Vec<Failure> {
    let mut out = Vec::new();
    for gate in GATES {
        let verdicts: Vec<_> = tier
            .workloads
            .iter()
            .filter_map(|w| Some((w, (gate.check)(w)?)))
            .collect();
        let workloads: Vec<String> = verdicts
            .iter()
            .filter(|v| !v.1)
            .map(|v| v.0.name.clone())
            .collect();
        if !workloads.is_empty() || gate.required && verdicts.is_empty() {
            out.push(Failure { gate, workloads });
        }
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::perf::BenchDoc;

    /// The committed benchmark document.
    pub(crate) fn committed() -> BenchDoc {
        BenchDoc::parse(include_str!("../../../BENCH_ppopp21.json"))
            .expect("committed report parses")
    }

    fn names(tier: &PerfReport) -> Vec<&'static str> {
        failures(tier).iter().map(|f| f.gate.name).collect()
    }

    /// A stale or hand-edited baseline fails `cargo test`, not only CI.
    #[test]
    fn committed_report_fails_no_row() {
        let doc = committed();
        for tier in ["quick", "full"] {
            let report = doc.tier(tier).unwrap_or_else(|| panic!("no {tier} tier"));
            assert_eq!(names(report), Vec::<&str>::new(), "{tier} tier");
        }
    }

    #[test]
    fn row_names_are_unique() {
        for (i, g) in GATES.iter().enumerate() {
            assert!(GATES[..i].iter().all(|h| h.name != g.name), "{}", g.name);
        }
    }

    /// Break one field of the committed `tier`'s jacobi workload and
    /// require that exactly `row` fails, naming jacobi.
    fn breaks_only(row: &str, tier: &str, brk: impl FnOnce(&mut WorkloadReport)) {
        let mut report = committed().tier(tier).unwrap().clone();
        brk(&mut report.workloads[0]);
        let failed = failures(&report);
        assert_eq!(failed.len(), 1, "{row}: {failed:?}");
        assert_eq!(failed[0].gate.name, row);
        assert_eq!(failed[0].workloads, ["jacobi"]);
    }

    /// One test per row: `row: tier => |jacobi| break`.
    macro_rules! break_tests {
        ($($row:ident: $tier:literal => |$w:ident| $brk:expr;)*) => {
            $(
                #[test]
                fn $row() {
                    breaks_only(stringify!($row), $tier, |$w: &mut WorkloadReport| {
                        $brk;
                    });
                }
            )*

            #[test]
            fn every_row_has_a_break_test() {
                let covered = [$(stringify!($row)),*];
                for g in GATES {
                    assert!(covered.contains(&g.name), "no break test for {}", g.name);
                }
            }
        };
    }

    fn snap(w: &mut WorkloadReport) -> &mut crate::perf::SnapshotStats {
        w.snapshot.as_mut().unwrap()
    }
    fn batch(w: &mut WorkloadReport) -> &mut crate::perf::BatchStats {
        w.batch.as_mut().unwrap()
    }
    fn bits(w: &mut WorkloadReport) -> &mut crate::perf::BitsStats {
        w.bits_map.as_mut().unwrap()
    }
    fn compose(w: &mut WorkloadReport) -> &mut crate::perf::ComposeStats {
        w.compose.as_mut().unwrap()
    }

    break_tests! {
        paths_agree: "quick" => |w| w.paths_agree = false;
        paths_measured: "quick" => |w| w.paths[1].experiments_per_sec = 0.0;
        compact_golden: "quick" => |w| w.golden_bytes_compact = w.golden_bytes_full;
        streamed_speedup_floor: "full" => |w| w.speedup_streamed_vs_buffered = 0.9;
        snapshot_identical: "quick" => |w| snap(w).identical = false;
        snapshot_captured: "quick" => |w| snap(w).snapshots = 0;
        snapshot_speedup_floor: "full" => |w| snap(w).speedup_vs_streamed = 4.9;
        snapshot_eps_floor: "full" => |w| snap(w).experiments_per_sec = 32.0;
        batch_identical: "quick" => |w| batch(w).identical = false;
        batch_same_plan: "quick" => |w| batch(w).exhaustive_experiments -= 1;
        batch_speedup_floor: "full" => |w| batch(w).speedup_vs_snapshot = 1.4;
        batch_eps_floor: "full" => |w| batch(w).experiments_per_sec = 119.0;
        bits_sound: "quick" => |w| bits(w).violations = 1;
        bits_pruned_agree: "quick" => |w| bits(w).agree_non_certified = false;
        bits_pruned_fewer: "quick" => |w| bits(w).pruned_experiments = bits(w).unpruned_experiments;
        bits_reduction_floor: "full" => |w| bits(w).reduction_factor = 2.4;
        bits_affine_ge_interval: "quick" => |w| {
            bits(w).affine_certified_measured = bits(w).interval_certified_measured - 1
        };
        static_quality: "quick" => |w| w.staticbound.as_mut().unwrap().precision = 0.9;
        compose_quality: "quick" => |w| compose(w).conservative_fraction = 0.99;
        compose_incremental: "full" => |w| compose(w).incremental.as_mut().unwrap().dirty_sections = 2;
        tvd_zero: "quick" => |w| w.tvd.as_mut().unwrap().max_tvd = 0.01;
        tvd_full_table: "quick" => |w| w.tvd.as_mut().unwrap().n_experiments -= 1;
    }

    #[test]
    fn a_tier_with_no_bits_stanza_fails_bits_sound() {
        for tier in ["quick", "full"] {
            let mut report = committed().tier(tier).unwrap().clone();
            report.workloads.iter_mut().for_each(|w| w.bits_map = None);
            let failed = failures(&report);
            assert_eq!(names(&report), ["bits_sound"], "{tier}");
            assert!(failed[0].workloads.is_empty());
            assert!(
                failed[0].to_string().contains("no workload"),
                "{}",
                failed[0]
            );
        }
    }
}
