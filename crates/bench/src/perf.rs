//! Reproducible extraction-path performance suite (`bench_suite` binary).
//!
//! Measures streamed propagation extraction
//! (`Injector::extract_propagation`: compare while executing) against
//! the buffered reference (`Injector::run_one_traced`: record the full
//! faulty trace, compare afterwards) on strided exhaustive campaigns in
//! which every experiment extracts its propagation window, plus the
//! adaptive campaign; the snapshot and batch legs time the outcome-only
//! path (`Injector::run_many`) on the same plan. It runs at pinned seeds
//! and sizes and emits a machine-readable
//! report (`BENCH_ppopp21.json`) so every PR has a throughput
//! trajectory to answer to. The full tier runs Jacobi, GEMM and CG (the
//! paper's scale on Jacobi); the quick tier covers every
//! provenance-instrumented kernel — jacobi, gemm, cg, lu, fft, stencil,
//! matvec, spmv — and additionally records each workload's
//! serial-vs-parallel outcome-distribution delta (per-site
//! total-variation distance under 1- and 8-thread pools, gated at
//! exactly zero). The suite also *asserts* that the streamed table equals
//! the reference table: a performance number from a path that disagrees
//! with the reference is meaningless.
//!
//! The full tier's Jacobi workload runs at paper scale (~10M dynamic
//! instructions per execution): that is where the paths separate, because
//! the buffered extractor's per-experiment working set (full faulty
//! trace + golden trace + dense error vector, ~25–35 bytes/site) falls
//! out of cache while the streamed path re-reads only the shared compact
//! golden (~5 bytes/site) and retains nothing per experiment. At
//! cache-resident sizes all paths time within noise of each other — the
//! difference the paper's §5 memory-overhead argument predicts is a
//! *footprint* difference, and it becomes a wall-clock difference only
//! past the cache cliff.
//!
//! Per-experiment cost at paper scale makes a full exhaustive table
//! (sites × bits ≈ 300M runs) infeasible on one machine, so every path
//! runs the same site-strided subsample of the exhaustive table
//! (`site_stride`, full bit coverage at each kept site); throughput is
//! experiments-per-second over the experiments actually run.

use ftb_core::prelude::*;
use ftb_inject::{ExhaustiveResult, Experiment, DEFAULT_MAX_SNAPSHOTS};
use ftb_kernels::{
    CgConfig, CgStorage, FftConfig, GemmConfig, JacobiConfig, Kernel, KernelConfig, LuConfig,
    MatvecConfig, SpmvConfig, StencilConfig, SweepTweak,
};
use ftb_trace::{CompactGolden, Precision};
use rayon::prelude::*;
use serde::Serialize;
use std::time::Instant;

/// Schema tag of the committed benchmark file. The v5 format is a
/// two-tier document — `{ schema, tiers: { quick, full } }` — so the
/// CI smoke run and the paper-scale run ratchet against the same file
/// without clobbering each other's numbers. v6 extends the quick tier
/// to every provenance-instrumented kernel (lu, fft, spmv, stencil,
/// matvec join jacobi, gemm, cg) and adds the serial-vs-parallel
/// `tvd` stanza with its `tvd_ok` reproducibility gate. v7 adds the
/// lane-batched execution `batch` stanza (lanes, exp/s, speedup over
/// the scalar snapshot leg) with its `batch_ok` gate, and the blocked
/// LU snapshot leg. v8 makes the `bits` stanza dual-domain — the
/// affine (zonotope) pass drives the pruned campaign while the
/// interval pass rides along as the tightness baseline
/// (`interval_certified_measured` / `affine_certified_measured`, with
/// `bits_ok` requiring affine ≥ interval) — and adds the paper-scale
/// gemm and lu workloads with pinned batch-leg floors.
pub const BENCH_SCHEMA: &str = "ftb-bench/extraction-v8";

/// Merge one tier's report into the committed benchmark document,
/// preserving whatever the other tier last recorded. `prev` is the
/// parsed existing file, if any; documents with a different schema tag
/// are discarded rather than migrated.
pub fn merge_tier(prev: Option<serde_json::Value>, report: &PerfReport) -> serde_json::Value {
    use serde_json::Value;
    let mut doc = prev
        .filter(|v| v.get("schema").and_then(Value::as_str) == Some(BENCH_SCHEMA))
        .unwrap_or_else(|| {
            Value::Object(vec![
                ("schema".into(), Value::String(BENCH_SCHEMA.into())),
                ("tiers".into(), Value::Object(Vec::new())),
            ])
        });
    let tier = if report.quick { "quick" } else { "full" };
    let rendered = serde_json::to_value(report).expect("report serialises");
    let obj = doc
        .as_object_mut()
        .expect("schema-tagged document is an object");
    if !obj.iter().any(|(k, _)| k == "tiers") {
        obj.push(("tiers".into(), Value::Object(Vec::new())));
    }
    let tiers = obj
        .iter_mut()
        .find(|(k, _)| k == "tiers")
        .map(|(_, v)| v)
        .expect("just ensured");
    match tiers.as_object_mut() {
        Some(entries) => match entries.iter_mut().find(|(k, _)| k == tier) {
            Some(e) => e.1 = rendered,
            None => entries.push((tier.to_string(), rendered)),
        },
        None => *tiers = Value::Object(vec![(tier.to_string(), rendered)]),
    }
    doc
}

/// Zero-injection static-analysis numbers for one workload: wall time of
/// the two analysis stages plus agreement with injection ground truth
/// (the §3.6 metrics over an exhaustive campaign at the stanza's own
/// pinned config).
#[derive(Debug, Clone, Serialize)]
pub struct StaticBoundStats {
    /// Config the static stanza ran at. May be smaller than the perf
    /// config: validation needs exhaustive ground truth, which is
    /// infeasible at the paper-scale Jacobi size.
    pub config: KernelConfig,
    /// Classifier tolerance used for the bound and its validation.
    pub tolerance: f64,
    /// Fault sites at the stanza config.
    pub n_sites: usize,
    /// Recorded dependence edges.
    pub n_edges: usize,
    /// Sites with a finite analytical threshold.
    pub n_constrained: usize,
    /// Wall seconds for the golden run with DDG recording on.
    pub record_secs: f64,
    /// Wall seconds for the backward pass.
    pub backward_secs: f64,
    /// Precision of the static boundary against exhaustive truth.
    pub precision: f64,
    /// Recall of the static boundary against exhaustive truth.
    pub recall: f64,
    /// The §3.6 sampled self-verification.
    pub uncertainty: f64,
    /// Fraction of SDC-bearing sites bounded below their first SDC error.
    pub conservative_fraction: f64,
    /// Injections the bound itself consumed — zero, by construction.
    pub n_injections_static: u64,
}

/// Run the static analyzer at a pinned config and score it against an
/// exhaustive campaign. Returns `None` for kernels without provenance
/// instrumentation.
pub fn run_staticbound(config: &KernelConfig, tolerance: f64) -> Option<StaticBoundStats> {
    let kernel = config.build();
    let t0 = Instant::now();
    let (golden, ddg) = kernel.golden_with_ddg();
    let record_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let sb = static_bound(&ddg, &StaticBoundConfig::new(tolerance)).ok()?;
    let backward_secs = t1.elapsed().as_secs_f64();

    let injector = Injector::with_golden(kernel.as_ref(), golden, Classifier::new(tolerance));
    let truth = injector.exhaustive();
    let samples = SampleSet::sample_sites(&injector, (injector.n_sites() / 10).max(4), 41);
    let v = validate_static(
        &Predictor::new(injector.golden(), &sb.boundary()),
        &truth,
        &samples,
        injector.golden(),
        &sb.thresholds,
    );
    Some(StaticBoundStats {
        config: config.clone(),
        tolerance,
        n_sites: sb.n_sites(),
        n_edges: sb.n_edges,
        n_constrained: sb.n_constrained,
        record_secs,
        backward_secs,
        precision: v.eval.precision,
        recall: v.eval.recall,
        uncertainty: v.uncertainty,
        conservative_fraction: v.conservative_fraction,
        n_injections_static: v.n_injections_static,
    })
}

/// Pinned configuration for the compositional-analysis stanza: a fresh
/// sectioned campaign scored against exhaustive truth, optionally
/// followed by a localized code edit to demonstrate incremental
/// re-analysis (only the dirty section re-runs).
pub struct ComposeWorkload {
    /// Config the stanza runs at (validation needs exhaustive truth, so
    /// this may be smaller than the perf config).
    pub config: KernelConfig,
    /// Classifier tolerance.
    pub tolerance: f64,
    /// Per-section site sampling rate.
    pub rate: f64,
    /// Campaign seed.
    pub seed: u64,
    /// The edited variant of `config` for the incremental leg; `None`
    /// skips it.
    pub edit: Option<KernelConfig>,
}

/// Incremental-re-analysis numbers after a localized code edit.
#[derive(Debug, Clone, Serialize)]
pub struct ComposeIncrementalStats {
    /// Sections whose campaigns re-ran after the edit.
    pub dirty_sections: usize,
    /// Sections reused verbatim from the prior ledger.
    pub reused_sections: usize,
    /// Injections the re-analysis spent (reused sections cost zero).
    pub n_injections: u64,
    /// Wall seconds for the incremental re-analysis.
    pub reanalyze_secs: f64,
    /// Precision of the post-edit composed boundary vs fresh truth.
    pub precision_after_edit: f64,
    /// Recall of the post-edit composed boundary vs fresh truth.
    pub recall_after_edit: f64,
}

/// Compositional-analysis numbers for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct ComposeStats {
    /// Config the stanza ran at.
    pub config: KernelConfig,
    /// Classifier tolerance.
    pub tolerance: f64,
    /// Per-section sampling rate.
    pub rate: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Fault sites at the stanza config.
    pub n_sites: usize,
    /// Sections the golden run segmented into.
    pub n_sections: usize,
    /// Injections the fresh analysis spent.
    pub n_injections: u64,
    /// Wall seconds for the fresh sectioned analysis.
    pub analyze_secs: f64,
    /// Precision of the composed boundary against exhaustive truth.
    pub precision: f64,
    /// Recall of the composed boundary against exhaustive truth.
    pub recall: f64,
    /// Fraction of sites whose composed threshold sits strictly below
    /// their smallest SDC-causing error (sites with no SDC count as
    /// conservative).
    pub conservative_fraction: f64,
    /// The incremental leg, when the workload pins an edit.
    pub incremental: Option<ComposeIncrementalStats>,
}

/// Run the compositional stanza: fresh sectioned analysis scored
/// against exhaustive truth, then (if pinned) the incremental leg after
/// the code edit, reusing the same section ledger.
pub fn run_compose(cw: &ComposeWorkload) -> Option<ComposeStats> {
    let ledger =
        std::env::temp_dir().join(format!("ftb-bench-compose-{}.ftbl", std::process::id()));
    let _ = std::fs::remove_file(&ledger);

    let cfg = ComposeConfig {
        rate: cw.rate,
        seed: cw.seed,
        ..ComposeConfig::new(cw.tolerance)
    };
    let kernel = cw.config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(cw.tolerance));
    let t0 = Instant::now();
    let r = compose_analysis(kernel.as_ref(), &cw.config, &inj, &cfg, Some(&ledger)).ok()?;
    let analyze_secs = t0.elapsed().as_secs_f64();

    let truth = inj.exhaustive();
    let golden = inj.golden();
    let eval = BoundaryEval::against_exhaustive(&Predictor::new(golden, &r.boundary), &truth);
    let conservative_fraction =
        conservative_fraction(&r.boundary, &min_sdc_per_site(golden, &truth));

    let incremental = cw.edit.as_ref().and_then(|edited| {
        let kernel2 = edited.build();
        let inj2 = Injector::new(kernel2.as_ref(), Classifier::new(cw.tolerance));
        let t1 = Instant::now();
        let r2 = compose_analysis(kernel2.as_ref(), edited, &inj2, &cfg, Some(&ledger)).ok()?;
        let reanalyze_secs = t1.elapsed().as_secs_f64();
        let truth2 = inj2.exhaustive();
        let eval2 =
            BoundaryEval::against_exhaustive(&Predictor::new(inj2.golden(), &r2.boundary), &truth2);
        Some(ComposeIncrementalStats {
            dirty_sections: r2.reran.len(),
            reused_sections: r2.reused.len(),
            n_injections: r2.n_experiments,
            reanalyze_secs,
            precision_after_edit: eval2.precision,
            recall_after_edit: eval2.recall,
        })
    });
    let _ = std::fs::remove_file(&ledger);

    Some(ComposeStats {
        config: cw.config.clone(),
        tolerance: cw.tolerance,
        rate: cw.rate,
        seed: cw.seed,
        n_sites: inj.n_sites(),
        n_sections: r.map.n_sections(),
        n_injections: r.n_experiments,
        analyze_secs,
        precision: eval.precision,
        recall: eval.recall,
        conservative_fraction,
        incremental,
    })
}

/// Pinned configuration for the bit-level vulnerability-map stanza:
/// forward interval analysis certifies masked bits, then a pruned and an
/// unpruned exhaustive campaign run over the same (possibly strided)
/// site set to measure the work saving and check cell-for-cell agreement.
pub struct BitsWorkload {
    /// Config the stanza runs at. The paper-scale tier reuses the perf
    /// config with a site stride; validation-sized tiers run the full
    /// site set.
    pub config: KernelConfig,
    /// Classifier tolerance (also the static bound's error budget).
    pub tolerance: f64,
    /// Relative input widening for the forward pass.
    pub widen: f64,
    /// Site stride of the measured campaigns (1 = every site).
    pub site_stride: usize,
    /// CI floor on the certified-bit campaign reduction factor.
    pub min_reduction: f64,
}

/// Bit-level vulnerability-map numbers for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct BitsStats {
    /// Config the stanza ran at.
    pub config: KernelConfig,
    /// Classifier tolerance.
    pub tolerance: f64,
    /// Forward-pass input widening.
    pub widen: f64,
    /// Site stride of the measured campaigns.
    pub site_stride: usize,
    /// CI floor on `reduction_factor` (from the pinned workload).
    pub min_reduction: f64,
    /// Sites in the golden run (before striding).
    pub n_sites: usize,
    /// Bits per site.
    pub bits: u8,
    /// Wall seconds for DDG + static bound + forward pass + masks.
    pub analysis_secs: f64,
    /// Wall seconds for the affine tightening on top (influence slice,
    /// affine threshold sweep, and affine masks over the measured sites).
    pub affine_analysis_secs: f64,
    /// Certified-masked bits over the measured sites under the domain
    /// that drives the pruned campaign (affine).
    pub certified_measured: u64,
    /// Certified-masked bits over the measured sites under the
    /// interval baseline (PR 5's domain).
    pub interval_certified_measured: u64,
    /// Certified-masked bits over the measured sites under the affine
    /// domain — the `bits_ok` gate requires this to be at least the
    /// interval count.
    pub affine_certified_measured: u64,
    /// Sites whose influence cone is empty (certified outright by the
    /// slice; counted over the whole run).
    pub n_dead_sites: usize,
    /// Measured sites whose affine threshold strictly beats the
    /// backward pass's.
    pub n_tightened_sites: usize,
    /// All bits over the measured sites.
    pub total_measured: u64,
    /// `total / (total - certified)` over the measured sites — the
    /// campaign work factor `--bit-prune` saves.
    pub reduction_factor: f64,
    /// Experiments and wall time of the unpruned campaign.
    pub unpruned_experiments: u64,
    /// Unpruned campaign wall seconds.
    pub unpruned_secs: f64,
    /// Unpruned experiments per second.
    pub unpruned_eps: f64,
    /// Experiments and wall time of the pruned campaign.
    pub pruned_experiments: u64,
    /// Pruned campaign wall seconds.
    pub pruned_secs: f64,
    /// Pruned experiments per second.
    pub pruned_eps: f64,
    /// Certified bits whose measured outcome is not masked — soundness
    /// demands zero.
    pub violations: u64,
    /// Whether pruned and unpruned campaigns agree on every measured
    /// non-certified `(site, bit)` cell.
    pub agree_non_certified: bool,
}

/// Run the bit-level stanza. Returns `None` for kernels without
/// provenance instrumentation.
///
/// Both static domains run: the interval pass (PR 5) is the tightness
/// baseline, the affine pass (influence slice + zonotope sweep,
/// targeted at the measured site list so paper-scale cost stays
/// bounded) produces the masks that drive the pruned campaign.
pub fn run_bits(bw: &BitsWorkload) -> Option<BitsStats> {
    let kernel = bw.config.build();
    let t0 = Instant::now();
    let (golden, ddg) = kernel.golden_with_ddg();
    let sites: Vec<usize> = (0..golden.n_sites()).step_by(bw.site_stride).collect();
    let certify = |domain| {
        let cfg = CertifyConfig {
            tolerance: bw.tolerance,
            safety: 1.0,
            widen: bw.widen,
            domain,
            targets: Some(&sites),
        };
        certify_bits(&golden, &ddg, &cfg).ok()
    };
    let interval_masks = certify(Domain::Interval)?.masks;
    let analysis_secs = t0.elapsed().as_secs_f64();

    let t0a = Instant::now();
    let affine = certify(Domain::Affine {
        budget: AffineConfig::default().budget,
    })?;
    let masks = affine.masks;
    let affine_analysis_secs = t0a.elapsed().as_secs_f64();

    let injector = Injector::with_golden(kernel.as_ref(), golden, Classifier::new(bw.tolerance));
    let bits = injector.bits();
    let certified = |m: &BitMasks, f: &ftb_trace::FaultSpec| {
        m.class(f.site, f.bit) == BitClass::CertifiedMasked
    };
    let unpruned_plan = strided_plan(&injector, bw.site_stride);
    let pruned_plan: Vec<_> = unpruned_plan
        .iter()
        .filter(|f| !certified(&masks, f))
        .copied()
        .collect();

    let t1 = Instant::now();
    let unpruned = injector.run_many(&unpruned_plan);
    let unpruned_secs = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let pruned = injector.run_many(&pruned_plan);
    let pruned_secs = t2.elapsed().as_secs_f64();

    let truth: std::collections::HashMap<(usize, u8), u8> = unpruned
        .iter()
        .map(|e| (e.key(), e.outcome.code()))
        .collect();
    let violations =
        BitsScorecard::score(&masks, unpruned.iter().map(|e| (e.site, e.bit, e.outcome)))
            .violations;
    let agree_non_certified = pruned
        .iter()
        .all(|e| truth.get(&e.key()) == Some(&e.outcome.code()));

    let measured = |m: &BitMasks| unpruned_plan.iter().filter(|f| certified(m, f)).count() as u64;
    let certified_measured = measured(&masks);
    let interval_certified_measured = measured(&interval_masks);
    let total_measured = unpruned_plan.len() as u64;
    Some(BitsStats {
        config: bw.config.clone(),
        tolerance: bw.tolerance,
        widen: bw.widen,
        site_stride: bw.site_stride,
        min_reduction: bw.min_reduction,
        n_sites: injector.n_sites(),
        bits,
        analysis_secs,
        affine_analysis_secs,
        certified_measured,
        interval_certified_measured,
        affine_certified_measured: certified_measured,
        n_dead_sites: affine.n_dead,
        n_tightened_sites: affine.n_tightened,
        total_measured,
        reduction_factor: if certified_measured == total_measured {
            f64::INFINITY
        } else {
            total_measured as f64 / (total_measured - certified_measured) as f64
        },
        unpruned_experiments: unpruned_plan.len() as u64,
        unpruned_secs,
        unpruned_eps: unpruned_plan.len() as f64 / unpruned_secs.max(1e-9),
        pruned_experiments: pruned_plan.len() as u64,
        pruned_secs,
        pruned_eps: pruned_plan.len() as f64 / pruned_secs.max(1e-9),
        violations,
        agree_non_certified,
    })
}

/// Serial-vs-parallel outcome-distribution stanza for one workload: the
/// exhaustive campaign re-run under each pinned rayon pool size and the
/// per-site outcome histograms compared with the total-variation
/// distance (see `ftb_inject::characterize`). Campaign outcomes are a
/// pure function of the fault, so reproducibility demands exactly zero
/// distance — any nonzero TVD is a scheduling-dependence bug.
#[derive(Debug, Clone, Serialize)]
pub struct TvdStats {
    /// Pool sizes exercised.
    pub thread_counts: Vec<usize>,
    /// Fault sites per campaign.
    pub n_sites: usize,
    /// Experiments per campaign.
    pub n_experiments: u64,
    /// Largest per-site total-variation distance across all pool pairs.
    pub max_tvd: f64,
    /// Mean of the per-pair mean distances.
    pub mean_tvd: f64,
    /// Sites with any distribution difference, summed over pairs.
    pub diverging_sites: usize,
    /// The CI-gated reproducibility bit: every pairwise distance zero.
    pub deterministic: bool,
}

/// Run the TVD stanza: characterize the workload's exhaustive outcome
/// distributions across the pinned pool sizes.
pub fn run_tvd(config: &KernelConfig, tolerance: f64, thread_counts: &[usize]) -> TvdStats {
    let kernel = config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(tolerance));
    let r = ftb_inject::characterize(&inj, thread_counts);
    TvdStats {
        thread_counts: r.thread_counts.clone(),
        n_sites: r.n_sites,
        n_experiments: r.n_experiments,
        max_tvd: r.pairs.iter().map(|p| p.max_tvd).fold(0.0, f64::max),
        mean_tvd: r.pairs.iter().map(|p| p.mean_tvd).sum::<f64>() / r.pairs.len().max(1) as f64,
        diverging_sites: r.pairs.iter().map(|p| p.diverging_sites).sum(),
        deterministic: r.deterministic,
    }
}

/// One pinned workload of the performance suite.
pub struct PerfWorkload {
    /// Display name ("jacobi", "gemm", "cg").
    pub name: &'static str,
    /// Pinned kernel configuration (size and seed fixed per tier).
    pub config: KernelConfig,
    /// Output tolerance for the classifier.
    pub tolerance: f64,
    /// Site stride of the exhaustive campaign, applied to every path
    /// (1 = full table; paper-scale workloads subsample).
    pub site_stride: usize,
    /// Pinned adaptive-campaign configuration (seed and round budget
    /// fixed per tier; paper-scale workloads bound the round count so
    /// the adaptive leg stays a fixed, small number of experiments).
    pub adaptive: AdaptiveConfig,
    /// Pinned `(config, tolerance)` for the zero-injection static-bound
    /// stanza; `None` skips it. Kept separate from the perf config
    /// because validation runs an exhaustive campaign.
    pub staticbound: Option<(KernelConfig, f64)>,
    /// Pinned compositional-analysis stanza; `None` skips it. Like the
    /// static stanza, it runs at a validation-sized config.
    pub compose: Option<ComposeWorkload>,
    /// Pinned bit-level vulnerability-map stanza; `None` skips it.
    pub bits: Option<BitsWorkload>,
    /// Pool sizes for the serial-vs-parallel TVD stanza; `None` skips
    /// it. Characterization runs a full exhaustive campaign per pool
    /// size, so only validation-sized tiers pin this (the paper-scale
    /// tier subsamples even a single exhaustive table).
    pub tvd_threads: Option<Vec<usize>>,
    /// CI floor on the snapshot leg's throughput over the plain streamed
    /// path (0.0 disables the floor; the `identical` check always
    /// applies). Only the paper-scale Jacobi pins a real floor — at
    /// cache-resident sizes the snapshot store's capture overhead can
    /// swamp the prefix it skips.
    pub snapshot_min_speedup: f64,
    /// CI floor on the snapshot leg's absolute experiments/second
    /// (0.0 disables). The paper-scale Jacobi pins 33.0 — ≥10× the
    /// 3.33 eps the pre-snapshot streamed campaign recorded — so the
    /// headline speedup is gated against the fixed historical baseline
    /// even as the fresh streamed denominator itself gets faster.
    pub snapshot_min_eps: f64,
    /// CI floor on `speedup_streamed_vs_buffered` (0.0 disables).
    pub min_streamed_speedup: f64,
    /// Lane width for the batched-execution leg (0 or 1 skips the leg;
    /// the leg also skips kernels that are not batch-capable).
    pub batch_lanes: usize,
    /// CI floor on the batched leg's throughput over the scalar
    /// snapshot leg on the same plan (0.0 disables the floor; the
    /// `identical` check always applies).
    pub batch_min_speedup: f64,
    /// CI floor on the batched leg's absolute experiments/second
    /// (0.0 disables). The paper-scale Jacobi pins 120.0 — ≥3× the
    /// 39.97 eps the scalar snapshot campaign recorded — anchoring the
    /// headline batching speedup to the fixed historical baseline.
    pub batch_min_eps: f64,
    /// How many times to run each *ratcheted* timed leg (the exhaustive
    /// campaigns), keeping the best wall time. The quick tier uses 3:
    /// its sub-second measurements on shared CI runners swing well past
    /// the ratchet's tolerance band run-to-run, and best-of-N removes
    /// the downward (contention) noise while the machine's actual speed
    /// bounds the upside. The full tier uses 1 — paper-scale legs run
    /// long enough to be stable and are too expensive to repeat.
    pub timing_repeats: usize,
}

/// The pinned jacobi compose stanza shared by both tiers: a
/// validation-sized solve, with the weighted-Jacobi sweep-5 edit as the
/// incremental leg.
fn jacobi_compose_stanza() -> ComposeWorkload {
    let base = JacobiConfig {
        grid: 4,
        sweeps: 10,
        ..JacobiConfig::small()
    };
    ComposeWorkload {
        config: KernelConfig::Jacobi(base.clone()),
        tolerance: 1e-4,
        rate: 0.5,
        seed: 41,
        edit: Some(KernelConfig::Jacobi(JacobiConfig {
            tweak: Some(SweepTweak {
                sweep: 5,
                omega: 0.5,
            }),
            ..base
        })),
    }
}

/// The validation-sized stanza every quick-tier workload starts from: a
/// config small enough to run the full site set on every path, plus
/// static-bound and bit-prune stanzas at the same pinned config and a
/// 1-vs-8-thread TVD stanza.
fn quick_stanza(name: &'static str, config: KernelConfig, tolerance: f64) -> PerfWorkload {
    PerfWorkload {
        name,
        snapshot_min_speedup: 0.0,
        snapshot_min_eps: 0.0,
        min_streamed_speedup: 0.0,
        batch_lanes: 8,
        batch_min_speedup: 0.0,
        batch_min_eps: 0.0,
        timing_repeats: 3,
        config: config.clone(),
        tolerance,
        site_stride: 1,
        adaptive: AdaptiveConfig {
            seed: 7,
            ..AdaptiveConfig::default()
        },
        staticbound: Some((config.clone(), tolerance)),
        compose: None,
        bits: Some(BitsWorkload {
            config,
            tolerance,
            widen: 0.0,
            site_stride: 1,
            min_reduction: 1.0,
        }),
        tvd_threads: Some(vec![1, 8]),
    }
}

/// CG at `grid`, matrix-free, F32 — the quick and full tiers' CG pin.
fn cg_config(grid: usize, max_iters: usize) -> KernelConfig {
    KernelConfig::Cg(CgConfig {
        grid,
        rtol: 1e-4,
        max_iters,
        precision: Precision::F32,
        seed: 42,
        storage: CgStorage::MatrixFree,
    })
}

/// The pinned workloads. `quick` selects the tiny CI-smoke tier; the
/// full tier is what the committed `BENCH_ppopp21.json` reports.
pub fn perf_suite(quick: bool) -> Vec<PerfWorkload> {
    if quick {
        // jacobi, gemm and cg time five repeats instead of three
        let repeat5 = |w: PerfWorkload| PerfWorkload {
            timing_repeats: 5,
            ..w
        };
        let mut jacobi = quick_stanza(
            "jacobi",
            KernelConfig::Jacobi(JacobiConfig {
                grid: 4,
                sweeps: 10,
                precision: Precision::F64,
                seed: 42,
                fine_grained: true,
                residual_every: 1,
                tweak: None,
            }),
            1e-6,
        );
        jacobi.compose = Some(jacobi_compose_stanza());
        if let Some(bits) = &mut jacobi.bits {
            bits.min_reduction = 2.0;
        }
        vec![
            // jacobi's 1-vs-8-thread per-site TVD delta is the committed
            // serial-vs-parallel baseline, expected exactly zero
            repeat5(jacobi),
            repeat5(quick_stanza(
                "gemm",
                KernelConfig::Gemm(GemmConfig {
                    n: 5,
                    precision: Precision::F64,
                    seed: 42,
                }),
                1e-6,
            )),
            repeat5(quick_stanza("cg", cg_config(4, 50), 1e-1)),
            quick_stanza(
                "lu",
                KernelConfig::Lu(LuConfig {
                    n: 8,
                    block: 4,
                    ..LuConfig::small()
                }),
                3e-5,
            ),
            quick_stanza(
                "fft",
                KernelConfig::Fft(FftConfig {
                    n1: 4,
                    n2: 4,
                    ..FftConfig::small()
                }),
                1.0,
            ),
            quick_stanza(
                "stencil",
                KernelConfig::Stencil(StencilConfig {
                    grid: 6,
                    sweeps: 3,
                    ..StencilConfig::small()
                }),
                1e-6,
            ),
            quick_stanza(
                "matvec",
                KernelConfig::Matvec(MatvecConfig {
                    n: 6,
                    ..MatvecConfig::small()
                }),
                1e-6,
            ),
            quick_stanza(
                "spmv",
                KernelConfig::Spmv(SpmvConfig {
                    grid: 5,
                    ..SpmvConfig::small()
                }),
                1e-6,
            ),
        ]
    } else {
        let paper_jacobi = KernelConfig::Jacobi(JacobiConfig {
            grid: 128,
            sweeps: 600,
            precision: Precision::F32,
            seed: 42,
            fine_grained: false,
            residual_every: 8,
            tweak: None,
        });
        let paper_gemm = KernelConfig::Gemm(GemmConfig {
            n: 192,
            precision: Precision::F64,
            seed: 42,
        });
        let paper_lu = KernelConfig::Lu(LuConfig {
            n: 256,
            block: 32,
            precision: Precision::F64,
            seed: 42,
        });
        vec![
            // The headline workload: ~9.9M dynamic instructions per
            // execution, the paper's scale. The buffered extractor's
            // per-experiment working set (~300 MB) is past the cache
            // cliff while the shared compact F32 golden (~50 MB) is not;
            // this is where the streamed path's ≥1.5× shows up.
            PerfWorkload {
                name: "jacobi",
                snapshot_min_speedup: 5.0,
                snapshot_min_eps: 33.0,
                min_streamed_speedup: 1.0,
                // 16 monomorphised lanes is the measured sweet spot on
                // the reference box (~125 eps vs ~113 at 8, ~120 at 32);
                // the eps floor is the issue's ≥3× over the committed
                // 39.97 eps scalar snapshot leg, the speedup floor sits
                // under the observed 1.8–2.2× because the scalar leg
                // itself drifts ±8% run to run
                batch_lanes: 16,
                batch_min_speedup: 1.5,
                batch_min_eps: 120.0,
                timing_repeats: 1,
                config: paper_jacobi.clone(),
                tolerance: 1e-3,
                // 17 sites × 32 bits = 544 experiments per path
                site_stride: 614_000,
                // bound the adaptive leg to a handful of ~30-experiment
                // rounds — a 0.1% round of a 9.9M-site table would be
                // ~10k experiments, hours at ~150 ms each
                adaptive: AdaptiveConfig {
                    seed: 7,
                    round_fraction: 3e-6,
                    min_round_size: 32,
                    min_rounds: 2,
                    dry_rounds: 1,
                    max_rounds: 3,
                    ..AdaptiveConfig::default()
                },
                // validation needs exhaustive truth, so the static
                // stanza pins a mid-size Jacobi instead of the 9.9M-site
                // perf config (the DDG+backward wall times stay honest:
                // both stages are linear in sites and edges)
                staticbound: Some((
                    KernelConfig::Jacobi(JacobiConfig {
                        grid: 8,
                        sweeps: 30,
                        precision: Precision::F64,
                        seed: 42,
                        fine_grained: false,
                        residual_every: 1,
                        tweak: None,
                    }),
                    1e-4,
                )),
                compose: Some(jacobi_compose_stanza()),
                // The acceptance stanza: paper-scale Jacobi, strided so
                // the pruned-vs-unpruned comparison finishes in minutes.
                // Affine certification on an F32 run at 1e-3 clears the
                // low mantissa bits at every surviving site (per-sink
                // thresholds + cancellation beat the summed backward
                // pass); the floor asserts the ≥2.5× campaign-work
                // reduction the affine domain lifted the interval
                // pass's 2.09× to.
                bits: Some(BitsWorkload {
                    config: paper_jacobi,
                    tolerance: 1e-3,
                    widen: 0.0,
                    site_stride: 614_000,
                    min_reduction: 2.5,
                }),
                // characterization needs a full exhaustive table per pool
                // size — infeasible at paper scale; the quick tier owns
                // the TVD baseline
                tvd_threads: None,
            },
            // Paper-scale GEMM: 192×192 matrices, ~110k traced cells
            // over ~14M MAC edges. The batch leg is the point — gemm is
            // one of the three batch-capable kernels, and the full tier
            // pins real floors on its lane-batched throughput.
            PerfWorkload {
                name: "gemm",
                snapshot_min_speedup: 0.0,
                snapshot_min_eps: 0.0,
                min_streamed_speedup: 0.0,
                // measured 2.56x over the scalar snapshot leg at 16
                // lanes (174 vs 68 eps; 2.28x at 8 lanes); floors sit
                // under the observed numbers because the scalar leg
                // drifts run to run
                batch_lanes: 16,
                batch_min_speedup: 1.8,
                batch_min_eps: 130.0,
                timing_repeats: 1,
                config: paper_gemm.clone(),
                tolerance: 1e-6,
                // 18 sites × 64 bits = 1152 experiments per path
                site_stride: 6_144,
                adaptive: AdaptiveConfig {
                    seed: 7,
                    round_fraction: 3e-4,
                    min_round_size: 32,
                    min_rounds: 2,
                    dry_rounds: 1,
                    max_rounds: 3,
                    ..AdaptiveConfig::default()
                },
                // validation needs exhaustive truth, so the static
                // stanza keeps the historical n=10 pin
                staticbound: Some((
                    KernelConfig::Gemm(GemmConfig {
                        n: 10,
                        precision: Precision::F64,
                        seed: 42,
                    }),
                    1e-6,
                )),
                compose: None,
                bits: Some(BitsWorkload {
                    config: paper_gemm,
                    tolerance: 1e-6,
                    widen: 0.0,
                    site_stride: 6_144,
                    // measured 2.13x (affine 611 / interval 527 of
                    // 1152 bits); floor leaves drift headroom
                    min_reduction: 1.5,
                }),
                tvd_threads: None,
            },
            // Paper-scale blocked LU: 256×256 in 32×32 blocks, ~1.2M
            // dynamic sites — the third batch-capable kernel joins the
            // full tier so `batch_ok` covers jacobi, gemm and lu.
            PerfWorkload {
                name: "lu",
                snapshot_min_speedup: 0.0,
                snapshot_min_eps: 0.0,
                min_streamed_speedup: 0.0,
                // measured 1.33x over the scalar snapshot leg at 16
                // lanes (202 vs 152 eps; batching plateaus ~1.34x at 32
                // because LU's triangular updates leave short resumable
                // tails); floors leave room for scalar-leg drift
                batch_lanes: 16,
                batch_min_speedup: 1.1,
                batch_min_eps: 150.0,
                timing_repeats: 1,
                config: paper_lu.clone(),
                tolerance: 3e-5,
                // 19 sites × 64 bits = 1216 experiments per path
                site_stride: 67_000,
                // bound the adaptive leg the same way jacobi's is: a
                // few ~40-experiment rounds instead of 0.1% of 1.2M
                adaptive: AdaptiveConfig {
                    seed: 7,
                    round_fraction: 3e-5,
                    min_round_size: 32,
                    min_rounds: 2,
                    dry_rounds: 1,
                    max_rounds: 3,
                    ..AdaptiveConfig::default()
                },
                // validation-sized static stanza (the quick tier's pin)
                staticbound: Some((
                    KernelConfig::Lu(LuConfig {
                        n: 8,
                        block: 4,
                        precision: Precision::F64,
                        seed: 42,
                    }),
                    3e-5,
                )),
                compose: None,
                bits: Some(BitsWorkload {
                    config: paper_lu,
                    tolerance: 3e-5,
                    widen: 0.0,
                    site_stride: 67_000,
                    // measured 2.81x (affine 784 / interval 736 of
                    // 1216 bits); floor leaves drift headroom
                    min_reduction: 2.0,
                }),
                tvd_threads: None,
            },
            PerfWorkload {
                timing_repeats: 1,
                tvd_threads: None,
                ..quick_stanza("cg", cg_config(6, 100), 1e-1)
            },
        ]
    }
}

/// Peak resident set size of this process in KiB (`VmHWM`), the
/// standard Linux high-water-mark proxy; `None` off Linux.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Outcome histogram of an exhaustive table (masked, sdc, crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OutcomeCounts {
    /// Faults absorbed within tolerance.
    pub masked: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Abnormal terminations (non-finite or hang).
    pub crash: u64,
}

impl OutcomeCounts {
    /// Histogram over every `(site, bit)` cell, optionally site-strided.
    pub fn of(table: &ExhaustiveResult, stride: usize) -> Self {
        let mut c = OutcomeCounts {
            masked: 0,
            sdc: 0,
            crash: 0,
        };
        for site in (0..table.n_sites).step_by(stride) {
            for bit in 0..table.bits {
                let o = table.outcome(site, bit);
                if o.is_masked() {
                    c.masked += 1;
                } else if o.is_sdc() {
                    c.sdc += 1;
                } else {
                    c.crash += 1;
                }
            }
        }
        c
    }
}

/// Measured numbers for the snapshot-resume leg on one workload: the
/// same strided exhaustive plan as the streamed path, outcome-only, with
/// every experiment starting from the boundary snapshot preceding its fault
/// site instead of from t=0 (and early-exits on bitwise reconvergence
/// with the captured golden state).
#[derive(Debug, Clone, Serialize)]
pub struct SnapshotStats {
    /// CI floor on `speedup_vs_streamed` (from the pinned workload;
    /// 0.0 disables the floor).
    pub min_speedup: f64,
    /// CI floor on `experiments_per_sec` (from the pinned workload;
    /// 0.0 disables the floor). Anchors the paper-scale leg to the
    /// fixed pre-snapshot baseline (3.33 eps → 33.0 floor = ≥10×)
    /// independently of how fast the fresh streamed denominator is.
    pub min_eps: f64,
    /// Boundary snapshots captured (after thinning).
    pub snapshots: usize,
    /// Wall seconds for the capture pass over the golden run.
    pub capture_secs: f64,
    /// Bytes held by the content-addressed array pool, in MiB.
    pub store_mb: f64,
    /// Experiments executed by the snapshot-resumed campaign.
    pub exhaustive_experiments: u64,
    /// Snapshot-resumed campaign wall seconds.
    pub exhaustive_secs: f64,
    /// Snapshot-resumed experiments per second.
    pub experiments_per_sec: f64,
    /// Throughput over the plain streamed path on the same plan.
    pub speedup_vs_streamed: f64,
    /// Whether the snapshot-resumed outcome table is identical to the
    /// from-t=0 streamed table — resume must be bit-exact, so any
    /// divergence is a correctness bug, not noise.
    pub identical: bool,
}

/// Run the snapshot-resume leg: capture boundary snapshots, build the
/// strided outcome table with every experiment resumed from its
/// preceding snapshot (outcome-only classification with bitwise and
/// contraction-certificate early exits — the table campaign's product
/// is outcome codes, so no propagation extraction is paid), and check
/// the table cell-for-cell against the from-t=0 streamed reference.
/// `None` for kernels that are not snapshot-capable.
fn run_snapshot_leg(
    kernel: &dyn Kernel,
    w: &PerfWorkload,
    streamed: &PathStats,
    streamed_table: &ExhaustiveResult,
) -> Option<SnapshotStats> {
    if !kernel.snapshot_capable() {
        return None;
    }
    // certified exits are sound here: the leg compares outcome *tables*
    // (codes only), which certificate exits keep identical to
    // from-scratch execution
    let injector = Injector::new(kernel, Classifier::new(w.tolerance)).with_certified_exits();
    let t0 = Instant::now();
    let injector = injector.with_snapshots(DEFAULT_MAX_SNAPSHOTS);
    let capture_secs = t0.elapsed().as_secs_f64();
    let store_len = injector.snapshot_store()?.len();
    let store_mb = injector.snapshot_store()?.store_bytes() as f64 / (1024.0 * 1024.0);

    let (table, experiments, exhaustive_secs) = timed_outcome_table(&injector, w);
    let eps = experiments as f64 / exhaustive_secs.max(1e-9);
    Some(SnapshotStats {
        min_speedup: w.snapshot_min_speedup,
        min_eps: w.snapshot_min_eps,
        snapshots: store_len,
        capture_secs,
        store_mb,
        exhaustive_experiments: experiments,
        exhaustive_secs,
        experiments_per_sec: eps,
        speedup_vs_streamed: eps / streamed.experiments_per_sec.max(1e-9),
        identical: table == *streamed_table,
    })
}

/// Measured numbers for the lane-batched execution leg on one
/// workload: the snapshot leg's plan re-run as structure-of-arrays
/// sweeps of `lanes` perturbed states per shared section snapshot,
/// with per-lane early retirement (trap, bitwise reconvergence,
/// contraction certificate).
#[derive(Debug, Clone, Serialize)]
pub struct BatchStats {
    /// CI floor on `speedup_vs_snapshot` (from the pinned workload;
    /// 0.0 disables the floor).
    pub min_speedup: f64,
    /// CI floor on `experiments_per_sec` (from the pinned workload;
    /// 0.0 disables). Anchors the paper-scale leg to the fixed scalar
    /// snapshot baseline (39.97 eps → 120.0 floor = ≥3×).
    pub min_eps: f64,
    /// Lane width of the batched sweeps.
    pub lanes: usize,
    /// Experiments executed by the batched campaign.
    pub exhaustive_experiments: u64,
    /// Batched campaign wall seconds.
    pub exhaustive_secs: f64,
    /// Batched experiments per second.
    pub experiments_per_sec: f64,
    /// Throughput over the scalar snapshot leg on the same plan.
    pub speedup_vs_snapshot: f64,
    /// Throughput over the plain streamed path on the same plan.
    pub speedup_vs_streamed: f64,
    /// Whether the batched outcome table is identical to the from-t=0
    /// streamed table — batching must be bit-exact, so any divergence
    /// is a correctness bug, not noise.
    pub identical: bool,
}

/// Run the batched-execution leg: the snapshot leg's campaign again,
/// but with `w.batch_lanes` experiments sharing each section snapshot
/// as one SoA sweep. `None` for kernels that are not batch-capable (or
/// not snapshot-capable — batching only applies to snapshot-resumed
/// plans) and for workloads that pin no lane width.
fn run_batch_leg(
    kernel: &dyn Kernel,
    w: &PerfWorkload,
    streamed: &PathStats,
    streamed_table: &ExhaustiveResult,
    snapshot: Option<&SnapshotStats>,
) -> Option<BatchStats> {
    let snapshot = snapshot?;
    if w.batch_lanes < 2 || !kernel.batch_capable() {
        return None;
    }
    let injector = Injector::new(kernel, Classifier::new(w.tolerance))
        .with_certified_exits()
        .with_snapshots(DEFAULT_MAX_SNAPSHOTS)
        .with_batch_lanes(w.batch_lanes);
    assert!(
        injector.batch_binding().is_some(),
        "batch leg configured but batching did not engage"
    );

    let (table, experiments, exhaustive_secs) = timed_outcome_table(&injector, w);
    let eps = experiments as f64 / exhaustive_secs.max(1e-9);
    Some(BatchStats {
        min_speedup: w.batch_min_speedup,
        min_eps: w.batch_min_eps,
        lanes: w.batch_lanes,
        exhaustive_experiments: experiments,
        exhaustive_secs,
        experiments_per_sec: eps,
        speedup_vs_snapshot: eps / snapshot.experiments_per_sec.max(1e-9),
        speedup_vs_streamed: eps / streamed.experiments_per_sec.max(1e-9),
        identical: table == *streamed_table,
    })
}

/// Measured numbers for one extraction path on one workload.
#[derive(Debug, Clone, Serialize)]
pub struct PathStats {
    /// Extraction path name.
    pub path: String,
    /// Site stride used.
    pub site_stride: usize,
    /// Experiments executed by the exhaustive campaign.
    pub exhaustive_experiments: u64,
    /// Exhaustive campaign wall time in seconds.
    pub exhaustive_secs: f64,
    /// Headline throughput: exhaustive experiments per second.
    pub experiments_per_sec: f64,
    /// Experiments executed by the adaptive campaign (`None` on the
    /// buffered reference leg: adaptive inference always runs streamed).
    pub adaptive_experiments: Option<u64>,
    /// Adaptive campaign wall time in seconds (`None` on the buffered
    /// reference leg).
    pub adaptive_secs: Option<f64>,
    /// Outcome histogram of the (possibly strided) exhaustive table.
    pub outcomes: OutcomeCounts,
    /// Process peak RSS (KiB) after this path ran, if available.
    pub peak_rss_kb_after: Option<u64>,
}

/// Report for one workload: streamed against the buffered reference,
/// plus the snapshot and batched legs.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Pinned kernel configuration.
    pub config: KernelConfig,
    /// Classifier tolerance.
    pub tolerance: f64,
    /// Fault sites in the golden run.
    pub n_sites: usize,
    /// Bits per site.
    pub bits: u8,
    /// Bytes held by the full golden trace (the paper's §5
    /// `8 bytes × dynamic instructions` figure, plus branch/static-id
    /// streams).
    pub golden_bytes_full: usize,
    /// Bytes held by the shared compact golden the streamed path reads.
    pub golden_bytes_compact: usize,
    /// Per-path measurements (buffered reference, streamed).
    pub paths: Vec<PathStats>,
    /// Streamed over buffered exhaustive throughput.
    pub speedup_streamed_vs_buffered: f64,
    /// CI floor on `speedup_streamed_vs_buffered` (from the pinned
    /// workload; 0.0 disables).
    pub min_streamed_speedup: f64,
    /// Snapshot-resume leg (`None` for non-snapshot-capable kernels).
    pub snapshot: Option<SnapshotStats>,
    /// Lane-batched execution leg (`None` for non-batch-capable
    /// kernels or when the workload pins no lane width).
    pub batch: Option<BatchStats>,
    /// Whether the streamed outcome table equals the buffered
    /// reference's.
    pub paths_agree: bool,
    /// Zero-injection static-bound stanza (`None` when the workload
    /// disables it or the kernel is not provenance-instrumented).
    pub staticbound: Option<StaticBoundStats>,
    /// Compositional-analysis stanza (`None` when the workload skips it).
    pub compose: Option<ComposeStats>,
    /// Bit-level vulnerability-map stanza (`None` when the workload
    /// skips it).
    pub bits_map: Option<BitsStats>,
    /// Serial-vs-parallel outcome-distribution stanza (`None` when the
    /// workload skips it).
    pub tvd: Option<TvdStats>,
}

/// Time one path's strided exhaustive campaign, every experiment
/// extracting its propagation window: the buffered reference
/// (`reference`: `Injector::run_one_traced`, record the full faulty
/// trace and compare afterwards) or streamed extraction
/// (`Injector::extract_propagation`, compare while executing). The
/// streamed path also times the adaptive campaign.
fn run_path(
    kernel: &dyn Kernel,
    w: &PerfWorkload,
    reference: bool,
) -> (PathStats, ExhaustiveResult) {
    let stride = w.site_stride;
    // from scratch, not under the execution policy: the snapshot and
    // batch legs report their speedups against this leg
    let injector = &Injector::new(kernel, Classifier::new(w.tolerance));
    let bits = kernel.precision().bits();

    let mut table = None;
    let mut exhaustive_secs = f64::INFINITY;
    for _ in 0..w.timing_repeats.max(1) {
        let t0 = Instant::now();
        let plan = strided_plan(injector, stride);
        let experiments: Vec<Experiment> = if reference {
            plan.par_iter()
                .map(|f| injector.run_one_traced(f.site, f.bit).0)
                .collect()
        } else {
            plan.par_iter()
                .map(|f| {
                    injector
                        .extract_propagation(f.site, f.bit, injector.n_sites(), |_, _| {})
                        .experiment
                        .expect("a whole-program run is classified")
                })
                .collect()
        };
        let t = strided_table(injector, &experiments);
        exhaustive_secs = exhaustive_secs.min(t0.elapsed().as_secs_f64());
        table.get_or_insert(t);
    }
    let table = table.expect("at least one timing repeat");
    let exhaustive_experiments = (injector.n_sites().div_ceil(stride) * bits as usize) as u64;

    let adaptive = (!reference).then(|| {
        let t1 = Instant::now();
        let adaptive = adaptive_boundary(injector, &w.adaptive);
        (adaptive.samples.len() as u64, t1.elapsed().as_secs_f64())
    });

    let stats = PathStats {
        path: if reference { "buffered" } else { "streamed" }.to_string(),
        site_stride: stride,
        exhaustive_experiments,
        exhaustive_secs,
        experiments_per_sec: exhaustive_experiments as f64 / exhaustive_secs.max(1e-9),
        adaptive_experiments: adaptive.map(|a| a.0),
        adaptive_secs: adaptive.map(|a| a.1),
        outcomes: OutcomeCounts::of(&table, stride),
        peak_rss_kb_after: peak_rss_kb(),
    };
    (stats, table)
}

/// The exhaustive table of a strided campaign's experiments, with
/// skipped sites marked masked so the layout stays dense.
fn strided_table(injector: &Injector<'_>, experiments: &[Experiment]) -> ExhaustiveResult {
    let bits = injector.bits();
    let mut codes = vec![0u8; injector.n_sites() * bits as usize];
    for e in experiments {
        codes[e.site * bits as usize + e.bit as usize] = e.outcome.code();
    }
    ExhaustiveResult {
        n_sites: injector.n_sites(),
        bits,
        codes,
    }
}

/// Every bit of every `stride`-th site.
fn strided_plan(injector: &Injector<'_>, stride: usize) -> Vec<ftb_trace::FaultSpec> {
    let bits = injector.bits();
    (0..injector.n_sites())
        .step_by(stride)
        .flat_map(|site| (0..bits).map(move |bit| ftb_trace::FaultSpec { site, bit }))
        .collect()
}

/// The strided table via the outcome-only path (`run_many`): no
/// propagation extraction, just classification — the snapshot and batch
/// legs' execution model, where the campaign's product is the outcome
/// table. Returns the table, the experiments one run executes, and the
/// best wall seconds over `w.timing_repeats` runs.
fn timed_outcome_table(injector: &Injector<'_>, w: &PerfWorkload) -> (ExhaustiveResult, u64, f64) {
    let mut table = None;
    let mut secs = f64::INFINITY;
    for _ in 0..w.timing_repeats.max(1) {
        let t0 = Instant::now();
        let plan = strided_plan(injector, w.site_stride);
        let t = strided_table(injector, &injector.run_many(&plan));
        secs = secs.min(t0.elapsed().as_secs_f64());
        table.get_or_insert(t);
    }
    let experiments = injector.n_sites().div_ceil(w.site_stride) * injector.bits() as usize;
    let table = table.expect("at least one timing repeat");
    (table, experiments as u64, secs)
}

/// Run one workload through streamed extraction and the buffered
/// reference and check that their outcome tables agree.
pub fn run_workload(w: &PerfWorkload) -> WorkloadReport {
    assert!(w.site_stride >= 1, "site_stride must be positive");
    let kernel = w.config.build();
    let golden = kernel.golden();
    let compact = CompactGolden::from_golden(&golden);
    let golden_bytes_full = std::mem::size_of_val(golden.values.as_slice())
        + std::mem::size_of_val(golden.branches.as_slice())
        + std::mem::size_of_val(golden.static_ids.as_slice());
    let golden_bytes_compact = compact.memory_bytes();

    // streamed first so the buffered path's full-trace allocations are
    // visible as an RSS increase, not hidden under an earlier peak
    let (streamed, streamed_table) = run_path(kernel.as_ref(), w, false);
    let (buffered, buffered_table) = run_path(kernel.as_ref(), w, true);

    let speedup = streamed.experiments_per_sec / buffered.experiments_per_sec.max(1e-9);
    let snapshot = run_snapshot_leg(kernel.as_ref(), w, &streamed, &streamed_table);
    let batch = run_batch_leg(
        kernel.as_ref(),
        w,
        &streamed,
        &streamed_table,
        snapshot.as_ref(),
    );

    WorkloadReport {
        name: w.name.to_string(),
        config: w.config.clone(),
        tolerance: w.tolerance,
        n_sites: golden.n_sites(),
        bits: kernel.precision().bits(),
        golden_bytes_full,
        golden_bytes_compact,
        paths: vec![buffered, streamed],
        speedup_streamed_vs_buffered: speedup,
        min_streamed_speedup: w.min_streamed_speedup,
        snapshot,
        batch,
        paths_agree: buffered_table == streamed_table,
        staticbound: w
            .staticbound
            .as_ref()
            .and_then(|(cfg, tol)| run_staticbound(cfg, *tol)),
        compose: w.compose.as_ref().and_then(run_compose),
        bits_map: w.bits.as_ref().and_then(run_bits),
        tvd: w
            .tvd_threads
            .as_ref()
            .map(|tc| run_tvd(&w.config, w.tolerance, tc)),
    }
}

/// One tier's report, stored under `tiers.quick` / `tiers.full` of the
/// committed `BENCH_ppopp21.json` (see [`BENCH_SCHEMA`] and
/// [`merge_tier`]).
#[derive(Debug, Clone, Serialize)]
pub struct PerfReport {
    /// Whether the quick (CI smoke) tier ran.
    pub quick: bool,
    /// Rayon worker threads used.
    pub threads: usize,
    /// Per-workload results.
    pub workloads: Vec<WorkloadReport>,
    /// Conjunction of every workload's `paths_agree`.
    pub all_paths_agree: bool,
    /// Conjunction of every compose stanza's quality gate (precision at
    /// least 0.95, fully conservative, and — when an edit is pinned —
    /// exactly one dirty section at recall at least 0.9). `true` when
    /// no stanza ran.
    pub compose_ok: bool,
    /// Conjunction of every bits stanza's gate: zero certification
    /// violations, pruned/unpruned agreement on every non-certified
    /// cell, and the workload's pinned reduction floor met. `true` when
    /// no stanza ran.
    pub bits_ok: bool,
    /// Conjunction of every snapshot leg's gate: the snapshot-resumed
    /// outcome table identical to the from-t=0 table, the workload's
    /// pinned speedup floor met, and its absolute experiments/second
    /// floor met. `true` when no leg ran.
    pub snapshot_ok: bool,
    /// Conjunction of every batched leg's gate: the batched outcome
    /// table identical to the from-t=0 table, the workload's pinned
    /// speedup-over-snapshot floor met, and its absolute
    /// experiments/second floor met. `true` when no leg ran.
    pub batch_ok: bool,
    /// Conjunction of every workload's streamed-speedup floor (the
    /// guard against re-introducing the streamed-path regression the
    /// `DeltaRoute` split fixed).
    pub streamed_ok: bool,
    /// Conjunction of every TVD stanza's reproducibility gate: per-site
    /// outcome distributions identical (distance exactly zero) across
    /// every pinned pool size. `true` when no stanza ran.
    pub tvd_ok: bool,
}

/// The compose stanza's CI gate (see [`PerfReport::compose_ok`]).
pub fn compose_gate(c: &ComposeStats) -> bool {
    let fresh_ok = c.precision >= 0.95 && c.conservative_fraction >= 1.0 && c.recall >= 0.9;
    let incr_ok = c.incremental.as_ref().is_none_or(|i| {
        i.dirty_sections == 1 && i.recall_after_edit >= 0.9 && i.precision_after_edit >= 0.95
    });
    fresh_ok && incr_ok
}

/// The bits stanza's CI gate (see [`PerfReport::bits_ok`]): the map must
/// be sound (no certified bit observed as SDC/crash), the pruned
/// campaign must reproduce the unpruned outcome on every cell it still
/// runs, the work saving must meet the workload's pinned floor, and the
/// affine domain must certify at least as many measured bits as the
/// interval baseline (the v8 never-looser ratchet).
pub fn bits_gate(b: &BitsStats) -> bool {
    b.violations == 0
        && b.agree_non_certified
        && b.reduction_factor >= b.min_reduction
        && b.affine_certified_measured >= b.interval_certified_measured
}

/// The snapshot leg's CI gate (see [`PerfReport::snapshot_ok`]):
/// resume must be bit-exact, and paper-scale workloads additionally
/// pin a speedup floor over the plain streamed path and an absolute
/// experiments/second floor against the historical baseline.
pub fn snapshot_gate(s: &SnapshotStats) -> bool {
    s.identical && s.speedup_vs_streamed >= s.min_speedup && s.experiments_per_sec >= s.min_eps
}

/// The batched leg's CI gate (see [`PerfReport::batch_ok`]): batching
/// must be bit-exact, and paper-scale workloads additionally pin a
/// speedup floor over the scalar snapshot leg and an absolute
/// experiments/second floor against the historical baseline.
pub fn batch_gate(b: &BatchStats) -> bool {
    b.identical && b.speedup_vs_snapshot >= b.min_speedup && b.experiments_per_sec >= b.min_eps
}

/// The streamed-speedup CI gate (see [`PerfReport::streamed_ok`]).
pub fn streamed_gate(w: &WorkloadReport) -> bool {
    w.speedup_streamed_vs_buffered >= w.min_streamed_speedup
}

/// The TVD stanza's CI gate (see [`PerfReport::tvd_ok`]): campaign
/// outcomes must be a pure function of the fault, independent of how
/// many workers the pool schedules them across.
pub fn tvd_gate(t: &TvdStats) -> bool {
    t.deterministic && t.max_tvd == 0.0 && t.diverging_sites == 0
}

/// Run the full suite at the chosen tier.
pub fn run_suite(quick: bool) -> PerfReport {
    let workloads: Vec<WorkloadReport> = perf_suite(quick).iter().map(run_workload).collect();
    let all_paths_agree = workloads.iter().all(|w| w.paths_agree);
    let compose_ok = workloads
        .iter()
        .filter_map(|w| w.compose.as_ref())
        .all(compose_gate);
    let bits_ok = workloads
        .iter()
        .filter_map(|w| w.bits_map.as_ref())
        .all(bits_gate);
    let snapshot_ok = workloads
        .iter()
        .filter_map(|w| w.snapshot.as_ref())
        .all(snapshot_gate);
    let batch_ok = workloads
        .iter()
        .filter_map(|w| w.batch.as_ref())
        .all(batch_gate);
    let streamed_ok = workloads.iter().all(streamed_gate);
    let tvd_ok = workloads
        .iter()
        .filter_map(|w| w.tvd.as_ref())
        .all(tvd_gate);
    PerfReport {
        quick,
        threads: rayon::current_num_threads(),
        workloads,
        all_paths_agree,
        compose_ok,
        bits_ok,
        snapshot_ok,
        batch_ok,
        streamed_ok,
        tvd_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Timing probe for a paper-scale batch leg, skipping the
    /// minutes-long streamed leg the full tier pays: scalar
    /// snapshot-resume vs the lane-batched engine on the identical
    /// strided plan. Ignored by default (it still takes ~20s); run with
    /// `cargo test -p ftb-bench --release paper_jacobi_batch_probe -- --ignored --nocapture`
    /// when tuning the batched sweep (`FTB_PROBE_WORKLOAD=gemm|lu`
    /// targets the other two batch-capable full-tier workloads).
    #[test]
    #[ignore]
    fn paper_jacobi_batch_probe() {
        let name = std::env::var("FTB_PROBE_WORKLOAD").unwrap_or_else(|_| "jacobi".to_string());
        let w = perf_suite(false)
            .into_iter()
            .find(|w| w.name == name)
            .expect("full tier has the probed workload");
        let kernel = w.config.build();

        let scalar = Injector::new(kernel.as_ref(), Classifier::new(w.tolerance))
            .with_certified_exits()
            .with_snapshots(DEFAULT_MAX_SNAPSHOTS);
        let (scalar_table, experiments, scalar_secs) = timed_outcome_table(&scalar, &w);

        let lanes = std::env::var("FTB_PROBE_LANES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(w.batch_lanes);
        let batched = Injector::new(kernel.as_ref(), Classifier::new(w.tolerance))
            .with_certified_exits()
            .with_snapshots(DEFAULT_MAX_SNAPSHOTS)
            .with_batch_lanes(lanes);
        assert!(batched.batch_binding().is_some());
        let (batched_table, _, batched_secs) = timed_outcome_table(&batched, &w);

        eprintln!(
            "scalar snapshot {:.1} eps ({scalar_secs:.2}s), batched {:.1} eps ({batched_secs:.2}s), {:.2}x, identical {}",
            experiments as f64 / scalar_secs,
            experiments as f64 / batched_secs,
            scalar_secs / batched_secs,
            batched_table == scalar_table,
        );
        assert_eq!(batched_table, scalar_table);
    }

    /// Tuning probe for the paper-scale bit-prune stanzas: runs each
    /// full-tier `bits` stanza in isolation and prints the dual-domain
    /// scorecard the suite's gate reads, so the reduction floors can be
    /// pinned without paying for the whole tier. Run with
    /// `cargo test -p ftb-bench --release paper_bits_probe -- --ignored --nocapture`
    /// (filter a single workload via `FTB_PROBE_BITS=jacobi`).
    #[test]
    #[ignore]
    fn paper_bits_probe() {
        let only = std::env::var("FTB_PROBE_BITS").ok();
        for w in perf_suite(false) {
            if only.as_deref().is_some_and(|o| o != w.name) {
                continue;
            }
            let Some(bw) = &w.bits else { continue };
            let t = Instant::now();
            let b = run_bits(bw).expect("bits stanza on an instrumented kernel");
            eprintln!(
                "{:8} reduction {:.2}x (floor {:.1}) certified affine {} / interval {} of {}, \
                 dead {}, tightened {}, analysis {:.2}s+{:.2}s affine, violations {}, \
                 agree {}, total {:.1}s",
                w.name,
                b.reduction_factor,
                bw.min_reduction,
                b.affine_certified_measured,
                b.interval_certified_measured,
                b.total_measured,
                b.n_dead_sites,
                b.n_tightened_sites,
                b.analysis_secs,
                b.affine_analysis_secs,
                b.violations,
                b.agree_non_certified,
                t.elapsed().as_secs_f64(),
            );
            assert_eq!(b.violations, 0, "{}", w.name);
            assert!(b.agree_non_certified, "{}", w.name);
            assert!(
                b.affine_certified_measured >= b.interval_certified_measured,
                "{}",
                w.name
            );
            assert!(
                b.reduction_factor >= bw.min_reduction,
                "{}: reduction {:.2} below floor {:.1}",
                w.name,
                b.reduction_factor,
                bw.min_reduction
            );
        }
    }

    /// One shared quick-tier run: with eight workloads the suite is the
    /// dominant cost of this crate's tests, so both tests read the same
    /// report instead of each paying for their own.
    fn quick_report() -> &'static PerfReport {
        static REPORT: std::sync::OnceLock<PerfReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| run_suite(true))
    }

    #[test]
    fn quick_suite_paths_agree() {
        let report = quick_report();
        assert_eq!(report.workloads.len(), 8);
        assert!(report.all_paths_agree);
        for w in &report.workloads {
            assert!(w.golden_bytes_compact < w.golden_bytes_full);
            for p in &w.paths {
                assert!(p.experiments_per_sec > 0.0, "{}/{}", w.name, p.path);
            }
            let sb = w
                .staticbound
                .as_ref()
                .unwrap_or_else(|| panic!("{}: static stanza missing", w.name));
            assert_eq!(sb.n_injections_static, 0, "{}", w.name);
            assert!(sb.n_edges > 0, "{}", w.name);
            assert!(
                sb.precision >= 0.95,
                "{}: static precision {}",
                w.name,
                sb.precision
            );
            assert!(sb.recall > 0.0, "{}", w.name);
        }
        let jacobi = &report.workloads[0];
        let c = jacobi.compose.as_ref().expect("jacobi compose stanza");
        assert!(report.compose_ok, "compose gate failed: {c:?}");
        assert!(c.n_sections >= 4, "{} sections", c.n_sections);
        let i = c.incremental.as_ref().expect("incremental leg");
        assert_eq!(i.dirty_sections, 1, "edit must dirty exactly one section");
        assert_eq!(i.reused_sections, c.n_sections - 1);
        assert!(i.n_injections < c.n_injections);
        assert!(report.bits_ok, "bit-prune gate failed");
        assert!(report.snapshot_ok, "snapshot gate failed");
        assert!(report.streamed_ok, "streamed-speedup gate failed");
        assert!(report.tvd_ok, "serial-vs-parallel TVD gate failed");
        for w in &report.workloads {
            // only the checkpoint-instrumented kernels carry the leg
            match w.name.as_str() {
                "jacobi" | "gemm" | "cg" | "lu" => {
                    let s = w
                        .snapshot
                        .as_ref()
                        .unwrap_or_else(|| panic!("{}: snapshot leg missing", w.name));
                    assert!(s.identical, "{}: snapshot resume diverged", w.name);
                    assert!(s.snapshots > 0, "{}", w.name);
                    assert!(s.store_mb > 0.0, "{}", w.name);
                }
                _ => assert!(
                    w.snapshot.is_none(),
                    "{}: snapshot leg on a non-snapshot-capable kernel",
                    w.name
                ),
            }
            // ...and of those, only the lane-batched kernels carry the
            // batched-execution leg
            match w.name.as_str() {
                "jacobi" | "gemm" | "lu" => {
                    let b = w
                        .batch
                        .as_ref()
                        .unwrap_or_else(|| panic!("{}: batch leg missing", w.name));
                    assert!(b.identical, "{}: batched execution diverged", w.name);
                    assert_eq!(b.lanes, 8, "{}", w.name);
                    assert!(b.experiments_per_sec > 0.0, "{}", w.name);
                    assert_eq!(
                        b.exhaustive_experiments,
                        w.snapshot.as_ref().unwrap().exhaustive_experiments,
                        "{}: batch and snapshot legs must run the same plan",
                        w.name
                    );
                }
                _ => assert!(
                    w.batch.is_none(),
                    "{}: batch leg on a non-batch-capable kernel",
                    w.name
                ),
            }
        }
        assert!(report.batch_ok, "batched-execution gate failed");
        for w in &report.workloads {
            let t = w
                .tvd
                .as_ref()
                .unwrap_or_else(|| panic!("{}: tvd stanza missing", w.name));
            assert_eq!(t.thread_counts, vec![1, 8], "{}", w.name);
            assert!(t.deterministic, "{}: outcomes depend on pool size", w.name);
            assert_eq!(t.max_tvd, 0.0, "{}", w.name);
            assert_eq!(t.diverging_sites, 0, "{}", w.name);
            assert_eq!(
                t.n_experiments,
                w.n_sites as u64 * u64::from(w.bits),
                "{}",
                w.name
            );
        }
        for w in &report.workloads {
            let b = w
                .bits_map
                .as_ref()
                .unwrap_or_else(|| panic!("{}: bits stanza missing", w.name));
            assert_eq!(b.violations, 0, "{}: certified bit was not masked", w.name);
            assert!(b.agree_non_certified, "{}: pruned run diverged", w.name);
            assert!(
                b.reduction_factor >= b.min_reduction,
                "{}: reduction {} < floor {}",
                w.name,
                b.reduction_factor,
                b.min_reduction
            );
            assert!(b.pruned_experiments < b.unpruned_experiments, "{}", w.name);
        }
    }

    #[test]
    fn report_serialises() {
        let report = quick_report().clone();
        let doc = merge_tier(None, &report);
        let schema_of =
            |d: &serde_json::Value| d.get("schema").and_then(|s| s.as_str().map(String::from));
        let tier_of =
            |d: &serde_json::Value, t: &str| d.get("tiers").and_then(|v| v.get(t)).cloned();
        assert_eq!(schema_of(&doc).as_deref(), Some(BENCH_SCHEMA));
        assert!(tier_of(&doc, "quick").is_some_and(|v| v.is_object()));
        assert!(tier_of(&doc, "full").is_none());
        // a second merge of the other tier must not clobber the first
        let mut full = report.clone();
        full.quick = false;
        let doc = merge_tier(Some(doc), &full);
        assert!(tier_of(&doc, "quick").is_some_and(|v| v.is_object()));
        assert!(tier_of(&doc, "full").is_some_and(|v| v.is_object()));
        // a foreign schema is discarded, not migrated
        let stale: serde_json::Value =
            serde_json::from_str(r#"{"schema": "ftb-bench/extraction-v4"}"#).unwrap();
        let doc = merge_tier(Some(stale), &report);
        assert_eq!(schema_of(&doc).as_deref(), Some(BENCH_SCHEMA));
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("jacobi"));
        assert!(json.contains("\"staticbound\""));
        assert!(json.contains("\"n_injections_static\": 0"));
        assert!(json.contains("\"compose\""));
        assert!(json.contains("\"dirty_sections\": 1"));
        assert!(json.contains("\"bits_map\""));
        assert!(json.contains("\"reduction_factor\""));
        assert!(json.contains("\"agree_non_certified\""));
        assert!(json.contains("\"bits_ok\""));
        assert!(json.contains("\"snapshot\""));
        assert!(json.contains("\"speedup_vs_streamed\""));
        assert!(json.contains("\"snapshot_ok\""));
        assert!(json.contains("\"batch\""));
        assert!(json.contains("\"speedup_vs_snapshot\""));
        assert!(json.contains("\"batch_ok\""));
        assert!(json.contains("\"streamed_ok\""));
        assert!(json.contains("\"tvd\""));
        assert!(json.contains("\"max_tvd\""));
        assert!(json.contains("\"tvd_ok\""));
        for name in ["lu", "fft", "stencil", "matvec", "spmv"] {
            assert!(json.contains(&format!("\"{name}\"")), "{name} missing");
        }
    }
}
