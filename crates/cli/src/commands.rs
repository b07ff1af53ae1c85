//! Command implementations. Each returns its report as a `String` so the
//! commands are testable without capturing stdout.

use crate::args::{Args, CliError};
use ftb_core::prelude::*;
use ftb_core::{AdaptiveState, StaticValidation};
use ftb_inject::{
    exhaustive_plan, monte_carlo_plan, pruned_exhaustive_plan, schedule_snapshot_major,
    BitPruneBinding, CampaignBinding, CampaignMetrics, ChunkedCampaign, ExhaustiveResult,
    MetricsSnapshot,
};
use ftb_kernels::Kernel;
use ftb_report::{
    bits_vuln_table, boundary_comparison, sections_table, BitsVulnRow, BoundaryMethodRow,
    SectionRow, Table,
};
use ftb_trace::{Ddg, FaultSpec, GoldenRun};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

fn maybe_write_json<T: serde::Serialize>(args: &Args, value: &T) -> Result<(), CliError> {
    if let Some(path) = &args.json {
        let data = serde_json::to_vec_pretty(value)
            .map_err(|e| CliError(format!("serialising JSON: {e}")))?;
        std::fs::write(path, data).map_err(|e| CliError(format!("writing {path}: {e}")))?;
    }
    Ok(())
}

fn maybe_write_metrics(args: &Args, metrics: &MetricsSnapshot) -> Result<(), CliError> {
    if let Some(path) = &args.metrics_out {
        let data = serde_json::to_vec_pretty(metrics)
            .map_err(|e| CliError(format!("serialising metrics: {e}")))?;
        std::fs::write(path, data).map_err(|e| CliError(format!("writing {path}: {e}")))?;
    }
    Ok(())
}

/// The identity a checkpoint file is bound to for this invocation.
fn campaign_binding(args: &Args, injector: &Injector<'_>, plan: &str) -> CampaignBinding {
    CampaignBinding {
        kernel: args.kernel.clone(),
        classifier: *injector.classifier(),
        n_sites: injector.n_sites(),
        bits: injector.bits(),
        plan: plan.to_string(),
        bit_prune: None,
        snapshot: injector.snapshot_store().map(|s| s.binding()),
        batch: injector.batch_binding(),
    }
}

/// Run a fixed fault plan through the chunked campaign runtime, with the
/// ledger, resume, progress, and metrics behavior selected by the flags.
fn run_chunked<'k>(
    args: &Args,
    injector: &'k Injector<'k>,
    plan_desc: &str,
    plan: Vec<FaultSpec>,
    bit_prune: Option<BitPruneBinding>,
) -> Result<ChunkedCampaign<'k>, CliError> {
    // snapshot-major order: one warm snapshot serves a contiguous batch.
    // Stable, so the (already snapshot-major) exhaustive plans pass
    // through unchanged and keep their site-major record layout.
    let plan = match injector.snapshot_store() {
        Some(store) => schedule_snapshot_major(&plan, store),
        None => plan,
    };
    let mut cc = ChunkedCampaign::new(injector, plan, args.chunk)
        .with_reporter(format!("ftb {}", args.command), Duration::from_secs(2));
    if let Some(path) = &args.checkpoint {
        let mut binding = campaign_binding(args, injector, plan_desc);
        binding.bit_prune = bit_prune;
        cc = cc
            .with_ledger(Path::new(path), binding, args.resume)
            .map_err(|e| CliError(format!("checkpoint {path}: {e}")))?;
    }
    cc.run_to_completion()
        .map_err(|e| CliError(format!("campaign: {e}")))?;
    maybe_write_metrics(args, &cc.metrics())?;
    Ok(cc)
}

/// Run the selected command.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "golden" => golden(args),
        "campaign" => campaign(args),
        "exhaustive" => exhaustive(args),
        "analyze" => analyze(args),
        "analyze-static" => analyze_static(args),
        "analyze-compose" => analyze_compose(args),
        "analyze-bits" => analyze_bits(args),
        "analyze-characterize" => analyze_characterize(args),
        "adaptive" => adaptive(args),
        "report" => report(args),
        "protect" => protect(args),
        other => Err(CliError(format!("unknown command '{other}'"))),
    }
}

fn golden(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();
    let g = kernel.golden();
    let mut out = String::new();
    let _ = writeln!(out, "kernel:               {}", kernel.name());
    let _ = writeln!(out, "dynamic instructions: {}", g.n_sites());
    let _ = writeln!(out, "experiment space:     {}", g.n_experiments());
    let _ = writeln!(out, "branch events:        {}", g.branches.len());
    let _ = writeln!(out, "output elements:      {}", g.output.len());
    let _ = writeln!(
        out,
        "trace memory:         {:.1} KiB",
        g.memory_bytes() as f64 / 1024.0
    );

    // per-region site counts
    let registry = kernel.registry();
    let mut counts = vec![0usize; registry.len()];
    for site in 0..g.n_sites() {
        counts[g.static_id(site).index()] += 1;
    }
    let mut table = Table::new(&["static instruction", "region", "dynamic sites"]);
    for (id, instr) in registry.iter() {
        table.row(&[
            instr.name.to_string(),
            instr.region.label().to_string(),
            counts[id.index()].to_string(),
        ]);
    }
    let _ = write!(out, "\n{}", table.render());
    Ok(out)
}

fn campaign(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();
    let analysis = Analysis::new(kernel.as_ref(), Classifier::new(args.tolerance));
    let injector = analysis.injector();
    let plan_desc = format!("monte-carlo n={} seed={}", args.samples, args.seed);
    let plan = monte_carlo_plan(injector.n_sites(), injector.bits(), args.samples, args.seed);
    let cc = run_chunked(args, injector, &plan_desc, plan, None)?;
    let est = ftb_inject::monte_carlo::summarize(cc.experiments(), 0.95);
    maybe_write_json(args, &est)?;
    let mut out = String::new();
    let _ = writeln!(out, "experiments:     {}", est.n);
    let _ = writeln!(
        out,
        "outcomes:        {} masked, {} SDC, {} crash",
        est.n_masked, est.n_sdc, est.n_crash
    );
    let _ = writeln!(
        out,
        "SDC ratio:       {:.3}%  (95% CI [{:.3}%, {:.3}%])",
        est.sdc_ratio() * 100.0,
        est.sdc_ci.lo * 100.0,
        est.sdc_ci.hi * 100.0
    );
    let _ = writeln!(
        out,
        "sites observed:  {} of {}",
        est.distinct_sites,
        analysis.n_sites()
    );
    Ok(out)
}

/// Zero-injection certification of `golden`'s bits in `domain`, at the
/// tolerance, safety and widening the flags select.
fn certify(
    args: &Args,
    golden: &GoldenRun,
    ddg: &Ddg,
    domain: Domain,
) -> Result<Certification, CliError> {
    let cfg = CertifyConfig {
        tolerance: args.tolerance,
        safety: args.safety,
        widen: args.widen,
        domain,
        targets: None,
    };
    certify_bits(golden, ddg, &cfg).map_err(|e| CliError(e.to_string()))
}

/// The certified masks `--bit-prune` skips (exhaustive) or deprioritises
/// (adaptive), in the `--domain` the flags select; `None` without
/// `--bit-prune`.
fn bit_prune_masks(args: &Args, kernel: &dyn Kernel) -> Result<Option<BitMasks>, CliError> {
    if !args.bit_prune {
        return Ok(None);
    }
    let (golden, ddg) = kernel.golden_with_ddg();
    Ok(Some(certify(args, &golden, &ddg, args.domain)?.masks))
}

/// What a pruned campaign's ledger binds to, so a resume provably
/// prunes the same bits.
fn bit_prune_binding(masks: &BitMasks) -> BitPruneBinding {
    BitPruneBinding {
        certified: masks.certified_total(),
        digest: masks.digest(),
    }
}

fn exhaustive(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();
    let analysis = Analysis::new(kernel.as_ref(), Classifier::new(args.tolerance));
    let injector = analysis.injector();

    let masks = bit_prune_masks(args, kernel.as_ref())?;
    let (ex, skipped) = match &masks {
        Some(masks) => {
            let certified = masks.certified_masks();
            let plan = pruned_exhaustive_plan(injector.n_sites(), injector.bits(), &certified);
            let binding = bit_prune_binding(masks);
            let cc = run_chunked(args, injector, "exhaustive bit-prune", plan, Some(binding))?;
            (
                cc.into_exhaustive_with_certified(&certified),
                masks.certified_total(),
            )
        }
        None => {
            let plan = exhaustive_plan(injector.n_sites(), injector.bits());
            let cc = run_chunked(args, injector, "exhaustive", plan, None)?;
            (cc.into_exhaustive(), 0)
        }
    };
    maybe_write_json(args, &ex)?;
    let (m, s, c) = ex.counts();
    let mut out = String::new();
    let _ = writeln!(out, "experiments:  {}", ex.n_experiments() - skipped);
    if let Some(store) = injector.snapshot_store() {
        let _ = writeln!(
            out,
            "snapshots:    {} boundaries ({:.1} MiB), experiments resumed mid-trace",
            store.len(),
            store.store_bytes() as f64 / (1024.0 * 1024.0)
        );
    }
    if let Some(masks) = &masks {
        let _ = writeln!(
            out,
            "bit-prune:    {skipped} certified bits skipped ({:.2}x campaign reduction)",
            masks.reduction_factor()
        );
    }
    let _ = writeln!(out, "outcomes:     {m} masked, {s} SDC, {c} crash");
    let _ = writeln!(out, "SDC ratio:    {:.3}%", ex.overall_sdc_ratio() * 100.0);
    Ok(out)
}

fn analyze(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();
    let analysis = Analysis::new(kernel.as_ref(), Classifier::new(args.tolerance));
    let samples = analysis.sample_uniform(args.rate, args.seed);
    let inference = analysis.infer(&samples, args.filter);
    let predictor = analysis.predictor(&inference.boundary);
    let uncertainty = analysis.uncertainty(&inference.boundary, &samples);
    let overall = predictor.overall_sdc_ratio(Some(&samples));
    maybe_write_json(args, &inference)?;

    let (m, s, c) = samples.counts();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sampled:            {} experiments at {} sites ({:.2}% of {})",
        samples.len(),
        samples.distinct_sites(),
        samples.site_rate(analysis.n_sites()) * 100.0,
        analysis.n_sites()
    );
    let _ = writeln!(out, "outcomes:           {m} masked, {s} SDC, {c} crash");
    let _ = writeln!(
        out,
        "boundary coverage:  {:.1}% of sites",
        inference.boundary.coverage() * 100.0
    );
    let _ = writeln!(out, "predicted SDC:      {:.3}%", overall * 100.0);
    let _ = writeln!(
        out,
        "uncertainty (§3.6): {:.2}%  (self-verified precision; 100% = no \
         contradiction between boundary and samples)",
        uncertainty * 100.0
    );
    Ok(out)
}

/// Machine-readable result of `ftb analyze static`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StaticAnalysisReport {
    kernel: String,
    tolerance: f64,
    safety: f64,
    n_sites: usize,
    n_edges: usize,
    n_constrained: usize,
    record_seconds: f64,
    backward_seconds: f64,
    /// Always zero — the analytical boundary's whole point.
    n_injections_static: u64,
    validation: Option<StaticValidation>,
    comparison: Vec<BoundaryMethodRow>,
}

fn analyze_static(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();

    let t0 = Instant::now();
    let (golden, ddg) = kernel.golden_with_ddg();
    let record_seconds = t0.elapsed().as_secs_f64();
    let cfg = ftb_core::StaticBoundConfig {
        tolerance: args.tolerance,
        safety: args.safety,
    };
    let t1 = Instant::now();
    let sb = static_bound(&ddg, &cfg).map_err(|e| CliError(format!("static analysis: {e}")))?;
    let backward_seconds = t1.elapsed().as_secs_f64();
    let boundary = sb.boundary();

    let mut out = String::new();
    let _ = writeln!(out, "kernel:             {}", kernel.name());
    let _ = writeln!(out, "dynamic sites:      {}", sb.n_sites());
    let _ = writeln!(out, "dependence edges:   {}", sb.n_edges);
    let _ = writeln!(
        out,
        "constrained sites:  {} ({:.1}%)",
        sb.n_constrained,
        sb.n_constrained as f64 / sb.n_sites().max(1) as f64 * 100.0
    );
    let _ = writeln!(
        out,
        "wall time:          {:.1} ms golden+DDG, {:.1} ms backward pass",
        record_seconds * 1e3,
        backward_seconds * 1e3
    );
    let _ = writeln!(
        out,
        "injections used:    0 (analytical bound from the golden run only)"
    );

    let mut report = StaticAnalysisReport {
        kernel: kernel.name().to_string(),
        tolerance: args.tolerance,
        safety: args.safety,
        n_sites: sb.n_sites(),
        n_edges: sb.n_edges,
        n_constrained: sb.n_constrained,
        record_seconds,
        backward_seconds,
        n_injections_static: 0,
        validation: None,
        comparison: Vec::new(),
    };

    if args.no_validate {
        maybe_write_json(args, &report)?;
        return Ok(out);
    }

    // validation: exhaustive ground truth + a pinned-seed sample, then the
    // static / inferred / golden three-way comparison
    let injector = Injector::with_golden(kernel.as_ref(), golden, Classifier::new(args.tolerance))
        .with_execution_policy();
    let truth = injector.exhaustive();
    let n_val_sites = ((args.rate * injector.n_sites() as f64).ceil() as usize).max(4);
    let samples = SampleSet::sample_sites(&injector, n_val_sites, args.seed);
    let v = validate_static(
        &Predictor::new(injector.golden(), &boundary),
        &truth,
        &samples,
        injector.golden(),
        &sb.thresholds,
    );

    let inference = infer_boundary(&injector, &samples, args.filter);
    let gb = golden_boundary(injector.golden(), &truth);
    report.comparison = comparison_rows(
        injector.golden(),
        &truth,
        &[
            ("static", 0, &boundary, Some(&samples)),
            (
                "inferred",
                samples.len() as u64,
                &inference.boundary,
                Some(&samples),
            ),
            ("golden (exhaustive)", truth.n_experiments(), &gb, None),
        ],
    );
    report.validation = Some(v);

    let _ = writeln!(
        out,
        "conservative:       {:.1}% of SDC-bearing sites (median slack {:.1}x)",
        v.conservative_fraction * 100.0,
        v.median_slack
    );
    let _ = writeln!(
        out,
        "\nstatic vs inferred (rate {:.1}%) vs exhaustive:\n",
        args.rate * 100.0
    );
    let _ = write!(out, "{}", boundary_comparison(&report.comparison));
    maybe_write_json(args, &report)?;
    Ok(out)
}

/// JSON artifact of `ftb analyze compose`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ComposeReport {
    kernel: String,
    tolerance: f64,
    n_sites: usize,
    n_sections: usize,
    reran: Vec<usize>,
    reused: Vec<usize>,
    n_injections: u64,
    conservative_fraction: Option<f64>,
    sections: Vec<SectionRow>,
    comparison: Vec<BoundaryMethodRow>,
}

/// One method of a boundary comparison table: its name, the injections
/// it spent, its boundary, and the samples its §3.6 uncertainty column
/// is computed over (`None` leaves the column empty).
type MethodRow<'a> = (&'a str, u64, &'a Boundary, Option<&'a SampleSet>);

/// Score each method's boundary against exhaustive truth.
fn comparison_rows(
    golden: &GoldenRun,
    truth: &ExhaustiveResult,
    rows: &[MethodRow<'_>],
) -> Vec<BoundaryMethodRow> {
    rows.iter()
        .map(|&(method, injections, boundary, samples)| {
            let predictor = Predictor::new(golden, boundary);
            let eval = BoundaryEval::against_exhaustive(&predictor, truth);
            BoundaryMethodRow {
                method: method.into(),
                injections,
                coverage: boundary.coverage(),
                precision: eval.precision,
                recall: eval.recall,
                uncertainty: samples.map(|s| BoundaryEval::uncertainty(&predictor, s).precision),
            }
        })
        .collect()
}

fn analyze_compose(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();
    let injector =
        Injector::new(kernel.as_ref(), Classifier::new(args.tolerance)).with_execution_policy();
    let cfg = ftb_core::ComposeConfig {
        tolerance: args.tolerance,
        rate: args.rate,
        seed: args.seed,
        safety: args.safety,
        extrapolate: true,
        max_sections: args.max_sections,
        secant: args.secant,
    };
    let ledger = args.checkpoint.as_ref().map(Path::new);
    let t0 = Instant::now();
    let r = compose_analysis(kernel.as_ref(), &args.kernel, &injector, &cfg, ledger)
        .map_err(|e| CliError(format!("compose analysis: {e}")))?;
    let compose_seconds = t0.elapsed().as_secs_f64();

    let m = r.map.n_sections();
    let sections: Vec<SectionRow> = (0..m)
        .map(|t| {
            let (lo, hi) = r.map.range(t);
            SectionRow {
                index: t,
                lo,
                hi,
                injections: if r.reused.contains(&t) {
                    0
                } else {
                    r.summaries[t].n_experiments
                },
                amp_in: r.summaries[t].amp_in,
                budget: r.budgets[t],
                reused: r.reused.contains(&t),
            }
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(out, "kernel:            {}", kernel.name());
    let _ = writeln!(out, "dynamic sites:     {}", injector.n_sites());
    let _ = writeln!(out, "sections:          {m}");
    let _ = writeln!(
        out,
        "sections re-run:   {} of {m} ({} reused from ledger)",
        r.reran.len(),
        r.reused.len()
    );
    let _ = writeln!(out, "injections spent:  {}", r.n_experiments);
    let _ = writeln!(out, "wall time:         {:.1} ms", compose_seconds * 1e3);
    let _ = writeln!(out, "\nper-section summary:\n");
    let _ = write!(out, "{}", sections_table(&sections));

    let mut report = ComposeReport {
        kernel: kernel.name().to_string(),
        tolerance: args.tolerance,
        n_sites: injector.n_sites(),
        n_sections: m,
        reran: r.reran.clone(),
        reused: r.reused.clone(),
        n_injections: r.n_experiments,
        conservative_fraction: None,
        sections,
        comparison: Vec::new(),
    };

    if args.no_validate {
        maybe_write_json(args, &report)?;
        return Ok(out);
    }

    // four-way scorecard: composed vs inferred vs static vs exhaustive
    let truth = injector.exhaustive();
    let golden = injector.golden();
    let conservative = conservative_fraction(&r.boundary, &min_sdc_per_site(golden, &truth));
    report.conservative_fraction = Some(conservative);

    let n_val_sites = ((args.rate * injector.n_sites() as f64).ceil() as usize).max(4);
    let samples = SampleSet::sample_sites(&injector, n_val_sites, args.seed);
    let inference = infer_boundary(&injector, &samples, FilterMode::PerSite);
    let gb = golden_boundary(golden, &truth);

    // the static row needs provenance instrumentation; skip it (with a
    // note) for kernels that lack it rather than failing the command
    let (_, ddg) = kernel.golden_with_ddg();
    let static_cfg = ftb_core::StaticBoundConfig {
        tolerance: args.tolerance,
        safety: args.safety,
    };
    let static_boundary = match static_bound(&ddg, &static_cfg) {
        Ok(sb) => Some(sb.boundary()),
        Err(e) => {
            let _ = writeln!(out, "\n(static row skipped: {e})");
            None
        }
    };
    let mut rows: Vec<MethodRow<'_>> = vec![
        ("composed", r.n_experiments, &r.boundary, None),
        ("inferred", samples.len() as u64, &inference.boundary, None),
    ];
    if let Some(b) = &static_boundary {
        rows.push(("static", 0, b, None));
    }
    rows.push(("golden (exhaustive)", truth.n_experiments(), &gb, None));
    report.comparison = comparison_rows(golden, &truth, &rows);

    let _ = writeln!(
        out,
        "\nconservative:      {:.1}% of sites stay below their smallest SDC error",
        conservative * 100.0
    );
    let _ = writeln!(
        out,
        "\ncomposed vs inferred vs static vs exhaustive (rate {:.1}%):\n",
        args.rate * 100.0
    );
    let _ = write!(out, "{}", boundary_comparison(&report.comparison));
    maybe_write_json(args, &report)?;
    Ok(out)
}

/// Machine-readable result of `ftb analyze bits`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BitsAnalysisReport {
    kernel: String,
    tolerance: f64,
    safety: f64,
    widen: f64,
    source: String,
    n_sites: usize,
    bits: u8,
    /// Sites whose forward envelope escaped to NaN/overflow.
    n_unbounded: usize,
    certified_total: u64,
    crash_likely_total: u64,
    total_bits: u64,
    /// `total / (total - certified)` — campaign work factor saved by
    /// `--bit-prune`.
    reduction_factor: f64,
    /// Order-sensitive digest of the certified masks (binds pruned
    /// ledgers).
    digest: u64,
    per_instruction: Vec<BitsVulnRow>,
    /// Per-site certified-masked bit fraction (the vulnerability map).
    per_site_safe_fraction: Vec<f64>,
    /// Per-site provable crash-likely exponent-bit band, if any.
    crash_bands: Vec<Option<(u8, u8)>>,
    scorecard: Option<BitsScorecard>,
    /// Interval-vs-affine tightness comparison; populated only under
    /// `--domain affine`.
    #[serde(default)]
    domain_scorecard: Option<DomainScorecard>,
}

/// Side-by-side tightness comparison between the interval baseline and
/// the affine-form domain, attached under `--domain affine`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DomainScorecard {
    /// Noise-symbol budget the affine sweep ran with.
    budget: usize,
    /// Certified-masked bits under the interval baseline.
    interval_certified_total: u64,
    /// Certified-masked bits under the affine domain (never fewer).
    affine_certified_total: u64,
    /// Interval baseline campaign reduction factor.
    interval_reduction_factor: f64,
    /// Affine campaign reduction factor.
    affine_reduction_factor: f64,
    /// Empty-cone sites the influence slice certified outright.
    n_dead: usize,
    /// Swept sites strictly tightened over the backward pass.
    n_tightened: usize,
    /// Sites the affine threshold sweep processed.
    n_swept: usize,
}

fn analyze_bits(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();
    let (golden, ddg) = kernel.golden_with_ddg();
    let t0 = Instant::now();
    // Under `--domain affine` the interval certification becomes the
    // comparison baseline and the affine one is the primary artifact.
    let interval = certify(args, &golden, &ddg, Domain::Interval)?;
    let affine = match args.domain {
        Domain::Interval => None,
        Domain::Affine { budget } => Some((budget, certify(args, &golden, &ddg, args.domain)?)),
    };
    let analysis_seconds = t0.elapsed().as_secs_f64();
    let c = affine.as_ref().map_or(&interval, |(_, a)| a);
    let masks = &c.masks;
    let n = masks.n_sites();
    let bits = masks.bits;

    // aggregate the per-site map by static instruction
    let registry = kernel.registry();
    let mut counts = vec![0usize; registry.len()];
    let mut safe_sum = vec![0.0f64; registry.len()];
    let mut crash_sites = vec![0usize; registry.len()];
    for site in 0..n {
        let id = golden.static_id(site).index();
        counts[id] += 1;
        safe_sum[id] += masks.safe_fraction(site);
        crash_sites[id] += usize::from(masks.crash_band(site).is_some());
    }
    let per_instruction: Vec<BitsVulnRow> = registry
        .iter()
        .filter(|(id, _)| counts[id.index()] > 0)
        .map(|(id, instr)| BitsVulnRow {
            name: instr.name.to_string(),
            region: instr.region.label().to_string(),
            dynamic_sites: counts[id.index()],
            mean_safe_fraction: safe_sum[id.index()] / counts[id.index()] as f64,
            crash_band_sites: crash_sites[id.index()],
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(out, "kernel:             {}", kernel.name());
    let _ = writeln!(out, "fault space:        {n} sites x {bits} bits");
    let _ = writeln!(
        out,
        "forward envelopes:  {} unbounded of {n} sites (widen {:e})",
        c.n_unbounded, args.widen
    );
    let _ = writeln!(
        out,
        "certified masked:   {} of {} bits ({:.1}%)",
        masks.certified_total(),
        masks.total_bits(),
        masks.certified_total() as f64 / masks.total_bits().max(1) as f64 * 100.0
    );
    let _ = writeln!(
        out,
        "crash-likely:       {} bits",
        masks.crash_likely_total()
    );
    let _ = writeln!(
        out,
        "campaign reduction: {:.2}x under --bit-prune",
        masks.reduction_factor()
    );
    let _ = writeln!(
        out,
        "wall time:          {:.1} ms (certification source: {}, 0 injections)",
        analysis_seconds * 1e3,
        args.domain
    );
    let interval_masks = &interval.masks;
    if let Some((budget, a)) = &affine {
        let amasks = &a.masks;
        let gained = amasks
            .certified_total()
            .saturating_sub(interval_masks.certified_total());
        let _ = writeln!(out, "\ndomain tightness (interval vs affine):");
        let _ = writeln!(
            out,
            "  certified masked:   interval {} | affine {} (+{gained} bits)",
            interval_masks.certified_total(),
            amasks.certified_total(),
        );
        let _ = writeln!(
            out,
            "  campaign reduction: interval {:.2}x | affine {:.2}x",
            interval_masks.reduction_factor(),
            amasks.reduction_factor()
        );
        let _ = writeln!(
            out,
            "  influence slice:    {} dead-cone sites certified outright",
            a.n_dead
        );
        let _ = writeln!(
            out,
            "  affine sweep:       {} of {} swept sites tightened (budget {budget})",
            a.n_tightened, a.n_swept
        );
    }
    let _ = writeln!(out, "\nper-instruction vulnerability map:\n");
    let _ = write!(out, "{}", bits_vuln_table(&per_instruction));

    let mut report = BitsAnalysisReport {
        kernel: kernel.name().to_string(),
        tolerance: args.tolerance,
        safety: args.safety,
        widen: args.widen,
        source: args.domain.to_string(),
        n_sites: n,
        bits,
        n_unbounded: c.n_unbounded,
        certified_total: masks.certified_total(),
        crash_likely_total: masks.crash_likely_total(),
        total_bits: masks.total_bits(),
        reduction_factor: masks.reduction_factor(),
        digest: masks.digest(),
        per_instruction,
        per_site_safe_fraction: (0..n).map(|s| masks.safe_fraction(s)).collect(),
        crash_bands: (0..n).map(|s| masks.crash_band(s)).collect(),
        scorecard: None,
        domain_scorecard: affine.as_ref().map(|&(budget, ref a)| DomainScorecard {
            budget,
            interval_certified_total: interval_masks.certified_total(),
            affine_certified_total: a.masks.certified_total(),
            interval_reduction_factor: interval_masks.reduction_factor(),
            affine_reduction_factor: a.masks.reduction_factor(),
            n_dead: a.n_dead,
            n_tightened: a.n_tightened,
            n_swept: a.n_swept,
        }),
    };

    if args.no_validate {
        maybe_write_json(args, &report)?;
        return Ok(out);
    }

    // conservatism scorecard: every certified bit must really be masked
    let injector = Injector::with_golden(kernel.as_ref(), golden, Classifier::new(args.tolerance))
        .with_execution_policy();
    let scorecard = BitsScorecard::score(masks, injector.exhaustive().iter());
    let _ = writeln!(
        out,
        "\nconservatism vs exhaustive ({} injections):",
        scorecard.n_injections
    );
    let _ = writeln!(
        out,
        "  violations:        {} of {} certified bits ({})",
        scorecard.violations,
        masks.certified_total(),
        if scorecard.violations == 0 {
            "sound"
        } else {
            "UNSOUND"
        }
    );
    let _ = writeln!(
        out,
        "  certified recall:  {:.1}% of truly-masked bits certified with 0 injections",
        scorecard.certified_recall * 100.0
    );
    let _ = writeln!(
        out,
        "  crash-likely hits: {} of {} provably non-finite flips crashed",
        scorecard.crash_likely_hits,
        masks.crash_likely_total()
    );
    report.scorecard = Some(scorecard);
    maybe_write_json(args, &report)?;
    Ok(out)
}

fn analyze_characterize(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();
    let injector =
        Injector::new(kernel.as_ref(), Classifier::new(args.tolerance)).with_execution_policy();
    let report = ftb_inject::characterize(&injector, &args.threads);
    maybe_write_json(args, &report)?;

    let mut out = String::new();
    let _ = writeln!(out, "kernel:        {}", report.kernel);
    let _ = writeln!(out, "sites:         {}", report.n_sites);
    let _ = writeln!(
        out,
        "experiments:   {} per pool size ({} pool sizes)",
        report.n_experiments,
        report.thread_counts.len()
    );

    let mut runs = Table::new(&["threads", "masked", "SDC", "crash"]);
    for r in &report.runs {
        runs.row(&[
            r.threads.to_string(),
            r.masked.to_string(),
            r.sdc.to_string(),
            r.crash.to_string(),
        ]);
    }
    let _ = write!(out, "\nper-pool outcome totals:\n\n{}", runs.render());

    let mut pairs = Table::new(&["pools", "max TVD", "mean TVD", "diverging sites"]);
    for p in &report.pairs {
        pairs.row(&[
            format!("{} vs {}", p.threads_a, p.threads_b),
            format!("{:.6}", p.max_tvd),
            format!("{:.6}", p.mean_tvd),
            match p.worst_site {
                Some(site) => format!("{} (worst: site {site})", p.diverging_sites),
                None => p.diverging_sites.to_string(),
            },
        ]);
    }
    let _ = write!(
        out,
        "\nper-site outcome-distribution distance:\n\n{}",
        pairs.render()
    );
    let _ = writeln!(
        out,
        "\nreproducible:  {}",
        if report.deterministic {
            "yes (every per-site distribution identical across pool sizes)"
        } else {
            "NO — outcome distributions depend on worker count"
        }
    );
    Ok(out)
}

/// On-disk format of an adaptive `--checkpoint` file: the complete
/// sampler state (including the per-site information counts) plus the
/// campaign binding a resume must agree with.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdaptiveCheckpoint {
    format: String,
    binding: CampaignBinding,
    state: AdaptiveState,
}

/// `v2` records hangs as stopped at the hang budget, as the `v2`
/// experiment ledger does; a `v1` checkpoint is refused.
const ADAPTIVE_FORMAT: &str = "ftb-adaptive-v2";

/// Atomically replace the checkpoint (write-to-temp + rename), so a
/// crash mid-write leaves the previous round's state intact.
fn write_adaptive_checkpoint(
    path: &str,
    binding: &CampaignBinding,
    state: &AdaptiveState,
) -> Result<(), CliError> {
    let cp = AdaptiveCheckpoint {
        format: ADAPTIVE_FORMAT.to_string(),
        binding: binding.clone(),
        state: state.clone(),
    };
    let data =
        serde_json::to_vec(&cp).map_err(|e| CliError(format!("serialising checkpoint: {e}")))?;
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, data).map_err(|e| CliError(format!("writing {tmp}: {e}")))?;
    std::fs::rename(&tmp, path).map_err(|e| CliError(format!("replacing {path}: {e}")))?;
    Ok(())
}

fn load_adaptive_checkpoint(
    path: &str,
    expected: &CampaignBinding,
    injector: &Injector<'_>,
) -> Result<AdaptiveState, CliError> {
    let data =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("reading {path}: {e}")))?;
    let cp: AdaptiveCheckpoint =
        serde_json::from_str(&data).map_err(|e| CliError(format!("parsing {path}: {e}")))?;
    if cp.format != ADAPTIVE_FORMAT {
        return Err(CliError(format!(
            "{path}: unsupported checkpoint format {:?} (expected {ADAPTIVE_FORMAT:?})",
            cp.format
        )));
    }
    if let Some(field) = cp.binding.mismatch(expected) {
        return Err(CliError(format!(
            "{path}: checkpoint belongs to a different campaign: its {field} binding differs \
             (recorded plan: {:?})",
            cp.binding.plan
        )));
    }
    cp.state
        .validate(injector)
        .map_err(|e| CliError(format!("{path}: corrupt or foreign checkpoint: {e}")))?;
    Ok(cp.state)
}

fn adaptive(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();
    let analysis = Analysis::new(kernel.as_ref(), Classifier::new(args.tolerance));
    let injector = analysis.injector();
    let cfg = AdaptiveConfig {
        filter: args.filter,
        seed: args.seed,
        ..AdaptiveConfig::default()
    };
    let plan_desc = format!(
        "adaptive seed={} filter={} static-prior={}",
        args.seed, args.filter, args.static_prior
    );
    let masks = bit_prune_masks(args, kernel.as_ref())?;
    let mut binding = campaign_binding(args, injector, &plan_desc);
    binding.bit_prune = masks.as_ref().map(bit_prune_binding);

    let mut state = match &args.checkpoint {
        Some(path) if args.resume && Path::new(path).exists() => {
            let state = load_adaptive_checkpoint(path, &binding, injector)?;
            eprintln!(
                "[ftb adaptive] resuming from {path}: {} rounds, {} experiments done",
                state.round,
                state.samples.len()
            );
            state
        }
        _ if args.static_prior => {
            let (_, ddg) = kernel.golden_with_ddg();
            let sb = static_bound(&ddg, &ftb_core::StaticBoundConfig::new(args.tolerance))
                .map_err(|e| CliError(format!("--static-prior: {e}")))?;
            AdaptiveState::with_prior(injector, &cfg, sb.boundary())
        }
        _ => AdaptiveState::new(injector, &cfg),
    };
    // Prune certified bits from the candidate space so the round budget
    // re-weights toward Unknown bits. Idempotent, so re-applying after a
    // resume (whose checkpoint already carries the pruned space) is a
    // no-op — and the binding's bit_prune digest guarantees the masks
    // have not drifted since the checkpoint was written.
    let mut bits_pruned = 0u64;
    if let Some(masks) = &masks {
        bits_pruned = state.apply_bit_masks(masks);
    }

    let total_space = injector.n_sites() as u64 * u64::from(injector.bits());
    let mut metrics = CampaignMetrics::new(total_space);
    metrics.note_resumed(state.samples.experiments());
    let mut reporter = ftb_inject::ProgressReporter::new("ftb adaptive", Duration::from_secs(2));

    loop {
        let before = state.samples.len();
        let started = Instant::now();
        let stepped = state.step(injector).is_some();
        if stepped {
            metrics.record_chunk(&state.samples.experiments()[before..], started.elapsed());
        }
        if let Some(path) = &args.checkpoint {
            write_adaptive_checkpoint(path, &binding, &state)?;
        }
        if !stepped {
            break;
        }
        reporter.report(&metrics, state.is_done());
    }
    maybe_write_metrics(args, &metrics.snapshot())?;

    let result = state.finish(injector);
    let predictor = analysis.predictor(&result.inference.boundary);
    let overall = predictor.overall_sdc_ratio(Some(&result.samples));
    let uncertainty = analysis.uncertainty(&result.inference.boundary, &result.samples);
    maybe_write_json(args, &result)?;

    let mut out = String::new();
    let _ = writeln!(out, "rounds:             {}", result.rounds.len());
    if let Some(masks) = &masks {
        let _ = writeln!(
            out,
            "bit-prune:          {bits_pruned} certified bits removed from the sample \
             space ({} certified total)",
            masks.certified_total()
        );
    }
    let _ = writeln!(
        out,
        "experiments:        {} ({:.2}% of the exhaustive campaign)",
        result.samples.len(),
        result.samples.len() as f64 / analysis.golden().n_experiments() as f64 * 100.0
    );
    let _ = writeln!(
        out,
        "boundary coverage:  {:.1}% of sites",
        result.inference.boundary.coverage() * 100.0
    );
    let _ = writeln!(out, "predicted SDC:      {:.3}%", overall * 100.0);
    let _ = writeln!(out, "uncertainty (§3.6): {:.2}%", uncertainty * 100.0);
    if let Some(last) = result.rounds.last() {
        let _ = writeln!(
            out,
            "final round:        {} run, {} masked, {} SDC, {} candidates left",
            last.n_run, last.n_masked, last.n_sdc, last.candidates_left
        );
    }
    Ok(out)
}

fn report(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();
    let analysis = Analysis::new(kernel.as_ref(), Classifier::new(args.tolerance));
    let samples = analysis.sample_uniform(args.rate, args.seed);
    let inference = analysis.infer(&samples, args.filter);
    let predictor = analysis.predictor(&inference.boundary);
    let per_site = predictor.sdc_ratio_per_site(Some(&samples));

    let registry = kernel.registry();
    let rows = by_static_instruction(analysis.golden(), &registry, &per_site)
        .map_err(|e| CliError(e.to_string()))?;
    maybe_write_json(args, &rows)?;

    let mut table = Table::new(&["static instruction", "region", "dyn sites", "predicted SDC"]);
    for r in &rows {
        table.row(&[
            r.name.to_string(),
            r.region.label().to_string(),
            r.dynamic_sites.to_string(),
            format!("{:.2}%", r.mean * 100.0),
        ]);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-static-instruction vulnerability at {:.1}% sampling (most vulnerable first):\n",
        args.rate * 100.0
    );
    let _ = write!(out, "{}", table.render());

    let regions =
        by_region(analysis.golden(), &registry, &per_site).map_err(|e| CliError(e.to_string()))?;
    let mut rt = Table::new(&["region", "dyn sites", "predicted SDC"]);
    for r in &regions {
        rt.row(&[
            r.region.label().to_string(),
            r.dynamic_sites.to_string(),
            format!("{:.2}%", r.mean * 100.0),
        ]);
    }
    let _ = write!(out, "\nby region:\n\n{}", rt.render());
    Ok(out)
}

fn protect(args: &Args) -> Result<String, CliError> {
    let kernel = args.kernel.build();
    let analysis = Analysis::new(kernel.as_ref(), Classifier::new(args.tolerance));
    let samples = analysis.sample_uniform(args.rate, args.seed);
    let inference = analysis.infer(&samples, args.filter);
    let predictor = analysis.predictor(&inference.boundary);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "protection planning from a {:.1}% sample ({} experiments):\n",
        args.rate * 100.0,
        samples.len()
    );
    let mut table = Table::new(&["budget", "sites guarded", "predicted SDC removed"]);
    let mut last_plan = None;
    for pct in [5usize, 10, 20, 40] {
        let budget = analysis.n_sites() * pct / 100;
        let plan = ProtectionPlan::rank(&predictor, Some(&samples), budget);
        table.row(&[
            format!("{pct}%"),
            plan.sites.len().to_string(),
            format!("{:.1}%", plan.predicted_sdc_removed * 100.0),
        ]);
        last_plan = Some(plan);
    }
    let _ = write!(out, "{}", table.render());
    if let Some(plan) = last_plan {
        maybe_write_json(args, &plan)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn golden_reports_sites() {
        let args = parse(&v(&["golden", "--kernel", "matvec", "--n", "4"])).unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("dynamic instructions: 24"));
        assert!(out.contains("matvec.row"));
    }

    #[test]
    fn campaign_reports_ci() {
        let args = parse(&v(&[
            "campaign",
            "--kernel",
            "matvec",
            "--n",
            "4",
            "--samples",
            "50",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("experiments:     50"));
        assert!(out.contains("95% CI"));
    }

    #[test]
    fn exhaustive_covers_space() {
        let args = parse(&v(&["exhaustive", "--kernel", "matvec", "--n", "4"])).unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("experiments:  1536"), "{out}");
    }

    #[test]
    fn analyze_self_verifies() {
        let args = parse(&v(&[
            "analyze", "--kernel", "stencil", "--grid", "8", "--sweeps", "4", "--rate", "0.2",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("uncertainty"), "{out}");
        assert!(out.contains("boundary coverage"));
    }

    #[test]
    fn analyze_static_zero_injection_table() {
        let args = parse(&v(&[
            "analyze",
            "static",
            "--kernel",
            "gemm",
            "--n",
            "5",
            "--tolerance",
            "1e-6",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("injections used:    0"), "{out}");
        assert!(out.contains("| static"), "{out}");
        assert!(out.contains("| inferred"), "{out}");
        assert!(out.contains("golden (exhaustive)"), "{out}");
        assert!(out.contains("backward pass"), "{out}");
    }

    #[test]
    fn analyze_static_no_validate_skips_campaign() {
        let args = parse(&v(&[
            "analyze",
            "static",
            "--kernel",
            "jacobi",
            "--grid",
            "4",
            "--sweeps",
            "10",
            "--tolerance",
            "1e-4",
            "--no-validate",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("injections used:    0"), "{out}");
        assert!(
            !out.contains("| static"),
            "validation table must be absent: {out}"
        );
    }

    #[test]
    fn analyze_compose_reports_sections_and_comparison() {
        let args = parse(&v(&[
            "analyze",
            "compose",
            "--kernel",
            "jacobi",
            "--grid",
            "3",
            "--sweeps",
            "4",
            "--tolerance",
            "1e-4",
            "--rate",
            "0.4",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("per-section summary"), "{out}");
        assert!(out.contains("| composed"), "{out}");
        assert!(out.contains("| inferred"), "{out}");
        assert!(out.contains("golden (exhaustive)"), "{out}");
        assert!(out.contains("sections re-run:"), "{out}");
        assert!(out.contains("conservative:"), "{out}");
    }

    #[test]
    fn analyze_compose_incremental_reuses_sections() {
        let dir = std::env::temp_dir().join("ftb-cli-compose-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("sections.jsonl");
        let _ = std::fs::remove_file(&ledger);
        let base = [
            "analyze",
            "compose",
            "--kernel",
            "jacobi",
            "--grid",
            "3",
            "--sweeps",
            "4",
            "--tolerance",
            "1e-4",
            "--rate",
            "0.4",
            "--no-validate",
            "--checkpoint",
            ledger.to_str().unwrap(),
        ];
        let args = parse(&v(&base)).unwrap();
        let first = dispatch(&args).unwrap();
        let m = first
            .lines()
            .find(|l| l.starts_with("sections:"))
            .and_then(|l| l.split_whitespace().last())
            .unwrap()
            .to_string();
        assert!(
            first.contains(&format!("sections re-run:   {m} of {m}")),
            "{first}"
        );
        // unchanged config: everything reuses, zero injections
        let second = dispatch(&args).unwrap();
        assert!(
            second.contains(&format!("sections re-run:   0 of {m} ({m} reused")),
            "{second}"
        );
        assert!(second.contains("injections spent:  0"), "{second}");
    }

    #[test]
    fn analyze_compose_secant_accepts_assembled_csr_cg() {
        // CG over assembled-CSR storage used to be the one remaining
        // configuration without provenance instrumentation; secant mode
        // now works on it (the refusal path itself stays covered by the
        // feature-gated stub kernel in the integration tests)
        let args = parse(&v(&[
            "analyze", "compose", "--kernel", "cg", "--csr", "--grid", "4", "--secant", "--rate",
            "0.4",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("per-section summary"), "{out}");
    }

    #[test]
    fn analyze_static_accepts_assembled_csr_cg() {
        let args = parse(&v(&[
            "analyze", "static", "--kernel", "cg", "--csr", "--grid", "4",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("constrained sites:"), "{out}");
        assert!(out.contains("conservative:       100.0%"), "{out}");
    }

    #[test]
    fn analyze_bits_prints_map_and_scorecard() {
        let args = parse(&v(&[
            "analyze",
            "bits",
            "--kernel",
            "jacobi",
            "--grid",
            "4",
            "--sweeps",
            "10",
            "--tolerance",
            "1e-4",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("certified masked:"), "{out}");
        assert!(out.contains("per-instruction vulnerability map"), "{out}");
        assert!(out.contains("campaign reduction:"), "{out}");
        assert!(out.contains("violations:"), "{out}");
        assert!(
            out.contains("(sound)"),
            "certification must be conservative: {out}"
        );
    }

    #[test]
    fn analyze_bits_affine_domain_prints_tightness_scorecard() {
        let args = parse(&v(&[
            "analyze",
            "bits",
            "--kernel",
            "jacobi",
            "--grid",
            "4",
            "--sweeps",
            "10",
            "--tolerance",
            "1e-4",
            "--domain",
            "affine",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("certification source: affine"), "{out}");
        assert!(
            out.contains("domain tightness (interval vs affine):"),
            "{out}"
        );
        assert!(out.contains("influence slice:"), "{out}");
        assert!(
            out.contains("(sound)"),
            "affine certification must be conservative: {out}"
        );
        // never looser: affine certified >= interval certified
        let line = out
            .lines()
            .find(|l| l.contains("certified masked:   interval"))
            .expect("scorecard line");
        let nums: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(nums[1] >= nums[0], "affine looser than interval: {line}");
    }

    #[test]
    fn analyze_bits_no_validate_skips_scorecard() {
        let args = parse(&v(&[
            "analyze",
            "bits",
            "--kernel",
            "gemm",
            "--n",
            "4",
            "--no-validate",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("certified masked:"), "{out}");
        assert!(!out.contains("violations:"), "{out}");
    }

    #[test]
    fn analyze_bits_accepts_assembled_csr_cg() {
        let args = parse(&v(&[
            "analyze", "bits", "--kernel", "cg", "--csr", "--grid", "4",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("certified masked:"), "{out}");
    }

    #[test]
    fn analyze_characterize_reports_distribution_distance() {
        let args = parse(&v(&[
            "analyze",
            "characterize",
            "--kernel",
            "matvec",
            "--n",
            "4",
            "--threads",
            "1,2",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("per-pool outcome totals"), "{out}");
        assert!(out.contains("1 vs 2"), "{out}");
        assert!(out.contains("max TVD"), "{out}");
        assert!(
            out.contains("reproducible:  yes"),
            "campaign outcomes must not depend on worker count: {out}"
        );
    }

    #[test]
    fn analyze_characterize_json_schema() {
        let path = std::env::temp_dir().join("ftb_cli_characterize.json");
        let _ = std::fs::remove_file(&path);
        let args = parse(&v(&[
            "analyze",
            "characterize",
            "--kernel",
            "matvec",
            "--n",
            "4",
            "--threads",
            "1,2",
            "--json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args).unwrap();
        let data = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"kernel\"",
            "\"tolerance\"",
            "\"n_sites\"",
            "\"bits\"",
            "\"n_experiments\"",
            "\"thread_counts\"",
            "\"runs\"",
            "\"histograms\"",
            "\"pairs\"",
            "\"max_tvd\"",
            "\"mean_tvd\"",
            "\"deterministic\"",
        ] {
            assert!(data.contains(key), "missing key {key}");
        }
        // the artifact round-trips through its schema struct
        let r: ftb_inject::CharacterizeReport = serde_json::from_str(&data).unwrap();
        assert_eq!(r.kernel, "matvec");
        assert_eq!(r.thread_counts, vec![1, 2]);
        assert_eq!(r.runs.len(), 2);
        assert_eq!(r.pairs.len(), 1);
        assert!(r.deterministic);
        assert_eq!(r.pairs[0].max_tvd, 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_compose_json_schema() {
        // `analyze compose` writes its report in both the validated and
        // --no-validate paths; check the artifact's schema for parity
        // with `analyze static` / `analyze bits`
        let path = std::env::temp_dir().join("ftb_cli_compose.json");
        let _ = std::fs::remove_file(&path);
        let args = parse(&v(&[
            "analyze",
            "compose",
            "--kernel",
            "jacobi",
            "--grid",
            "3",
            "--sweeps",
            "4",
            "--tolerance",
            "1e-4",
            "--rate",
            "0.4",
            "--no-validate",
            "--json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args).unwrap();
        let data = std::fs::read_to_string(&path).unwrap();
        for key in ["\"kernel\"", "\"tolerance\"", "\"sections\""] {
            assert!(data.contains(key), "missing key {key}: {data}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhaustive_bit_prune_agrees_with_unpruned() {
        let base = [
            "exhaustive",
            "--kernel",
            "jacobi",
            "--grid",
            "4",
            "--sweeps",
            "10",
            "--tolerance",
            "1e-4",
        ];
        let full = dispatch(&parse(&v(&base)).unwrap()).unwrap();
        let mut pruned_args = base.to_vec();
        pruned_args.push("--bit-prune");
        let pruned = dispatch(&parse(&v(&pruned_args)).unwrap()).unwrap();
        assert!(pruned.contains("bit-prune:"), "{pruned}");
        // the certified cells are filled with Masked, so outcome counts
        // and the SDC ratio line must be identical to the full campaign
        let tail = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("outcomes:") || l.starts_with("SDC ratio:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            tail(&full),
            tail(&pruned),
            "\nfull:\n{full}\npruned:\n{pruned}"
        );
        // and the pruned campaign really ran fewer experiments
        let n = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("experiments:"))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|w| w.parse::<u64>().ok())
                .unwrap()
        };
        assert!(n(&pruned) < n(&full), "\nfull:\n{full}\npruned:\n{pruned}");
    }

    #[test]
    fn exhaustive_snapshot_agrees_with_from_scratch() {
        // the CLI's default exhaustive campaign resumes from snapshots
        // and runs lane-batched on jacobi; its table must be the
        // library's from-scratch table
        let path = std::env::temp_dir().join("ftb_cli_exhaustive_policy.json");
        let _ = std::fs::remove_file(&path);
        let args = parse(&v(&[
            "exhaustive",
            "--kernel",
            "jacobi",
            "--grid",
            "4",
            "--sweeps",
            "10",
            "--tolerance",
            "1e-4",
            "--json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("snapshots:    10 boundaries"), "{out}");
        let cli: ExhaustiveResult =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let kernel = args.kernel.build();
        let scratch = Injector::new(kernel.as_ref(), Classifier::new(1e-4));
        assert!(scratch.snapshot_store().is_none());
        assert_eq!(cli, scratch.exhaustive());
    }

    #[test]
    fn adaptive_bit_prune_runs() {
        let args = parse(&v(&[
            "adaptive",
            "--kernel",
            "jacobi",
            "--grid",
            "4",
            "--sweeps",
            "10",
            "--tolerance",
            "1e-4",
            "--bit-prune",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("bit-prune:"), "{out}");
        assert!(out.contains("rounds:"), "{out}");
    }

    #[test]
    fn analyze_static_json_schema() {
        let path = std::env::temp_dir().join("ftb_cli_static.json");
        let _ = std::fs::remove_file(&path);
        let args = parse(&v(&[
            "analyze",
            "static",
            "--kernel",
            "gemm",
            "--n",
            "5",
            "--json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args).unwrap();
        let data = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"kernel\"",
            "\"tolerance\"",
            "\"safety\"",
            "\"n_sites\"",
            "\"n_edges\"",
            "\"n_constrained\"",
            "\"n_injections_static\"",
            "\"validation\"",
            "\"comparison\"",
        ] {
            assert!(data.contains(key), "missing key {key}: {data}");
        }
        // the artifact round-trips through its schema struct
        let r: StaticAnalysisReport = serde_json::from_str(&data).unwrap();
        assert_eq!(r.n_injections_static, 0);
        assert!(r.validation.is_some());
        assert_eq!(r.comparison.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_bits_json_schema() {
        let path = std::env::temp_dir().join("ftb_cli_bits.json");
        let _ = std::fs::remove_file(&path);
        let args = parse(&v(&[
            "analyze",
            "bits",
            "--kernel",
            "jacobi",
            "--grid",
            "4",
            "--sweeps",
            "10",
            "--tolerance",
            "1e-4",
            "--json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args).unwrap();
        let data = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"kernel\"",
            "\"tolerance\"",
            "\"widen\"",
            "\"source\"",
            "\"n_sites\"",
            "\"bits\"",
            "\"n_unbounded\"",
            "\"certified_total\"",
            "\"crash_likely_total\"",
            "\"total_bits\"",
            "\"reduction_factor\"",
            "\"digest\"",
            "\"per_instruction\"",
            "\"per_site_safe_fraction\"",
            "\"crash_bands\"",
            "\"scorecard\"",
        ] {
            assert!(data.contains(key), "missing key {key}");
        }
        // the artifact round-trips through its schema struct
        let r: BitsAnalysisReport = serde_json::from_str(&data).unwrap();
        assert_eq!(r.source, "static");
        assert_eq!(r.per_site_safe_fraction.len(), r.n_sites);
        assert_eq!(r.crash_bands.len(), r.n_sites);
        let sc = r
            .scorecard
            .expect("scorecard present without --no-validate");
        assert_eq!(sc.violations, 0, "certification must be conservative");
        assert!(sc.certified_recall > 0.0, "some masked bits must certify");
        assert!(r.certified_total > 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Interval and affine certification of jacobi and gemm, with the
    /// CLI flags that select each.
    fn certify_cases() -> Vec<(Vec<&'static str>, Domain)> {
        let kernels: [&[&str]; 2] = [
            &[
                "--kernel",
                "jacobi",
                "--grid",
                "4",
                "--sweeps",
                "10",
                "--tolerance",
                "1e-4",
            ],
            &["--kernel", "gemm", "--n", "5", "--tolerance", "1e-6"],
        ];
        let mut cases = Vec::new();
        for k in kernels {
            cases.push((k.to_vec(), Domain::Interval));
            let mut affine = k.to_vec();
            affine.extend(["--domain", "affine", "--budget", "8"]);
            cases.push((affine, Domain::Affine { budget: 8 }));
        }
        cases
    }

    fn certify_directly(args: &Args, domain: Domain) -> Certification {
        assert_eq!(args.domain, domain);
        let (golden, ddg) = args.kernel.build().golden_with_ddg();
        let cfg = CertifyConfig {
            tolerance: args.tolerance,
            safety: 1.0,
            widen: 0.0,
            domain,
            targets: None,
        };
        certify_bits(&golden, &ddg, &cfg).unwrap()
    }

    #[test]
    fn analyze_bits_json_digest_is_the_certify_bits_digest() {
        let path = std::env::temp_dir().join("ftb_cli_bits_digest.json");
        for (flags, domain) in certify_cases() {
            let _ = std::fs::remove_file(&path);
            let mut raw = vec!["analyze", "bits", "--no-validate", "--json"];
            raw.push(path.to_str().unwrap());
            raw.extend(&flags);
            let args = parse(&v(&raw)).unwrap();
            dispatch(&args).unwrap();
            let r: BitsAnalysisReport =
                serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
            let c = certify_directly(&args, domain);
            assert_eq!(r.digest, c.masks.digest(), "{flags:?}");
            assert_eq!(r.certified_total, c.masks.certified_total(), "{flags:?}");
            assert_eq!(r.source, domain.to_string(), "{flags:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhaustive_bit_prune_ledger_binds_the_certify_bits_masks() {
        let path = std::env::temp_dir().join("ftb_cli_bit_prune_binding.jsonl");
        for (flags, domain) in certify_cases() {
            let _ = std::fs::remove_file(&path);
            let mut raw = vec!["exhaustive", "--bit-prune", "--checkpoint"];
            raw.push(path.to_str().unwrap());
            raw.extend(&flags);
            let args = parse(&v(&raw)).unwrap();
            dispatch(&args).unwrap();
            let ledger = ftb_inject::read_ledger(&path).unwrap();
            let masks = certify_directly(&args, domain).masks;
            let expected = BitPruneBinding {
                certified: masks.certified_total(),
                digest: masks.digest(),
            };
            assert_eq!(ledger.header.binding.bit_prune, Some(expected), "{flags:?}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn adaptive_accepts_static_prior() {
        let args = parse(&v(&[
            "adaptive",
            "--kernel",
            "jacobi",
            "--grid",
            "4",
            "--sweeps",
            "10",
            "--tolerance",
            "1e-4",
            "--static-prior",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("rounds:"), "{out}");
    }

    #[test]
    fn adaptive_runs_rounds() {
        let args = parse(&v(&["adaptive", "--kernel", "matvec", "--n", "6"])).unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("rounds:"), "{out}");
    }

    #[test]
    fn bad_filter_rejected() {
        let e = parse(&v(&[
            "analyze", "--kernel", "matvec", "--n", "4", "--filter", "sideways",
        ]))
        .unwrap_err();
        assert!(e.0.contains("unknown filter mode 'sideways'"), "{}", e.0);
    }

    #[test]
    fn report_lists_static_instructions() {
        let args = parse(&v(&[
            "report", "--kernel", "stencil", "--grid", "8", "--sweeps", "3", "--rate", "0.2",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("stencil.sweep"), "{out}");
        assert!(out.contains("by region"), "{out}");
    }

    #[test]
    fn protect_prints_budget_ladder() {
        let args = parse(&v(&[
            "protect", "--kernel", "matvec", "--n", "6", "--rate", "0.3",
        ]))
        .unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("predicted SDC removed"), "{out}");
        assert!(out.contains("40%"), "{out}");
    }

    #[test]
    fn new_kernels_reachable_from_cli() {
        for kernel in ["spmv", "jacobi"] {
            let args = parse(&v(&["golden", "--kernel", kernel])).unwrap();
            let out = dispatch(&args).unwrap();
            assert!(out.contains("dynamic instructions"), "{kernel}: {out}");
        }
        let args = parse(&v(&["golden", "--kernel", "cg", "--csr", "--grid", "4"])).unwrap();
        let out = dispatch(&args).unwrap();
        assert!(out.contains("cg.init.matrix"), "{out}");
    }

    #[test]
    fn json_output_written() {
        let path = std::env::temp_dir().join("ftb_cli_test.json");
        let _ = std::fs::remove_file(&path);
        let args = parse(&v(&[
            "campaign",
            "--kernel",
            "matvec",
            "--n",
            "4",
            "--samples",
            "20",
            "--json",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&args).unwrap();
        let data = std::fs::read_to_string(&path).unwrap();
        assert!(data.contains("sdc_ci"));
        let _ = std::fs::remove_file(&path);
    }
}
