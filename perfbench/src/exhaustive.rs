//! `exhaustive-jacobi`: `ftb exhaustive --snapshot --batch-lanes 16` on
//! paper-scale Jacobi, over every `STRIDE`-th site, all 32 bits, through
//! `ChunkedCampaign` with 256-experiment chunks into a fresh ledger. The
//! seed drives the kernel's input.
//!
//! The sites are fixed (the legacy report's stride plan). A seed-chosen
//! offset was tried: it changes which instruction kinds the 17 sites land
//! on, and with them how early experiments exit, so campaign time spread
//! by about a quarter across seeds — more than the host's own noise.

use crate::spans::{max, median, Spans};
use crate::verify::{faults, precision_recall, recheck, spread};
use crate::{build_injector, throwaway_setups, timed, Ctx, Report};
use ftb_inject::{
    read_ledger, schedule_snapshot_major, CampaignBinding, ChunkedCampaign, Experiment, Injector,
    LedgerHeader, LedgerWriter,
};
use ftb_kernels::{JacobiConfig, KernelConfig};
use ftb_trace::{FaultSpec, Precision};
use std::path::Path;
use std::time::Instant;

const STRIDE: usize = 614_000;
/// Sampled sites: `0, STRIDE, …, 16 × STRIDE`.
const SITES: usize = 17;
const CHUNK: usize = 256;
const LANES: usize = 16;
const TOLERANCE: f64 = 1e-3;
/// Faults re-run through the from-scratch scalar oracle.
const ORACLE_FAULTS: usize = 8;
/// Faults run through the three injector configurations (traced run).
const PATH_FAULTS: usize = 32;

fn binding(cfg: &KernelConfig, injector: &Injector<'_>) -> CampaignBinding {
    CampaignBinding {
        kernel: cfg.clone(),
        classifier: *injector.classifier(),
        n_sites: injector.n_sites(),
        bits: injector.bits(),
        plan: format!("exhaustive stride={STRIDE} sites={SITES}"),
        bit_prune: None,
        snapshot: injector.snapshot_store().map(|s| s.binding()),
        batch: injector.batch_binding(),
    }
}

/// The CLI's path: `ChunkedCampaign` with a fresh ledger.
fn campaign(
    injector: &Injector<'_>,
    plan: &[FaultSpec],
    ledger: &Path,
    binding: CampaignBinding,
) -> Result<Vec<Experiment>, String> {
    let mut cc = ChunkedCampaign::new(injector, plan.to_vec(), CHUNK)
        .with_ledger(ledger, binding, false)
        .map_err(|e| format!("ledger: {e}"))?;
    cc.run_to_completion()
        .map_err(|e| format!("campaign: {e}"))?;
    Ok(cc.into_experiments())
}

/// The same chunk loop as `ChunkedCampaign::step`, with a span around
/// each layer call.
fn traced_campaign(
    sp: &Spans,
    injector: &Injector<'_>,
    plan: &[FaultSpec],
    ledger: &Path,
    binding: CampaignBinding,
) -> Result<Vec<Experiment>, String> {
    let mut writer = LedgerWriter::create(ledger, &LedgerHeader::new(binding))
        .map_err(|e| format!("ledger: {e}"))?;
    let mut done = Vec::with_capacity(plan.len());
    for chunk in plan.chunks(CHUNK) {
        let exps = sp.span("inject.campaign.run_batch", || injector.run_batch(chunk));
        sp.span("inject.ledger.append", || writer.append_chunk(&exps))
            .map_err(|e| format!("ledger: {e}"))?;
        done.extend(exps);
    }
    Ok(done)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let sp = &ctx.spans;
    let cfg = KernelConfig::Jacobi(JacobiConfig {
        grid: 128,
        sweeps: 600,
        precision: Precision::F32,
        seed: ctx.derive(1),
        fine_grained: false,
        residual_every: 8,
        tweak: None,
    });

    let mut setups = throwaway_setups(ctx, &cfg, TOLERANCE, true, LANES);
    let t = Instant::now();
    let kernel = sp.span("run", || sp.span("kernels.build", || cfg.build()));
    let injector = sp.span("run", || {
        build_injector(sp, kernel.as_ref(), TOLERANCE, true, LANES)
    });
    setups.push(t.elapsed().as_secs_f64());
    r.set("setup_s", median(&setups));

    let store = injector
        .snapshot_store()
        .ok_or("jacobi is snapshot-capable, but no snapshot store was captured")?;
    let bits = injector.bits();
    let site_plan: Vec<FaultSpec> = (0..SITES)
        .flat_map(|k| {
            let site = k * STRIDE;
            (0..bits).map(move |bit| FaultSpec { site, bit })
        })
        .collect();
    if site_plan.iter().any(|f| f.site >= injector.n_sites()) {
        return Err("sampled site past the end of the run".into());
    }
    let plan = schedule_snapshot_major(&site_plan, store);
    let ledger = ctx.out.join(format!("exhaustive-seed{}.jsonl", ctx.seed));
    let bind = || binding(&cfg, &injector);

    // Timed, untraced campaigns; every repeat must give the same table.
    let (campaign_s, experiments) = timed(
        ctx,
        &mut r,
        || campaign(&injector, &plan, &ledger, bind()),
        |a, b| a == b,
    )?;
    r.set("boundary_s", campaign_s);
    r.set("campaign_eps", plan.len() as f64 / campaign_s);

    // Verification: the ledger holds exactly the experiments run ...
    match read_ledger(&ledger) {
        Ok(rec) => r.check(rec.experiments == experiments, || {
            "ledger read-back differs from the experiments run".into()
        }),
        Err(e) => r.check(false, || format!("read_ledger: {e}")),
    }
    // ... and a fixed subsample matches the from-scratch scalar oracle.
    let rechecked = recheck(&injector, &experiments, ORACLE_FAULTS);
    for (e, o) in &rechecked {
        r.check(e.outcome == *o, || {
            format!(
                "({}, {}) campaign {:?} vs oracle {o:?}",
                e.site, e.bit, e.outcome
            )
        });
    }
    let (p, rc) = precision_recall(
        rechecked
            .iter()
            .map(|(e, o)| (e.outcome.is_masked(), o.is_masked())),
    );
    r.set("boundary_precision", p);
    r.set("boundary_recall", rc);

    let masked = experiments.iter().filter(|e| e.outcome.is_masked()).count();
    let sdc = experiments.iter().filter(|e| e.outcome.is_sdc()).count();
    r.exact("injections", plan.len() as f64);
    r.exact("masked", masked as f64);
    r.exact("sdc", sdc as f64);
    r.exact("boundary_precision", p);
    r.exact("boundary_recall", rc);

    if !ctx.trace {
        return Ok(r);
    }

    // Traced run of the same campaign.
    let t = Instant::now();
    let traced = sp.span("run", || {
        traced_campaign(sp, &injector, &plan, &ledger, bind())
    })?;
    let traced_s = t.elapsed().as_secs_f64();
    r.check(traced == experiments, || "traced campaign disagrees".into());
    r.set("run.traced_s", sp.total("run"));
    r.set("run.unattributed_s", sp.self_total("run"));
    r.set("run.tracing_overhead_s", traced_s - campaign_s);

    r.set("kernels.build_s", sp.total("kernels.build"));
    r.set("kernels.golden_s", sp.total("kernels.golden"));
    r.set("kernels.dyn_instructions", injector.n_sites() as f64);
    r.set("trace.compact_s", sp.total("trace.compact"));
    r.set(
        "trace.compact_mb",
        injector.compact_golden().memory_bytes() as f64 / 1e6,
    );
    r.set(
        "inject.snapshot.capture_s",
        sp.total("inject.snapshot.capture"),
    );
    r.set("inject.snapshot.count", store.len() as f64);
    r.set("inject.snapshot.store_mb", store.store_bytes() as f64 / 1e6);
    let served = plan
        .iter()
        .filter(|f| store.for_site(f.site).is_some())
        .count();
    r.set(
        "inject.snapshot.served_frac",
        served as f64 / plan.len() as f64,
    );
    let chunks = sp.durations("inject.campaign.run_batch");
    r.set("inject.campaign.run_batch_s", median(&chunks));
    r.set("inject.campaign.run_batch_max_s", max(&chunks));
    r.set("inject.campaign.run_batch_count", chunks.len() as f64);
    r.set("inject.campaign.masked", masked as f64);
    r.set("inject.campaign.sdc", sdc as f64);
    r.set(
        "inject.campaign.crash",
        (experiments.len() - masked - sdc) as f64,
    );
    r.set("inject.campaign.injections", plan.len() as f64);
    r.set("inject.ledger.append_s", sp.total("inject.ledger.append"));
    let ledger_bytes = std::fs::metadata(&ledger).map_err(|e| e.to_string())?.len();
    r.set("inject.ledger.mb", ledger_bytes as f64 / 1e6);

    // Attribution: one fixed subsample through three injector
    // configurations, to show what batching and snapshot resume buy.
    let expected: Vec<Experiment> = spread(experiments.len(), PATH_FAULTS)
        .into_iter()
        .map(|i| experiments[i])
        .collect();
    let sub = faults(&expected);
    let path_eps = |name: &'static str, inj: &Injector<'_>, r: &mut Report| {
        let t = Instant::now();
        let got = sp.span(name, || inj.run_batch(&sub));
        r.set(name, sub.len() as f64 / t.elapsed().as_secs_f64());
        let same = got == expected;
        r.check(same, || {
            format!("{name} subsample disagrees with the campaign")
        });
    };
    path_eps("inject.campaign.batch_eps", &injector, &mut r);
    let single = injector.with_batch_lanes(1);
    path_eps("inject.campaign.snapshot_eps", &single, &mut r);
    let scratch = Injector::with_golden(
        kernel.as_ref(),
        single.golden().clone(),
        *single.classifier(),
    );
    path_eps("inject.campaign.scratch_eps", &scratch, &mut r);
    Ok(r)
}
