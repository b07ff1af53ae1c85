//! `compose-cg`: `ftb analyze compose` on CG (grid 8, F32, tolerance 0.1)
//! with the library's `ComposeConfig::new` defaults (rate 0.35, at most 32
//! sections) and no ledger. The workload seed drives the section sampling
//! seed and the held-out plan.
//!
//! The kernel's input is fixed (the CLI's default seed, 42). With a
//! seed-driven input, CG's iteration count moved the number of sections
//! (18 to 20) and of injections (±5%), and analysis time spread by about
//! 10% across seeds, against about 5% for the injection rate.

use crate::spans::{max, median, Spans};
use crate::verify::score_boundary;
use crate::{build_injector, throwaway_setups, timed, Ctx, Report};
use ftb_core::{
    compose_analysis, compose_thresholds, ComposeConfig, ComposeParams, ComposeResult, SectionDag,
};
use ftb_inject::{run_section_campaign, Injector, SectionCampaignConfig};
use ftb_kernels::{CgConfig, CgStorage, Kernel, KernelConfig};
use ftb_trace::Precision;
use std::time::Instant;

const GRID: usize = 8;
const TOLERANCE: f64 = 0.1;

fn analyze(
    sp: &Spans,
    kernel: &dyn Kernel,
    cfg: &KernelConfig,
    injector: &Injector<'_>,
    ccfg: &ComposeConfig,
) -> Result<ComposeResult, String> {
    sp.span("core.compose.analysis", || {
        compose_analysis(kernel, cfg, injector, ccfg, None)
    })
    .map_err(|e| format!("compose_analysis: {e}"))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let sp = &ctx.spans;
    let grid = GRID;
    let cfg = KernelConfig::Cg(CgConfig {
        grid,
        rtol: 1e-4,
        max_iters: 4 * grid * grid,
        precision: Precision::F32,
        seed: 42,
        storage: CgStorage::MatrixFree,
    });
    let ccfg = ComposeConfig {
        seed: ctx.derive(2),
        ..ComposeConfig::new(TOLERANCE)
    };

    let mut setups = throwaway_setups(ctx, &cfg, TOLERANCE, false, 1);
    let t = Instant::now();
    let kernel = sp.span("run", || sp.span("kernels.build", || cfg.build()));
    let injector = sp.span("run", || {
        build_injector(sp, kernel.as_ref(), TOLERANCE, false, 1)
    });
    setups.push(t.elapsed().as_secs_f64());
    r.set("setup_s", median(&setups));

    // Timed, untraced analyses; every repeat must compose the same boundary.
    let off = Spans::new(false);
    let (boundary_s, res) = timed(
        ctx,
        &mut r,
        || analyze(&off, kernel.as_ref(), &cfg, &injector, &ccfg),
        |a, b| a.summaries == b.summaries && a.boundary == b.boundary,
    )?;
    r.set("boundary_s", boundary_s);
    r.set("campaign_eps", res.n_experiments as f64 / boundary_s);

    let (p, rc) = score_boundary(&injector, &res.boundary, ctx.derive(3));
    r.set("boundary_precision", p);
    r.set("boundary_recall", rc);
    r.exact("injections", res.n_experiments as f64);
    r.exact("sections", res.map.n_sections() as f64);
    r.exact("boundary_precision", p);
    r.exact("boundary_recall", rc);

    // The traced analysis runs before the section replay, so that the
    // replay it is compared with runs right after it.
    if ctx.trace {
        let t = Instant::now();
        let traced = sp.span("run", || {
            analyze(sp, kernel.as_ref(), &cfg, &injector, &ccfg)
        })?;
        let traced_s = t.elapsed().as_secs_f64();
        r.check(traced.boundary == res.boundary, || {
            "traced analysis disagrees".into()
        });
        r.set("run.traced_s", sp.total("run"));
        r.set("run.unattributed_s", sp.self_total("run"));
        r.set("run.tracing_overhead_s", traced_s - boundary_s);
    }

    // Verification: each section campaign, replayed on its own, must
    // reproduce the summary the analysis composed.
    let registry = kernel.registry();
    let scfg = SectionCampaignConfig::new(ccfg.rate, ccfg.seed);
    for (t, want) in res.summaries.iter().enumerate() {
        let got = sp.span("inject.sections.campaign", || {
            run_section_campaign(&injector, &registry, &res.map, t, &scfg)
        });
        r.check(&got.summary == want, || {
            format!("section {t} replay differs")
        });
    }

    if !ctx.trace {
        return Ok(r);
    }

    // Attribution replay: the fold over the result's summaries.
    let params = ComposeParams {
        tolerance: ccfg.tolerance,
        safety: ccfg.safety,
        extrapolate: ccfg.extrapolate,
    };
    let dag = SectionDag::chain(res.map.n_sections());
    sp.span("core.compose.fold", || {
        std::hint::black_box(compose_thresholds(
            &res.summaries,
            &dag,
            injector.n_sites(),
            &params,
        ))
    });
    let sections = sp.durations("inject.sections.campaign");
    let analysis_s = sp.total("core.compose.analysis");
    let fold_s = sp.total("core.compose.fold");
    r.set("core.compose.analysis_s", analysis_s);
    r.set("core.compose.fold_s", fold_s);
    r.set(
        "core.compose.self_s",
        analysis_s - sections.iter().sum::<f64>() - fold_s,
    );
    r.set("inject.sections.campaign_s", median(&sections));
    r.set("inject.sections.campaign_max_s", max(&sections));
    r.set("inject.sections.count", sections.len() as f64);
    r.set("inject.sections.injections", res.n_experiments as f64);
    r.set("inject.campaign.injections", res.n_experiments as f64);
    r.set("kernels.build_s", sp.total("kernels.build"));
    r.set("kernels.golden_s", sp.total("kernels.golden"));
    r.set("kernels.dyn_instructions", injector.n_sites() as f64);
    r.set("trace.compact_s", sp.total("trace.compact"));
    r.set(
        "trace.compact_mb",
        injector.compact_golden().memory_bytes() as f64 / 1e6,
    );
    Ok(r)
}
