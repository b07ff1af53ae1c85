//! `certify-lu`: `ftb analyze bits --domain affine --no-validate` on
//! blocked LU — the interval masks (`static_bound`, `forward_pass`,
//! `safe_bit_masks`) and the affine masks (`affine_bound`,
//! `affine_forward`, `safe_bit_masks`) over every site.
//!
//! The kernel's input is fixed (the CLI's default seed, 42): how long the
//! affine sweep takes depends on the matrix, and with a seed-driven input
//! certification time spread by about a fifth across seeds, against about
//! 7% for repeated runs of one input. The seed drives the validation plan.

use crate::spans::{median, Spans};
use crate::verify::{oracle, precision_recall, spread};
use crate::{build_injector, throwaway_setups, timed, Ctx, Report};
use ftb_core::{
    affine_bound, affine_forward, forward_pass, influence_slice, safe_bit_masks, static_bound,
    AffineBound, AffineConfig, BitClass, BitMasks, ForwardConfig, MaskSource, StaticBoundConfig,
};
use ftb_inject::{monte_carlo_plan, Outcome};
use ftb_kernels::{Kernel, KernelConfig, LuConfig};
use ftb_trace::{FaultSpec, Precision};
use std::time::Instant;

const N: usize = 48;
const BLOCK: usize = 8;
const TOLERANCE: f64 = 3e-5;
/// CLI defaults of `--safety`, `--widen` and `--budget`.
const SAFETY: f64 = 1.0;
const WIDEN: f64 = 0.0;
const BUDGET: usize = 32;
/// Certified-masked bits injected in the verification phase.
const RECHECK: usize = 200;
/// Faults in the held-out validation campaign, run through `run_many` in
/// chunks of `VALIDATION_CHUNK`. An LU run takes about 0.1 ms, so the
/// campaign is larger than the other workloads' 2,000 faults, and its rate
/// is the median over chunks: one `run_many` call waits for its slowest
/// worker, and on a shared host single calls vary widely.
const VALIDATION: u64 = 16_000;
const VALIDATION_CHUNK: usize = 1_000;

struct Certified {
    interval: BitMasks,
    affine: BitMasks,
    bound: AffineBound,
    ddg_edges: usize,
}

/// `analyze bits --domain affine`, with a span around each layer call.
fn certify(sp: &Spans, kernel: &dyn Kernel) -> Result<Certified, String> {
    let (golden, ddg) = sp.span("kernels.golden_ddg", || kernel.golden_with_ddg());
    let scfg = StaticBoundConfig {
        tolerance: TOLERANCE,
        safety: SAFETY,
    };
    let fcfg = ForwardConfig { widen: WIDEN };
    let acfg = AffineConfig { budget: BUDGET };
    let sb = sp
        .span("core.staticbound.backward", || static_bound(&ddg, &scfg))
        .map_err(|e| format!("static_bound: {e}"))?;
    let fw = sp
        .span("core.absint.forward_interval", || {
            forward_pass(&ddg, &golden, &fcfg)
        })
        .map_err(|e| format!("forward_pass: {e}"))?;
    let interval = sp.span("core.absint.masks", || {
        safe_bit_masks(&fw, &sb.boundary(), MaskSource::Static)
    });
    let bound = sp
        .span("core.absint.affine_bound", || {
            affine_bound(&ddg, TOLERANCE, SAFETY, &acfg, None)
        })
        .map_err(|e| format!("affine_bound: {e}"))?;
    let fwa = sp
        .span("core.absint.affine_forward", || {
            affine_forward(&ddg, &golden, &fcfg, &acfg)
        })
        .map_err(|e| format!("affine_forward: {e}"))?;
    let affine = sp.span("core.absint.masks", || {
        safe_bit_masks(&fwa, &bound.boundary(), MaskSource::Affine)
    });
    Ok(Certified {
        interval,
        affine,
        bound,
        ddg_edges: ddg.n_edges(),
    })
}

fn frac(m: &BitMasks) -> f64 {
    m.certified_total() as f64 / m.total_bits() as f64
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut r = Report::default();
    let sp = &ctx.spans;
    let cfg = KernelConfig::Lu(LuConfig {
        n: N,
        block: BLOCK,
        precision: Precision::F64,
        seed: 42,
    });

    let mut setups = throwaway_setups(ctx, &cfg, TOLERANCE, false, 1);
    let t = Instant::now();
    let kernel = sp.span("run", || sp.span("kernels.build", || cfg.build()));
    let injector = sp.span("run", || {
        build_injector(sp, kernel.as_ref(), TOLERANCE, false, 1)
    });
    setups.push(t.elapsed().as_secs_f64());
    r.set("setup_s", median(&setups));

    // Timed, untraced certification; every repeat must certify the same bits.
    let off = Spans::new(false);
    let (certify_s, c) = timed(
        ctx,
        &mut r,
        || certify(&off, kernel.as_ref()),
        |a, b| a.affine.digest() == b.affine.digest() && a.interval.digest() == b.interval.digest(),
    )?;
    r.set("boundary_s", certify_s);
    let certified = frac(&c.affine);
    let certified_interval = frac(&c.interval);
    r.exact("certified_frac", certified);
    r.exact("certified_frac_interval", certified_interval);

    // Held-out truth: CertifiedMasked must never be SDC or Crash
    // (precision 1); recall is the share of masked faults certified.
    let plan = monte_carlo_plan(
        injector.n_sites(),
        injector.bits(),
        VALIDATION,
        ctx.derive(3),
    );
    let mut truth = Vec::with_capacity(plan.len());
    let mut rates = Vec::new();
    for chunk in plan.chunks(VALIDATION_CHUNK) {
        let t = Instant::now();
        truth.extend(injector.run_many(chunk));
        rates.push(chunk.len() as f64 / t.elapsed().as_secs_f64());
    }
    r.set("campaign_eps", median(&rates));
    let is_certified =
        |site: usize, bit: u8| c.affine.class(site, bit) == BitClass::CertifiedMasked;
    for e in truth.iter().filter(|e| is_certified(e.site, e.bit)) {
        r.check(e.outcome.is_masked(), || {
            format!(
                "held-out ({}, {}) certified but {:?}",
                e.site, e.bit, e.outcome
            )
        });
    }
    let (p, rc) = precision_recall(
        truth
            .iter()
            .map(|e| (is_certified(e.site, e.bit), e.outcome.is_masked())),
    );
    r.set("boundary_precision", p);
    r.set("boundary_recall", rc);
    r.exact("boundary_precision", p);
    r.exact("boundary_recall", rc);

    // Verification: a fixed sample of certified bits, injected from scratch.
    let certified_bits: Vec<FaultSpec> = c
        .affine
        .certified_masks()
        .iter()
        .enumerate()
        .flat_map(|(site, &m)| {
            (0..64u8)
                .filter(move |b| m >> b & 1 == 1)
                .map(move |bit| FaultSpec { site, bit })
        })
        .collect();
    let sample: Vec<FaultSpec> = spread(certified_bits.len(), RECHECK)
        .into_iter()
        .map(|i| certified_bits[i])
        .collect();
    for (f, o) in sample.iter().zip(oracle(&injector, &sample)) {
        r.check(o == Outcome::Masked, || {
            format!("certified ({}, {}) injected as {o:?}", f.site, f.bit)
        });
    }

    if !ctx.trace {
        return Ok(r);
    }

    let t = Instant::now();
    let traced = sp.span("run", || certify(sp, kernel.as_ref()))?;
    let traced_s = t.elapsed().as_secs_f64();
    r.check(traced.affine.digest() == c.affine.digest(), || {
        "traced certification disagrees".into()
    });
    r.set("run.traced_s", sp.total("run"));
    r.set("run.unattributed_s", sp.self_total("run"));
    r.set("run.tracing_overhead_s", traced_s - certify_s);

    // Attribution replay: `affine_bound` runs the backward pass and the
    // influence slice before its sweep; time the slice on its own.
    let (_, ddg) = kernel.golden_with_ddg();
    sp.span("core.absint.slice", || {
        std::hint::black_box(influence_slice(&ddg))
    });
    let backward = sp.total("core.staticbound.backward");
    let slice = sp.total("core.absint.slice");
    let affine_bound_s = sp.total("core.absint.affine_bound");
    r.set("kernels.build_s", sp.total("kernels.build"));
    r.set("kernels.golden_s", sp.total("kernels.golden"));
    r.set("kernels.golden_ddg_s", sp.total("kernels.golden_ddg"));
    r.set("kernels.dyn_instructions", injector.n_sites() as f64);
    r.set("trace.compact_s", sp.total("trace.compact"));
    r.set(
        "trace.compact_mb",
        injector.compact_golden().memory_bytes() as f64 / 1e6,
    );
    r.set("trace.ddg_edges", c.ddg_edges as f64);
    r.set("core.staticbound.backward_s", backward);
    r.set(
        "core.absint.forward_interval_s",
        sp.total("core.absint.forward_interval"),
    );
    r.set("core.absint.masks_s", sp.total("core.absint.masks"));
    r.set(
        "core.absint.affine_forward_s",
        sp.total("core.absint.affine_forward"),
    );
    r.set("core.absint.slice_s", slice);
    r.set("core.absint.dead_sites", c.bound.n_dead as f64);
    r.set("core.absint.affine_bound_s", affine_bound_s);
    r.set(
        "core.absint.affine_sweep_self_s",
        affine_bound_s - backward - slice,
    );
    r.set("core.absint.swept_sites", c.bound.n_swept as f64);
    r.set("core.absint.tightened_sites", c.bound.n_tightened as f64);
    r.set("core.absint.certified_frac", certified);
    r.set("core.absint.certified_frac_interval", certified_interval);
    Ok(r)
}
