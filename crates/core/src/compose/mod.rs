//! Compositional boundary analysis: per-section campaigns composed into
//! a whole-program fault tolerance boundary, with incremental
//! re-analysis.
//!
//! The monolithic pipeline ([`infer_boundary`](crate::infer_boundary))
//! treats the program as one opaque block: any code edit invalidates the
//! whole campaign. This module segments the golden run into **sections**
//! (initialization, each sweep/iteration phase — see
//! [`ftb_trace::SectionMap`]), runs an independent injection campaign
//! per section ([`ftb_inject::run_section_campaign`]), fits each section
//! an empirical **error-transfer summary**, and composes the summaries
//! end-to-end with a backward sweep ([`backward`]) that mirrors the
//! static analyzer's budget propagation — except every number in the
//! summary is a measured whole-program observation, not a model.
//!
//! The payoff is **incremental re-analysis** ([`incremental`]): section
//! campaigns are persisted in a content-addressed ledger
//! (`ftb-sections-v1`), keyed by a signature over the section's
//! static-instruction stream and the kernel's
//! [`code_version`](ftb_kernels::Kernel::code_version) stamp. After a
//! localized code edit only the sections whose signatures changed
//! re-run; the composed boundary is rebuilt from the mixed
//! (reused + fresh) summaries at full quality.
//!
//! Soundness caveats are inherited from both parents: like the inferred
//! boundary, transfer summaries are sampled observations (a secant
//! amplification can under-estimate the true worst case between probe
//! magnitudes); like the static bound, the backward sweep assumes
//! per-section worst cases compose (they multiply, which over-estimates
//! — conservative — whenever errors partially cancel across sections).
//! The optional [`ComposeConfig::secant`] mode additionally folds the
//! provenance DDG's per-section amplification bound into the transfer
//! summaries, tightening budgets against under-sampled inlets. The
//! bound rides the affine domain
//! ([`affine_section_amp`](crate::absint::affine_section_amp)): signed
//! reconverging paths cancel before the raise, so the model
//! conservatism costs as little certified threshold as possible, and
//! the same affine per-site bounds raise the `static_amp` priors that
//! extrapolate unsampled sites.

pub mod backward;
pub mod incremental;

pub use backward::{compose_thresholds, ComposeParams, Composed, SectionDag};
pub use incremental::{plan_incremental, IncrementalPlan};

use crate::boundary::Boundary;
use ftb_inject::{
    create_section_ledger, read_section_ledger, run_section_campaign, CampaignBinding, Injector,
    LedgerError, SectionCampaign, SectionCampaignConfig, SectionRecord, SectionSummary,
};
use ftb_kernels::{Kernel, KernelConfig};
use ftb_trace::{Ddg, SectionMap};
use std::path::Path;

/// Configuration of a compositional analysis run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComposeConfig {
    /// Output tolerance `T` (must match the injector's classifier for
    /// the composed thresholds to be meaningful).
    pub tolerance: f64,
    /// Per-section site sampling rate in `(0, 1]`.
    pub rate: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Safety margin dividing extrapolated thresholds (`≥ 1`).
    pub safety: f64,
    /// Extrapolate beyond locally-certified folds using the backward
    /// budgets (on by default; off degenerates to per-section folds).
    pub extrapolate: bool,
    /// Upper bound on the number of sections (phases beyond it coalesce).
    pub max_sections: usize,
    /// Fold the provenance DDG's per-section secant amplification bound
    /// into the transfer summaries (requires an instrumented kernel).
    pub secant: bool,
}

impl ComposeConfig {
    /// Defaults at tolerance `T`: 35% sampling, extrapolation on, no
    /// extra safety margin, at most 32 sections, no DDG tightening.
    pub fn new(tolerance: f64) -> Self {
        ComposeConfig {
            tolerance,
            rate: 0.35,
            seed: 0x5ec7,
            safety: 1.0,
            extrapolate: true,
            max_sections: 32,
            secant: false,
        }
    }
}

/// Why a compositional analysis could not run.
#[derive(Debug)]
pub enum ComposeError {
    /// The tolerance is not a positive finite number.
    BadTolerance(f64),
    /// The sampling rate is outside `(0, 1]`.
    BadRate(f64),
    /// Secant mode was requested but the kernel's `run` carries no
    /// provenance instrumentation, so no DDG amplification bound exists.
    NotInstrumented,
    /// The section ledger exists but could not be read.
    Ledger(LedgerError),
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeError::BadTolerance(t) => {
                write!(f, "tolerance must be positive and finite, got {t}")
            }
            ComposeError::BadRate(r) => write!(f, "sampling rate must be in (0, 1], got {r}"),
            ComposeError::NotInstrumented => write!(
                f,
                "secant mode needs a provenance-instrumented kernel: the \
                 recorded dependence graph has no output or branch sinks \
                 (all eight built-in kernels are instrumented, including \
                 cg over assembled CSR; only the test-only `stub` \
                 kernel triggers this refusal)"
            ),
            ComposeError::Ledger(e) => write!(f, "section ledger: {e}"),
        }
    }
}

impl std::error::Error for ComposeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ComposeError::Ledger(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LedgerError> for ComposeError {
    fn from(e: LedgerError) -> Self {
        ComposeError::Ledger(e)
    }
}

/// Everything a compositional analysis produced.
#[derive(Debug)]
pub struct ComposeResult {
    /// The composed whole-program boundary.
    pub boundary: Boundary,
    /// The segmentation the analysis ran under.
    pub map: SectionMap,
    /// Per-section transfer summaries, index order (reused + fresh).
    pub summaries: Vec<SectionSummary>,
    /// Per-section content signatures.
    pub signatures: Vec<u64>,
    /// Per-section backward error budgets.
    pub budgets: Vec<f64>,
    /// Per-site extrapolation flags (threshold rests on a budget, not a
    /// direct local observation).
    pub extrapolated: Vec<bool>,
    /// Sections whose campaigns ran this invocation, ascending.
    pub reran: Vec<usize>,
    /// Sections reused verbatim from the prior ledger, ascending.
    pub reused: Vec<usize>,
    /// The fresh campaigns, indexed by section (`None` where reused).
    pub campaigns: Vec<Option<SectionCampaign>>,
    /// Kernel executions spent this invocation (reused sections cost 0).
    pub n_experiments: u64,
}

/// Largest product of secant edge amplifications along any dependence
/// path from a def *before* `lo` to a frontier site of `[lo, hi)` — the
/// DDG's bound on how hard an inlet error can hit this section's output
/// frontier. Edges are topologically ordered by use site, so one
/// forward pass suffices.
fn ddg_section_amp(ddg: &Ddg, lo: usize, hi: usize, is_frontier: &[bool]) -> f64 {
    let mut amp_to = vec![0.0f64; hi - lo];
    for e in 0..ddg.n_edges() {
        let u = ddg.uses[e] as usize;
        if u < lo {
            continue;
        }
        if u >= hi {
            break; // uses are non-decreasing
        }
        let d = ddg.defs[e] as usize;
        let inflow = if d < lo {
            ddg.amps[e]
        } else {
            amp_to[d - lo] * ddg.amps[e]
        };
        if inflow > amp_to[u - lo] {
            amp_to[u - lo] = inflow;
        }
    }
    amp_to
        .iter()
        .zip(is_frontier)
        .filter(|&(_, &f)| f)
        .map(|(&a, _)| a)
        .fold(0.0, f64::max)
}

/// Run the full compositional analysis: segment, (re-)campaign dirty
/// sections, persist, compose.
///
/// `binding_config` identifies the kernel in the ledger header so stale
/// ledgers from a different campaign are never reused. With
/// `ledger: None` the analysis is purely in-memory (every section runs).
///
/// # Errors
/// [`ComposeError::BadTolerance`] / [`ComposeError::BadRate`] on invalid
/// knobs, [`ComposeError::NotInstrumented`] if `secant` is set on an
/// uninstrumented kernel, [`ComposeError::Ledger`] if an existing ledger
/// file is unreadable (delete it to force a fresh campaign).
pub fn compose_analysis(
    kernel: &dyn Kernel,
    binding_config: &KernelConfig,
    injector: &Injector<'_>,
    cfg: &ComposeConfig,
    ledger: Option<&Path>,
) -> Result<ComposeResult, ComposeError> {
    if !(cfg.tolerance > 0.0 && cfg.tolerance.is_finite()) {
        return Err(ComposeError::BadTolerance(cfg.tolerance));
    }
    if !(cfg.rate > 0.0 && cfg.rate <= 1.0) {
        return Err(ComposeError::BadRate(cfg.rate));
    }

    let golden = injector.golden();
    let registry = kernel.registry();
    let map = SectionMap::phases(golden, &registry).coalesce(cfg.max_sections.max(1));
    let m = map.n_sections();

    let signatures: Vec<u64> = (0..m)
        .map(|t| {
            let (lo, hi) = map.range(t);
            map.signature(golden, t, kernel.code_version(lo, hi))
        })
        .collect();

    // The DDG amplification bounds, fitted before any campaign spends
    // runs, so an uninstrumented kernel fails fast. Per section: the
    // interval path-product inlet bound tightened by the affine
    // backward sweep (signed reconverging paths cancel), plus the
    // affine per-site amp-to-frontier bounds that cap the `static_amp`
    // priors below.
    let ddg_amp: Option<Vec<(Vec<f64>, f64)>> = if cfg.secant {
        let (_, ddg) = kernel.golden_with_ddg();
        if !ddg.is_instrumented() {
            return Err(ComposeError::NotInstrumented);
        }
        Some(
            (0..m)
                .map(|t| {
                    let (lo, hi) = map.range(t);
                    let frontier = map.frontier(golden, &registry, t);
                    let mut flags = vec![false; hi - lo];
                    for s in frontier {
                        flags[s - lo] = true;
                    }
                    let interval_in = ddg_section_amp(&ddg, lo, hi, &flags);
                    let (site_amp, affine_in) =
                        crate::absint::affine_section_amp(&ddg, lo, hi, &flags);
                    (site_amp, interval_in.min(affine_in))
                })
                .collect(),
        )
    } else {
        None
    };

    let scfg = SectionCampaignConfig::new(cfg.rate, cfg.seed);
    let binding = CampaignBinding {
        kernel: binding_config.clone(),
        classifier: *injector.classifier(),
        n_sites: injector.n_sites(),
        bits: injector.bits(),
        plan: scfg.plan(m),
        bit_prune: None,
        snapshot: None,
        batch: None,
    };

    // Which sections does the prior ledger still cover?
    let current: Vec<(usize, usize, u64)> = (0..m)
        .map(|t| {
            let (lo, hi) = map.range(t);
            (lo, hi, signatures[t])
        })
        .collect();
    let plan = match ledger {
        Some(path) if path.exists() => {
            let prior = read_section_ledger(path)?;
            // Compatibility deliberately excludes the kernel config: an
            // edit that changes the config (e.g. a sweep tweak) is
            // exactly the incremental case, and code identity is what
            // the per-section signatures govern. Experiment-space shape
            // and classification must still agree exactly.
            let b = &prior.header.binding;
            let compatible = b.classifier == binding.classifier
                && b.n_sites == binding.n_sites
                && b.bits == binding.bits
                && b.plan == binding.plan;
            if compatible {
                plan_incremental(&prior.sections, &current)?
            } else {
                IncrementalPlan::all_dirty(m)
            }
        }
        _ => IncrementalPlan::all_dirty(m),
    };

    // Rewrite the ledger crash-safely: reused records land first, fresh
    // records append as each campaign completes — a kill mid-campaign
    // loses at most the section in flight.
    let mut writer = match ledger {
        Some(path) => Some(create_section_ledger(path, binding)?),
        None => None,
    };
    let mut summaries: Vec<Option<SectionSummary>> = vec![None; m];
    let mut campaigns: Vec<Option<SectionCampaign>> = (0..m).map(|_| None).collect();
    for (t, rec) in &plan.reused {
        if let Some(w) = writer.as_mut() {
            w.append_records(std::slice::from_ref(rec))?;
        }
        summaries[*t] = Some(rec.summary.clone());
    }
    let mut n_experiments = 0u64;
    for &t in &plan.dirty {
        let campaign = run_section_campaign(injector, &registry, &map, t, &scfg);
        let rec = SectionRecord {
            signature: signatures[t],
            summary: campaign.summary.clone(),
        };
        if let Some(w) = writer.as_mut() {
            w.append_records(std::slice::from_ref(&rec))?;
        }
        n_experiments += campaign.summary.n_experiments;
        summaries[t] = Some(campaign.summary.clone());
        campaigns[t] = Some(campaign);
    }
    let summaries: Vec<SectionSummary> = summaries.into_iter().map(Option::unwrap).collect();

    // Prepare the composition input. Two adjustments on a working copy
    // (the persisted summaries stay purely empirical):
    // 1. unsampled sites inherit their static instruction's observed
    //    amplification maximum (dynamic instances of one source
    //    instruction share propagation behaviour), so the budget
    //    extrapolation reaches sites the campaign never injected at;
    // 2. secant tightening: a section's empirical inlet amplification is
    //    raised to the DDG bound (affine-tightened path products, so
    //    reconverging signed paths cancel before the raise), shrinking
    //    upstream budgets, and each *inherited* static_amp prior is
    //    likewise raised to the site's own affine amp-to-frontier bound
    //    — an extrapolated site no longer rests purely on a sibling
    //    instance's observation when the model certifies the instance
    //    itself amplifies harder. Both raises only ever lower
    //    thresholds, so secant mode stays conservative vs plain mode.
    let composed_input: Vec<SectionSummary> = summaries
        .iter()
        .cloned()
        .map(|mut s| {
            for li in 0..(s.hi - s.lo) {
                if s.site_amp[li] <= 0.0 {
                    let id = golden.static_id(s.lo + li).0;
                    if let Ok(p) = s.static_amp.binary_search_by_key(&id, |a| a.static_id) {
                        let mut a = s.static_amp[p].amp;
                        if let Some(bounds) = &ddg_amp {
                            a = a.max(bounds[s.index].0[li]);
                        }
                        s.site_amp[li] = a;
                    }
                }
            }
            if let Some(bounds) = &ddg_amp {
                s.amp_in = s.amp_in.max(bounds[s.index].1);
            }
            s
        })
        .collect();
    let params = ComposeParams {
        tolerance: cfg.tolerance,
        safety: cfg.safety,
        extrapolate: cfg.extrapolate,
    };
    let composed = compose_thresholds(
        &composed_input,
        &SectionDag::chain(m),
        golden.n_sites(),
        &params,
    );

    let reused: Vec<usize> = plan.reused.iter().map(|&(t, _)| t).collect();
    Ok(ComposeResult {
        boundary: Boundary::from_composed(composed.thresholds),
        map,
        summaries,
        signatures,
        budgets: composed.budgets,
        extrapolated: composed.extrapolated,
        reran: plan.dirty,
        reused,
        campaigns,
        n_experiments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_inject::Classifier;
    use ftb_kernels::{JacobiConfig, JacobiKernel};

    fn jacobi() -> (JacobiKernel, KernelConfig) {
        let cfg = JacobiConfig {
            grid: 3,
            sweeps: 4,
            ..JacobiConfig::small()
        };
        (JacobiKernel::new(cfg.clone()), KernelConfig::Jacobi(cfg))
    }

    #[test]
    fn bad_knobs_are_refused() {
        let (k, kc) = jacobi();
        let inj = Injector::new(&k, Classifier::new(1e-4));
        let mut c = ComposeConfig::new(0.0);
        assert!(matches!(
            compose_analysis(&k, &kc, &inj, &c, None),
            Err(ComposeError::BadTolerance(_))
        ));
        c = ComposeConfig::new(1e-4);
        c.rate = 1.5;
        assert!(matches!(
            compose_analysis(&k, &kc, &inj, &c, None),
            Err(ComposeError::BadRate(_))
        ));
    }

    #[test]
    fn fresh_analysis_runs_every_section_and_composes() {
        let (k, kc) = jacobi();
        let inj = Injector::new(&k, Classifier::new(1e-4));
        let cfg = ComposeConfig::new(1e-4);
        let r = compose_analysis(&k, &kc, &inj, &cfg, None).unwrap();
        let m = r.map.n_sections();
        assert!(m > 2);
        assert_eq!(r.reran, (0..m).collect::<Vec<_>>());
        assert!(r.reused.is_empty());
        assert_eq!(r.boundary.n_sites(), inj.n_sites());
        assert!(r.boundary.coverage() > 0.0, "composed nothing at all");
        assert!(r.budgets.iter().all(|b| b.is_finite()));
        assert!(r.n_experiments > 0);
    }

    #[test]
    fn secant_mode_tightens_or_matches() {
        let (k, kc) = jacobi();
        let inj = Injector::new(&k, Classifier::new(1e-4));
        let cfg = ComposeConfig::new(1e-4);
        let plain = compose_analysis(&k, &kc, &inj, &cfg, None).unwrap();
        let secant = compose_analysis(
            &k,
            &kc,
            &inj,
            &ComposeConfig {
                secant: true,
                ..cfg
            },
            None,
        )
        .unwrap();
        for (s, p) in secant
            .boundary
            .thresholds()
            .iter()
            .zip(plain.boundary.thresholds())
        {
            assert!(s <= p, "secant bound loosened a threshold");
        }
    }

    #[test]
    fn ddg_section_amp_folds_path_products() {
        // 0 -(x2)-> 1 -(x3)-> 2 ; section [1,3): inlet path product 6
        let ddg = Ddg {
            n_sites: 3,
            defs: vec![0, 1],
            uses: vec![1, 2],
            amps: vec![2.0, 3.0],
            out_sinks: vec![(2, 1.0)],
            ..Ddg::default()
        };
        let amp = ddg_section_amp(&ddg, 1, 3, &[true, true]);
        assert!((amp - 6.0).abs() < 1e-12);
        // frontier restricted to site 1 only: path stops at x2
        let amp = ddg_section_amp(&ddg, 1, 3, &[true, false]);
        assert!((amp - 2.0).abs() < 1e-12);
    }
}
