//! Per-section fault-injection campaigns and the sectioned campaign
//! ledger — the data-gathering half of compositional boundary analysis
//! (`ftb-core::compose`).
//!
//! A section campaign injects faults *inside* one section of the golden
//! run (see [`ftb_trace::SectionMap`]) plus a probe set at the previous
//! section's output frontier, and distills everything the composer needs
//! into a compact [`SectionSummary`]:
//!
//! * the **local fold** — the §3.5-filtered Algorithm-1 max of masked
//!   perturbations at each site of the section, exactly the statistic
//!   the monolithic `infer_boundary` computes, restricted to this
//!   section's own injections;
//! * the **transfer summary** — the largest observed amplification from
//!   a frontier-of-the-previous-section perturbation to this section's
//!   own output frontier (`amp_in`), the largest inlet perturbation seen
//!   to cross while staying masked (`cap_in`), and per-output-slot
//!   amplification maxima ([`SlotAmp`]);
//! * per-site frontier amplifications (`site_amp`) used to extrapolate a
//!   downstream error budget back onto individual sites.
//!
//! Amplifications are *secant* estimates — finite-difference quotients
//! `Δout/Δin` at observed perturbation magnitudes, the same notion of
//! bound the static analyzer's derivative table uses. Outcomes come from
//! whole-program runs, so every recorded outcome is ground truth, never
//! a model prediction. The propagation folds read only the section's
//! sites, so the masked runs that feed them execute only the part of the
//! program that reaches the section's end: from the snapshot preceding
//! the fault (when the injector has a store) to the first
//! [`should_stop`](ftb_trace::Tracer::should_stop) poll past `hi`.
//!
//! The sectioned ledger (`ftb-sections-v1`) persists one completed
//! [`SectionRecord`] per line after a binding header, with the same
//! torn-tail crash-recovery contract as the experiment ledger: a
//! campaign killed mid-flight loses at most the section it was running.

use crate::campaign::Injector;
use crate::experiment::Experiment;
use crate::ledger::{read_records, CampaignBinding, LedgerError, LedgerHeader, LedgerWriter};
use crate::outcome::Outcome;
use ftb_stats::sampling::{sample_without_replacement, seeded_rng};
use ftb_trace::{FaultSpec, Region, SectionMap, StaticId, StaticRegistry};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Format tag of the sectioned campaign ledger.
pub const SECTIONS_FORMAT: &str = "ftb-sections-v1";

/// Sampling knobs of a per-section campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SectionCampaignConfig {
    /// Fraction of a section's sites to inject at (each sampled site is
    /// tested on every bit, following the paper's §3.3 site sampling).
    pub rate: f64,
    /// Base seed; each section derives its own sampling streams from it.
    pub seed: u64,
}

impl SectionCampaignConfig {
    /// A config with the given rate and seed.
    pub fn new(rate: f64, seed: u64) -> Self {
        SectionCampaignConfig { rate, seed }
    }

    /// Stable plan string for ledger bindings.
    pub fn plan(&self, n_sections: usize) -> String {
        format!(
            "compose rate={} seed={} sections={n_sections}",
            self.rate, self.seed
        )
    }
}

/// Per-output-slot (static instruction on the frontier) amplification
/// maximum: the largest observed `Δslot / Δinjected` among masked runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotAmp {
    /// Static id of the frontier slot.
    pub static_id: u32,
    /// Largest observed secant amplification into the slot.
    #[serde(with = "ftb_trace::serde_float")]
    pub amp: f64,
}

/// The empirical error-transfer summary of one section — everything the
/// backward composition sweep needs, independent of the experiments that
/// produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SectionSummary {
    /// Section index within the map.
    pub index: usize,
    /// First site of the section.
    pub lo: usize,
    /// One past the last site.
    pub hi: usize,
    /// Kernel executions this campaign spent.
    pub n_experiments: u64,
    /// §3.5-filtered Algorithm-1 fold per site (dense over `[lo, hi)`):
    /// the largest masked perturbation observed at the site that stayed
    /// strictly below the site's smallest SDC-causing injection.
    #[serde(with = "ftb_trace::serde_float::vec")]
    pub local_max: Vec<f64>,
    /// Smallest SDC-causing injected error per site (dense over
    /// `[lo, hi)`; `+∞` where no SDC was observed).
    #[serde(with = "ftb_trace::serde_float::vec")]
    pub min_sdc: Vec<f64>,
    /// Largest observed frontier amplification of an injection at each
    /// site (dense over `[lo, hi)`; `0` where nothing masked was
    /// observed or every perturbation fully decayed before the
    /// frontier).
    #[serde(with = "ftb_trace::serde_float::vec")]
    pub site_amp: Vec<f64>,
    /// Transfer amplification: largest observed `Δfrontier(t)/ε` over
    /// masked probes injected at the *previous* section's frontier.
    #[serde(with = "ftb_trace::serde_float")]
    pub amp_in: f64,
    /// Largest inlet perturbation observed to cross the section with a
    /// masked whole-program outcome (the certificate's reach: budgets
    /// beyond it are unobserved).
    #[serde(with = "ftb_trace::serde_float")]
    pub cap_in: f64,
    /// Smallest inlet perturbation that caused SDC (`+∞` if none did).
    #[serde(with = "ftb_trace::serde_float")]
    pub min_sdc_in: f64,
    /// Per-output-slot amplification maxima, sorted by static id.
    pub slot_amp: Vec<SlotAmp>,
    /// Per-static-instruction maxima of `site_amp` over the sampled
    /// sites, sorted by static id — the amplification prior an
    /// *unsampled* site inherits from its static instruction when the
    /// composer extrapolates (dynamic instances of one source
    /// instruction share propagation behaviour; paper §4.2 reads its
    /// results through exactly this grouping).
    pub static_amp: Vec<SlotAmp>,
}

/// One line of the sectioned ledger: a completed section campaign plus
/// the content signature it was computed under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SectionRecord {
    /// Content signature of the section (see
    /// [`SectionMap::signature`]) at campaign time.
    pub signature: u64,
    /// The campaign's distilled result.
    pub summary: SectionSummary,
}

/// A completed section campaign: the distilled summary plus the raw
/// experiments behind it (kept separate so ledgers stay compact — only
/// the summary is persisted).
#[derive(Debug, Clone)]
pub struct SectionCampaign {
    /// The distilled transfer summary.
    pub summary: SectionSummary,
    /// Experiments injected at this section's own sites.
    pub local_experiments: Vec<Experiment>,
    /// Probe experiments injected at the previous section's frontier.
    pub inlet_experiments: Vec<Experiment>,
}

/// Fold of one masked propagation-extracting run, reduced over the merge.
struct MaskedFold {
    site: usize,
    injected_err: f64,
    /// Nonzero deltas at this section's sites, `(local index, Δ)`.
    deltas: Vec<(usize, f64)>,
    /// Largest delta over the section's frontier sites.
    frontier_max: f64,
    /// Largest delta per frontier slot, `(static id, Δ)`, sorted.
    slot_max: Vec<(u32, f64)>,
}

/// Run the campaign for section `t` of `map`: classify injections at a
/// sampled subset of the section's own sites (all bits each) plus probes
/// at the previous section's output frontier with whole-program runs,
/// then fold the propagation of the masked ones through streamed
/// extraction that stops at the section's end (`hi`) and, with a
/// snapshot store, resumes at the snapshot preceding the fault.
/// Deterministic for a fixed `(config, t)` regardless of thread count
/// and execution policy.
pub fn run_section_campaign(
    injector: &Injector<'_>,
    registry: &StaticRegistry,
    map: &SectionMap,
    t: usize,
    cfg: &SectionCampaignConfig,
) -> SectionCampaign {
    let golden = injector.golden();
    let (lo, hi) = map.range(t);
    let len = hi - lo;
    let bits = injector.bits();

    // frontier membership of this section, dense over [lo, hi)
    let is_frontier: Vec<bool> = (lo..hi)
        .map(|s| registry.get(StaticId(golden.static_ids[s])).region != Region::Reduction)
        .collect();

    // sample the section's own sites (stream 0) and inlet probes at the
    // previous section's frontier (stream 1)
    let sample = |pool_len: usize, floor: usize, stream: u64| -> Vec<usize> {
        let k = ((cfg.rate * pool_len as f64).ceil() as usize)
            .max(floor)
            .min(pool_len);
        let mut rng =
            seeded_rng(cfg.seed ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream);
        sample_without_replacement(pool_len, k, &mut rng)
    };
    let local_sites: Vec<usize> = sample(len, 2, 0).into_iter().map(|i| lo + i).collect();
    let inlet_pool: Vec<usize> = if t > 0 {
        map.frontier(golden, registry, t - 1)
    } else {
        Vec::new()
    };
    let inlet_sites: Vec<usize> = sample(inlet_pool.len(), usize::from(t > 0), 1)
        .into_iter()
        .map(|i| inlet_pool[i])
        .collect();

    let plan = |sites: &[usize]| -> Vec<FaultSpec> {
        sites
            .iter()
            .flat_map(|&site| (0..bits).map(move |bit| FaultSpec { site, bit }))
            .collect()
    };
    let local_plan = plan(&local_sites);
    let inlet_plan = plan(&inlet_sites);

    // phase 1: outcome-only classification (fast path)
    let local_experiments = injector.run_many(&local_plan);
    let inlet_experiments = injector.run_many(&inlet_plan);

    // the §3.5 per-site SDC caps, from this section's own injections
    let mut min_sdc = vec![f64::INFINITY; len];
    for e in &local_experiments {
        if e.outcome == Outcome::Sdc {
            let li = e.site - lo;
            min_sdc[li] = min_sdc[li].min(e.injected_err);
        }
    }
    let mut min_sdc_in = f64::INFINITY;
    for e in &inlet_experiments {
        if e.outcome == Outcome::Sdc {
            min_sdc_in = min_sdc_in.min(e.injected_err);
        }
    }

    // phase 2: fold the propagation of phase 1's masked experiments
    // (those that perturbed anything) over this section's sites. The
    // fold reads nothing at or past `hi`, so each run stops at the
    // section's end (and resumes from the snapshot preceding its fault
    // when the injector has a store).
    let extract = |experiments: &[Experiment]| -> Vec<MaskedFold> {
        let masked: Vec<&Experiment> = experiments
            .iter()
            .filter(|e| e.outcome == Outcome::Masked && e.injected_err > 0.0)
            .collect();
        masked
            .par_iter()
            .map(|e| {
                let mut deltas = Vec::new();
                let mut frontier_max = 0.0f64;
                let mut slots: Vec<(u32, f64)> = Vec::new();
                injector.extract_propagation(e.site, e.bit, hi, |s, d| {
                    if s < lo {
                        return;
                    }
                    let li = s - lo;
                    deltas.push((li, d));
                    if is_frontier[li] {
                        frontier_max = frontier_max.max(d);
                        let id = golden.static_ids[s];
                        match slots.binary_search_by_key(&id, |&(i, _)| i) {
                            Ok(p) => slots[p].1 = slots[p].1.max(d),
                            Err(p) => slots.insert(p, (id, d)),
                        }
                    }
                });
                MaskedFold {
                    site: e.site,
                    injected_err: e.injected_err,
                    deltas,
                    frontier_max,
                    slot_max: slots,
                }
            })
            .collect()
    };
    let local_folds = extract(&local_experiments);
    let inlet_folds = extract(&inlet_experiments);

    // sequential merge (max-folds are order-independent anyway)
    let mut local_max = vec![0.0f64; len];
    let mut site_amp = vec![0.0f64; len];
    let mut slot_amp: Vec<SlotAmp> = Vec::new();
    let mut fold_slots = |slot_max: &[(u32, f64)], scale: f64| {
        for &(id, d) in slot_max {
            let a = d / scale;
            match slot_amp.binary_search_by_key(&id, |s| s.static_id) {
                Ok(p) => slot_amp[p].amp = slot_amp[p].amp.max(a),
                Err(p) => slot_amp.insert(
                    p,
                    SlotAmp {
                        static_id: id,
                        amp: a,
                    },
                ),
            }
        }
    };
    for f in &local_folds {
        for &(li, d) in &f.deltas {
            // the incremental §3.5 filter: strictly below the site's cap
            if d.is_finite() && d < min_sdc[li] {
                local_max[li] = local_max[li].max(d);
            }
        }
        let li = f.site - lo;
        site_amp[li] = site_amp[li].max(f.frontier_max / f.injected_err);
        fold_slots(&f.slot_max, f.injected_err);
    }
    // per-static-instruction amplification maxima over the sampled sites
    let mut static_amp: Vec<SlotAmp> = Vec::new();
    for (li, &a) in site_amp.iter().enumerate() {
        if a <= 0.0 {
            continue;
        }
        let id = golden.static_ids[lo + li];
        match static_amp.binary_search_by_key(&id, |s| s.static_id) {
            Ok(p) => static_amp[p].amp = static_amp[p].amp.max(a),
            Err(p) => static_amp.insert(
                p,
                SlotAmp {
                    static_id: id,
                    amp: a,
                },
            ),
        }
    }
    let mut amp_in = 0.0f64;
    let mut cap_in = 0.0f64;
    for f in &inlet_folds {
        amp_in = amp_in.max(f.frontier_max / f.injected_err);
        cap_in = cap_in.max(f.injected_err);
        fold_slots(&f.slot_max, f.injected_err);
    }

    let n_experiments =
        (local_experiments.len() + inlet_experiments.len() + local_folds.len() + inlet_folds.len())
            as u64;
    SectionCampaign {
        summary: SectionSummary {
            index: t,
            lo,
            hi,
            n_experiments,
            local_max,
            min_sdc,
            site_amp,
            amp_in,
            cap_in,
            min_sdc_in,
            slot_amp,
            static_amp,
        },
        local_experiments,
        inlet_experiments,
    }
}

/// What [`read_section_ledger`] recovered from disk.
#[derive(Debug)]
pub struct SectionLedgerRecovery {
    /// The parsed header line.
    pub header: LedgerHeader,
    /// All intact section records, in completion order.
    pub sections: Vec<SectionRecord>,
    /// Byte length of the intact prefix.
    pub valid_len: u64,
    /// Whether a truncated/garbled trailing line was dropped.
    pub dropped_trailing: bool,
}

/// Read and validate a sectioned ledger, tolerating a torn final line —
/// the same crash-recovery contract as [`crate::read_ledger`].
pub fn read_section_ledger(path: &Path) -> Result<SectionLedgerRecovery, LedgerError> {
    let (header, sections, valid_len, dropped_trailing) = read_records(path, SECTIONS_FORMAT)?;
    Ok(SectionLedgerRecovery {
        header,
        sections,
        valid_len,
        dropped_trailing,
    })
}

/// Create (or truncate) a sectioned ledger and write its header.
pub fn create_section_ledger(
    path: &Path,
    binding: CampaignBinding,
) -> Result<LedgerWriter, LedgerError> {
    LedgerWriter::create(path, &LedgerHeader::with_format(SECTIONS_FORMAT, binding))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Classifier;
    use ftb_kernels::{JacobiConfig, JacobiKernel, Kernel};
    use std::io::Write;
    use std::path::PathBuf;

    fn tiny_jacobi() -> JacobiKernel {
        JacobiKernel::new(JacobiConfig {
            grid: 3,
            sweeps: 4,
            ..JacobiConfig::small()
        })
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ftb-sections-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn campaign_summaries_are_well_formed() {
        let k = tiny_jacobi();
        let inj = Injector::new(&k, Classifier::new(1e-4));
        let registry = k.registry();
        let map = SectionMap::phases(inj.golden(), &registry);
        assert!(map.n_sections() > 2, "jacobi must split into sweeps");
        let cfg = SectionCampaignConfig::new(0.5, 7);
        for t in 0..map.n_sections() {
            let c = run_section_campaign(&inj, &registry, &map, t, &cfg);
            let s = &c.summary;
            let (lo, hi) = map.range(t);
            assert_eq!((s.index, s.lo, s.hi), (t, lo, hi));
            assert_eq!(s.local_max.len(), hi - lo);
            assert!(s.n_experiments > 0);
            // the filter invariant: every fold sits strictly below its cap
            for (li, &m) in s.local_max.iter().enumerate() {
                assert!(m < s.min_sdc[li], "site {} fold above cap", lo + li);
            }
            // an injection reaching its own frontier site amplifies >= 1
            // only through growth; all amps are finite and non-negative
            for &a in &s.site_amp {
                assert!(a.is_finite() && a >= 0.0);
            }
            assert!(s.amp_in >= 0.0 && s.amp_in.is_finite());
            if t > 0 {
                assert!(
                    !c.inlet_experiments.is_empty(),
                    "section {t} probed no inlets"
                );
            } else {
                assert!(c.inlet_experiments.is_empty());
            }
            // local experiments stay inside the section
            for e in &c.local_experiments {
                assert!(e.site >= lo && e.site < hi);
            }
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let k = tiny_jacobi();
        let inj = Injector::new(&k, Classifier::new(1e-4));
        let registry = k.registry();
        let map = SectionMap::phases(inj.golden(), &registry);
        let cfg = SectionCampaignConfig::new(0.4, 3);
        let a = run_section_campaign(&inj, &registry, &map, 2, &cfg);
        let b = run_section_campaign(&inj, &registry, &map, 2, &cfg);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.local_experiments, b.local_experiments);
    }

    fn binding(k: &JacobiKernel, inj: &Injector<'_>, plan: String) -> CampaignBinding {
        CampaignBinding {
            kernel: ftb_kernels::KernelConfig::Jacobi(k.config().clone()),
            classifier: *inj.classifier(),
            n_sites: inj.n_sites(),
            bits: inj.bits(),
            plan,
            bit_prune: None,
            snapshot: None,
            batch: None,
        }
    }

    #[test]
    fn section_ledger_roundtrip_and_torn_tail() {
        let k = tiny_jacobi();
        let inj = Injector::new(&k, Classifier::new(1e-4));
        let registry = k.registry();
        let map = SectionMap::phases(inj.golden(), &registry);
        let cfg = SectionCampaignConfig::new(0.5, 7);
        let records: Vec<SectionRecord> = (0..2)
            .map(|t| SectionRecord {
                signature: map.signature(inj.golden(), t, 0),
                summary: run_section_campaign(&inj, &registry, &map, t, &cfg).summary,
            })
            .collect();

        let path = tmp("roundtrip.jsonl");
        let b = binding(&k, &inj, cfg.plan(map.n_sections()));
        let mut w = create_section_ledger(&path, b.clone()).unwrap();
        w.append_records(&records).unwrap();
        drop(w);

        let rec = read_section_ledger(&path).unwrap();
        assert_eq!(rec.header.binding.mismatch(&b), None);
        assert_eq!(rec.sections, records);
        assert!(!rec.dropped_trailing);

        // torn tail: half a record, no newline — dropped on recovery
        let intact = rec.valid_len;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"signature\":12,\"summ").unwrap();
        drop(f);
        let rec = read_section_ledger(&path).unwrap();
        assert!(rec.dropped_trailing);
        assert_eq!(rec.sections.len(), 2);
        assert_eq!(rec.valid_len, intact);

        // resume appends cleanly after truncation
        let mut w = LedgerWriter::resume(&path, rec.valid_len).unwrap();
        w.append_records(&records[..1]).unwrap();
        drop(w);
        let rec = read_section_ledger(&path).unwrap();
        assert_eq!(rec.sections.len(), 3);
        assert!(!rec.dropped_trailing);
    }

    #[test]
    fn experiment_ledger_tag_is_rejected() {
        let k = tiny_jacobi();
        let inj = Injector::new(&k, Classifier::new(1e-4));
        let path = tmp("wrong-tag.jsonl");
        let b = binding(&k, &inj, "exhaustive".into());
        LedgerWriter::create(&path, &LedgerHeader::new(b)).unwrap();
        assert!(matches!(
            read_section_ledger(&path),
            Err(LedgerError::Format { line: 1, .. })
        ));
    }

    #[test]
    fn summaries_roundtrip_nonfinite_fields() {
        // min_sdc is +inf where no SDC was seen — must survive JSON
        let s = SectionSummary {
            index: 0,
            lo: 0,
            hi: 2,
            n_experiments: 4,
            local_max: vec![0.5, 0.0],
            min_sdc: vec![f64::INFINITY, 1.5],
            site_amp: vec![1.0, 0.0],
            amp_in: 0.0,
            cap_in: 0.0,
            min_sdc_in: f64::INFINITY,
            slot_amp: vec![SlotAmp {
                static_id: 3,
                amp: 1.25,
            }],
            static_amp: vec![SlotAmp {
                static_id: 2,
                amp: 1.0,
            }],
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: SectionSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
