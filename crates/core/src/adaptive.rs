//! The §3.4 adaptive sampling method: progressive rounds, biased toward
//! under-informed sites, with boundary-based pruning of the remaining
//! sample space.
//!
//! Each round:
//!
//! 1. draws `round_fraction × n_sites` experiments — sites with
//!    probability `p_i ∝ 1 / S_i` (where `S_i` is the §3.4 information
//!    count: injections at `i` plus propagation observations reaching
//!    `i`), one untested bit per chosen site;
//! 2. runs them and rebuilds the boundary (Algorithm 1 + filter);
//! 3. **shrinks the sample space**: candidate experiments the current
//!    boundary already predicts (masked — or crash, in crash-aware mode)
//!    are removed and never run;
//! 4. stops when a round finds no new masked case or ≥
//!    `stop_sdc_fraction` of its results are SDC (the paper uses 95%),
//!    or when the space is exhausted.
//!
//! The paper's Table 3 shows this terminating at ~1% (CG) to ~10% (FFT)
//! of sites while predicting the golden SDC ratio closely.

use crate::infer::{infer_boundary, FilterMode, Inference};
use crate::predict::{PredictedOutcome, Predictor};
use crate::sample::SampleSet;
use ftb_inject::Injector;
use ftb_stats::sampling::{sample_weighted_without_replacement, seeded_rng};
use ftb_trace::FaultSpec;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the adaptive sampler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Experiments per round as a fraction of the site count (the paper
    /// uses 0.1%).
    pub round_fraction: f64,
    /// Lower bound on the experiments per round. The paper's programs
    /// have ≥47k sites, so its 0.1% rounds hold ≥47 experiments; at
    /// laptop scale a bare 0.1% round is 3–8 experiments and the stop
    /// criterion would fire on sampling noise.
    pub min_round_size: usize,
    /// Stop once this fraction of a round's outcomes are SDC (paper: 95%).
    pub stop_sdc_fraction: f64,
    /// Require this many *consecutive* rounds meeting the stop criterion
    /// before actually stopping (noise guard for small rounds).
    pub dry_rounds: usize,
    /// Never stop before this many rounds (guards against a tiny unlucky
    /// first round aborting the whole analysis).
    pub min_rounds: usize,
    /// Hard round cap.
    pub max_rounds: usize,
    /// Filter operation mode for boundary rebuilds.
    pub filter: FilterMode,
    /// Bias sites by `1/S_i` (`false` = uniform progressive sampling, the
    /// ablation baseline).
    pub bias: bool,
    /// Also prune candidates whose flip is non-finite (predicted crash).
    pub crash_aware: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            round_fraction: 0.001,
            min_round_size: 32,
            stop_sdc_fraction: 0.95,
            dry_rounds: 2,
            min_rounds: 2,
            max_rounds: 10_000,
            filter: FilterMode::PerSite,
            bias: true,
            crash_aware: true,
            seed: 42,
        }
    }
}

/// Per-round progress record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Experiments run this round.
    pub n_run: usize,
    /// Masked outcomes this round.
    pub n_masked: usize,
    /// SDC outcomes this round.
    pub n_sdc: usize,
    /// Crash outcomes this round.
    pub n_crash: usize,
    /// Candidate experiments remaining after pruning.
    pub candidates_left: u64,
}

/// Result of an adaptive sampling run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveResult {
    /// All experiments run, across rounds.
    pub samples: SampleSet,
    /// Final boundary inference.
    pub inference: Inference,
    /// Per-round progress.
    pub rounds: Vec<RoundStats>,
}

impl AdaptiveResult {
    /// The paper's sample-size metric: experiments / sites.
    pub fn sample_rate(&self, n_sites: usize) -> f64 {
        self.samples.rate(n_sites)
    }
}

/// Remaining-candidate bookkeeping: one bitmask of untested, unpruned
/// bits per site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CandidateSpace {
    masks: Vec<u64>,
}

/// Every bit of a `bits`-wide value.
fn full_mask(bits: u8) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

impl CandidateSpace {
    fn full(n_sites: usize, bits: u8) -> Self {
        CandidateSpace {
            masks: vec![full_mask(bits); n_sites],
        }
    }

    fn remaining(&self) -> u64 {
        self.masks.iter().map(|m| u64::from(m.count_ones())).sum()
    }

    fn site_has_candidates(&self, site: usize) -> bool {
        self.masks[site] != 0
    }

    /// Pick the `k`-th set bit (random rank) of the site's mask.
    fn random_bit(&self, site: usize, rng: &mut impl Rng) -> u8 {
        let m = self.masks[site];
        debug_assert!(m != 0);
        let n = m.count_ones();
        let rank = rng.gen_range(0..n);
        nth_set_bit(m, rank)
    }

    fn remove(&mut self, site: usize, bit: u8) {
        self.masks[site] &= !(1u64 << bit);
    }

    /// Prune every candidate the predictor already decides (masked, or
    /// crash in crash-aware mode). Returns the number pruned.
    fn prune(&mut self, predictor: &Predictor<'_>, crash_aware: bool) -> u64 {
        let mut pruned = 0;
        for site in 0..self.masks.len() {
            let mut m = self.masks[site];
            while m != 0 {
                let bit = m.trailing_zeros() as u8;
                m &= m - 1;
                let p = predictor.predict(site, bit);
                let decided =
                    p == PredictedOutcome::Masked || (crash_aware && p == PredictedOutcome::Crash);
                if decided {
                    self.remove(site, bit);
                    pruned += 1;
                }
            }
        }
        pruned
    }
}

/// Index of the `rank`-th (0-based) set bit of `m`.
fn nth_set_bit(mut m: u64, mut rank: u32) -> u8 {
    debug_assert!(m.count_ones() > rank);
    loop {
        let b = m.trailing_zeros();
        if rank == 0 {
            return b as u8;
        }
        m &= m - 1;
        rank -= 1;
    }
}

/// Mix a round index into the campaign seed (SplitMix64 finalizer).
///
/// Each round draws from its own RNG derived from `(seed, round)` so a
/// checkpointed run resumed from a serialized [`AdaptiveState`] replays
/// the exact experiment sequence an uninterrupted run would produce —
/// no RNG stream needs to survive serialization.
fn round_seed(seed: u64, round: usize) -> u64 {
    let mut z = seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The complete resumable state of an adaptive sampling run.
///
/// Everything the §3.4 loop carries between rounds lives here — the
/// candidate space, the incremental boundary, the per-site information
/// counts and SDC minima, the collected samples, and the stop-criterion
/// bookkeeping — and all of it serializes, so a campaign can be
/// checkpointed after any round and resumed bit-for-bit later (the CLI's
/// `--checkpoint`/`--resume` flags).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveState {
    /// Configuration the run was started with.
    pub cfg: AdaptiveConfig,
    /// Number of injection sites (resume must agree with the injector).
    pub n_sites: usize,
    /// Bits per site (resume must agree with the injector).
    pub bits: u8,
    /// Rounds completed so far.
    pub round: usize,
    consecutive_dry: usize,
    space: CandidateSpace,
    information: Vec<u32>,
    #[serde(with = "ftb_trace::serde_float::vec")]
    min_sdc: Vec<f64>,
    boundary: crate::boundary::Boundary,
    /// A prior boundary (typically from `staticbound`) the run was seeded
    /// with; re-merged into the canonical rebuild at [`finish`] time.
    /// `None` for cold-start runs. Defaulted on read, although every
    /// checkpoint old enough to lack the field is an `ftb-adaptive-v1`
    /// one, which the CLI now refuses (its hang records predate the hang
    /// budget).
    ///
    /// [`finish`]: AdaptiveState::finish
    #[serde(default)]
    prior: Option<crate::boundary::Boundary>,
    /// All experiments run so far.
    pub samples: SampleSet,
    /// Per-round progress.
    pub rounds: Vec<RoundStats>,
    done: bool,
}

impl AdaptiveState {
    /// Fresh state for an adaptive run against `injector`.
    ///
    /// # Panics
    /// Panics on non-positive `round_fraction` or a zero `max_rounds`.
    pub fn new(injector: &Injector<'_>, cfg: &AdaptiveConfig) -> Self {
        assert!(cfg.round_fraction > 0.0, "round_fraction must be positive");
        assert!(cfg.max_rounds > 0, "need at least one round");
        let n_sites = injector.n_sites();
        AdaptiveState {
            cfg: cfg.clone(),
            n_sites,
            bits: injector.bits(),
            round: 0,
            consecutive_dry: 0,
            space: CandidateSpace::full(n_sites, injector.bits()),
            information: vec![1u32; n_sites], // the §3.4 S_i counts
            min_sdc: vec![f64::INFINITY; n_sites],
            boundary: crate::boundary::Boundary::zero(n_sites),
            prior: None,
            samples: SampleSet::new(),
            rounds: Vec::new(),
            done: false,
        }
    }

    /// Fresh state seeded with a `prior` boundary — typically the static
    /// analyzer's zero-injection certificate ([`crate::static_bound`]).
    ///
    /// Seeding does three things the cold start cannot:
    /// the prior's thresholds merge into the working boundary (so early
    /// rounds predict-and-prune with analytical knowledge instead of
    /// zeros), its support counts feed the §3.4 `S_i` information counts
    /// (biased sampling starts pointed at sites the prior says least
    /// about), and the candidate space is pruned *before round 0* (every
    /// experiment the prior already certifies is never run). Seeding with
    /// [`Boundary::zero`] is exactly [`AdaptiveState::new`].
    ///
    /// [`Boundary::zero`]: crate::boundary::Boundary::zero
    ///
    /// # Panics
    /// Panics if `prior` covers a different number of sites than the
    /// injector, plus the [`AdaptiveState::new`] config panics.
    pub fn with_prior(
        injector: &Injector<'_>,
        cfg: &AdaptiveConfig,
        prior: crate::boundary::Boundary,
    ) -> Self {
        let mut state = AdaptiveState::new(injector, cfg);
        assert_eq!(
            prior.n_sites(),
            state.n_sites,
            "prior covers a different fault space"
        );
        state.boundary.merge_prior(&prior);
        for site in 0..state.n_sites {
            state.information[site] = state.information[site].saturating_add(prior.support(site));
        }
        let predictor = Predictor::new(injector.golden(), &state.boundary);
        state.space.prune(&predictor, cfg.crash_aware);
        state.prior = Some(prior);
        state
    }

    /// Remove statically certified bits from the candidate space — the
    /// `--bit-prune` hook. Every `CertifiedMasked` bit of `masks`
    /// (`ftb-core::absint`) is dropped from the space before it can be
    /// drawn, and each pruned bit counts into the site's §3.4 `S_i`
    /// information tally: certified bits are knowledge the sampler no
    /// longer has to buy, so the `1/S_i` weights re-point the round
    /// budget toward sites that remain `Unknown`-heavy. Returns the
    /// number of candidates pruned.
    ///
    /// Call before the first [`step`](AdaptiveState::step) (composes
    /// with [`with_prior`](AdaptiveState::with_prior), which prunes via
    /// exact per-golden-value prediction; the masks additionally hold
    /// over the site's whole exponent range). The pruning is part of the
    /// serialized state, so checkpoint/resume stays bit-identical.
    ///
    /// # Panics
    /// Panics if the masks cover a different fault space.
    pub fn apply_bit_masks(&mut self, masks: &crate::absint::BitMasks) -> u64 {
        assert_eq!(
            masks.n_sites(),
            self.n_sites,
            "masks cover a different fault space"
        );
        assert_eq!(masks.bits, self.bits, "masks have the wrong bit width");
        let mut pruned = 0u64;
        for (site, m) in masks.sites.iter().enumerate() {
            let hit = m.certified & self.space.masks[site];
            let k = hit.count_ones();
            if k > 0 {
                self.space.masks[site] &= !hit;
                self.information[site] = self.information[site].saturating_add(k);
                pruned += u64::from(k);
            }
        }
        pruned
    }

    /// Check that this (possibly deserialized) state belongs to
    /// `injector`'s fault space and stays inside it: [`step`] and
    /// [`finish`] index its per-site vectors, candidate masks and samples
    /// by site and bit without further checks.
    ///
    /// [`step`]: AdaptiveState::step
    /// [`finish`]: AdaptiveState::finish
    pub fn validate(&self, injector: &Injector<'_>) -> Result<(), String> {
        let (n, bits) = (self.n_sites, self.bits);
        let per_site = [
            ("information", self.information.len() == n),
            ("min_sdc", self.min_sdc.len() == n),
            ("space.masks", self.space.masks.len() == n),
            ("boundary", self.boundary.covers(n)),
            ("prior", self.prior.as_ref().is_none_or(|p| p.covers(n))),
        ];
        if n != injector.n_sites() || bits != injector.bits() {
            Err(format!(
                "fault space ({n} sites × {bits} bits) does not match the kernel"
            ))
        } else if let Some((field, _)) = per_site.iter().find(|(_, ok)| !ok) {
            Err(format!("`{field}` does not cover {n} sites"))
        } else if let Some(site) = self
            .space
            .masks
            .iter()
            .position(|m| m & !full_mask(bits) != 0)
        {
            Err(format!("candidate mask of site {site} exceeds {bits} bits"))
        } else if let Some(e) = self
            .samples
            .experiments()
            .iter()
            .find(|e| e.site >= n || e.bit >= bits)
        {
            Err(format!(
                "sample (site {}, bit {}) lies outside the fault space",
                e.site, e.bit
            ))
        } else {
            Ok(())
        }
    }

    /// Whether the stop criteria have fired.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Run one sampling round. Returns the round's stats, or `None` if
    /// the run is (now) complete.
    pub fn step(&mut self, injector: &Injector<'_>) -> Option<RoundStats> {
        if self.done || self.round >= self.cfg.max_rounds {
            self.done = true;
            return None;
        }
        let cfg = &self.cfg;
        let round_size = ((cfg.round_fraction * self.n_sites as f64).ceil() as usize)
            .max(cfg.min_round_size)
            .max(1);
        let mut rng = seeded_rng(round_seed(cfg.seed, self.round));

        // 1. choose sites: weight 1/S_i among sites with candidates left
        let weights: Vec<f64> = (0..self.n_sites)
            .map(|site| {
                if !self.space.site_has_candidates(site) {
                    0.0
                } else if cfg.bias {
                    1.0 / f64::from(self.information[site])
                } else {
                    1.0
                }
            })
            .collect();
        let chosen = sample_weighted_without_replacement(&weights, round_size, &mut rng);
        if chosen.is_empty() {
            self.done = true; // space exhausted
            return None;
        }
        let faults: Vec<FaultSpec> = chosen
            .iter()
            .map(|&site| {
                let bit = self.space.random_bit(site, &mut rng);
                FaultSpec { site, bit }
            })
            .collect();

        // 2. run, record and update the incremental state
        let results = injector.run_many(&faults);
        let (mut n_masked, mut n_sdc, mut n_crash) = (0, 0, 0);
        for e in results {
            self.information[e.site] = self.information[e.site].saturating_add(1);
            match e.outcome {
                o if o.is_masked() => {
                    n_masked += 1;
                    // fold this run's propagation (Algorithm 1), filtered
                    // against the SDC minima known so far
                    let (_, prop) = injector.run_one_traced(e.site, e.bit);
                    for (site, err) in prop.iter() {
                        if err == 0.0 {
                            continue;
                        }
                        let passes = match cfg.filter {
                            FilterMode::Off => true,
                            _ => err < self.min_sdc[site],
                        };
                        if passes {
                            self.boundary.observe(site, err);
                        }
                        self.information[site] = self.information[site].saturating_add(1);
                    }
                }
                o if o.is_sdc() => {
                    n_sdc += 1;
                    if cfg.filter != FilterMode::Off && e.injected_err < self.min_sdc[e.site] {
                        self.min_sdc[e.site] = e.injected_err;
                        // retroactive filter: never certify ≥ a known SDC error
                        self.boundary.clamp_below(e.site, e.injected_err);
                    }
                }
                _ => n_crash += 1,
            }
            self.space.remove(e.site, e.bit);
            self.samples.insert(e);
        }

        // 3. shrink the candidate space with the current boundary
        let predictor = Predictor::new(injector.golden(), &self.boundary);
        self.space.prune(&predictor, cfg.crash_aware);

        let n_run = n_masked + n_sdc + n_crash;
        let stats = RoundStats {
            round: self.round,
            n_run,
            n_masked,
            n_sdc,
            n_crash,
            candidates_left: self.space.remaining(),
        };
        self.rounds.push(stats);
        self.round += 1;

        // 4. stop criteria (paper §3.4): no new masked cases, or the
        // round was ≥95% SDC — sustained for `dry_rounds` rounds
        let sdc_frac = n_sdc as f64 / n_run.max(1) as f64;
        if n_masked == 0 || sdc_frac >= self.cfg.stop_sdc_fraction {
            self.consecutive_dry += 1;
        } else {
            self.consecutive_dry = 0;
        }
        if self.consecutive_dry >= self.cfg.dry_rounds && self.round >= self.cfg.min_rounds {
            self.done = true;
        }
        if self.space.remaining() == 0 {
            self.done = true;
        }
        Some(stats)
    }

    /// Final exact boundary rebuild (the incremental fold is
    /// order-dependent in what the filter discards; the returned
    /// boundary is canonical).
    pub fn finish(&self, injector: &Injector<'_>) -> AdaptiveResult {
        let mut inference = infer_boundary(injector, &self.samples, self.cfg.filter);
        if let Some(prior) = &self.prior {
            // fold the analytical certificate back in: the rebuild only
            // sees the experiments, not the knowledge that let us skip
            // experiments in the first place
            inference.boundary.merge_prior(prior);
            if self.cfg.filter != FilterMode::Off {
                // the §3.5 filter still wins over the prior wherever an
                // actual SDC observation contradicts it
                let mins = self.samples.min_sdc_injected(self.n_sites);
                for (site, &cap) in mins.iter().enumerate() {
                    inference.boundary.clamp_below(site, cap);
                }
            }
        }
        AdaptiveResult {
            samples: self.samples.clone(),
            inference,
            rounds: self.rounds.clone(),
        }
    }
}

/// Run the adaptive sampling loop to completion. See the module docs.
///
/// Equivalent to driving [`AdaptiveState`] round-by-round — which is
/// what the checkpointing CLI does — followed by
/// [`AdaptiveState::finish`].
pub fn adaptive_boundary(injector: &Injector<'_>, cfg: &AdaptiveConfig) -> AdaptiveResult {
    let mut state = AdaptiveState::new(injector, cfg);
    while state.step(injector).is_some() {}
    state.finish(injector)
}

/// [`adaptive_boundary`] seeded with a prior boundary — see
/// [`AdaptiveState::with_prior`].
pub fn adaptive_boundary_with_prior(
    injector: &Injector<'_>,
    cfg: &AdaptiveConfig,
    prior: crate::boundary::Boundary,
) -> AdaptiveResult {
    let mut state = AdaptiveState::with_prior(injector, cfg, prior);
    while state.step(injector).is_some() {}
    state.finish(injector)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_inject::Classifier;
    use ftb_kernels::{MatvecConfig, MatvecKernel, StencilConfig, StencilKernel};

    #[test]
    fn nth_set_bit_works() {
        assert_eq!(nth_set_bit(0b1011, 0), 0);
        assert_eq!(nth_set_bit(0b1011, 1), 1);
        assert_eq!(nth_set_bit(0b1011, 2), 3);
        assert_eq!(nth_set_bit(1 << 63, 0), 63);
    }

    #[test]
    fn candidate_space_accounting() {
        let mut s = CandidateSpace::full(2, 32);
        assert_eq!(s.remaining(), 64);
        s.remove(0, 5);
        assert_eq!(s.remaining(), 63);
        assert!(s.site_has_candidates(0));
        for b in 0..32 {
            s.remove(1, b);
        }
        assert!(!s.site_has_candidates(1));
    }

    #[test]
    fn apply_bit_masks_prunes_the_space_and_reweights() {
        use crate::absint::{BitMasks, MaskSource, SiteMask};
        let k = MatvecKernel::new(MatvecConfig {
            n: 3,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let mut state = AdaptiveState::new(&inj, &AdaptiveConfig::default());
        let before = state.space.remaining();
        let info_before = state.information[0];

        // certify the low 8 mantissa bits of site 0 only
        let mut sites = vec![SiteMask::default(); inj.n_sites()];
        sites[0] = SiteMask {
            certified: 0xff,
            crash_likely: 0,
        };
        let masks = BitMasks {
            bits: inj.bits(),
            source: MaskSource::Static,
            sites,
        };
        let pruned = state.apply_bit_masks(&masks);
        assert_eq!(pruned, 8);
        assert_eq!(state.space.remaining(), before - 8);
        // pruning is idempotent: the bits are already gone
        assert_eq!(state.apply_bit_masks(&masks), 0);
        // certified bits count as information, shifting weight away
        assert_eq!(state.information[0], info_before + 8);
        // and the sampler can never draw a certified bit again
        let mut rng = ftb_stats::sampling::seeded_rng(11);
        for _ in 0..200 {
            let bit = state.space.random_bit(0, &mut rng);
            assert!(bit >= 8, "drew certified bit {bit}");
        }
    }

    #[test]
    #[should_panic(expected = "different fault space")]
    fn apply_bit_masks_rejects_wrong_geometry() {
        use crate::absint::{BitMasks, MaskSource};
        let k = MatvecKernel::new(MatvecConfig {
            n: 3,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let mut state = AdaptiveState::new(&inj, &AdaptiveConfig::default());
        let masks = BitMasks {
            bits: inj.bits(),
            source: MaskSource::Static,
            sites: Vec::new(),
        };
        state.apply_bit_masks(&masks);
    }

    #[test]
    fn adaptive_terminates_and_uses_fewer_samples_than_exhaustive() {
        let k = StencilKernel::new(StencilConfig {
            grid: 8,
            sweeps: 4,
            ..StencilConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let cfg = AdaptiveConfig {
            round_fraction: 0.01,
            ..AdaptiveConfig::default()
        };
        let res = adaptive_boundary(&inj, &cfg);
        assert!(!res.rounds.is_empty());
        let total_space = inj.n_sites() as u64 * 64;
        assert!(
            (res.samples.len() as u64) < total_space / 4,
            "adaptive used {} of {} experiments",
            res.samples.len(),
            total_space
        );
        assert!(res.inference.boundary.coverage() > 0.0);
    }

    #[test]
    fn adaptive_is_deterministic_per_seed() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 6,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let cfg = AdaptiveConfig {
            round_fraction: 0.02,
            ..AdaptiveConfig::default()
        };
        let a = adaptive_boundary(&inj, &cfg);
        let b = adaptive_boundary(&inj, &cfg);
        assert_eq!(a.samples.experiments(), b.samples.experiments());
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn rounds_respect_min_rounds() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 6,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let cfg = AdaptiveConfig {
            round_fraction: 0.01,
            min_rounds: 4,
            ..AdaptiveConfig::default()
        };
        let res = adaptive_boundary(&inj, &cfg);
        assert!(res.rounds.len() >= 4 || res.rounds.last().unwrap().candidates_left == 0);
    }

    #[test]
    fn unbiased_mode_also_terminates() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 6,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let cfg = AdaptiveConfig {
            bias: false,
            round_fraction: 0.02,
            ..AdaptiveConfig::default()
        };
        let res = adaptive_boundary(&inj, &cfg);
        assert!(!res.rounds.is_empty());
    }

    #[test]
    fn checkpointed_run_replays_identically() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 6,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let cfg = AdaptiveConfig {
            round_fraction: 0.02,
            ..AdaptiveConfig::default()
        };

        let uninterrupted = adaptive_boundary(&inj, &cfg);

        // serialize the state after *every* round, as the CLI's
        // --checkpoint does, and continue from the deserialized copy
        let mut state = AdaptiveState::new(&inj, &cfg);
        while state.step(&inj).is_some() {
            let json = serde_json::to_string(&state).unwrap();
            state = serde_json::from_str(&json).unwrap();
            state.validate(&inj).unwrap();
        }
        let resumed = state.finish(&inj);

        assert_eq!(
            uninterrupted.samples.experiments(),
            resumed.samples.experiments()
        );
        assert_eq!(uninterrupted.rounds, resumed.rounds);
        assert_eq!(
            serde_json::to_string(&uninterrupted.inference.boundary).unwrap(),
            serde_json::to_string(&resumed.inference.boundary).unwrap(),
            "inferred boundaries must be byte-identical"
        );
    }

    #[test]
    fn state_rejects_foreign_fault_space() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 6,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let state = AdaptiveState::new(&inj, &AdaptiveConfig::default());
        let k2 = MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        });
        let inj2 = Injector::new(&k2, Classifier::new(1e-6));
        assert_eq!(state.validate(&inj), Ok(()));
        assert!(state.validate(&inj2).is_err());
    }

    #[test]
    fn zero_prior_is_identity() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 6,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let cfg = AdaptiveConfig {
            round_fraction: 0.02,
            ..AdaptiveConfig::default()
        };
        let cold = adaptive_boundary(&inj, &cfg);
        let seeded = adaptive_boundary_with_prior(
            &inj,
            &cfg,
            crate::boundary::Boundary::zero(inj.n_sites()),
        );
        assert_eq!(cold.samples.experiments(), seeded.samples.experiments());
        assert_eq!(cold.rounds, seeded.rounds);
        assert_eq!(
            cold.inference.boundary.thresholds(),
            seeded.inference.boundary.thresholds()
        );
    }

    #[test]
    fn prior_prunes_candidates_before_round_zero() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 6,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let cfg = AdaptiveConfig::default();
        let cold = AdaptiveState::new(&inj, &cfg);
        // a crude prior: every site tolerates at least its lowest-mantissa
        // bit flip, so that flip is predictable and must be pruned
        let prior = crate::boundary::Boundary::from_thresholds(
            (0..inj.n_sites())
                .map(|s| inj.golden().flip_errors(s)[0])
                .collect(),
        );
        let seeded = AdaptiveState::with_prior(&inj, &cfg, prior);
        assert!(
            seeded.space.remaining() < cold.space.remaining(),
            "prior pruned nothing: {} vs {}",
            seeded.space.remaining(),
            cold.space.remaining()
        );
        // information counts got the prior's support
        assert!(seeded.information.iter().all(|&s| s >= 2));
    }

    #[test]
    fn seeded_checkpoint_preserves_prior_across_serialization() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 6,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let cfg = AdaptiveConfig {
            round_fraction: 0.02,
            ..AdaptiveConfig::default()
        };
        let prior = crate::boundary::Boundary::from_thresholds(vec![1e-300; inj.n_sites()]);

        let mut uninterrupted = AdaptiveState::with_prior(&inj, &cfg, prior.clone());
        while uninterrupted.step(&inj).is_some() {}
        let expect = uninterrupted.finish(&inj);

        let mut state = AdaptiveState::with_prior(&inj, &cfg, prior);
        while state.step(&inj).is_some() {
            let json = serde_json::to_string(&state).unwrap();
            state = serde_json::from_str(&json).unwrap();
        }
        let resumed = state.finish(&inj);
        assert_eq!(expect.samples.experiments(), resumed.samples.experiments());
        assert_eq!(
            expect.inference.boundary.thresholds(),
            resumed.inference.boundary.thresholds()
        );
    }

    #[test]
    fn old_checkpoint_without_prior_field_still_loads() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 6,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let state = AdaptiveState::new(&inj, &AdaptiveConfig::default());
        let json = serde_json::to_string(&state).unwrap();
        // simulate a checkpoint written before the `prior` field existed
        let old = json.replace("\"prior\":null,", "");
        assert_ne!(old, json, "fixture no longer exercises the old format");
        let loaded: AdaptiveState = serde_json::from_str(&old).unwrap();
        assert!(loaded.prior.is_none());
        assert_eq!(loaded.validate(&inj), Ok(()));
    }

    #[test]
    fn pruned_candidates_shrink_monotonically() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 6,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let cfg = AdaptiveConfig {
            round_fraction: 0.02,
            min_rounds: 3,
            stop_sdc_fraction: 2.0, // never stop on SDC fraction
            max_rounds: 6,
            ..AdaptiveConfig::default()
        };
        let res = adaptive_boundary(&inj, &cfg);
        for w in res.rounds.windows(2) {
            assert!(w[1].candidates_left <= w[0].candidates_left);
        }
    }
}
