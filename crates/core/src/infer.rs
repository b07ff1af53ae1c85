//! Boundary inference from error propagation — Algorithm 1 and the §3.5
//! filter operation.
//!
//! For every **masked** experiment in the sample set, the faulty run is
//! re-executed through the injector's streamed extraction
//! ([`Injector::extract_propagation`]) and its propagation errors are
//! folded into the boundary as a per-site running max (Algorithm 1):
//!
//! ```text
//! for each sample s_i in s:
//!     if s_i is Masked:
//!         for j in 0..n: Δe_j = max(Δe_j, s_i[j])
//! ```
//!
//! The **filter operation** guards against non-monotonic behaviour: a
//! masked propagation value at site `j` larger than the smallest injected
//! error already *known to cause SDC* at `j` is discarded rather than
//! folded — without it, one lucky masked run can raise the threshold
//! above genuinely dangerous errors and drag prediction precision down
//! (the paper's Figure 5, top row, CG).
//!
//! Re-running masked experiments instead of storing their propagation
//! vectors keeps memory at `O(n_sites)` (storing them would be
//! `O(masked × n_sites)`); runs fan out over Rayon and per-thread partial
//! boundaries merge by pointwise max, which is associative and
//! commutative, so the result is deterministic regardless of scheduling.

use crate::boundary::Boundary;
use crate::sample::SampleSet;
use ftb_inject::Injector;
use ftb_trace::norms::relative_error;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Denominator floor for the relative-significance test (the paper flags
/// perturbations with relative error above `1e-8`).
const REL_FLOOR: f64 = 1e-12;

/// The §4.2 significance threshold for "potential impact" accounting.
pub const SIGNIFICANT_REL_ERR: f64 = 1e-8;

/// How the §3.5 filter operation is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterMode {
    /// No filtering — raw Algorithm 1 (the paper's Figure 5, top row).
    Off,
    /// Discard a masked propagation value at site `j` exceeding the
    /// smallest injected error known to cause SDC *at `j`* (default).
    PerSite,
    /// Discard masked propagation values exceeding the smallest injected
    /// error known to cause SDC *anywhere* (ablation: the strictest
    /// reading of "any known SDC cases").
    Global,
}

impl std::fmt::Display for FilterMode {
    /// The `--filter` flag's spelling (also bound into adaptive
    /// checkpoint plans).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FilterMode::Off => "off",
            FilterMode::PerSite => "per-site",
            FilterMode::Global => "global",
        })
    }
}

impl std::str::FromStr for FilterMode {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "off" => Ok(FilterMode::Off),
            "per-site" => Ok(FilterMode::PerSite),
            "global" => Ok(FilterMode::Global),
            other => Err(format!("unknown filter mode '{other}'")),
        }
    }
}

/// Result of boundary inference: the boundary plus the per-site
/// information accounting used by Figure 4 (row 2) and the adaptive
/// sampler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Inference {
    /// The inferred fault tolerance boundary.
    pub boundary: Boundary,
    /// Per site: how many masked runs propagated a *significant*
    /// perturbation (relative error > 1e-8) to it.
    pub prop_hits: Vec<u32>,
    /// Per site: how many injections with significant injected error were
    /// performed there.
    pub sig_injections: Vec<u32>,
}

impl Inference {
    /// The paper's "potential impact" of a site on the prediction:
    /// significant injections plus significant propagation visits.
    pub fn potential_impact(&self, site: usize) -> u32 {
        self.prop_hits[site] + self.sig_injections[site]
    }

    /// The §3.4 information count `S_i` (never zero; the bias weight is
    /// `1 / S_i`).
    pub fn information(&self, site: usize) -> u32 {
        1 + self.prop_hits[site] + self.sig_injections[site]
    }
}

/// Infer the fault tolerance boundary from a sample set (Algorithm 1 +
/// optional filter operation). See the module docs for the mechanics.
pub fn infer_boundary(
    injector: &Injector<'_>,
    samples: &SampleSet,
    filter: FilterMode,
) -> Inference {
    let n_sites = injector.n_sites();
    let golden = injector.golden();

    // Filter thresholds from the known SDC cases.
    let min_sdc: Option<Vec<f64>> = match filter {
        FilterMode::Off => None,
        FilterMode::PerSite => Some(samples.min_sdc_injected(n_sites)),
        FilterMode::Global => Some(vec![samples.min_sdc_injected_global(); n_sites]),
    };

    // Parallel fold over masked experiments: each re-runs through
    // streamed extraction into a per-worker partial.
    let masked: Vec<_> = samples.masked().collect();
    let partial = masked
        .par_iter()
        .fold(
            || (Boundary::zero(n_sites), vec![0u32; n_sites]),
            |(mut b, mut hits), e| {
                injector.extract_propagation(e.site, e.bit, n_sites, |site, err| {
                    // strictly below: a perturbation equal to an error
                    // already known to cause SDC must not certify masked
                    let passes = match &min_sdc {
                        None => true,
                        Some(mins) => err < mins[site],
                    };
                    if passes {
                        b.observe(site, err);
                    }
                    if relative_error(golden.value(site), golden.value(site) + err, REL_FLOOR)
                        > SIGNIFICANT_REL_ERR
                    {
                        hits[site] += 1;
                    }
                });
                (b, hits)
            },
        )
        .reduce(
            || (Boundary::zero(n_sites), vec![0u32; n_sites]),
            |(mut b1, mut h1), (b2, h2)| {
                b1.merge(&b2);
                for (a, b) in h1.iter_mut().zip(&h2) {
                    *a += b;
                }
                (b1, h1)
            },
        );
    let (boundary, prop_hits) = partial;

    // Significant-injection counts (pure bookkeeping, no runs needed).
    let mut sig_injections = vec![0u32; n_sites];
    for e in samples.experiments() {
        let v = golden.value(e.site);
        if relative_error(v, v + e.injected_err, REL_FLOOR) > SIGNIFICANT_REL_ERR {
            sig_injections[e.site] += 1;
        }
    }

    Inference {
        boundary,
        prop_hits,
        sig_injections,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleSet;
    use ftb_inject::{Classifier, Experiment, Outcome};
    use ftb_kernels::{MatvecConfig, MatvecKernel, StencilConfig, StencilKernel};

    fn stencil_injector(k: &StencilKernel) -> Injector<'_> {
        Injector::new(k, Classifier::new(1e-6))
    }

    #[test]
    fn filter_mode_round_trips_its_flag_spelling() {
        for mode in [FilterMode::Off, FilterMode::PerSite, FilterMode::Global] {
            assert_eq!(mode.to_string().parse::<FilterMode>(), Ok(mode));
        }
        assert_eq!(FilterMode::PerSite.to_string(), "per-site");
        let e = "sideways".parse::<FilterMode>().unwrap_err();
        assert_eq!(e, "unknown filter mode 'sideways'");
    }

    #[test]
    fn masked_injection_raises_threshold_at_its_own_site() {
        let k = StencilKernel::new(StencilConfig::small());
        let inj = stencil_injector(&k);
        // a low-mantissa flip somewhere in the first sweep: masked
        let site = k.config().grid * k.config().grid + 15;
        let e = inj.run_one(site, 20);
        assert_eq!(e.outcome, Outcome::Masked);
        let mut s = SampleSet::new();
        s.insert(e);
        let inf = infer_boundary(&inj, &s, FilterMode::Off);
        assert!(
            inf.boundary.threshold(site) >= e.injected_err,
            "threshold {} below injected {}",
            inf.boundary.threshold(site),
            e.injected_err
        );
        // and the error propagated forward to later sites
        let downstream = (site + 1..inj.n_sites())
            .filter(|&j| inf.boundary.threshold(j) > 0.0)
            .count();
        assert!(downstream > 0, "no propagation recorded downstream");
    }

    #[test]
    fn sdc_experiments_contribute_nothing_to_the_boundary() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let e = inj.run_one(0, 63); // sign flip of A element: SDC
        assert!(e.outcome.is_sdc());
        let mut s = SampleSet::new();
        s.insert(e);
        let inf = infer_boundary(&inj, &s, FilterMode::Off);
        assert_eq!(inf.boundary.coverage(), 0.0);
    }

    #[test]
    fn per_site_filter_caps_thresholds_below_known_sdc() {
        let k = StencilKernel::new(StencilConfig::small());
        let inj = stencil_injector(&k);
        let samples = SampleSet::sample_sites_one_bit(&inj, inj.n_sites() / 2, 5);
        let unfiltered = infer_boundary(&inj, &samples, FilterMode::Off);
        let filtered = infer_boundary(&inj, &samples, FilterMode::PerSite);
        let mins = samples.min_sdc_injected(inj.n_sites());
        for (site, &min_sdc) in mins.iter().enumerate() {
            assert!(
                filtered.boundary.threshold(site) <= min_sdc,
                "filtered threshold above known SDC error at {site}"
            );
            assert!(
                filtered.boundary.threshold(site) <= unfiltered.boundary.threshold(site),
                "filtering must only lower thresholds"
            );
        }
    }

    /// §3.5's filter is strict: a masked run's propagated Δx that equals
    /// an error already known to cause SDC at that site must not raise
    /// the site's threshold to it.
    #[test]
    fn per_site_filter_rejects_a_delta_equal_to_the_site_minimum() {
        let k = StencilKernel::new(StencilConfig::small());
        let inj = stencil_injector(&k);
        let site = k.config().grid * k.config().grid + 15;
        let (masked, prop) = inj.run_one_traced(site, 20);
        assert_eq!(masked.outcome, Outcome::Masked);
        let (downstream, delta) = prop
            .iter()
            .find(|&(s, d)| s > site && d > 0.0)
            .expect("the flip propagates downstream");
        // an SDC record whose injected error is exactly that Δx
        let sdc = Experiment {
            site: downstream,
            bit: 0,
            injected_err: delta,
            output_err: 1.0,
            outcome: Outcome::Sdc,
        };
        let mut s = SampleSet::new();
        s.insert(masked);
        s.insert(sdc);
        let off = infer_boundary(&inj, &s, FilterMode::Off);
        assert_eq!(off.boundary.threshold(downstream), delta);
        let filtered = infer_boundary(&inj, &s, FilterMode::PerSite);
        assert!(
            filtered.boundary.threshold(downstream) < delta,
            "threshold {} reached the known SDC error {delta}",
            filtered.boundary.threshold(downstream)
        );
    }

    #[test]
    fn global_filter_is_at_least_as_strict_as_per_site() {
        let k = StencilKernel::new(StencilConfig::small());
        let inj = stencil_injector(&k);
        let samples = SampleSet::sample_sites_one_bit(&inj, inj.n_sites() / 2, 6);
        let per_site = infer_boundary(&inj, &samples, FilterMode::PerSite);
        let global = infer_boundary(&inj, &samples, FilterMode::Global);
        for site in 0..inj.n_sites() {
            assert!(global.boundary.threshold(site) <= per_site.boundary.threshold(site));
        }
    }

    #[test]
    fn inference_is_deterministic_under_parallelism() {
        let k = StencilKernel::new(StencilConfig::small());
        let inj = stencil_injector(&k);
        let samples = SampleSet::sample_sites(&inj, 40, 11);
        let a = infer_boundary(&inj, &samples, FilterMode::PerSite);
        let b = infer_boundary(&inj, &samples, FilterMode::PerSite);
        assert_eq!(a.boundary, b.boundary);
        assert_eq!(a.prop_hits, b.prop_hits);
    }

    #[test]
    fn information_count_is_positive_everywhere() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let mut s = SampleSet::new();
        s.insert(Experiment {
            site: 0,
            bit: 0,
            injected_err: 0.0,
            output_err: 0.0,
            outcome: Outcome::Masked,
        });
        let inf = infer_boundary(&inj, &s, FilterMode::Off);
        for site in 0..inj.n_sites() {
            assert!(inf.information(site) >= 1);
        }
    }

    #[test]
    fn streaming_inference_matches_buffered_exactly() {
        let k = StencilKernel::new(StencilConfig {
            grid: 8,
            sweeps: 4,
            ..StencilConfig::small()
        });
        let inj = stencil_injector(&k);
        let golden = inj.golden();
        let samples = SampleSet::sample_sites(&inj, 6, 9);
        for filter in [FilterMode::Off, FilterMode::PerSite] {
            let streamed = infer_boundary(&inj, &samples, filter);
            // reference: Algorithm 1 over fully recorded faulty traces
            let mins = samples.min_sdc_injected(inj.n_sites());
            let mut boundary = Boundary::zero(inj.n_sites());
            let mut hits = vec![0u32; inj.n_sites()];
            for e in samples.masked() {
                let (_, prop) = inj.run_one_traced(e.site, e.bit);
                for (site, err) in prop.iter().filter(|&(_, d)| d > 0.0) {
                    if filter == FilterMode::Off || err < mins[site] {
                        boundary.observe(site, err);
                    }
                    if relative_error(golden.value(site), golden.value(site) + err, REL_FLOOR)
                        > SIGNIFICANT_REL_ERR
                    {
                        hits[site] += 1;
                    }
                }
            }
            assert_eq!(streamed.boundary, boundary, "filter {filter:?}");
            assert_eq!(streamed.prop_hits, hits);
        }
    }

    #[test]
    fn empty_sample_set_yields_zero_boundary() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let inf = infer_boundary(&inj, &SampleSet::new(), FilterMode::PerSite);
        assert_eq!(inf.boundary.coverage(), 0.0);
        assert!(inf.prop_hits.iter().all(|&h| h == 0));
    }
}
