//! A Relyzer-style *pilot grouping* baseline.
//!
//! The paper's closest related work (Hari et al., Relyzer; Kaliorakis et
//! al., Merlin — its §6) reduces campaign cost by **grouping** dynamic
//! instructions expected to behave alike, fully testing one *pilot* per
//! group, and assigning the pilot's outcome profile to every member.
//! The paper positions the boundary method against this family: "instead
//! of grouping multiple instructions and picking one dynamic
//! instruction's resiliency to represent all, our approach uses the
//! propagation data to predict the resiliency of all fault injection
//! sites".
//!
//! This module implements the grouping baseline so the comparison can be
//! run rather than argued: sites are grouped by their static instruction
//! and position bucket (instructions from the same code site at nearby
//! execution points — the "similar propagation path" heuristic), the
//! central site of each group is tested exhaustively, and its per-bit
//! outcome profile stands in for the whole group.

use crate::sample::SampleSet;
use ftb_inject::Injector;
use ftb_trace::GoldenRun;
use serde::{Deserialize, Serialize};

/// Configuration of the pilot-grouping estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PilotConfig {
    /// Number of position buckets each static instruction's dynamic
    /// instances are split into (more buckets = finer groups = more
    /// pilots = higher cost).
    pub buckets_per_static: usize,
}

impl Default for PilotConfig {
    fn default() -> Self {
        PilotConfig {
            buckets_per_static: 4,
        }
    }
}

/// Result of a pilot-grouping campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PilotEstimate {
    /// Per-site estimated SDC ratio (each site inherits its group
    /// pilot's ratio).
    pub per_site: Vec<f64>,
    /// The pilot experiments that were actually run.
    pub samples: SampleSet,
    /// Number of groups formed.
    pub n_groups: usize,
}

impl PilotEstimate {
    /// Estimated overall SDC ratio (mean over sites).
    pub fn overall_sdc_ratio(&self) -> f64 {
        if self.per_site.is_empty() {
            return 0.0;
        }
        self.per_site.iter().sum::<f64>() / self.per_site.len() as f64
    }
}

/// Group sites by `(static instruction, position bucket)` and return, per
/// group, its member sites (in execution order).
fn build_groups(golden: &GoldenRun, buckets: usize) -> Vec<Vec<usize>> {
    use std::collections::HashMap;
    // collect sites per static id, in execution order
    let mut per_static: HashMap<u32, Vec<usize>> = HashMap::new();
    for (site, id) in golden.static_ids(0..golden.n_sites()).enumerate() {
        per_static.entry(id.0).or_default().push(site);
    }
    let mut ids: Vec<u32> = per_static.keys().copied().collect();
    ids.sort_unstable();
    let mut groups = Vec::new();
    for id in ids {
        let sites = &per_static[&id];
        let b = buckets.min(sites.len()).max(1);
        for chunk in sites.chunks(sites.len().div_ceil(b)) {
            groups.push(chunk.to_vec());
        }
    }
    groups
}

/// Run the pilot-grouping campaign: exhaustively test the central site of
/// every group and assign its SDC ratio to all members.
pub fn pilot_estimate(injector: &Injector<'_>, cfg: &PilotConfig) -> PilotEstimate {
    assert!(cfg.buckets_per_static > 0, "need at least one bucket");
    let golden = injector.golden();
    let groups = build_groups(golden, cfg.buckets_per_static);
    let bits = injector.bits();

    let mut per_site = vec![0.0; golden.n_sites()];
    let mut samples = SampleSet::new();
    for group in &groups {
        let pilot = group[group.len() / 2];
        let mut sdc = 0u32;
        for bit in 0..bits {
            let e = injector.run_one(pilot, bit);
            sdc += u32::from(e.outcome.is_sdc());
            samples.insert(e);
        }
        let ratio = f64::from(sdc) / f64::from(bits);
        for &site in group {
            per_site[site] = ratio;
        }
    }

    PilotEstimate {
        per_site,
        samples,
        n_groups: groups.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_inject::Classifier;
    use ftb_kernels::{Kernel, MatvecConfig, MatvecKernel, StencilConfig, StencilKernel};

    #[test]
    fn groups_partition_all_sites() {
        let k = StencilKernel::new(StencilConfig {
            grid: 6,
            sweeps: 3,
            ..StencilConfig::small()
        });
        let g = k.golden();
        let groups = build_groups(&g, 4);
        let mut covered: Vec<usize> = groups.iter().flatten().copied().collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(
            covered.len(),
            g.n_sites(),
            "groups must partition the sites"
        );
    }

    #[test]
    fn more_buckets_make_more_groups() {
        let k = StencilKernel::new(StencilConfig {
            grid: 6,
            sweeps: 3,
            ..StencilConfig::small()
        });
        let g = k.golden();
        let coarse = build_groups(&g, 1).len();
        let fine = build_groups(&g, 8).len();
        assert!(fine > coarse);
    }

    #[test]
    fn estimate_covers_every_site_with_group_cost() {
        let k = MatvecKernel::new(MatvecConfig {
            n: 5,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let est = pilot_estimate(&inj, &PilotConfig::default());
        assert_eq!(est.per_site.len(), inj.n_sites());
        // cost = groups × bits, far below exhaustive
        assert_eq!(est.samples.len(), est.n_groups * 64);
        assert!((est.samples.len() as u64) < inj.golden().n_experiments());
        assert!((0.0..=1.0).contains(&est.overall_sdc_ratio()));
    }

    #[test]
    fn uniform_kernel_groups_estimate_exactly() {
        // matvec init sites of the same static instruction behave alike;
        // the pilot estimate of an init group should match the group's
        // true mean reasonably (spot check the structure, not accuracy)
        let k = MatvecKernel::new(MatvecConfig {
            n: 5,
            ..MatvecConfig::small()
        });
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let est = pilot_estimate(
            &inj,
            &PilotConfig {
                buckets_per_static: 2,
            },
        );
        // every site got an estimate from some pilot
        let distinct: std::collections::HashSet<u64> =
            est.per_site.iter().map(|r| r.to_bits()).collect();
        assert!(distinct.len() <= est.n_groups + 1);
    }
}
