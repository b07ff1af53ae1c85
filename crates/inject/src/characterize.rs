//! Serial-vs-parallel outcome characterization.
//!
//! The paper's campaigns are embarrassingly parallel, and the whole
//! analysis stack leans on that: a fault-injection outcome must not
//! depend on how many workers executed the campaign. This module makes
//! that claim *measurable*. It re-runs the exhaustive campaign under
//! dedicated Rayon pools of different sizes (1, 4, 8 threads by
//! default), builds a per-site outcome histogram (Masked/SDC/Crash
//! counts over the bit axis) for each pool size, and compares the
//! per-site distributions across pool sizes with the total-variation
//! distance
//!
//! ```text
//! TVD(p, q) = ½ · Σ_o |p(o) − q(o)|,   o ∈ {Masked, SDC, Crash}
//! ```
//!
//! Because every experiment is an independent re-execution over
//! immutable inputs, the expected TVD is exactly zero for every site —
//! a nonzero distance is a reproducibility bug (shared mutable state, a
//! reduction-order dependence, a data race), and the report's
//! `deterministic` flag is designed to be gated in CI.

use crate::campaign::{ExhaustiveResult, Injector};
use crate::outcome::Outcome;
use serde::{Deserialize, Serialize};

/// Outcome histogram of one site over the bit axis; the three counts
/// sum to the word width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SiteHistogram {
    /// Masked outcomes at this site.
    pub masked: u32,
    /// SDC outcomes at this site.
    pub sdc: u32,
    /// Crash outcomes at this site.
    pub crash: u32,
}

impl SiteHistogram {
    /// Total experiments at the site.
    pub fn total(&self) -> u32 {
        self.masked + self.sdc + self.crash
    }
}

/// One pool size's complete campaign summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadRun {
    /// Rayon pool size the campaign ran under.
    pub threads: usize,
    /// Total masked outcomes.
    pub masked: u64,
    /// Total SDC outcomes.
    pub sdc: u64,
    /// Total crash outcomes.
    pub crash: u64,
    /// Per-site outcome histograms (`n_sites` entries).
    pub histograms: Vec<SiteHistogram>,
}

/// Distribution distance between two pool sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairDelta {
    /// Smaller pool of the pair.
    pub threads_a: usize,
    /// Larger pool of the pair.
    pub threads_b: usize,
    /// Largest per-site total-variation distance.
    pub max_tvd: f64,
    /// Mean per-site total-variation distance.
    pub mean_tvd: f64,
    /// Number of sites whose outcome distributions differ at all.
    pub diverging_sites: usize,
    /// The site with the largest distance, when any diverge.
    pub worst_site: Option<usize>,
}

/// The full serial-vs-parallel characterization artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizeReport {
    /// Kernel under test.
    pub kernel: String,
    /// Classifier tolerance the outcomes were judged against.
    pub tolerance: f64,
    /// Fault-injection sites per campaign.
    pub n_sites: usize,
    /// Bits per site.
    pub bits: u8,
    /// Experiments per campaign (`n_sites × bits`).
    pub n_experiments: u64,
    /// Pool sizes exercised, in input order.
    pub thread_counts: Vec<usize>,
    /// One campaign summary per pool size.
    pub runs: Vec<ThreadRun>,
    /// Pairwise distances between consecutive-larger pool pairs
    /// (every pool size compared against the first, serial, one —
    /// plus each adjacent pair).
    pub pairs: Vec<PairDelta>,
    /// True iff every pairwise per-site distance is exactly zero: the
    /// campaign outcome is independent of worker count. This is the
    /// CI-gated reproducibility bit.
    pub deterministic: bool,
}

/// Per-site outcome histograms of an exhaustive table.
fn histograms(ex: &ExhaustiveResult) -> Vec<SiteHistogram> {
    let b = ex.bits as usize;
    ex.codes
        .chunks_exact(b)
        .map(|chunk| {
            let mut h = SiteHistogram::default();
            for &code in chunk {
                match code {
                    c if c == Outcome::Masked.code() => h.masked += 1,
                    c if c == Outcome::Sdc.code() => h.sdc += 1,
                    _ => h.crash += 1,
                }
            }
            h
        })
        .collect()
}

/// Total-variation distance between two site histograms over the same
/// bit count: `½ Σ |p − q|` with counts normalised to probabilities.
pub fn site_tvd(a: &SiteHistogram, b: &SiteHistogram, bits: u8) -> f64 {
    let n = f64::from(bits);
    0.5 * ([(a.masked, b.masked), (a.sdc, b.sdc), (a.crash, b.crash)]
        .iter()
        .map(|&(x, y)| (f64::from(x) / n - f64::from(y) / n).abs())
        .sum::<f64>())
}

fn pair_delta(a: &ThreadRun, b: &ThreadRun, bits: u8) -> PairDelta {
    let mut max_tvd = 0.0f64;
    let mut sum = 0.0f64;
    let mut diverging = 0usize;
    let mut worst = None;
    for (site, (ha, hb)) in a.histograms.iter().zip(&b.histograms).enumerate() {
        let d = site_tvd(ha, hb, bits);
        sum += d;
        if d > 0.0 {
            diverging += 1;
        }
        if d > max_tvd {
            max_tvd = d;
            worst = Some(site);
        }
    }
    let n = a.histograms.len().max(1);
    PairDelta {
        threads_a: a.threads,
        threads_b: b.threads,
        max_tvd,
        mean_tvd: sum / n as f64,
        diverging_sites: diverging,
        worst_site: worst,
    }
}

/// Run the exhaustive campaign once per pool size and compare the
/// per-site outcome distributions.
///
/// Each campaign runs inside its own dedicated
/// `rayon::ThreadPoolBuilder` pool, so the ambient global pool never
/// leaks into the measurement. The injector (and its recorded golden
/// run) is shared across pool sizes — only the execution schedule
/// changes between runs, which is exactly the variable under test.
///
/// # Panics
/// Panics if `thread_counts` is empty, contains a zero, or a pool
/// fails to build.
#[expect(clippy::expect_used, reason = "documented panic")]
pub fn characterize(injector: &Injector<'_>, thread_counts: &[usize]) -> CharacterizeReport {
    assert!(!thread_counts.is_empty(), "need at least one pool size");
    let bits = injector.bits();
    let runs: Vec<ThreadRun> = thread_counts
        .iter()
        .map(|&threads| {
            assert!(threads > 0, "pool size must be at least 1");
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("building a characterization pool");
            let ex = pool.install(|| injector.exhaustive());
            let (masked, sdc, crash) = ex.counts();
            ThreadRun {
                threads,
                masked,
                sdc,
                crash,
                histograms: histograms(&ex),
            }
        })
        .collect();

    // Compare everything against the serial baseline (the first entry),
    // plus adjacent pairs — for [1, 4, 8] that yields 1↔4, 1↔8, 4↔8.
    let mut pairs = Vec::new();
    for i in 1..runs.len() {
        pairs.push(pair_delta(&runs[0], &runs[i], bits));
        if i >= 2 {
            pairs.push(pair_delta(&runs[i - 1], &runs[i], bits));
        }
    }
    let deterministic = pairs.iter().all(|p| p.max_tvd == 0.0);

    CharacterizeReport {
        kernel: injector.kernel().name().to_string(),
        tolerance: injector.classifier().tolerance,
        n_sites: injector.n_sites(),
        bits,
        n_experiments: injector.n_sites() as u64 * u64::from(bits),
        thread_counts: thread_counts.to_vec(),
        runs,
        pairs,
        deterministic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Classifier;
    use ftb_kernels::{MatvecConfig, MatvecKernel};

    fn tiny_kernel() -> MatvecKernel {
        MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        })
    }

    #[test]
    fn pool_size_does_not_change_outcomes() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let r = characterize(&inj, &[1, 2, 4]);
        assert_eq!(r.runs.len(), 3);
        assert_eq!(r.pairs.len(), 3, "1↔2, 1↔4, 2↔4");
        assert!(r.deterministic, "{r:?}");
        for p in &r.pairs {
            assert_eq!(p.max_tvd, 0.0);
            assert_eq!(p.diverging_sites, 0);
            assert_eq!(p.worst_site, None);
        }
        // all pool sizes agree on the aggregate counts too
        for w in r.runs.windows(2) {
            assert_eq!(
                (w[0].masked, w[0].sdc, w[0].crash),
                (w[1].masked, w[1].sdc, w[1].crash)
            );
        }
    }

    #[test]
    fn histograms_partition_the_bit_axis() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let r = characterize(&inj, &[1]);
        assert_eq!(r.n_sites, inj.n_sites());
        assert_eq!(r.n_experiments, inj.n_sites() as u64 * 64);
        let run = &r.runs[0];
        assert_eq!(run.histograms.len(), r.n_sites);
        for h in &run.histograms {
            assert_eq!(h.total(), u32::from(r.bits));
        }
        let total: u64 = run.histograms.iter().map(|h| u64::from(h.total())).sum();
        assert_eq!(total, r.n_experiments);
        assert_eq!(run.masked + run.sdc + run.crash, r.n_experiments);
    }

    fn h(masked: u32, sdc: u32, crash: u32) -> SiteHistogram {
        SiteHistogram { masked, sdc, crash }
    }

    #[test]
    fn tvd_is_half_l1_on_probabilities() {
        // identical → 0
        assert_eq!(site_tvd(&h(32, 16, 16), &h(32, 16, 16), 64), 0.0);
        // disjoint → 1
        assert_eq!(site_tvd(&h(64, 0, 0), &h(0, 64, 0), 64), 1.0);
        // half the mass moved → ½
        let d = site_tvd(&h(64, 0, 0), &h(32, 32, 0), 64);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn synthetic_divergence_is_detected() {
        let a = ThreadRun {
            threads: 1,
            masked: 64,
            sdc: 0,
            crash: 0,
            histograms: vec![h(64, 0, 0), h(64, 0, 0)],
        };
        let mut b = a.clone();
        b.threads = 8;
        b.histograms[1] = h(48, 16, 0); // a quarter of site 1 flipped to SDC
        let p = pair_delta(&a, &b, 64);
        assert_eq!(p.diverging_sites, 1);
        assert_eq!(p.worst_site, Some(1));
        assert!((p.max_tvd - 0.25).abs() < 1e-12);
        assert!((p.mean_tvd - 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_pool_size_rejected() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let _ = characterize(&inj, &[0]);
    }
}
