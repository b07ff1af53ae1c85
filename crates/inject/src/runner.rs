//! Checkpointed, observable campaign execution.
//!
//! [`ChunkedCampaign`] runs a deterministic fault plan one chunk at a
//! time, streaming every completed chunk into a crash-safe
//! [`ledger`](crate::ledger) and folding outcomes into live
//! [`CampaignMetrics`]. A campaign killed between (or during) chunks is
//! resumed by reloading the ledger: the intact record prefix is checked
//! against the plan and only the remaining `(site, bit)` pairs are
//! re-executed, so a resumed campaign produces the exact experiment
//! sequence an uninterrupted one would have.

use crate::campaign::{ExhaustiveResult, Injector};
use crate::experiment::Experiment;
use crate::ledger::{read_ledger, CampaignBinding, LedgerError, LedgerHeader, LedgerWriter};
use crate::obs::{CampaignMetrics, MetricsSnapshot, ProgressReporter};
use ftb_stats::sampling::seeded_rng;
use ftb_trace::FaultSpec;
use rand::Rng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Default number of experiments per chunk (one ledger write each).
pub const DEFAULT_CHUNK: usize = 256;

/// The exhaustive plan: every bit of every site, site-major — the same
/// layout as [`ExhaustiveResult::codes`].
pub fn exhaustive_plan(n_sites: usize, bits: u8) -> Vec<FaultSpec> {
    (0..n_sites)
        .flat_map(|site| (0..bits).map(move |bit| FaultSpec { site, bit }))
        .collect()
}

/// The bit-pruned exhaustive plan: every bit of every site in site-major
/// order, *except* the `(site, bit)` cells whose bit is set in
/// `certified[site]` — those are statically certified masked
/// (`BitClass::CertifiedMasked` in `ftb-core`) and need no execution.
/// Crash-likely bits are **not** skipped: the prediction there is about
/// the corrupted value being non-finite, not about the outcome being
/// ignorable, so they stay in the plan and keep the ground truth honest.
///
/// The surviving pairs appear in exactly the order [`exhaustive_plan`]
/// would visit them, so a pruned ledger replays deterministically and
/// the differential harness can compare pruned and unpruned campaigns
/// cell-for-cell on every non-certified pair.
///
/// # Panics
/// Panics if `certified` does not have one mask word per site.
pub fn pruned_exhaustive_plan(n_sites: usize, bits: u8, certified: &[u64]) -> Vec<FaultSpec> {
    assert_eq!(
        certified.len(),
        n_sites,
        "certified masks cover a different fault space"
    );
    (0..n_sites)
        .flat_map(|site| {
            (0..bits)
                .filter(move |&bit| certified[site] & (1u64 << bit) == 0)
                .map(move |bit| FaultSpec { site, bit })
        })
        .collect()
}

/// The uniform Monte-Carlo plan: `n` pairs drawn with replacement,
/// identical to the sequence `monte_carlo` executes for this seed.
pub fn monte_carlo_plan(n_sites: usize, bits: u8, n: u64, seed: u64) -> Vec<FaultSpec> {
    let mut rng = seeded_rng(seed);
    (0..n)
        .map(|_| FaultSpec {
            site: rng.gen_range(0..n_sites),
            bit: rng.gen_range(0..bits),
        })
        .collect()
}

/// A resumable chunk-at-a-time campaign over a fixed fault plan.
pub struct ChunkedCampaign<'k> {
    injector: &'k Injector<'k>,
    plan: Vec<FaultSpec>,
    /// Index into `plan` of the first pair not yet executed.
    next: usize,
    completed: Vec<Experiment>,
    writer: Option<LedgerWriter>,
    chunk_size: usize,
    metrics: CampaignMetrics,
    reporter: Option<ProgressReporter>,
}

impl<'k> ChunkedCampaign<'k> {
    /// A fresh in-memory campaign (no ledger) over `plan`.
    pub fn new(injector: &'k Injector<'k>, plan: Vec<FaultSpec>, chunk_size: usize) -> Self {
        let total = plan.len() as u64;
        ChunkedCampaign {
            injector,
            plan,
            next: 0,
            completed: Vec::new(),
            writer: None,
            chunk_size: chunk_size.max(1),
            metrics: CampaignMetrics::new(total),
            reporter: None,
        }
    }

    /// Attach a crash-safe ledger at `path`.
    ///
    /// With `resume` set and an existing file present, the ledger is
    /// recovered: its binding must match, its record prefix must agree
    /// with the plan pair-for-pair, and execution continues from the
    /// first missing pair. Otherwise a fresh ledger is created.
    pub fn with_ledger(
        mut self,
        path: &Path,
        binding: CampaignBinding,
        resume: bool,
    ) -> Result<Self, LedgerError> {
        if resume && path.exists() {
            let rec = read_ledger(path)?;
            if let Some(field) = rec.header.binding.mismatch(&binding) {
                return Err(LedgerError::BindingMismatch {
                    found: Box::new(rec.header.binding),
                    field,
                });
            }
            if rec.experiments.len() > self.plan.len() {
                return Err(LedgerError::Format {
                    line: rec.experiments.len() + 1,
                    msg: format!(
                        "ledger has {} records but the plan only has {} experiments",
                        rec.experiments.len(),
                        self.plan.len()
                    ),
                });
            }
            for (i, (e, f)) in rec.experiments.iter().zip(&self.plan).enumerate() {
                if e.key() != (f.site, f.bit) {
                    return Err(LedgerError::Format {
                        line: i + 2,
                        msg: format!(
                            "record {:?} does not match planned pair ({}, {})",
                            e.key(),
                            f.site,
                            f.bit
                        ),
                    });
                }
            }
            self.next = rec.experiments.len();
            self.metrics.note_resumed(&rec.experiments);
            self.completed = rec.experiments;
            self.writer = Some(LedgerWriter::resume(path, rec.valid_len)?);
        } else {
            let header = LedgerHeader::new(binding);
            self.writer = Some(LedgerWriter::create(path, &header)?);
        }
        Ok(self)
    }

    /// Attach a throttled stderr progress reporter.
    pub fn with_reporter(mut self, label: impl Into<String>, every: Duration) -> Self {
        self.reporter = Some(ProgressReporter::new(label, every));
        self
    }

    /// Experiments not yet executed.
    pub fn remaining(&self) -> usize {
        self.plan.len() - self.next
    }

    /// Whether every planned pair has run.
    pub fn is_done(&self) -> bool {
        self.next == self.plan.len()
    }

    /// Run one chunk through [`Injector::run_many`] (parallel, and
    /// lane-batched when the injector is configured for it), append it
    /// to the ledger, update metrics. Returns how many experiments ran —
    /// 0 means the campaign was already complete.
    pub fn step(&mut self) -> Result<usize, LedgerError> {
        let end = (self.next + self.chunk_size).min(self.plan.len());
        if self.next == end {
            return Ok(0);
        }
        let started = Instant::now();
        let chunk = self.injector.run_many(&self.plan[self.next..end]);
        if let Some(w) = &mut self.writer {
            w.append_chunk(&chunk)?;
        }
        self.metrics.record_chunk(&chunk, started.elapsed());
        self.next = end;
        self.completed.extend_from_slice(&chunk);
        let done = self.is_done();
        if let Some(r) = &mut self.reporter {
            r.report(&self.metrics, done);
        }
        Ok(chunk.len())
    }

    /// Run every remaining chunk.
    pub fn run_to_completion(&mut self) -> Result<(), LedgerError> {
        while self.step()? > 0 {}
        Ok(())
    }

    /// All completed experiments in plan order (resumed + executed).
    pub fn experiments(&self) -> &[Experiment] {
        &self.completed
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Consume the campaign, returning its experiments.
    pub fn into_experiments(self) -> Vec<Experiment> {
        self.completed
    }

    /// Convert a finished exhaustive campaign into the dense outcome
    /// table.
    ///
    /// # Panics
    /// Panics if the campaign is not complete or its plan is not the
    /// exhaustive site-major layout.
    pub fn into_exhaustive(self) -> ExhaustiveResult {
        assert!(self.is_done(), "campaign still has pending experiments");
        let n_sites = self.injector.n_sites();
        let bits = self.injector.bits();
        assert_eq!(
            self.plan.len(),
            n_sites * bits as usize,
            "plan does not cover the full fault space"
        );
        let codes: Vec<u8> = self
            .completed
            .iter()
            .enumerate()
            .map(|(i, e)| {
                assert_eq!(
                    e.key(),
                    (i / bits as usize, (i % bits as usize) as u8),
                    "plan is not in exhaustive site-major order"
                );
                e.outcome.code()
            })
            .collect();
        ExhaustiveResult {
            n_sites,
            bits,
            codes,
        }
    }

    /// Convert a finished [`pruned_exhaustive_plan`] campaign into the
    /// dense outcome table, filling every certified (skipped) cell with
    /// `Masked` — exactly the outcome the certificate guarantees. The
    /// result has the same layout as [`into_exhaustive`](Self::into_exhaustive),
    /// so everything downstream (inference, metrics, reports) consumes it
    /// unchanged.
    ///
    /// # Panics
    /// Panics if the campaign is not complete or its plan is not the
    /// pruned site-major layout for these masks.
    pub fn into_exhaustive_with_certified(self, certified: &[u64]) -> ExhaustiveResult {
        assert!(self.is_done(), "campaign still has pending experiments");
        let n_sites = self.injector.n_sites();
        let bits = self.injector.bits();
        assert_eq!(
            certified.len(),
            n_sites,
            "certified masks cover a different fault space"
        );
        let masked = crate::outcome::Outcome::Masked.code();
        let mut codes = vec![masked; n_sites * bits as usize];
        let mut executed = self.completed.iter();
        for site in 0..n_sites {
            for bit in 0..bits {
                if certified[site] & (1u64 << bit) != 0 {
                    continue;
                }
                let e = executed
                    .next()
                    .expect("plan does not cover every non-certified pair");
                assert_eq!(
                    e.key(),
                    (site, bit),
                    "plan is not in pruned site-major order"
                );
                codes[site * bits as usize + bit as usize] = e.outcome.code();
            }
        }
        assert!(
            executed.next().is_none(),
            "plan has experiments beyond the pruned fault space"
        );
        ExhaustiveResult {
            n_sites,
            bits,
            codes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Classifier;
    use ftb_kernels::{KernelConfig, MatvecConfig, MatvecKernel};
    use std::path::PathBuf;

    fn tiny_kernel() -> MatvecKernel {
        MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        })
    }

    fn binding(inj: &Injector<'_>, plan: &str) -> CampaignBinding {
        CampaignBinding {
            kernel: KernelConfig::Matvec(MatvecConfig {
                n: 4,
                ..MatvecConfig::small()
            }),
            classifier: *inj.classifier(),
            n_sites: inj.n_sites(),
            bits: inj.bits(),
            plan: plan.to_string(),
            bit_prune: None,
            snapshot: None,
            batch: None,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ftb-runner-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn exhaustive_plan_matches_result_layout() {
        let plan = exhaustive_plan(3, 4);
        assert_eq!(plan.len(), 12);
        assert_eq!((plan[0].site, plan[0].bit), (0, 0));
        assert_eq!((plan[5].site, plan[5].bit), (1, 1));
        assert_eq!((plan[11].site, plan[11].bit), (2, 3));
    }

    #[test]
    fn pruned_plan_skips_exactly_the_certified_bits() {
        // site 0: bits 1 and 3 certified; site 1: nothing; site 2: all 4
        let certified = vec![0b1010u64, 0, 0b1111];
        let plan = pruned_exhaustive_plan(3, 4, &certified);
        let pairs: Vec<(usize, u8)> = plan.iter().map(|f| (f.site, f.bit)).collect();
        assert_eq!(pairs, vec![(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3)]);
        // empty masks degenerate to the exhaustive plan
        let full = pruned_exhaustive_plan(3, 4, &[0, 0, 0]);
        assert_eq!(full.len(), exhaustive_plan(3, 4).len());
    }

    #[test]
    fn pruned_campaign_fills_certified_cells_with_masked() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let truth = inj.exhaustive();
        // certify only bits that really are masked, from the ground
        // truth itself: the pruned table must then equal the full one.
        let masked_code = crate::outcome::Outcome::Masked.code();
        let bits = inj.bits() as usize;
        let certified: Vec<u64> = (0..inj.n_sites())
            .map(|site| {
                (0..bits.min(8)) // prune a slice of the low mantissa bits
                    .filter(|&b| truth.codes[site * bits + b] == masked_code)
                    .fold(0u64, |m, b| m | 1 << b)
            })
            .collect();
        let skipped: u64 = certified.iter().map(|m| m.count_ones() as u64).sum();
        assert!(skipped > 0, "tiny matvec should mask some low bits");

        let plan = pruned_exhaustive_plan(inj.n_sites(), inj.bits(), &certified);
        assert_eq!(plan.len() as u64 + skipped, (inj.n_sites() * bits) as u64);
        let mut cc = ChunkedCampaign::new(&inj, plan, 37);
        cc.run_to_completion().unwrap();
        assert_eq!(cc.into_exhaustive_with_certified(&certified), truth);
    }

    #[test]
    #[should_panic(expected = "pruned site-major order")]
    fn pruned_completion_rejects_foreign_plans() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let certified = vec![1u64; inj.n_sites()]; // claims bit 0 skipped
        let mut cc = ChunkedCampaign::new(&inj, exhaustive_plan(inj.n_sites(), inj.bits()), 64);
        cc.run_to_completion().unwrap();
        let _ = cc.into_exhaustive_with_certified(&certified);
    }

    #[test]
    fn monte_carlo_plan_is_deterministic_and_in_range() {
        let a = monte_carlo_plan(20, 64, 50, 9);
        let b = monte_carlo_plan(20, 64, 50, 9);
        assert_eq!(a.len(), 50);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| (x.site, x.bit) == (y.site, y.bit)));
        assert!(a.iter().all(|f| f.site < 20 && f.bit < 64));
        let c = monte_carlo_plan(20, 64, 50, 10);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| (x.site, x.bit) != (y.site, y.bit)));
    }

    #[test]
    fn chunked_run_matches_direct_exhaustive() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let mut cc = ChunkedCampaign::new(&inj, exhaustive_plan(inj.n_sites(), inj.bits()), 37);
        cc.run_to_completion().unwrap();
        let m = cc.metrics();
        assert_eq!(m.completed, m.total);
        assert!(m.chunks > 1, "37-wide chunks over the space need >1 step");
        let table = cc.into_exhaustive();
        assert_eq!(table, inj.exhaustive());
    }

    #[test]
    fn killed_campaign_resumes_and_reruns_only_the_tail() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let plan = exhaustive_plan(inj.n_sites(), inj.bits());
        let total = plan.len();
        let path = tmp("resume.jsonl");
        let _ = std::fs::remove_file(&path);

        // run 3 chunks, then "crash" (drop mid-campaign)
        let mut first = ChunkedCampaign::new(&inj, plan.clone(), 50)
            .with_ledger(&path, binding(&inj, "exhaustive"), false)
            .unwrap();
        for _ in 0..3 {
            assert_eq!(first.step().unwrap(), 50);
        }
        drop(first);

        // resume: 150 pairs come from the ledger, the rest execute
        let mut second = ChunkedCampaign::new(&inj, plan, 50)
            .with_ledger(&path, binding(&inj, "exhaustive"), true)
            .unwrap();
        assert_eq!(second.remaining(), total - 150);
        let m = second.metrics();
        assert_eq!(m.resumed, 150);
        second.run_to_completion().unwrap();
        let m = second.metrics();
        assert_eq!(m.completed as usize, total);
        assert_eq!(m.executed as usize, total - 150);
        assert_eq!(second.into_exhaustive(), inj.exhaustive());

        // and the finished ledger replays to the same table
        let rec = read_ledger(&path).unwrap();
        assert_eq!(rec.experiments.len(), total);
    }

    #[test]
    fn resume_rejects_mismatched_binding() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let plan = exhaustive_plan(inj.n_sites(), inj.bits());
        let path = tmp("mismatch.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut cc = ChunkedCampaign::new(&inj, plan.clone(), 64)
            .with_ledger(&path, binding(&inj, "exhaustive"), false)
            .unwrap();
        cc.step().unwrap();
        drop(cc);

        let other = binding(&inj, "monte-carlo n=5 seed=0");
        match ChunkedCampaign::new(&inj, plan, 64).with_ledger(&path, other, true) {
            Err(LedgerError::BindingMismatch { found, field }) => {
                assert_eq!(found.plan, "exhaustive");
                assert_eq!(field, "plan");
            }
            other => panic!("expected BindingMismatch, got {:?}", other.err()),
        }
    }

    #[test]
    fn resume_rejects_plan_disagreement() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let path = tmp("plan-disagree.jsonl");
        let _ = std::fs::remove_file(&path);

        let plan = exhaustive_plan(inj.n_sites(), inj.bits());
        let mut cc = ChunkedCampaign::new(&inj, plan, 64)
            .with_ledger(&path, binding(&inj, "exhaustive"), false)
            .unwrap();
        cc.step().unwrap();
        drop(cc);

        // same binding, but a plan whose pairs differ from the records
        let shifted = monte_carlo_plan(inj.n_sites(), inj.bits(), 64, 3);
        match ChunkedCampaign::new(&inj, shifted, 64).with_ledger(
            &path,
            binding(&inj, "exhaustive"),
            true,
        ) {
            Err(LedgerError::Format { .. }) => {}
            other => panic!("expected Format error, got {:?}", other.err()),
        }
    }

    #[test]
    fn resume_refuses_a_record_outside_the_site_space() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let path = tmp("site-out-of-range.jsonl");
        let _ = std::fs::remove_file(&path);
        let plan = exhaustive_plan(inj.n_sites(), inj.bits());
        let mut cc = ChunkedCampaign::new(&inj, plan.clone(), 64)
            .with_ledger(&path, binding(&inj, "exhaustive"), false)
            .unwrap();
        cc.step().unwrap();
        drop(cc);

        // corrupt the first record's site to one past the last site: a
        // well-formed line the resumed campaign must refuse, not execute
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let mut record: Experiment = serde_json::from_str(&lines[1]).unwrap();
        record.site = inj.n_sites();
        lines[1] = serde_json::to_string(&record).unwrap();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        assert_eq!(
            read_ledger(&path).unwrap().experiments[0].site,
            inj.n_sites()
        );

        match ChunkedCampaign::new(&inj, plan, 64).with_ledger(
            &path,
            binding(&inj, "exhaustive"),
            true,
        ) {
            Err(LedgerError::Format { line: 2, .. }) => {}
            other => panic!("expected a Format error at line 2, got {:?}", other.err()),
        }
    }

    #[test]
    fn resume_without_existing_file_starts_fresh() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let path = tmp("fresh.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut cc = ChunkedCampaign::new(&inj, exhaustive_plan(inj.n_sites(), inj.bits()), 512)
            .with_ledger(&path, binding(&inj, "exhaustive"), true)
            .unwrap();
        assert_eq!(cc.metrics().resumed, 0);
        cc.run_to_completion().unwrap();
        assert!(path.exists());
    }

    #[test]
    fn monte_carlo_chunked_matches_monte_carlo() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, Classifier::new(1e-6));
        let direct = crate::monte_carlo::monte_carlo(&inj, 100, 0.95, 5);
        let plan = monte_carlo_plan(inj.n_sites(), inj.bits(), 100, 5);
        let mut cc = ChunkedCampaign::new(&inj, plan, 33);
        cc.run_to_completion().unwrap();
        let est = crate::monte_carlo::summarize(cc.experiments(), 0.95);
        assert_eq!(est.n_sdc, direct.n_sdc);
        assert_eq!(est.n_masked, direct.n_masked);
        assert_eq!(est.distinct_sites, direct.distinct_sites);
    }
}
