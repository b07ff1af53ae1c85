//! Campaign execution: single experiments, experiment batches, and the
//! exhaustive ground-truth campaign.
//!
//! Fault-injection campaigns are embarrassingly parallel — every
//! experiment is an independent re-execution of the kernel — so batches
//! fan out over Rayon's `par_iter`. Experiment costs vary widely (one
//! fault traps at once, another runs past convergence), so the workers
//! self-schedule: each claims the next few experiments from a shared
//! counter until the batch is exhausted, and no worker idles behind a
//! fixed slice while another still has a queue. Kernels are immutable
//! (`&dyn Kernel` is `Sync`) and each worker owns its run's tracer, so
//! the claim counter is the only shared mutable state.
//!
//! Every outcome campaign (exhaustive, Monte-Carlo, ledger chunks,
//! samplers) runs through [`Injector::run_many`]: classifying an
//! experiment needs only its final output. Comparing a faulty run
//! against the golden trace is paid only where propagation data is
//! consumed — [`Injector::extract_propagation`] for Algorithm 1 and
//! composition, checked against the [`Injector::run_one_traced`]
//! reference.

use crate::batch::BatchEngine;
use crate::experiment::Experiment;
use crate::ledger::BatchBinding;
use crate::outcome::{Classifier, Outcome};
use crate::snapshot::{Snapshot, SnapshotStore, DEFAULT_MAX_SNAPSHOTS};
use ftb_kernels::{Kernel, MAX_BATCH_LANES};
use ftb_trace::{
    propagation, CompareScratch, FaultSpec, Fnv1a, GoldenRun, Propagation, RecordMode, RunTrace,
    Tracer,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

thread_local! {
    /// Per-worker scratch for streamed extraction, reused across every
    /// experiment a worker executes (no per-experiment heap traffic).
    static SCRATCH: RefCell<CompareScratch> = RefCell::new(CompareScratch::new());
}

/// Domain-separation tag folded into every
/// [`BatchBinding`] digest (`b"ftb-batc"` as big-endian bits).
const BATCH_BINDING_TAG: u64 = 0x6674_622d_6261_7463;

/// Experiments per [`Injector::run_many`] call in
/// [`Injector::exhaustive`] (rounded down to whole sites): bounds the
/// per-call plan and result buffers, so only the 1-byte outcome codes
/// grow with the campaign, while leaving every chunk wide enough to
/// keep all workers and lanes busy.
const EXHAUSTIVE_CHUNK: usize = 1 << 16;

/// Bound experiment runner: a kernel, its golden run (one compact copy,
/// read by every path), a classifier, and the execution options
/// (snapshots, certified exits, lane batching).
pub struct Injector<'k> {
    kernel: &'k dyn Kernel,
    golden: GoldenRun,
    classifier: Classifier,
    /// The classifier's hang budget for this golden run
    /// ([`Classifier::budget`]): outcome experiments stop executing past
    /// it, since their outcome is then decided.
    budget: usize,
    /// Golden-run boundary snapshots; when present, outcome experiments
    /// and propagation extraction resume from the latest snapshot
    /// preceding their fault site instead of re-executing from `t = 0`.
    snapshots: Option<SnapshotStore>,
    /// Allow contraction-certificate early exits
    /// ([`Kernel::masked_exit_bound`]) on snapshot-resumed runs. Off by
    /// default: a certified exit proves the *outcome code* (Masked) but
    /// reports an upper bound instead of the exact `output_err`, so only
    /// code-only consumers opt in.
    certified_exits: bool,
    /// Lane width for batched execution ([`Injector::with_batch_lanes`]).
    /// `1` (the default) keeps every path scalar.
    batch_lanes: usize,
}

/// Why a snapshot-resumed run stopped at a boundary before completing.
enum EarlyExit {
    /// Live state became bit-identical to a stored golden boundary: the
    /// suffix replays the golden run exactly, `output_err` is exactly 0.
    Bitwise,
    /// The kernel's contraction certificate proved the final deviation
    /// cannot exceed this bound, which is within tolerance.
    Certified(f64),
}

impl<'k> Injector<'k> {
    /// Record the golden run and bind the classifier.
    pub fn new(kernel: &'k dyn Kernel, classifier: Classifier) -> Self {
        Self::with_golden(kernel, kernel.golden(), classifier)
    }

    /// Bind to an already-recorded golden run (avoids re-recording when
    /// several analyses share one kernel).
    ///
    /// # Panics
    /// Panics if the classifier's `hang_factor` is NaN or below 1: such a
    /// budget is shorter than the golden run, so the golden run itself
    /// would classify as a hang, and outcome runs could stop before
    /// their fault site or a snapshot-resumed bitwise exit.
    pub fn with_golden(kernel: &'k dyn Kernel, golden: GoldenRun, classifier: Classifier) -> Self {
        assert!(
            classifier.hang_factor >= 1.0,
            "hang_factor must be at least 1 (got {})",
            classifier.hang_factor
        );
        Injector {
            kernel,
            budget: classifier.budget(golden.n_dynamic),
            golden,
            classifier,
            snapshots: None,
            certified_exits: false,
            batch_lanes: 1,
        }
    }

    /// The one execution policy for outcome experiments, applied by
    /// `ftb_core::Analysis` and every CLI command: resume from
    /// [`DEFAULT_MAX_SNAPSHOTS`] golden snapshots when the kernel is
    /// [`Kernel::snapshot_capable`], and run
    /// [`MAX_BATCH_LANES`]-wide lane chunks when it is
    /// [`Kernel::batch_capable`]. Each half is a no-op where it does not
    /// apply, and records stay bit-identical to from-scratch execution,
    /// so there is nothing for a user to choose. Certified exits stay
    /// off: they would change `output_err`.
    pub fn with_execution_policy(self) -> Self {
        self.with_snapshots(DEFAULT_MAX_SNAPSHOTS)
            .with_batch_lanes(MAX_BATCH_LANES)
    }

    /// Capture golden-run boundary snapshots (at most `max_snapshots`,
    /// evenly thinned) and serve every subsequent experiment from the
    /// snapshot immediately preceding its fault site. A no-op when the
    /// kernel is not snapshot-capable. Results stay bit-identical to
    /// from-scratch execution: the skipped prefix is golden state the
    /// faulty run would have reproduced bit-for-bit.
    pub fn with_snapshots(mut self, max_snapshots: usize) -> Self {
        self.snapshots = SnapshotStore::capture(self.kernel, &self.golden, max_snapshots);
        self
    }

    /// The snapshot store serving resumed experiments, if one was
    /// captured.
    pub fn snapshot_store(&self) -> Option<&SnapshotStore> {
        self.snapshots.as_ref()
    }

    /// Allow contraction-certificate early exits on snapshot-resumed
    /// runs: at each boundary the kernel may *prove*
    /// ([`Kernel::masked_exit_bound`]) that the final-output deviation
    /// cannot exceed the classifier tolerance, in which case the
    /// experiment exits immediately as `Masked` — the same outcome code
    /// from-scratch execution would produce.
    ///
    /// Outcome *codes* stay exactly identical to from-scratch execution;
    /// `Experiment::output_err` of a certificate-exited experiment is the
    /// certified upper bound (≤ tolerance) rather than the exact final
    /// deviation. Campaigns that compare experiment records byte-for-byte
    /// must leave this off; campaigns that consume outcome tables
    /// ([`ExhaustiveResult`]) lose nothing. Only effective with the L∞
    /// norm (what the certificates bound) and on snapshot-serving,
    /// certificate-capable kernels; otherwise a silent no-op.
    pub fn with_certified_exits(mut self) -> Self {
        self.certified_exits = true;
        self
    }

    /// Run experiments that share a serving snapshot as one lane-batched
    /// sweep of up to `lanes` perturbed states in structure-of-arrays
    /// layout, instead of `lanes` separate kernel executions. Results
    /// stay bit-identical to scalar execution: per lane, the batched
    /// engine reproduces the scalar value stream, trap behaviour, early
    /// exits and classification exactly (see the private `batch` module).
    ///
    /// Effective only where batching applies — the kernel must be
    /// batch-capable, snapshots must be captured
    /// ([`Injector::with_snapshots`]), and only outcome campaigns
    /// ([`Injector::run_many`] and everything built on it) batch;
    /// propagation extraction silently stays scalar. `lanes = 1`
    /// disables batching. Widths above
    /// [`MAX_BATCH_LANES`] (16) run as
    /// chunks of at most 16 lanes: a lane's record does not depend on
    /// the width it ran at, so the configured width only changes how
    /// faults are grouped (and the [`BatchBinding`] it records).
    ///
    /// # Panics
    /// Panics if `lanes` is zero.
    pub fn with_batch_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes > 0, "batch lane width must be positive");
        self.batch_lanes = lanes;
        self
    }

    /// The configured lane width (`1` = scalar execution).
    pub fn batch_lanes(&self) -> usize {
        self.batch_lanes
    }

    /// The batch engine, if batching applies to this injector at all
    /// (`lanes ≥ 2`, batch-capable kernel, captured snapshots).
    fn batch_engine(&self) -> Option<BatchEngine<'_>> {
        if self.batch_lanes < 2 || !self.kernel.batch_capable() {
            return None;
        }
        let store = self.snapshots.as_ref()?;
        Some(BatchEngine {
            kernel: self.kernel,
            golden: &self.golden,
            classifier: &self.classifier,
            store,
            certified_exits: self.certified_exits,
            lanes: self.batch_lanes,
        })
    }

    /// Ledger-side identity of the batched-execution configuration:
    /// `Some` exactly when campaigns through this injector run batched,
    /// with a digest binding the lane width to the snapshot store the
    /// lanes are grouped by. `None` on scalar-executing injectors, so
    /// pre-existing ledgers keep matching.
    pub fn batch_binding(&self) -> Option<BatchBinding> {
        let engine = self.batch_engine()?;
        let mut h = Fnv1a::new();
        h.write_u64(BATCH_BINDING_TAG);
        h.write_u64(self.batch_lanes as u64);
        h.write_u64(engine.store.digest());
        Some(BatchBinding {
            lanes: self.batch_lanes as u64,
            digest: h.finish(),
        })
    }

    /// Run a plan through the batch engine: snapshot-served faults in
    /// lane chunks, the from-scratch leftovers through
    /// [`Injector::run_one`], results scattered back into input order
    /// (so ledgers are byte-identical to scalar execution).
    #[expect(clippy::expect_used, reason = "the plan covers every fault")]
    fn run_plan_batched(&self, engine: &BatchEngine<'_>, faults: &[FaultSpec]) -> Vec<Experiment> {
        for f in faults {
            assert!(f.site < self.n_sites(), "site {} out of range", f.site);
        }
        let (chunks, scalars) = engine.plan(faults);
        let batched: Vec<_> = chunks.par_iter().map(|c| engine.run_chunk(c)).collect();
        let loose: Vec<_> = scalars
            .par_iter()
            .map(|&i| self.run_one(faults[i].site, faults[i].bit))
            .collect();
        let mut out: Vec<Option<Experiment>> = vec![None; faults.len()];
        for (chunk, exps) in chunks.iter().zip(&batched) {
            for (&i, e) in chunk.idxs.iter().zip(exps) {
                out[i] = Some(*e);
            }
        }
        for (&i, e) in scalars.iter().zip(&loose) {
            out[i] = Some(*e);
        }
        out.into_iter()
            .map(|e| e.expect("plan position covered by a chunk or a scalar run"))
            .collect()
    }

    /// The boundary-monitor certificate check: with certified exits
    /// enabled, measure the live state's deviation from the golden
    /// boundary and ask the kernel to bound the final-output deviation.
    /// Accepts only a finite bound within the classifier tolerance.
    fn certified_exit(
        &self,
        store: &SnapshotStore,
        cursor: usize,
        step: u64,
        arrays: &[&[f64]],
    ) -> Option<f64> {
        if !self.certified_exits || !matches!(self.classifier.norm, ftb_trace::norms::Norm::LInf) {
            return None;
        }
        let budget = self.classifier.tolerance;
        let (devs, mags) = store.state_deviations(cursor, arrays)?;
        let bound = self.kernel.masked_exit_bound(step, &devs, mags, budget)?;
        (bound.is_finite() && bound <= budget).then_some(bound)
    }

    /// The serving snapshot for a fault, if resumed execution applies:
    /// the store must exist and hold a boundary at or before the site.
    fn resume_for(&self, fault: FaultSpec) -> Option<(&SnapshotStore, &Snapshot)> {
        let store = self.snapshots.as_ref()?;
        let (_, snap) = store.for_site(fault.site)?;
        Some((store, snap))
    }

    /// The kernel under injection.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel
    }

    /// The golden reference run.
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// Alias of [`Injector::golden`]: the golden run is recorded compact,
    /// so it is the one compact copy.
    pub fn compact_golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The outcome classifier in use.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// Number of fault-injection sites.
    pub fn n_sites(&self) -> usize {
        self.golden.n_sites()
    }

    /// Bits per site.
    pub fn bits(&self) -> u8 {
        self.golden.precision.bits()
    }

    /// The experiment record of a run of `fault`: classified by the
    /// classifier when the run completed, or synthesised from a
    /// snapshot-resumed run's boundary early exit.
    fn classified(&self, fault: FaultSpec, run: &RunTrace, exit: Option<EarlyExit>) -> Experiment {
        // kernels stop before the boundary callback when a traced value
        // went non-finite, so an early-exited run is clean
        debug_assert!(exit.is_none() || run.first_nonfinite.is_none());
        let (outcome, output_err) = match exit {
            None => self.classifier.classify(&self.golden, run),
            Some(EarlyExit::Bitwise) => (Outcome::Masked, 0.0),
            Some(EarlyExit::Certified(bound)) => (Outcome::Masked, bound),
        };
        Experiment {
            site: fault.site,
            bit: fault.bit,
            injected_err: run.injected_err.unwrap_or(0.0),
            output_err,
            outcome,
        }
    }

    /// Run one experiment (outcome only — the fast path). The run stops
    /// at the classifier's hang budget; its record is bit-identical to
    /// that of the complete run ([`Classifier::classify`] depends only on
    /// the instructions before the budget).
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn run_one(&self, site: usize, bit: u8) -> Experiment {
        assert!(site < self.n_sites(), "site {site} out of range");
        let fault = FaultSpec { site, bit };
        if let Some(e) = self.try_run_one_resumed(fault) {
            return e;
        }
        let mut t = Tracer::inject(self.kernel.precision(), fault, RecordMode::OutputOnly)
            .with_budget(self.budget);
        let out = self.kernel.run(&mut t);
        self.classified(fault, &t.finish(out), None)
    }

    /// Outcome-only experiment resumed from the snapshot preceding its
    /// fault site, with two boundary early exits once the fault has
    /// executed: bitwise reconvergence (live state bit-identical to a
    /// stored golden boundary — the rest of the run would replay the
    /// golden suffix exactly, so the experiment is `(Masked, 0.0)`,
    /// precisely what from-scratch execution would classify) and, when
    /// enabled, the contraction certificate
    /// ([`Injector::with_certified_exits`]). `None` when no snapshot
    /// serves the site.
    fn try_run_one_resumed(&self, fault: FaultSpec) -> Option<Experiment> {
        let (store, snap) = self.resume_for(fault)?;
        let mut exit = None;
        let mut monitor = |cursor: usize, _: usize, step: u64, arrays: &[&[f64]]| {
            if cursor <= fault.site {
                return false;
            }
            if store.state_matches(cursor, arrays) {
                exit = Some(EarlyExit::Bitwise);
            } else if let Some(b) = self.certified_exit(store, cursor, step, arrays) {
                exit = Some(EarlyExit::Certified(b));
            }
            exit.is_some()
        };
        let mut t = Tracer::inject(self.kernel.precision(), fault, RecordMode::OutputOnly)
            .resume_at(snap.cursor, snap.branch_count, store.state(snap))
            .with_budget(self.budget)
            .with_boundary_hook(&mut monitor);
        let out = self.kernel.run(&mut t);
        let run = t.finish(out);
        Some(self.classified(fault, &run, exit))
    }

    /// Run one experiment from scratch with full tracing and extract its
    /// propagation data afterwards (paper §2.2). The reference every
    /// outcome path and [`Injector::extract_propagation`] must reproduce
    /// bit for bit.
    pub fn run_one_traced(&self, site: usize, bit: u8) -> (Experiment, Propagation) {
        assert!(site < self.n_sites(), "site {site} out of range");
        let fault = FaultSpec { site, bit };
        let run = self.kernel.run_injected(fault, RecordMode::Full);
        (
            self.classified(fault, &run, None),
            propagation(&self.golden, &run),
        )
    }

    /// Run one experiment and fold its propagation window (`(site, Δx)`
    /// pairs, zero deltas skipped) over the execution prefix `0 .. stop`
    /// through streamed extraction: the faulty run is compared against
    /// the shared golden run while it executes. With a snapshot store
    /// the run resumes from the latest snapshot at or before `site`,
    /// since the skipped prefix is golden state.
    ///
    /// `stop ≥ n_sites` folds the whole program, and the folds,
    /// experiment and window summary are bit-identical to those of
    /// [`Injector::run_one_traced`]. A smaller `stop` ends the comparison
    /// there and the run at the kernel's next
    /// [`should_stop`](Tracer::should_stop) poll past it
    /// ([`Tracer::with_stop`]): the folds are exactly the whole-program
    /// folds at sites `< stop`, the window is the whole-program window
    /// cut at `stop`, and the summary carries no experiment, since the
    /// run never computed the program's output.
    ///
    /// When the golden trace is branch-free (no possible late
    /// divergence), the fold runs *online* through a delta sink with
    /// zero scratch retention — the deltas of a slowly-decaying
    /// perturbation never materialise in memory.
    pub fn extract_propagation(
        &self,
        site: usize,
        bit: u8,
        stop: usize,
        mut fold: impl FnMut(usize, f64),
    ) -> ExtractionSummary {
        let fault = FaultSpec { site, bit };
        let stopped = stop < self.n_sites();
        let online = self.golden.branches.is_empty();
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let mut batched = |block: &[(usize, f64)]| {
                for &(site, d) in block {
                    fold(site, d);
                }
            };
            let mut t = Tracer::comparing(fault, &self.golden, &mut scratch);
            if online {
                t = t.with_delta_sink(&mut batched);
            }
            if stopped {
                t = t.with_stop(stop);
            }
            if let Some((store, snap)) = self.resume_for(fault) {
                t = t.resume_at(snap.cursor, snap.branch_count, store.state(snap));
            }
            let out = self.kernel.run(&mut t);
            let (run, window) = t.finish_compare(out);
            if !online {
                for &(site, d) in scratch.deltas() {
                    fold(site, d);
                }
            }
            ExtractionSummary {
                experiment: (!stopped).then(|| self.classified(fault, &run, None)),
                compare_len: window.compare_len,
                diverged: window.diverged,
                max_err: window.max_err,
            }
        })
    }

    /// Run a batch of outcome-only experiments in parallel, results in
    /// input order — the single execution path of every outcome campaign
    /// (samplers, Monte-Carlo, ledger chunks, the exhaustive table).
    /// With batching configured ([`Injector::with_batch_lanes`]),
    /// snapshot-served faults run as lane-batched sweeps; leftovers run
    /// scalar from scratch.
    pub fn run_many(&self, faults: &[FaultSpec]) -> Vec<Experiment> {
        if let Some(engine) = self.batch_engine() {
            return self.run_plan_batched(&engine, faults);
        }
        faults
            .par_iter()
            .map(|f| self.run_one(f.site, f.bit))
            .collect()
    }

    /// Alias for [`Injector::run_many`], kept for existing callers.
    pub fn run_batch(&self, faults: &[FaultSpec]) -> Vec<Experiment> {
        self.run_many(faults)
    }

    /// The exhaustive ground-truth campaign: every bit of every site
    /// (`n_sites × bits` kernel executions), [`Injector::run_many`]
    /// folded over the site-major [`exhaustive_plan`](crate::runner::exhaustive_plan)
    /// one site range at a time — batched under the same conditions,
    /// which the plan suits perfectly: each site's 32/64 bit flips share
    /// a snapshot.
    pub fn exhaustive(&self) -> ExhaustiveResult {
        let (n_sites, bits) = (self.n_sites(), self.bits());
        let sites_per_chunk = (EXHAUSTIVE_CHUNK / bits as usize).max(1);
        let codes = (0..n_sites)
            .step_by(sites_per_chunk)
            .flat_map(|lo| {
                let hi = (lo + sites_per_chunk).min(n_sites);
                let plan: Vec<FaultSpec> = (lo..hi)
                    .flat_map(|site| (0..bits).map(move |bit| FaultSpec { site, bit }))
                    .collect();
                self.run_many(&plan).into_iter().map(|e| e.outcome.code())
            })
            .collect();
        ExhaustiveResult {
            n_sites,
            bits,
            codes,
        }
    }
}

/// Summary of one propagation-extracting experiment
/// ([`Injector::extract_propagation`]); for a whole-program run,
/// identical to the one the [`Injector::run_one_traced`] reference
/// yields.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionSummary {
    /// The classified experiment; `None` when the run stopped before
    /// the end of the program, whose outcome it never computed.
    pub experiment: Option<Experiment>,
    /// Dynamic instructions `0 .. compare_len` were comparable (never
    /// past the stop).
    pub compare_len: usize,
    /// Whether control flow diverged from the golden run (before the
    /// stop).
    pub diverged: bool,
    /// Largest perturbation inside the window (`0.0` if none).
    pub max_err: f64,
}

/// Dense outcome table of an exhaustive campaign: one code per
/// `(site, bit)` experiment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExhaustiveResult {
    /// Number of sites covered.
    pub n_sites: usize,
    /// Bits per site.
    pub bits: u8,
    /// Outcome codes, laid out `site * bits + bit`.
    pub codes: Vec<u8>,
}

impl ExhaustiveResult {
    /// Outcome of experiment `(site, bit)`.
    #[inline]
    pub fn outcome(&self, site: usize, bit: u8) -> Outcome {
        Outcome::from_code(self.codes[site * self.bits as usize + bit as usize])
    }

    /// Total number of experiments.
    pub fn n_experiments(&self) -> u64 {
        self.codes.len() as u64
    }

    /// Per-site SDC ratio: SDC outcomes over all experiments at the site
    /// (the paper's per-dynamic-instruction vulnerability metric).
    pub fn sdc_ratio_per_site(&self) -> Vec<f64> {
        let b = self.bits as usize;
        self.codes
            .chunks_exact(b)
            .map(|chunk| {
                let sdc = chunk.iter().filter(|&&c| c == Outcome::Sdc.code()).count();
                sdc as f64 / b as f64
            })
            .collect()
    }

    /// Overall `SDC_ratio = n_sdc / N` over the whole campaign.
    pub fn overall_sdc_ratio(&self) -> f64 {
        let sdc = self
            .codes
            .iter()
            .filter(|&&c| c == Outcome::Sdc.code())
            .count();
        sdc as f64 / self.codes.len() as f64
    }

    /// Counts of (masked, sdc, crash) outcomes.
    pub fn counts(&self) -> (u64, u64, u64) {
        let (mut m, mut s, mut c) = (0, 0, 0);
        for &code in &self.codes {
            match code {
                0 => m += 1,
                1 => s += 1,
                _ => c += 1,
            }
        }
        (m, s, c)
    }

    /// Iterate over every experiment as `(site, bit, outcome)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u8, Outcome)> + '_ {
        let b = self.bits as usize;
        self.codes
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i / b, (i % b) as u8, Outcome::from_code(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_kernels::{MatvecConfig, MatvecKernel};

    fn tiny_kernel() -> MatvecKernel {
        MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        })
    }

    fn injector(k: &MatvecKernel) -> Injector<'_> {
        Injector::new(k, Classifier::new(1e-6))
    }

    #[test]
    fn run_one_sign_flip_of_used_input_is_sdc() {
        let k = tiny_kernel();
        let inj = injector(&k);
        // sign-flip an element of A (site 0): y row 0 is corrupted
        let e = inj.run_one(0, 63);
        assert_eq!(e.outcome, Outcome::Sdc);
        assert!(e.injected_err > 0.0);
        assert!(e.output_err > 1e-6);
    }

    #[test]
    fn run_one_low_bit_is_masked() {
        let k = tiny_kernel();
        let inj = injector(&k);
        let e = inj.run_one(0, 0);
        assert_eq!(e.outcome, Outcome::Masked);
        assert!(e.output_err <= 1e-6);
    }

    #[test]
    fn traced_run_agrees_with_untraced() {
        let k = tiny_kernel();
        let inj = injector(&k);
        for (site, bit) in [(0usize, 63u8), (5, 0), (10, 52)] {
            let fast = inj.run_one(site, bit);
            let (slow, prop) = inj.run_one_traced(site, bit);
            assert_eq!(fast, slow, "record mode must not change the outcome");
            assert_eq!(prop.injected_at, site);
        }
    }

    #[test]
    fn run_many_preserves_order() {
        let k = tiny_kernel();
        let inj = injector(&k);
        let faults: Vec<FaultSpec> = (0..8).map(|s| FaultSpec { site: s, bit: 1 }).collect();
        let res = inj.run_many(&faults);
        assert_eq!(res.len(), 8);
        for (i, e) in res.iter().enumerate() {
            assert_eq!(e.site, i);
            assert_eq!(e.bit, 1);
        }
    }

    #[test]
    fn exhaustive_covers_every_pair_and_matches_run_one() {
        let k = tiny_kernel();
        let inj = injector(&k);
        let ex = inj.exhaustive();
        assert_eq!(ex.n_experiments(), inj.n_sites() as u64 * 64);
        // spot-check agreement with single runs
        for (site, bit) in [(0usize, 63u8), (3, 10), (17, 62)] {
            assert_eq!(ex.outcome(site, bit), inj.run_one(site, bit).outcome);
        }
        let (m, s, c) = ex.counts();
        assert_eq!(m + s + c, ex.n_experiments());
        assert!(m > 0, "some flips must be masked");
        assert!(s > 0, "some flips must be SDC");
    }

    #[test]
    fn per_site_ratios_average_to_overall() {
        let k = tiny_kernel();
        let inj = injector(&k);
        let ex = inj.exhaustive();
        let per = ex.sdc_ratio_per_site();
        assert_eq!(per.len(), inj.n_sites());
        let avg = per.iter().sum::<f64>() / per.len() as f64;
        assert!((avg - ex.overall_sdc_ratio()).abs() < 1e-12);
    }

    #[test]
    fn iter_layout_matches_outcome_accessor() {
        let k = tiny_kernel();
        let inj = injector(&k);
        let ex = inj.exhaustive();
        for (site, bit, o) in ex.iter().take(130) {
            assert_eq!(o, ex.outcome(site, bit));
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_site_panics() {
        let k = tiny_kernel();
        let inj = injector(&k);
        let _ = inj.run_one(1_000_000, 0);
    }

    /// The buffered reference for a plan: each fault run from scratch
    /// with its full trace recorded.
    fn reference(inj: &Injector<'_>, faults: &[FaultSpec]) -> Vec<Experiment> {
        faults
            .iter()
            .map(|f| inj.run_one_traced(f.site, f.bit).0)
            .collect()
    }

    #[test]
    fn run_batch_is_identical_across_extraction_modes() {
        let k = tiny_kernel();
        let faults: Vec<FaultSpec> = (0..12)
            .map(|i| FaultSpec {
                site: i,
                bit: (i * 7 % 64) as u8,
            })
            .collect();
        let inj = injector(&k);
        assert_eq!(reference(&inj, &faults), inj.run_batch(&faults));
    }

    #[test]
    fn extract_propagation_folds_identically_across_modes() {
        let k = tiny_kernel();
        let inj = injector(&k);
        let mut streamed = Vec::new();
        let summary = inj.extract_propagation(3, 30, inj.n_sites(), |s, d| streamed.push((s, d)));
        let (experiment, prop) = inj.run_one_traced(3, 30);
        let buffered: Vec<(usize, f64)> = prop.iter().filter(|&(_, d)| d > 0.0).collect();
        assert!(summary.max_err > 0.0);
        assert_eq!(streamed, buffered);
        assert_eq!(
            summary,
            ExtractionSummary {
                experiment: Some(experiment),
                compare_len: prop.compare_len,
                diverged: prop.diverged,
                max_err: buffered.iter().fold(0.0, |m, &(_, d)| d.max(m)),
            }
        );
    }

    #[test]
    fn snapshots_are_a_noop_for_incapable_kernels() {
        let k = tiny_kernel();
        let inj = injector(&k).with_snapshots(8);
        assert!(inj.snapshot_store().is_none());
        // and execution still works, from scratch
        let e = inj.run_one(0, 63);
        assert_eq!(e.outcome, Outcome::Sdc);
    }

    #[test]
    fn snapshot_resumed_experiments_match_from_scratch_in_every_mode() {
        use ftb_kernels::{JacobiConfig, JacobiKernel};
        let k = JacobiKernel::new(JacobiConfig {
            sweeps: 8,
            ..JacobiConfig::small()
        });
        let n = k.golden().n_sites();
        // sites spread over the whole trace (early ones have no serving
        // snapshot), bits spread over the word (low bits reconverge)
        let faults: Vec<FaultSpec> = (0..24)
            .map(|i| FaultSpec {
                site: i * (n - 1) / 23,
                bit: (i * 11 % 64) as u8,
            })
            .collect();
        let scratch = Injector::new(&k, Classifier::new(1e-6));
        let inj = Injector::new(&k, Classifier::new(1e-6)).with_snapshots(usize::MAX);
        assert!(inj.snapshot_store().is_some());
        let expected = reference(&scratch, &faults);
        assert_eq!(expected, scratch.run_many(&faults), "from scratch diverged");
        assert_eq!(expected, inj.run_many(&faults), "snapshot-resumed diverged");
    }

    #[test]
    fn certified_exits_preserve_outcome_codes() {
        use ftb_kernels::{JacobiConfig, JacobiKernel};
        let k = JacobiKernel::new(JacobiConfig {
            sweeps: 8,
            ..JacobiConfig::small()
        });
        let n = k.golden().n_sites();
        let faults: Vec<FaultSpec> = (0..48)
            .map(|i| FaultSpec {
                site: i * (n - 1) / 47,
                bit: (i * 13 % 64) as u8,
            })
            .collect();
        let scratch = Injector::new(&k, Classifier::new(1e-6)).run_many(&faults);
        let certified = Injector::new(&k, Classifier::new(1e-6))
            .with_snapshots(usize::MAX)
            .with_certified_exits()
            .run_many(&faults);
        // the certified contract: outcome codes identical to from-scratch,
        // and a certificate-exited experiment reports a bound ≤ tolerance
        for (s, c) in scratch.iter().zip(&certified) {
            assert_eq!((s.site, s.bit, s.outcome), (c.site, c.bit, c.outcome));
            if c.outcome == Outcome::Masked {
                assert!(c.output_err <= 1e-6);
            }
        }
        // ...and the certificate actually fired somewhere: at least one
        // masked experiment exited early with a bound instead of running
        // to completion for the exact deviation
        assert!(
            scratch
                .iter()
                .zip(&certified)
                .any(|(s, c)| s.output_err != c.output_err),
            "no certificate exit fired — the fast path is dead"
        );
    }

    #[test]
    fn batched_execution_is_bit_identical_to_scalar() {
        use ftb_kernels::{JacobiConfig, JacobiKernel};
        let k = JacobiKernel::new(JacobiConfig {
            sweeps: 8,
            ..JacobiConfig::small()
        });
        let n = k.golden().n_sites();
        let faults: Vec<FaultSpec> = (0..64)
            .map(|i| FaultSpec {
                site: i * (n - 1) / 63,
                bit: (i * 13 % 64) as u8,
            })
            .collect();
        let key = |e: &Experiment| {
            (
                e.site,
                e.bit,
                e.injected_err.to_bits(),
                e.output_err.to_bits(),
                e.outcome.code(),
            )
        };
        let keys = |v: Vec<Experiment>| v.iter().map(key).collect::<Vec<_>>();
        let build = |lanes: usize, certified: bool| {
            let mut inj = Injector::new(&k, Classifier::new(1e-6))
                .with_snapshots(usize::MAX)
                .with_batch_lanes(lanes);
            if certified {
                inj = inj.with_certified_exits();
            }
            inj
        };
        for lanes in [2, 5, 8, 64] {
            let scalar = build(1, false);
            let batched = build(lanes, false);
            assert_eq!(
                keys(scalar.run_many(&faults)),
                keys(batched.run_many(&faults)),
                "{lanes} lanes"
            );
        }
        // certified exits retire lanes mid-sweep; records still match the
        // scalar certified path exactly
        assert_eq!(
            keys(build(1, true).run_many(&faults)),
            keys(build(8, true).run_many(&faults)),
            "certified path"
        );
    }

    #[test]
    fn batch_binding_present_iff_batching_applies() {
        use ftb_kernels::{JacobiConfig, JacobiKernel};
        let k = JacobiKernel::new(JacobiConfig {
            sweeps: 8,
            ..JacobiConfig::small()
        });
        // scalar lane width, no snapshots, incapable kernel: no binding
        assert!(Injector::new(&k, Classifier::new(1e-6))
            .with_snapshots(usize::MAX)
            .batch_binding()
            .is_none());
        assert!(Injector::new(&k, Classifier::new(1e-6))
            .with_batch_lanes(8)
            .batch_binding()
            .is_none());
        let mk = tiny_kernel();
        assert!(Injector::new(&mk, Classifier::new(1e-6))
            .with_snapshots(usize::MAX)
            .with_batch_lanes(8)
            .batch_binding()
            .is_none());
        // batching applies: binding carries the lane width, and the
        // digest distinguishes lane configurations and snapshot stores
        let b8 = Injector::new(&k, Classifier::new(1e-6))
            .with_snapshots(usize::MAX)
            .with_batch_lanes(8)
            .batch_binding()
            .unwrap();
        assert_eq!(b8.lanes, 8);
        let b16 = Injector::new(&k, Classifier::new(1e-6))
            .with_snapshots(usize::MAX)
            .with_batch_lanes(16)
            .batch_binding()
            .unwrap();
        assert_ne!(b8, b16);
        let thin = Injector::new(&k, Classifier::new(1e-6))
            .with_snapshots(4)
            .with_batch_lanes(8)
            .batch_binding()
            .unwrap();
        assert_eq!(thin.lanes, 8);
        assert_ne!(b8.digest, thin.digest);
    }

    fn with_hang_factor(hang_factor: f64) -> Classifier {
        Classifier {
            hang_factor,
            ..Classifier::new(1e-6)
        }
    }

    #[test]
    fn hang_factor_of_one_binds() {
        let k = tiny_kernel();
        let inj = Injector::new(&k, with_hang_factor(1.0));
        // the golden length is within a factor-1 budget: a masked run
        // is no hang
        assert_eq!(inj.run_one(inj.n_sites() - 1, 0).outcome, Outcome::Masked);
        let _ = Injector::new(&k, with_hang_factor(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "hang_factor must be at least 1")]
    fn hang_factor_below_one_is_refused() {
        let k = tiny_kernel();
        let _ = Injector::new(&k, with_hang_factor(0.5));
    }

    #[test]
    #[should_panic(expected = "hang_factor must be at least 1")]
    fn nan_hang_factor_is_refused() {
        let k = tiny_kernel();
        let _ = Injector::new(&k, with_hang_factor(f64::NAN));
    }
}
