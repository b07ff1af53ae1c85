//! Hang-budget conformance: outcome campaigns stop every run at the
//! classifier's hang budget, as a watchdog would, and nothing downstream
//! can tell. Every `Injector::run_many` record must equal the complete,
//! uncut run (`Kernel::run_injected`) classified after the fact — the
//! outcome and the bits of `injected_err` and `output_err` — from scratch,
//! from snapshots and lane-batched, at one and several worker threads,
//! including runs whose first NaN comes after the budget. A budgeted run
//! must stop at the end of the outer iteration in which it passes its
//! budget, and `Injector::run_one` must actually stop hangs there.

use ftb_inject::{Classifier, CrashKind, Experiment, Injector, Outcome};
use ftb_kernels::{
    CgConfig, CgStorage, JacobiConfig, Kernel, KernelConfig, LuConfig, StencilConfig,
};
use ftb_trace::{FaultSpec, Precision, RecordMode, SectionMap, StaticRegistry, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A budget only a quarter above the golden length: CG faults that slow
/// convergence become hangs, and the fixed-trip-count kernels must be
/// untouched by it.
const HANG_FACTOR: f64 = 1.25;

/// Hang-prone CG (an iteration cap far above the golden iteration count,
/// so a hang runs long past its budget when uncut) in both operator
/// representations, plus the other kernels that poll
/// `Tracer::should_stop`.
fn cases() -> Vec<(&'static str, KernelConfig, f64)> {
    let cg = CgConfig {
        grid: 5,
        max_iters: 400,
        ..CgConfig::small()
    };
    vec![
        ("cg", KernelConfig::Cg(cg.clone()), 1e-2),
        (
            "cg-csr",
            KernelConfig::Cg(CgConfig {
                storage: CgStorage::AssembledCsr,
                ..cg
            }),
            1e-2,
        ),
        (
            "jacobi",
            KernelConfig::Jacobi(JacobiConfig {
                sweeps: 8,
                ..JacobiConfig::small()
            }),
            1e-4,
        ),
        (
            "lu",
            KernelConfig::Lu(LuConfig {
                n: 8,
                block: 4,
                ..LuConfig::small()
            }),
            3e-5,
        ),
        (
            "stencil",
            KernelConfig::Stencil(StencilConfig {
                grid: 6,
                sweeps: 4,
                ..StencilConfig::small()
            }),
            1e-4,
        ),
    ]
}

fn classifier(tolerance: f64) -> Classifier {
    Classifier {
        hang_factor: HANG_FACTOR,
        ..Classifier::new(tolerance)
    }
}

/// `count` faults spread over every site and every bit of the word.
fn spread_faults(n_sites: usize, bits: u8, count: usize) -> Vec<FaultSpec> {
    (0..count)
        .map(|i| FaultSpec {
            site: i * (n_sites - 1) / (count - 1),
            bit: (i * 11 % bits as usize) as u8,
        })
        .collect()
}

/// The uncut reference: the run executed to completion, then classified.
fn oracle(inj: &Injector<'_>, f: FaultSpec) -> Experiment {
    let run = inj.kernel().run_injected(f, RecordMode::OutputOnly);
    let (outcome, output_err) = inj.classifier().classify(inj.golden(), &run);
    Experiment {
        site: f.site,
        bit: f.bit,
        injected_err: run.injected_err.unwrap_or(0.0),
        output_err,
        outcome,
    }
}

fn assert_bitwise(what: &str, got: &Experiment, want: &Experiment) {
    assert_eq!(got.key(), want.key(), "{what}: plan order");
    assert_eq!(
        got.outcome,
        want.outcome,
        "{what}: outcome of {:?}",
        want.key()
    );
    assert_eq!(
        got.injected_err.to_bits(),
        want.injected_err.to_bits(),
        "{what}: injected_err of {:?}",
        want.key()
    );
    assert_eq!(
        got.output_err.to_bits(),
        want.output_err.to_bits(),
        "{what}: output_err of {:?}",
        want.key()
    );
}

/// Up to `max` faults whose complete run produces its first non-finite
/// value only at or after the hang budget: a post-mortem classifier
/// would see a `NonFinite`, a watchdog never sees the NaN. Searched
/// over one high exponent bit (an F32 flip that scales a value by
/// 2^±16), site by site from the start.
fn nan_after_budget(inj: &Injector<'_>, max: usize) -> Vec<FaultSpec> {
    let budget = inj.classifier().budget(inj.golden().n_dynamic);
    (0..inj.n_sites())
        .map(|site| FaultSpec { site, bit: 27 })
        .filter(|&f| {
            let run = inj.kernel().run_injected(f, RecordMode::OutputOnly);
            run.first_nonfinite.is_some_and(|i| i >= budget)
        })
        .take(max)
        .collect()
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

#[test]
fn budgeted_campaigns_match_the_uncut_runs_bit_for_bit() {
    for (name, cfg, tolerance) in cases() {
        let kernel = cfg.build();
        let c = classifier(tolerance);
        let scratch = Injector::new(kernel.as_ref(), c);
        let mut plan = spread_faults(scratch.n_sites(), scratch.bits(), 240);
        let late_nans = if name.starts_with("cg") {
            nan_after_budget(&scratch, 4)
        } else {
            Vec::new()
        };
        plan.extend(&late_nans);
        let want: Vec<Experiment> = plan.iter().map(|&f| oracle(&scratch, f)).collect();
        if name.starts_with("cg") {
            let hangs = want
                .iter()
                .filter(|e| e.outcome == Outcome::Crash(CrashKind::Hang))
                .count();
            assert!(
                hangs > late_nans.len(),
                "{name}: the plan must exercise hangs"
            );
            assert!(
                !late_nans.is_empty(),
                "{name}: no NaN after the budget found"
            );
            // a NaN after the budget is never observed: the run is a hang
            for e in &want[want.len() - late_nans.len()..] {
                assert_eq!(e.outcome, Outcome::Crash(CrashKind::Hang), "{:?}", e.key());
                assert_eq!(e.output_err, f64::INFINITY, "{:?}", e.key());
            }
        }

        let snap = Injector::new(kernel.as_ref(), c).with_snapshots(usize::MAX);
        let batched = Injector::new(kernel.as_ref(), c)
            .with_snapshots(usize::MAX)
            .with_batch_lanes(8);
        assert_eq!(
            snap.snapshot_store().is_some(),
            kernel.snapshot_capable(),
            "{name}: snapshot serving"
        );
        for (mode, inj) in [
            ("scratch", &scratch),
            ("snapshot", &snap),
            ("batched", &batched),
        ] {
            for threads in [1, 4] {
                let got = pool(threads).install(|| inj.run_many(&plan));
                assert_eq!(got.len(), want.len());
                let what = format!("{name} {mode} {threads}t");
                for (g, w) in got.iter().zip(&want) {
                    assert_bitwise(&what, g, w);
                }
            }
        }
    }
}

/// The cursors at which the golden run's outer iterations end, the
/// points where kernels poll `Tracer::should_stop`: the section
/// boundaries a snapshot-capable kernel captures after each loop step,
/// or else the ends of the phase sections `SectionMap::phases` cuts at
/// every loop wrap (the initialization prologue excluded). Ends with
/// the golden length.
fn iteration_ends(kernel: &dyn Kernel) -> Vec<usize> {
    let golden = kernel.golden();
    let mut ends = Vec::new();
    if kernel.snapshot_capable() {
        let mut capture = |cursor: usize, _: usize, step: u64, _: &[&[f64]]| {
            if step > 0 {
                ends.push(cursor);
            }
            false
        };
        let mut t = Tracer::untraced(kernel.precision()).with_boundary_hook(&mut capture);
        let _ = kernel.run(&mut t);
    } else {
        let map = SectionMap::phases(&golden, &kernel.registry());
        ends.extend((1..map.n_sections()).map(|t| map.range(t).1));
    }
    ends.push(golden.n_dynamic);
    ends.dedup();
    assert!(ends.len() >= 2, "{}: no iteration structure", kernel.name());
    ends
}

/// The longest outer iteration of the golden run.
fn max_iteration(kernel: &dyn Kernel) -> usize {
    let ends = iteration_ends(kernel);
    ends.windows(2).map(|w| w[1] - w[0]).max().unwrap()
}

#[test]
fn budgeted_runs_stop_at_the_first_iteration_end_past_the_budget() {
    for (name, cfg, _) in cases() {
        let kernel = cfg.build();
        let n = kernel.golden().n_dynamic;
        let ends = iteration_ends(kernel.as_ref());
        for budget in [n / 3, n / 2, 2 * n / 3, n - 1] {
            let mut t = Tracer::untraced(kernel.precision()).with_budget(budget);
            let _ = kernel.run(&mut t);
            let first = ends.iter().copied().find(|&e| e > budget);
            assert_eq!(Some(t.cursor()), first, "{name}: budget {budget}");
        }
        // the golden run itself never passes a budget of its own length
        let mut t = Tracer::untraced(kernel.precision()).with_budget(n);
        let _ = kernel.run(&mut t);
        assert_eq!(
            t.cursor(),
            n,
            "{name}: a budget of the golden length cut the golden run"
        );
    }
}

/// A kernel that records how far its latest run executed, so a test
/// can see where `Injector::run_one` stopped a run.
struct Watched<'k> {
    inner: &'k dyn Kernel,
    reached: AtomicUsize,
}

impl Watched<'_> {
    fn record<R>(&self, t: &Tracer, out: R) -> R {
        self.reached.store(t.cursor(), Ordering::Relaxed);
        out
    }
}

impl Kernel for Watched<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn precision(&self) -> Precision {
        self.inner.precision()
    }
    fn registry(&self) -> StaticRegistry {
        self.inner.registry()
    }
    fn run(&self, t: &mut Tracer) -> Vec<f64> {
        let out = self.inner.run(t);
        self.record(t, out)
    }
    fn snapshot_capable(&self) -> bool {
        self.inner.snapshot_capable()
    }
}

#[test]
fn run_one_stops_hangs_at_the_budget_that_run_long_uncut() {
    for (name, cfg, tolerance) in cases().into_iter().filter(|(n, _, _)| n.starts_with("cg")) {
        let kernel = cfg.build();
        let watched = Watched {
            inner: kernel.as_ref(),
            reached: AtomicUsize::new(0),
        };
        let c = classifier(tolerance);
        let scratch = Injector::new(&watched, c);
        let snap = Injector::new(&watched, c).with_snapshots(usize::MAX);
        let budget = c.budget(scratch.golden().n_dynamic);
        let stride = max_iteration(kernel.as_ref());
        let plan = spread_faults(scratch.n_sites(), scratch.bits(), 240);
        let mut long = 0;
        for f in plan {
            let uncut = kernel.run_injected(f, RecordMode::OutputOnly).n_dynamic;
            for (mode, inj) in [("scratch", &scratch), ("snapshot", &snap)] {
                let e = inj.run_one(f.site, f.bit);
                let reached = watched.reached.load(Ordering::Relaxed);
                if e.outcome != Outcome::Crash(CrashKind::Hang) {
                    assert!(reached <= budget, "{name} {mode}: {f:?} is no hang");
                    continue;
                }
                assert_eq!(
                    e.output_err,
                    f64::INFINITY,
                    "{name}: a hang's output is unobserved"
                );
                assert!(
                    reached > budget && reached <= budget + stride,
                    "{name} {mode}: hang {f:?} stopped at {reached} (budget {budget})"
                );
                assert!(uncut >= reached);
                long += usize::from(uncut > budget + stride);
            }
        }
        assert!(
            long > 0,
            "{name}: no hang ran past its budget's iteration uncut"
        );
    }
}
