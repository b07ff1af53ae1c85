//! Independent truth for the verification phase: the from-scratch scalar
//! oracle, the held-out Monte-Carlo plan, and precision/recall.

use ftb_core::{Boundary, Predictor};
use ftb_inject::{monte_carlo_plan, Experiment, Injector, Outcome};
use ftb_trace::{FaultSpec, RecordMode};
use rayon::prelude::*;

/// Faults in the held-out plan that inferred boundaries are scored on.
const HELD_OUT: u64 = 2000;

/// Outcome of each fault executed from scratch, unbatched and without
/// snapshots: `Kernel::run_injected` then `Classifier::classify`.
pub fn oracle(injector: &Injector<'_>, faults: &[FaultSpec]) -> Vec<Outcome> {
    let kernel = injector.kernel();
    let golden = injector.golden();
    let classifier = injector.classifier();
    faults
        .par_iter()
        .map(|&f| {
            let run = kernel.run_injected(f, RecordMode::OutputOnly);
            classifier.classify(golden, &run).0
        })
        .collect()
}

/// The fault each experiment ran.
pub fn faults<'e>(exps: impl IntoIterator<Item = &'e Experiment>) -> Vec<FaultSpec> {
    exps.into_iter()
        .map(|e| FaultSpec {
            site: e.site,
            bit: e.bit,
        })
        .collect()
}

/// Re-run `n` of `exps`, spread evenly over them, through the oracle;
/// returns each picked experiment with the oracle's outcome.
pub fn recheck<'e>(
    injector: &Injector<'_>,
    exps: &'e [Experiment],
    n: usize,
) -> Vec<(&'e Experiment, Outcome)> {
    let picked: Vec<&Experiment> = spread(exps.len(), n)
        .into_iter()
        .map(|i| &exps[i])
        .collect();
    let outcomes = oracle(injector, &faults(picked.iter().copied()));
    picked.into_iter().zip(outcomes).collect()
}

/// `n` items spread evenly over `0..len` (all of them if `len <= n`).
pub fn spread(len: usize, n: usize) -> Vec<usize> {
    if len <= n {
        return (0..len).collect();
    }
    (0..n).map(|i| i * len / n).collect()
}

/// Precision and recall of `boundary`'s masked predictions on a fixed
/// held-out Monte-Carlo plan of `HELD_OUT` faults drawn with `seed`.
pub fn score_boundary(injector: &Injector<'_>, boundary: &Boundary, seed: u64) -> (f64, f64) {
    let plan = monte_carlo_plan(injector.n_sites(), injector.bits(), HELD_OUT, seed);
    let predictor = Predictor::new(injector.golden(), boundary);
    precision_recall(injector.run_many(&plan).iter().map(|e| {
        (
            predictor.predict(e.site, e.bit).is_masked(),
            e.outcome.is_masked(),
        )
    }))
}

/// Precision and recall of masked predictions over `(predicted masked,
/// actually masked)` pairs. An empty prediction set has precision 1 and
/// an empty masked set recall 1, as in `BoundaryEval`.
pub fn precision_recall(pairs: impl IntoIterator<Item = (bool, bool)>) -> (f64, f64) {
    let (mut predicted, mut positive, mut masked) = (0u64, 0u64, 0u64);
    for (p, a) in pairs {
        predicted += u64::from(p);
        masked += u64::from(a);
        positive += u64::from(p && a);
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    (ratio(positive, predicted), ratio(positive, masked))
}
