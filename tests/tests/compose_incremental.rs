//! Incremental re-analysis end-to-end: a localized kernel edit re-runs
//! only the dirty section, stale/torn ledgers degrade to re-runs (never
//! to wrong reuse), and secant mode refuses uninstrumented kernels.

use ftb_core::prelude::*;
use ftb_core::{compose_analysis, ComposeConfig, ComposeError};
use ftb_inject::{read_section_ledger, Classifier, Injector, LedgerError, SectionRecord};
use ftb_kernels::{CgConfig, CgStorage, JacobiConfig, Kernel, KernelConfig, SweepTweak};
use std::io::Write as _;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ftb-compose-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

const TOL: f64 = 1e-4;

fn jacobi_config(tweak: Option<SweepTweak>) -> KernelConfig {
    KernelConfig::Jacobi(JacobiConfig {
        grid: 4,
        sweeps: 10,
        tweak,
        ..JacobiConfig::small()
    })
}

fn cfg() -> ComposeConfig {
    ComposeConfig {
        rate: 0.5,
        seed: 41,
        ..ComposeConfig::new(TOL)
    }
}

#[test]
fn sweep_edit_reruns_exactly_the_dirty_section_at_full_quality() {
    let ledger = tmp("edit.ftbl");

    // first pass: pristine kernel, every section campaigns
    let config = jacobi_config(None);
    let kernel = config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(TOL));
    let first = compose_analysis(kernel.as_ref(), &config, &inj, &cfg(), Some(&ledger)).unwrap();
    let m = first.map.n_sections();
    assert!(m >= 4, "segmentation too coarse to demonstrate anything");
    assert_eq!(first.reran.len(), m);
    assert!(first.n_experiments > 0);

    // the edit: sweep 5 becomes weighted Jacobi. Same dynamic-instruction
    // shape, different arithmetic in exactly one phase.
    let edited = jacobi_config(Some(SweepTweak {
        sweep: 5,
        omega: 0.5,
    }));
    let kernel2 = edited.build();
    let inj2 = Injector::new(kernel2.as_ref(), Classifier::new(TOL));
    let second = compose_analysis(kernel2.as_ref(), &edited, &inj2, &cfg(), Some(&ledger)).unwrap();

    // exactly one dirty section, everything else reused
    assert_eq!(
        second.reran.len(),
        1,
        "edit of one sweep dirtied sections {:?}",
        second.reran
    );
    assert_eq!(second.reused.len(), m - 1);
    let dirty = second.reran[0];
    let (lo, hi) = second.map.range(dirty);
    assert!(
        second.signatures[dirty] != first.signatures[dirty],
        "dirty section's signature did not change"
    );
    for t in 0..m {
        if t != dirty {
            assert_eq!(second.signatures[t], first.signatures[t]);
        }
    }
    assert!(lo < hi);
    assert!(second.n_experiments < first.n_experiments);

    // and the composed boundary built from 1 fresh + (m-1) reused
    // sections still clears the quality gates against fresh truth
    let truth = inj2.exhaustive();
    let eval =
        BoundaryEval::against_exhaustive(&Predictor::new(inj2.golden(), &second.boundary), &truth);
    assert!(
        eval.recall >= 0.9,
        "post-edit recall {:.4} below 0.9",
        eval.recall
    );
    assert!(
        eval.precision >= 0.95,
        "post-edit precision {:.4} below 0.95",
        eval.precision
    );
}

#[test]
fn torn_ledger_tail_costs_exactly_the_lost_sections() {
    let ledger = tmp("torn.ftbl");

    let config = jacobi_config(None);
    let kernel = config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(TOL));
    let first = compose_analysis(kernel.as_ref(), &config, &inj, &cfg(), Some(&ledger)).unwrap();
    let m = first.map.n_sections();

    // tear the tail: drop the last record's final bytes, as a crash
    // mid-append would
    let bytes = std::fs::read(&ledger).unwrap();
    std::fs::write(&ledger, &bytes[..bytes.len() - 7]).unwrap();
    let recovery = read_section_ledger(&ledger).unwrap();
    assert!(recovery.dropped_trailing);
    assert_eq!(recovery.sections.len(), m - 1);

    // re-analysis reuses the valid prefix and re-runs only the lost tail
    let second = compose_analysis(kernel.as_ref(), &config, &inj, &cfg(), Some(&ledger)).unwrap();
    assert_eq!(second.reran, vec![m - 1]);
    assert_eq!(second.reused.len(), m - 1);

    // identical analysis end-to-end: same campaigns, same composition
    assert_eq!(first.summaries, second.summaries);
    assert_eq!(
        first
            .boundary
            .thresholds()
            .iter()
            .map(|t| t.to_bits())
            .collect::<Vec<_>>(),
        second
            .boundary
            .thresholds()
            .iter()
            .map(|t| t.to_bits())
            .collect::<Vec<_>>()
    );

    // and the rewritten ledger is whole again
    let healed = read_section_ledger(&ledger).unwrap();
    assert!(!healed.dropped_trailing);
    assert_eq!(healed.sections.len(), m);
}

#[test]
fn corrupt_ledger_header_is_a_typed_error() {
    let ledger = tmp("corrupt.ftbl");
    let mut f = std::fs::File::create(&ledger).unwrap();
    writeln!(f, "this is not a ledger header").unwrap();
    drop(f);

    let config = jacobi_config(None);
    let kernel = config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(TOL));
    let err = compose_analysis(kernel.as_ref(), &config, &inj, &cfg(), Some(&ledger)).unwrap_err();
    assert!(matches!(err, ComposeError::Ledger(_)), "got {err:?}");
    assert!(err.to_string().contains("ledger"), "unhelpful: {err}");
}

#[test]
fn truncated_record_vector_is_a_typed_error_not_a_panic() {
    let ledger = tmp("truncated.ftbl");
    let config = jacobi_config(None);
    let kernel = config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(TOL));
    compose_analysis(kernel.as_ref(), &config, &inj, &cfg(), Some(&ledger)).unwrap();

    // every line stays well-formed JSON; only the first record's
    // `site_amp` loses its last entry
    let text = std::fs::read_to_string(&ledger).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut rec: SectionRecord = serde_json::from_str(&lines[1]).unwrap();
    rec.summary.site_amp.pop().expect("non-empty section");
    lines[1] = serde_json::to_string(&rec).unwrap();
    std::fs::write(&ledger, lines.join("\n") + "\n").unwrap();

    let err = compose_analysis(kernel.as_ref(), &config, &inj, &cfg(), Some(&ledger)).unwrap_err();
    assert!(
        matches!(
            err,
            ComposeError::Ledger(LedgerError::Format { line: 2, .. })
        ),
        "got {err:?}"
    );
    assert!(err.to_string().contains("site_amp"), "unhelpful: {err}");
}

#[test]
fn incompatible_campaign_shape_forces_a_full_rerun() {
    let ledger = tmp("stale.ftbl");

    let config = jacobi_config(None);
    let kernel = config.build();
    let inj = Injector::new(kernel.as_ref(), Classifier::new(TOL));
    let first = compose_analysis(kernel.as_ref(), &config, &inj, &cfg(), Some(&ledger)).unwrap();
    let m = first.map.n_sections();

    // a different sampling plan invalidates every record: reuse across
    // campaign shapes would mix incomparable observations
    let other = ComposeConfig {
        rate: 0.25,
        ..cfg()
    };
    let second = compose_analysis(kernel.as_ref(), &config, &inj, &other, Some(&ledger)).unwrap();
    assert_eq!(second.reran.len(), m, "stale plan must not be reused");
    assert!(second.reused.is_empty());
}

#[test]
fn secant_mode_refuses_uninstrumented_kernels_with_a_clear_error() {
    // every built-in kernel (including cg over assembled CSR) is now
    // provenance-instrumented, so the refusal path is exercised by the
    // feature-gated stub kernel: real traced sites, zero recorded edges
    let kernel: Box<dyn Kernel> = Box::new(ftb_kernels::StubKernel::new(16, 42));
    // binding config is only a ledger label and the refusal precedes any
    // ledger write, so a placeholder config is never actually consulted
    let config = KernelConfig::Cg(CgConfig {
        grid: 4,
        max_iters: 50,
        storage: CgStorage::AssembledCsr,
        ..CgConfig::small()
    });
    let inj = Injector::new(kernel.as_ref(), Classifier::new(1e-1));
    let secant = ComposeConfig {
        secant: true,
        ..ComposeConfig::new(1e-1)
    };
    let err = compose_analysis(kernel.as_ref(), &config, &inj, &secant, None).unwrap_err();
    assert!(matches!(err, ComposeError::NotInstrumented), "got {err:?}");
    let msg = err.to_string();
    assert!(
        msg.contains("provenance-instrumented"),
        "error must tell the user what is missing: {msg}"
    );
    // fail-fast: the refusal must precede any campaign spend, which we
    // can only observe as it not having touched a ledger
    let ledger = tmp("secant-refused.ftbl");
    let _ = compose_analysis(kernel.as_ref(), &config, &inj, &secant, Some(&ledger)).unwrap_err();
    assert!(!ledger.exists(), "refused run must not create a ledger");
}
