//! Disk cache for expensive ground-truth artifacts.
//!
//! The exhaustive campaign for a suite kernel costs seconds to tens of
//! seconds; several table/figure binaries need the same ground truth.
//! Results are cached under `target/ftb-cache/` (override with the
//! `FTB_CACHE_DIR` environment variable), keyed by a hash of the kernel
//! configuration and classifier, so editing either invalidates the entry.

use crate::suite::Benchmark;
use ftb_core::SampleSet;
use ftb_inject::{exhaustive_plan, CampaignBinding, ChunkedCampaign, ExhaustiveResult, Injector};
use ftb_kernels::Kernel;
use serde::{de::DeserializeOwned, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

fn cache_dir() -> PathBuf {
    std::env::var_os("FTB_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/ftb-cache"))
}

#[expect(
    clippy::expect_used,
    reason = "a kernel config is plain data and always serialises"
)]
fn key_of(bench: &Benchmark, kind: &str, extra: &str) -> PathBuf {
    let cfg = serde_json::to_string(&bench.config).expect("config serialises");
    let mut h = DefaultHasher::new();
    cfg.hash(&mut h);
    bench.tolerance.to_bits().hash(&mut h);
    extra.hash(&mut h);
    cache_dir().join(format!(
        "{}-{kind}-{:016x}.json",
        bench.name.to_lowercase(),
        h.finish()
    ))
}

fn load<T: DeserializeOwned>(path: &PathBuf) -> Option<T> {
    let bytes = std::fs::read(path).ok()?;
    serde_json::from_slice(&bytes).ok()
}

fn store<T: Serialize>(path: &PathBuf, value: &T) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Ok(bytes) = serde_json::to_vec(value) {
        let _ = std::fs::write(path, bytes);
    }
}

/// The exhaustive ground truth for a suite kernel, computed once and
/// cached on disk.
///
/// The campaign itself streams into a crash-safe experiment ledger next
/// to the cache entry, so a ground-truth computation killed partway
/// (a laptop lid close mid-suite) resumes from the completed prefix
/// instead of starting over. The ledger is deleted once the dense
/// result is cached.
pub fn exhaustive_cached(bench: &Benchmark, injector: &Injector<'_>) -> ExhaustiveResult {
    let path = key_of(bench, "exhaustive", "");
    if let Some(cached) = load::<ExhaustiveResult>(&path) {
        if cached.n_sites == injector.n_sites() && cached.bits == injector.bits() {
            return cached;
        }
    }
    eprintln!(
        "[cache] computing exhaustive campaign for {} ({} experiments)…",
        bench.name,
        injector.n_sites() as u64 * u64::from(injector.bits())
    );
    let ledger_path = path.with_extension("ledger.jsonl");
    if let Some(parent) = ledger_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let binding = CampaignBinding {
        kernel: bench.config.clone(),
        classifier: *injector.classifier(),
        n_sites: injector.n_sites(),
        bits: injector.bits(),
        plan: "exhaustive".to_string(),
        bit_prune: None,
        snapshot: None,
        batch: None,
    };
    let plan = exhaustive_plan(injector.n_sites(), injector.bits());
    let ex =
        match ChunkedCampaign::new(injector, plan, 1024).with_ledger(&ledger_path, binding, true) {
            Ok(mut cc) => {
                if cc.metrics().resumed > 0 {
                    eprintln!(
                        "[cache] resuming {} from ledger: {} of {} experiments done",
                        bench.name,
                        cc.metrics().resumed,
                        cc.metrics().total
                    );
                }
                match cc.run_to_completion() {
                    Ok(()) => cc.into_exhaustive(),
                    Err(_) => injector.exhaustive(),
                }
            }
            // an unusable ledger (foreign binding, mid-file damage) must not
            // block the suite — recompute directly
            Err(_) => injector.exhaustive(),
        };
    store(&path, &ex);
    let _ = std::fs::remove_file(&ledger_path);
    ex
}

/// A large uniform experiment sample used as *statistical ground truth*
/// where the exhaustive campaign is out of reach (the Table 4 large-input
/// case), cached on disk.
pub fn sampled_truth_cached(
    bench: &Benchmark,
    injector: &Injector<'_>,
    n: usize,
    seed: u64,
) -> SampleSet {
    let path = key_of(bench, "sampled-truth", &format!("{n}-{seed}"));
    if let Some(cached) = load::<SampleSet>(&path) {
        if cached.len() == n.min(injector.n_sites() * injector.bits() as usize) {
            return cached;
        }
    }
    eprintln!(
        "[cache] computing {n}-sample statistical ground truth for {}…",
        bench.name
    );
    let set = SampleSet::sample_uniform_pairs(injector, n, seed);
    store(&path, &set);
    set
}

/// Make a kernel + injector pair for a suite benchmark (helper used by
/// every binary).
pub fn build_injector(bench: &Benchmark) -> (Box<dyn Kernel>, ftb_inject::Classifier) {
    (bench.build(), bench.classifier())
}
