//! `perfbench`: drives the ftb library's public API the way the `ftb`
//! CLI does, on four workloads, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics, measured
//! with span recording off. With `--trace 1` it carries the per-layer
//! metrics: every call the benchmark makes into a layer is recorded as a
//! span, and self times come from those spans. Every run also verifies
//! the program's outputs (counted in `attempted`/`failed`) and checks that
//! the deterministic results repeat exactly for the seed.
//!
//! See `perfbench/README.md` for the workloads and metric definitions.

mod adaptive;
mod certify;
mod compose;
mod exhaustive;
mod spans;
mod verify;

use ftb_inject::{Classifier, Injector, DEFAULT_MAX_SNAPSHOTS};
use ftb_kernels::Kernel;
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("boundary_s", "s"),
    ("campaign_eps", "exp/s"),
    ("boundary_precision", "ratio"),
    ("boundary_recall", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), name and unit. A layer a workload
/// does not call reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.build_s", "s"),
    ("kernels.golden_s", "s"),
    ("kernels.golden_ddg_s", "s"),
    ("kernels.dyn_instructions", "count"),
    ("trace.compact_s", "s"),
    ("trace.compact_mb", "MB"),
    ("trace.ddg_edges", "count"),
    ("inject.snapshot.capture_s", "s"),
    ("inject.snapshot.count", "count"),
    ("inject.snapshot.store_mb", "MB"),
    ("inject.snapshot.served_frac", "ratio"),
    ("inject.campaign.run_batch_s", "s"),
    ("inject.campaign.run_batch_max_s", "s"),
    ("inject.campaign.run_batch_count", "count"),
    ("inject.campaign.masked", "count"),
    ("inject.campaign.sdc", "count"),
    ("inject.campaign.crash", "count"),
    ("inject.campaign.injections", "count"),
    ("inject.campaign.scratch_eps", "exp/s"),
    ("inject.campaign.snapshot_eps", "exp/s"),
    ("inject.campaign.batch_eps", "exp/s"),
    ("inject.campaign.run_many_s", "s"),
    ("inject.campaign.run_one_traced_s", "s"),
    ("inject.ledger.append_s", "s"),
    ("inject.ledger.mb", "MB"),
    ("inject.sections.campaign_s", "s"),
    ("inject.sections.campaign_max_s", "s"),
    ("inject.sections.count", "count"),
    ("inject.sections.injections", "count"),
    ("core.adaptive.step_s", "s"),
    ("core.adaptive.step_tail_s", "s"),
    ("core.adaptive.step_tail_pct", "%"),
    ("core.adaptive.rounds", "count"),
    ("core.adaptive.self_s", "s"),
    ("core.adaptive.masked_frac", "ratio"),
    ("core.adaptive.pruned_frac", "ratio"),
    ("core.infer.finish_s", "s"),
    ("core.staticbound.backward_s", "s"),
    ("core.absint.forward_interval_s", "s"),
    ("core.absint.masks_s", "s"),
    ("core.absint.affine_forward_s", "s"),
    ("core.absint.slice_s", "s"),
    ("core.absint.dead_sites", "count"),
    ("core.absint.affine_bound_s", "s"),
    ("core.absint.affine_sweep_self_s", "s"),
    ("core.absint.swept_sites", "count"),
    ("core.absint.tightened_sites", "count"),
    ("core.absint.certified_frac", "ratio"),
    ("core.absint.certified_frac_interval", "ratio"),
    ("core.compose.analysis_s", "s"),
    ("core.compose.fold_s", "s"),
    ("core.compose.self_s", "s"),
    ("run.traced_s", "s"),
    ("run.unattributed_s", "s"),
    ("run.tracing_overhead_s", "s"),
    ("run.threads", "count"),
    ("run.nproc", "count"),
    ("verify.failed_frac", "ratio"),
];

/// Everything a workload run needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// Measurement budget for the repeated main operation.
    pub seconds: f64,
    pub trace: bool,
    pub spans: Spans,
    /// Scratch directory for ledgers, spans and the repeat record.
    pub out: PathBuf,
}

impl Ctx {
    /// A sub-seed for one purpose of this workload (input, sampling,
    /// held-out plan), so each purpose changes with the workload seed.
    pub fn derive(&self, purpose: u64) -> u64 {
        splitmix(self.seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Metrics, verification tally and deterministic results of one run.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    exact: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one verification operation; report it on stderr if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: verification failed: {}", what());
        }
    }

    /// A value that must repeat bit for bit for the same seed and build.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.exact.push((name, value));
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Record the golden run and build the injector the way the CLI does:
/// streamed extraction, optionally snapshots and lane batching.
pub fn build_injector<'k>(
    sp: &Spans,
    kernel: &'k dyn Kernel,
    tolerance: f64,
    snapshots: bool,
    lanes: usize,
) -> Injector<'k> {
    let golden = sp.span("kernels.golden", || kernel.golden());
    let mut injector = sp.span("trace.compact", || {
        Injector::with_golden(kernel, golden, Classifier::new(tolerance))
    });
    if snapshots {
        injector = sp.span("inject.snapshot.capture", || {
            injector.with_snapshots(DEFAULT_MAX_SNAPSHOTS)
        });
    }
    injector.with_batch_lanes(lanes)
}

/// Time throw-away set-ups (kernel build, golden run, injector) for the
/// `setup_s` median: at least two, and more while they add up to under
/// half a second, so millisecond set-ups get a steady median. None in the
/// traced run. The caller times the kept set-up and adds it.
pub fn throwaway_setups(
    ctx: &Ctx,
    cfg: &ftb_kernels::KernelConfig,
    tolerance: f64,
    snapshots: bool,
    lanes: usize,
) -> Vec<f64> {
    let off = Spans::new(false);
    let start = Instant::now();
    let mut times = Vec::new();
    while !ctx.trace
        && (times.len() < 2 || (start.elapsed().as_secs_f64() < 0.5 && times.len() < 199))
    {
        let t = Instant::now();
        let kernel = cfg.build();
        let injector = build_injector(&off, kernel.as_ref(), tolerance, snapshots, lanes);
        std::hint::black_box(injector.n_sites());
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

/// Time the workload's main operation. Untraced, `op` runs twice, then
/// again while one more run is expected to end within `--seconds` of the
/// first start; traced, once. Every repeat must give a result `same` as
/// the first, and only the first is kept, so peak memory does not depend
/// on how many repeats fit. Returns the median seconds and the first
/// result.
pub fn timed<T>(
    ctx: &Ctx,
    r: &mut Report,
    mut op: impl FnMut() -> Result<T, String>,
    same: impl Fn(&T, &T) -> bool,
) -> Result<(f64, T), String> {
    let start = Instant::now();
    let first = op()?;
    let mut secs = vec![start.elapsed().as_secs_f64()];
    while !ctx.trace
        && (secs.len() < 2
            || secs.iter().sum::<f64>() * (1.0 + 1.0 / secs.len() as f64) <= ctx.seconds)
    {
        let t = Instant::now();
        let again = op()?;
        secs.push(t.elapsed().as_secs_f64());
        r.check(same(&first, &again), || {
            "a repeat of the main operation disagrees".into()
        });
    }
    Ok((spans::median(&secs), first))
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Compare the run's deterministic results with the ones recorded by an
/// earlier run of the same executable and seed, or record them.
fn repeat_check(
    out: &Path,
    workload: &str,
    seed: u64,
    exact: &[(&str, f64)],
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let meta = std::fs::metadata(&exe).map_err(|e| e.to_string())?;
    let stamp = format!(
        "{}:{:?}",
        meta.len(),
        meta.modified().map_err(|e| e.to_string())?
    );
    let mut text = format!("build {stamp}\n");
    for (name, v) in exact {
        let _ = writeln!(text, "{name} {:016x} {v:?}", v.to_bits());
    }
    let dir = out.join("repeat");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{workload}-seed{seed}.txt"));
    if let Ok(prev) = std::fs::read_to_string(&path) {
        if prev.lines().next() == text.lines().next() && prev != text {
            return Err(format!(
                "deterministic results drifted for seed {seed}:\n--- recorded\n{prev}--- now\n{text}"
            ));
        }
    }
    std::fs::write(&path, text).map_err(|e| e.to_string())
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{k}'"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), v);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let seed = get("seed")?.parse().map_err(|_| "--seed: not an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        spans: Spans::new(trace),
        out: PathBuf::from(get("out")?),
    };
    Ok((get("workload")?.clone(), ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx) -> Result<Report, String> = match workload.as_str() {
        "exhaustive-jacobi" => exhaustive::run,
        "adaptive-cg" => adaptive::run,
        "certify-lu" => certify::run,
        "compose-cg" => compose::run,
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("perfbench: creating {}: {e}", ctx.out.display());
        return ExitCode::FAILURE;
    }
    // One dedicated pool sized to the machine, so per-workload set-up
    // time and memory do not depend on what else the scheduler runs.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(nproc)
        .build()
        .expect("the pool shim cannot fail to build");
    let result = pool.install(|| run(&ctx)).and_then(|mut r| {
        if r.attempted == 0 {
            return Err("no verification operation ran".into());
        }
        r.set("peak_rss_mb", peak_rss_mb()?);
        repeat_check(&ctx.out, &workload, ctx.seed, &r.exact)?;
        Ok(r)
    });
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.set("run.threads", nproc as f64);
    report.set("run.nproc", nproc as f64);
    report.set(
        "verify.failed_frac",
        report.failed as f64 / report.attempted as f64,
    );
    if ctx.trace {
        let path = ctx
            .out
            .join(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
        if let Err(e) = ctx.spans.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match report.values.get(name) {
            Some(v) => *v,
            None if ctx.trace => 0.0,
            None => {
                eprintln!("perfbench: {workload} did not measure {name}");
                return ExitCode::FAILURE;
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {workload}: {name} is {value}");
            return ExitCode::FAILURE;
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "perfbench: workload={workload} seed={} trace={} threads={nproc} nproc={nproc} \
         verified={} failed={}",
        ctx.seed, ctx.trace as u8, report.attempted, report.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    ExitCode::SUCCESS
}
