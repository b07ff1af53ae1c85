//! Flag parsing for the `ftb` CLI (hand-rolled; the workspace's offline
//! dependency set has no argument-parsing crate, and the surface is
//! small enough not to need one).

use ftb_core::{Domain, FilterMode};
use ftb_kernels::{
    CgConfig, CgStorage, FftConfig, GemmConfig, JacobiConfig, KernelConfig, LuConfig, MatvecConfig,
    SpmvConfig, StencilConfig, SweepTweak,
};
use ftb_trace::Precision;
use std::collections::HashMap;
use std::fmt;

/// Usage text printed on parse errors and `ftb help`.
pub const USAGE: &str = "\
ftb — fault tolerance boundary analysis (PPoPP'21 reproduction)

USAGE:
    ftb <command> --kernel <cg|lu|fft|stencil|matvec|spmv|gemm|jacobi> [options]

COMMANDS:
    golden       record the golden run and print its statistics
    campaign     uniform Monte-Carlo fault-injection campaign
    exhaustive   exhaustive campaign (every bit of every site)
    analyze      sample uniformly, infer the boundary, self-verify
    analyze static
                 zero-injection analytical boundary from the golden run's
                 dependence graph, validated against exhaustive truth
    analyze compose
                 compositional boundary: segment the golden run into
                 sections, run per-section campaigns, compose them through
                 error-transfer summaries; incremental re-analysis via a
                 sectioned ledger (--checkpoint: every matching section
                 record is reused, only changed sections re-run)
    analyze bits
                 bit-level vulnerability map: forward interval analysis
                 over the dependence graph classifies every (site, bit)
                 flip as certified-masked / crash-likely / unknown, with a
                 conservatism scorecard against exhaustive ground truth
    analyze characterize
                 serial-vs-parallel outcome characterization: re-run the
                 exhaustive campaign under dedicated worker pools
                 (--threads, default 1,4,8) and compare per-site outcome
                 distributions with the total-variation distance; any
                 nonzero distance is a reproducibility bug
    adaptive     adaptive progressive sampling (paper §3.4); seeds from
                 the static boundary with --static-prior
    report       per-static-instruction / per-region vulnerability table
    protect      selective-protection plan from the inferred boundary
    help         print this text

Outcome experiments resume from golden-run snapshots on jacobi, gemm, lu
and matrix-free cg, and run as lane-batched sweeps on jacobi, gemm and
lu. Results are bit-identical to from-scratch execution.

Each command accepts the kernel options plus the options it reads;
any other option is refused.

KERNEL OPTIONS (defaults in parentheses; an option the selected kernel
does not read is refused):
    --kernel NAME          kernel to analyse (required)
    --grid N               cg/stencil/spmv/jacobi grid dimension (8 / 12 / 10 / 6)
    --csr                  cg only: assemble an explicit CSR matrix (MiniFE
                           semantics; matrix entries become injectable)
    --rtol F               cg only: relative residual target (1e-4)
    --max-iters N          cg only: iteration cap (4 x grid^2)
    --n N                  lu/matvec/gemm matrix dimension (16 / 24 / 12)
    --block N              lu block size (4)
    --n1 N --n2 N          fft factorisation (16 x 16)
    --sweeps N             stencil/jacobi sweeps (8 / 30)
    --fine N               jacobi only: nonzero traces every off-diagonal
                           accumulation as its own instruction (0)
    --resid-every N        jacobi only: compute the residual every N
                           sweeps, >= 1 (1)
    --tweak-sweep N        jacobi only: weighted-relaxation edit to sweep
                           N's body (the incremental re-analysis demo)
    --tweak-omega F        with --tweak-sweep: relaxation weight of the
                           tweaked sweep, in (0, 1] (0.5)
    --f32                  32-bit data elements (default for cg)
    --f64                  64-bit data elements
    --seed N               input/sampling seed (42)

ANALYSIS OPTIONS:
    --tolerance T          output tolerance, L-inf (1e-6)
    --rate R               sampling rate for analyze, in (0, 1] (0.01)
    --samples N            experiment count for campaign (1000)
    --filter MODE          off | per-site | global (per-site)
    --safety F             analyze static: divide analytical thresholds
                           by F >= 1 as a rounding margin (1.0)
    --no-validate          analyze static/bits: skip the exhaustive
                           validation campaign, print only the
                           zero-injection artifact
    --static-prior         adaptive: seed the sampler with the static
                           boundary (instrumented kernels only)
    --max-sections N       analyze compose: coalesce the section map to at
                           most N sections (32)
    --secant               analyze compose: additionally bound each
                           section's transfer amplification with the DDG
                           secant quotient (instrumented kernels only)
    --widen F              analyze bits: relative input widening for the
                           forward interval pass, >= 0 (0 = envelopes
                           around the concrete golden run)
    --domain NAME          analyze bits / --bit-prune: abstract domain for
                           the zero-injection certification: interval
                           (the default) or affine. The affine domain
                           rides signed derivatives so reconverging
                           paths cancel, certifies empty-cone sites via
                           the influence slice, and is never looser than
                           interval; analyze bits prints a side-by-side
                           tightness scorecard. Sweep cost scales with
                           sites x budget
    --budget N             affine domain: noise-symbol budget per node,
                           >= 1 (32); larger is tighter and slower
    --threads LIST         analyze characterize: comma-separated worker
                           pool sizes to compare (1,4,8)
    --bit-prune            exhaustive/adaptive: skip (exhaustive) or
                           deprioritise (adaptive) bits the forward
                           interval analysis certifies as masked
                           (instrumented kernels only)
    --json PATH            also write results as JSON

CHECKPOINT / OBSERVABILITY OPTIONS (campaign, exhaustive, adaptive):
    --checkpoint PATH      stream progress to a crash-safe checkpoint: a
                           JSONL experiment ledger (campaign/exhaustive)
                           or a per-round sampler state file (adaptive)
    --resume               continue from an existing checkpoint, running
                           only the experiments it does not already hold
    --metrics-out PATH     write a machine-readable metrics summary JSON
                           (counts, throughput, chunk timings)
    --chunk N              campaign/exhaustive: experiments per ledger
                           chunk (256)
";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Subcommand name.
    pub command: String,
    /// Kernel configuration assembled from the flags.
    pub kernel: KernelConfig,
    /// Output tolerance `T`.
    pub tolerance: f64,
    /// Sampling rate for `analyze`.
    pub rate: f64,
    /// Experiment count for `campaign`.
    pub samples: u64,
    /// The §3.5 filter mode.
    pub filter: FilterMode,
    /// Seed.
    pub seed: u64,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional checkpoint path (experiment ledger / adaptive state).
    pub checkpoint: Option<String>,
    /// Resume from an existing checkpoint instead of starting over.
    pub resume: bool,
    /// Optional metrics-summary JSON output path.
    pub metrics_out: Option<String>,
    /// Experiments per ledger chunk.
    pub chunk: usize,
    /// `analyze static`: safety divisor applied to analytical thresholds.
    pub safety: f64,
    /// `analyze static`: skip the validation campaign.
    pub no_validate: bool,
    /// `adaptive`: seed the sampler with the static boundary.
    pub static_prior: bool,
    /// `analyze compose`: section-map coalescing cap.
    pub max_sections: usize,
    /// `analyze compose`: secant-bound transfer amplifications with the
    /// DDG quotient.
    pub secant: bool,
    /// `exhaustive`/`adaptive`: prune statically certified bits.
    pub bit_prune: bool,
    /// `analyze bits`: relative input widening for the forward pass.
    pub widen: f64,
    /// Abstract domain for zero-injection certification (the affine
    /// domain carries `--budget`).
    pub domain: Domain,
    /// `analyze characterize`: worker pool sizes to compare.
    pub threads: Vec<usize>,
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 8] = [
    "f32",
    "f64",
    "csr",
    "resume",
    "no-validate",
    "static-prior",
    "secant",
    "bit-prune",
];

/// Flags that take a value. Anything in neither list is refused, so a
/// misspelt or retired flag fails loudly instead of silently falling
/// back to a default.
const VALUE_FLAGS: [&str; 28] = [
    "kernel",
    "grid",
    "rtol",
    "max-iters",
    "n",
    "block",
    "n1",
    "n2",
    "sweeps",
    "fine",
    "resid-every",
    "tweak-sweep",
    "tweak-omega",
    "seed",
    "tolerance",
    "rate",
    "samples",
    "filter",
    "json",
    "checkpoint",
    "metrics-out",
    "chunk",
    "safety",
    "max-sections",
    "widen",
    "domain",
    "budget",
    "threads",
];

/// Flags every command takes: they configure the kernel. Each kernel
/// reads only its own ([`kernel_flags`]).
const KERNEL_FLAGS: [&str; 17] = [
    "kernel",
    "grid",
    "csr",
    "rtol",
    "max-iters",
    "n",
    "block",
    "n1",
    "n2",
    "sweeps",
    "fine",
    "resid-every",
    "tweak-sweep",
    "tweak-omega",
    "f32",
    "f64",
    "seed",
];

/// The kernel flags `kernel` reads besides `kernel`, `seed`, `f32` and
/// `f64`; `None` for an unknown kernel. Any other kernel flag is refused.
fn kernel_flags(kernel: &str) -> Option<&'static [&'static str]> {
    Some(match kernel {
        "cg" => &["grid", "rtol", "max-iters", "csr"],
        "lu" => &["n", "block"],
        "fft" => &["n1", "n2"],
        "stencil" => &["grid", "sweeps"],
        "matvec" | "gemm" => &["n"],
        "spmv" => &["grid"],
        "jacobi" => &[
            "grid",
            "sweeps",
            "fine",
            "resid-every",
            "tweak-sweep",
            "tweak-omega",
        ],
        _ => return None,
    })
}

/// Flags that configure `--bit-prune`'s certification, on the commands
/// where pruning is optional.
const BIT_PRUNE_FLAGS: [&str; 4] = ["domain", "budget", "safety", "widen"];

/// The flags `command` reads besides [`KERNEL_FLAGS`]. Any other flag is
/// refused, so a misplaced option fails loudly instead of running
/// without effect.
fn command_flags(command: &str) -> &'static [&'static str] {
    match command {
        "campaign" => &[
            "tolerance",
            "samples",
            "json",
            "checkpoint",
            "resume",
            "metrics-out",
            "chunk",
        ],
        "exhaustive" => &[
            "tolerance",
            "json",
            "checkpoint",
            "resume",
            "metrics-out",
            "chunk",
            "bit-prune",
            "domain",
            "budget",
            "safety",
            "widen",
        ],
        "analyze" | "report" | "protect" => &["tolerance", "rate", "filter", "json"],
        "analyze-static" => &[
            "tolerance",
            "rate",
            "filter",
            "safety",
            "no-validate",
            "json",
        ],
        // the sectioned ledger reuses every matching record, so there
        // is no --resume switch
        "analyze-compose" => &[
            "tolerance",
            "rate",
            "safety",
            "no-validate",
            "max-sections",
            "secant",
            "checkpoint",
            "json",
        ],
        "analyze-bits" => &[
            "tolerance",
            "safety",
            "widen",
            "domain",
            "budget",
            "no-validate",
            "json",
        ],
        "analyze-characterize" => &["tolerance", "threads", "json"],
        "adaptive" => &[
            "tolerance",
            "filter",
            "static-prior",
            "checkpoint",
            "resume",
            "metrics-out",
            "json",
            "bit-prune",
            "domain",
            "budget",
            "safety",
            "widen",
        ],
        // golden: the kernel flags only
        _ => &[],
    }
}

/// Refuse every flag `command` would ignore: one it never reads, a kernel
/// flag the selected kernel never reads, or one that only qualifies
/// another flag that is absent.
fn refuse_inapplicable(command: &str, flags: &HashMap<String, String>) -> Result<(), CliError> {
    let shown = command.replace('-', " ");
    let kernel = flags.get("kernel").map_or("", String::as_str);
    let kernel_reads = kernel_flags(kernel);
    let prune_optional = matches!(command, "exhaustive" | "adaptive");
    // (flag, the flag it qualifies, whether that one is present)
    let qualifiers = [
        ("resume", "--checkpoint", flags.contains_key("checkpoint")),
        (
            "tweak-omega",
            "--tweak-sweep",
            flags.contains_key("tweak-sweep"),
        ),
        (
            "budget",
            "--domain affine",
            flags.get("domain").map(String::as_str) == Some("affine"),
        ),
    ];
    let mut given: Vec<&str> = flags.keys().map(String::as_str).collect();
    given.sort_unstable();
    for key in given {
        if !KERNEL_FLAGS.contains(&key) && !command_flags(command).contains(&key) {
            return Err(err(format!("--{key} does not apply to '{shown}'")));
        }
        let every_kernel = ["kernel", "seed", "f32", "f64"].contains(&key);
        if KERNEL_FLAGS.contains(&key)
            && !every_kernel
            && kernel_reads.is_some_and(|reads| !reads.contains(&key))
        {
            return Err(err(format!("--{key} does not apply to kernel '{kernel}'")));
        }
        if let Some((_, needed, _)) = qualifiers
            .iter()
            .find(|&&(flag, _, present)| flag == key && !present)
        {
            return Err(err(format!(
                "--{key} does not apply to '{shown}' without {needed}"
            )));
        }
        if prune_optional && BIT_PRUNE_FLAGS.contains(&key) && !flags.contains_key("bit-prune") {
            return Err(err(format!(
                "--{key} does not apply to '{shown}' without --bit-prune"
            )));
        }
    }
    Ok(())
}

/// Parse raw arguments (excluding the program name).
pub fn parse(raw: &[String]) -> Result<Args, CliError> {
    let command = raw
        .first()
        .ok_or_else(|| err("missing command"))?
        .to_string();
    if command == "help" || command == "--help" || command == "-h" {
        return Err(err("help requested"));
    }
    const COMMANDS: [&str; 7] = [
        "golden",
        "campaign",
        "exhaustive",
        "analyze",
        "adaptive",
        "report",
        "protect",
    ];
    if !COMMANDS.contains(&command.as_str()) {
        return Err(err(format!("unknown command '{command}'")));
    }
    // `analyze static` / `analyze compose` are two-word subcommands
    let mut flag_start = 1;
    let command = match (command.as_str(), raw.get(1).map(String::as_str)) {
        ("analyze", Some("static")) => {
            flag_start = 2;
            "analyze-static".to_string()
        }
        ("analyze", Some("compose")) => {
            flag_start = 2;
            "analyze-compose".to_string()
        }
        ("analyze", Some("bits")) => {
            flag_start = 2;
            "analyze-bits".to_string()
        }
        ("analyze", Some("characterize")) => {
            flag_start = 2;
            "analyze-characterize".to_string()
        }
        _ => command,
    };

    // collect --key value / --flag pairs
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut i = flag_start;
    while i < raw.len() {
        let key = raw[i]
            .strip_prefix("--")
            .ok_or_else(|| err(format!("expected a --flag, got '{}'", raw[i])))?;
        if BOOLEAN_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
        } else if VALUE_FLAGS.contains(&key) {
            let value = raw
                .get(i + 1)
                .ok_or_else(|| err(format!("--{key} needs a value")))?;
            flags.insert(key.to_string(), value.clone());
            i += 2;
        } else {
            return Err(err(format!("unknown flag --{key}")));
        }
    }
    refuse_inapplicable(&command, &flags)?;

    let get_usize = |k: &str, default: usize| -> Result<usize, CliError> {
        match flags.get(k) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{k}: bad integer '{v}'"))),
        }
    };
    let get_f64 = |k: &str, default: f64| -> Result<f64, CliError> {
        match flags.get(k) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{k}: bad number '{v}'"))),
        }
    };

    let seed = get_usize("seed", 42)? as u64;
    let kernel_name = flags
        .get("kernel")
        .ok_or_else(|| err("--kernel is required"))?
        .as_str();

    let precision = if flags.contains_key("f32") {
        Some(Precision::F32)
    } else if flags.contains_key("f64") {
        Some(Precision::F64)
    } else {
        None
    };

    let kernel = match kernel_name {
        "cg" => {
            let grid = get_usize("grid", 8)?;
            KernelConfig::Cg(CgConfig {
                grid,
                rtol: get_f64("rtol", 1e-4)?,
                max_iters: get_usize("max-iters", 4 * grid * grid)?,
                precision: precision.unwrap_or(Precision::F32),
                seed,
                storage: if flags.contains_key("csr") {
                    CgStorage::AssembledCsr
                } else {
                    CgStorage::MatrixFree
                },
            })
        }
        "lu" => KernelConfig::Lu(LuConfig {
            n: get_usize("n", 16)?,
            block: get_usize("block", 4)?,
            precision: precision.unwrap_or(Precision::F64),
            seed,
        }),
        "fft" => KernelConfig::Fft(FftConfig {
            n1: get_usize("n1", 16)?,
            n2: get_usize("n2", 16)?,
            precision: precision.unwrap_or(Precision::F64),
            seed,
        }),
        "stencil" => KernelConfig::Stencil(StencilConfig {
            grid: get_usize("grid", 12)?,
            sweeps: get_usize("sweeps", 8)?,
            precision: precision.unwrap_or(Precision::F64),
            seed,
        }),
        "matvec" => KernelConfig::Matvec(MatvecConfig {
            n: get_usize("n", 24)?,
            precision: precision.unwrap_or(Precision::F64),
            seed,
        }),
        "spmv" => KernelConfig::Spmv(SpmvConfig {
            grid: get_usize("grid", 10)?,
            precision: precision.unwrap_or(Precision::F64),
            seed,
        }),
        "jacobi" => KernelConfig::Jacobi(JacobiConfig {
            grid: get_usize("grid", 6)?,
            sweeps: get_usize("sweeps", 30)?,
            precision: precision.unwrap_or(Precision::F64),
            seed,
            fine_grained: get_usize("fine", 0)? != 0,
            residual_every: {
                let re = get_usize("resid-every", 1)?;
                if re == 0 {
                    return Err(err("--resid-every must be at least 1"));
                }
                re
            },
            tweak: if flags.contains_key("tweak-sweep") {
                Some(SweepTweak {
                    sweep: get_usize("tweak-sweep", 0)?,
                    omega: {
                        let w = get_f64("tweak-omega", 0.5)?;
                        if !(w.is_finite() && w > 0.0 && w <= 1.0) {
                            return Err(err("--tweak-omega must be in (0, 1]"));
                        }
                        w
                    },
                })
            } else {
                None
            },
        }),
        "gemm" => KernelConfig::Gemm(GemmConfig {
            n: get_usize("n", 12)?,
            precision: precision.unwrap_or(Precision::F64),
            seed,
        }),
        other => return Err(err(format!("unknown kernel '{other}'"))),
    };
    kernel.validate().map_err(err)?;

    Ok(Args {
        command,
        kernel,
        tolerance: {
            let t = get_f64("tolerance", 1e-6)?;
            if !(t.is_finite() && t >= 0.0) {
                return Err(err("--tolerance must be a finite number >= 0"));
            }
            t
        },
        rate: {
            let r = get_f64("rate", 0.01)?;
            if !(r.is_finite() && r > 0.0 && r <= 1.0) {
                return Err(err("--rate must be in (0, 1]"));
            }
            r
        },
        samples: get_usize("samples", 1000)? as u64,
        filter: match flags.get("filter") {
            None => FilterMode::PerSite,
            Some(name) => name.parse().map_err(err)?,
        },
        seed,
        json: flags.get("json").cloned(),
        checkpoint: flags.get("checkpoint").cloned(),
        resume: flags.contains_key("resume"),
        metrics_out: flags.get("metrics-out").cloned(),
        chunk: {
            let chunk = get_usize("chunk", 256)?;
            if chunk == 0 {
                return Err(err("--chunk must be at least 1"));
            }
            chunk
        },
        safety: {
            let safety = get_f64("safety", 1.0)?;
            if !(safety >= 1.0 && safety.is_finite()) {
                return Err(err("--safety must be a finite number >= 1"));
            }
            safety
        },
        no_validate: flags.contains_key("no-validate"),
        static_prior: flags.contains_key("static-prior"),
        max_sections: {
            let m = get_usize("max-sections", 32)?;
            if m == 0 {
                return Err(err("--max-sections must be at least 1"));
            }
            m
        },
        secant: flags.contains_key("secant"),
        bit_prune: flags.contains_key("bit-prune"),
        widen: {
            let w = get_f64("widen", 0.0)?;
            if !(w.is_finite() && w >= 0.0) {
                return Err(err("--widen must be a finite number >= 0"));
            }
            w
        },
        domain: {
            let affine = match flags.get("domain").map_or("interval", String::as_str) {
                "interval" => false,
                "affine" => true,
                d => {
                    return Err(err(format!(
                        "--domain: unknown domain '{d}' (expected interval | affine)"
                    )))
                }
            };
            let budget = get_usize("budget", 32)?;
            if budget == 0 {
                return Err(err("--budget must be at least 1"));
            }
            if affine {
                Domain::Affine { budget }
            } else {
                Domain::Interval
            }
        },
        threads: match flags.get("threads") {
            None => vec![1, 4, 8],
            Some(list) => {
                let counts: Vec<usize> = list
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| err(format!("--threads: bad pool-size list '{list}'")))?;
                if counts.is_empty() || counts.contains(&0) {
                    return Err(err("--threads: pool sizes must be at least 1"));
                }
                counts
            }
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_minimal_analyze() {
        let a = parse(&v(&["analyze", "--kernel", "cg"])).unwrap();
        assert_eq!(a.command, "analyze");
        assert!(matches!(a.kernel, KernelConfig::Cg(_)));
        assert_eq!(a.rate, 0.01);
        assert_eq!(a.filter, FilterMode::PerSite);
    }

    #[test]
    fn filter_is_parsed_once_and_bogus_modes_are_refused() {
        for (name, mode) in [
            ("off", FilterMode::Off),
            ("per-site", FilterMode::PerSite),
            ("global", FilterMode::Global),
        ] {
            let a = parse(&v(&["analyze", "--kernel", "cg", "--filter", name])).unwrap();
            assert_eq!(a.filter, mode);
        }
        let e = parse(&v(&["analyze", "--kernel", "cg", "--filter", "bogus"])).unwrap_err();
        assert_eq!(e.0, "unknown filter mode 'bogus'");
    }

    #[test]
    fn parses_analyze_compose_subcommand() {
        let a = parse(&v(&[
            "analyze",
            "compose",
            "--kernel",
            "jacobi",
            "--tolerance",
            "1e-4",
        ]))
        .unwrap();
        assert_eq!(a.command, "analyze-compose");
        assert_eq!(a.max_sections, 32);
        assert!(!a.secant);

        let a = parse(&v(&[
            "analyze",
            "compose",
            "--kernel",
            "jacobi",
            "--max-sections",
            "8",
            "--secant",
        ]))
        .unwrap();
        assert_eq!(a.max_sections, 8);
        assert!(a.secant);

        assert!(parse(&v(&[
            "analyze",
            "compose",
            "--kernel",
            "jacobi",
            "--max-sections",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_analyze_bits_subcommand() {
        let a = parse(&v(&["analyze", "bits", "--kernel", "jacobi"])).unwrap();
        assert_eq!(a.command, "analyze-bits");
        assert_eq!(a.widen, 0.0);
        assert!(!a.no_validate);

        let a = parse(&v(&[
            "analyze",
            "bits",
            "--kernel",
            "gemm",
            "--widen",
            "1e-6",
            "--no-validate",
        ]))
        .unwrap();
        assert_eq!(a.widen, 1e-6);
        assert!(a.no_validate);

        // negative or non-finite widening is refused
        assert!(parse(&v(&[
            "analyze", "bits", "--kernel", "gemm", "--widen", "-1"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "analyze", "bits", "--kernel", "gemm", "--widen", "inf"
        ]))
        .is_err());
    }

    #[test]
    fn parses_analyze_characterize_subcommand() {
        let a = parse(&v(&["analyze", "characterize", "--kernel", "lu"])).unwrap();
        assert_eq!(a.command, "analyze-characterize");
        assert_eq!(a.threads, vec![1, 4, 8]);

        let a = parse(&v(&[
            "analyze",
            "characterize",
            "--kernel",
            "fft",
            "--threads",
            "1,2,16",
        ]))
        .unwrap();
        assert_eq!(a.threads, vec![1, 2, 16]);

        // zero or malformed pool sizes are refused
        assert!(parse(&v(&[
            "analyze",
            "characterize",
            "--kernel",
            "fft",
            "--threads",
            "1,0"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "analyze",
            "characterize",
            "--kernel",
            "fft",
            "--threads",
            "two"
        ]))
        .is_err());
    }

    #[test]
    fn parses_domain_axis() {
        let a = parse(&v(&["analyze", "bits", "--kernel", "jacobi"])).unwrap();
        assert_eq!(a.domain, Domain::Interval);
        let a = parse(&v(&[
            "analyze", "bits", "--kernel", "jacobi", "--domain", "affine",
        ]))
        .unwrap();
        assert_eq!(a.domain, Domain::Affine { budget: 32 });

        let a = parse(&v(&[
            "analyze", "bits", "--kernel", "jacobi", "--domain", "affine", "--budget", "8",
        ]))
        .unwrap();
        assert_eq!(a.domain, Domain::Affine { budget: 8 });

        let e = parse(&v(&[
            "analyze", "bits", "--kernel", "jacobi", "--domain", "octagon",
        ]))
        .unwrap_err();
        assert!(e.0.contains("interval | affine"), "{}", e.0);
        assert!(parse(&v(&[
            "analyze", "bits", "--kernel", "jacobi", "--budget", "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_bit_prune_flag() {
        let a = parse(&v(&["exhaustive", "--kernel", "jacobi", "--bit-prune"])).unwrap();
        assert!(a.bit_prune);
        let a = parse(&v(&["adaptive", "--kernel", "jacobi"])).unwrap();
        assert!(!a.bit_prune);
    }

    #[test]
    fn parses_jacobi_sweep_tweak() {
        let a = parse(&v(&[
            "golden",
            "--kernel",
            "jacobi",
            "--grid",
            "4",
            "--tweak-sweep",
            "2",
        ]))
        .unwrap();
        let KernelConfig::Jacobi(cfg) = &a.kernel else {
            panic!("wrong kernel")
        };
        let tweak = cfg.tweak.expect("tweak must be set");
        assert_eq!(tweak.sweep, 2);
        assert_eq!(tweak.omega, 0.5);

        let a = parse(&v(&[
            "golden",
            "--kernel",
            "jacobi",
            "--tweak-sweep",
            "1",
            "--tweak-omega",
            "0.8",
        ]))
        .unwrap();
        let KernelConfig::Jacobi(cfg) = &a.kernel else {
            panic!("wrong kernel")
        };
        assert_eq!(cfg.tweak.unwrap().omega, 0.8);

        // omega outside (0, 1] is refused
        assert!(parse(&v(&[
            "golden",
            "--kernel",
            "jacobi",
            "--tweak-sweep",
            "1",
            "--tweak-omega",
            "1.5"
        ]))
        .is_err());
    }

    #[test]
    fn parses_analyze_static_subcommand() {
        let a = parse(&v(&[
            "analyze",
            "static",
            "--kernel",
            "jacobi",
            "--tolerance",
            "1e-4",
        ]))
        .unwrap();
        assert_eq!(a.command, "analyze-static");
        assert!(matches!(a.kernel, KernelConfig::Jacobi(_)));
        assert_eq!(a.tolerance, 1e-4);
        assert_eq!(a.safety, 1.0);
        assert!(!a.no_validate);

        let a = parse(&v(&[
            "analyze",
            "static",
            "--kernel",
            "gemm",
            "--safety",
            "2",
            "--no-validate",
        ]))
        .unwrap();
        assert_eq!(a.safety, 2.0);
        assert!(a.no_validate);
        // plain analyze is unaffected
        let a = parse(&v(&["analyze", "--kernel", "gemm"])).unwrap();
        assert_eq!(a.command, "analyze");
    }

    #[test]
    fn rejects_sub_one_safety() {
        assert!(parse(&v(&[
            "analyze", "static", "--kernel", "gemm", "--safety", "0.5"
        ]))
        .is_err());
    }

    #[test]
    fn parses_static_prior_flag() {
        let a = parse(&v(&["adaptive", "--kernel", "jacobi", "--static-prior"])).unwrap();
        assert!(a.static_prior);
        let a = parse(&v(&["adaptive", "--kernel", "jacobi"])).unwrap();
        assert!(!a.static_prior);
    }

    #[test]
    fn parses_kernel_dimensions() {
        let a = parse(&v(&[
            "exhaustive",
            "--kernel",
            "fft",
            "--n1",
            "8",
            "--n2",
            "4",
            "--tolerance",
            "0.5",
        ]))
        .unwrap();
        match a.kernel {
            KernelConfig::Fft(f) => {
                assert_eq!(f.n1, 8);
                assert_eq!(f.n2, 4);
            }
            _ => panic!("wrong kernel"),
        }
        assert_eq!(a.tolerance, 0.5);
    }

    #[test]
    fn precision_flags() {
        let a = parse(&v(&["golden", "--kernel", "lu", "--f32"])).unwrap();
        match a.kernel {
            KernelConfig::Lu(l) => assert_eq!(l.precision, Precision::F32),
            _ => panic!(),
        }
        let a = parse(&v(&["golden", "--kernel", "cg"])).unwrap();
        match a.kernel {
            KernelConfig::Cg(c) => assert_eq!(c.precision, Precision::F32),
            _ => panic!(),
        }
    }

    #[test]
    fn seed_feeds_kernel_config() {
        let a = parse(&v(&["golden", "--kernel", "gemm", "--seed", "7"])).unwrap();
        match a.kernel {
            KernelConfig::Gemm(g) => assert_eq!(g.seed, 7),
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_unknown_command_and_kernel() {
        assert!(parse(&v(&["frobnicate", "--kernel", "cg"])).is_err());
        assert!(parse(&v(&["golden", "--kernel", "quantum"])).is_err());
        assert!(parse(&v(&["golden"])).is_err());
        assert!(parse(&v(&[])).is_err());
    }

    #[test]
    fn parses_checkpoint_flags() {
        let a = parse(&v(&[
            "campaign",
            "--kernel",
            "matvec",
            "--checkpoint",
            "ledger.jsonl",
            "--resume",
            "--metrics-out",
            "metrics.json",
            "--chunk",
            "64",
        ]))
        .unwrap();
        assert_eq!(a.checkpoint.as_deref(), Some("ledger.jsonl"));
        assert!(a.resume);
        assert_eq!(a.metrics_out.as_deref(), Some("metrics.json"));
        assert_eq!(a.chunk, 64);
    }

    #[test]
    fn checkpoint_flags_default_off() {
        let a = parse(&v(&["campaign", "--kernel", "matvec"])).unwrap();
        assert!(a.checkpoint.is_none());
        assert!(!a.resume);
        assert!(a.metrics_out.is_none());
        assert_eq!(a.chunk, 256);
    }

    #[test]
    fn zero_chunk_rejected() {
        assert!(parse(&v(&["campaign", "--kernel", "matvec", "--chunk", "0"])).is_err());
    }

    #[test]
    fn unknown_flags_rejected() {
        // a typo must not silently fall back to the default tolerance
        let e = parse(&v(&[
            "campaign",
            "--kernel",
            "matvec",
            "--tolerence",
            "1e-3",
        ]))
        .unwrap_err();
        assert_eq!(e.0, "unknown flag --tolerence");
        // the retired extraction-path options fail loudly too
        let e = parse(&v(&[
            "campaign",
            "--kernel",
            "matvec",
            "--extraction",
            "streamed",
        ]))
        .unwrap_err();
        assert_eq!(e.0, "unknown flag --extraction");
        let e = parse(&v(&["campaign", "--kernel", "matvec", "--capacity", "0"])).unwrap_err();
        assert_eq!(e.0, "unknown flag --capacity");
        // and so do the retired execution-strategy options: snapshot
        // resume and lane batching follow from the kernel
        for retired in [
            &["--snapshot"][..],
            &["--snapshot-max", "4"],
            &["--batch-lanes", "16"],
        ] {
            let mut raw = vec!["exhaustive", "--kernel", "jacobi"];
            raw.extend_from_slice(retired);
            let e = parse(&v(&raw)).unwrap_err();
            assert_eq!(e.0, format!("unknown flag {}", retired[0]));
        }
    }

    #[test]
    fn refuses_unbuildable_input_up_front() {
        let cases: [(&str, &[&str], &str); 8] = [
            (
                "matvec",
                &["--tolerance", "nan"],
                "--tolerance must be a finite number >= 0",
            ),
            (
                "matvec",
                &["--tolerance", "-1"],
                "--tolerance must be a finite number >= 0",
            ),
            ("lu", &["--block", "0"], "LU needs n >= 1 and block >= 1"),
            (
                "lu",
                &["--n", "10", "--block", "4"],
                "LU block 4 must divide n 10",
            ),
            (
                "fft",
                &["--n1", "3"],
                "FFT n1 must be a power of two >= 2, got 3",
            ),
            ("jacobi", &["--grid", "0"], "Jacobi needs grid >= 1"),
            ("matvec", &["--n", "0"], "matvec needs n >= 1"),
            (
                "stencil",
                &["--grid", "2"],
                "stencil grid needs an interior (grid >= 3), got 2",
            ),
        ];
        for (kernel, flags, msg) in cases {
            let mut raw = v(&["exhaustive", "--kernel", kernel]);
            raw.extend(v(flags));
            assert_eq!(parse(&raw).unwrap_err().0, msg, "{raw:?}");
        }
        let zero_tolerance = v(&["exhaustive", "--kernel", "matvec", "--tolerance", "0"]);
        assert!(parse(&zero_tolerance).is_ok());
    }

    #[test]
    fn rate_must_be_in_unit_interval() {
        let rate = |r: &str| parse(&v(&["analyze", "--kernel", "matvec", "--rate", r]));
        for bad in ["-0.5", "0", "nan", "inf", "7", "1.0001"] {
            let e = rate(bad).unwrap_err();
            assert_eq!(e.0, "--rate must be in (0, 1]", "--rate {bad}");
        }
        assert_eq!(rate("1").unwrap().rate, 1.0);
        assert_eq!(rate("0.35").unwrap().rate, 0.35);
    }

    /// Split a command line into arguments.
    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_a_command_would_ignore_are_refused() {
        let cases = [
            (
                "analyze bits --kernel jacobi --filter global",
                "--filter does not apply to 'analyze bits'",
            ),
            (
                "exhaustive --kernel jacobi --filter off",
                "--filter does not apply to 'exhaustive'",
            ),
            (
                "analyze static --kernel jacobi --domain affine --budget 8",
                "--budget does not apply to 'analyze static'",
            ),
            (
                "golden --kernel cg --tolerance 0.1",
                "--tolerance does not apply to 'golden'",
            ),
            (
                "adaptive --kernel matvec --chunk 64",
                "--chunk does not apply to 'adaptive'",
            ),
            (
                "analyze bits --kernel jacobi --budget 8",
                "--budget does not apply to 'analyze bits' without --domain affine",
            ),
            (
                "exhaustive --kernel jacobi --domain affine",
                "--domain does not apply to 'exhaustive' without --bit-prune",
            ),
            (
                "campaign --kernel matvec --resume",
                "--resume does not apply to 'campaign' without --checkpoint",
            ),
            (
                "analyze compose --kernel jacobi --checkpoint s.jsonl --resume",
                "--resume does not apply to 'analyze compose'",
            ),
            (
                "golden --kernel lu --grid 99 --sweeps 3",
                "--grid does not apply to kernel 'lu'",
            ),
            (
                "golden --kernel lu --tweak-omega 0.3",
                "--tweak-omega does not apply to kernel 'lu'",
            ),
            (
                "analyze compose --kernel jacobi --tweak-omega 0.3",
                "--tweak-omega does not apply to 'analyze compose' without --tweak-sweep",
            ),
        ];
        for (line, msg) in cases {
            assert_eq!(parse(&words(line)).unwrap_err().0, msg, "{line}");
            // a parse error: exit 2, before anything runs
            assert_eq!(crate::run(&words(line)), 2, "{line}");
        }
    }

    #[test]
    fn kernel_options_apply_only_to_kernels_that_read_them() {
        // (kernel, an option it reads, an option it does not)
        let cases = [
            ("cg", "--rtol 1e-6", "--n 8"),
            ("lu", "--block 8", "--sweeps 3"),
            ("fft", "--n1 8", "--grid 4"),
            ("stencil", "--sweeps 3", "--n 8"),
            ("matvec", "--n 8", "--grid 4"),
            ("spmv", "--grid 6", "--sweeps 3"),
            ("jacobi", "--resid-every 2", "--csr"),
            ("gemm", "--n 8", "--block 4"),
        ];
        for (kernel, reads, ignores) in cases {
            let line = format!("golden --kernel {kernel} --seed 3 --f64 {reads}");
            assert!(parse(&words(&line)).is_ok(), "{line}");
            let line = format!("golden --kernel {kernel} {ignores}");
            let flag = ignores.split_whitespace().next().unwrap();
            let msg = format!("{flag} does not apply to kernel '{kernel}'");
            assert_eq!(parse(&words(&line)).unwrap_err().0, msg, "{line}");
            assert_eq!(crate::run(&words(&line)), 2, "{line}");
        }
    }

    #[test]
    fn documented_combinations_parse() {
        // every option USAGE documents, on the commands it names, plus
        // the README and crate-doc examples
        let lines = [
            "golden --kernel cg --grid 8 --csr --f64 --seed 3",
            "golden --kernel cg --rtol 1e-6 --max-iters 50",
            "golden --kernel jacobi --fine 1 --resid-every 4",
            "campaign --kernel lu --n 16 --samples 2000",
            "campaign --kernel matvec --tolerance 1e-3 --json c.json --checkpoint c.jsonl \
             --resume --metrics-out m.json --chunk 64",
            "exhaustive --kernel fft --n1 8 --n2 8",
            "exhaustive --kernel lu --n 16 --checkpoint l.jsonl --resume",
            "exhaustive --kernel jacobi --grid 4 --sweeps 10 --tolerance 1e-4 --bit-prune \
             --domain affine --budget 8 --safety 2 --widen 0.1",
            "analyze --kernel cg --rate 0.01 --filter global --json a.json",
            "analyze static --kernel jacobi --grid 4 --safety 2 --no-validate --filter off \
             --rate 0.1 --json s.json",
            "analyze compose --kernel jacobi --grid 4 --sweeps 10 --tolerance 1e-4 --rate 0.5 \
             --seed 41 --checkpoint s.jsonl --tweak-sweep 5 --tweak-omega 0.5 \
             --max-sections 8 --safety 2 --no-validate --json c.json",
            "analyze compose --kernel lu --secant",
            "analyze bits --kernel jacobi --grid 4 --sweeps 10 --tolerance 1e-4 \
             --domain affine --json out.json",
            "analyze bits --kernel lu --domain affine --budget 8 --widen 0.01 --safety 2 \
             --no-validate",
            "analyze bits --kernel gemm --domain interval",
            "analyze characterize --kernel lu --n 8 --block 4 --tolerance 3e-5 \
             --threads 1,4,8 --json out.json",
            "adaptive --kernel fft --n1 16 --n2 16",
            "adaptive --kernel matvec --n 8 --seed 5 --filter off",
            "adaptive --kernel jacobi --grid 4 --sweeps 10 --tolerance 1e-4 --bit-prune \
             --domain affine --budget 4",
            "adaptive --kernel cg --static-prior --checkpoint s.json --resume \
             --metrics-out m.json --json r.json",
            "report --kernel stencil --rate 0.05 --filter global",
            "protect --kernel spmv --rate 0.05 --json p.json",
        ];
        for line in lines {
            if let Err(e) = parse(&words(line)) {
                panic!("{line}: {e}");
            }
        }
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(parse(&v(&["golden", "kernel", "cg"])).is_err());
        assert!(parse(&v(&["golden", "--kernel", "cg", "--grid"])).is_err());
        assert!(parse(&v(&["golden", "--kernel", "cg", "--grid", "NaNa"])).is_err());
    }
}
