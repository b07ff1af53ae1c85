//! # ftb-cli
//!
//! Library backing the `ftb` command-line tool: argument parsing, kernel
//! construction from flags, and the command implementations. Kept as a
//! library so the commands are unit-testable without spawning processes.
//!
//! ```text
//! ftb golden     --kernel cg --grid 8                 # golden-run stats
//! ftb campaign   --kernel lu --n 16 --samples 2000    # Monte-Carlo campaign
//! ftb exhaustive --kernel fft --n1 8 --n2 8           # exhaustive ground truth
//! ftb analyze    --kernel cg --rate 0.01              # boundary inference
//! ftb adaptive   --kernel fft --n1 16 --n2 16         # §3.4 adaptive loop
//! ```

#![warn(missing_docs, clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

pub use args::{parse, Args, CliError};

/// Entry point shared by `main.rs` and the tests. Returns the process
/// exit code.
pub fn run(raw: &[String]) -> i32 {
    match parse(raw) {
        Ok(args) => match commands::dispatch(&args) {
            Ok(output) => {
                println!("{output}");
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            2
        }
    }
}
