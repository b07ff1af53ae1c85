//! **§5 "Overhead" study** — the memory and time costs the paper
//! discusses: the golden-trace footprint per kernel, the
//! instrumentation-overhead of tracing, and the buffered-vs-streamed
//! propagation extraction trade-off (a full faulty trace per experiment
//! against a one-sided comparison with the shared golden run).
//!
//! Usage: `cargo run --release -p ftb-bench --bin overhead`

use ftb_bench::perf::full_width_golden_bytes;
use ftb_bench::{paper_suite, Scale};
use ftb_inject::{Classifier, Injector};
use ftb_report::Table;
use ftb_trace::{propagation, FaultSpec, RecordMode};
use std::time::Instant;

fn main() {
    let suite = paper_suite(Scale::from_args());

    println!("\n=== golden-trace memory (the paper's §5 storage cost) ===\n");
    let mut t = Table::new(&[
        "bench",
        "sites",
        "full-width KiB",
        "compact KiB",
        "bytes/site",
        "untraced run",
        "golden record",
    ]);
    for b in &suite {
        let kernel = b.build();
        let g = kernel.golden();
        let full = full_width_golden_bytes(&g);

        let time_of = |f: &dyn Fn()| {
            let reps = 20;
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        };
        let untraced = time_of(&|| {
            kernel.run_untraced();
        });
        let recorded = time_of(&|| {
            kernel.golden();
        });

        t.row(&[
            b.name.to_string(),
            g.n_sites().to_string(),
            format!("{:.1}", full as f64 / 1024.0),
            format!(
                "{:.1} ({:.0}%)",
                g.memory_bytes() as f64 / 1024.0,
                g.memory_bytes() as f64 / full as f64 * 100.0
            ),
            format!("{:.1}", g.memory_bytes() as f64 / g.n_sites() as f64),
            format!("{:.1} µs", untraced * 1e6),
            format!("{:.1} µs ({:.2}x)", recorded * 1e6, recorded / untraced),
        ]);
    }
    print!("{}", t.render());

    println!("\n=== propagation extraction: buffered vs streamed ===\n");
    let mut t = Table::new(&[
        "bench",
        "buffered (O(sites) mem)",
        "streamed (O(1) mem)",
        "identical fold?",
    ]);
    for b in &suite {
        let kernel = b.build();
        let golden = kernel.golden();
        let injector = Injector::new(kernel.as_ref(), Classifier::new(b.tolerance));
        let site = golden.n_sites() / 4;
        let fault = FaultSpec { site, bit: 20 };

        let t0 = Instant::now();
        let run = kernel.run_injected(fault, RecordMode::Full);
        let prop = propagation(&golden, &run);
        let buffered_time = t0.elapsed().as_secs_f64();
        let buffered: Vec<(usize, f64)> = prop.iter().filter(|&(_, d)| d > 0.0).collect();

        let t0 = Instant::now();
        let mut streamed: Vec<(usize, f64)> = Vec::new();
        let _ = injector.extract_propagation(fault.site, fault.bit, injector.n_sites(), |s, d| {
            streamed.push((s, d));
        });
        let streamed_time = t0.elapsed().as_secs_f64();

        t.row(&[
            b.name.to_string(),
            format!("{:.2} ms", buffered_time * 1e3),
            format!("{:.2} ms", streamed_time * 1e3),
            if streamed == buffered {
                "yes".into()
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nstreamed compares against the shared compact golden while the faulty run \
         executes, so no per-experiment trace is buffered"
    );
}
