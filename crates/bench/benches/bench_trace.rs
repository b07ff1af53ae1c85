//! Trace-layer micro-benchmarks: bit flips, branch-stream divergence
//! detection, and propagation extraction (golden-vs-faulty comparison).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ftb_inject::{Classifier, Injector};
use ftb_kernels::{Kernel, StencilConfig, StencilKernel};
use ftb_trace::bits::{flip_bit_f64, injected_error, Precision};
use ftb_trace::{divergence_cursor, propagation, FaultSpec, RecordMode};

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.sample_size(30);

    group.bench_function("flip_bit_f64", |b| {
        b.iter(|| flip_bit_f64(black_box(1.2345678), black_box(42)));
    });

    group.bench_function("injected_error_all_bits", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for bit in 0..64 {
                acc += injected_error(Precision::F64, black_box(1.2345678), bit).min(1e300);
            }
            acc
        });
    });

    // realistic traces from a stencil kernel
    let kernel = StencilKernel::new(StencilConfig::small());
    let golden = kernel.golden();
    let faulty = kernel.run_injected(FaultSpec { site: 150, bit: 30 }, RecordMode::Full);

    group.bench_function("divergence_cursor_equal_streams", |b| {
        b.iter(|| divergence_cursor(black_box(&golden.branches), black_box(&golden.branches)));
    });

    group.bench_function("propagation_extraction", |b| {
        b.iter(|| propagation(black_box(&golden), black_box(&faulty)));
    });

    group.bench_function("flip_errors_per_site", |b| {
        b.iter(|| golden.flip_errors(black_box(100)));
    });

    // buffered vs streamed propagation extraction (the §5 memory
    // trade-off: an O(sites) faulty trace vs a one-sided comparison
    // against the shared compact golden)
    group.bench_function("propagation_buffered_end_to_end", |b| {
        b.iter(|| {
            let run = kernel.run_injected(FaultSpec { site: 150, bit: 30 }, RecordMode::Full);
            propagation(&golden, &run).touched(0.0)
        });
    });
    group.bench_function("propagation_streamed_end_to_end", |b| {
        let injector = Injector::new(&kernel, Classifier::new(1e-6));
        b.iter(|| {
            let mut n = 0usize;
            injector.extract_propagation(150, 30, injector.n_sites(), |_, _| n += 1);
            n
        });
    });

    group.finish();
}

criterion_group!(trace, benches);
criterion_main!(trace);
