//! # ftb-trace
//!
//! Execution tracing substrate for the `ftb` fault-tolerance-boundary
//! library — the stand-in for the LLVM-level instrumentation used by the
//! PPoPP'21 paper *"Understanding a Program's Resiliency Through Error
//! Propagation"*.
//!
//! The paper's fault model (its §2.1) is a **single bit flip in one data
//! element of one dynamic instruction**. Its error-propagation model
//! (§2.2) tracks, for every dynamic instruction `i`, the perturbation
//! `Δx_i = |x_i − x'_i|` between a golden (fault-free) run and a
//! fault-injected run, up to the point where control flow diverges.
//!
//! This crate provides exactly those mechanics:
//!
//! * [`Tracer`] — the instrumentation handle a kernel runs against. Every
//!   floating-point value the kernel produces passes through
//!   [`Tracer::value`], which assigns it a *dynamic instruction index*,
//!   optionally applies a bit-flip fault, optionally records it, and traps
//!   non-finite values (the paper's "NaN exception" crash model).
//!   Data-dependent branches pass through [`Tracer::branch`] so that
//!   control-flow divergence between runs is detectable.
//! * [`bits`] — the IEEE-754 single-bit-flip fault model for `f64`/`f32`.
//! * [`GoldenRun`] / [`RunTrace`] — recorded executions.
//! * [`compare`] — golden-vs-faulty comparison producing [`Propagation`]
//!   data (the `Δx` curve of the paper's Figure 2), truncated at the first
//!   control-flow divergence.
//! * [`streamed`] — the one-sided streaming comparison fast path: faulty
//!   runs compare against a shared read-only [`CompactGolden`] while they
//!   execute, with no per-experiment trace buffer.
//! * [`norms`] — output-error metrics (the paper uses the L∞ norm).
//! * [`ddg`] — opt-in operand-provenance recording during the golden run:
//!   a data-dependence graph with per-edge amplification factors, the
//!   input to the zero-injection static boundary analyzer
//!   (`ftb-core::staticbound`).
//!
//! The hot path ([`Tracer::value`]) is a cursor increment, one branch for
//! the fault check and one optional `Vec` push; instrumentation overhead is
//! measured in `ftb-bench`'s `bench_trace`/`bench_kernels`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod bits;
pub mod compact;
pub mod compare;
pub mod ddg;
pub mod golden;
pub mod norms;
pub mod section;
pub mod serde_float;
pub mod site;
pub mod streamed;
pub mod tracer;

pub use batch::{broadcast_soa, compact_soa, extract_lane, BatchTracer};
pub use bits::{flip_bit_f32, flip_bit_f64, injected_error, Precision};
pub use compact::CompactGolden;
pub use compare::{divergence_cursor, propagation, Propagation};
pub use ddg::{Ddg, OpKind, StaticEdge};
pub use golden::{GoldenRun, RunTrace};
pub use section::{Fnv1a, SectionMap};
pub use site::{Region, StaticId, StaticInstr, StaticRegistry};
pub use streamed::{streamed_propagation, CompareScratch, StreamedWindow};
pub use tracer::{BoundaryHook, FaultSpec, KernelState, RecordMode, Tracer};
