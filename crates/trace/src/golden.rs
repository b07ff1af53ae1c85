//! Recorded executions: the golden reference run and fault-injected runs.
//!
//! The paper's §5: "we do need to store the dynamic state of the golden
//! run … that can result in substantial memory overhead for a
//! large-scale application." A full-width golden costs ~12–14 bytes per
//! dynamic instruction (an `f64` value, a `u32` static id, amortised
//! branch events). [`GoldenRun`] is recorded compact instead, and no
//! full-width copy ever exists:
//!
//! * values of an [`Precision::F32`] kernel are stored as `f32`
//!   (lossless — the tracer already quantised every store);
//! * static ids use one byte while every id recorded so far is below
//!   256 (every kernel in this workspace has < 20); the first wider id
//!   widens the whole stream to `u32`;
//! * branch events keep their `u64` encoding (they are rare relative to
//!   value stores).
//!
//! For the paper's f32 CG that is ~5 bytes/site instead of ~12, and the
//! accessors ([`GoldenRun::value`], [`GoldenRun::static_id`]) return
//! exactly what the run produced.

use crate::bits::Precision;
use crate::site::StaticId;
use crate::tracer::FaultSpec;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Value storage of a golden run, width-resolved by precision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Values {
    /// Lossless for `Precision::F32` kernels.
    F32(Vec<f32>),
    /// Full-width storage for `Precision::F64` kernels.
    F64(Vec<f64>),
}

impl Values {
    /// Empty storage of the width `precision` needs.
    pub(crate) fn new(precision: Precision) -> Self {
        match precision {
            Precision::F32 => Values::F32(Vec::new()),
            Precision::F64 => Values::F64(Vec::new()),
        }
    }

    /// Append a value already quantised to the storage's precision, so
    /// the narrowing cast of the `F32` arm is exact.
    #[inline]
    pub(crate) fn push(&mut self, v: f64) {
        match self {
            Values::F32(vs) => vs.push(v as f32),
            Values::F64(vs) => vs.push(v),
        }
    }

    pub(crate) fn reserve_exact(&mut self, n: usize) {
        match self {
            Values::F32(vs) => vs.reserve_exact(n),
            Values::F64(vs) => vs.reserve_exact(n),
        }
    }

    /// The stored values at full width.
    pub(crate) fn into_f64(self) -> Vec<f64> {
        match self {
            Values::F32(vs) => vs.into_iter().map(f64::from).collect(),
            Values::F64(vs) => vs,
        }
    }
}

/// Static-id storage of a golden run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum Ids {
    /// One byte per site, while every id is below 256.
    U8(Vec<u8>),
    /// Full-width ids, from the first id of 256 or more on.
    U32(Vec<u32>),
}

impl Ids {
    pub(crate) fn new() -> Self {
        Ids::U8(Vec::new())
    }

    /// Append `id`, widening the stream on the first id that does not
    /// fit a byte.
    #[inline]
    pub(crate) fn push(&mut self, id: StaticId) {
        match self {
            Ids::U8(ids) => match u8::try_from(id.0) {
                Ok(b) => ids.push(b),
                Err(_) => self.widen_and_push(id.0),
            },
            Ids::U32(ids) => ids.push(id.0),
        }
    }

    #[cold]
    #[inline(never)]
    fn widen_and_push(&mut self, id: u32) {
        if let Ids::U8(ids) = self {
            let mut wide = Vec::with_capacity(ids.capacity());
            wide.extend(ids.iter().map(|&b| u32::from(b)));
            *self = Ids::U32(wide);
        }
        if let Ids::U32(ids) = self {
            ids.push(id);
        }
    }

    pub(crate) fn reserve_exact(&mut self, n: usize) {
        match self {
            Ids::U8(ids) => ids.reserve_exact(n),
            Ids::U32(ids) => ids.reserve_exact(n),
        }
    }
}

/// Borrowed view of a golden run's value storage, width-resolved once so
/// per-value accesses are a single indexed load (plus a widening cast
/// for `f32` kernels).
#[derive(Debug, Clone, Copy)]
pub enum GoldenValues<'g> {
    /// Values of an `F32` kernel.
    F32(&'g [f32]),
    /// Values of an `F64` kernel.
    F64(&'g [f64]),
}

/// The fault-free reference execution of a kernel, stored compact (see
/// the module docs): the value of each dynamic instruction, its static
/// id, the branch-outcome stream for divergence detection, and the
/// program output. Recorded only by [`Tracer::golden`].
///
/// [`Tracer::golden`]: crate::tracer::Tracer::golden
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenRun {
    /// Element precision of the traced kernel.
    pub precision: Precision,
    /// Value produced by each dynamic instruction, in program order.
    pub(crate) values: Values,
    /// Static-instruction id of each dynamic instruction.
    pub(crate) ids: Ids,
    /// Branch events, encoded `(cursor << 1) | taken`.
    pub branches: Vec<u64>,
    /// Program output (what the domain user inspects for acceptability).
    pub output: Vec<f64>,
    /// Total dynamic instructions executed.
    pub n_dynamic: usize,
}

impl GoldenRun {
    /// Number of fault-injection sites (= dynamic instructions).
    #[inline]
    pub fn n_sites(&self) -> usize {
        self.n_dynamic
    }

    /// Number of single-bit-flip experiments in the exhaustive sample
    /// space: `n_sites × bits`.
    pub fn n_experiments(&self) -> u64 {
        self.n_sites() as u64 * u64::from(self.precision.bits())
    }

    /// Static id of dynamic instruction `site`.
    #[inline]
    pub fn static_id(&self, site: usize) -> StaticId {
        match &self.ids {
            Ids::U8(v) => StaticId(u32::from(v[site])),
            Ids::U32(v) => StaticId(v[site]),
        }
    }

    /// Static ids of the dynamic instructions in `sites`, in program
    /// order.
    pub fn static_ids(&self, sites: Range<usize>) -> impl Iterator<Item = StaticId> + '_ {
        let (narrow, wide) = match &self.ids {
            Ids::U8(v) => (&v[sites], &[][..]),
            Ids::U32(v) => (&[][..], &v[sites]),
        };
        let narrow = narrow.iter().map(|&b| StaticId(u32::from(b)));
        narrow.chain(wide.iter().map(|&id| StaticId(id)))
    }

    /// Golden value of dynamic instruction `site` (exactly the value the
    /// run produced).
    #[inline]
    pub fn value(&self, site: usize) -> f64 {
        match &self.values {
            Values::F32(v) => f64::from(v[site]),
            Values::F64(v) => v[site],
        }
    }

    /// Direct view of the value storage, for hot loops that cannot afford
    /// a per-access indirection through `self` (the streamed comparator).
    #[inline]
    pub fn values_view(&self) -> GoldenValues<'_> {
        match &self.values {
            Values::F32(v) => GoldenValues::F32(v),
            Values::F64(v) => GoldenValues::F64(v),
        }
    }

    /// The injected-error magnitude of every possible flip at `site`
    /// (length = `precision.bits()`), straight from the golden value —
    /// no execution needed. This is what makes boundary *prediction* free:
    /// the only unknown is propagation, never the initial perturbation.
    pub fn flip_errors(&self, site: usize) -> Vec<f64> {
        let v = self.value(site);
        (0..self.precision.bits())
            .map(|b| crate::bits::injected_error(self.precision, v, b))
            .collect()
    }

    /// Heap footprint in bytes of what is stored (the §5 overhead
    /// metric).
    pub fn memory_bytes(&self) -> usize {
        let values = match &self.values {
            Values::F32(v) => v.len() * 4,
            Values::F64(v) => v.len() * 8,
        };
        let ids = match &self.ids {
            Ids::U8(v) => v.len(),
            Ids::U32(v) => v.len() * 4,
        };
        values + ids + self.branches.len() * 8 + self.output.len() * 8
    }
}

/// A recorded (possibly fault-injected) execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Value stream, present only under [`RecordMode::Full`].
    ///
    /// [`RecordMode::Full`]: crate::tracer::RecordMode::Full
    pub values: Option<Vec<f64>>,
    /// Branch stream, present only under `RecordMode::Full`.
    pub branches: Option<Vec<u64>>,
    /// Program output.
    pub output: Vec<f64>,
    /// Total dynamic instructions executed.
    pub n_dynamic: usize,
    /// First dynamic instruction that produced a non-finite value, if any
    /// (the NaN-exception crash model).
    pub first_nonfinite: Option<usize>,
    /// The fault this run was injected with, if any.
    pub fault: Option<FaultSpec>,
    /// Realised `|flipped − original|` at the fault site; `None` if the
    /// site was never reached; `+∞` if the flip produced a non-finite
    /// value.
    pub injected_err: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::StaticId;
    use crate::tracer::Tracer;

    fn tiny_golden() -> GoldenRun {
        let mut t = Tracer::golden(Precision::F64);
        t.value(StaticId(0), 1.0);
        t.value(StaticId(1), 2.0);
        t.branch(true);
        t.value(StaticId(0), 3.0);
        t.finish_golden(vec![3.0])
    }

    fn ramp(precision: Precision) -> GoldenRun {
        let mut t = Tracer::golden(precision);
        for i in 0..100 {
            t.value(StaticId(i % 7), (i as f64) * 0.37 - 5.0);
        }
        t.branch(true);
        t.finish_golden(vec![1.0, 2.0])
    }

    #[test]
    fn site_accessors() {
        let g = tiny_golden();
        assert_eq!(g.n_sites(), 3);
        assert_eq!(g.n_experiments(), 3 * 64);
        assert_eq!(g.static_id(2), StaticId(0));
        assert_eq!(g.value(1), 2.0);
        let ids: Vec<_> = g.static_ids(1..3).collect();
        assert_eq!(ids, vec![StaticId(1), StaticId(0)]);
    }

    #[test]
    fn flip_errors_cover_all_bits() {
        let g = tiny_golden();
        let errs = g.flip_errors(0);
        assert_eq!(errs.len(), 64);
        // sign flip of 1.0 has magnitude 2.0
        assert_eq!(errs[63], 2.0);
        // all errors are non-negative
        assert!(errs.iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn memory_accounting_is_positive() {
        let g = tiny_golden();
        assert!(g.memory_bytes() >= 3 * 8 + 3 + 8 + 8);
    }

    /// What a full-width golden of `g` would take: 8 B value + 4 B id
    /// per site, plus branches and output.
    fn full_width_bytes(g: &GoldenRun) -> usize {
        g.n_sites() * 12 + g.branches.len() * 8 + g.output.len() * 8
    }

    #[test]
    fn f32_recording_is_bit_identical() {
        let g = ramp(Precision::F32);
        assert!(matches!(g.values_view(), GoldenValues::F32(_)));
        for i in 0..100 {
            let v = f64::from(((i as f64) * 0.37 - 5.0) as f32);
            assert_eq!(g.value(i).to_bits(), v.to_bits());
            assert_eq!(g.static_id(i), StaticId(i as u32 % 7));
        }
    }

    #[test]
    fn f64_recording_is_bit_identical() {
        let g = ramp(Precision::F64);
        assert!(matches!(g.values_view(), GoldenValues::F64(_)));
        for i in 0..100 {
            let v = (i as f64) * 0.37 - 5.0;
            assert_eq!(g.value(i).to_bits(), v.to_bits());
            assert_eq!(g.static_id(i), StaticId(i as u32 % 7));
        }
    }

    #[test]
    fn f32_compaction_saves_memory() {
        // 4 B value + 1 B id per site, plus one branch and two outputs
        let g = ramp(Precision::F32);
        assert_eq!(g.memory_bytes(), 100 * 5 + 8 + 16);
        assert!((g.memory_bytes() as f64) < 0.5 * full_width_bytes(&g) as f64);
    }

    #[test]
    fn f64_compaction_still_shrinks_ids() {
        let g = ramp(Precision::F64);
        assert_eq!(g.memory_bytes(), 100 * 9 + 8 + 16);
        assert!(g.memory_bytes() < full_width_bytes(&g));
    }

    #[test]
    fn wide_static_ids_fall_back_to_u32() {
        let mut t = Tracer::golden(Precision::F64);
        t.value(StaticId(0), 1.0);
        t.value(StaticId(255), 2.0);
        t.value(StaticId(300), 3.0);
        t.value(StaticId(7), 4.0);
        let g = t.finish_golden(vec![]);
        let ids = [0, 255, 300, 7].map(StaticId);
        for (site, &id) in ids.iter().enumerate() {
            assert_eq!(g.static_id(site), id);
        }
        assert_eq!(g.static_ids(0..4).collect::<Vec<_>>(), ids);
        // four u32 ids after the widening, four f64 values
        assert_eq!(g.memory_bytes(), 4 * 4 + 4 * 8);
    }
}
