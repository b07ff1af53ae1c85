//! Compact golden-trace storage.
//!
//! The paper's §5: "we do need to store the dynamic state of the golden
//! run … that can result in substantial memory overhead for a
//! large-scale application." A [`GoldenRun`] costs ~12–14 bytes per
//! dynamic instruction (an `f64` value, a `u32` static id, amortised
//! branch events). [`CompactGolden`] shrinks that:
//!
//! * values of an [`Precision::F32`] kernel are stored as `f32`
//!   (lossless — the tracer already quantised every store);
//! * static ids use one byte when the kernel has ≤ 256 static
//!   instructions (every kernel in this workspace has < 20);
//! * branch events keep their `u64` encoding (they are rare relative to
//!   value stores).
//!
//! For the paper's f32 CG that is ~5 bytes/site instead of ~12 — and the
//! accessors are drop-in for the prediction path, which only ever needs
//! `value(site)` and `flip_errors(site)`.

use crate::bits::{injected_error, Precision};
use crate::golden::GoldenRun;
use crate::site::StaticId;
use serde::{Deserialize, Serialize};

/// Value storage of a compact trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Values {
    /// Lossless for `Precision::F32` kernels.
    F32(Vec<f32>),
    /// Full-width storage for `Precision::F64` kernels.
    F64(Vec<f64>),
}

/// Static-id storage of a compact trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Ids {
    /// One byte per site (≤ 256 static instructions).
    U8(Vec<u8>),
    /// Full-width ids.
    U32(Vec<u32>),
}

/// Borrowed view of a compact trace's value storage, width-resolved once
/// so per-value accesses are a single indexed load (plus a widening cast
/// for `f32` kernels).
#[derive(Debug, Clone, Copy)]
pub enum GoldenValues<'g> {
    /// Values of an `F32` kernel.
    F32(&'g [f32]),
    /// Values of an `F64` kernel.
    F64(&'g [f64]),
}

/// A memory-compact, read-only form of a [`GoldenRun`], sufficient for
/// boundary prediction (golden values + flip errors + static ids).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactGolden {
    precision: Precision,
    values: Values,
    ids: Ids,
    branches: Vec<u64>,
    output: Vec<f64>,
}

impl CompactGolden {
    /// Compact a recorded golden run. Lossless: expanding back yields a
    /// bit-identical [`GoldenRun`].
    pub fn from_golden(golden: &GoldenRun) -> Self {
        let values = match golden.precision {
            // every value was already quantised by the tracer, so the
            // narrowing cast is exact
            Precision::F32 => Values::F32(golden.values.iter().map(|&v| v as f32).collect()),
            Precision::F64 => Values::F64(golden.values.clone()),
        };
        let max_id = golden.static_ids.iter().copied().max().unwrap_or(0);
        let ids = if max_id < 256 {
            Ids::U8(golden.static_ids.iter().map(|&i| i as u8).collect())
        } else {
            Ids::U32(golden.static_ids.clone())
        };
        CompactGolden {
            precision: golden.precision,
            values,
            ids,
            branches: golden.branches.clone(),
            output: golden.output.clone(),
        }
    }

    /// Number of fault-injection sites.
    pub fn n_sites(&self) -> usize {
        match &self.values {
            Values::F32(v) => v.len(),
            Values::F64(v) => v.len(),
        }
    }

    /// Golden value of dynamic instruction `site` (exactly the value the
    /// original run recorded).
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

    /// Direct view of the branch-event stream.
    #[inline]
    pub fn branches_view(&self) -> &[u64] {
        &self.branches
    }

    /// Static id of dynamic instruction `site`.
    #[inline]
    pub fn static_id(&self, site: usize) -> StaticId {
        match &self.ids {
            Ids::U8(v) => StaticId(u32::from(v[site])),
            Ids::U32(v) => StaticId(v[site]),
        }
    }

    /// Element precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of recorded branch events.
    #[inline]
    pub fn n_branches(&self) -> usize {
        self.branches.len()
    }

    /// Branch event `idx` in the golden encoding `(cursor << 1) | taken`,
    /// or `None` past the end of the stream. The streamed comparator walks
    /// these in order while a faulty run executes.
    #[inline]
    pub fn branch(&self, idx: usize) -> Option<u64> {
        self.branches.get(idx).copied()
    }

    /// Program output of the golden run.
    pub fn output(&self) -> &[f64] {
        &self.output
    }

    /// The injected-error magnitude of every possible flip at `site`
    /// (the prediction primitive).
    pub fn flip_errors(&self, site: usize) -> Vec<f64> {
        let v = self.value(site);
        (0..self.precision.bits())
            .map(|b| injected_error(self.precision, v, b))
            .collect()
    }

    /// Approximate heap footprint in bytes.
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

    /// Expand back to a full [`GoldenRun`] (bit-identical to the source).
    pub fn to_golden(&self) -> GoldenRun {
        let values: Vec<f64> = (0..self.n_sites()).map(|s| self.value(s)).collect();
        let static_ids: Vec<u32> = (0..self.n_sites()).map(|s| self.static_id(s).0).collect();
        GoldenRun {
            precision: self.precision,
            n_dynamic: values.len(),
            values,
            static_ids,
            branches: self.branches.clone(),
            output: self.output.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    fn golden_f32() -> GoldenRun {
        let mut t = Tracer::golden(Precision::F32);
        for i in 0..100 {
            t.value(StaticId(i % 7), (i as f64) * 0.37 - 5.0);
        }
        t.branch(true);
        t.finish_golden(vec![1.0, 2.0])
    }

    fn golden_f64() -> GoldenRun {
        let mut t = Tracer::golden(Precision::F64);
        for i in 0..100 {
            t.value(StaticId(i % 7), (i as f64) * 0.37 - 5.0);
        }
        t.finish_golden(vec![1.0])
    }

    #[test]
    fn f32_roundtrip_is_bit_identical() {
        let g = golden_f32();
        let c = CompactGolden::from_golden(&g);
        assert_eq!(c.to_golden(), g);
        for site in 0..g.n_sites() {
            assert_eq!(c.value(site).to_bits(), g.values[site].to_bits());
            assert_eq!(c.static_id(site), g.static_id(site));
            assert_eq!(c.flip_errors(site), g.flip_errors(site));
        }
    }

    #[test]
    fn f64_roundtrip_is_bit_identical() {
        let g = golden_f64();
        let c = CompactGolden::from_golden(&g);
        assert_eq!(c.to_golden(), g);
    }

    #[test]
    fn f32_compaction_saves_memory() {
        let g = golden_f32();
        let c = CompactGolden::from_golden(&g);
        // 8B value + 4B id = 12B/site down to 4B + 1B = 5B/site
        assert!(
            (c.memory_bytes() as f64) < 0.5 * g.memory_bytes() as f64,
            "compact {} vs full {}",
            c.memory_bytes(),
            g.memory_bytes()
        );
    }

    #[test]
    fn f64_compaction_still_shrinks_ids() {
        let g = golden_f64();
        let c = CompactGolden::from_golden(&g);
        assert!(c.memory_bytes() < g.memory_bytes());
    }

    #[test]
    fn wide_static_ids_fall_back_to_u32() {
        let mut t = Tracer::golden(Precision::F64);
        t.value(StaticId(0), 1.0);
        t.value(StaticId(300), 2.0);
        let g = t.finish_golden(vec![]);
        let c = CompactGolden::from_golden(&g);
        assert_eq!(c.static_id(1), StaticId(300));
        assert_eq!(c.to_golden(), g);
    }
}
