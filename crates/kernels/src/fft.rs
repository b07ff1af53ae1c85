//! Six-step 1-D complex FFT, SPLASH-2 style.
//!
//! The SPLASH-2 `fft` benchmark implements the six-step algorithm for a
//! length `n = n1 × n2` transform, viewing the signal as an `n1 × n2`
//! matrix:
//!
//! 1. transpose to `n2 × n1`;
//! 2. `n2` row FFTs of length `n1`;
//! 3. twiddle multiplication by `W_n^(j1·j2)`;
//! 4. transpose back to `n1 × n2`;
//! 5. `n1` row FFTs of length `n2`;
//! 6. final transpose to `n2 × n1` (natural output order).
//!
//! The paper notes (§4.2) that the early FFT instructions — the first
//! transpose and first round of row FFTs — touch most data elements only
//! a few times, so errors injected there propagate poorly and the
//! inference method is least informed about that region. Keeping the six
//! steps as distinct static instructions preserves that structure.
//!
//! Every complex store is two dynamic instructions (real then imaginary
//! part), matching the paper's element-level fault model.

use crate::inputs::uniform_vec;
use crate::Kernel;
use ftb_trace::{Fnv1a, OpKind, Precision, StaticId, StaticRegistry, Tracer};
use serde::{Deserialize, Serialize};

ftb_trace::static_instrs! {
    pub mod sid {
        INIT     => ("fft.init.x", Init),
        // phase heads: the four six-step stages that run exactly once
        // (the per-row bitrev/butterfly sites recur per row and would
        // over-split, so the two FFT passes ride with the transpose or
        // twiddle stage that precedes them) — the trace segments into
        // [init][transpose1 + pass1][twiddle][transpose2 + pass2][out]
        TRANS1   => ("fft.transpose1", DataMovement, phase),
        FFT1_REV => ("fft.pass1.bitrev", DataMovement),
        FFT1_BFY => ("fft.pass1.butterfly", Compute),
        TWIDDLE  => ("fft.twiddle", Compute, phase),
        TRANS2   => ("fft.transpose2", DataMovement, phase),
        FFT2_REV => ("fft.pass2.bitrev", DataMovement),
        FFT2_BFY => ("fft.pass2.butterfly", Compute),
        TRANS3   => ("fft.transpose3", Output, phase),
    }
}

/// Configuration of the six-step FFT kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FftConfig {
    /// Row count of the matrix view; must be a power of two.
    pub n1: usize,
    /// Column count; must be a power of two. Transform length is `n1·n2`.
    pub n2: usize,
    /// Element precision.
    pub precision: Precision,
    /// Input seed.
    pub seed: u64,
}

impl FftConfig {
    /// Check the configuration describes a buildable kernel; the
    /// constructor panics with this message otherwise.
    pub fn validate(&self) -> Result<(), String> {
        for (name, n) in [("n1", self.n1), ("n2", self.n2)] {
            if !(n.is_power_of_two() && n >= 2) {
                return Err(format!("FFT {name} must be a power of two >= 2, got {n}"));
            }
        }
        Ok(())
    }

    /// Laptop-scale default: a 256-point transform (16 × 16).
    pub fn small() -> Self {
        FftConfig {
            n1: 16,
            n2: 16,
            precision: Precision::F64,
            seed: 42,
        }
    }

    /// Total transform length.
    pub fn n(&self) -> usize {
        self.n1 * self.n2
    }
}

/// Complex buffer stored as separate re/im vectors (structure-of-arrays).
#[derive(Debug, Clone)]
struct CBuf {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl CBuf {
    fn zero(n: usize) -> Self {
        CBuf {
            re: vec![0.0; n],
            im: vec![0.0; n],
        }
    }
}

/// Def-site map paralleling a [`CBuf`]: the dynamic instruction that
/// last defined each real / imaginary element (provenance mode only;
/// empty otherwise).
#[derive(Debug, Clone)]
struct DefBuf {
    re: Vec<usize>,
    im: Vec<usize>,
}

impl DefBuf {
    fn zero(n: usize) -> Self {
        DefBuf {
            re: vec![0usize; n],
            im: vec![0usize; n],
        }
    }
}

/// The instrumented six-step FFT kernel.
#[derive(Debug, Clone)]
pub struct FftKernel {
    cfg: FftConfig,
    input_re: Vec<f64>,
    input_im: Vec<f64>,
    sites_hint: usize,
}

impl FftKernel {
    /// Build the kernel; generates a random complex input signal.
    ///
    /// # Panics
    /// Panics if the configuration is invalid ([`FftConfig::validate`]).
    pub fn new(cfg: FftConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let n = cfg.n();
        let input_re = uniform_vec(cfg.seed, n, -1.0, 1.0);
        let input_im = uniform_vec(cfg.seed.wrapping_add(1), n, -1.0, 1.0);
        let mut k = FftKernel {
            cfg,
            input_re,
            input_im,
            sites_hint: 0,
        };
        let mut t = Tracer::untraced(k.cfg.precision);
        let _ = k.run(&mut t);
        k.sites_hint = t.cursor();
        k
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &FftConfig {
        &self.cfg
    }

    /// Transform length.
    pub fn n(&self) -> usize {
        self.cfg.n()
    }

    /// The one scalar body; `DDG` compiles in the operand-provenance
    /// bookkeeping: def maps travel with the complex buffers through
    /// every stage. The complex product's real/imaginary mixing makes
    /// each butterfly/twiddle store depend on both parts of its source
    /// element.
    fn body<const DDG: bool>(&self, t: &mut Tracer) -> Vec<f64> {
        let (n1, n2) = (self.cfg.n1, self.cfg.n2);
        let n = n1 * n2;
        let n_defs = if DDG { n } else { 0 };

        // Init region: load the signal (2 dynamic instructions per
        // sample).
        let mut x = CBuf::zero(n);
        let mut dx = DefBuf::zero(n_defs);
        for i in 0..n {
            if DDG {
                dx.re[i] = t.cursor();
            }
            x.re[i] = t.value(sid::INIT, self.input_re[i]);
            if DDG {
                dx.im[i] = t.cursor();
            }
            x.im[i] = t.value(sid::INIT, self.input_im[i]);
        }

        // Step 1: transpose n1×n2 -> n2×n1.
        let mut y = CBuf::zero(n);
        let mut dy = DefBuf::zero(n_defs);
        Self::transpose::<DDG>(t, sid::TRANS1, (&x, &dx), (&mut y, &mut dy), n1, n2);

        // Step 2: n2 row FFTs of length n1.
        Self::row_ffts::<DDG>(t, sid::FFT1_REV, sid::FFT1_BFY, &mut y, &mut dy, n2, n1);

        // Step 3: twiddle multiply Y[j2][j1] *= W_n^(j1*j2).
        let w0 = -2.0 * std::f64::consts::PI / n as f64;
        for j2 in 0..n2 {
            for j1 in 0..n1 {
                let ang = w0 * (j1 * j2) as f64;
                let (wr, wi) = (ang.cos(), ang.sin());
                let idx = j2 * n1 + j1;
                let (r, i) = (y.re[idx], y.im[idx]);
                // (r + i·j)(wr + wi·j): re' = r·wr − i·wi, im' = r·wi + i·wr
                let (dr, di) = if DDG {
                    (dy.re[idx], dy.im[idx])
                } else {
                    (0, 0)
                };
                if DDG {
                    t.dep(dr, OpKind::Scale(wr));
                    t.dep(di, OpKind::Scale(-wi));
                    dy.re[idx] = t.cursor();
                }
                y.re[idx] = t.value(sid::TWIDDLE, r * wr - i * wi);
                if DDG {
                    t.dep(dr, OpKind::Scale(wi));
                    t.dep(di, OpKind::Scale(wr));
                    dy.im[idx] = t.cursor();
                }
                y.im[idx] = t.value(sid::TWIDDLE, r * wi + i * wr);
            }
        }

        // Step 4: transpose n2×n1 -> n1×n2.
        Self::transpose::<DDG>(t, sid::TRANS2, (&y, &dy), (&mut x, &mut dx), n2, n1);

        // Step 5: n1 row FFTs of length n2.
        Self::row_ffts::<DDG>(t, sid::FFT2_REV, sid::FFT2_BFY, &mut x, &mut dx, n1, n2);

        // Step 6: final transpose to natural order (n1×n2 -> n2×n1).
        Self::transpose::<DDG>(t, sid::TRANS3, (&x, &dx), (&mut y, &mut dy), n1, n2);

        // Output: interleaved re/im, each element sunk from its final
        // (transpose3) definition.
        let mut out = Vec::with_capacity(2 * n);
        for i in 0..n {
            if DDG {
                t.out_dep(dy.re[i], 1.0);
                t.out_dep(dy.im[i], 1.0);
            }
            out.push(y.re[i]);
            out.push(y.im[i]);
        }
        out
    }

    /// Traced transpose of an `rows × cols` matrix into `dst`
    /// (`cols × rows`). With `DDG`, each store is linear in its source
    /// element and the destination def map receives the new def sites.
    fn transpose<const DDG: bool>(
        t: &mut Tracer,
        sid: StaticId,
        (src, src_def): (&CBuf, &DefBuf),
        (dst, dst_def): (&mut CBuf, &mut DefBuf),
        rows: usize,
        cols: usize,
    ) {
        for r in 0..rows {
            for c in 0..cols {
                let s = r * cols + c;
                let d = c * rows + r;
                if DDG {
                    t.dep(src_def.re[s], OpKind::Add);
                    dst_def.re[d] = t.cursor();
                }
                dst.re[d] = t.value(sid, src.re[s]);
                if DDG {
                    t.dep(src_def.im[s], OpKind::Add);
                    dst_def.im[d] = t.cursor();
                }
                dst.im[d] = t.value(sid, src.im[s]);
            }
        }
    }

    /// In-place iterative radix-2 FFT over each length-`len` row of `buf`
    /// (`rows` rows). Bit-reversal stores and butterfly stores are traced.
    ///
    /// With `DDG`, `def` travels with `buf`. A butterfly output
    /// `u' = u ± w·v` is `Linear` in `u` and `Scale(|w_re|)/Scale(|w_im|)`
    /// in the real / imaginary parts of `v` (the complex product mixes
    /// them): `re(u') = re(u) ± (w_re·re(v) − w_im·im(v))` and
    /// `im(u') = im(u) ± (w_re·im(v) + w_im·re(v))`.
    fn row_ffts<const DDG: bool>(
        t: &mut Tracer,
        rev_sid: StaticId,
        bfy_sid: StaticId,
        buf: &mut CBuf,
        def: &mut DefBuf,
        rows: usize,
        len: usize,
    ) {
        for row in 0..rows {
            let base = row * len;
            // bit-reversal permutation (traced swaps)
            let bits = len.trailing_zeros();
            for i in 0..len {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if i < j {
                    let (ai, aj) = (base + i, base + j);
                    let (re_i, im_i) = (buf.re[ai], buf.im[ai]);
                    let (dre_i, dim_i) = if DDG {
                        (def.re[ai], def.im[ai])
                    } else {
                        (0, 0)
                    };
                    if DDG {
                        t.dep(def.re[aj], OpKind::Add);
                        def.re[ai] = t.cursor();
                    }
                    buf.re[ai] = t.value(rev_sid, buf.re[aj]);
                    if DDG {
                        t.dep(def.im[aj], OpKind::Add);
                        def.im[ai] = t.cursor();
                    }
                    buf.im[ai] = t.value(rev_sid, buf.im[aj]);
                    if DDG {
                        t.dep(dre_i, OpKind::Add);
                        def.re[aj] = t.cursor();
                    }
                    buf.re[aj] = t.value(rev_sid, re_i);
                    if DDG {
                        t.dep(dim_i, OpKind::Add);
                        def.im[aj] = t.cursor();
                    }
                    buf.im[aj] = t.value(rev_sid, im_i);
                }
            }
            // butterflies
            let mut half = 1;
            while half < len {
                let step = half * 2;
                // per-group root of unity: W_step^k, computed in registers
                let ang0 = -std::f64::consts::PI / half as f64;
                for start in (0..len).step_by(step) {
                    for k in 0..half {
                        let ang = ang0 * k as f64;
                        let (wr, wi) = (ang.cos(), ang.sin());
                        let u = base + start + k;
                        let v = u + half;
                        let (ur, ui) = (buf.re[u], buf.im[u]);
                        let (vr, vi) = (buf.re[v], buf.im[v]);
                        let [dur, dui, dvr, dvi] = if DDG {
                            [def.re[u], def.im[u], def.re[v], def.im[v]]
                        } else {
                            [0; 4]
                        };
                        let tr = wr * vr - wi * vi;
                        let ti = wr * vi + wi * vr;
                        if DDG {
                            // re(u') = ur + (wr·vr − wi·vi)
                            t.dep(dur, OpKind::Add);
                            t.dep(dvr, OpKind::Scale(wr));
                            t.dep(dvi, OpKind::Scale(-wi));
                            def.re[u] = t.cursor();
                        }
                        buf.re[u] = t.value(bfy_sid, ur + tr);
                        if DDG {
                            // im(u') = ui + (wr·vi + wi·vr)
                            t.dep(dui, OpKind::Add);
                            t.dep(dvi, OpKind::Scale(wr));
                            t.dep(dvr, OpKind::Scale(wi));
                            def.im[u] = t.cursor();
                        }
                        buf.im[u] = t.value(bfy_sid, ui + ti);
                        if DDG {
                            // re(v') = ur − (wr·vr − wi·vi)
                            t.dep(dur, OpKind::Add);
                            t.dep(dvr, OpKind::Scale(-wr));
                            t.dep(dvi, OpKind::Scale(wi));
                            def.re[v] = t.cursor();
                        }
                        buf.re[v] = t.value(bfy_sid, ur - tr);
                        if DDG {
                            // im(v') = ui − (wr·vi + wi·vr)
                            t.dep(dui, OpKind::Add);
                            t.dep(dvi, OpKind::Scale(-wr));
                            t.dep(dvr, OpKind::Scale(-wi));
                            def.im[v] = t.cursor();
                        }
                        buf.im[v] = t.value(bfy_sid, ui - ti);
                    }
                }
                half = step;
            }
        }
    }
}

impl Kernel for FftKernel {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn precision(&self) -> Precision {
        self.cfg.precision
    }

    fn registry(&self) -> StaticRegistry {
        sid::registry()
    }

    fn estimated_sites(&self) -> usize {
        self.sites_hint
    }

    fn code_version(&self, _lo: usize, _hi: usize) -> u64 {
        // the factorisation shapes the instruction stream; the seed only
        // changes input values
        let mut h = Fnv1a::new();
        h.write(b"fft/six-step/v1");
        h.write_u64(self.cfg.n1 as u64);
        h.write_u64(self.cfg.n2 as u64);
        h.finish()
    }

    fn run(&self, t: &mut Tracer) -> Vec<f64> {
        if t.ddg_enabled() {
            self.body::<true>(t)
        } else {
            self.body::<false>(t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;
    use ftb_trace::norms::Norm;
    use ftb_trace::{FaultSpec, RecordMode};

    /// Naive O(n²) reference DFT.
    fn dft(re: &[f64], im: &[f64]) -> Vec<f64> {
        let n = re.len();
        let mut out = Vec::with_capacity(2 * n);
        for k in 0..n {
            let (mut sr, mut si) = (0.0, 0.0);
            for j in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                sr += re[j] * c - im[j] * s;
                si += re[j] * s + im[j] * c;
            }
            out.push(sr);
            out.push(si);
        }
        out
    }

    #[test]
    fn six_step_matches_naive_dft() {
        let k = FftKernel::new(FftConfig {
            n1: 4,
            n2: 8,
            ..FftConfig::small()
        });
        let g = k.golden();
        let reference = dft(&k.input_re, &k.input_im);
        let err = Norm::LInf.distance(&g.output, &reference);
        assert!(err < 1e-10, "six-step disagrees with naive DFT by {err}");
    }

    #[test]
    fn square_factorisation_matches_too() {
        let k = FftKernel::new(FftConfig {
            n1: 8,
            n2: 8,
            ..FftConfig::small()
        });
        let g = k.golden();
        let reference = dft(&k.input_re, &k.input_im);
        let err = Norm::LInf.distance(&g.output, &reference);
        assert!(err < 1e-10, "square six-step disagrees by {err}");
    }

    #[test]
    fn init_region_leads_and_output_region_ends() {
        let k = FftKernel::new(FftConfig::small());
        let g = k.golden();
        let n = k.n();
        assert_eq!(g.static_id(0), sid::INIT);
        assert_eq!(g.static_id(2 * n - 1), sid::INIT);
        assert_eq!(g.static_id(g.n_sites() - 1), sid::TRANS3);
    }

    #[test]
    fn fft_has_no_data_dependent_branches() {
        let k = FftKernel::new(FftConfig::small());
        assert!(k.golden().branches.is_empty());
    }

    #[test]
    fn flip_in_final_transpose_touches_one_output() {
        let k = FftKernel::new(FftConfig::small());
        let g = k.golden();
        let site = g.n_sites() - 1; // last store of the final transpose
        let r = k.run_injected(FaultSpec { site, bit: 63 }, RecordMode::OutputOnly);
        let diffs = g
            .output
            .iter()
            .zip(&r.output)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(
            diffs, 1,
            "a final-transpose flip must touch exactly one element"
        );
    }

    #[test]
    fn flip_in_init_spreads_widely() {
        let k = FftKernel::new(FftConfig::small());
        let g = k.golden();
        // significant flip of input sample 1 (site 2 = re[1]): unlike
        // sample 0 (whose twiddle is identically 1, touching only real
        // parts), it mixes into the real and imaginary part of every bin
        let r = k.run_injected(FaultSpec { site: 2, bit: 62 }, RecordMode::OutputOnly);
        let diffs = g
            .output
            .iter()
            .zip(&r.output)
            .filter(|(a, b)| (**a - **b).abs() > 1e-12)
            .count();
        assert!(
            diffs > k.n(),
            "an input corruption should spread across the spectrum, touched {diffs}"
        );
    }

    #[test]
    fn provenance_mode_matches_plain_golden() {
        let k = FftKernel::new(FftConfig::small());
        let plain = k.golden();
        let (with_ddg, ddg) = k.golden_with_ddg();
        assert_eq!(plain.values, with_ddg.values);
        assert_eq!(plain.output, with_ddg.output);
        assert!(ddg.is_instrumented());
        assert_eq!(
            ddg.out_sinks.len(),
            2 * k.n(),
            "one sink per real/imaginary output element"
        );
    }

    #[test]
    fn provenance_mode_matches_for_rectangular_factorisation() {
        let k = FftKernel::new(FftConfig {
            n1: 4,
            n2: 8,
            ..FftConfig::small()
        });
        let plain = k.golden();
        let (with_ddg, ddg) = k.golden_with_ddg();
        assert_eq!(plain.values, with_ddg.values);
        assert!(ddg.is_instrumented());
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = FftKernel::new(FftConfig {
            n1: 12,
            n2: 8,
            ..FftConfig::small()
        });
    }
}
