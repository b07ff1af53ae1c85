//! The one zero-injection certification entry point: [`certify_bits`]
//! decides which backward bound and forward envelope feed
//! [`safe_bit_masks`] — [`static_bound`] with [`forward_pass`] in the
//! interval domain, [`affine_bound`] with [`affine_forward`] in the
//! affine one.

use super::affine::{affine_bound, affine_forward, AffineConfig};
use super::forward::{forward_pass, AbsIntError, ForwardConfig};
use super::mask::{safe_bit_masks, BitMasks, MaskSource};
use crate::staticbound::{static_bound, StaticBoundConfig, StaticBoundError};
use ftb_trace::{Ddg, GoldenRun};
use std::fmt;

/// Abstract domain of the zero-injection certification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Backward pass thresholds over forward interval envelopes.
    Interval,
    /// Affine-form thresholds and envelopes, never looser than
    /// [`Domain::Interval`].
    Affine {
        /// Noise-symbol budget per node ([`AffineConfig::budget`]).
        budget: usize,
    },
}

impl fmt::Display for Domain {
    /// The certification source reports name: `static` for the interval
    /// domain, whose thresholds come from the static backward pass.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Domain::Interval => "static",
            Domain::Affine { .. } => "affine",
        })
    }
}

/// What to certify, and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertifyConfig<'a> {
    /// The classifier's output tolerance `T`.
    pub tolerance: f64,
    /// Threshold safety divisor (`≥ 1`).
    pub safety: f64,
    /// Relative input widening of the forward pass.
    pub widen: f64,
    /// Which abstract domain certifies.
    pub domain: Domain,
    /// Sites the affine threshold sweep processes (`None` = all); the
    /// rest keep their backward-pass thresholds. Ignored by
    /// [`Domain::Interval`].
    pub targets: Option<&'a [usize]>,
}

/// The certified bit masks plus the counts reports print beside them;
/// the affine sweep counts are zero under [`Domain::Interval`].
#[derive(Debug, Clone, PartialEq)]
pub struct Certification {
    /// The per-site vulnerability map.
    pub masks: BitMasks,
    /// Sites whose forward envelope escaped to NaN/overflow.
    pub n_unbounded: usize,
    /// Empty-cone sites the influence slice certified outright.
    pub n_dead: usize,
    /// Swept sites strictly tightened over the backward pass.
    pub n_tightened: usize,
    /// Sites the affine sweep processed.
    pub n_swept: usize,
}

/// Why certification failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CertifyError {
    /// The backward bound refused the graph or the tolerance.
    Bound(StaticBoundError),
    /// The forward envelope pass refused its inputs.
    Forward(AbsIntError),
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::Bound(e) => write!(f, "bit masks: {e}"),
            CertifyError::Forward(e) => write!(f, "forward pass: {e}"),
        }
    }
}

impl std::error::Error for CertifyError {}

/// Certify single-bit flips masked with zero injections: a backward
/// threshold bound crossed with forward value envelopes, both in
/// `cfg.domain`, both derived from the golden run's provenance DDG.
///
/// # Errors
/// [`CertifyError::Bound`] for an uninstrumented graph or a bad
/// tolerance, [`CertifyError::Forward`] for a bad widening or a DDG
/// that does not match `golden`.
pub fn certify_bits(
    golden: &GoldenRun,
    ddg: &Ddg,
    cfg: &CertifyConfig<'_>,
) -> Result<Certification, CertifyError> {
    let fcfg = ForwardConfig { widen: cfg.widen };
    match cfg.domain {
        Domain::Interval => {
            let scfg = StaticBoundConfig {
                tolerance: cfg.tolerance,
                safety: cfg.safety,
            };
            let sb = static_bound(ddg, &scfg).map_err(CertifyError::Bound)?;
            let fw = forward_pass(ddg, golden, &fcfg).map_err(CertifyError::Forward)?;
            Ok(Certification {
                masks: safe_bit_masks(&fw, &sb.boundary(), MaskSource::Static),
                n_unbounded: fw.n_unbounded,
                n_dead: 0,
                n_tightened: 0,
                n_swept: 0,
            })
        }
        Domain::Affine { budget } => {
            let acfg = AffineConfig { budget };
            let ab = affine_bound(ddg, cfg.tolerance, cfg.safety, &acfg, cfg.targets)
                .map_err(CertifyError::Bound)?;
            let fw = affine_forward(ddg, golden, &fcfg, &acfg).map_err(CertifyError::Forward)?;
            Ok(Certification {
                masks: safe_bit_masks(&fw, &ab.boundary(), MaskSource::Affine),
                n_unbounded: fw.n_unbounded,
                n_dead: ab.n_dead,
                n_tightened: ab.n_tightened,
                n_swept: ab.n_swept,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_kernels::{JacobiConfig, JacobiKernel, Kernel};

    fn cfg(domain: Domain) -> CertifyConfig<'static> {
        CertifyConfig {
            tolerance: 1e-4,
            safety: 1.0,
            widen: 0.0,
            domain,
            targets: None,
        }
    }

    #[test]
    fn each_domain_matches_its_hand_built_pipeline() {
        let k = JacobiKernel::new(JacobiConfig {
            grid: 4,
            sweeps: 10,
            ..JacobiConfig::small()
        });
        let (golden, ddg) = k.golden_with_ddg();
        let fcfg = ForwardConfig::default();

        let c = certify_bits(&golden, &ddg, &cfg(Domain::Interval)).unwrap();
        let sb = static_bound(&ddg, &StaticBoundConfig::new(1e-4)).unwrap();
        let fw = forward_pass(&ddg, &golden, &fcfg).unwrap();
        assert_eq!(
            c.masks,
            safe_bit_masks(&fw, &sb.boundary(), MaskSource::Static)
        );
        assert_eq!((c.n_unbounded, c.n_dead, c.n_swept), (fw.n_unbounded, 0, 0));

        let acfg = AffineConfig { budget: 8 };
        let c = certify_bits(&golden, &ddg, &cfg(Domain::Affine { budget: 8 })).unwrap();
        let ab = affine_bound(&ddg, 1e-4, 1.0, &acfg, None).unwrap();
        let fwa = affine_forward(&ddg, &golden, &fcfg, &acfg).unwrap();
        assert_eq!(
            c.masks,
            safe_bit_masks(&fwa, &ab.boundary(), MaskSource::Affine)
        );
        assert_eq!(
            (c.n_dead, c.n_tightened, c.n_swept),
            (ab.n_dead, ab.n_tightened, ab.n_swept)
        );
    }

    #[test]
    fn refusals_keep_their_stage_prefix() {
        let k = JacobiKernel::new(JacobiConfig {
            grid: 3,
            sweeps: 2,
            ..JacobiConfig::small()
        });
        let (golden, ddg) = k.golden_with_ddg();
        let bad_tol = CertifyConfig {
            tolerance: 0.0,
            ..cfg(Domain::Interval)
        };
        let e = certify_bits(&golden, &ddg, &bad_tol).unwrap_err();
        assert!(e.to_string().starts_with("bit masks: "), "{e}");
        let bad_widen = CertifyConfig {
            widen: -1.0,
            ..cfg(Domain::Affine { budget: 4 })
        };
        let e = certify_bits(&golden, &ddg, &bad_widen).unwrap_err();
        assert!(e.to_string().starts_with("forward pass: "), "{e}");
    }

    #[test]
    fn domain_displays_the_report_source_name() {
        assert_eq!(Domain::Interval.to_string(), "static");
        assert_eq!(Domain::Affine { budget: 3 }.to_string(), "affine");
    }
}
