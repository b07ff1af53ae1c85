//! Forward interval abstract interpretation over the provenance DDG.
//!
//! The static analyzer so far runs *backward*: `staticbound` pushes the
//! classifier's error budget from the sinks toward every site, producing
//! per-site tolerable-error thresholds `Δe_i^static`. This module adds
//! the *forward* direction — sound per-site value envelopes — and the
//! artifact the two directions buy together: **bit-level vulnerability
//! maps**.
//!
//! Pipeline:
//!
//! 1. [`interval`] — the outward-rounded interval domain (`[lo, hi]`
//!    endpoints plus NaN reachability; overflow reachability is asked
//!    per element precision);
//! 2. [`forward`] — [`forward_pass`] folds deviation radii through the
//!    DDG's secant edges, seeding source sites at
//!    `golden ± widen·|golden|`, and reports each site's interval and
//!    biased-exponent range;
//! 3. [`slice`] + [`affine`] — the tighter second domain: an influence
//!    slice certifies empty-cone sites outright, and an affine-form
//!    (zonotope) sweep with shared noise symbols rides the signed
//!    derivative channel so reconverging paths cancel instead of
//!    adding; never looser than the interval results by construction;
//! 4. [`mask`] — [`safe_bit_masks`] crosses the exponent ranges with a
//!    boundary (static, affine or inferred) and classifies every
//!    single-bit flip as `CertifiedMasked`, `CrashLikely`, or
//!    `Unknown`;
//! 5. [`certify`] — [`certify_bits`] runs steps 2–4 in one chosen
//!    [`Domain`], pairing that domain's backward bound with its forward
//!    envelope; the CLI and the bench certify through it.
//!
//! The masks convert the zero-injection static artifact into campaign
//! work savings: exhaustive and adaptive campaigns skip certified bits
//! (`--bit-prune`), and `ftb analyze bits` renders the map plus its
//! conservatism scorecard against exhaustive ground truth.

pub mod affine;
pub mod certify;
pub mod forward;
pub mod interval;
pub mod mask;
pub mod slice;

pub use affine::{affine_bound, affine_forward, affine_section_amp, AffineBound, AffineConfig};
pub use certify::{certify_bits, Certification, CertifyConfig, CertifyError, Domain};
pub use forward::{forward_pass, AbsIntError, ForwardConfig, ForwardIntervals};
pub use interval::Interval;
pub use mask::{safe_bit_masks, BitClass, BitMasks, MaskSource, SiteMask};
pub use slice::{influence_slice, InfluenceSlice};
