//! Experiment records.

use crate::outcome::Outcome;
use ftb_trace::FaultSpec;
use serde::{Deserialize, Serialize};

/// One completed fault-injection experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Dynamic-instruction index the fault was injected at.
    pub site: usize,
    /// Bit that was flipped.
    pub bit: u8,
    /// Magnitude of the injected perturbation `|flip(v) − v|`
    /// (`+∞` when the flip itself produced a non-finite value).
    #[serde(with = "ftb_trace::serde_float")]
    pub injected_err: f64,
    /// Error of the final output under the classifier's norm.
    #[serde(with = "ftb_trace::serde_float")]
    pub output_err: f64,
    /// Classified outcome.
    pub outcome: Outcome,
}

impl Experiment {
    /// The record of a run of `fault` that realised `injected` (`None`:
    /// the fault never fired) and was judged `(outcome, output_err)`.
    pub(crate) fn new(fault: FaultSpec, injected: Option<f64>, verdict: (Outcome, f64)) -> Self {
        Experiment {
            site: fault.site,
            bit: fault.bit,
            injected_err: injected.unwrap_or(0.0),
            output_err: verdict.1,
            outcome: verdict.0,
        }
    }

    /// Sort key grouping experiments by site then bit.
    #[inline]
    pub fn key(&self) -> (usize, u8) {
        (self.site, self.bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_orders_by_site_then_bit() {
        let a = Experiment {
            site: 1,
            bit: 5,
            injected_err: 0.0,
            output_err: 0.0,
            outcome: Outcome::Masked,
        };
        let b = Experiment {
            site: 1,
            bit: 9,
            ..a
        };
        let c = Experiment {
            site: 2,
            bit: 0,
            ..a
        };
        assert!(a.key() < b.key());
        assert!(b.key() < c.key());
    }

    #[test]
    fn serde_roundtrip() {
        let e = Experiment {
            site: 42,
            bit: 63,
            injected_err: 2.0,
            output_err: 0.5,
            outcome: Outcome::Sdc,
        };
        let s = serde_json::to_string(&e).unwrap();
        let back: Experiment = serde_json::from_str(&s).unwrap();
        assert_eq!(e, back);
    }
}
