//! Property tests for reading an adaptive checkpoint's sampler state:
//! deserializing arbitrary, truncated or bit-flipped bytes into an
//! [`AdaptiveState`] and validating it against the injector must refuse
//! or accept, and never panic; a state that validates must also step
//! and finish without panicking.

use ftb_core::{AdaptiveConfig, AdaptiveState};
use ftb_inject::{Classifier, Injector};
use ftb_kernels::{MatvecConfig, MatvecKernel};
use proptest::prelude::*;
use std::sync::OnceLock;

fn kernel() -> &'static MatvecKernel {
    static K: OnceLock<MatvecKernel> = OnceLock::new();
    K.get_or_init(|| {
        MatvecKernel::new(MatvecConfig {
            n: 4,
            ..MatvecConfig::small()
        })
    })
}

fn injector() -> Injector<'static> {
    Injector::new(kernel(), Classifier::new(1e-6))
}

/// Rounds a bit-flipped state that validates is stepped through before
/// `finish`.
const STEP_ROUNDS: usize = 3;

/// A real sampler state two rounds in, serialized as a checkpoint
/// stores it.
fn state_bytes(inj: &Injector<'_>) -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut state = AdaptiveState::new(inj, &AdaptiveConfig::default());
        for _ in 0..2 {
            state.step(inj);
        }
        serde_json::to_vec(&state).unwrap()
    })
}

/// Read `bytes` as a checkpointed state: `Ok` only if it parses and
/// validates against `inj`. Must not panic.
fn load(inj: &Injector<'_>, bytes: &[u8]) -> Result<AdaptiveState, String> {
    let state: AdaptiveState = serde_json::from_slice(bytes).map_err(|e| e.to_string())?;
    state.validate(inj)?;
    Ok(state)
}

#[test]
fn untampered_state_validates() {
    let inj = injector();
    let state = load(&inj, state_bytes(&inj)).unwrap();
    assert_eq!(state.round, 2);
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let inj = injector();
        let _ = load(&inj, &bytes);
    }

    #[test]
    fn truncated_state_is_refused(frac in 0.0f64..1.0) {
        let inj = injector();
        let bytes = state_bytes(&inj);
        let cut = (frac * bytes.len() as f64) as usize;
        // a strict prefix of one JSON document never parses
        prop_assert!(load(&inj, &bytes[..cut]).is_err());
    }

    #[test]
    fn bit_flipped_state_never_panics(at in 0.0f64..1.0, bit in 0u8..8) {
        let inj = injector();
        let mut bytes = state_bytes(&inj).to_vec();
        let pos = (at * bytes.len() as f64) as usize;
        bytes[pos] ^= 1 << bit;
        if let Ok(mut state) = load(&inj, &bytes) {
            // a flip that still validates describes this fault space
            prop_assert_eq!(state.n_sites, inj.n_sites());
            prop_assert_eq!(state.bits, inj.bits());
            // ... and the sampler can go on from it
            for _ in 0..STEP_ROUNDS {
                state.step(&inj);
            }
            state.finish(&inj);
        }
    }
}
