//! Property tests over the kernel implementations: numerical correctness
//! and tracing invariants across random seeds and sizes.

use ftb_kernels::{
    Csr, FftConfig, FftKernel, Kernel, LuConfig, LuKernel, MatvecConfig, MatvecKernel,
    StencilConfig, StencilKernel,
};
use ftb_trace::norms::Norm;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// LU: L·U reassembles to the input matrix for any seed and block
    /// split.
    #[test]
    fn lu_reassembles_for_any_seed(seed in 0u64..1000, block_choice in 0usize..3) {
        let n = 12;
        let block = [2, 3, 4][block_choice];
        let k = LuKernel::new(LuConfig { n, block, seed, ..LuConfig::small() });
        let g = k.golden();
        // reassemble
        let lu = &g.output;
        let mut back = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..=i.min(j) {
                    let l = if kk == i { 1.0 } else { lu[i * n + kk] };
                    s += l * lu[kk * n + j];
                }
                back[i * n + j] = s;
            }
        }
        let err = Norm::LInf.distance(&back, &ftb_kernels::inputs::diag_dominant_matrix(seed, n));
        prop_assert!(err < 1e-9, "reassembly error {err}");
    }

    /// FFT matches the naive DFT for any seed and factorisation.
    #[test]
    fn fft_matches_dft_for_any_seed(seed in 0u64..1000, shape in 0usize..3) {
        let (n1, n2) = [(4usize, 4usize), (4, 8), (8, 4)][shape];
        let k = FftKernel::new(FftConfig { n1, n2, seed, ..FftConfig::small() });
        let g = k.golden();
        let n = n1 * n2;
        // naive DFT over the kernel's own inputs (recover from the trace:
        // the first 2n sites are the interleaved input loads)
        let re: Vec<f64> = (0..n).map(|i| g.value(2 * i)).collect();
        let im: Vec<f64> = (0..n).map(|i| g.value(2 * i + 1)).collect();
        let mut reference = Vec::with_capacity(2 * n);
        for kk in 0..n {
            let (mut sr, mut si) = (0.0, 0.0);
            for j in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (kk * j) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                sr += re[j] * c - im[j] * s;
                si += re[j] * s + im[j] * c;
            }
            reference.push(sr);
            reference.push(si);
        }
        let err = Norm::LInf.distance(&g.output, &reference);
        prop_assert!(err < 1e-9, "DFT mismatch {err}");
    }

    /// Stencil sweeps preserve the value range (a convex average can
    /// never exceed its inputs).
    #[test]
    fn stencil_respects_maximum_principle(seed in 0u64..1000) {
        let k = StencilKernel::new(StencilConfig { grid: 8, sweeps: 6, seed, ..StencilConfig::small() });
        let g = k.golden();
        // the init region (first 64 sites) holds the initial grid
        let bound = (0..g.n_sites().min(64)).fold(0.0f64, |m, s| m.max(g.value(s).abs()));
        for &v in &g.output {
            prop_assert!(v.abs() <= bound + 1e-12, "value {v} exceeds initial bound {bound}");
        }
    }

    /// Matvec golden output equals a direct evaluation for any seed/size.
    #[test]
    fn matvec_matches_direct(seed in 0u64..1000, n in 2usize..12) {
        let k = MatvecKernel::new(MatvecConfig { n, seed, ..MatvecConfig::small() });
        let g = k.golden();
        prop_assert_eq!(g.n_sites(), n * n + 2 * n);
        for i in 0..n {
            let row_start = i * n;
            let expect: f64 = (0..n)
                .map(|j| g.value(row_start + j) * g.value(n * n + j))
                .sum();
            prop_assert!((g.output[i] - expect).abs() < 1e-12);
        }
    }

    /// CSR assembly from shuffled triplets is order-independent.
    #[test]
    fn csr_assembly_is_order_independent(perm_seed in 0u64..1000) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut triplets = vec![
            (0usize, 0usize, 1.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
            (1, 0, -1.0),
        ];
        let a = Csr::from_triplets(3, 3, triplets.clone());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(perm_seed);
        triplets.shuffle(&mut rng);
        let b = Csr::from_triplets(3, 3, triplets);
        prop_assert_eq!(a, b);
    }
}
