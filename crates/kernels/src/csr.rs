//! Compressed-sparse-row matrices.
//!
//! MiniFE — the origin of the paper's CG benchmark — assembles an
//! explicit sparse matrix from a finite-element discretisation and runs
//! CG over it. This module provides the CSR substrate: assembly from the
//! 2-D Poisson stencil, deterministic random SPD-ish matrices for tests,
//! and an instrumented sparse matrix-vector product.

use ftb_trace::{OpKind, StaticId, Tracer};
use serde::{Deserialize, Serialize};

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    /// Row start offsets into `cols`/`vals`; length `n_rows + 1`.
    row_ptr: Vec<u32>,
    /// Column index of each stored entry.
    cols: Vec<u32>,
    /// Value of each stored entry.
    vals: Vec<f64>,
}

impl Csr {
    /// Build from triplets `(row, col, value)`. Duplicate `(row, col)`
    /// entries are summed (finite-element assembly semantics).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn from_triplets(
        n_rows: usize,
        n_cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut entries: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        for &(r, c, _) in &entries {
            assert!(r < n_rows && c < n_cols, "triplet ({r},{c}) out of range");
        }
        entries.sort_by_key(|&(r, c, _)| (r, c));

        let mut cols: Vec<u32> = Vec::with_capacity(entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(entries.len());
        let mut row_counts = vec![0u32; n_rows];
        let mut last: Option<(usize, usize)> = None;
        for (r, c, v) in entries {
            match vals.last_mut() {
                // a duplicate of the previous entry folds into it
                Some(prev) if last == Some((r, c)) => *prev += v,
                _ => {
                    cols.push(c as u32);
                    vals.push(v);
                    row_counts[r] += 1;
                    last = Some((r, c));
                }
            }
        }
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        let mut acc = 0u32;
        row_ptr.push(0);
        for &count in &row_counts {
            acc += count;
            row_ptr.push(acc);
        }
        Csr {
            n_rows,
            n_cols,
            row_ptr,
            cols,
            vals,
        }
    }

    /// The `n × n` matrix of the 5-point Poisson operator on a
    /// `grid × grid` mesh with Dirichlet boundary (the MiniFE-style
    /// system the CG kernel solves): 4 on the diagonal, −1 for each
    /// in-grid neighbour.
    pub fn poisson_2d(grid: usize) -> Self {
        assert!(grid > 0, "empty mesh");
        let n = grid * grid;
        let mut triplets = Vec::with_capacity(5 * n);
        for i in 0..grid {
            for j in 0..grid {
                let idx = i * grid + j;
                triplets.push((idx, idx, 4.0));
                if i > 0 {
                    triplets.push((idx, idx - grid, -1.0));
                }
                if i + 1 < grid {
                    triplets.push((idx, idx + grid, -1.0));
                }
                if j > 0 {
                    triplets.push((idx, idx - 1, -1.0));
                }
                if j + 1 < grid {
                    triplets.push((idx, idx + 1, -1.0));
                }
            }
        }
        Csr::from_triplets(n, n, triplets)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Stored values (assembly order: row-major, columns ascending).
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Iterate the stored entries of one row as `(col, value)`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        self.cols[lo..hi]
            .iter()
            .zip(&self.vals[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Untraced `y = A·x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "x dimension mismatch");
        assert_eq!(y.len(), self.n_rows, "y dimension mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            let mut s = 0.0;
            for (c, v) in self.cols[lo..hi].iter().zip(&self.vals[lo..hi]) {
                s += v * x[*c as usize];
            }
            *yr = s;
        }
    }

    /// Traced `y = A·x` against matrix values held in `vals` (one dynamic
    /// instruction per stored `y[r]`). `vals` is passed separately so a
    /// kernel can route the matrix data itself through the tracer at
    /// load time (making matrix entries injectable) and then apply it.
    ///
    /// With `DDG` (operand provenance), each stored product's operand
    /// secants are recorded before every `y[r]` store (`|∂y_r/∂a_{rc}| =
    /// |x_c|`, `|∂y_r/∂x_c| = |a_{rc}|`, both exact for one perturbed
    /// operand), and `def_y[r]` receives the def site of each output row.
    /// `def_vals`/`def_x` map each stored entry / vector element to the
    /// dynamic instruction that defined it. Without `DDG` the three def
    /// slices are ignored (pass them empty).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn spmv_traced<const DDG: bool>(
        &self,
        t: &mut Tracer,
        sid: StaticId,
        vals: &[f64],
        def_vals: &[usize],
        x: &[f64],
        def_x: &[usize],
        y: &mut [f64],
        def_y: &mut [usize],
    ) {
        assert_eq!(vals.len(), self.nnz(), "vals dimension mismatch");
        assert_eq!(x.len(), self.n_cols, "x dimension mismatch");
        assert_eq!(y.len(), self.n_rows, "y dimension mismatch");
        if DDG {
            assert_eq!(def_vals.len(), self.nnz(), "def_vals dimension mismatch");
            assert_eq!(def_x.len(), self.n_cols, "def_x dimension mismatch");
            assert_eq!(def_y.len(), self.n_rows, "def_y dimension mismatch");
        }
        for (r, yr) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[r] as usize;
            let hi = self.row_ptr[r + 1] as usize;
            let mut s = 0.0;
            for (p, (c, v)) in (lo..hi).zip(self.cols[lo..hi].iter().zip(&vals[lo..hi])) {
                let c = *c as usize;
                if DDG {
                    t.dep(def_vals[p], OpKind::Scale(x[c]));
                    t.dep(def_x[c], OpKind::Scale(*v));
                }
                s += v * x[c];
            }
            if DDG {
                def_y[r] = t.cursor();
            }
            *yr = t.value(sid, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftb_trace::Precision;

    #[test]
    fn triplets_assemble_sorted_rows() {
        let a = Csr::from_triplets(3, 3, vec![(2, 0, 5.0), (0, 1, 2.0), (0, 0, 1.0)]);
        assert_eq!(a.nnz(), 3);
        let row0: Vec<_> = a.row(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (1, 2.0)]);
        let row1: Vec<_> = a.row(1).collect();
        assert!(row1.is_empty());
        let row2: Vec<_> = a.row(2).collect();
        assert_eq!(row2, vec![(0, 5.0)]);
    }

    #[test]
    fn duplicate_triplets_sum() {
        let a = Csr::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]);
        assert_eq!(a.nnz(), 2);
        let row0: Vec<_> = a.row(0).collect();
        assert_eq!(row0, vec![(0, 3.5)]);
    }

    #[test]
    fn poisson_matrix_shape() {
        let g = 4;
        let a = Csr::poisson_2d(g);
        assert_eq!(a.n_rows(), 16);
        // nnz = 5n - 4*grid (missing neighbours at boundaries)
        assert_eq!(a.nnz(), 5 * 16 - 4 * g);
        // row sums: interior rows sum to 0; boundary rows positive
        for r in 0..a.n_rows() {
            let sum: f64 = a.row(r).map(|(_, v)| v).sum();
            assert!(sum >= 0.0);
        }
        // symmetric
        for r in 0..a.n_rows() {
            for (c, v) in a.row(r) {
                let back: f64 = a
                    .row(c)
                    .find(|&(cc, _)| cc == r)
                    .map(|(_, v)| v)
                    .expect("symmetric entry missing");
                assert_eq!(v, back);
            }
        }
    }

    #[test]
    fn spmv_matches_dense_computation() {
        let a = Csr::poisson_2d(3);
        let x: Vec<f64> = (0..9).map(|i| (i as f64) * 0.5 - 2.0).collect();
        let mut y = vec![0.0; 9];
        a.spmv(&x, &mut y);
        // dense check
        for (r, &yr) in y.iter().enumerate() {
            let expect: f64 = a.row(r).map(|(c, v)| v * x[c]).sum();
            assert!((yr - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn traced_spmv_matches_untraced() {
        let a = Csr::poisson_2d(3);
        let x: Vec<f64> = (0..9).map(|i| (i as f64).sin()).collect();
        let mut y1 = vec![0.0; 9];
        a.spmv(&x, &mut y1);
        let mut y2 = vec![0.0; 9];
        let mut t = Tracer::untraced(Precision::F64);
        a.spmv_traced::<false>(
            &mut t,
            StaticId(0),
            a.values(),
            &[],
            &x,
            &[],
            &mut y2,
            &mut [],
        );
        assert_eq!(y1, y2);
        assert_eq!(t.cursor(), 9);
    }

    #[test]
    #[should_panic]
    fn out_of_range_triplet_panics() {
        let _ = Csr::from_triplets(2, 2, vec![(5, 0, 1.0)]);
    }
}
