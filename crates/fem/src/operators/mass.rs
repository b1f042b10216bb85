//! Mass operator and its fast inverse.
//!
//! With the Gauss-collocated nodal basis the element mass matrix is exactly
//! `diag(det J(x_q) w_q)` — the ExaDG choice that makes `M^{-1}` a pointwise
//! scaling (the preconditioner of the explicit sub-steps and of the viscous/
//! penalty CG solves).

use crate::matrixfree::MatrixFree;
use dgflow_simd::Real;
use dgflow_solvers::LinearOperator;

/// Matrix-free mass operator (collocated spaces only).
pub struct MassOperator<'a, T: Real, const L: usize> {
    /// The matrix-free context.
    pub mf: &'a MatrixFree<T, L>,
}

impl<'a, T: Real, const L: usize> MassOperator<'a, T, L> {
    /// Create; panics for non-collocated spaces (where the mass matrix is
    /// not diagonal).
    pub fn new(mf: &'a MatrixFree<T, L>) -> Self {
        assert!(
            mf.collocated(),
            "MassOperator requires a Gauss-collocated basis"
        );
        Self { mf }
    }

    /// The diagonal `jxw` weights as a flat vector (one entry per DoF).
    pub fn weights(&self) -> Vec<T> {
        let mf = self.mf;
        let dpc = mf.dofs_per_cell;
        let mut w = vec![T::ZERO; mf.n_dofs()];
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            let g = &mf.metric.cell_geometry[bi];
            for l in 0..b.n_filled {
                let base = dpc * b.cells[l] as usize;
                for i in 0..dpc {
                    w[base + i] = g.jxw[i][l];
                }
            }
        }
        w
    }
}

impl<'a, T: Real, const L: usize> LinearOperator<T> for MassOperator<'a, T, L> {
    fn len(&self) -> usize {
        self.mf.n_dofs()
    }
    fn apply(&self, src: &[T], dst: &mut [T]) {
        let mf = self.mf;
        let dpc = mf.dofs_per_cell;
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            let g = &mf.metric.cell_geometry[bi];
            for l in 0..b.n_filled {
                let base = dpc * b.cells[l] as usize;
                for i in 0..dpc {
                    dst[base + i] = src[base + i] * g.jxw[i][l];
                }
            }
        }
    }
    fn diagonal(&self) -> Vec<T> {
        self.weights()
    }
}

/// The inverse mass operator (pointwise division by `jxw`).
pub struct InverseMassOperator<T> {
    inv_w: Vec<T>,
}

impl<T: Real> InverseMassOperator<T> {
    /// Build from a collocated context.
    pub fn new<const L: usize>(mf: &MatrixFree<T, L>) -> Self {
        let w = MassOperator::new(mf).weights();
        Self {
            inv_w: w.into_iter().map(|x| T::ONE / x).collect(),
        }
    }

    /// `dst = M^{-1} src`.
    pub fn apply(&self, src: &[T], dst: &mut [T]) {
        for ((d, s), iw) in dst.iter_mut().zip(src).zip(&self.inv_w) {
            *d = *s * *iw;
        }
    }
}

impl<T: Real> dgflow_solvers::Preconditioner<T> for InverseMassOperator<T> {
    fn apply_precond(&self, src: &[T], dst: &mut [T]) {
        self.apply(src, dst);
    }
}
