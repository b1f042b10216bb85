//! Symmetric interior penalty (SIPG) discretization of the Laplacian —
//! the operator of the pressure Poisson equation (2) and the building
//! block of the viscous step.

use crate::batch::FaceBatch;
use crate::diagonal::{face_coefficients, DiagonalScratch, DiagonalTables};
use crate::evaluator::{
    apply_cell_laplace, evaluate_face, evaluate_gradients, evaluate_values, gather_cell,
    gather_face_cells, integrate, integrate_face, integrate_ref, laplace_cell_coeff,
    scatter_add_cell, scatter_add_face_cells, CellScratch, FaceScratch, FaceSideDesc,
};
use crate::matrixfree::MatrixFree;
use crate::util::SharedMut;
use dgflow_simd::{Real, Simd};
use dgflow_solvers::LinearOperator;
use std::sync::Arc;

/// Boundary treatment per boundary id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryCondition {
    /// Value prescribed weakly (Nitsche/SIPG); the operator applies the
    /// homogeneous part, inhomogeneous data enters the right-hand side.
    Dirichlet,
    /// Prescribed normal derivative; no operator face term.
    Neumann,
}

/// Matrix-free SIPG Laplacian.
pub struct LaplaceOperator<T: Real, const L: usize> {
    /// The matrix-free context.
    pub mf: Arc<MatrixFree<T, L>>,
    /// Boundary condition per boundary id (defaults to Dirichlet for ids
    /// beyond the list).
    pub bc: Vec<BoundaryCondition>,
    /// Per-batch merged symmetric cell coefficient (6 batches per
    /// quadrature point) for the fused cell kernel.
    coeff: Vec<Vec<Simd<T, L>>>,
    /// Modeled Flop per full operator application, for the roofline tag on
    /// the `laplace.apply` span.
    flops_per_apply: f64,
}

impl<T: Real, const L: usize> LaplaceOperator<T, L> {
    /// Create with all boundaries Dirichlet.
    pub fn new(mf: Arc<MatrixFree<T, L>>) -> Self {
        Self::with_bc(mf, Vec::new())
    }

    /// Create with explicit per-id boundary conditions.
    pub fn with_bc(mf: Arc<MatrixFree<T, L>>, bc: Vec<BoundaryCondition>) -> Self {
        let coeff = laplace_cell_coeff(&mf);
        let counts =
            dgflow_perfmodel::LaplaceCounts::new(mf.params.degree, std::mem::size_of::<T>() as f64);
        let flops_per_apply = counts.flops_per_dof * mf.n_dofs() as f64;
        Self {
            mf,
            bc,
            coeff,
            flops_per_apply,
        }
    }

    /// Boundary condition of a boundary id.
    pub fn bc_of(&self, id: u32) -> BoundaryCondition {
        self.bc
            .get(id as usize)
            .copied()
            .unwrap_or(BoundaryCondition::Dirichlet)
    }

    fn cell_kernel(&self, bi: usize, src: &[T], dst: &SharedMut<T>, s: &mut CellScratch<T, L>) {
        let mf = &*self.mf;
        let b = &mf.cell_batches[bi];
        let dpc = mf.dofs_per_cell;
        gather_cell(b, src, dpc, 0, dpc, &mut s.dofs);
        apply_cell_laplace(mf, &self.coeff[bi], s);
        scatter_add_cell(b, &s.dofs, dpc, 0, dpc, dst);
    }

    /// Reference cell kernel: two-stage Jacobian contraction per point and
    /// the unfused evaluate/integrate pipeline. Equivalence baseline for
    /// the fused [`apply_cell_laplace`] path (see `kernel_equiv.rs`).
    fn cell_kernel_ref(&self, bi: usize, src: &[T], dst: &SharedMut<T>, s: &mut CellScratch<T, L>) {
        let mf = &*self.mf;
        let b = &mf.cell_batches[bi];
        let g = &mf.metric.cell_geometry[bi];
        let dpc = mf.dofs_per_cell;
        let nq3 = mf.n_q().pow(3);
        gather_cell(b, src, dpc, 0, dpc, &mut s.dofs);
        evaluate_values(mf, s);
        evaluate_gradients(mf, s);
        for q in 0..nq3 {
            let gr = [s.grad[0][q], s.grad[1][q], s.grad[2][q]];
            let jxw = g.jxw[q];
            let m = &g.jinvt[q * 9..q * 9 + 9];
            // physical gradient t_r = Σ_c (J^{-T})_{rc} g_c, scaled by JxW
            let mut t = [Simd::<T, L>::zero(); 3];
            for r in 0..3 {
                t[r] = (gr[0] * m[3 * r] + gr[1] * m[3 * r + 1] + gr[2] * m[3 * r + 2]) * jxw;
            }
            // back to reference for the test function: out_c = Σ_r (J^{-T})_{rc} t_r
            for c in 0..3 {
                s.grad[c][q] = t[0] * m[c] + t[1] * m[3 + c] + t[2] * m[6 + c];
            }
        }
        integrate_ref(mf, s, false, true);
        scatter_add_cell(b, &s.dofs, dpc, 0, dpc, dst);
    }

    /// Apply the operator through the reference kernels (unfused cell
    /// pipeline, two-stage Jacobian contraction). Exists so the
    /// kernel-equivalence suite can pin the fused default path against it.
    pub fn apply_reference(&self, src: &[T], dst: &mut [T]) {
        let mf = &*self.mf;
        dst.iter_mut().for_each(|v| *v = T::ZERO);
        let out = SharedMut::new(dst);
        let n_cb = mf.cell_batches.len();
        dgflow_comm::parallel_for_chunks(n_cb, 1, |range| {
            let mut s = CellScratch::<T, L>::new(mf);
            for bi in range {
                self.cell_kernel_ref(bi, src, &out, &mut s);
            }
        });
        for color in &mf.face_colors {
            dgflow_comm::parallel_for_chunks(color.len(), 1, |range| {
                let mut sm = FaceScratch::<T, L>::new(mf);
                let mut sp = FaceScratch::<T, L>::new(mf);
                for k in range {
                    self.face_kernel(color[k], src, &out, &mut sm, &mut sp);
                }
            });
        }
    }

    fn face_kernel(
        &self,
        bi: usize,
        src: &[T],
        dst: &SharedMut<T>,
        sm: &mut FaceScratch<T, L>,
        sp: &mut FaceScratch<T, L>,
    ) {
        let mf = &*self.mf;
        let b: &FaceBatch<L> = &mf.face_batches[bi];
        let g = &mf.metric.face_geometry[bi];
        let sigma = mf.face_sigma[bi];
        let dpc = mf.dofs_per_cell;
        let nq2 = mf.n_q() * mf.n_q();
        let cat = b.category;
        if cat.is_boundary && self.bc_of(cat.boundary_id) == BoundaryCondition::Neumann {
            return;
        }
        let desc_m = FaceSideDesc::minus(b);
        gather_face_cells(&b.minus, b.n_filled, src, dpc, 0, dpc, &mut sm.dofs);
        evaluate_face(mf, desc_m, true, sm);
        if cat.is_boundary {
            for q in 0..nq2 {
                let u = sm.val[q];
                let dn = sm.grad[0][q] * g.g_minus[q * 3]
                    + sm.grad[1][q] * g.g_minus[q * 3 + 1]
                    + sm.grad[2][q] * g.g_minus[q * 3 + 2];
                let jxw = g.jxw[q];
                // mirror ghost: u+ = -u-, ∂n u+ = ∂n u-
                let vflux = (u * sigma * T::from_f64(2.0) - dn) * jxw;
                let gsc = -(u * jxw);
                sm.val[q] = vflux;
                for d in 0..3 {
                    sm.grad[d][q] = g.g_minus[q * 3 + d] * gsc;
                }
            }
            integrate_face(mf, desc_m, true, sm);
            scatter_add_face_cells(&b.minus, b.n_filled, &sm.dofs, dpc, 0, dpc, dst);
            return;
        }
        let desc_p = FaceSideDesc::plus(b);
        gather_face_cells(&b.plus, b.n_filled, src, dpc, 0, dpc, &mut sp.dofs);
        evaluate_face(mf, desc_p, true, sp);
        let half = T::from_f64(0.5);
        for q in 0..nq2 {
            let um = sm.val[q];
            let up = sp.val[q];
            let dnm = sm.grad[0][q] * g.g_minus[q * 3]
                + sm.grad[1][q] * g.g_minus[q * 3 + 1]
                + sm.grad[2][q] * g.g_minus[q * 3 + 2];
            let dnp = sp.grad[0][q] * g.g_plus[q * 3]
                + sp.grad[1][q] * g.g_plus[q * 3 + 1]
                + sp.grad[2][q] * g.g_plus[q * 3 + 2];
            let jxw = g.jxw[q];
            let jump = um - up;
            let vflux = (jump * sigma - (dnm + dnp) * half) * jxw;
            let gsc = -(jump * half * jxw);
            sm.val[q] = vflux;
            sp.val[q] = -vflux;
            for d in 0..3 {
                sm.grad[d][q] = g.g_minus[q * 3 + d] * gsc;
                sp.grad[d][q] = g.g_plus[q * 3 + d] * gsc;
            }
        }
        integrate_face(mf, desc_m, true, sm);
        scatter_add_face_cells(&b.minus, b.n_filled, &sm.dofs, dpc, 0, dpc, dst);
        integrate_face(mf, desc_p, true, sp);
        scatter_add_face_cells(&b.plus, b.n_filled, &sp.dofs, dpc, 0, dpc, dst);
    }

    /// Assemble the right-hand side contribution of inhomogeneous Dirichlet
    /// data `g` (added to any volumetric right-hand side).
    pub fn boundary_rhs(&self, gfun: &(dyn Fn([f64; 3]) -> f64 + Sync)) -> Vec<T> {
        self.boundary_rhs_by_id(&|_, x| gfun(x))
    }

    /// Like [`LaplaceOperator::boundary_rhs`] but the data may depend on the
    /// boundary id (per-outlet pressures in the lung application).
    pub fn boundary_rhs_by_id(&self, gfun: &(dyn Fn(u32, [f64; 3]) -> f64 + Sync)) -> Vec<T> {
        let mf = &*self.mf;
        let mut rhs = vec![T::ZERO; mf.n_dofs()];
        let dst = SharedMut::new(&mut rhs);
        let dpc = mf.dofs_per_cell;
        let nq2 = mf.n_q() * mf.n_q();
        // boundary batches are disjoint in their minus cells only across
        // colors; run serially (assembly happens once)
        let mut sm = FaceScratch::<T, L>::new(mf);
        for (bi, b) in mf.face_batches.iter().enumerate() {
            let cat = b.category;
            if !cat.is_boundary || self.bc_of(cat.boundary_id) != BoundaryCondition::Dirichlet {
                continue;
            }
            let g = &mf.metric.face_geometry[bi];
            let sigma = mf.face_sigma[bi];
            for q in 0..nq2 {
                let mut gv = Simd::<T, L>::zero();
                for l in 0..b.n_filled {
                    let x = [
                        g.positions[q * 3][l].to_f64(),
                        g.positions[q * 3 + 1][l].to_f64(),
                        g.positions[q * 3 + 2][l].to_f64(),
                    ];
                    gv[l] = T::from_f64(gfun(cat.boundary_id, x));
                }
                let jxw = g.jxw[q];
                // F_Γ(v) = ∫ 2σ g v − g ∂n v  (symmetric Nitsche lifting)
                sm.val[q] = gv * sigma * T::from_f64(2.0) * jxw;
                for d in 0..3 {
                    sm.grad[d][q] = -(g.g_minus[q * 3 + d] * gv * jxw);
                }
            }
            integrate_face(mf, FaceSideDesc::minus(b), true, &mut sm);
            scatter_add_face_cells(&b.minus, b.n_filled, &sm.dofs, dpc, 0, dpc, &dst);
        }
        rhs
    }

    /// Exact operator diagonal (for Jacobi/Chebyshev smoothing): local cell
    /// blocks plus the own-side face blocks, by sum factorization (see
    /// [`crate::diagonal`]): O(n⁴) per cell batch and O(n³) per face batch.
    pub fn compute_diagonal(&self) -> Vec<T> {
        let _sp = dgflow_trace::span("fem", "laplace.diagonal");
        let mf = &*self.mf;
        let dpc = mf.dofs_per_cell;
        let nq2 = mf.n_q() * mf.n_q();
        let tables = DiagonalTables::new(mf);
        let mut diag = vec![0.0f64; mf.n_dofs()];
        let dst = SharedMut::new(&mut diag);
        dgflow_comm::parallel_for_chunks(mf.cell_batches.len(), 1, |range| {
            let mut s = DiagonalScratch::new(&tables);
            let mut local = vec![Simd::<f64, L>::zero(); dpc];
            for bi in range {
                let b = &mf.cell_batches[bi];
                tables.cell(&self.coeff[bi], &mut s, &mut local);
                for l in 0..b.n_filled {
                    let base = dpc * b.cells[l] as usize;
                    for (i, v) in local.iter().enumerate() {
                        // SAFETY: disjoint cells per chunk
                        unsafe { *dst.at(base + i) += v[l] };
                    }
                }
            }
        });
        // own-side face blocks (the coupling blocks do not touch the
        // diagonal); colored like apply() so concurrent batches never
        // share a cell
        for color in &mf.face_colors {
            dgflow_comm::parallel_for_chunks(color.len(), 1, |range| {
                let mut s = DiagonalScratch::new(&tables);
                let mut local = vec![Simd::<f64, L>::zero(); dpc];
                let mut c_val = vec![Simd::<f64, L>::zero(); nq2];
                let mut c_grad = [(); 3].map(|_| vec![Simd::<f64, L>::zero(); nq2]);
                for &bi in &color[range] {
                    let b = &mf.face_batches[bi];
                    let cat = b.category;
                    if cat.is_boundary && self.bc_of(cat.boundary_id) == BoundaryCondition::Neumann
                    {
                        continue;
                    }
                    let g = &mf.metric.face_geometry[bi];
                    let sigma = mf.face_sigma[bi];
                    let sides = if cat.is_boundary {
                        // mirror ghost: u+ = -u-, ∂n u+ = ∂n u-
                        vec![(FaceSideDesc::minus(b), &b.minus, &g.g_minus, 2.0, 1.0)]
                    } else {
                        // jump sign: [[u]] = u- - u+
                        vec![
                            (FaceSideDesc::minus(b), &b.minus, &g.g_minus, 1.0, 1.0),
                            (FaceSideDesc::plus(b), &b.plus, &g.g_plus, 1.0, -1.0),
                        ]
                    };
                    for (desc, cells, gvec, weight, sign) in sides {
                        face_coefficients(
                            sigma,
                            &g.jxw,
                            gvec,
                            weight,
                            sign,
                            &mut c_val,
                            &mut c_grad,
                        );
                        local.iter_mut().for_each(|v| *v = Simd::zero());
                        tables.face_side(desc, &c_val, &c_grad, &mut s, &mut local);
                        for l in 0..b.n_filled {
                            if cells[l] == u32::MAX {
                                continue;
                            }
                            let base = dpc * cells[l] as usize;
                            for (i, v) in local.iter().enumerate() {
                                // SAFETY: batches within a color share no cells
                                unsafe { *dst.at(base + i) += v[l] };
                            }
                        }
                    }
                }
            });
        }
        diag.into_iter().map(T::from_f64).collect()
    }

    /// Reference diagonal: apply the local cell and own-side face kernels
    /// to every unit vector. Test oracle for the sum-factorized
    /// [`LaplaceOperator::compute_diagonal`] (see `kernel_equiv.rs`).
    pub fn compute_diagonal_reference(&self) -> Vec<T> {
        let mf = &*self.mf;
        let dpc = mf.dofs_per_cell;
        let mut diag = vec![T::ZERO; mf.n_dofs()];
        let dst = SharedMut::new(&mut diag);
        let n_batches = mf.cell_batches.len();
        // cell contributions
        dgflow_comm::parallel_for_chunks(n_batches, 1, |range| {
            let mut s = CellScratch::<T, L>::new(mf);
            let nq3 = mf.n_q().pow(3);
            for bi in range {
                let b = &mf.cell_batches[bi];
                let g = &mf.metric.cell_geometry[bi];
                for i in 0..dpc {
                    for v in s.dofs.iter_mut() {
                        *v = Simd::zero();
                    }
                    s.dofs[i] = Simd::splat(T::ONE);
                    evaluate_values(mf, &mut s);
                    evaluate_gradients(mf, &mut s);
                    for q in 0..nq3 {
                        let gr = [s.grad[0][q], s.grad[1][q], s.grad[2][q]];
                        let jxw = g.jxw[q];
                        let m = &g.jinvt[q * 9..q * 9 + 9];
                        let mut t = [Simd::<T, L>::zero(); 3];
                        for r in 0..3 {
                            t[r] = (gr[0] * m[3 * r] + gr[1] * m[3 * r + 1] + gr[2] * m[3 * r + 2])
                                * jxw;
                        }
                        for c in 0..3 {
                            s.grad[c][q] = t[0] * m[c] + t[1] * m[3 + c] + t[2] * m[6 + c];
                        }
                    }
                    integrate(mf, &mut s, false, true);
                    for l in 0..b.n_filled {
                        // SAFETY: disjoint cells per chunk
                        unsafe {
                            *dst.at(dpc * b.cells[l] as usize + i) += s.dofs[i][l];
                        }
                    }
                }
            }
        });
        // face contributions (own-side blocks only; the coupling blocks do
        // not touch the diagonal); colored like apply() so concurrent
        // batches never share a cell
        let nq2 = mf.n_q() * mf.n_q();
        for color in &mf.face_colors {
            dgflow_comm::parallel_for_chunks(color.len(), 1, |range| {
                let mut s = FaceScratch::<T, L>::new(mf);
                for k in range {
                    let bi = color[k];
                    let b = &mf.face_batches[bi];
                    let cat = b.category;
                    if cat.is_boundary && self.bc_of(cat.boundary_id) == BoundaryCondition::Neumann
                    {
                        continue;
                    }
                    let g = &mf.metric.face_geometry[bi];
                    let sigma = mf.face_sigma[bi];
                    let half = T::from_f64(0.5);
                    for (side_idx, (cells, desc)) in [
                        (&b.minus, FaceSideDesc::minus(b)),
                        (&b.plus, FaceSideDesc::plus(b)),
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        if cat.is_boundary && side_idx == 1 {
                            break;
                        }
                        let gvec = if side_idx == 0 { &g.g_minus } else { &g.g_plus };
                        // jump sign: [[u]] = u- - u+
                        let jsign = if side_idx == 0 { T::ONE } else { -T::ONE };
                        for i in 0..dpc {
                            for v in s.dofs.iter_mut() {
                                *v = Simd::zero();
                            }
                            s.dofs[i] = Simd::splat(T::ONE);
                            evaluate_face(mf, desc, true, &mut s);
                            for q in 0..nq2 {
                                let u = s.val[q];
                                let dn = s.grad[0][q] * gvec[q * 3]
                                    + s.grad[1][q] * gvec[q * 3 + 1]
                                    + s.grad[2][q] * gvec[q * 3 + 2];
                                let jxw = g.jxw[q];
                                let (vflux, gsc) = if cat.is_boundary {
                                    ((u * sigma * T::from_f64(2.0) - dn) * jxw, -(u * jxw))
                                } else {
                                    // own-side only: other side's trace is 0
                                    let jump = u * jsign;
                                    let vflux = (jump * sigma - dn * half) * jxw * jsign;
                                    let gsc = -(jump * half * jxw);
                                    (vflux, gsc)
                                };
                                s.val[q] = vflux;
                                for d in 0..3 {
                                    s.grad[d][q] = gvec[q * 3 + d] * gsc;
                                }
                            }
                            integrate_face(mf, desc, true, &mut s);
                            for l in 0..b.n_filled {
                                if cells[l] == u32::MAX {
                                    continue;
                                }
                                let idx = dpc * cells[l] as usize + i;
                                let v = s.dofs[i][l];
                                // SAFETY: batches within a color share no cells
                                unsafe {
                                    *dst.at(idx) += v;
                                }
                            }
                        }
                    }
                }
            });
        }
        diag
    }
}

impl<T: Real, const L: usize> LinearOperator<T> for LaplaceOperator<T, L> {
    fn len(&self) -> usize {
        self.mf.n_dofs()
    }

    fn apply(&self, src: &[T], dst: &mut [T]) {
        let _sp = dgflow_trace::span("fem", "laplace.apply").work(self.flops_per_apply);
        let mf = &*self.mf;
        dst.iter_mut().for_each(|v| *v = T::ZERO);
        let out = SharedMut::new(dst);
        let n_cb = mf.cell_batches.len();
        dgflow_comm::parallel_for_chunks(n_cb, 1, |range| {
            let mut s = CellScratch::<T, L>::new(mf);
            for bi in range {
                self.cell_kernel(bi, src, &out, &mut s);
            }
        });
        for color in &mf.face_colors {
            dgflow_comm::parallel_for_chunks(color.len(), 1, |range| {
                let mut sm = FaceScratch::<T, L>::new(mf);
                let mut sp = FaceScratch::<T, L>::new(mf);
                for k in range {
                    self.face_kernel(color[k], src, &out, &mut sm, &mut sp);
                }
            });
        }
    }

    fn diagonal(&self) -> Vec<T> {
        self.compute_diagonal()
    }
}
