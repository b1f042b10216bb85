//! The Navier–Stokes operator family of Sec. 2.3, all matrix-free:
//! convective term `C(U)` (divergence form, local Lax–Friedrichs flux),
//! velocity divergence `D(U)` and pressure gradient `G(P)` (central
//! fluxes, mixed-order `k`/`k−1`), the Helmholtz operator of the viscous
//! step, and the div-div + normal-continuity penalty operator `A_pen`.

use crate::bc::{BcKind, FlowBcs};
use crate::field::DIM;
use dgflow_fem::evaluator::{
    evaluate_face, evaluate_gradients, evaluate_values, gather_cell, gather_face_cells, integrate,
    integrate_face, scatter_add_cell, scatter_add_face_cells, CellScratch, FaceScratch,
    FaceSideDesc,
};
use dgflow_fem::util::SharedMut;
use dgflow_fem::{FaceBatch, LaplaceOperator, MatrixFree};
use dgflow_simd::{Real, Simd};
use dgflow_solvers::LinearOperator;

/// Velocity stride per cell.
fn ustride<T: Real, const L: usize>(mf: &MatrixFree<T, L>) -> usize {
    DIM * mf.dofs_per_cell
}

/// Trace of a cell-blocked field (`[cell][component][dof]`, one component
/// per entry of `out`: `DIM` for a velocity, one for a scalar) on one side
/// of a face batch. `out[d]` receives component `d` at the face quadrature
/// points, in minus-frame order.
pub(crate) fn face_values<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    b: &FaceBatch<L>,
    side: FaceSideDesc,
    src: &[T],
    s: &mut FaceScratch<T, L>,
    out: &mut [Vec<Simd<T, L>>],
) {
    let dpc = mf.dofs_per_cell;
    let stride = out.len() * dpc;
    let cells = if side.is_plus { &b.plus } else { &b.minus };
    for (d, od) in out.iter_mut().enumerate() {
        gather_face_cells(cells, b.n_filled, src, stride, d * dpc, dpc, &mut s.dofs);
        evaluate_face(mf, side, false, s);
        od.copy_from_slice(&s.val);
    }
}

/// Integrate the flux in `s.val` against the test functions of one side
/// of a face batch and add the result into component `comp` of a
/// cell-blocked field with `n_comp` components (`n_comp = 1`: a scalar).
pub(crate) fn integrate_face_add<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    b: &FaceBatch<L>,
    side: FaceSideDesc,
    s: &mut FaceScratch<T, L>,
    n_comp: usize,
    comp: usize,
    dst: &SharedMut<T>,
) {
    let dpc = mf.dofs_per_cell;
    let stride = n_comp * dpc;
    let cells = if side.is_plus { &b.plus } else { &b.minus };
    integrate_face(mf, side, false, s);
    scatter_add_face_cells(cells, b.n_filled, &s.dofs, stride, comp * dpc, dpc, dst);
}

/// Weak convective term: `dst = ∫ −∇v : (u⊗u) + ⟨v, Φ*(u⁻,u⁺)·n⟩` —
/// apply `M^{-1}` afterwards to get the strong update of Eq. (1).
pub fn convective_term<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    bcs: &FlowBcs,
    u: &[T],
    dst: &mut [T],
) {
    assert!(mf.collocated(), "convective kernel assumes collocation");
    let dpc = mf.dofs_per_cell;
    let stride = ustride(mf);
    dst.iter_mut().for_each(|v| *v = T::ZERO);
    let out = SharedMut::new(dst);
    let nq3 = mf.n_q().pow(3);
    let nq2 = mf.n_q() * mf.n_q();

    // cells
    dgflow_comm::parallel_for_chunks(mf.cell_batches.len(), 1, |range| {
        let mut s = CellScratch::<T, L>::new(mf);
        let mut uq = [
            vec![Simd::<T, L>::zero(); nq3],
            vec![Simd::<T, L>::zero(); nq3],
            vec![Simd::<T, L>::zero(); nq3],
        ];
        for bi in range {
            let b = &mf.cell_batches[bi];
            let g = &mf.metric.cell_geometry[bi];
            for (d, uqd) in uq.iter_mut().enumerate() {
                // collocated: nodal values *are* the quadrature values, so
                // gather straight into the batch buffer (no copy chain).
                gather_cell(b, u, stride, d * dpc, dpc, uqd);
            }
            for d in 0..DIM {
                for q in 0..nq3 {
                    let jxw = g.jxw[q];
                    let m = &g.jinvt[q * 9..q * 9 + 9];
                    // flux F_d = u_d * u; ref-test flux t_c = −Σ_e J^{-T}_{ec} F_de · JxW
                    let f = [
                        uq[d][q] * uq[0][q],
                        uq[d][q] * uq[1][q],
                        uq[d][q] * uq[2][q],
                    ];
                    for c in 0..DIM {
                        s.grad[c][q] = -(f[0] * m[c] + f[1] * m[3 + c] + f[2] * m[6 + c]) * jxw;
                    }
                }
                integrate(mf, &mut s, false, true);
                scatter_add_cell(b, &s.dofs, stride, d * dpc, dpc, &out);
            }
        }
    });

    // faces, per conflict color
    for color in &mf.face_colors {
        dgflow_comm::parallel_for_chunks(color.len(), 1, |range| {
            let mut sm = FaceScratch::<T, L>::new(mf);
            let mut sp = FaceScratch::<T, L>::new(mf);
            let mut um: [Vec<Simd<T, L>>; DIM] = std::array::from_fn(|_| vec![Simd::zero(); nq2]);
            let mut up = um.clone();
            let mut flux = um.clone();
            for k in range {
                let bi = color[k];
                let b = &mf.face_batches[bi];
                let g = &mf.metric.face_geometry[bi];
                let cat = b.category;
                let desc_m = FaceSideDesc::minus(b);
                let desc_p = FaceSideDesc::plus(b);
                face_values(mf, b, desc_m, u, &mut sm, &mut um);
                if cat.is_boundary {
                    match bcs.kind(cat.boundary_id) {
                        // mirror: u⁺ = −u⁻ (no-slip)
                        BcKind::Wall => {
                            for d in 0..DIM {
                                for q in 0..nq2 {
                                    up[d][q] = -um[d][q];
                                }
                            }
                        }
                        // do-nothing: u⁺ = u⁻
                        BcKind::Pressure => {
                            for d in 0..DIM {
                                up[d].copy_from_slice(&um[d]);
                            }
                        }
                    }
                } else {
                    face_values(mf, b, desc_p, u, &mut sp, &mut up);
                }
                // pointwise LLF flux Φ_d = {{u_d u}}·n + λ/2 (u_d⁻ − u_d⁺)
                let half = T::from_f64(0.5);
                for q in 0..nq2 {
                    let n = [g.normal[q * 3], g.normal[q * 3 + 1], g.normal[q * 3 + 2]];
                    let unm = um[0][q] * n[0] + um[1][q] * n[1] + um[2][q] * n[2];
                    let unp = up[0][q] * n[0] + up[1][q] * n[1] + up[2][q] * n[2];
                    let lambda = unm.abs().max(unp.abs());
                    let jxw = g.jxw[q];
                    for d in 0..DIM {
                        let avg = (um[d][q] * unm + up[d][q] * unp) * half;
                        let phi = avg + lambda * half * (um[d][q] - up[d][q]);
                        flux[d][q] = phi * jxw;
                    }
                }
                for d in 0..DIM {
                    sm.val.copy_from_slice(&flux[d]);
                    integrate_face_add(mf, b, desc_m, &mut sm, DIM, d, &out);
                    if !cat.is_boundary {
                        for q in 0..nq2 {
                            sp.val[q] = -flux[d][q];
                        }
                        integrate_face_add(mf, b, desc_p, &mut sp, DIM, d, &out);
                    }
                }
            }
        });
    }
}

/// Weak velocity divergence into the pressure space:
/// `dst_q = −(∇q, u) + ⟨[[q]], {{u}}·n⟩` (walls contribute no flux since
/// the mirrored normal velocity vanishes).
pub fn divergence<T: Real, const L: usize>(
    mf_u: &MatrixFree<T, L>,
    mf_p: &MatrixFree<T, L>,
    bcs: &FlowBcs,
    u: &[T],
    dst: &mut [T],
) {
    let dpc_u = mf_u.dofs_per_cell;
    let dpc_p = mf_p.dofs_per_cell;
    let stride = ustride(mf_u);
    let nq3 = mf_u.n_q().pow(3);
    let nq2 = mf_u.n_q() * mf_u.n_q();
    assert_eq!(mf_u.n_q(), mf_p.n_q(), "shared quadrature required");
    dst.iter_mut().for_each(|v| *v = T::ZERO);
    let out = SharedMut::new(dst);

    dgflow_comm::parallel_for_chunks(mf_u.cell_batches.len(), 1, |range| {
        let mut su = CellScratch::<T, L>::new(mf_u);
        let mut sq = CellScratch::<T, L>::new(mf_p);
        let mut uq = [
            vec![Simd::<T, L>::zero(); nq3],
            vec![Simd::<T, L>::zero(); nq3],
            vec![Simd::<T, L>::zero(); nq3],
        ];
        for bi in range {
            let b = &mf_u.cell_batches[bi];
            let g = &mf_u.metric.cell_geometry[bi];
            for d in 0..DIM {
                gather_cell(b, u, stride, d * dpc_u, dpc_u, &mut su.dofs);
                evaluate_values(mf_u, &mut su);
                uq[d].copy_from_slice(&su.quad);
            }
            for q in 0..nq3 {
                let jxw = g.jxw[q];
                let m = &g.jinvt[q * 9..q * 9 + 9];
                for c in 0..DIM {
                    sq.grad[c][q] =
                        -(uq[0][q] * m[c] + uq[1][q] * m[3 + c] + uq[2][q] * m[6 + c]) * jxw;
                }
            }
            integrate(mf_p, &mut sq, false, true);
            scatter_add_cell(b, &sq.dofs, dpc_p, 0, dpc_p, &out);
        }
    });

    for color in &mf_u.face_colors {
        dgflow_comm::parallel_for_chunks(color.len(), 1, |range| {
            let mut sm = FaceScratch::<T, L>::new(mf_u);
            let mut sp = FaceScratch::<T, L>::new(mf_u);
            let mut qm = FaceScratch::<T, L>::new(mf_p);
            let mut qp = FaceScratch::<T, L>::new(mf_p);
            let mut un_avg = vec![Simd::<T, L>::zero(); nq2];
            let mut um: [Vec<Simd<T, L>>; DIM] = std::array::from_fn(|_| vec![Simd::zero(); nq2]);
            let mut up = um.clone();
            for k in range {
                let bi = color[k];
                let b = &mf_u.face_batches[bi];
                let g = &mf_u.metric.face_geometry[bi];
                let cat = b.category;
                // walls mirror the velocity: {{u}}·n = 0, no flux
                if cat.is_boundary && bcs.kind(cat.boundary_id) == BcKind::Wall {
                    continue;
                }
                let desc_m = FaceSideDesc::minus(b);
                let desc_p = FaceSideDesc::plus(b);
                face_values(mf_u, b, desc_m, u, &mut sm, &mut um);
                if !cat.is_boundary {
                    face_values(mf_u, b, desc_p, u, &mut sp, &mut up);
                }
                for v in un_avg.iter_mut() {
                    *v = Simd::zero();
                }
                let half = T::from_f64(0.5);
                for d in 0..DIM {
                    if cat.is_boundary {
                        // pressure boundary: {{u}} = u⁻
                        for q in 0..nq2 {
                            un_avg[q] += um[d][q] * g.normal[q * 3 + d];
                        }
                    } else {
                        for q in 0..nq2 {
                            un_avg[q] += (um[d][q] + up[d][q]) * half * g.normal[q * 3 + d];
                        }
                    }
                }
                for q in 0..nq2 {
                    qm.val[q] = un_avg[q] * g.jxw[q];
                }
                if !cat.is_boundary {
                    for q in 0..nq2 {
                        qp.val[q] = -qm.val[q];
                    }
                }
                integrate_face_add(mf_p, b, desc_m, &mut qm, 1, 0, &out);
                if !cat.is_boundary {
                    integrate_face_add(mf_p, b, desc_p, &mut qp, 1, 0, &out);
                }
            }
        });
    }
}

/// Weak pressure gradient into the velocity space:
/// `dst_v = −(∇·v, p) + ⟨[[v]]·n, {{p}}⟩`, with `{{p}} = g` on pressure
/// boundaries (the prescribed value enters directly since `G` acts on a
/// known field) and `{{p}} = p⁻` on walls.
pub fn gradient<T: Real, const L: usize>(
    mf_u: &MatrixFree<T, L>,
    mf_p: &MatrixFree<T, L>,
    bcs: &FlowBcs,
    p: &[T],
    dst: &mut [T],
) {
    let dpc_u = mf_u.dofs_per_cell;
    let dpc_p = mf_p.dofs_per_cell;
    let stride = ustride(mf_u);
    let nq3 = mf_u.n_q().pow(3);
    let nq2 = mf_u.n_q() * mf_u.n_q();
    dst.iter_mut().for_each(|v| *v = T::ZERO);
    let out = SharedMut::new(dst);

    dgflow_comm::parallel_for_chunks(mf_u.cell_batches.len(), 1, |range| {
        let mut su = CellScratch::<T, L>::new(mf_u);
        let mut sq = CellScratch::<T, L>::new(mf_p);
        let mut pq = vec![Simd::<T, L>::zero(); nq3];
        for bi in range {
            let b = &mf_u.cell_batches[bi];
            let g = &mf_u.metric.cell_geometry[bi];
            gather_cell(b, p, dpc_p, 0, dpc_p, &mut sq.dofs);
            evaluate_values(mf_p, &mut sq);
            pq.copy_from_slice(&sq.quad);
            for d in 0..DIM {
                for q in 0..nq3 {
                    let jxw = g.jxw[q];
                    let m = &g.jinvt[q * 9..q * 9 + 9];
                    let s = -(pq[q] * jxw);
                    for c in 0..DIM {
                        su.grad[c][q] = m[3 * d + c] * s;
                    }
                }
                integrate(mf_u, &mut su, false, true);
                scatter_add_cell(b, &su.dofs, stride, d * dpc_u, dpc_u, &out);
            }
        }
    });

    for color in &mf_u.face_colors {
        dgflow_comm::parallel_for_chunks(color.len(), 1, |range| {
            let mut su_m = FaceScratch::<T, L>::new(mf_u);
            let mut su_p = FaceScratch::<T, L>::new(mf_u);
            let mut qm = FaceScratch::<T, L>::new(mf_p);
            let mut qp = FaceScratch::<T, L>::new(mf_p);
            let mut pm = [vec![Simd::<T, L>::zero(); nq2]];
            let mut pp = pm.clone();
            let mut p_avg = vec![Simd::<T, L>::zero(); nq2];
            for k in range {
                let bi = color[k];
                let b = &mf_u.face_batches[bi];
                let g = &mf_u.metric.face_geometry[bi];
                let cat = b.category;
                let desc_m = FaceSideDesc::minus(b);
                let desc_p = FaceSideDesc::plus(b);
                face_values(mf_p, b, desc_m, p, &mut qm, &mut pm);
                if cat.is_boundary {
                    match bcs.kind(cat.boundary_id) {
                        BcKind::Wall => p_avg.copy_from_slice(&pm[0]),
                        BcKind::Pressure => {
                            let gp = T::from_f64(bcs.pressure(cat.boundary_id));
                            for v in p_avg.iter_mut() {
                                *v = Simd::splat(gp);
                            }
                        }
                    }
                } else {
                    face_values(mf_p, b, desc_p, p, &mut qp, &mut pp);
                    let half = T::from_f64(0.5);
                    for q in 0..nq2 {
                        p_avg[q] = (pm[0][q] + pp[0][q]) * half;
                    }
                }
                for d in 0..DIM {
                    for q in 0..nq2 {
                        su_m.val[q] = p_avg[q] * g.normal[q * 3 + d] * g.jxw[q];
                    }
                    if !cat.is_boundary {
                        for q in 0..nq2 {
                            su_p.val[q] = -su_m.val[q];
                        }
                    }
                    integrate_face_add(mf_u, b, desc_m, &mut su_m, DIM, d, &out);
                    if !cat.is_boundary {
                        integrate_face_add(mf_u, b, desc_p, &mut su_p, DIM, d, &out);
                    }
                }
            }
        });
    }
}

/// Helmholtz operator of the viscous step: `(γ₀/Δt) M + ν L`, applied to
/// one scalar velocity component.
pub struct HelmholtzOperator<T: Real, const L: usize> {
    /// The SIPG Laplacian with velocity boundary conditions.
    pub laplace: LaplaceOperator<T, L>,
    /// Mass weights (`jxw` per DoF).
    pub mass_weights: Vec<T>,
    /// Cached Laplacian diagonal.
    lap_diag: Vec<T>,
    /// `γ₀/Δt`.
    pub factor: T,
    /// Kinematic viscosity.
    pub nu: T,
}

impl<T: Real, const L: usize> HelmholtzOperator<T, L> {
    /// Build from a Laplacian (BCs included) and mass weights.
    pub fn new(laplace: LaplaceOperator<T, L>, mass_weights: Vec<T>, nu: T) -> Self {
        let lap_diag = laplace.compute_diagonal();
        Self {
            laplace,
            mass_weights,
            lap_diag,
            factor: T::ONE,
            nu,
        }
    }

    /// Update the time-step factor `γ₀/Δt`.
    pub fn set_factor(&mut self, factor: T) {
        self.factor = factor;
    }
}

impl<T: Real, const L: usize> LinearOperator<T> for HelmholtzOperator<T, L> {
    fn len(&self) -> usize {
        self.mass_weights.len()
    }
    fn apply(&self, src: &[T], dst: &mut [T]) {
        self.laplace.apply(src, dst);
        for ((d, s), w) in dst.iter_mut().zip(src).zip(&self.mass_weights) {
            *d = *d * self.nu + self.factor * *w * *s;
        }
    }
    fn diagonal(&self) -> Vec<T> {
        self.lap_diag
            .iter()
            .zip(&self.mass_weights)
            .map(|(&l, &w)| l * self.nu + self.factor * w)
            .collect()
    }
}

/// The penalty operator of Eq. (5): `M + Δt (a_D div-div + a_C continuity)`,
/// acting on the full velocity vector.
pub struct PenaltyOperator<'a, T: Real, const L: usize> {
    /// Velocity matrix-free context.
    pub mf: &'a MatrixFree<T, L>,
    /// `Δt`.
    pub dt: T,
    /// Per-cell divergence-penalty coefficient `ζ_D ‖u‖_e h_e/(k+1)`.
    pub a_div: Vec<T>,
    /// Per-face-batch continuity-penalty coefficient `ζ_C ‖u‖` (lane-wise).
    pub a_cont: Vec<Simd<T, L>>,
}

impl<'a, T: Real, const L: usize> PenaltyOperator<'a, T, L> {
    /// Compute the velocity-dependent penalty coefficients (recomputed
    /// every time step, like ExaDG).
    pub fn new(
        mf: &'a MatrixFree<T, L>,
        u_scale: &[f64],
        dt: f64,
        zeta_div: f64,
        zeta_cont: f64,
    ) -> Self {
        let k1 = (mf.params.degree + 1) as f64;
        let a_div: Vec<T> = (0..mf.n_cells)
            .map(|c| {
                let h = mf.metric.cell_volumes[c].cbrt();
                T::from_f64(zeta_div * u_scale[c].max(1e-12) * h / k1)
            })
            .collect();
        let a_cont: Vec<Simd<T, L>> = mf
            .face_batches
            .iter()
            .map(|b| {
                let mut v = Simd::<T, L>::zero();
                for l in 0..b.n_filled {
                    let mut s = u_scale[b.minus[l] as usize];
                    if b.plus[l] != u32::MAX {
                        s = s.max(u_scale[b.plus[l] as usize]);
                    }
                    v[l] = T::from_f64(zeta_cont * s.max(1e-12));
                }
                v
            })
            .collect();
        Self {
            mf,
            dt: T::from_f64(dt),
            a_div,
            a_cont,
        }
    }
}

impl<'a, T: Real, const L: usize> LinearOperator<T> for PenaltyOperator<'a, T, L> {
    fn len(&self) -> usize {
        DIM * self.mf.n_dofs()
    }

    fn apply(&self, src: &[T], dst: &mut [T]) {
        let mf = self.mf;
        let dpc = mf.dofs_per_cell;
        let stride = ustride(mf);
        let nq3 = mf.n_q().pow(3);
        let nq2 = mf.n_q() * mf.n_q();
        // mass part
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            let g = &mf.metric.cell_geometry[bi];
            for l in 0..b.n_filled {
                let base = stride * b.cells[l] as usize;
                for d in 0..DIM {
                    for i in 0..dpc {
                        dst[base + d * dpc + i] = src[base + d * dpc + i] * g.jxw[i][l];
                    }
                }
            }
        }
        let out = SharedMut::new(dst);
        // div-div cell term
        dgflow_comm::parallel_for_chunks(mf.cell_batches.len(), 1, |range| {
            let mut s = CellScratch::<T, L>::new(mf);
            let mut divu = vec![Simd::<T, L>::zero(); nq3];
            for bi in range {
                let b = &mf.cell_batches[bi];
                let g = &mf.metric.cell_geometry[bi];
                let mut adiv = Simd::<T, L>::zero();
                for l in 0..b.n_filled {
                    adiv[l] = self.a_div[b.cells[l] as usize];
                }
                for v in divu.iter_mut() {
                    *v = Simd::zero();
                }
                for d in 0..DIM {
                    gather_cell(b, src, stride, d * dpc, dpc, &mut s.dofs);
                    evaluate_values(mf, &mut s);
                    evaluate_gradients(mf, &mut s);
                    for q in 0..nq3 {
                        let m = &g.jinvt[q * 9..q * 9 + 9];
                        divu[q] += s.grad[0][q] * m[3 * d]
                            + s.grad[1][q] * m[3 * d + 1]
                            + s.grad[2][q] * m[3 * d + 2];
                    }
                }
                for d in 0..DIM {
                    for q in 0..nq3 {
                        let m = &g.jinvt[q * 9..q * 9 + 9];
                        let t = divu[q] * adiv * self.dt * g.jxw[q];
                        for c in 0..DIM {
                            s.grad[c][q] = m[3 * d + c] * t;
                        }
                    }
                    integrate(mf, &mut s, false, true);
                    scatter_add_cell(b, &s.dofs, stride, d * dpc, dpc, &out);
                }
            }
        });
        // normal-continuity face term (interior faces only)
        for color in &mf.face_colors {
            dgflow_comm::parallel_for_chunks(color.len(), 1, |range| {
                let mut sm = FaceScratch::<T, L>::new(mf);
                let mut sp = FaceScratch::<T, L>::new(mf);
                let mut jump_n = vec![Simd::<T, L>::zero(); nq2];
                let mut um: [Vec<Simd<T, L>>; DIM] =
                    std::array::from_fn(|_| vec![Simd::zero(); nq2]);
                let mut up = um.clone();
                for k in range {
                    let bi = color[k];
                    let b = &mf.face_batches[bi];
                    if b.category.is_boundary {
                        continue;
                    }
                    let g = &mf.metric.face_geometry[bi];
                    let desc_m = FaceSideDesc::minus(b);
                    let desc_p = FaceSideDesc::plus(b);
                    face_values(mf, b, desc_m, src, &mut sm, &mut um);
                    face_values(mf, b, desc_p, src, &mut sp, &mut up);
                    let ac = self.a_cont[bi];
                    for q in 0..nq2 {
                        let mut j = Simd::<T, L>::zero();
                        for d in 0..DIM {
                            j += (um[d][q] - up[d][q]) * g.normal[q * 3 + d];
                        }
                        jump_n[q] = j * ac * self.dt * g.jxw[q];
                    }
                    for d in 0..DIM {
                        for q in 0..nq2 {
                            sm.val[q] = jump_n[q] * g.normal[q * 3 + d];
                            sp.val[q] = -sm.val[q];
                        }
                        integrate_face_add(mf, b, desc_m, &mut sm, DIM, d, &out);
                        integrate_face_add(mf, b, desc_p, &mut sp, DIM, d, &out);
                    }
                }
            });
        }
    }
}

/// Flow rate `∫_Γ u·n` through all faces of one boundary id (positive =
/// out of the domain).
pub fn boundary_flow_rate<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    boundary_id: u32,
    u: &[T],
) -> f64 {
    let nq2 = mf.n_q() * mf.n_q();
    let mut sm = FaceScratch::<T, L>::new(mf);
    let mut um: [Vec<Simd<T, L>>; DIM] = std::array::from_fn(|_| vec![Simd::zero(); nq2]);
    let mut total = 0.0;
    for (bi, b) in mf.face_batches.iter().enumerate() {
        let cat = b.category;
        if !cat.is_boundary || cat.boundary_id != boundary_id {
            continue;
        }
        let g = &mf.metric.face_geometry[bi];
        face_values(mf, b, FaceSideDesc::minus(b), u, &mut sm, &mut um);
        for d in 0..DIM {
            for q in 0..nq2 {
                let c = um[d][q] * g.normal[q * 3 + d] * g.jxw[q];
                for l in 0..b.n_filled {
                    total += c[l].to_f64();
                }
            }
        }
    }
    total
}
