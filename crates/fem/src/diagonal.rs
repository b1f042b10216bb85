//! Sum-factorized operator diagonals for the SIPG/Nitsche Laplacians.
//!
//! The diagonal entry of basis function `φ_i = l_{i0} ⊗ l_{i1} ⊗ l_{i2}` is
//! a quadrature sum of per-point coefficients times products of 1-D shape
//! values and derivatives, so it factorizes direction by direction:
//!
//! * cell: `A_ii = Σ_q Σ_{a,b} C_ab(q) ∂_aφ_i(q) ∂_bφ_i(q)` with the merged
//!   symmetric coefficient `C = JxW J^{-1} J^{-T}` of the fused apply
//!   kernel. Each of the six `(a, b)` pairs is a 3-D contraction of
//!   `C_ab` with, per direction `d`, the 1-D table `v²`, `v·g` or `g²`
//!   (`v` = shape values, `g` = shape derivatives at the quadrature points;
//!   `g²` when `a = b = d`, `v·g` when exactly one of `a, b` is `d`). Three
//!   sweeps per pair: O(n⁴) per cell batch instead of `n³` kernel
//!   applications.
//! * face side: `A_ii += Σ_q c_val(q) φ_i(q)² + Σ_e c_e(q) φ_i(q) ∂_eφ_i(q)`
//!   with the side's trace `φ_i = a_{i_d} P_{i_t1} P_{i_t2}` (`a` = basis
//!   value at the face end, `P` = tangential values on the — possibly
//!   half-interval — face points). Two 2-D contractions (`Σ c_val P²P² +
//!   c_t1 PP'P² + c_t2 P²PP'` and `Σ c_n P²P²`) expanded with `a²` and
//!   `a·a'` along the normal: O(n³) per face batch.
//!
//! The 1-D tables are built from the same matrices the evaluation kernels
//! use (collocation derivative after interpolation, the doubled
//! half-interval derivative on hanging faces, identity interpolation on
//! collocated bases), so the result is the diagonal of the operator as
//! applied, up to summation order. The contractions run in `f64` lanes
//! whatever the operator's scalar type.

use crate::evaluator::FaceSideDesc;
use crate::matrixfree::{tangential, MatrixFree};
use dgflow_mesh::FaceOrientation;
use dgflow_simd::{Real, Simd};
use dgflow_tensor::sumfac::{apply_1d, apply_1d_2d};
use dgflow_tensor::DMatrix;

/// The six `(a, b)` pairs of the merged symmetric cell coefficient, in its
/// storage order `[c00, c01, c02, c11, c12, c22]`.
const PAIRS: [(usize, usize); 6] = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];

/// Squared tangential shape tables of one face-point set: `pp[i][p] =
/// P_i(x_p)²`, `pd[i][p] = P_i(x_p) P_i'(x_p)`.
struct Tangential {
    pp: DMatrix<f64>,
    pd: DMatrix<f64>,
}

/// 1-D product tables of one matrix-free context (all `n × n_q`, rows =
/// basis function, columns = quadrature point).
pub struct DiagonalTables {
    n: usize,
    nq: usize,
    /// Cell tables: `v²`, `v·g`, `g²`.
    vv: DMatrix<f64>,
    vg: DMatrix<f64>,
    gg: DMatrix<f64>,
    /// Face tangentials: conforming, then the half intervals 0 and 1.
    tangential: [Tangential; 3],
    /// Normal direction per face end `s`: `a_i²` and `a_i a_i'`.
    end_aa: [Vec<f64>; 2],
    end_ad: [Vec<f64>; 2],
}

/// `m` (`rows × cols`, any scalar) as `f64`.
fn to_f64<T: Real>(m: &DMatrix<T>) -> DMatrix<f64> {
    DMatrix::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c).to_f64())
}

/// `a · b` in `f64`.
fn matmul(a: &DMatrix<f64>, b: &DMatrix<f64>) -> DMatrix<f64> {
    DMatrix::from_fn(a.rows(), b.cols(), |r, c| {
        (0..a.cols()).map(|k| a.get(r, k) * b.get(k, c)).sum()
    })
}

/// Transposed entry-wise product `out[i][q] = a[q][i] · b[q][i]`.
fn products(a: &DMatrix<f64>, b: &DMatrix<f64>) -> DMatrix<f64> {
    DMatrix::from_fn(a.cols(), a.rows(), |i, q| a.get(q, i) * b.get(q, i))
}

impl DiagonalTables {
    /// Tables of `mf`'s space and quadrature.
    pub fn new<T: Real, const L: usize>(mf: &MatrixFree<T, L>) -> Self {
        let n = mf.n_1d();
        let nq = mf.n_q();
        let shape = &mf.shape;
        let colloc = to_f64(&shape.colloc_gradients);
        // values at the quadrature points: the kernels skip the
        // interpolation (identity) on collocated bases
        let values = if mf.collocated() {
            DMatrix::identity(n)
        } else {
            to_f64(&shape.values)
        };
        let grads = matmul(&colloc, &values);
        let tangential_of = |m: DMatrix<f64>, scale: f64| {
            let mut d = matmul(&colloc, &m);
            for r in 0..d.rows() {
                for c in 0..d.cols() {
                    d.set(r, c, scale * d.get(r, c));
                }
            }
            Tangential {
                pp: products(&m, &m),
                pd: products(&m, &d),
            }
        };
        let end = |s: usize| -> (Vec<f64>, Vec<f64>) {
            let a = &shape.face_values[s];
            let da = &shape.face_gradients[s];
            (
                a.iter().map(|v| v.to_f64() * v.to_f64()).collect(),
                a.iter()
                    .zip(da)
                    .map(|(v, g)| v.to_f64() * g.to_f64())
                    .collect(),
            )
        };
        let (aa0, ad0) = end(0);
        let (aa1, ad1) = end(1);
        Self {
            n,
            nq,
            vv: products(&values, &values),
            vg: products(&values, &grads),
            gg: products(&grads, &grads),
            // subface-local derivatives scale by 2 back to the parent cell
            tangential: [
                tangential_of(values.clone(), 1.0),
                tangential_of(to_f64(&shape.sub_values[0]), 2.0),
                tangential_of(to_f64(&shape.sub_values[1]), 2.0),
            ],
            end_aa: [aa0, aa1],
            end_ad: [ad0, ad1],
        }
    }

    /// Cell diagonal of one batch from its merged symmetric coefficient
    /// (`6 * q + pair`, see [`crate::evaluator::laplace_cell_coeff`]):
    /// overwrites `out` (`n³`) with the per-lane local diagonal.
    pub fn cell<T: Real, const L: usize>(
        &self,
        coeff: &[Simd<T, L>],
        s: &mut DiagonalScratch<L>,
        out: &mut [Simd<f64, L>],
    ) {
        let (n, nq) = (self.n, self.nq);
        let nq3 = nq * nq * nq;
        for (k, &(a, b)) in PAIRS.iter().enumerate() {
            // off-diagonal pairs appear twice in the symmetric form
            let factor = Simd::splat(if a == b { 1.0 } else { 2.0 });
            for (c, q) in s.coeff[..nq3].iter_mut().zip(coeff.chunks_exact(6)) {
                *c = q[k].convert::<f64>() * factor;
            }
            let table = |d: usize| match (a == d, b == d) {
                (true, true) => &self.gg,
                (false, false) => &self.vv,
                _ => &self.vg,
            };
            apply_1d(
                table(2),
                &s.coeff[..nq3],
                &mut s.tmp[..nq * nq * n],
                [nq, nq, nq],
                2,
                false,
            );
            apply_1d(
                table(1),
                &s.tmp[..nq * nq * n],
                &mut s.tmp2[..nq * n * n],
                [nq, nq, n],
                1,
                false,
            );
            apply_1d(table(0), &s.tmp2[..nq * n * n], out, [nq, n, n], 0, k > 0);
        }
    }

    /// One face side's diagonal contribution, added to `out` (`n³`, this
    /// side's cell-local numbering). `c_val` and `c_grad[e]` (reference
    /// axis `e` of this side's cell) are the per-point coefficients of
    /// `φ²` and `φ ∂_eφ` in minus-frame quadrature order; the plus side's
    /// orientation maps them onto its own face frame.
    pub fn face_side<const L: usize>(
        &self,
        side: FaceSideDesc,
        c_val: &[Simd<f64, L>],
        c_grad: &[Vec<Simd<f64, L>>; 3],
        s: &mut DiagonalScratch<L>,
        out: &mut [Simd<f64, L>],
    ) {
        let (n, nq) = (self.n, self.nq);
        let nq2 = nq * nq;
        let (subface, orientation) = (side.subface, side.orientation);
        let f = side.face_no as usize;
        let (d, end) = (f / 2, f % 2);
        let (t1, t2) = tangential(d);
        let (p1, p2) = match subface {
            Some(c) => (
                &self.tangential[1 + usize::from(c & 1)],
                &self.tangential[1 + usize::from((c >> 1) & 1)],
            ),
            None => (&self.tangential[0], &self.tangential[0]),
        };
        // side-frame coefficients: [value, normal, t1, t2]
        let [cv, cn, ct1, ct2] = &mut s.face;
        let sources = [c_val, &c_grad[d][..], &c_grad[t1][..], &c_grad[t2][..]];
        for (dst, src) in [cv, cn, ct1, ct2].into_iter().zip(sources) {
            if orientation == FaceOrientation::IDENTITY {
                dst[..nq2].copy_from_slice(&src[..nq2]);
            } else {
                for q2 in 0..nq {
                    for q1 in 0..nq {
                        let (r1, r2) = orientation.map_index(q1, q2, nq, nq);
                        dst[r1 + nq * r2] = src[q1 + nq * q2];
                    }
                }
            }
        }
        let [cv, cn, ct1, ct2] = &s.face;
        let (a, b, x, y) = (&mut s.tmp, &mut s.tmp2, &mut s.x, &mut s.y);
        // X = Σ c_val P1²P2² + c_t1 P1P1' P2² + c_t2 P1² P2P2'
        apply_1d_2d(&p1.pp, &cv[..nq2], &mut a[..n * nq], [nq, nq], 0, false);
        apply_1d_2d(&p1.pd, &ct1[..nq2], &mut a[..n * nq], [nq, nq], 0, true);
        apply_1d_2d(&p1.pp, &ct2[..nq2], &mut b[..n * nq], [nq, nq], 0, false);
        apply_1d_2d(&p2.pp, &a[..n * nq], &mut x[..n * n], [n, nq], 1, false);
        apply_1d_2d(&p2.pd, &b[..n * nq], &mut x[..n * n], [n, nq], 1, true);
        // Y = Σ c_n P1² P2²
        apply_1d_2d(&p1.pp, &cn[..nq2], &mut a[..n * nq], [nq, nq], 0, false);
        apply_1d_2d(&p2.pp, &a[..n * nq], &mut y[..n * n], [n, nq], 1, false);
        // expand along the normal with a² and a·a'
        let (aa, ad) = (&self.end_aa[end], &self.end_ad[end]);
        let mut idx = [0usize; 3];
        for i2 in 0..n {
            idx[t2] = i2;
            for i1 in 0..n {
                idx[t1] = i1;
                let (xv, yv) = (x[i1 + n * i2], y[i1 + n * i2]);
                for id in 0..n {
                    idx[d] = id;
                    out[idx[0] + n * (idx[1] + n * idx[2])] +=
                        xv * Simd::splat(aa[id]) + yv * Simd::splat(ad[id]);
                }
            }
        }
    }
}

/// Per-worker buffers of the diagonal kernels.
pub struct DiagonalScratch<const L: usize> {
    coeff: Vec<Simd<f64, L>>,
    tmp: Vec<Simd<f64, L>>,
    tmp2: Vec<Simd<f64, L>>,
    face: [Vec<Simd<f64, L>>; 4],
    x: Vec<Simd<f64, L>>,
    y: Vec<Simd<f64, L>>,
}

impl<const L: usize> DiagonalScratch<L> {
    /// Buffers sized for `tables`.
    pub fn new(tables: &DiagonalTables) -> Self {
        let m = tables.n.max(tables.nq);
        let zeros = |len: usize| vec![Simd::zero(); len];
        Self {
            coeff: zeros(m * m * m),
            tmp: zeros(m * m * m),
            tmp2: zeros(m * m * m),
            face: [zeros(m * m), zeros(m * m), zeros(m * m), zeros(m * m)],
            x: zeros(m * m),
            y: zeros(m * m),
        }
    }
}

/// The Laplacian face coefficients of one side, in minus-frame order:
/// `c_val = w σ JxW` and `c_grad[e] = -w s JxW g_e` with `g = J^{-1} n` of
/// the side. Interior sides (`w = 1`, `s` = the side's jump sign) give
/// `σ φ² − s φ ∂_nφ`; a Dirichlet boundary (`w = 2`, `s = 1`) gives the
/// mirror-ghost `2σ φ² − 2 φ ∂_nφ`.
pub fn face_coefficients<T: Real, const L: usize>(
    sigma: Simd<T, L>,
    jxw: &[Simd<T, L>],
    g: &[Simd<T, L>],
    weight: f64,
    sign: f64,
    c_val: &mut [Simd<f64, L>],
    c_grad: &mut [Vec<Simd<f64, L>>; 3],
) {
    let sigma = sigma.convert::<f64>() * Simd::splat(weight);
    let gsc = Simd::splat(-weight * sign);
    for (q, w) in jxw.iter().enumerate() {
        let w = w.convert::<f64>();
        c_val[q] = sigma * w;
        for (e, c) in c_grad.iter_mut().enumerate() {
            c[q] = gsc * w * g[q * 3 + e].convert::<f64>();
        }
    }
}
