//! High-order polynomial geometry representation and precomputed metric
//! terms (the `D_e`, `D_f` data of Eq. (7)).
//!
//! Following Heltai et al. (and Sec. 3.3), the exact [`Manifold`] geometry
//! is sampled once at `(m+1)^3` support points per active cell; Jacobians
//! at quadrature points are then evaluated from that polynomial interpolant
//! and stored in SIMD-batch (struct-of-array) layout, which is the data the
//! operator kernels stream from memory at run time.
//!
//! The metric terms depend only on the mesh, the mapping, the quadrature
//! and the storage type — not on the finite element space — so they live
//! in a [`MetricTerms`] set that the [`Mapping`] hands out by `Arc`: every
//! context built on one mapping with the same quadrature and scalar type
//! shares one set (see [`Mapping::metric_terms`]).

use crate::batch::{batch_faces, color_face_batches, CellBatch, FaceBatch};
use crate::matrixfree::tangential;
use dgflow_mesh::{FaceInfo, Forest, Manifold};
use dgflow_simd::{Real, Simd};
use dgflow_tensor::{gauss_rule, LagrangeBasis1D, NodeSet};
use std::any::{Any, TypeId};
use std::sync::{Arc, Mutex, Weak};

/// A cached metric-term set: quadrature size, concrete type, weak handle.
type MetricEntry = (usize, TypeId, Weak<dyn Any + Send + Sync>);

/// Polynomial mapping: support points of every active cell.
pub struct Mapping {
    /// Mapping polynomial degree `m`.
    pub degree: usize,
    /// GLL support points per direction (`m+1`).
    pub n1: usize,
    /// `n_cells * (m+1)^3` physical positions, cell-major, lexicographic.
    pub points: Vec<[f64; 3]>,
    basis: LagrangeBasis1D,
    /// Metric terms computed from this mapping, held weakly: a set lives
    /// as long as one context uses it.
    metric_cache: Mutex<Vec<MetricEntry>>,
}

impl Mapping {
    /// Sample `manifold` at the mapping support points of every active cell.
    pub fn build(forest: &Forest, manifold: &dyn Manifold, degree: usize) -> Self {
        assert!(degree >= 1);
        let nodes = NodeSet::GaussLobatto.nodes(degree);
        let n1 = degree + 1;
        let ppc = n1 * n1 * n1;
        let n_cells = forest.n_active();
        let mut points = vec![[0.0; 3]; n_cells * ppc];
        let cells: Vec<_> = forest.active_cells().collect();
        let out = crate::util::SharedMut::new(&mut points);
        dgflow_comm::parallel_for_chunks(n_cells, 8, |range| {
            for c in range {
                let cell = cells[c];
                let (lo, h) = cell.ref_bounds();
                for i2 in 0..n1 {
                    for i1 in 0..n1 {
                        for i0 in 0..n1 {
                            let xi = [
                                lo[0] + h * nodes[i0],
                                lo[1] + h * nodes[i1],
                                lo[2] + h * nodes[i2],
                            ];
                            let p = manifold.position(cell.tree as usize, xi);
                            let idx = c * ppc + i0 + n1 * (i1 + n1 * i2);
                            // SAFETY: chunks write disjoint cell blocks
                            unsafe { out.write(idx, p) };
                        }
                    }
                }
            }
        });
        Self {
            degree,
            n1,
            points,
            basis: LagrangeBasis1D::new(nodes),
            metric_cache: Mutex::new(Vec::new()),
        }
    }

    /// The metric terms of `forest` (the mesh this mapping was sampled on)
    /// at `n_q` Gauss points per direction, stored as `T` in `L`-lane
    /// batches. A set still held by another context with the same
    /// quadrature and storage type is returned as is; otherwise a new set
    /// is computed and remembered until its last user drops it.
    pub fn metric_terms<T: Real, const L: usize>(
        &self,
        forest: &Forest,
        n_q: usize,
    ) -> Arc<MetricTerms<T, L>> {
        assert_eq!(
            forest.n_active() * self.points_per_cell(),
            self.points.len(),
            "mapping sampled on another mesh"
        );
        let key = TypeId::of::<MetricTerms<T, L>>();
        let mut cache = self
            .metric_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        cache.retain(|(_, _, set)| set.strong_count() > 0);
        let live = cache
            .iter()
            .filter(|(nq, ty, _)| *nq == n_q && *ty == key)
            .find_map(|(_, _, set)| set.upgrade());
        if let Some(Ok(terms)) = live.map(|set| set.downcast::<MetricTerms<T, L>>()) {
            return terms;
        }
        let terms = Arc::new(MetricTerms::build(forest, self, n_q));
        let erased: Arc<dyn Any + Send + Sync> = terms.clone();
        cache.push((n_q, key, Arc::downgrade(&erased)));
        terms
    }

    /// Support points per cell.
    pub fn points_per_cell(&self) -> usize {
        self.n1 * self.n1 * self.n1
    }

    /// Physical position at reference point `xi` of `cell` (polynomial
    /// interpolant — agrees with the manifold at the support points).
    pub fn position(&self, cell: usize, xi: [f64; 3]) -> [f64; 3] {
        let n1 = self.n1;
        let v0 = self.basis.values_at(xi[0]);
        let v1 = self.basis.values_at(xi[1]);
        let v2 = self.basis.values_at(xi[2]);
        let base = cell * self.points_per_cell();
        let mut p = [0.0; 3];
        for i2 in 0..n1 {
            for i1 in 0..n1 {
                let w12 = v1[i1] * v2[i2];
                for i0 in 0..n1 {
                    let w = v0[i0] * w12;
                    let pt = self.points[base + i0 + n1 * (i1 + n1 * i2)];
                    for d in 0..3 {
                        p[d] += w * pt[d];
                    }
                }
            }
        }
        p
    }

    /// 1-D mapping basis values at `x` (for precomputed evaluation tables).
    pub fn basis_values(&self, x: f64) -> Vec<f64> {
        self.basis.values_at(x)
    }

    /// 1-D mapping basis derivatives at `x`.
    pub fn basis_derivatives(&self, x: f64) -> Vec<f64> {
        self.basis.derivatives_at(x)
    }

    /// Jacobian `J[d][e] = ∂X_d/∂ξ_e` at reference point `xi` of `cell`.
    pub fn jacobian(&self, cell: usize, xi: [f64; 3]) -> [[f64; 3]; 3] {
        let n1 = self.n1;
        let v = [
            self.basis.values_at(xi[0]),
            self.basis.values_at(xi[1]),
            self.basis.values_at(xi[2]),
        ];
        let g = [
            self.basis.derivatives_at(xi[0]),
            self.basis.derivatives_at(xi[1]),
            self.basis.derivatives_at(xi[2]),
        ];
        let base = cell * self.points_per_cell();
        let mut jac = [[0.0; 3]; 3];
        for i2 in 0..n1 {
            for i1 in 0..n1 {
                for i0 in 0..n1 {
                    let pt = self.points[base + i0 + n1 * (i1 + n1 * i2)];
                    let idx = [i0, i1, i2];
                    for e in 0..3 {
                        let mut w = 1.0;
                        for d in 0..3 {
                            w *= if d == e { g[d][idx[d]] } else { v[d][idx[d]] };
                        }
                        for d in 0..3 {
                            jac[d][e] += w * pt[d];
                        }
                    }
                }
            }
        }
        jac
    }
}

/// Invert a 3×3 matrix; returns (inverse, determinant).
pub fn invert3(j: [[f64; 3]; 3]) -> ([[f64; 3]; 3], f64) {
    let c = [
        [
            j[1][1] * j[2][2] - j[1][2] * j[2][1],
            j[0][2] * j[2][1] - j[0][1] * j[2][2],
            j[0][1] * j[1][2] - j[0][2] * j[1][1],
        ],
        [
            j[1][2] * j[2][0] - j[1][0] * j[2][2],
            j[0][0] * j[2][2] - j[0][2] * j[2][0],
            j[0][2] * j[1][0] - j[0][0] * j[1][2],
        ],
        [
            j[1][0] * j[2][1] - j[1][1] * j[2][0],
            j[0][1] * j[2][0] - j[0][0] * j[2][1],
            j[0][0] * j[1][1] - j[0][1] * j[1][0],
        ],
    ];
    let det = j[0][0] * c[0][0] + j[0][1] * c[1][0] + j[0][2] * c[2][0];
    let inv_det = 1.0 / det;
    let mut inv = [[0.0; 3]; 3];
    for r in 0..3 {
        for col in 0..3 {
            inv[r][col] = c[r][col] * inv_det;
        }
    }
    (inv, det)
}

/// Per-cell-batch metric data at the `n_q^3` quadrature points.
pub struct CellGeometry<T: Real, const L: usize> {
    /// `(J^{-T})` entries: layout `q*9 + 3*r + c`.
    pub jinvt: Vec<Simd<T, L>>,
    /// `det(J) * w_q` per quadrature point.
    pub jxw: Vec<Simd<T, L>>,
    /// Physical quadrature-point positions: `q*3 + d` (used only by
    /// right-hand-side assembly and error norms, never streamed by the
    /// operator kernels).
    pub positions: Vec<Simd<T, L>>,
}

/// Per-face-batch metric data at the `n_q^2` face quadrature points
/// (minus-frame ordering, restricted to the subface for hanging faces).
pub struct FaceGeometry<T: Real, const L: usize> {
    /// `J_minus^{-1} n` per point (3 entries each): `q*3 + d`.
    pub g_minus: Vec<Simd<T, L>>,
    /// `J_plus^{-1} n` per point; empty for boundary faces.
    pub g_plus: Vec<Simd<T, L>>,
    /// Physical unit normal (minus → plus): `q*3 + d`.
    pub normal: Vec<Simd<T, L>>,
    /// Area element × quadrature weight per point.
    pub jxw: Vec<Simd<T, L>>,
    /// Physical quadrature-point positions: `q*3 + d` (boundary-condition
    /// evaluation).
    pub positions: Vec<Simd<T, L>>,
}

/// Values and derivatives of the 1-D mapping basis at one coordinate.
type BasisAt = (Vec<f64>, Vec<f64>);

/// The metric terms of one `(mesh, mapping, quadrature, scalar type)`
/// combination, together with the cell and face batch layout they are
/// stored in. Built once per combination by [`Mapping::metric_terms`] and
/// shared by every [`crate::MatrixFree`] context on it.
pub struct MetricTerms<T: Real, const L: usize> {
    /// SIMD cell batches.
    pub cell_batches: Vec<CellBatch<L>>,
    /// Raw face records.
    pub faces: Vec<FaceInfo>,
    /// SIMD face batches (category-homogeneous).
    pub face_batches: Vec<FaceBatch<L>>,
    /// Conflict-free groups of face-batch indices.
    pub face_colors: Vec<Vec<usize>>,
    /// Metric terms per cell batch.
    pub cell_geometry: Vec<CellGeometry<T, L>>,
    /// Metric terms per face batch.
    pub face_geometry: Vec<FaceGeometry<T, L>>,
    /// Cell volumes (f64, for penalties and diagnostics).
    pub cell_volumes: Vec<f64>,
    /// Face areas per face batch and lane (f64, for penalties).
    pub face_areas: Vec<[f64; L]>,
}

impl<T: Real, const L: usize> MetricTerms<T, L> {
    /// Evaluate every metric term of `forest` through `mapping` at the
    /// `n_q`-point Gauss rule.
    ///
    /// All mapping-basis evaluations happen up front, in 1-D tables: one
    /// per quadrature point for the volume points and the conforming face
    /// tangentials, one per point and half-interval for hanging subfaces,
    /// and one per face side for the normal direction. Each cell and face
    /// point then contracts the support points of a whole batch with table
    /// rows (see `LaneScratch`), doing per lane the arithmetic of the
    /// pointwise [`Mapping::jacobian`] / [`Mapping::position`] on the same
    /// coordinates — the results are bit-for-bit those of the pointwise
    /// evaluation.
    pub fn build(forest: &Forest, mapping: &Mapping, n_q: usize) -> Self {
        let n_cells = forest.n_active();
        let cell_batches = CellBatch::<L>::batch_all(n_cells);
        let faces = forest.build_faces();
        let face_batches = batch_faces::<L>(&faces);
        let face_colors = color_face_batches(&face_batches, n_cells);

        let quad = gauss_rule(n_q);
        let quad_pts = &quad.points;
        let quad_w = &quad.weights;
        let table = |x: f64| -> BasisAt { (mapping.basis_values(x), mapping.basis_derivatives(x)) };
        // volume points (also the conforming face tangentials)
        let vol: Vec<BasisAt> = quad_pts.iter().map(|&x| table(x)).collect();
        // hanging-subface tangentials: the half interval [c/2, (c+1)/2]
        let sub: [Vec<BasisAt>; 2] =
            [0.0, 1.0].map(|c: f64| quad_pts.iter().map(|&x| table(0.5 * (x + c))).collect());
        // normal direction: the face side's end of the interval
        let end: [BasisAt; 2] = [table(0.0), table(1.0)];

        // --- cell geometry -------------------------------------------------
        let nq3 = n_q * n_q * n_q;
        let mut lanes = LaneScratch::<L>::new(mapping);
        let mut cell_geometry: Vec<CellGeometry<T, L>> = Vec::with_capacity(cell_batches.len());
        let mut cell_volumes = vec![0.0; n_cells];
        for b in &cell_batches {
            let mut jinvt = vec![Simd::<T, L>::zero(); nq3 * 9];
            let mut jxw = vec![Simd::<T, L>::zero(); nq3];
            let mut positions = vec![Simd::<T, L>::zero(); nq3 * 3];
            lanes.load(mapping, &b.cells, b.n_filled);
            for q2 in 0..n_q {
                for q1 in 0..n_q {
                    for q0 in 0..n_q {
                        let q = q0 + n_q * (q1 + n_q * q2);
                        let at = [&vol[q0], &vol[q1], &vol[q2]];
                        let (jac, pos) = lanes.evaluate(at, true);
                        let w = quad_w[q0] * quad_w[q1] * quad_w[q2];
                        for l in 0..b.n_filled {
                            let cell = b.cells[l] as usize;
                            let (inv, det) = invert3(jac.map(|r| r.map(|e| e[l])));
                            assert!(det > 0.0, "inverted element at cell {cell}");
                            for r in 0..3 {
                                for c in 0..3 {
                                    // (J^{-T})_{rc} = (J^{-1})_{cr}
                                    jinvt[q * 9 + 3 * r + c][l] = T::from_f64(inv[c][r]);
                                }
                            }
                            jxw[q][l] = T::from_f64(det * w);
                            cell_volumes[cell] += det * w;
                            for d in 0..3 {
                                positions[q * 3 + d][l] = T::from_f64(pos[d][l]);
                            }
                        }
                    }
                }
            }
            cell_geometry.push(CellGeometry {
                jinvt,
                jxw,
                positions,
            });
        }

        // --- face geometry -------------------------------------------------
        let nq2 = n_q * n_q;
        let mut plus_lanes = LaneScratch::<L>::new(mapping);
        let mut face_geometry: Vec<FaceGeometry<T, L>> = Vec::with_capacity(face_batches.len());
        let mut face_areas: Vec<[f64; L]> = Vec::with_capacity(face_batches.len());
        for b in &face_batches {
            let cat = b.category;
            let dm = (cat.face_minus / 2) as usize;
            let sm = (cat.face_minus % 2) as usize;
            let (t1m, t2m) = tangential(dm);
            let sub_scale = if cat.subface().is_some() { 0.5 } else { 1.0 };
            // minus-side tangential tables (subface-restricted on hanging
            // faces: quadrant c = c1 + 2 c2)
            let (tab1, tab2) = match cat.subface() {
                Some(c) => (&sub[usize::from(c & 1)], &sub[usize::from((c >> 1) & 1)]),
                None => (&vol, &vol),
            };
            let orient = cat.orient();
            let dp = (cat.face_plus / 2) as usize;
            let sp = (cat.face_plus % 2) as usize;
            let (t1p, t2p) = tangential(dp);

            let mut g_minus = vec![Simd::<T, L>::zero(); nq2 * 3];
            let mut g_plus = if cat.is_boundary {
                Vec::new()
            } else {
                vec![Simd::<T, L>::zero(); nq2 * 3]
            };
            let mut normal = vec![Simd::<T, L>::zero(); nq2 * 3];
            let mut jxw = vec![Simd::<T, L>::zero(); nq2];
            let mut positions = vec![Simd::<T, L>::zero(); nq2 * 3];
            let mut areas = [0.0; L];

            lanes.load(mapping, &b.minus, b.n_filled);
            if !cat.is_boundary {
                plus_lanes.load(mapping, &b.plus, b.n_filled);
            }
            for q2 in 0..n_q {
                for q1 in 0..n_q {
                    let q = q1 + n_q * q2;
                    let mut at: [&BasisAt; 3] = [&end[sm]; 3];
                    at[t1m] = &tab1[q1];
                    at[t2m] = &tab2[q2];
                    let (jac, pos) = lanes.evaluate(at, true);
                    // plus ref coords via the index permutation on the
                    // symmetric quadrature grid
                    let jac_plus = (!cat.is_boundary).then(|| {
                        let (p1, p2) = orient.map_index(q1, q2, n_q, n_q);
                        let mut ap: [&BasisAt; 3] = [&end[sp]; 3];
                        ap[t1p] = &vol[p1];
                        ap[t2p] = &vol[p2];
                        plus_lanes.evaluate(ap, false).0
                    });
                    for l in 0..b.n_filled {
                        let (inv, det) = invert3(jac.map(|r| r.map(|e| e[l])));
                        // cofactor direction: det * J^{-T} e_d = det * row d
                        // of J^{-1}
                        let mut cof = [0.0; 3];
                        for i in 0..3 {
                            cof[i] = det * inv[dm][i];
                        }
                        let norm = (cof[0] * cof[0] + cof[1] * cof[1] + cof[2] * cof[2]).sqrt();
                        let sign = if sm == 0 { -1.0 } else { 1.0 };
                        let n_vec = [
                            sign * cof[0] / norm,
                            sign * cof[1] / norm,
                            sign * cof[2] / norm,
                        ];
                        let da = norm * sub_scale * sub_scale;
                        let w = quad_w[q1] * quad_w[q2];
                        jxw[q][l] = T::from_f64(da * w);
                        areas[l] += da * w;
                        for d in 0..3 {
                            positions[q * 3 + d][l] = T::from_f64(pos[d][l]);
                        }
                        for d in 0..3 {
                            normal[q * 3 + d][l] = T::from_f64(n_vec[d]);
                            // g = J^{-1} n
                            let mut g = 0.0;
                            for j in 0..3 {
                                g += inv[d][j] * n_vec[j];
                            }
                            g_minus[q * 3 + d][l] = T::from_f64(g);
                        }
                        if let Some(jac_p) = &jac_plus {
                            let (inv_p, det_p) = invert3(jac_p.map(|r| r.map(|e| e[l])));
                            assert!(det_p > 0.0);
                            for d in 0..3 {
                                let mut g = 0.0;
                                for j in 0..3 {
                                    g += inv_p[d][j] * n_vec[j];
                                }
                                g_plus[q * 3 + d][l] = T::from_f64(g);
                            }
                        }
                    }
                }
            }
            face_geometry.push(FaceGeometry {
                g_minus,
                g_plus,
                normal,
                jxw,
                positions,
            });
            face_areas.push(areas);
        }

        Self {
            cell_batches,
            faces,
            face_batches,
            face_colors,
            cell_geometry,
            face_geometry,
            cell_volumes,
            face_areas,
        }
    }
}

/// The support points of one batch's cells, lane-interleaved, and the
/// per-point weights of one evaluation: evaluates the Jacobian and the
/// position of all `L` lanes at one reference point, computing each
/// support-point weight once for the batch.
///
/// Per lane the arithmetic is exactly that of the pointwise
/// [`Mapping::jacobian`] and [`Mapping::position`] — weights `(f0·f1)·f2`
/// and `v0·(v1·v2)`, accumulated over the support points in lexicographic
/// order — so the results are bit-for-bit identical; only the basis
/// evaluation (hoisted into 1-D tables) and the loop order (lanes
/// innermost, where the accumulation vectorizes) differ.
pub(crate) struct LaneScratch<const L: usize> {
    n1: usize,
    /// `points[(i * 3 + d)][lane]`; zeros on inactive lanes.
    points: Vec<[f64; L]>,
    /// Jacobian weights `w_e(i)` at `e * ppc + i`, then position weights.
    weights: Vec<f64>,
}

impl<const L: usize> LaneScratch<L> {
    pub(crate) fn new(mapping: &Mapping) -> Self {
        let ppc = mapping.points_per_cell();
        Self {
            n1: mapping.n1,
            points: vec![[0.0; L]; ppc * 3],
            weights: vec![0.0; ppc * 4],
        }
    }

    /// Gather the support points of `cells` (first `n_filled` lanes).
    pub(crate) fn load(&mut self, mapping: &Mapping, cells: &[u32; L], n_filled: usize) {
        let ppc = mapping.points_per_cell();
        for p in self.points.iter_mut() {
            *p = [0.0; L];
        }
        for (l, &cell) in cells.iter().enumerate().take(n_filled) {
            let pts = &mapping.points[cell as usize * ppc..(cell as usize + 1) * ppc];
            for (i, pt) in pts.iter().enumerate() {
                for d in 0..3 {
                    self.points[i * 3 + d][l] = pt[d];
                }
            }
        }
    }

    /// Position `x[d]` of every lane at the point whose per-direction
    /// basis values are `v` (the arithmetic of [`Mapping::position`]).
    pub(crate) fn position(&mut self, v: [&[f64]; 3]) -> [[f64; L]; 3] {
        let n1 = self.n1;
        let [v0, v1, v2] = v.map(|v| &v[..n1]);
        let w = &mut self.weights[..n1 * n1 * n1];
        let mut i = 0;
        for i2 in 0..n1 {
            for i1 in 0..n1 {
                let w12 = v1[i1] * v2[i2];
                for &v0i in v0 {
                    w[i] = v0i * w12;
                    i += 1;
                }
            }
        }
        let mut pos = [[0.0; L]; 3];
        for (i, pt) in self.points.chunks_exact(3).enumerate() {
            for d in 0..3 {
                for l in 0..L {
                    pos[d][l] += w[i] * pt[d][l];
                }
            }
        }
        pos
    }

    /// Jacobian `J[d][e]` and (when `with_position`, else zeros) position
    /// `x[d]` of every lane at the point whose per-direction basis
    /// (values, derivatives) are `at`.
    #[allow(clippy::type_complexity)]
    fn evaluate(
        &mut self,
        at: [&BasisAt; 3],
        with_position: bool,
    ) -> ([[[f64; L]; 3]; 3], [[f64; L]; 3]) {
        let n1 = self.n1;
        let ppc = n1 * n1 * n1;
        let [(v0, g0), (v1, g1), (v2, g2)] = at.map(|(v, g)| (&v[..n1], &g[..n1]));
        let mut i = 0;
        for i2 in 0..n1 {
            for i1 in 0..n1 {
                let w12 = v1[i1] * v2[i2];
                for i0 in 0..n1 {
                    self.weights[i] = g0[i0] * v1[i1] * v2[i2];
                    self.weights[ppc + i] = v0[i0] * g1[i1] * v2[i2];
                    self.weights[2 * ppc + i] = v0[i0] * v1[i1] * g2[i2];
                    self.weights[3 * ppc + i] = v0[i0] * w12;
                    i += 1;
                }
            }
        }
        let mut jac = [[[0.0; L]; 3]; 3];
        let mut pos = [[0.0; L]; 3];
        let (w0, rest) = self.weights.split_at(ppc);
        let (w1, rest) = rest.split_at(ppc);
        let (w2, wx) = rest.split_at(ppc);
        for d in 0..3 {
            let [mut a0, mut a1, mut a2] = [[0.0; L]; 3];
            for (i, pt) in self.points.chunks_exact(3).enumerate() {
                let p = &pt[d];
                for l in 0..L {
                    a0[l] += w0[i] * p[l];
                    a1[l] += w1[i] * p[l];
                    a2[l] += w2[i] * p[l];
                }
            }
            jac[d] = [a0, a1, a2];
            if with_position {
                let mut x = [0.0; L];
                for (i, pt) in self.points.chunks_exact(3).enumerate() {
                    for l in 0..L {
                        x[l] += wx[i] * pt[d][l];
                    }
                }
                pos[d] = x;
            }
        }
        (jac, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_mesh::{CoarseMesh, TrilinearManifold};

    #[test]
    fn mapping_reproduces_affine_geometry() {
        let mut forest = Forest::new(CoarseMesh::subdivided_box([2, 1, 1], [4.0, 1.0, 2.0]));
        forest.refine_global(1);
        let manifold = TrilinearManifold::from_forest(&forest);
        let mapping = Mapping::build(&forest, &manifold, 2);
        // cell 0 is the SFC-first child of tree 0: [0,1]x[0,0.5]x[0,1] scaled
        let cell = forest.active_cell(0);
        let (lo, h) = cell.ref_bounds();
        let p = mapping.position(0, [0.5, 0.5, 0.5]);
        let expect = [
            2.0 * (lo[0] + 0.5 * h), // tree 0 spans [0,2] in x
            lo[1] + 0.5 * h,
            2.0 * (lo[2] + 0.5 * h),
        ];
        for d in 0..3 {
            assert!((p[d] - expect[d]).abs() < 1e-13, "{p:?} vs {expect:?}");
        }
        let j = mapping.jacobian(0, [0.3, 0.6, 0.2]);
        // affine: J = diag(2h, h, 2h)
        for d in 0..3 {
            for e in 0..3 {
                let expect = if d == e {
                    [2.0 * h, h, 2.0 * h][d]
                } else {
                    0.0
                };
                assert!((j[d][e] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn invert3_roundtrip() {
        let j = [[2.0, 0.3, 0.1], [0.0, 1.5, 0.2], [0.4, 0.0, 3.0]];
        let (inv, det) = invert3(j);
        assert!(det > 0.0);
        for r in 0..3 {
            for c in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += j[r][k] * inv[k][c];
                }
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-12);
            }
        }
    }

    struct Paraboloid;
    impl Manifold for Paraboloid {
        fn position(&self, _tree: usize, xi: [f64; 3]) -> [f64; 3] {
            [xi[0], xi[1], xi[2] + 0.25 * xi[0] * xi[0]]
        }
    }

    #[test]
    fn curved_mapping_jacobian_matches_analytic() {
        let forest = Forest::new(CoarseMesh::hyper_cube());
        let mapping = Mapping::build(&forest, &Paraboloid, 3);
        let xi = [0.37, 0.81, 0.22];
        let j = mapping.jacobian(0, xi);
        // analytic: dz/dx = 0.5 x (degree-2 exactly representable at m=3)
        assert!((j[2][0] - 0.5 * xi[0]).abs() < 1e-12);
        assert!((j[0][0] - 1.0).abs() < 1e-12);
        assert!((j[1][1] - 1.0).abs() < 1e-12);
        assert!((j[2][2] - 1.0).abs() < 1e-12);
    }
}
