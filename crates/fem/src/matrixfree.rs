//! The matrix-free context: everything an operator kernel needs, prepared
//! once per `(mesh, degree, quadrature, scalar type)` combination.
//!
//! Holds the SIMD cell/face batches, the precomputed metric terms of
//! Eq. (7) (shared by `Arc` between contexts on one mesh, mapping,
//! quadrature and scalar type), the conflict coloring for parallel face
//! loops, and the 1-D shape data. Operators (Laplacian, mass, convection, …) are free
//! functions/structs in `operators/` that walk these batches.

use crate::batch::{CellBatch, FaceBatch};
use crate::geometry::{Mapping, MetricTerms};
use dgflow_mesh::{FaceInfo, Forest, Manifold};
use dgflow_simd::{Real, Simd};
use dgflow_tensor::{NodeSet, ShapeInfo1D};
use std::sync::Arc;

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct MfParams {
    /// Polynomial degree of the finite element space.
    pub degree: usize,
    /// 1-D quadrature points (usually `degree + 1`).
    pub n_q: usize,
    /// Node family (`Gauss` for DG spaces, `GaussLobatto` for CG levels).
    pub node_set: NodeSet,
    /// Geometry polynomial degree.
    pub mapping_degree: usize,
    /// Multiplier on the SIPG penalty `(k+1)^2 A_f/V`.
    pub penalty_factor: f64,
}

impl MfParams {
    /// Standard DG parameters for degree `k`.
    pub fn dg(degree: usize) -> Self {
        Self {
            degree,
            n_q: degree + 1,
            node_set: NodeSet::Gauss,
            mapping_degree: degree.clamp(1, 3),
            penalty_factor: 1.0,
        }
    }

    /// Standard CG parameters for degree `k`.
    pub fn cg(degree: usize) -> Self {
        Self {
            node_set: NodeSet::GaussLobatto,
            ..Self::dg(degree)
        }
    }
}

/// Matrix-free data for one discretization.
pub struct MatrixFree<T: Real, const L: usize> {
    /// Parameters this context was built with.
    pub params: MfParams,
    /// 1-D shape data (FE basis at quadrature).
    pub shape: ShapeInfo1D<T>,
    /// Number of active cells.
    pub n_cells: usize,
    /// Scalar DoFs per cell (`(k+1)^3`).
    pub dofs_per_cell: usize,
    /// SIMD cell batches.
    pub cell_batches: Vec<CellBatch<L>>,
    /// SIMD face batches (category-homogeneous).
    pub face_batches: Vec<FaceBatch<L>>,
    /// Conflict-free groups of face-batch indices.
    pub face_colors: Vec<Vec<usize>>,
    /// Raw face records (RHS assembly, diagnostics).
    pub faces: Vec<FaceInfo>,
    /// Metric terms of the mesh at this quadrature (cell and face
    /// geometry, cell volumes), shared with every other context on the
    /// same mapping, quadrature and scalar type.
    pub metric: Arc<MetricTerms<T, L>>,
    /// Interior-penalty coefficient per face batch and lane (includes
    /// `(k+1)^2` and the surface/volume length scale, so it belongs to the
    /// space, not to the shared geometry).
    pub face_sigma: Vec<Simd<T, L>>,
    /// The polynomial geometry (shared across precisions).
    pub mapping: Arc<Mapping>,
}

impl<T: Real, const L: usize> MatrixFree<T, L> {
    /// Build the full context from a forest and a manifold.
    pub fn new(forest: &Forest, manifold: &dyn Manifold, params: MfParams) -> Self {
        let mapping = Arc::new(Mapping::build(forest, manifold, params.mapping_degree));
        Self::with_mapping(forest, mapping, params)
    }

    /// Build reusing an existing geometry sampling (e.g. the other
    /// precision of a mixed-precision pair, or another degree of the
    /// p-multigrid hierarchy with the same mapping degree).
    pub fn with_mapping(forest: &Forest, mapping: Arc<Mapping>, params: MfParams) -> Self {
        let shape: ShapeInfo1D<T> = ShapeInfo1D::new(params.degree, params.node_set, params.n_q);
        Self::with_parts(forest, mapping, shape, params)
    }

    /// Build reusing both an existing geometry sampling and precomputed
    /// 1-D shape tables — the entry point for campaign-level setup caches
    /// that memoize `(degree, node set, quadrature)` tables across many
    /// solver instances.
    ///
    /// The metric terms come from [`Mapping::metric_terms`]: a context on
    /// the same mapping with the same quadrature and scalar type that is
    /// still alive lends its set, so e.g. a DG(k) and a CG(k) level, or a
    /// velocity and a pressure space with equal `n_q`, hold one copy.
    pub fn with_parts(
        forest: &Forest,
        mapping: Arc<Mapping>,
        shape: ShapeInfo1D<T>,
        params: MfParams,
    ) -> Self {
        assert_eq!(mapping.degree, params.mapping_degree);
        assert_eq!(
            shape.degree, params.degree,
            "shape tables built for another degree"
        );
        assert_eq!(
            shape.n_q, params.n_q,
            "shape tables built for another quadrature"
        );
        assert_eq!(
            shape.node_set, params.node_set,
            "shape tables built for another node set"
        );
        let _sp = dgflow_trace::span("fem", "matrixfree.new");
        let metric = mapping.metric_terms::<T, L>(forest, params.n_q);
        // penalty: (k+1)^2 * max over sides of A_f / V, as in ExaDG
        let kp1 = (params.degree + 1) as f64;
        let face_sigma = metric
            .face_batches
            .iter()
            .zip(&metric.face_areas)
            .map(|(b, areas)| {
                let mut sigma = Simd::<T, L>::zero();
                for l in 0..b.n_filled {
                    let a = areas[l];
                    let mut s = a / metric.cell_volumes[b.minus[l] as usize];
                    if !b.category.is_boundary {
                        s = s.max(a / metric.cell_volumes[b.plus[l] as usize]);
                    }
                    sigma[l] = T::from_f64(params.penalty_factor * kp1 * kp1 * s);
                }
                sigma
            })
            .collect();
        Self {
            params,
            shape,
            n_cells: forest.n_active(),
            dofs_per_cell: (params.degree + 1).pow(3),
            cell_batches: metric.cell_batches.clone(),
            face_batches: metric.face_batches.clone(),
            face_colors: metric.face_colors.clone(),
            faces: metric.faces.clone(),
            face_sigma,
            metric,
            mapping,
        }
    }

    /// Total scalar DoFs of the (discontinuous) space.
    pub fn n_dofs(&self) -> usize {
        self.n_cells * self.dofs_per_cell
    }

    /// True when the FE nodes coincide with the quadrature points (Gauss
    /// collocation): the `values` interpolation is the identity and the
    /// mass matrix is diagonal.
    pub fn collocated(&self) -> bool {
        self.params.node_set == NodeSet::Gauss && self.params.n_q == self.params.degree + 1
    }

    /// Number of 1-D quadrature points.
    pub fn n_q(&self) -> usize {
        self.params.n_q
    }

    /// DoFs per direction.
    pub fn n_1d(&self) -> usize {
        self.params.degree + 1
    }
}

/// Tangential directions of the face with normal `d`, increasing order.
pub fn tangential(d: usize) -> (usize, usize) {
    match d {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_mesh::{CoarseMesh, TrilinearManifold};

    fn cube_mf(refine: usize, degree: usize) -> MatrixFree<f64, 4> {
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(refine);
        let manifold = TrilinearManifold::from_forest(&forest);
        MatrixFree::new(&forest, &manifold, MfParams::dg(degree))
    }

    #[test]
    fn volumes_sum_to_domain_volume() {
        let mf = cube_mf(2, 2);
        let total: f64 = mf.metric.cell_volumes.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_face_areas_sum_to_surface() {
        let mf = cube_mf(1, 3);
        let mut area = 0.0;
        for (b, g) in mf.face_batches.iter().zip(&mf.metric.face_geometry) {
            if b.category.is_boundary {
                for l in 0..b.n_filled {
                    for q in 0..mf.n_q() * mf.n_q() {
                        area += g.jxw[q][l].to_f64();
                    }
                }
            }
        }
        assert!((area - 6.0).abs() < 1e-12, "area = {area}");
    }

    #[test]
    fn normals_are_unit_and_outward_on_cube_boundary() {
        let mf = cube_mf(1, 2);
        for (b, g) in mf.face_batches.iter().zip(&mf.metric.face_geometry) {
            if !b.category.is_boundary {
                continue;
            }
            let d = (b.category.face_minus / 2) as usize;
            let s = (b.category.face_minus % 2) as usize;
            let expect = if s == 0 { -1.0 } else { 1.0 };
            for l in 0..b.n_filled {
                for q in 0..mf.n_q() * mf.n_q() {
                    let n = [
                        g.normal[q * 3][l],
                        g.normal[q * 3 + 1][l],
                        g.normal[q * 3 + 2][l],
                    ];
                    let len = (n[0] * n[0] + n[1] * n[1] + n[2] * n[2]).sqrt();
                    assert!((len - 1.0).abs() < 1e-12);
                    assert!((n[d] - expect).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn interior_face_areas_match_from_geometry() {
        // hanging faces: 4 subfaces must cover the coarse face area
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(1);
        let mut marks = vec![false; 8];
        marks[0] = true;
        forest.refine_active(&marks);
        let manifold = TrilinearManifold::from_forest(&forest);
        let mf: MatrixFree<f64, 4> = MatrixFree::new(&forest, &manifold, MfParams::dg(2));
        let mut hanging_area = 0.0;
        for (b, g) in mf.face_batches.iter().zip(&mf.metric.face_geometry) {
            if b.category.subface().is_some() {
                for l in 0..b.n_filled {
                    for q in 0..mf.n_q() * mf.n_q() {
                        hanging_area += g.jxw[q][l].to_f64();
                    }
                }
            }
        }
        // 3 coarse faces of size 0.5x0.5 fully covered by subfaces
        assert!((hanging_area - 3.0 * 0.25).abs() < 1e-12, "{hanging_area}");
    }

    #[test]
    fn sigma_scales_with_mesh_refinement() {
        let coarse = cube_mf(1, 2);
        let fine = cube_mf(2, 2);
        let s_coarse = coarse.face_sigma[0][0];
        let s_fine = fine.face_sigma[0][0];
        assert!((s_fine / s_coarse - 2.0).abs() < 1e-10);
    }

    #[test]
    fn collocation_detected() {
        let mf = cube_mf(0, 3);
        assert!(mf.collocated());
        assert_eq!(mf.n_dofs(), 64);
    }
}
