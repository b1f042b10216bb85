//! Lung geometry: morphological airway-tree growth and hex-only mesh
//! generation (the paper's Sec. 3.3 pipeline, with the substitutions
//! documented in DESIGN.md).

pub mod mesher;
pub mod morphometry;
pub mod tree;

pub use mesher::{mesh_airway_tree, LungMesh, MeshParams, Outlet, INLET_ID, OUTLET_ID0, WALL_ID};
pub use morphometry::{analyze, Morphometry};
pub use tree::{AirwayTree, Branch, TreeParams};

/// The generic single-bifurcation benchmark geometry of Figures 8/9: one
/// inlet cylinder splitting into two daughters, ≈470 coarse cells.
pub fn bifurcation_tree() -> AirwayTree {
    let mut params = TreeParams::adult(1);
    params.trachea_length = 0.081; // 13 axial layers at the default spacing
    params.major_angle = 0.5;
    params.minor_angle = 1.0;
    params.min_diameter = 0.0;
    params.seed = 1;
    let mut tree = AirwayTree::grow(params);
    // make the daughters comparable in size and length (a generic, nearly
    // symmetric bifurcation with a 60° opening like the paper's)
    for b in 1..tree.branches.len() {
        tree.branches[b].diameter = 0.8 * params.trachea_diameter;
        tree.branches[b].length = 0.060;
    }
    tree
}

/// Convenience: grow + mesh a lung of `g` generations with defaults.
pub fn lung_mesh(generations: usize) -> LungMesh {
    let tree = AirwayTree::grow(TreeParams::adult(generations));
    mesh_airway_tree(&tree, MeshParams::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_mesh::Forest;

    #[test]
    fn bifurcation_has_three_tubes_and_two_outlets() {
        let tree = bifurcation_tree();
        assert_eq!(tree.branches.len(), 3);
        let mesh = mesh_airway_tree(&tree, MeshParams::default());
        assert_eq!(mesh.outlets.len(), 2);
        // every tube contributes 12 cells per layer
        assert_eq!(mesh.n_cells() % 12, 0);
        assert!((400..=600).contains(&mesh.n_cells()), "{}", mesh.n_cells());
    }

    #[test]
    fn junctions_are_conforming() {
        // the side-tap interface must appear as interior faces: the number
        // of boundary faces must equal total faces minus interior, and each
        // minor junction hides 12 wall faces of the parent + 12 inlet faces
        let mesh = lung_mesh(2);
        let forest = Forest::new(mesh.coarse.clone());
        let faces = forest.build_faces();
        let n_boundary = faces.iter().filter(|f| f.plus.is_none()).count();
        let n_interior = faces.len() - n_boundary;
        assert!(n_interior > 0);
        // each branch tube of n_ax layers has 12*(n_ax-1) internal
        // cross-section faces at minimum; the junction faces add more
        let cells = mesh.n_cells();
        assert!(
            n_interior > cells,
            "{n_interior} interior faces for {cells} cells"
        );
        // exactly one inlet (12 faces) and 12 faces per outlet
        let inlet = faces
            .iter()
            .filter(|f| f.plus.is_none() && f.boundary_id == INLET_ID)
            .count();
        assert_eq!(inlet, 12);
        for o in &mesh.outlets {
            let n = faces
                .iter()
                .filter(|f| f.plus.is_none() && f.boundary_id == o.boundary_id)
                .count();
            assert_eq!(n, 12, "outlet {} has {n} faces", o.boundary_id);
        }
    }

    #[test]
    fn lung_mesh_counts_scale_with_generations() {
        let m3 = lung_mesh(3);
        let m5 = lung_mesh(5);
        assert!(m5.n_cells() > 2 * m3.n_cells());
        assert!(m5.outlets.len() > m3.outlets.len());
        // Table 2 ballpark: g=3 ≈ 2.0e3 cells
        assert!(
            (800..=6000).contains(&m3.n_cells()),
            "g=3 cells = {}",
            m3.n_cells()
        );
    }

    #[test]
    fn mesh_geometry_is_valid_for_fem() {
        // building the metric asserts det J > 0 in every quadrature point
        let mesh = lung_mesh(2);
        let forest = Forest::new(mesh.coarse.clone());
        let manifold = dgflow_mesh::TrilinearManifold::from_forest(&forest);
        let mf: dgflow_fem::MatrixFree<f64, 4> =
            dgflow_fem::MatrixFree::new(&forest, &manifold, dgflow_fem::MfParams::dg(2));
        assert_eq!(mf.n_cells, mesh.n_cells());
        // total volume should be within an order of magnitude of the sum of
        // cylinder volumes
        let vol: f64 = mf.metric.cell_volumes.iter().sum();
        let analytic: f64 = mesh
            .tree
            .branches
            .iter()
            .map(|b| std::f64::consts::PI * (b.diameter / 2.0).powi(2) * b.length)
            .sum();
        assert!(
            vol > 0.2 * analytic && vol < 3.0 * analytic,
            "{vol} vs {analytic}"
        );
    }

    #[test]
    fn upper_airway_refinement_marks_only_low_generations() {
        let mesh = lung_mesh(3);
        let mut forest = Forest::new(mesh.coarse.clone());
        let marks = mesh.upper_airway_marks(&forest, 1);
        assert!(marks.iter().any(|&m| m));
        assert!(marks.iter().any(|&m| !m));
        let before = forest.n_active();
        forest.refine_active(&marks);
        assert!(forest.n_active() > before);
        // hanging faces must exist at the refinement boundary
        let faces = forest.build_faces();
        assert!(faces.iter().any(|f| f.subface.is_some()));
    }
}
