//! Figures 3/4: the lung mesh-generation pipeline per generation count —
//! tree growth, hex tubes, local refinement, deformation. Prints the
//! per-stage statistics the figures visualize.

use dgflow_bench::{eng, lung_forest, row};
use dgflow_lung::{AirwayTree, TreeParams};

fn main() {
    println!("# Fig. 3/4 — lung model and mesh-generation pipeline");
    println!();
    row(
        &"g|branches|terminals|coarse cells|vertices|+upper refinement|hanging faces"
            .split('|')
            .map(String::from)
            .collect::<Vec<_>>(),
    );
    row(&"--|--|--|--|--|--|--"
        .split('|')
        .map(String::from)
        .collect::<Vec<_>>());
    for g in [3usize, 5, 7, 9, 11] {
        let tree = AirwayTree::grow(TreeParams::adult(g));
        let (forest, mesh) = lung_forest(g, true, 0);
        let faces = forest.build_faces();
        let hanging = faces.iter().filter(|f| f.subface.is_some()).count();
        row(&[
            g.to_string(),
            mesh.tree.branches.len().to_string(),
            mesh.outlets.len().to_string(),
            mesh.n_cells().to_string(),
            mesh.coarse.vertices.len().to_string(),
            forest.n_active().to_string(),
            hanging.to_string(),
        ]);
        let _ = tree;
    }
    println!();
    println!("paper (Sec. 2.1): 1005 terminal airways at g = 11;");
    println!("Table 2 coarse-cell counts: 2.0e3 (g=3) … 3.5e5 (g=11).");
    // mesh quality summary on a small case
    let (forest, _) = lung_forest(3, false, 0);
    let manifold = dgflow_mesh::TrilinearManifold::from_forest(&forest);
    let mf: dgflow_fem::MatrixFree<f64, 8> =
        dgflow_fem::MatrixFree::new(&forest, &manifold, dgflow_fem::MfParams::dg(2));
    let vmin = mf
        .metric
        .cell_volumes
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let vmax = mf
        .metric
        .cell_volumes
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    println!();
    println!(
        "mesh validity g=3: all Jacobians positive; cell volumes {} .. {} m³",
        eng(vmin),
        eng(vmax)
    );
}
