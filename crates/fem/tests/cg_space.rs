//! Continuous-space correctness: dof identification, hanging constraints,
//! Nitsche Laplacian exactness and convergence.

use dgflow_fem::cg_space::{CgLaplaceOperator, CgSpace};
use dgflow_fem::BoundaryCondition;
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow_solvers::{cg_solve, JacobiPreconditioner, LinearOperator};
use std::sync::Arc;

type Space = Arc<CgSpace<f64, 4>>;

fn build(forest: &Forest, degree: usize) -> Space {
    let manifold = TrilinearManifold::from_forest(forest);
    Arc::new(CgSpace::new(forest, &manifold, degree))
}

fn cube_forest(refine: usize) -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(refine);
    f
}

fn hanging_forest() -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(1);
    let mut marks = vec![false; 8];
    marks[0] = true;
    f.refine_active(&marks);
    f
}

#[test]
fn dof_counts_on_uniform_grids() {
    for (refine, degree) in [(1usize, 1usize), (1, 2), (2, 1), (2, 3)] {
        let space = build(&cube_forest(refine), degree);
        let n1 = (1 << refine) * degree + 1;
        assert_eq!(space.n_dofs, n1 * n1 * n1, "r={refine}, k={degree}");
        assert!(space.constrained.iter().all(|&c| !c));
    }
}

#[test]
fn hanging_mesh_has_constraints() {
    let space = build(&hanging_forest(), 2);
    let n_constrained = space.constrained.iter().filter(|&&c| c).count();
    assert!(n_constrained > 0);
    // every constraint row sums to 1 (interpolation of constants)
    let dpc = space.mf.dofs_per_cell;
    for cell in 0..space.mf.n_cells {
        for i in 0..dpc {
            let lo = space.row_ptr[cell * dpc + i] as usize;
            let hi = space.row_ptr[cell * dpc + i + 1] as usize;
            let s: f64 = space.entries[lo..hi].iter().map(|&(_, w)| w).sum();
            assert!((s - 1.0).abs() < 1e-10, "row sum {s}");
        }
    }
}

#[test]
fn constrained_gather_reproduces_linear_functions() {
    let space = build(&hanging_forest(), 2);
    let f = |x: [f64; 3]| 1.0 + 2.0 * x[0] - 0.5 * x[1] + 3.0 * x[2];
    let v = space.interpolate(&f);
    let dpc = space.mf.dofs_per_cell;
    let nodes = dgflow_tensor::NodeSet::GaussLobatto.nodes(2);
    let mut local = vec![0.0; dpc];
    for cell in 0..space.mf.n_cells {
        space.gather(cell, &v, &mut local);
        for i2 in 0..3 {
            for i1 in 0..3 {
                for i0 in 0..3 {
                    let p = space
                        .mf
                        .mapping
                        .position(cell, [nodes[i0], nodes[i1], nodes[i2]]);
                    let expect = f(p);
                    let got = local[i0 + 3 * (i1 + 3 * i2)];
                    assert!(
                        (got - expect).abs() < 1e-11,
                        "cell {cell}: {got} vs {expect}"
                    );
                }
            }
        }
    }
}

#[test]
fn cg_laplace_linear_exactness() {
    for forest in [cube_forest(1), hanging_forest()] {
        let space = build(&forest, 2);
        let op = CgLaplaceOperator::new(space.clone());
        let f = |x: [f64; 3]| 0.3 * x[0] - 1.1 * x[1] + 0.7 * x[2] + 2.0;
        let u = space.interpolate(&f);
        let mut lu = vec![0.0; space.n_dofs];
        op.apply(&u, &mut lu);
        let rhs = op.boundary_rhs(&f);
        let scale = rhs.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
        for i in 0..space.n_dofs {
            if space.constrained[i] {
                continue;
            }
            assert!(
                (lu[i] - rhs[i]).abs() < 1e-11 * scale,
                "dof {i}: {} vs {}",
                lu[i],
                rhs[i]
            );
        }
    }
}

#[test]
fn cg_operator_symmetric_on_unconstrained_block() {
    let space = build(&hanging_forest(), 2);
    let op = CgLaplaceOperator::new(space.clone());
    let n = space.n_dofs;
    let mask = |v: &mut Vec<f64>| {
        for i in 0..n {
            if space.constrained[i] {
                v[i] = 0.0;
            }
        }
    };
    let mut x: Vec<f64> = (0..n).map(|i| ((i * 31 % 53) as f64) / 53.0).collect();
    let mut y: Vec<f64> = (0..n).map(|i| ((i * 17 % 41) as f64) / 41.0).collect();
    mask(&mut x);
    mask(&mut y);
    let mut lx = vec![0.0; n];
    let mut ly = vec![0.0; n];
    op.apply(&x, &mut lx);
    op.apply(&y, &mut ly);
    let a: f64 = x.iter().zip(&ly).map(|(p, q)| p * q).sum();
    let b: f64 = y.iter().zip(&lx).map(|(p, q)| p * q).sum();
    assert!((a - b).abs() < 1e-10 * a.abs().max(1.0), "{a} vs {b}");
}

fn solve_cg_poisson(forest: &Forest, degree: usize) -> f64 {
    use std::f64::consts::PI;
    let space = build(forest, degree);
    let op = CgLaplaceOperator::new(space.clone());
    let exact = |x: [f64; 3]| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin();
    // volumetric RHS via the DG-style quadrature on the GLL space needs the
    // non-collocated integration; assemble (f, φ_i) through the operator
    // identity L u_exact ≈ rhs: instead we solve with the interpolant of f
    // tested against lumped weights — sufficient for a convergence check.
    // Simpler and exact: use boundary_rhs(0) = 0 and manufacture rhs from a
    // reference fine solve is overkill; use mass-lumped quadrature:
    let f = move |x: [f64; 3]| 3.0 * PI * PI * exact(x);
    let mut rhs = vec![0.0; space.n_dofs];
    // lumped quadrature: (f, φ_i) ≈ f(x_i) * ω_i with ω from cell jxw at
    // GLL points — build via scatter of per-cell GLL weights
    let gll = dgflow_tensor::gauss_lobatto_rule(degree + 1);
    let dpc = space.mf.dofs_per_cell;
    let n1 = degree + 1;
    for (bi, b) in space.mf.cell_batches.iter().enumerate() {
        let _ = &space.mf.metric.cell_geometry[bi];
        for l in 0..b.n_filled {
            let cell = b.cells[l] as usize;
            let (_, h) = {
                // recover element size from volume (affine cube meshes)
                let v = space.mf.metric.cell_volumes[cell];
                (v, v.cbrt())
            };
            for i2 in 0..n1 {
                for i1 in 0..n1 {
                    for i0 in 0..n1 {
                        let local = i0 + n1 * (i1 + n1 * i2);
                        let lo = space.row_ptr[cell * dpc + local] as usize;
                        let hi = space.row_ptr[cell * dpc + local + 1] as usize;
                        let p = space
                            .mf
                            .mapping
                            .position(cell, [gll.points[i0], gll.points[i1], gll.points[i2]]);
                        let w = gll.weights[i0] * gll.weights[i1] * gll.weights[i2] * h * h * h;
                        for &(d, wc) in &space.entries[lo..hi] {
                            rhs[d as usize] += wc * f(p) * w;
                        }
                    }
                }
            }
        }
    }
    for i in 0..space.n_dofs {
        if space.constrained[i] {
            rhs[i] = 0.0;
        }
    }
    let pre = JacobiPreconditioner::new(op.compute_diagonal());
    let mut u = vec![0.0; space.n_dofs];
    let res = cg_solve(&op, &pre, &rhs, &mut u, 1e-10, 3000);
    assert!(res.converged);
    // nodal max error at unconstrained dofs
    let mut err: f64 = 0.0;
    for i in 0..space.n_dofs {
        if !space.constrained[i] {
            err = err.max((u[i] - exact(space.positions[i])).abs());
        }
    }
    err
}

#[test]
fn cg_poisson_converges_under_refinement() {
    let e1 = solve_cg_poisson(&cube_forest(1), 2);
    let e2 = solve_cg_poisson(&cube_forest(2), 2);
    let rate = (e1 / e2).log2();
    assert!(rate > 2.0, "rate {rate} (errors {e1:.3e} → {e2:.3e})");
}

#[test]
fn cg_poisson_on_hanging_mesh_is_accurate() {
    let e = solve_cg_poisson(&hanging_forest(), 2);
    assert!(e < 0.08, "hanging-mesh error {e}");
}

#[test]
fn assembled_matrix_matches_operator() {
    let space = build(&cube_forest(1), 1);
    let op = CgLaplaceOperator::with_bc(space.clone(), vec![BoundaryCondition::Dirichlet]);
    let a = op.assemble();
    let n = space.n_dofs;
    let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 29) as f64) / 29.0).collect();
    let mut y1 = vec![0.0; n];
    let mut y2 = vec![0.0; n];
    op.apply(&x, &mut y1);
    a.matvec(&x, &mut y2);
    for i in 0..n {
        assert!((y1[i] - y2[i]).abs() < 1e-12);
    }
}
