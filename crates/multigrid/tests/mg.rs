//! Hybrid multigrid: transfer adjointness, hierarchy structure, and
//! mesh-independent convergence of the preconditioned Poisson solve.

use dgflow_fem::cg_space::CgSpace;
use dgflow_fem::operators::{integrate_rhs, interpolate, l2_error};
use dgflow_fem::{BoundaryCondition, LaplaceOperator, MatrixFree, MfParams};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow_multigrid::{
    solve_poisson, HybridMultigrid, LevelOp, MgParams, MixedPrecisionMg, Transfer,
};
use dgflow_solvers::{cg_solve, LinearOperator, Preconditioner};
use std::sync::Arc;

const L: usize = 4;

fn cube_forest(refine: usize) -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(refine);
    f
}

fn hanging_forest() -> Forest {
    let mut f = Forest::new(CoarseMesh::subdivided_box([2, 1, 1], [2.0, 1.0, 1.0]));
    f.refine_global(1);
    let mut marks = vec![false; f.n_active()];
    marks[2] = true;
    marks[9] = true;
    f.refine_active(&marks);
    f
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn check_adjoint(t: &Transfer<f64, L>, tag: &str) {
    let nf = t.n_fine();
    let nc = t.n_coarse();
    let xc: Vec<f64> = (0..nc)
        .map(|i| ((i * 31 % 17) as f64) / 17.0 - 0.4)
        .collect();
    let yf: Vec<f64> = (0..nf)
        .map(|i| ((i * 7 % 23) as f64) / 23.0 - 0.6)
        .collect();
    let mut pxc = vec![0.0; nf];
    t.prolongate_add(&xc, &mut pxc);
    let mut ryf = vec![0.0; nc];
    t.restrict(&yf, &mut ryf);
    let lhs = dot(&pxc, &yf);
    let rhs = dot(&xc, &ryf);
    assert!(
        (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0),
        "{tag}: <Px,y> = {lhs} vs <x,Ry> = {rhs}"
    );
}

#[test]
fn transfers_are_adjoint_pairs() {
    let forest = hanging_forest();
    let manifold = TrilinearManifold::from_forest(&forest);
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        &forest,
        &manifold,
        MfParams::dg(2),
    ));
    let cg2 = Arc::new(CgSpace::<f64, L>::new(&forest, &manifold, 2));
    let cg1 = Arc::new(CgSpace::<f64, L>::new(&forest, &manifold, 1));
    check_adjoint(&Transfer::dg_to_cg(mf, cg2.clone()), "dg→cg");
    check_adjoint(&Transfer::p_transfer(cg2, cg1.clone()), "p");
    let coarse_forest = forest.coarsen_global().unwrap();
    let cg1c = Arc::new(CgSpace::<f64, L>::new(&coarse_forest, &manifold, 1));
    check_adjoint(
        &Transfer::h_transfer(cg1, &forest, cg1c, &coarse_forest),
        "h",
    );
}

#[test]
fn prolongation_preserves_linear_functions() {
    // a linear function on the coarse space must prolongate to its
    // interpolation on the fine space (DG): checks weights + constraints
    let forest = hanging_forest();
    let manifold = TrilinearManifold::from_forest(&forest);
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        &forest,
        &manifold,
        MfParams::dg(2),
    ));
    let cg = Arc::new(CgSpace::<f64, L>::new(&forest, &manifold, 2));
    let t = Transfer::dg_to_cg(mf.clone(), cg.clone());
    let f = |x: [f64; 3]| 1.0 + x[0] - 2.0 * x[1] + 0.5 * x[2];
    let coarse = cg.interpolate(&f);
    let mut fine = vec![0.0; mf.n_dofs()];
    t.prolongate_add(&coarse, &mut fine);
    let expect = interpolate(&mf, &f);
    for i in 0..fine.len() {
        assert!(
            (fine[i] - expect[i]).abs() < 1e-11,
            "dof {i}: {} vs {}",
            fine[i],
            expect[i]
        );
    }
}

#[test]
fn hierarchy_levels_shrink_towards_amg() {
    let forest = cube_forest(2);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mg = HybridMultigrid::<f32, L>::build(
        &forest,
        &manifold,
        2,
        vec![BoundaryCondition::Dirichlet],
        MgParams::default(),
    );
    let sizes = mg.level_sizes();
    assert!(sizes.len() >= 4, "{sizes:?}");
    assert!(sizes[0].0.starts_with("DG"));
    for w in sizes.windows(2) {
        assert!(w[1].1 <= w[0].1, "levels must not grow: {sizes:?}");
    }
    // coarsest matrix-free level matches the assembled AMG system
    assert_eq!(mg.coarse_matrix.n_rows(), sizes.last().unwrap().1);
}

fn mg_iterations(forest: &Forest, degree: usize) -> (usize, f64) {
    use std::f64::consts::PI;
    let manifold = TrilinearManifold::from_forest(forest);
    let exact = |x: [f64; 3]| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin();
    let f = move |x: [f64; 3]| 3.0 * PI * PI * exact(x);
    let mut u = Vec::new();
    let stats = solve_poisson::<L>(
        forest,
        &manifold,
        degree,
        vec![BoundaryCondition::Dirichlet],
        &f,
        &exact,
        1e-10,
        &mut u,
    );
    assert!(stats.converged, "{stats:?}");
    // verify the solution is actually right, not just converged
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        forest,
        &manifold,
        MfParams::dg(degree),
    ));
    let err = l2_error(&mf, &u, &exact);
    (stats.iterations, err)
}

#[test]
fn mg_preconditioned_cg_converges_mesh_independently() {
    let (it1, e1) = mg_iterations(&cube_forest(1), 2);
    let (it2, e2) = mg_iterations(&cube_forest(2), 2);
    assert!(it1 <= 25, "coarse: {it1} iterations");
    assert!(it2 <= it1 + 5, "iteration growth {it1} → {it2}");
    // and the discretization error shrinks at the expected rate
    let rate = (e1 / e2).log2();
    assert!(rate > 2.5, "rate {rate}");
}

#[test]
fn mg_handles_hanging_nodes() {
    let (it, _) = mg_iterations(&hanging_forest(), 2);
    assert!(it <= 30, "{it} iterations on adaptive mesh");
}

#[test]
fn mixed_precision_does_not_degrade_convergence() {
    // paper: SP V-cycle does not significantly affect convergence
    let forest = cube_forest(2);
    let manifold = TrilinearManifold::from_forest(&forest);
    let bc = vec![BoundaryCondition::Dirichlet];
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        &forest,
        &manifold,
        MfParams::dg(2),
    ));
    let op = LaplaceOperator::with_bc(mf.clone(), bc.clone());
    let rhs = integrate_rhs(&mf, &|x| x[0] * x[1] + 1.0);

    let mg32 = MixedPrecisionMg::<L> {
        mg: HybridMultigrid::<f32, L>::build(
            &forest,
            &manifold,
            2,
            bc.clone(),
            MgParams::default(),
        ),
    };
    let mg64 =
        HybridMultigrid::<f64, L>::build(&forest, &manifold, 2, bc.clone(), MgParams::default());

    let mut x32 = vec![0.0; mf.n_dofs()];
    let r32 = cg_solve(&op, &mg32, &rhs, &mut x32, 1e-10, 100);
    let mut x64 = vec![0.0; mf.n_dofs()];
    let r64 = cg_solve(&op, &mg64, &rhs, &mut x64, 1e-10, 100);
    assert!(r32.converged && r64.converged);
    assert!(
        r32.iterations <= r64.iterations + 3,
        "SP {} vs DP {}",
        r32.iterations,
        r64.iterations
    );
}

#[test]
fn vcycle_alone_contracts_the_error() {
    let forest = cube_forest(1);
    let manifold = TrilinearManifold::from_forest(&forest);
    let bc = vec![BoundaryCondition::Dirichlet];
    let mg =
        HybridMultigrid::<f64, L>::build(&forest, &manifold, 2, bc.clone(), MgParams::default());
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        &forest,
        &manifold,
        MfParams::dg(2),
    ));
    let op = LaplaceOperator::with_bc(mf.clone(), bc);
    let n = mf.n_dofs();
    let x_true: Vec<f64> = (0..n).map(|i| ((i * 131 % 47) as f64) / 47.0).collect();
    let mut b = vec![0.0; n];
    op.apply(&x_true, &mut b);
    // one V-cycle from x=0
    let mut x = vec![0.0; n];
    mg.apply_precond(&b, &mut x);
    let e0: f64 = x_true.iter().map(|v| v * v).sum::<f64>().sqrt();
    let e1: f64 = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    assert!(e1 < 0.5 * e0, "V-cycle contraction only {}", e1 / e0);
}

#[test]
fn w_cycle_converges_at_least_as_fast_as_v_cycle() {
    use dgflow_multigrid::CycleType;
    let forest = cube_forest(2);
    let manifold = TrilinearManifold::from_forest(&forest);
    let bc = vec![BoundaryCondition::Dirichlet];
    let mf = Arc::new(MatrixFree::<f64, L>::new(
        &forest,
        &manifold,
        MfParams::dg(2),
    ));
    let op = LaplaceOperator::with_bc(mf.clone(), bc.clone());
    let rhs = integrate_rhs(&mf, &|x| (7.0 * x[0]).sin() * x[2]);
    let run = |cycle: CycleType| -> usize {
        let mg = HybridMultigrid::<f64, L>::build(
            &forest,
            &manifold,
            2,
            bc.clone(),
            MgParams {
                cycle,
                ..MgParams::default()
            },
        );
        let mut x = vec![0.0; mf.n_dofs()];
        let r = cg_solve(&op, &mg, &rhs, &mut x, 1e-10, 100);
        assert!(r.converged);
        r.iterations
    };
    let v = run(CycleType::V);
    let w = run(CycleType::W);
    assert!(w <= v, "W-cycle ({w}) worse than V-cycle ({v})");
}

#[test]
fn dg_and_cg_levels_share_fine_geometry() {
    let forest = hanging_forest();
    let manifold = TrilinearManifold::from_forest(&forest);
    let mg =
        HybridMultigrid::<f32, L>::build(&forest, &manifold, 3, Vec::new(), MgParams::default());
    let (LevelOp::Dg(dg), LevelOp::Cg(cg)) = (&mg.levels[0].op, &mg.levels[1].op) else {
        panic!("hierarchy starts DG(k) → CG(k)");
    };
    assert!(Arc::ptr_eq(&dg.mf.metric, &cg.space.mf.metric));
    // ...and the shared set reads like a private one
    let private = LaplaceOperator::<f32, L>::new(Arc::new(MatrixFree::new(
        &forest,
        &manifold,
        MfParams::dg(3),
    )));
    let src: Vec<f32> = (0..dg.len())
        .map(|i| ((i % 13) as f32) * 0.1 - 0.5)
        .collect();
    let (mut a, mut b) = (vec![0.0; src.len()], vec![0.0; src.len()]);
    dg.apply(&src, &mut a);
    private.apply(&src, &mut b);
    assert_eq!(a, b);
}
