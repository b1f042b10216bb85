//! Exactness and compatibility of the Navier–Stokes operators.

use dgflow_core::bc::{BcKind, FlowBcs};
use dgflow_core::field::interpolate_velocity;
use dgflow_core::operators::{boundary_flow_rate, convective_term, divergence, gradient};
use dgflow_fem::operators::{integrate_rhs, interpolate_nodal};
use dgflow_fem::{MatrixFree, MfParams};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use std::sync::Arc;

const L: usize = 4;
type Mf = Arc<MatrixFree<f64, L>>;

fn spaces(forest: &Forest, k: usize) -> (Mf, Mf) {
    let manifold = TrilinearManifold::from_forest(forest);
    let mf_u = Arc::new(MatrixFree::new(forest, &manifold, MfParams::dg(k)));
    let mf_p = Arc::new(MatrixFree::with_mapping(
        forest,
        mf_u.mapping.clone(),
        MfParams {
            degree: k - 1,
            n_q: k + 1,
            ..MfParams::dg(k)
        },
    ));
    (mf_u, mf_p)
}

fn cube(refine: usize) -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(refine);
    f
}

fn hanging() -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(1);
    let mut marks = vec![false; 8];
    marks[3] = true;
    f.refine_active(&marks);
    f
}

/// Convective term applied to the interpolant of a (continuous) linear
/// velocity must exactly reproduce the weak form of ∇·(u⊗u) — jumps vanish
/// so the LLF dissipation drops out, and all integrands are polynomial.
#[test]
fn convective_exactness_on_linear_fields() {
    let u_fn = |x: [f64; 3]| {
        [
            1.0 + 2.0 * x[0] - x[1],
            0.5 - x[0] + x[2],
            2.0 * x[1] - 0.5 * x[2],
        ]
    };
    // f_d = Σ_e ∂(u_d u_e)/∂x_e (analytic, quadratic in x)
    let grad = [[2.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 2.0, -0.5]];
    let div_u = grad[0][0] + grad[1][1] + grad[2][2];
    let f_fn = move |x: [f64; 3], d: usize| {
        let u = u_fn(x);
        let mut s = u[d] * div_u;
        for e in 0..3 {
            s += u[e] * grad[d][e];
        }
        s
    };
    for forest in [cube(1), hanging()] {
        let (mf_u, _) = spaces(&forest, 2);
        // "pressure" everywhere → u+ = u- at the boundary (consistent flux)
        let bcs = FlowBcs::new(vec![BcKind::Pressure]);
        let u = interpolate_velocity(&mf_u, &u_fn);
        let mut c = vec![0.0; u.len()];
        convective_term(&mf_u, &bcs, &u, &mut c);
        let dpc = mf_u.dofs_per_cell;
        for d in 0..3 {
            let expect = integrate_rhs(&mf_u, &move |x| f_fn(x, d));
            let scale = expect.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-10);
            for cell in 0..mf_u.n_cells {
                for i in 0..dpc {
                    let got = c[cell * 3 * dpc + d * dpc + i];
                    let want = expect[cell * dpc + i];
                    assert!(
                        (got - want).abs() < 1e-11 * scale,
                        "comp {d}, cell {cell}, node {i}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

/// Wall closure of the convective term: the mirror state `u⁺ = −u⁻` turns
/// the LLF flux into `u_d (u·n + |u·n|)`, so a uniform `u = (1,0,0)` gives
/// twice the outflow face's area at x = 1, nothing at the inflow face
/// x = 0, and nothing on the tangential faces: `1ᵀC_x = 2`,
/// `1ᵀC_y = 1ᵀC_z = 0` (cell and interior-face terms sum to zero).
#[test]
fn convective_wall_closure_doubles_outflow() {
    for forest in [cube(1), hanging()] {
        let (mf_u, _) = spaces(&forest, 2);
        let u = interpolate_velocity(&mf_u, &|_| [1.0, 0.0, 0.0]);
        let mut c = vec![0.0; u.len()];
        convective_term(&mf_u, &FlowBcs::walls(), &u, &mut c);
        let dpc = mf_u.dofs_per_cell;
        let mut total = [0.0f64; 3];
        for cell in 0..mf_u.n_cells {
            for (d, t) in total.iter_mut().enumerate() {
                let base = cell * 3 * dpc + d * dpc;
                *t += c[base..base + dpc].iter().sum::<f64>();
            }
        }
        assert!((total[0] - 2.0).abs() < 1e-12, "1ᵀC_x = {}", total[0]);
        assert!(total[1].abs() < 1e-12, "1ᵀC_y = {}", total[1]);
        assert!(total[2].abs() < 1e-12, "1ᵀC_z = {}", total[2]);
    }
}

/// Discrete Gauss theorem: `1ᵀ D(u) = ∮ u·n` when the boundary closure
/// passes the interior trace through (all-pressure boundaries).
#[test]
fn divergence_satisfies_gauss_theorem() {
    for forest in [cube(1), hanging()] {
        let (mf_u, mf_p) = spaces(&forest, 3);
        let bcs = FlowBcs::new(vec![BcKind::Pressure]);
        let u_fn = |x: [f64; 3]| [x[0] * x[1], -x[1] + x[2] * x[2], 0.3 * x[0]];
        let u = interpolate_velocity(&mf_u, &u_fn);
        let mut d = vec![0.0; mf_p.n_dofs()];
        divergence(&mf_u, &mf_p, &bcs, &u, &mut d);
        let total: f64 = d.iter().sum();
        let outflow = boundary_flow_rate(&mf_u, 0, &u);
        assert!(
            (total - outflow).abs() < 1e-11 * outflow.abs().max(1.0),
            "∫div = {total} vs ∮u·n = {outflow}"
        );
    }
}

/// Walls mirror the normal velocity, so the boundary flux of D vanishes and
/// a constant pressure mode is in the kernel of Gᵀ-pairing: for a velocity
/// with zero boundary normal trace, `⟨G p, u⟩ = −⟨p, D u⟩`.
#[test]
fn gradient_divergence_duality() {
    let forest = cube(1);
    let (mf_u, mf_p) = spaces(&forest, 3);
    let bcs = FlowBcs::walls();
    // bubble velocity: zero trace on the whole boundary
    let bubble = |x: [f64; 3]| {
        let b = x[0] * (1.0 - x[0]) * x[1] * (1.0 - x[1]) * x[2] * (1.0 - x[2]);
        [b, -2.0 * b, 0.5 * b]
    };
    let u = interpolate_velocity(&mf_u, &bubble);
    let p = interpolate_nodal(&mf_p, &|x| 1.0 + x[0] - 0.5 * x[1] * x[2]);
    let mut gp = vec![0.0; u.len()];
    gradient(&mf_u, &mf_p, &bcs, &p, &mut gp);
    let mut du = vec![0.0; p.len()];
    divergence(&mf_u, &mf_p, &bcs, &u, &mut du);
    let a: f64 = gp.iter().zip(&u).map(|(x, y)| x * y).sum();
    let b: f64 = p.iter().zip(&du).map(|(x, y)| x * y).sum();
    // the bubble's trace is only *interpolatorily* zero on the Gauss-nodal
    // trace (it is exactly zero as a polynomial), so the identity is exact
    // up to roundoff
    assert!(
        (a + b).abs() < 1e-10 * a.abs().max(1.0),
        "⟨Gp,u⟩ = {a}, ⟨p,Du⟩ = {b}"
    );
}

/// The pressure gradient of a constant field must vanish against interior
/// test functions when the same constant is prescribed at the boundary.
#[test]
fn gradient_of_constant_pressure_with_matching_bc() {
    let forest = hanging();
    let (mf_u, mf_p) = spaces(&forest, 2);
    let mut bcs = FlowBcs::new(vec![BcKind::Pressure]);
    bcs.set_pressure(0, 7.5);
    let p = vec![7.5; mf_p.n_dofs()];
    let mut gp = vec![0.0; 3 * mf_u.n_dofs()];
    gradient(&mf_u, &mf_p, &bcs, &p, &mut gp);
    let max = gp.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(max < 1e-11, "G(const) = {max}");
}

/// Flow rate of a uniform field through the cube boundary is zero (in =
/// out), and through one face equals the face area times the normal
/// component.
#[test]
fn boundary_flow_rate_measures_flux() {
    let forest = cube(1);
    let (mf_u, _) = spaces(&forest, 2);
    let u = interpolate_velocity(&mf_u, &|_| [1.0, 0.0, 0.0]);
    let q = boundary_flow_rate(&mf_u, 0, &u);
    assert!(q.abs() < 1e-12, "net flux {q}");
}

/// The Helmholtz operator of the viscous step (4): manufactured-solution
/// convergence at the full spatial rate.
#[test]
fn helmholtz_solve_converges_at_rate_k_plus_1() {
    use dgflow_core::operators::HelmholtzOperator;
    use dgflow_fem::operators::l2_error;
    use dgflow_fem::{LaplaceOperator, MassOperator};
    use dgflow_solvers::{cg_solve, JacobiPreconditioner, LinearOperator};
    use std::f64::consts::PI;
    let nu = 0.7;
    let alpha = 3.0; // γ0/Δt-like factor
    let exact = |x: [f64; 3]| (PI * x[0]).sin() * (PI * x[1]).sin() * (PI * x[2]).sin();
    let rhs_f = move |x: [f64; 3]| (alpha + nu * 3.0 * PI * PI) * exact(x);
    let solve = |refine: usize| -> f64 {
        let forest = cube(refine);
        let manifold = TrilinearManifold::from_forest(&forest);
        let mf = Arc::new(MatrixFree::<f64, L>::new(
            &forest,
            &manifold,
            MfParams::dg(2),
        ));
        let lap = LaplaceOperator::new(mf.clone());
        let weights = MassOperator::new(&mf).weights();
        let mut hh = HelmholtzOperator::new(lap, weights, nu);
        hh.set_factor(alpha);
        let rhs = integrate_rhs(&mf, &rhs_f);
        let pre = JacobiPreconditioner::new(hh.diagonal());
        let mut u = vec![0.0; mf.n_dofs()];
        let res = cg_solve(&hh, &pre, &rhs, &mut u, 1e-12, 3000);
        assert!(res.converged);
        l2_error(&mf, &u, &exact)
    };
    let e1 = solve(1);
    let e2 = solve(2);
    let rate = (e1 / e2).log2();
    assert!(rate > 2.6, "Helmholtz rate {rate} ({e1:.3e} → {e2:.3e})");
}

/// The penalty operator is SPD and reduces the divergence of a projected
/// field (eq. 5 in isolation).
#[test]
fn penalty_operator_is_spd_and_mass_dominated() {
    use dgflow_core::operators::PenaltyOperator;
    use dgflow_solvers::LinearOperator;
    let forest = hanging();
    let (mf_u, _) = spaces(&forest, 2);
    let u_scale = vec![1.0; mf_u.n_cells];
    let pen = PenaltyOperator::new(&mf_u, &u_scale, 1e-2, 1.0, 1.0);
    let n = 3 * mf_u.n_dofs();
    for seed in 0..2 {
        let x: Vec<f64> = (0..n)
            .map(|i| (((i + seed * 31) * 2654435761) % 1009) as f64 / 500.0 - 1.0)
            .collect();
        let mut ax = vec![0.0; n];
        pen.apply(&x, &mut ax);
        let xax: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
        assert!(xax > 0.0, "penalty operator not PD: {xax}");
    }
    // symmetry
    let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let y: Vec<f64> = (0..n).map(|i| ((i * 11) % 17) as f64 - 8.0).collect();
    let mut ax = vec![0.0; n];
    let mut ay = vec![0.0; n];
    pen.apply(&x, &mut ax);
    pen.apply(&y, &mut ay);
    let xay: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
    let yax: f64 = y.iter().zip(&ax).map(|(a, b)| a * b).sum();
    assert!(
        (xay - yax).abs() < 1e-9 * xay.abs().max(1.0),
        "{xay} vs {yax}"
    );
}
