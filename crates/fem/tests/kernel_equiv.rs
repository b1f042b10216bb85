//! Kernel-equivalence suite: every optimized fast path (cache-blocked
//! sum-factorization, fused Laplace cell kernel with merged symmetric
//! coefficient, vectorized CG gather/scatter plans) is exercised through
//! the public operator `apply()` and compared against the retained
//! reference pipeline (`apply_reference()`: gather-buffer sum-factorization
//! sweeps, two-stage `J^{-T}`/`JxW` coefficient application, scalar
//! per-lane CG transposes) to tight scaled-ULP bounds.
//!
//! Coverage matrix: k = 1..6 × {DG, CG} × {DP `f64×8`, SP `f32×16`} on a
//! structured box, a hanging-node box (CG constraint plans), and the
//! paper's bifurcation geometry.

use dgflow_fem::cg_space::{CgLaplaceOperator, CgSpace};
use dgflow_fem::{BoundaryCondition, LaplaceOperator, MatrixFree, MfParams};
use dgflow_lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow_simd::Real;
use dgflow_solvers::LinearOperator;
use std::sync::Arc;

fn box_forest() -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(2);
    f
}

/// Box with two refined corners: hanging faces feed the CG constraint
/// tables, so the `GatherPlan::special` scalar tail gets real work.
fn hanging_forest() -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(1);
    let mut marks = vec![false; 8];
    marks[0] = true;
    marks[7] = true;
    f.refine_active(&marks);
    f
}

fn bifurcation_forest() -> Forest {
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    Forest::new(mesh.coarse)
}

/// Deterministic pseudo-random test vector with entries in (-1, 1).
fn test_vector<T: Real>(n: usize, seed: u64) -> Vec<T> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = ((state >> 11) as f64) / ((1u64 << 53) as f64);
            T::from_f64(2.0 * u - 1.0)
        })
        .collect()
}

/// Assert `fast` and `reference` agree entry-wise to `ulps` units of the
/// last place of the reference vector's max magnitude (a scaled-absolute
/// bound: the fused coefficient path reassociates sums, so exact per-entry
/// ULP comparison is the wrong yardstick for near-cancelling entries).
fn assert_close<T: Real>(fast: &[T], reference: &[T], ulps: f64, ctx: &str) {
    assert_eq!(fast.len(), reference.len(), "{ctx}: length mismatch");
    let scale = reference
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.to_f64().abs()))
        .max(1.0);
    let eps = T::from_f64(1.0).to_f64() * epsilon::<T>();
    let tol = ulps * eps * scale;
    for (i, (&a, &b)) in fast.iter().zip(reference).enumerate() {
        let diff = (a.to_f64() - b.to_f64()).abs();
        assert!(
            diff <= tol,
            "{ctx}: entry {i} differs by {diff:.3e} (tol {tol:.3e}, fast {}, ref {})",
            a.to_f64(),
            b.to_f64()
        );
    }
}

fn epsilon<T: Real>() -> f64 {
    // distinguish SP/DP through the lossy f64→T round-trip
    if T::from_f64(1.0 + f64::EPSILON).to_f64() == 1.0 {
        f64::from(f32::EPSILON)
    } else {
        f64::EPSILON
    }
}

fn check_dg<T: Real, const L: usize>(forest: &Forest, k: usize, ulps: f64, ctx: &str) {
    let manifold = TrilinearManifold::from_forest(forest);
    let mf = Arc::new(MatrixFree::<T, L>::new(forest, &manifold, MfParams::dg(k)));
    let op = LaplaceOperator::new(mf);
    let src = test_vector::<T>(op.len(), 7 + k as u64);
    let mut fast = vec![T::ZERO; op.len()];
    let mut reference = vec![T::ZERO; op.len()];
    op.apply(&src, &mut fast);
    op.apply_reference(&src, &mut reference);
    assert_close(&fast, &reference, ulps, &format!("{ctx} dg k={k}"));
}

fn check_cg<T: Real, const L: usize>(forest: &Forest, k: usize, ulps: f64, ctx: &str) {
    let manifold = TrilinearManifold::from_forest(forest);
    let space = Arc::new(CgSpace::<T, L>::new(forest, &manifold, k));
    let op = CgLaplaceOperator::new(space);
    let src = test_vector::<T>(op.len(), 13 + k as u64);
    let mut fast = vec![T::ZERO; op.len()];
    let mut reference = vec![T::ZERO; op.len()];
    op.apply(&src, &mut fast);
    op.apply_reference(&src, &mut reference);
    assert_close(&fast, &reference, ulps, &format!("{ctx} cg k={k}"));
}

/// DP bound: 512 scaled ULPs ≈ 1.1e-13 relative — tight against the
/// reassociated fused coefficient while leaving headroom for the longer
/// k=6 accumulation chains. SP uses the same multiplier on f32 epsilon.
const ULPS: f64 = 512.0;

#[test]
fn dg_box_dp_matches_reference() {
    let f = box_forest();
    for k in 1..=6 {
        check_dg::<f64, 8>(&f, k, ULPS, "box");
    }
}

#[test]
fn dg_box_sp_matches_reference() {
    let f = box_forest();
    for k in 1..=6 {
        check_dg::<f32, 16>(&f, k, ULPS, "box");
    }
}

#[test]
fn cg_box_dp_matches_reference() {
    let f = box_forest();
    for k in 1..=6 {
        check_cg::<f64, 8>(&f, k, ULPS, "box");
    }
}

#[test]
fn cg_box_sp_matches_reference() {
    let f = box_forest();
    for k in 1..=6 {
        check_cg::<f32, 16>(&f, k, ULPS, "box");
    }
}

#[test]
fn dg_hanging_dp_matches_reference() {
    let f = hanging_forest();
    for k in 1..=6 {
        check_dg::<f64, 8>(&f, k, ULPS, "hanging");
    }
}

#[test]
fn cg_hanging_dp_matches_reference() {
    let f = hanging_forest();
    for k in 1..=6 {
        check_cg::<f64, 8>(&f, k, ULPS, "hanging");
    }
}

#[test]
fn cg_hanging_sp_matches_reference() {
    let f = hanging_forest();
    for k in 1..=6 {
        check_cg::<f32, 16>(&f, k, ULPS, "hanging");
    }
}

#[test]
fn dg_bifurcation_dp_matches_reference() {
    let f = bifurcation_forest();
    for k in 1..=6 {
        check_dg::<f64, 8>(&f, k, ULPS, "bifurcation");
    }
}

#[test]
fn dg_bifurcation_sp_matches_reference() {
    let f = bifurcation_forest();
    for k in 1..=6 {
        check_dg::<f32, 16>(&f, k, ULPS, "bifurcation");
    }
}

#[test]
fn cg_bifurcation_dp_matches_reference() {
    let f = bifurcation_forest();
    for k in 1..=6 {
        check_cg::<f64, 8>(&f, k, ULPS, "bifurcation");
    }
}

#[test]
fn cg_bifurcation_sp_matches_reference() {
    let f = bifurcation_forest();
    for k in 1..=6 {
        check_cg::<f32, 16>(&f, k, ULPS, "bifurcation");
    }
}

// ---- sum-factorized operator diagonals -----------------------------------
//
// `compute_diagonal` contracts per-point coefficients with 1-D product
// tables; `compute_diagonal_reference` applies the local kernels to every
// unit vector. The two sum in different orders, so they are compared
// entry-wise to a relative tolerance: 1e-12 in f64, 1e-5 in f32.

/// Hanging-node box whose six faces carry boundary ids 0..5, half of them
/// Neumann under [`mixed_bc`].
fn mixed_bc_forest() -> Forest {
    let mut mesh = CoarseMesh::hyper_cube();
    for f in 0..6 {
        mesh.boundary_ids.insert((0, f), f as u32);
    }
    let mut forest = Forest::new(mesh);
    forest.refine_global(1);
    let mut marks = vec![false; 8];
    marks[3] = true;
    marks[6] = true;
    forest.refine_active(&marks);
    forest
}

fn mixed_bc() -> Vec<BoundaryCondition> {
    use BoundaryCondition::{Dirichlet, Neumann};
    vec![Dirichlet, Neumann, Neumann, Dirichlet, Dirichlet, Neumann]
}

fn diag_tolerance<T: Real>() -> f64 {
    if epsilon::<T>() > 1e-10 {
        1e-5
    } else {
        1e-12
    }
}

fn assert_diag_close<T: Real>(fast: &[T], reference: &[T], ctx: &str) {
    assert_eq!(fast.len(), reference.len(), "{ctx}: length mismatch");
    let tol = diag_tolerance::<T>();
    let mut worst = 0.0f64;
    for (i, (&a, &b)) in fast.iter().zip(reference).enumerate() {
        let (a, b) = (a.to_f64(), b.to_f64());
        let rel = (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);
        worst = worst.max(rel);
        assert!(
            rel <= tol,
            "{ctx}: diagonal entry {i} differs by {rel:.3e} relative (fast {a}, ref {b})"
        );
    }
    assert!(worst.is_finite(), "{ctx}: non-finite deviation");
}

fn check_dg_diag<T: Real, const L: usize>(
    forest: &Forest,
    params: MfParams,
    bc: Vec<BoundaryCondition>,
    ctx: &str,
) {
    let manifold = TrilinearManifold::from_forest(forest);
    let mf = Arc::new(MatrixFree::<T, L>::new(forest, &manifold, params));
    let op = LaplaceOperator::with_bc(mf, bc);
    assert_diag_close(
        &op.compute_diagonal(),
        &op.compute_diagonal_reference(),
        &format!("{ctx} dg k={} n_q={}", params.degree, params.n_q),
    );
}

fn check_cg_diag<T: Real, const L: usize>(
    forest: &Forest,
    k: usize,
    bc: Vec<BoundaryCondition>,
    ctx: &str,
) {
    let manifold = TrilinearManifold::from_forest(forest);
    let space = Arc::new(CgSpace::<T, L>::new(forest, &manifold, k));
    let op = CgLaplaceOperator::with_bc(space, bc);
    assert_diag_close(
        &op.compute_diagonal(),
        &op.compute_diagonal_reference(),
        &format!("{ctx} cg k={k}"),
    );
}

#[test]
fn dg_diagonal_dp_matches_reference() {
    let f = box_forest();
    for k in 1..=6 {
        check_dg_diag::<f64, 8>(&f, MfParams::dg(k), Vec::new(), "box");
    }
}

#[test]
fn dg_diagonal_sp_matches_reference() {
    let f = box_forest();
    for k in 1..=6 {
        check_dg_diag::<f32, 16>(&f, MfParams::dg(k), Vec::new(), "box");
    }
}

#[test]
fn dg_diagonal_mixed_bc_hanging_matches_reference() {
    let f = mixed_bc_forest();
    for k in 1..=6 {
        check_dg_diag::<f64, 8>(&f, MfParams::dg(k), mixed_bc(), "mixed-bc hanging");
        check_dg_diag::<f32, 16>(&f, MfParams::dg(k), mixed_bc(), "mixed-bc hanging");
    }
}

#[test]
fn dg_diagonal_non_collocated_and_pressure_space_match_reference() {
    let f = mixed_bc_forest();
    for k in 1..=5 {
        // over-integrated: n_q = k + 2 (values interpolation is not the
        // identity)
        let over = MfParams {
            n_q: k + 2,
            ..MfParams::dg(k)
        };
        check_dg_diag::<f64, 8>(&f, over, mixed_bc(), "n_q=k+2");
        // the flow solver's pressure space: degree k-1 on the velocity's
        // k+1 points
        if k >= 2 {
            let pressure = MfParams {
                degree: k - 1,
                n_q: k + 1,
                ..MfParams::dg(k)
            };
            check_dg_diag::<f64, 8>(&f, pressure, mixed_bc(), "pressure");
            check_dg_diag::<f32, 16>(&f, pressure, mixed_bc(), "pressure");
        }
    }
}

#[test]
fn dg_diagonal_bifurcation_matches_reference() {
    let f = bifurcation_forest();
    use BoundaryCondition::{Dirichlet, Neumann};
    let bc = vec![Neumann, Dirichlet, Dirichlet, Dirichlet];
    for k in [1, 3, 5] {
        check_dg_diag::<f64, 8>(&f, MfParams::dg(k), bc.clone(), "bifurcation");
    }
    check_dg_diag::<f32, 16>(&f, MfParams::dg(3), bc, "bifurcation");
}

#[test]
fn cg_diagonal_hanging_matches_reference() {
    let f = hanging_forest();
    for k in 1..=6 {
        check_cg_diag::<f64, 8>(&f, k, Vec::new(), "hanging");
        check_cg_diag::<f32, 16>(&f, k, Vec::new(), "hanging");
    }
    let f = mixed_bc_forest();
    for k in 1..=4 {
        check_cg_diag::<f64, 8>(&f, k, mixed_bc(), "mixed-bc hanging");
        check_cg_diag::<f32, 16>(&f, k, mixed_bc(), "mixed-bc hanging");
    }
}
