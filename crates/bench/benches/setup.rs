//! Solver set-up microbenchmark: the bifurcation case's f64 DG(3)
//! `MatrixFree::new` (metric terms) and the f32 `HybridMultigrid::build`
//! on the same forest (contexts, DoF numbering, operator diagonals,
//! Chebyshev estimates, coarse assembly and AMG).
//!
//! This is the envelope `cargo xtask bench-check --quick` gates against
//! `BENCH_setup_quick.json`, so a set-up regression fails CI the way a
//! mat-vec regression does. Throughput is in fine-level DoF set up per
//! second. Size: the single-bifurcation tree without global refinement
//! (28k DoF at degree 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dgflow_fem::operators::laplace::BoundaryCondition;
use dgflow_fem::{MatrixFree, MfParams};
use dgflow_lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow_mesh::{Forest, TrilinearManifold};
use dgflow_multigrid::{HybridMultigrid, MgParams};

const LANES: usize = 8;
const DEGREE: usize = 3;

fn bench_setup(c: &mut Criterion) {
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    let forest = Forest::new(mesh.coarse);
    let manifold = TrilinearManifold::from_forest(&forest);
    use BoundaryCondition::{Dirichlet, Neumann};
    let bc = vec![Neumann, Dirichlet, Dirichlet, Dirichlet];
    let n_dofs = forest.n_active() * (DEGREE + 1).pow(3);
    let mut group = c.benchmark_group("setup");
    group.throughput(Throughput::Elements(n_dofs as u64));
    group.bench_with_input(
        BenchmarkId::new("matrixfree_new", DEGREE),
        &n_dofs,
        |b, _| {
            b.iter(|| MatrixFree::<f64, LANES>::new(&forest, &manifold, MfParams::dg(DEGREE)));
        },
    );
    group.bench_with_input(BenchmarkId::new("mg_build", DEGREE), &n_dofs, |b, _| {
        b.iter(|| {
            HybridMultigrid::<f32, LANES>::build(
                &forest,
                &manifold,
                DEGREE,
                bc.clone(),
                MgParams::default(),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_setup);
criterion_main!(benches);
