//! Criterion micro-benchmarks of the performance-critical kernels: the
//! dense sum-factorization sweep, the DG Laplacian mat-vec (DP and SP),
//! the Chebyshev smoother iteration, and the convective term.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dgflow_core::bc::{BcKind, FlowBcs};
use dgflow_fem::{LaplaceOperator, MatrixFree, MfParams};
use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};
use dgflow_simd::Simd;
use dgflow_solvers::{ChebyshevSmoother, LinearOperator};
use dgflow_tensor::sumfac::apply_1d;
use dgflow_tensor::{NodeSet, ShapeInfo1D};
use std::sync::Arc;

fn bench_sumfac(c: &mut Criterion) {
    let mut group = c.benchmark_group("sumfac_1d_sweep");
    for k in [3usize, 5] {
        let n = k + 1;
        let shape: ShapeInfo1D<f64> = ShapeInfo1D::new(k, NodeSet::Gauss, n);
        let src = vec![Simd::<f64, 8>::splat(1.3); n * n * n];
        let mut dst = vec![Simd::<f64, 8>::zero(); n * n * n];
        group.throughput(Throughput::Elements((n * n * n * 8) as u64));
        group.bench_with_input(BenchmarkId::new("dense", k), &k, |b, _| {
            b.iter(|| {
                apply_1d(&shape.colloc_gradients, &src, &mut dst, [n, n, n], 0, false);
            });
        });
    }
    group.finish();
}

fn laplace_setup(k: usize) -> (Arc<MatrixFree<f64, 8>>, Vec<f64>, Vec<f64>) {
    let mut forest = Forest::new(CoarseMesh::subdivided_box([2, 2, 2], [1.0; 3]));
    forest.refine_global(2);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mf = Arc::new(MatrixFree::new(&forest, &manifold, MfParams::dg(k)));
    let n = mf.n_dofs();
    let src: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.1).collect();
    let dst = vec![0.0; n];
    (mf, src, dst)
}

fn bench_laplace_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("dg_laplace_matvec");
    group.sample_size(20);
    for k in [2usize, 3, 4] {
        let (mf, src, mut dst) = laplace_setup(k);
        let op = LaplaceOperator::new(mf.clone());
        group.throughput(Throughput::Elements(mf.n_dofs() as u64));
        group.bench_with_input(BenchmarkId::new("dp", k), &k, |b, _| {
            b.iter(|| op.apply(&src, &mut dst));
        });
    }
    group.finish();
}

fn bench_smoother(c: &mut Criterion) {
    let mut group = c.benchmark_group("chebyshev_smoother_sp");
    group.sample_size(20);
    let mut forest = Forest::new(CoarseMesh::subdivided_box([2, 2, 2], [1.0; 3]));
    forest.refine_global(2);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mf = Arc::new(MatrixFree::<f32, 16>::new(
        &forest,
        &manifold,
        MfParams::dg(3),
    ));
    let op = LaplaceOperator::new(mf.clone());
    let inv: Vec<f32> = op.compute_diagonal().iter().map(|d| 1.0 / d).collect();
    let cheb = ChebyshevSmoother::new(&op, inv, 3, 20.0);
    let n = mf.n_dofs();
    let bvec: Vec<f32> = (0..n).map(|i| (i % 13) as f32 * 0.1).collect();
    let mut x = vec![0.0f32; n];
    group.throughput(Throughput::Elements(3 * n as u64));
    group.bench_function("degree3", |b| {
        b.iter(|| cheb.smooth(&op, &bvec, &mut x, true));
    });
    group.finish();
}

fn bench_convective(c: &mut Criterion) {
    let mut group = c.benchmark_group("convective_term");
    group.sample_size(20);
    let (mf, _, _) = laplace_setup(3);
    let bcs = FlowBcs::new(vec![BcKind::Pressure]);
    let u = dgflow_core::interpolate_velocity(&mf, &|x| [x[0], -x[1], 0.5 * x[2]]);
    let mut dst = vec![0.0; u.len()];
    group.throughput(Throughput::Elements(3 * mf.n_dofs() as u64));
    group.bench_function("k3", |b| {
        b.iter(|| dgflow_core::convective_term(&mf, &bcs, &u, &mut dst));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sumfac,
    bench_laplace_matvec,
    bench_smoother,
    bench_convective
);
criterion_main!(benches);
