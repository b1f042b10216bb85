//! Vector (velocity) fields: layout and helpers.
//!
//! A velocity field stores the 3 components cell-blocked:
//! `v[cell * 3*dpc + comp * dpc + node]` — component slices of one cell are
//! contiguous, which lets every scalar kernel run per component with a
//! stride/offset and keeps gather/scatter cache-friendly.

use dgflow_fem::MatrixFree;
use dgflow_simd::Real;

/// Number of velocity components.
pub const DIM: usize = 3;

/// Total length of a velocity vector on `mf`.
pub fn n_velocity_dofs<T: Real, const L: usize>(mf: &MatrixFree<T, L>) -> usize {
    DIM * mf.n_dofs()
}

/// Interpolate a vector-valued function into the collocated velocity space.
pub fn interpolate_velocity<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    f: &(dyn Fn([f64; 3]) -> [f64; 3] + Sync),
) -> Vec<T> {
    assert!(mf.collocated());
    let dpc = mf.dofs_per_cell;
    let mut v = vec![T::ZERO; DIM * mf.n_dofs()];
    for (bi, b) in mf.cell_batches.iter().enumerate() {
        let g = &mf.metric.cell_geometry[bi];
        for l in 0..b.n_filled {
            let base = DIM * dpc * b.cells[l] as usize;
            for i in 0..dpc {
                let x = [
                    g.positions[i * 3][l].to_f64(),
                    g.positions[i * 3 + 1][l].to_f64(),
                    g.positions[i * 3 + 2][l].to_f64(),
                ];
                let val = f(x);
                for (d, &vd) in val.iter().enumerate() {
                    v[base + d * dpc + i] = T::from_f64(vd);
                }
            }
        }
    }
    v
}

/// Quadrature L² error of a velocity field against an exact function.
pub fn velocity_l2_error<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    v: &[T],
    exact: &(dyn Fn([f64; 3]) -> [f64; 3] + Sync),
) -> f64 {
    assert!(mf.collocated());
    let dpc = mf.dofs_per_cell;
    let mut err2 = 0.0;
    for (bi, b) in mf.cell_batches.iter().enumerate() {
        let g = &mf.metric.cell_geometry[bi];
        for l in 0..b.n_filled {
            let base = DIM * dpc * b.cells[l] as usize;
            for i in 0..dpc {
                let x = [
                    g.positions[i * 3][l].to_f64(),
                    g.positions[i * 3 + 1][l].to_f64(),
                    g.positions[i * 3 + 2][l].to_f64(),
                ];
                let e = exact(x);
                for (d, &ed) in e.iter().enumerate() {
                    let diff = v[base + d * dpc + i].to_f64() - ed;
                    err2 += diff * diff * g.jxw[i][l].to_f64();
                }
            }
        }
    }
    err2.sqrt()
}

/// Extract one component into a contiguous scalar vector.
pub fn extract_component<T: Real>(v: &[T], dpc: usize, comp: usize, out: &mut [T]) {
    let n_cells = v.len() / (DIM * dpc);
    for c in 0..n_cells {
        let src = &v[c * DIM * dpc + comp * dpc..c * DIM * dpc + (comp + 1) * dpc];
        out[c * dpc..(c + 1) * dpc].copy_from_slice(src);
    }
}

/// Write one component back from a contiguous scalar vector.
pub fn insert_component<T: Real>(v: &mut [T], dpc: usize, comp: usize, src: &[T]) {
    let n_cells = v.len() / (DIM * dpc);
    for c in 0..n_cells {
        v[c * DIM * dpc + comp * dpc..c * DIM * dpc + (comp + 1) * dpc]
            .copy_from_slice(&src[c * dpc..(c + 1) * dpc]);
    }
}

/// Kinetic energy `½ ∫ |u|² dx` (quadrature-exact for the collocated
/// basis) — the stability diagnostic: without forcing, the LLF + SIPG +
/// penalty discretization must dissipate it.
pub fn kinetic_energy<T: Real, const L: usize>(mf: &MatrixFree<T, L>, v: &[T]) -> f64 {
    let dpc = mf.dofs_per_cell;
    let mut ke = 0.0;
    for (bi, b) in mf.cell_batches.iter().enumerate() {
        let g = &mf.metric.cell_geometry[bi];
        for l in 0..b.n_filled {
            let base = DIM * dpc * b.cells[l] as usize;
            for i in 0..dpc {
                let mut m2 = 0.0;
                for d in 0..DIM {
                    let x = v[base + d * dpc + i].to_f64();
                    m2 += x * x;
                }
                ke += 0.5 * m2 * g.jxw[i][l].to_f64();
            }
        }
    }
    ke
}

/// Maximum pointwise velocity magnitude per cell (for the CFL condition and
/// the penalty coefficients); returns one value per cell.
pub fn cell_velocity_scale<T: Real, const L: usize>(mf: &MatrixFree<T, L>, v: &[T]) -> Vec<f64> {
    let dpc = mf.dofs_per_cell;
    let n_cells = mf.n_cells;
    let mut out = vec![0.0; n_cells];
    for (c, o) in out.iter_mut().enumerate() {
        let base = c * DIM * dpc;
        let mut vmax = 0.0f64;
        for i in 0..dpc {
            let mut m2 = 0.0;
            for d in 0..DIM {
                let x = v[base + d * dpc + i].to_f64();
                m2 += x * x;
            }
            vmax = vmax.max(m2);
        }
        *o = vmax.sqrt();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_fem::MfParams;
    use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};

    fn mf() -> MatrixFree<f64, 4> {
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(1);
        let manifold = TrilinearManifold::from_forest(&forest);
        MatrixFree::new(&forest, &manifold, MfParams::dg(2))
    }

    #[test]
    fn interpolation_and_error_roundtrip() {
        let mf = mf();
        let f = |x: [f64; 3]| [x[0], 2.0 * x[1], -x[2] + x[0]];
        let v = interpolate_velocity(&mf, &f);
        assert_eq!(v.len(), 3 * mf.n_dofs());
        assert!(velocity_l2_error(&mf, &v, &f) < 1e-13);
    }

    #[test]
    fn component_extraction_roundtrip() {
        let mf = mf();
        let f = |x: [f64; 3]| [x[0] * x[1], x[2], 1.0 - x[0]];
        let mut v = interpolate_velocity(&mf, &f);
        let dpc = mf.dofs_per_cell;
        let mut c1 = vec![0.0; mf.n_dofs()];
        extract_component(&v, dpc, 1, &mut c1);
        // component 1 == interpolation of x[2]
        let expect = dgflow_fem::operators::interpolate(&mf, &|x| x[2]);
        for i in 0..c1.len() {
            assert!((c1[i] - expect[i]).abs() < 1e-14);
        }
        // modify and insert back
        for x in c1.iter_mut() {
            *x *= 2.0;
        }
        insert_component(&mut v, dpc, 1, &c1);
        let err = velocity_l2_error(&mf, &v, &|x| [x[0] * x[1], 2.0 * x[2], 1.0 - x[0]]);
        assert!(err < 1e-13);
    }

    #[test]
    fn velocity_scale_picks_maximum() {
        let mf = mf();
        let v = interpolate_velocity(&mf, &|x| [3.0 * x[0], 0.0, 4.0 * x[0]]);
        let scales = cell_velocity_scale(&mf, &v);
        // global max |u| = 5 at x=1; nodal sampling sits at Gauss points,
        // so the measured scale is slightly below
        let max = scales.iter().cloned().fold(0.0, f64::max);
        assert!(max > 4.5 && max <= 5.0, "{max}");
    }
}
