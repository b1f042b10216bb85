//! Set-up invariance suite: the table-driven metric terms equal the
//! pointwise [`Mapping::jacobian`] / [`Mapping::position`] evaluation bit
//! for bit, contexts that share a metric-term set read exactly what a
//! private build computes, and the fast CG DoF numbering reproduces the
//! reference numbering and constraint tables.

use dgflow_fem::cg_space::CgSpace;
use dgflow_fem::geometry::invert3;
use dgflow_fem::matrixfree::tangential;
use dgflow_fem::{Mapping, MatrixFree, MfParams};
use dgflow_lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow_mesh::{CoarseMesh, FaceOrientation, Forest, Manifold, TrilinearManifold};
use dgflow_simd::Real;
use std::sync::Arc;

fn bifurcation_forest() -> Forest {
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    Forest::new(mesh.coarse)
}

/// Unit cube with two refined corners (hanging faces of all four
/// quadrants).
fn hanging_forest() -> Forest {
    let mut f = Forest::new(CoarseMesh::hyper_cube());
    f.refine_global(1);
    let mut marks = vec![false; 8];
    marks[0] = true;
    marks[7] = true;
    f.refine_active(&marks);
    f
}

/// A curved warp of the unit cube, so the hanging-node mesh has
/// non-affine cells.
struct Warp;

impl Manifold for Warp {
    fn position(&self, _tree: usize, x: [f64; 3]) -> [f64; 3] {
        [
            x[0] + 0.1 * (x[1] * x[2]).sin(),
            x[1] + 0.15 * x[0] * x[0],
            x[2] * (1.0 + 0.2 * x[1]),
        ]
    }
}

fn bits<T: Real>(v: T) -> u64 {
    v.to_f64().to_bits()
}

/// Compare every metric term of `mf` with the pointwise evaluation;
/// returns the face categories seen as (boundary, conforming interior,
/// rotated interior, hanging) batch counts.
fn check_pointwise<T: Real, const L: usize>(mf: &MatrixFree<T, L>, ctx: &str) -> [usize; 4] {
    let mapping = &*mf.mapping;
    let n_q = mf.n_q();
    let pts = &mf.shape.quad.points;
    let w = &mf.shape.quad.weights;
    let m = &*mf.metric;
    let mut volumes = vec![0.0; mf.n_cells];
    for (b, g) in mf.cell_batches.iter().zip(&m.cell_geometry) {
        for l in 0..b.n_filled {
            let cell = b.cells[l] as usize;
            for q2 in 0..n_q {
                for q1 in 0..n_q {
                    for q0 in 0..n_q {
                        let q = q0 + n_q * (q1 + n_q * q2);
                        let xi = [pts[q0], pts[q1], pts[q2]];
                        let (inv, det) = invert3(mapping.jacobian(cell, xi));
                        for r in 0..3 {
                            for c in 0..3 {
                                assert_eq!(
                                    bits(g.jinvt[q * 9 + 3 * r + c][l]),
                                    bits(T::from_f64(inv[c][r])),
                                    "{ctx}: cell {cell} J^-T"
                                );
                            }
                        }
                        let wq = w[q0] * w[q1] * w[q2];
                        volumes[cell] += det * wq;
                        assert_eq!(bits(g.jxw[q][l]), bits(T::from_f64(det * wq)), "{ctx}");
                        let p = mapping.position(cell, xi);
                        for d in 0..3 {
                            assert_eq!(bits(g.positions[q * 3 + d][l]), bits(T::from_f64(p[d])));
                        }
                    }
                }
            }
        }
    }
    for (a, b) in volumes.iter().zip(&m.cell_volumes) {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: cell volume");
    }

    let mut seen = [0usize; 4];
    let kp1 = (mf.params.degree + 1) as f64;
    for (bi, (b, g)) in mf.face_batches.iter().zip(&m.face_geometry).enumerate() {
        let cat = b.category;
        let (dm, sm) = ((cat.face_minus / 2) as usize, (cat.face_minus % 2) as usize);
        let (t1m, t2m) = tangential(dm);
        let (dp, sp) = ((cat.face_plus / 2) as usize, (cat.face_plus % 2) as usize);
        let (t1p, t2p) = tangential(dp);
        let (c1, c2, scale) = match cat.subface() {
            Some(c) => (f64::from(c & 1), f64::from((c >> 1) & 1), 0.5),
            None => (0.0, 0.0, 1.0),
        };
        seen[match () {
            _ if cat.is_boundary => 0,
            _ if cat.subface().is_some() => 3,
            _ if cat.orient() != FaceOrientation::IDENTITY => 2,
            _ => 1,
        }] += 1;
        for l in 0..b.n_filled {
            let minus = b.minus[l] as usize;
            let mut area = 0.0;
            for q2 in 0..n_q {
                for q1 in 0..n_q {
                    let q = q1 + n_q * q2;
                    let mut xi = [0.0; 3];
                    xi[dm] = sm as f64;
                    xi[t1m] = scale * (pts[q1] + c1);
                    xi[t2m] = scale * (pts[q2] + c2);
                    let (inv, det) = invert3(mapping.jacobian(minus, xi));
                    let cof = [det * inv[dm][0], det * inv[dm][1], det * inv[dm][2]];
                    let norm = (cof[0] * cof[0] + cof[1] * cof[1] + cof[2] * cof[2]).sqrt();
                    let sign = if sm == 0 { -1.0 } else { 1.0 };
                    let n = cof.map(|c| sign * c / norm);
                    let da = norm * scale * scale * (w[q1] * w[q2]);
                    area += da;
                    assert_eq!(bits(g.jxw[q][l]), bits(T::from_f64(da)), "{ctx}: face jxw");
                    let p = mapping.position(minus, xi);
                    for d in 0..3 {
                        assert_eq!(bits(g.positions[q * 3 + d][l]), bits(T::from_f64(p[d])));
                        assert_eq!(bits(g.normal[q * 3 + d][l]), bits(T::from_f64(n[d])));
                        let gm = inv[d][0] * n[0] + inv[d][1] * n[1] + inv[d][2] * n[2];
                        assert_eq!(bits(g.g_minus[q * 3 + d][l]), bits(T::from_f64(gm)));
                    }
                    if cat.is_boundary {
                        continue;
                    }
                    let (p1, p2) = cat.orient().map_index(q1, q2, n_q, n_q);
                    let mut xp = [0.0; 3];
                    xp[dp] = sp as f64;
                    xp[t1p] = pts[p1];
                    xp[t2p] = pts[p2];
                    let (inv_p, _) = invert3(mapping.jacobian(b.plus[l] as usize, xp));
                    for d in 0..3 {
                        let gp = inv_p[d][0] * n[0] + inv_p[d][1] * n[1] + inv_p[d][2] * n[2];
                        assert_eq!(
                            bits(g.g_plus[q * 3 + d][l]),
                            bits(T::from_f64(gp)),
                            "{ctx}: face batch {bi} g_plus"
                        );
                    }
                }
            }
            let mut s = area / volumes[minus];
            if !cat.is_boundary {
                s = s.max(area / volumes[b.plus[l] as usize]);
            }
            let sigma = T::from_f64(mf.params.penalty_factor * kp1 * kp1 * s);
            assert_eq!(bits(mf.face_sigma[bi][l]), bits(sigma), "{ctx}: sigma");
        }
    }
    seen
}

#[test]
fn table_driven_metric_terms_match_pointwise_evaluation_on_bifurcation() {
    let forest = bifurcation_forest();
    let manifold = TrilinearManifold::from_forest(&forest);
    for k in [2, 3] {
        let mf = MatrixFree::<f64, 8>::new(&forest, &manifold, MfParams::dg(k));
        let seen = check_pointwise(&mf, &format!("bifurcation dg({k})"));
        assert!(seen[0] > 0 && seen[1] > 0, "{seen:?}");
    }
    let mf = MatrixFree::<f32, 16>::new(&forest, &manifold, MfParams::cg(3));
    check_pointwise(&mf, "bifurcation cg(3) f32");
}

#[test]
fn table_driven_metric_terms_match_pointwise_evaluation_on_hanging_cube() {
    let forest = hanging_forest();
    for k in 1..=4 {
        let mf = MatrixFree::<f64, 4>::new(&forest, &Warp, MfParams::dg(k));
        let seen = check_pointwise(&mf, &format!("hanging dg({k})"));
        assert!(seen[0] > 0 && seen[1] > 0 && seen[3] > 0, "{seen:?}");
    }
    let over = MfParams {
        n_q: 5,
        ..MfParams::dg(3)
    };
    check_pointwise(
        &MatrixFree::<f32, 8>::new(&forest, &Warp, over),
        "hanging n_q=5",
    );
}

#[test]
fn every_face_category_is_covered() {
    // rotated interior faces appear where the bifurcation's trees meet
    let mut forest_h = bifurcation_forest();
    let marks: Vec<bool> = (0..forest_h.n_active()).map(|c| c % 5 == 0).collect();
    forest_h.refine_active(&marks);
    let manifold_h = TrilinearManifold::from_forest(&forest_h);
    let mf = MatrixFree::<f64, 8>::new(&forest_h, &manifold_h, MfParams::dg(2));
    let seen = check_pointwise(&mf, "refined bifurcation");
    assert!(
        seen.iter().all(|&n| n > 0),
        "face categories seen: {seen:?}"
    );
}

/// Bitwise equality of two contexts' metric terms.
fn assert_same_terms<T: Real, const L: usize>(a: &MatrixFree<T, L>, b: &MatrixFree<T, L>) {
    let eq = |x: &[dgflow_simd::Simd<T, L>], y: &[dgflow_simd::Simd<T, L>]| {
        x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(u, v)| (0..L).all(|l| bits(u[l]) == bits(v[l])))
    };
    let (ma, mb) = (&*a.metric, &*b.metric);
    assert_eq!(ma.cell_geometry.len(), mb.cell_geometry.len());
    for (x, y) in ma.cell_geometry.iter().zip(&mb.cell_geometry) {
        assert!(eq(&x.jinvt, &y.jinvt) && eq(&x.jxw, &y.jxw) && eq(&x.positions, &y.positions));
    }
    assert_eq!(ma.face_geometry.len(), mb.face_geometry.len());
    for (x, y) in ma.face_geometry.iter().zip(&mb.face_geometry) {
        assert!(eq(&x.g_minus, &y.g_minus) && eq(&x.g_plus, &y.g_plus));
        assert!(eq(&x.normal, &y.normal) && eq(&x.jxw, &y.jxw));
        assert!(eq(&x.positions, &y.positions));
    }
    assert_eq!(ma.cell_volumes, mb.cell_volumes);
}

#[test]
fn contexts_on_one_mapping_share_metric_terms() {
    let forest = bifurcation_forest();
    let manifold = TrilinearManifold::from_forest(&forest);
    let mapping = Arc::new(Mapping::build(&forest, &manifold, 3));
    let dg = MatrixFree::<f64, 8>::with_mapping(&forest, mapping.clone(), MfParams::dg(3));
    let cg = MatrixFree::<f64, 8>::with_mapping(&forest, mapping.clone(), MfParams::cg(3));
    // the flow solver's pressure space: degree 3 on n_q = 5 would not share,
    // degree 2 on the velocity's n_q = 4 does
    let pressure = MfParams {
        degree: 2,
        n_q: 4,
        ..MfParams::dg(3)
    };
    let p = MatrixFree::<f64, 8>::with_mapping(&forest, mapping.clone(), pressure);
    assert!(Arc::ptr_eq(&dg.metric, &cg.metric));
    assert!(Arc::ptr_eq(&dg.metric, &p.metric));
    // another quadrature or storage type gets its own set
    let over = MfParams {
        n_q: 5,
        ..MfParams::dg(3)
    };
    let dg_over = MatrixFree::<f64, 8>::with_mapping(&forest, mapping.clone(), over);
    assert!(!Arc::ptr_eq(&dg.metric, &dg_over.metric));
    let dg32 = MatrixFree::<f32, 8>::with_mapping(&forest, mapping.clone(), MfParams::dg(3));
    assert_eq!(
        dg32.metric.cell_geometry.len(),
        dg.metric.cell_geometry.len()
    );

    // a shared set reads exactly what a private build computes
    let private = MatrixFree::<f64, 8>::new(&forest, &manifold, MfParams::cg(3));
    assert!(!Arc::ptr_eq(&private.metric, &cg.metric));
    assert_same_terms(&cg, &private);
    // the penalty belongs to the space, not to the shared geometry
    assert_eq!(cg.face_sigma.len(), private.face_sigma.len());
    for (a, b) in cg.face_sigma.iter().zip(&private.face_sigma) {
        assert_eq!(a.0, b.0);
    }
    let ratio = p.face_sigma[0][0] / dg.face_sigma[0][0];
    assert!((ratio - 9.0 / 16.0).abs() < 1e-14, "{ratio}");

    // the set is freed with its last user: a later context recomputes it
    let weak = Arc::downgrade(&dg.metric);
    drop((dg, cg, p));
    assert!(weak.upgrade().is_none());
    let again = MatrixFree::<f64, 8>::with_mapping(&forest, mapping, MfParams::dg(3));
    assert_same_terms(&again, &private);
}

#[test]
fn cg_numbering_matches_reference() {
    let cases: Vec<(Forest, Box<dyn Manifold>)> = vec![(hanging_forest(), Box::new(Warp)), {
        let f = bifurcation_forest();
        let m = TrilinearManifold::from_forest(&f);
        (f, Box::new(m))
    }];
    for (ci, (forest, manifold)) in cases.iter().enumerate() {
        for k in 1..=4 {
            let mf = Arc::new(MatrixFree::<f64, 4>::new(
                forest,
                manifold.as_ref(),
                MfParams::cg(k),
            ));
            let fast = CgSpace::from_mf(forest, mf.clone());
            let reference = CgSpace::from_mf_reference(forest, mf);
            let ctx = format!("case {ci} k={k}");
            assert_eq!(fast.n_dofs, reference.n_dofs, "{ctx}");
            assert_eq!(fast.l2g, reference.l2g, "{ctx}");
            assert_eq!(fast.row_ptr, reference.row_ptr, "{ctx}");
            assert_eq!(fast.entries, reference.entries, "{ctx}");
            assert_eq!(fast.constrained, reference.constrained, "{ctx}");
            for (a, b) in fast.positions.iter().zip(&reference.positions) {
                assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{ctx}");
            }
            if ci == 0 {
                assert!(fast.constrained.iter().any(|&c| c), "{ctx}: no constraints");
            }
        }
    }
}
