//! Level-transfer operators of the hybrid multigrid hierarchy: DG→CG on
//! the same mesh, polynomial bisection between CG degrees, and geometric
//! (global-coarsening) transfer between forests.
//!
//! All three share one structure: per fine cell, gather the coarse
//! representation (with constraint resolution), interpolate with 1-D
//! tensor-product matrices, and scatter into the fine representation with
//! valence weights. Restriction is the exact matrix transpose of
//! prolongation, which keeps the V-cycle a symmetric preconditioner.

use dgflow_fem::cg_space::CgSpace;
use dgflow_fem::util::SharedMut;
use dgflow_fem::MatrixFree;
use dgflow_mesh::Forest;
use dgflow_simd::Real;
use dgflow_tensor::sumfac::{apply_1d, tensor_len};
use dgflow_tensor::{DMatrix, LagrangeBasis1D, NodeSet};
use std::collections::HashMap;
use std::sync::Arc;

/// The fine side of a transfer.
pub enum FineSpace<T: Real, const L: usize> {
    /// Discontinuous fine space (finest level only).
    Dg(Arc<MatrixFree<T, L>>),
    /// Continuous fine space.
    Cg(Arc<CgSpace<T, L>>),
}

impl<T: Real, const L: usize> FineSpace<T, L> {
    fn n_dofs(&self) -> usize {
        match self {
            FineSpace::Dg(mf) => mf.n_dofs(),
            FineSpace::Cg(s) => s.n_dofs,
        }
    }
    fn n1(&self) -> usize {
        match self {
            FineSpace::Dg(mf) => mf.n_1d(),
            FineSpace::Cg(s) => s.mf.n_1d(),
        }
    }
}

/// A prolongation/restriction pair between one fine and one coarse level.
pub struct Transfer<T: Real, const L: usize> {
    fine: FineSpace<T, L>,
    coarse: Arc<CgSpace<T, L>>,
    /// Per fine cell: (coarse cell, child code). Child code 255 = same
    /// cell (p-/DG-transfer or un-coarsened cell); otherwise the octant.
    pairs: Vec<(u32, u8)>,
    /// Full 1-D interpolation (coarse nodes → fine nodes).
    m_full: DMatrix<T>,
    /// Child-interval interpolation for h-transfer.
    m_child: [DMatrix<T>; 2],
    /// Transposes of `m_full` / `m_child`, precomputed at construction so
    /// every `restrict` call streams them straight from the struct.
    mt_full: DMatrix<T>,
    mt_child: [DMatrix<T>; 2],
    /// Valence weights per (fine cell, local node).
    weights: Vec<T>,
}

fn compute_weights<T: Real, const L: usize>(fine: &FineSpace<T, L>) -> Vec<T> {
    match fine {
        FineSpace::Dg(mf) => vec![T::ONE; mf.n_cells * mf.dofs_per_cell],
        FineSpace::Cg(s) => {
            let mut count = vec![0u32; s.n_dofs];
            for &d in &s.l2g {
                count[d as usize] += 1;
            }
            s.l2g
                .iter()
                .map(|&d| T::ONE / T::from_usize(count[d as usize] as usize))
                .collect()
        }
    }
}

impl<T: Real, const L: usize> Transfer<T, L> {
    fn with_matrices(
        fine: FineSpace<T, L>,
        coarse: Arc<CgSpace<T, L>>,
        pairs: Vec<(u32, u8)>,
        m_full: DMatrix<T>,
        m_child: [DMatrix<T>; 2],
    ) -> Self {
        let weights = compute_weights(&fine);
        let mt_full = m_full.transpose();
        let mt_child = [m_child[0].transpose(), m_child[1].transpose()];
        Self {
            fine,
            coarse,
            pairs,
            m_full,
            m_child,
            mt_full,
            mt_child,
            weights,
        }
    }

    /// DG(k) → CG(k) transfer on the same forest (the continuity injection
    /// of Fig. 5).
    pub fn dg_to_cg(fine: Arc<MatrixFree<T, L>>, coarse: Arc<CgSpace<T, L>>) -> Self {
        assert_eq!(fine.n_cells, coarse.mf.n_cells);
        assert_eq!(fine.params.degree, coarse.mf.params.degree);
        let k = fine.params.degree;
        let gll = LagrangeBasis1D::new(NodeSet::GaussLobatto.nodes(k));
        let gauss_nodes = NodeSet::Gauss.nodes(k);
        let m_full: DMatrix<T> = gll.value_matrix(&gauss_nodes);
        let pairs = (0..fine.n_cells).map(|c| (c as u32, 255u8)).collect();
        let m_child = [m_full.clone(), m_full.clone()];
        Self::with_matrices(FineSpace::Dg(fine), coarse, pairs, m_full, m_child)
    }

    /// CG(k_fine) → CG(k_coarse) polynomial transfer on the same forest.
    pub fn p_transfer(fine: Arc<CgSpace<T, L>>, coarse: Arc<CgSpace<T, L>>) -> Self {
        assert_eq!(fine.mf.n_cells, coarse.mf.n_cells);
        let kf = fine.mf.params.degree;
        let kc = coarse.mf.params.degree;
        assert!(kc < kf);
        let cb = LagrangeBasis1D::new(NodeSet::GaussLobatto.nodes(kc));
        let fine_nodes = NodeSet::GaussLobatto.nodes(kf);
        let m_full: DMatrix<T> = cb.value_matrix(&fine_nodes);
        let pairs = (0..fine.mf.n_cells).map(|c| (c as u32, 255u8)).collect();
        let m_child = [m_full.clone(), m_full.clone()];
        Self::with_matrices(FineSpace::Cg(fine), coarse, pairs, m_full, m_child)
    }

    /// Geometric transfer between a forest and its global coarsening (same
    /// degree, usually 1).
    pub fn h_transfer(
        fine: Arc<CgSpace<T, L>>,
        fine_forest: &Forest,
        coarse: Arc<CgSpace<T, L>>,
        coarse_forest: &Forest,
    ) -> Self {
        let k = fine.mf.params.degree;
        assert_eq!(k, coarse.mf.params.degree);
        let basis = LagrangeBasis1D::new(NodeSet::GaussLobatto.nodes(k));
        let nodes = NodeSet::GaussLobatto.nodes(k);
        let m_full: DMatrix<T> = DMatrix::identity(k + 1);
        let m_child = [
            basis.subinterval_matrix(0, &nodes),
            basis.subinterval_matrix(1, &nodes),
        ];
        // index coarse cells by (tree, level, anchor)
        let mut index: HashMap<(u32, u8, [u32; 3]), u32> = HashMap::new();
        for (i, c) in coarse_forest.active_cells().enumerate() {
            index.insert((c.tree, c.level, c.anchor), i as u32);
        }
        let mut pairs = Vec::with_capacity(fine_forest.n_active());
        for cell in fine_forest.active_cells() {
            if let Some(&cc) = index.get(&(cell.tree, cell.level, cell.anchor)) {
                pairs.push((cc, 255u8));
            } else {
                // parent cell in the coarse forest
                assert!(cell.level > 0, "fine cell missing from coarse forest");
                let size = cell.size();
                let parent_anchor = [
                    cell.anchor[0] & !(2 * size - 1),
                    cell.anchor[1] & !(2 * size - 1),
                    cell.anchor[2] & !(2 * size - 1),
                ];
                let cc = *index
                    .get(&(cell.tree, cell.level - 1, parent_anchor))
                    .expect("coarse parent cell not found — not a global coarsening?");
                let code = (((cell.anchor[0] - parent_anchor[0]) / size)
                    + 2 * ((cell.anchor[1] - parent_anchor[1]) / size)
                    + 4 * ((cell.anchor[2] - parent_anchor[2]) / size))
                    as u8;
                pairs.push((cc, code));
            }
        }
        Self::with_matrices(FineSpace::Cg(fine), coarse, pairs, m_full, m_child)
    }

    /// Fine-space size.
    pub fn n_fine(&self) -> usize {
        self.fine.n_dofs()
    }

    /// Coarse-space size.
    pub fn n_coarse(&self) -> usize {
        self.coarse.n_dofs
    }

    fn matrices_for(&self, code: u8) -> [&DMatrix<T>; 3] {
        if code == 255 {
            [&self.m_full; 3]
        } else {
            [
                &self.m_child[(code & 1) as usize],
                &self.m_child[((code >> 1) & 1) as usize],
                &self.m_child[((code >> 2) & 1) as usize],
            ]
        }
    }

    fn matrices_t_for(&self, code: u8) -> [&DMatrix<T>; 3] {
        if code == 255 {
            [&self.mt_full; 3]
        } else {
            [
                &self.mt_child[(code & 1) as usize],
                &self.mt_child[((code >> 1) & 1) as usize],
                &self.mt_child[((code >> 2) & 1) as usize],
            ]
        }
    }

    /// `fine += P coarse`.
    pub fn prolongate_add(&self, coarse_vec: &[T], fine_vec: &mut [T]) {
        let nc1 = self.coarse.mf.n_1d();
        let nf1 = self.fine.n1();
        let dpc_c = self.coarse.mf.dofs_per_cell;
        let dpc_f = nf1 * nf1 * nf1;
        let mut cl = vec![T::ZERO; dpc_c];
        let mut t0 = vec![dgflow_simd::Simd::<T, 1>::zero(); nf1 * nc1 * nc1];
        let mut t1 = vec![dgflow_simd::Simd::<T, 1>::zero(); nf1 * nf1 * nc1];
        let mut t2 = vec![dgflow_simd::Simd::<T, 1>::zero(); dpc_f];
        let mut src = vec![dgflow_simd::Simd::<T, 1>::zero(); dpc_c];
        for (fc, &(cc, code)) in self.pairs.iter().enumerate() {
            self.coarse.gather(cc as usize, coarse_vec, &mut cl);
            for (s, &v) in src.iter_mut().zip(&cl) {
                s.0[0] = v;
            }
            let m = self.matrices_for(code);
            apply_1d(m[0], &src, &mut t0, [nc1, nc1, nc1], 0, false);
            apply_1d(m[1], &t0, &mut t1, [nf1, nc1, nc1], 1, false);
            apply_1d(m[2], &t1, &mut t2, [nf1, nf1, nc1], 2, false);
            match &self.fine {
                FineSpace::Dg(mf) => {
                    let base = fc * mf.dofs_per_cell;
                    for i in 0..dpc_f {
                        fine_vec[base + i] += t2[i].0[0];
                    }
                }
                FineSpace::Cg(s) => {
                    let base = fc * dpc_f;
                    for i in 0..dpc_f {
                        let d = s.l2g[base + i] as usize;
                        fine_vec[d] += self.weights[base + i] * t2[i].0[0];
                    }
                }
            }
        }
        debug_assert_eq!(tensor_len([nf1, nf1, nf1]), dpc_f);
    }

    /// `coarse = Pᵀ fine` (coarse is overwritten; constrained coarse
    /// entries are zeroed).
    pub fn restrict(&self, fine_vec: &[T], coarse_vec: &mut [T]) {
        coarse_vec.iter_mut().for_each(|v| *v = T::ZERO);
        let out = SharedMut::new(coarse_vec);
        let nc1 = self.coarse.mf.n_1d();
        let nf1 = self.fine.n1();
        let dpc_c = self.coarse.mf.dofs_per_cell;
        let dpc_f = nf1 * nf1 * nf1;
        let mut fl = vec![dgflow_simd::Simd::<T, 1>::zero(); dpc_f];
        let mut t0 = vec![dgflow_simd::Simd::<T, 1>::zero(); nc1 * nf1 * nf1];
        let mut t1 = vec![dgflow_simd::Simd::<T, 1>::zero(); nc1 * nc1 * nf1];
        let mut t2 = vec![dgflow_simd::Simd::<T, 1>::zero(); dpc_c];
        let mut local = vec![T::ZERO; dpc_c];
        for (fc, &(cc, code)) in self.pairs.iter().enumerate() {
            // read fine local values (plain, weighted)
            match &self.fine {
                FineSpace::Dg(mf) => {
                    let base = fc * mf.dofs_per_cell;
                    for i in 0..dpc_f {
                        fl[i].0[0] = fine_vec[base + i];
                    }
                }
                FineSpace::Cg(s) => {
                    let base = fc * dpc_f;
                    for i in 0..dpc_f {
                        fl[i].0[0] = self.weights[base + i] * fine_vec[s.l2g[base + i] as usize];
                    }
                }
            }
            let mt = self.matrices_t_for(code);
            apply_1d(mt[0], &fl, &mut t0, [nf1, nf1, nf1], 0, false);
            apply_1d(mt[1], &t0, &mut t1, [nc1, nf1, nf1], 1, false);
            apply_1d(mt[2], &t1, &mut t2, [nc1, nc1, nf1], 2, false);
            for (lv, t) in local.iter_mut().zip(&t2) {
                *lv = t.0[0];
            }
            // SAFETY: serial loop
            unsafe { self.coarse.scatter_add(cc as usize, &local, &out) };
        }
        for (i, &c) in self.coarse.constrained.iter().enumerate() {
            if c {
                coarse_vec[i] = T::ZERO;
            }
        }
        let _ = dpc_c;
    }
}
