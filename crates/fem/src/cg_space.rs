//! Continuous (CG) finite element spaces on the forest — the auxiliary
//! spaces of the hybrid multigrid hierarchy (Sec. 3.4).
//!
//! DoFs are identified geometrically (shared Gauss–Lobatto node positions
//! merge into one unknown) and hanging-face nodes carry interpolation
//! constraints against the coarse side's trace, resolved through chains.
//! The Laplacian on these levels needs only cell integrals (the function is
//! continuous) plus Nitsche boundary faces — reusing the DG kernels.

use crate::batch::FaceBatch;
use crate::diagonal::{face_coefficients, DiagonalScratch, DiagonalTables};
use crate::evaluator::{
    apply_cell_laplace, evaluate_face, evaluate_gradients, evaluate_values, integrate,
    integrate_face, integrate_ref, laplace_cell_coeff, CellScratch, FaceScratch, FaceSideDesc,
};
use crate::geometry::{LaneScratch, Mapping};
use crate::matrixfree::{tangential, MatrixFree, MfParams};
use crate::operators::laplace::BoundaryCondition;
use crate::util::SharedMut;
use dgflow_mesh::{Forest, Manifold};
use dgflow_simd::{Real, Simd};
use dgflow_solvers::LinearOperator;
use dgflow_tensor::{LagrangeBasis1D, NodeSet};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Precomputed, batch-transposed constraint gather/scatter plan for one
/// SIMD batch of cells (or one face side of a face batch): the index table
/// drives [`Simd::gather_u32`] batched loads for the (vastly dominant)
/// unconstrained nodes, and the few constrained `(node, lane)` pairs keep
/// their resolved scalar rows.
pub struct GatherPlan<const L: usize> {
    /// `idx[i][l]`: global dof of lane `l`'s local node `i`; `u32::MAX`
    /// marks inactive lanes and constrained nodes (listed in `special`).
    pub idx: Vec<[u32; L]>,
    /// Constrained nodes as `(local node, lane, entries lo, entries hi)`
    /// ranges into [`CgSpace::entries`].
    pub special: Vec<(u32, u8, u32, u32)>,
}

/// A continuous nodal space with hanging-node constraints.
pub struct CgSpace<T: Real, const L: usize> {
    /// Matrix-free data (GaussLobatto node set).
    pub mf: Arc<MatrixFree<T, L>>,
    /// Number of global CG DoFs.
    pub n_dofs: usize,
    /// Local→global map: `l2g[cell*dpc + node]`.
    pub l2g: Vec<u32>,
    /// Resolved constraint rows per (cell, local node):
    /// `entries[row_ptr[i]..row_ptr[i+1]]` = `(global dof, weight)`.
    pub row_ptr: Vec<u32>,
    /// Constraint entries.
    pub entries: Vec<(u32, T)>,
    /// Per global dof: constrained flag.
    pub constrained: Vec<bool>,
    /// Global dof positions (diagnostics/tests).
    pub positions: Vec<[f64; 3]>,
    /// Conflict-free coloring of *cell* batches (cells share dofs).
    pub cell_colors: Vec<Vec<usize>>,
    /// Vectorized gather/scatter plan per cell batch.
    pub cell_plans: Vec<GatherPlan<L>>,
    /// Plans for the minus side of boundary face batches (`None` for
    /// interior faces, which CG operators never touch).
    pub face_plans: Vec<Option<GatherPlan<L>>>,
    /// Per cell: true when no local node carries a constraint row, so
    /// scalar gathers may index `l2g` directly.
    pub cell_simple: Vec<bool>,
}

impl<T: Real, const L: usize> CgSpace<T, L> {
    /// Build a degree-`degree` continuous space over the forest.
    pub fn new(forest: &Forest, manifold: &dyn Manifold, degree: usize) -> Self {
        let mapping = Mapping::build(forest, manifold, MfParams::cg(degree).mapping_degree);
        Self::with_mapping(forest, Arc::new(mapping), degree)
    }

    /// Build on an existing geometry sampling of `forest` (whose degree
    /// must be [`MfParams::cg`]'s mapping degree): contexts on the same
    /// mapping share its metric terms.
    pub fn with_mapping(forest: &Forest, mapping: Arc<Mapping>, degree: usize) -> Self {
        let mf = MatrixFree::with_mapping(forest, mapping, MfParams::cg(degree));
        Self::from_mf(forest, Arc::new(mf))
    }

    /// Build from an existing GaussLobatto matrix-free context.
    pub fn from_mf(forest: &Forest, mf: Arc<MatrixFree<T, L>>) -> Self {
        let _sp = dgflow_trace::span("fem", "cg_space.new");
        let (l2g, positions) = number_dofs(forest, &mf);
        Self::from_numbering(mf, l2g, positions)
    }

    /// [`CgSpace::from_mf`] through the reference DoF identification
    /// (pointwise mapping evaluation, SipHash grid probed in neighbor
    /// order). Test oracle for the fast numbering, which must reproduce
    /// its `l2g` exactly.
    pub fn from_mf_reference(forest: &Forest, mf: Arc<MatrixFree<T, L>>) -> Self {
        let (l2g, positions) = number_dofs_reference(forest, &mf);
        Self::from_numbering(mf, l2g, positions)
    }

    /// Constraints, colors and gather plans of a numbered space.
    fn from_numbering(mf: Arc<MatrixFree<T, L>>, l2g: Vec<u32>, positions: Vec<[f64; 3]>) -> Self {
        assert_eq!(mf.params.node_set, NodeSet::GaussLobatto);
        let degree = mf.params.degree;
        let n1 = degree + 1;
        let dpc = mf.dofs_per_cell;
        let nodes = NodeSet::GaussLobatto.nodes(degree);
        let n_cells = mf.n_cells;
        let n_dofs = positions.len();

        // ---- hanging-node constraints ------------------------------------
        let basis = LagrangeBasis1D::new(nodes.clone());
        let mut raw: HashMap<u32, Vec<(u32, f64)>> = HashMap::new();
        let local_index = |face: usize, a: usize, b: usize| -> usize {
            let d = face / 2;
            let s = face % 2;
            let (t1, t2) = tangential(d);
            let mut idx = [0usize; 3];
            idx[d] = if s == 0 { 0 } else { n1 - 1 };
            idx[t1] = a;
            idx[t2] = b;
            idx[0] + n1 * (idx[1] + n1 * idx[2])
        };
        for f in &mf.faces {
            let Some(sub) = f.subface else { continue };
            let plus = f.plus.expect("hanging faces are interior") as usize;
            let minus = f.minus as usize;
            let (c1, c2) = (f64::from(sub & 1), f64::from((sub >> 1) & 1));
            // orientation maps minus frame → plus frame; we need the inverse
            let inv = f.orientation.inverse();
            for b in 0..n1 {
                for a in 0..n1 {
                    let slave_local = local_index(f.face_plus as usize, a, b);
                    let slave = l2g[plus * dpc + slave_local];
                    // plus-face coords of this node → subface-local minus
                    // coords → minus-face coords
                    let (u, v) = inv.map_unit(nodes[a], nodes[b]);
                    let up = 0.5 * (u + c1);
                    let vp = 0.5 * (v + c2);
                    let wa = basis.values_at(up);
                    let wb = basis.values_at(vp);
                    let mut row: Vec<(u32, f64)> = Vec::new();
                    for j in 0..n1 {
                        for i in 0..n1 {
                            let w = wa[i] * wb[j];
                            if w.abs() > 1e-12 {
                                let master =
                                    l2g[minus * dpc + local_index(f.face_minus as usize, i, j)];
                                row.push((master, w));
                            }
                        }
                    }
                    // identity row (node coincides with a coarse node):
                    // not a constraint
                    if row.len() == 1 && row[0].0 == slave && (row[0].1 - 1.0).abs() < 1e-10 {
                        continue;
                    }
                    raw.insert(slave, row);
                }
            }
        }
        // resolve constraint chains (slave depending on slave)
        let mut resolved: HashMap<u32, Vec<(u32, f64)>> = HashMap::new();
        for (&slave, row) in &raw {
            let mut current = row.clone();
            for _ in 0..16 {
                if !current.iter().any(|&(d, _)| raw.contains_key(&d)) {
                    break;
                }
                let mut next: HashMap<u32, f64> = HashMap::new();
                for &(d, w) in &current {
                    if let Some(sub) = raw.get(&d) {
                        for &(dd, ww) in sub {
                            *next.entry(dd).or_insert(0.0) += w * ww;
                        }
                    } else {
                        *next.entry(d).or_insert(0.0) += w;
                    }
                }
                current = next.into_iter().collect();
            }
            assert!(
                !current.iter().any(|&(d, _)| raw.contains_key(&d)),
                "constraint chain did not resolve"
            );
            resolved.insert(slave, current);
        }
        let mut constrained = vec![false; n_dofs];
        for &s in resolved.keys() {
            constrained[s as usize] = true;
        }

        // ---- per-local-node resolved rows ---------------------------------
        let mut row_ptr = Vec::with_capacity(n_cells * dpc + 1);
        let mut entries: Vec<(u32, T)> = Vec::new();
        row_ptr.push(0u32);
        for c in 0..n_cells {
            for i in 0..dpc {
                let dof = l2g[c * dpc + i];
                match resolved.get(&dof) {
                    Some(row) => {
                        for &(d, w) in row {
                            entries.push((d, T::from_f64(w)));
                        }
                    }
                    None => entries.push((dof, T::ONE)),
                }
                row_ptr.push(entries.len() as u32);
            }
        }

        // ---- cell-batch coloring (cells share global dofs) -----------------
        let cell_colors = {
            let batches = &mf.cell_batches;
            let mut color_of_dof: Vec<Vec<u32>> = vec![Vec::new(); n_dofs];
            let mut colors: Vec<Vec<usize>> = Vec::new();
            for (bi, b) in batches.iter().enumerate() {
                let mut dofs: Vec<u32> = Vec::new();
                for l in 0..b.n_filled {
                    let cell = b.cells[l] as usize;
                    for i in 0..dpc {
                        let lo = row_ptr[cell * dpc + i] as usize;
                        let hi = row_ptr[cell * dpc + i + 1] as usize;
                        for &(d, _) in &entries[lo..hi] {
                            dofs.push(d);
                        }
                    }
                }
                dofs.sort_unstable();
                dofs.dedup();
                let mut c = 0u32;
                'search: loop {
                    for &d in &dofs {
                        if color_of_dof[d as usize].contains(&c) {
                            c += 1;
                            continue 'search;
                        }
                    }
                    break;
                }
                if c as usize == colors.len() {
                    colors.push(Vec::new());
                }
                colors[c as usize].push(bi);
                for &d in &dofs {
                    color_of_dof[d as usize].push(c);
                }
            }
            colors
        };

        // ---- vectorized gather/scatter plans ------------------------------
        let build_plan = |cells: &[u32], n_filled: usize| -> GatherPlan<L> {
            let mut idx = vec![[u32::MAX; L]; dpc];
            let mut special = Vec::new();
            for (l, &cell) in cells.iter().enumerate().take(n_filled) {
                if cell == u32::MAX {
                    continue;
                }
                let cell = cell as usize;
                for (i, ix) in idx.iter_mut().enumerate() {
                    let dof = l2g[cell * dpc + i];
                    if constrained[dof as usize] {
                        special.push((
                            i as u32,
                            l as u8,
                            row_ptr[cell * dpc + i],
                            row_ptr[cell * dpc + i + 1],
                        ));
                    } else {
                        ix[l] = dof;
                    }
                }
            }
            GatherPlan { idx, special }
        };
        let cell_plans: Vec<GatherPlan<L>> = mf
            .cell_batches
            .iter()
            .map(|b| build_plan(&b.cells, b.n_filled))
            .collect();
        let face_plans: Vec<Option<GatherPlan<L>>> = mf
            .face_batches
            .iter()
            .map(|b| {
                b.category
                    .is_boundary
                    .then(|| build_plan(&b.minus, b.n_filled))
            })
            .collect();
        let cell_simple: Vec<bool> = (0..n_cells)
            .map(|c| (0..dpc).all(|i| !constrained[l2g[c * dpc + i] as usize]))
            .collect();

        Self {
            mf,
            n_dofs,
            l2g,
            row_ptr,
            entries,
            constrained,
            positions,
            cell_colors,
            cell_plans,
            face_plans,
            cell_simple,
        }
    }

    /// Gather cell-local nodal values resolving constraints.
    pub fn gather(&self, cell: usize, src: &[T], out: &mut [T]) {
        let dpc = self.mf.dofs_per_cell;
        if self.cell_simple[cell] {
            // no constrained nodes: every row is exactly (l2g dof, 1)
            let base = cell * dpc;
            for (i, o) in out.iter_mut().enumerate().take(dpc) {
                *o = src[self.l2g[base + i] as usize];
            }
            return;
        }
        self.gather_ref(cell, src, out);
    }

    /// Reference constraint gather: walk the resolved row of every local
    /// node. Equivalence baseline for the plan-driven and `cell_simple`
    /// fast paths.
    pub fn gather_ref(&self, cell: usize, src: &[T], out: &mut [T]) {
        let dpc = self.mf.dofs_per_cell;
        for (i, o) in out.iter_mut().enumerate().take(dpc) {
            let lo = self.row_ptr[cell * dpc + i] as usize;
            let hi = self.row_ptr[cell * dpc + i + 1] as usize;
            let mut v = T::ZERO;
            for &(d, w) in &self.entries[lo..hi] {
                v = w.mul_add(src[d as usize], v);
            }
            *o = v;
        }
    }

    /// Scatter-add cell-local values, distributing constrained
    /// contributions to their masters.
    ///
    /// # Safety
    /// Concurrent callers must target dof-disjoint cells (use
    /// `cell_colors`).
    pub unsafe fn scatter_add(&self, cell: usize, vals: &[T], dst: &SharedMut<T>) {
        let dpc = self.mf.dofs_per_cell;
        if self.cell_simple[cell] {
            let base = cell * dpc;
            for (i, &v) in vals.iter().enumerate().take(dpc) {
                // SAFETY: `l2g` holds valid global dofs; exclusivity is the
                // caller's contract above.
                unsafe { *dst.at(self.l2g[base + i] as usize) += v };
            }
            return;
        }
        for (i, &v) in vals.iter().enumerate().take(dpc) {
            let lo = self.row_ptr[cell * dpc + i] as usize;
            let hi = self.row_ptr[cell * dpc + i + 1] as usize;
            for &(d, w) in &self.entries[lo..hi] {
                // SAFETY: `d` is a valid global dof (built alongside dst's
                // sizing); exclusivity is the caller's contract above.
                unsafe { *dst.at(d as usize) += w * v };
            }
        }
    }

    /// Vectorized batch gather through a precomputed [`GatherPlan`]:
    /// batched indexed loads for unconstrained nodes, resolved scalar rows
    /// for the constrained remainder. Inactive lanes read zero.
    pub fn gather_batch(&self, plan: &GatherPlan<L>, src: &[T], out: &mut [Simd<T, L>]) {
        for (o, ix) in out.iter_mut().zip(&plan.idx) {
            *o = Simd::gather_u32(src, ix);
        }
        for &(node, lane, lo, hi) in &plan.special {
            let mut v = T::ZERO;
            for &(d, w) in &self.entries[lo as usize..hi as usize] {
                v = w.mul_add(src[d as usize], v);
            }
            out[node as usize][lane as usize] = v;
        }
    }

    /// Transpose of [`CgSpace::gather_batch`]: scatter-add a batch through
    /// its plan, distributing constrained contributions to their masters.
    ///
    /// # Safety
    /// Concurrent callers must target dof-disjoint batches (use
    /// `cell_colors` / face colors); every access still goes through
    /// [`SharedMut::at`], so the `check-disjoint` recorder sees it.
    pub unsafe fn scatter_add_batch(
        &self,
        plan: &GatherPlan<L>,
        vals: &[Simd<T, L>],
        dst: &SharedMut<T>,
    ) {
        for (v, ix) in vals.iter().zip(&plan.idx) {
            for l in 0..L {
                let d = ix[l];
                if d != u32::MAX {
                    // SAFETY: plan indices are valid global dofs; exclusivity
                    // is the caller's contract above.
                    unsafe { *dst.at(d as usize) += v[l] };
                }
            }
        }
        for &(node, lane, lo, hi) in &plan.special {
            let v = vals[node as usize][lane as usize];
            for &(d, w) in &self.entries[lo as usize..hi as usize] {
                // SAFETY: as above.
                unsafe { *dst.at(d as usize) += w * v };
            }
        }
    }

    /// Interpolate a function: nodal values at every dof position (the
    /// constrained entries receive the function value, which coincides with
    /// their interpolated value only in the limit — operators ignore them).
    pub fn interpolate(&self, f: &(dyn Fn([f64; 3]) -> f64 + Sync)) -> Vec<T> {
        self.positions.iter().map(|&p| T::from_f64(f(p))).collect()
    }
}

/// Tolerance of the geometric DoF identification: positions closer than
/// `2 eps` merge, with `eps = 1e-8` of the coarse mesh's diameter.
fn identification_eps(forest: &Forest) -> f64 {
    1e-8 * forest.coarse.diameter().max(1e-30)
}

/// Integer grid cell of `p` at spacing `eps`.
fn grid_key(p: [f64; 3], eps: f64) -> (i64, i64, i64) {
    (
        (p[0] / eps).round() as i64,
        (p[1] / eps).round() as i64,
        (p[2] / eps).round() as i64,
    )
}

/// The 4×4×4 block of grid keys holding `k`.
fn block_of(k: (i64, i64, i64)) -> (i64, i64, i64) {
    (k.0 >> 2, k.1 >> 2, k.2 >> 2)
}

/// True when a block overlapping the 3×3×3 key neighborhood of `k` holds a
/// DoF.
fn near_occupied(
    blocks: &HashSet<(i64, i64, i64), BuildHasherDefault<GridHasher>>,
    k: (i64, i64, i64),
) -> bool {
    let (lo, hi) = (
        block_of((k.0 - 1, k.1 - 1, k.2 - 1)),
        block_of((k.0 + 1, k.1 + 1, k.2 + 1)),
    );
    (lo.0..=hi.0).any(|x| (lo.1..=hi.1).any(|y| (lo.2..=hi.2).any(|z| blocks.contains(&(x, y, z)))))
}

/// Multiply–rotate hasher for the integer grid keys of the DoF
/// identification: SipHash's flooding resistance buys nothing on keys
/// derived from node coordinates.
#[derive(Default)]
struct GridHasher(u64);

impl Hasher for GridHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
}

/// Geometric DoF identification: Gauss–Lobatto nodes at the same position
/// (within `2 eps`) share one global DoF, numbered in order of first
/// appearance (cell-major, lexicographic nodes). Node positions come from
/// per-node 1-D mapping-basis tables, a cell batch at a time, bit-for-bit
/// equal to the pointwise [`Mapping::position`]; each lookup probes the
/// node's own grid bucket first and its 26 neighbors only when a DoF lies
/// near them. The numbering equals [`number_dofs_reference`]'s as long as
/// no two DoFs lie within `4 eps` of each other (a node can then match
/// at most one of them, so the probe order cannot matter).
fn number_dofs<T: Real, const L: usize>(
    forest: &Forest,
    mf: &MatrixFree<T, L>,
) -> (Vec<u32>, Vec<[f64; 3]>) {
    let n1 = mf.params.degree + 1;
    let dpc = mf.dofs_per_cell;
    let nodes = NodeSet::GaussLobatto.nodes(mf.params.degree);
    let node_values: Vec<Vec<f64>> = nodes.iter().map(|&x| mf.mapping.basis_values(x)).collect();
    let eps = identification_eps(forest);
    let mut grid: HashMap<(i64, i64, i64), u32, BuildHasherDefault<GridHasher>> =
        HashMap::default();
    // occupied 4×4×4 blocks of grid keys: a node whose own bucket is empty
    // probes its 26 neighbors only when one of their blocks holds a DoF
    let mut blocks: HashSet<(i64, i64, i64), BuildHasherDefault<GridHasher>> = HashSet::default();
    let mut positions: Vec<[f64; 3]> = Vec::new();
    let mut l2g = vec![0u32; mf.n_cells * dpc];
    let matches = |d: u32, p: [f64; 3], positions: &[[f64; 3]]| {
        let q = positions[d as usize];
        let dist2 = (q[0] - p[0]).powi(2) + (q[1] - p[1]).powi(2) + (q[2] - p[2]).powi(2);
        dist2 < (2.0 * eps) * (2.0 * eps)
    };
    // node positions of one cell batch at a time, then identification in
    // cell-major, lexicographic node order
    let mut lanes = LaneScratch::<L>::new(&mf.mapping);
    let mut batch_pos = vec![[[0.0; L]; 3]; dpc];
    for b in &mf.cell_batches {
        lanes.load(&mf.mapping, &b.cells, b.n_filled);
        for i2 in 0..n1 {
            for i1 in 0..n1 {
                for i0 in 0..n1 {
                    let v = [&node_values[i0][..], &node_values[i1], &node_values[i2]];
                    batch_pos[i0 + n1 * (i1 + n1 * i2)] = lanes.position(v);
                }
            }
        }
        for l in 0..b.n_filled {
            let c = b.cells[l] as usize;
            for (local, pos) in batch_pos.iter().enumerate() {
                let p = [pos[0][l], pos[1][l], pos[2][l]];
                let k = grid_key(p, eps);
                let mut found = grid.get(&k).copied().filter(|&d| matches(d, p, &positions));
                // neighbor buckets only when a DoF lies in their block
                if found.is_none() && near_occupied(&blocks, k) {
                    'search: for dx in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dz in -1i64..=1 {
                                if (dx, dy, dz) == (0, 0, 0) {
                                    continue;
                                }
                                if let Some(&d) = grid.get(&(k.0 + dx, k.1 + dy, k.2 + dz)) {
                                    if matches(d, p, &positions) {
                                        found = Some(d);
                                        break 'search;
                                    }
                                }
                            }
                        }
                    }
                }
                l2g[c * dpc + local] = found.unwrap_or_else(|| {
                    let d = positions.len() as u32;
                    positions.push(p);
                    grid.insert(k, d);
                    blocks.insert(block_of(k));
                    d
                });
            }
        }
    }
    (l2g, positions)
}

/// Reference DoF identification: pointwise [`Mapping::position`], SipHash
/// grid, neighbors probed in lexicographic offset order. Oracle for
/// [`number_dofs`].
fn number_dofs_reference<T: Real, const L: usize>(
    forest: &Forest,
    mf: &MatrixFree<T, L>,
) -> (Vec<u32>, Vec<[f64; 3]>) {
    let n1 = mf.params.degree + 1;
    let dpc = mf.dofs_per_cell;
    let nodes = NodeSet::GaussLobatto.nodes(mf.params.degree);
    let n_cells = mf.n_cells;
    let eps = identification_eps(forest);
    let mut grid: HashMap<(i64, i64, i64), u32> = HashMap::new();
    let mut positions: Vec<[f64; 3]> = Vec::new();
    let mut l2g = vec![0u32; n_cells * dpc];
    for c in 0..n_cells {
        for i2 in 0..n1 {
            for i1 in 0..n1 {
                for i0 in 0..n1 {
                    let local = i0 + n1 * (i1 + n1 * i2);
                    let p = mf.mapping.position(c, [nodes[i0], nodes[i1], nodes[i2]]);
                    let k = grid_key(p, eps);
                    let mut found = None;
                    'search: for dx in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dz in -1i64..=1 {
                                if let Some(&d) = grid.get(&(k.0 + dx, k.1 + dy, k.2 + dz)) {
                                    let q = positions[d as usize];
                                    let dist2 = (q[0] - p[0]).powi(2)
                                        + (q[1] - p[1]).powi(2)
                                        + (q[2] - p[2]).powi(2);
                                    if dist2 < (2.0 * eps) * (2.0 * eps) {
                                        found = Some(d);
                                        break 'search;
                                    }
                                }
                            }
                        }
                    }
                    let dof = match found {
                        Some(d) => d,
                        None => {
                            let d = positions.len() as u32;
                            positions.push(p);
                            grid.insert(k, d);
                            d
                        }
                    };
                    l2g[c * dpc + local] = dof;
                }
            }
        }
    }
    (l2g, positions)
}

/// SIPG/Nitsche Laplacian on a continuous space: cell terms + boundary
/// faces only (interior jumps vanish).
pub struct CgLaplaceOperator<T: Real, const L: usize> {
    /// The space.
    pub space: Arc<CgSpace<T, L>>,
    /// Per-boundary-id condition.
    pub bc: Vec<BoundaryCondition>,
    /// Per-batch merged symmetric cell coefficient for the fused kernel.
    coeff: Vec<Vec<Simd<T, L>>>,
    /// Modeled Flop per application, for the roofline tag on the
    /// `cg_laplace.apply` span.
    flops_per_apply: f64,
}

impl<T: Real, const L: usize> CgLaplaceOperator<T, L> {
    /// All-Dirichlet boundary.
    pub fn new(space: Arc<CgSpace<T, L>>) -> Self {
        Self::with_bc(space, Vec::new())
    }

    /// Explicit boundary conditions.
    pub fn with_bc(space: Arc<CgSpace<T, L>>, bc: Vec<BoundaryCondition>) -> Self {
        let coeff = laplace_cell_coeff(&space.mf);
        // The DG work model over-counts the (cheaper) CG apply — shared
        // dofs and no interior face terms — but keeps the span tags on one
        // consistent scale across the multigrid hierarchy.
        let counts = dgflow_perfmodel::LaplaceCounts::new(
            space.mf.params.degree,
            std::mem::size_of::<T>() as f64,
        );
        let flops_per_apply = counts.flops_per_dof * space.n_dofs as f64;
        Self {
            space,
            bc,
            coeff,
            flops_per_apply,
        }
    }

    fn bc_of(&self, id: u32) -> BoundaryCondition {
        self.bc
            .get(id as usize)
            .copied()
            .unwrap_or(BoundaryCondition::Dirichlet)
    }

    /// Reference batch gather: per-lane scalar constraint gathers through
    /// [`CgSpace::gather_ref`], transposed into lanes. Equivalence baseline
    /// for the plan-driven [`CgSpace::gather_batch`].
    fn gather_batch_ref(&self, b: &crate::batch::CellBatch<L>, src: &[T], out: &mut [Simd<T, L>]) {
        let space = &*self.space;
        let dpc = space.mf.dofs_per_cell;
        let mut local = vec![T::ZERO; dpc];
        for v in out.iter_mut() {
            *v = Simd::zero();
        }
        for l in 0..b.n_filled {
            space.gather_ref(b.cells[l] as usize, src, &mut local);
            for i in 0..dpc {
                out[i][l] = local[i];
            }
        }
    }

    /// Reference batch scatter: per-lane transpose then scalar row walks.
    fn scatter_batch_ref(
        &self,
        b: &crate::batch::CellBatch<L>,
        vals: &[Simd<T, L>],
        dst: &SharedMut<T>,
    ) {
        let space = &*self.space;
        let dpc = space.mf.dofs_per_cell;
        let mut local = vec![T::ZERO; dpc];
        for l in 0..b.n_filled {
            for i in 0..dpc {
                local[i] = vals[i][l];
            }
            // SAFETY: callers iterate one cell color at a time, so batches
            // scattered concurrently target dof-disjoint cells.
            unsafe { space.scatter_add(b.cells[l] as usize, &local, dst) };
        }
    }

    /// Apply the operator through the reference kernels: per-lane scalar
    /// constraint gathers, two-stage Jacobian contraction, unfused
    /// integrate. Exists so the kernel-equivalence suite can pin the
    /// plan-driven fused default path against it.
    pub fn apply_reference(&self, src: &[T], dst: &mut [T]) {
        let space = &*self.space;
        let mf = &*space.mf;
        dst.iter_mut().for_each(|v| *v = T::ZERO);
        let out = SharedMut::new(dst);
        let nq3 = mf.n_q().pow(3);
        for color in &space.cell_colors {
            dgflow_comm::parallel_for_chunks(color.len(), 1, |range| {
                let mut s = CellScratch::<T, L>::new(mf);
                for k in range {
                    let bi = color[k];
                    let b = &mf.cell_batches[bi];
                    let g = &mf.metric.cell_geometry[bi];
                    self.gather_batch_ref(b, src, &mut s.dofs);
                    evaluate_values(mf, &mut s);
                    evaluate_gradients(mf, &mut s);
                    for q in 0..nq3 {
                        let gr = [s.grad[0][q], s.grad[1][q], s.grad[2][q]];
                        let jxw = g.jxw[q];
                        let m = &g.jinvt[q * 9..q * 9 + 9];
                        let mut t = [Simd::<T, L>::zero(); 3];
                        for r in 0..3 {
                            t[r] = (gr[0] * m[3 * r] + gr[1] * m[3 * r + 1] + gr[2] * m[3 * r + 2])
                                * jxw;
                        }
                        for c in 0..3 {
                            s.grad[c][q] = t[0] * m[c] + t[1] * m[3 + c] + t[2] * m[6 + c];
                        }
                    }
                    integrate_ref(mf, &mut s, false, true);
                    self.scatter_batch_ref(b, &s.dofs, &out);
                }
            });
        }
        let nq2 = mf.n_q() * mf.n_q();
        let mut sm = FaceScratch::<T, L>::new(mf);
        for (bi, b) in mf.face_batches.iter().enumerate() {
            let cat: &crate::batch::FaceCategory = &b.category;
            if !cat.is_boundary || self.bc_of(cat.boundary_id) == BoundaryCondition::Neumann {
                continue;
            }
            let fb: &FaceBatch<L> = b;
            let g = &mf.metric.face_geometry[bi];
            let sigma = mf.face_sigma[bi];
            let dpc = mf.dofs_per_cell;
            let mut local = vec![T::ZERO; dpc];
            for v in sm.dofs.iter_mut() {
                *v = Simd::zero();
            }
            for l in 0..fb.n_filled {
                if fb.minus[l] == u32::MAX {
                    continue;
                }
                space.gather_ref(fb.minus[l] as usize, src, &mut local);
                for i in 0..dpc {
                    sm.dofs[i][l] = local[i];
                }
            }
            let desc = FaceSideDesc::minus(fb);
            evaluate_face(mf, desc, true, &mut sm);
            for q in 0..nq2 {
                let u = sm.val[q];
                let dn = sm.grad[0][q] * g.g_minus[q * 3]
                    + sm.grad[1][q] * g.g_minus[q * 3 + 1]
                    + sm.grad[2][q] * g.g_minus[q * 3 + 2];
                let jxw = g.jxw[q];
                let vflux = (u * sigma * T::from_f64(2.0) - dn) * jxw;
                let gsc = -(u * jxw);
                sm.val[q] = vflux;
                for d in 0..3 {
                    sm.grad[d][q] = g.g_minus[q * 3 + d] * gsc;
                }
            }
            integrate_face(mf, desc, true, &mut sm);
            for l in 0..fb.n_filled {
                for i in 0..dpc {
                    local[i] = sm.dofs[i][l];
                }
                // SAFETY: the boundary loop is serial.
                unsafe { space.scatter_add(fb.minus[l] as usize, &local, &out) };
            }
        }
        for (i, &c) in space.constrained.iter().enumerate() {
            if c {
                dst[i] = src[i];
            }
        }
    }

    /// Dirichlet boundary data → right-hand side (Nitsche lifting).
    pub fn boundary_rhs(&self, gfun: &(dyn Fn([f64; 3]) -> f64 + Sync)) -> Vec<T> {
        let space = &*self.space;
        let mf = &*space.mf;
        let mut rhs = vec![T::ZERO; space.n_dofs];
        let dst = SharedMut::new(&mut rhs);
        let nq2 = mf.n_q() * mf.n_q();
        let dpc = mf.dofs_per_cell;
        let mut sm = FaceScratch::<T, L>::new(mf);
        let mut local = vec![T::ZERO; dpc];
        for (bi, b) in mf.face_batches.iter().enumerate() {
            let cat = b.category;
            if !cat.is_boundary || self.bc_of(cat.boundary_id) != BoundaryCondition::Dirichlet {
                continue;
            }
            let g = &mf.metric.face_geometry[bi];
            let sigma = mf.face_sigma[bi];
            for q in 0..nq2 {
                let mut gv = Simd::<T, L>::zero();
                for l in 0..b.n_filled {
                    let x = [
                        g.positions[q * 3][l].to_f64(),
                        g.positions[q * 3 + 1][l].to_f64(),
                        g.positions[q * 3 + 2][l].to_f64(),
                    ];
                    gv[l] = T::from_f64(gfun(x));
                }
                let jxw = g.jxw[q];
                sm.val[q] = gv * sigma * T::from_f64(2.0) * jxw;
                for d in 0..3 {
                    sm.grad[d][q] = -(g.g_minus[q * 3 + d] * gv * jxw);
                }
            }
            integrate_face(mf, FaceSideDesc::minus(b), true, &mut sm);
            for l in 0..b.n_filled {
                for i in 0..dpc {
                    local[i] = sm.dofs[i][l];
                }
                // SAFETY: the boundary-face loop runs one face color at a
                // time, so concurrent scatters hit dof-disjoint cells.
                unsafe { space.scatter_add(b.minus[l] as usize, &local, &dst) };
            }
        }
        for (i, &c) in space.constrained.iter().enumerate() {
            if c {
                rhs[i] = T::ZERO;
            }
        }
        rhs
    }

    /// Approximate diagonal (exact on cell blocks, constraint-distributed
    /// with squared weights — the standard matrix-free approximation), by
    /// sum factorization of the cell and boundary-face blocks (see
    /// [`crate::diagonal`]).
    pub fn compute_diagonal(&self) -> Vec<T> {
        let _sp = dgflow_trace::span("fem", "cg_laplace.diagonal");
        let space = &*self.space;
        let mf = &*space.mf;
        let dpc = mf.dofs_per_cell;
        let nq2 = mf.n_q() * mf.n_q();
        let tables = DiagonalTables::new(mf);
        let mut s = DiagonalScratch::new(&tables);
        let mut local = vec![Simd::<f64, L>::zero(); dpc];
        let mut diag = vec![0.0f64; space.n_dofs];
        let mut distribute = |cells: &[u32; L], n_filled: usize, local: &[Simd<f64, L>]| {
            for (l, &cell) in cells.iter().enumerate().take(n_filled) {
                let cell = cell as usize;
                for (i, v) in local.iter().enumerate() {
                    let lo = space.row_ptr[cell * dpc + i] as usize;
                    let hi = space.row_ptr[cell * dpc + i + 1] as usize;
                    for &(d, w) in &space.entries[lo..hi] {
                        let w = w.to_f64();
                        diag[d as usize] += w * w * v[l];
                    }
                }
            }
        };
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            tables.cell(&self.coeff[bi], &mut s, &mut local);
            distribute(&b.cells, b.n_filled, &local);
        }
        // boundary Nitsche contributions
        let mut c_val = vec![Simd::<f64, L>::zero(); nq2];
        let mut c_grad = [(); 3].map(|_| vec![Simd::<f64, L>::zero(); nq2]);
        for (bi, b) in mf.face_batches.iter().enumerate() {
            let cat = b.category;
            if !cat.is_boundary || self.bc_of(cat.boundary_id) == BoundaryCondition::Neumann {
                continue;
            }
            let g = &mf.metric.face_geometry[bi];
            face_coefficients(
                mf.face_sigma[bi],
                &g.jxw,
                &g.g_minus,
                2.0,
                1.0,
                &mut c_val,
                &mut c_grad,
            );
            local.iter_mut().for_each(|v| *v = Simd::zero());
            tables.face_side(FaceSideDesc::minus(b), &c_val, &c_grad, &mut s, &mut local);
            distribute(&b.minus, b.n_filled, &local);
        }
        for (i, &c) in space.constrained.iter().enumerate() {
            if c || diag[i] == 0.0 {
                diag[i] = 1.0;
            }
        }
        diag.into_iter().map(T::from_f64).collect()
    }

    /// Reference diagonal: apply the local cell and boundary-face kernels
    /// to every unit vector, then distribute with squared constraint
    /// weights. Test oracle for the sum-factorized
    /// [`CgLaplaceOperator::compute_diagonal`].
    pub fn compute_diagonal_reference(&self) -> Vec<T> {
        let space = &*self.space;
        let mf = &*space.mf;
        let dpc = mf.dofs_per_cell;
        let nq3 = mf.n_q().pow(3);
        let mut diag = vec![T::ZERO; space.n_dofs];
        let mut s = CellScratch::<T, L>::new(mf);
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            let g = &mf.metric.cell_geometry[bi];
            for i in 0..dpc {
                for v in s.dofs.iter_mut() {
                    *v = Simd::zero();
                }
                s.dofs[i] = Simd::splat(T::ONE);
                evaluate_values(mf, &mut s);
                evaluate_gradients(mf, &mut s);
                for q in 0..nq3 {
                    let gr = [s.grad[0][q], s.grad[1][q], s.grad[2][q]];
                    let jxw = g.jxw[q];
                    let m = &g.jinvt[q * 9..q * 9 + 9];
                    let mut t = [Simd::<T, L>::zero(); 3];
                    for r in 0..3 {
                        t[r] =
                            (gr[0] * m[3 * r] + gr[1] * m[3 * r + 1] + gr[2] * m[3 * r + 2]) * jxw;
                    }
                    for c in 0..3 {
                        s.grad[c][q] = t[0] * m[c] + t[1] * m[3 + c] + t[2] * m[6 + c];
                    }
                }
                integrate(mf, &mut s, false, true);
                for l in 0..b.n_filled {
                    let cell = b.cells[l] as usize;
                    let lo = space.row_ptr[cell * dpc + i] as usize;
                    let hi = space.row_ptr[cell * dpc + i + 1] as usize;
                    for &(d, w) in &space.entries[lo..hi] {
                        diag[d as usize] += w * w * s.dofs[i][l];
                    }
                }
            }
        }
        // boundary Nitsche contributions
        let nq2 = mf.n_q() * mf.n_q();
        let mut sf = FaceScratch::<T, L>::new(mf);
        for (bi, b) in mf.face_batches.iter().enumerate() {
            let cat = b.category;
            if !cat.is_boundary || self.bc_of(cat.boundary_id) == BoundaryCondition::Neumann {
                continue;
            }
            let g = &mf.metric.face_geometry[bi];
            let sigma = mf.face_sigma[bi];
            let desc = FaceSideDesc::minus(b);
            for i in 0..dpc {
                for v in sf.dofs.iter_mut() {
                    *v = Simd::zero();
                }
                sf.dofs[i] = Simd::splat(T::ONE);
                evaluate_face(mf, desc, true, &mut sf);
                for q in 0..nq2 {
                    let u = sf.val[q];
                    let dn = sf.grad[0][q] * g.g_minus[q * 3]
                        + sf.grad[1][q] * g.g_minus[q * 3 + 1]
                        + sf.grad[2][q] * g.g_minus[q * 3 + 2];
                    let jxw = g.jxw[q];
                    let vflux = (u * sigma * T::from_f64(2.0) - dn) * jxw;
                    let gsc = -(u * jxw);
                    sf.val[q] = vflux;
                    for d in 0..3 {
                        sf.grad[d][q] = g.g_minus[q * 3 + d] * gsc;
                    }
                }
                integrate_face(mf, desc, true, &mut sf);
                for l in 0..b.n_filled {
                    let cell = b.minus[l] as usize;
                    let lo = space.row_ptr[cell * dpc + i] as usize;
                    let hi = space.row_ptr[cell * dpc + i + 1] as usize;
                    for &(d, w) in &space.entries[lo..hi] {
                        diag[d as usize] += w * w * sf.dofs[i][l];
                    }
                }
            }
        }
        for (i, &c) in space.constrained.iter().enumerate() {
            if c || diag[i].to_f64() == 0.0 {
                diag[i] = T::ONE;
            }
        }
        diag
    }

    /// Assemble the full sparse matrix (coarsest level only — feeds the
    /// AMG coarse solver). Local cell/boundary-face matrices are computed
    /// by applying the local kernels to unit vectors, then distributed with
    /// the constraint weights on both sides.
    pub fn assemble(&self) -> dgflow_solvers::CsrMatrix<T> {
        let space = &*self.space;
        let mf = &*space.mf;
        let n = space.n_dofs;
        let dpc = mf.dofs_per_cell;
        let nq3 = mf.n_q().pow(3);
        let nq2 = mf.n_q() * mf.n_q();
        let mut triplets: Vec<(usize, usize, T)> = Vec::new();
        let scatter_local =
            |cell: usize, j_local: usize, column: &[T], triplets: &mut Vec<(usize, usize, T)>| {
                let lo_j = space.row_ptr[cell * dpc + j_local] as usize;
                let hi_j = space.row_ptr[cell * dpc + j_local + 1] as usize;
                for i_local in 0..dpc {
                    let v = column[i_local];
                    if v.to_f64() == 0.0 {
                        continue;
                    }
                    let lo_i = space.row_ptr[cell * dpc + i_local] as usize;
                    let hi_i = space.row_ptr[cell * dpc + i_local + 1] as usize;
                    for &(di, wi) in &space.entries[lo_i..hi_i] {
                        for &(dj, wj) in &space.entries[lo_j..hi_j] {
                            triplets.push((di as usize, dj as usize, wi * v * wj));
                        }
                    }
                }
            };
        // cell blocks
        let mut s = CellScratch::<T, L>::new(mf);
        let mut column = vec![T::ZERO; dpc];
        for (bi, b) in mf.cell_batches.iter().enumerate() {
            let g = &mf.metric.cell_geometry[bi];
            for j in 0..dpc {
                for v in s.dofs.iter_mut() {
                    *v = Simd::zero();
                }
                s.dofs[j] = Simd::splat(T::ONE);
                evaluate_values(mf, &mut s);
                evaluate_gradients(mf, &mut s);
                for q in 0..nq3 {
                    let gr = [s.grad[0][q], s.grad[1][q], s.grad[2][q]];
                    let jxw = g.jxw[q];
                    let m = &g.jinvt[q * 9..q * 9 + 9];
                    let mut t = [Simd::<T, L>::zero(); 3];
                    for r in 0..3 {
                        t[r] =
                            (gr[0] * m[3 * r] + gr[1] * m[3 * r + 1] + gr[2] * m[3 * r + 2]) * jxw;
                    }
                    for c in 0..3 {
                        s.grad[c][q] = t[0] * m[c] + t[1] * m[3 + c] + t[2] * m[6 + c];
                    }
                }
                integrate(mf, &mut s, false, true);
                for l in 0..b.n_filled {
                    for (i, cv) in column.iter_mut().enumerate() {
                        *cv = s.dofs[i][l];
                    }
                    scatter_local(b.cells[l] as usize, j, &column, &mut triplets);
                }
            }
        }
        // boundary Nitsche faces
        let mut sf = FaceScratch::<T, L>::new(mf);
        for (bi, b) in mf.face_batches.iter().enumerate() {
            let cat = b.category;
            if !cat.is_boundary || self.bc_of(cat.boundary_id) == BoundaryCondition::Neumann {
                continue;
            }
            let g = &mf.metric.face_geometry[bi];
            let sigma = mf.face_sigma[bi];
            let desc = FaceSideDesc::minus(b);
            for j in 0..dpc {
                for v in sf.dofs.iter_mut() {
                    *v = Simd::zero();
                }
                sf.dofs[j] = Simd::splat(T::ONE);
                evaluate_face(mf, desc, true, &mut sf);
                for q in 0..nq2 {
                    let u = sf.val[q];
                    let dn = sf.grad[0][q] * g.g_minus[q * 3]
                        + sf.grad[1][q] * g.g_minus[q * 3 + 1]
                        + sf.grad[2][q] * g.g_minus[q * 3 + 2];
                    let jxw = g.jxw[q];
                    let vflux = (u * sigma * T::from_f64(2.0) - dn) * jxw;
                    let gsc = -(u * jxw);
                    sf.val[q] = vflux;
                    for d in 0..3 {
                        sf.grad[d][q] = g.g_minus[q * 3 + d] * gsc;
                    }
                }
                integrate_face(mf, desc, true, &mut sf);
                for l in 0..b.n_filled {
                    for (i, cv) in column.iter_mut().enumerate() {
                        *cv = sf.dofs[i][l];
                    }
                    scatter_local(b.minus[l] as usize, j, &column, &mut triplets);
                }
            }
        }
        // identity rows for constrained dofs
        for (i, &c) in space.constrained.iter().enumerate() {
            if c {
                triplets.push((i, i, T::ONE));
            }
        }
        dgflow_solvers::CsrMatrix::from_triplets(n, n, &triplets)
    }
}

impl<T: Real, const L: usize> LinearOperator<T> for CgLaplaceOperator<T, L> {
    fn len(&self) -> usize {
        self.space.n_dofs
    }

    fn apply(&self, src: &[T], dst: &mut [T]) {
        let _sp = dgflow_trace::span("fem", "cg_laplace.apply").work(self.flops_per_apply);
        let space = &*self.space;
        let mf = &*space.mf;
        dst.iter_mut().for_each(|v| *v = T::ZERO);
        let out = SharedMut::new(dst);
        // Scratch buffers are recycled across chunks and colors (every
        // kernel stage fully overwrites its buffer, so reuse is safe); the
        // lock is per chunk, not per batch.
        let scratch_pool: std::sync::Mutex<Vec<CellScratch<T, L>>> =
            std::sync::Mutex::new(Vec::new());
        for color in &space.cell_colors {
            dgflow_comm::parallel_for_chunks(color.len(), 1, |range| {
                let mut s = {
                    let mut pool = scratch_pool.lock().expect("scratch pool poisoned");
                    pool.pop()
                }
                .unwrap_or_else(|| CellScratch::<T, L>::new(mf));
                for k in range {
                    let bi = color[k];
                    let plan = &space.cell_plans[bi];
                    space.gather_batch(plan, src, &mut s.dofs);
                    apply_cell_laplace(mf, &self.coeff[bi], &mut s);
                    // SAFETY: batches within a color are dof-disjoint.
                    unsafe { space.scatter_add_batch(plan, &s.dofs, &out) };
                }
                scratch_pool.lock().expect("scratch pool poisoned").push(s);
            });
        }
        // boundary Nitsche faces (serial: boundary share of work is small
        // and correctness is simpler without a second coloring)
        let nq2 = mf.n_q() * mf.n_q();
        let mut sm = FaceScratch::<T, L>::new(mf);
        for (bi, b) in mf.face_batches.iter().enumerate() {
            let cat: &crate::batch::FaceCategory = &b.category;
            if !cat.is_boundary || self.bc_of(cat.boundary_id) == BoundaryCondition::Neumann {
                continue;
            }
            let fb: &FaceBatch<L> = b;
            let g = &mf.metric.face_geometry[bi];
            let sigma = mf.face_sigma[bi];
            let plan = space.face_plans[bi]
                .as_ref()
                .expect("boundary faces have plans");
            space.gather_batch(plan, src, &mut sm.dofs);
            let desc = FaceSideDesc::minus(fb);
            evaluate_face(mf, desc, true, &mut sm);
            for q in 0..nq2 {
                let u = sm.val[q];
                let dn = sm.grad[0][q] * g.g_minus[q * 3]
                    + sm.grad[1][q] * g.g_minus[q * 3 + 1]
                    + sm.grad[2][q] * g.g_minus[q * 3 + 2];
                let jxw = g.jxw[q];
                let vflux = (u * sigma * T::from_f64(2.0) - dn) * jxw;
                let gsc = -(u * jxw);
                sm.val[q] = vflux;
                for d in 0..3 {
                    sm.grad[d][q] = g.g_minus[q * 3 + d] * gsc;
                }
            }
            integrate_face(mf, desc, true, &mut sm);
            // SAFETY: the boundary loop is serial.
            unsafe { space.scatter_add_batch(plan, &sm.dofs, &out) };
        }
        // constrained rows act as identity
        for (i, &c) in space.constrained.iter().enumerate() {
            if c {
                dst[i] = src[i];
            }
        }
    }

    fn diagonal(&self) -> Vec<T> {
        self.compute_diagonal()
    }
}
