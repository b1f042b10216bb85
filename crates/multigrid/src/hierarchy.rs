//! The hybrid multigrid preconditioner (Sec. 3.4, Fig. 5): DG → continuous
//! → polynomial bisection → global geometric coarsening → aggregation AMG,
//! with Chebyshev(3)/point-Jacobi smoothing on every matrix-free level and
//! the whole V-cycle run in single precision under a double-precision
//! outer conjugate-gradient solver.

use crate::transfer::Transfer;
use dgflow_fem::cg_space::{CgLaplaceOperator, CgSpace};
use dgflow_fem::operators::laplace::BoundaryCondition;
use dgflow_fem::{LaplaceOperator, Mapping, MatrixFree, MfParams};
use dgflow_mesh::{Forest, Manifold};
use dgflow_simd::Real;
use dgflow_solvers::{
    AlgebraicMultigrid, AmgParams, ChebyshevSmoother, CsrMatrix, LinearOperator, Preconditioner,
};
use std::sync::Arc;

/// Cycle shape of the hierarchy traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleType {
    /// One coarse visit per level (the paper's choice).
    V,
    /// Two coarse visits per level (more robust, ~2× the coarse work).
    W,
}

/// Multigrid configuration.
#[derive(Clone, Copy, Debug)]
pub struct MgParams {
    /// Chebyshev smoother degree (paper: 3).
    pub smoother_degree: usize,
    /// Chebyshev smoothing range (targeted spectrum fraction).
    pub smoothing_range: f64,
    /// AMG V-cycles per coarse solve (paper: 2).
    pub coarse_cycles: usize,
    /// V or W cycle.
    pub cycle: CycleType,
}

impl Default for MgParams {
    fn default() -> Self {
        Self {
            smoother_degree: 3,
            smoothing_range: 20.0,
            coarse_cycles: 2,
            cycle: CycleType::V,
        }
    }
}

/// A level operator: the finest level is DG, all others continuous.
pub enum LevelOp<T: Real, const L: usize> {
    /// SIPG DG Laplacian.
    Dg(LaplaceOperator<T, L>),
    /// Continuous (Nitsche) Laplacian.
    Cg(CgLaplaceOperator<T, L>),
}

impl<T: Real, const L: usize> LinearOperator<T> for LevelOp<T, L> {
    fn len(&self) -> usize {
        match self {
            LevelOp::Dg(o) => o.len(),
            LevelOp::Cg(o) => o.len(),
        }
    }
    fn apply(&self, src: &[T], dst: &mut [T]) {
        match self {
            LevelOp::Dg(o) => o.apply(src, dst),
            LevelOp::Cg(o) => o.apply(src, dst),
        }
    }
    fn diagonal(&self) -> Vec<T> {
        match self {
            LevelOp::Dg(o) => o.compute_diagonal(),
            LevelOp::Cg(o) => o.compute_diagonal(),
        }
    }
}

/// One multigrid level.
pub struct MgLevel<T: Real, const L: usize> {
    /// The level operator.
    pub op: LevelOp<T, L>,
    /// Its smoother.
    pub smoother: ChebyshevSmoother<T>,
    /// Transfer to the next-coarser level (`None` on the coarsest
    /// matrix-free level, which restricts into the AMG system directly —
    /// so in practice always `Some` except when AMG is the only level).
    pub transfer: Option<Transfer<T, L>>,
    /// Human-readable label (diagnostics, bench output).
    pub label: String,
}

/// The assembled hybrid hierarchy.
pub struct HybridMultigrid<T: Real, const L: usize> {
    /// Matrix-free levels, finest first.
    pub levels: Vec<MgLevel<T, L>>,
    /// Assembled coarsest matrix.
    pub coarse_matrix: CsrMatrix<T>,
    /// AMG on the coarsest matrix.
    pub coarse_amg: AlgebraicMultigrid<T>,
    /// Parameters.
    pub params: MgParams,
}

impl<T: Real, const L: usize> HybridMultigrid<T, L> {
    /// Build the full hierarchy for the SIPG Laplacian of degree `degree`
    /// on `forest`.
    pub fn build(
        forest: &Forest,
        manifold: &dyn Manifold,
        degree: usize,
        bc: Vec<BoundaryCondition>,
        params: MgParams,
    ) -> Self {
        let mut levels: Vec<MgLevel<T, L>> = Vec::new();

        // One geometry sampling per mapping degree on the fine forest: the
        // DG(k) and CG(k) levels share it, and with it (same quadrature
        // and scalar type) one set of metric terms.
        let mut mappings: Vec<Arc<Mapping>> = Vec::new();
        let mut fine_mapping = |mapping_degree: usize| -> Arc<Mapping> {
            if let Some(m) = mappings.iter().find(|m| m.degree == mapping_degree) {
                return m.clone();
            }
            let m = Arc::new(Mapping::build(forest, manifold, mapping_degree));
            mappings.push(m.clone());
            m
        };

        // finest: DG(k)
        let dg_params = MfParams::dg(degree);
        let mf_dg = Arc::new(MatrixFree::<T, L>::with_mapping(
            forest,
            fine_mapping(dg_params.mapping_degree),
            dg_params,
        ));
        let dg_op = LaplaceOperator::with_bc(mf_dg.clone(), bc.clone());

        // CG degree sequence: k, k/2, ..., 1 on the fine forest
        let mut degrees = vec![degree.max(1)];
        while *degrees.last().unwrap() > 1 {
            degrees.push(degrees.last().unwrap() / 2);
        }
        let cg_spaces: Vec<Arc<CgSpace<T, L>>> = degrees
            .iter()
            .map(|&k| {
                let mapping = fine_mapping(MfParams::cg(k).mapping_degree);
                Arc::new(CgSpace::with_mapping(forest, mapping, k))
            })
            .collect();

        // geometric coarsening sequence (degree 1)
        let mut forests: Vec<Forest> = Vec::new();
        {
            let mut current = forest.clone();
            while let Some(coarser) = current.coarsen_global() {
                forests.push(coarser.clone());
                current = coarser;
            }
        }
        // geometry of coarser levels: the same manifold, sampled on the
        // coarser cells (the paper injects the patient-specific geometry
        // into the coarse levels via consistent interpolation the same way)
        let h_spaces: Vec<Arc<CgSpace<T, L>>> = forests
            .iter()
            .map(|f| Arc::new(CgSpace::new(f, manifold, 1)))
            .collect();

        // assemble levels with transfers
        let make_smoother = |op: &dyn LinearOperator<T>| {
            let diag = op.diagonal();
            let inv: Vec<T> = diag.into_iter().map(|d| T::ONE / d).collect();
            ChebyshevSmoother::new(op, inv, params.smoother_degree, params.smoothing_range)
        };

        // DG level
        {
            let _sp = dgflow_trace::span("mg", "mg.build.level").meta(0);
            let transfer = Transfer::dg_to_cg(mf_dg.clone(), cg_spaces[0].clone());
            let smoother = make_smoother(&dg_op);
            levels.push(MgLevel {
                smoother,
                transfer: Some(transfer),
                label: format!("DG(k={degree})"),
                op: LevelOp::Dg(dg_op),
            });
        }
        // CG p-levels
        for (i, space) in cg_spaces.iter().enumerate() {
            let _sp = dgflow_trace::span("mg", "mg.build.level").meta(levels.len() as u64);
            let op = CgLaplaceOperator::with_bc(space.clone(), bc.clone());
            let smoother = make_smoother(&op);
            let transfer = if i + 1 < cg_spaces.len() {
                Some(Transfer::p_transfer(
                    space.clone(),
                    cg_spaces[i + 1].clone(),
                ))
            } else if !h_spaces.is_empty() {
                Some(Transfer::h_transfer(
                    space.clone(),
                    forest,
                    h_spaces[0].clone(),
                    &forests[0],
                ))
            } else {
                None
            };
            levels.push(MgLevel {
                smoother,
                transfer,
                label: format!("CG(k={})", degrees[i]),
                op: LevelOp::Cg(op),
            });
        }
        // CG h-levels
        for (i, space) in h_spaces.iter().enumerate() {
            let _sp = dgflow_trace::span("mg", "mg.build.level").meta(levels.len() as u64);
            let op = CgLaplaceOperator::with_bc(space.clone(), bc.clone());
            let smoother = make_smoother(&op);
            let transfer = if i + 1 < h_spaces.len() {
                Some(Transfer::h_transfer(
                    space.clone(),
                    &forests[i],
                    h_spaces[i + 1].clone(),
                    &forests[i + 1],
                ))
            } else {
                None
            };
            levels.push(MgLevel {
                smoother,
                transfer,
                label: format!("CG(k=1) l={}", forests.len() - 1 - i),
                op: LevelOp::Cg(op),
            });
        }

        // coarsest: assemble + AMG (drop the redundant smoother level: the
        // last matrix-free level doubles as the AMG system)
        let _sp = dgflow_trace::span("mg", "mg.build.coarse");
        let coarse_matrix = {
            let last = levels.last().unwrap();
            match &last.op {
                LevelOp::Cg(op) => op.assemble(),
                LevelOp::Dg(_) => unreachable!("coarsest level is always continuous"),
            }
        };
        let coarse_amg = AlgebraicMultigrid::new(coarse_matrix.clone(), AmgParams::default());

        Self {
            levels,
            coarse_matrix,
            coarse_amg,
            params,
        }
    }

    /// DoF count per level (diagnostics).
    pub fn level_sizes(&self) -> Vec<(String, usize)> {
        self.levels
            .iter()
            .map(|l| (l.label.clone(), l.op.len()))
            .collect()
    }

    /// One V-cycle: `x ≈ A⁻¹ b` on level `li`.
    pub fn vcycle(&self, li: usize, b: &[T], x: &mut [T]) {
        let _sp = dgflow_trace::span_fine("mg", "mg.vcycle.level").meta(li as u64);
        let level = &self.levels[li];
        let n = level.op.len();
        // pre-smooth from zero
        level.smoother.smooth(&level.op, b, x, true);
        let Some(transfer) = &level.transfer else {
            // last matrix-free level: additionally correct with AMG cycles
            // on its assembled matrix
            let mut r = vec![T::ZERO; n];
            for _ in 0..self.params.coarse_cycles {
                level.op.apply(x, &mut r);
                for i in 0..n {
                    r[i] = b[i] - r[i];
                }
                let mut c = vec![T::ZERO; n];
                self.coarse_amg.apply_precond(&r, &mut c);
                for i in 0..n {
                    x[i] += c[i];
                }
            }
            level.smoother.smooth(&level.op, b, x, false);
            return;
        };
        // residual
        let mut r = vec![T::ZERO; n];
        level.op.apply(x, &mut r);
        for i in 0..n {
            r[i] = b[i] - r[i];
        }
        // restrict, recurse (twice for W-cycles), prolongate
        let visits = match self.params.cycle {
            CycleType::V => 1,
            CycleType::W => 2,
        };
        let nc = transfer.n_coarse();
        let mut bc = vec![T::ZERO; nc];
        for visit in 0..visits {
            if visit > 0 {
                // recompute the residual after the first correction
                level.op.apply(x, &mut r);
                for i in 0..n {
                    r[i] = b[i] - r[i];
                }
            }
            transfer.restrict(&r, &mut bc);
            let mut xc = vec![T::ZERO; nc];
            self.vcycle(li + 1, &bc, &mut xc);
            transfer.prolongate_add(&xc, x);
        }
        // post-smooth
        level.smoother.smooth(&level.op, b, x, false);
    }
}

impl<T: Real, const L: usize> Preconditioner<T> for HybridMultigrid<T, L> {
    fn apply_precond(&self, src: &[T], dst: &mut [T]) {
        self.vcycle(0, src, dst);
    }
}

/// Mixed-precision wrapper: a single-precision V-cycle preconditioning a
/// double-precision Krylov solver (Sec. 3.4). The defect is normalized
/// before the downcast so that residuals outside the `f32` range stay
/// representable.
pub struct MixedPrecisionMg<const L: usize> {
    /// The single-precision hierarchy.
    pub mg: HybridMultigrid<f32, L>,
}

impl<const L: usize> Preconditioner<f64> for MixedPrecisionMg<L> {
    fn apply_precond(&self, src: &[f64], dst: &mut [f64]) {
        let _sp = dgflow_trace::span("mg", "mg.precond");
        let scale = src.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if scale == 0.0 {
            dst.iter_mut().for_each(|v| *v = 0.0);
            return;
        }
        let inv = 1.0 / scale;
        let b32: Vec<f32> = src.iter().map(|&v| (v * inv) as f32).collect();
        let mut x32 = vec![0.0f32; b32.len()];
        self.mg.vcycle(0, &b32, &mut x32);
        for (d, &x) in dst.iter_mut().zip(&x32) {
            *d = f64::from(x) * scale;
        }
    }
}
