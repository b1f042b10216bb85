//! Analytic Flop and memory-traffic counts of the matrix-free DG Laplacian
//! (following the accounting of Kronbichler & Kormann, Table 4 of ref. \[43\],
//! adapted to this implementation's collocated basis) — the data behind
//! the roofline of Fig. 7.

/// Per-DoF work and traffic of one operator application at degree `k`.
#[derive(Clone, Copy, Debug)]
pub struct LaplaceCounts {
    /// Polynomial degree.
    pub degree: usize,
    /// Arithmetic operations per DoF (Flop).
    pub flops_per_dof: f64,
    /// Ideal memory traffic per DoF (B), double precision: single read of
    /// the source, read+write of the destination, metric terms, index
    /// metadata — the paper's "ideal transfer" model.
    pub ideal_bytes_per_dof: f64,
}

impl LaplaceCounts {
    /// Counts for the 3-D SIPG Laplacian with `n_q = k+1` Gauss quadrature
    /// and a collocated basis.
    ///
    /// The sweep count is the paper's even–odd Flop model (≈ 1.5 n
    /// operations per output entry), not the dense sweep that
    /// `dgflow-tensor` runs (n multiply-adds, ≈ 2 n operations per entry);
    /// it is kept so the roofline stays comparable with the paper's Fig. 7.
    pub fn new(degree: usize, scalar_bytes: f64) -> Self {
        let n = (degree + 1) as f64;
        let n3 = n * n * n;
        let n2 = n * n;
        // --- cell work -------------------------------------------------
        // 3 collocation-gradient sweeps + 3 transposes: each sweep is
        // n^3 lines-contractions of n×n (even-odd ≈ n/2 multiplies + n adds
        // per output → ~1.5 n ops per entry)
        let sweep_ops = 1.5 * n * n3; // per sweep
        let cell_sweeps = 6.0 * sweep_ops;
        // quadrature-point work: 2×(3×3 mat-vec) + scaling ≈ 2*15 + 3
        let cell_qpoint = 33.0 * n3;
        // --- face work (6 faces per cell, each shared by 2 cells → 3/cell)
        // per face and side: 2 normal contractions (2·n²·n each), 4
        // tangential collocation-derivative 2-D sweeps (1.5·n·n² each),
        // pointwise flux ≈ 20 n², integration mirror of evaluation
        let face_eval = 2.0 * (2.0 * n2 * n) + 4.0 * (1.5 * n * n2) + 20.0 * n2;
        let face_ops_per_cell = 3.0 * 2.0 * 2.0 * face_eval; // 3 faces/cell × 2 sides × (eval+integrate)
        let flops_per_dof = (cell_sweeps + cell_qpoint + face_ops_per_cell) / n3;
        // --- ideal traffic ----------------------------------------------
        // src read + dst write+read = 3 values/DoF; J^{-T} (9) + JxW (1)
        // per qpoint (= per DoF, collocated); face metric: (3+3+3+1)
        // values per face qpoint, 6 n² face points per cell shared by 2;
        // ~2 ints of metadata per cell
        let cell_metric = 10.0;
        let face_metric = (6.0 / 2.0) * n2 * 10.0 / n3;
        let vectors = 3.0;
        let ideal_bytes_per_dof = scalar_bytes * (vectors + cell_metric + face_metric) + 8.0 / n3;
        Self {
            degree,
            flops_per_dof,
            ideal_bytes_per_dof,
        }
    }

    /// Arithmetic intensity (Flop/B).
    pub fn intensity(&self) -> f64 {
        self.flops_per_dof / self.ideal_bytes_per_dof
    }

    /// Roofline-attainable performance on a machine (Flop/s/node).
    pub fn attainable(&self, peak_flops: f64, mem_bw: f64) -> f64 {
        peak_flops.min(self.intensity() * mem_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_per_dof_stay_bounded_across_degrees() {
        // sum factorization keeps the per-DoF work nearly flat (the cell
        // sweeps grow O(k), the per-DoF face share shrinks) — the property
        // that makes high order affordable
        let c2 = LaplaceCounts::new(2, 8.0);
        let c6 = LaplaceCounts::new(6, 8.0);
        assert!(c6.flops_per_dof > 0.6 * c2.flops_per_dof);
        assert!(c6.flops_per_dof < 4.0 * c2.flops_per_dof);
        for k in 1..=6 {
            let c = LaplaceCounts::new(k, 8.0);
            assert!(
                c.flops_per_dof > 50.0 && c.flops_per_dof < 800.0,
                "k={k}: {}",
                c.flops_per_dof
            );
        }
    }

    #[test]
    fn intensity_increases_with_degree() {
        let mut prev = 0.0;
        for k in 1..=6 {
            let c = LaplaceCounts::new(k, 8.0);
            assert!(c.intensity() > prev, "k={k}");
            prev = c.intensity();
        }
    }

    #[test]
    fn all_relevant_degrees_are_memory_bound_on_skylake() {
        // the paper's roofline conclusion: no interesting degree is
        // Flop-limited
        let m = crate::machine::MachineModel::supermuc_ng();
        for k in 1..=6 {
            let c = LaplaceCounts::new(k, 8.0);
            assert!(
                c.attainable(m.flop_rate, m.mem_bw) < m.flop_rate,
                "degree {k} unexpectedly compute-bound"
            );
        }
    }

    #[test]
    fn single_precision_halves_traffic() {
        let dp = LaplaceCounts::new(3, 8.0);
        let sp = LaplaceCounts::new(3, 4.0);
        assert!(sp.ideal_bytes_per_dof < 0.6 * dp.ideal_bytes_per_dof);
    }
}
