//! Stage-by-stage timing of solver set-up: `profile_setup [poisson |
//! ventilation]` (default: both) builds each configuration once, single
//! threaded, and prints where the set-up time goes.
//!
//! * `poisson` — the Fig. 9 bifurcation with one global refinement at
//!   k = 3: the f64 SIPG operator's `MatrixFree` context plus the f32
//!   `HybridMultigrid` built on the same forest (the end-to-end
//!   benchmark's Poisson set-up).
//! * `ventilation` — the 3-generation lung at k = 3: one `FlowSolver`
//!   (velocity and pressure contexts, Helmholtz diagonal, pressure
//!   multigrid).
//!
//! The stages are the coarse `dgflow-trace` spans the set-up path records:
//! `fem/matrixfree.new` (metric terms), `fem/cg_space.new` (DoF numbering,
//! constraints, plans), `fem/*.diagonal` (operator diagonals),
//! `solvers/chebyshev.estimate` (power iteration), `mg/mg.build.level`
//! (one per level, meta = level index, inclusive of the level's diagonal
//! and estimate) and `mg/mg.build.coarse` (assembly + AMG). Span times are
//! inclusive wall times.

use dgflow_bench::{bifurcation_forest, lung_forest};
use dgflow_core::{FlowParams, FlowSolver, VentilationModel};
use dgflow_fem::{BoundaryCondition, LaplaceOperator, MatrixFree, MfParams};
use dgflow_mesh::TrilinearManifold;
use dgflow_multigrid::{HybridMultigrid, MgParams};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn poisson() -> f64 {
    let (forest, _) = bifurcation_forest(1);
    let manifold = TrilinearManifold::from_forest(&forest);
    use BoundaryCondition::{Dirichlet, Neumann};
    let bc = vec![Neumann, Dirichlet, Dirichlet, Dirichlet];
    let t = Instant::now();
    let mf = Arc::new(MatrixFree::<f64, 8>::new(
        &forest,
        &manifold,
        MfParams::dg(3),
    ));
    let op = LaplaceOperator::with_bc(mf, bc.clone());
    let mg = HybridMultigrid::<f32, 8>::build(&forest, &manifold, 3, bc, MgParams::default());
    let wall = t.elapsed().as_secs_f64();
    println!(
        "poisson: {} DoF, levels {:?}",
        op.mf.n_dofs(),
        mg.level_sizes()
    );
    wall
}

fn ventilation() -> f64 {
    let (forest, mesh) = lung_forest(3, false, 0);
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut params = FlowParams::new(3);
    params.use_multigrid = true;
    let t = Instant::now();
    let solver = FlowSolver::<8>::new(
        &forest,
        &manifold,
        params,
        VentilationModel::make_bcs(&mesh),
    );
    let wall = t.elapsed().as_secs_f64();
    println!(
        "ventilation: {} velocity DoF, {} pressure DoF",
        3 * solver.mf_u.n_dofs(),
        solver.mf_p.n_dofs()
    );
    wall
}

/// Print the drained span totals of one configuration.
fn report(name: &str, wall: f64) {
    let mut totals: BTreeMap<(&str, &str, Option<u64>), (usize, u64)> = BTreeMap::new();
    for sp in dgflow_trace::take_spans() {
        if matches!(sp.name, "laplace.apply" | "cg_laplace.apply") {
            continue;
        }
        let level = (sp.name == "mg.build.level").then_some(sp.meta);
        let e = totals.entry((sp.cat, sp.name, level)).or_insert((0, 0));
        e.0 += 1;
        e.1 += sp.duration_ns();
    }
    println!("{name} set-up: {wall:.3} s wall");
    for ((cat, span, level), (count, ns)) in totals {
        let span = match level {
            Some(l) => format!("{span}[{l}]"),
            None => span.to_string(),
        };
        println!(
            "  {cat:<8} {span:<28} x{count:<4} {:>10.3} ms",
            ns as f64 * 1e-6
        );
    }
    println!("  ({} spans dropped)", dgflow_trace::dropped_spans());
}

fn main() {
    dgflow_trace::set_level(dgflow_trace::Level::Coarse);
    let which = std::env::args().nth(1);
    if which.as_deref().is_none_or(|w| w == "poisson") {
        let wall = poisson();
        report("poisson", wall);
    }
    if which.as_deref().is_none_or(|w| w == "ventilation") {
        let wall = ventilation();
        report("ventilation", wall);
    }
}
