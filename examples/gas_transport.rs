//! Gas washout through a ventilated bifurcation: couple the passive-scalar
//! transport layer (oxygen concentration) to the flow solver — the
//! application the paper names as the next step its performance work
//! enables (Sec. 2.2).
//!
//! Fresh gas (c = 1) enters at the trachea while the airways start filled
//! with c = 0; the example prints the washin front progressing toward the
//! outlets.
//!
//! Run with: `cargo run --release --example gas_transport`

use dgflow::core::scalar::{ScalarBc, ScalarTransport};
use dgflow::core::{FlowParams, FlowSolver, VentilationModel, VentilatorSettings};
use dgflow::lung::{bifurcation_tree, mesh_airway_tree, MeshParams, INLET_ID};
use dgflow::mesh::{Forest, TrilinearManifold};

fn main() {
    let tree = bifurcation_tree();
    let mesh = mesh_airway_tree(&tree, MeshParams::default());
    let forest = Forest::new(mesh.coarse.clone());
    let manifold = TrilinearManifold::from_forest(&forest);
    let mut params = FlowParams::new(2);
    params.rel_tol = 1e-5;
    params.dt_max = 2e-4;
    params.use_multigrid = false;
    let bcs = VentilationModel::make_bcs(&mesh);
    let mut vent = VentilationModel::from_lung(&mesh, VentilatorSettings::default());
    let mut solver = FlowSolver::<8>::new(&forest, &manifold, params, bcs);
    let rho = solver.density();
    vent.update(
        0.0,
        0.0,
        0.0,
        &vec![0.0; mesh.outlets.len()],
        rho,
        &mut solver.bcs,
    );

    // scalar: fresh gas at the inlet, outflow elsewhere
    let mut sc_bcs = vec![ScalarBc::Outflow; 2 + mesh.outlets.len()];
    sc_bcs[INLET_ID as usize] = ScalarBc::Dirichlet(1.0);
    let c0 = vec![0.0; solver.mf_u.n_dofs()];
    let mut scalar = ScalarTransport::new(solver.mf_u.clone(), sc_bcs, 2.0e-5, c0);

    println!(
        "washin through the bifurcation: {} cells, diffusivity {:.1e} m²/s",
        mesh.n_cells(),
        scalar.diffusivity
    );
    println!();
    println!("{:>8} {:>12} {:>14}", "t [ms]", "Q_in [ml/s]", "mean c [-]");
    let volume: f64 = solver.mf_u.metric.cell_volumes.iter().sum();
    let mut dt_old = solver.dt;
    for step in 0..60 {
        let info = solver.step();
        let q_in = -solver.flow_rate(INLET_ID);
        let flows: Vec<f64> = mesh
            .outlets
            .iter()
            .map(|o| solver.flow_rate(o.boundary_id))
            .collect();
        vent.update(solver.time, info.dt, -q_in, &flows, rho, &mut solver.bcs);
        scalar.step(&solver.velocity, info.dt, info.dt / dt_old);
        dt_old = info.dt;
        if step % 10 == 9 {
            println!(
                "{:>8.2} {:>12.1} {:>14.5}",
                solver.time * 1e3,
                q_in * 1e6,
                scalar.total_mass() / volume
            );
        }
    }
    let mean = scalar.total_mass() / volume;
    println!();
    println!(
        "mean concentration after {:.2} ms: {:.4}",
        solver.time * 1e3,
        mean
    );
    assert!(mean > 0.0, "no washin happened");
}
