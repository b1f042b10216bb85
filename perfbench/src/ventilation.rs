//! `ventilation`: the Table 2 configuration — an adult lung of three
//! generations at k = 3, hybrid-multigrid pressure solves at tolerance
//! 1e-3, and a pressure-controlled ventilator coupled after every step.
//! A closed loop of `FlowSolver::step` calls; the two startup steps are
//! dropped. The seed picks the ventilator's driving pressure.
//!
//! The flow is far from stationary: as the inhalation settles, the
//! extrapolated initial guesses meet the 1e-3 tolerance with fewer and
//! fewer iterations, and after about 60 steps every sub-solve takes none
//! and a step costs a third of an early one. A loop that simply ran on for
//! the run's seconds would report a mix of the two regimes set by how fast
//! the host is. So the loop replays one fixed window — steps 3 to
//! `WINDOW_END`, where every step still iterates — from a snapshot taken
//! after the startup steps, as many times as the run's seconds allow.

use crate::host::{HostSpeed, Stamp, REFERENCE_S};
use crate::stats::{median, percentile, Rng, Tally};
use crate::trace::Tracer;
use crate::{overhead_ratio, peak_rss_mb, pool_run_probe, Args, Report};
use dgflow_core::ventilation::CMH2O;
use dgflow_core::{
    Checkpoint, FlowBcs, FlowParams, FlowSolver, StepInfo, VentilationModel, VentilatorSettings,
};
use dgflow_fem::LaplaceOperator;
use dgflow_lung::{lung_mesh, LungMesh, INLET_ID};
use dgflow_mesh::{Forest, TrilinearManifold};
use dgflow_solvers::LinearOperator;
use std::time::Instant;

const GENERATIONS: usize = 3;
const DEGREE: usize = 3;
const LANES: usize = 8;
const STARTUP_STEPS: usize = 2;
/// Last step of the replayed window.
const WINDOW_END: usize = 26;
/// Step at which the recorded reference is checked.
const CHECK_STEP: usize = 10;
/// Driving pressures (cmH2O) the seed chooses from.
const DELTA_P_CMH2O: [f64; 4] = [10.0, 11.0, 12.0, 13.0];
/// Inhaled volume (ml) and ‖div u‖ after `CHECK_STEP` steps, per entry
/// of `DELTA_P_CMH2O`, recorded with `perfbench reference ventilation`.
const REFERENCE: [(f64, f64); 4] = [
    (4.804778344802e-1, 3.543696469033e-6),
    (5.136009631173e-1, 3.890844536163e-6),
    (5.453380605763e-1, 4.091644819745e-6),
    (5.782135585590e-1, 4.393234060339e-6),
];
/// Relative tolerance against `REFERENCE`: the sub-solves stop at 1e-3,
/// so a reordered floating-point sum can move the result by about that.
const REFERENCE_RTOL: f64 = 2e-2;
/// Allowed relative imbalance between the volume inhaled at the trachea
/// and the volume the outlet compartments took up.
const VOLUME_BALANCE_RTOL: f64 = 5e-2;

struct Setup {
    mesh: LungMesh,
    solver: FlowSolver<LANES>,
    lung_mesh_s: f64,
    manifold_s: f64,
    solver_new_s: f64,
    total_s: f64,
}

fn setup(tracer: &Tracer) -> Setup {
    let root = tracer.span("ventilation.setup", None);
    let t0 = Instant::now();
    let mesh = {
        let _s = tracer.span("lung.mesh", root.id());
        lung_mesh(GENERATIONS)
    };
    let lung_mesh_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (forest, manifold) = {
        let _s = tracer.span("mesh.manifold", root.id());
        let forest = Forest::new(mesh.coarse.clone());
        let manifold = TrilinearManifold::from_forest(&forest);
        (forest, manifold)
    };
    let manifold_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let solver = {
        let _s = tracer.span("core.solver_new", root.id());
        let mut params = FlowParams::new(DEGREE);
        params.rel_tol = 1e-3;
        params.use_multigrid = true;
        params.dt_max = 5e-4;
        FlowSolver::<LANES>::new(
            &forest,
            &manifold,
            params,
            VentilationModel::make_bcs(&mesh),
        )
    };
    let solver_new_s = t2.elapsed().as_secs_f64();
    Setup {
        mesh,
        solver,
        lung_mesh_s,
        manifold_s,
        solver_new_s,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// The coupled application: solver, ventilator, and the volumes the
/// output checks look at.
struct Lung {
    mesh: LungMesh,
    solver: FlowSolver<LANES>,
    vent: VentilationModel,
    /// Volume inhaled through the trachea (m³).
    inhaled: f64,
    /// Volume that left through the outlets into the compartments (m³).
    outlet_volume: f64,
    steps: usize,
}

impl Lung {
    fn new(setup: Setup, delta_p: f64) -> Self {
        let settings = VentilatorSettings {
            delta_p: delta_p * CMH2O,
            ..VentilatorSettings::default()
        };
        let mut vent = VentilationModel::from_lung(&setup.mesh, settings);
        let mut solver = setup.solver;
        let rho = solver.density();
        let zeros = vec![0.0; setup.mesh.outlets.len()];
        vent.update(0.0, 0.0, 0.0, &zeros, rho, &mut solver.bcs);
        Self {
            mesh: setup.mesh,
            solver,
            vent,
            inhaled: 0.0,
            outlet_volume: 0.0,
            steps: 0,
        }
    }

    /// One closed-loop step: the flow step, then the ventilator update.
    fn step(&mut self, tracer: &Tracer) -> StepInfo {
        let root = tracer.span("ventilation.iteration", None);
        let info = {
            let _s = tracer.span("core.step", root.id());
            self.solver.step()
        };
        let _s = tracer.span("core.ventilation_update", root.id());
        let inlet = self.solver.flow_rate(INLET_ID);
        let outlets: Vec<f64> = self
            .mesh
            .outlets
            .iter()
            .map(|o| self.solver.flow_rate(o.boundary_id))
            .collect();
        self.inhaled -= inlet * info.dt;
        self.outlet_volume += outlets.iter().sum::<f64>() * info.dt;
        let rho = self.solver.density();
        self.vent.update(
            self.solver.time,
            info.dt,
            inlet,
            &outlets,
            rho,
            &mut self.solver.bcs,
        );
        self.steps += 1;
        info
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            flow: Checkpoint::capture(&self.solver, None),
            bcs: self.solver.bcs.clone(),
            vent: self.vent.clone(),
            inhaled: self.inhaled,
            outlet_volume: self.outlet_volume,
            steps: self.steps,
        }
    }

    fn restore(&mut self, s: &Snapshot) -> Result<(), String> {
        s.flow
            .restore(&mut self.solver, None)
            .map_err(|e| e.to_string())?;
        self.solver.bcs = s.bcs.clone();
        self.vent = s.vent.clone();
        self.inhaled = s.inhaled;
        self.outlet_volume = s.outlet_volume;
        self.steps = s.steps;
        Ok(())
    }
}

/// Everything a replay of the window starts from.
struct Snapshot {
    flow: Checkpoint,
    bcs: FlowBcs,
    vent: VentilationModel,
    inhaled: f64,
    outlet_volume: f64,
    steps: usize,
}

fn step_ok(info: &StepInfo) -> bool {
    info.dt.is_finite() && info.dt > 0.0 && info.wall_seconds.is_finite()
}

/// Replays the window from `start` until `seconds` have passed (at least
/// one whole replay), sampling the host's speed after every step: per
/// replay, the interval of every coupled step on the `host` clocks; and
/// every step's `StepInfo`. Every replay runs the output checks.
fn measure(
    lung: &mut Lung,
    start: &Snapshot,
    reference: (f64, f64),
    tracer: &Tracer,
    host: &HostSpeed,
    tally: &mut Tally,
    seconds: f64,
) -> Result<(Vec<Replay>, Vec<StepInfo>), String> {
    let mut replays = Vec::new();
    let mut infos = Vec::new();
    let t0 = Instant::now();
    while replays.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        lung.restore(start)?;
        let mut steps = Vec::new();
        while lung.steps < WINDOW_END {
            let t = host.stamp();
            let info = lung.step(tracer);
            steps.push((t, host.stamp()));
            host.sample(1);
            tally.record(step_ok(&info));
            infos.push(info);
            if lung.steps == CHECK_STEP {
                tally.record(reference_ok(lung, reference));
            }
        }
        replays.push(Replay { steps });
        tally.record(balance_ok(lung));
    }
    Ok((replays, infos))
}

/// Start and end of every step of one replay of the window.
struct Replay {
    steps: Vec<(Stamp, Stamp)>,
}

impl Replay {
    fn walls(&self) -> Vec<f64> {
        self.steps.iter().map(|(s, e)| e.wall - s.wall).collect()
    }

    fn reference_times(&self, host: &HostSpeed) -> Vec<f64> {
        self.steps
            .iter()
            .map(|&(s, e)| host.reference_seconds(s, e))
            .collect()
    }
}

/// Median over replays of a per-replay statistic: a host stall that hits
/// one replay moves the run's figure far less than a mean over the pooled
/// steps would.
fn per_replay(replays: &[Replay], f: impl Fn(&Replay) -> f64) -> f64 {
    median(&replays.iter().map(f).collect::<Vec<_>>()).expect("a replay ran")
}

fn seeded_delta_p(seed: u64) -> (usize, f64) {
    let i = Rng::new(seed).below(DELTA_P_CMH2O.len());
    (i, DELTA_P_CMH2O[i])
}

fn reference_ok(lung: &Lung, (ml_ref, div_ref): (f64, f64)) -> bool {
    let ml = lung.inhaled * 1e6;
    let div = lung.solver.divergence_norm();
    let ok = ml.is_finite()
        && div.is_finite()
        && (ml - ml_ref).abs() <= REFERENCE_RTOL * ml_ref.abs()
        && (div - div_ref).abs() <= REFERENCE_RTOL * div_ref.abs();
    if !ok {
        eprintln!(
            "ventilation check failed at step {CHECK_STEP}: inhaled {ml:.9e} ml (ref {ml_ref:.9e}), \
             ‖div u‖ {div:.9e} (ref {div_ref:.9e})"
        );
    }
    ok
}

/// Whatever came in through the trachea during the window went out
/// through the outlets.
fn balance_ok(lung: &Lung) -> bool {
    let (vin, vout) = (lung.inhaled, lung.outlet_volume);
    let ok = vin.is_finite()
        && vout.is_finite()
        && vin > 0.0
        && (vin - vout).abs() <= VOLUME_BALANCE_RTOL * vin
        && lung.solver.divergence_norm().is_finite();
    if !ok {
        eprintln!("ventilation volume balance failed: inhaled {vin:e} m³, outlets {vout:e} m³");
    }
    ok
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Report, String> {
    let (index, delta_p) = seeded_delta_p(args.seed);
    let reference = REFERENCE[index];
    let mut report = Report::default();
    let host = HostSpeed::new();
    let mut setups = Vec::new();
    let mut intervals = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..3 {
        // drop the previous solver before building the next one
        drop(kept.take());
        host.sample(5);
        let t = host.stamp();
        let s = setup(tracer);
        intervals.push((t, host.stamp()));
        setups.push([s.total_s, s.lung_mesh_s, s.manifold_s, s.solver_new_s]);
        kept = Some(s);
    }
    host.sample(5);
    let mut lung = Lung::new(kept.expect("three setups ran"), delta_p);
    let mut tally = Tally::default();
    for _ in 0..STARTUP_STEPS {
        let info = lung.step(tracer);
        tally.record(step_ok(&info));
    }
    let start = lung.snapshot();
    let col = |k: usize| median(&setups.iter().map(|t| t[k]).collect::<Vec<_>>()).expect("setups");
    if !args.trace {
        let (replays, infos) = measure(
            &mut lung,
            &start,
            reference,
            tracer,
            &host,
            &mut tally,
            args.seconds,
        )?;
        let wall: f64 = replays.iter().flat_map(Replay::walls).sum();
        // Percentiles over every step of the run: three of a replay's 24
        // steps are its heavy first ones, so a replay's own 90th
        // percentile (its third largest step) sits on the edge between
        // heavy and light steps and jumped by about 10 % between runs.
        let pct = |walls: &dyn Fn(&Replay) -> Vec<f64>, p: f64| {
            let all: Vec<f64> = replays.iter().flat_map(walls).collect();
            percentile(&all, p).expect("steps ran")
        };
        let rate = |walls: &dyn Fn(&Replay) -> Vec<f64>| {
            per_replay(&replays, |r| {
                r.steps.len() as f64 / walls(r).iter().sum::<f64>()
            })
        };
        let refs = |r: &Replay| r.reference_times(&host);
        eprintln!(
            "ventilation: Δp {delta_p} cmH2O, {} replays of {} steps, {:.3e} sim s per wall s; \
             wall: setup {:.4} s, step p50 {:.4} s, p90 {:.4} s, {:.4} steps/s; \
             calibration sample {:.4e} s (reference {REFERENCE_S:e} s)",
            replays.len(),
            WINDOW_END - STARTUP_STEPS,
            infos.iter().map(|i| i.dt).sum::<f64>() / wall,
            col(0),
            pct(&Replay::walls, 0.5),
            pct(&Replay::walls, 0.9),
            rate(&Replay::walls),
            host.median_sample().expect("the host was sampled"),
        );
        let setup_ref: Vec<f64> = intervals
            .iter()
            .map(|&(s, e)| host.reference_seconds(s, e))
            .collect();
        report.set("setup_s", median(&setup_ref).expect("setups ran"));
        report.set("ref_op_s_p50", pct(&refs, 0.5));
        report.set("ref_op_s_p90", pct(&refs, 0.9));
        let rate = rate(&refs);
        report.set("ref_ops_per_s", rate);
        // A closed loop is always saturated: its burst rate is its rate.
        report.set("ref_burst_ops_per_s", rate);
        report.set("ok_ratio", tally.ok_ratio());
        report.set("peak_rss_mb", peak_rss_mb(None).ok_or("no VmHWM")?);
    } else {
        let off = Tracer::new(false);
        let half = args.seconds / 2.0;
        let (off_replays, _) =
            measure(&mut lung, &start, reference, &off, &host, &mut tally, half)?;
        let (on_replays, infos) = measure(
            &mut lung, &start, reference, tracer, &host, &mut tally, half,
        )?;
        let walls = |rs: &[Replay]| rs.iter().flat_map(Replay::walls).collect::<Vec<_>>();
        let mean = |f: &dyn Fn(&StepInfo) -> f64| -> f64 {
            infos.iter().map(f).sum::<f64>() / infos.len() as f64
        };
        let med = |f: &dyn Fn(&StepInfo) -> f64| -> f64 {
            median(&infos.iter().map(f).collect::<Vec<_>>()).expect("traced steps ran")
        };
        report.set("lung.mesh_s", col(1));
        report.set("mesh.manifold_s", col(2));
        report.set("core.solver_new_s", col(3));
        report.set("core.convective_s", med(&|i| i.convective_seconds));
        report.set("core.pressure_s", med(&|i| i.pressure_seconds));
        report.set("core.projection_s", med(&|i| i.projection_seconds));
        report.set("core.viscous_s", med(&|i| i.viscous_seconds));
        report.set("core.penalty_s", med(&|i| i.penalty_seconds));
        report.set("core.dt_s", mean(&|i| i.dt));
        report.set(
            "solvers.pressure_iters",
            mean(&|i| i.pressure_iterations as f64),
        );
        report.set(
            "solvers.viscous_iters",
            mean(&|i| i.viscous_iterations as f64),
        );
        report.set(
            "solvers.penalty_iters",
            mean(&|i| i.penalty_iterations as f64),
        );
        report.set("fem.laplace_p_apply_s", pressure_apply_probe(&lung, tracer));
        report.set("comm.pool_run_s", pool_run_probe(tracer));
        report.set(
            "host.calibration_s",
            host.median_sample().expect("the host was sampled"),
        );
        report.set(
            "trace.overhead_ratio",
            overhead_ratio(&walls(&off_replays), &walls(&on_replays)),
        );
    }
    report.tally = tally;
    Ok(report)
}

/// Median `LaplaceOperator::apply` on the solver's live pressure space.
fn pressure_apply_probe(lung: &Lung, tracer: &Tracer) -> f64 {
    let op = LaplaceOperator::with_bc(
        lung.solver.mf_p.clone(),
        lung.solver.bcs.pressure_poisson_bc(),
    );
    let src = lung.solver.pressure.clone();
    let mut dst = vec![0.0; src.len()];
    let mut times = Vec::new();
    for _ in 0..30 {
        let _s = tracer.span("fem.laplace_p_apply", None);
        let t = Instant::now();
        op.apply(&src, &mut dst);
        times.push(t.elapsed().as_secs_f64());
        std::hint::black_box(&dst);
    }
    median(&times).expect("probe ran")
}

/// Print the `REFERENCE` table: every driving pressure, `CHECK_STEP`
/// steps each.
pub fn print_reference() {
    let tracer = Tracer::new(false);
    for (i, &dp) in DELTA_P_CMH2O.iter().enumerate() {
        let mut lung = Lung::new(setup(&tracer), dp);
        while lung.steps < CHECK_STEP {
            lung.step(&tracer);
        }
        println!(
            "    ({:.12e}, {:.12e}), // Δp = {dp} cmH2O (entry {i}); outlets took {:.6e} ml",
            lung.inhaled * 1e6,
            lung.solver.divergence_norm(),
            lung.outlet_volume * 1e6
        );
    }
}
