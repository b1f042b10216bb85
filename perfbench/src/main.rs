//! dgflow end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <ventilation|poisson|service> --seed N --seconds S --trace 0|1
//!           [--dgflow PATH] [--out DIR]
//! perfbench reference <ventilation|poisson>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. `perfbench/run.py`
//! builds this binary and the `dgflow` daemon and forwards to it; see
//! `perfbench/README.md` for what each metric means.

mod host;
mod poisson;
mod service;
mod stats;
mod trace;
mod ventilation;

use dgflow_runtime::json::Json;
use stats::Tally;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ref_op_s_p50", "s"),
    ("ref_op_s_p90", "s"),
    ("ref_ops_per_s", "1/s"),
    ("ref_burst_ops_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lung.mesh_s", "s"),
    ("mesh.manifold_s", "s"),
    ("core.solver_new_s", "s"),
    ("core.convective_s", "s"),
    ("core.pressure_s", "s"),
    ("core.projection_s", "s"),
    ("core.viscous_s", "s"),
    ("core.penalty_s", "s"),
    ("core.dt_s", "s"),
    ("solvers.pressure_iters", "count"),
    ("solvers.viscous_iters", "count"),
    ("solvers.penalty_iters", "count"),
    ("fem.laplace_p_apply_s", "s"),
    ("fem.matrixfree_new_s", "s"),
    ("multigrid.build_s", "s"),
    ("fem.laplace_apply_s", "s"),
    ("fem.laplace_dofs_per_s", "1/s"),
    ("fem.laplace_gflop_per_s_computed", "GFlop/s"),
    ("fem.laplace_flop_per_byte_computed", "Flop/B"),
    ("fem.laplace_flops_per_apply", "count"),
    ("fem.laplace_bytes_per_apply", "count"),
    ("multigrid.vcycle_s", "s"),
    ("solvers.cg_iters", "count"),
    ("solvers.cg_rest_s", "s"),
    ("comm.pool_run_s", "s"),
    ("serve.submit_rtt_s", "s"),
    ("serve.status_rtt_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.dedup_hit_ratio", "ratio"),
    ("runtime.spec_parse_s", "s"),
    ("runtime.campaign_cold_s", "s"),
    ("runtime.campaign_warm_s", "s"),
    ("runtime.setup_cache_hit_ratio", "ratio"),
    ("loadgen.lag_p90_s", "s"),
    ("host.calibration_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `dgflow` binary the service workload spawns.
    pub dgflow: PathBuf,
    /// Scratch directory for daemon state, campaign output and spans.
    pub out: PathBuf,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The result line: exactly the per-layer metrics of a traced run, or
    /// the end-to-end metrics of an untraced one, in declaration order.
    fn to_json(&self, traced: bool) -> Result<Json, String> {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in names {
            let value = match self.metrics.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                None if traced => 0.0,
                None => return Err(format!("metric `{name}` was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite: {value}"));
            }
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.tally.failed == 0)),
            (
                "attempted".to_string(),
                Json::Num(self.tally.attempted as f64),
            ),
            ("failed".to_string(), Json::Num(self.tally.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]))
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Kernel threads of the solvers and of the daemon. The host has two
/// cores and steals CPU time from them in bursts; a stolen core stalls
/// every barrier of a two-thread parallel loop. Over ten seeds on a 2-vCPU
/// VM, two kernel threads spread the ventilation step time by 27 % and the
/// step rate by 47 % (interquartile distance over median); single-threaded
/// the spreads were 7–29 %.
const KERNEL_THREADS: &str = "1";

/// Median wall time of one `ThreadPool::run` of two trivial tasks on a
/// pool of two threads (one worker plus the caller): the dispatch-and-join
/// cost every parallel loop pays. The probe keeps its own pool because the
/// global one runs single-threaded (`KERNEL_THREADS`).
pub fn pool_run_probe(tracer: &trace::Tracer) -> f64 {
    let pool = dgflow_comm::ThreadPool::new(1);
    let n = pool.n_threads();
    let mut times = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let _s = tracer.span("comm.pool_run", None);
        let t = Instant::now();
        pool.run(n, &|i| {
            std::hint::black_box(i);
        });
        times.push(t.elapsed().as_secs_f64());
    }
    stats::median(&times).expect("probe ran")
}

/// `(traced − untraced) / untraced` of two medians.
pub fn overhead_ratio(untraced: &[f64], traced: &[f64]) -> f64 {
    match (stats::median(untraced), stats::median(traced)) {
        (Some(u), Some(t)) if u > 0.0 => (t - u) / u,
        _ => 0.0,
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        dgflow: PathBuf::from(".bench_build/release/dgflow"),
        out: PathBuf::from(".perfbench_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                }
            }
            "--dgflow" => args.dgflow = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("reference") {
        return match argv.get(1).map(String::as_str) {
            Some("ventilation") => {
                ventilation::print_reference();
                ExitCode::SUCCESS
            }
            Some("poisson") => {
                poisson::print_reference();
                ExitCode::SUCCESS
            }
            _ => {
                eprintln!("usage: perfbench reference <ventilation|poisson>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    // before anything touches the global pool; the daemon inherits it
    std::env::set_var("DGFLOW_THREADS", KERNEL_THREADS);
    let tracer = trace::Tracer::new(args.trace);
    let report = match args.workload.as_str() {
        "ventilation" => ventilation::run(&args, &tracer),
        "poisson" => poisson::run(&args, &tracer),
        "service" => service::run(&args, &tracer),
        other => Err(format!("unknown workload `{other}`")),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = args
            .out
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: writing spans: {e}");
            return ExitCode::FAILURE;
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, value) in &report.metrics {
        let unit = names
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, u)| *u);
        eprintln!("{name:<36} {value:>14.6e} {unit}");
    }
    eprintln!(
        "attempted {} failed {} (failed ratio {:.4}; base: every operation plus every output check)",
        report.tally.attempted,
        report.tally.failed,
        report.tally.failed_ratio()
    );
    match report.to_json(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's `BENCHMARK.json`
    /// must name the same metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = dgflow_runtime::json::parse(&text).expect("valid JSON");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Json::as_arr).expect(key);
            let declared: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(Json::as_str).expect("name"),
                        e.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(declared, list.to_vec(), "{key}");
        }
    }

    #[test]
    fn per_layer_defaults_to_zero_but_end_to_end_must_be_measured() {
        let mut r = Report::default();
        r.tally.record(true);
        r.set("trace.overhead_ratio", 0.01);
        let line = r.to_json(true).expect("per-layer line").to_string();
        assert!(line.contains("\"lung.mesh_s\":{\"value\":0,\"unit\":\"s\"}"));
        assert!(r.to_json(false).is_err());
        for (name, _) in END_TO_END {
            r.set(name, 1.0);
        }
        assert!(r.to_json(false).is_ok());
        r.metrics[1].1 = f64::NAN;
        assert!(r.to_json(false).is_err());
    }
}
