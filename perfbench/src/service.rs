//! `service`: the real `dgflow serve` daemon as a child process on a
//! fresh state directory, driven by one client process over its Unix
//! socket. An open-loop phase offers `RATE` jobs per second for the run's
//! seconds (rounded up to whole blocks of the mix); a burst phase then
//! submits `BURST_JOBS` at once and measures how fast the daemon drains
//! them.
//!
//! The job mix comes from three tenants: mostly tiny duct jobs, some exact
//! or reformatted duplicates of recent jobs (cache hits or dedup joins),
//! and a few one-generation lung jobs. Every job is timed from when it was
//! due, not from when it was sent.

use crate::host::{HostSpeed, REFERENCE_S};
use crate::stats::{due_time, median, percentile, JobTiming, Rng, Tally};
use crate::trace::Tracer;
use crate::{overhead_ratio, peak_rss_mb, pool_run_probe, Args, Report};
use dgflow_comm::CancelToken;
use dgflow_runtime::json::{self, Json};
use dgflow_runtime::{canonical_fingerprint, run_campaign_with, CampaignSpec, SetupCache};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load of the open-loop phase (jobs/s): about a quarter of the
/// burst capacity the daemon sustains on a 2-core host. At half capacity
/// the few percent of CPU time a shared host steals in bursts tipped the
/// daemon into sustained queueing in some runs and not in others, and the
/// latency spread across runs exceeded every bound.
const RATE: f64 = 5.0;
const TENANTS: [&str; 3] = ["clinic-a", "clinic-b", "research"];
/// One block of the mix, shuffled by the seed: 40 duct jobs, 9
/// duplicates, 1 lung job. The open loop offers whole blocks and the
/// burst is two, so every run sees the same mix. Lung jobs stay few
/// enough that they and the jobs queued behind them make up well under a
/// tenth of the open loop: with more, the 90th percentile fell on the
/// edge of that group and jumped between runs with their placement.
const BLOCK: [Kind; 50] = {
    let mut b = [Kind::Duct; 50];
    let mut i = 40;
    while i < 49 {
        b[i] = Kind::Duplicate;
        i += 1;
    }
    b[49] = Kind::Lung;
    b
};
const BURST_JOBS: usize = 2 * BLOCK.len();
/// Give up on jobs still unfinished this long after the last was due.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
const POLL_PAUSE: Duration = Duration::from_millis(5);
/// Daemon start-ups per run; start-up takes milliseconds, so the median
/// needs more samples than the seconds-long set-ups of the solvers.
const SETUP_STARTS: usize = 9;
/// Host-speed samples before and after the run.
const HOST_SAMPLES: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Duct,
    Lung,
    Duplicate,
}

/// One planned submission.
#[derive(Clone, Debug)]
struct Plan {
    tenant: &'static str,
    spec: String,
    /// Index of the job this one duplicates.
    duplicate_of: Option<usize>,
}

fn duct_spec(name: &str, pressure_drop_milli: u64, reformat: bool) -> String {
    if reformat {
        // same job, spelled differently: key order, spacing, number format
        format!(
            "[campaign]\ncheckpoint_every=2\nname=\"{name}\"\n\n[[case]]\n\
             telemetry_every = 4\npressure_drop = {pressure_drop_milli}.0e-3\nmultigrid = false\n\
             viscosity = 5e-1\ndt_max = 1e-2\nsteps = 8\ndegree = 2\n\
             mesh = \"duct\"\nname = \"duct\"\n"
        )
    } else {
        format!(
            "[campaign]\nname = \"{name}\"\ncheckpoint_every = 2\n\n[[case]]\n\
             name = \"duct\"\nmesh = \"duct\"\ndegree = 2\nsteps = 8\n\
             dt_max = 0.01\nviscosity = 0.5\nmultigrid = false\n\
             pressure_drop = {}\ntelemetry_every = 4\n",
            pressure_drop_milli as f64 / 1e3
        )
    }
}

fn lung_spec(name: &str, dt_micro: u64) -> String {
    format!(
        "[campaign]\nname = \"{name}\"\ncheckpoint_every = 2\n\n[[case]]\n\
         name = \"lung\"\nmesh = \"lung\"\ngenerations = 1\ndegree = 2\nsteps = 4\n\
         dt_max = {:e}\nrel_tol = 1e-3\ntelemetry_every = 2\n",
        dt_micro as f64 * 1e-6
    )
}

/// The seeded job stream: `n` jobs, block-shuffled mix, duplicates of one
/// of the ten most recent original jobs.
fn plan_jobs(rng: &mut Rng, first: usize, n: usize, history: &mut Vec<(usize, u64)>) -> Vec<Plan> {
    let mut kinds = Vec::new();
    while kinds.len() < n {
        let mut block = BLOCK;
        rng.shuffle(&mut block);
        kinds.extend_from_slice(&block);
    }
    kinds.truncate(n);
    kinds
        .into_iter()
        .enumerate()
        .map(|(k, kind)| {
            let i = first + k;
            let tenant = TENANTS[rng.below(TENANTS.len())];
            match kind {
                Kind::Duplicate if !history.is_empty() => {
                    let recent = &history[history.len().saturating_sub(10)..];
                    let (orig, milli) = recent[rng.below(recent.len())];
                    Plan {
                        tenant,
                        spec: duct_spec(&format!("job{orig}"), milli, rng.below(2) == 1),
                        duplicate_of: Some(orig),
                    }
                }
                Kind::Lung => Plan {
                    tenant,
                    spec: lung_spec(&format!("job{i}"), 150 + rng.below(100) as u64),
                    duplicate_of: None,
                },
                _ => {
                    let milli = 50 + rng.below(950) as u64;
                    history.push((i, milli));
                    Plan {
                        tenant,
                        spec: duct_spec(&format!("job{i}"), milli, false),
                        duplicate_of: None,
                    }
                }
            }
        })
        .collect()
}

/// A persistent line-delimited JSON connection to the daemon.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> std::io::Result<Self> {
        let writer = UnixStream::connect(socket)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn request(&mut self, req: &Json) -> Result<Json, String> {
        writeln!(self.writer, "{req}").map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        json::parse(&line)
    }

    fn status(&mut self, job: &str) -> Result<Json, String> {
        let reply = self.request(&Json::obj([
            ("verb", Json::Str("status".into())),
            ("job", Json::Str(job.into())),
        ]))?;
        reply
            .get("jobs")
            .and_then(Json::as_arr)
            .and_then(|a| a.first())
            .cloned()
            .ok_or(format!("bad status reply {reply}"))
    }
}

/// The daemon child process; killed and reaped if still running on drop.
struct Daemon {
    child: Child,
    state: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    /// Spawn on a fresh state directory and wait for the first answered
    /// request; returns the daemon and that wait.
    fn start(dgflow: &Path, state: PathBuf) -> Result<(Self, f64), String> {
        let _ = std::fs::remove_dir_all(&state);
        std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
        let log = std::fs::File::create(state.join("daemon.log")).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let child = Command::new(dgflow)
            .arg("serve")
            .arg(&state)
            .env_remove("DGFLOW_TRACE")
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", dgflow.display()))?;
        let socket = state.join("dgflow.sock");
        let mut daemon = Self {
            child,
            state,
            socket,
        };
        loop {
            if let Ok(mut c) = Conn::open(&daemon.socket) {
                let reply = c.request(&Json::obj([("verb", Json::Str("stats".into()))]))?;
                if reply.get("ok") == Some(&Json::Bool(true)) {
                    return Ok((daemon, t0.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not answer within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Graceful shutdown; returns the daemon's peak RSS.
    fn stop(mut self) -> Result<f64, String> {
        let rss = peak_rss_mb(Some(self.child.id())).ok_or("no VmHWM for the daemon")?;
        let mut c = Conn::open(&self.socket).map_err(|e| e.to_string())?;
        c.request(&Json::obj([("verb", Json::Str("shutdown".into()))]))?;
        drop(c);
        let t0 = Instant::now();
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not exit within 30 s of shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(rss)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.state);
    }
}

/// What the client observed about one submission.
#[derive(Clone, Debug, Default)]
struct Outcome {
    timing: JobTiming,
    job: Option<String>,
    cached: bool,
    joined: bool,
    /// First time the poller saw the job `running`.
    running_at: Option<f64>,
    finished: bool,
    ok: bool,
}

/// Send `plans` on the open-loop schedule `due` (seconds after `start`)
/// from one thread while a second polls for completions.
fn drive(
    socket: &Path,
    plans: &[Plan],
    due: &[f64],
    tracer: &Tracer,
) -> Result<(Vec<Outcome>, Tally), String> {
    let start = Instant::now();
    let now = move || start.elapsed().as_secs_f64();
    let outcomes = Mutex::new(vec![Outcome::default(); plans.len()]);
    let sent_all = std::sync::atomic::AtomicBool::new(false);
    let checks = Mutex::new(Tally::default());
    let mut sender = Conn::open(socket).map_err(|e| e.to_string())?;
    let mut poller = Conn::open(socket).map_err(|e| e.to_string())?;
    std::thread::scope(|scope| -> Result<(), String> {
        let send = scope.spawn(|| -> Result<(), String> {
            let result = (|| {
                for (i, plan) in plans.iter().enumerate() {
                    let wait = due[i] - now();
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait));
                    }
                    let sent = now();
                    let reply = {
                        let _s = tracer.span("serve.submit", None);
                        sender.request(&Json::obj([
                            ("verb", Json::Str("submit".into())),
                            ("spec", Json::Str(plan.spec.clone())),
                            ("tenant", Json::Str(plan.tenant.into())),
                        ]))?
                    };
                    let acked = now();
                    let ok = reply.get("ok") == Some(&Json::Bool(true));
                    let cached = reply.get("cached") == Some(&Json::Bool(true));
                    let joined = reply.get("dedup") == Some(&Json::Bool(true));
                    let job = reply.get("job").and_then(Json::as_str).map(String::from);
                    // a fresh spec must be admitted, never answered from
                    // the cache or joined to another job
                    let admitted = ok && job.is_some();
                    let fresh_ok = plan.duplicate_of.is_some() || (!cached && !joined);
                    // a cached answer is only allowed for a completed job
                    let cached_ok = !cached || {
                        let st = sender.status(job.as_deref().unwrap_or_default())?;
                        st.get("state").and_then(Json::as_str) == Some("completed")
                            && st.get("steps_done") == st.get("steps_target")
                    };
                    {
                        let mut c = checks.lock().expect("checks lock");
                        c.record(fresh_ok);
                        c.record(cached_ok);
                    }
                    if !admitted {
                        eprintln!("service: submit {i} refused: {reply}");
                    }
                    let mut o = outcomes.lock().expect("outcome lock");
                    o[i].timing = JobTiming {
                        due: due[i],
                        sent,
                        acked,
                        done: acked,
                    };
                    o[i].cached = cached;
                    o[i].joined = joined;
                    o[i].job = job;
                    if !admitted || cached {
                        o[i].finished = true;
                        o[i].ok = admitted && fresh_ok && cached_ok;
                    }
                }
                Ok(())
            })();
            sent_all.store(true, std::sync::atomic::Ordering::SeqCst);
            result
        });
        let poll = scope.spawn(|| -> Result<(), String> {
            let mut deadline: Option<Instant> = None;
            // job id → (time it was seen to end, whether it ran every step)
            let mut ended: HashMap<String, (f64, bool)> = HashMap::new();
            loop {
                let (targets, pending, unacked) = {
                    let mut o = outcomes.lock().expect("outcome lock");
                    // every submission of an ended job is done, a join acked
                    // after the job ended at its ack
                    for x in o.iter_mut().filter(|x| !x.finished) {
                        if let Some(&(t, ok)) = x.job.as_ref().and_then(|j| ended.get(j)) {
                            x.timing.done = t.max(x.timing.acked);
                            x.finished = true;
                            x.ok = ok;
                        }
                    }
                    let pending = o.iter().filter(|x| !x.finished && x.job.is_some()).count();
                    let unacked = o.iter().any(|x| !x.finished && x.job.is_none());
                    // Each tenant's queue is FIFO, so its oldest unfinished
                    // job is the next of its jobs to finish. Polling only
                    // that one per tenant keeps the poll rate independent of
                    // the backlog, so a backlog does not slow the daemon
                    // further through the client's own status traffic.
                    let mut tenants = Vec::new();
                    let targets: Vec<(usize, String)> = o
                        .iter()
                        .enumerate()
                        .filter(|(_, x)| !x.finished && !x.joined)
                        .filter_map(|(i, x)| x.job.clone().map(|j| (i, j)))
                        .filter(|(i, _)| {
                            let fresh = !tenants.contains(&plans[*i].tenant);
                            tenants.push(plans[*i].tenant);
                            fresh
                        })
                        .collect();
                    (targets, pending, unacked)
                };
                let all_sent = sent_all.load(std::sync::atomic::Ordering::SeqCst);
                if all_sent && pending == 0 && !unacked {
                    return Ok(());
                }
                if all_sent {
                    let d = *deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
                    if Instant::now() > d {
                        eprintln!("service: {pending} jobs unfinished at the drain timeout");
                        return Ok(());
                    }
                }
                for (i, job) in targets {
                    let st = {
                        let _s = tracer.span("serve.status", None);
                        poller.status(&job)?
                    };
                    let t = now();
                    match st.get("state").and_then(Json::as_str).unwrap_or("?") {
                        "running" => {
                            outcomes.lock().expect("outcome lock")[i]
                                .running_at
                                .get_or_insert(t);
                        }
                        "completed" => {
                            let ok = st.get("steps_done") == st.get("steps_target");
                            if !ok {
                                eprintln!("service: job {job} completed short: {st}");
                            }
                            ended.insert(job, (t, ok));
                        }
                        state @ ("failed" | "cancelled") => {
                            eprintln!("service: job {job} ended {state}: {st}");
                            ended.insert(job, (t, false));
                        }
                        _ => {}
                    }
                }
                std::thread::sleep(POLL_PAUSE);
            }
        });
        let sent = send.join().map_err(|_| "sender thread panicked")?;
        let polled = poll.join().map_err(|_| "poller thread panicked")?;
        sent.and(polled)
    })?;
    let outcomes = outcomes.into_inner().expect("outcome lock");
    let mut tally = checks.into_inner().expect("checks lock");
    for o in &outcomes {
        tally.record(o.finished && o.ok);
    }
    Ok((outcomes, tally))
}

/// One daemon lifetime: start, open-loop phase, burst phase, stop.
pub struct Phase {
    open: Vec<Outcome>,
    open_plans: Vec<Plan>,
    burst_s: f64,
    burst: Vec<Outcome>,
    peak_rss_mb: f64,
    pub tally: Tally,
}

/// A fresh daemon offered `seconds` of open loop, then one burst.
fn phase(args: &Args, seconds: f64, tracer: &Tracer, tag: &str) -> Result<Phase, String> {
    let state = args.out.join(format!("svc-{tag}-{}", std::process::id()));
    let (daemon, _) = Daemon::start(&args.dgflow, state)?;
    let mut rng = Rng::new(args.seed);
    let mut history = Vec::new();
    let blocks = (RATE * seconds / BLOCK.len() as f64).ceil().max(1.0) as usize;
    let n_open = blocks * BLOCK.len();
    let open_plans = plan_jobs(&mut rng, 0, n_open, &mut history);
    let due: Vec<f64> = (0..n_open).map(|i| due_time(i, RATE)).collect();
    let (open, mut tally) = drive(&daemon.socket, &open_plans, &due, tracer)?;
    let burst_plans = plan_jobs(&mut rng, n_open, BURST_JOBS, &mut history);
    let (burst, burst_tally) = drive(&daemon.socket, &burst_plans, &[0.0; BURST_JOBS], tracer)?;
    tally.attempted += burst_tally.attempted;
    tally.failed += burst_tally.failed;
    // every burst job was due at the phase start
    let burst_s = burst.iter().map(|o| o.timing.done).fold(0.0f64, f64::max);
    let peak_rss_mb = daemon.stop()?;
    Ok(Phase {
        open,
        open_plans,
        burst_s,
        burst,
        peak_rss_mb,
        tally,
    })
}

fn latencies(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.finished && o.ok)
        .map(|o| o.timing.latency())
        .collect()
}

/// Median daemon start-up (spawn until the first answered request) over
/// `SETUP_STARTS` fresh state directories.
fn measure_setup(args: &Args) -> Result<f64, String> {
    let mut times = Vec::new();
    for k in 0..SETUP_STARTS {
        let state = args
            .out
            .join(format!("svc-setup{k}-{}", std::process::id()));
        let (daemon, s) = Daemon::start(&args.dgflow, state)?;
        daemon.stop()?;
        times.push(s);
    }
    Ok(median(&times).expect("start-ups ran"))
}

pub fn run(args: &Args, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    if !args.trace {
        // The daemon's work cannot be interleaved with samples without
        // disturbing the open loop, so the host is sampled around it and
        // the whole run is scaled by one speed.
        let host = HostSpeed::new();
        host.sample(HOST_SAMPLES);
        let setup_s = measure_setup(args)?;
        let p = phase(args, args.seconds, tracer, "open")?;
        host.sample(HOST_SAMPLES);
        let speed = REFERENCE_S / host.median_sample().expect("the host was sampled");
        let lat = latencies(&p.open);
        let last_done = p.open.iter().map(|o| o.timing.done).fold(0.0f64, f64::max);
        let completed = p.open.iter().filter(|o| o.finished && o.ok).count();
        let lags: Vec<f64> = p.open.iter().map(|o| o.timing.lag()).collect();
        eprintln!(
            "service: {} open-loop jobs at {RATE}/s, {} completed, generator lag p90 {:.3e} s; \
             burst {} jobs in {:.3} s; wall: setup {setup_s:.4} s; host speed {speed:.4} of the reference",
            p.open.len(),
            completed,
            percentile(&lags, 0.9).unwrap_or(0.0),
            p.burst.len(),
            p.burst_s
        );
        let p50 = percentile(&lat, 0.5).ok_or("no job completed")?;
        let p90 = percentile(&lat, 0.9).ok_or("no job completed")?;
        report.set("setup_s", setup_s * speed);
        report.set("ref_op_s_p50", p50 * speed);
        report.set("ref_op_s_p90", p90 * speed);
        report.set("ref_ops_per_s", completed as f64 / last_done / speed);
        report.set(
            "ref_burst_ops_per_s",
            p.burst.len() as f64 / p.burst_s / speed,
        );
        report.set("ok_ratio", p.tally.ok_ratio());
        report.set("peak_rss_mb", p.peak_rss_mb);
        report.tally = p.tally;
    } else {
        let half = args.seconds / 2.0;
        let untraced = phase(args, half, &Tracer::new(false), "untraced")?;
        let traced = layer_metrics(args, half, tracer, &mut report)?;
        report.set("comm.pool_run_s", pool_run_probe(tracer));
        let host = HostSpeed::new();
        host.sample(HOST_SAMPLES);
        report.set(
            "host.calibration_s",
            host.median_sample().expect("the host was sampled"),
        );
        report.set(
            "trace.overhead_ratio",
            overhead_ratio(&latencies(&untraced.open), &latencies(&traced.open)),
        );
        report.tally = untraced.tally;
        report.tally.attempted += traced.tally.attempted;
        report.tally.failed += traced.tally.failed;
    }
    Ok(report)
}

/// Per-layer figures of the service and of the campaign runtime: one
/// traced daemon run (`seconds` of open loop, then the burst) and the
/// in-process runtime probes. Returns the daemon run, whose tally the caller
/// adds to its own.
pub fn layer_metrics(
    args: &Args,
    seconds: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Phase, String> {
    let p = phase(args, seconds, tracer, "traced")?;
    let duplicates: Vec<&Outcome> = p
        .open_plans
        .iter()
        .zip(&p.open)
        .filter(|(plan, _)| plan.duplicate_of.is_some())
        .map(|(_, o)| o)
        .collect();
    let dedup_hits = duplicates.iter().filter(|o| o.cached || o.joined).count();
    let queue_waits: Vec<f64> = p
        .open
        .iter()
        .filter(|o| !o.cached && !o.joined)
        .filter_map(|o| o.running_at.map(|r| r - o.timing.acked))
        .collect();
    let lags: Vec<f64> = p.open.iter().map(|o| o.timing.lag()).collect();
    report.set(
        "serve.submit_rtt_s",
        median(&tracer.durations("serve.submit")).ok_or("no submit traced")?,
    );
    report.set(
        "serve.status_rtt_s",
        median(&tracer.durations("serve.status")).ok_or("no status traced")?,
    );
    report.set("serve.queue_wait_s", median(&queue_waits).unwrap_or(0.0));
    report.set(
        "serve.dedup_hit_ratio",
        dedup_hits as f64 / duplicates.len().max(1) as f64,
    );
    report.set("loadgen.lag_p90_s", percentile(&lags, 0.9).unwrap_or(0.0));
    runtime_probes(args, tracer, report)?;
    Ok(p)
}

/// In-process timings of the campaign runtime a served job goes through:
/// spec parsing plus fingerprinting, and one representative job run with
/// a fresh and with a warmed `SetupCache`.
fn runtime_probes(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let text = duct_spec("probe", 500, false);
    let mut parse = Vec::new();
    for _ in 0..200 {
        let _s = tracer.span("runtime.spec_parse", None);
        let t = Instant::now();
        let spec = CampaignSpec::parse_str(&text, "probe").map_err(|e| e.to_string())?;
        std::hint::black_box((spec, canonical_fingerprint(&text)));
        parse.push(t.elapsed().as_secs_f64());
    }
    report.set("runtime.spec_parse_s", median(&parse).expect("parses ran"));

    let cache = Arc::new(SetupCache::new());
    let run = |tag: &str, span: &'static str| -> Result<f64, String> {
        let out = args
            .out
            .join(format!("campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        let job = text.replacen(
            "checkpoint_every",
            &format!("output = \"{}\"\ncheckpoint_every", out.display()),
            1,
        );
        let spec = CampaignSpec::parse_str(&job, "probe").map_err(|e| e.to_string())?;
        let _s = tracer.span(span, None);
        let t = Instant::now();
        let outcome = run_campaign_with(&spec, &job, false, &CancelToken::default(), &cache)
            .map_err(|e| e.to_string())?;
        let s = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&out);
        if !outcome.manifest.all_completed() {
            return Err(format!("probe campaign `{tag}` did not complete"));
        }
        Ok(s)
    };
    let cold = run("cold", "runtime.campaign_cold")?;
    let before = cache.stats.snapshot();
    let warm = run("warm", "runtime.campaign_warm")?;
    let after = cache.stats.snapshot();
    let hits = (after.shape_hits - before.shape_hits) + (after.mapping_hits - before.mapping_hits);
    let misses =
        (after.shape_misses - before.shape_misses) + (after.mapping_misses - before.mapping_misses);
    report.set("runtime.campaign_cold_s", cold);
    report.set("runtime.campaign_warm_s", warm);
    report.set(
        "runtime.setup_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reformatted_duplicates_spell_the_same_job() {
        for milli in 50..1000 {
            let a = duct_spec("job3", milli, false);
            let b = duct_spec("job3", milli, true);
            assert_ne!(a, b);
            assert_eq!(
                canonical_fingerprint(&a),
                canonical_fingerprint(&b),
                "{a}\n{b}"
            );
        }
        let a = duct_spec("job3", 123, false);
        assert_ne!(
            canonical_fingerprint(&a),
            canonical_fingerprint(&duct_spec("job3", 124, false))
        );
        CampaignSpec::parse_str(&lung_spec("job9", 200), "t").expect("lung spec parses");
    }

    #[test]
    fn job_stream_is_seeded_and_duplicates_point_back() {
        let plan = |seed| {
            let mut h = Vec::new();
            plan_jobs(&mut Rng::new(seed), 0, 2 * BLOCK.len(), &mut h)
        };
        let a = plan(5);
        assert_eq!(
            a.iter().map(|p| &p.spec).collect::<Vec<_>>(),
            plan(5).iter().map(|p| &p.spec).collect::<Vec<_>>()
        );
        for (i, p) in a.iter().enumerate() {
            if let Some(orig) = p.duplicate_of {
                assert!(orig < i);
                assert!(a[orig].duplicate_of.is_none());
            }
        }
        let dups = a.iter().filter(|p| p.duplicate_of.is_some()).count();
        // a duplicate drawn before any original job becomes a duct job
        assert!((17..=18).contains(&dups), "{dups}");
        assert_eq!(a.iter().filter(|p| p.spec.contains("\"lung\"")).count(), 2);
    }
}
