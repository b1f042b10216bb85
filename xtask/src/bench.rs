//! Benchmark regression gate and figure regeneration.
//!
//! `cargo xtask bench-check` reruns the `matvec` criterion benchmark with
//! `CRITERION_JSON` pointed at a scratch file and compares the measured
//! throughput of every `(space, precision, k)` configuration against the
//! committed baseline: a drop of more than [`TOLERANCE`] at any single
//! configuration fails the gate. `--quick` uses a smaller mesh (and its
//! own baseline) so the gate fits a CI budget, and also gates the
//! distributed-overlap mat-vec (`dist`) and solver set-up (`setup`)
//! benches against their own quick baselines; `--update` rewrites the
//! baseline from a fresh measurement instead of comparing — that is how
//! a new trajectory point is recorded.
//!
//! Noise handling: on this class of shared machine, run-to-run
//! throughput moves ±30 % from background load (both global drift and
//! per-configuration bursts), so single-run comparison at a tight
//! tolerance would flake. The gate therefore compares *envelopes*:
//! `--update` records the per-configuration best of two full passes,
//! and the check merges up to three passes (stopping early once every
//! configuration is within tolerance) before failing. A regression that
//! survives a three-pass best-of merge against a two-pass baseline is
//! real, not scheduler noise.
//!
//! `cargo xtask fig06` regenerates `results/fig06_throughput.md` from the
//! committed `BENCH_matvec.json`, so the figure and the baseline can never
//! disagree again.

use std::collections::BTreeMap;

/// Maximum tolerated per-configuration throughput drop (fractional),
/// applied envelope-to-envelope (see module docs on noise handling).
const TOLERANCE: f64 = 0.30;
/// Measurement passes merged into a recorded baseline (`--update`).
const UPDATE_PASSES: u32 = 2;
/// Maximum measurement passes merged before the gate gives a verdict.
const CHECK_PASSES: u32 = 3;

/// Full-size baseline (lung g=4, the default `DGFLOW_BENCH_G`).
const BASELINE: &str = "BENCH_matvec.json";
/// Quick-gate baseline (lung g=2, `--quick`).
const BASELINE_QUICK: &str = "BENCH_matvec_quick.json";
/// Quick-gate baseline of the distributed-overlap scaling microbench
/// (`--quick` only; the bifurcation case at 1 and 2 in-process ranks).
const BASELINE_DIST_QUICK: &str = "BENCH_dist_quick.json";
/// Quick-gate baseline of the set-up microbench (`--quick` only; the
/// bifurcation case's `MatrixFree::new` and `HybridMultigrid::build`).
const BASELINE_SETUP_QUICK: &str = "BENCH_setup_quick.json";

/// One benchmark record parsed from a `dgflow-criterion-v1` file.
#[derive(Clone, Copy, Debug)]
struct Record {
    ns_per_iter: f64,
    elements_per_iter: f64,
    elements_per_second: f64,
}

/// Parse the stub's JSON baseline format. Hand-rolled on purpose: the
/// writer (vendor/criterion) emits one benchmark object per line, and the
/// xtask must not grow dependencies.
fn parse_baseline(text: &str) -> Result<BTreeMap<String, Record>, String> {
    if !text.contains("\"schema\": \"dgflow-criterion-v1\"") {
        return Err("missing dgflow-criterion-v1 schema marker".into());
    }
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(id) = field_str(line, "id") else {
            continue;
        };
        let ns = field_num(line, "ns_per_iter")
            .ok_or_else(|| format!("benchmark `{id}`: missing ns_per_iter"))?;
        let eps = field_num(line, "elements_per_second")
            .ok_or_else(|| format!("benchmark `{id}`: missing elements_per_second"))?;
        out.insert(
            id,
            Record {
                ns_per_iter: ns,
                elements_per_iter: field_num(line, "elements_per_iter").unwrap_or(0.0),
                elements_per_second: eps,
            },
        );
    }
    if out.is_empty() {
        return Err("no benchmark records found".into());
    }
    Ok(out)
}

/// Extract `"key": "value"` from a single JSON line.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract `"key": <number>` from a single JSON line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Run a dgflow-bench criterion benchmark into `json_path` with a
/// `budget_ms` measurement window per configuration (longer windows fit
/// more best-of batches, shrinking scheduler-noise variance); `envs` are
/// bench-specific sizing knobs like `DGFLOW_BENCH_G`.
fn run_bench(
    bench: &str,
    json_path: &std::path::Path,
    budget_ms: &str,
    envs: &[(&str, &str)],
) -> bool {
    let mut cmd = crate::cargo();
    cmd.args(["bench", "-p", "dgflow-bench", "--bench", bench])
        .env("CRITERION_JSON", json_path)
        .env("CRITERION_MEASUREMENT_MS", budget_ms);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    crate::step(&format!("bench {bench}"), &mut cmd)
}

/// One measurement pass: run the benchmark and parse its JSON output.
fn measure_once(
    bench: &str,
    json_path: &std::path::Path,
    budget_ms: &str,
    envs: &[(&str, &str)],
) -> Option<BTreeMap<String, Record>> {
    let _ = std::fs::remove_file(json_path);
    if !run_bench(bench, json_path, budget_ms, envs) {
        return None;
    }
    let text = match std::fs::read_to_string(json_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask: bench-check: benchmark wrote no JSON: {e}");
            return None;
        }
    };
    match parse_baseline(&text) {
        Ok(b) => Some(b),
        Err(e) => {
            eprintln!("xtask: bench-check: bad benchmark output: {e}");
            None
        }
    }
}

/// Fold `pass` into `best`, keeping the faster record per configuration.
fn merge_best(best: &mut BTreeMap<String, Record>, pass: BTreeMap<String, Record>) {
    for (id, rec) in pass {
        best.entry(id)
            .and_modify(|b| {
                if rec.elements_per_second > b.elements_per_second {
                    *b = rec;
                }
            })
            .or_insert(rec);
    }
}

/// Serialize records back to the `dgflow-criterion-v1` format the vendored
/// criterion stub writes, so merged baselines stay round-trippable.
fn serialize_baseline(records: &BTreeMap<String, Record>) -> String {
    let lines: Vec<String> = records
        .iter()
        .map(|(id, r)| {
            format!(
                "    {{\"id\": \"{id}\", \"ns_per_iter\": {:.1}, \
                 \"elements_per_iter\": {}, \"elements_per_second\": {:.4e}}}",
                r.ns_per_iter, r.elements_per_iter as u64, r.elements_per_second
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"dgflow-criterion-v1\",\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    )
}

/// Compare `current` against `baseline`, printing a per-configuration
/// table. Returns true when every configuration is within [`TOLERANCE`].
fn within_tolerance(
    baseline: &BTreeMap<String, Record>,
    current: &BTreeMap<String, Record>,
    baseline_path: &str,
) -> bool {
    let mut ok = true;
    eprintln!(
        "xtask: bench-check vs {baseline_path} (fail below {:.0}% of baseline):",
        (1.0 - TOLERANCE) * 100.0
    );
    for (id, base) in baseline {
        let Some(cur) = current.get(id) else {
            eprintln!("  {id:<24} MISSING from current run");
            ok = false;
            continue;
        };
        let ratio = cur.elements_per_second / base.elements_per_second;
        let verdict = if ratio < 1.0 - TOLERANCE {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        eprintln!(
            "  {id:<24} {:>10.3e} -> {:>10.3e} DoF/s  ({:>6.1}%)  {verdict}",
            base.elements_per_second,
            cur.elements_per_second,
            ratio * 100.0
        );
    }
    ok
}

/// Tracing overhead gate: the `trace_overhead` binary measures the k=3
/// DG DP mat-vec with tracing fully on vs off (interleaved best-of) and
/// exits nonzero past its 5% budget (`DGFLOW_TRACE_OVERHEAD_TOL`).
fn trace_overhead_gate() -> bool {
    crate::step(
        "trace overhead",
        crate::cargo().args([
            "run",
            "--release",
            "-p",
            "dgflow-bench",
            "--bin",
            "trace_overhead",
        ]),
    )
}

/// One benchmark's envelope gate (or `--update` recording) against its
/// baseline file. `record_flags` is the `bench-check` flag string that
/// re-records this baseline, for the failure hint.
#[allow(clippy::too_many_arguments)]
fn envelope(
    bench: &str,
    baseline_path: &str,
    scratch_json: &std::path::Path,
    update: bool,
    record_flags: &str,
    budget_ms: &str,
    envs: &[(&str, &str)],
) -> bool {
    if update {
        let mut best = BTreeMap::new();
        for pass in 0..UPDATE_PASSES {
            eprintln!(
                "xtask: bench-check: recording {bench} pass {}/{UPDATE_PASSES}",
                pass + 1
            );
            let Some(run) = measure_once(bench, scratch_json, budget_ms, envs) else {
                return false;
            };
            merge_best(&mut best, run);
        }
        if let Err(e) = std::fs::write(baseline_path, serialize_baseline(&best)) {
            eprintln!("xtask: bench-check: cannot write {baseline_path}: {e}");
            return false;
        }
        eprintln!(
            "xtask: bench-check: recorded new trajectory point in {baseline_path} \
             (best of {UPDATE_PASSES} passes)"
        );
        return true;
    }
    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "xtask: bench-check: no baseline {baseline_path} ({e}); \
                 record one with `cargo xtask bench-check{record_flags} --update`"
            );
            return false;
        }
    };
    let baseline = match parse_baseline(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("xtask: bench-check: bad baseline {baseline_path}: {e}");
            return false;
        }
    };
    let mut best = BTreeMap::new();
    for pass in 0..CHECK_PASSES {
        let Some(run) = measure_once(bench, scratch_json, budget_ms, envs) else {
            return false;
        };
        merge_best(&mut best, run);
        if within_tolerance(&baseline, &best, baseline_path) {
            eprintln!(
                "xtask: bench-check: all {bench} configurations within tolerance \
                 (pass {}/{CHECK_PASSES})",
                pass + 1
            );
            return true;
        }
        if pass + 1 < CHECK_PASSES {
            eprintln!(
                "xtask: bench-check: {bench} regression after pass {} — remeasuring \
                 to rule out machine noise",
                pass + 1
            );
        }
    }
    eprintln!(
        "xtask: bench-check: FAILED — a {bench} configuration lost more than {:.0}% \
         throughput across the best of {CHECK_PASSES} passes; if intentional, \
         re-record with `cargo xtask bench-check{record_flags} --update`",
        TOLERANCE * 100.0,
    );
    false
}

/// The `bench-check` gate. Flags: `--quick`, `--update`.
pub fn bench_check(args: &[String]) -> bool {
    let quick = args.iter().any(|a| a == "--quick");
    let update = args.iter().any(|a| a == "--update");
    if quick && !update && !trace_overhead_gate() {
        return false;
    }
    let (baseline_path, g, budget_ms) = if quick {
        (BASELINE_QUICK, "2", "400")
    } else {
        (BASELINE, "4", "1500")
    };
    let scratch_dir = std::path::Path::new("target/bench-check");
    if let Err(e) = std::fs::create_dir_all(scratch_dir) {
        eprintln!(
            "xtask: bench-check: cannot create {}: {e}",
            scratch_dir.display()
        );
        return false;
    }
    // cargo runs bench binaries with the *package* directory as CWD, so
    // the path handed to the bench process must be absolute
    let scratch_dir = match scratch_dir.canonicalize() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask: bench-check: cannot resolve scratch dir: {e}");
            return false;
        }
    };
    let record_flags = if quick { " --quick" } else { "" };
    if !envelope(
        "matvec",
        baseline_path,
        &scratch_dir.join("current.json"),
        update,
        record_flags,
        budget_ms,
        &[("DGFLOW_BENCH_G", g)],
    ) {
        return false;
    }
    // The quick gate also covers the distributed-overlap mat-vec, so a
    // slowdown in the exchange/overlap path is caught even when the
    // serial kernels are unchanged.
    if quick
        && !envelope(
            "dist",
            BASELINE_DIST_QUICK,
            &scratch_dir.join("dist.json"),
            update,
            record_flags,
            budget_ms,
            &[],
        )
    {
        return false;
    }
    // ... and solver set-up (metric terms, numbering, diagonals, smoother
    // estimates), which every served job pays before its first step.
    if quick
        && !envelope(
            "setup",
            BASELINE_SETUP_QUICK,
            &scratch_dir.join("setup.json"),
            update,
            record_flags,
            budget_ms,
            &[],
        )
    {
        return false;
    }
    true
}

/// Regenerate `results/fig06_throughput.md` from the committed
/// `BENCH_matvec.json` (the throughput trajectory's current point).
pub fn fig06() -> bool {
    let text = match std::fs::read_to_string(BASELINE) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xtask: fig06: cannot read {BASELINE}: {e}");
            return false;
        }
    };
    let records = match parse_baseline(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: fig06: bad {BASELINE}: {e}");
            return false;
        }
    };
    let eng = |x: f64| format!("{x:.3e}");
    let mut body = String::from(
        "# Fig. 6 (left) — matrix-free Laplacian throughput, lung g=4\n\n\
         Generated from `BENCH_matvec.json` with `cargo xtask fig06`; record a\n\
         new baseline first with\n\
         `CRITERION_JSON=$PWD/BENCH_matvec.json cargo bench -p dgflow-bench --bench matvec`\n\
         (or `cargo xtask bench-check --update`).\n\n\
         | k | DG DoF | DG mat-vec DP [DoF/s] | DG mat-vec SP [DoF/s] | CG DoF | CG mat-vec DP [DoF/s] | DG SP/DP |\n\
         | -- | -- | -- | -- | -- | -- | -- |\n",
    );
    for k in 1..=6u32 {
        let get = |kind: &str| -> Option<&Record> { records.get(&format!("matvec/{kind}/{k}")) };
        let (Some(dg_dp), Some(dg_sp), Some(cg_dp)) = (get("dg_dp"), get("dg_sp"), get("cg_dp"))
        else {
            eprintln!("xtask: fig06: {BASELINE} is missing k={k} entries");
            return false;
        };
        body.push_str(&format!(
            "| {k} | {} | {} | {} | {} | {} | {:.2} |\n",
            dg_dp.elements_per_iter as u64,
            eng(dg_dp.elements_per_second),
            eng(dg_sp.elements_per_second),
            cg_dp.elements_per_iter as u64,
            eng(cg_dp.elements_per_second),
            dg_sp.elements_per_second / dg_dp.elements_per_second,
        ));
    }
    body.push_str(
        "\npaper: DG k=3 DP mat-vec ≈ 1.4e9 DoF/s on one 48-core node; the\n\
         SP/DP gap closing toward ~2 is the bandwidth-bound signature the\n\
         fused kernels target (Sec. 5).\n",
    );
    let path = "results/fig06_throughput.md";
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("xtask: fig06: cannot write {path}: {e}");
        return false;
    }
    eprintln!("xtask: fig06: regenerated {path} from {BASELINE}");
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "dgflow-criterion-v1",
  "benchmarks": [
    {"id": "matvec/dg_dp/1", "ns_per_iter": 3340539.4, "elements_per_iter": 27456, "elements_per_second": 8.2190e6},
    {"id": "matvec/cg_dp/1", "ns_per_iter": 1447486.7, "elements_per_iter": 5740, "elements_per_second": 3.9655e6}
  ]
}
"#;

    #[test]
    fn parses_stub_baseline_format() {
        let b = parse_baseline(SAMPLE).unwrap();
        assert_eq!(b.len(), 2);
        let r = &b["matvec/dg_dp/1"];
        assert!((r.elements_per_second - 8.219e6).abs() < 1.0);
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(parse_baseline("{\"schema\": \"other\"}").is_err());
        assert!(parse_baseline("{\"schema\": \"dgflow-criterion-v1\"}").is_err());
    }

    #[test]
    fn merge_keeps_fastest_and_serializes_round_trip() {
        let mut best = parse_baseline(SAMPLE).unwrap();
        let mut second = best.clone();
        // A faster second pass for one config, slower for the other.
        second
            .get_mut("matvec/dg_dp/1")
            .unwrap()
            .elements_per_second = 9.0e6;
        second
            .get_mut("matvec/cg_dp/1")
            .unwrap()
            .elements_per_second = 1.0e6;
        merge_best(&mut best, second);
        assert!((best["matvec/dg_dp/1"].elements_per_second - 9.0e6).abs() < 1.0);
        assert!((best["matvec/cg_dp/1"].elements_per_second - 3.9655e6).abs() < 1.0);
        let round = parse_baseline(&serialize_baseline(&best)).unwrap();
        assert_eq!(round.len(), best.len());
        let r = &round["matvec/dg_dp/1"];
        assert!((r.elements_per_second - 9.0e6).abs() < 1.0);
        assert!((r.elements_per_iter - 27456.0).abs() < 0.5);
    }
}
