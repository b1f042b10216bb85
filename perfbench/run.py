#!/usr/bin/env python3
"""dgflow end-to-end benchmark: build, run one workload, or check steadiness.

    python3 perfbench/run.py --workload <ventilation|poisson|service> \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness [--runs 10] [--seconds S] \
        [--workload W ...]

Run from the repository root. The first form builds the `dgflow` daemon
and the benchmark binary from source (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and passes
the benchmark's output through: its last line is the JSON result.

The second form is the steadiness check: it makes two sets of `--runs`
runs per workload (seeds 1..runs; by default every workload in
BENCHMARK.json) and prints, for every end-to-end
metric, each set's median and quartiles, the run-to-run spread (the
interquartile distance as a share of the median), the spread as a share
of the metric's bound in BENCHMARK.json, and how far the second median
moved from the first. Every run's values are kept in
`.perfbench_out/steadiness-<workload>.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the daemon and the benchmark; return the benchmark binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "dgflow-serve", "--bin", "dgflow"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(target_dir(), "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dgflow", os.path.join(target_dir(), "release", "dgflow"),
           "--out", ".perfbench_out"]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def steadiness(binary, bench, workloads, runs, seconds):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        sets = []
        for s in range(2):
            values = {}
            for seed in range(1, runs + 1):
                r = run_once(binary, w, seed, seconds, 0)
                if r.returncode != 0:
                    sys.exit(f"perfbench: {w} seed {seed} exited {r.returncode}")
                res = json.loads(r.stdout.strip().splitlines()[-1])
                if not res["correct"] or res["failed"]:
                    print(f"{w} seed {seed}: correct={res['correct']} "
                          f"failed={res['failed']}/{res['attempted']}")
                    ok = False
                for k, v in res["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
                print(f"  {w} set {s + 1} seed {seed} done", file=sys.stderr)
            sets.append(values)
        os.makedirs(".perfbench_out", exist_ok=True)
        with open(os.path.join(".perfbench_out", f"steadiness-{w}.json"), "w") as f:
            json.dump(sets, f)
        print(f"\n## {w}: {runs} runs per set, {seconds} s each")
        print(f"{'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'spr/bnd':>8} {'Δmedian':>8}")
        for name, bound in bounds.items():
            med0 = statistics.median(sets[0][name])
            for s, values in enumerate(sets):
                q1, med, q3 = statistics.quantiles(values[name], n=4)
                spread = (q3 - q1) / med if med else float("inf")
                drift = (med - med0) / med0 if med0 else 0.0
                gate = name != "setup_s"
                if gate and spread > bound / 3:
                    ok = False
                print(f"{name:<18} {s + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {bound:>6.3f} {spread / bound:>8.3f} "
                      f"{drift:>+8.4f}")
    print("\nsteady: every spread below a third of its bound" if ok
          else "\nNOT steady: a spread exceeds a third of its bound, or a run failed")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    seconds = a.seconds if a.seconds else bench["run_seconds"]
    workloads = a.workload or (names if a.steadiness else [])
    if not a.steadiness and len(workloads) != 1:
        sys.exit("perfbench: give exactly one --workload")

    binary = build()
    if a.steadiness:
        sys.exit(0 if steadiness(binary, bench, workloads, a.runs, seconds) else 1)
    r = run_once(binary, workloads[0], a.seed, seconds, a.trace)
    sys.stdout.write(r.stdout)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
