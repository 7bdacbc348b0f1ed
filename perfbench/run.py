#!/usr/bin/env python3
"""Repository benchmark: builds the `perfbench` runner from source and
measures one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds `perfbench/` (a Cargo
package of its own) in release mode into `$CARGO_TARGET_DIR`, or
`.bench_build/` when that is unset, then:

* `--trace 0`: runs the workload in fresh processes, one after another,
  for about `--seconds` seconds (at least three runs). Each process
  times the workload's set-up (median of many set-ups) and one untraced
  run, and checks the run's outputs. The result carries `setup_s` and
  `run_s` at reference host speed (their medians over the median
  `host_factor`, see `perfbench/src/reference.rs`) and the median peak
  resident set `peak_rss_mb`. Every run of one seed must produce the same
  report digest and the same simulated metrics.
* `--trace 1`: runs the traced variant once: an untraced run, a run with
  every observation hook attached, the horizon-growth probe and the
  layer microbenchmarks. The result carries the per-layer metrics named
  in `BENCHMARK.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a human-readable table
goes to standard error. See `perfbench/NOTES.md` for the workloads and
the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ("cluster96_failover", "fabric_1m", "chaos_campaign")
# The crates the runner links; without them there is nothing to measure.
REQUIRED = [
    os.path.join("crates", name, "Cargo.toml")
    for name in (
        "hades-time",
        "hades-telemetry",
        "hades-sim",
        "hades-dispatch",
        "hades-sched",
        "hades-task",
        "hades-services",
        "hades-cluster",
        "hades-fabric",
        "hades-chaos",
    )
]
MIN_TIMED_RUNS = 3


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the runner and returns the path of its executable."""
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("not a HADES checkout, missing " + ", ".join(missing))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        fail(f"building the runner failed with code {built.returncode}")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"runner not found at {exe}")
    return exe


def run_child(argv):
    """Runs one runner process; returns (parsed last line or None, peak RSS in MiB)."""
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"run.py: {' '.join(argv[1:])} exited {child.returncode}", file=sys.stderr)
        return None, 0.0
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def declared(trace):
    """(name, unit) of every metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return [(row["name"], row["unit"]) for row in rows]


def timed(exe, workload, seed, seconds):
    """Repeats the untraced run for about `seconds`; returns the result."""
    argv = [exe, "timed", "--workload", workload, "--seed", str(seed)]
    runs, rss, attempted, failed = [], [], 0, 0
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        result, peak_mb = run_child(argv)
        took = time.monotonic() - t0
        attempted += 1
        if result is None:
            # A crashed runner crashes again; do not spend the budget on it.
            failed += 1
            break
        runs.append(result)
        rss.append(peak_mb)
        if not result["correct"]:
            failed += 1
        # Stop when another run would overrun the budget.
        if attempted >= MIN_TIMED_RUNS and time.monotonic() - started + took > seconds:
            break
    # One seed, one outcome: every run must agree on the report digest
    # and on every simulated metric, bit for bit.
    deterministic = all(r["digest"] == runs[0]["digest"] and r["sim"] == runs[0]["sim"] for r in runs)
    correct = bool(runs) and failed == 0 and deterministic
    for name, ok in (runs[0]["checks"].items() if runs else []):
        if not ok:
            print(f"run.py: check failed: {name}", file=sys.stderr)
    if not deterministic:
        print("run.py: runs of one seed disagree on their outputs", file=sys.stderr)
    raw = {k: statistics.median(r[k] for r in runs) if runs else 0.0 for k in ("setup_s", "run_s", "host_factor")}
    # Times at reference host speed: see perfbench/src/reference.rs.
    factor = raw["host_factor"] or 1.0
    values = {
        "setup_s": raw["setup_s"] / factor,
        "run_s": raw["run_s"] / factor,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
    }
    units = dict(declared(False))
    table = [(k, f"{v} {units[k]}") for k, v in values.items()]
    table += [(f"{k} (raw)", v) for k, v in raw.items()]
    if runs:
        table += [(k, f"{m['value']} {m['unit']}") for k, m in runs[0]["sim"].items()]
    return correct, attempted, failed, values, table


def traced(exe, workload, seed):
    """Runs the traced variant once; returns the result."""
    argv = [exe, "traced", "--workload", workload, "--seed", str(seed)]
    result, _ = run_child(argv)
    if result is None:
        return False, 1, 1, {}, []
    for name, ok in result["checks"].items():
        if not ok:
            print(f"run.py: check failed: {name}", file=sys.stderr)
    # The benchmark's own spans around each layer call, with self time.
    for span in result["spans"]:
        print(
            f"{'span':>20} {span['name']:<32} {span['dur_ns'] / 1e6:10.1f} ms"
            f" (self {span['self_ns'] / 1e6:.1f} ms, {span['layer']})",
            file=sys.stderr,
        )
    values = {k: m["value"] for k, m in result["layers"].items()}
    table = [
        (k, f"{m['value']} {m['unit']}  [{m['layer']}; moves {m['moves']}; most/least {m['most_least']}]")
        for k, m in result["layers"].items()
    ]
    return result["correct"], 1, 0 if result["correct"] else 1, values, table


def main():
    parser = argparse.ArgumentParser(description="HADES repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    exe = build()
    names = declared(args.trace)
    if args.trace:
        correct, attempted, failed, values, table = traced(exe, args.workload, args.seed)
    else:
        correct, attempted, failed, values, table = timed(exe, args.workload, args.seed, args.seconds)

    for name, value in table:
        print(f"{args.workload:>20} {name:<32} {value}", file=sys.stderr)
    missing = [name for name, _ in names if name not in values]
    if missing and correct:
        fail("runner did not report " + ", ".join(missing))
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
