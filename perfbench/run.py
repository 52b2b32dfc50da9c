#!/usr/bin/env python3
"""localforms benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then starts fresh child
processes one at a time (child.py), each driving `localforms.cli.main`
in-process from the `src/` tree of this checkout.  With `--trace 0` it prints
every end-to-end metric; with `--trace 1` a separate traced child prints the
per-layer metrics.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import CHECK_COMMANDS, FULL, WORKLOADS, build_plan
from layertrace import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REQUIRED = ("src/localforms/cli.py", "fixtures/monopole_k1.json",
            "tools/make_fixtures.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5  # fresh processes; setup_s is their median
DEADLINE_S = 170.0  # the whole run ends within 180 s

SUBCOMMAND_METRICS = {"verify": "verify_s", "relate": "relate_s",
                      "push": "push_s", "assoc": "assoc_s",
                      "convert-christoffel": "christoffel_s",
                      "transport": "transport_s", "tower": "tower_s"}
E2E_UNITS = {"setup_s": "s", "samples_per_s": "1/s", "steps_per_s": "1/s",
             **{name: "s" for name in SUBCOMMAND_METRICS.values()},
             "peak_rss_mb": "MB", "error_rate": "ratio"}
# error_rate is 0 on a correct program, so the JSON line carries it as
# failed / attempted instead of as a metric.
JSON_E2E = tuple(name for name in E2E_UNITS if name != "error_rate")


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env():
    """Environment of the children: this checkout's src/ first on the path,
    and one BLAS/OpenMP thread.  The program's matrices are at most 9x9, so
    a second BLAS thread only spins; on a 2-core machine that spinning made
    every call up to 1.7x slower, in phases of seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Children:
    """Starts child processes one at a time, each within the run deadline."""

    def __init__(self, plan_path, env, deadline):
        self.plan_path, self.env, self.deadline = plan_path, env, deadline
        self.started = 0

    def run(self, mode, seconds, result_path):
        self.started += 1
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run deadline passed")
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(self.plan_path),
             mode, str(seconds), str(result_path)],
            cwd=ROOT, env=self.env, stdout=sys.stderr, check=True,
            timeout=remaining)
        with open(result_path, "r", encoding="utf-8") as handle:
            return json.load(handle)


def _end_to_end(plan, setup_samples, child):
    calibrated = {key: statistics.median(times)
                  for key, times in child["scaled"].items()}
    entries = plan["entries"]
    metrics = {name: sum(calibrated[e["id"]] for e in entries
                         if e["command"] == command)
               for command, name in SUBCOMMAND_METRICS.items()}
    checks = [e for e in entries if e["command"] in CHECK_COMMANDS]
    metrics["samples_per_s"] = sum(e["nominal"] for e in checks) \
        / sum(calibrated[e["id"]] for e in checks)
    transports = [e for e in entries if e["command"] == "transport"]
    metrics["steps_per_s"] = sum(e["steps"] for e in transports) \
        / sum(calibrated[e["id"]] for e in transports)
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["peak_rss_mb"] = child["maxrss_kb"] / 1024.0
    return metrics, calibrated


def run_workload(workload, seed, seconds, trace, scale=FULL):
    """Run one benchmark run and return its full result (every metric with
    its unit, correctness counts, run environment)."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    plan = build_plan(workload, seed, workdir / "inputs", scale)
    plan_path = workdir / "plan.json"
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle, indent=1)
    nproc = _nproc()
    env = child_env()
    children = Children(plan_path, env, deadline)

    results = []
    if trace:
        child = children.run("trace", seconds, workdir / "trace-result.json")
        results.append(child)
        layers = {name: statistics.median(p[name] for p in child["layers"])
                  for name in LAYER_UNITS}
        metrics = {name: (value, LAYER_UNITS[name])
                   for name, value in layers.items()}
        extra = {"traced_passes": len(child["layers"]),
                 "self_time_violations": child["self_time_violations"],
                 "trace_file": child["trace_file"]}
    else:
        # The first child compiles bytecode if none is cached; its time is
        # not a sample.
        children.run("setup", 0, workdir / "warmup.json")
        setup_samples, setup_walls = [], []
        for i in range(SETUP_SAMPLES - 1):
            result = children.run("setup", 0, workdir / f"setup{i}.json")
            results.append(result)
            setup_samples.append(result["setup_calibrated_s"])
            setup_walls.append(result["setup_s"])
        child = children.run("measure", seconds, workdir / "measure.json")
        results.append(child)
        setup_samples.append(child["setup_calibrated_s"])
        setup_walls.append(child["setup_s"])
        values, calibrated = _end_to_end(plan, setup_samples, child)
        metrics = {name: (values[name], E2E_UNITS[name])
                   for name in JSON_E2E}
        extra = {"setup_calibrated_s": setup_samples,
                 "setup_wall_s": setup_walls,
                 "calls": {key: len(t) for key, t in child["walls"].items()},
                 "calibrated_median_s": calibrated,
                 "wall_median_s": {key: statistics.median(t)
                                   for key, t in child["walls"].items()},
                 "wall_min_s": {key: min(t)
                                for key, t in child["walls"].items()}}

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if not trace:
        metrics["error_rate"] = (failed / attempted, "ratio")
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(bool(trace)),
        "environment": {**child["versions"], "nproc": nproc,
                        **{var: env[var] for var in THREAD_VARS},
                        "child_processes": children.started,
                        "children_at_once": 1},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": [f for r in results for f in r["failures"]][:20],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        **extra,
    }
    with open(workdir / "result.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return summary


def _print(summary):
    env = summary["environment"]
    print(f"localforms benchmark: workload={summary['workload']} "
          f"seed={summary['seed']} seconds={summary['seconds']} "
          f"trace={summary['trace']}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for failure in summary["failures"]:
        print(f"FAILED {failure}")
    for name, metric in summary["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    names = LAYER_UNITS if summary["trace"] else JSON_E2E
    print(json.dumps({
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: summary["metrics"][name] for name in names}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a localforms checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        summary = run_workload(args.workload, args.seed, args.seconds,
                               args.trace)
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
