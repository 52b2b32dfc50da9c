#!/usr/bin/env python3
"""Benchmark a change against a parent revision in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD --first-seed 701 \
        --claim tower-deep:tower_s:0.7 --out BENCH_n.json

The committed files of the parent revision are unpacked into a temporary
directory (removed again at the end).  For every workload of BENCHMARK.json,
pair k of ten runs `perfbench/run.py --trace 0` at the benchmark's run length
with seed first-seed + k once in the parent checkout and once in this working
tree, one run at a time, the parent first in even pairs and the change first
in odd ones.  A traced run (`--trace 1`, seed 101) of each `--traced`
workload follows on both sides.  The output file has the layout of the
committed BENCH_<n>.json files: per workload and end-to-end metric the runs,
median and inclusive quartiles of each side, the pairs the change wins, the
ratio of the medians and whether it stays within the metric's bound; the
error rate of each side as failed/attempted; and the per-layer metrics of
the traced runs.  "notes" is left empty for the reader's findings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACE_SEED = 101


def _git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack_revision(revision, tree):
    """Unpack the committed files of `revision` into the new directory
    `tree`, and return it."""
    tree = Path(tree)
    tree.mkdir()
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def run_once(tree, workload, seed, seconds, trace):
    """One benchmark run in checkout `tree`: its final JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    # run.py starts children of its own: on an interrupt the whole session
    # goes, not run.py alone
    with subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree} exited "
                           f"{proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(spec, parent_runs, change_runs):
    """One end-to-end metric of one workload, both sides."""
    lower = spec["better"] == "lower"
    parent, change = _summary(parent_runs), _summary(change_runs)
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(parent_runs, change_runs))
    ratio = change["median"] / parent["median"]
    worse_by = ratio - 1.0 if lower else 1.0 - ratio
    return {"unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], "parent": parent, "change": change,
            "change_wins": f"{wins}/{len(parent_runs)}",
            "change_over_parent": ratio,
            "within_bound": worse_by <= spec["bound"]}


def _failed(error_rate):
    return int(error_rate.split("/")[0])


def claim_result(workload, metric, target):
    """A claimed ratio of medians: met when the ratio reaches the target,
    the change wins at least 9 pairs in 10 over at least ten pairs, the
    medians differ by more than the parent's interquartile range, and the
    change fails no more operations than the parent."""
    entry = workload["metrics"][metric]
    parent, change = entry["parent"], entry["change"]
    wins, pairs = (int(n) for n in entry["change_wins"].split("/"))
    errors = workload["error_rate"]
    iqr = parent["q3"] - parent["q1"]
    lower = entry["better"] == "lower"
    reached = (entry["change_over_parent"] <= target if lower
               else entry["change_over_parent"] >= target)
    return {"parent_median": parent["median"],
            "change_median": change["median"],
            "ratio": entry["change_over_parent"],
            "change_wins": entry["change_wins"], "parent_iqr": iqr,
            "met": reached and pairs >= PAIRS and wins >= 0.9 * pairs
            and abs(change["median"] - parent["median"]) > iqr
            and _failed(errors["change"]) <= _failed(errors["parent"])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--traced", nargs="*", default=["tower-deep"],
                        help="workloads given one traced run per side")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC:RATIO",
                        help="a claimed ratio of the change's median to the "
                             "parent's")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    revision = _git("rev-parse", args.parent)
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    parent_tree = unpack_revision(revision, scratch / "parent")
    trees = {"parent": parent_tree, "change": ROOT}
    doc = {
        "harness": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {seconds:g} --trace 0 (end to end); "
                    f"--trace 1 --seed {TRACE_SEED} (per layer)"),
        "machine": (f"{os.cpu_count()}-CPU {platform.machine()}, Python "
                    f"{platform.python_version()}, numpy {numpy.__version__}, "
                    f"BLAS threads 1"),
        "parent": revision,
        "method": (f"{PAIRS} pairs per workload, seeds "
                   f"{seeds[0]}-{seeds[-1]}, parent and change alternating "
                   f"which runs first, one run at a time; median and "
                   f"quartiles (inclusive method) over the runs of each "
                   f"side; change_wins counts pairs in which the change is "
                   f"better"),
        "claim": None, "end_to_end": {}, "traced_per_pass": {}, "notes": [],
    }

    def write():
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    try:
        for workload in workloads:
            results = {"parent": [], "change": []}
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    print(f"{workload} seed {seed} {side}", file=sys.stderr,
                          flush=True)
                    results[side].append(run_once(
                        trees[side], workload, seed, seconds, 0))
            doc["end_to_end"][workload] = {
                "seeds": seeds,
                "error_rate": {side: f"{sum(r['failed'] for r in runs)}/"
                                     f"{sum(r['attempted'] for r in runs)}"
                               for side, runs in results.items()},
                "metrics": {name: compare(spec, *(
                    [r["metrics"][name]["value"] for r in results[side]]
                    for side in ("parent", "change")))
                    for name, spec in specs.items()},
            }
            write()
        for workload in args.traced:
            doc["traced_per_pass"][workload] = {
                side: {name: metric["value"] for name, metric in run_once(
                    trees[side], workload, TRACE_SEED, seconds,
                    1)["metrics"].items()}
                for side in ("parent", "change")}
            write()
        if args.claim:
            workload, metric, target = args.claim.split(":")
            results = doc["end_to_end"][workload]
            lower = results["metrics"][metric]["better"] == "lower"
            verb = "at most" if lower else "at least"
            doc["claim"] = {"workload": workload, "metric": metric,
                            "target": f"{verb} {target}x the parent's median",
                            "result": claim_result(results, metric,
                                                   float(target))}
        write()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
