"""One benchmark child process: times set-up, then runs the workload.

    python3 child.py PLAN MODE SECONDS RESULT

MODE is `setup` (time set-up only), `measure` (set-up, then untraced calls
for SECONDS) or `trace` (pairs of one untraced and one traced pass over the
workload for SECONDS).  The CLI is driven in-process through
`localforms.cli.main`, with its output captured in memory.  Only the standard
library is imported before the set-up clock starts.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CHECK_COMMANDS = ("verify", "relate", "push", "assoc", "convert-christoffel")
TRANSPORT_TOLERANCE = 1e-9
# Nominal duration of the calibration loop: a call's calibrated time is its
# wall time scaled to a machine on which the loop takes this long.
CALIBRATION_S = 0.004


def _call(fn, *args):
    """(wall seconds, exit code, stdout text, error) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fn(*args)
    except Exception as exc:  # a crashing command is counted as failed
        return time.perf_counter() - start, None, "", \
            f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue(), None


def _fault(entry, rc, text, first):
    """Why a command's output is wrong, or None."""
    if rc != entry["expect"]:
        return f"exit code {rc}, expected {entry['expect']}"
    if text != first:
        return "report differs from the first call on the same input"
    try:
        doc = json.loads(text)
    except ValueError:
        return "report is not JSON"
    if doc.get("passed") != (rc == 0):
        return "report verdict disagrees with the exit code"
    plan = entry.get("plan")
    if plan is not None:
        got = doc.get("sample_plan", {})
        if (got.get("grid"), got.get("seed")) != (plan["grid"], plan["seed"]):
            return f"report sample plan {got} ignores the flags"
    if entry["command"] in CHECK_COMMANDS and entry.get("nominal", 0) <= 0:
        return "check command with no nominal samples"
    if "closed_form" in entry:
        result = doc.get("transport_result")
        if result is None:
            return "report has no transport_result"
        distance = math.sqrt(sum(
            (a - b) ** 2 for row_a, row_b in zip(result, entry["closed_form"])
            for a, b in zip(row_a, row_b)))
        if not distance <= TRANSPORT_TOLERANCE:
            return f"transport result {distance:.3e} from its closed form"
    return None


class Gate:
    """Correctness of every command run.  A failing command is counted,
    never retried."""

    def __init__(self):
        self.first = {}
        self.attempted = 0
        self.failures = []

    def check(self, entry, rc, text, error):
        self.attempted += 1
        reason = error or _fault(entry, rc, text,
                                 self.first.setdefault(entry["id"], text))
        if reason is not None:
            self.failures.append(f"{entry['id']}: {reason}")


def _load_inputs(bundle_io, loads):
    bundles = {}
    for item in loads:
        loader, path = item["loader"], item["path"]
        if loader == "bundle":
            bundles[path] = bundle_io.load_bundle(path)
        elif loader == "morphism":
            data = bundles[item["bundle"]]
            bundle_io.load_morphism(path, data.atlas, data.params)
        elif loader == "path":
            data = bundles[item["bundle"]]
            bundle_io.load_path(path, data.atlas, data.params)
        elif loader == "christoffel":
            bundle_io.load_christoffel(path)
        else:
            bundle_io.load_tower(path)


def _calibrator(np, expm):
    """A fixed loop of 2x2 numpy products, norms, determinants and scipy
    matrix exponentials with Python arithmetic, the mix the CLI spends its
    time on.  Its duration tracks how fast the machine runs the benchmark at
    that moment; it uses nothing from localforms."""
    step = np.array([[1.0, 1e-3], [-1e-3, 1.0]])
    generator = np.array([[0.0, -0.3], [0.3, 0.0]])

    def calibrate():
        start = time.perf_counter()
        m, acc, table = np.eye(2), 0.0, {}
        for i in range(750):
            m = m @ step
            acc += float(np.linalg.norm(m)) * 1e-3 + (i % 7) * 0.5
            table[i % 64] = acc
            if i % 10 == 0:
                acc += float(expm(generator)[0, 0]) + float(np.linalg.det(m))
        return time.perf_counter() - start

    return calibrate


def _measure(main, entries, seconds, gate, calibrate):
    """Untraced calls, cycling over the entries: one full pass, then more
    calls while the next one is expected to end within `seconds`.  Each call
    is timed between two calibration loops; returns per entry the wall times
    and the calibrated times, wall x CALIBRATION_S / (mean adjacent loop)."""
    walls = {entry["id"]: [] for entry in entries}
    scaled = {entry["id"]: [] for entry in entries}
    start = time.perf_counter()
    before = calibrate()
    for i in itertools.count():
        entry = entries[i % len(entries)]
        if i >= len(entries):
            expected = walls[entry["id"]][-1] * entry["reps"]
            if time.perf_counter() - start + expected > seconds:
                break
        for _ in range(entry["reps"]):
            wall, rc, text, error = _call(main, entry["argv"])
            after = calibrate()
            gate.check(entry, rc, text, error)
            walls[entry["id"]].append(wall)
            scaled[entry["id"]].append(
                wall * 2.0 * CALIBRATION_S / (before + after))
            before = after
    return walls, scaled


def _pass(entries, gate, call):
    """One pass over the entries; [(command id, entry, wall)]."""
    walls = []
    for entry in entries:
        for rep in range(entry["reps"]):
            command_id = f"{entry['id']}#{rep}"
            wall, rc, text, error = call(command_id, entry["argv"])
            gate.check(entry, rc, text, error)
            walls.append((command_id, entry, wall))
    return walls


def _trace(main, entries, seconds, gate, jsonl_path):
    """Pairs of an untraced and a traced pass; the per-layer metrics of each
    traced pass and the number of commands whose layer self times exceed
    their wall time."""
    from layertrace import LAYER_UNITS, Tracer

    tracer = Tracer()
    pairs = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        untraced = _pass(entries, gate, lambda _id, argv: _call(main, argv))
        k = len(pairs)
        tracer.install()
        try:
            traced = _pass(entries, gate, lambda command_id, argv: _call(
                tracer.run_command, f"p{k}:{command_id}", main, argv))
        finally:
            tracer.uninstall()
        pairs.append((untraced, traced))
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            break

    per_command = tracer.command_metrics()
    tracer.write_jsonl(jsonl_path)
    layers, violations = [], 0
    for k, (untraced, traced) in enumerate(pairs):
        total = defaultdict(float)
        evals = nominal = 0
        for command_id, entry, _ in traced:
            metrics = per_command[f"p{k}:{command_id}"]
            self_sum = sum(v for key, v in metrics.items()
                           if key.endswith("_s"))
            if self_sum > metrics["wall"] * (1 + 1e-9):
                violations += 1
            for key, value in metrics.items():
                total[key] += value
            if entry["command"] in CHECK_COMMANDS:
                evals += metrics["expr.eval_calls"]
                nominal += entry["nominal"]
        layer = {name: total[name] for name in LAYER_UNITS}
        layer["expr.evals_per_sample"] = evals / nominal
        layer["atlas.points_kept_ratio"] = \
            total["atlas.points_kept"] / total["atlas.points_generated"]
        layer["trace.overhead_ratio"] = \
            sum(w for *_, w in traced) / sum(w for *_, w in untraced)
        layers.append(layer)
    return layers, violations


def main(argv):
    plan_path, mode, seconds, result_path = argv
    with open(plan_path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)

    start = time.perf_counter()
    import localforms
    from localforms import bundle_io, cli
    _load_inputs(bundle_io, plan["loads"])
    setup = _call(cli.main, plan["setup"]["argv"])
    setup_s = time.perf_counter() - start

    if not Path(localforms.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported {localforms.__file__}, not the copy "
                         f"under {SRC}")
    import numpy
    import scipy
    import scipy.linalg

    calibrate = _calibrator(numpy, scipy.linalg.expm)
    speed = statistics.median(calibrate() for _ in range(5))
    gate = Gate()
    gate.check(plan["setup"], *setup[1:])
    result = {"mode": mode, "setup_s": setup_s,
              "setup_calibrated_s": setup_s * CALIBRATION_S / speed,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if mode == "measure":
        result["walls"], result["scaled"] = _measure(
            cli.main, plan["entries"], float(seconds), gate, calibrate)
    elif mode == "trace":
        jsonl = Path(result_path).with_name("trace.jsonl")
        result["layers"], result["self_time_violations"] = _trace(
            cli.main, plan["entries"], float(seconds), gate, jsonl)
        result["trace_file"] = str(jsonl)
    result.update(attempted=gate.attempted, failed=len(gate.failures),
                  failures=gate.failures[:20],
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
