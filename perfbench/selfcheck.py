#!/usr/bin/env python3
"""Smoke check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced at the TINY scale and
checks that every end-to-end and per-layer metric is emitted with its unit
(and that BENCHMARK.json names the same metrics with the same units), that
no command failed, that the trace file was written, and that in every traced
command the per-layer self times sum to no more than its wall time.
"""

from __future__ import annotations

import json
import sys

from inputs import TINY, WORKLOADS
from layertrace import LAYER_UNITS
from run import E2E_UNITS, ROOT, run_workload


def _require(condition, message):
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def _check_declared():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    _require([w["name"] for w in declared["workloads"]] == list(WORKLOADS),
             "BENCHMARK.json workloads differ from the benchmark's")
    for key, units in (("end_to_end", E2E_UNITS), ("per_layer", LAYER_UNITS)):
        for metric in declared[key]:
            _require(units.get(metric["name"]) == metric["unit"],
                     f"{key} metric {metric['name']} is not emitted in "
                     f"{metric['unit']}")


def main():
    _check_declared()
    for workload in WORKLOADS:
        for trace, units in ((0, E2E_UNITS), (1, LAYER_UNITS)):
            summary = run_workload(workload, 7, 1, trace, TINY)
            label = f"{workload} trace={trace}"
            _require(summary["failed"] == 0,
                     f"{label}: failures {summary['failures']}")
            for name, unit in units.items():
                metric = summary["metrics"].get(name)
                _require(metric is not None and metric["unit"] == unit,
                         f"{label}: {name} not emitted in {unit}")
            if trace:
                _require(summary["self_time_violations"] == 0,
                         f"{label}: layer self times exceed a command's wall")
                with open(summary["trace_file"], "r",
                          encoding="utf-8") as handle:
                    records = [json.loads(line) for line in handle]
                _require(any(r["type"] == "span" for r in records)
                         and any(r["type"] == "agg" for r in records),
                         f"{label}: trace file lacks spans or aggregates")
            print(f"ok {label}: {summary['attempted']} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
