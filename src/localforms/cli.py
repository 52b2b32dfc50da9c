"""Command-line front end.

Exit codes: 0 all checks pass, 1 a check fails, 2 input/usage error.  A
deterministic JSON report is written (to --out, else stdout) on exit 0 and 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from .atlas import SamplePlan
from .bundle_io import (load_bundle, load_christoffel, load_morphism,
                        load_path, load_tower)
from .christoffel import check_christoffel_compat
from .connection import (DEFAULT_STEPS, DEFAULT_TOLERANCE, OVERLAP_TOLERANCE,
                         check_cocycle, check_compatibility, check_overlaps,
                         parallel_transport)
from .errors import LocalFormsError, TowerInvariantViolation
from .morphism import (associated_connection, check_morphism_cocycle,
                       check_related, pushforward_connection)
from .report import Report
from .tower import check_tower_related


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


def _add_common(parser):
    parser.add_argument("--tolerance", type=_tolerance,
                        default=DEFAULT_TOLERANCE)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--random", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared by every
    later one: parse_args returns a new namespace and leaves the parser as
    it was, and usage and error text are formatted when they are printed."""
    parser = argparse.ArgumentParser(
        prog="localforms",
        description="Verify and construct principal-bundle connections "
                    "given by local data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="cocycle + compatibility of a bundle")
    p.add_argument("bundle")
    _add_common(p)

    p = sub.add_parser("relate", help="relatedness of two connections")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("morphism")
    _add_common(p)

    p = sub.add_parser("push", help="pushforward connection through a morphism")
    p.add_argument("bundle")
    p.add_argument("morphism")
    _add_common(p)

    p = sub.add_parser("assoc", help="associated connection for a group morphism")
    p.add_argument("bundle")
    p.add_argument("morphism")
    _add_common(p)

    p = sub.add_parser("transport", help="parallel transport along a path")
    p.add_argument("bundle")
    p.add_argument("path")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    _add_common(p)

    p = sub.add_parser("convert-christoffel",
                       help="Christoffel data to frame-bundle forms + check")
    p.add_argument("christoffel")
    _add_common(p)

    p = sub.add_parser("tower", help="projective tower consistency")
    p.add_argument("tower")
    _add_common(p)
    return parser


def _override_plan(plan, args) -> SamplePlan:
    return SamplePlan(
        plan.grid if args.grid is None else args.grid,
        plan.n_random if args.random is None else args.random,
        plan.seed if args.seed is None else args.seed)


def _with_plan(data, args):
    return dataclasses.replace(data,
                               sample_plan=_override_plan(data.sample_plan, args))


def _run_verify(args) -> Report:
    data = _with_plan(load_bundle(args.bundle), args)
    report = check_overlaps(data, min(args.tolerance, OVERLAP_TOLERANCE))
    report.merge(check_cocycle(data, args.tolerance))
    report.merge(check_compatibility(data, args.tolerance))
    report.tolerance = args.tolerance
    return report


def _run_relate(args) -> Report:
    source = _with_plan(load_bundle(args.source), args)
    target = _with_plan(load_bundle(args.target), args)
    morphism, _ = load_morphism(args.morphism, source.atlas, source.params)
    report = check_related(source, target, morphism, args.tolerance)
    cocycle = check_morphism_cocycle(morphism, source, target.transitions,
                                     args.tolerance)
    report.merge(cocycle)
    return report


def _run_push(args) -> Report:
    source = _with_plan(load_bundle(args.bundle), args)
    morphism, target_transitions = load_morphism(args.morphism, source.atlas,
                                                 source.params)
    if target_transitions is None:
        raise LocalFormsError(
            "push requires target_transitions in the morphism file")
    pushed = pushforward_connection(source, morphism, target_transitions,
                                    args.tolerance)
    report = check_compatibility(pushed, args.tolerance)
    report.merge(check_related(source, pushed, morphism, args.tolerance))
    return report


def _run_assoc(args) -> Report:
    source = _with_plan(load_bundle(args.bundle), args)
    morphism, _ = load_morphism(args.morphism, source.atlas, source.params)
    data = associated_connection(source, morphism.phi, morphism.target_group)
    report = check_compatibility(data, args.tolerance)
    return report


def _run_transport(args) -> Report:
    data = _with_plan(load_bundle(args.bundle), args)
    segments, a0 = load_path(args.path, data.atlas, data.params,
                             n=data.group.n)
    if a0 is None:
        a0 = np.eye(data.group.n)
    result = parallel_transport(data, segments, a0, args.steps)
    report = Report(args.tolerance, data.sample_plan)
    report.extra["transport_result"] = [[float(v) for v in row]
                                        for row in result]
    report.extra["steps"] = args.steps
    return report


def _run_convert_christoffel(args) -> Report:
    data, transitions = load_christoffel(args.christoffel)
    return check_christoffel_compat(_with_plan(data, args), transitions,
                                    args.tolerance)


def _run_tower(args) -> Report:
    tower = load_tower(args.tower)
    tower = dataclasses.replace(tower, levels=tuple(
        _with_plan(level, args) for level in tower.levels))
    report = Report(args.tolerance, tower.level(tower.depth).sample_plan)
    try:
        tower.validate()
    except TowerInvariantViolation as exc:
        report.add("tower-invariants", 1.0, 0)
        report.extra["tower_invariant_error"] = str(exc)
        return report
    report.merge(check_tower_related(tower, args.tolerance))
    return report


_RUNNERS = {
    "verify": _run_verify,
    "relate": _run_relate,
    "push": _run_push,
    "assoc": _run_assoc,
    "transport": _run_transport,
    "convert-christoffel": _run_convert_christoffel,
    "tower": _run_tower,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # overflow and invalid operations give inf and NaN, which fail the
        # checks or raise a LocalFormsError; they need no warning besides
        with np.errstate(all="ignore"):
            report = _RUNNERS[args.command](args)
    except LocalFormsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
