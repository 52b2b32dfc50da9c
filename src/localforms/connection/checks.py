"""Cocycle and overlap-compatibility checks for local connection data.

Every check evaluates its whole sample set at once: each map, form and
coordinate change is walked once per sample set, with every coordinate
direction on a leading axis of the same walk's tangent, and the residuals
are reduced over the stack.  Sample sets and overlap pushes come from the
atlas's memo, so the checks on one document sample and push each overlap
once between them.
Compatibility is verified in the source chart's coordinates: the
destination-side form is evaluated at the transported point on the
transported direction, and compared by `check_relation` against the gauge
of omega by g computed at the source point.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..atlas import directions, in_box
from ..expr.dual import DET_THRESHOLD
from ..report import Report, max_residual
from .data import DEFAULT_TOLERANCE, LocalConnectionData
from .forms import gauge

# tolerance of the atlas checks in check_overlaps; verify uses the smaller of
# it and its own tolerance
OVERLAP_TOLERANCE = 1e-9


def check_cocycle(data: LocalConnectionData, tolerance=DEFAULT_TOLERANCE) -> Report:
    """Consistency of the transition family: g_aa = I where declared,
    g_ba . g_ab = I on bidirectional overlaps, and the triple condition
    g_ab(x) g_bc(psi x) = g_ac(x) wherever all three are declared."""
    report = Report(tolerance, data.sample_plan)
    identity = np.eye(data.group.n)

    for (a, b), g in sorted(data.transitions.items()):
        if a == b:
            pts = data.points(a)
            report.add(f"cocycle:identity:{a}",
                       max_residual(g.value(pts) - identity), len(pts))

    for (a, b) in sorted(data.transitions):
        if not a < b or (b, a) not in data.transitions:
            continue
        overlap = data.atlas.overlap(a, b)
        if overlap is None:
            continue
        pts, (y, _) = data.points(overlap), data.pushed(overlap)
        product = data.transitions[(b, a)].value(y) \
            @ data.transitions[(a, b)].value(pts)
        report.add(f"cocycle:{a},{b}", max_residual(product - identity),
                   len(pts))

    for a, b, c in itertools.permutations(sorted(data.atlas.charts), 3):
        if not all(key in data.transitions
                   for key in [(a, b), (b, c), (a, c)]):
            continue
        triple = data.atlas.triple_points(
            data.sample_plan, a, b, c, data.params)
        if triple is None or not len(triple[0]):
            continue
        pts, y = triple
        lhs = data.transitions[(a, b)].value(pts) \
            @ data.transitions[(b, c)].value(y)
        rhs = data.transitions[(a, c)].value(pts)
        report.add(f"cocycle:{a},{b},{c}", max_residual(lhs - rhs), len(pts))
    return report


def check_overlaps(data: LocalConnectionData,
                   tolerance=OVERLAP_TOLERANCE) -> Report:
    """Atlas sanity on samples: round-trip of bidirectional coordinate
    changes, and nonsingularity of their Jacobians (reported as 1.0 when a
    sampled Jacobian determinant falls below the invertibility threshold)."""
    report = Report(tolerance, data.sample_plan)
    for ov in data.atlas.overlaps:
        reverse = data.atlas.overlap(ov.dst, ov.src)
        pts = data.points(ov)
        y, columns = data.pushed(ov)
        jacobian = np.moveaxis(columns, 0, -1)
        jac_bad = float(np.any(
            np.abs(np.linalg.det(jacobian)) <= DET_THRESHOLD))
        report.add(f"overlap-jacobian:{ov.src},{ov.dst}", jac_bad, len(pts))
        if reverse is None:
            continue
        inside = in_box(y, reverse.domain)
        if np.any(inside):
            back = reverse.map_point(y[inside], data.params)
            report.add(f"overlap-roundtrip:{ov.src},{ov.dst}",
                       max_residual(back - pts[inside], axis=-1),
                       np.count_nonzero(inside))
    return report


def check_relation(report: Report, name, lhs, theta, g, pts, e):
    """Add one relation check to the report: lhs against the gauge of theta
    by the group map g at points pts in directions e, or against theta
    itself when g is None, over len(pts) * dim samples."""
    rhs = theta if g is None else gauge(*g.jet(pts, e), theta)
    report.add(name, max_residual(lhs - rhs), len(pts) * e.shape[-1])


def check_compatibility(data: LocalConnectionData,
                        tolerance=DEFAULT_TOLERANCE) -> Report:
    """Overlap relation omega_b = Ad(g_ab^-1).omega_a + g_ab^-1 dg_ab,
    sampled over every declared overlap with a transition."""
    report = Report(tolerance, data.sample_plan)
    for ov in data.atlas.overlaps:
        if (ov.src, ov.dst) not in data.transitions:
            continue
        pts = data.points(ov)
        e = directions(data.atlas.chart(ov.src).dim)
        y, w = data.pushed(ov)
        check_relation(report, f"compatibility:{ov.src},{ov.dst}",
                       data.forms[ov.dst](y, w), data.forms[ov.src](pts, e),
                       data.transitions[(ov.src, ov.dst)], pts, e)
    return report
