"""Parallel transport along piecewise chart curves.

Integrates the horizontal ODE a'(t) = -omega_{gamma(t)}(gamma'(t)) . a(t)
with classical fixed-step RK4 per segment (deterministic by construction).
The right-hand side does not depend on a, so the curve, its velocity and the
form are evaluated once per segment at all 2 * steps + 1 RK4 nodes, and each
RK4 step is a linear map a -> (I + D_s) a.  All D_s are built as one stack
and multiplied in order, pairwise, with no loop over steps.  Chart switches
at segment junctions go through chart_change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import (PathDiscontinuityError, SingularMatrixError,
                      ValidationError)
from ..expr import ExprAST
from ..expr.dual import DET_THRESHOLD
from .data import LocalConnectionData
from .points import PointRep, chart_change

JUNCTION_TOLERANCE = 1e-8
# RK4 steps of a transport when none are given
DEFAULT_STEPS = 1000


@dataclass(frozen=True)
class PathSegment:
    chart: str
    curve: Tuple[ExprAST, ...]  # one expression per chart coordinate, in t
    t0: float = 0.0
    t1: float = 1.0

    def at(self, t, params=None):
        """Curve points and velocities at parameter t, a float or an array
        of parameters: shapes t.shape + (d,)."""
        t = np.asarray(t, dtype=float)[..., None]
        pairs = [ast.eval_dual(t, params, seeds=[1.0]) for ast in self.curve]
        return (np.stack([x for x, _ in pairs], axis=-1),
                np.stack([xdot for _, xdot in pairs], axis=-1))


def start_matrix(a0, n) -> np.ndarray:
    """The transport start a0 as an (n, n) float array; raises unless it is
    a finite, invertible n x n matrix."""
    try:
        a = np.asarray(a0, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != (n, n) or not np.isfinite(a).all():
        raise ValidationError(f"a0 must be a finite {n}x{n} matrix")
    det = abs(np.linalg.det(a))
    if det <= DET_THRESHOLD:
        raise SingularMatrixError(
            f"a0 with |det| = {det:.3e} treated as singular")
    return a


def parallel_transport(data: LocalConnectionData,
                       path: Sequence[PathSegment],
                       a0, steps=DEFAULT_STEPS) -> np.ndarray:
    if steps < 1:
        raise ValidationError(
            f"transport needs at least one step, got {steps}")
    a = start_matrix(a0, data.group.n)
    prev = None  # (chart, end point)
    for segment in path:
        (x_start, x_end), _ = segment.at([segment.t0, segment.t1],
                                          data.params)
        if prev is not None:
            prev_chart, x_prev = prev
            if prev_chart == segment.chart:
                if np.linalg.norm(x_prev - x_start) > JUNCTION_TOLERANCE:
                    raise PathDiscontinuityError(
                        f"segments disagree at junction in chart '{prev_chart}'")
            else:
                q = chart_change(data, PointRep(prev_chart, x_prev, a),
                                 segment.chart)
                if np.linalg.norm(q.x - x_start) > JUNCTION_TOLERANCE:
                    raise PathDiscontinuityError(
                        f"segments disagree at junction "
                        f"'{prev_chart}'->'{segment.chart}'")
                a = q.a
        a = _integrate_segment(data, segment, a, steps)
        prev = (segment.chart, x_end)
    return a


def _integrate_segment(data, segment, a, steps):
    h = (segment.t1 - segment.t0) / steps
    # the nodes t_s of the accumulated t += h, then the midpoints t_s + h/2
    ticks = np.add.accumulate(np.concatenate(([segment.t0],
                                              np.full(steps, h))))
    x, xdot = segment.at(np.concatenate((ticks, ticks[:-1] + 0.5 * h)),
                         data.params)
    rhs = -data.forms[segment.chart](x, xdot)
    ends, mids = rhs[:steps + 1], rhs[steps + 1:]
    # RK4 is linear in a: step s maps a to (I + D_s) a, with D_s built from
    # the RK4 stages applied to the identity
    k1 = ends[:-1]
    k2 = mids + (0.5 * h) * (mids @ k1)
    k3 = mids + (0.5 * h) * (mids @ k2)
    k4 = ends[1:] + h * (ends[1:] @ k3)
    increments = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a + _ordered_product(increments) @ a


def _ordered_product(increments):
    """D with I + D = (I + D_{m-1}) ... (I + D_1)(I + D_0) for a stack of m
    increments, multiplied pairwise in order: (I + L)(I + E) = I + (L + E +
    L E).  I + D is never rounded, so no per-step rounding of I + D_s adds
    up over the steps."""
    d = increments
    while len(d) > 1:
        paired = len(d) - len(d) % 2
        early, late = d[0:paired:2], d[1:paired:2]
        d = np.concatenate((late + early + late @ early, d[paired:]))
    return d[0]
