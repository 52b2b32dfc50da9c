"""Parallel transport along piecewise chart curves.

Integrates the horizontal ODE a'(t) = -omega_{gamma(t)}(gamma'(t)) . a(t)
with classical fixed-step RK4 per segment (deterministic by construction).
The right-hand side does not depend on a, so each RK4 step is a linear map
a -> (I + D_s) a.  A segment is walked in chunks of CHUNK steps.  For a
chunk of m steps the curve, its velocity and the form are evaluated once at
all 2 * m + 1 RK4 nodes, the chunk's D_s are built as one (n, n, m) stack
with the sample axis last and multiplied in order, pairwise, with no loop
over steps, and a <- a + D a.  Memory is bounded by the chunk, not by the
step count.  Chart switches at segment junctions go through chart_change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import PathDiscontinuityError, ValidationError
from ..expr import ExprAST
from ..lie import ensure_invertible
from .data import LocalConnectionData
from .points import PointRep, chart_change

JUNCTION_TOLERANCE = 1e-8
# RK4 steps of a transport when none are given
DEFAULT_STEPS = 1000
# RK4 steps evaluated and folded at a time, so that memory does not grow
# with the step count; a power of two, so a full chunk folds with no padding
CHUNK = 4096


@dataclass(frozen=True)
class PathSegment:
    chart: str
    curve: Tuple[ExprAST, ...]  # one expression per chart coordinate, in t
    t0: float = 0.0
    t1: float = 1.0

    def at(self, t):
        """Curve points and velocities at parameter t, a float or an array
        of parameters: shapes t.shape + (d,)."""
        t = np.asarray(t, dtype=float)[..., None]
        pairs = [ast.eval_dual(t, seeds=[1.0]) for ast in self.curve]
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
    return ensure_invertible(a, "a0")


def parallel_transport(data: LocalConnectionData,
                       path: Sequence[PathSegment],
                       a0, steps=DEFAULT_STEPS) -> np.ndarray:
    """The group part a0 transported along the path, `steps` RK4 steps per
    segment.  Every junction, in one chart or between two, goes through
    chart_change, and the previous segment's end must land within
    JUNCTION_TOLERANCE of the next one's start."""
    if steps < 1:
        raise ValidationError(
            f"transport needs at least one step, got {steps}")
    a = start_matrix(a0, data.group.n)
    prev = None  # (chart, end point)
    for segment in path:
        (x_start, x_end), _ = segment.at([segment.t0, segment.t1])
        if prev is not None:
            q = chart_change(data, PointRep(*prev, a), segment.chart)
            if np.linalg.norm(q.x - x_start) > JUNCTION_TOLERANCE:
                raise PathDiscontinuityError(
                    f"segments disagree at junction "
                    f"'{prev[0]}'->'{segment.chart}'")
            a = q.a
        a = _integrate_segment(data, segment, a, steps)
        prev = (segment.chart, x_end)
    return a


def _integrate_segment(data, segment, a, steps):
    h = (segment.t1 - segment.t0) / steps
    tick = segment.t0
    for start in range(0, steps, CHUNK):
        m = min(CHUNK, steps - start)
        # the nodes t_s of the accumulated t += h, continued from the last
        # tick of the previous chunk, then the midpoints t_s + h/2
        ticks = np.add.accumulate(np.concatenate(([tick], np.full(m, h))))
        tick = ticks[-1]
        x, xdot = segment.at(np.concatenate((ticks, ticks[:-1] + 0.5 * h)))
        # the sample axis last, so that each product below is one einsum
        rhs = np.negative(np.moveaxis(data.forms[segment.chart](x, xdot),
                                      0, -1), order="C")
        ends, mids = rhs[..., :m + 1], rhs[..., m + 1:]
        # RK4 is linear in a: step s maps a to (I + D_s) a, with D_s built
        # from the RK4 stages applied to the identity
        k1 = ends[..., :-1]
        k2 = mids + (0.5 * h) * _mul(mids, k1)
        k3 = mids + (0.5 * h) * _mul(mids, k2)
        k4 = ends[..., 1:] + h * _mul(ends[..., 1:], k3)
        increments = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a = a + _ordered_product(increments) @ a
    return a


def _mul(x, y):
    """The matrix products x_s y_s of two (n, n, m) stacks."""
    return np.einsum("ijm,jkm->ikm", x, y)


def _ordered_product(increments):
    """D with I + D = (I + D_{m-1}) ... (I + D_1)(I + D_0) for increments of
    shape (n, n, m), multiplied pairwise in order: (I + L)(I + E) = I + (L +
    E + L E).  The stack is padded to a power of two with exact zeros, each
    an identity factor, so that each level halves it by a reshape; an odd
    one out pairs with a zero and passes unchanged to the next level.  I + D
    is never rounded, so no per-step rounding of I + D_s adds up over the
    steps."""
    n, _, m = increments.shape
    d = np.zeros((n, n, 1 << (m - 1).bit_length()))
    d[..., :m] = increments
    while d.shape[-1] > 1:
        pairs = d.reshape(n, n, -1, 2)
        early, late = pairs[..., 0], pairs[..., 1]
        d = late + early + _mul(late, early)
    return d[..., 0]
