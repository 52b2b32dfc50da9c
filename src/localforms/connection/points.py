"""Trivialized total-space points and tangents.

A total-space point is never materialized: it is carried as (chart, base
point, group part a), meaning p = s_chart(x) . a.  A tangent is the pair
(base direction v, raw matrix derivative w of the group part).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..lie import InverseGroupMap, ensure_invertible
from .data import LocalConnectionData
from .forms import gauge


@dataclass(frozen=True)
class PointRep:
    chart: str
    x: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "a",
                          ensure_invertible(np.asarray(self.a, dtype=float)))


@dataclass(frozen=True)
class TangentRep:
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))


def fundamental_tangent(p: PointRep, X) -> TangentRep:
    """Tangent of the fundamental vector field of X at p: (0, a . X)."""
    return TangentRep(np.zeros_like(p.x), p.a @ np.asarray(X, dtype=float))


def global_form_eval(data: LocalConnectionData, p: PointRep,
                     u: TangentRep) -> np.ndarray:
    """Value of the global connection form in the trivialization: the gauge
    law Ad(a^-1) . omega_chart,x(v) + a^-1 . w."""
    return gauge(p.a, u.w, data.forms[p.chart](p.x, u.v))


def horizontal_lift(data: LocalConnectionData, p: PointRep, v) -> TangentRep:
    """The unique tangent over v annihilated by the connection form:
    (v, -omega_x(v) . a)."""
    v = np.asarray(v, dtype=float)
    return TangentRep(v, -data.forms[p.chart](p.x, v) @ p.a)


def chart_change(data: LocalConnectionData, p: PointRep, target,
                 u: TangentRep = None):
    """Re-express a point (and optionally a tangent) in another chart.

    In chart b the point s_a(x) . a is s_b(psi(x)) . g_ba . a, where g_ba is
    the inverse of g_ab(x) when (a, b) is declared, else the declared g_ba
    at psi(x).  One push gives (psi(x), Dpsi v), with v = 0 when no tangent
    is given, and one jet of the declared transition gives g_ba and its
    derivative, so the tangent (v, w) becomes (Dpsi v, dg_ba . a + g_ba . w)
    by the product rule."""
    if target == p.chart:
        return p if u is None else (p, u)
    overlap = data.atlas.require_overlap(p.chart, target)
    v = np.zeros_like(p.x) if u is None else u.v
    y, v_new = overlap.push(p.x, v)
    if (p.chart, target) in data.transitions:
        g, dg = InverseGroupMap(data.transitions[(p.chart, target)]).jet(
            p.x, v)
    elif (target, p.chart) in data.transitions:
        g, dg = data.transitions[(target, p.chart)].jet(y, v_new)
    else:
        raise ValidationError(
            f"no transition between '{p.chart}' and '{target}'")
    q = PointRep(target, y, g @ p.a)
    return q if u is None else (q, TangentRep(v_new, dg @ p.a + g @ u.w))
