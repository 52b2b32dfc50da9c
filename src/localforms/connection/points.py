"""Trivialized total-space points and tangents.

A total-space point is never materialized: it is carried as (chart, base
point, group part a), meaning p = s_chart(x) . a.  A tangent is the pair
(base direction v, raw matrix derivative w of the group part).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lie import ensure_invertible
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
    """Re-express a point (and optionally a tangent) in another chart:
    x -> psi(x), a -> g_ta(x) . a, with the tangent converted by the
    pushforward of v and the product rule on g_ta(x(t)) . a(t)."""
    if target == p.chart:
        return p if u is None else (p, u)
    overlap = data.atlas.require_overlap(p.chart, target)
    if u is None:
        y = overlap.map_point(p.x)
        g = data.reverse_transition(p.chart, target).value(p.x)
        return PointRep(target, y, g @ p.a)
    y, v_new = overlap.push(p.x, u.v)
    g, dg = data.reverse_transition(p.chart, target).jet(p.x, u.v)
    return PointRep(target, y, g @ p.a), TangentRep(v_new, dg @ p.a + g @ u.w)
