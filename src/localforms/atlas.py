"""Charts, overlaps and deterministic sample plans for the base manifold.

The base is given purely by coordinate boxes and coordinate-change
expressions; there is no embedding.  All pointwise checks run on a
deterministic sample set: a boundary-avoiding midpoint grid plus seeded
uniform random points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

import numpy as np

from .errors import DomainError, ValidationError
from .expr import ExprAST


@dataclass(frozen=True)
class Chart:
    id: str
    dim: int
    box: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.box) != self.dim:
            raise ValidationError(
                f"chart '{self.id}': box has {len(self.box)} intervals, dim is {self.dim}")
        _require_intervals(self.box, f"chart '{self.id}'")

    @property
    def coords(self):
        return tuple(f"x{i + 1}" for i in range(self.dim))

    def contains(self, x, slack=1e-9):
        return in_box(x, self.box, slack)


@dataclass(frozen=True, eq=False)
class Overlap:
    """The intersection U_src ∩ U_dst, described as a box in src coordinates
    plus the coordinate change into dst coordinates.  Overlaps compare and
    hash by identity: each one is a region of its atlas's sample memo."""

    src: str
    dst: str
    domain: Tuple[Tuple[float, float], ...]
    coord_change: Tuple[ExprAST, ...]
    mask: Optional[ExprAST] = None

    def __post_init__(self):
        _require_intervals(self.domain, f"overlap {self.src}->{self.dst}")

    def _require_inside(self, x):
        inside = in_box(x, self.domain)
        if not np.all(inside):
            first = np.asarray(x)[np.unravel_index(
                np.argmin(inside), np.shape(inside))]
            raise DomainError(
                f"point {first.tolist()} outside overlap domain "
                f"{self.src}->{self.dst}")

    def map_point(self, x, params=None):
        """psi(x) for one point (d,) or a stack batch + (d,)."""
        self._require_inside(x)
        return np.stack([ast.eval(x, params) for ast in self.coord_change],
                        axis=-1)

    def push(self, x, v, params=None):
        """Return (psi(x), Dpsi(x) v).  `v` has shape dirs + (d,) with dirs
        broadcastable against the points' batch; Dpsi(x) v has shape
        broadcast + (d',)."""
        self._require_inside(x)
        pairs = [ast.eval_dual(x, params, seeds=v)
                 for ast in self.coord_change]
        return (np.stack([y for y, _ in pairs], axis=-1),
                np.stack([w for _, w in pairs], axis=-1))


def _require_intervals(box, owner):
    for lo, hi in box:
        if not hi > lo:
            raise ValidationError(
                f"{owner}: degenerate interval [{lo}, {hi}]")


def in_box(points, box, slack=1e-9):
    """Mask of the points (shape batch + (d,)) that lie in the box, widened
    by `slack` on every side; a bool for one point."""
    points = np.asarray(points, dtype=float)
    lo, hi = np.asarray(box, dtype=float).reshape(-1, 2).T
    return np.all((lo - slack <= points) & (points <= hi + slack), axis=-1)


def directions(dim):
    """Every unit coordinate direction, shaped (dim, 1, dim) so that it
    broadcasts against a stack of points."""
    return np.eye(dim)[:, None, :]


def mask_keep(mask: Optional[ExprAST], points, params=None) -> np.ndarray:
    """Mask of the points at which the mask expression is positive (all of
    them when there is no mask)."""
    if mask is None:
        return np.ones(np.shape(points)[:-1], dtype=bool)
    return np.asarray(mask.eval(points, params)) > 0


@dataclass(frozen=True)
class SamplePlan:
    grid: int = 5
    n_random: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.grid < 0 or self.n_random < 0:
            raise ValidationError(
                f"sample plan grid {self.grid} and random {self.n_random} "
                f"must not be negative")
        if self.grid < 1 and self.n_random < 1:
            raise ValidationError("sample plan produces no points")
        if self.seed < 0:
            raise ValidationError(
                f"sample plan seed {self.seed} must not be negative")


def sample(plan: SamplePlan, box, mask: Optional[ExprAST] = None,
           params=None) -> np.ndarray:
    """Deterministic sample points of a box: midpoints of a grid^d lattice
    plus `n_random` seeded uniform points.  Points where the mask expression
    is <= 0 are dropped.  Identical inputs yield identical output."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    d = len(box)
    points: List[np.ndarray] = []
    if plan.grid >= 1:
        axes = [lo + (np.arange(plan.grid) + 0.5) * (hi - lo) / plan.grid
                for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        points.append(np.stack([m.ravel() for m in mesh], axis=-1))
    if plan.n_random >= 1:
        rng = np.random.default_rng(plan.seed)
        lows = np.array([lo for lo, _ in box])
        highs = np.array([hi for _, hi in box])
        points.append(rng.uniform(lows, highs, (plan.n_random, d)))
    pts = np.concatenate(points, axis=0)
    return pts[mask_keep(mask, pts, params)]


def _intersect_boxes(box1, box2):
    out = []
    for (lo1, hi1), (lo2, hi2) in zip(box1, box2):
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if not hi > lo:
            return None
        out.append((lo, hi))
    return tuple(out)


def _key(params):
    """Params as a memo key."""
    return tuple(sorted((params or {}).items()))


@dataclass(frozen=True)
class Atlas:
    """Charts and overlaps of one document, with the memo of their sample
    sets.  Every sample set (of a chart, an overlap or a triple-cocycle box)
    and every overlap push is computed once per (plan, region, params) and
    handed out read-only to every check on data over this atlas; the memo
    lives and dies with the atlas."""

    charts: Mapping[str, Chart]
    overlaps: Tuple[Overlap, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _memoized(self, key, build):
        """The memo entry for key, an array or a tuple of arrays, built
        read-only on the first call."""
        if key not in self._memo:
            value = build()
            for array in value if isinstance(value, tuple) else (value,):
                array.flags.writeable = False
            self._memo[key] = value
        return self._memo[key]

    def points(self, plan: SamplePlan, region, params=None) -> np.ndarray:
        """The sample points of a chart (given by its id) or of an
        overlap."""
        def build():
            if isinstance(region, Overlap):
                return sample(plan, region.domain, region.mask, params)
            return sample(plan, self.chart(region).box, params=params)

        return self._memoized(("points", plan, region, _key(params)), build)

    def pushed(self, plan: SamplePlan, overlap: Overlap, params=None):
        """(psi(x), Dpsi(x) e) at the overlap's sample points x, for every
        unit direction e of the source chart: shapes (N, d') and
        (d, N, d')."""
        return self._memoized(("pushed", plan, overlap, _key(params)),
                              lambda: overlap.push(
                                  self.points(plan, overlap, params),
                                  directions(self.chart(overlap.src).dim),
                                  params))

    def triple_points(self, plan: SamplePlan, a, b, c, params=None):
        """(x, psi_ab(x)) at the sample points x of the triple-cocycle box:
        the intersection of the a->b and a->c overlap domains, kept where
        both masks keep x and where psi_ab(x) lies in the b->c overlap and
        its mask keeps it.  None when one of the overlaps is not declared or
        the domains do not meet."""
        ov_ab, ov_ac, ov_bc = (self.overlap(*pair)
                               for pair in ((a, b), (a, c), (b, c)))
        if ov_ab is None or ov_ac is None or ov_bc is None:
            return None
        domain = _intersect_boxes(ov_ab.domain, ov_ac.domain)
        if domain is None:
            return None

        def build():
            pts = sample(plan, domain, ov_ab.mask, params)
            pts = pts[mask_keep(ov_ac.mask, pts, params)]
            y = ov_ab.map_point(pts, params)
            keep = in_box(y, ov_bc.domain)
            keep[keep] = mask_keep(ov_bc.mask, y[keep], params)
            return pts[keep], y[keep]

        return self._memoized(("triple", plan, (a, b, c), _key(params)),
                              build)

    def chart(self, chart_id) -> Chart:
        try:
            return self.charts[chart_id]
        except KeyError:
            raise ValidationError(f"unknown chart '{chart_id}'") from None

    def overlap(self, src, dst) -> Optional[Overlap]:
        for ov in self.overlaps:
            if ov.src == src and ov.dst == dst:
                return ov
        return None

    def require_overlap(self, src, dst) -> Overlap:
        ov = self.overlap(src, dst)
        if ov is None:
            raise ValidationError(f"no declared overlap {src}->{dst}")
        return ov

    def same_charts(self, other: "Atlas") -> bool:
        if set(self.charts) != set(other.charts):
            return False
        return all(self.charts[c].box == other.charts[c].box
                   for c in self.charts)

