"""Finite towers of bundles over one base, linked by group morphisms.

A tower holds levels 1..N of local connection data over a shared atlas
together with connecting morphisms from higher to lower levels.  The
infinite projective limit is represented by the top level plus the
levelwise consistency predicates checked here: relatedness of every level
pair through the connectors, reconstruction of lower levels from the top,
and projective consistency of pointwise connection values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Mapping, Tuple

import numpy as np

from .atlas import directions
from .connection import (DEFAULT_TOLERANCE, LocalConnectionData, PointRep,
                         TangentRep, global_form_eval)
from .errors import (LevelOutOfRange, TowerInvariantViolation,
                     ValidationError)
from .lie import GroupMorphismSpec, identity_morphism
from .morphism import associated_connection
from .report import Report

# the residual bound, sample count and rng seed of TowerSpec.validate
VALIDATE_TOLERANCE = 1e-9
VALIDATE_SAMPLES = 20
VALIDATE_SEED = 7


@dataclass(frozen=True)
class TowerSpec:
    levels: Tuple[LocalConnectionData, ...]  # level i is levels[i - 1]
    connectors: Mapping[Tuple[int, int], GroupMorphismSpec]  # (j, i), j > i

    def __post_init__(self):
        """Every consecutive connector (j, j-1) is declared, and every level
        shares level 1's atlas object and sample plan and declares the same
        transition keys."""
        for j in range(2, self.depth + 1):
            if (j, j - 1) not in self.connectors:
                raise ValidationError(f"connector '{j},{j - 1}' is missing")
        for i, data in enumerate(self.levels[1:], start=2):
            if (data.atlas is not self.levels[0].atlas
                    or data.sample_plan != self.levels[0].sample_plan):
                raise ValidationError(
                    f"levels 1 and {i} do not share one atlas and sample "
                    f"plan")
            if set(data.transitions) != set(self.levels[0].transitions):
                raise ValidationError(
                    f"levels 1 and {i} declare different transitions")

    @property
    def depth(self):
        return len(self.levels)

    def level(self, i) -> LocalConnectionData:
        if not 1 <= i <= self.depth:
            raise LevelOutOfRange(f"level {i} of a depth-{self.depth} tower")
        return self.levels[i - 1]

    def connector(self, j, i) -> GroupMorphismSpec:
        """Morphism from level j down to level i, composing declared
        connectors when the pair itself is not declared."""
        bottom = self.level(i)
        self.level(j)  # each level exists, or LevelOutOfRange
        if j == i:
            return identity_morphism(bottom.group.n)
        if j < i:
            raise LevelOutOfRange(f"no connector upward from {j} to {i}")
        if (j, i) in self.connectors:
            return self.connectors[(j, i)]
        morphism = self.connectors[(j, j - 1)]
        for k in range(j - 1, i, -1):
            morphism = self.connectors[(k, k - 1)].compose(morphism)
        return morphism

    def validate(self):
        """Structural invariants: composition consistency of the connectors
        on sampled group elements, and the limit-chart condition on
        transitions; raises on the first violation.

        For each level j >= 3, on one sample stack of its group, every
        declared (j, i) with i < j-1 must agree with (j-1, i) after (j, j-1).
        By induction on j every connector then equals its chain of
        consecutive connectors (an undeclared one is that chain), so (j, i)
        equals (k, i) after (j, k) for every k between, with no check per
        triple; the links' residuals add along a chain.  Each declared
        connector is walked once, on everything the checks apply it to, and
        every pair's transitions are compared on the sample sets of the
        off-diagonal overlaps, taken once from the tower's one atlas and
        plan."""
        top = self.level(self.depth)  # its atlas and plan are every level's
        rng = np.random.default_rng(VALIDATE_SEED)
        g = {j: self.level(j).group.sample_group(rng, (VALIDATE_SAMPLES,))
             for j in range(3, self.depth + 1)}
        overlaps = {key: top.points(top.atlas.overlap(*key))
                    for key in top.transitions if key[0] != key[1]}
        # each (j, i) a check applies, walked once, top-down, on the stack of
        # g_j, the mid-chain image (j+1, j)(g_{j+1}) and level j's transitions
        images = {}
        for j in range(self.depth, 1, -1):
            for i in range(1, j):
                args = {"g": g[j]} if (j, i) in self.connectors and j in g \
                    else {}
                if (j + 1, i) in self.connectors:
                    args["mid"] = images[(j + 1, j)]["g"]
                if i == j - 1:
                    args.update((key, top.atlas.value(
                        self.level(j).transitions[key], pts))
                        for key, pts in overlaps.items())
                if args:
                    out = self.connector(j, i).apply(
                        np.concatenate(list(args.values())))
                    images[(j, i)] = {name: out[end - len(a):end] for
                                      (name, a), end in zip(args.items(),
                                      accumulate(map(len, args.values())))}
        for j in range(3, self.depth + 1):
            for i in range(1, j - 1):
                if (j, i) in self.connectors:
                    _first_violation(
                        images[(j, i)]["g"] - images[(j - 1, i)]["mid"],
                        VALIDATE_TOLERANCE,
                        f"connectors ({j},{i}) vs ({j - 1},{i}).({j},{j - 1})"
                        f" differ")
        for i in range(1, self.depth):
            for key, pts in overlaps.items():
                _first_violation(
                    top.atlas.value(self.level(i).transitions[key], pts)
                    - images[(i + 1, i)][key],
                    VALIDATE_TOLERANCE,
                    f"transition {key} at level {i} deviates from the "
                    f"projected level-{i + 1} transition")
        return self


def _first_violation(diff, tolerance, message):
    """Raise with the residual of the first sample whose residual matrix
    is not within the tolerance; a NaN residual fails."""
    residuals = np.linalg.norm(diff, axis=(-2, -1))
    bad = ~(residuals <= tolerance)
    if bad.any():
        raise TowerInvariantViolation(
            f"{message} by {residuals[np.argmax(bad)]:.3e}")


def check_tower_related(tower: TowerSpec,
                        tolerance=DEFAULT_TOLERANCE) -> Report:
    """Levelwise relatedness: for every pair j > i, chart and sample
    direction, phibar^(ji)(omega^j) must equal omega^i: the relation check
    with no gauge, since a unit one (I X I) turns an inf residual into NaN.

    The levels share one atlas and sample plan, so each chart is sampled
    once and each level's form values on every chart are evaluated and
    stacked once.  A pair walks phibar^(ji) once, on the upper level's
    stack, and cuts the residuals back per chart."""
    top = tower.level(tower.depth)
    charts = [(c, top.points(c)) for c in sorted(top.atlas.charts)]
    ends = list(accumulate(pts.size for _, pts in charts))
    stacks = [np.concatenate([level.forms[c](pts, directions(
        pts.shape[-1])).reshape((-1, level.group.n, level.group.n))
        for c, pts in charts]) for level in tower.levels]
    report = Report(tolerance, top.sample_plan)
    for j in range(2, tower.depth + 1):
        for i in range(1, j):
            residuals = np.linalg.norm(tower.connector(j, i).induced(
                stacks[j - 1]) - stacks[i - 1], axis=(-2, -1))
            for (c, pts), end in zip(charts, ends):
                report.add(f"tower-related:{j}->{i}:{c}", residuals[
                    end - pts.size:end].max(initial=0.0), pts.size)
    return report


def project_connection(tower: TowerSpec, i) -> LocalConnectionData:
    """Level-i data reconstructed from the top level alone: forms composed
    with the induced algebra morphism, transitions composed with the group
    morphism."""
    top = tower.level(tower.depth)
    if i == tower.depth:
        return top
    return associated_connection(top, tower.connector(tower.depth, i),
                                 tower.level(i).group)


def limit_eval(tower: TowerSpec, p: PointRep, u: TangentRep) -> List[np.ndarray]:
    """Connection values at every level for a top-level point and tangent.

    The point projects by the connectors; the tangent projects by their
    differentials at the group part.  For a valid tower the resulting
    sequence is projectively consistent, which is the finite-depth content
    of the pointwise limit."""
    values = []
    for i in range(1, tower.depth + 1):
        phi = tower.connector(tower.depth, i)
        a_i, w_i = phi.jet(p.a, u.w)
        values.append(global_form_eval(
            tower.level(i), PointRep(p.chart, p.x, a_i),
            TangentRep(u.v, w_i)))
    return values


def limit_consistency_residual(tower: TowerSpec, values) -> float:
    """Max over level pairs j > i of |phibar^(ji)(v_j) - v_i|."""
    residual = 0.0
    for j in range(2, tower.depth + 1):
        for i in range(1, j):
            phi = tower.connector(j, i)
            residual = max(residual, float(np.linalg.norm(
                phi.induced(values[j - 1]) - values[i - 1])))
    return residual
