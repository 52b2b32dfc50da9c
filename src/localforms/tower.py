"""Finite towers of bundles over one base, linked by group morphisms.

A tower holds levels 1..N of local connection data over a shared atlas
together with connecting morphisms from higher to lower levels.  The
infinite projective limit is represented by the top level plus the
levelwise consistency predicates checked here: relatedness of every level
pair through the connectors, reconstruction of lower levels from the top,
and projective consistency of pointwise connection values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Mapping, Tuple

import numpy as np

from .atlas import directions, sample
from .connection import (LocalConnectionData, PointRep, TangentRep,
                         global_form_eval)
from .errors import (LevelOutOfRange, TowerInvariantViolation,
                     ValidationError)
from .lie import GroupMorphismSpec, identity_morphism
from .morphism import associated_connection
from .report import Report, max_residual


@dataclass(frozen=True)
class TowerSpec:
    levels: Tuple[LocalConnectionData, ...]  # level i is levels[i - 1]
    connectors: Mapping[Tuple[int, int], GroupMorphismSpec]  # (j, i), j > i

    def __post_init__(self):
        """Every consecutive connector (j, j-1) is declared and every level
        declares the same transition keys."""
        for j in range(2, self.depth + 1):
            if (j, j - 1) not in self.connectors:
                raise ValidationError(f"connector '{j},{j - 1}' is missing")
        for i, data in enumerate(self.levels[1:], start=2):
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
        if j == i:
            return identity_morphism(self.level(i).group.n)
        if j < i:
            raise LevelOutOfRange(f"no connector upward from {j} to {i}")
        if (j, i) in self.connectors:
            return self.connectors[(j, i)]
        morphism = self.connectors[(j, j - 1)]
        for k in range(j - 1, i, -1):
            morphism = self.connectors[(k, k - 1)].compose(morphism)
        return morphism

    def validate(self, tolerance=1e-9, n_samples=20, seed=7):
        """Structural invariants: shared atlas, composition consistency of
        the connectors on sampled group elements, and the limit-chart
        condition on transitions; raises on the first violation.

        Composition is checked along consecutive chains: for each level
        j >= 3, on one sample stack g of its group, every declared (j, i)
        with i < j-1 must agree with (j-1, i) after (j, j-1).  By induction
        on j every connector then equals the chain (i+1, i) ... (j, j-1) of
        consecutive connectors (an undeclared one is that chain), so every
        (j, i) equals (k, i) after (j, k) for each k between: O(depth^2)
        morphism evaluations instead of one per (j, k, i) triple.  The
        tolerance bounds each link; along a chain the links' residuals add.

        Each level's transitions are evaluated once per off-diagonal key and
        sample set, the set of the plan and overlap of the upper level of a
        pair."""
        top = self.level(self.depth)
        for data in self.levels[:-1]:
            if not data.atlas.same_charts(top.atlas):
                raise TowerInvariantViolation("levels do not share an atlas")
        rng = np.random.default_rng(seed)
        for j in range(3, self.depth + 1):
            g = self.level(j).group.sample_group(rng, shape=(n_samples,))
            mid = self.connectors[(j, j - 1)].apply(g)
            for i in range(1, j - 1):
                if (j, i) in self.connectors:
                    _first_violation(
                        self.connectors[(j, i)].apply(g)
                        - self.connector(j - 1, i).apply(mid), tolerance,
                        f"connectors ({j},{i}) vs ({j - 1},{i}).({j},{j - 1})"
                        f" differ")
        values = {}  # (level, key) -> (sample set, transition values there)

        def transition_values(level, key, sample_set, pts):
            cached = values.get((level, key))
            if cached is None or cached[0] != sample_set:
                cached = values[(level, key)] = (
                    sample_set, self.level(level).transitions[key].value(pts))
            return cached[1]

        for i in range(1, self.depth):
            upper = self.level(i + 1)
            phi = self.connector(i + 1, i)
            for key in upper.transitions:
                if key[0] == key[1]:
                    continue
                ov = upper.atlas.overlap(*key)
                sample_set = (upper.sample_plan, ov, upper.params)
                pts = sample(upper.sample_plan, ov.domain, ov.mask,
                             upper.params)
                _first_violation(
                    transition_values(i, key, sample_set, pts)
                    - phi.apply(transition_values(i + 1, key, sample_set,
                                                  pts)),
                    tolerance,
                    f"transition {key} at level {i} deviates from the "
                    f"projected level-{i + 1} transition")
        return self


def _first_violation(diff, tolerance, message):
    """Raise with the residual of the first sample whose residual matrix
    exceeds the tolerance."""
    residuals = np.linalg.norm(diff, axis=(-2, -1))
    bad = residuals > tolerance
    if np.any(bad):
        raise TowerInvariantViolation(
            f"{message} by {residuals[np.argmax(bad)]:.3e}")


def check_tower_related(tower: TowerSpec, tolerance=1e-8) -> Report:
    """Levelwise relatedness: for every pair j > i, chart and sample
    direction, phibar^(ji)(omega^j) must equal omega^i.

    Each level's form is evaluated once per chart and sample set (the plan
    and box the points come from), however many pairs it takes part in."""
    top = tower.level(tower.depth)
    report = Report(tolerance, top.sample_plan)

    @functools.cache
    def points(plan, box):
        return sample(plan, box)

    @functools.cache
    def form_values(level, chart_id, plan, box):
        return tower.level(level).forms[chart_id](points(plan, box),
                                                  directions(len(box)))

    for j in range(2, tower.depth + 1):
        upper = tower.level(j)
        for i in range(1, j):
            phi = tower.connector(j, i)
            for chart_id in sorted(upper.atlas.charts):
                sample_set = (upper.sample_plan,
                              upper.atlas.chart(chart_id).box)
                omega_j = form_values(j, chart_id, *sample_set)
                omega_i = form_values(i, chart_id, *sample_set)
                report.add(f"tower-related:{j}->{i}:{chart_id}",
                           max_residual(phi.induced(omega_j) - omega_i),
                           len(points(*sample_set)) * len(sample_set[1]))
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
        a_i = phi.apply(p.a)
        w_i = phi.differential(p.a, u.w)
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
