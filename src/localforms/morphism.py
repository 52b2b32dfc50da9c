"""Bundle morphisms over a fixed base and related connections.

A morphism between two bundles trivialized over one shared atlas is carried
by a group morphism phi together with a family of group-valued maps h_a on
the charts.  The module checks the relatedness criterion
phibar(omega_a) = Ad(h_a^-1).theta_a + h_a^-1 dh_a, the morphism cocycle
condition on target transitions, and constructs pushforward and associated
connections.  A chart with no declared h_a is gauged by nothing: its
criterion is phibar(omega_a) = theta_a, with no unit gauge evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .atlas import directions
from .connection import (DEFAULT_TOLERANCE, CallableForm, LocalConnectionData,
                         check_relation)
from .errors import (AtlasMismatchError, GroupMismatchError,
                     MorphismCocycleViolation)
from .lie import (ComposedGroupMap, ConstGroupMap, GroupMap, GroupMorphismSpec,
                  GroupSpec, inverse)
from .report import Report, max_residual


@dataclass(frozen=True)
class MorphismData:
    """phi: G -> H plus the chart family h_a: U_a -> H realizing the bundle
    morphism over the identity of the base."""

    phi: GroupMorphismSpec
    h: Mapping[str, GroupMap]
    target_group: GroupSpec

    def h_map(self, chart) -> GroupMap:
        """h on the chart, the unit map where none is declared."""
        if chart in self.h:
            return self.h[chart]
        return ConstGroupMap(np.eye(self.target_group.n))

    def require_groups(self, source: LocalConnectionData,
                       target: LocalConnectionData = None):
        """Raise unless phi maps the source group (into the target group)."""
        for side, size, data in (("source", self.phi.source_dim, source),
                                 ("target", self.phi.target_dim, target)):
            if data is not None and size != data.group.n:
                raise GroupMismatchError(
                    f"morphism {side}_n = {size} does not match the {side} "
                    f"group's n = {data.group.n}")


def check_related(omega: LocalConnectionData, theta: LocalConnectionData,
                  m: MorphismData, tolerance=DEFAULT_TOLERANCE) -> Report:
    """Relatedness criterion per chart:
    phibar(omega_a,x(v)) = Ad(h_a(x)^-1).theta_a,x(v) + (h_a^-1 dh_a)_x(v),
    or phibar(omega_a,x(v)) = theta_a,x(v) where no h_a is declared."""
    if omega.atlas.charts != theta.atlas.charts:
        raise AtlasMismatchError("bundles do not share an atlas")
    m.require_groups(omega, theta)
    report = Report(tolerance, omega.sample_plan)
    for chart_id in sorted(omega.atlas.charts):
        pts = omega.points(chart_id)
        e = directions(omega.atlas.chart(chart_id).dim)
        check_relation(report, f"related:{chart_id}",
                       omega.atlas.induced(m.phi, omega.forms[chart_id],
                                           pts, e),
                       theta.forms[chart_id](pts, e), m.h.get(chart_id),
                       pts, e, omega.atlas)
    return report


def check_morphism_cocycle(m: MorphismData, source: LocalConnectionData,
                           target_transitions: Mapping[Tuple[str, str], GroupMap],
                           tolerance=DEFAULT_TOLERANCE,
                           require=False) -> Report:
    """Completion condition on the target transition family:
    h_ab(x) = h_a(x) . phi(g_ab(x)) . h_b(psi(x))^-1 on every overlap, where
    an h that is not declared is left out of the product.  With `require`, a
    failing condition raises MorphismCocycleViolation."""
    report = Report(tolerance, source.sample_plan)
    at = source.atlas.value
    for ov in source.atlas.overlaps:
        key = (ov.src, ov.dst)
        if key not in source.transitions or key not in target_transitions:
            continue
        pts = source.points(ov)
        expected = m.phi.apply(at(source.transitions[key], pts))
        h_a, h_b = m.h.get(ov.src), m.h.get(ov.dst)
        if h_a is not None:
            expected = at(h_a, pts) @ expected
        if h_b is not None:
            expected = expected @ inverse(at(h_b, source.pushed(ov)[0]))
        report.add(f"morphism-cocycle:{ov.src},{ov.dst}",
                   max_residual(at(target_transitions[key], pts) - expected),
                   len(pts))
    if require and not report.passed:
        raise MorphismCocycleViolation(
            f"target transitions fail the morphism cocycle condition: "
            f"{', '.join(report.failing())}")
    return report


def pushforward_connection(omega: LocalConnectionData, m: MorphismData,
                           target_transitions: Mapping[Tuple[str, str], GroupMap],
                           tolerance=DEFAULT_TOLERANCE,
                           check=True) -> LocalConnectionData:
    """The unique related connection on the target bundle, with local forms
    theta_a = Ad(h_a) . phibar(omega_a) - dh_a . h_a^-1, or phibar(omega_a)
    where no h_a is declared.  The target transitions must pass the morphism
    cocycle condition, checked here unless the caller does (check=False)."""
    m.require_groups(omega)
    if check:
        check_morphism_cocycle(m, omega, target_transitions, tolerance,
                               require=True)
    forms = {chart_id: _pushforward_form(form, m.phi, m.h.get(chart_id),
                                         omega.atlas)
             for chart_id, form in omega.forms.items()}
    return LocalConnectionData(omega.atlas, m.target_group,
                               dict(target_transitions), forms,
                               omega.sample_plan, omega.params)


def _pushforward_form(form, phi, h, atlas):
    """The gauge law solved for theta, h phibar(omega) h^-1 - dh h^-1, or
    phibar(omega) when h is None; h's jet and phibar(omega) are memoized."""

    def fn(x, v):
        if h is None:
            return atlas.induced(phi, form, x, v)
        hx, dh = atlas.jet(h, x, v)
        h_inv = inverse(hx)
        return hx @ atlas.induced(phi, form, x, v) @ h_inv - dh @ h_inv

    return CallableForm(fn)


def associated_connection(omega: LocalConnectionData, phi: GroupMorphismSpec,
                          target_group: GroupSpec) -> LocalConnectionData:
    """Connection on the associated bundle for phi: the pushforward with no
    gauge (every h_a the unit), so forms phibar(omega_a) and transitions
    phi . g_ab."""
    transitions = {key: ComposedGroupMap(phi, g)
                   for key, g in omega.transitions.items()}
    return pushforward_connection(omega, MorphismData(phi, {}, target_group),
                                  transitions, check=False)
