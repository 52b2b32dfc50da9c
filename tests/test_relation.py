"""The shared relation kernel: the gauge law and the relation check.

Overlap compatibility and morphism relatedness add their residuals through
`check_relation` over `gauge`.  Their reports must equal, entry for entry
and bit for bit, the checks spelled out here with one `inverse` per value,
in the order of operations of `gauge`: g^-1 omega g + g^-1 dg.
"""

import numpy as np
import pytest

from localforms.atlas import directions, sample
from localforms.bundle_io import load_morphism
from localforms.connection import check_compatibility, gauge
from localforms.expr import parse
from localforms.lie import ExprGroupMap, adjoint, inverse
from localforms.morphism import (MorphismData, associated_connection,
                                 check_related, pushforward_connection)
from localforms.report import Report, max_residual

from conftest import fixture_path, load_fixture
from test_golden import _BUNDLES

TOLERANCE = 1e-8


def _compatibility_reference(data):
    report = Report(TOLERANCE, data.sample_plan)
    for ov in data.atlas.overlaps:
        if (ov.src, ov.dst) not in data.transitions:
            continue
        g = data.transitions[(ov.src, ov.dst)]
        pts = sample(data.sample_plan, ov.domain, ov.mask)
        dim = data.atlas.chart(ov.src).dim
        e = directions(dim)
        g_x = g.value(pts)
        g_inv = inverse(g_x)
        y, w = ov.push(pts, e)
        lhs = data.forms[ov.dst](y, w)
        rhs = g_inv @ data.forms[ov.src](pts, e) @ g_x \
            + g_inv @ g.jet(pts, e)[1]
        report.add(f"compatibility:{ov.src},{ov.dst}",
                   max_residual(lhs - rhs), len(pts) * dim)
    return report


def _related_reference(omega, theta, m):
    report = Report(TOLERANCE, omega.sample_plan)
    for chart_id in sorted(omega.atlas.charts):
        chart = omega.atlas.chart(chart_id)
        h = m.h_map(chart_id)
        pts = sample(omega.sample_plan, chart.box)
        e = directions(chart.dim)
        h_x = h.value(pts)
        h_inv = inverse(h_x)
        lhs = m.phi.induced(omega.forms[chart_id](pts, e))
        rhs = h_inv @ theta.forms[chart_id](pts, e) @ h_x \
            + h_inv @ h.jet(pts, e)[1]
        report.add(f"related:{chart_id}", max_residual(lhs - rhs),
                   len(pts) * chart.dim)
    return report


def _entries(report):
    return [(c.name, c.max_residual, c.sample_count, c.tolerance)
            for c in report.checks]


def _bundle(name):
    return load_fixture(f"{name}.json", grid=4, random=5)


def _morphism(name, source):
    return load_morphism(fixture_path(f"{name}.json"), source.atlas,
                         source.params)


@pytest.mark.parametrize("name", _BUNDLES)
def test_compatibility_matches_reference(name):
    data = _bundle(name)
    assert _entries(check_compatibility(data, TOLERANCE)) \
        == _entries(_compatibility_reference(data))


@pytest.mark.parametrize("bundle, morphism", [
    ("monopole_k1", "morphism_squaring"), ("abelian", "morphism_identity")])
def test_constructed_compatibility_matches_reference(bundle, morphism):
    source = _bundle(bundle)
    m, target_transitions = _morphism(morphism, source)
    built = [associated_connection(source, m.phi, m.target_group)]
    if target_transitions is not None:
        built.append(pushforward_connection(source, m, target_transitions))
    for data in built:
        assert _entries(check_compatibility(data, TOLERANCE)) \
            == _entries(_compatibility_reference(data))


def _with_h(m, atlas):
    """m with a non-constant h on every chart."""
    h = {chart_id: ExprGroupMap(chart_id, parse(
        "mexp((0.3*x1 - 0.2)*[[0,-1],[1,0]])",
        atlas.chart(chart_id).coords)) for chart_id in atlas.charts}
    return MorphismData(m.phi, h, m.target_group)


@pytest.mark.parametrize("source, target, morphism", [
    ("monopole_k1", "monopole_k2", "morphism_squaring"),
    ("monopole_k1", "monopole_k3", "morphism_squaring"),
    ("monopole_k1_mutated", "monopole_k2", "morphism_squaring"),
    ("abelian", "abelian", "morphism_identity"),
    ("abelian", "abelian_mutated", "morphism_identity")])
def test_related_matches_reference(source, target, morphism):
    omega, theta = _bundle(source), _bundle(target)
    m, _ = _morphism(morphism, omega)
    assert _entries(check_related(omega, theta, m, TOLERANCE)) \
        == _entries(_related_reference(omega, theta, m))
    gauged = _with_h(m, omega.atlas)
    assert _entries(check_related(omega, theta, gauged, TOLERANCE)) \
        == _entries(_related_reference(omega, theta, gauged))


def test_pushed_connection_is_related_with_zero_residual():
    source = _bundle("monopole_k1")
    m, target_transitions = _morphism("morphism_squaring", source)
    pushed = pushforward_connection(source, m, target_transitions)
    report = check_related(source, pushed, m, TOLERANCE)
    assert _entries(report) == _entries(_related_reference(source, pushed, m))
    assert [c.max_residual for c in report.checks] == [0.0, 0.0]


def test_gauge_is_the_adjoint_formula():
    rng = np.random.default_rng(3)
    g = np.eye(3) + 0.3 * rng.normal(size=(5, 3, 3))
    dg = rng.normal(size=(5, 3, 3))
    omega = rng.normal(size=(5, 3, 3))
    assert np.array_equal(gauge(g, dg, omega),
                          inverse(g) @ omega @ g + inverse(g) @ dg)
    # Ad(g^-1) omega, up to rounding
    assert np.allclose(gauge(g, dg, omega) - inverse(g) @ dg,
                       adjoint(inverse(g), omega), rtol=0.0, atol=1e-12)
