import numpy as np
import pytest

from localforms.connection import SectionRep, connection_operator
from localforms.errors import ValidationError
from localforms.expr import parse
from localforms.lie import (ConstGroupMap, ExprGroupMap, ProductGroupMap,
                            adjoint, exp_matrix, inverse, log_diff_left)

from conftest import load_fixture

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _so2_map(chart, text):
    return ExprGroupMap(chart, parse(text, ["x1"]))


def test_natural_section_maps_to_the_local_form(abelian):
    section = SectionRep("U1", ConstGroupMap(np.eye(2)))
    d_value = connection_operator(abelian, section)
    rng = np.random.default_rng(61)
    for _ in range(20):
        x = rng.uniform(0.1, 1.9, 1)
        v = rng.normal(size=1)
        assert np.array_equal(d_value(x, v), abelian.forms["U1"](x, v))


def test_equivariance_under_constant_translation(abelian):
    g = _so2_map("U1", "mexp(sin(x1) * [[0,-1],[1,0]])")
    a = exp_matrix(0.83 * J)
    base = connection_operator(abelian, SectionRep("U1", g))
    moved = connection_operator(
        abelian, SectionRep("U1", ProductGroupMap(g, ConstGroupMap(a))))
    rng = np.random.default_rng(62)
    for _ in range(20):
        x = rng.uniform(0.1, 1.9, 1)
        v = rng.normal(size=1)
        want = adjoint(inverse(a), base(x, v))
        assert np.linalg.norm(moved(x, v) - want) < 1e-12


def test_equivariance_under_map_translation(abelian):
    # D(sigma . a) = Ad(a^-1) D(sigma) + a^-1 da for group-valued a
    rng = np.random.default_rng(63)
    for trial in range(10):
        c1, c2 = (float(c) for c in rng.uniform(-1.0, 1.0, 2))
        g = _so2_map("U1", f"mexp(({c1!r} * x1) * [[0,-1],[1,0]])")
        a = _so2_map("U1", f"mexp(({c2!r} * cos(x1)) * [[0,-1],[1,0]])")
        base = connection_operator(abelian, SectionRep("U1", g))
        moved = connection_operator(
            abelian, SectionRep("U1", ProductGroupMap(g, a)))
        for _ in range(10):
            x = rng.uniform(0.1, 1.9, 1)
            v = rng.normal(size=1)
            want = adjoint(inverse(a.value(x)), base(x, v)) \
                + log_diff_left(a, x, v)
            assert np.linalg.norm(moved(x, v) - want) < 1e-8


def test_well_definedness_across_charts(abelian):
    # one section seen from both charts of the overlap: sigma = s_1 . g_1
    # = s_2 . g_2 with g_2 = g_21 . g_1; its D-value must not depend on
    # the chart used to compute it (the coordinate change is the identity)
    g_1 = _so2_map("U1", "mexp(sin(x1) * [[0,-1],[1,0]])")
    g_2 = _so2_map("U2", "mexp((sin(x1) - x1) * [[0,-1],[1,0]])")
    d_1 = connection_operator(abelian, SectionRep("U1", g_1))
    d_2 = connection_operator(abelian, SectionRep("U2", g_2))
    rng = np.random.default_rng(64)
    for _ in range(25):
        x = rng.uniform(1.05, 1.95, 1)
        v = rng.normal(size=1)
        assert np.linalg.norm(d_1(x, v) - d_2(x, v)) < 1e-8


def test_well_definedness_via_generic_transition(abelian):
    # same check with the factorization built from the reverse transition
    # instead of a hand-simplified expression
    g_1 = _so2_map("U1", "mexp(x1^2 * [[0,-1],[1,0]])")
    g_2 = ProductGroupMap(abelian.transitions[("U2", "U1")], g_1)
    d_1 = connection_operator(abelian, SectionRep("U1", g_1))
    d_2 = connection_operator(abelian, SectionRep("U2", g_2))
    rng = np.random.default_rng(65)
    for _ in range(25):
        x = rng.uniform(1.05, 1.95, 1)
        v = rng.normal(size=1)
        assert np.linalg.norm(d_1(x, v) - d_2(x, v)) < 1e-8


def test_unknown_chart_rejected(abelian):
    with pytest.raises(ValidationError):
        connection_operator(abelian,
                            SectionRep("U9", ConstGroupMap(np.eye(2))))
