import dataclasses

import numpy as np
import pytest

from localforms.atlas import sample
from localforms.bundle_io import load_christoffel
from localforms.christoffel import (check_christoffel_compat,
                                    christoffel_to_forms,
                                    forms_to_christoffel)
from localforms.connection import zero_form
from localforms.errors import GroupMismatchError, ShapeError
from localforms.lie import GroupSpec

from conftest import fixture_path, load_fixture, load_tool


def _sphere(grid=6, random=8):
    data, transitions = load_christoffel(
        fixture_path("sphere_levi_civita.json"))
    plan = dataclasses.replace(data.sample_plan, grid=grid, n_random=random)
    return dataclasses.replace(data, sample_plan=plan), transitions


def test_round_trip_is_bit_exact():
    data, transitions = _sphere()
    bundle = christoffel_to_forms(data, transitions)
    back = forms_to_christoffel(bundle)
    for chart_id, table in data.gamma.items():
        for i, block in enumerate(table):
            for j, row in enumerate(block):
                for k, entry in enumerate(row):
                    # same AST node, not merely an equal expression
                    assert back.gamma[chart_id][i][j][k].root is entry.root


def test_forms_carry_the_symbols_verbatim():
    data, transitions = _sphere()
    bundle = christoffel_to_forms(data, transitions)
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = rng.uniform([0.1, 0.0], [1.9, 6.0])
        coeff = bundle.forms["U_N"].coeffs[1].eval(x)
        theta = x[0]
        want = np.array([[0.0, -np.sin(theta) * np.cos(theta)],
                         [np.cos(theta) / np.sin(theta), 0.0]])
        assert np.allclose(coeff, want, atol=0.0)


def test_sphere_compatibility_passes():
    data, transitions = _sphere()
    assert check_christoffel_compat(data, transitions, 1e-7).passed


def test_perturbed_fixture_fails():
    data, transitions = load_christoffel(
        fixture_path("sphere_levi_civita_mutated.json"))
    plan = dataclasses.replace(data.sample_plan, grid=6, n_random=8)
    data = dataclasses.replace(data, sample_plan=plan)
    report = check_christoffel_compat(data, transitions, 1e-7)
    assert not report.passed
    assert max(c.max_residual for c in report.checks) > 0.05


def test_symbols_match_metric_differentiation_oracle():
    # gamma[i][j][k] is the (j, k) entry of the dx_i coefficient, i.e. the
    # symbol with upper index j and lower indices (i, k)
    oracle = load_tool("sphere_christoffels")
    data, _ = _sphere()
    pts = sample(data.sample_plan, data.atlas.chart("U_N").box)
    for x in pts:
        want = oracle.christoffels(x)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    got = data.gamma["U_N"][i][j][k].eval(x)
                    assert abs(got - want[j, i, k]) < 1e-7


def test_forms_to_christoffel_requires_expression_forms():
    bundle = load_fixture("sphere_frame.json", grid=3, random=3)
    converted = forms_to_christoffel(bundle)
    assert set(converted.gamma) == {"U_N", "U_S"}
    composite = dataclasses.replace(bundle, forms={
        chart: zero_form(2) for chart in bundle.atlas.charts})
    with pytest.raises(ShapeError):
        forms_to_christoffel(composite)


def test_forms_to_christoffel_requires_matrix_literal_coefficients():
    # monopole_k1's dx2 coefficient on U_N is a scalar times a literal
    bundle = load_fixture("monopole_k1.json", grid=3, random=3)
    with pytest.raises(ShapeError, match="^coefficient on 'U_N' is not a "
                       "matrix literal$"):
        forms_to_christoffel(bundle)


def test_forms_to_christoffel_requires_forms_of_the_fiber_size():
    bundle = load_fixture("sphere_frame.json", grid=3, random=3)
    wider = dataclasses.replace(bundle, group=GroupSpec("GL(3)", 3))
    with pytest.raises(GroupMismatchError,
                       match="^form on 'U_N' is 2x2, fiber dimension is 3$"):
        forms_to_christoffel(wider)


def test_frame_bundle_fixture_agrees_with_symbols():
    # the hand-written frame-bundle fixture and the Christoffel fixture
    # describe the same connection
    data, transitions = _sphere()
    bundle = christoffel_to_forms(data, transitions)
    frame = load_fixture("sphere_frame.json", grid=4, random=4)
    rng = np.random.default_rng(42)
    for _ in range(15):
        x = rng.uniform([0.1, 0.0], [1.9, 6.0])
        v = rng.normal(size=2)
        for chart in ("U_N", "U_S"):
            delta = bundle.forms[chart](x, v) - frame.forms[chart](x, v)
            assert np.linalg.norm(delta) < 1e-12
