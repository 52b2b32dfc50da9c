"""The batched evaluation core: one walk over a stack of samples must give
exactly what the same walk gives sample by sample."""

import numpy as np
import pytest

from localforms.atlas import SamplePlan, directions, sample
from localforms.errors import DomainError
from localforms.expr import parse
from localforms.lie import ExprGroupMap, GroupMorphismSpec

from conftest import load_fixture

COORDS = ["x1", "x2"]
SOURCES = [
    "sin(x1) * exp(0.3 * x2) / (1.5 + x1^2) - sqrt(2 + cos(x2))",
    "atan2(x2, x1) + log(1 + x1^2) * tan(0.2 * x2) - x1^-2",
    "mexp(sin(x1) * [[0,-1],[1,0]] + x2 * [[0.1,0.3],[-0.2,0.05]])",
    "inv([[1 + x1^2, x2], [0.5 * x2, 2]]) * transpose([[x1, 1], [0, x2]])",
    "mexp((x1 * x2) * [[0, 1, 0], [0, 0, 1], [-1, 0, 0]]) / (3 + x2)",
    "[[1, 2], [3, 4]] - 0.5 * [[x1, 0], [0, x1]]",
]


def _points(n=17, seed=5):
    return np.random.default_rng(seed).uniform(0.3, 1.7, (n, 2))


@pytest.mark.parametrize("source", SOURCES)
def test_rows_are_independent(source):
    ast = parse(source, COORDS)
    pts = _points()
    seeds = directions(2)
    values = ast.eval(pts)
    dual_values, tangents = ast.eval_dual(pts, seeds=seeds)
    assert np.array_equal(values, dual_values)
    for i in range(len(pts)):
        row = pts[i:i + 1]
        assert np.array_equal(values[i], ast.eval(row)[0])
        value, tangent = ast.eval_dual(row, seeds=seeds)
        assert np.array_equal(dual_values[i], value[0])
        assert np.array_equal(tangents[:, i], tangent[:, 0])


@pytest.mark.parametrize("source", SOURCES)
def test_all_direction_seeds_match_single_directions(source):
    # d seeds in one walk give eval_dual along each unit direction
    ast = parse(source, COORDS)
    pts = _points()
    _, tangents = ast.eval_dual(pts, seeds=directions(2))
    for i, e in enumerate(np.eye(2)):
        _, single = ast.eval_dual(pts, seeds=e)
        assert np.array_equal(tangents[i], single)
        for p in range(len(pts)):  # and one point at a time
            _, at_point = ast.eval_dual(pts[p], seeds=[e])
            assert np.allclose(tangents[i, p], at_point[0], rtol=0,
                               atol=1e-14)


def test_group_map_derivative_along_every_direction():
    g = ExprGroupMap("U", parse(SOURCES[2], COORDS))
    pts = _points()
    stacked = g.derivative(pts, directions(2))
    assert stacked.shape == (2, len(pts), 2, 2)
    for i, e in enumerate(np.eye(2)):
        assert np.array_equal(stacked[i], g.derivative(pts, e))


def test_morphism_on_a_stack():
    phi = GroupMorphismSpec(2, 2, parse("g * g * transpose(g)", [],
                                        matrix_params={"g": (2, 2)}))
    rng = np.random.default_rng(8)
    gs = rng.normal(size=(9, 2, 2))
    es = rng.normal(size=(9, 2, 2))
    applied = phi.apply(gs)
    moved = phi.jet(gs, es)[1]
    for i in range(len(gs)):
        assert np.array_equal(applied[i], phi.apply(gs[i:i + 1])[0])
        assert np.array_equal(moved[i],
                              phi.jet(gs[i:i + 1], es[i:i + 1])[1][0])


def test_domain_error_names_the_sample_point():
    ast = parse("1 / (x1 - 0.5)", ["x1"])
    pts = sample(SamplePlan(grid=5, n_random=0), ((0.0, 1.0),))
    assert 0.5 in pts[:, 0]
    with pytest.raises(DomainError,
                       match=r"division by zero at point \[0\.5\]"):
        ast.eval(pts)
    ast = parse("log(x2 - x1)", COORDS)
    pts = np.array([[0.1, 0.9], [0.7, 0.2], [0.3, 0.8]])
    with pytest.raises(DomainError, match=r"at point \[0\.7, 0\.2\]"):
        ast.eval_dual(pts, seeds=directions(2))


def test_empty_sample_set():
    ast = parse(SOURCES[2], COORDS)
    value, tangents = ast.eval_dual(np.zeros((0, 2)), seeds=directions(2))
    assert value.shape == (0, 2, 2)
    assert tangents.shape == (2, 0, 2, 2)


def test_check_on_a_stack_matches_the_pointwise_formula():
    data = load_fixture("monopole_k1.json", grid=4, random=3)
    ov = data.atlas.overlap("U_N", "U_S")
    g = data.transitions[("U_N", "U_S")]
    pts = sample(data.sample_plan, ov.domain, ov.mask, data.params)
    e = directions(2)
    y, w = ov.push(pts, e, data.params)
    lhs = data.forms["U_S"](y, w)
    for p, x in enumerate(pts):
        for i, direction in enumerate(np.eye(2)):
            y_p, w_p = ov.push(x, direction, data.params)
            assert np.array_equal(y[p], y_p)
            assert np.array_equal(w[i, p], w_p)
            assert np.allclose(lhs[i, p], data.forms["U_S"](y_p, w_p),
                               rtol=0, atol=1e-15)
            assert np.allclose(g.derivative(pts, e)[i, p],
                               g.derivative(x, direction), rtol=0, atol=1e-15)
