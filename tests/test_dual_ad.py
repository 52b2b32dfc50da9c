"""Forward-mode derivative correctness against central finite differences.

The randomized corpus draws expressions from a generator tuned to stay
inside every function's domain, then compares eval_dual directional
derivatives with a central difference at h = 1e-5.
"""

import numpy as np
import pytest

from localforms.errors import DomainError
from localforms.expr import Dual, parse

COORDS = ("x1", "x2", "x3")
H = 1e-5
N_CASES = 500


def _leaf(rng):
    if rng.random() < 0.5:
        return rng.choice(COORDS)
    return format(rng.uniform(-2.0, 2.0), ".4f")


def _expr(rng, depth):
    if depth == 0:
        return _leaf(rng)
    a = _expr(rng, depth - 1)
    b = _expr(rng, depth - 1)
    choice = rng.integers(0, 9)
    if choice == 0:
        return f"({a} + {b})"
    if choice == 1:
        return f"({a} - {b})"
    if choice == 2:
        return f"({a}) * ({b})"
    if choice == 3:
        return f"({a}) / (1.5 + ({b})^2)"
    if choice == 4:
        return f"sin({a})"
    if choice == 5:
        return f"cos({a})"
    if choice == 6:
        return f"exp(0.3 * ({a}))"
    if choice == 7:
        return f"log(1.5 + ({a})^2)"
    return f"sqrt(1.5 + ({a})^2)"


def _usable(ast, x, v):
    """Keep only cases where the finite difference is numerically clean."""
    try:
        values = [ast.eval(x + s * H * v) for s in (-2, -1, 0, 1, 2)]
    except DomainError:
        return None
    if any(abs(val) > 50.0 for val in values):
        return None
    fd = (values[3] - values[1]) / (2.0 * H)
    if abs(fd) > 50.0:
        return None
    return fd


def test_randomized_corpus_matches_central_differences():
    rng = np.random.default_rng(2024)
    checked = 0
    attempts = 0
    while checked < N_CASES:
        attempts += 1
        assert attempts < 20 * N_CASES, "corpus generator starved"
        source = _expr(rng, int(rng.integers(1, 5)))
        ast = parse(source, COORDS)
        x = rng.uniform(-2.0, 2.0, 3)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        fd = _usable(ast, x, v)
        if fd is None:
            continue
        _, tangents = ast.eval_dual(x, seeds=[v])
        assert abs(tangents[0] - fd) <= 1e-7 * max(1.0, abs(fd)), source
        checked += 1
    assert checked == N_CASES


def test_multiple_seeds_in_one_pass():
    ast = parse("sin(x1) * exp(x2) + x1 * x2", ["x1", "x2"])
    x = [0.4, -0.3]
    seeds = [[1.0, 0.0], [0.0, 1.0], [2.0, -1.0]]
    value, tangents = ast.eval_dual(x, seeds=seeds)
    dx = np.cos(0.4) * np.exp(-0.3) + (-0.3)
    dy = np.sin(0.4) * np.exp(-0.3) + 0.4
    assert value == pytest.approx(np.sin(0.4) * np.exp(-0.3) - 0.12)
    assert tangents[0] == pytest.approx(dx, abs=1e-14)
    assert tangents[1] == pytest.approx(dy, abs=1e-14)
    assert tangents[2] == pytest.approx(2 * dx - dy, abs=1e-13)


def test_matrix_expression_derivative():
    ast = parse("mexp(x1 * [[0, -1], [1, 0]])", ["x1"])
    t = 0.8
    _, tangents = ast.eval_dual([t], seeds=[[1.0]])
    want = np.array([[-np.sin(t), -np.cos(t)], [np.cos(t), -np.sin(t)]])
    assert np.allclose(tangents[0], want, atol=1e-13)


def test_mexp_derivative_at_zero_is_the_generator():
    ast = parse("mexp(x1 * [[0, -1], [1, 0]])", ["x1"])
    _, tangents = ast.eval_dual([0.0], seeds=[[1.0]])
    assert np.allclose(tangents[0], [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_inv_derivative():
    # d(A^-1) = -A^-1 dA A^-1 for A = [[1, x], [0, 1]]
    ast = parse("inv([[1, x1], [0, 1]])", ["x1"])
    _, tangents = ast.eval_dual([0.7], seeds=[[1.0]])
    assert np.allclose(tangents[0], [[0.0, -1.0], [0.0, 0.0]], atol=1e-15)


def test_dual_matrix_binding():
    # differentiate g -> g @ g at g0 along E: derivative is E g0 + g0 E
    ast = parse("g * g", [], matrix_params={"g": (2, 2)})
    g0 = np.array([[1.0, 2.0], [0.5, 1.0]])
    e = np.array([[0.0, 1.0], [1.0, 0.0]])
    result = ast.eval_bound({"g": Dual.matrix(g0, [e])})
    assert np.allclose(result.primal, g0 @ g0)
    assert np.allclose(result.tangent[0], e @ g0 + g0 @ e, atol=1e-15)


def test_determinism():
    ast = parse("sin(x1) * exp(0.3 * x2) / (1.5 + x1^2)", ["x1", "x2"])
    a = ast.eval_dual([0.3, 0.9], seeds=[[1.0, 2.0]])
    b = ast.eval_dual([0.3, 0.9], seeds=[[1.0, 2.0]])
    assert a[0] == b[0]
    assert a[1][0] == b[1][0]
