"""The stacked matrix exponential `expm`: accuracy against high-precision
references, exact structure, row independence and non-finite rows."""

import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm_frechet

from localforms.expr import Dual
from localforms.expr.dual import expm

from conftest import ROOT

NORMS = (0.01, 0.3, 2.0, 7.0, 20.0, 50.0)  # 1-norms; above 5.37 s > 0


def _norm1(a):
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _with_norm(rng, n, norm):
    a = rng.standard_normal((n, n))
    return a * (norm / _norm1(a))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_matches_mpmath_at_40_digits(n):
    rng = np.random.default_rng(30 + n)
    stack = np.stack([_with_norm(rng, n, norm) for norm in NORMS])
    got = expm(stack)
    with mpmath.workdps(40):
        for a, value in zip(stack, got):
            want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(),
                            dtype=float)
            assert _norm1(value - want) <= 1e-13 * _norm1(want)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_block_derivative_matches_frechet(n):
    rng = np.random.default_rng(40 + n)
    for norm in NORMS:
        a = _with_norm(rng, n, norm)
        e = rng.standard_normal((n, n))
        value, want = expm_frechet(a, e)
        dual = Dual.matrix(a, e[None]).mexp()
        assert _norm1(dual.primal - value) <= 1e-12 * _norm1(value)
        assert _norm1(dual.tangent[0] - want) <= 1e-12 * _norm1(want)


def test_zero_matrix_gives_the_identity_exactly():
    for n in (1, 2, 5):
        assert np.array_equal(expm(np.zeros((3, n, n))),
                              np.broadcast_to(np.eye(n), (3, n, n)))


def test_strictly_upper_triangular_stays_upper_triangular():
    rng = np.random.default_rng(2)
    a = np.triu(rng.uniform(-4.0, 4.0, (6, 5, 5)), k=1)
    value = expm(a)
    assert np.all(np.tril(value, k=-1) == 0.0)
    assert np.all(np.diagonal(value, axis1=-2, axis2=-1) == 1.0)


def test_skew_symmetric_gives_orthogonal():
    rng = np.random.default_rng(3)
    b = rng.uniform(-1.0, 1.0, (8, 4, 4))
    q = expm(b - np.swapaxes(b, -1, -2))
    assert np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(4)).max() <= 1e-15


def test_rows_are_independent_across_scaling_powers():
    rng = np.random.default_rng(4)
    stack = np.stack([_with_norm(rng, 3, norm)
                      for norm in (0.2, 40.0, 3.0, 9.0, 0.0, 200.0)])
    got = expm(stack)
    for i, a in enumerate(stack):
        assert np.array_equal(got[i], expm(a))
        assert np.array_equal(got[i], expm(a[None])[0])
    assert np.array_equal(expm(stack.reshape(2, 3, 3, 3)),
                          got.reshape(2, 3, 3, 3))


def test_empty_stack():
    for shape in ((0, 3, 3), (2, 0, 2, 2)):
        got = expm(np.zeros(shape))
        assert got.shape == shape


def test_non_finite_and_overflowing_rows_stay_in_their_rows():
    rng = np.random.default_rng(5)
    stack = rng.uniform(-1.0, 1.0, (6, 2, 2))
    stack[1, 0, 1] = np.nan
    stack[2] = 1e308 * np.eye(2)  # finite 1-norm, the exponential overflows
    stack[4] = 1e308  # the 1-norm itself overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expm(stack)
    assert np.all(np.isnan(got[1])) and np.all(np.isnan(got[4]))
    assert not np.all(np.isfinite(got[2]))
    for i in (0, 3, 5):
        assert np.array_equal(got[i], expm(stack[i]))


def test_cli_import_loads_no_scipy():
    code = ("import sys, localforms.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout
    assert out.strip() == "[]"
