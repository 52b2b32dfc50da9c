"""The stacked matrix kernels: the exponential `expm` and its Frechet
derivative (accuracy against high-precision references, exact structure,
row independence, broadcasting and non-finite rows), and `det` and
`inverse`."""

import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm_frechet

from localforms.cli import main
from localforms.expr import Dual
from localforms.expr.dual import det, expm, inverse

from conftest import ROOT, fixture_path

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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_derivative_matches_frechet_at_every_scaling(n):
    rng = np.random.default_rng(50 + n)
    stack = np.stack([_with_norm(rng, n, norm) for norm in NORMS])
    e = rng.standard_normal((2,) + stack.shape)
    value, got = expm(stack, e)
    assert np.array_equal(value, expm(stack))
    for i, a in enumerate(stack):
        for k in range(2):
            want = expm_frechet(a, e[k, i], compute_expm=False)
            assert _norm1(got[k, i] - want) <= 1e-13 * _norm1(want)


def _commuting(rng, n, norm, scale):
    """A matrix of the given 1-norm and a direction that commutes with it:
    two multiples of one matrix, as every `mexp` of a scalar times a
    constant matrix gives."""
    m = rng.standard_normal((n, n))
    return m * (norm / _norm1(m)), m * scale


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_commuting_directions_match_frechet(n):
    rng = np.random.default_rng(60 + n)
    pairs = [_commuting(rng, n, norm, scale)
             for norm, scale in zip(NORMS, (1.0, -0.5, 3.0, 0.1, 2.0, -1.0))]
    stack = np.stack([a for a, _ in pairs])
    e = np.stack([np.stack([d for _, d in pairs]),
                  np.stack([-2.0 * d for _, d in pairs])])
    value, got = expm(stack, e)
    assert np.array_equal(value, expm(stack))
    for i, a in enumerate(stack):
        for k in range(2):
            want = expm_frechet(a, e[k, i], compute_expm=False)
            assert _norm1(got[k, i] - want) <= 1e-13 * _norm1(want)


def test_mixed_stacks_match_their_solo_calls():
    rng = np.random.default_rng(12)
    n = 3
    pairs = [_commuting(rng, n, norm, 1.5) for norm in NORMS]
    stack = np.stack([a for a, _ in pairs])
    commuting = np.stack([d for _, d in pairs])
    e = np.stack([commuting, commuting.copy(),
                  rng.standard_normal(stack.shape)])
    e[1, ::2] = rng.standard_normal((3, n, n))  # rows 0, 2, 4 do not commute
    stack[5, 0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, got = expm(stack, e)
    assert np.all(np.isnan(got[:, 5]))
    for i in range(5):
        for k in range(3):
            solo = expm(stack[i], e[k, i])
            assert np.array_equal(value[i], solo[0])
            assert np.array_equal(got[k, i], solo[1])
            want = expm_frechet(stack[i], e[k, i], compute_expm=False)
            assert _norm1(got[k, i] - want) <= 1e-13 * _norm1(want)


def test_zero_direction_is_exactly_zero():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 3, 3))
    e = rng.standard_normal((3, 4, 3, 3))
    e[1] = 0.0
    value, got = expm(a, e)
    assert np.all(got[1] == 0.0)
    for k in (0, 2):
        assert np.array_equal(got[k], expm(a, e[k:k + 1])[1][0])
    # with no live direction, at 3x3 and at 2x2, the value keeps its bits
    for b in (a, a[:, :2, :2]):
        value, got = expm(b, np.zeros((2, 1) + b.shape[-2:]))
        assert np.array_equal(value, expm(b)) and not np.any(got)


def test_tangent_broadcasts_against_the_stack():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 3, 3))
    one = rng.standard_normal((2, 1, 3, 3))
    value, got = expm(a, one)
    assert got.shape == (2, 5, 3, 3)
    assert np.array_equal(got, expm(a, np.broadcast_to(one, got.shape))[1])
    # extra leading direction axes
    many = rng.standard_normal((2, 3, 5, 3, 3))
    value, got = expm(a, many)
    assert np.array_equal(value, expm(a)) and got.shape == many.shape
    assert np.array_equal(got[1], expm(a, many[1])[1])
    # a tangent batch larger than the matrices': the matrix is broadcast
    value, got = expm(a[:1], many)
    assert got.shape == many.shape
    assert np.array_equal(value, expm(np.broadcast_to(a[:1], (5, 3, 3))))
    for i in range(5):
        assert np.array_equal(got[:, :, i], expm(a[0], many[:, :, i])[1])


def test_value_is_bit_identical_with_tangents():
    rng = np.random.default_rng(8)
    for shape in ((3, 3), (1, 2, 2), (6, 4, 4), (2, 3, 5, 5)):
        a = rng.standard_normal(shape) * 10.0
        e = rng.standard_normal((2,) + shape)
        assert np.array_equal(expm(a, e)[0], expm(a))


def test_derivative_rows_are_independent_across_scaling_powers():
    rng = np.random.default_rng(9)
    stack = np.stack([_with_norm(rng, 3, norm)
                      for norm in (0.2, 40.0, 3.0, 9.0, 0.0, 200.0)])
    e = rng.standard_normal((2,) + stack.shape)
    value, got = expm(stack, e)
    for i, a in enumerate(stack):
        single = expm(a, e[:, i])
        assert np.array_equal(value[i], single[0])
        assert np.array_equal(got[:, i], single[1])


def test_non_finite_rows_stay_in_their_derivative_rows():
    rng = np.random.default_rng(10)
    stack = rng.uniform(-1.0, 1.0, (6, 2, 2))
    stack[1, 0, 1] = np.nan
    stack[2] = 1e308 * np.eye(2)
    e = rng.standard_normal((2, 6, 2, 2))
    e[1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, got = expm(stack, e)
    assert np.all(np.isnan(value[1])) and np.all(np.isnan(got[0, 1]))
    assert not np.all(np.isfinite(got[0, 2]))
    assert np.all(got[1] == 0.0)
    for i in (0, 3, 4, 5):
        assert np.array_equal(got[0, i], expm(stack[i], e[0, i])[1])


def test_non_finite_tangent_leaves_the_value():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 3, 3))
    e = rng.standard_normal((2, 4, 3, 3))
    e[0, 2, 1, 1] = np.nan
    e[1, 3, 0, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, got = expm(a, e)
    assert np.array_equal(value, expm(a))
    assert not np.all(np.isfinite(got[0, 2]))
    assert not np.all(np.isfinite(got[1, 3]))
    assert np.all(np.isfinite(got[0, [0, 1, 3]]))


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
        value, deriv = expm(np.zeros(shape), np.zeros((3,) + shape))
        assert value.shape == shape and deriv.shape == (3,) + shape
    value, deriv = expm(np.eye(2)[None], np.zeros((0, 1, 2, 2)))
    assert np.array_equal(value, expm(np.eye(2)[None]))
    assert deriv.shape == (0, 1, 2, 2)


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


def _exp2_mpmath(a):
    """exp of one 2x2 matrix at 60 digits from its eigenvalues mu +- delta:
    e^mu (cosh(delta) I + sinh(delta)/delta (A - mu I)), exact for any
    entries, where mpmath.expm would need hundreds of squarings."""
    with mpmath.workdps(60):
        p, b, c, q = (mpmath.mpf(float(v)) for v in np.ravel(a))
        mu, h = (p + q) / 2, (p - q) / 2
        delta = mpmath.sqrt(mpmath.mpc(h * h + b * c))
        g = mpmath.sinh(delta) / delta if delta else mpmath.mpf(1)
        ch, scale = mpmath.cosh(delta), mpmath.exp(mu)
        rows = [[ch + g * h, g * b], [g * c, ch - g * h]]
        return np.array([[float(mpmath.re(scale * v)) for v in row]
                         for row in rows])


def test_closed_form_reference_matches_mpmath_expm():
    rng = np.random.default_rng(13)
    for norm in NORMS:
        a = _with_norm(rng, 2, norm)
        with mpmath.workdps(40):
            want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(),
                            dtype=float)
        assert _norm1(_exp2_mpmath(a) - want) <= 1e-15 * _norm1(want)


_J = np.array([[0.0, -1.0], [1.0, 0.0]])
HARD_2X2 = {
    # eigenvalue gaps e^-k, on the diagonal and from the off-diagonal product
    **{f"gap-diag-{k}": [[0.0, 1.0], [0.0, np.exp(-k)]]
       for k in (1, 10, 36, 100, 700)},
    **{f"gap-offdiag-{k}": [[0.0, 1.0], [np.exp(-k), 0.0]]
       for k in (2, 20, 72, 200, 700)},
    "diagonal-1e200": [[-1e200, 0.0], [0.0, 0.0]],
    "nearly-defective": [[1e-8, 1e8], [0.0, -1e-8]],
    "non-normal-imaginary": [[0.5, 1e6], [-1e-12, 0.5]],
    "non-normal-real": [[-3.0, 1e4], [1e-4, -3.0]],
    "rotation-1e5": 1e5 * _J,
    "rotation-1.7e19": 1.7e19 * _J,
    # h^2 and a01 a10 overflow unscaled
    "rotation-1e160": 1e160 * _J,
    "triangular-1e160": [[0.0, 1e160], [0.0, -2e160]],
    "nilpotent-1e160": [[1e160, 1e160], [-1e160, -1e160]],
    # mu + w rounds the smaller eigenvalue 1 away
    "small-eigenvalue-1e20": [[-1e20, 0.0], [0.0, 1.0]],
    # e^mu underflows ahead of the huge entry
    "underflow-1e300": [[-800.0, 1e300], [0.0, -800.0]],
    "underflow-1e150-real-w": [[-800.0, 1e150], [0.0, -810.0]],
    # terms of h^2 + a01 a10 hundreds of orders of magnitude below a01
    "triangular-1e200": [[0.0, 1e200], [0.0, 1.0]],
    "product-1": [[0.0, 1e300], [1e-300, 0.0]],
}


@pytest.mark.parametrize("a", HARD_2X2.values(), ids=HARD_2X2.keys())
def test_2x2_matches_mpmath_at_60_digits(a):
    a = np.array(a)
    want = _exp2_mpmath(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expm(a)
    assert _norm1(got - want) <= 1e-13 * _norm1(want)


def _frechet_mpmath(a, e):
    """Dexp_a(e) at 60 digits: the top-right block of exp([[a, e], [0, a]])
    (Higham, Functions of Matrices, SIAM 2008, ch. 3).  mpmath.expm raises
    its working precision by two bits per squaring, so huge entries stay
    exact."""
    a, e = np.asarray(a, dtype=float), np.asarray(e, dtype=float)
    n = len(a)
    with mpmath.workdps(60):
        block = mpmath.zeros(2 * n)
        for i in range(n):
            for j in range(n):
                block[i, j] = block[n + i, n + j] = mpmath.mpf(a[i, j])
                block[i, n + j] = mpmath.mpf(e[i, j])
        x = mpmath.expm(block)
        return np.array([[float(x[i, n + j]) for j in range(n)]
                         for i in range(n)])


def test_block_reference_matches_frechet():
    rng = np.random.default_rng(15)
    for norm in NORMS[:4]:
        a, e = _with_norm(rng, 2, norm), rng.standard_normal((2, 2))
        want = expm_frechet(a, e, compute_expm=False)
        assert _norm1(_frechet_mpmath(a, e) - want) <= 1e-14 * _norm1(want)


def _near_commuting(ratio):
    """A 3x3 matrix a and e = diag(1, 2, 4) whose commutator has the 1-norm
    ratio * 4 n u |a|_1 |e|_1 exactly (u the unit roundoff): a pair that
    commutes to within rounding, or just beyond it."""
    a = np.diag([0.3, -0.7, 1.1])
    a[0, 1] = ratio * 4 * 3 * 2.0 ** -53 * _norm1(a) * 4.0
    return a, np.diag([1.0, 2.0, 4.0])


_E = [[0.3, -1.2], [0.7, 0.5]]
_M = np.array([[0.3, 1.0], [2.0, -0.5]])
HARD_FRECHET = {
    # z = h^2 + a01 a10 on both sides of +-1, where the series hands over
    **{f"z={z!r}": ([[0.3, 1.0], [z, 0.3]], _E)
       for z in (1.0 - 2.0 ** -30, 1.0, 1.0 + 2.0 ** -30,
                 -1.0 + 2.0 ** -30, -1.0, -1.0 - 2.0 ** -30)},
    "z=0-scalar": ([[0.5, 0.0], [0.0, 0.5]], _E),
    "z=0-nilpotent": ([[2.0, -4.0], [1.0, -2.0]], _E),
    "z=0-triangular": ([[-1.5, 3.0], [0.0, -1.5]], _E),
    "large-real-w": ([[30.0, 1.0], [1.0, -30.0]], _E),
    "large-real-w-shifted": ([[-200.0, 7.0], [3.0, 150.0]], _E),
    # directions that commute with the matrix, exactly or nearly
    "commuting": (_M, 2.0 * _M),
    "nearly-commuting-1e-15": (_M, 2.0 * _M + [[0.0, 1e-15], [0.0, 0.0]]),
    "nearly-commuting-1e-8": (_M, 2.0 * _M + [[0.0, 1e-8], [0.0, 0.0]]),
    "nearly-commuting-rotation": (3.0 * _J, -_J + [[1e-12, 0.0], [0.0, 0.0]]),
    **{f"near-bound-3x3-{ratio}": _near_commuting(ratio)
       for ratio in (0.95, 1.05)},
    "rotation-1e160": (1e160 * _J, _E),
    "triangular-1e160": ([[0.0, 1e160], [0.0, -2e160]], _E),
    "small-eigenvalue-1e20": ([[-1e20, 0.0], [0.0, 1.0]], _E),
    "underflow-1e300": ([[-800.0, 1e300], [0.0, -800.0]], _E),
    "underflow-1e150-real-w": ([[-800.0, 1e150], [0.0, -810.0]], _E),
    "triangular-1e200": ([[0.0, 1e200], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.5]]),
    "product-1": ([[0.0, 1e300], [1e-300, 0.0]], [[0.0, 1.0], [0.0, 0.0]]),
    # dz = e01 a10 + a01 e10 overflows, while L stays finite
    "rotation-1e200-direction-1e200": (1e200 * _J, [[0.0, 1e200], [0.0, 0.0]]),
    "rotation-1e200-direction-1e200-transposed": (
        1e200 * _J, [[0.0, 0.0], [1e200, 0.0]]),
    # dmu = tr E / 2, or dmu exp(A) + g E, overflows while L stays finite
    "zero-direction-1e308": (np.zeros((2, 2)), 1e308 * np.eye(2)),
    "zero-direction-diagonal-1.5e308": (np.zeros((2, 2)),
                                        np.diag([1.5e308, 1e307])),
    "minus-identity-direction-1e308": (-np.eye(2), 1e308 * np.eye(2)),
    "nilpotent-direction-1e308": ([[0.0, 1.0], [0.0, 0.0]],
                                  1e308 * np.eye(2)),
}


@pytest.mark.parametrize("a, e", HARD_FRECHET.values(),
                         ids=HARD_FRECHET.keys())
def test_derivative_matches_mpmath_at_60_digits(a, e):
    a, e = np.array(a), np.array(e)
    want = _frechet_mpmath(a, e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, got = expm(a, e[None])
    assert np.array_equal(value, expm(a))
    # both sides scaled by a power of two, so that the norms cannot overflow
    k = -np.frexp(np.abs(want).max())[1]
    assert _norm1(np.ldexp(got[0] - want, k)) <= 1e-13 * _norm1(
        np.ldexp(want, k))


def test_2x2_jets_never_reach_the_pade_pass(monkeypatch, tmp_path):
    import localforms.expr.dual as dual

    def refuse(*args):
        raise AssertionError("the Pade pass ran")

    monkeypatch.setattr(dual, "_pade", refuse)
    rng = np.random.default_rng(16)
    hard = [a for a, _ in HARD_FRECHET.values() if len(a) == 2]
    stack = np.concatenate([rng.standard_normal((6, 2, 2)), hard])
    stack[1, 0, 1] = np.nan
    e = np.stack([rng.standard_normal(stack.shape), 2.0 * stack,
                  np.zeros(stack.shape)])
    value, got = expm(stack, e)
    assert np.all(np.isnan(got[:2, 1])) and np.all(got[2] == 0.0)
    # each row, whichever branch of the closed form it takes, is its own
    for i in range(len(stack)):
        solo = expm(stack[i], e[:, i])
        assert np.array_equal(value[i], solo[0], equal_nan=True)
        assert np.array_equal(got[:, i], solo[1], equal_nan=True)
    # every bundle fixture has a 2x2 group: its checks run without Pade
    for argv in (["verify", fixture_path("monopole_k1.json")],
                 ["push", fixture_path("monopole_k1.json"),
                  fixture_path("morphism_gauge.json")]):
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    with pytest.raises(AssertionError, match="Pade"):
        expm(np.zeros((1, 3, 3)), np.ones((1, 1, 3, 3)))


@pytest.mark.parametrize("entry", [1e308, 1e300])
def test_2x2_overflow_is_not_finite(entry):
    # the true exponential overflows; scaling by the 1-norm alone once lost
    # the small entries and returned a finite matrix
    a = np.array([[0.3, 0.1], [entry, 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expm(a)
    assert not np.all(np.isfinite(got))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_and_inverse_match_lapack(n):
    rng = np.random.default_rng(70 + n)
    stack = rng.standard_normal((5, n, n)) + 3.0 * np.eye(n)
    assert np.allclose(det(stack), np.linalg.det(stack), rtol=1e-14, atol=0)
    assert np.allclose(inverse(stack), np.linalg.inv(stack), rtol=1e-13,
                       atol=1e-15)
    assert np.allclose(inverse(stack[0]), np.linalg.inv(stack[0]),
                       rtol=1e-13, atol=1e-15)


def test_2x2_det_and_inverse_are_the_adjugate():
    a = np.array([[[3.0, 5.0], [7.0, 11.0]], [[2.0, -1.0], [4.0, 0.5]]])
    assert np.array_equal(det(a), [3.0 * 11.0 - 5.0 * 7.0, 2.0 * 0.5 + 4.0])
    assert np.array_equal(inverse(a)[0], np.array([[11.0, -5.0],
                                                   [-7.0, 3.0]]) / -2.0)
    assert np.array_equal(inverse(a)[1], np.array([[0.5, 1.0],
                                                   [-4.0, 2.0]]) / 5.0)
