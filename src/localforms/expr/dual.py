"""Forward-mode dual values over a batch of sample points.

A Dual carries a primal value together with one tangent.  The primal has
shape `batch + value_shape`, where the value shape is () for a scalar and
(n, m) for a matrix; the tangent has shape `dirs + value_shape`, where
`dirs` lines up with the primal's batch at the trailing end, as numpy
broadcasting aligns shapes: extra leading axes carry several directions
at once (for example one per coordinate), and any axis of either may have
length 1.  The tangent is None when it is identically zero (constants,
and every value of an evaluation without seeds).

Shapes are not checked here: `nodes.infer_shape` checks every tree once,
when its `ExprAST` is built, so the operations below only compute.  All
arithmetic propagates tangents by the exact product and chain rules,
never by finite differences.

`expm` is the package's one matrix exponential, over a whole stack in a few
numpy passes: the closed form c I + g (A - mu I) at 2x2 (Moler & Van Loan,
SIAM Rev. 45(1), 2003), exact up to rounding in exp, cosh and sin, and
Pade-13 scaling and squaring otherwise (Higham, SIAM J. Matrix Anal. Appl.
26(4), 2005).  Its Frechet derivative takes one path per size: at 2x2 the
exact derivative of the closed form (Higham, Functions of Matrices, SIAM
2008, ch. 10), otherwise the Pade pass's own (Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 30(4), 2009, Algorithm 6.4).  `mexp` makes that one
call.  `det` and `inverse` are ad - bc and the adjugate at 2x2, LAPACK
otherwise, the package's only ones.

A domain violation at any sample raises DomainError carrying the batch index
of the first offending sample.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, ShapeError

# |det| at or below which a matrix is treated as singular
DET_THRESHOLD = 1e-10


class Dual:
    __slots__ = ("primal", "tangent", "is_matrix")

    def __init__(self, primal, tangent=None, is_matrix=False):
        self.primal = primal
        self.tangent = tangent
        self.is_matrix = is_matrix

    @classmethod
    def matrix(cls, value, tangent=None):
        """A matrix or a stack of them; the caller's tangent is checked."""
        value = np.asarray(value, dtype=float)
        if tangent is not None:
            tangent = np.asarray(tangent, dtype=float)
            if tangent.shape[-2:] != value.shape[-2:]:
                raise ShapeError("matrix tangent shape does not match primal")
        return cls(value, tangent, True)

    # ----- arithmetic -------------------------------------------------

    def __add__(self, other):
        return Dual(self.primal + other.primal,
                    _sum(self.tangent, other.tangent), self.is_matrix)

    def __sub__(self, other):
        return Dual(self.primal - other.primal,
                    _sum(self.tangent, _neg(other.tangent)), self.is_matrix)

    def __neg__(self):
        return Dual(-self.primal, _neg(self.tangent), self.is_matrix)

    def __mul__(self, other):
        a, b = self, other
        if a.is_matrix and not b.is_matrix:
            a, b = b, a
        if not a.is_matrix and not b.is_matrix:
            return Dual(a.primal * b.primal,
                        _sum(_mul(a.tangent, b.primal),
                             _mul(b.tangent, a.primal)))
        if not a.is_matrix:
            return Dual(_lift(a.primal) * b.primal,
                        _sum(_mul(_lift(a.tangent), b.primal),
                             _mul(b.tangent, _lift(a.primal))),
                        True)
        return Dual(a.primal @ b.primal,
                    _sum(_matmul(a.tangent, b.primal),
                         _matmul(a.primal, b.tangent)), True)

    def __truediv__(self, other):
        _domain(other.primal == 0.0, "division by zero")
        inv = 1.0 / other.primal
        if not self.is_matrix:
            tangent = None
            if self.tangent is not None or other.tangent is not None:
                tangent = _sum(_mul(self.tangent, other.primal),
                               _neg(_mul(other.tangent, self.primal))) \
                    * inv * inv
            return Dual(self.primal * inv, tangent)
        inv = _lift(inv)
        quotient = _mul(_lift(other.tangent), self.primal)
        if quotient is not None:
            quotient = quotient * inv * inv
        return Dual(self.primal * inv,
                    _sum(_mul(self.tangent, inv), _neg(quotient)), True)

    def powi(self, exponent):
        """Integer power of a scalar."""
        p = self.primal
        if exponent == 0:
            return Dual(np.ones_like(p))
        if exponent == 1:
            return self
        if exponent < 0:
            _domain(p == 0.0, "zero raised to a negative power")
        value = np.power(p, float(exponent))
        if self.tangent is None:
            return Dual(value)
        deriv = exponent * np.power(p, float(exponent - 1))
        return Dual(value, deriv * self.tangent)

    # ----- scalar functions -------------------------------------------

    def _map(self, fn, chain):
        """fn applied to a scalar; chain(primal, value, tangent) gives the
        new tangent."""
        value = fn(self.primal)
        if self.tangent is None:
            return Dual(value)
        return Dual(value, chain(self.primal, value, self.tangent))

    def sin(self):
        return self._map(np.sin, lambda p, _, t: np.cos(p) * t)

    def cos(self):
        return self._map(np.cos, lambda p, _, t: -np.sin(p) * t)

    def tan(self):
        return self._map(np.tan, lambda p, _, t: 1.0 / np.cos(p) ** 2 * t)

    def exp(self):
        return self._map(np.exp, lambda _, value, t: value * t)

    def log(self):
        _domain(self.primal <= 0.0, "log of a non-positive number")
        return self._map(np.log, lambda p, _, t: t / p)

    def sqrt(self):
        _domain(self.primal < 0.0, "sqrt of a negative number")
        _domain(self.primal == 0.0, "sqrt differentiated at zero")
        return self._map(np.sqrt, lambda _, root, t: t / (2.0 * root))

    @staticmethod
    def atan2(y, x):
        denom = y.primal * y.primal + x.primal * x.primal
        _domain(denom == 0.0, "atan2 at the origin")
        value = np.arctan2(y.primal, x.primal)
        if y.tangent is None and x.tangent is None:
            return Dual(value)
        deriv = _sum(_mul(y.tangent, x.primal),
                     _neg(_mul(x.tangent, y.primal))) / denom
        return Dual(value, deriv)

    # ----- matrix functions -------------------------------------------

    def transpose(self):
        tangent = (None if self.tangent is None
                   else np.swapaxes(self.tangent, -1, -2))
        return Dual(np.swapaxes(self.primal, -1, -2), tangent, True)

    def mexp(self):
        if self.tangent is None:
            return Dual(expm(self.primal), None, True)
        return Dual(*expm(self.primal, self.tangent), True)

    def inv(self):
        _domain(np.abs(det(self.primal)) <= DET_THRESHOLD,
                "inverse of a (near-)singular matrix")
        b = inverse(self.primal)
        tangent = None if self.tangent is None else -b @ self.tangent @ b
        return Dual(b, tangent, True)


# Pade-13 numerator coefficients, divided by the first so that the constant
# term is exactly 1 (exp(0) = I exactly), and the 1-norm up to which the
# degree-13 approximant is accurate to double precision without scaling.
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152
_TINY = np.finfo(float).tiny
_LN2 = np.log(2.0)
# S'(z) = sum_{j>=1} j z^(j-1) / (2j+1)! for S(z) = sinh(sqrt z) / sqrt z,
# highest power first; 11 terms reach the unit roundoff at |z| = 1
_DS = tuple(j / math.factorial(2 * j + 1) for j in range(11, 0, -1))


def expm(a, e=None):
    """Matrix exponential of one square matrix or of a stack batch + (n, n),
    and with tangents e also its Frechet derivative along each of them.

    A 2x2 matrix takes `_expm2`, any other `_pade`, each matrix scaled by its
    own power of two, so each result depends only on its own matrix.  A
    matrix with a non-finite entry (or 1-norm) gives NaN; one whose
    exponential overflows gives a non-finite matrix.  Neither raises or warns.

    With e, the result is (exp(a), L) where L[i] = Dexp_a(e[i]) has the
    broadcast shape of e and a: a's batch axes line up with e's trailing
    ones (where e's are longer, a and its value are broadcast), and each
    leading slice e[i] is one direction.  L is exact up to rounding: the
    closed form's own derivative at 2x2, the Pade pass's otherwise, and the
    value is the same bits as without e.  A direction that is zero over the
    whole stack gets an exact-zero derivative and no work; a non-finite
    matrix gives NaN in its rows of every other direction."""
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    if e is not None:
        e = np.asarray(e, dtype=float)
        shape = np.broadcast_shapes(e.shape, a.shape)
        a = np.broadcast_to(a, shape[len(shape) - a.ndim:])
    if a.size == 0:
        return np.zeros(a.shape) if e is None else (np.zeros(a.shape),
                                                    np.zeros(shape))
    stack = a.reshape((-1, n, n))
    e_live = None
    with np.errstate(all="ignore"):
        norms = _norm1(stack)
        finite = np.isfinite(norms)
        if e is not None:
            e = np.broadcast_to(e, shape).reshape((-1,) + stack.shape)
            live = np.flatnonzero(e.any(axis=(1, 2, 3)))
            e_live = e[live] if live.size else None
        r, dr = (_expm2(stack, e_live) if n == 2
                 else _pade(stack, norms, finite, e_live))
        r[~finite] = np.nan
        if e is None:
            return r.reshape(a.shape)
        deriv = np.zeros(e.shape)
        if dr is not None:
            dr[:, ~finite] = np.nan
            deriv[live] = dr
    return r.reshape(a.shape), deriv.reshape(shape)


def _norm1(x):
    """1-norms of the matrices of x; at 2x2 by the same sums, without a
    numpy reduction, which is slow over short axes."""
    if x.shape[-1] != 2:
        return np.abs(x).sum(axis=-2).max(axis=-1)
    x = np.abs(x)
    return np.maximum(x[..., 0, 0] + x[..., 1, 0], x[..., 0, 1] + x[..., 1, 1])


def _expm2(a, e=None):
    """(exp, None) of every matrix of an (m, 2, 2) stack, or (exp, Frechet
    derivatives) along each direction of e (k, m, 2, 2).  With mu = tr/2,
    h = (a00 - a11)/2 and B = A - mu I, B^2 = z I with z = h^2 + a01 a10, so
    exp(A) = c I + g B, c = e^mu C(z) and g = e^mu S(z), C = cosh(sqrt z)
    and S = sinh(sqrt z)/sqrt z (cos and sin of w = |sqrt z| if z < 0).
    Along E, with dmu = tr E/2 and dz = (e00 - e11) h + e01 a10 + a01 e10,
    C' = S/2 gives L = dmu exp(A) + dz (g/2 I + e^mu S'(z) B) + g (E - dmu I),
    where S'(z) = (C - S)/(2z), or its series below |z| = 1."""
    a00, a01, a10, a11 = a.reshape(-1, 4).T
    mu, h = (a00 + a11) * 0.5, (a00 - a11) * 0.5
    # z = 2^2kz d2; where h^2 + a01 a10 overflows, its two terms scaled from
    # their exponents, so that neither overflows nor underflows beside the
    # other; w at least the smallest normal double, where sin(w)/w =
    # sinh(w)/w = 1 exactly, as at w = 0
    d2, kz = h * h + a01 * a10, 0
    if not np.isfinite(d2).all():
        (fh, f01, f10), (xh, x01, x10) = np.frexp([h, a01, a10])
        kz = np.maximum(xh, (x01 + x10 + 1) // 2)
        d2 = (np.ldexp(fh, xh - kz) ** 2
              + np.ldexp(f01 * f10, x01 + x10 - 2 * kz))
    w = np.maximum(np.ldexp(np.sqrt(np.abs(d2)), kz), _TINY)
    real = d2 >= 0.0
    # beyond w = 1, e^(mu +- w) apart, so that no finite result overflows;
    # the eigenvalue smaller in magnitude as det over the larger (Vieta)
    # where det is finite, since mu -+ w rounds it away where the two differ
    # by more than 2^53
    lam = np.array([mu, mu])
    big = np.flatnonzero(real & (w > 1.0))
    if big.size:
        mb, wb = mu[big], np.copysign(w[big], mu[big])
        small = (a00 * a11 - a01 * a10)[big] / (mb + wb)
        small = np.where(np.isfinite(small), small, mb - wb)
        lam[:, big] = np.maximum(mb + wb, small), np.minimum(mb + wb, small)
    # e^lam as 2^p e^(lam - p ln 2), ldexp last, where it leaves the normal
    # range, so that it cannot overflow or underflow ahead of an entry
    p = 0
    far = np.abs(lam[0]) > 708.0
    if far.any():
        p = np.clip(np.where(far, np.ceil(lam[0] / _LN2), 0.0), -2200, 2200)
        lam = lam - p * _LN2
        p = p.astype(np.int32)[:, None]
    scale = np.exp(lam)
    c = scale[0] * np.where(real, np.cosh(w), np.cos(w))
    g = scale[0] * (np.where(real, np.sinh(w), np.sin(w)) / w)
    if big.size:
        up, down = scale[:, big]
        c[big], g[big] = (up + down) * 0.5, (up - down) / (2.0 * w[big])
    gh = g * h
    v = np.stack([c + gh, g * a01, g * a10, c - gh], axis=-1)
    r = np.ldexp(v, p).reshape(a.shape)
    if e is None:
        return r, None
    e = e.reshape(e.shape[:2] + (4,))
    k = np.frexp(np.abs([h, a01, a10]).max(axis=0))[1]
    # e^mu S'(z) dz B = q dz 2^-k B, times 2^(k - 2kz) from |z| = 1 on, where
    # q = (c - g) / (2^(1 - 2kz) z), and times 2^k below, where q = e^mu S'(z)
    q = np.where(w < 1.0, scale[0] * np.polyval(_DS, np.ldexp(d2, 2 * kz)),
                 (c - g) / (2.0 * d2))
    b = np.ldexp(np.array([h, a01, a10, -h]), -k).T
    kb = np.where(w < 1.0, k, k - 2 * kz)[:, None]

    def frechet(e, p):
        dz = (e[..., 0] - e[..., 3]) * h + e[..., 1] * a10 + a01 * e[..., 2]
        dmu = (e[..., 0] + e[..., 3]) * 0.5
        dr = dmu[..., None] * v + g[:, None] * e
        dr[..., ::3] += ((dz * 0.5 - dmu) * g)[..., None]  # the diagonal
        return np.ldexp(dr, p) + np.ldexp((q * dz)[..., None] * b, p + kb)

    dr = frechet(e, p)
    if not np.isfinite(dr).all():
        # L is linear in E: a direction whose dz, dmu or terms overflow is
        # scaled by 2^-s (each term then below 2^1020, as |g| <= 2|v|), and
        # the last ldexp undoes it; a row whose L overflows stays non-finite
        ke = np.frexp(np.abs(e).max(axis=-1))[1]
        kv = np.frexp(np.abs(v).max(axis=-1))[1]
        s = np.where(np.isfinite(dr).all(axis=-1), 0, np.maximum(
            ke + np.maximum(k, 0) + np.maximum(kv, 0) - 1016, 0))
        p = p + s[..., None]
        dr = frechet(np.ldexp(e, -s[..., None]), p)
    return r, dr.reshape(e.shape[:2] + (2, 2))


def _pade(stack, norms, finite, e=None):
    """(exp, None) of an (m, n, n) stack with 1-norms `norms` (a matrix
    whose norm is not finite is left as I), or (exp, Frechet derivatives)
    along each direction of e (k, m, n, n): the same Pade powers, one more
    solve, and squarings that carry (r, dr) to (r^2, r dr + dr r)."""
    n = stack.shape[-1]
    mantissa, exponent = np.frexp(np.where(finite, norms, 0.0) / _THETA13)
    s = np.maximum(exponent - (mantissa == 0.5), 0)
    x = np.ldexp(np.where(finite[:, None, None], stack, 0.0),
                 -s[:, None, None])
    dx = dr = None if e is None else np.ldexp(e, -s[:, None, None])
    b = _PADE13
    eye = np.eye(n)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    w1 = b[13] * x6 + b[11] * x4 + b[9] * x2
    w = x6 @ w1 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye
    u = x @ w
    z1 = b[12] * x6 + b[10] * x4 + b[8] * x2
    v = x6 @ z1 + b[6] * x6 + b[4] * x4 + b[2] * x2 + eye
    q = v - u
    r = np.linalg.solve(q, v + u)
    if dx is not None:
        dx2 = x @ dx + dx @ x
        dx4 = x2 @ dx2 + dx2 @ x2
        dx6 = x4 @ dx2 + dx4 @ x2
        dw = (x6 @ (b[13] * dx6 + b[11] * dx4 + b[9] * dx2) + dx6 @ w1
              + b[7] * dx6 + b[5] * dx4 + b[3] * dx2)
        du = x @ dw + dx @ w
        dv = (x6 @ (b[12] * dx6 + b[10] * dx4 + b[8] * dx2) + dx6 @ z1
              + b[6] * dx6 + b[4] * dx4 + b[2] * dx2)
        # (V - U) r = V + U, differentiated; the directions are columns
        rhs = (dv + du) - (dv - du) @ r
        dirs, m = rhs.shape[:2]
        dr = np.linalg.solve(q, rhs.transpose(1, 2, 0, 3).reshape(
            m, n, dirs * n)).reshape(m, n, dirs, n).transpose(2, 0, 1, 3)
    for k in range(int(s.max())):
        active = s > k
        ra = r[active]
        if dr is not None:
            da = dr[:, active]
            dr[:, active] = ra @ da + da @ ra
        r[active] = ra @ ra
    return r, dr


def det(a):
    """Determinant of a matrix or of every matrix in a stack: ad - bc for
    2x2, LAPACK otherwise."""
    if a.shape[-1] != 2:
        return np.linalg.det(a)
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def inverse(a):
    """Inverse of a matrix or of every matrix in a stack, which the caller
    has checked by `det`: the adjugate over det for 2x2, LAPACK otherwise."""
    if a.shape[-1] != 2:
        return np.linalg.inv(a)
    d = det(a)
    out = np.empty(a.shape)
    out[..., 0, 0], out[..., 1, 1] = a[..., 1, 1] / d, a[..., 0, 0] / d
    out[..., 0, 1], out[..., 1, 0] = a[..., 0, 1] / -d, a[..., 1, 0] / -d
    return out


def _domain(bad, message):
    """Raise DomainError at the first sample where `bad` holds."""
    if np.any(bad):
        bad = np.asarray(bad)
        raise DomainError(message, np.unravel_index(np.argmax(bad), bad.shape))


def _lift(scalar):
    """A batch of scalars, or their tangent, as a batch of 1x1 factors of
    matrices; None stays None."""
    return None if scalar is None else scalar[..., None, None]


def _sum(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _neg(tangent):
    return None if tangent is None else -tangent


def _mul(tangent, factor):
    return None if tangent is None else tangent * factor


def _matmul(a, b):
    if a is None or b is None:
        return None
    return a @ b
