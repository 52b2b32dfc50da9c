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

`expm` is the package's one matrix exponential: Pade-13 scaling and squaring
(Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005) over a whole stack in a
few numpy passes, each matrix scaled by its own power of two.  Given
tangents, the same pass also gives the Frechet derivative along each of
them (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 30(4), 2009, Algorithm
6.4): the derivatives of the Pade numerator and denominator are built from
the same powers of the scaled matrix, one more solve with the denominator
takes every direction at once, and the squarings carry (r, dr) to
(r^2, r dr + dr r).  `mexp` makes that one call, with the value the same
bits as a call without tangents.

A domain violation at any sample raises DomainError carrying the batch index
of the first offending sample.
"""

from __future__ import annotations

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
        _domain(np.abs(np.linalg.det(self.primal)) <= DET_THRESHOLD,
                "inverse of a (near-)singular matrix")
        b = np.linalg.inv(self.primal)
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


def expm(a, e=None):
    """Matrix exponential of one square matrix or of a stack batch + (n, n),
    and with tangents e also its Frechet derivative along each of them.

    Every matrix gets its own scaling power s = max(0, ceil(log2(|A|_1 /
    theta13))); the Pade products of the whole stack are stacked matmuls,
    followed by one batched solve and s masked squarings per matrix, so each
    result depends only on its own matrix.  A matrix with a non-finite
    entry (or 1-norm) gives NaN; one whose exponential overflows gives a
    non-finite matrix.  Neither raises or warns.

    With e, the result is (exp(a), L) where L[i] = Dexp_a(e[i]) has the
    broadcast shape of e and a: a's batch axes line up with e's trailing
    ones (where e's are longer, a and its value are broadcast), and each
    leading slice e[i] is one direction.  The value is the same bits as
    without e.  A direction that is zero over the whole stack gets an
    exact-zero derivative and no work; a non-finite matrix gives NaN in its
    rows of every other direction."""
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
    dx = None
    if e is not None:
        e = np.broadcast_to(e, shape).reshape((-1,) + stack.shape)
        live = np.flatnonzero(e.any(axis=(1, 2, 3)))
    with np.errstate(all="ignore"):
        norms = np.abs(stack).sum(axis=-2).max(axis=-1)
        finite = np.isfinite(norms)
        mantissa, exponent = np.frexp(np.where(finite, norms, 0.0) / _THETA13)
        s = np.maximum(exponent - (mantissa == 0.5), 0)
        x = np.ldexp(np.where(finite[:, None, None], stack, 0.0),
                     -s[:, None, None])
        if e is not None and live.size:
            dx = np.ldexp(e[live], -s[:, None, None])
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
            if dx is not None:
                da = dr[:, active]
                dr[:, active] = ra @ da + da @ ra
            r[active] = ra @ ra
    r[~finite] = np.nan
    if e is None:
        return r.reshape(a.shape)
    deriv = np.zeros(e.shape)
    if dx is not None:
        dr[:, ~finite] = np.nan
        deriv[live] = dr
    return r.reshape(a.shape), deriv.reshape(shape)


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
