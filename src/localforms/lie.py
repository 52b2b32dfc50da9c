"""Matrix Lie group operations.

Groups are closed subgroups of GL(n, R); elements are plain (n, n) float
arrays.  The module provides the adjoint action, the exponential, the left
logarithmic differential of group-valued maps, and group morphisms together
with their induced Lie-algebra morphisms (computed by dual-number
differentiation at the identity, never by finite differences).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GroupMismatchError, SingularMatrixError
from .expr import Bind, Dual, ExprAST, dual
from .expr.dual import DET_THRESHOLD, expm


def ensure_invertible(g, what="matrix"):
    """Return g (one matrix or a stack) as floats, raising if any |det g|
    falls below the threshold; `what` names g in the message."""
    g = np.asarray(g, dtype=float)
    dets = np.abs(dual.det(g))
    bad = dets <= DET_THRESHOLD
    if np.any(bad):
        first = np.ravel(dets)[np.argmax(np.ravel(bad))]
        raise SingularMatrixError(
            f"{what} with |det| = {first:.3e} treated as singular")
    return g


def inverse(g):
    """Inverse of a matrix or of every matrix in a stack."""
    return dual.inverse(ensure_invertible(g))


def adjoint(g, X):
    """Ad(g)X = g X g^-1, broadcast over stacks of g and X."""
    return np.asarray(g, dtype=float) @ np.asarray(X, dtype=float) @ inverse(g)


# The exponential of a matrix or a stack under its Lie-group name, for
# callers outside the package; inside it, call `expm`.
exp_matrix = expm


@dataclass(frozen=True)
class GroupSpec:
    """Declaration of a matrix group: name, size, optional generator basis
    (a (k, n, n) array, or k (n, n) matrices)."""

    name: str
    n: int
    generators: Optional[np.ndarray] = None

    def sample_algebra(self, rng, shape=()):
        """Random algebra elements, shape + (n, n), drawn by one rng call:
        coefficients of the generators, else entries, uniform in [-1, 1)."""
        shape = tuple(shape)
        if self.generators is not None:
            coeffs = rng.uniform(-1.0, 1.0, shape + (len(self.generators),))
            return np.tensordot(coeffs, np.asarray(self.generators), axes=1)
        return rng.uniform(-1.0, 1.0, shape + (self.n, self.n))

    def sample_group(self, rng, shape=()):
        return expm(self.sample_algebra(rng, shape))


# ----- group-valued maps on a chart -----------------------------------


class GroupMap:
    """A smooth map from chart coordinates into a matrix group.

    Subclasses provide value(x) -> matrices and jet(x, v) -> the value
    together with the raw directional derivative of the matrix entries,
    from one evaluation.  `x` is one point (d,) or a stack batch + (d,); `v`
    has shape dirs + (d,) with dirs broadcastable against the batch (for
    example (d, 1, d) for every coordinate direction at every point), and
    the derivative has shape broadcast + (n, n).
    """


def batch_shape(x, v=None):
    """Broadcast batch shape of points x and directions v."""
    x_batch = np.shape(x)[:-1]
    return x_batch if v is None else np.broadcast_shapes(
        x_batch, np.shape(v)[:-1])


@dataclass(frozen=True)
class ExprGroupMap(GroupMap):
    chart: str
    ast: ExprAST

    def value(self, x):
        return self.ast.eval(x)

    def jet(self, x, v):
        return self.ast.eval_dual(x, seeds=v)


@dataclass(frozen=True)
class ConstGroupMap(GroupMap):
    matrix: np.ndarray

    def value(self, x):
        matrix = np.asarray(self.matrix, dtype=float)
        return np.broadcast_to(matrix, batch_shape(x) + matrix.shape)

    def jet(self, x, v):
        return (self.value(x),
                np.zeros(batch_shape(x, v) + np.shape(self.matrix)))


@dataclass(frozen=True)
class ProductGroupMap(GroupMap):
    left: GroupMap
    right: GroupMap

    def value(self, x):
        return self.left.value(x) @ self.right.value(x)

    def jet(self, x, v):
        left, d_left = self.left.jet(x, v)
        right, d_right = self.right.jet(x, v)
        return left @ right, d_left @ right + left @ d_right


@dataclass(frozen=True)
class InverseGroupMap(GroupMap):
    inner: GroupMap

    def value(self, x):
        return inverse(self.inner.value(x))

    def jet(self, x, v):
        value, d_value = self.inner.jet(x, v)
        b = inverse(value)
        return b, -b @ d_value @ b


def log_diff_left(f: GroupMap, x, v):
    """Left logarithmic differential (f^-1 df)_x(v) = f(x)^-1 . T_x f(v)."""
    value, d_value = f.jet(x, v)
    return inverse(value) @ d_value


# ----- group morphisms ------------------------------------------------


@functools.cache
def _identity(n):
    """The (n, n) identity, one read-only array per n."""
    return np.broadcast_to(np.eye(n), (n, n))


@dataclass(frozen=True)
class GroupMorphismSpec:
    """A smooth homomorphism between matrix groups, given as an expression in
    one matrix-valued parameter g, together with the Lie-algebra morphism it
    induces by differentiation at the identity.

    Every method takes one matrix or a stack of them and evaluates the whole
    stack in one walk; results are read-only `np.broadcast_to` views."""

    source_dim: int
    target_dim: int
    phi: ExprAST

    def _check_source(self, g, what):
        if g.shape[-2:] != (self.source_dim, self.source_dim):
            raise GroupMismatchError(
                f"{what} has shape {g.shape[-2:]}, "
                f"expected ({self.source_dim}, {self.source_dim})")

    def _eval(self, arg):
        return self.phi.eval_bound({"g": arg})

    def apply(self, g):
        g = np.asarray(g, dtype=float)
        self._check_source(g, "morphism argument")
        image = self._eval(Dual.matrix(g)).primal
        return np.broadcast_to(image, g.shape[:-2] + image.shape[-2:])

    def jet(self, g, E):
        """The image of g and the derivative at g along the matrix E (shape
        the broadcast of both batches + (m, m)), from one walk."""
        g = np.asarray(g, dtype=float)
        self._check_source(g, "morphism argument")
        image = self._eval(Dual.matrix(g, E))
        value = image.primal
        tangent = 0.0 if image.tangent is None else image.tangent
        batch = np.broadcast_shapes(g.shape[:-2], np.shape(E)[:-2])
        return (np.broadcast_to(value, g.shape[:-2] + value.shape[-2:]),
                np.broadcast_to(tangent, batch + value.shape[-2:]))

    def induced(self, X):
        """Induced algebra morphism: d/dt phi(exp(tX)) at t = 0."""
        X = np.asarray(X, dtype=float)
        self._check_source(X, "algebra element")
        return self.jet(_identity(self.source_dim), X)[1]

    def of(self, ast: ExprAST) -> ExprAST:
        """phi after the matrix-valued tree `ast`: one tree over ast's
        names, which binds g to ast's value once and walks phi's body on
        it."""
        return ExprAST(Bind("g", ast.root, self.phi.root), ast.coords,
                       ast.matrix_params)

    def compose(self, other: "GroupMorphismSpec") -> "GroupMorphismSpec":
        """self after other (self . other), one tree walked once."""
        if other.target_dim != self.source_dim:
            raise GroupMismatchError("morphism composition dimension mismatch")
        return GroupMorphismSpec(other.source_dim, self.target_dim,
                                 self.of(other.phi))


class _ComposedMorphism(GroupMorphismSpec):
    """Empty: a composition is a plain GroupMorphismSpec.  The name stays
    only because `perfbench/layertrace.py` looks it up, and it traces no
    method of a class that defines none."""


def identity_morphism(n) -> GroupMorphismSpec:
    from .expr import parse
    return GroupMorphismSpec(n, n, parse("g", [], matrix_params={"g": (n, n)}))
