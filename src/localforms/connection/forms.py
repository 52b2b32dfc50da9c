"""Lie-algebra-valued local 1-forms on a chart.

A local form assigns to each chart point x and base direction v an (n, n)
algebra element, linearly in v.  Points are one (d,) array or a stack
batch + (d,); directions have shape dirs + (d,) with dirs broadcastable
against the batch, and the value has shape broadcast + (n, n), computed in
one pass over the stack.  Forms are either backed by one coefficient
expression per coordinate (the i-th coefficient multiplies v_i) or by a
composite evaluator closing over other forms and maps, as produced by gauge
transformation, pushforward and tower projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from ..expr import ExprAST
from ..lie import GroupMap, batch_shape, inverse


class LocalForm:
    """Base interface: evaluation omega_x(v) by calling the form."""


@dataclass(frozen=True)
class ExprForm(LocalForm):
    coeffs: Tuple[ExprAST, ...]

    def __call__(self, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        out = np.zeros(batch_shape(x, v) + self.coeffs[0].shape)
        for j, ast in enumerate(self.coeffs):
            vj = v[..., j, None, None]
            nonzero = vj != 0.0
            if not np.any(nonzero):
                continue
            # zero components are skipped, so 0 * inf never becomes NaN
            with np.errstate(invalid="ignore"):
                out += np.where(nonzero, vj * ast.eval(x), 0.0)
        return out


@dataclass(frozen=True)
class CallableForm(LocalForm):
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x, v):
        return self.fn(np.asarray(x, dtype=float), np.asarray(v, dtype=float))


def zero_form(n) -> LocalForm:
    return CallableForm(lambda x, v: np.zeros(batch_shape(x, v) + (n, n)))


def gauge(g, dg, omega):
    """The gauge law at values: Ad(g^-1) . omega + g^-1 . dg for group values
    g, their derivatives dg and algebra values omega (stacks broadcast),
    computed as g^-1 omega g + g^-1 dg with one inverse of g."""
    g_inv = inverse(g)
    return g_inv @ omega @ g + g_inv @ dg


def gauge_transform(form: LocalForm, g: GroupMap) -> LocalForm:
    """The gauge law as a form: x, v -> gauge(g(x), dg_x(v), form_x(v)).

    The result is a composite evaluator over the same chart; it is also the
    value of the connection operator on the local section s . g.
    """

    def fn(x, v):
        return gauge(*g.jet(x, v), form(x, v))

    return CallableForm(fn)
