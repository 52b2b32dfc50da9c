"""Expression AST nodes.  Each kind infers its static shape, evaluates
itself on Dual values over a whole batch of samples, and prints itself.

Shapes are either None (scalar) or an (rows, cols) pair, fully determined
by the expression structure, so `shape` checks every conformance rule once,
when an ExprAST is built, and `evaluate` and the Dual operations check none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import ShapeError, ValidationError
from .dual import Dual

Shape = Optional[Tuple[int, int]]

SCALAR_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")
MATRIX_FUNCTIONS = ("mexp", "transpose", "inv")


class Node:
    """`shape(names)` is the static shape given each name's shape, raising
    on any mismatch; `evaluate(bindings)` the Dual value given each bound
    name's Dual; `precedence` what the printer parenthesises by."""

    __slots__ = ()
    precedence = 100


@dataclass(frozen=True)
class Num(Node):
    value: float

    def shape(self, names) -> Shape:
        return None

    def evaluate(self, bindings) -> Dual:
        return Dual(np.float64(self.value))

    def __str__(self):
        return repr(self.value) if self.value != int(self.value) else str(int(self.value))


@dataclass(frozen=True)
class Name(Node):
    ident: str

    def shape(self, names) -> Shape:
        if self.ident not in names:
            raise ValidationError(f"unknown identifier '{self.ident}'")
        return names[self.ident]

    def evaluate(self, bindings) -> Dual:
        try:
            return bindings[self.ident]
        except KeyError:
            raise ValidationError(f"unbound identifier '{self.ident}'") from None

    def __str__(self):
        return self.ident


@dataclass(frozen=True)
class Unary(Node):
    operand: Node
    precedence = 25

    def shape(self, names) -> Shape:
        return self.operand.shape(names)

    def evaluate(self, bindings) -> Dual:
        return -self.operand.evaluate(bindings)

    def __str__(self):
        return f"-{_paren(self.operand, self.precedence)}"


_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}


@dataclass(frozen=True)
class Binary(Node):
    op: str  # one of + - * / ^
    left: Node
    right: Node

    @property
    def precedence(self):
        return _PRECEDENCE[self.op]

    def shape(self, names) -> Shape:
        left = self.left.shape(names)
        right = self.right.shape(names)
        if self.op in ("+", "-"):
            if left != right:
                raise ShapeError(
                    f"'{self.op}' on shapes {left} and {right}")
            return left
        if self.op == "*":
            if left is None:
                return right
            if right is None:
                return left
            if left[1] != right[0]:
                raise ShapeError(
                    f"matrix product of {left} by {right}")
            return (left[0], right[1])
        if self.op == "/":
            if right is not None:
                raise ShapeError("division by a matrix")
            return left
        if self.op == "^":
            if left is not None:
                raise ShapeError("'^' applies to scalars only")
            return None
        raise ValidationError(f"unknown operator '{self.op}'")

    def evaluate(self, bindings) -> Dual:
        left = self.left.evaluate(bindings)
        if self.op == "^":
            return left.powi(int(self.right.value))
        right = self.right.evaluate(bindings)
        if self.op == "+":
            return left + right
        if self.op == "-":
            return left - right
        if self.op == "*":
            return left * right
        return left / right

    def __str__(self):
        prec = self.precedence
        # the base of ^ is an atom; an operator on the right keeps its
        # parentheses, since reassociating a float sum changes its value
        left = _paren(self.left, prec + (1 if self.op == "^" else 0))
        right = _paren(self.right, prec + 1)
        return f"{left} {self.op} {right}" if self.op != "^" else f"{left}^{right}"


@dataclass(frozen=True)
class Call(Node):
    fn: str
    args: Tuple[Node, ...]

    def shape(self, names) -> Shape:
        shapes = [a.shape(names) for a in self.args]
        if self.fn in SCALAR_FUNCTIONS:
            if len(shapes) != 1 or shapes[0] is not None:
                raise ShapeError(f"{self.fn} takes one scalar argument")
            return None
        if self.fn == "atan2":
            if len(shapes) != 2 or any(s is not None for s in shapes):
                raise ShapeError("atan2 takes two scalar arguments")
            return None
        if self.fn in ("mexp", "inv"):
            if len(shapes) != 1 or shapes[0] is None or shapes[0][0] != shapes[0][1]:
                raise ShapeError(f"{self.fn} takes one square matrix argument")
            return shapes[0]
        if self.fn == "transpose":
            if len(shapes) != 1 or shapes[0] is None:
                raise ShapeError("transpose takes one matrix argument")
            return (shapes[0][1], shapes[0][0])
        raise ValidationError(f"unknown function '{self.fn}'")

    def evaluate(self, bindings) -> Dual:
        args = [a.evaluate(bindings) for a in self.args]
        if self.fn == "atan2":
            return Dual.atan2(args[0], args[1])
        return getattr(args[0], self.fn)()

    def __str__(self):
        return f"{self.fn}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class MatLit(Node):
    """A matrix literal, its rows of one length.  When every entry is a
    number or a negated number, `constant` holds its value as a read-only
    array, built here once and returned by every evaluation; otherwise it
    is None."""

    rows: Tuple[Tuple[Node, ...], ...]
    constant: Optional[np.ndarray] = field(init=False, compare=False,
                                           repr=False)

    def __post_init__(self):
        if len({len(row) for row in self.rows}) != 1:
            raise ValidationError("ragged matrix literal")
        values = [[_entry_value(entry) for entry in row] for row in self.rows]
        constant = None
        if all(v is not None for row in values for v in row):
            constant = np.array(values, dtype=float)
            constant.flags.writeable = False
        object.__setattr__(self, "constant", constant)

    def shape(self, names) -> Shape:
        if self.constant is not None:
            return self.constant.shape
        for row in self.rows:
            for entry in row:
                if entry.shape(names) is not None:
                    raise ShapeError("matrix literal entries must be scalars")
        return (len(self.rows), len(self.rows[0]))

    def evaluate(self, bindings) -> Dual:
        if self.constant is not None:
            return Dual(self.constant, None, True)
        entries = [[entry.evaluate(bindings) for entry in row]
                   for row in self.rows]
        flat = [value for row in entries for value in row]
        shape = (len(self.rows), len(self.rows[0]))
        primal = np.empty(np.broadcast_shapes(
            *(np.shape(v.primal) for v in flat)) + shape)
        tangents = [v.tangent for v in flat if v.tangent is not None]
        tangent = None
        if tangents:
            tangent = np.zeros(np.broadcast_shapes(
                *(t.shape for t in tangents)) + shape)
        for i, row in enumerate(entries):
            for j, value in enumerate(row):
                primal[..., i, j] = value.primal
                if value.tangent is not None:
                    tangent[..., i, j] = value.tangent
        return Dual(primal, tangent, True)

    def __str__(self):
        rows = ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)
        return f"[{rows}]"


@dataclass(frozen=True)
class Bind(Node):
    """`body` with `name` bound to the value of `value`, which is evaluated
    once however often the body names it; the binding hides an outer one
    of the same name inside the body only.  No document spells a Bind: it
    is built by composing trees, so it has no source text."""

    name: str
    value: Node
    body: Node

    def shape(self, names) -> Shape:
        return self.body.shape({**names, self.name: self.value.shape(names)})

    def evaluate(self, bindings) -> Dual:
        return self.body.evaluate(
            {**bindings, self.name: self.value.evaluate(bindings)})


def _entry_value(node):
    """The value of a number or a negated number; None for anything else."""
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Unary) and isinstance(node.operand, Num):
        return -float(node.operand.value)
    return None


def _paren(node, minimum):
    text = str(node)
    return f"({text})" if node.precedence < minimum else text
