"""Expression AST nodes, static shape inference and printing.

Shapes are either None (scalar) or an (rows, cols) pair; they are fully
determined by the expression structure, so conformance of matrix products,
sums and function arguments is checked here once, when an ExprAST is built,
and the dual-number operations that evaluate the tree check none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import ShapeError, ValidationError

Shape = Optional[Tuple[int, int]]

SCALAR_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")
MATRIX_FUNCTIONS = ("mexp", "transpose", "inv")


class Node:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Node):
    value: float

    def __str__(self):
        return repr(self.value) if self.value != int(self.value) else str(int(self.value))


@dataclass(frozen=True)
class Name(Node):
    ident: str

    def __str__(self):
        return self.ident


@dataclass(frozen=True)
class Unary(Node):
    operand: Node

    def __str__(self):
        return f"-{_paren(self.operand, 25)}"


@dataclass(frozen=True)
class Binary(Node):
    op: str  # one of + - * / ^
    left: Node
    right: Node

    def __str__(self):
        prec = _PRECEDENCE[self.op]
        # the base of ^ is an atom; an operator on the right keeps its
        # parentheses, since reassociating a float sum changes its value
        left = _paren(self.left, prec + (1 if self.op == "^" else 0))
        right = _paren(self.right, prec + 1)
        return f"{left} {self.op} {right}" if self.op != "^" else f"{left}^{right}"


@dataclass(frozen=True)
class Call(Node):
    fn: str
    args: Tuple[Node, ...]

    def __str__(self):
        return f"{self.fn}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class MatLit(Node):
    """A matrix literal, its rows of one length.  When every entry is a
    number or a negated number, `constant` holds its value as a read-only
    array, returned by every evaluation; otherwise it is None.  A caller
    that has read the entries' values passes them as `constant`."""

    rows: Tuple[Tuple[Node, ...], ...]
    constant: Optional[np.ndarray] = field(default=None, compare=False,
                                           repr=False)

    def __post_init__(self):
        if len({len(row) for row in self.rows}) != 1:
            raise ValidationError("ragged matrix literal")
        constant = self.constant
        if constant is None:
            values = [[_entry_value(entry) for entry in row]
                      for row in self.rows]
            if all(v is not None for row in values for v in row):
                constant = np.array(values, dtype=float)
        if constant is not None:
            constant.flags.writeable = False
        object.__setattr__(self, "constant", constant)

    def __str__(self):
        rows = ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)
        return f"[{rows}]"


def _entry_value(node):
    """The value of a number or a negated number; None for anything else."""
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Unary) and isinstance(node.operand, Num):
        return -float(node.operand.value)
    return None


_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}


def _node_precedence(node):
    if isinstance(node, Binary):
        return _PRECEDENCE[node.op]
    if isinstance(node, Unary):
        return 25
    return 100


def _paren(node, minimum):
    text = str(node)
    return f"({text})" if _node_precedence(node) < minimum else text


def infer_shape(node, name_shapes) -> Shape:
    """Return the static shape of `node`, raising on any mismatch.

    `name_shapes` maps every declared coordinate/parameter name to its shape.
    """
    if isinstance(node, Num):
        return None
    if isinstance(node, Name):
        if node.ident not in name_shapes:
            raise ValidationError(f"unknown identifier '{node.ident}'")
        return name_shapes[node.ident]
    if isinstance(node, Unary):
        return infer_shape(node.operand, name_shapes)
    if isinstance(node, Binary):
        left = infer_shape(node.left, name_shapes)
        right = infer_shape(node.right, name_shapes)
        if node.op in ("+", "-"):
            if left != right:
                raise ShapeError(
                    f"'{node.op}' on shapes {left} and {right}")
            return left
        if node.op == "*":
            if left is None:
                return right
            if right is None:
                return left
            if left[1] != right[0]:
                raise ShapeError(
                    f"matrix product of {left} by {right}")
            return (left[0], right[1])
        if node.op == "/":
            if right is not None:
                raise ShapeError("division by a matrix")
            return left
        if node.op == "^":
            if left is not None:
                raise ShapeError("'^' applies to scalars only")
            return None
        raise ValidationError(f"unknown operator '{node.op}'")
    if isinstance(node, Call):
        shapes = [infer_shape(a, name_shapes) for a in node.args]
        if node.fn in SCALAR_FUNCTIONS:
            if len(shapes) != 1 or shapes[0] is not None:
                raise ShapeError(f"{node.fn} takes one scalar argument")
            return None
        if node.fn == "atan2":
            if len(shapes) != 2 or any(s is not None for s in shapes):
                raise ShapeError("atan2 takes two scalar arguments")
            return None
        if node.fn in ("mexp", "inv"):
            if len(shapes) != 1 or shapes[0] is None or shapes[0][0] != shapes[0][1]:
                raise ShapeError(f"{node.fn} takes one square matrix argument")
            return shapes[0]
        if node.fn == "transpose":
            if len(shapes) != 1 or shapes[0] is None:
                raise ShapeError("transpose takes one matrix argument")
            return (shapes[0][1], shapes[0][0])
        raise ValidationError(f"unknown function '{node.fn}'")
    if isinstance(node, MatLit):
        if node.constant is not None:
            return node.constant.shape
        for row in node.rows:
            for entry in row:
                if infer_shape(entry, name_shapes) is not None:
                    raise ShapeError("matrix literal entries must be scalars")
        return (len(node.rows), len(node.rows[0]))
    raise ValidationError(f"unknown node type {type(node).__name__}")
