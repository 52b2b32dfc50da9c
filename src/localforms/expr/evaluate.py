"""AST evaluation on Dual values: one walk for a whole batch of samples."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .dual import Dual
from .nodes import Binary, Call, MatLit, Name, Num, Unary


def evaluate(node, bindings) -> Dual:
    if isinstance(node, Num):
        return Dual(np.float64(node.value))
    if isinstance(node, Name):
        try:
            return bindings[node.ident]
        except KeyError:
            raise ValidationError(f"unbound identifier '{node.ident}'") from None
    if isinstance(node, Unary):
        return -evaluate(node.operand, bindings)
    if isinstance(node, Binary):
        left = evaluate(node.left, bindings)
        if node.op == "^":
            return left.powi(int(node.right.value))
        right = evaluate(node.right, bindings)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    if isinstance(node, Call):
        args = [evaluate(a, bindings) for a in node.args]
        if node.fn == "atan2":
            return Dual.atan2(args[0], args[1])
        return getattr(args[0], node.fn)()
    if isinstance(node, MatLit):
        if node.constant is not None:
            return Dual(node.constant, None, True)
        entries = [[evaluate(entry, bindings) for entry in row]
                   for row in node.rows]
        flat = [value for row in entries for value in row]
        shape = (len(node.rows), len(node.rows[0]))
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
    raise ValidationError(f"unknown node type {type(node).__name__}")
