"""Recursive-descent parser for the chart-expression grammar.

See docs/grammar.md for the grammar.  Operator precedence is the standard
one (unary minus binds tighter than * and /, '^' tighter still); '*' doubles
as the (left-associative) matrix product whenever an operand is a matrix.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, Tuple

import numpy as np

from ..errors import (DomainError, ExpressionSyntaxError, ShapeError,
                      ValidationError)
from .evaluate import evaluate
from .dual import Dual
from .nodes import (Binary, Call, MatLit, Name, Node, Num, Shape, Unary,
                    MATRIX_FUNCTIONS, SCALAR_FUNCTIONS, infer_shape)

_NUMBER = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
_PLAIN = (rf"(?P<num>{_NUMBER})"
          r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
          r"|(?P<punct>[-+*/^(),\[\]])")
# a row of numbers and negated numbers, such as [1, -2.5, - 0]
_ROW = rf"\[\s*(?:-\s*)?(?:{_NUMBER})\s*(?:,\s*(?:-\s*)?(?:{_NUMBER})\s*)*\]"
# A matrix literal made only of such rows is one token.  Its text is the
# opening '[' alone, so a message that names the token reads as it would for
# the plain '[' token; the match itself runs to the closing ']'.
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<mat>\[)\s*{_ROW}(?:\s*,\s*{_ROW})*\s*\]|{_PLAIN})")
_PLAIN_RE = re.compile(rf"\s*(?:{_PLAIN})")
_ENTRY_RE = re.compile(rf"(?P<neg>-)?\s*(?P<num>{_NUMBER})")

_FUNCTIONS = set(SCALAR_FUNCTIONS) | set(MATRIX_FUNCTIONS) | {"atan2"}


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(source, ends=None):
    """The tokens of `source` from one scan, ending with an 'end' token.  A
    match that does not start where the previous one ended leaves a gap, and
    the gap's first non-space character is the one no token can start with;
    so is any non-space character left after the last match.  `ends`, when
    given, maps the position of each matrix-literal token to where its match
    ends."""
    tokens = []
    end = 0
    for match in _TOKEN_RE.finditer(source):
        if match.start() != end:
            break
        kind = match.lastgroup
        tokens.append(_Token(kind, match[kind], match.start(kind)))
        end = match.end()
        if kind == "mat" and ends is not None:
            ends[match.start(kind)] = end
    rest = source[end:].lstrip()
    if rest:
        at = len(source) - len(rest)
        raise ExpressionSyntaxError(f"unexpected character '{source[at]}'", at)
    tokens.append(_Token("end", "", len(source)))
    return tokens


def _number(text, pos):
    """The value of a number literal at `pos`; a literal too large for a
    float is a syntax error, since it has no finite value to print back."""
    value = float(text)
    if not math.isfinite(value):
        raise ExpressionSyntaxError(f"number '{text}' is too large", pos)
    return value


def _matrix(rows, values=None):
    """The literal of `rows`, which must all have the same length; `values`,
    when given, are the entries' numbers, row by row."""
    if len({len(row) for row in rows}) != 1:
        raise ValidationError("ragged matrix literal")
    return MatLit(tuple(rows),
                  None if values is None else np.array(values, dtype=float))


class _Parser:
    def __init__(self, source):
        self.source = source
        self.ends = {}  # matrix-literal token position -> end of its text
        self.tokens = _tokenize(source, self.ends)
        self.index = 0
        self.literals = {}  # literal text -> its MatLit; nodes are immutable

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text):
        token = self.advance()
        if token.text != text:
            raise ExpressionSyntaxError(
                f"expected '{text}', found '{token.text or 'end of input'}'",
                token.pos)
        return token

    def parse(self):
        node = self.expression()
        token = self.peek()
        if token.kind != "end":
            raise ExpressionSyntaxError(
                f"unexpected trailing '{token.text}'", token.pos)
        return node

    def expression(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self):
        if self.peek().text == "-":
            self.advance()
            return Unary(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().text == "^":
            self.advance()
            sign = 1
            if self.peek().text == "-":
                self.advance()
                sign = -1
            token = self.advance()
            value = (_number(token.text, token.pos) if token.kind == "num"
                     else None)
            if value is None or value != int(value):
                raise ExpressionSyntaxError(
                    "'^' requires an integer exponent", token.pos)
            node = Binary("^", node, Num(sign * value))
        return node

    def atom(self):
        token = self.advance()
        if token.kind == "num":
            return Num(_number(token.text, token.pos))
        if token.kind == "mat":
            return self.literal(token.pos)
        if token.kind == "ident":
            if self.peek().text == "(":
                if token.text not in _FUNCTIONS:
                    raise ExpressionSyntaxError(
                        f"unknown function '{token.text}'", token.pos)
                self.advance()
                args = [self.expression()]
                while self.peek().text == ",":
                    self.advance()
                    args.append(self.expression())
                self.expect(")")
                return Call(token.text, tuple(args))
            return Name(token.text)
        if token.text == "(":
            node = self.expression()
            self.expect(")")
            return node
        if token.text == "[":
            return self.matrix(token.pos)
        raise ExpressionSyntaxError(
            f"unexpected '{token.text or 'end of input'}'", token.pos)

    def matrix(self, start):
        rows = [self.row()]
        while self.peek().text == ",":
            self.advance()
            rows.append(self.row())
        self.expect("]")
        return _matrix(rows)

    def literal(self, start):
        """The number-only matrix literal scanned as one token at `start`,
        built from its text as the descent would build it: Num and
        Unary(Num) entries, one node per distinct entry text, and its
        constant from float() of each entry's text (float('-x') is
        -float('x') exactly, -0 included).  A literal text met before in
        this expression gives the node built then."""
        text = self.source[start:self.ends[start]]
        literal = self.literals.get(text)
        if literal is not None:
            return literal
        # without blanks the text is [[a,-b],[c,d]]: rows split on '],['
        # and entries on ','; an entry is digits, or '-' and digits
        rows = [row.split(",")
                for row in "".join(text.split())[2:-2].split("],[")]
        nodes, values = {}, {}  # entry text -> its node, its value
        for entry in set().union(*rows):
            value = values[entry] = float(entry)
            nodes[entry] = (Unary(Num(-value)) if entry[0] == "-"
                            else Num(value))
        if not all(map(math.isfinite, values.values())):
            # the first entry too large for a float, by text and position
            for entry in _ENTRY_RE.finditer(text):
                _number(entry["num"], start + entry.start("num"))
        literal = self.literals[text] = _matrix(
            [tuple(map(nodes.__getitem__, row)) for row in rows],
            [list(map(values.__getitem__, row)) for row in rows])
        return literal

    def row(self):
        token = self.peek()
        if token.kind == "mat":
            # a literal where a row belongs: its first '[' opens the row,
            # so the descent continues on its plain tokens
            self.tokens[self.index:self.index + 1] = [
                _Token(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                for m in _PLAIN_RE.finditer(self.source, token.pos,
                                            self.ends[token.pos])]
        self.expect("[")
        entries = [self.expression()]
        while self.peek().text == ",":
            self.advance()
            entries.append(self.expression())
        self.expect("]")
        return tuple(entries)


@dataclass(frozen=True)
class ExprAST:
    """A validated expression over chart coordinates and parameters.  Its
    static shape is inferred when it is built, which checks every name and
    every shape rule of the grammar once, and is kept."""

    root: Node
    coords: Tuple[str, ...]
    params: Tuple[str, ...] = ()
    matrix_params: Mapping[str, Tuple[int, int]] = field(default_factory=dict)
    shape: Shape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "shape",
                           infer_shape(self.root, self._name_shapes()))

    def _name_shapes(self):
        shapes: Dict[str, object] = {name: None for name in self.coords}
        shapes.update({name: None for name in self.params})
        shapes.update(dict(self.matrix_params))
        return shapes

    def to_source(self):
        return str(self.root)

    def __str__(self):
        return self.to_source()

    def _bindings(self, points, params, seeds):
        """Coordinate and parameter bindings for points of shape batch + (d,)
        and seeds (None, or shape dirs + (d,)); a matrix parameter must have
        its declared shape."""
        if points.shape[-1:] != (len(self.coords),):
            raise ValidationError(
                f"expected {len(self.coords)} coordinates, got "
                f"{points.shape[-1] if points.ndim else 0}")
        params = dict(params or {})
        bindings = {}
        for j, name in enumerate(self.coords):
            bindings[name] = Dual(points[..., j],
                                  None if seeds is None else seeds[..., j])
        for name in self.params:
            if name not in params:
                raise ValidationError(f"parameter '{name}' is not bound")
            bindings[name] = Dual(np.float64(params[name]))
        for name, shape in self.matrix_params.items():
            if name not in params:
                raise ValidationError(f"parameter '{name}' is not bound")
            value = Dual.matrix(params[name])
            if value.primal.shape[-2:] != tuple(shape):
                raise ShapeError(
                    f"parameter '{name}' has shape "
                    f"{value.primal.shape[-2:]}, expected {tuple(shape)}")
            bindings[name] = value
        return bindings

    def _walk(self, bindings, points=None):
        """One evaluation of the tree over the whole batch.  Overflow gives
        inf and invalid operations NaN, which the checks report as failing;
        a domain violation names its sample point."""
        with np.errstate(all="ignore"):
            try:
                return evaluate(self.root, bindings)
            except DomainError as exc:
                if exc.index is None:
                    raise
                raise DomainError(f"{exc}{_where(exc.index, points)}") \
                    from None

    def eval(self, points, params=None):
        """Evaluate at one coordinate point (shape (d,)) or at a stack of
        points (shape batch + (d,)) in one walk; returns an array of shape
        batch + value shape (a float for one point of a scalar expression).
        """
        points = np.asarray(points, dtype=float)
        result = self._walk(self._bindings(points, params, None), points)
        return _broadcast(result.primal,
                          points.shape[:-1] + _value_shape(result))

    def eval_dual(self, points, params=None, *, seeds):
        """Evaluate together with the derivative along `seeds`, in one walk.

        `seeds` has shape dirs + (d,): one direction (d,) at every point,
        or directions whose axes broadcast against the points' batch, lined
        up at the trailing end (np.eye(d)[:, None], shape (d, 1, d), gives
        every coordinate direction at every point of a stack).
        Returns (value, derivative), of shapes batch + value shape and
        broadcast(dirs, batch) + value shape.
        """
        points = np.asarray(points, dtype=float)
        seeds = np.asarray(seeds, dtype=float)
        if seeds.shape[-1:] != (len(self.coords),):
            raise ValidationError("seed dimension mismatch")
        result = self._walk(self._bindings(points, params, seeds), points)
        value_shape = _value_shape(result)
        batch = points.shape[:-1]
        tangent_shape = np.broadcast_shapes(seeds.shape[:-1], batch) \
            + value_shape
        tangent = np.zeros(()) if result.tangent is None else result.tangent
        return (_broadcast(result.primal, batch + value_shape),
                _broadcast(tangent, tangent_shape))

    def eval_bound(self, bindings):
        """Evaluate with explicit Dual bindings (used to differentiate through
        matrix-valued parameters); returns the Dual, whose tangent is None
        where it vanishes identically."""
        return self._walk(bindings)


def _value_shape(result):
    return result.primal.shape[-2:] if result.is_matrix else ()


def _broadcast(value, shape):
    """`value` as a writable array of exactly `shape`; a float for ().  A
    read-only array (a constant matrix literal's value) is copied."""
    if np.shape(value) != shape or (shape and not value.flags.writeable):
        value = np.array(np.broadcast_to(value, shape))
    return value[()] if shape == () else value


def _where(index, points):
    """The message suffix naming the sample at batch index `index`: its
    point, else its index, else nothing for one unbatched evaluation."""
    if points is None:
        return f" at sample {[int(i) for i in index]}" if index else ""
    batch = points.shape[:-1]
    index = index[max(0, len(index) - len(batch)):]
    index = (0,) * (len(batch) - len(index)) + tuple(index)
    return f" at point {points[index].tolist()}"


def parse(source, coords, params=(), matrix_params=None) -> ExprAST:
    """Parse and validate an expression over the given names.

    Raises ExpressionSyntaxError on malformed text and
    ValidationError/ShapeError on unknown names or dimension mismatches.
    """
    return ExprAST(_Parser(source).parse(), tuple(coords), tuple(params),
                   dict(matrix_params or {}))
