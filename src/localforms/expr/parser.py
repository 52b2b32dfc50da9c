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

from ..errors import DomainError, ExpressionSyntaxError, ValidationError
from .dual import Dual
from .nodes import (Binary, Call, MatLit, Name, Node, Num, Shape, Unary,
                    MATRIX_FUNCTIONS, SCALAR_FUNCTIONS)

_NUMBER = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
_PLAIN = (rf"(?P<num>{_NUMBER})"
          r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
          r"|(?P<punct>[-+*/^(),\[\]])")
# a row of the characters that numbers, signs, blanks and commas are made of,
# such as [1, -2.5, - 0]; `_Parser.literal` checks that its entries are numbers
_ROW = r"\[[\d.eE+\-\s,]*\]"
# A matrix literal made only of such rows is one token.  Its text is the
# opening '[' alone, so a message that names the token reads as it would for
# the plain '[' token; the match itself runs to the closing ']'.
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<mat>\[)\s*{_ROW}(?:\s*,\s*{_ROW})*\s*\]|{_PLAIN})")
_PLAIN_RE = re.compile(rf"\s*(?:{_PLAIN})")
# the contents of each row of a literal token
_ROWS_RE = re.compile(r"\[([^][]*)\]")
# an entry of a number-only literal: a number or a negated number
_ENTRY_RE = re.compile(rf"\s*(-?)\s*({_NUMBER})\s*")

_FUNCTIONS = set(SCALAR_FUNCTIONS) | set(MATRIX_FUNCTIONS) | {"atan2"}


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int
    end: int  # where its match ends: after the closing ']' of a literal


def _scan(pattern, source, start, stop):
    """The tokens of source[start:stop] by `pattern` from one scan, up to
    the first gap (a match that does not start where the previous one
    ended), and where the last of them ends."""
    tokens = []
    end = start
    for match in pattern.finditer(source, start, stop):
        if match.start() != end:
            break
        kind = match.lastgroup
        end = match.end()
        tokens.append(_Token(kind, match[kind], match.start(kind), end))
    return tokens, end


def _require_blank(source, start, stop):
    """Raise at the first non-space character of source[start:stop], left
    after a scan's last token: the one no token can start with."""
    rest = source[start:stop].lstrip()
    if rest:
        at = stop - len(rest)
        raise ExpressionSyntaxError(f"unexpected character '{source[at]}'", at)


def _plain_tokens(source, token):
    """The plain tokens of the literal token `token`, which the descent
    reads entry by entry."""
    tokens, end = _scan(_PLAIN_RE, source, token.pos, token.end)
    _require_blank(source, end, token.end)
    return tokens


def _tokenize(source):
    """The tokens of `source` from one scan, ending with an 'end' token.
    The only character of a literal token that no plain token may take is
    a '.' that no number takes, as in [[1..]]; a literal token holding one
    raises there, before any character after the last token."""
    tokens, end = _scan(_TOKEN_RE, source, 0, len(source))
    if "." in source:
        for token in tokens:
            if token.kind == "mat" \
                    and source.find(".", token.pos, token.end) >= 0:
                _plain_tokens(source, token)
    _require_blank(source, end, len(source))
    tokens.append(_Token("end", "", len(source), len(source)))
    return tokens


def _number(text, pos):
    """The value of a number literal at `pos`; a literal too large for a
    float is a syntax error, since it has no finite value to print back."""
    value = float(text)
    if not math.isfinite(value):
        raise ExpressionSyntaxError(f"number '{text}' is too large", pos)
    return value


class _Parser:
    def __init__(self, source, constants=None, literals=None):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0
        # literal text -> its MatLit, for this parse or shared by the parses
        # of one document; nodes are immutable
        self.literals = {} if literals is None else literals
        # a param's name -> the tree of its value (see parse)
        self.constants = constants or {}

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
            literal = self.literal(token)
            if literal is not None:
                return literal
            # the descent reads it after its '[' and raises its error
            self.split(self.index - 1)
            return self.matrix()
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
            return self.constants.get(token.text) or Name(token.text)
        if token.text == "(":
            node = self.expression()
            self.expect(")")
            return node
        if token.text == "[":
            return self.matrix()
        raise ExpressionSyntaxError(
            f"unexpected '{token.text or 'end of input'}'", token.pos)

    def matrix(self):
        rows = [self.row()]
        while self.peek().text == ",":
            self.advance()
            rows.append(self.row())
        self.expect("]")
        return MatLit(tuple(rows))

    def literal(self, token):
        """The number-only matrix literal scanned as one `token`, built from
        its text as the descent would build it, Num and Unary(Num) entries,
        one node per distinct entry text; None if an entry is not a number
        or a negated number, or is too large for a float, or the literal is
        ragged.  A literal text met before gives the node built then."""
        text = self.source[token.pos:token.end]
        literal = self.literals.get(text)
        if literal is not None:
            return literal
        rows = [row.split(",") for row in _ROWS_RE.findall(text)]
        if len(set(map(len, rows))) != 1:
            return None
        nodes = {}
        for entry in set().union(*rows):
            match = _ENTRY_RE.fullmatch(entry)
            if match is None:
                return None
            value = float(match[2])
            if not math.isfinite(value):
                return None
            nodes[entry] = Unary(Num(value)) if match[1] else Num(value)
        literal = self.literals[text] = MatLit(
            tuple(tuple(map(nodes.__getitem__, row)) for row in rows))
        return literal

    def split(self, at):
        """Put the plain tokens of the literal token at index `at` in its
        place, so that the descent reads the literal entry by entry."""
        self.tokens[at:at + 1] = _plain_tokens(self.source, self.tokens[at])

    def row(self):
        if self.peek().kind == "mat":
            # a literal where a row belongs: its first '[' opens the row
            self.split(self.index)
        self.expect("[")
        entries = [self.expression()]
        while self.peek().text == ",":
            self.advance()
            entries.append(self.expression())
        self.expect("]")
        return tuple(entries)


@dataclass(frozen=True)
class ExprAST:
    """A validated expression over chart coordinates and matrix parameters;
    a document's params are numbers of its tree.  Its static shape is
    inferred when it is built, which checks every name and every shape rule
    of the grammar once, and is kept."""

    root: Node
    coords: Tuple[str, ...]
    matrix_params: Mapping[str, Tuple[int, int]] = field(default_factory=dict)
    shape: Shape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes: Dict[str, Shape] = dict.fromkeys(self.coords)
        shapes.update(self.matrix_params)
        object.__setattr__(self, "shape", self.root.shape(shapes))

    def to_source(self):
        """The tree printed back as source text.  A tree that holds a Bind
        (a composition, see `GroupMorphismSpec.of`) has none: the Bind
        prints as its dataclass repr, which no parse reads."""
        return str(self.root)

    def _bindings(self, points, seeds):
        """Coordinate bindings for points of shape batch + (d,) and seeds
        (None, or shape dirs + (d,))."""
        if points.shape[-1:] != (len(self.coords),):
            raise ValidationError(
                f"expected {len(self.coords)} coordinates, got "
                f"{points.shape[-1] if points.ndim else 0}")
        return {name: Dual(points[..., j],
                           None if seeds is None else seeds[..., j])
                for j, name in enumerate(self.coords)}

    def _walk(self, bindings, points=None):
        """One evaluation of the tree over the whole batch.  Overflow gives
        inf and invalid operations NaN, which the checks report as failing;
        a domain violation names its sample point."""
        with np.errstate(all="ignore"):
            try:
                return self.root.evaluate(bindings)
            except DomainError as exc:
                if exc.index is None:
                    raise
                raise DomainError(f"{exc}{_where(exc.index, points)}") \
                    from None

    def eval(self, points):
        """Evaluate at one coordinate point (shape (d,)) or at a stack of
        points (shape batch + (d,)) in one walk; returns an array of shape
        batch + value shape (a float for one point of a scalar expression).
        """
        points = np.asarray(points, dtype=float)
        result = self._walk(self._bindings(points, None), points)
        return _broadcast(result.primal,
                          points.shape[:-1] + _value_shape(result))

    def eval_dual(self, points, *, seeds):
        """Evaluate together with the derivative along `seeds`, in one walk.

        `seeds` has shape dirs + (d,): one direction (d,) at every point,
        or directions whose axes broadcast against the points' batch, lined
        up at the trailing end (np.eye(d)[:, None], shape (d, 1, d), gives
        every coordinate direction at every point of a stack).
        Returns (value, derivative), of shapes batch + value shape and
        broadcast(dirs, batch) + value shape.  Seeds that are zero
        everywhere bind no tangents: the walk takes values only, and the
        derivative is zeros.
        """
        points = np.asarray(points, dtype=float)
        seeds = np.asarray(seeds, dtype=float)
        if seeds.shape[-1:] != (len(self.coords),):
            raise ValidationError("seed dimension mismatch")
        result = self._walk(
            self._bindings(points, seeds if seeds.any() else None), points)
        value_shape = _value_shape(result)
        batch = points.shape[:-1]
        tangent_shape = np.broadcast_shapes(seeds.shape[:-1], batch) \
            + value_shape
        tangent = (np.zeros(tangent_shape) if result.tangent is None
                   else result.tangent)
        return (_broadcast(result.primal, batch + value_shape),
                _broadcast(tangent, tangent_shape))

    def eval_bound(self, bindings):
        """Evaluate with explicit Dual bindings of the matrix parameters
        (used to differentiate through them); returns the Dual, whose
        tangent is None where it vanishes identically."""
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


def parse(source, coords, params=None, matrix_params=None, *,
          literals=None) -> ExprAST:
    """Parse and validate an expression over the coordinates, the matrix
    parameters (a map of each name to its shape) and the params (a map of
    each name to its value, folded in as the tree of the value's text),
    which a coordinate or matrix parameter of the same name hides.
    `literals`, a dict from number-only literal text to its MatLit, lets
    the parses that share it share their literal nodes; without it, each
    parse has its own.

    Raises ExpressionSyntaxError on malformed text and
    ValidationError/ShapeError on unknown names or dimension mismatches.
    """
    coords, matrix_params = tuple(coords), dict(matrix_params or {})
    constants = {name: Unary(Num(-value)) if math.copysign(1, value) < 0
                 else Num(value) for name, value in (params or {}).items()
                 if name not in coords and name not in matrix_params}
    return ExprAST(_Parser(source, constants, literals).parse(), coords,
                   matrix_params)
