"""Property tests: printing an expression and parsing it back gives an
expression with the same value, on random fully parenthesised sources; the
tokenizer agrees with a per-position reference on random text; the parser,
which reads a number-only matrix literal as one token, agrees with a
descent-only reference, tree for tree and error for error; and a fixture
with one key dropped or one value replaced makes the CLI exit with 0, 1 or 2,
never with an uncaught exception."""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from localforms.cli import main
from localforms.errors import (DomainError, ExpressionSyntaxError,
                               ValidationError)
from localforms.expr import parse
from localforms.expr.evaluate import evaluate
from localforms.expr.parser import _TOKEN_RE, _Parser, _Token, _tokenize

from conftest import fixture_path

COORDS = ["x1", "x2"]
POINTS = np.array([[0.7, 1.3], [-2.5, 0.25], [0.0, 3.0]])

numbers = st.floats(min_value=0.0, max_value=1e6).map(repr)
# decimals whose float sums round, so a printer that drops parentheses
# (reassociating a sum) shows up as a changed value
leaves = st.one_of(st.sampled_from(["0.1", "0.2", "0.3", "x1", "x2"]),
                   numbers)


def _scalar_step(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, st.integers(-3, 3)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda e: f"(-{e})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
    )


scalars = st.recursive(leaves, _scalar_step, max_leaves=12)
literals = st.lists(scalars, min_size=4, max_size=4).map(
    lambda e: f"[[{e[0]}, {e[1]}], [{e[2]}, {e[3]}]]")


def _matrix_step(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(scalars, inner).map(lambda t: f"({t[0]} * {t[1]})"),
        st.tuples(inner, scalars).map(lambda t: f"({t[0]} / {t[1]})"),
        inner.map(lambda e: f"(-{e})"),
    )


matrices = st.recursive(literals, _matrix_step, max_leaves=4)


def _value(ast):
    try:
        with np.errstate(all="ignore"):
            return ast.eval(POINTS)
    except DomainError:
        return "domain error"


def _assert_round_trip(source):
    ast = parse(source, COORDS)
    printed = ast.to_source()
    reparsed = parse(printed, COORDS)
    assert reparsed.to_source() == printed
    want, got = _value(ast), _value(reparsed)
    if isinstance(want, str) or isinstance(got, str):
        assert want == got
    else:
        assert np.array_equal(want, got, equal_nan=True), printed


SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


@SETTINGS
@given(scalars)
def test_scalar_round_trip_keeps_values(source):
    _assert_round_trip(source)


@SETTINGS
@given(matrices)
def test_matrix_round_trip_keeps_values(source):
    _assert_round_trip(source)


# ----- the tokenizer against a per-position reference -----------------

def _reference_tokenize(source, pattern=_TOKEN_RE, pos=0):
    """The tokenizer as one anchored match per token from `pos`: the
    reference the one-scan tokenizer must agree with, token for token and
    error for error.  A literal token's text must read as plain tokens, one
    anchored match each, and raises where it does not."""
    tokens = []
    while pos < len(source):
        match = pattern.match(source, pos)
        if match is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            at = len(source) - len(stripped)
            raise ExpressionSyntaxError(
                f"unexpected character '{source[at]}'", at)
        if match.lastgroup == "mat":
            _reference_tokenize(source[:match.end()], _DESCENT_TOKEN_RE,
                                match.start())
        tokens.append((match.lastgroup, match.group(match.lastgroup),
                       match.start(match.lastgroup), match.end()))
        pos = match.end()
    tokens.append(("end", "", len(source), len(source)))
    return tokens


def _outcome(tokenize, source):
    try:
        return [tuple(token) for token in tokenize(source)]
    except ExpressionSyntaxError as exc:
        return ("error", str(exc), exc.position)


# the grammar's characters, characters no token starts with (a non-ASCII
# digit does start a number: float() reads it), and whitespace of several
# kinds, non-ASCII included
texts = st.text(
    alphabet=st.sampled_from(
        list("0123456789.eE+-*/^(),[]xg_ sintmapw@$#!;'\"\\{}~")
        + ["\u00e9", "\u0663", "\t", "\n", "\u00a0", "\u2003"]),
    max_size=40)


@SETTINGS
@given(texts)
def test_tokenizer_matches_per_position_reference(source):
    assert _outcome(_tokenize, source) \
        == _outcome(_reference_tokenize, source)


@pytest.mark.parametrize("source", [
    "[[.]]", "[[1..]] $", "([[1, .]] +", "[[1.]]", "[[1.5, .5e3], [1e5, 3.]]",
    "x1 [[1, 2.], [3.., 4]] [[.]]", "[[1e5.]]", "[[e1.]]"])
def test_tokenizer_matches_the_reference_on_points(source):
    assert _outcome(_tokenize, source) \
        == _outcome(_reference_tokenize, source)


# ----- number-only matrix literals against a descent-only parser -------

# the token grammar without the one-token matrix literal
_DESCENT_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<punct>[-+*/^(),\[\]]))")


class _DescentParser(_Parser):
    """The parser on tokens of the grammar without literal tokens, so that
    every matrix literal is descended into entry by entry."""

    def __init__(self, source):
        self.source = source
        self.tokens = [_Token(*token) for token in
                       _reference_tokenize(source, _DESCENT_TOKEN_RE)]
        self.index = 0
        self.constants = {}


def _parsed(parser, source):
    try:
        tree = parser(source).parse()
    except (ExpressionSyntaxError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return tree, str(tree)


def _assert_parses_as_descent(source):
    assert _parsed(_Parser, source) == _parsed(_DescentParser, source)


_numbers = ["0", "1", "2.5", ".5", "3.", "007", "1e-3", "2E+2", "1e400", "1e",
            "9" * 400]
# an entry: a number, negated with or without spaces, blanks around it, or
# anything else that keeps the literal from being one token; the last row
# is made of the characters of the literal token's rows but is no number
_entries = st.sampled_from(
    _numbers
    + [sign + number for sign in ("-", "- ", "-\t", "--")
       for number in _numbers]
    + [" 1", "1 ", " - 1 ", "\n0\t", "x1", "2^2", "-x2", "(1)", "+1", "",
       "1 2"]
    + ["1.2.3", "1e+", ".", "e1", "1e5e5", "+.5", "- -1", "1 e3", "1..",
       "3.."])


def _literal_step(inner):
    """Rows of entries or of nested literals, ragged or not, with an
    occasional missing bracket or comma."""
    row = st.tuples(st.lists(inner, min_size=1, max_size=3),
                    st.sampled_from([",", ", ", " , ", ""])).map(
        lambda t: f"[{t[1].join(t[0])}]")
    return st.tuples(st.lists(row, min_size=1, max_size=3),
                     st.sampled_from(["]", "]", " ]", ""])).map(
        lambda t: f"[{', '.join(t[0])}{t[1]}")


_literals = st.recursive(_entries, _literal_step, max_leaves=10)
_prefixes = st.sampled_from(["", "", "(", "x1^", "-", "- ", "2 * ", "(1 ",
                             "sin(", "transpose(", "["])
_suffixes = st.sampled_from(["", "", "^2", "^-1", "^[[1]]", ")", "))",
                             " x1", "*x1", " [[1]]", " + [[2]]", "]",
                             ", [1]]", " 1e400", "$"])
_sources = st.tuples(_prefixes, _literals, _suffixes).map("".join)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_sources)
def test_literal_token_parses_as_descent(source):
    _assert_parses_as_descent(source)


@SETTINGS
@given(texts)
def test_literal_token_parses_random_text_as_descent(source):
    _assert_parses_as_descent(source)


@pytest.mark.parametrize("source, outcome", [
    ("[[[1,2]]]", (ExpressionSyntaxError, "expected '[', found '1'", 3)),
    ("[[1e400]]", (ExpressionSyntaxError, "number '1e400' is too large", 2)),
    ("x1^[[1]]", (ExpressionSyntaxError, "'^' requires an integer exponent",
                  3)),
    ("(1 [[1]]", (ExpressionSyntaxError, "expected ')', found '['", 3)),
    ("1 [[1]]", (ExpressionSyntaxError, "unexpected trailing '['", 2)),
    ("[[1], [2, 3]]", (ValidationError, "ragged matrix literal", None)),
    ("[[1, - 1e400]]", (ExpressionSyntaxError, "number '1e400' is too large",
                        7)),
    # the descent reads the entry before it sees the rows' lengths
    ("[[1e400], [2, 3]]", (ExpressionSyntaxError,
                           "number '1e400' is too large", 2)),
])
def test_literal_token_errors(source, outcome):
    kind, message, position = outcome
    assert [token.kind for token in _tokenize(source)].count("mat") == 1
    got = _parsed(_Parser, source)
    assert got[0] is kind and got[1].startswith(message) and got[2] == position
    assert got == _parsed(_DescentParser, source)


# number-only literals that are one token: a number, negated with or
# without blanks, blanks around it
_number_entries = st.tuples(
    st.sampled_from(["", "", "-", "- ", "-\t", " - "]),
    st.sampled_from(["0", "1", "2.5", ".5", "3.", "007", "1e-3", "2E+2",
                     "0.0", "5e-324", "1e308", "0.1",
                     "1.7976931348623157e308"]),
    st.sampled_from(["", "", " ", "\n"])).map("".join)
_number_literals = st.integers(1, 3).flatmap(
    lambda width: st.lists(st.lists(_number_entries, min_size=width,
                                    max_size=width),
                           min_size=1, max_size=3)).map(
    lambda rows: "[" + ", ".join("[" + ",".join(row) + "]"
                                 for row in rows) + "]")


@SETTINGS
@given(_number_literals)
@example("[[-0, - 0, 0], [-\t0.0, 0.0, - .0]]")
def test_literal_constant_is_the_descent_value(source):
    # the constant of the one-token literal, bit for bit and sign for sign,
    # against the entries of the descent's tree evaluated one by one
    assert [token.kind for token in _tokenize(source)] == ["mat", "end"]
    literal = _Parser(source).parse()
    tree = _DescentParser(source).parse()
    want = np.array([[evaluate(entry, {}).primal for entry in row]
                     for row in tree.rows])
    assert literal.constant.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(literal.constant), np.signbit(want))
    assert literal == tree


def test_literal_token_builds_the_descent_tree():
    source = "[[1, - 2.5, -0], [ .5 ,3., 1e-3]] * x1"
    assert [token.kind for token in _tokenize(source)] \
        == ["mat", "punct", "ident", "end"]
    got, want = _parsed(_Parser, source), _parsed(_DescentParser, source)
    assert got == want
    assert got[1] == "[[1, -2.5, -0], [0.5, 3, 0.001]] * x1"


# ----- mutated fixtures: exit code 0, 1 or 2, never a traceback -------

# fixture -> the CLI call that reads it, "{}" standing for its path
_FIXTURE_RUNS = {
    "abelian.json": ["verify", "{}"],
    "flat.json": ["verify", "{}"],
    "tower_unipotent.json": ["tower", "{}"],
    "morphism_squaring.json": ["push", fixture_path("monopole_k1.json"),
                               "{}"],
    "sphere_levi_civita.json": ["convert-christoffel", "{}"],
    "path_abelian_two_charts.json": ["transport", fixture_path("abelian.json"),
                                     "{}", "--steps", "20"],
}

replacements = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="x12[],+-*e.() ", max_size=10),
    st.just([]), st.just({}), st.lists(st.integers(-1, 3), max_size=3),
    st.just("1e400*[[0,-1],[1,0]]"), st.just("U1,U2"))


def _locations(node, path=()):
    """Every (container path, key) in a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path, key
        yield from _locations(value, path + (key,))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_FIXTURE_RUNS)), st.data())
def test_mutated_fixture_exits_with_a_code(name, data):
    with open(fixture_path(name), encoding="utf-8") as handle:
        doc = json.load(handle)
    path, key = data.draw(st.sampled_from(list(_locations(doc))))
    container = doc
    for step in path:
        container = container[step]
    if data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(replacements)
    with tempfile.TemporaryDirectory() as tmp:
        variant = os.path.join(tmp, name)
        with open(variant, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([variant if arg == "{}" else arg
                         for arg in _FIXTURE_RUNS[name]]
                        + ["--grid", "2", "--random", "2",
                           "--out", os.path.join(tmp, "report.json")])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert (code == 2) == any(line.startswith("error:") for line in lines)
