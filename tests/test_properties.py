"""Property tests: printing an expression and parsing it back gives an
expression with the same value, on random fully parenthesised sources."""

import numpy as np
from hypothesis import given, settings, strategies as st

from localforms.errors import DomainError
from localforms.expr import parse

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
