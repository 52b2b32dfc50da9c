import numpy as np
import pytest

from localforms.errors import (DomainError, ExpressionSyntaxError, ShapeError,
                               ValidationError)
from localforms.expr import ExprAST, MatLit, Num, parse
from localforms.expr.evaluate import evaluate


def test_precedence():
    ast = parse("1 + 2*3^2", [])
    assert ast.eval([]) == 19.0


def test_unary_minus_binds_tighter_than_product():
    ast = parse("-2^2 * 3", ["x1"])
    assert ast.eval([0.0]) == -12.0


def test_left_associativity():
    assert parse("8 - 3 - 2", []).eval([]) == 3.0
    assert parse("8 / 2 / 2", []).eval([]) == 2.0


def test_scalar_functions():
    ast = parse("sin(x1)^2 + cos(x1)^2", ["x1"])
    assert ast.eval([0.7]) == pytest.approx(1.0, abs=1e-15)
    assert parse("atan2(1, 1)", []).eval([]) == pytest.approx(np.pi / 4)
    assert parse("sqrt(x1)", ["x1"]).eval([9.0]) == 3.0
    assert parse("log(exp(x1))", ["x1"]).eval([1.3]) == pytest.approx(1.3)


def test_negative_integer_exponent():
    assert parse("x1^-2", ["x1"]).eval([2.0]) == 0.25


def test_matrix_literal_shape_and_value():
    ast = parse("sin(x1) * [[0, -1], [1, 0]]", ["x1"])
    assert ast.shape == (2, 2)
    value = ast.eval([np.pi / 2])
    assert np.allclose(value, [[0.0, -1.0], [1.0, 0.0]])


def test_matrix_product_and_transpose():
    ast = parse("[[1, 2]] * transpose([[3, 4]])", [])
    assert ast.shape == (1, 1)
    assert ast.eval([])[0, 0] == 11.0


def test_mexp_rotation():
    ast = parse("mexp(x1 * [[0, -1], [1, 0]])", ["x1"])
    t = 0.37
    want = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    assert np.allclose(ast.eval([t]), want, atol=1e-14)


def test_inv_matrix():
    ast = parse("inv([[1, x1], [0, 1]])", ["x1"])
    assert np.allclose(ast.eval([3.0]), [[1.0, -3.0], [0.0, 1.0]])


def test_parameters_must_be_bound():
    ast = parse("k * x1", ["x1"], ["k"])
    assert ast.eval([2.0], {"k": 3.0}) == 6.0
    with pytest.raises(ValidationError):
        ast.eval([2.0], {})


def test_unknown_identifier():
    with pytest.raises(ValidationError, match="unknown identifier"):
        parse("x1 + y", ["x1"])


def test_unknown_function():
    with pytest.raises(ExpressionSyntaxError, match="unknown function"):
        parse("sinh(x1)", ["x1"])


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1 +", ["x1"])
    assert err.value.position == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1 + @", ["x1"])
    assert err.value.position == 5


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionSyntaxError, match="trailing"):
        parse("x1 x1", ["x1"])


def test_non_integer_exponent_rejected():
    with pytest.raises(ExpressionSyntaxError, match="integer exponent"):
        parse("x1^0.5", ["x1"])
    with pytest.raises(ExpressionSyntaxError):
        parse("x1^x1", ["x1"])


def test_ragged_matrix_rejected():
    with pytest.raises(ValidationError, match="ragged"):
        parse("[[1, 2], [3]]", [])


def test_tree_built_without_parse_is_checked():
    # a ragged literal once built and evaluated to a matrix whose missing
    # entry was uninitialized memory
    with pytest.raises(ValidationError, match="ragged"):
        ExprAST(MatLit(((Num(1.0), Num(2.0)), (Num(3.0),))), ())


def test_matrix_parameter_must_have_its_declared_shape():
    ast = parse("g", [], matrix_params={"g": (2, 2)})
    with pytest.raises(ShapeError, match="parameter 'g' has shape"):
        ast.eval(np.zeros(0), {"g": np.eye(3)})
    assert np.array_equal(ast.eval(np.zeros(0), {"g": np.eye(2)}), np.eye(2))


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        parse("[[1, 2], [3, 4]] + 1", [])
    with pytest.raises(ShapeError):
        parse("[[1, 2]] * [[3, 4]]", [])
    with pytest.raises(ShapeError):
        parse("1 / [[1, 0], [0, 1]]", [])
    with pytest.raises(ShapeError):
        parse("sin([[1, 0], [0, 1]])", [])
    with pytest.raises(ShapeError):
        parse("mexp([[1, 2, 3], [4, 5, 6]])", [])


def test_domain_errors():
    with pytest.raises(DomainError):
        parse("log(x1)", ["x1"]).eval([-1.0])
    with pytest.raises(DomainError):
        parse("sqrt(x1)", ["x1"]).eval([-1.0])
    with pytest.raises(DomainError):
        parse("1 / x1", ["x1"]).eval([0.0])


def test_print_parse_round_trip_is_stable():
    sources = [
        "-x1^2 * 3 - (x1 + 1) / 2",
        "sin(x1) * [[0, -1], [1, 0]] + cos(x1) * [[1, 0], [0, 1]]",
        "mexp(-(x1 - 2) * [[0, 1], [0, 0]])",
        "x1 - (x2 - x1) - x2 / (1 + x1^2)",
        "atan2(x2, x1) * transpose([[x1, x2]])",
    ]
    for source in sources:
        coords = ["x1", "x2"]
        ast = parse(source, coords)
        printed = ast.to_source()
        reparsed = parse(printed, coords)
        assert reparsed.to_source() == printed
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.uniform(0.1, 2.0, 2)
            assert np.allclose(ast.eval(x), reparsed.eval(x), rtol=0,
                               atol=0.0)


@pytest.mark.parametrize("source, position", [
    ("1e400*x1", 0), ("x1 + [[1, -1e308 * 10, 9e999]]", 23),
    ("x1^1e400", 3)])
def test_non_finite_literal_rejected(source, position):
    with pytest.raises(ExpressionSyntaxError, match="too large") as err:
        parse(source, ["x1"])
    assert err.value.position == position
    # a finite product that overflows only when evaluated still parses
    assert parse("1e308*10*x1", ["x1"]).eval([1.0]) == np.inf


def _entrywise(lit):
    """A matrix literal's value built entry by entry from each entry's own
    evaluation, as a walk without the constant cache builds it."""
    value = np.empty((len(lit.rows), len(lit.rows[0])))
    for i, row in enumerate(lit.rows):
        for j, entry in enumerate(row):
            value[i, j] = evaluate(entry, {}).primal
    return value


def test_constant_matrix_literal_is_built_once_read_only():
    ast = parse("[[1, -2.5], [-0, 0.1]]", [])
    constant = ast.root.constant
    assert constant is not None and not constant.flags.writeable
    with pytest.raises(ValueError):
        constant[0, 0] = 7.0
    assert evaluate(ast.root, {}).primal is constant
    assert ast.to_source() == "[[1, -2.5], [-0, 0.1]]"
    assert ast.root == parse("[[1, -2.5], [-0, 0.1]]", []).root
    # an entry that is not a (negated) number keeps the entrywise walk
    for source in ("[[1, x1]]", "[[1, 2^2]]", "[[1, --2]]", "[[1, (2)*1]]"):
        assert parse(source, ["x1"]).root.constant is None


def test_constant_matrix_literal_value_is_bit_identical():
    for source in ("[[-0, 0], [-1e-300, 1e308]]",
                   "[[0.1, -0.2, 0.3], [-5e-324, 7, -0.0]]",
                   "[[1, 0, 0, 0, 0, 0, 0, 0, 0]]",
                   "[[- 0, 1e-3], [-2.5, 007]]"):
        lit = parse(source, []).root
        assert lit.constant.tobytes() == _entrywise(lit).tobytes()
    assert np.signbit(parse("[[-0]]", []).eval([])[0, 0])
    # a truncation A * g * transpose(A) spells its literal twice; both
    # spellings give the one node
    A = "[[1, 0, -0], [0, -2.5, 1e-300]]"
    root = parse(f"{A} * g * transpose({A})", [],
                 matrix_params={"g": (3, 3)}).root
    lit = root.left.left
    assert lit.constant.tobytes() == _entrywise(lit).tobytes()
    assert root.right.args[0] is lit


def test_eval_never_returns_the_cached_literal():
    for source in ("[[1, 0], [0, -1]]", "transpose([[1, 2], [3, 4]])"):
        ast = parse(source, ["x1"])
        first = ast.eval([0.5])
        assert first.flags.writeable
        want = first.copy()
        first[...] = 99.0
        assert np.array_equal(ast.eval([0.5]), want)
        value, tangents = ast.eval_dual([0.5], seeds=[[1.0]])
        assert value.flags.writeable and not np.any(tangents)
