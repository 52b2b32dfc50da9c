import dataclasses
import re

import numpy as np
import pytest

import localforms.cli
from localforms.bundle_io import load_bundle, load_tower
from localforms.cli import main
from localforms.errors import (DomainError, ExpressionSyntaxError, ShapeError,
                               ValidationError)
from localforms.expr import (Binary, Call, Dual, ExprAST, MatLit, Num, Unary,
                             parse)

from conftest import fixture_path


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
    assert parse("atan2(1, 0)", []).eval([]) == pytest.approx(np.pi / 2)
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
    # a param is bound to its value when the expression is parsed
    assert parse("k * x1", ["x1"], {"k": 3.0}).eval([2.0]) == 6.0
    with pytest.raises(ValidationError, match="unknown identifier 'k'"):
        parse("k * x1", ["x1"])


@pytest.mark.parametrize("value, text", [
    (3.0, "3"), (0.5, "0.5"), (0.0, "0"), (-2.5, "-2.5"), (-0.0, "-0"),
    (1e300, "1e300")])
def test_params_are_constants_of_the_tree(value, text):
    # a param becomes the tree its value's own text parses to, so printing
    # the tree and parsing it back needs no params
    ast = parse("k * x1 * [[k, 1]] * transpose([[x1, k]])", ["x1"],
                {"k": value})
    assert ast.root == parse(f"{text} * x1 * [[{text}, 1]] * "
                             f"transpose([[x1, {text}]])", ["x1"]).root
    assert parse(ast.to_source(), ["x1"]).root == ast.root
    assert "params" not in {f.name for f in dataclasses.fields(ExprAST)}
    got = parse("k", [], {"k": value}).eval([])
    assert got == value and np.signbit(got) == np.signbit(value)


def test_a_variable_hides_a_param_of_its_name():
    assert parse("x1 * k", ["x1"], {"x1": 0.5, "k": 2.0}).eval([3.0]) == 6.0
    assert parse("t", ["t"], {"t": 0.5}).eval([3.0]) == 3.0
    phi = parse("g * k", [], {"g": 9.81, "k": 2.0}, {"g": (2, 2)})
    assert phi.shape == (2, 2)
    assert np.array_equal(phi.eval_bound({"g": Dual.matrix(np.eye(2))})
                          .primal, 2 * np.eye(2))


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


@pytest.mark.parametrize("call, message", [
    (lambda: parse("x1 + x2", ["x1", "x2"]).eval([1.0, 2.0, 3.0]),
     "expected 2 coordinates, got 3"),
    (lambda: parse("x1 + x2", ["x1", "x2"]).eval_dual(
        [1.0, 2.0], seeds=[[1.0, 0.0, 0.0]]), "seed dimension mismatch"),
    (lambda: parse("g", [], matrix_params={"g": (2, 2)}).eval([]),
     "unbound identifier 'g'"),
    # trees built by hand reach what the parser never builds
    (lambda: ExprAST(Binary("%", Num(1.0), Num(2.0)), ()),
     "unknown operator '%'"),
    (lambda: ExprAST(Call("foo", (Num(1.0),)), ()), "unknown function 'foo'"),
], ids=["coordinates", "seeds", "unbound", "operator", "function"])
def test_library_calls_name_what_they_reject(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


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
            value[i, j] = entry.evaluate({}).primal
    return value


def test_constant_matrix_literal_is_built_once_read_only():
    ast = parse("[[1, -2.5], [-0, 0.1]]", [])
    constant = ast.root.constant
    assert constant is not None and not constant.flags.writeable
    with pytest.raises(ValueError):
        constant[0, 0] = 7.0
    assert ast.root.evaluate({}).primal is constant
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


# ----- one literal table per document -----------------------------------

def _literal_nodes(asts):
    """Every MatLit node of the trees of `asts`, keyed by identity."""
    found = {}
    stack = [ast.root for ast in asts]
    while stack:
        node = stack.pop()
        if isinstance(node, MatLit):
            found[id(node)] = node
            stack.extend(entry for row in node.rows for entry in row)
        elif isinstance(node, Binary):
            stack += [node.left, node.right]
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack.extend(node.args)
    return found


def _bundle_asts(data):
    return ([g.ast for g in data.transitions.values()]
            + [ast for form in data.forms.values() for ast in form.coeffs]
            + [ast for ov in data.atlas.overlaps for ast in ov.coord_change])


def _tower_asts(tower):
    return ([ast for level in tower.levels for ast in _bundle_asts(level)]
            + [spec.phi for spec in tower.connectors.values()])


def test_a_literal_text_is_one_node_in_its_document():
    # each level of the tower spells its nilpotent block in both
    # transitions and both forms
    tower = load_tower(fixture_path("tower_unipotent.json"))
    for level in tower.levels:
        blocks = [level.transitions[("U1", "U2")].ast.root.args[0].right,
                  level.transitions[("U2", "U1")].ast.root.args[0].right,
                  level.forms["U1"].coeffs[0].root.right,
                  level.forms["U2"].coeffs[0].root.right]
        assert all(type(block) is MatLit for block in blocks)
        assert all(block is blocks[0] for block in blocks)
        n = level.group.n
        assert blocks[0].constant.tolist() == np.eye(n, k=1).tolist()
    # a connector's truncation, and its transpose's argument
    root = tower.connectors[(3, 1)].phi.root
    assert root.left.left is root.right.args[0]


def test_no_literal_node_outlives_its_load():
    tower = fixture_path("tower_unipotent.json")
    first, second = (_literal_nodes(_tower_asts(load_tower(tower)))
                     for _ in range(2))
    assert first and not first.keys() & second.keys()
    bundle = fixture_path("abelian.json")
    first, second = (_literal_nodes(_bundle_asts(load_bundle(bundle)))
                     for _ in range(2))
    assert first and not first.keys() & second.keys()


def test_relate_reads_its_bundles_with_their_own_tables(monkeypatch,
                                                         tmp_path):
    # relate reads one file as both its source and its target bundle
    seen = []
    check_related = localforms.cli.check_related

    def spy(source, target, *args):
        seen.append((source, target))
        return check_related(source, target, *args)

    monkeypatch.setattr(localforms.cli, "check_related", spy)
    out = tmp_path / "report.json"
    assert main(["relate", fixture_path("abelian.json"),
                 fixture_path("abelian.json"),
                 fixture_path("morphism_identity.json"),
                 "--out", str(out)]) == 0
    (source, target), = seen
    source_nodes = _literal_nodes(_bundle_asts(source))
    target_nodes = _literal_nodes(_bundle_asts(target))
    assert source_nodes and not source_nodes.keys() & target_nodes.keys()
