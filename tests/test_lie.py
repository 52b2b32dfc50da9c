import numpy as np
import pytest

from localforms.errors import (GroupMismatchError, LevelOutOfRange,
                               ShapeError, SingularMatrixError)
from localforms.expr import Binary, parse
from localforms.lie import (ConstGroupMap, ExprGroupMap, GroupMorphismSpec,
                            GroupSpec, InverseGroupMap, ProductGroupMap,
                            adjoint, ensure_invertible, exp_matrix,
                            identity_morphism, inverse, log_diff_left)

J = np.array([[0.0, -1.0], [1.0, 0.0]])

# so(3) basis with [L1, L2] = L3 cyclically
L1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
L2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
L3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _matrix_text(m):
    rows = ",".join(
        "[" + ",".join(repr(float(v)) for v in row) + "]" for row in m)
    return f"[{rows}]"


def random_group_map(rng, n, coords=("x1", "x2")):
    """A generic group-valued map mexp(sin(x1) A + cos(x2) B) with random
    constant matrices baked into the expression."""
    a = _matrix_text(rng.uniform(-0.8, 0.8, (n, n)))
    b = _matrix_text(rng.uniform(-0.8, 0.8, (n, n)))
    text = f"mexp(sin(x1) * {a} + cos(x2) * {b})"
    return ExprGroupMap("U", parse(text, coords))


def test_exp_rotation_closed_form():
    for t in np.linspace(-3.0, 3.0, 7):
        want = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        assert np.allclose(exp_matrix(t * J), want, atol=1e-14)


def test_exp_inverse_law():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, (4, 4))
        x *= 10.0 / max(np.linalg.norm(x), 10.0)
        assert np.linalg.norm(
            exp_matrix(x) @ exp_matrix(-x) - np.eye(4)) < 1e-10


def test_adjoint_rotates_so3_basis():
    # conjugating by a rotation about the 3-axis rotates the (L1, L2) plane
    for t in np.linspace(-2.0, 2.0, 9):
        g = exp_matrix(t * L3)
        assert np.allclose(adjoint(g, L1), np.cos(t) * L1 + np.sin(t) * L2,
                           atol=1e-12)
        assert np.allclose(adjoint(g, L2), -np.sin(t) * L1 + np.cos(t) * L2,
                           atol=1e-12)
        assert np.allclose(adjoint(g, L3), L3, atol=1e-12)


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrixError):
        ensure_invertible(np.zeros((2, 2)))
    with pytest.raises(SingularMatrixError):
        inverse([[1.0, 1.0], [1.0, 1.0]])


def test_group_spec_sampling_uses_generators():
    spec = GroupSpec("SO(2)", 2, (J,))
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = spec.sample_algebra(rng)
        assert np.allclose(x, x[1, 0] * J)
        g = spec.sample_group(rng)
        assert np.allclose(g @ g.T, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("generators", [None, (J, np.eye(2))])
def test_stacked_algebra_samples_continue_the_single_stream(generators):
    spec = GroupSpec("G", 2, generators)
    single = np.random.default_rng(5)
    stacked = np.random.default_rng(5)
    one_by_one = np.stack([spec.sample_algebra(single) for _ in range(6)])
    assert one_by_one.shape == (6, 2, 2)
    assert np.allclose(spec.sample_algebra(stacked, shape=(2, 3)),
                       one_by_one.reshape(2, 3, 2, 2), rtol=0, atol=1e-15)
    assert single.random() == stacked.random()
    assert spec.sample_group(stacked, shape=(4,)).shape == (4, 2, 2)


def test_log_diff_product_rule():
    # d(g h) translated on the left: Ad(h^-1) (g^-1 dg) + h^-1 dh
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_group_map(rng, 3)
        h = random_group_map(rng, 3)
        gh = ProductGroupMap(g, h)
        x = rng.uniform(0.2, 1.5, 2)
        v = rng.normal(size=2)
        lhs = log_diff_left(gh, x, v)
        rhs = adjoint(inverse(h.value(x)), log_diff_left(g, x, v)) \
            + log_diff_left(h, x, v)
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_log_diff_inverse_sign():
    # the left logarithmic differential of a pointwise inverse carries a
    # minus sign: (a^-1)^-1 d(a^-1) = -Ad(a) (a^-1 da)
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = random_group_map(rng, 3)
        x = rng.uniform(0.2, 1.5, 2)
        v = rng.normal(size=2)
        lhs = log_diff_left(InverseGroupMap(a), x, v)
        rhs = -adjoint(a.value(x), log_diff_left(a, x, v))
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_left_right_interchange():
    rng = np.random.default_rng(13)
    for _ in range(25):
        f = random_group_map(rng, 3)
        x = rng.uniform(0.2, 1.5, 2)
        v = rng.normal(size=2)
        lhs = log_diff_left(f, x, v)
        value, d_value = f.jet(x, v)
        rhs = adjoint(inverse(f.value(x)), d_value @ inverse(value))
        assert np.linalg.norm(lhs - rhs) < 1e-8


def _squaring():
    return GroupMorphismSpec(2, 2, parse("g * g", [],
                                         matrix_params={"g": (2, 2)}))


def _conjugation(a):
    text = f"{_matrix_text(a)} * g * inv({_matrix_text(a)})"
    return GroupMorphismSpec(3, 3, parse(text, [],
                                         matrix_params={"g": (3, 3)}))


def test_induced_of_squaring_doubles():
    phi = _squaring()
    x = 0.37 * J
    assert np.allclose(phi.induced(x), 2.0 * x, atol=1e-12)


def test_induced_of_identity():
    phi = identity_morphism(3)
    x = np.arange(9.0).reshape(3, 3)
    assert np.allclose(phi.induced(x), x)
    assert np.allclose(phi.apply(exp_matrix(L1)), exp_matrix(L1))


def test_induced_linearity():
    rng = np.random.default_rng(21)
    phi = _conjugation(rng.uniform(-1.0, 1.0, (3, 3)) + 2 * np.eye(3))
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, (3, 3))
        y = rng.uniform(-1.0, 1.0, (3, 3))
        a, b = rng.uniform(-2.0, 2.0, 2)
        lhs = phi.induced(a * x + b * y)
        rhs = a * phi.induced(x) + b * phi.induced(y)
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_induced_respects_brackets():
    rng = np.random.default_rng(22)
    phi = _conjugation(rng.uniform(-1.0, 1.0, (3, 3)) + 2 * np.eye(3))
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, (3, 3))
        y = rng.uniform(-1.0, 1.0, (3, 3))
        lhs = phi.induced(x @ y - y @ x)
        px, py = phi.induced(x), phi.induced(y)
        rhs = px @ py - py @ px
        assert np.linalg.norm(lhs - rhs) < 1e-7


def test_homomorphism_law_sampled():
    rng = np.random.default_rng(23)
    spec = GroupSpec("SO(2)", 2, (J,))
    phi = _squaring()
    for _ in range(100):
        a = spec.sample_group(rng)
        b = spec.sample_group(rng)
        assert np.linalg.norm(
            phi.apply(a @ b) - phi.apply(a) @ phi.apply(b)) < 1e-8


def test_morphism_composition_chain_rule():
    rng = np.random.default_rng(24)
    phi = _squaring().compose(_squaring())  # g -> g^4 on SO(2)
    g = exp_matrix(0.3 * J)
    assert np.allclose(phi.apply(g), np.linalg.matrix_power(g, 4),
                       atol=1e-12)
    e = rng.uniform(-1.0, 1.0, (2, 2))
    direct = GroupMorphismSpec(
        2, 2, parse("g * g * g * g", [], matrix_params={"g": (2, 2)}))
    assert np.allclose(phi.jet(g, e)[1], direct.jet(g, e)[1],
                       atol=1e-10)
    assert np.allclose(phi.induced(J), 4.0 * J, atol=1e-12)


def test_a_chain_of_squarings_walks_each_inner_tree_once(monkeypatch):
    # squaring composed 20 times is g^(2^20), one tree that binds each
    # link's value once: a walk takes 20 products, not 2^20
    phi = _squaring()
    for _ in range(19):
        phi = _squaring().compose(phi)
    products = []
    evaluate = Binary.evaluate
    monkeypatch.setattr(Binary, "evaluate", lambda self, bindings:
                        products.append(self) or evaluate(self, bindings))
    t = 0.3 / 2 ** 20
    g = exp_matrix(t * J)
    assert np.allclose(phi.apply(g), exp_matrix(0.3 * J), atol=1e-9)
    assert len(products) == 20
    # on SO(2), the derivative of g^N along J is N g^(N-1) J
    assert np.allclose(phi.jet(g, J)[1] / 2 ** 20,
                       exp_matrix((0.3 - t) * J) @ J, rtol=0, atol=1e-8)
    assert len(products) == 40


def test_morphism_dimension_checks():
    phi = _squaring()
    with pytest.raises(GroupMismatchError):
        phi.apply(np.eye(3))
    with pytest.raises(GroupMismatchError):
        phi.induced(np.eye(3))
    with pytest.raises(GroupMismatchError):
        _squaring().compose(_conjugation(np.eye(3)))


def test_a_jet_direction_has_the_shape_of_its_argument():
    with pytest.raises(ShapeError,
                       match="^matrix tangent shape does not match primal$"):
        identity_morphism(2).jet(np.eye(2), np.zeros((3, 3)))


def test_composed_group_map():
    phi = _squaring()
    g = ExprGroupMap("U", parse("mexp(x1 * [[0,-1],[1,0]])", ["x1"]))
    composed = ExprGroupMap(g.chart, phi.of(g.ast))
    t = 0.6
    assert np.allclose(composed.value([t]), exp_matrix(2 * t * J),
                       atol=1e-13)
    want = 2.0 * J @ exp_matrix(2 * t * J)
    assert np.allclose(composed.jet([t], [1.0])[1], want, atol=1e-12)


def test_const_map_derivative_vanishes():
    c = ConstGroupMap(np.eye(3))
    assert np.allclose(c.jet([0.0], [1.0])[1], np.zeros((3, 3)))


def test_jet_is_value_and_derivative_bit_for_bit():
    # one walk per jet gives the value's bits and the derivative of the
    # product, inverse and chain rules on the parts' values and derivatives
    rng = np.random.default_rng(31)
    f, h = random_group_map(rng, 2), random_group_map(rng, 2)
    x = rng.uniform(-1.0, 1.0, (5, 2))
    v = np.eye(2)[:, None]
    fx, hx = f.value(x), h.value(x)
    _, (df,) = f.ast.eval_dual(x, seeds=v[None])
    _, (dh,) = h.ast.eval_dual(x, seeds=v[None])
    square = _squaring()
    fourth = square.compose(square)
    cases = [
        (f, df),
        (ConstGroupMap(exp_matrix(0.4 * J)), np.zeros((2, 5, 2, 2))),
        (ProductGroupMap(f, h), df @ hx + fx @ dh),
        (InverseGroupMap(f), -inverse(fx) @ df @ inverse(fx)),
        (ExprGroupMap(f.chart, square.of(f.ast)), square.jet(fx, df)[1]),
        (ExprGroupMap(h.chart, fourth.of(h.ast)),
         square.jet(square.apply(hx), square.jet(hx, dh)[1])[1]),
    ]
    for g, want in cases:
        value, derivative = g.jet(x, v)
        assert value.tobytes() == g.value(x).tobytes()
        assert derivative.shape == want.shape
        assert derivative.tobytes() == np.ascontiguousarray(want).tobytes()
