import dataclasses

import numpy as np
import pytest

from localforms.atlas import Overlap, sample
from localforms.connection import CallableForm, check_compatibility
from localforms.errors import AtlasMismatchError, MorphismCocycleViolation
from localforms.expr import parse
from localforms.lie import (ExprGroupMap, GroupMap, GroupMorphismSpec,
                            GroupSpec, InverseGroupMap, ProductGroupMap,
                            adjoint, batch_shape, exp_matrix, inverse,
                            log_diff_left)
from localforms.morphism import (MorphismData, associated_connection,
                                 check_morphism_cocycle, check_related,
                                 pushforward_connection)

from conftest import load_fixture

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _identity_phi(n=2):
    return GroupMorphismSpec(n, n, parse("g", [],
                                         matrix_params={"g": (n, n)}))


def _squaring_phi():
    return GroupMorphismSpec(2, 2, parse("g * g", [],
                                         matrix_params={"g": (2, 2)}))


def _random_h_family(rng, atlas):
    """Random SO(2)-valued maps, one per chart, with coefficients baked
    into the expressions."""
    family = {}
    for chart_id in atlas.charts:
        chart = atlas.chart(chart_id)
        c = rng.uniform(-1.0, 1.0, 3)
        terms = [repr(float(c[0]))]
        terms.append(f"{float(c[1])!r} * x1")
        terms.append(f"{float(c[2])!r} * sin(x1)")
        if chart.dim > 1:
            terms.append(f"{float(rng.uniform(-0.5, 0.5))!r} * cos(x2)")
        text = f"mexp(({' + '.join(terms)}) * [[0,-1],[1,0]])"
        family[chart_id] = ExprGroupMap(chart_id, parse(text, chart.coords))
    return family


@dataclasses.dataclass(frozen=True)
class _AtPushed(GroupMap):
    """f . psi: a map on an overlap's destination chart, read in the
    overlap's source-chart coordinates."""

    inner: GroupMap
    overlap: Overlap

    def value(self, x):
        return self.inner.value(self.overlap.map_point(x))

    def jet(self, x, v):
        return self.inner.jet(*self.overlap.push(x, v))


@dataclasses.dataclass(frozen=True)
class _Mapped(GroupMap):
    """phi . f for a map f with no expression tree: phi's jet at f's jet."""

    phi: GroupMorphismSpec
    inner: GroupMap

    def value(self, x):
        return self.phi.apply(self.inner.value(x))

    def jet(self, x, v):
        return self.phi.jet(*self.inner.jet(x, v))


def _after(phi, g):
    """phi . g: one tree for an expression map, else a _Mapped."""
    if isinstance(g, ExprGroupMap):
        return ExprGroupMap(g.chart, phi.of(g.ast))
    return _Mapped(phi, g)


def _completed_transitions(source, m):
    """Target transition family generated by the morphism data itself:
    h_a . phi(g_ab) . h_b(psi x)^-1 on each declared overlap."""
    out = {}
    for (a, b), g in source.transitions.items():
        ov = source.atlas.require_overlap(a, b)
        pulled = _AtPushed(m.h_map(b), ov)
        out[(a, b)] = ProductGroupMap(
            ProductGroupMap(m.h_map(a), _after(m.phi, g)),
            InverseGroupMap(pulled))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_construct_then_verify(seed):
    # a random h family always carries omega to a related connection, and
    # the generated target transitions satisfy the morphism cocycle
    source = load_fixture("abelian.json", grid=6, random=6)
    rng = np.random.default_rng(seed)
    m = MorphismData(_identity_phi(), _random_h_family(rng, source.atlas),
                     GroupSpec("SO(2)", 2, (J,)))
    transitions = _completed_transitions(source, m)
    assert check_morphism_cocycle(m, source, transitions, 1e-8).passed
    theta = pushforward_connection(source, m, transitions)
    assert check_related(source, theta, m, 1e-8).passed
    assert check_compatibility(theta, 1e-8).passed


def test_morphism_cocycle_evaluates_h_b_at_the_moved_point():
    # on the monopole psi moves x1 to pi - x1, so an h that depends on x1
    # takes different values at x and psi(x): the completed transitions
    # h_a(x) phi(g_ab(x)) h_b(psi(x))^-1 pass, those with h_b(x) do not
    source = load_fixture("monopole_k1.json", grid=4, random=4)
    rng = np.random.default_rng(61)
    m = MorphismData(_identity_phi(), _random_h_family(rng, source.atlas),
                     GroupSpec("SO(2)", 2, (J,)))
    assert check_morphism_cocycle(m, source,
                                  _completed_transitions(source, m)).passed
    at_x = {(a, b): ProductGroupMap(ProductGroupMap(
        m.h_map(a), _after(m.phi, g)), InverseGroupMap(m.h_map(b)))
        for (a, b), g in source.transitions.items()}
    report = check_morphism_cocycle(m, source, at_x)
    assert all(c.max_residual > 1e-3 for c in report.checks)


def test_pushforward_of_an_h_that_does_not_commute_with_its_derivative():
    # h = exp(c x1 J) exp(c x1 Y) with [J, Y] != 0, so dh h^-1 = c (J +
    # h Y h^-1) and h^-1 dh = c (h^-1 J h + Y) differ: only the pushforward
    # with dh h^-1 is related to omega and compatible
    source = load_fixture("abelian.json", grid=6, random=6)
    h = {chart_id: ExprGroupMap(chart_id, parse(
        f"mexp({c} * x1 * [[0,-1],[1,0]]) * mexp({c} * x1 * [[1,0],[0,-1]])",
        ["x1"])) for chart_id, c in (("U1", 0.7), ("U2", -0.4))}
    m = MorphismData(_identity_phi(), h, GroupSpec("GL(2)", 2))
    transitions = _completed_transitions(source, m)
    theta = pushforward_connection(source, m, transitions)
    x, e = source.points("U1"), np.eye(1)[:, None]
    hx, dh = h["U1"].jet(x, e)
    assert np.linalg.norm(dh @ inverse(hx) - inverse(hx) @ dh) > 0.1
    assert check_related(source, theta, m, 1e-8).passed
    assert check_compatibility(theta, 1e-8).passed


def test_pushforward_uniqueness_two_code_paths():
    # the unique related connection, built once by the library's formula
    # Ad(h).phibar(omega) - dh.h^-1 and once via the left logarithmic
    # differential identity Ad(h).(phibar(omega) - h^-1 dh)
    source = load_fixture("abelian.json", grid=6, random=6)
    rng = np.random.default_rng(99)
    m = MorphismData(_identity_phi(), _random_h_family(rng, source.atlas),
                     GroupSpec("SO(2)", 2, (J,)))
    transitions = _completed_transitions(source, m)
    theta = pushforward_connection(source, m, transitions)

    manual_forms = {}
    for chart_id, form in source.forms.items():
        h = m.h_map(chart_id)

        def fn(x, v, _form=form, _h=h):
            inner = m.phi.induced(_form(x, v)) - log_diff_left(_h, x, v)
            return adjoint(_h.value(x), inner)

        manual_forms[chart_id] = CallableForm(fn)

    for chart_id in source.atlas.charts:
        chart = source.atlas.chart(chart_id)
        pts = sample(source.sample_plan, chart.box)
        for x in pts:
            for i in range(chart.dim):
                e = np.zeros(chart.dim)
                e[i] = 1.0
                delta = theta.forms[chart_id](x, e) \
                    - manual_forms[chart_id](x, e)
                assert np.linalg.norm(delta) < 1e-7


def test_pushforward_transitivity():
    source = load_fixture("abelian.json", grid=5, random=5)
    rng = np.random.default_rng(7)
    phi1 = _identity_phi()
    phi2 = _squaring_phi()
    h1 = _random_h_family(rng, source.atlas)
    h2 = _random_h_family(rng, source.atlas)
    group = GroupSpec("SO(2)", 2, (J,))
    m1 = MorphismData(phi1, h1, group)
    m2 = MorphismData(phi2, h2, group)
    t1 = _completed_transitions(source, m1)
    mid = pushforward_connection(source, m1, t1)
    t2 = _completed_transitions(mid, m2)
    final = pushforward_connection(mid, m2, t2)

    # composite morphism: phi = phi2 . phi1, h_a = h2_a . phi2(h1_a)
    h12 = {c: ProductGroupMap(h2[c], _after(phi2, h1[c]))
           for c in source.atlas.charts}
    m12 = MorphismData(phi2.compose(phi1), h12, group)
    t12 = _completed_transitions(source, m12)
    direct = pushforward_connection(source, m12, t12)

    for chart_id in source.atlas.charts:
        chart = source.atlas.chart(chart_id)
        pts = sample(source.sample_plan, chart.box)
        for x in pts:
            delta = final.forms[chart_id](x, [1.0]) \
                - direct.forms[chart_id](x, [1.0])
            assert np.linalg.norm(delta) < 1e-7
        assert chart.dim == 1


def test_monopole_charge_doubling_is_related():
    k1 = load_fixture("monopole_k1.json", grid=5, random=5)
    k2 = load_fixture("monopole_k2.json", grid=5, random=5)
    m = MorphismData(_squaring_phi(), {}, GroupSpec("SO(2)", 2, (J,)))
    assert check_related(k1, k2, m, 1e-8).passed
    assert check_morphism_cocycle(m, k1, k2.transitions, 1e-8).passed


def test_induced_commutes_with_adjoint():
    # phibar(Ad(a^-1) X) = Ad(phi(a)^-1) phibar(X)
    rng = np.random.default_rng(31)
    phi = _squaring_phi()
    for _ in range(20):
        a = exp_matrix(rng.uniform(-1.5, 1.5) * J)
        x = rng.uniform(-1.0, 1.0) * J
        lhs = phi.induced(adjoint(inverse(a), x))
        rhs = adjoint(inverse(phi.apply(a)), phi.induced(x))
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_logdiff_naturality_under_morphisms():
    # phibar(g^-1 dg) = (phi.g)^-1 d(phi.g)
    rng = np.random.default_rng(32)
    phi = _squaring_phi()
    g = ExprGroupMap("U", parse("mexp((x1^2 - sin(x1)) * [[0,-1],[1,0]])",
                                ["x1"]))
    composed = ExprGroupMap(g.chart, phi.of(g.ast))
    for _ in range(20):
        x = rng.uniform(0.1, 1.9, 1)
        v = rng.normal(size=1)
        lhs = phi.induced(log_diff_left(g, x, v))
        rhs = log_diff_left(composed, x, v)
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_logdiff_of_right_quotient():
    # (f g^-1)^-1 d(f g^-1) = -dg.g^-1 + Ad(g).(f^-1 df)
    rng = np.random.default_rng(33)
    from test_lie import random_group_map
    for _ in range(20):
        f = random_group_map(rng, 3)
        g = random_group_map(rng, 3)
        fg_inv = ProductGroupMap(f, InverseGroupMap(g))
        x = rng.uniform(0.2, 1.5, 2)
        v = rng.normal(size=2)
        lhs = log_diff_left(fg_inv, x, v)
        g_x, dg = g.jet(x, v)
        rhs = -dg @ inverse(g_x) \
            + adjoint(g.value(x), log_diff_left(f, x, v))
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_associated_connection_of_squaring_doubles_the_charge():
    k1 = load_fixture("monopole_k1.json", grid=5, random=5)
    assoc = associated_connection(k1, _squaring_phi(),
                                  GroupSpec("SO(2)", 2, (J,)))
    assert check_compatibility(assoc, 1e-8).passed
    k2 = load_fixture("monopole_k2.json", grid=5, random=5)
    rng = np.random.default_rng(36)
    for _ in range(10):
        x = rng.uniform([0.1, 0.0], [1.9, 6.0])
        v = rng.normal(size=2)
        delta = assoc.forms["U_N"](x, v) - k2.forms["U_N"](x, v)
        assert np.linalg.norm(delta) < 1e-12


def test_pushforward_rejects_bad_target_transitions():
    source = load_fixture("abelian.json", grid=4, random=4)
    m = MorphismData(_identity_phi(), {}, GroupSpec("SO(2)", 2, (J,)))
    bad = {key: ProductGroupMap(
        g, ExprGroupMap(key[0], parse("mexp(0.3 * [[0,-1],[1,0]])", ["x1"])))
        for key, g in source.transitions.items()}
    with pytest.raises(MorphismCocycleViolation):
        pushforward_connection(source, m, bad)


def test_related_requires_shared_atlas():
    abelian = load_fixture("abelian.json", grid=4, random=4)
    monopole = load_fixture("monopole_k1.json", grid=4, random=4)
    m = MorphismData(_identity_phi(), {}, GroupSpec("SO(2)", 2, (J,)))
    with pytest.raises(AtlasMismatchError):
        check_related(abelian, monopole, m)


def test_unrelated_connections_fail():
    k1 = load_fixture("monopole_k1.json", grid=4, random=4)
    k3 = load_fixture("monopole_k3.json", grid=4, random=4)
    m = MorphismData(_squaring_phi(), {}, GroupSpec("SO(2)", 2, (J,)))
    report = check_related(k1, k3, m, 1e-8)
    assert not report.passed
    assert max(c.max_residual for c in report.checks) > 1e-3


def _identity_h_twin(tmp_path, name):
    """A copy of a morphism file that declares h = I on every sphere chart."""
    import json
    from conftest import fixture_path
    doc = json.loads(open(fixture_path(name)).read())
    doc["h"] = {chart: "[[1,0],[0,1]]" for chart in ("U_N", "U_S")}
    path = tmp_path / f"unit_{name}"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["relate", "monopole_k1.json", "monopole_k2.json"],
    ["relate", "monopole_k1_mutated.json", "monopole_k2.json"],
    ["push", "monopole_k1.json"],
])
def test_explicit_identity_h_changes_no_residual(tmp_path, argv):
    # a chart without h is gauged by nothing; a declared unit h is gauged by
    # Ad(I^-1) and I^-1 dI = 0, which leave finite residuals bit for bit
    from conftest import fixture_path
    from localforms.cli import main
    command, *bundles = argv
    files = [fixture_path(name) for name in bundles]
    reports = []
    for morphism in (fixture_path("morphism_squaring.json"),
                     _identity_h_twin(tmp_path, "morphism_squaring.json")):
        out = tmp_path / "report.json"
        code = main([command, *files, morphism, "--grid", "4", "--random",
                     "5", "--out", str(out)])
        reports.append((code, out.read_text()))
    assert reports[0] == reports[1]


def test_no_h_gives_an_inf_residual_not_nan():
    # with a unit gauge, 0 * inf in Ad(I) turned an infinite form value into
    # NaN; with no gauge the residual stays inf
    source = load_fixture("abelian.json", grid=3, random=0)
    m = MorphismData(_identity_phi(), {}, GroupSpec("SO(2)", 2, (J,)))
    blown = dataclasses.replace(source, forms={
        chart: CallableForm(lambda x, v: np.full(
            batch_shape(x, v) + (2, 2), np.inf))
        for chart in source.forms})
    report = check_related(source, blown, m)
    assert all(check.max_residual == np.inf for check in report.checks)


def test_push_samples_each_overlap_once(tmp_path, monkeypatch):
    # the morphism cocycle and the pushed data's compatibility share one
    # sample set per overlap; with no h the cocycle pushes nothing
    from conftest import fixture_path
    from localforms.cli import main
    from test_connection import _counting_samples_and_pushes
    boxes, pushes = _counting_samples_and_pushes(monkeypatch)
    assert main(["push", fixture_path("monopole_k1.json"),
                 fixture_path("morphism_squaring.json"), "--grid", "4",
                 "--out", str(tmp_path / "report.json")]) == 0
    atlas = load_fixture("monopole_k1.json").atlas
    domains = [ov.domain for ov in atlas.overlaps]
    assert sorted(box for box in boxes if box in domains) == sorted(domains)
    assert sorted(pushes) == sorted((ov.src, ov.dst) for ov in atlas.overlaps)


def test_morphism_results_are_read_only():
    # the identity's image is a read-only view of the caller's own array,
    # which stays writable; a smaller walk result is broadcast
    g = np.stack([exp_matrix(t * J) for t in (0.1, 0.2, 0.3)])
    E = np.stack([J, 2 * J, 3 * J])
    identity, const = _identity_phi(), GroupMorphismSpec(
        2, 2, parse("[[1,0],[0,1]]", [], matrix_params={"g": (2, 2)}))
    results = [identity.apply(g), *identity.jet(g, E), identity.induced(E),
               _squaring_phi().apply(g), *_squaring_phi().jet(g[0], E),
               const.apply(g), *const.jet(g, E)]
    assert [r.shape for r in results] \
        == [(3, 2, 2)] * 5 + [(2, 2)] + [(3, 2, 2)] * 4
    assert not any(r.flags.writeable for r in results)
    assert np.shares_memory(results[0], g) and g.flags.writeable
    assert E.flags.writeable
    np.testing.assert_array_equal(results[0], g)


def test_atlas_memo_does_not_freeze_a_mapped_array():
    # the memo freezes the identity's image, a view, not the map's array
    class Held(GroupMap):
        def value(self, x):
            return held

    source = load_fixture("abelian.json", grid=3, random=0)
    pts = source.points("U1")
    held = np.stack([np.eye(2)] * len(pts))
    image = source.atlas.value(_Mapped(_identity_phi(), Held()), pts)
    assert not image.flags.writeable and held.flags.writeable


@pytest.mark.parametrize("morphism", ["morphism_gauge.json",
                                      "morphism_squaring.json"])
def test_push_walks_each_source_form_once_per_sample_set(tmp_path,
                                                         monkeypatch,
                                                         morphism):
    # relatedness's phibar(omega_a) and the pushed theta_a at the chart's
    # points share one memo entry; the pushed data's compatibility takes
    # the rest: 2 charts + 2 overlaps x (source, pushed points)
    from conftest import fixture_path
    from localforms.cli import main
    from localforms.connection import ExprForm
    forms, induced = [], []
    call, induce = ExprForm.__call__, GroupMorphismSpec.induced
    monkeypatch.setattr(ExprForm, "__call__", lambda self, x, v:
                        forms.append(self) or call(self, x, v))
    monkeypatch.setattr(GroupMorphismSpec, "induced", lambda self, X:
                        induced.append(self) or induce(self, X))
    assert main(["push", fixture_path("monopole_k1.json"),
                 fixture_path(morphism), "--grid", "4",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert (len(forms), len(induced)) == (6, 6)
