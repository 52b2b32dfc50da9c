import json

import numpy as np
import pytest

from localforms.atlas import Overlap
from localforms.bundle_io import load_bundle
from localforms.connection import (PointRep, TangentRep, chart_change,
                                   check_cocycle, check_compatibility,
                                   check_overlaps, fundamental_tangent,
                                   gauge_transform, global_form_eval,
                                   horizontal_lift)
from localforms.errors import DomainError, ValidationError
from localforms.expr import ExprAST, parse, parser
from localforms.lie import (ConstGroupMap, ExprGroupMap, InverseGroupMap,
                            ProductGroupMap, adjoint, exp_matrix, inverse,
                            log_diff_left)

from conftest import fixture_path, load_fixture

J = np.array([[0.0, -1.0], [1.0, 0.0]])

GOOD = ("flat.json", "abelian.json", "monopole_k1.json", "monopole_k2.json",
        "monopole_k3.json", "sphere_frame.json")
MUTATED = ("flat_mutated.json", "abelian_mutated.json",
           "monopole_k1_mutated.json", "sphere_frame_mutated.json")


@pytest.mark.parametrize("name", GOOD)
def test_good_fixtures_pass(name):
    data = load_fixture(name, grid=6, random=10)
    assert check_overlaps(data).passed
    assert check_cocycle(data, 1e-8).passed
    assert check_compatibility(data, 1e-8).passed


@pytest.mark.parametrize("name", MUTATED)
def test_mutated_fixtures_fail(name):
    data = load_fixture(name, grid=6, random=10)
    report = check_cocycle(data, 1e-8)
    report.merge(check_compatibility(data, 1e-8))
    failing = [c for c in report.checks if not c.passed]
    assert failing
    assert max(c.max_residual for c in failing) > 1e-3


def test_cocycle_residual_closed_form(monopole):
    # multiplying one transition by a constant 0.1-rotation breaks the
    # round-trip by exactly ||R(0.1) - I|| = 2 sqrt(1 - cos 0.1)
    broken = dict(monopole.transitions)
    broken[("U_N", "U_S")] = ProductGroupMap(
        broken[("U_N", "U_S")], ConstGroupMap(exp_matrix(0.1 * J)))
    data = monopole.__class__(monopole.atlas, monopole.group, broken,
                              monopole.forms, monopole.sample_plan,
                              monopole.params)
    report = check_cocycle(data, 1e-8)
    check = next(c for c in report.checks if c.name == "cocycle:U_N,U_S")
    want = 2.0 * np.sqrt(1.0 - np.cos(0.1))
    assert check.max_residual == pytest.approx(want, abs=1e-9)


def test_gauge_round_trip(abelian):
    g = ExprGroupMap("U1", parse("mexp((x1^2 - 1) * [[0,-1],[1,0]])",
                                 ["x1"]))
    form = abelian.forms["U1"]
    round_trip = gauge_transform(gauge_transform(form, g), InverseGroupMap(g))
    rng = np.random.default_rng(1)
    for _ in range(30):
        x = rng.uniform(0.1, 1.9, 1)
        v = rng.normal(size=1)
        assert np.linalg.norm(round_trip(x, v) - form(x, v)) < 1e-9


def test_gauge_transform_matches_manual_formula(abelian):
    g = ExprGroupMap("U1", parse("mexp(cos(x1) * [[0,-1],[1,0]])", ["x1"]))
    form = abelian.forms["U1"]
    gauged = gauge_transform(form, g)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(0.1, 1.9, 1)
        v = rng.normal(size=1)
        want = adjoint(inverse(g.value(x)), form(x, v)) \
            + log_diff_left(g, x, v)
        assert np.linalg.norm(gauged(x, v) - want) < 1e-14


def test_global_form_reproduces_fundamental_direction(monopole):
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = exp_matrix(rng.uniform(-2.0, 2.0) * J)
        p = PointRep("U_N", rng.uniform([0.1, 0.0], [1.9, 6.0]), a)
        x_alg = rng.uniform(-2.0, 2.0) * J
        u = fundamental_tangent(p, x_alg)
        value = global_form_eval(monopole, p, u)
        assert np.linalg.norm(value - x_alg) < 1e-12


def test_global_form_equivariance(monopole):
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = exp_matrix(rng.uniform(-2.0, 2.0) * J)
        g = exp_matrix(rng.uniform(-2.0, 2.0) * J)
        x = rng.uniform([0.1, 0.0], [1.9, 6.0])
        v = rng.normal(size=2)
        w = rng.normal(size=(2, 2))
        base = global_form_eval(monopole, PointRep("U_N", x, a),
                                TangentRep(v, w))
        moved = global_form_eval(monopole, PointRep("U_N", x, a @ g),
                                 TangentRep(v, w @ g))
        assert np.linalg.norm(moved - adjoint(inverse(g), base)) < 1e-12


@pytest.mark.parametrize("name", GOOD)
def test_global_form_is_chart_independent(name):
    data = load_fixture(name, grid=4, random=6)
    rng = np.random.default_rng(5)
    for ov in data.atlas.overlaps:
        from localforms.atlas import sample
        pts = sample(data.sample_plan, ov.domain, ov.mask)
        for x in pts[:10]:
            a = exp_matrix(data.group.sample_algebra(rng))
            p = PointRep(ov.src, x, a)
            u = TangentRep(rng.normal(size=len(x)),
                           rng.normal(size=(data.group.n, data.group.n)))
            q, u2 = chart_change(data, p, ov.dst, u)
            before = global_form_eval(data, p, u)
            after = global_form_eval(data, q, u2)
            assert np.linalg.norm(before - after) < 1e-8


def test_chart_change_round_trip(monopole):
    rng = np.random.default_rng(6)
    for _ in range(15):
        x = rng.uniform([1.2, 0.0], [1.9, 6.0])
        a = exp_matrix(rng.uniform(-1.0, 1.0) * J)
        p = PointRep("U_N", x, a)
        u = TangentRep(rng.normal(size=2), rng.normal(size=(2, 2)))
        q, u2 = chart_change(monopole, p, "U_S", u)
        back, u3 = chart_change(monopole, q, "U_N", u2)
        assert np.linalg.norm(back.x - p.x) < 1e-9
        assert np.linalg.norm(back.a - p.a) < 1e-9
        assert np.linalg.norm(u3.v - u.v) < 1e-9
        assert np.linalg.norm(u3.w - u.w) < 1e-9


def test_chart_change_walks_the_transition_once(monopole, monkeypatch):
    # one dual walk gives the transition's value for the point and its
    # derivative for the tangent
    transition = monopole.transitions[("U_N", "U_S")].ast
    walks = []

    def counted(name):
        method = getattr(ExprAST, name)

        def walk(self, *args, **kwargs):
            if self is transition:
                walks.append(name)
            return method(self, *args, **kwargs)
        return walk

    for name in ("eval", "eval_dual"):
        monkeypatch.setattr(ExprAST, name, counted(name))
    rng = np.random.default_rng(8)
    x = rng.uniform([1.2, 0.0], [1.9, 6.0])
    p = PointRep("U_N", x, exp_matrix(0.7 * J))
    u = TangentRep(rng.normal(size=2), rng.normal(size=(2, 2)))
    q, u2 = chart_change(monopole, p, "U_S", u)
    assert walks == ["eval_dual"]
    # the numbers of mapping the point, then pushing the tangent, each with
    # its own transition value
    ov = monopole.atlas.require_overlap("U_N", "U_S")
    g_rev = InverseGroupMap(monopole.transitions[("U_N", "U_S")])
    _, v = ov.push(x, u.v)
    w = g_rev.jet(x, u.v)[1] @ p.a + g_rev.value(x) @ u.w
    assert q.x.tobytes() == ov.map_point(x).tobytes()
    assert q.a.tobytes() == (g_rev.value(x) @ p.a).tobytes()
    assert u2.v.tobytes() == v.tobytes()
    assert u2.w.tobytes() == w.tobytes()


def test_a_chart_switch_without_a_tangent_walks_values_only(abelian,
                                                           monkeypatch):
    # with no tangent the push and the transition's jet take a zero seed,
    # and a zero seed binds no tangent: every walk is a walk of values
    tangents = []
    evaluate = parser.evaluate

    def walk(node, bindings):
        tangents.extend(b.tangent is not None for b in bindings.values())
        return evaluate(node, bindings)

    monkeypatch.setattr(parser, "evaluate", walk)
    x = np.array([1.5])
    a = exp_matrix(0.7 * J)
    q = chart_change(abelian, PointRep("U1", x, a), "U2")
    ov = abelian.atlas.require_overlap("U1", "U2")
    y, w = ov.push(x, np.zeros(1))
    assert tangents and not any(tangents)
    g = InverseGroupMap(abelian.transitions[("U1", "U2")])
    assert q.x.tobytes() == ov.map_point(x).tobytes() == y.tobytes()
    assert q.a.tobytes() == (g.value(x) @ a).tobytes()
    assert w.tolist() == [0.0]
    # the derivative has the shape a tangent pass gives it, in exact zeros
    points = np.array([[1.2], [1.5], [1.8]])
    value, derivative = g.jet(points, np.zeros((2, 1, 1)))
    assert derivative.shape == (2, 3, 2, 2) and not np.any(derivative)
    assert value.tobytes() == g.value(points).tobytes()


def _one_way(tmp_path, name, edit):
    """The bundle fixture `name` with `edit` applied to its document."""
    doc = json.load(open(fixture_path(name)))
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return load_bundle(str(path))


def test_a_one_way_switch_pushes_the_point_once(tmp_path, monkeypatch):
    # with g_21 alone declared, U1 -> U2 evaluates g_21 at the pushed point
    # of its own one push, with and without a tangent
    data = _one_way(tmp_path, "abelian.json",
                    lambda doc: doc["transitions"].pop("U1,U2"))
    calls = []

    def counted(name):
        method = getattr(Overlap, name)

        def call(self, *args):
            calls.append(name)
            return method(self, *args)
        return call

    for name in ("map_point", "push"):
        monkeypatch.setattr(Overlap, name, counted(name))
    p = PointRep("U1", [1.5], exp_matrix(0.7 * J))
    q = chart_change(data, p, "U2")
    assert calls == ["push"]
    calls.clear()
    q_with, u2 = chart_change(data, p, "U2", TangentRep([0.3], J))
    assert calls == ["push"]
    assert q_with.a.tobytes() == q.a.tobytes()
    g, dg = data.transitions[("U2", "U1")].jet(np.array([1.5]),
                                              np.array([0.3]))
    assert u2.w.tobytes() == (dg @ p.a + g @ J).tobytes()


def test_a_one_way_switch_takes_the_transition_at_the_pushed_point(
        tmp_path):
    # U2 -> U1 moves x1 to x1 - 1 and declares only g_12, so the group part
    # becomes g_12(x1 - 1) . a, which is no rotation of g_12(x1) . a
    def reverse_overlap(doc):
        doc["overlaps"].append({"from": "U2", "to": "U1",
                                "domain": [[2.0, 3.0]],
                                "coord_change": ["x1 - 1"]})
    data = _one_way(tmp_path, "three_charts.json", reverse_overlap)
    g_12 = data.transitions[("U1", "U2")]
    a = exp_matrix(0.3 * J)
    for x in (2.1, 2.5, 2.9):
        q, u2 = chart_change(data, PointRep("U2", [x], a), "U1",
                             TangentRep([1.0], np.zeros((2, 2))))
        assert q.x.tolist() == [x - 1]
        want = g_12.value(np.array([x - 1])) @ a
        assert np.linalg.norm(q.a - want) < 1e-14
        assert np.linalg.norm(want - g_12.value(np.array([x])) @ a) > 0.5
        # d/dx g_12(x - 1) = -J g_12(x - 1), as g_12(x) = mexp(-x J)
        assert np.linalg.norm(u2.w + J @ want) < 1e-14


def test_chart_change_requires_overlap_membership(monopole):
    p = PointRep("U_N", [0.2, 1.0], np.eye(2))  # outside the overlap band
    with pytest.raises(DomainError):
        chart_change(monopole, p, "U_S")
    with pytest.raises(ValidationError):
        chart_change(monopole, PointRep("U_N", [1.5, 1.0], np.eye(2)), "U_X")


def test_horizontal_lift_is_annihilated(monopole):
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.uniform([0.1, 0.0], [1.9, 6.0])
        a = exp_matrix(rng.uniform(-2.0, 2.0) * J)
        v = rng.normal(size=2)
        p = PointRep("U_N", x, a)
        u = horizontal_lift(monopole, p, v)
        assert np.allclose(u.v, v)
        assert np.linalg.norm(global_form_eval(monopole, p, u)) < 1e-12


def test_horizontal_plus_fundamental_decomposition(monopole):
    # any tangent splits as horizontal lift of v plus fundamental part of
    # the connection value; the decomposition must reassemble exactly
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.uniform([0.1, 0.0], [1.9, 6.0])
        a = exp_matrix(rng.uniform(-2.0, 2.0) * J)
        p = PointRep("U_N", x, a)
        u = TangentRep(rng.normal(size=2), rng.normal(size=(2, 2)))
        value = global_form_eval(monopole, p, u)
        lift = horizontal_lift(monopole, p, u.v)
        vert = fundamental_tangent(p, value)
        assert np.linalg.norm(lift.w + vert.w - u.w) < 1e-12


def test_compatibility_failing_check_is_named():
    data = load_fixture("monopole_k1_mutated.json", grid=5, random=5)
    report = check_compatibility(data, 1e-8)
    assert "compatibility:U_N,U_S" in report.failing()


def test_overlap_roundtrip_of_changes_that_are_not_inverse_fails():
    # psi(x) = x + 0.01 both ways: there and back moves each point by 0.02
    import dataclasses
    from localforms.atlas import Atlas, Overlap
    data = load_fixture("abelian.json", grid=5, random=5)
    shifted = tuple(Overlap(ov.src, ov.dst, ov.domain,
                            (parse("x1 + 0.01", ["x1"]),))
                    for ov in data.atlas.overlaps)
    data = dataclasses.replace(data, atlas=Atlas(data.atlas.charts, shifted))
    checks = {c.name: c for c in check_overlaps(data).checks}
    for name in ("overlap-roundtrip:U1,U2", "overlap-roundtrip:U2,U1"):
        assert checks[name].max_residual == pytest.approx(0.02, abs=1e-12)
        assert checks[name].sample_count > 0
        assert not checks[name].passed


def _three_chart_bundle(ac_mask=None, bc_mask=None, broken=False):
    """Three 1-d charts whose SO(2) transitions g_ab = R(f_a - f_b) satisfy
    the triple cocycle (unless `broken`).  The U2->U3 overlap ends 5e-10
    short of the grid point x = 1.6875, which it keeps only through the
    containment slack."""
    from localforms.atlas import Atlas, Chart, Overlap, SamplePlan
    from localforms.connection import LocalConnectionData, zero_form
    from localforms.lie import GroupSpec

    def ast(text):
        return parse(text, ["x1"])

    charts = {c: Chart(c, 1, box) for c, box in
              (("U1", ((0.0, 2.0),)), ("U2", ((1.0, 3.0),)),
               ("U3", ((1.5, 4.0),)))}
    overlaps = (
        Overlap("U1", "U2", ((1.0, 2.0),), (ast("x1"),)),
        Overlap("U1", "U3", ((1.5, 2.0),), (ast("x1"),),
                None if ac_mask is None else ast(ac_mask)),
        Overlap("U2", "U3", ((1.5, 1.6875 - 5e-10),), (ast("x1"),),
                None if bc_mask is None else ast(bc_mask)),
    )
    f = {"U1": "x1", "U2": "2*x1", "U3": "sin(x1)"}

    def g(a, b, extra=""):
        return ExprGroupMap(a, ast(
            f"mexp(({f[a]} - ({f[b]}){extra}) * [[0,-1],[1,0]])"))

    transitions = {("U1", "U2"): g("U1", "U2"), ("U2", "U3"): g("U2", "U3"),
                   ("U1", "U3"): g("U1", "U3", " + 0.01" if broken else "")}
    forms = {c: zero_form(2) for c in charts}
    return LocalConnectionData(Atlas(charts, overlaps),
                               GroupSpec("SO(2)", 2, (J,)), transitions,
                               forms, SamplePlan(grid=4, n_random=0))


def _shifted_three_chart_bundle():
    """Three 1-d charts of one line, chart a's coordinate the line's s
    shifted by c_a, so every coordinate change is a shift x -> x - c_a + c_b
    and psi moves each point; the SO(2) transitions g_ab = R(f_a - f_b),
    each f a function of s, depend on x and satisfy the triple cocycle."""
    from localforms.atlas import Atlas, Chart, Overlap, SamplePlan
    from localforms.connection import LocalConnectionData, zero_form
    from localforms.lie import GroupSpec

    shift = {"U1": 0.0, "U2": 1.0, "U3": 3.0}
    f = {"U1": "{s}", "U2": "2*{s}", "U3": "sin({s})"}

    def ast(text):
        return parse(text, ["x1"])

    def box(a, lo, hi):  # an s-interval in chart a's coordinate
        return ((lo + shift[a], hi + shift[a]),)

    def overlap(a, b, lo, hi):
        return Overlap(a, b, box(a, lo, hi),
                       (ast(f"x1 + {shift[b] - shift[a]}"),))

    def g(a, b):
        s = f"(x1 - {shift[a]})"
        return ExprGroupMap(a, ast(f"mexp(({f[a].format(s=s)} - "
                                   f"{f[b].format(s=s)}) * [[0,-1],[1,0]])"))

    charts = {c: Chart(c, 1, box(c, lo, hi)) for c, lo, hi in
              (("U1", 0.0, 2.0), ("U2", 1.0, 3.0), ("U3", 1.5, 4.0))}
    overlaps = (overlap("U1", "U2", 1.0, 2.0), overlap("U1", "U3", 1.5, 2.0),
                overlap("U2", "U3", 1.5, 3.0))
    transitions = {(ov.src, ov.dst): g(ov.src, ov.dst) for ov in overlaps}
    forms = {c: zero_form(2) for c in charts}
    return LocalConnectionData(Atlas(charts, overlaps),
                               GroupSpec("SO(2)", 2, (J,)), transitions,
                               forms, SamplePlan(grid=4, n_random=0))


def test_triple_cocycle_evaluates_g_ac_at_the_source_point():
    # psi_ab shifts x by 1 and g_ac depends on x, so g_ab(x) g_bc(psi x)
    # matches g_ac(x) and not g_ac(psi x)
    data = _shifted_three_chart_bundle()
    check = _triple(data)
    assert check.passed and check.sample_count == 4
    pts, y = data.atlas.triple_points(data.sample_plan, "U1", "U2", "U3")
    g_ac = data.transitions[("U1", "U3")]
    assert np.linalg.norm(g_ac.value(y) - g_ac.value(pts)) > 0.1


def _triple(data):
    checks = {c.name: c for c in check_cocycle(data, 1e-8).checks}
    return checks.get("cocycle:U1,U2,U3")


def test_triple_cocycle_passes_with_slack():
    # grid points of [1.5, 2]: 1.5625, 1.6875, 1.8125, 1.9375; the first
    # two lie in the U2->U3 overlap, the second only within the slack
    check = _triple(_three_chart_bundle())
    assert check.passed
    assert check.sample_count == 2


def test_triple_cocycle_applies_the_other_overlap_masks():
    assert _triple(_three_chart_bundle(ac_mask="x1 - 1.6")).sample_count == 1
    assert _triple(_three_chart_bundle(bc_mask="1.6 - x1")).sample_count == 1
    assert _triple(_three_chart_bundle(ac_mask="x1 - 1.6",
                                       bc_mask="1.6 - x1")) is None


def test_triple_cocycle_detects_a_broken_transition():
    check = _triple(_three_chart_bundle(broken=True))
    assert not check.passed
    want = 2.0 * np.sqrt(2.0) * np.sin(0.005)  # ||R(0.01) - I||_F
    assert check.max_residual == pytest.approx(want, abs=1e-12)


def _counting_samples_and_pushes(monkeypatch):
    """Record the box of every sample drawn and the (src, dst) of every
    overlap push."""
    import localforms.atlas
    from localforms.atlas import Overlap, sample
    boxes, pushes = [], []
    push = Overlap.push

    def counted_sample(plan, box, *args, **kwargs):
        boxes.append(tuple(map(tuple, box)))
        return sample(plan, box, *args, **kwargs)

    def counted_push(self, *args, **kwargs):
        pushes.append((self.src, self.dst))
        return push(self, *args, **kwargs)

    monkeypatch.setattr(localforms.atlas, "sample", counted_sample)
    monkeypatch.setattr(Overlap, "push", counted_push)
    return boxes, pushes


def test_verify_samples_and_pushes_each_overlap_once(tmp_path, monkeypatch):
    # check_overlaps, check_cocycle and check_compatibility read one sample
    # set and one push per overlap from the atlas's memo
    from localforms.cli import main
    from conftest import fixture_path
    boxes, pushes = _counting_samples_and_pushes(monkeypatch)
    assert main(["verify", fixture_path("monopole_k1.json"), "--grid", "4",
                 "--out", str(tmp_path / "report.json")]) == 0
    atlas = load_fixture("monopole_k1.json").atlas
    assert sorted(boxes) == sorted(ov.domain for ov in atlas.overlaps)
    assert sorted(pushes) == sorted((ov.src, ov.dst) for ov in atlas.overlaps)


def _expm_calls(monkeypatch):
    """Record, for every expm call, whether it was given tangents."""
    import localforms.expr.dual
    expm = localforms.expr.dual.expm
    calls = []

    def counted(a, e=None):
        calls.append(e is not None)
        return expm(a, e)

    monkeypatch.setattr(localforms.expr.dual, "expm", counted)
    return calls


def test_verify_exponentiates_once_per_transition_walk(tmp_path,
                                                      monkeypatch):
    # each mexp is one expm call, its derivative riding along: one
    # compatibility jet per overlap, and the cocycle's values at U_N->U_S's
    # sample points are that jet's primal; only U_S,U_N at the pushed points
    # takes a value of its own
    from localforms.cli import main
    from conftest import fixture_path
    calls = _expm_calls(monkeypatch)
    assert main(["verify", fixture_path("monopole_k1.json"), "--grid", "4",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert sorted(calls) == [False, True, True]


def test_push_exponentiates_each_target_transition_once(tmp_path,
                                                        monkeypatch):
    # the pushed data's compatibility takes the target transitions' jets,
    # and the morphism cocycle reads their primals; the source transitions
    # are values only
    from localforms.cli import main
    from conftest import fixture_path
    calls = _expm_calls(monkeypatch)
    assert main(["push", fixture_path("monopole_k1.json"),
                 fixture_path("morphism_squaring.json"), "--grid", "4",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert sorted(calls) == [False, False, True, True]


@pytest.mark.parametrize("argv", [
    ["verify", "monopole_k1.json"],
    ["push", "monopole_k1.json", "morphism_gauge.json"]])
def test_no_memo_entry_outlives_the_command(tmp_path, monkeypatch, argv):
    # the memo lives on the loaded atlas, which is garbage once main returns
    import gc
    import weakref
    import localforms.cli
    from conftest import fixture_path
    atlases = []
    load_bundle = localforms.cli.load_bundle

    def loading(path):
        data = load_bundle(path)
        atlases.append(weakref.ref(data.atlas))
        return data

    monkeypatch.setattr(localforms.cli, "load_bundle", loading)
    command, *files = argv
    assert localforms.cli.main(
        [command, *map(fixture_path, files), "--grid", "4",
         "--out", str(tmp_path / "report.json")]) == 0
    gc.collect()
    assert len(atlases) == 1 and atlases[0]() is None


def test_atlas_memo_keeps_jets_and_values(monopole):
    from localforms.atlas import directions
    ov = monopole.atlas.overlaps[0]
    g = monopole.transitions[(ov.src, ov.dst)]
    pts, e = monopole.points(ov), directions(2)
    jet = monopole.atlas.jet(g, pts, e)
    assert monopole.atlas.jet(g, pts, e)[1] is jet[1]
    # a value where the jet is kept is its primal, the bits of a value walk
    assert monopole.atlas.value(g, pts) is jet[0]
    assert jet[0].tobytes() == g.value(pts).tobytes()
    assert not jet[0].flags.writeable and not jet[1].flags.writeable
    # a writable argument could change under its id: it is not kept
    copy = np.array(pts)
    assert monopole.atlas.value(g, copy) is not monopole.atlas.value(g, copy)
    y = monopole.pushed(ov)[0]
    assert monopole.atlas.value(g, y) is monopole.atlas.value(g, y)


def test_atlas_memo_is_read_only_and_keyed_by_plan(monopole):
    import dataclasses
    from localforms.atlas import SamplePlan, sample
    ov = monopole.atlas.overlaps[0]
    pts = monopole.points(ov)
    y, w = monopole.pushed(ov)
    assert monopole.points(ov) is pts and monopole.pushed(ov)[0] is y
    for array in (pts, y, w, monopole.points("U_N")):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    plan = SamplePlan(grid=3, n_random=2, seed=9)
    other = dataclasses.replace(monopole, sample_plan=plan)
    assert other.atlas is monopole.atlas
    fresh = other.points(ov)
    assert fresh is not pts and len(fresh) == 3 * 3 + 2
    assert fresh.tobytes() == sample(plan, ov.domain, ov.mask).tobytes()
    # a document loaded again has an atlas, and a memo, of its own
    again = load_fixture("monopole_k1.json", grid=5, random=5)
    assert again.points(again.atlas.overlaps[0]) is not pts


def test_triple_points_are_memoized_read_only():
    data = _three_chart_bundle()
    pts, y = data.atlas.triple_points(data.sample_plan, "U1", "U2", "U3")
    assert data.atlas.triple_points(data.sample_plan, "U1", "U2",
                                    "U3")[0] is pts
    assert not pts.flags.writeable and not y.flags.writeable
    assert data.atlas.triple_points(data.sample_plan, "U2", "U1",
                                    "U3") is None
