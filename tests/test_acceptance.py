"""End-to-end acceptance checks, one test per shipping criterion.

Each test pins the tolerances the package promises; the unit suites cover
the same ground in more detail at smaller sample plans.
"""

import dataclasses
import time

import numpy as np
import pytest

from localforms.atlas import sample
from localforms.bundle_io import load_bundle, load_christoffel, load_path
from localforms.christoffel import (check_christoffel_compat,
                                    christoffel_to_forms,
                                    forms_to_christoffel)
from localforms.connection import (PointRep, TangentRep, chart_change,
                                   check_cocycle, check_compatibility,
                                   connection_operator, SectionRep,
                                   fundamental_tangent, gauge_transform,
                                   global_form_eval, parallel_transport)
from localforms.expr import parse
from localforms.lie import (ConstGroupMap, ExprGroupMap, GroupSpec,
                            InverseGroupMap, ProductGroupMap, adjoint,
                            exp_matrix, inverse, log_diff_left)
from localforms.morphism import (MorphismData, check_morphism_cocycle,
                                 check_related, pushforward_connection)
from localforms.tower import (check_tower_related, limit_consistency_residual,
                              limit_eval, project_connection)

from conftest import fixture_path, load_fixture, load_tool
from test_lie import random_group_map
from test_morphism import (_completed_transitions, _identity_phi,
                           _random_h_family, _squaring_phi)
from test_tower import _tower

J = np.array([[0.0, -1.0], [1.0, 0.0]])

GOOD_FIXTURES = ("flat.json", "abelian.json", "monopole_k1.json",
                 "monopole_k2.json", "monopole_k3.json", "sphere_frame.json")
MUTATED_FIXTURES = ("flat_mutated.json", "abelian_mutated.json",
                    "monopole_k1_mutated.json", "sphere_frame_mutated.json")


def test_compatibility_suite():
    # full stored sample plans: 20^d grid + 50 random points per region
    start = time.monotonic()
    for name in GOOD_FIXTURES:
        data = load_bundle(fixture_path(name))
        assert data.sample_plan.grid == 20 and data.sample_plan.n_random == 50
        report = check_cocycle(data, 1e-8)
        report.merge(check_compatibility(data, 1e-8))
        assert report.passed, f"{name}: {report.failing()}"
    for name in MUTATED_FIXTURES:
        data = load_bundle(fixture_path(name))
        report = check_cocycle(data, 1e-8)
        report.merge(check_compatibility(data, 1e-8))
        failing = [c for c in report.checks if not c.passed]
        assert failing, name
        assert max(c.max_residual for c in failing) > 1e-3, name
    assert time.monotonic() - start < 10.0


def test_gauge_law_suite():
    data = load_fixture("abelian.json", grid=6, random=6)
    g = ExprGroupMap("U1", parse("mexp((x1^2 - 1) * [[0,-1],[1,0]])",
                                 ["x1"]))
    form = data.forms["U1"]
    round_trip = gauge_transform(gauge_transform(form, g), InverseGroupMap(g))
    rng = np.random.default_rng(100)
    for _ in range(30):
        x = rng.uniform(0.1, 1.9, 1)
        v = rng.normal(size=1)
        assert np.linalg.norm(round_trip(x, v) - form(x, v)) < 1e-9

    for _ in range(100):
        a = random_group_map(rng, 3)
        b = random_group_map(rng, 3)
        x = rng.uniform(0.2, 1.5, 2)
        v = rng.normal(size=2)
        # product law for the left logarithmic differential
        lhs = log_diff_left(ProductGroupMap(a, b), x, v)
        rhs = adjoint(inverse(b.value(x)), log_diff_left(a, x, v)) \
            + log_diff_left(b, x, v)
        assert np.linalg.norm(lhs - rhs) < 1e-8
        # same law with a constant left factor (degenerate product case)
        c = ConstGroupMap(exp_matrix(rng.uniform(-0.5, 0.5, (3, 3))))
        lhs = log_diff_left(ProductGroupMap(c, b), x, v)
        assert np.linalg.norm(lhs - log_diff_left(b, x, v)) < 1e-8
        # signed inverse law
        lhs = log_diff_left(InverseGroupMap(a), x, v)
        rhs = -adjoint(a.value(x), log_diff_left(a, x, v))
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_global_form_suite():
    data = load_fixture("monopole_k2.json")
    rng = np.random.default_rng(101)
    for _ in range(50):
        a = exp_matrix(rng.uniform(-2.0, 2.0) * J)
        x = rng.uniform([0.1, 0.0], [1.9, 6.0])
        p = PointRep("U_N", x, a)
        alg = rng.uniform(-2.0, 2.0) * J
        # fundamental direction reproduces its generator
        value = global_form_eval(data, p, fundamental_tangent(p, alg))
        assert np.linalg.norm(value - alg) < 1e-12
        # equivariance under the right action
        g = exp_matrix(rng.uniform(-2.0, 2.0) * J)
        v = rng.normal(size=2)
        w = rng.normal(size=(2, 2))
        base = global_form_eval(data, p, TangentRep(v, w))
        moved = global_form_eval(data, PointRep("U_N", x, a @ g),
                                 TangentRep(v, w @ g))
        assert np.linalg.norm(moved - adjoint(inverse(g), base)) < 1e-12

    for name in GOOD_FIXTURES:
        data = load_fixture(name, grid=4, random=6)
        for ov in data.atlas.overlaps:
            pts = sample(data.sample_plan, ov.domain, ov.mask)
            for x in pts[:8]:
                a = exp_matrix(data.group.sample_algebra(rng))
                p = PointRep(ov.src, x, a)
                u = TangentRep(rng.normal(size=len(x)),
                               rng.normal(size=(data.group.n, data.group.n)))
                q, u2 = chart_change(data, p, ov.dst, u)
                delta = global_form_eval(data, p, u) \
                    - global_form_eval(data, q, u2)
                assert np.linalg.norm(delta) < 1e-8


def test_relatedness_suite():
    group = GroupSpec("SO(2)", 2, (J,))
    source = load_fixture("abelian.json", grid=6, random=6)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = MorphismData(_identity_phi(),
                         _random_h_family(rng, source.atlas), group)
        transitions = _completed_transitions(source, m)
        assert check_morphism_cocycle(m, source, transitions, 1e-8).passed
        theta = pushforward_connection(source, m, transitions)
        assert check_related(source, theta, m, 1e-8).passed
        assert check_compatibility(theta, 1e-8).passed

    # uniqueness: an independently constructed related family must agree
    rng = np.random.default_rng(999)
    m = MorphismData(_identity_phi(), _random_h_family(rng, source.atlas),
                     group)
    theta = pushforward_connection(source, m,
                                   _completed_transitions(source, m))
    for chart_id in source.atlas.charts:
        h = m.h_map(chart_id)
        chart = source.atlas.chart(chart_id)
        pts = sample(source.sample_plan, chart.box)
        for x in pts:
            manual = adjoint(
                h.value(x),
                source.forms[chart_id](x, [1.0]) - log_diff_left(h, x, [1.0]))
            delta = theta.forms[chart_id](x, [1.0]) - manual
            assert np.linalg.norm(delta) < 1e-7

    # the algebraic identities behind the construction
    phi = _squaring_phi()
    for _ in range(30):
        a = exp_matrix(rng.uniform(-1.5, 1.5) * J)
        alg = rng.uniform(-1.0, 1.0) * J
        lhs = phi.induced(adjoint(inverse(a), alg))
        rhs = adjoint(inverse(phi.apply(a)), phi.induced(alg))
        assert np.linalg.norm(lhs - rhs) < 1e-8

    from test_morphism import (test_logdiff_naturality_under_morphisms,
                               test_logdiff_of_right_quotient,
                               test_pushforward_transitivity)
    test_logdiff_naturality_under_morphisms()
    test_logdiff_of_right_quotient()
    test_pushforward_transitivity()


def test_christoffel_suite():
    data, transitions = load_christoffel(
        fixture_path("sphere_levi_civita.json"))
    bundle = christoffel_to_forms(data, transitions)
    back = forms_to_christoffel(bundle)
    for chart_id, table in data.gamma.items():
        for i, block in enumerate(table):
            for j, row in enumerate(block):
                for k, entry in enumerate(row):
                    assert back.gamma[chart_id][i][j][k].root is entry.root

    small = dataclasses.replace(
        data, sample_plan=dataclasses.replace(data.sample_plan, grid=8,
                                              n_random=10))
    assert check_christoffel_compat(small, transitions, 1e-7).passed

    oracle = load_tool("sphere_christoffels")
    pts = sample(small.sample_plan, small.atlas.chart("U_N").box)
    for x in pts:
        want = oracle.christoffels(x)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    got = small.gamma["U_N"][i][j][k].eval(x)
                    assert abs(got - want[j, i, k]) < 1e-7

    bad, bad_transitions = load_christoffel(
        fixture_path("sphere_levi_civita_mutated.json"))
    bad = dataclasses.replace(
        bad, sample_plan=dataclasses.replace(bad.sample_plan, grid=8,
                                             n_random=10))
    assert not check_christoffel_compat(bad, bad_transitions, 1e-7).passed


def test_transport_suite():
    flat = load_fixture("flat.json")
    segments, _ = load_path(fixture_path("path_flat.json"), flat.atlas,
                            flat.params)
    result = parallel_transport(flat, segments, np.eye(2), steps=400)
    assert np.linalg.norm(result - np.eye(2)) < 1e-12

    abelian = load_fixture("abelian.json")
    segments, _ = load_path(fixture_path("path_abelian.json"), abelian.atlas,
                            abelian.params)
    want = exp_matrix(-(np.cos(0.2) - np.cos(1.7)) * J)
    result = parallel_transport(abelian, segments, np.eye(2), steps=1000)
    assert np.linalg.norm(result - want) < 1e-8
    ratio = np.linalg.norm(
        parallel_transport(abelian, segments, np.eye(2), steps=50) - want) \
        / np.linalg.norm(
            parallel_transport(abelian, segments, np.eye(2), steps=100) - want)
    assert ratio >= 8.0

    monopole = load_fixture("monopole_k1.json")
    segments, _ = load_path(fixture_path("path_monopole_equator.json"),
                            monopole.atlas, monopole.params)
    result = parallel_transport(monopole, segments, np.eye(2), steps=1000)
    n_euler = 10_000_000
    euler = np.linalg.matrix_power(np.eye(2) - (np.pi / n_euler) * J, n_euler)
    assert np.linalg.norm(result - euler) < 1e-6

    rng = np.random.default_rng(102)
    for _ in range(5):
        g = exp_matrix(rng.uniform(-3.0, 3.0) * J)
        a0 = exp_matrix(rng.uniform(-3.0, 3.0) * J)
        moved = parallel_transport(monopole, segments, a0 @ g, steps=300)
        base = parallel_transport(monopole, segments, a0, steps=300)
        assert np.linalg.norm(moved - base @ g) < 1e-10


def test_tower_suite():
    tower = _tower(grid=6, random=6)
    tower.validate()
    assert check_tower_related(tower, 1e-8).passed

    for i in range(1, tower.depth + 1):
        projected = project_connection(tower, i)
        declared = tower.level(i)
        for chart_id in declared.atlas.charts:
            chart = declared.atlas.chart(chart_id)
            pts = sample(declared.sample_plan, chart.box)
            for x in pts:
                delta = projected.forms[chart_id](x, [1.0]) \
                    - declared.forms[chart_id](x, [1.0])
                assert np.linalg.norm(delta) < 1e-8

    top = tower.level(tower.depth)
    rng = np.random.default_rng(103)
    for _ in range(100):
        chart = "U1" if rng.random() < 0.5 else "U2"
        box = top.atlas.chart(chart).box
        x = rng.uniform(box[0][0], box[0][1], 1)
        a = top.group.sample_group(rng)
        u = TangentRep(rng.normal(size=1), a @ top.group.sample_algebra(rng))
        values = limit_eval(tower, PointRep(chart, x, a), u)
        assert limit_consistency_residual(tower, values) < 1e-8


def test_operator_suite():
    data = load_fixture("abelian.json", grid=6, random=6)
    natural = connection_operator(
        data, SectionRep("U1", ConstGroupMap(np.eye(2))))
    rng = np.random.default_rng(104)
    for _ in range(20):
        x = rng.uniform(0.1, 1.9, 1)
        v = rng.normal(size=1)
        assert np.array_equal(natural(x, v), data.forms["U1"](x, v))

    for trial in range(10):
        c1, c2 = (float(c) for c in rng.uniform(-1.0, 1.0, 2))
        g = ExprGroupMap("U1", parse(
            f"mexp(({c1!r} * x1) * [[0,-1],[1,0]])", ["x1"]))
        a = ExprGroupMap("U1", parse(
            f"mexp(({c2!r} * cos(x1)) * [[0,-1],[1,0]])", ["x1"]))
        base = connection_operator(data, SectionRep("U1", g))
        moved = connection_operator(
            data, SectionRep("U1", ProductGroupMap(g, a)))
        for _ in range(10):
            x = rng.uniform(0.1, 1.9, 1)
            v = rng.normal(size=1)
            want = adjoint(inverse(a.value(x)), base(x, v)) \
                + log_diff_left(a, x, v)
            assert np.linalg.norm(moved(x, v) - want) < 1e-8

    g_1 = ExprGroupMap("U1", parse("mexp(sin(x1) * [[0,-1],[1,0]])", ["x1"]))
    g_2 = ExprGroupMap("U2", parse("mexp((sin(x1) - x1) * [[0,-1],[1,0]])",
                                   ["x1"]))
    d_1 = connection_operator(data, SectionRep("U1", g_1))
    d_2 = connection_operator(data, SectionRep("U2", g_2))
    for _ in range(25):
        x = rng.uniform(1.05, 1.95, 1)
        v = rng.normal(size=1)
        assert np.linalg.norm(d_1(x, v) - d_2(x, v)) < 1e-8


def test_ad_correctness():
    from test_dual_ad import \
        test_randomized_corpus_matches_central_differences as corpus
    corpus()
