import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from localforms.bundle_io import load_bundle, load_path
from localforms.cli import main
from localforms.connection import PathSegment, PointRep, parallel_transport
from localforms.connection.points import chart_change
from localforms.connection.transport import CHUNK
from localforms.errors import PathDiscontinuityError, ValidationError
from localforms.expr import parse
from localforms.lie import exp_matrix

from conftest import Case, case_id, expected, fixture_path, load_fixture

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _path(data, name):
    segments, a0 = load_path(fixture_path(name), data.atlas, data.params)
    return segments, (np.eye(data.group.n) if a0 is None else a0)


def rotation(theta):
    return exp_matrix(theta * J)


def test_flat_transport_is_identity():
    data = load_fixture("flat.json")
    segments, a0 = _path(data, "path_flat.json")
    result = parallel_transport(data, segments, a0, steps=400)
    assert np.linalg.norm(result - np.eye(2)) < 1e-12


def test_abelian_transport_closed_form():
    # a' = -sin(x) J a along x(t) = 0.2 + 1.5 t gives
    # a(1) = exp(-(cos 0.2 - cos 1.7) J)
    data = load_fixture("abelian.json")
    segments, a0 = _path(data, "path_abelian.json")
    result = parallel_transport(data, segments, a0, steps=1000)
    want = rotation(-(np.cos(0.2) - np.cos(1.7)))
    assert np.linalg.norm(result - want) < 1e-8


def test_two_chart_transport_closed_form():
    # segment in U1 up to x = 1.5, switch to U2, segment to x = 2.0; the
    # switch multiplies by the reverse transition exp(-1.5 J), and all
    # factors commute
    data = load_fixture("abelian.json")
    segments, a0 = _path(data, "path_abelian_two_charts.json")
    result = parallel_transport(data, segments, a0, steps=1200)
    theta = -(np.cos(0.2) - np.cos(1.5)) - 1.5 \
        - ((np.cos(1.5) - np.cos(2.0)) + 0.5)
    assert np.linalg.norm(result - rotation(theta)) < 1e-8


def test_a_transition_declared_one_way_is_pulled_back(tmp_path):
    # with g_21 alone declared, the switch U1 -> U2 takes g_21 at psi(x)
    # in place of the inverse of g_12
    doc = json.load(open(fixture_path("abelian.json")))
    del doc["transitions"]["U1,U2"]
    path = tmp_path / "abelian_one_way.json"
    path.write_text(json.dumps(doc))
    results = []
    for data in (load_fixture("abelian.json"), load_bundle(str(path))):
        segments, a0 = _path(data, "path_abelian_two_charts.json")
        results.append(parallel_transport(data, segments, a0, steps=1200))
    assert np.linalg.norm(results[0] - results[1]) < 1e-12
    with pytest.raises(ValidationError,
                       match="^no transition between 'U1' and 'U2'$"):
        chart_change(dataclasses.replace(data, transitions={}),
                     PointRep("U1", [1.5], np.eye(2)), "U2")


def test_monopole_equator_against_dense_euler_oracle():
    # along the equator the connection coefficient is the constant k pi J,
    # so explicit Euler with step h is exactly (I - h k pi J)^N
    data = load_fixture("monopole_k1.json")
    segments, a0 = _path(data, "path_monopole_equator.json")
    result = parallel_transport(data, segments, a0, steps=1000)
    n_euler = 10_000_000
    step = np.eye(2) - (np.pi / n_euler) * J
    oracle = np.linalg.matrix_power(step, n_euler)
    assert np.linalg.norm(result - oracle) < 1e-6
    # and the closed form pins both down
    assert np.linalg.norm(result - rotation(-np.pi)) < 1e-10


@pytest.mark.parametrize("k,name", [(1, "monopole_k1.json"),
                                    (2, "monopole_k2.json"),
                                    (3, "monopole_k3.json")])
def test_monopole_holonomy_scales_with_charge(k, name):
    data = load_fixture(name)
    segments, a0 = _path(data, "path_monopole_equator.json")
    result = parallel_transport(data, segments, a0, steps=2000)
    assert np.linalg.norm(result - rotation(-k * np.pi)) < 1e-9


def test_rk4_order():
    data = load_fixture("abelian.json")
    segments, a0 = _path(data, "path_abelian.json")
    want = rotation(-(np.cos(0.2) - np.cos(1.7)))

    def error(steps):
        result = parallel_transport(data, segments, a0, steps=steps)
        return np.linalg.norm(result - want)

    assert error(50) / error(100) >= 8.0


def test_transport_equivariance():
    data = load_fixture("monopole_k2.json")
    segments, _ = _path(data, "path_monopole_equator.json")
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = rotation(rng.uniform(-3.0, 3.0))
        a0 = rotation(rng.uniform(-3.0, 3.0))
        moved = parallel_transport(data, segments, a0 @ g, steps=300)
        base = parallel_transport(data, segments, a0, steps=300)
        assert np.linalg.norm(moved - base @ g) < 1e-10


def test_discontinuous_path_rejected():
    data = load_fixture("abelian.json")
    segments = [
        PathSegment("U1", (parse("0.2 + t", ["t"]),), 0.0, 1.0),
        PathSegment("U1", (parse("1.4 + t", ["t"]),), 0.0, 0.5),
    ]
    with pytest.raises(PathDiscontinuityError,
                       match="^segments disagree at junction 'U1'->'U1'$"):
        parallel_transport(data, segments, np.eye(2), steps=50)


def test_discontinuous_chart_switch_rejected():
    data = load_fixture("abelian.json")
    segments = [
        PathSegment("U1", (parse("0.2 + 1.3*t", ["t"]),), 0.0, 1.0),
        PathSegment("U2", (parse("1.7 + t", ["t"]),), 0.0, 0.5),
    ]
    with pytest.raises(PathDiscontinuityError,
                       match="^segments disagree at junction 'U1'->'U2'$"):
        parallel_transport(data, segments, np.eye(2), steps=50)


def test_transport_is_deterministic():
    data = load_fixture("monopole_k1.json")
    segments, a0 = _path(data, "path_monopole_equator.json")
    a = parallel_transport(data, segments, a0, steps=250)
    b = parallel_transport(data, segments, a0, steps=250)
    assert np.array_equal(a, b)


def rk4_reference(data, path, a, steps):
    """Classical RK4 one step at a time on the nodes t += h, with the chart
    switch of parallel_transport at junctions."""
    for before, segment in zip([None] + list(path), path):
        if before is not None and before.chart != segment.chart:
            x_end, _ = before.at(before.t1)
            a = chart_change(data, PointRep(before.chart, x_end, a),
                             segment.chart).a
        h = (segment.t1 - segment.t0) / steps
        ticks = [segment.t0]
        for _ in range(steps):
            ticks.append(ticks[-1] + h)
        x, xdot = segment.at(ticks)
        ends = -data.forms[segment.chart](x, xdot)
        x, xdot = segment.at(np.array(ticks[:-1]) + 0.5 * h)
        mids = -data.forms[segment.chart](x, xdot)
        for s in range(steps):
            k1 = ends[s] @ a
            k2 = mids[s] @ (a + 0.5 * h * k1)
            k3 = mids[s] @ (a + 0.5 * h * k2)
            k4 = ends[s + 1] @ (a + h * k3)
            a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a


def _sphere_path(two_charts):
    """A path in sphere_frame whose form values do not commute: x1 and x2
    both move, and the second variant crosses from U_N into U_S."""
    first = PathSegment("U_N", (parse("0.6 + 0.8*t", ["t"]),
                                parse("3*t", ["t"])), 0.0, 1.0)
    if not two_charts:
        return [first]
    return [first, PathSegment("U_S", (parse("3.141592653589793 - 1.4 + 0.5*t",
                                              ["t"]),
                                        parse("3 + t", ["t"])), 0.0, 1.0)]


def _equivalence_cases():
    sphere = load_fixture("sphere_frame.json")
    abelian = load_fixture("abelian.json")
    a0 = np.array([[1.0, 0.5], [-0.25, 2.0]])
    return {
        "sphere": (sphere, _sphere_path(False), a0),
        "sphere-two-charts": (sphere, _sphere_path(True), a0),
        "abelian-two-charts": (abelian,) + _path(
            abelian, "path_abelian_two_charts.json"),
    }


@pytest.mark.parametrize("case", ["sphere", "sphere-two-charts",
                                  "abelian-two-charts"])
@pytest.mark.parametrize("steps", [1, 2, 3, 7, 2001, CHUNK - 1, CHUNK + 1,
                                   2 * CHUNK + 3])
def test_transport_matches_step_by_step_rk4(case, steps):
    data, path, a0 = _equivalence_cases()[case]
    result = parallel_transport(data, path, a0, steps=steps)
    want = rk4_reference(data, path, a0, steps)
    assert np.linalg.norm(result - want) < 1e-13


def test_sphere_path_does_not_commute():
    data, path, _ = _equivalence_cases()["sphere"]
    x, xdot = path[0].at([0.0, 1.0])
    start, end = data.forms["U_N"](x, xdot)
    assert np.linalg.norm(start @ end - end @ start) > 0.1


def test_long_monopole_transport_stays_on_the_group():
    data = load_fixture("monopole_k1.json")
    segments, a0 = _path(data, "path_monopole_equator.json")
    result = parallel_transport(data, segments, a0, steps=100_000)
    assert np.linalg.norm(result - rotation(-np.pi)) < 1e-9
    assert np.linalg.norm(result.T @ result - np.eye(2)) <= 1e-12


def test_long_transport_memory_does_not_grow_with_steps():
    """The steps are evaluated and folded a chunk at a time, so a transport
    of 2e5 steps holds a few chunks' arrays, not the whole step stack, which
    takes about 60 MB at this step count."""
    data = load_fixture("monopole_k1.json")
    segments, a0 = _path(data, "path_monopole_equator.json")
    tracemalloc.start()
    try:
        result = parallel_transport(data, segments, a0, steps=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.linalg.norm(result - rotation(-np.pi)) < 1e-9
    assert peak < 8e6


@pytest.mark.parametrize("steps", [0, -3])
def test_transport_needs_a_step(steps):
    data = load_fixture("monopole_k1.json")
    segments, a0 = _path(data, "path_monopole_equator.json")
    with pytest.raises(ValidationError):
        parallel_transport(data, segments, a0, steps=steps)


@pytest.mark.parametrize("a0, needle", [
    ([1.0, 2.0], Case("a0 must be a finite 2x2 matrix",
                      "a0[0] must be a list, not 1.0")),
    (1.0, Case("a0 must be a finite 2x2 matrix",
               "a0 must be a list, not 1.0")),
    ([[1.0]], "a0 must be a finite 2x2 matrix"),
    (np.eye(3).tolist(), "a0 must be a finite 2x2 matrix"),
    ([[np.nan, 0.0], [0.0, 1.0]],
     Case("a0 must be a finite 2x2 matrix",
          "a0[0][0] must be a finite number, not nan")),
    ([[0.0, 0.0], [0.0, 0.0]], "treated as singular"),
    ([[1.0, 0.0], [0.0]], "a0 must be a finite 2x2 matrix"),
], ids=case_id)
def test_transport_needs_a_finite_invertible_start(tmp_path, capsys, a0,
                                                    needle):
    needle = expected(needle)
    path = tmp_path / "path.json"
    doc = json.loads(open(fixture_path("path_abelian.json")).read())
    path.write_text(json.dumps(dict(doc, a0=a0)))
    code = main(["transport", fixture_path("abelian.json"), str(path),
                 "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: '{path}': a0") and needle in err
    assert err.count("\n") == 1 and "Traceback" not in err
