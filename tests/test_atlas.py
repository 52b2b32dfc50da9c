import json

import numpy as np
import pytest

from localforms.atlas import (Atlas, Chart, Overlap, SamplePlan, in_box,
                              sample)
from localforms.bundle_io import load_bundle
from localforms.errors import DomainError, ValidationError
from localforms.expr import parse

from conftest import fixture_path


def test_chart_rejects_degenerate_interval():
    with pytest.raises(ValidationError, match="degenerate"):
        Chart("U", 1, ((1.0, 1.0),))
    with pytest.raises(ValidationError, match="intervals"):
        Chart("U", 2, ((0.0, 1.0),))


def test_chart_coordinates_and_containment():
    chart = Chart("U", 2, ((0.0, 1.0), (2.0, 3.0)))
    assert chart.coords == ("x1", "x2")
    assert in_box([0.5, 2.5], chart.box)
    assert not in_box([1.5, 2.5], chart.box)


def test_sample_is_deterministic():
    plan = SamplePlan(grid=4, n_random=7, seed=123)
    box = ((0.0, 1.0), (-1.0, 1.0))
    a = sample(plan, box)
    b = sample(plan, box)
    assert a.shape == (4 * 4 + 7, 2)
    assert np.array_equal(a, b)
    different = sample(SamplePlan(grid=4, n_random=7, seed=124), box)
    assert not np.array_equal(a, different)


def test_sample_grid_avoids_boundary():
    pts = sample(SamplePlan(grid=3, n_random=0), ((0.0, 3.0),))
    assert np.allclose(sorted(pts[:, 0]), [0.5, 1.5, 2.5])


def test_sample_mask_filters():
    mask = parse("x1 - 1", ["x1"])
    pts = sample(SamplePlan(grid=10, n_random=0), ((0.0, 2.0),), mask)
    assert np.all(pts[:, 0] > 1.0)
    assert len(pts) == 5


def test_overlap_push_matches_analytic_jacobian():
    change = (parse("3.141592653589793 - x1", ["x1", "x2"]),
              parse("x2", ["x1", "x2"]))
    ov = Overlap("N", "S", ((1.0, 2.0), (0.0, 6.0)), change)
    x = np.array([1.5, 2.0])
    y, w = ov.push(x, [1.0, 0.0])
    assert np.allclose(y, [np.pi - 1.5, 2.0])
    assert np.allclose(w, [-1.0, 0.0])
    _, w = ov.push(x, [0.0, 1.0])
    assert np.allclose(w, [0.0, 1.0])


def test_overlap_rejects_outside_domain():
    ov = Overlap("A", "B", ((0.0, 1.0),), (parse("x1", ["x1"]),))
    with pytest.raises(DomainError):
        ov.map_point([2.0])
    with pytest.raises(DomainError):
        ov.push([2.0], [1.0])


def test_atlas_lookups():
    chart = Chart("U", 1, ((0.0, 1.0),))
    atlas = Atlas({"U": chart}, ())
    assert atlas.chart("U") is chart
    with pytest.raises(ValidationError, match="unknown chart"):
        atlas.chart("V")
    assert atlas.overlap("U", "V") is None
    with pytest.raises(ValidationError, match="no declared overlap"):
        atlas.require_overlap("U", "V")


def _write(tmp_path, doc):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _minimal_doc():
    return {
        "group": {"name": "SO(2)", "n": 2},
        "charts": [
            {"id": "U1", "dim": 1, "box": [[0.0, 2.0]]},
            {"id": "U2", "dim": 1, "box": [[1.0, 3.0]]},
        ],
        "overlaps": [
            {"from": "U1", "to": "U2", "domain": [[1.0, 2.0]],
             "coord_change": ["x1"]},
        ],
        "transitions": {"U1,U2": "[[1,0],[0,1]]"},
        "forms": {"U1": ["[[0,0],[0,0]]"], "U2": ["[[0,0],[0,0]]"]},
    }


def test_load_bundle_minimal(tmp_path):
    data = load_bundle(_write(tmp_path, _minimal_doc()))
    assert data.group.n == 2
    assert set(data.atlas.charts) == {"U1", "U2"}


def test_load_bundle_rejects_undeclared_chart_in_overlap(tmp_path):
    doc = _minimal_doc()
    doc["overlaps"][0]["to"] = "U3"
    with pytest.raises(ValidationError,
                       match=r"overlaps\[0\]\.to: unknown chart 'U3'$"):
        load_bundle(_write(tmp_path, doc))


def test_load_bundle_rejects_wrong_transition_shape(tmp_path):
    doc = _minimal_doc()
    doc["transitions"]["U1,U2"] = "[[1,0,0],[0,1,0],[0,0,1]]"
    with pytest.raises(ValidationError, match="shape"):
        load_bundle(_write(tmp_path, doc))


def test_load_bundle_rejects_wrong_coefficient_count(tmp_path):
    doc = _minimal_doc()
    doc["forms"]["U1"] = ["[[0,0],[0,0]]", "[[0,0],[0,0]]"]
    with pytest.raises(ValidationError, match="coefficients"):
        load_bundle(_write(tmp_path, doc))


def test_load_bundle_rejects_missing_form(tmp_path):
    doc = _minimal_doc()
    del doc["forms"]["U2"]
    with pytest.raises(ValidationError, match="no local form"):
        load_bundle(_write(tmp_path, doc))


def test_load_bundle_rejects_overlap_without_transition(tmp_path):
    doc = _minimal_doc()
    doc["transitions"] = {}
    with pytest.raises(ValidationError, match="transition"):
        load_bundle(_write(tmp_path, doc))


def test_load_bundle_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_bundle(str(path))


def test_fixture_files_load():
    for name in ("flat.json", "abelian.json", "monopole_k1.json",
                 "sphere_frame.json"):
        data = load_bundle(fixture_path(name))
        assert data.sample_plan.grid == 20
        assert data.sample_plan.n_random == 50


def test_in_box_is_a_vectorised_mask_with_slack():
    box = ((0.0, 1.0), (2.0, 3.0))
    points = np.array([[0.5, 2.5], [1.5, 2.5], [1.0 + 5e-10, 3.0],
                       [-2e-9, 2.0]])
    assert in_box(points, box).tolist() == [True, False, True, False]
    assert in_box(points, box, slack=0.0).tolist() == [True, False, False,
                                                        False]
    assert in_box(points.reshape(2, 2, 2), box).shape == (2, 2)
    chart = Chart("U", 2, box)
    assert in_box(points[2], chart.box)
    assert not in_box(points[2], chart.box, slack=0.0)
