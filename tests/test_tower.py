import dataclasses

import numpy as np
import pytest

from localforms.atlas import directions, sample
from localforms.bundle_io import load_tower
from localforms.connection import (CallableForm, PointRep, TangentRep,
                                   check_compatibility)
from localforms.errors import LevelOutOfRange, TowerInvariantViolation
from localforms.lie import ConstGroupMap
from localforms.report import Report, max_residual
from localforms.tower import (check_tower_related, limit_consistency_residual,
                              limit_eval, project_connection)

from conftest import fixture_path


def _tower(grid=6, random=6):
    tower = load_tower(fixture_path("tower_unipotent.json"))
    levels = tuple(
        dataclasses.replace(level, sample_plan=dataclasses.replace(
            level.sample_plan, grid=grid, n_random=random))
        for level in tower.levels)
    return dataclasses.replace(tower, levels=levels)


def test_structure():
    tower = _tower()
    assert tower.depth == 4
    assert [tower.level(i).group.n for i in range(1, 5)] == [2, 3, 4, 5]
    with pytest.raises(LevelOutOfRange):
        tower.level(5)
    with pytest.raises(LevelOutOfRange):
        tower.connector(2, 3)


def test_validate_passes():
    _tower().validate()


def test_connector_lookup_and_chaining():
    tower = _tower()
    rng = np.random.default_rng(51)
    declared = tower.connector(4, 1)
    chained = tower.connector(2, 1).compose(tower.connector(4, 2))
    for _ in range(10):
        g = tower.level(4).group.sample_group(rng)
        assert np.linalg.norm(declared.apply(g) - chained.apply(g)) < 1e-12
    identity = tower.connector(3, 3)
    g = tower.level(3).group.sample_group(rng)
    assert np.allclose(identity.apply(g), g)


def test_connectors_are_homomorphisms():
    tower = _tower()
    rng = np.random.default_rng(52)
    for (j, i), phi in tower.connectors.items():
        for _ in range(10):
            a = tower.level(j).group.sample_group(rng)
            b = tower.level(j).group.sample_group(rng)
            assert np.linalg.norm(
                phi.apply(a @ b) - phi.apply(a) @ phi.apply(b)) < 1e-10


def test_levels_pass_compatibility():
    tower = _tower()
    for i in range(1, tower.depth + 1):
        assert check_compatibility(tower.level(i), 1e-8).passed


def test_tower_related():
    report = check_tower_related(_tower(), 1e-8)
    assert report.passed
    assert len(report.checks) == 6 * 2  # level pairs x charts


def test_mutated_tower_fails_relatedness():
    tower = load_tower(fixture_path("tower_unipotent_mutated.json"))
    report = check_tower_related(tower, 1e-8)
    assert not report.passed
    assert any(c.max_residual > 0.1 for c in report.checks)


def test_projection_reproduces_declared_levels():
    tower = _tower()
    for i in range(1, tower.depth + 1):
        projected = project_connection(tower, i)
        declared = tower.level(i)
        assert check_compatibility(projected, 1e-8).passed
        for chart_id in declared.atlas.charts:
            chart = declared.atlas.chart(chart_id)
            pts = sample(declared.sample_plan, chart.box,
                         params=declared.params)
            for x in pts:
                delta = projected.forms[chart_id](x, [1.0]) \
                    - declared.forms[chart_id](x, [1.0])
                assert np.linalg.norm(delta) < 1e-8
        for key, g in declared.transitions.items():
            ov = declared.atlas.overlap(*key)
            pts = sample(declared.sample_plan, ov.domain, ov.mask,
                         declared.params)
            for x in pts:
                delta = projected.transitions[key].value(x) - g.value(x)
                assert np.linalg.norm(delta) < 1e-8


def test_limit_eval_projective_consistency():
    tower = _tower()
    top = tower.level(tower.depth)
    rng = np.random.default_rng(53)
    for _ in range(100):
        chart = "U1" if rng.random() < 0.5 else "U2"
        box = top.atlas.chart(chart).box
        x = rng.uniform(box[0][0], box[0][1], 1)
        a = top.group.sample_group(rng)
        p = PointRep(chart, x, a)
        # the group part of a tangent at a lies in a . (Lie algebra)
        u = TangentRep(rng.normal(size=1),
                       a @ top.group.sample_algebra(rng))
        values = limit_eval(tower, p, u)
        assert limit_consistency_residual(tower, values) < 1e-8


def test_validate_rejects_inconsistent_transitions():
    tower = _tower(grid=3, random=3)
    level1 = tower.level(1)
    broken = dict(level1.transitions)
    broken[("U1", "U2")] = ConstGroupMap(np.eye(2) + 0.1 * np.eye(2, k=1))
    levels = (dataclasses.replace(level1, transitions=broken),) \
        + tower.levels[1:]
    bad = dataclasses.replace(tower, levels=levels)
    with pytest.raises(TowerInvariantViolation, match="transition"):
        bad.validate()


def test_validate_rejects_inconsistent_connectors():
    tower = _tower(grid=3, random=3)
    connectors = dict(tower.connectors)
    connectors[(4, 1)] = tower.connector(2, 1).compose(
        tower.connector(3, 2)).compose(tower.connector(4, 3))
    # still fine: composition agrees with the declared direct connector
    dataclasses.replace(tower, connectors=connectors).validate()
    # replacing it with a different row extraction breaks consistency
    from localforms.expr import parse
    from localforms.lie import GroupMorphismSpec
    a = "[[1,0,0,0,0],[0,0,1,0,0]]"
    wrong = GroupMorphismSpec(
        5, 2, parse(f"{a} * g * transpose({a})", [],
                    matrix_params={"g": (5, 5)}))
    connectors[(4, 1)] = wrong
    with pytest.raises(TowerInvariantViolation):
        dataclasses.replace(tower, connectors=connectors).validate()


def _related_per_pair(tower, tolerance):
    """check_tower_related as one sampling and two form evaluations per
    level pair and chart."""
    report = Report(tolerance, tower.level(tower.depth).sample_plan)
    for j in range(2, tower.depth + 1):
        upper = tower.level(j)
        for i in range(1, j):
            phi = tower.connector(j, i)
            for chart_id in sorted(upper.atlas.charts):
                chart = upper.atlas.chart(chart_id)
                pts = sample(upper.sample_plan, chart.box,
                             params=upper.params)
                e = directions(chart.dim)
                lhs = phi.induced(upper.forms[chart_id](pts, e))
                rhs = tower.level(i).forms[chart_id](pts, e)
                report.add(f"tower-related:{j}->{i}:{chart_id}",
                           max_residual(lhs - rhs), len(pts) * chart.dim)
    return report


def _entries(report):
    return [(c.name, c.max_residual, c.sample_count, c.tolerance)
            for c in report.checks]


def _counting(tower):
    """The tower with every form wrapped to count its evaluations."""
    calls = []

    def wrap(form):
        def fn(x, v):
            calls.append(form.chart)
            return form(x, v)
        return CallableForm(form.chart, form.dim, form.n, fn)

    levels = tuple(level.with_forms({c: wrap(f) for c, f in
                                     level.forms.items()})
                   for level in tower.levels)
    return dataclasses.replace(tower, levels=levels), calls


@pytest.mark.parametrize("name", ["tower_unipotent.json",
                                  "tower_unipotent_mutated.json"])
def test_tower_related_matches_per_pair_reference(name):
    tower = load_tower(fixture_path(name))
    want = _entries(_related_per_pair(tower, 1e-8))
    counted, calls = _counting(tower)
    assert _entries(check_tower_related(counted, 1e-8)) == want
    # one evaluation per level and chart instead of two per pair and chart
    assert len(calls) == tower.depth * 2


def test_tower_related_with_a_sample_plan_per_level():
    tower = load_tower(fixture_path("tower_unipotent_mutated.json"))
    levels = tuple(
        dataclasses.replace(level, sample_plan=dataclasses.replace(
            level.sample_plan, grid=2 + k % 2, n_random=3 + k, seed=k))
        for k, level in enumerate(tower.levels))
    tower = dataclasses.replace(tower, levels=levels)
    want = _entries(_related_per_pair(tower, 1e-8))
    assert _entries(check_tower_related(tower, 1e-8)) == want
    assert len({count for _, _, count, _ in want}) > 1
