import dataclasses
import json

import numpy as np
import pytest

import localforms.tower
from localforms.atlas import Atlas, directions, sample
from localforms.bundle_io import load_tower
from localforms.connection import (CallableForm, PointRep, TangentRep,
                                   check_compatibility)
from localforms.errors import (LevelOutOfRange, TowerInvariantViolation,
                               ValidationError)
from localforms.expr import ExprAST, parse
from localforms.lie import ConstGroupMap, GroupMap, GroupMorphismSpec, GroupSpec
from localforms.report import Report, max_residual
from localforms.tower import (check_tower_related, limit_consistency_residual,
                              limit_eval, project_connection)

from conftest import fixture_path, load_tool


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
            pts = sample(declared.sample_plan, chart.box)
            for x in pts:
                delta = projected.forms[chart_id](x, [1.0]) \
                    - declared.forms[chart_id](x, [1.0])
                assert np.linalg.norm(delta) < 1e-8
        for key, g in declared.transitions.items():
            ov = declared.atlas.overlap(*key)
            pts = sample(declared.sample_plan, ov.domain, ov.mask)
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
                pts = sample(upper.sample_plan, chart.box)
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

    def wrap(chart, form):
        def fn(x, v):
            calls.append(chart)
            return form(x, v)
        return CallableForm(fn)

    levels = tuple(dataclasses.replace(level, forms={
        c: wrap(c, f) for c, f in level.forms.items()})
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


class _CountingNumpy:
    """numpy as the tower module sees it, counting its concatenations."""

    def __init__(self):
        self.stacks = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def concatenate(self, *args, **kwargs):
        self.stacks += 1
        return np.concatenate(*args, **kwargs)


@pytest.mark.parametrize("depth", [4, 8])
def test_tower_related_stacks_each_level_once(tmp_path, monkeypatch, depth):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(load_tool("make_fixtures").tower(depth)))
    tower = load_tower(str(path))
    want = _entries(_related_per_pair(tower, 1e-8))
    counting = _CountingNumpy()
    monkeypatch.setattr(localforms.tower, "np", counting)
    # the levels share one plan, so each level's form values are stacked
    # once, however many pairs the level takes part in
    assert _entries(check_tower_related(tower, 1e-8)) == want
    assert counting.stacks == depth
    assert len(want) == depth * (depth - 1)


# ----- structure checks of the dataclass --------------------------------

@pytest.mark.parametrize("j", [2, 3, 4])
def test_tower_without_a_consecutive_connector_is_rejected(j):
    tower = _tower(grid=3, random=3)
    connectors = dict(tower.connectors)
    del connectors[(j, j - 1)]
    with pytest.raises(ValidationError,
                       match=f"connector '{j},{j - 1}' is missing"):
        dataclasses.replace(tower, connectors=connectors)


def test_tower_levels_with_different_transitions_are_rejected():
    tower = _tower(grid=3, random=3)
    level2 = tower.level(2)
    # as many keys as level 1 declares, but not the same ones
    flipped = {("U2", "U1"): level2.transitions[("U1", "U2")],
               ("U2", "U2"): level2.transitions[("U2", "U1")]}
    levels = (tower.level(1),
              dataclasses.replace(level2, transitions=flipped)) \
        + tower.levels[2:]
    with pytest.raises(ValidationError,
                       match="levels 1 and 2 declare different transitions"):
        dataclasses.replace(tower, levels=levels)


# ----- validate against the triple-loop reference ----------------------

def _validate_by_triples(tower, tolerance=1e-9, n_samples=20, seed=7):
    """TowerSpec.validate checking every (j, i) against (k, i).(j, k) for
    each k between, one sample stack per triple; returns the first
    violation's message or None."""
    rng = np.random.default_rng(seed)

    def violation(diff, message):
        residuals = np.linalg.norm(diff, axis=(-2, -1))
        if np.any(residuals > tolerance):
            return f"{message} by {residuals.max():.3e}"
        return None

    for j in range(3, tower.depth + 1):
        group = tower.level(j).group
        for i in range(1, j - 1):
            direct = tower.connector(j, i)
            for k in range(i + 1, j):
                composed = tower.connector(k, i).compose(tower.connector(j, k))
                g = group.sample_group(rng, shape=(n_samples,))
                found = violation(direct.apply(g) - composed.apply(g),
                                  f"connectors ({j},{i}) vs ({k},{i}).({j},{k})")
                if found:
                    return found
    for i in range(1, tower.depth):
        upper, lower = tower.level(i + 1), tower.level(i)
        phi = tower.connector(i + 1, i)
        for key, g_upper in upper.transitions.items():
            if key[0] == key[1]:
                continue
            ov = upper.atlas.overlap(*key)
            pts = sample(upper.sample_plan, ov.domain, ov.mask)
            found = violation(
                lower.transitions[key].value(pts)
                - phi.apply(g_upper.value(pts)),
                f"transition {key} at level {i}")
            if found:
                return found
    return None


def _verdict(tower):
    try:
        tower.validate()
    except TowerInvariantViolation as exc:
        return str(exc)
    return None


def _shifted_block(j, i):
    """A morphism UT(j+1) -> UT(i+1) that is not the truncation: the
    diagonal block on indices 1..i+1 instead of 0..i."""
    a = str([[1 if c == r + 1 else 0 for c in range(j + 1)]
             for r in range(i + 1)])
    return GroupMorphismSpec(
        j + 1, i + 1, parse(f"{a} * g * transpose({a})", [],
                            matrix_params={"g": (j + 1, j + 1)}))


def _variants():
    """The fixture tower, the same without its non-consecutive connectors
    into level 1 (those become chains), and every copy of either with one
    declared connector replaced by a wrong morphism, by name."""
    tower = _tower(grid=3, random=3)
    sparse = dataclasses.replace(tower, connectors={
        key: phi for key, phi in tower.connectors.items()
        if key[1] != 1 or key[0] == 2})
    for name, base in (("fixture", tower), ("sparse", sparse)):
        yield name, base
        for j, i in sorted(base.connectors):
            connectors = dict(base.connectors)
            connectors[(j, i)] = _shifted_block(j, i)
            yield (f"{name} ({j},{i})",
                   dataclasses.replace(base, connectors=connectors))


def test_validate_gives_the_triple_loop_verdict():
    verdicts = {name: (_verdict(tower), _validate_by_triples(tower))
                for name, tower in _variants()}
    assert len(verdicts) == 2 + 6 + 4
    assert {name: got is None for name, (got, _) in verdicts.items()} \
        == {name: want is None for name, (_, want) in verdicts.items()}
    # every wrong connector is caught, consecutive or not, except (2,1) in
    # the sparse tower: no declared connector constrains it there, and the
    # shifted block projects the level transitions as the truncation does
    assert {name for name, (got, _) in verdicts.items() if got is None} \
        == {"fixture", "sparse", "sparse (2,1)"}
    assert all(got.startswith("connectors (")
               for got, _ in verdicts.values() if got is not None)


def _validate_per_pair(tower):
    """TowerSpec.validate with one connector walk per use: each pair check,
    mid-chain image and projected transition applies its connector afresh;
    returns the first violation's message or None."""
    rng = np.random.default_rng(7)

    def violation(diff, message):
        residuals = np.linalg.norm(diff, axis=(-2, -1))
        bad = residuals > 1e-9
        if np.any(bad):
            return f"{message} by {residuals[np.argmax(bad)]:.3e}"
        return None

    for j in range(3, tower.depth + 1):
        g = tower.level(j).group.sample_group(rng, (20,))
        mid = tower.connector(j, j - 1).apply(g)
        for i in range(1, j - 1):
            if (j, i) in tower.connectors:
                found = violation(
                    tower.connector(j, i).apply(g)
                    - tower.connector(j - 1, i).apply(mid),
                    f"connectors ({j},{i}) vs ({j - 1},{i}).({j},{j - 1})"
                    f" differ")
                if found:
                    return found
    for i in range(1, tower.depth):
        upper, lower = tower.level(i + 1), tower.level(i)
        phi = tower.connector(i + 1, i)
        for key, g_upper in upper.transitions.items():
            if key[0] == key[1]:
                continue
            ov = upper.atlas.overlap(*key)
            pts = sample(upper.sample_plan, ov.domain, ov.mask)
            found = violation(
                lower.transitions[key].value(pts)
                - phi.apply(g_upper.value(pts)),
                f"transition {key} at level {i} deviates from the "
                f"projected level-{i + 1} transition")
            if found:
                return found
    return None


def _broken_transition(tower):
    level1 = tower.level(1)
    broken = dict(level1.transitions)
    broken[("U1", "U2")] = ConstGroupMap(np.eye(2) + 0.1 * np.eye(2, k=1))
    return dataclasses.replace(tower, levels=(dataclasses.replace(
        level1, transitions=broken),) + tower.levels[1:])


def test_validate_gives_the_per_pair_message():
    # one walk per connector on the stacked arguments changes no bit of the
    # residuals: the first violation's message is the per-pair one
    towers = dict(_variants())
    towers["broken transition"] = _broken_transition(_tower(grid=3, random=3))
    messages = {name: (_verdict(tower), _validate_per_pair(tower))
                for name, tower in towers.items()}
    assert {name: got for name, (got, _) in messages.items()} \
        == {name: want for name, (_, want) in messages.items()}
    assert sum(want is not None for _, want in messages.values()) == 10
    assert messages["broken transition"][1].startswith("transition ")


def _morphism_walks(monkeypatch):
    """Record the morphism of every GroupMorphismSpec walk."""
    calls = []
    walk = GroupMorphismSpec._eval

    def counted(self, arg):
        calls.append(self)
        return walk(self, arg)

    monkeypatch.setattr(GroupMorphismSpec, "_eval", counted)
    return calls


def test_each_connector_walks_once_per_phase(monkeypatch):
    calls = _morphism_walks(monkeypatch)
    tower = load_tower(fixture_path("tower_unipotent.json"))
    connectors = sorted(map(id, tower.connectors.values()))
    # load applies each connector to the identity
    assert sorted(map(id, calls)) == connectors
    # validate walks each connector once, on everything it checks
    calls.clear()
    tower.validate()
    assert sorted(map(id, calls)) == connectors
    # relatedness walks each level pair's connector once, on every chart's
    # forms stacked
    calls.clear()
    check_tower_related(tower, 1e-8)
    assert sorted(map(id, calls)) == connectors


def test_undeclared_connector_walks_its_chain_links(monkeypatch):
    # without (3,1), the (4,1) check applies the chain (2,1).(3,2) to the
    # mid-chain image (4,3)(g_4): one more walk of each link
    tower = _tower(grid=3, random=3)
    tower = dataclasses.replace(tower, connectors={
        key: phi for key, phi in tower.connectors.items() if key != (3, 1)})
    calls = _morphism_walks(monkeypatch)
    tower.validate()
    assert {key: sum(phi is walked for walked in calls)
            for key, phi in tower.connectors.items()} \
        == {(2, 1): 2, (3, 2): 2, (4, 1): 1, (4, 2): 1, (4, 3): 1}


class _CountingMap(GroupMap):
    def __init__(self, inner, calls, name):
        self.inner, self.calls, self.name = inner, calls, name

    def value(self, x):
        self.calls.append(self.name)
        return self.inner.value(x)


def _counting_transitions(tower):
    """The tower with every transition wrapped to record (level, key) per
    evaluation."""
    calls = []
    levels = tuple(
        dataclasses.replace(level, transitions={
            key: _CountingMap(g, calls, (i, key))
            for key, g in level.transitions.items()})
        for i, level in enumerate(tower.levels, start=1))
    return dataclasses.replace(tower, levels=levels), calls


def test_validate_samples_once_per_level_and_evaluates_once_per_key(
        monkeypatch):
    tower, calls = _counting_transitions(_tower(grid=3, random=3))
    draws = []
    sample_group = GroupSpec.sample_group

    def counting_sample_group(self, *args, **kwargs):
        draws.append(self.n)
        return sample_group(self, *args, **kwargs)

    monkeypatch.setattr(GroupSpec, "sample_group", counting_sample_group)
    tower.validate()
    # one sample stack for each level j >= 3 (groups UT(4) and UT(5))
    assert draws == [4, 5]
    off_diagonal = [key for key in tower.level(1).transitions
                    if key[0] != key[1]]
    assert sorted(calls) == sorted(
        (i, key) for i in range(1, tower.depth + 1) for key in off_diagonal)


def test_load_rejects_a_connector_that_moves_the_identity(tmp_path):
    doc = json.loads(open(fixture_path("tower_unipotent.json")).read())
    doc["connectors"]["2,1"]["phi"] = ("[[1,0,0],[0,1,0]] * mexp(g) * "
                                       "transpose([[1,0,0],[0,1,0]])")
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError,
                       match=r"connector '2,1' does not map the identity"):
        load_tower(str(path))


def test_validate_samples_each_overlap_once(monkeypatch):
    # every level shares one plan and atlas, so the atlas's memo samples
    # each off-diagonal overlap for the first pair and the others reuse it
    import localforms.atlas
    draws = []
    monkeypatch.setattr(localforms.atlas, "sample",
                        lambda *args, **kwargs: draws.append(args[1])
                        or sample(*args, **kwargs))
    tower = _tower(grid=3, random=3)
    tower.validate()
    off_diagonal = [key for key in tower.level(1).transitions
                    if key[0] != key[1]]
    assert sorted(draws) == sorted(tower.level(1).atlas.overlap(*key).domain
                                   for key in off_diagonal)


@pytest.mark.parametrize("change", ["plan", "atlas"])
def test_tower_levels_without_one_plan_and_atlas_are_rejected(change):
    tower = _tower(grid=3, random=3)
    level2 = tower.level(2)
    if change == "plan":
        level2 = dataclasses.replace(level2, sample_plan=dataclasses.replace(
            level2.sample_plan, seed=level2.sample_plan.seed + 1))
    else:  # the same charts and overlaps in another atlas object
        level2 = dataclasses.replace(level2, atlas=Atlas(
            level2.atlas.charts, level2.atlas.overlaps))
    levels = tower.levels[:1] + (level2,) + tower.levels[2:]
    with pytest.raises(ValidationError, match="levels 1 and 2 do not share "
                       "one atlas and sample plan"):
        dataclasses.replace(tower, levels=levels)


def test_loading_infers_each_connector_shape_once(monkeypatch):
    # parse infers the shape and keeps it; the loader's check reads it
    roots = []
    post_init = ExprAST.__post_init__
    monkeypatch.setattr(ExprAST, "__post_init__",
                        lambda ast: roots.append(ast.root) or post_init(ast))
    tower = load_tower(fixture_path("tower_unipotent.json"))
    for phi in tower.connectors.values():
        assert sum(root is phi.phi.root for root in roots) == 1
