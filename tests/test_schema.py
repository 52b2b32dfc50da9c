"""An oracle for the document schemas, run on every fixture: at every field
(the first entry of each list and each object of any keys standing for all
of them), a value of each other JSON type, a deleted required key and an
unknown key added to a named-field object each exit 2 with a message that
names the field, and no traceback; the fixture itself keeps its exit code.

The field types come from the fixtures' own values, the integer fields and
the keys that may be left out from the lists below, not from the schemas.
One exception: inside `generators`, which numpy stacks, a boolean among the
numbers reads as 0 or 1."""

import contextlib
import io
import json
import os

import pytest

from localforms.cli import main

from conftest import FIXTURES, fixture_path

# fixture -> the CLI call that reads it, "{}" standing for its path
_BUNDLES = ("flat", "flat_mutated", "abelian", "abelian_mutated",
            "monopole_k1", "monopole_k1_mutated", "monopole_k2",
            "monopole_k3", "sphere_frame", "sphere_frame_mutated",
            "three_charts", "three_charts_mutated")
RUNS = {f"{name}.json": ["verify", "{}"] for name in _BUNDLES}
RUNS.update({
    "morphism_identity.json": ["relate", fixture_path("abelian.json"),
                               fixture_path("abelian.json"), "{}"],
    "morphism_squaring.json": ["push", fixture_path("monopole_k1.json"),
                               "{}"],
    "morphism_gauge.json": ["push", fixture_path("monopole_k1.json"), "{}"],
    "sphere_levi_civita.json": ["convert-christoffel", "{}"],
    "sphere_levi_civita_mutated.json": ["convert-christoffel", "{}"],
    "tower_unipotent.json": ["tower", "{}"],
    "tower_unipotent_mutated.json": ["tower", "{}"],
    "path_flat.json": ["transport", fixture_path("flat.json"), "{}"],
    "path_abelian.json": ["transport", fixture_path("abelian.json"), "{}"],
    "path_abelian_two_charts.json": ["transport",
                                     fixture_path("abelian.json"), "{}"],
    "path_monopole_equator.json": ["transport",
                                   fixture_path("monopole_k1.json"), "{}"],
})

INTEGER_FIELDS = {"n", "dim", "source_n", "target_n", "fiber_dim", "grid",
                  "random", "seed"}
OPTIONAL = {"overlaps", "mask", "name", "generators", "transitions",
            "params", "sample_plan", "grid", "random", "seed", "t_range",
            "a0", "h", "target_transitions", "target_group_name",
            "connectors"}
# objects of any keys: chart ids, pair keys, param names
MAPS = {"params", "transitions", "forms", "gamma", "h", "target_transitions",
        "connectors"}

VALUES = {"null": None, "boolean": True, "integer": 2, "fraction": 0.5,
          "string": "x1", "list": [], "object": {}}
ACCEPTED = {"number": {"integer", "fraction"}, "integer": {"integer"},
            "string": {"string"}, "list": {"list"}, "object": {"object"}}


def _kind(key, value):
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "list"
    if isinstance(value, str):
        return "string"
    return "integer" if key in INTEGER_FIELDS else "number"


def _fields(node, keys=(), where="", field=None):
    """(keys, path text, field name, value, is named-field object) of every
    value, with one list entry and one key of a map standing for all."""
    yield keys, where, field, node, isinstance(node, dict) \
        and field not in MAPS
    if isinstance(node, list) and node:
        yield from _fields(node[0], keys + (0,), f"{where}[0]", field)
    elif isinstance(node, dict) and field in MAPS and node:
        key = next(iter(node))
        yield from _fields(node[key], keys + (key,), f"{where}['{key}']")
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _fields(value, keys + (key,),
                               f"{where}.{key}" if where else key, key)


def _changed(text, keys, change):
    """The JSON document `text` with change(container, key) applied at the
    key path."""
    doc = json.loads(text)
    container = doc
    for key in keys[:-1]:
        container = container[key]
    change(container, keys[-1])
    return doc


def _run(name, doc, tmp_path):
    """Exit code and stderr (the file's name cut out) of the fixture's run
    on doc."""
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc))
    argv = [path if arg == "{}" else arg for arg in RUNS[name]]
    argv += (["--steps", "20"] if argv[0] == "transport"
             else ["--grid", "2", "--random", "2"])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().replace(f"'{path}': ", "")


def test_every_fixture_has_a_run():
    assert sorted(RUNS) == sorted(os.listdir(FIXTURES))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_schema_oracle(name, tmp_path):
    with open(fixture_path(name), encoding="utf-8") as handle:
        text = handle.read()
    doc = json.loads(text)
    own = 1 if "mutated" in name else 0
    cases = [("its own value", doc, own, "")]
    for keys, where, field, value, named in _fields(doc):
        if keys:
            in_generators = "generators" in keys
            kind = _kind(field, value)
            for label, wrong in VALUES.items():
                if label in ACCEPTED[kind] or (
                        in_generators and label == "boolean"
                        and kind == "number"):
                    continue
                shown = where[:where.index("generators") + 10] \
                    if in_generators else where
                cases.append((f"{where} = {wrong!r}", _changed(
                    text, keys, lambda c, k: c.__setitem__(k, wrong)),
                    2, shown))
        if named:
            owner = f"{where}: " if where else ""
            for key in value:
                if key not in OPTIONAL:
                    cases.append((f"{where} without {key}", _changed(
                        text, keys + (key,), lambda c, k: c.pop(k)),
                        2, f"{owner}missing key '{key}'"))
            cases.append((f"{where} with an unknown key", _changed(
                text, keys + ("extra",),
                lambda c, k: c.__setitem__(k, 1)),
                2, f"{owner}unknown key 'extra'"))
    failures = []
    for label, variant, code, needle in cases:
        got, err = _run(name, variant, tmp_path)
        lines = err.splitlines()
        if got != code or needle not in err or "Traceback" in err \
                or (code == 2 and len(lines) != 1):
            failures.append(f"{label}: exit {got}, {err.strip()!r}")
    assert failures == [], f"{len(cases)} cases"
