"""Loaders for the JSON description files: bundles, morphisms, Christoffel
data, towers and transport paths.

Each document kind has one schema below, and one walker reads a document by
it, naming the field's path in every error.  The loaders read the typed
values and make every semantic check, once.  Expressions use the grammar of
docs/grammar.md over the chart's coordinates (t for path curves) and params.
"""

from __future__ import annotations

import functools
import json
from sys import float_info
from typing import NamedTuple, Tuple

import numpy as np

from .atlas import Atlas, Chart, Overlap, SamplePlan
from .christoffel import ChristoffelData
from .connection import (DEFAULT_TOLERANCE, ExprForm, LocalConnectionData,
                         PathSegment, start_matrix)
from .errors import LocalFormsError, ValidationError
from .expr import parse
from .lie import ExprGroupMap, GroupMorphismSpec, GroupSpec
from .morphism import MorphismData
from .tower import TowerSpec

# A schema is a leaf type, [item] for a list of items, (first, second) for a
# two-entry list, a dict of named fields (Opt for one that may be left out,
# which reads as its default) or Map(values) for an object of any keys.
# ARRAY is a list whose entries numpy checks when it stacks them; SIZE is an
# integer from 1 to MAX_SIZE.
NUMBER, INTEGER, SIZE, STRING, ARRAY = (
    "a finite number", "an integer", "a positive integer", "a string",
    "a list")
MAX_SIZE = 4096
_LEAF_TYPES = {INTEGER: int, SIZE: int, STRING: str, ARRAY: list}
_JSON_TYPES = {dict: "an object", list: "a list", bool: "a boolean",
               str: "a string", type(None): "null"}


class Opt(NamedTuple):
    schema: object
    default: object = None


class Map(NamedTuple):
    values: object


def _where(path):
    """A walker path as messages name it, such as charts[1].box[0][1]."""
    text = "".join(f"[{step}]" if type(step) is int
                   else f"['{step[0]}']" if type(step) is tuple  # a Map key
                   else f".{step}" for step in path)
    return text[1:] if text.startswith(".") else text or "the document"


def _chart(charts, chart_id, path):
    """The chart `chart_id` of `charts`, named at the walker path `path`."""
    if chart_id not in charts:
        raise ValidationError(f"{_where(path)}: unknown chart '{chart_id}'")
    return charts[chart_id]


def _type_error(path, expected, value):
    shown = _JSON_TYPES.get(type(value)) or repr(value)  # a number by value
    return ValidationError(f"{_where(path)} must be {expected}, not {shown}")


def _walk(value, schema, path=()):
    """The typed value of a JSON value under its schema: lists as tuples,
    numbers as floats, objects as dicts holding every named field.  The
    path becomes text only for an error."""
    kind = type(schema)
    if kind is str:  # a leaf; NaN fails the comparison
        if schema is NUMBER:
            if type(value) in (int, float) and abs(value) <= float_info.max:
                return float(value)
        elif type(value) is _LEAF_TYPES[schema] and (
                schema is not SIZE or 1 <= value <= MAX_SIZE):
            return value
        elif schema is SIZE and type(value) is not int:
            schema = INTEGER  # a non-integer fails as at any integer field
        elif schema is SIZE and value > MAX_SIZE:
            schema = f"{SIZE} of at most {MAX_SIZE}"
        raise _type_error(path, schema, value)
    if kind is list or kind is tuple:
        if type(value) is not list:
            raise _type_error(path, "a list", value)
        fields = schema * len(value) if kind is list else schema
        if len(fields) != len(value):
            raise ValidationError(f"{_where(path)} must be a list of "
                                  f"{len(schema)} entries, not {len(value)}")
        return tuple([_walk(entry, field, path + (i,))
                      for i, (entry, field) in enumerate(zip(value, fields))])
    if type(value) is not dict:
        raise _type_error(path, "an object", value)
    if kind is Map:
        return {key: _walk(item, schema.values, path + ((key,),))
                for key, item in value.items()}
    owner = f"{_where(path)}: " if path else ""
    for key in value:
        if key not in schema:
            raise ValidationError(f"{owner}unknown key '{key}'")
    fields = {}
    for key, field in schema.items():
        if type(field) is Opt:
            if key not in value:
                fields[key] = field.default
                continue
            field = field.schema
        elif key not in value:
            raise ValidationError(f"{owner}missing key '{key}'")
        fields[key] = _walk(value[key], field, path + (key,))
    return fields


_INTERVALS = [(NUMBER, NUMBER)]
_ATLAS = {
    "charts": [{"id": STRING, "dim": SIZE, "box": _INTERVALS}],
    "overlaps": Opt([{"from": STRING, "to": STRING, "domain": _INTERVALS,
                      "coord_change": [STRING], "mask": Opt(STRING)}], ()),
}
_CONNECTION = {
    "group": {"name": Opt(STRING, "G"), "n": SIZE,
              "generators": Opt(ARRAY)},
    "transitions": Opt(Map(STRING), {}),
    "forms": Map([STRING]),
}
_PLAN = {"grid": Opt(INTEGER, SamplePlan.grid),
         "random": Opt(INTEGER, SamplePlan.n_random),
         "seed": Opt(INTEGER, SamplePlan.seed)}
_PARAMS = Opt(Map(NUMBER), {})
_SETTINGS = {"params": _PARAMS, "sample_plan": Opt(_PLAN, _walk({}, _PLAN))}

BUNDLE = {**_ATLAS, **_CONNECTION, **_SETTINGS}
MORPHISM = {"source_n": SIZE, "target_n": SIZE, "phi": STRING,
            "target_group_name": Opt(STRING, "H"), "h": Opt(Map(STRING), {}),
            "target_transitions": Opt(Map(STRING)), "params": _PARAMS}
CHRISTOFFEL = {**_ATLAS, "fiber_dim": SIZE, "gamma": Map([[[STRING]]]),
               "transitions": Opt(Map(STRING), {}), **_SETTINGS}
TOWER = {**_ATLAS, "levels": [_CONNECTION],
         "connectors": Opt(Map({"phi": STRING}), {}), **_SETTINGS}
# a path has no params of its own: its curves see the bundle's
PATH = {"segments": [{"chart": STRING, "curve": [STRING],
                      "t_range": Opt((NUMBER, NUMBER), (0.0, 1.0))}],
        "a0": Opt([[NUMBER]])}


def _load_json(path, schema):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValidationError(
            f"cannot read: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    return _walk(doc, schema)


def _document_loader(load):
    """Wrap a public loader so that every error in the document names the
    file: one of this package's, or numpy's on a typed value it cannot take,
    such as a group size beyond its arrays."""

    @functools.wraps(load)
    def wrapper(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"'{path}': invalid value: {exc}") from exc
        except LocalFormsError as exc:
            raise ValidationError(f"'{path}': {exc}") from exc

    return wrapper


def _parse_expr(text, coords, params, literals, shape, owner,
                matrix_params=None):
    """The one reader of a document expression: parse the text over the
    coordinates and the params (numbers of the tree), sharing the literal
    table `literals` of the document's loader call, and require the
    field's shape, None for a scalar or (rows, cols) for a matrix."""
    ast = parse(text, coords, params, matrix_params, literals=literals)
    if ast.shape != shape:
        raise ValidationError(
            f"{owner} must be scalar" if shape is None
            else f"{owner} has shape {ast.shape}, expected {shape}")
    return ast


def _parse_key(key, owner, form, kind=str) -> tuple:
    """Both comma-separated parts of a pair key, such as 'a,b', by `kind`."""
    try:
        a, b = (kind(part.strip()) for part in key.split(","))
    except ValueError:
        raise ValidationError(f"{owner} key '{key}' is not '{form}'") from None
    return a, b


def _parse_group(group, path) -> GroupSpec:
    """The group, its generators (if any) stacked by numpy in one (k, n, n)
    array of JSON numbers: a string, or a list of booleans only, stacks to
    an array that is neither integer nor float (numpy reads a boolean among
    numbers as 0 or 1)."""
    n, generators = group["n"], None
    if group["generators"]:
        try:
            generators = np.asarray(group["generators"])
        except ValueError:  # generators of different shapes
            pass
        if (generators is None or generators.dtype.kind not in "iuf"
                or generators.shape[1:] != (n, n)):
            raise ValidationError(f"{_where(path + ('group', 'generators'))} "
                                  f"must be {n}x{n} matrices of numbers")
        generators = generators.astype(float)
    return GroupSpec(group["name"], n, generators)


def _parse_plan(plan) -> SamplePlan:
    return SamplePlan(plan["grid"], plan["random"], plan["seed"])


def _parse_atlas(doc, params, literals) -> Atlas:
    charts = {}
    for entry in doc["charts"]:
        chart = Chart(entry["id"], entry["dim"], entry["box"])
        if chart.id in charts:
            raise ValidationError(f"duplicate chart '{chart.id}'")
        charts[chart.id] = chart
    overlaps = []
    for k, entry in enumerate(doc["overlaps"]):
        src, dst = entry["from"], entry["to"]
        src_chart = _chart(charts, src, ("overlaps", k, "from"))
        dst_chart = _chart(charts, dst, ("overlaps", k, "to"))
        change = entry["coord_change"]
        if len(change) != dst_chart.dim:
            raise ValidationError(
                f"overlap {src}->{dst}: {len(change)} coordinate-change "
                f"expressions, chart '{dst}' has dim {dst_chart.dim}")
        asts = tuple(_parse_expr(text, src_chart.coords, params, literals,
                                 None,
                                 f"overlap {src}->{dst}: coordinate change")
                     for text in change)
        mask = None if entry["mask"] is None else _parse_expr(
            entry["mask"], src_chart.coords, params, literals, None,
            f"overlap {src}->{dst}: mask")
        if len(entry["domain"]) != src_chart.dim:
            raise ValidationError(
                f"overlap {src}->{dst}: domain dimension mismatch")
        overlaps.append(Overlap(src, dst, entry["domain"], asts, mask))
    if not charts:
        raise ValidationError("no charts declared")
    return Atlas(charts, tuple(overlaps))


def _parse_transitions(texts, atlas, n, params, literals, path):
    transitions = {}
    for key, text in texts.items():
        a, b = _parse_key(key, "transition", "alpha,beta")
        coords = _chart(atlas.charts, a, path + ((key,),)).coords
        _chart(atlas.charts, b, path + ((key,),))
        transitions[(a, b)] = ExprGroupMap(a, _parse_expr(
            text, coords, params, literals, (n, n), f"transition '{key}'"))
    return transitions


def _parse_forms(doc, atlas, n, params, literals, path):
    """Forms with one coefficient per entry; _parse_connection compares
    their count with the chart's dimension."""
    forms = {}
    for chart_id, texts in doc.items():
        coords = _chart(atlas.charts, chart_id, path + ((chart_id,),)).coords
        coeffs = tuple(_parse_expr(text, coords, params, literals, (n, n),
                                   f"form coefficient on '{chart_id}'")
                       for text in texts)
        forms[chart_id] = ExprForm(coeffs)
    return forms


def _parse_connection(doc, atlas, plan, params, literals, path=()
                      ) -> LocalConnectionData:
    """The group, transitions and forms of one bundle, checked once all are
    read; `path` is the walker path of the bundle's fields in the document."""
    group = _parse_group(doc["group"], path)
    transitions = _parse_transitions(doc["transitions"], atlas, group.n,
                                     params, literals, path + ("transitions",))
    forms = _parse_forms(doc["forms"], atlas, group.n, params, literals,
                         path + ("forms",))
    for chart_id in atlas.charts:
        if chart_id not in forms:
            raise ValidationError(f"chart '{chart_id}' has no local form")
    for chart_id, form in forms.items():
        dim = atlas.charts[chart_id].dim
        if len(form.coeffs) != dim:
            raise ValidationError(f"form on '{chart_id}' has "
                                  f"{len(form.coeffs)} coefficients, "
                                  f"chart dim is {dim}")
    for (a, b) in transitions:
        if a != b and atlas.overlap(a, b) is None:
            raise ValidationError(
                f"transition ({a},{b}) declared without overlap {a}->{b}")
    for ov in atlas.overlaps:
        if (ov.src, ov.dst) not in transitions \
                and (ov.dst, ov.src) not in transitions:
            raise ValidationError(
                f"overlap {ov.src}->{ov.dst} has no transition function")
    return LocalConnectionData(atlas, group, transitions, forms, plan, params)


@_document_loader
def load_bundle(path) -> LocalConnectionData:
    """Load and validate a bundle description file."""
    doc = _load_json(path, BUNDLE)
    params, literals = doc["params"], {}
    return _parse_connection(doc, _parse_atlas(doc, params, literals),
                             _parse_plan(doc["sample_plan"]), params, literals)


def _parse_phi(text, n, m, params, literals, owner) -> GroupMorphismSpec:
    """A group morphism GL(n) -> GL(m): an expression in the (n, n) matrix
    parameter g whose value is (m, m) and which maps the identity to the
    identity."""
    ast = _parse_expr(text, [], params, literals, (m, m), owner,
                      {"g": (n, n)})
    phi = GroupMorphismSpec(n, m, ast)
    try:
        unit = phi.apply(np.eye(n))
    except LocalFormsError as exc:
        raise ValidationError(f"{owner} at the identity: {exc}") from exc
    residual = np.linalg.norm(unit - np.eye(m))
    if not residual <= DEFAULT_TOLERANCE:  # a NaN residual fails too
        raise ValidationError(
            f"{owner} does not map the identity to the identity "
            f"(off by {residual:.3e})")
    return phi


@_document_loader
def load_morphism(path, atlas, params) -> MorphismData:
    """Load a morphism over the source bundle's `atlas`: phi (expression in
    the matrix parameter g), per-chart h maps, group dimensions and target
    transitions, None if it declares none.  Its own params win over the
    bundle's `params`."""
    doc = _load_json(path, MORPHISM)
    merged, literals = {**params, **doc["params"]}, {}
    n, m = doc["source_n"], doc["target_n"]
    phi = _parse_phi(doc["phi"], n, m, merged, literals, "phi")
    target_group = GroupSpec(doc["target_group_name"], m)
    h = {}
    for chart_id, text in doc["h"].items():
        coords = _chart(atlas.charts, chart_id, ("h", (chart_id,))).coords
        h[chart_id] = ExprGroupMap(chart_id, _parse_expr(
            text, coords, merged, literals, (m, m), f"h on '{chart_id}'"))
    morphism = MorphismData(phi, h, target_group)
    target_transitions = None
    if doc["target_transitions"]:
        target_transitions = _parse_transitions(
            doc["target_transitions"], atlas, m, merged, literals,
            ("target_transitions",))
    return morphism, target_transitions


@_document_loader
def load_christoffel(path) -> Tuple[ChristoffelData, dict]:
    """Load Christoffel data plus the vector bundle's transition family."""
    doc = _load_json(path, CHRISTOFFEL)
    params, literals, n = doc["params"], {}, doc["fiber_dim"]
    atlas = _parse_atlas(doc, params, literals)
    gamma = {}
    for chart_id, table in doc["gamma"].items():
        coords = _chart(atlas.charts, chart_id, ("gamma", (chart_id,))).coords
        owner = f"Christoffel symbol on '{chart_id}'"
        gamma[chart_id] = tuple(
            tuple(tuple(_parse_expr(entry, coords, params, literals, None,
                                    owner)
                        for entry in row) for row in block)
            for block in table)
    plan = _parse_plan(doc["sample_plan"])
    for chart_id in atlas.charts:
        if chart_id not in gamma:
            raise ValidationError(
                f"chart '{chart_id}' has no Christoffel symbols")
    for chart_id, table in gamma.items():
        dim = atlas.charts[chart_id].dim
        if len(table) != dim:
            raise ValidationError(f"chart '{chart_id}': {len(table)} "
                                  f"coefficient blocks, chart dim is {dim}")
        for block in table:
            if len(block) != n or any(len(row) != n for row in block):
                raise ValidationError(f"chart '{chart_id}': coefficient "
                                      f"block is not {n}x{n}")
    data = ChristoffelData(atlas, n, gamma, plan)
    return data, _parse_transitions(doc["transitions"], atlas, n, params,
                                    literals, ("transitions",))


@_document_loader
def load_tower(path) -> TowerSpec:
    """Load a tower description: shared atlas, per-level bundle data and the
    connecting morphisms keyed 'j,i'."""
    doc = _load_json(path, TOWER)
    if not doc["levels"]:
        raise ValidationError("levels must list at least one level")
    params, literals = doc["params"], {}
    atlas = _parse_atlas(doc, params, literals)
    plan = _parse_plan(doc["sample_plan"])
    levels = [_parse_connection(entry, atlas, plan, params, literals,
                                ("levels", i))
              for i, entry in enumerate(doc["levels"])]
    connectors = {}
    for key, entry in doc["connectors"].items():
        j, i = _parse_key(key, "connector", "j,i", int)
        if not (1 <= i < j <= len(levels)):
            raise ValidationError(f"connector '{key}' is out of range")
        connectors[(j, i)] = _parse_phi(
            entry["phi"], levels[j - 1].group.n, levels[i - 1].group.n,
            params, literals, f"connector '{key}'")
    return TowerSpec(tuple(levels), connectors)


@_document_loader
def load_path(path, atlas, params=None, *, n=None):
    """Load a transport path: a list of curve segments plus an optional
    starting group element, which must be a finite, invertible n x n matrix
    when n is given.  The curves see `params`, the bundle's."""
    doc = _load_json(path, PATH)
    segments, literals = [], {}
    for k, entry in enumerate(doc["segments"]):
        chart = _chart(atlas.charts, entry["chart"], ("segments", k, "chart"))
        owner = f"segment in '{entry['chart']}': curve"
        curve = tuple(_parse_expr(text, ["t"], params, literals, None, owner)
                      for text in entry["curve"])
        if len(curve) != chart.dim:
            raise ValidationError(
                f"segment in '{entry['chart']}': {len(curve)} curve "
                f"expressions, chart dim is {chart.dim}")
        segments.append(PathSegment(entry["chart"], curve, *entry["t_range"]))
    a0 = doc["a0"]
    if a0 is not None:
        a0 = np.asarray(a0, dtype=float) if n is None else start_matrix(a0, n)
    return segments, a0
