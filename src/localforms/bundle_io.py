"""Loaders for the JSON description files: bundles, morphisms, Christoffel
data, towers and transport paths.

All expressions use the chart-expression grammar (docs/grammar.md), with
coordinates x1..xd of the owning chart (or t for path curves) and the file's
params as scalar parameters.  Loading validates every expression and every
structural reference; errors name the offending chart/overlap/form.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Dict, Tuple

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


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValidationError(
            f"cannot read: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    return _parse_object(doc, "the document")


def _document_loader(load):
    """Wrap a public loader so that every error in the document names the
    file: a missing key or a value of the wrong type or form is a
    ValidationError, not a KeyError, AttributeError, OverflowError,
    TypeError or ValueError, and any other error of this package is
    re-raised as a ValidationError that names the file."""

    @functools.wraps(load)
    def wrapper(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except KeyError as exc:
            raise ValidationError(f"'{path}': missing key {exc}") from exc
        except (AttributeError, OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"'{path}': invalid value: {exc}") from exc
        except LocalFormsError as exc:
            raise ValidationError(f"'{path}': {exc}") from exc

    return wrapper


def _parse_expr(text, coords, params, shape, owner, matrix_params=None):
    """The one reader of a document expression: parse the text over the
    coordinates and the params, which it binds to their values, and require
    the field's shape, None for a scalar or (rows, cols) for a matrix."""
    ast = parse(text, coords, params, matrix_params)
    if ast.shape != shape:
        raise ValidationError(
            f"{owner} must be scalar" if shape is None
            else f"{owner} has shape {ast.shape}, expected {shape}")
    return ast


_JSON_TYPES = {str: "a string", dict: "an object", list: "a list",
               bool: "a boolean", int: "a number", float: "a number",
               type(None): "null"}


def _kind(value):
    """The JSON type of a value, as a message names it."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _parse_list(value, owner):
    """A list-valued field, which must be a JSON list: a string in its place
    would be read one character at a time."""
    if not isinstance(value, list):
        raise ValidationError(f"{owner} must be a list, not {_kind(value)}")
    return value


def _parse_object(value, owner):
    """An object-valued field or entry, which must be a JSON object: a
    string or a list in its place would be indexed as one."""
    if not isinstance(value, dict):
        raise ValidationError(
            f"{owner} must be an object, not {_kind(value)}")
    return value


def _parse_entries(value, owner):
    """A list of objects, such as the charts or the path segments."""
    return [_parse_object(entry, f"{owner}[{i}]")
            for i, entry in enumerate(_parse_list(value, owner))]


def _parse_int(value, owner):
    """An integer field, which must be a JSON integer: int() would truncate
    a fraction and read a string or a boolean as a number.  A number or a
    string in its place is named by its value."""
    if type(value) is not int:
        kind = (repr(value) if isinstance(value, (float, str))
                else _kind(value))
        raise ValidationError(f"{owner} must be an integer, not {kind}")
    return value


def _parse_number(value, owner):
    """A number field, which must be a JSON number: float() would read a
    string or a boolean as one."""
    if _kind(value) != "a number":
        raise ValidationError(f"{owner} must be a number, not {_kind(value)}")
    return float(value)


def _parse_numbers(value, owner):
    """A number or nested lists of them, such as a matrix, as given: every
    entry must be a JSON number."""
    if isinstance(value, list):
        for i, entry in enumerate(value):
            _parse_numbers(entry, f"{owner}[{i}]")
    else:
        _parse_number(value, owner)
    return value


def _parse_interval(value, owner):
    """An interval [lo, hi] as two floats."""
    if len(_parse_list(value, owner)) != 2:
        raise ValidationError(f"{owner} must be a list [lo, hi]")
    return tuple(_parse_number(bound, f"{owner}[{i}]")
                 for i, bound in enumerate(value))


def _parse_box(value, owner):
    """A box: one interval [lo, hi] per coordinate."""
    return tuple(_parse_interval(interval, f"{owner}[{i}]")
                 for i, interval in enumerate(_parse_list(value, owner)))


def _parse_params(doc, base=None):
    """The document's scalar params, over and overriding base.  Each is
    bound into the expressions as a literal is, so it must be a finite
    number: JSON readers take 1e400 as inf and accept NaN and Infinity."""
    params = dict(base or {})
    for name, value in _parse_object(doc.get("params", {}), "params").items():
        value = _parse_number(value, f"params: {name}")
        if not math.isfinite(value):
            raise ValidationError(
                f"params: {name} must be a finite number, not {value}")
        params[str(name)] = value
    return params


def _parse_key(key, owner, form, kind=str) -> tuple:
    """Both comma-separated parts of a pair key, such as 'a,b', by `kind`."""
    try:
        a, b = (kind(part.strip()) for part in key.split(","))
    except ValueError:
        raise ValidationError(f"{owner} key '{key}' is not '{form}'") from None
    return a, b


def _parse_group(doc) -> GroupSpec:
    """The group, its generators (if any) stacked in one (k, n, n) array of
    JSON numbers: a string, or a list of booleans only, stacks to an array
    that is neither integer nor float (numpy reads a boolean among numbers
    as 0 or 1)."""
    doc = _parse_object(doc, "group")
    n = _parse_int(doc["n"], "group: n")
    owner = f"group '{doc.get('name')}': generators"
    generators = None
    if doc.get("generators"):
        try:
            generators = np.asarray(doc["generators"])
        except ValueError:  # generators of different shapes
            raise ValidationError(f"{owner} are not all {n}x{n}") from None
        if generators.dtype.kind not in "iuf":
            raise ValidationError(f"{owner} must be numbers")
        if generators.shape[1:] != (n, n):
            raise ValidationError(f"{owner} are not all {n}x{n}")
        generators = generators.astype(float)
    return GroupSpec(doc.get("name", "G"), n, generators)


def _parse_plan(doc) -> SamplePlan:
    """The sample plan, with SamplePlan's default for each missing field."""
    doc = _parse_object({} if doc is None else doc, "sample_plan")
    plan = SamplePlan()
    return SamplePlan(
        _parse_int(doc.get("grid", plan.grid), "sample_plan: grid"),
        _parse_int(doc.get("random", plan.n_random), "sample_plan: random"),
        _parse_int(doc.get("seed", plan.seed), "sample_plan: seed"))


def _parse_atlas(doc, params) -> Atlas:
    charts: Dict[str, Chart] = {}
    for entry in _parse_entries(doc.get("charts", []), "charts"):
        owner = f"chart '{entry['id']}'"
        chart = Chart(entry["id"], _parse_int(entry["dim"], f"{owner}: dim"),
                      _parse_box(entry["box"], f"{owner}: box"))
        if chart.id in charts:
            raise ValidationError(f"duplicate chart '{chart.id}'")
        charts[chart.id] = chart
    overlaps = []
    for entry in _parse_entries(doc.get("overlaps", []), "overlaps"):
        src, dst = entry["from"], entry["to"]
        for chart_id in (src, dst):
            if chart_id not in charts:
                raise ValidationError(
                    f"overlap {src}->{dst} references undeclared chart "
                    f"'{chart_id}'")
        src_chart, dst_chart = charts[src], charts[dst]
        change = _parse_list(entry["coord_change"],
                             f"overlap {src}->{dst}: coord_change")
        if len(change) != dst_chart.dim:
            raise ValidationError(
                f"overlap {src}->{dst}: {len(change)} coordinate-change "
                f"expressions, chart '{dst}' has dim {dst_chart.dim}")
        asts = tuple(_parse_expr(text, src_chart.coords, params, None,
                                 f"overlap {src}->{dst}: coordinate change")
                     for text in change)
        mask = None
        if entry.get("mask"):
            mask = _parse_expr(entry["mask"], src_chart.coords, params, None,
                               f"overlap {src}->{dst}: mask")
        domain = _parse_box(entry["domain"], f"overlap {src}->{dst}: domain")
        if len(domain) != src_chart.dim:
            raise ValidationError(
                f"overlap {src}->{dst}: domain dimension mismatch")
        overlaps.append(Overlap(src, dst, domain, asts, mask))
    if not charts:
        raise ValidationError("no charts declared")
    return Atlas(charts, tuple(overlaps))


def _parse_transitions(doc, atlas, n, params, owner="transitions"):
    transitions = {}
    for key, text in _parse_object(doc, owner).items():
        a, b = _parse_key(key, "transition", "alpha,beta")
        if a not in atlas.charts or b not in atlas.charts:
            raise ValidationError(
                f"transition '{key}' references an undeclared chart")
        transitions[(a, b)] = ExprGroupMap(a, _parse_expr(
            text, atlas.chart(a).coords, params, (n, n),
            f"transition '{key}'"))
    return transitions


def _parse_forms(doc, atlas, n, params):
    """Forms with one coefficient per entry; LocalConnectionData.validate
    compares their count with the chart's dimension."""
    forms = {}
    for chart_id, texts in _parse_object(doc, "forms").items():
        if chart_id not in atlas.charts:
            raise ValidationError(
                f"form declared for undeclared chart '{chart_id}'")
        coeffs = tuple(_parse_expr(text, atlas.chart(chart_id).coords, params,
                                   (n, n), f"form coefficient on '{chart_id}'")
                       for text in _parse_list(texts, f"forms['{chart_id}']"))
        forms[chart_id] = ExprForm(chart_id, len(coeffs), n, coeffs)
    return forms


def _parse_connection(doc, atlas, plan, params) -> LocalConnectionData:
    """The group, transitions and forms of one bundle, validated."""
    group = _parse_group(doc["group"])
    transitions = _parse_transitions(doc.get("transitions", {}), atlas,
                                     group.n, params)
    forms = _parse_forms(doc.get("forms", {}), atlas, group.n, params)
    return LocalConnectionData(atlas, group, transitions, forms, plan,
                               params).validate()


@_document_loader
def load_bundle(path) -> LocalConnectionData:
    """Load and validate a bundle description file."""
    doc = _load_json(path)
    params = _parse_params(doc)
    return _parse_connection(doc, _parse_atlas(doc, params),
                             _parse_plan(doc.get("sample_plan")), params)


def _parse_phi(text, n, m, params, owner) -> GroupMorphismSpec:
    """A group morphism GL(n) -> GL(m): an expression in the (n, n) matrix
    parameter g whose value is (m, m) and which maps the identity to the
    identity."""
    ast = _parse_expr(text, [], params, (m, m), owner, {"g": (n, n)})
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
def load_morphism(path, atlas=None, params=None) -> MorphismData:
    """Load a morphism description: phi (expression in the matrix parameter
    g), optional per-chart h maps, and group dimensions."""
    doc = _load_json(path)
    merged = _parse_params(doc, params)
    n, m = (_parse_int(doc[key], key) for key in ("source_n", "target_n"))
    phi = _parse_phi(doc["phi"], n, m, merged, "phi")
    target_group = GroupSpec(doc.get("target_group_name", "H"), m)
    h = {}
    for chart_id, text in _parse_object(doc.get("h", {}), "h").items():
        if atlas is None:
            raise ValidationError("h maps given without a bundle atlas")
        h[chart_id] = ExprGroupMap(chart_id, _parse_expr(
            text, atlas.chart(chart_id).coords, merged, (m, m),
            f"h on '{chart_id}'"))
    morphism = MorphismData(phi, h, target_group)
    target_transitions = None
    if doc.get("target_transitions") and atlas is not None:
        target_transitions = _parse_transitions(
            doc["target_transitions"], atlas, m, merged, "target_transitions")
    return morphism, target_transitions


@_document_loader
def load_christoffel(path) -> Tuple[ChristoffelData, dict]:
    """Load Christoffel data plus the vector bundle's transition family."""
    doc = _load_json(path)
    params = _parse_params(doc)
    n = _parse_int(doc["fiber_dim"], "fiber_dim")
    atlas = _parse_atlas(doc, params)
    gamma = {}
    for chart_id, table in _parse_object(doc.get("gamma", {}),
                                         "gamma").items():
        coords = atlas.chart(chart_id).coords
        owner = f"Christoffel symbol on '{chart_id}'"
        where = f"gamma['{chart_id}']"
        gamma[chart_id] = tuple(
            tuple(tuple(_parse_expr(entry, coords, params, None, owner)
                        for entry in _parse_list(row, f"{where}[{i}][{j}]"))
                  for j, row in enumerate(_parse_list(block, f"{where}[{i}]")))
            for i, block in enumerate(_parse_list(table, where)))
    plan = _parse_plan(doc.get("sample_plan"))
    data = ChristoffelData(atlas, n, gamma, plan, params).validate()
    transitions = _parse_transitions(doc.get("transitions", {}), atlas, n,
                                     params)
    return data, transitions


@_document_loader
def load_tower(path) -> TowerSpec:
    """Load a tower description: shared atlas, per-level bundle data and the
    connecting morphisms keyed 'j,i'."""
    doc = _load_json(path)
    params = _parse_params(doc)
    atlas = _parse_atlas(doc, params)
    plan = _parse_plan(doc.get("sample_plan"))
    levels = [_parse_connection(entry, atlas, plan, params)
              for entry in _parse_entries(doc["levels"], "levels")]
    connectors = {}
    for key, entry in _parse_object(doc.get("connectors", {}),
                                    "connectors").items():
        j, i = _parse_key(key, "connector", "j,i", int)
        if not (1 <= i < j <= len(levels)):
            raise ValidationError(f"connector '{key}' is out of range")
        owner = f"connector '{key}'"
        connectors[(j, i)] = _parse_phi(
            _parse_object(entry, owner)["phi"], levels[j - 1].group.n,
            levels[i - 1].group.n, params, owner)
    return TowerSpec(tuple(levels), connectors)


@_document_loader
def load_path(path, atlas, params=None, *, n=None):
    """Load a transport path: a list of curve segments plus an optional
    starting group element, which must be a finite, invertible n x n matrix
    when n is given."""
    doc = _load_json(path)
    segments = []
    for entry in _parse_entries(doc["segments"], "segments"):
        chart = atlas.chart(entry["chart"])
        owner = f"segment in '{entry['chart']}': curve"
        curve = tuple(_parse_expr(text, ["t"], params, None, owner)
                      for text in _parse_list(entry["curve"], owner))
        if len(curve) != chart.dim:
            raise ValidationError(
                f"segment in '{entry['chart']}': {len(curve)} curve "
                f"expressions, chart dim is {chart.dim}")
        t0, t1 = _parse_interval(entry.get("t_range", [0.0, 1.0]),
                                 f"segment in '{entry['chart']}': t_range")
        segments.append(PathSegment(entry["chart"], curve, t0, t1))
    a0 = None
    if doc.get("a0") is not None:
        a0 = _parse_numbers(doc["a0"], "a0")
        a0 = np.asarray(a0, dtype=float) if n is None else start_matrix(a0, n)
    return segments, a0
