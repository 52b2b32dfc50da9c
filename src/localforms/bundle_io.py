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
from typing import Dict, Tuple

import numpy as np

from .atlas import Atlas, Chart, Overlap, SamplePlan
from .christoffel import ChristoffelData
from .connection import ExprForm, LocalConnectionData, PathSegment
from .errors import LocalFormsError, ValidationError
from .expr import parse
from .lie import ExprGroupMap, GroupMorphismSpec, GroupSpec
from .morphism import MorphismData
from .tower import TowerSpec


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(
            f"cannot read: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc


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


def _parse_group(doc) -> GroupSpec:
    generators = None
    if doc.get("generators"):
        generators = tuple(np.asarray(g, dtype=float)
                           for g in doc["generators"])
        for g in generators:
            if g.shape != (doc["n"], doc["n"]):
                raise ValidationError(
                    f"group '{doc.get('name')}': generator of shape {g.shape}")
    return GroupSpec(doc.get("name", "G"), int(doc["n"]), generators)


def _parse_plan(doc) -> SamplePlan:
    if doc is None:
        return SamplePlan()
    return SamplePlan(int(doc.get("grid", 5)), int(doc.get("random", 10)),
                      int(doc.get("seed", 0)))


def _parse_atlas(doc, params) -> Atlas:
    charts: Dict[str, Chart] = {}
    for entry in doc.get("charts", []):
        chart = Chart(entry["id"], int(entry["dim"]),
                      tuple((float(lo), float(hi)) for lo, hi in entry["box"]))
        if chart.id in charts:
            raise ValidationError(f"duplicate chart '{chart.id}'")
        charts[chart.id] = chart
    param_names = sorted(params)
    overlaps = []
    for entry in doc.get("overlaps", []):
        src, dst = entry["from"], entry["to"]
        for chart_id in (src, dst):
            if chart_id not in charts:
                raise ValidationError(
                    f"overlap {src}->{dst} references undeclared chart "
                    f"'{chart_id}'")
        src_chart, dst_chart = charts[src], charts[dst]
        change = entry["coord_change"]
        if len(change) != dst_chart.dim:
            raise ValidationError(
                f"overlap {src}->{dst}: {len(change)} coordinate-change "
                f"expressions, chart '{dst}' has dim {dst_chart.dim}")
        asts = tuple(parse(text, src_chart.coords, param_names)
                     for text in change)
        for ast in asts:
            if ast.shape is not None:
                raise ValidationError(
                    f"overlap {src}->{dst}: coordinate change must be scalar")
        mask = None
        if entry.get("mask"):
            mask = parse(entry["mask"], src_chart.coords, param_names)
        domain = tuple((float(lo), float(hi)) for lo, hi in entry["domain"])
        if len(domain) != src_chart.dim:
            raise ValidationError(
                f"overlap {src}->{dst}: domain dimension mismatch")
        overlaps.append(Overlap(src, dst, domain, asts, mask))
    if not charts:
        raise ValidationError("no charts declared")
    return Atlas(charts, tuple(overlaps))


def _parse_transition_key(key) -> Tuple[str, str]:
    parts = key.split(",")
    if len(parts) != 2:
        raise ValidationError(f"transition key '{key}' is not 'alpha,beta'")
    return parts[0].strip(), parts[1].strip()


def _parse_transitions(doc, atlas, n, params):
    param_names = sorted(params)
    transitions = {}
    for key, text in doc.items():
        a, b = _parse_transition_key(key)
        if a not in atlas.charts or b not in atlas.charts:
            raise ValidationError(
                f"transition '{key}' references an undeclared chart")
        ast = parse(text, atlas.chart(a).coords, param_names)
        if ast.shape != (n, n):
            raise ValidationError(
                f"transition '{key}' has shape {ast.shape}, expected "
                f"({n}, {n})")
        transitions[(a, b)] = ExprGroupMap(a, ast, params)
    return transitions


def _parse_forms(doc, atlas, n, params):
    param_names = sorted(params)
    forms = {}
    for chart_id, texts in doc.items():
        if chart_id not in atlas.charts:
            raise ValidationError(
                f"form declared for undeclared chart '{chart_id}'")
        chart = atlas.chart(chart_id)
        if len(texts) != chart.dim:
            raise ValidationError(
                f"form on '{chart_id}' has {len(texts)} coefficients, "
                f"chart dim is {chart.dim}")
        coeffs = tuple(parse(text, chart.coords, param_names)
                       for text in texts)
        for ast in coeffs:
            if ast.shape != (n, n):
                raise ValidationError(
                    f"form coefficient on '{chart_id}' has shape "
                    f"{ast.shape}, expected ({n}, {n})")
        forms[chart_id] = ExprForm(chart_id, chart.dim, n, coeffs, params)
    return forms


@_document_loader
def load_bundle(path) -> LocalConnectionData:
    """Load and validate a bundle description file."""
    doc = _load_json(path)
    params = {str(k): float(v) for k, v in doc.get("params", {}).items()}
    group = _parse_group(doc["group"])
    atlas = _parse_atlas(doc, params)
    transitions = _parse_transitions(doc.get("transitions", {}), atlas,
                                     group.n, params)
    forms = _parse_forms(doc.get("forms", {}), atlas, group.n, params)
    plan = _parse_plan(doc.get("sample_plan"))
    data = LocalConnectionData(atlas, group, transitions, forms, plan, params)
    return data.validate()


@_document_loader
def load_morphism(path, atlas=None, params=None) -> MorphismData:
    """Load a morphism description: phi (expression in the matrix parameter
    g), optional per-chart h maps, and group dimensions."""
    doc = _load_json(path)
    file_params = {str(k): float(v)
                   for k, v in doc.get("params", {}).items()}
    merged = dict(params or {})
    merged.update(file_params)
    n = int(doc["source_n"])
    m = int(doc["target_n"])
    phi_ast = parse(doc["phi"], [], sorted(merged),
                    matrix_params={"g": (n, n)})
    if phi_ast.shape != (m, m):
        raise ValidationError(
            f"phi has shape {phi_ast.shape}, expected ({m}, {m})")
    phi = GroupMorphismSpec(n, m, phi_ast, "g", merged)
    target_group = GroupSpec(doc.get("target_group_name", "H"), m)
    h = {}
    for chart_id, text in doc.get("h", {}).items():
        if atlas is None:
            raise ValidationError("h maps given without a bundle atlas")
        chart = atlas.chart(chart_id)
        ast = parse(text, chart.coords, sorted(merged))
        if ast.shape != (m, m):
            raise ValidationError(
                f"h on '{chart_id}' has shape {ast.shape}, expected ({m}, {m})")
        h[chart_id] = ExprGroupMap(chart_id, ast, merged)
    morphism = MorphismData(phi, h, target_group)
    target_transitions = None
    if doc.get("target_transitions") and atlas is not None:
        target_transitions = _parse_transitions(
            doc["target_transitions"], atlas, m, merged)
    return morphism, target_transitions


@_document_loader
def load_christoffel(path) -> Tuple[ChristoffelData, dict]:
    """Load Christoffel data plus the vector bundle's transition family."""
    doc = _load_json(path)
    params = {str(k): float(v) for k, v in doc.get("params", {}).items()}
    n = int(doc["fiber_dim"])
    atlas = _parse_atlas(doc, params)
    param_names = sorted(params)
    gamma = {}
    for chart_id, table in doc.get("gamma", {}).items():
        chart = atlas.chart(chart_id)
        parsed = tuple(
            tuple(tuple(parse(entry, chart.coords, param_names)
                        for entry in row)
                  for row in block)
            for block in table)
        gamma[chart_id] = parsed
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
    params = {str(k): float(v) for k, v in doc.get("params", {}).items()}
    atlas = _parse_atlas(doc, params)
    plan = _parse_plan(doc.get("sample_plan"))
    levels = []
    for entry in doc["levels"]:
        group = _parse_group(entry["group"])
        transitions = _parse_transitions(entry.get("transitions", {}), atlas,
                                         group.n, params)
        forms = _parse_forms(entry.get("forms", {}), atlas, group.n, params)
        levels.append(LocalConnectionData(atlas, group, transitions, forms,
                                          plan, params).validate())
    connectors = {}
    for key, entry in doc.get("connectors", {}).items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ValidationError(f"connector key '{key}' is not 'j,i'")
        j, i = int(parts[0]), int(parts[1])
        if not (1 <= i < j <= len(levels)):
            raise ValidationError(f"connector '{key}' is out of range")
        n = levels[j - 1].group.n
        m = levels[i - 1].group.n
        phi_ast = parse(entry["phi"], [], sorted(params),
                        matrix_params={"g": (n, n)})
        if phi_ast.shape != (m, m):
            raise ValidationError(
                f"connector '{key}' has shape {phi_ast.shape}, "
                f"expected ({m}, {m})")
        connectors[(j, i)] = GroupMorphismSpec(n, m, phi_ast, "g", params)
    return TowerSpec(tuple(levels), connectors)


@_document_loader
def load_path(path, atlas, params=None):
    """Load a transport path: a list of curve segments plus an optional
    starting group element."""
    doc = _load_json(path)
    param_names = sorted(params or {})
    segments = []
    for entry in doc["segments"]:
        chart = atlas.chart(entry["chart"])
        curve = tuple(parse(text, ["t"], param_names)
                      for text in entry["curve"])
        if len(curve) != chart.dim:
            raise ValidationError(
                f"segment in '{entry['chart']}': {len(curve)} curve "
                f"expressions, chart dim is {chart.dim}")
        t0, t1 = entry.get("t_range", [0.0, 1.0])
        segments.append(PathSegment(entry["chart"], curve, float(t0),
                                    float(t1)))
    a0 = None
    if doc.get("a0") is not None:
        a0 = np.asarray(doc["a0"], dtype=float)
    return segments, a0
