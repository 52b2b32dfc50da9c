"""Christoffel symbols of a linear connection on a vector bundle, and their
bijective conversion to local connection forms on the frame bundle.

The conversion is pure index relabeling: coefficient matrix i of the local
form has (j, k) entry Gamma[i][j][k], so the two directions are mutually
inverse with bit-identical coefficient expressions.  Chart maps are taken
to be the identity on chart coordinates, so any reparametrization is
absorbed into the chart definition itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from .atlas import Atlas, SamplePlan
from .connection import (DEFAULT_TOLERANCE, ExprForm, LocalConnectionData,
                         check_compatibility)
from .errors import GroupMismatchError, ShapeError
from .expr import ExprAST, MatLit
from .lie import GroupMap, GroupSpec
from .report import Report

GammaTable = Tuple[Tuple[Tuple[ExprAST, ...], ...], ...]  # [i][j][k]


@dataclass(frozen=True)
class ChristoffelData:
    atlas: Atlas
    fiber_dim: int
    gamma: Mapping[str, GammaTable]
    sample_plan: SamplePlan = SamplePlan()


def christoffel_to_forms(data: ChristoffelData,
                         transitions: Mapping[Tuple[str, str], GroupMap]
                         ) -> LocalConnectionData:
    """Frame-bundle local forms: the dx_i coefficient is the matrix with
    (j, k) entry Gamma[i][j][k], acting on fiber vectors u by
    (omega_x(v)).u = Gamma(x)(v, u)."""
    n = data.fiber_dim
    forms = {}
    for chart_id, table in data.gamma.items():
        chart = data.atlas.chart(chart_id)
        coeffs = []
        for block in table:
            rows = tuple(tuple(entry.root for entry in row) for row in block)
            coeffs.append(ExprAST(MatLit(rows), chart.coords))
        forms[chart_id] = ExprForm(tuple(coeffs))
    group = GroupSpec(f"GL({n})", n)
    return LocalConnectionData(data.atlas, group, dict(transitions), forms,
                               data.sample_plan)


def forms_to_christoffel(data: LocalConnectionData) -> ChristoffelData:
    """Inverse relabeling: Gamma[i][j][k] = (coefficient matrix i)_jk.

    Requires expression-backed forms whose coefficients are matrix literals;
    composite (closure-backed) forms have no finite coefficient expressions."""
    n = data.group.n
    gamma = {}
    for chart_id, form in data.forms.items():
        if not isinstance(form, ExprForm):
            raise ShapeError(
                f"form on '{chart_id}' is not expression-backed")
        table = []
        for coeff in form.coeffs:
            if coeff.shape != (n, n):
                raise GroupMismatchError(
                    f"form on '{chart_id}' is {coeff.shape[0]}x"
                    f"{coeff.shape[1]}, fiber dimension is {n}")
            root = coeff.root
            if not isinstance(root, MatLit):
                raise ShapeError(
                    f"coefficient on '{chart_id}' is not a matrix literal")
            table.append(tuple(
                tuple(ExprAST(entry, coeff.coords) for entry in row)
                for row in root.rows))
        gamma[chart_id] = tuple(table)
    return ChristoffelData(data.atlas, n, gamma, data.sample_plan)


def check_christoffel_compat(data: ChristoffelData,
                             transitions: Mapping[Tuple[str, str], GroupMap],
                             tolerance=DEFAULT_TOLERANCE) -> Report:
    """Compatibility of the Christoffel family through the vector-bundle
    transitions, verified via the frame-bundle conversion: the Christoffel
    relation holds iff the converted forms satisfy the overlap condition."""
    return check_compatibility(christoffel_to_forms(data, transitions),
                               tolerance)
