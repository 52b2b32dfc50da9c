"""Operator view of a connection acting on local sections.

A local section over a chart is the natural section times a
group-valued map g; the connection operator sends it to the gauge transform
of the chart's local form by g.  The natural section itself (g = identity)
maps to the local form, and the operator obeys the equivariance law
D(sigma . a) = Ad(a^-1) . D(sigma) + a^-1 da.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from ..lie import GroupMap
from .data import LocalConnectionData
from .forms import LocalForm, gauge_transform


@dataclass(frozen=True)
class SectionRep:
    """The section s_chart . g over the chart."""

    chart: str
    g: GroupMap


def connection_operator(data: LocalConnectionData,
                        section: SectionRep) -> LocalForm:
    if section.chart not in data.forms:
        raise ValidationError(f"unknown chart '{section.chart}'")
    return gauge_transform(data.forms[section.chart], section.g)
