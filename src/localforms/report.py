"""Check reports with deterministic JSON serialization.

Reports carry full provenance (seed, sample plan, tolerance) so a failure is
reproducible from the report alone.  Serialization is canonical: keys are
sorted and every float is written with 17 significant digits, so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .atlas import SamplePlan


@dataclass
class CheckResult:
    name: str
    max_residual: float
    sample_count: int
    tolerance: float

    @property
    def passed(self):
        """Fail closed: a check passes only if it saw at least one sample
        and its largest residual is finite and below tolerance."""
        return (self.sample_count > 0 and math.isfinite(self.max_residual)
                and self.max_residual < self.tolerance)

    def to_dict(self):
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "sample_count": self.sample_count,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class Report:
    tolerance: float
    plan: Optional[SamplePlan] = None
    checks: List[CheckResult] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)

    def add(self, name, max_residual, sample_count):
        self.checks.append(CheckResult(name, float(max_residual),
                                       int(sample_count), self.tolerance))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failing(self):
        return [c.name for c in self.checks if not c.passed]

    def merge(self, other: "Report"):
        self.checks.extend(other.checks)

    def to_dict(self):
        doc = {
            "tool": "localforms",
            "version": __version__,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }
        if self.plan is not None:
            doc["sample_plan"] = {
                "grid": self.plan.grid,
                "random": self.plan.n_random,
                "seed": self.plan.seed,
            }
        doc.update(self.extra)
        return doc

    def to_json(self):
        return canonical_json(self.to_dict()) + "\n"


def max_residual(diff, axis=(-2, -1)):
    """Largest norm over a stack of residual matrices (vectors with
    axis=-1); 0.0 for an empty stack, NaN if any residual is NaN."""
    return float(np.max(np.linalg.norm(diff, axis=axis), initial=0.0))


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = format(value, ".17g")
        # JSON has no literal for nan and inf; they are written as strings
        return text if math.isfinite(value) else f'"{text}"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        import json
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(doc, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = [f'{inner}"{key}": {canonical_json(doc[key], indent + 1)}'
                 for key in sorted(doc)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in doc]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _format_value(doc)
