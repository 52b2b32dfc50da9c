"""The complete local description of a principal bundle with connection:
atlas, matrix group, transition-function family and local-form family."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from ..atlas import Atlas, Overlap, SamplePlan
from ..lie import GroupMap, GroupSpec
from .forms import LocalForm

DEFAULT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class LocalConnectionData:
    atlas: Atlas
    group: GroupSpec
    transitions: Mapping[Tuple[str, str], GroupMap]
    forms: Mapping[str, LocalForm]
    sample_plan: SamplePlan = SamplePlan()
    params: Mapping[str, float] = field(default_factory=dict)

    def points(self, region):
        """The sample points of a chart id or an overlap under this data's
        plan, from the atlas's memo (read-only)."""
        return self.atlas.points(self.sample_plan, region)

    def pushed(self, overlap: Overlap):
        """The overlap's memoized push of its sample points and of every
        unit direction: (psi(x), Dpsi(x) e), read-only."""
        return self.atlas.pushed(self.sample_plan, overlap)
