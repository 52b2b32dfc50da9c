from .checks import (OVERLAP_TOLERANCE, check_cocycle, check_compatibility,
                     check_overlaps, check_relation)
from .data import DEFAULT_TOLERANCE, LocalConnectionData
from .forms import (CallableForm, ExprForm, LocalForm, gauge, gauge_transform,
                    zero_form)
from .operator import SectionRep, connection_operator
from .points import (PointRep, TangentRep, chart_change, fundamental_tangent,
                     global_form_eval, horizontal_lift)
from .transport import (DEFAULT_STEPS, PathSegment, parallel_transport,
                        start_matrix)

__all__ = [
    "CallableForm", "DEFAULT_STEPS", "DEFAULT_TOLERANCE", "ExprForm",
    "LocalConnectionData", "LocalForm", "OVERLAP_TOLERANCE", "PathSegment",
    "PointRep", "SectionRep", "TangentRep", "chart_change",
    "check_cocycle", "check_compatibility", "check_overlaps",
    "check_relation", "connection_operator",
    "fundamental_tangent", "gauge", "gauge_transform",
    "global_form_eval", "horizontal_lift", "parallel_transport",
    "start_matrix", "zero_form",
]
