"""Per-layer tracing of localforms from outside, by wrapping public functions.

Nothing in the program is edited: `Tracer.install` replaces each traced
function by a timing wrapper at every place a caller resolves it (a class
attribute, or every module-level binding of a function, such as both
`cli.check_compatibility` and `christoffel.check_compatibility`), and
`Tracer.uninstall` puts the originals back.

Coarse calls (loaders, sampling, checks, constructions, transport and
serialization) become spans with a name, start, end, parent span and command
id.  Hot per-point calls (expression evaluation, coordinate changes, matrix
kernels, morphism, form and path evaluation, parsing) are aggregated per
parent span into a count, a total time and a self time, so the trace stays
bounded.  A call's self time is its duration minus the durations of the
traced calls it makes; every `*_s` layer metric is a sum of self times.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# Layer metrics with the unit each is reported in.  `_s` metrics are self
# times, summed per pass; the rest are counts or ratios per pass.
LAYER_UNITS = {
    "bundle_io.load_s": "s", "bundle_io.load_calls": "count",
    "expr.parse_s": "s", "expr.parse_calls": "count",
    "expr.eval_s": "s", "expr.eval_calls": "count",
    "expr.eval_dual_calls": "count", "expr.evals_per_sample": "ratio",
    "atlas.sample_s": "s", "atlas.points_kept_ratio": "ratio",
    "atlas.coord_change_calls": "count", "atlas.coord_change_s": "s",
    "lie.expm_calls": "count", "lie.expm_s": "s",
    "lie.inverse_calls": "count", "lie.inverse_s": "s",
    "lie.morphism_calls": "count", "lie.morphism_s": "s",
    "connection.checks_s": "s", "connection.form_calls": "count",
    "connection.form_s": "s", "connection.transport_s": "s",
    "connection.path_at_calls": "count", "connection.path_at_s": "s",
    "morphism.related_s": "s", "morphism.cocycle_s": "s",
    "morphism.construct_s": "s", "christoffel.convert_s": "s",
    "tower.validate_s": "s", "tower.related_s": "s",
    "report.serialize_s": "s", "report.bytes": "bytes",
    "cli.self_s": "s", "trace.overhead_ratio": "ratio",
}

ROOT_METRIC = "cli.self_s"


def _sample_counts(args, result):
    plan, box = args[0], args[1]
    generated = (plan.grid ** len(box) if plan.grid >= 1 else 0) \
        + max(plan.n_random, 0)
    return {"atlas.points_generated": generated,
            "atlas.points_kept": len(result)}


def _report_bytes(args, result):
    return {"report.bytes": len(result.encode("utf-8"))}


def _targets():
    """(owner, attribute, self-time metric, call-count metrics, coarse,
    observer).  A module owner means every binding of that function in the
    package; a class owner means the class attribute."""
    from localforms import atlas, bundle_io, christoffel, lie, morphism, \
        report, tower
    from localforms.connection import checks, forms, transport
    from localforms.expr import dual, parser

    eval_calls = ("expr.eval_calls",)
    hot = [
        (parser.ExprAST, "eval", "expr.eval_s", eval_calls),
        (parser.ExprAST, "eval_dual", "expr.eval_s",
         eval_calls + ("expr.eval_dual_calls",)),
        (parser.ExprAST, "eval_bound", "expr.eval_s", eval_calls),
        (parser, "parse", "expr.parse_s", ("expr.parse_calls",)),
        (atlas.Overlap, "map_point", "atlas.coord_change_s",
         ("atlas.coord_change_calls",)),
        (atlas.Overlap, "push", "atlas.coord_change_s",
         ("atlas.coord_change_calls",)),
        (lie, "expm", "lie.expm_s", ("lie.expm_calls",)),  # lie and dual
        (dual.Dual, "mexp", "lie.expm_s", ()),
        (lie, "inverse", "lie.inverse_s", ("lie.inverse_calls",)),
        (dual.Dual, "inv", "lie.inverse_s", ("lie.inverse_calls",)),
        (forms.ExprForm, "__call__", "connection.form_s",
         ("connection.form_calls",)),
        (forms.CallableForm, "__call__", "connection.form_s",
         ("connection.form_calls",)),
        (transport.PathSegment, "at", "connection.path_at_s",
         ("connection.path_at_calls",)),
    ]
    for cls in (lie.GroupMorphismSpec, lie._ComposedMorphism):
        for name in ("apply", "differential", "induced", "compose"):
            if name in vars(cls):
                hot.append((cls, name, "lie.morphism_s",
                            ("lie.morphism_calls",)))
    loaders = [(bundle_io, name, "bundle_io.load_s", None)
               for name in ("load_bundle", "load_morphism",
                            "load_christoffel", "load_tower", "load_path")]
    coarse = loaders + [
        (atlas, "sample", "atlas.sample_s", _sample_counts),
        (checks, "check_cocycle", "connection.checks_s", None),
        (checks, "check_compatibility", "connection.checks_s", None),
        (checks, "check_overlaps", "connection.checks_s", None),
        (transport, "parallel_transport", "connection.transport_s", None),
        (morphism, "check_related", "morphism.related_s", None),
        (morphism, "check_morphism_cocycle", "morphism.cocycle_s", None),
        (morphism, "pushforward_connection", "morphism.construct_s", None),
        (morphism, "associated_connection", "morphism.construct_s", None),
        (christoffel, "christoffel_to_forms", "christoffel.convert_s", None),
        (christoffel, "check_christoffel_compat", "christoffel.convert_s",
         None),
        (tower.TowerSpec, "validate", "tower.validate_s", None),
        (tower, "check_tower_related", "tower.related_s", None),
        (report.Report, "to_json", "report.serialize_s", _report_bytes),
    ]
    load_calls = ("bundle_io.load_calls",)
    targets = [(owner, attr, metric, counts, False, None)
               for owner, attr, metric, counts in hot]
    targets += [(owner, attr, metric,
                 load_calls if metric == "bundle_io.load_s" else (), True,
                 observe)
                for owner, attr, metric, observe in coarse]
    return targets


class Tracer:
    def __init__(self):
        self.spans = {}  # id -> span record
        # (parent span, name) -> [calls, total time, self time]
        self.aggs = defaultdict(lambda: [0, 0.0, 0.0])
        # traced name -> (self-time metric, count metrics)
        self._meta = {"cli.main": (ROOT_METRIC, ())}
        self._stack = [[0.0]]  # child time of each open traced call
        self._span = None
        self._command = None
        self._next_id = 0
        self._patches = []

    # ----- patching --------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "localforms" or name.startswith("localforms.")]
        for owner, attr, metric, counts, coarse, observe in _targets():
            name = f"{getattr(owner, '__name__', owner)}.{attr}"
            self._meta[name] = (metric, counts)
            original = (vars(owner)[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            wrapper = (self._coarse if coarse else self._hot)(
                original, name, observe)
            for place in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(place).items()):
                    if value is original:
                        self._patches.append((place, key, original))
                        setattr(place, key, wrapper)

    def uninstall(self):
        for place, key, original in reversed(self._patches):
            setattr(place, key, original)
        self._patches.clear()

    def _hot(self, fn, name, _observe):
        stack, aggs = self._stack, self.aggs

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stack[-1][0] += duration
                record = aggs[(self._span, name)]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]

        return wrapper

    def _coarse(self, fn, name, observe):
        def wrapper(*args, **kwargs):
            return self._span_call(name, observe, fn, args, kwargs)

        return wrapper

    def _span_call(self, name, observe, fn, args, kwargs):
        span = {"id": self._next_id, "name": name, "parent": self._span,
                "command": self._command}
        self._next_id += 1
        self._span = span["id"]
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._stack[-1][0] += end - start
            self._span = span["parent"]
            span.update(start=start, end=end, self=end - start - frame[0])
            self.spans[span["id"]] = span
        if observe is not None:
            span["counts"] = observe(args, result)
        return result

    # ----- commands ---------------------------------------------------

    def run_command(self, command_id, fn, *args):
        """Run one CLI call as the root span of command `command_id`."""
        self._command = command_id
        try:
            return self._span_call("cli.main", None, fn, args, {})
        finally:
            self._command = None

    def command_metrics(self):
        """{command id: {metric: value}} from the spans and aggregates:
        self times and call counts per layer, the command's wall time
        ("wall"), and the sample and report counters."""
        out = defaultdict(lambda: defaultdict(float))
        for span in self.spans.values():
            metrics = out[span["command"]]
            metric, counts = self._meta[span["name"]]
            metrics[metric] += span["self"]
            for key in counts:
                metrics[key] += 1
            for key, value in span.get("counts", {}).items():
                metrics[key] += value
            if span["parent"] is None:
                metrics["wall"] += span["end"] - span["start"]
        for (parent, name), (count, _total, self_time) in self.aggs.items():
            metrics = out[self.spans[parent]["command"]]
            metric, counts = self._meta[name]
            metrics[metric] += self_time
            for key in counts:
                metrics[key] += count
        return out

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for _, span in sorted(self.spans.items()):
                handle.write(json.dumps(dict(span, type="span")) + "\n")
            for (parent, name), (count, total, self_time) in self.aggs.items():
                handle.write(json.dumps({
                    "type": "agg", "parent": parent, "name": name,
                    "command": self.spans[parent]["command"], "count": count,
                    "total": total, "self": self_time}) + "\n")
