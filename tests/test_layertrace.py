"""The benchmark's tracer reads traced functions by name (`vars(cls)[attr]`)
and `atlas.sample`'s plan and box by position, so renaming or
re-signaturing one breaks the traced benchmark run: install, trace one
command and uninstall here."""

import importlib.util

from localforms import atlas, cli
from localforms.expr import ExprAST

from conftest import ROOT, fixture_path


def _layertrace():
    path = ROOT / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_a_command_and_uninstalls(tmp_path):
    originals = vars(ExprAST)["eval"], atlas.sample
    tracer = _layertrace().Tracer()
    tracer.install()
    try:
        assert vars(ExprAST)["eval"] is not originals[0]
        code = tracer.run_command(0, cli.main, [
            "verify", fixture_path("abelian.json"), "--grid", "2",
            "--random", "0", "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.command_metrics()[0]
    assert metrics["atlas.points_generated"] > 0
    assert metrics["expr.eval_calls"] > 0
    assert (vars(ExprAST)["eval"], atlas.sample) == originals
