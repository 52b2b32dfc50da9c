"""The float-tolerant comparison of `tools/same_reports.py --floats` on
synthetic report pairs."""

import json

import pytest

from localforms.report import canonical_json

from conftest import TOOLS, load_tool


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # for its bench_pairs import
    return load_tool("same_reports")


REPORT = {"command": "verify", "checks": [
    {"name": "compatibility:U_N", "max_residual": 5.0e-15, "passed": True,
     "sample_count": 194},
    {"name": "cocycle:U_N,U_S", "max_residual": "nan", "passed": False,
     "sample_count": 0}]}


def _result(report, code=0, err=""):
    return [code, json.dumps(report, indent=2), err]


def _edit(path, value):
    report = json.loads(json.dumps(REPORT))
    target = report
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return report


def test_identical_reports_change_no_float(tool):
    assert tool.float_only(_result(REPORT), _result(REPORT)) == []


def test_float_only_change_gives_its_key_and_size(tool):
    changed = _edit(("checks", 0, "max_residual"), 2.3e-15)
    changes = tool.float_only(_result(REPORT), _result(changed))
    assert changes == [("max_residual", pytest.approx(2.7e-15))]
    assert max(delta for _, delta in changes) <= 1e-13


def test_float_change_beyond_atol_is_still_measured(tool):
    changed = _edit(("checks", 0, "max_residual"), 0.5)
    [(key, delta)] = tool.float_only(_result(REPORT), _result(changed))
    assert key == "max_residual" and delta > 1e-13


def test_float_that_became_zero_compares_as_a_number(tool):
    # the report writes a float 0.0 as 0, which JSON reads as an integer
    assert canonical_json(0.0) == "0"
    changed = _edit(("checks", 0, "max_residual"), 0)
    assert tool.float_only(_result(REPORT), _result(changed)) == [
        ("max_residual", 5.0e-15)]
    assert tool.float_only(_result(changed), _result(REPORT)) == [
        ("max_residual", 5.0e-15)]
    beyond = _edit(("checks", 0, "max_residual"), 1)
    assert tool.float_only(_result(changed), _result(beyond)) is None


@pytest.mark.parametrize("changed", [
    _edit(("checks", 0, "witness"), [0.1, 0.2]),  # an added key
    _edit(("checks", 1, "name"), "cocycle:U_S,U_N"),  # a changed string
    _edit(("checks", 1, "max_residual"), 1e-15),  # "nan" against a number
    _edit(("checks", 0, "sample_count"), 195),  # an integer
    _edit(("checks", 0, "passed"), False),
    _edit(("checks",), REPORT["checks"][:1]),  # a list length
])
def test_other_differences_are_not_float_only(tool, changed):
    assert tool.float_only(_result(REPORT), _result(changed)) is None


def test_exit_code_stderr_and_unparsed_output_are_not_float_only(tool):
    assert tool.float_only(_result(REPORT), _result(REPORT, code=1)) is None
    assert tool.float_only(_result(REPORT),
                           _result(REPORT, err="warning\n")) is None
    assert tool.float_only([2, "", "error: x\n"], [2, "", "error: y\n"]) is None
    assert tool.float_only([0, "{", ""], [0, "{ ", ""]) is None
