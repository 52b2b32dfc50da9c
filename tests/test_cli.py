import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from localforms.cli import _build_parser, main

from conftest import ROOT, Case, case_id, expected, fixture_path

FAST = ["--grid", "5", "--random", "8"]


def run(tmp_path, *args, fast=True):
    out = tmp_path / "report.json"
    argv = list(args) + ["--out", str(out)] + (FAST if fast else [])
    code = main(argv)
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_verify_passes_on_good_bundle(tmp_path):
    code, report = run(tmp_path, "verify", fixture_path("monopole_k1.json"))
    assert code == 0
    assert report["passed"] is True
    assert report["tool"] == "localforms"
    names = [c["name"] for c in report["checks"]]
    assert "cocycle:U_N,U_S" in names
    assert "compatibility:U_N,U_S" in names
    assert report["sample_plan"] == {"grid": 5, "random": 8, "seed": 42}


def test_verify_fails_on_broken_transition(tmp_path):
    code, report = run(tmp_path, "verify",
                       fixture_path("monopole_k1_mutated.json"))
    assert code == 1
    assert report["passed"] is False
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    assert "compatibility:U_N,U_S" in failing


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _fresh_process(argv):
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from localforms.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80"))
    return done.returncode, done.stdout, done.stderr


def test_parser_is_built_once_and_keeps_no_options(capsys, monkeypatch):
    # usage text wraps at the terminal width; both sides get the same one
    monkeypatch.setenv("COLUMNS", "80")
    assert _build_parser() is _build_parser()
    calls = [
        ["verify", fixture_path("abelian.json"), "--grid", "x"],
        ["verify", fixture_path("abelian.json"), "--grid", "3",
         "--random", "2", "--tolerance", "1e-6"],
        ["transport", fixture_path("abelian.json"),
         fixture_path("path_abelian.json"), "--steps", "50"],
        ["verify", fixture_path("abelian.json"), "--grid", "2"],
    ]
    got = [_in_process(argv, capsys) for argv in calls]
    assert [code for code, _, _ in got] == [2, 0, 0, 0]
    assert got == [_fresh_process(argv) for argv in calls]


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _ = run(tmp_path, "verify", fixture_path("no_such.json"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_reports_are_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["verify", fixture_path("abelian.json")] + FAST
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_goes_to_stdout_without_out_flag(capsys):
    code = main(["verify", fixture_path("flat.json")] + FAST)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_tolerance_flag_is_respected(tmp_path):
    code, report = run(tmp_path, "verify",
                       fixture_path("abelian_mutated.json"),
                       "--tolerance", "1.0")
    assert code == 0
    assert report["tolerance"] == 1.0


def test_seed_override_changes_samples(tmp_path):
    _, a = run(tmp_path, "verify", fixture_path("abelian.json"))
    code = main(["verify", fixture_path("abelian.json"), "--seed", "7",
                 "--out", str(tmp_path / "b.json")] + FAST)
    assert code == 0
    b = json.loads((tmp_path / "b.json").read_text())
    assert a["sample_plan"]["seed"] == 42
    assert b["sample_plan"]["seed"] == 7


def test_relate(tmp_path):
    code, report = run(tmp_path, "relate",
                       fixture_path("monopole_k1.json"),
                       fixture_path("monopole_k2.json"),
                       fixture_path("morphism_squaring.json"))
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert "related:U_N" in names
    assert "morphism-cocycle:U_N,U_S" in names


def test_relate_detects_unrelated(tmp_path):
    code, report = run(tmp_path, "relate",
                       fixture_path("monopole_k1.json"),
                       fixture_path("monopole_k3.json"),
                       fixture_path("morphism_squaring.json"))
    assert code == 1
    assert report["passed"] is False


def test_push(tmp_path):
    code, report = run(tmp_path, "push",
                       fixture_path("monopole_k1.json"),
                       fixture_path("morphism_squaring.json"))
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any(name.startswith("compatibility:") for name in names)
    assert any(name.startswith("related:") for name in names)


def test_push_reports_the_morphism_cocycle(tmp_path):
    code, report = run(tmp_path, "push",
                       fixture_path("monopole_k1.json"),
                       fixture_path("morphism_gauge.json"))
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["compatibility:U_N,U_S", "compatibility:U_S,U_N",
                     "morphism-cocycle:U_N,U_S", "morphism-cocycle:U_S,U_N",
                     "related:U_N", "related:U_S"]


def test_push_with_a_failing_cocycle_is_an_input_error(tmp_path, capsys):
    # target transitions of the k = 1 bundle do not complete phi = g * g
    doc = json.loads(open(fixture_path("morphism_squaring.json")).read())
    doc["target_transitions"] = {
        "U_N,U_S": "mexp(-k*x2*[[0,-1],[1,0]])",
        "U_S,U_N": "mexp(k*x2*[[0,-1],[1,0]])"}
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(doc))
    code, report = run(tmp_path, "push", fixture_path("monopole_k1.json"),
                       str(path))
    assert code == 2 and report is None
    assert capsys.readouterr().err == (
        "error: target transitions fail the morphism cocycle condition: "
        "morphism-cocycle:U_N,U_S, morphism-cocycle:U_S,U_N\n")


def test_push_with_singular_target_transitions_names_the_cocycle(tmp_path,
                                                                capsys):
    # the pushed data's compatibility, which runs first, cannot invert them;
    # the failing cocycle is still the error reported
    doc = json.loads(open(fixture_path("morphism_squaring.json")).read())
    doc["target_transitions"] = {"U_N,U_S": "[[0,0],[0,0]]",
                                 "U_S,U_N": "[[0,0],[0,0]]"}
    path = tmp_path / "morphism.json"
    path.write_text(json.dumps(doc))
    code, _ = run(tmp_path, "push", fixture_path("monopole_k1.json"),
                  str(path))
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: target transitions fail the morphism cocycle condition")


def test_push_requires_target_transitions(tmp_path, capsys):
    code, _ = run(tmp_path, "push",
                  fixture_path("monopole_k1.json"),
                  fixture_path("morphism_identity.json"))
    assert code == 2
    assert "target_transitions" in capsys.readouterr().err


def test_assoc(tmp_path):
    code, report = run(tmp_path, "assoc",
                       fixture_path("monopole_k1.json"),
                       fixture_path("morphism_squaring.json"))
    assert code == 0
    assert report["passed"] is True


def test_transport(tmp_path):
    out = tmp_path / "report.json"
    code = main(["transport", fixture_path("monopole_k1.json"),
                 fixture_path("path_monopole_equator.json"),
                 "--steps", "500", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["steps"] == 500
    result = np.array(report["transport_result"])
    assert np.linalg.norm(result + np.eye(2)) < 1e-9  # rotation by -pi


def test_convert_christoffel(tmp_path):
    code, report = run(tmp_path, "convert-christoffel",
                       fixture_path("sphere_levi_civita.json"))
    assert code == 0
    code, report = run(tmp_path, "convert-christoffel",
                       fixture_path("sphere_levi_civita_mutated.json"))
    assert code == 1
    assert report["passed"] is False


def test_tower(tmp_path):
    code, report = run(tmp_path, "tower",
                       fixture_path("tower_unipotent.json"))
    assert code == 0
    assert any(c["name"].startswith("tower-related:")
               for c in report["checks"])
    code, report = run(tmp_path, "tower",
                       fixture_path("tower_unipotent_mutated.json"))
    assert code == 1


def _abelian_variant(tmp_path, edit):
    doc = json.loads(open(fixture_path("abelian.json")).read())
    edit(doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_non_finite_residual_fails_closed(tmp_path):
    def overflow(doc):
        doc["forms"]["U1"] = ["1e308*10*[[0,-1],[1,0]]"]

    code, report = run(tmp_path, "verify", _abelian_variant(tmp_path, overflow))
    assert code == 1
    check = next(c for c in report["checks"]
                 if c["name"] == "compatibility:U1,U2")
    assert check["passed"] is False
    assert check["max_residual"] == "nan"  # JSON has no NaN literal


def test_check_without_samples_fails_closed(tmp_path):
    def mask_everything(doc):
        for overlap in doc["overlaps"]:
            overlap["mask"] = "-1"
        doc["forms"]["U2"] = ["(sin(x1)+2)*[[0,-1],[1,0]]"]  # incompatible

    code, report = run(tmp_path, "verify",
                       _abelian_variant(tmp_path, mask_everything))
    assert code == 1
    check = next(c for c in report["checks"]
                 if c["name"] == "compatibility:U1,U2")
    assert check["sample_count"] == 0
    assert check["passed"] is False


def _drop_group(doc):
    del doc["group"]


def _drop_box(doc):
    del doc["charts"][0]["box"]


def _bad_grid(doc):
    doc["sample_plan"] = {"grid": "x"}


@pytest.mark.parametrize("edit, needle", [
    (_drop_group, "'group'"),
    (_drop_box, "'box'"),
    (_bad_grid,
     Case("'x'", "sample_plan.grid must be an integer, not a string")),
], ids=case_id)
def test_malformed_document_is_a_usage_error(tmp_path, capsys, edit, needle):
    needle = expected(needle)
    path = _abelian_variant(tmp_path, edit)
    code, report = run(tmp_path, "verify", path)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert path in err and needle in err
    assert "Traceback" not in err


_TRANSPORT = ["transport", fixture_path("monopole_k1.json"),
              fixture_path("path_monopole_equator.json")]
_VERIFY = ["verify", fixture_path("flat.json")]


@pytest.mark.parametrize("argv", [
    _TRANSPORT + ["--steps", "0"],
    _TRANSPORT + ["--steps", "-3"],
    _VERIFY + ["--grid", "-2"],
    _VERIFY + ["--random", "-1"],
    _VERIFY + ["--grid", "0", "--random", "0"],
])
def test_invalid_numeric_argument_is_a_usage_error(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "report.json")])
    assert code == 2
    assert not (tmp_path / "report.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-8", "x"])
def test_invalid_tolerance_is_a_usage_error(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(_VERIFY + ["--tolerance", value,
                        "--out", str(tmp_path / "report.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "report.json").exists()
    err = capsys.readouterr().err
    assert "usage:" in err and "--tolerance" in err
    assert "Traceback" not in err


def test_negative_plan_in_document_is_a_usage_error(tmp_path, capsys):
    def negative_grid(doc):
        doc["sample_plan"] = {"grid": -2, "random": 5}

    code, report = run(tmp_path, "verify",
                       _abelian_variant(tmp_path, negative_grid), fast=False)
    assert code == 2
    assert report is None
    assert capsys.readouterr().err.startswith("error:")


def _duplicate_chart(doc):
    doc["charts"].append(dict(doc["charts"][0]))


def _negative_plan(doc):
    doc["sample_plan"] = {"grid": -2, "random": 5}


def _infinite_literal(doc):
    doc["forms"]["U1"] = ["1e400*[[0,-1],[1,0]]"]


def _mixed_generators(doc):
    doc["group"]["generators"].append([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def _oversized_generators(doc):
    doc["group"]["generators"] = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]


@pytest.mark.parametrize("edit, needle", [
    (_duplicate_chart, "duplicate chart 'U1'"),
    (_negative_plan, "must not be negative"),
    (_infinite_literal, "number '1e400' is too large"),
    (_mixed_generators,
     Case("group 'SO(2)': generators are not all 2x2",
          "group.generators must be 2x2 matrices of numbers")),
    (_oversized_generators,
     Case("group 'SO(2)': generators are not all 2x2",
          "group.generators must be 2x2 matrices of numbers")),
], ids=case_id)
def test_document_error_names_the_file(tmp_path, capsys, edit, needle):
    needle = expected(needle)
    path = _abelian_variant(tmp_path, edit)
    code, report = run(tmp_path, "verify", path, fast=False)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith(f"error: '{path}': ")
    assert needle in err
    assert "Traceback" not in err


def test_short_path_in_message_is_still_named(tmp_path, capsys, monkeypatch):
    doc = json.loads(open(fixture_path("abelian.json")).read())
    _duplicate_chart(doc)
    (tmp_path / "U1").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "U1", "--out", "report.json"]) == 2
    assert capsys.readouterr().err == "error: 'U1': duplicate chart 'U1'\n"


@pytest.mark.parametrize("content, needle", [
    (None, "cannot read: No such file or directory"),
    ("{", "not valid JSON: "),
])
def test_unreadable_document_names_the_file_once(tmp_path, capsys, content,
                                                 needle):
    path = tmp_path / "bundle.json"
    if content is not None:
        path.write_text(content)
    code, report = run(tmp_path, "verify", str(path))
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith(f"error: '{path}': {needle}")
    assert err.count(str(path)) == 1


@pytest.mark.parametrize("out, needle", [
    ("missing/report.json", "cannot write: No such file or directory"),
    (".", "cannot write: Is a directory"),
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, out, needle):
    path = tmp_path / out
    assert main(_VERIFY + FAST + ["--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: '{path}': {needle}\n"


def _variant(tmp_path, name, edit):
    doc = json.loads(open(fixture_path(name)).read())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _degenerate_domain(doc):
    doc["overlaps"][0]["domain"][0] = [1.0, 1.0]


def _negative_seed(doc):
    doc["sample_plan"]["seed"] = -1


def _drop_connector(doc):
    del doc["connectors"]["3,2"]


def _flip_level_transitions(doc):
    level = doc["levels"][1]
    level["transitions"] = {"U2,U1": text for text in
                            level["transitions"].values()}


def _drop_gamma(doc):
    del doc["gamma"]["U_S"]


def _infinite_dim(doc):
    doc["source_n"] = float("inf")


def _matrix_mask(doc):
    doc["overlaps"][0]["mask"] = "[[1,0],[0,1]]"


def _matrix_christoffel_symbol(doc):
    doc["gamma"]["U_N"][0][0][0] = "[[1,2],[3,4]]"


def _matrix_curve(doc):
    doc["segments"][0]["curve"][0] = "[[1,0],[0,1]]"


def _set(*keys, value):
    """An edit that writes value at the key path of the document."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


def _rename(*keys, old, new):
    """An edit that renames the key `old` of the object at the key path."""
    def edit(doc):
        for key in keys:
            doc = doc[key]
        doc[new] = doc.pop(old)
    return edit


def _phi_identity(source_n):
    """A morphism edit: source_n as given, and phi a constant 2x2 matrix."""
    def edit(doc):
        doc.update(source_n=source_n, phi="[[1, 0], [0, 1]]")
    return edit


@pytest.mark.parametrize("name, argv, edit, needle", [
    ("abelian.json", ["verify"], _degenerate_domain,
     "overlap U1->U2: degenerate interval [1.0, 1.0]"),
    ("abelian.json", ["verify"], _negative_seed, "seed -1"),
    ("tower_unipotent.json", ["tower"], _drop_connector,
     "connector '3,2' is missing"),
    ("tower_unipotent.json", ["tower"], _flip_level_transitions,
     "levels 1 and 2 declare different transitions"),
    ("sphere_levi_civita.json", ["convert-christoffel"], _drop_gamma,
     "chart 'U_S' has no Christoffel symbols"),
    ("morphism_squaring.json", ["push", fixture_path("monopole_k1.json")],
     _infinite_dim, "source_n must be an integer, not inf"),
    ("monopole_k1.json", ["verify"], _matrix_mask,
     "overlap U_N->U_S: mask must be scalar"),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     _matrix_christoffel_symbol, "Christoffel symbol on 'U_N' must be scalar"),
    ("path_monopole_equator.json",
     ["transport", fixture_path("monopole_k1.json")], _matrix_curve,
     "segment in 'U_N': curve must be scalar"),
    # a list written as a string was read one character at a time
    ("abelian.json", ["verify"], _set("forms", "U1", value="x1"),
     "forms['U1'] must be a list, not a string"),
    ("abelian.json", ["verify"], _set("forms", "U1", value="5"),
     "forms['U1'] must be a list, not a string"),
    ("abelian.json", ["verify"],
     _set("overlaps", 0, "coord_change", value="x1"),
     Case("overlap U1->U2: coord_change must be a list, not a string",
          "overlaps[0].coord_change must be a list, not a string")),
    ("tower_unipotent.json", ["tower"],
     _set("levels", 1, "forms", "U2", value="x1"),
     "forms['U2'] must be a list, not a string"),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     _set("gamma", "U_N", value="0"), "gamma['U_N'] must be a list"),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     _set("gamma", "U_N", 1, value="x1"), "gamma['U_N'][1] must be a list"),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     _set("gamma", "U_N", 1, 0, value="x1"),
     "gamma['U_N'][1][0] must be a list"),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, "curve", value="t"),
     Case("segment in 'U1': curve must be a list, not a string",
          "segments[0].curve must be a list, not a string")),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, "curve", value={"x": "t"}),
     Case("segment in 'U1': curve must be a list, not an object",
          "segments[0].curve must be a list, not an object")),
    # structural lists and intervals, once misread or named no field
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, "t_range", value="01"),
     Case("segment in 'U1': t_range must be a list, not a string",
          "segments[0].t_range must be a list, not a string")),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, "t_range", value=[0.0, 0.5, 1.0]),
     Case("segment in 'U1': t_range must be a list [lo, hi]",
          "segments[0].t_range must be a list of 2 entries, not 3")),
    ("abelian.json", ["verify"], _set("charts", 0, "box", value=["02"]),
     Case("chart 'U1': box[0] must be a list, not a string",
          "charts[0].box[0] must be a list, not a string")),
    ("abelian.json", ["verify"], _set("charts", 0, "box", value="ab"),
     Case("chart 'U1': box must be a list, not a string",
          "charts[0].box must be a list, not a string")),
    ("abelian.json", ["verify"], _set("overlaps", 0, "domain", value=["12"]),
     Case("overlap U1->U2: domain[0] must be a list, not a string",
          "overlaps[0].domain[0] must be a list, not a string")),
    ("abelian.json", ["verify"], _set("overlaps", 0, "domain", value="ab"),
     Case("overlap U1->U2: domain must be a list, not a string",
          "overlaps[0].domain must be a list, not a string")),
    ("abelian.json", ["verify"], _set("charts", value="U1"),
     "charts must be a list, not a string"),
    ("abelian.json", ["verify"], _set("overlaps", value="U1"),
     "overlaps must be a list, not a string"),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", value="U1"), "segments must be a list, not a string"),
    ("tower_unipotent.json", ["tower"], _set("levels", value="ab"),
     "levels must be a list, not a string"),
    # integer fields, once truncated or converted by int()
    ("abelian.json", ["verify"], _set("sample_plan", "seed", value=1.9),
     Case("sample_plan: seed must be an integer, not 1.9",
          "sample_plan.seed must be an integer, not 1.9")),
    ("abelian.json", ["verify"], _set("group", "n", value=2.9),
     Case("group: n must be an integer, not 2.9",
          "group.n must be an integer, not 2.9")),
    ("abelian.json", ["verify"], _set("group", "n", value="2"),
     Case("group: n must be an integer, not '2'",
          "group.n must be an integer, not a string")),
    ("abelian.json", ["verify"], _set("sample_plan", "grid", value="7"),
     Case("sample_plan: grid must be an integer, not '7'",
          "sample_plan.grid must be an integer, not a string")),
    ("abelian.json", ["verify"], _set("sample_plan", "grid", value=True),
     Case("sample_plan: grid must be an integer, not a boolean",
          "sample_plan.grid must be an integer, not a boolean")),
    ("abelian.json", ["verify"], _set("sample_plan", "random", value=None),
     Case("sample_plan: random must be an integer, not null",
          "sample_plan.random must be an integer, not null")),
    ("abelian.json", ["verify"], _set("charts", 0, "dim", value=1.0),
     Case("chart 'U1': dim must be an integer, not 1.0",
          "charts[0].dim must be an integer, not 1.0")),
    ("morphism_squaring.json", ["push", fixture_path("monopole_k1.json")],
     _set("target_n", value="2"),
     Case("target_n must be an integer, not '2'",
          "target_n must be an integer, not a string")),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     _set("fiber_dim", value=[2]), "fiber_dim must be an integer, not a list"),
    # object fields and entries, once indexed as strings or lists
    ("abelian.json", ["verify"], _set("charts", 0, value="U1"),
     "charts[0] must be an object, not a string"),
    ("abelian.json", ["verify"], _set("overlaps", 0, value="x"),
     "overlaps[0] must be an object, not a string"),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, value="U1"),
     "segments[0] must be an object, not a string"),
    ("tower_unipotent.json", ["tower"], _set("connectors", "2,1", value="g"),
     Case("connector '2,1' must be an object, not a string",
          "connectors['2,1'] must be an object, not a string")),
    ("abelian.json", ["verify"], _set("group", value="U1"),
     "group must be an object, not a string"),
    ("tower_unipotent.json", ["tower"], _set("levels", 0, value=3),
     Case("levels[0] must be an object, not a number",
          "levels[0] must be an object, not 3")),
    ("abelian.json", ["verify"], _set("transitions", value=["x"]),
     "transitions must be an object, not a list"),
    ("abelian.json", ["verify"], _set("forms", value="x"),
     "forms must be an object, not a string"),
    ("abelian.json", ["verify"], _set("params", value=["a"]),
     "params must be an object, not a list"),
    ("abelian.json", ["verify"], _set("sample_plan", value="x"),
     "sample_plan must be an object, not a string"),
    ("tower_unipotent.json", ["tower"], _set("connectors", value=["2,1"]),
     "connectors must be an object, not a list"),
    ("morphism_gauge.json", ["relate", fixture_path("monopole_k1.json"),
                             fixture_path("monopole_k1.json")],
     _set("h", value="x"), "h must be an object, not a string"),
    ("morphism_squaring.json", ["push", fixture_path("monopole_k1.json")],
     _set("target_transitions", value=["x"]),
     "target_transitions must be an object, not a list"),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     _set("gamma", value="x"), "gamma must be an object, not a string"),
    # a connector key read by int(), params read by float()
    ("tower_unipotent.json", ["tower"],
     _set("connectors", "2,x", value={"phi": "g"}),
     "connector key '2,x' is not 'j,i'"),
    ("abelian.json", ["verify"], _set("params", value={"zz": "2"}),
     Case("params: zz must be a number, not a string",
          "params['zz'] must be a finite number, not a string")),
    ("abelian.json", ["verify"], _set("params", value={"zz": True}),
     Case("params: zz must be a number, not a boolean",
          "params['zz'] must be a finite number, not a boolean")),
    # number fields once read by float() or np.asarray(dtype=float)
    ("abelian.json", ["verify"], _set("charts", 0, "box", 0, 1, value="2"),
     Case("chart 'U1': box[0][1] must be a number, not a string",
          "charts[0].box[0][1] must be a finite number, not a string")),
    ("abelian.json", ["verify"], _set("charts", 0, "box", 0, 0, value=False),
     Case("chart 'U1': box[0][0] must be a number, not a boolean",
          "charts[0].box[0][0] must be a finite number, not a boolean")),
    ("abelian.json", ["verify"],
     _set("overlaps", 0, "domain", 0, 1, value="2"),
     Case("overlap U1->U2: domain[0][1] must be a number, not a string",
          "overlaps[0].domain[0][1] must be a finite number, not a string")),
    ("abelian.json", ["verify"],
     _set("overlaps", 0, "domain", 0, 0, value=False),
     Case("overlap U1->U2: domain[0][0] must be a number, not a boolean",
          "overlaps[0].domain[0][0] must be a finite number, not a boolean")),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, "t_range", 0, value="0"),
     Case("segment in 'U1': t_range[0] must be a number, not a string",
          "segments[0].t_range[0] must be a finite number, not a string")),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, "t_range", 0, value=False),
     Case("segment in 'U1': t_range[0] must be a number, not a boolean",
          "segments[0].t_range[0] must be a finite number, not a boolean")),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("a0", value=[[True, 0], [0, 1]]),
     Case("a0[0][0] must be a number, not a boolean",
          "a0[0][0] must be a finite number, not a boolean")),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("a0", value=[[1, 0], [0, "1"]]),
     Case("a0[1][1] must be a number, not a string",
          "a0[1][1] must be a finite number, not a string")),
    ("abelian.json", ["verify"],
     _set("group", "generators", value=[[["0", "-1"], ["1", "0"]]]),
     Case("group 'SO(2)': generators must be numbers",
          "group.generators must be 2x2 matrices of numbers")),
    ("abelian.json", ["verify"],
     _set("group", "generators", value=[[[False, True], [True, False]]]),
     Case("group 'SO(2)': generators must be numbers",
          "group.generators must be 2x2 matrices of numbers")),
    # a param is bound as a literal is: JSON reads 1e400 as inf
    ("abelian.json", ["verify"], _set("params", value={"k": 1e400}),
     Case("params: k must be a finite number, not inf",
          "params['k'] must be a finite number, not inf")),
    ("abelian.json", ["verify"], _set("params", value={"k": float("nan")}),
     Case("params: k must be a finite number, not nan",
          "params['k'] must be a finite number, not nan")),
    # a box bound JSON reads as inf overflowed the chart's sampling, and a
    # finite box can be as wide; "{}" stands for the variant's path
    ("abelian.json",
     ["relate", "{}", "{}", fixture_path("morphism_identity.json")],
     _set("charts", 1, "box", 0, 1, value=float("inf")),
     "charts[1].box[0][1] must be a finite number, not inf"),
    ("abelian.json",
     ["relate", "{}", "{}", fixture_path("morphism_identity.json")],
     _set("charts", 1, "box", 0, value=[-1e308, 1e308]),
     "chart 'U2': interval [-1e+308, 1e+308] is too wide"),
    # unknown keys, once ignored: a path has no params of its own
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("params", value={"zz": 1.0}), "unknown key 'params'"),
    ("abelian.json", ["verify"], _set("sample_plna", value={"grid": 3}),
     "unknown key 'sample_plna'"),
    ("abelian.json", ["verify"], _set("charts", 0, "bx", value=[[0, 1]]),
     "charts[0]: unknown key 'bx'"),
    # null is no field's value: an absent key is how a field is left out
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("a0", value=None), "a0 must be a list, not null"),
    ("abelian.json", ["verify"], _set("sample_plan", value=None),
     "sample_plan must be an object, not null"),
    # sizes are positive integers, named before any check that uses them
    ("abelian.json", ["verify"], _set("group", "n", value=-1),
     Case("group.n = -1", "group.n must be a positive integer, not -1")),
    ("abelian.json", ["verify"], _set("charts", 0, "dim", value=0),
     Case("charts[0].dim = 0",
          "charts[0].dim must be a positive integer, not 0")),
    ("morphism_squaring.json", ["push", fixture_path("monopole_k1.json")],
     _set("source_n", value=0),
     Case("source_n = 0", "source_n must be a positive integer, not 0")),
    ("morphism_squaring.json", ["push", fixture_path("monopole_k1.json")],
     _set("target_n", value=-2),
     Case("target_n = -2", "target_n must be a positive integer, not -2")),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     _set("fiber_dim", value=0),
     Case("fiber_dim = 0", "fiber_dim must be a positive integer, not 0")),
    ("tower_unipotent.json", ["tower"],
     _set("levels", 1, "group", "n", value=0),
     Case("levels[1].group.n = 0",
          "levels[1].group.n must be a positive integer, not 0")),
    # a reference to an undeclared chart names its field
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, "chart", value="U9"),
     Case("path chart U9", "segments[0].chart: unknown chart 'U9'")),
    ("morphism_gauge.json", ["push", fixture_path("monopole_k1.json")],
     _set("h", "U9", value="[[1, 0], [0, 1]]"),
     Case("morphism h U9", "h['U9']: unknown chart 'U9'")),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     lambda doc: doc["gamma"].update(U9=doc["gamma"].pop("U_N")),
     Case("gamma U9", "gamma['U9']: unknown chart 'U9'")),
    # sizes are at most bundle_io.MAX_SIZE, named before numpy allocates
    ("morphism_identity.json",
     ["relate", fixture_path("abelian.json"), fixture_path("abelian.json")],
     _phi_identity(2 ** 62),
     Case("source_n = 2**62", "source_n must be a positive integer of at "
          "most 4096, not 4611686018427387904")),
    ("morphism_identity.json",
     ["relate", fixture_path("abelian.json"), fixture_path("abelian.json")],
     _phi_identity(4097),
     Case("source_n = 4097",
          "source_n must be a positive integer of at most 4096, not 4097")),
    ("morphism_squaring.json", ["push", fixture_path("monopole_k1.json")],
     _set("target_n", value=10 ** 30),
     Case("target_n = 10**30", "target_n must be a positive integer of at "
          "most 4096, not 1000000000000000000000000000000")),
    ("abelian.json", ["verify"], _set("group", "n", value=2 ** 62),
     Case("group.n = 2**62", "group.n must be a positive integer of at most "
          "4096, not 4611686018427387904")),
    ("abelian.json", ["verify"], _set("charts", 0, "dim", value=5000),
     Case("charts[0].dim = 5000",
          "charts[0].dim must be a positive integer of at most 4096, "
          "not 5000")),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     _set("fiber_dim", value=2 ** 40),
     Case("fiber_dim = 2**40", "fiber_dim must be a positive integer of at "
          "most 4096, not 1099511627776")),
    ("tower_unipotent.json", ["tower"],
     _set("levels", 1, "group", "n", value=2 ** 62),
     Case("levels[1].group.n = 2**62", "levels[1].group.n must be a positive "
          "integer of at most 4096, not 4611686018427387904")),
    # every other chart reference names its field as well
    ("abelian.json", ["verify"], _set("overlaps", 0, "from", value="U9"),
     Case("overlap from U9", "overlaps[0].from: unknown chart 'U9'")),
    ("monopole_k1.json", ["verify"], _set("overlaps", 1, "to", value="U9"),
     Case("overlap to U9", "overlaps[1].to: unknown chart 'U9'")),
    ("monopole_k1.json", ["verify"],
     _rename("transitions", old="U_N,U_S", new="U_N,U9"),
     Case("transition U_N,U9", "transitions['U_N,U9']: unknown chart 'U9'")),
    ("monopole_k1.json", ["verify"], _rename("forms", old="U_N", new="U9"),
     Case("form U9", "forms['U9']: unknown chart 'U9'")),
    ("tower_unipotent.json", ["tower"],
     _rename("levels", 2, "transitions", old="U2,U1", new="U9,U1"),
     Case("level transition U9,U1",
          "levels[2].transitions['U9,U1']: unknown chart 'U9'")),
    ("tower_unipotent.json", ["tower"],
     _rename("levels", 1, "forms", old="U2", new="U9"),
     Case("level form U9", "levels[1].forms['U9']: unknown chart 'U9'")),
    ("morphism_gauge.json", ["push", fixture_path("monopole_k1.json")],
     _rename("target_transitions", old="U_S,U_N", new="U_S,U9"),
     Case("target transition U_S,U9",
          "target_transitions['U_S,U9']: unknown chart 'U9'")),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     _rename("transitions", old="U_N,U_S", new="U9,U_S"),
     Case("Christoffel transition U9,U_S",
          "transitions['U9,U_S']: unknown chart 'U9'")),
    # the bundle rules checked once the forms and transitions are read
    ("abelian.json", ["verify"], lambda doc: doc["forms"].pop("U2"),
     Case("chart without form", "chart 'U2' has no local form")),
    ("abelian.json", ["verify"],
     lambda doc: doc["forms"]["U1"].append("[[0, 0], [0, 0]]"),
     Case("form coefficient count",
          "form on 'U1' has 2 coefficients, chart dim is 1")),
    ("abelian.json", ["verify"], lambda doc: doc["overlaps"].pop(),
     Case("transition without overlap",
          "transition (U2,U1) declared without overlap U2->U1")),
    ("abelian.json", ["verify"], _set("transitions", value={}),
     Case("overlap without transition",
          "overlap U1->U2 has no transition function")),
    # the Christoffel rules checked once gamma is read
    ("sphere_levi_civita.json", ["convert-christoffel"],
     lambda doc: doc["gamma"]["U_N"].pop(),
     Case("Christoffel block count",
          "chart 'U_N': 1 coefficient blocks, chart dim is 2")),
    ("sphere_levi_civita.json", ["convert-christoffel"],
     lambda doc: doc["gamma"]["U_N"][0].pop(),
     Case("Christoffel block size",
          "chart 'U_N': coefficient block is not 2x2")),
    # expressions against the grammar's shape rules, an empty atlas and a
    # connector beyond the tower
    ("abelian.json", ["verify"], _set("forms", "U1", value=["[[1]]^2"]),
     Case("power of a matrix", "'^' applies to scalars only")),
    ("abelian.json", ["verify"], _set("forms", "U1", value=["atan2(x1)"]),
     Case("atan2 of one argument", "atan2 takes two scalar arguments")),
    ("abelian.json", ["verify"],
     _set("forms", "U1", value=["transpose(x1)"]),
     Case("transpose of a scalar", "transpose takes one matrix argument")),
    ("abelian.json", ["verify"],
     _set("forms", "U1", value=["[[x1, [[1]]]]"]),
     Case("matrix entry of a literal",
          "matrix literal entries must be scalars")),
    ("abelian.json", ["verify"],
     _set("forms", "U1", value=["[[[[1, 2]]]]"]),
     Case("nested literal", "matrix literal entries must be scalars")),
    ("abelian.json", ["verify"],
     lambda doc: doc.update(charts=[], overlaps=[]),
     Case("no charts", "no charts declared")),
    ("tower_unipotent.json", ["tower"],
     _set("connectors", "9,1", value={"phi": "g"}),
     Case("connector 9,1", "connector '9,1' is out of range")),
], ids=case_id)
def test_inconsistent_document_is_a_usage_error(tmp_path, capsys, name, argv,
                                                edit, needle):
    needle = expected(needle)
    path = _variant(tmp_path, name, edit)
    code, report = run(tmp_path, *(
        [path if arg == "{}" else arg for arg in argv] if "{}" in argv
        else [*argv, path]))
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith(f"error: '{path}': ")
    assert needle in err
    assert "Traceback" not in err


def test_document_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text("[]")
    code, report = run(tmp_path, "verify", str(path))
    assert (code, report) == (2, None)
    assert capsys.readouterr().err == (
        f"error: '{path}': the document must be an object, not a list\n")


def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys):
    code = main(_VERIFY + ["--seed", "-1",
                           "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: sample plan seed -1")


def _huge_overlap(doc):
    doc["overlaps"][0]["domain"][0][1] = 1.7e19


def test_huge_overlap_keeps_rotations_exact(tmp_path):
    # mexp of x1 J at x1 up to 1.7e19 is a rotation: the cocycle and
    # compatibility checks pass to rounding
    path = _variant(tmp_path, "abelian.json", _huge_overlap)
    code, report = run(tmp_path, "verify", path)
    assert code == 0
    assert max(check["max_residual"] for check in report["checks"]) <= 1e-15


def _huge_scaling(doc):
    _huge_overlap(doc)
    doc["transitions"] = {"U1,U2": "mexp(x1*[[1,0],[0,1]])",
                          "U2,U1": "mexp(-x1*[[1,0],[0,1]])"}


def test_overflow_warnings_stay_off_stderr(tmp_path, capsys):
    # e^x1 I overflows on the huge overlap: the checks it reaches fail, with
    # no numpy RuntimeWarning and nothing on stderr
    path = _variant(tmp_path, "abelian.json", _huge_scaling)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run(tmp_path, "verify", path)
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    assert code == 1
    failed = [check["name"] for check in report["checks"]
              if not check["passed"]]
    assert "cocycle:U1,U2" in failed


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


_SINGULAR_PHI = {"source_n": 2, "target_n": 2, "phi": "inv(g - g)"}


@pytest.mark.parametrize("argv, line", [
    # the junction lies in U_N's polar cap, outside the overlap band
    (["transport", "monopole_k1.json", {"segments": [
        {"chart": "U_N", "curve": ["0.2", "t"]},
        {"chart": "U_S", "curve": ["3.141592653589793 - 0.2", "1 + t"]}]}],
     "error: point [0.2, 1.0] outside overlap domain U_N->U_S"),
    # phi is singular everywhere: loading evaluates it at the identity,
    # which fails with no sample to name; {last} is the morphism file
    (["assoc", "monopole_k1.json", _SINGULAR_PHI],
     "error: '{last}': phi at the identity: inverse of a (near-)singular "
     "matrix"),
    (["relate", "monopole_k1.json", "monopole_k1.json", _SINGULAR_PHI],
     "error: '{last}': phi at the identity: inverse of a (near-)singular "
     "matrix"),
    (["push", "monopole_k1.json",
      json.load(open(fixture_path("morphism_squaring.json")))
      | {"phi": "inv(g - g)"}],
     "error: '{last}': phi at the identity: inverse of a (near-)singular "
     "matrix"),
    (["assoc", "monopole_k1.json", _SINGULAR_PHI | {"phi": "2*g"}],
     "error: '{last}': phi does not map the identity to the identity "
     "(off by 1.414e+00)"),
], ids=["transport-junction", "assoc", "relate", "push", "non-unital"])
def test_error_messages_print_plain_numbers(tmp_path, capsys, argv, line):
    _assert_usage_error(tmp_path, capsys, argv, line)


def _assert_usage_error(tmp_path, capsys, argv, line):
    """Run argv, a dict standing for a document written to a file, and
    require exit 2 with `line` ({last} is the last file) as all of stderr."""
    files = [_write(tmp_path, f"input{k}.json", a) if isinstance(a, dict)
             else fixture_path(a) if a.endswith(".json") else a
             for k, a in enumerate(argv)]
    code, report = run(tmp_path, *files)
    assert code == 2
    assert report is None
    assert capsys.readouterr().err == line.format(last=files[-1]) + "\n"


def test_overflowing_tower_residual_is_inf_not_nan(tmp_path):
    # X - inf is -inf, which the relation check must not turn into NaN
    def overflow(doc):
        doc["levels"][0]["forms"]["U1"] = ["[[0, exp(1000*x1)], [0, 0]]"]

    path = _variant(tmp_path, "tower_unipotent.json", overflow)
    code, report = run(tmp_path, "tower", path)
    assert code == 1
    residuals = {c["name"]: c["max_residual"] for c in report["checks"]
                 if c["name"].endswith("->1:U1")}
    assert len(residuals) == 3
    assert set(residuals.values()) == {"inf"}


# ----- morphism sizes, empty towers, params beside variables -----------

_SQUARING = json.load(open(fixture_path("morphism_squaring.json")))
_EMBED_2_IN_3 = ("[[1,0],[0,1],[0,0]] * g * transpose([[1,0],[0,1],[0,0]])"
                 " + [[0,0,0],[0,0,0],[0,0,1]]")
_TRUNCATE_3_TO_2 = "[[1,0,0],[0,1,0]] * g * transpose([[1,0,0],[0,1,0]])"


@pytest.mark.parametrize("argv, line", [
    (["relate", "monopole_k1.json", "monopole_k1.json",
      {"source_n": 2, "target_n": 3, "phi": _EMBED_2_IN_3}],
     "error: morphism target_n = 3 does not match the target group's n = 2"),
    (["relate", "monopole_k1.json", "monopole_k1.json",
      {"source_n": 3, "target_n": 2, "phi": _TRUNCATE_3_TO_2}],
     "error: morphism source_n = 3 does not match the source group's n = 2"),
    (["push", "monopole_k1.json",
      _SQUARING | {"source_n": 3, "phi": _TRUNCATE_3_TO_2}],
     "error: morphism source_n = 3 does not match the source group's n = 2"),
    (["assoc", "monopole_k1.json",
      {"source_n": 3, "target_n": 2, "phi": _TRUNCATE_3_TO_2}],
     "error: morphism source_n = 3 does not match the source group's n = 2"),
    (["tower", json.load(open(fixture_path("tower_unipotent.json")))
      | {"levels": [], "connectors": {}}],
     "error: '{last}': levels must list at least one level"),
    (["tower", json.load(open(fixture_path("tower_unipotent.json")))
      | {"levels": []}],
     "error: '{last}': levels must list at least one level"),
], ids=["relate-target_n", "relate-source_n", "push-source_n",
        "assoc-source_n", "tower-no-levels", "tower-no-levels-connectors"])
def test_mismatched_sizes_and_empty_towers_are_usage_errors(
        tmp_path, capsys, argv, line):
    _assert_usage_error(tmp_path, capsys, argv, line)


_BUNDLE_RUNS = {
    "verify": ["verify", "{}"],
    "relate": ["relate", "{}", "{}", fixture_path("morphism_squaring.json")],
    "assoc": ["assoc", "{}", fixture_path("morphism_squaring.json")],
    "push": ["push", "{}", fixture_path("morphism_squaring.json")],
}


@pytest.mark.parametrize("name, command", [
    (name, command) for name in ("x1", "x2") for command in _BUNDLE_RUNS]
    + [("g", command) for command in ("relate", "assoc", "push")])
def test_a_param_never_hides_a_variable(tmp_path, name, command):
    # a coordinate, or the morphism's g, hides a param of the same name
    path = _variant(tmp_path, "monopole_k1.json",
                    lambda doc: doc["params"].update({name: 9.81}))
    argv = _BUNDLE_RUNS[command]
    want = run(tmp_path, *[fixture_path("monopole_k1.json") if arg == "{}"
                           else arg for arg in argv])
    assert want[0] in (0, 1)
    assert run(tmp_path, *[path if arg == "{}" else arg
                           for arg in argv]) == want


# ----- a broken tower connector, the identity transition ---------------

def test_a_broken_connector_is_reported_as_the_tower_invariant(tmp_path):
    # connector 3,2 keeps the diagonal block on indices 1..3, not the
    # truncation, so connector 3,1 is not (2,1).(3,2)
    block = str([[1 if c == r + 1 else 0 for c in range(4)]
                 for r in range(3)])
    path = _variant(tmp_path, "tower_unipotent.json",
                    _set("connectors", "3,2", "phi",
                         value=f"{block} * g * transpose({block})"))
    code, report = run(tmp_path, "tower", path)
    assert code == 1
    assert [(c["name"], c["passed"], c["max_residual"], c["sample_count"])
            for c in report["checks"]] == [("tower-invariants", False, 1, 0)]
    assert report["tower_invariant_error"].startswith(
        "connectors (3,1) vs (2,1).(3,2) differ by ")


@pytest.mark.parametrize("g_11, failing", [
    ("[[1, 0], [0, 1]]", []),
    ("[[1, 0], [0, 2]]", ["cocycle:identity:U1"]),
], ids=["identity", "not-identity"])
def test_a_transition_from_a_chart_to_itself_is_the_identity(tmp_path,
                                                             g_11, failing):
    path = _variant(tmp_path, "abelian.json",
                    _set("transitions", "U1,U1", value=g_11))
    code, report = run(tmp_path, "verify", path)
    assert code == (1 if failing else 0)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["cocycle:identity:U1"]["sample_count"] > 0
    assert [name for name, c in checks.items() if not c["passed"]] == failing
