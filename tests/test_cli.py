import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from localforms.cli import _build_parser, main

from conftest import ROOT, fixture_path

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


@pytest.mark.parametrize("edit, needle", [(_drop_group, "'group'"),
                                          (_drop_box, "'box'"),
                                          (_bad_grid, "'x'")])
def test_malformed_document_is_a_usage_error(tmp_path, capsys, edit, needle):
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
    (_mixed_generators, "group 'SO(2)': generators are not all 2x2"),
    (_oversized_generators, "group 'SO(2)': generators are not all 2x2"),
])
def test_document_error_names_the_file(tmp_path, capsys, edit, needle):
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
     "overlap U1->U2: coord_change must be a list, not a string"),
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
     "segment in 'U1': curve must be a list, not a string"),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, "curve", value={"x": "t"}),
     "segment in 'U1': curve must be a list, not an object"),
    # structural lists and intervals, once misread or named no field
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, "t_range", value="01"),
     "segment in 'U1': t_range must be a list, not a string"),
    ("path_abelian.json", ["transport", fixture_path("abelian.json")],
     _set("segments", 0, "t_range", value=[0.0, 0.5, 1.0]),
     "segment in 'U1': t_range must be a list [lo, hi]"),
    ("abelian.json", ["verify"], _set("charts", 0, "box", value=["02"]),
     "chart 'U1': box[0] must be a list, not a string"),
    ("abelian.json", ["verify"], _set("charts", 0, "box", value="ab"),
     "chart 'U1': box must be a list, not a string"),
    ("abelian.json", ["verify"], _set("overlaps", 0, "domain", value=["12"]),
     "overlap U1->U2: domain[0] must be a list, not a string"),
    ("abelian.json", ["verify"], _set("overlaps", 0, "domain", value="ab"),
     "overlap U1->U2: domain must be a list, not a string"),
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
     "sample_plan: seed must be an integer, not 1.9"),
    ("abelian.json", ["verify"], _set("group", "n", value=2.9),
     "group: n must be an integer, not 2.9"),
    ("abelian.json", ["verify"], _set("group", "n", value="2"),
     "group: n must be an integer, not '2'"),
    ("abelian.json", ["verify"], _set("sample_plan", "grid", value="7"),
     "sample_plan: grid must be an integer, not '7'"),
    ("abelian.json", ["verify"], _set("sample_plan", "grid", value=True),
     "sample_plan: grid must be an integer, not a boolean"),
    ("abelian.json", ["verify"], _set("sample_plan", "random", value=None),
     "sample_plan: random must be an integer, not null"),
    ("abelian.json", ["verify"], _set("charts", 0, "dim", value=1.0),
     "chart 'U1': dim must be an integer, not 1.0"),
    ("morphism_squaring.json", ["push", fixture_path("monopole_k1.json")],
     _set("target_n", value="2"), "target_n must be an integer, not '2'"),
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
     "connector '2,1' must be an object, not a string"),
    ("abelian.json", ["verify"], _set("group", value="U1"),
     "group must be an object, not a string"),
    ("tower_unipotent.json", ["tower"], _set("levels", 0, value=3),
     "levels[0] must be an object, not a number"),
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
])
def test_inconsistent_document_is_a_usage_error(tmp_path, capsys, name, argv,
                                                edit, needle):
    path = _variant(tmp_path, name, edit)
    code, report = run(tmp_path, *argv, path)
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


def test_overflow_warnings_stay_off_stderr(tmp_path, capsys):
    # the overflowing overlap gives inf transitions and a singular matrix:
    # one error line, no numpy RuntimeWarning ahead of it
    path = _variant(tmp_path, "abelian.json", _huge_overlap)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, report = run(tmp_path, "verify", path)
    assert code == 2
    assert report is None
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: matrix with |det| = ")


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
