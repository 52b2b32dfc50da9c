import json
import warnings

import numpy as np
import pytest

from localforms.cli import main

from conftest import fixture_path

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


@pytest.mark.parametrize("edit, needle", [
    (_duplicate_chart, "duplicate chart 'U1'"),
    (_negative_plan, "must not be negative"),
    (_infinite_literal, "number '1e400' is too large"),
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
     _infinite_dim, "invalid value"),
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
