"""Golden CLI reports: every subcommand on the fixture corpus.

The files under tests/golden/ hold the reports of the per-point evaluator
that preceded the batched evaluation core, at `--grid 4 --random 5` (and
`--steps 200` for transport).  A report must match its golden file exactly
in every field except floats, which may differ by at most 1e-12 absolute.

    python tests/test_golden.py   # rewrite the golden files from src/
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PLAN = ["--grid", "4", "--random", "5"]
FLOAT_TOLERANCE = 1e-12

_BUNDLES = ("flat", "flat_mutated", "abelian", "abelian_mutated",
            "monopole_k1", "monopole_k1_mutated", "monopole_k2", "monopole_k3",
            "sphere_frame", "sphere_frame_mutated", "three_charts",
            "three_charts_mutated")

CASES = {f"verify-{name}": ["verify", f"{name}.json"] for name in _BUNDLES}
CASES.update({
    "relate-k1-k2": ["relate", "monopole_k1.json", "monopole_k2.json",
                     "morphism_squaring.json"],
    "relate-k1-k3": ["relate", "monopole_k1.json", "monopole_k3.json",
                     "morphism_squaring.json"],
    "relate-abelian-identity": ["relate", "abelian.json", "abelian.json",
                                "morphism_identity.json"],
    "push-k1": ["push", "monopole_k1.json", "morphism_squaring.json"],
    "push-k1-gauge": ["push", "monopole_k1.json", "morphism_gauge.json"],
    "assoc-k1-squaring": ["assoc", "monopole_k1.json",
                          "morphism_squaring.json"],
    "assoc-abelian-identity": ["assoc", "abelian.json",
                              "morphism_identity.json"],
    "convert-christoffel": ["convert-christoffel", "sphere_levi_civita.json"],
    "convert-christoffel-mutated": ["convert-christoffel",
                                    "sphere_levi_civita_mutated.json"],
    "tower": ["tower", "tower_unipotent.json"],
    "tower-mutated": ["tower", "tower_unipotent_mutated.json"],
})
_PATHS = {"flat": "path_flat", "abelian": "path_abelian",
          "abelian-two-charts": "path_abelian_two_charts",
          "monopole_k1": "path_monopole_equator",
          "monopole_k3": "path_monopole_equator"}
for _name, _path in _PATHS.items():
    _bundle = "abelian" if _name.startswith("abelian") else _name
    CASES[f"transport-{_name}"] = ["transport", f"{_bundle}.json",
                                   f"{_path}.json", "--steps", "200"]


def _argv(case, out):
    command, *rest = CASES[case]
    files = [str(ROOT / "fixtures" / a) if a.endswith(".json") else a
             for a in rest]
    return [command, *files, *PLAN, "--out", str(out)]


def _run(case, out):
    from localforms.cli import main
    return main(_argv(case, out))


def _compare(got, want, where="report"):
    """Paths at which `got` departs from `want` (floats to 1e-12)."""
    numbers = (int, float)
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [where]
    if isinstance(want, numbers) and isinstance(got, numbers):
        return [] if abs(got - want) <= FLOAT_TOLERANCE else [where]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where} keys"]
        return [p for key in want
                for p in _compare(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where} length"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _compare(g, w, f"{where}[{i}]")]
    return [] if got == want else [where]


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    out = tmp_path / "report.json"
    golden = json.loads((GOLDEN / f"{case}.json").read_text())
    code = _run(case, out)
    assert code == golden["exit_code"]
    assert _compare(json.loads(out.read_text()), golden["report"]) == []


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            out = pathlib.Path(tmp) / "report.json"
            code = _run(case, out)
            doc = {"exit_code": code, "report": json.loads(out.read_text())}
            (GOLDEN / f"{case}.json").write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(case, code)
