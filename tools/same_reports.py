#!/usr/bin/env python3
"""Check that the working tree gives the same CLI results as a parent revision.

    python3 tools/same_reports.py --parent HEAD~1 [--floats ATOL]

The committed files of the parent revision are unpacked into a temporary
directory (removed again at the end), as `tools/bench_pairs.py` does.  One
case list is built from this working tree: every case of
`tests/test_golden.py` at its stored sample plan, at `--grid 4 --random 5`
and at `--grid 15`, and every command (set-up included) of
`perfbench/inputs.build_plan` for each workload at seeds 101 and 202, and
`tower` on a depth-16 tower from `perfbench/inputs.tower_doc`, on its
mutated twin (17x16 truncation literals) and on two copies with one
connector swapped for a shifted diagonal block, (16,15) in one and (16,2)
in the other, which fail `validate`, so the first violation's
`tower_invariant_error` is compared too, and `transport --steps 10000`,
longer than one chunk of the integrator, on the k = 3 monopole's equator
and on the two-chart abelian path.  Two copies of `fixtures/abelian.json`,
one without the transition `U1,U2` and one without `U2,U1`, each run
`verify` and `transport` on the two-chart path, so that a chart switch
takes each branch of the declared-transition rule.  A handful of invalid
inputs exit 2: a morphism whose `source_n` does not match, under
`relate`, `push` and `assoc`, a path junction outside its overlap and a
path that names an unknown chart.  `REACH` adds inputs for code that no
other case enters: four matrix-literal errors (an entry too large, a
negated one, a ragged literal, a literal in a row position), four literals
that scan as one token but are no number-only literal (entries `+2`, `1e`
and `1.2.3`, and a '.' that no number takes), one number-only literal
spelled with blanks and split signs, another syntax error, a schema type
error, a domain error that names its sample point, a path curve that uses every scalar function and '^', a
transition that uses `inv`, a `--tolerance` flag, a `push` whose target
transitions fail the morphism cocycle, and a declared identity
transition that passes and one that fails; most are copies of a fixture
with one value replaced.  `fixtures/tower_unipotent.json` and
its mutated twin run `tower` with only the consecutive connectors (j, j-1)
kept, the CLI route to composed connectors.  The generated inputs are
written once into the temporary directory.  Both trees
run the same case list through `localforms.cli.main`, each in one child
process that imports the package from that tree's `src/`.  Every case whose
exit code, stdout or stderr differ is printed; the exit code is 1 if any
case differs, else 0.

With `--floats ATOL` a case whose exit code and stderr are equal, and whose
stdout reports parse to JSON with the same keys, lists, strings (non-finite
floats are the strings "nan" and "inf"), booleans and integers, differs in
floats only; a number that is a float on either side is compared as a
number, since the report writes a float 0.0 as the integer 0.  It is printed with the number of floats that changed, their keys and
the largest change, and fails only if that change exceeds ATOL; any other
difference still fails.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, _git, unpack_revision

SEEDS = (101, 202)
DEEP_TOWER = 16
# connectors of the deep tower swapped for a wrong morphism, one per case:
# a consecutive and a non-consecutive pair, so `validate` fails on each
SHIFTED = ((DEEP_TOWER, DEEP_TOWER - 1), (DEEP_TOWER, 2))
# transports of more steps than one chunk of the integrator (4096)
LONG_STEPS = 10_000
LONG_TRANSPORTS = {"monopole_k3": ("monopole_k3", "path_monopole_equator"),
                   "abelian-two-charts": ("abelian", "path_abelian_two_charts")}
# the abelian bundle without one of its two transitions, so that a chart
# switch takes each branch: the inverse of g_ab at x, or g_ba at psi(x)
ONE_WAY = ("U1,U2", "U2,U1")
TRUNCATE_3_TO_2 = "[[1,0,0],[0,1,0]] * g * transpose([[1,0,0],[0,1,0]])"
# inputs that exit 2: (case name, argv), a dict standing for a document
# written to a file and a name ending in .json for a fixture
USAGE_ERRORS = (
    ("relate-source_n", ["relate", "monopole_k1.json", "monopole_k1.json",
                         {"source_n": 3, "target_n": 2,
                          "phi": TRUNCATE_3_TO_2}]),
    ("push-source_n", ["push", "monopole_k1.json",
                       {"source_n": 3, "target_n": 2, "phi": TRUNCATE_3_TO_2,
                        "target_transitions": {
                            "U_N,U_S": "mexp(-2*k*x2*[[0,-1],[1,0]])",
                            "U_S,U_N": "mexp(2*k*x2*[[0,-1],[1,0]])"}}]),
    ("assoc-source_n", ["assoc", "monopole_k1.json",
                        {"source_n": 3, "target_n": 2,
                         "phi": TRUNCATE_3_TO_2}]),
    # the junction lies in U_N's polar cap, outside the overlap band
    ("transport-junction-outside-overlap", [
        "transport", "monopole_k1.json", {"segments": [
            {"chart": "U_N", "curve": ["0.2", "t"]},
            {"chart": "U_S", "curve": ["3.141592653589793 - 0.2", "1 + t"]}]}]),
    ("transport-unknown-chart", [
        "transport", "abelian.json",
        {"segments": [{"chart": "U9", "curve": ["0.2 + 1.3*t"]}]}]),
)
J = "[[0,-1],[1,0]]"
# inputs that reach code no other case enters, from the CLI: (case name,
# argv) as in USAGE_ERRORS, where a tuple (fixture, key path, value) stands
# for a copy of the fixture with the value at that path replaced
REACH = (
    # matrix-literal errors, each raised by the parser's descent
    ("literal-too-large", ["verify", (
        "abelian.json", ("transitions", "U1,U2"),
        "mexp(x1*[[0,-1],[1e400,0]])")]),
    ("literal-negated-too-large", ["verify", (
        "abelian.json", ("transitions", "U1,U2"),
        "mexp(x1*[[0,- 1e400],[1,0]])")]),
    ("literal-ragged", ["verify", (
        "abelian.json", ("transitions", "U1,U2"), "mexp(x1*[[0,-1],[1]])")]),
    ("literal-in-row-position", ["verify", (
        "abelian.json", ("transitions", "U1,U2"),
        "mexp(x1*[[[0,-1]],[1,0]])")]),
    # rows of the literal token's characters whose entries are no numbers,
    # a '.' that no number takes, and a literal spelled with blanks
    ("literal-entry-plus", ["verify", (
        "abelian.json", ("forms", "U1", 0), "sin(x1)*[[1, +2]]")]),
    ("literal-entry-bare-exponent", ["verify", (
        "abelian.json", ("forms", "U1", 0), "sin(x1)*[[1e, 2]]")]),
    ("literal-entry-two-points", ["verify", (
        "abelian.json", ("forms", "U1", 0), "sin(x1)*[[1.2.3, 0]]")]),
    ("literal-stray-point", ["verify", (
        "abelian.json", ("forms", "U1", 0), "sin(x1)*[[1.., 0]] $")]),
    ("literal-blanks-and-split-signs", ["verify", (
        "abelian.json", ("forms", "U1", 0),
        "sin(x1)*[[ 1 , - 2.5 ], [ .5, 3. ]]")]),
    ("syntax-error", ["verify", (
        "abelian.json", ("forms", "U1", 0), f"sin(x1*{J}")]),
    ("schema-type-error", ["verify", (
        "abelian.json", ("sample_plan", "grid"), "7")]),
    # log(x1 - 1.5) on the overlap 1 < x1 < 2: the error names a sample point
    ("domain-error-at-point", ["verify", (
        "abelian.json", ("forms", "U1", 0), f"log(x1 - 1.5)*{J}")]),
    # every scalar function of the grammar and '^' in a path curve, whose
    # derivative the transport takes, and inv in a transition's jet
    ("transport-curve-functions", ["transport", "abelian.json", {
        "segments": [{"chart": "U1", "curve": [
            "0.2 + 0.1*tan(t) + 0.1*exp(t) + 0.1*log(1 + t)"
            " + 0.1*sqrt(1 + t) + 0.1*atan2(t, 2) + 0.1*t^3"]}]}]),
    ("verify-inv-transition", ["verify", (
        "abelian.json", ("transitions", "U2,U1"), f"inv(mexp(x1*{J}))")]),
    ("verify-tolerance", ["verify", "flat.json", "--tolerance", "1e-6"]),
    # target transitions of charge 1 where the squaring gives charge 2
    ("push-failing-morphism-cocycle", [
        "push", "monopole_k1.json",
        ("morphism_squaring.json", ("target_transitions", "U_N,U_S"),
         f"mexp(-k*x2*{J})")]),
    # a declared identity transition g_aa, which must be I
    ("verify-identity-transition", ["verify", (
        "abelian.json", ("transitions", "U1,U1"),
        f"mexp(x1*{J}) * mexp(-x1*{J})")]),
    ("verify-identity-transition-fails", ["verify", (
        "abelian.json", ("transitions", "U1,U1"), f"mexp(x1*{J})")]),
)
GOLDEN_PLANS = {"stored": [], "grid4-random5": ["--grid", "4", "--random", "5"],
                "grid15": ["--grid", "15"]}
# one BLAS/OpenMP thread, as in the benchmark's children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_cases(workdir):
    """[(case name, CLI argv)] of every golden case at every plan, every
    benchmark command and the deep towers, with generated inputs written
    under `workdir`."""
    golden = _module(ROOT / "tests" / "test_golden.py")
    cases = []
    for name, (command, *rest) in sorted(golden.CASES.items()):
        files = [str(ROOT / "fixtures" / a) if a.endswith(".json") else a
                 for a in rest]
        for plan, flags in GOLDEN_PLANS.items():
            cases.append((f"golden:{name}:{plan}", [command, *files, *flags]))
    inputs = _module(ROOT / "perfbench" / "inputs.py")
    for workload in inputs.WORKLOADS:
        for seed in SEEDS:
            plan = inputs.build_plan(workload, seed,
                                     Path(workdir) / f"{workload}-{seed}")
            for entry in [plan["setup"], *plan["entries"]]:
                cases.append((f"bench:{workload}:{seed}:{entry['id']}",
                              entry["argv"]))
    mf = inputs._load_make_fixtures()
    for mutated in (False, True):
        name = f"tower_d{DEEP_TOWER}" + ("_mutated" if mutated else "")
        path = inputs._write(
            Path(workdir) / f"{name}.json",
            inputs.tower_doc(mf, DEEP_TOWER, 1.25, 0.375, mutated))
        cases.append((f"deep:{name}", ["tower", path]))
    for j, i in SHIFTED:
        doc = inputs.tower_doc(mf, DEEP_TOWER, 1.25, 0.375)
        doc["connectors"][f"{j},{i}"]["phi"] = shifted_block(j, i)
        name = f"tower_d{DEEP_TOWER}_shifted_{j}_{i}"
        path = inputs._write(Path(workdir) / f"{name}.json", doc)
        cases.append((f"deep:{name}", ["tower", path]))
    for name, files in LONG_TRANSPORTS.items():
        cases.append((f"long:transport-{name}", [
            "transport", *(str(ROOT / "fixtures" / f"{f}.json") for f in files),
            "--steps", str(LONG_STEPS)]))
    for key in ONE_WAY:
        doc = _fixture("abelian.json")
        del doc["transitions"][key]
        name = f"abelian_without_{key.replace(',', '_')}"
        path = inputs._write(Path(workdir) / f"{name}.json", doc)
        cases.append((f"one-way:verify-{name}", ["verify", path]))
        cases.append((f"one-way:transport-{name}", [
            "transport", path,
            str(ROOT / "fixtures" / "path_abelian_two_charts.json")]))
    for kind, table in (("usage", USAGE_ERRORS), ("reach", REACH)):
        for name, argv in table:
            argv = [_edited(*arg) if isinstance(arg, tuple) else arg
                    for arg in argv]
            cases.append((f"{kind}:{name}", [
                inputs._write(Path(workdir) / f"{name}-{k}.json", arg)
                if isinstance(arg, dict) else
                str(ROOT / "fixtures" / arg) if arg.endswith(".json") else arg
                for k, arg in enumerate(argv)]))
    for name in ("tower_unipotent", "tower_unipotent_mutated"):
        doc = _fixture(f"{name}.json")
        doc["connectors"] = {key: phi for key, phi in doc["connectors"].items()
                             if _consecutive(key)}
        path = inputs._write(Path(workdir) / f"{name}_consecutive.json", doc)
        cases.append((f"consecutive:{name}", ["tower", path]))
    return cases


def _fixture(name):
    with open(ROOT / "fixtures" / name, encoding="utf-8") as handle:
        return json.load(handle)


def _edited(name, path, value):
    """The fixture `name` with the value at the key path `path` set to
    `value`."""
    doc = _fixture(name)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _consecutive(key):
    """Whether a connector key "j,i" names a consecutive pair, i = j - 1."""
    j, i = map(int, key.split(","))
    return i == j - 1


def shifted_block(j, i):
    """A morphism UT(j+1) -> UT(i+1) that is not the truncation: the
    diagonal block on indices 1..i+1 instead of 0..i."""
    a = str([[1 if c == r + 1 else 0 for c in range(j + 1)]
             for r in range(i + 1)])
    return f"{a} * g * transpose({a})"


def run_cases():
    """Child side: read [(name, argv)] as JSON on stdin, run each through
    localforms.cli.main and write {name: [exit code, stdout, stderr]}."""
    json.dump(case_results(json.load(sys.stdin)), sys.stdout)


def case_results(cases):
    """{name: [exit code, stdout, stderr]} of each case run through
    localforms.cli.main in this process."""
    from localforms.cli import main
    results = {}
    for name, argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a result to compare too
                code = f"{type(exc).__name__}: {exc}"
        results[name] = [code, out.getvalue(), err.getvalue()]
    return results


def run_tree(tree, cases,
             child="import same_reports; same_reports.run_cases()"):
    """The JSON output of `child`, run on every case in one child process
    importing `tree`/src: by default the results of every case."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(tree) / "src"), str(ROOT / "tools")]))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-c", child],
        cwd=tree, env=env, input=json.dumps(cases), capture_output=True,
        text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child in {tree} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def float_changes(parent, change, key=None):
    """[(key, |change|)] for each number that differs between two parsed
    JSON values where one of the two is a float, keyed by its innermost
    object key, or None when they differ in anything else: keys, list
    lengths, strings, booleans, types or two integers.  A float and an
    integer compare as numbers, as the report writes 0.0 as 0."""
    numbers = (int, float)  # not bool, a subclass of int
    if type(parent) in numbers and type(change) in numbers:
        if parent == change:
            return []
        if type(parent) is int and type(change) is int:
            return None
        return [(key, abs(parent - change))]
    if type(parent) is not type(change):
        return None
    if isinstance(parent, dict):
        if list(parent) != list(change):
            return None
        pairs = [(parent[k], change[k], k) for k in parent]
    elif isinstance(parent, list):
        if len(parent) != len(change):
            return None
        pairs = [(p, c, key) for p, c in zip(parent, change)]
    else:
        return [] if parent == change else None
    changes = []
    for p, c, k in pairs:
        sub = float_changes(p, c, k)
        if sub is None:
            return None
        changes += sub
    return changes


def float_only(parent, change):
    """float_changes of two case results [exit code, stdout, stderr] whose
    exit code and stderr are equal and whose stdouts are JSON, else None."""
    if parent[0] != change[0] or parent[2] != change[2]:
        return None
    try:
        return float_changes(json.loads(parent[1]), json.loads(change[1]))
    except ValueError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--floats", type=float, metavar="ATOL",
                        help="let reports differ in float values by at "
                             "most ATOL each")
    args = parser.parse_args(argv)

    revision = _git("rev-parse", args.parent)
    scratch = Path(tempfile.mkdtemp(prefix="same-reports-"))
    try:
        parent_tree = unpack_revision(revision, scratch / "parent")
        cases = build_cases(scratch / "inputs")
        parent = run_tree(parent_tree, cases)
        change = run_tree(ROOT, cases)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    differing, floats = 0, []
    for name, _ in cases:
        fields = [field for field, p, c in zip(
            ("exit code", "stdout", "stderr"), parent[name], change[name])
            if p != c]
        if not fields:
            continue
        changes = None
        if args.floats is not None:
            changes = float_only(parent[name], change[name])
        if changes:
            largest = max(delta for _, delta in changes)
            floats.append(changes)
            beyond = largest > args.floats
            differing += beyond
            keys = ", ".join(sorted({str(k) for k, _ in changes}))
            print(f"{name}: {len(changes)} floats ({keys}) differ by at most "
                  f"{largest:.3g}" + (f", beyond {args.floats:g}"
                                      if beyond else ""))
            continue
        differing += 1
        print(f"{name}: {', '.join(fields)} differ")
        if "exit code" in fields or "stderr" in fields:
            print(f"  parent: {parent[name][0]!r} {parent[name][2]!r}")
            print(f"  change: {change[name][0]!r} {change[name][2]!r}")
    summary = f"{len(cases)} cases against {revision[:12]}, {differing} differ"
    if args.floats is not None:
        deltas = [delta for changes in floats for _, delta in changes]
        summary += (f"; {len(floats)} differ in floats only: {len(deltas)} "
                    f"floats, largest change {max(deltas, default=0.0):.3g}")
    print(summary)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
