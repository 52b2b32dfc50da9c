"""Seeded inputs and command plans of the benchmark workloads.

`build_plan` writes the generated input files of one workload into a work
directory and returns its plan: the commands to run (argv, expected exit
code, nominal sample count, transport steps and closed forms) and the
inputs the set-up phase loads.  The same seed gives the same files and the
same plan.

Every workload reports every end-to-end metric, so each one also runs a small
*probe* of the subcommands outside its focus.  Probes are short, repeated
PROBE_REPS times per pass, and take a small share of the workload's time.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
MAKE_FIXTURES = ROOT / "tools" / "make_fixtures.py"

WORKLOADS = ("checks-grid", "transport-long", "tower-deep")
CHECK_COMMANDS = ("verify", "relate", "push", "assoc", "convert-christoffel")
PROBE_REPS = 3

# Sizes keep single calls short (about 0.05-1.2 s), so that a run makes many
# calls per input: see README.md on timing noise.
FULL = {"grid": 12, "steps": 2000, "depth": 8,
        "probe_grid": 4, "probe_random": 10, "probe_steps": 500,
        "probe_depth": 3}
# The smoke check's scale.  Transport keeps its step counts: fewer steps
# would miss the 1e-9 closed forms (RK4 on k = 3 needs about 1500).
TINY = dict(FULL, grid=3, depth=3, probe_grid=2, probe_random=2)

# Mutated twins of clean fixtures: their checks must fail with exit code 1.
MUTATED = ("monopole_k1_mutated", "sphere_frame_mutated",
           "sphere_levi_civita_mutated")


def _load_make_fixtures():
    spec = importlib.util.spec_from_file_location("make_fixtures",
                                                  MAKE_FIXTURES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quantized(rng, lo, hi):
    """Uniform draw rounded to a multiple of 2^-10, so the decimal text in
    a generated expression is the exact binary value the closed form uses."""
    return round(float(rng.uniform(lo, hi)) * 1024.0) / 1024.0


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return str(path)


# ----- generated inputs -------------------------------------------------


def tower_doc(mf, depth, amplitude, offset, mutated=False):
    """Depth-`depth` unipotent tower by the construction of make_fixtures'
    tower(), with seeded form coefficients.  Level i has group UT(i+1);
    forms (a sin x1 + c) N on U1 and (a sin x1 + c + 1) N on U2, N the
    superdiagonal nilpotent, so every level pair is related through the
    leading-block truncations.  The mutated twin shifts level 1 on U1."""
    doc = mf.line_charts()
    levels = []
    for i in range(1, depth + 1):
        n = i + 1
        nil = mf.nilpotent(n)
        levels.append({
            "group": {"name": f"UT({n})", "n": n,
                      "generators": mf.strictly_upper_basis(n)},
            "transitions": {"U1,U2": f"mexp(x1*{nil})",
                            "U2,U1": f"mexp(-x1*{nil})"},
            "forms": {"U1": [f"({amplitude!r}*sin(x1)+{offset!r})*{nil}"],
                      "U2": [f"({amplitude!r}*sin(x1)+{offset!r}+1)*{nil}"]},
        })
    if mutated:
        levels[0]["forms"]["U1"] = [
            f"({amplitude!r}*sin(x1)+{offset!r}+0.25)*{mf.nilpotent(2)}"]
    doc.update({
        "levels": levels,
        "connectors": {f"{j},{i}": {"phi": mf.truncation(j, i)}
                       for j in range(2, depth + 1) for i in range(1, j)},
        "sample_plan": {"grid": 10, "random": 20, "seed": 42},
    })
    return doc


def equator_path(mf, rng):
    """Monopole equator loop in U_N from a seeded azimuth, with a seeded
    initial frame a0 in SO(2).  Along the equator the form is the constant
    (k/2) J dx2, so transport over 2 pi gives rotation(-k pi) a0."""
    phi0 = _quantized(rng, 0.0, 0.3)
    a0 = rotation(float(rng.uniform(-math.pi, math.pi)))
    doc = {"segments": [{"chart": "U_N",
                         "curve": [f"{mf.PI}/2", f"{phi0!r} + 2*{mf.PI}*t"],
                         "t_range": [0.0, 1.0]}],
           "a0": a0.tolist()}
    return doc, a0


def two_chart_path(rng):
    """Abelian path from s0 in U1 to the junction m, switch to U2, on to e.
    With the forms sin(x) J on U1, (sin(x) + 1) J on U2 and the switch by
    exp(-m J), every factor commutes and the result is rotation(theta) a0,
    theta = -(cos s0 - cos m) - m - (cos m - cos e) - (e - m)."""
    s0 = _quantized(rng, 0.1, 0.9)
    m = _quantized(rng, 1.1, 1.9)
    e = _quantized(rng, m + 0.1, 2.9)
    a0 = rotation(float(rng.uniform(-math.pi, math.pi)))
    doc = {"segments": [
        {"chart": "U1", "curve": [f"{s0!r} + {m - s0!r}*t"],
         "t_range": [0.0, 1.0]},
        {"chart": "U2", "curve": [f"{m!r} + {e - m!r}*t"],
         "t_range": [0.0, 1.0]}],
        "a0": a0.tolist()}
    theta = -(math.cos(s0) - math.cos(m)) - m \
        - (math.cos(m) - math.cos(e)) - (e - m)
    return doc, rotation(theta) @ a0


# ----- nominal sample counts ----------------------------------------------


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _keys(transitions):
    return {tuple(part.strip() for part in key.split(","))
            for key in transitions}


def _points(doc, grid, n_random, dim):
    """Points of the sample plan before masking: grid^dim midpoints plus
    the random points (the file's count unless overridden)."""
    if n_random is None:
        n_random = int(doc.get("sample_plan", {}).get("random", 10))
    return (grid ** dim if grid >= 1 else 0) + max(n_random, 0)


def nominal_samples(command, files, grid, n_random=None):
    """Nominal point x direction samples of one check command, from the
    sample plan and the input files alone: `files[0]` is the bundle or
    Christoffel file, `files[1]` the target bundle of relate or the morphism
    of push.  Each chart or overlap a check visits contributes (points
    before masking) x (chart dimension).  The atlases used here have two
    charts, so no triple cocycle applies."""
    doc = _read(files[0])
    dims = {c["id"]: int(c["dim"]) for c in doc["charts"]}
    overlaps = [(ov["from"], ov["to"]) for ov in doc["overlaps"]]
    source = _keys(doc.get("transitions", {}))
    visits = []  # src chart of each chart or overlap visited
    if command in ("verify", "assoc", "convert-christoffel"):
        visits += [a for a, b in overlaps if (a, b) in source]  # compatibility
    if command == "verify":
        visits += [a for a, _ in overlaps]  # overlap round trip / Jacobian
        visits += [a for a, b in source if a == b]  # identity cocycle
        visits += [a for a, b in sorted(source)
                   if a < b and (b, a) in source and (a, b) in overlaps]
    if command in ("relate", "push"):
        target = _keys(_read(files[1]).get("transitions", {})) \
            if command == "relate" \
            else _keys(_read(files[1]).get("target_transitions", {}))
        visits += list(dims)  # relatedness on every chart
        visits += [a for a, b in overlaps
                   if (a, b) in source and (a, b) in target]  # morphism cocycle
        if command == "push":
            visits += [a for a, b in overlaps if (a, b) in target]
    return sum(_points(doc, grid, n_random, dims[chart]) * dims[chart]
               for chart in visits)


# ----- plans ----------------------------------------------------------------


def _fixture(name):
    return str(FIXTURES / f"{name}.json")


def _entry(command, label, files, expect, extra_args=(), reps=1):
    return {"id": f"{command}:{label}", "command": command,
            "argv": [command, *files, *extra_args], "files": list(files),
            "expect": expect, "reps": reps}


def _check_entries(grid, n_random, seed, reps):
    args = ("--grid", str(grid), "--seed", str(seed))
    if n_random is not None:
        args += ("--random", str(n_random))
    entries = []
    for name in ("monopole_k1", "monopole_k1_mutated", "sphere_frame",
                 "sphere_frame_mutated"):
        entries.append(_entry("verify", name, [_fixture(name)],
                              int(name in MUTATED), args, reps))
    entries.append(_entry("relate", "k1-k2-squaring",
                          [_fixture("monopole_k1"), _fixture("monopole_k2"),
                           _fixture("morphism_squaring")], 0, args, reps))
    for command in ("push", "assoc"):
        entries.append(_entry(command, "k1-squaring",
                              [_fixture("monopole_k1"),
                               _fixture("morphism_squaring")], 0, args, reps))
    for name in ("sphere_levi_civita", "sphere_levi_civita_mutated"):
        entries.append(_entry("convert-christoffel", name, [_fixture(name)],
                              int(name in MUTATED), args, reps))
    for entry in entries:
        entry["nominal"] = nominal_samples(entry["command"], entry["files"],
                                           grid, n_random)
        entry["plan"] = {"grid": grid, "seed": seed}
    return entries


def _transport_entry(label, bundle, path, closed_form, steps, segments, reps):
    entry = _entry("transport", label, [bundle, path], 0,
                   ("--steps", str(steps)), reps)
    entry["steps"] = steps * segments
    entry["closed_form"] = closed_form.tolist()
    return entry


def _tower_entries(mf, workdir, depth, seed, rng, reps, with_mutated):
    amplitude = _quantized(rng, 0.5, 1.5)
    offset = _quantized(rng, 0.0, 0.5)
    entries = []
    for mutated in ((False, True) if with_mutated else (False,)):
        name = f"tower_d{depth}" + ("_mutated" if mutated else "")
        path = _write(workdir / f"{name}.json",
                      tower_doc(mf, depth, amplitude, offset, mutated))
        entry = _entry("tower", name, [path], int(mutated),
                       ("--seed", str(seed)), reps)
        entry["plan"] = {"grid": 10, "seed": seed}
        entries.append(entry)
    return entries


def build_plan(workload, seed, workdir, scale=FULL):
    """Write the workload's generated inputs under `workdir` and return its
    plan: {"workload", "seed", "entries", "loads", "setup"}, where "setup"
    is the cold command every set-up runs after loading the inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    mf = _load_make_fixtures()
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    entries = []
    if workload == "checks-grid":
        entries += _check_entries(scale["grid"], None, seed, 1)
    else:
        entries += _check_entries(scale["probe_grid"], scale["probe_random"],
                                  seed, PROBE_REPS)
        # one probe input per check subcommand is enough
        keep = {"verify:monopole_k1", "relate:k1-k2-squaring",
                "push:k1-squaring", "assoc:k1-squaring",
                "convert-christoffel:sphere_levi_civita"}
        entries = [e for e in entries if e["id"] in keep]

    if workload == "transport-long":
        for k in (1, 2, 3):
            doc, a0 = equator_path(mf, rng)
            path = _write(workdir / f"path_equator_k{k}.json", doc)
            entries.append(_transport_entry(
                f"monopole_k{k}-equator", _fixture(f"monopole_k{k}"), path,
                rotation(-k * math.pi) @ a0, scale["steps"], 1, 1))
        doc, want = two_chart_path(rng)
        path = _write(workdir / "path_two_chart.json", doc)
        entries.append(_transport_entry(
            "abelian-two-chart", _fixture("abelian"), path, want,
            scale["steps"], 2, 1))
    else:
        doc, a0 = equator_path(mf, rng)
        path = _write(workdir / "path_equator_probe.json", doc)
        entries.append(_transport_entry(
            "monopole_k1-equator", _fixture("monopole_k1"), path,
            rotation(-math.pi) @ a0, scale["probe_steps"], 1, PROBE_REPS))

    if workload == "tower-deep":
        entries += _tower_entries(mf, workdir, scale["depth"], seed, rng, 1,
                                  with_mutated=True)
    else:
        entries += _tower_entries(mf, workdir, scale["probe_depth"], seed,
                                  rng, PROBE_REPS, with_mutated=False)

    setup = _entry("verify", "flat-setup", [_fixture("flat")], 0,
                   ("--grid", "1", "--random", "1"))
    setup["nominal"] = nominal_samples("verify", setup["files"], 1, 1)
    return {"workload": workload, "seed": seed, "entries": entries,
            "loads": _loads(entries), "setup": setup}


def _loads(entries):
    """Every input file of the workload with the loader the CLI uses for it;
    bundles first, since morphism and path files are read against one."""
    bundles, others = {}, {}
    for entry in entries:
        files, command = entry["files"], entry["command"]
        if command == "convert-christoffel":
            others[files[0]] = {"loader": "christoffel", "path": files[0]}
        elif command == "tower":
            others[files[0]] = {"loader": "tower", "path": files[0]}
        else:
            *bundle_files, last = files
            if command == "verify":
                bundle_files = files
            for path in bundle_files:
                bundles[path] = {"loader": "bundle", "path": path}
            if command != "verify":
                loader = "path" if command == "transport" else "morphism"
                others[last] = {"loader": loader, "path": last,
                                "bundle": files[0]}
    return list(bundles.values()) + list(others.values())
