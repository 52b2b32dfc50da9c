#!/usr/bin/env python3
"""Check that tier-1 kills every listed source mutant.

    python3 tools/mutants.py

Each mutant is one edit of one source file, (file, exact old text, new
text), and the law of the paper or the document rule it breaks.  The
committed files of HEAD are unpacked into a temporary directory (removed
again at the end), as `tools/same_reports.py` does; an edit whose old text
does not occur exactly once in its file there is an error (exit 2) before
any test runs.  For each mutant in turn the edit is applied, tier-1 runs
with `-x` on that tree, and the file is restored.  Each line of output
names the mutant and the first test that failed on it, or SURVIVED; the exit
code is 1 if any mutant survives, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _git, unpack_revision

SRC = "src/localforms/"
# (name, file, old text, new text, the law it breaks)
MUTANTS = [
    ("gauge-ad-g", SRC + "connection/forms.py",
     "return g_inv @ omega @ g + g_inv @ dg",
     "return g @ omega @ g_inv + g_inv @ dg",
     "the gauge law takes Ad(g^-1), not Ad(g)"),
    ("gauge-no-dg", SRC + "connection/forms.py",
     "return g_inv @ omega @ g + g_inv @ dg",
     "return g_inv @ omega @ g",
     "the gauge law adds g^-1 dg"),
    ("pushforward-sign", SRC + "morphism.py",
     "@ h_inv - dh @ h_inv", "@ h_inv + dh @ h_inv",
     "the pushforward subtracts dh h^-1"),
    ("pushforward-h-inv-dh", SRC + "morphism.py",
     "@ h_inv - dh @ h_inv", "@ h_inv - h_inv @ dh",
     "the pushforward subtracts dh h^-1, not h^-1 dh"),
    ("morphism-cocycle-h-b-at-x", SRC + "morphism.py",
     "inverse(at(h_b, source.pushed(ov)[0]))", "inverse(at(h_b, pts))",
     "the morphism cocycle takes h_b at psi_ab(x)"),
    ("triple-g-ac-at-psi", SRC + "connection/checks.py",
     "rhs = at(data.transitions[(a, c)], pts)",
     "rhs = at(data.transitions[(a, c)], y)",
     "the triple cocycle compares with g_ac at x"),
    ("triple-never-added", SRC + "connection/checks.py",
     'report.add(f"cocycle:{a},{b},{c}", max_residual(lhs - rhs), len(pts))',
     "max_residual(lhs - rhs)",
     "every triple overlap is checked"),
    ("roundtrip-self", SRC + "connection/checks.py",
     "max_residual(back - pts[inside], axis=-1)",
     "max_residual(back - back, axis=-1)",
     "coordinate changes of an overlap pair are mutually inverse"),
    ("passed-at-tolerance", SRC + "report.py",
     "self.max_residual < self.tolerance",
     "self.max_residual <= self.tolerance",
     "a check passes only below its tolerance"),
    ("chart-switch-backward-at-x", SRC + "connection/points.py",
     "jet(y, v_new)", "jet(p.x, v)",
     "a transition declared only from the target chart is evaluated at "
     "the pushed point psi(x)"),
    ("junction-no-transition", SRC + "connection/transport.py",
     "a = q.a", "a = a",
     "transport changes chart through the transition"),
    ("junction-no-continuity-check", SRC + "connection/transport.py",
     "if np.linalg.norm(q.x - x_start) > JUNCTION_TOLERANCE:",
     "if False:",
     "consecutive path segments meet at their junction"),
    ("transport-chunk-ticks-restart", SRC + "connection/transport.py",
     "        tick = ticks[-1]\n", "",
     "each chunk of RK4 steps goes on from the previous chunk's last node"),
    ("transport-fold-early-late", SRC + "connection/transport.py",
     "_mul(late, early)", "_mul(early, late)",
     "transport multiplies the step maps in path order, later on the left"),
    ("tower-no-transition-projection", SRC + "tower.py",
     "for i in range(1, self.depth):\n            for key, pts in overlaps",
     "for i in range(1, 1):\n            for key, pts in overlaps",
     "connectors project each level's transitions onto the next"),
    ("tower-unshared-levels", SRC + "tower.py",
     "if (data.atlas is not self.levels[0].atlas\n"
     "                    or data.sample_plan != self.levels[0].sample_plan):",
     "if False:",
     "a tower's levels share one atlas and one sample plan"),
    ("param-over-variable", SRC + "expr/parser.py",
     "\n                 if name not in coords and name not in matrix_params}",
     "}",
     "a coordinate or the matrix parameter g hides a param of its name"),
    ("literal-too-large-built", SRC + "expr/parser.py",
     "            if not math.isfinite(value):\n                return None\n",
     "",
     "a number too large for a float is a syntax error, also in a literal"),
    ("literal-entry-unchecked", SRC + "expr/parser.py",
     "match = _ENTRY_RE.fullmatch(entry)", "match = _ENTRY_RE.search(entry)",
     "a literal's entries are numbers or negated numbers: [[1, +2]] is a "
     "syntax error, not a literal"),
    ("literal-table-kept", SRC + "bundle_io.py",
     "params, literals = doc[\"params\"], {}\n    atlas",
     "params, literals = doc[\"params\"], "
     "load_tower.__dict__.setdefault(\"literals\", {})\n    atlas",
     "a document's literal table lives as long as its loader call"),
    ("unwritable-out-exit-1", SRC + "cli.py",
     'f"{exc.strerror or exc}", file=sys.stderr)\n            return 2',
     'f"{exc.strerror or exc}", file=sys.stderr)\n            return 1',
     "exit 1 means a check failed; a report that cannot be written is an "
     "input error"),
    ("schema-unknown-key", SRC + "bundle_io.py",
     "if key not in schema:", "if key not in schema and False:",
     "a document has no unknown keys"),
    ("chart-reference-unchecked", SRC + "bundle_io.py",
     "if chart_id not in charts:", "if chart_id not in charts and False:",
     "every chart a document names is declared"),
    ("form-coefficient-count-unchecked", SRC + "bundle_io.py",
     "if len(form.coeffs) != dim:", "if False:",
     "a local form has one coefficient per chart dimension"),
    ("overlap-transition-unchecked", SRC + "bundle_io.py",
     "and (ov.dst, ov.src) not in transitions:", "and False:",
     "every overlap has a transition function in one direction or the "
     "other"),
    ("schema-non-finite-number", SRC + "bundle_io.py",
     "abs(value) <= float_info.max", "True",
     "document numbers are finite"),
    ("schema-boolean-integer", SRC + "bundle_io.py",
     "elif type(value) is _LEAF_TYPES[schema] and (",
     "elif isinstance(value, _LEAF_TYPES[schema]) and (",
     "a boolean is not an integer, a number or a string"),
    ("schema-size-zero", SRC + "bundle_io.py",
     "schema is not SIZE or 1 <= value <= MAX_SIZE",
     "schema is not SIZE or 0 <= value <= MAX_SIZE",
     "group sizes and dimensions are positive"),
    # the matrix kernels: the 2x2 closed forms and their Frechet derivative,
    # then the Pade-13 Frechet pass
    ("expm2-cos-for-cosh", SRC + "expr/dual.py",
     "np.where(real, np.cosh(w), np.cos(w))",
     "np.where(real, np.cos(w), np.cos(w))",
     "a real delta takes cosh, not cos"),
    ("expm2-g-h-sign", SRC + "expr/dual.py",
     "[c + gh, g * a01, g * a10, c - gh]",
     "[c - gh, g * a01, g * a10, c + gh]",
     "exp(A) = c I + g (A - mu I) adds g h on the first diagonal entry"),
    ("expm2-frechet-no-dmu-exp", SRC + "expr/dual.py",
     "dmu[..., None] * v + ", "",
     "L = dmu exp(A) + ... has the term dmu exp(A)"),
    ("expm2-frechet-g-for-half-g", SRC + "expr/dual.py",
     "(dz * 0.5 - dmu) * g", "(dz - dmu) * g",
     "C'(z) = S(z)/2, so dz takes g/2 on the diagonal"),
    ("expm2-frechet-series-first-coefficient", SRC + "expr/dual.py",
     "j / math.factorial(2 * j + 1) for j",
     "(j + (j == 1)) / math.factorial(2 * j + 1) for j",
     "S'(0) = 1/6"),
    ("expm2-frechet-scaling-not-undone", SRC + "expr/dual.py",
     "        p = p + s[..., None]\n", "",
     "L is linear in E, so a direction scaled by 2^-s scales L by 2^-s"),
    ("det-plus", SRC + "expr/dual.py",
     "a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]",
     "a[..., 0, 0] * a[..., 1, 1] + a[..., 0, 1] * a[..., 1, 0]",
     "a 2x2 determinant is ad - bc"),
    ("adjugate-off-diagonal-sign", SRC + "expr/dual.py",
     "a[..., 0, 1] / -d,", "a[..., 0, 1] / d,",
     "the adjugate negates the off-diagonal entries"),
    ("frechet-no-dx6-w1", SRC + "expr/dual.py",
     " + dx6 @ w1\n", "\n",
     "d(x6 w1) has the term dx6 w1"),
    ("frechet-unscaled-tangent", SRC + "expr/dual.py",
     "else np.ldexp(e, -s[:, None, None])", "else e",
     "a direction is scaled with its matrix"),
    ("frechet-one-sided-squaring", SRC + "expr/dual.py",
     "ra @ da + da @ ra", "2 * ra @ da",
     "d(r^2) = r dr + dr r"),
    ("frechet-rhs-no-r", SRC + "expr/dual.py",
     "(dv - du) @ r", "(dv - du)",
     "(V - U) r = V + U, differentiated, keeps r"),
    ("frechet-zero-direction-computed", SRC + "expr/dual.py",
     "np.flatnonzero(e.any(axis=(1, 2, 3)))", "np.arange(len(e))",
     "a zero direction has an exact-zero derivative"),
]


def first_failure(output):
    """The node id of the first test that failed or errored, from pytest's
    short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            node = line.split(" ", 1)[1]
            end = node.find("] - ")  # a parametrized id may hold " - "
            return node[:end + 1] if end >= 0 else node.split(" - ")[0]
    return None


def run_tier1(tree):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    revision = _git("rev-parse", "HEAD")
    scratch = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        tree = unpack_revision(revision, scratch / "tree")
        for name, path, old, _, _ in MUTANTS:
            count = (tree / path).read_text().count(old)
            if count != 1:
                print(f"error: mutant {name}: old text occurs {count} times "
                      f"in {path}", file=sys.stderr)
                return 2
        survivors = 0
        for name, path, old, new, law in MUTANTS:
            source = (tree / path).read_text()
            (tree / path).write_text(source.replace(old, new))
            try:
                code, output = run_tier1(tree)
            finally:
                (tree / path).write_text(source)
            if code == 0:
                survivors += 1
                print(f"SURVIVED {name}: {law}")
            else:
                killer = first_failure(output) or f"exit code {code}"
                print(f"killed {name} by {killer}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(MUTANTS)} mutants against {revision[:12]}, "
          f"{survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
