#!/usr/bin/env python3
"""List the functions in `src/` that no `tools/same_reports.py` case enters.

    python3 tools/reach.py

The case list of `same_reports.build_cases` (its generated inputs written
into a temporary directory, removed again at the end) runs through
`localforms.cli.main` in one child process.  A call trace is started there
before `localforms` is imported, so code that runs at import counts too.
Every function and method defined under `src/localforms/`, nested ones
included, that no case enters is printed as `module:qualname`.  Each one is
marked `allowed` when `tools/reach_allow.txt` names it, else `UNENTERED`.
An allowlist entry that names no function, or a function that a case
enters, is printed as stale.  The exit code is 1 if a function outside
the allowlist is unentered or an entry is stale, else 0.

`tools/reach_allow.txt` holds one `module:qualname reason` per line; blank
lines and lines starting with `#` are skipped.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT
from same_reports import build_cases, case_results, run_tree

PACKAGE = ROOT / "src" / "localforms"
ALLOW = ROOT / "tools" / "reach_allow.txt"


def run_traced():
    """Child side: read [(name, argv)] as JSON on stdin, run every case
    under a call trace and write [file, first line, name] of each code
    object under `src/localforms/` that was entered."""
    cases = json.load(sys.stdin)
    prefix = str(PACKAGE) + os.sep
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.settrace(trace)
    try:  # case_results imports localforms, so under the trace
        case_results(cases)
    finally:
        sys.settrace(None)
    json.dump(sorted(entered), sys.stdout)


def functions():
    """{(file, first line, name): "module:qualname"} of every function in
    the package; a decorated function's code starts at its first
    decorator."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, scope + [child.name])
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    found[(str(path), first, child.name)] = \
                        f"{module}:{'.'.join(scope + [child.name])}"
                    visit(child, scope + [child.name, "<locals>"])
                else:
                    visit(child, scope)

        visit(ast.parse(path.read_text(), str(path)), [])
    return found


def allowlist():
    """{"module:qualname": reason} from `tools/reach_allow.txt`."""
    allowed = {}
    for line in ALLOW.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            if not reason.strip():
                raise SystemExit(f"error: {ALLOW.name}: '{name}' has no "
                                 "reason")
            allowed[name] = reason.strip()
    return allowed


def main():
    scratch = Path(tempfile.mkdtemp(prefix="reach-"))
    try:
        cases = build_cases(scratch)
        entered = {tuple(key) for key in run_tree(
            ROOT, cases, "import reach; reach.run_traced()")}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    found = functions()
    allowed = allowlist()
    unentered = sorted(name for key, name in found.items()
                       if key not in entered)
    outside = [name for name in unentered if name not in allowed]
    for name in unentered:
        print(f"{'allowed' if name in allowed else 'UNENTERED'} {name}")
    stale = sorted(set(allowed) - set(unentered))
    for name in stale:
        why = ("a case enters it" if name in found.values()
               else "no such function")
        print(f"STALE allowlist entry {name}: {why}")
    print(f"{len(cases)} cases, {len(found)} functions, "
          f"{len(found) - len(unentered)} entered, "
          f"{len(unentered) - len(outside)} unentered and allowed, "
          f"{len(outside)} unentered outside the allowlist, "
          f"{len(stale)} stale allowlist entries")
    return 1 if outside or stale else 0


if __name__ == "__main__":
    sys.exit(main())
