#!/usr/bin/env python3
"""Regenerate the JSON fixture files under fixtures/.

Run from the repository root:  python3 tools/make_fixtures.py
"""

import json
import os

PI = 3.141592653589793
J = "[[0,-1],[1,0]]"

OUT = os.path.join(os.path.dirname(__file__), "..", "fixtures")

PLAN = {"grid": 20, "random": 50, "seed": 42}


def write(name, doc):
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print("wrote", path)


# perfbench/inputs.tower_doc builds the tower-deep workload from
# line_charts, nilpotent, strictly_upper_basis and truncation, so changing
# their output changes the benchmark's inputs.
def line_charts():
    """Two 1-d charts with identity coordinate change on (1, 2)."""
    return {
        "charts": [
            {"id": "U1", "dim": 1, "box": [[0.0, 2.0]]},
            {"id": "U2", "dim": 1, "box": [[1.0, 3.0]]},
        ],
        "overlaps": [
            {"from": "U1", "to": "U2", "domain": [[1.0, 2.0]],
             "coord_change": ["x1"]},
            {"from": "U2", "to": "U1", "domain": [[1.0, 2.0]],
             "coord_change": ["x1"]},
        ],
    }


def sphere_charts():
    """North/south spherical charts, x1 = polar angle, x2 = azimuth;
    the south chart uses x1' = pi - x1."""
    box = [[0.05, 2.0], [-0.3, 6.6]]
    ov = [[1.15, 1.99], [-0.3, 6.6]]
    return {
        "charts": [
            {"id": "U_N", "dim": 2, "box": box},
            {"id": "U_S", "dim": 2, "box": box},
        ],
        "overlaps": [
            {"from": "U_N", "to": "U_S", "domain": ov,
             "coord_change": [f"{PI} - x1", "x2"]},
            {"from": "U_S", "to": "U_N", "domain": ov,
             "coord_change": [f"{PI} - x1", "x2"]},
        ],
    }


def flat():
    doc = line_charts()
    doc.update({
        "group": {"name": "SO(2)", "n": 2},
        "transitions": {"U1,U2": "[[1,0],[0,1]]", "U2,U1": "[[1,0],[0,1]]"},
        "forms": {"U1": ["[[0,0],[0,0]]"], "U2": ["[[0,0],[0,0]]"]},
        "sample_plan": PLAN,
    })
    return doc


def abelian():
    doc = line_charts()
    doc.update({
        "group": {"name": "SO(2)", "n": 2,
                  "generators": [[[0, -1], [1, 0]]]},
        "transitions": {"U1,U2": f"mexp(x1*{J})", "U2,U1": f"mexp(-x1*{J})"},
        "forms": {"U1": [f"sin(x1)*{J}"], "U2": [f"(sin(x1)+1)*{J}"]},
        "sample_plan": PLAN,
    })
    return doc


def monopole(charge):
    doc = sphere_charts()
    doc.update({
        "group": {"name": "SO(2)", "n": 2,
                  "generators": [[[0, -1], [1, 0]]]},
        "params": {"k": charge},
        "transitions": {
            "U_N,U_S": f"mexp(-k*x2*{J})",
            "U_S,U_N": f"mexp(k*x2*{J})",
        },
        "forms": {
            "U_N": ["[[0,0],[0,0]]", f"(k/2)*(1-cos(x1))*{J}"],
            "U_S": ["[[0,0],[0,0]]", f"-(k/2)*(1-cos(x1))*{J}"],
        },
        "sample_plan": PLAN,
    })
    return doc


def monopole_mutated():
    # broken transition (fails the cocycle by exactly a 0.1 rotation) and a
    # constant offset on the north potential (fails compatibility)
    doc = monopole(1)
    doc["transitions"]["U_N,U_S"] = f"mexp((-k*x2+0.1)*{J})"
    doc["forms"]["U_N"][1] = f"((k/2)*(1-cos(x1))+0.1)*{J}"
    return doc


# three 1-d charts of one line, chart a's coordinate x1 = s + SHIFT[a]; the
# transitions g_ab = R(f_a(s) - f_b(s)) depend on x1 and satisfy the triple
# cocycle, and the forms (theta(s) - f_a'(s)) J, theta(s) = s/2, pass
# compatibility
SHIFT = {"U1": 0, "U2": 1, "U3": 3}
F = {"U1": ("{s}", "1"), "U2": ("2*{s}", "2"), "U3": ("sin({s})", "cos({s})")}


def three_charts():
    def s(a):
        return f"(x1 - {SHIFT[a]})" if SHIFT[a] else "x1"

    def domain(a, lo, hi):  # an s-interval in chart a's coordinate
        return [[lo + SHIFT[a], hi + SHIFT[a]]]

    def transition(a, b):
        return f"mexp(({F[a][0]} - {F[b][0]})*{J})".format(s=s(a))

    overlaps = [("U1", "U2", 1.0, 2.0), ("U1", "U3", 1.5, 2.0),
                ("U2", "U3", 1.5, 3.0)]
    return {
        "charts": [{"id": a, "dim": 1, "box": domain(a, lo, hi)}
                   for a, lo, hi in (("U1", 0.0, 2.0), ("U2", 1.0, 3.0),
                                     ("U3", 1.5, 4.0))],
        "overlaps": [{"from": a, "to": b, "domain": domain(a, lo, hi),
                      "coord_change": [f"x1 + {SHIFT[b] - SHIFT[a]}"]}
                     for a, b, lo, hi in overlaps],
        "group": {"name": "SO(2)", "n": 2,
                  "generators": [[[0, -1], [1, 0]]]},
        "transitions": {f"{a},{b}": transition(a, b)
                        for a, b, _, _ in overlaps},
        "forms": {a: [f"(0.5*{s(a)} - {F[a][1].format(s=s(a))})*{J}"]
                  for a in SHIFT},
        "sample_plan": PLAN,
    }


def three_charts_mutated():
    # g_U1,U3 rotated by a constant: only the triple cocycle fails
    doc = three_charts()
    doc["transitions"]["U1,U3"] = f"mexp((x1 - sin(x1) + 0.1)*{J})"
    return doc


SPHERE_GAMMA = [
    [["0", "0"],
     ["0", "cos(x1)/sin(x1)"]],
    [["0", "-sin(x1)*cos(x1)"],
     ["cos(x1)/sin(x1)", "0"]],
]


def sphere_frame():
    doc = sphere_charts()
    coeffs = [
        "[[0,0],[0,cos(x1)/sin(x1)]]",
        "[[0,-sin(x1)*cos(x1)],[cos(x1)/sin(x1),0]]",
    ]
    doc.update({
        "group": {"name": "GL(2)", "n": 2},
        "transitions": {"U_N,U_S": "[[-1,0],[0,1]]",
                        "U_S,U_N": "[[-1,0],[0,1]]"},
        "forms": {"U_N": list(coeffs), "U_S": list(coeffs)},
        "sample_plan": PLAN,
    })
    return doc


def sphere_frame_mutated():
    doc = sphere_frame()
    doc["forms"]["U_N"][0] = "[[0,0],[0.1,cos(x1)/sin(x1)]]"
    return doc


def sphere_levi_civita():
    doc = sphere_charts()
    doc.update({
        "fiber_dim": 2,
        "gamma": {"U_N": SPHERE_GAMMA, "U_S": SPHERE_GAMMA},
        "transitions": {"U_N,U_S": "[[-1,0],[0,1]]",
                        "U_S,U_N": "[[-1,0],[0,1]]"},
        "sample_plan": PLAN,
    })
    return doc


def sphere_levi_civita_mutated():
    doc = sphere_levi_civita()
    gamma = json.loads(json.dumps(SPHERE_GAMMA))
    gamma[1][0][1] = "-sin(x1)*cos(x1)+0.1"
    doc["gamma"]["U_N"] = gamma
    return doc


def nilpotent(n):
    """(n x n) superdiagonal matrix as an expression string."""
    rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    return json.dumps(rows, separators=(",", ","))


def truncation(j, i):
    """Leading-principal-block morphism UT(j+1) -> UT(i+1) as A*g*A^T."""
    a = [[1 if c == r else 0 for c in range(j + 1)] for r in range(i + 1)]
    a_text = json.dumps(a, separators=(",", ","))
    return f"{a_text} * g * transpose({a_text})"


def strictly_upper_basis(n):
    basis = []
    for r in range(n):
        for c in range(r + 1, n):
            mat = [[0] * n for _ in range(n)]
            mat[r][c] = 1
            basis.append(mat)
    return basis


def tower(depth=4):
    doc = line_charts()
    levels = []
    for i in range(1, depth + 1):
        n = i + 1
        nil = nilpotent(n)
        levels.append({
            "group": {"name": f"UT({n})", "n": n,
                      "generators": strictly_upper_basis(n)},
            "transitions": {"U1,U2": f"mexp(x1*{nil})",
                            "U2,U1": f"mexp(-x1*{nil})"},
            "forms": {"U1": [f"sin(x1)*{nil}"],
                      "U2": [f"(sin(x1)+1)*{nil}"]},
        })
    connectors = {f"{j},{i}": {"phi": truncation(j, i)}
                  for j in range(2, depth + 1) for i in range(1, j)}
    doc.update({
        "levels": levels,
        "connectors": connectors,
        "sample_plan": {"grid": 10, "random": 20, "seed": 42},
    })
    return doc


def tower_mutated():
    doc = tower()
    doc["levels"][0]["forms"]["U1"] = [f"(sin(x1)+0.25)*{nilpotent(2)}"]
    return doc


def paths():
    write("path_flat.json", {
        "segments": [{"chart": "U1", "curve": ["0.5 + t"],
                      "t_range": [0.0, 1.0]}],
    })
    write("path_abelian.json", {
        "segments": [{"chart": "U1", "curve": ["0.2 + 1.5*t"],
                      "t_range": [0.0, 1.0]}],
    })
    write("path_abelian_two_charts.json", {
        "segments": [
            {"chart": "U1", "curve": ["0.2 + 1.3*t"], "t_range": [0.0, 1.0]},
            {"chart": "U2", "curve": ["1.5 + 0.5*t"], "t_range": [0.0, 1.0]},
        ],
    })
    write("path_monopole_equator.json", {
        "segments": [{"chart": "U_N",
                      "curve": [f"{PI}/2", f"2*{PI}*t"],
                      "t_range": [0.0, 1.0]}],
    })


def morphisms():
    write("morphism_identity.json", {
        "source_n": 2, "target_n": 2, "target_group_name": "SO(2)",
        "phi": "g",
    })
    write("morphism_squaring.json", {
        "source_n": 2, "target_n": 2, "target_group_name": "SO(2)",
        "phi": "g*g",
        "target_transitions": {
            "U_N,U_S": f"mexp(-2*k*x2*{J})",
            "U_S,U_N": f"mexp(2*k*x2*{J})",
        },
    })
    # phi = id with a declared gauge h_a = mexp(c_a*x2*J), c_N != c_S; the
    # target transitions are h_a(x) . g_ab(x) . h_b(psi(x))^-1, which the
    # morphism cocycle condition asks for (psi leaves x2 as it is)
    h_n, h_s = f"mexp(0.5*x2*{J})", f"mexp(-0.25*x2*{J})"
    write("morphism_gauge.json", {
        "source_n": 2, "target_n": 2, "target_group_name": "SO(2)",
        "phi": "g",
        "h": {"U_N": h_n, "U_S": h_s},
        "target_transitions": {
            "U_N,U_S": f"{h_n} * mexp(-k*x2*{J}) * mexp(0.25*x2*{J})",
            "U_S,U_N": f"{h_s} * mexp(k*x2*{J}) * mexp(-0.5*x2*{J})",
        },
    })


def main():
    os.makedirs(OUT, exist_ok=True)
    write("flat.json", flat())
    mutated = flat()
    mutated["forms"]["U2"] = ["[[0,-0.05],[0.05,0]]"]
    write("flat_mutated.json", mutated)
    write("abelian.json", abelian())
    mutated = abelian()
    mutated["forms"]["U2"] = [f"(sin(x1)+1.1)*{J}"]
    write("abelian_mutated.json", mutated)
    for charge in (1, 2, 3):
        write(f"monopole_k{charge}.json", monopole(charge))
    write("monopole_k1_mutated.json", monopole_mutated())
    write("sphere_frame.json", sphere_frame())
    write("sphere_frame_mutated.json", sphere_frame_mutated())
    write("sphere_levi_civita.json", sphere_levi_civita())
    write("sphere_levi_civita_mutated.json", sphere_levi_civita_mutated())
    write("three_charts.json", three_charts())
    write("three_charts_mutated.json", three_charts_mutated())
    write("tower_unipotent.json", tower())
    write("tower_unipotent_mutated.json", tower_mutated())
    paths()
    morphisms()


if __name__ == "__main__":
    main()
