"""Workloads of the coxring benchmark: seeded inputs and output oracles.

A workload is a fixed list of CLI invocations.  The seed changes input
coordinates only: the finite special points of each curve, and a unimodular
change of lattice coordinates for each fan.  Multiplicity profiles, fan
shapes and box radii are fixed, so every seed asks for the same work and
every report has the same seed-independent signature, stored below in
SIGNATURES.

Run ``python3 perfbench/workloads.py`` (with ``src`` on PYTHONPATH) to
recompute SIGNATURES from the canonical inputs: points 0, 1, inf and
untransformed fans.
"""

import itertools
import json
import os
import random
import tempfile
from collections import Counter
from fractions import Fraction

CURVE_PROFILES = {"c222": (2, 2, 2), "c32": (3, 2)}
CANONICAL_POINTS = {3: ("0", "1", "inf"), 2: ("0", "inf")}

# (mode, input name, flags); every invocation is expected to exit with 0
WORKLOADS = {
    "curve-present": (
        ("curve", "c222", ("--box", "2")),
        ("curve", "c32", ("--box", "2")),
    ),
    "curve-verify": (
        ("verify", "c222", ("--box", "1", "--power-bound", "8")),
    ),
    "curve-crosscheck": (
        ("crosscheck", "c222", ("--box", "2")),
        ("crosscheck", "c32", ("--box", "2")),
    ),
    "toric-present": (
        ("toric", "p1x4", ("--box", "2")),
        ("toric", "p1x3", ("--box", "3")),
        ("toric", "p2x2", ("--box", "3")),
    ),
}

# Largest absolute rational numerator and denominator of a drawn point.
POINT_NUMERATOR = 6
POINT_DENOMINATOR = 3


def _projective_line_power(n):
    rays, cones = [], []
    for i in range(n):
        rays.append([int(j == i) for j in range(n)])
        rays.append([-int(j == i) for j in range(n)])
    for choice in itertools.product((0, 1), repeat=n):
        cones.append([2 * i + c for i, c in enumerate(choice)])
    return {"rank": n, "rays": rays, "max_cones": cones}


def _plane_squared():
    plane = [[1, 0], [0, 1], [-1, -1]]
    rays = [r + [0, 0] for r in plane] + [[0, 0] + r for r in plane]
    cones = [[a, b, c + 3, d + 3]
             for a, b in ((0, 1), (1, 2), (0, 2))
             for c, d in ((0, 1), (1, 2), (0, 2))]
    return {"rank": 4, "rays": rays, "max_cones": cones}


FANS = {
    "p1x4": _projective_line_power(4),
    "p1x3": _projective_line_power(3),
    "p2x2": _plane_squared(),
}


def _determinant(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def unimodular_transform(rng, n):
    """A seeded signed permutation times a fixed unitriangular shear.

    Only the signed permutation depends on the seed.  It leaves the work
    unchanged: over six seeds the Python call count of every fan varied by
    less than 0.02%.  The shear does not: a seeded choice of its one +-1
    entry moved the call count of P2xP2 between 523k and 749k and the time
    of P1xP1xP1xP1 between 1.6 and 2.6 s, and denser shears multiply
    Fourier-Motzkin work by up to two orders of magnitude (see NOTES.md).
    So the shear is the same on every seed, which keeps runs on different
    seeds comparable.
    """
    shear = [[int(i == j) + int((i, j) == (0, 1)) for j in range(n)]
             for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    g = [[signs[i] * shear[perm[i]][j] for j in range(n)] for i in range(n)]
    if abs(_determinant(g)) != 1:
        raise AssertionError("drawn lattice transform is not unimodular")
    return g


def transformed_fan(fan, g):
    rays = [[sum(g[i][j] * r[j] for j in range(len(r)))
             for i in range(len(r))] for r in fan["rays"]]
    return {"rank": fan["rank"], "rays": rays, "max_cones": fan["max_cones"]}


def draw_points(rng, count):
    """Distinct finite rationals of small height, then infinity.

    Infinity always comes last, as in the canonical inputs: its position
    changes the work (at box 2, crosscheck divides polynomials 3056 times
    with infinity first, 4228 times with it last, 4338 times without it),
    and every seed must ask for the same work.
    """
    pool = sorted({Fraction(p, q)
                   for p in range(-POINT_NUMERATOR, POINT_NUMERATOR + 1)
                   for q in range(1, POINT_DENOMINATOR + 1)})
    return [str(x) for x in rng.sample(pool, count - 1)] + ["inf"]


def curve_json(profile, points):
    return {"special": [{"point": p, "multiplicity": m}
                        for p, m in zip(points, profile)]}


def input_data(name, rng):
    """Input document for one input name; rng None gives the canonical one."""
    if name in CURVE_PROFILES:
        profile = CURVE_PROFILES[name]
        points = (CANONICAL_POINTS[len(profile)] if rng is None
                  else draw_points(rng, len(profile)))
        return curve_json(profile, points)
    fan = FANS[name]
    if rng is None:
        return fan
    return transformed_fan(fan, unimodular_transform(rng, fan["rank"]))


def write_inputs(workload, seed, directory):
    """Write the workload's input files for this seed; return the list of
    (label, CLI arguments) pairs, in invocation order."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random("%s/%d" % (workload, seed))
    paths = {}
    invocations = []
    for mode, name, flags in WORKLOADS[workload]:
        if name not in paths:
            paths[name] = os.path.join(directory, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as handle:
                json.dump(input_data(name, rng), handle)
        invocations.append((label(mode, name, flags),
                            [mode, *flags, paths[name]]))
    return invocations


def label(mode, name, flags):
    return " ".join((mode, name) + tuple(flags))


# ---------------------------------------------------------------------------
# signatures: the parts of a report that do not depend on the coordinates


def _rows(counter):
    return sorted([*key, n] for key, n in counter.items())


def signature(report):
    mode = report.get("mode")
    if mode == "curve":
        P = report["presentation"]
        return {
            "picard": report["picard"],
            "lattice_rank": report["lattice_rank"],
            "generators": len(P["generators"]),
            "relations": len(P["relations"]),
            "certificate_rows": _rows(Counter(
                (e["monomials"], e["dim"], e["kernel"], e["ideal_span"])
                for e in P["certificate"])),
        }
    if mode == "toric":
        P = report["presentation"]
        return {
            "class_group": report["class_group"],
            "generators": len(P["generators"]),
            "relations": len(P["relations"]),
            "irrelevant_monomials": len(report["irrelevant_monomials"]),
            "monomial_counts": _rows(Counter(
                (e["monomials"],) for e in P["certificate"])),
        }
    if mode == "verify":
        return {
            "verdicts": {name: check["verdict"]
                         for name, check in report["checks"].items()},
            "findings": report["findings"],
            "all_passed": report["all_passed"],
        }
    if mode == "crosscheck":
        return {"result": report["result"], "agreed": report["agreed"]}
    raise ValueError("report of unknown mode %r" % (mode,))


SIGNATURES = {
    'crosscheck c222 --box 2': {
        'agreed': True,
        'result': {'classes': 625,
                   'hilbert_equal': True,
                   'iso_verified': True,
                   'witness_multiplicative': True},
    },
    'crosscheck c32 --box 2': {
        'agreed': True,
        'result': {'classes': 625,
                   'hilbert_equal': True,
                   'iso_verified': True,
                   'witness_multiplicative': True},
    },
    'curve c222 --box 2': {
        'certificate_rows': [[0, 0, 0, 0, 513], [1, 1, 0, 0, 70],
                             [3, 2, 1, 1, 33], [6, 3, 3, 3, 9]],
        'generators': 6,
        'lattice_rank': 4,
        'picard': {'invariant_factors': [], 'rank': 4},
        'relations': 1,
    },
    'curve c32 --box 2': {
        'certificate_rows': [[0, 0, 0, 0, 535], [1, 1, 0, 0, 65],
                             [2, 2, 0, 0, 22], [3, 3, 0, 0, 3]],
        'generators': 5,
        'lattice_rank': 4,
        'picard': {'invariant_factors': [], 'rank': 4},
        'relations': 0,
    },
    'toric p1x3 --box 3': {
        'class_group': {'invariant_factors': [], 'rank': 3},
        'generators': 6,
        'irrelevant_monomials': 8,
        'monomial_counts': [[0, 279], [1, 1], [2, 3], [3, 3], [4, 6], [6, 6],
                            [8, 7], [9, 3], [12, 9], [16, 6], [18, 3], [24, 6],
                            [27, 1], [32, 3], [36, 3], [48, 3], [64, 1]],
        'relations': 0,
    },
    'toric p1x4 --box 2': {
        'class_group': {'invariant_factors': [], 'rank': 4},
        'generators': 8,
        'irrelevant_monomials': 16,
        'monomial_counts': [[0, 544], [1, 1], [2, 4], [3, 4], [4, 6], [6, 12],
                            [8, 4], [9, 6], [12, 12], [16, 1], [18, 12],
                            [24, 4], [27, 4], [36, 6], [54, 4], [81, 1]],
        'relations': 0,
    },
    'toric p2x2 --box 3': {
        'class_group': {'invariant_factors': [], 'rank': 2},
        'generators': 6,
        'irrelevant_monomials': 9,
        'monomial_counts': [[0, 33], [1, 1], [3, 2], [6, 2], [9, 1], [10, 2],
                            [18, 2], [30, 2], [36, 1], [60, 2], [100, 1]],
        'relations': 0,
    },
    'verify c222 --box 1 --power-bound 8': {
        'all_passed': True,
        'findings': {'inconclusive': [], 'not_separated': True},
        'verdicts': {'freely_graded': 'pass',
                     'pointed': 'pass',
                     'separatedness': 'not_separated',
                     'weight_monoid': 'pass'},
    },
}


def canonical_signatures():
    """Signatures of every invocation on the canonical inputs, in process."""
    from coxring import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for invocations in WORKLOADS.values():
            for mode, name, flags in invocations:
                path = os.path.join(tmp, name + ".json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(input_data(name, None), handle)
                report, _ = cli.run(mode, path, **_run_options(flags))
                out[label(mode, name, flags)] = signature(
                    json.loads(cli.render(report, "json")))
    return out


def _run_options(flags):
    names = {"--box": "box_radius", "--power-bound": "power_bound"}
    return {names[flag]: int(value)
            for flag, value in zip(flags[::2], flags[1::2])}


if __name__ == "__main__":
    print(json.dumps(canonical_signatures(), indent=1, sort_keys=True))
