"""Built-in invariant suites runnable from the command line.

Each check is a pure function returning a failure message list; the
runner reports one line per suite and an overall verdict.  The random
suites use a fixed seed, so the output is identical across runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .census import enumerate_triangles, grid_points, run_census
from .classify import analyze, classify_triangle
from .difftype import chern_mod3_at_vertex
from .kaehler import atiyah_cross_check, fixpoint_images, is_kaehlerizable
from .lattice import (
    RationalPoint,
    Weight,
    coroot_pairing,
    cross,
    is_lattice_basis,
    primitive_ray,
    weyl_reflect,
)
from .polygon import convex_hull

_SEED = 20240813
_RANDOM_COUNT = 2000


def _random_rationals(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(n)]


def check_lattice_invariants() -> list[str]:
    """Involution, pairing antisymmetry and primitivity on random input."""
    rng = random.Random(_SEED)
    failures = []
    for _ in range(_RANDOM_COUNT):
        x, y, u, v = _random_rationals(rng, 4)
        p = RationalPoint(x, y)
        q = RationalPoint(u, v)
        if weyl_reflect(weyl_reflect(p)) != p:
            failures.append(f"reflection is not an involution at {p}")
        if coroot_pairing(weyl_reflect(p)) != -coroot_pairing(p):
            failures.append(f"pairing not antisymmetric under reflection at {p}")
        if cross(p, q) != -cross(q, p):
            failures.append(f"cross product not antisymmetric at {p}, {q}")
        if p.x or p.y:
            ray = primitive_ray(p)
            if primitive_ray(ray) != ray:
                failures.append(f"primitive_ray not idempotent at {p}")
            if cross(ray, p) != 0 or (ray.a * p.x + ray.b * p.y) <= 0:
                failures.append(f"primitive_ray changed direction at {p}")
        w1 = Weight(rng.randint(-9, 9), rng.randint(-9, 9))
        w2 = Weight(rng.randint(-9, 9), rng.randint(-9, 9))
        if is_lattice_basis(w1, w2) != is_lattice_basis(w2, w1):
            failures.append(f"basis test not symmetric at {w1}, {w2}")
    return failures


def check_polygon_invariants() -> list[str]:
    """Hull idempotence, vertex membership and reflection symmetry."""
    rng = random.Random(_SEED + 1)
    failures = []
    for _ in range(_RANDOM_COUNT // 4):
        pts = [
            RationalPoint(x, y)
            for x, y in zip(_random_rationals(rng, 6), _random_rationals(rng, 6))
        ]
        hull = convex_hull(pts)
        if convex_hull(hull.vertices).vertices != hull.vertices:
            failures.append(f"hull not idempotent on {pts}")
        if not all(hull.contains(p) for p in pts):
            failures.append(f"hull misses an input point of {pts}")
        if sorted(hull.reflected().reflected().vertices) != sorted(hull.vertices):
            failures.append(f"double reflection changed {pts}")
        tp = hull.t_polytope()
        if sorted(tp.reflected().vertices) != sorted(tp.vertices):
            failures.append(f"T-polytope not reflection-symmetric for {pts}")
    return failures


def check_triangle_sweep() -> list[str]:
    """Every small valid triangle round-trips through its family and is
    Kählerizable; the mod-3 residue is vertex-independent."""
    failures = []
    points = grid_points(3)
    for _, ccw in enumerate_triangles(points):
        hull = convex_hull([points[k] for k in ccw])
        analysis = analyze(hull)
        if not analysis.report.valid:
            continue
        fam = classify_triangle(analysis)
        rebuilt = fam.triangle()
        if rebuilt.vertices != hull.vertices:
            failures.append(f"family {fam} does not reconstruct {hull.vertices}")
        verdict, _ = is_kaehlerizable(analysis)
        if not verdict:
            failures.append(f"valid triangle {hull.vertices} reported non-Kähler")
        if sum(va.on_wall for va in analysis.report.vertex_data) == 1:
            if not atiyah_cross_check(analysis):
                failures.append(f"criteria disagree on {hull.vertices}")
        if fam.diffeo is None:
            residues = {chern_mod3_at_vertex(analysis, v) for v in hull.vertices}
            if len(residues) != 1:
                failures.append(f"mod-3 residue depends on the vertex for {hull.vertices}")
        images = fixpoint_images(analysis)
        tp = hull.t_polytope()
        if sorted(convex_hull(list(images)).vertices) != sorted(tp.vertices):
            failures.append(f"fixpoint hull differs from T-polytope for {hull.vertices}")
    return failures


def check_census_determinism() -> list[str]:
    """Two census runs give identical totals."""
    base = run_census(2, shape="triangles").as_dict()
    if run_census(2, shape="triangles").as_dict() != base:
        return ["census is not reproducible"]
    return []


def run_selftest() -> tuple[bool, list[str]]:
    """Run every suite."""
    suites = [
        ("lattice-invariants", check_lattice_invariants),
        ("polygon-invariants", check_polygon_invariants),
        ("triangle-sweep", check_triangle_sweep),
        ("census-determinism", check_census_determinism),
    ]
    lines = []
    ok = True
    for name, fn in suites:
        failures = fn()
        if failures:
            ok = False
            lines.append(f"FAIL {name}: {failures[0]} ({len(failures)} failure(s))")
        else:
            lines.append(f"PASS {name}")
    lines.append("selftest: " + ("all suites passed" if ok else "failures detected"))
    return ok, lines
