"""Acceptance suite: one test (and one pass/fail line under pytest -v)
per criterion.

Fixtures are exact; no tolerances anywhere.  Criterion 6 compares the
classifier against the independent brute-force oracle in oracle.py.
"""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from mompoly.census import enumerate_triangles, grid_points
from mompoly.classify import (
    DelzantFamily,
    HalfReflMinusFamily,
    HalfReflPlusFamily,
    ReflectionFamily,
    WallEdgeFamily,
    check_momentum_polytope,
    classify_triangle,
)
from mompoly.cli import main
from mompoly.difftype import DiffType, chern_mod3_at_vertex, diffeo_type
from mompoly.errors import GeometryError
from mompoly.kaehler import (
    atiyah_cross_check,
    fixpoint_boundary_check,
    fixpoint_images,
    is_kaehlerizable,
)
from mompoly.lattice import (
    RationalPoint,
    Weight,
    coroot_pairing,
    cross,
    is_lattice_basis,
    primitive_ray,
    weyl_reflect,
)
from mompoly.polygon import convex_hull

from oracle import inward_primitive_normal, oracle_is_valid


def P(*coords):
    return convex_hull([RationalPoint.of(x, y) for x, y in coords])


def pt(x, y):
    return RationalPoint.of(x, y)


def _report(name, ok=True):
    print(f"CRITERION {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_woodward_obstruction():
    """Both Woodward trapezoids are valid momentum polytopes but not
    Kählerizable, each with a witness positive edge missing the origin."""
    origin = pt(0, 0)
    for coords in (
        [(0, 0), (1, 0), (0, -1), (3, -1)],
        [(0, 0), (1, 0), (1, -1), (3, -1)],
    ):
        polygon = P(*coords)
        assert check_momentum_polytope(polygon).valid
        verdict, witness = is_kaehlerizable(polygon)
        assert verdict is False
        assert witness is not None
        a, b = inward_primitive_normal(polygon, witness)
        assert a - b > 0  # the coroot pairing of the inward normal
        # The origin is a vertex, so it lies on the edge only as an end.
        assert origin not in witness
    _report("1 (Woodward obstruction)")


def test_criterion_2_figure_regression():
    """Figure fixtures: left polytopes satisfy both criteria, right ones
    neither; the two criteria agree on all four."""
    refl_left = P((2, 2), (5, 2), (5, 1), (2, 1))
    refl_right = P((2, 2), (3, 2), (5, 1), (2, 1))
    half_left = P((2, 2), (5, 2), (5, 0), (4, 0))
    half_right = P((2, 2), (3, 2), (5, 1), (3, 1))

    for polygon in (refl_left, half_left):
        assert fixpoint_boundary_check(polygon) is True
        assert is_kaehlerizable(polygon) == (True, None)
    for polygon in (refl_right, half_right):
        assert fixpoint_boundary_check(polygon) is False
        verdict, witness = is_kaehlerizable(polygon)
        assert verdict is False and witness is not None
    for polygon in (refl_left, refl_right, half_left, half_right):
        assert atiyah_cross_check(polygon) is True
    _report("2 (figure regression)")


def _sweep_families():
    s_values = [Fraction(-1), Fraction(0), Fraction(1)]
    t_values = [Fraction(1), Fraction(2)]
    for s, t in itertools.product(s_values, t_values):
        for k, l in itertools.product(range(-3, 4), (1, -1)):
            yield WallEdgeFamily(s, t, k, l)
        for j in range(5):
            yield HalfReflPlusFamily(s, t, j)
            yield HalfReflMinusFamily(s, t, j)
        yield ReflectionFamily(s, t)
        for r in (Fraction(1), Fraction(2)):
            for a1, b1, a2, b2 in itertools.product(range(-3, 4), repeat=4):
                if a1 * b2 - a2 * b1 == 1 and a1 + b1 >= 0 and a2 + b2 >= 0:
                    yield DelzantFamily(r, s, t, a1, b1, a2, b2)


def test_criterion_3_triangle_realization_sweep():
    """Every family instance yields a valid triangle that classifies back to
    an equivalent canonical parameter set and is Kählerizable."""
    count = 0
    for fam in _sweep_families():
        tri = fam.triangle()
        assert check_momentum_polytope(tri).valid, fam
        back = classify_triangle(tri)
        # Round-trip: the recognized parameters rebuild the same triangle,
        # and canonical inputs reproduce their parameters exactly.
        assert back.triangle().vertices == tri.vertices, fam
        if isinstance(fam, WallEdgeFamily):
            expected = (
                fam
                if fam.l == 1
                else WallEdgeFamily(fam.s - fam.t, fam.t, fam.k + 1, 1)
            )
            assert back == expected, fam
        elif isinstance(fam, DelzantFamily):
            assert isinstance(back, DelzantFamily)
            if fam.a1 + fam.b1 > 0 and fam.a2 + fam.b2 > 0:
                assert back == fam, fam
        else:
            assert back == fam, fam
        assert is_kaehlerizable(tri) == (True, None), fam
        count += 1
    assert count == 570  # exhaustive parameter sweep size
    _report("3 (triangle realization sweep)")


def test_criterion_4_fixpoint_fixtures():
    """Exact fixpoint multisets for the three reference triangles."""
    for j in range(5):
        tri = HalfReflPlusFamily(Fraction(-1), Fraction(1), j).triangle()
        assert tri.vertices == P((-1, -1), (0, -2), (j, -j - 1)).vertices
        assert fixpoint_images(tri) == Counter(
            {
                pt(-1, -1): 2,
                pt(0, -2): 1,
                pt(-2, 0): 1,
                pt(j, -j - 1): 1,
                pt(-j - 1, j): 1,
            }
        )

    refl = P((0, 0), (1, 0), (0, -1))
    assert fixpoint_images(refl) == Counter(
        {pt(1, 0): 1, pt(0, 1): 1, pt(0, -1): 1, pt(-1, 0): 1}
    )
    assert set(refl.t_polytope().vertices) == {pt(1, 0), pt(0, 1), pt(0, -1), pt(-1, 0)}

    wall_edge = WallEdgeFamily(Fraction(0), Fraction(1), 2, 1).triangle()
    assert fixpoint_images(wall_edge) == Counter(
        {pt(3, 2): 1, pt(2, 3): 1, pt(1, 1): 1, pt(0, 0): 1}
    )
    _report("4 (fixpoint fixtures)")


def test_criterion_5_diffeomorphism_typing():
    """Wall-edge triangles are P(C^4), the reflection triangle the oriented
    Grassmannian; elsewhere the mod-3 rule decides, vertex-independently."""
    for fam in _sweep_families():
        tri = fam.triangle()
        dt = diffeo_type(classify_triangle(tri), tri)
        if isinstance(fam, WallEdgeFamily):
            assert dt == DiffType.PROJECTIVE_SPACE_4
        elif isinstance(fam, ReflectionFamily):
            assert dt == DiffType.ORIENTED_GRASSMANNIAN
        else:
            residues = {chern_mod3_at_vertex(tri, v) for v in tri.vertices}
            assert len(residues) == 1, fam
            expected = (
                DiffType.TRIVIAL_P2_BUNDLE
                if residues == {0}
                else DiffType.NONTRIVIAL_P2_BUNDLE
            )
            assert dt == expected, fam
    _report("5 (diffeomorphism typing)")


def test_criterion_6_oracle_census(tmp_path, capsys):
    """Classifier vs independent oracle on every integral triangle in
    [-4, 4]^2 of the chamber; census byte-identical for `--threads 1`
    and `--threads 8`."""
    points = grid_points(4)
    disagreements = 0
    for indices, _ in enumerate_triangles(points):
        triple = [points[k] for k in indices]
        hull = convex_hull(triple)
        verdict = check_momentum_polytope(hull).valid
        expected = oracle_is_valid([(p.x, p.y) for p in triple])
        if verdict != expected:
            disagreements += 1
        if verdict:
            classify_triangle(hull)  # must succeed on every valid triangle
        else:
            with pytest.raises(GeometryError):
                classify_triangle(hull)
    assert disagreements == 0

    out = []
    for threads in ("1", "8"):
        stream = tmp_path / f"items{threads}.jsonl"
        assert main(["enumerate", "--max-coord", "4", "--threads", threads,
                     "--output", str(stream)]) == 0
        out.append((capsys.readouterr().out, stream.read_bytes()))
    assert out[0] == out[1]
    assert json.loads(out[0][0])["total"] == sum(1 for _ in enumerate_triangles(points))
    _report("6 (oracle census)")


def test_criterion_7_delzant_triangle_lemma():
    """For lattice-basis pairs with coordinates in [-10, 10], both mixed
    pairs are bases exactly when the primitive third direction equals the
    difference of the first two."""
    coords = range(-10, 11)
    vectors = [Weight(a, b) for a in coords for b in coords if (a, b) != (0, 0)]
    exceptions = 0
    checked = 0
    for r1, r2 in itertools.product(vectors, repeat=2):
        if r1 == r2 or not is_lattice_basis(r1, r2):
            continue
        r3 = primitive_ray(r2 - r1)
        both = is_lattice_basis(r1, r3) and is_lattice_basis(r2, r3)
        if both != (r3 == r2 - r1):
            exceptions += 1
        checked += 1
    assert checked == 2024  # all lattice-basis pairs in the box
    assert exceptions == 0
    _report("7 (Delzant triangle lemma)")


def test_criterion_8_invariant_suites(capsys):
    """10,000 seeded random inputs through the core invariants, and the
    built-in selftest exits 0."""
    rng = random.Random(421331)

    def rand_fraction():
        return Fraction(rng.randint(-100, 100), rng.randint(1, 16))

    for _ in range(10000):
        p = RationalPoint(rand_fraction(), rand_fraction())
        q = RationalPoint(rand_fraction(), rand_fraction())
        assert weyl_reflect(weyl_reflect(p)) == p
        assert coroot_pairing(weyl_reflect(p)) == -coroot_pairing(p)
        assert cross(p, q) == -cross(q, p)
        if p.x or p.y:
            ray = primitive_ray(p)
            assert primitive_ray(ray) == ray
            assert cross(ray, p) == 0

    for _ in range(1500):
        pts = [
            RationalPoint(rand_fraction(), rand_fraction())
            for _ in range(rng.randint(1, 8))
        ]
        hull = convex_hull(pts)
        assert convex_hull(hull.vertices).vertices == hull.vertices
        assert all(hull.contains(p) for p in pts)
        assert sorted(hull.reflected().reflected().vertices) == sorted(hull.vertices)
        tp = hull.t_polytope()
        assert sorted(tp.reflected().vertices) == sorted(tp.vertices)

    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all suites passed" in out
    _report("8 (invariant suites)")
