from collections import Counter
from fractions import Fraction

import pytest

from mompoly.classify import (
    DelzantFamily,
    HalfReflMinusFamily,
    HalfReflPlusFamily,
    ReflectionFamily,
    WallEdgeFamily,
    analyze,
    classify_triangle,
    manifold_model,
)
from mompoly.census import enumerate_triangles, grid_points
from mompoly.difftype import (
    DiffType,
    chern_mod3_at_vertex,
    diffeo_type,
)
from mompoly.errors import GeometryError, UnsupportedPolytopeError
from mompoly.lattice import RationalPoint
from mompoly.polygon import convex_hull

from oracle import line_bundle_chern, transform


def P(*coords):
    return convex_hull([RationalPoint.of(x, y) for x, y in coords])


def test_line_bundle_chern():
    assert line_bundle_chern(3, 3) == 0
    assert line_bundle_chern(1, 0) == 1
    assert line_bundle_chern(0, -4) == 4


def test_diff_type_agrees_with_fiber_weights():
    # A second route to the bundle type: the Chern numbers of the fiber
    # weights of the family's manifold model, summed mod 3, against the
    # residue of the rays at a vertex of the triangle.
    tags = Counter()
    points = grid_points(4)
    for indices, _ in enumerate_triangles(points):
        analysis = analyze(convex_hull([points[k] for k in indices]))
        if not analysis.report.valid or analysis.family.diffeo is not None:
            continue
        fam = analysis.family
        residue = sum(line_bundle_chern(w.a, w.b) for w in manifold_model(fam).total_space.weights)
        expected = (DiffType.TRIVIAL_P2_BUNDLE if residue % 3 == 0
                    else DiffType.NONTRIVIAL_P2_BUNDLE)
        assert diffeo_type(fam, analysis) == expected, analysis.polygon.vertices
        tags[fam.tag] += 1
    assert tags == {"delzant": 874, "half_refl_plus": 31, "half_refl_minus": 31}


def test_chern_mod3_examples():
    tri_j3 = HalfReflPlusFamily(Fraction(0), Fraction(1), 3).triangle()
    assert chern_mod3_at_vertex(tri_j3, RationalPoint.of(0, 0)) == 0
    tri_j1 = HalfReflPlusFamily(Fraction(0), Fraction(1), 1).triangle()
    assert chern_mod3_at_vertex(tri_j1, RationalPoint.of(0, 0)) == 2
    tri_delzant = DelzantFamily(Fraction(1), Fraction(0), Fraction(1), 1, 0, -1, 1).triangle()
    assert chern_mod3_at_vertex(tri_delzant, tri_delzant.vertices[0]) == 1


def test_chern_mod3_vertex_independence():
    for fam in [
        DelzantFamily(Fraction(1), Fraction(0), Fraction(2), 1, 0, -1, 1),
        HalfReflPlusFamily(Fraction(-1), Fraction(1), 2),
        HalfReflMinusFamily(Fraction(0), Fraction(1), 4),
    ]:
        tri = fam.triangle()
        residues = {chern_mod3_at_vertex(tri, v) for v in tri.vertices}
        assert len(residues) == 1


def test_chern_mod3_guards():
    wall_edge = WallEdgeFamily(Fraction(0), Fraction(1), 2, 1).triangle()
    with pytest.raises(UnsupportedPolytopeError):
        chern_mod3_at_vertex(wall_edge, wall_edge.vertices[0])
    refl = ReflectionFamily(Fraction(0), Fraction(1)).triangle()
    with pytest.raises(UnsupportedPolytopeError):
        chern_mod3_at_vertex(refl, refl.vertices[0])
    half_refl = P((0, 0), (1, -1), (4, -3))
    with pytest.raises(GeometryError, match="is not a vertex"):
        chern_mod3_at_vertex(half_refl, RationalPoint.of(1, -2))


def test_diffeo_types():
    wall_edge = WallEdgeFamily(Fraction(0), Fraction(1), 2, 1).triangle()
    assert diffeo_type(classify_triangle(wall_edge), wall_edge) == DiffType.PROJECTIVE_SPACE_4

    refl = P((0, 0), (1, 0), (0, -1))
    assert diffeo_type(classify_triangle(refl), refl) == DiffType.ORIENTED_GRASSMANNIAN

    tri_j3 = HalfReflPlusFamily(Fraction(0), Fraction(1), 3).triangle()
    assert diffeo_type(classify_triangle(tri_j3), tri_j3) == DiffType.TRIVIAL_P2_BUNDLE
    tri_j1 = HalfReflPlusFamily(Fraction(0), Fraction(1), 1).triangle()
    assert diffeo_type(classify_triangle(tri_j1), tri_j1) == DiffType.NONTRIVIAL_P2_BUNDLE


def test_diffeo_type_mismatch():
    refl = P((0, 0), (1, 0), (0, -1))
    with pytest.raises(GeometryError):
        diffeo_type(WallEdgeFamily(Fraction(0), Fraction(1), 2, 1), refl)


def test_scale_invariance():
    tri = HalfReflPlusFamily(Fraction(0), Fraction(1), 1).triangle()
    moved = transform(tri, 3, Fraction(5, 2))
    assert diffeo_type(classify_triangle(moved), moved) == diffeo_type(
        classify_triangle(tri), tri
    )
