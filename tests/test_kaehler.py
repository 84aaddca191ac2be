import itertools
from collections import Counter
from fractions import Fraction

import pytest

import mompoly.report
from mompoly.classify import (
    HalfReflPlusFamily,
    ReflectionFamily,
    WallEdgeFamily,
    analyze,
    check_momentum_polytope,
)
from mompoly.errors import InvalidPolytopeError, UnsupportedPolytopeError
from mompoly.kaehler import (
    Stratum,
    atiyah_cross_check,
    build_xray,
    fixpoint_boundary_check,
    fixpoint_images,
    is_kaehlerizable,
    positive_edges,
)
from mompoly.lattice import RationalPoint, coroot_pairing, weyl_reflect
from mompoly.polygon import convex_hull
from mompoly.report import full_report, point_out

from test_acceptance import _sweep_families
from test_byte_identity import FIGURES, FIXTURES, rational_inputs


def P(*coords):
    return convex_hull([RationalPoint.of(x, y) for x, y in coords])


def pt(x, y):
    return RationalPoint.of(x, y)


WOODWARD = P((0, 0), (1, 0), (0, -1), (3, -1))
# Figure fixtures: quadrilaterals with one wall vertex (2,2).
FIG_REFL_LEFT = P((2, 2), (5, 2), (5, 1), (2, 1))
FIG_REFL_RIGHT = P((2, 2), (3, 2), (5, 1), (2, 1))
FIG_HALF_LEFT = P((2, 2), (5, 2), (5, 0), (4, 0))
FIG_HALF_RIGHT = P((2, 2), (3, 2), (5, 1), (3, 1))


class TestPositiveEdges:
    def test_woodward(self):
        edges = positive_edges(WOODWARD)
        segs = {frozenset((e.tail, e.head)) for e in edges}
        assert frozenset((pt(1, 0), pt(3, -1))) in segs

    def test_half_refl_triangle(self):
        edges = positive_edges(P((0, 0), (1, -1), (2, -1)))
        assert len(edges) == 1
        (e,) = edges
        assert {e.tail, e.head} == {pt(0, 0), pt(2, -1)}
        assert e.contains(pt(0, 0))

    def test_invalid_input(self):
        with pytest.raises(InvalidPolytopeError):
            positive_edges(P((1, 0), (3, 1), (2, -1)))


class TestIsKaehlerizable:
    def test_woodward_trapezoids(self):
        verdict, witness = is_kaehlerizable(WOODWARD)
        assert not verdict
        assert {witness.tail, witness.head} == {pt(1, 0), pt(3, -1)}
        verdict2, witness2 = is_kaehlerizable(P((0, 0), (1, 0), (1, -1), (3, -1)))
        assert not verdict2
        assert witness2 is not None

    def test_vacuous_without_single_wall_vertex(self):
        assert is_kaehlerizable(P((1, 0), (2, 0), (1, -1), (2, -1))) == (True, None)
        assert is_kaehlerizable(P((0, 0), (1, 1), (3, 2))) == (True, None)

    def test_valid_triangles_always_true(self):
        for fam in [
            WallEdgeFamily(Fraction(0), Fraction(1), 2, 1),
            HalfReflPlusFamily(Fraction(0), Fraction(1), 3),
            ReflectionFamily(Fraction(0), Fraction(2)),
        ]:
            assert is_kaehlerizable(fam.triangle()) == (True, None)


class TestFixpointImages:
    def test_reflection_triangle_square(self):
        images = fixpoint_images(P((0, 0), (1, 0), (0, -1)))
        assert images == Counter({pt(1, 0): 1, pt(0, 1): 1, pt(0, -1): 1, pt(-1, 0): 1})

    def test_half_refl_base_triangle(self):
        for j in range(5):
            tri = P((-1, -1), (0, -2), (j, -j - 1))
            images = fixpoint_images(tri)
            assert images == Counter(
                {
                    pt(-1, -1): 2,
                    pt(0, -2): 1,
                    pt(-2, 0): 1,
                    pt(j, -j - 1): 1,
                    pt(-j - 1, j): 1,
                }
            )

    def test_wall_edge_triangle(self):
        images = fixpoint_images(P((0, 0), (1, 1), (3, 2)))
        assert images == Counter({pt(0, 0): 1, pt(1, 1): 1, pt(3, 2): 1, pt(2, 3): 1})

    def test_reflection_stable_and_inside(self):
        points = [
            RationalPoint.of(i, j) for i in range(-3, 4) for j in range(-3, 4) if i >= j
        ]
        checked = 0
        for triple in itertools.combinations(points, 3):
            hull = convex_hull(triple)
            if len(hull) != 3 or not check_momentum_polytope(hull).valid:
                continue
            images = fixpoint_images(hull)
            assert Counter({weyl_reflect(p): m for p, m in images.items()}) == images
            tp = hull.t_polytope()
            assert all(tp.contains(p) for p in images)
            for v in hull.vertices:
                if coroot_pairing(v) > 0:
                    assert images[v] >= 1
            checked += 1
        assert checked > 100

    def test_returned_multisets_are_copies(self, monkeypatch):
        analysis = analyze(WOODWARD)
        # full_report analyses its input itself; hand it this Analysis.
        monkeypatch.setattr(mompoly.report, "analyze", lambda polygon: analysis)
        points = list(WOODWARD.vertices)
        doc = full_report(points)
        fixpoint_images(analysis)[pt(9, 9)] += 1
        build_xray(analysis).fixpoints.clear()
        assert fixpoint_images(analysis) == fixpoint_images(WOODWARD)
        assert build_xray(analysis) == build_xray(WOODWARD)
        assert full_report(points) == doc

    def test_report_lists_images_in_sorted_order(self):
        # The report orders the images on the integer form; the order is the
        # one of sorted RationalPoints, here across mixed denominators.
        inputs = [[pt(x, y) for x, y in c] for c in FIXTURES] + rational_inputs()
        checked = 0
        for points in inputs:
            analysis = analyze(convex_hull(points))
            if not analysis.report.valid:
                continue
            assert full_report(points)["fixpoint_images"] == [
                {"point": point_out(p), "multiplicity": m}
                for p, m in sorted(fixpoint_images(analysis).items())
            ]
            checked += 1
        assert checked == 60


class TestFixpointBoundaryCheck:
    def test_figure_fixtures(self):
        assert fixpoint_boundary_check(FIG_REFL_LEFT) is True
        assert fixpoint_boundary_check(FIG_REFL_RIGHT) is False
        assert fixpoint_boundary_check(FIG_HALF_LEFT) is True
        assert fixpoint_boundary_check(FIG_HALF_RIGHT) is False

    def test_agrees_with_boundary_contains(self):
        # The check tests int pairs on the polygon's grid; the reference
        # puts each image on a grid with the T-polytope's vertices.
        polygons = [P(*c) for c in FIXTURES + FIGURES]
        polygons += [convex_hull(points) for points in rational_inputs()]
        polygons += [fam.triangle() for fam in _sweep_families()]
        verdicts = Counter()
        for polygon in polygons:
            analysis = analyze(polygon)
            if not analysis.report.valid or len(analysis.wall_types) != 1:
                continue
            pt = polygon.t_polytope()
            expected = all(pt.boundary_contains(p) for p in fixpoint_images(analysis))
            assert fixpoint_boundary_check(analysis) == expected, polygon.vertices
            verdicts[expected] += 1
        assert verdicts == {True: 102, False: 16}

    def test_wall_count_guard(self):
        with pytest.raises(UnsupportedPolytopeError):
            fixpoint_boundary_check(P((1, 0), (2, 0), (1, -1), (2, -1)))
        with pytest.raises(UnsupportedPolytopeError):
            fixpoint_boundary_check(P((0, 0), (1, 1), (3, 2)))


class TestAtiyahCrossCheck:
    def test_figures(self):
        for polygon in (FIG_REFL_LEFT, FIG_REFL_RIGHT, FIG_HALF_LEFT, FIG_HALF_RIGHT):
            assert atiyah_cross_check(polygon)

    def test_small_sweep(self):
        points = [
            RationalPoint.of(i, j) for i in range(-3, 4) for j in range(-3, 4) if i >= j
        ]
        for triple in itertools.combinations(points, 3):
            hull = convex_hull(triple)
            if len(hull) != 3 or not check_momentum_polytope(hull).valid:
                continue
            if len(analyze(hull).wall_types) == 1:
                assert atiyah_cross_check(hull)


class TestBuildXray:
    def test_reflection_triangle(self):
        xray = build_xray(P((0, 0), (1, 0), (0, -1)))
        segments = {frozenset(s.segment) for s in xray.strata}
        assert segments == {
            frozenset((pt(1, 0), pt(0, 1))),
            frozenset((pt(0, -1), pt(-1, 0))),
            frozenset((pt(1, 0), pt(0, -1))),
            frozenset((pt(0, 1), pt(-1, 0))),
            frozenset((pt(0, -1), pt(0, 1))),
            frozenset((pt(1, 0), pt(-1, 0))),
        }
        assert all(s.dimension == 2 for s in xray.strata)

    def test_half_refl_left_figure(self):
        xray = build_xray(FIG_HALF_LEFT)
        by_seg = {frozenset(s.segment): s.dimension for s in xray.strata}
        assert by_seg[frozenset((pt(4, 0), pt(0, 4)))] == 4
        assert by_seg[frozenset((pt(5, 2), pt(2, 5)))] == 2
        assert by_seg[frozenset((pt(5, 0), pt(0, 5)))] == 2
        # Boundary edges of P except the alpha-parallel one, plus reflections.
        assert frozenset((pt(2, 2), pt(5, 2))) in by_seg
        assert frozenset((pt(5, 2), pt(5, 0))) in by_seg
        assert frozenset((pt(5, 0), pt(4, 0))) in by_seg
        assert frozenset((pt(2, 2), pt(2, 5))) in by_seg
        assert frozenset((pt(4, 0), pt(2, 2))) not in by_seg
        assert len(xray.strata) == 9

    def test_reflection_left_figure(self):
        xray = build_xray(FIG_REFL_LEFT)
        segments = {frozenset(s.segment) for s in xray.strata}
        drawn = {
            frozenset((pt(2, 1), pt(1, 2))),
            frozenset((pt(2, 1), pt(2, 5))),
            frozenset((pt(5, 2), pt(1, 2))),
            frozenset((pt(1, 5), pt(1, 2))),
            frozenset((pt(2, 1), pt(5, 1))),
            frozenset((pt(5, 2), pt(5, 1))),
            frozenset((pt(2, 5), pt(1, 5))),
            frozenset((pt(2, 5), pt(5, 2))),
            frozenset((pt(1, 5), pt(5, 1))),
        }
        assert segments == drawn

    def test_refusals(self):
        with pytest.raises(UnsupportedPolytopeError):
            build_xray(P((0, 0), (1, 1), (3, 2)))  # wall-edge vertex type
        with pytest.raises(UnsupportedPolytopeError):
            build_xray(P((1, 0), (2, 0), (1, -1), (2, -1)))  # no wall vertex
        with pytest.raises(InvalidPolytopeError):
            build_xray(P((1, 0), (3, 1), (2, -1)))

    def test_fixpoints_attached(self):
        xray = build_xray(FIG_REFL_LEFT)
        assert xray.fixpoints == fixpoint_images(FIG_REFL_LEFT)
        assert isinstance(xray.strata[0], Stratum)
