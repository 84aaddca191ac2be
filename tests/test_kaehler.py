import functools
import itertools
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mompoly.polygon
import mompoly.report
from mompoly.census import grid_points, run_census
from mompoly.classify import (
    HalfReflPlusFamily,
    ReflectionFamily,
    WallEdgeFamily,
    analyze,
    check_momentum_polytope,
)
from mompoly.difftype import diffeo_type
from mompoly.errors import InvalidPolytopeError, UnsupportedPolytopeError
from mompoly.kaehler import (
    Stratum,
    atiyah_cross_check,
    build_xray,
    fixpoint_boundary_check,
    fixpoint_images,
    is_kaehlerizable,
    obstructing_edge,
)
from mompoly.lattice import RationalPoint, Weight, coroot_pairing, weyl_reflect
from mompoly.polygon import convex_hull, form_point
from mompoly.report import full_report, point_out

from oracle import (
    boundary_contains,
    bundle_is_trivial,
    chern_numbers,
    localization_sums,
    localizes,
    oracle_fixpoints,
    oracle_volume,
    polytope_document,
    positive_edges,
    transform,
    unseen_wall_vertex,
)
from test_acceptance import _sweep_families
from test_byte_identity import FIGURES, FIXTURES, rational_inputs


def P(*coords):
    return convex_hull([RationalPoint.of(x, y) for x, y in coords])


def corner_cut_polygon(n, size=3**30):
    """The integer vertices of a valid Kähler polygon with n >= 3 vertices,
    one of them, (0, 0), on the wall.

    Starting from the triangle (0, 0), (size, -size), (size, 0), each round
    cuts the corners at off-wall vertices v, in counterclockwise order,
    until there are n vertices.  With r1 and r2 the primitive rays from v
    to the next and to the previous vertex, and e a third of the shorter
    lattice length of the two edges at v, v gives way to v + e*r2 and
    v + e*r1.  A cut keeps every vertex Delzant.  It is made only where the
    new edge's direction r1 - r2 has a + b >= 0, so that no new edge is
    positive."""
    vs = [(0, 0), (size, -size), (size, 0)]
    while len(vs) < n:
        cut = []
        for i, (x, y) in enumerate(vs):
            (nx, ny), (px, py) = vs[(i + 1) % len(vs)], vs[i - 1]
            g1, g2 = gcd(nx - x, ny - y), gcd(px - x, py - y)
            r1, r2 = ((nx - x) // g1, (ny - y) // g1), ((px - x) // g2, (py - y) // g2)
            if x == y or len(vs) + len(cut) - i >= n or sum(r1) - sum(r2) < 0:
                cut.append((x, y))
                continue
            e = min(g1, g2) // 3
            cut += [(x + e * r2[0], y + e * r2[1]), (x + e * r1[0], y + e * r1[1])]
        vs = cut
    return vs


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

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            positive_edges(P((1, 0), (3, 1), (2, -1)))


def _first_violating_edge(analysis):
    """The positive-edge rule, read from positive_edges and the wall
    vertex's point: the reference for is_kaehlerizable."""
    wall = [va.vertex for va in analysis.report.vertex_data if va.on_wall]
    if len(wall) != 1:
        return True, None
    for e in positive_edges(analysis.polygon):
        if wall[0] not in (e.tail, e.head):
            return False, e
    return True, None


class TestIsKaehlerizable:
    def test_woodward_trapezoids(self):
        verdict, witness = is_kaehlerizable(WOODWARD)
        assert not verdict
        assert (witness.tail, witness.head) == (pt(3, -1), pt(1, 0))
        verdict2, witness2 = is_kaehlerizable(P((0, 0), (1, 0), (1, -1), (3, -1)))
        assert not verdict2
        assert (witness2.tail, witness2.head) == (pt(3, -1), pt(1, 0))

    def test_witness_is_first_violating_positive_edge(self):
        """is_kaehlerizable gives the reference's verdict and witness, and
        the shared criterion obstructing_edge, on the polygon's wall flags
        and edge rays, names that witness edge, or None when it is true."""
        polygons = [P(*c) for c in FIXTURES + FIGURES]
        polygons += [convex_hull(points) for points in rational_inputs()]
        witnesses = 0
        for polygon in polygons:
            analysis = analyze(polygon)
            if analysis.report.valid:
                verdict = is_kaehlerizable(analysis)
                assert verdict == _first_violating_edge(analysis), polygon.vertices
                k = obstructing_edge([va.on_wall for va in analysis.report.vertex_data],
                                     [r for r, _ in polygon.rays])
                assert verdict == ((True, None) if k is None else (False, polygon.edges()[k]))
                witnesses += verdict[1] is not None
        assert witnesses == 16

    def test_obstructing_edge_rule(self):
        """Edge k runs from vertex k to vertex k + 1 (mod n) and is positive
        iff its ray (a, b) has a + b < 0; an edge along alpha (a + b = 0) is
        not.  On the unit square's rays, edges 2 and 3 are positive."""
        square = [Weight(1, 0), Weight(0, 1), Weight(-1, 0), Weight(0, -1)]
        wall = [[k == w for k in range(4)] for w in range(4)]
        # Edge 3 ends at vertex 0, so it contains it; edge 2 does not.
        assert obstructing_edge(wall[0], square) == 2
        assert obstructing_edge(wall[1], square) == 2
        assert obstructing_edge(wall[2], square) == 3
        assert obstructing_edge(wall[3], square) is None
        # Zero or two wall vertices: no obstruction.
        assert obstructing_edge([False] * 4, square) is None
        assert obstructing_edge([True, False, True, False], square) is None
        # Edge 1, along alpha, contains no wall vertex and is not positive.
        assert obstructing_edge([True, False, False],
                                [Weight(1, 0), Weight(1, -1), Weight(-2, 1)]) is None

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


def _census_items(max_coord, shape):
    """The items of a census, each with the grid points its indices name."""
    items = []
    run_census(max_coord, shape=shape, on_item=items.append)
    points = grid_points(max_coord)
    return [(tuple([points[k] for k in item.indices]), item) for item in items]


@functools.cache
def _valid_census_items():
    """The valid items of the triangles max-coord 4 and `--shape all`
    max-coord 2 censuses, each with its vertices as points."""
    return tuple([(vertices, item) for max_coord, shape in ((4, "triangles"), (2, "all"))
                  for vertices, item in _census_items(max_coord, shape) if item.valid])


def _assert_localization(analysis):
    """The oracle's T-fixpoints of a valid polygon, after checking that
    their localization sums vanish for k < 3, that the k = 3 sum is six
    times the oracle's volume and that their images with multiplicity are
    the engine's Analysis.fixpoints."""
    points = [(p.x, p.y) for p in analysis.polygon.vertices]
    fixpoints = oracle_fixpoints(points)
    sums = localization_sums(fixpoints)
    assert sums[:3] == [0, 0, 0], points
    assert sums[3] == 6 * oracle_volume(points), points
    scale = analysis.polygon.scale
    assert Counter(image for image, _ in fixpoints) == Counter(
        {(Fraction(x, scale), Fraction(y, scale)): m for (x, y), m in analysis.fixpoints}
    ), points
    return fixpoints


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
        assert fixpoint_images(analysis) is not fixpoint_images(analysis)
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

    def test_localization_identities(self):
        """The oracle's T-fixpoints, with the tangent weights of the local
        models, satisfy the Atiyah-Bott-Berline-Vergne localization on every
        valid census item, and their images with multiplicity are the
        engine's fixpoints."""
        valid = _valid_census_items()
        euler = {}
        for vertices, item in valid:
            fixpoints = _assert_localization(analyze(convex_hull(vertices)))
            if item.diff_type is not None:
                euler.setdefault(item.diff_type, set()).add(len(fixpoints))
        assert len(valid) == 1413
        # The Euler characteristic is the number of fixpoints.
        assert euler == {"projective_space_4": {4}, "oriented_grassmannian": {4},
                         "trivial_p2_bundle": {6}, "nontrivial_p2_bundle": {6}}

    def test_diff_type_from_characteristic_numbers(self):
        """The Chern numbers of the oracle's T-fixpoints tell the engine's
        diff types apart on every valid census item, sharing no code with
        difftype.  c1 c2 = 24 (Todd genus 1) on every item.  On the
        triangles, the Euler characteristic c3 is 4 on P(C^4) and the
        Grassmannian and 6 on the bundles, c1^3 is 64 on P(C^4) and 54 on
        the other three, and the mod-3 rule of bundle_is_trivial, where it
        decides, names the engine's bundle."""
        types, decided = Counter(), Counter()
        for vertices, item in _valid_census_items():
            fixpoints = oracle_fixpoints([(p.x, p.y) for p in vertices])
            c1c2, c1_cubed, euler = chern_numbers(fixpoints)
            assert c1c2 == 24, vertices
            if item.diff_type is None:  # not a triangle
                continue
            types[item.diff_type, c1_cubed, euler] += 1
            if euler == 6:
                trivial = bundle_is_trivial(fixpoints)
                if trivial is not None:
                    assert trivial == (item.diff_type == "trivial_p2_bundle"), vertices
                decided[trivial is not None] += 1
        assert types == {("projective_space_4", 64, 4): 142, ("oriented_grassmannian", 54, 4): 20,
                         ("trivial_p2_bundle", 54, 6): 262, ("nontrivial_p2_bundle", 54, 6): 729}
        assert decided == {True: 945, False: 46}

    def test_localization_agrees_with_validity(self):
        """On every 2-dimensional candidate of the `--shape all` max-coord 2
        and triangles max-coord 3 censuses, the localization identities hold
        iff the engine calls the candidate valid.  The only exceptions are
        rejected candidates with a wall vertex that has no fixpoint and
        matches no wall pattern, which the localization cannot see."""
        unexplained, unseen = [], Counter()
        for max_coord, shape in ((2, "all"), (3, "triangles")):
            for vertices, item in _census_items(max_coord, shape):
                points = [(p.x, p.y) for p in vertices]
                if len(points) < 3 or localizes(points) == item.valid:
                    continue
                if not item.valid and unseen_wall_vertex(points):
                    unseen[shape] += 1
                else:
                    unexplained.append(points)
        assert unexplained == []
        assert unseen == {"all": 1, "triangles": 4}


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
            if not analysis.report.valid or sum(
                    va.on_wall for va in analysis.report.vertex_data) != 1:
                continue
            pt = polygon.t_polytope()
            expected = all(boundary_contains(pt, p) for p in fixpoint_images(analysis))
            assert fixpoint_boundary_check(analysis) == expected, polygon.vertices
            verdicts[expected] += 1
        assert verdicts == {True: 102, False: 16}

    def test_wall_count_guard(self):
        with pytest.raises(UnsupportedPolytopeError, match="^operation needs exactly one "
                           "wall vertex, found 0$"):
            fixpoint_boundary_check(P((1, 0), (2, 0), (1, -1), (2, -1)))
        with pytest.raises(UnsupportedPolytopeError, match="^operation needs exactly one "
                           "wall vertex, found 2$"):
            fixpoint_boundary_check(P((0, 0), (1, 1), (3, 2)))

    def test_large_polygon_tests_each_image_in_logarithmic_time(self, monkeypatch):
        # A Kähler polygon of 3,201 vertices: every one of its 6,401 images
        # lies on the T-polytope's boundary, so each is tested.  Testing each
        # against every edge until one holds it took 20,473,855 segment tests.
        calls = Counter()
        for name in ("_turn", "_on_segment"):
            def counting(*args, _name=name, _original=getattr(mompoly.polygon, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(mompoly.polygon, name, counting)
        n = 3201
        doc = full_report([pt(x, y) for x, y in corner_cut_polygon(n)])
        assert len(doc["hull_vertices"]) == n
        assert doc["kaehler"]["verdict"] is doc["fixpoint_boundary_check"] is True
        images = len(doc["fixpoint_images"])
        assert images == 2 * n - 1
        # Per image: at most three segment tests and a binary search over
        # the T-polytope's at most 2n vertices.  The hull of the n input
        # points: at most two turns per point and chain.  The T-hull walks
        # the polygon's cycle and takes no turns.
        assert calls["_on_segment"] <= 3 * images
        assert calls["_turn"] <= images * (2 * n).bit_length() + 4 * n


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
            if sum(va.on_wall for va in analyze(hull).report.vertex_data) == 1:
                assert atiyah_cross_check(hull)


def _segment(polygon, stratum):
    """The ends of a stratum of polygon's x-ray as points on its grid."""
    return frozenset(form_point(q, polygon.scale) for q in stratum.xy)


class TestBuildXray:
    def test_reflection_triangle(self):
        polygon = P((0, 0), (1, 0), (0, -1))
        xray = build_xray(polygon)
        segments = {_segment(polygon, s) for s in xray}
        assert segments == {
            frozenset((pt(1, 0), pt(0, 1))),
            frozenset((pt(0, -1), pt(-1, 0))),
            frozenset((pt(1, 0), pt(0, -1))),
            frozenset((pt(0, 1), pt(-1, 0))),
            frozenset((pt(0, -1), pt(0, 1))),
            frozenset((pt(1, 0), pt(-1, 0))),
        }
        assert all(s.dimension == 2 for s in xray)

    def test_half_refl_left_figure(self):
        xray = build_xray(FIG_HALF_LEFT)
        by_seg = {_segment(FIG_HALF_LEFT, s): s.dimension for s in xray}
        assert by_seg[frozenset((pt(4, 0), pt(0, 4)))] == 4
        assert by_seg[frozenset((pt(5, 2), pt(2, 5)))] == 2
        assert by_seg[frozenset((pt(5, 0), pt(0, 5)))] == 2
        # Boundary edges of P except the alpha-parallel one, plus reflections.
        assert frozenset((pt(2, 2), pt(5, 2))) in by_seg
        assert frozenset((pt(5, 2), pt(5, 0))) in by_seg
        assert frozenset((pt(5, 0), pt(4, 0))) in by_seg
        assert frozenset((pt(2, 2), pt(2, 5))) in by_seg
        assert frozenset((pt(4, 0), pt(2, 2))) not in by_seg
        assert len(xray) == 9

    def test_reflection_left_figure(self):
        xray = build_xray(FIG_REFL_LEFT)
        segments = {_segment(FIG_REFL_LEFT, s) for s in xray}
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
        with pytest.raises(UnsupportedPolytopeError, match="^operation needs exactly one "
                           "wall vertex, found 2$"):
            build_xray(P((0, 0), (1, 1), (3, 2)))  # two wall-edge vertices
        with pytest.raises(UnsupportedPolytopeError, match="^operation needs exactly one "
                           "wall vertex, found 0$"):
            build_xray(P((1, 0), (2, 0), (1, -1), (2, -1)))
        with pytest.raises(InvalidPolytopeError):
            build_xray(P((1, 0), (3, 1), (2, -1)))

    def test_every_one_wall_census_polytope(self):
        """A lone wall vertex is never a wall-edge vertex, whose wall edge ends
        at a second wall vertex; so build_xray has a rule for every valid
        polytope with one wall vertex, here all 376 of the max-coord 3
        `--shape all` census, max-coord 2's 64 among them.  Each stratum is
        an invariant sphere between T-fixpoints: both its ends are images of
        oracle_fixpoints, and its primitive direction from each end is one
        of that end's tangent weights (3,271 strata: 2,757 of dimension 2
        and 514 of dimension 4).  Whether every such sphere is a stratum is
        not checked."""
        one_wall = [convex_hull(vertices) for vertices, item in _census_items(3, "all")
                    if item.valid and sum(p.x == p.y for p in vertices) == 1]
        assert len(one_wall) == 376
        dimensions = Counter()
        for polygon in one_wall:
            xray = build_xray(polygon)
            assert xray
            scale = polygon.scale
            weights = {}
            for (x, y), triple in oracle_fixpoints([(p.x, p.y) for p in polygon.vertices]):
                weights.setdefault((int(x * scale), int(y * scale)), set()).update(triple)
            for stratum in xray:
                (ax, ay), (bx, by) = ends = stratum.xy
                assert all(end in weights for end in ends), (polygon, stratum)
                g = gcd(bx - ax, by - ay)
                direction = ((bx - ax) // g, (by - ay) // g)
                assert direction in weights[ends[0]], (polygon, stratum)
                assert (-direction[0], -direction[1]) in weights[ends[1]], (polygon, stratum)
                dimensions[stratum.dimension] += 1
        assert dimensions == {2: 2757, 4: 514}

    def test_holds_only_its_strata(self):
        xray = build_xray(FIG_REFL_LEFT)
        assert type(xray) is tuple
        assert all(isinstance(s, Stratum) for s in xray)
        assert Stratum._fields == ("xy", "dimension")


_coords = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_BASES = tuple(tuple(P(*c).vertices) for c in FIXTURES + FIGURES)


@st.composite
def _report_inputs(draw):
    """A list of chamber points: the vertices of a fixture or figure moved
    by v -> s(eps1+eps2) + t*v, or one to four random points, with up to
    four points of segments between two of them added (duplicates, points
    on edges and interior points) and the order shuffled."""
    if draw(st.booleans()):
        s = draw(_coords)
        t = draw(st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6))
        points = list(transform(convex_hull(draw(st.sampled_from(_BASES))), s, t).vertices)
    else:
        pairs = draw(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=4))
        points = [RationalPoint(max(a, b), min(a, b)) for a, b in pairs]
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(points)), draw(st.sampled_from(points))
        w = draw(st.fractions(min_value=0, max_value=1, max_denominator=4))
        points.append(RationalPoint(a.x + w * (b.x - a.x), a.y + w * (b.y - a.y)))
    return draw(st.permutations(points))


@settings(max_examples=200, deadline=None)
@given(_report_inputs())
def test_report_points_are_point_out(points):
    """A report prints its points from a table of its int coordinates;
    each point list equals point_out of the report's points."""
    doc = full_report(points)
    analysis = analyze(convex_hull(points))
    assert doc["input"]["vertices"] == polytope_document(points)["vertices"]
    assert doc["hull_vertices"] == [point_out(v) for v in analysis.polygon.vertices]
    assert [va["vertex"] for va in doc["vertex_analyses"]] == [
        point_out(va.vertex) for va in analysis.report.vertex_data]
    if doc["valid"]:
        scale = analysis.polygon.scale
        assert doc["fixpoint_images"] == [
            {"point": point_out(RationalPoint(Fraction(x, scale), Fraction(y, scale))),
             "multiplicity": m}
            for (x, y), m in analysis.fixpoints]
    if "strata" in doc["xray"]:
        assert [s["segment"] for s in doc["xray"]["strata"]] == [
            [point_out(form_point(q, scale)) for q in s.xy] for s in build_xray(analysis)]


@settings(max_examples=60, deadline=None)
@given(st.data(), _coords,
       st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
       st.integers(-4, 4), st.integers(1, 6))
def test_localization_under_affine_moves(data, s, t, int_s, int_t):
    """v -> s(eps1+eps2) + t*v with t > 0 moves a valid census item to a
    polygon on which the localization identities still hold, with the
    engine's fixpoints as the oracle's images, with the item's Chern
    numbers, and with the item's validity, family tag, Kähler verdict and
    diff type.  On a bundle, an integral move v -> int_s(eps1+eps2) +
    int_t*v leaves [omega] times int_t, as the shift changes only the
    equivariant extension, so it multiplies y^3 and c1 y^2 by int_t^3 and
    int_t^2: the mod-3 rule decides as before, unless 3 divides int_t,
    when it decides nothing."""
    vertices, item = data.draw(st.sampled_from(_valid_census_items()))
    hull = convex_hull(vertices)
    analysis = analyze(transform(hull, s, t))
    assert analysis.report.valid
    before = oracle_fixpoints([(p.x, p.y) for p in vertices])
    assert chern_numbers(_assert_localization(analysis)) == chern_numbers(before)
    if item.diff_type in ("trivial_p2_bundle", "nontrivial_p2_bundle"):
        moved = transform(hull, int_s, int_t).vertices
        trivial = bundle_is_trivial(oracle_fixpoints([(p.x, p.y) for p in moved]))
        assert (trivial is None) == (bundle_is_trivial(before) is None or int_t % 3 == 0)
        assert trivial in (None, item.diff_type == "trivial_p2_bundle"), (vertices, int_s, int_t)
    kaehler, _ = is_kaehlerizable(analysis)
    if len(analysis.polygon) == 3:
        fam = analysis.family
        facts = (fam.tag, kaehler, diffeo_type(fam, analysis).value)
    else:
        facts = (None, kaehler, None)
    assert facts == (item.family_tag, item.kaehler, item.diff_type), (vertices, s, t)
