import functools
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mompoly.classify
import mompoly.difftype
import mompoly.kaehler
import mompoly.polygon
import mompoly.report
from mompoly.census import enumerate_convex, grid_points, run_census
from mompoly.classify import (
    DelzantFamily,
    HalfReflMinus,
    HalfReflMinusFamily,
    HalfReflPlus,
    HalfReflPlusFamily,
    Reflection,
    ReflectionFamily,
    WallEdgeFamily,
    WallEdgeMinus,
    WallEdgePlus,
    analyze,
    base_vertex,
    check_momentum_polytope,
    classify_triangle,
    classify_wall_rays,
    edge_scale,
    manifold_model,
)
from mompoly.difftype import diffeo_type
from mompoly.errors import (
    ChamberError,
    GeometryError,
    InvalidPolytopeError,
    UnsupportedPolytopeError,
)
from mompoly.kaehler import build_xray, fixpoint_images, is_kaehlerizable
from mompoly.lattice import RationalPoint, Weight
from mompoly.polygon import Edge, Polygon, convex_hull
from mompoly.svgplot import render_svg
from mompoly.report import full_report

from oracle import oracle_base_vertex, oracle_family_triangles, positive_edges, transform


def P(*coords):
    return convex_hull([RationalPoint.of(x, y) for x, y in coords])


class TestClassifyWallRays:
    def test_examples(self):
        assert classify_wall_rays(Weight(1, 1), Weight(3, 2)) == WallEdgePlus(2)
        assert classify_wall_rays(Weight(-1, -1), Weight(0, -1)) == WallEdgeMinus(-1)
        assert classify_wall_rays(Weight(1, -1), Weight(4, -3)) == HalfReflPlus(3)
        assert classify_wall_rays(Weight(1, -1), Weight(2, -3)) == HalfReflMinus(2)
        assert classify_wall_rays(Weight(1, 0), Weight(0, -1)) == Reflection(0)
        assert classify_wall_rays(Weight(3, -2), Weight(2, -3)) == Reflection(2)

    def test_invalid(self):
        assert classify_wall_rays(Weight(1, 1), Weight(1, -1)) is None
        assert classify_wall_rays(Weight(1, 1), Weight(-1, -1)) is None
        assert classify_wall_rays(Weight(1, -1), Weight(-1, 0)) is None
        assert classify_wall_rays(Weight(2, 1), Weight(1, 2)) is None
        assert classify_wall_rays(Weight(1, 1), Weight(1, 1)) is None

    def test_unordered(self):
        for r1, r2 in itertools.product(
            [Weight(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)],
            repeat=2,
        ):
            assert classify_wall_rays(r1, r2) == classify_wall_rays(r2, r1)

    def test_pattern_round_trip(self):
        cases = [
            WallEdgePlus(-2),
            WallEdgePlus(0),
            WallEdgeMinus(3),
            HalfReflPlus(0),
            HalfReflPlus(4),
            HalfReflMinus(0),
            HalfReflMinus(2),
            Reflection(0),
            Reflection(5),
        ]
        for wt in cases:
            assert classify_wall_rays(*wt.rays()) == wt

    def test_duality_maps_patterns(self):
        # sigma(x, y) = (-y, -x), the map lambda -> -w0(lambda), keeps the
        # chamber, the wall and the lattice but reverses orientation: it
        # carries a wall vertex with rays (r1, r2) to one with rays
        # (sigma r2, sigma r1), and its pattern to the image below.
        def sigma(r):
            return Weight(-r.b, -r.a)

        def image(wt):
            if isinstance(wt, HalfReflPlus):
                return HalfReflMinus(wt.j)
            if isinstance(wt, HalfReflMinus):
                return HalfReflPlus(wt.j)
            if isinstance(wt, WallEdgePlus):
                return WallEdgeMinus(-wt.k - 1)
            if isinstance(wt, WallEdgeMinus):
                return WallEdgePlus(-wt.k - 1)
            return wt  # Reflection(j) and None map to themselves.

        rays = [Weight(a, b) for a, b in itertools.product(range(-6, 7), repeat=2)
                if math.gcd(a, b) == 1]
        assert len(rays) == 96
        seen = Counter()
        for r1, r2 in itertools.product(rays, repeat=2):
            wt = classify_wall_rays(r1, r2)
            assert classify_wall_rays(sigma(r2), sigma(r1)) == image(wt), (r1, r2)
            seen[type(wt)] += 1
        assert set(seen) == {WallEdgePlus, WallEdgeMinus, HalfReflPlus, HalfReflMinus,
                             Reflection, type(None)}


class TestCheckMomentumPolytope:
    def test_woodward_valid(self):
        report = check_momentum_polytope(P((0, 0), (1, 0), (0, -1), (3, -1)))
        assert report.valid
        assert report.failures == ()

    def test_dimension_failure(self):
        report = check_momentum_polytope(P((0, 0), (2, 2)))
        assert not report.valid
        assert [cid for cid, _ in report.failures] == [1]

    def test_reflection_scaled_triangle_is_valid(self):
        # 2 * conv(0, eps1, -eps2): wall rays {(1,0),(0,-1)}, interior
        # vertices (2,0) and (0,-2) both unimodular.
        report = check_momentum_polytope(P((0, 0), (2, 0), (0, -2)))
        assert report.valid

    def test_interior_delzant_failure(self):
        report = check_momentum_polytope(P((1, 0), (3, 1), (2, -1)))
        assert not report.valid
        assert 3 in {cid for cid, _ in report.failures}

    def test_wall_pattern_failure(self):
        report = check_momentum_polytope(P((0, 0), (2, 1), (2, -1)))
        assert not report.valid
        assert 4 in {cid for cid, _ in report.failures}

    def test_chamber_error(self):
        with pytest.raises(ChamberError):
            check_momentum_polytope(P((0, 0), (0, 1), (1, 1)))

    def test_vertex_data_kinds(self):
        analysis = analyze(P((0, 0), (1, 1), (3, 2)))
        report = analysis.report
        kinds = {va.vertex: va.kind for va in report.vertex_data}
        assert kinds[RationalPoint.of(0, 0)] == "wall"
        assert kinds[RationalPoint.of(1, 1)] == "wall"
        assert kinds[RationalPoint.of(3, 2)] == "interior_delzant"
        types = {va.vertex: va.wall_type for va in report.vertex_data}
        assert types[RationalPoint.of(0, 0)] == WallEdgePlus(2)
        assert types[RationalPoint.of(1, 1)] == WallEdgeMinus(1)


class TestClassifyTriangle:
    def test_spec_examples(self):
        assert classify_triangle(P((0, 0), (1, 1), (3, 2))) == WallEdgeFamily(
            Fraction(0), Fraction(1), 2, 1
        )
        assert classify_triangle(P((0, 0), (1, -1), (4, -3))) == HalfReflPlusFamily(
            Fraction(0), Fraction(1), 3
        )
        assert classify_triangle(P((1, 0), (0, -1), (0, -2))) == DelzantFamily(
            Fraction(1), Fraction(0), Fraction(1), 1, 0, -1, 1
        )
        assert classify_triangle(P((0, 0), (1, 0), (0, -1))) == ReflectionFamily(
            Fraction(0), Fraction(1)
        )
        assert classify_triangle(P((0, 0), (1, -1), (2, -3))) == HalfReflMinusFamily(
            Fraction(0), Fraction(1), 2
        )

    def test_errors(self):
        with pytest.raises(GeometryError):
            classify_triangle(P((0, 0), (1, 0), (0, -1), (3, -1)))
        with pytest.raises(InvalidPolytopeError):
            classify_triangle(P((1, 0), (3, 1), (2, -1)))

    def test_reconstruction(self):
        for fam in [
            DelzantFamily(Fraction(2), Fraction(-1), Fraction(3), 1, 0, -1, 1),
            WallEdgeFamily(Fraction(1, 2), Fraction(3, 2), -2, 1),
            HalfReflPlusFamily(Fraction(0), Fraction(2), 1),
            HalfReflMinusFamily(Fraction(-1), Fraction(1), 0),
            ReflectionFamily(Fraction(5), Fraction(7)),
        ]:
            assert classify_triangle(fam.triangle()) == fam

    def test_rebuild_check_catches_a_wrong_scale(self, monkeypatch):
        # A wall pattern whose family has the wrong t does not rebuild the
        # triangle, and Analysis.family refuses it.
        family = HalfReflPlus.family
        monkeypatch.setattr(HalfReflPlus, "family", lambda self, s, t: family(self, s, 2 * t))
        with pytest.raises(AssertionError, match="does not rebuild"):
            classify_triangle(P((0, 0), (1, -1), (4, -3)))

    def test_rebuild_check_catches_a_base_off_the_grid(self, monkeypatch):
        # The rebuild check compares int pairs on the polygon's grid; a
        # family whose s is off that grid has none there, and is refused.
        family = HalfReflPlus.family
        monkeypatch.setattr(HalfReflPlus, "family",
                            lambda self, s, t: family(self, s + Fraction(1, 2), t))
        with pytest.raises(AssertionError, match="does not rebuild"):
            classify_triangle(P((0, 0), (1, -1), (4, -3)))

    def test_edge_scale_measures_the_base_edge(self):
        # Over every family triangle of the max-coord 3 grid, edge_scale's u,
        # the gcd of the base edge, times the primitive ray d1 at the base is
        # the edge from the base to the next vertex counterclockwise, and u
        # over the grid's scale is the family's t.
        triangles = oracle_family_triangles(3)
        assert len(triangles) == 360
        for points in triangles:
            analysis = analyze(convex_hull([RationalPoint(x, y) for x, y in points]))
            xy = analysis.polygon.xy
            i = base_vertex(xy)
            d1 = analysis.report.vertex_data[i].rays[0]
            u = edge_scale(xy, i)
            (bx, by), (nx, ny) = xy[i], xy[(i + 1) % 3]
            assert u >= 1 and (u * d1.a, u * d1.b) == (nx - bx, ny - by)
            assert Fraction(u, analysis.polygon.scale) == classify_triangle(analysis).t

    def test_wall_edge_l_minus_canonicalizes(self):
        fam = WallEdgeFamily(Fraction(0), Fraction(1), 2, -1)
        assert classify_triangle(fam.triangle()) == WallEdgeFamily(
            Fraction(-1), Fraction(1), 3, 1
        )

    def test_transform_equivariance(self):
        base = P((0, 0), (1, -1), (4, -3))
        fam = classify_triangle(base)
        moved = classify_triangle(transform(base, 5, Fraction(3, 2)))
        assert moved == HalfReflPlusFamily(
            5 + Fraction(3, 2) * fam.s, Fraction(3, 2) * fam.t, fam.j
        )


_INT_PAIRS = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def _int_triangles(draw):
    """Three distinct int pairs in any order; half the time two of them lie
    on the wall x = y, so that x - y ties."""
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2, unique=True))
        c = draw(_INT_PAIRS.filter(lambda p: p[0] != p[1]))
        return tuple(draw(st.permutations([(a, a), (b, b), c])))
    return tuple(draw(st.lists(_INT_PAIRS, min_size=3, max_size=3, unique=True)))


@settings(max_examples=300, deadline=None)
@given(_int_triangles(), st.integers(-5, 5), st.integers(1, 5))
def test_base_vertex_is_the_key_function_minimum(xy, s, t):
    """base_vertex picks the vertex the key function (x - y, (x, y)) picks,
    also when two wall vertices tie on x - y; v -> s(eps1+eps2) + t*v with
    t > 0 keeps both x - y and (x, y) in order, so it keeps the choice."""
    moved = tuple((s + t * x, s + t * y) for x, y in xy)
    assert base_vertex(xy) == oracle_base_vertex(xy)
    assert base_vertex(moved) == oracle_base_vertex(moved) == base_vertex(xy)


_UNIMODULAR = tuple(
    (a1, b1, a2, b2) for a1, b1, a2, b2 in itertools.product(range(-3, 4), repeat=4)
    if a1 * b2 - a2 * b1 == 1 and a1 + b1 >= 0 and a2 + b2 >= 0
)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.fractions(min_value=-5, max_value=5, max_denominator=7),
       st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7))
def test_family_triangle_is_the_fraction_hull(data, s, t):
    """fam.triangle() builds base + t*conv(0, r1, r2) on one integer grid.
    It is the hull of the same three points built with Fractions, and its
    integer form is its vertices times its scale."""
    kind = data.draw(st.sampled_from(
        ("delzant", "wall_edge", "half_refl_plus", "half_refl_minus", "reflection")))
    if kind == "delzant":
        r = data.draw(st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7))
        fam = DelzantFamily(r, s, t, *data.draw(st.sampled_from(_UNIMODULAR)))
        base, rays = RationalPoint(s, s - r), fam.deltas()
    else:
        k, l, j = (data.draw(st.integers(-3, 3)), data.draw(st.sampled_from((1, -1))),
                   data.draw(st.integers(0, 4)))
        fam = {
            "wall_edge": WallEdgeFamily(s, t, k, l),
            "half_refl_plus": HalfReflPlusFamily(s, t, j),
            "half_refl_minus": HalfReflMinusFamily(s, t, j),
            "reflection": ReflectionFamily(s, t),
        }[kind]
        base, rays = RationalPoint(s, s), fam.wall_types()[0].rays()
    expected = convex_hull([base] + [RationalPoint(base.x + t * r.a, base.y + t * r.b) for r in rays])
    tri = fam.triangle()
    assert tri.vertices == expected.vertices
    assert [(Fraction(x, tri.scale), Fraction(y, tri.scale)) for x, y in tri.xy] == [
        (v.x, v.y) for v in tri.vertices]


@functools.lru_cache(maxsize=None)
def _valid_polygons():
    """The 294 valid triangles and quadrilaterals with vertices in the
    chamber part of [-2, 2]^2."""
    points = grid_points(2)
    hulls = (convex_hull([points[k] for k in indices])
             for indices, _ in enumerate_convex(points) if len(indices) in (3, 4))
    return tuple(p for p in hulls if analyze(p).report.valid)


def _verdicts(polygon):
    analysis = analyze(polygon)
    kaehler, _ = is_kaehlerizable(analysis)
    if len(polygon) != 3:
        return analysis.report.valid, None, kaehler, None
    fam = classify_triangle(analysis)
    return analysis.report.valid, fam.tag, kaehler, diffeo_type(fam, analysis)


_shifts = st.fractions(min_value=-5, max_value=5, max_denominator=7)
_scales = st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7)


@settings(max_examples=100, deadline=None)
@given(st.data(), _shifts, _scales, _shifts, _scales)
def test_verdicts_invariant_under_shift_and_scale(data, s0, t0, s, t):
    """v -> s(eps1+eps2) + t*v with t > 0 keeps validity, family tag, Kaehler
    verdict and diffeomorphism type.  (s0, t0) first moves a valid integral
    polygon to a random rational one."""
    polygon = transform(data.draw(st.sampled_from(_valid_polygons())), s0, t0)
    assert _verdicts(polygon)[0] is True
    assert _verdicts(transform(polygon, s, t)) == _verdicts(polygon)


def _dual_report_point(out):
    """sigma(x, y) = (-y, -x) of a report point [x, y]."""
    x, y = (Fraction(c) for c in out)
    return RationalPoint(-y, -x)


def _report_point(out):
    return RationalPoint(*(Fraction(c) for c in out))


_DUAL_PATTERN = {"half_refl_plus": "half_refl_minus", "half_refl_minus": "half_refl_plus",
                 "wall_edge_plus": "wall_edge_minus", "wall_edge_minus": "wall_edge_plus",
                 "reflection": "reflection"}


def _dual_vertex(va):
    """The image under sigma of a report's vertex analysis.  sigma reverses
    orientation, so the rays to the next and previous vertex swap."""
    (a1, b1), (a2, b2) = va["rays"]
    wt = va["wall_type"]
    if wt is not None:
        name = _DUAL_PATTERN[wt["name"]]
        wt = {"name": name, "k": -wt["k"] - 1} if "k" in wt else {"name": name, "j": wt["j"]}
    return _vertex(dict(va, rays=[[-b2, -a2], [-b1, -a1]], wall_type=wt), _dual_report_point)


def _vertex(va, point=_report_point):
    """A report's vertex analysis as a hashable tuple, its vertex read by `point`."""
    wt = va["wall_type"]
    return (point(va["vertex"]), tuple(map(tuple, va["rays"])), va["on_wall"], va["kind"],
            wt and tuple(wt.items()), va["reason"])


def _check_dual_reports(polygon):
    dual_points = [RationalPoint(-v.y, -v.x) for v in polygon.vertices]
    doc, dual = full_report(list(polygon.vertices)), full_report(dual_points)

    assert doc["valid"] is dual["valid"] is True
    assert doc["conditions"] == dual["conditions"]
    assert Counter(map(_dual_vertex, doc["vertex_analyses"])) == Counter(
        map(_vertex, dual["vertex_analyses"]))
    assert Counter((_dual_report_point(f["point"]), f["multiplicity"])
                   for f in doc["fixpoint_images"]) == Counter(
        (_report_point(f["point"]), f["multiplicity"]) for f in dual["fixpoint_images"])

    if "strata" in doc["xray"]:
        assert Counter((frozenset(map(_dual_report_point, s["segment"])), s["dimension"])
                       for s in doc["xray"]["strata"]) == Counter(
            (frozenset(map(_report_point, s["segment"])), s["dimension"])
            for s in dual["xray"]["strata"])
    else:
        assert doc["xray"] == dual["xray"]
    for key in ("fixpoint_boundary_check", "atiyah_cross_check", "diffeo_type"):
        assert doc[key] == dual[key], key
    # The half-reflection family tags are the names of their patterns.
    family = doc["triangle_family"].get("family")
    assert dual["triangle_family"].get("family") == _DUAL_PATTERN.get(family, family)

    verdict = doc["kaehler"]["verdict"]
    assert dual["kaehler"]["verdict"] is verdict
    if not verdict:
        (wall,) = [_report_point(va["vertex"]) for va in dual["vertex_analyses"] if va["on_wall"]]
        violating = {frozenset((e.tail, e.head)) for e in positive_edges(convex_hull(dual_points))
                     if wall not in (e.tail, e.head)}
        assert frozenset(map(_dual_report_point, doc["kaehler"]["witness_edge"])) in violating


@settings(max_examples=10, deadline=None)
@given(_shifts, _scales)
def test_full_report_is_dual_under_minus_w0(s0, t0):
    """sigma(x, y) = (-y, -x), the map lambda -> -w0(lambda), keeps the
    chamber and the lattice and reverses orientation.  The report of
    sigma(P) is the image of P's: each vertex's verdict with its two rays
    swapped, HalfReflPlus(j) <-> HalfReflMinus(j), WallEdgePlus(k) <->
    WallEdgeMinus(-k-1) and Reflection(j) fixed; the fixpoint images and
    x-ray strata as multisets; the family tag with half_refl_plus <->
    half_refl_minus; the same diffeomorphism type and Kaehler verdict, with
    sigma of a witness edge violating the criterion on sigma(P).  (s0, t0)
    first moves every valid integral polygon to a rational one: only 4 of
    them are not Kaehler."""
    for polygon in _valid_polygons():
        _check_dual_reports(transform(polygon, s0, t0))


def _at_origin(wt):
    """conv(0, r1, r2) for the rays r1, r2 of a wall pattern."""
    return convex_hull([RationalPoint.of(0, 0)] + [RationalPoint.of(r.a, r.b) for r in wt.rays()])


# One fixed triangle per family and per wall pattern, with what the package
# reports for it: family, diffeomorphism type, total space kind, GL(2)-variety,
# local models, x-ray (stratum dimensions, or the reason it is refused), and
# for a pattern at the origin that pattern with its fixpoint count.
_TYPE_CASES = {
    "DelzantFamily": (
        DelzantFamily(Fraction(2), Fraction(1), Fraction(1), 1, 1, 0, 1).triangle(),
        DelzantFamily(Fraction(2), Fraction(1), Fraction(1), 1, 1, 0, 1),
        "trivial_p2_bundle", "projective_bundle_over_sphere",
        "GL(2) x_B- P(C + C_-(1,-1) + C_-(1,0))", [],
        "found 0", None,
    ),
    "WallEdgeFamily": (
        WallEdgeFamily(Fraction(1), Fraction(2), 0, 1).triangle(),
        WallEdgeFamily(Fraction(1), Fraction(2), 0, 1),
        "projective_space_4", "projective_space",
        "P((C^2 (x) det^-1) + det^-1 + C)",
        ["(C^2 (x) det^-1) x det^-1", "(C^2 (x) det^-0) x det^1"],
        "found 2", None,
    ),
    "HalfReflPlusFamily": (
        HalfReflPlusFamily(Fraction(-1), Fraction(1, 2), 3).triangle(),
        HalfReflPlusFamily(Fraction(-1), Fraction(1, 2), 3),
        "trivial_p2_bundle", "projective_bundle_over_sphere",
        "GL(2) x_B- P(C^2 + C_-3*alpha)", ["GL(2) x_TC C_-(3*alpha+eps1)"],
        [2, 4, 2, 2, 2, 2], None,
    ),
    "HalfReflMinusFamily": (
        HalfReflMinusFamily(Fraction(2), Fraction(3), 1).triangle(),
        HalfReflMinusFamily(Fraction(2), Fraction(3), 1),
        "nontrivial_p2_bundle", "projective_bundle_over_sphere",
        "GL(2) x_B- P((C^2)* + C_-1*alpha)", ["GL(2) x_TC C_-(1*alpha-eps2)"],
        [4, 2, 2, 2, 2, 2], None,
    ),
    "ReflectionFamily": (
        ReflectionFamily(Fraction(1), Fraction(2)).triangle(),
        ReflectionFamily(Fraction(1), Fraction(2)),
        "oriented_grassmannian", "oriented_grassmannian",
        "SO(5,C)/P", ["GL(2)/{diag(z^0, z^1)}"],
        [2, 2, 2, 2, 2, 2], None,
    ),
    "WallEdgePlus": (
        _at_origin(WallEdgePlus(2)),
        WallEdgeFamily(Fraction(0), Fraction(1), 2, 1),
        "projective_space_4", "projective_space",
        "P((C^2 (x) det^-3) + det^-1 + C)",
        ["(C^2 (x) det^-3) x det^-1", "(C^2 (x) det^-2) x det^1"],
        "found 2", (WallEdgePlus(2), 1),
    ),
    "WallEdgeMinus": (
        _at_origin(WallEdgeMinus(0)),
        WallEdgeFamily(Fraction(-1), Fraction(1), 1, 1),
        "projective_space_4", "projective_space",
        "P((C^2 (x) det^-2) + det^-1 + C)",
        ["(C^2 (x) det^-2) x det^-1", "(C^2 (x) det^-1) x det^1"],
        "found 2", (WallEdgeMinus(0), 1),
    ),
    "HalfReflPlus": (
        _at_origin(HalfReflPlus(2)),
        HalfReflPlusFamily(Fraction(0), Fraction(1), 2),
        "nontrivial_p2_bundle", "projective_bundle_over_sphere",
        "GL(2) x_B- P(C^2 + C_-2*alpha)", ["GL(2) x_TC C_-(2*alpha+eps1)"],
        [2, 4, 2, 2, 2, 2], (HalfReflPlus(2), 2),
    ),
    "HalfReflMinus": (
        _at_origin(HalfReflMinus(0)),
        HalfReflMinusFamily(Fraction(0), Fraction(1), 0),
        "trivial_p2_bundle", "projective_bundle_over_sphere",
        "GL(2) x_B- P((C^2)* + C_-0*alpha)", ["GL(2) x_TC C_-(0*alpha-eps2)"],
        [4, 2, 2, 2, 2, 2], (HalfReflMinus(0), 2),
    ),
    "Reflection": (
        _at_origin(Reflection(0)),
        ReflectionFamily(Fraction(0), Fraction(1)),
        "oriented_grassmannian", "oriented_grassmannian",
        "SO(5,C)/P", ["GL(2)/{diag(z^0, z^1)}"],
        [2, 2, 2, 2, 2, 2], (Reflection(0), 0),
    ),
}


@pytest.mark.parametrize("case", list(_TYPE_CASES), ids=list(_TYPE_CASES))
def test_every_type_carries_its_facts(case):
    triangle, family, diffeo, kind, variety, local_models, xray, origin = _TYPE_CASES[case]
    analysis = analyze(triangle)
    fam = classify_triangle(analysis)
    assert fam == family
    assert diffeo_type(fam, analysis).value == diffeo
    model = manifold_model(fam)
    assert (model.total_space.kind, model.gl2_variety_label) == (kind, variety)
    assert [label for _, label in model.local_models] == local_models
    if isinstance(xray, str):
        with pytest.raises(UnsupportedPolytopeError, match=f"wall vertex, {xray}"):
            build_xray(analysis)
    else:
        assert [s.dimension for s in build_xray(analysis)] == xray
    if origin is not None:
        wt, fixpoints = origin
        zero = RationalPoint.of(0, 0)
        assert {va.vertex: va.wall_type for va in analysis.report.vertex_data}[zero] == wt
        assert fixpoint_images(analysis)[zero] == fixpoints


class TestManifoldModel:
    def test_wall_edge(self):
        model = manifold_model(WallEdgeFamily(Fraction(0), Fraction(1), 2, 1))
        assert model.total_space.kind == "projective_space"
        assert set(model.total_space.weights) == {
            Weight(-2, -3),
            Weight(-3, -2),
            Weight(-1, -1),
            Weight(0, 0),
        }
        assert [wt for wt, _ in model.local_models] == [WallEdgePlus(2), WallEdgeMinus(1)]

    def test_wall_edge_l_minus_label(self):
        # det^-l with l = -1 is det^1, not det^--1.
        model = manifold_model(WallEdgeFamily(Fraction(0), Fraction(1), 2, -1))
        assert model.gl2_variety_label == "P((C^2 (x) det^-3) + det^1 + C)"
        assert Weight(1, 1) in model.total_space.weights

    def test_half_refl(self):
        model = manifold_model(HalfReflPlusFamily(Fraction(0), Fraction(1), 3))
        assert model.total_space.kind == "projective_bundle_over_sphere"
        assert set(model.total_space.weights) == {Weight(1, 0), Weight(0, 1), Weight(-3, 3)}
        minus = manifold_model(HalfReflMinusFamily(Fraction(0), Fraction(1), 2))
        assert set(minus.total_space.weights) == {Weight(-1, 0), Weight(0, -1), Weight(-2, 2)}

    def test_reflection(self):
        model = manifold_model(ReflectionFamily(Fraction(0), Fraction(1)))
        assert model.total_space.kind == "oriented_grassmannian"
        assert model.gl2_variety_label == "SO(5,C)/P"
        assert model.local_models == ((Reflection(0), Reflection(0).local_model()),)

    def test_delzant(self):
        fam = DelzantFamily(Fraction(1), Fraction(0), Fraction(1), 1, 0, -1, 1)
        model = manifold_model(fam)
        assert model.total_space.kind == "projective_bundle_over_sphere"
        assert set(model.total_space.weights) == {
            Weight(0, 0),
            Weight(0, 1),
            Weight(-1, -1),
        }
        assert model.local_models == ()


class TestAnalysis:
    @pytest.fixture
    def checks(self, monkeypatch):
        """Records every call of check_momentum_polytope, in every module
        that binds the name."""
        calls = []
        original = mompoly.classify.check_momentum_polytope

        def counting(polygon):
            calls.append(polygon)
            return original(polygon)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mompoly" and (
                getattr(module, "check_momentum_polytope", None) is original
            ):
                monkeypatch.setattr(module, "check_momentum_polytope", counting)
        return calls

    def test_full_report_checks_once(self, checks):
        woodward = [(0, 0), (1, 0), (0, -1), (3, -1)]
        one_wall_triangle = [(0, 0), (1, -1), (4, -3)]
        for coords in (woodward, one_wall_triangle):
            checks.clear()
            doc = full_report([RationalPoint.of(x, y) for x, y in coords])
            assert doc["valid"] is True
            assert len(checks) == 1, coords

    def test_full_report_computes_each_fact_once(self, monkeypatch):
        calls = Counter()
        methods = ("t_polytope", "vertex_rays")
        for name in methods:
            def counting(self, *args, _name=name, _original=getattr(Polygon, name)):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(Polygon, name, counting)

        def counter(name, original):
            def counting(*args):
                calls[name] += 1
                return original(*args)
            return counting

        monkeypatch.setattr(mompoly.polygon, "primitive_int_ray",
                            counter("edge_rays", mompoly.polygon.primitive_int_ray))
        monkeypatch.setattr(mompoly.kaehler, "on_boundary",
                            counter("on_boundary", mompoly.kaehler.on_boundary))
        monkeypatch.setattr(mompoly.kaehler, "t_hull", counter("t_hull", mompoly.kaehler.t_hull))
        monkeypatch.setattr(mompoly.polygon, "int_hull",
                            counter("int_hull", mompoly.polygon.int_hull))
        monkeypatch.setattr(RationalPoint, "__new__",
                            counter("points_built", RationalPoint.__new__))
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mompoly" and hasattr(module, "weyl_reflect"):
                monkeypatch.setattr(module, "weyl_reflect",
                                    counter("weyl_reflect", module.weyl_reflect))
        formatted = []
        scalar = mompoly.report._scalar
        monkeypatch.setattr(mompoly.report, "_scalar",
                            lambda c, scale: formatted.append(c) or scalar(c, scale))
        # (coordinates, boundary tests): an image at a corner of the
        # T-polytope needs no test.  The Woodward quadrilateral's fourth
        # image in their order is the first one at no corner, and it lies
        # off the boundary; of the triangle's five images only the wall
        # vertex is at no corner.
        woodward = ([(0, 0), (1, 0), (0, -1), (3, -1)], 1)
        one_wall_triangle = ([(0, 0), (1, -1), (4, -3)], 1)
        for coords, tests in (woodward, one_wall_triangle):
            points = [RationalPoint.of(x, y) for x, y in coords]
            calls.clear()
            formatted.clear()
            doc = full_report(points)
            assert doc["xray"]["strata"], coords
            n = len(coords)
            # One T-hull, on int pairs, which takes no second monotone chain
            # besides the polygon's own hull; the primitive ray of each edge
            # once; one boundary test per image at no corner until the
            # first one off the boundary.  The validity check, the
            # Kaehler verdict, the x-ray and a triangle's mod-3 residue read
            # the rays by index, so vertex_rays is not asked.
            assert [calls[m] for m in methods] == [0, 0], coords
            assert (calls["t_hull"], calls["int_hull"]) == (1, 1), coords
            assert calls["on_boundary"] == tests, coords
            assert calls["edge_rays"] == n, coords
            # No point is built: the fixpoint images, the T-hull and the
            # x-ray are int pairs.
            assert calls["weyl_reflect"] == calls["points_built"] == 0, coords
            # The coordinate table formats each distinct coordinate once.
            assert sorted(formatted) == sorted({c for xy in coords for c in xy}), coords

    def test_full_report_computes_mod3_residue_once(self, monkeypatch):
        # _chern_mod3 is the one formula of the residue, read by diff_type
        # and chern_mod3_at_vertex.
        calls = []
        original = mompoly.difftype._chern_mod3

        def counting(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mompoly" and (
                getattr(module, "_chern_mod3", None) is original
            ):
                monkeypatch.setattr(module, "_chern_mod3", counting)
        doc = full_report([RationalPoint.of(x, y) for x, y in ((0, 0), (1, -1), (4, -3))])
        assert doc["diffeo_type"] == {"type": "trivial_p2_bundle", "chern_mod3": 0}
        assert len(calls) == 1

    def test_full_report_builds_each_edge_once(self, monkeypatch):
        built = []
        original = Edge.__new__

        def counting(cls, *args):
            built.append(args)
            return original(cls, *args)

        counters = []
        monkeypatch.setattr(Edge, "__new__", counting)
        monkeypatch.setattr(mompoly.kaehler, "Counter",
                            lambda *args: counters.append(args) or Counter(*args))
        woodward = [(0, 0), (1, 0), (0, -1), (3, -1)]
        one_wall_triangle = [(0, 0), (1, -1), (4, -3)]
        # The Kähler verdict builds the polygon's edges only to return a
        # witness: Woodward's, not the Kähler triangle's.  The report reads
        # and the drawing read the fixpoint images from the Analysis and
        # build no Counter.
        for coords, edges in ((woodward, 4), (one_wall_triangle, 0)):
            built.clear()
            doc = full_report([RationalPoint.of(x, y) for x, y in coords])
            assert doc["kaehler"]["verdict"] is (edges == 0), coords
            assert len(built) == edges, coords
        render_svg(P(*woodward), ("xray", "fixpoints"))
        assert counters == []

    def test_census_formats_no_reason(self, monkeypatch):
        # The census reads only the verdicts; a rejection reason, which
        # formats the failing vertex, is built only when it is read.
        formatted = []
        original = RationalPoint.__repr__

        def counting(self):
            formatted.append(self)
            return original(self)

        monkeypatch.setattr(RationalPoint, "__repr__", counting)
        for shape in ("triangles", "all"):
            summary = run_census(2, shape=shape)
            assert summary.total > summary.valid > 0
        assert formatted == []

    def test_queries_take_an_analysis(self, checks):
        woodward = P((0, 0), (1, 0), (0, -1), (3, -1))
        analysis = analyze(woodward)
        assert analyze(analysis) is analysis
        assert is_kaehlerizable(analysis) == is_kaehlerizable(woodward)
        assert len(checks) == 2

    def test_render_svg_checks_once(self, checks):
        woodward = P((0, 0), (1, 0), (0, -1), (3, -1))
        svg = render_svg(woodward, ("xray", "fixpoints"))
        assert "<circle" in svg and 'stroke="crimson"' in svg
        with pytest.raises(ValueError, match="unknown overlay"):
            render_svg(woodward, ("xray", "shading"))
        assert len(checks) == 1
