from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mompoly.errors import ChamberError, GeometryError
from mompoly.lattice import RationalPoint, Weight, coroot_pairing, cross, weyl_reflect
from mompoly.classify import analyze, require_chamber
from mompoly.polygon import (
    Edge,
    Polygon,
    _on_segment,
    convex_hull,
    int_hull,
    integer_form,
    on_boundary,
    t_hull,
)

from oracle import boundary_contains, inward_primitive_normal, transform

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
points = st.builds(RationalPoint, rationals, rationals)
point_lists = st.lists(points, min_size=1, max_size=10)


def P(*coords):
    return convex_hull([RationalPoint.of(x, y) for x, y in coords])


@given(point_lists)
def test_hull_idempotent_and_contains_input(pts):
    hull = convex_hull(pts)
    assert convex_hull(hull.vertices).vertices == hull.vertices
    assert all(hull.contains(p) for p in pts)


@given(point_lists)
def test_hull_orientation_and_start(pts):
    hull = convex_hull(pts)
    vs = hull.vertices
    assert vs[0] == min(vs)
    if len(vs) >= 3:
        n = len(vs)
        for i in range(n):
            a, b, c = vs[i], vs[(i + 1) % n], vs[(i + 2) % n]
            assert cross(b - a, c - b) > 0  # strictly convex, CCW


def test_hull_degenerate():
    single = convex_hull([RationalPoint.of(1, 1)] * 3)
    assert single.vertices == (RationalPoint.of(1, 1),)
    assert single.dimension() == 0
    seg = P((0, 0), (1, 1), (2, 2), (3, 3))
    assert seg.vertices == (RationalPoint.of(0, 0), RationalPoint.of(3, 3))
    assert seg.dimension() == 1
    assert seg.contains(RationalPoint.of("1/2", "1/2"))
    assert not seg.contains(RationalPoint.of(4, 4))
    for degenerate in (single, seg):
        with pytest.raises(GeometryError, match="2-dimensional"):
            degenerate.rays
        with pytest.raises(ValueError, match="2-dimensional"):
            boundary_contains(degenerate, RationalPoint.of(1, 1))


def test_hull_drops_edge_midpoints():
    hull = P((0, 0), (2, 0), (1, 0), (0, 2), (1, 1))
    assert hull.vertices == (
        RationalPoint.of(0, 0),
        RationalPoint.of(2, 0),
        RationalPoint.of(0, 2),
    )


def test_polygon_keeps_a_tuple_of_its_own():
    """A list or a generator of a valid cycle gives the polygon that
    convex_hull gives, equal and hash-equal, and a later change to the
    list leaves it as it was."""
    points = [RationalPoint.of(0, 0), RationalPoint.of(3, 2), RationalPoint.of(1, 1)]
    hull = convex_hull(points)
    for polygon in (Polygon(points), Polygon(iter(points))):
        assert polygon == hull and hash(polygon) == hash(hull)
        assert type(polygon.vertices) is tuple
    polygon = Polygon(points)
    points.append(RationalPoint.of(5, 5))
    assert polygon.vertices == hull.vertices and len(polygon) == len(polygon.xy) == 3


def test_vertex_rays_example():
    hull = P((0, 0), (1, 0), (0, -1), (3, -1))
    r1, r2 = hull.vertex_rays(RationalPoint.of(1, 0))
    assert {r1, r2} == {Weight(-1, 0), Weight(2, -1)}
    with pytest.raises(GeometryError):
        hull.vertex_rays(RationalPoint.of(5, 5))


def test_inward_normal():
    hull = P((0, 0), (1, 0), (0, -1), (3, -1))
    edge = Edge(RationalPoint.of(3, -1), RationalPoint.of(1, 0))
    assert inward_primitive_normal(hull, edge) == (-1, -2)
    with pytest.raises(ValueError):
        inward_primitive_normal(hull, Edge(RationalPoint.of(0, 0), RationalPoint.of(9, 9)))


def test_chamber_and_wall_vertices():
    hull = P((0, 0), (1, 0), (0, -1))
    require_chamber(hull.xy)
    wall = [va.vertex for va in analyze(hull).report.vertex_data if va.wall_type is not None]
    assert wall == [RationalPoint.of(0, 0)]
    outside = P((0, 1), (1, 0), (0, 0))
    with pytest.raises(ChamberError):
        require_chamber(outside.xy)
    with pytest.raises(ChamberError):
        analyze(outside)


def test_t_polytope_example():
    hull = P((0, 0), (1, 0), (0, -1), (3, -1))
    tp = hull.t_polytope()
    assert set(tp.vertices) == {
        RationalPoint.of(-1, 0),
        RationalPoint.of(0, -1),
        RationalPoint.of(3, -1),
        RationalPoint.of(-1, 3),
    }


@given(point_lists)
def test_t_polytope_symmetric(pts):
    tp = convex_hull(pts).t_polytope()
    assert sorted(tp.reflected().vertices) == sorted(tp.vertices)


def test_t_polytope_is_hull_with_reflection():
    # t_polytope folds any polygon into the chamber before its T-hull.
    for coords in (((0, 0), (1, 0), (0, -1), (3, -1)), ((0, 1), (1, 0), (0, 0)),
                   ((-2, 1), (1, 3)), ((0, 3),), ((1, 1),), ((0, 0), (2, 2))):
        hull = P(*coords)
        reflected = [RationalPoint(v.y, v.x) for v in hull.vertices]
        assert hull.t_polytope().vertices == convex_hull([*hull.vertices, *reflected]).vertices


@st.composite
def _redundant_point_lists(draw):
    """Points with a repeat, the points a third of the way along each hull
    edge and the centroid: duplicate, collinear and interior points whose
    denominators differ from the others'."""
    pts = draw(point_lists)
    vs = convex_hull(pts).vertices
    thirds = [RationalPoint(a.x + (b.x - a.x) / 3, a.y + (b.y - a.y) / 3)
              for a, b in zip(vs, vs[1:] + vs[:1])]
    centroid = RationalPoint(sum(p.x for p in pts) / len(pts), sum(p.y for p in pts) / len(pts))
    return draw(st.permutations([*pts, *thirds, centroid, pts[0]]))


@given(_redundant_point_lists())
@example([RationalPoint.of("1/2", "1/3"), RationalPoint.of(1, 1), RationalPoint.of("3/4", "2/3")])
def test_reflected_is_the_hull_of_the_reflected_vertices(pts):
    """reflected() has the vertices of the hull of the reflected vertices,
    and its int pairs on the polygon's own grid."""
    polygon = convex_hull(pts)
    reflected = polygon.reflected()
    assert reflected.vertices == convex_hull([weyl_reflect(v) for v in polygon.vertices]).vertices
    assert reflected.scale == polygon.scale
    assert reflected.xy == int_hull([(y, x) for x, y in polygon.xy])
    assert reflected.reflected().xy == polygon.xy


@given(_redundant_point_lists(), st.integers(1, 6))
def test_hull_keeps_the_callers_points_on_any_common_grid(pts, k):
    """Polygon._hull on the points' integer form scaled by k is their
    convex_hull, with the caller's own point objects as its vertices and
    the int_hull of their distinct int pairs as its xy."""
    scale, xy = integer_form(pts)
    pairs = [(k * x, k * y) for x, y in xy]
    polygon = Polygon._hull(pts, k * scale, pairs)
    assert polygon.vertices == convex_hull(pts).vertices
    assert all(any(v is p for p in pts) for v in polygon.vertices)
    assert polygon.scale == k * scale
    assert polygon.xy == int_hull(set(pairs))
    assert list(polygon.xy) == [(v.x * k * scale, v.y * k * scale) for v in polygon.vertices]


# int_hulls of pairs folded into the chamber x >= y.  On a small grid,
# wall vertices, edges perpendicular to the wall, ties of x + y and
# collinear sets are common.
_chamber_hulls = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=1, max_size=9).map(
    lambda pairs: int_hull({(max(q), min(q)) for q in pairs}))


@given(_chamber_hulls)
@example(((0, 0),))                                        # one pair on the wall
@example(((3, -1),))                                       # one pair off it
@example(int_hull({(0, 0), (2, 2)}))                       # a segment on the wall
@example(int_hull({(1, -1), (3, -3)}))                     # a segment across it
@example(int_hull({(1, 1), (4, -1)}))                      # a segment from it
@example(int_hull({(0, 0), (1, 0), (2, 0)}))               # collinear pairs
@example(int_hull({(-1, -1), (0, -2), (4, -2), (3, 1), (2, 2)}))  # ties at lo and hi
def test_t_hull_is_int_hull_with_swaps(xy):
    """The linear T-hull equals the monotone chain of the pairs and their swaps."""
    assert t_hull(xy) == int_hull({*xy, *[(y, x) for x, y in xy]})


def test_transform():
    hull = P((0, 0), (1, 0), (0, -1))
    out = transform(hull, 1, Fraction(1, 2))
    assert set(out.vertices) == {
        RationalPoint.of(1, 1),
        RationalPoint.of("3/2", 1),
        RationalPoint.of(1, "1/2"),
    }
    with pytest.raises(ValueError, match="positive"):
        transform(hull, 0, 0)


def test_boundary_contains():
    hull = P((0, 0), (2, 0), (0, 2))
    assert boundary_contains(hull, RationalPoint.of(1, 0))
    assert boundary_contains(hull, RationalPoint.of(1, 1))
    assert not boundary_contains(hull, RationalPoint.of("1/2", "1/2"))
    assert not boundary_contains(hull, RationalPoint.of(5, 5))


int_pairs = st.tuples(st.integers(-48, 48), st.integers(-48, 48))


@given(st.lists(int_pairs, min_size=3, max_size=30), st.data())
def test_on_boundary_agrees_with_testing_every_edge(pairs, data):
    """A vertex, a point on the line through two vertices (on an edge, on a
    chord or past its ends) and any point, against a test of every edge."""
    hull = convex_hull([RationalPoint.of(x, y) for x, y in pairs])
    if len(hull) < 3:
        return
    xy = [(4 * x, 4 * y) for x, y in hull.xy]
    (ax, ay), (bx, by) = data.draw(st.sampled_from(xy)), data.draw(st.sampled_from(xy))
    k = data.draw(st.integers(-1, 5))
    for q in ((ax, ay), (ax + k * (bx - ax) // 4, ay + k * (by - ay) // 4), data.draw(int_pairs)):
        expected = any(_on_segment(a, b, q) for a, b in zip(xy, xy[1:] + xy[:1]))
        assert on_boundary(xy, q) == expected, (xy, q)


@given(point_lists)
def test_edges_close_up(pts):
    hull = convex_hull(pts)
    for e in hull.edges():
        assert e.tail in hull.vertices and e.head in hull.vertices
    if len(hull) >= 3:
        assert sum((coroot_pairing(e.head - e.tail) for e in hull.edges()), Fraction(0)) == 0


def test_polygon_refuses_reversed_vertices():
    # Taken as given, clockwise Woodward vertices would be reported valid
    # with the Kähler witness (3,-1)->(0,-1) instead of (3,-1)->(1,0).
    woodward = P((0, 0), (1, 0), (0, -1), (3, -1))
    with pytest.raises(GeometryError):
        Polygon(tuple(reversed(woodward.vertices)))
    rotated = woodward.vertices[1:] + woodward.vertices[:1]
    with pytest.raises(GeometryError):
        Polygon(rotated)
    assert Polygon(woodward.vertices) == woodward


def test_polygon_refuses_repeated_vertex():
    # Taken as given, a repeated vertex would reach the ray computation and
    # fail there with a bare ValueError.
    with pytest.raises(GeometryError):
        analyze(Polygon(tuple(RationalPoint.of(x, y) for x, y in ((0, 0), (0, 0), (1, 0)))))
    for bad in (((1, 0), (0, 0)), ((1, 1), (1, 1)), ()):
        with pytest.raises(GeometryError):
            Polygon(tuple(RationalPoint.of(x, y) for x, y in bad))


def test_polygon_refuses_non_convex_and_doubly_wound():
    # A left turn at every vertex is not enough: the pentagram order winds twice.
    pentagon = P((0, 0), (2, -1), (3, 1), (1, 3), (-1, 1))
    v = pentagon.vertices
    for bad in ((v[0], v[2], v[4], v[1], v[3]), (v[0], v[1], RationalPoint.of(1, 0), v[2])):
        with pytest.raises(GeometryError):
            Polygon(bad)


@given(point_lists, st.data())
def test_polygon_accepts_exactly_its_hull(pts, data):
    # A rotation, a reversal, or the hull with one more point that is not
    # extreme: the midpoint of two vertices, or a repeated vertex.
    hull = convex_hull(pts).vertices
    n = len(hull)
    how = data.draw(st.sampled_from(("rotate", "reverse", "insert")))
    if how == "rotate":
        k = data.draw(st.integers(0, n - 1))
        t = hull[k:] + hull[:k]
    elif how == "reverse":
        t = hull[::-1]
    else:
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        mid = RationalPoint((hull[a].x + hull[b].x) / 2, (hull[a].y + hull[b].y) / 2)
        i = data.draw(st.integers(0, n))
        t = hull[:i] + (mid,) + hull[i:]
    if t == hull:
        assert Polygon(t) == convex_hull(pts)
    else:
        with pytest.raises(GeometryError):
            Polygon(t)
