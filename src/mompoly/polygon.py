"""Exact convex polygon computations in t*.

A Polygon stores its extreme points only, in counterclockwise order,
starting at the lexicographically smallest vertex: the constructor
accepts a vertex tuple exactly when convex_hull, the one hull entry
point, returns it unchanged.
Degenerate hulls (a single point or a segment) are permitted;
operations that need a 2-dimensional polygon say so.

A positive scaling about the origin changes none of the lattice facts
of a polygon: its primitive rays and normals, the lexicographic order
of its vertices, the sign of every cross product, the chamber x >= y
and the wall x = y.  So each polygon computes its integer form once, a
common denominator `scale` of its coordinates and its vertices times
`scale` as int pairs `xy`, and reads those facts from it with integer
arithmetic.  A point tested against a polygon joins its vertices on
one grid through integer_form; int pairs that already lie on the
polygon's grid are tested with on_boundary.  Hulls are taken on int
pairs by int_hull, the one monotone chain, which convex_hull runs on the
integer form of its points.  The T-polytope, the hull of a polygon and
its Weyl reflection, is taken by t_hull in linear time: on a
counterclockwise cycle of int pairs in the chamber, it joins the arc
facing away from the wall to its mirror image, the swapped pairs.  A
polygon's reflection and its T-polytope keep its scale, so their int
pairs lie on its grid.

The tuples a polygon keeps are built from lists, not from generators.
CPython builds a tuple from a generator by resizing it, so when it is
freed it joins the free list of a size it was not taken from.  Those
lists keep up to 2,000 tuples per size until a full garbage collection,
which a long run of reports seldom triggers, and so they raise the
peak memory.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import GeometryError
from .lattice import RationalPoint, Value, Weight, primitive_int_ray

IntPair = tuple[int, int]


def integer_form(points: Sequence[RationalPoint]) -> tuple[int, list[IntPair]]:
    """The lcm of the points' denominators, and the points times it as int pairs."""
    scale = math.lcm(*[c.denominator for xy in points for c in xy])
    return scale, [
        (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
        for x, y in points
    ]


def _turn(a: IntPair, b: IntPair, c: IntPair) -> int:
    """Cross product of b - a and c - a: positive iff a, b, c turn left."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_segment(a: IntPair, b: IntPair, p: IntPair) -> bool:
    """True iff the point p lies on the closed segment from a to b."""
    dx, dy, wx, wy = b[0] - a[0], b[1] - a[1], p[0] - a[0], p[1] - a[1]
    return dx * wy - dy * wx == 0 and 0 <= dx * wx + dy * wy <= dx * dx + dy * dy


class Edge(Value, namedtuple("Edge", "tail head")):
    """Directed edge between consecutive vertices (counterclockwise)."""

    __slots__ = ()


class Polygon:
    """An immutable polygon, equal to another by its vertices alone.  It
    keeps its integer form (see the module docstring) as `scale` and `xy`."""

    __setattr__, __delattr__ = Value.__setattr__, Value.__delattr__

    def __init__(self, vertices: Iterable[RationalPoint]):
        vertices = tuple(vertices)
        hull = convex_hull(vertices)
        if hull.vertices != vertices:
            raise GeometryError(
                "vertices are not the extreme points of a convex polytope in counterclockwise "
                "order from the lexicographically smallest one"
            )
        self.__dict__.update(vertices=vertices, scale=hull.scale, xy=hull.xy)

    @classmethod
    def _from_form(cls, vertices: tuple[RationalPoint, ...], scale: int,
                   xy: tuple[IntPair, ...]) -> "Polygon":
        """The polygon of vertices that hull_of_form or int_hull has put
        in the required order, with their integer form on any common
        scale; nothing is checked again."""
        polygon = object.__new__(cls)
        polygon.__dict__.update(vertices=vertices, scale=scale, xy=xy)
        return polygon

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((self.vertices,))

    def __repr__(self) -> str:
        return f"Polygon(vertices={self.vertices!r})"

    def __len__(self) -> int:
        return len(self.vertices)

    def dimension(self) -> int:
        """Affine dimension of the vertex set: 0, 1 or 2."""
        n = len(self.vertices)
        return min(n - 1, 2)

    def edges(self) -> tuple[Edge, ...]:
        """Counterclockwise boundary edges (empty for points, one for segments)."""
        vs = self.vertices
        if len(vs) == 1:
            return ()
        if len(vs) == 2:
            return (Edge(vs[0], vs[1]),)
        return tuple([Edge(a, b) for a, b in zip(vs, vs[1:] + vs[:1])])

    @cached_property
    def rays(self) -> tuple[tuple[Weight, Weight], ...]:
        """vertex_rays of every vertex, in vertex order."""
        if self.dimension() != 2:
            raise GeometryError("vertex rays need a 2-dimensional polygon")
        return tuple(list(int_rays(self.xy)))

    def vertex_rays(self, v: RationalPoint) -> tuple[Weight, Weight]:
        """Primitive rays of the cone spanned by the polygon at the vertex v.

        The first ray points along the edge following v in counterclockwise
        order, the second along the edge preceding it.
        """
        rays = self.rays
        try:
            return rays[self.vertices.index(v)]
        except ValueError:
            raise GeometryError(f"{v} is not a vertex") from None

    def contains(self, p: RationalPoint) -> bool:
        """Membership in the (closed) convex hull, any dimension."""
        if len(self.vertices) == 1:
            return p == self.vertices[0]
        _, (*xy, q) = integer_form([*self.vertices, p])
        if len(xy) == 2:
            return _on_segment(xy[0], xy[1], q)
        return all(_turn(a, b, q) >= 0 for a, b in zip(xy, xy[1:] + xy[:1]))

    def reflected(self) -> "Polygon":
        """The Weyl reflection of the polygon: the int_hull of its swapped
        int pairs.  Like t_polytope, it is built on the polygon's scale,
        so its xy lies on the polygon's grid."""
        return self._on_grid(int_hull([(y, x) for x, y in self.xy]))

    def t_polytope(self) -> "Polygon":
        """Hull of the polygon together with its Weyl reflection, on the
        polygon's scale.  Each vertex or its reflection lies in the
        chamber, and the hull of those folded int pairs has the same
        T-polytope, its t_hull."""
        return self._on_grid(t_hull(int_hull({(max(q), min(q)) for q in self.xy})))

    def _on_grid(self, xy: tuple[IntPair, ...]) -> "Polygon":
        """The polygon whose int pairs on this polygon's scale are xy, as
        int_hull orders them."""
        scale = self.scale
        return Polygon._from_form(tuple([form_point(q, scale) for q in xy]), scale, xy)


def hull_of_form(
    points: Sequence[RationalPoint], xy: Sequence[IntPair],
) -> tuple[tuple[RationalPoint, ...], tuple[IntPair, ...]]:
    """The convex hull of points whose integer form on some scale is xy:
    the hull's vertices, counterclockwise from the lexicographically
    smallest, and their int pairs (see int_hull)."""
    at = dict(zip(xy, points))
    hull = int_hull(at)
    return tuple([at[q] for q in hull]), hull


def int_hull(xy: Iterable[IntPair]) -> tuple[IntPair, ...]:
    """The convex hull of distinct int pairs by the monotone chain: its
    vertices, counterclockwise from the lexicographically smallest."""
    pts = sorted(xy)
    if not pts:
        raise GeometryError("convex hull of an empty point set")
    if len(pts) == 1:
        return (pts[0],)

    def chain(seq):
        # Pops the last pair while out[-2], out[-1], p do not turn left (_turn).
        out: list[IntPair] = []
        for p in seq:
            px, py = p
            while len(out) > 1:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    if len(lower) == 2 and len(upper) == 2:
        # Collinear input: keep the two endpoints.
        return (pts[0], pts[-1])
    return tuple(lower[:-1] + upper[:-1])


def t_hull(xy: Sequence[IntPair]) -> tuple[IntPair, ...]:
    """The int pairs of the T-polytope of a polygon whose int pairs xy are
    a counterclockwise cycle in the chamber x >= y, as int_hull returns
    them: the int_hull of xy and of its Weyl reflection, the swapped
    pairs, in O(n) time.

    The T-polytope is symmetric under the swap, so the two edges that
    cross the wall are chords (v, s v), at lo = the pair of least x + y
    and hi = the pair of greatest x + y, each the one of greatest x - y
    among its ties.  Its boundary is the counterclockwise arc of xy from
    lo to hi and that arc swapped, back from hi to lo; an end on the
    wall is its own swap and is listed once."""
    lo = xy.index(min(xy, key=lambda q: (q[0] + q[1], q[1] - q[0])))
    hi = xy.index(max(xy, key=lambda q: (q[0] + q[1], q[0] - q[1])))
    arc = list(xy[lo:hi + 1] if lo <= hi else xy[lo:] + xy[:hi + 1])
    mirror = [(y, x) for x, y in reversed(arc)]
    if mirror[0] == arc[-1]:
        del mirror[0]
    if mirror and mirror[-1] == arc[0]:
        mirror.pop()
    hull = arc + mirror
    start = hull.index(min(hull))
    return tuple(hull[start:] + hull[:start])


def form_point(q: IntPair, scale: int) -> RationalPoint:
    """The point whose int pair on the grid of `scale` is q."""
    return RationalPoint(Fraction(q[0], scale), Fraction(q[1], scale))


def on_boundary(xy: Sequence[IntPair], q: IntPair) -> bool:
    """True iff the int pair q lies on the boundary of the strictly convex
    counterclockwise cycle xy of three or more int pairs on q's grid.

    The other vertices lie counterclockwise around a = xy[0], within less
    than a half turn.  So q can lie only on the two edges at a, or on the
    edge opposite a in the wedge from a that holds q, which a binary search
    finds with O(log n) turn tests."""
    a = xy[0]
    if _on_segment(a, xy[1], q) or _on_segment(xy[-1], a, q):
        return True
    lo, hi = 1, len(xy) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _turn(a, xy[mid], q) >= 0:
            lo = mid
        else:
            hi = mid
    return _on_segment(xy[lo], xy[hi], q)


def int_rays(xy: Sequence[IntPair]) -> Iterator[tuple[Weight, Weight]]:
    """Yield the primitive rays of the cone at each vertex of a
    counterclockwise cycle of three or more int pairs, in vertex order:
    the first along the edge to the next vertex, the second along the edge
    to the previous one.  Polygon.rays keeps them all."""
    (px, py), (cx, cy) = xy[-1], xy[0]
    # Each edge's ray is computed once: the last vertex's first ray is the
    # first vertex's second one, reversed.
    closing = back = primitive_int_ray(px - cx, py - cy)
    for nx, ny in xy[1:]:
        ahead = primitive_int_ray(nx - cx, ny - cy)
        yield ahead, back
        back = -ahead
        cx, cy = nx, ny
    yield -closing, back


def convex_hull(points: Iterable[RationalPoint]) -> Polygon:
    """Convex hull, counterclockwise from the lexicographically smallest
    vertex, with its integer form.  Duplicates and non-extreme points
    (including interior points of edges) are dropped.  The hull is taken
    on the integer form of the points, whose scaling keeps their
    lexicographic order, and its vertices are the caller's own points."""
    points = list(points)
    scale, xy = integer_form(points)
    vertices, hull = hull_of_form(points, xy)
    return Polygon._from_form(vertices, scale, hull)
