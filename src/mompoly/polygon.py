"""Exact convex polygon computations in t*.

A Polygon stores its extreme points only, in counterclockwise order,
starting at the lexicographically smallest vertex.  Degenerate hulls
(a single point or a segment) are permitted; operations that need a
2-dimensional polygon say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ChamberError, GeometryError
from .lattice import (
    ALPHA,
    RationalLike,
    RationalPoint,
    Weight,
    coroot_pairing,
    cross,
    primitive_ray,
    weyl_reflect,
)


@dataclass(frozen=True)
class Edge:
    """Directed edge between consecutive vertices (counterclockwise)."""

    tail: RationalPoint
    head: RationalPoint

    def direction(self) -> RationalPoint:
        return self.head - self.tail

    def contains(self, p: RationalPoint) -> bool:
        d = self.direction()
        w = p - self.tail
        if cross(d, w) != 0:
            return False
        t = d.x * w.x + d.y * w.y
        return 0 <= t <= d.x * d.x + d.y * d.y


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[RationalPoint, ...]

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
        return tuple(Edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))

    def vertex_rays(self, v: RationalPoint) -> tuple[Weight, Weight]:
        """Primitive rays of the cone spanned by the polygon at the vertex v.

        The first ray points along the edge following v in counterclockwise
        order, the second along the edge preceding it.
        """
        if self.dimension() != 2:
            raise GeometryError("vertex rays need a 2-dimensional polygon")
        try:
            i = self.vertices.index(v)
        except ValueError:
            raise GeometryError(f"{v} is not a vertex") from None
        n = len(self.vertices)
        nxt = self.vertices[(i + 1) % n]
        prv = self.vertices[(i - 1) % n]
        return primitive_ray(nxt - v), primitive_ray(prv - v)

    def inward_primitive_normal(self, e: Edge) -> Weight:
        """Primitive lattice vector perpendicular to e pointing into the polygon."""
        if self.dimension() != 2:
            raise GeometryError("normals need a 2-dimensional polygon")
        if e not in self.edges():
            raise GeometryError(f"{e} is not an edge")
        d = e.direction()
        # Interior lies to the left of every counterclockwise edge.
        return primitive_ray(RationalPoint(-d.y, d.x))

    def is_in_chamber(self) -> bool:
        return all(coroot_pairing(v) >= 0 for v in self.vertices)

    def wall_vertices(self) -> list[RationalPoint]:
        """Vertices on the wall x = y, in counterclockwise order."""
        if not self.is_in_chamber():
            raise ChamberError("polygon leaves the dominant chamber")
        return [v for v in self.vertices if coroot_pairing(v) == 0]

    def boundary_contains(self, p: RationalPoint) -> bool:
        if self.dimension() != 2:
            raise GeometryError("boundary test needs a 2-dimensional polygon")
        return any(e.contains(p) for e in self.edges())

    def contains(self, p: RationalPoint) -> bool:
        """Membership in the (closed) convex hull, any dimension."""
        if len(self.vertices) == 1:
            return p == self.vertices[0]
        if len(self.vertices) == 2:
            return Edge(self.vertices[0], self.vertices[1]).contains(p)
        return all(cross(e.direction(), p - e.tail) >= 0 for e in self.edges())

    def reflected(self) -> "Polygon":
        return convex_hull([weyl_reflect(v) for v in self.vertices])

    def t_polytope(self) -> "Polygon":
        """Hull of the polygon together with its Weyl reflection."""
        pts = list(self.vertices) + [weyl_reflect(v) for v in self.vertices]
        return convex_hull(pts)

    def transform(self, s: RationalLike, t: RationalLike) -> "Polygon":
        """Vertex-wise map v -> s*(eps1+eps2) + t*v; t must be positive."""
        s, t = Fraction(s), Fraction(t)
        if t <= 0:
            raise GeometryError("scale factor must be positive")
        return Polygon(
            tuple(RationalPoint(s + t * v.x, s + t * v.y) for v in self.vertices)
        )


def convex_hull(points: Iterable[RationalPoint]) -> Polygon:
    """Convex hull, counterclockwise, lexicographically smallest vertex first.

    Duplicates and non-extreme points (including interior points of edges)
    are dropped.
    """
    pts: Sequence[RationalPoint] = sorted(set(points))
    if not pts:
        raise GeometryError("convex hull of an empty point set")
    if len(pts) == 1:
        return Polygon((pts[0],))

    def chain(seq):
        out: list[RationalPoint] = []
        for p in seq:
            while len(out) > 1 and cross(out[-1] - out[-2], p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    if len(lower) == 2 and len(upper) == 2:
        # Collinear input: keep the two endpoints.
        return Polygon((pts[0], pts[-1]))
    return Polygon(tuple(lower[:-1] + upper[:-1]))


def triangle(a: RationalPoint, b: RationalPoint, c: RationalPoint) -> Polygon:
    p = convex_hull([a, b, c])
    if len(p) != 3:
        raise GeometryError("points are affinely dependent")
    return p


def is_parallel_to_wall_root(d: RationalPoint) -> bool:
    """True iff the direction d is parallel to alpha = eps1 - eps2."""
    return not d.is_zero() and cross(d, ALPHA.to_point()) == 0
