"""Kählerizability, torus fixpoint images and x-rays.

A valid momentum polytope with exactly one wall vertex is Kählerizable
iff every positive edge (inward normal pairing positively with the
coroot) contains the wall vertex; with zero or two wall vertices there
is no obstruction.  The equivalent criterion — all maximal-torus
fixpoint images on the boundary of the T-momentum polytope — and the
x-ray of the torus action are computed as independent data.

The queries read the validity report and the polygon by index; the
verdict builds an Edge only for its witness.  The criterion itself is
obstructing_edge, on the wall flags and edge rays of the vertices, which
the census also reads off a ray signature.  The fixpoint images are
`Analysis.fixpoints`, int pairs on the polygon's grid with their
multiplicities; fixpoint_images builds a fresh Counter of their points
on every call.  The T-polytope and the x-ray are built on the polygon's
int pairs, where the Weyl reflection swaps a pair: the boundary check
tests the images' int pairs against the linear int-pair hull `t_hull`,
looking each up among the hull's corners before any binary search,
a Stratum keeps the int pairs of its ends, and an XRay only its strata.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import Optional, Sequence

from .classify import Analysis, PolygonLike, analyze, require_valid
from .errors import UnsupportedPolytopeError
from .lattice import RationalPoint, Value, Weight
from .polygon import Edge, IntPair, form_point, on_boundary, t_hull


def obstructing_edge(on_wall: Sequence[bool], rays: Sequence[Weight]) -> Optional[int]:
    """The Kähler criterion on a valid polygon's counterclockwise vertices,
    with on_wall[k] whether vertex k is on the wall and rays[k] = (a, b) the
    primitive ray of edge k, from vertex k to vertex k + 1 (mod n): the
    first positive edge (its inward normal (-b, a) pairs with the coroot
    as -(a + b) > 0) that does not contain the one wall vertex, or None.
    With zero or two wall vertices the criterion is vacuous: None."""
    if on_wall.count(True) != 1:
        return None
    w = on_wall.index(True)
    n = len(rays)
    for k, (a, b) in enumerate(rays):
        if a + b < 0 and w != k and w != (k + 1) % n:
            return k
    return None


def is_kaehlerizable(polygon: PolygonLike) -> tuple[bool, Optional[Edge]]:
    """Kähler verdict with a violating positive edge as witness when false:
    the edge obstructing_edge names."""
    analysis = require_valid(polygon)
    polygon = analysis.polygon
    k = obstructing_edge([va.on_wall for va in analysis.report.vertex_data],
                         [r for r, _ in polygon.rays])
    return (True, None) if k is None else (False, polygon.edges()[k])


def fixpoint_images(polygon: PolygonLike) -> Counter:
    """Multiset of T-momentum images of the T-fixpoints.

    Interior vertices contribute themselves and their reflection; wall
    vertices contribute `fixpoints` of their type: wall-edge once,
    half-reflection twice, reflection not at all.  The points are built
    from the int pairs of `Analysis.fixpoints` on every call.
    """
    analysis = analyze(polygon)
    scale = analysis.polygon.scale
    return Counter({form_point(q, scale): m for q, m in analysis.fixpoints})


def _wall_vertex(analysis: Analysis) -> int:
    wall = [i for i, va in enumerate(analysis.report.vertex_data) if va.on_wall]
    if len(wall) != 1:
        raise UnsupportedPolytopeError(
            f"operation needs exactly one wall vertex, found {len(wall)}"
        )
    return wall[0]


def fixpoint_boundary_check(polygon: PolygonLike) -> bool:
    """True iff every fixpoint image lies on the boundary of the T-polytope.

    Requires a valid polytope with exactly one wall vertex; equivalent to
    Kählerizability in that case (see atiyah_cross_check).  An image at a
    corner of the T-polytope lies on its boundary, so only the others
    are tested with on_boundary.
    """
    analysis = require_valid(polygon)
    _wall_vertex(analysis)
    xy = t_hull(analysis.polygon.xy)
    corners = set(xy)
    return all(q in corners or on_boundary(xy, q) for q, _ in analysis.fixpoints)


def atiyah_cross_check(polygon: PolygonLike) -> bool:
    """Self-test: the positive-edge verdict and the fixpoint-boundary
    criterion must agree on every valid one-wall-vertex polytope."""
    analysis = analyze(polygon)
    verdict, _ = is_kaehlerizable(analysis)
    return verdict == fixpoint_boundary_check(analysis)


class Stratum(Value, namedtuple("Stratum", "xy scale dimension")):
    """A segment of the x-ray as the int pairs xy of its ends on the
    polygon's grid, whose coordinates are integers over scale; its
    dimension is 2 or 4."""

    __slots__ = ()

    @property
    def segment(self) -> tuple[RationalPoint, RationalPoint]:
        """The ends as points, built on every read."""
        return tuple([form_point(q, self.scale) for q in self.xy])


class XRay(Value, namedtuple("XRay", "strata")):
    """The strata of an x-ray."""

    __slots__ = ()


def build_xray(polygon: PolygonLike) -> XRay:
    """X-ray of the maximal-torus action for a valid polytope with exactly
    one wall vertex v0.

    Vertices are labeled v0..vn clockwise from the wall vertex; v' denotes
    the reflected point.  Strata:

    * chords (v_j, v_j') for j = 1..n, dimension 4 when an edge of the
      polygon at v_j is parallel to alpha, else 2; chords through v0 are
      kept as single segments;
    * rule "all_edges" (half-reflection wall vertex): all boundary edges
      not parallel to alpha, together with their reflections;
    * rule "inner_edges_and_cross" (reflection wall vertex): boundary
      edges (v_j, v_{j+1}) for j = 1..n-1 not parallel to alpha, their
      reflections, and the two cross segments (v_n, v_1') and (v_1, v_n').

    The rule is the `xray` of the wall vertex's type.  Wall-vertex counts
    other than 1 are refused: the construction is defined only for the
    one-wall-vertex case.  That case never has a wall-edge vertex, whose
    edge along +-(eps1+eps2) ends at a second wall vertex, so the rule is
    always one of the two above.
    """
    analysis = require_valid(polygon)
    polygon = analysis.polygon
    i0 = _wall_vertex(analysis)
    rule = analysis.report.vertex_data[i0].wall_type.xray

    # Clockwise labels from the wall vertex (vertices are stored CCW), as
    # int pairs on the polygon's grid: the reflection v' of a label v is the
    # swapped pair v[::-1].  The second ray at a vertex points to the next
    # label, so parallel[j] says whether the edge (labels[j], labels[j + 1])
    # is parallel to alpha: a primitive ray is +-alpha iff a + b == 0.
    n_total = len(polygon)
    at = [(i0 - t) % n_total for t in range(n_total)]
    labels = [polygon.xy[i] for i in at]
    rays = polygon.rays
    parallel = [rays[i][1].a + rays[i][1].b == 0 for i in at]
    n = n_total - 1
    scale, new = polygon.scale, tuple.__new__

    strata: list[Stratum] = []
    for j in range(1, n + 1):
        v = labels[j]
        dim = 4 if parallel[j - 1] or parallel[j] else 2
        strata.append(new(Stratum, ((v, v[::-1]), scale, dim)))

    edge_range = range(0, n_total) if rule == "all_edges" else range(1, n)
    boundary: list[tuple[IntPair, IntPair]] = []
    for j in edge_range:
        if not parallel[j]:
            boundary.append((labels[j], labels[(j + 1) % n_total]))
    for a, b in boundary:
        strata.append(new(Stratum, ((a, b), scale, 2)))
    for a, b in boundary:
        strata.append(new(Stratum, ((a[::-1], b[::-1]), scale, 2)))

    if rule == "inner_edges_and_cross":
        strata.append(new(Stratum, ((labels[n], labels[1][::-1]), scale, 2)))
        strata.append(new(Stratum, ((labels[1], labels[n][::-1]), scale, 2)))

    return XRay(tuple(strata))
