"""Exhaustive census of candidate momentum polytopes on a rational grid.

Enumerates convex polytopes with vertices on the grid
(1/denominator) * [-max_coord, max_coord]^2 intersected with the
dominant chamber, classifies each one, and aggregates counts.  The
candidate order, the per-item stream and all totals are deterministic.
check_census holds each shape to a max-coord with about 10^8 candidates
or fewer (MAX_COORD).

A vertex's condition depends only on whether it lies on the wall and on
the primitive rays to its two neighbours, so a census builds one ray table
per grid: the id of the primitive direction from each grid point to each
other one (132 distinct directions at max-coord 4).  Both enumerators
yield each candidate as a pair (vertices, ccw), with ccw its grid indices
counterclockwise from its smallest vertex, and every candidate is judged
on that index cycle by one routine (_Grid.item), each vertex from its two
ray ids: an interior vertex by their determinant, a wall vertex by its
cone pattern, each verdict memoised on its wall flag and pair of ids.  A
candidate is rejected at its first failing vertex.  An `--shape all`
candidate's ccw is the chain enumerate_convex grew it as; the chain's
newest inner vertex is judged once for every chain that extends it, and
its verdict is kept by position for them, so a candidate is judged in
O(1) and takes no hull.  An invalid candidate gets no Polygon and no
Analysis.

The validity criterion and the triangle families are local, so a valid
candidate's family tag, Kaehler verdict and diff type are functions of
its ray signature: (on_wall, ray id to the next vertex, ray id to the
previous vertex) at each vertex along ccw.  The first valid candidate of
a signature gets an Analysis, handed the report of its vertices' verdicts,
and its fields are kept on the grid; a later one builds no report, Polygon
or Analysis (run_census(4) analyses 128 signatures for 1,070 valid
triangles).  Analysis.family's rebuild check still runs on every valid
triangle: a later triangle of a signature is rebuilt from its own base
vertex and edge scale with the cone rays of the signature's family, on
the grid's int pairs.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple, Optional

from .classify import (
    Analysis,
    ClassificationReport,
    VertexAnalysis,
    WallVertexType,
    base_vertex,
    classify_triangle,
    cone_points,
    edge_scale,
    require_chamber,
    require_rebuild,
    vertex_kind,
)
from .difftype import diffeo_type
from .errors import GeometryError
from .kaehler import is_kaehlerizable
from .lattice import RationalPoint, Weight
from .polygon import Polygon, integer_form


# The largest max-coord of a census, by shape.  Each holds a census to about
# 10^8 candidates, and so also bounds the grid it builds first.  Triangles:
# max-coord 19 has 78,788,060 point triples and 20 has 106,009,190.  All
# convex polytopes: 1,619 / 46,667 / 1,066,962 / 20,306,911 candidates at
# max-coord 2 / 3 / 4 / 5, about 19x more at each step.
MAX_COORD = {"triangles": 19, "all": 5}


def check_census(max_coord: int, denominator: int, shape: str) -> None:
    """Raise GeometryError unless the census of these arguments is accepted."""
    if shape not in MAX_COORD:
        raise GeometryError(f"unknown shape {shape!r}")
    for name, value in (("max-coord", max_coord), ("denominator", denominator)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise GeometryError(f"{name} must be an integer, not {value!r}")
    if not 1 <= max_coord <= MAX_COORD[shape]:
        raise GeometryError(f"max-coord must be from 1 to {MAX_COORD[shape]} for shape {shape}")
    if denominator < 1:
        raise GeometryError("denominator must be at least 1")


def grid_points(max_coord: int, denominator: int = 1) -> list[RationalPoint]:
    """Chamber part of the grid, in lexicographic order."""
    rng = range(-max_coord, max_coord + 1)
    return [
        RationalPoint(Fraction(i, denominator), Fraction(j, denominator))
        for i in rng
        for j in rng
        if i >= j
    ]


def enumerate_triangles(
    points: list[RationalPoint],
) -> Iterator[tuple[tuple[RationalPoint, ...], tuple[int, ...]]]:
    """All 3-element subsets in convex position, each as a pair (vertices,
    ccw) as enumerate_convex yields it: `vertices` is the sorted tuple of
    the three points, and `ccw` holds their indices in sorted(points),
    counterclockwise from the smallest."""
    pts = sorted(points)
    _, xy = integer_form(pts)
    for (i, (ax, ay)), (j, (bx, by)), (k, (cx, cy)) in itertools.combinations(enumerate(xy), 3):
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross:
            yield (pts[i], pts[j], pts[k]), ((i, j, k) if cross > 0 else (i, k, j))


def enumerate_convex(
    points: list[RationalPoint],
) -> Iterator[tuple[tuple[RationalPoint, ...], tuple[int, ...]]]:
    """All convex polytopes with every chosen point extreme: single points,
    segments, and convex polygons, each as a pair (vertices, ccw).

    `vertices` is the sorted tuple of the candidate's points.  `ccw` holds
    their indices in sorted(points): the point's or the segment's indices,
    and a polygon's hull, counterclockwise from its lexicographically
    smallest vertex.  On grid_points, which are sorted, these are grid
    indices.

    Polygons are grown as counterclockwise convex chains anchored at their
    lexicographically smallest vertex, so each polygon appears exactly once.
    A chain is extended only by a point that keeps it closable, so every
    chain of three or more points is yielded and the work grows with the
    output.  The search is depth first and yields each chain before its
    extensions (preorder), in increasing order of the new point's index:
    the chain most recently yielded with length L - 1 is the prefix of a
    chain of length L >= 4.  When p is appended after c, c's two neighbours
    are fixed for every chain that extends it, which is what lets
    run_census judge c once for them all.

    Each test on a new point is a strict half-plane (the view of convex
    chains of Eppstein, Overmars, Rote and Woeginger, "Finding minimum
    area k-gons", DCG 1992), so the points that extend a chain are one AND
    of three rows of a bitmask table built in O(n^3).
    """
    pts = sorted(points)
    for k, p in enumerate(pts):
        yield (p,), (k,)
    for (i, a), (j, b) in itertools.combinations(enumerate(pts), 2):
        yield (a, b), (i, j)

    # Scaling by a positive integer keeps the sign of every cross product,
    # so the table is built on integer coordinates.  left[a][b] has bit k
    # set iff point k lies strictly left of the line from point a to point b.
    _, xy = integer_form(pts)
    left = [[sum([1 << k for k, (x, y) in enumerate(xy)
                  if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0])
             for bx, by in xy]
            for ax, ay in xy]

    def extend(chain, c, first, ls, fits):
        # `chain` indexes a counterclockwise strictly convex chain from s to c.
        # Every vertex of a strictly convex polygon lies strictly left of
        # each edge not incident to it, so a new point p must lie left of
        # the first edge (`first`, above s), turn left at c (left of the line
        # b -> c) and have s left of the edge c -> p (p left of s -> c, in
        # `ls` = left[s]).  `fits` holds the points that pass.  A chain that
        # passes closes at p; one that fails can close neither at p nor after.
        lc = left[c]
        while fits:
            low = fits & -fits
            fits ^= low
            p = low.bit_length() - 1
            ccw = chain + (p,)
            yield tuple([pts[k] for k in sorted(ccw)]), ccw
            if more := first & lc[p] & ls[p]:
                yield from extend(ccw, p, first, ls, more)

    for s, ls in enumerate(left):
        above = -1 << (s + 1)
        for j in range(s + 1, len(pts)):
            first = ls[j] & above
            yield from extend((s, j), j, first, ls, first)


class ItemResult(NamedTuple):
    vertices: tuple[RationalPoint, ...]
    valid: bool
    family_tag: Optional[str]
    kaehler: Optional[bool]
    diff_type: Optional[str]


# A passing vertex's verdict: vertex_kind(on_wall, r1, r2).
_Verdict = tuple[str, Optional[WallVertexType]]


class _Verdicts(dict):
    """The verdict of a vertex on (on_wall) or off the wall by the pair of
    ids of its rays in `dirs`, None if it fails its condition; each pair is
    judged once."""

    def __init__(self, on_wall: bool, dirs: list[Weight]):
        super().__init__()
        self.on_wall = on_wall
        self.dirs = dirs

    def __missing__(self, ids: tuple[int, int]) -> Optional[_Verdict]:
        r1, r2 = ids
        verdict = vertex_kind(self.on_wall, self.dirs[r1], self.dirs[r2])
        verdict = self[ids] = None if verdict[0] == "invalid" else verdict
        return verdict


# The fields of a valid candidate's ItemResult after `vertices` and `valid`
# (family tag, Kaehler verdict, diff type) and, for a triangle, the rays
# r1, r2 of its family's cone.
_Fields = tuple[Optional[str], bool, Optional[str], Optional[tuple[Weight, Weight]]]


class _Grid:
    """A census grid with its ray table: the id of the primitive ray from
    grid point i to grid point j is rays[i][j], and that ray is dirs[id]."""

    def __init__(self, points: list[RationalPoint]):
        self.points = points
        # Every point of the grid is in the chamber; so is every candidate.
        self.scale, self.xy = integer_form(points)
        require_chamber(self.xy)
        self.on_wall = [x == y for x, y in self.xy]
        # Ray ids are keyed by reduced int pairs, in first-seen order; a
        # Weight is built once per direction.
        ids: dict[tuple[int, int], int] = {}

        def ray_id(a: int, b: int) -> int:
            g = gcd(a, b)
            return ids.setdefault((a // g, b // g), len(ids))

        self.rays = [
            [None if i == j else ray_id(qx - px, qy - py) for j, (qx, qy) in enumerate(self.xy)]
            for i, (px, py) in enumerate(self.xy)
        ]
        self.dirs = [Weight(a, b) for a, b in ids]
        verdicts = {w: _Verdicts(w, self.dirs) for w in (False, True)}
        self.verdicts = [verdicts[w] for w in self.on_wall]
        # passed[m] is the verdict on ccw[m] of the candidate of length
        # m + 2 that item() judged last, or None unless its ccw[1..m] pass;
        # passed[0] stands for the empty ccw[1..0], which passes.
        self.passed = [True] + [None] * len(points)
        # The fields of each ray signature analysed so far.
        self.fields: dict[tuple, _Fields] = {}

    def item(self, candidate: tuple[tuple[RationalPoint, ...], tuple[int, ...]]) -> ItemResult:
        """The ItemResult of a candidate (vertices, ccw) of
        enumerate_triangles or enumerate_convex on the grid's points, judged
        on its index cycle ccw = (s, ..., b, c, p).

        Vertex c is judged with its neighbours b and p, which no extension
        of the chain changes, once ccw[1] to b pass: passed[n - 3] holds
        that, written by the chain's prefix, which enumerate_convex yielded
        last at its length; a triangle reads passed[0].  The candidate is
        valid iff c passes and both closing vertices pass: p with
        neighbours c and s, and s with neighbours ccw[1] and p.  A vertex k
        with next and previous vertices i and j is judged by
        verdicts[k][rays[k][i], rays[k][j]].

        A valid candidate's ccw is its hull, and its fields are those of
        its ray signature: (on_wall, id of the ray to the next vertex, id of
        the ray to the previous one) at each vertex along ccw.  The first
        candidate of a signature is analysed (analyse); a later triangle of
        it is still held to its family's rebuild check (rebuild).
        """
        vertices, ccw = candidate
        n = len(ccw)
        if n < 3:
            return ItemResult(vertices, False, None, None, None)
        rays, verdicts, passed = self.rays, self.verdicts, self.passed
        s, b, c, p = ccw[0], ccw[-3], ccw[-2], ccw[-1]
        rs, rc, rp = rays[s], rays[c], rays[p]
        ok = passed[n - 2] = verdicts[c][rc[p], rc[b]] if passed[n - 3] else None
        if not (ok and verdicts[p][rp[s], rp[c]] and verdicts[s][rs[ccw[1]], rs[p]]):
            return ItemResult(vertices, False, None, None, None)

        on_wall = self.on_wall
        key = tuple([(on_wall[k], rays[k][ccw[(m + 1) % n]], rays[k][ccw[m - 1]])
                     for m, k in enumerate(ccw)])
        fields = self.fields.get(key)
        if fields is None:
            fields = self.fields[key] = self.analyse(ccw, key)
        elif n == 3:
            self.rebuild(vertices, ccw, key, fields)
        return ItemResult(vertices, True, *fields[:3])

    def analyse(self, ccw: tuple[int, ...], key: tuple) -> _Fields:
        """The fields of a valid candidate with signature `key` from its
        Analysis, which is handed the report of its vertices' verdicts, read
        from the verdict tables, so check_momentum_polytope does not run."""
        points, xy, dirs, verdicts = self.points, self.xy, self.dirs, self.verdicts
        hull = tuple([points[k] for k in ccw])
        hull_xy = tuple([xy[k] for k in ccw])
        edge_rays = tuple([(dirs[r1], dirs[r2]) for _, r1, r2 in key])
        report = ClassificationReport(True, 2, tuple([
            VertexAnalysis(points[k], r, w, *verdicts[k][r1, r2])
            for k, (w, r1, r2), r in zip(ccw, key, edge_rays)
        ]))
        analysis = Analysis(Polygon._from_form(hull, self.scale, hull_xy, edge_rays), report)
        kaehler, _ = is_kaehlerizable(analysis)
        if len(ccw) != 3:
            return None, kaehler, None, None
        fam = classify_triangle(analysis)
        return fam.tag, kaehler, diffeo_type(fam, analysis).value, fam.cone()[3:]

    def rebuild(self, vertices: tuple[RationalPoint, ...], ccw: tuple[int, ...], key: tuple,
                fields: _Fields) -> None:
        """Analysis.family's rebuild check on a valid triangle whose
        signature `key` was analysed before: its own base vertex and edge
        scale with the cone rays of that signature's family must rebuild
        it.  The check runs on the grid's int pairs."""
        tag, _, _, (r1, r2) = fields
        xy = [self.xy[k] for k in ccw]
        i = base_vertex(xy)
        bx, by = xy[i]
        u = edge_scale(xy, i, self.dirs[key[i][1]])
        require_rebuild(tag, vertices, xy, cone_points(bx, by, u, r1, r2))


class CensusSummary:
    """The arguments of a census and its counters, which `add` updates."""

    def __init__(self, shape: str, max_coord: int, denominator: int, total: int = 0,
                 valid: int = 0, invalid: int = 0, kaehler_true: int = 0,
                 kaehler_false: int = 0, by_family: Optional[Counter] = None,
                 by_diff_type: Optional[Counter] = None):
        self.shape, self.max_coord, self.denominator = shape, max_coord, denominator
        self.total, self.valid, self.invalid = total, valid, invalid
        self.kaehler_true, self.kaehler_false = kaehler_true, kaehler_false
        self.by_family = Counter() if by_family is None else by_family
        self.by_diff_type = Counter() if by_diff_type is None else by_diff_type

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"CensusSummary({fields})"

    def add(self, item: ItemResult) -> None:
        self.total += 1
        if not item.valid:
            self.invalid += 1
            return
        self.valid += 1
        if item.kaehler:
            self.kaehler_true += 1
        else:
            self.kaehler_false += 1
        if item.family_tag is not None:
            self.by_family[item.family_tag] += 1
        if item.diff_type is not None:
            self.by_diff_type[item.diff_type] += 1

    def as_dict(self) -> dict:
        return {
            "shape": self.shape,
            "max_coord": self.max_coord,
            "denominator": self.denominator,
            "total": self.total,
            "valid": self.valid,
            "invalid": self.invalid,
            "kaehler_true": self.kaehler_true,
            "kaehler_false": self.kaehler_false,
            "by_family": dict(sorted(self.by_family.items())),
            "by_diff_type": dict(sorted(self.by_diff_type.items())),
        }


def run_census(
    max_coord: int,
    denominator: int = 1,
    shape: str = "triangles",
    on_item=None,
) -> CensusSummary:
    """Classify every candidate and aggregate; `on_item` (if given) receives
    every ItemResult in the deterministic candidate order.  Raises
    GeometryError, before the grid is built, for a census that
    check_census refuses."""
    check_census(max_coord, denominator, shape)
    points = grid_points(max_coord, denominator)
    # One ray table per grid.  A valid candidate's polygon has the grid's
    # scale, which changes none of its lattice facts.
    grid = _Grid(points)
    enumerate_candidates = enumerate_triangles if shape == "triangles" else enumerate_convex

    summary = CensusSummary(shape, max_coord, denominator)
    for candidate in enumerate_candidates(points):
        item = grid.item(candidate)
        summary.add(item)
        if on_item is not None:
            on_item(item)
    return summary
