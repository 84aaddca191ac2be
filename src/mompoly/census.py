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
other one (132 distinct directions at max-coord 4).  A candidate is
carried as grid indices, never as points: both enumerators yield it as a
pair (indices, ccw), its grid indices in increasing order and
counterclockwise from its smallest vertex.  The shape selects the routine
that judges it on the index cycle ccw: _Grid.triangle for a triangles
census, _Grid.item for `--shape all`.  Both judge each vertex from its two
ray ids: an interior vertex by their determinant, a wall vertex by its
cone pattern, each verdict memoised on its wall flag and pair of ids.  A
candidate is rejected at its first failing vertex.  An `--shape all`
candidate's ccw is the chain enumerate_convex grew it as; the chain's
newest inner vertex is judged once for every chain that extends it, and
its verdict is kept by position for them, so a candidate is judged in
O(1) and takes no hull.  Its ItemResult keeps `indices`, by which the
stream writes its points.

_Grid.triangle is _Grid.item on three vertices less the chain bookkeeping
and the general signature.  They are selected once per census, not merged:
a 3-chain of `--shape all` must still keep its verdict for the chains that
extend it, and a triangle would pay for that on every candidate.

The validity and Kaehler criteria and the triangle families are local,
so a valid candidate's fields are functions of its ray signature:
(on_wall, ray id to the next vertex, ray id to the previous vertex) at
each vertex along ccw.  The first valid candidate of a signature is
analysed, and its fields are kept on the grid for the later ones.  Its
Kaehler verdict is kaehler.obstructing_edge on the signature's wall flags
and edge rays; only a triangle, for its family and diff type, gets an
Analysis, handed the report of its vertices' verdicts (run_census(4)
analyses 128 signatures for 1,070 valid triangles).  Analysis.family's
rebuild check still runs on every valid triangle: a later triangle of a
signature is rebuilt from its own base vertex and edge scale with the
cone rays of the signature's family, on the grid's int pairs.
"""

from __future__ import annotations

import itertools
import types
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
from .difftype import diffeo
from .errors import GeometryError
from .kaehler import obstructing_edge
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
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All 3-element subsets in convex position, each as a pair (indices,
    ccw) as enumerate_convex yields it: the three indices in sorted(points)
    in increasing order, and the same counterclockwise from the smallest."""
    _, xy = integer_form(sorted(points))
    for (i, (ax, ay)), (j, (bx, by)), (k, (cx, cy)) in itertools.combinations(enumerate(xy), 3):
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross > 0:
            ijk = (i, j, k)
            yield ijk, ijk
        elif cross:
            yield (i, j, k), (i, k, j)


def enumerate_convex(
    points: list[RationalPoint],
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All convex polytopes with every chosen point extreme: single points,
    segments, and convex polygons, each as a pair (indices, ccw) of tuples
    of indices in sorted(points).  On grid_points, which are sorted, these
    are grid indices.

    `indices` holds the candidate's indices in increasing order.  `ccw`
    holds the same: the point's or the segment's indices, and a polygon's
    hull, counterclockwise from its lexicographically smallest vertex.

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
    _, xy = integer_form(sorted(points))
    for k in range(len(xy)):
        single = (k,)
        yield single, single
    for pair in itertools.combinations(range(len(xy)), 2):
        yield pair, pair

    # Scaling by a positive integer keeps the sign of every cross product,
    # so the table is built on integer coordinates.  left[a][b] has bit k
    # set iff point k lies strictly left of the line from point a to point b.
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
            yield tuple(sorted(ccw)), ccw
            if more := first & lc[p] & ls[p]:
                yield from extend(ccw, p, first, ls, more)

    for s, ls in enumerate(left):
        above = -1 << (s + 1)
        for j in range(s + 1, len(xy)):
            first = ls[j] & above
            yield from extend((s, j), j, first, ls, first)


class ItemResult(NamedTuple):
    """A candidate's verdict; `indices` are its vertices' indices in the
    census's grid_points, in increasing order, which is their points'."""

    indices: tuple[int, ...]
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


# The fields of a valid candidate's ItemResult after `indices` and `valid`
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

    def item(self, candidate: tuple[tuple[int, ...], tuple[int, ...]]) -> ItemResult:
        """The ItemResult of a candidate (indices, ccw) of enumerate_convex
        on the grid's points, judged on its index cycle ccw = (s, ..., b,
        c, p); it keeps `indices`.  A triangles census takes triangle()
        instead, which gives the same ItemResult.

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
        indices, ccw = candidate
        n = len(ccw)
        # tuple.__new__ builds an ItemResult without its Python-level __new__.
        if n < 3:
            return tuple.__new__(ItemResult, (indices, False, None, None, None))
        rays, verdicts, passed = self.rays, self.verdicts, self.passed
        s, b, c, p = ccw[0], ccw[-3], ccw[-2], ccw[-1]
        rs, rc, rp = rays[s], rays[c], rays[p]
        ok = passed[n - 2] = verdicts[c][rc[p], rc[b]] if passed[n - 3] else None
        if not (ok and verdicts[p][rp[s], rp[c]] and verdicts[s][rs[ccw[1]], rs[p]]):
            return tuple.__new__(ItemResult, (indices, False, None, None, None))

        on_wall = self.on_wall
        key = tuple([(on_wall[k], rays[k][j], rays[k][i])
                     for k, j, i in zip(ccw, ccw[1:] + ccw[:1], ccw[-1:] + ccw[:-1])])
        fields = self.fields.get(key)
        if fields is None:
            fields = self.fields[key] = self.analyse(ccw, key)
        elif n == 3:
            self.rebuild(ccw, key, fields)
        return tuple.__new__(ItemResult, (indices, True, fields[0], fields[1], fields[2]))

    def triangle(self, candidate: tuple[tuple[int, ...], tuple[int, ...]]) -> ItemResult:
        """The ItemResult of a candidate (indices, ccw) of
        enumerate_triangles, as item() gives it: ccw = (s, c, p) is judged
        at c, then p, then s, and a valid triangle's signature is read off
        the six ray ids between its vertices.  A triangle has no chain
        prefix, so it leaves `passed` alone."""
        indices, ccw = candidate
        s, c, p = ccw
        rays, verdicts = self.rays, self.verdicts
        rs, rc, rp = rays[s], rays[c], rays[p]
        # Each id is read when its vertex is judged, so a rejected triangle
        # reads only the ids of the vertices judged.
        if not (verdicts[c][(cp := rc[p]), (cs := rc[s])]
                and verdicts[p][(ps := rp[s]), (pc := rp[c])]
                and verdicts[s][(sc := rs[c]), (sp := rs[p])]):
            return tuple.__new__(ItemResult, (indices, False, None, None, None))

        on_wall = self.on_wall
        key = ((on_wall[s], sc, sp), (on_wall[c], cp, cs), (on_wall[p], ps, pc))
        fields = self.fields.get(key)
        if fields is None:
            fields = self.fields[key] = self.analyse(ccw, key)
        else:
            self.rebuild(ccw, key, fields)
        return tuple.__new__(ItemResult, (indices, True, fields[0], fields[1], fields[2]))

    def analyse(self, ccw: tuple[int, ...], key: tuple) -> _Fields:
        """The fields of a valid candidate with signature `key`.  The
        Kaehler verdict is obstructing_edge on the signature's wall flags
        and the rays along its edges.  A triangle's family and diff type
        come from its Analysis, which is handed the report of its vertices'
        verdicts, read from the verdict tables, so check_momentum_polytope
        does not run; a polygon with more vertices gets no Analysis."""
        dirs = self.dirs
        kaehler = obstructing_edge([w for w, _, _ in key], [dirs[r] for _, r, _ in key]) is None
        if len(ccw) != 3:
            return None, kaehler, None, None
        points, xy, verdicts = self.points, self.xy, self.verdicts
        hull = tuple([points[k] for k in ccw])
        hull_xy = tuple([xy[k] for k in ccw])
        edge_rays = tuple([(dirs[r1], dirs[r2]) for _, r1, r2 in key])
        report = ClassificationReport(True, 2, tuple([
            VertexAnalysis(points[k], r, w, *verdicts[k][r1, r2])
            for k, (w, r1, r2), r in zip(ccw, key, edge_rays)
        ]))
        analysis = Analysis(Polygon._from_form(hull, self.scale, hull_xy, edge_rays), report)
        fam = classify_triangle(analysis)
        return fam.tag, kaehler, diffeo(analysis)[0].value, fam.cone()[3:]

    def rebuild(self, ccw: tuple[int, ...], key: tuple, fields: _Fields) -> None:
        """Analysis.family's rebuild check on a valid triangle whose
        signature `key` was analysed before: its own base vertex and edge
        scale with the cone rays of that signature's family must rebuild
        it.  The check runs on the grid's int pairs."""
        tag, _, _, (r1, r2) = fields
        a, b, c = ccw
        grid_xy = self.xy
        xy = (grid_xy[a], grid_xy[b], grid_xy[c])
        i = base_vertex(xy)
        bx, by = xy[i]
        u = edge_scale(xy, i, self.dirs[key[i][1]])
        require_rebuild(tag, xy, self.scale, cone_points(bx, by, u, r1, r2))


class CensusSummary(types.SimpleNamespace):
    """The arguments of a census and its counters.  SimpleNamespace gives
    the repr, the equality of fields (also with a plain SimpleNamespace of
    the same fields) and no hash.  `add_valid` counts a valid item;
    run_census sets `total` and `invalid` from the number of candidates when
    the census ends, so valid + invalid == total."""

    def __init__(self, shape: str, max_coord: int, denominator: int):
        super().__init__(shape=shape, max_coord=max_coord, denominator=denominator,
                         total=0, valid=0, invalid=0, kaehler_true=0, kaehler_false=0,
                         by_family=Counter(), by_diff_type=Counter())

    def add_valid(self, item: ItemResult) -> None:
        """Count a valid item.  It leaves `total` and `invalid` alone."""
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
        """The summary document.  The record holds exactly its ten fields, in
        summary order, so the counters are the only fields rewritten."""
        return {**vars(self), "by_family": dict(sorted(self.by_family.items())),
                "by_diff_type": dict(sorted(self.by_diff_type.items()))}


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
    if shape == "triangles":
        enumerate_candidates, judge = enumerate_triangles, grid.triangle
    else:
        enumerate_candidates, judge = enumerate_convex, grid.item

    summary = CensusSummary(shape, max_coord, denominator)
    add_valid, total = summary.add_valid, 0
    for total, candidate in enumerate(enumerate_candidates(points), 1):
        if (item := judge(candidate)).valid:
            add_valid(item)
        if on_item is not None:
            on_item(item)
    summary.total, summary.invalid = total, total - summary.valid
    return summary
