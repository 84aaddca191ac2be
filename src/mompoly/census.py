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
other one, read by the points' difference vector from a flat list with
one gcd per difference vector (108 difference vectors between the 990
pairs of points and 132 distinct directions at max-coord 4).  A wall
vertex's pattern is integer tests on its rays' coordinates,
classify.classify_wall_rays.  An `--shape all` census also builds,
before its first chain, enumerate_convex's table of half-plane bitmasks:
n(n - 1)/2 scans of the grid's n points.  A candidate is carried as grid
indices, never as points: both enumerators yield it as a pair (indices,
ccw), its grid indices in increasing order and counterclockwise from its
smallest vertex.  The shape selects the judge, a closure over the grid's
tables built once per census: _triangle_judge for a triangles census,
_chain_judge for `--shape all`, which hands a 3-chain to a triangle
judge.  Both judge each vertex from its two ray ids in the verdict rows,
one dict per wall flag and first ray id, which judge each second ray id
once.  The ray from j to i is the negation of the ray from i to j, whose
id is rays[i][j] ^ 1, so a judge reads each edge's id from the table
once, and a grid point's row only when that vertex is judged.  A
candidate is rejected at its first failing vertex.  An
`--shape all` candidate's ccw is the chain enumerate_convex grew it as;
the chain's newest inner vertex is judged once for every chain that
extends it, and its verdict is kept by position for them, so a candidate
is judged in O(1) and takes no hull.  Its ItemResult keeps `indices`, by
which the stream writes its points.

The validity and Kaehler criteria and the triangle families are local,
so a valid triangle's fields are functions of its ray signature:
(on_wall, ray id to the next vertex, ray id to the previous vertex) at
each vertex along ccw.  The fields of a signature's first valid triangle
are kept for the later ones.  Its family is classify.triangle_family of
its base vertex's rays and wall type, its diff type difftype.diff_type
of the family and the rays of its first vertex, and its Kaehler verdict
kaehler.obstructing_edge on the signature's wall flags and edge rays,
the routines the report reads too; the census builds no Polygon, report
or Analysis (run_census(4) derives 128 signatures for 1,070 valid
triangles).  The rebuild check, classify.require_rebuild, still runs on
every valid triangle: inside triangle_family for the first of a
signature, and on a later one with the base rays of the signature's
first triangle, which that check has shown to be its family's cone rays
(they are primitive), on the grid's int pairs, from the base vertex's
position in ccw kept with the signature's fields.  That is each
triangle's own base vertex (classify.base_vertex): the triangles of one
signature have the same edge directions in the same order from their
smallest vertices, so each is a positive homothety of the first, which
orders their vertices by base_vertex's key (x - y, x, y) alike, ties
included.  A valid polygon with four or more vertices gets only a Kaehler
verdict, obstructing_edge on its own wall flags and the rays along ccw,
and no memo: that one pass over its vertices costs less than building
and hashing its signature to look the verdict up.

The census counts each valid item once, in a tally by its fields after
`valid` (family tag, Kaehler verdict, diff type), which has a handful of
keys (8 in a triangles census of max-coord 4 or 6, 10 in an `--shape all`
census of max-coord 3 or 4); when the census ends, CensusSummary.count
folds the tally into the summary's counters.
"""

from __future__ import annotations

import itertools
import types
from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple, Optional

from .classify import (
    WallVertexType,
    base_vertex,
    require_chamber,
    require_rebuild,
    triangle_family,
    vertex_kind,
)
from .difftype import diff_type
from .errors import GeometryError
from .kaehler import obstructing_edge
from .lattice import RationalPoint, Weight
from .polygon import integer_form


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
    in increasing order, and the same counterclockwise from the smallest.

    Triples i < j < k come in lexicographic order.  For each anchor i the
    later points are taken relative to it once, so a triple's turn is one
    cross product of two relative int pairs."""
    _, xy = integer_form(sorted(points))
    for i, (ax, ay) in enumerate(xy):
        rel = [(j, x - ax, y - ay) for j, (x, y) in enumerate(xy[i + 1:], i + 1)]
        for m, (j, bx, by) in enumerate(rel, 1):
            for k, cx, cy in rel[m:]:
                cross = bx * cy - by * cx
                if cross > 0:
                    ijk = (i, j, k)
                    yield ijk, ijk
                elif cross:
                    yield (i, j, k), (i, k, j)


def _half_planes(xy: list[tuple[int, int]]) -> list[list[int]]:
    """The half-plane table of the int pairs xy: left[a][b] has bit k set iff
    point k lies strictly left of the line from point a to point b.

    Point k is left of a -> b iff it is right of b -> a, so one scan per
    pair a < b fills both masks: the sign of c = dx*y - dy*x, on coordinates
    relative to a, sends bit k to left[a][b] (c > 0) or left[b][a] (c < 0).
    A point on the line, a and b among them, has c == 0 and goes to
    neither, so left[a][a] == 0.  Scaling by a positive integer keeps the
    sign of every cross product, so the table is exact on a grid's integer
    form.  n(n - 1)/2 scans of n points.
    """
    n = len(xy)
    left = [[0] * n for _ in range(n)]
    for a, (ax, ay) in enumerate(xy):
        rel = [(1 << k, x - ax, y - ay) for k, (x, y) in enumerate(xy)]
        la = left[a]
        for b in range(a + 1, n):
            _, dx, dy = rel[b]
            ab = ba = 0
            for bit, x, y in rel:
                c = dx * y - dy * x
                if c > 0:
                    ab |= bit
                elif c:
                    ba |= bit
            la[b] = ab
            left[b][a] = ba
    return left


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

    After the points and segments, and before the first chain, it builds a
    table of half-plane bitmasks, _half_planes: n(n - 1)/2 scans of the n
    points, whatever the output.  Each test on a new point is a strict
    half-plane (the view of convex chains of Eppstein, Overmars, Rote and
    Woeginger, "Finding minimum area k-gons", DCG 1992), so the points that
    extend a chain are one AND of three rows of that table.

    Polygons are grown as counterclockwise convex chains anchored at their
    lexicographically smallest vertex, so each polygon appears exactly once.
    A chain is extended only by a point that keeps it closable, so every
    chain of three or more points is yielded and the search's work grows
    with the output.  The search is depth first and yields each chain
    before its extensions (preorder), in increasing order of the new
    point's index: the chain most recently yielded with length L - 1 is the
    prefix of a chain of length L >= 4.  When p is appended after c, c's
    two neighbours are fixed for every chain that extends it, which is what
    lets run_census judge c once for them all.
    """
    _, xy = integer_form(sorted(points))
    for k in range(len(xy)):
        single = (k,)
        yield single, single
    for pair in itertools.combinations(range(len(xy)), 2):
        yield pair, pair

    left = _half_planes(xy)

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


class _VerdictRow(dict):
    """The verdicts of a vertex on (on_wall) or off the wall whose first ray
    is d1, by the id in `dirs` of its second ray: vertex_kind's verdict, or
    None if the vertex fails its condition; each id is judged once."""

    __slots__ = ("on_wall", "d1", "dirs")

    def __init__(self, on_wall: bool, d1: Weight, dirs: list[Weight]):
        super().__init__()
        self.on_wall, self.d1, self.dirs = on_wall, d1, dirs

    def __missing__(self, r2: int) -> Optional[_Verdict]:
        verdict = vertex_kind(self.on_wall, self.d1, self.dirs[r2])
        verdict = self[r2] = None if verdict[0] == "invalid" else verdict
        return verdict


# The fields of a valid triangle's ItemResult after `indices` and `valid`
# (family tag, Kaehler verdict, diff type), the rays r1, r2 at the base
# vertex of the signature's first triangle, its family's cone rays, and that
# vertex's position i in ccw.
_Fields = tuple[str, bool, str, tuple[Weight, Weight], int]


class _Grid:
    """A census grid with its tables.  The id of the primitive ray from grid
    point i to grid point j is rays[i][j], and that ray is dirs[id].  The
    verdict of a vertex k with rays of ids r1, r2 is verdicts[k][r1][r2]."""

    def __init__(self, points: list[RationalPoint]):
        # Every point of the grid is in the chamber; so is every candidate.
        self.scale, self.xy = integer_form(points)
        xy = self.xy
        require_chamber(xy)
        self.on_wall = [x == y for x, y in xy]
        # One gcd per unordered pair i < j with a new difference vector: the
        # ray from i to j depends only on that vector, so its id is kept in
        # a flat list, at slot[key[j] - key[i] + off] for key = x*width + y,
        # where width and off give each difference vector its own slot.  The
        # ray from j to i is the negated ray from i to j, so a reduced int
        # pair gets the even id 2m and its negation 2m + 1 = 2m ^ 1.  On
        # grid_points, which are sorted, each ray from i to j > i points
        # lexicographically up, so no direction gets two ids.
        xs, ys = [x for x, _ in xy] or [0], [y for _, y in xy] or [0]
        width = 2 * (max(ys) - min(ys)) + 1
        off = (max(xs) - min(xs)) * width + width // 2
        keys = [x * width + y for x, y in xy]
        slot: list[Optional[int]] = [None] * (2 * off + 1)
        ids: dict[tuple[int, int], int] = {}
        n = len(xy)
        self.rays = rays = [[None] * n for _ in range(n)]
        for i, (px, py) in enumerate(xy):
            row, shift = rays[i], off - keys[i]
            for j in range(i + 1, n):
                if (r := slot[d := keys[j] + shift]) is None:
                    qx, qy = xy[j]
                    a, b = qx - px, qy - py
                    g = gcd(a, b)
                    r = slot[d] = ids.setdefault((a // g, b // g), 2 * len(ids))
                row[j] = r
                rays[j][i] = r ^ 1
        self.dirs = dirs = [w for a, b in ids for w in (Weight(a, b), Weight(-a, -b))]
        # One verdict row per wall flag and first ray id.
        rows = {w: [_VerdictRow(w, d1, dirs) for d1 in dirs] for w in (False, True)}
        self.verdicts = [rows[w] for w in self.on_wall]

    def derive(self, ccw: tuple[int, int, int], key: tuple) -> _Fields:
        """The fields of a valid triangle ccw with ray signature `key`.  Its
        family is triangle_family of its int pairs and base vertex, with
        that vertex's rays and wall type read from the verdict rows, which
        also runs the rebuild check (require_rebuild); its diff type is
        diff_type of the family and the rays of its first vertex, and its
        Kaehler verdict obstructing_edge on the key's wall flags and edge
        rays.  The base vertex's rays and its position in ccw follow the
        three ItemResult fields.  No Polygon, report or Analysis is
        built."""
        grid_xy, dirs = self.xy, self.dirs
        xy = (grid_xy[ccw[0]], grid_xy[ccw[1]], grid_xy[ccw[2]])
        i = base_vertex(xy)
        k = ccw[i]
        _, r1, r2 = key[i]
        rays = (dirs[r1], dirs[r2])
        fam = triangle_family(xy, self.scale, i, rays, self.verdicts[k][r1][r2][1])
        _, r1, r2 = key[0]
        diff, _ = diff_type(fam, dirs[r1], dirs[r2])
        kaehler = obstructing_edge([w for w, _, _ in key], [dirs[r] for _, r, _ in key]) is None
        return fam.tag, kaehler, diff.value, rays, i


def _triangle_judge(grid: _Grid):
    """The judge of a triangles census on `grid`: the ItemResult of a
    candidate (indices, ccw) of enumerate_triangles, keeping `indices`.  A
    closure over the grid's tables, built once per census, so a candidate
    loads no attribute.

    ccw = (s, c, p) is judged at c, then p, then s; a vertex k with next
    and previous vertices i and j is judged by verdicts[k][rays[k][i]][
    rays[k][j]], and the triangle is rejected at its first failing vertex.
    Of its six ray ids, three are read from the table, c -> p and c -> s
    at c and p -> s at p, and the other three are their negations,
    rays[j][i] == rays[i][j] ^ 1.  A valid triangle's fields are those of
    its ray signature: (on_wall, id of the ray to the next vertex, id of
    the ray to the previous one) at each vertex along ccw.  The first
    triangle of a signature is derived (_Grid.derive); a later one is held
    to the same rebuild check, require_rebuild, with the base rays of the
    signature's first triangle, its family's cone rays, from the base
    vertex's position in ccw stored with them (see the module docstring
    for why that is its own base vertex)."""
    rays, verdicts, on_wall = grid.rays, grid.verdicts, grid.on_wall
    grid_xy, scale, derive = grid.xy, grid.scale, grid.derive
    new = tuple.__new__
    fields: dict[tuple, _Fields] = {}

    def triangle(candidate: tuple[tuple[int, ...], tuple[int, ...]]) -> ItemResult:
        indices, ccw = candidate
        s, c, p = ccw
        # Three ids come from the table and three are their negations,
        # rays[j][i] == rays[i][j] ^ 1; a row is loaded only when its vertex
        # is judged, so a triangle rejected at c reads one row.  tuple.__new__
        # builds an ItemResult without its Python-level __new__.
        rc = rays[c]
        if not (verdicts[c][(cp := rc[p])][(cs := rc[s])]
                and verdicts[p][(ps := rays[p][s])][(pc := cp ^ 1)]
                and verdicts[s][(sc := cs ^ 1)][(sp := ps ^ 1)]):
            return new(ItemResult, (indices, False, None, None, None))

        key = ((on_wall[s], sc, sp), (on_wall[c], cp, cs), (on_wall[p], ps, pc))
        if (f := fields.get(key)) is None:
            f = fields[key] = derive(ccw, key)
        else:
            require_rebuild(f[0], (grid_xy[s], grid_xy[c], grid_xy[p]), scale, f[4], f[3])
        return new(ItemResult, (indices, True, f[0], f[1], f[2]))

    return triangle


def _chain_judge(grid: _Grid):
    """The judge of an `--shape all` census on `grid`: the ItemResult of a
    candidate (indices, ccw) of enumerate_convex, judged on its index cycle
    ccw = (s, ..., b, c, p) and keeping `indices`.  A closure over the
    grid's tables, built once per census.

    Vertex c is judged with its neighbours b and p, which no extension of
    the chain changes, once ccw[1] to b pass: passed[n - 3] holds that,
    written by the chain's prefix, which enumerate_convex yielded last at
    its length.  A triangle, once c passes, goes to the triangle judge,
    which judges c again from its row; a longer chain is valid iff both
    closing vertices pass too: p with neighbours c and s, and s with
    neighbours ccw[1] and p.  Their ids p -> c and s -> p are the
    negations (^ 1) of the ids c -> p and p -> s, so the table is read for
    c -> p, c -> b, p -> s and s -> ccw[1].  A valid polygon gets only a
    Kaehler verdict, obstructing_edge on its wall flags and the rays along
    ccw, which no memo keeps (see the module docstring)."""
    rays, verdicts, on_wall, dirs = grid.rays, grid.verdicts, grid.on_wall, grid.dirs
    triangle, new = _triangle_judge(grid), tuple.__new__
    # passed[m] is the verdict on ccw[m] of the candidate of length m + 2
    # judged last, or None unless its ccw[1..m] pass; passed[0] stands for
    # the empty ccw[1..0], which passes.
    passed = [True] + [None] * len(grid.xy)

    def chain(candidate: tuple[tuple[int, ...], tuple[int, ...]]) -> ItemResult:
        indices, ccw = candidate
        n = len(ccw)
        if n < 3:
            return new(ItemResult, (indices, False, None, None, None))
        b, c, p = ccw[-3], ccw[-2], ccw[-1]
        rc = rays[c]
        ok = passed[n - 2] = verdicts[c][(cp := rc[p])][rc[b]] if passed[n - 3] else None
        if not ok:
            return new(ItemResult, (indices, False, None, None, None))
        if n == 3:
            return triangle(candidate)
        s = ccw[0]
        if not (verdicts[p][(ps := rays[p][s])][cp ^ 1]
                and verdicts[s][rays[s][ccw[1]]][ps ^ 1]):
            return new(ItemResult, (indices, False, None, None, None))

        edge = obstructing_edge([on_wall[k] for k in ccw],
                                [dirs[rays[k][j]] for k, j in zip(ccw, ccw[1:] + ccw[:1])])
        return new(ItemResult, (indices, True, None, edge is None, None))

    return chain


class CensusSummary(types.SimpleNamespace):
    """The arguments of a census and its counters.  SimpleNamespace gives
    the repr, the equality of fields (also with a plain SimpleNamespace of
    the same fields) and no hash.  `count` sets the counters once, when the
    census ends, from its number of candidates and its tally of valid
    items, so valid + invalid == total."""

    def __init__(self, shape: str, max_coord: int, denominator: int):
        super().__init__(shape=shape, max_coord=max_coord, denominator=denominator,
                         total=0, valid=0, invalid=0, kaehler_true=0, kaehler_false=0,
                         by_family=Counter(), by_diff_type=Counter())

    def count(self, tally: dict[tuple, int], total: int) -> None:
        """Set the counters, which start at zero, from the census's `total`
        candidates and `tally`, the number of valid items by their fields
        after `valid`: (family tag, Kaehler verdict, diff type)."""
        for (family, kaehler, diff), n in tally.items():
            self.valid += n
            if kaehler:
                self.kaehler_true += n
            else:
                self.kaehler_false += n
            if family is not None:
                self.by_family[family] += n
            if diff is not None:
                self.by_diff_type[diff] += n
        self.total, self.invalid = total, total - self.valid

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
    every ItemResult in the deterministic candidate order.  A valid item is
    counted once, in a tally by item[2:], its fields after `valid`, which
    CensusSummary.count folds into the summary when the census ends.
    Raises GeometryError, before the grid is built, for a census that
    check_census refuses."""
    check_census(max_coord, denominator, shape)
    points = grid_points(max_coord, denominator)
    # One ray table per grid.  A valid candidate's polygon has the grid's
    # scale, which changes none of its lattice facts.
    grid = _Grid(points)
    if shape == "triangles":
        enumerate_candidates, judge = enumerate_triangles, _triangle_judge(grid)
    else:
        enumerate_candidates, judge = enumerate_convex, _chain_judge(grid)

    tally: dict[tuple, int] = {}
    total = 0
    for total, candidate in enumerate(enumerate_candidates(points), 1):
        if (item := judge(candidate)).valid:
            fields = item[2:]
            tally[fields] = tally.get(fields, 0) + 1
        if on_item is not None:
            on_item(item)
    summary = CensusSummary(shape, max_coord, denominator)
    summary.count(tally, total)
    return summary
