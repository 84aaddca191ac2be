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
other one (132 distinct directions at max-coord 4).  Candidates are then
classified one after another, each vertex judged from its two ray ids: an
interior vertex by their determinant, a wall vertex by its cone pattern,
whose verdict is memoised on the pair of ids.  A triangle takes its
counterclockwise order from one cross product and is rejected at its first
failing vertex.  An `--shape all` candidate comes with its hull, the
counterclockwise chain enumerate_convex grew it as; the chain's newest
inner vertex is judged once for every chain that extends it, and a
per-length flag carries the verdict on the rest of the chain, so a
candidate is judged in O(1) and takes no hull.  An invalid candidate gets
no Polygon and no Analysis; a valid one's Analysis is handed the report of
its vertices' verdicts.  On a 2-vCPU x86 machine with Python 3.11, writing
the stream, the max-coord 4 triangle census (13,428 candidates) takes
about 0.21 s and the max-coord 3 `--shape all` census (46,667 candidates)
about 0.85 s, each including interpreter start-up.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .classify import (
    Analysis,
    ClassificationReport,
    VertexAnalysis,
    WallVertexType,
    classify_triangle,
    require_chamber,
    vertex_kind,
)
from .difftype import diffeo_type
from .errors import GeometryError
from .kaehler import is_kaehlerizable
from .lattice import RationalPoint, Weight, primitive_int_ray
from .polygon import IntPair, Polygon, hull_of_form, int_rays, integer_form


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


def enumerate_triangles(points: list[RationalPoint]) -> Iterator[tuple[RationalPoint, ...]]:
    """All 3-element subsets in convex position, as sorted vertex tuples."""
    _, xy = integer_form(points)
    for (a, (ax, ay)), (b, (bx, by)), (c, (cx, cy)) in itertools.combinations(zip(points, xy), 3):
        if (bx - ax) * (cy - ay) != (by - ay) * (cx - ax):
            yield (a, b, c)


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
    output: the 46,667 candidates at max-coord 3 take about 0.2 s (2-vCPU
    x86, Python 3.11).  The search is depth first and yields each chain before its
    extensions (preorder): the chain most recently yielded with length
    L - 1 is the prefix of a chain of length L >= 4.  When p is appended
    after c, c's two neighbours are fixed for every chain that extends it,
    which is what lets run_census judge c once for them all.
    """
    pts = sorted(points)
    for k, p in enumerate(pts):
        yield (p,), (k,)
    for (i, a), (j, b) in itertools.combinations(enumerate(pts), 2):
        yield (a, b), (i, j)

    # Scaling by a positive integer keeps the sign of every cross product,
    # so the search runs on integer coordinates.
    _, xy = integer_form(pts)

    def extend(chain, later, ux, uy):
        # `chain` indexes a counterclockwise strictly convex chain from s to c
        # whose newest edge has direction u.  Every vertex of a strictly
        # convex polygon lies strictly left of each edge not incident to it,
        # so a new point p must lie left of the first edge (`later` holds
        # only such points), turn left at c, and have s left of the edge
        # c -> p.  A chain that passes closes at p; one that fails can close
        # neither at p nor after it.
        sx, sy = xy[chain[0]]
        cx, cy = xy[chain[-1]]
        for j in later:
            px, py = xy[j]
            dx, dy = px - cx, py - cy
            if ux * dy - uy * dx > 0 and dx * (sy - py) - dy * (sx - px) > 0:
                ccw = chain + (j,)
                yield tuple([pts[k] for k in sorted(ccw)]), ccw
                yield from extend(ccw, later, dx, dy)

    for i, (sx, sy) in enumerate(xy):
        for j in range(i + 1, len(xy)):
            ux, uy = xy[j][0] - sx, xy[j][1] - sy
            later = [k for k in range(i + 1, len(xy))
                     if ux * (xy[k][1] - sy) - uy * (xy[k][0] - sx) > 0]
            yield from extend((i, j), later, ux, uy)


@dataclass(frozen=True)
class ItemResult:
    vertices: tuple[RationalPoint, ...]
    valid: bool
    family_tag: Optional[str]
    kaehler: Optional[bool]
    diff_type: Optional[str]


class _WallVerdicts(dict):
    """vertex_kind of a wall vertex by the pair of ids of its rays in
    `dirs`, each taken once."""

    def __init__(self, dirs: list[Weight]):
        super().__init__()
        self.dirs = dirs

    def __missing__(self, ids: tuple[int, int]) -> tuple[str, Optional[WallVertexType]]:
        r1, r2 = ids
        verdict = self[ids] = vertex_kind(True, self.dirs[r1], self.dirs[r2])
        return verdict


class _RayTable:
    """Primitive directions by small int id, and the vertex verdicts read
    from pairs of them.

    A vertex's condition depends only on whether it lies on the wall and on
    the primitive rays r1, r2 along its two edges: its verdict is
    vertex_kind(on_wall, r1, r2).  An interior vertex's, a 2x2 determinant,
    is taken on every visit; a wall vertex's, a match against the cone
    patterns, is memoised on the pair of ids.
    """

    def __init__(self):
        self.dirs: list[Weight] = []
        self._ids: dict[Weight, int] = {}
        self._wall = _WallVerdicts(self.dirs)

    def intern(self, w: Weight) -> int:
        """The id of the primitive direction w."""
        k = self._ids.get(w)
        if k is None:
            k = self._ids[w] = len(self.dirs)
            self.dirs.append(w)
        return k

    def verdict(self, on_wall: bool, r1: int, r2: int) -> tuple[str, Optional[WallVertexType]]:
        """vertex_kind of a vertex, on the wall or not, with the rays of ids
        r1, r2."""
        return self._wall[r1, r2] if on_wall else vertex_kind(False, self.dirs[r1], self.dirs[r2])

    def item(self, vertices: tuple[RationalPoint, ...], hull: tuple[RationalPoint, ...],
             scale: int, hull_xy: tuple[IntPair, ...],
             ray_ids: Sequence[tuple[int, int]]) -> ItemResult:
        """The ItemResult of the candidate `vertices`, whose hull is `hull`,
        counterclockwise from its lexicographically smallest vertex, with
        int pairs hull_xy on `scale` and the ids of its vertices' rays.

        An invalid candidate is rejected at its first hull vertex that fails
        its condition.  A valid one's Analysis is handed the report of these
        verdicts, so check_momentum_polytope does not run.
        """
        if len(hull) < 3:
            return ItemResult(vertices, False, None, None, None)
        dirs, wall = self.dirs, self._wall
        verdicts = []
        for (x, y), (r1, r2) in zip(hull_xy, ray_ids):
            # The body of verdict(), inline: a triangle census visits this
            # loop once or more for each of its candidates.
            verdict = wall[r1, r2] if x == y else vertex_kind(False, dirs[r1], dirs[r2])
            if verdict[0] == "invalid":
                return ItemResult(vertices, False, None, None, None)
            verdicts.append(verdict)

        rays = tuple([(dirs[r1], dirs[r2]) for r1, r2 in ray_ids])
        report = ClassificationReport(True, 2, tuple([
            VertexAnalysis(v, r, x == y, *verdict)
            for v, (x, y), r, verdict in zip(hull, hull_xy, rays, verdicts)
        ]))
        analysis = Analysis(Polygon._from_form(hull, scale, hull_xy, rays), report)
        kaehler, _ = is_kaehlerizable(analysis)
        if len(hull) != 3:
            return ItemResult(vertices, True, None, kaehler, None)
        fam = classify_triangle(analysis)
        return ItemResult(vertices, True, fam.tag, kaehler, diffeo_type(fam, analysis).value)


def classify_item(vertices: tuple[RationalPoint, ...]) -> ItemResult:
    """Classify the convex hull of `vertices`: any nonempty tuple of
    points, in any order, with duplicates and non-extreme points allowed.
    The result records `vertices` as given.  Raises ChamberError when a
    point leaves the chamber.

    The rays are int_rays of the candidate's own integer hull, judged as
    the census judges them (_RayTable.item).
    """
    scale, xy = integer_form(vertices)
    hull, hull_xy = hull_of_form(vertices, xy)
    require_chamber(hull_xy)
    table = _RayTable()
    ray_ids = [(table.intern(r1), table.intern(r2))
               for r1, r2 in (int_rays(hull_xy) if len(hull_xy) >= 3 else ())]
    return table.item(vertices, hull, scale, hull_xy, ray_ids)


class _Grid:
    """A census grid with its ray table: the id of the primitive ray from
    grid point i to grid point j is rays[i][j].  enumerate_triangles yields
    the grid's own point objects, which the grid keeps alive, so a
    triangle's grid indices are found by object identity; enumerate_convex
    yields each candidate's indices with it."""

    def __init__(self, points: list[RationalPoint]):
        self.points = points
        # Every point of the grid is in the chamber; so is every candidate.
        self.scale, self.xy = integer_form(points)
        require_chamber(self.xy)
        self._at = {id(p): k for k, p in enumerate(points)}
        self.on_wall = [x == y for x, y in self.xy]
        # prefix_ok[L] is the verdict on the chain of length L that chain()
        # judged last; only lengths 3 to len(points) are read.
        self.prefix_ok = [False] * (len(points) + 1)
        self.table = table = _RayTable()
        self.rays = [
            [None if i == j else table.intern(primitive_int_ray(qx - px, qy - py))
             for j, (qx, qy) in enumerate(self.xy)]
            for i, (px, py) in enumerate(self.xy)
        ]

    def triangle(self, vertices: tuple[RationalPoint, ...]) -> ItemResult:
        """The ItemResult of a candidate of enumerate_triangles: three
        points, lexicographically sorted and not collinear, so that one
        cross product gives the counterclockwise order."""
        at, xy, rays = self._at, self.xy, self.rays
        a, b, c = vertices
        i, j, k = at[id(a)], at[id(b)], at[id(c)]
        p, q, r = xy[i], xy[j], xy[k]
        if (q[0] - p[0]) * (r[1] - p[1]) < (q[1] - p[1]) * (r[0] - p[0]):
            b, c, j, k, q, r = c, b, k, j, r, q
        ri, rj, rk = rays[i], rays[j], rays[k]
        return self.table.item(vertices, (a, b, c), self.scale, (p, q, r),
                               ((ri[j], ri[k]), (rj[k], rj[i]), (rk[i], rk[j])))

    def chain(self, candidate: tuple[tuple[RationalPoint, ...], tuple[int, ...]]) -> ItemResult:
        """The ItemResult of a candidate (vertices, ccw) of enumerate_convex
        on the grid's points, judged on its chain ccw = (s, ..., b, c, p).

        Vertex c is judged with its neighbours b and p, which no extension
        of the chain changes; prefix_ok[L] records whether every vertex from
        ccw[1] to c passes, from prefix_ok[L - 1] of the chain's prefix,
        which enumerate_convex yielded last at that length.  The candidate is
        valid iff that holds and both closing vertices pass: p with
        neighbours c and s, and s with neighbours ccw[1] and p.  A valid
        candidate's ccw is its hull, on which _RayTable.item builds its
        report.
        """
        vertices, ccw = candidate
        n = len(ccw)
        if n < 3:
            return ItemResult(vertices, False, None, None, None)
        xy, rays, verdict = self.xy, self.rays, self.table.verdict
        s, b, c, p = ccw[0], ccw[-3], ccw[-2], ccw[-1]
        ok = self.prefix_ok[n] = (
            (n == 3 or self.prefix_ok[n - 1])
            and verdict(self.on_wall[c], rays[c][p], rays[c][b])[0] != "invalid")
        if not (ok
                and verdict(self.on_wall[p], rays[p][s], rays[p][c])[0] != "invalid"
                and verdict(self.on_wall[s], rays[s][ccw[1]], rays[s][p])[0] != "invalid"):
            return ItemResult(vertices, False, None, None, None)
        points = self.points
        ray_ids = [(rays[k][ccw[(m + 1) % n]], rays[k][ccw[m - 1]]) for m, k in enumerate(ccw)]
        return self.table.item(vertices, tuple([points[k] for k in ccw]), self.scale,
                               tuple([xy[k] for k in ccw]), ray_ids)


@dataclass
class CensusSummary:
    shape: str
    max_coord: int
    denominator: int
    total: int = 0
    valid: int = 0
    invalid: int = 0
    kaehler_true: int = 0
    kaehler_false: int = 0
    by_family: Counter = field(default_factory=Counter)
    by_diff_type: Counter = field(default_factory=Counter)

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
    if shape == "triangles":
        candidates, classify = enumerate_triangles(points), grid.triangle
    else:
        candidates, classify = enumerate_convex(points), grid.chain

    summary = CensusSummary(shape, max_coord, denominator)
    for candidate in candidates:
        item = classify(candidate)
        summary.add(item)
        if on_item is not None:
            on_item(item)
    return summary
