"""Exhaustive census of candidate momentum polytopes on a rational grid.

Enumerates convex polytopes with vertices on the grid
(1/denominator) * [-max_coord, max_coord]^2 intersected with the
dominant chamber, classifies each one, and aggregates counts.  The
candidate order, the per-item stream and all totals are deterministic.
check_census holds each shape to a max-coord with about 10^8 candidates
or fewer (MAX_COORD).  Candidates are classified one after another, on
the grid's integer form, taken once per census; an invalid one is rejected
on its integer hull, and only a valid one gets a Polygon and an Analysis.
On a 2-vCPU x86 machine with Python 3.11, writing the stream, the
max-coord 3 `--shape all` census (46,667 candidates) takes about 1.7 to
2.3 s and the max-coord 4 triangle census (13,428 candidates) about 0.55
to 0.7 s, each including interpreter start-up.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .classify import analyze, classify_triangle, require_chamber, vertex_kind
from .difftype import diffeo_type
from .errors import GeometryError
from .kaehler import is_kaehlerizable
from .lattice import RationalPoint
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


def enumerate_convex(points: list[RationalPoint]) -> Iterator[tuple[RationalPoint, ...]]:
    """All convex polytopes with every chosen point extreme: single points,
    segments, and convex polygons, as sorted vertex tuples.

    Polygons are grown as counterclockwise convex chains anchored at their
    lexicographically smallest vertex, so each polygon appears exactly once.
    A chain is extended only by a point that keeps it closable, so every
    chain of three or more points is yielded and the work grows with the
    output: the 46,667 items at max-coord 3 take about 0.3 s.
    """
    pts = sorted(points)
    for p in pts:
        yield (p,)
    for a, b in itertools.combinations(pts, 2):
        yield (a, b)

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
                chain.append(j)
                yield tuple(pts[k] for k in sorted(chain))
                yield from extend(chain, later, dx, dy)
                chain.pop()

    for i, (sx, sy) in enumerate(xy):
        for j in range(i + 1, len(xy)):
            ux, uy = xy[j][0] - sx, xy[j][1] - sy
            later = [k for k in range(i + 1, len(xy))
                     if ux * (xy[k][1] - sy) - uy * (xy[k][0] - sx) > 0]
            yield from extend([i, j], later, ux, uy)


@dataclass(frozen=True)
class ItemResult:
    vertices: tuple[RationalPoint, ...]
    valid: bool
    family_tag: Optional[str]
    kaehler: Optional[bool]
    diff_type: Optional[str]


def classify_item(vertices: tuple[RationalPoint, ...]) -> ItemResult:
    """Classify the convex hull of `vertices`: any nonempty tuple of
    points, in any order, with duplicates and non-extreme points allowed.
    The result records `vertices` as given.  Raises ChamberError when a
    point leaves the chamber.

    A candidate is rejected on its integer hull, at its first vertex that
    fails its condition, without building a Polygon or an Analysis.  A
    valid one's Polygon is handed the rays this check computed.
    """
    scale, xy = integer_form(vertices)
    return _classify(vertices, scale, xy)


def _classify(vertices: tuple[RationalPoint, ...], scale: int, xy: list[IntPair]) -> ItemResult:
    """classify_item of vertices whose integer form on `scale` is xy."""
    hull, hull_xy = hull_of_form(vertices, xy)
    require_chamber(hull_xy)
    rays = []
    for (x, y), r in zip(hull_xy, int_rays(hull_xy) if len(hull_xy) >= 3 else ()):
        if vertex_kind(x == y, *r)[0] == "invalid":
            break
        rays.append(r)
    if len(rays) < len(hull_xy):
        return ItemResult(vertices, False, None, None, None)
    analysis = analyze(Polygon._from_form(hull, scale, hull_xy, tuple(rays)))
    kaehler, _ = is_kaehlerizable(analysis)
    family_tag = None
    diff = None
    if len(hull_xy) == 3:
        fam = classify_triangle(analysis)
        family_tag = fam.tag
        diff = diffeo_type(fam, analysis).value
    return ItemResult(vertices, True, family_tag, kaehler, diff)


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
    candidates = enumerate_triangles(points) if shape == "triangles" else enumerate_convex(points)
    # The grid's integer form, taken once.  The enumerators yield the grid's
    # own point objects, and `points` keeps them alive for the whole loop, so
    # a candidate's int pairs are found by object identity.  Its polygon then
    # has the grid's scale, which changes none of its lattice facts.
    scale, xy = integer_form(points)
    at = {id(p): q for p, q in zip(points, xy)}

    summary = CensusSummary(shape, max_coord, denominator)
    for vertices in candidates:
        item = _classify(vertices, scale, [at[id(v)] for v in vertices])
        summary.add(item)
        if on_item is not None:
            on_item(item)
    return summary
