"""Exhaustive census of candidate momentum polytopes on a rational grid.

Enumerates convex polytopes with vertices on the grid
(1/denominator) * [-max_coord, max_coord]^2 intersected with the
dominant chamber, classifies each one, and aggregates counts.  The
candidate order, the per-item stream and all totals are deterministic
and independent of the worker-thread count.
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .classify import analyze, classify_triangle
from .difftype import diffeo_type
from .kaehler import is_kaehlerizable
from .lattice import RationalPoint, cross
from .polygon import convex_hull

_CHUNK = 256


def grid_points(max_coord: int, denominator: int = 1) -> list[RationalPoint]:
    """Chamber part of the grid, in lexicographic order."""
    if max_coord < 1 or denominator < 1:
        raise ValueError("max_coord and denominator must be positive")
    rng = range(-max_coord, max_coord + 1)
    return [
        RationalPoint(Fraction(i, denominator), Fraction(j, denominator))
        for i in rng
        for j in rng
        if i >= j
    ]


def enumerate_triangles(points: list[RationalPoint]) -> Iterator[tuple[RationalPoint, ...]]:
    """All 3-element subsets in convex position, as sorted vertex tuples."""
    for a, b, c in itertools.combinations(points, 3):
        if cross(b - a, c - a) != 0:
            yield (a, b, c)


def enumerate_convex(points: list[RationalPoint]) -> Iterator[tuple[RationalPoint, ...]]:
    """All convex polytopes with every chosen point extreme: single points,
    segments, and convex polygons, as sorted vertex tuples.

    Polygons are grown as counterclockwise convex chains anchored at their
    lexicographically smallest vertex, so each polygon appears exactly once.
    The count grows quickly with the grid; intended for small grids.
    """
    pts = sorted(points)
    for p in pts:
        yield (p,)
    for a, b in itertools.combinations(pts, 2):
        yield (a, b)

    def sector(d0, d):
        # Angular sector of d measured counterclockwise from d0:
        # 0 = same direction, 1 = (0, 180), 2 = opposite, 3 = (180, 360).
        c = cross(d0, d)
        dot = d0.x * d.x + d0.y * d.y
        if c == 0:
            return 0 if dot > 0 else 2
        return 1 if c > 0 else 3

    def pos_lt(d0, a, b):
        # True iff the angle of a from d0 is strictly smaller than that of b.
        sa, sb = sector(d0, a), sector(d0, b)
        if sa != sb:
            return sa < sb
        return cross(a, b) > 0

    def extend(start, chain, d0, last_dir):
        # chain is a counterclockwise convex chain from start; edge directions
        # turn strictly left and never wrap past the first direction d0, so
        # every closed polygon is traversed with total turning exactly 360.
        cur = chain[-1]
        for p in pts:
            if p <= start or p in chain:
                continue
            d = p - cur
            if last_dir is not None and (
                cross(last_dir, d) <= 0 or not pos_lt(d0, last_dir, d)
            ):
                continue
            closing = start - p
            if (
                len(chain) >= 2
                and cross(d, closing) > 0
                and pos_lt(d0, d, closing)
                and cross(closing, d0) > 0
            ):
                yield tuple(sorted(chain + [p]))
            yield from extend(start, chain + [p], d0 if d0 is not None else d, d)

    for start in pts:
        yield from extend(start, [start], None, None)


@dataclass(frozen=True)
class ItemResult:
    vertices: tuple[RationalPoint, ...]
    valid: bool
    family_tag: Optional[str]
    kaehler: Optional[bool]
    diff_type: Optional[str]


def classify_item(vertices: tuple[RationalPoint, ...]) -> ItemResult:
    analysis = analyze(convex_hull(vertices))
    if not analysis.report.valid:
        return ItemResult(vertices, False, None, None, None)
    kaehler, _ = is_kaehlerizable(analysis)
    family_tag = None
    diff = None
    if len(analysis.polygon) == 3:
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


def _chunks(it: Iterable, size: int) -> Iterator[list]:
    it = iter(it)
    while chunk := list(itertools.islice(it, size)):
        yield chunk


def run_census(
    max_coord: int,
    denominator: int = 1,
    shape: str = "triangles",
    threads: int = 1,
    on_item=None,
) -> CensusSummary:
    """Classify every candidate and aggregate; `on_item` (if given) receives
    every ItemResult in the deterministic candidate order."""
    points = grid_points(max_coord, denominator)
    if shape == "triangles":
        candidates = enumerate_triangles(points)
    elif shape == "all":
        candidates = enumerate_convex(points)
    else:
        raise ValueError(f"unknown shape {shape!r}")

    summary = CensusSummary(shape, max_coord, denominator)

    def work(chunk: list) -> list[ItemResult]:
        return [classify_item(vs) for vs in chunk]

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for chunk in (pool.map if pool else map)(work, _chunks(candidates, _CHUNK)):
            for item in chunk:
                summary.add(item)
                if on_item is not None:
                    on_item(item)
    finally:
        if pool is not None:
            # If on_item raised, drop the queued chunks; the running ones finish.
            pool.shutdown(cancel_futures=True)
    return summary
