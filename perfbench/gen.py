"""Seeded input generator for the classify-rich workload.

Builds polytope documents (JSON text) plus what the generator knows about
each one from its construction.  Nothing here imports the engine: the
engine only ever sees the document text.

Every seed yields the same slot structure (how many documents of each
kind, how many vertices each chopped polygon gets); the seed chooses the
rational values.  So the cost of a pass varies little from seed to seed,
while no two seeds feed the engine the same numbers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

# Valid polygons with one wall vertex, from the acceptance fixtures:
# the two Woodward trapezoids and the four figure polygons.
FIXTURES = (
    ((0, 0), (1, 0), (3, -1), (0, -1)),
    ((0, 0), (1, 0), (3, -1), (1, -1)),
    ((2, 2), (2, 1), (5, 1), (5, 2)),
    ((2, 2), (2, 1), (5, 1), (3, 2)),
    ((2, 2), (4, 0), (5, 0), (5, 2)),
    ((2, 2), (3, 1), (5, 1), (3, 2)),
)

FAMILIES = ("delzant", "wall_edge", "half_refl_plus", "half_refl_minus", "reflection")

# (a1, b1, a2, b2) with a1*b2 - a2*b1 = 1 and a_i + b_i >= 0.
DELZANT_PARAMS = tuple(
    (a1, b1, a2, b2)
    for a1 in range(-3, 4)
    for b1 in range(-3, 4)
    for a2 in range(-3, 4)
    for b2 in range(-3, 4)
    if a1 * b2 - a2 * b1 == 1 and a1 + b1 >= 0 and a2 + b2 >= 0
)

# Slot structure of one document set.
CHOPPED = 150         # valid polygons grown by Delzant corner chops
CHOPS = range(2, 11)  # chops per polygon, cycled over the slots
TRIANGLES_PER_FAMILY = 5
INVALID = 25          # random rational hulls the engine must reject
CUT_DENOMINATORS = (2, 3, 4, 5, 6, 7, 8, 9)


@dataclass(frozen=True)
class Doc:
    """One generated document and its construction facts."""

    text: str
    valid: bool
    hull: tuple                       # extreme points, counterclockwise
    family: Optional[str] = None      # for triangles: the family built
    params: Optional[dict] = None     # for triangles: s, t, j / k as built


def _prim(dx: Fraction, dy: Fraction) -> tuple[int, int]:
    m = dx.denominator * dy.denominator // gcd(dx.denominator, dy.denominator)
    a, b = int(dx * m), int(dy * m)
    g = gcd(abs(a), abs(b))
    return (a // g, b // g)


def _lattice_length(v, w, ray) -> Fraction:
    """The positive t with w - v = t * ray."""
    return (w[0] - v[0]) / ray[0] if ray[0] else (w[1] - v[1]) / ray[1]


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points) -> tuple:
    """Extreme points, counterclockwise (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return tuple(pts)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) > 1 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    return tuple(lower[:-1] + upper[:-1])


def coord_out(q: Fraction):
    """A coordinate as documents and reports write it: int or "p/q"."""
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _text(points) -> str:
    return json.dumps({"vertices": [[coord_out(x), coord_out(y)] for x, y in points]})


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo * 12, hi * 12), rng.choice((1, 2, 3, 4, 6, 12)))


def chop(rng: random.Random, poly: list) -> list:
    """Cut one interior (off-wall) corner of a valid counterclockwise polygon.

    At a Delzant vertex v with primitive rays r1, r2 the cut replaces v by
    v + e*r1 and v + e*r2; both new vertices are Delzant again and stay off
    the wall because 0 < e < both edge lengths.
    """
    interior = [i for i, (x, y) in enumerate(poly) if x > y]
    i = rng.choice(interior)
    v, nxt, prv = poly[i], poly[(i + 1) % len(poly)], poly[i - 1]
    r1 = _prim(nxt[0] - v[0], nxt[1] - v[1])
    r2 = _prim(prv[0] - v[0], prv[1] - v[1])
    room = min(_lattice_length(v, nxt, r1), _lattice_length(v, prv, r2))
    q = rng.choice(CUT_DENOMINATORS)
    e = room * Fraction(rng.randint(1, q - 1), q)
    a = (v[0] + e * r1[0], v[1] + e * r1[1])
    b = (v[0] + e * r2[0], v[1] + e * r2[1])
    return poly[:i] + [b, a] + poly[i + 1:]


def family_triangle(rng: random.Random, family: str) -> tuple[list, dict]:
    """Vertices of a triangle of the given family, with rational s and t."""
    s = _rational(rng, -3, 3)
    t = Fraction(rng.randint(1, 36), rng.choice((1, 2, 3, 5, 7)))
    base = (s, s)

    def at(dx, dy):
        return (s + t * dx, s + t * dy)

    if family == "delzant":
        a1, b1, a2, b2 = rng.choice(DELZANT_PARAMS)
        r = Fraction(rng.randint(1, 24), rng.choice((1, 2, 3)))
        base = (s, s - r)
        pts = [base, (s + t * b1, s - r - t * a1), (s + t * b2, s - r - t * a2)]
        return pts, {"r": r, "s": s, "t": t, "a1": a1, "b1": b1, "a2": a2, "b2": b2}
    if family == "wall_edge":
        k = rng.randint(-3, 3)
        return [base, at(1, 1), at(k + 1, k)], {"s": s, "t": t, "k": k, "l": 1}
    if family == "half_refl_plus":
        j = rng.randint(0, 4)
        return [base, at(1, -1), at(j + 1, -j)], {"s": s, "t": t, "j": j}
    if family == "half_refl_minus":
        j = rng.randint(0, 4)
        return [base, at(1, -1), at(j, -j - 1)], {"s": s, "t": t, "j": j}
    return [base, at(1, 0), at(0, -1)], {"s": s, "t": t}


def _chop_sources(rng: random.Random) -> list[list]:
    """Seeds for the chopped polygons: the six fixtures (one wall vertex),
    a Delzant triangle (none) and a wall-edge triangle (two)."""
    sources = [list(_hull((Fraction(x), Fraction(y)) for x, y in f)) for f in FIXTURES]
    for family in ("delzant", "wall_edge"):
        pts, _ = family_triangle(rng, family)
        sources.append(list(_hull(pts)))
    return sources


def generate(seed: int, oracle_is_valid) -> list[Doc]:
    """The document set for one seed; `oracle_is_valid` labels the
    random hulls, which are kept only when the oracle rejects them."""
    rng = random.Random(seed)
    docs: list[Doc] = []

    sources = _chop_sources(rng)
    for n in range(CHOPPED):
        # Shift along eps1+eps2, so slots grown from one source differ more.
        shift = _rational(rng, -4, 4)
        poly = [(x + shift, y + shift) for x, y in sources[n % len(sources)]]
        for _ in range(CHOPS[n % len(CHOPS)]):
            poly = chop(rng, poly)
        docs.append(Doc(_text(poly), True, _hull(poly)))

    for family in FAMILIES:
        for _ in range(TRIANGLES_PER_FAMILY):
            pts, params = family_triangle(rng, family)
            rng.shuffle(pts)
            docs.append(Doc(_text(pts), True, _hull(pts), family, params))

    valid_docs = len(docs)
    while len(docs) < valid_docs + INVALID:
        pts = []
        for _ in range(rng.randint(4, 8)):
            y = _rational(rng, -4, 4)
            on_wall = rng.random() < 0.25
            pts.append((y, y) if on_wall else (y + _rational(rng, 0, 5) + Fraction(1, 12), y))
        hull = _hull(pts)
        if len(hull) >= 3 and not oracle_is_valid(pts):
            docs.append(Doc(_text(pts), False, hull))

    rng.shuffle(docs)
    return docs


def properties(items) -> dict:
    """Input property shares of a workload, from (extreme points, valid)
    pairs: valid share, wall-vertex-count mix, vertex-count mix and the
    largest denominator."""
    n = valid = 0
    walls: dict[int, int] = {}
    sizes: dict[int, int] = {}
    largest = 1
    for points, ok in items:
        n += 1
        valid += ok
        w = sum(1 for x, y in points if x == y)
        walls[w] = walls.get(w, 0) + 1
        sizes[len(points)] = sizes.get(len(points), 0) + 1
        for x, y in points:
            largest = max(largest, x.denominator, y.denominator)
    return {
        "items": n,
        "valid_share": round(valid / n, 4),
        "wall_vertex_mix": {str(k): round(v / n, 4) for k, v in sorted(walls.items())},
        "vertex_count_mix": {str(k): round(v / n, 4) for k, v in sorted(sizes.items())},
        "largest_denominator": largest,
    }
