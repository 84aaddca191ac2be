"""Independent brute-force validity checker and Kähler verdict used as
test oracles.

Deliberately shares no code with the package: its own hull (Jarvis
march), its own primitive-vector reduction, a literal transcription
of the four validity conditions, with the five wall patterns matched by
enumerating the parameter over a coordinate-bounded range, and a literal
transcription of the positive-edge rule.
"""

from fractions import Fraction
from math import gcd


def _prim(dx, dy):
    dx, dy = Fraction(dx), Fraction(dy)
    m = dx.denominator * dy.denominator
    a, b = int(dx * m), int(dy * m)
    g = gcd(abs(a), abs(b))
    return (a // g, b // g)


def _jarvis_hull(points):
    """Extreme points in clockwise order from the smallest (Jarvis march:
    each step takes the point with no other point to its left)."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    start = pts[0]
    hull = [start]
    cur = start
    while True:
        cand = None
        for p in pts:
            if p == cur:
                continue
            if cand is None:
                cand = p
                continue
            turn = (cand[0] - cur[0]) * (p[1] - cur[1]) - (cand[1] - cur[1]) * (p[0] - cur[0])
            if turn > 0:
                cand = p
            elif turn == 0:
                # Same direction: keep the farther point.
                d_cand = (cand[0] - cur[0]) ** 2 + (cand[1] - cur[1]) ** 2
                d_p = (p[0] - cur[0]) ** 2 + (p[1] - cur[1]) ** 2
                if d_p > d_cand:
                    cand = p
        if cand == start:
            break
        hull.append(cand)
        cur = cand
    return hull


def _matches_wall_pattern(rays):
    bound = max(abs(c) for r in rays for c in r) + 2
    for k in range(-bound, bound + 1):
        if rays == {(1, 1), (k + 1, k)}:
            return True
        if rays == {(-1, -1), (k + 1, k)}:
            return True
    for j in range(0, bound + 1):
        if rays == {(1, -1), (j + 1, -j)}:
            return True
        if rays == {(1, -1), (j, -j - 1)}:
            return True
        if rays == {(j + 1, -j), (j, -j - 1)}:
            return True
    return False


def oracle_is_valid(points):
    """True iff the convex hull of the points is a valid momentum polytope.

    Assumes every point satisfies x >= y (dominant chamber).
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    for x, y in pts:
        if x < y:
            raise ValueError("oracle input must lie in the chamber")
    hull = _jarvis_hull(pts)
    if len(hull) < 3:
        return False  # condition (1): not 2-dimensional
    n = len(hull)
    for i, v in enumerate(hull):
        prv = hull[(i - 1) % n]
        nxt = hull[(i + 1) % n]
        r1 = _prim(nxt[0] - v[0], nxt[1] - v[1])
        r2 = _prim(prv[0] - v[0], prv[1] - v[1])
        if v[0] == v[1]:
            if not _matches_wall_pattern({r1, r2}):
                return False  # condition (4)
        else:
            det = r1[0] * r2[1] - r1[1] * r2[0]
            if det not in (1, -1):
                return False  # condition (3)
    return True


def oracle_kaehler(points):
    """Kähler verdict of a valid momentum polytope by the positive-edge rule.

    With exactly one wall vertex w, every edge whose inward normal pairs
    positively with the coroot (x - y > 0) must contain w; otherwise the
    rule is vacuous.  An edge of the hull contains the vertex w iff w is
    one of its ends.
    """
    hull = _jarvis_hull([(Fraction(x), Fraction(y)) for x, y in points])[::-1]
    wall = [v for v in hull if v[0] == v[1]]
    if len(wall) != 1:
        return True
    n = len(hull)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        dx, dy = b[0] - a[0], b[1] - a[1]
        # The hull is now counterclockwise, so the interior lies left of
        # each edge: the inward normal is (-dy, dx).
        if -dy - dx > 0 and wall[0] not in (a, b):
            return False
    return True
