"""Independent brute-force validity checker, Kähler verdict and family
generator used as test oracles.

Deliberately shares no code with the package: its own hull (Jarvis
march), its own primitive-vector reduction, a literal transcription
of the four validity conditions, with the five wall patterns matched by
enumerating the parameter over a coordinate-bounded range, a literal
transcription of the positive-edge rule, the five triangle families
generated from their parameters rather than recognized, and the
T-fixpoints with their tangent weights, read off the local model at
each vertex, for the Atiyah-Bott-Berline-Vergne localization sums and
the validity test they give, with the wall vertices they cannot see,
and for the Chern numbers and a mod-3 rule that tells the two
P(C^3)-bundles apart, reference copies of six helpers the package
retired, and the key-function form of the base vertex choice.
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


def oracle_family_triangles(max_coord, denominator=1):
    """Every triangle with its vertices on the census grid
    (1/denominator) * [-max_coord, max_coord]^2 in the chamber that one of
    the five families generates, as a dict from its vertex set (pairs of
    Fractions) to its family tag.

    On the grid's integer coordinates, a family triangle is
    base + t*conv(0, r1, r2) with an integer t >= 1 and primitive rays, so
    every ray entry lies within 2*max_coord:
      - delzant: an off-wall base (s, s - r), r > 0, and r1 = (b1, -a1),
        r2 = (b2, -a2) with a1*b2 - a2*b1 = 1 and a_i + b_i >= 0;
      - the wall families: the base s(1, 1) and the rays of its pattern,
        wall_edge (1, 1) and (k+1, k) (the base is the lower wall vertex),
        half_refl_plus (1, -1) and (j+1, -j), half_refl_minus (1, -1) and
        (j, -j-1), reflection (1, 0) and (0, -1), with j >= 0.
    A triangle is kept when all its vertices are grid points.
    """
    m = max_coord
    span = range(-2 * m, 2 * m + 1)
    grid = [(x, y) for x in range(-m, m + 1) for y in range(-m, m + 1) if x >= y]
    on_grid = set(grid)
    patterns = [("delzant", base, r1, r2)
                for r1 in ((x, y) for x in span for y in span if x - y >= 0)
                for r2 in ((x, y) for x in span for y in span if x - y >= 0)
                if r1[0] * r2[1] - r1[1] * r2[0] == 1
                for base in grid if base[0] > base[1]]
    walls = [("reflection", (1, 0), (0, -1))]
    for k in span:
        walls.append(("wall_edge", (1, 1), (k + 1, k)))
        if k >= 0:
            walls.append(("half_refl_plus", (1, -1), (k + 1, -k)))
            walls.append(("half_refl_minus", (1, -1), (k, -k - 1)))
    patterns += [(tag, (c, c), r1, r2) for tag, r1, r2 in walls for c in range(-m, m + 1)]

    out = {}
    for tag, (bx, by), r1, r2 in patterns:
        for t in range(1, 2 * m + 1):
            p1 = (bx + t * r1[0], by + t * r1[1])
            p2 = (bx + t * r2[0], by + t * r2[1])
            if p1 in on_grid and p2 in on_grid:
                key = frozenset((Fraction(x, denominator), Fraction(y, denominator))
                                for x, y in ((bx, by), p1, p2))
                if out.setdefault(key, tag) != tag:
                    raise AssertionError(f"{sorted(key)} is generated as {out[key]} and {tag}")
    return out


# ---------------------------------------------------------------------------
# Localization of the fixpoint data
# ---------------------------------------------------------------------------

_ALPHA, _NEG_ALPHA = (1, -1), (-1, 1)


def _swap(w):
    return (w[1], w[0])


def oracle_fixpoints(points):
    """The T-fixpoints of the multiplicity free U(2)-manifold whose
    momentum polytope is the hull of the points, assumed valid, as
    (image, weights) pairs: the image a pair of Fractions, the tangent
    weights a triple of int pairs.  They are read off each vertex's two
    primitive rays and whether it lies on the wall, with s the swap:

      - an interior vertex v with rays r1, r2: v with weights
        {r1, r2, -alpha} and s v with {s r1, s r2, alpha};
      - a wall vertex with the ray alpha and another ray e: v twice, with
        {alpha, -alpha, e} and {alpha, -alpha, s e};
      - a wall vertex with the ray +-(eps1+eps2) and another ray o: v once,
        with {o, s o, +-(eps1+eps2)};
      - any other wall vertex: none.
    """
    hull = _jarvis_hull([(Fraction(x), Fraction(y)) for x, y in points])
    n = len(hull)
    out = []
    for i, v in enumerate(hull):
        rays = [_prim(w[0] - v[0], w[1] - v[1]) for w in (hull[i - 1], hull[(i + 1) % n])]
        if v[0] != v[1]:
            r1, r2 = rays
            out += [(v, (r1, r2, _NEG_ALPHA)), (_swap(v), (_swap(r1), _swap(r2), _ALPHA))]
        elif _ALPHA in rays:
            (e,) = [r for r in rays if r != _ALPHA]
            out += [(v, (_ALPHA, _NEG_ALPHA, e)), (v, (_ALPHA, _NEG_ALPHA, _swap(e)))]
        else:
            for d in ((1, 1), (-1, -1)):
                if d in rays:
                    (o,) = [r for r in rays if r != d]
                    out.append((v, (o, _swap(o), d)))
    return out


def _localize(fixpoints, *integrands):
    """For each integrand, the sum over the fixpoints p of
    integrand(h, u) / prod(u), where h = <mu(p), X> and u lists the tangent
    weights <-w, X>, at X = (1, m) with m past every weight entry, so that
    X pairs nonzero with every weight.  By Atiyah-Bott-Berline-Vergne, for
    an integrand that is a polynomial in h and u, symmetric in u, the sum
    is the integral over the manifold of the class it stands for: h for
    the equivariant class y of the symplectic form, the elementary
    symmetric functions of u for the Chern classes."""
    m = 1 + max((abs(c) for _, weights in fixpoints for w in weights for c in w), default=0)
    sums = [Fraction(0)] * len(integrands)
    for (x, y), weights in fixpoints:
        u = [-(a + b * m) for a, b in weights]
        h, den = x + y * m, Fraction(u[0] * u[1] * u[2])
        for i, integrand in enumerate(integrands):
            sums[i] += integrand(h, u) / den
    return sums


def localization_sums(fixpoints):
    """For k = 0..3, the integral of y^k (see _localize).  By
    Atiyah-Bott-Berline-Vergne the sums vanish for k < 3, and the k = 3
    sum is 3! times the symplectic volume (see oracle_volume)."""
    return _localize(fixpoints, *[lambda h, u, k=k: h**k for k in range(4)])


def chern_numbers(fixpoints):
    """The Chern numbers (c1 c2, c1^3, c3) of the manifold, by localization:
    c1, c2 and c3 restrict to a fixpoint as the elementary symmetric
    functions of its tangent weights, so the integral of c3 is the Euler
    characteristic, the number of fixpoints."""
    return tuple(_localize(
        fixpoints,
        lambda h, u: sum(u) * (u[0] * u[1] + u[0] * u[2] + u[1] * u[2]),
        lambda h, u: sum(u) ** 3,
        lambda h, u: u[0] * u[1] * u[2]))


def bundle_is_trivial(fixpoints):
    """Whether the P(C^3)-bundle over S^2 with these fixpoints is trivial,
    by the integrals of y^3 and c1 y^2; None when they do not decide it.

    Take a basis h, x of H^2 with h^2 = 0, h x^2 = 1 and x^3 = c; c mod 3
    tells the bundles apart, 0 for the trivial one.  With y = a h + b x,
    y^3 = 3 a b^2 + c b^3 = c b (mod 3), and c1 = 3x + k h gives
    c1 y^2 = k b^2 (mod 3).  So if either integral is nonzero mod 3, then
    b is too, and the bundle is trivial iff y^3 = 0 (mod 3).

    The rule needs [omega] to be an integral class.  That the class of an
    integral polygon is integral is observed (every such integral on the
    census grids is an integer), not proved, so a fractional integral
    raises ValueError instead of deciding."""
    y3, c1y2 = _localize(fixpoints, lambda h, u: h**3, lambda h, u: sum(u) * h**2)
    if y3.denominator != 1 or c1y2.denominator != 1:
        raise ValueError(f"integrals y^3 = {y3}, c1 y^2 = {c1y2} are not integers")
    if y3 % 3 == 0 and c1y2 % 3 == 0:
        return None
    return y3 % 3 == 0


def oracle_volume(points):
    """The symplectic volume of the manifold over the hull P of the
    points: the integral of x - y over P, since the coadjoint orbit through
    (x, y) has area proportional to its coroot pairing x - y."""
    hull = _jarvis_hull([(Fraction(x), Fraction(y)) for x, y in points])
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        total += (x0 * y1 - x1 * y0) * (x0 + x1 - y0 - y1)
    # The Jarvis hull is clockwise, which negates the shoelace sum.
    return -total / 6


def localizes(points):
    """True iff the oracle's T-fixpoints of the hull of the points, a
    2-dimensional polygon in the chamber, satisfy the localization
    identities: the sums vanish for k < 3, and the k = 3 sum is six times
    the volume.  A hull with no fixpoint fails them: its volume is
    positive."""
    sums = localization_sums(oracle_fixpoints(points))
    return sums[:3] == [0, 0, 0] and sums[3] == 6 * oracle_volume(points)


def unseen_wall_vertex(points):
    """True iff the hull of the points has a wall vertex that the
    localization cannot see: its rays include neither alpha nor
    +-(eps1+eps2), so it has no fixpoint, and match no wall pattern."""
    hull = _jarvis_hull([(Fraction(x), Fraction(y)) for x, y in points])
    n = len(hull)
    for i, v in enumerate(hull):
        rays = {_prim(w[0] - v[0], w[1] - v[1]) for w in (hull[i - 1], hull[(i + 1) % n])}
        if (v[0] == v[1] and not rays & {_ALPHA, (1, 1), (-1, -1)}
                and not _matches_wall_pattern(rays)):
            return True
    return False


def oracle_base_vertex(xy):
    """The index of a triangle's base vertex among its int pairs xy, as a
    key function: minimal x - y, ties broken by the pair (x, y), the first
    such vertex if two pairs are equal."""
    return min(range(3), key=lambda k: (xy[k][0] - xy[k][1], xy[k]))


# ---------------------------------------------------------------------------
# References for helpers the package retired
# ---------------------------------------------------------------------------
# No engine code called these six, so the package dropped them; tests keep
# them as second routes.  They read a polygon, edge or point of the package
# only through its vertices, its edges and their coordinates.


def line_bundle_chern(k1, k2):
    """First Chern number of the line bundle glued from fiber weights k1 and
    k2, with the sign convention k1 - k2 (only its residue mod 3 is read)."""
    return k1 - k2


def _edge_vector(e):
    return e.head.x - e.tail.x, e.head.y - e.tail.y


def inward_primitive_normal(polygon, e):
    """The primitive normal of the edge e of the counterclockwise polygon
    that points into it, (-dy, dx) reduced, as an int pair."""
    if e not in polygon.edges():
        raise ValueError(f"{e} is not an edge")
    dx, dy = _edge_vector(e)
    return _prim(-dy, dx)


def positive_edges(polygon):
    """The edges of a valid polygon whose inward normal pairs positively
    with the coroot: -dy - dx > 0 for an edge (dx, dy)."""
    if not oracle_is_valid([(v.x, v.y) for v in polygon.vertices]):
        raise ValueError("the polygon is not a valid momentum polytope")
    return [e for e in polygon.edges() if sum(_edge_vector(e)) < 0]


def boundary_contains(polygon, p):
    """True iff the point p lies on an edge of the 2-dimensional polygon:
    on the edge's line and between its ends."""
    vs = polygon.vertices
    if len(vs) < 3:
        raise ValueError("boundary test needs a 2-dimensional polygon")
    for a, b in zip(vs, vs[1:] + vs[:1]):
        if ((b.x - a.x) * (p.y - a.y) == (b.y - a.y) * (p.x - a.x)
                and min(a.x, b.x) <= p.x <= max(a.x, b.x)
                and min(a.y, b.y) <= p.y <= max(a.y, b.y)):
            return True
    return False


def transform(polygon, s, t):
    """The polygon under v -> s*(eps1+eps2) + t*v for t > 0, built by the
    polygon's own class from the moved vertices in their order: a shift
    along eps1+eps2 and a positive scaling keep the counterclockwise order
    and the lexicographically smallest vertex first."""
    s, t = Fraction(s), Fraction(t)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    return type(polygon)(tuple([type(v)(s + t * v.x, s + t * v.y) for v in polygon.vertices]))


def _coordinate(q):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def polytope_document(points):
    """The input document of the points: a "vertices" list of [x, y] pairs,
    an integral coordinate as a number and any other as a "p/q" string."""
    return {"vertices": [[_coordinate(p.x), _coordinate(p.y)] for p in points]}
