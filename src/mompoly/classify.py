"""Momentum polytope validity, wall vertex typing and triangle families.

A convex polygon inside the dominant chamber is the momentum polytope of
a (unique) multiplicity free U(2)-manifold with trivial principal
isotropy group iff it is 2-dimensional, every interior vertex satisfies
the Delzant condition and every wall vertex shows one of five cone
patterns.  Valid triangles fall into five parametrized families; the
parameters reconstruct the triangle exactly.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence, Union

from .errors import ChamberError, GeometryError, InvalidPolytopeError
from .lattice import (
    ALPHA,
    EPS1,
    EPS2,
    RationalPoint,
    Value,
    Weight,
    is_lattice_basis,
)
from .polygon import IntPair, Polygon, convex_hull, form_point

_ONE = Weight(1, 1)


# ---------------------------------------------------------------------------
# Wall vertex cone patterns
# ---------------------------------------------------------------------------
# Each pattern also carries `fixpoints`: how many T-fixpoints map to a wall
# vertex of that type (the vertex is its own reflection); `xray`: the x-ray
# rule at a lone wall vertex of that type (see kaehler.build_xray; a
# wall-edge vertex is never one, so _WallEdge has none); `local_model()`:
# the smooth affine spherical GL(2)-variety that models the vertex; and
# `family(s, t)`: the triangle family whose base s(eps1+eps2) has this
# pattern, with edges of scale t there.

class _WallEdge(Value, namedtuple("_WallEdge", "k")):
    """Rays {sign(eps1+eps2), k(eps1+eps2)+eps1}: the wall edge at the vertex
    leaves it in direction sign(eps1+eps2)."""

    __slots__ = ()
    fixpoints = 1

    def rays(self) -> frozenset:
        return frozenset({self.sign * _ONE, Weight(self.k + 1, self.k)})

    def local_model(self) -> str:
        return f"(C^2 (x) det^-{self.k + 1}) x det^{-self.sign}"

    def family(self, s: Fraction, t: Fraction) -> TriangleFamily:
        return WallEdgeFamily(s, t, self.k, self.sign)


class WallEdgePlus(_WallEdge):
    """Rays {eps1+eps2, k(eps1+eps2)+eps1}."""

    __slots__ = ()
    name = "wall_edge_plus"
    sign = 1


class WallEdgeMinus(_WallEdge):
    """Rays {-(eps1+eps2), k(eps1+eps2)+eps1}."""

    __slots__ = ()
    name = "wall_edge_minus"
    sign = -1


class _HalfRefl(Value, namedtuple("_HalfRefl", "j")):
    """Rays {alpha, j*alpha+e}, for the eps-term e = eps1 or -eps2 of the
    subclass: the two patterns are dual under -w0, which fixes alpha and
    maps eps1 to -eps2."""

    __slots__ = ()
    fixpoints = 2
    xray = "all_edges"

    def rays(self) -> frozenset:
        return frozenset({ALPHA, self.j * ALPHA + self.eps})

    def local_model(self) -> str:
        return f"GL(2) x_TC C_-({self.j}*alpha{self.eps_text})"

    def family(self, s: Fraction, t: Fraction) -> TriangleFamily:
        return _HALF_REFL_FAMILY[type(self)](s, t, self.j)


class HalfReflPlus(_HalfRefl):
    """Rays {alpha, j*alpha+eps1}."""

    __slots__ = ()
    name = "half_refl_plus"
    eps, eps_text = EPS1, "+eps1"


class HalfReflMinus(_HalfRefl):
    """Rays {alpha, j*alpha-eps2}."""

    __slots__ = ()
    name = "half_refl_minus"
    eps, eps_text = -EPS2, "-eps2"


class Reflection(Value, namedtuple("Reflection", "j")):
    """Rays {j*alpha+eps1, j*alpha-eps2}."""

    __slots__ = ()
    name = "reflection"
    fixpoints = 0
    xray = "inner_edges_and_cross"

    def rays(self) -> frozenset:
        return frozenset({Weight(self.j + 1, -self.j), Weight(self.j, -self.j - 1)})

    def local_model(self) -> str:
        return f"GL(2)/{{diag(z^{self.j}, z^{self.j + 1})}}"

    def family(self, s: Fraction, t: Fraction) -> TriangleFamily:
        return ReflectionFamily(s, t)


WallVertexType = Union[WallEdgePlus, WallEdgeMinus, HalfReflPlus, HalfReflMinus, Reflection]


def classify_wall_rays(r1: Weight, r2: Weight) -> Optional[WallVertexType]:
    """Match an unordered pair of primitive rays against the five wall
    patterns.  Returns None when no pattern matches; the patterns are
    mutually exclusive.

    The match is integer tests on the rays' coordinates, in this order:
    equal rays match nothing, a pair with a ray +-(1, 1) is a wall edge or
    nothing, then a pair with the ray alpha a half reflection or nothing,
    and any other pair a reflection or nothing.  Each test that needs the
    two rays in a pattern's order swaps them into it first."""
    (a1, b1), (a2, b2) = r1, r2
    if a1 == a2 and b1 == b2:
        return None
    # Wall edge: rays {sign(1, 1), (k + 1, k)}.
    if a2 == b2 and (a2 == 1 or a2 == -1):
        a1, b1, a2, b2 = a2, b2, a1, b1
    if a1 == b1 and (a1 == 1 or a1 == -1):
        if a2 - b2 != 1:
            return None
        return WallEdgePlus(b2) if a1 == 1 else WallEdgeMinus(b2)
    # Half reflection: rays {alpha, (j + 1, -j)} or {alpha, (j, -j - 1)}, j >= 0.
    if a2 == 1 and b2 == -1:
        a1, b1, a2, b2 = a2, b2, a1, b1
    if a1 == 1 and b1 == -1:
        c = a2 + b2
        if c == 1 and a2 >= 1:
            return HalfReflPlus(a2 - 1)
        if c == -1 and a2 >= 0:
            return HalfReflMinus(a2)
        return None
    # Reflection: rays {(j + 1, -j), (j, -j - 1)}, j >= 0.
    if a1 + b1 == -1:
        a1, b1, a2, b2 = a2, b2, a1, b1
    if a1 + b1 == 1 and a2 + b2 == -1 and a1 == a2 + 1 and a2 >= 0:
        return Reflection(a2)
    return None


# ---------------------------------------------------------------------------
# Validity report
# ---------------------------------------------------------------------------

class VertexAnalysis(Value, namedtuple("VertexAnalysis", "vertex rays on_wall kind wall_type",
                                       defaults=(None,))):
    """A vertex, its two primitive rays, whether it lies on the wall, its
    kind ("interior_delzant", "wall" or "invalid") and its wall type."""

    __slots__ = ()

    @property
    def reason(self) -> Optional[str]:
        """Why an invalid vertex fails its condition; None for a valid one."""
        if self.kind != "invalid":
            return None
        if self.on_wall:
            return f"wall vertex {self.vertex} has rays {self.rays} matching no wall pattern"
        return f"interior vertex {self.vertex} has non-unimodular rays {self.rays}"


class ClassificationReport(Value, namedtuple("ClassificationReport",
                                             "valid dimension vertex_data")):
    """The facts of the validity check.  The rejection reasons are formatted
    from them when they are read."""

    __slots__ = ()

    @property
    def failures(self) -> tuple[tuple[int, str], ...]:
        """(condition id, reason) of every failure, in vertex order."""
        if self.dimension != 2:
            return ((1, f"polytope has dimension {self.dimension}, expected 2"),)
        return tuple(
            (4 if va.on_wall else 3, va.reason) for va in self.vertex_data if va.kind == "invalid"
        )


def require_chamber(xy: Iterable[IntPair]) -> None:
    """Raise ChamberError unless every point (x, y) of an integer form has x >= y."""
    if not all(x >= y for x, y in xy):
        raise ChamberError("polygon leaves the dominant chamber x >= y")


def vertex_kind(on_wall: bool, r1: Weight, r2: Weight) -> tuple[str, Optional[WallVertexType]]:
    """Conditions 3 and 4 at a vertex with primitive rays r1, r2: its kind
    ("interior_delzant", "wall" or "invalid") and, at a wall vertex, the
    cone pattern it matches."""
    if on_wall:
        wt = classify_wall_rays(r1, r2)
        return ("invalid" if wt is None else "wall"), wt
    return ("interior_delzant" if is_lattice_basis(r1, r2) else "invalid"), None


def check_momentum_polytope(polygon: Polygon) -> ClassificationReport:
    """Run the four validity conditions; invalidity is a report value.

    Condition 2 (rationality) holds by construction for rational input.
    A polygon outside the chamber is an input error, not an invalid one.
    """
    require_chamber(polygon.xy)

    dim = polygon.dimension()
    if dim != 2:
        return ClassificationReport(False, dim, ())

    # Tuples are built from lists: see the polygon module's docstring.
    # tuple.__new__ builds each VertexAnalysis without its Python-level __new__.
    new = tuple.__new__
    data = tuple([
        new(VertexAnalysis, (v, rays, x == y, *vertex_kind(x == y, *rays)))
        for v, (x, y), rays in zip(polygon.vertices, polygon.xy, polygon.rays)
    ])
    valid = all(va.kind != "invalid" for va in data)
    return ClassificationReport(valid, dim, data)


# ---------------------------------------------------------------------------
# Triangle families
# ---------------------------------------------------------------------------
# Each family also carries `diffeo`: the diffeomorphism type of its
# manifolds, or None where the mod-3 Chern residue decides it (see
# difftype); `wall_types()`: the cone patterns at its wall vertices; and
# `model()`: the total space and GL(2)-variety label of its manifold model.

class DiffType(enum.Enum):
    PROJECTIVE_SPACE_4 = "projective_space_4"          # P(C^4)
    ORIENTED_GRASSMANNIAN = "oriented_grassmannian"    # oriented 2-planes in R^5
    TRIVIAL_P2_BUNDLE = "trivial_p2_bundle"            # S^2 x P(C^3)
    NONTRIVIAL_P2_BUNDLE = "nontrivial_p2_bundle"      # nontrivial P(C^3)-bundle over S^2


Cone = tuple[Fraction, Fraction, Fraction, Weight, Weight]


class _Family:
    """A triangle family whose cone() is (x, y, t, r1, r2): its triangle is
    (x, y) + t*conv(0, r1, r2).  A mixin for the five families."""

    __slots__ = ()

    def triangle(self) -> Polygon:
        x, y, t, r1, r2 = self.cone()
        return convex_hull([RationalPoint(x, y), RationalPoint(x + t * r1.a, y + t * r1.b),
                            RationalPoint(x + t * r2.a, y + t * r2.b)])


class DelzantFamily(_Family, Value, namedtuple("DelzantFamily", "r s t a1 b1 a2 b2")):
    """r(-eps2) + s(eps1+eps2) + t*conv(0, d1, d2) with d_i = a_i(-eps2)+b_i*eps1,
    a1*b2 - a2*b1 = 1 and a_i + b_i >= 0."""

    __slots__ = ()
    tag = "delzant"
    diffeo = None

    def deltas(self) -> tuple[Weight, Weight]:
        return Weight(self.b1, -self.a1), Weight(self.b2, -self.a2)

    def wall_types(self) -> tuple[WallVertexType, ...]:
        return ()

    def cone(self) -> Cone:
        """(x, y, t, r1, r2): the triangle is (x, y) + t*conv(0, r1, r2)."""
        return (self.s, self.s - self.r, self.t, *self.deltas())

    def model(self) -> tuple[TotalSpace, str]:
        d1, d2 = self.deltas()
        total = TotalSpace("projective_bundle_over_sphere", (Weight(0, 0), -d1, -d2))
        return total, f"GL(2) x_B- P(C + C_-{_wfmt(d1)} + C_-{_wfmt(d2)})"


class _WallFamily(_Family):
    """A family whose triangles have the wall vertex s(eps1+eps2) with cone
    pattern p = wall_types()[0]: s(eps1+eps2) + t*conv(0, r1, r2) for the
    rays r1, r2 of p.  A mixin: the family declares the fields s, t."""

    __slots__ = ()

    def cone(self) -> Cone:
        """(x, y, t, r1, r2): the triangle is (x, y) + t*conv(0, r1, r2)."""
        return (self.s, self.s, self.t, *self.wall_types()[0].rays())


class WallEdgeFamily(_WallFamily, Value, namedtuple("WallEdgeFamily", "s t k l")):
    """s(eps1+eps2) + t*conv(0, l(eps1+eps2), k(eps1+eps2)+eps1), l in {+1,-1}."""

    __slots__ = ()
    tag = "wall_edge"
    diffeo = DiffType.PROJECTIVE_SPACE_4

    def wall_types(self) -> tuple[WallVertexType, ...]:
        if self.l == 1:
            return (WallEdgePlus(self.k), WallEdgeMinus(self.k - 1))
        return (WallEdgeMinus(self.k), WallEdgePlus(self.k + 1))

    def model(self) -> tuple[TotalSpace, str]:
        k, l = self.k, self.l
        total = TotalSpace(
            "projective_space",
            (
                Weight(-k, -k - 1),       # eps1 - (k+1)(eps1+eps2)
                Weight(-k - 1, -k),       # eps2 - (k+1)(eps1+eps2)
                Weight(-l, -l),
                Weight(0, 0),
            ),
        )
        return total, f"P((C^2 (x) det^-{k + 1}) + det^{-l} + C)"


class _HalfReflFamily(_WallFamily, Value, namedtuple("_HalfReflFamily", "s t j")):
    """s(eps1+eps2) + t*conv(0, alpha, j*alpha+e) for the eps-term e of the
    subclass's `pattern`.  Its manifold is a P(F + C_-j*alpha)-bundle whose
    fiber F is C^2 (weights eps1, eps2) for e = eps1 and the dual (C^2)*
    (weights -eps1, -eps2) for e = -eps2."""

    __slots__ = ()
    diffeo = None

    def wall_types(self) -> tuple[WallVertexType, ...]:
        return (self.pattern(self.j),)

    def model(self) -> tuple[TotalSpace, str]:
        total = TotalSpace(
            "projective_bundle_over_sphere",
            (Weight(self.sign, 0), Weight(0, self.sign), Weight(-self.j, self.j)),
        )
        return total, f"GL(2) x_B- P({self.fiber} + C_-{self.j}*alpha)"


class HalfReflPlusFamily(_HalfReflFamily):
    """s(eps1+eps2) + t*conv(0, alpha, j*alpha+eps1)."""

    __slots__ = ()
    tag = "half_refl_plus"
    pattern = HalfReflPlus
    fiber, sign = "C^2", 1


class HalfReflMinusFamily(_HalfReflFamily):
    """s(eps1+eps2) + t*conv(0, alpha, j*alpha-eps2)."""

    __slots__ = ()
    tag = "half_refl_minus"
    pattern = HalfReflMinus
    fiber, sign = "(C^2)*", -1


# The family whose base has a given half-reflection pattern.
_HALF_REFL_FAMILY = {fam.pattern: fam for fam in (HalfReflPlusFamily, HalfReflMinusFamily)}


class ReflectionFamily(_WallFamily, Value, namedtuple("ReflectionFamily", "s t")):
    """s(eps1+eps2) + t*conv(0, eps1, -eps2)."""

    __slots__ = ()
    tag = "reflection"
    diffeo = DiffType.ORIENTED_GRASSMANNIAN

    def wall_types(self) -> tuple[WallVertexType, ...]:
        return (Reflection(0),)

    def model(self) -> tuple[TotalSpace, str]:
        return TotalSpace("oriented_grassmannian", ()), "SO(5,C)/P"


TriangleFamily = Union[
    DelzantFamily, WallEdgeFamily, HalfReflPlusFamily, HalfReflMinusFamily, ReflectionFamily
]


# ---------------------------------------------------------------------------
# One analysis per polygon
# ---------------------------------------------------------------------------

class Analysis(Value, namedtuple("Analysis", "polygon report")):
    """A polygon with its validity report.  The facts derived from them are
    computed on first use and kept, in its __dict__, as long as the Analysis
    is, each in one form only: the T-fixpoint images as `fixpoints`, in
    their order."""

    @cached_property
    def fixpoints(self) -> tuple[tuple[IntPair, int], ...]:
        """(int pair, multiplicity) of each distinct T-fixpoint image: an
        interior vertex and its reflection, the swapped pair, once each, a
        wall vertex `fixpoints` times for its type.  The int pairs are on
        the polygon's grid, which is its T-polytope's too, and sorted: the
        positive scale keeps the order of the images.  No two are equal,
        since a reflection leaves the chamber."""
        require_valid(self)
        out = []
        for (x, y), va in zip(self.polygon.xy, self.report.vertex_data):
            wt = va.wall_type
            if wt is None:
                out += (((x, y), 1), ((y, x), 1))
            elif wt.fixpoints:
                out.append(((x, y), wt.fixpoints))
        out.sort()
        return tuple(out)

    @cached_property
    def family(self) -> TriangleFamily:
        """The triangle family; see classify_triangle."""
        polygon = self.polygon
        if len(polygon) != 3:
            raise GeometryError("triangle classification needs exactly 3 vertices")
        require_valid(self)
        xy = polygon.xy
        i = base_vertex(xy)
        va = self.report.vertex_data[i]
        return triangle_family(xy, polygon.scale, i, va.rays, va.wall_type)


def triangle_family(xy: Sequence[IntPair], scale: int, i: int, rays: tuple[Weight, Weight],
                    wall_type: Optional[WallVertexType]) -> TriangleFamily:
    """The family of a valid triangle with counterclockwise int pairs xy on
    the grid of `scale`, whose base vertex (base_vertex) is xy[i], with
    primitive rays `rays` (to the next vertex first) and cone pattern
    `wall_type` (None off the wall).  The family's cone() must start at
    the base with t = u/scale, u the base edge's lattice length
    (edge_scale), and its rays must rebuild the triangle (require_rebuild);
    AssertionError if not.  Analysis.family and the census both take a
    triangle's family from here."""
    (bx, by), u = xy[i], edge_scale(xy, i)
    s, t = Fraction(bx, scale), Fraction(u, scale)
    if wall_type is not None:
        fam = wall_type.family(s, t)
    else:
        d1, d2 = rays
        fam = DelzantFamily(r=Fraction(bx - by, scale), s=s, t=t,
                            a1=-d1.b, b1=d1.a, a2=-d2.b, b2=d2.a)
    x, y, ft, r1, r2 = fam.cone()
    if (x, y, ft) != (s, Fraction(by, scale), t):
        raise _not_rebuilt(fam, xy, scale, (r1, r2))
    require_rebuild(fam, xy, scale, i, (r1, r2))
    return fam


def base_vertex(xy: Sequence[IntPair]) -> int:
    """The index of a triangle's base vertex among its int pairs xy: minimal
    coroot pairing, ties broken lexicographically.  With wall vertices that
    is the lowest one, so that a wall edge always points in the
    +(eps1+eps2) direction (l = +1)."""
    (ax, ay), (bx, by), (cx, cy) = xy
    keys = [(ax - ay, ax, ay), (bx - by, bx, by), (cx - cy, cx, cy)]
    return keys.index(min(keys))


def edge_scale(xy: Sequence[IntPair], i: int) -> int:
    """u: the lattice length, on the grid of the int pairs xy, of the edge
    from vertex i of a counterclockwise triangle to the next vertex, the
    gcd of its int pair."""
    (bx, by), (nx, ny) = xy[i], xy[i - 2]
    return gcd(nx - bx, ny - by)


def require_rebuild(family: object, xy: Sequence[IntPair], scale: int, i: int,
                    rays: tuple[Weight, Weight]) -> None:
    """The rebuild check of a triangle's family, on int pairs: with u the
    lattice length of the base edge (edge_scale), xy[i] + u*r1 and
    xy[i] + u*r2 for the family's cone rays r1, r2 must be the triangle's
    other two vertices, in either order.  This checks the edge scales and
    that the edges at the base follow its wall pattern; AssertionError if
    not, naming the vertices as points and the rays, formatted only then."""
    (bx, by), n1, n2 = xy[i], xy[i - 2], xy[i - 1]
    u = edge_scale(xy, i)
    (a1, b1), (a2, b2) = rays
    q1, q2 = (bx + u * a1, by + u * b1), (bx + u * a2, by + u * b2)
    if not (q1 == n1 and q2 == n2 or q1 == n2 and q2 == n1):
        raise _not_rebuilt(family, xy, scale, rays)


def _not_rebuilt(family: object, xy: Sequence[IntPair], scale: int,
                 rays: tuple[Weight, Weight]) -> AssertionError:
    """The error of a family that, with the cone rays `rays`, does not
    rebuild the triangle with int pairs xy on the grid of `scale`."""
    vertices = tuple([form_point(q, scale) for q in xy])
    return AssertionError(
        f"{family} does not rebuild the triangle {vertices} with the cone rays {rays}")


PolygonLike = Union[Polygon, Analysis]


def analyze(polygon: PolygonLike) -> Analysis:
    """Check the polygon once and return its Analysis, which the package's
    queries accept in place of the polygon.  An Analysis is returned as is.
    Raises ChamberError for polygons leaving the chamber."""
    if isinstance(polygon, Analysis):
        return polygon
    return Analysis(polygon, check_momentum_polytope(polygon))


def require_valid(polygon: PolygonLike) -> Analysis:
    """The Analysis of a polygon that must be a valid momentum polytope;
    the error names the first failure and counts the others."""
    analysis = analyze(polygon)
    if not analysis.report.valid:
        (_, first), *others = analysis.report.failures
        message = f"not a momentum polytope: {first}"
        if others:
            message += f" (and {len(others)} more failure{'s' if len(others) > 1 else ''})"
        raise InvalidPolytopeError(message)
    return analysis


def classify_triangle(polygon: PolygonLike) -> TriangleFamily:
    """Recognize a valid momentum-polytope triangle as one of the five
    families, with a deterministic choice of parameters.

    The wall-vertex count fully determines the family tag: 0 vertices on
    the wall give the Delzant family, 2 the wall-edge family, 1 one of
    the remaining three according to the wall pattern.
    """
    return analyze(polygon).family


# ---------------------------------------------------------------------------
# Manifold models
# ---------------------------------------------------------------------------

class TotalSpace(Value, namedtuple("TotalSpace", "kind weights")):
    """Structured description of the total space realizing a triangle family:
    its kind, "projective_bundle_over_sphere", "projective_space" or
    "oriented_grassmannian", and its fiber weights, representation weights
    or ()."""

    __slots__ = ()


class ManifoldModel(Value, namedtuple("ManifoldModel",
                                      "family total_space gl2_variety_label local_models")):
    """A triangle family's total space, GL(2)-variety label and the local
    model of each wall type."""

    __slots__ = ()


def _wfmt(w: Weight) -> str:
    return f"({w.a},{w.b})"


def manifold_model(fam: TriangleFamily) -> ManifoldModel:
    """Total space, complex-variety label and local models for a triangle family."""
    locals_ = tuple((wt, wt.local_model()) for wt in fam.wall_types())
    return ManifoldModel(fam, *fam.model(), locals_)
