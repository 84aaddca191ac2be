"""Momentum polytope validity, wall vertex typing and triangle families.

A convex polygon inside the dominant chamber is the momentum polytope of
a (unique) multiplicity free U(2)-manifold with trivial principal
isotropy group iff it is 2-dimensional, every interior vertex satisfies
the Delzant condition and every wall vertex shows one of five cone
patterns.  Valid triangles fall into five parametrized families; the
parameters reconstruct the triangle exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .errors import ChamberError, GeometryError, InvalidPolytopeError
from .lattice import (
    ALPHA,
    RationalPoint,
    Weight,
    coroot_pairing,
    cross,
    is_lattice_basis,
    primitive_ray,
)
from .polygon import Polygon, convex_hull

_ONE = Weight(1, 1)


# ---------------------------------------------------------------------------
# Wall vertex cone patterns
# ---------------------------------------------------------------------------
# Each pattern also carries `fixpoints`: how many T-fixpoints map to a wall
# vertex of that type (the vertex is its own reflection).

@dataclass(frozen=True)
class WallEdgePlus:
    """Rays {eps1+eps2, k(eps1+eps2)+eps1}."""

    k: int

    name = "wall_edge_plus"
    fixpoints = 1

    def rays(self) -> frozenset:
        return frozenset({_ONE, Weight(self.k + 1, self.k)})


@dataclass(frozen=True)
class WallEdgeMinus:
    """Rays {-(eps1+eps2), k(eps1+eps2)+eps1}."""

    k: int

    name = "wall_edge_minus"
    fixpoints = 1

    def rays(self) -> frozenset:
        return frozenset({-_ONE, Weight(self.k + 1, self.k)})


@dataclass(frozen=True)
class HalfReflPlus:
    """Rays {alpha, j*alpha+eps1}."""

    j: int

    name = "half_refl_plus"
    fixpoints = 2

    def rays(self) -> frozenset:
        return frozenset({ALPHA, Weight(self.j + 1, -self.j)})


@dataclass(frozen=True)
class HalfReflMinus:
    """Rays {alpha, j*alpha-eps2}."""

    j: int

    name = "half_refl_minus"
    fixpoints = 2

    def rays(self) -> frozenset:
        return frozenset({ALPHA, Weight(self.j, -self.j - 1)})


@dataclass(frozen=True)
class Reflection:
    """Rays {j*alpha+eps1, j*alpha-eps2}."""

    j: int

    name = "reflection"
    fixpoints = 0

    def rays(self) -> frozenset:
        return frozenset({Weight(self.j + 1, -self.j), Weight(self.j, -self.j - 1)})


WallVertexType = Union[WallEdgePlus, WallEdgeMinus, HalfReflPlus, HalfReflMinus, Reflection]


def classify_wall_rays(r1: Weight, r2: Weight) -> Optional[WallVertexType]:
    """Match an unordered pair of primitive rays against the five wall
    patterns.  Returns None when no pattern matches; the patterns are
    mutually exclusive."""
    pair = {r1, r2}
    if len(pair) != 2:
        return None
    for w, cls in ((_ONE, WallEdgePlus), (-_ONE, WallEdgeMinus)):
        if w in pair:
            (other,) = pair - {w}
            if other.a - other.b == 1:
                return cls(other.b)
            return None
    if ALPHA in pair:
        (other,) = pair - {ALPHA}
        if other.a + other.b == 1 and other.a >= 1:
            return HalfReflPlus(other.a - 1)
        if other.a + other.b == -1 and other.a >= 0:
            return HalfReflMinus(other.a)
        return None
    p, q = sorted(pair, key=lambda w: -(w.a + w.b))
    if p.a + p.b == 1 and q.a + q.b == -1 and p.a == q.a + 1 and q.a >= 0:
        return Reflection(q.a)
    return None


# ---------------------------------------------------------------------------
# Validity report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexAnalysis:
    vertex: RationalPoint
    rays: tuple[Weight, Weight]
    on_wall: bool
    kind: str  # "interior_delzant" | "wall" | "invalid"
    wall_type: Optional[WallVertexType] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class ClassificationReport:
    valid: bool
    dimension: int
    vertex_data: tuple[VertexAnalysis, ...]
    failures: tuple[tuple[int, str], ...]

    def wall_vertex_types(self) -> list[tuple[RationalPoint, WallVertexType]]:
        return [
            (va.vertex, va.wall_type)
            for va in self.vertex_data
            if va.on_wall and va.wall_type is not None
        ]


def check_momentum_polytope(polygon: Polygon) -> ClassificationReport:
    """Run the four validity conditions; invalidity is a report value.

    Condition 2 (rationality) holds by construction for rational input.
    A polygon outside the chamber is an input error, not an invalid one.
    """
    if not polygon.is_in_chamber():
        raise ChamberError("polygon leaves the dominant chamber x >= y")

    failures: list[tuple[int, str]] = []
    dim = polygon.dimension()
    if dim != 2:
        failures.append((1, f"polytope has dimension {dim}, expected 2"))
        return ClassificationReport(False, dim, (), tuple(failures))

    data: list[VertexAnalysis] = []
    for v in polygon.vertices:
        rays = polygon.vertex_rays(v)
        on_wall = coroot_pairing(v) == 0
        if on_wall:
            wt = classify_wall_rays(*rays)
            if wt is None:
                reason = f"wall vertex {v} has rays {rays} matching no wall pattern"
                failures.append((4, reason))
                data.append(VertexAnalysis(v, rays, True, "invalid", None, reason))
            else:
                data.append(VertexAnalysis(v, rays, True, "wall", wt))
        else:
            if is_lattice_basis(*rays):
                data.append(VertexAnalysis(v, rays, False, "interior_delzant"))
            else:
                reason = f"interior vertex {v} has non-unimodular rays {rays}"
                failures.append((3, reason))
                data.append(VertexAnalysis(v, rays, False, "invalid", None, reason))

    return ClassificationReport(not failures, dim, tuple(data), tuple(failures))


# ---------------------------------------------------------------------------
# Triangle families
# ---------------------------------------------------------------------------
# Each family also carries `mod3`: whether the mod-3 Chern residue decides
# its diffeomorphism type (see difftype), and `wall_types()`, the cone
# patterns at its wall vertices.

@dataclass(frozen=True)
class DelzantFamily:
    """r(-eps2) + s(eps1+eps2) + t*conv(0, d1, d2) with d_i = a_i(-eps2)+b_i*eps1,
    a1*b2 - a2*b1 = 1 and a_i + b_i >= 0."""

    r: Fraction
    s: Fraction
    t: Fraction
    a1: int
    b1: int
    a2: int
    b2: int

    tag = "delzant"
    mod3 = True

    def deltas(self) -> tuple[Weight, Weight]:
        return Weight(self.b1, -self.a1), Weight(self.b2, -self.a2)

    def wall_types(self) -> tuple[WallVertexType, ...]:
        return ()

    def triangle(self) -> Polygon:
        base = RationalPoint(self.s, self.s - self.r)
        d1, d2 = self.deltas()
        return convex_hull(
            [base, base + d1.to_point().scale(self.t), base + d2.to_point().scale(self.t)]
        )


@dataclass(frozen=True)
class _WallFamily:
    """A family whose triangles have the wall vertex s(eps1+eps2) with cone
    pattern `pattern()`: s(eps1+eps2) + t*conv(0, r1, r2) for its rays r1, r2."""

    s: Fraction
    t: Fraction

    def wall_types(self) -> tuple[WallVertexType, ...]:
        return (self.pattern(),)

    def triangle(self) -> Polygon:
        base = RationalPoint(self.s, self.s)
        return convex_hull(
            [base] + [base + r.to_point().scale(self.t) for r in self.pattern().rays()]
        )


@dataclass(frozen=True)
class WallEdgeFamily(_WallFamily):
    """s(eps1+eps2) + t*conv(0, l(eps1+eps2), k(eps1+eps2)+eps1), l in {+1,-1}."""

    k: int
    l: int

    tag = "wall_edge"
    mod3 = False

    def pattern(self) -> WallVertexType:
        return WallEdgePlus(self.k) if self.l == 1 else WallEdgeMinus(self.k)

    def wall_types(self) -> tuple[WallVertexType, ...]:
        if self.l == 1:
            return (WallEdgePlus(self.k), WallEdgeMinus(self.k - 1))
        return (WallEdgeMinus(self.k), WallEdgePlus(self.k + 1))


@dataclass(frozen=True)
class HalfReflPlusFamily(_WallFamily):
    """s(eps1+eps2) + t*conv(0, alpha, j*alpha+eps1)."""

    j: int

    tag = "half_refl_plus"
    mod3 = True

    def pattern(self) -> WallVertexType:
        return HalfReflPlus(self.j)


@dataclass(frozen=True)
class HalfReflMinusFamily(_WallFamily):
    """s(eps1+eps2) + t*conv(0, alpha, j*alpha-eps2)."""

    j: int

    tag = "half_refl_minus"
    mod3 = True

    def pattern(self) -> WallVertexType:
        return HalfReflMinus(self.j)


@dataclass(frozen=True)
class ReflectionFamily(_WallFamily):
    """s(eps1+eps2) + t*conv(0, eps1, -eps2)."""

    tag = "reflection"
    mod3 = False

    def pattern(self) -> WallVertexType:
        return Reflection(0)


TriangleFamily = Union[
    DelzantFamily, WallEdgeFamily, HalfReflPlusFamily, HalfReflMinusFamily, ReflectionFamily
]


def _ray_scale(edge_vec: RationalPoint, ray: Weight) -> Fraction:
    """The t with edge_vec = t * ray, for the primitive ray along edge_vec."""
    return Fraction(edge_vec.x, ray.a) if ray.a else Fraction(edge_vec.y, ray.b)


# ---------------------------------------------------------------------------
# One analysis per polygon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Analysis:
    """A polygon with its validity report.  The facts derived from them are
    computed on first use and kept as long as the Analysis is."""

    polygon: Polygon
    report: ClassificationReport

    @cached_property
    def wall_types(self) -> dict[RationalPoint, WallVertexType]:
        """Cone pattern of each wall vertex that matches one."""
        return dict(self.report.wall_vertex_types())

    @cached_property
    def family(self) -> TriangleFamily:
        """The triangle family; see classify_triangle."""
        polygon = self.polygon
        if len(polygon) != 3:
            raise GeometryError("triangle classification needs exactly 3 vertices")
        require_valid(self)
        wall = polygon.wall_vertices()

        if len(wall) == 0:
            # Base vertex: minimal coroot pairing, ties broken lexicographically.
            base = min(polygon.vertices, key=lambda v: (coroot_pairing(v), v))
            others = [v for v in polygon.vertices if v != base]
            rays = [primitive_ray(v - base) for v in others]
            t = _ray_scale(others[0] - base, rays[0])
            if cross(rays[0], rays[1]) < 0:
                rays.reverse()
            d1, d2 = rays
            fam = DelzantFamily(
                r=coroot_pairing(base),
                s=base.x,
                t=t,
                a1=-d1.b,
                b1=d1.a,
                a2=-d2.b,
                b2=d2.a,
            )
        else:
            # Base: the lowest wall vertex, so that a wall edge always points
            # in the +(eps1+eps2) direction (l = +1).
            w = min(wall)
            wt = self.wall_types[w]
            other = next(u for u in polygon.vertices if u != w)
            t = _ray_scale(other - w, primitive_ray(other - w))
            if isinstance(wt, WallEdgePlus):
                fam = WallEdgeFamily(s=w.x, t=t, k=wt.k, l=1)
            elif isinstance(wt, Reflection):
                fam = ReflectionFamily(s=w.x, t=t)
            elif isinstance(wt, HalfReflPlus):
                fam = HalfReflPlusFamily(s=w.x, t=t, j=wt.j)
            else:
                fam = HalfReflMinusFamily(s=w.x, t=t, j=wt.j)

        # The parameters must rebuild the triangle: this checks the edge scales
        # and that the edges at the base follow its wall pattern.
        if set(fam.triangle().vertices) != set(polygon.vertices):
            raise AssertionError(f"{fam} does not rebuild the triangle {polygon.vertices}")
        return fam


PolygonLike = Union[Polygon, Analysis]


def analyze(polygon: PolygonLike) -> Analysis:
    """Check the polygon once and return its Analysis, which the package's
    queries accept in place of the polygon.  An Analysis is returned as is.
    Raises ChamberError for polygons leaving the chamber."""
    if isinstance(polygon, Analysis):
        return polygon
    return Analysis(polygon, check_momentum_polytope(polygon))


def require_valid(polygon: PolygonLike) -> Analysis:
    """The Analysis of a polygon that must be a valid momentum polytope."""
    analysis = analyze(polygon)
    if not analysis.report.valid:
        raise InvalidPolytopeError(
            "not a momentum polytope: "
            + "; ".join(msg for _, msg in analysis.report.failures)
        )
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

@dataclass(frozen=True)
class TotalSpace:
    """Structured description of the total space realizing a triangle family."""

    kind: str  # "projective_bundle_over_sphere" | "projective_space" | "oriented_grassmannian"
    weights: tuple[Weight, ...]  # fiber weights, or representation weights, or ()


@dataclass(frozen=True)
class ManifoldModel:
    family: TriangleFamily
    total_space: TotalSpace
    gl2_variety_label: str
    local_models: tuple[tuple[WallVertexType, str], ...]


def _wfmt(w: Weight) -> str:
    return f"({w.a},{w.b})"


def local_model_label(wt: WallVertexType) -> str:
    """Smooth affine spherical GL(2)-variety providing the local model at a
    wall vertex of the given type."""
    if isinstance(wt, WallEdgePlus):
        return f"(C^2 (x) det^-{wt.k + 1}) x det^-1"
    if isinstance(wt, WallEdgeMinus):
        return f"(C^2 (x) det^-{wt.k + 1}) x det^1"
    if isinstance(wt, HalfReflPlus):
        return f"GL(2) x_TC C_-({wt.j}*alpha+eps1)"
    if isinstance(wt, HalfReflMinus):
        return f"GL(2) x_TC C_-({wt.j}*alpha-eps2)"
    return f"GL(2)/{{diag(z^{wt.j}, z^{wt.j + 1})}}"


def manifold_model(fam: TriangleFamily) -> ManifoldModel:
    """Total space, complex-variety label and local models for a triangle family."""
    if isinstance(fam, DelzantFamily):
        d1, d2 = fam.deltas()
        total = TotalSpace("projective_bundle_over_sphere", (Weight(0, 0), -d1, -d2))
        label = f"GL(2) x_B- P(C + C_-{_wfmt(d1)} + C_-{_wfmt(d2)})"
    elif isinstance(fam, WallEdgeFamily):
        k, l = fam.k, fam.l
        total = TotalSpace(
            "projective_space",
            (
                Weight(-k, -k - 1),       # eps1 - (k+1)(eps1+eps2)
                Weight(-k - 1, -k),       # eps2 - (k+1)(eps1+eps2)
                Weight(-l, -l),
                Weight(0, 0),
            ),
        )
        total_label = f"P((C^2 (x) det^-{k + 1}) + det^-{l} + C)"
        label = total_label
    elif isinstance(fam, HalfReflPlusFamily):
        total = TotalSpace(
            "projective_bundle_over_sphere",
            (Weight(1, 0), Weight(0, 1), Weight(-fam.j, fam.j)),
        )
        label = f"GL(2) x_B- P(C^2 + C_-{fam.j}*alpha)"
    elif isinstance(fam, HalfReflMinusFamily):
        total = TotalSpace(
            "projective_bundle_over_sphere",
            (Weight(-1, 0), Weight(0, -1), Weight(-fam.j, fam.j)),
        )
        label = f"GL(2) x_B- P((C^2)* + C_-{fam.j}*alpha)"
    else:
        total = TotalSpace("oriented_grassmannian", ())
        label = "SO(5,C)/P"

    locals_ = tuple((wt, local_model_label(wt)) for wt in fam.wall_types())
    return ManifoldModel(fam, total, label, locals_)
