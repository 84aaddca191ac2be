"""Momentum polytopes of multiplicity free U(2)-manifolds.

Exact-arithmetic decision engine for the validity of rational convex
polytopes in the dominant chamber as momentum polytopes, the five
triangle realization families, Kählerizability, torus fixpoint data,
x-rays and diffeomorphism types.
"""

from .classify import (
    Analysis,
    ClassificationReport,
    DelzantFamily,
    HalfReflMinus,
    HalfReflMinusFamily,
    HalfReflPlus,
    HalfReflPlusFamily,
    ManifoldModel,
    Reflection,
    ReflectionFamily,
    VertexAnalysis,
    WallEdgeFamily,
    WallEdgeMinus,
    WallEdgePlus,
    analyze,
    check_momentum_polytope,
    classify_triangle,
    classify_wall_rays,
    manifold_model,
)
from .difftype import DiffType, chern_mod3_at_vertex, diffeo_type
from .errors import (
    ChamberError,
    GeometryError,
    InvalidPolytopeError,
    UnsupportedPolytopeError,
)
from .kaehler import (
    XRay,
    atiyah_cross_check,
    build_xray,
    fixpoint_boundary_check,
    fixpoint_images,
    is_kaehlerizable,
)
from .lattice import (
    ALPHA,
    EPS1,
    EPS2,
    RationalPoint,
    Weight,
    coroot_pairing,
    cross,
    is_lattice_basis,
    primitive_ray,
    weyl_reflect,
)
from .polygon import Edge, Polygon, convex_hull, triangle

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
