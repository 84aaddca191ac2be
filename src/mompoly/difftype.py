"""Diffeomorphism types of the triangle-family manifolds.

Four types occur: the projective space P(C^4), the oriented
Grassmannian of 2-planes in R^5, and the trivial/nontrivial
P(C^3)-bundle over the 2-sphere.  The bundle dichotomy is decided by a
mod-3 residue computed from the primitive edge directions at any vertex.
`diff_type` is the one place that dispatches on the family: the report
and the census call it on a triangle's family and the rays of its first
vertex, and read the type, and the residue where it decides it, from it.
"""

from __future__ import annotations

from typing import Optional

from .classify import DiffType, PolygonLike, TriangleFamily, analyze
from .errors import GeometryError, UnsupportedPolytopeError
from .lattice import RationalPoint, Weight


def chern_mod3_at_vertex(polygon: PolygonLike, v: RationalPoint) -> int:
    """Residue (a1 + a2 - b1 - b2) mod 3 of the primitive rays
    a_i*eps1 + b_i*eps2 at the vertex v.

    Defined for triangles of the families whose `diffeo` is None (Delzant and
    half-reflection), where it is independent of the chosen vertex and
    detects the trivial bundle (residue 0).
    """
    analysis = analyze(polygon)
    fam = analysis.family
    if fam.diffeo is not None:
        raise UnsupportedPolytopeError(
            f"mod-3 invariant is not defined for the {fam.tag} family"
        )
    return _chern_mod3(*analysis.polygon.vertex_rays(v))


def _chern_mod3(r1: Weight, r2: Weight) -> int:
    return (r1.a + r2.a - r1.b - r2.b) % 3


def diff_type(fam: TriangleFamily, r1: Weight, r2: Weight) -> tuple[DiffType, Optional[int]]:
    """Diffeomorphism type of the manifold realizing a valid triangle of
    family fam whose first vertex has the primitive rays r1, r2, and the
    mod-3 residue of those rays where that decides it, else None.  The
    residue decides the P(C^3)-bundle over S^2: the trivial one for 0."""
    if fam.diffeo is not None:
        return fam.diffeo, None
    residue = _chern_mod3(r1, r2)
    bundle = DiffType.TRIVIAL_P2_BUNDLE if residue == 0 else DiffType.NONTRIVIAL_P2_BUNDLE
    return bundle, residue


def diffeo_type(fam: TriangleFamily, polygon: PolygonLike) -> DiffType:
    """Diffeomorphism type of the manifold realizing a valid triangle of family fam."""
    analysis = analyze(polygon)
    if analysis.family != fam:
        raise GeometryError("family does not match the polygon")
    return diff_type(fam, *analysis.polygon.rays[0])[0]
