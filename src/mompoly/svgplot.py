"""Deterministic SVG drawings of polytopes, reflections, x-rays and
fixpoint images.

All geometric decisions happen upstream in exact arithmetic; floats are
used here only to format display coordinates with a fixed precision, so
identical input always yields identical bytes.  A display coordinate that
does not fit a float raises GeometryError.
"""

from __future__ import annotations

from fractions import Fraction

from .classify import analyze
from .errors import GeometryError
from .kaehler import build_xray
from .lattice import RationalPoint
from .polygon import Polygon, form_point

_SCALE = 40
_MARGIN = Fraction(1)

OVERLAYS = ("reflection", "xray", "fixpoints")


def _fmt(value: Fraction) -> str:
    try:
        return f"{float(value):.2f}"
    except OverflowError:
        raise GeometryError("a display coordinate does not fit a float") from None


class _Canvas:
    """Maps t*-coordinates to SVG user units (y axis flipped)."""

    def __init__(self, points: list[RationalPoint]):
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        self.x0 = min(xs) - _MARGIN
        self.x1 = max(xs) + _MARGIN
        self.y0 = min(ys) - _MARGIN
        self.y1 = max(ys) + _MARGIN

    def map(self, p: RationalPoint) -> tuple[str, str]:
        return (
            _fmt((p.x - self.x0) * _SCALE),
            _fmt((self.y1 - p.y) * _SCALE),
        )

    def size(self) -> tuple[str, str]:
        return (
            _fmt((self.x1 - self.x0) * _SCALE),
            _fmt((self.y1 - self.y0) * _SCALE),
        )


def _polygon_element(canvas: _Canvas, polygon: Polygon, style: str) -> str:
    pts = " ".join(",".join(canvas.map(v)) for v in polygon.vertices)
    if len(polygon) >= 3:
        return f'<polygon points="{pts}" {style}/>'
    return f'<polyline points="{pts}" {style}/>'


def _line(canvas: _Canvas, a: RationalPoint, b: RationalPoint, style: str) -> str:
    (x1, y1), (x2, y2) = canvas.map(a), canvas.map(b)
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>'


def render_svg(polygon: Polygon, overlays: tuple[str, ...] = ()) -> str:
    """SVG text for the polygon with the requested overlays
    (any of "reflection", "xray", "fixpoints")."""
    for name in overlays:
        if name not in OVERLAYS:
            raise ValueError(f"unknown overlay {name!r}")

    frame = list(polygon.vertices)
    if overlays:
        frame += list(polygon.t_polytope().vertices)
    canvas = _Canvas(frame)
    width, height = canvas.size()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    # Dashed wall diagonal x = y, clipped to the frame.
    lo = max(canvas.x0, canvas.y0)
    hi = min(canvas.x1, canvas.y1)
    if lo < hi:
        parts.append(
            _line(
                canvas,
                RationalPoint(lo, lo),
                RationalPoint(hi, hi),
                'stroke="gray" stroke-width="1" stroke-dasharray="6,4"',
            )
        )

    if "reflection" in overlays:
        parts.append(
            _polygon_element(
                canvas,
                polygon.reflected(),
                'fill="none" stroke="steelblue" stroke-width="1.5"',
            )
        )

    parts.append(
        _polygon_element(canvas, polygon, 'fill="none" stroke="black" stroke-width="2"')
    )

    # The x-ray and fixpoint overlays share one validation of the polygon.
    if "xray" in overlays or "fixpoints" in overlays:
        analysis = analyze(polygon)

    if "xray" in overlays:
        for stratum in build_xray(analysis).strata:
            width_attr = "3" if stratum.dimension == 4 else "1.5"
            parts.append(
                _line(
                    canvas,
                    stratum.segment[0],
                    stratum.segment[1],
                    f'stroke="crimson" stroke-width="{width_attr}"',
                )
            )

    if "fixpoints" in overlays:
        for q, mult in analysis.fixpoints:
            cx, cy = canvas.map(form_point(q, polygon.scale))
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="black"/>')
            parts.append(
                f'<text x="{cx}" y="{cy}" dx="6" dy="-6" font-size="12">{mult}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
