"""Input documents and classification reports.

Polytope documents are JSON objects with a "vertices" list of [x, y]
pairs; coordinates are integers or exact fraction strings "p/q".  Only
strings longer than MAX_DIGITS characters and JSON integers have their
value compared with the digit cap: a shorter string is under it.
Reports mirror the full analysis with a fixed key order so output is
byte-identical across runs.  The module renders them with its own
renderer, whose text is byte-identical to json.dumps(indent=2): it
writes each str or int item of a list or dict, and each bool or None
value of a dict, with one append and recurses only into the other
values.  It walks a document by depth levels that hold the text each
depth fixes, built once and kept for later containers and documents:
levels to depth 16, each with the heads of at most 1,024 keys of at most
64 characters.  Reports list the fixpoint images in the order that their
integer form gives.
A report prints its points from the integer form of its input: each int
coordinate is formatted once, and every point list is read from that
table by int pairs, the same text that point_out writes for the point.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Union

from .classify import analyze, classify_triangle, manifold_model
from .difftype import diffeo
from .errors import UnsupportedPolytopeError
from .kaehler import (
    build_xray,
    fixpoint_boundary_check,
    is_kaehlerizable,
)
from .lattice import RationalPoint
from .polygon import Polygon, hull_of_form, integer_form


class DocumentError(ValueError):
    """The input document does not parse to a polytope."""


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# The only coordinate strings accepted: an integer or a fraction p/q.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# Reports print integers with up to about four times the digits of the input
# coordinates (the rays of an edge multiply numerators by denominators), so
# this cap keeps every rendered number under the interpreter's 4,300-digit
# str(int) limit.  The common denominator of a document has the same cap:
# a polygon's integer form scales every coordinate by it.
MAX_DIGITS = 1000
_DIGIT_BOUND = 10**MAX_DIGITS


def parse_rational(value: Union[int, str]) -> Fraction:
    # Error messages quote at most the first 40 characters of a bad value.
    if type(value) is str or isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise DocumentError(f"coordinate {value!r:.40} is not of the form n or p/q")
        # Built from the checked parts: Fraction(str) would parse the text again.
        num, den = match.groups()
        try:
            q = Fraction(int(num), int(den)) if den else Fraction(int(num))
        except ZeroDivisionError as exc:
            raise DocumentError(f"cannot parse coordinate {value!r:.40}: {exc}") from None
        except ValueError:  # a numerator or denominator past the str -> int digit limit
            raise DocumentError(f"a coordinate has more than {MAX_DIGITS} digits") from None
        # The length rule: p and q, and so their reduced forms, have at most
        # len(value) digits, so a text of at most MAX_DIGITS characters is in bound.
        if len(value) <= MAX_DIGITS:
            return q
    elif isinstance(value, int) and not isinstance(value, bool):
        q = Fraction(value)
    else:
        raise DocumentError(f"coordinate {value!r:.40} is not an integer or fraction string")
    if max(abs(q.numerator), q.denominator) >= _DIGIT_BOUND:
        raise DocumentError(f"a coordinate has more than {MAX_DIGITS} digits")
    return q


def _coord_out(q: Fraction) -> Union[int, str]:
    return q.numerator if q.denominator == 1 else format_rational(q)


def point_out(p: RationalPoint) -> list:
    return [_coord_out(p.x), _coord_out(p.y)]


def parse_polytope_document(text: str) -> list[RationalPoint]:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also integers past the interpreter's digit limit
        raise DocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("not valid JSON: the document nests too deeply") from None
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise DocumentError('document must be an object with a "vertices" list')
    raw = doc["vertices"]
    if not isinstance(raw, list) or not raw:
        raise DocumentError('"vertices" must be a non-empty list')
    points = []
    scale, new = 1, tuple.__new__
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentError(f"vertex {entry!r:.40} is not an [x, y] pair")
        x, y = parse_rational(entry[0]), parse_rational(entry[1])
        scale = math.lcm(scale, x.denominator, y.denominator)
        if scale >= _DIGIT_BOUND:
            raise DocumentError(
                f"the coordinates' common denominator has more than {MAX_DIGITS} digits")
        points.append(new(RationalPoint, (x, y)))
    return points


_encode_str = json.encoder.encode_basestring_ascii

# Caps on the level tables, which hold only text that a depth and a key fix
# and so never change what is rendered: levels are kept to depth
# _KEPT_DEPTH, deeper ones only while the container above them renders, and
# each level memoises the heads of at most _MAX_HEADS exact str keys of at
# most _MAX_KEY characters.
_KEPT_DEPTH, _MAX_HEADS, _MAX_KEY = 16, 1024, 64


class _Level:
    """The text that one depth of a document fixes: the strings that open a
    list or dict, separate its items and close it, and by exact str key the
    heads open_dict + key + ": " of first keys and sep + key + ": " of later
    keys.  child, the level of the next depth, is built on first use."""

    __slots__ = ("depth", "open_list", "open_dict", "sep", "close_list", "close_dict",
                 "first", "later", "child")

    def __init__(self, depth: int):
        newline = "\n" + "  " * depth
        inner = newline + "  "
        self.depth, self.child = depth, None
        self.open_list, self.open_dict, self.sep = "[" + inner, "{" + inner, "," + inner
        self.close_list, self.close_dict = newline + "]", newline + "}"
        self.first: dict[str, str] = {}
        self.later: dict[str, str] = {}

    def descend(self) -> _Level:
        """The level of the next depth, kept as child to _KEPT_DEPTH."""
        child = _Level(self.depth + 1)
        if self.depth != _KEPT_DEPTH:
            self.child = child
        return child

    def head(self, key, heads: dict[str, str]) -> str:
        """The head of a key that heads, first or later, does not hold;
        memoised there within the caps."""
        if not isinstance(key, str):
            raise TypeError(f"report keys must be str, not {type(key).__name__}")
        head = (self.open_dict if heads is self.first else self.sep) + _encode_str(key) + ": "
        if (type(key) is str and len(key) <= _MAX_KEY
                and len(self.first) + len(self.later) < _MAX_HEADS):
            heads[key] = head
        return head


_ROOT = _Level(0)


def render_document(doc: dict) -> str:
    """The document as json.dumps(doc, indent=2) writes it, byte for byte,
    and a newline.  (Given an indent, json.dumps runs the json module's
    pure-Python encoder.)  Only the report's value types are rendered:
    dicts with str keys, lists, str, int, bool and None; any other value
    raises TypeError."""
    out: list[str] = []
    _render(doc, _ROOT, out)
    out.append("\n")
    return "".join(out)


def _render(value, level: _Level, out: list[str]) -> None:
    """Append the text of value, which lies at the depth of level.

    Lists and dicts are told by their exact type first.  In their loops an
    item of exact type str or int, and in a dict's loop also True, False
    and None, is written with one append; only other items recurse.  A
    subclass of a value type takes the isinstance chain, as json.dumps
    does; a key head is looked up for exact str keys only."""
    kind = type(value)
    if kind is not list and kind is not dict:
        if isinstance(value, list):
            kind = list
        elif isinstance(value, dict):
            kind = dict
        else:
            out.append(_leaf(value))
            return
    if not value:
        out.append("[]" if kind is list else "{}")
        return
    if kind is list:
        sep, later = level.open_list, level.sep
        for item in value:
            cls = type(item)
            if cls is str:
                out.append(sep + _encode_str(item))
            elif cls is int:
                out.append(sep + repr(item))
            else:
                out.append(sep)
                _render(item, level.child or level.descend(), out)
            sep = later
        out.append(level.close_list)
        return
    heads, later = level.first, level.later
    for key, item in value.items():
        head = heads.get(key) if type(key) is str else None
        if head is None:
            head = level.head(key, heads)
        cls = type(item)
        if cls is str:
            out.append(head + _encode_str(item))
        elif cls is int:
            out.append(head + repr(item))
        elif item is True:
            out.append(head + "true")
        elif item is False:
            out.append(head + "false")
        elif item is None:
            out.append(head + "null")
        else:
            out.append(head)
            _render(item, level.child or level.descend(), out)
        heads = later
    out.append(level.close_dict)


def _leaf(value) -> str:
    """The text of a value that is no list or dict."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not a report value")


# The sections that do not apply for each reason, in report order.
_INVALID_KEYS = ("kaehler", "fixpoint_images", "triangle_family", "manifold_model",
                 "diffeo_type", "xray", "atiyah_cross_check")
_TRIANGLE_KEYS = ("triangle_family", "manifold_model", "diffeo_type")
_WALL_KEYS = ("fixpoint_boundary_check", "atiyah_cross_check", "xray")


def _not_applicable(doc: dict, keys: tuple[str, ...], reason: str) -> None:
    for key in keys:
        doc[key] = {"applicable": False, "reason": reason}


def _params(obj) -> dict:
    """The fields of a wall type or family, fractions written as strings."""
    out = {}
    for name in obj._fields:
        value = getattr(obj, name)
        out[name] = format_rational(value) if isinstance(value, Fraction) else value
    return out


def _scalar(c: int, scale: int) -> Union[int, str]:
    """The coordinate c / scale as a report writes it: point_out's int or "p/q"."""
    g = math.gcd(c, scale)
    return c // scale if g == scale else f"{c // g}/{scale // g}"


def full_report(points: list[RationalPoint]) -> dict:
    """Complete classification report for the convex hull of the input points.

    Sections that do not apply (e.g. a triangle family for a quadrilateral,
    or an x-ray with two wall vertices) carry an explicit reason instead.
    Raises ChamberError for polytopes leaving the chamber.

    Every point the report prints but the Kähler witness is an input point
    or the reflection of a hull vertex, so it is read by its int pair on the
    input's grid from one table that formats each int coordinate once.
    """
    scale, input_xy = integer_form(points)
    vertices, xy = hull_of_form(points, input_xy)
    polygon = Polygon._from_form(vertices, scale, xy)
    analysis = analyze(polygon)
    report = analysis.report
    coord = {c: _scalar(c, scale) for c in {c for p in input_xy for c in p}}

    failures = report.failures
    failed = {cid for cid, _ in failures}
    doc = {
        "input": {"vertices": [[coord[x], coord[y]] for x, y in input_xy]},
        "hull_vertices": [[coord[x], coord[y]] for x, y in polygon.xy],
        "valid": report.valid,
        "conditions": {
            "1_dimension_two": 1 not in failed,
            "2_rationality": "satisfied by construction",
            "3_interior_delzant": 3 not in failed,
            "4_wall_patterns": 4 not in failed,
        },
        "failures": [{"condition": cid, "reason": msg} for cid, msg in failures],
        "vertex_analyses": [
            {
                "vertex": [coord[x], coord[y]],
                "rays": [[a1, b1], [a2, b2]],
                "on_wall": va.on_wall,
                "kind": va.kind,
                "wall_type": (
                    {"name": va.wall_type.name, **_params(va.wall_type)}
                    if va.wall_type is not None
                    else None
                ),
                "reason": va.reason,
            }
            for va, (x, y) in zip(report.vertex_data, polygon.xy)
            for (a1, b1), (a2, b2) in [va.rays]  # an assignment, not a loop
        ],
    }

    if not report.valid:
        _not_applicable(doc, _INVALID_KEYS, "polytope is not a valid momentum polytope")
        return doc

    verdict, witness = is_kaehlerizable(analysis)
    doc["kaehler"] = {
        "verdict": verdict,
        "witness_edge": (
            [point_out(witness.tail), point_out(witness.head)] if witness else None
        ),
    }
    doc["fixpoint_images"] = [
        {"point": [coord[x], coord[y]], "multiplicity": m} for (x, y), m in analysis.fixpoints
    ]

    if len(polygon) == 3:
        fam = classify_triangle(analysis)
        model = manifold_model(fam)
        doc["triangle_family"] = {"family": fam.tag, **_params(fam)}
        doc["manifold_model"] = {
            "total_space_kind": model.total_space.kind,
            "weights": [list(w) for w in model.total_space.weights],
            "gl2_variety": model.gl2_variety_label,
            "local_models": [
                {"wall_type": {"name": wt.name, **_params(wt)}, "variety": label}
                for wt, label in model.local_models
            ],
        }
        dtype, residue = diffeo(analysis)
        doc["diffeo_type"] = {"type": dtype.value}
        if residue is not None:
            doc["diffeo_type"]["chern_mod3"] = residue
    else:
        _not_applicable(doc, _TRIANGLE_KEYS, "triangle families apply to triangles only")

    # Both refuse the same wall-vertex counts, with the same message.
    try:
        on_boundary = fixpoint_boundary_check(analysis)
        xray = build_xray(analysis)
    except UnsupportedPolytopeError as exc:
        _not_applicable(doc, _WALL_KEYS, str(exc))
        return doc
    doc["fixpoint_boundary_check"] = on_boundary
    # The cross-check of atiyah_cross_check, on the verdict computed above.
    doc["atiyah_cross_check"] = verdict == on_boundary
    doc["xray"] = {
        "strata": [
            {
                "segment": [[coord[x1], coord[y1]], [coord[x2], coord[y2]]],
                "dimension": dimension,
            }
            for ((x1, y1), (x2, y2)), _, dimension in xray.strata
        ],
    }
    return doc
