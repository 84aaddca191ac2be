"""The value types keep the behaviour they had as frozen dataclasses: the
same repr, a hash that is the hash of the field tuple, equality only
within one class, keyword construction and immutability."""

import itertools
import json
from collections import Counter
from fractions import Fraction as F
from math import gcd
from types import SimpleNamespace

import pytest

from mompoly.census import CensusSummary
from mompoly.classify import (
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
    TotalSpace,
    VertexAnalysis,
    WallEdgeFamily,
    WallEdgeMinus,
    WallEdgePlus,
    analyze,
    classify_triangle,
)
from mompoly.kaehler import Stratum, build_xray
from mompoly.lattice import RationalPoint, Weight
from mompoly.polygon import Edge, Polygon, convex_hull
from mompoly.report import format_rational, full_report, parse_polytope_document

P0, P1 = RationalPoint.of(0, 0), RationalPoint.of("1/2", -1)
P0_TEXT = "RationalPoint(x=Fraction(0, 1), y=Fraction(0, 1))"
P1_TEXT = "RationalPoint(x=Fraction(1, 2), y=Fraction(-1, 1))"
SEGMENT = Polygon((P0, P1))
SEGMENT_TEXT = f"Polygon(vertices=({P0_TEXT}, {P1_TEXT}))"
REPORT = ClassificationReport(False, 1, ())
REPORT_TEXT = "ClassificationReport(valid=False, dimension=1, vertex_data=())"
REFLECTION_FAMILY = ReflectionFamily(F(0), F(1))
GRASSMANNIAN = TotalSpace("oriented_grassmannian", ())
GRASSMANNIAN_TEXT = "TotalSpace(kind='oriented_grassmannian', weights=())"

# (class, fields, the repr that the frozen dataclass gave).
VALUES = [
    (Weight, (1, -2), "Weight(a=1, b=-2)"),
    (RationalPoint, (F(1, 2), F(-1)), P1_TEXT),
    (Edge, (P0, P1), f"Edge(tail={P0_TEXT}, head={P1_TEXT})"),
    (WallEdgePlus, (2,), "WallEdgePlus(k=2)"),
    (WallEdgeMinus, (1,), "WallEdgeMinus(k=1)"),
    (HalfReflPlus, (0,), "HalfReflPlus(j=0)"),
    (HalfReflMinus, (3,), "HalfReflMinus(j=3)"),
    (Reflection, (1,), "Reflection(j=1)"),
    (VertexAnalysis, (P1, (Weight(1, 0), Weight(0, 1)), False, "interior_delzant", None),
     f"VertexAnalysis(vertex={P1_TEXT}, rays=(Weight(a=1, b=0), Weight(a=0, b=1)), "
     "on_wall=False, kind='interior_delzant', wall_type=None)"),
    (ClassificationReport, (False, 1, ()), REPORT_TEXT),
    (DelzantFamily, (F(1), F(0), F(1, 2), 0, 1, -1, 0),
     "DelzantFamily(r=Fraction(1, 1), s=Fraction(0, 1), t=Fraction(1, 2), a1=0, b1=1, a2=-1, b2=0)"),
    (WallEdgeFamily, (F(0), F(1), 2, 1),
     "WallEdgeFamily(s=Fraction(0, 1), t=Fraction(1, 1), k=2, l=1)"),
    (HalfReflPlusFamily, (F(0), F(1), 1),
     "HalfReflPlusFamily(s=Fraction(0, 1), t=Fraction(1, 1), j=1)"),
    (HalfReflMinusFamily, (F(1, 3), F(2), 0),
     "HalfReflMinusFamily(s=Fraction(1, 3), t=Fraction(2, 1), j=0)"),
    (ReflectionFamily, (F(0), F(1)), "ReflectionFamily(s=Fraction(0, 1), t=Fraction(1, 1))"),
    (Analysis, (SEGMENT, REPORT), f"Analysis(polygon={SEGMENT_TEXT}, report={REPORT_TEXT})"),
    (TotalSpace, ("oriented_grassmannian", ()), GRASSMANNIAN_TEXT),
    (ManifoldModel, (REFLECTION_FAMILY, GRASSMANNIAN, "SO(5,C)/P", ()),
     "ManifoldModel(family=ReflectionFamily(s=Fraction(0, 1), t=Fraction(1, 1)), "
     f"total_space={GRASSMANNIAN_TEXT}, gl2_variety_label='SO(5,C)/P', local_models=())"),
    (Stratum, (((0, 0), (1, -1)), 4), "Stratum(xy=((0, 0), (1, -1)), dimension=4)"),
]


@pytest.mark.parametrize("cls, fields, text", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES])
def test_value_type(cls, fields, text):
    value = cls(*fields)
    assert repr(value) == text
    assert hash(value) == hash(fields)
    assert value == cls(*fields) and not value != cls(*fields)
    assert value == cls(**dict(zip(value._fields, fields)))
    assert value != fields and fields != value and not value == fields
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in value._fields) == fields


def test_vertex_analysis_has_no_wall_type_by_default():
    assert VertexAnalysis(P0, (Weight(1, 0), Weight(0, 1)), False, "invalid").wall_type is None


@pytest.mark.parametrize("values", [
    (WallEdgePlus(1), WallEdgeMinus(1)),
    (HalfReflPlus(1), HalfReflMinus(1), Reflection(1)),
    (HalfReflPlusFamily(F(0), F(1), 1), HalfReflMinusFamily(F(0), F(1), 1)),
    (Weight(1, 2), RationalPoint(1, 2), (1, 2)),
], ids=["wall_edges", "one_parameter_patterns", "half_reflection_families", "weight"])
def test_values_of_other_classes_differ(values):
    """Equal fields give equal hashes, but a value equals no value of
    another class and no plain tuple, from either side."""
    for a, b in itertools.permutations(values, 2):
        assert a != b and not a == b
        assert hash(a) == hash(b)
    assert len(set(values)) == len(values)


def test_points_and_weights_order_by_their_coordinates():
    assert sorted([Weight(2, -1), Weight(1, 5), Weight(1, -3)]) == [
        Weight(1, -3), Weight(1, 5), Weight(2, -1)]
    assert RationalPoint.of("1/2", 9) < RationalPoint.of(1, -9) < RationalPoint.of(1, "-1/2")


def test_polygon_equals_by_its_vertices():
    assert repr(SEGMENT) == SEGMENT_TEXT
    assert hash(SEGMENT) == hash(((P0, P1),))
    assert SEGMENT == Polygon(vertices=(P0, P1)) and not SEGMENT != Polygon((P0, P1))
    assert SEGMENT != Polygon((P0,)) and SEGMENT != (P0, P1)
    for name in ("vertices", "scale", "xy", "extra"):
        with pytest.raises(AttributeError):
            setattr(SEGMENT, name, None)
        with pytest.raises(AttributeError):
            delattr(SEGMENT, name)


def test_census_summary_is_a_mutable_record():
    summary = CensusSummary("all", 2, 1)
    summary.total, summary.valid, summary.invalid = 5, 3, 2
    summary.kaehler_true, summary.kaehler_false = 1, 2
    summary.by_family = Counter({"delzant": 1})
    assert repr(summary) == (
        "CensusSummary(shape='all', max_coord=2, denominator=1, total=5, valid=3, invalid=2, "
        "kaehler_true=1, kaehler_false=2, by_family=Counter({'delzant': 1}), "
        "by_diff_type=Counter())")
    empty = CensusSummary("all", 2, 1)
    assert empty != summary
    empty.total, empty.valid, empty.invalid = 5, 3, 2
    empty.kaehler_true, empty.kaehler_false = 1, 2
    empty.by_family["delzant"] += 1
    assert empty == summary
    with pytest.raises(TypeError):
        hash(summary)
    # The constructor takes the census arguments only; the record is a
    # SimpleNamespace, so it equals a plain one with the same fields.
    with pytest.raises(TypeError):
        CensusSummary("all", 2, 1, 5)
    assert summary == SimpleNamespace(**vars(summary))


# The Woodward trapezoid, the four figure polygons and one rational triangle
# of each family, as document vertices.
def _triangle_vertices(family) -> list:
    return [[format_rational(p.x), format_rational(p.y)] for p in family.triangle().vertices]


C_BUILT_DOCUMENTS = {
    "woodward": [[0, 0], [1, 0], [0, -1], [3, -1]],
    "refl_left": [[2, 2], [5, 2], [5, 1], [2, 1]],
    "refl_right": [[2, 2], [3, 2], [5, 1], [2, 1]],
    "half_left": [[2, 2], [5, 2], [5, 0], [4, 0]],
    "half_right": [[2, 2], [3, 2], [5, 1], [3, 1]],
    **{fam.tag: _triangle_vertices(fam) for fam in (
        DelzantFamily(F(1, 2), F(-1, 3), F(3, 2), 1, 0, 0, 1),
        WallEdgeFamily(F(2, 3), F(1, 2), 1, 1),
        HalfReflPlusFamily(F(-1, 2), F(5, 3), 2),
        HalfReflMinusFamily(F(1, 4), F(2, 3), 1),
        ReflectionFamily(F(3, 5), F(7, 2)),
    )},
}


def _same_value(value, built) -> None:
    """value is indistinguishable from built, which its class's constructor made."""
    assert type(value) is type(built)
    assert value._fields == built._fields
    assert repr(value) == repr(built)
    assert hash(value) == hash(built)
    assert value == built and built == value and not value != built


@pytest.mark.parametrize("name", C_BUILT_DOCUMENTS)
def test_values_built_in_c_match_constructed_ones(name):
    """Points, rays, vertex analyses and strata that the engine builds with
    tuple.__new__ equal those built through their classes; the rays also
    equal the primitive vectors along each edge, computed here."""
    points = parse_polytope_document(json.dumps({"vertices": C_BUILT_DOCUMENTS[name]}))
    for p in points:
        _same_value(p, RationalPoint(p.x, p.y))
    analysis = analyze(convex_hull(points))
    assert analysis.report.valid
    if len(points) == 3:
        assert classify_triangle(analysis).tag == name
    vertices = analysis.polygon.vertices
    for k, (r1, r2) in enumerate(analysis.polygon.rays):
        here = vertices[k]
        for w, there in ((r1, vertices[(k + 1) % len(vertices)]), (r2, vertices[k - 1])):
            dx, dy = there.x - here.x, there.y - here.y
            scale = dx.denominator * dy.denominator
            a, b = int(dx * scale), int(dy * scale)
            g = gcd(a, b)
            _same_value(w, Weight(a // g, b // g))
    for va in analysis.report.vertex_data:
        _same_value(va, VertexAnalysis(*va))
    if sum(va.on_wall for va in analysis.report.vertex_data) == 1:
        strata = build_xray(analysis)
        assert strata
        for s in strata:
            _same_value(s, Stratum(s.xy, s.dimension))


def test_rejection_reasons_keep_their_bytes():
    # The reasons format the reprs of a point and of rays.
    doc = full_report(parse_polytope_document('{"vertices": [[0,0],[0,-3],[2,-1]]}'))
    assert doc["failures"] == [
        {"condition": 3, "reason": "interior vertex RationalPoint(x=Fraction(2, 1), "
         "y=Fraction(-1, 1)) has non-unimodular rays (Weight(a=-2, b=1), Weight(a=-1, b=-1))"},
        {"condition": 4, "reason": "wall vertex RationalPoint(x=Fraction(0, 1), "
         "y=Fraction(0, 1)) has rays (Weight(a=0, b=-1), Weight(a=2, b=-1)) matching no "
         "wall pattern"},
    ]
