import itertools
import sys
from fractions import Fraction

import pytest

import mompoly.classify
from mompoly.census import classify_item
from mompoly.classify import (
    DelzantFamily,
    HalfReflMinus,
    HalfReflMinusFamily,
    HalfReflPlus,
    HalfReflPlusFamily,
    Reflection,
    ReflectionFamily,
    WallEdgeFamily,
    WallEdgeMinus,
    WallEdgePlus,
    analyze,
    check_momentum_polytope,
    classify_triangle,
    classify_wall_rays,
    local_model_label,
    manifold_model,
)
from mompoly.errors import ChamberError, GeometryError, InvalidPolytopeError
from mompoly.kaehler import is_kaehlerizable
from mompoly.lattice import RationalPoint, Weight
from mompoly.polygon import convex_hull
from mompoly.svgplot import render_svg
from mompoly.report import full_report


def P(*coords):
    return convex_hull([RationalPoint.of(x, y) for x, y in coords])


class TestClassifyWallRays:
    def test_examples(self):
        assert classify_wall_rays(Weight(1, 1), Weight(3, 2)) == WallEdgePlus(2)
        assert classify_wall_rays(Weight(-1, -1), Weight(0, -1)) == WallEdgeMinus(-1)
        assert classify_wall_rays(Weight(1, -1), Weight(4, -3)) == HalfReflPlus(3)
        assert classify_wall_rays(Weight(1, -1), Weight(2, -3)) == HalfReflMinus(2)
        assert classify_wall_rays(Weight(1, 0), Weight(0, -1)) == Reflection(0)
        assert classify_wall_rays(Weight(3, -2), Weight(2, -3)) == Reflection(2)

    def test_invalid(self):
        assert classify_wall_rays(Weight(1, 1), Weight(1, -1)) is None
        assert classify_wall_rays(Weight(1, 1), Weight(-1, -1)) is None
        assert classify_wall_rays(Weight(1, -1), Weight(-1, 0)) is None
        assert classify_wall_rays(Weight(2, 1), Weight(1, 2)) is None
        assert classify_wall_rays(Weight(1, 1), Weight(1, 1)) is None

    def test_unordered(self):
        for r1, r2 in itertools.product(
            [Weight(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)],
            repeat=2,
        ):
            assert classify_wall_rays(r1, r2) == classify_wall_rays(r2, r1)

    def test_pattern_round_trip(self):
        cases = [
            WallEdgePlus(-2),
            WallEdgePlus(0),
            WallEdgeMinus(3),
            HalfReflPlus(0),
            HalfReflPlus(4),
            HalfReflMinus(0),
            HalfReflMinus(2),
            Reflection(0),
            Reflection(5),
        ]
        for wt in cases:
            assert classify_wall_rays(*wt.rays()) == wt


class TestCheckMomentumPolytope:
    def test_woodward_valid(self):
        report = check_momentum_polytope(P((0, 0), (1, 0), (0, -1), (3, -1)))
        assert report.valid
        assert report.failures == ()

    def test_dimension_failure(self):
        report = check_momentum_polytope(P((0, 0), (2, 2)))
        assert not report.valid
        assert [cid for cid, _ in report.failures] == [1]

    def test_reflection_scaled_triangle_is_valid(self):
        # 2 * conv(0, eps1, -eps2): wall rays {(1,0),(0,-1)}, interior
        # vertices (2,0) and (0,-2) both unimodular.
        report = check_momentum_polytope(P((0, 0), (2, 0), (0, -2)))
        assert report.valid

    def test_interior_delzant_failure(self):
        report = check_momentum_polytope(P((1, 0), (3, 1), (2, -1)))
        assert not report.valid
        assert 3 in {cid for cid, _ in report.failures}

    def test_wall_pattern_failure(self):
        report = check_momentum_polytope(P((0, 0), (2, 1), (2, -1)))
        assert not report.valid
        assert 4 in {cid for cid, _ in report.failures}

    def test_chamber_error(self):
        with pytest.raises(ChamberError):
            check_momentum_polytope(P((0, 0), (0, 1), (1, 1)))

    def test_vertex_data_kinds(self):
        report = check_momentum_polytope(P((0, 0), (1, 1), (3, 2)))
        kinds = {va.vertex: va.kind for va in report.vertex_data}
        assert kinds[RationalPoint.of(0, 0)] == "wall"
        assert kinds[RationalPoint.of(1, 1)] == "wall"
        assert kinds[RationalPoint.of(3, 2)] == "interior_delzant"
        types = dict(report.wall_vertex_types())
        assert types[RationalPoint.of(0, 0)] == WallEdgePlus(2)
        assert types[RationalPoint.of(1, 1)] == WallEdgeMinus(1)


class TestClassifyTriangle:
    def test_spec_examples(self):
        assert classify_triangle(P((0, 0), (1, 1), (3, 2))) == WallEdgeFamily(
            Fraction(0), Fraction(1), 2, 1
        )
        assert classify_triangle(P((0, 0), (1, -1), (4, -3))) == HalfReflPlusFamily(
            Fraction(0), Fraction(1), 3
        )
        assert classify_triangle(P((1, 0), (0, -1), (0, -2))) == DelzantFamily(
            Fraction(1), Fraction(0), Fraction(1), 1, 0, -1, 1
        )
        assert classify_triangle(P((0, 0), (1, 0), (0, -1))) == ReflectionFamily(
            Fraction(0), Fraction(1)
        )
        assert classify_triangle(P((0, 0), (1, -1), (2, -3))) == HalfReflMinusFamily(
            Fraction(0), Fraction(1), 2
        )

    def test_errors(self):
        with pytest.raises(GeometryError):
            classify_triangle(P((0, 0), (1, 0), (0, -1), (3, -1)))
        with pytest.raises(InvalidPolytopeError):
            classify_triangle(P((1, 0), (3, 1), (2, -1)))

    def test_reconstruction(self):
        for fam in [
            DelzantFamily(Fraction(2), Fraction(-1), Fraction(3), 1, 0, -1, 1),
            WallEdgeFamily(Fraction(1, 2), Fraction(3, 2), -2, 1),
            HalfReflPlusFamily(Fraction(0), Fraction(2), 1),
            HalfReflMinusFamily(Fraction(-1), Fraction(1), 0),
            ReflectionFamily(Fraction(5), Fraction(7)),
        ]:
            assert classify_triangle(fam.triangle()) == fam

    def test_wall_edge_l_minus_canonicalizes(self):
        fam = WallEdgeFamily(Fraction(0), Fraction(1), 2, -1)
        assert classify_triangle(fam.triangle()) == WallEdgeFamily(
            Fraction(-1), Fraction(1), 3, 1
        )

    def test_transform_equivariance(self):
        base = P((0, 0), (1, -1), (4, -3))
        fam = classify_triangle(base)
        moved = classify_triangle(base.transform(5, Fraction(3, 2)))
        assert moved == HalfReflPlusFamily(
            5 + Fraction(3, 2) * fam.s, Fraction(3, 2) * fam.t, fam.j
        )


class TestManifoldModel:
    def test_wall_edge(self):
        model = manifold_model(WallEdgeFamily(Fraction(0), Fraction(1), 2, 1))
        assert model.total_space.kind == "projective_space"
        assert set(model.total_space.weights) == {
            Weight(-2, -3),
            Weight(-3, -2),
            Weight(-1, -1),
            Weight(0, 0),
        }
        assert [wt for wt, _ in model.local_models] == [WallEdgePlus(2), WallEdgeMinus(1)]

    def test_half_refl(self):
        model = manifold_model(HalfReflPlusFamily(Fraction(0), Fraction(1), 3))
        assert model.total_space.kind == "projective_bundle_over_sphere"
        assert set(model.total_space.weights) == {Weight(1, 0), Weight(0, 1), Weight(-3, 3)}
        minus = manifold_model(HalfReflMinusFamily(Fraction(0), Fraction(1), 2))
        assert set(minus.total_space.weights) == {Weight(-1, 0), Weight(0, -1), Weight(-2, 2)}

    def test_reflection(self):
        model = manifold_model(ReflectionFamily(Fraction(0), Fraction(1)))
        assert model.total_space.kind == "oriented_grassmannian"
        assert model.gl2_variety_label == "SO(5,C)/P"
        assert model.local_models == ((Reflection(0), local_model_label(Reflection(0))),)

    def test_delzant(self):
        fam = DelzantFamily(Fraction(1), Fraction(0), Fraction(1), 1, 0, -1, 1)
        model = manifold_model(fam)
        assert model.total_space.kind == "projective_bundle_over_sphere"
        assert set(model.total_space.weights) == {
            Weight(0, 0),
            Weight(0, 1),
            Weight(-1, -1),
        }
        assert model.local_models == ()


class TestAnalysis:
    @pytest.fixture
    def checks(self, monkeypatch):
        """Records every call of check_momentum_polytope, in every module
        that binds the name."""
        calls = []
        original = mompoly.classify.check_momentum_polytope

        def counting(polygon):
            calls.append(polygon)
            return original(polygon)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mompoly" and (
                getattr(module, "check_momentum_polytope", None) is original
            ):
                monkeypatch.setattr(module, "check_momentum_polytope", counting)
        return calls

    def test_full_report_checks_once(self, checks):
        woodward = [(0, 0), (1, 0), (0, -1), (3, -1)]
        one_wall_triangle = [(0, 0), (1, -1), (4, -3)]
        for coords in (woodward, one_wall_triangle):
            checks.clear()
            doc = full_report([RationalPoint.of(x, y) for x, y in coords])
            assert doc["valid"] is True
            assert len(checks) == 1, coords

    def test_classify_item_checks_once(self, checks):
        item = classify_item(tuple(P((0, 0), (1, -1), (4, -3)).vertices))
        assert item.valid and item.family_tag == "half_refl_plus"
        assert len(checks) == 1

    def test_queries_take_an_analysis(self, checks):
        woodward = P((0, 0), (1, 0), (0, -1), (3, -1))
        analysis = analyze(woodward)
        assert analyze(analysis) is analysis
        assert is_kaehlerizable(analysis) == is_kaehlerizable(woodward)
        assert len(checks) == 2

    def test_render_svg_checks_once(self, checks):
        woodward = P((0, 0), (1, 0), (0, -1), (3, -1))
        svg = render_svg(woodward, ("xray", "fixpoints"))
        assert "<circle" in svg and 'stroke="crimson"' in svg
        assert len(checks) == 1
