import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mompoly.lattice import (
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
from mompoly.report import point_out

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
points = st.builds(RationalPoint, rationals, rationals)
weights = st.builds(Weight, st.integers(-20, 20), st.integers(-20, 20))


def test_constants():
    assert ALPHA == Weight(1, -1)
    assert EPS1 + EPS2 == Weight(1, 1)
    assert EPS1 - EPS2 - ALPHA == Weight(0, 0) != ALPHA


def test_coroot_pairing_examples():
    assert coroot_pairing(ALPHA) == 2
    assert coroot_pairing(RationalPoint.of("1/2", "1/3")) == Fraction(1, 6)
    assert coroot_pairing(Weight(3, 3)) == 0


@given(points)
def test_reflection_involution(p):
    assert weyl_reflect(weyl_reflect(p)) == p


@given(points)
def test_reflection_negates_pairing(p):
    assert coroot_pairing(weyl_reflect(p)) == -coroot_pairing(p)


def test_reflection_preserves_type():
    assert isinstance(weyl_reflect(Weight(2, 1)), Weight)
    assert isinstance(weyl_reflect(RationalPoint.of(2, 1)), RationalPoint)


@given(points, points)
def test_cross_antisymmetric(p, q):
    assert cross(p, q) == -cross(q, p)
    assert cross(q, -p) == cross(p + q, q) == cross(p, q)


@given(points)
def test_primitive_ray_direction(p):
    if not (p.x or p.y):
        with pytest.raises(ValueError):
            primitive_ray(p)
        return
    ray = primitive_ray(p)
    assert cross(ray, p) == 0
    assert ray.a * p.x + ray.b * p.y > 0
    assert primitive_ray(ray) == ray


def test_primitive_ray_examples():
    assert primitive_ray(RationalPoint.of("3/2", "-9/4")) == Weight(2, -3)
    assert primitive_ray(Weight(4, 6)) == Weight(2, 3)
    assert primitive_ray(RationalPoint.of(0, "-5")) == Weight(0, -1)


@given(weights, weights)
def test_basis_symmetry(u, v):
    assert is_lattice_basis(u, v) == is_lattice_basis(v, u)


def test_basis_examples():
    assert is_lattice_basis(Weight(1, 0), Weight(0, 1))
    assert is_lattice_basis(Weight(2, 1), Weight(1, 1))
    assert not is_lattice_basis(Weight(1, 0), Weight(0, 2))
    assert not is_lattice_basis(Weight(1, 1), Weight(-1, -1))


@given(weights, weights)
def test_basis_implies_primitive(u, v):
    if is_lattice_basis(u, v):
        assert primitive_ray(u) == u
        assert primitive_ray(v) == v


@given(points)
def test_json_text_is_the_report_form(p):
    # The census stream writes p.json; reports write point_out(p).
    assert p.json == json.dumps(point_out(p))
