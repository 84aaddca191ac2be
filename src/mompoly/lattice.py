"""Exact arithmetic on the rank-2 weight lattice of U(2).

Coordinates are always taken in the basis (eps1, eps2) of the weight
lattice.  The simple root is alpha = eps1 - eps2, its coroot pairs with
a point (x, y) as x - y, and the Weyl reflection swaps the two
coordinates.  All values are immutable; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Union

RationalLike = Union[int, str, Fraction]


@dataclass(frozen=True, order=True)
class Weight:
    """Integer lattice vector a*eps1 + b*eps2."""

    a: int
    b: int

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Weight":
        return Weight(-self.a, -self.b)

    def __mul__(self, n: int) -> "Weight":
        return Weight(self.a * n, self.b * n)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


@dataclass(frozen=True, order=True)
class RationalPoint:
    """Exact rational point x*eps1 + y*eps2 in t*."""

    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, x: RationalLike, y: RationalLike) -> "RationalPoint":
        return cls(Fraction(x), Fraction(y))

    def __add__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "RationalPoint":
        return RationalPoint(-self.x, -self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    @cached_property
    def json(self) -> str:
        """The point as JSON text, as the census stream writes it: an
        integral coordinate as a number, any other as a "p/q" string."""
        return "[" + ", ".join(
            str(c.numerator) if c.denominator == 1 else f'"{c.numerator}/{c.denominator}"'
            for c in (self.x, self.y)
        ) + "]"


# Distinguished lattice vectors.
EPS1 = Weight(1, 0)
EPS2 = Weight(0, 1)
ALPHA = EPS1 - EPS2

Vector = Union[Weight, RationalPoint]


def _coords(v: Vector) -> tuple:
    if isinstance(v, Weight):
        return (v.a, v.b)
    return (v.x, v.y)


def coroot_pairing(v: Vector):
    """Pairing of v with the simple coroot: x - y in (eps1, eps2) coordinates."""
    x, y = _coords(v)
    return x - y


def weyl_reflect(v: Vector) -> Vector:
    """Reflection across the wall x = y, i.e. the coordinate swap."""
    if isinstance(v, Weight):
        return Weight(v.b, v.a)
    return RationalPoint(v.y, v.x)


def cross(u: Vector, v: Vector):
    """2D cross product u_x*v_y - u_y*v_x."""
    ux, uy = _coords(u)
    vx, vy = _coords(v)
    return ux * vy - uy * vx


def primitive_int_ray(a: int, b: int) -> Weight:
    """Primitive lattice vector spanning the ray R>=0 * (a, b), for integers
    a, b not both zero."""
    g = gcd(a, b)
    return Weight(a // g, b // g)


def primitive_ray(v: Vector) -> Weight:
    """Primitive lattice vector spanning the ray R>=0 * v.

    Clears denominators and divides by the gcd; the direction of v is
    preserved.  Raises ValueError on the zero vector.
    """
    x, y = _coords(v)
    if x == 0 and y == 0:
        raise ValueError("the zero vector does not span a ray")
    x, y = Fraction(x), Fraction(y)
    return primitive_int_ray(x.numerator * y.denominator, y.numerator * x.denominator)


def is_lattice_basis(u: Weight, v: Weight) -> bool:
    """True iff (u, v) is a Z-basis of the weight lattice (determinant +-1)."""
    return abs(u.a * v.b - u.b * v.a) == 1
