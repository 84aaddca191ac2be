"""Exact arithmetic on the rank-2 weight lattice of U(2).

Coordinates are always taken in the basis (eps1, eps2) of the weight
lattice.  The simple root is alpha = eps1 - eps2, its coroot pairs with
a point (x, y) as x - y, and the Weyl reflection swaps the two
coordinates.  All values are immutable; every function here is pure.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Union

RationalLike = Union[int, str, Fraction]


class Value(tuple):
    """Base of the package's value types, each declared as
    `class X(Value, namedtuple("X", "fields"))`: an immutable tuple of its
    fields, with the namedtuple's repr and keyword construction and the
    tuple's hash and order.  A value equals only a value of its own class
    with equal fields, never a plain tuple or another class's value."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Weight(Value, namedtuple("Weight", "a b")):
    """Integer lattice vector a*eps1 + b*eps2."""

    __slots__ = ()

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Weight":
        return Weight(-self.a, -self.b)

    def __mul__(self, n: int) -> "Weight":
        return Weight(self.a * n, self.b * n)

    __rmul__ = __mul__


class RationalPoint(Value, namedtuple("RationalPoint", "x y")):
    """Exact rational point x*eps1 + y*eps2 in t*.  It keeps a __dict__
    for its cached json."""

    @classmethod
    def of(cls, x: RationalLike, y: RationalLike) -> "RationalPoint":
        return cls(Fraction(x), Fraction(y))

    def __add__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "RationalPoint") -> "RationalPoint":
        return RationalPoint(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "RationalPoint":
        return RationalPoint(-self.x, -self.y)

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

# Either kind of vector unpacks as its two coordinates.
Vector = Union[Weight, RationalPoint]


def coroot_pairing(v: Vector):
    """Pairing of v with the simple coroot: x - y in (eps1, eps2) coordinates."""
    x, y = v
    return x - y


def weyl_reflect(v: Vector) -> Vector:
    """Reflection across the wall x = y, i.e. the coordinate swap."""
    if isinstance(v, Weight):
        return Weight(v.b, v.a)
    return RationalPoint(v.y, v.x)


def cross(u: Vector, v: Vector):
    """2D cross product u_x*v_y - u_y*v_x."""
    (ux, uy), (vx, vy) = u, v
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
    x, y = v
    if x == 0 and y == 0:
        raise ValueError("the zero vector does not span a ray")
    x, y = Fraction(x), Fraction(y)
    return primitive_int_ray(x.numerator * y.denominator, y.numerator * x.denominator)


def is_lattice_basis(u: Weight, v: Weight) -> bool:
    """True iff (u, v) is a Z-basis of the weight lattice (determinant +-1)."""
    return abs(u.a * v.b - u.b * v.a) == 1
