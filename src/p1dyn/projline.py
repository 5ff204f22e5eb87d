"""Points of the projective line over Q and the p-adic logarithmic distance.

A point is stored in canonical coprime integer coordinates [x : y] with
y > 0, or [1 : 0] for the point at infinity.  With coprime coordinates the
logarithmic distance at p collapses to the valuation of the cross product
x1*y2 - x2*y1, which is what everything here computes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intarith import ArithmeticInputError, _strip, factorize, is_prime
from .record import Record, _set

#: Distance value for a point compared with itself (v_p(0), conventionally).
INFINITE_DISTANCE = math.inf


class ProjPoint(Record):
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        if y < 0 or (y == 0 and x != 1):
            raise ArithmeticInputError(f"[{x}:{y}] is not canonical")
        if math.gcd(x, y) != 1:
            raise ArithmeticInputError(f"[{x}:{y}] has a common factor")
        _set(self, "x", x)
        _set(self, "y", y)

    def as_fraction(self) -> Fraction:
        if self.y == 0:
            raise ArithmeticInputError("the point at infinity is not a rational number")
        return Fraction(self.x, self.y)

    def __str__(self) -> str:
        return format_point(self)

    def __repr__(self) -> str:
        return f"ProjPoint({self.x}, {self.y})"


INFINITY = ProjPoint(1, 0)


def canonicalize(x, y) -> ProjPoint:
    """Canonical point from integer or Fraction homogeneous coordinates."""
    if isinstance(x, Fraction) or isinstance(y, Fraction):
        x = Fraction(x)
        y = Fraction(y)
        scale = math.lcm(x.denominator, y.denominator)
        x = int(x * scale)
        y = int(y * scale)
    if x == 0 and y == 0:
        raise ArithmeticInputError("[0:0] is not a projective point")
    g = math.gcd(x, y)
    x //= g
    y //= g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return ProjPoint(x, y)


def from_rational(q) -> ProjPoint:
    q = Fraction(q)
    return ProjPoint(q.numerator, q.denominator)


def cross_product(p1: ProjPoint, p2: ProjPoint) -> int:
    return p1.x * p2.y - p2.x * p1.y


def log_distance(p1: ProjPoint, p2: ProjPoint, p: int):
    """v_p of the cross product; INFINITE_DISTANCE when the points coincide.

    Zero exactly when the two points remain distinct modulo p.
    """
    if not is_prime(p):
        raise ArithmeticInputError(f"{p} is not prime")
    c = cross_product(p1, p2)
    if c == 0:
        return INFINITE_DISTANCE
    return _strip(c, p)[1]


def distance_support(p1: ProjPoint, p2: ProjPoint) -> dict[int, int]:
    """All primes with positive distance, mapped to that distance.

    Exact and exhaustive: any prime outside the returned map has distance 0.
    """
    c = cross_product(p1, p2)
    if c == 0:
        raise ArithmeticInputError("support of a point against itself is undefined")
    if abs(c) == 1:
        return {}
    return factorize(c)


def parse_point(text: str) -> ProjPoint:
    """Accepts 'a/b' (affine), plain integers, 'inf', and '[x:y]'."""
    s = text.strip()
    if s in ("inf", "oo"):
        return INFINITY
    if s.startswith("[") and s.endswith("]"):
        body = s[1:-1]
        parts = body.split(":")
        if len(parts) != 2:
            raise ArithmeticInputError(f"cannot read projective point {text!r}")
        try:
            return canonicalize(int(parts[0].strip()), int(parts[1].strip()))
        except ValueError as exc:
            raise ArithmeticInputError(f"cannot read projective point {text!r}") from exc
    try:
        return from_rational(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ArithmeticInputError(f"cannot read point {text!r}") from exc


def format_point(p: ProjPoint) -> str:
    if p.y == 0:
        return "inf"
    if p.y == 1:
        return str(p.x)
    return f"{p.x}/{p.y}"


def point_sort_key(p: ProjPoint):
    # finite points in rational order, infinity last
    if p.y == 0:
        return (1, Fraction(0))
    return (0, Fraction(p.x, p.y))


def coordinates_up_to_height(height: int, rows=None):
    """Yields the coprime (x, y) of every canonical point with max(|x|, y) <= height.

    Infinity (1, 0) comes first, then rows of increasing y.  ``rows``, an
    iterable of (y, x_bound) pairs, replaces the full rows: the finite points
    are then those of each listed row with |x| <= x_bound.  The caller keeps
    y and x_bound within ``height``.
    """
    if height < 1:
        raise ArithmeticInputError("height bound must be at least 1")
    if rows is None:
        rows = ((y, height) for y in range(1, height + 1))
    yield 1, 0
    for y, x_bound in rows:
        for x in range(-x_bound, x_bound + 1):
            if math.gcd(x, y) == 1:
                yield x, y


def points_up_to_height(height: int):
    """Yields every canonical point with max(|x|, y) <= height, infinity first."""
    return (ProjPoint(x, y) for x, y in coordinates_up_to_height(height))
