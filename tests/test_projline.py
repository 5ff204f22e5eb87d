import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from naive import _naive_distance
from p1dyn.intarith import ArithmeticInputError, is_prime
from p1dyn.projline import (
    INFINITE_DISTANCE,
    INFINITY,
    ProjPoint,
    canonicalize,
    cross_product,
    distance_support,
    format_point,
    from_rational,
    log_distance,
    parse_point,
    point_sort_key,
)


def random_point(rng, height=50):
    while True:
        x = rng.randint(-height, height)
        y = rng.randint(0, height)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1 and (y > 0 or x == 1):
            return ProjPoint(x, y)


def test_canonicalize_examples():
    assert canonicalize(Fraction(4, 6), 1) == ProjPoint(2, 3)
    assert canonicalize(-2, -4) == ProjPoint(1, 2)
    assert canonicalize(3, 0) == INFINITY
    assert canonicalize(0, -5) == ProjPoint(0, 1)
    with pytest.raises(ArithmeticInputError):
        canonicalize(0, 0)


def test_canonical_invariants_random():
    rng = random.Random(5)
    for _ in range(300):
        x = rng.randint(-500, 500)
        y = rng.randint(-500, 500)
        if x == 0 and y == 0:
            continue
        p = canonicalize(x, y)
        assert math.gcd(p.x, p.y) == 1
        assert p.y > 0 or (p.y == 0 and p.x == 1)
        # scaling invariance
        for s in (2, -3, 7):
            assert canonicalize(s * x, s * y) == p


def test_constructor_rejects_non_canonical():
    with pytest.raises(ArithmeticInputError):
        ProjPoint(2, 4)
    with pytest.raises(ArithmeticInputError):
        ProjPoint(1, -2)
    with pytest.raises(ArithmeticInputError):
        ProjPoint(-1, 0)


def test_log_distance_examples():
    assert log_distance(ProjPoint(1, 1), ProjPoint(3, 1), 2) == 1
    assert log_distance(ProjPoint(1, 1), ProjPoint(3, 1), 5) == 0
    assert log_distance(ProjPoint(0, 1), INFINITY, 7) == 0
    assert log_distance(ProjPoint(2, 1), ProjPoint(2, 1), 3) == INFINITE_DISTANCE
    with pytest.raises(ArithmeticInputError, match="^4 is not prime$"):
        log_distance(ProjPoint(1, 1), ProjPoint(3, 1), 4)


def test_log_distance_proves_its_prime_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr("p1dyn.intarith.is_prime", counting)
    monkeypatch.setattr("p1dyn.projline.is_prime", counting)
    assert log_distance(ProjPoint(1, 1), ProjPoint(9, 1), 2) == 3
    assert calls == [2]


def test_log_distance_symmetry_and_reduction_meaning():
    rng = random.Random(9)
    for _ in range(200):
        p1 = random_point(rng)
        p2 = random_point(rng)
        p = rng.choice([2, 3, 5, 7, 11])
        d12 = log_distance(p1, p2, p)
        assert d12 == log_distance(p2, p1, p)
        if p1 != p2:
            # distance zero means distinct modulo p
            assert (d12 == 0) == (cross_product(p1, p2) % p != 0)


def test_distance_support_examples():
    assert distance_support(ProjPoint(3, 1), ProjPoint(1, 2)) == {5: 1}
    assert distance_support(ProjPoint(0, 1), ProjPoint(1, 1)) == {}
    with pytest.raises(ArithmeticInputError):
        distance_support(INFINITY, INFINITY)


def test_distance_support_is_exhaustive():
    rng = random.Random(13)
    for _ in range(150):
        p1 = random_point(rng)
        p2 = random_point(rng)
        if p1 == p2:
            continue
        support = distance_support(p1, p2)
        for p, e in support.items():
            assert log_distance(p1, p2, p) == e
        for p in (2, 3, 5, 7, 11, 13, 17, 101):
            if p not in support:
                assert log_distance(p1, p2, p) == 0


PRIMES_BELOW_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@st.composite
def proj_points(draw, bound=10**6):
    x = draw(st.integers(-bound, bound))
    y = draw(st.integers(0, bound))
    assume((x, y) != (0, 0))
    return canonicalize(x, y)


@settings(max_examples=200, deadline=None)
@given(proj_points(), proj_points())
def test_support_holds_every_distance(a, b):
    # verify reads each distance from one factored support; absent primes are 0
    assume(a != b)
    support = distance_support(a, b)
    for p in sorted(support.keys() | set(PRIMES_BELOW_50)):
        assert support.get(p, 0) == log_distance(a, b, p) == _naive_distance(a, b, p)


def test_parse_and_format_round_trip():
    assert parse_point("3/4") == ProjPoint(3, 4)
    assert parse_point("-7/4") == ProjPoint(-7, 4)
    assert parse_point("5") == ProjPoint(5, 1)
    assert parse_point("inf") == INFINITY
    assert parse_point("[2:-4]") == ProjPoint(-1, 2)
    assert parse_point("[ 1 : 0 ]") == INFINITY
    for text in ("3/4", "-7/4", "5", "inf"):
        assert format_point(parse_point(text)) == text
    for bad in ("", "x", "[1:2:3]", "1/0", "[0:0]"):
        with pytest.raises(ArithmeticInputError):
            parse_point(bad)


def test_sort_key_orders_rationals_with_infinity_last():
    pts = [INFINITY, ProjPoint(-7, 4), ProjPoint(5, 4), ProjPoint(-1, 4), ProjPoint(2, 1)]
    ordered = sorted(pts, key=point_sort_key)
    assert ordered == [ProjPoint(-7, 4), ProjPoint(-1, 4), ProjPoint(5, 4), ProjPoint(2, 1), INFINITY]


def test_from_rational():
    assert from_rational(Fraction(-29, 16)) == ProjPoint(-29, 16)
    assert from_rational(2) == ProjPoint(2, 1)
    assert ProjPoint(-29, 16).as_fraction() == Fraction(-29, 16)
    with pytest.raises(ArithmeticInputError, match="infinity is not a rational number"):
        INFINITY.as_fraction()
