import random
import time
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from p1dyn import orbits, ratmap
from p1dyn.intarith import ArithmeticInputError, factorize
from p1dyn.mapparse import parse_map
from p1dyn.orbits import (_polynomial_rows, classify_point, enumerate_preperiodic,
                          preperiodic_counts, tails_of)
from p1dyn.projline import INFINITY, ProjPoint, parse_point, point_sort_key
from p1dyn.ratmap import DegenerateMapError, HomogPair, escape_threshold, reduction_profile
from p1dyn.verify import FAIL, run_suite

from naive import (all_points_up_to_height, known_answer_maps, lattes_map, naive_classify,
                   naive_evaluate, naive_full_scan, naive_is_critical, naive_real_drops,
                   naive_sieve_kept, rational_pair)


def pts(*texts):
    return frozenset(parse_point(t) for t in texts)


def test_classify_escape_example():
    # z^2 has escape threshold 1: the first point above it proves the escape
    res = classify_point(parse_map("z^2"), ProjPoint(2, 1))
    assert res.kind == "escaped"
    assert res.trajectory == (ProjPoint(2, 1), ProjPoint(4, 1))


def test_classify_periodic_and_tail_examples():
    two_cycle = classify_point(parse_map("z^2-1"), ProjPoint(0, 1))
    assert two_cycle.kind == "periodic"
    assert two_cycle.period == 2
    assert two_cycle.cycle == (ProjPoint(0, 1), ProjPoint(-1, 1))

    tail = classify_point(parse_map("z^2"), ProjPoint(-1, 1))
    assert tail.kind == "tail"
    assert tail.tail_length == 1
    assert tail.cycle == (ProjPoint(1, 1),)

    fixed = classify_point(parse_map("z^2"), INFINITY)
    assert fixed.kind == "periodic" and fixed.period == 1


def test_classify_finds_a_two_cycle_above_a_million():
    # the retired default escape bound 10^6 called this orbit escaped
    res = classify_point(parse_map("z^2-1000003000003"), ProjPoint(1000001, 1))
    assert res.kind == "periodic" and res.period == 2
    assert res.cycle == (ProjPoint(1000001, 1), ProjPoint(-1000002, 1))


def test_inventory_finds_a_two_cycle_of_height_1002():
    inv = enumerate_preperiodic(parse_map("z^2-1003003"), 1002)
    assert not inv.incomplete
    assert (ProjPoint(-1002, 1), ProjPoint(1001, 1)) in inv.cycles


def test_classify_undecided_when_budget_too_small():
    res = classify_point(parse_map("z^2-29/16"), parse_point("3/4"), max_iters=2)
    assert res.kind == "undecided"
    assert res.steps == 2


def test_classify_validates_limits():
    pair = parse_map("z^2")
    with pytest.raises(ArithmeticInputError):
        classify_point(pair, INFINITY, max_iters=0)
    with pytest.raises(ArithmeticInputError):
        classify_point(parse_map("z+1"), INFINITY)


def test_enumerate_refuses_a_height_below_1():
    with pytest.raises(ArithmeticInputError, match="^height bound must be at least 1$"):
        enumerate_preperiodic(parse_map("z^2"), 0)


@pytest.mark.parametrize("map_text", ["z^2", "z^2-1"])
def test_classify_agrees_with_naive_oracle_up_to_height_30(map_text):
    pair = parse_map(map_text)
    for p in all_points_up_to_height(30):
        mine = classify_point(pair, p, max_iters=64)
        kind, traj, period, tail_length, cycle, steps = naive_classify(
            pair, p, max_iters=64, escape_height=escape_threshold(pair)
        )
        assert mine.kind == kind
        assert mine.trajectory == traj
        assert mine.period == period
        assert mine.tail_length == tail_length
        assert mine.cycle == cycle
        assert mine.steps == steps


def test_golden_inventory_z2_minus_29_16():
    inv = enumerate_preperiodic(parse_map("z^2-29/16"), 64)
    assert not inv.incomplete
    assert inv.preper == pts("inf", "-1/4", "-7/4", "5/4", "1/4", "7/4", "-5/4", "3/4", "-3/4")
    assert inv.per == pts("inf", "-1/4", "-7/4", "5/4")
    assert inv.tail == pts("1/4", "7/4", "-5/4", "3/4", "-3/4")
    assert inv.per0 == pts("inf")
    assert len(inv.cycles) == 2
    three = next(c for c in inv.cycles if len(c) == 3)
    assert three == (parse_point("-7/4"), parse_point("5/4"), parse_point("-1/4"))
    assert set(tails_of(inv, parse_point("-1/4"))) == set(pts("1/4", "7/4", "-5/4", "3/4", "-3/4"))
    assert inv.tail_lengths[parse_point("1/4")] == 1
    assert inv.tail_lengths[parse_point("3/4")] == 2
    assert inv.tail_lengths[parse_point("-3/4")] == 2
    assert tails_of(inv, INFINITY) == ()


def test_golden_inventory_squaring_map():
    inv = enumerate_preperiodic(parse_map("z^2"), 100)
    assert inv.preper == pts("0", "inf", "1", "-1")
    assert inv.per == pts("0", "1", "inf")
    assert inv.per0 == pts("0", "inf")
    assert inv.tail == pts("-1")
    assert tails_of(inv, parse_point("1")) == (parse_point("-1"),)
    assert tails_of(inv, parse_point("0")) == ()
    with pytest.raises(ArithmeticInputError):
        tails_of(inv, parse_point("-1"))


def test_golden_inventory_z2_minus_1():
    inv = enumerate_preperiodic(parse_map("z^2-1"), 100)
    assert inv.preper == pts("inf", "0", "-1", "1")
    assert inv.per == pts("inf", "0", "-1")
    assert inv.per0 == pts("inf", "0", "-1")
    assert inv.tail == pts("1")


def test_golden_inventory_z2_plus_1():
    inv = enumerate_preperiodic(parse_map("z^2+1"), 100)
    assert inv.preper == pts("inf")
    assert inv.per == pts("inf")
    assert inv.per0 == pts("inf")


def test_golden_inventory_z2_minus_2():
    inv = enumerate_preperiodic(parse_map("z^2-2"), 100)
    assert inv.preper == pts("inf", "2", "-1", "-2", "0", "1")
    assert inv.per == pts("inf", "2", "-1")
    assert inv.per0 == pts("inf")
    assert inv.tail_lengths[parse_point("0")] == 2
    assert inv.tail_lengths[parse_point("-2")] == 1


@pytest.mark.parametrize("map_text", ["z^2", "z^2-1"])
def test_inventory_agrees_with_naive_search(map_text):
    pair = parse_map(map_text)
    inv = enumerate_preperiodic(pair, 30)
    assert inv.preper == naive_full_scan(pair, 30, 256, 10**6)[0]


def test_inventory_grows_with_height():
    pair = parse_map("z^2-29/16")
    small = enumerate_preperiodic(pair, 8)
    large = enumerate_preperiodic(pair, 64)
    assert small.preper <= large.preper


def test_forward_closure_beyond_height():
    # candidates at height 1 are only -1, 0, 1, inf, but the orbit of 0 runs
    # through -2 and 2, so the closure already contains the full six points
    inv = enumerate_preperiodic(parse_map("z^2-2"), 1)
    assert inv.preper == pts("inf", "2", "-1", "-2", "0", "1")


def test_preimage_counts_bounded_by_degree():
    for text in ("z^2", "z^2-1", "z^2-2", "z^2-29/16"):
        pair = parse_map(text)
        inv = enumerate_preperiodic(pair, 64)
        for target in inv.preper:
            fibre = [p for p in inv.preper if inv.image[p] == target]
            assert len(fibre) <= pair.degree


def test_incomplete_inventory_is_flagged():
    inv = enumerate_preperiodic(parse_map("z^2-29/16"), 4, max_iters=2)
    assert inv.incomplete
    assert parse_point("3/4") in inv.undecided


def test_image_map_is_consistent_with_evaluate():
    from p1dyn.ratmap import evaluate

    inv = enumerate_preperiodic(parse_map("z^2-29/16"), 64)
    for p in inv.preper:
        assert inv.image[p] == evaluate(inv.pair, p)
        assert inv.image[p] in inv.preper


@pytest.mark.parametrize("map_text", ["z^2", "z^2-1", "z^2-2", "z^2-29/16", "z^2+1/4"])
def test_inventory_walker_agrees_with_classify_point(map_text):
    # with a tiny budget, known preperiodic points can only settle more starts
    pair = parse_map(map_text)
    inv = enumerate_preperiodic(pair, 12, max_iters=3)
    undecided = set()
    for p in all_points_up_to_height(12):
        kind = classify_point(pair, p, max_iters=3).kind
        if kind == "undecided":
            undecided.add(p)
        elif kind in ("periodic", "tail"):
            assert p in inv.preper
    assert set(inv.undecided) <= undecided


# common denominators of the lower coefficients, so a_0 gets prime powers or a prime
# above every height drawn
_DENOMINATORS = st.sampled_from([1, 1, 1, 2**5 * 3**2 * 7, 2**6, 3**4 * 5, 2**3 * 211, 1009])
_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def polynomial_pairs(draw):
    degree = draw(st.integers(2, 4))
    lead = draw(_SMALL.filter(bool))
    den = draw(_DENOMINATORS)
    if den == 1:
        rest = draw(st.lists(_SMALL, min_size=degree, max_size=degree))
    else:
        nums = st.lists(st.integers(-4 * den, 4 * den), min_size=degree, max_size=degree)
        rest = [Fraction(n, den) for n in draw(nums)]
    return rational_pair([lead] + rest, [0] * degree + [1])


@settings(max_examples=60, deadline=None)
@given(polynomial_pairs(), st.integers(1, 200))
@example(rational_pair([1, 0, Fraction(-5, 2**5 * 3**2 * 7)], [0, 0, 1]), 200)
@example(rational_pair([1, 0, Fraction(-843, 211)], [0, 0, 1]), 200)  # 211 above the height
@example(rational_pair([1, 0, Fraction(1, 2)], [0, 0, 1]), 200)  # only infinity is walked
@example(rational_pair([1, 0, 0, Fraction(1, 8)], [0, 0, 0, 1]), 200)  # k = 0 drops odd y
@example(rational_pair([1, 0, Fraction(-29, 16)], [0, 0, 1]), 200)  # y = 4 ties: kept
@example(rational_pair([Fraction(1, 4), Fraction(1, 8), 0], [0, 0, 1]), 200)  # a_d = 0: 0 is fixed
@example(rational_pair([1, 0, 0, Fraction(-2, 3)], [0, 0, 0, 1]), 64)  # 3 in (T, H] = (2, 64]
def test_polynomial_sieve_agrees_with_full_scan(pair, height):
    # the sieve walks exactly the starts rules (i) to (iii) keep, and every
    # start it drops escapes in the full scan at the default budgets
    inv = enumerate_preperiodic(pair, height)
    found, kinds = naive_full_scan(pair, height, 256, 10**6)
    assert inv.preper == found
    assert inv.undecided == ()
    # the walker sees the grid up to min(height, T): infinity and the starts the
    # rules keep, read at the search height
    grid_height = min(height, escape_threshold(pair))
    kept = set(naive_sieve_kept(pair, grid_height, height))
    assert inv.starts == 1 + len(kept)
    assert all(kinds[p] == "escaped" for p in kinds
               if p.y and max(abs(p.x), p.y) <= grid_height and p not in kept)


@settings(max_examples=300, deadline=None)
@given(polynomial_pairs(), st.integers(1, 64))
@example(rational_pair([1, 0, Fraction(1, 2)], [0, 0, 1]), 64)
@example(rational_pair([1, 0, Fraction(-5, 2**5 * 3**2 * 7)], [0, 0, 1]), 7)
@example(rational_pair([1, 0, 0, Fraction(-2, 3)], [0, 0, 0, 1]), 64)  # 3 in (T, H] = (2, 64]
def test_a_pair_the_sieve_settles_has_only_infinity(pair, height):
    # a polynomial fixes infinity, F(1, 0) = a_0 and G(1, 0) = 0, and when the
    # sieve keeps no row nothing else is preperiodic
    if _polynomial_rows(pair, height) != []:
        return
    inv = enumerate_preperiodic(pair, height)
    assert inv.preper == inv.per0 == {INFINITY}
    assert inv.cycles == ((INFINITY,),) and inv.image == {INFINITY: INFINITY}
    assert inv.tail == frozenset() and inv.tail_lengths == {} and inv.starts == 1
    assert preperiodic_counts(pair, height) == (1, 1, 0, 1, False)
    assert naive_full_scan(pair, min(height, 16), 256, 10**6)[0] == {INFINITY}


def test_no_threshold_where_no_walk_reads_it(monkeypatch):
    # T is derived only when a walk reads it: rule (i) settles z^2+1/2, rule (iii)
    # (Walde-Russo) z^2-1/2, and a polynomial's Res needs no rows
    def refuse(pair):
        raise AssertionError(f"rows of adj(S) derived for {pair}")

    monkeypatch.setattr(ratmap, "_adjugate_rows", refuse)
    for text in ("z^2+1/2", "z^2-1/2"):
        pair = parse_map(text)
        assert reduction_profile(pair).bad_primes == (2,)
        assert preperiodic_counts(pair, 64) == (1, 1, 0, 1, False)
    start = time.perf_counter()
    assert parse_map("z^2+1/2^1000001").resultant == 2 ** (4 * 1000001)
    assert time.perf_counter() - start < 1


@st.composite
def skewed_quadratics(draw):
    """(a_0 z^2 + a_1 z + a_2)/b_2 in lowest terms with a_1 != 0, a_0 > 1 and b_2 < 0."""
    a = [draw(st.integers(2, 6)), draw(st.integers(-12, 12).filter(bool)),
         draw(st.integers(-12, 12))]
    b2 = draw(st.integers(-6, -1))
    assume(gcd(*a, b2) == 1)
    return HomogPair(a, [0, 0, b2])


@settings(max_examples=100, deadline=None)
@given(skewed_quadratics(), st.integers(1, 40))
@example(HomogPair([2, 3, 2], [0, 0, -1]), 40)  # both D+- < 0: only infinity is kept
@example(HomogPair([4, -7, -3], [0, 0, -2]), 40)
def test_every_start_the_real_rule_drops_escapes(pair, height):
    # rule (i) at d = 2, as stated in Fraction arithmetic, drops no start that the full
    # scan finds preperiodic, and the sieved inventory is the full scan's
    inv = enumerate_preperiodic(pair, height)
    found, kinds = naive_full_scan(pair, height, 256, 10**6)
    assert inv.preper == found and not inv.incomplete
    assert all(kinds[p] == "escaped" for p in kinds if p.y and naive_real_drops(pair, p))


_Z = sympy.Symbol("z")


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(-12, 12), st.integers(-12, 12),
       st.integers(-6, 6).filter(bool))
@example(16, 0, -29, 16)  # z^2-29/16: B+- = -+16, D+- = 2112, R = (16 + sqrt(2112))/32
@example(1, -1, 1, 1)  # z^2-z+1: P+ = (z - 1)^2 and D- < 0, so R = 1, the fixed point
def test_row_bounds_are_y_times_the_largest_real_root(a0, a1, a2, b2):
    # each kept row's bound is floor(y*R), R the largest |real root| of P+ * P- =
    # F(z, 1)^2 - b_2^2 z^2, found here by sympy's exact real root isolation
    assume(gcd(a0, a1, a2, b2) == 1)
    pair = HomogPair([a0, a1, a2], [0, 0, b2])
    f = a0 * _Z**2 + a1 * _Z + a2
    roots = sympy.Poly(f**2 - b2**2 * _Z**2, _Z).real_roots()
    rows = _polynomial_rows(pair, 10**6)
    if not roots:
        assert rows == []
    for y, bound in rows:
        assert bound == sympy.floor(y * max(abs(r) for r in roots))


def test_box_32_walks_2288_starts_over_123_members():
    # rule (i) settles every c > 1/4, about half of the box, before any trial division
    starts = [enumerate_preperiodic(HomogPair([den, 0, num], [0, 0, den]), 64).starts
              for den in range(1, 33) for num in range(-32, 33) if gcd(num, den) == 1]
    assert (len(starts), sum(starts), sum(s > 1 for s in starts)) == (1295, 2288, 123)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=Fraction(1, 4)).filter(lambda c: c > Fraction(1, 4)),
       st.integers(1, 1024))
@example(Fraction(1, 4) + Fraction(1, 10**9), 1024)
def test_every_c_above_a_quarter_keeps_no_row(c, height):
    # D+- = 1 - 4c < 0: |z^2 + c| > |z| on the whole real line
    assert _polynomial_rows(rational_pair([1, 0, c], [0, 0, 1]), height) == []


class _Reached(Exception):
    pass


def test_a_settled_pair_runs_neither_the_walker_nor_the_wronskian(monkeypatch):
    def refuse(*args):
        raise _Reached

    monkeypatch.setattr(orbits, "_walk", refuse)
    monkeypatch.setattr(orbits, "wronskian", refuse)
    settled = parse_map("z^2+1/2")  # Walde-Russo: 2 is no square
    assert preperiodic_counts(settled, 64) == (1, 1, 0, 1, False)
    assert enumerate_preperiodic(settled, 64).per0 == {INFINITY}
    with pytest.raises(_Reached):  # a pair with a kept row still walks
        preperiodic_counts(parse_map("z^2-29/16"), 64)


def test_refusals_come_before_the_sieve():
    with pytest.raises(ArithmeticInputError, match="max_iters must be positive"):
        preperiodic_counts(parse_map("z^2+1/2"), 64, max_iters=0)
    # rule (i) settles z^2+1 before any height is read
    for count in (enumerate_preperiodic, preperiodic_counts):
        with pytest.raises(ArithmeticInputError, match="^height bound must be at least 1$"):
            count(parse_map("z^2+1"), 0)
    # rule (iii) divides by d - 1: the degree check must come first
    with pytest.raises(ArithmeticInputError, match="degree at least 2"):
        enumerate_preperiodic(parse_map("2*z+1/3"), 8)


@st.composite
def counted_pairs(draw):
    """z^2 + c with |num|, den <= 64, a cubic polynomial, or a pair that is not one."""
    kind = draw(st.sampled_from(["z^2+c", "cubic", "rational"]))
    if kind == "z^2+c":
        c = Fraction(draw(st.integers(-64, 64)), draw(st.integers(1, 64)))
        return rational_pair([1, 0, c], [0, 0, 1])
    if kind == "cubic":
        lead = draw(_SMALL.filter(bool))
        return rational_pair([lead] + draw(st.lists(_SMALL, min_size=3, max_size=3)),
                             [0, 0, 0, 1])
    degree = draw(st.integers(2, 3))
    form = st.lists(st.integers(-3, 3), min_size=degree + 1, max_size=degree + 1)
    a, b = draw(form), draw(form.filter(lambda b: any(b[:-1])))
    try:
        return HomogPair(a, b)
    except DegenerateMapError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(counted_pairs(), st.integers(1, 64), st.integers(1, 8))
@example(rational_pair([1, 0, Fraction(-29, 16)], [0, 0, 1]), 64, 2)  # undecided starts
@example(HomogPair([1, 0, -1], [0, 0, 1]), 64, 8)  # 0 and infinity on critical cycles
def test_counts_are_the_sizes_of_the_inventory(pair, height, max_iters):
    inv = enumerate_preperiodic(pair, height, max_iters=max_iters)
    assert preperiodic_counts(pair, height, max_iters=max_iters) == (
        len(inv.preper), len(inv.per), len(inv.tail), len(inv.per0), inv.incomplete)


@settings(max_examples=200, deadline=None)
@given(counted_pairs(), st.integers(1, 32))
@example(parse_map("z^2-29/16"), 32)  # a 3-cycle, not first in walk order
@example(parse_map("z^2-1"), 32)  # two critical cycles, each with tails
@example(parse_map("z^2-21/16"), 32)  # the 2-cycle -5/4, 1/4 straddles the fixed point -3/4
@example(parse_map("[Y^2:X^2]"), 32)  # infinity on a critical 2-cycle, not a polynomial
@example(parse_map("[X^2+Y^2:X*Y]"), 32)  # infinity fixed, not critical: W(1, 0) = 2
def test_inventory_structure_agrees_with_naive_classification(pair, height):
    inv = enumerate_preperiodic(pair, height)
    assume(not inv.incomplete)
    naive = {p: naive_classify(pair, p, 256, 10**6)
             for p in naive_full_scan(pair, height, 256, 10**6)[0]}
    # each value is (kind, trajectory, period, tail_length, cycle, steps)
    assert inv.tail_lengths == {p: c[3] for p, c in naive.items() if c[0] == "tail"}
    assert inv.image == {p: naive_evaluate(pair, p) for p in naive}
    least_first = set()
    for c in naive.values():
        k = c[4].index(min(c[4], key=point_sort_key))
        least_first.add(c[4][k:] + c[4][:k])
    assert inv.cycles == tuple(sorted(least_first, key=lambda c: point_sort_key(c[0])))
    assert inv.per0 == {p for c in least_first if any(naive_is_critical(pair, q) for q in c)
                        for p in c}
    assert inv.tails_by_target == {
        p: tuple(sorted((t for t, c in naive.items() if c[0] == "tail" and p in c[4]),
                        key=point_sort_key))
        for p in inv.per}


@settings(max_examples=60, deadline=None)
@given(known_answer_maps())
def test_known_answer_maps_at_every_degree(known):
    # PrePer(m^-1 o phi o m) = m^-1(PrePer(phi)); at H = T the walk finds all of it
    text, preper = known
    pair = parse_map(text)
    threshold = escape_threshold(pair)
    assume(threshold <= 200)
    inv = enumerate_preperiodic(pair, threshold)
    assert not inv.incomplete
    assert inv.preper == preper
    assert preperiodic_counts(pair, threshold) == (
        len(inv.preper), len(inv.per), len(inv.tail), len(inv.per0), False)


# the parameters of the Walde-Russo families: |numerator|, denominator <= 8
_PARAMETER = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 8))


def _walde_russo(family: str, t: Fraction):
    """c and the cycles of z^2 + c, each a frozenset, that the family predicts at t."""
    if family == "fixed":  # c = 1/4 - rho^2: the fixed points 1/2 + rho and 1/2 - rho
        return Fraction(1, 4) - t * t, {frozenset({Fraction(1, 2) + s}) for s in (t, -t)}
    if family == "2-cycle":  # c = -3/4 - sigma^2, sigma != 0: the 2-cycle -1/2 +- sigma
        return Fraction(-3, 4) - t * t, {frozenset({Fraction(-1, 2) + t, Fraction(-1, 2) - t})}
    # c(tau), tau not 0 or -1: the 3-cycle through (tau^3 + 2tau^2 + tau + 1) / (2tau(tau + 1))
    c = -(t**6 + 2 * t**5 + 4 * t**4 + 8 * t**3 + 9 * t**2 + 4 * t + 1) / (4 * t**2 * (t + 1)**2)
    x = (t**3 + 2 * t**2 + t + 1) / (2 * t * (t + 1))
    return c, {frozenset({x, x * x + c, (x * x + c)**2 + c})}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("fixed", "2-cycle", "3-cycle")), _PARAMETER)
@example("3-cycle", Fraction(7, 8))  # the family's largest threshold here, T = 8,214,529
@example("2-cycle", Fraction(-8, 3))
@example("fixed", Fraction(0))  # c = 1/4: one double fixed point
def test_walde_russo_families_at_the_escape_threshold(family, t):
    # Walde-Russo parametrize the rational cycles of length 1, 2 and 3 of z^2 + c; no
    # rational 4-cycle (Morton) or 5-cycle (Flynn-Poonen-Schaefer) exists, and -x is
    # preperiodic whenever x is, as (-x)^2 + c = x^2 + c
    assume(family == "fixed" or t != 0)
    assume(family != "3-cycle" or t != -1)
    c, predicted = _walde_russo(family, t)
    pair = rational_pair([1, 0, c], [0, 0, 1])
    inv = enumerate_preperiodic(pair, escape_threshold(pair))
    assert not inv.incomplete
    finite = inv.preper - {INFINITY}
    assert predicted <= {frozenset(p.as_fraction() for p in cyc) for cyc in inv.cycles
                         if INFINITY not in cyc}
    assert {ProjPoint(-p.x, p.y) for p in finite} == finite
    assert not any(len(cyc) in (4, 5) for cyc in inv.cycles)


def test_walde_russo_a_denominator_that_is_no_square_admits_no_finite_point():
    # Walde-Russo: z^2 + c has a finite rational preperiodic point only if c's
    # denominator is a square e^2, and then every such point has denominator e;
    # rule (iii) proves the first without a walk and keeps only the row y = e,
    # unless c > 1/4, where rule (i) keeps no row at all
    squares = {e * e: e for e in range(1, 9)}
    no_square = []
    for den in range(1, 65):
        for num in range(-64, 65):
            if gcd(num, den) != 1:
                continue
            pair = rational_pair([1, 0, Fraction(num, den)], [0, 0, 1])
            if den in squares:
                kept = [] if Fraction(num, den) > Fraction(1, 4) else [squares[den]]
                assert [y for y, _ in _polynomial_rows(pair, 1024)] == kept
            else:
                inv = enumerate_preperiodic(pair, 1024)
                assert (inv.starts, inv.preper) == (1, {INFINITY})
                no_square.append(pair)
    for pair in random.Random(35).sample(no_square, 4):
        assert naive_full_scan(pair, 32, 256, 10**6)[0] == {INFINITY}


def test_a_huge_denominator_that_is_no_square_is_decided_without_a_walk():
    pair = parse_map("z^2+1/2^4001")
    start = time.perf_counter()
    assert preperiodic_counts(pair, 1024) == (1, 1, 0, 1, False)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("text", ["z^2-1/2^1000001", "z^2+1/2^1000001"])
def test_a_million_bit_power_of_2_in_c_is_decided_at_once(text):
    # rule (iii) reads v_2 of each coefficient, one step each at p = 2
    pair = parse_map(text)
    start = time.perf_counter()
    assert preperiodic_counts(pair, 4) == (1, 1, 0, 1, False)
    assert time.perf_counter() - start < 1


def test_lattes_map_of_y2_equals_x3_plus_1():
    # a rational x is preperiodic exactly when (x, sqrt(x^3 + 1)) is a torsion point
    # of y^2 = x^3 + 1 or of a twist (Mazur): x in {-1, 0, 2} and infinity
    pair = parse_map("[{} : {}]".format(*lattes_map(0, 1)))
    assert factorize(pair.resultant) == {2: 8, 3: 6}
    assert escape_threshold(pair) == 5
    inv = enumerate_preperiodic(pair, 5)
    assert not inv.incomplete
    assert inv.preper == pts("-1", "0", "2", "inf")
    assert preperiodic_counts(pair, 5) == (
        len(inv.preper), len(inv.per), len(inv.tail), len(inv.per0), False)
    assert all(r.status != FAIL for r in run_suite(pair, "all", height=5))


def test_polynomial_rows_of_z2_minus_29_16():
    # a_0 = 16 and v_2(y) < 3; rule (iii) drops y = 1 and 2, where -29 alone has the
    # least 2-adic valuation, so v_2(phi(z)) = -4, and keeps y = 4, where 16z^2 and -29
    # tie; rule (i): B+- = -+16 and D+- = 2112, so |x| <= (4*16 + isqrt(16*2112))//32 = 7
    assert _polynomial_rows(parse_map("z^2-29/16"), 1024) == [(4, 7)]


@pytest.mark.parametrize("map_text, height, starts", [
    ("z^2-29/16", 1024, 24),  # rule (ii) and the old radius: y in {1, 2, 4}, |x/y| <= 45/16
    ("z^2-29/16", 1024, 13),  # rule (iii) and the old radius: y = 4, odd |x| <= 11
    ("z^2-29/16", 1024, 9),  # rules (i) and (iii): y = 4, odd |x| <= 7, and infinity
    ("z^2-2", 64, 8),  # the old radius: y = 1, |x| <= 3, and infinity
    ("z^2-2", 64, 6),  # y = 1, |x| <= 2 = floor((1 + sqrt(9))/2), and infinity
])
def test_polynomial_sieve_size(map_text, height, starts):
    inv = enumerate_preperiodic(parse_map(map_text), height)
    assert inv.starts <= starts
    assert not inv.incomplete


def test_non_polynomial_map_walks_the_whole_grid():
    # up to its escape threshold 2: infinity, -2..2 and +-1/2
    inv = enumerate_preperiodic(parse_map("[X^3+2*Y^3:X*Y^2]"), 24)
    assert inv.starts == len(all_points_up_to_height(2)) == 8
