"""Tests for the magnitude engine.

The interval endpoints must always bracket the true logarithm, and every
frozen constant here was computed independently (mpmath at 60+ digits, or
direct integer arithmetic) before the engine existed.
"""

import contextlib
import random
import time
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from naive import naive_ln_fixed, naive_prod_terms
from p1dyn import magnitude
from p1dyn.bounds import aggregate_bounds, unit_equation_bound
from p1dyn.magnitude import (
    EXACT_DIGIT_CEILING,
    Comparison,
    IndistinguishableError,
    MagnitudeInputError,
    compare,
    digit_count,
    exact,
    exp_of,
    force_exact,
    int_digits,
    ln_interval,
    max_of,
    power,
    prod_of,
    sum_of,
    _digits_at_most,
    _ln_int_fixed,
)
from p1dyn.report import bound_rows, render_magnitude


def test_int_digits_matches_str():
    rng = random.Random(11)
    cases = [0, 1, 9, 10, 99, 100, 10**12 - 1, 10**12, 7**100]
    cases += [rng.randrange(10**rng.randrange(1, 60)) for _ in range(200)]
    for v in cases:
        assert int_digits(v) == len(str(v))


def test_constructor_canonical_forms():
    assert exact(0).terms == () and exact(7).terms == ((7, (), 0),)
    assert exp_of(0) == exact(1)
    assert power(exact(5), 0) == exact(1)
    assert power(exact(2), 16) == exact(65536)
    assert power(exact(2), 1) == exact(2)
    assert power(exp_of(3), 4) == exp_of(Fraction(12)) == exp_of(12)
    assert power(power(exact(10), 2 * 10**6), 3).terms == ((1, ((10, 6 * 10**6),), 0),)
    # too large to materialize stays a power
    assert power(exact(2), 2**77).terms == ((1, ((2, 2**77),), 0),)
    # c^k past the ceiling joins the powers, merged with a power of the same base
    seven = prod_of(exact(7), power(exact(7), 10**7))
    assert power(seven, 10**7).terms == ((1, ((7, 10**14 + 10**7),), 0),)
    # c's factors of a power's base fold into that power, whichever constructor made c
    two_k = power(exact(2), 4 * 10**6)
    assert (prod_of(exact(2), two_k) == prod_of(two_k, exact(2)) == sum_of(two_k, two_k)
            == power(exact(2), 4 * 10**6 + 1))
    assert prod_of(exact(12), two_k).terms == ((3, ((2, 4 * 10**6 + 2),), 0),)
    two_four_k = prod_of(exact(2), power(exact(4), 2 * 10**6))  # 4^k is written 2^(2k)
    assert power(two_four_k, 2).terms == ((1, ((2, 8 * 10**6 + 2),), 0),)
    six_twelve_k = prod_of(exact(6), power(exact(12), 10**6))  # 6^2 = 3 * 12 folds once squared
    assert power(six_twelve_k, 2).terms == ((3, ((12, 2 * 10**6 + 1),), 0),)

    assert prod_of(exact(6), exact(7)) == exact(42)
    assert prod_of(exp_of(2), exp_of(3)) == exp_of(5)
    assert prod_of(exact(0), exp_of(10**9)) == exact(0)
    assert sum_of(exact(2), exact(3)) == exact(5)
    assert sum_of(exact(0), exp_of(4)) == exp_of(4)
    # identical terms merge into one coefficient
    s = sum_of(exp_of(4), exp_of(4), exp_of(4))
    assert s == prod_of(exact(3), exp_of(4)) and s.terms == ((3, (), 4),)
    e = exp_of(1)
    four_e = sum_of(e, e, prod_of(exact(2), e))
    assert four_e == prod_of(exact(4), e)
    assert compare(four_e, prod_of(exact(4), e)) is Comparison.EQUAL
    assert sum_of(e, prod_of(exact(2), e), prod_of(exact(3), e)) == prod_of(exact(6), e)
    t = power(exact(10), 2 * 10**6)
    assert sum_of(prod_of(e, t), prod_of(exact(2), e, t)) == prod_of(exact(3), e, t)
    assert sum_of(e, prod_of(exact(2), e, t)).terms == ((1, (), 1), (2, ((10, 2 * 10**6),), 1))
    # products of sums are multiplied out
    assert (prod_of(sum_of(e, exact(2)), sum_of(e, exact(3)))
            == sum_of(exp_of(2), prod_of(exact(5), e), exact(6)))
    # order of construction never matters
    assert sum_of(exact(2), exp_of(5)) == sum_of(exp_of(5), exact(2))
    assert prod_of(exact(3), exp_of(5), exact(4)) == prod_of(exact(12), exp_of(5))

    assert max_of(exact(3), exact(9)) == exact(9)
    assert max_of(exact(0), exp_of(7)) == exp_of(7)
    assert max_of(exp_of(7), exp_of(7)) == exp_of(7)

    # ln is the exponent of a lone e^q, and of nothing else
    assert exp_of(3).ln == 3 and exp_of(Fraction(1, 2)).ln == Fraction(1, 2)
    for other in (exact(1), exact(5), prod_of(exact(2), exp_of(3)), sum_of(e, exact(1))):
        assert other.ln is None

    with pytest.raises(MagnitudeInputError):
        exact(-1)
    with pytest.raises(MagnitudeInputError):
        exp_of(Fraction(-1, 2))
    with pytest.raises(MagnitudeInputError):
        power(exact(2), -3)
    with pytest.raises(MagnitudeInputError, match="^max of nothing$"):
        max_of()
    # exponents are exact: no float ever enters a magnitude
    for bad_power in ((exp_of(3), 1.5), (exact(2), 2.5), (exact(2), Fraction(2))):
        with pytest.raises(MagnitudeInputError):
            power(*bad_power)
    for bad_ln in (float("nan"), 2.5, "3"):
        with pytest.raises(MagnitudeInputError):
            exp_of(bad_ln)


def test_the_two_refusals_of_the_constructors():
    # a power of a sum of two or more terms is not multiplied out
    for base in (sum_of(exact(1), exp_of(2)), sum_of(exp_of(1), power(exact(3), 10**7))):
        with pytest.raises(MagnitudeInputError, match="sum"):
            power(base, 2)
    assert power(sum_of(exact(1), exp_of(2)), 1) == sum_of(exact(1), exp_of(2))
    # a maximum of parts compare cannot order is refused, in any argument order
    parts = [sum_of(exp_of(30**15), exact(1)), exp_of(30**15 + Fraction(1, 2**9000))]
    for ordered in (parts, parts[::-1]):
        with pytest.raises(IndistinguishableError):
            max_of(*ordered)


def test_bools_and_precisions_that_are_not_positive_ints_are_refused():
    # a bool is an int, but a term would keep it and print it as True
    for refused in (lambda: exact(True), lambda: exp_of(True), lambda: power(exact(2), True),
                    lambda: exp_of(False), lambda: power(exp_of(3), False)):
        with pytest.raises(MagnitudeInputError):
            refused()
    # only a positive int: at prec = -100 the head shift of an integer's log would never end
    for prec in (-100, 0, True, 64.0):
        with pytest.raises(MagnitudeInputError):
            ln_interval(exact(3), prec)
    assert ln_interval(exact(3), 1) is not None


def test_digit_ceiling_check_agrees_with_the_digit_count():
    for ceiling in range(1, 80):
        for v in {10 ** (ceiling - 1), 10**ceiling - 1, 10**ceiling, 10 ** (ceiling + 1),
                  2 ** (ceiling * 3), 2 ** (ceiling * 3 + 3) - 1, 2 ** (ceiling * 4)}:
            assert _digits_at_most(v, ceiling) == (int_digits(v) <= ceiling), (v, ceiling)


def test_sum_and_product_keep_a_lone_constant_part():
    # one constant passes through as itself; beside a power it is the constant term,
    # or the power's coefficient
    e, x = exact(7), power(exact(3), 2**80)
    assert sum_of(e) == e and prod_of(e) == e
    assert sum_of(e, x).terms == ((1, ((3, 2**80),), 0), (7, (), 0))
    assert prod_of(e, x).terms == ((7, ((3, 2**80),), 0),)
    assert (7, (), 0) in sum_of(x, sum_of(e, exp_of(3))).terms
    # two constants fold into one coefficient
    assert prod_of(e, exact(2), x).terms == ((14, ((3, 2**80),), 0),)


def test_ln_fixed_brackets_truth():
    mp.mp.dps = 120
    rng = random.Random(23)
    ns = [2, 3, 7, 10, 12345, 7**8, 10**30, 2**200 + 12345, 3**500]
    ns += [rng.randrange(2, 10**18) for _ in range(40)]
    for n in ns:
        for width in (48, 80, 272):
            lo, hi = _ln_int_fixed(n, width)
            truth = mp.ln(n) * mp.mpf(2) ** width
            assert mp.mpf(lo) <= truth <= mp.mpf(hi)
            # envelope stays tight relative to the working scale
            assert Fraction(hi - lo, 1 << width) < Fraction(1, 1 << (width // 2))


_HEAD_WIDTHS = (80, 144, 272)
# (width, n) with n of width + 9 to 4 * width bits, so every n reads only its head
_wide_ints = st.sampled_from(_HEAD_WIDTHS).flatmap(lambda w: st.tuples(st.just(w), st.integers(
    w + 9, 4 * w).flatmap(lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))))


def _edge_heads(test):
    """Examples at both ends of the head range, 2^(w+7) and 2^(w+8) - 1, under all-ones tails."""
    for w in _HEAD_WIDTHS:
        test = example((w, (((1 << (w + 7)) + 1) << 1) - 1))(test)
        test = example((w, (1 << (4 * w)) - 1))(test)
    return test


@settings(max_examples=150, deadline=None)
@given(_wide_ints)
@_edge_heads
def test_ln_of_a_large_integer_from_its_head_brackets_truth(case):
    width, n = case
    lo, hi = _ln_int_fixed(n, width)
    with mp.workdps(200):
        truth = mp.ln(n) * mp.mpf(2) ** width
        assert mp.mpf(lo) <= truth <= mp.mpf(hi)
    assert Fraction(hi - lo, 1 << width) < Fraction(1, 1 << (width // 2))


def test_ln_interval_point_forms():
    q = Fraction(30**15)
    iv = ln_interval(exp_of(q), 64)
    assert iv == (q, q)
    iv = ln_interval(power(exp_of(3), 5), 64)
    assert iv == (Fraction(15), Fraction(15))
    assert ln_interval(exact(0), 64) is None
    assert ln_interval(exact(1), 64) == (0, 0)


def test_ln_interval_dominated_sum_brackets_truth():
    mp.mp.dps = 60
    s = sum_of(exp_of(10), exp_of(3), exact(5))
    iv = ln_interval(s, 64)
    truth = mp.ln(mp.e**10 + mp.e**3 + 5)
    lo = mp.mpf(iv[0].numerator) / iv[0].denominator
    hi = mp.mpf(iv[1].numerator) / iv[1].denominator
    assert lo <= truth <= hi
    assert iv[1] - iv[0] < Fraction(1, 2**8)
    widths = [hi - lo for lo, hi in (ln_interval(s, prec) for prec in (64, 256, 1024))]
    assert widths[2] < widths[1] < widths[0]


def test_ln_interval_overlapping_sum_falls_back():
    iv = ln_interval(sum_of(exp_of(5), exp_of(Fraction(51, 10))), 64)
    # heads too close to dominate: ln(max) <= ln(sum) <= ln(max) + ln(parts)
    assert iv[0] >= Fraction(5)
    assert iv[1] <= Fraction(51, 10) + Fraction(1)


def test_force_exact():
    assert force_exact(exact(123)) == 123
    assert force_exact(exact(0)) == 0
    assert force_exact(exp_of(5)) is None
    assert force_exact(power(exact(2), 100)) == 2**100
    assert force_exact(power(exact(10), 10**7)) is None
    assert force_exact(sum_of(exact(1), power(exact(3), 7))) == 1 + 3**7
    assert force_exact(prod_of(exact(12), power(exact(7), 4))) == 12 * 7**4
    assert force_exact(sum_of(exact(1), exp_of(2))) is None
    assert force_exact(max_of(exact(5), power(exact(2), 10))) == 1024
    # the max is an unforcible exponential: refuse honestly
    assert force_exact(max_of(exact(5), exp_of(3))) is None


def test_force_exact_rejects_non_magnitudes():
    for refused in (lambda: force_exact(5), lambda: compare(exact(1), 5),
                    lambda: digit_count(5), lambda: ln_interval(5, 64),
                    lambda: sum_of(exact(1), 5), lambda: prod_of(5), lambda: power(5, 2)):
        with pytest.raises(MagnitudeInputError):
            refused()


def test_power_folds_every_integer_within_the_ceiling():
    # 2^(2*10^6) has 602,060 digits: inside the ceiling, so it is written out
    # even though bit_length * exponent overestimates it twofold
    m = power(exact(2), 2 * 10**6)
    assert m.terms == ((2 ** (2 * 10**6), (), 0),)
    assert force_exact(m) == 2 ** (2 * 10**6)
    assert power(exact(2), 4 * 10**6).terms == ((1, ((2, 4 * 10**6),), 0),)


def test_a_perfect_power_base_is_written_at_its_least_root():
    k = 4 * 10**6
    assert power(exact(4), k // 2) == power(exact(2), k)
    assert compare(power(exact(2), k), power(exact(4), k // 2)) is Comparison.EQUAL
    assert power(exact(36), 10**6).terms == ((1, ((6, 2 * 10**6),), 0),)
    assert power(exact(2**12), 10**6).terms == ((1, ((2, 12 * 10**6),), 0),)
    assert power(exact(6**35), 10**6).terms == ((1, ((6, 35 * 10**6),), 0),)  # roots 5, 7
    four, fours, twos = exact(4), power(exact(4), k), power(exact(2), k)
    orders = [prod_of(four, fours, twos), prod_of(prod_of(four, fours), twos),
              prod_of(four, prod_of(fours, twos)), prod_of(twos, fours, four),
              prod_of(prod_of(twos, four), fours)]
    assert {m.terms for m in orders} == {((1, ((2, 3 * k + 2),), 0),)}


def test_the_least_root_of_a_large_base_that_is_no_power_is_found_quickly():
    # only the prime k below the base's bit length are tried: 550 roots, not 4,000
    start = time.perf_counter()
    assert power(exact(2**4000 + 1), 10**6).terms == ((1, ((2**4000 + 1, 10**6),), 0),)
    assert time.perf_counter() - start < 0.2


_leaf = st.one_of(
    st.integers(0, 10**6).map(exact),
    st.fractions(min_value=0, max_value=60, max_denominator=8).map(exp_of),
)
# one-term powers: a leaf to a small power, or a small base to a power past the ceiling
_one_term = st.one_of(
    st.tuples(_leaf, st.integers(0, 4)).map(lambda t: power(*t)),
    st.tuples(st.integers(2, 50), st.integers(4 * 10**6, 10**7)).map(
        lambda t: power(exact(t[0]), t[1])),
)
_sum = st.lists(st.one_of(_one_term, st.tuples(_one_term, _one_term).map(lambda t: prod_of(*t))),
                min_size=1, max_size=3).map(lambda ps: sum_of(*ps))
_part = st.one_of(_one_term, _sum, st.tuples(_sum, _sum).map(lambda t: prod_of(*t)))


def _answer(fn, *args):
    try:
        return fn(*args)
    except IndistinguishableError:
        return IndistinguishableError


@settings(max_examples=150, deadline=None)
@given(st.lists(_part, min_size=1, max_size=5), st.data())
def test_max_of_decides_dominance_at_construction(parts, data):
    m = _answer(max_of, *parts)
    assert _answer(max_of, *data.draw(st.permutations(parts))) == m
    if m is IndistinguishableError:
        return
    assert m in parts
    for p in parts:
        # a comparison may fail to separate, but never proves the max smaller
        with contextlib.suppress(IndistinguishableError):
            assert compare(m, p) is not Comparison.LESS
    values = [force_exact(p) for p in parts]
    if None not in values:
        assert m == exact(max(values))


def _mp_value(m):
    return mp.fsum(c * mp.fprod(mp.mpf(b) ** k for b, k in powers)
                   * mp.exp(mp.mpf(q.numerator) / q.denominator)
                   for c, powers, q in m.terms)


def _assert_agrees(verdict, va, vb, eps):
    if verdict is Comparison.LESS:
        assert va <= vb * (1 + eps)
    elif verdict is Comparison.GREATER:
        assert vb <= va * (1 + eps)
    else:
        assert abs(va - vb) <= eps * va


@settings(max_examples=150, deadline=None)
@given(_part, _part)
# ln(1 + e^(-11/8)) = 0.2254 lies below e^(-11/8) = 0.2528
@example(sum_of(exact(1), exp_of(Fraction(11, 8))), exact(1))
def test_kernel_agrees_with_mpmath(a, b):
    with mp.workdps(80):
        # slack far below every interval width the kernel produces, far above
        # mpmath's own rounding at 80 digits
        eps = mp.mpf(10) ** -60
        va, vb = _mp_value(a), _mp_value(b)
        if va == 0:
            assert ln_interval(a, 64) is None and digit_count(a) == 1
            return
        truth = mp.ln(va)
        for prec in (64, 256):
            lo, hi = ln_interval(a, prec)
            assert mp.mpf(lo.numerator) / lo.denominator - eps <= truth
            assert truth <= mp.mpf(hi.numerator) / hi.denominator + eps
        assert abs(digit_count(a) - (int(mp.floor(mp.log10(va))) + 1)) <= 1
        verdict = _answer(compare, a, b)
        if verdict is not IndistinguishableError:
            _assert_agrees(verdict, va, vb, eps)


# small leaves, so 400 digits resolve a difference under a shared part
_small_term = st.tuples(_leaf, st.integers(0, 3)).map(lambda t: power(*t))
_small_sum = st.lists(_small_term, min_size=0, max_size=3).map(lambda ps: sum_of(*ps))


@settings(max_examples=150, deadline=None)
@given(_small_sum, _small_sum, _small_sum)
@example(exp_of(30**15), sum_of(exp_of(30**15), exact(1)), exact(0))
@example(exact(2), exact(3), exp_of(200))
@example(sum_of(exp_of(1), exp_of(2)), exp_of(Fraction(17, 8)), sum_of(exp_of(9), exp_of(2)))
def test_compare_cancels_a_shared_part(a, b, c):
    # a + c compares with b + c exactly as a with b, wherever that is decided
    verdict = _answer(compare, a, b)
    assume(verdict is not IndistinguishableError)
    assert compare(sum_of(a, c), sum_of(b, c)) is verdict
    if max((q for m in (a, b, c) for _, _, q in m.terms), default=0) > 10**6:
        return  # past what 400 digits resolve under the shared part
    with mp.workdps(400):
        va, vb, vc = _mp_value(a), _mp_value(b), _mp_value(c)
        eps = mp.mpf(10) ** -380
        _assert_agrees(verdict, va, vb, eps)
        _assert_agrees(verdict, va + vc, vb + vc, eps)


def test_compare_basic():
    assert compare(exact(3), exact(3)) is Comparison.EQUAL
    assert compare(exact(2), exact(5)) is Comparison.LESS
    assert compare(exact(0), exp_of(1)) is Comparison.LESS
    assert compare(exp_of(1), exact(0)) is Comparison.GREATER
    assert compare(exp_of(18**9), exact(2**16)) is Comparison.GREATER
    assert compare(exact(2**16), exp_of(18**9)) is Comparison.LESS
    assert compare(exp_of(Fraction(1, 2)), exact(2)) is Comparison.LESS
    assert compare(exp_of(Fraction(7, 10)), exact(2)) is Comparison.GREATER
    # e^(30^15) dwarfs e^(18^9)
    assert compare(exp_of(30**15), exp_of(18**9)) is Comparison.GREATER
    # canonically equal trees built in different order
    a = sum_of(prod_of(exact(2), exp_of(9)), exact(7))
    b = sum_of(exact(7), prod_of(exp_of(9), exact(2)))
    assert compare(a, b) is Comparison.EQUAL


def test_compare_point_interval_equality():
    a = max_of(exact(2), exp_of(5))
    assert compare(a, exp_of(5)) is Comparison.EQUAL


def test_compare_mixed_scales():
    rng = random.Random(5)
    for _ in range(50):
        x = rng.randrange(1, 10**6)
        y = rng.randrange(1, 10**6)
        got = compare(exact(x), exact(y))
        want = Comparison.LESS if x < y else Comparison.GREATER if x > y else Comparison.EQUAL
        assert got is want
    # symbolic versus exact across a genuine gap
    assert compare(power(exact(2), 2**24), power(exact(3), 2**24)) is Comparison.LESS
    assert compare(power(exact(2), 2**24), exact(10**300)) is Comparison.GREATER


def test_compare_additively_buried_difference_raises():
    # e^(30^15) + 1 against e^(30^15 + 2^-9000): the two differ by a relative
    # amount far below the finest scale and share no term; no logarithmic
    # method can separate them, and the engine must say so instead of guessing
    with pytest.raises(IndistinguishableError):
        compare(sum_of(exp_of(30**15), exact(1)), exp_of(30**15 + Fraction(1, 2**9000)))
    # a sum against its own buried head is decided: the head cancels, and the
    # rest is positive
    s = sum_of(exp_of(30**15), prod_of(exact(6), exp_of(18**9)), exact(2191558))
    assert compare(s, exp_of(30**15)) is Comparison.GREATER
    assert compare(exp_of(30**15), s) is Comparison.LESS


def test_digit_count_exact_values():
    assert digit_count(exact(0)) == 1
    assert digit_count(exact(999)) == 3
    assert digit_count(exact(1000)) == 4
    assert digit_count(power(exact(2), 32)) == 10
    # too large to materialize, and never pinned: the count is within 1, here exact
    assert digit_count(power(exact(10), 10**6 + 1)) == 10**6 + 2


def test_digit_count_frozen_large_constants():
    # frozen from mpmath at 60 digits: floor(18^9 / ln 10) + 1
    assert digit_count(exp_of(18**9)) == 86146345242
    # floor(30^15 / ln 10) + 1
    assert digit_count(exp_of(30**15)) == 6231651131442943472547
    # a dominated sum inherits the head's count
    s = sum_of(exp_of(30**15), prod_of(exact(6), exp_of(18**9)), exact(2191558))
    assert digit_count(s) == 6231651131442943472547


def test_far_head_sums_pin_their_digit_counts():
    # heads 1 apart; frozen from mpmath at 60 digits: log10 = 9.962 and 89.58
    assert digit_count(sum_of(exp_of(Fraction(181, 8)), exp_of(Fraction(173, 8)))) == 10
    assert digit_count(prod_of(*[sum_of(exp_of(10), exp_of(9))] * 20)) == 90


# heads less than 1 apart, to the 4th power; 10^95 against 10^95 + 1 climbs to 512 bits
_CLOSE_HEADS = prod_of(*[sum_of(exp_of(Fraction(215, 4)), exp_of(Fraction(382, 7)))] * 4)


def test_close_head_sums_pin_their_digit_counts():
    # heads less than 1 apart: both ends are bounded in full, so the interval
    # narrows as the precision grows and the count is pinned
    ends = (Fraction(215, 4), Fraction(382, 7))
    with mp.workdps(80):
        truth = 4 * mp.ln(mp.fsum(mp.exp(mp.mpf(q.numerator) / q.denominator) for q in ends))
        assert int(mp.floor(truth / mp.ln(10))) + 1 == 96  # log10 = 95.4335
        widths = []
        for prec in (64, 256, 1024):
            lo, hi = ln_interval(_CLOSE_HEADS, prec)
            assert mp.mpf(lo.numerator) / lo.denominator <= truth
            assert truth <= mp.mpf(hi.numerator) / hi.denominator
            widths.append(hi - lo)
    assert widths[2] < widths[1] < widths[0] < Fraction(1, 2**40)
    assert digit_count(_CLOSE_HEADS) == 96
    assert compare(_CLOSE_HEADS, sum_of(_CLOSE_HEADS, exact(1))) is Comparison.LESS
    # frozen from mpmath at 60 digits: log10 = 10.095 and 11.044
    assert digit_count(sum_of(exp_of(Fraction(45, 2)), exp_of(Fraction(113, 5)))) == 11
    assert digit_count(sum_of(*(exp_of(23 - Fraction(k, 100)) for k in range(12)))) == 12


_exp_leaf = st.builds(Fraction, st.integers(0, 800), st.integers(1, 16)).map(exp_of)


@settings(max_examples=200, deadline=None)
@given(st.lists(_exp_leaf, min_size=2, max_size=4), st.integers(0, 10**40), st.integers(1, 24))
@example([exp_of(Fraction(181, 8)), exp_of(Fraction(173, 8))], 0, 1)
@example([exp_of(10), exp_of(9)], 0, 20)
def test_sum_digit_counts_match_mpmath(leaves, extra, k):
    # every sum is bounded from both ends, so its count is exact, not within 1
    parts = [power(p, k) for p in leaves + [exact(extra)]]
    with mp.workdps(80):
        log10 = mp.log10(mp.fsum(_mp_value(p) for p in parts))
        assume(abs(log10 - mp.nint(log10)) > mp.mpf(10) ** -30)
        want = int(mp.floor(log10)) + 1
    assert digit_count(sum_of(*parts)) == want


def test_digit_count_symbolic_power_matches_oracle():
    mp.mp.dps = 50
    e = 2**24
    want = int(mp.floor(e * mp.log(2, 10))) + 1
    got = digit_count(power(exact(2), e))
    assert abs(got - want) <= 1
    assert got == 5050446  # frozen from the oracle above


def test_random_trees_against_integer_arithmetic():
    rng = random.Random(99)
    for _ in range(120):
        ints = [rng.randrange(0, 10**4) for _ in range(4)]
        mags = [exact(v) for v in ints]
        shape = rng.randrange(3)
        if shape == 0:
            m, v = sum_of(*mags), sum(ints)
        elif shape == 1:
            m, v = prod_of(*mags), ints[0] * ints[1] * ints[2] * ints[3]
        else:
            m, v = max_of(*mags), max(ints)
        assert force_exact(m) == v
        assert digit_count(m) == int_digits(v)
        other = rng.randrange(0, 10**16)
        want = (
            Comparison.LESS
            if v < other
            else Comparison.GREATER
            if v > other
            else Comparison.EQUAL
        )
        assert compare(m, exact(other)) is want


def _built_from(children):
    parts = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        parts.map(lambda ps: sum_of(*ps)),
        parts.map(lambda ps: prod_of(*ps)),
        parts.map(lambda ps: _answer(max_of, *ps)).filter(
            lambda m: m is not IndistinguishableError),
    )


_built = st.recursive(_one_term, _built_from, max_leaves=6)


@settings(max_examples=100, deadline=None)
@given(st.lists(_built, min_size=1, max_size=3), st.data())
def test_constructors_give_one_canonical_form(parts, data):
    for build in (sum_of, prod_of):
        m = build(*parts)
        assert build(*data.draw(st.permutations(parts))) == m
        keys = [(powers, q) for _, powers, q in m.terms]
        assert list(m.terms) == sorted(m.terms) and len(set(keys)) == len(keys)
        for c, powers, q in m.terms:
            assert type(c) is int and c > 0
            assert (type(q) is int) == (q.denominator == 1) and q >= 0
            assert list(powers) == sorted(powers) and len({b for b, _ in powers}) == len(powers)
            for base, k in powers:
                # base^k has more than (bit_length(base) - 1) * k * log10(2) digits
                assert base.bit_length() * k * 30103 // 100000 >= EXACT_DIGIT_CEILING
                assert c % base, "c's factors of a base are folded into its power"


@settings(max_examples=100, deadline=None)
@given(_part.filter(lambda m: m.terms))
def test_log2_brackets_hold_the_value(m):
    with mp.workdps(60):
        eps = mp.mpf(10) ** -40  # far above mpmath's rounding at 60 digits
        for terms in [m.terms] + [(t,) for t in m.terms]:
            lo, hi = magnitude._log2_bracket(terms)
            truth = mp.log(_mp_value(magnitude.Magnitude(terms)), 2)
            assert lo - eps <= truth <= hi + eps, terms


def test_log2_brackets_of_powers_of_two_and_the_unit_equation_constants():
    def bracket(m):
        return magnitude._log2_bracket(m.terms)

    assert bracket(exact(1)) == (0, 0)
    for k in range(2, 300):
        assert bracket(exact(2**k)) == (k, k)
        assert bracket(exact(2**k + 1)) == (k, k + 1)
        assert bracket(exact(2**k - 1)) == (k - 1, k)
    for s in range(1, 17):
        e = 2**77 * s  # the exponent of FPLA's head
        assert bracket(power(exact(2), e)) == (e, e)
    # q / ln 2 just above 1 and just below 1: each end rounds outward past the integer
    l2_lo, l2_hi = magnitude._ln2_fixed(144)
    assert bracket(exp_of(Fraction(l2_hi, 1 << 144))) == (1, 2)
    assert bracket(exp_of(Fraction(l2_lo, 1 << 144))) == (0, 1)
    lo, hi = bracket(unit_equation_bound(5, 16))
    assert hi - lo <= 2
    with mp.workdps(60):
        assert lo <= mp.mpf(30**15 * 76) / mp.ln(2) <= hi
    # n terms add ceil(log2 n) bits on top
    assert bracket(sum_of(exact(2**10), exp_of(Fraction(1, 2)), exp_of(3))) == (10, 12)


@settings(max_examples=100, deadline=None)
@given(_part, _part)
@example(_CLOSE_HEADS, sum_of(_CLOSE_HEADS, exact(1)))  # brackets overlap: climbs to 512 bits
@example(aggregate_bounds(2, 1)["CV"], unit_equation_bound(5, 1))  # a buried head: GREATER
# equal values built two ways: 2 folds into 2^k, so the term lists are equal and compare EQUAL
@example(prod_of(exact(2), power(exact(2), 4 * 10**6)), power(exact(2), 4 * 10**6 + 1))
def test_brackets_never_change_a_verdict(a, b):
    # a bracket of (0, 0) for every sum never decides, so compare goes on to the terms
    verdict = _answer(compare, a, b)
    with mock.patch.object(magnitude, "_log2_bracket", lambda terms: (0, 0)):
        assert verdict == _answer(compare, a, b)


# exponent leaves: integral ones are the most common, as in the bounds
_exponent = st.one_of(st.integers(0, 10**12).map(Fraction),
                      st.fractions(min_value=0, max_value=60, max_denominator=8))
_leaf_recipe = st.one_of(_exponent.map(lambda q: ("exp", q)),
                         st.integers(0, 10**6).map(lambda v: ("exact", v)))
_recipe = st.recursive(
    st.one_of(_leaf_recipe, st.tuples(st.just(power), _leaf_recipe, st.integers(0, 3))),
    lambda children: st.tuples(st.sampled_from((sum_of, prod_of, max_of)),
                               st.lists(children, min_size=1, max_size=3)),
    max_leaves=6,
)


def _grow(recipe, given_as):
    """The magnitude of a recipe, each exponent leaf q built as exp_of(given_as(q))."""
    kind, *args = recipe
    if kind == "exp":
        return exp_of(given_as(args[0]))
    if kind == "exact":
        return exact(args[0])
    if kind is power:
        return power(_grow(args[0], given_as), args[1])
    return kind(*(_grow(r, given_as) for r in args[0]))


@settings(max_examples=100, deadline=None)
@given(_recipe)
@example(("exp", Fraction(30**15 * 76)))
@example((prod_of, [("exp", Fraction(1, 2)), ("exp", Fraction(3, 2)), ("exact", 5)]))
@example((prod_of, [(power, ("exp", Fraction(7)), 3), (sum_of, [("exact", 2), ("exp", 1)])]))
def test_an_integral_exponent_builds_the_same_nodes_as_an_int_and_as_a_fraction(recipe):
    as_int = _answer(_grow, recipe, lambda q: q.numerator if q.denominator == 1 else q)
    as_fraction = _answer(_grow, recipe, Fraction)
    assert as_int == as_fraction
    if as_int is IndistinguishableError:
        return
    assert hash(as_int) == hash(as_fraction)
    # sums and multiples of integral exponents stay ints, and only they do
    for m in (as_int, as_fraction):
        for _, _, q in m.terms:
            assert (type(q) is int) == (q.denominator == 1), m
    if as_int.terms:  # the zero magnitude has no interval
        for width in (80, 144):
            assert magnitude._ln_fixed(as_int.terms, width) == magnitude._ln_fixed(
                as_fraction.terms, width)
    assert _answer(digit_count, as_int) == _answer(digit_count, as_fraction)
    assert render_magnitude(as_int) == render_magnitude(as_fraction)


def _ln_holds(m, width, truth, eps):
    lo, hi = magnitude._ln_fixed(m.terms, width)
    return lo / mp.mpf(2) ** width - eps <= truth <= hi / mp.mpf(2) ** width + eps


_grown = _recipe.map(lambda r: _answer(_grow, r, Fraction)).filter(
    lambda m: m is not IndistinguishableError)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_part, _grown), st.one_of(_part, _grown))
@example(aggregate_bounds(5, 3)["L2"], aggregate_bounds(6, 3)["L2"])
@example(sum_of(exp_of(10**12), exact(10**6)), sum_of(exp_of(10**12), exact(10**6 - 1)))
@example(sum_of(exact(2**100), exact(1)), sum_of(exact(2**100), exact(2)))
# log2 e^104 = 150.04: at width 144, 2^8 lies 142 bits down and keeps its interval,
# e^(1/2) lies 149 bits down and is buried
@example(sum_of(exp_of(104), exact(2**8), exp_of(Fraction(1, 2))), exp_of(104))
def test_burying_a_term_changes_no_interval_count_or_verdict(a, b):
    # a term width + 2 bits under the top is buried; no term's own interval is
    # computed, yet each answer is the one every term's interval gives
    if a.terms:
        with mp.workdps(60):
            truth = mp.ln(_mp_value(a))
            eps = mp.mpf(10) ** -35  # far above mpmath's rounding of a log below 10^14
            # width 17 is ln_interval's least, where terms 19 bits down are buried
            for width in (17, 80) + magnitude._WIDTHS[:2]:
                assert _ln_holds(a, width, truth, eps), width
        # on the ladder a buried term's e^(x - m) was (0, 1) all along: the same interval
        for width in magnitude._WIDTHS[:2]:
            assert magnitude._ln_fixed(a.terms, width) == naive_ln_fixed(a.terms, width)
    count, verdict = _answer(digit_count, a), _answer(compare, a, b)
    with mock.patch.object(magnitude, "_ln_fixed", naive_ln_fixed):
        assert _answer(digit_count, a) == count
        assert _answer(compare, a, b) == verdict


def test_rendering_a_bound_table_runs_no_series_on_a_buried_exact_term():
    table = aggregate_bounds(5, 3)
    tails = {label: [c for c, powers, q in table[label].terms if not powers and not q]
             for label in ("L2", "L4", "CV", "FPLA", "L", "Q")}
    assert all(len(c) == 1 for c in tails.values())
    with mock.patch.object(magnitude, "_ln_int_fixed", wraps=magnitude._ln_int_fixed) as ln_int:
        bound_rows(5, 3)
    asked = {call.args[0] for call in ln_int.call_args_list}
    assert asked and not asked & {c for (c,) in tails.values()}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), _part)
@example(2, power(exact(2), 4 * 10**6))
# 2 * 2 * 4^k folds to 4^(k+1) and meets 2 * 4^(k+1): 2 * (2 * 4^k + 4^(k+1)) = 3 * 4^(k+1)
@example(2, sum_of(prod_of(exact(2), power(exact(4), 2 * 10**6)), power(exact(4), 2 * 10**6 + 1)))
@example(6, sum_of(power(exact(2), 4 * 10**6), power(exact(3), 4 * 10**6), exact(5)))
def test_an_integer_factor_gives_the_product_multiplied_out(k, m):
    want = naive_prod_terms(exact(k), m)
    assert prod_of(exact(k), m).terms == want
    assert prod_of(m, exact(k)).terms == want
