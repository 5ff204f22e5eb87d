"""Tests for the magnitude engine.

The interval endpoints must always bracket the true logarithm, and every
frozen constant here was computed independently (mpmath at 60+ digits, or
direct integer arithmetic) before the engine existed.
"""

import contextlib
import json
import random
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from p1dyn import magnitude
from p1dyn.bounds import BOUND_ORDER, aggregate_bounds, unit_equation_bound
from p1dyn.cli import main
from p1dyn.magnitude import (
    Comparison,
    Exact,
    ExpOf,
    IndistinguishableError,
    MagnitudeInputError,
    MaxOf,
    Power,
    Prod,
    Sum,
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
    _ln_fixed,
    _ln_int_fixed,
)
from p1dyn.report import render_magnitude

from naive import ladder_compare, naive_key


def test_int_digits_matches_str():
    rng = random.Random(11)
    cases = [0, 1, 9, 10, 99, 100, 10**12 - 1, 10**12, 7**100]
    cases += [rng.randrange(10**rng.randrange(1, 60)) for _ in range(200)]
    for v in cases:
        assert int_digits(v) == len(str(v))


def test_constructor_canonical_forms():
    assert exp_of(0) == Exact(1)
    assert power(exact(5), 0) == Exact(1)
    assert power(exact(2), 16) == Exact(65536)
    assert power(exact(2), 1) == Exact(2)
    assert power(exp_of(3), 4) == ExpOf(Fraction(12))
    assert power(power(exact(10), 2 * 10**6), 3) == Power(Exact(10), 6 * 10**6)
    # too large to materialize stays symbolic
    big = power(exact(2), 2**77)
    assert isinstance(big, Power)

    assert prod_of(exact(6), exact(7)) == Exact(42)
    assert prod_of(exp_of(2), exp_of(3)) == ExpOf(Fraction(5))
    assert prod_of(exact(0), exp_of(10**9)) == Exact(0)
    assert sum_of(exact(2), exact(3)) == Exact(5)
    assert sum_of(exact(0), exp_of(4)) == ExpOf(Fraction(4))
    # identical symbolic parts group into a scalar multiple
    s = sum_of(exp_of(4), exp_of(4), exp_of(4))
    assert s == prod_of(exact(3), exp_of(4))
    # and merge with the scalar multiples of the same core
    e = exp_of(1)
    four_e = sum_of(e, e, prod_of(exact(2), e))
    assert four_e == prod_of(exact(4), e)
    assert compare(four_e, prod_of(exact(4), e)) is Comparison.EQUAL
    assert sum_of(e, prod_of(exact(2), e), prod_of(exact(3), e)) == prod_of(exact(6), e)
    t = power(exact(10), 2 * 10**6)
    assert sum_of(prod_of(e, t), prod_of(exact(2), e, t)) == prod_of(exact(3), e, t)
    assert sum_of(e, prod_of(exact(2), e, t)) == Sum((e, prod_of(exact(2), e, t)))
    # order of construction never matters
    assert sum_of(exact(2), exp_of(5)) == sum_of(exp_of(5), exact(2))
    assert prod_of(exact(3), exp_of(5), exact(4)) == prod_of(exact(12), exp_of(5))

    assert max_of(exact(3), exact(9)) == Exact(9)
    assert max_of(exact(0), exp_of(7)) == ExpOf(Fraction(7))
    assert max_of(exp_of(7), exp_of(7)) == ExpOf(Fraction(7))

    with pytest.raises(MagnitudeInputError):
        exact(-1)
    with pytest.raises(MagnitudeInputError):
        exp_of(Fraction(-1, 2))
    with pytest.raises(MagnitudeInputError):
        power(exact(2), -3)
    # exponents are exact: no float ever enters a magnitude
    for bad_power in ((exp_of(3), 1.5), (exact(2), 2.5), (exact(2), Fraction(2))):
        with pytest.raises(MagnitudeInputError):
            power(*bad_power)
    for bad_ln in (float("nan"), 2.5, "3"):
        with pytest.raises(MagnitudeInputError):
            exp_of(bad_ln)


def test_bools_and_precisions_that_are_not_positive_ints_are_refused():
    # a bool is an int, but a node would keep it and print it as True
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
    # one Exact part passes through as the same node, with its stored key and memo
    e, x = exact(7), power(exact(3), 2**80)
    assert sum_of(e) is e and prod_of(e) is e
    assert any(p is e for p in sum_of(e, x).parts)
    assert any(p is e for p in prod_of(e, x).parts)
    assert any(p is e for p in sum_of(x, sum_of(e, exp_of(3))).parts)
    # two constants still fold to one new node
    folded = prod_of(e, exact(2), x)
    assert folded == prod_of(exact(14), x) and not any(p is e for p in folded.parts)


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
    assert force_exact(exp_of(5)) is None
    assert force_exact(power(exact(2), 100)) == 2**100
    assert force_exact(Power(Exact(10), 10**7)) is None
    assert force_exact(sum_of(exact(1), power(exact(3), 7))) == 1 + 3**7
    assert force_exact(prod_of(exact(12), power(exact(7), 4))) == 12 * 7**4
    assert force_exact(sum_of(exact(1), exp_of(2))) is None
    assert force_exact(max_of(exact(5), power(exact(2), 10))) == 1024
    # the max is an unforcible exponential: refuse honestly
    assert force_exact(max_of(exact(5), exp_of(3))) is None


def test_force_exact_rejects_non_magnitudes():
    with pytest.raises(MagnitudeInputError):
        force_exact(5)


def test_power_folds_every_integer_within_the_ceiling():
    # 2^(2*10^6) has 602,060 digits: inside the ceiling, so it is built as
    # Exact even though bit_length * exponent overestimates it twofold
    m = power(exact(2), 2 * 10**6)
    assert isinstance(m, Exact)
    assert force_exact(m) == 2 ** (2 * 10**6)
    assert isinstance(power(exact(2), 4 * 10**6), Power)


_leaf = st.one_of(
    st.integers(0, 10**6).map(exact),
    st.fractions(min_value=0, max_value=60, max_denominator=8).map(exp_of),
)
_sum = st.lists(_leaf, min_size=1, max_size=3).map(lambda ps: sum_of(*ps))
_part = st.one_of(
    _leaf,
    _sum,
    st.tuples(st.one_of(_leaf, _sum), st.integers(0, 4)).map(lambda t: power(*t)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_part, min_size=1, max_size=5), st.data())
def test_max_of_decides_dominance_at_construction(parts, data):
    m = max_of(*parts)
    assert max_of(*data.draw(st.permutations(parts))) == m
    for p in parts:
        # a comparison may fail to separate, but never proves the max smaller
        with contextlib.suppress(IndistinguishableError):
            assert compare(m, p) is not Comparison.LESS
    if all(isinstance(p, Exact) for p in parts):
        assert m == Exact(max(p.value for p in parts))
    assert (force_exact(m) is not None) == isinstance(m, Exact)


def _mp_value(m):
    if isinstance(m, Exact):
        return mp.mpf(m.value)
    if isinstance(m, ExpOf):
        return mp.exp(mp.mpf(m.ln.numerator) / m.ln.denominator)
    if isinstance(m, Power):
        return _mp_value(m.base) ** m.exponent
    values = [_mp_value(p) for p in m.parts]
    if isinstance(m, MaxOf):
        return max(values)
    return mp.fsum(values) if isinstance(m, Sum) else mp.fprod(values)


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
        try:
            verdict = compare(a, b)
        except IndistinguishableError:
            return
        if verdict is Comparison.LESS:
            assert va <= vb * (1 + eps)
        elif verdict is Comparison.GREATER:
            assert vb <= va * (1 + eps)
        else:
            assert abs(va - vb) <= eps * va


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
    # s = e^(30^15) + 6 e^(18^9) + c exceeds e^(30^15) by a relative amount
    # around e^(-10^22); no logarithmic method can separate that, and the
    # engine must say so instead of guessing
    s = sum_of(exp_of(30**15), prod_of(exact(6), exp_of(18**9)), exact(2191558))
    with pytest.raises(IndistinguishableError):
        compare(s, exp_of(30**15))


def test_digit_count_exact_values():
    assert digit_count(exact(0)) == 1
    assert digit_count(exact(999)) == 3
    assert digit_count(exact(1000)) == 4
    assert digit_count(power(exact(2), 32)) == 10


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
    assert digit_count(power(sum_of(exp_of(10), exp_of(9)), 20)) == 90


def test_close_head_sums_pin_their_digit_counts():
    # heads less than 1 apart: both ends are bounded in full, so the interval
    # narrows as the precision grows and the count is pinned
    probe = power(sum_of(exp_of(Fraction(215, 4)), exp_of(Fraction(382, 7))), 4)
    ends = (Fraction(215, 4), Fraction(382, 7))
    with mp.workdps(80):
        truth = 4 * mp.ln(mp.fsum(mp.exp(mp.mpf(q.numerator) / q.denominator) for q in ends))
        assert int(mp.floor(truth / mp.ln(10))) + 1 == 96  # log10 = 95.4335
        widths = []
        for prec in (64, 256, 1024):
            lo, hi = ln_interval(probe, prec)
            assert mp.mpf(lo.numerator) / lo.denominator <= truth
            assert truth <= mp.mpf(hi.numerator) / hi.denominator
            widths.append(hi - lo)
    assert widths[2] < widths[1] < widths[0] < Fraction(1, 2**40)
    assert digit_count(probe) == 96
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
    parts = leaves + [exact(extra)]
    with mp.workdps(80):
        log10 = k * mp.log10(mp.fsum(_mp_value(p) for p in parts))
        assume(abs(log10 - mp.nint(log10)) > mp.mpf(10) ** -30)
        want = int(mp.floor(log10)) + 1
    assert digit_count(power(sum_of(*parts), k)) == want


def test_digit_count_symbolic_power_matches_oracle():
    mp.mp.dps = 50
    e = 2**24
    want = int(mp.floor(e * mp.log(2, 10))) + 1
    got = digit_count(Power(Exact(2), e))
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


def _rebuild(m, flip=False):
    """The same tree from new nodes with empty memos; flip reverses every parts tuple."""
    if isinstance(m, Exact):
        return Exact(m.value)
    if isinstance(m, ExpOf):
        return ExpOf(m.ln)
    if isinstance(m, Power):
        return Power(_rebuild(m.base, flip), m.exponent)
    parts = tuple(_rebuild(p, flip) for p in m.parts)
    return type(m)(parts[::-1] if flip else parts)


def _nodes(m):
    yield m
    if isinstance(m, Power):
        yield from _nodes(m.base)
    elif isinstance(m, (Sum, Prod, MaxOf)):
        for p in m.parts:
            yield from _nodes(p)


def _built_from(children):
    parts = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        parts.map(lambda ps: sum_of(*ps)),
        parts.map(lambda ps: prod_of(*ps)),
        parts.map(lambda ps: max_of(*ps)),
        st.tuples(children, st.integers(0, 3)).map(lambda t: power(*t)),
    )


def _by_hand_from(children):
    # every node exceeds each of its parts but MaxOf's largest, and no
    # constructor runs above a hand-built node: a pair of different keys and
    # equal values, which escalates compare to its ceiling, is rare
    parts = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        st.tuples(children, st.integers(2, 3)).map(lambda t: Power(*t)),
        parts.map(Sum),
        parts.map(Prod),
        parts.map(MaxOf),
    )


_leaf_above_one = st.one_of(
    st.integers(2, 10**6).map(exact),
    st.fractions(min_value=0, max_value=60, max_denominator=8).filter(bool).map(exp_of),
)
_built = st.recursive(_leaf_above_one, _built_from, max_leaves=6)
_one_by_hand = st.one_of(_built, _by_hand_from(_built))
_tree = st.one_of(_one_by_hand, _by_hand_from(_one_by_hand))  # up to two hand-built levels


@settings(max_examples=100, deadline=None)
@given(_tree, _tree, st.data())
def test_stored_keys_match_the_naive_oracle(a, b, data):
    twin, mirror = _rebuild(a), _rebuild(a, flip=True)
    for m in (a, b, twin, mirror):
        for node in _nodes(m):
            assert node._key == naive_key(node)
    assert twin is not a and twin == a and hash(twin) == hash(a)
    for m, n in ((a, b), (a, mirror), (b, mirror)):
        assert (m == n) == (naive_key(m) == naive_key(n))
        if m == n:
            assert hash(m) == hash(n)
    parts = [a, b, twin]
    # max_of visits its parts in canonical order, so its answer is order-free
    # at any precision ceiling; a low one keeps undecided comparisons cheap
    with mock.patch.object(magnitude, "_WIDTHS", magnitude._WIDTHS[:2]):  # ceiling 256
        for build in (sum_of, prod_of, max_of):
            m = build(*parts)
            assert m._key == naive_key(m)
            assert build(*data.draw(st.permutations(parts))) == m


def _answer(fn, *args):
    try:
        return fn(*args)
    except IndistinguishableError:
        return IndistinguishableError


# heads less than 1 apart; 10^95 against 10^95 + 1, so compare escalates to 512 bits
_CLOSE_HEADS = power(sum_of(exp_of(Fraction(215, 4)), exp_of(Fraction(382, 7))), 4)


@settings(max_examples=80, deadline=None)
@given(_built, st.one_of(st.none(), _built), st.permutations(range(3)))
@example(_CLOSE_HEADS, None, [0, 1, 2])
@example(_CLOSE_HEADS, None, [2, 1, 0])
@example(_CLOSE_HEADS, None, [1, 2, 0])
def test_memo_never_changes_an_answer(a, b, order):
    if b is None:
        b = sum_of(a, exact(1))  # the larger a, the further compare escalates
    steps = [(compare, a, b), (digit_count, a), (ln_interval, a, 256)]
    answers = {i: _answer(*steps[i]) for i in order}  # each fills the memos its own way
    assert answers[0] == _answer(compare, _rebuild(a), _rebuild(b))
    assert answers[1] == _answer(digit_count, _rebuild(a))
    assert answers[2] == ln_interval(_rebuild(a), 256)
    for width in (80, 144, 1040, 144, 80):
        for m in (a, b):
            assert _ln_fixed(m, width) == _ln_fixed(_rebuild(m), width)
            assert m._ln == (width, _ln_fixed(m, width))  # the slot holds the last width


def test_every_node_keeps_one_interval_at_the_last_width_asked(tmp_path):
    def widths(*roots):
        return {None if m._ln is None else m._ln[0] for root in roots for m in _nodes(root)}

    tables = [aggregate_bounds(d, s) for s in range(1, 17) for d in range(2, 34)]
    for table in tables:
        for label in BOUND_ORDER:
            digit_count(table[label])
    for text in ("z^2-29/16", "[X^3+2*Y^3:X*Y^2]"):
        out = tmp_path / "report.json"
        assert main(["analyze", "--map", text, "--height", "1024", "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        tables.append(aggregate_bounds(report["map"]["degree"], report["s"]))  # the cached table
    # every digit count of the grid and of both reports is decided at the first width
    assert widths(*(m for table in tables for m in table.values())) <= {None, 144}
    probe = _rebuild(_CLOSE_HEADS)
    assert compare(probe, sum_of(probe, exact(1))) is Comparison.LESS
    assert widths(probe) == {512 + 16}  # the comparison escalated to 512 bits
    for prec in [128 << k for k in range(7)] + [20 + 50 * k for k in range(12)]:
        ln_interval(probe, prec)
        assert widths(probe) == {prec + 16}


@settings(max_examples=100, deadline=None)
@given(_tree)
def test_stored_log2_brackets_hold_the_value(m):
    with mp.workdps(60):
        eps = mp.mpf(10) ** -40  # far above mpmath's rounding at 60 digits
        for node in _nodes(m):
            lo, hi = node._log2  # no zero lies in a _tree, so every node has one
            truth = mp.log(_mp_value(node), 2)
            assert lo - eps <= truth <= hi + eps, node


def test_log2_brackets_of_powers_of_two_and_the_unit_equation_constants():
    assert Exact(1)._log2 == (0, 0)
    for k in range(2, 300):
        assert Exact(2**k)._log2 == (k, k)
        assert Exact(2**k + 1)._log2 == (k, k + 1)
        assert Exact(2**k - 1)._log2 == (k - 1, k)
    for s in range(1, 17):
        e = 2**77 * s  # the exponent of FPLA's head
        assert power(exact(2), e)._log2 == (e, e)
    # q / ln 2 just above 1 and just below 1: each end rounds outward past the integer
    l2_lo, l2_hi = magnitude._ln2_fixed(144)
    assert ExpOf(Fraction(l2_hi, 1 << 144))._log2 == (1, 2)
    assert ExpOf(Fraction(l2_lo, 1 << 144))._log2 == (0, 1)
    lo, hi = unit_equation_bound(5, 16)._log2
    assert hi - lo <= 2
    with mp.workdps(60):
        assert lo <= mp.mpf(30**15 * 76) / mp.ln(2) <= hi
    # no bracket where a zero lies at or below a node, or for a negative exponent built by hand
    assert exact(0)._log2 is None
    assert Sum((Exact(0), exp_of(3)))._log2 is None
    assert Power(Prod((Exact(0), exp_of(2))), 2)._log2 is None
    assert ExpOf(Fraction(-1))._log2 is None
    assert MaxOf((ExpOf(Fraction(-1)), exact(3)))._log2 is None


@settings(max_examples=100, deadline=None)
@given(_tree, _tree)
@example(_CLOSE_HEADS, sum_of(_CLOSE_HEADS, exact(1)))  # brackets overlap: climbs to 512 bits
@example(aggregate_bounds(2, 1)["CV"], unit_equation_bound(5, 1))  # a buried head: both refuse
@example(exact(8), Power(exact(2), 3))  # equal values, touching point brackets: both refuse
def test_brackets_never_change_a_verdict(a, b):
    # the oracle reads rebuilt trees, whose memos start empty
    assert _answer(compare, a, b) == _answer(ladder_compare, _rebuild(a), _rebuild(b))


# exponent leaves: integral ones are the most common, as in the bounds
_exponent = st.one_of(st.integers(0, 10**12).map(Fraction),
                      st.fractions(min_value=0, max_value=60, max_denominator=8))
_recipe = st.recursive(
    st.one_of(_exponent.map(lambda q: ("exp", q)),
              st.integers(0, 10**6).map(lambda v: ("exact", v))),
    lambda children: st.one_of(
        st.tuples(st.sampled_from((sum_of, prod_of, max_of)),
                  st.lists(children, min_size=1, max_size=3)),
        st.tuples(st.just(power), children, st.integers(0, 3)),
    ),
    max_leaves=6,
)


def _grow(recipe, given_as):
    """The tree of a recipe, each exponent leaf q built as exp_of(given_as(q))."""
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
@example((power, (sum_of, [("exp", Fraction(7)), ("exact", 2)]), 3))
def test_an_integral_exponent_builds_the_same_nodes_as_an_int_and_as_a_fraction(recipe):
    as_int = _grow(recipe, lambda q: q.numerator if q.denominator == 1 else q)
    as_fraction = _grow(recipe, Fraction)
    for m, n in zip(_nodes(as_int), _nodes(as_fraction), strict=True):
        assert (m._key, m._hash, m._log2) == (n._key, n._hash, n._log2)
        for width in (80, 144):
            assert _ln_fixed(m, width) == _ln_fixed(n, width)
        if isinstance(m, ExpOf):
            # sums and multiples of integral exponents stay ints, and only they do
            for node in (m, n):
                assert (type(node.ln) is int) == (node.ln.denominator == 1), node
    assert _answer(digit_count, as_int) == _answer(digit_count, as_fraction)
    assert render_magnitude(as_int) == render_magnitude(as_fraction)
