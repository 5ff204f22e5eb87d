"""Frozen values for the explicit bounds.

Every number below was computed by hand or with mpmath before bounds.py
existed: direct integer arithmetic for the materializable ones and
60-digit logarithms for the astronomically large ones.
"""

import cProfile
import fractions
import pstats
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive import naive_bound_table
from p1dyn import bounds, magnitude
from p1dyn.bounds import (
    BOUND_ORDER,
    BoundInputError,
    aggregate_bounds,
    bound_table,
    unit_equation_bound,
)
from p1dyn.magnitude import (
    Comparison,
    compare,
    digit_count,
    exact,
    exp_of,
    force_exact,
    ln_interval,
)
from p1dyn.mapparse import parse_map
from p1dyn.report import format_magnitude, render_magnitude
from p1dyn.verify import run_suite


def test_two_term_values():
    assert force_exact(unit_equation_bound(2, 1)) == 65536
    assert force_exact(unit_equation_bound(2, 2)) == 2**32
    assert force_exact(unit_equation_bound(2, 5)) == 2**80


def test_n_term_exponents_are_exact():
    # ln C(3, 1) = 18^9 * 1 and ln C(5, 1) = 30^15 * 1, exactly
    c3 = unit_equation_bound(3, 1)
    assert c3 == exp_of(18**9)
    assert c3.ln == Fraction(18**9)
    assert c3.ln == 198359290368
    c5 = unit_equation_bound(5, 1)
    assert c5.ln == Fraction(30**15)
    # s = 2 doubles the linear factor n*s+1-n from 1 to n+1-n+n = 1+n
    assert unit_equation_bound(3, 2).ln == 18**9 * 4
    assert unit_equation_bound(5, 2).ln == 30**15 * 6


def test_n_term_digit_counts_frozen():
    assert digit_count(unit_equation_bound(3, 1)) == 86146345242
    assert digit_count(unit_equation_bound(5, 1)) == 6231651131442943472547


def test_tail_bound_fixed_cycle():
    # d=2, s=1: (2-1)*(1 + 2*(1+65536)) = 131075
    assert force_exact(bound_table(2, 1)["L1"]) == 131075
    # d=3, s=1: 2*(1 + 3*65537) = 393224
    assert force_exact(bound_table(3, 1)["L1"]) == 393224


def test_tail_bound_three_cycle():
    # ((1+3*65536)*65536+1)*(2-1), worked out by hand
    assert force_exact(bound_table(2, 1)["L3"]) == 12884967425
    assert force_exact(bound_table(3, 1)["L3"]) == 2 * 12884967425


def test_tail_bound_two_cycle_structure():
    l2 = bound_table(2, 1)["L2"]
    # both branches carry e^(18^9); the B*(B+C3+3) branch dominates
    mp.mp.dps = 40
    iv = ln_interval(l2, 64)
    want = 18**9 + mp.ln(65536)  # ln of (d-1)*(1+B*(B+C3+3)) ~ ln(B*C3)
    lo = mp.mpf(iv[0].numerator) / iv[0].denominator
    hi = mp.mpf(iv[1].numerator) / iv[1].denominator
    assert lo <= want <= hi + 1  # within the coarse dyadic corrections
    # log10(L2) = 18^9/ln10 + 16 log10 2 = ...241.089 + 4.816, so four more digits
    assert digit_count(l2) == digit_count(unit_equation_bound(3, 1)) + 4


def test_tail_bound_fixed_and_double():
    l4 = bound_table(2, 1)["L4"]
    c3 = unit_equation_bound(3, 1)
    # L4 = (C3+3)*(d-1) = C3+3 for d=2: same digit count as C3 within 1
    assert abs(digit_count(l4) - digit_count(c3)) <= 1


def test_periodic_bounds_materialize():
    table = bound_table(2, 1)
    assert force_exact(table["T"]) == 28812
    assert force_exact(table["TPLA"]) == 7203
    assert force_exact(bound_table(2, 2)["T"]) == 12 * 7**8
    assert force_exact(bound_table(2, 2)["T"]) == 69177612


def test_four_point_bound_stays_symbolic():
    fpla = bound_table(2, 1)["FPLA"]
    assert force_exact(fpla) is None
    # dominated by 2^(2^77): digits = floor(2^77 * log10 2) + 1
    mp.mp.dps = 50
    want = int(mp.floor(mp.mpf(2) ** 77 * mp.log(2, 10))) + 1
    assert abs(digit_count(fpla) - want) <= 1


def test_preperiodic_bound_dominated_by_c5():
    q = bound_table(2, 1)["Q"]
    assert digit_count(q) == 6231651131442943472547
    assert compare(q, exact(9)) is Comparison.GREATER
    lng = bound_table(2, 1)["L"]
    assert digit_count(lng) == 6231651131442943472547


def test_monotone_in_place_count():
    # every bound grows when s does; d-growth is additively buried under
    # e^(30^15) for the aggregates, so only log-separable cases are checked
    for label in BOUND_ORDER:
        a = bound_table(2, 1)[label]
        b = bound_table(2, 2)[label]
        assert compare(a, b) is Comparison.LESS, label


def test_monotone_in_degree_where_separable():
    for label in ("L1", "L2", "L3", "L4"):
        a = bound_table(2, 1)[label]
        b = bound_table(3, 1)[label]
        assert compare(a, b) is Comparison.LESS, label


def test_every_label_grows_with_s_and_the_tail_caps_with_d():
    # CV, FPLA, L and Q add a d-term below 2^-8192 of their head, which compare
    # resolves by cancelling the parts the two sums share; B, C3, C5, T and TPLA
    # are d-free
    d_free = ("B", "C3", "C5", "T", "TPLA")
    for s in range(1, 9):
        for d in range(2, 13):
            table, next_s = aggregate_bounds(d, s), aggregate_bounds(d, s + 1)
            for label in BOUND_ORDER:
                assert compare(table[label], next_s[label]) is Comparison.LESS, (label, d, s)
            next_d = aggregate_bounds(d + 1, s)
            for label in ("L1", "L2", "L3", "L4", "CV", "FPLA", "L", "Q"):
                assert compare(table[label], next_d[label]) is Comparison.LESS, (label, d, s)
            for label in d_free:
                assert compare(table[label], next_d[label]) is Comparison.EQUAL, (label, d, s)


def test_degree_growth_of_aggregates_is_buried():
    # Q(3,1) - Q(2,1) is a six-digit integer sitting under e^(30^15); the two
    # sums share that head, so compare cancels it and decides on what is left
    assert compare(bound_table(2, 1)["Q"], bound_table(3, 1)["Q"]) is Comparison.LESS
    # CV is C5 plus positive terms: the shared head cancels, and the rest decides
    assert compare(bound_table(2, 1)["CV"], unit_equation_bound(5, 1)) is Comparison.GREATER
    assert compare(unit_equation_bound(5, 1), bound_table(2, 1)["CV"]) is Comparison.LESS


@pytest.mark.parametrize("d, s", [(2, 1), (3, 2)])
def test_long_cycle_and_preperiodic_bounds_share_their_dominant_part(d, s):
    # both maxima are dominated by T + CV, which max_of keeps alone
    t = bound_table(d, s)
    assert compare(t["L"], t["Q"]) is Comparison.EQUAL


def test_table_labels():
    table = bound_table(2, 1)
    assert sorted(table) == [
        "B", "C3", "C5", "CV", "FPLA", "L", "L1", "L2", "L3", "L4", "Q", "T", "TPLA",
    ]
    # the JSON bounds object lists its keys in the table's order
    assert list(table) == list(BOUND_ORDER)
    with pytest.raises(TypeError):
        aggregate_bounds(2, 1)["Q"] = exact(0)
    table["Q"] = exact(0)
    del table["B"]
    assert bound_table(2, 1) == dict(aggregate_bounds(2, 1))
    assert list(bound_table(2, 1)) == list(BOUND_ORDER)


def test_input_validation():
    for bad in ((1, 1), (2, 0), (0, 3)):
        with pytest.raises(BoundInputError):
            aggregate_bounds(*bad)
        with pytest.raises(BoundInputError):
            bound_table(*bad)
    with pytest.raises(BoundInputError):
        unit_equation_bound(1, 1)
    with pytest.raises(BoundInputError):
        unit_equation_bound(3, 0)
    # a cached table of (2, 1), or the cached terms of s = 1, must not answer for 2.0 or 1.0
    unit_equation_bound(2, 1), aggregate_bounds(2, 1), bound_table(2, 1)
    for build in (unit_equation_bound, aggregate_bounds, bound_table):
        for bad in ((2.0, 1), (2, 1.0)):
            with pytest.raises(BoundInputError):
                build(*bad)


def test_bool_degrees_and_place_counts_are_refused():
    # True is an int: it must not stand for 1, nor find the cached table of s = 1
    aggregate_bounds(2, 1), bound_table(2, 1)
    for build in (unit_equation_bound, aggregate_bounds, bound_table):
        for bad in ((2, True), (True, 1), (3, False)):
            with pytest.raises(BoundInputError):
                build(*bad)


# d log-uniform in 2..10^6: a bit length first, then d of about that length
_DEGREES = st.integers(1, 20).flatmap(lambda k: st.integers(max(2, 2**(k - 1)), min(10**6, 2**k)))


@settings(max_examples=100, deadline=None)
@given(_DEGREES, st.integers(1, 60))
def test_tables_equal_the_written_out_formulas(d, s):
    table, want = bound_table(d, s), naive_bound_table(d, s)
    assert list(table) == list(want)
    for label, m in table.items():
        assert m == want[label] and hash(m) == hash(want[label]), label


def test_every_degree_at_one_place_count_shares_its_d_free_nodes():
    bounds._table_at.cache_clear()
    aggregate_bounds.cache_clear()
    tables = [aggregate_bounds(d, 3) for d in range(2, 34)]
    assert bounds._table_at.cache_info().misses == 1
    for label in ("C3", "C5", "T"):
        assert all(t[label] is tables[0][label] for t in tables), label
    # both maxima keep the one T + CV value
    assert tables[0]["L"] is tables[0]["Q"]


def test_building_tables_and_verifying_compute_no_log_interval():
    # every max_of in a table and every count against its bound is decided by
    # the log2 brackets, so no log interval is made until a table is rendered
    bounds._table_at.cache_clear()
    aggregate_bounds.cache_clear()
    ln_fixed, computed = magnitude._ln_fixed, []

    def counting(terms, width):
        computed.append(width)
        return ln_fixed(terms, width)

    with mock.patch.object(magnitude, "_ln_fixed", counting):
        for s in range(1, 17):
            for d in range(2, 34):
                aggregate_bounds(d, s)
        assert computed == []
        bounds._table_at.cache_clear()
        aggregate_bounds.cache_clear()
        for text in ("z^2-29/16", "[X^3+2*Y^3:X*Y^2]", "z^3-z"):
            run_suite(parse_map(text), "all", height=64)
            assert computed == [], text


def test_grid_tables_hold_int_exponents_and_call_no_fractions_method():
    # every exponent the bounds build is an integer, kept as an int, so building
    # and rendering the grid adds, hashes and prints exponents in int arithmetic
    bounds._table_at.cache_clear()
    aggregate_bounds.cache_clear()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        tables = [aggregate_bounds(d, s) for s in range(1, 17) for d in range(2, 34)]
        for table in tables:
            for m in table.values():
                format_magnitude(m), render_magnitude(m)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    called = [name for (path, _, name) in stats if path == fractions.__file__]
    assert called == []

    found = [q for table in tables for m in table.values() for _, _, q in m.terms if q]
    assert found and all(type(q) is int for q in found)
