"""Tests for the verification checks and distance-set enumerations.

Set enumerations are compared against the brute-force oracle in naive.py,
which scans primes one at a time instead of factoring; frozen expectations
were derived by hand before the implementation existed.
"""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from naive import (known_answer_maps, naive_evaluate, naive_four_point_members,
                   naive_non_expansion, naive_three_point_members, naive_ultrametric)
from p1dyn import intarith, verify
from p1dyn.intarith import is_prime
from p1dyn.mapparse import parse_map
from p1dyn.orbits import enumerate_preperiodic
from p1dyn.projline import (INFINITY, ProjPoint, cross_product, distance_support,
                             from_rational, point_sort_key, points_up_to_height)
from p1dyn.ratmap import (DegenerateMapError, HomogPair, PlaceSet, escape_threshold,
                          reduction_profile)
from p1dyn.report import verification_line
from p1dyn.verify import (
    VerificationInputError,
    check_chain_lemma,
    check_critical_distance,
    check_main_theorems,
    check_non_expansion,
    check_tail_count_lemmas,
    check_tail_periodic_distance,
    check_ultrametric,
    four_point_set,
    run_suite,
    three_point_set,
)

S_INF = PlaceSet(frozenset())
S_INF_2 = PlaceSet(frozenset({2}))


def pt(v) -> ProjPoint:
    return INFINITY if v == "inf" else from_rational(v)


def params_dict(report):
    return dict(report.parameters)


def test_ultrametric_examples():
    r = check_ultrametric({ProjPoint(1, 1), ProjPoint(3, 1), ProjPoint(5, 1)})
    assert r.status == "PASS"
    r = check_ultrametric({pt(0), INFINITY, pt(1)})
    assert r.status == "PASS"
    with pytest.raises(VerificationInputError):
        check_ultrametric({pt(0), pt(1)})


def test_ultrametric_random_sets():
    rng = random.Random(17)
    grid = list(points_up_to_height(9))
    for _ in range(20):
        sample = rng.sample(grid, 6)
        assert check_ultrametric(sample).status == "PASS"


_GRID_9 = list(points_up_to_height(9))
_FAULT_PRIMES = (2, 3, 5, 7, 13, 101)


def _faulty_support(faults):
    """distance_support with the support of each listed |cross product| changed by one fault.

    ``faults`` maps |cross_product(a, b)| to (op, prime, k): "bump" adds k to
    the prime's value (inserting it when absent), "delete" drops the support's
    (k mod size)-th prime, "zero" stores an explicit 0 for the prime.  A
    faulty support stays a function of |cross product|, as a real one is.
    """
    def faulty(a, b):
        support = dict(distance_support(a, b))
        fault = faults.get(abs(cross_product(a, b)))
        if fault is not None:
            op, prime, k = fault
            if op == "bump":
                support[prime] = support.get(prime, 0) + k
            elif op == "delete" and support:
                del support[sorted(support)[k % len(support)]]
            elif op == "zero":
                support[prime] = 0
        return support

    return faulty


@st.composite
def _points_and_faults(draw):
    pts = draw(st.lists(st.sampled_from(_GRID_9), min_size=3, max_size=30, unique=True))
    fault = st.tuples(st.sampled_from(("bump", "delete", "zero")),
                      st.sampled_from(_FAULT_PRIMES), st.integers(1, 4))
    crosses = st.tuples(st.sampled_from(pts), st.sampled_from(pts)).filter(
        lambda ab: ab[0] != ab[1]).map(lambda ab: abs(cross_product(*ab)))
    return pts, draw(st.dictionaries(crosses, fault, max_size=6))


@settings(max_examples=60, deadline=None)
@given(_points_and_faults())
def test_ultrametric_matches_naive_walk(case):
    pts, faults = case
    faulty = _faulty_support(faults)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "distance_support", faulty)
        got = check_ultrametric(pts)
    assert got == naive_ultrametric(pts, faulty)


# non-expansion tests at the verify-ref maps: (pair, good prime of the pair's support)
_NON_EXPANSION_CHECKED = {
    "[X^2-Y^2:X*Y]": "269", "[X^3+2*Y^3:X*Y^2]": "182", "z^2-1": "269", "z^2+1": "269",
    "z^2-21/16": "262", "z^2-2": "269", "z^3-z": "269", "z^2-29/16": "262", "z^2": "269",
    "[2*X^2-Y^2:X^2+Y^2]": "207", "z^2-3/4": "182",
}


def test_run_suite_pins_verify_reference_counts():
    # the maps and verdict lists of perfbench's verify-ref workload
    expected = json.loads(
        (Path(__file__).parent.parent / "perfbench" / "expected.json").read_text())["verify"]
    assert expected.keys() == _NON_EXPANSION_CHECKED.keys()
    for text, verdicts in expected.items():
        reports = run_suite(parse_map(text), "all", height=64)
        assert [f"{r.status} {r.check_name}" for r in reports] == verdicts, text
        # 28 sample points for these two, 24 for the others
        want = "26490" if text in ("z^2-29/16", "z^2-21/16") else "15570"
        assert params_dict(reports[0])["checked"] == want, text
        assert params_dict(reports[1])["checked"] == _NON_EXPANSION_CHECKED[text], text


@st.composite
def _maps_points_images(draw):
    """A map of degree 2 or 3, sample points, and their images, some replaced by wrong ones."""
    d = draw(st.integers(2, 3))
    coeffs = st.lists(st.integers(-5, 5), min_size=d + 1, max_size=d + 1)
    try:
        pair = HomogPair(draw(coeffs), draw(coeffs))
    except DegenerateMapError:
        reject()
    pts = draw(st.lists(st.sampled_from(_GRID_9), min_size=3, max_size=12, unique=True))
    images = {q: naive_evaluate(pair, q) for q in pts}
    seed = draw(st.none() | st.integers(0, 2**32))
    if seed is not None:
        rng = random.Random(seed)
        for q in rng.sample(pts, rng.randint(1, 3)):
            # half of the wrong images coincide with another point's image
            images[q] = rng.choice((images[rng.choice(pts)], rng.choice(_GRID_9)))
    return pair, pts, images, seed is not None


@settings(max_examples=150, deadline=None)
@given(_maps_points_images())
def test_non_expansion_matches_naive_union_rule(case):
    pair, pts, images, wrong = case
    profile = reduction_profile(pair)
    with pytest.MonkeyPatch.context() as mp:
        if wrong:
            mp.setattr(verify, "evaluate", lambda _pair, q: images[q])
        got = check_non_expansion(pair, profile, pts)
    want, source_checked = naive_non_expansion(pts, images.__getitem__, profile.bad_primes)
    assert (got.status, got.witnesses) == (want.status, want.witnesses)
    if got.status == "PASS":
        assert params_dict(got)["checked"] == str(source_checked)


def _assert_factored_once_per_cross_product(calls, pts):
    """Every call is a pair of pts, and each distinct |cross product| of those pairs is factored once."""
    pairs = {frozenset(ab) for ab in itertools.combinations(pts, 2)}
    assert {frozenset(ab) for ab in calls} <= pairs
    factored = [abs(cross_product(a, b)) for a, b in calls]
    assert len(factored) == len(set(factored))
    assert set(factored) == {abs(cross_product(a, b)) for a, b in pairs}


@pytest.mark.parametrize("text", ["z^2-29/16", "[X^2+2^8000*Y^2:X*Y]"])
def test_non_expansion_factors_only_source_pairs(monkeypatch, text):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return distance_support(a, b)

    monkeypatch.setattr(verify, "distance_support", counting)
    pair = parse_map(text)
    pts = list(points_up_to_height(4))
    check_non_expansion(pair, reduction_profile(pair), pts)
    _assert_factored_once_per_cross_product(calls, pts)
    calls.clear()
    report, = run_suite(pair, "nonexpansion", height=16)
    sample = {*points_up_to_height(4), *enumerate_preperiodic(pair, 16).preper}
    assert len(sample) == int(params_dict(report)["points"])
    _assert_factored_once_per_cross_product(calls, sample)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_GRID_9), min_size=1, max_size=30, unique=True),
       st.integers(9 * 10**8, 10**12), st.integers(1, 9))
def test_sample_table_factors_each_cross_product_once(grid, num, den):
    # one point above 10^8, so its cross products reach factorize's Miller-Rabin stage
    pts = sorted({*grid, from_rational(Fraction(num, den))}, key=point_sort_key)
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return distance_support(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "distance_support", counting)
        got_pts, supports = verify._sample_table(pts)
    assert got_pts == pts
    assert supports == [distance_support(a, b) for a, b in itertools.combinations(pts, 2)]
    _assert_factored_once_per_cross_product(calls, pts)


def test_non_expansion_proves_no_prime_twice(monkeypatch):
    # the primes non-expansion reads come from factorize, which proved them;
    # 10^9 + 7 gives cross products past 10^8, which Miller-Rabin proves
    pair = parse_map("z^2-29/16")
    profile = reduction_profile(pair)
    pts = [*points_up_to_height(4), pt(1000000007)]
    one_pair_per_cross = {abs(cross_product(a, b)): (a, b)
                          for a, b in itertools.combinations(pts, 2)}
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(intarith, "is_prime", counting)
    for a, b in one_pair_per_cross.values():
        distance_support(a, b)
    by_support = len(calls)
    calls.clear()
    check_non_expansion(pair, profile, pts)
    assert len(calls) == by_support > 0


def test_non_expansion_example():
    pair = parse_map("z^2-1")
    profile = reduction_profile(pair)
    pts = {pt(1), pt(3), pt(0), pt(-1), INFINITY}
    r = check_non_expansion(pair, profile, pts)
    assert r.status == "PASS"
    assert int(params_dict(r)["checked"]) > 0


def test_non_expansion_skips_bad_primes():
    pair = parse_map("z^2-29/16")
    profile = reduction_profile(pair)
    assert profile.bad_primes == (2,)
    # all involved cross products are powers of two, so nothing to check
    r = check_non_expansion(pair, profile, {pt("1/4"), pt("3/4")})
    assert r.status == "PASS"
    assert params_dict(r)["checked"] == "0"


def test_chain_lemma_golden():
    pair = parse_map("z^2-2")
    profile = reduction_profile(pair)
    assert profile.bad_primes == ()
    chain = [pt(0), pt(-2), pt(2)]
    r = check_chain_lemma(pair, profile, pt(2), chain)
    assert r.status == "PASS"
    assert params_dict(r)["checked"] == "1"
    assert any("1 = 1 <= 2" in w for w in r.witnesses)


def test_chain_lemma_rejects_bad_hypotheses():
    pair = parse_map("z^2-2")
    profile = reduction_profile(pair)
    with pytest.raises(VerificationInputError, match="not a fixed point"):
        check_chain_lemma(pair, profile, pt(0), [pt(0), pt(-2), pt(0)])
    with pytest.raises(VerificationInputError, match="breaks at position 0"):
        check_chain_lemma(pair, profile, pt(2), [pt(5), pt(-2), pt(2)])
    with pytest.raises(VerificationInputError, match="two points before"):
        check_chain_lemma(pair, profile, pt(2), [pt(-2), pt(2)])
    with pytest.raises(VerificationInputError, match="end at the fixed point"):
        check_chain_lemma(pair, profile, pt(2), [pt(0), pt(-2)])


def test_chain_lemma_reaches_fixed_point_early():
    # the chain may reach p0 before its last entry; those distances are infinite
    pair = parse_map("z^2-2")
    profile = reduction_profile(pair)
    r = check_chain_lemma(pair, profile, pt(2), [pt(0), pt(-2), pt(2), pt(2)])
    assert r.status == "PASS"
    assert params_dict(r)["checked"] == "3"
    assert "p=2: 1 = 1 <= inf for (0, 2)" in r.witnesses
    r = check_chain_lemma(pair, profile, pt(2), [pt(2), pt(2), pt(2)])
    assert r.status == "PASS"
    assert params_dict(r)["checked"] == "0"


def _bump_support(monkeypatch, a, b, prime, extra):
    """Makes verify see distance_support(a, b) with v_prime raised by extra."""
    def bumped(p, q):
        support = dict(distance_support(p, q))
        if {p, q} == {a, b}:
            support[prime] = support.get(prime, 0) + extra
        return support

    monkeypatch.setattr(verify, "distance_support", bumped)


def test_distance_checks_report_fail(monkeypatch):
    # d_2(1,3) = 1 becomes 5, so d_2(1,7) = 1 < min(d_2(1,3), d_2(3,7)) = 2; the
    # trio's cross products 2, 6 and 4 differ, so only the pair (1,3) is bumped
    _bump_support(monkeypatch, pt(1), pt(3), 2, 4)
    r = check_ultrametric({pt(1), pt(3), pt(7)})
    assert r.status == "FAIL"
    assert r.witnesses == ("d_2(1,7)=1 < min over 3 = 2",)
    assert verification_line(r).startswith("[FAIL] ultrametric: inequality violated")

    # 0 and -1 lie on the critical 2-cycle of z^2-1, at distance 0 everywhere
    pair = parse_map("z^2-1")
    _bump_support(monkeypatch, pt(0), pt(-1), 3, 1)
    r = check_critical_distance(enumerate_preperiodic(pair, 32), reduction_profile(pair))
    assert r.status == "FAIL"
    assert r.witnesses == ("d_p(-1,0) nonzero at good primes [3]",
                           "d_p(0,-1) nonzero at good primes [3]")
    assert verification_line(r).startswith("[FAIL] critical_distance")


def test_tail_periodic_golden_map():
    pair = parse_map("z^2-29/16")
    inv = enumerate_preperiodic(pair, 64)
    profile = reduction_profile(pair)
    r = check_tail_periodic_distance(inv, profile)
    assert r.status == "PASS"
    # 5 tails x 4 periodic points, each tail excluding exactly one
    assert params_dict(r)["checked"] == "15"
    assert "(5/4, 3/4) zero outside S" in r.witnesses
    # 1/4 reaches -1/4 after one full cycle length, so that pair is exempt;
    # -7/4 = image of 1/4 is not, and must be (and is) checked
    assert any("(-7/4, 1/4)" in w for w in r.witnesses)
    assert not any("(-1/4, 1/4)" in w for w in r.witnesses)


def test_tail_periodic_squaring_map():
    pair = parse_map("z^2")
    inv = enumerate_preperiodic(pair, 32)
    r = check_tail_periodic_distance(inv, reduction_profile(pair))
    assert r.status == "PASS"
    assert params_dict(r)["checked"] == "2"  # (0,-1) and (inf,-1); P=1 exempt


def test_critical_distance_examples():
    pair = parse_map("z^2")
    inv = enumerate_preperiodic(pair, 32)
    r = check_critical_distance(inv, reduction_profile(pair))
    assert r.status == "PASS"
    assert params_dict(r)["checked"] == "4"

    pair = parse_map("z^2-1")
    inv = enumerate_preperiodic(pair, 32)
    assert inv.per0 == frozenset({pt(0), pt(-1), INFINITY})
    r = check_critical_distance(inv, reduction_profile(pair))
    assert r.status == "PASS"
    assert params_dict(r)["checked"] == "6"


def test_three_point_set_golden():
    got = three_point_set(pt(0), pt(1), INFINITY, S_INF_2, height=50)
    assert got == {ProjPoint(2, 1), ProjPoint(1, 2), ProjPoint(-1, 1)}
    assert three_point_set(pt(0), pt(1), INFINITY, S_INF, height=50) == set()


def test_three_point_set_matches_oracle():
    got = three_point_set(pt(0), pt(1), INFINITY, S_INF_2, height=30)
    want = naive_three_point_members(pt(0), pt(1), INFINITY, {2}, 30)
    assert got == set(want)
    # an asymmetric configuration
    q = (pt(2), pt("1/3"), pt(-1))
    got = three_point_set(*q, PlaceSet(frozenset({3})), height=20)
    want = naive_three_point_members(*q, {3}, 20)
    assert got == set(want)


def test_three_point_set_targets():
    targets = {(0, 2): 1}
    got = three_point_set(pt(0), pt(1), INFINITY, S_INF, targets=targets, height=30)
    assert got == {ProjPoint(2, 1)}
    want = naive_three_point_members(pt(0), pt(1), INFINITY, set(), 30, targets=targets)
    assert got == set(want)


def test_three_point_set_validation():
    with pytest.raises(VerificationInputError, match="distinct"):
        three_point_set(pt(0), pt(0), pt(1), S_INF)
    with pytest.raises(VerificationInputError, match="out of range"):
        three_point_set(pt(0), pt(1), pt(2), S_INF, targets={(3, 5): 1})
    with pytest.raises(VerificationInputError, match="not prime"):
        three_point_set(pt(0), pt(1), pt(2), S_INF, targets={(0, 6): 1})
    with pytest.raises(VerificationInputError, match="place set"):
        three_point_set(pt(0), pt(1), pt(2), S_INF_2, targets={(0, 2): 1})
    with pytest.raises(VerificationInputError, match="nonnegative"):
        three_point_set(pt(0), pt(1), pt(2), S_INF, targets={(0, 5): -1})


def test_four_point_set_golden():
    got = four_point_set(pt(0), INFINITY, pt(1), pt(-1), S_INF, height=50)
    assert got == set()


def test_four_point_set_membership_example():
    # [2:1] satisfies the first equality at odd primes but fails the second
    # at p=3 (distance to 1 is 0, distance to -1 is 1)
    got = four_point_set(pt(0), INFINITY, pt(1), pt(-1), S_INF_2, height=12)
    assert ProjPoint(2, 1) not in got
    want = naive_four_point_members(pt(0), INFINITY, pt(1), pt(-1), {2}, 12)
    assert got == set(want)


def test_four_point_set_matches_oracle():
    q = (pt(0), INFINITY, pt(2), pt(-2))
    got = four_point_set(*q, S_INF_2, height=15)
    want = naive_four_point_members(*q, {2}, 15)
    assert got == set(want)
    with pytest.raises(VerificationInputError, match="distinct"):
        four_point_set(pt(0), pt(1), pt(1), pt(2), S_INF)


def test_set_enumeration_monotone_in_height():
    # no point has a height below 1, infinity included
    assert three_point_set(pt(0), pt(1), INFINITY, S_INF_2, height=0) == set()
    small = three_point_set(pt(0), pt(1), INFINITY, S_INF_2, height=10)
    mid = three_point_set(pt(0), pt(1), INFINITY, S_INF_2, height=25)
    big = three_point_set(pt(0), pt(1), INFINITY, S_INF_2, height=50)
    assert small <= mid <= big


def test_tail_count_lemmas_golden():
    pair = parse_map("z^2-29/16")
    inv = enumerate_preperiodic(pair, 64)
    r = check_tail_count_lemmas(inv, reduction_profile(pair))
    assert r.status == "PASS"
    assert any("period 3" in w and "5 tail points <= L3(2,2)" in w for w in r.witnesses)
    # fixed cycle at infinity and the 3-cycle; no 2-cycle so no L4 case
    assert params_dict(r)["checked"] == "2"


def test_tail_count_lemmas_mixed_configuration():
    pair = parse_map("z^2-1")
    inv = enumerate_preperiodic(pair, 32)
    r = check_tail_count_lemmas(inv, reduction_profile(pair))
    assert r.status == "PASS"
    # L1 for the fixed point, L2 for the 2-cycle, L4 since both exist
    assert params_dict(r)["checked"] == "3"
    assert any("L4" in w for w in r.witnesses)

    pair = parse_map("z^2")
    inv = enumerate_preperiodic(pair, 32)
    r = check_tail_count_lemmas(inv, reduction_profile(pair))
    assert r.status == "PASS"
    assert params_dict(r)["checked"] == "3"  # three fixed points, no 2-cycle


def test_main_theorems_golden_map():
    pair = parse_map("z^2-29/16")
    inv = enumerate_preperiodic(pair, 64)
    reports = {r.check_name: r for r in check_main_theorems(inv, reduction_profile(pair))}
    assert reports["preper_bound_Q"].status == "PASS"
    assert reports["preper_bound_L"].status == "PASS"
    assert reports["per_bound_three_tailish"].status == "PASS"
    assert reports["tail_bound_four_periodic"].status == "PASS"


def test_main_theorems_hypothesis_gates():
    pair = parse_map("z^2")
    inv = enumerate_preperiodic(pair, 32)
    reports = {r.check_name: r for r in check_main_theorems(inv, reduction_profile(pair))}
    assert reports["preper_bound_Q"].status == "PASS"
    assert reports["preper_bound_L"].status == "SKIPPED"
    three = reports["per_bound_three_tailish"]
    assert three.status == "PASS"
    assert any("7206" in w for w in three.witnesses)
    four = reports["tail_bound_four_periodic"]
    assert four.status == "SKIPPED"
    assert "3 periodic" in four.reason


def test_main_theorems_trivial_map():
    pair = parse_map("z^2+1")
    inv = enumerate_preperiodic(pair, 32)
    reports = {r.check_name: r for r in check_main_theorems(inv, reduction_profile(pair))}
    assert reports["preper_bound_Q"].status == "PASS"
    assert reports["preper_bound_L"].status == "SKIPPED"
    assert reports["per_bound_three_tailish"].status == "SKIPPED"
    assert reports["tail_bound_four_periodic"].status == "SKIPPED"


def _count_checks(text):
    pair = parse_map(text)
    inv = enumerate_preperiodic(pair, 32)
    profile = reduction_profile(pair)
    return check_tail_count_lemmas(inv, profile), check_main_theorems(inv, profile)


def test_count_checks_fail_against_a_zero_table(zero_bounds):
    # fixed points 7/4 and -3/4 and the 2-cycle {1/4, -5/4}, each with tails
    lemmas, theorems = _count_checks("z^2-21/16")
    assert (lemmas.status, lemmas.reason) == ("FAIL", "inequality violated")
    assert lemmas.witnesses == (
        "period 2 cycle at -5/4: 2 tail points > L2(2,2)",
        "period 1 cycle at -3/4: 1 tail points > L1(2,2)",
        "fixed point -3/4 with a 2-cycle present: 1 > L4(2,2)",
        "period 1 cycle at 7/4: 1 tail points > L1(2,2)",
        "fixed point 7/4 with a 2-cycle present: 1 > L4(2,2)",
    )
    assert [(r.check_name, r.status, r.witnesses) for r in theorems] == [
        ("preper_bound_Q", "FAIL", ("9 preperiodic points > Q(2,2)",)),
        ("preper_bound_L", "FAIL", ("9 preperiodic points > L(2,2)",)),
        ("per_bound_three_tailish", "FAIL", ("5 periodic points vs 3*7^(4s)+3 = 3",)),
        ("tail_bound_four_periodic", "FAIL",
         ("|tail| + |critical cycle| = 5 vs 12*7^(4s) = 0",)),
    ]
    # a FAIL carries no checked count
    for r in (lemmas, *theorems):
        assert r.parameters == (("d", "2"), ("s", "2")), r.check_name
    assert not any(r.reason for r in theorems)


def test_unmet_hypotheses_stay_skipped_against_a_zero_table(zero_bounds):
    # z^2: fixed points 0, 1 and inf, the tail -1 into 1, no 2-cycle
    lemmas, theorems = _count_checks("z^2")
    assert (lemmas.status, lemmas.witnesses) == (
        "FAIL", ("period 1 cycle at 1: 1 tail points > L1(2,1)",))
    assert [(r.status, r.reason, r.witnesses) for r in theorems] == [
        ("FAIL", "", ("4 preperiodic points > Q(2,1)",)),
        ("SKIPPED", "no cycle of length >= 2", ()),
        ("PASS", "", ("3 periodic points vs 3*7^(4s)+3 = 3",)),  # 3 <= 0 + 3
        ("SKIPPED", "only 3 periodic points", ()),
    ]
    # a bound is read only where its statement's hypothesis holds
    assert zero_bounds.read == ["L1", "L1", "L1", "Q", "TPLA"]
    del zero_bounds.read[:]
    # z^2+1: only the fixed point at infinity, which has no tail
    lemmas, theorems = _count_checks("z^2+1")
    assert (lemmas.status, lemmas.witnesses) == (
        "PASS", ("period 1 cycle at inf: 0 tail points <= L1(2,1)",))
    assert params_dict(lemmas)["checked"] == "1"
    assert [(r.status, r.reason) for r in theorems] == [
        ("FAIL", ""), ("SKIPPED", "no cycle of length >= 2"),
        ("SKIPPED", "only 1 tail-or-critical-cycle points"), ("SKIPPED", "only 1 periodic points")]
    assert zero_bounds.read == ["L1", "Q"]


def test_point_set_scans_factor_only_what_they_compare(monkeypatch):
    # a candidate whose q1 and q2 supports differ is dropped before q3's cross
    # product is factored; the caps are the counts of the eager scans' parent
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return distance_support(a, b)

    monkeypatch.setattr(verify, "distance_support", counting)
    assert four_point_set(pt(0), INFINITY, pt(1), pt(-1), S_INF, height=100) == set()
    assert len(calls) <= 24352
    # each scan keeps a candidate's supports by |cross product|, factoring each once
    factored = [abs(cross_product(a, b)) for a, b in calls]
    assert len(factored) == len(set(factored))
    calls.clear()
    got = three_point_set(pt(0), pt(1), INFINITY, S_INF_2, height=50)
    assert got == {ProjPoint(2, 1), ProjPoint(1, 2), ProjPoint(-1, 1)}
    assert len(calls) <= 9285
    factored = [abs(cross_product(a, b)) for a, b in calls]
    assert len(factored) == len(set(factored))


def test_run_suite_all_golden_maps():
    for text in ("z^2", "z^2-1", "z^2+1", "z^2-2", "z^2-29/16"):
        reports = run_suite(parse_map(text), "all", height=64)
        bad = [r for r in reports if r.status == "FAIL"]
        assert not bad, (text, bad)


@settings(max_examples=30, deadline=None)
@given(known_answer_maps())
def test_run_suite_all_on_known_answer_maps(known):
    # conjugates of z^d and 2*T_d(z/2), d = 2..6, many of them not polynomials
    text, _ = known
    pair = parse_map(text)
    reports = run_suite(pair, "all", height=min(escape_threshold(pair), 64))
    bad = [r for r in reports if r.status == "FAIL"]
    assert not bad, (text, bad)
    # neither family has a cycle of length >= 2, which the linear bound L needs
    assert [r.status for r in reports if r.check_name == "preper_bound_L"] == ["SKIPPED"]


def test_run_suite_chain_derivation():
    reports = run_suite(parse_map("z^2-2"), "chain", height=32)
    assert [r.status for r in reports] == ["PASS"]
    reports = run_suite(parse_map("z^2-29/16"), "chain", height=64)
    assert [r.status for r in reports] == ["SKIPPED"]


def test_run_suite_skips_the_inventory_checks_of_an_incomplete_inventory():
    reports = run_suite(parse_map("z^2-29/16"), height=16, max_iters=1)
    skipped = [r.check_name for r in reports
               if (r.status, r.reason) == ("SKIPPED", "inventory incomplete")]
    assert skipped == ["tail_periodic_distance", "critical_distance", "tail_count_lemmas",
                       "preper_bound_Q", "preper_bound_L", "per_bound_three_tailish",
                       "tail_bound_four_periodic"]


def test_finish_caps_the_confirmations():
    report = verify._finish("check", [], list(range(30)), 30, [("p", "2")])
    assert report.status == "PASS"
    assert report.witnesses == (*range(24), "... 6 more")
    assert report.parameters == (("p", "2"), ("checked", "30"))


def test_run_suite_rejects_unknown():
    with pytest.raises(VerificationInputError):
        run_suite(parse_map("z^2"), "everything")
