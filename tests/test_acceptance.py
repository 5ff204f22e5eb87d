"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single summary line even
when passing.  Stated runtime limits are asserted, so a badly regressed
search or comparison engine fails here rather than just feeling slow.
"""

import csv
import hashlib
import random
import time
from fractions import Fraction
from math import gcd

import mpmath

from p1dyn.bounds import bound_table, unit_equation_bound
from p1dyn.cli import _sweep_pair, main
from p1dyn.magnitude import digit_count, force_exact
from p1dyn.mapparse import parse_map
from p1dyn.orbits import _sieved_rows, classify_point, enumerate_preperiodic
from p1dyn.projline import INFINITY, ProjPoint, log_distance, points_up_to_height
from p1dyn.ratmap import PlaceSet, escape_threshold, reduction_profile
from p1dyn.verify import (PASS, check_chain_lemma, check_non_expansion,
                          check_ultrametric, four_point_set, three_point_set)

from naive import (all_points_up_to_height, naive_classify,
                   naive_four_point_members, naive_three_point_members)

GOLDEN_MAPS = ("z^2", "z^2-1", "z^2+1", "z^2-2", "z^2-29/16")
# the box-32 sweep CSV, byte for byte (perfbench/expected.json holds the same digest)
SWEEP_CSV_SHA256 = "f095527ddcd532ec99f12ee958041d209814a14b472c1220cc41a0a35d7f1773"
# the box-128 sweep CSV at height 64, byte for byte
SWEEP_128_CSV_SHA256 = "0da6adfbf19d1d2944394392854242ac07229c0069b0990965f2f41960646125"


def _announce(capsys, n, detail):
    with capsys.disabled():
        print(f"acceptance criterion {n}: PASS ({detail})")


def pt(x, y=1):
    if isinstance(x, Fraction):
        return ProjPoint(x.numerator, x.denominator)
    return ProjPoint(x, y)


def test_criterion_1_golden_inventory_z2_m29_16(capsys, tmp_path):
    out = tmp_path / "golden.json"
    start = time.perf_counter()
    code = main(["analyze", "--map", "z^2-29/16", "--height", "64",
                 "--json", str(out)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    import json
    doc = json.loads(out.read_text())
    assert doc["counts"]["preper"] == 9
    assert set(doc["preper"]) == {"inf", "-1/4", "-7/4", "5/4",
                                  "1/4", "7/4", "-5/4", "3/4", "-3/4"}
    assert doc["bad_primes"] == [2]
    assert doc["s"] == 2
    assert {tuple(c["points"]) for c in doc["cycles"]} == \
        {("inf",), ("-7/4", "5/4", "-1/4")}
    assert elapsed < 5.0
    _announce(capsys, 1, f"9 preperiodic points, bad primes {{2}}, {elapsed:.2f}s")


def test_criterion_2_golden_inventories_small_quadratics(capsys):
    expectations = {
        "z^2": (
            {pt(0), INFINITY, pt(1), pt(-1)},
            {pt(0), INFINITY},
            {pt(-1)},
        ),
        "z^2-1": (
            {INFINITY, pt(0), pt(-1), pt(1)},
            {INFINITY, pt(0), pt(-1)},
            {pt(1)},
        ),
        "z^2+1": ({INFINITY}, {INFINITY}, set()),
    }
    times = []
    for text, (preper, per0, tail) in expectations.items():
        start = time.perf_counter()
        inv = enumerate_preperiodic(parse_map(text), 100)
        elapsed = time.perf_counter() - start
        assert set(inv.preper) == preper, text
        assert set(inv.per0) == per0, text
        assert set(inv.tail) == tail, text
        assert elapsed < 1.0, text
        times.append(elapsed)
    _announce(capsys, 2,
              f"3 exact inventories, slowest {max(times):.2f}s")


def test_criterion_3_bound_values(capsys):
    assert force_exact(unit_equation_bound(2, 1)) == 65536
    table1 = bound_table(2, 1)
    assert force_exact(table1["T"]) == 28812
    assert force_exact(bound_table(2, 2)["T"]) == 69177612
    assert force_exact(table1["L1"]) == 131075
    c3 = unit_equation_bound(3, 1)
    c5 = unit_equation_bound(5, 1)
    assert c3.ln == Fraction(198359290368)
    assert c3.ln == Fraction(18**9)
    assert c5.ln == Fraction(30**15)
    # the digit count is forced by the exponent: floor(ln/ln 10) + 1
    digits = digit_count(c3)
    assert digits == 86146345242
    mpmath.mp.dps = 40
    recomputed = int(mpmath.floor(198359290368 / mpmath.ln(10))) + 1
    assert abs(digits - recomputed) <= 1
    _announce(capsys, 3,
              f"exact bound values, digit_count(C(3,1)) = {digits}")


def test_criterion_4_verify_suite_all_golden_maps(capsys):
    start = time.perf_counter()
    outputs = {}
    for text in GOLDEN_MAPS:
        assert main(["verify", "--map", text, "--suite", "all"]) == 0, text
        outputs[text] = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    for text, out in outputs.items():
        assert "[PASS] preper_bound_Q" in out, text
        assert "[FAIL]" not in out, text
    # the long-cycle bound applies exactly where a cycle of length >= 2 exists
    assert "[PASS] preper_bound_L" in outputs["z^2-1"]
    assert "[PASS] preper_bound_L" in outputs["z^2-29/16"]
    assert "[SKIPPED] preper_bound_L" in outputs["z^2"]
    assert elapsed < 10.0
    _announce(capsys, 4, f"5 maps verified clean, {elapsed:.2f}s")


def test_criterion_5_distance_set_enumerations(capsys):
    start = time.perf_counter()
    zero, one, minus = pt(0), pt(1), pt(-1)
    s_2 = PlaceSet(frozenset({2}))
    s_min = PlaceSet(frozenset())

    got = three_point_set(zero, one, INFINITY, s_2, height=50)
    assert got == {ProjPoint(2, 1), ProjPoint(1, 2), ProjPoint(-1, 1)}
    oracle = naive_three_point_members(zero, one, INFINITY, {2}, 50)
    assert got == set(oracle)

    empty = three_point_set(zero, one, INFINITY, s_min, height=50)
    assert empty == set()
    assert naive_three_point_members(zero, one, INFINITY, set(), 50) == []

    four = four_point_set(zero, INFINITY, one, minus, s_min, height=100)
    assert four == set()
    assert naive_four_point_members(zero, INFINITY, one, minus, set(), 100) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(capsys, 5,
              f"three-point set {{2, 1/2, -1}}, empty variants confirmed, "
              f"{elapsed:.2f}s")


def test_criterion_6_chain_on_z2_minus_2(capsys):
    pair = parse_map("z^2-2")
    profile = reduction_profile(pair)
    chain = [pt(0), pt(-2), pt(2)]
    # the underlying 2-adic values the chain result constrains
    assert log_distance(pt(0), pt(-2), 2) == 1
    assert log_distance(pt(0), pt(2), 2) == 1
    assert log_distance(pt(-2), pt(2), 2) == 2
    report = check_chain_lemma(pair, profile, pt(2), chain)
    assert report.status == PASS
    assert any("1 = 1 <= 2" in w for w in report.witnesses)
    _announce(capsys, 6, "delta_2 chain (1, 1, 2) verified")


def test_criterion_7_randomized_property_suites(capsys):
    rng = random.Random(20260823)
    grid = list(points_up_to_height(20))
    start = time.perf_counter()
    for _ in range(10**4):
        triple = rng.sample(grid, 3)
        assert check_ultrametric(triple).status == PASS
    profiles = [(parse_map(t), ) for t in GOLDEN_MAPS]
    profiles = [(p, reduction_profile(p)) for (p,) in profiles]
    for pair, profile in profiles:
        for _ in range(2000):
            duo = rng.sample(grid, 2)
            assert check_non_expansion(pair, profile, duo).status == PASS
    elapsed = time.perf_counter() - start

    agree = 0
    for text in ("z^2", "z^2-1"):
        pair = parse_map(text)
        for point in all_points_up_to_height(30):
            ours = classify_point(pair, point)
            ref = naive_classify(pair, point, 256, escape_threshold(pair))
            assert (ours.kind, ours.trajectory, ours.period, ours.tail_length,
                    ours.cycle, ours.steps) == ref
            agree += 1
    _announce(capsys, 7,
              f"10^4 ultrametric triples + 10^4 non-expansion pairs in "
              f"{elapsed:.1f}s, classifier agreement on {agree} orbits")


def test_criterion_8_quadratic_family_sweep(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    start = time.perf_counter()
    code = main(["batch", "--family", "z^2+c", "--c-num-max", "32",
                 "--c-den-max", "32", "--csv", str(out)])
    elapsed = time.perf_counter() - start
    text = capsys.readouterr().out
    assert code == 0
    summary = next(l for l in text.splitlines() if l.startswith("max |PrePer|"))
    assert summary.startswith("max |PrePer| = 9 at ")
    assert "c = -29/16" in summary
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert max(int(r[3]) for r in rows) == 9
    assert all(r[-1] != "FAIL" for r in rows)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_CSV_SHA256
    assert elapsed < 600.0
    _announce(capsys, 8, f"{len(rows)} maps swept, {summary}, {elapsed:.0f}s")


def test_criterion_8_box_128_sweep(capsys, tmp_path):
    # 17,137 of the 20,087 members keep no sieve row and walk nothing
    settled = sum(_sieved_rows(_sweep_pair(num, den)[0], 64, 256) == []
                  for den in range(1, 129) for num in range(-128, 129) if gcd(num, den) == 1)
    assert settled == 17137
    out = tmp_path / "sweep128.csv"
    start = time.perf_counter()
    code = main(["batch", "--family", "z^2+c", "--c-num-max", "128", "--c-den-max", "128",
                 "--height", "64", "--jobs", "2", "--csv", str(out)])
    elapsed = time.perf_counter() - start
    text = capsys.readouterr().out
    assert code == 0
    assert "max |PrePer| = 9 at c = -29/16, c = -21/16, c = -91/36" in text.splitlines()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_128_CSV_SHA256
    _announce(capsys, 8, f"box 128 swept, CSV byte-identical, {elapsed:.2f}s")
