import hashlib
import json
from fractions import Fraction

import pytest

from p1dyn.bounds import bound_table
from p1dyn.magnitude import exact, exp_of, power
from p1dyn.mapparse import parse_map
from p1dyn.orbits import enumerate_preperiodic
from p1dyn.ratmap import reduction_profile
from p1dyn.report import (analysis_report, analysis_text, batch_rows_csv,
                          bound_rows, format_magnitude, render_magnitude,
                          report_json, verification_line, verification_to_dict)
from p1dyn.verify import VerificationReport, run_suite


def test_render_magnitude_exact():
    assert render_magnitude(exact(65536)) == {
        "kind": "exact", "value": "65536", "digits": "5"}


def test_render_magnitude_exp():
    r = render_magnitude(exp_of(Fraction(198359290368)))
    assert r == {"kind": "exp", "ln": "198359290368", "digits": "86146345242"}


def test_render_magnitude_astronomical():
    r = render_magnitude(bound_table(2, 1)["FPLA"])
    assert r["kind"] == "astronomical"
    assert r["digits"] == "45490366779583341627641"


def test_format_magnitude_frozen_strings():
    assert format_magnitude(exact(65536)) == "65536"
    assert format_magnitude(exp_of(Fraction(198359290368))) == \
        "e^198359290368 (86146345242 digits)"
    assert format_magnitude(power(exact(10), 100)) == \
        "~10^100 (101 digits, exact)"


def test_bound_rows_frozen():
    rows = bound_rows(2, 1)
    assert rows[0] == "B = 65536"
    assert "T = 28812" in rows
    assert "TPLA = 7203" in rows
    assert "C3 = e^198359290368 (86146345242 digits)" in rows
    assert len(rows) == len(bound_table(2, 1))


def test_bound_rows_long_exact_values_are_not_stringified():
    # B = 2^(16s) and T = 12*7^(4s) pass CPython's 4,300-digit int-to-str
    # limit here; the text path must summarize them from the digit count
    rows = bound_rows(2, 900)
    assert rows[0] == "B = ~10^4334 (4335 digits, exact)"
    assert "T = ~10^4395 (4396 digits, exact)" in bound_rows(2, 1300)
    assert format_magnitude(exact(2**20000)) == "~10^6020 (6021 digits, exact)"


def test_bound_rows_grid_digest():
    # every row of the 2..33 x 1..16 grid, frozen before max_of decided
    # dominance at construction
    rows = [r for d in range(2, 34) for s in range(1, 17) for r in bound_rows(d, s)]
    assert len(rows) == 6656
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == \
        "c04642ff4e6962db00427b008102346f9e93b4543db239e0a9269b53d849a690"


def test_bound_rows_single_label():
    rows = bound_rows(2, 1, "L1")
    assert rows == ["L1 = 131075"]


def test_analysis_report_golden_fields():
    pair = parse_map("z^2-29/16")
    profile = reduction_profile(pair)
    inv = enumerate_preperiodic(pair, 64)
    rep = analysis_report(pair, profile, profile.places, inv)
    assert rep["schema_version"] == "1"
    assert rep["bad_primes"] == [2]
    assert rep["S"] == ["inf", 2]
    assert rep["counts"] == {"preper": 9, "per": 4, "tail": 5, "per0": 1}
    cycle3 = next(c for c in rep["cycles"] if c["length"] == 3)
    assert cycle3["points"] == ["-7/4", "5/4", "-1/4"]
    assert not cycle3["critical"]
    assert rep["tails_by_target"]["-7/4"] == ["-5/4", "-3/4", "1/4", "3/4", "7/4"]
    assert rep["flags"] == {"degree_below_2": False, "incomplete": False,
                            "undecided": []}


def test_analysis_report_deterministic():
    pair = parse_map("z^2-1")
    profile = reduction_profile(pair)
    one = report_json(analysis_report(pair, profile, profile.places,
                                      enumerate_preperiodic(pair, 32)))
    two = report_json(analysis_report(pair, profile, profile.places,
                                      enumerate_preperiodic(pair, 32)))
    assert one == two
    assert json.loads(one)["schema_version"] == "1"


def test_analysis_text_lines():
    pair = parse_map("z^2-29/16")
    profile = reduction_profile(pair)
    inv = enumerate_preperiodic(pair, 64)
    text = analysis_text(analysis_report(pair, profile, profile.places, inv))
    assert "bad primes: 2" in text
    assert "preperiodic points found up to height 64: 9" in text
    assert "cycle: -7/4 -> 5/4 -> -1/4 (period 3)" in text
    assert "B = 4294967296" in text


def test_verification_to_dict_and_line():
    r = VerificationReport("demo", "FAIL", reason="inequality violated",
                           witnesses=("w1", "w2"), parameters=(("checked", "7"),))
    d = verification_to_dict(r)
    assert d["check"] == "demo" and d["parameters"] == {"checked": "7"}
    line = verification_line(r)
    assert line.startswith("[FAIL] demo: inequality violated")
    assert "w1" in line and "w2" in line


def test_verification_line_pass_compact():
    reports = run_suite(parse_map("z^2"), "critical", height=16)
    line = verification_line(reports[0])
    assert line.startswith("[PASS] critical_distance")
    assert "checked 4" in line


def test_batch_rows_csv_shape():
    members = [("-1/2", 2, (2,), 1, 1, 0, 1, False, "PASS"),
               ("-5/6", 3, (2, 3), 1, 1, 0, 1, True, "SKIPPED")]
    rows = batch_rows_csv(members)
    assert rows[0][0] == "c" and rows[0][-1] == "count_le_Q"
    assert rows[1] == ["-1/2", "2", "2", "1", "1", "0", "1", "no", "PASS"]
    assert rows[2] == ["-5/6", "3", "2;3", "1", "1", "0", "1", "yes", "SKIPPED"]


@pytest.mark.parametrize("extra", [(), (3, 5, 7, 11, 13, 17)])
def test_analysis_text_bound_lines_match_bound_rows(extra):
    pair = parse_map("z^2-29/16")
    profile = reduction_profile(pair)
    places = profile.places.extended(extra)
    inv = enumerate_preperiodic(pair, 8)
    lines = analysis_text(analysis_report(pair, profile, places, inv)).splitlines()
    start = lines.index(f"bounds (d = 2, s = {places.size}):") + 1
    rows = bound_rows(2, places.size)
    assert [line.strip() for line in lines[start:start + len(rows)]] == rows
    if places.size == 8:
        table = bound_table(2, 8)
        assert render_magnitude(table["L3"])["kind"] == "exact"
        assert rows[5] == "L3 = ~10^77 (78 digits, exact)"
        assert render_magnitude(table["L2"])["kind"] == "astronomical"
        assert rows[4] == "L2 = ~10^1895219595342 (1895219595343 digits)"
