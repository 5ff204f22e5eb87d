import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fractions import Fraction
from math import gcd

from p1dyn import cli
from p1dyn.cli import main
from p1dyn.mapparse import parse_map
from p1dyn.projline import parse_point

from naive import naive_sieve_drops

GOLDEN = Path(__file__).parent / "golden"


def test_analyze_json_matches_golden(tmp_path):
    out = tmp_path / "z2.json"
    code = main(["analyze", "--map", "z^2", "--height", "16", "--json", str(out)])
    assert code == 0
    assert json.loads(out.read_text()) == json.loads(
        (GOLDEN / "analyze_z2_h16.json").read_text())


def test_analyze_text_output(capsys):
    code = main(["analyze", "--map", "z^2-29/16", "--height", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bad primes: 2" in out
    assert "preperiodic points found up to height 64: 9" in out
    assert "cycle: -7/4 -> 5/4 -> -1/4 (period 3)" in out
    assert "Q = ~10^37389906788657660835276" in out


def test_analyze_parse_error_exits_2(capsys):
    assert main(["analyze", "--map", "z^^2"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_huge_literal_exits_2(capsys):
    # past the interpreter's int-string limit; a parse error, not a traceback
    assert main(["analyze", "--map", "z^2+" + "7" * 5000]) == 2
    err = capsys.readouterr().err
    assert err == "error: integer literal of 5000 digits is too long (at position 4)\n"


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "--map", "z^2", "--height", "4"], "--json"),
    (["verify", "--map", "z^2", "--height", "4"], "--json"),
    (["batch", "--family", "z^2+c", "--c-num-max", "1", "--c-den-max", "1"], "--csv"),
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, flag):
    path = tmp_path / "missing" / "x.json"
    assert main(argv + [flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_analyze_degree_below_2(tmp_path, capsys):
    out = tmp_path / "lin.json"
    code = main(["analyze", "--map", "z+1", "--json", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["flags"]["degree_below_2"] is True
    assert "counts" not in doc
    assert "degree at least 2" in capsys.readouterr().err


def test_analyze_s_extra(tmp_path):
    out = tmp_path / "s.json"
    code = main(["analyze", "--map", "z^2", "--height", "8",
                 "--s-extra", "5", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["S"] == ["inf", 5] and doc["s"] == 2
    # the bound table follows the enlarged place set
    assert doc["bounds"]["B"]["value"] == str(2**32)


def test_analyze_factors_resultant_past_the_primality_range(capsys):
    # the resultant 10000000000427000000001443 is past 3.317e24; a witness
    # proves it composite, so rho splits it instead of refusing the map
    code = main(["analyze", "--map", "[X^2+10000000000427000000001443*Y^2:X*Y]",
                 "--height", "4"])
    assert code == 0
    assert "bad primes: 1000000000039, 10000000000037" in capsys.readouterr().out


def _odd_primes(count):
    primes = []
    n = 3
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 2
    return ",".join(map(str, primes))


@pytest.mark.parametrize("argv, err", [
    (["--map", "z^2+2^16000", "--height", "4"],
     "error: coefficient of 4817 digits is too long to write in decimal\n"),
    # s = 461 makes the exact L3 bound 4442 digits long
    (["--map", "z^2", "--height", "2", "--s-extra", _odd_primes(460)],
     "error: exact bound of 4442 digits is too long to write in decimal\n"),
])
def test_analyze_number_past_int_string_limit_exits_2(capsys, argv, err):
    assert main(["analyze"] + argv) == 2
    assert capsys.readouterr().err == err


def test_analyze_refuses_unprintable_coefficients_before_reduction(capsys, monkeypatch):
    def no_reduction(pair):
        raise AssertionError("reduction_profile ran on an unprintable map")

    monkeypatch.setattr("p1dyn.cli.reduction_profile", no_reduction)
    assert main(["analyze", "--map", "z^2+(1/3)^50000", "--height", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: coefficient of 23857 digits is too long to write in decimal\n")


def test_analyze_s_extra_long_exact_bounds(capsys):
    # at s = 401 the exact L3 bound has 3864 digits, inside the limit
    assert main(["analyze", "--map", "z^2", "--height", "2",
                 "--s-extra", _odd_primes(400)]) == 0
    assert "L3 = ~10^3863 (3864 digits, exact)" in capsys.readouterr().out


def test_analyze_s_extra_rejects_composites(capsys):
    assert main(["analyze", "--map", "z^2", "--s-extra", "6"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_analyze_incomplete_exits_3(capsys):
    # two iterations cannot close a 3-cycle, so starts stay undecided
    code = main(["analyze", "--map", "z^2-29/16", "--height", "64",
                 "--max-iters", "2"])
    assert code == 3
    assert "incomplete" in capsys.readouterr().out


def test_analyze_incomplete_lists_only_starts_the_sieve_keeps(capsys):
    code = main(["analyze", "--map", "z^2-29/16", "--height", "64",
                 "--max-iters", "2"])
    assert code == 3
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("incomplete: undecided starting points "))
    undecided = [parse_point(t) for t in line.split(" points ", 1)[1].split(", ")]
    pair = parse_map("z^2-29/16")
    assert undecided and not any(naive_sieve_drops(pair, p) for p in undecided)


def test_verify_gives_up_on_a_huge_cofactor_in_seconds(capsys):
    # rho charges each iteration by the size of the 2,407-digit cofactor,
    # and the error names it by its digit count
    start = time.perf_counter()
    code = main(["verify", "--map", "[X^2+2^8000*Y^2:X*Y]", "--height", "4"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and len(err[0]) < 200
    assert "2407-digit" in err[0]
    assert elapsed < 30


def test_verify_all_clean_maps(capsys):
    for text in ("z^2", "z^2-1", "z^2+1", "z^2-2", "z^2-29/16"):
        assert main(["verify", "--map", text, "--suite", "all"]) == 0, text
    assert "[PASS] preper_bound_Q" in capsys.readouterr().out


def test_verify_single_suite_chain(capsys):
    assert main(["verify", "--map", "z^2-2", "--suite", "chain"]) == 0
    assert "[PASS] chain_equality" in capsys.readouterr().out


def test_verify_json_document(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "--map", "z^2", "--suite", "ultrametric",
                 "--height", "16", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1" and doc["suite"] == "ultrametric"
    assert doc["verifications"][0]["status"] == "PASS"


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--map", "z^2", "--suite", "nosuch"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--map", "z^2"],
    ["verify", "--map", "z^2"],
    ["batch", "--family", "z^2+c", "--c-num-max", "1", "--c-den-max", "1"],
])
def test_retired_escape_flag_exits_2(argv):
    # walks now escape at each map's certified threshold; the flag is gone
    with pytest.raises(SystemExit) as err:
        main(argv + ["--escape", "5"])
    assert err.value.code == 2


def test_bounds_rows(capsys):
    assert main(["bounds", "--d", "2", "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "B = 65536" in out
    assert "T = 28812" in out
    assert "C3 = e^198359290368 (86146345242 digits)" in out


def test_bounds_single_label(capsys):
    assert main(["bounds", "--d", "2", "--s", "1", "--which", "L1"]) == 0
    assert capsys.readouterr().out == "L1 = 131075\n"


def test_repeated_main_calls_share_nothing_between_parses(capsys):
    # main keeps one parser per process; no option or error may leak into the next call
    assert main(["bounds", "--d", "2", "--s", "1"]) == 0
    first = capsys.readouterr().out
    assert len(first.splitlines()) == 13
    assert main(["bounds", "--d", "3", "--s", "2", "--which", "Q"]) == 0
    assert capsys.readouterr().out.startswith("Q = ")
    bad = ["bounds", "--d", "2", "--s", "3", "--which", "q"]
    with pytest.raises(SystemExit) as err:
        main(bad)
    assert err.value.code == 2
    shared_error = capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(bad)
    assert capsys.readouterr().err == shared_error
    assert main(["analyze", "--map", "z^^2"]) == 2
    capsys.readouterr()
    assert main(["bounds", "--d", "2", "--s", "1"]) == 0
    assert capsys.readouterr().out == first


def test_bounds_bad_parameters(capsys):
    assert main(["bounds", "--d", "1", "--s", "1"]) == 2
    assert main(["bounds", "--d", "2", "--s", "0"]) == 2
    capsys.readouterr()


def test_batch_unit_square(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["batch", "--family", "z^2+c", "--c-num-max", "1",
                 "--c-den-max", "1", "--csv", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "maps analyzed: 3" in text
    assert "max |PrePer| = 4 at c = -1, c = 0" in text
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "c" and len(rows) == 4
    assert all(r[-1] == "PASS" for r in rows[1:])


def test_batch_jobs_keep_order(tmp_path):
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    base = ["batch", "--family", "z^2+c", "--c-num-max", "2", "--c-den-max", "2"]
    assert main(base + ["--csv", str(one)]) == 0
    assert main(base + ["--jobs", "2", "--csv", str(two)]) == 0
    assert one.read_text() == two.read_text()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its sizes and maps in-process."""

    calls = []

    def __init__(self, max_workers):
        self.calls.append({"max_workers": max_workers})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        self.calls[-1]["chunksize"] = chunksize
        return map(fn, tasks)


def test_batch_pool_never_has_more_workers_than_maps(monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    base = ["batch", "--family", "z^2+c", "--c-num-max", "1", "--c-den-max", "1"]
    assert main(base + ["--jobs", "100000"]) == 0  # 3 maps
    assert "maps analyzed: 3" in capsys.readouterr().out
    assert _RecordingPool.calls == [{"max_workers": 3, "chunksize": 1}]
    assert main(["batch", "--family", "z^2+c", "--c-num-max", "8", "--c-den-max", "8",
                 "--height", "4", "--jobs", "2"]) == 0  # 87 maps
    assert _RecordingPool.calls[1] == {"max_workers": 2, "chunksize": 87 // 16}
    capsys.readouterr()


def test_batch_builds_members_without_parsing(monkeypatch, capsys):
    def refuse(text):
        raise AssertionError(f"batch parsed {text!r}")

    monkeypatch.setattr(cli, "parse_map", refuse)
    assert main(["batch", "--family", "z^2+c", "--c-num-max", "2",
                 "--c-den-max", "2"]) == 0
    capsys.readouterr()


def test_sweep_pair_equals_the_parsed_map():
    for den in range(1, 9):
        for num in range(-8, 9):
            if gcd(num, den) != 1:
                continue
            c = Fraction(num, den)
            text = f"z^2+{c}" if num >= 0 else f"z^2-{-c}"
            built, parsed = cli._sweep_pair(c), parse_map(text)
            assert (built.degree, built.a, built.b) == (parsed.degree, parsed.a, parsed.b)
            assert str(built) == str(parsed) == text


def test_batch_rejects_other_families(capsys):
    code = main(["batch", "--family", "z^3+c", "--c-num-max", "1",
                 "--c-den-max", "1"])
    assert code == 2
    assert "z^2+c" in capsys.readouterr().err


def test_module_entrypoint_roundtrip():
    done = subprocess.run([sys.executable, "-m", "p1dyn", "bounds",
                           "--d", "2", "--s", "1", "--which", "B"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout == "B = 65536\n"


def test_module_entrypoint_missing_map():
    done = subprocess.run([sys.executable, "-m", "p1dyn", "analyze"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
