import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction
from math import gcd

from p1dyn import cli, orbits, ratmap
from p1dyn.bounds import aggregate_bounds
from p1dyn.cli import main
from p1dyn.mapparse import parse_map
from p1dyn.orbits import enumerate_preperiodic, preperiodic_counts
from p1dyn.projline import parse_point
from p1dyn.ratmap import escape_threshold

from naive import build_parser, naive_sieve_drops
from test_acceptance import SWEEP_CSV_SHA256

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


def test_verify_parse_error_exits_2_with_one_line(capsys):
    assert main(["verify", "--map", "z^2+"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: expected a number, variable, or parenthesis (at position 4)\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["analyze", "--map", "z^2", "--height", "0"],
    ["verify", "--map", "z^2-1", "--height", "-1"],
])
def test_height_below_1_exits_2_with_one_line(capsys, argv):
    # the one height check, in the orbit walk's limits, answers for both commands
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: height bound must be at least 1\n"


@pytest.mark.parametrize("argv, message", [
    (["--map", "z^2+1/2", "--max-iters", "0"], "max_iters must be positive"),
    (["--map", "2*z+1/3", "--height", "8"], "dynamical analysis needs a map of degree at least 2"),
    (["--map", "z^2+1/2", "--height", "0"], "height bound must be at least 1"),
    (["--map", "z^2+1", "--height", "0"], "height bound must be at least 1"),
])
def test_analyze_refuses_a_settled_or_linear_map_with_one_line(capsys, argv, message):
    # z^2+1/2 and z^2+1 keep no sieve row (rules (iii) and (i)): the limits are still
    # checked before the sieve runs
    assert main(["analyze", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--c-num-max", "0", "--c-den-max", "1"], "--c-num-max and --c-den-max must be at least 1"),
    (["--c-num-max", "1", "--c-den-max", "1", "--jobs", "0"], "--jobs must be at least 1"),
    (["--c-num-max", "1", "--c-den-max", "1", "--height", "0"], "search limits must be positive"),
])
def test_batch_refuses_empty_ranges_and_limits(capsys, flags, message):
    assert main(["batch", "--family", "z^2+c", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_verify_help_lists_the_suites(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--help"])
    assert err.value.code == 0
    suite_line = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("  --suite "))
    assert suite_line.split(None, 2)[2] == (
        "the checks to run; one of all, ultrametric, nonexpansion, chain, tailperiodic, "
        "critical, taillemmas, theorems (default all)")


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


def test_analyze_s_extra(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = main(["analyze", "--map", "z^2", "--height", "8",
                 "--s-extra", "5", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["S"] == ["inf", 5] and doc["s"] == 2
    # the bound table follows the enlarged place set
    assert doc["bounds"]["B"]["value"] == str(2**32)
    # an empty token between two commas is skipped
    assert main(["analyze", "--map", "z^2", "--height", "2", "--s-extra", "2,,3"]) == 0
    assert "\nS = {inf, 2, 3} (s = 3)\n" in capsys.readouterr().out


def test_analyze_factors_resultant_past_the_primality_range(capsys):
    # the resultant 10000000000427000000001443 is past 3.317e24; a witness
    # proves it composite, so rho splits it instead of refusing the map
    code = main(["analyze", "--map", "[X^2+10000000000427000000001443*Y^2:X*Y]",
                 "--height", "4"])
    assert code == 0
    assert "bad primes: 1000000000039, 10000000000037" in capsys.readouterr().out


def test_analyze_factors_a_huge_prime_power_resultant(capsys):
    # the resultant 1000003^700 has 4201 digits; it is split at its root
    # before any primality test
    code = main(["analyze", "--map", "[X^2+1000003^700*Y^2:X*Y]", "--height", "4"])
    assert code == 0
    assert "\nbad primes: 1000003\n" in capsys.readouterr().out


def test_analyze_refuses_a_probable_prime_resultant_past_the_range(capsys):
    # 10^30+57 passes every witness, so it is refused before any rho search
    code = main(["analyze", "--map", "[X^2+1000000000000000000000000000057*Y^2:X*Y]",
                 "--height", "4"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 1000000000000000000000000000057 exceeds the deterministic "
        "Miller-Rabin range 3317044064679887385961981\n")


_LARGE_PRIME_WRONSKIAN_MAP = "[X^2+1000000000000000000000000000057*X*Y:Y^2+X*Y]"


def test_analyze_accepts_a_large_prime_in_the_wronskian(capsys):
    # the Wronskian coefficient 2*(10^30+57) is past the primality range; no
    # critical point needs it factored, only evaluated at the cycle points
    code = main(["analyze", "--map", _LARGE_PRIME_WRONSKIAN_MAP, "--height", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bad primes: 2, 3, 79043, 3998741, 290240017, 454197539\n" in out
    assert "(2 periodic, 1 tail, 0 on critical cycles)" in out


@pytest.mark.parametrize("text", [_LARGE_PRIME_WRONSKIAN_MAP, "z^2-1", "[X^3+2*Y^3:X*Y^2]",
                                  "z^2-29/16"])
def test_enumerate_preperiodic_never_factors(monkeypatch, text):
    def refuse(n):
        raise AssertionError(f"factorize or is_prime({n}) called")

    monkeypatch.setattr("p1dyn.ratmap.factorize", refuse)
    monkeypatch.setattr("p1dyn.intarith.factorize", refuse)
    # the sieve's primes come from its own trial division, so none is proved again
    monkeypatch.setattr("p1dyn.intarith.is_prime", refuse)
    inv = enumerate_preperiodic(parse_map(text), 64)
    monkeypatch.undo()
    assert inv == enumerate_preperiodic(parse_map(text), 64)


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


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("exponent", [2**62, 2**63])
def test_a_degree_past_any_coefficient_list_exits_2(capsys, command, exponent):
    # neither list can be allocated, so both are refused before any memory is taken;
    # a dense base is refused before its first squaring
    for text in (f"z^{exponent}", f"(z+1)^{exponent}"):
        start = time.perf_counter()
        assert main([command, "--map", text]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == (
            "", f"error: a form of degree {exponent} has too many coefficients to store\n")


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


@pytest.mark.parametrize("value, err", [
    ("-5", "error: --s-extra: -5 is not prime\n"),
    ("0", "error: --s-extra: 0 is not prime\n"),
    ("1", "error: --s-extra: 1 is not prime\n"),
    ("4", "error: --s-extra: 4 is not prime\n"),
    ("2,-3", "error: --s-extra: -3 is not prime\n"),
    ("x", "error: --s-extra: invalid int value 'x'\n"),
    ("618970019642690137449562111",  # the prime 2^89 - 1
     "error: --s-extra: 618970019642690137449562111 exceeds the deterministic "
     "Miller-Rabin range 3317044064679887385961981\n"),
    # a long token is named by its length, never printed
    pytest.param("9" * 5000, "error: --s-extra: an integer of 5000 digits, past this "
                 f"interpreter's limit of {sys.get_int_max_str_digits()} digits\n",
                 id="5000 digits"),
    pytest.param("x" * 61, "error: --s-extra: invalid int value of 61 characters\n",
                 id="61 characters"),
    pytest.param(str(10**99), "error: --s-extra: a 100-digit number is not prime\n",
                 id="100-digit composite"),
])
def test_analyze_s_extra_names_the_flag_and_the_value(capsys, value, err):
    assert main(["analyze", "--map", "z^2", "--height", "2", "--s-extra", value]) == 2
    assert capsys.readouterr() == ("", err)


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
    grid_height = min(64, escape_threshold(pair))
    assert undecided and not any(naive_sieve_drops(pair, p, grid_height) for p in undecided)


def test_verify_accepts_a_huge_image_cofactor_in_seconds(capsys):
    # an image cross product here has a 2,407-digit cofactor; non-expansion
    # reads image distances by valuation at the source pair's primes only
    start = time.perf_counter()
    code = main(["verify", "--map", "[X^2+2^8000*Y^2:X*Y]", "--height", "4"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "[PASS] non_expansion" in capsys.readouterr().out
    assert elapsed < 5


def test_verify_accepts_a_large_prime_in_the_wronskian():
    assert main(["verify", "--map", _LARGE_PRIME_WRONSKIAN_MAP, "--height", "16"]) == 0


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
    # each call reads its own argv; no option or error may leak into the next call
    assert main(["bounds", "--d", "2", "--s", "1"]) == 0
    first = capsys.readouterr().out
    assert len(first.splitlines()) == 13
    assert main(["bounds", "--d", "3", "--s", "2", "--which", "Q"]) == 0
    assert capsys.readouterr().out.startswith("Q = ")
    bad = ["bounds", "--d", "2", "--s", "3", "--which", "q"]
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(bad)
        assert err.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert main(["analyze", "--map", "z^^2"]) == 2
    capsys.readouterr()
    assert main(["bounds", "--d", "2", "--s", "1"]) == 0
    assert capsys.readouterr().out == first


def test_maps_starting_with_minus_are_accepted(capsys):
    # the token after a flag is its value, even when it starts with "-"
    assert main(["analyze", "--map", "-z^2+1", "--height", "16"]) == 0
    assert capsys.readouterr().out.startswith("map: -z^2+1 (degree 2)\n")
    assert main(["verify", "--map", "-z^2", "--height", "16"]) == 0


@pytest.mark.parametrize("argv", [
    [],
    ["nosuch"],
    ["bounds", "--d", "2", "--s", "1", "--bogus", "1"],
    ["bounds", "--d", "2", "--s", "1", "2"],
    ["analyze", "--map", "z^2", "--escape", "5"],
    ["analyze", "--map", "z^2", "--height"],
    ["analyze", "--map", "z^2", "--height", "x"],
    ["analyze", "--map", "z^2", "--hei", "16"],
    ["verify", "--map", "z^2", "--suite", "nosuch"],
    ["bounds", "--d", "2", "--s", "1", "--which", "q"],
    ["analyze", "--height", "16"],
    ["batch", "--c-num-max", "1", "--c-den-max", "1"],
    ["bounds", "--s", "1"],
    ["bounds", "--d", "2"],
])
def test_argv_mistakes_print_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == ""
    lines = err_text.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv, named", [
    (["bounds", "--d", "9" * 5001, "--s", "1"], "an integer of 5001 digits"),
    (["analyze", "--map", "z^2", "--height", "9" * 5001], "an integer of 5001 digits"),
    (["analyze", "--map", "z^2", "--height", "x" + "9" * 5000], "of 5001 characters"),
    (["bounds", "--d", "2", "--s", "1", "--which", "Q" * 61], "of 61 characters"),
])
def test_a_long_bad_token_is_named_by_its_length(capsys, argv, named):
    # an all-digit value past the int-string limit is a valid integer too long to read
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.count("\n") == 1 and len(err_text) < 200 and named in err_text


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_the_commands_and_their_flags(capsys, flag):
    with pytest.raises(SystemExit) as err:
        main([flag])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert all(f"  {name} " in out for name in ("analyze", "verify", "bounds", "batch"))
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--map", "z^2", flag])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for name in ("--map", "--height", "--max-iters", "--s-extra", "--json"):
        assert f"  {name} " in out
    assert "(default 1024)" in out


# values the two readers take alike: non-empty and not starting with "-"
# (argparse refuses such a value after a flag; the CLI takes it)
_VALUES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6).filter(
    lambda text: not text.startswith("-"))


def _value(kind):
    if kind is int:
        return st.one_of(st.integers(0, 10**6).map(str), _VALUES)
    if kind is str:
        return _VALUES
    return st.one_of(st.sampled_from(kind), _VALUES)


@st.composite
def _argvs(draw):
    """An argv over one command's exact flag names, in any order, repeats allowed."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = cli._COMMANDS[command][2]
    # a required flag is mostly present, so most argvs reach the values
    chosen = [f for f in flags if f[2] is cli._REQUIRED and draw(st.integers(0, 7))]
    chosen = draw(st.permutations(chosen + draw(st.lists(st.sampled_from(flags), max_size=6))))
    argv = [command]
    for flag, kind, _, _ in chosen:
        value = draw(_value(kind))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def _quietly(read):
    """read()'s result, or the SystemExit code it raised, with stderr discarded."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return read()
    except SystemExit as e:
        return e.code


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_argv_reader_agrees_with_argparse(argv):
    dests = [flag[2:].replace("-", "_") for flag, *_ in cli._COMMANDS[argv[0]][2]]
    ours = _quietly(lambda: cli._read_argv(argv))
    oracle = _quietly(lambda: build_parser().parse_args(argv))
    if ours == 2 or oracle == 2:
        assert ours == oracle == 2
        return
    handler, args = ours
    assert handler is oracle.func
    assert {d: getattr(args, d) for d in dests} == {d: getattr(oracle, d) for d in dests}


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


def _record_workers(monkeypatch, cpus, window):
    """Windows of ``window`` members and ``cpus`` usable CPUs; returns, per call of the
    fork map, [the workers it is given, the children it forks]."""
    calls = []
    fork_map, fork_worker = cli._fork_map, cli._fork_worker

    def record(fn, tasks, workers, size):
        calls.append([workers, 0])
        return fork_map(fn, tasks, workers, size)

    def forked(*args):
        calls[-1][1] += 1
        return fork_worker(*args)

    monkeypatch.setattr(cli, "_fork_map", record)
    monkeypatch.setattr(cli, "_fork_worker", forked)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_WINDOW", window)
    return calls


_BOX_1 = ["batch", "--family", "z^2+c", "--c-num-max", "1", "--c-den-max", "1"]  # 3 maps
_BOX_8 = ["batch", "--family", "z^2+c", "--c-num-max", "8", "--c-den-max", "8",
          "--height", "4"]  # 87 maps

# the batch window: one window for every box below, or windows that split them unevenly
_WINDOWS = (cli._WINDOW, 2, 10)


def _workers(jobs, cpus, maps, window):
    """batch's worker count: never more than the jobs or the CPUs, and one per full
    window of maps at most, but at least one."""
    return min(jobs, cpus, max(1, maps // window))


def test_batch_pool_never_has_more_workers_than_maps(monkeypatch, capsys):
    for window in _WINDOWS:
        calls = _record_workers(monkeypatch, 64, window)
        assert main(_BOX_1 + ["--jobs", "100000"]) == 0
        assert "maps analyzed: 3" in capsys.readouterr().out
        assert main(_BOX_8 + ["--jobs", "2"]) == 0
        workers = [w for w, _ in calls]
        assert workers == [_workers(100000, 64, 3, window), _workers(2, 64, 87, window)]
        assert workers[0] <= 3 and workers[1] <= 87
        assert [forks for _, forks in calls] == [w - 1 for w in workers]
        capsys.readouterr()


def test_batch_never_forks_more_workers_than_cpus(monkeypatch, capsys, tmp_path):
    outputs, tables = [], []
    for window in _WINDOWS:
        for cpus, jobs in ((1, 1), (64, 5), (2, 100000), (1, 100000), (3, 3)):
            calls = _record_workers(monkeypatch, cpus, window)
            out = tmp_path / f"{window}-{cpus}-{jobs}.csv"
            assert main(_BOX_8 + ["--jobs", str(jobs), "--csv", str(out)]) == 0
            outputs.append(capsys.readouterr().out)
            tables.append(out.read_bytes())
            workers = [w for w, _ in calls]
            assert workers == [_workers(jobs, cpus, 87, window)] and workers[0] <= cpus
            assert calls == [[workers[0], workers[0] - 1]]
    assert len(set(outputs)) == 1 and "maps analyzed: 87" in outputs[0]
    assert len(set(tables)) == 1


def test_a_sweep_of_less_than_two_windows_forks_nothing(monkeypatch, capsys, tmp_path):
    # box 32 (1,295 maps) is less than one window of 4,096: one process, whatever --jobs
    calls = _record_workers(monkeypatch, 2, cli._WINDOW)
    out = tmp_path / "box32.csv"
    assert main(["batch", "--family", "z^2+c", "--c-num-max", "32", "--c-den-max", "32",
                 "--jobs", "2", "--csv", str(out)]) == 0
    assert "maps analyzed: 1295" in capsys.readouterr().out
    assert calls == [[1, 0]]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_CSV_SHA256
    # box 8 (87 maps) is one full window of 44 and a part, but two full windows of 43
    one = tmp_path / "one.csv"
    assert main(_BOX_8 + ["--csv", str(one)]) == 0
    for window, forks in ((44, 0), (43, 1)):
        calls = _record_workers(monkeypatch, 2, window)
        two = tmp_path / f"two-{window}.csv"
        assert main(_BOX_8 + ["--jobs", "2", "--csv", str(two)]) == 0
        assert calls == [[forks + 1, forks]]
        assert two.read_bytes() == one.read_bytes()
    capsys.readouterr()


def test_usable_cpus_are_the_affinity_mask_where_there_is_one(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def test_batch_builds_each_q_table_once_per_place_count(tmp_path, capsys):
    # --jobs 1 runs every map here, so the caches it fills are this process's
    cli._within_q.cache_clear()
    aggregate_bounds.cache_clear()
    out = tmp_path / "box8.csv"
    assert main(_BOX_8 + ["--csv", str(out)]) == 0
    assert "maps analyzed: 87" in capsys.readouterr().out
    with out.open(newline="") as fh:
        checked = {row["s"] for row in csv.DictReader(fh) if row["count_le_Q"] != "SKIPPED"}
    info = aggregate_bounds.cache_info()
    assert len(checked) > 1 and info.misses == len(checked)


def test_verify_exits_4_on_a_failed_count(zero_bounds, capsys):
    assert main(["verify", "--map", "z^2-21/16", "--suite", "taillemmas"]) == 4
    assert capsys.readouterr().out == (
        "[FAIL] tail_count_lemmas: inequality violated\n"
        "    period 2 cycle at -5/4: 2 tail points > L2(2,2)\n"
        "    period 1 cycle at -3/4: 1 tail points > L1(2,2)\n"
        "    fixed point -3/4 with a 2-cycle present: 1 > L4(2,2)\n"
        "    period 1 cycle at 7/4: 1 tail points > L1(2,2)\n"
        "    fixed point 7/4 with a 2-cycle present: 1 > L4(2,2)\n")
    assert main(["verify", "--map", "z^2-1", "--suite", "theorems"]) == 4
    assert capsys.readouterr().out == (
        "[FAIL] preper_bound_Q\n"
        "    4 preperiodic points > Q(2,1)\n"
        "[FAIL] preper_bound_L\n"
        "    4 preperiodic points > L(2,1)\n"
        "[PASS] per_bound_three_tailish\n"
        "[SKIPPED] tail_bound_four_periodic: only 3 periodic points\n")


def test_batch_exits_4_on_a_failed_count(zero_bounds, tmp_path, capsys):
    assert main(_BOX_1) == 4
    assert capsys.readouterr().out == (
        "maps analyzed: 3\n"
        "max |PrePer| = 4 at c = -1, c = 0\n"
        "preperiodic count bound violated at c = -1, c = 0, c = 1\n")
    # an entry with undecided starts is SKIPPED, never FAIL; one application leaves
    # c = -2, -1 and 0 undecided
    out = tmp_path / "box2.csv"
    assert main(["batch", "--family", "z^2+c", "--c-num-max", "2", "--c-den-max", "2",
                 "--max-iters", "1", "--csv", str(out)]) == 4
    with out.open(newline="") as fh:
        verdicts = {(row["incomplete"], row["count_le_Q"]) for row in csv.DictReader(fh)}
    assert verdicts == {("yes", "SKIPPED"), ("no", "FAIL")}
    capsys.readouterr()


@pytest.mark.parametrize("count, workers", [(7, 3), (2, 2), (7, 1), (11, 2), (11, 3), (13, 3)])
def test_fork_map_returns_slices_in_task_order(count, workers):
    here = os.getpid()
    for window in (cli._WINDOW, 3, 4):
        windows = list(cli._fork_map(lambda t: (t * t, os.getpid()), iter(range(count)),
                                     workers, window))
        assert [len(w) for w in windows] == [min(window, count - k)
                                             for k in range(0, count, window)]
        rows = [row for w in windows for row in w]
        assert [square for square, _ in rows] == [t * t for t in range(count)]
        # in each window slice 0 runs here, every other slice in a child of its own
        by_slice = [set() for _ in range(workers)]
        for w in windows:
            for i in range(workers):
                by_slice[i] |= {pid for _, pid in w[i::workers]}
        assert by_slice[0] == {here}
        children = {pid for _, pid in rows if pid != here}
        assert all(len(pids) == 1 for pids in by_slice) and len(children) == workers - 1 <= 2


def test_fork_map_raises_a_child_s_exception_here():
    def square(t):
        if t == 4:
            raise ValueError(f"task {t} refused")
        return t * t

    # task 4 sits in slice 1 of its window, which a child runs first and this process again
    for window in (cli._WINDOW, 5, 3):
        with pytest.raises(ValueError, match=r"^task 4 refused$"):
            list(cli._fork_map(square, range(7), 3, window))


def test_a_failed_child_s_later_slices_run_here():
    # a child that fails only in itself: its slice of the window runs here, and so
    # does every later slice it would have sent, with no row lost or reordered
    here = os.getpid()

    def square(t):
        if t == 4 and os.getpid() != here:
            raise ValueError("a child refused")
        return t * t, os.getpid()

    rows = [row for w in cli._fork_map(square, range(11), 2, 3) for row in w]
    assert [sq for sq, _ in rows] == [t * t for t in range(11)]
    # windows [0, 1, 2], [3, 4, 5], ...: the child sends task 1 and fails at task 4
    assert [pid == here for _, pid in rows] == [True, False] + [True] * 9


def test_batch_without_fork_matches_one_job(monkeypatch, tmp_path):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(_BOX_8 + ["--csv", str(one)]) == 0
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    monkeypatch.delattr(os, "fork")
    for window in _WINDOWS:
        monkeypatch.setattr(cli, "_WINDOW", window)
        assert main(_BOX_8 + ["--jobs", "3", "--csv", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_csv_that_fails_part_way_exits_2(monkeypatch, capsys):
    # box 8 fails as its last lines are flushed; box 64 in windows of 256 fails part way,
    # and the child that still has windows to send is stopped and reaped
    monkeypatch.setattr(cli, "_WINDOW", 256)
    box_64 = ["batch", "--family", "z^2+c", "--c-num-max", "64", "--c-den-max", "64"]
    for argv in (_BOX_8, box_64):
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs, "--csv", "/dev/full"]) == 2
            assert capsys.readouterr() == (
                "", "error: cannot write /dev/full: No space left on device\n")
            with pytest.raises(ChildProcessError):  # no child left running or unreaped
                os.waitpid(-1, os.WNOHANG)


def test_batch_holds_one_window_of_rows_at_a_time(monkeypatch, tmp_path, capsys):
    # box 64 (5,039 maps) in windows of 256: batch's traced peak stays under a fixed
    # multiple of the peak of one window's rows made and written by hand, where
    # holding every row until the end would take the rows of 20 windows
    monkeypatch.setattr(cli, "_WINDOW", 256)
    argv = ["batch", "--family", "z^2+c", "--c-num-max", "64", "--c-den-max", "64",
            "--csv", str(tmp_path / "box64.csv")]
    assert main(argv) == 0  # the bound caches fill here, before any measurement
    assert "maps analyzed: 5039" in capsys.readouterr().out
    tasks = list(islice(cli._sweep_tasks(cli._read_argv(argv)[1]), 256))
    tracemalloc.start()
    try:
        with open(tmp_path / "window.csv", "w", newline="") as fh:
            base = tracemalloc.get_traced_memory()[0]
            csv.writer(fh).writerows(cli.batch_rows_csv([cli._sweep_entry(t) for t in tasks]))
            window = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * window
    capsys.readouterr()


def test_batch_builds_members_without_parsing(monkeypatch, capsys):
    def refuse(text):
        raise AssertionError(f"batch parsed {text!r}")

    monkeypatch.setattr(cli, "parse_map", refuse)
    assert main(["batch", "--family", "z^2+c", "--c-num-max", "2",
                 "--c-den-max", "2"]) == 0
    capsys.readouterr()


def test_batch_builds_no_inventory(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("batch built an inventory")

    monkeypatch.setattr(orbits, "ProjPoint", refuse)
    monkeypatch.setattr(cli, "enumerate_preperiodic", refuse)
    assert main(["batch", "--family", "z^2+c", "--c-num-max", "2",
                 "--c-den-max", "2"]) == 0
    assert "maps analyzed: 7" in capsys.readouterr().out


def test_a_sweep_member_the_sieve_settles_derives_no_threshold(monkeypatch):
    # box 32 at H = 64: the 1,172 members the sieve settles (one start) never solve
    # for T, and each of the other 123 solves once, however often T is read
    calls = []
    adjugate = ratmap._adjugate_rows
    monkeypatch.setattr(ratmap, "_adjugate_rows", lambda p: calls.append(p) or adjugate(p))
    settled = 0
    for den in range(1, 33):
        for num in range(-32, 33):
            if gcd(num, den) != 1:
                continue
            pair, _ = cli._sweep_pair(num, den)
            before = len(calls)
            preperiodic_counts(pair, 64)
            starts = enumerate_preperiodic(pair, 64).starts
            assert len(calls) - before == (starts > 1), pair
            settled += starts == 1
    assert (settled, len(calls)) == (1172, 123)


def test_a_sweep_member_the_sieve_settles_decides_no_criticality(monkeypatch):
    # box 32 at H = 64: the 1,172 members the sieve settles count (1, 1, 0, 1, False)
    # with no call to _critical, and each of the other 123 calls it once
    calls = []
    critical = orbits._critical
    monkeypatch.setattr(orbits, "_critical",
                        lambda pair, cycles: calls.append(pair) or critical(pair, cycles))
    box = SimpleNamespace(c_num_max=32, c_den_max=32, height=64, max_iters=256)
    settled = 0
    for num, den, height, max_iters in cli._sweep_tasks(box):
        pair, _ = cli._sweep_pair(num, den)
        before = len(calls)
        counts = preperiodic_counts(pair, height, max_iters=max_iters)
        if orbits._polynomial_rows(pair, height) == []:
            assert (len(calls) - before, counts) == (0, (1, 1, 0, 1, False)), pair
            settled += 1
        else:
            assert len(calls) - before == 1, pair
    assert (settled, len(calls)) == (1172, 123)


def test_sweep_pair_equals_the_parsed_map():
    for den in range(1, 9):
        for num in range(-8, 9):
            if gcd(num, den) != 1:
                continue
            c = Fraction(num, den)
            text = f"z^2+{c}" if num >= 0 else f"z^2-{-c}"
            (built, c_text), parsed = cli._sweep_pair(num, den), parse_map(text)
            assert (built.degree, built.a, built.b) == (parsed.degree, parsed.a, parsed.b)
            assert (built.resultant, built.threshold) == (parsed.resultant, parsed.threshold)
            assert str(built) == str(parsed) == text
            assert c_text == str(c)


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


def test_analyze_a_degree_4000_polynomial_in_seconds():
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "p1dyn", "analyze", "--map", "z^4000+1",
                           "--height", "4"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 5


def test_module_entrypoint_missing_map():
    done = subprocess.run([sys.executable, "-m", "p1dyn", "analyze"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: analyze: the following arguments are required: --map\n"
