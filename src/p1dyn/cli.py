"""Command line front end.

Subcommands: analyze (reduction data, preperiodic inventory, bound table),
verify (proposition and counting checks), bounds (the bound table alone),
batch (a sweep over the quadratic family z^2 + c).

Exit codes: 0 success, 2 argument or parse error, 3 incomplete inventory,
4 a verification check failed.

One constant table, _COMMANDS, gives each command its handler, help line
and flags, and one loop reads argv against it; the --help text is made from
the same table.  Flags are exact names, written --flag value or
--flag=value.  An argv mistake prints one "error: ..." line on stderr and
raises SystemExit(2).  main(argv) may be called repeatedly from Python;
each call reads its argv into a new namespace, so nothing carries over
from one call to the next.

batch streams its sweep in one process: the members come from a generator,
one denominator row at a time, each row of the CSV is one flat tuple in its
column order, and the rows are made a window of _WINDOW consecutive members
at a time.  A row's den is factored once and its sieve rules (ii) and (iii)
decided once, so a member that they or rule (i) settle costs no pair and no
walk.  The CSV is opened before the first member is computed, each window's
lines are written as soon as the earlier windows are, and only the summary
(max |PrePer| and where, the undecided count, the violations) is kept, so
memory does not grow with the box.  --jobs is accepted, refused below 1, and
changes nothing.
"""

import csv
import sys
from functools import lru_cache
from itertools import chain, islice
from math import gcd
from types import SimpleNamespace

from .bounds import BOUND_ORDER, BoundInputError, aggregate_bounds
from .intarith import (ArithmeticInputError, FactorizationIncompleteError,
                       PrimalityRangeError, _name, factorize, is_prime)
from .mapparse import MapSyntaxError, parse_map
from .orbits import (_escape_radii, _kept_denominators, enumerate_preperiodic,
                     preperiodic_counts)
from .ratmap import DegenerateMapError, HomogPair, reduction_profile
from .report import (SCHEMA_VERSION, OutputSizeError, analysis_report, analysis_text,
                     batch_rows_csv, bound_rows, map_coefficients, report_json,
                     verification_line, verification_to_dict)
from .verify import FAIL, PASS, SKIPPED, SUITE_NAMES, _count_check, run_suite

_INPUT_ERRORS = (MapSyntaxError, DegenerateMapError, ArithmeticInputError,
                 FactorizationIncompleteError, BoundInputError, OutputSizeError)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_s_extra(text: str) -> list[int]:
    primes = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            p = int(tok)
        except ValueError:
            raise ArithmeticInputError(f"--s-extra: {_not_an_int(tok)}") from None
        try:
            if p < 2 or not is_prime(p):
                raise ArithmeticInputError(f"--s-extra: {_name(p)} is not prime")
        except PrimalityRangeError as e:
            raise ArithmeticInputError(f"--s-extra: {e}")
        primes.append(p)
    return primes


def _cannot_write(path: str, e: OSError) -> int:
    return _fail(f"cannot write {path}: {e.strerror or e}")


def _write_file(path: str, text: str) -> bool:
    """Writes text to path; on failure prints an error line and returns False."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        _cannot_write(path, e)
        return False
    return True


def cmd_analyze(args) -> int:
    try:
        pair = parse_map(args.map)
        map_coefficients(pair)  # refuse an unprintable map before the heavy work
        profile = reduction_profile(pair)
        places = profile.places
        if args.s_extra:
            places = places.extended(_parse_s_extra(args.s_extra))
        inv = None
        if pair.degree >= 2:
            inv = enumerate_preperiodic(pair, args.height, max_iters=args.max_iters)
        report = analysis_report(pair, profile, places, inv)
    except _INPUT_ERRORS as e:
        return _fail(str(e))
    sys.stdout.write(analysis_text(report))
    if args.json and not _write_file(args.json, report_json(report)):
        return 2
    if inv is None:
        return _fail("dynamical analysis needs a map of degree at least 2")
    return 3 if inv.incomplete else 0


def cmd_verify(args) -> int:
    try:
        pair = parse_map(args.map)
        reports = run_suite(pair, args.suite, height=args.height,
                            max_iters=args.max_iters)
    except _INPUT_ERRORS as e:
        return _fail(str(e))
    for r in reports:
        print(verification_line(r))
    if args.json:
        document = {
            "schema_version": SCHEMA_VERSION,
            "map": {"input": str(pair)},
            "suite": args.suite,
            "verifications": [verification_to_dict(r) for r in reports],
        }
        if not _write_file(args.json, report_json(document)):
            return 2
    return 4 if any(r.status == FAIL for r in reports) else 0


def cmd_bounds(args) -> int:
    try:
        rows = bound_rows(args.d, args.s, args.which)
    except BoundInputError as e:
        return _fail(str(e))
    for row in rows:
        print(row)
    return 0


# a box-64 sweep asks this of 12 distinct (s, count)
@lru_cache(maxsize=64)
def _within_q(s: int, count: int) -> bool:
    """Whether count <= Q(2, s), checked as verify checks it."""
    holds, _ = _count_check(count, aggregate_bounds(2, s)["Q"], f"{count} preperiodic points",
                            f"Q(2,{s})")
    return holds


# rows per window of batch's CSV: box 32's 1,295 fit in one
_WINDOW = 4096


def _sweep_c(num: int, den: int) -> str:
    """c = num/den as str(Fraction(num, den)) writes it, for gcd(num, den) = 1, den >= 1."""
    return str(num) if den == 1 else f"{num}/{den}"


def _sweep_pair(num: int, den: int):
    """(pair, c) for z^2 + num/den: parse_map's pair, source text included, and c
    (``_sweep_c``).  gcd(num, den) = 1 and den >= 1 make the pair normalized, so
    HomogPair divides out no content."""
    c = _sweep_c(num, den)
    source = f"z^2+{c}" if num >= 0 else f"z^2{c}"
    return HomogPair((den, 0, num), (0, 0, den), source), c


def _sweep_entry(num: int, den: int, s: int, bad: tuple, height: int, max_iters: int):
    """One member of z^2 + c as a flat tuple in the CSV's column order: c, s, the bad
    primes, the four counts, whether starts were left undecided and the bound check.
    s and the bad primes are its denominator row's (``_sweep_row``)."""
    pair, c = _sweep_pair(num, den)
    preper, per, tail, per0, incomplete = preperiodic_counts(pair, height, max_iters=max_iters)
    if incomplete:
        status = SKIPPED
    else:
        status = PASS if _within_q(s, preper) else FAIL
    return c, s, bad, preper, per, tail, per0, incomplete, status


def _sweep_row(den: int, num_max: int, height: int, max_iters: int):
    """The members z^2 + num/den, |num| <= num_max and gcd(num, den) = 1, as
    ``_sweep_entry``'s tuples, in CSV order.

    They share Res = den^4, so den is factored once for the bad primes and s,
    and the sieve's rules (ii) and (iii) are decided once for the row
    (orbits module docstring, row form).  A member that they or rule (i) settle
    counts infinity alone, a critical fixed point, with no pair built, no
    reduction profile and no walk; any other goes through ``_sweep_entry``.
    """
    bad = tuple(sorted(factorize(den)))
    s = len(bad) + 1
    settled = (s, bad, 1, 1, 0, 1, False, PASS if _within_q(s, 1) else FAIL)  # after c
    row_settled = not _kept_denominators((den, 0, 1), den, height)
    for num in range(-num_max, num_max + 1):
        if gcd(num, den) != 1:
            continue
        if row_settled or _escape_radii((den, 0, num), den) is None:
            yield (_sweep_c(num, den),) + settled
        else:
            yield _sweep_entry(num, den, s, bad, height, max_iters)


def cmd_batch(args) -> int:
    family = args.family.replace(" ", "")
    if family not in ("z^2+c", "z**2+c"):
        return _fail(f"unsupported family {args.family!r}; only z^2+c is available")
    if args.c_num_max < 1 or args.c_den_max < 1:
        return _fail("--c-num-max and --c-den-max must be at least 1")
    if args.jobs < 1:
        return _fail("--jobs must be at least 1")
    if args.height < 1 or args.max_iters < 1:
        return _fail("search limits must be positive")
    # the CSV is opened before the first member is computed
    try:
        out = open(args.csv, "w", newline="", encoding="utf-8") if args.csv else None
    except OSError as e:
        return _cannot_write(args.csv, e)
    maps = undecided = 0
    best, attained, violations = -1, [], []
    writer = csv.writer(out) if out else None
    members = chain.from_iterable(
        _sweep_row(den, args.c_num_max, args.height, args.max_iters)
        for den in range(1, args.c_den_max + 1))
    try:
        while rows := list(islice(members, _WINDOW)):
            if writer:
                lines = batch_rows_csv(rows)
                try:
                    writer.writerows(lines[1:] if maps else lines)  # one header, at the top
                except OSError as e:
                    return _cannot_write(args.csv, e)
            maps += len(rows)
            for c, _, _, preper, _, _, _, incomplete, status in rows:
                if preper > best:
                    best, attained = preper, []
                if preper == best:
                    attained.append(c)
                undecided += incomplete
                if status == FAIL:
                    violations.append(c)
        if out:
            try:
                out.close()  # its last lines reach the file here
            except OSError as e:
                return _cannot_write(args.csv, e)
    finally:
        if out:
            out.close()
    print(f"maps analyzed: {maps}")
    print(f"max |PrePer| = {best} at " + ", ".join(f"c = {c}" for c in attained))
    if undecided:
        print(f"note: {undecided} sweep entries left starting points undecided")
    if violations:
        print("preperiodic count bound violated at " +
              ", ".join(f"c = {c}" for c in violations))
        return 4
    return 0


_REQUIRED = object()

_MAX_ITERS = ("--max-iters", int, 256, "iteration budget per starting point")

# command: (handler, help line, flags); a flag is (name, kind, default, help line),
# where kind is str, int or a tuple of the accepted values, and its dest is the
# name without the dashes, "-" read as "_"
_COMMANDS = {
    "analyze": (cmd_analyze, "reduction data, preperiodic inventory, bound table", (
        ("--map", str, _REQUIRED, "rational map, e.g. 'z^2-29/16' or '[X^3+2*Y^3:X*Y^2]'"),
        ("--height", int, 1024, "height bound for the point search"),
        _MAX_ITERS,
        ("--s-extra", str, "", "comma separated primes to add to the place set S"),
        ("--json", str, "", "also write the JSON document to this path"),
    )),
    "verify": (cmd_verify, "run proposition and counting checks against a map", (
        ("--map", str, _REQUIRED, "rational map"),
        ("--suite", ("all",) + SUITE_NAMES, "all", "the checks to run"),
        ("--height", int, 64, "height bound for the point search"),
        _MAX_ITERS,
        ("--json", str, "", "also write the JSON document to this path"),
    )),
    "bounds": (cmd_bounds, "print the preperiodic count bound table", (
        ("--d", int, _REQUIRED, "degree of the map, at least 2"),
        ("--s", int, _REQUIRED, "number of places in S including infinity, at least 1"),
        ("--which", BOUND_ORDER, None, "print a single labelled bound"),
    )),
    "batch": (cmd_batch, "sweep the quadratic family z^2 + c", (
        ("--family", str, _REQUIRED, "only 'z^2+c' is supported"),
        ("--c-num-max", int, _REQUIRED, "range bound for the numerator of c"),
        ("--c-den-max", int, _REQUIRED, "range bound for the denominator of c"),
        ("--height", int, 64, "height bound for the point search"),
        _MAX_ITERS,
        ("--jobs", int, 1, "accepted and ignored: batch runs in one process"),
        ("--csv", str, "", "write per-map rows to this path"),
    )),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _usage(command=None) -> str:
    """Help text, from _COMMANDS: the command list, or one command's flags."""
    if command is None:
        lines = ["usage: p1dyn COMMAND [FLAGS]", "",
                 "Exact arithmetic dynamics on the projective line over Q", "", "commands:"]
        lines += [f"  {name:<9} {entry[1]}" for name, entry in _COMMANDS.items()]
        lines += ["", "p1dyn COMMAND --help lists the flags of a command."]
        return "\n".join(lines) + "\n"
    _, about, flags = _COMMANDS[command]
    rows = []
    for flag, kind, default, about_flag in flags:
        if isinstance(kind, tuple):
            about_flag += "; one of " + ", ".join(kind)
        if default is _REQUIRED:
            about_flag += " (required)"
        elif default not in ("", None):
            about_flag += f" (default {default})"
        rows.append((f"{flag} {_dest(flag).upper()}", about_flag))
    width = max(len(left) for left, _ in rows)
    lines = [f"usage: p1dyn {command} [FLAGS]", "", about, "", "flags:"]
    lines += [f"  {left:<{width}}  {text}" for left, text in rows]
    return "\n".join(lines) + "\n"


def _named(token: str) -> str:
    """A bad token as an error names it: quoted, or by its length past 60 characters."""
    return repr(token) if len(token) <= 60 else f"of {len(token)} characters"


def _not_an_int(text: str) -> str:
    """Why int() refused text: too many digits to read, or no integer at all."""
    limit = sys.get_int_max_str_digits()  # process-wide: read here, never changed
    body = text.strip()  # int() reads surrounding whitespace and one sign
    body = body[1:] if body[:1] in ("+", "-") else body
    groups = body.split("_")  # and single underscores between digits, which are not digits
    digits = len(body) - len(groups) + 1
    if all(group.isdecimal() for group in groups) and digits > limit:
        return f"an integer of {digits} digits, past this interpreter's limit of {limit} digits"
    return f"invalid int value {_named(text)}"


def _read_argv(argv):
    """(handler, namespace) for argv, the arguments after the program name.

    The token after a flag is always its value, so a value may start with
    "-"; a repeated flag keeps its last value.  -h or --help prints the
    usage and raises SystemExit(0).
    """
    if not argv:
        raise SystemExit(_fail("a command is required: " + ", ".join(_COMMANDS)))
    command, *rest = argv
    if command in ("-h", "--help"):
        sys.stdout.write(_usage())
        raise SystemExit(0)
    if command not in _COMMANDS:
        choices = ", ".join(_COMMANDS)
        raise SystemExit(_fail(f"unknown command {command!r}; choose from {choices}"))
    handler, _, flags = _COMMANDS[command]
    by_name = {flag[0]: flag for flag in flags}
    values = {}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_usage(command))
            raise SystemExit(0)
        name, eq, text = token.partition("=")
        if name not in by_name:
            raise SystemExit(_fail(f"{command}: unrecognized argument {_named(token)}"))
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise SystemExit(_fail(f"{command}: argument {name} expects a value"))
        kind = by_name[name][1]
        if kind is int:
            try:
                text = int(text)
            except ValueError:
                raise SystemExit(_fail(f"{command}: argument {name}: {_not_an_int(text)}"))
        elif kind is not str and text not in kind:
            choices = ", ".join(kind)
            raise SystemExit(_fail(f"{command}: argument {name}: invalid choice {_named(text)} "
                                   f"(choose from {choices})"))
        values[_dest(name)] = text
    missing = ", ".join(flag for flag, _, default, _ in flags
                        if default is _REQUIRED and _dest(flag) not in values)
    if missing:
        raise SystemExit(_fail(f"{command}: the following arguments are required: {missing}"))
    for flag, _, default, _ in flags:
        values.setdefault(_dest(flag), default)
    return handler, SimpleNamespace(**values)


def main(argv=None) -> int:
    handler, args = _read_argv(sys.argv[1:] if argv is None else argv)
    return handler(args)
