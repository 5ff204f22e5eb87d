"""Command line front end.

Subcommands: analyze (reduction data, preperiodic inventory, bound table),
verify (proposition and counting checks), bounds (the bound table alone),
batch (a sweep over the quadratic family z^2 + c).

Exit codes: 0 success, 2 argument or parse error, 3 incomplete inventory,
4 a verification check failed.

main(argv) may be called repeatedly from Python: it builds its parser on the
first call and keeps it for the life of the process (build_parser still
returns a fresh one).  Each call parses into a new namespace, so nothing
carries over from one call to the next.

batch --jobs N forks min(N, maps, CPUs) - 1 worker processes directly (no
pool) and sends rows back with marshal; where os.fork does not exist every
slice runs in-process.  Either way the rows, and so the CSV, come out in
task order, byte-identical for any job count.
"""

import argparse
import csv
import io
import marshal
import os
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .bounds import BoundInputError, aggregate_bounds
from .intarith import ArithmeticInputError, FactorizationIncompleteError
from .magnitude import Comparison, compare, exact
from .mapparse import MapSyntaxError, parse_map
from .orbits import enumerate_preperiodic
from .ratmap import DegenerateMapError, make_pair, reduction_profile
from .report import (SCHEMA_VERSION, BOUND_ORDER, OutputSizeError, analysis_report,
                     analysis_text, batch_rows_csv, bound_rows, map_coefficients,
                     report_json, verification_line, verification_to_dict)
from .verify import FAIL, SUITE_NAMES, run_suite

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
            primes.append(int(tok))
        except ValueError:
            raise ArithmeticInputError(f"--s-extra: {tok!r} is not an integer")
    return primes


def _write_file(path: str, text: str) -> bool:
    """Writes text to path; on failure prints an error line and returns False."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        _fail(f"cannot write {path}: {e.strerror or e}")
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
        if not pair.degree_below_2:
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


@lru_cache(maxsize=None)
def _within_q(s: int, count: int) -> bool:
    """Whether count <= Q(2, s); the sweep asks this of few distinct (s, count)."""
    return compare(exact(count), aggregate_bounds(2, s).preperiodic) is not Comparison.GREATER


def _sweep_pair(c: Fraction):
    """The pair parse_map gives for z^2 + c, source text included, built without parsing."""
    return make_pair([1, 0, c], [0, 0, 1], f"z^2+{c}" if c >= 0 else f"z^2-{-c}")


def _sweep_entry(task):
    """Inventory counts for one member of z^2 + c, plus the overall bound check."""
    num, den, height, max_iters = task
    c = Fraction(num, den)
    pair = _sweep_pair(c)
    profile = reduction_profile(pair)
    inv = enumerate_preperiodic(pair, height, max_iters=max_iters)
    if inv.incomplete:
        status = "SKIPPED"
    else:
        status = "PASS" if _within_q(profile.places.size, len(inv.preper)) else FAIL
    return {"c": str(c), "s": profile.places.size,
            "bad_primes": list(profile.bad_primes),
            "preper": len(inv.preper), "per": len(inv.per),
            "tail": len(inv.tail), "per0": len(inv.per0),
            "incomplete": inv.incomplete, "count_le_Q": status}


def _fork_slice(fn, part):
    """(pid, read fd) of a forked child that sends back marshal.dumps([fn(t) for t in part])."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 1
        try:
            data = marshal.dumps([fn(t) for t in part])
            with open(w, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            # leave at once: no exception report, atexit hooks or stdio flushes here
            os._exit(code)
    os.close(w)
    return pid, r


def _collect(pid: int, r: int):
    """The child's rows, or None if it did not exit 0."""
    with open(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    return marshal.loads(data) if os.waitstatus_to_exitcode(status) == 0 else None


def _fork_map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], split into the strided slices tasks[i::workers].

    Slice 0 runs here and slices 1.. in forked children, read back after it.
    A slice whose child failed runs again here, so its exception is raised
    as it would be in-process; without os.fork every slice runs here.
    """
    children = ([_fork_slice(fn, tasks[i::workers]) for i in range(1, workers)]
                if hasattr(os, "fork") else [])
    rows = [None] * len(tasks)
    try:
        rows[::workers] = [fn(t) for t in tasks[::workers]]
    finally:
        # reap every child, also when slice 0 raised
        sent = [_collect(pid, r) for pid, r in children]
    for i in range(1, workers):
        part = sent[i - 1] if sent else None
        rows[i::workers] = [fn(t) for t in tasks[i::workers]] if part is None else part
    return rows


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
    tasks = [(num, den, args.height, args.max_iters)
             for den in range(1, args.c_den_max + 1)
             for num in range(-args.c_num_max, args.c_num_max + 1)
             if gcd(num, den) == 1]
    # every worker starts at once, so never more than the maps or the CPUs
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    rows = _fork_map(_sweep_entry, tasks, workers)
    if args.csv:
        buf = io.StringIO()
        csv.writer(buf).writerows(batch_rows_csv(rows))
        if not _write_file(args.csv, buf.getvalue()):
            return 2
    best = max(r["preper"] for r in rows)
    attained = [r["c"] for r in rows if r["preper"] == best]
    print(f"maps analyzed: {len(rows)}")
    print(f"max |PrePer| = {best} at " + ", ".join(f"c = {c}" for c in attained))
    undecided = sum(1 for r in rows if r["incomplete"])
    if undecided:
        print(f"note: {undecided} sweep entries left starting points undecided")
    violations = [r["c"] for r in rows if r["count_le_Q"] == FAIL]
    if violations:
        print("preperiodic count bound violated at " +
              ", ".join(f"c = {c}" for c in violations))
        return 4
    return 0


def _add_search_flags(sp, height_default: int) -> None:
    sp.add_argument("--height", type=int, default=height_default,
                    help=f"height bound for the point search (default {height_default})")
    sp.add_argument("--max-iters", type=int, default=256, dest="max_iters",
                    help="iteration budget per starting point (default 256)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="p1dyn",
        description="Exact arithmetic dynamics on the projective line over Q")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze",
                       help="reduction data, preperiodic inventory, bound table")
    a.add_argument("--map", required=True,
                   help="rational map, e.g. 'z^2-29/16' or '[X^3+2*Y^3:X*Y^2]'")
    _add_search_flags(a, 1024)
    a.add_argument("--s-extra", default="", dest="s_extra",
                   help="comma separated primes to add to the place set S")
    a.add_argument("--json", default="",
                   help="also write the JSON document to this path")
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify",
                       help="run proposition and counting checks against a map")
    v.add_argument("--map", required=True)
    v.add_argument("--suite", default="all", choices=("all",) + SUITE_NAMES)
    _add_search_flags(v, 64)
    v.add_argument("--json", default="")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bounds", help="print the preperiodic count bound table")
    b.add_argument("--d", type=int, required=True, help="degree of the map, at least 2")
    b.add_argument("--s", type=int, required=True,
                   help="number of places in S including infinity, at least 1")
    b.add_argument("--which", choices=BOUND_ORDER, default=None,
                   help="print a single labelled bound")
    b.set_defaults(func=cmd_bounds)

    bt = sub.add_parser("batch", help="sweep the quadratic family z^2 + c")
    bt.add_argument("--family", required=True, help="only 'z^2+c' is supported")
    bt.add_argument("--c-num-max", type=int, required=True, dest="c_num_max",
                    help="range bound for the numerator of c")
    bt.add_argument("--c-den-max", type=int, required=True, dest="c_den_max",
                    help="range bound for the denominator of c")
    _add_search_flags(bt, 64)
    bt.add_argument("--jobs", type=int, default=1,
                    help="worker processes (default 1)")
    bt.add_argument("--csv", default="", help="write per-map rows to this path")
    bt.set_defaults(func=cmd_batch)
    return ap


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    # built on first use, not at import: importing the module stays cheap
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    return args.func(args)
