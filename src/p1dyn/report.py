"""Serialization of analysis results to JSON documents and terminal text.

The JSON layout is versioned (schema_version "1") and deterministic: point
sets are sorted by canonical coordinates, bound labels appear in a fixed
order, and every number that can exceed float precision is emitted as a
decimal string.
"""

import json

from .bounds import BOUND_ORDER, bound_table
from .magnitude import digit_count, force_exact, int_digits
from .orbits import DynamicalInventory
from .projline import format_point, point_sort_key
from .ratmap import HomogPair, PlaceSet, ReductionProfile
from .verify import FAIL, VerificationReport

SCHEMA_VERSION = "1"

# exact values longer than this are summarized by their digit count
_EXACT_DISPLAY_DIGITS = 40


class OutputSizeError(ValueError):
    """An integer the document must spell out is past the interpreter's int-string limit."""


def _decimal(n: int, what: str) -> str:
    try:
        return str(n)
    except ValueError:
        raise OutputSizeError(f"{what} of {int_digits(abs(n))} digits is too long "
                              "to write in decimal") from None


def _magnitude_parts(m) -> tuple:
    """(kind, decimal digit count, exact value or exponent) of a bound value."""
    v = force_exact(m)
    if v is not None:
        return "exact", int_digits(v), v
    if m.ln is not None:
        return "exp", digit_count(m), m.ln
    return "astronomical", digit_count(m), None


def render_magnitude(m) -> dict:
    """JSON form of a bound value.

    Exact integers carry their decimal expansion; pure exponentials carry
    the exact exponent; anything else is pinned down by its digit count
    alone.  Digit counts are strings because they can exceed 2**53.  An
    exact value past the int-string limit raises OutputSizeError.
    """
    kind, digits, value = _magnitude_parts(m)
    if kind == "exact":
        return {"kind": kind, "value": _decimal(value, "exact bound"), "digits": str(digits)}
    if kind == "exp":
        return {"kind": kind, "ln": str(value), "digits": str(digits)}
    return {"kind": kind, "digits": str(digits)}


def _bound_text(kind: str, digits: int, value) -> str:
    """Terminal text of a bound value.

    An exact value is turned into decimal only when it is short enough to
    be shown; longer ones are summarized by their digit count.
    """
    if kind == "exact":
        if digits <= _EXACT_DISPLAY_DIGITS:
            return str(value)
        return f"~10^{digits - 1} ({digits} digits, exact)"
    if kind == "exp":
        return f"e^{value} ({digits} digits)"
    return f"~10^{digits - 1} ({digits} digits)"


def format_magnitude(m) -> str:
    return _bound_text(*_magnitude_parts(m))


def bound_rows(d: int, s: int, which: str | None = None) -> list[str]:
    """Text rows for the bound table, one per label."""
    table = bound_table(d, s)
    labels = BOUND_ORDER if which is None else (which,)
    return [f"{label} = {format_magnitude(table[label])}" for label in labels]


def _point_list(points) -> list[str]:
    return [format_point(p) for p in sorted(points, key=point_sort_key)]


def verification_to_dict(r: VerificationReport) -> dict:
    return {
        "check": r.check_name,
        "status": r.status,
        "reason": r.reason,
        "witnesses": list(r.witnesses),
        "parameters": {k: v for k, v in r.parameters},
    }


def map_coefficients(pair: HomogPair) -> tuple[list, list]:
    """Decimal coefficients of the numerator and denominator forms.

    A coefficient past the int-string limit raises OutputSizeError.
    """
    return ([_decimal(c, "coefficient") for c in pair.a],
            [_decimal(c, "coefficient") for c in pair.b])


def analysis_report(pair: HomogPair, profile: ReductionProfile,
                    places: PlaceSet, inventory: DynamicalInventory | None) -> dict:
    """Assemble the full analysis document.

    ``inventory`` is None for maps of degree below 2, where only the static
    reduction data makes sense; the flag records why the rest is missing.
    An integer past the int-string limit raises OutputSizeError.
    """
    numerator, denominator = map_coefficients(pair)
    report = {
        "schema_version": SCHEMA_VERSION,
        "map": {
            "input": str(pair),
            "degree": pair.degree,
            "numerator": numerator,
            "denominator": denominator,
        },
        "resultant": _decimal(profile.resultant, "resultant"),
        "bad_primes": list(profile.bad_primes),
        "S": ["inf"] + sorted(places.finite),
        "s": places.size,
    }
    if inventory is not None:
        inv = inventory
        cycle_strs = [[format_point(p) for p in cyc] for cyc in inv.cycles]
        targets = sorted(inv.tails_by_target, key=point_sort_key)
        report.update({
            "search": {
                "height": inv.search_height,
                "max_iters": inv.max_iters,
                # retired: walks escape at the certified threshold; schema "1" keeps the key
                "escape_height": 1000000,
            },
            "counts": {
                "preper": len(inv.preper),
                "per": len(inv.per),
                "tail": len(inv.tail),
                "per0": len(inv.per0),
            },
            "preper": _point_list(inv.preper),
            "cycles": [
                {"points": pts, "length": len(pts), "critical": inv.cycles[i][0] in inv.per0}
                for i, pts in enumerate(cycle_strs)
            ],
            "tails_by_target": {
                format_point(t): [format_point(q) for q in inv.tails_by_target[t]]
                for t in targets
            },
            "tail_lengths": {
                format_point(p): inv.tail_lengths[p]
                for p in sorted(inv.tail_lengths, key=point_sort_key)
            },
            "bounds": {
                label: render_magnitude(m)
                for label, m in bound_table(pair.degree, places.size).items()
            },
        })
    report["verifications"] = []  # schema "1" keeps the key; analyze runs no checks
    report["flags"] = {
        "degree_below_2": pair.degree < 2,
        "incomplete": inventory.incomplete if inventory is not None else False,
        "undecided": _point_list(inventory.undecided) if inventory is not None else [],
    }
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def analysis_text(report: dict) -> str:
    """Human-readable rendering of an analysis document."""
    lines = []
    m = report["map"]
    lines.append(f"map: {m['input']} (degree {m['degree']})")
    lines.append(f"resultant: {report['resultant']}")
    bad = ", ".join(str(p) for p in report["bad_primes"]) or "none"
    lines.append(f"bad primes: {bad}")
    s_str = ", ".join(str(x) for x in report["S"])
    lines.append(f"S = {{{s_str}}} (s = {report['s']})")
    if "counts" in report:
        c = report["counts"]
        search = report["search"]
        lines.append(f"preperiodic points found up to height {search['height']}: "
                     f"{c['preper']} ({c['per']} periodic, {c['tail']} tail, "
                     f"{c['per0']} on critical cycles)")
        for cyc in report["cycles"]:
            mark = ", critical" if cyc["critical"] else ""
            lines.append(f"  cycle: {' -> '.join(cyc['points'])} "
                         f"(period {cyc['length']}{mark})")
        for cyc in report["cycles"]:
            rep = cyc["points"][0]
            tails = report["tails_by_target"].get(rep, [])
            if tails:
                lines.append(f"  tails into cycle of {rep}: {', '.join(tails)}")
        lines.append(f"bounds (d = {m['degree']}, s = {report['s']}):")
        for label in BOUND_ORDER:
            r = report["bounds"][label]
            text = _bound_text(r["kind"], int(r["digits"]), r.get("value", r.get("ln")))
            lines.append(f"  {label} = {text}")
    flags = report["flags"]
    if flags["degree_below_2"]:
        lines.append("degree below 2: no dynamical analysis")
    if flags["incomplete"]:
        und = ", ".join(flags["undecided"])
        lines.append(f"incomplete: undecided starting points {und}")
    return "\n".join(lines) + "\n"


def verification_line(r: VerificationReport) -> str:
    """One-line (plus witnesses on failure) rendering of a check report."""
    head = f"[{r.status}] {r.check_name}"
    notes = []
    if r.reason:
        notes.append(r.reason)
    checked = dict(r.parameters).get("checked")
    if checked is not None:
        notes.append(f"checked {checked}")
    if notes:
        head += ": " + "; ".join(notes)
    if r.status == FAIL:
        head += "".join(f"\n    {w}" for w in r.witnesses[:8])
    return head


def batch_rows_csv(rows: list[tuple]) -> list[list[str]]:
    """Header plus one row per parameter value, all cells as strings; each row is a
    flat tuple (c, s, bad primes, preper, per, tail, per0, incomplete, count_le_Q)."""
    out = [["c", "s", "bad_primes", "preper", "per", "tail", "per0", "incomplete",
            "count_le_Q"]]
    for c, s, bad, preper, per, tail, per0, incomplete, status in rows:
        out.append([c, str(s), ";".join(map(str, bad)), str(preper), str(per), str(tail),
                    str(per0), "yes" if incomplete else "no", status])
    return out
