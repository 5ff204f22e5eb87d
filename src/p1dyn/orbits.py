"""Orbit classification and height-bounded preperiodic point enumeration.

Every verdict is a proof.  PERIODIC, TAIL: a repeat occurred.  ESCAPED: a
point passed the map's escape threshold T, above which every step raises the
height, by the resultant certificate g1*F + g2*G = R_1*X^(2d-1),
h1*F + h2*G = R_2*Y^(2d-1) (ratmap.escape_threshold).  UNDECIDED means none
happened within the iteration budget; an inventory containing undecided
candidates is flagged incomplete and never silently treated as finished.

Preperiodic points have height at most T.  enumerate_preperiodic walks every
canonical point up to min(height, T), except for a polynomial pair,
b = (0, ..., 0, b_d) with a_0 != 0, where phi(z) = F(z, 1)/b_d.  There, a
start z = x/y (y >= 1) is dropped when one of these rules, read at the
search height ``height`` and not at min(height, T), holds:

(i)  |z| > R, a radius past which |phi(z)| > |z| on the real line.  At d = 2,
     with B+- = a_1 -+ b_2 and D+- = B+-^2 - 4*a_0*a_2, R is the largest
     |real root| of P+ * P-, P+- = F(z, 1) -+ b_2*z = a_0 z^2 + B+- z + a_2:
     the largest (|B+-| + sqrt(D+-))/(2|a_0|) over D+- >= 0, and no finite
     start is kept when both D+- < 0.  Proof: P+ * P- = F(z, 1)^2 - b_2^2 z^2
     has leading coefficient a_0^2 > 0, so past R it is positive, |phi(z)| >
     |z| and phi(z) is past R again: |z| grows forever.  For z^2 + c,
     D+- = 1 - 4c, so every c > 1/4 keeps only infinity.  At d >= 3,
     R = max(1, (A + |b_d|)/|a_0|), A = sum of |a_i| over i >= 1.  Proof:
     |z| > 1 and |F(z, 1)| >= |z|^(d-1) (|a_0||z| - A) > |z|^(d-1) |b_d| >=
     |z| |b_d|, the same growth; at d = 2 it bounds the exact R above.
(ii) some prime p with k = v_p(y) >= 1 has k*i > v_p(a_0) - v_p(a_i) for
     every i >= 1 with a_i != 0, and k*(d-1) > v_p(a_0) - v_p(b_d).  Proof:
     a_0 z^d strictly dominates, so v_p(phi(z)) = v_p(a_0) - k*d - v_p(b_d)
     < -k, and (ii) holds again at the larger k: v_p(z) falls forever.
     For p not dividing a_0 this holds at every k >= 1, so the kept
     denominators are built from primes of a_0.  K_p is the least k >= 1
     for which (ii) holds; it holds at every k >= K_p.
(iii) a prime p <= height of a_0, with k = v_p(y) < K_p, has one term of
     F(z, 1) of least valuation v at every x of the row, and
     v - v_p(b_d) <= -K_p.  At k >= 1, x is a p-unit, so term a_i z^(d-i)
     has the exact valuation v_p(a_i) - (d-i)*k, and the least must be
     unique; at k = 0 only a_d's is exact, so a_d != 0 with v_p(a_d) below
     every other v_p(a_i), a_i != 0, is needed, and v = v_p(a_d).  Proof:
     v_p(phi(z)) = v - v_p(b_d) <= -K_p, so (ii) holds at phi(z) and z is
     not preperiodic.  For z^2 + c this is Walde-Russo's theorem: a prime of
     odd exponent m in c's denominator keeps no k (only k = m/2 would tie).

A strictly monotone |z| or v_p(z) never repeats, so no dropped start is
preperiodic.  A walk of it could only have escaped or, with too small a
``max_iters``, stayed undecided; so the inventory is the one the full scan
gives, except that such starts, like those above T, are not listed as undecided.
``starts`` counts infinity and the starts the rules keep at the search
height, on the grid capped at T.

A polynomial pair fixes infinity: F(1, 0) = a_0 != 0 and G(1, 0) = 0.  So
when the sieve keeps no row, the walk's whole result is the fixed point
infinity, and it is returned with no walk.  None of the rules reads T, so
such a pair never derives it (ratmap.escape_threshold).

The Wronskian W = F_X*G_Y - F_Y*G_X (ratmap.wronskian) vanishes exactly at the
critical points, so a cycle is critical, its points in ``per0``, when W is 0
at the coprime coordinates of one of its points.  At infinity that value is
W's leading coefficient, the one term i + j = 1 of ratmap.wronskian's sum:
W(1, 0) = d*(a_0*b_1 - a_1*b_0).  For a polynomial b_0 = b_1 = 0, so infinity
is critical, and W is built only for a cycle with a finite point.  So a
pair the sieve settles counts (1, 1, 0, 1, False) with no walk record at all.

One walk serves two callers: enumerate_preperiodic builds the inventory that
``analyze`` and ``verify`` read, and preperiodic_counts returns only the five
counts of a ``batch`` row.
"""

from __future__ import annotations

from math import isqrt

from .intarith import ArithmeticInputError, _strip
from .projline import ProjPoint, coordinates_up_to_height, point_sort_key
from .ratmap import HomogPair, escape_threshold, step_kernel, wronskian
from .record import Record, _set


class OrbitClassification(Record):
    __slots__ = ("kind", "trajectory", "period", "tail_length", "cycle", "steps")

    def __init__(self, kind: str, trajectory: tuple[ProjPoint, ...],
                 period: int | None = None, tail_length: int | None = None,
                 cycle: tuple[ProjPoint, ...] | None = None, steps: int | None = None):
        _set(self, "kind", kind)  # periodic | tail | escaped | undecided
        _set(self, "trajectory", trajectory)
        _set(self, "period", period)
        _set(self, "tail_length", tail_length)
        _set(self, "cycle", cycle)
        _set(self, "steps", steps)


def _check_limits(pair: HomogPair, max_iters: int, height: int = 1):
    if pair.degree < 2:
        raise ArithmeticInputError("orbit analysis needs a map of degree at least 2")
    if max_iters < 1:
        raise ArithmeticInputError("max_iters must be positive")
    if height < 1:
        raise ArithmeticInputError("height bound must be at least 1")


def _walk(step, start, known, max_iters: int, threshold: int):
    """Follow the orbit of ``start`` for at most ``max_iters`` applications of ``step``.

    Returns (outcome, trajectory, hit), the trajectory starting at ``start``:
    "known" when the next point is in ``known`` (hit is that point), "cycle"
    when it repeats trajectory[hit], "escaped" when the last trajectory point
    has a coordinate above ``threshold``, and "undecided" otherwise.
    """
    traj = [start]
    seen = {start: 0}
    cur = start
    for _ in range(max_iters):
        cur = step(*cur)
        if cur in known:
            return "known", traj, cur
        if cur in seen:
            return "cycle", traj, seen[cur]
        traj.append(cur)
        if abs(cur[0]) > threshold or cur[1] > threshold:
            return "escaped", traj, None
        seen[cur] = len(traj) - 1
    return "undecided", traj, None


def classify_point(pair: HomogPair, point: ProjPoint, *,
                   max_iters: int = 256) -> OrbitClassification:
    """Walk the forward orbit until a repeat, an escape, or budget exhaustion.

    An escape, a point above ``escape_threshold(pair)``, proves the orbit infinite.
    """
    _check_limits(pair, max_iters)
    outcome, traj, hit = _walk(step_kernel(pair.a, pair.b), (point.x, point.y), {},
                               max_iters, escape_threshold(pair))
    points = tuple(ProjPoint(x, y) for x, y in traj)
    if outcome == "cycle":
        cycle = points[hit:]
        return OrbitClassification("periodic" if hit == 0 else "tail", points,
                                   period=len(cycle), tail_length=hit, cycle=cycle,
                                   steps=len(points))
    return OrbitClassification(outcome, points, steps=len(points) - 1)


class DynamicalInventory(Record):
    """Points found by cycle and tail; ``per0``: the cycles with a zero of the Wronskian."""

    __slots__ = ("pair", "search_height", "max_iters", "preper", "per", "tail", "per0",
                 "cycles", "tails_by_target", "tail_lengths", "image", "incomplete",
                 "undecided", "starts")

    def __init__(self, pair: HomogPair, search_height: int, max_iters: int,
                 preper: frozenset[ProjPoint], per: frozenset[ProjPoint],
                 tail: frozenset[ProjPoint], per0: frozenset[ProjPoint],
                 cycles: tuple[tuple[ProjPoint, ...], ...],
                 tails_by_target: dict[ProjPoint, tuple[ProjPoint, ...]],
                 tail_lengths: dict[ProjPoint, int], image: dict[ProjPoint, ProjPoint],
                 incomplete: bool, undecided: tuple[ProjPoint, ...], starts: int):
        _set(self, "pair", pair)
        _set(self, "search_height", search_height)
        _set(self, "max_iters", max_iters)
        _set(self, "preper", preper)
        _set(self, "per", per)
        _set(self, "tail", tail)
        _set(self, "per0", per0)
        _set(self, "cycles", cycles)
        _set(self, "tails_by_target", tails_by_target)
        _set(self, "tail_lengths", tail_lengths)
        _set(self, "image", image)
        _set(self, "incomplete", incomplete)
        _set(self, "undecided", undecided)
        _set(self, "starts", starts)  # starts offered to the walker, infinity included


def _kept_exponents(pair: HomogPair, p: int, height: int) -> list[int]:
    """The exponents e < min(K_p, height.bit_length()) that rule (iii) keeps, for
    a prime p of a_0: the values of v_p(y) a kept row can have (module docstring).
    p^e <= height needs e < height.bit_length(), so a huge power of p in a_0
    costs no more than that many steps.
    """
    a, d = pair.a, pair.degree
    vals = [(i, _strip(c, p)[1]) for i, c in enumerate(a) if c]
    top, v_b = vals[0][1], _strip(pair.b[-1], p)[1]
    k_p = max(1, (top - v_b) // (d - 1) + 1, *((top - v) // i + 1 for i, v in vals[1:]))
    # e = 0: only the constant term's valuation is exact; the others' are lower bounds
    least = vals[-1][1]
    drop = a[d] and least - v_b <= -k_p and all(v > least for _, v in vals[:-1])
    kept = [] if drop else [0]
    for e in range(1, min(k_p, height.bit_length())):  # x is a p-unit: all exact
        terms = [v - (d - i) * e for i, v in vals]
        least = min(terms)
        if least - v_b > -k_p or terms.count(least) > 1:
            kept.append(e)
    return kept


def _polynomial_rows(pair: HomogPair, height: int):
    """Rows (y, x bound) of the starts rules (i) to (iii) keep at search height
    ``height``, on the grid up to min(height, T), or None if not a polynomial.

    The rules' decisions read no T: rule (i)'s "both D+- < 0", then rules
    (ii) and (iii), whose trial division of a_0 stops at the search height,
    not at min(height, T).  A pair they leave no row returns [] before T is
    read; only a pair with a row reads T, and its rows are clipped to
    y <= min(height, T) and |x| <= min(height, T), which may leave none.
    Rules (ii) and (iii) are proofs at every prime, so a prime of a_0 in
    (T, height] can only drop more starts: one with no kept exponent
    settles the pair.

    Row y keeps |x| <= floor(y*R); at d = 2 that is the largest
    (y*|B+-| + isqrt(y^2*D+-)) // (2|a_0|) over D+- >= 0, as the floor of a
    quotient by an integer is that of its numerator's floor.  When both
    D+- < 0, no row is kept and a_0 is never factored.

    Rules (ii) and (iii) drop every y with a prime factor p not dividing
    a_0, or with a prime p <= height of a_0 and v_p(y) not among
    ``_kept_exponents(pair, p, height)``; so the kept y are the products of
    p^e over those primes, each e kept, listed directly in ascending order
    from one trial division of a_0.  A prime with no kept exponent leaves no
    row, and only infinity is walked.
    """
    if not pair.polynomial:
        return None
    a, lead = pair.a, abs(pair.a[0])
    if pair.degree == 2:  # rule (i)'s exact R, read before any trial division
        b2, den = pair.b[2], 2 * lead
        radii = [(abs(a[1] - s), (a[1] - s) ** 2 - 4 * a[0] * a[2]) for s in (b2, -b2)]
        radii = [r for r in radii if r[1] >= 0]  # R = max of (s + sqrt(disc)) / den
        if not radii:
            return []
    else:  # R = s / den
        den, radii = lead, [(max(lead, sum(abs(c) for c in a[1:]) + abs(pair.b[-1])), 0)]
    primes, rest, p = [], lead, 2
    while p * p <= rest and p <= height:
        if rest % p == 0:
            primes.append(p)
            rest = _strip(rest, p)[0]
        p += 1
    if 1 < rest <= height:  # rest is 1, a prime, or has no prime factor <= height
        primes.append(rest)
    ys = [1]
    for p in primes:
        powers = [p**e for e in _kept_exponents(pair, p, height)]
        ys = [y * q for y in ys for q in powers if y * q <= height]
        if not ys:
            return []
    cap = min(height, escape_threshold(pair))
    return [(y, min(cap, max((y * s + isqrt(y * y * disc)) // den for s, disc in radii)))
            for y in sorted(ys) if y <= cap]


def _vanishes(form, x: int, y: int) -> bool:
    """Whether the binary form, coefficient i on X^(D-i) Y^i, is 0 at [x : y]."""
    value, ypow = form[0], 1
    for c in form[1:]:
        ypow *= y
        value = value * x + c * ypow
    return value == 0


def _critical(pair: HomogPair, cycles) -> list[bool]:
    """Whether each cycle, given by coprime coordinates, holds a zero of the Wronskian.

    W(1, 0) = d*(a_0*b_1 - a_1*b_0) (module docstring), so W itself is built
    only when some cycle has a finite point.
    """
    a, b = pair.a, pair.b
    w = wronskian(a, b) if any(y for c in cycles for _, y in c) else None
    return [any(_vanishes(w, x, y) if y else a[0] * b[1] == a[1] * b[0] for x, y in c)
            for c in cycles]


def _sieved_rows(pair: HomogPair, height: int, max_iters: int):
    """The limits checked, then ``_polynomial_rows(pair, height)``."""
    _check_limits(pair, max_iters, height)
    return _polynomial_rows(pair, height)


def _walk_grid(pair: HomogPair, height: int, max_iters: int, rows):
    """(cycles, preper_map, undecided, starts, step) of enumerate_preperiodic's
    walk over ``rows``, the sieve's (``_sieved_rows``).

    A polynomial pair whose sieve keeps no row gets the walk of infinity
    alone, a fixed point, with no walk and no T: one cycle, one start.
    """
    step = step_kernel(pair.a, pair.b)
    if rows == []:
        return [((1, 0),)], {(1, 0): (0, 0)}, [], 1, step
    threshold = escape_threshold(pair)
    grid_height = min(height, threshold)

    cycles: list[tuple[tuple[int, int], ...]] = []
    preper_map: dict[tuple[int, int], tuple[int, int]] = {}  # point -> (tail_len, cycle id)
    undecided: list[tuple[int, int]] = []

    starts = 0
    for start in coordinates_up_to_height(grid_height, rows):
        starts += 1
        if start in preper_map:
            continue
        outcome, traj, hit = _walk(step, start, preper_map, max_iters, threshold)
        if outcome == "escaped":
            continue
        if outcome == "undecided":
            undecided.append(start)
            continue
        if outcome == "known":
            tail_len, cid = preper_map[hit]
        else:
            cid = len(cycles)
            cycles.append(tuple(traj[hit:]))
            for pt in traj[hit:]:
                preper_map[pt] = (0, cid)
            traj, tail_len = traj[:hit], 0
        # the successor of traj[-1] has tail length tail_len
        for offset, pt in enumerate(reversed(traj)):
            preper_map[pt] = (tail_len + offset + 1, cid)
    return cycles, preper_map, undecided, starts, step


def preperiodic_counts(pair: HomogPair, height: int = 1024, *,
                       max_iters: int = 256) -> tuple[int, int, int, int, bool]:
    """(preper, per, tail, per0, incomplete): the sizes of enumerate_preperiodic's sets.

    Counted straight from the walk; no point, order or image is built.  A
    pair the sieve settles counts (1, 1, 0, 1, False), infinity a critical
    fixed point, before any walk, count or W (module docstring).
    """
    rows = _sieved_rows(pair, height, max_iters)
    if rows == []:
        return 1, 1, 0, 1, False
    cycles, preper_map, undecided, _, _ = _walk_grid(pair, height, max_iters, rows)
    per = sum(map(len, cycles))
    per0 = sum(len(c) for c, crit in zip(cycles, _critical(pair, cycles)) if crit)
    return len(preper_map), per, len(preper_map) - per, per0, bool(undecided)


def enumerate_preperiodic(pair: HomogPair, height: int = 1024, *,
                          max_iters: int = 256) -> DynamicalInventory:
    """Classify every canonical point up to the height bound that can be preperiodic.

    Above T = escape_threshold(pair) every step raises the height, so only the
    candidates from ``coordinates_up_to_height`` at min(height, T) are walked;
    a polynomial pair also skips the starts that its rules (i) to (iii) prove
    to escape (module docstring), and when none is left, infinity alone is
    its fixed point, with no walk.  Each walk runs until its orbit reaches a
    point already known to be preperiodic, closes a new cycle, escapes (a
    point above T, a proof), or uses up ``max_iters``.  The returned
    preperiodic set also contains all forward images of found preperiodic
    points, even above the height bound.  Candidates left undecided are listed
    and make the inventory incomplete; ``starts`` counts infinity and the
    starts the rules keep at the search height, on the grid capped at T.
    Only the ``undecided`` list can differ from a walk of the full grid.  ``per0``
    holds the cycles with a critical point, decided as in preperiodic_counts.
    ``analyze`` and ``verify`` take this inventory; ``batch`` takes only its
    sizes, from ``preperiodic_counts``.
    """
    cycles, preper_map, undecided, starts, step = _walk_grid(
        pair, height, max_iters, _sieved_rows(pair, height, max_iters))

    # each cycle rotated to start at its least point, kept at its walk index
    by_id = []
    for c in cycles:
        cyc = tuple(ProjPoint(x, y) for x, y in c)
        k = min(range(len(cyc)), key=lambda i: point_sort_key(cyc[i]))
        by_id.append(cyc[k:] + cyc[:k])
    per = frozenset(p for cyc in by_id for p in cyc)
    tail_lengths: dict[ProjPoint, int] = {}
    tails_by: dict[ProjPoint, list[ProjPoint]] = {p: [] for p in per}
    for (x, y), (tl, cid) in preper_map.items():
        if tl:
            p = ProjPoint(x, y)
            tail_lengths[p] = tl
            for target in by_id[cid]:
                tails_by[target].append(p)
    tail = frozenset(tail_lengths)
    tails_by_target = {
        p: tuple(sorted(ts, key=point_sort_key)) for p, ts in tails_by.items()
    }

    per0 = frozenset(p for cyc, crit in zip(by_id, _critical(pair, cycles)) if crit
                     for p in cyc)

    image = {p: cyc[(i + 1) % len(cyc)] for cyc in by_id for i, p in enumerate(cyc)}
    for p in tail:
        image[p] = ProjPoint(*step(p.x, p.y))

    return DynamicalInventory(
        pair=pair,
        search_height=height,
        max_iters=max_iters,
        preper=per | tail,
        per=per,
        tail=tail,
        per0=per0,
        cycles=tuple(sorted(by_id, key=lambda c: point_sort_key(c[0]))),
        tails_by_target=tails_by_target,
        tail_lengths=tail_lengths,
        image=image,
        incomplete=bool(undecided),
        undecided=tuple(sorted((ProjPoint(x, y) for x, y in undecided),
                               key=point_sort_key)),
        starts=starts,
    )


def tails_of(inventory: DynamicalInventory, point: ProjPoint) -> tuple[ProjPoint, ...]:
    """Non-periodic points whose forward orbit passes through a periodic point."""
    if point not in inventory.per:
        raise ArithmeticInputError(f"{point} is not a periodic point of this inventory")
    return inventory.tails_by_target[point]
