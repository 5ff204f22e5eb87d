"""Orbit classification and height-bounded preperiodic point enumeration.

Every verdict is a proof.  PERIODIC, TAIL: a repeat occurred.  ESCAPED: a
point passed the map's escape threshold T, above which every step raises the
height, by the resultant certificate g1*F + g2*G = R_1*X^(2d-1),
h1*F + h2*G = R_2*Y^(2d-1) (ratmap.escape_threshold).  UNDECIDED means none
happened within the iteration budget; an inventory containing undecided
candidates is flagged incomplete and never silently treated as finished.

Preperiodic points have height at most T.  enumerate_preperiodic walks every
canonical point up to min(height, T), except for a polynomial pair,
b = (0, ..., 0, b_d) with a_0 != 0, where phi(z) = F(z, 1)/b_d.  There, with
A = sum of |a_i| over i >= 1, a start z = x/y (y >= 1) is dropped when

(i)  |x|*|a_0| > max(|a_0|, A + |b_d|)*y.  Proof: |z| > 1 and
     |F(z, 1)| >= |z|^(d-1) (|a_0||z| - A) > |z|^(d-1) |b_d| >= |z| |b_d|,
     so |phi(z)| > |z| and (i) holds again at phi(z): |z| grows forever.
(ii) some prime p with k = v_p(y) >= 1 has k*i > v_p(a_0) - v_p(a_i) for
     every i >= 1 with a_i != 0, and k*(d-1) > v_p(a_0) - v_p(b_d).  Proof:
     a_0 z^d strictly dominates, so v_p(phi(z)) = v_p(a_0) - k*d - v_p(b_d)
     < -k, and (ii) holds again at the larger k: v_p(z) falls forever.
     For p not dividing a_0 this holds at every k >= 1, so the kept
     denominators are built from primes of a_0.

A strictly monotone |z| or v_p(z) never repeats, so no dropped start is
preperiodic.  A walk of it could only have escaped or, with too small a
``max_iters``, stayed undecided; so the inventory is the one the full scan
gives, except that such starts, like those above T, are not listed as undecided.

The Wronskian W = F_X*G_Y - F_Y*G_X (ratmap.wronskian) vanishes exactly at the
critical points, so a cycle is critical, its points in ``per0``, when W is 0
at the coprime coordinates of one of its points.
"""

from __future__ import annotations

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


def _check_limits(pair: HomogPair, max_iters: int):
    if pair.degree < 2:
        raise ArithmeticInputError("orbit analysis needs a map of degree at least 2")
    if max_iters < 1:
        raise ArithmeticInputError("max_iters must be positive")


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
        _set(self, "starts", starts)  # candidates offered to the walker, infinity included


def _escape_exponent(pair: HomogPair, p: int) -> int:
    """Least k >= 1 for which rule (ii) drops every start with v_p(y) >= k; p is prime."""
    a, d = pair.a, pair.degree
    top = _strip(a[0], p)[1]
    k = max(1, (top - _strip(pair.b[-1], p)[1]) // (d - 1) + 1)
    for i in range(1, d + 1):
        if a[i]:
            k = max(k, (top - _strip(a[i], p)[1]) // i + 1)
    return k


def _polynomial_rows(pair: HomogPair, height: int):
    """Rows (y, x bound) of the starts rules (i) and (ii) keep, or None if not a polynomial.

    Rule (ii) drops every y with a prime factor p not dividing a_0, or with
    v_p(y) >= ``_escape_exponent(pair, p)``; so the kept y are the products of
    p^e over the primes p <= height of a_0, each e below its exponent, listed
    directly in ascending order from one trial division of a_0.
    """
    a, b = pair.a, pair.b
    if any(b[:-1]) or not a[0]:
        return None
    lead = abs(a[0])
    reach = max(lead, sum(abs(c) for c in a[1:]) + abs(b[-1]))
    primes, rest, p = [], lead, 2
    while p * p <= rest and p <= height:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if 1 < rest <= height:  # rest is 1, a prime, or has no prime factor <= height
        primes.append(rest)
    ys = [1]
    for p in primes:  # p^e <= height needs e < height.bit_length()
        powers = [p**e for e in range(min(_escape_exponent(pair, p), height.bit_length()))]
        ys = [y * q for y in ys for q in powers if y * q <= height]
    return [(y, min(height, reach * y // lead)) for y in sorted(ys)]


def _vanishes(form, point: ProjPoint) -> bool:
    """Whether the binary form, coefficient i on X^(D-i) Y^i, is 0 at the point."""
    top = len(form) - 1
    return sum(c * point.x ** (top - i) * point.y ** i for i, c in enumerate(form)) == 0


def enumerate_preperiodic(pair: HomogPair, height: int = 1024, *,
                          max_iters: int = 256) -> DynamicalInventory:
    """Classify every canonical point up to the height bound that can be preperiodic.

    Above T = escape_threshold(pair) every step raises the height, so only the
    candidates from ``coordinates_up_to_height`` at min(height, T) are walked;
    a polynomial pair also skips the starts that its rules (i) and (ii) prove
    to escape (module docstring).  Each walk runs until its orbit reaches a
    point already known to be preperiodic, closes a new cycle, escapes (a
    point above T, a proof), or uses up ``max_iters``.  The returned
    preperiodic set also contains all forward images of found preperiodic
    points, even above the height bound.  Candidates left undecided are listed
    and make the inventory incomplete; ``starts`` counts the candidates.  Only
    the ``undecided`` list can differ from a walk of the full grid.
    """
    _check_limits(pair, max_iters)
    if height < 1:
        raise ArithmeticInputError("height must be positive")
    step = step_kernel(pair.a, pair.b)
    threshold = escape_threshold(pair)
    grid_height = min(height, threshold)

    cycles: list[tuple[tuple[int, int], ...]] = []
    preper_map: dict[tuple[int, int], tuple[int, int]] = {}  # point -> (tail_len, cycle id)
    undecided: list[tuple[int, int]] = []

    starts = 0
    for start in coordinates_up_to_height(grid_height, _polynomial_rows(pair, grid_height)):
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

    # assemble, with canonical cycle rotations and deterministic ordering
    cycle_points = [tuple(ProjPoint(x, y) for x, y in c) for c in cycles]
    rotated = []
    for cyc in cycle_points:
        k = min(range(len(cyc)), key=lambda i: point_sort_key(cyc[i]))
        rotated.append(cyc[k:] + cyc[:k])
    order = sorted(range(len(rotated)), key=lambda i: point_sort_key(rotated[i][0]))
    renumber = {old: new for new, old in enumerate(order)}
    final_cycles = tuple(rotated[i] for i in order)

    per = frozenset(p for cyc in final_cycles for p in cyc)
    preper_pts = {}
    for (x, y), (tl, cid) in preper_map.items():
        preper_pts[ProjPoint(x, y)] = (tl, renumber[cid])
    preper = frozenset(preper_pts)
    tail = preper - per
    tail_lengths = {p: tl for p, (tl, _) in preper_pts.items() if tl > 0}

    w = wronskian(pair)
    per0 = frozenset(p for cyc in final_cycles if any(_vanishes(w, q) for q in cyc)
                     for p in cyc)

    tails_by: dict[ProjPoint, list[ProjPoint]] = {p: [] for p in per}
    for p, (tl, cid) in preper_pts.items():
        if tl > 0:
            for target in final_cycles[cid]:
                tails_by[target].append(p)
    tails_by_target = {
        p: tuple(sorted(ts, key=point_sort_key)) for p, ts in tails_by.items()
    }

    image = {}
    for cyc in final_cycles:
        for i, p in enumerate(cyc):
            image[p] = cyc[(i + 1) % len(cyc)]
    for p in tail:
        image[p] = ProjPoint(*step(p.x, p.y))

    return DynamicalInventory(
        pair=pair,
        search_height=height,
        max_iters=max_iters,
        preper=preper,
        per=per,
        tail=tail,
        per0=per0,
        cycles=final_cycles,
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
