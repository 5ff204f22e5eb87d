"""Exact verification of the distance propositions and counting bounds.

Every check here encodes a proved statement, so on valid input the expected
status is PASS (or SKIPPED when a hypothesis is not met); a FAIL means the
implementation, not the mathematics, is broken.  All distance conditions of
the shape "for every prime outside S" are decided exhaustively by factoring
cross products: a prime outside every support contributes distance zero to
both sides, so finitely many primes settle the universal claim.  run_suite
factors each pair of its sample points once, into one support table that the
ultrametric and non-expansion checks share.  Non-expansion can fail only at
the primes of the source pair's support, where image distances are read by
valuation: image cross products are never factored.

The ultrametric check runs prime by prime: at p the three inequalities of
a trio hold iff the least of its three δ_p values occurs at least twice, so
trios with at most one pair at p are counted, not walked.
"""

from __future__ import annotations

import itertools

from .bounds import aggregate_bounds, tail_bounds, unit_equation_bounds
from .intarith import _strip, is_prime
from .magnitude import Comparison, compare, exact, force_exact, sum_of
from .orbits import DynamicalInventory, enumerate_preperiodic
from .projline import (
    INFINITE_DISTANCE,
    ProjPoint,
    cross_product,
    distance_support,
    point_sort_key,
    points_up_to_height,
)
from .ratmap import HomogPair, PlaceSet, ReductionProfile, evaluate, reduction_profile
from .record import Record, _set

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

#: Cap on stored confirmation witnesses so large suites stay readable.
_WITNESS_CAP = 24
_SAMPLE_HEIGHT = 4  # run_suite's point-set checks add every point up to this height


class VerificationInputError(ValueError):
    pass


class VerificationReport(Record):
    __slots__ = ("check_name", "status", "reason", "witnesses", "parameters")

    def __init__(self, check_name: str, status: str, reason: str = "",
                 witnesses: tuple = (), parameters: tuple = ()):
        _set(self, "check_name", check_name)
        _set(self, "status", status)
        _set(self, "reason", reason)
        _set(self, "witnesses", witnesses)
        _set(self, "parameters", parameters)

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def _finish(name, failures, confirmations, checked, params, reason=""):
    if failures:
        return VerificationReport(name, FAIL, reason="inequality violated",
                                  witnesses=tuple(failures), parameters=tuple(params))
    witnesses = tuple(confirmations[:_WITNESS_CAP])
    if len(confirmations) > _WITNESS_CAP:
        witnesses += (f"... {len(confirmations) - _WITNESS_CAP} more",)
    params = tuple(params) + (("checked", str(checked)),)
    return VerificationReport(name, PASS, reason=reason, witnesses=witnesses,
                              parameters=params)


def _support(a: ProjPoint, b: ProjPoint):
    """Distance support of a pair; None when the points coincide."""
    return None if a == b else distance_support(a, b)


def _delta(support, p: int):
    """δ_p from a ``_support`` result: infinite if the points coincide, else 0 off it."""
    return INFINITE_DISTANCE if support is None else support.get(p, 0)


def _ultrametric_failure(pts, p: int, sides):
    """(trio, middle position, p, witness); ``sides`` maps each point to δ_p of the other two."""
    i2 = min(sides, key=sides.get)
    trio = tuple(sorted(sides))
    i1, i3 = (i for i in trio if i != i2)
    rhs = min(d for i, d in sides.items() if i != i2)
    return (trio, trio.index(i2), p,
            f"d_{p}({pts[i1]},{pts[i3]})={sides[i2]} < min over {pts[i2]} = {rhs}")


def _sample_table(points):
    """The distinct points in canonical order, and the support of each pair.

    Supports are listed in ``itertools.combinations`` order of the points, so
    both pair checks of one run read the same table and factor each pair once.
    """
    pts = sorted(set(points), key=point_sort_key)
    return pts, [distance_support(a, b) for a, b in itertools.combinations(pts, 2)]


def check_ultrametric(points) -> VerificationReport:
    """Triangle inequality δ_p(P1,P3) >= min(δ_p(P1,P2), δ_p(P2,P3)).

    At p the three inequalities of a trio (one per middle point) all hold
    iff the least of its three δ_p values occurs at least twice.  Trios with
    at most one pair at p are counted, not walked; ``checked`` is the count
    of (trio, middle point, prime of the trio's three supports).
    """
    if len(set(points)) < 3:
        raise VerificationInputError("ultrametric check needs at least three points")
    return _ultrametric(*_sample_table(points))


def _ultrametric(pts, supports) -> VerificationReport:
    n = len(pts)
    # adj[p][i] == {j: δ_p(pts[i], pts[j])} over the pairs whose support holds p;
    # an explicit 0 in a support still counts
    adj: dict = {}
    for (i, j), support in zip(itertools.combinations(range(n), 2), supports):
        for p, d in support.items():
            at_p = adj.setdefault(p, {})
            at_p.setdefault(i, {})[j] = d
            at_p.setdefault(j, {})[i] = d
    found = []  # (trio, middle position, p, witness) of each failed inequality
    checked = 0
    for p, at_p in adj.items():
        edges = wedges = triangles = 0
        for v, nbrs in at_p.items():
            edges += len(nbrs)
            wedges += len(nbrs) * (len(nbrs) - 1) // 2
            for a, b in itertools.combinations(nbrs, 2):
                if b in at_p[a]:
                    if a < v or b < v:
                        continue  # a triangle is met from each corner; take it at its least
                    triangles += 1
                    d_ab = at_p[a][b]
                else:
                    d_ab = 0
                d_va, d_vb = nbrs[a], nbrs[b]
                low = min(d_ab, d_va, d_vb)
                if (d_ab == low) + (d_va == low) + (d_vb == low) == 1:
                    # the one inequality that fails is at the point opposite the minimum
                    found.append(_ultrametric_failure(pts, p, {v: d_ab, a: d_vb, b: d_va}))
        # trios with a pair at p: each pair with each third point counts a trio
        # once per pair at p, so take off its neighbour pairs (one for two
        # pairs, three for a triangle) and give each triangle one back
        checked += 3 * (edges // 2 * (n - 2) - wedges + triangles)
    failures = [witness for *_, witness in sorted(found)]
    return _finish("ultrametric", failures, [f"{n} points, all ordered triples"], checked,
                   [("points", str(n))])


def check_non_expansion(pair: HomogPair, profile: ReductionProfile,
                        points) -> VerificationReport:
    """Good reduction never shrinks distances: δ_p(φP, φQ) >= δ_p(P, Q).

    ``checked`` counts each pair with each good prime of its own support.
    """
    return _non_expansion(pair, profile, *_sample_table(points))


def _non_expansion(pair: HomogPair, profile: ReductionProfile,
                   pts, supports) -> VerificationReport:
    image = {pt: evaluate(pair, pt) for pt in pts}
    bad = set(profile.bad_primes)
    failures, confirmations = [], []
    checked = 0
    for (p1, p2), s_before in zip(itertools.combinations(pts, 2), supports):
        i1, i2 = image[p1], image[p2]
        c = cross_product(i1, i2)
        for p in sorted(s_before.keys() - bad):
            before = s_before[p]
            # p comes from factorize, so it needs no second primality proof
            after = INFINITE_DISTANCE if c == 0 else _strip(c, p)[1]
            checked += 1
            if after < before:
                failures.append(
                    f"d_{p}({i1},{i2})={after} < "
                    f"d_{p}({p1},{p2})={before}"
                )
    confirmations.append(f"{len(pts)} points, all pairs, good primes only")
    return _finish("non_expansion", failures, confirmations, checked,
                   [("map", pair.source or "pair"), ("points", str(len(pts)))])


def check_chain_lemma(pair: HomogPair, profile: ReductionProfile,
                      p0: ProjPoint, chain) -> VerificationReport:
    """Distances along a chain into a fixed point.

    chain lists consecutive iterates ending at the fixed point p0; for
    positions i < j before p0 (so chain[i] is farther from p0) the claim is
    d_p(chain[i], chain[j]) = d_p(chain[i], p0) <= d_p(chain[j], p0) at
    every good prime p.
    """
    chain = list(chain)
    if evaluate(pair, p0) != p0:
        raise VerificationInputError(f"{p0} is not a fixed point")
    if not chain or chain[-1] != p0:
        raise VerificationInputError("chain must end at the fixed point")
    if len(chain) < 3:
        raise VerificationInputError("chain needs two points before the fixed point")
    for i in range(len(chain) - 1):
        image = evaluate(pair, chain[i])
        if image != chain[i + 1]:
            raise VerificationInputError(
                f"chain breaks at position {i}: "
                f"image of {chain[i]} is {image}, not {chain[i + 1]}"
            )
    bad = set(profile.bad_primes)
    failures, confirmations = [], []
    checked = 0
    for i, j in itertools.combinations(range(len(chain) - 1), 2):
        far, near = chain[i], chain[j]
        # a chain may reach p0 before its last entry, so any pair can coincide
        sups = (_support(far, near), _support(far, p0), _support(near, p0))
        primes = set()
        for support in sups:
            primes.update(support or ())
        for p in sorted(primes - bad):
            d_fn, d_f0, d_n0 = (_delta(support, p) for support in sups)
            checked += 1
            if d_fn != d_f0 or not d_f0 <= d_n0:
                failures.append(
                    f"p={p}: d({far},{near})={d_fn}, "
                    f"d({far},{p0})={d_f0}, "
                    f"d({near},{p0})={d_n0}"
                )
            else:
                confirmations.append(
                    f"p={p}: {d_fn} = {d_f0} <= {d_n0} "
                    f"for ({far}, {near})"
                )
    return _finish("chain_equality", failures, confirmations, checked,
                   [("fixed_point", str(p0)), ("chain_length", str(len(chain) - 1))])


def _cycle_of(inv: DynamicalInventory, point: ProjPoint):
    for cycle in inv.cycles:
        if point in cycle:
            return cycle
    return None


def _excluded_periodic(inv: DynamicalInventory, tail_point: ProjPoint) -> ProjPoint:
    """The unique periodic point reachable from a tail point in a multiple
    of its cycle length: entry shifted back by the tail length."""
    t = inv.tail_lengths[tail_point]
    cur = tail_point
    for _ in range(t):
        cur = inv.image[cur]
    cycle = _cycle_of(inv, cur)
    return cycle[(cycle.index(cur) - t) % len(cycle)]


def _zero_distance_check(name: str, inv: DynamicalInventory,
                         profile: ReductionProfile, pairs, params) -> VerificationReport:
    """Each pair (P, Q) of ``pairs`` has distance zero at every good prime."""
    if inv.incomplete:
        return VerificationReport(name, SKIPPED, reason="inventory incomplete")
    bad = set(profile.bad_primes)
    failures, confirmations = [], []
    for a, b in pairs:
        support = distance_support(a, b).keys() - bad
        if support:
            failures.append(f"d_p({a},{b}) nonzero at good primes {sorted(support)}")
        else:
            confirmations.append(f"({a}, {b}) zero outside S")
    return _finish(name, failures, confirmations, len(pairs), params)


def check_tail_periodic_distance(inv: DynamicalInventory,
                                 profile: ReductionProfile) -> VerificationReport:
    """Tail points sit at distance zero from almost every periodic point.

    The only periodic point allowed nonzero distance from a tail point R is
    the one R reaches after a multiple of the cycle length.
    """
    periodic = sorted(inv.per, key=point_sort_key)
    pairs = []
    for r in sorted(inv.tail, key=point_sort_key):
        excluded = _excluded_periodic(inv, r)
        pairs.extend((p_per, r) for p_per in periodic if p_per != excluded)
    return _zero_distance_check(
        "tail_periodic_distance", inv, profile, pairs,
        [("tails", str(len(inv.tail))), ("periodic", str(len(inv.per)))])


def check_critical_distance(inv: DynamicalInventory,
                            profile: ReductionProfile) -> VerificationReport:
    """Periodic points are at distance zero from every critical-cycle point."""
    critical = sorted(inv.per0, key=point_sort_key)
    pairs = [(p_per, q) for p_per in sorted(inv.per, key=point_sort_key)
             for q in critical if p_per != q]
    return _zero_distance_check(
        "critical_distance", inv, profile, pairs,
        [("periodic", str(len(inv.per))), ("critical_cycle", str(len(inv.per0)))])


def _restricted_support(point: ProjPoint, q: ProjPoint, excluded_primes):
    support = _support(point, q)
    if support is None:
        return None  # infinite distance everywhere
    return {p: v for p, v in support.items() if p not in excluded_primes}


def three_point_set(q1: ProjPoint, q2: ProjPoint, q3: ProjPoint,
                    places: PlaceSet, targets=None, height: int = 50):
    """Points whose distances to three fixed points obey a rigid pattern.

    Without targets: all P of height <= height with
    d_p(P,q1) = d_p(P,q2) = d_p(P,q3) at every prime p outside places.
    With targets, a map (i, p) -> n with i in {0,1,2}: demands
    d_p(P, q_i) = n at the given primes and 0 at every other good prime.
    Membership is decided exactly by factoring the three cross products.
    """
    qs = (q1, q2, q3)
    if len(set(qs)) != 3:
        raise VerificationInputError("the three reference points must be distinct")
    excluded = set(places.finite)
    wanted = None
    if targets is not None:
        wanted = [{}, {}, {}]
        for (i, p), n in targets.items():
            if i not in (0, 1, 2):
                raise VerificationInputError(f"target index {i} out of range")
            if not is_prime(p):
                raise VerificationInputError(f"target prime {p} is not prime")
            if p in excluded:
                raise VerificationInputError(f"target prime {p} lies in the place set")
            if not isinstance(n, int) or n < 0:
                raise VerificationInputError("target distances are nonnegative integers")
            if n > 0:
                wanted[i][p] = n
    result = set()
    for cand in points_up_to_height(height):
        sups = [_restricted_support(cand, q, excluded) for q in qs]
        if wanted is None:
            if sups[0] is not None and sups[0] == sups[1] == sups[2]:
                result.add(cand)
        else:
            if all(s is not None and s == w for s, w in zip(sups, wanted)):
                result.add(cand)
    # trivially wide cardinality cap; a violation would mean an enumeration bug
    assert _le(len(result), unit_equation_bounds(2, places.size).two_term)
    return result


def four_point_set(q1: ProjPoint, q2: ProjPoint, q3: ProjPoint, q4: ProjPoint,
                   places: PlaceSet, height: int = 50):
    """Points equidistant from q1,q2 and from q3,q4 at every good prime."""
    qs = (q1, q2, q3, q4)
    if len(set(qs)) != 4:
        raise VerificationInputError("the four reference points must be distinct")
    excluded = set(places.finite)
    result = set()
    for cand in points_up_to_height(height):
        s1 = _restricted_support(cand, q1, excluded)
        s2 = _restricted_support(cand, q2, excluded)
        if s1 is None or s2 is None or s1 != s2:
            continue
        s3 = _restricted_support(cand, q3, excluded)
        s4 = _restricted_support(cand, q4, excluded)
        if s3 is None or s4 is None or s3 != s4:
            continue
        result.add(cand)
    cap = sum_of(unit_equation_bounds(3, places.size).n_term, exact(2))
    assert _le(len(result), cap)
    return result


def _le(count: int, bound) -> bool:
    return compare(exact(count), bound) is not Comparison.GREATER


def check_tail_count_lemmas(inv: DynamicalInventory,
                            profile: ReductionProfile) -> VerificationReport:
    """Tail counts against the period-specific caps L1, L2, L3 and L4."""
    name = "tail_count_lemmas"
    if inv.incomplete:
        return VerificationReport(name, SKIPPED, reason="inventory incomplete")
    d = inv.pair.degree
    s = profile.places.size
    caps = tail_bounds(d, s)
    by_period = {1: ("L1", caps.fixed_cycle), 2: ("L2", caps.two_cycle),
                 3: ("L3", caps.three_cycle)}
    has_fixed = any(len(c) == 1 for c in inv.cycles)
    has_two = any(len(c) == 2 for c in inv.cycles)
    failures, confirmations = [], []
    checked = 0
    for cycle in inv.cycles:
        n = len(cycle)
        count = len(inv.tails_by_target[cycle[0]])
        if n in by_period:
            label, cap = by_period[n]
            checked += 1
            if _le(count, cap):
                confirmations.append(
                    f"period {n} cycle at {cycle[0]}: {count} tail points <= {label}({d},{s})"
                )
            else:
                failures.append(
                    f"period {n} cycle at {cycle[0]}: {count} tail points > {label}({d},{s})"
                )
        if n == 1 and has_fixed and has_two:
            checked += 1
            if _le(count, caps.fixed_and_double):
                confirmations.append(
                    f"fixed point {cycle[0]} with a 2-cycle present: "
                    f"{count} <= L4({d},{s})"
                )
            else:
                failures.append(
                    f"fixed point {cycle[0]}: {count} > L4({d},{s})"
                )
    if checked == 0:
        return VerificationReport(name, SKIPPED,
                                  reason="no cycles of period 1, 2, or 3",
                                  parameters=(("d", str(d)), ("s", str(s))))
    return _finish(name, failures, confirmations, checked,
                   [("d", str(d)), ("s", str(s))])


def check_main_theorems(inv: DynamicalInventory,
                        profile: ReductionProfile) -> tuple[VerificationReport, ...]:
    """The headline counts against their bounds, one report per statement.

    Always: |preper| <= Q.  With a cycle of length >= 2: |preper| <= L.
    With three points that are tail or critical-cycle: |per| <= TPLA + 3.
    With four periodic points: |tail| + |per0| <= T.  Unmet hypotheses
    produce SKIPPED, mirroring how the statements are conditioned.
    """
    if inv.incomplete:
        reason = "inventory incomplete"
        return tuple(VerificationReport(n, SKIPPED, reason=reason)
                     for n in ("preper_bound_Q", "preper_bound_L",
                               "per_bound_three_tailish", "tail_bound_four_periodic"))
    d = inv.pair.degree
    s = profile.places.size
    agg = aggregate_bounds(d, s)
    params = (("d", str(d)), ("s", str(s)))

    def verdict(name, ok, text):
        """PASS/FAIL with ``text`` as witness; SKIPPED with it as reason when ok is None."""
        if ok is None:
            return VerificationReport(name, SKIPPED, reason=text, parameters=params)
        return VerificationReport(name, PASS if ok else FAIL, witnesses=(text,),
                                  parameters=params)

    n_preper = len(inv.preper)
    ok = _le(n_preper, agg.preperiodic)
    rel = "<=" if ok else ">"
    reports = [verdict("preper_bound_Q", ok,
                       f"{n_preper} preperiodic points {rel} Q({d},{s})")]

    if any(len(c) >= 2 for c in inv.cycles):
        ok = _le(n_preper, agg.preperiodic_long_cycle)
        rel = "<=" if ok else ">"
        reports.append(verdict("preper_bound_L", ok,
                               f"{n_preper} preperiodic points {rel} L({d},{s})"))
    else:
        reports.append(verdict("preper_bound_L", None, "no cycle of length >= 2"))

    tailish = inv.tail | inv.per0
    if len(tailish) >= 3:
        cap = force_exact(agg.periodic_via_three_points) + 3
        n_per = len(inv.per)
        reports.append(verdict("per_bound_three_tailish", n_per <= cap,
                               f"{n_per} periodic points vs 3*7^(4s)+3 = {cap}"))
    else:
        reports.append(verdict("per_bound_three_tailish", None,
                               f"only {len(tailish)} tail-or-critical-cycle points"))

    if len(inv.per) >= 4:
        cap = force_exact(agg.tail_given_four_periodic)
        n_tailish = len(inv.tail) + len(inv.per0)
        reports.append(verdict(
            "tail_bound_four_periodic", n_tailish <= cap,
            f"|tail| + |critical cycle| = {n_tailish} vs 12*7^(4s) = {cap}"))
    else:
        reports.append(verdict("tail_bound_four_periodic", None,
                               f"only {len(inv.per)} periodic points"))
    return tuple(reports)


SUITE_NAMES = ("ultrametric", "nonexpansion", "chain", "tailperiodic", "critical",
           "taillemmas", "theorems")


def _derived_chains(inv: DynamicalInventory):
    """Tail trajectories of length >= 2 into each rational fixed point."""
    chains = []
    for cycle in inv.cycles:
        if len(cycle) != 1:
            continue
        p0 = cycle[0]
        for t in inv.tails_by_target.get(p0, ()):
            if inv.tail_lengths[t] < 2:
                continue
            walk = [t]
            while walk[-1] != p0:
                walk.append(inv.image[walk[-1]])
            chains.append((p0, walk))
    return chains


def run_suite(pair: HomogPair, suite: str = "all", *, height: int = 64,
              max_iters: int = 256) -> list[VerificationReport]:
    """Run one named suite (or all of them) against a map.

    Point-set checks use the preperiodic inventory plus a small grid of
    sample points; chain checks derive every available tail trajectory
    into a rational fixed point.
    """
    if suite not in SUITE_NAMES and suite != "all":
        raise VerificationInputError(f"unknown suite {suite!r}")
    profile = reduction_profile(pair)
    inv = enumerate_preperiodic(pair, height, max_iters=max_iters)
    reports: list[VerificationReport] = []
    want = SUITE_NAMES if suite == "all" else (suite,)
    if "ultrametric" in want or "nonexpansion" in want:
        # one support table for both checks: each sample pair is factored once
        pts, supports = _sample_table([*points_up_to_height(_SAMPLE_HEIGHT), *inv.preper])
        if "ultrametric" in want:
            reports.append(_ultrametric(pts, supports))
        if "nonexpansion" in want:
            reports.append(_non_expansion(pair, profile, pts, supports))
    if "chain" in want:
        chains = _derived_chains(inv)
        if not chains:
            reports.append(VerificationReport(
                "chain_equality", SKIPPED,
                reason="no tail trajectory of length >= 2 into a rational fixed point"))
        else:
            for p0, walk in chains:
                reports.append(check_chain_lemma(pair, profile, p0, walk))
    if "tailperiodic" in want:
        reports.append(check_tail_periodic_distance(inv, profile))
    if "critical" in want:
        reports.append(check_critical_distance(inv, profile))
    if "taillemmas" in want:
        reports.append(check_tail_count_lemmas(inv, profile))
    if "theorems" in want:
        reports.extend(check_main_theorems(inv, profile))
    return reports
