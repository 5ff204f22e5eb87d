"""Exact verification of the distance propositions and counting bounds.

Every check here encodes a proved statement, so on valid input the expected
status is PASS (or SKIPPED when a hypothesis is not met); a FAIL means the
implementation, not the mathematics, is broken.  All distance conditions of
the shape "for every prime outside S" are decided exhaustively by factoring
cross products: a prime outside every support contributes distance zero to
both sides, so finitely many primes settle the universal claim.  A support
depends on |cross product| alone, so the sample table and the point-set scan
factor each distinct |cross product| once per call, and pairs that share it
share one support dict, which nothing mutates.  The ultrametric and
non-expansion checks of run_suite read one sample table.  Non-expansion can
fail only at the primes p of the source pair's support, where it holds iff
p^δ_p divides the image cross product, which is never factored.  Every count
meets its bound in _count_check, which also words the witness.  Both
point-set lemmas share one scan, which stops at a candidate's first mismatch.

The ultrametric check runs prime by prime: at p every trio holds iff each
graph {δ_p >= k}, k >= 1, is a union of cliques, which one union-find pass
decides; trios are walked only at a prime that fails, to word its witnesses.
"""

from __future__ import annotations

import itertools

from .bounds import aggregate_bounds, unit_equation_bound
from .intarith import _name, is_prime
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
from .record import Record

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
    _defaults = {"reason": "", "witnesses": (), "parameters": ()}


def _finish(name, failures, confirmations, checked, params):
    if failures:
        return VerificationReport(name, FAIL, reason="inequality violated",
                                  witnesses=tuple(failures), parameters=tuple(params))
    witnesses = tuple(confirmations[:_WITNESS_CAP])
    if len(confirmations) > _WITNESS_CAP:
        witnesses += (f"... {len(confirmations) - _WITNESS_CAP} more",)
    params = tuple(params) + (("checked", str(checked)),)
    return VerificationReport(name, PASS, witnesses=witnesses, parameters=params)


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


def _memo_support(memo: dict, a: ProjPoint, b: ProjPoint, drop=frozenset()):
    """distance_support(a, b) without the primes of ``drop``, kept in ``memo`` by |a×b|."""
    c = abs(cross_product(a, b))
    if (support := memo.get(c)) is None:
        support = memo[c] = {p: v for p, v in distance_support(a, b).items() if p not in drop}
    return support


def _sample_table(points):
    """The distinct points in canonical order, and the support of each pair.

    Supports are listed in ``itertools.combinations`` order of the points, so
    both pair checks of one run read the same table and factor each |a×b| once.
    """
    pts = sorted(set(points), key=point_sort_key)
    memo: dict = {}
    return pts, [_memo_support(memo, a, b) for a, b in itertools.combinations(pts, 2)]


def check_ultrametric(points) -> VerificationReport:
    """Triangle inequality δ_p(P1,P3) >= min(δ_p(P1,P2), δ_p(P2,P3)).

    At p the three inequalities of a trio (one per middle point) all hold
    iff the least of its three δ_p values occurs at least twice; ``checked``
    is the count of (trio, middle point, prime of the trio's three supports).
    """
    if len(set(points)) < 3:
        raise VerificationInputError("ultrametric check needs at least three points")
    return _ultrametric(*_sample_table(points))


def _ultrametric(pts, supports) -> VerificationReport:
    """The ultrametric check: one union-find pass per prime p, in falling δ_p.

    Every trio holds at p iff each graph G_k = {δ_p >= k}, k >= 1, is a
    disjoint union of cliques: a trio whose least value m, on (a, c), is
    unique puts a-b and b-c but not a-c in G_(m+1), and a-b, b-c in G_k
    without a-c make δ_p(a, c) < k a unique least value.  G_k changes only
    at the δ values of the pairs at p, so each level down to the lowest
    positive one is tested: a graph is a union of cliques iff its edge count
    is Σ C(size, 2) over its components.  A clique of s points meets
    C(s,2)(n-2) - 2C(s,3) trios, which gives ``checked``; trios are walked
    only where p fails or an explicit 0 leaves the pairs at p short of cliques.
    """
    n = len(pts)
    at_prime: dict = {}  # p -> [(δ_p, i, j)] over the pairs whose support holds p
    for (i, j), support in zip(itertools.combinations(range(n), 2), supports):
        for p, d in support.items():
            at_prime.setdefault(p, []).append((d, i, j))
    found = []  # (trio, middle position, p, witness) of each failed inequality
    checked = 0
    for p, edges in at_prime.items():
        edges.sort(reverse=True)
        comp: dict = {}  # point -> its component's list of points, shared by all of them
        cliques = triples = 0  # Σ C(size, 2) and Σ C(size, 3) over the components
        holds = True
        for k, (d, i, j) in enumerate(edges):
            a = comp.get(i) or comp.setdefault(i, [i])
            b = comp.get(j) or comp.setdefault(j, [j])
            if a is not b:
                cliques += len(a) * len(b)
                triples += len(a) * len(b) * (len(a) + len(b) - 2) // 2
                if len(a) < len(b):
                    a, b = b, a
                a.extend(b)
                for v in b:
                    comp[v] = a
            if d > 0 and (k + 1 == len(edges) or edges[k + 1][0] != d):
                holds = holds and k + 1 == cliques  # the end of level d
        if holds and len(edges) == cliques:
            checked += 3 * (cliques * (n - 2) - 2 * triples)
            continue
        delta = {(i, j): d for d, i, j in edges}
        met = len(edges) * (n - len(comp))  # trios of a pair at p and a point off them all
        for trio in itertools.combinations(sorted(comp), 3):
            pairs = [tuple(u for u in trio if u != v) for v in trio]
            met += any(pair in delta for pair in pairs)
            sides = {v: delta.get(pair, 0) for v, pair in zip(trio, pairs)}
            if list(sides.values()).count(min(sides.values())) == 1:
                found.append(_ultrametric_failure(pts, p, sides))
        checked += 3 * met
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
    images = [evaluate(pair, pt) for pt in pts]
    coords = [(q.x, q.y) for q in images]
    bad = set(profile.bad_primes)
    found = []  # (pair, p, witness) of each failed inequality
    checked = 0
    for (i, j), s_before in zip(itertools.combinations(range(len(pts)), 2), supports):
        if not s_before:
            continue
        (x1, y1), (x2, y2) = coords[i], coords[j]
        c = x1 * y2 - x2 * y1
        for p, before in s_before.items():
            if p in bad:
                continue
            checked += 1
            # δ_p(φP, φQ) >= δ_p(P, Q) iff p^δ_p(P, Q) divides the image cross product
            if c % p ** before:
                after = next(v for v in range(before) if c % p ** (v + 1))
                found.append((i, j, p, f"d_{p}({images[i]},{images[j]})={after} < "
                                       f"d_{p}({pts[i]},{pts[j]})={before}"))
    failures = [witness for *_, witness in sorted(found)]
    return _finish("non_expansion", failures, [f"{len(pts)} points, all pairs, good primes only"],
                   checked, [("map", pair.source or "pair"), ("points", str(len(pts)))])


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


def _excluded_periodic(inv: DynamicalInventory, tail_point: ProjPoint) -> ProjPoint:
    """The unique periodic point reachable from a tail point in a multiple
    of its cycle length: entry shifted back by the tail length."""
    t = inv.tail_lengths[tail_point]
    cur = tail_point
    for _ in range(t):
        cur = inv.image[cur]
    # t image steps from a tail point always land on a cycle point
    cycle = next(cycle for cycle in inv.cycles if cur in cycle)
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


def _scan(qs, places: PlaceSet, height: int, wants, cap):
    """The points of height <= height whose supports off the finite places match ``wants``.

    wants[i] is what the support against qs[i] must be: None for any, j < i
    for the support against qs[j], or a fixed support.  A point equal to a q
    never matches, and one dropped at a mismatch has no later cross product factored.
    """
    result = set()
    memo: dict = {}
    for cand in points_up_to_height(height):
        sups = []
        for q, want in zip(qs, wants):
            if cand == q:
                break
            sup = _memo_support(memo, cand, q, places.finite)
            if want is not None and sup != (sups[want] if isinstance(want, int) else want):
                break
            sups.append(sup)
        else:
            result.add(cand)
    # trivially wide cardinality cap; a violation would mean an enumeration bug
    holds, witness = _count_check(len(result), cap, f"{len(result)} members", "the cap")
    assert holds, witness
    return result


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
    wants = (None, 0, 0)
    if targets is not None:
        wants = ({}, {}, {})
        for (i, p), n in targets.items():
            if i not in (0, 1, 2):
                raise VerificationInputError(f"target index {i} out of range")
            if not is_prime(p):
                raise VerificationInputError(f"target prime {_name(p)} is not prime")
            if p in places.finite:
                raise VerificationInputError(f"target prime {_name(p)} lies in the place set")
            if not isinstance(n, int) or n < 0:
                raise VerificationInputError("target distances are nonnegative integers")
            if n > 0:
                wants[i][p] = n
    return _scan(qs, places, height, wants, unit_equation_bound(2, places.size))


def four_point_set(q1: ProjPoint, q2: ProjPoint, q3: ProjPoint, q4: ProjPoint,
                   places: PlaceSet, height: int = 50):
    """Points equidistant from q1,q2 and from q3,q4 at every good prime."""
    qs = (q1, q2, q3, q4)
    if len(set(qs)) != 4:
        raise VerificationInputError("the four reference points must be distinct")
    cap = sum_of(unit_equation_bound(3, places.size), exact(2))
    return _scan(qs, places, height, (None, 0, None, 2), cap)


def _count_check(count: int, bound, what: str, label: str) -> tuple[bool, str]:
    """Whether count <= bound, and the witness "<what> <= <label>" or "<what> > <label>"."""
    holds = compare(exact(count), bound) is not Comparison.GREATER
    return holds, f"{what} {'<=' if holds else '>'} {label}"


def check_tail_count_lemmas(inv: DynamicalInventory,
                            profile: ReductionProfile) -> VerificationReport:
    """Tail counts against the period-specific caps L1, L2, L3 and L4."""
    name = "tail_count_lemmas"
    if inv.incomplete:
        return VerificationReport(name, SKIPPED, reason="inventory incomplete")
    d = inv.pair.degree
    s = profile.places.size
    params = [("d", str(d)), ("s", str(s))]
    table = aggregate_bounds(d, s)
    has_two = any(len(c) == 2 for c in inv.cycles)
    caps = []  # (count, label, what): L1-L3 per cycle, L4 per fixed point with a 2-cycle
    for cycle in inv.cycles:
        n = len(cycle)
        count = len(inv.tails_by_target[cycle[0]])
        if n <= 3:
            caps.append((count, f"L{n}", f"period {n} cycle at {cycle[0]}: {count} tail points"))
        if n == 1 and has_two:
            caps.append((count, "L4", f"fixed point {cycle[0]} with a 2-cycle present: {count}"))
    if not caps:
        return VerificationReport(name, SKIPPED, reason="no cycles of period 1, 2, or 3",
                                  parameters=tuple(params))
    failures, confirmations = [], []
    for count, label, what in caps:
        holds, witness = _count_check(count, table[label], what, f"{label}({d},{s})")
        (confirmations if holds else failures).append(witness)
    return _finish(name, failures, confirmations, len(caps), params)


def check_main_theorems(inv: DynamicalInventory,
                        profile: ReductionProfile) -> tuple[VerificationReport, ...]:
    """The headline counts against their bounds, one report per statement.

    Always: |preper| <= Q.  With a cycle of length >= 2: |preper| <= L.
    With three points that are tail or critical-cycle: |per| <= TPLA + 3.
    With four periodic points: |tail| + |per0| <= T.  Unmet hypotheses
    produce SKIPPED, and the bounds they condition are never read.
    """
    names = ("preper_bound_Q", "preper_bound_L", "per_bound_three_tailish",
             "tail_bound_four_periodic")
    if inv.incomplete:
        return tuple(VerificationReport(n, SKIPPED, reason="inventory incomplete")
                     for n in names)
    d = inv.pair.degree
    s = profile.places.size
    table = aggregate_bounds(d, s)
    n_preper, n_per = len(inv.preper), len(inv.per)
    n_tailish = len(inv.tail) + len(inv.per0)  # per0 lies inside per, so apart from tail
    preper = f"{n_preper} preperiodic points"
    statements = (
        (None, *_count_check(n_preper, table["Q"], preper, f"Q({d},{s})")),
        (None, *_count_check(n_preper, table["L"], preper, f"L({d},{s})"))
        if any(len(c) >= 2 for c in inv.cycles) else ("no cycle of length >= 2", None, None),
        (None, n_per <= (tpla := force_exact(table["TPLA"]) + 3),
         f"{n_per} periodic points vs 3*7^(4s)+3 = {tpla}")
        if n_tailish >= 3 else (f"only {n_tailish} tail-or-critical-cycle points", None, None),
        (None, n_tailish <= (t := force_exact(table["T"])),
         f"|tail| + |critical cycle| = {n_tailish} vs 12*7^(4s) = {t}")
        if n_per >= 4 else (f"only {n_per} periodic points", None, None),
    )
    params = (("d", str(d)), ("s", str(s)))
    return tuple(
        VerificationReport(name, SKIPPED, reason=unmet, parameters=params) if unmet else
        VerificationReport(name, PASS if holds else FAIL, witnesses=(witness,), parameters=params)
        for name, (unmet, holds, witness) in zip(names, statements))


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
