"""Explicit bounds on preperiodic structure over a finite set of places.

Everything here is a closed-form function of the map degree d and the
number of places s (the archimedean place plus the primes of bad
reduction).  The values explode quickly: already for s = 1 the five-term
unit equation constant C5 is e^(30^15), far beyond any integer that fits
in memory, so results are magnitude trees rather than ints.

Each bound has one name, its label in the paper: the S-unit constants B,
C3 and C5, the tail caps L1..L4, and the counts CV, T, TPLA, FPLA, L and
Q built from them.  BOUND_ORDER is the order tables and reports list them in.
"""

from functools import lru_cache
from types import MappingProxyType

from .magnitude import Magnitude, exact, exp_of, max_of, power, prod_of, sum_of

BOUND_ORDER = ("B", "C3", "C5", "L1", "L2", "L3", "L4",
               "CV", "T", "TPLA", "FPLA", "L", "Q")


class BoundInputError(ValueError):
    pass


def _check(d: int, s: int) -> None:
    if not isinstance(d, int) or d < 2:
        raise BoundInputError("degree must be an integer >= 2")
    if not isinstance(s, int) or s < 1:
        raise BoundInputError("place count must be an integer >= 1")


# the (d, s) grid of 2..33 x 1..16 holds 48 distinct (n, s), so 64 entries give
# every table of it the same B, C3 and C5 node, which keeps its intervals.
# typed, so 2.0 never finds the entry of 2 and skips the checks
@lru_cache(maxsize=64, typed=True)
def unit_equation_bound(n: int, s: int) -> Magnitude:
    """B = 2^(16s) for the two-term S-unit equation, C_n = e^((6n)^(3n) (ns+1-n)) for n terms."""
    if not isinstance(n, int) or n < 2:
        raise BoundInputError("unit equation needs an integer term count >= 2")
    if not isinstance(s, int) or s < 1:
        raise BoundInputError("place count must be an integer >= 1")
    if n == 2:
        return power(exact(2), 16 * s)
    return exp_of((6 * n) ** (3 * n) * (n * s + 1 - n))


# verify reads one map's table twice (tail lemmas, then main theorems) and a
# sweep asks for Q(2, s) at few s: 16 entries hold both, and more would keep
# dead tables' intervals alive
@lru_cache(maxsize=16, typed=True)
def aggregate_bounds(d: int, s: int) -> MappingProxyType:
    """All thirteen bounds for one (degree, place count) pair, read-only, in BOUND_ORDER."""
    _check(d, s)
    b, c3, c5 = unit_equation_bound(2, s), unit_equation_bound(3, s), unit_equation_bound(5, s)
    one = exact(1)
    l1 = prod_of(exact(d - 1), sum_of(one, prod_of(exact(d), sum_of(one, b))))
    l2 = max_of(
        sum_of(prod_of(sum_of(prod_of(exact(2), sum_of(c3, exact(2))), one), exact(d)), one),
        prod_of(exact(d - 1), sum_of(one, prod_of(b, sum_of(b, c3, exact(3))))),
    )
    l3 = prod_of(sum_of(prod_of(sum_of(one, prod_of(exact(3), b)), b), one), exact(d - 1))
    l4 = prod_of(sum_of(c3, exact(3)), exact(d - 1))
    cv = sum_of(
        prod_of(sum_of(prod_of(exact(3), b), exact(13)), exact(d)),
        prod_of(exact(27), b),
        c5,
        prod_of(exact(6), c3),
        exact(32),
    )
    t = prod_of(exact(12), power(exact(7), 4 * s))
    return MappingProxyType({
        "B": b, "C3": c3, "C5": c5, "L1": l1, "L2": l2, "L3": l3, "L4": l4, "CV": cv, "T": t,
        "TPLA": prod_of(exact(3), power(exact(7), 4 * s)),
        "FPLA": sum_of(prod_of(power(exact(2), 32 * s), exact(d)),
                       power(exact(2), (2**77) * s)),
        "L": max_of(sum_of(t, cv), sum_of(l4, prod_of(exact(2), l2), exact(3)),
                    sum_of(prod_of(exact(3), l3), exact(3))),
        "Q": max_of(sum_of(t, cv), prod_of(exact(3), l1)),
    })


def bound_table(d: int, s: int) -> dict[str, Magnitude]:
    """All bounds for one (degree, place count) pair, a fresh dict the caller may change."""
    _check(d, s)
    return dict(aggregate_bounds(d, s))
