"""Explicit bounds on preperiodic structure over a finite set of places.

Everything here is a closed-form function of the map degree d and the
number of places s (the archimedean place plus the primes of bad
reduction).  The values explode quickly: already for s = 1 the five-term
unit equation constant C5 is e^(30^15), far beyond any integer that fits
in memory, so results are magnitudes rather than ints.

Each bound has one name, its label in the paper: the S-unit constants B,
C3 and C5, the tail caps L1..L4, and the counts CV, T, TPLA, FPLA, L and
Q built from them.  BOUND_ORDER is the order tables and reports list them in.

Each label is assembled from terms that depend on s alone, built once per s,
by products with d or d - 1 and sums.  The maxima of a table are decided by
log2 brackets alone, with no log interval.
"""

from functools import lru_cache
from types import MappingProxyType

from .magnitude import Magnitude, exact, exp_of, max_of, power, prod_of, sum_of

BOUND_ORDER = ("B", "C3", "C5", "L1", "L2", "L3", "L4",
               "CV", "T", "TPLA", "FPLA", "L", "Q")


class BoundInputError(ValueError):
    pass


def _check(d: int, s: int) -> None:
    # plain ints only: True would quietly stand for 1
    if type(d) is not int or d < 2:
        raise BoundInputError("degree must be an integer >= 2")
    if type(s) is not int or s < 1:
        raise BoundInputError("place count must be an integer >= 1")


def unit_equation_bound(n: int, s: int) -> Magnitude:
    """B = 2^(16s) for the two-term S-unit equation, C_n = e^((6n)^(3n) (ns+1-n)) for n terms."""
    if type(n) is not int or n < 2:
        raise BoundInputError("unit equation needs an integer term count >= 2")
    if type(s) is not int or s < 1:
        raise BoundInputError("place count must be an integer >= 1")
    if n == 2:
        return power(exact(2), 16 * s)
    return exp_of((6 * n) ** (3 * n) * (n * s + 1 - n))


# one entry per place count: the 16 values of s in the bounds grid all fit, so
# every degree at one s reads the same d-free nodes; typed, so 1.0 never finds 1
@lru_cache(maxsize=16, typed=True)
def _table_at(s: int):
    """The tables at place count s as a function of d; _d names a term times d, _d1 times d - 1."""
    b, c3, c5 = unit_equation_bound(2, s), unit_equation_bound(3, s), unit_equation_bound(5, s)
    one, two, three = exact(1), exact(2), exact(3)
    l1_d, l4_d1 = sum_of(one, b), sum_of(c3, three)
    l2_d = sum_of(prod_of(two, sum_of(c3, two)), one)
    l2_d1 = sum_of(one, prod_of(b, sum_of(b, c3, three)))
    l3_d1 = sum_of(prod_of(sum_of(one, prod_of(three, b)), b), one)
    cv_d = sum_of(prod_of(three, b), exact(13))
    cv_rest = sum_of(prod_of(exact(27), b), c5, prod_of(exact(6), c3), exact(32))
    seven = power(exact(7), 4 * s)
    t, tpla = prod_of(exact(12), seven), prod_of(three, seven)
    fpla_d, fpla_rest = power(two, 32 * s), power(two, (2**77) * s)

    def at(d: int) -> MappingProxyType:
        deg, deg1 = exact(d), exact(d - 1)
        l1 = prod_of(deg1, sum_of(one, prod_of(deg, l1_d)))
        l2 = max_of(sum_of(prod_of(l2_d, deg), one), prod_of(deg1, l2_d1))
        l3, l4 = prod_of(l3_d1, deg1), prod_of(l4_d1, deg1)
        cv = sum_of(prod_of(cv_d, deg), cv_rest)
        t_cv = sum_of(t, cv)  # one node, so L and Q are one node too
        return MappingProxyType({
            "B": b, "C3": c3, "C5": c5, "L1": l1, "L2": l2, "L3": l3, "L4": l4, "CV": cv, "T": t,
            "TPLA": tpla, "FPLA": sum_of(prod_of(fpla_d, deg), fpla_rest),
            "L": max_of(t_cv, sum_of(l4, prod_of(two, l2), three),
                        sum_of(prod_of(three, l3), three)),
            "Q": max_of(t_cv, prod_of(three, l1)),
        })

    return at


# whole tables: verify reads one map's table twice (tail lemmas, then main
# theorems) and the sweep reads Q(2, s) at few s, so 16 entries hold both.  An
# evicted table's d-free nodes live on in _table_at; only its per-d nodes go
@lru_cache(maxsize=16, typed=True)
def aggregate_bounds(d: int, s: int) -> MappingProxyType:
    """All thirteen bounds for one (degree, place count) pair, read-only, in BOUND_ORDER."""
    _check(d, s)
    return _table_at(s)(d)


def bound_table(d: int, s: int) -> dict[str, Magnitude]:
    """All bounds for one (degree, place count) pair, a fresh dict the caller may change."""
    _check(d, s)
    return dict(aggregate_bounds(d, s))
