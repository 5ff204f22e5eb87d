"""Explicit bounds on preperiodic structure over a finite set of places.

Everything here is a closed-form function of the map degree d and the
number of places s (the archimedean place plus the primes of bad
reduction).  The values explode quickly: already for s = 1 the n-term
unit equation constant for n = 5 is e^(30^15), far beyond any integer
that fits in memory, so results are magnitude trees rather than ints.
Labels in bound_table follow the customary single letters so reports
stay recognizable.
"""

from functools import lru_cache

from .magnitude import Magnitude, exact, exp_of, max_of, power, prod_of, sum_of
from .record import Record, _set


class BoundInputError(ValueError):
    pass


def _check(d: int, s: int) -> None:
    if not isinstance(d, int) or d < 2:
        raise BoundInputError("degree must be an integer >= 2")
    if not isinstance(s, int) or s < 1:
        raise BoundInputError("place count must be an integer >= 1")


class UnitEquationBounds(Record):
    """Bounds for S-unit equations: two_term for a+b=1, n_term for n summands."""

    __slots__ = ("two_term", "n_term")

    def __init__(self, two_term: Magnitude, n_term: Magnitude):
        _set(self, "two_term", two_term)
        _set(self, "n_term", n_term)


class TailBounds(Record):
    """Caps on tail points entering cycles of period one, two, and three."""

    __slots__ = ("fixed_cycle", "two_cycle", "three_cycle", "fixed_and_double")

    def __init__(self, fixed_cycle: Magnitude, two_cycle: Magnitude,
                 three_cycle: Magnitude, fixed_and_double: Magnitude):
        _set(self, "fixed_cycle", fixed_cycle)
        _set(self, "two_cycle", two_cycle)
        _set(self, "three_cycle", three_cycle)
        _set(self, "fixed_and_double", fixed_and_double)


class AggregateBounds(Record):
    __slots__ = ("critical_overlap", "tail_given_four_periodic", "periodic_via_three_points",
                 "periodic_via_four_points", "preperiodic_long_cycle", "preperiodic")

    def __init__(self, critical_overlap: Magnitude, tail_given_four_periodic: Magnitude,
                 periodic_via_three_points: Magnitude, periodic_via_four_points: Magnitude,
                 preperiodic_long_cycle: Magnitude, preperiodic: Magnitude):
        _set(self, "critical_overlap", critical_overlap)
        _set(self, "tail_given_four_periodic", tail_given_four_periodic)
        _set(self, "periodic_via_three_points", periodic_via_three_points)
        _set(self, "periodic_via_four_points", periodic_via_four_points)
        _set(self, "preperiodic_long_cycle", preperiodic_long_cycle)
        _set(self, "preperiodic", preperiodic)


def unit_equation_bounds(n: int, s: int) -> UnitEquationBounds:
    if not isinstance(n, int) or n < 2:
        raise BoundInputError("unit equation needs an integer term count >= 2")
    if not isinstance(s, int) or s < 1:
        raise BoundInputError("place count must be an integer >= 1")
    two = power(exact(2), 16 * s)
    ln_n = (6 * n) ** (3 * n) * (n * s + 1 - n)
    return UnitEquationBounds(two_term=two, n_term=exp_of(ln_n))


@lru_cache(maxsize=256)
def tail_bounds(d: int, s: int) -> TailBounds:
    _check(d, s)
    b = unit_equation_bounds(2, s).two_term
    c3 = unit_equation_bounds(3, s).n_term
    one = exact(1)
    l1 = prod_of(exact(d - 1), sum_of(one, prod_of(exact(d), sum_of(one, b))))
    l2 = max_of(
        sum_of(prod_of(sum_of(prod_of(exact(2), sum_of(c3, exact(2))), one), exact(d)), one),
        prod_of(exact(d - 1), sum_of(one, prod_of(b, sum_of(b, c3, exact(3))))),
    )
    l3 = prod_of(sum_of(prod_of(sum_of(one, prod_of(exact(3), b)), b), one), exact(d - 1))
    l4 = prod_of(sum_of(c3, exact(3)), exact(d - 1))
    return TailBounds(fixed_cycle=l1, two_cycle=l2, three_cycle=l3, fixed_and_double=l4)


@lru_cache(maxsize=256)
def aggregate_bounds(d: int, s: int) -> AggregateBounds:
    _check(d, s)
    b = unit_equation_bounds(2, s).two_term
    c3 = unit_equation_bounds(3, s).n_term
    c5 = unit_equation_bounds(5, s).n_term
    tails = tail_bounds(d, s)
    cv = sum_of(
        prod_of(sum_of(prod_of(exact(3), b), exact(13)), exact(d)),
        prod_of(exact(27), b),
        c5,
        prod_of(exact(6), c3),
        exact(32),
    )
    t = prod_of(exact(12), power(exact(7), 4 * s))
    tpla = prod_of(exact(3), power(exact(7), 4 * s))
    fpla = sum_of(
        prod_of(power(exact(2), 32 * s), exact(d)),
        power(exact(2), (2**77) * s),
    )
    l_long = max_of(
        sum_of(t, cv),
        sum_of(tails.fixed_and_double, prod_of(exact(2), tails.two_cycle), exact(3)),
        sum_of(prod_of(exact(3), tails.three_cycle), exact(3)),
    )
    q = max_of(sum_of(t, cv), prod_of(exact(3), tails.fixed_cycle))
    return AggregateBounds(
        critical_overlap=cv,
        tail_given_four_periodic=t,
        periodic_via_three_points=tpla,
        periodic_via_four_points=fpla,
        preperiodic_long_cycle=l_long,
        preperiodic=q,
    )


def bound_table(d: int, s: int) -> dict[str, Magnitude]:
    """All bounds for one (degree, place count) pair, under their usual labels."""
    _check(d, s)
    tails = tail_bounds(d, s)
    agg = aggregate_bounds(d, s)
    return {
        "B": unit_equation_bounds(2, s).two_term,
        "C3": unit_equation_bounds(3, s).n_term,
        "C5": unit_equation_bounds(5, s).n_term,
        "L1": tails.fixed_cycle,
        "L2": tails.two_cycle,
        "L3": tails.three_cycle,
        "L4": tails.fixed_and_double,
        "CV": agg.critical_overlap,
        "T": agg.tail_given_four_periodic,
        "TPLA": agg.periodic_via_three_points,
        "FPLA": agg.periodic_via_four_points,
        "L": agg.preperiodic_long_cycle,
        "Q": agg.preperiodic,
    }
