"""Deliberately simple reference implementations used only as test oracles.

Everything here favors obviousness over speed: trajectories are stored in
plain lists and scanned quadratically, set memberships are tested prime by
prime, and no caching of any kind happens.  Maps are applied by
naive_evaluate, which shares no code with the library's step kernel.
Map text is cut by naive_tokenize, a position loop over one anchored match
at a time, and read by naive_parse_map, which builds a tree of tuples and
only then evaluates it; it shares the polynomial arithmetic with mapparse,
so it checks the scanning and the reading, not the arithmetic.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
from fractions import Fraction

import sympy
from hypothesis import strategies as st

from p1dyn import magnitude
from p1dyn.bounds import BOUND_ORDER, unit_equation_bound
from p1dyn.cli import cmd_analyze, cmd_batch, cmd_bounds, cmd_verify
from p1dyn.intarith import factorize
from p1dyn.mapparse import (_ONE, _VARIABLES, MapSyntaxError, _at_y1, _bi_add, _bi_mul,
                            _poly_exact_div, _poly_gcd, _power, _side_degree)
from p1dyn.magnitude import exact, max_of, power, prod_of, sum_of
from p1dyn.projline import INFINITE_DISTANCE, ProjPoint, log_distance, point_sort_key
from p1dyn.ratmap import DegenerateMapError, HomogPair
from p1dyn.verify import FAIL, PASS, SUITE_NAMES, VerificationReport


def rational_pair(a, b, source=""):
    """HomogPair of int or Fraction vectors, both sides scaled by the common denominator."""
    scale = math.lcm(*(Fraction(c).denominator for c in [*a, *b]))
    return HomogPair([int(c * scale) for c in a], [int(c * scale) for c in b], source)


def _form_value(coeffs, x, y):
    """Sum of c_i * x^(d-i) * y^i, one monomial at a time."""
    d = len(coeffs) - 1
    value = 0
    for i, c in enumerate(coeffs):
        if c:
            value += c * x ** (d - i) * y**i
    return value


def _naive_point(x, y):
    """[x : y] in lowest terms with y > 0, or y = 0 and x = 1, from scratch."""
    g = math.gcd(x, y)
    x, y = x // g, y // g
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return ProjPoint(x, y)


def naive_evaluate(pair, point):
    """Image of a point, from monomial sums and a from-scratch canonical form."""
    return _naive_point(_form_value(pair.a, point.x, point.y),
                        _form_value(pair.b, point.x, point.y))


def _partials(coeffs, x, y):
    """(F_X, F_Y) at (x, y) for F = sum of c_i * X^(d-i) * Y^i, one monomial at a time."""
    d = len(coeffs) - 1
    f_x = sum(c * (d - i) * x ** (d - i - 1) * y**i for i, c in enumerate(coeffs) if i < d)
    f_y = sum(c * i * x ** (d - i) * y ** (i - 1) for i, c in enumerate(coeffs) if i > 0)
    return f_x, f_y


def naive_is_critical(pair, point):
    """Whether F_X*G_Y - F_Y*G_X is 0 at the point's coprime coordinates, from monomials."""
    f_x, f_y = _partials(pair.a, point.x, point.y)
    g_x, g_y = _partials(pair.b, point.x, point.y)
    return f_x * g_y - f_y * g_x == 0


def naive_classify(pair, point, max_iters, escape_height):
    """Returns (kind, trajectory, period, tail_length, cycle, steps)."""
    traj = [point]
    applications = 0
    while applications < max_iters:
        image = naive_evaluate(pair, traj[-1])
        applications += 1
        hit = None
        for idx, old in enumerate(traj):  # quadratic on purpose
            if old == image:
                hit = idx
                break
        if hit is not None:
            cycle = tuple(traj[hit:])
            if hit == 0:
                return ("periodic", tuple(traj), len(traj), 0, cycle, applications)
            return ("tail", tuple(traj), len(cycle), hit, cycle, applications)
        if max(abs(image.x), abs(image.y)) > escape_height:
            traj.append(image)
            return ("escaped", tuple(traj), None, None, None, applications)
        traj.append(image)
    return ("undecided", tuple(traj), None, None, None, applications)


def all_points_up_to_height(height):
    pts = [ProjPoint(1, 0)]
    for y in range(1, height + 1):
        for x in range(-height, height + 1):
            if math.gcd(x, y) == 1:
                pts.append(ProjPoint(x, y))
    return pts


def naive_full_scan(pair, height, max_iters, escape_height):
    """(found, kinds): the preperiodic points among candidates of bounded
    height plus their forward images, and each candidate's classification."""
    found = set()
    kinds = {}
    for p in all_points_up_to_height(height):
        kind, traj = naive_classify(pair, p, max_iters, escape_height)[:2]
        kinds[p] = kind
        if kind in ("periodic", "tail"):
            found.update(traj)
    return found, kinds


def _naive_valuation(n, prime):
    v = 0
    while n % prime == 0:
        n //= prime
        v += 1
    return v


def _naive_rule_ii(pair, prime, k):
    """Whether k*i > v_p(a_0) - v_p(a_i) for every i >= 1 with a_i != 0 and
    k*(d-1) > v_p(a_0) - v_p(b_d)."""
    a, b, d = pair.a, pair.b, pair.degree
    top = _naive_valuation(a[0], prime)
    return (all(k * i > top - _naive_valuation(a[i], prime)
                for i in range(1, d + 1) if a[i] != 0)
            and k * (d - 1) > top - _naive_valuation(b[-1], prime))


def naive_real_drops(pair, point):
    """Whether rule (i) of the polynomial sieve drops a finite start z = x/y, as stated.

    At d = 2, with B+- = a_1 -+ b_2 and D+- = B+-^2 - 4*a_0*a_2, z is dropped
    when every D+- >= 0 has 2|a_0||z| - |B+-| > 0 and (2|a_0||z| - |B+-|)^2 >
    D+-, so always when both D+- < 0; at d >= 3, with A = sum of |a_i| over
    i >= 1, when |x|*|a_0| > max(|a_0|, A + |b_d|)*y.
    """
    a, b = pair.a, pair.b
    if pair.degree > 2:
        return abs(point.x) * abs(a[0]) > max(abs(a[0]), sum(map(abs, a[1:])) + abs(b[-1])) * point.y
    scaled = 2 * abs(a[0]) * abs(Fraction(point.x, point.y))
    for big_b in (a[1] - b[2], a[1] + b[2]):
        disc = big_b**2 - 4 * a[0] * a[2]
        if disc >= 0 and not (scaled - abs(big_b) > 0 and (scaled - abs(big_b)) ** 2 > disc):
            return False
    return True


def _naive_primes_to(n):
    """The primes in ascending order, every one up to n among them; readers stop past n."""
    return _PROBE_BASE if n < 1000 else _sieve_below(n + 1)


def _naive_row_dropped(pair, y):
    """Rule (ii) of the polynomial sieve, which reads only the row y: whether a prime
    p with k = v_p(y) >= 1 has k*i > v_p(a_0) - v_p(a_i) for every i >= 1 with
    a_i != 0 and k*(d-1) > v_p(a_0) - v_p(b_d)."""
    for prime in _naive_primes_to(y):
        if prime > y:
            return False
        if y % prime == 0 and _naive_rule_ii(pair, prime, _naive_valuation(y, prime)):
            return True
    return False


def naive_sieve_drops(pair, point, height):
    """Whether rule (i), (ii) or (iii) of the polynomial sieve drops a start at search
    height ``height``, as the rules are stated.

    For b = (0, ..., 0, b_d), a finite start [x : y] is dropped by rule (i) as
    ``naive_real_drops`` states it, by rule (ii) as ``_naive_row_dropped``
    states it, or when a prime p <= height of a_0, with K_p the least k >= 1
    at which p meets rule (ii) and k = v_p(y), has one term of F(z, 1) of
    least valuation v, with v - v_p(b_d) <= -K_p.  At k >= 1 the terms
    a_i*x^(d-i)*y^i of F(x, y) are read at the point itself, d*k over
    F(z, 1)'s; at k = 0 only a_d's valuation is known, so it must lie below
    every other a_i's.  The integer rules (ii) and (iii) are read first, as
    they are the cheaper.
    """
    a, b, d = pair.a, pair.b, pair.degree
    if any(b[:-1]) or point.y == 0:
        return False
    if _naive_row_dropped(pair, point.y):
        return True
    for prime in _naive_primes_to(height):
        if prime > height:
            break
        if a[0] % prime:
            continue
        k = _naive_valuation(point.y, prime)
        escape = next(j for j in itertools.count(1) if _naive_rule_ii(pair, prime, j))
        if k:
            terms = [_naive_valuation(a[i] * point.x ** (d - i) * point.y**i, prime) - d * k
                     for i in range(d + 1) if a[i] != 0]
            least = min(terms)
            unique = terms.count(least) == 1
        else:  # the other terms' valuations are only at least their a_i's
            least = _naive_valuation(a[d], prime) if a[d] != 0 else None
            unique = a[d] != 0 and all(_naive_valuation(a[i], prime) > least
                                       for i in range(d) if a[i] != 0)
        if unique and least - _naive_valuation(b[-1], prime) <= -escape:
            return True
    return naive_real_drops(pair, point)


def naive_sieve_kept(pair, grid_height, height):
    """The finite starts of height <= ``grid_height`` that ``naive_sieve_drops`` keeps
    at search height ``height``, with rule (ii), which reads y alone, read once a row."""
    polynomial = not any(pair.b[:-1])
    kept = []
    for y in range(1, grid_height + 1):
        if polynomial and _naive_row_dropped(pair, y):
            continue
        for x in range(-grid_height, grid_height + 1):
            if math.gcd(x, y) == 1 and not naive_sieve_drops(pair, ProjPoint(x, y), height):
                kept.append(ProjPoint(x, y))
    return kept


_X, _Y = sympy.symbols("X Y")


def power_map(d):
    """(F, G, PrePer) for z^d: 0 and infinity are fixed, and +-1 are the rational roots of unity."""
    return _X**d, _Y**d, {ProjPoint(0, 1), ProjPoint(1, 1), ProjPoint(-1, 1), ProjPoint(1, 0)}


def chebyshev_map(d):
    """(F, G, PrePer) for 2*T_d(z/2): infinity and 2*cos(2*pi*r) for rational r,
    whose rational values are 0, +-1 and +-2 (Niven's theorem)."""
    f = sympy.expand(2 * sympy.chebyshevt(d, _X / (2 * _Y)) * _Y**d)
    points = {ProjPoint(x, 1) for x in (0, 1, -1, 2, -2)} | {ProjPoint(1, 0)}
    return f, _Y**d, points


def lattes_map(a, b):
    """(F, G) for x -> x(2P) on y^2 = x^3 + a*x + b: F = x^4 - 2a*x^2 - 8b*x + a^2 and
    G = 4(x^3 + a*x + b), as binary forms of degree 4 in X, Y."""
    f = _X**4 - 2 * a * _X**2 * _Y**2 - 8 * b * _X * _Y**3 + a**2 * _Y**4
    return sympy.expand(f), sympy.expand(4 * _Y * (_X**3 + a * _X * _Y**2 + b * _Y**3))


def conjugate(f, g, points, m):
    """(bracket text of psi, psi's PrePer) for psi = m^-1 o phi o m, where phi = [f : g]
    has PrePer ``points`` and m = (a, b, c, e) is z -> (a*z + b)/(c*z + e), a*e != b*c.

    PrePer(psi) is m^-1(PrePer(phi)); m^-1 acts on [x : y] by the adjugate matrix.
    """
    a, b, c, e = m
    moved = {_X: a * _X + b * _Y, _Y: c * _X + e * _Y}
    f, g = (sympy.expand(h.subs(moved, simultaneous=True)) for h in (f, g))
    text = f"[{sympy.expand(e * f - b * g)} : {sympy.expand(a * g - c * f)}]"
    return text, {_naive_point(e * p.x - b * p.y, a * p.y - c * p.x) for p in points}


@st.composite
def known_answer_maps(draw):
    """(bracket text, PrePer) for a conjugate of z^d or of 2*T_d(z/2), d = 2..6."""
    family = draw(st.sampled_from([power_map, chebyshev_map]))
    entry = st.integers(-2, 2)
    m = draw(st.tuples(entry, entry, entry, entry).filter(lambda m: m[0] * m[3] != m[1] * m[2]))
    return conjugate(*family(draw(st.integers(2, 6))), m)


def naive_distances_equal(p, q1, q2, prime):
    return log_distance(p, q1, prime) == log_distance(p, q2, prime)


def _sieve_below(bound):
    flags = [True] * bound
    out = []
    for n in range(2, bound):
        if flags[n]:
            out.append(n)
            for m in range(n * n, bound, n):
                flags[m] = False
    return out


_PROBE_BASE = _sieve_below(1000)


def _naive_distance(a, b, prime):
    """Cross-product valuation computed from scratch, no shared helpers."""
    c = a.x * b.y - b.x * a.y
    if c == 0:
        return INFINITE_DISTANCE
    v = 0
    while c % prime == 0:
        c //= prime
        v += 1
    return v


def probe_primes(pairs_of_points, bound=1000):
    """Primes below a bound plus every prime dividing some cross product."""
    primes = set(_PROBE_BASE if bound == 1000 else _sieve_below(bound))
    for a, b in pairs_of_points:
        c = a.x * b.y - b.x * a.y
        if c != 0 and abs(c) > 1:
            primes.update(factorize(c))
    return sorted(primes)


def naive_three_point_members(q1, q2, q3, s_primes, height, targets=None):
    """Brute-force membership scan for the equal-distance or target predicate.

    Target keys are (index, prime) with 0-based index into (q1, q2, q3).
    """
    members = []
    qs = (q1, q2, q3)
    for p in all_points_up_to_height(height):
        probe = probe_primes([(p, q) for q in qs])
        ok = True
        for prime in probe:
            if prime in s_primes:
                continue
            d1 = _naive_distance(p, q1, prime)
            d2 = _naive_distance(p, q2, prime)
            d3 = _naive_distance(p, q3, prime)
            if targets is None:
                if not (d1 == d2 == d3):
                    ok = False
                    break
            else:
                want = (
                    targets.get((0, prime), 0),
                    targets.get((1, prime), 0),
                    targets.get((2, prime), 0),
                )
                if (d1, d2, d3) != want:
                    ok = False
                    break
        if ok:
            members.append(p)
    return members


def naive_four_point_members(q1, q2, q3, q4, s_primes, height):
    members = []
    qs = (q1, q2, q3, q4)
    for p in all_points_up_to_height(height):
        probe = probe_primes([(p, q) for q in qs])
        ok = True
        for prime in probe:
            if prime in s_primes:
                continue
            if _naive_distance(p, q1, prime) != _naive_distance(p, q2, prime):
                ok = False
                break
            if _naive_distance(p, q3, prime) != _naive_distance(p, q4, prime):
                ok = False
                break
        if ok:
            members.append(p)
    return members


def naive_ultrametric(points, support):
    """check_ultrametric's report from a walk of every trio, middle point and prime.

    ``support(a, b)`` gives the distance support of a pair; every ordered
    triple is tested at each prime of its three supports, in the order
    trio, middle position, prime.
    """
    pts = sorted(set(points), key=point_sort_key)
    n = len(pts)
    sup = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        sup[i][j] = sup[j][i] = support(pts[i], pts[j])
    failures = []
    checked = 0
    for trio in itertools.combinations(range(n), 3):
        for mid_idx in range(3):
            i2 = trio[mid_idx]
            i1, i3 = (trio[k] for k in range(3) if k != mid_idx)
            s13, s12, s23 = sup[i1][i3], sup[i1][i2], sup[i2][i3]
            for p in sorted(s13.keys() | s12.keys() | s23.keys()):
                lhs = s13.get(p, 0)
                rhs = min(s12.get(p, 0), s23.get(p, 0))
                checked += 1
                if lhs < rhs:
                    failures.append(
                        f"d_{p}({pts[i1]},{pts[i3]})={lhs} < "
                        f"min over {pts[i2]} = {rhs}"
                    )
    if failures:
        return VerificationReport("ultrametric", FAIL, reason="inequality violated",
                                  witnesses=tuple(failures), parameters=(("points", str(n)),))
    return VerificationReport("ultrametric", PASS,
                              witnesses=(f"{n} points, all ordered triples",),
                              parameters=(("points", str(n)), ("checked", str(checked))))


def naive_non_expansion(points, image, bad):
    """check_non_expansion's report under the union rule, and its source-prime count.

    ``image(point)`` gives a point's image.  Every good prime dividing the
    cross product of a pair or of its two images is tested, prime by prime,
    in the order pair, prime.  Returns the report, whose ``checked`` counts
    every test, and the number of tests at primes dividing the pair's own
    cross product.
    """
    pts = sorted(set(points), key=point_sort_key)
    failures = []
    checked = source_checked = 0
    for a, b in itertools.combinations(pts, 2):
        ia, ib = image(a), image(b)
        c_before = a.x * b.y - b.x * a.y
        c_after = ia.x * ib.y - ib.x * ia.y
        primes = set()
        for c in (c_before, c_after):
            if abs(c) > 1:
                primes.update(factorize(c))
        for p in sorted(primes - set(bad)):
            before = _naive_valuation(c_before, p)
            after = INFINITE_DISTANCE if c_after == 0 else _naive_valuation(c_after, p)
            checked += 1
            source_checked += before > 0
            if after < before:
                failures.append(f"d_{p}({ia},{ib})={after} < d_{p}({a},{b})={before}")
    n = str(len(pts))
    if failures:
        report = VerificationReport("non_expansion", FAIL, reason="inequality violated",
                                    witnesses=tuple(failures), parameters=(("points", n),))
    else:
        report = VerificationReport("non_expansion", PASS,
                                    witnesses=(f"{n} points, all pairs, good primes only",),
                                    parameters=(("points", n), ("checked", str(checked))))
    return report, source_checked


def naive_bound_table(d, s):
    """All thirteen bounds for (d, s), each label's formula written out whole, with no cache."""
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
    return {
        "B": b, "C3": c3, "C5": c5, "L1": l1, "L2": l2, "L3": l3, "L4": l4, "CV": cv, "T": t,
        "TPLA": prod_of(exact(3), power(exact(7), 4 * s)),
        "FPLA": sum_of(prod_of(power(exact(2), 32 * s), exact(d)),
                       power(exact(2), (2**77) * s)),
        "L": max_of(sum_of(t, cv), sum_of(l4, prod_of(exact(2), l2), exact(3)),
                    sum_of(prod_of(exact(3), l3), exact(3))),
        "Q": max_of(sum_of(t, cv), prod_of(exact(3), l1)),
    }


def naive_ln_fixed(terms, width):
    """magnitude._ln_fixed with no term buried: every term of a sum gets its own interval."""
    if len(terms) == 1:
        return magnitude._ln_term(terms[0], width)
    return magnitude._ln_exp_sum([magnitude._ln_term(t, width) for t in terms], 0, width)


def _naive_fold(c, powers):
    """(c, powers) with c divided by each base, in base order, one factor at a time."""
    exponents = dict(powers)
    for base in sorted(exponents):
        while c % base == 0:
            c //= base
            exponents[base] += 1
    return c, tuple(sorted(exponents.items()))


def naive_prod_terms(*parts):
    """The term list of a product: every choice of one term per part multiplied out,
    then terms of one (powers, q) added and coefficients folded into their powers,
    over and over until nothing changes."""
    terms = [(1, (), 0)]
    for part in parts:
        product = []
        for c1, p1, q1 in terms:
            for c2, p2, q2 in part.terms:
                exponents = dict(p1)
                for base, k in p2:
                    exponents[base] = exponents.get(base, 0) + k
                product.append((c1 * c2, tuple(sorted(exponents.items())), q1 + q2))
        terms = product
    while True:
        coeffs = {}
        for c, powers, q in terms:
            coeffs[powers, q] = coeffs.get((powers, q), 0) + c
        merged = [(c, powers, q) for (powers, q), c in coeffs.items()]
        folded = [(*_naive_fold(c, powers), q) for c, powers, q in merged]
        if folded == merged:
            return tuple(sorted(merged))
        terms = folded


_NAIVE_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z]+)|(?P<op>\*\*|[-+*/^()\[\]:]))"
)


def naive_tokenize(text):
    """mapparse's tokens by a position loop: one anchored match at a time, and on a
    failed match the first character left after stripping whitespace is refused."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _NAIVE_TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise MapSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "int":
            try:
                value = int(m.group("int"))
            except ValueError:  # longer than the interpreter's int-string limit
                raise MapSyntaxError(f"integer literal of {len(m.group('int'))} digits "
                                     "is too long", m.start("int")) from None
            tokens.append(("int", value, m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op, m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _NaiveMapParser:
    """The two-pass map reader's first pass: recursive descent to a tree of tuples."""

    def __init__(self, text, variables):
        self.tokens = naive_tokenize(text)
        self.variables = variables
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def accept(self, kind, value=None):
        tok = self.tokens[self.i]
        if tok[0] == kind and (value is None or tok[1] == value):
            self.i += 1
            return tok
        return None

    def expect_op(self, op):
        if not self.accept("op", op):
            raise MapSyntaxError(f"expected {op!r}", self.peek()[2])

    def expr(self):
        node = self.term()
        while True:
            if self.accept("op", "+"):
                node = ("add", node, self.term())
            elif self.accept("op", "-"):
                node = ("sub", node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            if self.accept("op", "*"):
                node = ("mul", node, self.factor())
            elif self.accept("op", "/"):
                node = ("div", node, self.factor())
            else:
                return node

    def factor(self):
        if self.accept("op", "-"):
            return ("neg", self.factor())
        node = self.atom()
        while self.accept("op", "^"):
            tok = self.peek()
            exp = self.accept("int")
            if exp is None:
                raise MapSyntaxError("exponents must be nonnegative integers", tok[2])
            node = ("pow", node, exp[1])
        return node

    def atom(self):
        tok = self.peek()
        if self.accept("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        if tok[0] == "int":
            self.i += 1
            return ("const", tok[1])
        if tok[0] == "name":
            if tok[1] not in self.variables:
                allowed = " or ".join(self.variables)
                raise MapSyntaxError(f"unknown variable {tok[1]!r}, expected {allowed}", tok[2])
            self.i += 1
            return ("var", tok[1])
        raise MapSyntaxError("expected a number, variable, or parenthesis", tok[2])


def _naive_evaluate_tree(node, homogeneous):
    """The second pass: a tree to (num, den) over Z[X, Y]."""
    kind = node[0]
    if kind == "const":
        return ({(0, 0): node[1]} if node[1] else {}), _ONE
    if kind == "var":
        return _VARIABLES[node[1]]
    if kind == "neg":
        n, d = _naive_evaluate_tree(node[1], homogeneous)
        return {k: -c for k, c in n.items()}, d
    if kind == "pow":
        n, d = _naive_evaluate_tree(node[1], homogeneous)
        return _power(n, node[2]), _power(d, node[2])
    n1, d1 = _naive_evaluate_tree(node[1], homogeneous)
    n2, d2 = _naive_evaluate_tree(node[2], homogeneous)
    if kind == "sub":
        n2 = {k: -c for k, c in n2.items()}
    if kind in ("add", "sub"):
        if d1 == d2:
            return _bi_add(n1, n2), d1
        return _bi_add(_bi_mul(n1, d2), _bi_mul(n2, d1)), _bi_mul(d1, d2)
    if kind == "mul":
        return _bi_mul(n1, n2), _bi_mul(d1, d2)
    if not n2:
        raise DegenerateMapError("division by an identically-zero expression")
    if homogeneous and set(n2) != {(0, 0)}:
        raise DegenerateMapError("homogeneous sides may only be divided by constants")
    return _bi_mul(n1, d2), _bi_mul(d1, n2)


def naive_parse_map(text):
    """mapparse.parse_map as a two-pass reader: the whole text is read to a tree, and
    only then evaluated, so every syntax fault is reported before any semantic one."""
    stripped = text.strip()
    if not stripped:
        raise MapSyntaxError("empty map description", 0)
    if stripped.startswith("["):
        parser = _NaiveMapParser(text, ("X", "Y"))
        parser.expect_op("[")
        f_tree = parser.expr()
        parser.expect_op(":")
        g_tree = parser.expr()
        parser.expect_op("]")
        if parser.peek()[0] != "end":
            raise MapSyntaxError("trailing input after the pair", parser.peek()[2])
        f_poly, f_den = _naive_evaluate_tree(f_tree, True)
        g_poly, g_den = _naive_evaluate_tree(g_tree, True)
        d1 = _side_degree(f_poly, "first")
        d2 = _side_degree(g_poly, "second")
        if d1 != d2:
            raise DegenerateMapError(f"sides have different degrees {d1} and {d2}")
        f_den, g_den = f_den[(0, 0)], g_den[(0, 0)]
        a = [f_poly.get((d1 - i, i), 0) * g_den for i in range(d1 + 1)]
        b = [g_poly.get((d1 - i, i), 0) * f_den for i in range(d1 + 1)]
        return HomogPair(a, b, stripped)
    parser = _NaiveMapParser(text, ("z",))
    tree = parser.expr()
    if parser.peek()[0] != "end":
        raise MapSyntaxError("trailing input after the expression", parser.peek()[2])
    num, den = (_at_y1(form) for form in _naive_evaluate_tree(tree, False))
    common = _poly_gcd(num, den)
    if len(common) > 1:
        num = _poly_exact_div(num, common)
        den = _poly_exact_div(den, common)
    d = max(len(num), len(den)) - 1
    if d < 1:
        raise DegenerateMapError("constant expressions do not define a map")
    num = num + [0] * (d + 1 - len(num))
    den = den + [0] * (d + 1 - len(den))
    return HomogPair([num[d - i] for i in range(d + 1)], [den[d - i] for i in range(d + 1)],
                     stripped)


def _add_search_flags(sp, height_default: int) -> None:
    sp.add_argument("--height", type=int, default=height_default,
                    help=f"height bound for the point search (default {height_default})")
    sp.add_argument("--max-iters", type=int, default=256, dest="max_iters",
                    help="iteration budget per starting point (default 256)")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI once used: the oracle for cli's argv reader."""
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
