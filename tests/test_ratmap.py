import copy
import math
import pickle
import random
import tracemalloc

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from p1dyn import ratmap
from p1dyn.intarith import ArithmeticInputError, _iroot
from p1dyn.mapparse import MapSyntaxError, _tokenize, parse_map
from p1dyn.orbits import _vanishes, enumerate_preperiodic
from p1dyn.projline import INFINITY, ProjPoint, canonicalize, parse_point, points_up_to_height
from p1dyn.ratmap import (
    DegenerateMapError,
    HomogPair,
    PlaceSet,
    escape_threshold,
    evaluate,
    good_reduction,
    reduction_profile,
    wronskian,
)

from naive import naive_evaluate, naive_parse_map, naive_tokenize, rational_pair


def test_parse_affine_quadratic_with_rational_constant():
    pair = parse_map("z^2-29/16")
    assert pair.degree == 2
    assert pair.a == (16, 0, -29)
    assert pair.b == (0, 0, 16)


def test_parse_affine_with_division():
    pair = parse_map("(z^2+1)/(2*z)")
    assert pair.degree == 2
    assert pair.a == (1, 0, 1)
    assert pair.b == (0, 2, 0)


def test_parse_homogeneous_pair():
    pair = parse_map("[X^2+Y^2 : 2*X*Y]")
    assert pair.degree == 2
    assert pair.a == (1, 0, 1)
    assert pair.b == (0, 2, 0)


def test_parse_reduces_common_polynomial_factor():
    pair = parse_map("(z^3-z)/(z^2-1)")  # reduces to z
    assert pair.degree == 1
    assert pair.a == (1, 0)
    assert pair.b == (0, 1)


def test_parse_takes_powers_by_squaring():
    assert parse_map("z^2+2^200000").a == (1, 0, 2**200000)
    pair = parse_map("(z+1)^400/(z+1)^398")
    assert pair.a == (1, 2, 1)
    assert pair.b == (0, 0, 1)


def test_parse_double_star_is_tolerated():
    assert parse_map("z**2-1") == parse_map("z^2-1")


def test_parse_errors_carry_positions():
    with pytest.raises(MapSyntaxError) as info:
        parse_map("z^2+")
    assert info.value.position == 4
    with pytest.raises(MapSyntaxError):
        parse_map("z^2 + w")
    with pytest.raises(MapSyntaxError):
        parse_map("z^-1")
    with pytest.raises(MapSyntaxError):
        parse_map("3 @ 4")
    with pytest.raises(MapSyntaxError):
        parse_map("")


@pytest.mark.parametrize("text, message, position", [
    ("[X^2 : Y^2", "expected ']'", 10),
    ("[X^2 Y^2]", "expected ':'", 5),
    ("(z+1", "expected ')'", 4),
    ("[X^2 : Y^2] z", "trailing input after the pair", 12),
    ("z^2 3", "trailing input after the expression", 4),
    ("z^2 + ", "expected a number, variable, or parenthesis", 6),
])
def test_parse_syntax_errors_name_message_and_position(text, message, position):
    with pytest.raises(MapSyntaxError) as info:
        parse_map(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_parse_accepts_trailing_whitespace():
    assert parse_map("z^2   ") == parse_map("z^2")
    assert str(parse_map("z^2   ")) == "z^2"
    assert parse_map("[X^2 : Y^2]  ") == parse_map("z^2")


def test_parse_reports_a_fault_where_reading_reaches_it():
    # the divisor is refused as soon as it is read, before the missing ']' or operand
    for text in ("[X/0 : Y", "z/0 +"):
        with pytest.raises(DegenerateMapError) as info:
            parse_map(text)
        assert str(info.value) == "division by an identically-zero expression", text


def test_parse_degenerate_inputs():
    for text, message in [
        ("5/7", "constant expressions do not define a map"),
        ("z/0", "division by an identically-zero expression"),
        ("[X^2 : X*Y]", "the two forms share a projective root (resultant 0)"),
        ("[X^2+Y : Y^2]", "first side is not homogeneous"),
        ("[X^2 : Y]", "sides have different degrees 2 and 1"),
        ("[X^2/Y : Y^2]", "homogeneous sides may only be divided by constants"),
        # operands are read left to right, and a zero divisor is reported as zero
        ("[X/Y/0 : Y]", "homogeneous sides may only be divided by constants"),
        ("[X/(Y-Y) : Y]", "division by an identically-zero expression"),
        # a coefficient list of 2^62 entries or more is refused before it is allocated
        ("[Y^4611686018427387904 : Y^4611686018427387904]",
         "a form of degree 4611686018427387904 has too many coefficients to store"),
        ("1/z^9223372036854775808",
         "a form of degree 9223372036854775808 has too many coefficients to store"),
        # a dense base is refused before its first squaring
        ("[(X+Y)^4611686018427387904 : Y^4611686018427387904]",
         "a form of degree 4611686018427387904 has too many coefficients to store"),
    ]:
        with pytest.raises(DegenerateMapError) as info:
            parse_map(text)
        assert str(info.value) == message, text
    # cancelled terms and constant divisors leave a homogeneous side homogeneous
    assert parse_map("[X^2+X-X : Y^2]") == parse_map("[X^2:Y^2]")
    assert parse_map("[X^2/(3-2) : Y^2]") == parse_map("[X^2:Y^2]")


def test_resultant_examples():
    assert parse_map("z^2-29/16").resultant == 65536
    assert parse_map("z^2").resultant == 1
    assert parse_map("z^2-1").resultant == 1
    assert parse_map("z^2-2").resultant == 1
    assert parse_map("(z^2+1)/(2*z)").resultant == 4


def test_resultant_matches_sympy_on_random_pairs():
    rng = random.Random(17)
    X, Y = sympy.symbols("X Y")
    for _ in range(60):
        d = rng.choice([2, 2, 3, 4])
        while True:
            a = [rng.randint(-9, 9) for _ in range(d + 1)]
            b = [rng.randint(-9, 9) for _ in range(d + 1)]
            if any(a) and any(b):
                try:
                    pair = HomogPair(a, b)
                    break
                except DegenerateMapError:
                    continue
        f = sum(c * X ** (d - i) * Y**i for i, c in enumerate(pair.a))
        g = sum(c * X ** (d - i) * Y**i for i, c in enumerate(pair.b))
        expected = sympy.resultant(f.subs(Y, 1), g.subs(Y, 1), X)
        # formal-degree correction when a side drops degree at Y=1
        fa = sympy.Poly(f.subs(Y, 1), X)
        ga = sympy.Poly(g.subs(Y, 1), X)
        lead_f, lead_g = pair.a[0], pair.b[0]
        if lead_f == 0 or lead_g == 0:
            # compare against sympy on the homogeneous determinant instead
            m = sympy.Matrix(2 * d, 2 * d, lambda i, j: 0)
            for i in range(d):
                for j, c in enumerate(pair.a):
                    m[i, i + j] = c
                for j, c in enumerate(pair.b):
                    m[d + i, i + j] = c
            expected = m.det()
        else:
            assert fa.degree() == d and ga.degree() == d
        assert pair.resultant == expected


def test_one_elimination_per_map(monkeypatch):
    # Res and the escape threshold T are derived once per pair; a polynomial gets
    # Res in closed form and T by a triangular solve, with no Sylvester matrix at all
    calls = []
    eliminate, sylvester = ratmap._eliminate, ratmap._sylvester
    monkeypatch.setattr(ratmap, "_eliminate", lambda m: calls.append("eliminate") or eliminate(m))
    monkeypatch.setattr(ratmap, "_sylvester", lambda p: calls.append("sylvester") or sylvester(p))
    for text, expected in (("z^2-1237/97", []), ("[X^3+2*Y^3:X*Y^2]", ["sylvester", "eliminate"])):
        calls.clear()
        pair = parse_map(text)
        reduction_profile(pair)
        enumerate_preperiodic(pair, 64)
        assert calls == expected, text


def test_held_pairs_are_eliminated_once_each(monkeypatch):
    # Res and T travel with the pair, so reading them again, in any order and
    # however many pairs are held, eliminates nothing more
    calls = []
    eliminate = ratmap._eliminate
    monkeypatch.setattr(ratmap, "_eliminate", lambda m: calls.append(m) or eliminate(m))
    pairs = [parse_map(f"[X^3+{k}*Y^3:X*Y^2]") for k in range(1, 21)]
    profiles = [reduction_profile(pair) for pair in pairs]
    thresholds = [escape_threshold(pair) for pair in pairs]
    assert len(calls) == 20
    assert [p.resultant for p in profiles] == [pair.resultant for pair in pairs]
    assert thresholds == [pair.threshold for pair in pairs]


@st.composite
def polynomial_pairs(draw):
    """[a_0 X^d + ... + a_d Y^d : b_d Y^d], sparse or dense, b_d of either sign,
    a_0 and b_d often sharing primes."""
    d = draw(st.integers(1, 8))
    shared = draw(st.sampled_from([1, 1, 2, 3, 6, 12, 30]))
    lead = shared * draw(st.integers(1, 40))
    tail = shared * draw(st.integers(-40, 40).filter(bool))
    coefficient = draw(st.sampled_from([st.integers(-60, 60),
                                        st.sampled_from([0, 0, 0, 0, 1, -1, 5, -18])]))
    rest = draw(st.lists(coefficient, min_size=d, max_size=d))
    return HomogPair([lead, *rest], [0] * d + [tail])


@settings(max_examples=300, deadline=None)
@given(polynomial_pairs())
@example(parse_map("z^2-29/16"))
@example(parse_map("2*z^3-z+1/5"))
@example(parse_map("z^8"))
@example(HomogPair([6, 0, 0, 1], [0, 0, 0, -4]))
def test_triangular_certificate_matches_the_elimination(pair):
    d = pair.degree
    assert pair.polynomial
    augmented = [list(column) + [int(k == 0), int(k == 2 * d - 1)]
                 for k, column in enumerate(zip(*ratmap._sylvester(pair)))]
    res, rows = ratmap._eliminate(augmented)
    assert ratmap._adjugate_rows(pair) == (res, rows)
    threshold = None
    if d >= 2:
        content = math.gcd(*rows[0], *rows[1])
        threshold = _iroot(max(sum(map(abs, row)) for row in rows) // content, d - 1)
    assert (pair.resultant, pair.threshold) == (res, threshold)


def test_a_high_degree_polynomial_builds_no_matrix():
    tracemalloc.start()
    try:
        pair = parse_map("z^1000+1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (pair.resultant, pair.threshold) == (1, 1)
    assert peak < 10**6


def test_polynomial_means_a_nonzero_lead_over_a_pure_power_of_y():
    assert parse_map("z^2-29/16").polynomial and parse_map("3*z^5+z").polynomial
    assert not parse_map("[X^3+2*Y^3:X*Y^2]").polynomial
    assert not parse_map("(z^2+1)/(2*z)").polynomial
    assert not parse_map("1/z^2").polynomial
    with pytest.raises(DegenerateMapError, match="resultant 0"):  # a_0 = 0 shares [1 : 0]
        HomogPair((0, 1, 1), (0, 0, 1))


def test_reduction_profile_examples():
    prof = reduction_profile(parse_map("z^2-29/16"))
    assert prof.resultant == 65536
    assert prof.bad_primes == (2,)
    assert prof.places.size == 2
    prof2 = reduction_profile(parse_map("z^2-2"))
    assert prof2.bad_primes == ()
    assert prof2.places.size == 1


def test_good_reduction_flags():
    pair = parse_map("z^2-29/16")
    assert not good_reduction(pair, 2)
    assert good_reduction(pair, 3)
    with pytest.raises(ArithmeticInputError):
        good_reduction(pair, 4)


def test_place_set_extension_validates_primes():
    places = PlaceSet(frozenset({2}))
    assert places.extended([3, 5]).size == 4
    with pytest.raises(ArithmeticInputError):
        places.extended([6])
    assert str(places) == "{inf, 2}"


def test_evaluate_examples():
    pair = parse_map("z^2-29/16")
    assert evaluate(pair, ProjPoint(3, 4)) == ProjPoint(-5, 4)
    assert evaluate(pair, INFINITY) == INFINITY
    assert evaluate(pair, ProjPoint(-1, 4)) == ProjPoint(-7, 4)
    joukowski = parse_map("(z^2+1)/(2*z)")
    assert evaluate(joukowski, ProjPoint(0, 1)) == INFINITY
    assert evaluate(joukowski, ProjPoint(1, 1)) == ProjPoint(1, 1)


def test_evaluate_respects_scaling_of_inputs():
    rng = random.Random(23)
    pair = parse_map("(3*z^2-1)/(z^2+z)")
    for _ in range(50):
        x = rng.randint(-40, 40)
        y = rng.randint(1, 40)
        from p1dyn.projline import canonicalize

        p = canonicalize(x, y)
        image = evaluate(pair, p)
        # direct affine computation as the oracle, when everything is finite
        if y != 0 and (x == 0 and y == 0) is False:
            from fractions import Fraction

            z = Fraction(x, y)
            den = z * z + z
            if den != 0:
                expect = (3 * z * z - 1) / den
                assert image.as_fraction() == expect


def _wronskian_zeros_on_grid(pair, height=8):
    w = wronskian(pair.a, pair.b)
    top = len(w) - 1
    return {p for p in points_up_to_height(height)
            if sum(c * p.x ** (top - i) * p.y**i for i, c in enumerate(w)) == 0}


def test_wronskian_and_critical_points():
    assert wronskian((1, 0, 0), (0, 0, 1)) == (0, 4, 0)  # z^2
    assert _wronskian_zeros_on_grid(parse_map("z^2")) == {ProjPoint(0, 1), INFINITY}
    assert wronskian((16, 0, -29), (0, 0, 16)) == (0, 1024, 0)  # z^2-29/16
    assert _wronskian_zeros_on_grid(parse_map("z^2-29/16")) == {ProjPoint(0, 1), INFINITY}
    assert _wronskian_zeros_on_grid(parse_map("(z^2+1)/(2*z)")) == {
        ProjPoint(1, 1),
        ProjPoint(-1, 1),
    }


def test_critical_points_of_cubic_with_no_rational_ones():
    # derivative 3z^2+3 has no rational roots; only infinity is critical and fixed
    assert _wronskian_zeros_on_grid(parse_map("z^3+3*z")) == {INFINITY}


def _zeros_on_grid(form, height=9):
    return {p for p in points_up_to_height(height) if _vanishes(form, p.x, p.y)}


def test_binary_form_rational_roots_direct():
    # (2X - Y)(X + 3Y) = 2X^2 + 5XY - 3Y^2
    assert _zeros_on_grid((2, 5, -3)) == {ProjPoint(1, 2), ProjPoint(-3, 1)}
    assert _zeros_on_grid((0, 0, 0)) == set(points_up_to_height(9))


def test_pair_normalization_and_validation():
    assert HomogPair([2, 0, 2], [0, 0, 4]) == HomogPair((1, 0, 1), (0, 0, 2))
    pair = HomogPair((-1, 0, 1), (0, 0, -1))
    assert pair.a == (1, 0, -1) and pair.b == (0, 0, 1)
    assert HomogPair((0, -3), (6, 9)).b == (-2, -3)  # content 3; the first nonzero is a_1 < 0
    with pytest.raises(DegenerateMapError,
                       match=r"^the two forms share a projective root \(resultant 0\)$"):
        HomogPair([1, 0, -1], [1, 0, -1])
    with pytest.raises(DegenerateMapError, match="^one side of the pair is identically zero$"):
        HomogPair((0, 0, 0), (1, 0, 0))


def test_pair_constructors_refuse_malformed_vectors():
    for a, b in (((3,), (3,)), ((), ())):
        with pytest.raises(DegenerateMapError, match="^degree must be at least 1$"):
            HomogPair(a, b)
    with pytest.raises(ArithmeticInputError, match="^coefficient vectors must have equal length$"):
        HomogPair((1, 0), (0, 0, 1))


def test_parse_point_reuse_in_map_context():
    assert parse_point("[6:-4]") == ProjPoint(-3, 2)


def test_evaluate_matches_naive_monomial_sums():
    rng = random.Random(11)
    maps = 0
    while maps < 40:
        d = rng.randint(2, 5)
        try:
            pair = HomogPair([rng.randint(-9, 9) for _ in range(d + 1)],
                             [rng.randint(-9, 9) for _ in range(d + 1)])
        except DegenerateMapError:
            continue
        maps += 1
        for _ in range(20):
            x, y = rng.randint(-60, 60), rng.randint(0, 60)
            if (x, y) == (0, 0):
                continue
            p = canonicalize(x, y)
            assert evaluate(pair, p) == naive_evaluate(pair, p)


def test_binary_form_rational_roots_of_products_of_linear_factors():
    rng = random.Random(5)
    X, Y = sympy.symbols("X Y")
    for _ in range(30):
        roots = {canonicalize(rng.randint(-9, 9), rng.randint(0, 9) or 1)
                 for _ in range(rng.randint(1, 4))}
        if rng.random() < 0.3:
            roots.add(INFINITY)
        form = X**2 + 3 * Y**2  # no rational roots of its own
        for r in roots:
            form *= r.y * X - r.x * Y
        degree = len(roots) + 2
        poly = sympy.Poly(sympy.expand(form), X, Y)
        coeffs = tuple(int(poly.coeff_monomial(X ** (degree - i) * Y**i))
                       for i in range(degree + 1))
        assert _zeros_on_grid(coeffs) == roots


def _sympy_sylvester(pair):
    d = pair.degree
    return sympy.Matrix(2 * d, 2 * d, lambda i, j: (
        pair.a[j - i] if i < d and 0 <= j - i <= d else
        pair.b[j - i + d] if i >= d and 0 <= j - i + d <= d else 0))


def _sympy_escape_threshold(pair):
    """T from the adjugate of a Sylvester matrix built and inverted by sympy."""
    d = pair.degree
    X, Y = sympy.symbols("X Y")
    sylvester = _sympy_sylvester(pair)
    res = sylvester.det()
    adjugate = sylvester.adjugate()
    f = sum(c * X ** (d - i) * Y**i for i, c in enumerate(pair.a))
    g = sum(c * X ** (d - i) * Y**i for i, c in enumerate(pair.b))
    certificates = []
    for row, target in ((adjugate.row(0), X), (adjugate.row(2 * d - 1), Y)):
        content = math.gcd(*(int(e) for e in row))
        coeffs = [int(e) // content for e in row]
        g1 = sum(c * X ** (d - 1 - i) * Y**i for i, c in enumerate(coeffs[:d]))
        g2 = sum(c * X ** (d - 1 - i) * Y**i for i, c in enumerate(coeffs[d:]))
        r = int(res) // content
        assert sympy.expand(g1 * f + g2 * g - r * target ** (2 * d - 1)) == 0
        certificates.append((abs(r), sum(abs(c) for c in coeffs)))
    lcm = math.lcm(*(r for r, _ in certificates))
    bound = max(lcm // r * total for r, total in certificates)
    return int(sympy.integer_nthroot(bound, d - 1)[0])


@pytest.mark.parametrize("text, threshold", [
    ("z^2-29/16", 45),
    ("[X^3+2*Y^3:X*Y^2]", 2),
    ("[X^2-Y^2:X*Y]", 2),
    ("z^2-1003003", 1003004),
])
def test_escape_threshold_matches_sympy_adjugate(text, threshold):
    pair = parse_map(text)
    assert escape_threshold(pair) == _sympy_escape_threshold(pair) == threshold


def test_escape_threshold_needs_degree_2():
    with pytest.raises(ArithmeticInputError):
        escape_threshold(parse_map("z+1"))


@st.composite
def small_pairs(draw, coefficient=st.integers(-5, 5), degrees=st.integers(2, 3)):
    d = draw(degrees)
    coeffs = st.lists(coefficient, min_size=d + 1, max_size=d + 1)
    try:
        return rational_pair(draw(coeffs), draw(coeffs))
    except DegenerateMapError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(st.one_of(polynomial_pairs(), small_pairs(degrees=st.integers(1, 3))))
@example(HomogPair([3, 0, 0, -2], [0, 0, 0, 3]))
@example(parse_map("[X^3+2*Y^3:X*Y^2]"))
@example(parse_map("(z^2+1)/(2*z+1)"))
@example(parse_map("z+1"))
@example(parse_map("[X:X+Y]"))
def test_lazy_threshold_equals_the_eager_formula(pair):
    # a polynomial pair solves for T on its first read and keeps it; any other pair
    # took T from its elimination when it was built; copies derive T again
    def twins(p):
        return [copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))]

    before = twins(pair)
    calls = []
    adjugate = ratmap._adjugate_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ratmap, "_adjugate_rows", lambda p: calls.append(p) or adjugate(p))
        if pair.degree < 2:
            assert pair.threshold is None and calls == []
            assert all(twin == pair and twin.threshold is None for twin in before)
            return
        threshold = escape_threshold(pair)
        assert len(calls) == pair.polynomial
        assert escape_threshold(pair) == pair.threshold == threshold
        assert len(calls) == pair.polynomial
    rows = adjugate(pair)[1]
    content = math.gcd(*rows[0], *rows[1])
    assert threshold == _iroot(max(sum(map(abs, row)) for row in rows) // content,
                               pair.degree - 1)
    for twin in before + twins(pair):
        assert twin == pair and escape_threshold(twin) == threshold


@settings(max_examples=200, deadline=None)
@given(small_pairs(), st.data())
def test_heights_above_the_escape_threshold_grow(pair, data):
    threshold = escape_threshold(pair)
    height = threshold + data.draw(st.integers(1, 200))
    other = data.draw(st.integers(-height, height))
    if data.draw(st.booleans()):
        point = (height if other >= 0 else -height, abs(other))
    else:
        point = (other, height)
    assume(point[1] > 0 and math.gcd(*point) == 1)
    image = naive_evaluate(pair, ProjPoint(*point))
    assert max(abs(image.x), image.y) > height


@settings(max_examples=100, deadline=None)
@given(small_pairs(st.fractions(-20, 20, max_denominator=12)))
def test_parse_map_round_trips_the_printed_pair(pair):
    assert parse_map(str(pair)) == pair


@settings(max_examples=40, deadline=None)
@given(small_pairs())
# zero pivots force row swaps: a[0] = 0 swaps the first pivot, and the other two
# swap an odd number of times, so the resultant's sign depends on the swaps
@example(parse_map("[X*Y+Y^2:X^2]"))
@example(parse_map("[Y^3:X^3]"))
@example(parse_map("[X^4+Y^4:X*Y^3]"))
@example(parse_map("z^2-29/16"))  # polynomials: the triangular solve
@example(parse_map("2*z^3-z+1/5"))
def test_escape_threshold_and_resultant_match_sympy(pair):
    assert pair.resultant == _sympy_sylvester(pair).det()
    assert escape_threshold(pair) == _sympy_escape_threshold(pair)


@settings(max_examples=60, deadline=None)
@given(small_pairs(degrees=st.integers(1, 5)), st.integers(-4, 4), st.integers(-4, 4))
@example(parse_map("z^2-29/16"), 0, 1)  # W = (0, 1024, 0) vanishes at 0
@example(parse_map("[X^2-Y^2:X*Y]"), 1, 1)
def test_wronskian_and_its_zeros_match_sympy(pair, x, y):
    d = pair.degree
    X, Y = sympy.symbols("X Y")
    f = sum(c * X ** (d - i) * Y**i for i, c in enumerate(pair.a))
    g = sum(c * X ** (d - i) * Y**i for i, c in enumerate(pair.b))
    w = sympy.expand(sympy.diff(f, X) * sympy.diff(g, Y) - sympy.diff(f, Y) * sympy.diff(g, X))
    expected = tuple(int(w.coeff(X, 2 * d - 2 - k).coeff(Y, k)) for k in range(2 * d - 1))
    assert wronskian(pair.a, pair.b) == expected
    assert _vanishes(wronskian(pair.a, pair.b), x, y) == (w.subs({X: x, Y: y}) == 0)
    # a random point seldom is a zero of W, so also try W times a form that is 0 there
    if w != 0 and (x, y) != (0, 0):
        v = sympy.Poly(w * (y * X - x * Y), X, Y)
        through = [int(v.coeff_monomial(X ** (2 * d - 1 - k) * Y**k)) for k in range(2 * d)]
        assert _vanishes(through, x, y)


@st.composite
def sparse_forms(draw):
    """Forms (F, G) of degree up to 40 with one to four nonzero coefficients a side;
    the Wronskian needs no nonzero resultant, so no pair is built."""
    d = draw(st.integers(2, 40))
    sides = []
    for _ in range(2):
        side = [0] * (d + 1)
        for i in draw(st.lists(st.integers(0, d), min_size=1, max_size=4)):
            side[i] = draw(st.integers(-9, 9).filter(bool))
        sides.append(tuple(side))
    return tuple(sides)


# small dense pairs meet the same oracle in test_wronskian_and_its_zeros_match_sympy
@settings(max_examples=60, deadline=None)
@given(sparse_forms())
@example(((1,) + (0,) * 39 + (1,), (0,) * 40 + (1,)))  # z^40+1
@example(((1,) + (0,) * 39 + (1,), (0, 1) + (0,) * 39))  # [X^40+Y^40:X^39*Y]
def test_wronskian_matches_sympy(forms):
    a, b = forms
    d = len(a) - 1
    X, Y = sympy.symbols("X Y")
    f = sum(c * X ** (d - i) * Y**i for i, c in enumerate(a))
    g = sum(c * X ** (d - i) * Y**i for i, c in enumerate(b))
    w = sympy.Poly(sympy.diff(f, X) * sympy.diff(g, Y) - sympy.diff(f, Y) * sympy.diff(g, X),
                   X, Y)
    assert wronskian(a, b) == tuple(int(w.coeff_monomial(X ** (2 * d - 2 - k) * Y**k))
                                    for k in range(2 * d - 1))


def _sympy_rational_critical_points(pair):
    """Roots of the linear factors over Q of a Wronskian built by sympy, and
    infinity when its X^(2d-2) coefficient is 0."""
    d = pair.degree
    X, Y = sympy.symbols("X Y")
    f = sum(c * X ** (d - i) * Y**i for i, c in enumerate(pair.a))
    g = sum(c * X ** (d - i) * Y**i for i, c in enumerate(pair.b))
    w = sympy.Poly(sympy.diff(f, X) * sympy.diff(g, Y) - sympy.diff(f, Y) * sympy.diff(g, X),
                   X, Y)
    roots = {INFINITY} if w.coeff_monomial(X ** (2 * d - 2)) == 0 else set()
    for factor, _ in sympy.factor_list(w.as_expr(), X, Y)[1]:
        linear = sympy.Poly(factor, X, Y)
        if linear.total_degree() == 1:  # a*X + b*Y vanishes at [-b : a]
            a, b = (int(linear.coeff_monomial(m)) for m in (X, Y))
            roots.add(canonicalize(-b, a))
    return roots


@settings(max_examples=60, deadline=None)
@given(small_pairs(degrees=st.integers(2, 4)))
@example(parse_map("z^2-1"))  # the critical 2-cycle {0, -1}, and infinity
@example(parse_map("[X^2-Y^2:X*Y]"))  # W = (2, 0, 2): no rational critical point
def test_per0_is_the_cycles_through_rational_critical_points(pair):
    critical = _sympy_rational_critical_points(pair)
    inv = enumerate_preperiodic(pair, 16)
    assert inv.per0 == {p for cyc in inv.cycles if critical.intersection(cyc) for p in cyc}


_z, _X, _Y = sympy.symbols("z X Y")

_rationals = st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(
    lambda pq: (f"({pq[0]}/{pq[1]})", sympy.Rational(*pq)))


@st.composite
def _affine_expressions(draw, depth=4):
    """(text, value, divides_by_zero) for a random rational expression in z."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(st.just(("z", _z, False)),
                              st.integers(0, 9).map(lambda n: (str(n), sympy.Integer(n), False)),
                              _rationals.map(lambda r: (*r, False))))
    kind = draw(st.sampled_from(["neg", "pow", "+", "-", "*", "/", "common"]))
    text, value, bad = draw(_affine_expressions(depth - 1))
    if kind == "neg":
        return f"(-{text})", -value, bad
    if kind == "pow":
        k = draw(st.integers(0, 4))
        return f"({text})^{k}", value**k, bad
    text2, value2, bad2 = draw(_affine_expressions(depth - 1))
    bad = bad or bad2
    if kind == "common":  # a factor the parser must cancel
        bad = bad or sympy.cancel(value2) == 0
        return f"((({text})*({text2}))/({text2}))", value, bad
    if kind == "/":
        bad = bad or sympy.cancel(value2) == 0
        value = sympy.S.Zero if bad else value / value2
    else:
        value = {"+": value + value2, "-": value - value2, "*": value * value2}[kind]
    return f"({text}{kind}{text2})", value, bad


@st.composite
def _homogeneous_forms(draw, degree, depth=2):
    """(text, value) for a random binary form in X, Y of the given degree."""
    kind = draw(st.sampled_from(["terms", "+", "-", "*", "/", "^2", "cancel"]))
    if (depth == 0 or kind == "terms" or (kind in ("*", "cancel") and degree == 0)
            or (kind == "^2" and degree % 2)):
        terms = [(f"{c}*X^{degree - i}*Y^{i}", v * _X ** (degree - i) * _Y**i)
                 for i, (c, v) in enumerate(draw(st.lists(_rationals, min_size=degree + 1,
                                                          max_size=degree + 1)))]
        return "+".join(t for t, _ in terms), sum(v for _, v in terms)
    if kind == "^2":
        text, value = draw(_homogeneous_forms(degree // 2, depth - 1))
        return f"({text})^2", value**2
    if kind == "*":
        k = draw(st.integers(1, degree))
        (t1, v1), (t2, v2) = (draw(_homogeneous_forms(k, depth - 1)),
                              draw(_homogeneous_forms(degree - k, depth - 1)))
        return f"({t1})*({t2})", v1 * v2
    t1, v1 = draw(_homogeneous_forms(degree, depth - 1))
    if kind == "cancel":  # a term of lower degree, added and taken away again
        term = f"{draw(st.integers(1, 9))}*X^{draw(st.integers(0, degree - 1))}"
        return f"(({t1})+{term}-{term})", v1
    if kind == "/":
        text, c = draw(_rationals.filter(lambda r: r[1] != 0))
        return f"({t1})/{text}", v1 / c
    t2, v2 = draw(_homogeneous_forms(degree, depth - 1))
    return f"({t1}){kind}({t2})", v1 + v2 if kind == "+" else v1 - v2


@st.composite
def _map_descriptions(draw):
    """(text, expected): expected is (degree, a, b), or None where no map is defined."""
    if draw(st.booleans()):
        text, value, bad = draw(_affine_expressions())
        if bad:
            return text, None
        num, den = (sympy.Poly(part, _z) for part in sympy.fraction(sympy.cancel(value)))
        d = max(num.degree(), den.degree())
        if d < 1:
            return text, None
        forms = [[p.coeff_monomial(_z ** (d - i)) for i in range(d + 1)] for p in (num, den)]
    else:
        d = draw(st.integers(1, 4))
        (f_text, f), (g_text, g) = draw(_homogeneous_forms(d)), draw(_homogeneous_forms(d))
        text = f"[{f_text} : {g_text}]"
        f, g = sympy.Poly(f, _X, _Y), sympy.Poly(g, _X, _Y)
        if f.is_zero or g.is_zero or sympy.gcd(f, g).total_degree() > 0:
            return text, None
        forms = [[p.coeff_monomial(_X ** (d - i) * _Y**i) for i in range(d + 1)] for p in (f, g)]
    coeffs = [sympy.Rational(c) for c in forms[0] + forms[1]]
    scale = math.lcm(*(c.q for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    content = math.gcd(*ints) * (1 if next(c for c in ints if c) > 0 else -1)
    ints = [c // content for c in ints]
    return text, (d, tuple(ints[:d + 1]), tuple(ints[d + 1:]))


@settings(max_examples=200, deadline=None)
@given(_map_descriptions())
def test_parse_map_matches_sympy(description):
    text, expected = description
    if expected is None:
        with pytest.raises(DegenerateMapError):
            parse_map(text)
    else:
        pair = parse_map(text)
        assert (pair.degree, pair.a, pair.b) == expected


# the map alphabet, with a name no map accepts and a character no token starts with
_MAP_PIECES = ("z", "X", "Y", "w", "+", "-", "*", "/", "^", "**", "(", ")", "[", "]", ":",
               " ", ".")


def _grammar_expressions(names):
    """Expressions the grammar accepts, over the variables names and integers below 100."""
    atoms = st.one_of(st.sampled_from(names), st.sampled_from("012"),
                      st.integers(3, 99).map(str))
    return st.recursive(atoms, lambda inner: st.one_of(
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*/"), inner),
        inner.map("-{}".format), st.builds("({})^{}".format, inner, st.integers(0, 3))),
        max_leaves=8)


_MAP_SEEDS = st.one_of(st.sampled_from(("", "[")), _grammar_expressions(("z",)),
                       st.builds("[{} : {}]".format, _grammar_expressions(("X", "Y")),
                                 _grammar_expressions(("X", "Y"))))


def _joined(parts):
    """The parts run together, with a space where two integers would run into one."""
    text = ""
    for part in parts:
        text += " " + part if text[-1:].isdigit() and part[:1].isdigit() else part
    return text


@st.composite
def _short_map_texts(draw):
    """A text of either shape, or "" or "[", with at most one run of it replaced by up
    to 6 pieces of the map alphabet and integers below 100."""
    seed = draw(_MAP_SEEDS)
    if not draw(st.booleans()):
        return seed
    start = draw(st.integers(0, len(seed)))
    stop = draw(st.integers(start, len(seed)))
    pieces = draw(st.lists(st.one_of(st.sampled_from(_MAP_PIECES), st.integers(0, 99).map(str)),
                           max_size=6))
    return _joined([seed[:start], *pieces, seed[stop:]])


def _exponent_product(text):
    """The product of the text's exponents (each at least 1), a bound on a power's growth."""
    try:
        tokens = _tokenize(text)
    except MapSyntaxError:
        return 1
    return math.prod(max(tok[1], 1) for prev, tok in zip(tokens, tokens[1:])
                     if prev[:2] == ("op", "^") and tok[0] == "int")


def _read(reader, text):
    try:
        return reader(text)
    except (MapSyntaxError, DegenerateMapError) as e:
        return e


@settings(max_examples=400, deadline=None)
@given(_short_map_texts())
@example("z^2-29/16")
@example("[X^3+2*Y^3:X*Y^2]")
@example("[X/0 : Y")
@example("z/0 +")
@example("(z/2)^2-1")
@example("[X^2 : Y^2] z")
def test_parse_map_agrees_with_the_two_pass_reader(text):
    assume(_exponent_product(text) <= 81)
    new, old = _read(parse_map, text), _read(naive_parse_map, text)
    if isinstance(new, DegenerateMapError) and isinstance(old, MapSyntaxError):
        # one pass refuses a divisor as it reads it, before a syntax fault after it
        assert str(new) in ("division by an identically-zero expression",
                            "homogeneous sides may only be divided by constants"), text
        assert "/" in text[:old.position], text
    elif isinstance(new, Exception):
        assert (type(new), str(new)) == (type(old), str(old)), text
    else:
        assert (new, new.source) == (old, getattr(old, "source", None)), text


# '²' is a digit to str.isdigit but no decimal digit; '\u0663' (Arabic-Indic three) is one
_TOKEN_ALPHABET = "zXY0123456789+-*/^()[]: \t\n\u00a0\u2003$é²\u0663"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=12))
@example("z**2")
@example("z^2 - 1 \t\n")
@example("z^2 $")
@example("z^\u0663")
@example("\u00a0z^2")
def test_tokenize_agrees_with_the_position_loop(text):
    new, old = _read(_tokenize, text), _read(naive_tokenize, text)
    if isinstance(old, Exception):
        assert isinstance(new, MapSyntaxError), text
        assert (str(new), new.position) == (str(old), old.position), text
    else:
        assert new == old, text
