import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from p1dyn import intarith
from p1dyn.intarith import (
    ArithmeticInputError,
    FactorizationIncompleteError,
    PrimalityRangeError,
    factorize,
    int_digits,
    is_prime,
)


def test_factorize_examples():
    assert factorize(65536) == {2: 16}
    assert factorize(-12) == {2: 2, 3: 1}
    assert factorize(1) == {}
    assert factorize(9973) == {9973: 1}


def test_factorize_strips_huge_prime_powers():
    assert factorize(3**100000 * 7) == {3: 100000, 7: 1}
    assert factorize(2 * 10007**3000) == {2: 1, 10007: 3000}
    assert factorize(1000003**700) == {1000003: 700}
    assert factorize((2**61 - 1)**40 * (2**31 - 1)) == {2**31 - 1: 1, 2**61 - 1: 40}


def _strip_by_division(n: int, p: int) -> tuple[int, int]:
    e = 0
    while n % p == 0:
        n, e = n // p, e + 1
    return n, e


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**70), 2**70).filter(bool), st.sampled_from([0, 1, 31, 32, 33, 64, 4097]))
def test_strip_at_2_agrees_with_the_division_loop(m, e):
    # signed n carrying small and large powers of 2, odd cofactors and even ones
    n = m << e
    assert intarith._strip(n, 2) == _strip_by_division(n, 2)


def test_strip_at_2_reads_a_million_bit_power_in_one_step():
    for m in (1, -1, 3, -5, 2**64 + 1):
        assert intarith._strip(m << 1000001, 2) == (m, 1000001)


# the largest prime below each draw: between 10^4 and 2^28
_BIG_PRIMES = st.integers(10**4 + 8, 2**28).map(sympy.prevprime)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_factorize_products_of_large_primes(data):
    # 1-4 primes with exponents 1-12, all sometimes multiplied by 2-6 so that
    # perfect powers occur; the product stays below 2^511 so rho's budget holds
    common = data.draw(st.sampled_from([1, 1, 1, 2, 3, 4, 5, 6]))
    drawn, bits = {}, 0
    for _ in range(data.draw(st.integers(1, 4))):
        p = data.draw(_BIG_PRIMES)
        room = (510 - bits) // (p.bit_length() * common)
        if p in drawn or room < 1:
            continue
        drawn[p] = data.draw(st.integers(1, min(12, room))) * common
        bits += p.bit_length() * drawn[p]
    assert factorize(math.prod(p**e for p, e in drawn.items())) == drawn


def test_factorize_zero_rejected():
    with pytest.raises(ArithmeticInputError):
        factorize(0)


def test_factorize_reconstructs_and_matches_sympy():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(2, 10**12)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert fac == dict(sympy.factorint(n))
    # ordered by prime
    fac = factorize(2 * 3 * 5 * 7 * 11 * 9973)
    assert list(fac) == sorted(fac)


def test_factorize_below_10_to_the_8_needs_no_primality_test(monkeypatch):
    # trial division up to the cofactor's root leaves 1 or a prime; 9973 is the
    # last prime below 10^4 and 10007 the next, so 9973^2 <= n < 10^8 is the edge
    calls = []
    monkeypatch.setattr(intarith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    rng = random.Random(8)
    edge = [9973**2, 9973 * 10007, sympy.prevprime(10**8), 10**8 - 1, 2 * 49999991, 10007]
    for n in edge + [rng.randrange(1, 10**8) for _ in range(300)]:
        assert factorize(n) == sympy.factorint(n), n
    assert calls == []
    factorize(sympy.nextprime(10**8))
    assert calls == [sympy.nextprime(10**8)]


def test_factorize_semiprime_beyond_trial_range():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_budget_exhaustion_is_loud(monkeypatch):
    monkeypatch.setattr(intarith, "_RHO_BUDGET", 1)
    p, q = 1_000_003, 1_000_033
    with pytest.raises(FactorizationIncompleteError) as info:
        factorize(p * q)
    assert info.value.remaining % p == 0 or info.value.remaining % q == 0


def test_budget_exhaustion_names_the_input_after_trial_division(monkeypatch):
    monkeypatch.setattr(intarith, "_RHO_BUDGET", 1)
    n = 12 * 1_000_003 * 1_000_033  # trial division strips 2^2 * 3 first
    with pytest.raises(FactorizationIncompleteError) as info:
        factorize(-n)
    assert info.value.n == n == 12000432001188
    assert str(info.value).startswith("factoring budget exhausted on 12000432001188;")
    assert info.value.partial == {2: 2, 3: 1}
    assert math.prod(p**e for p, e in info.value.partial.items()) * info.value.remaining == n


def test_errors_name_long_numbers_by_digit_count(monkeypatch):
    with pytest.raises(PrimalityRangeError, match="^a 157-digit number exceeds"):
        is_prime(2**521 - 1)  # a Mersenne prime
    monkeypatch.setattr(intarith, "_RHO_BUDGET", 1000)
    with pytest.raises(FactorizationIncompleteError) as info:
        factorize((2**521 - 1) * (2**607 - 1))
    assert str(info.value) == ("factoring budget exhausted on a 340-digit number; "
                               "unfactored cofactor a 340-digit number")
    monkeypatch.setattr(intarith, "_RHO_BUDGET", 1)
    with pytest.raises(FactorizationIncompleteError, match="cofactor 1000036000099$"):
        factorize(1_000_003 * 1_000_033)


def test_is_prime_matches_sympy():
    rng = random.Random(3)
    for _ in range(400):
        n = rng.randint(0, 10**12)
        assert is_prime(n) == sympy.isprime(n)
    for n in range(100):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_known_strong_pseudoprimes():
    # strong pseudoprimes to base 2; the witness set must see through them
    for n in (2047, 3277, 4033, 1373653, 3215031751, 3825123056546413051):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_range_rejection():
    with pytest.raises(ArithmeticInputError, match="nonnegative"):
        is_prime(-1)
    with pytest.raises(PrimalityRangeError):
        is_prime(3_317_044_064_679_887_385_961_981)
    assert is_prime(3_317_044_064_679_887_385_961_813)  # largest prime below the limit


def test_is_prime_proves_compositeness_past_the_range():
    # a failing witness is a proof at any size; a probable prime past the
    # range is still refused
    with pytest.raises(PrimalityRangeError):
        is_prime(2**89 - 1)
    assert is_prime(3 * (2**89 - 1)) is False
    assert is_prime(10**30 + 1) is False


# below the interpreter's default int-string limit of 4300 digits: decimal and
# binary edges, where the digit count or the bit length steps
_edges = st.integers(1, 4299).flatmap(lambda n: st.sampled_from(
    [10**n - 1, 10**n, 10**n + 1, 2 ** (3 * n) - 1, 2 ** (3 * n), 2 ** (3 * n) + 1]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 10**4299), _edges))
def test_int_digits_matches_str_within_the_limit(v):
    assert int_digits(v) == len(str(v))


def test_int_digits_at_a_power_of_ten_near_a_million_digits():
    k = 10**6 + 7
    v = 10**k
    assert [int_digits(v - 1), int_digits(v), int_digits(v + 1)] == [k, k + 1, k + 1]
