"""Exact integer arithmetic helpers: primality, factorization, integer roots.

Everything here is unconditional: a result is either exact or an explicit
error is raised.  Nothing falls back to floating point or to probabilistic
answers.
"""

from __future__ import annotations

import math

# Deterministic Miller-Rabin with the first 13 primes as witnesses is a
# proven primality test strictly below this bound.
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_RHO_BUDGET = 5_000_000


class ArithmeticInputError(ValueError):
    """Raised for arguments outside an operation's domain."""


# log10(2) lies strictly between _LOG10_2 / 10^20 and (_LOG10_2 + 1) / 10^20
_LOG10_2 = 30102999566398119521


def int_digits(v: int) -> int:
    """Exact decimal digit count of a nonnegative integer.

    2^(b-1) <= v < 2^b for b = bit_length(v), so floor(log10 v) lies in
    [floor((b-1) log10 2), floor(b log10 2)], widened outward by the bracket
    on log10 2.  That leaves one candidate for about 70% of b; otherwise one
    power of five tells two apart, as v >= 10^k exactly when (v >> k) >= 5^k.
    """
    if v == 0:
        return 1
    bits = v.bit_length()
    lo = (bits - 1) * _LOG10_2 // 10**20
    hi = bits * (_LOG10_2 + 1) // 10**20
    while lo < hi:  # lo <= floor(log10 v) <= hi
        if (v >> hi) >= 5**hi:
            lo = hi
        else:
            hi -= 1
    return lo + 1


def _name(n: int) -> str:
    """n in decimal, or its digit count once it is past 60 digits."""
    digits = int_digits(abs(n))
    return str(n) if digits <= 60 else f"a {digits}-digit number"


class PrimalityRangeError(ArithmeticInputError):
    """Raised when a primality query exceeds the deterministic witness range."""


class FactorizationIncompleteError(RuntimeError):
    """Raised when the factoring budget runs out before a full factorization."""

    def __init__(self, n, partial, remaining):
        super().__init__(
            f"factoring budget exhausted on {_name(n)}; "
            f"unfactored cofactor {_name(remaining)}"
        )
        self.n = n
        self.partial = partial
        self.remaining = remaining


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(limit + 1) if sieve[i]]


_PRIMES_10K = _small_primes(10_000)


def is_prime(n: int) -> bool:
    """Deterministic primality; a failing witness proves compositeness at any size.

    A number of 3.317e24 or more that passes every witness raises PrimalityRangeError.
    """
    if n < 0:
        raise ArithmeticInputError("primality is asked of nonnegative integers")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise PrimalityRangeError(
            f"{_name(n)} exceeds the deterministic Miller-Rabin range {_MR_LIMIT}"
        )
    return True


def _strip(n: int, p: int) -> tuple[int, int]:
    """(m, e) with n = p^e * m and p not dividing m, for n != 0.

    One division at a time for the first 32 factors, which covers the small
    exponents of resultants and cross products; past that, n is divided by
    p, p^2, p^4, ... while they divide and then by the same powers going
    down, so a factor p^e costs about 2*log2(e) divisions instead of e.
    At p = 2, e is the index of n's lowest set bit, read in one step.
    """
    if p == 2:
        e = (n & -n).bit_length() - 1
        return n >> e, e
    e = 0
    while e < 32 and n % p == 0:
        n //= p
        e += 1
    if e < 32:
        return n, e
    powers = [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        e += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for k in range(len(powers) - 2, -1, -1):
        if n % powers[k] == 0:
            n //= powers[k]
            e += 1 << k
    return n, e


def _brent_rho(n: int, budget: list[int]) -> int:
    # Brent's cycle variant; deterministic over increasing polynomial offsets.
    # An iteration costs about quadratically in the size of n, so past 511
    # bits it is charged (bits >> 8)**2 budget units instead of one.  n is odd:
    # factorize strips 2 by trial division before a cofactor reaches rho.
    cost = max(1, (n.bit_length() >> 8) ** 2)
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= cost * min(m, r - k)
                if budget[0] <= 0:
                    return 0
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                budget[0] -= cost
                if budget[0] <= 0:
                    return 0
        if g != n:
            return g
    return 0


def _iroot(n: int, k: int) -> int:
    """The largest r with r^k <= n, for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def _least_root(n: int, factor_bits: int = 1) -> tuple[int, int]:
    """(r, m) with n = r^m and m largest, for n >= 1 with no prime factor below 2^factor_bits.

    A root r^k = n then has over k*factor_bits bits, so only primes k with
    k*factor_bits < bits(r) are tried.  They rise, and each is divided out for
    as long as it is a root, so no smaller one can return.
    """
    r, m = n, 1
    for k in _small_primes((n.bit_length() - 1) // factor_bits):
        if k * factor_bits >= r.bit_length():
            break
        while (s := _iroot(r, k)) ** k == r:
            r, m = s, m * k
    return r, m


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization of |n| as an ordered {prime: exponent} map.

    Trial division by the primes below 10^4 up to the cofactor's root leaves
    1 or a prime below 10^8, returned at once.  Past 10^8, each cofactor
    popped from a stack is stripped with ``_strip`` of every prime found so
    far, split at its root if it is a perfect power, and only then tested by
    Miller-Rabin and split by Brent rho; g is pushed after m // g, so g's
    primes strip m // g before that is tested.  The root split comes first:
    Miller-Rabin on a 40,000-bit prime power takes minutes.
    The rho budget ``_RHO_BUDGET`` counts one unit per iteration below 512
    bits and (bits >> 8)**2 above; when it runs out,
    FactorizationIncompleteError carries the partial factorization, and a
    probable prime past the Miller-Rabin range raises PrimalityRangeError.
    """
    if n == 0:
        raise ArithmeticInputError("0 has no prime factorization")
    n = value = abs(n)
    found: dict[int, int] = {}
    for p in _PRIMES_10K:
        if p * p > n:
            break
        if n % p == 0:
            n, found[p] = _strip(n, p)
    if n < 10**8:  # no prime up to min(sqrt(n), 9973) divides n, and 10^8 < 10007^2
        return found | ({n: 1} if n > 1 else {})
    budget = [_RHO_BUDGET]
    stack = [n]
    while stack:
        m = stack.pop()
        for p in found:
            m, e = _strip(m, p)
            found[p] += e
        if m == 1:
            continue
        g, e = _least_root(m, 13)  # no prime below 10^4 > 2^13 is left in m
        if e == 1:
            if is_prime(m):
                found[m] = 1
                continue
            g = _brent_rho(m, budget)
            if g in (0, 1, m):
                for other in stack:
                    m *= other
                raise FactorizationIncompleteError(value, dict(sorted(found.items())), m)
        stack.append(m // g)
        stack.append(g)
    return dict(sorted(found.items()))
