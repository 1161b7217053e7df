"""Exact integer arithmetic for the classical half of order-finding runs."""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from ._checked import checked_record


# multiplicative_order walks r steps, r < n; it refuses n >= _ORDER_BOUND.
_ORDER_BOUND = 1 << 20
# prime_factors divides up to sqrt(n); it refuses n >= _FACTOR_BOUND. The
# bound is the order bound squared, since order finding factors a verified
# multiple of the order, which its restart rule keeps at most n**2.
_FACTOR_BOUND = _ORDER_BOUND**2


def prime_factors(n: int) -> dict[int, int]:
    """{p: e} with the product of p**e equal to n, primes ascending, by trial division.

    Requires 1 <= n < 2**40 (prime_factors(1) is empty); the largest prime
    below that bound takes about 0.1 s.
    """
    if not 1 <= n < _FACTOR_BOUND:
        raise ValueError(f"prime_factors needs 1 <= n < 2**40, got n={n}")
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; n below 2**40."""
    return n >= 2 and prime_factors(n) == {n: 1}


def multiplicative_order(a: int, n: int) -> int:
    """Smallest r >= 1 with a**r = 1 (mod n); requires gcd(a, n) = 1 and n < 2**20."""
    if not 1 < a < n:
        raise ValueError("need 1 < a < n")
    if n >= _ORDER_BOUND:
        raise ValueError(f"multiplicative_order needs n < 2**20, got n={n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"a={a} is not coprime to n={n}")
    v = a % n
    r = 1
    while v != 1:
        v = v * a % n
        r += 1
    return r


class Semiprime(checked_record("Semiprime", "n p q")):
    """Product of two distinct odd primes."""

    __slots__ = ()

    def __new__(cls, n: int, p: int, q: int) -> Semiprime:
        if p == q:
            raise ValueError("prime factors must be distinct")
        for f in (p, q):
            if f == 2 or not is_prime(f):
                raise ValueError(f"{f} is not an odd prime")
        if p * q != n:
            raise ValueError(f"{p} * {q} != {n}")
        return tuple.__new__(cls, (n, p, q))

    def carmichael(self) -> int:
        """lcm(p - 1, q - 1)."""
        return math.lcm(self.p - 1, self.q - 1)

    def allowed_periods(self) -> list[int]:
        """Divisors greater than 1 of the Carmichael value, ascending.

        Every multiplicative order mod n divides carmichael(), so this is
        the complete list of periods an exponentiation map can have.
        """
        lam = self.carmichael()
        # each divisor d <= sqrt(lam) pairs with lam // d >= sqrt(lam)
        small = [d for d in range(1, math.isqrt(lam) + 1) if lam % d == 0]
        return small[1:] + [lam // d for d in reversed(small) if d * d != lam]


def factor_semiprime(n: int) -> Semiprime:
    """Split n into two distinct odd primes, or raise ValueError."""
    factors = prime_factors(n) if n >= 15 and n % 2 else {}
    if len(factors) != 2 or set(factors.values()) != {1}:
        raise ValueError(f"{n} is not an odd semiprime with distinct factors")
    return Semiprime(n, *factors)


def odd_semiprimes(limit: int) -> list[Semiprime]:
    """Every product p * q <= limit of two distinct odd primes, ascending.

    The odd primes up to limit // 3 are listed once and paired, so no odd
    n is factored or refused on its own.
    """
    primes = [f for f in range(3, limit // 3 + 1, 2) if is_prime(f)]
    products = []
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            if p * q > limit:
                break
            products.append((p * q, p, q))
    return [Semiprime(*fields) for fields in sorted(products)]


class OrderRecord(NamedTuple):
    a: int
    r: int


def coprime_order_table(n: int) -> list[OrderRecord]:
    """Multiplicative order of every a in (1, n) coprime to n."""
    if n < 3:
        raise ValueError("modulus too small")
    return [
        OrderRecord(a, multiplicative_order(a, n))
        for a in range(2, n)
        if math.gcd(a, n) == 1
    ]


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with p prime and p**k = n, else None; k = 1 allowed."""
    factors = prime_factors(n) if n >= 2 else {}
    return next(iter(factors.items())) if len(factors) == 1 else None


class PostProcessStatus(Enum):
    FACTORS = "factors"
    ODD_ORDER_NO_SQUARE_ROOT = "odd-order-no-square-root"
    MINUS_ONE_CONGRUENCE = "minus-one-congruence"


class PostProcessOutcome(NamedTuple):
    status: PostProcessStatus
    factors: tuple[int, int] | None = None


class TrivialFactorError(ValueError):
    """gcd(s +- 1, n) came out 1 or n, which yields no factor."""


def shor_postprocess(n: int, a: int, r: int) -> PostProcessOutcome:
    """Classical factor extraction from a verified multiplicative order.

    For even r, s = a**(r/2). For odd r the base must be a perfect square
    so that s = sqrt(a)**r plays the same role. s = -1 (mod n) is reported
    as MINUS_ONE_CONGRUENCE; otherwise gcd(s + 1, n) and gcd(s - 1, n) are
    the factors. A trivial gcd raises rather than returning silently.
    """
    if math.gcd(a, n) != 1:
        raise ValueError("base must be coprime to the modulus")
    if r != multiplicative_order(a, n):
        raise ValueError(f"r={r} is not the multiplicative order of {a} mod {n}")
    if r % 2 == 0:
        s = pow(a, r // 2, n)
    else:
        root = math.isqrt(a)
        if root * root != a:
            return PostProcessOutcome(PostProcessStatus.ODD_ORDER_NO_SQUARE_ROOT)
        s = pow(root, r, n)
    if s == n - 1:
        return PostProcessOutcome(PostProcessStatus.MINUS_ONE_CONGRUENCE)
    f1 = math.gcd(s + 1, n)
    f2 = math.gcd(s - 1, n)
    if f1 in (1, n) or f2 in (1, n):
        raise TrivialFactorError(f"gcd pair ({f1}, {f2}) is trivial for n={n}")
    lo, hi = sorted((f1, f2))
    return PostProcessOutcome(PostProcessStatus.FACTORS, (lo, hi))


def continued_fraction_order(k: int, m: int, n: int) -> int | None:
    """Best period candidate from a measured value k out of m = 2**bits.

    Expands k/m as a continued fraction and returns the largest convergent
    denominator d with 1 < d < n. Returns None when no convergent qualifies;
    in particular k = 0 carries no period information.
    """
    if m < 2 or m & (m - 1):
        raise ValueError("m must be a power of two, at least 2")
    if not 0 <= k < m:
        raise ValueError("need 0 <= k < m")
    if k == 0:
        return None
    best = None
    # Convergent denominators q_i = a_i * q_{i-1} + q_{i-2} for k/m = [0; a_1, a_2, ...].
    q_prev, q_cur = 0, 1
    num, den = m, k
    while den:
        a = num // den
        num, den = den, num % den
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if 1 < q_cur < n:
            best = q_cur
        if q_cur >= n:
            break
    return best
