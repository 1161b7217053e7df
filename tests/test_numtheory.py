"""Number theory layer, checked against brute-force oracles."""

import hashlib
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sweep import odd_semiprimes_below

from shorcompile.cli import entrypoint
from shorcompile.numtheory import (
    OrderRecord,
    PostProcessStatus,
    Semiprime,
    TrivialFactorError,
    continued_fraction_order,
    coprime_order_table,
    factor_semiprime,
    is_prime,
    is_prime_power,
    multiplicative_order,
    odd_semiprimes,
    prime_factors,
    shor_postprocess,
)

RNG = random.Random(1729)


def _order_oracle(a: int, n: int) -> int:
    v, r = a % n, 1
    while v != 1:
        v = (v * a) % n
        r += 1
    return r


def test_is_prime_exhaustive_small():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n], n


def test_multiplicative_order_against_oracle():
    for _ in range(300):
        n = RNG.randrange(3, 500)
        a = RNG.randrange(2, n)
        if math.gcd(a, n) != 1:
            with pytest.raises(ValueError):
                multiplicative_order(a, n)
            continue
        r = multiplicative_order(a, n)
        assert r == _order_oracle(a, n)
        assert pow(a, r, n) == 1
        for d in range(1, r):
            assert pow(a, d, n) != 1


def test_semiprime_validation():
    sp = Semiprime(15, 3, 5)
    assert (sp.n, sp.p, sp.q) == (15, 3, 5)
    with pytest.raises(ValueError):
        Semiprime(9, 3, 3)  # repeated prime
    with pytest.raises(ValueError):
        Semiprime(10, 2, 5)  # even prime
    with pytest.raises(ValueError):
        Semiprime(16, 3, 5)  # product mismatch


def test_factor_semiprime():
    assert factor_semiprime(15) == Semiprime(15, 3, 5)
    assert factor_semiprime(33) == Semiprime(33, 3, 11)
    assert factor_semiprime(87) == Semiprime(87, 3, 29)
    for bad in (9, 25, 27, 30, 13, 105):
        with pytest.raises(ValueError):
            factor_semiprime(bad)


def test_carmichael_is_the_exponent_of_the_group():
    # lambda(pq) must be the exact maximum order, not merely an upper bound
    for p, q in [(3, 5), (3, 7), (3, 11), (5, 7), (5, 11), (7, 11), (3, 29)]:
        n = p * q
        lam = Semiprime(n, p, q).carmichael()
        orders = [_order_oracle(a, n) for a in range(2, n) if math.gcd(a, n) == 1]
        assert all(lam % r == 0 for r in orders)
        assert lam in orders or lam == 1


def test_allowed_periods_are_nontrivial_divisors():
    """Every odd semiprime below 4096 against the definition, a scan of 2..lambda."""
    semiprimes = odd_semiprimes_below(4096)
    assert len(semiprimes) == 798 and semiprimes[-1] == 4087
    for n in semiprimes:
        sp = factor_semiprime(n)
        lam = sp.carmichael()
        assert sp.allowed_periods() == [d for d in range(2, lam + 1) if lam % d == 0], n


@pytest.mark.parametrize("limit", [-1, 0, 14, 15, 16, 21, 89, 90, 4095])
def test_odd_semiprimes_are_the_odd_n_that_factor(limit):
    """Pairing primes lists the records factor_semiprime builds for each odd n it accepts, in order."""
    assert odd_semiprimes(limit) == [factor_semiprime(n) for n in odd_semiprimes_below(limit + 1)]


def test_allowed_periods_table_is_pinned(capsys):
    """sha256 of `tables allowed-periods --max-N 16384 --format csv`: every odd
    semiprime up to the bound and its divisors, on every Python and numpy the
    package supports."""
    assert entrypoint(["tables", "allowed-periods", "--max-N", "16384", "--format", "csv"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "22ffb7681656641b29327fc762243830fbca66347c1d969ba477aa59ee004ab1"


def test_allowed_periods_known_rows():
    assert Semiprime(15, 3, 5).allowed_periods() == [2, 4]
    assert Semiprime(21, 3, 7).allowed_periods() == [2, 3, 6]
    assert Semiprime(33, 3, 11).allowed_periods() == [2, 5, 10]
    assert Semiprime(77, 7, 11).allowed_periods() == [2, 3, 5, 6, 10, 15, 30]
    assert Semiprime(87, 3, 29).allowed_periods() == [2, 4, 7, 14, 28]


def test_coprime_order_table_n15():
    table = coprime_order_table(15)
    assert [(rec.a, rec.r) for rec in table] == [
        (2, 4), (4, 2), (7, 4), (8, 4), (11, 2), (13, 4), (14, 2),
    ]
    assert all(isinstance(rec, OrderRecord) for rec in table)


def test_coprime_order_table_accepts_its_least_modulus():
    assert coprime_order_table(3) == [OrderRecord(2, 2)]


def test_coprime_order_table_matches_oracle():
    for n in (21, 33, 35):
        table = coprime_order_table(n)
        expected = [(a, _order_oracle(a, n)) for a in range(2, n) if math.gcd(a, n) == 1]
        assert [(rec.a, rec.r) for rec in table] == expected


def test_is_prime_power_exhaustive():
    for n in range(2, 3000):
        hit = is_prime_power(n)
        # the smallest divisor > 1 is prime, and p**k = n forces p to be it
        spf = next(d for d in range(2, n + 1) if n % d == 0)
        v, k = spf, 1
        while v < n:
            v *= spf
            k += 1
        truth = (spf, k) if v == n else None
        assert hit == truth, n
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(27) == (3, 3)
    assert is_prime_power(33) is None


def _is_prime_brute(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@given(st.integers(1, 2**40 - 1))
def test_prime_factors_property(n):
    factors = prime_factors(n)
    assert math.prod(p**e for p, e in factors.items()) == n
    assert list(factors) == sorted(factors)
    assert all(e >= 1 for e in factors.values())
    for p in factors:
        if p < 10**6:
            assert _is_prime_brute(p), p


def test_prime_factors_known_values():
    assert prime_factors(1) == {}
    assert prime_factors(2) == {2: 1}
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(2**40 - 1) == {3: 1, 5: 2, 11: 1, 17: 1, 31: 1, 41: 1, 61681: 1}
    assert prime_factors(2**40 - 87) == {2**40 - 87: 1}  # the largest prime below the bound


@pytest.mark.parametrize("n", [0, -7, 2**40, 2**61 - 1, 2**1100])
def test_prime_factors_refuses_outside_its_bound(n):
    with pytest.raises(ValueError, match=r"2\*\*40"):
        prime_factors(n)


def test_prime_helpers_refuse_large_inputs_with_value_error():
    # the float k-th-root search this replaced raised OverflowError here
    with pytest.raises(ValueError, match=r"2\*\*40"):
        is_prime_power(2**1100)
    with pytest.raises(ValueError, match=r"2\*\*40"):
        is_prime(2**61 - 1)
    with pytest.raises(ValueError):
        factor_semiprime(2**61 - 1)


def test_multiplicative_order_refuses_moduli_at_its_bound():
    assert multiplicative_order(2, 2**20 - 1) == 20
    with pytest.raises(ValueError, match=r"2\*\*20"):
        multiplicative_order(3, 2**20)
    with pytest.raises(ValueError, match=r"2\*\*20"):
        multiplicative_order(2, 2**20 + 1)
    with pytest.raises(ValueError, match=r"2\*\*20"):
        multiplicative_order(2, 1_000_000_007)


def test_shor_postprocess_even_order():
    out = shor_postprocess(15, 2, 4)
    assert out.status is PostProcessStatus.FACTORS
    assert out.factors == (3, 5)
    assert shor_postprocess(15, 4, 2).factors == (3, 5)
    assert shor_postprocess(21, 2, 6).factors == (3, 7)


def test_shor_postprocess_odd_order_square_base():
    # r odd is recoverable when a is a perfect square: s = sqrt(a)**r
    out = shor_postprocess(21, 4, 3)
    assert out.status is PostProcessStatus.FACTORS
    assert out.factors == (3, 7)


def test_shor_postprocess_more_factor_cases():
    assert shor_postprocess(33, 5, 10).factors == (3, 11)
    assert shor_postprocess(33, 10, 2).factors == (3, 11)
    assert shor_postprocess(35, 3, 12).factors == (5, 7)


def test_shor_postprocess_odd_order_no_square_root():
    # 31 has order 5 mod 33 but is not a perfect square
    out = shor_postprocess(33, 31, 5)
    assert out.status is PostProcessStatus.ODD_ORDER_NO_SQUARE_ROOT
    assert out.factors is None


def test_shor_postprocess_minus_one_branch():
    out = shor_postprocess(33, 4, 5)
    assert out.status is PostProcessStatus.MINUS_ONE_CONGRUENCE
    assert out.factors is None
    # the same congruence can arrive through an even order
    assert shor_postprocess(33, 2, 10).status is PostProcessStatus.MINUS_ONE_CONGRUENCE
    assert shor_postprocess(21, 5, 6).status is PostProcessStatus.MINUS_ONE_CONGRUENCE


def test_shor_postprocess_rejects_wrong_order():
    with pytest.raises(ValueError):
        shor_postprocess(15, 2, 3)  # 2**3 != 1 mod 15
    with pytest.raises(ValueError):
        shor_postprocess(15, 2, 8)  # multiple of the order, not the order


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: coprime_order_table(2), "modulus too small"),
        (lambda: shor_postprocess(15, 3, 4), "base must be coprime to the modulus"),
        (lambda: continued_fraction_order(1, 6, 15), "m must be a power of two, at least 2"),
        (lambda: continued_fraction_order(8, 8, 15), "need 0 <= k < m"),
    ],
    ids=("order-table-modulus", "postprocess-base", "cf-m", "cf-k"),
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_shor_postprocess_exhaustive_over_small_semiprimes():
    # every outcome must be factors equal to (p, q) or a named failure branch
    for n in (15, 21, 33, 35):
        sp = factor_semiprime(n)
        for rec in coprime_order_table(n):
            try:
                out = shor_postprocess(n, rec.a, rec.r)
            except TrivialFactorError:
                assert rec.r % 2 == 1  # only the odd square-root path can go trivial
                continue
            if out.status is PostProcessStatus.FACTORS:
                assert out.factors == (sp.p, sp.q)
            else:
                assert out.factors is None
                assert out.status in (
                    PostProcessStatus.MINUS_ONE_CONGRUENCE,
                    PostProcessStatus.ODD_ORDER_NO_SQUARE_ROOT,
                )


def _convergent_denominators(k: int, m: int) -> list[int]:
    # q_i = a_i * q_{i-1} + q_{i-2}, seeded q_{-2} = 1, q_{-1} = 0
    dens, prev2, prev1 = [], 1, 0
    num, den = k, m
    while den:
        a, rem = divmod(num, den)
        cur = a * prev1 + prev2
        dens.append(cur)
        prev2, prev1 = prev1, cur
        num, den = den, rem
    return dens


def test_continued_fraction_order_known_samples():
    assert continued_fraction_order(85, 256, 15) == 3
    assert continued_fraction_order(64, 256, 15) == 4
    assert continued_fraction_order(128, 256, 15) == 2
    assert continued_fraction_order(171, 512, 21) == 3
    assert continued_fraction_order(341, 512, 21) == 3
    assert continued_fraction_order(0, 256, 15) is None
    assert continued_fraction_order(1, 2, 15) == 2  # m = 2, the least register accepted
    for k in (170, 172, 340, 342):
        assert continued_fraction_order(k, 512, 21) == 3


def test_continued_fraction_order_is_largest_in_range():
    for _ in range(400):
        m = 1 << RNG.randrange(4, 12)
        k = RNG.randrange(0, m)
        n = RNG.randrange(5, 100)
        got = continued_fraction_order(k, m, n)
        want = [d for d in _convergent_denominators(k, m) if 1 < d < n]
        assert got == (max(want) if want else None), (k, m, n)
