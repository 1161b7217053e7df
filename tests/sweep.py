"""The sweep: the 455 coprime (a, N), N one of the 13 odd semiprimes below 90.

The tests that walk the sweep read it from here, except
``test_factor_outputs_are_pinned``, whose pinned body keeps its own loop.
"""

import math

from shorcompile.numtheory import factor_semiprime


def odd_semiprimes_below(limit: int) -> list[int]:
    """Each odd N below ``limit`` with two distinct prime factors, ascending."""
    out = []
    for n in range(15, limit, 2):
        try:
            out.append(factor_semiprime(n).n)
        except ValueError:
            pass
    return out


def sweep_pairs() -> list[tuple[int, int]]:
    """The sweep's coprime (a, N), in (N, a) order."""
    return [(a, n) for n in odd_semiprimes_below(90) for a in range(2, n) if math.gcd(a, n) == 1]
