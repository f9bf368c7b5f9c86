"""Integer helpers: trial-division factorization, totients, unit orders."""

from __future__ import annotations

import math


def _check_positive(n: int, what: str = "n") -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{what} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division: (prime, exponent) pairs, primes ascending."""
    _check_positive(n)
    rest = n
    factors = []
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            factors.append((p, k))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def euler_phi(n: int) -> int:
    """Count of 1 <= x <= n with gcd(x, n) = 1."""
    _check_positive(n)
    out = 1
    for p, k in factorize(n):
        out *= p ** (k - 1) * (p - 1)
    return out


def totatives(n: int) -> list[int]:
    """Ascending list of x in [1, n] coprime to n; totatives(1) == [1]."""
    _check_positive(n)
    return [x for x in range(1, n + 1) if math.gcd(x, n) == 1]


def multiplicative_order(a: int, m: int) -> int:
    """Least k >= 1 with a^k = 1 (mod m); a must be coprime to m."""
    _check_positive(m, "m")
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible mod {m}")
    k, value = 1, a % m
    while value != 1 % m:  # 1 % m is 0 when m == 1
        value = value * a % m
        k += 1
    return k
