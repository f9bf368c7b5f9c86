"""Number-theory helpers: factorization, totient, totatives, unit orders."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupkit.numth import (
    euler_phi,
    factorize,
    multiplicative_order,
    totatives,
)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, math.isqrt(p) + 1))


class TestFactorize:
    @pytest.mark.parametrize(
        "n, factors",
        [
            (1, ()),
            (2, ((2, 1),)),
            (12, ((2, 2), (3, 1))),
            (97, ((97, 1),)),
            (360, ((2, 3), (3, 2), (5, 1))),
            (1024, ((2, 10),)),
        ],
    )
    def test_known_factorizations(self, n, factors):
        assert factorize(n) == factors

    def test_reconstruct(self):
        assert math.prod(p**k for p, k in factorize(360)) == 360

    @pytest.mark.parametrize("bad", [0, -4])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            factorize(bad)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            factorize(6.0)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_round_trip_and_primality(self, n):
        f = factorize(n)
        assert math.prod(p**k for p, k in f) == n
        primes = [p for p, _ in f]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        assert all(_is_prime(p) for p in primes)
        assert all(k >= 1 for _, k in f)


class TestEulerPhi:
    @pytest.mark.parametrize(
        "n, phi",
        [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (8, 4), (9, 6), (10, 4),
         (12, 4), (16, 8), (20, 8), (97, 96), (100, 40)],
    )
    def test_known_values(self, n, phi):
        assert euler_phi(n) == phi

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            euler_phi(0)

    @given(st.integers(min_value=1, max_value=5000))
    def test_counts_totatives(self, n):
        assert euler_phi(n) == len(totatives(n))

    @given(st.integers(min_value=1, max_value=2000))
    def test_doubling_an_odd_number_preserves_phi(self, n):
        if n % 2 == 1:
            assert euler_phi(2 * n) == euler_phi(n)

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
    def test_multiplicative_on_coprime_arguments(self, a, b):
        if math.gcd(a, b) == 1:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=400))
    def test_divisor_sum_identity(self, n):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert sum(euler_phi(d) for d in divisors) == n


class TestTotatives:
    @pytest.mark.parametrize(
        "n, expected",
        [(1, [1]), (2, [1]), (8, [1, 3, 5, 7]), (12, [1, 5, 7, 11]),
         (10, [1, 3, 7, 9])],
    )
    def test_known_lists(self, n, expected):
        assert totatives(n) == expected

    @given(st.integers(min_value=1, max_value=2000))
    def test_all_coprime_and_sorted(self, n):
        t = totatives(n)
        assert t == sorted(t)
        assert all(1 <= k <= n and math.gcd(k, n) == 1 for k in t)


class TestMultiplicativeOrder:
    @pytest.mark.parametrize(
        "a, m, order", [(3, 8, 2), (2, 7, 3), (3, 7, 6), (5, 1, 1), (-1, 9, 2)])
    def test_known_orders(self, a, m, order):
        assert multiplicative_order(a, m) == order

    def test_rejects_non_units(self):
        with pytest.raises(ValueError):
            multiplicative_order(2, 4)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=-50, max_value=400))
    def test_is_least_exponent(self, m, a):
        if math.gcd(a, m) != 1:
            return
        k = multiplicative_order(a, m)
        assert pow(a, k, m) == 1 % m
        assert all(pow(a, j, m) != 1 % m for j in range(1, k))
