"""Prime tables, factorization, radicals, primorial growth."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcert import arith


def _trial_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in out if p * p <= n):
            out.append(n)
    return out


def test_sieve_matches_trial_division():
    table = arith.sieve(2000)
    assert list(table.primes) == _trial_primes(2000)


def test_sieve_in_range_endpoints():
    table = arith.sieve(100)
    assert table.in_range(10, 30) == [11, 13, 17, 19, 23, 29]
    assert table.in_range(23, 23) == [23]
    assert table.in_range(24, 28) == []


def test_cached_sieve_reuses_and_extends():
    a = arith.cached_sieve(500)
    b = arith.cached_sieve(300)
    assert b.limit >= 300
    assert set(p for p in b.primes if p <= 300) == set(
        p for p in a.primes if p <= 300
    )


def test_first_primes_prefix():
    assert list(arith.first_primes(10)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(arith.first_primes(1000)) == 1000


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, False), (2, True), (3, True), (4, False),
        (561, False),            # Carmichael
        (7919, True),
        (2_147_483_647, True),   # Mersenne
        (2_147_483_649, False),
        (10**18 + 9, True),
        (10**18 + 7, False),
    ],
)
def test_is_prime_spot_values(n, expected):
    assert arith.is_prime(n) is expected


def test_is_prime_agrees_with_sieve():
    table = arith.sieve(5000)
    marks = set(table.primes)
    for n in range(2, 5001):
        assert arith.is_prime(n) is (n in marks)


def test_factor_small_values():
    assert arith.factor(1) == {}
    assert arith.factor(12) == {2: 2, 3: 1}
    assert arith.factor(97) == {97: 1}
    assert arith.factor(2**10 * 3**5 * 101) == {2: 10, 3: 5, 101: 1}


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=200, deadline=None)
def test_factor_reconstructs_and_is_prime(n):
    prod = 1
    for p, e in arith.factor(n).items():
        assert arith.is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n


def test_partial_factor_reports_leftover_honestly():
    # two 12-digit primes: rho with a tiny budget cannot split the product
    p, q = 999_999_999_989, 999_999_999_961
    exponents, leftovers = arith.partial_factor(p * q * 8, rho_steps=10)
    assert exponents[2] == 3
    reconstructed = 1
    for r, e in exponents.items():
        assert arith.is_prime(r)
        reconstructed *= r**e
    for c in leftovers:
        assert not arith.is_prime(c)
        reconstructed *= c
    assert reconstructed == p * q * 8
    # without a step budget the same rho splits what 10 steps could not
    assert arith.factor(p * q * 8) == {2: 3, q: 1, p: 1}


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_radical_divides_and_is_squarefree(n):
    r = arith.radical(n)
    assert n % r == 0
    for p in arith.factor(r).values():
        assert p == 1


def test_radical_spot_values():
    assert arith.radical(1) == 1
    assert arith.radical(8) == 2
    assert arith.radical(360) == 30
    assert arith.radical(997) == 997


def test_log_primorial_matches_direct_sum():
    for a in (10, 100, 1000):
        direct = sum(math.log(p) for p in arith.cached_sieve(a).primes)
        assert math.isclose(arith.log_primorial(a), direct, rel_tol=1e-12)


def test_primorial_bound_check_small_range():
    checks = arith.primorial_bound_check(2000)
    assert len(checks) == 1999
    assert all(c.holds for c in checks)
    assert min(c.log_rhs - c.log_primorial for c in checks) > 0.0


def test_primorial_strictly_below_envelope_values():
    # product of primes <= 10 is 210; 4^10 is 1048576
    assert math.exp(arith.log_primorial(10)) < 4**10
