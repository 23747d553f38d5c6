"""Prime tables, factorization, radicals, primorial growth."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcert import arith


def _trial_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, out)):
            out.append(n)
    return out


def test_sieve_matches_trial_division():
    assert list(arith._sieve(2000)) == _trial_primes(2000)


def test_sieve_in_range_endpoints():
    # primes_upto cuts at an inclusive limit, prime or composite
    assert arith.primes_upto(29)[-1] == 29
    assert arith.primes_upto(28)[-1] == 23
    assert arith.primes_upto(2) == (2,)
    assert arith.primes_upto(1) == ()


def test_cached_sieve_reuses_and_extends():
    # small limits slice the one shared table; a larger limit sieves once more
    arith._sieve.cache_clear()
    a = arith.primes_upto(500)
    b = arith.primes_upto(300)
    assert arith._sieve.cache_info().misses == 1
    assert b == a[: len(b)] and b[-1] == 293
    big = arith.primes_upto(arith._SHARED_TABLE_FLOOR + 1000)
    assert big[: len(a)] == a
    assert arith._sieve.cache_info().misses == 2


def test_primes_upto_matches_trial_division_across_the_floor():
    # 114,316 is the floor of the shared table: limits on both sides of it
    expected = _trial_primes(300_000)
    for limit in (0, 1, 2, 3, 100, 114_315, 114_316, 114_317, 200_003, 300_000):
        got = arith.primes_upto(limit)
        assert isinstance(got, tuple)
        assert list(got) == [p for p in expected if p <= limit], limit


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
    marks = set(arith.primes_upto(5000))
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
        direct = sum(math.log(p) for p in arith.primes_upto(a))
        assert math.isclose(arith.log_primorial(a), direct, rel_tol=1e-12)


def test_primorial_bound_check_small_range():
    checks = arith.primorial_bound_check(2000)
    assert len(checks) == 1999
    assert all(c.holds for c in checks)
    assert min(c.log_rhs - c.log_primorial for c in checks) > 0.0


def test_primorial_strictly_below_envelope_values():
    # product of primes <= 10 is 210; 4^10 is 1048576
    assert math.exp(arith.log_primorial(10)) < 4**10
