"""Valuation engine against big-integer ground truth.

The expensive claims all reduce to one shape: a valuation computed through
residues and Legendre sums must equal the valuation read off the literal
integer.  At desk scale the literal integer is cheap, so every test here
builds it.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcert import valuation


def _exact_valuation(value: int, q: int) -> int:
    value = abs(value)
    assert value != 0
    v = 0
    while value % q == 0:
        value //= q
        v += 1
    return v


def test_legendre_against_factorial_division():
    for n in range(0, 120):
        f = math.factorial(n)
        for p in (2, 3, 5, 7, 11, 13, 37):
            expected = _exact_valuation(f, p) if f > 1 else 0
            assert valuation.legendre_valuation(n, p) == expected


def test_double_factorial_valuation_exact():
    for n in range(0, 300):
        df = valuation.double_factorial_exact(n)
        for p in (2, 3, 5, 7, 11, 31):
            expected = _exact_valuation(df, p) if df > 1 else 0
            assert valuation.double_factorial_valuation(n, p) == expected


def test_double_factorial_exact_recurrence():
    assert valuation.double_factorial_exact(0) == 1
    assert valuation.double_factorial_exact(1) == 1
    for n in range(2, 60):
        assert valuation.double_factorial_exact(n) == (
            n * valuation.double_factorial_exact(n - 2)
        )


def test_rising_product_mod_matches_direct():
    for m, n in ((0, 5), (3, 9), (10, 25), (7, 7)):
        for mod in (9, 25, 343, 2**20):
            direct = math.prod(range(m + 1, n + 1)) % mod
            assert valuation.rising_product_mod(m, n, mod) == direct


def test_combined_valuation_oracle_grid():
    # the slow exhaustive version of this grid lives in the acceptance suite;
    # here a sparse slice keeps the unit run quick
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for n in range(1, 15):
        for m in range(0, n):
            for a, b in ((1, 1), (1, -1), (2, 3), (-2, 1), (3, -2)):
                left = a * math.factorial(n) + b * math.factorial(m)
                if left == 0:
                    continue
                for q in primes:
                    res = valuation.combined_valuation(a, b, n, m, q)
                    assert res == _exact_valuation(left, q), (a, b, n, m, q)


@given(
    n=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=0, max_value=39),
    a=st.integers(min_value=-50, max_value=50).filter(lambda v: v != 0),
    b=st.integers(min_value=-50, max_value=50).filter(lambda v: v != 0),
    q=st.sampled_from((2, 3, 5, 7, 11, 13, 97)),
)
@settings(max_examples=300, deadline=None)
def test_combined_valuation_property(n, m, a, b, q):
    if m >= n:
        n, m = m + 1, n - 1 if n > 0 else 0
    left = a * math.factorial(n) + b * math.factorial(m)
    if left == 0:
        return
    res = valuation.combined_valuation(a, b, n, m, q)
    assert res == _exact_valuation(left, q)


def test_combined_valuation_exact_far_past_factorial_part():
    # cofactor 3*11 + 2**300 - 33 = 2**300: lifting must run to k = 512
    n, m, q = 11, 10, 2
    a, b = 3, 2**300 - 33
    left = a * math.factorial(n) + b * math.factorial(m)
    assert _exact_valuation(left, q) > 300
    assert valuation.combined_valuation(a, b, n, m, q) == _exact_valuation(left, q)


def test_combined_valuation_zero_left_side_raises():
    # 1*2! - 2*1! == 0 has no valuation
    with pytest.raises(ValueError):
        valuation.combined_valuation(1, -2, 2, 1, 3)


def test_product_valuation_matches_direct():
    args = (9, 12)
    value = valuation.double_factorial_exact(9) * valuation.double_factorial_exact(12)
    for b in (1, 6, -15):
        for q in (2, 3, 5, 7, 11):
            got = valuation.product_valuation(b, args, q)
            assert got == _exact_valuation(b * value, q)


def test_factorial_sketch_reconstructs():
    for n in (0, 1, 2, 7, 25, 60):
        sketch = valuation.factorial_sketch(n)
        prod = 1
        for p, e in sketch.items():
            prod *= p**e
        assert prod == math.factorial(n)


def test_double_factorial_sketch_reconstructs():
    for n in (0, 1, 2, 9, 16, 99, 100):
        sketch = valuation.double_factorial_sketch(n)
        prod = 1
        for p, e in sketch.items():
            prod *= p**e
        assert prod == valuation.double_factorial_exact(n)


def test_factorial_sketch_q_limit_truncates():
    full = valuation.factorial_sketch(50)
    cut = valuation.factorial_sketch(50, q_limit=10)
    assert set(cut) == {p for p in full if p <= 10}
    for p in cut:
        assert cut[p] == full[p]
