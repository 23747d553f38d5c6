"""Exact q-adic valuations of factorial-type integers without materializing them.

The central object is v_q(A*n! + B*m!) for n > m.  Writing the sum as
m!*(A*R + B) with R = (m+1)*(m+2)*...*(n), the valuation splits into an
explicit factorial part plus the valuation of a cofactor that is computed
modulo growing prime powers until a nonzero residue pins it down.
"""

from __future__ import annotations

import math
from typing import Sequence


def legendre_valuation(n: int, p: int) -> int:
    """v_p(n!) by Legendre's digit-sum-free form: sum of floor(n/p^i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p < 2:
        raise ValueError("p must be a prime (at least 2)")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def double_factorial_valuation(n: int, p: int) -> int:
    """v_p(n!!) via the split into ordinary factorials.

    Even n = 2m:   n!! = 2^m * m!
    Odd  n = 2m+1: n!! = (2m+1)! / (2^m * m!)
    Conventions: 0!! = 1!! = 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n // 2
    if n % 2 == 0:
        v = legendre_valuation(m, p)
        return v + m if p == 2 else v
    v = legendre_valuation(n, p) - legendre_valuation(m, p)
    return v - m if p == 2 else v


def rising_product_mod(m: int, n: int, modulus: int) -> int:
    """(m+1)*(m+2)*...*n reduced mod modulus; empty product is 1."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if n < m:
        raise ValueError("need n >= m")
    r = 1 % modulus
    for k in range(m + 1, n + 1):
        r = r * k % modulus
    return r


def _cofactor_is_zero(a: int, b: int, n: int, m: int) -> bool:
    """Exact test for A*R + B == 0 with R the rising product over (m, n]."""
    if b % a != 0:
        return False
    target = -b // a
    if target <= 0:
        return False
    # R never shrinks, so stop as soon as it passes the target.
    r = 1
    for k in range(m + 1, n + 1):
        r *= k
        if r > target:
            return False
    return r == target


def combined_valuation(a: int, b: int, n: int, m: int, q: int) -> int:
    """Exact v_q(a*n! + b*m!) for n > m >= 0, without building the integer.

    v_q(a*n! + b*m!) = v_q(m!) + v_q(a*R + b), R = (m+1)*...*n.  The cofactor
    valuation comes from residues mod q^k for doubling k; any nonzero residue
    is decisive, and a nonzero cofactor has one at some finite k.  Raises
    ValueError when a*R + b == 0, where no valuation exists.
    """
    if a == 0 or b == 0:
        raise ValueError("left-side multipliers must be nonzero")
    if not n > m >= 0:
        raise ValueError("need n > m >= 0")
    if not 2 <= q:
        raise ValueError("q must be a prime (at least 2)")
    if _cofactor_is_zero(a, b, n, m):
        raise ValueError("the left side is zero: no valuation")
    k = 4
    while True:
        modulus = q**k
        c = (a * rising_product_mod(m, n, modulus) + b) % modulus
        if c:
            v = legendre_valuation(m, q)
            while c % q == 0:
                c //= q
                v += 1
            return v
        k *= 2


def product_valuation(b: int, args: Sequence[int], q: int) -> int:
    """Exact v_q of b * n1!! * ... * nr!! for args = (n1, ..., nr)."""
    if b == 0:
        raise ValueError("multiplier b must be nonzero")
    if q < 2:
        raise ValueError("q must be a prime (at least 2)")
    total = 0
    bb = abs(b)
    while bb % q == 0:
        bb //= q
        total += 1
    return total + sum(double_factorial_valuation(n, q) for n in args)


def factorial_sketch(n: int) -> dict[int, int]:
    """Prime -> exponent map of n!, over primes <= n."""
    from . import arith

    return {p: legendre_valuation(n, p) for p in arith.primes_upto(n)}


def double_factorial_sketch(n: int) -> dict[int, int]:
    """Prime -> exponent map of n!! (exact: double factorials are pure products)."""
    from . import arith

    return {
        p: v
        for p in arith.primes_upto(n)
        if (v := double_factorial_valuation(n, p)) > 0
    }


def double_factorial_exact(n: int) -> int:
    """n!! as an integer; 0!! = 1!! = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    v = 1
    for k in range(n, 1, -2):
        v *= k
    return v


def logfact(n: int) -> float:
    """ln(n!) without the integer, for feasibility estimates."""
    return math.lgamma(n + 1)
