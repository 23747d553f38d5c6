"""Prime tables, integer factorization, radicals, and primorial growth checks."""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable

# Sieving beyond this allocates too much for a desk tool.
DEFAULT_SIEVE_BUDGET = 200_000_000

# Residue thresholds below are exact methods either way; the split is cost only.
_SMALL_TRIAL_BOUND = 100_000

# Squaring budget of each Pollard rho run in a budgeted factorization. It is
# checked between Brent rounds, so a run may overshoot it (see _pollard_brent).
DEFAULT_RHO_STEPS = 200_000

# Primes the certifier's ascending scan tries by default.
DEFAULT_PRIME_BUDGET = 10_000

_LOG_PRECISION_BITS = 96  # primorial/radical sums need better than double


class SieveBudgetError(MemoryError):
    """Requested sieve limit exceeds the configured memory budget."""


@functools.lru_cache(maxsize=8)
def _sieve(limit: int) -> tuple[int, ...]:
    """Eratosthenes table of all primes <= limit (limit >= 2)."""
    if limit > DEFAULT_SIEVE_BUDGET:
        raise SieveBudgetError(
            f"sieve limit {limit} exceeds budget {DEFAULT_SIEVE_BUDGET}"
        )
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start::p] = bytearray((limit - start) // p + 1)
    return tuple(i for i in range(limit + 1) if flags[i])


def primes_upto(limit: int) -> tuple[int, ...]:
    """Primes p <= limit, ascending: the one way to get a prime table.

    Every limit is sliced from a sieve that reaches at least
    _SHARED_TABLE_FLOOR, so trial division, the default prime budget and
    callers asking for many small limits (one window per anchor, one
    factorial sketch per cell) all share one table.
    """
    primes = _sieve(max(limit, _SHARED_TABLE_FLOOR))
    return primes[: bisect.bisect_right(primes, limit)]


def nth_prime_upper_bound(n: int) -> int:
    """Safe sieving bound containing at least the first n primes."""
    if n < 6:
        return 15
    x = float(n)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 10


# Floor of the one shared prime table: it holds both the trial-division primes
# (up to _SMALL_TRIAL_BOUND) and the certifier's default prime budget.
_SHARED_TABLE_FLOOR = max(
    _SMALL_TRIAL_BOUND, nth_prime_upper_bound(DEFAULT_PRIME_BUDGET)
)


def first_primes(n: int) -> list[int]:
    """The first n primes, ascending (nth_prime_upper_bound is proven)."""
    return list(primes_upto(nth_prime_upper_bound(n))[:n])


# ---------------------------------------------------------------------------
# Primality and factorization
# ---------------------------------------------------------------------------

# Deterministic Miller-Rabin witness set for n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 3.3e24, strong-probable above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _MR_DETERMINISTIC_LIMIT:
        bases = _MR_BASES
    else:
        # 64 pseudorandom bases derived from n itself: reproducible runs.
        rng_state = n
        bases = []
        for _ in range(64):
            rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) % 2**64
            bases.append(2 + rng_state % (n - 3))
    for a in bases:
        a %= n
        if a < 2:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, max_steps: float) -> int | None:
    """Brent-cycle Pollard rho on odd composite n.

    Returns a nontrivial factor, or None once max_steps squarings are spent.
    The budget is checked only between Brent rounds, and a round that has
    started (r squarings, then up to r more in gcd blocks, r = 1, 2, 4, ...)
    runs to its end. So a run can spend up to about 2 * max_steps: a run that
    exhausts max_steps = 200_000 does 262_142 squarings, and a split may come
    past step 200_000.
    The parameter schedule c = 1, 2, ... is fixed so repeated runs agree.
    """
    steps = 0
    c = 1
    while steps < max_steps:
        y, m, g, r, q = 2 + c, 128, 1, 1, 1
        x = ys = y
        while g == 1 and steps < max_steps:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                steps += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                steps += 1
        if 1 < g < n:
            return g
        c += 1
    return None


def _factor(
    a: int, rho_steps: float, stop: Callable[[int], bool] | None = None
) -> tuple[dict[int, int], list[int]] | None:
    """Trial division up to _SMALL_TRIAL_BOUND, then rho on what remains.

    Returns (prime_exponents, unfactored_cofactors) of abs(a); a cofactor
    is a composite piece that rho could not split within rho_steps.  stop,
    if given, sees each prime as soon as it is proven (see partial_factor);
    once it returns True factoring ends and the result is None.
    """
    if a == 0:
        raise ValueError("cannot factor 0")
    n = abs(a)
    exps: dict[int, int] = {}
    leftovers: list[int] = []
    if n > 1:
        for p in primes_upto(_SMALL_TRIAL_BOUND):
            if p * p > n:
                break
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                exps[p] = e
                if stop is not None and stop(p):
                    return None
        pieces = [n] if n > 1 else []
        stack: list[int] = []
        while True:
            primes = sorted(m for m in pieces if is_prime(m))
            stack.extend(m for m in pieces if m not in primes)
            for p in primes:
                fresh = p not in exps
                exps[p] = exps.get(p, 0) + 1
                if fresh and stop is not None and stop(p):
                    return None
            if not stack:
                break
            m = stack.pop()  # odd composite: rho returns d with 1 < d < m
            d = _pollard_brent(m, rho_steps)
            if d is None:
                leftovers.append(m)
                pieces = []
            else:
                pieces = [d, m // d]
    return dict(sorted(exps.items())), sorted(leftovers)


def factor(a: int) -> dict[int, int]:
    """Full factorization of a nonzero integer: prime -> exponent of abs(a).

    Trial division by sieved primes, then Pollard-Brent without a step
    budget on the remaining cofactors.  Every reported prime passes is_prime.
    """
    exps, _ = _factor(a, math.inf)
    return exps


def partial_factor(
    a: int,
    rho_steps: int = DEFAULT_RHO_STEPS,
    stop: Callable[[int], bool] | None = None,
) -> tuple[dict[int, int], list[int]] | None:
    """Best-effort factorization under a work budget.

    Returns (prime_exponents, unfactored_cofactors).  The cofactors are
    composite pieces the rho budget could not split; the product of all
    reported primes (with multiplicity) and cofactors equals abs(a).

    stop, if given, is called once with each distinct prime as soon as it is
    proven: the trial-division primes ascending as they are found, then
    after each rho split its prime pieces ascending (the part left after
    trial division counts as the first split).  When it returns True the
    factorization ends there and partial_factor returns None, so a caller
    looking for one useful prime skips the rho runs it no longer needs.
    """
    return _factor(a, rho_steps, stop)


def radical(a: int) -> int:
    """Product of the distinct primes dividing a; radical(1) == 1."""
    if a == 0:
        raise ValueError("radical of 0 is undefined")
    return math.prod(factor(a).keys()) if abs(a) > 1 else 1


# ---------------------------------------------------------------------------
# Primorial growth (theta function) checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimorialCheck:
    """One point of the primorial-vs-4^a comparison, in natural-log space."""

    a: int
    log_primorial: float
    log_rhs: float
    holds: bool


def log_primorial(a: int) -> float:
    """Sum of ln p over primes p <= a, accumulated at 96-bit precision."""
    import mpmath  # imported on use, like every mpmath import (see bounds.py)
    with mpmath.workprec(_LOG_PRECISION_BITS):
        total = mpmath.mpf(0)
        for p in primes_upto(a):
            total += mpmath.log(p)
        return float(total)


def primorial_bound_check(limit: int) -> list[PrimorialCheck]:
    """Check primorial(a) < 4^a for every a in [2, limit].

    Runs in log space: materializing the products would mean thousands of
    digits per entry with nothing gained, since the inequality has wide slack.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    import mpmath
    primes = primes_upto(limit)
    out = []
    with mpmath.workprec(_LOG_PRECISION_BITS):
        log4 = mpmath.log(4)
        total = mpmath.mpf(0)
        idx = 0
        for a in range(2, limit + 1):
            while idx < len(primes) and primes[idx] <= a:
                total += mpmath.log(primes[idx])
                idx += 1
            rhs = a * log4
            out.append(
                PrimorialCheck(
                    a=a,
                    log_primorial=float(total),
                    log_rhs=float(rhs),
                    holds=bool(total < rhs),
                )
            )
    return out
