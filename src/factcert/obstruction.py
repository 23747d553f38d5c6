"""Obstruction primes: primes q whose divisibility of a represented value is
forced to a high exponent by the shape of the right-side form.

For an irreducible binary form f of degree d, a prime q that does not divide
the leading coefficient, with f(x,1) rootless and squarefree mod q, forces
q | f(x,y) => q^d | f(x,y): the rootless reduction pushes q into both x and y,
and homogeneity does the rest.  (Nor can q divide the constant coefficient or
the content: either would give f(x,1) a root mod q.)  One factored tail
judges every target factor by factor (an irreducible form is one factor),
plus a multiplicity rule when a repeated linear factor is present.
Univariate right sides are stricter still: a rootless reduction means q
never divides a represented value at all.  ObstructionProfile.rule states
the certificate rules, for certify and verify_forced_exponent alike.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

from . import arith
from .forms import BinaryForm, UnivariatePoly, _derivative

VERIFY_PRIME_LIMIT = 200

REASON_NO_ROOT = "NO_ROOT_MOD_Q"
REASON_LINEAR_MULTIPLICITY = "LINEAR_FACTOR_MULTIPLICITY"

RULE_BELOW_EXPONENT = "V_LESS_THAN_E"
RULE_NOT_MULTIPLE = "V_NOT_MULTIPLE"


@dataclass(frozen=True)
class ObstructionProfile:
    """Eligibility verdict for one (target, prime) pair.

    reason names the rule that made q eligible; None means ineligible.
    forced_exponent is the exponent E forced on v_q of any represented value;
    an eligible profile without one is unbounded: q can never divide a
    represented value (univariate rootless case).  Profiles from the
    multiplicity rule only constrain valuations below total_degree for binary
    targets (any valuation is reachable once both variables absorb q).
    """

    q: int
    total_degree: int
    univariate: bool
    forced_exponent: int | None = None
    reason: str | None = None

    @property
    def eligible(self) -> bool:
        return self.reason is not None

    @property
    def unbounded(self) -> bool:
        return self.eligible and self.forced_exponent is None

    def rule(self, v: int) -> str | None:
        """The rule by which a left valuation v rules out every represented
        value at q, or None (always for v <= 0 or an ineligible q).
        V_LESS_THAN_E: a rootless target only takes valuations 0 and >= E, so
        0 < v < E certifies (any v > 0 when unbounded: E is infinite).
        V_NOT_MULTIPLE: a repeated line of multiplicity e only gives multiples
        of e (below the total degree, for binary targets), so v % e != 0
        certifies.
        """
        if v <= 0 or not self.eligible:
            return None
        if self.reason == REASON_NO_ROOT:
            return RULE_BELOW_EXPONENT if self.unbounded or v < self.forced_exponent else None
        if v % self.forced_exponent == 0 or (not self.univariate and v >= self.total_degree):
            return None
        return RULE_NOT_MULTIPLE


# ---------------------------------------------------------------------------
# Root detection in GF(q)
# ---------------------------------------------------------------------------


def _poly_mod_q(coeffs, q: int) -> tuple[int, ...]:
    out = [c % q for c in coeffs]
    i = 0
    while i < len(out) and out[i] == 0:
        i += 1
    return tuple(out[i:])


def _gf_divmod_rem(a: list[int], b: list[int], q: int) -> list[int]:
    """Remainder of a by b over GF(q); both ascending, b nonzero."""
    inv = pow(b[-1], -1, q)
    a = a[:]
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        f = a[-1] * inv % q
        off = len(a) - len(b)
        for i in range(len(b)):
            a[off + i] = (a[off + i] - f * b[i]) % q
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_gcd_degree(a: list[int], b: list[int], q: int) -> int:
    while b:
        a, b = b, _gf_divmod_rem(a, b, q)
    return len(a) - 1


def _gf_mulmod(a: list[int], b: list[int], mod: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % q
    return _gf_divmod_rem(out, mod, q)


def has_root_mod_q(coeffs, q: int) -> bool:
    """Does the polynomial have a root mod q?  Exact for all q.

    One method: the gcd with the Frobenius polynomial x^q - x, whose roots
    in GF(q) are exactly the field elements.
    """
    red = _poly_mod_q(coeffs, q)
    if not red:
        return True  # identically zero: every residue is a root
    if len(red) == 1:
        return False
    f = list(reversed(red))  # ascending
    # x^q mod f by square and multiply
    result = [1]
    base = [0, 1]
    e = q
    while e:
        if e & 1:
            result = _gf_mulmod(result, base, f, q)
        base = _gf_mulmod(base, base, f, q)
        e >>= 1
    # subtract x
    while len(result) < 2:
        result.append(0)
    result[1] = (result[1] - 1) % q
    while result and result[-1] == 0:
        result.pop()
    # a zero result means f divides x^q - x, and then the gcd is f itself
    return _gf_gcd_degree(f, result, q) >= 1


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def _irreducible_factor_ok(form: BinaryForm, q: int) -> bool:
    """q does not divide the lead, and f(x,1) is rootless and squarefree mod q."""
    if form.lead % q == 0 or has_root_mod_q(form.coeffs, q):
        return False
    f = list(reversed(_poly_mod_q(form.coeffs, q)))  # ascending, degree d
    df = list(reversed(_poly_mod_q(_derivative(form.coeffs), q)))
    return _gf_gcd_degree(f, df, q) == 0


def _require_prime(q: int) -> None:
    if not arith.is_prime(q):
        raise ValueError(f"{q} is not prime")


def _factored_profile(q: int, d: int, univariate: bool, factorization, factor_ok):
    """Profile of q from a factorization (factors, constant) over Q: q off
    the constant, no simple line, factor_ok(f, q) for every factor f of
    degree >= 2, and then no line (forces d) or one repeated line (forces
    multiples of its multiplicity)."""
    factors, constant = factorization
    ineligible = ObstructionProfile(q, d, univariate)
    linear = [(f, e) for f, e in factors if f.degree == 1]
    # two repeated lines give a union of multiple patterns; stay conservative
    if constant % q == 0 or min(f.degree * e for f, e in factors) == 1 or len(linear) > 1:
        return ineligible
    if not all(factor_ok(f, q) for f, _ in factors if f.degree >= 2):
        return ineligible
    if not linear:
        return ObstructionProfile(q, d, univariate, d, REASON_NO_ROOT)
    ((lin, mult),) = linear
    alpha, beta = lin.coeffs
    if alpha % q == 0 and beta % q == 0:  # a declared line need not be primitive
        return ineligible
    # no factor of degree >= 2 vanishes at the line's zero mod q
    return ObstructionProfile(q, d, univariate, mult, REASON_LINEAR_MULTIPLICITY)


def is_obstruction_prime(form: BinaryForm, q: int) -> ObstructionProfile:
    """Profile of q against an irreducible binary form of degree >= 2.

    Eligible when q does not divide the lead and f(x,1) is rootless and
    squarefree mod q.  Rootlessness already keeps q off the constant
    coefficient (x = 0 is no root) and the content (a zero reduction has
    every root); squarefree mod q means q does not divide disc f(x,1).
    """
    _require_prime(q)
    d = form.degree
    if d < 2:
        raise ValueError("obstruction targets need degree >= 2")
    if not form.is_irreducible():
        raise ValueError(
            "form is not irreducible (or not declared so); use the factored route"
        )
    return _factored_profile(q, d, False, (((form, 1),), 1), _irreducible_factor_ok)


def obstruction_profile_reducible(form: BinaryForm, q: int) -> ObstructionProfile:
    """Profile of q against a factored binary form."""
    _require_prime(q)
    if form.factorization is None:
        raise ValueError(
            "degree >= 5 requires declared irreducibility or an explicit factor list"
        )
    return _factored_profile(q, form.degree, False, form.factorization, _irreducible_factor_ok)


def univariate_obstruction_profile(poly: UnivariatePoly, q: int) -> ObstructionProfile:
    """Profile of q against a one-variable right side.

    Rootless mod q means no represented value is divisible by q at all, which
    certifies any positive left valuation.  With roots, only the repeated
    linear factor pattern (e.g. perfect powers) still forces structure, and
    there it forces v_q to be a multiple of the multiplicity with no upper
    cutoff: one-variable targets have no second variable to absorb q.  The
    tail's no-line verdict cannot arise here: once the constant is a unit mod
    q, a root mod q is a root of some factor, and no factor_ok factor has one.
    """
    _require_prime(q)
    d = poly.degree
    if not has_root_mod_q(poly.coeffs, q):
        return ObstructionProfile(q, d, True, reason=REASON_NO_ROOT)
    if d > 4:
        return ObstructionProfile(q, d, True)
    return _factored_profile(
        q, d, True, poly.factorization, lambda f, p: not has_root_mod_q(f.coeffs, p)
    )


@functools.lru_cache(maxsize=200_000)
def obstruction_profile(target, q: int) -> ObstructionProfile:
    """Three routes: univariate targets; forms with no declared factor list that
    are irreducible; all other forms by factorization (declared past degree 4)."""
    if isinstance(target, UnivariatePoly):
        return univariate_obstruction_profile(target, q)
    if target.factors is None and target.is_irreducible():
        return is_obstruction_prime(target, q)
    return obstruction_profile_reducible(target, q)


@dataclass(frozen=True)
class ObstructionScan:
    lo: int
    hi: int
    eligible: tuple[ObstructionProfile, ...]
    total_primes: int

    @property
    def eligible_primes(self) -> tuple[int, ...]:
        return tuple(profile.q for profile in self.eligible)

    @property
    def density(self) -> float:
        if self.total_primes == 0:
            return 0.0
        return len(self.eligible) / self.total_primes


def scan_obstruction_primes(target, lo: int, hi: int) -> ObstructionScan:
    """Profile every prime in [lo, hi] against the target; collect eligibles."""
    if not 2 <= lo <= hi:
        raise ValueError("need 2 <= lo <= hi")
    primes = arith.primes_upto(hi)
    primes = primes[bisect.bisect_left(primes, lo) :]
    profiles = (obstruction_profile(target, q) for q in primes)
    eligible = tuple(profile for profile in profiles if profile.eligible)
    return ObstructionScan(lo=lo, hi=hi, eligible=eligible, total_primes=len(primes))


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------


def _residue_roots(form: BinaryForm, q: int) -> list[tuple[int, int]]:
    """All (x, y) in [0,q)^2 with q | f(x,y), by honest full scan.

    coeffs[i] multiplies x^(d-i) * y^i, so each row y folds y^i into
    coeffs[i] and leaves a polynomial in x, descending, for Horner.
    """
    coeffs = form.coeffs
    roots = []
    for y in range(q):
        folded = [c * pow(y, i, q) % q for i, c in enumerate(coeffs)]
        for x in range(q):
            v = 0
            for c in folded:
                v = (v * x + c) % q
            if v == 0:
                roots.append((x, y))
    return roots


@functools.lru_cache(maxsize=4096)
def verify_forced_exponent(form: BinaryForm, q: int) -> bool:
    """Brute-force confirmation of a profile over all (x, y) in [0, q^2)^2.

    Every pair with q | f(x,y) reduces mod q to a root class; checking all
    q^2 lifts of each root class covers the whole square without touching the
    (vacuously fine) pairs q does not divide.  Ineligible profiles verify
    vacuously.  Budgeted at q <= 200.  The answer depends only on (form, q),
    so the scan runs once per (form, q) per process; an over-budget q raises
    on every call.

    Values are taken mod q^K, where K is the least valuation the rule admits
    whatever it is: the forced exponent for the no-root rule, the total
    degree for the multiplicity rule.  For r = f(x,y) mod q^K, r == 0 exactly
    when v_q(f(x,y)) >= K (f(x,y) == 0 included), and otherwise v_q(r) is the
    exact v_q(f(x,y)) < K, so the rule sees the same verdict as from the
    exact valuation.  Each row y = y0 + q*b folds y^i into coeffs[i] once,
    then Horner runs over x = x0 + q*a, as in _residue_roots.
    """
    if q > VERIFY_PRIME_LIMIT:
        raise ValueError(f"exhaustive verification budgeted at q <= {VERIFY_PRIME_LIMIT}")
    profile = obstruction_profile(form, q)
    if not profile.eligible:
        return True
    multiple_rule = profile.reason == REASON_LINEAR_MULTIPLICITY
    modulus = q ** (profile.total_degree if multiple_rule else profile.forced_exponent)
    coeffs = form.coeffs
    for x0, y0 in _residue_roots(form, q):
        for b in range(q):
            y = y0 + q * b
            folded = [c * pow(y, i, modulus) % modulus for i, c in enumerate(coeffs)]
            for a in range(q):
                x = x0 + q * a
                val = 0
                for c in folded:
                    val = val * x + c
                val %= modulus
                if val == 0:
                    continue  # v >= K
                v = 0
                while val % q == 0:
                    val //= q
                    v += 1
                if profile.rule(v) is not None:
                    return False
    return True
