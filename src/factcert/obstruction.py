"""Obstruction primes: primes q whose divisibility of a represented value is
forced to a high exponent by the shape of the right-side form.

For an irreducible binary form f of degree d, a prime q that divides no value
f(x,1) mod q and is coprime to the leading/constant coefficients, the reduced
discriminant, and the content forces q | f(x,y) => q^d | f(x,y): the rootless
reduction pushes q into both x and y, and homogeneity does the rest.  Factored
forms get the analogous treatment per factor, plus a multiplicity rule when a
repeated linear factor is present.  Univariate right sides are stricter still:
a rootless reduction means q never divides a represented value at all.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

from . import arith
from .forms import BinaryForm, UnivariatePoly, factor_univariate, modified_discriminant

VERIFY_PRIME_LIMIT = 200

REASON_NO_ROOT = "NO_ROOT_MOD_Q"
REASON_LINEAR_MULTIPLICITY = "LINEAR_FACTOR_MULTIPLICITY"


@dataclass(frozen=True)
class ObstructionProfile:
    """Eligibility verdict for one (target, prime) pair.

    forced_exponent is the exponent E forced on v_q of any represented value;
    None with unbounded=True means q can never divide a represented value
    (univariate rootless case), None otherwise means ineligible.  Profiles from
    the multiplicity rule only constrain valuations below total_degree for
    binary targets (any valuation is reachable once both variables absorb q).
    """

    q: int
    eligible: bool
    forced_exponent: int | None
    reason: str | None
    total_degree: int
    univariate: bool
    unbounded: bool = False


def _profile(q, degree, univariate, forced_exponent=None, reason=None):
    """A profile from its rule: no reason means ineligible, and an eligible
    profile with no forced exponent is the unbounded univariate one."""
    return ObstructionProfile(
        q=q,
        eligible=reason is not None,
        forced_exponent=forced_exponent,
        reason=reason,
        total_degree=degree,
        univariate=univariate,
        unbounded=reason is not None and forced_exponent is None,
    )


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
    if not result:
        return True  # x^q - x divisible by f: f splits completely
    return _gf_gcd_degree(f, result, q) >= 1


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _form_invariants(form: BinaryForm):
    return (form.lead, form.coconstant, modified_discriminant(form), form.content())


def _irreducible_factor_ok(form: BinaryForm, q: int) -> bool:
    """Shared eligibility tests for one irreducible form."""
    lead, coconst, delta_mod, content = _form_invariants(form)
    return (
        lead % q != 0
        and (coconst * delta_mod * content) % q != 0
        and not has_root_mod_q(form.dehomogenized(), q)
    )


def _require_prime(q: int) -> None:
    if not arith.is_prime(q):
        raise ValueError(f"{q} is not prime")


def is_obstruction_prime(form: BinaryForm, q: int) -> ObstructionProfile:
    """Profile of q against an irreducible binary form of degree >= 2."""
    _require_prime(q)
    d = form.degree
    if d < 2:
        raise ValueError("obstruction targets need degree >= 2")
    if not form.is_irreducible():
        raise ValueError(
            "form is not irreducible (or not declared so); use the factored route"
        )
    if not _irreducible_factor_ok(form, q):
        return _profile(q, d, False)
    return _profile(q, d, False, d, REASON_NO_ROOT)


def obstruction_profile_reducible(form: BinaryForm, q: int) -> ObstructionProfile:
    """Profile of q against a factored binary form."""
    _require_prime(q)
    if form.factors is None:
        form = form.with_found_factors()  # raises past degree 4
    d = form.degree
    if min(f.degree * e for f, e in form.factors) == 1 or form.factor_constant % q == 0:
        return _profile(q, d, False)
    linear = [(f, e) for f, e in form.factors if f.degree == 1]
    higher = [f for f, _ in form.factors if f.degree >= 2]
    if not all(_irreducible_factor_ok(f, q) for f in higher):
        return _profile(q, d, False)
    if not linear:
        return _profile(q, d, False, d, REASON_NO_ROOT)
    if len(linear) > 1:
        # two repeated lines give a union of multiple patterns; stay conservative
        return _profile(q, d, False)
    (lin, mult) = linear[0]
    alpha, beta = lin.coeffs
    # A declared factor list need not be primitive: q | (alpha, beta) has no line mod q.
    if alpha % q == 0 and beta % q == 0:
        return _profile(q, d, False)
    # (x:y) = (-beta:alpha) is the zero of the line mod q; no other factor may
    # vanish there or mixed contributions break the multiple-of-e pattern.
    if any(f.evaluate(-beta, alpha) % q == 0 for f in higher):
        return _profile(q, d, False)
    return _profile(q, d, False, mult, REASON_LINEAR_MULTIPLICITY)


def univariate_obstruction_profile(poly: UnivariatePoly, q: int) -> ObstructionProfile:
    """Profile of q against a one-variable right side.

    Rootless mod q means no represented value is divisible by q at all, which
    certifies any positive left valuation.  With roots, only the repeated
    linear factor pattern (e.g. perfect powers) still forces structure, and
    there it forces v_q to be a multiple of the multiplicity with no upper
    cutoff: one-variable targets have no second variable to absorb q.
    """
    _require_prime(q)
    d = poly.degree
    if not has_root_mod_q(poly.coeffs, q):
        return _profile(q, d, True, reason=REASON_NO_ROOT)
    if d > 4:
        return _profile(q, d, True)
    constant, factors = factor_univariate(poly.coeffs)
    linear = [(fc, e) for fc, e in factors if len(fc) == 2]
    if constant % q == 0 or min((len(fc) - 1) * e for fc, e in factors) == 1:
        return _profile(q, d, True)
    if len(linear) != 1:
        return _profile(q, d, True)
    (lc, mult) = linear[0]
    if any(has_root_mod_q(fc, q) for fc, _ in factors if len(fc) >= 3):
        return _profile(q, d, True)
    return _profile(q, d, True, mult, REASON_LINEAR_MULTIPLICITY)


@functools.lru_cache(maxsize=200_000)
def obstruction_profile(target, q: int) -> ObstructionProfile:
    """Dispatch: univariate, declared/explicit factors, native, or irreducible."""
    if isinstance(target, UnivariatePoly):
        return univariate_obstruction_profile(target, q)
    if target.factors is not None:
        return obstruction_profile_reducible(target, q)
    if target.degree <= 4:
        if target.is_irreducible():
            return is_obstruction_prime(target, q)
        return obstruction_profile_reducible(target, q)
    if target.irreducible_declared:
        return is_obstruction_prime(target, q)
    raise ValueError(
        "degree >= 5 requires declared irreducibility or an explicit factor list"
    )


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
    """
    if q > VERIFY_PRIME_LIMIT:
        raise ValueError(f"exhaustive verification budgeted at q <= {VERIFY_PRIME_LIMIT}")
    profile = obstruction_profile(form, q)
    if not profile.eligible:
        return True
    e_forced = profile.forced_exponent
    d_total = profile.total_degree
    multiple_rule = profile.reason == REASON_LINEAR_MULTIPLICITY
    for x0, y0 in _residue_roots(form, q):
        for a in range(q):
            x = x0 + q * a
            for b in range(q):
                val = form.evaluate(x, y0 + q * b)
                if val == 0:
                    continue
                v = 0
                while val % q == 0:
                    val //= q
                    v += 1
                    if v >= d_total and multiple_rule:
                        break
                if multiple_rule:
                    if v % e_forced != 0 and v < d_total:
                        return False
                elif v < e_forced:
                    return False
    return True
