"""Eligibility profiles, scans, and brute-force verification of forced
exponents."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcert import arith, certify, obstruction
from factcert.forms import BUNDLED_FORMS, BUNDLED_POLYS, BinaryForm, UnivariatePoly
from factcert.obstruction import (
    has_root_mod_q,
    obstruction_profile,
    scan_obstruction_primes,
    verify_forced_exponent,
)

MULTIPLICITY_FORM = BinaryForm(
    (1, -2, 2, -2, 1),
    factors=((BinaryForm((1, -1)), 2), (BinaryForm((1, 0, 1)), 1)),
    factor_constant=1,
)


def _legendre_symbol(a: int, q: int) -> int:
    a %= q
    if a == 0:
        return 0
    r = pow(a, (q - 1) // 2, q)
    return 1 if r == 1 else -1


def test_sum_of_squares_profile_small_primes():
    f = BUNDLED_FORMS["x2+y2"]
    p3 = obstruction_profile(f, 3)
    assert p3.eligible and p3.forced_exponent == 2
    assert p3.reason == "NO_ROOT_MOD_Q"
    p5 = obstruction_profile(f, 5)
    assert not p5.eligible
    p2 = obstruction_profile(f, 2)
    assert not p2.eligible


def test_eligibility_matches_kronecker_for_pell_forms():
    # x^2 - D y^2 is rootless mod q exactly when D is a non-residue
    for d in (2, 3, 5, 7, 11):
        f = BinaryForm((1, 0, -d))
        for q in arith.primes_upto(200):
            profile = obstruction_profile(f, q)
            if q == 2 or d % q == 0:
                assert not profile.eligible, (d, q)
                continue
            expected = _legendre_symbol(d, q) == -1
            assert profile.eligible is expected, (d, q)


def test_eligibility_matches_brute_roots():
    # native root detection vs literal residue enumeration
    rng_forms = [
        BinaryForm((1, 1, 3)),
        BinaryForm((2, 0, 3)),
        BinaryForm((1, 0, 0, 2)),
        BinaryForm((1, 0, 0, 0, 3)),
        *BUNDLED_FORMS.values(),
    ]
    for f in rng_forms:
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            has_root = any(
                f.evaluate(x, y) % q == 0
                for x in range(q)
                for y in range(q)
                if (x, y) != (0, 0)
            )
            profile = obstruction_profile(f, q)
            if not profile.eligible:
                continue
            assert not has_root, (f.coeffs, q)


def _scan_has_root(coeffs, q):
    return any(
        sum(c * pow(x, len(coeffs) - 1 - i, q) for i, c in enumerate(coeffs)) % q == 0
        for x in range(q)
    )


def test_has_root_mod_q_matches_residue_scan():
    rng = random.Random(15)
    primes = arith.primes_upto(400)
    polys = [tuple(rng.randint(-50, 50) for _ in range(rng.randint(2, 7))) for _ in range(40)]
    polys += [(3, 0, 1), (1, 0, -2), (1, 0, 0, 0, 0, 0, -1)]
    for coeffs in polys:
        for q in primes:
            assert has_root_mod_q(coeffs, q) is _scan_has_root(coeffs, q), (coeffs, q)
    # identically zero mod q: every residue is a root
    for q in (2, 3, 5, 7):
        assert has_root_mod_q((q, -2 * q, 5 * q), q)
    # x^q - x vanishes on all of GF(q); x^q - x + 1 has no root; degree >= q
    for q in (2, 3, 5):
        frob = (1,) + (0,) * (q - 2) + (-1, 0)
        assert has_root_mod_q(frob, q)
        assert not has_root_mod_q(frob[:-1] + (1,), q)


# sha256 over (q, eligible, forced_exponent, reason, unbounded, total_degree,
# univariate) for every bundled form and polynomial and MULTIPLICITY_FORM at
# every prime below 3000
PROFILE_PIN = "1d39cc3819745ef0da754ab37c97f4a6cd8ceccb55d2762f56d16383ebd41109"


def test_profiles_pinned_below_3000():
    targets = [*BUNDLED_FORMS.values(), *BUNDLED_POLYS.values(), MULTIPLICITY_FORM]
    h = hashlib.sha256()
    for target in targets:
        for q in arith.primes_upto(2999):
            p = obstruction_profile(target, q)
            row = (q, p.eligible, p.forced_exponent, p.reason, p.unbounded,
                   p.total_degree, p.univariate)
            h.update(repr(row).encode())
    assert h.hexdigest() == PROFILE_PIN


def test_univariate_profiles():
    p = UnivariatePoly((1, 0, -2))  # x^2 - 2
    prof7 = obstruction_profile(p, 7)
    assert prof7.univariate
    # 2 is a QR mod 7 (3^2=2), so 7 divides some value: ineligible
    assert not prof7.eligible
    prof5 = obstruction_profile(p, 5)
    # 2 is not a QR mod 5: no value of x^2-2 is divisible by 5 at all
    assert prof5.eligible
    assert prof5.unbounded
    assert prof5.forced_exponent is None


def test_scan_x2_y2_3_to_100():
    scan = scan_obstruction_primes(BUNDLED_FORMS["x2+y2"], 3, 100)
    assert scan.eligible_primes == (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)
    assert scan.total_primes == 24
    assert scan.eligible == tuple(
        obstruction_profile(BUNDLED_FORMS["x2+y2"], q) for q in scan.eligible_primes
    )


@pytest.mark.parametrize(
    "lo, hi",
    [
        (7, 97),             # both ends prime
        (8, 96),             # both ends composite
        (3, 100),            # prime start, composite end
        (4, 97),             # composite start, prime end
        (97, 97),            # equal and prime
        (96, 96),            # equal and composite: no prime at all
        (2, 2),
        (114_300, 114_400),  # across the shared table's floor
    ],
)
def test_scan_slices_every_prime_in_range(lo, hi):
    form = BUNDLED_FORMS["x2+y2"]
    primes = [q for q in range(lo, hi + 1) if arith.is_prime(q)]  # Miller-Rabin
    scan = scan_obstruction_primes(form, lo, hi)
    assert scan.total_primes == len(primes)
    assert scan.eligible_primes == tuple(
        q for q in primes if obstruction_profile(form, q).eligible
    )


def test_scan_density_sum_of_squares_to_1e4():
    scan = scan_obstruction_primes(BUNDLED_FORMS["x2+y2"], 2, 10**4)
    assert 0.48 <= scan.density <= 0.52


def test_every_bundled_form_scan_nonempty():
    for name, f in BUNDLED_FORMS.items():
        scan = scan_obstruction_primes(f, 3, 100)
        assert scan.eligible_primes, name


def test_verify_forced_exponent_no_root_forms():
    for q in (3, 7, 11, 19):
        assert verify_forced_exponent(BUNDLED_FORMS["x2+y2"], q)
    for q in (7, 13):
        assert verify_forced_exponent(BUNDLED_FORMS["x3+2y3"], q)


def test_verify_forced_exponent_multiplicity_rule():
    # linear-factor multiplicity profiles have q root classes, so keep q small
    for q in (3, 7, 11, 19, 23):
        profile = obstruction_profile(MULTIPLICITY_FORM, q)
        assert profile.eligible
        assert profile.reason == "LINEAR_FACTOR_MULTIPLICITY"
        assert verify_forced_exponent(MULTIPLICITY_FORM, q)


def test_verify_forced_exponent_declared_square():
    for q in (3, 7, 11):
        assert verify_forced_exponent(BUNDLED_FORMS["x4+2x2y2+y4"], q)


@pytest.fixture
def fresh_verify_cache():
    # the memo would hide a monkeypatched profile or scan, and keep its answer
    verify_forced_exponent.cache_clear()
    yield
    verify_forced_exponent.cache_clear()


@pytest.mark.parametrize(
    "coeffs, q",
    [
        ((1, 0, 1), 3),
        ((1, 0, 1), 5),
        ((1, 0, 1), 7),
        ((1, 0, 0, 2), 5),
        ((1, 0, 0, 2), 7),
        ((2, 3, 5), 7),
        ((2, 3, 5), 2),  # q divides the leading coefficient
        ((1, -1, -2), 5),  # (x - 2y)(x + y)
        ((1, -2, 2, -2, 1), 7),  # (x - y)^2 (x^2 + y^2)
    ],
)
def test_residue_roots_match_direct_scan(coeffs, q):
    f = BinaryForm(coeffs)
    direct = [
        (x, y) for y in range(q) for x in range(q) if f.evaluate(x, y) % q == 0
    ]
    assert obstruction._residue_roots(f, q) == direct


def test_verify_rejects_overclaimed_exponent(monkeypatch, fresh_verify_cache):
    # x2+y2 at 3 forces exactly 2: (3, 0) gives 9; a claim of 3 must fail
    f = BUNDLED_FORMS["x2+y2"]
    true_profile = obstruction_profile(f, 3)
    overclaim = dataclasses.replace(true_profile, forced_exponent=f.degree + 1)
    monkeypatch.setattr(obstruction, "obstruction_profile", lambda form, q: overclaim)
    assert not verify_forced_exponent(f, 3)


def test_deep_recheck_scans_each_form_and_prime_once(monkeypatch, fresh_verify_cache):
    eq = certify.Equation.sum_binary(1, 1, (1, 0, 1))
    certs = [
        c
        for n in range(2, 10)
        for m in range(1, n)
        if (c := certify.certify_cell(eq, (n, m))) is not None
        and c.prime <= obstruction.VERIFY_PRIME_LIMIT
    ]
    primes = {c.prime for c in certs}
    assert len(certs) > len(primes)  # some prime repeats
    scanned = []
    real_scan = obstruction._residue_roots

    def counting_scan(form, q):
        scanned.append(q)
        return real_scan(form, q)

    monkeypatch.setattr(obstruction, "_residue_roots", counting_scan)
    assert all(certify.recheck(c, deep=True) for c in certs)
    assert sorted(scanned) == sorted(primes)


def test_verify_vacuous_for_ineligible():
    assert verify_forced_exponent(BUNDLED_FORMS["x2+y2"], 5)


def test_verify_rejects_large_prime():
    with pytest.raises(ValueError):
        verify_forced_exponent(BUNDLED_FORMS["x2+y2"], 211)


def test_degree_one_targets_rejected():
    with pytest.raises(ValueError):
        obstruction_profile(BinaryForm((1, 1)), 7)


@given(q=st.sampled_from((3, 7, 11, 19, 23, 31)))
@settings(max_examples=20, deadline=None)
def test_forced_exponent_divides_valuations_in_samples(q):
    # every represented value of x2+y2 has even valuation at eligible primes;
    # sample rather than sweep, the full sweep lives in verify_forced_exponent
    f = BUNDLED_FORMS["x2+y2"]
    profile = obstruction_profile(f, q)
    assert profile.eligible
    for x in range(0, 3 * q, 5):
        for y in range(1, 3 * q, 7):
            val = f.evaluate(x, y)
            v = 0
            while val % q == 0:
                val //= q
                v += 1
            assert v % 2 == 0, (x, y, q)


def test_content_prime_ineligible():
    non_primitive = BinaryForm(
        (4, 8, 4), factors=((BinaryForm((2, 2)), 2),), factor_constant=1
    )
    # 3x^2 + 3y^2 has content 3; the declared factor 2x + 2y has no line mod 2
    for f, q in ((BinaryForm((3, 0, 3)), 3), (non_primitive, 2)):
        profile = obstruction_profile(f, q)
        assert not profile.eligible
        assert profile.forced_exponent is None and profile.reason is None
