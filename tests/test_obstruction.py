"""Eligibility profiles, scans, and brute-force verification of forced
exponents."""

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factcert import arith, certify, forms, obstruction
from factcert.forms import BUNDLED_FORMS, BUNDLED_POLYS, BinaryForm, UnivariatePoly
from factcert.obstruction import (
    RULE_BELOW_EXPONENT,
    RULE_NOT_MULTIPLE,
    ObstructionProfile,
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
TARGETS = [*BUNDLED_FORMS.values(), *BUNDLED_POLYS.values(), MULTIPLICITY_FORM]
TARGET_IDS = [*BUNDLED_FORMS, *BUNDLED_POLYS, "mult"]


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


def test_rootless_but_not_squarefree_is_ineligible():
    # f(x,1) = x^4 + 2x^2 + 3x + 1 is (x^2 + 1)^2 mod 3: irreducible over Q,
    # 3 does not divide the lead, no root mod 3, yet a repeated factor
    f = BinaryForm((1, 0, 2, 3, 1))
    assert f.is_irreducible()
    assert not has_root_mod_q(f.coeffs, 3)
    assert not obstruction.is_obstruction_prime(f, 3).eligible
    assert obstruction.is_obstruction_prime(f, 5).eligible


def _brute_eligible(f, q):
    """Eligibility by residue enumeration alone: q does not divide the lead,
    f(x,1) has no root mod q, and f(x,1) is not lead * g^2 for a monic
    quadratic g (the only repeated factor a rootless f of degree <= 4 can
    have)."""
    c = [x % q for x in f.coeffs]
    if c[0] == 0 or any(f.evaluate(x, 1) % q == 0 for x in range(q)):
        return False
    if f.degree < 4:
        return True
    for u in range(q):
        for w in range(q):
            # lead * (x^2 + u x + w)^2, descending
            square = (1, 2 * u, u * u + 2 * w, 2 * u * w, w * w)
            if all((c[0] * s - t) % q == 0 for s, t in zip(square, c)):
                return False
    return True


def test_eligibility_matches_brute_force_oracle():
    rng = random.Random(27)
    forms = []
    while len(forms) < 30:
        d = rng.randint(2, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
        if d == 4 and len(forms) % 2:
            # g^2 + 30 h for g = x^2 + u x + w: rootless and not squarefree
            # mod each of 2, 3, 5 where g is irreducible
            u, w = rng.choice(((0, 1), (0, 2), (1, 1), (1, 2)))
            square = (1, 2 * u, u * u + 2 * w, 2 * u * w, w * w)
            coeffs = [a + 30 * rng.randint(-2, 2) for a in square]
        f = BinaryForm(tuple(coeffs))
        if coeffs[0] and f.is_irreducible():
            forms.append(f)
    excluded_by_square = 0
    for f in forms:
        for q in arith.primes_upto(59):
            want = _brute_eligible(f, q)
            assert obstruction.is_obstruction_prime(f, q).eligible is want, (f.coeffs, q)
            if not want and f.lead % q and not _scan_has_root(f.coeffs, q):
                excluded_by_square += 1
    assert excluded_by_square > 0


def _profile_digest(targets) -> str:
    """sha256 over (q, eligible, forced_exponent, reason, unbounded,
    total_degree, univariate) for each target at every prime below 3000."""
    h = hashlib.sha256()
    for target in targets:
        for q in arith.primes_upto(2999):
            p = obstruction_profile(target, q)
            row = (q, p.eligible, p.forced_exponent, p.reason, p.unbounded,
                   p.total_degree, p.univariate)
            h.update(repr(row).encode())
    return h.hexdigest()


# every bundled form and polynomial and MULTIPLICITY_FORM
PROFILE_PIN = "1d39cc3819745ef0da754ab37c97f4a6cd8ceccb55d2762f56d16383ebd41109"

# the factored tails the bundled targets leave out: the univariate
# multiplicity route with a rootless higher factor, a scaled square, a
# univariate line that is simple, and binary forms with a squared x or y
EXTRA_PROFILE_TARGETS = {
    UnivariatePoly((1, 0, 1, 0, 0)): 218,   # x^2 (x^2 + 1)
    UnivariatePoly((3, 0, 0)): 429,         # 3 x^2
    UnivariatePoly((1, -2, 3, -4, 2)): 219,  # (x - 1)^2 (x^2 + 2)
    UnivariatePoly((1, 0, 1, 0)): 0,        # x (x^2 + 1)
    BinaryForm((1, 0, 1, 0, 0)): 218,       # x^2 (x^2 + y^2)
    BinaryForm((2, 0, 2)): 218,             # 2 (x^2 + y^2)
    BinaryForm((0, 0, 1, 0, 1)): 218,       # y^2 (x^2 + y^2)
}
EXTRA_PROFILE_PIN = "e5a2b3ab3e0e9e900d8ccdcb2614b32cb61ff7f279c09293ff1152a2ba22f38c"


def test_profiles_pinned_below_3000():
    assert _profile_digest(TARGETS) == PROFILE_PIN


def test_extra_profiles_pinned_below_3000():
    assert _profile_digest(EXTRA_PROFILE_TARGETS) == EXTRA_PROFILE_PIN
    for target, eligible in EXTRA_PROFILE_TARGETS.items():
        profiles = [obstruction_profile(target, q) for q in arith.primes_upto(2999)]
        assert sum(p.eligible for p in profiles) == eligible, target


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


def test_verify_rejects_overclaimed_multiplicity(monkeypatch, fresh_verify_cache):
    # (x - y)^2 (x^2 + y^2) at 3: x = y + 3a with 3 ∤ a and 3 ∤ y gives
    # v = 2, below the total degree 4 and no multiple of 3; a claim of 3
    # must fail
    true_profile = obstruction_profile(MULTIPLICITY_FORM, 3)
    assert true_profile.reason == "LINEAR_FACTOR_MULTIPLICITY"
    assert true_profile.forced_exponent == 2
    overclaim = dataclasses.replace(true_profile, forced_exponent=3)
    monkeypatch.setattr(obstruction, "obstruction_profile", lambda form, q: overclaim)
    assert not verify_forced_exponent(MULTIPLICITY_FORM, 3)


def _admitted(profile, v) -> bool:
    """Can a represented value have valuation v at q, by the profile's fields?
    A rootless target takes 0 and every valuation from E on (never a positive
    one when unbounded); a multiplicity target takes the multiples of e and,
    binary ones, every valuation from the total degree on."""
    e, d = profile.forced_exponent, profile.total_degree
    if profile.reason == obstruction.REASON_NO_ROOT:
        return v == 0 or (e is not None and v >= e)
    return v % e == 0 or (not profile.univariate and v >= d)


@pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS)
def test_rule_certifies_exactly_the_valuations_no_value_takes(target):
    for q in arith.primes_upto(199):
        profile = obstruction_profile(target, q)
        if not profile.eligible:
            assert all(profile.rule(v) is None for v in range(-1, 2 * target.degree + 2))
            continue
        name = (RULE_BELOW_EXPONENT if profile.reason == obstruction.REASON_NO_ROOT
                else RULE_NOT_MULTIPLE)
        assert profile.rule(0) is None and profile.rule(-1) is None
        for v in range(1, 2 * target.degree + 2):
            want = None if _admitted(profile, v) else name
            assert profile.rule(v) == want, (q, v)


@pytest.mark.parametrize(
    "form", [*BUNDLED_FORMS.values(), MULTIPLICITY_FORM], ids=[*BUNDLED_FORMS, "mult"]
)
def test_rule_admits_every_valuation_from_the_verifier_modulus_on(form):
    # verify_forced_exponent skips values that are 0 mod q^K, so the rule
    # must certify no v >= K: K is the forced exponent for the no-root rule
    # and the total degree for the multiplicity rule
    for q in arith.primes_upto(199):
        profile = obstruction_profile(form, q)
        if not profile.eligible:
            continue
        multiple = profile.reason == obstruction.REASON_LINEAR_MULTIPLICITY
        k = profile.total_degree if multiple else profile.forced_exponent
        assert all(profile.rule(v) is None for v in range(k, k + 3 * form.degree)), q


_REAL_RULE = ObstructionProfile.rule


def _rule_without_multiple_test(self, v):
    # the v % e test dropped: every v below the total degree certifies
    if self.reason == obstruction.REASON_LINEAR_MULTIPLICITY and 0 < v < self.total_degree:
        return RULE_NOT_MULTIPLE
    return _REAL_RULE(self, v)


def _rule_without_reason_test(self, v):
    # every binary profile read as rootless with E the total degree
    if self.eligible and not self.univariate and 0 < v < self.total_degree:
        return RULE_BELOW_EXPONENT
    return _REAL_RULE(self, v)


@pytest.mark.parametrize(
    "mutant", [_rule_without_multiple_test, _rule_without_reason_test],
    ids=[RULE_NOT_MULTIPLE, RULE_BELOW_EXPONENT],
)
@pytest.mark.parametrize("q", [3, 7, 11])
def test_verify_rejects_a_mutated_rule(mutant, q, monkeypatch, fresh_verify_cache):
    # (x - y)^2 (x^2 + y^2) takes v = 2 at every q here; a rule that
    # certifies it must fail the verifier, which asks the rule certify uses
    profile = obstruction_profile(MULTIPLICITY_FORM, q)
    assert profile.forced_exponent == 2 and profile.rule(2) is None
    monkeypatch.setattr(ObstructionProfile, "rule", mutant)
    assert profile.rule(2) is not None
    assert not verify_forced_exponent(MULTIPLICITY_FORM, q)


def _exact_valuation_verdict(form, q, profile):
    """verify_forced_exponent's question, answered from the exact valuation
    of form.evaluate at every lift of every root class."""
    e, d = profile.forced_exponent, profile.total_degree
    multiple_rule = profile.reason == "LINEAR_FACTOR_MULTIPLICITY"
    roots = [(x, y) for y in range(q) for x in range(q) if form.evaluate(x, y) % q == 0]
    for x0, y0 in roots:
        for a in range(q):
            for b in range(q):
                val = form.evaluate(x0 + q * a, y0 + q * b)
                if val == 0:
                    continue
                v = 0
                while val % q == 0:
                    val //= q
                    v += 1
                if (v % e != 0 and v < d) if multiple_rule else v < e:
                    return False
    return True


@pytest.mark.parametrize(
    "form", [*BUNDLED_FORMS.values(), MULTIPLICITY_FORM], ids=[*BUNDLED_FORMS, "mult"]
)
def test_verify_matches_exact_valuations(form, monkeypatch, fresh_verify_cache):
    # the claimed exponent and total degree each moved by one either way:
    # the scan mod q^K must give the exact-valuation verdict, so an
    # off-by-one K shows up here (for the multiplicity rule only through a
    # claimed degree of 3: within [0, q^2)^2 the values of a true
    # multiplicity profile have v = e or v >= d)
    real_profile = obstruction.obstruction_profile
    verdicts = set()
    for q in arith.primes_upto(31):
        true_profile = real_profile(form, q)
        if not true_profile.eligible:
            continue
        for shift, degree_shift in itertools.product((-1, 0, 1), repeat=2):
            claim = dataclasses.replace(
                true_profile,
                forced_exponent=true_profile.forced_exponent + shift,
                total_degree=true_profile.total_degree + degree_shift,
            )
            monkeypatch.setattr(obstruction, "obstruction_profile", lambda f, p: claim)
            verify_forced_exponent.cache_clear()
            want = _exact_valuation_verdict(form, q, claim)
            assert verify_forced_exponent(form, q) == want, (q, shift, degree_shift)
            assert want or shift == 1, (q, shift, degree_shift)
            verdicts.add(want)
    assert verdicts == {True, False}


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


def test_each_target_is_factored_once_per_scan(monkeypatch):
    # forms factors a target once; every profile of the scan reads that result
    calls = []
    real = forms.factor_univariate

    def counting(coeffs):
        calls.append(tuple(coeffs))
        return real(coeffs)

    monkeypatch.setattr(forms, "factor_univariate", counting)
    obstruction_profile.cache_clear()
    for target in (BinaryForm((1, 0, 0, 0, 1)), UnivariatePoly((1, 0, 0))):
        calls.clear()
        assert scan_obstruction_primes(target, 3, 1999).total_primes == 302
        assert calls == [target.coeffs]


def test_undeclared_quintic_has_no_route():
    with pytest.raises(ValueError, match="degree >= 5 requires declared irreducibility"):
        obstruction_profile(BinaryForm((1, 0, 0, 0, 0, 1)), 11)


def test_declared_irreducible_quintic_takes_the_irreducible_route():
    f = BinaryForm((1, 0, 0, 0, 0, 2), irreducible_declared=True)  # Eisenstein at 2
    for q in arith.primes_upto(60):
        assert obstruction_profile(f, q) == obstruction.is_obstruction_prime(f, q)
    # fifth powers mod 11 are 0 and +-1, so x^5 + 2 has no root there
    assert obstruction_profile(f, 11).forced_exponent == 5


def test_quintic_with_a_declared_factor_list_takes_the_factored_route():
    f = BinaryForm(
        (1, 0, 1, 2, 0, 2),
        factors=((BinaryForm((1, 0, 1)), 1), (BinaryForm((1, 0, 0, 2)), 1)),
        factor_constant=1,
    )
    for q in arith.primes_upto(60):
        assert obstruction_profile(f, q) == obstruction.obstruction_profile_reducible(f, q)
    # both factors are rootless mod 7, but x^3 + 2 has the root 1 mod 3
    assert obstruction_profile(f, 7).forced_exponent == 5
    assert not obstruction_profile(f, 3).eligible


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


def test_two_repeated_lines_stay_ineligible():
    # x^2 y^2: each line alone would give the multiplicity rule
    f = BinaryForm((0, 0, 1, 0, 0))
    assert f.factorization == (((BinaryForm((0, 1)), 2), (BinaryForm((1, 0)), 2)), 1)
    assert not any(obstruction_profile(f, q).eligible for q in arith.primes_upto(199))


def test_content_prime_ineligible():
    non_primitive = BinaryForm(
        (4, 8, 4), factors=((BinaryForm((2, 2)), 2),), factor_constant=1
    )
    # 3x^2 + 3y^2 has content 3; the declared factor 2x + 2y has no line mod 2
    for f, q in ((BinaryForm((3, 0, 3)), 3), (non_primitive, 2)):
        profile = obstruction_profile(f, q)
        assert not profile.eligible
        assert profile.forced_exponent is None and profile.reason is None
    # factor_constant is 1 and the one line is squared, so at q = 2 only the
    # test that q divides both of the line's coefficients rules q out; at
    # q = 3 the line has a zero and the multiplicity pattern holds
    profile = obstruction_profile(non_primitive, 3)
    assert (profile.eligible, profile.forced_exponent) == (True, 2)
