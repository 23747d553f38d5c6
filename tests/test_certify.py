"""Certificate construction, serialization stability, and adversarial
rechecks."""

import json
import math

import pytest

from factcert import arith, certify, obstruction, valuation
from factcert.certify import (
    Certificate,
    Equation,
    Family,
    ZeroLeftSideError,
    certify_cell,
    left_is_zero,
    left_valuation,
    left_value,
    recheck,
    window_prime_report,
    window_primes,
)
from factcert.forms import BinaryForm, UnivariatePoly

SUM_SQUARES = Equation.sum_binary(1, 1, (1, 0, 1))
SUM_X2 = Equation.sum_univariate(1, 1, (1, 0, 0))
PROD_X2 = Equation.product_univariate(1, (1, 0, 0))


def test_left_value_shapes():
    assert left_value(SUM_SQUARES, (5, 4)) == 144
    assert left_value(SUM_X2, (4, 1)) == 25
    assert left_value(PROD_X2, (9,)) == 945
    assert left_value(PROD_X2, (9, 4)) == 945 * 8


def test_left_valuation_matches_integer():
    for cell in ((5, 4), (10, 7), (12, 0)):
        value = left_value(SUM_SQUARES, cell)
        for q in (2, 3, 5, 7, 11):
            got = left_valuation(SUM_SQUARES, cell, q)
            v = 0
            t = abs(value)
            while t % q == 0:
                t //= q
                v += 1
            assert got == v


def test_window_primes_contents():
    # primes in (m/2, m], descending
    assert window_primes(20) == [19, 17, 13, 11]
    assert window_primes(7) == [7, 5]
    assert window_primes(3) == [3, 2]
    assert window_primes(1) == []


def test_certify_cell_window_first():
    cert = certify_cell(SUM_X2, (10, 7))
    assert cert is not None
    assert cert.prime in (5, 7)
    assert "window_prime" in cert.notes
    assert recheck(cert)


def test_certify_prod_dfact_nine():
    # 9!! = 945 = 3^3 * 5 * 7; the window over (4.5, 9] tries 7 first and
    # v_7 = 1 is odd, so the window prime wins
    cert = certify_cell(PROD_X2, (9,))
    assert cert is not None
    assert cert.prime == 7
    assert cert.valuation == 1
    assert cert.rule == "V_NOT_MULTIPLE"
    assert recheck(cert)
    assert recheck(cert, deep=True)


def test_certificate_json_field_order_frozen():
    cert = certify_cell(SUM_X2, (10, 7))
    data = cert.to_dict()
    expected_prefix = [
        "family", "A", "B", "cell", "form_coeffs", "scaling", "prime",
        "valuation", "forced_exponent", "rule", "checker_version",
    ]
    assert list(data)[: len(expected_prefix)] == expected_prefix


def test_certificate_round_trip():
    cert = certify_cell(SUM_X2, (12, 5))
    assert cert is not None
    blob = json.dumps(cert.to_dict())
    back = Certificate.from_dict(json.loads(blob))
    assert back == cert
    assert recheck(back)


def test_declared_irreducible_certificate_round_trip():
    # degree 5 is past native factoring: only the declaration makes the form
    # certifiable, and no CLI flag declares it, so only the API reaches here
    eq = Equation.sum_binary(1, 1, (1, 0, 0, 0, 0, 2), irreducible_declared=True)
    cert = certify_cell(eq, (12, 11))
    assert cert.equation is eq and cert.prime == 11
    data = json.loads(json.dumps(cert.to_dict()))
    assert data["irreducible_declared"] is True and "factor_list" not in data
    back = Certificate.from_dict(data)
    assert back == cert
    assert recheck(back, deep=True)


@pytest.mark.parametrize(
    "family, target",
    [
        (Family.SUM_FACT_BINARY, UnivariatePoly((1, 0, 1))),
        (Family.PROD_DFACT_BINARY, UnivariatePoly((1, 0, 1))),
        (Family.SUM_FACT_UNI, BinaryForm((1, 0, 1))),
        (Family.PROD_DFACT_UNI, BinaryForm((1, 0, 1))),
    ],
)
def test_equation_refuses_a_target_of_the_wrong_kind(family, target):
    with pytest.raises(ValueError, match="target"):
        Equation(family, target)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(valuation=d["valuation"] + 1),
        lambda d: d.update(prime=4),
        lambda d: d.update(prime=13),
        lambda d: d.update(rule="V_LESS_THAN_E"
                           if d["rule"] == "V_NOT_MULTIPLE" else "V_NOT_MULTIPLE"),
        # (12, 10) has v_5 = 2, clashing with the odd valuation claimed at (10, 7)
        lambda d: d.update(cell=[12, 10]),
        lambda d: d.update(forced_exponent=5),
        lambda d: d.update(form_coeffs=[1, 0, 1]),
        lambda d: d.update(rule="V_ANY"),
    ],
)
def test_recheck_rejects_tampering(mutate):
    cert = certify_cell(SUM_X2, (10, 7))
    data = cert.to_dict()
    mutate(data)
    try:
        tampered = Certificate.from_dict(data)
    except (ValueError, KeyError):
        return  # malformed enough to fail at parse time: acceptable rejection
    assert not recheck(tampered)


def test_recheck_rejects_a_certificate_that_names_no_rule():
    # 5 is ineligible for x2+y2, so the profile's rule is None for every v
    v = left_valuation(SUM_SQUARES, (10, 7), 5)
    assert obstruction.obstruction_profile(SUM_SQUARES.target, 5).rule(v) is None
    assert not recheck(Certificate(SUM_SQUARES, (10, 7), 5, v, None, None))


@pytest.mark.parametrize(
    "field, value",
    [
        ("prime", 103.5),
        ("prime", 103.0),
        ("prime", "103"),
        ("cell", [10.9, 7.2]),
        ("valuation", True),
        ("A", 1.0),
        ("notes", "window_prime"),
        ("irreducible_declared", "false"),
        ("irreducible_declared", 1),
        ("rule", 2),
        ("checker_version", 1.0),
    ],
)
def test_from_dict_refuses_a_field_of_the_wrong_type(field, value):
    # int(), bool() or str() would coerce each of these into a certificate
    data = certify_cell(SUM_SQUARES, (10, 7)).to_dict()
    assert data["prime"] == 103
    data[field] = value
    with pytest.raises(ValueError, match=f"field {field} "):
        Certificate.from_dict(data)


def test_recheck_divides_small_product_left_side(monkeypatch):
    # a small product cell's valuation comes from the left side itself, not
    # from product_valuation, which made the certificate
    eq = Equation.product_binary(3, (1, 0, 1))
    cert = certify_cell(eq, (9, 4))
    assert cert is not None

    def refuse(*args):
        raise AssertionError("recheck called product_valuation")

    monkeypatch.setattr(valuation, "product_valuation", refuse)
    assert recheck(cert, deep=True)
    data = cert.to_dict()
    data["valuation"] += 1
    assert not recheck(Certificate.from_dict(data))


def test_zero_left_side_raises():
    eq = Equation.sum_binary(1, -1, (1, 0, 1))
    with pytest.raises(ZeroLeftSideError):
        certify_cell(eq, (4, 4))


@pytest.mark.parametrize("cell", [(0, 0), (1, 1), (7, 7)])
def test_diagonal_cell_rejected(cell):
    with pytest.raises(ValueError, match=r"need n > m >= 0"):
        certify_cell(SUM_SQUARES, cell)


def _reference_certify(eq, cell, prime_budget, rho_steps=0):
    """The unfiltered scan: every window prime, then every budgeted prime,
    then, with rho_steps > 0, the primes partial_factor finds in b (product
    cells) or in the whole cofactor (sum cells), each cofactor valuation
    found by dividing the left side itself."""
    tried = set()

    def attempt(q, notes):
        tried.add(q)
        profile = obstruction.obstruction_profile(eq.target, q)
        if not profile.eligible:
            return None
        if "cofactor_factor" in notes:
            v, t = 0, abs(left_value(eq, cell))
            while t % q == 0:
                t //= q
                v += 1
        else:
            v = left_valuation(eq, cell, q)
        rule = profile.rule(v)
        if rule is None:
            return None
        return Certificate(eq, cell, q, v, profile.forced_exponent, rule, notes=notes)

    for q in window_primes(cell[1] if eq.is_sum else max(cell)):
        cert = attempt(q, ("window_prime",))
        if cert is not None:
            return cert
    budget = arith.first_primes(prime_budget)
    for q in budget:
        if q not in tried:
            cert = attempt(q, ())
            if cert is not None:
                return cert
    if rho_steps <= 0:
        return None
    if eq.is_sum:
        rest = left_value(eq, cell) // math.factorial(cell[1])
        note = ("cofactor_factor",)
    else:
        rest, note = eq.b, ("multiplier_factor",)
    exponents, _ = arith.partial_factor(rest, rho_steps=rho_steps)
    for q in sorted(exponents):
        if q > budget[-1] and q not in tried:
            cert = attempt(q, note)
            if cert is not None:
                return cert
    return None


@pytest.mark.parametrize("a, b", [(1, 1), (1, -7), (2, 3), (-1, 5)])
@pytest.mark.parametrize(
    "make",
    [
        lambda a, b: Equation.sum_binary(a, b, (1, 0, 1)),
        lambda a, b: Equation.sum_binary(a, b, (1, 1, 1)),
        lambda a, b: Equation.sum_binary(a, b, (1, 0, 0, 2)),
        lambda a, b: Equation.sum_univariate(a, b, (1, 0, -2)),
    ],
    ids=["x2+y2", "x2+xy+y2", "x3+2y3", "x^2-2"],
)
def test_cofactor_filter_matches_reference_scan(make, a, b):
    eq = make(a, b)
    budget = 200  # primes up to 1223: some below m, most above
    for n in range(1, 31):
        for m in range(n):
            if left_is_zero(eq, (n, m)):
                continue
            got = certify_cell(eq, (n, m), prime_budget=budget, rho_steps=0)
            want = _reference_certify(eq, (n, m), budget)
            assert (got and got.to_dict()) == (want and want.to_dict()), (n, m)


@pytest.mark.parametrize(
    "eq",
    [Equation.sum_binary(1, 1, (1, 0, 1)), Equation.sum_binary(1, 1, (1, 1, 1))],
    ids=["x2+y2", "x2+xy+y2"],
)
def test_rho_route_matches_reference(eq):
    budget = 20  # primes up to 71: many cells are left to the rho route
    routed = 0
    for n in range(1, 31):
        for m in range(n):
            got = certify_cell(eq, (n, m), prime_budget=budget)
            want = _reference_certify(
                eq, (n, m), budget, rho_steps=arith.DEFAULT_RHO_STEPS
            )
            assert (got and got.to_dict()) == (want and want.to_dict()), (n, m)
            routed += got is not None and got.notes == ("cofactor_factor",)
    assert routed >= 20


@pytest.mark.parametrize("rho_steps", [0, arith.DEFAULT_RHO_STEPS])
def test_left_factorization_multiplies_back(rho_steps):
    # prod p^e * prod leftovers == |left side| on off-diagonal, diagonal and
    # product cells
    sums = [Equation.sum_binary(a, b, (1, 0, 1))
            for a, b in ((1, 1), (2, 3), (1, -7), (-1, 5))]
    products = [Equation.product_binary(b, (1, 0, 1)) for b in (1, 6, -15)]
    cells = [(eq, (n, m)) for eq in sums for n in range(13) for m in range(n + 1)]
    cells += [(eq, (n1, n2)) for eq in products
              for n1 in range(13) for n2 in range(n1 + 1)]
    for eq, cell in cells:
        if left_is_zero(eq, cell):
            continue
        exps, leftovers = certify.left_factorization(eq, cell, rho_steps)
        got = math.prod(p**e for p, e in exps.items()) * math.prod(leftovers)
        assert got == abs(left_value(eq, cell)), (eq.a, eq.b, cell)


# 107 and 1307 are eligible for all three targets below (3 mod 4, 2 mod 3,
# 3 mod 8); 107 lies inside the budget of 200 primes, 1307 beyond it, where
# only the factoring stage reaches it, and rho_steps = 0 skips that stage.
@pytest.mark.parametrize("b", [1, -6, 107, 2 * 1307])
@pytest.mark.parametrize(
    "make",
    [
        lambda b: Equation.product_binary(b, (1, 0, 1)),
        lambda b: Equation.product_binary(b, (1, 1, 1)),
        lambda b: Equation.product_univariate(b, (1, 0, -2)),
    ],
    ids=["x2+y2", "x2+xy+y2", "x^2-2"],
)
def test_product_filter_matches_reference_scan(make, b):
    eq = make(b)
    budget = 200
    for rho_steps in (0, arith.DEFAULT_RHO_STEPS):
        primes = set()
        for n1 in range(13):
            for n2 in range(n1 + 1):
                cell = (n1, n2)
                got = certify_cell(eq, cell, prime_budget=budget, rho_steps=rho_steps)
                want = _reference_certify(eq, cell, budget, rho_steps)
                assert (got and got.to_dict()) == (want and want.to_dict()), cell
                primes.add(got and got.prime)
        if b == 107:  # certified by a q > max(cell) that divides b
            assert 107 in primes
        if b == 2 * 1307:  # reached by the factoring stage only
            assert (1307 in primes) == (rho_steps > 0)


def _count_exhausted_rho(monkeypatch) -> list:
    exhausted = []
    brent = arith._pollard_brent

    def counting_brent(n, max_steps):
        d = brent(n, max_steps)
        if d is None:
            exhausted.append(n)
        return d

    monkeypatch.setattr(arith, "_pollard_brent", counting_brent)
    return exhausted


@pytest.mark.parametrize("cell, prime", [((50, 1), 74195127103), ((44, 1), 694763)])
def test_rho_route_stops_at_certifying_prime(monkeypatch, cell, prime):
    # Factoring the rest of these cofactors exhausts the rho budget once;
    # the certifying prime is proven before that run, so it never starts.
    exhausted = _count_exhausted_rho(monkeypatch)
    cert = certify_cell(SUM_SQUARES, cell)
    assert (cert.prime, cert.notes) == (prime, ("cofactor_factor",))
    assert recheck(cert)
    assert exhausted == []


def test_rho_route_tries_split_pieces_ascending():
    # One split of the cofactor of 20! + 1 proves 20639383 and 117876683047,
    # both 3 mod 4 and both certifying: the smaller one is tried first.
    cert = certify_cell(SUM_SQUARES, (20, 0), prime_budget=20)
    assert (cert.prime, cert.notes) == (20639383, ("cofactor_factor",))
    assert recheck(cert)


def _refuse_partial_factor(*args, **kwargs):
    raise AssertionError("arith.partial_factor ran")


@pytest.mark.parametrize("k", [0, 2, 4])
def test_cached_rest_replay_ends_at_the_callers_stop(monkeypatch, k):
    # 16! + 1 = 17 * 61 * 137 * 139 * 1059511; a stopped replay of the cached
    # factorization shows stop the primes a fresh run would, in proof order
    monkeypatch.setattr(certify, "_REST_CACHE", {})
    steps = arith.DEFAULT_RHO_STEPS
    rest = math.factorial(16) + 1
    order = []
    arith.partial_factor(rest, rho_steps=steps, stop=lambda p: order.append(p) or False)
    assert order == [17, 61, 137, 139, 1059511]
    full = certify.rest_factorization(SUM_SQUARES, (16, 1), steps)
    monkeypatch.setattr(arith, "partial_factor", _refuse_partial_factor)
    seen = []

    def accept(p):
        seen.append(p)
        return p == order[k]

    assert certify.rest_factorization(SUM_SQUARES, (16, 1), steps, stop=accept) is None
    assert seen == order[: k + 1]
    assert certify.rest_factorization(SUM_SQUARES, (16, 1), steps) == full


def test_rest_of_a_wide_gap_cell_is_left_whole(monkeypatch):
    monkeypatch.setattr(certify, "RHO_COFACTOR_GAP_LIMIT", 3)
    monkeypatch.setattr(arith, "partial_factor", _refuse_partial_factor)
    rest = math.factorial(10) // math.factorial(2) + 1
    got = certify.rest_factorization(SUM_SQUARES, (10, 2), arith.DEFAULT_RHO_STEPS)
    assert got == ({}, [rest])


def test_recheck_above_the_exact_limit_uses_left_valuation(monkeypatch):
    cert = certify_cell(SUM_SQUARES, (12, 5))
    calls = []

    def counting(*args):
        calls.append(args)
        return left_valuation(*args)

    monkeypatch.setattr(certify, "RECHECK_EXACT_LIMIT", 5)
    monkeypatch.setattr(certify, "left_valuation", counting)
    assert recheck(cert)
    assert calls == [(SUM_SQUARES, (12, 5), cert.prime)]
    data = cert.to_dict()
    data["valuation"] += 1
    assert not recheck(Certificate.from_dict(data))


def test_cofactor_filter_bounds_valuation_calls(monkeypatch):
    calls = []
    original = valuation.combined_valuation

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(valuation, "combined_valuation", counting)
    n, m = 16, 2  # 16! + 2 = 2 * 10461394944001, the cofactor a prime
    assert certify_cell(SUM_SQUARES, (n, m), rho_steps=0) is None
    cofactor = math.factorial(n) // math.factorial(m) + 1
    budget = arith.first_primes(certify.DEFAULT_PRIME_BUDGET)
    bound = sum(1 for q in budget if q <= m or cofactor % q == 0)
    assert len(calls) <= bound


def test_no_certificate_for_representable_value():
    # 5! + 4! = 144 = x^2 has a solution; no sound certificate can exist
    assert certify_cell(SUM_X2, (5, 4)) is None


def test_window_prime_report_fields():
    rep = window_prime_report(SUM_SQUARES.target, 100)
    assert rep.m == 100
    assert all(50 < q <= 100 for q in rep.relaxed_primes)
    assert set(rep.relaxed_eligible) <= set(rep.relaxed_primes)
    assert all(q % 4 == 3 for q in rep.relaxed_eligible)


def test_certificates_only_at_eligible_primes():
    for n in range(3, 16):
        for m in range(1, n):
            try:
                cert = certify_cell(SUM_SQUARES, (n, m))
            except ZeroLeftSideError:
                continue
            if cert is None:
                continue
            from factcert.obstruction import obstruction_profile

            profile = obstruction_profile(SUM_SQUARES.target, cert.prime)
            assert profile.eligible
            assert cert.forced_exponent == profile.forced_exponent
            assert recheck(cert)
