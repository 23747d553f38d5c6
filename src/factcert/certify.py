"""Prime certificates of non-representability for factorial-type equations.

A certificate names one prime q and explains why the valuation v_q of the
left side is incompatible with every value the right side can take, by one
of the two rules ObstructionProfile.rule states: V_LESS_THAN_E (the
valuation falls below the exponent a rootless target forces) or
V_NOT_MULTIPLE (it is no multiple of a repeated linear factor's
multiplicity).

A certificate holds the Equation it is about plus plain data (cell, prime,
valuation, forced exponent, rule): rechecking one recomputes the valuation
and the eligibility profile from scratch and re-evaluates the rule.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from . import arith, obstruction, valuation
from .forms import BinaryForm, UnivariatePoly, clear_denominators
from .valuation import _cofactor_is_zero

CHECKER_VERSION = "1.0"

DEFAULT_PRIME_BUDGET = arith.DEFAULT_PRIME_BUDGET
# Beyond this gap the cofactor A*(m+1)...(n) + B is too large for the budgeted
# factorization fallback to pay for itself.
RHO_COFACTOR_GAP_LIMIT = 6_000
RECHECK_EXACT_LIMIT = 2_000


class ZeroLeftSideError(ValueError):
    """Raised when the left side is identically zero at the given cell."""


class Family(enum.Enum):
    SUM_FACT_BINARY = "SUM_FACT_BINARY"
    SUM_FACT_UNI = "SUM_FACT_UNI"
    PROD_DFACT_BINARY = "PROD_DFACT_BINARY"
    PROD_DFACT_UNI = "PROD_DFACT_UNI"

    @property
    def is_sum(self) -> bool:
        return self in (Family.SUM_FACT_BINARY, Family.SUM_FACT_UNI)

    @property
    def is_binary(self) -> bool:
        return self in (Family.SUM_FACT_BINARY, Family.PROD_DFACT_BINARY)


@dataclass(frozen=True)
class Equation:
    """One fixed equation shape: left side family plus right-side target.

    Sum families read  a*n! + b*m! = target(...)  over cells (n, m) with
    n >= m >= 0; product families read  b * n1!! * ... * nr!! = target(...)
    over tuples of double-factorial arguments.  target is a BinaryForm for
    the binary families and a UnivariatePoly for the univariate ones.
    scaling records the factor both sides were multiplied by to clear
    rational target coefficients, so reports can refer back to the original
    statement.
    """

    family: Family
    target: BinaryForm | UnivariatePoly
    a: int = 1
    b: int = 1
    scaling: int = 1

    def __post_init__(self):
        if self.family.is_sum:
            if self.a == 0 or self.b == 0:
                raise ValueError("sum family needs nonzero a and b")
        else:
            if self.b == 0:
                raise ValueError("product family needs nonzero b")
            if self.a != 1:
                raise ValueError("product family does not use a; leave it at 1")
        kind = BinaryForm if self.family.is_binary else UnivariatePoly
        if not isinstance(self.target, kind):
            raise ValueError(f"{self.family.value} needs a {kind.__name__} target")
        if self.scaling < 1:
            raise ValueError("scaling must be a positive integer")

    @property
    def is_sum(self) -> bool:
        return self.family.is_sum

    @classmethod
    def sum_binary(cls, a: int, b: int, coeffs, **form_kwargs) -> "Equation":
        ints, mult = clear_denominators(coeffs)
        target = BinaryForm(ints, **form_kwargs)
        return cls(Family.SUM_FACT_BINARY, target, a * mult, b * mult, mult)

    @classmethod
    def sum_univariate(cls, a: int, b: int, coeffs) -> "Equation":
        ints, mult = clear_denominators(coeffs)
        target = UnivariatePoly(ints)
        return cls(Family.SUM_FACT_UNI, target, a * mult, b * mult, mult)

    @classmethod
    def product_binary(cls, b: int, coeffs, **form_kwargs) -> "Equation":
        ints, mult = clear_denominators(coeffs)
        target = BinaryForm(ints, **form_kwargs)
        return cls(Family.PROD_DFACT_BINARY, target, 1, b * mult, mult)

    @classmethod
    def product_univariate(cls, b: int, coeffs) -> "Equation":
        ints, mult = clear_denominators(coeffs)
        target = UnivariatePoly(ints)
        return cls(Family.PROD_DFACT_UNI, target, 1, b * mult, mult)

    def normalize_cell(self, cell: Sequence[int]) -> tuple[int, ...]:
        out = tuple(int(c) for c in cell)
        if self.is_sum:
            if len(out) != 2:
                raise ValueError("sum cells are pairs (n, m)")
            n, m = out
            if m < 0 or n < m:
                raise ValueError("sum cells need n >= m >= 0")
        else:
            if not out:
                raise ValueError("product cells need at least one argument")
            if any(c < 0 for c in out):
                raise ValueError("double-factorial arguments must be nonnegative")
        return out


def left_is_zero(eq: Equation, cell: Sequence[int]) -> bool:
    """Exact zero test for the left side at a cell, without big factorials."""
    cell = eq.normalize_cell(cell)
    if not eq.is_sum:
        return False
    n, m = cell
    return _cofactor_is_zero(eq.a, eq.b, n, m)


def left_value(eq: Equation, cell: Sequence[int]) -> int:
    """The left side as an exact integer.  Intended for small cells only."""
    cell = eq.normalize_cell(cell)
    if eq.is_sum:
        n, m = cell
        return eq.a * math.factorial(n) + eq.b * math.factorial(m)
    return eq.b * math.prod(valuation.double_factorial_exact(c) for c in cell)


def left_valuation(eq: Equation, cell: Sequence[int], q: int) -> int:
    """Exact v_q of the left side at a cell (n > m for sum cells)."""
    cell = eq.normalize_cell(cell)
    if eq.is_sum:
        n, m = cell
        return valuation.combined_valuation(eq.a, eq.b, n, m, q)
    return valuation.product_valuation(eq.b, cell, q)


@dataclass(frozen=True)
class Certificate:
    """Self-contained non-representability witness for one cell of its equation.

    to_dict spells the equation out (family, A/B or b, form_coeffs, scaling,
    and a binary target's declared factor list or irreducibility).
    """

    equation: Equation
    cell: tuple[int, ...]
    prime: int
    valuation: int
    forced_exponent: int | None
    rule: str
    checker_version: str = CHECKER_VERSION
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        # Field order is part of the certificate format; keep it frozen.
        eq = self.equation
        out: dict = {"family": eq.family.value}
        if eq.is_sum:
            out["A"] = eq.a
            out["B"] = eq.b
        else:
            out["b"] = eq.b
        out["cell"] = list(self.cell)
        out["form_coeffs"] = list(eq.target.coeffs)
        out["scaling"] = eq.scaling
        out["prime"] = self.prime
        out["valuation"] = self.valuation
        out["forced_exponent"] = self.forced_exponent
        out["rule"] = self.rule
        out["checker_version"] = self.checker_version
        if isinstance(eq.target, BinaryForm):
            if eq.target.factors is not None:
                out["factor_list"] = [[list(f.coeffs), m] for f, m in eq.target.factors]
                out["factor_constant"] = eq.target.factor_constant
            if eq.target.irreducible_declared:
                out["irreducible_declared"] = True
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        family = Family(data["family"])
        if family.is_sum:
            a, b = _json_value(data["A"], "A"), _json_value(data["B"], "B")
        else:
            a, b = 1, _json_value(data["b"], "b")
        factor_list = None
        if data.get("factor_list") is not None:
            factor_list = tuple(
                (_json_list(c, "factor_list"), _json_value(m, "factor_list"))
                for c, m in data["factor_list"]
            )
        fc = data.get("factor_constant")
        fe = data.get("forced_exponent")
        return cls(
            equation=_stored_equation(
                family,
                a,
                b,
                _json_list(data["form_coeffs"], "form_coeffs"),
                _json_value(data["scaling"], "scaling"),
                factor_list,
                None if fc is None else _json_value(fc, "factor_constant"),
                _json_value(data.get("irreducible_declared", False), "irreducible_declared", bool),
            ),
            cell=_json_list(data["cell"], "cell"),
            prime=_json_value(data["prime"], "prime"),
            valuation=_json_value(data["valuation"], "valuation"),
            forced_exponent=None if fe is None else _json_value(fe, "forced_exponent"),
            rule=_json_value(data["rule"], "rule", str),
            checker_version=_json_value(data["checker_version"], "checker_version", str),
            notes=_json_list(data.get("notes", []), "notes", str),
        )


def _json_value(value, field: str, kind: type = int):
    """value if its type is exactly kind: int() would also take 103.5, "103" or
    true, bool() takes "false" and str() takes 1.0."""
    if type(value) is kind:
        return value
    raise ValueError(f"field {field} must be of type {kind.__name__}, not {value!r}")


def _json_list(value, field: str, kind: type = int) -> tuple:
    """A JSON list whose items all have exactly the type kind, as a tuple."""
    if isinstance(value, list) and all(type(x) is kind for x in value):
        return tuple(value)
    raise ValueError(f"field {field} must be a list of {kind.__name__}, not {value!r}")


# A certificate file repeats one equation on every entry, and a factored
# BinaryForm re-verifies its factor list when built: build each one once.
@functools.lru_cache(maxsize=16)
def _stored_equation(family, a, b, coeffs, scaling, factor_list, factor_constant,
                     irreducible_declared) -> Equation:
    """The Equation a stored certificate names, from its parsed fields."""
    if family.is_binary:
        factors = None
        if factor_list is not None:
            factors = tuple((BinaryForm(c), m) for c, m in factor_list)
        target = BinaryForm(
            coeffs,
            factors=factors,
            factor_constant=factor_constant,
            irreducible_declared=irreducible_declared,
        )
    else:
        target = UnivariatePoly(coeffs)
    return Equation(family, target, a, b, scaling)


def window_primes(anchor: int) -> list[int]:
    """Primes p with anchor/2 < p <= anchor, largest first.

    Such p divide anchor! exactly once, which is what makes them the cheapest
    certificate candidates: the factorial part contributes valuation 1 and
    only the small cofactor can push it higher.
    """
    primes = reversed(arith.primes_upto(anchor))
    return list(itertools.takewhile(lambda p: 2 * p > anchor, primes))


@functools.lru_cache(maxsize=4)
def _budget_primorial(prime_budget: int) -> int:
    """Product of the first prime_budget primes, built on first use."""
    return math.prod(arith.first_primes(prime_budget))


def _left_rest(eq: Equation, cell: tuple[int, ...]) -> int:
    """The rest C of left side = factorial part * C.

    The factorial part's primes are at most the cell's anchor.  Sum cells
    read a*n! + b*m! = m! * C with C = a*(m+1)*...*n + b, which is a + b on
    the diagonal; product cells read b * n1!! * ... * nr!!, so C = b.
    """
    if eq.is_sum:
        n, m = cell
        return eq.a * math.prod(range(m + 1, n + 1)) + eq.b
    return eq.b


# Complete factorizations of the last two rests, by (|C|, rho_steps), each
# with its primes in the order partial_factor proved them; a run that stop
# ended early is never stored.
_REST_CACHE: dict[tuple[int, int], tuple[tuple, list[int]]] = {}


def rest_factorization(
    eq: Equation,
    cell: tuple[int, ...],
    rho_steps: int,
    stop: Callable[[int], bool] | None = None,
) -> tuple[dict[int, int], list[int]] | None:
    """Budgeted factorization of |C| (see _left_rest): (primes, unfactored).

    As arith.partial_factor, stop included, except that for a sum cell whose
    gap n - m exceeds RHO_COFACTOR_GAP_LIMIT nothing is tried and |C| comes
    back whole as unfactored.  Complete results are kept for the last two
    values of |C|, so rho runs once per distinct rest: once per sum cell
    (the certifier's stopped run, then the solver's exact solve when no
    prime certified), and once per product grid, whose rest is b in every
    cell.  A cached result answers a call with stop too: stop sees the
    stored primes in the order the factorization proved them and the call
    returns None at the first one it accepts, as a fresh run would, so the
    certificate found is the same.
    """
    rest = abs(_left_rest(eq, cell))
    if eq.is_sum and cell[0] - cell[1] > RHO_COFACTOR_GAP_LIMIT:
        return {}, [rest]
    key = (rest, rho_steps)
    if key in _REST_CACHE:
        result, proven = _REST_CACHE[key]
        if stop is not None and any(stop(p) for p in proven):
            return None
        return result
    proven = []

    def _record(p: int) -> bool:
        proven.append(p)
        return stop is not None and stop(p)

    result = arith.partial_factor(rest, rho_steps=rho_steps, stop=_record)
    if result is not None:
        _REST_CACHE[key] = result, proven
        if len(_REST_CACHE) > 2:
            del _REST_CACHE[next(iter(_REST_CACHE))]
    return result


def left_factorization(
    eq: Equation, cell: Sequence[int], rho_steps: int
) -> tuple[dict[int, int], list[int]]:
    """(prime exponents, unfactored pieces) of |left side| at a nonzero cell.

    The factorial part (m! for sum cells, each ni!! for product cells)
    factors by Legendre; the rest C comes from rest_factorization, so rho
    runs once per cell, under rho_steps.
    """
    cell = eq.normalize_cell(cell)
    rest_exps, leftovers = rest_factorization(eq, cell, rho_steps)
    exps = Counter(rest_exps)
    if eq.is_sum:
        exps.update(valuation.factorial_sketch(cell[1]))
    else:
        for c in cell:
            exps.update(valuation.double_factorial_sketch(c))
    return dict(exps), leftovers


def certify_cell(
    eq: Equation,
    cell: Sequence[int],
    *,
    prime_budget: int = DEFAULT_PRIME_BUDGET,
    rho_steps: int = arith.DEFAULT_RHO_STEPS,
) -> Certificate | None:
    """Search for a certificate at one cell; None when no tried prime works.

    Candidate order: primes in (anchor/2, anchor] descending (anchor = m for
    sum cells, max argument for product cells), then the first prime_budget
    primes ascending, then the primes beyond the budget that can divide the
    left side.  The ascending scan skips every prime q > anchor that does
    not divide C, where C = a*(m+1)*...*n + b for sum cells and C = b for
    product cells: the left side is anchor-smooth apart from C, so such q
    has v_q(left) = 0, which admits no rule.  The budgeted primes dividing C
    come from one gcd of C with their product.  The last stage, for both
    families, is rest_factorization of C under rho_steps (rho_steps = 0
    skips it), and each prime is tried as soon as the factorization proves
    it (after trial division, then after each rho split, ascending within
    each); the first certificate ends it, so rho does no work past the
    prime that certifies.  The order only affects which certificate is
    found first, never its validity.
    """
    cell = eq.normalize_cell(cell)
    if left_is_zero(eq, cell):
        raise ZeroLeftSideError(f"left side is zero at cell {cell}")
    if prime_budget < 1:
        raise ValueError("prime_budget must be positive")
    if rho_steps < 0:
        raise ValueError("rho_steps must be nonnegative")
    if eq.is_sum and cell[0] == cell[1]:
        raise ValueError("need n > m >= 0")
    target = eq.target
    anchor = cell[1] if eq.is_sum else max(cell)

    tried: set[int] = set()

    def _attempt(q: int, notes: tuple[str, ...]) -> Certificate | None:
        tried.add(q)
        profile = obstruction.obstruction_profile(target, q)
        if not profile.eligible:
            return None
        v = left_valuation(eq, cell, q)
        rule = profile.rule(v)
        if rule is None:
            return None
        return Certificate(eq, cell, q, v, profile.forced_exponent, rule, notes=notes)

    for q in window_primes(anchor):
        cert = _attempt(q, ("window_prime",))
        if cert is not None:
            return cert

    unvisited = None  # product of the untried budgeted primes > anchor dividing C
    ascending = arith.first_primes(prime_budget)
    for q in ascending:
        if q in tried:
            continue
        if q > anchor:
            if unvisited is None:
                g = math.gcd(_budget_primorial(prime_budget), _left_rest(eq, cell))
                # g is squarefree; dividing out gcd(g, anchor!) drops its
                # primes <= anchor.
                unvisited = g // math.gcd(g, math.factorial(anchor))
            if unvisited == 1:
                break
            if unvisited % q:
                continue
            unvisited //= q
        cert = _attempt(q, ())
        if cert is not None:
            return cert
    max_scanned = ascending[-1]

    note = ("cofactor_factor",) if eq.is_sum else ("multiplier_factor",)
    cert = None

    def _try_beyond_scan(q: int) -> bool:
        nonlocal cert
        if q > max_scanned and q not in tried:
            cert = _attempt(q, note)
        return cert is not None

    if rho_steps > 0:
        # The scan above covered every prime up to max(anchor, budget), so
        # only large primes of C remain.  Each is tried as soon as it is
        # proven; a certificate stops rho.
        rest_factorization(eq, cell, rho_steps, stop=_try_beyond_scan)
    return cert


def recheck(cert: Certificate, *, deep: bool = False) -> bool:
    """Re-derive everything a certificate claims; False on any mismatch.

    Recomputes the left-side valuation (exactly, from the integer itself,
    when the cell is small enough), rebuilds the eligibility profile, and
    asks its rule for that valuation.  deep=True additionally brute-forces
    the forced exponent over residues when the prime is within the
    exhaustive budget.
    Malformed data counts as failure, not as an error; malformed equation
    fields in a stored certificate already fail in Certificate.from_dict.
    """
    try:
        eq = cert.equation
        cell = eq.normalize_cell(cert.cell)
        q = cert.prime
        if not arith.is_prime(q):
            return False
        if cert.checker_version != CHECKER_VERSION:
            return False
        if left_is_zero(eq, cell):
            return False

        if max(cell) <= RECHECK_EXACT_LIMIT:
            v, t = 0, abs(left_value(eq, cell))
            while t % q == 0:
                t //= q
                v += 1
        else:
            v = left_valuation(eq, cell, q)
        if v != cert.valuation:
            return False

        profile = obstruction.obstruction_profile(eq.target, q)
        if profile.forced_exponent != cert.forced_exponent:
            return False
        # rule(v) is None for an ineligible q or a v no rule certifies
        if cert.rule is None or profile.rule(v) != cert.rule:
            return False
        if deep and isinstance(eq.target, BinaryForm):
            if q <= obstruction.VERIFY_PRIME_LIMIT:
                if not obstruction.verify_forced_exponent(eq.target, q):
                    return False
        return True
    except (ValueError, TypeError, KeyError, ArithmeticError):
        return False


@dataclass(frozen=True)
class WindowPrimeReport:
    """Eligible primes for m in the certificate window above m/2.

    claim_eligible lists those in the claim interval (m/2, m/2 + m/(12 ln m)),
    where a prime is guaranteed asymptotically; it is empty when m is too
    small for the interval to hold an integer.  relaxed_primes lists, largest
    first, the primes of (m/2, m], the interval the search actually uses, and
    relaxed_eligible the eligible ones among them.
    """

    m: int
    claim_eligible: tuple[int, ...]
    relaxed_primes: tuple[int, ...]
    relaxed_eligible: tuple[int, ...]


def window_prime_report(target, m: int) -> WindowPrimeReport:
    if m < 10:
        raise ValueError("window analysis needs m >= 10")
    first = math.floor(m / 2) + 1
    last = math.ceil(m / 2 + m / (12 * math.log(m))) - 1
    claim_primes = [k for k in range(first, last + 1) if arith.is_prime(k)]
    claim_eligible = tuple(
        q for q in claim_primes if obstruction.obstruction_profile(target, q).eligible
    )
    relaxed = tuple(window_primes(m)[::-1])
    relaxed_eligible = tuple(
        q for q in relaxed if obstruction.obstruction_profile(target, q).eligible
    )
    return WindowPrimeReport(
        m=m,
        claim_eligible=claim_eligible,
        relaxed_primes=relaxed,
        relaxed_eligible=relaxed_eligible,
    )
