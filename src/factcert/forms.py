"""Integer binary forms and univariate polynomials: evaluation, discriminants,
factor structure, and the monic depression transform used by the bound extractor.

Coefficient order is always descending in x: (a_d, ..., a_0) represents
a_d*x^d + ... + a_0 for polynomials and a_d*x^d + a_{d-1}*x^{d-1}*y + ... +
a_0*y^d for forms, so a form and its x-dehomogenization share one tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith


class FormDataError(ValueError):
    """Input form data is internally inconsistent (e.g. non-integral results)."""


# ---------------------------------------------------------------------------
# Coefficient-tuple helpers (zero polynomial is the empty tuple)
# ---------------------------------------------------------------------------


def _trim(coeffs) -> tuple:
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    return tuple(coeffs[i:])


def _degree(coeffs) -> int:
    return len(coeffs) - 1


def _eval_int(coeffs, x: int) -> int:
    v = 0
    for c in coeffs:
        v = v * x + c
    return v


def _mul(p, q) -> tuple:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _derivative(coeffs) -> tuple:
    d = _degree(coeffs)
    return _trim(tuple(c * (d - i) for i, c in enumerate(coeffs[:-1]))) if d >= 1 else ()


def _content(coeffs) -> int:
    return math.gcd(*[abs(c) for c in coeffs]) if coeffs else 0


def _shift(coeffs, t: int) -> tuple:
    """Taylor shift: coefficients of p(x + t), by repeated synthetic division."""
    work = list(coeffs)
    n = len(work)
    for i in range(1, n):
        for j in range(1, n - i + 1):
            work[j] += work[j - 1] * t
    return tuple(work)


def _pseudo_divmod(p, q) -> tuple[int, tuple, tuple]:
    """Integer pseudo-division: (k, Q, R) with lead(q)^k * p == Q*q + R.

    Each of the k steps scales by lead(q) and cancels the leading term, so R
    has lower degree than q. Over Q, p / q has quotient Q / lead(q)^k and
    remainder R / lead(q)^k.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    lead = q[0]
    rem = _trim(p)
    quo = [0] * max(0, len(rem) - len(q) + 1)
    k = 0
    while len(rem) >= len(q):
        head = rem[0]
        quo = [lead * c for c in quo]
        quo[len(q) - len(rem) - 1] += head  # index -1-s holds x^s, s = deg rem - deg q
        work = [lead * c for c in rem]
        for i, c in enumerate(q):
            work[i] -= head * c
        rem = _trim(work)
        k += 1
    return k, tuple(quo), rem


def _primitive(coeffs) -> tuple:
    if not coeffs:
        return ()
    g = _content(coeffs)
    sign = -1 if coeffs[0] < 0 else 1
    return tuple(c // (sign * g) for c in coeffs)


def _gcd_degree(p, q) -> int:
    """Degree of gcd(p, q) over Q, by a primitive pseudo-remainder sequence."""
    p, q = _trim(p), _trim(q)
    if not p:
        return _degree(q)
    if not q:
        return _degree(p)
    while q:
        p, q = q, _primitive(_pseudo_divmod(p, q)[2])
    return _degree(p)


def _int_det(mat) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def resultant(p, q) -> int:
    """Resultant of two integer coefficient tuples via the Sylvester matrix."""
    p, q = _trim(p), _trim(q)
    dp, dq = _degree(p), _degree(q)
    if dp < 0 or dq < 0:
        return 0
    if dp == 0:
        return p[0] ** dq
    if dq == 0:
        return q[0] ** dp
    n = dp + dq
    rows = []
    for i in range(dq):
        rows.append([0] * i + list(p) + [0] * (n - dp - 1 - i))
    for i in range(dp):
        rows.append([0] * i + list(q) + [0] * (n - dq - 1 - i))
    return _int_det(rows)


def discriminant(coeffs) -> int:
    """Discriminant of an integer polynomial of degree >= 1 (degree 1 gives 1)."""
    coeffs = _trim(coeffs)
    d = _degree(coeffs)
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if d == 1:
        return 1
    res = resultant(coeffs, _derivative(coeffs))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    val, rem = divmod(sign * res, coeffs[0])
    if rem:
        raise FormDataError("resultant not divisible by leading coefficient")
    return val


# ---------------------------------------------------------------------------
# Public types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnivariatePoly:
    """Integer polynomial in one variable, coefficients descending."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = self.coeffs
        # a tuple that already leads with a nonzero is stored as given: the
        # ball search builds one per x-slice of a non-diagonal form
        if not isinstance(coeffs, tuple) or (coeffs and coeffs[0] == 0):
            object.__setattr__(self, "coeffs", _trim(coeffs))
        if not self.coeffs:
            raise ValueError("zero polynomial is not a valid right side")

    @property
    def degree(self) -> int:
        return _degree(self.coeffs)

    @property
    def lead(self) -> int:
        return self.coeffs[0]

    @property
    def constant(self) -> int:
        return self.coeffs[-1]

    def evaluate(self, x: int) -> int:
        return _eval_int(self.coeffs, x)

    def content(self) -> int:
        return _content(self.coeffs)

    def __str__(self) -> str:
        return poly_text(self.coeffs, "x")


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous integer form of degree len(coeffs)-1 in x and y.

    factors, when set, is ((irreducible form, multiplicity), ...) with
    factor_constant making the product exact; it is either user-declared or
    found natively for degree <= 4.
    """

    coeffs: tuple[int, ...]
    factors: tuple[tuple["BinaryForm", int], ...] | None = None
    factor_constant: int | None = None
    irreducible_declared: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) < 2 or not any(self.coeffs):
            raise ValueError("binary form needs degree >= 1 and a nonzero coefficient")
        if self.factors is not None:
            _check_factorization(self)

    @property
    def degree(self) -> int:
        return _degree(self.coeffs)

    @property
    def lead(self) -> int:
        """Coefficient of x^d."""
        return self.coeffs[0]

    @property
    def coconstant(self) -> int:
        """Coefficient of y^d."""
        return self.coeffs[-1]

    def content(self) -> int:
        return _content(self.coeffs)

    def evaluate(self, x: int, y: int) -> int:
        v = 0
        ypow = 1
        d = self.degree
        for i in range(d, -1, -1):
            v += self.coeffs[d - i] * x**i * ypow
            ypow *= y
        return v

    def dehomogenized(self) -> tuple[int, ...]:
        """Coefficients of f(x, 1); may have lower degree than the form."""
        return _trim(self.coeffs)

    def with_found_factors(self) -> "BinaryForm":
        """Same form with its factor list filled in natively (degree <= 4 only)."""
        if self.factors is not None:
            return self
        factors, constant = factor_binary_form(self)
        return BinaryForm(
            coeffs=self.coeffs, factors=factors, factor_constant=constant
        )

    def is_irreducible(self) -> bool:
        """Native irreducibility over Q for degree <= 4, else the declaration."""
        if self.degree == 1:
            return True
        if self.degree <= 4:
            f = self.with_found_factors()
            return (
                len(f.factors) == 1
                and f.factors[0][1] == 1
                and f.factors[0][0].degree == self.degree
            )
        return self.irreducible_declared

    def __str__(self) -> str:
        return form_text(self.coeffs)


def _power(var: str, e: int) -> str:
    return var + (f"^{e}" if e > 1 else "") if e else ""


def _terms_text(coeffs, monomial) -> str:
    """Signed sum of the nonzero terms; monomial(i) spells the i-th one's variables."""
    out = ""
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        body = monomial(i)
        term = ("" if abs(c) == 1 and body else str(abs(c))) + body
        if out:
            out += (" - " if c < 0 else " + ") + term
        else:
            out = ("-" if c < 0 else "") + term
    return out or "0"


def poly_text(coeffs, var: str) -> str:
    d = _degree(coeffs)
    return _terms_text(coeffs, lambda i: _power(var, d - i))


def form_text(coeffs) -> str:
    d = _degree(coeffs)
    return _terms_text(coeffs, lambda i: _power("x", d - i) + _power("y", i))


def clear_denominators(coeffs) -> tuple[tuple[int, ...], int]:
    """Scale rational coefficients to integers; returns (coeffs, multiplier)."""
    fracs = [Fraction(c) for c in coeffs]
    mult = math.lcm(*[f.denominator for f in fracs]) if fracs else 1
    return tuple(int(f * mult) for f in fracs), mult


# ---------------------------------------------------------------------------
# Discriminants
# ---------------------------------------------------------------------------


def modified_discriminant(form: BinaryForm) -> int:
    """Discriminant of f(x,1) divided by content^(2d-2); must come out integral."""
    deh = form.dehomogenized()
    if _degree(deh) < 1:
        raise ValueError("f(x,1) must have degree >= 1")
    g = form.content()
    disc = discriminant(deh)
    denom = g ** (2 * form.degree - 2)
    val, rem = divmod(disc, denom)
    if rem:
        raise FormDataError(
            f"discriminant {disc} not divisible by content^(2d-2) = {denom}"
        )
    return val


# ---------------------------------------------------------------------------
# Depression transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DepressedForm:
    """Monic image q with q(x_scale*x + shift) == multiplier * source(x).

    q is monic of the source degree with zero second coefficient; shift is the
    integer b_1/d (integrality is automatic for integer sources).
    """

    q: UnivariatePoly
    multiplier: int
    x_scale: int
    shift: int
    source: UnivariatePoly

    def residual(self) -> tuple[int, ...]:
        """Coefficients of q minus its leading monomial (the obstruction to x^d)."""
        return _trim(self.q.coeffs[1:])


def depress(poly: UnivariatePoly) -> DepressedForm:
    """Monic depression: multiply by d^d*lead^(d-1), substitute, recenter.

    With f = a0*x^d + a1*x^(d-1) + ... the substitution y = a0*d*x gives a
    monic polynomial in y whose y^(d-1) coefficient is d*a1; recentering at
    z = y + a1 kills it exactly.
    """
    d = poly.degree
    if d < 2:
        raise ValueError("depression needs degree >= 2")
    a0 = poly.lead
    b = [1]
    for i in range(1, d + 1):
        b.append(d**i * poly.coeffs[i] * a0 ** (i - 1))
    q_coeffs = _shift(tuple(b), -poly.coeffs[1])
    assert q_coeffs[1] == 0, "second coefficient must vanish after recentering"
    return DepressedForm(
        q=UnivariatePoly(q_coeffs),
        multiplier=d**d * a0 ** (d - 1),
        x_scale=a0 * d,
        shift=poly.coeffs[1],
        source=poly,
    )


def is_monomial_after_depression(poly: UnivariatePoly) -> bool:
    """True when the depressed image is exactly z^d (degenerate for bounds)."""
    return not depress(poly).residual()


def distinct_root_count(poly: UnivariatePoly) -> int:
    """Number of distinct complex roots: degree minus deg gcd(f, f')."""
    if poly.degree < 1:
        return 0
    return poly.degree - _gcd_degree(poly.coeffs, _derivative(poly.coeffs))


def sandwich_threshold(q: UnivariatePoly) -> int:
    """Least Z with |z|^d/2 < |q(z)| < 2|z|^d guaranteed for all |z| >= Z.

    For monic q with zero second coefficient and tail sum S = sum |c_i|, both
    sides hold once |z|^2 > 2S; the returned integer adds one for strictness.
    """
    if q.lead != 1:
        raise ValueError("sandwich threshold needs a monic polynomial")
    s = sum(abs(c) for c in q.coeffs[1:])
    return max(2, math.isqrt(2 * s) + 1)


# ---------------------------------------------------------------------------
# Factorization over Q (native for degree <= 4)
# ---------------------------------------------------------------------------


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in arith.factor(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def _rational_roots(coeffs) -> list[Fraction]:
    """All rational roots of a primitive integer polynomial."""
    coeffs = _trim(coeffs)
    roots = []
    if not coeffs or len(coeffs) == 1:
        return roots
    if coeffs[-1] == 0:
        roots.append(Fraction(0))
        return roots + [r for r in _rational_roots(coeffs[:-1]) if r != 0]
    for qd in _divisors(coeffs[0]):
        for pn in _divisors(coeffs[-1]):
            if math.gcd(pn, qd) != 1:
                continue
            d = _degree(coeffs)
            for num in (pn, -pn):
                # scaled evaluation: qd^d * p(num/qd) stays in the integers
                v = sum(c * num ** (d - i) * qd**i for i, c in enumerate(coeffs))
                if v == 0:
                    roots.append(Fraction(num, qd))
    return sorted(set(roots))


def _divide_exact(p, q):
    """Divide integer polys exactly; raises if the division is not exact/integral."""
    k, quo, rem = _pseudo_divmod(p, q)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    scale = q[0] ** k
    if any(c % scale for c in quo):
        raise ArithmeticError("non-integral quotient")
    return tuple(c // scale for c in quo)


def factor_univariate(coeffs) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """Factor an integer polynomial of degree <= 4 into irreducibles over Q.

    Returns (constant, [(primitive factor coeffs, multiplicity), ...]) with
    constant * product == input.  Rational roots give the linear factors; the
    only remaining split, quartic = quadratic * quadratic, is found by
    three-point interpolation over divisor triples.
    """
    coeffs = _trim(coeffs)
    d = _degree(coeffs)
    if d > 4:
        raise ValueError("native factorization supports degree <= 4 only")
    if d < 0:
        raise ValueError("zero polynomial")
    g = _content(coeffs)
    sign = -1 if coeffs[0] < 0 else 1
    constant = sign * g
    work = tuple(c // constant for c in coeffs)
    factors: list[tuple[tuple[int, ...], int]] = []

    def push(f):
        f = _primitive(f)
        for i, (h, e) in enumerate(factors):
            if h == f:
                factors[i] = (h, e + 1)
                return
        factors.append((f, 1))

    # ascending roots, each divided out as often as it divides (Gauss keeps
    # the primitive quotient integral)
    for r in _rational_roots(work):
        lin = (r.denominator, -r.numerator)
        while True:
            try:
                quotient = _divide_exact(work, lin)
            except ArithmeticError:
                break
            push(lin)
            work = _primitive(quotient)

    dw = _degree(work)
    if dw in (2, 3):
        push(work)  # no rational roots left, so irreducible at these degrees
        work = (1,)
    elif dw == 4:
        split = _quartic_split(work)
        if split is None:
            push(work)
        else:
            push(split[0])
            push(split[1])
        work = (1,)
    if _degree(work) == 0 and work[0] != 1:
        constant *= work[0]
    return constant, factors


def _quartic_split(coeffs):
    """Quadratic*quadratic split of a rootless primitive quartic, or None."""
    v0, v1, vm1 = _eval_int(coeffs, 0), _eval_int(coeffs, 1), _eval_int(coeffs, -1)
    # rootless means none of these vanish
    for d0 in _divisors(v0):
        for g0 in (d0, -d0):
            for d1 in _divisors(v1):
                for gm1s in _divisors(vm1):
                    for gm1 in (gm1s, -gm1s):
                        if (d1 + gm1) % 2 or (d1 - gm1) % 2:
                            continue
                        alpha = (d1 + gm1) // 2 - g0
                        beta = (d1 - gm1) // 2
                        if alpha == 0:
                            continue
                        cand = _trim((alpha, beta, g0))
                        if _degree(cand) != 2:
                            continue
                        try:
                            other = _divide_exact(coeffs, cand)
                        except ArithmeticError:
                            continue
                        if _degree(other) == 2:
                            return _primitive(cand), _primitive(other)
    return None


def factor_binary_form(form: BinaryForm):
    """Factor a binary form of degree <= 4 into irreducible forms over Q.

    Returns (factors, constant) where factors is a tuple of (BinaryForm, e).
    A leading-coefficient deficit corresponds to a power of y; the rest comes
    from factoring f(x,1) and re-homogenizing each factor at its own degree.
    """
    if form.degree > 4:
        raise ValueError(
            "native factorization supports degree <= 4; supply factors explicitly"
        )
    deh = form.dehomogenized()
    y_mult = form.degree - _degree(deh)
    constant, uni_factors = factor_univariate(deh)
    factors = []
    if y_mult:
        factors.append((BinaryForm((0, 1)), y_mult))
    for fc, e in uni_factors:
        factors.append((BinaryForm(fc), e))
    return tuple(factors), constant


def _check_factorization(form: BinaryForm) -> None:
    # forms multiply as their coefficient tuples do, so the product is exact
    if form.factor_constant is None:
        raise FormDataError("factor list requires factor_constant")
    # a stored list is outside input: refuse a wrong degree before multiplying
    if any(e < 1 for _, e in form.factors) or (
        sum(f.degree * e for f, e in form.factors) != form.degree
    ):
        raise FormDataError(f"declared factors do not have total degree {form.degree}")
    product = (form.factor_constant,)
    for f, e in form.factors:
        for _ in range(e):
            product = _mul(product, f.coeffs)
    if product != form.coeffs:
        raise FormDataError(
            f"declared factorization multiplies out to {form_text(product)}, not {form}"
        )


# ---------------------------------------------------------------------------
# Quadratic form geometry (used by the representation solver)
# ---------------------------------------------------------------------------


def quadratic_discriminant(form: BinaryForm) -> int:
    if form.degree != 2:
        raise ValueError("quadratic discriminant needs degree 2")
    a, b, c = form.coeffs
    return b * b - 4 * a * c


def is_positive_definite(form: BinaryForm) -> bool:
    return (
        form.degree == 2 and form.lead > 0 and quadratic_discriminant(form) < 0
    )


# ---------------------------------------------------------------------------
# Bundled targets
# ---------------------------------------------------------------------------
#
# Small catalog of right-hand sides used by the CLI presets, the reproduce
# command, and the regression suite.  Every form here has a nonempty eligible
# prime scan on [3, 100]; every polynomial depresses cleanly.  Keys are the
# compressed-token spellings the CLI grammar accepts.

BUNDLED_FORMS: dict[str, BinaryForm] = {
    "x2+y2": BinaryForm((1, 0, 1)),
    "x2+xy+y2": BinaryForm((1, 1, 1)),
    "x2+2y2": BinaryForm((1, 0, 2)),
    "x2-2y2": BinaryForm((1, 0, -2)),
    "x2+3y2": BinaryForm((1, 0, 3)),
    "x4+2x2y2+y4": BinaryForm(
        (1, 0, 2, 0, 1),
        factors=((BinaryForm((1, 0, 1)), 2),),
        factor_constant=1,
    ),
    "x3+2y3": BinaryForm((1, 0, 0, 2)),
    "x4+y4": BinaryForm((1, 0, 0, 0, 1)),
}

BUNDLED_POLYS: dict[str, UnivariatePoly] = {
    "x^2": UnivariatePoly((1, 0, 0)),
    "x^2-1": UnivariatePoly((1, 0, -1)),
    "x^2+1": UnivariatePoly((1, 0, 1)),
    "x^2-2": UnivariatePoly((1, 0, -2)),
    "2x^2-1": UnivariatePoly((2, 0, -1)),
    "x^3-2": UnivariatePoly((1, 0, 0, -2)),
    "x^3-3x^2+2x": UnivariatePoly((1, -3, 2, 0)),
    "x^4-1": UnivariatePoly((1, 0, 0, 0, -1)),
}
