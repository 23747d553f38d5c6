"""Explicit representation search and the cell-classification harness.

The opposite side of the certificate coin: certificates prove a cell has no
representation, this module finds representations (or proves their absence
by exhaustive enumeration where a rigorous enumeration bound exists) and
runs the (n, m)-grid search that assigns every cell exactly one status.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import hashlib
import itertools
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

from . import arith, valuation
from .arith import DEFAULT_RHO_STEPS
from .certify import (
    DEFAULT_PRIME_BUDGET,
    Certificate,
    Equation,
    certify_cell,
    cofactor_factorization,
    left_is_zero,
    left_value,
)
from .forms import (
    BinaryForm,
    UnivariatePoly,
    _degree,
    _derivative,
    _eval_int,
    _trim,
    is_positive_definite,
    quadratic_discriminant,
)

DEFAULT_BALL_CAP = 2_000_000
# Radius of the general-form search when no rigorous solution bound fits
# inside ball_cap: it bounds how many x-slices an UNKNOWN cell costs, and
# changing it changes which cells find a witness, so outputs depend on it.
GENERAL_ENUM_CAP = 10_000


# ---------------------------------------------------------------------------
# Exact univariate solving
# ---------------------------------------------------------------------------


def _nth_root_floor(x: int, d: int) -> int:
    """floor(x ** (1/d)) for x >= 0, exact integer Newton iteration."""
    if x < 0 or d < 1:
        raise ValueError("need x >= 0 and d >= 1")
    if x == 0:
        return 0
    if d == 1:
        return x
    r = 1 << ((x.bit_length() + d - 1) // d)
    while True:
        nr = ((d - 1) * r + x // r ** (d - 1)) // d
        if nr >= r:
            return r
        r = nr


def _probe_point(lo: int, hi: int) -> int:
    """Strictly interior probe; geometric for brackets spanning many octaves.

    Roots of factorial-sized targets sit at half the bit length of the Cauchy
    bound, so arithmetic midpoints would burn thousands of big-integer
    evaluations before reaching them; bisecting the bit length instead gets
    within a factor of two in O(log bits) probes.
    """
    if lo >= 0 and hi.bit_length() - lo.bit_length() >= 2:
        mid = 1 << ((lo.bit_length() + hi.bit_length()) // 2)
    elif hi <= 0 and (-lo).bit_length() - (-hi).bit_length() >= 2:
        mid = -(1 << (((-hi).bit_length() + (-lo).bit_length()) // 2))
    elif lo < 0 < hi:
        mid = 0
    else:
        mid = (lo + hi) // 2
    return mid if lo < mid < hi else (lo + hi) // 2


def _real_root_floors(coeffs: Sequence[int]) -> list[int]:
    """Integers covering every real root: each root r has floor(r) in the list.

    May contain extra values (floors of critical points); callers test
    candidates exactly.  Recursion depth equals the degree: monotone pieces
    between derivative roots admit integer bisection, and any interval [c,
    c+1] holding a critical point is reported wholesale, which also covers
    double roots and same-sign root pairs.  Probes interleave Newton steps
    with bisection: the bracket shrinks on sign tests alone, so a bad Newton
    guess costs one evaluation, never correctness.
    """
    coeffs = _trim(tuple(coeffs))
    d = _degree(coeffs)
    if d <= 0:
        return []
    if d == 1:
        a, b = coeffs
        return [(-b) // a]
    lead = abs(coeffs[0])
    bound = 2 + max(abs(c) for c in coeffs[1:]) // lead
    deriv = _derivative(coeffs)
    crit = _real_root_floors(deriv)
    out = set(crit)
    breaks = sorted(
        {max(-bound, min(bound, p)) for c in crit for p in (c, c + 1)}
        | {-bound, bound}
    )
    values = [_eval_int(coeffs, b) for b in breaks]
    for i in range(len(breaks) - 1):
        lo, hi = breaks[i], breaks[i + 1]
        flo, fhi = values[i], values[i + 1]
        if flo == 0:
            out.add(lo)
        if fhi == 0:
            out.add(hi)
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            continue
        guess = None
        take_guess = False
        while hi - lo > 1:
            take_guess = not take_guess
            chained = take_guess and guess is not None and lo < guess < hi
            if chained:
                mid = guess
                guess = None
            else:
                mid = _probe_point(lo, hi)
            fm = _eval_int(coeffs, mid)
            if fm == 0:
                out.add(mid)
                break
            if chained:
                # Newton iterates land beside the root within a few steps;
                # one neighbor evaluation then closes the cell exactly
                if (fm > 0) == (flo > 0):
                    fn = _eval_int(coeffs, mid + 1)
                    if fn == 0 or (fn > 0) != (flo > 0):
                        out.add(mid)
                        break
                    lo = mid + 1
                else:
                    fn = _eval_int(coeffs, mid - 1)
                    if fn == 0 or (fn > 0) == (flo > 0):
                        out.add(mid - 1)
                        break
                    hi = mid - 1
            elif (fm > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
            if guess is None:
                fpm = _eval_int(deriv, mid)
                if fpm != 0:
                    step = fm // fpm
                    if step != 0 and lo < mid - step < hi:
                        guess = mid - step
        else:
            out.add(lo)
    return sorted(out)


# Modulus of the power-residue reject in integer_root: 16 * 9 * 7 * 13.  Each
# prime power has few d-th power residues for small d (squares and cubes
# both pass about 3.4% of residues), and the table stays small.
_RESIDUE_MODULUS = 13104


@functools.cache
def _power_residues(d: int) -> bytes:
    """Byte r is 1 exactly when r is a d-th power modulo _RESIDUE_MODULUS."""
    table = bytearray(_RESIDUE_MODULUS)
    for x in range(_RESIDUE_MODULUS):
        table[pow(x, d, _RESIDUE_MODULUS)] = 1
    return bytes(table)


def integer_root(f: UnivariatePoly, target: int) -> list[int]:
    """All integers x with f(x) == target, sorted ascending.  Complete.

    A binomial g = f - target = c*x^d + e (every coefficient strictly between
    the leading and the constant one zero, so every linear g) is answered in
    closed form: x^d = -e/c has an integer root only if c divides e and
    |e/c| is a perfect d-th power.  A |e/c| whose residue modulo
    _RESIDUE_MODULUS is no d-th power residue is rejected before the
    exact root is taken.  Any other polynomial goes through real root
    isolation (_real_root_floors) and an exact test of each candidate.
    """
    coeffs = f.coeffs
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("need degree >= 1")
    if not any(coeffs[1:-1]):
        c, e = coeffs[0], coeffs[-1] - target
        if e % c:
            return []
        t = -e // c
        if t < 0 and d % 2 == 0:
            return []
        a = abs(t)
        if not _power_residues(d)[a % _RESIDUE_MODULUS]:
            return []
        r = _nth_root_floor(a, d)
        if r**d != a:
            return []
        if t == 0:
            return [0]
        return [-r, r] if d % 2 == 0 else [r if t > 0 else -r]
    g = coeffs[:-1] + (coeffs[-1] - target,)
    candidates = _real_root_floors(g)
    return sorted(
        {k for c in candidates for k in (c, c + 1) if _eval_int(g, k) == 0}
    )


# ---------------------------------------------------------------------------
# Binary form representation
# ---------------------------------------------------------------------------


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p not dividing a (Tonelli-Shanks)."""
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_mod_prime_power(d: int, p: int, k: int) -> list[int]:
    """Every r in [0, p^k) with r^2 = d (mod p^k)."""
    if k == 0:
        return [0]
    pk = p**k
    if p % 2 and d % p:
        # a root mod p lifts uniquely (Hensel), doubling the precision per step
        r = _sqrt_mod_prime(d % p, p)
        if r is None:
            return []
        mod = p
        while mod < pk:
            mod = min(mod * mod, pk)
            r = (r - (r * r - d) * pow(2 * r, -1, mod)) % mod
        return sorted({r, pk - r})
    # p divides 2d, so p is small: lift one digit at a time
    roots, mod = [0], 1
    for _ in range(k):
        step = mod * p
        roots = [
            s for r in roots for s in range(r, step, mod) if (s * s - d) % step == 0
        ]
        mod = step
    return roots


def _reduce_definite(
    form: tuple[int, int, int]
) -> tuple[tuple[int, int, int], tuple[int, int, int, int]]:
    """The reduced form properly equivalent to a positive definite (a, b, c).

    Also returns M = (m11, m12, m21, m22) in SL2(Z) with f(m11*x + m12*y,
    m21*x + m22*y) equal to the reduced form: |b| <= a <= c, and b >= 0 when
    |b| == a or a == c.  The reduced form is unique in its proper class.
    """
    a, b, c = form
    m11, m12, m21, m22 = 1, 0, 0, 1
    while True:
        t = (a - b) // (2 * a)  # x -> x + t*y brings b into (-a, a]
        if t:
            c += (a * t + b) * t
            b += 2 * a * t
            m12 += m11 * t
            m22 += m21 * t
        if a < c or (a == c and b >= 0):
            return (a, b, c), (m11, m12, m21, m22)
        a, b, c = c, -b, a  # (x, y) -> (-y, x)
        m11, m12, m21, m22 = m12, -m11, m22, -m21


def _automorphs(a: int, b: int, c: int) -> list[tuple[int, int, int, int]]:
    """Proper automorphs of a positive definite form: 2, or 4 (D = -4), or 6 (D = -3).

    They are ((t - bu)/2, -cu; au, (t + bu)/2) over t^2 - D*u^2 = 4, which
    forces |u| <= 1 since D <= -3.
    """
    d = b * b - 4 * a * c
    out = []
    for u in (-1, 0, 1):
        t2 = 4 + d * u * u
        if t2 < 0 or math.isqrt(t2) ** 2 != t2:
            continue
        for t in {math.isqrt(t2), -math.isqrt(t2)}:
            out.append(((t - b * u) // 2, -c * u, a * u, (t + b * u) // 2))
    return out


def _split_ideal_count(form: BinaryForm, exponents: dict[int, int]) -> int:
    """Ideals of norm N of the form's order: prod of (e+1) over p with (D/p) = 1.

    D is the discriminant of the primitive part and N = prod p^e.  The count
    bounds the square roots of D that definite_representations tries.
    """
    k = form.content()
    d = quadratic_discriminant(form) // (k * k)
    count = 1
    for p, e in exponents.items():
        split = d % 8 == 1 if p == 2 else d % p and pow(d, (p - 1) // 2, p) == 1
        if split:
            count *= e + 1
    return count


def definite_representations(
    form: BinaryForm, target: int, exponents: dict[int, int]
) -> list[tuple[int, int]]:
    """Every (x, y) with f(x, y) = target > 0, sorted; exponents factor target.

    A solution with gcd(x, y) = g is g times a primitive representation of
    N = target/g^2 (content divided out).  Those come from the roots B mod 2N
    of B^2 = D (mod 4N): when (N, B, (B^2-D)/4N) reduces to the same form as
    f, both reduction matrices give one representation, and f's automorphs
    give the rest (Cohen, A Course in Computational Algebraic Number Theory,
    5.2; Buell, Binary Quadratic Forms).  Roots are built prime by prime and
    joined by CRT; a prime with no root at some exponent of N/g^2 prunes every
    g with that exponent, which is how inert primes of odd exponent end the
    search at once.  Works for any class number.
    """
    if not is_positive_definite(form):
        raise ValueError("needs a positive definite quadratic form")
    if target < 1:
        raise ValueError("need a positive target")
    k = form.content()
    if target % k:
        return []
    n = target // k
    a, b, c = (co // k for co in form.coeffs)
    exps = dict(exponents)
    for p, e in arith.factor(k).items():
        exps[p] -= e
    d = b * b - 4 * a * c
    reduced, (t11, t12, t21, t22) = _reduce_definite((a, b, c))
    choices = []  # per prime: (p^j, modulus, roots of B) for each j with a root
    for p in sorted(set(exps) | {2}):
        e = exps.get(p, 0)
        opts = []
        for j in range(e // 2 + 1):
            # B^2 = D (mod 4N) depends only on B mod 2N
            k2 = e - 2 * j + (2 if p == 2 else 0)
            mod = p**k2 // (2 if p == 2 else 1)
            roots = sorted({r % mod for r in _sqrt_mod_prime_power(d, p, k2)})
            if roots:
                opts.append((p**j, mod, roots))
        if not opts:
            return []
        choices.append(opts)
    autos = _automorphs(a, b, c)
    out = set()
    for pick in itertools.product(*choices):
        g = math.prod(gp for gp, _, _ in pick)
        n1 = n // (g * g)
        residues, mod = [0], 1
        for _, mp, roots in pick:
            inv = pow(mod, -1, mp)
            residues = [
                r + mod * ((s - r) * inv % mp) for r in residues for s in roots
            ]
            mod *= mp
        for root in residues:
            red, (_, _, s21, s22) = _reduce_definite(
                (n1, root, (root * root - d) // (4 * n1))
            )
            if red != reduced:
                continue
            # f composed with T * S^-1 is (n1, root, .), so the first column
            # of T * S^-1, T * (s22, -s21), represents n1
            x, y = t11 * s22 - t12 * s21, t21 * s22 - t22 * s21
            for u11, u12, u21, u22 in autos:
                out.add((g * (u11 * x + u12 * y), g * (u21 * x + u22 * y)))
    return sorted(out)


def represent_definite_quadratic(
    form: BinaryForm, target: int, exponents: dict[int, int] | None = None
) -> tuple[int, int] | None:
    """The largest (x, y) with x >= 0 and f(x, y) = target, or None if none exists.

    "Largest" is lexicographic: the largest x, then the larger y.  Answers
    come from definite_representations, so exponents must be the prime
    factorization of target; without it, target is factored with arith.factor.
    """
    if not is_positive_definite(form):
        raise ValueError("needs a positive definite quadratic form")
    if target < 0:
        raise ValueError("a positive definite form cannot represent a negative")
    if target == 0:
        return (0, 0)
    if exponents is None:
        exponents = arith.factor(target)
    sols = definite_representations(form, target, exponents)
    return max((s for s in sols if s[0] >= 0), default=None)


def _definite_quadratic_floor(g: BinaryForm) -> Fraction:
    """lam with |g(x,y)| >= lam * (x^2 + y^2) for a definite quadratic g."""
    a, b, c = g.coeffs
    return Fraction(abs(b * b - 4 * a * c), 8 * max(abs(a), abs(c)))


def solution_sup_bound(form: BinaryForm, target: int) -> int | None:
    """Rigorous cap on max(|x|,|y|) over all solutions of f(x,y) = target.

    Available when every irreducible factor is linear or a definite
    quadratic: linear factors contribute |L| >= 1 away from their zero line
    (where f = 0 != target), definite quadratics contribute lam*(x^2+y^2).
    None when no such bound exists (indefinite or unknown factorization).
    """
    if target == 0:
        return None
    if is_positive_definite(form):
        a, b, c = form.coeffs
        return math.isqrt(4 * max(a, c) * abs(target) // (4 * a * c - b * b)) + 1
    work = form
    if work.factors is None and work.degree <= 4:
        work = work.with_found_factors()
    if work.factors is None:
        return None
    lam = Fraction(abs(work.factor_constant))
    d_def = 0
    for g, e in work.factors:
        if g.degree == 1:
            continue
        if g.degree == 2 and quadratic_discriminant(g) < 0:
            lam *= _definite_quadratic_floor(g) ** e
            d_def += 2 * e
            continue
        return None
    if d_def == 0:
        return None
    cap = Fraction(abs(target)) / lam
    return _nth_root_floor(cap.numerator // cap.denominator + 1, d_def) + 1


def represent_general_form(
    form: BinaryForm, target: int, ball: int
) -> tuple[int, int] | None:
    """A solution of f(x,y) = target with |x| <= ball, or None if there is none.

    Slices go x = 0, 1, -1, 2, -2, ... and every slice f(sx, y) of degree at
    least 1 is solved completely by one integer_root call, so a hit can
    report y beyond the ball.  A diagonal form c0*x^d + cd*y^d (cd nonzero)
    builds its y-polynomial cd*y^d once and moves only the target, to
    target - c0*sx^d; any other form builds f(sx, y) per slice.  None says
    nothing about solutions with |x| > ball.
    """
    if ball < 1:
        raise ValueError("ball must be positive")
    if target == 0:
        return (0, 0)
    coeffs = form.coeffs
    d = len(coeffs) - 1
    diagonal = coeffs[-1] and not any(coeffs[1:-1])
    if diagonal:
        poly = UnivariatePoly((coeffs[-1],) + (0,) * d)
    # f(sx, y) as a univariate in y, descending: the y^i coefficient is
    # form.coeffs[i] * sx^(d - i), so walk from the y^d end
    from_y_end = coeffs[::-1]
    trim = from_y_end[0] == 0
    for x in range(0, ball + 1):
        for sx in ((x,) if x == 0 else (x, -x)):
            if diagonal:
                roots = integer_root(poly, target - coeffs[0] * sx**d)
            else:
                sliced = []
                power = 1
                for c in from_y_end:
                    sliced.append(c * power)
                    power *= sx
                sliced = _trim(sliced) if trim else tuple(sliced)
                if len(sliced) < 2:
                    if sliced and sliced[0] == target:
                        return (sx, 0)
                    continue
                roots = integer_root(UnivariatePoly(sliced), target)
            if roots:
                y = min(roots, key=lambda r: (abs(r), r < 0))
                return (sx, y)
    return None


# ---------------------------------------------------------------------------
# The search harness
# ---------------------------------------------------------------------------


class CellStatus(enum.Enum):
    SOLUTION = "SOLUTION"
    CERTIFIED = "CERTIFIED"
    NONE_EXHAUSTIVE = "NONE_EXHAUSTIVE"
    DEGENERATE = "DEGENERATE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class CellResult:
    cell: tuple[int, ...]
    status: CellStatus
    witness: tuple[int, ...] | None = None
    certificate: Certificate | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "cell": list(self.cell),
            "status": self.status.value,
            "witness": None if self.witness is None else list(self.witness),
            "certificate": None
            if self.certificate is None
            else self.certificate.to_dict(),
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        cert = data.get("certificate")
        wit = data.get("witness")
        return cls(
            cell=tuple(int(c) for c in data["cell"]),
            status=CellStatus(data["status"]),
            witness=None if wit is None else tuple(int(w) for w in wit),
            certificate=None if cert is None else Certificate.from_dict(cert),
            note=data.get("note", ""),
        )


@dataclass(frozen=True)
class SearchTask:
    """One classification run: equation, cell ranges, and work budgets.

    Sum families walk cells (n, m) with m_min <= m < n <= n_max (plus the
    diagonal when include_diagonal is set, where the equation reduces to the
    (a+b)*n! family).  single_factorial walks (n,) cells solving n! =
    poly(x) exactly.  Product families walk multisets bounded by
    prod_bounds.  Budgets: prime_budget and rho_steps feed the certifier
    (rho_steps also bounds the factoring a definite quadratic solve uses;
    the certifier stops factoring at the first prime that certifies),
    ball_cap limits enumeration radii and the ideals a definite solve tries.
    checkpoint_path names a JSON-lines file that gets one line per cell as
    the cell completes; rerunning the same task with it resumes where the
    file ends (see run_search).  An option the chosen walk does not
    use must keep its default: the CLI hashes every option it is given, so
    ignoring one would give equal results different hashes.
    """

    equation: Equation
    n_max: int | None = None
    m_min: int = 1
    m_max: int | None = None
    prod_bounds: tuple[int, ...] | None = None
    single_factorial: bool = False
    include_diagonal: bool = False
    prime_budget: int = DEFAULT_PRIME_BUDGET
    ball_cap: int = DEFAULT_BALL_CAP
    rho_steps: int = DEFAULT_RHO_STEPS
    checkpoint_path: str | None = None
    range_override: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.prime_budget < 1 or self.ball_cap < 1:
            raise ValueError("budgets must be positive")
        if self.rho_steps < 0:
            raise ValueError("rho_steps must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        eq = self.equation
        if eq.is_sum:
            if self.n_max is None or self.n_max < 1:
                raise ValueError("sum families need a positive n_max")
            if self.m_min < 0:
                raise ValueError("m_min must be nonnegative")
            if self.m_max is not None and self.m_max < self.m_min:
                raise ValueError("m_max must be at least m_min")
            if self.single_factorial and eq.family.is_binary:
                raise ValueError("single-factorial mode needs a univariate target")
            unread = {"prod_bounds", "range_override"}
            if self.single_factorial:
                unread |= {"m_min", "m_max", "include_diagonal"}
        else:
            if self.prod_bounds is None or not self.prod_bounds:
                raise ValueError("product families need prod_bounds")
            if any(b < 0 for b in self.prod_bounds):
                raise ValueError("prod_bounds entries must be nonnegative")
            unread = {"n_max", "m_min", "m_max", "include_diagonal", "single_factorial"}
            r = len(self.prod_bounds)
            if (
                r >= 2
                and not eq.family.is_binary
                and eq.target.degree <= r
                and not self.range_override
            ):
                raise ValueError(
                    "univariate degree <= number of double-factorial arguments "
                    "usually has infinitely many solutions; pass "
                    "range_override=True to search the range anyway"
                )
        moved = [f.name for f in fields(self)
                 if f.name in unread and getattr(self, f.name) != f.default]
        if moved:
            raise ValueError(
                f"this search does not use {', '.join(moved)}; leave each at its default"
            )

    def fingerprint(self) -> str:
        eq = self.equation
        target = eq.target
        desc = {
            "family": eq.family.value,
            "a": eq.a,
            "b": eq.b,
            "coeffs": list(target.coeffs),
            "scaling": eq.scaling,
            "irreducible_declared": isinstance(target, BinaryForm)
            and target.irreducible_declared,
            "factors": None
            if not isinstance(target, BinaryForm) or target.factors is None
            else [[list(g.coeffs), e] for g, e in target.factors],
            "n_max": self.n_max,
            "m_min": self.m_min,
            "m_max": self.m_max,
            "prod_bounds": None if self.prod_bounds is None else list(self.prod_bounds),
            "single_factorial": self.single_factorial,
            "include_diagonal": self.include_diagonal,
            "prime_budget": self.prime_budget,
            "ball_cap": self.ball_cap,
            "rho_steps": self.rho_steps,
        }
        blob = json.dumps(desc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def cells(self) -> list[tuple[int, ...]]:
        eq = self.equation
        if not eq.is_sum:
            ranges = [range(0, b + 1) for b in self.prod_bounds]
            seen = {tuple(sorted(t, reverse=True)) for t in itertools.product(*ranges)}
            return sorted(seen, key=lambda t: (sum(t), t))
        if self.single_factorial:
            return [(n,) for n in range(1, self.n_max + 1)]
        out = []
        for n in range(self.m_min + 1, self.n_max + 1):
            top = n - 1 if self.m_max is None else min(self.m_max, n - 1)
            for m in range(self.m_min, top + 1):
                out.append((n, m))
        if self.include_diagonal:
            lo = max(self.m_min, 0)
            hi = self.n_max if self.m_max is None else min(self.m_max, self.n_max)
            out.extend((n, n) for n in range(lo, hi + 1))
        return sorted(out, key=lambda t: (sum(t), t))


@dataclass(frozen=True)
class SearchReport:
    task_hash: str
    results: tuple[CellResult, ...]
    totals: dict

    @property
    def solutions(self) -> list[CellResult]:
        return [r for r in self.results if r.status is CellStatus.SOLUTION]


def _solve_exact(
    eq: Equation,
    target_value: int,
    ball_cap: int,
    factorization: tuple[dict[int, int], list[int]] | None = None,
) -> tuple[CellStatus, tuple[int, ...] | None, str]:
    """(status, witness, note) for one left-side value, certificates aside.

    factorization is (prime exponents, unfactored pieces) of |target_value|,
    used for positive definite quadratics; without it arith.factor runs.
    """
    target = eq.target
    if isinstance(target, UnivariatePoly):
        roots = integer_root(target, target_value)
        if roots:
            x = min(roots, key=lambda r: (abs(r), r < 0))
            return CellStatus.SOLUTION, (x,), ""
        return CellStatus.NONE_EXHAUSTIVE, None, "exact_univariate"
    if is_positive_definite(target):
        if target_value < 0:
            return CellStatus.NONE_EXHAUSTIVE, None, "sign_mismatch"
        if factorization is None:
            factorization = (arith.factor(target_value), [])
        exponents, leftovers = factorization
        if leftovers:
            return CellStatus.UNKNOWN, None, "unfactored"
        if _split_ideal_count(target, exponents) > ball_cap:
            return CellStatus.UNKNOWN, None, "enumeration_bound_exceeds_cap"
        pair = represent_definite_quadratic(target, target_value, exponents)
        if pair is not None:
            return CellStatus.SOLUTION, pair, ""
        return CellStatus.NONE_EXHAUSTIVE, None, "exhaustive_by_factorization"
    if target_value % target.content():
        # content divides every represented value
        return CellStatus.NONE_EXHAUSTIVE, None, "exhaustive_in_bound"
    sup = solution_sup_bound(target, target_value)
    exhaustive = sup is not None and sup <= ball_cap
    ball = sup if exhaustive else min(ball_cap, GENERAL_ENUM_CAP)
    pair = represent_general_form(target, target_value, ball)
    if pair is not None:
        return CellStatus.SOLUTION, pair, ""
    if exhaustive:
        return CellStatus.NONE_EXHAUSTIVE, None, "exhaustive_in_bound"
    return CellStatus.UNKNOWN, None, "ball_exhausted"


def _left_factorization(task: SearchTask, cell) -> tuple[dict[int, int], list[int]]:
    """(prime exponents, unfactored pieces) of |left side| at a binary-form cell.

    Factorials and double factorials factor by Legendre.  An off-diagonal sum
    cell's left side is m! * C, and C's budgeted factorization comes from the
    certifier's cache, so rho runs once per cell, under the same rho_steps
    and RHO_COFACTOR_GAP_LIMIT.
    """
    eq = task.equation
    exps: Counter = Counter()
    leftovers: list[int] = []
    if not eq.is_sum:
        exps.update(arith.factor(eq.b))
        for c in cell:
            exps.update(valuation.double_factorial_sketch(c))
    elif cell[0] == cell[1]:
        exps.update(arith.factor(eq.a + eq.b))
        exps.update(valuation.factorial_sketch(cell[0]))
    else:
        n, m = cell
        cofactor_exps, leftovers = cofactor_factorization(eq, n, m, task.rho_steps)
        exps.update(cofactor_exps)
        exps.update(valuation.factorial_sketch(m))
    return dict(exps), leftovers


def _solve_cell(task: SearchTask, cell, value: int, note: str) -> CellResult:
    """Exact solving of one left-side value; a witness is re-evaluated."""
    target = task.equation.target
    factorization = None
    if isinstance(target, BinaryForm) and is_positive_definite(target):
        factorization = _left_factorization(task, cell)
    status, witness, solve_note = _solve_exact(
        task.equation, value, task.ball_cap, factorization
    )
    if witness is not None and task.equation.target.evaluate(*witness) != value:
        raise AssertionError(
            f"witness {witness} fails direct evaluation at cell {cell}"
        )
    note = f"{note} {solve_note}".strip()
    return CellResult(cell, status, witness=witness, note=note)


def classify_cell(task: SearchTask, cell: tuple[int, ...]) -> CellResult:
    """Assign one status to one cell.  Statuses are mutually exclusive.

    Order: degenerate screens, then the certifier (a certificate is cheaper
    than a solve and proves more), then exact solving.  For a positive
    definite quadratic target the solve lists every representation from the
    left side's factorization: a witness gives SOLUTION, none gives
    NONE_EXHAUSTIVE (exhaustive_by_factorization), and a factorization the
    rho budget left incomplete gives UNKNOWN (unfactored).  The cross-check
    re-solves certified cells where that is cheap and insists on no
    solution; a violation is a soundness bug, so it raises.
    """
    eq = task.equation

    if task.single_factorial:
        return _solve_cell(task, cell, math.factorial(cell[0]), "")

    if eq.is_sum and cell[0] == cell[1]:
        if eq.a + eq.b == 0:
            return CellResult(
                cell, CellStatus.DEGENERATE, note="identically_zero_family"
            )
        value = (eq.a + eq.b) * math.factorial(cell[0])
        return _solve_cell(task, cell, value, "diagonal_reduced")

    if left_is_zero(eq, cell):
        return CellResult(cell, CellStatus.DEGENERATE, note="zero_left_side")

    cert = certify_cell(
        eq,
        cell,
        prime_budget=task.prime_budget,
        rho_steps=task.rho_steps,
    )
    if cert is not None:
        _cross_check_certificate(task, eq, cell)
        return CellResult(cell, CellStatus.CERTIFIED, certificate=cert)

    return _solve_cell(task, cell, left_value(eq, cell), "")


def _cross_check_certificate(task: SearchTask, eq: Equation, cell) -> None:
    """Assert no solution exists where checking is cheap; soundness guard.

    The check is end to end: it factors the left side N afresh (arith.factor)
    and solves exactly, using none of the certifier's obstruction or
    valuation code.  A positive definite quadratic is checked only while
    sqrt(4cN/|D|) stays within ball_cap, so N stays small enough to factor
    quickly; a large certified cofactor was never factored, and factoring it
    just for the check would cost far more than the certificate did.  Other
    binary forms are skipped: they have no such solve.
    """
    target = eq.target
    if isinstance(target, BinaryForm) and not is_positive_definite(target):
        return
    value = left_value(eq, cell)
    if isinstance(target, BinaryForm):
        a, b, c = target.coeffs
        x_bound = math.isqrt(4 * c * max(value, 0) // (4 * a * c - b * b)) + 1
        if x_bound > task.ball_cap:
            return
    status, _, _ = _solve_exact(eq, value, task.ball_cap)
    if status is CellStatus.SOLUTION:
        raise AssertionError(
            f"certified cell {cell} has a solution: certificate unsound"
        )


# First line of a checkpoint; every further line is one CellResult.
CHECKPOINT_FORMAT = "factcert-checkpoint-jsonl-1"


def _open_checkpoint(path: str, task_hash: str) -> list[CellResult]:
    """Results already stored at path, creating it (header only) if missing.

    A missing parent directory is created, as search's output directory is.

    A torn last line (no newline: the writer died mid-append) is dropped and
    cut from the file, so the next append starts on a line boundary.
    """
    if not os.path.exists(path):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        header = {"format": CHECKPOINT_FORMAT, "task_hash": task_hash}
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
        os.replace(tmp, path)
        return []
    with open(path, "rb") as fh:
        data = fh.read()
    complete = data.rfind(b"\n") + 1
    lines = data[:complete].splitlines()
    try:
        header = json.loads(lines[0]) if lines else None
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"{path} is not a JSON-lines checkpoint (single-object checkpoints "
            "of earlier versions are not read); delete it to start over"
        )
    if header.get("task_hash") != task_hash:
        raise ValueError(
            f"checkpoint {path} belongs to a different task (hash mismatch); "
            "delete it or point the task elsewhere"
        )
    results = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            results.append(CellResult.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"{path} line {number} is not a cell result ({exc!r}); "
                "delete the file to start over"
            ) from None
    if complete < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(complete)
    return results


@contextlib.contextmanager
def _pool_map(workers: int, classify, cells: list):
    """Ordered results of classify over cells from spawned worker processes."""
    import multiprocessing
    import signal
    import threading
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # classify_cell is pure, so worker processes need only the task.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        # Ctrl-C signals the whole process group, and only the parent should
        # report it.  map submits every batch, so it spawns every worker, and
        # a worker spawned while SIGINT is ignored ignores it from its first
        # instruction on (an initializer would leave its start-up exposed).
        # Only the main thread may set handlers, and only it gets Ctrl-C.
        main = threading.current_thread() is threading.main_thread()
        if main:
            previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            # Batches of 10 cells halve the parent's dispatch cost and, on
            # x2+y2 grids, balance the load as well as single cells.
            results = pool.map(classify, cells, chunksize=10)
        finally:
            if main:
                signal.signal(signal.SIGINT, previous)
        yield results
    except BrokenProcessPool as exc:
        raise RuntimeError(
            "a search worker process died; with workers > 1 a "
            "calling script needs an if __name__ == '__main__': guard"
        ) from exc
    finally:
        # Every cell is queued at once: drop the ones not yet started, or an
        # error or Ctrl-C would wait for the rest of the grid.
        pool.shutdown(cancel_futures=True)


def run_search(task: SearchTask) -> SearchReport:
    """Classify every cell in the task's range; resumable and deterministic.

    Results are produced in ascending (sum, cell) order regardless of worker
    count.  workers > 1 runs cells in spawned processes, which re-import the
    caller's main module: a calling script needs a __main__ guard.  With a
    checkpoint path, each cell's result is appended to a JSON-lines file as
    soon as it arrives in order, so a killed run loses only the cells in
    flight, and a rerun resumes after the last complete line.
    """
    task_hash = task.fingerprint()
    cells = task.cells()
    done: list[CellResult] = []
    if task.checkpoint_path:
        done = _open_checkpoint(task.checkpoint_path, task_hash)
        for have, want in zip(done, cells):
            if have.cell != want:
                raise ValueError("checkpoint cell order does not match the task")
        if len(done) > len(cells):
            raise ValueError("checkpoint covers more cells than the task")

    # classify_cell is looked up per run, so a replaced module attribute counts.
    classify = functools.partial(classify_cell, task)
    todo = cells[len(done) :]
    if task.workers > 1:
        classified = _pool_map(task.workers, classify, todo)
    else:
        classified = contextlib.nullcontext(map(classify, todo))
    checkpoint = contextlib.nullcontext()
    if task.checkpoint_path:
        checkpoint = open(task.checkpoint_path, "a", encoding="utf-8")
    with checkpoint as out, classified as results:
        for result in results:
            done.append(result)
            if out is not None:
                out.write(json.dumps(result.to_dict()) + "\n")
                out.flush()

    totals = {status.value: 0 for status in CellStatus}
    for r in done:
        totals[r.status.value] += 1
    return SearchReport(
        task_hash=task_hash,
        results=tuple(done),
        totals=totals,
    )
