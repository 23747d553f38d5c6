"""Explicit numeric bounds for the odd-double-factorial finiteness arguments.

Three layers. Stirling crossings locate the last index where a linear
logarithmic envelope still dominates (2m+1)^(2m+1)/m^m, so a bound of the
shape log((2m+1)!!) < A'm + C' yields a concrete largest m. The radical layer
compares prime-product growth theta(2m+1) against the (2m+1)*log4 envelope.
The conditional pipeline turns a degree-d integer target plus an ABC-style
hypothesis (K(eps), eps) into an explicit (m_max, z_max) pair, every constant
carrying provenance and a conditional flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# mpmath is imported inside the functions that use it (here and in
# arith.log_primorial / primorial_bound_check): search, certify, recheck,
# obstruct-scan and reproduce never need it, and loading it adds about 30 ms
# and 4 MB to every fresh process.
from . import arith
from .forms import UnivariatePoly, depress, distinct_root_count, sandwich_threshold
from .valuation import logfact

STIRLING_SCAN_CAP = 10**9
FRONTIER_SLICE_CAP = 200_000
_PRECISION_BITS = 113
_DECISION_TOL = 1e-25  # far above 113-bit noise, far below any real margin

LN2 = math.log(2)
LN4 = math.log(4)
_DECIMAL_PRINT_LOG = 40 * math.log(10)


class BoundScanError(RuntimeError):
    """A scan hit its hard cap; the coefficients cannot be consistent."""


class MonomialTargetError(ValueError):
    """Depressed target is a pure d-th power, so the pipeline does not apply.

    The equation then forces c*(2m+1)! = 2^m m! x^d, and any prime in
    ((2m+1)/2, 2m+1] divides the left side exactly once when m exceeds twice
    the scaling constant, while the right side needs a multiple of d. That
    route belongs to the valuation certifier; this error carries the handoff.
    """

    def __init__(self, scaling_constant: int):
        self.scaling_constant = scaling_constant
        self.certifier_threshold = 2 * abs(scaling_constant)
        super().__init__(
            "depressed target is a pure power; a window prime divides the odd "
            f"factorial block exactly once for every m > {self.certifier_threshold}, "
            "so valuation certificates settle this family"
        )


# ---------------------------------------------------------------------------
# Stirling crossings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StirlingInequality:
    """(2m+1)^(2m+1)/m^m < E'*e^(A'm), or the two-index product version.

    With b unset it compares S(m) = (2m+1)log(2m+1) - m log m against
    A'm + C' + log E'. With b set it compares S(n1) + S(m1) against
    A'n1 + B'm1 + C' + log E': the B' slope belongs to the second index only.
    C' is an optional additive intercept kept in log space.
    """

    a: float
    b: float | None = None
    c: float | None = None
    e: float = 1.0

    def __post_init__(self):
        for name in ("a", "b", "c", "e"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ValueError(f"coefficient {name}' must be positive")

    def intercept_log(self) -> float:
        return (self.c or 0.0) + math.log(self.e)


def _s_log(t: int) -> mpmath.mpf:
    # caller must hold a workprec context
    import mpmath
    if t == 0:
        return mpmath.mpf(0)
    tt = mpmath.mpf(t)
    return (2 * tt + 1) * mpmath.log(2 * tt + 1) - tt * mpmath.log(tt)


def stirling_margin(ineq: StirlingInequality, *indices: int) -> float:
    """RHS log minus LHS log at the given indices; positive means satisfied."""
    import mpmath
    with mpmath.workprec(_PRECISION_BITS):
        if ineq.b is None:
            (m,) = indices
            lhs = _s_log(m)
            rhs = mpmath.mpf(ineq.a) * m + mpmath.mpf(ineq.intercept_log())
        else:
            n1, m1 = indices
            lhs = _s_log(n1) + _s_log(m1)
            rhs = (
                mpmath.mpf(ineq.a) * n1
                + mpmath.mpf(ineq.b) * m1
                + mpmath.mpf(ineq.intercept_log())
            )
        return float(rhs - lhs)


def _last_true(pred, lo: int, cap: int) -> int:
    """Largest k in [lo, cap] with pred(k), for pred true at lo and then false.

    Steps of 1, 2, 4, ... from lo (the last one clamped to cap) find a false
    probe, and bisection closes in on the crossing; returns cap when pred
    holds there.
    """
    step = 1
    while True:
        hi = min(lo + step, cap)
        if not pred(hi):
            break
        if hi == cap:
            return cap
        lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _single_h(slope: float, ln_e: float, shift: float = 0.0):
    """h(m) = S(m) - slope*m + shift - ln_e; h < 0 means the inequality holds at m.

    h''(m) = (2m-1)/(m(2m+1)) > 0 for m >= 1, so h is strictly convex and the
    satisfied set is a single integer interval. That is what lets the scans
    below certify permanence of failure.
    """
    import mpmath

    def h(m: int) -> float:
        with mpmath.workprec(_PRECISION_BITS):
            return float(
                _s_log(m) - mpmath.mpf(slope) * m + mpmath.mpf(shift) - mpmath.mpf(ln_e)
            )

    def hp(m: int) -> float:
        return 2 * math.log(2 * m + 1) - math.log(m) + 1 - slope

    return h, hp


def _minimiser(h, hp) -> int | None:
    """Integer minimiser of the convex h; None while h descends at the scan cap."""
    if hp(1) >= 0:
        return 1
    k = _last_true(lambda m: hp(m) < 0, 1, STIRLING_SCAN_CAP)
    if k == STIRLING_SCAN_CAP:
        return None
    return k if h(k) <= h(k + 1) else k + 1


_AT_CAP = (
    f"inequality still satisfied at the scan cap {STIRLING_SCAN_CAP}; "
    "coefficients are inconsistent with factorial growth"
)


def _satisfied_interval(h, anchor: int | None) -> tuple[int, int] | None:
    """Integer interval where the convex h is < -tol, or None; error at the cap.

    anchor is h's integer minimiser, None when h still descends at the cap.
    """

    def sat(m: int) -> bool:
        return h(m) < -_DECISION_TOL

    if anchor is None:
        # still descending at the cap: either satisfied there (no failure
        # within budget) or the dip lies beyond reach
        if sat(STIRLING_SCAN_CAP):
            raise BoundScanError(_AT_CAP)
        return None
    if not sat(anchor):
        return None
    right = _last_true(sat, anchor, STIRLING_SCAN_CAP)
    if right == STIRLING_SCAN_CAP:
        raise BoundScanError(_AT_CAP)
    # permanence: next index fails and the margin keeps widening
    if sat(right + 1) or not h(right + 2) >= h(right + 1):
        raise BoundScanError("failure at the crossing is not permanent; scan invalid")
    left = 1 if sat(1) else 1 + _last_true(lambda m: not sat(m), 1, anchor)
    return left, right


def _last_single_index(slope: float, ln_e: float) -> int:
    h, hp = _single_h(slope, ln_e)
    interval = _satisfied_interval(h, _minimiser(h, hp))
    return interval[1] if interval else 0


def stirling_bound(ineq: StirlingInequality) -> int:
    """Largest index satisfying the inequality (0 when no index does).

    One index: the largest m. Two indices: the largest first index over the
    whole frontier (see stirling_frontier for the full staircase). The
    crossing is verified permanent: the inequality fails at every larger index
    because the log-difference derivative is positive and increasing there.
    """
    if ineq.b is None:
        return _last_single_index(ineq.a, ineq.intercept_log())
    frontier = stirling_frontier(ineq)
    return frontier[-1][0] if frontier else 0


def stirling_frontier(ineq: StirlingInequality) -> list[tuple[int, int, int]]:
    """Satisfied region of the two-index inequality as (n1, m1_lo, m1_hi) slices.

    The region {S(n1)+S(m1) < A'n1 + B'm1 + log E'} is an intersection of a
    convex sublevel set with the integer grid: every row and column meets it
    in an interval, giving the staircase. Slices are returned in n1 order.
    """
    if ineq.b is None:
        raise ValueError("frontier is defined for the two-index form")
    a, ln_e = ineq.a, ineq.intercept_log()

    # every slice h_m = g + offset(n1) shares g's integer minimiser
    g, gp = _single_h(ineq.b, 0.0)
    m_star = _minimiser(g, gp)
    if m_star is None:
        raise BoundScanError("second-index slope too small for the scan cap")
    g_min = g(m_star)

    # n1 slice is nonempty exactly when S(n1) - a*n1 + g_min - lnE' < 0
    h_n, h_np = _single_h(a, ln_e, shift=g_min)
    span = _satisfied_interval(h_n, _minimiser(h_n, h_np))
    if span is None:
        return []
    n_lo, n_hi = span
    if n_hi - n_lo > FRONTIER_SLICE_CAP:
        raise BoundScanError(
            f"frontier spans {n_hi - n_lo} slices; beyond exhaustive enumeration"
        )

    offset, _ = _single_h(a, ln_e)
    out = []
    for n1 in range(n_lo, n_hi + 1):

        def h_m(m: int, _off=offset(n1)) -> float:
            return g(m) + _off

        slice_span = _satisfied_interval(h_m, m_star)
        if slice_span is None:
            continue  # numeric boundary slice; skip rather than overclaim
        out.append((n1, slice_span[0], slice_span[1]))
    return out


# ---------------------------------------------------------------------------
# Radical growth of the odd factorial block
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadicalFactorialBound:
    """theta(2m+1) against the (2m+1)*log4 envelope, in natural-log space."""

    m: int
    block: int
    theta_log: float
    envelope_log: float
    below: bool

    @property
    def margin(self) -> float:
        return self.envelope_log - self.theta_log


def radical_bound_factorial(m: int) -> RadicalFactorialBound:
    """Radical of (2m+1)! in log form: theta(2m+1), versus (2m+1)*log 4.

    The radical of a factorial is the primorial of its argument, so the exact
    value is a plain prime-log sum. The comparison side is the envelope that
    feeds the conditional pipeline's 4^(2m+1) radical estimate.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    block = 2 * m + 1
    theta = arith.log_primorial(block)
    envelope = block * LN4
    # widened decision: only claim "below" with clear numeric room
    return RadicalFactorialBound(
        m=m,
        block=block,
        theta_log=theta,
        envelope_log=envelope,
        below=theta < envelope - 1e-9,
    )


# ---------------------------------------------------------------------------
# Conditional pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbcParams:
    """Parameters of the hypothesis max(|A|,|B|,|C|) < K(eps)*N(ABC)^(1+eps).

    epsilon defaults to 1/(2d) for a degree-d target when left unset; the
    pipeline resolves it. K is genuinely a hypothesis: nothing here asserts a
    value is correct, outputs that depend on it are flagged conditional.
    """

    epsilon: Fraction | None = None
    k_epsilon: float = 1.0

    def __post_init__(self):
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", Fraction(self.epsilon))
            if self.epsilon <= 0:
                raise ValueError("epsilon must be positive")
        if not 0 < self.k_epsilon < math.inf:
            raise ValueError("K(epsilon) must be positive and finite")


@dataclass(frozen=True)
class ConstantEntry:
    """One named constant of the chain with its derivation and dependence."""

    name: str
    value: float
    conditional: bool
    provenance: str
    exact: int | None = None
    log_value: float | None = None

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "value": self.value,
            "conditional": self.conditional,
            "provenance": self.provenance,
        }
        if self.exact is not None:
            d["exact"] = self.exact
        if self.log_value is not None:
            d["log_value"] = self.log_value
        return d


@dataclass(frozen=True)
class BoundReport:
    """Explicit bound chain for b*(2m+1)!! = f(x): constants, m_max, z_max."""

    source: UnivariatePoly
    multiplier: int
    degree: int
    depressed_coeffs: tuple
    scaling_constant: int
    j: int
    residual_quotient: tuple
    epsilon: Fraction
    k_epsilon: float
    constants: tuple
    m_max: int
    log_z_max: float
    z_max_decimal: str | None
    not_monomial_source: bool
    two_distinct_roots_source: bool
    not_monomial_after_depression: bool
    conditional: bool = True

    def constant(self, name: str) -> ConstantEntry:
        for entry in self.constants:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def to_dict(self) -> dict:
        figures = [entry.to_dict() for entry in self.constants]
        figures.append(
            {
                "name": "m_max",
                "value": self.m_max,
                "conditional": True,
                "provenance": "largest index surviving the absorbed Stirling "
                "inequality, joined with the small-|z| branch",
            }
        )
        figures.append(
            {
                "name": "log_z_max",
                "value": self.log_z_max,
                "conditional": True,
                "provenance": "max of log C4 and C9*(2*m_max+1) + C10",
            }
        )
        figures.append(
            {
                "name": "z_max",
                "value": self.z_max_decimal,
                "conditional": True,
                "provenance": "exp of log_z_max, printed only below 10^40",
            }
        )
        return {
            "target": str(self.source),
            "multiplier": self.multiplier,
            "degree": self.degree,
            "depressed": list(self.depressed_coeffs),
            "scaling_constant": self.scaling_constant,
            "j": self.j,
            "residual_quotient": list(self.residual_quotient),
            "epsilon": str(self.epsilon),
            "k_epsilon": self.k_epsilon,
            "hypothesis": {
                "not_monomial_source": self.not_monomial_source,
                "two_distinct_roots_source": self.two_distinct_roots_source,
                "not_monomial_after_depression": self.not_monomial_after_depression,
            },
            "conditional": self.conditional,
            "figures": figures,
        }


def _root_free_radius(coeffs) -> int:
    """Integer radius beyond which the polynomial cannot vanish (Cauchy)."""
    if len(coeffs) == 1:
        return 1
    lead = abs(coeffs[0])
    worst = max(Fraction(abs(c), lead) for c in coeffs[1:])
    return math.floor(1 + worst) + 1


def _last_log_dfact_below(threshold_log: float) -> int:
    """Largest m >= 1 with log((2m+1)!!) below the threshold; 0 if none."""

    def below(m: int) -> bool:
        return logfact(2 * m + 1) - m * LN2 - logfact(m) < threshold_log

    if not below(1):
        return 0
    m = _last_true(below, 1, STIRLING_SCAN_CAP)
    if m == STIRLING_SCAN_CAP:
        raise BoundScanError("threshold exceeds double-factorial growth cap")
    return m


def conditional_bound_pipeline(
    f: UnivariatePoly,
    params: AbcParams | None = None,
    multiplier: int = 1,
) -> BoundReport:
    """Instantiate the constant chain for b*(2m+1)!! = f(x), b = multiplier.

    Every constant is either derived from explicit inequalities (sandwich,
    coefficient sums, radicals) or is an input hypothesis parameter; each
    entry records which. The resulting m_max and z_max hold under the ABC
    hypothesis with the given (epsilon, K) and are flagged conditional.

    Raises MonomialTargetError when the depressed target is a pure power
    (that family belongs to the valuation certifier), BoundScanError when the
    chain's inequality never fails inside the scan cap.
    """
    if params is None:
        params = AbcParams()
    d = f.degree
    if d < 2:
        raise ValueError("pipeline needs degree >= 2")
    if multiplier == 0:
        raise ValueError("multiplier must be nonzero")

    dep = depress(f)
    c = multiplier * dep.multiplier
    residual = dep.residual()
    if not residual:
        raise MonomialTargetError(c)
    q = dep.q

    eps = params.epsilon if params.epsilon is not None else Fraction(1, 2 * d)
    # j is the largest index with a surviving coefficient c_j on z^(d-j)
    j = max(i for i in range(2, d + 1) if q.coeffs[i] != 0)
    exponent_gap = 1 - (j - 1) * eps
    if exponent_gap <= 0:
        raise ValueError("epsilon too large: the exponent reduction needs eps < 1/(j-1)")
    r1 = q.coeffs[2 : j + 1]
    while r1 and r1[0] == 0:
        r1 = r1[1:]

    c2 = sandwich_threshold(q)
    c1 = LN2 + abs(math.log(abs(c)))
    c3 = 1 + sum(abs(x) for x in r1)
    c4 = max(c2, _root_free_radius(r1))
    c5 = params.k_epsilon
    c6 = arith.radical(abs(c))

    ln_c7 = math.log(c5) + float(1 + eps) * (math.log(c3) + math.log(c6))
    gap = float(exponent_gap)
    c9 = float((1 + eps) / exponent_gap) * LN4
    c10 = max(ln_c7 / gap, 0.0)
    c11 = 2 * d * c9
    c12 = d * (c9 + c10)
    c13 = c12 + c1

    # conditional branch: log((2m+1)!!) < C11*m + C13, absorbed Stirling form
    m_cond = _last_single_index(c11 + 2 + LN2, c13 + 1)
    # small-|z| branch: |z| <= C4 caps |Q(z)| by the coefficient sum outright
    peak = sum(abs(qc) * c4 ** (d - i) for i, qc in enumerate(q.coeffs))
    m_small = _last_log_dfact_below(math.log(peak) - math.log(abs(c)) + 1e-9)
    m_max = max(m_cond, m_small)

    log_z_max = max(math.log(c4), c9 * (2 * m_max + 1) + c10)
    z_max_decimal = (
        str(math.ceil(math.exp(log_z_max))) if log_z_max < _DECIMAL_PRINT_LOG else None
    )

    def exp_or_inf(x: float) -> float:
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf

    constants = (
        ConstantEntry("C1", c1, False, "log 2 from the power sandwich plus |log|scaling constant||"),
        ConstantEntry("C2", float(c2), False, "least Z with Z^2 > 2 * residual coefficient sum", exact=c2),
        ConstantEntry("C3", float(c3), False, "1 + sum of |coefficients| of the residual quotient", exact=c3),
        ConstantEntry("C4", float(c4), False, "max of sandwich threshold and a root-free radius for the residual quotient", exact=c4),
        ConstantEntry("C5", c5, True, "hypothesis constant K(epsilon); input parameter"),
        ConstantEntry("C6", float(c6), False, "radical of the scaling constant (prime-product envelope factor)", exact=c6),
        ConstantEntry("C7", exp_or_inf(ln_c7), True, "K(epsilon) * (C3*C6)^(1+epsilon)", log_value=ln_c7),
        ConstantEntry("C8", exp_or_inf(ln_c7), True, "C7 after dropping the gcd factor (at least 1) from the denominator", log_value=ln_c7),
        ConstantEntry("C9", c9, True, "(1+epsilon)*log4 divided by the exponent gap 1-(j-1)*epsilon"),
        ConstantEntry("C10", c10, True, "log C8 divided by the exponent gap, floored at zero"),
        ConstantEntry("C11", c11, True, "2*d*C9: slope of the index bound"),
        ConstantEntry("C12", c12, True, "d*(C9 + C10)"),
        ConstantEntry("C13", c13, True, "C12 + C1: intercept of log((2m+1)!!) < C11*m + C13"),
    )

    return BoundReport(
        source=f,
        multiplier=multiplier,
        degree=d,
        depressed_coeffs=q.coeffs,
        scaling_constant=c,
        j=j,
        residual_quotient=tuple(r1),
        epsilon=eps,
        k_epsilon=params.k_epsilon,
        constants=constants,
        m_max=m_max,
        log_z_max=log_z_max,
        z_max_decimal=z_max_decimal,
        not_monomial_source=any(x != 0 for x in f.coeffs[1:]),
        two_distinct_roots_source=distinct_root_count(f) >= 2,
        not_monomial_after_depression=True,
    )
