"""Stirling crossings, radical envelopes, and the conditional constant
pipeline."""

import math
from fractions import Fraction

import mpmath
import pytest

from factcert.bounds import (
    AbcParams,
    BoundScanError,
    MonomialTargetError,
    StirlingInequality,
    StirlingKind,
    conditional_bound_pipeline,
    radical_bound_factorial,
    stirling_bound,
    stirling_frontier,
    stirling_margin,
)
from factcert.forms import BUNDLED_POLYS, depress, sandwich_threshold


def _s(t: int) -> mpmath.mpf:
    # left side of the crossing inequality, recomputed from scratch
    tt = mpmath.mpf(t)
    return (2 * tt + 1) * mpmath.log(2 * tt + 1) - tt * mpmath.log(tt)


# ---------------------------------------------------------------------------
# Single-variable crossings
# ---------------------------------------------------------------------------


def test_single_crossing_slope_five():
    ineq = StirlingInequality(kind=StirlingKind.SINGLE, a=5.0)
    assert stirling_bound(ineq) == 31


def test_single_crossing_is_stable_for_next_hundred():
    ineq = StirlingInequality(kind=StirlingKind.SINGLE, a=5.0)
    m_max = stirling_bound(ineq)
    assert stirling_margin(ineq, m_max) >= 0
    for m in range(m_max + 1, m_max + 101):
        assert stirling_margin(ineq, m) < 0, m


def test_single_crossing_matches_brute_scan():
    # direct high-precision evaluation of both sides, no envelope shortcuts
    for slope in (4.0, 5.0, 8.0):
        ineq = StirlingInequality(kind=StirlingKind.SINGLE, a=slope)
        m_max = stirling_bound(ineq)
        assert m_max >= 1
        with mpmath.workprec(120):

            def satisfied(m):
                return _s(m) < mpmath.mpf(slope) * m

            assert satisfied(m_max)
            assert not satisfied(m_max + 1)
            assert not satisfied(m_max + 50)


def test_intercept_equivalence_log_vs_prefactor():
    v1 = StirlingInequality(kind=StirlingKind.SINGLE, a=4.0, c=2.0)
    v2 = StirlingInequality(kind=StirlingKind.SINGLE, a=4.0, e=math.exp(2.0))
    assert v1.intercept_log() == pytest.approx(v2.intercept_log())
    assert stirling_bound(v1) == stirling_bound(v2)


def test_inconsistent_slope_hits_scan_cap():
    ineq = StirlingInequality(kind=StirlingKind.SINGLE, a=100.0)
    with pytest.raises(BoundScanError):
        stirling_bound(ineq)


def test_bad_coefficients_rejected():
    with pytest.raises(ValueError):
        StirlingInequality(kind=StirlingKind.SINGLE, a=-1.0)
    with pytest.raises(ValueError):
        StirlingInequality(kind=StirlingKind.DOUBLE, a=5.0)  # missing b
    with pytest.raises(ValueError):
        StirlingInequality(kind=StirlingKind.SINGLE, a=5.0, e=0.0)


# ---------------------------------------------------------------------------
# Two-variable staircase
# ---------------------------------------------------------------------------


def test_double_staircase_matches_brute():
    ineq = StirlingInequality(kind=StirlingKind.DOUBLE, a=5.0, b=5.0)
    frontier = stirling_frontier(ineq)
    with mpmath.workprec(120):
        vals = {t: _s(t) for t in range(1, 201)}
        brute = {}
        for n1 in range(1, 201):
            ms = [
                m1
                for m1 in range(1, 201)
                if vals[n1] + vals[m1] < mpmath.mpf(5) * (n1 + m1)
            ]
            if ms:
                # convexity: each slice must already be an interval
                assert ms == list(range(min(ms), max(ms) + 1)), n1
                brute[n1] = (min(ms), max(ms))
    assert {n1: (lo, hi) for n1, lo, hi in frontier} == brute
    assert stirling_bound(ineq) == max(brute)
    assert len(frontier) == 40
    assert frontier[0] == (1, 1, 33)


def test_double_staircase_is_contiguous_in_first_index():
    ineq = StirlingInequality(kind=StirlingKind.DOUBLE, a=5.0, b=5.0)
    frontier = stirling_frontier(ineq)
    ns = [n1 for n1, _, _ in frontier]
    assert ns == list(range(ns[0], ns[0] + len(ns)))
    assert ns[0] == 1


# ---------------------------------------------------------------------------
# Radical vs envelope
# ---------------------------------------------------------------------------


def test_radical_bound_at_ten():
    rb = radical_bound_factorial(10)
    assert rb.block == 21
    assert math.isclose(rb.theta_log, 16.0876, abs_tol=5e-4)
    assert math.isclose(rb.envelope_log, 21 * math.log(4), rel_tol=1e-12)
    assert rb.below


def test_radical_bound_margin_grows():
    margins = [radical_bound_factorial(m).margin for m in (5, 50, 500, 5000)]
    assert all(margins[i] < margins[i + 1] for i in range(len(margins) - 1))
    assert all(radical_bound_factorial(m).below for m in (1, 2, 3, 10, 100))


def test_radical_bound_rejects_nonpositive_index():
    with pytest.raises(ValueError):
        radical_bound_factorial(0)


# ---------------------------------------------------------------------------
# Conditional pipeline
# ---------------------------------------------------------------------------


def test_pipeline_x2_minus_1_frozen_figures():
    rep = conditional_bound_pipeline(
        BUNDLED_POLYS["x^2-1"], AbcParams(epsilon=Fraction(1, 4))
    )
    assert rep.degree == 2
    assert rep.j == 2
    assert rep.scaling_constant == 4
    assert rep.residual_quotient == (-4,)
    assert rep.constant("C2").exact == 3
    assert rep.constant("C3").exact == 5
    assert rep.constant("C4").exact == 3
    assert rep.constant("C6").exact == 2
    assert rep.m_max == 38135
    assert rep.conditional


def test_pipeline_cubic():
    rep = conditional_bound_pipeline(
        BUNDLED_POLYS["x^3-2"], AbcParams(epsilon=Fraction(1, 6))
    )
    assert rep.j == 3
    assert rep.scaling_constant == 27
    assert rep.residual_quotient == (-54,)
    assert rep.m_max == 7_748_008


def test_pipeline_default_epsilon_is_half_inverse_degree():
    rep = conditional_bound_pipeline(BUNDLED_POLYS["x^2-1"])
    assert rep.epsilon == Fraction(1, 4)


def test_pipeline_monomial_raises_with_threshold():
    with pytest.raises(MonomialTargetError) as err:
        conditional_bound_pipeline(BUNDLED_POLYS["x^2"])
    assert err.value.scaling_constant == 4
    assert err.value.certifier_threshold == 8


def test_pipeline_absurd_k_moves_only_conditional_constants():
    base = conditional_bound_pipeline(
        BUNDLED_POLYS["x^2-1"], AbcParams(epsilon=Fraction(1, 4), k_epsilon=1.0)
    )
    absurd = conditional_bound_pipeline(
        BUNDLED_POLYS["x^2-1"], AbcParams(epsilon=Fraction(1, 4), k_epsilon=1e250)
    )
    for name in ("C1", "C2", "C3", "C4", "C6"):
        assert base.constant(name).value == absurd.constant(name).value
        assert not base.constant(name).conditional
    assert absurd.constant("C5").value == 1e250
    assert absurd.constant("C5").conditional
    assert base.m_max == 38135
    assert absurd.m_max == 39640


def test_pipeline_epsilon_must_keep_exponent_gap_positive():
    # j = 2 needs (j-1)*epsilon < 1
    with pytest.raises(ValueError):
        conditional_bound_pipeline(
            BUNDLED_POLYS["x^2-1"], AbcParams(epsilon=Fraction(3, 2))
        )


def test_sandwich_far_samples_every_bundled_poly():
    # |z|^d / 2 < |Q(z)| < 2|z|^d for every |z| at or past the threshold
    for name, poly in BUNDLED_POLYS.items():
        dep = depress(poly)
        t = sandwich_threshold(dep.q)
        assert t >= 1
        d = dep.q.degree
        step = max(1, (10**6 - t) // 500)
        for mag in list(range(t, 10**6, step))[:500]:
            for z in (mag, -mag):
                val = abs(dep.q.evaluate(z))
                zd = abs(z) ** d
                assert 2 * val > zd, (name, z)
                assert val < 2 * zd, (name, z)


def test_bound_report_serialization():
    rep = conditional_bound_pipeline(
        BUNDLED_POLYS["x^2-1"], AbcParams(epsilon=Fraction(1, 4))
    )
    data = rep.to_dict()
    names = [f["name"] for f in data["figures"]]
    for required in ("C1", "C5", "C13", "m_max", "log_z_max", "z_max"):
        assert required in names
    assert data["epsilon"] == "1/4"
    assert data["scaling_constant"] == 4
    assert data["conditional"] is True
