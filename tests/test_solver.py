"""Exact solving, grid classification, checkpointing, and parallel
determinism."""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factcert
from factcert import arith, certify, solver
from factcert.certify import Equation
from factcert.forms import (
    BUNDLED_FORMS,
    BUNDLED_POLYS,
    BinaryForm,
    UnivariatePoly,
    _eval_int,
)
from factcert.solver import (
    CellStatus,
    SearchTask,
    _real_root_floors,
    classify_cell,
    integer_root,
    represent_definite_quadratic,
    represent_general_form,
    run_search,
    solution_sup_bound,
)

SUM_X2 = Equation.sum_univariate(1, 1, (1, 0, 0))
SUM_SQUARES = Equation.sum_binary(1, 1, (1, 0, 1))


# ---------------------------------------------------------------------------
# Exact pieces
# ---------------------------------------------------------------------------


def test_integer_root_against_scan_on_bundled_polys():
    for name, poly in BUNDLED_POLYS.items():
        for v in range(-60, 700):
            fast = sorted(integer_root(poly, v))
            slow = sorted(x for x in range(-800, 801) if poly.evaluate(x) == v)
            assert fast == slow, (name, v)


@given(
    coeffs=st.lists(st.integers(-8, 8), min_size=3, max_size=5).filter(
        lambda c: c[0] != 0
    ),
    x=st.integers(-200, 200),
)
@settings(max_examples=300, deadline=None)
def test_integer_root_finds_planted_roots(coeffs, x):
    poly = UnivariatePoly(tuple(coeffs))
    v = poly.evaluate(x)
    assert x in integer_root(poly, v)


def test_integer_root_factorial_scale_targets():
    # the root hunt must stay exact and fast when targets have thousands of
    # bits; off-by-one around huge perfect powers is the classic failure
    square = UnivariatePoly((1, 0, 0))
    r = math.isqrt(math.factorial(400))
    assert integer_root(square, r * r) == [-r, r]
    assert integer_root(square, r * r - 1) == []
    assert integer_root(square, r * r + 2 * r) == []
    assert integer_root(square, (r + 1) ** 2) == [-(r + 1), r + 1]
    cubic = UnivariatePoly((1, 0, 0, -2))
    big = 10**40 + 7
    assert integer_root(cubic, big**3 - 2) == [big]
    assert integer_root(cubic, big**3 - 1) == []


def _isolation_roots(poly, target):
    """The generic path: real root isolation, then an exact candidate test."""
    g = poly.coeffs[:-1] + (poly.coeffs[-1] - target,)
    return sorted(
        {k for c in _real_root_floors(g) for k in (c, c + 1) if _eval_int(g, k) == 0}
    )


@given(
    c=st.sampled_from((1, 2, 3, 5, -1, -2, -3, -5)),
    d=st.integers(1, 5),
    e=st.integers(-300, 300),
    x0=st.integers(-12, 12),
    shift=st.integers(-2, 2),
)
@settings(max_examples=400, deadline=None)
def test_binomial_roots_match_scan_and_isolation(c, d, e, x0, shift):
    poly = UnivariatePoly((c,) + (0,) * (d - 1) + (e,))
    target = poly.evaluate(x0) + shift
    # |x|^d <= |x0|^d + 2 for every root, so |x| <= |x0| + 2 <= 14
    scan = [x for x in range(-20, 21) if poly.evaluate(x) == target]
    assert integer_root(poly, target) == scan == _isolation_roots(poly, target)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_binomial_roots_factorial_scale(d):
    r = math.factorial(60)
    poly = UnivariatePoly((-3,) + (0,) * (d - 1) + (7,))
    exact = [-r, r] if d % 2 == 0 else [r]
    for k, roots in ((-1, []), (0, exact), (1, [])):
        target = -3 * (r**d + k) + 7
        assert integer_root(poly, target) == roots == _isolation_roots(poly, target)
    # -3 does not divide the gap, and x^d = -r^d has a root only for odd d
    assert integer_root(poly, -3 * r**d + 8) == []
    negative = [] if d % 2 == 0 else [-r]
    assert integer_root(poly, 3 * r**d + 7) == negative


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_binomial_power_residue_reject_is_exact(d):
    # x^d = t through c*x^d + 7 = target, for both signs of c and of t
    period = solver._RESIDUE_MODULUS
    powers = {x**d: x for x in range(math.isqrt(2 * period) + 2)}

    def exact(t):
        r = powers.get(abs(t))
        if r is None or (t < 0 and d % 2 == 0):
            return []
        if d % 2 == 0:
            return sorted({-r, r})
        return [r if t > 0 else -r]

    for c in (1, -1):
        poly = UnivariatePoly((c,) + (0,) * (d - 1) + (7,))
        for t in range(-2 * period, 2 * period + 1):
            assert integer_root(poly, c * t + 7) == exact(t), (c, t)
    # every residue class modulo the period holds a d-th power that is found,
    # so a residue missing from the table fails here
    poly = UnivariatePoly((1,) + (0,) * (d - 1) + (0,))
    for x in range(period):
        assert x in integer_root(poly, x**d), x
    for n in (20, 40, 60):
        r = math.factorial(n)
        assert integer_root(poly, r**d) == ([-r, r] if d % 2 == 0 else [r])
        assert integer_root(poly, -(r**d)) == ([] if d % 2 == 0 else [-r])
        for t in (r**d, -(r**d)):
            assert integer_root(poly, t - 1) == integer_root(poly, t + 1) == []


# Witnesses at the commit before integer_root solved binomials in closed form;
# those of (1, 1, -1), whose slices take root isolation, and (1, 0, -3, 0),
# whose slices lose their y^3 term, were taken before slices were built from
# running powers and power residues rejected binomials.
# Every target in GENERAL_GRID_TARGETS not listed here has no solution with
# |x| <= 300.
GENERAL_GRID_TARGETS = list(range(-30, 31)) + [8, 28, 122, 168, 732, 6480]
GENERAL_GRID_WITNESSES = {
    (1, 0, 0, 2): {
        -29: (-3, -1), -27: (3, -3), -25: (-3, 1), -24: (-2, -2), -17: (-1, -2),
        -16: (0, -2), -15: (1, -2), -11: (-3, 2), -10: (-2, -1), -8: (2, -2),
        -6: (-2, 1), -3: (-1, -1), -2: (0, -1), -1: (1, -1), 0: (0, 0),
        1: (1, 0), 2: (0, 1), 3: (1, 1), 6: (2, -1), 8: (2, 0), 10: (2, 1),
        11: (3, -2), 15: (-1, 2), 16: (0, 2), 17: (1, 2), 24: (2, 2),
        25: (3, -1), 27: (3, 0), 29: (3, 1),
        6301: (101, -80), 100216: (250, -198), -106793: (-55, 31), -32937: None,
    },
    (1, 0, 0, 0, 1): {
        0: (0, 0), 1: (0, 1), 2: (1, 1), 16: (0, 2), 17: (1, 2),
        7992541202: (7, 299), 3154655521: (120, 233), 8208541217: (2, 301),
    },
    (2, 0, 0, 4): {
        -30: (1, -2), -22: (-3, 2), -20: (-2, -1), -16: (2, -2), -12: (-2, 1),
        -6: (-1, -1), -4: (0, -1), -2: (1, -1), 0: (0, 0), 2: (1, 0),
        4: (0, 1), 6: (1, 1), 12: (2, -1), 16: (2, 0), 20: (2, 1),
        22: (3, -2), 30: (-1, 2), 6480: (-6, 12), 9364: (150, -119),
        65874: None,
    },
    (1, 1, -1): {
        -29: (1, -5), -25: (0, 5), -20: (2, -4), -19: (1, -4), -16: (0, 4),
        -11: (1, -3), -9: (0, 3), -5: (1, -2), -4: (0, 2), -1: (0, 1),
        0: (0, 0), 1: (1, 0), 4: (2, 0), 5: (2, 1), 9: (3, 0), 11: (3, 1),
        16: (4, 0), 19: (4, 1), 20: (4, 2), 25: (5, 0), 29: (5, 1),
        6480: (72, 36),
    },
    (1, 0, -3, 0): {
        -27: (-3, 0), -26: (1, 3), -18: (-3, 1), -16: (2, 2), -11: (1, 2),
        -10: (5, 3), -9: (3, 2), -8: (-2, 0), -7: (-7, 4), -2: (1, 1),
        -1: (-1, 0), 0: (0, 0), 1: (1, 0), 2: (-1, 1), 7: (7, 4), 8: (2, 0),
        9: (-3, 2), 10: (-5, 3), 11: (-1, 2), 16: (-2, 2), 18: (3, 1),
        26: (-1, 3), 27: (3, 0),
    },
}


@pytest.mark.parametrize("coeffs", sorted(GENERAL_GRID_WITNESSES))
def test_represent_general_form_witnesses_unchanged(coeffs):
    form = BinaryForm(coeffs)
    expected = GENERAL_GRID_WITNESSES[coeffs]
    for target in sorted(set(GENERAL_GRID_TARGETS) | set(expected)):
        got = represent_general_form(form, target, 300)
        assert got == expected.get(target), (coeffs, target)


def test_represent_definite_quadratic_vs_naive():
    targets = (BinaryForm((1, 0, 1)), BinaryForm((1, 1, 1)), BinaryForm((2, 0, 3)))
    for form in targets:
        a, b, c = form.coeffs
        representable = set()
        for x in range(-110, 111):
            for y in range(-110, 111):
                val = form.evaluate(x, y)
                if 0 < val <= 10**4:
                    representable.add(val)
        for n in range(1, 10**4 + 1):
            pair = represent_definite_quadratic(form, n)
            if n in representable:
                assert pair is not None, (form.coeffs, n)
                assert form.evaluate(*pair) == n
            else:
                assert pair is None, (form.coeffs, n)


def _loop_representation(form, target):
    """The O(sqrt N) reference: largest x >= 0 first, then the larger y."""
    a, b, c = form.coeffs
    neg_disc = 4 * a * c - b * b
    for x in range(math.isqrt(4 * c * target // neg_disc) + 1, -1, -1):
        dd = 4 * c * target - neg_disc * x * x
        if dd < 0:
            continue
        s = math.isqrt(dd)
        if s * s != dd:
            continue
        for root in (s, -s):
            num = -b * x + root
            if num % (2 * c) == 0:
                return (x, num // (2 * c))
    return None


def _trial_exponents(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


DEFINITE_ORACLE_LIMIT = 2 * 10**4


@pytest.mark.parametrize(
    "coeffs",
    [(1, 0, 1), (1, 1, 1), (1, 0, 2), (1, 0, 3), (2, 0, 2), (1, 0, 5), (2, 1, 3)],
    ids=["x2+y2", "x2+xy+y2", "x2+2y2", "x2+3y2", "2x2+2y2", "x2+5y2", "2x2+xy+3y2"],
)
def test_definite_representations_match_box_scan(coeffs):
    # 2x2+2y2 has content 2; x2+5y2 has class number 2, 2x2+xy+3y2 class number 3
    form = BinaryForm(coeffs)
    a, b, c = coeffs
    neg_disc = 4 * a * c - b * b
    # 4a*f = (2ax + by)^2 + |D| y^2 and 4c*f = (bx + 2cy)^2 + |D| x^2 bound the box
    bx = math.isqrt(4 * c * DEFINITE_ORACLE_LIMIT // neg_disc) + 1
    by = math.isqrt(4 * a * DEFINITE_ORACLE_LIMIT // neg_disc) + 1
    box = {}
    for x in range(-bx, bx + 1):
        for y in range(-by, by + 1):
            box.setdefault(form.evaluate(x, y), []).append((x, y))
    for n in range(1, DEFINITE_ORACLE_LIMIT + 1):
        exponents = _trial_exponents(n)
        assert solver.definite_representations(form, n, exponents) == sorted(
            box.get(n, [])
        ), (coeffs, n)
        assert represent_definite_quadratic(
            form, n, exponents
        ) == _loop_representation(form, n), (coeffs, n)


# Witnesses of n! + m! = x^2 + y^2 for n <= 60 at the commit before the
# definite solver worked from factorizations (its O(sqrt N) loop found them).
SQUARE_SUM_SEED_WITNESSES = {
    (3, 2): (2, 2), (4, 1): (5, 0), (4, 2): (5, 1), (5, 1): (11, 0),
    (5, 2): (11, 1), (6, 2): (19, 19), (7, 1): (71, 0), (5, 4): (12, 0),
    (7, 2): (71, 1), (8, 1): (180, 89), (8, 2): (179, 91), (9, 2): (601, 41),
    (11, 1): (5985, 2024), (7, 6): (72, 24), (11, 2): (6271, 769),
    (12, 1): (21876, 665), (12, 2): (18571, 11581), (9, 6): (600, 60),
    (13, 2): (78191, 10639), (10, 6): (1704, 852), (11, 6): (6312, 276),
    (10, 8): (1848, 504), (12, 6): (21516, 4008), (13, 6): (78132, 11064),
    (14, 6): (294648, 18996),
}


def test_square_sum_seed_witnesses_unchanged():
    form = BUNDLED_FORMS["x2+y2"]
    for (n, m), witness in SQUARE_SUM_SEED_WITNESSES.items():
        value = math.factorial(n) + math.factorial(m)
        assert represent_definite_quadratic(form, value) == witness, (n, m)
        res = classify_cell(SearchTask(equation=SUM_SQUARES, n_max=14), (n, m))
        assert res.status is CellStatus.SOLUTION and res.witness == witness


@pytest.mark.parametrize("coeffs", [(1, 0, 1), (1, 1, 1)], ids=["x2+y2", "x2+xy+y2"])
def test_definite_solve_on_diagonal_and_product_cells(coeffs):
    # these left sides are factored by Legendre counts, not by rho; a small
    # prime budget leaves more cells to the solver
    tasks = [
        SearchTask(
            equation=Equation.sum_binary(1, 1, coeffs),
            n_max=11, m_min=10, include_diagonal=True, prime_budget=50,
        ),
        SearchTask(
            equation=Equation.product_binary(3, coeffs),
            prod_bounds=(12, 12), prime_budget=50,
        ),
    ]
    form = BinaryForm(coeffs)
    solved = 0
    for task in tasks:
        for res in run_search(task).results:
            assert res.status is not CellStatus.UNKNOWN, res.cell
            if res.status is CellStatus.CERTIFIED:
                continue
            if task.equation.is_sum:
                value = sum(math.factorial(c) for c in res.cell)
            else:
                value = 3 * math.prod(
                    math.prod(range(c, 0, -2)) for c in res.cell
                )
            assert res.witness == _loop_representation(form, value), res.cell
            solved += res.witness is not None
    assert solved >= 5


@pytest.mark.parametrize(
    "value, factorization, status, witness, note",
    [
        (-5, None, "NONE_EXHAUSTIVE", None, "sign_mismatch"),
        (21, None, "NONE_EXHAUSTIVE", None, "exhaustive_by_factorization"),
        (3**3 * 5, None, "NONE_EXHAUSTIVE", None, "exhaustive_by_factorization"),
        (3**2 * 5, None, "SOLUTION", (6, 3), ""),
        (2 * 5 * 13, ({2: 1, 5: 1, 13: 1}, []), "SOLUTION", (11, 3), ""),
        (2 * 5 * 13, ({2: 1}, [65]), "UNKNOWN", None, "unfactored"),
    ],
)
def test_solve_exact_definite_notes(value, factorization, status, witness, note):
    cap = solver.DEFAULT_BALL_CAP
    got = solver._solve_exact(SUM_SQUARES, value, cap, factorization)
    assert got == (CellStatus(status), witness, note)


def test_ideal_count_guard_reports_cap():
    # 31! + 2! has 16 ideals of norm N in Z[i]; its witness needs 16 roots
    cell = (31, 2)
    value = math.factorial(31) + 2
    for cap, status in ((10, CellStatus.UNKNOWN), (16, CellStatus.SOLUTION)):
        task = SearchTask(equation=SUM_SQUARES, n_max=31, ball_cap=cap)
        res = classify_cell(task, cell)
        assert res.status is status, cap
    assert res.witness[0] ** 2 + res.witness[1] ** 2 == value
    low = classify_cell(SearchTask(equation=SUM_SQUARES, n_max=31, ball_cap=10), cell)
    assert low.note == "enumeration_bound_exceeds_cap"


def test_rho_runs_once_per_cell(monkeypatch):
    # (45, 1): 45! + 1 keeps a composite piece that 200k rho steps cannot split
    exhausted = []
    brent = arith._pollard_brent

    def counting_brent(n, max_steps):
        d = brent(n, max_steps)
        if d is None:
            exhausted.append(n)
        return d

    monkeypatch.setattr(arith, "_pollard_brent", counting_brent)
    cell = (45, 1)
    certify._COFACTOR_CACHE.clear()
    assert certify.certify_cell(SUM_SQUARES, cell) is None
    alone = len(exhausted)
    assert alone >= 1
    exhausted.clear()
    certify._COFACTOR_CACHE.clear()
    res = classify_cell(SearchTask(equation=SUM_SQUARES, n_max=45), cell)
    assert (res.status, res.note) == (CellStatus.UNKNOWN, "unfactored")
    assert len(exhausted) == alone


def test_stopped_factorization_never_reaches_solve_tail():
    # (50, 1) certifies at a prime its factorization proves before the end,
    # so the certifier's run stops early and must leave the cache as it was
    cell = (50, 1)
    task = SearchTask(equation=SUM_SQUARES, n_max=50)
    certify._COFACTOR_CACHE.clear()
    want = solver._left_factorization(task, cell)
    certify._COFACTOR_CACHE.clear()
    assert certify.certify_cell(SUM_SQUARES, cell).notes == ("cofactor_factor",)
    assert solver._left_factorization(task, cell) == want


def test_solution_sup_bound_contains_solutions():
    for form, target in (
        (BinaryForm((1, 0, 1)), 25),
        (BUNDLED_FORMS["x4+2x2y2+y4"], 625),
    ):
        sup = solution_sup_bound(form, target)
        assert sup is not None
        # scan a box twice the bound, so a solution outside it would show
        span = range(-2 * sup, 2 * sup + 1)
        found = [(x, y) for x in span for y in span if form.evaluate(x, y) == target]
        assert found
        assert all(max(abs(x), abs(y)) <= sup for x, y in found), form


@pytest.mark.parametrize(
    "coeffs, value, ball_cap, status, witness, note",
    [
        # content 2 never divides 7
        ((2, 0, 0, 2), 7, None, "NONE_EXHAUSTIVE", None, "exhaustive_in_bound"),
        # ... and proves it even without a solution bound
        ((2, 0, 0, 4), 7, 50, "NONE_EXHAUSTIVE", None, "exhaustive_in_bound"),
        # negative definite: the solution bound fits inside the ball
        ((-1, 0, -1), -7, None, "NONE_EXHAUSTIVE", None, "exhaustive_in_bound"),
        ((-1, 0, -1), -5, None, "SOLUTION", (1, 2), ""),
        # indefinite cubic: no solution bound, so an empty ball proves nothing
        ((1, 0, 0, 2), 121, 50, "UNKNOWN", None, "ball_exhausted"),
        ((1, 0, 0, 2), 3, None, "SOLUTION", (1, 1), ""),
    ],
)
def test_solve_exact_general_forms(coeffs, value, ball_cap, status, witness, note):
    eq = Equation.sum_binary(1, 1, coeffs)
    cap = solver.DEFAULT_BALL_CAP if ball_cap is None else ball_cap
    got = solver._solve_exact(eq, value, cap)
    assert got == (CellStatus(status), witness, note)


# ---------------------------------------------------------------------------
# Grid classification
# ---------------------------------------------------------------------------


def test_x2_grid_to_30_fully_classified():
    task = SearchTask(equation=SUM_X2, n_max=30)
    report = run_search(task)
    assert report.totals.get("UNKNOWN", 0) == 0
    sols = {r.cell: r.witness for r in report.solutions}
    assert sols == {(4, 1): (5,), (5, 1): (11,), (5, 4): (12,), (7, 1): (71,)}


def test_single_factorial_brocard_prefix():
    eq = Equation.sum_univariate(1, 1, (1, 0, -1))
    task = SearchTask(equation=eq, n_max=100, single_factorial=True)
    report = run_search(task)
    sols = {r.cell[0] for r in report.solutions}
    assert sols == {4, 5, 7}
    assert report.totals.get("UNKNOWN", 0) == 0


def test_single_factorial_matches_brute_small():
    eq = Equation.sum_univariate(1, 1, (1, 0, -1))
    for n in range(1, 13):
        res = classify_cell(
            SearchTask(equation=eq, n_max=13, single_factorial=True), (n,)
        )
        value = math.factorial(n)
        brute = [x for x in range(-4000, 4001) if x * x - 1 == value]
        if brute:
            assert res.status is CellStatus.SOLUTION
            assert res.witness[0] in brute
        else:
            assert res.status is CellStatus.NONE_EXHAUSTIVE


def test_diagonal_cells():
    eq = Equation.sum_binary(1, -1, (1, 0, 1))
    task = SearchTask(equation=eq, n_max=6, m_min=0, include_diagonal=True)
    report = run_search(task)
    by_cell = {r.cell: r for r in report.results}
    assert by_cell[(4, 4)].status is CellStatus.DEGENERATE
    assert "identically_zero" in by_cell[(4, 4)].note


def test_double_factorial_squares_to_100():
    eq = Equation.product_univariate(1, (1, 0, 0))
    task = SearchTask(equation=eq, prod_bounds=(100,))
    report = run_search(task)
    sols = {r.cell[0] for r in report.solutions}
    assert sols == {0, 1}
    assert report.totals.get("UNKNOWN", 0) == 0


def test_prod_range_guard():
    eq = Equation.product_univariate(1, (1, 0))
    with pytest.raises(ValueError):
        SearchTask(equation=eq, prod_bounds=(10, 10))
    SearchTask(equation=eq, prod_bounds=(10, 10), range_override=True)


def test_no_certified_solution_conflict_small_grid():
    task = SearchTask(equation=SUM_SQUARES, n_max=12, m_min=1)
    report = run_search(task)
    for r in report.results:
        if r.status is CellStatus.CERTIFIED:
            assert r.certificate is not None
            assert r.witness is None
        if r.status is CellStatus.SOLUTION:
            assert r.certificate is None


@pytest.mark.parametrize(
    "eq, cell, unsound",
    [
        (SUM_X2, (5, 4), True),  # 5! + 4! = 12^2
        (SUM_SQUARES, (3, 2), True),  # 3! + 2! = 2^2 + 2^2
        # 2! + 1! = 1^3 + 2*1^3, but indefinite forms are not re-solved
        (Equation.sum_binary(1, 1, (1, 0, 0, 2)), (2, 1), False),
    ],
    ids=["x^2", "x2+y2", "x3+2y3"],
)
def test_cross_check_rejects_certificate_at_solution(monkeypatch, eq, cell, unsound):
    fake = object()
    monkeypatch.setattr(solver, "certify_cell", lambda *args, **kwargs: fake)
    task = SearchTask(equation=eq, n_max=6)
    if unsound:
        with pytest.raises(AssertionError, match="certificate unsound"):
            classify_cell(task, cell)
    else:
        assert classify_cell(task, cell).certificate is fake


def test_statuses_partition_and_order_is_stable():
    task = SearchTask(equation=SUM_X2, n_max=12)
    report = run_search(task)
    cells = [r.cell for r in report.results]
    assert cells == sorted(cells, key=lambda t: (sum(t), t))
    assert sum(report.totals.values()) == len(report.results)


# ---------------------------------------------------------------------------
# Checkpoints and workers
# ---------------------------------------------------------------------------


def _report_blob(report) -> str:
    return json.dumps([r.to_dict() for r in report.results], sort_keys=True)


def test_checkpoint_resume_equals_uninterrupted(tmp_path, interrupt_after):
    ck = tmp_path / "ck.json"
    task = SearchTask(equation=SUM_X2, n_max=16, checkpoint_path=str(ck))
    interrupt_after(task, 35)
    assert ck.read_bytes().count(b"\n") == 1 + 35
    resumed = run_search(task)
    plain = run_search(SearchTask(equation=SUM_X2, n_max=16))
    assert _report_blob(resumed) == _report_blob(plain)


def test_checkpoint_task_hash_guard(tmp_path, interrupt_after):
    ck = tmp_path / "ck.json"
    task = SearchTask(equation=SUM_X2, n_max=14, checkpoint_path=str(ck))
    interrupt_after(task, 12)
    assert ck.read_bytes().count(b"\n") == 1 + 12
    other = SearchTask(equation=SUM_X2, n_max=15, checkpoint_path=str(ck))
    with pytest.raises(ValueError):
        run_search(other)


def test_checkpoint_is_header_then_one_line_per_cell(tmp_path):
    ck = tmp_path / "ck.jsonl"
    task = SearchTask(equation=SUM_X2, n_max=12, checkpoint_path=str(ck))
    report = run_search(task)
    header, *lines = ck.read_text().splitlines()
    assert json.loads(header) == {
        "format": solver.CHECKPOINT_FORMAT, "task_hash": task.fingerprint()
    }
    assert lines == [json.dumps(r.to_dict()) for r in report.results]


def test_checkpoint_torn_last_line_is_dropped(tmp_path, interrupt_after):
    ck = tmp_path / "ck.jsonl"
    task = SearchTask(equation=SUM_X2, n_max=16, checkpoint_path=str(ck))
    interrupt_after(task, 30)
    whole = ck.read_bytes()
    assert whole.count(b"\n") == 1 + 30
    last = whole.splitlines(keepends=True)[-1]
    ck.write_bytes(whole + last[: len(last) // 2])  # killed mid-append
    resumed = run_search(task)
    fresh = tmp_path / "fresh.jsonl"
    plain = run_search(dataclasses.replace(task, checkpoint_path=str(fresh)))
    assert ck.read_bytes() == fresh.read_bytes()
    assert _report_blob(resumed) == _report_blob(plain)


def test_checkpoint_from_earlier_version_resumes(tmp_path):
    # Lines of earlier versions carry a "hypothesis" flag (m > 2*max(|a|,|b|)
    # for sum cells); they still load, and resuming from them gives the
    # uninterrupted results.
    fresh = tmp_path / "fresh.jsonl"
    task = SearchTask(equation=SUM_X2, n_max=16, checkpoint_path=str(fresh))
    plain = run_search(task)
    header, *lines = fresh.read_text().splitlines(keepends=True)
    old = [
        json.dumps(dict(d, hypothesis=d["cell"][1] > 2)) + "\n"
        for d in map(json.loads, lines[:29])
    ]
    assert all('"hypothesis": ' in line for line in old)
    ck = tmp_path / "old.jsonl"
    ck.write_text(header + "".join(old))
    resumed = run_search(dataclasses.replace(task, checkpoint_path=str(ck)))
    assert _report_blob(resumed) == _report_blob(plain)
    assert ck.read_text() == header + "".join(old + lines[29:])


def test_checkpoint_resume_after_sigkill_mid_chunk(tmp_path):
    ck = tmp_path / "ck.jsonl"
    task = SearchTask(equation=SUM_SQUARES, n_max=40, checkpoint_path=str(ck))
    script = (
        "import sys\n"
        "from factcert.certify import Equation\n"
        "from factcert.solver import SearchTask, run_search\n"
        "eq = Equation.sum_binary(1, 1, (1, 0, 1))\n"
        "run_search(SearchTask(equation=eq, n_max=40, checkpoint_path=sys.argv[1]))\n"
    )
    src = str(Path(factcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", script, str(ck)], env=env)
    try:
        deadline = time.monotonic() + 120
        # kill once at least 60 cells are on disk, wherever the search is
        while not ck.exists() or ck.read_bytes().count(b"\n") < 1 + 60:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.wait()
    assert ck.read_bytes().count(b"\n") < 1 + len(task.cells())
    resumed = run_search(task)
    fresh = tmp_path / "fresh.jsonl"
    plain = run_search(dataclasses.replace(task, checkpoint_path=str(fresh)))
    assert ck.read_bytes() == fresh.read_bytes()
    assert _report_blob(resumed) == _report_blob(plain)


def _written_bytes() -> int:
    with open("/proc/self/io", encoding="ascii") as fh:
        return next(int(ln.split(":")[1]) for ln in fh if ln.startswith("wchar:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
def test_checkpoint_writes_grow_linearly(tmp_path):
    # Appending writes each result once; rewriting the file after every
    # 200-cell chunk wrote about 3.9 MB here.
    ck = tmp_path / "ck.jsonl"
    before = _written_bytes()
    run_search(SearchTask(equation=SUM_SQUARES, n_max=60, checkpoint_path=str(ck)))
    written = _written_bytes() - before
    assert written < 700_000
    assert written < 1.05 * ck.stat().st_size


def test_workers_do_not_change_results():
    base = run_search(SearchTask(equation=SUM_X2, n_max=18))
    quad = run_search(SearchTask(equation=SUM_X2, n_max=18, workers=4))
    assert _report_blob(base) == _report_blob(quad)


def test_error_mid_search_cancels_queued_cells(tmp_path, monkeypatch):
    # The pool gets every cell at once. A checkpoint write that fails after
    # 20 cells must drop the queued ones, not wait for the whole grid (about
    # 13 s of work on two cores).
    real = solver.CellResult.to_dict
    calls = itertools.count()

    def to_dict(self):
        if next(calls) == 20:
            raise OSError("disk full")
        return real(self)

    monkeypatch.setattr(solver.CellResult, "to_dict", to_dict)
    ck = tmp_path / "ck.jsonl"
    task = SearchTask(
        equation=SUM_SQUARES, n_max=100, checkpoint_path=str(ck), workers=2
    )
    start = time.monotonic()
    with pytest.raises(OSError, match="disk full"):
        run_search(task)
    assert time.monotonic() - start < 10
    assert ck.read_bytes().count(b"\n") == 1 + 20


def test_unguarded_worker_script_gets_clear_error(tmp_path):
    # spawned workers re-import the script, whose top level starts a search
    # again before their bootstrap is done, so each worker dies
    script = tmp_path / "unguarded.py"
    script.write_text(
        "from factcert.certify import Equation\n"
        "from factcert.solver import SearchTask, run_search\n"
        "eq = Equation.sum_univariate(1, 1, (1, 0, 0))\n"
        "run_search(SearchTask(equation=eq, n_max=6, workers=2))\n"
    )
    src = str(Path(factcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 1
    # The last traceback is the script's.  The resource tracker, a separate
    # process, may still warn about semaphores of the killed workers after it.
    last_tb = proc.stderr.rsplit("Traceback (most recent call last):", 1)[-1]
    error = next(ln for ln in last_tb.splitlines() if ln and not ln[0].isspace())
    assert error.startswith("RuntimeError: a search worker process died")
    assert "__main__" in error
