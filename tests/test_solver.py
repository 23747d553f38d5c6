"""Exact solving, grid classification, checkpointing, and parallel
determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factcert
from factcert import solver
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
    SearchAborted,
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


# Witnesses at the commit before integer_root solved binomials in closed form;
# every target in GENERAL_GRID_TARGETS not listed here has no solution with
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
    assert classify_cell(dataclasses.replace(task, cross_check=False), cell).certificate is fake


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


def test_checkpoint_resume_equals_uninterrupted(tmp_path):
    ck = tmp_path / "ck.json"
    task = SearchTask(
        equation=SUM_X2, n_max=16, checkpoint_path=str(ck),
        checkpoint_interval=10, abort_after_cells=35,
    )
    with pytest.raises(SearchAborted):
        run_search(task)
    assert ck.exists()
    resumed = run_search(dataclasses.replace(task, abort_after_cells=None))
    plain = run_search(SearchTask(equation=SUM_X2, n_max=16))
    assert _report_blob(resumed) == _report_blob(plain)


def test_checkpoint_task_hash_guard(tmp_path):
    ck = tmp_path / "ck.json"
    task = SearchTask(
        equation=SUM_X2, n_max=14, checkpoint_path=str(ck),
        checkpoint_interval=5, abort_after_cells=12,
    )
    with pytest.raises(SearchAborted):
        run_search(task)
    other = SearchTask(equation=SUM_X2, n_max=15, checkpoint_path=str(ck))
    with pytest.raises(ValueError):
        run_search(other)


def test_workers_do_not_change_results():
    base = run_search(SearchTask(equation=SUM_X2, n_max=18))
    quad = run_search(SearchTask(equation=SUM_X2, n_max=18, workers=4))
    assert _report_blob(base) == _report_blob(quad)


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
