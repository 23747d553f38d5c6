"""End-to-end acceptance gates.

One test per shipping criterion, in order. Every expected value here is
recomputed from an independent oracle inside the test body (big-integer
arithmetic, literal enumeration, an inline prime sieve), never from the
modules under test, and each test asserts its stated wall-clock budget.
"""

import json
import math
import time

from factcert import cli
from factcert.arith import primorial_bound_check
from factcert.bounds import (
    StirlingInequality,
    stirling_bound,
    stirling_margin,
)
from factcert.certify import Equation, recheck
from factcert.forms import BUNDLED_FORMS, BinaryForm
from factcert.obstruction import scan_obstruction_primes, verify_forced_exponent
from factcert.solver import CellStatus, SearchTask, run_search
from factcert.valuation import combined_valuation, double_factorial_exact


def _primes_upto(limit: int) -> list[int]:
    # self-contained sieve so the oracle does not lean on the package
    mark = bytearray([1]) * (limit + 1)
    mark[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if mark[p]:
            mark[p * p :: p] = bytes(len(mark[p * p :: p]))
    return [i for i in range(2, limit + 1) if mark[i]]


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _two_squares_representable(n: int) -> bool:
    x = 0
    while True:
        xx = x * x
        if 2 * xx > n:
            return False
        if _is_square(n - xx):
            return True
        x += 1


def test_criterion_01_brocard_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    code = cli.main(["reproduce", "--preset", "BROCARD", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == cli.EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["cells"] == 500
    assert summary["totals"]["UNKNOWN"] == 0
    assert summary["solutions"] == [
        {"cell": [4], "witness": [5]},
        {"cell": [5], "witness": [11]},
        {"cell": [7], "witness": [71]},
    ]
    assert elapsed < 5.0


def test_criterion_02_square_sum_grid_matches_brute_force():
    start = time.perf_counter()
    fact = [math.factorial(i) for i in range(31)]
    oracle = {
        (n, m)
        for n in range(2, 31)
        for m in range(1, n)
        if _is_square(fact[n] + fact[m])
    }
    assert oracle == {(4, 1), (5, 1), (7, 1), (5, 4)}  # includes 120+24=144

    report = run_search(
        SearchTask(equation=Equation.sum_univariate(1, 1, (1, 0, 0)), n_max=30)
    )
    found = {
        tuple(r.cell): r.witness
        for r in report.results
        if r.status is CellStatus.SOLUTION
    }
    assert set(found) == oracle
    for (n, m), witness in found.items():
        assert witness[0] ** 2 == fact[n] + fact[m]
    assert report.totals["UNKNOWN"] == 0
    assert time.perf_counter() - start < 10.0


def test_criterion_03_valuation_oracle_grid():
    start = time.perf_counter()
    primes = _primes_upto(50)
    fact = [math.factorial(i) for i in range(15)]
    mismatches = 0
    checked = 0
    for n in range(1, 15):
        for m in range(0, n):
            for a in (1, -1, 2, -2, 3):
                for b in (1, -1, 2, -2, 3):
                    left = a * fact[n] + b * fact[m]
                    if left == 0:
                        continue
                    for q in primes:
                        value = abs(left)
                        v = 0
                        while value % q == 0:
                            value //= q
                            v += 1
                        res = combined_valuation(a, b, n, m, q)
                        checked += 1
                        if res != v:
                            mismatches += 1
    assert checked > 35000
    assert mismatches == 0
    assert time.perf_counter() - start < 10.0


def test_criterion_04_obstruction_soundness():
    start = time.perf_counter()
    verified = 0
    failures = []
    for name, form in BUNDLED_FORMS.items():
        scan = scan_obstruction_primes(form, 2, 200)
        for q in scan.eligible_primes:
            if not verify_forced_exponent(form, q):
                failures.append((name, q))
            verified += 1
    assert failures == []
    assert verified == 198
    assert time.perf_counter() - start < 60.0


def test_criterion_05_obstruction_density():
    start = time.perf_counter()
    scan = scan_obstruction_primes(BinaryForm((1, 0, 1)), 2, 10**5)
    assert scan.total_primes == 9592
    assert len(scan.eligible_primes) == 4808
    density = len(scan.eligible_primes) / scan.total_primes
    assert 0.48 <= density <= 0.52

    eisenstein = scan_obstruction_primes(BinaryForm((1, 1, 1)), 2, 10**4)
    assert list(eisenstein.eligible_primes) == [
        q for q in _primes_upto(10**4) if q % 3 == 2
    ]
    assert time.perf_counter() - start < 30.0


def test_criterion_06_certificate_soundness():
    start = time.perf_counter()
    report = run_search(
        SearchTask(equation=Equation.sum_binary(1, 1, (1, 0, 1)), n_max=15)
    )
    contradictions = []
    certified = 0
    for res in report.results:
        if res.certificate is None:
            continue
        certified += 1
        assert res.status is CellStatus.CERTIFIED
        assert recheck(res.certificate)
        n, m = res.cell
        if _two_squares_representable(math.factorial(n) + math.factorial(m)):
            contradictions.append(tuple(res.cell))
    assert certified == 80
    assert contradictions == []
    assert time.perf_counter() - start < 60.0


def test_criterion_07_desk_scale_report():
    start = time.perf_counter()
    report = run_search(
        SearchTask(equation=Equation.sum_binary(1, 1, (1, 0, 1)), n_max=60)
    )
    assert len(report.results) == 1770
    unknown = [r for r in report.results if r.status is CellStatus.UNKNOWN]
    assert len(unknown) / len(report.results) < 0.05
    for res in report.results:
        assert isinstance(res.status, CellStatus)
        if res.status is CellStatus.SOLUTION:
            assert res.certificate is None
            x, y = res.witness
            n, m = res.cell
            assert x * x + y * y == math.factorial(n) + math.factorial(m)
        if res.status is CellStatus.CERTIFIED:
            assert res.witness is None
            assert res.certificate is not None
    assert time.perf_counter() - start < 600.0


def test_criterion_08_primorial_envelope():
    start = time.perf_counter()
    checks = primorial_bound_check(10**4)
    assert len(checks) == 9999
    assert checks[0].a == 2 and checks[-1].a == 10**4
    assert all(c.holds for c in checks)
    assert all(c.log_primorial < c.log_rhs for c in checks)
    assert time.perf_counter() - start < 1.0


def test_criterion_09_stirling_crossing():
    start = time.perf_counter()
    ineq = StirlingInequality(a=5.0)
    m_max = stirling_bound(ineq)
    assert m_max == 31
    assert stirling_margin(ineq, m_max) > 0
    for m in range(m_max + 1, m_max + 101):
        assert stirling_margin(ineq, m) < 0, m
    assert time.perf_counter() - start < 1.0


def test_criterion_10_double_factorial_identities():
    start = time.perf_counter()
    by_recurrence = {0: 1, 1: 1}
    for k in range(2, 31):
        by_recurrence[k] = k * by_recurrence[k - 2]
    for n in range(0, 31):
        if n % 2 == 0:
            half = n // 2
            split = 2**half * math.factorial(half)
        else:
            half = (n - 1) // 2
            split = math.factorial(n) // (2**half * math.factorial(half))
        assert by_recurrence[n] == split, n
        assert double_factorial_exact(n) == split, n
    assert time.perf_counter() - start < 1.0


def test_criterion_11_resume_determinism(tmp_path, interrupt_after):
    eq = Equation.sum_univariate(1, 1, (1, 0, 0))
    plain_task = SearchTask(equation=eq, n_max=20)
    baseline = run_search(plain_task)
    base_dir = tmp_path / "baseline"
    cli._write_search_outputs(base_dir, "resume-check", plain_task, baseline)
    base_csv = (base_dir / "results.csv").read_bytes().split(b"\r\n", 1)[1]
    base_certs = (base_dir / "certificates.json").read_bytes()

    for i, abort_at in enumerate((25, 90, 170)):
        ck = tmp_path / f"ck{i}.json"
        task = SearchTask(equation=eq, n_max=20, checkpoint_path=str(ck))
        interrupt_after(task, abort_at)
        assert ck.read_bytes().count(b"\n") == 1 + abort_at
        resumed = run_search(task)
        out = tmp_path / f"resumed{i}"
        cli._write_search_outputs(out, "resume-check", plain_task, resumed)
        got_csv = (out / "results.csv").read_bytes().split(b"\r\n", 1)[1]
        assert got_csv == base_csv, f"interruption at {abort_at} cells"
        assert (out / "certificates.json").read_bytes() == base_certs
