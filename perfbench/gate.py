"""Correctness gate and output digests for one measured CLI run.

Runs outside the timed window.  A search run is checked four ways: the grid
is covered exactly once, every SOLUTION witness evaluates (here, with plain
big-integer arithmetic) to n! + m!, every certificate's valuation matches an
independent v_q(n! + m!) and passes factcert's recheck(deep=True), and the
cells the seed commit solved are still SOLUTION.  A recheck run must report
every input certificate as revalidated, in order.  Each failing cell or
certificate counts once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

STATUSES = ("SOLUTION", "CERTIFIED", "NONE_EXHAUSTIVE", "DEGENERATE", "UNKNOWN")
OUTPUT_FILES = ("results.csv", "summary.json", "certificates.json")


@dataclass
class GateResult:
    attempted: int
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def fail(self, item, why: str) -> None:
        self.failed.add(item)
        if len(self.problems) < 20:
            self.problems.append(f"{item}: {why}")


def factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def p_adic_valuation(value: int, q: int) -> int:
    v = 0
    while value % q == 0:
        value //= q
        v += 1
    return v


def evaluate_form(coeffs, x: int, y: int) -> int:
    """sum c_j x^(d-j) y^j for coefficients listed from x^d down to y^d."""
    d = len(coeffs) - 1
    return sum(c * x ** (d - j) * y**j for j, c in enumerate(coeffs))


def file_digest(path: Path) -> str:
    """SHA-256 of a file with its '# generated <timestamp>' line removed."""
    kept = [
        line
        for line in path.read_bytes().splitlines(keepends=True)
        if not line.startswith(b"# generated ")
    ]
    return hashlib.sha256(b"".join(kept)).hexdigest()


def route_of(notes) -> str:
    if "window_prime" in notes:
        return "window"
    if "cofactor_factor" in notes:
        return "cofactor"
    return "ascending"


def check_search(outdir: Path, coeffs, n_max: int, seed_solutions) -> GateResult:
    from factcert.certify import Certificate, recheck

    grid = [(n, m) for n in range(2, n_max + 1) for m in range(1, n)]
    res = GateResult(attempted=len(grid))
    res.digests = {name: file_digest(outdir / name) for name in OUTPUT_FILES}
    expected = set(grid)

    text = (outdir / "results.csv").read_text(encoding="utf-8")
    body = "".join(line for line in io.StringIO(text, newline="") if not line.startswith("#"))
    rows = list(csv.DictReader(io.StringIO(body, newline="")))
    seen: dict[tuple[int, int], dict] = {}
    for row in rows:
        cell = tuple(int(c) for c in row["cell"].split("|"))
        if cell not in expected:
            res.fail(cell, "outside the grid")
        elif cell in seen:
            res.fail(cell, "listed twice")
        seen[cell] = row
    for cell in expected - set(seen):
        res.fail(cell, "missing from results.csv")

    certs = json.loads((outdir / "certificates.json").read_text(encoding="utf-8"))
    by_cell: dict[tuple[int, int], dict] = {}
    for entry in certs["certificates"]:
        cell = tuple(entry["cell"])
        if cell in by_cell:
            res.fail(cell, "two certificates")
        by_cell[cell] = entry

    totals = {s: 0 for s in STATUSES}
    routes = {"window": 0, "ascending": 0, "cofactor": 0}
    for cell, row in seen.items():
        status = row["status"]
        if status not in totals:
            res.fail(cell, f"unknown status {status!r}")
            continue
        totals[status] += 1
        left = factorial(cell[0]) + factorial(cell[1])
        if status == "SOLUTION":
            try:
                x, y = (int(w) for w in row["witness"].split("|"))
            except ValueError:
                res.fail(cell, f"bad witness {row['witness']!r}")
                continue
            if evaluate_form(coeffs, x, y) != left:
                res.fail(cell, f"witness {(x, y)} does not evaluate to n!+m!")
        entry = by_cell.get(cell)
        if status != "CERTIFIED":
            if entry is not None:
                res.fail(cell, f"{status} cell carries a certificate")
            continue
        if entry is None:
            res.fail(cell, "CERTIFIED without a certificate")
            continue
        q, v = entry["prime"], entry["valuation"]
        if (row["prime"], row["valuation"], row["rule"]) != (str(q), str(v), entry["rule"]):
            res.fail(cell, "results.csv and certificates.json disagree")
        if (entry["A"], entry["B"], list(entry["form_coeffs"])) != (1, 1, list(coeffs)):
            res.fail(cell, "certificate is for another equation")
        if p_adic_valuation(left, q) != v:
            res.fail(cell, f"v_{q}(n!+m!) is not {v}")
        if not recheck(Certificate.from_dict(entry), deep=True):
            res.fail(cell, "certificate does not recheck")
        routes[route_of(entry.get("notes", ()))] += 1
    for cell in set(by_cell) - set(seen):
        res.fail(cell, "certificate for a cell not in results.csv")

    for cell in seed_solutions:
        if seen.get(cell, {}).get("status") != "SOLUTION":
            res.fail(cell, "solved at the seed commit, not SOLUTION now")

    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    unknown = sorted(c for c, r in seen.items() if r["status"] == "UNKNOWN")
    if (
        summary["cells"] != len(rows)
        or summary["totals"] != totals
        or sorted(tuple(c) for c in summary["unknown_cells"]) != unknown
    ):
        res.fail("summary.json", "does not match results.csv")
    res.counts = {"totals": totals, "routes": routes, "rows": len(rows)}
    return res


_OK_LINE = re.compile(r"^ok   \[(\d+)\] cell (\([0-9, ]+\)) q=(\d+) v=(-?\d+) rule=(\S+)$")


def check_recheck(stdout: Path, certs: list[dict]) -> GateResult:
    """Every certificate i must come back as 'ok [i]' with its own cell, prime,
    valuation and rule, and the closing line must count no failures."""
    res = GateResult(attempted=len(certs))
    raw = stdout.read_bytes()
    res.digests = {"stdout": hashlib.sha256(raw).hexdigest()}
    lines = raw.decode("utf-8").splitlines()
    reported: dict[int, tuple] = {}
    for line in lines:
        m = _OK_LINE.match(line)
        if m:
            reported[int(m.group(1))] = m.groups()[1:]
    for i, entry in enumerate(certs):
        want = (str(tuple(entry["cell"])), str(entry["prime"]), str(entry["valuation"]), entry["rule"])
        got = reported.get(i)
        if got != want:
            res.fail(i, f"reported {got}, expected {want}")
    closing = f"rechecked {len(certs)} certificates, 0 failed"
    if not lines or lines[-1] != closing:
        res.fail("summary", f"last line is not {closing!r}")
    res.counts = {"rechecked": len(reported)}
    return res
