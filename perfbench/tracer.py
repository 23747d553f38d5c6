"""Outside-in spans around factcert's layers, for one traced CLI process.

Each hook replaces a public function at the name its callers look up (a
module attribute, or a method on BinaryForm) with a wrapper that records
calls, inclusive seconds and self seconds (the span minus the spans of
hooked functions it called).  No source file of factcert changes.  A hook
whose name is missing raises at install time; a hook that a workload must
reach but never did raises in summary(), so a renamed or bypassed function
can never show up as a layer that cost nothing.
"""

from __future__ import annotations

import statistics
import time

from factcert import arith, certify, cli, forms, obstruction, solver, valuation
from gate import route_of

# (key, layer, owner, attribute).  The owner is where the callers look the
# name up: solver imports certify_cell and its solvers by name, every other
# caller goes through the module attribute.
HOOKS = [
    ("cli.main", "cli", cli, "main"),
    ("solver.run_search", "solver", solver, "run_search"),
    ("solver.classify_cell", "solver", solver, "classify_cell"),
    ("solver.integer_root", "solver", solver, "integer_root"),
    ("solver.represent_definite_quadratic", "solver", solver, "represent_definite_quadratic"),
    ("solver.represent_general_form", "solver", solver, "represent_general_form"),
    ("certify.certify_cell", "certify", solver, "certify_cell"),
    ("certify.recheck", "certify", certify, "recheck"),
    ("obstruction.profile", "obstruction", obstruction, "obstruction_profile"),
    ("obstruction.is_obstruction_prime", "obstruction", obstruction, "is_obstruction_prime"),
    ("obstruction.profile_reducible", "obstruction", obstruction, "obstruction_profile_reducible"),
    ("obstruction.univariate_profile", "obstruction", obstruction, "univariate_obstruction_profile"),
    ("obstruction.verify", "obstruction", obstruction, "verify_forced_exponent"),
    ("valuation.combined", "valuation", valuation, "combined_valuation"),
    ("forms.is_irreducible", "forms", forms.BinaryForm, "is_irreducible"),
    ("arith.partial_factor", "arith", arith, "partial_factor"),
]
LAYERS = ["cli", "solver", "certify", "obstruction", "forms", "valuation", "arith"]
BUILDERS = [
    "obstruction.is_obstruction_prime",
    "obstruction.profile_reducible",
    "obstruction.univariate_profile",
]
SOLVERS = [
    "solver.integer_root",
    "solver.represent_definite_quadratic",
    "solver.represent_general_form",
]
# Hooks each kind of workload must reach; zero calls there is an error.
REQUIRED = {
    "search": [
        "cli.main", "solver.run_search", "solver.classify_cell",
        "certify.certify_cell", "obstruction.profile", "valuation.combined",
        "forms.is_irreducible", "arith.partial_factor",
    ],
    "recheck": [
        "cli.main", "certify.recheck", "obstruction.profile",
        "obstruction.verify", "forms.is_irreducible",
    ],
}
TAIL_PERCENTILES = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_ms"):
        return "ms"
    if last.endswith("_s"):
        return "s"
    if last.endswith("_mb"):
        return "MB"
    if last.endswith("_pct"):
        return "%"
    if last == "certs_per_kattempt":
        return "per_1000"
    if last.endswith(("_ratio", "_yield", "_frac")):
        return "ratio"
    return "count"


class TraceError(RuntimeError):
    """The hooks no longer match the program; the traced numbers would lie."""


class Tracer:
    def __init__(self) -> None:
        self.calls = {key: 0 for key, *_ in HOOKS}
        self.total = {key: 0.0 for key, *_ in HOOKS}
        self.self_s = {key: 0.0 for key, *_ in HOOKS}
        self.layer = {key: layer for key, layer, *_ in HOOKS}
        self._active = {key: 0 for key, *_ in HOOKS}
        self._stack: list[list[float]] = []
        self._originals: list[tuple[object, str, object]] = []
        # per-cell and per-route counters
        self.cell_ms: list[float] = []
        self.cell_solver = [0, 0.0]  # solver calls and outermost seconds in this cell
        self.cross_check = [0, 0.0]
        self.exact_solve = [0, 0.0]
        self.prime_attempts = 0
        self.uncertified_s = 0.0
        self.routes = {"window": 0, "ascending": 0, "cofactor": 0}
        self._profile_cache = None
        self.cache_before = None

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for key, _layer, owner, attr in HOOKS:
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None or not callable(fn):
                raise TraceError(f"hook {key}: {owner.__name__}.{attr} is missing")
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(key, fn))
        self._profile_cache = obstruction.obstruction_profile.__wrapped__
        self.cache_before = self._profile_cache.cache_info()

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def _wrap(self, key: str, fn):
        stack = self._stack
        active = self._active
        calls, total, self_s = self.calls, self.total, self.self_s
        clock = time.perf_counter
        after = {
            "solver.classify_cell": self._after_cell,
            "certify.certify_cell": self._after_certify,
        }.get(key)
        counts_attempt = key == "obstruction.profile"
        solver_fn = key in SOLVERS

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[key] += 1
            if counts_attempt and active["certify.certify_cell"]:
                self.prime_attempts += 1
            if solver_fn:
                self.cell_solver[0] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                active[key] -= 1
                calls[key] += 1
                if not active[key]:
                    total[key] += dt
                self_s[key] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if solver_fn and not any(active[k] for k in SOLVERS):
                    self.cell_solver[1] += dt
                if after is not None:
                    after(result, dt)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _after_cell(self, result, dt: float) -> None:
        self.cell_ms.append(dt * 1000.0)
        bucket = (
            self.cross_check
            if result is not None and result.status is solver.CellStatus.CERTIFIED
            else self.exact_solve
        )
        bucket[0] += self.cell_solver[0]
        bucket[1] += self.cell_solver[1]
        self.cell_solver = [0, 0.0]

    def _after_certify(self, cert, dt: float) -> None:
        if cert is None:
            self.uncertified_s += dt
            return
        self.routes[route_of(cert.notes)] += 1

    # -- reporting --------------------------------------------------------

    def summary(self, kind: str) -> dict:
        """Per-layer metrics; raises TraceError if a required hook went unused."""
        unused = [key for key in REQUIRED[kind] if self.calls[key] == 0]
        if unused:
            raise TraceError(f"hooks never called on a {kind} workload: {', '.join(unused)}")
        cache_after = self._profile_cache.cache_info()
        hits = cache_after.hits - self.cache_before.hits
        misses = cache_after.misses - self.cache_before.misses
        c, t, s = self.calls, self.total, self.self_s
        certs = sum(self.routes.values())
        out = {
            "arith.partial_factor_calls": c["arith.partial_factor"],
            "arith.partial_factor_s": t["arith.partial_factor"],
            "arith.rho_yield": _ratio(self.routes["cofactor"], c["arith.partial_factor"]),
            "valuation.combined_calls": c["valuation.combined"],
            "valuation.combined_s": t["valuation.combined"],
            "obstruction.profile_calls": c["obstruction.profile"],
            "obstruction.profile_s": t["obstruction.profile"],
            "obstruction.build_calls": sum(c[k] for k in BUILDERS),
            "obstruction.build_s": sum(t[k] for k in BUILDERS),
            "obstruction.hit_ratio": _ratio(hits, hits + misses),
            "obstruction.verify_calls": c["obstruction.verify"],
            "obstruction.verify_s": t["obstruction.verify"],
            "forms.is_irreducible_calls": c["forms.is_irreducible"],
            "forms.is_irreducible_s": t["forms.is_irreducible"],
            "certify.certify_cell_calls": c["certify.certify_cell"],
            "certify.certify_cell_s": t["certify.certify_cell"],
            "certify.self_s": s["certify.certify_cell"],
            "certify.prime_attempts": self.prime_attempts,
            "certify.certs_per_kattempt": _ratio(1000 * certs, self.prime_attempts),
            "certify.uncertified_s": self.uncertified_s,
            "certify.route_window": self.routes["window"],
            "certify.route_ascending": self.routes["ascending"],
            "certify.route_cofactor": self.routes["cofactor"],
            "certify.recheck_calls": c["certify.recheck"],
            "certify.recheck_s": t["certify.recheck"],
            "certify.recheck_self_s": s["certify.recheck"],
            "solver.cells": c["solver.classify_cell"],
            "solver.cross_check_s": self.cross_check[1],
            "solver.cross_check_calls": self.cross_check[0],
            "solver.exact_solve_s": self.exact_solve[1],
            "solver.exact_solve_calls": self.exact_solve[0],
            "solver.run_search_self_s": s["solver.run_search"],
            "cli.self_s": s["cli.main"],
        }
        out.update(cell_percentiles(self.cell_ms))
        for layer in LAYERS[1:]:  # cli's is cli.self_s
            out[f"{layer}.layer_self_s"] = sum(
                s[key] for key in s if self.layer[key] == layer
            )
        out["trace.main_s"] = t["cli.main"]
        return out


def cell_percentiles(cell_ms: list[float]) -> dict:
    """Median cell time and the highest listed percentile with at least ten
    cells beyond it, with that percentile and the sample count."""
    n = len(cell_ms)
    out = {"solver.cell_samples": n, "solver.cell_p50_ms": 0.0,
           "solver.cell_tail_ms": 0.0, "solver.cell_tail_pct": 0.0}
    if n == 0:
        return out
    ordered = sorted(cell_ms)
    out["solver.cell_p50_ms"] = statistics.median(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = min(n - 1, int(n * pct / 100.0))
            out["solver.cell_tail_ms"] = ordered[rank]
            out["solver.cell_tail_pct"] = pct
            break
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
