"""Command-line front end.

Six subcommands on one executable:

  search        classify every cell of a factorial equation over a finite range
  certify       build a divisibility certificate for a single cell
  obstruct-scan tabulate eligible obstruction primes for a target in [lo, hi]
  bounds        numeric bound extraction (Stirling crossings, radical checks,
                conditional pipelines)
  reproduce     rerun a named preset and diff against its expected outcome
  recheck       revalidate a stored certificate file from scratch

Conventions shared by all subcommands: options may come from an INI file
(--config, section [factcert]) with command-line flags winning; the resolved
configuration is hashed (sha256) and the hash is embedded in every output, so
two artifacts with equal hashes were built from identical settings.  Exit
status is 0 when the requested work completed with nothing left open, 1 on
input errors, and 2 when unknowns or mismatches remain.

Targets are written in a compressed token grammar ("x2+y2", "x^2-1",
"3x2-2xy+y2", rational coefficients like "1/2x2" allowed) up to degree 4;
degree 5 and above must be spelled out with --kind and --coeffs (leading
coefficient first) so exponent typos cannot slip through the dense notation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import datetime as _dt
import hashlib
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import certify as certify_mod
from . import forms as forms_mod
from . import obstruction as obstruction_mod
from . import solver as solver_mod
from . import valuation as valuation_mod
from .arith import SieveBudgetError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_OPEN = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as shells report Ctrl-C

GRAMMAR_DEGREE_LIMIT = 4
DECIMAL_PRINT_LIMIT = 10**40

_STATUS_ORDER = [s.value for s in solver_mod.CellStatus]


class CLIInputError(ValueError):
    """Bad user input; reported on stderr and mapped to exit status 1."""


# ---------------------------------------------------------------------------
# Target grammar
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d+)?)?"
    r"(?:x(?:\^)?(?P<xe>\d+)?)?"
    r"(?:y(?:\^)?(?P<ye>\d+)?)?$"
)


def _split_terms(text: str) -> list[tuple[int, str]]:
    """[(sign, body)] for a +/- separated token string."""
    compact = text.replace(" ", "").lower()
    if not compact:
        raise CLIInputError("empty target expression")
    out = []
    sign, body = 1, ""
    first = True
    for ch in compact:
        if ch in "+-" and not first:
            if not body:
                raise CLIInputError(f"dangling sign in {text!r}")
            out.append((sign, body))
            sign, body = (1 if ch == "+" else -1), ""
        elif ch in "+-":
            sign = 1 if ch == "+" else -1
            first = False
        else:
            body += ch
            first = False
    if not body:
        raise CLIInputError(f"dangling sign in {text!r}")
    out.append((sign, body))
    return out


def _parse_term(body: str) -> tuple[Fraction, int, int]:
    m = _TERM_RE.match(body)
    if m is None or not body:
        raise CLIInputError(f"cannot parse term {body!r}")
    coeff_s, xe, ye = m.group("coeff"), m.group("xe"), m.group("ye")
    if coeff_s is None and "x" not in body and "y" not in body:
        raise CLIInputError(f"cannot parse term {body!r}")
    coeff = Fraction(coeff_s) if coeff_s else Fraction(1)
    # bare "x" means exponent 1; "x2" and "x^2" both mean exponent 2
    i = (1 if xe is None else int(xe)) if "x" in body else 0
    j = (1 if ye is None else int(ye)) if "y" in body else 0
    return coeff, i, j


def parse_form_token(text: str) -> list[Fraction]:
    """Homogeneous binary form from compressed tokens; coefficients of
    x^(d-j) y^j for j = 0..d."""
    acc: dict[tuple[int, int], Fraction] = {}
    for sign, body in _split_terms(text):
        coeff, i, j = _parse_term(body)
        acc[(i, j)] = acc.get((i, j), Fraction(0)) + sign * coeff
    degrees = {i + j for i, j in acc}
    if len(degrees) != 1:
        raise CLIInputError(f"form {text!r} is not homogeneous")
    d = degrees.pop()
    if d < 1:
        raise CLIInputError(f"form {text!r} has no variables")
    if d > GRAMMAR_DEGREE_LIMIT:
        raise CLIInputError(
            f"degree {d} exceeds the token grammar limit "
            f"({GRAMMAR_DEGREE_LIMIT}); pass --kind form --coeffs instead"
        )
    return [acc.get((d - j, j), Fraction(0)) for j in range(d + 1)]


def parse_poly_token(text: str) -> list[Fraction]:
    """Univariate polynomial from compressed tokens; leading coefficient
    first."""
    acc: dict[int, Fraction] = {}
    for sign, body in _split_terms(text):
        coeff, i, j = _parse_term(body)
        if j:
            raise CLIInputError(f"polynomial {text!r} must use x only")
        acc[i] = acc.get(i, Fraction(0)) + sign * coeff
    d = max(acc)
    if d < 1:
        raise CLIInputError(f"polynomial {text!r} is constant")
    if d > GRAMMAR_DEGREE_LIMIT:
        raise CLIInputError(
            f"degree {d} exceeds the token grammar limit "
            f"({GRAMMAR_DEGREE_LIMIT}); pass --kind poly --coeffs instead"
        )
    return [acc.get(i, Fraction(0)) for i in range(d, -1, -1)]


def _parse_coeff_list(text: str) -> list[Fraction]:
    try:
        out = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise CLIInputError(f"bad coefficient list {text!r}: {exc}") from None
    if len(out) < 2:
        raise CLIInputError("coefficient lists need at least two entries")
    if out[0] == 0:
        raise CLIInputError("leading coefficient must be nonzero")
    return out


# ---------------------------------------------------------------------------
# Configuration resolution and hashing
# ---------------------------------------------------------------------------

# defaults per resolvable key; None marks "unset"
_DEFAULTS: dict[str, object] = {
    "family": "sum",
    "a": 1,
    "b": 1,
    "form": None,
    "poly": None,
    "kind": None,
    "coeffs": None,
    "n_max": None,
    "m_min": 1,
    "m_max": None,
    "prod_bounds": None,
    "single_factorial": False,
    "include_diagonal": False,
    "range_override": False,
    "prime_budget": solver_mod.DEFAULT_PRIME_BUDGET,
    "ball_cap": solver_mod.DEFAULT_BALL_CAP,
    "rho_steps": solver_mod.DEFAULT_RHO_STEPS,
    "workers": 1,
    "checkpoint": None,
    "out": None,
    "n": None,
    "m": None,
    "dfact": None,
    "lo": None,
    "hi": None,
    "stirling": None,
    "radical": None,
    "epsilon": None,
    "k_epsilon": None,
    "multiplier": 1,
}

_INT_KEYS = {
    "a", "b", "n_max", "m_min", "m_max", "prime_budget", "ball_cap",
    "rho_steps", "workers", "n", "m", "lo", "hi",
    "radical", "multiplier",
}
_BOOL_KEYS = {"single_factorial", "include_diagonal", "range_override"}
_LIST_KEYS = {"prod_bounds", "dfact"}


def _coerce_ini(key: str, raw: str):
    raw = raw.strip()
    if key in _BOOL_KEYS:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise CLIInputError(f"config key {key}: not a boolean: {raw!r}")
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise CLIInputError(f"config key {key}: not an integer: {raw!r}") from None
    if key in _LIST_KEYS:
        return _parse_int_list(raw, key)
    return raw


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise CLIInputError(f"{what}: not a comma list of integers: {text!r}") from None


def resolve_config(args: argparse.Namespace, keys: list[str]) -> dict[str, object]:
    """defaults <- INI file <- explicit flags, restricted to keys."""
    file_vals: dict[str, str] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        parser = configparser.ConfigParser()
        try:
            with open(config_path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise CLIInputError(f"cannot read config file: {exc}") from None
        except configparser.Error as exc:
            raise CLIInputError(f"bad config file: {exc}") from None
        section = "factcert" if parser.has_section("factcert") else parser.default_section
        file_vals = dict(parser.items(section))
    resolved: dict[str, object] = {}
    for key in keys:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            if key in _LIST_KEYS and isinstance(flag_val, str):
                flag_val = _parse_int_list(flag_val, key)
            resolved[key] = flag_val
        elif key in file_vals:
            resolved[key] = _coerce_ini(key, file_vals[key])
        else:
            resolved[key] = _DEFAULTS[key]
    return resolved


def _canon(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


# keys that never change result bytes: equal hashes must mean equal results,
# so where files land and how work is scheduled stay out of the digest
_UNHASHED_KEYS = {"out", "checkpoint", "workers"}


def config_hash(resolved: dict[str, object]) -> str:
    lines = [
        f"{k}={_canon(v)}"
        for k, v in sorted(resolved.items())
        if k not in _UNHASHED_KEYS
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Equation assembly
# ---------------------------------------------------------------------------


def _target_spec(cfg: dict) -> tuple[str, list[Fraction], str | None]:
    """(kind, coefficients, bundled-name) from whichever target flag is set."""
    form_tok, poly_tok, coeffs = cfg.get("form"), cfg.get("poly"), cfg.get("coeffs")
    kind_flag = cfg.get("kind")
    given = sum(x is not None for x in (form_tok, poly_tok, coeffs))
    if given != 1:
        raise CLIInputError(
            "pass exactly one target: --form TOKEN, --poly TOKEN, "
            "or --kind {form,poly} with --coeffs LIST"
        )
    if coeffs is not None:
        if kind_flag not in ("form", "poly"):
            raise CLIInputError("--coeffs needs --kind form or --kind poly")
        parsed = coeffs if isinstance(coeffs, list) else _parse_coeff_list(coeffs)
        return kind_flag, parsed, None
    if form_tok is not None:
        token = form_tok.replace(" ", "").lower()
        return "form", parse_form_token(form_tok), token
    return "poly", parse_poly_token(poly_tok), None


def build_equation(cfg: dict) -> certify_mod.Equation:
    family = str(cfg.get("family", "sum")).lower()
    if family not in ("sum", "prod"):
        raise CLIInputError(f"unknown family {family!r}; use sum or prod")
    target, mult = _bare_target(cfg)
    a, b = int(cfg.get("a", 1)), int(cfg.get("b", 1))
    binary = isinstance(target, forms_mod.BinaryForm)
    Family = certify_mod.Family
    if family == "sum":
        fam = Family.SUM_FACT_BINARY if binary else Family.SUM_FACT_UNI
        a *= mult
    else:
        fam = Family.PROD_DFACT_BINARY if binary else Family.PROD_DFACT_UNI
        a = 1  # product families have no a
    try:
        return certify_mod.Equation(
            family=fam,
            a=a,
            b=b * mult,
            form=target if binary else None,
            poly=None if binary else target,
            scaling=mult,
        )
    except ValueError as exc:
        raise CLIInputError(str(exc)) from None


def _bare_target(cfg: dict):
    """Target object without an equation around it (scan / bounds inputs)."""
    kind, coeffs, bundle_key = _target_spec(cfg)
    if kind == "form" and bundle_key in forms_mod.BUNDLED_FORMS:
        return forms_mod.BUNDLED_FORMS[bundle_key], 1
    ints, mult = forms_mod.clear_denominators(coeffs)
    try:
        if kind == "form":
            return forms_mod.BinaryForm(ints), mult
        return forms_mod.UnivariatePoly(ints), mult
    except ValueError as exc:
        raise CLIInputError(str(exc)) from None


def _equation_summary(eq: certify_mod.Equation) -> dict:
    return {
        "family": eq.family.value,
        "a": eq.a,
        "b": eq.b,
        "target_kind": "form" if eq.form is not None else "poly",
        "coeffs": list(eq.target.coeffs),
        "scaling": eq.scaling,
    }


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _timestamp() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _sketch_text(sketch: dict[int, int]) -> str:
    if not sketch:
        return "1"
    return " ".join(f"{p}^{e}" for p, e in sorted(sketch.items()))


def _cell_factorials(eq, cell, single: bool) -> tuple[list[str], list[str]]:
    """Per-argument factorial numbers: decimal strings (when printable) and
    prime-exponent sketches (always)."""
    decimals, sketches = [], []
    if eq.is_sum:
        args_ = [cell[0]] if single else list(cell)
        for n in args_:
            value = math.factorial(n)
            decimals.append(str(value) if value < DECIMAL_PRINT_LIMIT else "")
            sketches.append(_sketch_text(valuation_mod.factorial_sketch(n)))
    else:
        for n in cell:
            value = valuation_mod.double_factorial_exact(n)
            decimals.append(str(value) if value < DECIMAL_PRINT_LIMIT else "")
            sketches.append(_sketch_text(valuation_mod.double_factorial_sketch(n)))
    return decimals, sketches


def _write_search_outputs(outdir: Path, cfg_hash: str, eq, task, report) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    single = task.single_factorial

    csv_path = outdir / "results.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# generated {_timestamp()}\r\n")
        fh.write(f"# config {cfg_hash}\r\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["cell", "status", "witness", "prime", "valuation", "rule",
             "note", "factorials", "sketches"]
        )
        for res in report.results:
            cert = res.certificate
            decimals, sketches = _cell_factorials(eq, res.cell, single)
            writer.writerow([
                "|".join(str(c) for c in res.cell),
                res.status.value,
                "" if res.witness is None else "|".join(str(w) for w in res.witness),
                "" if cert is None else str(cert.prime),
                "" if cert is None else str(cert.valuation),
                "" if cert is None else cert.rule,
                res.note,
                "|".join(decimals),
                "|".join(sketches),
            ])

    summary = {
        "config": cfg_hash,
        "command": "search",
        "equation": _equation_summary(eq),
        "task_hash": report.task_hash,
        "cells": len(report.results),
        "totals": {k: report.totals.get(k, 0) for k in _STATUS_ORDER},
        "solutions": [
            {"cell": list(r.cell), "witness": list(r.witness)}
            for r in report.solutions
        ],
        "unknown_cells": [
            list(r.cell)
            for r in report.results
            if r.status is solver_mod.CellStatus.UNKNOWN
        ],
    }
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    certs = {
        "config": cfg_hash,
        "certificates": [
            r.certificate.to_dict()
            for r in report.results
            if r.certificate is not None
        ],
    }
    with open(outdir / "certificates.json", "w", encoding="utf-8") as fh:
        json.dump(certs, fh, indent=2)
        fh.write("\n")
    return summary


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_SEARCH_KEYS = [
    "family", "a", "b", "form", "poly", "kind", "coeffs", "n_max", "m_min",
    "m_max", "prod_bounds", "single_factorial", "include_diagonal",
    "range_override", "prime_budget", "ball_cap", "rho_steps", "workers",
    "checkpoint", "out",
]


def _build_search_task(cfg: dict) -> tuple[certify_mod.Equation, solver_mod.SearchTask]:
    eq = build_equation(cfg)
    try:
        task = solver_mod.SearchTask(
            equation=eq,
            n_max=cfg["n_max"],
            m_min=cfg["m_min"],
            m_max=cfg["m_max"],
            prod_bounds=cfg["prod_bounds"],
            single_factorial=bool(cfg["single_factorial"]),
            include_diagonal=bool(cfg["include_diagonal"]),
            range_override=bool(cfg["range_override"]),
            prime_budget=cfg["prime_budget"],
            ball_cap=cfg["ball_cap"],
            rho_steps=cfg["rho_steps"],
            checkpoint_path=cfg["checkpoint"],
            workers=cfg["workers"],
        )
    except ValueError as exc:
        raise CLIInputError(str(exc)) from None
    return eq, task


def cmd_search(args: argparse.Namespace) -> int:
    cfg = resolve_config(args, _SEARCH_KEYS)
    cfg_hash = config_hash(cfg)
    eq, task = _build_search_task(cfg)
    report = solver_mod.run_search(task)
    outdir = Path(cfg["out"] or f"runs/{cfg_hash[:12]}")
    summary = _write_search_outputs(outdir, cfg_hash, eq, task, report)

    print(f"# config {cfg_hash}")
    totals = summary["totals"]
    print(
        "cells {}  solution {}  certified {}  none_exhaustive {}  "
        "degenerate {}  unknown {}".format(
            summary["cells"],
            totals["SOLUTION"],
            totals["CERTIFIED"],
            totals["NONE_EXHAUSTIVE"],
            totals["DEGENERATE"],
            totals["UNKNOWN"],
        )
    )
    for sol in summary["solutions"]:
        cell = ",".join(str(c) for c in sol["cell"])
        wit = ",".join(str(w) for w in sol["witness"])
        print(f"solution at ({cell}) with witness ({wit})")
    print(f"wrote {outdir}/results.csv, summary.json, certificates.json")
    return EXIT_OK if totals["UNKNOWN"] == 0 else EXIT_OPEN


_CERTIFY_KEYS = [
    "family", "a", "b", "form", "poly", "kind", "coeffs", "n", "m", "dfact",
    "prime_budget", "rho_steps", "out",
]


def cmd_certify(args: argparse.Namespace) -> int:
    cfg = resolve_config(args, _CERTIFY_KEYS)
    cfg_hash = config_hash(cfg)
    eq = build_equation(cfg)
    if eq.is_sum:
        if cfg["n"] is None or cfg["m"] is None:
            raise CLIInputError("sum cells need --n and --m")
        cell: tuple[int, ...] = (cfg["n"], cfg["m"])
    else:
        if cfg["dfact"] is None:
            raise CLIInputError("product cells need --dfact N1,N2,...")
        cell = tuple(cfg["dfact"])
    try:
        cert = certify_mod.certify_cell(
            eq,
            cell,
            prime_budget=cfg["prime_budget"],
            rho_steps=cfg["rho_steps"],
        )
    except ValueError as exc:  # ZeroLeftSideError among them
        raise CLIInputError(str(exc)) from None
    if cert is None:
        print(f"# config {cfg_hash}", file=sys.stderr)
        print(f"no certificate within budget at cell {cell}", file=sys.stderr)
        return EXIT_OPEN
    payload = {"config": cfg_hash, "certificates": [cert.to_dict()]}
    text = json.dumps(payload, indent=2)
    print(text)
    if cfg["out"]:
        Path(cfg["out"]).parent.mkdir(parents=True, exist_ok=True)
        Path(cfg["out"]).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


_SCAN_KEYS = ["form", "poly", "kind", "coeffs", "lo", "hi"]


def cmd_obstruct_scan(args: argparse.Namespace) -> int:
    cfg = resolve_config(args, _SCAN_KEYS)
    cfg_hash = config_hash(cfg)
    if cfg["lo"] is None or cfg["hi"] is None:
        raise CLIInputError("obstruct-scan needs --from and --to")
    lo, hi = cfg["lo"], cfg["hi"]
    target, mult = _bare_target(cfg)
    try:
        scan = obstruction_mod.scan_obstruction_primes(target, lo, hi)
    except ValueError as exc:
        raise CLIInputError(str(exc)) from None
    print(f"# config {cfg_hash}")
    if mult != 1:
        print(f"# denominators cleared: target scaled by {mult}")
    print(f"{'q':>6}  {'forced_exp':>10}  rule")
    for q in scan.eligible_primes:
        profile = obstruction_mod.obstruction_profile(target, q)
        exp = "inf" if profile.unbounded else str(profile.forced_exponent)
        print(f"{q:>6}  {exp:>10}  {profile.reason}")
    print(
        f"# eligible {len(scan.eligible_primes)} of {scan.total_primes} "
        f"primes in [{lo}, {hi}]  density {scan.density:.3f}"
    )
    return EXIT_OK


_BOUNDS_KEYS = [
    "stirling", "radical", "form", "poly", "kind", "coeffs", "epsilon",
    "k_epsilon", "multiplier",
]


def _parse_stirling(text: str) -> bounds_mod.StirlingInequality:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise CLIInputError("--stirling wants four comma values: A,B,C,E")
    try:
        a_, b_, c_, e_ = (float(p) for p in parts)
    except ValueError:
        raise CLIInputError(f"--stirling: not numbers: {text!r}") from None
    if a_ <= 0:
        raise CLIInputError("--stirling: slope A must be positive")
    if e_ <= 0:
        raise CLIInputError("--stirling: prefactor E must be positive")
    # zero means "absent": B=0 selects the single-variable inequality
    kind = bounds_mod.StirlingKind.DOUBLE if b_ > 0 else bounds_mod.StirlingKind.SINGLE
    try:
        return bounds_mod.StirlingInequality(
            kind=kind,
            a=a_,
            b=b_ if b_ > 0 else None,
            c=c_ if c_ > 0 else None,
            e=e_,
        )
    except ValueError as exc:
        raise CLIInputError(str(exc)) from None


def cmd_bounds(args: argparse.Namespace) -> int:
    cfg = resolve_config(args, _BOUNDS_KEYS)
    cfg_hash = config_hash(cfg)
    chosen = sum(
        x is not None
        for x in (cfg["stirling"], cfg["radical"],
                  cfg["form"] or cfg["poly"] or cfg["coeffs"])
    )
    if chosen != 1:
        raise CLIInputError(
            "pick one mode: --stirling A,B,C,E | --radical M | a polynomial "
            "target (--poly / --kind poly --coeffs) with --epsilon"
        )

    if cfg["stirling"] is not None:
        ineq = _parse_stirling(cfg["stirling"])
        print(f"# config {cfg_hash}")
        try:
            if ineq.kind is bounds_mod.StirlingKind.SINGLE:
                m_max = bounds_mod.stirling_bound(ineq)
                print(f"kind SINGLE  slope {ineq.a}  intercept_log {ineq.intercept_log()}")
                print(f"m_max={m_max}")
            else:
                frontier = bounds_mod.stirling_frontier(ineq)
                print(f"kind DOUBLE  slopes ({ineq.a}, {ineq.b})")
                print(f"slices {len(frontier)}")
                shown = frontier if len(frontier) <= 50 else frontier[:25] + frontier[-25:]
                for n1, m_lo, m_hi in shown:
                    print(f"  n1={n1}  m1 in [{m_lo}, {m_hi}]")
                if len(frontier) > 50:
                    print("  ... (middle slices elided)")
                print(f"m_max={frontier[-1][0] if frontier else 0}")
        except bounds_mod.BoundScanError as exc:
            print(f"unresolved: {exc}")
            return EXIT_OPEN
        return EXIT_OK

    if cfg["radical"] is not None:
        m = cfg["radical"]
        if m < 1:
            raise CLIInputError("--radical wants a positive integer")
        try:
            rb = bounds_mod.radical_bound_factorial(m)
        except SieveBudgetError:
            raise CLIInputError(
                f"sieve limit exceeded: --radical {m} is too large for the sieve budget"
            ) from None
        print(f"# config {cfg_hash}")
        print(f"m {rb.m}  block (2m+1) {rb.block}")
        print(f"log radical {rb.theta_log:.6f}")
        print(f"log envelope {rb.envelope_log:.6f}")
        print(f"margin {rb.margin:.6f}  below={str(rb.below).lower()}")
        return EXIT_OK

    kind, coeffs, _ = _target_spec(cfg)
    if kind != "poly":
        raise CLIInputError("conditional bounds take a univariate polynomial")
    ints, mult = forms_mod.clear_denominators(coeffs)
    poly = forms_mod.UnivariatePoly(ints)
    try:
        eps = Fraction(cfg["epsilon"]) if cfg["epsilon"] is not None else None
    except (ValueError, ZeroDivisionError):
        raise CLIInputError(f"bad --epsilon value {cfg['epsilon']!r}") from None
    try:
        params = bounds_mod.AbcParams(
            epsilon=eps,
            k_epsilon=float(cfg["k_epsilon"]) if cfg["k_epsilon"] is not None else 1.0,
        )
    except ValueError as exc:
        raise CLIInputError(str(exc)) from None
    multiplier = cfg["multiplier"] * mult
    try:
        report = bounds_mod.conditional_bound_pipeline(
            poly, params, multiplier=multiplier
        )
    except bounds_mod.MonomialTargetError as exc:
        payload = {
            "config": cfg_hash,
            "monomial_target": {
                "scaling_constant": exc.scaling_constant,
                "certifier_threshold": exc.certifier_threshold,
            },
            "note": (
                "pure power after depression; window primes close every "
                "argument above the threshold, no conditional bound needed"
            ),
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    except ValueError as exc:
        raise CLIInputError(str(exc)) from None
    print(json.dumps({"config": cfg_hash, "bound_report": report.to_dict()}, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _preset_brocard() -> tuple[solver_mod.SearchTask, dict]:
    eq = certify_mod.Equation.sum_univariate(1, 1, (1, 0, -1))
    task = solver_mod.SearchTask(equation=eq, n_max=500, single_factorial=True)
    return task, {(4,): (5,), (5,): (11,), (7,): (71,)}


def _preset_erdos_oblath() -> tuple[solver_mod.SearchTask, dict]:
    eq = certify_mod.Equation.sum_univariate(1, 1, (1, 0, 0))
    task = solver_mod.SearchTask(equation=eq, n_max=30, m_min=1)
    return task, {(4, 1): (5,), (5, 1): (11,), (5, 4): (12,), (7, 1): (71,)}


def _preset_double_fact_squares() -> tuple[solver_mod.SearchTask, dict]:
    eq = certify_mod.Equation.product_univariate(1, (1, 0, 0))
    task = solver_mod.SearchTask(equation=eq, prod_bounds=(100,))
    return task, {(0,): (1,), (1,): (1,)}


PRESETS = {
    "BROCARD": _preset_brocard,
    "ERDOS_OBLATH": _preset_erdos_oblath,
    "DOUBLE_FACT_SQUARES": _preset_double_fact_squares,
}


def cmd_reproduce(args: argparse.Namespace) -> int:
    name = args.preset.upper().replace("-", "_")
    if name not in PRESETS:
        raise CLIInputError(
            f"unknown preset {args.preset!r}; choose from {', '.join(sorted(PRESETS))}"
        )
    task, expected = PRESETS[name]()
    if args.workers is not None:
        task = dataclasses.replace(task, workers=args.workers)
    cfg = {"preset": name, "workers": task.workers}
    cfg_hash = config_hash(cfg)
    report = solver_mod.run_search(task)
    outdir = Path(args.out or f"runs/{name.lower()}")
    _write_search_outputs(outdir, cfg_hash, task.equation, task, report)

    found = {r.cell: r.witness for r in report.solutions}
    unknown = report.totals.get("UNKNOWN", 0)
    print(f"# config {cfg_hash}")
    print(f"preset {name}: {len(report.results)} cells, {unknown} unknown")
    clean = unknown == 0
    for cell in sorted(expected):
        wit = expected[cell]
        got = found.get(cell)
        if got == wit:
            print(f"  ok       cell {cell} witness {wit}")
        else:
            clean = False
            print(f"  MISSING  cell {cell} expected witness {wit}, got {got}")
    for cell in sorted(set(found) - set(expected)):
        clean = False
        print(f"  EXTRA    cell {cell} witness {found[cell]}")
    print(f"wrote {outdir}/results.csv, summary.json, certificates.json")
    print("reproduced" if clean else "MISMATCH")
    return EXIT_OK if clean else EXIT_OPEN


def cmd_recheck(args: argparse.Namespace) -> int:
    path = Path(args.certs)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CLIInputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CLIInputError(f"not valid JSON: {path}: {exc}") from None
    if isinstance(data, dict):
        items = data.get("certificates")
        if not isinstance(items, list):
            raise CLIInputError(f"{path}: no certificate list found")
    elif isinstance(data, list):
        items = data
    else:
        raise CLIInputError(f"{path}: no certificate list found")

    failures = 0
    for idx, entry in enumerate(items):
        label = f"[{idx}]"
        try:
            cert = certify_mod.Certificate.from_dict(entry)
            label = f"[{idx}] cell {cert.cell} q={cert.prime}"
            ok = certify_mod.recheck(cert, deep=args.deep)
        except Exception as exc:  # malformed data counts as failure
            failures += 1
            print(f"FAIL {label}: {type(exc).__name__}: {exc}")
            continue
        if ok:
            print(f"ok   {label} v={cert.valuation} rule={cert.rule}")
        else:
            failures += 1
            print(f"FAIL {label} does not revalidate")
    total = len(items)
    print(f"rechecked {total} certificate{'s' if total != 1 else ''}, {failures} failed")
    return EXIT_OK if failures == 0 else EXIT_OPEN


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this front end reserves 2 for open
    results, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_target_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--form", help="binary form token, e.g. x2+y2")
    p.add_argument("--poly", help="univariate token, e.g. x^2-1")
    p.add_argument("--kind", choices=("form", "poly"),
                   help="target kind when passing raw --coeffs")
    p.add_argument("--coeffs",
                   help="comma coefficient list, leading coefficient first "
                        "(required for degree 5 and above)")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="factcert", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ps = sub.add_parser("search", help="classify every cell in a range")
    ps.add_argument("--config", help="INI file, section [factcert]")
    ps.add_argument("--family", choices=("sum", "prod"))
    ps.add_argument("--a", type=int)
    ps.add_argument("--b", type=int)
    _add_target_flags(ps)
    ps.add_argument("--nmax", dest="n_max", type=int)
    ps.add_argument("--mmin", dest="m_min", type=int)
    ps.add_argument("--mmax", dest="m_max", type=int)
    ps.add_argument("--prod-bounds", dest="prod_bounds",
                    help="comma list of per-argument caps, e.g. 100 or 60,60")
    ps.add_argument("--single-factorial", dest="single_factorial",
                    action=argparse.BooleanOptionalAction, default=None)
    ps.add_argument("--include-diagonal", dest="include_diagonal",
                    action=argparse.BooleanOptionalAction, default=None)
    ps.add_argument("--range-override", dest="range_override",
                    action=argparse.BooleanOptionalAction, default=None)
    ps.add_argument("--prime-budget", dest="prime_budget", type=int)
    ps.add_argument("--ball-cap", dest="ball_cap", type=int)
    ps.add_argument("--rho-steps", dest="rho_steps", type=int)
    ps.add_argument("--workers", type=int)
    ps.add_argument("--checkpoint", help="checkpoint file (JSON lines, resumable)")
    ps.add_argument("--out", help="output directory (default runs/<hash12>)")
    ps.set_defaults(func=cmd_search)

    pc = sub.add_parser("certify", help="one-cell divisibility certificate")
    pc.add_argument("--config", help="INI file, section [factcert]")
    pc.add_argument("--family", choices=("sum", "prod"))
    pc.add_argument("--a", type=int)
    pc.add_argument("--b", type=int)
    _add_target_flags(pc)
    pc.add_argument("--n", type=int, help="sum cell: factorial argument n")
    pc.add_argument("--m", type=int, help="sum cell: factorial argument m")
    pc.add_argument("--dfact", help="product cell: comma list of !! arguments")
    pc.add_argument("--prime-budget", dest="prime_budget", type=int)
    pc.add_argument("--rho-steps", dest="rho_steps", type=int)
    pc.add_argument("--out", help="also write the JSON here")
    pc.set_defaults(func=cmd_certify)

    po = sub.add_parser("obstruct-scan", help="eligible primes in a range")
    po.add_argument("--config", help="INI file, section [factcert]")
    _add_target_flags(po)
    po.add_argument("--from", dest="lo", type=int, help="scan start (prime range)")
    po.add_argument("--to", dest="hi", type=int, help="scan end, inclusive")
    po.set_defaults(func=cmd_obstruct_scan)

    pb = sub.add_parser("bounds", help="numeric bound extraction")
    pb.add_argument("--config", help="INI file, section [factcert]")
    pb.add_argument("--stirling",
                    help="A,B,C,E crossing solve; B=0 or C=0 mean absent")
    pb.add_argument("--radical", type=int,
                    help="radical-vs-envelope check at this double-factorial index")
    _add_target_flags(pb)
    pb.add_argument("--epsilon", help="rational like 1/4; default 1/(2 degree)")
    pb.add_argument("--k-epsilon", dest="k_epsilon",
                    help="conditional constant K(eps) (default 1.0)")
    pb.add_argument("--multiplier", type=int,
                    help="scalar multiplier on the right side (default 1)")
    pb.set_defaults(func=cmd_bounds)

    pr = sub.add_parser("reproduce", help="rerun a preset and diff the outcome")
    pr.add_argument("--preset", required=True,
                    help=", ".join(sorted(PRESETS)))
    pr.add_argument("--workers", type=int)
    pr.add_argument("--out", help="output directory")
    pr.set_defaults(func=cmd_reproduce)

    pk = sub.add_parser("recheck", help="revalidate a certificate file")
    pk.add_argument("--certs", required=True, help="certificates.json path")
    pk.add_argument("--deep", action="store_true",
                    help="also brute-force forced exponents where affordable")
    pk.set_defaults(func=cmd_recheck)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # downstream pager closed early; nothing left to report
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK
    except (ValueError, OSError, SieveBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        print(
            "interrupted; rerunning a search with the same --checkpoint "
            "resumes it",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
