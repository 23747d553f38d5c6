"""Command-line front end.

Six subcommands on one executable:

  search        classify every cell of a factorial equation over a finite range
  certify       build a divisibility certificate for a single cell
  obstruct-scan tabulate eligible obstruction primes for a target in [lo, hi]
  bounds        numeric bound extraction (Stirling crossings, radical checks,
                conditional pipelines)
  reproduce     rerun a named preset and diff against its expected outcome
  recheck       revalidate a stored certificate file from scratch

search, certify, obstruct-scan and bounds also read options from an INI file
(--config, section [factcert]) whose keys are the options' dest names (n_max,
prime_budget, include_diagonal = yes), not their flag spellings; a flag beats
the file and the file beats the flag's default.  These four hash the resolved
options (sha256) and embed the hash in every output, so two artifacts with
equal hashes were built from identical settings; reproduce hashes its preset
name and recheck prints no hash.  Every subcommand exits 0 when the requested
work completed with nothing left open, 1 on input errors, and 2 when unknowns
or mismatches remain.

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
    try:
        coeff = Fraction(coeff_s) if coeff_s else Fraction(1)
    except ZeroDivisionError:
        raise CLIInputError(f"zero denominator in term {body!r}") from None
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

# namespace entries that steer parsing rather than the run
_PARSER_KEYS = {"command", "func", "config"}


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma list of integers: {text!r}"
        ) from None


def _rational_text(text: str) -> str:
    """argparse type: a number's text, checked and kept as typed, since the
    config hash reads the text ("2.50" and "2.5" are different runs)."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    return text


def resolve_config(args: argparse.Namespace) -> dict[str, object]:
    """The options a subcommand runs with, as parse_args resolved them."""
    return {k: v for k, v in vars(args).items() if k not in _PARSER_KEYS}


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
    form_tok, poly_tok, coeffs = cfg["form"], cfg["poly"], cfg["coeffs"]
    given = sum(x is not None for x in (form_tok, poly_tok, coeffs))
    if given != 1:
        raise CLIInputError(
            "pass exactly one target: --form TOKEN, --poly TOKEN, "
            "or --kind {form,poly} with --coeffs LIST"
        )
    if coeffs is not None:
        if cfg["kind"] not in ("form", "poly"):
            raise CLIInputError("--coeffs needs --kind form or --kind poly")
        return cfg["kind"], _parse_coeff_list(coeffs), None
    if form_tok is not None:
        token = form_tok.replace(" ", "").lower()
        return "form", parse_form_token(form_tok), token
    return "poly", parse_poly_token(poly_tok), None


def build_equation(cfg: dict) -> certify_mod.Equation:
    family = cfg["family"].lower()
    if family not in ("sum", "prod"):
        raise CLIInputError(f"unknown family {family!r}; use sum or prod")
    target, mult = _bare_target(cfg)
    binary = isinstance(target, forms_mod.BinaryForm)
    Family = certify_mod.Family
    if family == "sum":
        fam = Family.SUM_FACT_BINARY if binary else Family.SUM_FACT_UNI
        a = cfg["a"] * mult
    else:
        fam = Family.PROD_DFACT_BINARY if binary else Family.PROD_DFACT_UNI
        a = cfg["a"]  # Equation refuses any a but 1 on a product family
    return certify_mod.Equation(fam, target, a, cfg["b"] * mult, mult)


def _bare_target(cfg: dict):
    """Target object without an equation around it (scan / bounds inputs)."""
    kind, coeffs, bundle_key = _target_spec(cfg)
    if kind == "form" and bundle_key in forms_mod.BUNDLED_FORMS:
        return forms_mod.BUNDLED_FORMS[bundle_key], 1
    ints, mult = forms_mod.clear_denominators(coeffs)
    if kind == "form":
        return forms_mod.BinaryForm(ints), mult
    return forms_mod.UnivariatePoly(ints), mult


def _equation_summary(eq: certify_mod.Equation) -> dict:
    return {
        "family": eq.family.value,
        "a": eq.a,
        "b": eq.b,
        "target_kind": "form" if eq.family.is_binary else "poly",
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


def _write_search_outputs(outdir: Path, cfg_hash: str, task, report) -> dict:
    eq = task.equation
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

def _build_search_task(cfg: dict) -> solver_mod.SearchTask:
    return solver_mod.SearchTask(
        equation=build_equation(cfg),
        n_max=cfg["n_max"],
        m_min=cfg["m_min"],
        m_max=cfg["m_max"],
        prod_bounds=cfg["prod_bounds"],
        single_factorial=cfg["single_factorial"],
        include_diagonal=cfg["include_diagonal"],
        range_override=cfg["range_override"],
        prime_budget=cfg["prime_budget"],
        ball_cap=cfg["ball_cap"],
        rho_steps=cfg["rho_steps"],
        checkpoint_path=cfg["checkpoint"],
        workers=cfg["workers"],
    )


def cmd_search(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    cfg_hash = config_hash(cfg)
    task = _build_search_task(cfg)
    report = solver_mod.run_search(task)
    outdir = Path(cfg["out"] or f"runs/{cfg_hash[:12]}")
    summary = _write_search_outputs(outdir, cfg_hash, task, report)

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


def cmd_certify(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    cfg_hash = config_hash(cfg)
    eq = build_equation(cfg)
    if eq.is_sum:
        if cfg["n"] is None or cfg["m"] is None:
            raise CLIInputError("sum cells need --n and --m")
        cell: tuple[int, ...] = (cfg["n"], cfg["m"])
    else:
        if cfg["dfact"] is None:
            raise CLIInputError("product cells need --dfact N1,N2,...")
        cell = cfg["dfact"]
    cert = certify_mod.certify_cell(
        eq,
        cell,
        prime_budget=cfg["prime_budget"],
        rho_steps=cfg["rho_steps"],
    )
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


def cmd_obstruct_scan(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    cfg_hash = config_hash(cfg)
    if cfg["lo"] is None or cfg["hi"] is None:
        raise CLIInputError("obstruct-scan needs --from and --to")
    lo, hi = cfg["lo"], cfg["hi"]
    target, mult = _bare_target(cfg)
    scan = obstruction_mod.scan_obstruction_primes(target, lo, hi)
    print(f"# config {cfg_hash}")
    if mult != 1:
        print(f"# denominators cleared: target scaled by {mult}")
    print(f"{'q':>6}  {'forced_exp':>10}  rule")
    for profile in scan.eligible:
        exp = "inf" if profile.unbounded else str(profile.forced_exponent)
        print(f"{profile.q:>6}  {exp:>10}  {profile.reason}")
    print(
        f"# eligible {len(scan.eligible)} of {scan.total_primes} "
        f"primes in [{lo}, {hi}]  density {scan.density:.3f}"
    )
    return EXIT_OK


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
    return bounds_mod.StirlingInequality(
        a=a_,
        b=b_ if b_ > 0 else None,
        c=c_ if c_ > 0 else None,
        e=e_,
    )


def cmd_bounds(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
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
            if ineq.b is None:
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

    poly, mult = _bare_target(cfg)
    if not isinstance(poly, forms_mod.UnivariatePoly):
        raise CLIInputError("conditional bounds take a univariate polynomial")
    params = bounds_mod.AbcParams(
        epsilon=Fraction(cfg["epsilon"]) if cfg["epsilon"] is not None else None,
        k_epsilon=float(cfg["k_epsilon"]) if cfg["k_epsilon"] is not None else 1.0,
    )
    multiplier = cfg["multiplier"] * mult
    try:
        report = bounds_mod.conditional_bound_pipeline(
            poly, params, multiplier=multiplier
        )
    except bounds_mod.BoundScanError as exc:
        print(f"# config {cfg_hash}")
        print(f"unresolved: {exc}")
        return EXIT_OPEN
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
    _write_search_outputs(outdir, cfg_hash, task, report)

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


def _add_equation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=("sum", "prod"), default="sum")
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    _add_target_flags(p)


def _add_target_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--form", help="binary form token, e.g. x2+y2")
    p.add_argument("--poly", help="univariate token, e.g. x^2-1")
    p.add_argument("--kind", choices=("form", "poly"),
                   help="target kind when passing raw --coeffs")
    p.add_argument("--coeffs",
                   help="comma coefficient list, leading coefficient first "
                        "(required for degree 5 and above)")


_CONFIG_HELP = "INI file, section [factcert]; keys are dest names like n_max"


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the subcommand parsers that take --config."""
    top = _Parser(prog="factcert", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ps = sub.add_parser("search", help="classify every cell in a range")
    ps.add_argument("--config", help=_CONFIG_HELP)
    _add_equation_flags(ps)
    ps.add_argument("--nmax", dest="n_max", type=int)
    ps.add_argument("--mmin", dest="m_min", type=int, default=1)
    ps.add_argument("--mmax", dest="m_max", type=int)
    ps.add_argument("--prod-bounds", type=_int_list,
                    help="comma list of per-argument caps, e.g. 100 or 60,60")
    ps.add_argument("--single-factorial",
                    action=argparse.BooleanOptionalAction, default=False)
    ps.add_argument("--include-diagonal",
                    action=argparse.BooleanOptionalAction, default=False)
    ps.add_argument("--range-override",
                    action=argparse.BooleanOptionalAction, default=False)
    ps.add_argument("--prime-budget", type=int,
                    default=solver_mod.DEFAULT_PRIME_BUDGET)
    ps.add_argument("--ball-cap", type=int, default=solver_mod.DEFAULT_BALL_CAP)
    ps.add_argument("--rho-steps", type=int, default=solver_mod.DEFAULT_RHO_STEPS)
    ps.add_argument("--workers", type=int, default=1)
    ps.add_argument("--checkpoint", help="checkpoint file (JSON lines, resumable)")
    ps.add_argument("--out", help="output directory (default runs/<hash12>)")
    ps.set_defaults(func=cmd_search)

    pc = sub.add_parser("certify", help="one-cell divisibility certificate")
    pc.add_argument("--config", help=_CONFIG_HELP)
    _add_equation_flags(pc)
    pc.add_argument("--n", type=int, help="sum cell: factorial argument n")
    pc.add_argument("--m", type=int, help="sum cell: factorial argument m")
    pc.add_argument("--dfact", type=_int_list,
                    help="product cell: comma list of !! arguments")
    pc.add_argument("--prime-budget", type=int,
                    default=solver_mod.DEFAULT_PRIME_BUDGET)
    pc.add_argument("--rho-steps", type=int, default=solver_mod.DEFAULT_RHO_STEPS)
    pc.add_argument("--out", help="also write the JSON here")
    pc.set_defaults(func=cmd_certify)

    po = sub.add_parser("obstruct-scan", help="eligible primes in a range")
    po.add_argument("--config", help=_CONFIG_HELP)
    _add_target_flags(po)
    po.add_argument("--from", dest="lo", type=int, help="scan start (prime range)")
    po.add_argument("--to", dest="hi", type=int, help="scan end, inclusive")
    po.set_defaults(func=cmd_obstruct_scan)

    pb = sub.add_parser("bounds", help="numeric bound extraction")
    pb.add_argument("--config", help=_CONFIG_HELP)
    pb.add_argument("--stirling",
                    help="A,B,C,E crossing solve; B=0 or C=0 mean absent")
    pb.add_argument("--radical", type=int,
                    help="radical-vs-envelope check at this double-factorial index")
    _add_target_flags(pb)
    pb.add_argument("--epsilon", type=_rational_text,
                    help="rational like 1/4; default 1/(2 degree)")
    pb.add_argument("--k-epsilon", type=_rational_text,
                    help="conditional constant K(eps) (default 1.0)")
    pb.add_argument("--multiplier", type=int, default=1,
                    help="scalar multiplier on the right side (default %(default)s)")
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

    readers = ("search", "certify", "obstruct-scan", "bounds")
    return top, {name: sub.choices[name] for name in readers}


def _read_ini(path: str) -> dict[str, str]:
    ini = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            ini.read_file(fh)
        section = "factcert" if ini.has_section("factcert") else ini.default_section
        return dict(ini.items(section))
    except OSError as exc:
        raise CLIInputError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise CLIInputError(f"bad config file: {exc}") from None


def _ini_bool(key: str, raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES  # 1/0, yes/no, true/false, on/off
    if raw.lower() not in states:
        raise CLIInputError(f"config key {key}: not a boolean: {raw!r}")
    return states[raw.lower()]


def _option_names(command: argparse.ArgumentParser) -> set[str]:
    """Dest names of a subcommand's options: its namespace when no flag is given."""
    return set(vars(command.parse_args([]))) - _PARSER_KEYS


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse argv.  A --config file's values become the subcommand's defaults,
    so a flag beats the file and the file beats the default on the flag;
    argparse checks a file value with the flag's type, as if it were typed."""
    top, readers = build_parser()
    args = top.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    values = _read_ini(args.config)
    known = set().union(*map(_option_names, readers.values()))
    for key in values:
        if key not in known:
            raise CLIInputError(f"config key {key}: no such option")
    command = readers[args.command]
    own = _option_names(command)  # the section is shared: skip others' keys
    command.set_defaults(**{
        key: _ini_bool(key, raw) if isinstance(command.get_default(key), bool) else raw
        for key, raw in values.items()
        if key in own
    })
    return top.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        # downstream pager closed early; nothing left to report
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK
    except (ValueError, OSError, SieveBudgetError) as exc:  # CLIInputError too
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
