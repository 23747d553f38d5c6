"""Command-line surface: token grammar, config hashing, output files, exit
codes."""

import csv
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import factcert
from factcert import arith, cli, obstruction
from factcert.certify import Equation, Family
from factcert.forms import BUNDLED_FORMS


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Token grammar
# ---------------------------------------------------------------------------


def test_form_token_grammar():
    F = Fraction
    assert cli.parse_form_token("x2+y2") == [F(1), F(0), F(1)]
    assert cli.parse_form_token("x2-xy+3y2") == [F(1), F(-1), F(3)]
    assert cli.parse_form_token("x4+2x2y2+y4") == [F(1), F(0), F(2), F(0), F(1)]
    assert cli.parse_form_token("x3+2y3") == [F(1), F(0), F(0), F(2)]


def test_poly_token_grammar():
    F = Fraction
    assert cli.parse_poly_token("2x^2-1") == [F(2), F(0), F(-1)]
    assert cli.parse_poly_token("x^3-3x^2+2x") == [F(1), F(-3), F(2), F(0)]
    assert cli.parse_poly_token("1/2x^2-1/2") == [F(1, 2), F(0), F(-1, 2)]


def test_token_grammar_rejections():
    with pytest.raises(cli.CLIInputError, match="not homogeneous"):
        cli.parse_form_token("x2+y")
    with pytest.raises(cli.CLIInputError, match="grammar limit"):
        cli.parse_form_token("x5+y5")
    with pytest.raises(cli.CLIInputError, match="grammar limit"):
        cli.parse_poly_token("x^7-1")
    with pytest.raises(cli.CLIInputError, match="empty"):
        cli.parse_poly_token("")
    with pytest.raises(cli.CLIInputError, match="cannot parse"):
        cli.parse_form_token("x2+z2")
    with pytest.raises(cli.CLIInputError, match="zero denominator"):
        cli.parse_form_token("1/0x2+y2")
    with pytest.raises(cli.CLIInputError, match="zero denominator"):
        cli.parse_poly_token("1/0x^2")


@pytest.mark.parametrize(
    "cfg, expected",
    [
        ({"form": "x2+y2", "a": 2, "b": -3}, Equation.sum_binary(2, -3, (1, 0, 1))),
        (
            {"form": "1/2x2+y2"},
            Equation.sum_binary(1, 1, (Fraction(1, 2), 0, 1)),
        ),
        (
            {"family": "prod", "form": "x3+2y3", "b": 5},
            Equation.product_binary(5, (1, 0, 0, 2)),
        ),
        (
            {"poly": "1/2x^2-1/2", "a": 3},
            Equation.sum_univariate(3, 1, (Fraction(1, 2), 0, Fraction(-1, 2))),
        ),
        (
            {"family": "prod", "kind": "poly", "coeffs": "1/3,0,0", "b": 2},
            Equation.product_univariate(2, (Fraction(1, 3), 0, 0)),
        ),
        # a bundled form keeps its declared factor list
        (
            {"form": "x4+2x2y2+y4"},
            Equation(Family.SUM_FACT_BINARY, BUNDLED_FORMS["x4+2x2y2+y4"]),
        ),
    ],
)
def test_build_equation_matches_constructors(cfg, expected):
    defaults = cli.resolve_config(cli.parse_args(["certify"]))
    assert cli.build_equation({**defaults, **cfg}) == expected


# ---------------------------------------------------------------------------
# Config hashing
# ---------------------------------------------------------------------------


def test_config_hash_ignores_output_only_keys():
    base = {
        "nmax": 30,
        "prime_budget": 25,
        "out": "runs/a",
        "workers": 2,
        "checkpoint": "ck.json",
    }
    moved = dict(base, out="runs/b", workers=8, checkpoint=None)
    assert cli.config_hash(base) == cli.config_hash(moved)
    assert cli.config_hash(dict(base, nmax=31)) != cli.config_hash(base)
    assert cli.config_hash(dict(base, prime_budget=26)) != cli.config_hash(base)


_PINNED_INI = "[factcert]\nn_max = 14\ninclude_diagonal = yes\nprime_budget = 50\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["search", "--form", "x2+y2", "--nmax", "12",
          "--checkpoint", "{tmp}/ck.jsonl", "--out", "{tmp}/out"],
         "c6bc32cf9c59fec5d9a6a10f4dd273a7756532f780e8b3621c93462f5ec5abf9"),
        (["search", "--family", "prod", "--form", "x2+y2", "--prod-bounds", "15,15",
          "--out", "{tmp}/out"],
         "c077c95ce3e84274663d6a74d22dd074b0749d038819de700a91dcec93b7e7f4"),
        (["search", "--config", "{tmp}/run.ini", "--poly", "x^2", "--out", "{tmp}/out"],
         "02122bb3bf8398a648e469418343ff33565da0000fff00e569b008a5f9aae7dc"),
        (["certify", "--form", "x2+y2", "--n", "10", "--m", "7"],
         "f3a7102d4346c7d922d10f977f7896104edd7d4dbec061972409d4cdff1468df"),
        (["obstruct-scan", "--form", "x2+y2", "--from", "3", "--to", "50"],
         "1d6ac84ad7507093c0a501425a39aabc5d86d5db8a50eb5ef397056c48938b29"),
        (["bounds", "--stirling", "5,0,0,1"],
         "eac4c66ab9dbe54d106295b25d4b9d6b9ea7f8d845275e0c786691d62d84ff0b"),
        (["bounds", "--poly", "x^2-1", "--epsilon", "1/4"],
         "ca83c7faa090df0418c48a9347fa65d963baaba89e638d43b66c68a575557fc0"),
        # the hash reads the text as typed: "2.50", not the float 2.5
        (["bounds", "--poly", "x^3-2", "--k-epsilon", "2.50"],
         "ee2eccd33ee6aee7a882e4f79badee6273c39fb5f2f12d00265c5e857705a289"),
    ],
)
def test_config_hashes_are_pinned(argv, digest, tmp_path, capsys):
    # the hash names the result bytes, so moving it orphans every stored run
    (tmp_path / "run.ini").write_text(_PINNED_INI)
    code, out, err = run_cli([a.format(tmp=tmp_path) for a in argv], capsys)
    assert code == cli.EXIT_OK, err
    assert re.search(r"[0-9a-f]{64}", out).group(0) == digest


# ---------------------------------------------------------------------------
# search: files, snapshot rows, determinism
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def square_search(tmp_path_factory):
    out = tmp_path_factory.mktemp("square")
    code = cli.main(["search", "--poly", "x^2", "--nmax", "12", "--out", str(out)])
    return code, out


def test_search_sieves_a_constant_number_of_tables(tmp_path):
    # window primes, factorial sketches and trial division share one table,
    # so the sieve count does not grow with the number of cells or anchors
    arith._sieve.cache_clear()
    argv = ["search", "--form", "x2+y2", "--nmax", "30", "--out", str(tmp_path)]
    # every cell resolves: the definite solver factors the 18 cells that
    # neither a certificate nor the old x-bound loop could settle
    assert cli.main(argv) == cli.EXIT_OK
    # the default prime budget, trial division and the windows share one table
    assert arith._sieve.cache_info().misses == 1, arith._sieve.cache_info()


def test_search_square_snapshot(square_search):
    code, out = square_search
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"] == 66
    assert summary["totals"]["SOLUTION"] == 4
    assert summary["totals"]["CERTIFIED"] == 62
    assert summary["totals"]["UNKNOWN"] == 0
    certs = json.loads((out / "certificates.json").read_text())
    assert len(certs["certificates"]) == 62


def test_search_csv_shape(square_search):
    _, out = square_search
    raw = (out / "results.csv").read_text()
    lines = raw.splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1].startswith("# config ")
    rows = list(csv.reader(lines[2:]))
    assert rows[0] == [
        "cell", "status", "witness", "prime", "valuation", "rule", "note",
        "factorials", "sketches",
    ]
    assert len(rows) == 1 + 66
    by_cell = {r[0]: r for r in rows[1:]}
    # the lone non-trivial solution cell, with per-argument factorial columns
    assert by_cell["5|4"] == [
        "5|4", "SOLUTION", "12", "", "", "", "", "120|24", "2^3 3^1 5^1|2^3 3^1"
    ]
    assert by_cell["2|1"][1] == "CERTIFIED"
    assert by_cell["2|1"][3:6] == ["3", "1", "V_NOT_MULTIPLE"]


def test_search_rerun_is_deterministic_modulo_timestamp(square_search, tmp_path):
    _, first_out = square_search
    second = tmp_path / "again"
    code = cli.main(
        ["search", "--poly", "x^2", "--nmax", "12", "--workers", "3",
         "--out", str(second)]
    )
    assert code == cli.EXIT_OK
    a = (first_out / "results.csv").read_bytes().split(b"\r\n", 1)
    b = (second / "results.csv").read_bytes().split(b"\r\n", 1)
    assert a[0] != b"" and a[0].startswith(b"# generated ")
    assert a[1] == b[1]  # everything below the timestamp line byte-matches
    assert (first_out / "certificates.json").read_bytes() == (
        second / "certificates.json"
    ).read_bytes()


def test_search_small_m_strip_resolved_by_factoring(tmp_path, capsys):
    # cells (n, 1) and (n, 2) need n!+1 and n!+2 factored; the certifier's
    # budgeted factorization settles all of them, (16,2), (17,1) and (17,2)
    # with witnesses far beyond the old x-bound loop's ball_cap
    code, _, _ = run_cli(
        ["search", "--form", "x2+y2", "--nmax", "20", "--mmin", "1",
         "--mmax", "2", "--out", str(tmp_path)],
        capsys,
    )
    assert code == cli.EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["cells"] == 37
    assert summary["totals"]["UNKNOWN"] == 0
    assert summary["totals"]["SOLUTION"] == 19
    assert summary["totals"]["CERTIFIED"] == 18
    solved = {tuple(s["cell"]): s["witness"] for s in summary["solutions"]}
    assert len(solved) == 19
    assert {(16, 2), (17, 1), (17, 2)} <= set(solved)
    for (n, m), (x, y) in solved.items():
        assert x * x + y * y == math.factorial(n) + math.factorial(m), (n, m)


def test_search_input_errors_exit_one(tmp_path, capsys):
    bad = [
        ["search", "--form", "x2+y", "--nmax", "10", "--out", str(tmp_path)],
        ["search", "--nmax", "10", "--out", str(tmp_path)],
        ["search", "--form", "x2+y2", "--poly", "x^2", "--nmax", "10",
         "--out", str(tmp_path)],
        ["search", "--kind", "form", "--nmax", "10", "--out", str(tmp_path)],
    ]
    for argv in bad:
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_INPUT, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--form", "x2+y2", "--nmax", "6", "--rho-steps", "-5"],
        ["search", "--form", "x2+y2", "--nmax", "6", "--mmin", "5", "--mmax", "3"],
        ["certify", "--form", "x2+y2", "--n", "6", "--m", "2", "--rho-steps", "-1"],
        ["search", "--form", "1/0x2+y2", "--nmax", "5"],
        ["search", "--poly", "1/0x^2", "--nmax", "5"],
    ],
)
def test_out_of_range_budgets_and_ranges_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert code == cli.EXIT_INPUT
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--form", "x2+y2", "--nmax", "5", "--prod-bounds", "5"],
        ["--form", "x2+y2", "--nmax", "5", "--range-override"],
        *(
            ["--family", "prod", "--form", "x2+y2", "--prod-bounds", "5", *extra]
            for extra in (["--nmax", "9"], ["--mmax", "3"], ["--mmin", "3"],
                          ["--include-diagonal"], ["--single-factorial"], ["--a", "3"])
        ),
        *(
            ["--poly", "x^2-1", "--single-factorial", "--nmax", "10", *extra]
            for extra in (["--include-diagonal"], ["--mmax", "4"], ["--mmin", "4"])
        ),
    ],
)
def test_search_refuses_options_its_walk_ignores(argv, tmp_path, capsys):
    # each of these would classify the same cells as without the extra
    # option, yet under another config hash
    out = tmp_path / "out"
    code, stdout, err = run_cli(["search", *argv, "--out", str(out)], capsys)
    assert code == cli.EXIT_INPUT
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "leave" in err
    assert not out.exists()


def test_search_refuses_unreadable_checkpoints(tmp_path, capsys):
    ck = tmp_path / "ck.json"
    argv = ["search", "--form", "x2+y2", "--nmax", "6",
            "--out", str(tmp_path / "out"), "--checkpoint", str(ck)]
    assert run_cli(argv, capsys)[0] == cli.EXIT_OK
    header = ck.read_text().splitlines()[0]
    bad = [
        # the format checkpoints had before they became JSON lines
        json.dumps({"task_hash": "0" * 64, "frontier": 0, "results": []}),
        header + '\n{"cell": [2, 1]}\n',
        header + '\n{"cell": [2, 1\n',
    ]
    for text in bad:
        ck.write_text(text)
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_INPUT, text
        assert str(ck) in err and "Traceback" not in err


def test_search_creates_the_checkpoint_directory(tmp_path, capsys):
    ck = tmp_path / "runs" / "nested" / "ci.ckpt"
    argv = ["search", "--form", "x2+y2", "--nmax", "12", "--checkpoint", str(ck)]
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "first")], capsys)
    assert code == cli.EXIT_OK, err
    written = ck.read_bytes()
    assert written.count(b"\n") == 1 + 66
    code, _, err = run_cli(argv + ["--out", str(tmp_path / "resumed")], capsys)
    assert code == cli.EXIT_OK, err
    assert ck.read_bytes() == written
    for name in ("certificates.json", "summary.json"):
        first = (tmp_path / "first" / name).read_bytes()
        assert (tmp_path / "resumed" / name).read_bytes() == first, name


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
@pytest.mark.parametrize("workers", [1, 2])
def test_ctrl_c_exits_130_and_resumes(tmp_path, capsys, workers):
    # Ctrl-C in a terminal signals the whole process group: the parent and
    # every worker.
    ck = tmp_path / "ck.jsonl"
    argv = ["search", "--form", "x2+y2", "--nmax", "40"]
    src = str(Path(factcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "factcert.cli", *argv,
             "--workers", str(workers), "--checkpoint", str(ck),
             "--out", str(tmp_path / "cut")],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not ck.exists() or ck.read_bytes().count(b"\n") < 1 + 1:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            os.killpg(proc.pid, signal.SIGINT)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    stderr = err_path.read_text()
    assert proc.returncode == cli.EXIT_INTERRUPTED, stderr
    assert "Traceback" not in stderr
    assert stderr.count("\n") == 1 and "--checkpoint" in stderr
    assert ck.read_bytes().count(b"\n") < 1 + 780
    resumed, fresh = tmp_path / "resumed", tmp_path / "fresh"
    resumed_code, _, _ = run_cli(
        argv + ["--checkpoint", str(ck), "--out", str(resumed)], capsys
    )
    fresh_code, _, _ = run_cli(
        argv + ["--checkpoint", str(tmp_path / "fresh.jsonl"), "--out", str(fresh)],
        capsys,
    )
    assert resumed_code == fresh_code == cli.EXIT_OPEN  # x2+y2 leaves open cells
    assert ck.read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()
    for name in ("certificates.json", "summary.json"):
        assert (resumed / name).read_bytes() == (fresh / name).read_bytes(), name
    # results.csv differs only in its "# generated" timestamp line
    resumed_csv = (resumed / "results.csv").read_text().splitlines()[1:]
    assert resumed_csv == (fresh / "results.csv").read_text().splitlines()[1:]


def test_config_file_resolution_and_override(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[factcert]\nn_max = 14\n")
    out_a = tmp_path / "a"
    code, _, _ = run_cli(
        ["search", "--config", str(ini), "--poly", "x^2", "--out", str(out_a)],
        capsys,
    )
    assert code == cli.EXIT_OK
    summary_a = json.loads((out_a / "summary.json").read_text())
    assert summary_a["cells"] == 91  # nmax 14 came from the file

    out_b = tmp_path / "b"
    code, _, _ = run_cli(
        ["search", "--config", str(ini), "--poly", "x^2", "--nmax", "10",
         "--out", str(out_b)],
        capsys,
    )
    assert code == cli.EXIT_OK
    summary_b = json.loads((out_b / "summary.json").read_text())
    assert summary_b["cells"] == 45  # explicit flag beats the file
    assert summary_a["config"] != summary_b["config"]


def _resolved(argv):
    return cli.resolve_config(cli.parse_args(argv))


def test_config_file_values_of_each_kind(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[factcert]\nform = x2+y2\nn_max = 14\ninclude_diagonal = yes\n"
        "prod_bounds = 12, 12\nlo = 3\n"  # lo is obstruct-scan's: accepted, unused
    )
    from_file = _resolved(["search", "--config", str(ini)])
    assert from_file["form"] == "x2+y2"
    assert from_file["n_max"] == 14
    assert from_file["include_diagonal"] is True
    assert from_file["prod_bounds"] == (12, 12)
    assert "lo" not in from_file
    assert from_file["prime_budget"] == cli.solver_mod.DEFAULT_PRIME_BUDGET
    spelled_out = _resolved(["search", "--form", "x2+y2", "--nmax", "14",
                             "--include-diagonal", "--prod-bounds", "12,12"])
    assert cli.config_hash(from_file) == cli.config_hash(spelled_out)

    flags = _resolved(["search", "--config", str(ini), "--nmax", "10",
                       "--no-include-diagonal", "--prod-bounds", "9"])
    assert (flags["n_max"], flags["include_diagonal"], flags["prod_bounds"]) == (
        10, False, (9,),
    )
    assert flags["form"] == "x2+y2"


@pytest.mark.parametrize(
    "line, message",
    [
        ("prime_budjet = 5", "error: config key prime_budjet: no such option"),
        ("nmax = 14", "error: config key nmax: no such option"),
        ("n_max = 1x", "argument --nmax: invalid int value: '1x'"),
        ("include_diagonal = maybe", "config key include_diagonal: not a boolean"),
        ("prod_bounds = 1,x", "argument --prod-bounds: not a comma list of integers"),
        ("epsilon = 50%", "bad config file"),
    ],
)
def test_bad_config_file_exits_one(line, message, tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[factcert]\nform = x2+y2\n{line}\n")
    out = tmp_path / "out"
    try:
        code = cli.main(["search", "--config", str(ini), "--out", str(out)])
    except SystemExit as exc:  # argparse reports a value its type rejects
        code = exc.code
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT
    assert message in err and "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_prod_cell_json(capsys):
    code, out, _ = run_cli(
        ["certify", "--family", "prod", "--form", "x2+y2", "--dfact", "9"],
        capsys,
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    (cert,) = payload["certificates"]
    assert cert["family"] == "PROD_DFACT_BINARY"
    assert cert["cell"] == [9]
    assert cert["prime"] == 7
    assert cert["valuation"] == 1
    # v_7(945) = 1 sits below the forced even exponent for a sum of squares
    assert cert["rule"] == "V_LESS_THAN_E"


def test_certify_missing_indices_is_input_error(capsys):
    code, _, _ = run_cli(
        ["certify", "--family", "sum", "--form", "x2+y2"], capsys
    )
    assert code == cli.EXIT_INPUT


def test_certify_diagonal_cell_is_input_error(capsys):
    code, _, err = run_cli(["certify", "--form", "x2+y2", "--n", "1", "--m", "1"], capsys)
    assert code == cli.EXIT_INPUT
    assert "need n > m >= 0" in err


# ---------------------------------------------------------------------------
# obstruct-scan
# ---------------------------------------------------------------------------


def test_obstruct_scan_sum_of_squares(capsys):
    code, out, _ = run_cli(
        ["obstruct-scan", "--form", "x2+y2", "--from", "3", "--to", "100"],
        capsys,
    )
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# config ")
    data = [ln.split() for ln in lines if ln and not ln.startswith("#") and ln.split()[0].isdigit()]
    assert [int(r[0]) for r in data] == [3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83]
    assert all(r[1] == "2" and r[2] == "NO_ROOT_MOD_Q" for r in data)
    assert "eligible 13 of 24 primes" in lines[-1]
    assert "density 0.542" in lines[-1]


def test_obstruct_scan_profiles_each_prime_once(capsys):
    # the printed rows come from the scan's own profiles, not a second lookup
    profile = obstruction.obstruction_profile
    profile.cache_clear()
    argv = ["obstruct-scan", "--form", "x2+y2", "--from", "3", "--to", "2000"]
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    assert "eligible 155 of 302 primes" in out.splitlines()[-1]
    assert (profile.cache_info().hits, profile.cache_info().misses) == (0, 302)


@pytest.mark.parametrize(
    "argv",
    [
        ["obstruct-scan", "--form", "x2+y2", "--from", "3", "--to", "300000000"],
        ["bounds", "--radical", "200000000"],
    ],
)
def test_sieve_budget_overrun_is_input_error(argv, capsys):
    # SieveBudgetError is a MemoryError, not a ValueError
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EXIT_INPUT
    assert err.startswith("error: sieve limit") and err.count("\n") == 1
    assert "Traceback" not in err


def test_obstruct_scan_coeffs_matches_token(capsys):
    code_a, out_a, _ = run_cli(
        ["obstruct-scan", "--form", "x4+y4", "--from", "3", "--to", "60"], capsys
    )
    code_b, out_b, _ = run_cli(
        ["obstruct-scan", "--kind", "form", "--coeffs", "1,0,0,0,1",
         "--from", "3", "--to", "60"],
        capsys,
    )
    assert code_a == code_b == cli.EXIT_OK
    strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("# config")]
    assert strip(out_a) == strip(out_b)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_stirling_single(capsys):
    code, out, _ = run_cli(["bounds", "--stirling", "5,0,0,1"], capsys)
    assert code == cli.EXIT_OK
    assert "m_max=31" in out


def test_bounds_stirling_inconsistent_exits_two(capsys):
    code, out, _ = run_cli(["bounds", "--stirling", "100,0,0,1"], capsys)
    assert code == cli.EXIT_OPEN
    assert "unresolved" in out


def test_bounds_stirling_double_staircase(capsys):
    code, out, _ = run_cli(["bounds", "--stirling", "5,5,0,1"], capsys)
    assert code == cli.EXIT_OK
    assert "slices 40" in out
    assert "n1=1  m1 in [1, 33]" in out


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["--stirling", "5,0,0,1"], cli.EXIT_OK,
         "aa78081dfbe2ae6fd1cb63aedd6e41ac3af310acab9e7ac30b14dd1a39332d44"),
        (["--stirling", "5,5,0,1"], cli.EXIT_OK,
         "91f3b57b7c08a5ae4f15a203d5e6a03bf18e6cdc36e7a74b83600ac37f85d685"),
        # E' = 0.01: the frontier starts at n1 = 2 and is elided in the middle
        (["--stirling", "6,4,0,0.01"], cli.EXIT_OK,
         "913246531d0429cb8da3c7aec0d08b8031bac918fcbabda141c45677d244a1d6"),
        (["--stirling", "100,0,0,1"], cli.EXIT_OPEN,
         "bfeb4df7ca9257cc6e09bbbf27099be96d7c49c0a08bdb267128782a5af72168"),
        (["--radical", "50"], cli.EXIT_OK,
         "00345ca59d6a5466a72729d5a56d1dd9aae5805cdf84a084a8b5dc63cfd95eca"),
        (["--poly", "x^2-1", "--epsilon", "1/4"], cli.EXIT_OK,
         "afaf1ef0aad83bc588f092fb5ec9605c6ad7041ab22b2032f51bba551ec704ac"),
        (["--poly", "x^3-2", "--epsilon", "1/8"], cli.EXIT_OK,
         "c5fa2568896b4f5e5411e1d29a8c9ee241c7fc2418f3a53a7f9dbf990665e2c5"),
    ],
)
def test_bounds_stdout_bytes_are_pinned(argv, code, digest, capsys):
    # every bounds mode, byte for byte: the scans behind them share one search
    got, out, err = run_cli(["bounds", *argv], capsys)
    assert (got, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--form", "x2+y2", "--from", "3", "--to", "100"],
         "cb7dbce48fe15dc0a623b11e75d81a2e9c75a138991f32c021bb5a218bbb6a8c"),
        (["--poly", "x^2-2", "--from", "3", "--to", "3000"],
         "766732ea64067ad5c30999ba13cbd03a3440a77f932958f9d19c66194a7fea9d"),
    ],
)
def test_obstruct_scan_stdout_bytes_are_pinned(argv, digest, capsys):
    got, out, err = run_cli(["obstruct-scan", *argv], capsys)
    assert (got, err) == (cli.EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_obstruct_scan_sieve_budget_message(capsys):
    argv = ["obstruct-scan", "--form", "x2+y2", "--from", "3", "--to", "300000000"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == "error: sieve limit 300000000 exceeds budget 200000000\n"


@pytest.mark.parametrize(
    "slope, line",
    [
        # the second-index minimiser lies near 6.0e8, inside the 10^9 scan cap
        ("22.6", "unresolved: frontier spans 43023421 slices; "
                 "beyond exhaustive enumeration"),
        # here it lies beyond the cap
        ("23.2", "unresolved: second-index slope too small for the scan cap"),
    ],
)
def test_bounds_stirling_minimiser_searched_to_the_scan_cap(slope, line, capsys):
    code, out, err = run_cli(["bounds", "--stirling", f"5,{slope},0,1"], capsys)
    assert (code, err) == (cli.EXIT_OPEN, "")
    assert out.splitlines()[1:] == [line]


def test_bounds_stirling_inconsistent_message(capsys):
    _, out, _ = run_cli(["bounds", "--stirling", "100,0,0,1"], capsys)
    assert out.splitlines()[1] == (
        "unresolved: inequality still satisfied at the scan cap 1000000000; "
        "coefficients are inconsistent with factorial growth"
    )


def test_bounds_radical(capsys):
    code, out, _ = run_cli(["bounds", "--radical", "10"], capsys)
    assert code == cli.EXIT_OK
    assert "log radical 16.087604" in out
    assert "log envelope 29.112182" in out
    assert "below=true" in out


@pytest.mark.parametrize("m", ["0", "-3"])
def test_bounds_radical_rejects_nonpositive_index(m, capsys):
    code, out, err = run_cli(["bounds", "--radical", m], capsys)
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err == "error: --radical wants a positive integer\n"


def test_bounds_radical_overrun_names_the_typed_index(capsys):
    # the check sieves to 2M+1; the message names M, not the internal limit
    code, _, err = run_cli(["bounds", "--radical", "200000000"], capsys)
    assert code == cli.EXIT_INPUT
    assert "--radical 200000000 " in err
    assert "400000001" not in err


def test_bounds_pipeline_json(capsys):
    code, out, _ = run_cli(
        ["bounds", "--poly", "x^2-1", "--epsilon", "1/4"], capsys
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    report = payload["bound_report"]
    assert report["epsilon"] == "1/4"
    figures = {f["name"]: f for f in report["figures"]}
    assert figures["m_max"]["value"] == 38135
    assert figures["C2"]["value"] == 3.0
    assert figures["C5"]["conditional"] is True
    assert figures["C2"]["conditional"] is False


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--k-epsilon", "inf"], "argument --k-epsilon: not a rational number: 'inf'"),
        (["--k-epsilon", "abc"], "argument --k-epsilon: not a rational number: 'abc'"),
        (["--epsilon", "1/0"], "argument --epsilon: not a rational number: '1/0'"),
        # parses, but overflows a float: AbcParams refuses the infinite K
        (["--k-epsilon", "1e400"], "error: K(epsilon) must be positive and finite"),
    ],
)
def test_bounds_bad_hypothesis_values_exit_one(flags, message, capsys):
    try:
        code = cli.main(["bounds", "--poly", "x^3-2", *flags])
    except SystemExit as exc:  # argparse reports a value its type rejects
        code = exc.code
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


def test_bounds_pipeline_scan_overrun_is_unresolved(capsys):
    code, out, err = run_cli(["bounds", "--poly", "x^3-2", "--epsilon", "1/4"], capsys)
    assert code == cli.EXIT_OPEN
    assert out.splitlines()[1].startswith("unresolved: inequality still satisfied")
    assert err == ""


def test_bounds_monomial_target_handoff(capsys):
    code, out, _ = run_cli(["bounds", "--poly", "x^2"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["monomial_target"] == {
        "scaling_constant": 4,
        "certifier_threshold": 8,
    }


# ---------------------------------------------------------------------------
# reproduce / recheck
# ---------------------------------------------------------------------------


def test_reproduce_brocard(tmp_path, capsys):
    code, out, _ = run_cli(
        ["reproduce", "--preset", "BROCARD", "--out", str(tmp_path)], capsys
    )
    assert code == cli.EXIT_OK
    assert "preset BROCARD: 500 cells, 0 unknown" in out
    assert "ok       cell (4,) witness (5,)" in out
    assert "reproduced" in out


def test_reproduce_unknown_preset_exits_one(tmp_path, capsys):
    code, _, err = run_cli(
        ["reproduce", "--preset", "NOPE", "--out", str(tmp_path)], capsys
    )
    assert code == cli.EXIT_INPUT


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_reproduce_refuses_nonpositive_workers(workers, tmp_path, capsys):
    code, out, err = run_cli(
        ["reproduce", "--preset", "BROCARD", "--workers", workers,
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == cli.EXIT_INPUT
    assert err == "error: workers must be positive\n"
    assert out == "" and not any(tmp_path.iterdir())


def test_recheck_accepts_then_rejects_tampered(square_search, tmp_path, capsys):
    _, out_dir = square_search
    certs_path = out_dir / "certificates.json"
    code, out, _ = run_cli(["recheck", "--certs", str(certs_path)], capsys)
    assert code == cli.EXIT_OK

    payload = json.loads(certs_path.read_text())
    payload["certificates"][0]["valuation"] += 1
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(payload))
    code, out, _ = run_cli(["recheck", "--certs", str(bad_path)], capsys)
    assert code == cli.EXIT_OPEN
    assert "FAIL" in out


def test_recheck_names_a_malformed_factor_list(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["search", "--form", "x4+2x2y2+y4", "--nmax", "6", "--out", str(out)]
    assert run_cli(argv, capsys)[0] == cli.EXIT_OK
    payload = json.loads((out / "certificates.json").read_text())
    payload["certificates"][1]["factor_list"][0][0] = [1, 0, 2]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(payload))
    code, stdout, _ = run_cli(["recheck", "--certs", str(bad_path)], capsys)
    assert code == cli.EXIT_OPEN
    lines = stdout.splitlines()
    total = len(payload["certificates"])
    assert len(lines) == total + 1
    assert lines[1].startswith("FAIL [1]: FormDataError: ")
    assert all(line.startswith("ok   ") for i, line in enumerate(lines[:-1]) if i != 1)
    assert lines[-1] == f"rechecked {total} certificates, 1 failed"


# Stored certificate files are rechecked years later, so their bytes only
# move on purpose.  These runs write every optional certificate key but
# irreducible_declared (factor_list and factor_constant from the bundled
# x4+2x2y2+y4) and cover all four families and a scaled target.
@pytest.mark.parametrize(
    "argv, certs_sha, summary_sha",
    [
        (["--form", "x4+2x2y2+y4", "--nmax", "15"],
         "bb1fb974e403e507b44404d47fa312f1e229ba2d14d0dd740e5686325058271a",
         "71a9baa9ef854eab6e44d489daa411f13fff3802d365b14805b8dbfca0397785"),
        (["--family", "prod", "--form", "x2+y2", "--prod-bounds", "20,20"],
         "d05e4401d7068c84a5c0716647e7089279b6e63beeb86928f53568f6328d87b5",
         "76dfd86bb411d9ee09b58730d82ef19034a38abd4fd1b69796173eb2ec57d4c8"),
        (["--poly", "x^2", "--nmax", "20"],
         "da134009cb73c8aa66a04d24cc2b4732c6363b1671a3b5d70cafd85d5d633fd4",
         "7f72e9d114a5885c972ee76a350e8959a598cd7b0ededcca09861030e05498a3"),
        (["--family", "prod", "--poly", "x^2-2", "--prod-bounds", "30"],
         "6dd4e47bcf614d8ad3d1bb65e9333ccce4cc25cc3d30446b78a84214f4670d37",
         "ace9b15a6aeb99598e9598b862330fcdd639a3c568be6b9fbbbf68f85885bf3d"),
        (["--form", "1/2x2+y2", "--a", "2", "--b", "-3", "--nmax", "14"],
         "59ca3e1fdbe1ff25e940de49a53ad4121e467d9fa56add19ecebb58ef4436d98",
         "8c46f3120ecacf0bd596c6e8df7430de55b2b657cf2d034969b8fc9c414f86f3"),
    ],
    ids=["factored-form", "prod-form", "poly", "prod-poly", "scaled"],
)
def test_certificate_and_summary_bytes_are_pinned(argv, certs_sha, summary_sha,
                                                  tmp_path, capsys):
    out = tmp_path / "out"
    code, _, err = run_cli(["search", *argv, "--out", str(out)], capsys)
    assert code == cli.EXIT_OK, err
    digest = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("certificates.json", "summary.json")
    }
    assert digest == {"certificates.json": certs_sha, "summary.json": summary_sha}


# ---------------------------------------------------------------------------
# mpmath is loaded only by the bounds layer
# ---------------------------------------------------------------------------


def _fresh_python(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(factcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def test_exact_commands_never_import_mpmath(tmp_path):
    script = (
        "import sys\n"
        "from factcert import cli\n"
        "out = sys.argv[1]\n"
        "runs = [\n"
        "    ['search', '--form', 'x2+y2', '--nmax', '10', '--out', out + '/s'],\n"
        "    ['certify', '--form', 'x2+y2', '--n', '7', '--m', '3'],\n"
        "    ['recheck', '--deep', '--certs', out + '/s/certificates.json'],\n"
        "    ['obstruct-scan', '--form', 'x2+y2', '--from', '3', '--to', '100'],\n"
        "    ['reproduce', '--preset', 'BROCARD', '--out', out + '/r'],\n"
        "]\n"
        "for argv in runs:\n"
        "    assert cli.main(argv) == cli.EXIT_OK, argv\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    proc = _fresh_python(script, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_bounds_layer_imports_mpmath_on_use():
    script = (
        "import sys\n"
        "import factcert\n"
        "from factcert import cli\n"
        "assert 'mpmath' not in sys.modules\n"
        "ineq = factcert.StirlingInequality(a=8.0)\n"
        "print(factcert.stirling_bound(ineq))\n"
        "assert cli.main(['bounds', '--radical', '50']) == cli.EXIT_OK\n"
        "assert cli.main(['bounds', '--stirling', '8,0,0,1']) == cli.EXIT_OK\n"
        "assert 'mpmath' in sys.modules\n"
    )
    proc = _fresh_python(script)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "736"
    assert "log radical 88.343511" in lines
    assert "margin 51.672220  below=true" in lines
    assert lines[-1] == "m_max=736"
