"""Cold-process benchmark of factcert's search and recheck paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; factcert is imported from ./src.  Every
measured sample is a fresh `factcert` CLI process with default settings, so
the obstruction-profile cache and the prime sieve start empty as they do for
a user.  Samples run one after another, single-process, until the next one
would overrun S seconds (at least MIN_SAMPLES run).  Then every sample's
outputs pass the correctness gate (gate.py) and must be byte-identical to
each other.

--trace 0 prints the end-to-end metrics (medians over the samples), --trace 1
adds one traced process (tracer.py) and prints the per-layer metrics.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
A record with the digests, counts and environment goes to
.perfbench/records/.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(".perfbench")  # relative: the CLI prints paths, keep their length fixed
MIN_SAMPLES = 1
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    kind: str  # "search" or "recheck"
    why: str
    form: str = ""
    coeffs: tuple[int, ...] = ()
    n_max: int = 0
    checkpoint: bool = False
    seed_solutions: tuple[tuple[int, int], ...] = ()
    # per-layer counters this workload must drive above zero
    must_move: tuple[str, ...] = ()


WORKLOADS = {
    "squares-n60": Workload(
        kind="search",
        why="certifier-heavy x2+y2 grid with a fresh checkpoint; cross-check on",
        form="x2+y2",
        coeffs=(1, 0, 1),
        n_max=60,
        checkpoint=True,
        seed_solutions=(
            (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (6, 2), (7, 1), (5, 4),
            (7, 2), (8, 1), (8, 2), (9, 2), (11, 1), (7, 6), (11, 2), (12, 1),
            (12, 2), (9, 6), (13, 2), (10, 6), (11, 6), (10, 8), (12, 6),
            (13, 6), (14, 6),
        ),
        must_move=("solver.cross_check_calls", "certify.route_window",
                   "obstruction.build_calls"),
    ),
    "cubic-n9": Workload(
        kind="search",
        why="indefinite x3+2y3 grid where exact solving dominates; no cross-check",
        form="x3+2y3",
        coeffs=(1, 0, 0, 2),
        n_max=9,
        seed_solutions=((2, 1), (3, 2), (4, 1), (7, 1), (6, 4), (7, 5)),
        must_move=("solver.exact_solve_calls", "obstruction.build_calls"),
    ),
    "recheck-deep": Workload(
        kind="recheck",
        why="recheck --deep of a frozen 5073-certificate file",
        must_move=("obstruction.verify_calls", "obstruction.build_calls"),
    ),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, crashed child)."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "factcert").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed_readings": json.loads((HERE / "seed_readings.json").read_text()),
    }


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Sample:
    start: float
    end: float
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    rc: int
    report: dict
    stdout: Path
    outdir: Path
    cpu_s: float
    slowness: float = 1.0  # host slowness while it ran (hostspeed.py)

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s / self.slowness

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s / self.slowness


def launch(mode: str, kind: str, args: list[str], rundir: Path) -> Sample:
    """Run child.py once; wall time and peak RSS are taken from outside."""
    rundir.mkdir(parents=True)
    report_path = rundir / "report.json"
    stdout = rundir / "stdout.txt"
    cmd = [sys.executable, str(HERE / "child.py"), str(report_path), mode, kind, *args]
    with open(stdout, "wb") as out, open(rundir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = _wait4(proc.pid, t0 + CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (rundir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    if proc.returncode not in (0, 2) or "Traceback" in stderr or not report_path.is_file():
        raise BenchError(
            f"factcert {' '.join(args) or '(import)'} exited {proc.returncode}:\n{stderr[-2000:]}"
        )
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report["rc"] != proc.returncode:
        raise BenchError(f"child reported exit {report['rc']}, process exited {proc.returncode}")
    return Sample(
        start=t0,
        end=t1,
        wall_s=t1 - t0,
        setup_s=report["ready"] - t0,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        rc=proc.returncode,
        report=report,
        stdout=stdout,
        outdir=rundir / "out",
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def _wait4(pid: int, deadline: float):
    while True:
        got, status, usage = os.wait4(pid, os.WNOHANG)
        if got == pid:
            return got, status, usage
        if time.monotonic() > deadline:
            raise BenchError(f"child {pid} ran past {CHILD_TIMEOUT_S} s")
        time.sleep(0.002)


def cli_args(w: Workload, rundir: Path, certs: Path) -> list[str]:
    if w.kind == "recheck":
        return ["recheck", "--deep", "--certs", str(certs)]
    args = ["search", "--form", w.form, "--nmax", str(w.n_max), "--out", str(rundir / "out")]
    if w.checkpoint:
        args += ["--checkpoint", str(rundir / "checkpoint.json")]
    return args


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def frozen_certificates(rng: random.Random) -> list[dict]:
    """The frozen recheck input, digest-checked, in a seed-chosen order."""
    manifest = json.loads((HERE / "data" / "recheck_certs.manifest.json").read_text())
    blob = gzip.decompress((HERE / "data" / manifest["file"]).read_bytes())
    if hashlib.sha256(blob).hexdigest() != manifest["sha256"]:
        raise BenchError("frozen recheck input does not match its manifest digest")
    certs = json.loads(blob)["certificates"]
    if len(certs) != manifest["certificates"]:
        raise BenchError("frozen recheck input has the wrong certificate count")
    rng.shuffle(certs)
    return certs


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def measure(w: Workload, seconds: float, trace: bool, workdir: Path, certs_path: Path):
    """Setup probes, then untraced samples for the time budget, then (traced
    runs only) one traced sample.  Returns (probes, samples, traced)."""
    counter = iter(range(10**6))

    def rundir() -> Path:
        return workdir / f"s{next(counter):03d}"

    with HostSpeed() as host:
        time.sleep(0.5)  # first readings before the first probe
        probes = [launch("ready", w.kind, [], rundir()) for _ in range(SETUP_PROBES)]
        samples: list[Sample] = []
        start = time.monotonic()
        while True:
            d = rundir()
            samples.append(launch("run", w.kind, cli_args(w, d, certs_path), d))
            typical = statistics.median(s.wall_s for s in samples)
            reserve = 1.6 * typical if trace else 0.0
            spent = time.monotonic() - start
            if len(samples) >= (1 if trace else MIN_SAMPLES) and spent + typical + reserve > seconds:
                break
        traced = None
        if trace:
            d = rundir()
            traced = launch("trace", w.kind, cli_args(w, d, certs_path), d)
    for s in probes + samples + ([traced] if traced else []):
        s.slowness = host.slowness(s.start, s.end)
    return probes, samples, traced


def gate(w: Workload, sample: Sample, certs: list[dict]):
    import gate as gate_mod

    if w.kind == "recheck":
        return gate_mod.check_recheck(sample.stdout, certs)
    return gate_mod.check_search(sample.outdir, w.coeffs, w.n_max, w.seed_solutions)


def resolved(w: Workload, g) -> int:
    if w.kind == "recheck":
        return g.attempted - len(g.failed)
    return g.attempted - g.counts["totals"]["UNKNOWN"]


def run(args) -> int:
    w = WORKLOADS[args.workload]
    if not (SRC / "factcert" / "cli.py").is_file():
        raise BenchError(f"no factcert source at {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import factcert

    if Path(factcert.__file__).resolve().parent != (SRC / "factcert").resolve():
        raise BenchError(f"imported factcert from {factcert.__file__}, not from {SRC}")

    rng = random.Random(args.seed)
    workdir = WORK / f"run-{rng.getrandbits(32):08x}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        certs: list[dict] = []
        certs_path = workdir / "certs.json"
        if w.kind == "recheck":
            certs = frozen_certificates(rng)
            certs_path.write_text(json.dumps({"certificates": certs}), encoding="utf-8")
        # compile bytecode once, outside the measurement
        subprocess.run([sys.executable, "-c", "import factcert.cli"], cwd=ROOT,
                       env=child_env(), check=True)
        probes, samples, traced = measure(w, args.seconds, args.trace, workdir, certs_path)
        return report(w, args, certs, probes, samples, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(w, args, certs, probes, samples, traced) -> int:
    measured = samples + ([traced] if traced else [])
    gates = [gate(w, s, certs) for s in measured]
    attempted = sum(g.attempted for g in gates)
    failed = sum(len(g.failed) for g in gates)
    problems = [p for g in gates for p in g.problems]
    first = gates[0]
    for i, g in enumerate(gates[1:], 1):
        if g.digests != first.digests or g.counts != first.counts:
            failed += 1
            problems.append(f"sample {i}: outputs differ from sample 0 (non-deterministic)")
    write_mb = {s.report["write_bytes"] / 1e6 for s in samples}
    if len(write_mb) != 1:
        problems.append(f"bytes written differ between samples: {sorted(write_mb)}")
        failed += 1

    wall = statistics.median(s.ref_wall_s for s in samples)
    items = first.attempted
    setups = probes + samples
    end_to_end = {
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "setup_s": (statistics.median(s.ref_setup_s for s in setups), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MB"),
        "resolved_items": (resolved(w, first), "count"),
    }
    cpu_per_wall = max(s.cpu_s / s.wall_s for s in samples)
    if cpu_per_wall > 1.2:
        problems.append(
            f"child used {cpu_per_wall:.2f} cores; host-speed scaling assumes one, "
            "judge wall_raw_s instead"
        )
    extra = {
        "wall_raw_s": (statistics.median(s.wall_s for s in samples), "s"),
        "setup_raw_s": (statistics.median(s.setup_s for s in setups), "s"),
        "slowness": (statistics.median(s.slowness for s in samples), "ratio"),
        "cpu_per_wall": (cpu_per_wall, "ratio"),
        "failed_frac": (failed / attempted, "ratio"),
        "samples": (len(samples), "count"),
        "setup_readings": (len(setups), "count"),
    }
    if w.kind == "search":
        extra["unknown_cells"] = (first.counts["totals"]["UNKNOWN"], "count")

    layers = {}
    if traced is not None:
        layers = per_layer(w, traced, first, wall, samples)
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "environment": env,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "per_layer": layers,
        "samples": [
            {"wall_s": s.wall_s, "setup_s": s.setup_s, "slowness": s.slowness,
             "cpu_s": s.cpu_s, "peak_rss_mb": s.peak_rss_mb, "rc": s.rc}
            for s in samples
        ],
        "setup_probes": [{"setup_s": p.setup_s, "slowness": p.slowness} for p in probes],
        "digests": first.digests,
        "counts": first.counts,
        "problems": problems,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"# workload {args.workload}: {w.why}")
    print(f"# {env['cores']} cores, Python {env['python']}, {env['cpu_model']}, "
          f"src {env['src_sha256'][:12]}")
    for name, (value, unit) in {**end_to_end, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    for name, digest in first.digests.items():
        print(f"digest {name} {digest}")
    for name, value in first.counts.items():
        print(f"count {name} {json.dumps(value)}")
    for name, (value, unit) in layers.items():
        print(f"{name} {value:.6g} {unit}")
    for p in problems:
        print(f"PROBLEM {p}")
    shown = layers if args.trace else end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


def per_layer(w: Workload, traced: Sample, g, untraced_wall: float, samples) -> dict:
    """The traced child's layer metrics, cross-checked against the outputs."""
    raw = dict(traced.report["layers"])
    for name in w.must_move:
        if not raw.get(name):
            raise BenchError(f"traced run: {name} is 0 on {w.kind} workload; hook no longer reached")
    if w.kind == "search":
        routes = g.counts["routes"]
        checks = {
            "solver.cells": g.counts["rows"],
            "certify.route_window": routes["window"],
            "certify.route_ascending": routes["ascending"],
            "certify.route_cofactor": routes["cofactor"],
        }
    else:
        checks = {"certify.recheck_calls": g.attempted}
    for name, want in checks.items():
        if raw[name] != want:
            raise BenchError(f"traced run: {name} = {raw[name]}, outputs say {want}")
    from tracer import unit_of

    main_s = raw.pop("trace.main_s")
    self_total = raw["cli.self_s"] + sum(v for k, v in raw.items() if k.endswith(".layer_self_s"))
    out = {}
    for name, value in raw.items():
        unit = unit_of(name)
        # times from inside the child, scaled like wall_s
        out[name] = (value / traced.slowness if unit in ("s", "ms") else value, unit)
    out["proc.write_mb"] = (statistics.median(s.report["write_bytes"] for s in samples) / 1e6, "MB")
    out["trace.wall_s"] = (traced.ref_wall_s, "s")
    out["trace.overhead_s"] = (traced.ref_wall_s - untraced_wall, "s")
    out["trace.slowness"] = (traced.slowness, "ratio")
    out["trace.unaccounted_frac"] = (
        (traced.wall_s - traced.setup_s - self_total) / traced.wall_s, "ratio"
    )
    if abs(out["trace.unaccounted_frac"][0]) > 0.05:
        raise BenchError(
            f"traced run: layer self times miss {out['trace.unaccounted_frac'][0]:.1%} "
            "of the wall time; a hook is missing"
        )
    out["trace.main_s"] = (main_s / traced.slowness, "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
