"""Rebuild the frozen certificate file that the recheck-deep workload reads.

Runs two searches with the factcert CLI from this checkout's src/, joins
their certificate lists, and writes perfbench/data/recheck_certs.json.gz
(gzip with a zero timestamp, so equal inputs give equal bytes) plus the
manifest beside it.  Run from the repository root:

    python3 perfbench/make_recheck_input.py

The manifest pins the SHA-256 of the uncompressed JSON; run.py refuses a
file that does not match, so later certifier changes cannot alter the
workload's input.  Rerunning this script at a later commit is only right
when the benchmark itself is meant to change.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from run import source_digest

ROOT = Path.cwd()
DATA = Path(__file__).resolve().parent / "data"
SEARCHES = [
    ["search", "--form", "x2+y2", "--nmax", "100"],
    ["search", "--form", "x3+2y3", "--nmax", "25"],
]


def main() -> int:
    if not (ROOT / "src" / "factcert" / "cli.py").is_file():
        print("run from the repository root (src/factcert not found)", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    certs: list[dict] = []
    commands = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for i, args in enumerate(SEARCHES):
            out = Path(tmp) / f"s{i}"
            cmd = [sys.executable, "-m", "factcert.cli", *args, "--out", str(out)]
            rc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode
            if rc not in (0, 2):
                print(f"search {args} exited {rc}", file=sys.stderr)
                return 1
            data = json.loads((out / "certificates.json").read_text(encoding="utf-8"))
            certs.extend(data["certificates"])
            commands.append("factcert " + " ".join(args) + " --out DIR")
    versions = sorted({c["checker_version"] for c in certs})
    blob = (json.dumps({"certificates": certs}, indent=2) + "\n").encode("utf-8")
    DATA.mkdir(parents=True, exist_ok=True)
    with open(DATA / "recheck_certs.json.gz", "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
            gz.write(blob)
    manifest = {
        "file": "recheck_certs.json.gz",
        "sha256": hashlib.sha256(blob).hexdigest(),
        "certificates": len(certs),
        "checker_versions": versions,
        "commands": commands,
        "joined": "certificate lists concatenated in command order",
        "src_sha256": source_digest(),
    }
    (DATA / "recheck_certs.manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
