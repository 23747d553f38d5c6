"""One fresh factcert CLI process, as run.py launches it.

    python3 perfbench/child.py REPORT MODE KIND [CLI ARGS...]

MODE is "ready" (import factcert and exit: a set-up probe), "run" (run the
CLI command) or "trace" (run it with tracer.py's hooks installed).  KIND
("search" or "recheck") names the hooks a traced run must reach.  The child
writes to REPORT the monotonic time at which factcert was imported and the
command was ready to run, the CLI's exit status, its own /proc/self/io
write count and, when traced, the per-layer metrics.  The parent measures
wall time and peak RSS from outside.
"""

from __future__ import annotations

import json
import sys
import time


def written_bytes() -> int:
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key == "wchar":
                return int(value)
    raise RuntimeError("/proc/self/io has no wchar line")


def main() -> int:
    report_path, mode, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    import factcert.cli as cli

    ready = time.monotonic()
    report: dict = {"ready": ready}
    if mode == "ready":
        rc = 0
    else:
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        rc = cli.main(argv)
        sys.stdout.flush()
        report["write_bytes"] = written_bytes()
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.summary(kind)
    report["rc"] = rc
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
