"""One benchmark pass: a fresh interpreter that runs a list of verifications.

Usage: child.py ROOT OUT_DIR PLAN_JSON [TRACE_FILE]

PLAN_JSON is a list of [suite, n, jobs].  Each entry is run as
``permact.cli.main(["verify", suite, "--max-n", n, "--jobs", jobs,
"--format", "json", "--out", FILE])``, so every lru cache starts cold, as it
does for a user's invocation, and suites later in the list see what earlier
ones cached.  The last line of standard output is a JSON object with the
times at which ``permact.cli`` was ready, the first suite
started and the last report was hashed, and per report its exit code,
sha256, instance count and failed-instance count.  Times are
``time.perf_counter()``, which on Linux reads CLOCK_MONOTONIC and so is
comparable with the parent's clock.  With TRACE_FILE the
tracer is installed after the import and its spans and records are written
there; the originals are restored before the process ends.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, out_dir, plan = Path(argv[0]), Path(argv[1]), json.loads(argv[2])
    trace_file = Path(argv[3]) if len(argv) > 3 else None
    sys.path.insert(0, str(root / "src"))
    from permact import cli

    t_ready = time.perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"permact was imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2

    tracer = None
    if trace_file is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, diff

        tracer = Tracer(out_dir)
        tracer.install()

    reports = []
    t_first = time.perf_counter()
    for suite, n, jobs in plan:
        path = out_dir / f"{suite}-{n}-j{jobs}.json"
        code = cli.main([
            "verify", suite, "--max-n", str(n), "--jobs", str(jobs),
            "--format", "json", "--out", str(path),
        ])
        data = path.read_bytes()
        instances = json.loads(data)["instances"]
        reports.append({
            "suite": suite, "n": n, "jobs": jobs, "exit": code,
            "sha256": hashlib.sha256(data).hexdigest(),
            "instances": len(instances),
            "failed": sum(not inst["ok"] for inst in instances),
        })
        if tracer is not None:
            tracer.collect_workers()
    t_last = time.perf_counter()

    if tracer is not None:
        tracer.uninstall()
        trace_file.write_text(json.dumps({
            "spans": [{"kind": "workload", "name": "pass", "pid": tracer.owner_pid,
                       "start": t_first, "end": t_last}] + tracer.spans,
            "records": diff(tracer.snapshot(), {}),
        }))
    print(json.dumps({"t_ready": t_ready, "t_first": t_first, "t_last": t_last, "reports": reports}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
