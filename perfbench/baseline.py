"""Traced per-instance seconds at the suites' default bounds.

    python3 perfbench/baseline.py

Runs the seven suites of the ROADMAP baseline table at their default bounds
in one untraced and one traced pass (``--jobs 1``), and prints, per suite,
the traced seconds of every instance and of the largest n, next to the
figures the table gives.  Traced seconds include the tracer's per-call cost;
the untraced/traced wall ratio printed with them says how much.  The output
is what ``record.json`` keeps under ``roadmap_baseline``.
"""

from __future__ import annotations

import json
import sys
import time

import run

# suite: (default bound, ROADMAP suite total s, ROADMAP largest-n s or None)
ROADMAP = {
    "orb": (8, 4.36, 3.62),
    "corre": (9, 3.84, 2.46),
    "genbona": (8, 2.18, 1.95),
    "constant-patterns": (8, 1.60, None),
    "evt": (8, 1.31, None),
    "gessel": (6, 1.30, 1.24),
    "euler-mahonian": (8, 1.14, None),
}


def main() -> int:
    plan = [[suite, n, 1] for suite, (n, _, _) in ROADMAP.items()]
    work = run.OUT / "baseline"
    deadline = time.monotonic() + 900
    untraced = run.run_child(work, plan, deadline)
    trace_file = run.OUT / "baseline-trace.json"
    traced = run.run_child(work, plan, deadline, trace_file)
    for rep in untraced["reports"] + traced["reports"]:
        assert rep["exit"] == 0 and rep["failed"] == 0, rep
    spans = json.loads(trace_file.read_text())["spans"]
    rows = {}
    for suite, (n, total, largest) in ROADMAP.items():
        inst = {s["name"]: s["end"] - s["start"] for s in spans
                if s["kind"] == "instance" and s["name"].startswith(f"{suite} n=")}
        rows[suite] = {
            "n": n,
            "roadmap_total_s": total,
            "traced_total_s": round(sum(inst.values()), 3),
            "roadmap_largest_n_s": largest,
            "traced_largest_n_s": round(inst[f"{suite} n={n}"], 3),
        }
    print(json.dumps({
        "untraced_wall_s": round(untraced["wall_s"], 3),
        "traced_wall_s": round(traced["wall_s"], 3),
        "suites": rows,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
