"""Paired benchmark of two checkouts, written to BENCH_<label>.json.

    python3 scripts/bench_pair.py --parent DIR --change DIR --label NAME [--instance SUITE:N ...]

For every workload of BENCHMARK.json, ``perfbench/run.py --trace 0`` runs
``PAIRS`` times on each checkout, alternating which side goes first, with
one seed per pair; then every workload gets one ``--trace 1`` run per side.
The file records each run's metrics and, per workload and metric, each
side's median and quartiles, the parent's quartile spread and the number of
pairs the change wins (ties count for neither side), with the Python version
and the CPU count.  Each ``--instance SUITE:N`` also records, per side, the
untraced seconds of that one instance as ``permact verify SUITE --max-n N
--timing`` reports them, over ``PAIRS`` alternating runs, and the peak RSS
of each such ``permact verify`` child, read from ``os.wait4``.  Linux keeps
``ru_maxrss`` across ``execve``, so that figure is at least this script's
resident size when it forks the child: an upper bound.  A gain counts
only when the change wins at least nine pairs in ten and the medians differ
by more than the parent's quartile spread.  Before any run the script
refuses, with exit status 2, a pair whose resolved paths differ in length
(``peak_rss_mb`` moves with the path length, by up to 0.4 MiB) or whose
``perfbench/`` files and ``BENCHMARK.json`` differ in any byte.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed {result['failed']} instances")
    return {name: m["value"] for name, m in result["metrics"].items()}


def instance_run(checkout: Path, suite: str, n: int) -> tuple[float, float]:
    """The seconds ``permact verify --timing`` reports for the instance at n,
    and the peak RSS in MiB of the ``permact verify`` child."""
    cmd = [sys.executable, "-m", "permact.cli", "verify", suite, "--max-n", str(n), "--timing"]
    env = {k: v for k, v in os.environ.items() if k != "PERMACT_MAX_N"}
    env["PYTHONPATH"] = str(checkout / "src")
    with subprocess.Popen(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True) as child:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"{checkout}: {suite} n={n} exited with status {child.returncode}")
    last = json.loads(out)["instances"][-1]
    if last["n"] != n or not last["ok"]:
        raise SystemExit(f"{checkout}: {suite} n={n} did not pass")
    return last["seconds"], usage.ru_maxrss / 1024


def benchmark_files(checkout: Path) -> dict[str, bytes]:
    """BENCHMARK.json and every file under perfbench/ except bytecode
    caches, by path relative to the checkout."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    return {str(p.relative_to(checkout)): p.read_bytes()
            for p in paths if p.is_file() and "__pycache__" not in p.parts}


def refusal(parent: Path, change: Path) -> str | None:
    """Why the two checkouts cannot be benchmarked against each other, or None."""
    if len(str(parent)) != len(str(change)):
        return (f"the checkout paths differ in length ({parent}: {len(str(parent))}, "
                f"{change}: {len(str(change))}), and peak_rss_mb moves with it")
    ours, theirs = benchmark_files(parent), benchmark_files(change)
    differing = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
    if differing:
        return f"the checkouts differ in the benchmark's own files: {', '.join(differing)}"
    return None


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--instance", action="append", default=[], metavar="SUITE:N")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    why = refusal(sides["parent"], sides["change"])
    if why:
        parser.error(why)
    runs, summary, traced = [], {}, {}
    for w, workload in enumerate(wl["name"] for wl in bench["workloads"]):
        for k in range(PAIRS):
            seed = 100 * (w + 1) + k
            order = ["parent", "change"] if (w + k) % 2 == 0 else ["change", "parent"]
            for side in order:
                metrics = run_bench(sides[side], workload, seed, bench["run_seconds"], 0)
                runs.append({"workload": workload, "seed": seed, "side": side, "metrics": metrics})
                print(f"{workload} seed {seed} {side}: wall_s {metrics['wall_s']:.3f}", flush=True)
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            values = {side: [r["metrics"][name] for r in runs
                             if r["workload"] == workload and r["side"] == side]
                      for side in sides}
            row = {side: spread(v) for side, v in values.items()}
            row["parent_spread"] = row["parent"]["q3"] - row["parent"]["q1"]
            row["change_wins"] = sum(sign * (c - p) < 0
                                     for p, c in zip(values["parent"], values["change"]))
            summary[workload][name] = row
        traced[workload] = {side: run_bench(path, workload, 100 * (w + 1) + PAIRS,
                                            bench["run_seconds"], 1)
                            for side, path in sides.items()}
    instances = {}
    for spec in args.instance:
        suite, n = spec.rsplit(":", 1)
        seconds: dict[str, list[float]] = {side: [] for side in sides}
        rss: dict[str, list[float]] = {side: [] for side in sides}
        for k in range(PAIRS):
            for side in (["parent", "change"] if k % 2 == 0 else ["change", "parent"]):
                secs, mb = instance_run(sides[side], suite, int(n))
                seconds[side].append(secs)
                rss[side].append(mb)
        instances[spec] = {side: {**spread(seconds[side]), "runs": seconds[side],
                                  "peak_rss_mb": {**spread(rss[side]), "runs": rss[side]}}
                           for side in sides}
        print(f"{spec}: " + ", ".join(
            f"{side} {instances[spec][side]['median']:.3f} s "
            f"{instances[spec][side]['peak_rss_mb']['median']:.1f} MiB" for side in sides), flush=True)
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "summary": summary,
        "traced": traced,
        "runs": runs,
        "instances": instances,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
