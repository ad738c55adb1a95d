"""The permact benchmark: wall time of ``permact verify`` over fixed suite lists.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  A workload is a fixed list of (suite, n) verifications
at one ``--jobs`` value.  One pass runs the whole list, in an order drawn
from the seed, in a fresh interpreter (``child.py``), so lru caches start
cold as they do for each user invocation.  Passes repeat, closed loop, until
the next one would end after ``--seconds``; there are at least
``MIN_PASSES``.  Every report is checked against the sha256 recorded in
``digests.json`` at ``--jobs 1``, so the ``--jobs 2`` workload also checks
that report bytes do not depend on ``--jobs``.

With ``--trace 0`` the metrics are:

  wall_s       mean over the passes of first suite call to last report hashed
  setup_s      median over the passes and ``SETUP_PROBES`` import-only
               children of child spawn until ``permact.cli`` is imported
  cpu_s        mean over the passes of the user + sys seconds of the pass's
               process tree, pool workers included
  peak_rss_mb  largest resident set of any process in the run, in MiB

The effective CPU speed of a shared machine can swing by a factor of 1.8
for tens of seconds; over runs of one minute the mean of the passes
spreads less than their median or minimum (record.json has the figures).

With ``--trace 1`` untraced and traced passes alternate and the metrics are
the ``per_layer`` ones of BENCHMARK.json, computed in ``layers.py``, medians over the traced passes;
``trace.overhead_s`` is the median traced wall minus the median untraced
wall.  Traces are kept under ``.bench_build/perfbench/traces``.

Every metric, with ``instances`` (the (suite, n) instances of a pass) and
``instances_failed``, is printed by name and unit; the last line is the JSON
result.  ``attempted`` and ``failed`` in it count instances over all passes;
an instance fails when it does not pass or its report does not match its
digest.  Exit code 2 means the program could not be found or imported.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from layers import layer_metrics, suite_split  # noqa: E402

# Two workloads that stress different layers; record.json has the reasons,
# the traced split and why there are not more.  n is pinned rather than
# left to suite defaults, which later work will raise.
WORKLOADS: dict[str, tuple[int, list[tuple[str, int]]]] = {
    "hops": (2, [("orb", 8), ("corre", 8), ("constant-patterns", 7)]),
    "sorts-algebra": (1, [
        ("genbona", 7), ("evt", 7), ("euler-mahonian", 8), ("psi-prime", 7),
        ("psiphi", 7), ("slides-equal-recursive", 8), ("stack-invariance", 7),
        ("kreweras", 9), ("veh-altsum", 8),
        ("gessel", 6), ("pq-symmetry", 8), ("mahonian-s1s2", 8), ("divisibility", 8),
        ("narayana", 9), ("guo-zeng", 10), ("brenti-logconcave", 10), ("wp", 5),
    ]),
}
MIN_PASSES = 3
SETUP_PROBES = 10
DEADLINE_S = 170.0
OUT = ROOT / ".bench_build" / "perfbench"


class BenchError(RuntimeError):
    pass


def plan_for(workload: str, rng: random.Random) -> list[list]:
    """The workload's verifications in an order drawn from ``rng``."""
    jobs, suites = WORKLOADS[workload]
    order = list(suites)
    rng.shuffle(order)
    return [[suite, n, jobs] for suite, n in order]


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with its rusage (which includes its reaped pool workers);
    kill its whole process group past the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"pass did not finish before the {DEADLINE_S:.0f} s deadline")
        time.sleep(0.005)


def run_child(work: Path, plan: list, deadline: float, trace_file: Path | None = None) -> dict:
    """Run one child; return its result with setup, cpu and rss added."""
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(CHILD), str(ROOT), str(work), json.dumps(plan)]
    if trace_file is not None:
        cmd.append(str(trace_file))
    env = dict(os.environ)
    env.pop("PERMACT_MAX_N", None)
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        usage = _wait(proc, deadline)
    stderr = (work / "stderr").read_text(errors="replace")
    lines = (work / "stdout").read_text().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with {proc.returncode}:\n{stderr[-2000:]}")
    result = json.loads(lines[-1])
    result.update(
        setup_s=result["t_ready"] - t_spawn,
        wall_s=result["t_last"] - result["t_first"],
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
    )
    return result


def check_reports(result: dict, digests: dict) -> tuple[int, int]:
    """Instances attempted and failed in one pass."""
    attempted = failed = 0
    for rep in result["reports"]:
        expected = digests[f"{rep['suite']}:{rep['n']}"]
        attempted += rep["instances"]
        if rep["sha256"] != expected["sha256"] or rep["exit"] != 0:
            failed += max(rep["instances"], expected["instances"])
        else:
            failed += rep["failed"]
    return attempted, failed


def load_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def metric_units(trace: bool) -> dict[str, str]:
    """Name to unit of the metrics a run prints, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "permact" / "cli.py").is_file():
        raise FileNotFoundError(f"no permact sources under {ROOT / 'src'}")
    digests = load_digests()
    units = metric_units(trace)
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / f"{workload}-{os.getpid()}"
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    try:
        # The first child also writes bytecode caches; it is not timed.
        run_child(work, [], deadline)
        setups = [run_child(work, [], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        modes = itertools.cycle([False, True] if trace else [False])
        mode = next(modes)
        passes: dict[bool, list[dict]] = {False: [], True: []}
        attempted = failed = 0
        t0 = time.monotonic()
        while True:
            index = len(passes[mode])
            trace_file = traces / f"{workload}-seed{seed}-pass{index}.json" if mode else None
            plan = plan_for(workload, rng)
            t_pass = time.monotonic()
            res = run_child(work, plan, deadline, trace_file)
            res["duration"] = time.monotonic() - t_pass
            a, f = check_reports(res, digests)
            attempted, failed = attempted + a, failed + f
            res["instances"], res["instances_failed"] = a, f
            if mode:
                traced = json.loads(trace_file.read_text())
                res["layers"] = layer_metrics(traced)
                res["split"] = suite_split(traced)
            else:
                setups.append(res["setup_s"])
            passes[mode].append(res)
            print(f"pass {index} {'traced' if mode else 'untraced'}: "
                  f"wall {res['wall_s']:.3f} s, order {[p[0] for p in plan]}", flush=True)
            mode = next(modes)
            enough = (len(passes[True]) >= 1) if trace else (len(passes[False]) >= MIN_PASSES)
            typical = statistics.median(r["duration"] for r in passes[mode]) if passes[mode] else 0.0
            if enough and time.monotonic() - t0 + typical > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = passes[False]
    summary = {
        "instances": untraced[0]["instances"],
        "instances_failed": max(r["instances_failed"] for p in passes.values() for r in p),
    }
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in passes[True])
                   for name in passes[True][0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in passes[True])
                                       - statistics.median(r["wall_s"] for r in untraced))
        for suite, layers in passes[True][-1]["split"].items():
            total = sum(layers.values())
            print(f"split {suite}: " + ", ".join(
                f"{layer} {100 * s / total:.1f}%"
                for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])))
    else:
        metrics = {
            "wall_s": statistics.fmean(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.fmean(r["cpu_s"] for r in untraced),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
        }
    if metrics.keys() != units.keys():
        raise BenchError(f"measured metrics {sorted(metrics)} are not the ones "
                         f"BENCHMARK.json lists: {sorted(units)}")
    return {
        "passes": {"untraced": len(untraced), "traced": len(passes[True]),
                   "setup_samples": len(setups)},
        "summary": summary,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload}: {out['passes']}")
    for name, m in out["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"instances {out['summary']['instances']} count")
    print(f"instances_failed {out['summary']['instances_failed']} count")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
