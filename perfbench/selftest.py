"""Self-test of the benchmark, and the recorder of its report digests.

    python3 perfbench/selftest.py            # check
    python3 perfbench/selftest.py --record   # rewrite digests.json

The check runs one pass of every workload under two seeds that order the
suites differently and requires every report digest to match
``digests.json`` under both; ``hops`` runs at ``--jobs 2`` against digests
recorded at ``--jobs 1``.  It then installs the tracer in this
process and requires every patched binding to be the original again after
``uninstall``.

``--record`` runs every (suite, n) of every workload once at ``--jobs 1``,
requires each report to pass, and writes its sha256 and instance count.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

import run


def _pass_digests(workload: str, seed: int) -> tuple[list[str], dict[str, str]]:
    plan = run.plan_for(workload, random.Random(f"{workload}:{seed}"))
    res = run.run_child(run.OUT / f"selftest-{workload}-{seed}", plan, time.monotonic() + 600)
    return [p[0] for p in plan], {f"{r['suite']}:{r['n']}": r["sha256"] for r in res["reports"]}


def check_seeds() -> None:
    digests = run.load_digests()
    for workload in run.WORKLOADS:
        order_a, got_a = _pass_digests(workload, 1)
        seed = 2
        while run.plan_for(workload, random.Random(f"{workload}:{seed}"))[0][0] == order_a[0]:
            seed += 1
        order_b, got_b = _pass_digests(workload, seed)
        assert order_a != order_b, (workload, order_a)
        assert got_a == got_b, f"{workload}: digests depend on suite order"
        for key, sha in got_a.items():
            assert sha == digests[key]["sha256"], f"{workload}: {key} does not match digests.json"
        print(f"ok {workload}: seeds 1 and {seed} give identical digests "
              f"({order_a[0]} first vs {order_b[0]} first)")


def check_tracer() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import permact.action
    import permact.harness
    import permact.polynomials
    import permact.words
    from tracer import Tracer

    des = permact.words.des
    runner = permact.harness.SUITES["orb"].runner
    mul = permact.polynomials.IntPolynomial.__dict__["__mul__"]
    from_counts = permact.polynomials.IntPolynomial.__dict__["from_counts"]
    tracer = Tracer(run.OUT)
    tracer.install()
    patched = [permact.words.des, permact.action.des, permact.harness.des,
               permact.harness.SUITES["orb"].runner,
               permact.polynomials.IntPolynomial.__dict__["__mul__"]]
    assert all(p is not o for p, o in zip(patched, [des, des, des, runner, mul])), patched
    assert permact.harness.run_suite("orb", 4).passed
    assert tracer.records["words:des"][0] > 0
    assert tracer.records["harness:_run_orb"][0] == 4
    tracer.uninstall()
    assert permact.words.des is des and permact.action.des is des and permact.harness.des is des
    assert permact.harness.SUITES["orb"].runner is runner
    assert permact.polynomials.IntPolynomial.__dict__["__mul__"] is mul
    assert permact.polynomials.IntPolynomial.__dict__["from_counts"] is from_counts
    print("ok tracer: bindings patched in words, action, harness, Suite and IntPolynomial, "
          "and restored")


def record() -> None:
    digests = {}
    for jobs, suites in run.WORKLOADS.values():
        for suite, n in suites:
            key = f"{suite}:{n}"
            if key in digests:
                continue
            res = run.run_child(run.OUT / "record", [[suite, n, 1]], time.monotonic() + 600)
            rep = res["reports"][0]
            if rep["exit"] != 0 or rep["failed"]:
                raise SystemExit(f"{key} does not pass; not recording it: {rep}")
            digests[key] = {"sha256": rep["sha256"], "instances": rep["instances"]}
            print(f"recorded {key} {rep['sha256'][:12]}")
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true")
    if parser.parse_args().record:
        record()
    else:
        check_tracer()
        check_seeds()
    return 0


if __name__ == "__main__":
    sys.exit(main())
