"""Per-layer metrics of one traced pass, read from the tracer's output.

A layer is one permact module.  ``<layer>.self_s`` is the time the layer's
own code ran: the self time of its traced functions, summed over the pass's
processes.  Counts are calls or items of named functions; ratios say which
counts they divide.  The metric names, units and directions are those of
``per_layer`` in BENCHMARK.json, which ``run.py`` reads.
"""

from __future__ import annotations

SELF_LAYERS = ("words", "action", "polynomials", "stacksort", "trees",
               "mahonian", "patterns", "posets", "harness")


def _merged_records(trace: dict, owner: int) -> dict[str, dict]:
    """The owner's records plus those of every instance run in a pool worker."""
    merged = {k: dict(v, callers=dict(v["callers"])) for k, v in trace["records"].items()}
    for span in trace["spans"]:
        if span["kind"] != "instance" or span["pid"] == owner:
            continue
        for key, rec in span["records"].items():
            into = merged.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                           "items": 0, "callers": {}})
            for field in ("calls", "total_s", "self_s", "items"):
                into[field] += rec[field]
            for caller, c in rec["callers"].items():
                into["callers"][caller] = into["callers"].get(caller, 0) + c
    return merged


def _harness_split(trace: dict, owner: int) -> tuple[float, float, float]:
    """Pool overhead, the owner's time spent waiting on workers, and the
    slowest instance, from the suite and instance spans.

    Per suite, the critical path is the busiest process's summed instance
    time; ``run_suite`` time beyond it is overhead of the harness or its
    pool.  Waiting on workers shows up in the owner as ``run_suite`` self
    time, so that part is taken out of ``harness.self_s``.
    """
    spans = trace["spans"]
    instances = [s for s in spans if s["kind"] == "instance"]
    overhead = waiting = 0.0
    for suite in (s for s in spans if s["kind"] == "suite"):
        busy: dict[int, float] = {}
        for inst in instances:
            if suite["start"] <= inst["start"] <= suite["end"]:
                busy[inst["pid"]] = busy.get(inst["pid"], 0.0) + inst["end"] - inst["start"]
        run_suite = suite["records"].get("harness:run_suite", {}).get("total_s", 0.0)
        overhead += run_suite - max(busy.values(), default=0.0)
        workers = [b for pid, b in busy.items() if pid != owner]
        waiting += max(workers, default=0.0)
    longest = max((s["end"] - s["start"] for s in instances), default=0.0)
    return overhead, waiting, longest


def layer_metrics(trace: dict) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s`` for one traced pass."""
    workload = next(s for s in trace["spans"] if s["kind"] == "workload")
    owner = workload["pid"]
    wall = workload["end"] - workload["start"]
    recs = _merged_records(trace, owner)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0, "callers": {}}

    def rec(key: str) -> dict:
        return recs.get(key, empty)

    def calls(*keys: str) -> int:
        return sum(rec(k)["calls"] for k in keys)

    def edge(key: str, caller: str) -> int:
        return rec(key)["callers"].get(caller, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    self_s = dict.fromkeys(SELF_LAYERS, 0.0)
    entries: dict[str, int] = {}
    for key, r in recs.items():
        layer = key.split(":", 1)[0]
        if layer in self_s:
            self_s[layer] += r["self_s"]
        entries[layer] = entries.get(layer, 0) + sum(
            c for caller, c in r["callers"].items() if caller.split(":", 1)[0] != layer
        )
    overhead, waiting, longest = _harness_split(trace, owner)
    self_s["harness"] -= waiting

    closures = ("action:orbit_members", "action:phi_closure")
    new_members = sum(rec(k)["items"] - rec(k)["calls"] for k in closures)
    tried = edge("action:phi_prime_x", closures[0]) + edge("action:phi_x", closures[1])
    return {
        "polynomials.constructs": calls("polynomials:IntPolynomial.from_counts",
                                        "polynomials:GammaExpansion.reconstruct"),
        "polynomials.self_s": self_s["polynomials"],
        "words.enumerated": rec("words:all_permutations")["items"] + rec("words:involutions")["items"],
        "words.stat_calls": calls("words:des", "words:maj", "words:peak", "words:classify"),
        "words.self_s": self_s["words"],
        "action.hops": calls("action:phi_prime_x", "action:phi_x") - edge("action:phi_x", "action:phi_prime_x"),
        "action.orbits": calls(*closures),
        "action.closure_new_ratio": ratio(new_members, tried),
        "action.self_s": self_s["action"],
        "stacksort.sorts_top": calls("stacksort:stack_sort"),
        "stacksort.sorts_per_depth": ratio(edge("stacksort:stack_sort", "stacksort:sort_depth"),
                                           calls("stacksort:sort_depth")),
        "stacksort.self_s": self_s["stacksort"],
        "trees.calls": entries.get("trees", 0),
        "trees.self_s": self_s["trees"],
        "mahonian.calls": entries.get("mahonian", 0),
        "mahonian.self_s": self_s["mahonian"],
        "patterns.counts": calls("patterns:count_2_31", "patterns:count_13_2",
                                 "patterns:count_2_31_via_runs", "patterns:count_13_2_via_runs"),
        "patterns.self_s": self_s["patterns"],
        "posets.extensions": rec("posets:linear_extensions")["items"],
        "posets.hops": calls("posets:psi_x_poset"),
        "posets.self_s": self_s["posets"],
        "harness.instance_max_share": ratio(longest, wall),
        "harness.pool_overhead_s": overhead,
        "harness.emit_s": rec("harness:report_emit")["total_s"],
        "harness.self_s": self_s["harness"],
    }


def suite_split(trace: dict) -> dict[str, dict[str, float]]:
    """Self seconds by layer of each suite's instances, pool workers included."""
    out: dict[str, dict[str, float]] = {}
    for span in trace["spans"]:
        if span["kind"] != "instance":
            continue
        into = out.setdefault(span["name"].split(" n=")[0], {})
        for key, rec in span["records"].items():
            layer = key.split(":", 1)[0]
            into[layer] = into.get(layer, 0.0) + rec["self_s"]
    return out
