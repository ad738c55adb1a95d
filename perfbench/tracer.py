"""Function-level tracer for the permact layers, installed from outside.

Every function and method defined in a layer module is replaced by a wrapper
at every name it is bound to: module globals (so ``from .words import des``
in ``action``, ``harness`` and ``patterns`` is traced too), class attributes
(methods are patched on the class) and the attribute dicts of plain objects
such as the ``Suite`` records that hold the runners.  Names starting with an
underscore are skipped, except the harness suite runners and a few operator
dunders, because private helpers are called per letter and would only add
overhead; their time lands in the public caller of the same module.

Per-word kernels are called millions of times, so calls are not kept one by
one: each function keeps a record of calls, total seconds, self seconds
(total minus traced callees), items produced (length of a returned list, set
or dict, or items yielded by a returned iterator) and call counts by caller.
Direct recursion (``stack_sort`` calling itself) is folded into the outer
call.  Only three levels are kept as spans: workload pass, suite (one
``cli.main`` call) and instance (one ``harness._run_instance`` call); each
suite and instance span carries the difference of the records across it.

Pool workers forked by ``harness.run_suite`` inherit the patched modules.
Each worker writes its instance spans to ``worker_dir`` and the owning
process merges them after every suite, so a ``--jobs 2`` run is traced as it
runs rather than at ``--jobs 1``.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import os
import time
from pathlib import Path

LAYERS = (
    "words", "action", "polynomials", "stacksort", "trees",
    "mahonian", "patterns", "posets", "harness", "cli",
)
_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__pow__", "__neg__", "__eq__",
})
_PRIVATE_TRACED = "_run_"  # the harness suite runners and _run_instance
_SIZED = frozenset({list, set, frozenset, dict})
_CALLS, _TOTAL, _SELF, _ITEMS, _CALLERS, _KEY = range(6)


def _new_record(key: str) -> list:
    return [0, 0.0, 0.0, 0, {}, key]


class Tracer:
    """Wraps the permact layer functions of one process and aggregates them."""

    def __init__(self, worker_dir: Path):
        self.records: dict[str, list] = {}
        self.stack: list[list] = [[_new_record("bench:root"), 0.0]]
        self.owner_pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: list[dict] = []
        self._patches: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def _record(self, key: str) -> list:
        return self.records.setdefault(key, _new_record(key))

    def _iterate(self, it, rec):
        stack = self.stack
        clock = time.perf_counter
        while True:
            parent = stack[-1]
            frame = [rec, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec[_TOTAL] += dt
                rec[_SELF] += dt - frame[1]
            rec[_ITEMS] += 1
            yield item

    def _wrap(self, fn, key: str):
        rec = self._record(key)
        stack = self.stack
        clock = time.perf_counter
        iterate = self._iterate

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is rec:
                return fn(*args, **kwargs)
            frame = [rec, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec[_CALLS] += 1
                rec[_TOTAL] += dt
                rec[_SELF] += dt - frame[1]
                callers = rec[_CALLERS]
                pk = parent[0][_KEY]
                callers[pk] = callers.get(pk, 0) + 1
            kind = type(result)
            if kind in _SIZED:
                rec[_ITEMS] += len(result)
            elif kind is not tuple and hasattr(kind, "__next__"):
                return iterate(result, rec)
            return result

        return _named_like(traced, fn)

    def _wrap_span(self, fn, key: str, kind: str, label):
        """A traced function that also records a span with its own records."""
        inner = self._wrap(fn, key)
        spans = self.spans

        def span(*args, **kwargs):
            before = self.snapshot()
            entry = {"kind": kind, "name": label(*args), "pid": os.getpid(),
                     "start": time.perf_counter()}
            try:
                return inner(*args, **kwargs)
            finally:
                entry["end"] = time.perf_counter()
                entry["records"] = diff(self.snapshot(), before)
                if os.getpid() == self.owner_pid:
                    spans.append(entry)
                else:
                    self._dump_worker_span(entry)

        return _named_like(span, fn)

    def _dump_worker_span(self, entry: dict) -> None:
        name = f"worker-{entry['pid']}-{entry['start']:.9f}.json"
        tmp = self.worker_dir / (name + ".tmp")
        tmp.write_text(json.dumps(entry))
        tmp.replace(self.worker_dir / name)

    def collect_workers(self) -> None:
        """Move the spans written by pool workers into this process's list."""
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            self.spans.append(json.loads(path.read_text()))
            path.unlink()

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every traced function of the permact layers."""
        wrappers: dict[int, tuple[object, object]] = {}
        classes = []
        for layer in LAYERS:
            mod = importlib.import_module(f"permact.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    classes.append((layer, obj))
                elif _traced_name(name) and callable(obj) and _defined_in(obj, mod):
                    wrappers.setdefault(id(obj), (obj, self._wrapper_for(layer, name, obj)))
        for layer, cls in classes:
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if not inspect.isfunction(fn):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}:{fn.__qualname__}"))
                wrapped = wrappers[id(fn)][1]
                new = type(raw)(wrapped) if fn is not raw else wrapped
                setattr(cls, attr, new)
                self._patches.append((cls, attr, raw))
        # Module globals are dicts; instances of permact's classes keep
        # their attributes inline until vars() materializes the dict.  Class
        # dicts were patched through setattr above and are left alone here.
        class_dicts = {id(d) for _, cls in classes for d in gc.get_referents(cls) if type(d) is dict}
        for obj in gc.get_objects():
            if type(obj) is dict:
                if id(obj) in class_dicts:
                    continue
                namespace = obj
            elif type(obj).__module__.startswith("permact") and hasattr(obj, "__dict__"):
                namespace = vars(obj)
            else:
                continue
            for k, v in list(namespace.items()):
                hit = wrappers.get(id(v))
                if hit is not None and hit[0] is v:
                    namespace[k] = hit[1]
                    self._patches.append((namespace, k, v))

    def _wrapper_for(self, layer: str, name: str, obj):
        key = f"{layer}:{name}"
        if key == "cli:main":
            return self._wrap_span(obj, key, "suite", lambda argv: f"{argv[1]} n<={argv[3]}")
        if key == "harness:_run_instance":
            return self._wrap_span(obj, key, "instance", lambda suite, n: f"{suite} n={n}")
        return self._wrap(obj, key)

    def uninstall(self) -> None:
        """Put every original back where install found it."""
        for target, name, original in reversed(self._patches):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {k: (r[_CALLS], r[_TOTAL], r[_SELF], r[_ITEMS], dict(r[_CALLERS]))
                for k, r in self.records.items()}


def diff(after: dict, before: dict) -> dict:
    """Records added between two snapshots, as JSON-ready dicts."""
    out = {}
    for key, (calls, total, self_s, items, callers) in after.items():
        b = before.get(key, (0, 0.0, 0.0, 0, {}))
        if calls == b[0] and items == b[3] and total == b[1]:
            continue
        out[key] = {
            "calls": calls - b[0], "total_s": total - b[1], "self_s": self_s - b[2],
            "items": items - b[3],
            "callers": {k: c - b[4].get(k, 0) for k, c in callers.items() if c != b[4].get(k, 0)},
        }
    return out


def _named_like(wrapper, fn):
    """Give the wrapper the original's names, so that pickle (which sends
    ``_run_instance_job`` to pool workers by qualified name) finds it.  No
    ``__wrapped__``: the binding scan in ``install`` would patch that too."""
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _traced_name(name: str) -> bool:
    return not name.startswith("_") or name.startswith(_PRIVATE_TRACED)


def _defined_in(obj, mod) -> bool:
    return getattr(obj, "__module__", None) == mod.__name__ and (
        inspect.isfunction(obj) or hasattr(obj, "__wrapped__")
    )
