"""Outside-in tracing of the `fou` layers, and the per-layer metrics derived from it.

`Tracer.install` replaces every function defined in a layer module by a
timing wrapper, on every `fou` module attribute bound to that function
object (the CLI and the Monte Carlo harness import names with
`from .fgn import ...`, so patching the home module alone would miss those
calls).  LRU-cached functions are wrapped, not replaced, so their caches
keep working.  `Tracer.restore` puts every original back.

Each call becomes one span (id, parent id, name, thread, start ns, end ns),
kept in memory and written once by `Tracer.dump`.  A span's parent is the
innermost open span on its own thread; the first span on a worker thread
takes the innermost open span of the installing thread, which is the call
that submitted the work.  `layer_metrics` turns a dump into the named
per-layer numbers; self time is a span's duration minus the union of its
children's intervals, so overlapping worker spans are not counted twice.

Only the standard library is imported here: the untraced child imports
nothing before `fou`, and the traced child installs after the import.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "fgn", "montecarlo", "process", "constants", "bounds", "hilbert")

# Span tuple fields.
SID, PARENT, NAME, TID, START, END = range(6)


def _count_sampled(counters, args, kwargs, result):
    counters["fgn.sample_fgn_batch.rows"] += result.shape[0]
    counters["fgn.sample_fgn_batch.cells"] += result.size


def _count_degenerate(counters, args, kwargs, result):
    counters["montecarlo.degenerate"] += int(result[1])


def _count_emitted(counters, args, kwargs, result):
    counters["cli.emit_report.rows"] += len(args[0] if args else kwargs["rows"])


# Counts taken at a layer boundary from the call's arguments or result.
HOOKS = {
    "fgn.sample_fgn_batch": _count_sampled,
    "montecarlo._chaos_batch": _count_degenerate,
    "montecarlo._pathwise_batch": _count_degenerate,
    "cli.emit_report": _count_emitted,
}

# Cache counters reported under a name of their own.
CACHE_ALIASES = {"fgn._embedding_sqrt_eigs": "fgn.embedding_cache"}


def _defined_in(obj, module) -> bool:
    """A function (plain or LRU-cached) whose home is `module`; classes excluded."""
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__)


class Tracer:
    def __init__(self, package: str = "fou", layers=LAYERS):
        self.package = package
        self.layers = tuple(layers)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.wrapped: dict[str, object] = {}     # qualified name -> original
        self._patches: list[tuple] = []          # (module, attribute, original)
        self._cache_start: dict[str, tuple] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_tid = None
        self._root_stack: list[int] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root_tid = threading.get_ident()
        self._local.stack = self._root_stack
        wrappers = {}  # id of original -> wrapper; self.wrapped keeps the ids alive
        for layer in self.layers:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(module).items():
                if _defined_in(obj, module) and id(obj) not in wrappers:
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                    self.wrapped[name] = obj
                    if hasattr(obj, "cache_info"):
                        self._cache_start[name] = obj.cache_info()[:2]
        prefix = self.package + "."
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(prefix))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        clock, spans, ids = time.perf_counter_ns, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(), start, end))
            if hook is not None:
                with self._lock:
                    hook(self.counters, args, kwargs, result)
            return result

        return traced

    # -- output -------------------------------------------------------------

    def caches(self) -> dict:
        """Hits and misses of each wrapped LRU cache since install."""
        out = {}
        for name, (hits0, misses0) in self._cache_start.items():
            info = self.wrapped[name].cache_info()
            out[name] = {"hits": info.hits - hits0, "misses": info.misses - misses0}
        return out

    def dump(self, path: str) -> None:
        payload = {"root_tid": self._root_tid, "wrapped": sorted(self.wrapped),
                   "counters": dict(self.counters), "caches": self.caches(),
                   "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# -- analysis ---------------------------------------------------------------

def union_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans) -> dict:
    """Span id -> duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[SID]: (s[END] - s[START]) - union_ns(children.get(s[SID], ()), s[START], s[END])
            for s in spans}


def layer_metrics(dump: dict, wall_s: float, workers: int) -> dict:
    """Named per-layer numbers of one traced command.

    `wall_s` is the command's wall time measured around `cli.main` from
    outside; `workers` is the Monte Carlo pool size.
    """
    spans = [tuple(s) for s in dump["spans"]]
    self_ns = self_times_ns(spans)
    by_id = {s[SID]: s for s in spans}
    calls, fn_self = Counter(), Counter()
    for s in spans:
        calls[s[NAME]] += 1
        fn_self[s[NAME]] += self_ns[s[SID]]

    m = {}
    for name in set(dump["wrapped"]) | set(calls):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = fn_self[name] / 1e9
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = sum(calls[n] for n in names)
        m[f"{layer}.self_s"] = sum(fn_self[n] for n in names) / 1e9

    counters = Counter(dump["counters"])
    for key in ("fgn.sample_fgn_batch.rows", "montecarlo.degenerate", "cli.emit_report.rows"):
        m[key] = counters[key]
    cells = counters["fgn.sample_fgn_batch.cells"]
    m["fgn.sample_fgn_batch.ns_per_cell"] = fn_self["fgn.sample_fgn_batch"] / cells if cells else 0.0
    for name, counts in dump["caches"].items():
        alias = CACHE_ALIASES.get(name, name)
        m[f"{alias}.hits"] = counts["hits"]
        m[f"{alias}.misses"] = counts["misses"]

    # Worker busy share: spans that open a worker thread's own call tree,
    # over the pool's capacity while `montecarlo.run` was open.
    root_tid = dump["root_tid"]
    busy = sum(s[END] - s[START] for s in spans
               if s[TID] != root_tid
               and (s[PARENT] is None or by_id[s[PARENT]][TID] != s[TID]))
    run_ns = sum(s[END] - s[START] for s in spans if s[NAME] == "montecarlo.run")
    m["montecarlo.busy_frac"] = busy / (workers * run_ns) if run_ns else 0.0

    # Share of the outside wall time covered by the spans directly under the command.
    mains = {s[SID]: s for s in spans if s[NAME] == "cli.main"}
    covered = sum(union_ns([(s[START], s[END]) for s in spans if s[PARENT] == sid],
                           main[START], main[END]) for sid, main in mains.items())
    m["cli.main.cover_frac"] = covered / 1e9 / wall_s if wall_s > 0 else 0.0
    m["trace.spans"] = len(spans)
    return m
