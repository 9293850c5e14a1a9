"""Wall-clock spans around the simulator's layers, installed from outside.

The traced pass wraps each layer's public entry points where their
callers look them up (module attributes bound by ``from ... import``,
class attributes for methods), records one span per call -- name,
start, end, parent span -- in flat in-memory arrays, and restores every
original object afterwards.  Nothing under ``src/`` changes.

A layer's self time is the summed duration of its spans minus the part
their child spans cover.  Calls nest strictly (one thread, synchronous
calls), so the covered part of a span is the sum of its children's
durations, and the self times of all spans under a root add up to the
root's duration.  Each benchmark cell is one root span (``cell``); its
own self time -- driver glue between wrapped calls -- is ``other.s``.

Runtime entry points that take a body callback (``parallel_for``,
``for_each_thread``, ``sequential``, ``superstep``) wrap the callback
too.  The body span is charged to the kernel that issued the region:
``algorithms.body_s`` under an interpreted kernel, ``streams.kernel_s``
under a ``*_batched`` stream kernel.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

#: per-layer metrics, in report order, with their units
LAYER_METRICS = (
    ("generators.s", "s"),
    ("graph.build_s", "s"),
    ("graph.edges", "count"),
    ("algorithms.body_s", "s"),
    ("streams.kernel_s", "s"),
    ("streams.replay_s", "s"),
    ("streams.ops", "count"),
    ("la.s", "s"),
    ("la.calls", "count"),
    ("memory.verb_s", "s"),
    ("memory.verb_calls", "count"),
    ("memory.elements", "count"),
    ("memory.elements_per_call", "elem/call"),
    ("memory.batch_s", "s"),
    ("memory.batch_calls", "count"),
    ("cache.s", "s"),
    ("cache.calls", "count"),
    ("cache.lines", "count"),
    ("cache.lines_per_s", "lines/s"),
    ("runtime.s", "s"),
    ("runtime.regions", "count"),
    ("runtime.barriers", "count"),
    ("tracer.s", "s"),
    ("tracer.events", "count"),
    ("tracer.peak_sink_bytes", "B"),
    ("export.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_x", "x"),
    ("other.s", "s"),
)

#: root span of one benchmark cell; its self time is ``other.s``
ROOT = "cell"

_SM_REGIONS = ("parallel_for", "for_each_thread", "sequential")

#: every patch point: (module, class or None for a module attribute,
#: attribute, time metric the span's self time is charged to)
PATCHES = tuple(
    [("repro.analysis.runner", None, fn, "generators.s")
     for fn in ("instance_graph", "erdos_renyi", "road_network")]
    + [(mod, None, "from_edges", "graph.build_s")
       for mod in ("repro.generators.erdos_renyi", "repro.generators.road")]
    + [(f"repro.algorithms.{mod}", None, fn, "algorithms.body_s")
       for mod, fn in (("pagerank", "pagerank"), ("bfs", "bfs"),
                       ("sssp_delta", "sssp_delta"),
                       ("connected_components", "connected_components"),
                       ("dm_bfs", "dm_bfs"), ("dm_sssp", "dm_sssp_delta"),
                       ("dm_pagerank", "dm_pagerank"))]
    + [("repro.streams.kernels", None, fn, "streams.kernel_s")
       for fn in ("pagerank_batched", "bfs_batched", "sssp_delta_batched",
                  "cc_batched")]
    + [("repro.streams.memory", "StreamMemory", "replay", "streams.replay_s")]
    + [("repro.streams.kernels", None, fn, "la.s")
       for fn in ("pull_matrix", "push_matrix", "segment_reduce",
                  "first_claim", "masked_first_hit")]
    + [("repro.machine.memory", "MemoryModel", verb, "memory.verb_s")
       for verb in ("read", "write", "faa", "cas", "lock")]
    + [("repro.machine.memory", "CountingMemory", "touch_batch",
        "memory.batch_s"),
       ("repro.machine.memory", "CacheSimMemory", "access_batch",
        "memory.batch_s"),
       ("repro.machine.cache", "CacheSim", "access", "cache.s"),
       ("repro.observability.driver", None, "equip_cache_sim", "cache.s")]
    + [("repro.runtime.sm", "SMRuntime", fn, "runtime.s")
       for fn in ("__init__",) + _SM_REGIONS + ("barrier",)]
    + [("repro.runtime.dm", "DMRuntime", fn, "runtime.s")
       for fn in ("__init__", "superstep", "send", "inbox", "alltoallv",
                  "rma_get", "rma_put", "rma_accumulate", "rma_flush",
                  "put", "accumulate", "register_window")]
    + [("repro.observability.tracer", "Tracer", hook, "tracer.s")
       for hook in ("on_reset", "on_region", "on_stall", "on_barrier",
                    "on_schedule", "on_frontier", "on_switch",
                    "on_superstep_begin", "on_superstep_end", "on_send",
                    "on_inbox", "on_rma", "on_flush", "on_fault")]
    + [("repro.observability.driver", None, "attach_tracer", "tracer.s"),
       ("repro.observability.export", None, "write_outputs", "export.s")]
)

#: one scalar memory-verb call in this many is timed (a prime, so the
#: sample cannot lock onto a kernel's periodic call pattern)
VERB_SAMPLE = 17

#: body-callback span names and the metric each is charged to, keyed
#: by the time metric of the kernel that issued the region
BODY = {"algorithms.body_s": "body[algorithms]",
        "streams.kernel_s": "body[streams]"}


class SpanRecorder:
    """Flat span storage: parallel arrays indexed by span id.

    ``parent[i]`` is the id of the span open when span ``i`` started
    (``-1`` at top level).  ``metric_of`` maps each span name to the
    time metric its self time is charged to; ``counts`` holds work
    tallies keyed by metric name (elements per verb call, cache lines,
    stream ops, edges built).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.metric_of: dict[str, str] = {}
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        #: sampled span name -> [calls, elements] over every call
        self.sampled: dict[str, list[int]] = {}
        for metric, name in BODY.items():
            self.intern(name, metric)

    def intern(self, name: str, metric: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.metric_of[name] = metric
        elif self.metric_of[name] != metric:
            raise ValueError(f"span {name!r} is charged to "
                             f"{self.metric_of[name]}, not {metric}")
        return nid

    def clear(self) -> None:
        """Drop recorded spans in place (wrappers keep their references)."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.stack[:] = [-1]
        self.counts.clear()
        for tally in self.sampled.values():
            tally[:] = [0, 0]

    def tally(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name: str, metric: str, pre=None, post=None):
        """A timed wrapper of ``fn`` recording one ``name`` span per call.

        ``pre(args, kwargs)`` / ``post(args, result)`` return
        ``(counter, amount)`` tallies taken before / after the call,
        outside the span.
        """
        nid = self.intern(name, metric)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self.stack
        clock = time.perf_counter
        tally = self.tally

        if pre is None and post is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
            wrapper.perfbench_span = name
            return wrapper

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            if pre is not None:
                tally(*pre(args, kwargs))
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                tally(*post(args, result))
            return result
        tallied.perfbench_span = name
        return tallied

    def wrap_verb(self, fn, name: str, metric: str):
        """Wrap a scalar ``MemoryModel`` verb: every call is counted
        (calls, referenced elements), one call in :data:`VERB_SAMPLE` is
        timed as a span.  :func:`aggregate` scales the sampled self time
        up to all calls and takes the scaled-up part out of the
        enclosing spans' self time, so the closure still holds."""
        timed = self.wrap(fn, name, metric)
        tally = self.sampled[name] = [0, 0]     # calls, elements
        ndarray = np.ndarray

        @functools.wraps(fn)
        def verb(mem, handle, idx=None, count=None, *args, **kwargs):
            if count is not None:
                n = int(count)
            elif idx is None:
                n = 1
            elif type(idx) is ndarray:
                n = idx.size
            elif isinstance(idx, (list, tuple)):
                n = len(idx)
            else:
                n = 1
            tally[1] += n
            tally[0] += 1
            if tally[0] % VERB_SAMPLE:
                return fn(mem, handle, idx, count, *args, **kwargs)
            return timed(mem, handle, idx, count, *args, **kwargs)
        verb.perfbench_span = name
        return verb

    def open_kernel_metric(self) -> str:
        """Time metric of the innermost open kernel span (interpreted
        kernel by default)."""
        for i in reversed(self.stack[1:]):
            metric = self.metric_of[self.names[self.name_id[i]]]
            if metric in BODY:
                return metric
        return "algorithms.body_s"

    def wrap_region(self, fn, name: str, metric: str, body_index: int):
        """Wrap a runtime entry point whose ``body_index``-th positional
        argument (or ``body=`` keyword) is a callback; the callback gets
        its own span, charged to the issuing kernel's layer."""
        timed = self.wrap(fn, name, metric)

        @functools.wraps(fn)
        def region(*args, **kwargs):
            kernel = self.open_kernel_metric()
            if "body" in kwargs:
                kwargs["body"] = self.wrap(kwargs["body"], BODY[kernel],
                                           kernel)
            else:
                args = list(args)
                args[body_index] = self.wrap(args[body_index], BODY[kernel],
                                             kernel)
            return timed(*args, **kwargs)
        region.perfbench_span = name
        return region


# -- work tallies ------------------------------------------------------------
def _lines_before(args, kwargs):
    return "cache.lines", -args[0].accesses


def _lines_after(args, result):
    return "cache.lines", args[0].accesses


def _stream_ops(args, kwargs):
    ops = kwargs.get("ops", args[1] if len(args) > 1 else ())
    return "streams.ops", sum(op is not None for op in ops)


def _edges_built(args, result):
    return "graph.edges", int(result.m)


#: (class or None, attribute) -> (pre, post) work tallies
TALLIES = {
    ("CacheSim", "access"): (_lines_before, _lines_after),
    ("StreamMemory", "replay"): (_stream_ops, None),
    (None, "from_edges"): (None, _edges_built),
}


def span_name(fn) -> str:
    """``<module without the package prefix>.<qualname>`` of ``fn``."""
    return f"{fn.__module__.removeprefix('repro.')}.{fn.__qualname__}"


class SpanInstaller:
    """Installs the :data:`PATCHES` wrappers and restores the originals.

    Use as a context manager; ``installed`` lists ``(owner, attribute,
    original)`` for every live patch.
    """

    def __init__(self, recorder: SpanRecorder, patches=PATCHES) -> None:
        self.recorder = recorder
        self.patches = patches
        self.installed: list[tuple[object, str, object]] = []

    def install(self) -> "SpanInstaller":
        if self.installed:
            raise RuntimeError("spans are already installed")
        rec = self.recorder
        try:
            for module, cls, attr, metric in self.patches:
                mod = importlib.import_module(module)
                owner = getattr(mod, cls) if cls else mod
                if attr not in vars(owner):
                    raise AttributeError(
                        f"{module}.{cls or ''}: no own attribute "
                        f"{attr!r} to patch")
                original = vars(owner)[attr]
                name = span_name(original)
                if attr in _SM_REGIONS or attr == "superstep":
                    wrapper = rec.wrap_region(
                        original, name, metric,
                        body_index=2 if attr == "parallel_for" else 1)
                elif cls == "MemoryModel":
                    wrapper = rec.wrap_verb(original, name, metric)
                else:
                    pre, post = TALLIES.get((cls, attr), (None, None))
                    wrapper = rec.wrap(original, name, metric, pre, post)
                setattr(owner, attr, wrapper)
                self.installed.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanInstaller":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def installed_wrappers(patches=PATCHES) -> list[str]:
    """Patch points that currently hold a span wrapper."""
    live = []
    for module, cls, attr, _ in patches:
        mod = importlib.import_module(module)
        owner = getattr(mod, cls) if cls else mod
        if hasattr(vars(owner).get(attr), "perfbench_span"):
            live.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    return live


def self_times(parent, start, end) -> np.ndarray:
    """Per-span self time: duration minus the children's durations."""
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start,
                                                         dtype=np.float64)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    return dur - covered


def aggregate(rec: SpanRecorder) -> tuple[dict[str, float], dict[str, int]]:
    """Self time summed per time metric, and call count per span name.

    A sampled name's spans are scaled up to all its calls: each sampled
    span's self time times ``(calls / sampled - 1)`` moves from its
    parent's metric to the sampled name's metric.
    """
    if rec.stack != [-1]:
        raise RuntimeError(f"{len(rec.stack) - 1} span(s) still open")
    names = np.asarray(rec.name_id, dtype=np.int64)
    parent = np.asarray(rec.parent, dtype=np.int64)
    selfs = self_times(parent, rec.start, rec.end)
    metrics = sorted(set(rec.metric_of.values()))
    metric_idx = np.array([metrics.index(rec.metric_of[n])
                           for n in rec.names], dtype=np.int64)
    span_metric = metric_idx[names]
    per_metric = np.bincount(span_metric, weights=selfs,
                             minlength=len(metrics))
    calls = np.bincount(names, minlength=len(rec.names))
    for name, (total, _) in rec.sampled.items():
        nid = rec.names.index(name)
        if not calls[nid] or total == calls[nid]:
            continue
        mine = (names == nid) & (parent >= 0)
        moved = selfs[mine] * (total / calls[nid] - 1.0)
        per_metric -= np.bincount(span_metric[parent[mine]], weights=moved,
                                  minlength=len(metrics))
        per_metric[metric_idx[nid]] += moved.sum()
        calls[nid] = total
    return ({m: float(per_metric[k]) for k, m in enumerate(metrics)},
            {name: int(calls[nid]) for nid, name in enumerate(rec.names)})


def folded_stacks(rec: SpanRecorder) -> dict[str, float]:
    """Self time per root-to-span name path (flame-graph folded form)."""
    selfs = self_times(rec.parent, rec.start, rec.end)
    names = rec.names
    path_of: list[str] = []
    out: dict[str, float] = {}
    for i, (nid, par) in enumerate(zip(rec.name_id, rec.parent)):
        path = names[nid] if par < 0 else f"{path_of[par]};{names[nid]}"
        path_of.append(path)
        out[path] = out.get(path, 0.0) + float(selfs[i])
    return out


#: metrics that hold a layer's self time; with other.s they sum to
#: trace.wall_s
TIME_METRICS = tuple(name for name, unit in LAYER_METRICS
                     if unit == "s" and name != "trace.wall_s")


def _calls(calls: dict[str, int], *suffixes: str) -> int:
    return sum(n for name, n in calls.items() if name.endswith(suffixes))


def layer_metrics(rec: SpanRecorder, tracer_events: int,
                  peak_sink_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, except the two
    ``trace.*`` ones, which compare passes."""
    times, calls = aggregate(rec)

    def metric_calls(metric: str) -> int:
        return sum(n for name, n in calls.items()
                   if rec.metric_of[name] == metric)

    m = {name: float(times.get(name, 0.0)) for name in TIME_METRICS}
    verb_calls = metric_calls("memory.verb_s")
    elements = sum(e for _, e in rec.sampled.values())
    m.update({
        "graph.edges": rec.counts.get("graph.edges", 0),
        "streams.ops": rec.counts.get("streams.ops", 0),
        "la.calls": metric_calls("la.s"),
        "memory.verb_calls": verb_calls,
        "memory.elements": elements,
        "memory.elements_per_call": (elements / verb_calls if verb_calls
                                     else 0.0),
        "memory.batch_calls": metric_calls("memory.batch_s"),
        "cache.calls": _calls(calls, ".CacheSim.access"),
        "cache.lines": rec.counts.get("cache.lines", 0),
        "runtime.regions": _calls(calls, *(f".{r}" for r in _SM_REGIONS),
                                  ".superstep"),
        "runtime.barriers": _calls(calls, ".barrier", ".superstep"),
        "tracer.events": tracer_events,
        "tracer.peak_sink_bytes": peak_sink_bytes,
    })
    m["cache.lines_per_s"] = (m["cache.lines"] / m["cache.s"]
                              if m["cache.s"] else 0.0)
    return m


def dominant_layers(metrics: dict) -> list[tuple[str, float]]:
    """Time metrics of a traced result, largest first, as shares of
    ``trace.wall_s``."""
    wall = metrics["trace.wall_s"]["value"]
    return sorted(((name, metrics[name]["value"] / wall)
                   for name in TIME_METRICS), key=lambda kv: -kv[1])
