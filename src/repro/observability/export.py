"""Exporters for recorded traces.

Three views of one traced run, all deterministic (simulated
timestamps, sorted JSON keys, compact separators -- two runs with the
same seed/config produce byte-identical files):

* :func:`to_jsonl_lines` -- flat JSONL: a ``{"schema": ...}`` header
  line, then one event object per line (the archival format; schema
  ``repro-trace/1``).
* :func:`chrome_trace` -- Chrome trace-event JSON for
  ``chrome://tracing`` / Perfetto: one lane (tid) per simulated thread
  or rank plus a ``runtime`` lane for global events; regions and
  supersteps become matched ``B``/``E`` duration pairs, communication
  and fault events become instants on the issuing rank's lane, frontier
  sizes become a counter track.  1 mtu is rendered as 1 µs.
* :func:`metrics_rollup` -- the ``repro-metrics/3`` document of the
  run's one fold (:meth:`Tracer.fold`,
  :class:`~repro.observability.sinks.RollupSink`): counter time-series
  per region/superstep, per-phase aggregates with Table-1-style cache
  columns, the partition edge-cut next to the communication verb
  totals, the per-rank-pair traffic matrix, the critical-path
  decomposition, the push<->pull switch decisions, and run totals.

All exporters emit valid, schema-complete documents for *empty* traces
(a tracer that recorded nothing) and for zero-duration spans (regions
whose lanes did no costed work): every top-level key is present, idle
zero-span lanes are dropped from the Chrome view instead of emitting
empty boxes, and no derived rate divides by zero.

:func:`write_outputs` writes all three into a directory (plus the
folded-stack flamegraph when asked).
"""

from __future__ import annotations

import json
import os

from repro.observability.events import SCHEMA

#: event kinds rendered as B/E duration pairs on the runtime lane
_GLOBAL_SPANS = ("barrier", "stall")

#: event kinds rendered as instants on their lane
_INSTANTS = ("send", "inbox", "rma", "flush", "fault", "recovery",
             "switch", "schedule")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, default=_jsonable)


def _jsonable(o):
    # numpy scalars leak into event data from kernel code; coerce them
    # so the export never depends on numpy repr
    if hasattr(o, "item"):
        return o.item()
    return str(o)


def to_jsonl_lines(tracer) -> list[str]:
    """Header line + one compact JSON object per event."""
    return [_dumps(tracer.meta())] + [_dumps(ev.to_dict())
                                      for ev in tracer.events]


def chrome_trace(tracer) -> dict:
    """Chrome trace-event JSON (loadable in Perfetto).

    Lanes: tid ``0..P-1`` are the simulated threads/ranks, tid ``P`` is
    the ``runtime`` lane (barriers, stalls, switch/schedule decisions,
    unattributable fault events).  Every duration event is an explicit
    ``B``/``E`` pair with ``E.ts >= B.ts`` on the same lane.
    """
    P = tracer.rt.P
    meta = tracer.meta()
    lane_noun = "rank" if tracer.is_dm else "thread"
    out = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": f"repro {meta['runtime']} ({meta['machine']})"}},
    ]
    for t in range(P):
        out.append({"ph": "M", "pid": 0, "tid": t, "name": "thread_name",
                    "args": {"name": f"{lane_noun} {t}"}})
    out.append({"ph": "M", "pid": 0, "tid": P, "name": "thread_name",
                "args": {"name": "runtime"}})

    def span(name, ts, dur, tid, args=None):
        out.append({"ph": "B", "pid": 0, "tid": tid, "ts": ts,
                    "name": name, "args": args or {}})
        out.append({"ph": "E", "pid": 0, "tid": tid, "ts": ts + dur,
                    "name": name})

    for ev in tracer.events:
        if ev.kind in ("region", "superstep"):
            spans = ev.data["spans"]
            deltas = ev.data["deltas"]
            sizes = ev.data.get("sizes")
            for t, s in enumerate(spans):
                args = {"delta": deltas[t]} if t < len(deltas) else {}
                if sizes is not None and t < len(sizes):
                    args["items"] = sizes[t]
                if s == 0.0 and not args.get("delta") and not args.get("items"):
                    # an idle lane (e.g. in a sequential region): a
                    # zero-duration empty box is degenerate, skip it
                    continue
                span(ev.label, ev.ts, s, t, args)
            span(ev.label, ev.ts, ev.dur, P,
                 {"index": ev.data["index"], "kind": ev.kind})
        elif ev.kind in _GLOBAL_SPANS:
            span(ev.label, ev.ts, ev.dur, P, dict(ev.data))
        elif ev.kind == "frontier":
            out.append({"ph": "C", "pid": 0, "tid": P, "ts": ev.ts,
                        "name": "frontier-size",
                        "args": {"size": ev.data["size"]}})
        elif ev.kind in _INSTANTS:
            tid = ev.lane if ev.lane is not None else P
            name = ev.label if ev.kind in ("switch", "schedule") \
                else f"{ev.kind}:{ev.label}"
            out.append({"ph": "i", "s": "t", "pid": 0, "tid": tid,
                        "ts": ev.ts, "name": name, "args": dict(ev.data)})
    return {"displayTimeUnit": "ms", "traceEvents": out,
            "otherData": meta}


def metrics_rollup(tracer) -> dict:
    """The ``repro-metrics/3`` document of the tracer's fold.

    See :meth:`~repro.observability.sinks.RollupSink.rollup` for the
    keys; raises ``AttributeError`` when no attached sink retains or
    folds the run.
    """
    return tracer.fold().rollup()


def write_outputs(tracer, outdir: str, flame: bool = False) -> dict:
    """Write whatever views the tracer's sinks can back.

    A buffered tracer (the default) writes ``events.jsonl``,
    ``trace.json`` and ``metrics.json``.  With bounded-memory sinks
    instead, each export comes from the sink that can answer it: a
    :class:`~repro.observability.sinks.JsonlStreamSink` already
    streamed ``events.jsonl`` (it is closed here and its path
    returned), and a :class:`~repro.observability.sinks.SamplingSink`
    renders the Chrome/flame span views from its retained sample.
    ``metrics.json`` always comes from the tracer's one fold
    (:meth:`Tracer.fold`).  Views no attached sink can back are skipped
    rather than failed.  With ``flame=True`` also writes the
    folded-stack flamegraph ``flame.folded``.  Returns the
    ``{view: path}`` map of what was written.
    """
    from repro.observability.sinks import (
        BufferSink, JsonlStreamSink, SamplingSink,
    )
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    stream = tracer.find_sink(JsonlStreamSink)
    if stream is not None:
        stream.close()
        paths["jsonl"] = stream.path
    spans = None  # what the span views render: the buffer or a sample
    sampler = tracer.find_sink(SamplingSink)
    if tracer.find_sink(BufferSink) is not None:
        spans = tracer
        if "jsonl" not in paths:
            paths["jsonl"] = os.path.join(outdir, "events.jsonl")
            with open(paths["jsonl"], "w") as fh:
                fh.write("\n".join(to_jsonl_lines(tracer)) + "\n")
    elif sampler is not None:
        spans = sampler.view()
    if spans is not None:
        paths["chrome"] = os.path.join(outdir, "trace.json")
        with open(paths["chrome"], "w") as fh:
            fh.write(_dumps(chrome_trace(spans)) + "\n")
    try:
        fold = tracer.fold()
    except AttributeError:  # stream-only: nothing retains or folds the run
        fold = None
    if fold is not None:
        paths["metrics"] = os.path.join(outdir, "metrics.json")
        with open(paths["metrics"], "w") as fh:
            fh.write(_dumps(fold.rollup()) + "\n")
    if flame and spans is not None:
        from repro.observability.flame import write_flame
        paths["flame"] = write_flame(
            spans, os.path.join(outdir, "flame.folded"))
    return paths


__all__ = ["SCHEMA", "chrome_trace", "metrics_rollup", "to_jsonl_lines",
           "write_outputs"]
