"""Pluggable trace sinks: where the :class:`Tracer` puts its events.

Before this module, the tracer buffered every :class:`TraceEvent` in an
unbounded Python list and every exporter walked that list post-hoc --
fine for the n=96 baseline cells, a hard memory wall for the batched
engine's large-family runs.  A *sink* receives events **incrementally**
as the runtimes emit them; the tracer dispatches each event to every
attached sink, and each sink decides what to retain:

* :class:`BufferSink` -- today's behavior, the default: retain every
  event in order.  All post-hoc exporters keep working byte-identically
  (``tracer.events`` is this sink's list).
* :class:`JsonlStreamSink` -- constant-memory archival export: the
  ``repro-trace/1`` header line at attach, one compact JSON line per
  event as it happens.  The finished file is byte-identical to the
  post-hoc :func:`repro.observability.export.to_jsonl_lines` output.
* :class:`RollupSink` -- the one fold of a run into the **full**
  ``repro-metrics/3`` rollup: per-step/per-phase aggregates, the
  per-rank-pair traffic matrix, the critical-path decomposition,
  reconciled run totals.  Attached, it folds online in bounded memory:
  state is O(steps + phases + rank pairs), not O(events) -- DM
  communication verbs fold into the matrix and are dropped.  A
  buffered tracer's post-hoc rollup is the same fold replayed over the
  buffer (:meth:`Tracer.fold`), so the two agree by construction.
* :class:`SamplingSink` -- deterministic seeded head + reservoir
  retention of *span* events (regions, supersteps, barriers, stalls)
  for Chrome/flame export at scales where retaining everything is
  impossible; exact counters are preserved through an embedded
  :class:`RollupSink` even when spans are dropped.

Every sink tracks an approximate retained-state size
(:attr:`TraceSink.nbytes`, peak in :attr:`TraceSink.peak_nbytes`) via
the :meth:`TraceEvent.approx_nbytes` estimator, and the tracer
aggregates the per-sink peaks into ``tracer.peak_sink_bytes`` -- the
number ``repro trace`` prints in its summary line so silent buffer
growth is visible.

``Tracer.on_reset()`` (called by ``rt.reset()``) resets every sink:
the buffer clears, the stream sink truncates and rewrites its header,
rollup accumulators zero, and the sampler reseeds -- a reused runtime
produces a fresh, reconcilable trace per run through any sink.
"""

from __future__ import annotations

import math
import random

from repro.machine.counters import PerfCounters
from repro.observability.events import TraceEvent, approx_value_nbytes
from repro.observability.hwcounters import TABLE1_COLUMNS

#: versioned schema tag for the metrics rollup
METRICS_SCHEMA = "repro-metrics/3"

#: the communication verb totals reported next to the edge cut
COMM_COUNTERS = ("messages", "msg_bytes", "collectives", "collective_bytes",
                 "remote_gets", "remote_puts", "remote_acc_int",
                 "remote_acc_float", "remote_bytes", "flushes")

#: per-pair fields of the traffic matrix, in row order
TRAFFIC_FIELDS = ("messages", "msg_bytes", "gets", "puts", "acc_int",
                  "acc_float", "rma_bytes")

#: traffic-matrix field -> the PerfCounters total it must reconcile with
_TRAFFIC_TOTALS = {"messages": "messages", "msg_bytes": "msg_bytes",
                   "gets": "remote_gets", "puts": "remote_puts",
                   "acc_int": "remote_acc_int",
                   "acc_float": "remote_acc_float",
                   "rma_bytes": "remote_bytes"}

#: event kinds the sampling sink retains (the span timeline the
#: Chrome/flame exporters render; instants fold into the rollup)
SPAN_KINDS = frozenset({"region", "superstep", "barrier", "stall"})


def format_bytes(n: int | float) -> str:
    """Human-readable byte count for the CLI summary line."""
    n = float(n)
    for unit in ("B", "KiB", "MiB"):
        if n < 1024.0:
            return f"{n:,.0f} {unit}" if unit == "B" else f"{n:,.1f} {unit}"
        n /= 1024.0
    return f"{n:,.1f} GiB"


class TraceSink:
    """Base class for all sinks (the ``TraceSink`` protocol).

    Subclasses implement :meth:`on_event`; the tracer calls
    :meth:`bind` at attach, :meth:`on_reset` from ``rt.reset()``, and
    :meth:`close` when exports are finalized.  ``nbytes`` is the
    current approximate retained-state size; ``peak_nbytes`` its
    high-water mark (sinks call :meth:`_mark` after growing).
    """

    #: short name shown in the ``repro trace`` summary line
    name = "sink"

    def __init__(self) -> None:
        self.tracer = None
        self._nbytes = 0
        self.peak_nbytes = 0

    def bind(self, tracer) -> None:
        """Called once when a tracer attaches this sink (or, for a
        :class:`RollupSink`, replays its buffer into it)."""
        self.tracer = tracer

    def on_event(self, ev: TraceEvent) -> None:
        raise NotImplementedError

    def on_reset(self) -> None:
        """Re-arm for a fresh run (``rt.reset()``); keep ``peak_nbytes``."""

    def close(self) -> None:
        """Flush/close any external resources (idempotent)."""

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def _mark(self) -> None:
        if self.nbytes > self.peak_nbytes:
            self.peak_nbytes = self.nbytes


class BufferSink(TraceSink):
    """Retain every event in emission order (the pre-sink behavior).

    The default sink: ``tracer.events`` resolves to :attr:`events`, so
    the post-hoc exporters -- Chrome, JSONL, flame -- render from it,
    and :meth:`Tracer.fold` replays it for the metrics.
    """

    name = "buffer"

    def __init__(self) -> None:
        super().__init__()
        self.events: list[TraceEvent] = []

    def on_event(self, ev: TraceEvent) -> None:
        self.events.append(ev)
        self._nbytes += ev.approx_nbytes()
        self._mark()

    def on_reset(self) -> None:
        self.events = []
        self._nbytes = 0


class JsonlStreamSink(TraceSink):
    """Stream the ``repro-trace/1`` JSONL export as events happen.

    Writes the header line at bind and one compact JSON line per event;
    retained state is O(1) (a file handle).  After :meth:`close`, the
    file at :attr:`path` is byte-identical to what
    :func:`~repro.observability.export.to_jsonl_lines` would have
    produced from a full buffer.  ``on_reset`` truncates and rewrites
    the header, mirroring the buffer's clear.
    """

    name = "jsonl-stream"

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self._fh = None
        self.lines = 0

    def bind(self, tracer) -> None:
        super().bind(tracer)
        self._open()

    def _open(self) -> None:
        from repro.observability.export import _dumps
        self._fh = open(self.path, "w")
        self._fh.write(_dumps(self.tracer.meta()) + "\n")
        self.lines = 1

    def on_event(self, ev: TraceEvent) -> None:
        from repro.observability.export import _dumps
        if self._fh is None:  # closed early (exported); drop silently is
            # wrong -- reopen in append would desync; fail loudly instead
            raise RuntimeError(
                f"JsonlStreamSink({self.path!r}) received an event after "
                f"close(); call tracer.on_reset() to re-arm it")
        self._fh.write(_dumps(ev.to_dict()) + "\n")
        self.lines += 1

    def on_reset(self) -> None:
        self.close()
        self._open()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _cache_view(phase_rows: list[dict]) -> dict:
    """Table-1-style cache columns per phase (always schema-complete)."""
    rows = []
    for phase in phase_rows:
        c = phase["counters"]
        row = {"label": phase["label"]}
        for k in TABLE1_COLUMNS:
            row[k] = int(c.get(k, 0))
        reads = row["reads"]
        row["l1_per_read"] = (row["l1_misses"] / reads) if reads else 0.0
        rows.append(row)
    return {"columns": list(TABLE1_COLUMNS) + ["l1_per_read"], "rows": rows}


class RollupSink(TraceSink):
    """The ``repro-metrics/3`` fold: every metric of a run, event by event.

    Attached to a tracer it folds online in bounded memory; for a
    buffered tracer :meth:`Tracer.fold` replays the buffer through a
    fresh instance, so the exports, the reconciliation surface
    (:meth:`traced_totals`, :attr:`decomposed_mtu`, :meth:`critical`)
    and the bench cells all read this one fold.  Communication verbs
    (``send``/``rma``) fold straight into the per-rank-pair matrix and
    are not retained; the dominant cost of a large DM trace therefore
    never materializes.

    What the folded numbers mean:

    * :meth:`traffic` -- per ``(src, dst)`` rank pair: messages and
      message bytes from traced sends, and the get / put /
      int-accumulate / float-accumulate op counts plus RMA bytes from
      traced verbs.  Local verbs (``owner == rank``) charge plain
      memory traffic, not network counters, and are excluded; on
      fault-free runs the totals (and the per-source row sums against
      each rank's own counters) reconcile *exactly* with the run's
      ``messages``/``msg_bytes``/``remote_*`` counters.  The fault
      layer recharges counters on retries without re-emitting trace
      events, so under a fault plan the matrix counts first-attempt
      traffic only.
    * :meth:`critical` -- per region/superstep the *bounding lane* is
      the lane with the largest span (first on ties); its interval time
      splits into ``comm`` (the machine's comm-counter weights applied
      to that lane's counter delta, clamped to the interval),
      ``injected`` (the fault layer's span stretch on that lane), and
      ``compute`` (the rest, so the three sum to the interval exactly);
      barrier episodes are ``sync`` and recovery waits
      ``recovery_stall``.  Two identities hold, both to float
      associativity:

      - run:  compute + comm + injected_stall + sync + recovery_stall
        == ``time_mtu`` (``totals["reconciled"]``, under a tight
        relative tolerance);
      - lane: busy + idle + sync + recovery_stall == ``time_mtu`` for
        *every* lane -- ``off_path_idle`` is Σ lane idle, the flame
        exporter's ``[off-path]`` frames.
    """

    name = "rollup"

    def __init__(self) -> None:
        super().__init__()
        self._steps: list[dict] = []
        self._phase_order: list[str] = []
        self._phases: dict[str, dict] = {}
        self._frontier: list[dict] = []
        self._switches: list[dict] = []
        self._pairs: dict[tuple[int, int], dict] = {}
        self._totals = PerfCounters()
        self._decomposed = 0.0
        self._compute = self._comm = self._injected = 0.0
        self._sync = self._recovery = 0.0
        self._lane_busy: list[float] = []
        self._lane_idle: list[float] = []
        self._lane_critical: list[float] = []
        self._intervals: list[dict] = []

    def bind(self, tracer) -> None:
        super().bind(tracer)
        P = tracer.rt.P
        self._lane_busy = [0.0] * P
        self._lane_idle = [0.0] * P
        self._lane_critical = [0.0] * P
        self._nbytes = 24 * P

    def on_reset(self) -> None:
        tracer, peak = self.tracer, self.peak_nbytes
        self.__init__()
        self.bind(tracer)
        self.peak_nbytes = peak

    # -- incremental accumulation ------------------------------------------------
    def on_event(self, ev: TraceEvent) -> None:
        kind = ev.kind
        if kind in ("region", "superstep"):
            self._decomposed += ev.dur
            self._on_step(ev)
        elif kind == "barrier":
            self._decomposed += ev.dur
            self._sync += ev.dur
            self._totals.barriers += ev.data["barriers"]
        elif kind == "stall":
            self._decomposed += ev.dur
            self._recovery += ev.dur
        elif kind == "frontier":
            row = dict(ev.data)
            self._frontier.append(row)
            self._grow(row)
        elif kind == "switch":
            row = {"ts": ev.ts, **ev.data}
            self._switches.append(row)
            self._grow(row)
        elif kind == "send" and ev.lane is not None:
            e = self._pair(ev.lane, int(ev.data["dest"]))
            e["messages"] += 1
            e["msg_bytes"] += int(ev.data["nbytes"])
        elif kind == "rma" and ev.lane is not None:
            owner = int(ev.data["owner"])
            if owner != ev.lane:  # local window access: no network traffic
                e = self._pair(ev.lane, owner)
                ops = int(ev.data.get("ops", ev.data["items"]))
                if ev.label == "get":
                    e["gets"] += ops
                elif ev.label == "put":
                    e["puts"] += ops
                else:
                    field = ("acc_float" if ev.data.get("dtype") == "float"
                             else "acc_int")
                    e[field] += ops
                e["rma_bytes"] += int(ev.data.get("nbytes",
                                                  8 * int(ev.data["items"])))

    def _on_step(self, ev: TraceEvent) -> None:
        deltas = ev.data["deltas"]
        counters: dict[str, float] = {}
        for d in deltas:
            for k, v in d.items():
                counters[k] = counters.get(k, 0) + v
        step = {"index": ev.data["index"], "kind": ev.kind,
                "label": ev.label, "ts": ev.ts, "time": ev.dur,
                "counters": counters}
        self._steps.append(step)
        self._grow(step)
        agg = self._phases.get(ev.label)
        if agg is None:
            self._phase_order.append(ev.label)
            agg = self._phases[ev.label] = {"label": ev.label, "events": 0,
                                            "time": 0.0, "counters": {}}
            self._nbytes += 256
        agg["events"] += 1
        agg["time"] += ev.dur
        for k, v in counters.items():
            agg["counters"][k] = agg["counters"].get(k, 0) + v
        acc = self._totals
        for d in deltas:
            for k, v in d.items():
                setattr(acc, k, getattr(acc, k) + v)
        # critical-path attribution of this barrier-delimited interval
        spans = ev.data["spans"]
        dur = ev.dur
        bl = (max(range(len(spans)), key=lambda t: spans[t]) if spans else 0)
        delta = deltas[bl] if bl < len(deltas) else {}
        parts = self.tracer.rt.machine.time_parts(PerfCounters(**delta))
        cm = min(sum(parts.get(k, 0.0) for k in COMM_COUNTERS), dur)
        stalls = ev.data.get("stalls")
        inj = (min(stalls[bl], dur - cm)
               if stalls and bl < len(stalls) else 0.0)
        cp = dur - cm - inj
        self._compute += cp
        self._comm += cm
        self._injected += inj
        P = len(self._lane_busy)
        for t in range(P):
            s = min(spans[t], dur) if t < len(spans) else 0.0
            self._lane_busy[t] += s
            self._lane_idle[t] += dur - s
        if bl < P:
            self._lane_critical[bl] += dur
        interval = {"index": ev.data["index"], "kind": ev.kind,
                    "label": ev.label, "lane": bl, "time": dur,
                    "compute": cp, "comm": cm, "injected": inj}
        self._intervals.append(interval)
        self._grow(interval)

    def _pair(self, src: int, dst: int) -> dict:
        key = (src, dst)
        e = self._pairs.get(key)
        if e is None:
            e = self._pairs[key] = dict.fromkeys(TRAFFIC_FIELDS, 0)
            self._nbytes += 512
            self._mark()
        return e

    def _grow(self, row: dict) -> None:
        self._nbytes += 64 + approx_value_nbytes(row)
        self._mark()

    # -- snapshot views ---------------------------------------------------------------
    @property
    def decomposed_mtu(self) -> float:
        """Σ dur over region/superstep/stall/barrier events, in order --
        the left side of :meth:`Tracer.reconcile_time`."""
        return self._decomposed

    def traced_totals(self) -> PerfCounters:
        """Sum of every recorded counter delta plus barrier episodes."""
        return self._totals.copy()

    def traffic(self) -> dict:
        """The per-rank-pair traffic matrix (``rollup["traffic"]``).

        Always schema-complete: an SM trace (no communication verbs)
        yields an empty ``pairs`` list with all-zero totals.
        """
        rows = [{"src": s, "dst": d, **self._pairs[(s, d)]}
                for s, d in sorted(self._pairs)]
        totals = {counter: sum(r[field] for r in rows)
                  for field, counter in _TRAFFIC_TOTALS.items()}
        return {"ranks": self.tracer.rt.P, "pairs": rows, "totals": totals}

    def critical(self) -> dict:
        """The critical-path decomposition (``rollup["critical_path"]``)."""
        decomposed = self._decomposed
        actual = self.tracer.rt.time - self.tracer.start_time
        totals = {
            "compute": self._compute,
            "comm": self._comm,
            "injected_stall": self._injected,
            "sync": self._sync,
            "recovery_stall": self._recovery,
            "off_path_idle": sum(self._lane_idle),
            "decomposed_mtu": decomposed,
            "time_mtu": actual,
            "reconciled": math.isclose(decomposed, actual,
                                       rel_tol=1e-9, abs_tol=1e-6),
        }
        lanes = [{"lane": t, "critical": self._lane_critical[t],
                  "busy": self._lane_busy[t], "idle": self._lane_idle[t]}
                 for t in range(len(self._lane_busy))]
        return {"totals": totals, "lanes": lanes,
                "intervals": list(self._intervals)}

    def rollup(self) -> dict:
        """The full ``repro-metrics/3`` document.

        ``steps`` is the per-region/superstep table, ``series`` pivots it
        into one array per counter name, ``phases`` aggregates steps by
        their ``rt.annotate`` label (in first-occurrence order),
        ``cache`` renders the phases as the paper's Table-1 cache
        columns (reads / writes / L1 / L2 / L3 / TLB misses plus the
        per-read L1 miss rate), ``cut`` is the partition edge-cut
        summary (``null`` when the tracer was attached without a graph)
        and ``comm`` the communication verb totals it bounds,
        ``traffic`` the per-rank-pair matrix those verbs decompose into
        (:meth:`traffic`), ``critical_path`` the bounding-lane time
        decomposition (:meth:`critical`), ``frontier`` collects the
        traversal samples, ``switches`` the push<->pull direction
        decisions with their trigger operands, and ``totals`` are the
        reconciled run totals.  A ``wallclock`` block is added only when
        the tracer's wall-clock self-profiler is enabled, so default
        rollups stay deterministic.
        """
        tracer = self.tracer
        names = sorted({k for s in self._steps for k in s["counters"]})
        series = {k: [s["counters"].get(k, 0) for s in self._steps]
                  for k in names}
        totals = self._totals.to_dict()
        phase_rows = [self._phases[label] for label in self._phase_order]
        roll = {
            "schema": METRICS_SCHEMA,
            "meta": tracer.meta(),
            "time_mtu": tracer.rt.time - tracer.start_time,
            "steps": list(self._steps),
            "series": series,
            "phases": phase_rows,
            "cache": _cache_view(phase_rows),
            "cut": tracer.cut,
            "comm": {k: totals[k] for k in COMM_COUNTERS if totals[k]},
            "traffic": self.traffic(),
            "critical_path": self.critical(),
            "frontier": list(self._frontier),
            "switches": list(self._switches),
            "totals": {k: v for k, v in totals.items() if v},
        }
        wallclock = getattr(tracer, "wallclock", None)
        if wallclock is not None:
            roll["wallclock"] = wallclock.block()
        return roll


class SamplingSink(TraceSink):
    """Deterministic head + reservoir retention of span events.

    Keeps the first ``head`` spans verbatim (the run's warm-up shape)
    and a seeded uniform reservoir over the rest, bounding retained
    spans at ``max_events`` however long the run.  Exact counters,
    traffic, and the critical path survive through the embedded
    :class:`RollupSink` (:attr:`rollup`) even when spans are dropped.
    :meth:`view` exposes the retained sample as a tracer-shaped object
    for :func:`~repro.observability.export.chrome_trace` and
    :func:`~repro.observability.flame.folded_stacks`; its ``meta()``
    carries a ``sampled`` block naming the retention so a sampled
    export is never mistaken for a full one.  Two runs of the same
    seeded configuration retain identical samples.
    """

    name = "sampling"

    def __init__(self, max_events: int = 4096, head: int | None = None,
                 seed: int = 0) -> None:
        super().__init__()
        self.max_events = max(2, int(max_events))
        self.head_target = (self.max_events // 4 if head is None
                            else max(1, min(int(head), self.max_events - 1)))
        self.seed = seed
        self._rng = random.Random(seed)
        self.rollup = RollupSink()
        self._head: list[TraceEvent] = []
        self._reservoir: list[TraceEvent] = []
        self._tail_seen = 0
        self.spans_seen = 0
        self._sample_bytes = 0

    def bind(self, tracer) -> None:
        super().bind(tracer)
        self.rollup.bind(tracer)

    def on_reset(self) -> None:
        self.rollup.on_reset()
        self._rng = random.Random(self.seed)
        self._head = []
        self._reservoir = []
        self._tail_seen = 0
        self.spans_seen = 0
        self._sample_bytes = 0

    @property
    def nbytes(self) -> int:
        return self.rollup.nbytes + self._sample_bytes

    def on_event(self, ev: TraceEvent) -> None:
        self.rollup.on_event(ev)
        if ev.kind not in SPAN_KINDS:
            self._mark()
            return
        self.spans_seen += 1
        if len(self._head) < self.head_target:
            self._head.append(ev)
            self._sample_bytes += ev.approx_nbytes()
        else:
            cap = self.max_events - self.head_target
            self._tail_seen += 1
            if len(self._reservoir) < cap:
                self._reservoir.append(ev)
                self._sample_bytes += ev.approx_nbytes()
            else:
                j = self._rng.randrange(self._tail_seen)
                if j < cap:
                    dropped = self._reservoir[j]
                    self._reservoir[j] = ev
                    self._sample_bytes += (ev.approx_nbytes()
                                           - dropped.approx_nbytes())
        self._mark()

    def retained(self) -> list[TraceEvent]:
        """The sampled span events in emission order."""
        return self._head + sorted(self._reservoir, key=lambda e: e.seq)

    def view(self) -> "TraceView":
        """A tracer-shaped view over the sample for the span exporters."""
        events = self.retained()
        meta = dict(self.tracer.meta())
        meta["sampled"] = {"retained": len(events),
                           "spans_seen": self.spans_seen,
                           "head": len(self._head), "seed": self.seed}
        return TraceView(self.tracer, events, meta)


class TraceView:
    """Duck-typed tracer over a retained event subset.

    Carries exactly the surface :func:`~repro.observability.export.
    chrome_trace` and :func:`~repro.observability.flame.folded_stacks`
    read (``rt``, ``is_dm``, ``cut``, ``events``, ``meta()``), so the
    span exporters render a sample without knowing it is one -- except
    through ``meta()["sampled"]``.
    """

    def __init__(self, tracer, events: list[TraceEvent],
                 meta: dict | None = None) -> None:
        self.rt = tracer.rt
        self.is_dm = tracer.is_dm
        self.cut = tracer.cut
        self.events = events
        self._meta = dict(meta if meta is not None else tracer.meta())

    def meta(self) -> dict:
        return self._meta


__all__ = ["COMM_COUNTERS", "METRICS_SCHEMA", "SPAN_KINDS", "TRAFFIC_FIELDS",
           "BufferSink", "JsonlStreamSink", "RollupSink", "SamplingSink",
           "TraceSink", "TraceView", "format_bytes"]
