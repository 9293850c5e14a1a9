"""The :class:`Tracer`: structured event recording for both runtimes.

Attachment follows the repo's hook convention (``rt.observer`` for the
epoch checker, ``rt.faults`` for the injector): ``attach_tracer(rt)``
installs the tracer as ``rt.tracer`` and every hook site in the
runtimes is a single ``is None`` check, so an untraced run pays
nothing and a traced run's *simulated* time and counters are identical
to an untraced one -- tracing only ever reads the machine state.

What lands in the trace:

* every SM parallel region / DM superstep, with per-thread (per-rank)
  simulated spans **and** :class:`PerfCounters` deltas -- the deltas
  are measured by snapshotting each lane's counter block around the
  body, so summing all region/superstep deltas plus the barrier events
  reconciles *exactly* with the run-level counter totals
  (:meth:`Tracer.reconcile`);
* barriers, and the recovery stalls the fault layer charges to them;
* frontier sizes/densities and push<->pull switch decisions with the
  operand values that triggered them (traversal kernels report these
  through the duck-typed ``rt.tracer`` attribute -- no import needed);
* loop-schedule decisions (policy + per-thread chunk sizes);
* DM sends, inbox reads, RMA verbs, flushes -- on the issuing rank's
  lane, timestamped by that rank's progress within the superstep;
* fault-injection and recovery events from both injectors --
  :mod:`repro.runtime.faults` (drop/retry/rollback/restart/...) and
  :mod:`repro.runtime.sm_faults` (straggler/cas-lost/crash/...) -- on
  the affected lane, plus per-lane injected span stretch
  (``data["stalls"]``) on the region events of perturbed SM runs.

All timestamps are simulated mtu, so traces are deterministic.
"""

from __future__ import annotations

import time

from repro.machine.counters import PerfCounters
from repro.observability.events import RECOVERY_KINDS, SCHEMA, TraceEvent
from repro.observability.sinks import (
    BufferSink, RollupSink, SamplingSink, TraceSink,
)


def _nonzero(c: PerfCounters) -> dict:
    """Compact counter-delta dict (nonzero fields only)."""
    return {k: v for k, v in c.to_dict().items() if v}


class Tracer:
    """Records typed events from one runtime; see the module docstring.

    Events flow through :meth:`_emit` into the attached *sinks*
    (:mod:`repro.observability.sinks`).  The default is a single
    :class:`BufferSink` -- every event retained in order, ``.events``
    exposed for the post-hoc exporters, byte-identical to the
    pre-sink tracer.  Alternative sinks trade retention for bounded
    memory (streaming JSONL, online rollup, seeded span sampling);
    the tracer itself only keeps O(1) bookkeeping (sequence number,
    per-kind counts, the peak of the sinks' approximate retained
    bytes in :attr:`peak_sink_bytes`).

    The tracer never mutates runtime state; it is re-armed by
    ``rt.reset()`` (sinks reset, counter baseline re-snapshotted) so
    a reused runtime produces a fresh, reconcilable trace per run.
    """

    def __init__(self, rt, graph=None,
                 sinks: list[TraceSink] | None = None) -> None:
        self.rt = rt
        self.is_dm = hasattr(rt, "superstep")
        self.sinks: list[TraceSink] = (list(sinks) if sinks is not None
                                       else [BufferSink()])
        self._seq = 0
        self.n_regions = 0
        self.n_events = 0
        self.kind_counts: dict[str, int] = {}
        self.peak_sink_bytes = 0
        #: wall-clock self-profiler (:meth:`enable_wallclock`); when set,
        #: the metrics rollup gains a ``wallclock`` block
        self.wallclock: WallclockProfiler | None = None
        self.start_time = rt.time
        self.start_counters = rt.total_counters()
        #: partition edge-cut summary (set when a graph is supplied)
        self.cut = edge_cut(graph, rt.part) if graph is not None else None
        # superstep context (DM): start time + per-rank progress baselines
        self._ss_t0: float = rt.time
        self._ss_befores: list[float] = []
        self._ss_snaps: list[PerfCounters] = []
        for sink in self.sinks:
            sink.bind(self)

    # -- sink plumbing -------------------------------------------------------------
    @property
    def events(self) -> list[TraceEvent]:
        """The retained event list of the attached :class:`BufferSink`.

        Only a buffering tracer has one; under streaming/rollup sinks
        the events were deliberately not retained, and post-hoc
        consumers must use the sink's own view instead.
        """
        sink = self.find_sink(BufferSink)
        if sink is None:
            raise AttributeError(
                "this tracer has no BufferSink (sinks: "
                + ", ".join(s.name for s in self.sinks)
                + "); post-hoc event access requires buffered retention")
        return sink.events

    def find_sink(self, cls: type) -> TraceSink | None:
        """The first attached sink of type ``cls`` (or ``None``)."""
        for sink in self.sinks:
            if isinstance(sink, cls):
                return sink
        return None

    def fold(self) -> RollupSink:
        """The run folded into its ``repro-metrics/3`` accumulators.

        The attached :class:`RollupSink` (direct or inside a
        :class:`SamplingSink`) when there is one; otherwise a fresh
        :class:`RollupSink` fed the buffered events in emission order --
        the same fold, so the online and post-hoc rollups are equal by
        construction.  Every metric, the reconciliation surface and the
        critical path read this.
        """
        sink = self.find_sink(RollupSink)
        if sink is not None:
            return sink
        sampler = self.find_sink(SamplingSink)
        if sampler is not None:
            return sampler.rollup
        buffer = self.find_sink(BufferSink)
        if buffer is None:
            raise AttributeError(
                "this tracer has no RollupSink to read and no BufferSink "
                "to replay (sinks: " + ", ".join(s.name for s in self.sinks)
                + "); metrics and reconciliation need one of them")
        fold = RollupSink()
        fold.bind(self)
        for ev in buffer.events:
            fold.on_event(ev)
        return fold

    def enable_wallclock(self) -> "WallclockProfiler":
        """Attach the wall-clock self-profiler (idempotent)."""
        if self.wallclock is None:
            self.wallclock = WallclockProfiler()
        return self.wallclock

    def close(self) -> None:
        """Flush/close every attached sink (idempotent)."""
        for sink in self.sinks:
            sink.close()

    # -- bookkeeping ---------------------------------------------------------------
    def meta(self) -> dict:
        """Header fields for the exporters."""
        return {
            "schema": SCHEMA,
            "runtime": "dm" if self.is_dm else "sm",
            "P": self.rt.P,
            "machine": getattr(self.rt.machine, "name", "?"),
            "clock": "simulated-mtu",
        }

    def on_reset(self) -> None:
        """Re-arm for a fresh run (called by ``rt.reset()``).

        Resets sink state too: the buffer clears, a streaming file
        truncates and rewrites its header, rollup accumulators zero,
        the sampler reseeds.  ``peak_sink_bytes`` is a high-water mark
        across the tracer's lifetime and survives.
        """
        self._seq = 0
        self.n_regions = 0
        self.n_events = 0
        self.kind_counts = {}
        self.start_time = self.rt.time
        self.start_counters = self.rt.total_counters()
        self._ss_befores = []
        self._ss_snaps = []
        for sink in self.sinks:
            sink.on_reset()
        if self.wallclock is not None:
            self.wallclock.on_reset()

    def _emit(self, kind: str, ts: float, dur: float = 0.0,
              lane: int | None = None, label: str = "",
              data: dict | None = None) -> None:
        ev = TraceEvent(
            seq=self._seq, kind=kind, ts=float(ts), dur=float(dur),
            lane=lane, label=label, data=data or {})
        self._seq += 1
        self.n_events += 1
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        for sink in self.sinks:
            sink.on_event(ev)
        retained = sum(sink.nbytes for sink in self.sinks)
        if retained > self.peak_sink_bytes:
            self.peak_sink_bytes = retained
        if self.wallclock is not None:
            self.wallclock.on_event(ev)

    def _lanes(self) -> list[float]:
        """Per-rank progress (mtu) within the open superstep."""
        m = self.rt.machine
        return [m.time(c) - b for c, b
                in zip(self.rt.proc_counters, self._ss_befores)]

    def _now(self, lane: int | None) -> float:
        """Simulated timestamp for an instant event on ``lane``."""
        if lane is None or not self._ss_befores:
            return self.rt.time
        return self._ss_t0 + max(0.0, self._lanes()[lane])

    # -- shared-memory hooks ---------------------------------------------------------
    def on_region(self, label: str, start: float, span: float,
                  spans: list[float], deltas: list[PerfCounters],
                  sizes: list[int] | None = None,
                  sequential: bool = False,
                  stalls: list[float] | None = None) -> None:
        index = self.n_regions
        self.n_regions += 1
        if sequential:
            label = (label or "sequential") + " [seq]"
        else:
            label = label or f"region-{index}"
        data = {
            "index": index,
            "spans": [float(s) for s in spans],
            "deltas": [_nonzero(d) for d in deltas],
            "sequential": sequential,
        }
        if sizes is not None:
            data["sizes"] = [int(s) for s in sizes]
        # per-lane injected span stretch (straggler factor, lock-preempt
        # waits) -- recorded only when the fault layer stretched someone,
        # so fault-free traces stay byte-identical to pre-chaos ones
        if stalls is not None and any(stalls):
            data["stalls"] = [float(s) for s in stalls]
        self._emit("region", ts=start, dur=span, label=label, data=data)

    def on_stall(self, ts: float, dur: float, index: int) -> None:
        """An SM recovery stall gating the next barrier (all lanes wait)."""
        self._emit("stall", ts=ts, dur=dur, label="recovery-stall",
                   data={"index": int(index)})

    def on_barrier(self, ts: float) -> None:
        self._emit("barrier", ts=ts, dur=self.rt.machine.w_barrier,
                   label="barrier", data={"barriers": self.rt.P})

    def on_schedule(self, policy: str, items: int, sizes: list[int],
                    chunk: int | None) -> None:
        self._emit("schedule", ts=self.rt.time, label=policy,
                   data={"policy": policy, "items": int(items),
                         "chunk": chunk, "sizes": [int(s) for s in sizes]})

    # -- traversal attribution (duck-typed: kernels call through rt.tracer) ------------
    def on_frontier(self, iteration: int, size: int, n: int,
                    edges: int | None = None) -> None:
        data = {"iteration": int(iteration), "size": int(size),
                "density": (float(size) / n) if n else 0.0}
        if edges is not None:
            data["edges"] = int(edges)
        self._emit("frontier", ts=self.rt.time, label="frontier", data=data)

    def on_switch(self, iteration: int, previous: str, chosen: str,
                  operands: dict) -> None:
        data = {"iteration": int(iteration), "previous": previous,
                "chosen": chosen}
        data.update({k: (int(v) if isinstance(v, (int, bool)) else v)
                     for k, v in operands.items()})
        self._emit("switch", ts=self.rt.time,
                   label=f"{previous}->{chosen}", data=data)

    # -- distributed-memory hooks -------------------------------------------------------
    def on_superstep_begin(self, index: int) -> None:
        rt = self.rt
        self._ss_t0 = rt.time
        self._ss_befores = [rt.machine.time(c) for c in rt.proc_counters]
        self._ss_snaps = [c.copy() for c in rt.proc_counters]

    def on_superstep_end(self, index: int, spans: list[float],
                         stall: float) -> None:
        rt = self.rt
        deltas = [c - s for c, s in zip(rt.proc_counters, self._ss_snaps)]
        span = max(spans) if spans else 0.0
        label = getattr(rt, "_label", "") or f"superstep-{index}"
        self._emit("superstep", ts=self._ss_t0, dur=span, label=label,
                   data={"index": int(index),
                         "spans": [float(s) for s in spans],
                         "deltas": [_nonzero(d) for d in deltas],
                         "stall": float(stall)})
        t = self._ss_t0 + span
        if stall > 0:
            self._emit("stall", ts=t, dur=stall, label="recovery-stall",
                       data={"index": int(index)})
            t += stall
        self._emit("barrier", ts=t, dur=rt.machine.w_barrier,
                   label="barrier", data={"barriers": rt.P})
        self._ss_befores = []
        self._ss_snaps = []

    def on_send(self, rank: int, dest: int, tag, nbytes: int) -> None:
        self._emit("send", ts=self._now(rank), lane=rank, label="send",
                   data={"dest": int(dest), "tag": _plain(tag),
                         "nbytes": int(nbytes)})

    def on_inbox(self, rank: int, tag, count: int) -> None:
        self._emit("inbox", ts=self._now(rank), lane=rank, label="inbox",
                   data={"tag": _plain(tag), "messages": int(count)})

    def on_rma(self, verb: str, rank: int, owner: int, window,
               nitems: int, dtype: str | None, nbytes: int | None = None,
               ops: int | None = None) -> None:
        """One RMA verb.  ``nbytes``/``ops`` mirror what the runtime
        charges to ``remote_bytes`` and the verb counter (``rma_get``
        may fetch many items in one get, an accumulate is one op per
        item), so the per-rank-pair traffic matrix reconciles exactly
        against the counters; a local verb (``owner == rank``) charges
        plain memory traffic instead and is excluded from the matrix."""
        data = {"owner": int(owner), "window": _window_name(window),
                "items": int(nitems), "dtype": dtype}
        if nbytes is not None:
            data["nbytes"] = int(nbytes)
        if ops is not None:
            data["ops"] = int(ops)
        self._emit("rma", ts=self._now(rank), lane=rank, label=verb,
                   data=data)

    def on_flush(self, rank: int, owner: int | None) -> None:
        self._emit("flush", ts=self._now(rank), lane=rank, label="flush",
                   data={"owner": None if owner is None else int(owner)})

    # -- fault-injection / recovery hooks -----------------------------------------------
    def on_fault(self, kind: str, detail: tuple, superstep: int) -> None:
        lane = detail[0] if detail and isinstance(detail[0], int) else None
        self._emit("recovery" if kind in RECOVERY_KINDS else "fault",
                   ts=self._now(lane), lane=lane, label=kind,
                   data={"superstep": int(superstep),
                         "detail": [_plain(d) for d in detail]})

    # -- reconciliation ------------------------------------------------------------------
    def traced_totals(self) -> PerfCounters:
        """Sum of every recorded counter delta (regions/supersteps +
        barrier episodes) -- must equal the run-level totals."""
        return self.fold().traced_totals()

    def reconcile(self) -> tuple[PerfCounters, PerfCounters]:
        """(traced, actual) counter totals since attach/reset.

        ``traced == actual`` iff every counted event of the run happened
        inside a traced region/superstep or barrier -- the invariant the
        instrumented kernels maintain.
        """
        return self.traced_totals(), self.rt.total_counters() - self.start_counters

    def reconcile_time(self) -> tuple[float, float]:
        """(decomposed, actual) simulated-time totals since attach/reset.

        The decomposed total sums every timed event in emission order --
        region/superstep spans, recovery stalls, barrier episodes --
        which is exactly the partition the critical-path attribution
        (:meth:`RollupSink.critical`) refines into critical-compute /
        critical-comm / sync components.  The two totals agree to float
        associativity (the DM runtime adds ``span + stall + barrier`` in
        one expression), so callers compare with a tight relative
        tolerance rather than ``==``.
        """
        return self.fold().decomposed_mtu, self.rt.time - self.start_time

    def critical_totals(self) -> dict:
        """The critical-path ``totals`` block of :meth:`fold`."""
        return self.fold().critical()["totals"]


class WallclockProfiler:
    """Real-seconds self-profiling next to the simulated-mtu trace.

    Attached via :meth:`Tracer.enable_wallclock`.  Charges the wall
    time elapsed since the previous region/superstep emission to that
    phase label (the tracer's emission points partition the run), and
    :meth:`block` renders the ``wallclock`` block the metrics rollup
    gains when the profiler is attached: per-phase wall seconds, traced
    vs. untraced wall time, the overhead factor, event throughput, and
    peak sink memory.  Everything here is *wall* time and therefore
    nondeterministic -- which is why the block only exists when
    explicitly enabled (``repro trace --wallclock``); default outputs
    stay byte-identical.
    """

    def __init__(self) -> None:
        self.on_reset()

    def on_reset(self) -> None:
        self._t0 = time.perf_counter()
        self._last = self._t0
        self._phase_order: list[str] = []
        self._phase_s: dict[str, float] = {}
        self.events = 0
        self.traced_s: float | None = None
        self.untraced_s: float | None = None
        self.peak_sink_bytes: int | None = None

    def on_event(self, ev: TraceEvent) -> None:
        self.events += 1
        if ev.kind in ("region", "superstep"):
            now = time.perf_counter()
            if ev.label not in self._phase_s:
                self._phase_order.append(ev.label)
                self._phase_s[ev.label] = 0.0
            self._phase_s[ev.label] += now - self._last
            self._last = now

    def finish(self, traced_s: float, untraced_s: float | None = None,
               peak_sink_bytes: int | None = None) -> None:
        """Record the end-to-end measurements before export."""
        self.traced_s = float(traced_s)
        self.untraced_s = None if untraced_s is None else float(untraced_s)
        self.peak_sink_bytes = peak_sink_bytes

    @property
    def overhead_x(self) -> float | None:
        """Traced / untraced wall-time factor (``None`` until known)."""
        if self.traced_s is None or not self.untraced_s:
            return None
        return self.traced_s / self.untraced_s

    def block(self) -> dict:
        """The ``wallclock`` block of the metrics rollup."""
        traced = (self.traced_s if self.traced_s is not None
                  else time.perf_counter() - self._t0)
        return {
            "clock": "wall-seconds",
            "traced_s": traced,
            "untraced_s": self.untraced_s,
            "overhead_x": self.overhead_x,
            "events": self.events,
            "events_per_s": (self.events / traced) if traced > 0 else 0.0,
            "peak_sink_bytes": self.peak_sink_bytes,
            "phases": [{"label": label, "seconds": self._phase_s[label]}
                       for label in self._phase_order],
        }


def _plain(v):
    """JSON-safe scalar for tags/payload details."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    return str(v)


def _window_name(window) -> str | None:
    if window is None:
        return None
    return str(getattr(window, "name", window))


def edge_cut(g, part) -> dict:
    """Partition edge-cut summary for the metrics rollup.

    Counts directed edges whose endpoints live on different lanes of
    the 1D partition -- the traffic ceiling every DM communication verb
    is chargeable against (:func:`repro.analysis.crosscheck.
    dm_crosscheck`) -- plus the per-lane outbound cross-edge counts.
    """
    import numpy as np
    srcs = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.offsets))
    so = part.owner(srcs)
    cross = so != part.owner(g.adj)
    edges_total = int(len(g.adj))
    edges_cross = int(cross.sum())
    per_lane = np.bincount(so[cross], minlength=part.P)
    return {
        "edges_total": edges_total,
        "edges_cross": edges_cross,
        "fraction": (edges_cross / edges_total) if edges_total else 0.0,
        "per_lane_out": [int(x) for x in per_lane],
    }


def attach_tracer(rt, graph=None, sinks=None) -> Tracer:
    """Install a :class:`Tracer` as ``rt.tracer`` and return it.

    Composes with ``attach_dm_race_detector`` and
    ``attach_fault_injector`` in any order (each occupies its own
    hook).  Re-attaching replaces the previous tracer.  Passing the
    input ``graph`` lets the tracer compute the partition edge-cut
    summary the metrics rollup reports next to the communication verb
    counts (``rollup["cut"]``).  ``sinks`` selects the retention
    strategy (default: one :class:`~repro.observability.sinks.
    BufferSink`, the byte-identical pre-sink behavior).
    """
    tracer = Tracer(rt, graph=graph, sinks=sinks)
    rt.tracer = tracer
    return tracer
