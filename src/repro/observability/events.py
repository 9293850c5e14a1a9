"""The typed trace-event model and its versioned schema.

Every record a :class:`~repro.observability.tracer.Tracer` emits is one
:class:`TraceEvent`.  Timestamps are **simulated** machine time units
(mtu) -- the same clock as ``rt.time`` -- so traces are bit-identical
across runs of the same (kernel, graph, config, fault plan) and carry
no wall-clock noise.

Event kinds
-----------
``region``
    One SM parallel region (or ``sequential`` phase).  ``lane`` is
    ``None`` (the per-thread expansion lives in ``data["spans"]``);
    ``dur`` is the region's simulated span under the core/SMT
    topology.  ``data``: ``index``, ``spans`` (per-thread mtu),
    ``deltas`` (per-thread nonzero :class:`PerfCounters` fields),
    ``sizes`` (items per thread, when launched via ``parallel_for``),
    ``sequential`` (bool), and -- only when the SM fault layer
    stretched a lane -- ``stalls`` (per-thread injected span stretch in
    mtu: straggler factor, lock-preempt waits; the flamegraph exporter
    carves these into per-lane ``[stall]`` frames).
``superstep``
    One DM superstep.  ``data``: ``index``, ``spans`` (per-rank mtu
    after straggler stretch), ``deltas`` (per-rank counter deltas,
    including any recovery work charged inside the boundary), and
    ``stall`` (the barrier-level recovery wait).
``barrier``
    A barrier episode; ``dur`` is ``w_barrier``; ``data["barriers"]``
    is the number of per-thread barrier counter increments (= P).
``stall``
    Recovery wait gating a superstep's or SM region's barrier (retry
    backoff, redelivery, restart timeouts, store-buffer fences);
    strictly-additive time, carrying no counters -- so
    :meth:`Tracer.reconcile` holds under faults by construction.
``frontier``
    Frontier evolution of a traversal: ``data`` has ``iteration``,
    ``size``, ``density`` (size / n), and ``edges`` when the caller
    measured the frontier's out-edges.
``switch``
    A push<->pull direction decision, with the operand values that
    produced it (``data``: ``iteration``, ``previous``, ``chosen``,
    plus the policy operands, e.g. ``frontier_edges``,
    ``unexplored_edges``, ``frontier_size``, ``n``).
``schedule``
    A loop-scheduling decision: ``data`` has ``policy`` (static /
    dynamic / by-owner), ``items``, ``chunk``, and per-thread
    ``sizes``.
``send`` / ``inbox`` / ``rma`` / ``flush``
    DM communication verbs, on the issuing rank's lane; ``data``
    carries destination/tag/window/dtype/op counts as applicable.
``fault`` / ``recovery``
    Injected fault events and the paired recovery actions from
    :mod:`repro.runtime.faults` and :mod:`repro.runtime.sm_faults`;
    ``label`` is the fault-schedule kind (``drop``, ``retry``,
    ``crash``, ``restart``, ``rma-replay``, ``straggler``,
    ``cas-lost``, ``cas-retry``, ``store-delay``, ``store-fence``, ...)
    and ``lane`` the affected rank/thread where attributable.

The JSONL export writes a header line ``{"schema": SCHEMA, ...}``
followed by one event object per line; consumers must check the
schema string before parsing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: versioned schema tag written in the JSONL header line
SCHEMA = "repro-trace/1"

#: fault-injector schedule kinds that are *recovery* actions (the rest
#: are injected faults)
RECOVERY_KINDS = frozenset({
    "retry", "retry-a2a", "rma-replay", "restart", "deliver-late",
    "cas-retry", "store-fence",
})


@dataclass(slots=True)
class TraceEvent:
    """One typed, simulated-time-stamped trace record.

    Every sink receives the same instance, so none may change it.  It
    is not frozen because a frozen dataclass pays one
    ``object.__setattr__`` per field on every emission.
    """

    seq: int                  #: emission index (total order of the run)
    kind: str                 #: event kind (see module docstring)
    ts: float                 #: simulated start time (mtu)
    dur: float = 0.0          #: simulated duration (0 = instant)
    lane: int | None = None   #: thread/rank lane; None = runtime-global
    label: str = ""           #: human-readable name (region label, verb...)
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat dict for the JSONL export (stable key set)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "ts": self.ts,
            "dur": self.dur,
            "lane": self.lane,
            "label": self.label,
            "data": self.data,
        }

    def approx_nbytes(self) -> int:
        """Cheap, deterministic estimate of this record's Python heap
        footprint -- what a :class:`~repro.observability.sinks.BufferSink`
        charges its memory accounting per retained event.  It is an
        O(size-of-event) shallow walk (CPython object-header constants,
        no ``sys.getsizeof`` recursion), so the trace layer can report
        peak sink memory without measurably slowing emission."""
        return 176 + 49 + len(self.label) + approx_value_nbytes(self.data)


#: exact item types charged in bulk: 28 bytes each, a string 49 plus
#: its length (any other item takes the walk)
_SCALARS = frozenset((int, float, bool, type(None)))
_LEAVES = _SCALARS | {str}


def approx_value_nbytes(v) -> int:
    """Approximate heap bytes of one JSON-shaped value (see above)."""
    if isinstance(v, dict):
        return 64 + 56 * len(v) + sum(map(len, v)) + _items_nbytes(v.values())
    if isinstance(v, (list, tuple)):
        return 56 + 8 * len(v) + _items_nbytes(v)
    if isinstance(v, str):
        return 49 + len(v)
    return 28


def _items_nbytes(items) -> int:
    """``sum(map(approx_value_nbytes, items))``, with no call per item
    when every item is a scalar or a string (counter deltas, spans,
    verb payloads)."""
    types = set(map(type, items))
    if types <= _SCALARS:
        return 28 * len(items)
    if types <= _LEAVES:
        strs = [x for x in items if type(x) is str]
        return 28 * len(items) + 21 * len(strs) + sum(map(len, strs))
    return sum(map(approx_value_nbytes, items))
