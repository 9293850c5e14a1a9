"""Performance-event counters.

The paper instruments its implementations with PAPI hardware counters
plus manual atomic/lock counts (Section 6, "Counted Events").  This
module defines the same taxonomy as a plain dataclass.  Counters are
kept *per simulated thread or process*; the shared-memory and
distributed-memory runtimes aggregate them per parallel region to
compute simulated time (max over threads) and per run to produce
Table-1-style event tables (sum over threads).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class PerfCounters:
    """Event counts gathered during an instrumented execution.

    The first block mirrors the events of Table 1 of the paper; the
    second block covers the distributed-memory events of Section 6.3;
    the third counts synchronization constructs that contribute to the
    simulated time but are not in the paper's tables.
    """

    # --- shared-memory events (Table 1) ----------------------------------
    reads: int = 0              #: memory loads issued
    writes: int = 0             #: memory stores issued
    atomics: int = 0            #: atomic instructions (FAA + CAS)
    locks: int = 0              #: lock acquisitions
    branches_cond: int = 0      #: conditional branches
    branches_uncond: int = 0    #: unconditional branches
    l1_misses: int = 0
    l2_misses: int = 0
    l3_misses: int = 0
    tlb_d_misses: int = 0       #: data TLB misses
    tlb_i_misses: int = 0       #: instruction TLB misses
    faa: int = 0                #: fetch-and-add subset of ``atomics``
    cas: int = 0                #: compare-and-swap subset of ``atomics``
    atomics_batched: int = 0    #: subset of ``atomics`` issued as a segregated
                                #: stream (Partition-Awareness phase 2), which
                                #: pipelines and earns a cost discount

    # --- distributed-memory events (Section 6.3) -------------------------
    messages: int = 0           #: point-to-point messages sent
    msg_bytes: int = 0          #: bytes carried by those messages
    collectives: int = 0        #: collective operations (other than barriers)
    collective_bytes: int = 0   #: bytes this process contributes to collectives
    remote_gets: int = 0        #: RMA get operations
    remote_puts: int = 0        #: RMA put operations
    remote_acc_float: int = 0   #: RMA accumulate on floating-point operands
    remote_acc_int: int = 0     #: RMA fetch-and-op / accumulate on integers
    remote_bytes: int = 0       #: bytes moved by RMA operations
    flushes: int = 0            #: RMA flush / synchronization calls

    # --- synchronization constructs ---------------------------------------
    barriers: int = 0           #: barrier episodes this thread participated in

    # --- local compute -----------------------------------------------------
    flops: int = 0              #: floating point operations (for PR-style math)

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        return PerfCounters(
            **{k: getattr(self, k) + getattr(other, k) for k in _FIELDS})

    def __iadd__(self, other: "PerfCounters") -> "PerfCounters":
        mine = self.__dict__
        for k, v in other.__dict__.items():
            mine[k] += v
        return self

    def __sub__(self, other: "PerfCounters") -> "PerfCounters":
        return PerfCounters(
            **{k: getattr(self, k) - getattr(other, k) for k in _FIELDS})

    def copy(self) -> "PerfCounters":
        return PerfCounters(**self.to_dict())

    def to_dict(self) -> dict:
        # the instance dict holds exactly the fields, in declaration order
        return self.__dict__.copy()

    def nonzero_delta(self, before: dict) -> dict:
        """The nonzero fields of ``self`` minus the :meth:`to_dict`
        snapshot ``before``, in field order -- a trace event's counter
        delta, built in one pass."""
        return {k: d for k, v in self.__dict__.items()
                if (d := v - before[k])}

    def reset(self) -> None:
        for k in _FIELDS:
            setattr(self, k, 0)

    @staticmethod
    def total(parts: list["PerfCounters"]) -> "PerfCounters":
        """Element-wise sum over a list of counter sets."""
        acc = PerfCounters()
        for p in parts:
            acc += p
        return acc

    def scaled(self, factor: float) -> "PerfCounters":
        """Return a copy with every event count multiplied by ``factor``.

        Used by experiments that run a sampled subset of the work (e.g.
        BC with sampled sources) and extrapolate the event counts.
        """
        return PerfCounters(
            **{k: int(round(getattr(self, k) * factor)) for k in _FIELDS})

    # Human-readable rendering in the style of Table 1 ("234M", "3,169T").
    def formatted(self) -> dict:
        return {k: format_count(v) for k, v in self.to_dict().items()}


#: the counter names in declaration order, listed once for the
#: element-wise operations
_FIELDS = tuple(f.name for f in fields(PerfCounters))

_SUFFIXES = [(10**12, "T"), (10**9, "B"), (10**6, "M"), (10**3, "k")]


def format_count(value: float) -> str:
    """Format an event count the way the paper's Table 1 does.

    >>> format_count(234_000_000)
    '234M'
    >>> format_count(3_169_000_000_000)
    '3.17T'
    """
    value = float(value)
    negative = value < 0
    v = abs(value)
    for scale, suffix in _SUFFIXES:
        if v >= scale:
            scaled = v / scale
            if scaled >= 100:
                text = f"{scaled:.0f}{suffix}"
            else:
                text = f"{scaled:.3g}{suffix}"
            return "-" + text if negative else text
    if v == int(v):
        text = str(int(v))
    else:
        text = f"{v:.3g}"
    return "-" + text if negative else text
