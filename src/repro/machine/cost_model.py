"""Machine cost models: event counts -> simulated time.

The paper measures wall-clock on Cray XC30/XC40/XC50 nodes and a
commodity Haswell box ("Trivium").  We replace wall-clock with *model
time units* (mtu): a linear combination of the event counts gathered by
the instrumented memory layer.  The weight vectors are different per
machine, which is exactly what Table 4 of the paper probes (the
dense-graph push/pull winner flips between Trivium and Daint while the
sparse-graph winner is stable).

Weight provenance
-----------------
Relative costs follow Schweizer, Besta & Hoefler, "Evaluating the cost
of atomic operations on modern architectures" (PACT'15), cited by the
paper as [50]:

* a *contended* atomic (many threads targeting the same shared arrays,
  which is exactly what push variants do) costs low hundreds of cycles;
* a lock (acquire + release + fence) costs about 1.5 atomics;
* miss penalties are ordered L1 < L2 < L3 < DRAM with roughly
  4 / 12 / 40 / 200-cycle latencies (modeled as incremental costs).

Distributed-memory weights follow the alpha-beta (latency + bandwidth)
model; ``remote_acc_float`` is priced far above ``remote_acc_int``
because Section 6.3.1 of the paper attributes the 10x MP-over-RMA gap
for PageRank to ``MPI_Accumulate``'s locking protocol on floats, while
the integer fetch-and-op of Triangle Counting takes a hardware fast
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.machine.cache import CacheHierarchySpec, CacheLevelSpec, TLBSpec
from repro.machine.counters import PerfCounters


#: the communication terms of :meth:`MachineSpec.time`: each counter
#: and the weight field that prices it.  ``time_parts`` and
#: ``comm_time`` read this table; ``time`` itself keeps its literal
#: sum, because it runs on every superstep and traced event (about
#: 12,800 calls per dm-road pass) and a loop over the table would slow
#: it.  ``tests/test_tracer_deltas.py`` holds the two in step.
COMM_WEIGHTS = (
    ("messages", "net_alpha"), ("msg_bytes", "net_beta"),
    ("collectives", "w_collective"), ("collective_bytes", "net_beta"),
    ("remote_gets", "w_remote_get"), ("remote_puts", "w_remote_put"),
    ("remote_acc_int", "w_remote_acc_int"),
    ("remote_acc_float", "w_remote_acc_float"),
    ("remote_bytes", "net_beta"), ("flushes", "w_flush"),
)


@dataclass(frozen=True)
class MachineSpec:
    """A named machine: cache geometry plus per-event time weights.

    All weights are in cycles (of an arbitrary but fixed clock), so the
    produced "time" is deterministic model time, not milliseconds.
    """

    name: str
    cores: int
    smt: int = 2                       #: hardware threads per core (HT)
    #: combined throughput of two SMT threads sharing a core, relative to
    #: one thread running alone (~1.4x on the paper's Xeons): with P >
    #: cores, co-scheduled threads partially serialize but hide each
    #: other's memory stalls
    smt_yield: float = 1.4
    hierarchy: CacheHierarchySpec = field(default_factory=CacheHierarchySpec)

    # --- shared-memory weights (cycles per event) --------------------------
    # Atomics/locks are priced at *contended* cost (Schweizer et al. [50]
    # measure far-cache-line CAS/FAA in the low hundreds of cycles): the
    # push variants point many threads at the same shared arrays.
    w_read: float = 1.0
    w_write: float = 1.0
    w_atomic: float = 150.0            #: contended CAS (retry loop)
    w_faa: float = 60.0                #: contended FAA: single op, no retries
    w_lock: float = 220.0              #: lock acquire + release + fence
    #: fraction of w_atomic that a *batched* atomic still costs: a stream of
    #: independent same-array atomics (PA's segregated remote phase) pipelines
    #: in the memory system instead of serializing behind interleaved local
    #: work, roughly halving its effective latency
    atomic_batch_factor: float = 0.5
    w_branch_cond: float = 0.8
    w_branch_uncond: float = 0.3
    w_l1_miss: float = 8.0             #: incremental penalty beyond an L1 hit
    w_l2_miss: float = 28.0
    w_l3_miss: float = 160.0
    w_tlb_miss: float = 30.0
    w_flop: float = 0.5
    w_barrier: float = 2000.0          #: per barrier episode per thread

    # --- distributed-memory weights ------------------------------------------
    # Small one-sided ops pipeline deeply on Aries, so their per-op cost is
    # an *issue rate*, far below the full round-trip latency that a
    # point-to-point message (net_alpha) pays.
    net_alpha: float = 20000.0         #: per point-to-point message latency
    net_beta: float = 4.0              #: per byte
    w_remote_get: float = 600.0        #: pipelined small-get issue cost
    w_remote_put: float = 600.0
    w_remote_acc_int: float = 300.0       #: HW fast-path fetch-and-op (foMPI sub-microsecond)
    w_remote_acc_float: float = 9000.0    #: lock-based accumulate protocol
    w_collective: float = 60000.0      #: per collective step, before bytes
    w_flush: float = 8000.0

    def time(self, c: PerfCounters) -> float:
        """Simulated time (mtu) of one thread/process's event counts."""
        return (
            c.reads * self.w_read
            + c.writes * self.w_write
            + c.cas * self.w_atomic
            + c.faa * self.w_faa
            + (c.atomics - c.cas - c.faa) * self.w_atomic
            - c.atomics_batched * self.w_atomic * (1.0 - self.atomic_batch_factor)
            + c.locks * self.w_lock
            + c.branches_cond * self.w_branch_cond
            + c.branches_uncond * self.w_branch_uncond
            + c.l1_misses * self.w_l1_miss
            + c.l2_misses * self.w_l2_miss
            + c.l3_misses * self.w_l3_miss
            + (c.tlb_d_misses + c.tlb_i_misses) * self.w_tlb_miss
            + c.flops * self.w_flop
            + c.barriers * self.w_barrier
            + c.messages * self.net_alpha
            + c.msg_bytes * self.net_beta
            + c.collectives * self.w_collective
            + c.collective_bytes * self.net_beta
            + c.remote_gets * self.w_remote_get
            + c.remote_puts * self.w_remote_put
            + c.remote_acc_int * self.w_remote_acc_int
            + c.remote_acc_float * self.w_remote_acc_float
            + c.remote_bytes * self.net_beta
            + c.flushes * self.w_flush
        )

    def time_parts(self, c: PerfCounters) -> dict[str, float]:
        """Per-counter decomposition of :meth:`time` (nonzero terms only).

        The same weights as :meth:`time`, itemized: summing the values
        reproduces ``time(c)`` up to float association.  The batched-
        atomic rebate appears as a negative ``atomics_batched`` entry;
        ``atomics`` is the *plain* (non-CAS, non-FAA) share.  This is
        the attribution surface the comparative observability layer
        uses to say *why* one configuration beats another -- which
        counters the time difference actually lives in.
        """
        parts = {
            "reads": c.reads * self.w_read,
            "writes": c.writes * self.w_write,
            "cas": c.cas * self.w_atomic,
            "faa": c.faa * self.w_faa,
            "atomics": (c.atomics - c.cas - c.faa) * self.w_atomic,
            "atomics_batched": -c.atomics_batched * self.w_atomic
            * (1.0 - self.atomic_batch_factor),
            "locks": c.locks * self.w_lock,
            "branches_cond": c.branches_cond * self.w_branch_cond,
            "branches_uncond": c.branches_uncond * self.w_branch_uncond,
            "l1_misses": c.l1_misses * self.w_l1_miss,
            "l2_misses": c.l2_misses * self.w_l2_miss,
            "l3_misses": c.l3_misses * self.w_l3_miss,
            "tlb_d_misses": c.tlb_d_misses * self.w_tlb_miss,
            "tlb_i_misses": c.tlb_i_misses * self.w_tlb_miss,
            "flops": c.flops * self.w_flop,
            "barriers": c.barriers * self.w_barrier,
        }
        parts.update((k, getattr(c, k) * getattr(self, w))
                     for k, w in COMM_WEIGHTS)
        return {k: v for k, v in parts.items() if v}

    def comm_time(self, delta: dict) -> float:
        """The communication share of :meth:`time` for a counter-delta
        dict (absent fields count zero), summed in
        :data:`COMM_WEIGHTS` order."""
        t = 0
        for k, w in COMM_WEIGHTS:
            t += delta.get(k, 0) * getattr(self, w)
        return t

    def with_(self, **kwargs) -> "MachineSpec":
        """A copy with some weights replaced (for ablation sweeps)."""
        return replace(self, **kwargs)

    def scaled(self, factor: int = 64) -> "MachineSpec":
        """A copy whose cache/TLB geometry is divided by ``factor``.

        The repo's stand-in graphs are orders of magnitude smaller than
        the paper's (DESIGN.md section 2); shrinking the simulated
        caches by the same order restores the out-of-cache regime the
        paper's machines were actually in.  All experiments use
        ``scaled(64)`` machines by default.
        """
        h = self.hierarchy

        def shrink(level: CacheLevelSpec) -> CacheLevelSpec:
            size = max(level.line_bytes * level.ways, level.size_bytes // factor)
            return CacheLevelSpec(size, level.ways, level.line_bytes)

        new_h = CacheHierarchySpec(
            l1=shrink(h.l1), l2=shrink(h.l2), l3=shrink(h.l3),
            tlb=TLBSpec(max(8, h.tlb.entries // max(factor // 8, 1)),
                        h.tlb.page_bytes),
        )
        return replace(self, name=f"{self.name}/s{factor}", hierarchy=new_h)

    @property
    def max_threads(self) -> int:
        return self.cores * self.smt


def _hier(l1_kib: int, l2_kib: int, l3_mib_slice: float, tlb_entries: int = 64
          ) -> CacheHierarchySpec:
    return CacheHierarchySpec(
        l1=CacheLevelSpec(l1_kib * 1024, 8),
        l2=CacheLevelSpec(l2_kib * 1024, 8),
        l3=CacheLevelSpec(int(l3_mib_slice * 1024 * 1024), 16),
        tlb=TLBSpec(tlb_entries, 4096),
    )


#: Cray XC30 node: 8-core Sandy Bridge E5-2670 (the paper's default SM box).
XC30 = MachineSpec(
    name="XC30", cores=8, smt=2,
    hierarchy=_hier(32, 256, 2.5),
)

#: Cray XC40 node: 18-core Haswell E5-2695.  More threads raise atomic
#: contention a little; the uncore keeps miss costs close to XC30.
XC40 = MachineSpec(
    name="XC40", cores=18, smt=2,
    hierarchy=_hier(32, 256, 2.5),
    w_atomic=160.0, w_faa=64.0, w_lock=235.0, w_l3_miss=180.0,
)

#: Piz Dora XC40* node: 12-core Haswell E5-2690.
XC40_STAR = MachineSpec(
    name="XC40*", cores=12, smt=2,
    hierarchy=_hier(32, 256, 2.5),
    w_atomic=155.0, w_faa=62.0, w_lock=230.0, w_l3_miss=180.0,
)

#: Cray XC50 node: 12-core Broadwell E5-2690.
XC50 = MachineSpec(
    name="XC50", cores=12, smt=2,
    hierarchy=_hier(32, 256, 2.5),
    w_atomic=150.0, w_faa=60.0, w_lock=225.0, w_l3_miss=170.0,
)

#: "Trivium": commodity 4-core Haswell i7-4770.  Only 8 hardware threads
#: contend, so atomics are much cheaper than on the 36-thread Xeons,
#: while the small shared L3 and client DRAM path make random-read
#: misses costlier -- together these flip PR's dense-graph winner to
#: push, the Table-4 observation the paper highlights.
TRIVIUM = MachineSpec(
    name="Trivium", cores=4, smt=2,
    hierarchy=_hier(32, 256, 2.0, tlb_entries=64),
    w_atomic=60.0, w_faa=24.0, w_lock=95.0,
    w_l1_miss=10.0, w_l2_miss=34.0, w_l3_miss=280.0, w_tlb_miss=50.0,
)

MACHINES: dict[str, MachineSpec] = {
    m.name: m for m in (XC30, XC40, XC40_STAR, XC50, TRIVIUM)
}
