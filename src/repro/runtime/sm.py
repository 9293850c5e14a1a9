"""The simulated shared-memory machine.

Why a simulation: the paper's shared-memory study runs P hardware
threads over one address space; CPython's GIL makes real threads
useless for this, so the repo executes P *simulated* threads
superstep-style (deterministically, one after another within a parallel
region) while accounting events per thread.  Simulated parallel time of
a region is the maximum of its threads' event costs, plus a barrier
term -- the standard BSP accounting.

The push/pull ownership discipline of Section 3.8 is enforceable: with
``check_ownership=True`` any write a pull-variant performs to a vertex
outside the executing thread's partition raises
:class:`OwnershipViolation`.  Push variants instead declare their
remote writes through the atomic/lock memory primitives.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import Partition1D
from repro.machine.cost_model import MachineSpec, XC30
from repro.machine.counters import PerfCounters
from repro.machine.memory import CountingMemory, MemoryModel
from repro.runtime.scheduler import assign


class OwnershipViolation(RuntimeError):
    """A pull-mode thread wrote to a vertex it does not own (Section 3.8)."""


class SMRuntime:
    """P simulated threads over a 1D-partitioned graph.

    Parameters
    ----------
    g:
        The input graph (used for its vertex count; algorithms receive
        it separately).
    P:
        Number of simulated threads.
    machine:
        The :class:`MachineSpec` whose weights convert events to time.
    memory:
        An explicit memory model; defaults to a
        :class:`CountingMemory` over the machine's cache hierarchy.
        Pass a :class:`CacheSimMemory` for Table-1-style trace runs.
    schedule, chunk:
        Loop scheduling policy for :meth:`parallel_for`.
    check_ownership:
        Enable the pull-mode owner-write assertion.
    """

    def __init__(self, g: CSRGraph, P: int, machine: MachineSpec = XC30,
                 memory: MemoryModel | None = None, schedule: str = "static",
                 chunk: int = 64, check_ownership: bool = False) -> None:
        self.g = g
        self.P = P
        self.machine = machine
        self.part = Partition1D(g.n, P)
        if memory is None:
            memory = CountingMemory(machine.hierarchy)
        self.mem = memory
        self.schedule = schedule
        self.chunk = chunk
        self.check_ownership = check_ownership
        self.thread_counters = [PerfCounters() for _ in range(P)]
        self.time = 0.0              #: accumulated simulated time (mtu)
        self.region_count = 0
        self._active_thread: int | None = None
        #: observability hook (repro.observability.attach_tracer)
        self.tracer = None
        #: chaos hook (repro.runtime.sm_faults.attach_sm_fault_injector)
        self.faults = None
        self._label = ""
        self.mem.set_counters(self.thread_counters[0])

    # -- bookkeeping -------------------------------------------------------------
    def owner(self, v):
        return self.part.owner(v)

    def total_counters(self) -> PerfCounters:
        return PerfCounters.total(self.thread_counters)

    def annotate(self, label: str) -> None:
        """Label subsequent regions in the trace/profile (sticky)."""
        self._label = label

    def reset(self) -> None:
        """Clear counters, time and the memory model's miss residues
        (a cache simulator keeps its caches warm)."""
        for c in self.thread_counters:
            c.reset()
        self.mem.clear_residues(self.thread_counters)
        self.time = 0.0
        self.region_count = 0
        # rebind accounting to thread 0: without this, events issued
        # between runs land on whichever thread happened to execute last
        self._active_thread = None
        self.mem.set_counters(self.thread_counters[0])
        if self.tracer is not None:
            self.tracer.on_reset()
        if self.faults is not None:
            self.faults.reset()

    def _activate(self, t: int) -> None:
        self._active_thread = t
        self.mem.set_counters(self.thread_counters[t])
        self.mem.set_thread(t)

    def owned_write_check(self, v) -> None:
        """Raise if the executing thread writes a vertex it does not own.

        Called by pull variants (cheaply skipped unless
        ``check_ownership``); push variants never call it -- they use
        atomics/locks for remote writes instead.
        """
        if not self.check_ownership or self._active_thread is None:
            return
        ok = self.part.is_local(self._active_thread, v)
        if not np.all(ok):
            bad = np.asarray(v)[~np.asarray(ok)] if not np.isscalar(v) else v
            raise OwnershipViolation(
                f"thread {self._active_thread} wrote non-owned vertex {bad}")

    # -- parallel constructs -----------------------------------------------------
    def for_each_thread(self, body: Callable[[int, np.ndarray], None],
                        barrier: bool = True) -> None:
        """Run ``body(t, owned_vertices)`` once per thread (a parallel region).

        This is the owner-computes loop shape: thread t receives its
        contiguous vertex block.
        """
        self._region([self.part.owned(t) for t in range(self.P)], body, barrier)

    def parallel_for(self, items: np.ndarray,
                     body: Callable[[int, np.ndarray], None],
                     schedule: str | None = None, by_owner: bool = False,
                     barrier: bool = True) -> None:
        """Run ``body(t, chunk_of_items)`` with items spread over threads.

        ``by_owner=True`` routes every item to the thread owning it (the
        paper's "t[v] does ..." formulation for sparse frontiers);
        otherwise the configured loop schedule decides.
        """
        items = np.asarray(items, dtype=np.int64)
        if by_owner:
            chunks = self.part.group_by_owner(items)
            if self.tracer is not None:
                self.tracer.on_schedule("by-owner", len(items),
                                        [len(c) for c in chunks], None)
        else:
            chunks = assign(items, self.P, schedule or self.schedule,
                            self.chunk, tracer=self.tracer)
        self._region(chunks, body, barrier)

    def sequential(self, body: Callable[[], None], thread: int = 0,
                   barrier: bool = True) -> None:
        """Run ``body`` on one simulated thread while others idle.

        Models the serial phases of Greedy-Switch / Conflict-Removal:
        the region's time is that single thread's cost.
        """
        tracer = self.tracer
        faults = self.faults
        t_start = self.time
        self._activate(thread)
        self.mem.region_begin()
        if faults is not None:
            # the serial phase is the conceptual master thread: it can
            # straggle but never crashes (like DM rank bookkeeping
            # between supersteps, which PR 3 also leaves uninjured)
            faults.begin_step([thread], allow_crash=False)
        counters = self.thread_counters[thread]
        snap = counters.to_dict() if tracer is not None else None
        before = self.machine.time(counters)
        body()
        span = self.machine.time(counters) - before
        self.mem.region_end()
        stalls = None
        if faults is not None:
            full = [0.0] * self.P
            full[thread] = span
            full, stalls = faults.end_region(full)
            span = full[thread]
        self.time += span
        if tracer is not None:
            spans = [0.0] * self.P
            spans[thread] = span
            deltas: list[dict] = [{} for _ in range(self.P)]
            deltas[thread] = counters.nonzero_delta(snap)
            tracer.on_region(self._label, t_start, span, spans, deltas,
                             sequential=True, stalls=stalls)
        if barrier:
            self.barrier()

    def barrier(self) -> None:
        """A full barrier: every thread pays the barrier cost once.

        Recovery waits (crash timeouts, CAS-retry backoff, store-buffer
        fences) gate barrier exit: the stall lands *before* the barrier
        cost, after the region's max span -- the PR 3 convention that
        keeps fault overhead strictly visible in ``time``.
        """
        if self.faults is not None:
            stall = self.faults.barrier_stall()
            if stall > 0.0:
                if self.tracer is not None:
                    self.tracer.on_stall(self.time, stall, self.region_count)
                self.time += stall
        if self.tracer is not None:
            self.tracer.on_barrier(self.time)
        for c in self.thread_counters:
            c.barriers += 1
        self.time += self.machine.w_barrier
        self.region_count += 1
        self.mem.on_barrier()

    # -- internals -----------------------------------------------------------------
    def _region(self, chunks: Sequence[np.ndarray],
                body: Callable[[int, np.ndarray], None], barrier: bool) -> None:
        tracer = self.tracer
        faults = self.faults
        t_start = self.time
        spans = []
        deltas = []
        self.mem.region_begin()
        crashed = (faults.begin_step(range(len(chunks)))
                   if faults is not None else ())
        for t, chunk in enumerate(chunks):
            self._activate(t)
            counters = self.thread_counters[t]
            # region-boundary checkpoint, taken only for the threads the
            # injector doomed: the pre-body array snapshot is what crash
            # recovery rolls back to before the rerun
            ckpt = faults.checkpoint(t) if t in crashed else None
            snap = counters.to_dict() if tracer is not None else None
            before = self.machine.time(counters)
            body(t, chunk)
            if ckpt is not None:
                faults.crash(t, ckpt, lambda: body(t, chunk))
            spans.append(self.machine.time(counters) - before)
            if tracer is not None:
                deltas.append(counters.nonzero_delta(snap))
        self.mem.region_end()
        stalls = None
        if faults is not None:
            spans, stalls = faults.end_region(spans)
        span = self._region_span(spans)
        self.time += span
        if tracer is not None:
            tracer.on_region(self._label, t_start, span, spans, deltas,
                             sizes=[len(c) for c in chunks], stalls=stalls)
        if barrier:
            self.barrier()

    def _region_span(self, spans: list[float]) -> float:
        """Parallel time of one region under the core/SMT topology.

        With P <= cores every simulated thread has a core: BSP max.
        With P > cores, threads are placed round-robin (t % cores) and
        co-scheduled SMT siblings share a core at ``smt_yield`` combined
        throughput -- hyper-threading helps (the paper's Section 6.5
        observation) but does not double throughput.
        """
        if not spans:
            return 0.0
        cores = self.machine.cores
        if self.P <= cores:
            return max(spans)
        per_core: dict[int, list[float]] = {}
        for t, s in enumerate(spans):
            per_core.setdefault(t % cores, []).append(s)
        worst = 0.0
        for sibling_spans in per_core.values():
            if len(sibling_spans) == 1:
                core_time = sibling_spans[0]
            else:
                core_time = sum(sibling_spans) / self.machine.smt_yield
            worst = max(worst, core_time)
        return worst
