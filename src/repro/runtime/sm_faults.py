"""Seeded fault injection and recovery for the SM runtime.

PR 3 gave the distributed-memory machine a chaos layer; this module is
its shared-memory twin.  The paper's SM study (Sections 3--6) assumes
P well-behaved threads over one coherent address space; real NUMA
boxes do not: threads get descheduled mid-region, lock holders are
preempted while waiters spin, CAS outcomes are lost or doubly applied
by contended cache lines, and store buffers delay plain-store
visibility ("Specializing Coherence, Consistency, and Push/Pull" in
PAPERS.md motivates exactly these relaxed-visibility faults).  Every
fault class pairs with the recovery a resilient runtime would use:

==================  =========================================  ==========================================
fault (``SMFaultPlan``)  without recovery                       with recovery (``RecoveryConfig``)
==================  =========================================  ==========================================
``straggler``       the thread's region span is multiplied     same (the BSP max absorbs it at the
                    (visible as a ``[stall]`` flame frame)     barrier; off the critical path it hides)
``lock_preempt``    the lock holder is preempted; the          same (the critical-section delay is
                    acquiring thread's span stretches          charged to the waiting thread's span)
``cas_lost``        a claim outcome silently vanishes: the     the claim is re-issued with exponential
                    CAS target and its ``covers=`` companions  backoff until it lands (``ack_retry``);
                    revert to pre-CAS values at region end     the wait gates the barrier
``cas_duplicate``   the claim is applied twice (a second       claim dedup discards the double apply
                    CAS attempt's cost lands on the thread)    (``dedup``)
``store_delay``     a plain store parks in the store buffer;   the barrier fences the buffer
                    cross-thread reads of parked addresses     (``store_flush_wait`` per episode) --
                    are tallied as ``stale_reads``             bounded staleness, drained every barrier
``crash``           the thread's region work is rolled back    region-granular checkpoint: registered
                    to the last region boundary and lost       arrays restored, timeout + restart
                                                               charged to the barrier, the body rerun
==================  =========================================  ==========================================

Simulation compromises (mirrors of the DM layer's, see
``docs/robustness.md``): delayed store visibility perturbs *cost and
observability* (stale-read tallies, fence stalls), not array values --
kernels write real numpy arrays the simulator cannot intercept, and
the race detector cross-check confirms the affected address pairs are
the benign pull-paradigm sharing where either value converges.  Crash
rollback restores **registered** arrays exactly (threads execute
sequentially, so the pre-body snapshot isolates precisely the doomed
thread's writes); unregistered side state (thread-local frontier
buffers) is not rolled back, which at worst duplicates frontier
entries the claim filters already discard.  Crashes are drawn for
parallel regions only -- ``sequential`` phases are the conceptual
master thread, like DM rank bookkeeping between supersteps.

Determinism is inherited from :class:`~repro.runtime.fault_core.
BaseFaultInjector`: one seeded generator, fixed draw order, the whole
schedule a pure function of (kernel, graph, plan, recovery).  Because
the batched stream engine lowers its op streams to the exact
per-element call script of the interpreted kernels whenever ``rt.mem``
is not a bare counting model (the race-detector rule,
``docs/streams.md``), attaching this injector forces that oracle path
and both engines observe **byte-identical** fault schedules.

Usage mirrors :func:`~repro.runtime.faults.attach_fault_injector`::

    rt = SMRuntime(g, P=4, machine=XC30.scaled(64))
    detector = attach_race_detector(rt)
    injector = attach_sm_fault_injector(rt, SMFaultPlan(seed=1, crash=0.05))
    result = bfs(g, rt, root=0, direction="push")
    assert injector.stats.restarts > 0 and detector.report().clean
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.memory import MemoryProxy, as_index_array
from repro.runtime.fault_core import (
    BaseFaultInjector, FaultStats, plan_label, validate_plan,
)
from repro.runtime.faults import RecoveryConfig

__all__ = ["SMFaultPlan", "FaultPerturbedMemory", "SMFaultInjector",
           "attach_sm_fault_injector", "FaultStats", "RecoveryConfig"]


@dataclass(frozen=True)
class SMFaultPlan:
    """Per-event SM fault probabilities and magnitudes, plus the seed.

    Straggler and crash probabilities are evaluated per
    (thread, parallel region); lock/CAS/store probabilities per
    instrumented memory call.  A zero probability consumes no random
    draws (the shared plan contract); probabilities outside [0, 1]
    raise at construction and an all-zero plan warns.
    """

    #: magnitude knobs -- everything else is a probability in [0, 1]
    _NON_PROB = ("straggler_factor", "preempt_cost")

    seed: int = 0
    #: P(a thread runs ``straggler_factor`` x slower in a region)
    straggler: float = 0.0
    straggler_factor: float = 4.0
    #: P(a lock holder is preempted; the acquirer waits ``preempt_cost``)
    lock_preempt: float = 0.0
    preempt_cost: float = 3000.0
    #: P(a CAS call loses one claim outcome)
    cas_lost: float = 0.0
    #: P(a CAS call applies one claim twice)
    cas_duplicate: float = 0.0
    #: P(a plain store parks in the store buffer until the barrier)
    store_delay: float = 0.0
    #: P(a thread crashes during a parallel region, losing its work)
    crash: float = 0.0

    def __post_init__(self) -> None:
        validate_plan(self)

    def label(self) -> str:
        return plan_label(self)


class FaultPerturbedMemory(MemoryProxy):
    """A perturbing proxy in front of any :class:`MemoryModel`.

    Like :class:`~repro.analysis.race.RaceDetectingMemory` it is a
    :class:`~repro.machine.memory.MemoryProxy`, so the two compose in
    either order (the chaos suite wraps the detector).  All
    event/cache accounting delegates to the wrapped model; the proxy
    additionally draws per-call faults from the injector's seeded RNG
    and keeps the ndarray references :meth:`register` sees, which is
    what makes region-granular checkpoint/rollback possible (the
    :class:`~repro.machine.memory.ArrayHandle` itself carries no array
    reference).
    """

    def __init__(self, inner, injector: "SMFaultInjector") -> None:
        super().__init__(inner)
        self.inj = injector
        #: registered ndarrays by handle name (the checkpoint targets)
        self._snapshot_arrays: dict[str, np.ndarray] = {}
        #: (thread, handle name, parked index array) store-buffer entries
        self._pending_stores: list[tuple[int, str, np.ndarray]] = []
        #: (ndarray, item index, saved value) lost-claim reverts
        self._reverts: list[tuple[np.ndarray, int, object]] = []

    def register(self, name: str, array_or_size, itemsize: int | None = None):
        handle = self.inner.register(name, array_or_size, itemsize)
        # keep (and refresh, on re-registration) the live array -- the
        # inner model returns the existing handle untouched, but the
        # checkpoint must roll back the array the kernel writes *now*
        if isinstance(array_or_size, np.ndarray):
            self._snapshot_arrays[handle.name] = array_or_size
        return handle

    # -- perturbed verbs -----------------------------------------------------------
    def read(self, handle, idx=None, count=None, mode="seq", start=None) -> None:
        inj = self.inj
        if (self.in_region and self._pending_stores and idx is not None
                and inj.plan.store_delay > 0):
            inj.note_stale_reads(self.thread, handle, as_index_array(idx),
                                 self._pending_stores)
        self.inner.read(handle, idx=idx, count=count, mode=mode, start=start)

    def write(self, handle, idx=None, count=None, mode="seq", start=None) -> None:
        inj = self.inj
        if (self.in_region and idx is not None
                and inj._hit(inj.plan.store_delay)):
            self._pending_stores.append(
                (self.thread, handle.name, as_index_array(idx)))
            inj.stats.store_delays += 1
            inj._event("store-delay", self.thread, handle.name)
        self.inner.write(handle, idx=idx, count=count, mode=mode, start=start)

    def cas(self, handle, idx=None, count=None, successes=None, mode="rand",
            start=None, batched=False, covers=None) -> None:
        self.inner.cas(handle, idx=idx, count=count, successes=successes,
                       mode=mode, start=start, batched=batched, covers=covers)
        inj = self.inj
        if not self.in_region or idx is None:
            return
        plan = inj.plan
        if plan.cas_lost > 0 and inj._hit(plan.cas_lost):
            inj.lose_claim(self, self.thread, handle, as_index_array(idx),
                           covers, batched=batched)
        if plan.cas_duplicate > 0 and inj._hit(plan.cas_duplicate):
            inj.duplicate_claim(self, self.thread, handle,
                                as_index_array(idx), batched=batched)

    def lock(self, handle, idx=None, count=None, mode="rand", start=None,
             covers=None) -> None:
        self.inner.lock(handle, idx=idx, count=count, mode=mode, start=start,
                        covers=covers)
        inj = self.inj
        if (self.in_region and inj.plan.lock_preempt > 0
                and inj._hit(inj.plan.lock_preempt)):
            inj.preempt_lock(self.thread, handle)

    # -- fault bookkeeping ---------------------------------------------------------
    def queue_revert(self, arr: np.ndarray, item: int) -> None:
        """Park (array, index, current value) for region-end rollback."""
        self._reverts.append((arr, item, arr[item].copy()
                              if hasattr(arr[item], "copy") else arr[item]))

    def apply_reverts(self) -> None:
        """Undo lost claims: pre-CAS values land back at region end."""
        for arr, item, value in self._reverts:
            arr[item] = value
        self._reverts.clear()

    def drain_stores(self) -> int:
        """Empty the store buffer (barrier visibility); returns count."""
        n = len(self._pending_stores)
        self._pending_stores.clear()
        return n

    def queue_marks(self) -> tuple[int, int]:
        """Queue lengths for crash checkpoints (rollback truncates to these)."""
        return len(self._pending_stores), len(self._reverts)

    def truncate_queues(self, marks: tuple[int, int]) -> None:
        del self._pending_stores[marks[0]:]
        del self._reverts[marks[1]:]


class SMFaultInjector(BaseFaultInjector):
    """Perturbs one :class:`~repro.runtime.sm.SMRuntime` per its plan.

    Installed as ``rt.faults`` by :func:`attach_sm_fault_injector`,
    which also wraps ``rt.mem`` in a :class:`FaultPerturbedMemory`.
    The runtime calls back at region begin (the shared step protocol:
    crash/straggler draws, checkpoint, rollback), region end (span
    stretch + lost-claim reverts), and the barrier
    (store-buffer fence + accumulated recovery stalls); the per-call
    CAS/lock/store faults arrive through the memory proxy.  With
    ``recovery=None`` the faults hit raw.
    """

    def __init__(self, rt, plan: SMFaultPlan,
                 recovery: RecoveryConfig | None = None) -> None:
        self.mem = FaultPerturbedMemory(rt.mem, self)
        super().__init__(rt, plan, recovery)

    def _on_reset(self) -> None:
        #: per-thread lock-preempt waits of the current region
        self._span_extra = [0.0] * self.rt.P
        self.mem._pending_stores.clear()
        self.mem._reverts.clear()

    def _step_index(self) -> int:
        return self.rt.region_count

    # -- region end: span stretch + lost-claim corruption ------------------------------
    def end_region(self, spans: list[float]
                   ) -> tuple[list[float], list[float]]:
        """Stretch injured lanes' spans; apply parked claim reverts.

        Returns ``(spans, stalls)`` where ``stalls[t]`` is the extra
        span charged to thread ``t`` (straggler stretch + lock-preempt
        waits) -- the tracer records it so the flamegraph can carve a
        per-lane ``[stall]`` frame out of the phase.
        """
        out: list[float] = []
        stalls: list[float] = []
        for t, s in enumerate(spans):
            extra = s * (self._factors[t] - 1.0) + self._span_extra[t]
            out.append(s + extra)
            stalls.append(extra)
        self._span_extra = [0.0] * self.rt.P
        self.mem.apply_reverts()
        return out, stalls

    # -- barrier: store-buffer fence + accumulated recovery stalls ---------------------
    def barrier_stall(self) -> float:
        """Total recovery wait gating this barrier (and drain the buffer)."""
        pending = self.mem.drain_stores()
        if pending:
            if self.recovery is not None:
                self.stats.store_flushes += 1
                self._event("store-fence", None, pending)
                self._wait(self.recovery.store_flush_wait)
            # without recovery the stores still become visible at the
            # barrier (BSP semantics) -- nobody pays for the fence
        return self.consume_stall()

    # -- crash checkpointing ---------------------------------------------------------
    def checkpoint(self, t: int) -> dict:
        """Region-boundary snapshot: registered arrays + queue marks
        (threads run sequentially, so it isolates ``t``'s writes)."""
        return {
            "arrays": {name: arr.copy()
                       for name, arr in self.mem._snapshot_arrays.items()},
            "marks": self.mem.queue_marks(),
        }

    def _restore(self, t: int, snapshot: dict) -> None:
        for name, saved in snapshot["arrays"].items():
            live = self.mem._snapshot_arrays.get(name)
            if live is not None:
                live[...] = saved
        self.mem.truncate_queues(snapshot["marks"])

    # -- per-call faults (dispatched by the memory proxy) ------------------------------
    def preempt_lock(self, t: int, handle) -> None:
        """The lock holder got descheduled: the acquirer's span stretches."""
        self.stats.lock_preempts += 1
        self._event("lock-preempt", t, handle.name)
        self._span_extra[t] += self.plan.preempt_cost

    def lose_claim(self, mem: FaultPerturbedMemory, t: int, handle,
                   idx: np.ndarray, covers, batched: bool) -> None:
        """One claim outcome of this CAS call vanishes.

        With ``ack_retry`` the claim is re-issued (a real CAS attempt
        per round: reads + atomics land on the issuing thread, the
        backoff gates the barrier) until it lands.  Without recovery
        the CAS target *and its ``covers=`` companions* revert to their
        pre-CAS values at region end -- the pre-values are captured
        here, before the kernel performs the real stores the CAS
        protects, so the revert erases exactly the lost claim.
        """
        if len(idx) == 0:
            return
        j = int(self.rng.integers(len(idx)))
        v = int(idx[j])
        self.stats.cas_lost += 1
        self._event("cas-lost", t, handle.name, v)
        rec = self.recovery
        if rec is not None and rec.ack_retry:
            attempts = 0
            while True:
                if attempts >= rec.retry_limit:
                    self.stats.retry_exhausted += 1
                    break
                attempts += 1
                self.stats.cas_retries += 1
                self._event("cas-retry", t, handle.name, v)
                mem.inner.cas(handle, idx=v, successes=0, mode="rand",
                              batched=batched)
                self._wait(self._backoff(attempts))
                if not self._hit(self.plan.cas_lost):
                    break
            return
        arr = mem._snapshot_arrays.get(handle.name)
        if arr is not None:
            mem.queue_revert(arr, v)
        for cover_handle, cover_idx in covers or ():
            carr = mem._snapshot_arrays.get(cover_handle.name)
            if carr is None:
                continue
            cidx = as_index_array(cover_idx)
            if len(cidx) == len(idx):       # element-aligned companion set
                mem.queue_revert(carr, int(cidx[j]))

    def duplicate_claim(self, mem: FaultPerturbedMemory, t: int, handle,
                        idx: np.ndarray, batched: bool) -> None:
        """One claim of this CAS call is applied twice.

        With ``dedup`` the double apply is discarded for free; without
        it the duplicate is a real second CAS attempt on the claimed
        word -- it fails (the word is already set), costing reads +
        atomics on the issuing thread but moving no data.
        """
        if len(idx) == 0:
            return
        j = int(self.rng.integers(len(idx)))
        v = int(idx[j])
        self.stats.cas_duplicates += 1
        self._event("cas-dup", t, handle.name, v)
        if self.dedup:
            self.stats.cas_dup_suppressed += 1
            return
        mem.inner.cas(handle, idx=v, successes=0, mode="rand",
                      batched=batched)

    def note_stale_reads(self, t: int, handle, idx: np.ndarray,
                         pending) -> None:
        """Tally a read that observed another thread's parked store.

        One tally per read call (not per address): the stat counts
        *exposures* to bounded staleness, cross-checked by the chaos
        suite against the race detector's benign read-conflict class.
        """
        for writer, name, parked in pending:
            if writer == t or name != handle.name:
                continue
            if len(np.intersect1d(idx, parked, assume_unique=False)):
                self.stats.stale_reads += 1
                self._event("stale-read", t, handle.name)
                return


def attach_sm_fault_injector(rt, plan: SMFaultPlan,
                             recovery: RecoveryConfig | None = RecoveryConfig()
                             ) -> SMFaultInjector:
    """Install a seeded :class:`SMFaultInjector` as ``rt.faults``.

    Wraps ``rt.mem`` in a :class:`FaultPerturbedMemory` (attach *after*
    ``attach_race_detector`` so the detector observes re-issued
    recovery ops, and *before* kernels construct their state -- they
    capture ``rt.mem`` at registration).  ``recovery=None`` injects the
    raw faults with no protocol on top -- the seeded-bug mode proving
    the faults have teeth.  Wrapping also forces the batched stream
    engine onto its element-at-a-time oracle lowering, so interpreted
    and batched runs observe identical fault schedules.
    """
    if hasattr(rt, "superstep"):
        raise TypeError(
            "attach_sm_fault_injector targets SMRuntime; use "
            "attach_fault_injector for the DM runtime")
    injector = SMFaultInjector(rt, plan, recovery)
    rt.mem = injector.mem
    rt.faults = injector
    return injector
