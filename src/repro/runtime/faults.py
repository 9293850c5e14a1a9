"""Seeded fault injection and recovery for the DM runtime.

The paper's distributed-memory study (Sections 6.3--6.5) assumes a
lossless synchronous network.  Real Cray-scale runs do not: messages
drop, duplicate, and arrive late; flushes lose one-sided operations;
processes straggle and crash.  This module perturbs the simulated
machine's communication *at superstep boundaries* -- deterministically,
from one seeded RNG -- and pairs every fault class with the recovery
protocol a reliable transport would use:

==================  ==========================================  =========================================
fault (``FaultPlan``)  without recovery                          with recovery (``RecoveryConfig``)
==================  ==========================================  =========================================
``drop``            message vanishes                            ack/retry with exponential backoff
``duplicate``       message delivered twice                     sequence-number dedup discards the copy
``delay``           message arrives ``delay_steps`` boundaries  the barrier waits for the straggling
                    late (reordering across supersteps)         message (delivery guarantee at a cost)
``reorder``         one destination's batch is permuted         same (tag matching is order-blind)
``rma_lost``        a flushed put/accumulate never lands        replayed at the boundary until acked
``rma_duplicate``   the op is applied twice (FAAs double-count)  sequence-number dedup applies it once
``straggler``       the superstep span is multiplied            same (BSP absorbs it at the barrier)
``crash``           the process's superstep work is lost        checkpoint rollback + restart and rerun
==================  ==========================================  =========================================

Faults only touch the *data-carrying* channels: mailbox messages, the
``alltoallv`` cells, and the staged :meth:`DMRuntime.put` /
:meth:`DMRuntime.accumulate` operations.  Cost-only messages (payload
``None`` -- the BFS-pull bitmap fragments, the TC request emulation)
participate in the cost of faults (retries, waits) but carry no data to
corrupt; the synchronous neighbor-list fetches of the simulation are
documented compromises (see ``docs/robustness.md``).

Every random draw comes from one ``numpy`` generator seeded by
``FaultPlan.seed``, consumed in a fixed order by the sequential
simulation, so the whole fault *schedule* -- and therefore results,
counters, and simulated time -- is a pure function of (kernel, graph,
plan, recovery).  ``FaultInjector.schedule`` records every event for
bit-exact comparison across runs.

Usage mirrors ``attach_dm_race_detector`` (the two compose -- the
detector occupies ``rt.observer``/``rt.mem``, the injector ``rt.faults``)::

    rt = DMRuntime(g.n, P=4, machine=XC40.scaled(64))
    detector = attach_dm_race_detector(rt)
    injector = attach_fault_injector(rt, FaultPlan(seed=1, drop=0.1))
    result = dm_bfs(g, rt, root=0, variant="push")
    assert injector.stats.retries > 0 and detector.report().clean
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.fault_core import (
    BaseFaultInjector, FaultStats, plan_label, validate_plan,
    validate_recovery,
)

__all__ = ["FaultPlan", "RecoveryConfig", "FaultStats", "FaultInjector",
           "attach_fault_injector"]


@dataclass(frozen=True)
class FaultPlan:
    """Per-event fault probabilities and magnitudes, plus the RNG seed.

    All probabilities are evaluated independently per message / staged
    RMA op / process-superstep.  A zero probability consumes no random
    draws, so plans stay comparable across seeds fault class by fault
    class.  Probabilities outside [0, 1] raise at construction; a plan
    with every probability at zero warns (a no-op chaos cell).
    """

    #: magnitude knobs -- everything else is a probability in [0, 1]
    _NON_PROB = ("delay_steps", "straggler_factor")

    seed: int = 0
    #: P(point-to-point message or alltoallv cell is dropped)
    drop: float = 0.0
    #: P(message or alltoallv cell is delivered twice)
    duplicate: float = 0.0
    #: P(message arrives ``delay_steps`` boundaries late)
    delay: float = 0.0
    delay_steps: int = 1
    #: P(one destination's delivered batch is permuted at the boundary)
    reorder: float = 0.0
    #: P(a staged put/accumulate is lost by the flush that posted it)
    rma_lost: float = 0.0
    #: P(a staged put/accumulate is applied twice)
    rma_duplicate: float = 0.0
    #: P(a process runs ``straggler_factor`` x slower in a superstep)
    straggler: float = 0.0
    straggler_factor: float = 4.0
    #: P(a process crashes during a superstep, losing its work)
    crash: float = 0.0

    def __post_init__(self) -> None:
        validate_plan(self)

    def label(self) -> str:
        return plan_label(self)


@dataclass(frozen=True)
class RecoveryConfig:
    """Which recovery protocols the run opts into, and their price.

    The time constants are in the machine's cost units (mtu) and are
    charged to the *barrier* of the superstep where the recovery work
    happens (acks and redelivery gate barrier exit), so fault overhead
    is always visible in ``rt.time``.
    """

    #: sequence-numbered sends with ack/retry (messages, alltoallv
    #: cells, and boundary replay of lost staged RMA ops)
    ack_retry: bool = True
    #: discard re-deliveries by sequence number (messages and staged
    #: ops; the "idempotent accumulate replay" of duplicated FAAs)
    dedup: bool = True
    #: snapshot registered windows before a superstep body and, on a
    #: crash, roll back and rerun (without it the crashed work is lost)
    checkpoint_restart: bool = True
    #: first retry backoff; doubles every further round
    backoff_base: float = 5000.0
    retry_limit: int = 64
    #: barrier wait per delay step when holding the barrier for a
    #: straggling message
    delay_wait: float = 20000.0
    #: timeout-based failure detection + process restart
    crash_timeout: float = 200000.0
    restart_penalty: float = 100000.0
    #: barrier fence draining delayed stores (SM store-buffer faults)
    store_flush_wait: float = 2000.0

    def __post_init__(self) -> None:
        validate_recovery(self)


class FaultInjector(BaseFaultInjector):
    """Perturbs one :class:`~repro.runtime.dm.DMRuntime` per its plan.

    Installed as ``rt.faults`` by :func:`attach_fault_injector`; the
    runtime calls back at the three points where the simulated network
    acts -- superstep begin (crash/straggler draws), ``rma_flush``
    (staged-op completion), and the superstep boundary (message fates,
    staged-op replay).  With ``recovery=None`` the faults hit raw.
    """

    def _on_reset(self) -> None:
        self._held: list[tuple[int, int, tuple]] = []   # delayed messages
        self._factors: list[float] = [1.0] * self.rt.P

    def _step_index(self) -> int:
        return self.rt.superstep_index

    # -- superstep begin: crash and straggler draws ----------------------------------
    def begin_superstep(self) -> set[int]:
        plan, P = self.plan, self.rt.P
        crashes: set[int] = set()
        if plan.crash > 0:
            crashes = {p for p in range(P) if self._hit(plan.crash)}
        self._factors = [1.0] * P
        if plan.straggler > 0:
            for p in range(P):
                if self._hit(plan.straggler):
                    self._factors[p] = plan.straggler_factor
                    self.stats.stragglers += 1
                    self._event("straggler", p)
        return crashes

    def straggler_factor(self, p: int) -> float:
        return self._factors[p]

    # -- crash semantics -------------------------------------------------------------
    def crash(self, p: int, snapshot, body) -> None:
        """Roll back ``p``'s failed superstep attempt; rerun if recovering.

        The failed attempt's *counters* are kept -- the work was done
        and lost, and the double execution is exactly the rollback
        overhead the acceptance criteria want visible in time.
        """
        rt = self.rt
        rt._restore(p, snapshot)
        self.stats.crashes += 1
        self._event("crash", p)
        if rt.observer is not None:
            rollback = getattr(rt.observer, "on_rollback", None)
            if rollback is not None:
                rollback(p)
        rec = self.recovery
        if rec is None or not rec.checkpoint_restart:
            return                       # work lost; nobody notices in time
        self._wait(rec.crash_timeout + rec.restart_penalty)
        self.stats.restarts += 1
        self._event("restart", p)
        rt._activate(p)
        body(p)

    # -- staged RMA completion (called by rt.rma_flush) --------------------------------
    def flush_op(self, op) -> None:
        rt, plan = self.rt, self.plan
        if self._hit(plan.rma_lost):
            self.stats.rma_lost += 1
            self._event("rma-lost", op.rank, op.wkey)
            return                       # stays pending; boundary may replay
        rt._apply_staged(op)
        if self._hit(plan.rma_duplicate):
            self.stats.rma_duplicates += 1
            self._event("rma-dup", op.rank, op.wkey)
            if not rt._apply_staged(op):
                self.stats.rma_dup_suppressed += 1

    def _replay_op(self, op) -> None:
        rt, rec, plan = self.rt, self.recovery, self.plan
        attempts = 0
        while not op.applied:
            force = attempts >= rec.retry_limit
            attempts += 1
            self.stats.rma_replayed += 1
            self._event("rma-replay", op.rank, op.wkey)
            # the replay is a real re-issued op: same observer event,
            # same cost, its own flush -- the epoch checker's books stay
            # balanced within the epoch
            if rt.observer is not None:
                rt.observer.on_rma(op.kind, op.rank, op.owner, op.window,
                                   op.idx, op.dtype)
            c = rt.proc_counters[op.rank]
            if op.kind == "acc":
                attr = ("remote_acc_float" if op.dtype == "float"
                        else "remote_acc_int")
            else:
                attr = "remote_puts"
            setattr(c, attr, getattr(c, attr) + op.op_count)
            c.remote_bytes += op.nbytes
            c.flushes += 1
            if rt.observer is not None:
                rt.observer.on_flush(op.rank, op.owner)
            self._wait(self._backoff(attempts))
            if force:
                self.stats.retry_exhausted += 1
                rt._apply_staged(op)
            elif not self._hit(plan.rma_lost):
                rt._apply_staged(op)

    # -- superstep boundary: message fates + staged replay ------------------------------
    def boundary(self) -> None:
        rt, plan = self.rt, self.plan
        processed: list[list[tuple]] = [[] for _ in range(rt.P)]
        if self._held:
            still = []
            for release, dest, msg in self._held:
                if release <= rt.superstep_index:
                    processed[dest].append(msg)
                    self.stats.delivered_late += 1
                    self._event("deliver-late", msg[0], dest, msg[2])
                else:
                    still.append((release, dest, msg))
            self._held = still
        for dest in range(rt.P):
            for msg in rt._in_flight[dest]:
                self._fate(msg, dest, processed)
            if (plan.reorder > 0 and len(processed[dest]) > 1
                    and self._hit(plan.reorder)):
                perm = self.rng.permutation(len(processed[dest]))
                processed[dest] = [processed[dest][i] for i in perm]
                self.stats.reordered += 1
                self._event("reorder", dest)
        rt._in_flight = processed
        pending = [op for op in rt._staged if not op.applied]
        if pending and self.recovery is not None and self.recovery.ack_retry:
            for op in pending:
                self._replay_op(op)
        rt._staged = [op for op in rt._staged if not op.applied]

    def _fate(self, msg: tuple, dest: int, processed) -> None:
        plan, rec, rt = self.plan, self.recovery, self.rt
        src, _, tag, nbytes, _ = msg
        attempts = 0
        while self._hit(plan.drop):
            if rec is not None and rec.ack_retry:
                if attempts >= rec.retry_limit:
                    self.stats.retry_exhausted += 1
                    break
                attempts += 1
                self.stats.retries += 1
                self._event("retry", src, dest, tag)
                c = rt.proc_counters[src]
                c.messages += 1
                c.msg_bytes += nbytes
                self._wait(self._backoff(attempts))
                continue
            self.stats.dropped += 1
            self._event("drop", src, dest, tag)
            return
        if self._hit(plan.duplicate):
            self.stats.duplicates += 1
            self._event("duplicate", src, dest, tag)
            if self.dedup:
                self.stats.dup_suppressed += 1
            else:
                processed[dest].append(msg)
        if self._hit(plan.delay):
            self.stats.delayed += 1
            self._event("delay", src, dest, tag)
            if rec is not None and rec.ack_retry:
                self._wait(rec.delay_wait * plan.delay_steps)
            else:
                self._held.append(
                    (rt.superstep_index + plan.delay_steps, dest, msg))
                return
        processed[dest].append(msg)

    # -- alltoallv ------------------------------------------------------------------
    def perturb_alltoallv(self, received: list[list]) -> None:
        """Apply message faults per (sender, receiver) collective cell.

        The collective completes as a unit, so recovery stalls (and
        delays, which cannot partially deliver) are charged straight to
        ``rt.time``; a drop without recovery voids the cell (``None``),
        a duplicate without dedup appends the payload again.
        """
        rt, plan, rec = self.rt, self.plan, self.recovery
        retry = rec is not None and rec.ack_retry
        wait = 0.0
        for q in range(rt.P):
            extras = []
            for p in range(rt.P):
                if p == q:
                    continue
                payload = received[q][p]
                nbytes = rt._payload_bytes(payload)
                attempts = 0
                lost = False
                while self._hit(plan.drop):
                    if retry:
                        if attempts >= rec.retry_limit:
                            self.stats.retry_exhausted += 1
                            break
                        attempts += 1
                        self.stats.retries += 1
                        self._event("retry-a2a", p, q)
                        c = rt.proc_counters[p]
                        c.messages += 1
                        c.msg_bytes += nbytes
                        backoff = self._backoff(attempts)
                        wait += backoff
                        self.stats.backoff_time += backoff
                        continue
                    lost = True
                    self.stats.dropped += 1
                    self._event("drop-a2a", p, q)
                    break
                if lost:
                    received[q][p] = None
                    continue
                if self._hit(plan.duplicate):
                    self.stats.duplicates += 1
                    self._event("duplicate-a2a", p, q)
                    if self.dedup:
                        self.stats.dup_suppressed += 1
                    else:
                        extras.append(payload)
                if self._hit(plan.delay):
                    self.stats.delayed += 1
                    self._event("delay-a2a", p, q)
                    stall = ((rec.delay_wait if rec is not None
                              else RecoveryConfig.delay_wait) * plan.delay_steps)
                    wait += stall
                    self.stats.backoff_time += stall
            received[q].extend(extras)
        rt.time += wait


def attach_fault_injector(rt, plan: FaultPlan,
                          recovery: RecoveryConfig | None = RecoveryConfig()
                          ) -> FaultInjector:
    """Install a seeded :class:`FaultInjector` as ``rt.faults``.

    ``recovery=None`` injects the raw faults with no protocol on top --
    the seeded-bug mode the chaos tests use to prove the faults have
    teeth.  Composes with ``attach_dm_race_detector`` in either order.
    """
    injector = FaultInjector(rt, plan, recovery)
    rt.faults = injector
    return injector
