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
    runtime calls back at superstep begin (the shared step protocol),
    ``rma_flush`` (staged-op completion), the superstep boundary
    (message fates, staged-op replay) and ``alltoallv`` (cell fates).
    With ``recovery=None`` the faults hit raw.
    """

    def _on_reset(self) -> None:
        self._held: list[tuple[int, int, tuple]] = []   # delayed messages

    def _step_index(self) -> int:
        return self.rt.superstep_index

    def straggler_factor(self, p: int) -> float:
        return self._factors[p]

    # -- crash checkpointing ---------------------------------------------------------
    def checkpoint(self, p: int) -> dict:
        """Everything ``body(p)`` may touch, captured just before it runs."""
        rt = self.rt
        return {
            "windows": {k: a.copy() for k, a in rt._windows.items()},
            "mailbox": list(rt._mailboxes[p]),
            "in_flight": [len(box) for box in rt._in_flight],
            "staged": len(rt._staged),
        }

    def _restore(self, p: int, snapshot: dict) -> None:
        """Undo ``body(p)`` and have the epoch checker forget it."""
        rt = self.rt
        for k, a in snapshot["windows"].items():
            rt._windows[k][:] = a
        rt._mailboxes[p] = snapshot["mailbox"]
        for dest, ln in enumerate(snapshot["in_flight"]):
            del rt._in_flight[dest][ln:]
        del rt._staged[snapshot["staged"]:]
        rollback = getattr(rt.observer, "on_rollback", None)
        if rollback is not None:
            rollback(p)

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
                copies, delayed = self._fate(msg[0], dest, msg[3], "", msg[2])
                if delayed:                  # the original is held
                    copies -= 1
                    self._held.append(
                        (rt.superstep_index + plan.delay_steps, dest, msg))
                processed[dest] += [msg] * copies
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

    def _fate(self, src: int, dest: int, nbytes: int, suffix: str,
              *detail) -> tuple[int, bool]:
        """Draw one message's or ``alltoallv`` cell's (``suffix="-a2a"``)
        drop, duplicate and delay faults.  Returns ``(copies, delayed)``:
        the deliveries it makes now (0 lost, 2 duplicated) and whether
        a delay hit that no ack protocol waited out."""
        plan, rec = self.plan, self.recovery
        retry = rec is not None and rec.ack_retry
        attempts = 0
        while self._hit(plan.drop):
            if not retry:
                self.stats.dropped += 1
                self._event("drop" + suffix, src, dest, *detail)
                return 0, False
            if attempts >= rec.retry_limit:
                self.stats.retry_exhausted += 1
                break
            attempts += 1
            self.stats.retries += 1
            self._event("retry" + suffix, src, dest, *detail)
            c = self.rt.proc_counters[src]
            c.messages += 1
            c.msg_bytes += nbytes
            self._wait(self._backoff(attempts))
        copies = 1
        if self._hit(plan.duplicate):
            self.stats.duplicates += 1
            self._event("duplicate" + suffix, src, dest, *detail)
            if self.dedup:
                self.stats.dup_suppressed += 1
            else:
                copies = 2
        if not self._hit(plan.delay):
            return copies, False
        self.stats.delayed += 1
        self._event("delay" + suffix, src, dest, *detail)
        if retry:
            self._wait(rec.delay_wait * plan.delay_steps)
        return copies, not retry

    # -- alltoallv ------------------------------------------------------------------
    def perturb_alltoallv(self, received: list[list]) -> None:
        """Apply message faults per (sender, receiver) collective cell.

        The collective completes as a unit, so a delay always stalls
        (it cannot partially deliver); a drop without recovery voids the
        cell (``None``), a duplicate without dedup appends the payload
        again.  It runs between supersteps, where the barrier stall is
        empty, so its waits are charged straight to ``rt.time``.
        """
        rt, plan, rec = self.rt, self.plan, self.recovery
        for q in range(rt.P):
            extras = []
            for p in range(rt.P):
                if p == q:
                    continue
                payload = received[q][p]
                copies, delayed = self._fate(
                    p, q, rt._payload_bytes(payload), "-a2a")
                if copies == 0:
                    received[q][p] = None
                extras += [payload] * (copies - 1)
                if delayed:
                    self._wait((rec.delay_wait if rec is not None
                                else RecoveryConfig.delay_wait)
                               * plan.delay_steps)
            received[q].extend(extras)
        rt.time += self.consume_stall()


def attach_fault_injector(rt, plan: FaultPlan,
                          recovery: RecoveryConfig | None = RecoveryConfig()
                          ) -> FaultInjector:
    """Install a seeded :class:`FaultInjector` as ``rt.faults``.

    ``recovery=None`` injects the raw faults with no protocol on top --
    the seeded-bug mode the chaos tests use to prove the faults have
    teeth.  Composes with ``attach_dm_race_detector`` in either order.
    """
    if not hasattr(rt, "superstep"):
        raise TypeError(
            "attach_fault_injector targets DMRuntime; use "
            "attach_sm_fault_injector for the SM runtime")
    injector = FaultInjector(rt, plan, recovery)
    rt.faults = injector
    return injector
