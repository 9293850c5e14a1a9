"""Runtime-agnostic core of the fault-injection layer.

Both injectors -- the DM one (:mod:`repro.runtime.faults`, PR 3) and
the SM one (:mod:`repro.runtime.sm_faults`) -- share one contract:

* every random draw comes from **one** seeded ``numpy`` generator,
  consumed in a fixed order by the sequential simulation, so the whole
  fault schedule is a pure function of (kernel, graph, plan, recovery);
* a zero probability consumes **no** draws, keeping plans comparable
  across seeds fault class by fault class;
* every injected fault and recovery action is appended to
  ``injector.schedule`` (and mirrored to ``rt.tracer`` when one is
  attached) for bit-exact comparison across runs;
* recovery waits are charged to the **barrier** after the step's
  BSP max-span (:meth:`BaseFaultInjector._wait`), so fault overhead is
  strictly visible in ``rt.time`` and can never hide under another
  lane's longer span.

This module holds that shared machinery -- the seeded draw helpers,
the combined :class:`FaultStats` tally, the stall/backoff accounting,
the plan validation/labeling helpers and the crash/straggler step
protocol -- so the two runtime-specific injectors only implement what
their machines actually perturb.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np


def _probability_fields(plan) -> list[str]:
    """The plan's probability field names (everything except the seed
    and the class's declared ``_NON_PROB`` magnitude fields)."""
    skip = set(getattr(plan, "_NON_PROB", ())) | {"seed"}
    return [f.name for f in fields(plan) if f.name not in skip]


def validate_plan(plan) -> None:
    """Shared ``__post_init__`` validation for fault plans.

    Every probability field must lie in [0, 1] (a silent ``drop=1.5``
    used to mean "always", ``drop=-0.1`` meant "never" -- both are now
    errors), and a plan with every probability at zero draws a warning:
    it is a valid no-op, but a chaos cell built on it tests nothing.
    """
    for name in _probability_fields(plan):
        v = getattr(plan, name)
        if not 0.0 <= float(v) <= 1.0:
            raise ValueError(
                f"{type(plan).__name__}.{name} is a probability and must "
                f"lie in [0, 1]; got {v!r}")
    if all(not getattr(plan, name) for name in _probability_fields(plan)):
        warnings.warn(
            f"{type(plan).__name__}(seed={plan.seed}) has every fault "
            "probability at zero -- a no-op chaos plan",
            stacklevel=4)


def validate_recovery(recovery) -> None:
    """Shared ``__post_init__`` validation for recovery configs."""
    for name in ("backoff_base", "delay_wait", "crash_timeout",
                 "restart_penalty", "store_flush_wait"):
        v = getattr(recovery, name, None)
        if v is not None and v <= 0.0:
            raise ValueError(
                f"{type(recovery).__name__}.{name} must be positive "
                f"(it prices a recovery wait); got {v!r}")
    if recovery.retry_limit < 1:
        raise ValueError(
            f"{type(recovery).__name__}.retry_limit must be >= 1; "
            f"got {recovery.retry_limit!r}")


def plan_label(plan) -> str:
    """Compact ``seed=N field=p ...`` label (nonzero probabilities only).

    Shared by every plan class so the field filtering -- skip the seed
    and the ``_NON_PROB`` magnitude knobs, show what can fire -- exists
    exactly once.
    """
    parts = [f"seed={plan.seed}"]
    for name in _probability_fields(plan):
        v = getattr(plan, name)
        if v:
            parts.append(f"{name}={v:g}")
    return " ".join(parts) if len(parts) > 1 else f"seed={plan.seed} (none)"


@dataclass
class FaultStats:
    """Tally of injected faults and recovery actions (one run).

    One combined namespace for both runtimes: DM runs leave the SM
    fields at zero and vice versa, so ``to_dict()`` is directly
    comparable across engines and runtimes (the batched-vs-interpreted
    differential suite relies on this).
    """

    # -- distributed-memory faults (messages, staged RMA, processes) --
    dropped: int = 0            #: messages lost forever (no retry protocol)
    retries: int = 0            #: message retransmissions
    duplicates: int = 0         #: duplicated deliveries injected
    dup_suppressed: int = 0     #: duplicates discarded by seq dedup
    delayed: int = 0            #: messages hit by a delay fault
    delivered_late: int = 0     #: held messages released at a later boundary
    reordered: int = 0          #: destination batches permuted
    rma_lost: int = 0           #: staged ops lost by their flush
    rma_replayed: int = 0       #: staged-op replay attempts at boundaries
    rma_duplicates: int = 0     #: staged ops applied twice
    rma_dup_suppressed: int = 0  #: double-applies discarded by seq dedup
    # -- shared-memory faults (threads, CAS claims, store buffers) --
    cas_lost: int = 0           #: CAS claim outcomes lost by the hardware
    cas_retries: int = 0        #: re-issued CAS attempts (retry protocol)
    cas_duplicates: int = 0     #: CAS claims applied twice
    cas_dup_suppressed: int = 0  #: double-applies discarded by claim dedup
    lock_preempts: int = 0      #: lock-holder preemptions (waiter pays)
    store_delays: int = 0       #: plain stores parked in the store buffer
    store_flushes: int = 0      #: barrier fences draining delayed stores
    stale_reads: int = 0        #: cross-thread reads of parked store targets
    # -- shared between the runtimes --
    retry_exhausted: int = 0    #: deliveries forced after retry_limit rounds
    stragglers: int = 0         #: (lane, step) slowdowns
    crashes: int = 0            #: lane crash events
    restarts: int = 0           #: crashes recovered by rollback + rerun
    backoff_time: float = 0.0   #: total recovery wait charged to barriers

    def fired(self) -> int:
        """Fault events that occurred (recovery bookkeeping excluded)."""
        return (self.dropped + self.retries + self.duplicates + self.delayed
                + self.reordered + self.rma_lost + self.rma_duplicates
                + self.cas_lost + self.cas_duplicates + self.lock_preempts
                + self.store_delays + self.stragglers + self.crashes)

    def costly(self) -> int:
        """Events whose recovery wait must show up in simulated time.

        These all charge the barrier-level stall, so a run with
        ``costly() > 0`` is strictly slower than its fault-free twin.
        Stragglers and lock preemptions are excluded: they stretch one
        lane's *span*, which the BSP max legitimately hides when that
        lane is off the critical path.  CAS duplicates are excluded for
        the same reason (the double-apply inflates the issuing thread's
        span, not the barrier).
        """
        return (self.retries + self.delayed + self.rma_replayed
                + self.cas_retries + self.store_flushes + self.restarts)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class BaseFaultInjector:
    """Seeded draw machinery and the step protocol of both injectors.

    A runtime drives each step (DM superstep, SM region) through
    :meth:`begin_step`, a ``checkpoint(lane)`` of each doomed lane
    before its body and :meth:`crash` after it.  Subclasses provide
    ``checkpoint`` and ``_restore(lane, snapshot)`` (what one lane's
    body can touch), :meth:`_step_index` (the index events are stamped
    with), and may extend :meth:`reset` via :meth:`_on_reset`.
    """

    def __init__(self, rt, plan, recovery) -> None:
        self.rt = rt
        self.plan = plan
        self.recovery = recovery
        self.reset()

    def reset(self) -> None:
        """Re-seed; called by the runtime's ``reset`` so reruns are exact."""
        self.rng = np.random.default_rng(self.plan.seed)
        self.stats = FaultStats()
        #: (step, kind, *detail) -- the deterministic event schedule
        self.schedule: list[tuple] = []
        self._stall = 0.0      # barrier-level recovery wait (this step)
        #: per-lane straggler slowdown of the current step
        self._factors: list[float] = [1.0] * self.rt.P
        self._on_reset()

    def _on_reset(self) -> None:
        """Subclass hook: clear runtime-specific per-run state."""

    def _step_index(self) -> int:
        """The step (superstep / region) index events are stamped with."""
        raise NotImplementedError

    # -- the step protocol ----------------------------------------------------------
    def begin_step(self, lanes, allow_crash: bool = True) -> set[int]:
        """Draw the step's crashes, then its stragglers, lane by lane;
        returns the lanes doomed to crash."""
        plan = self.plan
        self._factors = [1.0] * self.rt.P
        crashes: set[int] = set()
        if plan.crash > 0 and allow_crash:
            crashes = {t for t in lanes if self._hit(plan.crash)}
        if plan.straggler > 0:
            for t in lanes:
                if self._hit(plan.straggler):
                    self._factors[t] = plan.straggler_factor
                    self.stats.stragglers += 1
                    self._event("straggler", t)
        return crashes

    def crash(self, lane: int, snapshot, rerun: Callable[[], None]) -> None:
        """Roll ``lane``'s failed attempt back to its checkpoint; under
        checkpoint/restart, charge detection and restart to the barrier
        and ``rerun`` the body.  The failed attempt's counters stay: the
        work was done and lost, and the double execution is exactly the
        rollback overhead that must stay visible in time."""
        self._restore(lane, snapshot)
        self.stats.crashes += 1
        self._event("crash", lane)
        rec = self.recovery
        if rec is None or not rec.checkpoint_restart:
            return                       # work lost; nobody notices in time
        self._wait(rec.crash_timeout + rec.restart_penalty)
        self.stats.restarts += 1
        self._event("restart", lane)
        rerun()

    # -- draw helpers ---------------------------------------------------------------
    def _hit(self, p: float) -> bool:
        return p > 0.0 and float(self.rng.random()) < p

    def _event(self, kind: str, *detail) -> None:
        step = self._step_index()
        self.schedule.append((step, kind, *detail))
        tracer = getattr(self.rt, "tracer", None)
        if tracer is not None:
            tracer.on_fault(kind, detail, step)

    @property
    def dedup(self) -> bool:
        return self.recovery is not None and self.recovery.dedup

    def _backoff(self, attempts: int) -> float:
        """Exponential retry backoff (doubles per round, capped)."""
        return self.recovery.backoff_base * (2 ** min(attempts - 1, 20))

    # -- stall accounting -----------------------------------------------------------
    def _wait(self, cost: float) -> None:
        """Charge a recovery wait to the current step's barrier.

        Timeout detection, retransmission backoff, and redelivery all
        gate barrier exit, so the wait extends the *global* span -- it
        can never hide under another lane's longer local span.
        """
        self._stall += cost
        self.stats.backoff_time += cost

    def consume_stall(self) -> float:
        """Hand this step's barrier stall to the runtime (and reset)."""
        s = self._stall
        self._stall = 0.0
        return s
