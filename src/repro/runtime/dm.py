"""The simulated distributed-memory machine (Section 6.3).

P processes, each owning a 1D block of vertices, communicate through
one of two backends:

* **Message Passing (MP)** -- explicit point-to-point messages with
  implicit synchronization, plus the ``alltoallv`` collective the
  paper's MP PageRank uses.  Messages are buffered in mailboxes and
  delivered at the next superstep boundary; an optional ``tag``
  (mirroring MPI tags) lets a receiver consume one message class while
  other in-flight classes remain pending -- the epoch checker uses the
  tag match to tell a synchronized read from a read racing the current
  superstep's sends.
* **Remote Memory Access (RMA)** -- puts/gets/accumulates on remote
  windows with explicit flushes, mirroring MPI-3 one-sided / foMPI.
  ``accumulate`` distinguishes float and integer operands: the paper
  found that float ``MPI_Accumulate`` uses a costly locking protocol
  while 64-bit-integer fetch-and-op has a hardware fast path, and that
  difference is what flips the PR-vs-TC backend ranking (Section 6.5).
  RMA calls optionally name the ``window`` (a registered array handle)
  and the targeted item indices; the base runtime ignores both, the
  epoch checker of :mod:`repro.analysis.dm_race` needs them for its
  region analysis.

An ``observer`` (set by ``attach_dm_race_detector``) receives every
communication event; with no observer attached the hooks are single
``is None`` checks, and all cost accounting is identical either way.
A second optional hook, ``rt.faults`` (set by
:func:`repro.runtime.faults.attach_fault_injector`), perturbs
communication at superstep boundaries; without it every channel is the
lossless synchronous network of the paper.

To give faults something real to corrupt, the runtime carries a
**window registry** (:meth:`DMRuntime.register_window`) and two
data-carrying RMA verbs, :meth:`DMRuntime.put` and
:meth:`DMRuntime.accumulate`: remote operations are *staged* -- cost
and observer event charged at issue, data applied to the registered
array at ``rma_flush`` in issue order -- so a lost flush genuinely
loses the update and a duplicated accumulate genuinely double-counts
unless recovery dedups it.  With no faults attached the staged apply at
the kernel's own flush is bit-identical to an immediate apply.  The
registry doubles as the checkpoint set for crash rollback.

Simulated time per superstep is the max over processes of the event
cost accumulated in that superstep (BSP accounting), plus any recovery
waits (retry backoff, delayed-message stalls, restart penalties) and
straggler multipliers the fault layer charges; the α-β weights live in
:class:`repro.machine.cost_model.MachineSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.graph.partition import Partition1D
from repro.machine.cost_model import MachineSpec, XC40
from repro.machine.counters import PerfCounters
from repro.machine.memory import CountingMemory, MemoryModel, handle_name


@dataclass
class _StagedOp:
    """A data-carrying put/accumulate awaiting completion at a flush."""

    seq: int
    rank: int
    owner: int
    window: Any               #: as passed (handle or name) -- for observers
    wkey: str                 #: registry key
    idx: np.ndarray
    vals: np.ndarray
    kind: str                 #: 'acc' | 'put'
    dtype: str | None
    op_count: int
    nbytes: int
    applied: bool = False


class DMRuntime:
    """P simulated processes with MP and RMA communication primitives."""

    def __init__(self, n_vertices: int, P: int, machine: MachineSpec = XC40,
                 memory: MemoryModel | None = None) -> None:
        self.P = P
        self.machine = machine
        self.part = Partition1D(n_vertices, P)
        self.mem = memory or CountingMemory(machine.hierarchy)
        self.proc_counters = [PerfCounters() for _ in range(P)]
        self.time = 0.0
        self.superstep_index = 0
        #: epoch-checker hook (see repro.analysis.dm_race); None = no-op
        self.observer = None
        #: fault-injection hook (see repro.runtime.faults); None = lossless
        self.faults = None
        #: observability hook (repro.observability.attach_tracer)
        self.tracer = None
        self._label = ""
        self._rank: int | None = None
        # mailboxes[dest] = list of (source, payload, tag, nbytes, seq)
        # delivered next superstep (tag stays at index 2 -- the epoch
        # checker's inbox matching relies on it)
        self._in_flight: list[list[tuple]] = [[] for _ in range(P)]
        self._mailboxes: list[list[tuple]] = [[] for _ in range(P)]
        #: window registry: data-carrying RMA targets + crash checkpoints
        self._windows: dict[str, np.ndarray] = {}
        self._staged: list[_StagedOp] = []
        self._applied_seqs: set[int] = set()
        self._next_seq = 0
        self.mem.set_counters(self.proc_counters[0])

    # -- process bookkeeping ------------------------------------------------------
    def owner(self, v):
        return self.part.owner(v)

    def owned(self, p: int) -> np.ndarray:
        return self.part.owned(p)

    def total_counters(self) -> PerfCounters:
        return PerfCounters.total(self.proc_counters)

    def annotate(self, label: str) -> None:
        """Label subsequent supersteps in the trace (sticky)."""
        self._label = label

    def reset(self) -> None:
        """Clear counters, miss residues, time, and mailboxes between runs.

        Rebinds memory accounting to process 0 -- without this, events
        issued between runs land on whichever process happened to
        execute last (the counter-rebinding bug class
        ``SMRuntime.reset`` fixed on the shared-memory side).
        """
        for c in self.proc_counters:
            c.reset()
        self.mem.clear_residues(self.proc_counters)
        self.time = 0.0
        self.superstep_index = 0
        self._rank = None
        self._in_flight = [[] for _ in range(self.P)]
        self._mailboxes = [[] for _ in range(self.P)]
        self._windows = {}
        self._staged = []
        self._applied_seqs = set()
        self._next_seq = 0
        if self.faults is not None:
            self.faults.reset()
        if self.tracer is not None:
            self.tracer.on_reset()
        self.mem.set_counters(self.proc_counters[0])

    def _activate(self, p: int) -> None:
        self._rank = p
        self.mem.set_counters(self.proc_counters[p])
        # route trace-driven cache simulation into rank p's private
        # caches (a no-op for the counting models)
        self.mem.set_thread(p)
        if self.observer is not None:
            self.observer.on_activate(p)

    @property
    def rank(self) -> int:
        if self._rank is None:
            raise RuntimeError("not inside a superstep")
        return self._rank

    # -- superstep execution --------------------------------------------------------
    def superstep(self, body: Callable[[int], None]) -> None:
        """Run ``body(p)`` for every process; deliver messages afterwards.

        Time advances by the slowest process in the superstep plus a
        barrier (the implicit synchronization of the MP model / the
        window synchronization of RMA).  Per-process spans are measured
        over the whole superstep -- including costs charged to a process
        by another's body (the TC-MP reply emulation) and any recovery
        work the fault layer performs at the boundary -- then stretched
        by straggler factors before the max is taken; recovery waits
        (retry backoff, redelivery, restart timeouts) stall the barrier
        itself, after the max, so they are never hidden by skew.

        With a fault injector attached, processes drawn to crash run
        against a pre-body snapshot of every registered window: the
        failed attempt's effects (window state, outgoing messages,
        staged ops, consumed mailbox) are rolled back, the observer is
        told to forget the attempt (``on_rollback``), and -- under
        checkpoint/restart recovery -- the body reruns after a detection
        timeout.  The failed attempt's counters stay: that work was done
        and lost, and it is exactly the overhead BSP time must show.
        """
        befores = [self.machine.time(c) for c in self.proc_counters]
        tracer = self.tracer
        if tracer is not None:
            # before the fault draw, so straggler/crash events already
            # have this superstep's time base
            tracer.on_superstep_begin(self.superstep_index, befores)
        if self.observer is not None:
            self.observer.on_superstep_begin(self.superstep_index)
        faults = self.faults
        crashes = faults.begin_step(range(self.P)) if faults is not None else ()
        for p in range(self.P):
            snapshot = faults.checkpoint(p) if p in crashes else None
            self._activate(p)
            body(p)
            if snapshot is not None:
                faults.crash(p, snapshot, lambda: body(p))
        self._rank = None
        if faults is not None:
            faults.boundary()
        spans = []
        for p in range(self.P):
            s = self.machine.time(self.proc_counters[p]) - befores[p]
            if faults is not None:
                s = s * faults.straggler_factor(p)
            spans.append(s)
        span = max(spans) if spans else 0.0
        stall = faults.consume_stall() if faults is not None else 0.0
        if tracer is not None:
            # before the barrier increments, so superstep counter deltas
            # and the barrier event partition the totals exactly
            tracer.on_superstep_end(self.superstep_index, spans, stall)
        self.time += span + stall + self.machine.w_barrier
        for c in self.proc_counters:
            c.barriers += 1
        # deliver in-flight messages
        self._mailboxes = self._in_flight
        self._in_flight = [[] for _ in range(self.P)]
        self._applied_seqs.clear()
        self.superstep_index += 1
        if self.observer is not None:
            self.observer.on_superstep_end()

    # -- Message Passing -----------------------------------------------------------
    def send(self, dest: int, payload: Any, nbytes: int | None = None,
             tag: Any = None) -> None:
        """Post a sequence-numbered point-to-point message.

        Delivered at the next superstep boundary -- where the fault
        layer, if attached, draws its fate (drop/duplicate/delay and
        the recovery retries).
        """
        nb = self._payload_bytes(payload) if nbytes is None else int(nbytes)
        c = self.proc_counters[self.rank]
        c.messages += 1
        c.msg_bytes += nb
        if self.observer is not None:
            self.observer.on_send(self.rank, dest, tag)
        if self.tracer is not None:
            self.tracer.on_send(self.rank, dest, tag, nb)
        self._in_flight[dest].append((self.rank, payload, tag, nb,
                                      self._next_seq))
        self._next_seq += 1

    def inbox(self, tag: Any = None) -> list[tuple[int, Any]]:
        """Messages delivered to this process at the last boundary.

        With ``tag`` given, only matching messages are consumed;
        non-matching ones stay in the mailbox (MPI tag matching).
        """
        if self.observer is not None:
            self.observer.on_inbox(self.rank, tag)
        box = self._mailboxes[self.rank]
        if tag is None:
            msgs, keep = box, []
        else:
            msgs = [m for m in box if m[2] == tag]
            keep = [m for m in box if m[2] != tag]
        self._mailboxes[self.rank] = keep
        if self.tracer is not None:
            self.tracer.on_inbox(self.rank, tag, len(msgs))
        return [(m[0], m[1]) for m in msgs]

    def alltoallv(self, contributions: list[list[Any]]) -> list[list[Any]]:
        """The MPI_Alltoallv collective.

        ``contributions[p][q]`` is the payload process p sends to q.
        Every process pays ``ceil(log2 P)`` collective steps plus the
        bytes it sends and receives (the paper's Section 6.3.1 notes
        this variant both pushes and pulls, erasing the distinction).
        Returns ``received[q][p]`` = payload from p to q.
        """
        if len(contributions) != self.P:
            raise ValueError("need one contribution vector per process")
        steps = max(1, int(np.ceil(np.log2(max(self.P, 2)))))
        received: list[list[Any]] = [[None] * self.P for _ in range(self.P)]
        for p in range(self.P):
            row = contributions[p]
            if len(row) != self.P:
                raise ValueError("each contribution vector must have P entries")
            sent_bytes = sum(self._payload_bytes(x) for x in row)
            c = self.proc_counters[p]
            c.collectives += steps
            c.collective_bytes += sent_bytes
            for q in range(self.P):
                received[q][p] = row[q]
        for q in range(self.P):
            c = self.proc_counters[q]
            c.collective_bytes += sum(self._payload_bytes(x) for x in received[q])
        if self.faults is not None:
            self.faults.perturb_alltoallv(received)
        return received

    # -- Remote Memory Access ----------------------------------------------------------
    def rma_get(self, owner: int, nitems: int, itemsize: int = 8,
                ops: int = 1, window=None, idx=None) -> None:
        """Fetch ``nitems`` items from a remote window in ``ops`` gets."""
        if self.observer is not None:
            self.observer.on_rma("get", self.rank, owner, window, idx, None)
        self._remote_op(owner, "remote_gets", nitems * itemsize, op_count=ops)
        if self.tracer is not None:
            self.tracer.on_rma("get", self.rank, owner, window, nitems, None,
                               nbytes=nitems * itemsize, ops=ops)

    def rma_put(self, owner: int, nitems: int, itemsize: int = 8,
                ops: int = 1, window=None, idx=None) -> None:
        if self.observer is not None:
            self.observer.on_rma("put", self.rank, owner, window, idx, None)
        self._remote_op(owner, "remote_puts", nitems * itemsize, op_count=ops,
                        local_kind="write")
        if self.tracer is not None:
            self.tracer.on_rma("put", self.rank, owner, window, nitems, None,
                               nbytes=nitems * itemsize, ops=ops)

    def rma_accumulate(self, owner: int, nitems: int, dtype: str = "float",
                       itemsize: int = 8, window=None, idx=None) -> None:
        """Remote accumulate; ``dtype`` chooses the protocol (Section 6.3).

        With ``owner == rank`` this is a *local* atomic update on the
        process's own window: an integer accumulate is a processor
        fetch-and-add, a float accumulate a CAS loop (no float atomics
        on CPUs) -- the same convention the SM kernels use.
        """
        if self.observer is not None:
            self.observer.on_rma("acc", self.rank, owner, window, idx, dtype)
        attr = "remote_acc_float" if dtype == "float" else "remote_acc_int"
        self._remote_op(owner, attr, nitems * itemsize, op_count=nitems,
                        local_kind="faa" if dtype != "float" else "cas")
        if self.tracer is not None:
            self.tracer.on_rma("acc", self.rank, owner, window, nitems, dtype,
                               nbytes=nitems * itemsize, ops=nitems)

    def rma_flush(self, owner: int | None = None) -> None:
        """Complete this process's outstanding staged puts/accumulates."""
        self.proc_counters[self.rank].flushes += 1
        if self.observer is not None:
            self.observer.on_flush(self.rank, owner)
        if self.tracer is not None:
            self.tracer.on_flush(self.rank, owner)
        self._complete_staged(self.rank, owner)

    # -- data-carrying RMA (window registry + staged completion) -----------------------
    def register_window(self, window, array: np.ndarray) -> None:
        """Expose ``array`` as the storage behind a window handle (or name).

        Required before :meth:`put`/:meth:`accumulate` can target the
        window; also the checkpoint set crash rollback restores.
        Re-registering a name overwrites the binding (kernels register
        their windows at entry, every run).
        """
        self._windows[handle_name(window)] = array

    def put(self, owner: int, vals, *, window, idx, itemsize: int = 8,
            ops: int | None = None) -> None:
        """A :meth:`rma_put` that moves data through the window registry.

        Charged by ``rma_put`` itself, as ``n = len(idx)`` items (or
        ``ops``) in ``n`` ops, so counters and the observer and tracer
        events are the verb's own; a local put stores immediately, a
        remote one is staged until ``rma_flush``.
        """
        vals = np.asarray(vals)
        idx = np.asarray(idx, dtype=np.int64).ravel()
        op_count = len(idx) if ops is None else int(ops)
        self.rma_put(owner, op_count, itemsize, ops=op_count, window=window,
                     idx=idx)
        self._stage_or_apply("put", owner, window, idx, vals, None,
                             op_count, op_count * itemsize)

    def accumulate(self, owner: int, vals, *, window, idx,
                   dtype: str = "float", itemsize: int = 8,
                   ops: int | None = None) -> None:
        """An :meth:`rma_accumulate` that moves data (``+=`` at the target).

        Charged by ``rma_accumulate(owner, n, dtype, ...)`` itself for
        ``n = len(idx)`` (or ``ops``, for kernels that account several
        logical updates in one batched entry, like TC's per-witness
        counts), so counters and the observer and tracer events are the
        verb's own.  Local accumulates apply immediately (they are
        processor atomics); remote ones are staged until ``rma_flush``,
        in issue order, so fault-free float results are bit-identical to
        immediate application.
        """
        vals = np.asarray(vals)
        idx = np.asarray(idx, dtype=np.int64).ravel()
        op_count = len(idx) if ops is None else int(ops)
        self.rma_accumulate(owner, op_count, dtype, itemsize, window=window,
                            idx=idx)
        self._stage_or_apply("acc", owner, window, idx, vals, dtype,
                             op_count, op_count * itemsize)

    def _stage_or_apply(self, kind: str, owner: int, window, idx, vals,
                        dtype, op_count: int, nbytes: int) -> None:
        op = _StagedOp(seq=self._next_seq, rank=self.rank, owner=owner,
                       window=window, wkey=handle_name(window),
                       idx=idx, vals=vals, kind=kind, dtype=dtype,
                       op_count=op_count, nbytes=nbytes)
        self._next_seq += 1
        if owner == self.rank:
            # local window update: no network to fault, applies now
            self._apply_staged(op)
            return
        self._staged.append(op)

    def _complete_staged(self, rank: int, owner: int | None = None) -> None:
        for op in self._staged:
            if op.applied or op.rank != rank:
                continue
            if owner is not None and op.owner != owner:
                continue
            if self.faults is not None:
                self.faults.flush_op(op)
            else:
                self._apply_staged(op)
        if self.faults is None:
            self._staged = [op for op in self._staged if not op.applied]

    def _apply_staged(self, op: _StagedOp) -> bool:
        """Apply a staged op; ``False`` = suppressed by sequence dedup."""
        arr = self._window_array(op.window)
        faults = self.faults
        if (faults is not None and faults.dedup
                and op.seq in self._applied_seqs):
            return False
        self._applied_seqs.add(op.seq)
        if op.kind == "acc":
            np.add.at(arr, op.idx, op.vals)
        else:
            arr[op.idx] = op.vals
        op.applied = True
        return True

    def _window_array(self, window) -> np.ndarray:
        key = handle_name(window)
        try:
            return self._windows[key]
        except KeyError:
            raise KeyError(
                f"window {key!r} is not registered; call "
                "rt.register_window(handle, array) before data-carrying "
                "put/accumulate") from None

    def _remote_op(self, owner: int, attr: str, nbytes: int,
                   op_count: int = 1, local_kind: str = "read") -> None:
        c = self.proc_counters[self.rank]
        if owner == self.rank:
            # local window access: plain memory traffic / processor
            # atomics, no network
            n = max(1, nbytes // 8)
            if local_kind == "write":
                c.writes += n
            elif local_kind in ("faa", "cas"):
                c.atomics += n
                setattr(c, local_kind, getattr(c, local_kind) + n)
            else:
                c.reads += n
            return
        setattr(c, attr, getattr(c, attr) + op_count)
        c.remote_bytes += nbytes

    # -- helpers ------------------------------------------------------------------------
    @staticmethod
    def _payload_bytes(payload: Any) -> int:
        if payload is None:
            return 0
        if isinstance(payload, np.ndarray):
            return int(payload.nbytes)
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        if isinstance(payload, (list, tuple)):
            return 8 * len(payload)
        return 8
