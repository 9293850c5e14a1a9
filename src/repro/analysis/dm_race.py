"""Epoch-based access checker for the distributed-memory runtime.

The SM detector (:mod:`repro.analysis.race`) polices the Section-3.8
ownership/atomicity contract at thread barriers.  The DM runtime has a
different discipline -- the epoch rules of MPI-3 one-sided communication
(foMPI on the paper's Crays) plus superstep-delimited message delivery
-- and this module polices that:

``unflushed-read``
    Window state (the target of remote puts/accumulates) read -- by its
    owner through the memory model, or by anyone through ``rma_get`` --
    while an overlapping put/accumulate is pending and **not yet
    flushed**.  One-sided operations are unordered and incomplete until
    ``rma_flush``; reading the target before the flush observes an
    arbitrary interleaving.  Flagged when the pending op either crossed
    a superstep boundary unflushed (the dropped-flush bug) or precedes
    the read in the *same* process's program order.
``write-vs-acc``
    A plain local write to a window region that remote processes target
    with puts/accumulates in the same epoch -- the DM analogue of the
    SM detector's plain-vs-atomic ``mixed`` race.  The owner must route
    its own updates through (local) accumulates, exactly as PageRank-PA
    routes local updates through its own phase on shared memory.
``early-inbox``
    ``inbox()`` called while messages that its tag selector would match
    are still in flight (posted this superstep, deliverable only at the
    next boundary).  Message tags (see :meth:`DMRuntime.send`)
    disambiguate generations: a reply superstep may read this epoch's
    *requests* while its own replies are in flight, as long as the two
    classes carry different tags.
``acc-dtype``
    Float and integer ``rma_accumulate`` aimed at the same window
    region in one epoch.  The paper's Section 6.5 point: float
    accumulates take a lock-based protocol while 64-bit integer
    fetch-and-ops take the hardware fast path -- mixing them on one
    region means the lock protocol no longer excludes the concurrent
    fast-path op, and MPI leaves the outcome undefined.

Attribution relies on the optional ``window=``/``idx=`` annotations of
the RMA verbs and on the registered array handles of local accesses.
Local reads/writes count as *window state* only at indices the
accessing process owns -- writes into not-owned index ranges are, by
construction of the 1D partition, private send/staging buffers (the MP
PageRank contribution vectors), not shared state.  Position-blind
accesses to a vertex-sized window are conservatively treated as the
whole owned block; RMA ops with no ``window=`` cannot be attributed and
are tallied in ``unattributed_ops``.

Processes execute *sequentially* inside a simulated superstep, so
wall-clock order within an epoch is an artifact.  Cross-process rules
(write-vs-acc, acc-dtype) are therefore evaluated at epoch close over
the epoch's whole access log, regardless of intra-epoch order; only the
program order *within* one process (op issued, then read, no flush
between) is taken literally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.race import (
    MAX_RACES, EpochStats, Race, RaceError, RaceReport,
)
from repro.machine.memory import MemoryProxy, as_index_array


@dataclass
class _RmaOp:
    """One put/accumulate and its flush state."""

    kind: str                 #: 'put' | 'acc'
    rank: int                 #: issuing process
    owner: int                #: target process
    window: str | None        #: registered array name, if annotated
    idx: np.ndarray | None    #: global item indices, if annotated
    dtype: str | None         #: 'float' | 'int' for accumulates
    epoch: int
    seq: int
    flushed: bool = field(default=False, compare=False)


class DMRaceDetector(MemoryProxy):
    """Records every DM communication event and checks the epoch rules.

    One object plays two roles: it proxies ``rt.mem`` (so local reads
    and writes of window state are attributed to the active process)
    and it is installed as ``rt.observer`` (so sends, inbox reads, RMA
    verbs, and flushes are seen with their annotations).  All cost
    accounting is delegated to the wrapped memory model untouched;
    simulated times and counters are identical with the detector on.
    """

    def __init__(self, rt, raise_on_race: bool = False) -> None:
        super().__init__(rt.mem)
        self.rt = rt
        self.part = rt.part
        self.raise_on_race = raise_on_race
        self.races: list[Race] = []
        self.per_epoch: list[EpochStats] = []
        self.unattributed_ops = 0  #: RMA puts/accs/gets with no window=
        self.epoch = 0
        self._closed_epochs = 0
        self._active: int | None = None
        self._seq = 0
        self._pending: list[_RmaOp] = []      # unflushed or awaiting GC
        self._epoch_ops: list[_RmaOp] = []    # every put/acc this epoch
        # window -> rank -> list of owned index arrays plain-written
        self._epoch_writes: dict[str, dict[int, list]] = {}
        self._emitted: set[tuple] = set()
        self._totals = RaceReport()
        self._stats = EpochStats(epoch=0)

    # -- observed memory verbs -------------------------------------------------------
    def read(self, handle, idx=None, count=None, mode="seq", start=None) -> None:
        self._note_read(handle, idx, count, start)
        self.inner.read(handle, idx=idx, count=count, mode=mode, start=start)

    def write(self, handle, idx=None, count=None, mode="seq", start=None) -> None:
        self._note_write(handle, idx, count, start)
        self.inner.write(handle, idx=idx, count=count, mode=mode, start=start)

    # -- observer hooks (DMRuntime) ------------------------------------------------
    def on_activate(self, p: int) -> None:
        self._active = p

    def on_superstep_begin(self, index: int) -> None:
        self.epoch = index

    def on_superstep_end(self) -> None:
        self._active = None
        self._close_epoch()

    def on_send(self, rank: int, dest: int, tag) -> None:
        self._seq += 1

    def on_inbox(self, rank: int, tag) -> None:
        self._seq += 1
        in_flight = self.rt._in_flight[rank]
        matching = [m for m in in_flight if tag is None or m[2] == tag]
        if matching:
            self._emit("early-inbox", f"mailbox[{rank}]",
                       (int(matching[0][0]), rank),
                       np.asarray(sorted({int(m[0]) for m in matching}),
                                  dtype=np.int64))

    def on_rma(self, kind: str, rank: int, owner: int, window, idx,
               dtype) -> None:
        self._seq += 1
        name = self._window_name(window)
        gidx = as_index_array(idx) if idx is not None else None
        if kind == "get":
            if name is None:
                self.unattributed_ops += 1
                return
            self._check_read(name, rank, owner, gidx)
            return
        op = _RmaOp(kind=kind, rank=rank, owner=owner, window=name, idx=gidx,
                    dtype=dtype, epoch=self.epoch, seq=self._seq)
        self._epoch_ops.append(op)
        if owner == rank:
            # a local put is a plain write by the owner; a local
            # accumulate is a processor atomic -- compatible with remote
            # accumulates, but still subject to the dtype rule
            if kind == "put" and name is not None:
                self._log_write(name, rank, self._op_indices(op))
            return
        if name is None:
            self.unattributed_ops += 1
        self._pending.append(op)

    def on_flush(self, rank: int, owner: int | None) -> None:
        self._seq += 1
        for op in self._pending:
            if op.rank == rank and (owner is None or op.owner == owner):
                op.flushed = True

    def on_rollback(self, rank: int) -> None:
        """Forget the current epoch's records of a crashed process.

        The fault layer rolled back every effect of ``rank``'s failed
        superstep attempt -- window state, staged ops, outgoing
        messages -- before rerunning it, so the epoch log must drop the
        attempt too: otherwise the failed attempt's unflushed ops would
        dangle as false ``unflushed-read`` pendings and its writes and
        accumulates would double-count in the epoch-close rules.
        Records from *earlier* epochs (genuinely unflushed ops) are
        kept; a crash does not undo history.
        """
        self._pending = [op for op in self._pending
                         if not (op.rank == rank and op.epoch == self.epoch)]
        self._epoch_ops = [op for op in self._epoch_ops if op.rank != rank]
        for per_rank in self._epoch_writes.values():
            per_rank.pop(rank, None)

    # -- local access attribution ---------------------------------------------------
    def _window_name(self, window) -> str | None:
        if window is None:
            return None
        name = getattr(window, "name", window)
        return name if isinstance(name, str) else None

    def _is_window(self, handle) -> bool:
        return getattr(handle, "size", -1) == self.part.n

    def _global_indices(self, rank: int, idx, count, start) -> np.ndarray:
        if idx is not None:
            return as_index_array(idx)
        if start is not None and count:
            return np.arange(int(start), int(start) + int(count),
                             dtype=np.int64)
        # position-blind: conservatively the whole owned block
        return self.part.owned(rank)

    def _owned_only(self, rank: int, arr: np.ndarray) -> np.ndarray:
        if len(arr) == 0:
            return arr
        return arr[np.asarray(self.part.is_local(rank, arr))]

    def _note_read(self, handle, idx, count, start) -> None:
        if self._active is None or not self._is_window(handle):
            return
        rank = self._active
        arr = self._owned_only(rank, self._global_indices(rank, idx, count,
                                                          start))
        if len(arr):
            self._check_read(handle.name, rank, rank, arr)

    def _note_write(self, handle, idx, count, start) -> None:
        if self._active is None or not self._is_window(handle):
            return
        rank = self._active
        arr = self._owned_only(rank, self._global_indices(rank, idx, count,
                                                          start))
        if len(arr):
            self._log_write(handle.name, rank, arr)

    def _log_write(self, name: str, rank: int, arr: np.ndarray) -> None:
        self._epoch_writes.setdefault(name, {}).setdefault(rank, []).append(arr)

    def _op_indices(self, op: _RmaOp) -> np.ndarray:
        return op.idx if op.idx is not None else self.part.owned(op.owner)

    # -- rule (a): reads against pending unflushed ops ------------------------------
    def _check_read(self, window: str, reader: int, owner: int,
                    idx: np.ndarray | None) -> None:
        ridx = idx if idx is not None else self.part.owned(owner)
        for op in self._pending:
            if op.flushed or op.window != window or op.owner != owner:
                continue
            # cross-process order inside one epoch is a simulation
            # artifact; only epoch-crossing ops and the reader's own
            # program order are definite
            if not (op.epoch < self.epoch or op.rank == reader):
                continue
            overlap = np.intersect1d(ridx, self._op_indices(op))
            if len(overlap):
                self._stats.read_conflicts += len(overlap)
                self._emit("unflushed-read", window, (op.rank, reader),
                           overlap, dedupe=(op.seq, reader))

    # -- epoch close: rules (b) and (d) ----------------------------------------------
    def _close_epoch(self) -> None:
        races_before = len(self.races)
        self._analyze_epoch()
        self._stats.epoch = self._closed_epochs
        self.per_epoch.append(self._stats)
        self._totals.write_conflicts += self._stats.write_conflicts
        self._totals.read_conflicts += self._stats.read_conflicts
        self._totals.atomic_conflicts += self._stats.atomic_conflicts
        self._stats = EpochStats(epoch=self._closed_epochs + 1)
        self._epoch_ops = []
        self._epoch_writes = {}
        self._pending = [op for op in self._pending if not op.flushed]
        self._closed_epochs += 1
        if len(self.races) > races_before and self.raise_on_race:
            raise RaceError(self.report().summary())

    def _analyze_epoch(self) -> None:
        # (b) plain owner writes vs remote puts/accumulates, per window
        remote = [op for op in self._epoch_ops
                  if op.rank != op.owner and op.window is not None]
        for op in remote:
            writes = self._epoch_writes.get(op.window, {}).get(op.owner)
            if not writes:
                continue
            written = np.unique(np.concatenate(writes))
            overlap = np.intersect1d(written, self._op_indices(op))
            if len(overlap):
                self._stats.write_conflicts += len(overlap)
                self._emit("write-vs-acc", op.window, (op.owner, op.rank),
                           overlap, dedupe=(op.seq,))

        # (d) mixed float/int accumulates on one window region
        accs = [op for op in self._epoch_ops
                if op.kind == "acc" and op.window is not None]
        floats = [op for op in accs if op.dtype == "float"]
        ints = [op for op in accs if op.dtype != "float"]
        for fop in floats:
            for iop in ints:
                if fop.window != iop.window or fop.owner != iop.owner:
                    continue
                overlap = np.intersect1d(self._op_indices(fop),
                                         self._op_indices(iop))
                if len(overlap):
                    self._stats.atomic_conflicts += len(overlap)
                    self._emit("acc-dtype", fop.window, (fop.rank, iop.rank),
                               overlap, dedupe=(fop.seq, iop.seq))

    # -- emission -------------------------------------------------------------------
    def _emit(self, kind: str, handle: str, threads: tuple,
              addrs: np.ndarray, dedupe: tuple = ()) -> None:
        self._totals.total_racy_addresses += len(addrs)
        key = (kind, handle, threads, self._closed_epochs, *dedupe)
        if key in self._emitted:
            return
        self._emitted.add(key)
        if len(self.races) < MAX_RACES:
            self.races.append(Race(
                kind=kind, handle=handle, epoch=self._closed_epochs,
                threads=threads, count=int(len(addrs)),
                sample=tuple(int(a) for a in addrs[:8])))
        # mid-epoch rules raise at once (there is no closing barrier to
        # defer to for a read that already happened)
        if self.raise_on_race and kind in ("unflushed-read", "early-inbox"):
            raise RaceError(self.report().summary())

    @property
    def pending_unflushed(self) -> int:
        """Remote ops currently pending without a completing flush."""
        return sum(1 for op in self._pending if not op.flushed)

    def report(self) -> RaceReport:
        r = self._totals
        return RaceReport(
            races=list(self.races), epochs=self._closed_epochs,
            total_racy_addresses=r.total_racy_addresses,
            write_conflicts=r.write_conflicts,
            read_conflicts=r.read_conflicts,
            atomic_conflicts=r.atomic_conflicts,
            per_epoch=list(self.per_epoch))


def attach_dm_race_detector(rt, raise_on_race: bool = False
                            ) -> DMRaceDetector:
    """Wrap ``rt.mem`` and install the epoch checker as ``rt.observer``.

    Must run *before* the algorithm registers its windows (kernels cache
    ``rt.mem`` at entry).  Returns the detector; the wrapped memory
    model stays reachable as ``detector.inner``.
    """
    detector = DMRaceDetector(rt, raise_on_race=raise_on_race)
    rt.mem = detector
    rt.observer = detector
    return detector
