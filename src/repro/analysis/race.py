"""repro-tsan: a dynamic race detector for the simulated SM machine.

The paper's Section-3.8 contract is asymmetric:

* **pull** variants may only *write* vertices the executing thread
  owns; concurrent remote *reads* are expected (they are the
  ``read_conflicts`` term of the Section-4 cost model) and benign.
* **push** variants write remote vertices, but every such write must be
  declared through an atomic (``faa``/``cas``) or a ``lock`` critical
  section.

The runtime enforces only the pull half (``owned_write_check``); push
kernels were on the honor system.  :class:`RaceDetectingMemory` closes
that gap: it wraps any :class:`~repro.machine.memory.MemoryModel`,
records the per-thread read/write/atomic *index sets* of every
barrier-delimited epoch, and at each barrier reports the addresses that
violate the contract.

Violation taxonomy (what :class:`Race` records carry in ``kind``):

``ww``
    The same address plain-written by two threads in one epoch with
    neither write covered by a lock declaration.  Illegal in both
    directions -- pull forbids it by ownership, push by atomicity.
``mixed``
    A plain unprotected write racing a *protected* (atomic or locked)
    write by another thread.  The protected side did its part; the
    plain side still corrupts (e.g. a store overlapping a CAS-min).
``rw``
    A plain write to an address the writer does **not** own, read by
    another thread in the same epoch.  Owner writes racing remote
    reads are the pull paradigm and are *not* violations; they are
    tallied into the epoch's read-conflict statistics instead, which
    the PRAM cross-check consumes.

Critical sections spanning several arrays (Δ-Stepping's (dist, bucket)
pair, BGC's avail-row + need-flag, Borůvka's CAS-min + record) declare
their contents with the ``covers=`` parameter of ``lock``/``cas``/
``faa``; covered plain writes are treated as protected.

Everything issued *outside* a parallel region (frontier merges, epilogue
bookkeeping) executes on the conceptual master thread between fork/join
points and cannot race; the runtime brackets regions with
``region_begin``/``region_end`` so those accesses are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.partition import Partition1D
from repro.machine.memory import (
    ArrayHandle, MemoryModel, MemoryProxy, as_index_array,
)

#: cap on stored Race records (detection keeps running; the flag count
#: in RaceReport.total_racy_addresses stays exact)
MAX_RACES = 256


class RaceError(AssertionError):
    """Raised at a barrier when ``raise_on_race`` is set and races exist."""


@dataclass(frozen=True)
class Race:
    """One violating (epoch, handle, thread-pair) with its address set."""

    kind: str                 #: 'ww' | 'rw' | 'mixed'
    handle: str               #: registered array name
    epoch: int                #: barrier-delimited epoch index (0-based)
    threads: tuple            #: (writer, other) simulated thread ids
    count: int                #: number of conflicting addresses
    sample: tuple             #: up to 8 of the conflicting item indices

    def __str__(self) -> str:
        kinds = {"ww": "write-write", "rw": "read-write",
                 "mixed": "plain-vs-atomic",
                 "dangling-cover": "dangling covers= declaration",
                 # DM epoch-rule kinds (repro.analysis.dm_race)
                 "unflushed-read": "read-before-flush",
                 "write-vs-acc": "plain-write-vs-remote-accumulate",
                 "early-inbox": "inbox-before-delivery",
                 "acc-dtype": "mixed float/int accumulate"}
        return (f"[epoch {self.epoch}] {kinds.get(self.kind, self.kind)} "
                f"race on {self.handle!r}: threads {self.threads[0]} and "
                f"{self.threads[1]}, {self.count} address(es), "
                f"e.g. {list(self.sample)}")


@dataclass
class EpochStats:
    """Per-epoch conflict tallies (the PRAM cross-check's observables)."""

    epoch: int
    write_conflicts: int = 0   #: addresses plain-written by >=2 threads
    read_conflicts: int = 0    #: addresses read by >=2 threads
    atomic_conflicts: int = 0  #: addresses touched atomically by >=2 threads


@dataclass
class RaceReport:
    """Aggregated detector output for one run."""

    races: list = field(default_factory=list)
    epochs: int = 0
    total_racy_addresses: int = 0
    write_conflicts: int = 0
    read_conflicts: int = 0
    atomic_conflicts: int = 0
    per_epoch: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.races

    def summary(self) -> str:
        head = (f"{len(self.races)} race(s) over {self.epochs} epoch(s); "
                f"conflicts: {self.write_conflicts} write / "
                f"{self.read_conflicts} read / "
                f"{self.atomic_conflicts} atomic")
        lines = [str(r) for r in self.races[:16]]
        if len(self.races) > 16:
            lines.append(f"... and {len(self.races) - 16} more")
        return "\n".join([head, *lines])


class _ThreadEpochLog:
    """Index sets one thread accumulated on one handle this epoch."""

    __slots__ = ("r_idx", "r_rng", "w_idx", "w_rng", "a_idx")

    def __init__(self) -> None:
        self.r_idx: list = []    #: arrays of read item indices
        self.r_rng: list = []    #: (start, count) streaming reads
        self.w_idx: list = []
        self.w_rng: list = []
        self.a_idx: list = []    #: atomically accessed item indices

    @staticmethod
    def _gather(idx_lists: list, rng_lists: list) -> np.ndarray:
        parts = [np.asarray(a).ravel() for a in idx_lists]
        parts += [np.arange(s, s + c, dtype=np.int64) for s, c in rng_lists]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts).astype(np.int64, copy=False))

    def reads(self) -> np.ndarray:
        return self._gather(self.r_idx, self.r_rng)

    def writes(self) -> np.ndarray:
        return self._gather(self.w_idx, self.w_rng)

    def atomics(self) -> np.ndarray:
        return self._gather(self.a_idx, [])


class RaceDetectingMemory(MemoryProxy):
    """A recording proxy in front of any :class:`MemoryModel`.

    All event/cache accounting is delegated untouched to the wrapped
    model, so simulated times and counters are identical with or
    without the detector; the proxy only harvests *which* item indices
    each simulated thread touched between barriers.

    Parameters
    ----------
    inner:
        The real memory model (``CountingMemory`` / ``CacheSimMemory``).
    part:
        The runtime's 1D partition; enables the ownership exemption for
        read-write conflicts on vertex-indexed arrays (``handle.size ==
        part.n``).  Without it every cross-thread plain write is
        treated as remote.
    raise_on_race:
        Raise :class:`RaceError` at the barrier that detects the first
        violation (pinpoints the epoch) instead of only recording it.
    track_read_conflicts:
        Also tally read-read overlap statistics per epoch.  Costs one
        extra set union per handle per barrier; needed by the PRAM
        cross-check, off by default for fixtures.
    strict_covers:
        ``covers=`` declarations are normally honor-system: the
        detector trusts that the declared critical section really
        encloses the covered companion write.  In strict mode a
        declaration whose covered indices are *not* written (or
        atomically updated) by the declaring thread before its next
        barrier is itself reported as a ``dangling-cover`` race -- a
        shield with nothing behind it is either dead code or a
        mislabeled index set hiding a real race elsewhere.
    """

    def __init__(self, inner: MemoryModel, part: Partition1D | None = None,
                 raise_on_race: bool = False,
                 track_read_conflicts: bool = False,
                 strict_covers: bool = False) -> None:
        super().__init__(inner)
        self.part = part
        self.raise_on_race = raise_on_race
        self.track_read_conflicts = track_read_conflicts
        self.strict_covers = strict_covers
        self.races: list[Race] = []
        self.per_epoch: list[EpochStats] = []
        self.epoch = 0
        self.unattributed_writes = 0   #: in-region writes with unknown position
        #: every handle the log names (for the ownership exemption)
        self._handles: dict[str, ArrayHandle] = {}
        # (handle name, thread) -> _ThreadEpochLog
        self._log: dict[tuple, _ThreadEpochLog] = {}
        # thread -> handle name -> list of covered (protected) index arrays
        self._shield: dict[int, dict[str, list]] = {}
        # the subset declared through covers= (strict mode audits these;
        # a lock's self-cover of its own word is exempt -- the lock word
        # needs no companion write)
        self._explicit: dict[int, dict[str, list]] = {}
        self._totals = RaceReport()

    # -- runtime hooks -------------------------------------------------------------
    def on_barrier(self) -> None:
        self.inner.on_barrier()
        self._close_epoch()

    # -- recorded accesses ---------------------------------------------------------
    def _entry(self, handle: ArrayHandle) -> _ThreadEpochLog:
        self._handles.setdefault(handle.name, handle)
        key = (handle.name, self.thread)
        log = self._log.get(key)
        if log is None:
            log = self._log[key] = _ThreadEpochLog()
        return log

    def _record(self, slot: str, handle: ArrayHandle, idx, count,
                start) -> None:
        if not self.in_region:
            return
        log = self._entry(handle)
        if idx is not None:
            getattr(log, slot + "_idx").append(as_index_array(idx))
        elif start is not None and count:
            getattr(log, slot + "_rng").append((int(start), int(count)))
        elif slot == "w" and count:
            # a position-blind in-region write: cannot be attributed to
            # addresses, surfaced as a detector health statistic
            self.unattributed_writes += int(count)

    def _cover(self, pairs) -> None:
        """Record ``covers=`` declarations as protected indices."""
        if not pairs:
            return
        shield = self._shield.setdefault(self.thread, {})
        explicit = self._explicit.setdefault(self.thread, {})
        for handle, idx in pairs:
            if idx is None:
                continue
            arr = as_index_array(idx)
            shield.setdefault(handle.name, []).append(arr)
            explicit.setdefault(handle.name, []).append(arr)

    def _self_cover(self, handle: ArrayHandle, idx) -> None:
        if idx is None:
            return
        shield = self._shield.setdefault(self.thread, {})
        shield.setdefault(handle.name, []).append(as_index_array(idx))

    def read(self, handle, idx=None, count=None, mode="seq", start=None) -> None:
        self._record("r", handle, idx, count, start)
        self.inner.read(handle, idx=idx, count=count, mode=mode, start=start)

    def write(self, handle, idx=None, count=None, mode="seq", start=None) -> None:
        self._record("w", handle, idx, count, start)
        self.inner.write(handle, idx=idx, count=count, mode=mode, start=start)

    def faa(self, handle, idx=None, count=None, mode="rand", start=None,
            batched=False, covers=None) -> None:
        if self.in_region and idx is not None:
            self._entry(handle).a_idx.append(as_index_array(idx))
            self._cover(covers)
        self.inner.faa(handle, idx=idx, count=count, mode=mode, start=start,
                       batched=batched, covers=covers)

    def cas(self, handle, idx=None, count=None, successes=None, mode="rand",
            start=None, batched=False, covers=None) -> None:
        if self.in_region and idx is not None:
            self._entry(handle).a_idx.append(as_index_array(idx))
            self._cover(covers)
        self.inner.cas(handle, idx=idx, count=count, successes=successes,
                       mode=mode, start=start, batched=batched, covers=covers)

    def lock(self, handle, idx=None, count=None, mode="rand", start=None,
             covers=None) -> None:
        # the lock's R+W hit the lock word, not the data: record only
        # the protection it grants (its own indices plus covers)
        if self.in_region:
            self._self_cover(handle, idx)
            self._cover(covers)
        self.inner.lock(handle, idx=idx, count=count, mode=mode, start=start,
                        covers=covers)

    # -- epoch analysis ------------------------------------------------------------
    def _close_epoch(self) -> None:
        new_races = self._analyze()
        self._log.clear()
        self._shield.clear()
        self._explicit.clear()
        self.epoch += 1
        if new_races and self.raise_on_race:
            raise RaceError(self.report().summary())

    def _shielded(self, t: int, name: str) -> np.ndarray:
        lists = self._shield.get(t, {}).get(name)
        if not lists:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(lists))

    def _owned_mask(self, name: str, idx: np.ndarray, t: int) -> np.ndarray:
        """True where thread ``t`` owns the vertex behind each index."""
        handle = self._handles.get(name)
        if (self.part is None or handle is None
                or handle.size != self.part.n or len(idx) == 0):
            return np.zeros(len(idx), dtype=bool)
        return np.asarray(self.part.is_local(t, idx))

    def _emit(self, kind: str, name: str, t1: int, t2: int,
              addrs: np.ndarray) -> bool:
        if len(addrs) == 0:
            return False
        self._totals.total_racy_addresses += len(addrs)
        if len(self.races) < MAX_RACES:
            self.races.append(Race(
                kind=kind, handle=name, epoch=self.epoch,
                threads=(t1, t2), count=int(len(addrs)),
                sample=tuple(int(a) for a in addrs[:8])))
        return True

    def _analyze(self) -> bool:
        by_handle: dict[str, dict[int, _ThreadEpochLog]] = {}
        for (name, t), log in self._log.items():
            by_handle.setdefault(name, {})[t] = log

        stats = EpochStats(epoch=self.epoch)
        found = False
        for name, per_thread in by_handle.items():
            threads = sorted(per_thread)
            writes = {t: per_thread[t].writes() for t in threads}
            atomics = {t: per_thread[t].atomics() for t in threads}
            if not any(len(w) for w in writes.values()) and \
               not any(len(a) for a in atomics.values()):
                if self.track_read_conflicts and len(threads) > 1:
                    stats.read_conflicts += self._overlap_count(
                        [per_thread[t].reads() for t in threads])
                continue
            shields = {t: self._shielded(t, name) for t in threads}
            # unprotected plain writes / protected writes per thread
            unprot = {}
            prot = {}
            for t in threads:
                w, s, a = writes[t], shields[t], atomics[t]
                unprot[t] = np.setdiff1d(w, s, assume_unique=False)
                prot[t] = np.union1d(np.intersect1d(w, s), a)
            reads = {t: per_thread[t].reads() for t in threads}

            for i, t1 in enumerate(threads):
                u1 = unprot[t1]
                if len(u1) == 0:
                    continue
                remote1 = u1[~self._owned_mask(name, u1, t1)]
                for t2 in threads:
                    if t2 == t1:
                        continue
                    if t2 > t1:
                        found |= self._emit("ww", name, t1, t2,
                                            np.intersect1d(u1, unprot[t2]))
                    found |= self._emit("mixed", name, t1, t2,
                                        np.intersect1d(u1, prot[t2]))
                    if len(remote1):
                        found |= self._emit("rw", name, t1, t2,
                                            np.intersect1d(remote1, reads[t2]))

            # conflict statistics (PRAM observables), over *all* writes
            if len(threads) > 1:
                stats.write_conflicts += self._overlap_count(
                    [writes[t] for t in threads])
                stats.atomic_conflicts += self._overlap_count(
                    [atomics[t] for t in threads])
                if self.track_read_conflicts:
                    stats.read_conflicts += self._overlap_count(
                        [reads[t] for t in threads])

        if self.strict_covers:
            found |= self._audit_covers()

        self.per_epoch.append(stats)
        self._totals.write_conflicts += stats.write_conflicts
        self._totals.read_conflicts += stats.read_conflicts
        self._totals.atomic_conflicts += stats.atomic_conflicts
        return found

    def _audit_covers(self) -> bool:
        """Strict mode: every covers= index needs a companion update."""
        found = False
        for t, per_handle in self._explicit.items():
            for name, lists in per_handle.items():
                covered = np.unique(np.concatenate(lists))
                log = self._log.get((name, t))
                touched = (np.union1d(log.writes(), log.atomics())
                           if log is not None else np.empty(0, dtype=np.int64))
                dangling = np.setdiff1d(covered, touched)
                found |= self._emit("dangling-cover", name, t, t, dangling)
        return found

    @staticmethod
    def _overlap_count(sets: list) -> int:
        """Number of addresses present in >= 2 of the (unique) sets."""
        nonempty = [s for s in sets if len(s)]
        if len(nonempty) < 2:
            return 0
        merged = np.concatenate(nonempty)
        _, counts = np.unique(merged, return_counts=True)
        return int(np.count_nonzero(counts > 1))

    # -- results -------------------------------------------------------------------
    def report(self) -> RaceReport:
        r = self._totals
        return RaceReport(
            races=list(self.races), epochs=self.epoch,
            total_racy_addresses=r.total_racy_addresses,
            write_conflicts=r.write_conflicts,
            read_conflicts=r.read_conflicts,
            atomic_conflicts=r.atomic_conflicts,
            per_epoch=list(self.per_epoch))


def attach_race_detector(rt, raise_on_race: bool = False,
                         track_read_conflicts: bool = False,
                         strict_covers: bool = False
                         ) -> RaceDetectingMemory:
    """Wrap ``rt.mem`` in a :class:`RaceDetectingMemory` in place.

    Must run *before* the algorithm registers its arrays (kernels cache
    ``rt.mem`` at state construction).  Returns the detector; the
    wrapped model stays reachable as ``detector.inner``.
    """
    detector = RaceDetectingMemory(
        rt.mem, part=rt.part, raise_on_race=raise_on_race,
        track_read_conflicts=track_read_conflicts,
        strict_covers=strict_covers)
    rt.mem = detector
    return detector
