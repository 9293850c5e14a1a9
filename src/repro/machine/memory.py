"""Instrumented-memory layer.

Every algorithm in :mod:`repro.algorithms` manipulates plain NumPy
arrays for its actual state, and *reports* each access to a
:class:`MemoryModel`.  Two implementations exist:

* :class:`CountingMemory` -- increments event counters and estimates
  cache/TLB misses with a cheap analytic locality model.  Used for
  parameter sweeps and scaling studies where trace simulation would be
  too slow.
* :class:`CacheSimMemory` -- additionally drives the trace-driven
  :class:`repro.machine.cache.CacheSim` with real (synthetic-address-
  space) addresses.  Used to regenerate the Table-1 hardware-counter
  study.

Dynamic analyses (race detectors, the SM fault proxy, the footprint
recorder) wrap either model in a :class:`MemoryProxy` subclass that
observes some verbs and forwards everything else.

Accesses carry an access-pattern annotation: ``seq`` for streaming
scans of contiguous data (adjacency arrays, owned vertex ranges) and
``rand`` for data-dependent indexed access (neighbor state lookups).
The distinction is what separates push from pull in the paper's cache
data, so the analytic model keys off it.

Counter ownership: the shared-memory runtime gives each simulated
thread its own :class:`~repro.machine.counters.PerfCounters` and points
the memory model at the counters of whichever thread is currently
executing (:meth:`MemoryModel.set_counters`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.machine.cache import CacheHierarchySpec, CacheSim
from repro.machine.counters import PerfCounters

_PAGE = 4096


@dataclass
class ArrayHandle:
    """A registered array living in the synthetic address space."""

    name: str
    base: int           #: synthetic base byte-address (page aligned)
    itemsize: int
    size: int           #: number of items

    @property
    def nbytes(self) -> int:
        return self.itemsize * self.size

    def addr(self, idx) -> np.ndarray:
        """Byte addresses for item indices (scalar or array)."""
        return self.base + np.asarray(idx, dtype=np.int64) * self.itemsize


def handle_name(handle) -> str:
    """The registered name behind a handle (a plain name passes through)."""
    return str(getattr(handle, "name", handle))


def as_index_array(idx) -> np.ndarray:
    """Item indices, scalar or array-like, as a flat int64 array."""
    return np.asarray(idx, dtype=np.int64).ravel()


def _count(idx, count) -> int:
    """Number of items referenced by an (idx, count) access descriptor."""
    if count is not None:
        return int(count)
    if idx is None or type(idx) is int:
        return 1
    if type(idx) is np.ndarray:
        return idx.size
    if np.isscalar(idx):
        return 1
    return int(np.asarray(idx).size)


class MemoryModel:
    """Base instrumented memory: registration, counters, branch/flop events.

    Subclasses implement :meth:`_touch` to account for the cache
    behaviour of an access.
    """

    def __init__(self) -> None:
        self._next_base = _PAGE  # leave page 0 unmapped
        self.arrays: dict[str, ArrayHandle] = {}
        self.counters = PerfCounters()

    # -- array registration ---------------------------------------------------
    def register(self, name: str, array_or_size, itemsize: int | None = None) -> ArrayHandle:
        """Register an array (or a (size, itemsize) description).

        Returns a handle whose synthetic base address is page aligned;
        handles are stable for the lifetime of the model, so re-running
        an algorithm on the same model reuses addresses (important for
        warm-cache measurements).
        """
        if name in self.arrays:
            return self.arrays[name]
        if isinstance(array_or_size, np.ndarray):
            size = int(array_or_size.size)
            itemsize = int(array_or_size.itemsize)
        else:
            size = int(array_or_size)
            itemsize = int(itemsize if itemsize is not None else 8)
        handle = ArrayHandle(name, self._next_base, itemsize, max(size, 1))
        nbytes = handle.nbytes
        self._next_base += ((nbytes + _PAGE - 1) // _PAGE + 1) * _PAGE
        self.arrays[name] = handle
        return handle

    def set_counters(self, counters: PerfCounters) -> None:
        """Redirect event accounting (e.g. to the current thread)."""
        self.counters = counters

    def clear_residues(self, counters: Sequence[PerfCounters]) -> None:
        """Drop the sub-event remainders held for ``counters``, so a run
        after the runtime's ``reset()`` starts like the first one.  Only
        :class:`CountingMemory` holds any; a cache simulator stays warm."""

    # -- runtime hooks (no-ops here) ----------------------------------------------
    # The runtimes narrate their execution structure to the memory
    # model: which simulated thread (or DM rank) is issuing accesses,
    # when a parallel region starts/ends, and when a barrier retires.
    # The counting models ignore all of it; CacheSimMemory maps the id
    # onto its private-cache lanes.  MemoryProxy records the thread and
    # region state for its subclasses, and the race detector uses the
    # full protocol to delimit conflict epochs.

    def set_thread(self, tid: int) -> None:
        """The simulated thread now issuing accesses."""

    def region_begin(self) -> None:
        """A parallel region (fork) starts; accesses are now concurrent."""

    def region_end(self) -> None:
        """The parallel region's threads joined (but no barrier yet)."""

    def on_barrier(self) -> None:
        """A full barrier retired: concurrent-epoch boundary."""

    # -- data accesses ----------------------------------------------------------
    # Access descriptors: pass ``idx`` (scalar or array of item indices),
    # or ``start``+``count`` for a streaming range, or just ``count`` when
    # the position is immaterial (analytic mode).

    def _access(self, handle: ArrayHandle, idx, count, mode: str,
                start) -> int:
        """Items named by one verb call, after its cache accounting.

        ``cached`` data is known to be resident (e.g. binary-search
        probes into a just-scanned neighbor list): the access issues its
        instructions but never misses, whatever the verb.
        """
        n = _count(idx, count)
        if mode != "cached":
            self._touch(handle, idx, n, mode, start)
        return n

    def read(self, handle: ArrayHandle, idx=None, count: int | None = None,
             mode: str = "seq", start: int | None = None) -> None:
        self.counters.reads += self._access(handle, idx, count, mode, start)

    def write(self, handle: ArrayHandle, idx=None, count: int | None = None,
              mode: str = "seq", start: int | None = None) -> None:
        self.counters.writes += self._access(handle, idx, count, mode, start)

    def faa(self, handle: ArrayHandle, idx=None, count: int | None = None,
            mode: str = "rand", start: int | None = None,
            batched: bool = False, covers: Sequence | None = None) -> None:
        """Fetch-and-add: one atomic instruction per item (plus its R+W).

        ``batched`` marks a segregated same-array atomic stream (PA's
        remote phase), which the cost model discounts.  ``covers`` (see
        :meth:`lock`) declares sibling addresses the atomic protects;
        it costs nothing here and is read by the race detector.
        """
        n = self._access(handle, idx, count, mode, start)
        c = self.counters
        c.atomics += n
        c.faa += n
        if batched:
            c.atomics_batched += n
        c.reads += n
        c.writes += n
        c.branches_uncond += n  # the locked-instruction dispatch, as counted in [50]

    def cas(self, handle: ArrayHandle, idx=None, count: int | None = None,
            successes: int | None = None, mode: str = "rand",
            start: int | None = None, batched: bool = False,
            covers: Sequence | None = None) -> None:
        """Compare-and-swap: one atomic per attempt; failures still cost.

        ``covers`` (see :meth:`lock`) declares sibling addresses whose
        plain writes ride on the successful CAS (e.g. a claimed slot's
        payload fields); cost-neutral, consumed by the race detector.
        """
        n = self._access(handle, idx, count, mode, start)
        c = self.counters
        c.atomics += n
        c.cas += n
        if batched:
            c.atomics_batched += n
        c.reads += n
        if successes is None:
            successes = n
        c.writes += int(successes)
        c.branches_uncond += n

    def lock(self, handle: ArrayHandle, idx=None, count: int | None = None,
             mode: str = "rand", start: int | None = None,
             covers: Sequence | None = None) -> None:
        """Lock acquisition + release around a critical section.

        ``covers`` declares the critical section's *contents*: an
        iterable of ``(handle, idx)`` pairs naming sibling addresses the
        same lock protects (e.g. Δ-Stepping's (dist, bucket) pair lives
        in two arrays guarded by one lock).  It adds no events -- the
        race detector uses it to tell protected plain writes from
        undeclared remote stores.
        """
        n = self._access(handle, idx, count, mode, start)
        c = self.counters
        c.locks += n
        c.reads += n   # lock word load
        c.writes += n  # lock word store
        c.branches_uncond += n

    # -- non-memory events -------------------------------------------------------
    def branch_cond(self, n: int = 1) -> None:
        self.counters.branches_cond += int(n)

    def branch_uncond(self, n: int = 1) -> None:
        self.counters.branches_uncond += int(n)

    def flop(self, n: int = 1) -> None:
        self.counters.flops += int(n)

    # -- cache accounting (subclass hook) ------------------------------------------
    def _touch(self, handle: ArrayHandle, idx, n: int, mode: str,
               start: int | None = None) -> None:
        raise NotImplementedError


class CountingMemory(MemoryModel):
    """Counter-only memory with an analytic cache-miss estimate.

    The locality model: a streaming (``seq``) scan of ``k`` items
    misses once per cache line at every level too small to hold the
    array; a ``rand`` access misses with probability
    ``max(0, 1 - level_size / array_bytes)`` at each level (the chance
    that a uniformly random line of the array is not cached), and
    analogously for the TLB over pages.

    Miss fractions are quantized onto a fixed-point ``2**-20`` grid and
    accumulated as *integers*, one accumulator per counter set (lane):
    integer addition is associative, so the totals are independent of
    how accesses are grouped into calls.  This is what lets the batched
    stream engine (:mod:`repro.streams`) compute per-segment
    contributions vectorized and land on counters byte-identical to the
    per-call interpreter.  Whole misses move into the counters as soon
    as an accumulator slot reaches the grid, so a counter read at any
    instant sees the same value however the accesses were grouped.

    An access whose working set is the whole array (every ``seq``
    access; a ``rand`` access at no index, one scalar index or an index
    array of at most one element) has increments that depend only on
    ``(size, itemsize, n, mode)``; those are memoized per model.

    An access misses only at levels smaller than its array: a ``seq``
    scan by the rule above, a ``rand`` access because its working set
    (the span) never exceeds the array.  So an array no larger than the
    smallest capacity returns at once, and every other access is
    charged only at the levels smaller than the array.
    """

    #: fixed-point grid: one whole miss is this many quanta
    _GRID = 1 << 20

    def __init__(self, hierarchy: CacheHierarchySpec | None = None) -> None:
        super().__init__()
        hier = self.hier = hierarchy or CacheHierarchySpec()
        self._line = hier.l1.line_bytes
        # the capacities an access's working set is compared against
        self._caps = (hier.l1.size_bytes, hier.l2.size_bytes,
                      hier.l3.size_bytes, hier.tlb.entries * hier.tlb.page_bytes)
        # an array no larger than this misses at no level
        self._min_cap = min(self._caps)
        # integer fixed-point accumulators per lane; _lane is the
        # current lane's, re-fetched when the counters are redirected
        self._acc: dict[int, list] = {}
        self._lane = self._acc_for(self.counters)
        # (size, itemsize, n, mode) -> increments of a whole-array access
        self._memo: dict[tuple, tuple] = {}

    def _acc_for(self, counters: PerfCounters) -> list:
        key = id(counters)
        acc = self._acc.get(key)
        if acc is None:
            acc = [0, 0, 0, 0, counters]  # l1, l2, l3, tlb (in quanta)
            self._acc[key] = acc
        return acc

    def clear_residues(self, counters: Sequence[PerfCounters]) -> None:
        # in place: the cached current lane stays the live accumulator
        for c in counters:
            acc = self._acc.get(id(c))
            if acc is not None:
                acc[:4] = (0, 0, 0, 0)

    def _increments(self, nbytes: int, itemsize: int, n: int,
                    mode: str) -> tuple:
        """Quantized (l1, l2, l3, tlb) miss increments of ``n`` accesses
        of ``itemsize`` bytes over a working set of ``nbytes``."""
        q = self._GRID
        if mode == "seq":
            l1, l2, l3, tlb_reach = self._caps
            ql = int(np.rint(n * itemsize / self._line * q))
            qp = int(np.rint(n * itemsize / _PAGE * q))
            return (ql if nbytes > l1 else 0, ql if nbytes > l2 else 0,
                    ql if nbytes > l3 else 0, qp if nbytes > tlb_reach else 0)
        return tuple([int(np.rint(n * max(0.0, 1.0 - cap / nbytes) * q))
                      if cap < nbytes else 0 for cap in self._caps])

    def _whole_increments(self, handle: ArrayHandle, n: int,
                          mode: str) -> tuple:
        """:meth:`_increments` of ``n`` accesses over all of ``handle``,
        memoized per model; :meth:`_touch` and :meth:`touch_batch` share
        the entries."""
        key = (handle.size, handle.itemsize, n, mode)
        inc = self._memo.get(key)
        if inc is None:
            inc = self._memo[key] = self._increments(
                handle.nbytes, handle.itemsize, n, mode)
        return inc

    def _touch(self, handle: ArrayHandle, idx, n: int, mode: str,
               start: int | None = None) -> None:
        nbytes = handle.nbytes
        if nbytes <= self._min_cap:
            return      # every level holds the array
        acc = self._lane
        if acc[4] is not self.counters:
            acc = self._lane = self._acc_for(self.counters)
        itemsize = handle.itemsize
        # Span refinement: when the random-access indices are known, the
        # effective working set is the index *span*, not the whole array --
        # road-network neighbors cluster near their vertex, so their state
        # stays cache-resident even though the full array would not.
        # ``_count(idx, None)`` is the number of indices ``idx`` names.
        if mode == "rand" and type(idx) is not int and _count(idx, None) > 1:
            arr = np.asarray(idx)
            span = int(arr.max() - arr.min() + 1) * itemsize
            inc = self._increments(min(nbytes, max(span, itemsize)),
                                   itemsize, n, mode)
        else:
            inc = self._whole_increments(handle, n, mode)
        acc[0] += inc[0]
        acc[1] += inc[1]
        acc[2] += inc[2]
        acc[3] += inc[3]
        grid = self._GRID
        if (acc[0] >= grid or acc[1] >= grid or acc[2] >= grid
                or acc[3] >= grid):
            self._flush(acc)

    def touch_batch(self, handle: ArrayHandle, *, mode: str, counts,
                    idx=None, seg=None) -> None:
        """Vectorized analytic accounting for one batched stream op.

        Accounts exactly what per-segment :meth:`_touch` calls would:
        ``seg`` tiles ``idx`` with one count per segment, as
        :class:`~repro.streams.ops.StreamOp` guarantees, and segment
        ``k`` contributes with ``n = counts[k]`` and, in ``rand`` mode,
        with its own index span (segments of size <= 1 use the whole
        array like scalar-idx calls).  Contributions are quantized per
        segment before summation, so the totals equal the per-call path
        bit for bit, and only the levels smaller than the array are
        charged.

        An op of one count is one :meth:`_touch` call.  An op whose
        every segment is a whole-array access of one count adds the
        memoized increments.
        """
        nbytes = handle.nbytes
        if mode == "cached" or nbytes <= self._min_cap:
            return
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size <= 1:
            if counts.size:
                # one count: one per-call access
                self._touch(handle, idx, int(counts[0]), mode)
            return
        acc = self._acc_for(self.counters)
        q = self._GRID
        itemsize = handle.itemsize
        live = [(slot, cap) for slot, cap in enumerate(self._caps)
                if cap < nbytes]
        if mode == "seq" or idx is None:
            whole = True
        else:
            arr = np.asarray(idx, dtype=np.int64)
            seg = (np.array([0, arr.size]) if seg is None
                   else np.asarray(seg, dtype=np.int64))
            sizes = seg[1:] - seg[:-1]
            whole = bool((sizes <= 1).all())
        if whole and (counts == counts[0]).all():
            # every segment is a whole-array access of counts[0] items
            inc = self._whole_increments(handle, int(counts[0]), mode)
            for slot, _ in live:
                acc[slot] += counts.size * inc[slot]
        elif mode == "seq":
            # one miss per line streamed in the caches, per page in the TLB
            items = counts * itemsize
            ql = int(np.rint((items / self._line) * q).astype(np.int64).sum())
            for slot, _ in live:
                acc[slot] += ql if slot < 3 else int(
                    np.rint((items / _PAGE) * q).astype(np.int64).sum())
        else:
            nb = np.full(counts.size, nbytes, dtype=np.int64)
            if not whole:
                nz = sizes > 0
                starts, wide = seg[:-1][nz], sizes[nz] > 1
                span = (np.maximum.reduceat(arr, starts)[wide]
                        - np.minimum.reduceat(arr, starts)[wide] + 1)
                nb[np.flatnonzero(sizes > 1)] = np.minimum(
                    nbytes, np.maximum(span * itemsize, itemsize))
            nbf = nb.astype(np.float64)
            for slot, cap in live:
                frac = np.maximum(0.0, 1.0 - cap / nbf)
                acc[slot] += int(np.rint((counts * frac) * q)
                                 .astype(np.int64).sum())
        self._flush(acc)

    @staticmethod
    def _flush(acc: list) -> None:
        """Move every slot's whole misses into the lane's counters."""
        counters: PerfCounters = acc[4]
        grid = CountingMemory._GRID
        l1, acc[0] = divmod(acc[0], grid)
        l2, acc[1] = divmod(acc[1], grid)
        l3, acc[2] = divmod(acc[2], grid)
        tlb, acc[3] = divmod(acc[3], grid)
        counters.l1_misses += l1
        counters.l2_misses += l2
        counters.l3_misses += l3
        counters.tlb_d_misses += tlb


class CacheSimMemory(MemoryModel):
    """Memory model backed by the trace-driven cache simulator.

    Every thread gets its own private L1/L2 and TLB; L3 is shared
    across threads by default (as on the paper's Xeons).  Pass
    ``shared_l3=False`` when the "threads" model distributed-memory
    *processes* on separate nodes, each with its own socket-private L3.
    The runtime must call :meth:`set_thread` alongside
    :meth:`set_counters` so misses are simulated in the right private
    caches and *attributed* to the right thread's counters; thread ids
    past the last lane share it.
    """

    def __init__(self, hierarchy: CacheHierarchySpec | None = None,
                 n_threads: int = 1, shared_l3: bool = True) -> None:
        super().__init__()
        self.hier = hierarchy or CacheHierarchySpec()
        self.n_threads = n_threads
        self.shared_l3 = shared_l3
        self._sims = [CacheSim(self.hier) for _ in range(n_threads)]
        if shared_l3:
            # all per-thread sims share one L3 level object
            l3 = self._sims[0].l3
            for sim in self._sims[1:]:
                sim.l3 = l3
        self._thread = 0

    def set_thread(self, tid: int) -> None:
        self._thread = min(tid, self.n_threads - 1)

    def access_batch(self, addrs: np.ndarray) -> None:
        """Feed one merged, ordered byte-address batch to the current
        thread's simulator, attributing miss deltas to the current
        counters.

        The simulator only collapses *consecutive duplicate lines*, so
        concatenating the per-call address sequences of an access
        pattern and replaying them in one call yields the same miss
        counts as the per-call path (the boundary collapse can only
        drop an access that would have re-touched an already-MRU line).
        """
        if len(addrs):
            self._simulate(addrs)

    def _touch(self, handle: ArrayHandle, idx, n: int, mode: str,
               start: int | None = None) -> None:
        if idx is None:
            # A streaming range: (start, count) when the caller knows the
            # position, else synthesized from the array base (the line/page
            # counts of a sequential sweep do not depend on the position).
            size = handle.itemsize
            first = handle.base + (0 if start is None else int(start)) * size
            self._simulate(range(first, first + n * size, size))
        elif type(idx) is int or np.isscalar(idx):
            self._simulate(handle.base + int(idx) * handle.itemsize)
        else:
            self._simulate(handle.addr(idx))

    def _simulate(self, addrs) -> None:
        """Run ``addrs`` through the current thread's simulator and add
        its miss deltas to the current counters."""
        l1, l2, l3, tlb = self._sims[self._thread].access(addrs)
        c = self.counters
        c.l1_misses += l1
        c.l2_misses += l2
        c.l3_misses += l3
        c.tlb_d_misses += tlb


class MemoryProxy:
    """A wrapper in front of a :class:`MemoryModel` (or another proxy).

    Every attribute a subclass does not define is looked up on
    ``inner``: registration, counters, branch/flop events, the barrier
    hook, and every verb with all of its keywords (``covers=``
    included) forward untouched, so accounting is identical with or
    without the wrapper.  A subclass overrides only the verbs it
    observes, and forwards each to ``inner`` itself.  The proxy records
    the issuing ``thread`` and whether a parallel region is open
    (``in_region``) from the runtime hooks.

    A proxy is not one of the exact model types the batched stream
    engine consumes in bulk, so streams replayed through it are lowered
    to the interpreter's element-wise calls (:mod:`repro.streams.memory`).
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.thread = 0
        self.in_region = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def set_thread(self, tid: int) -> None:
        self.thread = tid
        self.inner.set_thread(tid)

    def region_begin(self) -> None:
        self.in_region = True
        self.inner.region_begin()

    def region_end(self) -> None:
        self.in_region = False
        self.inner.region_end()
