"""Trace-driven cache and TLB simulation.

The paper explains most push/pull performance differences through
cache behaviour (Section 6.1): pull variants issue *random* reads of
neighbor state while push variants stream through contiguous adjacency
arrays; Partition-Awareness trades atomics for a second pass over the
data.  To reproduce Table 1 we simulate a three-level set-associative
data-cache hierarchy plus a data TLB, fed with the actual addresses
that the instrumented algorithms touch.

The simulator is deliberately simple but exact with respect to the
configured geometry: LRU, write-allocate, and a filter hierarchy.  Each
level sees the misses of the level above, in order; nothing
back-invalidates, so the levels are not inclusive.  The data TLB gets
one lookup per simulated line, over 4 KiB pages by default
(``TLBSpec.page_bytes``); there is no instruction TLB.

One :meth:`CacheSim.access` call takes a whole batch of addresses -- an
integer, a ``range`` for a streaming scan, or an array -- so the
instrumentation layer reports one access per adjacency list instead of
one call per element.  Each collapsed line then walks L1 → L2 → L3 in
one loop, which is the filter chain above line by line; see
``docs/modeling.md`` §2 for why that is exact and which inputs skip
NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64

    @property
    def n_sets(self) -> int:
        n = self.size_bytes // (self.ways * self.line_bytes)
        if n <= 0:
            raise ValueError("cache too small for its associativity/line size")
        return n


@dataclass(frozen=True)
class TLBSpec:
    """Geometry of a fully-associative LRU TLB."""

    entries: int = 64
    page_bytes: int = 4096


@dataclass(frozen=True)
class CacheHierarchySpec:
    """Three data-cache levels plus a data TLB.

    The defaults model a Sandy-Bridge-class core (the paper's XC30):
    32 KiB 8-way L1, 256 KiB 8-way L2 and a shared L3 of which each of
    the node's threads effectively sees a slice.
    """

    l1: CacheLevelSpec = CacheLevelSpec(32 * 1024, 8)
    l2: CacheLevelSpec = CacheLevelSpec(256 * 1024, 8)
    l3: CacheLevelSpec = CacheLevelSpec(2 * 1024 * 1024, 16)
    tlb: TLBSpec = TLBSpec(64, 4096)


class _SetAssocLevel:
    """One set-associative LRU cache level over line addresses.

    Each set is a dict used as an insertion-ordered list of its resident
    lines, LRU first.  Every set starts full of placeholder keys that
    equal no line, so a miss always evicts the first key: a placeholder
    while the set is filling, then the LRU line.
    """

    __slots__ = ("n_sets", "ways", "sets", "misses")

    def __init__(self, spec: CacheLevelSpec) -> None:
        self._make_sets(spec.n_sets, spec.ways)

    def _make_sets(self, n_sets: int, ways: int) -> None:
        self.n_sets = n_sets
        self.ways = ways
        self.sets = [{object(): None for _ in range(ways)}
                     for _ in range(n_sets)]
        self.misses = 0

    def access(self, line: int) -> bool:
        """Access one line address; return True on hit."""
        s = self.sets[line % self.n_sets]
        hit = line in s
        if hit:
            del s[line]
        else:
            del s[next(iter(s))]
            self.misses += 1
        s[line] = None
        return hit


class _TLB(_SetAssocLevel):
    """Fully-associative LRU TLB over page numbers: one set of
    ``entries`` ways."""

    __slots__ = ()

    def __init__(self, spec: TLBSpec) -> None:
        self._make_sets(1, spec.entries)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the elements of non-empty ``a`` that differ from their
    predecessor (the first element counts as differing)."""
    keep = np.empty(a.shape, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return keep


#: batches up to this many addresses become lines in Python: below it,
#: NumPy's per-call costs exceed the work
_SMALL = 16


class CacheSim:
    """An L1/L2/L3 + data-TLB simulator fed with byte addresses.

    Addresses are grouped into cache lines before simulation, so a
    sequential scan over an array costs one simulated access per line,
    matching how a hardware prefetch-friendly stream behaves.  Each
    level sees the misses of the level above, in order, and nothing
    back-invalidates, so the hierarchy is not inclusive: a line can stay
    in L1 after L2 has evicted it.  The TLB gets one lookup per
    simulated line, over pages of ``spec.tlb.page_bytes``.
    """

    def __init__(self, spec: CacheHierarchySpec | None = None) -> None:
        self.spec = spec or CacheHierarchySpec()
        self.line_bytes = self.spec.l1.line_bytes
        self.page_bytes = self.spec.tlb.page_bytes
        self.l1 = _SetAssocLevel(self.spec.l1)
        self.l2 = _SetAssocLevel(self.spec.l2)
        self.l3 = _SetAssocLevel(self.spec.l3)
        self.tlb = _TLB(self.spec.tlb)
        self.accesses = 0

    def access(self, addrs) -> tuple[int, int, int, int]:
        """Simulate accesses for byte addresses, in order; return this
        call's ``(l1, l2, l3, tlb)`` miss counts.

        ``addrs`` is one integer, a ``range`` (a streaming scan) or any
        array-like.  Consecutive duplicate lines are collapsed (they
        would hit in L1 anyway and collapsing keeps the Python loops
        short for streaming scans).  Consecutive duplicate pages of the
        kept lines are collapsed too: a repeat of the MRU page hits and
        leaves the LRU order as it was.
        """
        lines, pages = self._lines_pages(addrs)
        self.accesses += len(lines)
        l1, l2, l3 = self.l1, self.l2, self.l3
        sets1, n1 = l1.sets, l1.n_sets
        sets2, n2 = l2.sets, l2.n_sets
        sets3, n3 = l3.sets, l3.n_sets
        m1 = m2 = m3 = 0
        # One walk down the hierarchy per line: the same chain of
        # filters as L1 over every line, then L2 over L1's misses in
        # order, then L3 over L2's, since no level reads another's
        # state.  ``for lru in s: break`` names a set's first key
        # without the two builtin calls of ``next(iter(s))``.
        for line in lines:
            s = sets1[line % n1]
            if line in s:
                del s[line]
                s[line] = None
                continue
            for lru in s:
                break
            del s[lru]
            s[line] = None
            m1 += 1
            s = sets2[line % n2]
            if line in s:
                del s[line]
                s[line] = None
                continue
            for lru in s:
                break
            del s[lru]
            s[line] = None
            m2 += 1
            s = sets3[line % n3]
            if line in s:
                del s[line]
            else:
                for lru in s:
                    break
                del s[lru]
                m3 += 1
            s[line] = None
        s = self.tlb.sets[0]
        mt = 0
        for page in pages:
            if page in s:
                del s[page]
            else:
                for lru in s:
                    break
                del s[lru]
                mt += 1
            s[page] = None
        l1.misses += m1
        l2.misses += m2
        l3.misses += m3
        self.tlb.misses += mt
        return m1, m2, m3, mt

    def _lines_pages(self, addrs):
        """The collapsed line and page sequences of ``addrs``."""
        lb, pb = self.line_bytes, self.page_bytes
        if isinstance(addrs, (int, np.integer)):
            a = int(addrs)
            return (a // lb,), (a // pb,)
        if isinstance(addrs, range):
            # a step of at most one line touches every line from the
            # first to the last, and when pages hold whole lines, every
            # page from the first to the last
            if addrs and 0 < addrs.step <= lb and pb % lb == 0:
                first, last = addrs[0], addrs[-1]
                return (range(first // lb, last // lb + 1),
                        range(first // pb, last // pb + 1))
            addrs = np.arange(addrs.start, addrs.stop, addrs.step,
                              dtype=np.int64)
        a = np.asarray(addrs, dtype=np.int64).ravel()
        if a.size <= _SMALL:
            lines, pages = [], []
            prev = prev_page = None
            for x in a.tolist():
                line = x // lb
                if line != prev:
                    prev = line
                    lines.append(line)
                    page = x // pb
                    if page != prev_page:
                        prev_page = page
                        pages.append(page)
            return lines, pages
        lines = a // lb
        keep = _run_starts(lines)
        pages = a[keep] // pb
        return lines[keep].tolist(), pages[_run_starts(pages)].tolist()

    # -- results --------------------------------------------------------------
    @property
    def l1_misses(self) -> int:
        return self.l1.misses

    @property
    def l2_misses(self) -> int:
        return self.l2.misses

    @property
    def l3_misses(self) -> int:
        return self.l3.misses

    @property
    def tlb_misses(self) -> int:
        return self.tlb.misses

    def snapshot(self) -> dict:
        return {
            "accesses": self.accesses,
            "l1_misses": self.l1.misses,
            "l2_misses": self.l2.misses,
            "l3_misses": self.l3.misses,
            "tlb_misses": self.tlb.misses,
        }
