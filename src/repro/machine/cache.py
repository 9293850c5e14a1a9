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

The simulator accepts *batches* of addresses as NumPy arrays so the
instrumentation layer can report one vectorized access per adjacency
list instead of one Python call per element.
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

    def filter(self, lines: list[int]) -> list[int]:
        """Access ``lines`` in order; return the ones that missed, in order."""
        sets, n_sets = self.sets, self.n_sets
        missed = []
        for line in lines:
            s = sets[line % n_sets]
            if line in s:
                del s[line]
            else:
                missed.append(line)
                del s[next(iter(s))]
            s[line] = None
        self.misses += len(missed)
        return missed

    def access(self, line: int) -> bool:
        """Access one line address; return True on hit."""
        return not self.filter([line])


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
        self.l1 = _SetAssocLevel(self.spec.l1)
        self.l2 = _SetAssocLevel(self.spec.l2)
        self.l3 = _SetAssocLevel(self.spec.l3)
        self.tlb = _TLB(self.spec.tlb)
        self.accesses = 0

    def access(self, addrs: np.ndarray | int) -> None:
        """Simulate accesses for a batch of byte addresses (in order).

        Consecutive duplicate lines are collapsed (they would hit in L1
        anyway and collapsing keeps the Python loops short for streaming
        scans).  Consecutive duplicate pages of the kept lines are
        collapsed too: a repeat of the MRU page hits and leaves the LRU
        order as it was.
        """
        page_bytes = self.spec.tlb.page_bytes
        if np.isscalar(addrs):
            a = int(addrs)
            lines = [a // self.line_bytes]
            pages = [a // page_bytes]
        else:
            addrs = np.asarray(addrs, dtype=np.int64)
            if addrs.size == 0:
                return
            lines = addrs // self.line_bytes
            keep = _run_starts(lines)
            pages = addrs[keep] // page_bytes
            pages = pages[_run_starts(pages)].tolist()
            lines = lines[keep].tolist()
        self.accesses += len(lines)
        self.tlb.filter(pages)
        self.l3.filter(self.l2.filter(self.l1.filter(lines)))

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
