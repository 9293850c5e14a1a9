"""Unit tests for the trace-driven cache / TLB simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cache import (
    CacheHierarchySpec, CacheLevelSpec, CacheSim, TLBSpec, _SetAssocLevel, _TLB,
)


def tiny_spec() -> CacheHierarchySpec:
    return CacheHierarchySpec(
        l1=CacheLevelSpec(512, 2, 64),      # 4 sets x 2 ways
        l2=CacheLevelSpec(2048, 4, 64),
        l3=CacheLevelSpec(8192, 4, 64),
        tlb=TLBSpec(4, 4096),
    )


class TestLevelSpec:
    def test_n_sets(self):
        assert CacheLevelSpec(32 * 1024, 8, 64).n_sets == 64

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            CacheLevelSpec(32, 8, 64).n_sets


class TestSetAssocLevel:
    def test_repeat_access_hits(self):
        lvl = _SetAssocLevel(CacheLevelSpec(512, 2, 64))
        assert lvl.access(5) is False
        assert lvl.access(5) is True
        assert lvl.misses == 1

    def test_lru_eviction(self):
        lvl = _SetAssocLevel(CacheLevelSpec(512, 2, 64))  # 4 sets, 2 ways
        # three lines in the same set (stride = n_sets)
        a, b, c = 0, 4, 8
        lvl.access(a)
        lvl.access(b)
        lvl.access(c)          # evicts a (LRU)
        assert lvl.access(b) is True
        assert lvl.access(a) is False  # was evicted

    def test_distinct_sets_do_not_conflict(self):
        lvl = _SetAssocLevel(CacheLevelSpec(512, 2, 64))
        for line in range(4):
            lvl.access(line)
        assert all(lvl.access(line) for line in range(4))


class TestTLB:
    def test_lru_and_capacity(self):
        tlb = _TLB(TLBSpec(2, 4096))
        tlb.access(1)
        tlb.access(2)
        assert tlb.access(1) is True
        tlb.access(3)          # evicts 2 (LRU after 1 was refreshed)
        assert tlb.access(2) is False
        assert tlb.misses == 4


class TestCacheSim:
    def test_sequential_scan_misses_once_per_line(self):
        sim = CacheSim(tiny_spec())
        addrs = np.arange(0, 64, 8, dtype=np.int64)  # one line of 8B items
        sim.access(addrs)
        assert sim.l1_misses == 1

    def test_streaming_collapses_duplicates(self):
        sim = CacheSim(tiny_spec())
        sim.access(np.zeros(100, dtype=np.int64))
        assert sim.accesses == 1

    def test_scalar_access(self):
        sim = CacheSim(tiny_spec())
        sim.access(4096)
        assert sim.l1_misses == 1 and sim.tlb_misses == 1

    def test_l1_capacity_misses_hit_in_l2(self):
        sim = CacheSim(tiny_spec())
        # touch more lines than L1 holds but fewer than L2
        addrs = np.arange(0, 1024, 64, dtype=np.int64)  # 16 lines; L1 = 8
        sim.access(addrs)
        sim.access(addrs)
        # second pass: all L1 capacity misses hit in L2
        assert sim.l2.misses == 16
        assert sim.l1.misses > 16

    def test_levels_are_not_inclusive(self):
        """L2 sees only L1's misses and evicts nothing from L1, so a line
        kept hot in L1 ages out of L2 while L1 still holds it."""
        sim = CacheSim(tiny_spec())
        for k in range(1, 6):
            # lines 0 and 8k share L1 set 0 (2 ways) and L2 set 0 (4 ways)
            sim.access(np.array([0, 8 * k]) * sim.line_bytes)
        assert sim.l1.access(0) is True
        assert sim.l2.access(0) is False

    def test_empty_batch(self):
        sim = CacheSim(tiny_spec())
        sim.access(np.empty(0, dtype=np.int64))
        assert sim.accesses == 0

    def test_snapshot_keys(self):
        sim = CacheSim(tiny_spec())
        sim.access(0)
        snap = sim.snapshot()
        assert set(snap) == {"accesses", "l1_misses", "l2_misses",
                             "l3_misses", "tlb_misses"}

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200))
    def test_misses_bounded_by_accesses(self, raw):
        sim = CacheSim(tiny_spec())
        sim.access(np.asarray(raw, dtype=np.int64))
        assert sim.l1_misses <= sim.accesses
        assert sim.l2_misses <= sim.l1_misses
        assert sim.l3_misses <= sim.l2_misses

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=100))
    def test_second_identical_pass_never_increases_l3(self, raw):
        """A working set rescan can only hit closer to the core."""
        addrs = np.asarray(raw, dtype=np.int64)
        sim = CacheSim(tiny_spec())
        sim.access(addrs)
        first = sim.l3_misses
        sim.access(addrs)
        second = sim.l3_misses - first
        assert second <= first
