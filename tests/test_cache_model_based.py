"""Model-based testing of the cache simulator against a reference LRU."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.machine.cache import (
    _SMALL, CacheHierarchySpec, CacheLevelSpec, CacheSim, TLBSpec,
    _SetAssocLevel,
)
from repro.machine.cost_model import XC30
from repro.machine.memory import CacheSimMemory
from tests.test_cache import tiny_spec


class _ReferenceLRU:
    """Dead-simple per-set LRU model to check the array implementation."""

    def __init__(self, n_sets: int, ways: int) -> None:
        self.n_sets = n_sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(n_sets)]
        self.misses = 0

    def access(self, line: int) -> bool:
        s = self.sets[line % self.n_sets]
        if line in s:
            s.move_to_end(line)
            return True
        self.misses += 1
        if len(s) >= self.ways:
            s.popitem(last=False)
        s[line] = None
        return False


class CacheAgainstModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        spec = CacheLevelSpec(1024, 2, 64)   # 8 sets x 2 ways
        self.impl = _SetAssocLevel(spec)
        self.model = _ReferenceLRU(spec.n_sets, spec.ways)

    @rule(line=st.integers(0, 255))
    def access(self, line):
        assert self.impl.access(line) == self.model.access(line)
        assert self.impl.misses == self.model.misses


TestCacheAgainstModel = CacheAgainstModel.TestCase


class TestSweeps:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 511), min_size=1, max_size=300),
           st.sampled_from([1, 2, 4]))
    def test_random_traces_match_model(self, trace, ways):
        spec = CacheLevelSpec(64 * ways * 4, ways, 64)  # 4 sets
        impl = _SetAssocLevel(spec)
        model = _ReferenceLRU(spec.n_sets, ways)
        for line in trace:
            assert impl.access(line) == model.access(line)
        assert impl.misses == model.misses

    def test_capacity_scaling_reduces_misses_on_cyclic_trace(self):
        """A cyclic working set that thrashes a small cache fits a big one."""
        trace = list(range(12)) * 20
        misses = {}
        for ways in (1, 2, 16):
            impl = _SetAssocLevel(CacheLevelSpec(ways * 4 * 64, ways, 64))
            for line in trace:
                impl.access(line)
            misses[ways] = impl.misses
        # 16 ways x 4 sets holds all 12 lines: only cold misses remain
        assert misses[16] == 12
        assert misses[1] > misses[16]


class _ReferenceSim:
    """Per-line reference for :class:`CacheSim`: each collapsed line
    goes to the TLB and L1 one at a time, to L2 on an L1 miss and to L3
    on an L2 miss."""

    def __init__(self, spec: CacheHierarchySpec,
                 l3: _ReferenceLRU | None = None) -> None:
        self.line_bytes = spec.l1.line_bytes
        self.page_bytes = spec.tlb.page_bytes
        self.l1 = _ReferenceLRU(spec.l1.n_sets, spec.l1.ways)
        self.l2 = _ReferenceLRU(spec.l2.n_sets, spec.l2.ways)
        self.l3 = l3 or _ReferenceLRU(spec.l3.n_sets, spec.l3.ways)
        self.tlb = OrderedDict()
        self.tlb_entries = spec.tlb.entries
        self.tlb_misses = 0
        self.accesses = 0

    def access(self, addrs) -> None:
        prev = None
        for a in np.atleast_1d(addrs).tolist():
            line = a // self.line_bytes
            if line == prev:
                continue
            prev = line
            self.accesses += 1
            self._tlb_access(a // self.page_bytes)
            if not self.l1.access(line) and not self.l2.access(line):
                self.l3.access(line)

    def _tlb_access(self, page: int) -> None:
        if page in self.tlb:
            self.tlb.move_to_end(page)
            return
        self.tlb_misses += 1
        if len(self.tlb) >= self.tlb_entries:
            self.tlb.popitem(last=False)
        self.tlb[page] = None

    def counts(self) -> tuple:
        return (self.accesses, self.l1.misses, self.l2.misses,
                self.l3.misses, self.tlb_misses)


def _counts(sim: CacheSim) -> tuple:
    return (sim.accesses, sim.l1.misses, sim.l2.misses, sim.l3.misses,
            sim.tlb.misses)


def _batches(rng: np.random.Generator, spec: CacheHierarchySpec,
             n_calls: int):
    """Seeded address batches: streaming runs, random gathers, scalars,
    a hot line interleaved with a stream, same-page runs split across
    two calls, ``range`` scans, NumPy scalars and 0-d arrays, and
    arrays at the small-array cutoff.  Streams cover eight L3s, gathers
    eight L3s or two L2s, the hot line's stream two L2s, so every level
    both hits and misses."""
    # 8-byte element index ranges spanning eight L3s and two L2s
    far, near = spec.l3.size_bytes, spec.l2.size_bytes // 4
    page = spec.tlb.page_bytes
    for _ in range(n_calls):
        kind = rng.integers(8)
        base = int(rng.integers(0, far)) * 8
        if kind == 0:    # streaming run, with repeated elements
            itemsize = int(rng.choice([4, 8]))
            idx = np.arange(int(rng.integers(1, 300)), dtype=np.int64)
            yield np.repeat(base + idx * itemsize, rng.integers(1, 3, idx.size))
        elif kind == 1:  # random gather
            span = far if rng.integers(2) else near
            yield rng.integers(0, span, int(rng.integers(1, 120))) * 8
        elif kind == 2:  # scalar, Python or NumPy
            yield base if rng.integers(2) else np.int64(base)
        elif kind == 3:  # a hot line between the elements of a stream
            stream = rng.integers(0, near) * 8 + np.arange(
                0, int(rng.integers(2, 40)) * 64, 64, dtype=np.int64)
            hot = np.full(stream.size, rng.integers(0, near) * 8)
            yield np.column_stack([hot, stream]).ravel()
        elif kind == 4:  # one page, split mid-line across two calls
            first = base - base % page
            run = first + np.arange(0, page, 8, dtype=np.int64)
            cut = int(rng.integers(1, run.size))
            yield run[:cut]
            yield run[cut:]
        elif kind == 5:  # a range scan: unaligned, page-crossing, empty
            step = int(rng.choice([4, 8]))
            start = base + int(rng.integers(step))
            if rng.integers(2):  # end just past a page boundary
                stop = start - start % page + page * int(rng.integers(1, 3)) + 8
            else:
                stop = start + step * int(rng.integers(0, 400))
            yield range(start, stop, step)
        elif kind == 6:  # NumPy integer scalars and 0-d arrays
            yield (np.uint64(base), np.int32(base), np.array(base),
                   np.array(base, dtype=np.int32))[rng.integers(4)]
        else:            # just under, at and over the small-array cutoff
            n = _SMALL + int(rng.integers(-1, 2))
            yield base + np.sort(rng.integers(0, 64 * n, n)) * 8


class TestHierarchyAgainstReference:
    """``CacheSim.access`` (one walk per line down L1, L2, L3; ``range``,
    scalar and small-array inputs turned into lines without NumPy)
    against the per-line reference: the totals and each call's returned
    miss deltas, compared after every call."""

    def _replay(self, spec: CacheHierarchySpec, n_sims: int, seed: int) -> None:
        sims = [CacheSim(spec) for _ in range(n_sims)]
        refs = [_ReferenceSim(spec)]
        for sim in sims[1:]:
            # wired like CacheSimMemory(shared_l3=True)
            sim.l3 = sims[0].l3
            refs.append(_ReferenceSim(spec, l3=refs[0].l3))
        rng = np.random.default_rng(seed)
        for call, addrs in enumerate(_batches(rng, spec, 600)):
            k = int(rng.integers(n_sims))
            before = refs[k].counts()
            got = sims[k].access(addrs)
            refs[k].access(addrs)
            want = tuple(b - a for a, b in zip(before, refs[k].counts()))
            assert got == want[1:], f"call {call}"
            for sim, ref in zip(sims, refs):
                assert _counts(sim) == ref.counts(), f"call {call}"
        assert all(ref.l3.misses > 0 and ref.tlb_misses > 0 for ref in refs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_spec(self, seed):
        self._replay(tiny_spec(), 1, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scaled_xc30(self, seed):
        # one-set 8-way L1 and an 8-entry TLB
        self._replay(XC30.scaled(64).hierarchy, 1, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_sims_share_one_l3(self, seed):
        self._replay(XC30.scaled(64).hierarchy, 2, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pages_split_lines(self, seed):
        """Pages of 1,000 bytes split lines, so a ``range`` takes the
        array path: a line's page is the page of its first address."""
        spec = CacheHierarchySpec(
            l1=CacheLevelSpec(512, 2, 64), l2=CacheLevelSpec(2048, 4, 64),
            l3=CacheLevelSpec(8192, 4, 64), tlb=TLBSpec(4, 1000))
        self._replay(spec, 1, seed)

    def test_wide_and_backward_ranges(self):
        """Steps over one line, and negative steps, take the array path."""
        spec = tiny_spec()
        sim, ref = CacheSim(spec), _ReferenceSim(spec)
        for addrs in (range(0, 9000, 100), range(9000, 0, -8),
                      range(4000, 4100, 64), range(64, 0, -1), range(5, 5)):
            sim.access(addrs)
            ref.access(np.arange(addrs.start, addrs.stop, addrs.step))
            assert _counts(sim) == ref.counts(), addrs


class TestScanDescriptors:
    """A streaming ``read(h, count=n, start=s)`` reaches the simulator
    as a ``range``; the same items as an index array must leave every
    counter the same, after every call."""

    @pytest.mark.parametrize("itemsize", [4, 8])
    def test_range_equals_index_array(self, itemsize):
        spec = XC30.scaled(64).hierarchy
        scan, gather = CacheSimMemory(spec), CacheSimMemory(spec)
        hs = scan.register("x", 200_000, itemsize=itemsize)
        hg = gather.register("x", 200_000, itemsize=itemsize)
        rng = np.random.default_rng(itemsize)
        for call in range(300):
            n = int(rng.choice([0, 1, 2, _SMALL, _SMALL + 1,
                                int(rng.integers(1, 3000))]))
            s = int(rng.integers(0, 200_000 - n))
            scan.read(hs, count=n, start=s)
            gather.read(hg, idx=np.arange(s, s + n), mode="seq")
            assert (scan.counters.to_dict()
                    == gather.counters.to_dict()), f"call {call}"
        assert scan.counters.l3_misses > 0 and scan.counters.tlb_d_misses > 0
