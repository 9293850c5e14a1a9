"""Differential check of :class:`CountingMemory`'s scalar fast path.

``CountingMemory._touch`` memoizes the quantized miss increments of
whole-array accesses, keeps the current lane's accumulator between
calls, and moves whole misses into the counters only when a slot
reaches the fixed-point grid.  The reference below is the per-call
accounting that computes every increment afresh and flushes after
every call (a test-local copy, together with the descriptor rule
``_count``).  Seeded random verb streams run through both models and
every counter and every lane's residue is compared after every call;
the same accesses replayed through one ``touch_batch`` call per lane,
array and mode must land on the same totals, and single ``touch_batch``
ops (whole-array, ascending, descending and one-segment) must match one
reference ``_touch`` per segment op by op.  No Hypothesis, so the suite
runs where only NumPy and pytest are installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import memory
from repro.machine.cache import CacheHierarchySpec, CacheLevelSpec, TLBSpec
from repro.machine.counters import PerfCounters
from repro.machine.memory import _PAGE, CountingMemory, MemoryModel

#: a small hierarchy whose TLB reach (8 KiB) sits between L2 and L3
SMALL = CacheHierarchySpec(l1=CacheLevelSpec(1024, 2),
                           l2=CacheLevelSpec(4096, 4),
                           l3=CacheLevelSpec(16384, 4),
                           tlb=TLBSpec(2, 4096))
HIERARCHIES = {"small": SMALL, "default": CacheHierarchySpec()}
VERBS = ("read", "write", "faa", "cas", "lock")
MISSES = ("l1_misses", "l2_misses", "l3_misses", "tlb_d_misses")
N_LANES = 3


def ref_count(idx, count) -> int:
    """Reference ``(idx, count)`` descriptor rule."""
    if count is not None:
        return int(count)
    if idx is None:
        return 1
    if np.isscalar(idx):
        return 1
    return int(np.asarray(idx).size)


class ReferenceCounting(MemoryModel):
    """Per-call analytic accounting: increments computed afresh on
    every access, one accumulator lookup per call, a flush after every
    call."""

    _QUANTUM = float(1 << 20)

    def __init__(self, hierarchy: CacheHierarchySpec) -> None:
        super().__init__()
        self.hier = hierarchy
        self._line = self.hier.l1.line_bytes
        self._acc: dict[int, list] = {}

    def _acc_for(self, counters: PerfCounters) -> list:
        acc = self._acc.get(id(counters))
        if acc is None:
            acc = self._acc[id(counters)] = [0, 0, 0, 0, counters]
        return acc

    def _touch(self, handle, idx, n, mode, start=None) -> None:
        nbytes = handle.nbytes
        if mode == "rand" and idx is not None and not np.isscalar(idx):
            arr = np.asarray(idx)
            if arr.size > 1:
                span = int(arr.max() - arr.min() + 1) * handle.itemsize
                nbytes = min(nbytes, max(span, handle.itemsize))
        acc = self._acc_for(self.counters)
        q = self._QUANTUM
        if mode == "seq":
            lines = n * handle.itemsize / self._line
            ql = int(np.rint(lines * q))
            if nbytes > self.hier.l1.size_bytes:
                acc[0] += ql
            if nbytes > self.hier.l2.size_bytes:
                acc[1] += ql
            if nbytes > self.hier.l3.size_bytes:
                acc[2] += ql
            pages = n * handle.itemsize / _PAGE
            if nbytes > self.hier.tlb.entries * self.hier.tlb.page_bytes:
                acc[3] += int(np.rint(pages * q))
        else:
            acc[0] += int(np.rint(
                n * max(0.0, 1.0 - self.hier.l1.size_bytes / nbytes) * q))
            acc[1] += int(np.rint(
                n * max(0.0, 1.0 - self.hier.l2.size_bytes / nbytes) * q))
            acc[2] += int(np.rint(
                n * max(0.0, 1.0 - self.hier.l3.size_bytes / nbytes) * q))
            tlb_reach = self.hier.tlb.entries * self.hier.tlb.page_bytes
            acc[3] += int(np.rint(
                n * max(0.0, 1.0 - tlb_reach / nbytes) * q))
        self._flush(acc)

    @staticmethod
    def _flush(acc: list) -> None:
        counters = acc[4]
        grid = int(ReferenceCounting._QUANTUM)
        for slot, attr in enumerate(MISSES):
            whole = acc[slot] // grid
            if whole:
                setattr(counters, attr, getattr(counters, attr) + int(whole))
                acc[slot] -= whole * grid


def _register(mem, hier: CacheHierarchySpec) -> list:
    """Arrays whose footprints sit just below, at and just above every
    capacity (L1, L2, L3, TLB reach), plus tiny and huge ones; each item
    count is registered at two item sizes, so two arrays of one size
    differ only in ``itemsize``."""
    caps = (hier.l1.size_bytes, hier.l2.size_bytes, hier.l3.size_bytes,
            hier.tlb.entries * hier.tlb.page_bytes)
    sizes = sorted({c // 8 + d for c in caps for d in (-1, 0, 1)}
                   | {1, 3, 16 * max(caps) // 8})
    return [mem.register(f"a{itemsize}_{k}", k, itemsize)
            for itemsize in (8, 4) for k in sizes]


def _access(rng, h):
    """One random access descriptor: ``(idx, count, start)``."""
    kind = int(rng.integers(10))
    if kind == 0:
        return int(rng.integers(h.size)), None, None
    if kind == 1:
        return np.int64(rng.integers(h.size)), None, None
    if kind == 2:
        return np.int32(rng.integers(h.size)), None, None
    if kind == 3:
        return None, None, None
    if kind == 4:
        count = int(rng.integers(0, 20))
        return None, count, int(rng.integers(h.size))
    if kind == 5:
        return None, int(rng.integers(0, 40)), None
    if kind == 6:
        return np.empty(0, dtype=np.int64), None, None
    if kind == 7:
        return rng.integers(0, h.size, 1), None, None
    # two or more indices: clustered (a narrow span) or spread out
    k = int(rng.integers(2, 12))
    lo = int(rng.integers(h.size))
    width = int(rng.choice([k, 64, h.size]))
    idx = np.minimum(lo + rng.integers(0, width, k), h.size - 1)
    # the interpreter's count= override on an index array
    count = int(idx.size + rng.integers(0, 3)) if kind == 9 else None
    return idx, count, None


def _call(rng, h):
    """One random verb call: ``(verb, kwargs)``."""
    verb = str(rng.choice(VERBS))
    idx, count, start = _access(rng, h)
    kw = {"idx": idx, "count": count, "start": start}
    if rng.random() < 0.9:
        kw["mode"] = str(rng.choice(["seq", "rand", "rand", "cached"]))
    if verb in ("faa", "cas") and rng.random() < 0.3:
        kw["batched"] = True
    if verb == "cas" and rng.random() < 0.5:
        kw["successes"] = int(rng.integers(0, ref_count(idx, count) + 1))
    return verb, kw


def _residues(mem, lanes) -> list:
    return [list(mem._acc.get(id(c), [0, 0, 0, 0])[:4]) for c in lanes]


@pytest.mark.parametrize("hier_name", sorted(HIERARCHIES))
@pytest.mark.parametrize("seed", range(6))
def test_scalar_path_matches_reference_after_every_call(hier_name, seed):
    hier = HIERARCHIES[hier_name]
    rng = np.random.default_rng(seed)
    fast, ref = CountingMemory(hier), ReferenceCounting(hier)
    fast_h, ref_h = _register(fast, hier), _register(ref, hier)
    fast_lanes = [PerfCounters() for _ in range(N_LANES)]
    ref_lanes = [PerfCounters() for _ in range(N_LANES)]
    fast.set_counters(fast_lanes[0])
    ref.set_counters(ref_lanes[0])
    for step in range(1500):
        if rng.random() < 0.1:
            lane = int(rng.integers(N_LANES))
            fast.set_counters(fast_lanes[lane])
            ref.set_counters(ref_lanes[lane])
        k = int(rng.integers(len(fast_h)))
        verb, kw = _call(rng, fast_h[k])
        assert memory._count(kw["idx"], kw["count"]) == \
            ref_count(kw["idx"], kw["count"])
        getattr(fast, verb)(fast_h[k], **kw)
        getattr(ref, verb)(ref_h[k], **kw)
        assert [c.to_dict() for c in fast_lanes] == \
            [c.to_dict() for c in ref_lanes], (step, verb, kw)
        assert _residues(fast, fast_lanes) == _residues(ref, ref_lanes), \
            (step, verb, kw)


@pytest.mark.parametrize("hier_name", sorted(HIERARCHIES))
@pytest.mark.parametrize("seed", range(3))
def test_touch_batch_lands_on_the_same_totals(hier_name, seed):
    """Each lane's accesses to one array in one mode, replayed as one
    ``touch_batch`` call (one segment per access), give the per-call
    path's miss counters and residues."""
    hier = HIERARCHIES[hier_name]
    rng = np.random.default_rng(100 + seed)
    calls, batched = CountingMemory(hier), CountingMemory(hier)
    call_h, batch_h = _register(calls, hier), _register(batched, hier)
    call_lanes = [PerfCounters() for _ in range(N_LANES)]
    batch_lanes = [PerfCounters() for _ in range(N_LANES)]
    groups: dict[tuple, list] = {}
    lane = 0
    calls.set_counters(call_lanes[lane])
    for _ in range(800):
        if rng.random() < 0.1:
            lane = int(rng.integers(N_LANES))
            calls.set_counters(call_lanes[lane])
        k = int(rng.integers(len(call_h)))
        verb, kw = _call(rng, call_h[k])
        mode = kw.get("mode", "seq" if verb in ("read", "write") else "rand")
        if mode == "cached":   # the stream engine only caches reads
            continue
        getattr(calls, verb)(call_h[k], **kw)
        n = ref_count(kw["idx"], kw["count"])
        idx = (np.empty(0, dtype=np.int64) if kw["idx"] is None
               else np.asarray(kw["idx"], dtype=np.int64).ravel())
        groups.setdefault((lane, k, mode), []).append((n, idx))
    for (lane, k, mode), accesses in groups.items():
        batched.set_counters(batch_lanes[lane])
        counts = [n for n, _ in accesses]
        seg = np.cumsum([0] + [idx.size for _, idx in accesses])
        idx = np.concatenate([idx for _, idx in accesses])
        batched.touch_batch(batch_h[k], mode=mode, counts=counts,
                            idx=idx if mode == "rand" else None, seg=seg)
    assert [[getattr(c, m) for m in MISSES] for c in batch_lanes] == \
        [[getattr(c, m) for m in MISSES] for c in call_lanes]
    assert _residues(batched, batch_lanes) == _residues(calls, call_lanes)


@pytest.mark.parametrize("hier_name", sorted(HIERARCHIES))
@pytest.mark.parametrize("seed", range(4))
def test_whole_array_ops_match_per_call(hier_name, seed):
    """``touch_batch`` ops whose every segment is a whole-array access
    (no ``idx``, or at most one index per segment) against one per-call
    ``_touch`` per segment, with scalar verb calls in between: uniform
    counts take the memoized fast path, mixed counts the general one.
    Counters and residues must agree after every op."""
    hier = HIERARCHIES[hier_name]
    rng = np.random.default_rng(200 + seed)
    fast, ref = CountingMemory(hier), ReferenceCounting(hier)
    fast_h, ref_h = _register(fast, hier), _register(ref, hier)
    fast_lanes = [PerfCounters() for _ in range(N_LANES)]
    ref_lanes = [PerfCounters() for _ in range(N_LANES)]
    fast.set_counters(fast_lanes[0])
    ref.set_counters(ref_lanes[0])
    for step in range(400):
        if rng.random() < 0.1:
            lane = int(rng.integers(N_LANES))
            fast.set_counters(fast_lanes[lane])
            ref.set_counters(ref_lanes[lane])
        k = int(rng.integers(len(fast_h)))
        mode = str(rng.choice(["seq", "rand"]))
        if rng.random() < 0.3:
            # a scalar call, so the memo holds entries of both paths
            n = int(rng.integers(1, 5))
            fast.read(fast_h[k], count=n, mode=mode)
            ref.read(ref_h[k], count=n, mode=mode)
            continue
        nseg = int(rng.integers(1, 30))
        if rng.random() < 0.6:
            counts = np.full(nseg, int(rng.integers(0, 5)), dtype=np.int64)
        else:
            counts = rng.integers(0, 5, nseg)
        idx = seg = None
        if mode == "rand" and rng.random() < 0.7:
            sizes = (np.ones(nseg, dtype=np.int64) if rng.random() < 0.5
                     else rng.integers(0, 2, nseg))      # size 0 and 1
            idx = rng.integers(0, fast_h[k].size, int(sizes.sum()))
            seg = np.r_[0, np.cumsum(sizes)]
        fast.touch_batch(fast_h[k], mode=mode, counts=counts, idx=idx,
                         seg=seg)
        for j, n in enumerate(counts.tolist()):
            one = None if idx is None else idx[seg[j]:seg[j + 1]]
            ref._touch(ref_h[k], one, n, mode)
        assert [c.to_dict() for c in fast_lanes] == \
            [c.to_dict() for c in ref_lanes], (step, mode, counts)
        assert _residues(fast, fast_lanes) == _residues(ref, ref_lanes), \
            (step, mode, counts)


def _segment_calls(counts, idx, seg) -> list:
    """The per-call ``(idx, n)`` of each segment of one ``touch_batch``
    op: segment ``k`` names ``idx[seg[k]:seg[k + 1]]`` (``seg=None`` is
    one segment), and a count past the last segment, or any count of an
    op without ``idx``, is a whole-array access."""
    if idx is not None and seg is None:
        seg = [0, len(idx)]
    return [(idx[seg[k]:seg[k + 1]]
             if idx is not None and k + 1 < len(seg) else None, n)
            for k, n in enumerate(counts.tolist())]


def _span_op(rng, size: int, kind: str) -> tuple:
    """``(counts, idx, seg)`` of one random ``rand`` op over ``size``
    items.  ``one``: a single segment of 2-11 unsorted indices, as
    ``seg=None`` or ``[0, n]``, with one count or several.  Otherwise
    2-9 segments, each sorted (ties come from narrow windows), with
    empty and size-1 segments mixed in, leading and trailing ones
    included; half the ops rise across every segment start too, the
    rest restart at random (descents only at segment starts).
    ``descent`` then swaps one unequal adjacent pair inside a segment,
    at the segment's first pair half the time."""
    if kind == "one":
        k = int(rng.integers(2, 12))
        lo = int(rng.integers(size))
        idx = np.minimum(lo + rng.integers(0, int(rng.choice([k, size])), k),
                         size - 1)
        seg = None if rng.random() < 0.5 else np.array([0, k])
        extra = rng.integers(0, 5, 0 if rng.random() < 0.5
                             else int(rng.integers(1, 4)))
        return np.r_[k + rng.integers(0, 3), extra], idx, seg
    nseg = int(rng.integers(2, 10))
    sizes = rng.integers(2, 7, nseg)
    sizes[rng.random(nseg) < 0.25] = 0
    sizes[rng.random(nseg) < 0.25] = 1
    if rng.random() < 0.3:
        sizes[0] = 0
    if rng.random() < 0.3:
        sizes[-1] = 0
    width = int(rng.choice([3, 64, size]))
    rising = rng.random() < 0.5
    rows, lo = [], int(rng.integers(size))
    for n in sizes.tolist():
        if not rising:
            lo = int(rng.integers(size))
        row = np.sort(np.minimum(lo + rng.integers(0, width, n), size - 1))
        rows.append(row)
        if rising and n:
            lo = int(row[-1])
    if kind == "descent":
        pairs = [(r, j) for r, row in enumerate(rows)
                 for j in range(len(row) - 1) if row[j] < row[j + 1]]
        firsts = [(r, j) for r, j in pairs if j == 0]
        pick = firsts if firsts and rng.random() < 0.5 else pairs
        if pick:
            r, j = pick[int(rng.integers(len(pick)))]
            rows[r][[j, j + 1]] = rows[r][[j + 1, j]]
    counts = sizes + (rng.integers(0, 3, nseg) if rng.random() < 0.3 else 0)
    return (counts, np.concatenate(rows).astype(np.int64),
            np.r_[0, np.cumsum(sizes)])


def _descends_inside(idx, seg) -> bool:
    """Whether some segment holds a descending adjacent pair."""
    return any((np.diff(idx[a:b]) < 0).any()
               for a, b in zip(seg[:-1], seg[1:]))


@pytest.mark.parametrize("hier_name", sorted(HIERARCHIES))
@pytest.mark.parametrize("seed", range(4))
def test_span_ops_match_per_call(hier_name, seed):
    """``touch_batch`` ``rand`` ops with span-refined segments against
    one per-call ``_touch`` per segment, counters and residues compared
    after every op: ascending segments, the same with one descent
    inside a segment (a span is a segment's extremes, not its ends),
    and one-segment ops.  The arrays sit at, below and above every
    capacity, the smallest one included."""
    hier = HIERARCHIES[hier_name]
    rng = np.random.default_rng(300 + seed)
    fast, ref = CountingMemory(hier), ReferenceCounting(hier)
    fast_h, ref_h = _register(fast, hier), _register(ref, hier)
    floor = min(hier.l1.size_bytes, hier.l2.size_bytes, hier.l3.size_bytes,
                hier.tlb.entries * hier.tlb.page_bytes)
    assert {floor - 8, floor, floor + 8} <= {h.nbytes for h in fast_h}
    fast_lanes = [PerfCounters() for _ in range(N_LANES)]
    ref_lanes = [PerfCounters() for _ in range(N_LANES)]
    fast.set_counters(fast_lanes[0])
    ref.set_counters(ref_lanes[0])
    seen = {"one": 0, "ascending": 0, "descent": 0}
    for step in range(600):
        if rng.random() < 0.1:
            lane = int(rng.integers(N_LANES))
            fast.set_counters(fast_lanes[lane])
            ref.set_counters(ref_lanes[lane])
        k = int(rng.integers(len(fast_h)))
        kind = str(rng.choice(["one", "ascending", "descent"]))
        counts, idx, seg = _span_op(rng, fast_h[k].size, kind)
        if kind != "one":
            seen["descent" if _descends_inside(idx, seg) else "ascending"] += 1
        else:
            seen["one"] += 1
        fast.touch_batch(fast_h[k], mode="rand", counts=counts, idx=idx,
                         seg=seg)
        for one, n in _segment_calls(counts, idx, seg):
            ref._touch(ref_h[k], one, n, "rand")
        assert [c.to_dict() for c in fast_lanes] == \
            [c.to_dict() for c in ref_lanes], (step, kind, counts, idx, seg)
        assert _residues(fast, fast_lanes) == _residues(ref, ref_lanes), \
            (step, kind, counts, idx, seg)
    assert min(seen.values()) > 100, seen
    assert sum(c.l1_misses for c in fast_lanes) > 0


def test_flush_at_exact_grid():
    """A slot that reaches the grid exactly moves one whole miss."""
    mem = CountingMemory(SMALL)
    h = mem.register("big", 4096, 8)       # 32 KiB: past every level
    mem.read(h, count=8)                   # 64 B = one line, exactly
    assert mem.counters.l1_misses == mem.counters.l2_misses == \
        mem.counters.l3_misses == 1
    assert _residues(mem, [mem.counters])[0][:3] == [0, 0, 0]


def test_clear_residues_restarts_every_lane():
    """After ``clear_residues`` every lane, the current one included,
    accounts like a fresh model's."""
    mem, fresh = CountingMemory(SMALL), CountingMemory(SMALL)
    h, h_fresh = (m.register("big", 4096, 8) for m in (mem, fresh))
    lanes = [PerfCounters(), PerfCounters()]
    for c in lanes:
        mem.set_counters(c)
        mem.read(h, idx=3, mode="rand")
    assert all(any(r) for r in _residues(mem, lanes))
    mem.clear_residues(lanes)
    assert _residues(mem, lanes) == [[0, 0, 0, 0]] * 2
    mem.read(h, idx=3, mode="rand")        # still on lanes[1]
    fresh.read(h_fresh, idx=3, mode="rand")
    assert _residues(mem, lanes[1:]) == _residues(fresh, [fresh.counters])
