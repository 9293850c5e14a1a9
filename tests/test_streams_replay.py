"""Property-based certification of :class:`repro.streams.StreamMemory`.

The fast replay paths (vectorized analytic accounting, merged
cache-sim address batches) must be *exactly* equivalent to lowering
the same stream back to element-at-a-time ``MemoryModel`` calls.  The
oracle here is the replayer's own fallback path, forced by handing it
a trivial **subclass** of the real model -- the dispatch keys on the
exact type, so a subclass takes the per-call route over identical
accounting code.  Randomized streams (seeded, so failures replay) then
certify equivalence over the whole op vocabulary rather than just the
shapes today's kernels happen to emit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.cache import CacheHierarchySpec, CacheLevelSpec, TLBSpec
from repro.machine.memory import CacheSimMemory, CountingMemory
from repro.streams import StreamMemory, StreamOp, concat_ranges, rand_op, seq_op

#: a deliberately tiny hierarchy so modest arrays miss at every level
TINY = CacheHierarchySpec(l1=CacheLevelSpec(1024, 2),
                          l2=CacheLevelSpec(4096, 4),
                          l3=CacheLevelSpec(16384, 8),
                          tlb=TLBSpec(4, 4096))


class OracleCounting(CountingMemory):
    """Same accounting, different exact type: replay takes the
    element-at-a-time fallback instead of the vectorized fast path."""


class OracleCacheSim(CacheSimMemory):
    """Forces per-call ``sim.access`` instead of one merged batch."""


ARRAYS = (("frontier", 96, 8), ("state", 2048, 8), ("adj", 40_000, 4))


def _register(mem):
    return [mem.register(name, size, itemsize=itemsize)
            for name, size, itemsize in ARRAYS]


def _random_stream(rng, handles) -> list[StreamOp]:
    """A random op list spanning the whole StreamOp vocabulary."""
    ops = []
    for _ in range(int(rng.integers(1, 7))):
        verb = str(rng.choice(["read", "write", "faa", "cas", "lock"]))
        h = handles[int(rng.integers(len(handles)))]
        if rng.random() < 0.3:
            # streaming-range op (adjacency scans, owned-range writes)
            verb = str(rng.choice(["read", "write"]))
            nseg = int(rng.integers(1, 6))
            counts = rng.integers(0, 40, nseg)
            starts = (rng.integers(0, max(h.size // 2, 1), nseg)
                      if rng.random() < 0.5 else None)
            ops.append(seq_op(verb, h, counts, starts=starts))
            continue
        nseg = int(rng.integers(1, 6))
        sizes = rng.integers(0, 9, nseg)
        idx = rng.integers(0, h.size, int(sizes.sum()))
        seg = np.r_[0, np.cumsum(sizes)]
        counts = None
        if rng.random() < 0.3:
            # the interpreter's count= override (e.g. a 2-item offset
            # read issued at one scalar index)
            counts = sizes.copy()
            counts[sizes > 0] += rng.integers(0, 3, int((sizes > 0).sum()))
        mode = "rand"
        if verb == "read" and rng.random() < 0.2:
            mode = "cached"
        batched = verb in ("faa", "cas") and rng.random() < 0.5
        successes = None
        if verb == "cas" and rng.random() < 0.5:
            eff = counts if counts is not None else sizes
            successes = rng.integers(0, eff + 1)
        covers = None
        if verb in ("faa", "cas", "lock") and rng.random() < 0.3:
            other = handles[int(rng.integers(len(handles)))]
            covers = [(other, rng.integers(0, other.size, idx.size))]
        ops.append(rand_op(verb, h, idx, seg=seg, counts=counts, mode=mode,
                           batched=batched, successes=successes,
                           covers=covers))
    return ops


def _lockstep_stream(rng, handles) -> list[StreamOp]:
    """Ops sharing one segmentation, like a kernel body's per-vertex
    loop touching several arrays (the ``interleave=True`` shape)."""
    nseg = int(rng.integers(1, 8))
    sizes = rng.integers(0, 6, nseg)
    seg = np.r_[0, np.cumsum(sizes)]
    ops = []
    for verb in ("read", "faa", "write"):
        h = handles[int(rng.integers(len(handles)))]
        idx = rng.integers(0, h.size, int(sizes.sum()))
        ops.append(rand_op(verb, h, idx, seg=seg))
    return ops


class TestCountingEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_stream_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        fast, oracle = CountingMemory(TINY), OracleCounting(TINY)
        handles = _register(fast)
        _register(oracle)
        ops = _random_stream(rng, handles)
        StreamMemory(fast).replay(ops)
        StreamMemory(oracle).replay(ops)
        assert fast.counters.to_dict() == oracle.counters.to_dict()

    def test_misses_actually_accrue(self):
        # guard against vacuous equality: a big streaming read under
        # the tiny hierarchy must register misses at every level
        mem = CountingMemory(TINY)
        [_, _, adj] = _register(mem)
        StreamMemory(mem).replay(
            [seq_op("read", adj, counts=np.array([adj.size]))])
        d = mem.counters.to_dict()
        assert d["reads"] == adj.size
        assert d["l1_misses"] > 0 and d["tlb_d_misses"] > 0


class TestCacheSimEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_stream_matches_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        fast, oracle = CacheSimMemory(TINY), OracleCacheSim(TINY)
        handles = _register(fast)
        _register(oracle)
        ops = _random_stream(rng, handles)
        StreamMemory(fast).replay(ops)
        StreamMemory(oracle).replay(ops)
        assert fast.counters.to_dict() == oracle.counters.to_dict()

    @pytest.mark.parametrize("seed", range(15))
    def test_interleaved_replay_matches_lockstep_oracle(self, seed):
        rng = np.random.default_rng(2000 + seed)
        fast, oracle = CacheSimMemory(TINY), OracleCacheSim(TINY)
        handles = _register(fast)
        _register(oracle)
        ops = _lockstep_stream(rng, handles)
        StreamMemory(fast).replay(ops, interleave=True)
        StreamMemory(oracle).replay(ops, interleave=True)
        assert fast.counters.to_dict() == oracle.counters.to_dict()

    def test_merged_addresses_preserve_lockstep_order(self):
        mem = CacheSimMemory(TINY)
        a, b, _ = _register(mem)
        seg = np.array([0, 2, 3])
        op1 = rand_op("read", a, np.array([5, 6, 7]), seg=seg)
        op2 = rand_op("write", b, np.array([1, 2, 3]), seg=seg)
        merged = StreamMemory(mem)._merged_addresses([op1, op2],
                                                     interleave=True)
        # segment 0 of op1, segment 0 of op2, segment 1 of op1, ...
        expected = np.concatenate([
            a.addr([5, 6]), b.addr([1, 2]), a.addr([7]), b.addr([3])])
        assert np.array_equal(merged, expected)

    def test_groups_key_the_lockstep_slots(self):
        # op2 makes three scalar calls in slot 0 and one in slot 2: its
        # segments follow op1's segment of the same key, in order
        mem = CacheSimMemory(TINY)
        a, b, _ = _register(mem)
        op1 = rand_op("read", a, np.array([5, 6, 7]),
                      seg=np.array([0, 1, 2, 3]))
        op2 = rand_op("read", b, np.array([1, 2, 3, 4]),
                      seg=np.arange(5), groups=np.array([0, 0, 0, 2]))
        merged = StreamMemory(mem)._merged_addresses([op1, op2],
                                                     interleave=True)
        expected = np.concatenate([a.addr([5]), b.addr([1, 2, 3]),
                                   a.addr([6]), a.addr([7]), b.addr([4])])
        assert np.array_equal(merged, expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_grouped_replay_matches_lockstep_oracle(self, seed):
        # per-vertex slots: one scalar offset read, a variable number of
        # scalar state reads, and a write in some slots
        rng = np.random.default_rng(3000 + seed)
        fast, oracle = CacheSimMemory(TINY), OracleCacheSim(TINY)
        frontier, state, adj = _register(fast)
        _register(oracle)
        nslot = int(rng.integers(1, 30))
        per = rng.integers(0, 5, nslot)
        wrote = np.flatnonzero(rng.random(nslot) < 0.5)
        ops = [
            rand_op("read", frontier, rng.integers(0, frontier.size, nslot),
                    seg=np.arange(nslot + 1), counts=np.full(nslot, 2)),
            rand_op("read", adj, rng.integers(0, adj.size, int(per.sum())),
                    seg=np.arange(int(per.sum()) + 1),
                    groups=np.repeat(np.arange(nslot), per)),
            rand_op("write", state, rng.integers(0, state.size, len(wrote)),
                    seg=np.arange(len(wrote) + 1), groups=wrote),
        ]
        StreamMemory(fast).replay(ops, interleave=True)
        StreamMemory(oracle).replay(ops, interleave=True)
        assert fast.counters.to_dict() == oracle.counters.to_dict()


class TestCachedNeverMisses:
    """``cached`` data is resident whatever the verb: the fast replay
    paths skip it, and the per-call verbs of the oracle lowering must
    agree."""

    VERBS = ("read", "write", "faa", "cas", "lock")

    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("fast_cls, oracle_cls", [
        (CountingMemory, OracleCounting), (CacheSimMemory, OracleCacheSim)])
    def test_cached_op_same_on_every_path(self, verb, fast_cls, oracle_cls):
        seen = []
        for cls in (fast_cls, oracle_cls):
            mem = cls(CacheHierarchySpec())
            h = mem.register("big", 100_000, 8)           # 800 KB
            StreamMemory(mem).replay([rand_op(
                verb, h, [5, 7, 99999], seg=[0, 1, 2, 3], mode="cached")])
            seen.append(mem.counters.to_dict())
        assert seen[0] == seen[1]
        assert seen[0]["l1_misses"] == seen[0]["tlb_d_misses"] == 0

    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("cls", [CountingMemory, CacheSimMemory])
    def test_direct_cached_verb_charges_no_misses(self, verb, cls):
        mem = cls(CacheHierarchySpec())
        h = mem.register("big", 100_000, 8)
        getattr(mem, verb)(h, idx=np.array([5, 7, 99999]), mode="cached")
        d = mem.counters.to_dict()
        assert (d["l1_misses"], d["l2_misses"], d["l3_misses"],
                d["tlb_d_misses"]) == (0, 0, 0, 0)
        assert d["reads"] + d["writes"] >= 3   # still issued


class TestTallyRules:
    """Per-op counter deltas replicate the MemoryModel verb rules."""

    def _delta(self, op) -> dict:
        mem = CountingMemory(TINY)
        StreamMemory(mem).replay([op])
        return {k: v for k, v in mem.counters.to_dict().items() if v}

    def test_cas_successes_override_write_count(self):
        _, state, _ = _register(CountingMemory(TINY))
        op = rand_op("cas", state, np.arange(6),
                     seg=np.array([0, 3, 6]), successes=np.array([2, 0]))
        d = self._delta(op)
        assert d["cas"] == 6 and d["atomics"] == 6 and d["reads"] == 6
        assert d["writes"] == 2
        assert d["branches_uncond"] == 6

    def test_batched_faa_is_discount_tagged(self):
        mem = CountingMemory(TINY)
        _, state, _ = _register(mem)
        op = rand_op("faa", state, np.arange(5), batched=True)
        d = self._delta(op)
        assert d["faa"] == 5 and d["atomics_batched"] == 5
        assert d["reads"] == 5 and d["writes"] == 5

    def test_lock_costs_word_read_and_write(self):
        mem = CountingMemory(TINY)
        _, state, _ = _register(mem)
        d = self._delta(rand_op("lock", state, np.arange(4)))
        assert d["locks"] == 4 and d["reads"] == 4 and d["writes"] == 4

    def test_cached_read_counts_loads_but_never_misses(self):
        mem = CountingMemory(TINY)
        _, _, adj = _register(mem)
        StreamMemory(mem).replay(
            [rand_op("read", adj, np.arange(100), mode="cached")])
        d = mem.counters.to_dict()
        assert d["reads"] == 100 and d["l1_misses"] == 0


class TestStreamOpContract:
    def test_unknown_verb_rejected(self):
        mem = CountingMemory(TINY)
        h = mem.register("x", 8)
        with pytest.raises(ValueError, match="unknown stream verb"):
            StreamOp("prefetch", h, idx=np.arange(3))

    def test_idx_or_counts_required(self):
        mem = CountingMemory(TINY)
        h = mem.register("x", 8)
        with pytest.raises(ValueError, match="idx .* or counts"):
            StreamOp("read", h)

    # a malformed segmentation names the verb and the array
    def test_seg_must_start_at_zero(self):
        h = CountingMemory(TINY).register("x", 8)
        with pytest.raises(ValueError, match="read .* 'x': seg must start"):
            rand_op("read", h, np.arange(4), seg=np.array([1, 2, 4]))

    def test_seg_must_end_at_len_idx(self):
        h = CountingMemory(TINY).register("x", 8)
        with pytest.raises(ValueError, match="faa .* 'x': seg ends at 3"):
            rand_op("faa", h, np.arange(4), seg=np.array([0, 2, 3]))

    def test_counts_must_match_segments(self):
        h = CountingMemory(TINY).register("x", 8)
        with pytest.raises(ValueError, match="cas .* 'x': 3 counts for 2"):
            rand_op("cas", h, np.arange(4), seg=np.array([0, 2, 4]),
                    counts=np.array([2, 2, 1]))

    def test_seq_starts_must_match_counts(self):
        h = CountingMemory(TINY).register("x", 8)
        with pytest.raises(ValueError, match="write .* 'x': 2 starts for 3"):
            seq_op("write", h, counts=np.array([3, 1, 2]),
                   starts=np.array([0, 4]))

    def test_default_segmentation_is_one_segment(self):
        mem = CountingMemory(TINY)
        h = mem.register("x", 8)
        op = rand_op("read", h, np.array([3, 1, 2]))
        assert op.nseg == 1 and op.total == 3
        assert np.array_equal(op.seg, [0, 3])

    def test_counts_default_to_segment_sizes(self):
        mem = CountingMemory(TINY)
        h = mem.register("x", 8)
        op = rand_op("read", h, np.arange(5), seg=np.array([0, 2, 2, 5]))
        assert np.array_equal(op.counts, [2, 0, 3])
        assert np.array_equal(op.address_seg_ids(), [0, 0, 2, 2, 2])

    def test_replay_tolerates_nones_and_empty(self):
        mem = CountingMemory(TINY)
        h = mem.register("x", 8)
        sm = StreamMemory(mem)
        sm.replay([])
        sm.replay([None, rand_op("read", h, np.arange(2)), None])
        assert mem.counters.to_dict()["reads"] == 2


class TestConcatRanges:
    def test_matches_python_loop(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(0, 8))
            starts = rng.integers(0, 100, n)
            counts = rng.integers(0, 10, n)
            expected = (np.concatenate(
                [np.arange(s, s + c) for s, c in zip(starts, counts)])
                if n and counts.sum() else np.empty(0, dtype=np.int64))
            assert np.array_equal(concat_ranges(starts, counts), expected)

    def test_empty(self):
        assert concat_ranges([], []).size == 0
