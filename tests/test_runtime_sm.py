"""Unit tests for the simulated shared-memory runtime and scheduling."""

import numpy as np
import pytest

from repro.machine.cost_model import XC30
from repro.machine.memory import CountingMemory
from repro.runtime.frontier import ThreadLocalFrontiers
from repro.runtime.scheduler import assign, dynamic_chunks, static_chunks
from repro.runtime.sm import OwnershipViolation, SMRuntime

from tests.conftest import make_runtime


class TestScheduler:
    def test_static_contiguous(self):
        chunks = static_chunks(np.arange(10), 3)
        assert [list(c) for c in chunks] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_dynamic_round_robin(self):
        chunks = dynamic_chunks(np.arange(10), 2, chunk=2)
        assert list(chunks[0]) == [0, 1, 4, 5, 8, 9]
        assert list(chunks[1]) == [2, 3, 6, 7]

    def test_both_cover_exactly(self):
        items = np.arange(57)
        for schedule in ("static", "dynamic"):
            chunks = assign(items, 5, schedule, chunk=4)
            merged = np.sort(np.concatenate([c for c in chunks]))
            assert np.array_equal(merged, items)

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            assign(np.arange(3), 2, "guided")

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            dynamic_chunks(np.arange(3), 2, chunk=0)

    def test_empty_items(self):
        chunks = dynamic_chunks(np.empty(0, dtype=np.int64), 3)
        assert all(len(c) == 0 for c in chunks)


class TestSMRuntime:
    def test_for_each_thread_passes_owned_blocks(self, er_graph):
        rt = make_runtime(er_graph, P=4)
        seen = []

        def body(t, vs):
            seen.append((t, vs.copy()))

        rt.for_each_thread(body)
        assert [t for t, _ in seen] == [0, 1, 2, 3]
        allv = np.concatenate([vs for _, vs in seen])
        assert np.array_equal(np.sort(allv), np.arange(er_graph.n))

    def test_region_time_is_max_over_threads(self, er_graph):
        rt = make_runtime(er_graph, P=2)
        # a tiny array stays inside the scaled L1, so reads cost w_read only
        h = rt.mem.register("x", np.zeros(32))

        def body(t, vs):
            # thread 1 does 10x the reads of thread 0
            rt.mem.read(h, count=100 if t == 0 else 1000)

        before = rt.time
        rt.for_each_thread(body)
        span = rt.time - before
        expected = 1000 * rt.machine.w_read + rt.machine.w_barrier
        assert span == pytest.approx(expected)

    def test_barrier_counted_per_thread(self, er_graph):
        rt = make_runtime(er_graph, P=3)
        rt.barrier()
        assert all(c.barriers == 1 for c in rt.thread_counters)

    def test_parallel_for_by_owner(self, er_graph):
        rt = make_runtime(er_graph, P=4)
        routed = {}

        def body(t, vs):
            routed[t] = vs

        items = np.array([0, er_graph.n - 1])
        rt.parallel_for(items, body, by_owner=True)
        assert 0 in routed[0] and er_graph.n - 1 in routed[3]

    def test_sequential_charges_one_thread(self, er_graph):
        rt = make_runtime(er_graph, P=4)
        h = rt.mem.register("x", np.zeros(32))
        before = rt.time
        rt.sequential(lambda: rt.mem.read(h, count=50))
        assert rt.thread_counters[0].reads == 50
        assert rt.time - before == pytest.approx(
            50 * rt.machine.w_read + rt.machine.w_barrier)

    def test_ownership_violation_raised(self, er_graph):
        rt = make_runtime(er_graph, P=2, check_ownership=True)

        def body(t, vs):
            if t == 0:
                rt.owned_write_check(er_graph.n - 1)  # owned by thread 1

        with pytest.raises(OwnershipViolation):
            rt.for_each_thread(body)

    def test_ownership_check_disabled_by_default(self, er_graph):
        rt = make_runtime(er_graph, P=2)

        def body(t, vs):
            rt.owned_write_check(er_graph.n - 1)

        rt.for_each_thread(body)  # must not raise

    def test_reset(self, er_graph):
        rt = make_runtime(er_graph, P=2)
        rt.barrier()
        rt.reset()
        assert rt.time == 0.0
        assert rt.total_counters().barriers == 0

    def test_reset_rebinds_accounting_to_thread_0(self, er_graph):
        """Events issued after reset() must land on thread 0, not on
        whichever thread happened to execute last before the reset."""
        rt = make_runtime(er_graph, P=4)
        h = rt.mem.register("x", np.zeros(32))
        rt.for_each_thread(lambda t, vs: None)   # leaves thread 3 active
        rt.reset()
        assert rt._active_thread is None
        rt.mem.read(h, count=7)
        assert rt.thread_counters[0].reads == 7
        assert all(c.reads == 0 for c in rt.thread_counters[1:])

    def test_rerun_after_reset_is_exact(self, er_graph):
        """reset() also drops the memory model's sub-miss residues, so a
        rerun on the reset runtime reproduces the first run exactly."""
        from repro.algorithms import pagerank

        rt = make_runtime(er_graph, P=4)
        runs = []
        for _ in range(2):
            pagerank(er_graph, rt, direction="pull", iterations=2)
            runs.append(([c.copy() for c in rt.thread_counters], rt.time))
            rt.reset()
        assert runs[1] == runs[0]

    def test_reset_rearms_tracer_sinks(self, er_graph, tmp_path):
        """reset() must reset attached sink state, not just the
        tracer's own baselines: the buffer clears, the rollup
        accumulators zero, and a streaming file truncates back to its
        header line (a reused runtime must not leak the previous run's
        events into any sink)."""
        from repro.observability.export import _dumps
        from repro.observability.sinks import (
            BufferSink, JsonlStreamSink, RollupSink,
        )
        from repro.observability.tracer import attach_tracer

        rt = make_runtime(er_graph, P=2)
        buf, roll = BufferSink(), RollupSink()
        stream = JsonlStreamSink(str(tmp_path / "events.jsonl"))
        tracer = attach_tracer(rt, sinks=[buf, roll, stream])
        rt.for_each_thread(lambda t, vs: None)
        rt.barrier()
        assert buf.events and roll.rollup()["steps"]
        rt.reset()
        assert buf.events == []
        assert roll.rollup()["steps"] == []
        assert sum(roll.traced_totals().to_dict().values()) == 0
        stream.close()
        assert (tmp_path / "events.jsonl").read_text() == \
            _dumps(tracer.meta()) + "\n"

    def test_ownership_violation_on_non_owned_pull_write(self, er_graph):
        """A pull kernel writing a remote vertex trips the Section-3.8
        assertion at the exact offending write."""
        rt = make_runtime(er_graph, P=4, check_ownership=True)
        x = np.zeros(er_graph.n)
        h = rt.mem.register("pull.x", x)

        def pull_body(t, vs):
            victim = (int(vs[-1]) + 1) % er_graph.n   # next block's vertex
            rt.owned_write_check(victim)
            x[victim] = 1.0
            rt.mem.write(h, idx=victim, mode="rand")

        with pytest.raises(OwnershipViolation, match="non-owned vertex"):
            rt.for_each_thread(pull_body)

    def test_shipped_pull_kernels_respect_ownership(self, er_graph):
        """The real pull variants run clean under check_ownership."""
        from repro.algorithms import boman_coloring, pagerank, triangle_count

        for algo in (lambda rt: pagerank(er_graph, rt, direction="pull",
                                         iterations=3),
                     lambda rt: triangle_count(er_graph, rt, direction="pull"),
                     lambda rt: boman_coloring(er_graph, rt,
                                               direction="pull")):
            algo(make_runtime(er_graph, P=4, check_ownership=True))

    def test_default_memory_model(self, er_graph):
        rt = SMRuntime(er_graph, P=2, machine=XC30)
        assert isinstance(rt.mem, CountingMemory)


class TestFrontiers:
    def test_merge_dedups_and_sorts(self):
        f = ThreadLocalFrontiers(2)
        f.extend(0, [5, 3])
        f.extend(1, [3, 1])
        assert list(f.merge()) == [1, 3, 5]

    def test_merge_without_dedup_sorts(self):
        f = ThreadLocalFrontiers(2)
        f.extend(0, [5, 3])
        f.extend(1, [1])
        assert list(f.merge(dedup=False)) == [1, 3, 5]

    def test_merge_clears(self):
        f = ThreadLocalFrontiers(1)
        f.add(0, 1)
        f.merge()
        assert list(f.merge()) == []

    def test_merge_counts_filter_cost(self):
        mem = CountingMemory()
        h = mem.register("f", 100, 8)
        f = ThreadLocalFrontiers(2)
        f.extend(0, [1, 2])
        f.extend(1, [3])
        f.merge(mem, handle=h)
        assert mem.counters.reads == 3 and mem.counters.writes == 3

    def test_sizes(self):
        f = ThreadLocalFrontiers(2)
        f.extend(0, [1, 2])
        assert f.sizes() == [2, 0]
