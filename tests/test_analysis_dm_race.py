"""Tests for the DM epoch checker (repro.analysis.dm_race).

Each of the four rules gets a seeded-bug test (the violation must be
flagged) and a matching clean test (the disciplined version of the same
access pattern must not be).  The shipped ``dm_*`` kernels run clean
under the checker, and a dropped flush in a real kernel is caught.
"""

import numpy as np
import pytest

from repro.algorithms.dm_pagerank import dm_pagerank
from repro.algorithms.dm_triangle import dm_triangle_count
from repro.analysis.crosscheck import dm_crosscheck
from repro.analysis.dm_race import attach_dm_race_detector
from repro.analysis.runner import DM_MATRIX, analyze_dm
from repro.analysis.race import RaceError
from repro.generators import erdos_renyi
from repro.graph.partition_strategies import edge_cut
from repro.machine.cost_model import XC40
from repro.machine.counters import PerfCounters
from repro.runtime.dm import DMRuntime


def make_rt(n: int = 32, P: int = 4) -> DMRuntime:
    return DMRuntime(n, P=P, machine=XC40.scaled(64))


def small_graph(weighted: bool = False):
    return erdos_renyi(64, d_bar=4.0, seed=11, weighted=weighted)


class TestRuleUnflushedRead:
    def test_read_after_unflushed_epoch_crossing_acc_is_flagged(self):
        rt = make_rt()
        det = attach_dm_race_detector(rt)
        h = rt.mem.register("w", 32, 8)

        def push(p):
            if p != 0:
                rt.rma_accumulate(0, 1, dtype="float", window=h,
                                  idx=np.array([1]))
            # seeded bug: no rma_flush before the superstep boundary

        rt.superstep(push)

        def read(p):
            if p == 0:
                rt.mem.read(h, idx=np.array([1]), mode="rand")

        rt.superstep(read)
        assert {r.kind for r in det.races} == {"unflushed-read"}
        assert det.pending_unflushed > 0

    def test_same_process_get_before_flush_is_flagged(self):
        rt = make_rt()
        det = attach_dm_race_detector(rt)
        h = rt.mem.register("w", 32, 8)

        def body(p):
            if p == 1:
                rt.rma_put(0, 1, window=h, idx=np.array([2]))
                rt.rma_get(0, 1, window=h, idx=np.array([2]))
                rt.rma_flush()

        rt.superstep(body)
        assert {r.kind for r in det.races} == {"unflushed-read"}

    def test_flushed_read_is_clean(self):
        rt = make_rt()
        det = attach_dm_race_detector(rt)
        h = rt.mem.register("w", 32, 8)

        def push(p):
            if p != 0:
                rt.rma_accumulate(0, 1, dtype="float", window=h,
                                  idx=np.array([1]))
            rt.rma_flush()

        rt.superstep(push)
        rt.superstep(lambda p: rt.mem.read(h, idx=np.array([1]), mode="rand")
                     if p == 0 else None)
        assert det.report().clean
        assert det.pending_unflushed == 0

    def test_disjoint_region_read_is_clean(self):
        rt = make_rt()
        det = attach_dm_race_detector(rt)
        h = rt.mem.register("w", 32, 8)

        def body(p):
            if p == 1:
                rt.rma_put(0, 1, window=h, idx=np.array([2]))
                rt.rma_get(0, 1, window=h, idx=np.array([5]))
                rt.rma_flush()

        rt.superstep(body)
        assert det.report().clean

    def test_dropped_flush_in_pagerank_kernel_is_caught(self):
        g = small_graph()
        rt = DMRuntime(g.n, 4, machine=XC40.scaled(64))
        det = attach_dm_race_detector(rt)
        rt.rma_flush = lambda *a, **k: None     # the seeded kernel bug
        dm_pagerank(g, rt, variant="rma-push", iterations=2)
        assert "unflushed-read" in {r.kind for r in det.races}
        assert det.pending_unflushed > 0

    def test_raise_on_race_raises_at_the_read(self):
        rt = make_rt()
        attach_dm_race_detector(rt, raise_on_race=True)
        h = rt.mem.register("w", 32, 8)

        def body(p):
            if p == 1:
                rt.rma_put(0, 1, window=h, idx=np.array([2]))
                rt.rma_get(0, 1, window=h, idx=np.array([2]))

        with pytest.raises(RaceError):
            rt.superstep(body)


class TestRuleWriteVsAcc:
    def test_plain_owner_write_vs_remote_acc_is_flagged(self):
        rt = make_rt(n=64)
        det = attach_dm_race_detector(rt)
        h = rt.mem.register("w", 64, 8)

        def body(p):
            own = rt.owned(p)
            if p == 0:
                rt.mem.write(h, idx=own[:2], mode="rand")
            else:
                rt.rma_accumulate(0, 2, dtype="float", window=h,
                                  idx=np.array([0, 1]))
            rt.rma_flush()

        rt.superstep(body)
        assert "write-vs-acc" in {r.kind for r in det.races}

    def test_local_accumulate_instead_of_write_is_clean(self):
        rt = make_rt(n=64)
        det = attach_dm_race_detector(rt)
        h = rt.mem.register("w", 64, 8)

        def body(p):
            if p == 0:
                # owner routes its own update through a local accumulate
                rt.rma_accumulate(0, 2, dtype="float", window=h,
                                  idx=np.array([0, 1]))
            else:
                rt.rma_accumulate(0, 2, dtype="float", window=h,
                                  idx=np.array([0, 1]))
            rt.rma_flush()

        rt.superstep(body)
        assert det.report().clean

    def test_write_into_not_owned_indices_is_staging_not_window(self):
        """MP-style send buffers: writes outside the writer's own block
        are private staging, not shared window state."""
        rt = make_rt(n=64)
        det = attach_dm_race_detector(rt)
        h = rt.mem.register("w", 64, 8)
        other = rt.owned(0)[:2]

        def body(p):
            if p == 1:
                rt.mem.write(h, idx=other, mode="rand")  # p1 doesn't own
            elif p == 2:
                rt.rma_accumulate(0, 2, dtype="float", window=h, idx=other)
            rt.rma_flush()

        rt.superstep(body)
        assert det.report().clean


class TestRuleEarlyInbox:
    def test_inbox_with_matching_in_flight_message_is_flagged(self):
        rt = make_rt(P=2)
        det = attach_dm_race_detector(rt)

        def body(p):
            rt.send((p + 1) % 2, "x")
            rt.inbox()

        rt.superstep(body)
        assert "early-inbox" in {r.kind for r in det.races}

    def test_tag_disjoint_inbox_is_clean(self):
        rt = make_rt(P=2)
        det = attach_dm_race_detector(rt)

        def body(p):
            rt.send((p + 1) % 2, "x", tag="rep")
            rt.inbox("req")     # only reads the *other* message class

        rt.superstep(body)
        assert det.report().clean

    def test_delivered_messages_read_cleanly(self):
        rt = make_rt(P=2)
        det = attach_dm_race_detector(rt)
        rt.superstep(lambda p: rt.send((p + 1) % 2, "x"))
        rt.superstep(lambda p: rt.inbox())
        assert det.report().clean


class TestRuleAccDtype:
    def test_mixed_float_int_on_same_region_is_flagged(self):
        rt = make_rt(P=2)
        det = attach_dm_race_detector(rt)
        h = rt.mem.register("w", 32, 8)

        def body(p):
            dtype = "float" if p == 0 else "int"
            rt.rma_accumulate(0, 1, dtype=dtype, window=h, idx=np.array([3]))
            rt.rma_flush()

        rt.superstep(body)
        assert "acc-dtype" in {r.kind for r in det.races}

    def test_same_dtype_is_clean(self):
        rt = make_rt(P=2)
        det = attach_dm_race_detector(rt)
        h = rt.mem.register("w", 32, 8)

        def body(p):
            rt.rma_accumulate(0, 1, dtype="int", window=h, idx=np.array([3]))
            rt.rma_flush()

        rt.superstep(body)
        assert det.report().clean

    def test_disjoint_regions_are_clean(self):
        rt = make_rt(P=2)
        det = attach_dm_race_detector(rt)
        h = rt.mem.register("w", 32, 8)

        def body(p):
            dtype = "float" if p == 0 else "int"
            idx = np.array([3]) if p == 0 else np.array([9])
            rt.rma_accumulate(0, 1, dtype=dtype, window=h, idx=idx)
            rt.rma_flush()

        rt.superstep(body)
        assert det.report().clean


class TestDetectorMechanics:
    def test_unannotated_ops_tallied_not_crashed(self):
        rt = make_rt(P=2)
        det = attach_dm_race_detector(rt)

        def body(p):
            rt.rma_get(1 - p, 4)
            rt.rma_accumulate(1 - p, 1, dtype="int")
            rt.rma_flush()

        rt.superstep(body)
        assert det.unattributed_ops == 4     # 2 gets + 2 accumulates
        assert det.report().clean

    def test_accounting_is_transparent(self):
        """Times and counters are identical with the checker attached."""
        g = small_graph()
        rt_plain = DMRuntime(g.n, 4, machine=XC40.scaled(64))
        plain = dm_pagerank(g, rt_plain, variant="rma-push", iterations=2)
        rt_det = DMRuntime(g.n, 4, machine=XC40.scaled(64))
        attach_dm_race_detector(rt_det)
        det = dm_pagerank(g, rt_det, variant="rma-push", iterations=2)
        assert det.time == pytest.approx(plain.time)
        assert det.counters.to_dict() == plain.counters.to_dict()

    def test_report_counts_epochs(self):
        rt = make_rt()
        det = attach_dm_race_detector(rt)
        for _ in range(3):
            rt.superstep(lambda p: None)
        assert det.report().epochs == 3


class TestDMCrosscheck:
    def _counters(self, **kw) -> PerfCounters:
        c = PerfCounters()
        for k, v in kw.items():
            setattr(c, k, v)
        return c

    def test_within_bound_is_ok(self):
        c = self._counters(remote_gets=10, messages=5)
        r = dm_crosscheck("PR", "rma-pull", c, m_cross=100, P=4,
                          supersteps=4, rounds=1)
        assert r.ok

    def test_excess_remote_ops_fail(self):
        c = self._counters(remote_acc_float=10**6)
        r = dm_crosscheck("PR", "rma-push", c, m_cross=10, P=4,
                          supersteps=2, rounds=1)
        assert not r.ok
        assert "remote ops" in r.detail

    def test_excess_messages_fail(self):
        c = self._counters(messages=10**6)
        r = dm_crosscheck("BFS", "push", c, m_cross=10, P=4,
                          supersteps=2, rounds=1)
        assert not r.ok
        assert "messages" in r.detail

    def test_rounds_scale_the_bound(self):
        c = self._counters(remote_gets=900)
        tight = dm_crosscheck("TC", "rma-pull", c, m_cross=100, P=2,
                              supersteps=1, rounds=1)
        loose = dm_crosscheck("TC", "rma-pull", c, m_cross=100, P=2,
                              supersteps=1, rounds=8)
        assert not tight.ok and loose.ok

    def test_cross_edges_counts_cut(self):
        g = small_graph()
        rt = make_rt(n=g.n, P=4)
        mc = edge_cut(g, rt.part)
        assert 0 < mc <= g.m * 2
        one = DMRuntime(g.n, 1, machine=XC40.scaled(64))
        assert edge_cut(g, one.part) == 0


class TestKernelMatrix:
    """The shipped dm_* kernels analyze clean, with bounds satisfied."""

    @pytest.fixture(scope="class")
    def runs(self):
        return analyze_dm(n=96, P=4, seed=7)

    def test_matrix_covers_all_kernels(self, runs):
        assert {r.cell.algorithm for r in runs} == {a for a, _ in DM_MATRIX}
        assert len(runs) == sum(len(vs) for _, vs in DM_MATRIX)

    def test_all_cells_race_clean(self, runs):
        dirty = [str(r) for r in runs if not r.report.clean]
        assert not dirty, dirty

    def test_all_cells_within_comm_bounds(self, runs):
        bad = [str(r.check) for r in runs if not r.check.ok]
        assert not bad, bad

    def test_no_pending_unflushed_ops(self, runs):
        assert all(r.pending_unflushed == 0 for r in runs)

    def test_rma_kernels_annotate_their_ops(self, runs):
        """Every put/accumulate in the shipped kernels names its window."""
        rma = [r for r in runs if r.cell.variant.startswith("rma")]
        assert rma
        assert all(r.unattributed_ops == 0 for r in rma)

    def test_triangle_push_local_updates_are_atomic(self):
        """Regression for the latent write-vs-acc race: TC rma-push local
        counter updates go through the integer-FAA path, not plain RMW."""
        g = small_graph()
        rt = DMRuntime(g.n, 4, machine=XC40.scaled(64))
        det = attach_dm_race_detector(rt)
        dm_triangle_count(g, rt, variant="rma-push")
        assert det.report().clean
        assert rt.total_counters().faa > 0
