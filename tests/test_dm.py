"""Tests for the distributed-memory runtime and DM algorithm variants."""

import numpy as np
import pytest

from repro.algorithms.dm_bfs import dm_bfs
from repro.algorithms.dm_pagerank import dm_pagerank
from repro.algorithms.dm_triangle import dm_triangle_count
from repro.algorithms.reference import (
    pagerank_reference, triangle_per_vertex_reference,
)
from repro.generators.erdos_renyi import erdos_renyi
from repro.machine.cost_model import XC40
from repro.runtime.dm import DMRuntime


def make_dm(n: int, P: int = 4) -> DMRuntime:
    return DMRuntime(n, P=P, machine=XC40.scaled(64))


class TestDMRuntime:
    def test_superstep_runs_all_processes(self):
        rt = make_dm(10, P=3)
        seen = []
        rt.superstep(lambda p: seen.append(p))
        assert seen == [0, 1, 2]

    def test_rank_only_inside_superstep(self):
        rt = make_dm(10)
        with pytest.raises(RuntimeError):
            _ = rt.rank

    def test_messages_delivered_next_superstep(self):
        rt = make_dm(10, P=2)
        rt.superstep(lambda p: rt.send(1 - p, f"from {p}"))
        inboxes = {}
        rt.superstep(lambda p: inboxes.update({p: rt.inbox()}))
        assert inboxes[0] == [(1, "from 1")]
        assert inboxes[1] == [(0, "from 0")]

    def test_message_counted_with_bytes(self):
        rt = make_dm(10, P=2)
        payload = np.zeros(10)
        rt.superstep(lambda p: rt.send(1 - p, payload) if p == 0 else None)
        assert rt.proc_counters[0].messages == 1
        assert rt.proc_counters[0].msg_bytes == 80

    def test_alltoallv_routing_and_cost(self):
        rt = make_dm(10, P=2)
        contributions = [["a->a", "a->b"], ["b->a", "b->b"]]
        received = rt.alltoallv(contributions)
        assert received[0] == ["a->a", "b->a"]
        assert received[1] == ["a->b", "b->b"]
        assert all(c.collectives > 0 for c in rt.proc_counters)

    def test_alltoallv_shape_validation(self):
        rt = make_dm(10, P=2)
        with pytest.raises(ValueError):
            rt.alltoallv([[None]])

    def test_rma_local_is_free_of_network(self):
        rt = make_dm(10, P=2)
        rt.superstep(lambda p: rt.rma_get(p, 8))
        assert all(c.remote_gets == 0 for c in rt.proc_counters)
        assert all(c.reads > 0 for c in rt.proc_counters)

    def test_rma_remote_counted(self):
        rt = make_dm(10, P=2)
        rt.superstep(lambda p: (rt.rma_get(1 - p, 4),
                                rt.rma_put(1 - p, 2),
                                rt.rma_accumulate(1 - p, 3, dtype="int"),
                                rt.rma_accumulate(1 - p, 1, dtype="float"),
                                rt.rma_flush()))
        c = rt.proc_counters[0]
        assert c.remote_gets == 1 and c.remote_puts == 1
        assert c.remote_acc_int == 3 and c.remote_acc_float == 1
        assert c.flushes == 1
        assert c.remote_bytes == (4 + 2 + 3 + 1) * 8

    def test_time_advances_by_slowest(self):
        rt = make_dm(10, P=2)

        def body(p):
            if p == 1:
                for _ in range(5):
                    rt.send(0, None, nbytes=0)

        before = rt.time
        rt.superstep(body)
        expected = 5 * rt.machine.net_alpha + rt.machine.w_barrier
        assert rt.time - before == pytest.approx(expected)

    def test_payload_byte_inference(self):
        assert DMRuntime._payload_bytes(None) == 0
        assert DMRuntime._payload_bytes(b"abc") == 3
        assert DMRuntime._payload_bytes([1, 2]) == 16
        assert DMRuntime._payload_bytes(np.zeros(3, dtype=np.float32)) == 12
        assert DMRuntime._payload_bytes(7) == 8


class TestDMPrimitives:
    """Satellite coverage: the runtime primitives themselves."""

    def test_mailbox_preserves_send_order(self):
        rt = make_dm(10, P=2)

        def sender(p):
            if p == 0:
                for i in range(3):
                    rt.send(1, i)

        rt.superstep(sender)
        got = {}
        rt.superstep(lambda p: got.update({p: rt.inbox()}))
        assert got[1] == [(0, 0), (0, 1), (0, 2)]
        assert got[0] == []

    def test_inbox_tag_filtering_leaves_other_tags(self):
        rt = make_dm(10, P=2)

        def sender(p):
            if p == 0:
                rt.send(1, "a", tag="x")
                rt.send(1, "b", tag="y")
                rt.send(1, "c", tag="x")

        rt.superstep(sender)
        got = {}

        def reader(p):
            if p == 1:
                got["x"] = rt.inbox("x")
                got["rest"] = rt.inbox()

        rt.superstep(reader)
        assert got["x"] == [(0, "a"), (0, "c")]
        assert got["rest"] == [(0, "b")]

    def test_alltoallv_payload_byte_accounting(self):
        rt = make_dm(10, P=2)
        row0 = [np.zeros(2), np.zeros(3)]   # p0 sends 16 + 24 bytes
        row1 = [None, np.zeros(1)]          # p1 sends 0 + 8 bytes
        rt.alltoallv([row0, row1])
        # each process pays its sent bytes plus its received bytes
        assert rt.proc_counters[0].collective_bytes == (16 + 24) + (16 + 0)
        assert rt.proc_counters[1].collective_bytes == (0 + 8) + (24 + 8)

    def test_accumulate_float_slower_than_int(self):
        """Section 6.5: float accumulate locks, int FAA is the HW path."""
        times = {}
        for dtype in ("int", "float"):
            rt = make_dm(10, P=2)
            rt.superstep(lambda p: (rt.rma_accumulate(1 - p, 8, dtype=dtype),
                                    rt.rma_flush()))
            times[dtype] = rt.time
        assert times["float"] > times["int"]

    def test_local_accumulate_books_processor_atomics(self):
        rt = make_dm(10, P=2)
        rt.superstep(lambda p: (rt.rma_accumulate(p, 4, dtype="int"),
                                rt.rma_accumulate(p, 2, dtype="float")))
        c = rt.proc_counters[0]
        assert c.remote_acc_int == 0 and c.remote_acc_float == 0
        assert c.faa == 4 and c.cas == 2 and c.atomics == 6

    def test_reset_clears_time_counters_and_mailboxes(self):
        rt = make_dm(10, P=2)
        rt.superstep(lambda p: rt.send(1 - p, "x"))
        assert rt.superstep_index == 1 and rt.time > 0
        rt.reset()
        assert rt.superstep_index == 0 and rt.time == 0
        assert all(c.messages == 0 and c.msg_bytes == 0 and c.barriers == 0
                   for c in rt.proc_counters)
        got = {}
        rt.superstep(lambda p: got.update({p: rt.inbox()}))
        assert got == {0: [], 1: []}

    def test_reset_rebinds_memory_accounting_to_process_zero(self):
        """The counter-rebinding bug class SMRuntime.reset fixed: without
        the rebind, post-reset events land on whichever process ran
        last."""
        rt = make_dm(10, P=2)
        h = rt.mem.register("x", 10, 8)
        rt.superstep(lambda p: None)     # leaves accounting bound to p1
        rt.reset()
        rt.mem.read(h, count=4)
        assert rt.proc_counters[0].reads > 0
        assert rt.proc_counters[1].reads == 0

    def test_rerun_after_reset_is_exact(self):
        """reset() also drops the memory model's sub-miss residues, so a
        rerun on the reset runtime reproduces the first run exactly."""
        g = erdos_renyi(1000, 8.0, seed=3)
        rt = make_dm(g.n)
        runs = []
        for _ in range(2):
            dm_bfs(g, rt, 0, variant="pull")
            runs.append(([c.copy() for c in rt.proc_counters], rt.time))
            rt.reset()
        assert runs[1] == runs[0]


class TestDMPageRank:
    @pytest.mark.parametrize("variant", ["mp", "rma-push", "rma-pull"])
    def test_matches_reference(self, comm_graph, variant):
        ref = pagerank_reference(comm_graph, 5)
        rt = make_dm(comm_graph.n)
        r = dm_pagerank(comm_graph, rt, variant=variant, iterations=5)
        assert np.allclose(r.ranks, ref, atol=1e-12)

    def test_variant_validation(self, comm_graph):
        rt = make_dm(comm_graph.n)
        with pytest.raises(ValueError):
            dm_pagerank(comm_graph, rt, variant="smoke-signals")

    def test_mp_fastest_push_slowest(self, comm_graph):
        times = {}
        for v in ("mp", "rma-push", "rma-pull"):
            rt = make_dm(comm_graph.n)
            times[v] = dm_pagerank(comm_graph, rt, variant=v,
                                   iterations=3).time
        assert times["mp"] < times["rma-pull"] < times["rma-push"]

    def test_event_asymmetries(self, comm_graph):
        rt = make_dm(comm_graph.n)
        push = dm_pagerank(comm_graph, rt, variant="rma-push", iterations=2)
        rt = make_dm(comm_graph.n)
        pull = dm_pagerank(comm_graph, rt, variant="rma-pull", iterations=2)
        rt = make_dm(comm_graph.n)
        mp = dm_pagerank(comm_graph, rt, variant="mp", iterations=2)
        assert push.counters.remote_acc_float > 0
        assert pull.counters.remote_acc_float == 0
        assert pull.counters.remote_gets > 0
        assert mp.counters.collectives > 0
        assert mp.counters.remote_gets == 0

    def test_mp_buffer_memory_comparison(self, comm_graph):
        """Section 6.3.1: RMA uses O(1) extra storage, MP up to O(n·d̂/P)."""
        rt = make_dm(comm_graph.n)
        mp = dm_pagerank(comm_graph, rt, variant="mp", iterations=2)
        rt = make_dm(comm_graph.n)
        rma = dm_pagerank(comm_graph, rt, variant="rma-pull", iterations=2)
        assert mp.peak_buffer_cells > 100 * rma.peak_buffer_cells


class TestDMTriangleCount:
    @pytest.mark.parametrize("variant", ["mp", "rma-push", "rma-pull"])
    def test_matches_reference(self, pa_graph, variant):
        ref = triangle_per_vertex_reference(pa_graph)
        rt = make_dm(pa_graph.n)
        r = dm_triangle_count(pa_graph, rt, variant=variant)
        assert np.array_equal(r.per_vertex, ref)

    def test_rma_beats_mp_and_pull_beats_push(self, pa_graph):
        times = {}
        for v in ("mp", "rma-push", "rma-pull"):
            rt = make_dm(pa_graph.n)
            times[v] = dm_triangle_count(pa_graph, rt, variant=v).time
        assert times["rma-pull"] <= times["rma-push"] < times["mp"]

    def test_int_faa_fast_path_used(self, pa_graph):
        rt = make_dm(pa_graph.n)
        r = dm_triangle_count(pa_graph, rt, variant="rma-push")
        assert r.counters.remote_acc_int > 0
        assert r.counters.remote_acc_float == 0

    def test_mp_buffering_reduces_messages(self, comm_graph):
        rt = make_dm(comm_graph.n)
        few = dm_triangle_count(comm_graph, rt, variant="mp",
                                buffer_items=10**9)
        rt = make_dm(comm_graph.n)
        many = dm_triangle_count(comm_graph, rt, variant="mp",
                                 buffer_items=1)
        assert few.counters.messages < many.counters.messages

    def test_variant_validation(self, pa_graph):
        rt = make_dm(pa_graph.n)
        with pytest.raises(ValueError):
            dm_triangle_count(pa_graph, rt, variant="carrier-pigeon")
