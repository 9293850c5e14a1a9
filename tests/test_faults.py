"""Tests for the seeded fault-injection + recovery layer (repro.runtime.faults).

Four battery sections:

* the window registry and data-carrying staged RMA verbs of DMRuntime;
* determinism -- same (kernel, graph, plan, recovery) => bit-identical
  results, event schedule, and simulated time, across fresh runtimes
  and across ``reset()``;
* each fault class with recovery OFF (the seeded-bug mode: results must
  corrupt, proving the fault has teeth) and ON (results must match the
  sequential references exactly);
* the overhead contract: recovery work is strictly visible in
  ``rt.time`` and fault-free runs are never slowed down.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.dm_bfs import dm_bfs
from repro.algorithms.dm_pagerank import dm_pagerank
from repro.algorithms.dm_sssp import dm_sssp_delta
from repro.algorithms.dm_triangle import dm_triangle_count
from repro.algorithms.reference import (
    bfs_reference, pagerank_reference, sssp_reference,
    triangle_per_vertex_reference,
)
from repro.analysis.dm_race import attach_dm_race_detector
from repro.generators import erdos_renyi
from repro.machine.cost_model import XC40
from repro.runtime.dm import DMRuntime
from repro.runtime.faults import (
    FaultPlan, RecoveryConfig, attach_fault_injector,
)

N = 48
P = 4


@pytest.fixture(scope="module")
def g():
    return erdos_renyi(N, d_bar=4.0, seed=7)


@pytest.fixture(scope="module")
def gw():
    return erdos_renyi(N, d_bar=4.0, seed=7, weighted=True)


def _rt(n: int = N) -> DMRuntime:
    return DMRuntime(n, P, machine=XC40.scaled(64))


# ---------------------------------------------------------------------------
# window registry + data-carrying staged RMA
# ---------------------------------------------------------------------------
class TestWindowRegistry:
    def test_local_accumulate_applies_immediately(self):
        rt = _rt(8)
        acc = np.zeros(8)
        rt.register_window("w", acc)

        def body(p):
            if p == 0:
                rt.accumulate(0, [1.5, 2.5], window="w", idx=[1, 2],
                              dtype="float")
                assert acc[1] == 1.5 and acc[2] == 2.5

        rt.superstep(body)

    def test_remote_accumulate_lands_at_flush(self):
        rt = _rt(8)
        acc = np.zeros(8)
        rt.register_window("w", acc)
        seen = {}

        def body(p):
            if p == 0:
                # owner of index 7 is rank 3 (block partition of 8 over 4)
                rt.accumulate(3, [4.0], window="w", idx=[7], dtype="float")
                seen["before_flush"] = float(acc[7])
                rt.rma_flush()
                seen["after_flush"] = float(acc[7])

        rt.superstep(body)
        assert seen["before_flush"] == 0.0
        assert seen["after_flush"] == 4.0

    def test_remote_put_overwrites(self):
        rt = _rt(8)
        arr = np.full(8, -1, dtype=np.int64)
        rt.register_window("w", arr)

        def body(p):
            if p == 1:
                rt.put(3, [9, 9], window="w", idx=[6, 7])
                rt.rma_flush()

        rt.superstep(body)
        assert arr[6] == 9 and arr[7] == 9 and arr[0] == -1

    def test_unregistered_window_raises(self):
        rt = _rt(8)

        def body(p):
            if p == 0:
                rt.accumulate(0, [1.0], window="nope", idx=[0], dtype="float")

        with pytest.raises(KeyError, match="nope"):
            rt.superstep(body)

    def test_accumulate_charges_rma_counters(self):
        rt = _rt(8)
        acc = np.zeros(8)
        rt.register_window("w", acc)

        def body(p):
            if p == 0:
                rt.accumulate(3, [1.0, 1.0], window="w", idx=[6, 7],
                              dtype="float")
                rt.rma_flush()

        rt.superstep(body)
        c = rt.total_counters()
        assert c.remote_acc_float == 2
        assert c.flushes >= 1


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
CHAOS = FaultPlan(seed=3, drop=0.15, duplicate=0.1, delay=0.1, reorder=0.1,
                  rma_lost=0.15, rma_duplicate=0.1, straggler=0.05,
                  crash=0.02)


def _chaos_pr(g, plan=CHAOS, variant="rma-push"):
    rt = _rt()
    inj = attach_fault_injector(rt, plan)
    res = dm_pagerank(g, rt, variant=variant, iterations=3)
    return res, rt, inj


class TestDeterminism:
    def test_same_seed_bit_identical(self, g):
        r1, rt1, i1 = _chaos_pr(g)
        r2, rt2, i2 = _chaos_pr(g)
        assert r1.ranks.tobytes() == r2.ranks.tobytes()
        assert rt1.time == rt2.time
        assert i1.schedule == i2.schedule
        assert i1.stats.to_dict() == i2.stats.to_dict()

    def test_different_seed_different_schedule(self, g):
        from dataclasses import replace
        _, _, i1 = _chaos_pr(g)
        _, _, i2 = _chaos_pr(g, replace(CHAOS, seed=4))
        assert i1.schedule != i2.schedule

    def test_reset_rebinds_the_schedule(self, g):
        rt = _rt()
        inj = attach_fault_injector(rt, CHAOS)
        r1 = dm_pagerank(g, rt, variant="rma-push", iterations=3)
        sched1, stats1 = list(inj.schedule), inj.stats.to_dict()
        rt.reset()
        assert inj.schedule == [] and rt.time == 0.0
        r2 = dm_pagerank(g, rt, variant="rma-push", iterations=3)
        assert r1.ranks.tobytes() == r2.ranks.tobytes()
        assert inj.schedule == sched1
        assert inj.stats.to_dict() == stats1
        # rt.time is NOT asserted bit-equal here: the memory model keeps
        # its cache state across reset on purpose (warm-rerun measurements,
        # see CountingMemory.register); the fault layer itself rebinds.

    def test_schedule_records_events(self, g):
        _, _, inj = _chaos_pr(g)
        kinds = {e[1] for e in inj.schedule}
        assert kinds & {"rma-lost", "rma-replay", "crash", "straggler"}

    def test_plan_label(self):
        assert "drop=0.15" in CHAOS.label()
        with pytest.warns(UserWarning, match="no-op chaos plan"):
            empty = FaultPlan(seed=5)
        assert empty.label().endswith("(none)")

    def test_attach_rejects_sm_runtime(self, g):
        from repro.runtime.sm import SMRuntime
        with pytest.raises(TypeError, match="attach_sm_fault_injector"):
            attach_fault_injector(SMRuntime(g, P), FaultPlan(seed=0, crash=0.1))


# ---------------------------------------------------------------------------
# fault classes: seeded-bug mode (no recovery) vs recovery
# ---------------------------------------------------------------------------
def _bfs_levels(g, plan, recovery, variant="push"):
    rt = _rt()
    attach_fault_injector(rt, plan, recovery=recovery)
    return dm_bfs(g, rt, root=0, variant=variant), rt


class TestMessageFaults:
    def test_drop_corrupts_without_recovery(self, g):
        ref = bfs_reference(g, 0)
        res, rt = _bfs_levels(g, FaultPlan(seed=0, drop=0.3), None)
        assert rt.faults.stats.dropped > 0
        assert not np.array_equal(res.level, ref)

    def test_drop_recovered_by_retry(self, g):
        ref = bfs_reference(g, 0)
        res, rt = _bfs_levels(g, FaultPlan(seed=0, drop=0.3),
                              RecoveryConfig())
        assert rt.faults.stats.retries > 0
        assert rt.faults.stats.dropped == 0
        assert np.array_equal(res.level, ref)

    def test_delay_reorders_across_supersteps_without_recovery(self, g):
        ref = bfs_reference(g, 0)
        res, rt = _bfs_levels(g, FaultPlan(seed=1, delay=0.4), None)
        assert rt.faults.stats.delayed > 0
        assert not np.array_equal(res.level, ref)

    def test_delay_recovered_by_barrier_wait(self, g):
        ref = bfs_reference(g, 0)
        res, rt = _bfs_levels(g, FaultPlan(seed=1, delay=0.4),
                              RecoveryConfig())
        assert rt.faults.stats.delayed > 0
        assert rt.faults.stats.delivered_late == 0
        assert np.array_equal(res.level, ref)

    def test_duplicate_suppressed_by_dedup(self, g):
        # BFS claims are idempotent, so exercise duplicates on SSSP
        # messages: min-combine absorbs them; the test pins the seq
        # dedup actually firing
        _, rt = _bfs_levels(g, FaultPlan(seed=2, duplicate=0.4),
                            RecoveryConfig())
        s = rt.faults.stats
        assert s.duplicates > 0 and s.dup_suppressed == s.duplicates

    def test_reorder_is_harmless_under_tags(self, g):
        ref = bfs_reference(g, 0)
        res, rt = _bfs_levels(g, FaultPlan(seed=3, reorder=0.5),
                              RecoveryConfig())
        assert rt.faults.stats.reordered > 0
        assert np.array_equal(res.level, ref)


class TestRMAFaults:
    def test_lost_flush_corrupts_pagerank_without_recovery(self, g):
        ref = pagerank_reference(g, iterations=3)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=0, rma_lost=0.3),
                              recovery=None)
        res = dm_pagerank(g, rt, variant="rma-push", iterations=3)
        assert rt.faults.stats.rma_lost > 0
        assert not np.allclose(res.ranks, ref, atol=1e-9)

    def test_lost_flush_replayed_at_boundary(self, g):
        ref = pagerank_reference(g, iterations=3)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=0, rma_lost=0.3))
        res = dm_pagerank(g, rt, variant="rma-push", iterations=3)
        assert rt.faults.stats.rma_replayed > 0
        assert np.allclose(res.ranks, ref, atol=1e-9)

    def test_duplicate_faa_double_counts_without_dedup(self, g):
        """The seeded-bug contract: disabling seq dedup MUST corrupt."""
        ref = triangle_per_vertex_reference(g)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=1, rma_duplicate=0.3),
                              recovery=RecoveryConfig(dedup=False))
        res = dm_triangle_count(g, rt, variant="rma-push")
        s = rt.faults.stats
        assert s.rma_duplicates > 0 and s.rma_dup_suppressed == 0
        assert not np.array_equal(res.per_vertex, ref)
        # duplicated FAAs can only inflate counts, never lose them
        assert (res.per_vertex >= ref).all()
        assert res.per_vertex.sum() > ref.sum()

    def test_duplicate_faa_idempotent_with_dedup(self, g):
        ref = triangle_per_vertex_reference(g)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=1, rma_duplicate=0.3))
        res = dm_triangle_count(g, rt, variant="rma-push")
        s = rt.faults.stats
        assert s.rma_duplicates > 0
        assert s.rma_dup_suppressed == s.rma_duplicates
        assert np.array_equal(res.per_vertex, ref)


class TestAlltoallvFaults:
    def test_drop_corrupts_mp_pagerank_without_recovery(self, g):
        ref = pagerank_reference(g, iterations=3)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=0, drop=0.3),
                              recovery=None)
        res = dm_pagerank(g, rt, variant="mp", iterations=3)
        assert rt.faults.stats.dropped > 0
        assert not np.allclose(res.ranks, ref, atol=1e-9)

    def test_drop_retried_with_recovery(self, g):
        ref = pagerank_reference(g, iterations=3)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=0, drop=0.3))
        res = dm_pagerank(g, rt, variant="mp", iterations=3)
        assert rt.faults.stats.retries > 0
        assert np.allclose(res.ranks, ref, atol=1e-9)

    def test_duplicate_cell_double_applies_without_dedup(self, g):
        ref = pagerank_reference(g, iterations=3)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=2, duplicate=0.3),
                              recovery=RecoveryConfig(dedup=False))
        res = dm_pagerank(g, rt, variant="mp", iterations=3)
        assert rt.faults.stats.duplicates > 0
        assert not np.allclose(res.ranks, ref, atol=1e-9)


class TestCrashRestart:
    def test_crash_loses_work_without_recovery(self, g):
        ref = triangle_per_vertex_reference(g)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=2, crash=0.5),
                              recovery=None)
        res = dm_triangle_count(g, rt, variant="rma-pull")
        s = rt.faults.stats
        assert s.crashes > 0 and s.restarts == 0
        assert not np.array_equal(res.per_vertex, ref)

    def test_crash_restart_reruns_exactly(self, g):
        ref = triangle_per_vertex_reference(g)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=2, crash=0.5))
        res = dm_triangle_count(g, rt, variant="rma-pull")
        s = rt.faults.stats
        assert s.crashes > 0 and s.restarts == s.crashes
        assert np.array_equal(res.per_vertex, ref)

    def test_crash_restart_sssp(self, gw):
        ref = sssp_reference(gw, 0)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=5, crash=0.1))
        res = dm_sssp_delta(gw, rt, source=0, variant="push")
        assert rt.faults.stats.restarts > 0
        assert np.allclose(res.dist, ref)

    def test_rollback_keeps_epoch_checker_clean(self, g):
        rt = _rt()
        detector = attach_dm_race_detector(rt)
        attach_fault_injector(rt, FaultPlan(seed=2, crash=0.3))
        dm_pagerank(g, rt, variant="rma-push", iterations=3)
        assert rt.faults.stats.crashes > 0
        assert detector.report().clean
        assert detector.pending_unflushed == 0

    def test_checkpoint_restart_off_loses_data(self, g):
        # recovery present (retries, dedup) but rollback disabled: the
        # crashed rank's superstep work is gone and stays gone, and no
        # detection/restart time is charged
        ref = triangle_per_vertex_reference(g)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=2, crash=0.5),
                              recovery=RecoveryConfig(
                                  checkpoint_restart=False))
        res = dm_triangle_count(g, rt, variant="rma-pull")
        s = rt.faults.stats
        assert s.crashes > 0 and s.restarts == 0
        assert s.backoff_time == 0.0
        assert not np.array_equal(res.per_vertex, ref)


class TestCrashEdgeCases:
    def test_crash_in_superstep_zero_recovers(self, g):
        ref = bfs_reference(g, 0)
        res, rt = _bfs_levels(g, FaultPlan(seed=0, crash=1.0),
                              RecoveryConfig())
        inj = rt.faults
        crashes0 = [e for e in inj.schedule if e[0] == 0 and e[1] == "crash"]
        assert crashes0, "a certain crash must fire in superstep 0"
        assert np.array_equal(res.level, ref)

    def test_all_ranks_crash_same_superstep(self, g):
        # crash=1.0 dooms every rank of every superstep; reruns are not
        # re-drawn, so recovery still converges
        ref = bfs_reference(g, 0)
        res, rt = _bfs_levels(g, FaultPlan(seed=0, crash=1.0),
                              RecoveryConfig())
        s = rt.faults.stats
        by_step: dict[int, int] = {}
        for e in rt.faults.schedule:
            if e[1] == "crash":
                by_step[e[0]] = by_step.get(e[0], 0) + 1
        assert max(by_step.values()) == P
        assert s.restarts == s.crashes
        assert np.array_equal(res.level, ref)

    def test_straggler_and_crash_stack_on_one_rank(self, g):
        # both faults certain: every (rank, superstep) is simultaneously
        # a straggler and a crash victim -- stretch and rollback compose
        rt0 = _rt()
        dm_bfs(g, rt0, root=0, variant="push")
        res, rt = _bfs_levels(g, FaultPlan(seed=0, straggler=1.0, crash=1.0),
                              RecoveryConfig())
        step0 = {(e[1], e[2]) for e in rt.faults.schedule if e[0] == 0}
        ranks = {p for kind, p in step0 if kind == "crash"}
        assert any(("straggler", p) in step0 for p in ranks)
        assert rt.time > rt0.time
        assert np.array_equal(res.level, bfs_reference(g, 0))


class TestStraggler:
    def test_straggler_never_speeds_up(self, g):
        rt0 = _rt()
        base = dm_pagerank(g, rt0, variant="rma-pull", iterations=3)
        rt = _rt()
        attach_fault_injector(rt, FaultPlan(seed=0, straggler=0.2))
        slow = dm_pagerank(g, rt, variant="rma-pull", iterations=3)
        assert rt.faults.stats.stragglers > 0
        assert rt.time >= rt0.time
        assert np.allclose(slow.ranks, base.ranks, atol=1e-12)


# ---------------------------------------------------------------------------
# overhead accounting
# ---------------------------------------------------------------------------
class TestOverheadAccounting:
    def test_costly_recovery_strictly_slower(self, g):
        rt0 = _rt()
        dm_bfs(g, rt0, root=0, variant="push")
        res, rt = _bfs_levels(g, FaultPlan(seed=0, drop=0.3),
                              RecoveryConfig())
        assert rt.faults.stats.costly() > 0
        assert rt.time > rt0.time

    def test_barrier_stall_cannot_hide_under_skew(self, g):
        # delays hit one destination; the wait must survive the BSP max
        rt0 = _rt()
        dm_bfs(g, rt0, root=0, variant="pull")
        res, rt = _bfs_levels(g, FaultPlan(seed=1, delay=0.2),
                              RecoveryConfig(), variant="pull")
        assert rt.faults.stats.delayed > 0
        assert rt.time > rt0.time

    def test_zero_probability_plan_changes_nothing(self, g):
        rt0 = _rt()
        base = dm_pagerank(g, rt0, variant="rma-push", iterations=3)
        rt = _rt()
        with pytest.warns(UserWarning, match="no-op chaos plan"):
            empty = FaultPlan(seed=9)
        inj = attach_fault_injector(rt, empty)
        res = dm_pagerank(g, rt, variant="rma-push", iterations=3)
        assert inj.stats.fired() == 0
        assert res.ranks.tobytes() == base.ranks.tobytes()
        assert rt.time == rt0.time

    def test_backoff_time_is_tallied(self, g):
        _, rt = _bfs_levels(g, FaultPlan(seed=0, drop=0.3),
                            RecoveryConfig())
        s = rt.faults.stats
        assert s.backoff_time > 0
        assert s.backoff_time <= rt.time
