"""Tests for the SM chaos layer (repro.runtime.sm_faults).

Mirrors tests/test_faults.py for the shared-memory runtime:

* determinism -- same (kernel, graph, plan, recovery) => bit-identical
  results, event schedule, stats, and simulated time;
* plan/recovery validation (the shared fault_core contract);
* each SM fault class with recovery OFF (the seeded-bug mode: lost
  claims must corrupt results, proving the fault has teeth) and ON
  (results must match the sequential references exactly);
* crash edge cases: region 0, all threads in one region, straggler and
  crash stacking on the same (thread, region), and
  ``checkpoint_restart=False`` data loss;
* the overhead contract: costly recovery is strictly visible in
  ``rt.time``; a zero plan changes nothing;
* the engine differential: interpreted and batched kernels observe
  byte-identical fault schedules, stats, results, counters, and time
  (the injector forces the batched engine's oracle lowering).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.connected_components import connected_components
from repro.algorithms.pagerank import pagerank
from repro.algorithms.reference import (
    bfs_reference, pagerank_reference, sssp_reference,
)
from repro.algorithms.sssp_delta import sssp_delta
from repro.analysis.race import attach_race_detector
from repro.generators import erdos_renyi
from repro.machine.cost_model import XC30
from repro.runtime.dm import DMRuntime
from repro.runtime.faults import RecoveryConfig
from repro.runtime.sm import SMRuntime
from repro.runtime.sm_faults import SMFaultPlan, attach_sm_fault_injector
from repro.streams.kernels import (
    bfs_batched, cc_batched, pagerank_batched, sssp_delta_batched,
)

N = 48
P = 4


@pytest.fixture(scope="module")
def g():
    return erdos_renyi(N, d_bar=4.0, seed=7)


@pytest.fixture(scope="module")
def gw():
    return erdos_renyi(N, d_bar=4.0, seed=7, weighted=True)


def _rt(g) -> SMRuntime:
    return SMRuntime(g, P, machine=XC30.scaled(64))


CHAOS = SMFaultPlan(seed=7, straggler=0.05, lock_preempt=0.10,
                    cas_lost=0.08, cas_duplicate=0.08, store_delay=0.05,
                    crash=0.02)


def _chaos_bfs(g, plan=CHAOS, recovery=RecoveryConfig(), direction="push"):
    rt = _rt(g)
    inj = attach_sm_fault_injector(rt, plan, recovery=recovery)
    res = bfs(g, rt, root=0, direction=direction)
    return res, rt, inj


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_same_seed_bit_identical(self, g):
        r1, rt1, i1 = _chaos_bfs(g)
        r2, rt2, i2 = _chaos_bfs(g)
        assert r1.level.tobytes() == r2.level.tobytes()
        assert rt1.time == rt2.time
        assert i1.schedule == i2.schedule
        assert i1.stats.to_dict() == i2.stats.to_dict()

    def test_different_seed_different_schedule(self, g):
        _, _, i1 = _chaos_bfs(g)
        _, _, i2 = _chaos_bfs(g, replace(CHAOS, seed=8))
        assert i1.schedule != i2.schedule

    def test_reset_rebinds_the_schedule(self, g):
        rt = _rt(g)
        inj = attach_sm_fault_injector(rt, CHAOS)
        r1 = bfs(g, rt, root=0, direction="push")
        sched1, stats1 = list(inj.schedule), inj.stats.to_dict()
        rt.reset()
        assert inj.schedule == [] and rt.time == 0.0
        r2 = bfs(g, rt, root=0, direction="push")
        assert r1.level.tobytes() == r2.level.tobytes()
        assert inj.schedule == sched1
        assert inj.stats.to_dict() == stats1

    def test_schedule_records_events(self, g):
        _, _, inj = _chaos_bfs(g)
        kinds = {e[1] for e in inj.schedule}
        assert kinds & {"cas-lost", "cas-retry", "crash", "straggler",
                        "store-delay"}

    def test_plan_label(self):
        assert "cas_lost=0.08" in CHAOS.label()
        with pytest.warns(UserWarning, match="no-op chaos plan"):
            empty = SMFaultPlan(seed=5)
        assert empty.label().endswith("(none)")


# ---------------------------------------------------------------------------
# plan + recovery validation (the shared fault_core contract)
# ---------------------------------------------------------------------------
class TestValidation:
    def test_probability_above_one_raises(self):
        with pytest.raises(ValueError, match="crash"):
            SMFaultPlan(crash=1.5)

    def test_negative_probability_raises(self):
        with pytest.raises(ValueError, match="straggler"):
            SMFaultPlan(straggler=-0.1)

    def test_magnitude_knobs_are_not_probabilities(self):
        # straggler_factor / preempt_cost exceed 1 by design
        plan = SMFaultPlan(straggler=0.1, straggler_factor=8.0,
                           lock_preempt=0.1, preempt_cost=5000.0)
        assert plan.straggler_factor == 8.0

    def test_all_zero_plan_warns(self):
        with pytest.warns(UserWarning, match="no-op chaos plan"):
            SMFaultPlan(seed=3)

    def test_recovery_wait_must_be_positive(self):
        with pytest.raises(ValueError, match="backoff_base"):
            RecoveryConfig(backoff_base=0.0)
        with pytest.raises(ValueError, match="store_flush_wait"):
            RecoveryConfig(store_flush_wait=-1.0)

    def test_retry_limit_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="retry_limit"):
            RecoveryConfig(retry_limit=0)

    def test_attach_rejects_dm_runtime(self):
        rt = DMRuntime(8, 2)
        with pytest.raises(TypeError, match="SMRuntime"):
            attach_sm_fault_injector(rt, SMFaultPlan(seed=0, crash=0.1))


# ---------------------------------------------------------------------------
# fault classes: seeded-bug mode (no recovery) vs recovery
# ---------------------------------------------------------------------------
class TestStraggler:
    def test_straggler_never_speeds_up(self, g):
        rt0 = _rt(g)
        base = pagerank(g, rt0, direction="pull", iterations=3)
        rt = _rt(g)
        attach_sm_fault_injector(rt, SMFaultPlan(seed=0, straggler=0.3))
        slow = pagerank(g, rt, direction="pull", iterations=3)
        assert rt.faults.stats.stragglers > 0
        assert rt.time >= rt0.time
        assert np.allclose(slow.ranks, base.ranks, atol=1e-12)

    def test_stretch_lands_in_region_stalls(self, g):
        from repro.observability.tracer import attach_tracer
        rt = _rt(g)
        tracer = attach_tracer(rt, graph=g)
        attach_sm_fault_injector(rt, SMFaultPlan(seed=0, straggler=0.3))
        bfs(g, rt, root=0, direction="push")
        stalled = [ev for ev in tracer.events
                   if ev.kind in ("region", "phase")
                   and ev.data.get("stalls")]
        assert stalled, "straggler stretch must reach the trace"
        assert all(any(s > 0 for s in ev.data["stalls"]) for ev in stalled)


class TestLockPreempt:
    def test_preempt_charges_the_waiting_thread(self, gw):
        # sssp_delta push claims via mem.lock -- the preempt target
        rt0 = _rt(gw)
        base = sssp_delta(gw, rt0, source=0, direction="push")
        rt = _rt(gw)
        attach_sm_fault_injector(
            rt, SMFaultPlan(seed=0, lock_preempt=0.3, preempt_cost=3000.0))
        res = sssp_delta(gw, rt, source=0, direction="push")
        assert rt.faults.stats.lock_preempts > 0
        assert rt.time >= rt0.time
        assert np.allclose(res.dist, base.dist)


class TestCasClaims:
    def test_lost_claim_corrupts_without_recovery(self, g):
        ref = bfs_reference(g, 0)
        res, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=0, cas_lost=0.3),
                                  recovery=None)
        assert inj.stats.cas_lost > 0 and inj.stats.cas_retries == 0
        assert not np.array_equal(res.level, ref)

    def test_lost_claim_independent_of_attach_order(self, g):
        # a raw lost claim reverts the CAS target and its covers=
        # companions (BFS's level beside parent); the detector forwards
        # covers=, so it may sit inside or outside the fault proxy
        runs = []
        for detector_first in (True, False):
            rt = _rt(g)
            if detector_first:
                attach_race_detector(rt)
            inj = attach_sm_fault_injector(
                rt, SMFaultPlan(seed=0, cas_lost=0.3), recovery=None)
            if not detector_first:
                attach_race_detector(rt)
            res = bfs(g, rt, root=0, direction="push")
            runs.append((res, rt, inj))
        (res0, rt0, inj0), (res1, rt1, inj1) = runs
        assert inj0.stats.cas_lost > 0
        assert np.array_equal(res0.level, res1.level)
        assert np.array_equal(res0.parent, res1.parent)
        assert rt0.time == rt1.time
        assert inj0.stats.to_dict() == inj1.stats.to_dict()
        assert (rt0.total_counters().to_dict()
                == rt1.total_counters().to_dict())

    def test_lost_claim_recovered_by_retry(self, g):
        ref = bfs_reference(g, 0)
        res, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=0, cas_lost=0.3))
        assert inj.stats.cas_retries > 0
        assert np.array_equal(res.level, ref)

    def test_duplicate_claim_suppressed_by_dedup(self, g):
        ref = bfs_reference(g, 0)
        res, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=1, cas_duplicate=0.3))
        s = inj.stats
        assert s.cas_duplicates > 0
        assert s.cas_dup_suppressed == s.cas_duplicates
        assert np.array_equal(res.level, ref)

    def test_duplicate_claim_costs_without_dedup(self, g):
        # a doubly-applied claim is a failing second CAS attempt: it
        # cannot corrupt (the word is already claimed) but its reads +
        # atomics land on the issuing thread
        ref = bfs_reference(g, 0)
        res0, rt0, _ = _chaos_bfs(g, SMFaultPlan(seed=1, cas_duplicate=0.3))
        res, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=1, cas_duplicate=0.3),
                                  recovery=RecoveryConfig(dedup=False))
        s = inj.stats
        assert s.cas_duplicates > 0 and s.cas_dup_suppressed == 0
        assert np.array_equal(res.level, ref)
        c_dedup = rt0.total_counters()
        c_dup = rt.total_counters()
        assert c_dup.atomics > c_dedup.atomics


class TestStoreDelay:
    def test_fence_drains_the_buffer_with_recovery(self, g):
        rt0 = _rt(g)
        base = bfs(g, rt0, root=0, direction="push")
        res, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=2, store_delay=0.3))
        s = inj.stats
        assert s.store_delays > 0 and s.store_flushes > 0
        assert rt.time > rt0.time
        assert np.array_equal(res.level, base.level)

    def test_without_recovery_stores_drain_free_at_barrier(self, g):
        # BSP semantics: the stores still become visible at the barrier,
        # nobody pays for a fence -- the fault is observability-only
        rt0 = _rt(g)
        base = bfs(g, rt0, root=0, direction="push")
        res, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=2, store_delay=0.3),
                                  recovery=None)
        s = inj.stats
        assert s.store_delays > 0 and s.store_flushes == 0
        assert rt.time == rt0.time
        assert np.array_equal(res.level, base.level)


class TestCrashRestart:
    def test_crash_loses_work_without_recovery(self, g):
        ref = bfs_reference(g, 0)
        res, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=2, crash=0.3),
                                  recovery=None)
        s = inj.stats
        assert s.crashes > 0 and s.restarts == 0
        assert not np.array_equal(res.level, ref)

    def test_crash_restart_reruns_exactly(self, g):
        ref = bfs_reference(g, 0)
        res, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=2, crash=0.3))
        s = inj.stats
        assert s.crashes > 0 and s.restarts == s.crashes
        assert np.array_equal(res.level, ref)

    def test_crash_restart_sssp(self, gw):
        ref = sssp_reference(gw, 0)
        rt = _rt(gw)
        attach_sm_fault_injector(rt, SMFaultPlan(seed=5, crash=0.1))
        res = sssp_delta(gw, rt, source=0, direction="push")
        assert rt.faults.stats.restarts > 0
        assert np.allclose(res.dist, ref)

    def test_rollback_keeps_race_detector_clean(self, g):
        rt = _rt(g)
        detector = attach_race_detector(rt)
        attach_sm_fault_injector(rt, SMFaultPlan(seed=2, crash=0.3))
        bfs(g, rt, root=0, direction="push")
        assert rt.faults.stats.crashes > 0
        assert detector.report().clean

    def test_checkpoint_restart_off_loses_data(self, g):
        # recovery present (retries, dedup) but rollback disabled: the
        # crashed thread's region work is gone and stays gone
        ref = bfs_reference(g, 0)
        res, rt, inj = _chaos_bfs(
            g, SMFaultPlan(seed=2, crash=0.3),
            recovery=RecoveryConfig(checkpoint_restart=False))
        s = inj.stats
        assert s.crashes > 0 and s.restarts == 0
        assert s.backoff_time == 0.0
        assert not np.array_equal(res.level, ref)


class TestCrashEdgeCases:
    def test_crash_in_region_zero_recovers(self, g):
        ref = bfs_reference(g, 0)
        res, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=0, crash=1.0))
        crashes0 = [e for e in inj.schedule if e[0] == 0 and e[1] == "crash"]
        assert crashes0, "a certain crash must fire in the first region"
        assert np.array_equal(res.level, ref)

    def test_all_threads_crash_in_one_region(self, g):
        # crash=1.0 dooms every thread of every parallel region; the
        # rerun is not re-drawn, so recovery still converges
        res, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=0, crash=1.0))
        by_region: dict[int, int] = {}
        for e in inj.schedule:
            if e[1] == "crash":
                by_region[e[0]] = by_region.get(e[0], 0) + 1
        assert max(by_region.values()) > 1
        assert inj.stats.restarts == inj.stats.crashes
        assert np.array_equal(res.level, bfs_reference(g, 0))

    def test_straggler_and_crash_stack_on_one_thread(self, g):
        # both faults certain: every (thread, region) is simultaneously
        # a straggler and a crash victim -- the stretch and the
        # rollback/rerun must compose
        rt0 = _rt(g)
        bfs(g, rt0, root=0, direction="push")
        res, rt, inj = _chaos_bfs(
            g, SMFaultPlan(seed=0, straggler=1.0, crash=1.0))
        step0 = {(e[1], e[2]) for e in inj.schedule if e[0] == 0}
        threads = {t for kind, t in step0 if kind == "crash"}
        assert any(("straggler", t) in step0 for t in threads)
        assert rt.time > rt0.time
        assert np.array_equal(res.level, bfs_reference(g, 0))


# ---------------------------------------------------------------------------
# overhead accounting
# ---------------------------------------------------------------------------
class TestOverheadAccounting:
    def test_costly_recovery_strictly_slower(self, g):
        rt0 = _rt(g)
        bfs(g, rt0, root=0, direction="push")
        _, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=0, cas_lost=0.3))
        assert inj.stats.costly() > 0
        assert rt.time > rt0.time

    def test_zero_probability_plan_changes_nothing(self, g):
        rt0 = _rt(g)
        base = bfs(g, rt0, root=0, direction="push")
        with pytest.warns(UserWarning, match="no-op chaos plan"):
            plan = SMFaultPlan(seed=9)
        res, rt, inj = _chaos_bfs(g, plan)
        assert inj.stats.fired() == 0
        assert res.level.tobytes() == base.level.tobytes()
        assert rt.time == rt0.time
        assert rt.total_counters() == rt0.total_counters()

    def test_backoff_time_is_tallied(self, g):
        _, rt, inj = _chaos_bfs(g, SMFaultPlan(seed=0, cas_lost=0.3))
        s = inj.stats
        assert s.backoff_time > 0
        assert s.backoff_time <= rt.time


# ---------------------------------------------------------------------------
# engine differential: interpreted vs batched under faults
# ---------------------------------------------------------------------------
def _run_engine(g, kernel, plan, **kw):
    rt = _rt(g)
    inj = attach_sm_fault_injector(rt, plan)
    res = kernel(g, rt, **kw)
    return res, rt, inj


class TestEngineDifferential:
    """The injector forces the batched engine's oracle lowering, so the
    per-element call script -- and with it every RNG draw -- is shared.
    """

    def test_bfs_schedules_bit_identical(self, g):
        r1, rt1, i1 = _run_engine(g, bfs, CHAOS, root=0, direction="push")
        r2, rt2, i2 = _run_engine(g, bfs_batched, CHAOS, root=0,
                                  direction="push")
        assert i1.schedule == i2.schedule
        assert i1.stats.to_dict() == i2.stats.to_dict()
        assert r1.level.tobytes() == r2.level.tobytes()
        assert rt1.time == rt2.time
        assert rt1.total_counters() == rt2.total_counters()

    def test_pagerank_schedules_bit_identical(self, g):
        r1, rt1, i1 = _run_engine(g, pagerank, CHAOS, direction="push",
                                  iterations=3)
        r2, rt2, i2 = _run_engine(g, pagerank_batched, CHAOS,
                                  direction="push", iterations=3)
        assert i1.schedule == i2.schedule
        assert i1.stats.to_dict() == i2.stats.to_dict()
        assert r1.ranks.tobytes() == r2.ranks.tobytes()
        assert rt1.time == rt2.time
        assert rt1.total_counters() == rt2.total_counters()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("direction", ["push", "pull"])
    @pytest.mark.parametrize("kernel", ["sssp", "cc"])
    def test_crash_heavy_schedules_bit_identical(self, g, gw, kernel,
                                                 direction, seed):
        # a crash rolls back only the registered arrays and reruns the
        # body, so kernel-private state carried across bodies diverges
        plan = SMFaultPlan(seed=seed, straggler=0.05, crash=0.2)
        if kernel == "sssp":
            engines = (sssp_delta, sssp_delta_batched)
            graph, kw, result = gw, dict(source=0), "dist"
        else:
            engines = (connected_components, cc_batched)
            graph, kw, result = g, {}, "labels"
        (r1, rt1, i1), (r2, rt2, i2) = (
            _run_engine(graph, k, plan, direction=direction, **kw)
            for k in engines)
        assert i1.stats.crashes > 0
        assert i1.schedule == i2.schedule
        assert i1.stats.to_dict() == i2.stats.to_dict()
        assert getattr(r1, result).tobytes() == getattr(r2, result).tobytes()
        assert r1.iterations == r2.iterations
        assert rt1.time == rt2.time
        assert rt1.thread_counters == rt2.thread_counters

    def test_faulted_batched_matches_reference(self, g):
        ref = pagerank_reference(g, iterations=3)
        res, rt, inj = _run_engine(g, pagerank_batched, CHAOS,
                                   direction="push", iterations=3)
        assert inj.stats.fired() > 0
        assert np.allclose(res.ranks, ref, atol=1e-9)
