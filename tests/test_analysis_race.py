"""Tests for the dynamic race detector (repro-tsan) and the PRAM cross-check."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.crosscheck import crosscheck
from repro.analysis.race import RaceError, RaceReport, attach_race_detector
from repro.analysis.runner import analyze_algorithms
from repro.kernels import LABELS
from tests.conftest import make_runtime

FIXTURE = Path(__file__).parent / "fixtures" / "bad_push_kernel.py"


def _load_broken_kernel():
    spec = importlib.util.spec_from_file_location("bad_push_kernel", FIXTURE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestDetectorMechanics:
    def test_seeded_race_is_flagged(self, er_graph):
        """The deliberately-broken push kernel must light up."""
        rt = make_runtime(er_graph, P=4)
        det = attach_race_detector(rt)
        _load_broken_kernel().broken_push_accumulate(er_graph, rt)
        report = det.report()
        assert not report.clean
        assert {r.kind for r in report.races} == {"ww"}
        assert all(r.handle == "broken.acc" for r in report.races)
        assert report.total_racy_addresses > 0

    def test_raise_on_race_pinpoints_the_epoch(self, er_graph):
        rt = make_runtime(er_graph, P=4)
        attach_race_detector(rt, raise_on_race=True)
        with pytest.raises(RaceError):
            _load_broken_kernel().broken_push_accumulate(er_graph, rt)

    def test_owned_writes_are_clean(self, er_graph):
        """Disjoint per-owner writes are the pull discipline: no races."""
        rt = make_runtime(er_graph, P=4)
        det = attach_race_detector(rt)
        x = np.zeros(er_graph.n)
        h = rt.mem.register("t.x", x)

        def body(t, vs):
            if len(vs):
                rt.mem.write(h, idx=vs, mode="seq")

        rt.for_each_thread(body)
        assert det.report().clean

    def test_owner_write_remote_read_is_benign(self):
        """Pull's paradigm: owner writes v, others read v -- not a race."""
        g_n = 8
        from repro.graph.builder import from_edges
        g = from_edges(g_n, [(0, 1)])
        rt = make_runtime(g, P=2)
        det = attach_race_detector(rt)
        h = rt.mem.register("t.y", np.zeros(g_n))

        def body(t, vs):
            if t == 0:
                rt.mem.write(h, idx=2, mode="rand")   # 2 is owned by t0
            else:
                rt.mem.read(h, idx=2, mode="rand")

        rt.for_each_thread(body)
        assert det.report().clean

    def test_remote_write_read_is_a_race(self):
        from repro.graph.builder import from_edges
        g = from_edges(8, [(0, 1)])
        rt = make_runtime(g, P=2)
        det = attach_race_detector(rt)
        h = rt.mem.register("t.z", np.zeros(8))

        def body(t, vs):
            if t == 0:
                rt.mem.write(h, idx=6, mode="rand")   # 6 is owned by t1
            else:
                rt.mem.read(h, idx=6, mode="rand")

        rt.for_each_thread(body)
        report = det.report()
        assert [r.kind for r in report.races] == ["rw"]

    def test_lock_shields_the_plain_write(self, er_graph):
        rt = make_runtime(er_graph, P=4)
        det = attach_race_detector(rt)
        h = rt.mem.register("t.locked", np.zeros(er_graph.n))

        def body(t, vs):
            rt.mem.lock(h, idx=0, mode="rand")
            rt.mem.write(h, idx=0, mode="rand")

        rt.for_each_thread(body)
        assert det.report().clean

    def test_plain_write_racing_an_atomic_is_mixed(self, er_graph):
        rt = make_runtime(er_graph, P=2)
        det = attach_race_detector(rt)
        h = rt.mem.register("t.mixed", np.zeros(er_graph.n))

        def body(t, vs):
            if t == 0:
                rt.mem.faa(h, idx=0, mode="rand")
            else:
                rt.mem.write(h, idx=0, mode="rand")

        rt.for_each_thread(body)
        kinds = {r.kind for r in det.report().races}
        assert kinds == {"mixed"}

    def test_covers_extends_protection_across_handles(self, er_graph):
        """cas(h1, covers=[(h2, idx)]) shields the companion store."""
        rt = make_runtime(er_graph, P=4)
        det = attach_race_detector(rt)
        h1 = rt.mem.register("t.guard", np.zeros(er_graph.n))
        h2 = rt.mem.register("t.payload", np.zeros(er_graph.n))

        def body(t, vs):
            rt.mem.cas(h1, idx=0, mode="rand", covers=[(h2, 0)])
            rt.mem.write(h2, idx=0, mode="rand")

        rt.for_each_thread(body)
        assert det.report().clean

        # the same store without the covers declaration must race
        rt2 = make_runtime(er_graph, P=4)
        det2 = attach_race_detector(rt2)
        h1b = rt2.mem.register("t.guard", np.zeros(er_graph.n))
        h2b = rt2.mem.register("t.payload", np.zeros(er_graph.n))

        def body2(t, vs):
            rt2.mem.cas(h1b, idx=0, mode="rand")
            rt2.mem.write(h2b, idx=0, mode="rand")

        rt2.for_each_thread(body2)
        assert not det2.report().clean

    def test_master_context_accesses_are_skipped(self, er_graph):
        """Writes between regions (frontier merges) cannot race."""
        rt = make_runtime(er_graph, P=4)
        det = attach_race_detector(rt)
        h = rt.mem.register("t.master", np.zeros(er_graph.n))
        rt.mem.write(h, idx=np.arange(er_graph.n), mode="seq")
        rt.barrier()
        rt.mem.write(h, idx=np.arange(er_graph.n), mode="seq")
        rt.barrier()
        assert det.report().clean

    def test_position_blind_writes_are_counted(self, er_graph):
        rt = make_runtime(er_graph, P=2)
        det = attach_race_detector(rt)
        h = rt.mem.register("t.blind", np.zeros(er_graph.n))

        def body(t, vs):
            rt.mem.write(h, count=5, mode="rand")

        rt.for_each_thread(body)
        assert det.unattributed_writes == 10

    def test_detector_is_accounting_transparent(self, er_graph):
        """Counters and simulated time are identical with the proxy on."""
        from repro.algorithms import pagerank

        rt_plain = make_runtime(er_graph, P=4)
        r_plain = pagerank(er_graph, rt_plain, direction="push", iterations=3)
        rt_det = make_runtime(er_graph, P=4)
        attach_race_detector(rt_det)
        r_det = pagerank(er_graph, rt_det, direction="push", iterations=3)

        assert r_det.counters.to_dict() == r_plain.counters.to_dict()
        assert r_det.time == pytest.approx(r_plain.time)
        assert np.allclose(r_det.ranks, r_plain.ranks)


class TestStrictCovers:
    """strict_covers=True: a covers= declaration must be followed by the
    covered companion write before the declaring thread's barrier."""

    def test_dangling_declaration_is_rejected(self, er_graph):
        rt = make_runtime(er_graph, P=2)
        det = attach_race_detector(rt, strict_covers=True)
        h1 = rt.mem.register("t.guard", np.zeros(er_graph.n))
        h2 = rt.mem.register("t.payload", np.zeros(er_graph.n))

        def body(t, vs):
            # declares a companion store on h2[0] that never happens
            rt.mem.cas(h1, idx=0, mode="rand", covers=[(h2, 0)])

        rt.for_each_thread(body)
        report = det.report()
        assert not report.clean
        assert {r.kind for r in report.races} == {"dangling-cover"}
        assert all(r.handle == "t.payload" for r in report.races)

    def test_honored_declaration_is_clean(self, er_graph):
        rt = make_runtime(er_graph, P=2)
        det = attach_race_detector(rt, strict_covers=True)
        h1 = rt.mem.register("t.guard", np.zeros(er_graph.n))
        h2 = rt.mem.register("t.payload", np.zeros(er_graph.n))

        def body(t, vs):
            rt.mem.cas(h1, idx=0, mode="rand", covers=[(h2, 0)])
            rt.mem.write(h2, idx=0, mode="rand")

        rt.for_each_thread(body)
        assert det.report().clean

    def test_default_mode_tolerates_dangling_declaration(self, er_graph):
        rt = make_runtime(er_graph, P=2)
        det = attach_race_detector(rt)
        h1 = rt.mem.register("t.guard", np.zeros(er_graph.n))
        h2 = rt.mem.register("t.payload", np.zeros(er_graph.n))

        def body(t, vs):
            rt.mem.cas(h1, idx=0, mode="rand", covers=[(h2, 0)])

        rt.for_each_thread(body)
        assert det.report().clean

    def test_lock_self_cover_is_exempt(self, er_graph):
        """A lock's implicit cover of its own lock word is not a
        covers= declaration and needs no companion write."""
        rt = make_runtime(er_graph, P=2)
        det = attach_race_detector(rt, strict_covers=True)
        h = rt.mem.register("t.locked", np.zeros(er_graph.n))

        def body(t, vs):
            rt.mem.lock(h, idx=0, mode="rand")
            rt.mem.write(h, idx=0, mode="rand")

        rt.for_each_thread(body)
        assert det.report().clean


class TestTrianglePushPA:
    """Regression: the TC push-pa plain-vs-atomic race is fixed by the
    two-phase split (ROADMAP item; previously flagged as `mixed`)."""

    def test_push_pa_is_clean_under_the_detector(self, er_graph):
        from repro.algorithms.triangle import triangle_count

        rt = make_runtime(er_graph, P=4)
        det = attach_race_detector(rt)
        r = triangle_count(er_graph, rt, direction="push-pa")
        assert det.report().clean
        # the split keeps the PA contract: cross-partition FAAs remain
        assert r.counters.faa > 0

    def test_push_pa_still_matches_other_directions(self, er_graph):
        from repro.algorithms.triangle import triangle_count

        results = {}
        for d in ("push", "pull", "push-pa"):
            rt = make_runtime(er_graph, P=4)
            results[d] = triangle_count(er_graph, rt, direction=d).per_vertex
        assert np.array_equal(results["push-pa"], results["push"])
        assert np.array_equal(results["push-pa"], results["pull"])


class TestRmatDataset:
    """The dynamic pass extends beyond ER to the registry rmat family."""

    def test_rmat_matrix_clean_within_budget(self):
        import time

        t0 = time.monotonic()
        runs = analyze_algorithms(n=64, P=4, seed=7, dataset="rmat")
        elapsed = time.monotonic() - t0
        assert all(r.report.clean for r in runs), [str(r) for r in runs]
        assert all(r.check.ok for r in runs), [str(r.check) for r in runs]
        # smoke budget: the small-scale rmat matrix must stay cheap
        assert elapsed < 60.0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            analyze_algorithms(n=32, dataset="not-a-family")


class TestAlgorithmMatrix:
    """The acceptance gate: all 7 algorithms, both directions, P>=4."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return analyze_algorithms(n=96, P=4, seed=7)

    def test_covers_full_matrix(self, matrix):
        assert {(r.cell.algorithm, r.cell.variant) for r in matrix} == {
            (a, d) for a in LABELS for d in ("push", "pull")}

    def test_zero_races_everywhere(self, matrix):
        dirty = [r for r in matrix if not r.report.clean]
        assert not dirty, "\n".join(
            f"{r.cell.algorithm}/{r.cell.variant}: {r.report.summary()}"
            for r in dirty)

    def test_pull_has_zero_plain_write_conflicts(self, matrix):
        for r in matrix:
            if r.cell.variant == "pull":
                assert r.report.write_conflicts == 0, (
                    f"{r.cell.algorithm}/pull shows write conflicts")

    def test_observed_conflicts_within_pram_bounds(self, matrix):
        failing = [r for r in matrix if not r.check.ok]
        assert not failing, "\n".join(str(r.check) for r in failing)

    def test_higher_thread_count_still_clean(self):
        runs = analyze_algorithms(n=96, P=8, seed=7,
                                  algorithms=("BFS", "BGC", "SSSP-Δ"))
        assert all(r.report.clean for r in runs)


class TestCrossCheckUnit:
    def test_pull_write_conflicts_fail_hard(self):
        report = RaceReport(epochs=3, write_conflicts=5)
        res = crosscheck("PR", "pull", report, n=100, m=400, d_hat=10, P=4,
                         iterations=5)
        assert not res.ok
        assert "ownership" in res.detail

    def test_push_within_slack_passes(self):
        report = RaceReport(epochs=5, write_conflicts=10, atomic_conflicts=40,
                            read_conflicts=100)
        res = crosscheck("PR", "push", report, n=100, m=400, d_hat=10, P=4,
                         iterations=5)
        assert res.ok

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            crosscheck("NOPE", "push", RaceReport(), n=10, m=10, d_hat=2, P=2)
