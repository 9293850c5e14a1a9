"""Chaos-suite matrix tests (repro.analysis.runner) + road dataset.

The heavy gate runs from CI via ``repro analyze --faults``; here the
matrix is exercised at a reduced scale so the contracts -- convergence
under every fault plan, epoch-checker cleanliness during recovery, and
strictly-accounted overhead -- are part of the tier-1 battery.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.crosscheck import DMCommCheckResult
from repro.analysis.race import Race, RaceReport
from repro.analysis.runner import (
    DM_MATRIX, SM_MATRIX, Cell, CellRun, analyze_algorithms, analyze_dm,
    analyze_faults, default_fault_plans, default_sm_fault_plans,
    format_overhead_table, instance_graph, markdown_overhead_table,
    overhead_table,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.sm_faults import SMFaultPlan


@pytest.fixture(scope="module")
def runs() -> list[CellRun]:
    return analyze_faults(n=40, P=4, fault_seeds=(0,), runtimes=("dm",))


@pytest.fixture(scope="module")
def sm_runs() -> list[CellRun]:
    return analyze_faults(n=40, P=4, fault_seeds=(0,), runtimes=("sm",))


class TestChaosMatrix:
    def test_every_cell_and_plan_passes(self, runs):
        bad = [r for r in runs if not r.ok]
        assert bad == [], "\n".join(str(r) for r in bad)

    def test_full_matrix_is_covered(self, runs):
        cells = {(r.cell.algorithm, r.cell.variant) for r in runs}
        expected = {(a, v) for a, vs in DM_MATRIX for v in vs}
        assert cells == expected
        plans = {r.cell.plan_name for r in runs}
        assert plans == {name for name, _ in default_fault_plans(0)}

    def test_faults_actually_fired(self, runs):
        # the chaos plan must fire on every cell; per-class plans only
        # fire where their channel exists (no drops on pure-RMA kernels)
        chaos = [r for r in runs if r.cell.plan_name == "chaos"]
        assert all(r.fired > 0 for r in chaos)
        assert sum(r.fired for r in runs) > 100

    def test_costly_recovery_shows_in_overhead(self, runs):
        costly = [r for r in runs if r.costly > 0]
        assert costly, "no run did costly recovery work?"
        assert all(r.overhead > 0 for r in costly)

    def test_overhead_table_shape(self, runs):
        rows = overhead_table(runs)
        assert all(row["overhead_pct"] >= 0 for row in rows)
        text = format_overhead_table(runs)
        assert "chaos" in text and "SSSP" in text

    def test_custom_plan_list(self):
        plans = [("drop-only", FaultPlan(seed=0, drop=0.2))]
        runs = analyze_faults(n=32, P=4, fault_seeds=(0,), runtimes=("dm",),
                              plans=plans)
        assert {r.cell.plan_name for r in runs} == {"drop-only"}
        assert all(r.ok for r in runs)


class TestSMChaosMatrix:
    def test_every_cell_and_plan_passes(self, sm_runs):
        bad = [r for r in sm_runs if not r.ok]
        assert bad == [], "\n".join(str(r) for r in bad)

    def test_full_matrix_is_covered(self, sm_runs):
        cells = {(r.cell.algorithm, r.cell.variant) for r in sm_runs}
        expected = {(a, v) for a, vs in SM_MATRIX for v in vs}
        assert cells == expected
        assert all(r.cell.runtime == "sm" for r in sm_runs)
        plans = {r.cell.plan_name for r in sm_runs}
        assert plans == {name for name, _ in default_sm_fault_plans(0)}

    def test_chaos_plan_fires_everywhere(self, sm_runs):
        chaos = [r for r in sm_runs if r.cell.plan_name == "chaos"]
        assert all(r.fired > 0 for r in chaos)

    def test_every_cell_reconciles_counters(self, sm_runs):
        # recovery work is re-accounted inside traced regions, recovery
        # waits are counter-free stalls -- reconciliation must be exact
        assert all(r.reconciled for r in sm_runs)

    def test_costly_recovery_shows_in_overhead(self, sm_runs):
        costly = [r for r in sm_runs if r.costly > 0]
        assert costly, "no SM run did costly recovery work?"
        assert all(r.overhead > 0 for r in costly)

    def test_custom_plan_list(self):
        plans = [("cas-only", SMFaultPlan(seed=0, cas_lost=0.2))]
        runs = analyze_faults(n=32, P=4, fault_seeds=(0,), runtimes=("sm",),
                              plans=plans)
        assert {r.cell.plan_name for r in runs} == {"cas-only"}
        assert all(r.ok for r in runs)

    def test_combined_tables_have_both_blocks(self, runs, sm_runs):
        both = runs + sm_runs
        text = format_overhead_table(both)
        assert "dm fault overhead" in text
        assert "sm fault overhead" in text
        md = markdown_overhead_table(both)
        assert "### DM fault overhead" in md
        assert "### SM fault overhead" in md
        # the two grids have different plan vocabularies
        assert "cas-lost" in md and "rma-lost" in md


def _passing_run() -> CellRun:
    """A chaos-style record on which every check applies and passes."""
    check = DMCommCheckResult("PR", "mp", ok=True, observed_remote=0,
                              observed_messages=10, bound_remote=100.0,
                              bound_messages=100.0)
    return CellRun(cell=Cell("dm", "PR", "mp", "chaos",
                             FaultPlan(seed=0, drop=0.1)),
                   report=RaceReport(epochs=3), time=120.0, check=check,
                   pending_unflushed=0, reconciled=True, converged=True,
                   base_time=100.0, fired=4, costly=2)


_RACE = Race("write-vs-acc", "pr.rank", 1, (0, 1), 1, (7,))


class TestCellRunVerdict:
    """``ok`` is the conjunction of the applied checks: one seeded
    defect per check must flip it."""

    def test_passing_run_is_ok(self):
        run = _passing_run()
        assert run.ok and "FAIL" not in str(run)

    @pytest.mark.parametrize("check,defect", [
        ("clean", {"report": RaceReport(races=[_RACE], epochs=3)}),
        ("bound", {"check": replace(_passing_run().check, ok=False)}),
        ("flushed", {"pending_unflushed": 2}),
        ("converged", {"converged": False}),
        ("reconciled", {"reconciled": False}),
        ("accounted", {"time": 99.0}),            # faster than the twin
        ("accounted", {"time": 100.0}),           # costly but free
    ])
    def test_single_defect_fails(self, check, defect):
        run = replace(_passing_run(), **defect)
        assert not run.ok
        assert [k for k, ok in run.checks().items() if not ok] == [check]
        assert f"FAIL: {check}" in str(run)

    def test_unapplied_checks_have_no_vote(self):
        run = CellRun(cell=Cell("sm", "BFS", "push"), report=RaceReport(),
                      time=5.0)
        assert run.ok and list(run.checks()) == ["clean"]


class TestRoadDataset:
    def test_instance_graph_road(self):
        g = instance_graph("road", 64, 4.0, 7, weighted=True)
        assert g.n == 64 and g.weights is not None

    def test_instance_graph_unknown(self):
        with pytest.raises(ValueError, match="road"):
            instance_graph("socnet", 64, 4.0, 7, weighted=False)

    def test_dm_matrix_on_road(self):
        runs = analyze_dm(n=64, P=4, dataset="road")
        bad = [r for r in runs if not r.ok]
        assert bad == [], "\n".join(str(r) for r in bad)

    def test_sm_matrix_on_road(self):
        runs = analyze_algorithms(n=64, P=4, dataset="road",
                                  algorithms=("BFS", "SSSP-Δ"))
        bad = [r for r in runs if not r.ok]
        assert bad == [], "\n".join(str(r) for r in bad)

    def test_chaos_on_road(self):
        plans = [("chaos", default_fault_plans(0)[-1][1])]
        runs = analyze_faults(n=36, P=4, dataset="road", fault_seeds=(0,),
                              runtimes=("dm",), plans=plans)
        bad = [r for r in runs if not r.ok]
        assert bad == [], "\n".join(str(r) for r in bad)


class TestCommDataset:
    """The communication-heavy family across all three suites."""

    def test_instance_graph_comm(self):
        g = instance_graph("comm", 64, 4.0, 7, weighted=True)
        assert g.n == 64 and g.weights is not None
        # the hub construction must beat the requested floor density
        assert g.m / g.n >= 4.0

    def test_dm_matrix_on_comm(self):
        runs = analyze_dm(n=64, P=4, dataset="comm")
        bad = [r for r in runs if not r.ok]
        assert bad == [], "\n".join(str(r) for r in bad)

    def test_sm_matrix_on_comm(self):
        runs = analyze_algorithms(n=64, P=4, dataset="comm",
                                  algorithms=("PR", "BFS"))
        bad = [r for r in runs if not r.ok]
        assert bad == [], "\n".join(str(r) for r in bad)

    def test_chaos_on_comm(self):
        plans = [("chaos", default_fault_plans(0)[-1][1])]
        runs = analyze_faults(n=36, P=4, dataset="comm", fault_seeds=(0,),
                              runtimes=("dm",), plans=plans)
        bad = [r for r in runs if not r.ok]
        assert bad == [], "\n".join(str(r) for r in bad)
