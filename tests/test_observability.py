"""Tests for the unified trace/metrics layer (repro.observability).

Covers the ISSUE-4 acceptance surface: bit-identical JSONL exports
(including under fault plans), exact PerfCounters reconciliation
between region/superstep deltas and run totals, Chrome trace-event
structural validity (matched B/E pairs, monotonic per-lane
timestamps), the metrics rollup, region labelling, and the
import-lightness of the runtime/observability modules -- plus the
ISSUE-5 surface: cache-counter attribution (span deltas carry
L1/L2/L3/TLB miss columns that reconcile exactly and expose the
push-vs-pull miss asymmetry), the partition edge-cut in the rollup
cross-checked against the cut-based communication bounds, and the
exporter edge cases (empty traces, zero-duration spans).
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernels import DIRECTIONS, EFFECT_ENTRIES, KERNELS
from repro.observability import (
    SCHEMA, chrome_trace, metrics_rollup, to_jsonl_lines, write_outputs,
)
from repro.observability.driver import run_traced

SRC = str(Path(__file__).parent.parent / "src")


def _trace(algorithm="pagerank", **kw):
    _rt, tracer, _resolved, _result = run_traced(algorithm, **kw)
    return tracer


class TestDeterminism:
    def test_sm_jsonl_bit_identical(self):
        a = to_jsonl_lines(_trace("pagerank", variant="push"))
        b = to_jsonl_lines(_trace("pagerank", variant="push"))
        assert a == b

    def test_dm_fault_jsonl_bit_identical(self):
        kw = dict(variant="push", dm=True, faults=True)
        a = to_jsonl_lines(_trace("pagerank", **kw))
        b = to_jsonl_lines(_trace("pagerank", **kw))
        assert a == b
        # the fault plan must actually have fired for this to mean much
        assert any('"kind":"recovery"' in line or '"kind":"fault"' in line
                   for line in a)

    def test_chrome_and_metrics_deterministic(self):
        t1 = _trace("bfs", variant="switching")
        t2 = _trace("bfs", variant="switching")
        dumps = lambda o: json.dumps(o, sort_keys=True)  # noqa: E731
        assert dumps(chrome_trace(t1)) == dumps(chrome_trace(t2))
        assert dumps(metrics_rollup(t1)) == dumps(metrics_rollup(t2))

    def test_written_files_identical_across_runs(self, tmp_path):
        p1 = write_outputs(_trace("sssp", variant="pull", dm=True),
                           str(tmp_path / "a"))
        p2 = write_outputs(_trace("sssp", variant="pull", dm=True),
                           str(tmp_path / "b"))
        for key in ("jsonl", "chrome", "metrics"):
            assert Path(p1[key]).read_bytes() == Path(p2[key]).read_bytes()


#: every (kernel, variant, dm) the kernel table can launch: SM rows x
#: push/pull plus the named SM variants, PageRank's partition-aware
#: push, and DM rows x backends -- except DM PageRank mp, which
#: test_dm_mp_pagerank_reconciles pins as a known defect
TABLE_CELLS = (
    [(k.name, v, False) for k in KERNELS
     for v in (*DIRECTIONS, *k.sm_variants)]
    + [("pagerank", "push-pa", False)]
    + [(k.name, v, True) for k in KERNELS if k.dm for v in k.dm_variants
       if (k.name, v) != ("pagerank", "mp")])

#: the effect-only SM entries (EFFECT_ENTRIES beyond the table rows),
#: each with the arguments it needs; weighted BC takes 4 sources, as
#: the BC row does
EFFECT_ONLY_CELLS = {
    "bc_weighted": {"sources": 4},
    "bc_approx": {"vertex": 0},
    "frontier_exploit_coloring": {},
    "conflict_removal_coloring": {},
}


class TestReconciliation:
    """Σ region/superstep deltas + barrier events == run totals, exactly."""

    @pytest.mark.parametrize("algorithm,variant,dm", TABLE_CELLS)
    def test_every_table_row_traces_clean(self, algorithm, variant, dm):
        tracer = _trace(algorithm, variant=variant, dm=dm)
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict(), "counter reconciliation"
        assert tracer.critical_totals()["reconciled"], "time decomposition"

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("entry", EFFECT_ONLY_CELLS)
    def test_effect_only_entries_trace_clean(self, entry, direction):
        from repro.analysis.runner import instance_graph
        from repro.observability.hwcounters import equip_cache_sim
        from repro.observability.tracer import attach_tracer
        from repro.runtime.sm import SMRuntime

        module, _, fn = EFFECT_ENTRIES[entry].partition(":")
        kernel = getattr(importlib.import_module(f"repro.{module}"), fn)
        # equipped as run_traced equips a table row
        g = instance_graph("er", 96, d_bar=4.0, seed=7,
                           weighted=entry == "bc_weighted")
        rt = SMRuntime(g, 4)
        equip_cache_sim(rt)
        tracer = attach_tracer(rt, graph=g)
        kernel(g, rt, direction=direction, **EFFECT_ONLY_CELLS[entry])
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict(), "counter reconciliation"
        assert tracer.critical_totals()["reconciled"], "time decomposition"

    @pytest.mark.parametrize("algorithm,kw", [
        ("pagerank", dict(variant="push")),
        ("pagerank", dict(variant="pull")),
        ("bfs", dict(variant="switching")),
        ("sssp", dict(variant="push")),
        ("pagerank", dict(variant="pull", dm=True)),
        ("bfs", dict(variant="push", dm=True)),
        ("sssp", dict(variant="push", dm=True)),
        ("pagerank", dict(variant="push", dm=True, faults=True)),
        ("bfs", dict(variant="switching", dm=True, faults=True)),
    ])
    def test_traced_totals_match_run_totals(self, algorithm, kw):
        tracer = _trace(algorithm, **kw)
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict()

    def test_totals_are_nonzero(self):
        traced, actual = _trace("pagerank", variant="push").reconcile()
        assert any(v for v in actual.to_dict().values())

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: DMRuntime.alltoallv counts collectives between "
        "supersteps, so no trace event carries them and rt.time never "
        "charges them"))
    def test_dm_mp_pagerank_reconciles(self):
        traced, actual = _trace("pagerank", variant="mp", dm=True).reconcile()
        assert traced.to_dict() == actual.to_dict()


class TestChromeTrace:
    def _events(self, **kw):
        return chrome_trace(_trace(**kw))["traceEvents"]

    @pytest.mark.parametrize("kw", [
        dict(algorithm="pagerank", variant="push"),
        dict(algorithm="pagerank", variant="push", dm=True, faults=True),
    ])
    def test_b_e_pairs_match_per_lane(self, kw):
        stacks: dict[int, list[str]] = {}
        for ev in self._events(**kw):
            if ev["ph"] == "B":
                stacks.setdefault(ev["tid"], []).append(ev["name"])
            elif ev["ph"] == "E":
                assert stacks.get(ev["tid"]), f"E without B on {ev['tid']}"
                assert stacks[ev["tid"]].pop() == ev["name"]
        assert all(not s for s in stacks.values()), "unclosed B events"

    def test_timestamps_valid_for_importer(self):
        # trace importers (Perfetto) sort by ts, so file order is free;
        # what must hold is E.ts >= B.ts for every pair and nothing
        # before the epoch
        opens: dict[int, list[float]] = {}
        for ev in self._events(algorithm="pagerank", variant="push",
                               dm=True, faults=True):
            if "ts" in ev:
                assert ev["ts"] >= 0.0
            if ev["ph"] == "B":
                opens.setdefault(ev["tid"], []).append(ev["ts"])
            elif ev["ph"] == "E":
                assert ev["ts"] >= opens[ev["tid"]].pop()

    def test_runtime_lane_is_monotonic(self):
        # the runtime lane (barriers / supersteps / global instants) is
        # emitted in simulated-time order even in file order
        evs = self._events(algorithm="pagerank", variant="push", dm=True)
        P = 4
        last = 0.0
        for ev in evs:
            if ev.get("tid") == P and "ts" in ev and ev["ph"] != "E":
                assert ev["ts"] >= last
                last = ev["ts"]

    def test_one_lane_per_rank_plus_runtime(self):
        evs = self._events(algorithm="pagerank", variant="push", dm=True,
                           P=4)
        names = {ev["args"]["name"] for ev in evs
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert names == {"rank 0", "rank 1", "rank 2", "rank 3", "runtime"}

    def test_frontier_counter_track(self):
        evs = self._events(algorithm="bfs", variant="push")
        counters = [ev for ev in evs if ev["ph"] == "C"]
        assert counters and all(ev["name"] == "frontier-size"
                                for ev in counters)


class TestEventContent:
    def test_jsonl_header_carries_schema(self):
        lines = to_jsonl_lines(_trace("pagerank", variant="push"))
        head = json.loads(lines[0])
        assert head["schema"] == SCHEMA
        assert head["runtime"] == "sm" and head["P"] == 4

    def test_switch_events_carry_operands(self):
        tracer = _trace("bfs", variant="switching")
        switches = [ev for ev in tracer.events if ev.kind == "switch"]
        assert switches, "direction-optimizing BFS must log its decisions"
        for ev in switches:
            assert "frontier_edges" in ev.data and "alpha" in ev.data
            assert ev.data["chosen"] in ("push", "pull")

    def test_frontier_events_carry_density(self):
        tracer = _trace("bfs", variant="push")
        fronts = [ev for ev in tracer.events if ev.kind == "frontier"]
        assert fronts
        for ev in fronts:
            assert 0.0 <= ev.data["density"] <= 1.0

    def test_regions_are_phase_annotated(self):
        tracer = _trace("pagerank", variant="pull")
        labels = {ev.label for ev in tracer.events if ev.kind == "region"}
        assert "pr.pull" in labels and "pr.finalize" in labels

    def test_dm_comm_verbs_recorded(self):
        tracer = _trace("pagerank", variant="push", dm=True)
        kinds = {ev.kind for ev in tracer.events}
        assert "rma" in kinds and "flush" in kinds

    def test_recovery_events_land_on_injected_lane(self):
        tracer = _trace("pagerank", variant="push", dm=True, faults=True)
        recov = [ev for ev in tracer.events if ev.kind == "recovery"]
        assert recov, "the default chaos plan must trigger recovery"
        P = tracer.rt.P
        assert all(ev.lane is None or 0 <= ev.lane < P for ev in recov)
        assert any(ev.lane is not None for ev in recov)

    def test_sm_faults_traced_and_reconciled(self):
        # PR 8: --faults without --dm attaches the SM injector; fault
        # events land in the trace and reconciliation still holds
        rt, tracer, _variant, _result = run_traced("bfs", variant="push",
                                                   faults=True)
        kinds = {ev.kind for ev in tracer.events}
        assert "fault" in kinds
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict()


class TestMetricsRollup:
    def test_series_sum_to_step_counters(self):
        roll = metrics_rollup(_trace("pagerank", variant="push"))
        for name, values in roll["series"].items():
            total = sum(s["counters"].get(name, 0) for s in roll["steps"])
            assert sum(values) == total

    def test_step_times_bounded_by_run_time(self):
        roll = metrics_rollup(_trace("pagerank", variant="push", dm=True))
        assert sum(s["time"] for s in roll["steps"]) <= roll["time_mtu"]


class TestCacheCounters:
    """Spans carry cache/TLB miss deltas (the paper's Table 1 columns)."""

    def test_span_deltas_carry_cache_misses(self):
        tracer = _trace("pagerank", variant="pull")
        deltas = [d for ev in tracer.events if ev.kind == "region"
                  for d in ev.data["deltas"]]
        assert any(d.get("l1_misses") for d in deltas)
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict()
        assert actual.l1_misses > 0 and actual.tlb_d_misses >= 0

    def test_dm_span_deltas_carry_cache_misses(self):
        tracer = _trace("pagerank", variant="pull", dm=True)
        deltas = [d for ev in tracer.events if ev.kind == "superstep"
                  for d in ev.data["deltas"]]
        assert any(d.get("l1_misses") for d in deltas)
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict()

    def test_push_pull_miss_asymmetry(self):
        from repro.observability import miss_asymmetry
        push = _trace("pagerank", variant="push").rt.total_counters()
        pull = _trace("pagerank", variant="pull").rt.total_counters()
        gap = miss_asymmetry(push.to_dict(), pull.to_dict())
        # PR pull gathers random neighbor ranks; push streams its own
        # adjacency -- pull must miss more per read (Section 6.1)
        assert gap["l1_misses"] > 0

    def test_cache_scale_zero_disables_simulation(self):
        tracer = _trace("pagerank", variant="pull", cache_scale=0)
        totals = tracer.rt.total_counters()
        assert totals.reads > 0 and totals.l1_misses == 0

    def test_rollup_cache_view_is_schema_complete(self):
        from repro.observability.hwcounters import TABLE1_COLUMNS
        roll = metrics_rollup(_trace("pagerank", variant="pull"))
        assert roll["schema"] == "repro-metrics/3"
        view = roll["cache"]
        assert view["columns"] == list(TABLE1_COLUMNS) + ["l1_per_read"]
        labels = {r["label"] for r in view["rows"]}
        assert "pr.pull" in labels
        for row in view["rows"]:
            assert all(k in row for k in view["columns"])

    def test_dm_ranks_have_private_l3(self, tiny_graph):
        from repro.machine.memory import CacheSimMemory
        from repro.observability.hwcounters import equip_cache_sim
        from repro.runtime.dm import DMRuntime
        from repro.runtime.sm import SMRuntime
        dm_mem = equip_cache_sim(DMRuntime(96, 4))
        assert isinstance(dm_mem, CacheSimMemory) and not dm_mem.shared_l3
        sm_mem = equip_cache_sim(SMRuntime(tiny_graph, P=4))
        assert isinstance(sm_mem, CacheSimMemory) and sm_mem.shared_l3


class TestEdgeCut:
    """rollup["cut"] agrees with the analysis layer's cut accounting."""

    def test_cut_matches_cross_edges(self):
        from repro.analysis.runner import cross_edges
        tracer = _trace("pagerank", variant="push", dm=True)
        rt = tracer.rt
        roll = metrics_rollup(tracer)
        cut = roll["cut"]
        g = tracer_graph()
        assert cut["edges_cross"] == cross_edges(g, rt.part)
        assert sum(cut["per_lane_out"]) == cut["edges_cross"]
        assert 0.0 < cut["fraction"] <= 1.0

    def test_comm_bounded_by_cut(self):
        from repro.analysis.crosscheck import dm_crosscheck
        tracer = _trace("pagerank", variant="push", dm=True, iterations=5)
        roll = metrics_rollup(tracer)
        check = dm_crosscheck(
            "pagerank", "rma-push", tracer.rt.total_counters(),
            m_cross=roll["cut"]["edges_cross"], P=tracer.rt.P,
            supersteps=tracer.rt.superstep_index, rounds=5)
        assert check.ok, check

    def test_sm_trace_also_reports_cut(self):
        roll = metrics_rollup(_trace("pagerank", variant="push"))
        assert roll["cut"] is not None
        assert roll["cut"]["edges_total"] > roll["cut"]["edges_cross"] > 0


class TestCriticalPath:
    """rollup["critical_path"]: decomposition sums exactly to run time
    and per-lane busy/idle splits close against it (PR 9)."""

    @staticmethod
    def _crit(tracer):
        return metrics_rollup(tracer)["critical_path"]

    def test_sm_decomposition_sums_to_run_time(self):
        crit = self._crit(_trace("pagerank", variant="pull"))
        t = crit["totals"]
        assert t["reconciled"]
        assert t["comm"] == 0.0  # SM pays no per-verb network charges
        assert t["compute"] > 0 and t["sync"] > 0
        on_path = (t["compute"] + t["comm"] + t["injected_stall"]
                   + t["sync"] + t["recovery_stall"])
        assert math.isclose(on_path, t["time_mtu"], rel_tol=1e-9,
                            abs_tol=1e-6)

    def test_dm_decomposition_attributes_comm(self):
        t = self._crit(_trace("pagerank", variant="push", dm=True))["totals"]
        assert t["reconciled"] and t["comm"] > 0

    def test_per_lane_identity(self):
        for dm in (False, True):
            crit = self._crit(_trace("bfs", variant="push", dm=dm))
            t = crit["totals"]
            off = t["sync"] + t["recovery_stall"]
            for lane in crit["lanes"]:
                assert math.isclose(lane["busy"] + lane["idle"] + off,
                                    t["time_mtu"], rel_tol=1e-9,
                                    abs_tol=1e-6), lane
            assert math.isclose(sum(la["idle"] for la in crit["lanes"]),
                                t["off_path_idle"], rel_tol=1e-9,
                                abs_tol=1e-6)

    def test_fault_runs_still_reconcile(self):
        t = self._crit(
            _trace("pagerank", variant="push", dm=True, faults=True))["totals"]
        assert t["reconciled"] and t["recovery_stall"] > 0
        t = self._crit(_trace("bfs", variant="push", faults=True))["totals"]
        assert t["reconciled"]

    def test_single_lane_run_has_no_off_path_idle(self):
        t = self._crit(_trace("pagerank", variant="push", P=1))["totals"]
        assert t["reconciled"] and t["off_path_idle"] == 0.0

    def test_rollup_carries_decomposition(self):
        roll = metrics_rollup(_trace("sssp", variant="push", dm=True))
        crit = roll["critical_path"]
        assert crit["totals"]["reconciled"]
        assert crit["intervals"] and crit["lanes"]
        for iv in crit["intervals"]:
            assert iv["compute"] + iv["comm"] + iv["injected"] <= \
                iv["time"] * (1 + 1e-9)


class TestTrafficMatrix:
    """rollup["traffic"]: per-rank-pair verb/byte matrix reconciles
    exactly with the run counters and the cut bound (PR 9)."""

    @staticmethod
    def _traffic(tracer):
        return metrics_rollup(tracer)["traffic"]

    def test_totals_reconcile_exactly(self):
        from repro.observability.sinks import _TRAFFIC_TOTALS
        for variant in ("push", "pull"):
            tracer = _trace("pagerank", variant=variant, dm=True)
            tm = self._traffic(tracer)
            totals = tracer.rt.total_counters()
            for counter in _TRAFFIC_TOTALS.values():
                assert tm["totals"][counter] == getattr(totals, counter), \
                    counter

    def test_row_sums_match_per_rank_counters(self):
        tracer = _trace("pagerank", variant="pull", dm=True)
        tm = self._traffic(tracer)
        rt = tracer.rt
        for rank in range(rt.P):
            row = [p for p in tm["pairs"] if p["src"] == rank]
            assert sum(p["rma_bytes"] for p in row) == \
                rt.proc_counters[rank].remote_bytes
            assert sum(p["gets"] for p in row) == \
                rt.proc_counters[rank].remote_gets

    def test_matrix_satisfies_cut_bound(self):
        # the matrix totals feed dm_crosscheck exactly like the run
        # counters do: the traced traffic obeys the cut-based bound
        from repro.analysis.crosscheck import dm_crosscheck
        from repro.machine.counters import PerfCounters
        tracer = _trace("pagerank", variant="push", dm=True, iterations=5)
        roll = metrics_rollup(tracer)
        tm = roll["traffic"]
        run_totals = tracer.rt.total_counters()
        c = PerfCounters(
            **dict(tm["totals"]),
            collectives=run_totals.collectives,
            collective_bytes=run_totals.collective_bytes,
        )
        check = dm_crosscheck(
            "pagerank", "rma-push", c,
            m_cross=roll["cut"]["edges_cross"], P=tracer.rt.P,
            supersteps=tracer.rt.superstep_index, rounds=5)
        assert check.ok, check

    def test_local_verbs_excluded(self):
        # owner == issuing rank verbs charge no remote counters; the
        # matrix must skip them (no src == dst pairs) yet still close
        tracer = _trace("pagerank", variant="push", dm=True)
        local = [ev for ev in tracer.events if ev.kind == "rma"
                 and ev.data["owner"] == ev.lane]
        assert local, "expected owner-local verbs in the trace"
        tm = self._traffic(tracer)
        assert all(p["src"] != p["dst"] for p in tm["pairs"])

    def test_sm_matrix_is_empty(self):
        tm = self._traffic(_trace("pagerank", variant="push"))
        assert tm["pairs"] == []
        assert all(v == 0 for v in tm["totals"].values())


class TestSwitchesInRollup:
    """Direction-switch decisions with operands surface in the rollup."""

    def test_switching_bfs_exposes_operands(self):
        tracer = _trace("bfs", variant="switching")
        roll = metrics_rollup(tracer)
        events = [ev for ev in tracer.events if ev.kind == "switch"]
        assert len(roll["switches"]) == len(events) > 0
        for sw in roll["switches"]:
            assert {"ts", "iteration", "previous", "chosen"} <= set(sw)
        assert any(sw["previous"] != sw["chosen"]
                   for sw in roll["switches"])

    def test_non_switching_run_has_empty_list(self):
        roll = metrics_rollup(_trace("bfs", variant="push"))
        assert roll["switches"] == []


def tracer_graph():
    """The instance every default ``run_traced`` call traces."""
    from repro.analysis.runner import instance_graph
    return instance_graph("er", 96, d_bar=4.0, seed=7, weighted=False)


class TestExporterEdgeCases:
    """Empty traces and zero-duration spans stay valid (ISSUE-5 b)."""

    def _empty_tracer(self, tiny_graph):
        from repro.observability import attach_tracer
        from repro.runtime.sm import SMRuntime
        rt = SMRuntime(tiny_graph, P=4)
        return attach_tracer(rt, graph=tiny_graph)

    def test_empty_trace_exports_are_schema_complete(self, tiny_graph,
                                                     tmp_path):
        tracer = self._empty_tracer(tiny_graph)
        lines = to_jsonl_lines(tracer)
        assert len(lines) == 1 and json.loads(lines[0])["schema"] == SCHEMA
        chrome = chrome_trace(tracer)
        assert chrome["traceEvents"]  # metadata lanes are always present
        assert all(ev["ph"] == "M" for ev in chrome["traceEvents"])
        roll = metrics_rollup(tracer)
        for key in ("schema", "meta", "time_mtu", "steps", "series",
                    "phases", "cache", "cut", "comm", "frontier", "totals",
                    "traffic", "switches", "critical_path"):
            assert key in roll
        assert roll["steps"] == [] and roll["cache"]["rows"] == []
        assert roll["traffic"]["pairs"] == [] and roll["switches"] == []
        crit = roll["critical_path"]["totals"]
        assert crit["reconciled"] and crit["time_mtu"] == 0.0
        assert roll["cut"]["edges_total"] > 0
        paths = write_outputs(tracer, str(tmp_path / "empty"), flame=True)
        assert Path(paths["flame"]).read_text() == ""
        json.loads(Path(paths["chrome"]).read_text())
        json.loads(Path(paths["metrics"]).read_text())

    def test_fault_only_trace_exports_are_valid(self, tiny_graph, tmp_path):
        # a trace holding nothing but fault events (no spans, no
        # barriers) still rolls up: zero time, empty traffic, a
        # reconciled all-zero critical path
        tracer = self._empty_tracer(tiny_graph)
        tracer.on_fault("message_drop", (1, 2, "payload"), 0)
        tracer.on_fault("rma_lost", (3,), 1)
        roll = metrics_rollup(tracer)
        assert roll["time_mtu"] == 0.0
        assert roll["traffic"]["pairs"] == []
        assert roll["critical_path"]["totals"]["reconciled"]
        paths = write_outputs(tracer, str(tmp_path / "faulty"), flame=True)
        json.loads(Path(paths["metrics"]).read_text())

    def test_zero_duration_spans_not_exported_as_empty_boxes(self):
        # sequential regions put all other lanes at span 0.0 with empty
        # deltas; those must not become zero-duration B/E boxes
        chrome = chrome_trace(_trace("bfs", variant="push"))
        P = 4
        opens: dict[tuple[int, str], list[dict]] = {}
        for ev in chrome["traceEvents"]:
            if ev["ph"] == "B" and ev["tid"] < P:
                opens.setdefault((ev["tid"], ev["name"]), []).append(ev)
            elif ev["ph"] == "E" and ev["tid"] < P:
                b = opens[(ev["tid"], ev["name"])].pop()
                if ev["ts"] == b["ts"]:
                    assert b["args"], ("zero-duration span with no "
                                       "payload exported")

    def test_zero_read_phase_has_zero_rate(self):
        from repro.observability.sinks import _cache_view
        rows = _cache_view([{"label": "idle", "events": 1, "time": 0.0,
                             "counters": {}}])["rows"]
        assert rows[0]["l1_per_read"] == 0.0


class TestProfileFold:
    """The region facts a per-region profile folds from the trace --
    labels, per-lane spans, transparency -- on a plain SMRuntime, plus
    the import-lightness of the layers ``repro trace`` loads."""

    def _traced_runtime(self, g, P=2):
        from repro.observability import attach_tracer
        from repro.runtime.sm import SMRuntime
        rt = SMRuntime(g, P=P)
        return rt, attach_tracer(rt)

    def test_unlabelled_region_is_numbered(self, tiny_graph):
        rt, tracer = self._traced_runtime(tiny_graph)
        rt.for_each_thread(lambda t, vs: None)
        regions = [ev for ev in tracer.events if ev.kind == "region"]
        assert regions[0].label == "region-0"

    def test_sequential_region_label_and_idle_lanes(self, tiny_graph):
        import numpy as np
        rt, tracer = self._traced_runtime(tiny_graph)
        h = rt.mem.register("x", np.zeros(16))
        rt.annotate("greedy")
        rt.sequential(lambda: rt.mem.read(h, count=8))
        ev = [ev for ev in tracer.events if ev.kind == "region"][-1]
        assert ev.label == "greedy [seq]"
        assert ev.data["spans"][0] > 0.0 and ev.data["spans"][1] == 0.0

    def test_tracer_leaves_ranks_and_time_unchanged(self, comm_graph):
        import numpy as np
        from repro.algorithms.pagerank import pagerank
        from repro.runtime.sm import SMRuntime
        rt, _tracer = self._traced_runtime(comm_graph, P=4)
        traced = pagerank(comm_graph, rt, direction="push", iterations=3)
        plain_rt = SMRuntime(comm_graph, P=4)
        plain = pagerank(comm_graph, plain_rt, direction="push",
                         iterations=3)
        assert np.array_equal(traced.ranks, plain.ranks)
        assert rt.time == plain_rt.time

    def _run(self, code):
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_runtime_modules_stay_import_light(self):
        # importing the observability package must not drag in the
        # harness chart code
        self._run("import sys; import repro.observability; "
                  "assert 'repro.harness.charts' not in sys.modules, "
                  "'chart code leaked into the runtime import graph'")

    def test_run_traced_loads_only_the_cell_runner(self):
        # run_traced reaches instance_graph through the runner; the
        # checkers, lint and effect inference must stay unloaded
        self._run("import sys; "
                  "from repro.observability.driver import run_traced; "
                  "run_traced('pagerank', n=96); "
                  "mods = sorted(m for m in sys.modules "
                  "if m.startswith('repro.analysis')); "
                  "assert mods == ['repro.analysis', "
                  "'repro.analysis.runner'], mods")
