"""Tests of the benchmark's own machinery: span installer, self-time
arithmetic, closure, and the metric list.  Run from the repository
root with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _tiny(name: str):
    """A workload shrunk to warm-up size (fast, same code paths)."""
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, config=dict(w.config, **workloads.WARM_UP))


def _patched_objects():
    out = {}
    for module, cls, attr, _ in spans.PATCHES:
        mod = importlib.import_module(module)
        owner = getattr(mod, cls) if cls else mod
        out[module, cls, attr] = vars(owner)[attr]
    return out


def test_uninstall_restores_every_original_object():
    before = _patched_objects()
    rec = spans.SpanRecorder()
    with spans.SpanInstaller(rec) as inst:
        assert len(inst.installed) == len(spans.PATCHES)
        during = _patched_objects()
        assert all(during[k] is not before[k] for k in before)
        assert len(spans.installed_wrappers()) == len(spans.PATCHES)
    after = _patched_objects()
    assert all(after[k] is before[k] for k in before)
    assert spans.installed_wrappers() == []


def test_failed_install_rolls_back():
    before = _patched_objects()
    bad = spans.PATCHES[:3] + (("repro.machine.cache", "CacheSim",
                                "no_such_method", "cache.s"),)
    with pytest.raises(AttributeError):
        spans.SpanInstaller(spans.SpanRecorder(), bad).install()
    assert all(_patched_objects()[k] is v for k, v in before.items())


def test_self_times_on_a_nested_tree():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    selfs = spans.self_times(parent, start, end)
    assert selfs.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert selfs.sum() == 10.0


def _fill(rec, rows):
    """Append spans ``(name, metric, parent, start, end)`` by hand."""
    for name, metric, par, t0, t1 in rows:
        rec.name_id.append(rec.intern(name, metric))
        rec.parent.append(par)
        rec.start.append(t0)
        rec.end.append(t1)


def test_sampled_spans_scale_up_and_keep_the_closure():
    rec = spans.SpanRecorder()
    _fill(rec, [("cell", "other.s", -1, 0.0, 10.0),
                ("kernel", "algorithms.body_s", 0, 0.0, 10.0),
                ("verb", "memory.verb_s", 1, 1.0, 2.0),
                ("verb", "memory.verb_s", 1, 5.0, 6.0)])
    rec.sampled["verb"] = [6, 60]          # 6 calls, 2 of them timed
    times, calls = spans.aggregate(rec)
    assert times["memory.verb_s"] == pytest.approx(6.0)
    assert times["algorithms.body_s"] == pytest.approx(4.0)
    assert times["other.s"] == pytest.approx(0.0)
    assert sum(times.values()) == pytest.approx(10.0)
    assert calls["verb"] == 6


def test_open_span_is_an_error():
    rec = spans.SpanRecorder()
    rec.stack.append(0)
    with pytest.raises(RuntimeError):
        spans.aggregate(rec)


def test_wrapped_calls_record_nested_spans():
    rec = spans.SpanRecorder()
    inner = rec.wrap(lambda x: x + 1, "inner", "la.s")
    outer = rec.wrap(lambda x: inner(x) * 2, "outer", "other.s")
    assert outer(1) == 4
    assert list(rec.parent) == [-1, 0]
    assert [rec.names[i] for i in rec.name_id] == ["outer", "inner"]
    assert rec.stack == [-1]


def test_timed_pass_runs_with_no_wrapper_installed(monkeypatch, tmp_path):
    seen = []
    real = workloads.run_cell

    def spy(w, cell, out_dir, **kw):
        seen.append(spans.installed_wrappers())
        return real(w, cell, out_dir, **kw)

    monkeypatch.setattr(workloads, "run_cell", spy)
    monkeypatch.setattr(run, "setup_seconds", lambda name: 1.0)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    res = run.timed_run(_tiny("dm-road"), seed=1, seconds=0)
    assert seen and all(s == [] for s in seen)
    assert set(res["metrics"]) == {m["name"] for m in
                                   BENCHMARK["end_to_end"]}
    # the traced pass, by contrast, does run under the wrappers
    seen.clear()
    run.traced_run(_tiny("dm-road"), seed=1, seconds=0)
    assert any(s == [] for s in seen) and any(s for s in seen)
    assert spans.installed_wrappers() == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_report_names_every_per_layer_metric(name, monkeypatch,
                                                    tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    res = run.traced_run(_tiny(name), seed=1, seconds=0)
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == listed
    assert dict(spans.LAYER_METRICS) == listed
    assert "CLOSURE FAILED" not in capsys.readouterr().err
    m = {k: v["value"] for k, v in res["metrics"].items()}
    closed = sum(m[k] for k in spans.TIME_METRICS)
    assert closed == pytest.approx(m["trace.wall_s"], rel=run.CLOSURE_TOL)
    # the bypass predictions of the layer map
    cache_sim = name == "table1-cachesim"
    batched = name == "batched-100k"
    assert (m["cache.calls"] > 0) == cache_sim
    assert (m["tracer.events"] > 0) == (not batched)
    assert (m["streams.ops"] > 0) == batched
    assert (m["la.calls"] > 0) == batched


def test_same_partition():
    from checks import same_partition
    assert same_partition(np.array([0, 0, 5, 5]), np.array([1, 1, 0, 0]))
    assert not same_partition(np.array([0, 0, 5, 5]), np.array([1, 1, 1, 0]))
    assert not same_partition(np.array([0, 1, 5, 5]), np.array([1, 1, 0, 0]))


def test_pins_cover_every_cell():
    from checks import load_pins
    pins = load_pins()
    for w in workloads.WORKLOADS.values():
        assert set(pins[w.name]) == {c.name for c in w.cells}


def test_degenerate_instance_fails_the_reach_guard():
    from types import SimpleNamespace

    from checks import ReferenceChecker
    road10k = dict(workloads.WORKLOADS["dm-road"].config, n=10000)
    ref = ReferenceChecker(road10k)
    n, levels = ref.reference("bfs")
    assert (levels >= 0).sum() < 0.9 * n       # root 0 is nearly isolated
    problems = ref.check(workloads.Cell("bfs", "push"),
                         SimpleNamespace(level=levels))
    assert len(problems) == 1 and "degenerate instance" in problems[0]
    wrong = levels.copy()
    wrong[levels >= 0] += 1
    assert "levels differ from bfs_reference" in ref.check(
        workloads.Cell("bfs", "pull"), SimpleNamespace(level=wrong))
