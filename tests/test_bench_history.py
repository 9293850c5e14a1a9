"""Tests for the append-only bench-history timeline.

The committed ``BENCH_history.jsonl`` is pinned against a fresh
snapshot of the committed ``BENCH_trace.json`` (both are deterministic),
the trend/regression math is unit-tested on synthetic timelines, and
the ``repro bench history`` CLI path is exercised end to end.
"""

import copy
import json

import pytest

from repro.__main__ import main
from repro.observability.export import _dumps
from repro.observability.history import (
    HISTORY_SCHEMA, append_snapshot, load_history, regressions,
    render_trend, snapshot_from_doc, trend_rows,
)
from repro.observability.regress import BenchDiffError


def _snap(label, times):
    """A synthetic snapshot: {cell key: time_mtu}."""
    return {
        "schema": HISTORY_SCHEMA,
        "label": label,
        "source": "synthetic",
        "bench_schema": "repro-bench/3",
        "kind": "perf",
        "recorded": None,
        "cells": [{"key": k, "time_mtu": v, "counters": {}, "critical": {}}
                  for k, v in sorted(times.items())],
    }


class TestCommittedTimeline:
    def test_seed_line_matches_fresh_snapshot(self):
        """Determinism pin: the committed timeline's seed line is
        byte-equal to a fresh snapshot of the committed perf baseline."""
        with open("BENCH_trace.json") as fh:
            doc = json.load(fh)
        snap = snapshot_from_doc(doc, label="seed",
                                 source="BENCH_trace.json")
        with open("BENCH_history.jsonl") as fh:
            first = fh.readline().rstrip("\n")
        assert first == _dumps(snap)

    def test_committed_timeline_loads(self):
        snapshots = load_history("BENCH_history.jsonl")
        assert snapshots
        assert all(s["schema"] == HISTORY_SCHEMA for s in snapshots)
        assert len(snapshots[0]["cells"]) == 20  # 12 baseline + 8 large
        assert not regressions(snapshots)  # the committed file is clean


class TestTrendMath:
    def test_rows_track_values_and_deltas(self):
        snaps = [_snap("a", {"x": 100.0}), _snap("b", {"x": 110.0})]
        (row,) = trend_rows(snaps)
        assert row["values"] == [100.0, 110.0]
        assert row["pct_prev"] == pytest.approx(10.0)
        assert row["pct_first"] == pytest.approx(10.0)

    def test_missing_cells_skip_to_previous_present(self):
        snaps = [_snap("a", {"x": 100.0}), _snap("b", {}),
                 _snap("c", {"x": 90.0})]
        (row,) = trend_rows(snaps)
        assert row["values"] == [100.0, None, 90.0]
        assert row["pct_prev"] == pytest.approx(-10.0)

    def test_last_window(self):
        snaps = [_snap(str(i), {"x": float(i)}) for i in range(1, 11)]
        (row,) = trend_rows(snaps, last=3)
        assert row["values"] == [8.0, 9.0, 10.0]
        assert row["pct_first"] == pytest.approx(25.0)

    def test_regressions_respect_threshold(self):
        snaps = [_snap("a", {"x": 100.0, "y": 100.0}),
                 _snap("b", {"x": 103.0, "y": 99.0})]
        assert [r["key"] for r in regressions(snaps)] == ["x"]
        assert regressions(snaps, threshold_pct=5.0) == []

    def test_render_markdown_flags_regressions(self):
        snaps = [_snap("a", {"x": 100.0}), _snap("b", {"x": 110.0})]
        table = render_trend(snaps, markdown=True)
        assert "| cell | a | b |" in table
        assert "+10.00%" in table and "REGRESSION" in table
        plain = render_trend(snaps)
        assert "a -> b" in plain and "REGRESSION" in plain

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"schema": "nope/1"}\n')
        with pytest.raises(BenchDiffError, match="schema"):
            load_history(str(path))


class TestHistoryCLI:
    def _seed(self, tmp_path, times):
        """A one-line timeline plus a bench doc with the given times."""
        with open("BENCH_trace.json") as fh:
            doc = json.load(fh)
        hist = tmp_path / "h.jsonl"
        append_snapshot(str(hist), snapshot_from_doc(
            doc, label="seed", source="BENCH_trace.json"))
        cand = copy.deepcopy(doc)
        for cell in cand["cells"]:
            cell["time_mtu"] *= times
        cand_path = tmp_path / "cand.json"
        cand_path.write_text(json.dumps(cand))
        return hist, cand_path

    def test_seed_and_trend(self, tmp_path, capsys):
        hist, cand = self._seed(tmp_path, 1.0)
        rc = main(["bench", "history", str(cand), "--history", str(hist),
                   "--label", "now"])
        assert rc in (0, None)
        out = capsys.readouterr().out
        assert "seed -> now" in out
        assert "REGRESSION" not in out
        assert len(load_history(str(hist))) == 2

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        hist, cand = self._seed(tmp_path, 1.07)
        rc = main(["bench", "history", str(cand), "--history", str(hist),
                   "--label", "slow", "--threshold-pct", "2", "--gate"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "> 2% threshold" in out

    def test_gate_passes_within_threshold(self, tmp_path, capsys):
        hist, cand = self._seed(tmp_path, 1.01)
        rc = main(["bench", "history", str(cand), "--history", str(hist),
                   "--threshold-pct", "5", "--gate"])
        assert rc in (0, None)

    def test_markdown_output(self, tmp_path, capsys):
        hist, cand = self._seed(tmp_path, 1.0)
        rc = main(["bench", "history", str(cand), "--history", str(hist),
                   "--label", "ci", "--markdown"])
        assert rc in (0, None)
        out = capsys.readouterr().out
        assert out.startswith("## Bench history")
        assert "| cell | seed | ci |" in out

    def test_empty_timeline_without_doc_errors(self, tmp_path, capsys):
        rc = main(["bench", "history", "--history",
                   str(tmp_path / "missing.jsonl")])
        assert rc == 2
        assert "no timeline" in capsys.readouterr().err

    def test_stamp_records_utc_timestamp(self, tmp_path):
        hist, cand = self._seed(tmp_path, 1.0)
        main(["bench", "history", str(cand), "--history", str(hist),
              "--stamp"])
        last = load_history(str(hist))[-1]
        assert last["recorded"].endswith("Z")
