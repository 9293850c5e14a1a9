"""Tests for the semantic perf-baseline differ (``repro bench diff``).

The differ replaces CI's byte-level ``cmp`` gate: identical documents
must diff clean (exit 0, empty report), seeded drift must be
attributed to the exact cell -> phase -> counter and gate the exit
code against the tolerance, and malformed or schema-mismatched input
must fail with a clear error (exit 2) rather than a traceback.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.observability.regress import (
    BENCHDIFF_SCHEMA, BenchDiffError, diff_bench, load_baseline,
)

ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="module")
def baseline() -> dict:
    return load_baseline(str(ROOT / "BENCH_trace.json"))


def _perturb(doc: dict, pct: float, metric: str = "l1_misses") -> dict:
    """Grow one phase counter of one cell by ``pct`` percent."""
    mut = copy.deepcopy(doc)
    cell = next(c for c in mut["cells"]
                if (c["algorithm"], c["variant"], c["runtime"],
                    c.get("family", "baseline"))
                == ("pagerank", "pull", "sm", "baseline"))
    phase = cell["phases"][0]
    phase["counters"][metric] = round(
        phase["counters"][metric] * (1 + pct / 100.0))
    return mut


class TestDiffBench:
    def test_identical_documents_diff_clean(self, baseline):
        diff = diff_bench(baseline, copy.deepcopy(baseline))
        assert diff.ok and diff.drifts == []
        assert diff.cells_compared == 20
        assert "clean" in diff.summary()

    def test_drift_above_tolerance_is_attributed(self, baseline):
        diff = diff_bench(baseline, _perturb(baseline, 10.0),
                          tolerance_pct=5.0)
        assert not diff.ok
        [d] = diff.failing
        assert d.cell == "pagerank/pull/sm/baseline"
        assert d.scope == "phase" and d.phase == "pr.pull"
        assert d.metric == "l1_misses"
        assert d.direction == "regression"
        assert d.pct == pytest.approx(10.0, abs=0.1)

    def test_drift_below_tolerance_passes(self, baseline):
        diff = diff_bench(baseline, _perturb(baseline, 10.0),
                          tolerance_pct=20.0)
        assert diff.ok and diff.drifts and not diff.failing

    def test_improvement_also_gates(self, baseline):
        # a metric that shrank still means the committed baseline is
        # stale -- both directions fail the gate
        diff = diff_bench(baseline, _perturb(baseline, -10.0),
                          tolerance_pct=5.0)
        [d] = diff.failing
        assert d.direction == "improvement"

    def test_vanished_metric_is_always_out_of_tolerance(self, baseline):
        mut = copy.deepcopy(baseline)
        del mut["cells"][0]["counters"]["reads"]
        diff = diff_bench(baseline, mut, tolerance_pct=99.0)
        assert not diff.ok
        [d] = diff.failing
        assert d.metric == "reads" and d.candidate == 0

    def test_missing_cell_is_a_structure_drift(self, baseline):
        mut = copy.deepcopy(baseline)
        dropped = mut["cells"].pop()
        diff = diff_bench(baseline, mut, tolerance_pct=99.0)
        [d] = diff.failing
        assert d.scope == "structure"
        assert d.metric == "cell-missing-from-candidate"
        assert dropped["algorithm"] in d.cell

    def test_missing_phase_is_a_structure_drift(self, baseline):
        mut = copy.deepcopy(baseline)
        mut["cells"][0]["phases"] = mut["cells"][0]["phases"][1:]
        diff = diff_bench(baseline, mut, tolerance_pct=99.0)
        assert any(d.scope == "structure"
                   and d.metric == "phase-missing-from-candidate"
                   for d in diff.failing)

    def test_schema_mismatch_raises(self, baseline):
        mut = copy.deepcopy(baseline)
        mut["schema"] = "repro-bench/1"
        with pytest.raises(BenchDiffError, match="schema mismatch"):
            diff_bench(baseline, mut)

    def test_schema_mismatch_raises_both_ways(self, baseline):
        # an outdated *baseline* against a current candidate must fail
        # just as fast as the reverse -- the gate is direction-agnostic
        mut = copy.deepcopy(baseline)
        mut["schema"] = "repro-bench/2"
        with pytest.raises(BenchDiffError, match="schema mismatch"):
            diff_bench(mut, baseline)

    def test_config_mismatch_raises(self, baseline):
        mut = copy.deepcopy(baseline)
        mut["config"]["n"] = 128
        with pytest.raises(BenchDiffError, match="config mismatch"):
            diff_bench(baseline, mut)

    def test_verdict_document_shape(self, baseline):
        diff = diff_bench(baseline, _perturb(baseline, 10.0),
                          tolerance_pct=5.0)
        doc = diff.verdict()
        assert doc["schema"] == BENCHDIFF_SCHEMA
        assert doc["ok"] is False
        assert doc["summary"]["out_of_tolerance"] == 1
        assert doc["summary"]["regressions"] == 1
        assert doc["summary"]["cells_affected"] == [
            "pagerank/pull/sm/baseline"]
        json.dumps(doc)  # must be serializable as-is

    def test_markdown_report(self, baseline):
        diff = diff_bench(baseline, _perturb(baseline, 10.0),
                          tolerance_pct=5.0)
        md = diff.markdown()
        assert "| cell |" in md and "regression" in md
        assert "pagerank/pull/sm/baseline" in md and "l1_misses" in md
        clean = diff_bench(baseline, copy.deepcopy(baseline)).markdown()
        assert "clean" in clean and "|" not in clean


class TestLoadBaseline:
    def test_rejects_invalid_json(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(BenchDiffError, match="not valid JSON"):
            load_baseline(str(p))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(BenchDiffError, match="cannot read"):
            load_baseline(str(tmp_path / "absent.json"))

    def test_rejects_foreign_schema(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"schema": "repro-trace/1", "cells": []}))
        with pytest.raises(BenchDiffError, match="repro-bench"):
            load_baseline(str(p))

    def test_rejects_malformed_cells(self, tmp_path):
        p = tmp_path / "cells.json"
        p.write_text(json.dumps({"schema": "repro-bench/2",
                                 "cells": [{"algorithm": "pagerank"}]}))
        with pytest.raises(BenchDiffError, match="lacks"):
            load_baseline(str(p))


class TestDiffCli:
    def _write(self, tmp_path, name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_identical_exits_zero(self, capsys, baseline, tmp_path):
        cand = self._write(tmp_path, "cand.json", baseline)
        rc = main(["bench", "diff", str(ROOT / "BENCH_trace.json"), cand])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_drift_exits_one_with_attribution(self, capsys, baseline,
                                              tmp_path):
        cand = self._write(tmp_path, "mut.json", _perturb(baseline, 10.0))
        rc = main(["bench", "diff", str(ROOT / "BENCH_trace.json"), cand,
                   "--tolerance-pct", "5"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "pagerank/pull/sm/baseline :: pr.pull :: l1_misses" in out

    def test_report_and_markdown_flags(self, capsys, baseline, tmp_path):
        cand = self._write(tmp_path, "mut.json", _perturb(baseline, 10.0))
        report = tmp_path / "verdict.json"
        rc = main(["bench", "diff", str(ROOT / "BENCH_trace.json"), cand,
                   "--tolerance-pct", "5", "--markdown",
                   "--report", str(report)])
        assert rc == 1
        assert "## Perf baseline diff" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["schema"] == BENCHDIFF_SCHEMA and not doc["ok"]

    def test_malformed_input_exits_two(self, capsys, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{not json")
        rc = main(["bench", "diff", str(ROOT / "BENCH_trace.json"),
                   str(junk)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_schema_mismatch_exits_two(self, capsys, baseline, tmp_path):
        mut = copy.deepcopy(baseline)
        mut["schema"] = "repro-bench/1"
        cand = self._write(tmp_path, "old.json", mut)
        rc = main(["bench", "diff", str(ROOT / "BENCH_trace.json"), cand])
        assert rc == 2
        assert "schema mismatch" in capsys.readouterr().err

    def test_schema_mismatch_exits_two_as_baseline(self, capsys, baseline,
                                                   tmp_path):
        mut = copy.deepcopy(baseline)
        mut["schema"] = "repro-bench/2"
        old = self._write(tmp_path, "old.json", mut)
        rc = main(["bench", "diff", old, str(ROOT / "BENCH_trace.json")])
        assert rc == 2
        assert "schema mismatch" in capsys.readouterr().err
