"""Tests for graph relabeling, the harness tables, config, and run_all CLI."""

import numpy as np
import pytest

from repro.graph import relabel_random
from repro.harness.config import DEFAULT, QUICK
from repro.harness.experiments import ALL, table2
from repro.harness.run_all import main as run_all_main
from repro.harness.tables import (
    ExperimentResult, render_series, render_table,
)


def test_relabel_preserves_structure(pa_graph):
    shuffled = relabel_random(pa_graph, seed=3)
    assert shuffled.n == pa_graph.n and shuffled.m == pa_graph.m
    assert sorted(np.diff(shuffled.offsets)) == sorted(
        np.diff(pa_graph.offsets))


class TestTables:
    def test_render_table_aligns(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 223, "b": "z"}]
        text = render_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines if line.strip())) == 1

    def test_render_empty(self):
        assert render_table([]) == "(empty)"

    def test_render_series(self):
        assert render_series("s", [1, 2.5]).startswith("s: 1 2.5")

    def test_float_formatting(self):
        rows = [{"v": 0.000123}, {"v": 123456.0}, {"v": 0.5}]
        text = render_table(rows)
        assert "0.000123" in text and "1.23e+05" in text and "0.5" in text

    def test_experiment_result_checks(self):
        res = ExperimentResult("T", "title")
        assert res.check("ok claim", True)
        assert not res.check("bad claim", False, "why")
        assert not res.shape_ok
        text = res.render()
        assert "[OK ]" in text and "[FAIL]" in text and "[why]" in text

    def test_markdown_rendering(self):
        res = ExperimentResult("T", "title", rows=[{"a": 1}])
        res.check("claim", True)
        res.series["s"] = [1, 2]
        res.notes.append("a note")
        md = res.render_markdown()
        assert "| a |" in md and "- [x] claim" in md and "> a note" in md


class TestConfig:
    def test_quick_is_smaller(self):
        assert QUICK.scale < DEFAULT.scale
        assert QUICK.P < DEFAULT.P

    def test_scaled_machine(self):
        m = DEFAULT.scaled_machine()
        assert "s64" in m.name

    def test_sm_runtime_trace_mode(self, tiny_graph):
        from repro.machine.memory import CacheSimMemory, CountingMemory
        rt = DEFAULT.sm_runtime(tiny_graph, trace=True)
        assert isinstance(rt.mem, CacheSimMemory)
        rt = DEFAULT.sm_runtime(tiny_graph)
        assert isinstance(rt.mem, CountingMemory)

    def test_with_override(self):
        assert DEFAULT.with_(scale=5).scale == 5


class TestExperimentsRegistry:
    def test_all_modules_have_run(self):
        for name, mod in ALL.items():
            assert callable(mod.run), name

    def test_table2_quick(self):
        res = table2.run(QUICK)
        assert res.shape_ok
        assert len(res.rows) == 5

    def test_run_all_cli_single(self, capsys):
        code = run_all_main(["--quick", "table2"])
        out = capsys.readouterr().out
        assert code == 0 and "Table 2" in out and "0 failures" in out

    def test_run_all_cli_markdown(self, tmp_path, capsys):
        md = tmp_path / "report.md"
        run_all_main(["--quick", "--markdown", str(md), "table2"])
        assert "### Table 2" in md.read_text()

    def test_run_all_unknown_id(self):
        with pytest.raises(SystemExit):
            run_all_main(["definitely-not-an-experiment"])
