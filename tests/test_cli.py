"""Tests for the ``python -m repro`` command-line interface."""

from pathlib import Path

import pytest

from repro.__main__ import main

#: a directory with no Python files in it
DOCS_DIR = str(Path(__file__).resolve().parent.parent / "docs")


class TestInfo:
    def test_lists_machines_and_datasets(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "XC30" in out and "Trivium" in out
        assert "orc" in out and "rca" in out


class TestStats:
    def test_prints_table2_stats(self, capsys):
        assert main(["stats", "am", "--scale", "9"]) == 0
        out = capsys.readouterr().out
        assert "n " in out and "D " in out

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "not-a-graph"])
        assert exc.value.code == 2


class TestRun:
    @pytest.mark.parametrize("algo,needs_direction", [
        ("pagerank", True), ("bfs", True), ("sssp", True),
        ("triangles", True), ("coloring", True), ("mst", True),
        ("prim", True), ("cc", True),
    ])
    def test_each_algorithm_runs(self, capsys, algo, needs_direction):
        rc = main(["run", algo, "am", "--scale", "8", "--threads", "4",
                   "--iterations", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated time" in out and "events:" in out

    def test_bc_with_sampled_sources(self, capsys):
        assert main(["run", "bc", "am", "--scale", "8", "--iterations", "4",
                     "--threads", "4"]) == 0
        assert "sources" in capsys.readouterr().out

    def test_push_direction(self, capsys):
        assert main(["run", "pagerank", "am", "--scale", "8",
                     "--direction", "push", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "[push]" in out

    def test_machine_selection(self, capsys):
        assert main(["run", "pagerank", "am", "--scale", "8",
                     "--machine", "Trivium", "--iterations", "2"]) == 0
        assert "Trivium" in capsys.readouterr().out

    def test_unknown_machine_errors(self, capsys):
        assert main(["run", "pagerank", "am", "--scale", "8",
                     "--machine", "Cray-1"]) == 2

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "sort", "am"])


class TestExperimentsForwarding:
    def test_forwards_to_run_all(self, capsys):
        assert main(["experiments", "--quick", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out


class TestAnalyzeFaults:
    def test_chaos_suite_runs_clean(self, capsys):
        rc = main(["analyze", "--faults", "--scale", "36", "-P", "4",
                   "--fault-seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos suite" in out
        assert "faults: 0 failing" in out
        assert "fault overhead" in out

    def test_faults_flag_skips_other_passes(self, capsys):
        assert main(["analyze", "--faults", "--scale", "36",
                     "--fault-seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "lint:" not in out and "epoch checker" not in out

    def test_road_dataset_accepted(self, capsys):
        rc = main(["analyze", "--dm", "--dataset", "road",
                   "--scale", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "road n=64" in out and "dm: 0 failing" in out

    def test_comm_dataset_accepted(self, capsys):
        rc = main(["analyze", "--dm", "--dataset", "comm",
                   "--scale", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "comm n=64" in out and "dm: 0 failing" in out


class TestAnalyzeExitCodes:
    @pytest.mark.parametrize("argv,message", [
        (["--dm", "-P", "0"], "P must be positive"),
        (["--dm", "--scale", "1"], "need at least two vertices"),
        (["--faults", "--sm", "-P", "0", "--scale", "36"],
         "P must be positive"),
        (["--faults", "--fault-seeds", "0"],
         "--fault-seeds must be at least 1, got 0"),
        (["--lint", DOCS_DIR], f"no *.py file(s) under: {DOCS_DIR}"),
    ])
    def test_configuration_errors_exit_2(self, capsys, argv, message):
        assert main(["analyze", *argv]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [message]

    def test_failing_run_exits_1_and_says_not_ok(self, capsys, monkeypatch):
        import json

        from repro.analysis import runner
        from repro.analysis.race import RaceReport
        bad = runner.CellRun(cell=runner.Cell("dm", "PR", "mp"),
                             report=RaceReport(), time=1.0,
                             pending_unflushed=1)
        monkeypatch.setattr(runner, "analyze_dm", lambda **kw: [bad])
        assert main(["analyze", "--dm", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["passes"]["dm"]["ok"] is False
        assert doc["passes"]["dm"]["cells"] == [
            {"algorithm": "PR", "direction": "mp", "ok": False, "races": []}]
