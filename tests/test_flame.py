"""Tests for the folded-stack flamegraph exporter.

The folded format must be byte-deterministic and parse in standard
tooling (flamegraph.pl / speedscope): one ``frame;frame;frame count``
line per unique stack, positive integer counts, no empty frames.
Every lane's total width must equal the run's simulated time, so the
graph is a faithful fold of the timeline.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.observability.driver import run_traced
from repro.observability.flame import folded_stacks, write_flame


def _tracer(algorithm="pagerank", **kw):
    _rt, tracer, _resolved, _result = run_traced(algorithm, **kw)
    return tracer


def _parse(lines):
    """(frames tuple, count) per line; asserts the folded grammar."""
    parsed = []
    for line in lines:
        stack, sep, count = line.rpartition(" ")
        assert sep == " ", f"no weight field in {line!r}"
        frames = stack.split(";")
        assert frames and all(frames), f"empty frame in {line!r}"
        n = int(count)
        assert n > 0, "flamegraph.pl rejects non-positive counts"
        parsed.append((tuple(frames), n))
    return parsed


class TestFoldedStacks:
    def test_byte_deterministic(self, tmp_path):
        p1 = write_flame(_tracer("bfs", variant="switching"),
                         str(tmp_path / "a.folded"))
        p2 = write_flame(_tracer("bfs", variant="switching"),
                         str(tmp_path / "b.folded"))
        a, b = Path(p1).read_bytes(), Path(p2).read_bytes()
        assert a and a == b

    @pytest.mark.parametrize("kw", [
        dict(variant="push"),
        dict(variant="pull", dm=True),
        dict(variant="push", dm=True, faults=True),
    ])
    def test_folded_grammar(self, kw):
        parsed = _parse(folded_stacks(_tracer("pagerank", **kw)))
        assert parsed
        root = "dm" if kw.get("dm") else "sm"
        noun = "rank" if kw.get("dm") else "thread"
        for frames, _count in parsed:
            assert frames[0] == root
            assert frames[1].startswith(noun + " ")
        assert len({f for f, _ in parsed}) == len(parsed), "dup stacks"
        assert sorted(f for f, _ in parsed) == [f for f, _ in parsed]

    def test_kernel_phases_are_leaf_frames(self):
        parsed = _parse(folded_stacks(_tracer("pagerank", variant="pull")))
        leaves = {frames[-1] for frames, _ in parsed}
        assert "pr.pull" in leaves and "pr.finalize" in leaves
        assert "[barrier]" in leaves

    def test_off_path_idle_frames_match_critical_path(self):
        # pagerank pull ends in a sequential pr.finalize region: the
        # other lanes fold as [off-path] frames whose total width is
        # the critical-path decomposition's off_path_idle
        tracer = _tracer("pagerank", variant="pull")
        parsed = _parse(folded_stacks(tracer))
        off = [(f, c) for f, c in parsed if f[-1] == "[off-path]"]
        assert off, "expected [off-path] leaves under a sequential region"
        assert not any(f[-1] == "[idle]" for f, _ in parsed)
        total = tracer.critical_totals()["off_path_idle"]
        assert sum(c for _, c in off) == pytest.approx(total, abs=len(off))

    def test_lane_widths_equal_simulated_time(self):
        tracer = _tracer("pagerank", variant="push")
        run_time = tracer.rt.time - tracer.start_time
        widths: dict[str, int] = {}
        for frames, count in _parse(folded_stacks(tracer)):
            widths[frames[1]] = widths.get(frames[1], 0) + count
        assert len(widths) == tracer.rt.P
        for lane, total in widths.items():
            # integer rounding of per-stack weights
            assert total == pytest.approx(run_time, abs=len(widths) + 1), lane

    def test_stall_frames_under_faults(self):
        parsed = _parse(folded_stacks(
            _tracer("pagerank", variant="push", dm=True, faults=True)))
        leaves = {frames[-1] for frames, _ in parsed}
        assert "[stall]" in leaves, "the chaos plan must cause recovery"

    def test_empty_trace_writes_empty_file(self, tiny_graph, tmp_path):
        from repro.observability import attach_tracer
        from repro.runtime.sm import SMRuntime
        tracer = attach_tracer(SMRuntime(tiny_graph, P=4))
        assert folded_stacks(tracer) == []
        path = write_flame(tracer, str(tmp_path / "empty.folded"))
        assert Path(path).read_text() == ""
