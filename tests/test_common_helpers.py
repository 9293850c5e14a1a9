"""Property tests for the shared algorithm helpers in algorithms/common."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.common import (
    block_bounds, check_direction, gather_edge_positions, segment_sums,
)
from repro.generators import erdos_renyi
from tests.conftest import make_runtime


@st.composite
def csr_offsets(draw, max_rows=20, max_deg=8):
    degs = draw(st.lists(st.integers(0, max_deg), min_size=1,
                         max_size=max_rows))
    return np.r_[0, np.cumsum(degs)].astype(np.int64)


class TestGatherEdgePositions:
    @settings(max_examples=40, deadline=None)
    @given(csr_offsets(), st.data())
    def test_matches_naive_concatenate(self, offsets, data):
        n = len(offsets) - 1
        vs = data.draw(st.lists(st.integers(0, n - 1), max_size=n,
                                unique=True))
        vs = np.asarray(sorted(vs), dtype=np.int64)
        got = gather_edge_positions(offsets, vs)
        want = (np.concatenate([np.arange(offsets[v], offsets[v + 1])
                                for v in vs])
                if len(vs) else np.empty(0))
        assert np.array_equal(got, want)

    def test_empty_set(self):
        assert len(gather_edge_positions(np.array([0, 3]), np.array([]))) == 0

    def test_unsorted_input_order_preserved(self):
        offsets = np.array([0, 2, 5, 6], dtype=np.int64)
        got = gather_edge_positions(offsets, np.array([2, 0]))
        assert list(got) == [5, 0, 1]

    def test_on_real_graph(self):
        g = erdos_renyi(100, d_bar=4.0, seed=2)
        vs = np.array([3, 17, 50, 99], dtype=np.int64)
        pos = gather_edge_positions(g.offsets, vs)
        nbrs = g.adj[pos]
        want = np.concatenate([g.neighbors(v) for v in vs])
        assert np.array_equal(nbrs, want)


class TestSegmentReductions:
    @settings(max_examples=40, deadline=None)
    @given(csr_offsets())
    def test_segment_sums_matches_loop(self, offsets):
        rng = np.random.default_rng(0)
        vals = rng.random(int(offsets[-1]))
        starts, ends = offsets[:-1], offsets[1:]
        got = segment_sums(vals, starts, ends)
        want = np.array([vals[s:e].sum() for s, e in zip(starts, ends)])
        assert np.allclose(got, want)

    def test_empty_segments_are_zero(self):
        vals = np.array([1.0, 2.0])
        out = segment_sums(vals, np.array([0, 1, 1]), np.array([1, 1, 2]))
        assert list(out) == [1.0, 0.0, 2.0]

    def test_all_empty(self):
        out = segment_sums(np.empty(0), np.array([0, 0]), np.array([0, 0]))
        assert list(out) == [0.0, 0.0]


class TestMisc:
    def test_check_direction(self):
        assert check_direction("push") == "push"
        with pytest.raises(ValueError):
            check_direction("shove")
        assert check_direction("x", allowed=("x",)) == "x"

    def test_block_bounds(self):
        g = erdos_renyi(50, d_bar=3.0, seed=3)
        rt = make_runtime(g, P=2)
        vs = rt.part.owned(1)
        lo, hi = block_bounds(rt, vs, g)
        assert lo == g.offsets[vs[0]] and hi == g.offsets[vs[-1] + 1]
        assert block_bounds(rt, vs[:0], g) == (0, 0)
