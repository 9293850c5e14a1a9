"""Tests for the linear-algebra layer (Section 7.1)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.reference import (
    bfs_reference, pagerank_reference, sssp_reference,
)
from repro.generators import erdos_renyi
from repro.graph import from_edges
from repro.la import (
    MIN_PLUS, OR_AND, PLUS_TIMES, adjacency_matrices, bellman_ford_la,
    bfs_la, pagerank_la, spmspv_csc, spmspv_csr, spmv_csc, spmv_csr,
)
from repro.la.spmv import masked_first_hit


class TestSemirings:
    def test_plus_times(self):
        assert PLUS_TIMES.add(2.0, 3.0) == 5.0
        assert PLUS_TIMES.mul(2.0, 3.0) == 6.0
        assert PLUS_TIMES.add_reduce(np.array([1.0, 2.0, 3.0])) == 6.0
        assert PLUS_TIMES.add_reduce(np.array([])) == PLUS_TIMES.zero

    def test_min_plus(self):
        assert MIN_PLUS.add(2.0, 3.0) == 2.0
        assert MIN_PLUS.mul(2.0, 3.0) == 5.0
        assert MIN_PLUS.add_reduce(np.array([])) == np.inf
        assert MIN_PLUS.is_zero(np.array([np.inf, 1.0])).tolist() == [True, False]

    def test_or_and(self):
        assert OR_AND.add(True, False)
        assert not OR_AND.mul(True, False)

    def test_repr(self):
        assert "min-plus" in repr(MIN_PLUS)


class TestMatrices:
    def test_undirected_shares_structure(self, tiny_graph):
        csr, csc = adjacency_matrices(tiny_graph)
        assert csr.nnz == csc.nnz == 2 * tiny_graph.m
        assert np.array_equal(csr.indices, csc.indices)

    def test_directed_csr_is_in_neighbors(self):
        g = from_edges(3, [(0, 1), (2, 1)], directed=True)
        csr, csc = adjacency_matrices(g)
        rows1, _ = csr.row(1)
        assert sorted(rows1.tolist()) == [0, 2]   # arcs INTO 1
        cols0, _ = csc.col(0)
        assert cols0.tolist() == [1]              # arcs OUT of 0


def _dense_spmv(g, x, sr):
    """Oracle: dense matrix-vector over the semiring."""
    y = np.full(g.n, sr.zero)
    for i in range(g.n):
        contribs = [sr.mul(1.0, x[int(j)]) for j in g.neighbors(i)]
        if contribs:
            acc = contribs[0]
            for c in contribs[1:]:
                acc = sr.add(acc, c)
            y[i] = acc
    return y


class TestSpMV:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_csr_csc_agree_with_dense(self, seed):
        g = erdos_renyi(40, d_bar=3.0, seed=seed)
        csr, csc = adjacency_matrices(g)
        rng = np.random.default_rng(seed)
        x = rng.random(g.n)
        want = _dense_spmv(g, x, PLUS_TIMES)
        y1, ops1 = spmv_csr(csr, x, PLUS_TIMES)
        y2, ops2 = spmv_csc(csc, x, PLUS_TIMES)
        assert np.allclose(y1, want) and np.allclose(y2, want)
        assert ops1.multiplies == ops2.multiplies == csr.nnz
        assert ops1.combines == 0 and ops2.combines == csc.nnz

    def test_min_plus_spmv(self, tiny_weighted):
        csr, _ = adjacency_matrices(tiny_weighted)
        x = np.full(tiny_weighted.n, np.inf)
        x[0] = 0.0
        y, _ = spmv_csr(csr, x, MIN_PLUS)
        assert y[1] == 1.0 and y[2] == 2.5 and y[3] == 5.0

    def test_spmspv_agree(self, comm_graph):
        csr, csc = adjacency_matrices(comm_graph)
        idx = np.array([0, 5, 9])
        val = np.ones(3)
        i1, v1, _ = spmspv_csr(csr, idx, val, OR_AND)
        i2, v2, _ = spmspv_csc(csc, idx, val, OR_AND)
        nz1 = set(i1[np.asarray(v1, dtype=bool)].tolist())
        nz2 = set(int(x) for x in i2.tolist())
        assert nz1 == nz2

    def test_spmspv_work_asymmetry(self, comm_graph):
        csr, csc = adjacency_matrices(comm_graph)
        idx = np.array([3])
        val = np.ones(1)
        _, _, ops_csr = spmspv_csr(csr, idx, val, OR_AND)
        _, _, ops_csc = spmspv_csc(csc, idx, val, OR_AND)
        assert ops_csc.rows_touched == 1
        assert ops_csr.rows_touched == comm_graph.n


def _first_hits_loop(flags, seg) -> list:
    """Reference: each row's offset of its first True flag, -1 if none."""
    out = []
    for lo, hi in zip(seg[:-1], seg[1:]):
        hits = np.flatnonzero(flags[lo:hi])
        out.append(int(hits[0]) if hits.size else -1)
    return out


class TestMaskedFirstHit:
    """The pull-BFS early-exit scan against a per-segment loop."""

    @pytest.mark.parametrize("flags, seg", [
        ([], [0]),                                   # seg=[0]: no rows
        ([], [0, 0, 0]),                             # empty flags, empty rows
        ([False, False, False], [0, 2, 3]),          # no hits
        ([True, False, False], [0, 3]),              # hit at a row's start
        ([False, False, True], [0, 3]),              # ... and at its end
        ([False, True, False, False, True], [0, 2, 5]),
        ([True, True, False, True], [0, 0, 2, 2, 4, 4]),  # empty rows
        ([False, True, True, False], [0, 0, 1, 1, 3, 4, 4]),
    ])
    def test_edge_cases(self, flags, seg):
        flags, seg = np.asarray(flags, dtype=bool), np.asarray(seg)
        got = masked_first_hit(flags, seg)
        assert got.dtype == np.int64
        assert got.tolist() == _first_hits_loop(flags, seg)

    def test_random_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            sizes = rng.integers(0, 6, int(rng.integers(0, 12)))
            seg = np.r_[0, np.cumsum(sizes)].astype(np.int64)
            flags = rng.random(int(seg[-1])) < rng.random()
            assert masked_first_hit(flags, seg).tolist() == \
                _first_hits_loop(flags, seg)


class TestAlgebraicAlgorithms:
    @pytest.mark.parametrize("layout", ["csr", "csc"])
    def test_pagerank_la(self, comm_graph, layout):
        r, ops = pagerank_la(comm_graph, 5, layout=layout)
        assert np.allclose(r, pagerank_reference(comm_graph, 5), atol=1e-12)
        assert ops.multiplies == 5 * 2 * comm_graph.m

    @pytest.mark.parametrize("layout", ["csr", "csc"])
    def test_bfs_la(self, pa_graph, layout):
        level, _ = bfs_la(pa_graph, 0, layout=layout)
        assert np.array_equal(level, bfs_reference(pa_graph, 0))

    def test_bfs_la_csc_touches_fewer_columns(self, comm_graph):
        _, ops_csc = bfs_la(comm_graph, 0, layout="csc")
        _, ops_csr = bfs_la(comm_graph, 0, layout="csr")
        assert ops_csc.rows_touched < ops_csr.rows_touched

    @pytest.mark.parametrize("layout", ["csr", "csc"])
    def test_bellman_ford_la(self, tiny_weighted, layout):
        d, _ = bellman_ford_la(tiny_weighted, 0, layout=layout)
        ref = sssp_reference(tiny_weighted, 0)
        fin = np.isfinite(ref)
        assert np.allclose(d[fin], ref[fin])
        assert np.array_equal(np.isfinite(d), fin)

    def test_bellman_ford_converges_early(self, comm_graph):
        d, ops = bellman_ford_la(comm_graph, 0)
        # diameter is tiny: far fewer than n iterations of nnz multiplies
        assert ops.multiplies < 12 * 2 * comm_graph.m

    def test_invalid_layout(self, tiny_graph):
        with pytest.raises(ValueError):
            pagerank_la(tiny_graph, 1, layout="coo")
        with pytest.raises(ValueError):
            bfs_la(tiny_graph, 0, layout="coo")
        with pytest.raises(ValueError):
            bellman_ford_la(tiny_graph, 0, layout="coo")


def test_import_leaves_scipy_unloaded():
    """``repro.la`` (and the kernels importing it) load scipy only when
    ``bc_la`` builds a sparse matrix."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, repro.la, repro.algorithms.dm_bfs, "
            "repro.streams.kernels; "
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
