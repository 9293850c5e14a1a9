"""``PartitionAwareCSR``'s single-key build against the lexsort build.

The constructor orders each vertex slice locals first, then remotes,
both by ascending neighbour, with one stable argsort of an int64 key,
and counts each vertex's locals with ``np.bincount``.  The reference
below is the three-key ``np.lexsort`` plus ``np.add.at`` build it
replaces, kept test-locally.  Compared: ``adj``, ``weights`` and
``split`` (values and dtypes) on rows given out of order, parallel
arcs in their input order, and weighted and unweighted graphs, for
P ∈ {1, 3, 4, 8}.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.runner import instance_graph
from repro.graph import CSRGraph, Partition1D, PartitionAwareCSR

PROCS = (1, 3, 4, 8)


def reference_layout(g: CSRGraph, part: Partition1D):
    owners = part.owner(np.arange(g.n, dtype=np.int64))
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.offsets))
    is_local = owners[src] == owners[g.adj]
    order = np.lexsort((g.adj, ~is_local, src))
    weights = None if g.weights is None else g.weights[order]
    local_counts = np.zeros(g.n, dtype=np.int64)
    np.add.at(local_counts, src[is_local], 1)
    return g.adj[order], weights, g.offsets[:-1] + local_counts


def _assert_same(g: CSRGraph, P: int) -> None:
    part = Partition1D(g.n, P)
    pa = PartitionAwareCSR(g, part)
    adj, weights, split = reference_layout(g, part)
    assert pa.adj.dtype == adj.dtype and np.array_equal(pa.adj, adj)
    assert pa.split.dtype == split.dtype and np.array_equal(pa.split, split)
    if weights is None:
        assert pa.weights is None
    else:
        assert pa.weights.dtype == weights.dtype
        assert np.array_equal(pa.weights, weights)


def _scrambled(n: int, seed: int, weighted: bool) -> CSRGraph:
    """Rows in random order with repeated neighbours (parallel arcs
    carrying distinct weights, so their order shows)."""
    rng = np.random.default_rng(seed)
    deg = rng.integers(0, 9, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=offsets[1:])
    adj = rng.integers(0, n, int(offsets[-1]))
    dup = rng.random(len(adj)) < 0.3
    adj[1:][dup[1:]] = adj[:-1][dup[1:]]   # runs of equal neighbours
    weights = rng.permutation(len(adj)).astype(float) if weighted else None
    return CSRGraph(offsets, adj, weights, directed=True)


@pytest.mark.parametrize("P", PROCS)
@pytest.mark.parametrize("weighted", (False, True))
@pytest.mark.parametrize("seed", range(3))
def test_scrambled_rows_and_parallel_arcs(seed, weighted, P):
    g = _scrambled(120, seed, weighted)
    assert (np.diff(g.adj.astype(np.int64)) == 0).any()
    _assert_same(g, P)


@pytest.mark.parametrize("P", PROCS)
@pytest.mark.parametrize("dataset", ("road", "er", "rmat", "comm"))
def test_instances(dataset, P):
    _assert_same(instance_graph(dataset, 400, d_bar=4.0, seed=2,
                                weighted=True), P)


@pytest.mark.parametrize("P", PROCS)
def test_isolated_and_empty(P):
    _assert_same(CSRGraph(np.zeros(6, dtype=np.int64),
                          np.empty(0, dtype=np.int32)), P)
    offsets = np.array([0, 0, 3, 3, 4, 4])
    _assert_same(CSRGraph(offsets, np.array([4, 0, 4, 1]),
                          np.array([1.0, 2.0, 3.0, 4.0])), P)
