"""Unit + property tests for the CSR graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import networkx as nx

from repro.graph import CSRGraph, from_edges, from_networkx, to_networkx


@st.composite
def edge_lists(draw, max_n=30, max_m=80):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    return n, edges


class TestConstruction:
    def test_tiny(self, tiny_graph):
        assert tiny_graph.n == 6 and tiny_graph.m == 6
        assert list(tiny_graph.neighbors(0)) == [1, 2, 3]
        assert list(tiny_graph.neighbors(5)) == []

    def test_neighbors_sorted(self, comm_graph):
        for v in range(comm_graph.n):
            nbrs = comm_graph.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_self_loops_dropped(self):
        g = from_edges(3, [(0, 0), (0, 1), (2, 2)])
        assert g.m == 1 and g.has_edge(0, 1)

    def test_duplicates_dropped(self):
        g = from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_dedup_keeps_min_weight(self):
        g = from_edges(3, [(0, 1), (0, 1)], weights=[5.0, 2.0])
        assert g.weight_of(0, 1) == 2.0
        assert g.weight_of(1, 0) == 2.0

    @pytest.mark.parametrize("weight", [-1.0, np.nan])
    def test_negative_weight_rejected(self, weight):
        with pytest.raises(ValueError):
            from_edges(3, [(0, 1)], weights=[weight])

    def test_keep_parallel_arcs_in_input_order(self):
        g = from_edges(2, [(0, 1), (0, 1), (1, 0), (0, 1)],
                       weights=[5.0, 2.0, 9.0, 7.0], dedup=False)
        # each row: the given arcs in input order, then the mirrored ones
        assert g.edge_weights(0).tolist() == [5.0, 2.0, 7.0, 9.0]
        assert g.edge_weights(1).tolist() == [9.0, 5.0, 2.0, 7.0]
        d = from_edges(3, [(0, 1), (2, 1), (0, 1)], weights=[5.0, 3.0, 2.0],
                       directed=True, dedup=False)
        assert d.transposed().neighbors(1).tolist() == [0, 0, 2]
        assert d.transposed().edge_weights(1).tolist() == [5.0, 2.0, 3.0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_edges(3, [(0, 5)])

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            from_edges(3, [(0, 1)], weights=[1.0, 2.0])

    def test_empty_graph(self):
        g = from_edges(4, [])
        assert g.n == 4 and g.m == 0 and g.max_degree == 0

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([1, 0], dtype=np.int32))

    def test_odd_undirected_adj_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([0], dtype=np.int32))


class TestQueries:
    def test_degree_stats(self, tiny_graph):
        assert tiny_graph.degree(0) == 3
        assert tiny_graph.max_degree == 3
        assert tiny_graph.degrees.sum() == 2 * tiny_graph.m

    def test_n_cells_is_n_plus_2m(self, tiny_graph):
        assert tiny_graph.n_cells == tiny_graph.n + 2 * tiny_graph.m

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 2) and not tiny_graph.has_edge(1, 3)

    def test_weight_of_unweighted_is_one(self, tiny_graph):
        assert tiny_graph.weight_of(0, 1) == 1.0

    def test_weight_of_missing_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            tiny_graph.weight_of(1, 3)

    def test_edges_each_once(self, tiny_graph):
        e = tiny_graph.edges()
        assert len(e) == tiny_graph.m
        assert np.all(e[:, 0] < e[:, 1])

    def test_eq(self, tiny_graph):
        other = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)])
        assert tiny_graph == other
        assert tiny_graph != from_edges(6, [(0, 1)])

    def test_repr(self, tiny_graph):
        assert "n=6" in repr(tiny_graph)


class TestDirected:
    def test_directed_arcs(self):
        g = from_edges(3, [(0, 1), (1, 2)], directed=True)
        assert g.m == 2
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == []

    def test_transpose_reverses(self):
        g = from_edges(3, [(0, 1), (1, 2)], directed=True)
        t = g.transposed()
        assert list(t.neighbors(1)) == [0] and list(t.neighbors(2)) == [1]

    def test_transpose_cached(self):
        g = from_edges(3, [(0, 1)], directed=True)
        assert g.transposed() is g.transposed()

    def test_transpose_of_undirected_is_self(self, tiny_graph):
        assert tiny_graph.transposed() is tiny_graph

    def test_transpose_preserves_weights(self):
        g = from_edges(3, [(0, 1), (1, 2)], weights=[3.0, 7.0], directed=True)
        t = g.transposed()
        assert t.weight_of(1, 0) == 3.0 and t.weight_of(2, 1) == 7.0

    def test_double_transpose_identity(self):
        g = from_edges(5, [(0, 1), (1, 2), (3, 1), (4, 0)], directed=True)
        tt = g.transposed().transposed()
        assert np.array_equal(tt.offsets, g.offsets)
        assert np.array_equal(tt.adj, g.adj)


class TestNetworkxInterop:
    @settings(max_examples=30, deadline=None)
    @given(edge_lists())
    def test_roundtrip_matches_networkx(self, ne):
        n, edges = ne
        g = from_edges(n, edges)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from((u, v) for u, v in edges if u != v)
        assert g.m == nxg.number_of_edges()
        for v in range(n):
            assert set(int(x) for x in g.neighbors(v)) == set(nxg.neighbors(v))

    def test_to_from_networkx(self, comm_graph):
        again = from_networkx(to_networkx(comm_graph))
        assert again == comm_graph

    def test_weighted_roundtrip(self, tiny_weighted):
        again = from_networkx(to_networkx(tiny_weighted))
        assert again == tiny_weighted


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(edge_lists())
    def test_undirected_symmetry(self, ne):
        n, edges = ne
        g = from_edges(n, edges)
        for v in range(n):
            for w in g.neighbors(v):
                assert g.has_edge(int(w), v)

    @settings(max_examples=30, deadline=None)
    @given(edge_lists())
    def test_offsets_consistent(self, ne):
        n, edges = ne
        g = from_edges(n, edges)
        assert g.offsets[0] == 0 and g.offsets[-1] == len(g.adj)
        assert np.all(np.diff(g.offsets) >= 0)


def lexsort_from_edges(n, edges, weights=None, directed=False, dedup=True):
    """``from_edges`` as it was built on a 2-3 column ``np.lexsort``: the
    reference the single-key build must match array for array."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
    keep = edges[:, 0] != edges[:, 1]
    edges = edges[keep]
    if weights is not None:
        weights = weights[keep]
    if not directed:
        edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
        if weights is not None:
            weights = np.concatenate([weights, weights])
    if len(edges) == 0:
        return CSRGraph(np.zeros(n + 1, dtype=np.int64),
                        np.empty(0, dtype=np.int32),
                        np.empty(0) if weights is not None else None,
                        directed=directed)
    if dedup:
        if weights is not None:
            order = np.lexsort((weights, edges[:, 1], edges[:, 0]))
        else:
            order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        if weights is not None:
            weights = weights[order]
        uniq = np.ones(len(edges), dtype=bool)
        uniq[1:] = np.any(edges[1:] != edges[:-1], axis=1)
        edges = edges[uniq]
        if weights is not None:
            weights = weights[uniq]
    else:
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        if weights is not None:
            weights = weights[order]
    counts = np.zeros(n + 1, dtype=np.int64)
    np.add.at(counts, edges[:, 0] + 1, 1)
    return CSRGraph(np.cumsum(counts), edges[:, 1].astype(np.int32), weights,
                    directed=directed)


def lexsort_transposed(g):
    """``CSRGraph.transposed`` as it was built on ``np.lexsort((src, adj))``."""
    src = np.repeat(np.arange(g.n, dtype=np.int32), np.diff(g.offsets))
    order = np.lexsort((src, g.adj))
    roff = np.zeros(g.n + 1, dtype=np.int64)
    np.add.at(roff, g.adj[order] + 1, 1)
    np.cumsum(roff, out=roff)
    rw = None if g.weights is None else g.weights[order]
    return CSRGraph(roff, src[order], rw, directed=True, check=False)


# few distinct values, so parallel arcs tie on weight
TIED_WEIGHTS = (0.0, 1.0, 2.5, np.inf)

EXPLICIT_CASES = {
    "parallel-different-weights": (3, [(0, 1), (0, 1), (1, 0), (0, 1)], [5.0, 2.0, 1.0, 7.0]),
    "parallel-equal-weights": (3, [(0, 1), (0, 1), (1, 2), (2, 1)], [2.0, 2.0, 2.0, 2.0]),
    "all-self-loops": (3, [(0, 0), (1, 1), (2, 2)], [1.0, 2.0, 3.0]),
    "empty": (4, [], []),
    "n=1": (1, [(0, 0)], [4.0]),
}


def assert_same_csr(got, want):
    for name in ("offsets", "adj", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def check_against_lexsort(n, edges, weights, directed, dedup):
    g = from_edges(n, edges, weights, directed=directed, dedup=dedup)
    assert_same_csr(g, lexsort_from_edges(n, edges, weights, directed, dedup))
    if directed:
        assert_same_csr(g.transposed(), lexsort_transposed(g))


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "keep-parallel"])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
class TestAgainstLexsortReference:
    """The single-key build equals the lexsort build in value and dtype."""

    def test_seeded_cases(self, weighted, directed, dedup):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 40))
            k = int(rng.integers(0, 4 * n))
            edges = rng.integers(0, n, size=(k, 2))
            weights = None
            if weighted:
                weights = (rng.choice(TIED_WEIGHTS, size=k) if seed % 2
                           else rng.exponential(size=k))
            check_against_lexsort(n, edges, weights, directed, dedup)

    @settings(max_examples=25, deadline=None)
    @given(ne=edge_lists(), data=st.data())
    def test_edge_lists(self, weighted, directed, dedup, ne, data):
        n, edges = ne
        weights = None
        if weighted:
            weights = data.draw(st.lists(st.sampled_from(TIED_WEIGHTS),
                                         min_size=len(edges), max_size=len(edges)))
        check_against_lexsort(n, edges, weights, directed, dedup)

    @pytest.mark.parametrize("case", EXPLICIT_CASES.values(), ids=EXPLICIT_CASES.keys())
    def test_explicit_cases(self, weighted, directed, dedup, case):
        n, edges, weights = case
        check_against_lexsort(n, edges, weights if weighted else None, directed, dedup)

