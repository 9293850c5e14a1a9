"""Graph construction from edge lists and networkx interchange."""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in sorted
    ``keys``."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def unique_ids(ids) -> np.ndarray:
    """The distinct ids of ``ids``, ascending: ``np.unique`` on integer
    ids as one sort plus :func:`run_starts` (no hash table)."""
    ids = np.sort(np.ravel(ids))
    return ids[run_starts(ids)]


def from_edges(n: int, edges, weights=None, directed: bool = False,
               dedup: bool = True) -> CSRGraph:
    """Build a :class:`CSRGraph` from an edge array.

    Each arc ``u -> v`` is sorted as the one int64 key ``u*n + v``, so
    rows come out in source order and each row ascending.  ``adj`` is
    ``int32``, so ``n < 2**31`` and every key is below ``2**62``.

    Parameters
    ----------
    n:
        Vertex count (vertices are ``0..n-1``).
    edges:
        ``(k, 2)`` array-like of endpoint pairs.  Self loops are
        dropped; for undirected graphs each pair is mirrored.
    weights:
        Optional ``k``-vector of non-negative edge weights (NaN is
        rejected; ``inf`` is allowed).
    directed:
        Build a directed graph (edges are arcs ``u -> v``).
    dedup:
        Drop duplicate (parallel) edges, keeping the *minimum* weight
        among duplicates (the convention that keeps SSSP well defined).
        With ``dedup=False`` parallel arcs are all kept in input order
        (for undirected graphs, mirrored copies after the given arcs).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != len(edges):
            raise ValueError("weights must match edges")
        if not np.all(weights >= 0):
            raise ValueError("edge weights must be non-negative and not NaN")
    if len(edges) and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")

    src, dst = edges.T
    keep = src != dst
    key = (src * n + dst)[keep]
    if weights is not None:
        weights = weights[keep]
    if not directed:
        key = np.concatenate([key, (dst * n + src)[keep]])
        if weights is not None:
            weights = np.concatenate([weights, weights])

    if weights is None:
        key = np.sort(key)
    else:
        # dedup merges equal keys, so only kept parallel arcs need a stable order
        order = np.argsort(key, kind=None if dedup else "stable")
        key, weights = key[order], weights[order]
    if dedup:
        first = run_starts(key)
        if weights is not None:
            weights = np.minimum.reduceat(weights, np.flatnonzero(first))
        key = key[first]

    src, dst = np.divmod(key, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return CSRGraph(offsets, dst.astype(np.int32), weights, directed=directed)


def from_networkx(g) -> CSRGraph:
    """Convert a networkx (Di)Graph with integer-labelable nodes.

    Nodes are relabelled to ``0..n-1`` in sorted order; a ``weight``
    edge attribute, if present on every edge, is carried over.
    """
    nodes = sorted(g.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    directed = g.is_directed()
    edges, weights = [], []
    weighted = all("weight" in d for _, _, d in g.edges(data=True)) and g.number_of_edges() > 0
    for u, v, d in g.edges(data=True):
        edges.append((index[u], index[v]))
        if weighted:
            weights.append(float(d["weight"]))
    return from_edges(len(nodes), np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                      np.asarray(weights) if weighted else None, directed=directed)


def to_networkx(g: CSRGraph):
    """Convert to a networkx graph (carrying weights when present)."""
    import networkx as nx

    out = nx.DiGraph() if g.directed else nx.Graph()
    out.add_nodes_from(range(g.n))
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.offsets))
    if g.weights is not None:
        out.add_weighted_edges_from(
            zip(src.tolist(), g.adj.tolist(), g.weights.tolist()))
    else:
        out.add_edges_from(zip(src.tolist(), g.adj.tolist()))
    return out


def relabel_random(g: CSRGraph, seed: int = 0) -> CSRGraph:
    """Randomly permute vertex ids (stress-tests partition sensitivity).

    Partition-Awareness results depend on how many neighbors land in
    the owning thread's block (Section 5 bounds atomics between 0 and
    2m by the distribution); relabelling lets experiments probe both
    ends.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n).astype(np.int64)
    pairs = g.edges()
    new_edges = perm[pairs]
    weights = None
    if g.weights is not None:
        weights = np.array([g.weight_of(int(v), int(w)) for v, w in pairs])
    return from_edges(g.n, new_edges, weights, directed=g.directed)
