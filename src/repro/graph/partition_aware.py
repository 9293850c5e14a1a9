"""Partition-Aware adjacency representation (Section 5, "PA").

The strategy: "we partition the adjacency array of each v into two
parts: local and remote.  The former contains the neighbors u in N(v)
that are owned by t[v] and the latter groups the ones owned by other
threads. [...] This increases the representation size from n + 2m to
2n + 2m but also enables detecting if a given vertex v is owned by the
executing thread (to be updated with a non-atomic) or if it is owned by
a different thread (to be updated with an atomic)."

We realize the 2n + 2m layout as the usual ``offsets`` (n + 1 cells)
plus a ``split`` array (n cells): within v's slice, entries
``[offsets[v], split[v])`` are local neighbors and ``[split[v],
offsets[v+1])`` are remote ones.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import Partition1D


class PartitionAwareCSR:
    """A CSR graph whose per-vertex neighbor lists are split local|remote."""

    def __init__(self, g: CSRGraph, part: Partition1D) -> None:
        if part.n != g.n:
            raise ValueError("partition and graph disagree on n")
        self.g = g
        self.part = part
        owners = part.owner(np.arange(g.n, dtype=np.int64))
        src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.offsets))
        is_local = owners[src] == owners[g.adj]
        # each vertex slice sorted locals first, then remotes, both by
        # ascending neighbor: one stable sort of the int64 key
        # (2*src + remote)*n + adj, so parallel arcs keep their order
        key = (2 * src + ~is_local) * g.n + g.adj
        order = np.argsort(key, kind="stable")
        self.adj = g.adj[order]
        self.weights = None if g.weights is None else g.weights[order]
        self.offsets = g.offsets
        self.split = g.offsets[:-1] + np.bincount(src[is_local],
                                                  minlength=g.n)

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def m(self) -> int:
        return self.g.m

    @property
    def n_cells(self) -> int:
        """2n + 2m: offsets (n) + split (n) + adjacency (2m)."""
        return 2 * self.g.n + len(self.adj)

    def local_neighbors(self, v: int) -> np.ndarray:
        return self.adj[self.offsets[v]:self.split[v]]

    def remote_neighbors(self, v: int) -> np.ndarray:
        return self.adj[self.split[v]:self.offsets[v + 1]]

    def local_weights(self, v: int) -> np.ndarray:
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.weights[self.offsets[v]:self.split[v]]

    def remote_weights(self, v: int) -> np.ndarray:
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.weights[self.split[v]:self.offsets[v + 1]]

    def remote_edge_count(self) -> int:
        """Total remote adjacency entries == upper bound on PA atomics.

        Section 5 bounds the atomics of push+PA between 0 (bipartite
        graph split across owners) and 2m (each thread owns a whole
        component).
        """
        return int((self.offsets[1:] - self.split).sum())

    def local_edge_count(self) -> int:
        return int((self.split - self.offsets[:-1]).sum())

    def __repr__(self) -> str:
        return (f"PartitionAwareCSR(n={self.n}, m={self.m}, P={self.part.P}, "
                f"remote_entries={self.remote_edge_count()})")
