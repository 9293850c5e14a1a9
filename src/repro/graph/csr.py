"""Compressed-sparse-row graph representation.

Section 2.2 of the paper: "The neighbors of each v form an array.  The
arrays of all the vertices form a contiguous array accessed by all the
threads; we also store offsets into the array that determine the
beginning of the array of each vertex.  The whole representation takes
n + 2m cells."

For an undirected graph every edge is stored in both endpoint lists, so
``offsets`` has ``n + 1`` entries and ``adj`` has ``2m``.  Directed
graphs store out-neighbors in CSR form and can materialize the
transposed (in-neighbor / CSC) view, which Section 7.1 identifies with
the pull direction.
"""

from __future__ import annotations

import numpy as np


class CSRGraph:
    """An immutable CSR graph with optional edge weights.

    Attributes
    ----------
    n, m:
        Vertex count and *undirected* edge count (for directed graphs
        ``m`` is the arc count).
    offsets:
        ``int64[n + 1]`` -- ``adj[offsets[v]:offsets[v+1]]`` are v's
        neighbors (out-neighbors when directed), sorted ascending.
    adj:
        ``int32[n_entries]`` neighbor array.
    weights:
        ``float64[n_entries]`` parallel to ``adj``, or ``None``.
    directed:
        Whether the graph is directed.
    """

    def __init__(self, offsets: np.ndarray, adj: np.ndarray,
                 weights: np.ndarray | None = None, directed: bool = False,
                 check: bool = True) -> None:
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.adj = np.ascontiguousarray(adj, dtype=np.int32)
        self.weights = None if weights is None else np.ascontiguousarray(
            weights, dtype=np.float64)
        self.directed = directed
        self.n = len(self.offsets) - 1
        entries = len(self.adj)
        self.m = entries if directed else entries // 2
        if check:
            self._validate()
        self._transpose: CSRGraph | None = None

    # -- invariants ----------------------------------------------------------
    def _validate(self) -> None:
        if self.n < 0:
            raise ValueError("offsets must have at least one entry")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.adj):
            raise ValueError("offsets must start at 0 and end at len(adj)")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if len(self.adj) and (self.adj.min() < 0 or self.adj.max() >= self.n):
            raise ValueError("neighbor index out of range")
        if self.weights is not None and len(self.weights) != len(self.adj):
            raise ValueError("weights must parallel adj")
        if not self.directed and len(self.adj) % 2 != 0:
            raise ValueError("undirected graph must have an even adjacency array")

    # -- basic queries ----------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """The (sorted) neighbor slice of ``v`` -- a view, not a copy."""
        return self.adj[self.offsets[v]:self.offsets[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        if self.weights is None:
            raise ValueError("graph is unweighted")
        return self.weights[self.offsets[v]:self.offsets[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    @property
    def degrees(self) -> np.ndarray:
        """``int64[n]`` of (out-)degrees."""
        return np.diff(self.offsets)

    @property
    def max_degree(self) -> int:
        """d-hat of the paper."""
        if self.n == 0:
            return 0
        return int(self.degrees.max(initial=0))

    @property
    def n_cells(self) -> int:
        """Representation size in cells: n + 2m (n + m directed)."""
        return self.n + len(self.adj)

    def has_edge(self, v: int, w: int) -> bool:
        nbrs = self.neighbors(v)
        i = np.searchsorted(nbrs, w)
        return bool(i < len(nbrs) and nbrs[i] == w)

    def weight_of(self, v: int, w: int) -> float:
        """Weight of edge (v, w); 1.0 for unweighted graphs."""
        nbrs = self.neighbors(v)
        i = int(np.searchsorted(nbrs, w))
        if i >= len(nbrs) or nbrs[i] != w:
            raise KeyError((v, w))
        if self.weights is None:
            return 1.0
        return float(self.edge_weights(v)[i])

    # -- derived views --------------------------------------------------------------
    def transposed(self) -> "CSRGraph":
        """The reverse graph (CSC view of the adjacency matrix).

        For undirected graphs this is the graph itself.  Cached.
        """
        if not self.directed:
            return self
        if self._transpose is None:
            src = np.repeat(np.arange(self.n, dtype=np.int32), np.diff(self.offsets))
            # rows are already in source order, so a stable sort by
            # destination alone orders ties by (src, position)
            order = np.argsort(self.adj, kind="stable")
            roff = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.adj, minlength=self.n), out=roff[1:])
            rw = None if self.weights is None else self.weights[order]
            self._transpose = CSRGraph(roff, src[order], rw, directed=True, check=False)
        return self._transpose

    def edges(self) -> np.ndarray:
        """``int64[k, 2]`` array of edges; undirected edges appear once (v < w)."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.offsets))
        dst = self.adj.astype(np.int64)
        pairs = np.stack([src, dst], axis=1)
        if not self.directed:
            pairs = pairs[pairs[:, 0] < pairs[:, 1]]
        return pairs

    def with_weights(self, weights_per_entry: np.ndarray) -> "CSRGraph":
        """A copy of this graph carrying the given per-entry weights."""
        return CSRGraph(self.offsets, self.adj, weights_per_entry,
                        directed=self.directed, check=True)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        w = "weighted" if self.weights is not None else "unweighted"
        return f"CSRGraph({kind}, {w}, n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.adj, other.adj)
            and (
                (self.weights is None and other.weights is None)
                or (self.weights is not None and other.weights is not None
                    and np.array_equal(self.weights, other.weights))
            )
        )

    def __hash__(self):  # CSRGraph is mutable-array-backed; identity hash
        return id(self)
