"""Graph statistics: the (n, m, d-bar, D) columns of the paper's Table 2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.builder import unique_ids
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics in the paper's Table-2 notation."""

    n: int
    m: int
    d_bar: float       #: average degree in the paper's Table-2 convention (m/n)
    d_hat: int         #: maximum degree
    diameter: int      #: (approximate) diameter of the largest component

    def as_row(self) -> dict:
        return {"n": self.n, "m": self.m, "d̄": round(self.d_bar, 2),
                "d̂": self.d_hat, "D": self.diameter}


def _bfs_ecc(g: CSRGraph, source: int) -> tuple[int, int]:
    """Eccentricity of ``source`` in its component and the farthest vertex."""
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    far = source
    while len(frontier):
        nxt = []
        for v in frontier:
            nbrs = g.neighbors(v)
            fresh = nbrs[dist[nbrs] < 0]
            if len(fresh):
                dist[fresh] = level + 1
                nxt.append(fresh)
        level += 1
        if nxt:
            frontier = np.concatenate(nxt)
            frontier = unique_ids(frontier)
            far = int(frontier[0])
        else:
            frontier = np.empty(0, dtype=np.int64)
    ecc = int(dist.max(initial=0))
    if ecc > 0:
        far = int(np.argmax(dist))
    return ecc, far


def approx_diameter(g: CSRGraph, sweeps: int = 4, seed: int = 0) -> int:
    """Lower-bound the diameter with repeated double-sweep BFS.

    Exact for trees and typically tight on the paper's graph classes;
    this mirrors how large-graph studies report D.
    """
    if g.n == 0:
        return 0
    rng = np.random.default_rng(seed)
    # start in the largest component: probe a few random vertices and keep
    # the one whose BFS reaches the most vertices
    best = 0
    start = int(rng.integers(g.n))
    for _ in range(sweeps):
        ecc, far = _bfs_ecc(g, start)
        best = max(best, ecc)
        if far == start:
            start = int(rng.integers(g.n))
        else:
            start = far
    return best


def graph_stats(g: CSRGraph, diameter_sweeps: int = 4) -> GraphStats:
    return GraphStats(
        n=g.n,
        m=g.m,
        d_bar=g.m / max(g.n, 1),
        d_hat=g.max_degree,
        diameter=approx_diameter(g, diameter_sweeps),
    )
