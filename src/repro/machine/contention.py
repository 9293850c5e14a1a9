"""Contention analysis for push-mode write sharing.

The cost models price atomics at *contended* rates (DESIGN.md,
`cost_model.py`).  This module justifies that choice quantitatively:
for a given graph and 1D partition it computes each vertex's **writer
count** -- how many distinct threads push updates into it (the number
of owner blocks among its neighbors).  In push PageRank/TC/BFS this is
exactly the set of threads whose atomics can collide on the vertex's
cache line.

On community graphs with random block partitions, hubs approach writer
count P (fully contended); on row-ordered road networks most vertices
have writer count 1 (their atomics are effectively private).  The
``contention_profile`` summary feeds the ablation experiment and the
per-machine ``w_atomic`` discussion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.builder import unique_ids
from repro.graph.csr import CSRGraph
from repro.graph.partition import Partition1D


@dataclass(frozen=True)
class ContentionProfile:
    """Summary of push-write sharing under a partition."""

    P: int
    writer_counts: np.ndarray      #: per-vertex distinct pushing threads
    mean_writers: float
    max_writers: int
    #: fraction of *pushed updates* that target a vertex some other
    #: thread also pushes to in the same iteration (collision exposure)
    contended_update_fraction: float
    #: fraction of vertices written by a single thread only
    private_fraction: float

    def as_row(self) -> dict:
        return {
            "P": self.P,
            "mean writers": round(self.mean_writers, 2),
            "max writers": self.max_writers,
            "contended updates": f"{self.contended_update_fraction:.0%}",
            "private vertices": f"{self.private_fraction:.0%}",
        }


def writer_counts(g: CSRGraph, part: Partition1D) -> np.ndarray:
    """Distinct owner threads among each vertex's neighbors.

    A vertex with writer count k receives push updates from k different
    threads; k >= 2 means its accumulator line is genuinely shared.
    """
    owners = np.asarray(part.owner(np.arange(g.n, dtype=np.int64)))
    counts = np.zeros(g.n, dtype=np.int64)
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if len(nbrs):
            counts[v] = len(unique_ids(owners[nbrs]))
    return counts


def contention_profile(g: CSRGraph, part: Partition1D) -> ContentionProfile:
    """Aggregate writer-count statistics for ``g`` under ``part``."""
    counts = writer_counts(g, part)
    touched = counts > 0
    deg = np.diff(g.offsets)
    shared = counts >= 2
    pushed_updates = int(deg[touched].sum())
    contended_updates = int(deg[shared].sum())
    return ContentionProfile(
        P=part.P,
        writer_counts=counts,
        mean_writers=float(counts[touched].mean()) if touched.any() else 0.0,
        max_writers=int(counts.max(initial=0)),
        contended_update_fraction=(contended_updates / pushed_updates
                                   if pushed_updates else 0.0),
        private_fraction=(float((counts[touched] == 1).mean())
                          if touched.any() else 1.0),
    )


def effective_atomic_cost(profile: ContentionProfile, w_uncontended: float,
                          w_contended: float) -> float:
    """Expected per-atomic cost under the measured collision exposure.

    A two-point mixture: updates whose target line is shared pay the
    contended rate, private ones the uncontended rate.  Used by the
    ablation to show where the flat ``w_atomic`` sits relative to the
    graph-dependent truth.
    """
    f = profile.contended_update_fraction
    return f * w_contended + (1.0 - f) * w_uncontended
