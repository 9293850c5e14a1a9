"""Batched algebraic Betweenness Centrality (the paper's reference [54]).

Solomonik, Besta, Vella & Hoefler scale BC with communication-efficient
sparse-matrix--dense-matrix products; this module implements the
single-node algebraic core: Brandes over a *batch* of b sources at
once, where every step is one SpMM against the adjacency matrix:

* forward: the boolean frontier matrix F (n x b) expands as
  ``A^T ⊗ F`` over plus-times, accumulating path counts Σ (n x b);
* backward: dependency matrices Δ (n x b) accumulate level by level
  with the same product structure.

Batching is exactly the "additional parallelism" of Section 4.5 (many
sources processed independently); in the algebraic framing it becomes
dense right-hand sides, which is where the SpMM formulation earns its
keep.  The CSR layout realizes the *pull* direction (each output row
is reduced independently), per Section 7.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class BCLAResult:
    bc: np.ndarray
    sources: np.ndarray
    spmm_count: int          #: number of SpMM invocations
    flops: int               #: scalar multiply-adds across all SpMMs


def _adjacency(g: CSRGraph) -> sp.csr_matrix:
    # scipy loads here, not at import: every ``repro.la`` import (the
    # stream kernels', the DM pull scans') would otherwise pay for it
    import scipy.sparse as sp

    indptr = g.offsets.astype(np.int64)
    return sp.csr_matrix(
        (np.ones(len(g.adj)), g.adj.astype(np.int64), indptr),
        shape=(g.n, g.n))


def bc_la(g: CSRGraph, sources=None, batch: int = 32,
          seed: int = 0) -> BCLAResult:
    """Unweighted Brandes BC with SpMM-batched sources.

    ``sources``: None = all vertices; int = sampled count; iterable =
    explicit list.  ``batch`` bounds the dense right-hand-side width.
    """
    n = g.n
    if sources is None:
        src_list = np.arange(n)
    elif np.isscalar(sources):
        rng = np.random.default_rng(seed)
        src_list = rng.choice(n, size=min(int(sources), n), replace=False)
    else:
        src_list = np.asarray(list(sources), dtype=np.int64)

    A = _adjacency(g)          # symmetric for undirected graphs
    At = A.T.tocsr()
    bc = np.zeros(n)
    spmm_count = 0
    flops = 0

    for lo in range(0, len(src_list), batch):
        batch_src = src_list[lo:lo + batch]
        b = len(batch_src)

        # ---- forward: levels + path counts, one SpMM per level ----------
        sigma = np.zeros((n, b))
        sigma[batch_src, np.arange(b)] = 1.0
        level = np.full((n, b), -1, dtype=np.int64)
        level[batch_src, np.arange(b)] = 0
        frontier = np.zeros((n, b))
        frontier[batch_src, np.arange(b)] = 1.0
        frontiers = [frontier.astype(bool)]
        depth = 0
        while frontier.any():
            contrib = At @ (sigma * frontier)        # paths reaching nbrs
            spmm_count += 1
            flops += int(A.nnz) * b
            fresh = (contrib > 0) & (level < 0)
            depth += 1
            level[fresh] = depth
            this_level = level == depth
            sigma[this_level] += contrib[this_level]
            frontier = this_level.astype(np.float64)
            frontiers.append(this_level)

        # ---- backward: dependency accumulation, one SpMM per level -----------
        delta = np.zeros((n, b))
        for d in range(depth - 1, 0, -1):
            mask_child = frontiers[d + 1] if d + 1 < len(frontiers) else \
                np.zeros((n, b), dtype=bool)
            child_term = np.where(mask_child, (1.0 + delta) /
                                  np.where(sigma > 0, sigma, 1.0), 0.0)
            pulled = At @ child_term
            spmm_count += 1
            flops += int(A.nnz) * b
            mine = frontiers[d]
            delta[mine] += (sigma * pulled)[mine]
        # level-0 contribution is never added to bc (s excluded below)

        contrib_mask = level > 0
        bc += np.where(contrib_mask, delta, 0.0).sum(axis=1)

    if not g.directed:
        bc /= 2.0
    return BCLAResult(bc=bc, sources=src_list, spmm_count=spmm_count,
                      flops=flops)
