"""Batched-engine entries of the SM kernels.

Only PageRank has a batched formulation of its own here: its pull phase
is a blocked CSR SpMV and its push phase a blocked CSC one over the
semiring substrate (:mod:`repro.la`), and both report their memory
traffic as :class:`~repro.streams.ops.StreamOp` batches through
:class:`~repro.streams.memory.StreamMemory` instead of one
``MemoryModel`` call per element.  Section 7.1's observation is what
makes this a *substrate* rather than a reformulation: iterating a CSR
row block *is* pulling and iterating a CSC column block *is* pushing.
The differential suite (tests/test_streams_differential.py) certifies
byte-identical counter totals, per-phase trace deltas, and final
states against the interpreted kernel; keep both sides in lockstep
when editing either.

BFS, Δ-Stepping and connected components run the interpreted kernels
under both engines.  The phases those would otherwise walk vertex by
vertex (BFS's level steps, Δ-Stepping's pull epoch) are array passes in
:mod:`repro.algorithms.bfs` and :mod:`repro.algorithms.sssp_delta`,
which replay one stream per thread block themselves;
tests/test_sm_level_bodies.py certifies them against the per-vertex
loops they replace.

The DM kernels already emit their communication as per-superstep verb
batches (``alltoallv``, staged RMA), so the batched engine treats DM
cells as an (exact) passthrough -- see docs/streams.md.  Their pull
scans (DM BFS ``scan``, Δ-Stepping ``relax_local``) replay each rank's
local traffic through one :class:`StreamMemory` stream per superstep
under both engines; ``relax_local``'s per-neighbour scalar reads share
their vertex's lockstep slot through the op's ``groups`` keys.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import BFSResult, bfs
from repro.algorithms.common import (
    PULL, PUSH, GraphArrays, block_bounds, check_direction,
)
from repro.algorithms.connected_components import CCResult, connected_components
from repro.algorithms.pagerank import PageRankResult
from repro.algorithms.sssp_delta import SSSPResult, sssp_delta
from repro.graph.csr import CSRGraph
from repro.la.matrix import pull_matrix, push_matrix
from repro.la.semiring import PLUS_TIMES
# first_claim and masked_first_hit run in repro.algorithms.bfs; they stay
# bound here because perfbench's PATCHES table wraps them in this module
from repro.la.spmv import first_claim, masked_first_hit  # noqa: F401
from repro.la.spmv import segment_reduce
from repro.runtime.sm import SMRuntime
from repro.streams.memory import StreamMemory
from repro.streams.ops import rand_op, seq_op


# -- PageRank ------------------------------------------------------------------

def pagerank_batched(g: CSRGraph, rt: SMRuntime, direction: str = PULL,
                     iterations: int = 20, damping: float = 0.85,
                     tol: float | None = None) -> PageRankResult:
    """Batched PageRank: pull = blocked CSR SpMV over PLUS_TIMES, push =
    blocked CSC SpMV with ``add.at`` combining (the CAS stream)."""
    check_direction(direction, (PUSH, PULL))
    mem = rt.mem
    st = StreamMemory(mem)
    ga = GraphArrays(mem, g)
    gin = g.transposed()
    gin_arrays = GraphArrays(mem, gin, prefix="gin") if g.directed else ga
    A_pull = pull_matrix(g, gin)
    A_push = push_matrix(g)
    sr = PLUS_TIMES
    n = g.n
    deg = np.diff(g.offsets).astype(np.float64)
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    rank = np.full(n, 1.0 / max(n, 1))
    acc = np.zeros(n)
    base = (1.0 - damping) / max(n, 1)

    # registration order mirrors the interpreted kernel so both engines
    # assign identical synthetic addresses (cache-sim equivalence)
    rank_h = mem.register("pr.rank", rank)
    acc_h = mem.register("pr.acc", acc)
    deg_h = mem.register("pr.deg", deg)
    for t in range(rt.P):
        mem.register(f"pr.acc.block{t}", max(rt.part.size(t), 1), 8)

    start_time = rt.time
    start_counters = rt.total_counters()
    iteration_times: list[float] = []
    converged = False
    it = 0

    def pull_body(t: int, vs: np.ndarray) -> None:
        if len(vs) == 0:
            return
        lo, hi = block_bounds(rt, vs, gin)
        _, nbrs, _vals = A_pull.block(int(vs[0]), int(vs[-1]) + 1)
        st.replay([
            seq_op("read", gin_arrays.off, counts=[len(vs) + 1],
                   starts=[int(vs[0])]),
            seq_op("read", gin_arrays.adj, counts=[hi - lo], starts=[lo]),
            rand_op("read", rank_h, idx=nbrs),
            rand_op("read", deg_h, idx=nbrs),
        ])
        vals = sr.mul(rank[nbrs], inv_deg[nbrs])
        sums = segment_reduce(sr, vals, gin.offsets[vs] - lo,
                              gin.offsets[vs + 1] - lo)
        rt.owned_write_check(vs)
        acc[vs] = sums
        st.replay([seq_op("write", acc_h, counts=[len(vs)],
                          starts=[int(vs[0])])])
        mem.flop(2 * (hi - lo))
        mem.branch_cond((hi - lo) + len(vs))

    def zero_body(t: int, vs: np.ndarray) -> None:
        acc[vs] = 0.0
        mem.write(acc_h, start=vs[0] if len(vs) else 0, count=len(vs))

    def push_body(t: int, vs: np.ndarray) -> None:
        if len(vs) == 0:
            return
        lo, hi = block_bounds(rt, vs, g)
        _, nbrs, _vals = A_push.block(int(vs[0]), int(vs[-1]) + 1)
        st.replay([
            seq_op("read", ga.off, counts=[len(vs) + 1], starts=[int(vs[0])]),
            seq_op("read", ga.adj, counts=[hi - lo], starts=[lo]),
            seq_op("read", rank_h, counts=[len(vs)], starts=[int(vs[0])]),
            seq_op("read", deg_h, counts=[len(vs)], starts=[int(vs[0])]),
        ])
        contrib = sr.mul(rank[vs], inv_deg[vs]).repeat(
            np.diff(g.offsets[np.r_[vs, vs[-1] + 1]]))
        sr.add_at(acc, nbrs, contrib)
        # float accumulate == CAS loop per update (no float atomics on CPUs)
        st.replay([rand_op("cas", acc_h, idx=nbrs)])
        mem.flop((hi - lo) + len(vs))
        mem.branch_cond((hi - lo) + len(vs))

    deltas = np.zeros(rt.P)

    def finalize_body(t: int, vs: np.ndarray) -> None:
        if len(vs) == 0:
            deltas[t] = 0.0
            return
        mem.read(acc_h, start=vs[0], count=len(vs))
        new = base + damping * acc[vs]
        if tol is not None:
            deltas[t] = float(np.abs(new - rank[vs]).sum())
            mem.read(rank_h, start=vs[0], count=len(vs))
            mem.flop(2 * len(vs))
        rank[vs] = new
        mem.write(rank_h, start=vs[0], count=len(vs))
        mem.flop(2 * len(vs))

    for it in range(1, iterations + 1):
        t0 = rt.time
        if direction == PULL:
            rt.annotate("pr.pull")
            rt.for_each_thread(pull_body)
        else:
            rt.annotate("pr.zero")
            rt.for_each_thread(zero_body)
            rt.annotate("pr.push")
            rt.for_each_thread(push_body)
        rt.annotate("pr.finalize")
        rt.for_each_thread(finalize_body)
        iteration_times.append(rt.time - t0)
        if tol is not None and deltas.sum() < tol:
            converged = True
            break

    return PageRankResult(
        direction=direction,
        time=rt.time - start_time,
        counters=rt.total_counters() - start_counters,
        iterations=it,
        iteration_times=iteration_times,
        ranks=rank,
        converged=converged,
    )


# -- BFS, Δ-Stepping, connected components ----------------------------------
#
# The interpreted kernels, under both engines.  Each entry is a distinct
# def because the kernel table and perfbench's traced pass name it in
# this module.

def bfs_batched(g: CSRGraph, rt: SMRuntime, root: int,
                direction: str = PUSH) -> BFSResult:
    """BFS under the batched engine: the interpreted kernel, whose level
    bodies replay one op stream per thread block."""
    return bfs(g, rt, root, direction)


def sssp_delta_batched(g: CSRGraph, rt: SMRuntime, source: int,
                       delta: float | None = None, direction: str = PUSH,
                       max_epochs: int | None = None) -> SSSPResult:
    """Δ-Stepping under the batched engine: the interpreted kernel, whose
    pull epoch is a MIN_PLUS gather per thread block."""
    return sssp_delta(g, rt, source, delta, direction, max_epochs)


def cc_batched(g: CSRGraph, rt: SMRuntime, direction: str = PUSH,
               pointer_jumping: bool = False) -> CCResult:
    """Label propagation under the batched engine: the interpreted kernel,
    whose push and pull bodies issue their verb calls per thread block."""
    return connected_components(g, rt, direction, pointer_jumping)
