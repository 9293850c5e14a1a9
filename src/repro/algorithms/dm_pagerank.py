"""Distributed-memory PageRank (Section 6.3.1): RMA push, RMA pull, MP.

* **RMA push**: each process relaxes its owned vertices' edges; updates
  to remote accumulators go through ``MPI_Accumulate`` on *floats* --
  the lock-protocol slow path (one ``remote_acc_float`` per remote edge
  entry).  The paper measures this as the slowest variant.
* **RMA pull**: each process fetches the rank *and* degree of every
  remote neighbor with ``MPI_Get``s -- two remote gets per remote edge
  entry, no atomics.
* **MP (Alltoallv)**: each process aggregates the contributions its
  block sends to every other block into per-destination vectors and
  exchanges them with one ``MPI_Alltoallv`` per iteration -- the hybrid
  the paper notes "combines pushing and pulling" and measures >10x
  faster than RMA, at the cost of O(n·d̂/P) send/receive buffers.

All three compute identical ranks (validated against the sequential
reference); the differences are purely in the communication events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.builder import unique_ids
from repro.graph.csr import CSRGraph
from repro.machine.counters import PerfCounters
from repro.runtime.dm import DMRuntime

RMA_PUSH = "rma-push"
RMA_PULL = "rma-pull"
MP = "mp"

_VARIANTS = (RMA_PUSH, RMA_PULL, MP)


@dataclass
class DMPageRankResult:
    variant: str
    ranks: np.ndarray
    time: float
    counters: PerfCounters
    iterations: int
    iteration_times: list = field(default_factory=list)
    #: per-process peak auxiliary buffer cells (the memory-consumption
    #: comparison of Section 6.3.1: O(1) for RMA, O(n·d̂/P) for MP)
    peak_buffer_cells: int = 0


def dm_pagerank(g: CSRGraph, rt: DMRuntime, variant: str = MP,
                iterations: int = 20, damping: float = 0.85
                ) -> DMPageRankResult:
    """Run one of the three DM PageRank variants on the simulated machine."""
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    n = g.n
    P = rt.P
    mem = rt.mem
    off_h = mem.register("dmpr.offsets", g.offsets)
    adj_h = mem.register("dmpr.adj", g.adj)
    rank_h = mem.register("dmpr.rank", n, 8)
    acc_h = mem.register("dmpr.acc", n, 8)
    deg = np.diff(g.offsets).astype(np.float64)
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    rank = np.full(n, 1.0 / max(n, 1))
    acc = np.zeros(n)
    base = (1.0 - damping) / max(n, 1)
    # window registry: data-carrying accumulates target acc; both arrays
    # are checkpointed for crash rollback under fault injection
    rt.register_window(acc_h, acc)
    rt.register_window(rank_h, rank)

    owner = rt.part.owner(np.arange(n, dtype=np.int64))
    start_time = rt.time
    start_counters = rt.total_counters()
    iteration_times: list[float] = []
    peak_buffer = 0

    for _ in range(iterations):
        t0 = rt.time
        acc[:] = 0.0

        if variant == MP:
            # one contribution vector per destination process
            contributions: list[list] = [[None] * P for _ in range(P)]

            def compute(p: int) -> None:
                vs = rt.owned(p)
                if len(vs) == 0:
                    return
                lo, hi = int(g.offsets[vs[0]]), int(g.offsets[vs[-1] + 1])
                nbrs = g.adj[lo:hi]
                srcs = np.repeat(vs, g.offsets[vs + 1] - g.offsets[vs])
                mem.read(off_h, start=int(vs[0]), count=len(vs) + 1)
                mem.read(adj_h, start=lo, count=hi - lo)
                mem.read(rank_h, start=int(vs[0]), count=len(vs))
                vals = rank[srcs] * inv_deg[srcs]
                mem.flop(hi - lo)
                # aggregate per destination: combine same-target updates
                for q in range(P):
                    sel = owner[nbrs] == q
                    if not sel.any():
                        contributions[p][q] = (np.empty(0, dtype=np.int64),
                                               np.empty(0))
                        continue
                    tgt = nbrs[sel].astype(np.int64)
                    uv = np.zeros(n)
                    np.add.at(uv, tgt, vals[sel])
                    uniq = unique_ids(tgt)
                    mem.read(acc_h, idx=uniq, mode="rand")
                    mem.write(acc_h, idx=uniq, mode="rand")
                    contributions[p][q] = (uniq, uv[uniq])

            rt.annotate("pr.mp-compute")
            rt.superstep(compute)
            received = rt.alltoallv(contributions)
            buf = max(
                sum(len(pair[0]) for pair in row if pair is not None)
                for row in received
            )
            peak_buffer = max(peak_buffer, 2 * buf)

            def apply(p: int) -> None:
                for pair in received[p]:
                    if pair is None:
                        continue
                    idx, vals = pair
                    if len(idx) == 0:
                        continue
                    mem.read(acc_h, idx=idx, mode="rand")
                    mem.write(acc_h, idx=idx, mode="rand")
                    np.add.at(acc, idx, vals)
                    mem.flop(len(idx))

            rt.annotate("pr.mp-apply")
            rt.superstep(apply)

        elif variant == RMA_PUSH:
            def compute(p: int) -> None:
                vs = rt.owned(p)
                if len(vs) == 0:
                    return
                lo, hi = int(g.offsets[vs[0]]), int(g.offsets[vs[-1] + 1])
                nbrs = g.adj[lo:hi]
                srcs = np.repeat(vs, g.offsets[vs + 1] - g.offsets[vs])
                mem.read(off_h, start=int(vs[0]), count=len(vs) + 1)
                mem.read(adj_h, start=lo, count=hi - lo)
                mem.read(rank_h, start=int(vs[0]), count=len(vs))
                vals = rank[srcs] * inv_deg[srcs]
                mem.flop(hi - lo)
                tgt_owner = owner[nbrs]
                local = tgt_owner == p
                lidx = nbrs[local].astype(np.int64)
                if len(lidx):
                    # local updates take the same accumulate primitive
                    # as remote ones (a CAS loop per entry): remote
                    # processes accumulate into this block in the same
                    # epoch, so plain read-modify-writes here would
                    # race them (the epoch checker's write-vs-acc rule)
                    rt.accumulate(p, vals[local], window=acc_h, idx=lidx,
                                  dtype="float")
                # float accumulate per remote edge entry (the slow
                # path); data is staged and lands at the flush below
                for q in range(P):
                    if q == p:
                        continue
                    sel = tgt_owner == q
                    k = int(sel.sum())
                    if k == 0:
                        continue
                    rt.accumulate(q, vals[sel], window=acc_h,
                                  idx=nbrs[sel].astype(np.int64),
                                  dtype="float")
                rt.rma_flush()

            rt.annotate("pr.rma-push")
            rt.superstep(compute)

        else:  # RMA_PULL
            def compute(p: int) -> None:
                vs = rt.owned(p)
                if len(vs) == 0:
                    return
                lo, hi = int(g.offsets[vs[0]]), int(g.offsets[vs[-1] + 1])
                nbrs = g.adj[lo:hi]
                srcs = np.repeat(vs, g.offsets[vs + 1] - g.offsets[vs])
                mem.read(off_h, start=int(vs[0]), count=len(vs) + 1)
                mem.read(adj_h, start=lo, count=hi - lo)
                tgt_owner = owner[nbrs]
                remote = tgt_owner != p
                # remote neighbors: get the rank AND the degree (2 gets each)
                for q in range(P):
                    if q == p:
                        continue
                    sel = tgt_owner == q
                    k = int(sel.sum())
                    if k:
                        rt.rma_get(q, 2 * k, ops=2 * k, window=rank_h,
                                   idx=nbrs[sel].astype(np.int64))
                k_local = int((~remote).sum())
                if k_local:
                    mem.read(rank_h, count=k_local, mode="rand")
                vals = rank[nbrs] * inv_deg[nbrs]
                mem.flop(2 * len(nbrs))
                sums = np.zeros(n)
                np.add.at(sums, srcs, vals)
                acc[vs] = sums[vs]
                mem.write(acc_h, start=int(vs[0]), count=len(vs))
                rt.rma_flush()

            rt.annotate("pr.rma-pull")
            rt.superstep(compute)

        # finalize (always local)
        def finalize(p: int) -> None:
            vs = rt.owned(p)
            if len(vs) == 0:
                return
            mem.read(acc_h, start=int(vs[0]), count=len(vs))
            rank[vs] = base + damping * acc[vs]
            mem.write(rank_h, start=int(vs[0]), count=len(vs))
            mem.flop(2 * len(vs))

        rt.annotate("pr.finalize")
        rt.superstep(finalize)
        iteration_times.append(rt.time - t0)

    return DMPageRankResult(
        variant=variant,
        ranks=rank,
        time=rt.time - start_time,
        counters=rt.total_counters() - start_counters,
        iterations=iterations,
        iteration_times=iteration_times,
        peak_buffer_cells=peak_buffer if variant == MP else 1,
    )
