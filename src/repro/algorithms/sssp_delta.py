"""Push- and pull-based Δ-Stepping SSSP (Algorithm 4).

Vertices are grouped into buckets of width Δ by tentative distance;
epochs process buckets in ascending order, iterating within an epoch
until no vertex re-enters the current bucket.

* **push**: vertices of the current bucket relax their out-edges,
  writing remote (distance, bucket) pairs.  The pair update is a
  critical section, but an unlocked distance pre-check means only
  *improving* relaxations pay a lock -- few in practice (Table 1: 902k
  for pok).
* **pull**: every unsettled vertex scans its neighbors for members of
  the current bucket and relaxes itself.  Reading a remote
  (distance, bucket) pair consistently needs the lock around every
  *candidate* edge, and every unsettled vertex rescans its whole edge
  list each inner iteration -- the O((L/Δ)·l_Δ·m) read bound and the
  ~2m lock counts of Table 1 (44.6M for pok's 2m = 44.6M).

Distance updates use combining semantics (``np.minimum.at``), which is
exactly the CRCW-CB PRAM write rule of Section 2.1.

The pull epoch evaluates each thread's block as a MIN_PLUS gather over
its unsettled rows, masked to the bucket's members, with a per-vertex
tropical reduction, and replays the block's traffic as
:class:`~repro.streams.StreamMemory` streams: one ``access_batch`` under
the cache simulator, the per-vertex verb calls under every memory
proxy.  ``tests/test_sm_level_bodies.py`` keeps the per-owner loop it
replaces and compares the two after every region.  Both engines, and
weighted BC, run this code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.algorithms.common import (
    PUSH, AlgoResult, GraphArrays, check_direction, gather_edge_positions,
)
from repro.graph.builder import unique_ids
from repro.graph.csr import CSRGraph
from repro.la.semiring import MIN_PLUS
from repro.runtime.sm import SMRuntime
from repro.streams.memory import StreamMemory
from repro.streams.ops import rand_op, seq_op

_NO_BUCKET = np.iinfo(np.int64).max // 2


@dataclass
class SSSPResult(AlgoResult):
    dist: np.ndarray = None
    epochs: int = 0
    epoch_times: list = field(default_factory=list)        #: per-epoch simulated time
    inner_iterations: int = 0


def sssp_delta(g: CSRGraph, rt: SMRuntime, source: int, delta: float | None = None,
               direction: str = PUSH, max_epochs: int | None = None) -> SSSPResult:
    """Δ-Stepping from ``source``; unweighted edges count 1.

    ``delta`` defaults to the mean edge weight (a common heuristic);
    Figure 2c of the paper sweeps it, which ``benchmarks`` reproduce.
    """
    check_direction(direction)
    return DeltaStepping(g, rt, source, delta).run(direction, max_epochs)


class _PullRows(NamedTuple):
    """One thread block's unsettled rows for a pull epoch, laid out from
    the block's ``dist > b*delta`` mask: the ``mask`` itself, the
    unsettled vertices ``ids`` (ascending), their neighbours ``adj`` row
    after row (int64; named like ``CSRGraph.adj``, whose entries the
    static pass reads as neighbour ids), the cumulative row ends
    ``ends`` into ``adj``, and per row ``heads``, where ``heads[r] + i``
    is the adjacency position of the row's ``i``-th entry of ``adj``."""

    mask: np.ndarray
    ids: np.ndarray
    adj: np.ndarray
    ends: np.ndarray
    heads: np.ndarray


class DeltaStepping:
    """Δ-Stepping machinery: the registered (distance, bucket) state, the
    epoch driver :meth:`run`, and one method per epoch direction."""

    def __init__(self, g: CSRGraph, rt: SMRuntime, source: int,
                 delta: float | None) -> None:
        if not (0 <= source < g.n):
            raise ValueError("source out of range")
        self.g = g
        self.rt = rt
        mem = rt.mem
        self.mem = mem
        self.ga = GraphArrays(mem, g)
        n = g.n
        weights = g.weights if g.weights is not None else np.ones(len(g.adj))
        if delta is None:
            delta = float(weights.mean()) if len(weights) else 1.0
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.weights = weights
        self.delta = delta

        self.dist = np.full(n, np.inf)
        self.bidx = np.full(n, _NO_BUCKET, dtype=np.int64)
        self.dist[source] = 0.0
        self.bidx[source] = 0

        # registration order fixes the synthetic addresses the cache
        # simulator sees
        self.dist_h = mem.register("sssp.dist", self.dist)
        self.bidx_h = mem.register("sssp.bidx", self.bidx)
        self.wgt_h = self.ga.wgt or mem.register("sssp.unit_weights", weights)
        #: source vertex of every adjacency position (the push gather)
        self.src_of = np.repeat(np.arange(n, dtype=np.int64),
                                np.diff(g.offsets))

    def run(self, direction: str, max_epochs: int | None = None
            ) -> SSSPResult:
        """Process the nonempty buckets in ascending order, one epoch each."""
        rt, bidx = self.rt, self.bidx
        start_time = rt.time
        start_counters = rt.total_counters()
        epoch_times: list[float] = []
        inner_total = 0
        b = 0
        epochs = 0
        limit = max_epochs if max_epochs is not None else 4 * self.g.n + 16
        while epochs < limit:
            # next nonempty bucket
            pending = bidx[bidx < _NO_BUCKET]
            pending = pending[pending >= b]
            if len(pending) == 0:
                break
            b = int(pending.min())
            epochs += 1
            t0 = rt.time
            if direction == PUSH:
                inner_total += self._epoch_push(b)
            else:
                inner_total += self._epoch_pull(b)
            epoch_times.append(rt.time - t0)
            b += 1

        return SSSPResult(
            direction=direction,
            time=rt.time - start_time,
            counters=rt.total_counters() - start_counters,
            iterations=inner_total,
            dist=self.dist,
            epochs=epochs,
            epoch_times=epoch_times,
            inner_iterations=inner_total,
        )

    def _epoch_push(self, b: int) -> int:
        """Process bucket ``b`` with push relaxations until it stops refilling."""
        g, rt, mem, ga = self.g, self.rt, self.mem, self.ga
        dist, bidx, delta = self.dist, self.bidx, self.delta
        dist_h, bidx_h, wgt_h = self.dist_h, self.bidx_h, self.wgt_h
        weights, src_of = self.weights, self.src_of
        active = np.flatnonzero(bidx == b)
        itr = 0
        while len(active):
            itr += 1
            next_active: list[np.ndarray] = []

            def body(t: int, vs: np.ndarray) -> None:
                pos = gather_edge_positions(g.offsets, vs)
                src, nbrs, w = src_of[pos], g.adj[pos], weights[pos]
                if len(vs):
                    mem.read(ga.off, idx=vs, count=len(vs) + 1, mode="rand")
                    mem.read(dist_h, idx=vs, mode="rand")
                if len(nbrs) == 0:
                    return
                mem.read(ga.adj, count=len(nbrs), mode="seq")
                mem.read(wgt_h, count=len(nbrs), mode="seq")
                cand = dist[src] + w
                mem.flop(len(nbrs))
                # unlocked pre-check of the remote distance
                mem.read(dist_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                improving = cand < dist[nbrs]
                tgt, val = nbrs[improving], cand[improving]
                if len(tgt) == 0:
                    return
                # improving relaxations: lock around the (dist, bucket)
                # update -- the critical section covers both arrays
                mem.lock(dist_h, idx=tgt, mode="rand", covers=[(bidx_h, tgt)])
                mem.write(dist_h, idx=tgt, mode="rand")
                mem.write(bidx_h, idx=tgt, mode="rand")
                np.minimum.at(dist, tgt, val)          # CRCW-CB combining write
                changed = unique_ids(tgt)
                new_b = np.floor(dist[changed] / delta).astype(np.int64)
                bidx[changed] = new_b
                back = changed[new_b == b]
                if len(back):
                    next_active.append(back)

            rt.parallel_for(active, body, by_owner=True)
            active = (unique_ids(np.concatenate(next_active))
                      if next_active else np.empty(0, dtype=np.int64))
        return itr

    def _epoch_pull(self, b: int) -> int:
        """Process bucket ``b`` with pull relaxations until it stops
        refilling: per thread block, a MIN_PLUS gather over the
        unsettled rows masked to the bucket's members."""
        g, rt, mem, ga = self.g, self.rt, self.mem, self.ga
        dist, bidx, delta = self.dist, self.bidx, self.delta
        dist_h, bidx_h, wgt_h = self.dist_h, self.bidx_h, self.wgt_h
        weights = self.weights
        st = StreamMemory(mem)
        sr = MIN_PLUS
        prev_active = np.zeros(g.n, dtype=bool)
        prev_active[bidx == b] = True
        active_h = mem.register("sssp.active", g.n, 1)
        itr = 0
        threshold = b * delta
        # thread -> its block's unsettled rows, keyed by the exact mask they
        # were laid out from: with positive weights a vertex above b*delta
        # stays there all epoch, but a zero-weight edge can settle it on b*delta
        rows: dict[int, _PullRows] = {}

        def lay_out(v0: int, uns: np.ndarray) -> _PullRows:
            off = g.offsets[v0:v0 + len(uns) + 1]
            deg = np.diff(off)
            udeg = deg[uns]
            ends = np.cumsum(udeg)
            # int64, the index dtype of StreamOp and of NumPy gathers: no
            # body converts it again
            adj = g.adj[off[0]:off[-1]][np.repeat(uns, deg)].astype(np.int64)
            return _PullRows(uns, v0 + np.flatnonzero(uns), adj, ends,
                             off[:-1][uns] - (ends - udeg))

        while True:
            itr += 1
            newly_active: list[np.ndarray] = []
            first = itr == 1

            def body(t: int, vs: np.ndarray) -> None:
                if len(vs) == 0:
                    return
                v0 = int(vs[0])
                mem.read(dist_h, start=v0, count=len(vs))
                mem.branch_cond(len(vs))
                uns = dist[v0:v0 + len(vs)] > threshold
                if t not in rows or not np.array_equal(rows[t].mask, uns):
                    rows[t] = lay_out(v0, uns)
                lay = rows[t]
                unsettled, nbrs = lay.ids, lay.adj
                if len(nbrs) == 0:
                    return
                # full rescans of the unsettled rows: this is precisely
                # pulling's read overhead
                st.replay([
                    rand_op("read", ga.off, idx=unsettled,
                            counts=[len(unsettled) + 1]),
                    seq_op("read", ga.adj, counts=[len(nbrs)]),
                    rand_op("read", bidx_h, idx=nbrs),
                ])
                mem.branch_cond(len(nbrs))
                # bucket membership is re-derived from bidx in every body: a
                # crash rerun restores bidx, not arrays private to this kernel
                cpos = np.flatnonzero(np.take(bidx == b, nbrs))
                if not first:
                    in_bucket = nbrs[cpos]
                    st.replay([rand_op("read", active_h, idx=in_bucket)])
                    cpos = cpos[prev_active[in_bucket]]
                if len(cpos) == 0:
                    return
                # candidate edges: lock to read the remote (dist, bucket) pair
                tgt = nbrs[cpos]
                st.replay([
                    rand_op("lock", dist_h, idx=tgt),
                    seq_op("read", wgt_h, counts=[len(cpos)]),
                ])
                row = np.searchsorted(lay.ends, cpos, side="right")
                cand = sr.mul(dist[tgt], weights[lay.heads[row] + cpos])
                mem.flop(len(cpos))
                # rows run in vertex order, so candidates come grouped by owner
                first_of = np.r_[0, np.flatnonzero(np.diff(row)) + 1]
                uniq = unsettled[row[first_of]]
                mem.branch_cond(len(cpos))
                # per-owned-vertex tropical reduction (local combining)
                best = sr.add.reduceat(cand, first_of)
                improved = best < dist[uniq]
                imp = uniq[improved]
                if len(imp) == 0:
                    return
                rt.owned_write_check(imp)
                bestv = best[improved]
                dist[imp] = bestv
                new_b = (bestv // delta).astype(np.int64)
                bidx[imp] = new_b
                ones = np.arange(len(imp) + 1, dtype=np.int64)
                st.replay([
                    rand_op("write", dist_h, idx=imp, seg=ones),
                    rand_op("write", bidx_h, idx=imp, seg=ones),
                ], interleave=True)
                back = imp[new_b == b]
                if len(back):
                    newly_active.append(back)

            rt.for_each_thread(body)
            if not newly_active:
                break
            prev_active[:] = False
            prev_active[np.concatenate(newly_active)] = True
        return itr
