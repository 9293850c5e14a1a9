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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.common import (
    PUSH, AlgoResult, GraphArrays, check_direction, gather_edge_positions,
)
from repro.graph.builder import unique_ids
from repro.graph.csr import CSRGraph
from repro.runtime.sm import SMRuntime

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


class DeltaStepping:
    """Δ-Stepping machinery: the registered (distance, bucket) state, the
    epoch driver :meth:`run`, and one method per epoch direction (the
    batched engine overrides only :meth:`_epoch_pull`)."""

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
        """Process bucket ``b`` with pull relaxations until it stops refilling."""
        g, rt, mem, ga = self.g, self.rt, self.mem, self.ga
        dist, bidx, delta = self.dist, self.bidx, self.delta
        dist_h, bidx_h, wgt_h = self.dist_h, self.bidx_h, self.wgt_h
        weights = self.weights
        prev_active = np.zeros(g.n, dtype=bool)
        prev_active[bidx == b] = True
        active_h = mem.register("sssp.active", g.n, 1)
        itr = 0
        threshold = b * delta
        while True:
            itr += 1
            newly_active: list[np.ndarray] = []
            first = itr == 1

            def body(t: int, vs: np.ndarray) -> None:
                if len(vs) == 0:
                    return
                mem.read(dist_h, start=int(vs[0]), count=len(vs))
                mem.branch_cond(len(vs))
                unsettled = vs[dist[vs] > threshold]
                if len(unsettled) == 0:
                    return
                # gather all edges of the unsettled vertices (full rescans:
                # this is precisely pulling's read overhead)
                pos = gather_edge_positions(g.offsets, unsettled)
                if len(pos) == 0:
                    return
                nbrs = g.adj[pos]
                w = weights[pos]
                owners = np.repeat(unsettled, g.offsets[unsettled + 1] - g.offsets[unsettled])
                mem.read(ga.off, idx=unsettled, count=len(unsettled) + 1, mode="rand")
                mem.read(ga.adj, count=len(nbrs), mode="seq")
                mem.read(bidx_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                in_bucket = bidx[nbrs] == b
                if not first:
                    mem.read(active_h, idx=nbrs[in_bucket], mode="rand")
                    in_bucket &= prev_active[nbrs]
                if not in_bucket.any():
                    return
                cpos = np.flatnonzero(in_bucket)
                # candidate edges: lock to read the remote (dist, bucket) pair
                mem.lock(dist_h, idx=nbrs[cpos], mode="rand")
                mem.read(wgt_h, count=len(cpos), mode="seq")
                cand = dist[nbrs[cpos]] + w[cpos]
                mem.flop(len(cpos))
                own = owners[cpos]
                # per-owned-vertex minimum over candidates (local combining)
                order = np.argsort(own, kind="stable")
                own_s, cand_s = own[order], cand[order]
                cut = np.flatnonzero(np.diff(own_s)) + 1
                groups = np.split(cand_s, cut)
                uniq = own_s[np.r_[0, cut]] if len(own_s) else own_s
                mem.branch_cond(len(cpos))
                for v, vals in zip(uniq, groups):
                    best = float(vals.min())
                    if best < dist[v]:
                        rt.owned_write_check(int(v))
                        dist[v] = best
                        new_b = int(best // delta)
                        bidx[v] = new_b
                        mem.write(dist_h, idx=int(v), mode="rand")
                        mem.write(bidx_h, idx=int(v), mode="rand")
                        if new_b == b:
                            newly_active.append(np.array([v]))

            rt.for_each_thread(body)
            if not newly_active:
                break
            prev_active[:] = False
            prev_active[np.concatenate(newly_active)] = True
        return itr
