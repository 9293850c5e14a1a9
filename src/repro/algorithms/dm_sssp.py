"""Distributed-memory Δ-Stepping SSSP (Section 3.4 / the paper's [17]).

Chakaravarthy et al. "invert the direction of message exchanges in the
distributed Δ-Stepping algorithm"; this module implements both
directions over the Message-Passing backend:

* **push**: owners of current-bucket vertices send *relaxation
  requests* ``(target, candidate distance)`` to the owners of the
  targets -- one batched message per (source rank, dest rank) pair per
  inner iteration, carrying only the improving candidates.
* **pull**: owners of *unsettled* vertices ask the owners of their
  neighbors for the neighbors' (distance, bucket) state -- a request
  plus a reply per rank pair (twice the message rounds), re-sent every
  inner iteration because unsettled vertices must re-examine the
  current bucket (the DM face of pull's rescan overhead).

The pull relaxation sweeps a rank's unsettled vertices in ascending
order, and a vertex reads the (dist, bucket) that earlier owned
vertices of the same sweep just wrote: a Gauss-Seidel sweep, not a
Jacobi one.  :class:`_PullSweep` computes it array-at-a-time -- one
Jacobi pass over all vertices, then an ordered repair that recomputes
exactly the vertices an earlier update reached -- and reproduces the
sequential sweep exactly (values, flops, and the memory call order it
replays through :class:`~repro.streams.memory.StreamMemory`).

The paper's Section 6.5 observes that on shared memory push wins
because intra-node atomics are cheap, "surprisingly different from the
variant for the DM machines presented in the literature, where pulling
is faster" -- pulling avoids fine-grained remote relaxation traffic
when each relaxation would be its own message.  With *batched* requests
(as here and in [17]) push regains the edge; the tests pin down the
message-count asymmetry rather than a time winner.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.algorithms.common import gather_edge_positions
from repro.graph.builder import unique_ids
from repro.graph.csr import CSRGraph
from repro.machine.counters import PerfCounters
from repro.runtime.dm import DMRuntime
from repro.streams.memory import StreamMemory
from repro.streams.ops import rand_op, seq_op

_NO_BUCKET = np.iinfo(np.int64).max // 2

PUSH = "push"
PULL = "pull"


@dataclass
class DMSSSPResult:
    variant: str
    dist: np.ndarray
    time: float
    counters: PerfCounters
    epochs: int = 0
    inner_iterations: int = 0
    messages: int = 0


def dm_sssp_delta(g: CSRGraph, rt: DMRuntime, source: int,
                  delta: float | None = None, variant: str = PUSH,
                  max_epochs: int | None = None) -> DMSSSPResult:
    """Distributed Δ-Stepping from ``source``; unweighted edges count 1."""
    if variant not in (PUSH, PULL):
        raise ValueError("variant must be 'push' or 'pull'")
    if not (0 <= source < g.n):
        raise ValueError("source out of range")
    n = g.n
    mem = rt.mem
    off_h = mem.register("dmsssp.offsets", g.offsets)
    adj_h = mem.register("dmsssp.adj", g.adj)
    dist_h = mem.register("dmsssp.dist", n, 8)
    weights = g.weights if g.weights is not None else np.ones(len(g.adj))
    if delta is None:
        delta = float(weights.mean()) if len(weights) else 1.0
    if delta <= 0:
        raise ValueError("delta must be positive")

    dist = np.full(n, np.inf)
    bidx = np.full(n, _NO_BUCKET, dtype=np.int64)
    # checkpointed state for crash rollback under fault injection
    rt.register_window(dist_h, dist)
    rt.register_window("dmsssp.bidx", bidx)
    dist[source] = 0.0
    bidx[source] = 0
    owner = rt.part.owner(np.arange(n, dtype=np.int64))

    start_time = rt.time
    start_counters = rt.total_counters()
    epochs = 0
    inner_total = 0
    b = 0
    limit = max_epochs if max_epochs is not None else 4 * n + 16

    def _apply_relaxations(pairs: list[tuple[np.ndarray, np.ndarray]],
                           bucket: int) -> np.ndarray:
        """Min-combine candidate (target, value) pairs; return refills."""
        refills = []
        for tgt, val in pairs:
            if len(tgt) == 0:
                continue
            mem.read(dist_h, idx=tgt, mode="rand")
            improving = val < dist[tgt]
            t2, v2 = tgt[improving], val[improving]
            if len(t2) == 0:
                continue
            np.minimum.at(dist, t2, v2)
            mem.write(dist_h, idx=t2, mode="rand")
            changed = unique_ids(t2)
            new_b = np.floor(dist[changed] / delta).astype(np.int64)
            bidx[changed] = new_b
            back = changed[new_b == bucket]
            if len(back):
                refills.append(back)
        return (unique_ids(np.concatenate(refills))
                if refills else np.empty(0, dtype=np.int64))

    while epochs < limit:
        pending = bidx[bidx < _NO_BUCKET]
        pending = pending[pending >= b]
        if len(pending) == 0:
            break
        b = int(pending.min())
        epochs += 1
        active_mask = bidx == b

        while active_mask.any():
            inner_total += 1
            if variant == PUSH:
                # superstep 1: owners of active vertices batch candidates
                # per destination rank and send one message per rank pair
                local_pairs: dict[int, list] = {}

                def relax_out(p: int) -> None:
                    vs = rt.owned(p)
                    act = vs[active_mask[vs]]
                    if len(act) == 0:
                        return
                    batches: dict[int, list] = {}
                    for v in act:
                        o0, o1 = int(g.offsets[v]), int(g.offsets[v + 1])
                        nbrs = g.adj[o0:o1]
                        mem.read(off_h, idx=int(v), count=2, mode="rand")
                        mem.read(adj_h, start=o0, count=o1 - o0)
                        cand = dist[v] + weights[o0:o1]
                        mem.flop(o1 - o0)
                        for q in range(rt.P):
                            sel = owner[nbrs] == q
                            if not sel.any():
                                continue
                            batches.setdefault(q, []).append(
                                (nbrs[sel].astype(np.int64), cand[sel]))
                    for q, parts in batches.items():
                        tgt = np.concatenate([t for t, _ in parts])
                        val = np.concatenate([v for _, v in parts])
                        if q == p:
                            local_pairs.setdefault(p, []).append((tgt, val))
                        else:
                            rt.send(q, (tgt, val), nbytes=16 * len(tgt),
                                    tag="relax")

                rt.superstep(relax_out)

                # superstep 2: apply local + received candidates
                refill = np.zeros(n, dtype=bool)

                def apply_in(p: int) -> None:
                    pairs = list(local_pairs.get(p, []))
                    pairs.extend(payload for _, payload in rt.inbox("relax"))
                    back = _apply_relaxations(pairs, b)
                    refill[back] = True

                rt.superstep(apply_in)
                active_mask = refill

            else:  # PULL: request/reply per inner iteration
                # superstep 1: owners of unsettled vertices request the
                # state of remote neighbors

                def request_out(p: int) -> None:
                    vs = rt.owned(p)
                    mem.read(dist_h, count=len(vs), mode="seq")
                    unsettled = vs[dist[vs] > b * delta]
                    if len(unsettled) == 0:
                        return
                    pos = gather_edge_positions(g.offsets, unsettled)
                    nbrs = unique_ids(g.adj[pos])
                    mem.read(off_h, idx=unsettled, count=len(unsettled) + 1,
                             mode="rand")
                    mem.read(adj_h, count=len(pos), mode="seq")
                    for q in range(rt.P):
                        if q == p:
                            continue
                        ask = nbrs[owner[nbrs] == q]
                        if len(ask):
                            # MPI-style tag: the reply superstep reads
                            # requests while replies are already in
                            # flight; the tag tells them apart (and the
                            # epoch checker relies on the distinction)
                            rt.send(q, (p, ask), nbytes=8 * len(ask),
                                    tag="req")

                rt.superstep(request_out)

                # superstep 2: owners reply with (dist, bucket) of the
                # requested vertices
                def reply(p: int) -> None:
                    for _, payload in rt.inbox("req"):
                        requester, ids = payload
                        mem.read(dist_h, idx=ids, mode="rand")
                        rt.send(requester, (ids, dist[ids].copy(),
                                            bidx[ids].copy()),
                                nbytes=24 * len(ids), tag="rep")

                rt.superstep(reply)

                # superstep 3: relax locally using replies + local state
                refill = np.zeros(n, dtype=bool)

                def relax_local(p: int) -> None:
                    replies = [payload for _, payload in rt.inbox("rep")]
                    vs = rt.owned(p)
                    unsettled = vs[dist[vs] > b * delta]
                    if len(unsettled) == 0:
                        return
                    pos = gather_edge_positions(g.offsets, unsettled)
                    nbrs = g.adj[pos].astype(np.int64)
                    own = owner[nbrs] == p
                    sw = _PullSweep(g.offsets, unsettled, nbrs, own,
                                    weights[pos], replies, dist, bidx, b)
                    written, flops = sw.run(delta)
                    back = unsettled[written]
                    refill[back[bidx[back] == b]] = True
                    k = len(unsettled)
                    StreamMemory(mem).replay([
                        rand_op("read", off_h, idx=unsettled,
                                seg=np.arange(k + 1, dtype=np.int64),
                                counts=np.full(k, 2, dtype=np.int64)),
                        seq_op("read", adj_h, counts=np.diff(sw.seg),
                               starts=g.offsets[unsettled]),
                        # one scalar call per owned neighbour, in its
                        # reader's slot
                        rand_op("read", dist_h, idx=nbrs[own],
                                seg=np.arange(int(own.sum()) + 1,
                                              dtype=np.int64),
                                groups=sw.slot[own]),
                        rand_op("write", dist_h, idx=back,
                                seg=np.arange(len(back) + 1, dtype=np.int64),
                                groups=written),
                    ], interleave=True)
                    mem.branch_cond(len(nbrs))
                    mem.flop(flops)

                rt.superstep(relax_local)
                active_mask = refill

        b += 1

    c = rt.total_counters() - start_counters
    return DMSSSPResult(
        variant=variant,
        dist=dist,
        time=rt.time - start_time,
        counters=c,
        epochs=epochs,
        inner_iterations=inner_total,
        messages=c.messages,
    )


class _PullSweep:
    """One rank's ``relax_local`` sweep, computed array-at-a-time.

    The interpreted sweep visits the rank's unsettled vertices in
    ascending order, and each vertex reads the (dist, bucket) of its
    owned neighbours *as earlier vertices of the same sweep left them*
    (Gauss-Seidel).  The constructor evaluates every vertex against the
    pre-sweep state instead (Jacobi): ``best[k]`` and the in-bucket
    mask ``inb`` whose count is the flop count.  :meth:`run` repairs
    that pass exactly, see there.
    """

    def __init__(self, offsets: np.ndarray, unsettled: np.ndarray,
                 nbrs: np.ndarray, own: np.ndarray, w: np.ndarray,
                 replies: list, dist: np.ndarray, bidx: np.ndarray,
                 b: int) -> None:
        self.unsettled, self.dist, self.bidx, self.b = unsettled, dist, bidx, b
        self.nbrs, self.own, self.w = nbrs, own, w
        deg = offsets[unsettled + 1] - offsets[unsettled]
        self.seg = np.r_[0, np.cumsum(deg)]
        self.slot = np.repeat(np.arange(len(unsettled), dtype=np.int64), deg)
        # owned state first, then the last reply for the id (inbox
        # order, as a dict fold keeps it), else the neighbour is unknown
        self.known = known = own.copy()
        self.nd = nd = np.zeros(len(nbrs))
        self.nb = nb = np.zeros(len(nbrs), dtype=np.int64)
        nd[own] = dist[nbrs[own]]
        nb[own] = bidx[nbrs[own]]
        rem = np.flatnonzero(~own)
        if replies and len(rem):
            ids, ds, bs = (np.concatenate(col) for col in zip(*replies))
            order = np.argsort(ids, kind="stable")
            ids, ds, bs = ids[order], ds[order], bs[order]
            last = np.r_[ids[1:] != ids[:-1], True]
            ids, ds, bs = ids[last], ds[last], bs[last]
            j = np.minimum(np.searchsorted(ids, nbrs[rem]), len(ids) - 1)
            hit = ids[j] == nbrs[rem]
            rem, j = rem[hit], j[hit]
            known[rem] = True
            nd[rem], nb[rem] = ds[j], bs[j]
        self.inb = inb = known & (nb == b)
        cand = np.full(len(nbrs), np.inf)
        cand[inb] = nd[inb] + w[inb]
        self.best = best = dist[unsettled].copy()
        nz = deg > 0
        if nz.any():
            best[nz] = np.minimum(best[nz], np.minimum.reduceat(
                cand, self.seg[:-1][nz]))

    def recompute(self, k: int) -> tuple[float, int]:
        """Vertex ``k``'s best distance and flop count from live state."""
        lo, hi = int(self.seg[k]), int(self.seg[k + 1])
        own, nbrs = self.own[lo:hi], self.nbrs[lo:hi]
        nd, nb = self.nd[lo:hi].copy(), self.nb[lo:hi].copy()
        nd[own] = self.dist[nbrs[own]]
        nb[own] = self.bidx[nbrs[own]]
        m = self.known[lo:hi] & (nb == self.b)
        best = self.dist[self.unsettled[k]]
        if m.any():
            best = min(best, (nd[m] + self.w[lo:hi][m]).min())
        return best, int(m.sum())

    def run(self, delta: float) -> tuple[np.ndarray, int]:
        """Apply the sweep's updates to ``dist``/``bidx`` in sweep order;
        return the updated positions (ascending) and the flop count.

        A vertex none of whose earlier owned neighbours was updated
        reads exactly the pre-sweep state, so its Jacobi value is exact
        (clean).  The sweep's first update is therefore a Jacobi
        update.  A heap holds the Jacobi updates plus every vertex
        dirtied so far, popped in ascending position: a dirty vertex is
        recomputed from live state (its flops counted again), a clean
        one takes its Jacobi value, and every update dirties the later
        vertices of the sweep that read it.  Exact for any weights: no
        assumption on how an update moves a bucket.
        """
        unsettled, dist, bidx = self.unsettled, self.dist, self.bidx
        flops = int(self.inb.sum())
        heap = np.flatnonzero(self.best < dist[unsettled]).tolist()
        if not heap:
            return np.empty(0, dtype=np.int64), flops
        # readers[roff[k]:roff[k + 1]]: later sweep positions that read
        # the vertex at position k
        e = np.flatnonzero(self.own)
        j = np.searchsorted(unsettled, self.nbrs[e])
        jc = np.minimum(j, len(unsettled) - 1)
        dep = (unsettled[jc] == self.nbrs[e]) & (j < self.slot[e])
        src = j[dep]
        order = np.argsort(src, kind="stable")
        readers = self.slot[e][dep][order].tolist()
        roff = np.searchsorted(src[order],
                               np.arange(len(unsettled) + 1)).tolist()
        seg, inb = self.seg, self.inb
        dirty = bytearray(len(unsettled))
        written: list[int] = []
        last = -1
        while heap:
            k = heapq.heappop(heap)
            if k == last:
                continue
            last = k
            if dirty[k]:
                best, live = self.recompute(k)
                flops += live - int(inb[seg[k]:seg[k + 1]].sum())
            else:
                best = self.best[k]
            v = int(unsettled[k])
            if best < dist[v]:
                dist[v] = best
                bidx[v] = int(best // delta)
                written.append(k)
                for r in readers[roff[k]:roff[k + 1]]:
                    if not dirty[r]:
                        dirty[r] = 1
                        heapq.heappush(heap, r)
        return np.asarray(written, dtype=np.int64), flops
