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

Every inner iteration of the pull variant re-examines the same rows:
``request_out`` and ``relax_local`` both lay out a rank's unsettled
vertices, and the set changes only when a vertex settles or the epoch
advances.  Everything derived from the set and the fixed graph and
partition -- edge positions, int64 neighbours, owned mask, weights,
row offsets, the per-rank request lists, the sweep's readers map -- is
one :class:`_PullRows` per rank, built by :class:`_PullLayouts` once
per set and keyed by the exact id array, so zero-weight settling and
crash rollback (which change or restore the set mid-epoch) get a
layout of their own.  The push body ``relax_out`` is an array pass
too: it gathers a rank's active rows at once, replays their local
traffic (per vertex: the 2-item offset read, then the adjacency range)
as one stream per superstep, and batches the candidates per
destination rank in the order the per-vertex loop first reached each
rank.

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

from repro.algorithms.common import gather_edge_positions, row_offsets
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
    layouts = _PullLayouts(g, owner, weights)

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
                    k = len(act)
                    if k == 0:
                        return
                    starts = g.offsets[act]
                    deg = g.offsets[act + 1] - starts
                    pos = gather_edge_positions(g.offsets, act)
                    nbrs = g.adj[pos].astype(np.int64)
                    cand = np.repeat(dist[act], deg) + weights[pos]
                    # per vertex: the 2-item offset read, then its
                    # adjacency range (none for a zero-degree vertex)
                    StreamMemory(mem).replay([
                        rand_op("read", off_h, idx=act,
                                seg=np.arange(k + 1, dtype=np.int64),
                                counts=np.full(k, 2, dtype=np.int64)),
                        seq_op("read", adj_h, counts=deg, starts=starts),
                    ], interleave=True)
                    mem.flop(len(pos))
                    # one batch per destination rank, in the order the
                    # per-vertex loop first reached each rank: by
                    # vertex, then ascending rank
                    dest = owner[nbrs]
                    first = np.full(rt.P, k, dtype=np.int64)
                    np.minimum.at(first, dest,
                                  np.repeat(np.arange(k, dtype=np.int64), deg))
                    for q in np.argsort(first, kind="stable").tolist():
                        if first[q] == k:
                            break
                        sel = dest == q
                        tgt, val = nbrs[sel], cand[sel]
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
                    lay = layouts.of(p, unsettled)
                    mem.read(off_h, idx=unsettled, count=len(unsettled) + 1,
                             mode="rand")
                    mem.read(adj_h, count=len(lay.pos), mode="seq")
                    for q, ask in lay.asks:
                        # MPI-style tag: the reply superstep reads
                        # requests while replies are already in
                        # flight; the tag tells them apart (and the
                        # epoch checker relies on the distinction)
                        rt.send(q, (p, ask), nbytes=8 * len(ask), tag="req")

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
                    lay = layouts.of(p, unsettled)
                    # the owned neighbours, read in place by the sweep
                    mine = lay.adj[lay.own]
                    sw = _PullSweep(lay, mine, replies, dist, bidx, b)
                    written, flops = sw.run(delta)
                    back = unsettled[written]
                    refill[back[bidx[back] == b]] = True
                    k = len(unsettled)
                    StreamMemory(mem).replay([
                        rand_op("read", off_h, idx=unsettled,
                                seg=np.arange(k + 1, dtype=np.int64),
                                counts=np.full(k, 2, dtype=np.int64)),
                        seq_op("read", adj_h, counts=lay.deg,
                               starts=lay.starts),
                        # one scalar call per owned neighbour, in its
                        # reader's slot
                        rand_op("read", dist_h, idx=mine,
                                seg=np.arange(len(lay.own_slot) + 1,
                                              dtype=np.int64),
                                groups=lay.own_slot),
                        rand_op("write", dist_h, idx=back,
                                seg=np.arange(len(back) + 1, dtype=np.int64),
                                groups=written),
                    ], interleave=True)
                    mem.branch_cond(len(lay.adj))
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


class _PullRows:
    """One rank's row layout of an unsettled vertex set (pull variant).

    Everything ``request_out`` and ``relax_local`` derive from the set
    ``ids`` (ascending) and the fixed graph and partition: each row's
    first adjacency position ``starts`` and degree ``deg``, the edge
    positions ``pos``, the weights ``w``, the row offsets ``seg`` and
    each edge's row ``slot``; ``adj``, the rows' adjacency entries as
    int64 (named like ``CSRGraph.adj``, whose entries the static pass
    reads as neighbour ids); the owned mask ``own`` with the owned
    entries' rows ``own_slot``, and the positions ``rem`` and ids
    ``rem_adj`` of the remote entries; ``asks``, the distinct remote
    neighbours per owner rank, ascending, as ``(rank, ids)``; and,
    built on first use, the sweep's readers map (:meth:`readers`).
    """

    def __init__(self, g: CSRGraph, owner: np.ndarray, weights: np.ndarray,
                 p: int, ids: np.ndarray) -> None:
        self.ids = ids
        self.starts = g.offsets[ids]
        self.deg = deg = g.offsets[ids + 1] - self.starts
        self.pos = pos = gather_edge_positions(g.offsets, ids)
        adj = g.adj[pos]
        self.adj = adj.astype(np.int64)
        self.own = own = owner[self.adj] == p
        self.rem = np.flatnonzero(~own)
        self.rem_adj = self.adj[self.rem]
        self.w = weights[pos]
        self.seg = seg = row_offsets(deg)
        self.slot = np.repeat(np.arange(len(ids), dtype=np.int64), deg)
        self.own_slot = self.slot[own]
        # the rows that have edges, and where each one starts
        self.nz = nz = deg > 0
        self.heads = seg[:-1][nz]
        asks = unique_ids(adj)
        at = owner[asks]
        self.asks = [(q, asks[at == q]) for q in unique_ids(at).tolist()
                     if q != p]
        self._readers: tuple[list, list] | None = None

    def readers(self) -> tuple[list, list]:
        """``(readers, roff)``: ``readers[roff[k]:roff[k + 1]]`` are the
        later sweep positions that read the vertex at position ``k``
        (through an owned edge)."""
        if self._readers is None:
            ids, k = self.ids, len(self.ids)
            e = np.flatnonzero(self.own)
            nbrs = self.adj[e]
            j = np.searchsorted(ids, nbrs)
            jc = np.minimum(j, k - 1)
            dep = (ids[jc] == nbrs) & (j < self.slot[e])
            src = j[dep]
            order = np.argsort(src, kind="stable")
            self._readers = (self.slot[e][dep][order].tolist(),
                             np.searchsorted(src[order],
                                             np.arange(k + 1)).tolist())
        return self._readers


class _PullLayouts:
    """Each rank's :class:`_PullRows`, rebuilt only when its unsettled
    set changes.  The key is the exact id array, so a set that shrank
    (a vertex settled, the epoch advanced) or that crash rollback
    restored gets the layout of that set."""

    def __init__(self, g: CSRGraph, owner: np.ndarray,
                 weights: np.ndarray) -> None:
        self.g, self.owner, self.weights = g, owner, weights
        self._last: dict[int, _PullRows] = {}

    def of(self, p: int, ids: np.ndarray) -> _PullRows:
        """Rank ``p``'s layout of the unsettled set ``ids``."""
        lay = self._last.get(p)
        if (lay is None or len(lay.ids) != len(ids)
                or not (lay.ids == ids).all()):
            lay = self._last[p] = _PullRows(self.g, self.owner,
                                            self.weights, p, ids)
        return lay


class _PullSweep:
    """One rank's ``relax_local`` sweep, computed array-at-a-time.

    The interpreted sweep visits the rank's unsettled vertices in
    ascending order, and each vertex reads the (dist, bucket) of its
    owned neighbours *as earlier vertices of the same sweep left them*
    (Gauss-Seidel).  The constructor evaluates every vertex against the
    pre-sweep state instead (Jacobi): ``best[k]`` and the in-bucket
    mask ``inb`` whose count is the flop count.  :meth:`run` repairs
    that pass exactly, see there.  ``mine`` is ``rows.adj[rows.own]``,
    the owned neighbours ``relax_local`` also reads ``dist`` at.
    """

    def __init__(self, rows: _PullRows, mine: np.ndarray, replies: list,
                 dist: np.ndarray, bidx: np.ndarray, b: int) -> None:
        self.rows, self.dist, self.bidx, self.b = rows, dist, bidx, b
        own, rem, m = rows.own, rows.rem, len(rows.adj)
        # owned state first, then the last reply for the id (inbox
        # order, as a dict fold keeps it), else the neighbour is unknown
        self.known = known = own.copy()
        self.nd = nd = np.zeros(m)
        self.nb = nb = np.zeros(m, dtype=np.int64)
        nd[own] = dist[mine]
        nb[own] = bidx[mine]
        if replies and len(rem):
            ids, ds, bs = (np.concatenate(col) for col in zip(*replies))
            order = np.argsort(ids, kind="stable")
            ids, ds, bs = ids[order], ds[order], bs[order]
            last = np.ones(len(ids), dtype=bool)
            np.not_equal(ids[1:], ids[:-1], out=last[:-1])
            ids, ds, bs = ids[last], ds[last], bs[last]
            j = np.minimum(np.searchsorted(ids, rows.rem_adj), len(ids) - 1)
            hit = ids[j] == rows.rem_adj
            rem, j = rem[hit], j[hit]
            known[rem] = True
            nd[rem], nb[rem] = ds[j], bs[j]
        self.inb = inb = known & (nb == b)
        cand = np.full(m, np.inf)
        cand[inb] = nd[inb] + rows.w[inb]
        self.best = best = dist[rows.ids]
        if len(rows.heads):
            best[rows.nz] = np.minimum(best[rows.nz], np.minimum.reduceat(
                cand, rows.heads))

    def recompute(self, k: int) -> tuple[float, int]:
        """Vertex ``k``'s best distance and flop count from live state."""
        rows = self.rows
        lo, hi = int(rows.seg[k]), int(rows.seg[k + 1])
        own, nbrs = rows.own[lo:hi], rows.adj[lo:hi]
        nd, nb = self.nd[lo:hi].copy(), self.nb[lo:hi].copy()
        nd[own] = self.dist[nbrs[own]]
        nb[own] = self.bidx[nbrs[own]]
        m = self.known[lo:hi] & (nb == self.b)
        best = self.dist[rows.ids[k]]
        if m.any():
            best = min(best, (nd[m] + rows.w[lo:hi][m]).min())
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
        unsettled, dist, bidx = self.rows.ids, self.dist, self.bidx
        flops = int(self.inb.sum())
        heap = np.flatnonzero(self.best < dist[unsettled]).tolist()
        if not heap:
            return np.empty(0, dtype=np.int64), flops
        readers, roff = self.rows.readers()
        seg, inb = self.rows.seg, self.inb
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
                flops += live - int(np.count_nonzero(inb[seg[k]:seg[k + 1]]))
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
