"""Distributed-memory BFS with push, pull, and direction switching.

Section 7.2 (MP, point-to-point messages): "In traversals,
pushing-pulling switching offers highest performance [4, 17]."  This
module implements the three variants over the Message-Passing backend:

* **push (top-down)**: owners of frontier vertices send the remote
  targets they discover to the targets' owners -- one batched message
  per rank pair per level, bytes ∝ newly touched cross edges.
* **pull (bottom-up)**: every rank needs the *global* frontier to test
  "is one of my unvisited vertices' neighbors in F?", so each level
  allgathers a frontier bitmap (modeled as the P-message exchange it
  is) and then scans locally with early exit -- one masked first-hit
  pass per rank (:func:`~repro.la.spmv.masked_first_hit`, the SpMSpV
  early exit of the batched SM kernel).  Cheap per level when the
  frontier is huge, wasteful when it is thin.
* **switching**: the Beamer policy of
  :class:`repro.strategies.switching.SwitchPolicy` applied to the DM
  cost structure -- top-down while the frontier is thin, bottom-up at
  the fat middle levels.

Levels are validated against the shared-memory BFS and the
Graph500-style certifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.common import (
    first_hits, gather_edge_positions, gather_rows, row_offsets,
)
from repro.graph.builder import unique_ids
from repro.graph.csr import CSRGraph
from repro.la.spmv import masked_first_hit
from repro.machine.counters import PerfCounters
from repro.runtime.dm import DMRuntime
from repro.strategies.switching import SwitchPolicy
from repro.streams.memory import StreamMemory
from repro.streams.ops import rand_op, seq_op

PUSH = "push"
PULL = "pull"
SWITCHING = "switching"
_VARIANTS = (PUSH, PULL, SWITCHING)


@dataclass
class DMBFSResult:
    variant: str
    level: np.ndarray
    parent: np.ndarray
    time: float
    counters: PerfCounters
    levels: int = 0
    directions: list = field(default_factory=list)
    frontier_sizes: list = field(default_factory=list)


def dm_bfs(g: CSRGraph, rt: DMRuntime, root: int, variant: str = PUSH,
           policy: SwitchPolicy | None = None) -> DMBFSResult:
    """Distributed BFS from ``root`` on the simulated MP machine."""
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}")
    if not (0 <= root < g.n):
        raise ValueError("root out of range")
    policy = policy or SwitchPolicy()
    n = g.n
    mem = rt.mem
    off_h = mem.register("dmbfs.offsets", g.offsets)
    adj_h = mem.register("dmbfs.adj", g.adj)
    par_h = mem.register("dmbfs.parent", n, 8)
    owner = rt.part.owner(np.arange(n, dtype=np.int64))
    degrees = np.diff(g.offsets)
    total_edges = int(degrees.sum())

    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    # checkpointed state for crash rollback under fault injection
    rt.register_window(par_h, parent)
    rt.register_window("dmbfs.level", level)
    parent[root] = root
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    in_front = np.zeros(n, dtype=bool)
    in_front[root] = True

    start_time = rt.time
    start_counters = rt.total_counters()
    directions: list[str] = []
    frontier_sizes: list[int] = [1]
    depth = 0
    explored = int(degrees[root])
    direction = PUSH

    tr = getattr(rt, "tracer", None)
    while len(frontier):
        if tr is not None:
            tr.on_frontier(depth, len(frontier), n,
                           edges=int(degrees[frontier].sum()))
        if variant == SWITCHING:
            fe = int(degrees[frontier].sum())
            previous = direction
            direction = policy.choose(direction, fe, total_edges - explored,
                                      len(frontier), n)
            if tr is not None:
                tr.on_switch(depth, previous, direction, {
                    "frontier_edges": fe,
                    "unexplored_edges": total_edges - explored,
                    "frontier_size": len(frontier),
                    "n": n,
                    "alpha": policy.alpha,
                    "beta": policy.beta,
                })
        else:
            direction = variant
        depth += 1
        rt.annotate(f"bfs.{direction}")
        if direction == PUSH:
            nxt = _level_push(g, rt, mem, off_h, adj_h, par_h, owner,
                              parent, level, frontier, depth)
        else:
            nxt = _level_pull(g, rt, mem, off_h, adj_h, par_h, owner,
                              parent, level, in_front, depth)
        in_front[:] = False
        in_front[nxt] = True
        frontier = nxt
        explored += int(degrees[nxt].sum()) if len(nxt) else 0
        directions.append(direction)
        frontier_sizes.append(len(nxt))

    return DMBFSResult(
        variant=variant,
        level=level,
        parent=parent,
        time=rt.time - start_time,
        counters=rt.total_counters() - start_counters,
        levels=depth,
        directions=directions,
        frontier_sizes=frontier_sizes,
    )


def _level_push(g, rt, mem, off_h, adj_h, par_h, owner, parent, level,
                frontier, depth) -> np.ndarray:
    """Top-down level: discoveries travel to their owners in batches."""
    by_owner = rt.part.group_by_owner(frontier)
    claimed: list[np.ndarray] = []

    def expand(p: int) -> None:
        mine = by_owner[p]
        if len(mine) == 0:
            return
        pos = gather_edge_positions(g.offsets, mine)
        mem.read(off_h, idx=mine, count=len(mine) + 1, mode="rand")
        if len(pos) == 0:
            return
        nbrs = g.adj[pos]
        srcs = np.repeat(mine, g.offsets[mine + 1] - g.offsets[mine])
        mem.read(adj_h, count=len(nbrs), mode="seq")
        fresh = parent[nbrs] < 0
        mem.read(par_h, idx=nbrs[owner[nbrs] == p], mode="rand")
        cand_t, cand_s = nbrs[fresh].astype(np.int64), srcs[fresh]
        for q in range(rt.P):
            sel = owner[cand_t] == q
            if not sel.any():
                continue
            payload = (cand_t[sel], cand_s[sel])
            if q == p:
                claimed.append(_claim(payload, parent, level, depth, mem,
                                      par_h))
            else:
                rt.send(q, payload, nbytes=16 * int(sel.sum()), tag="disc")

    rt.superstep(expand)

    def absorb(p: int) -> None:
        for _, payload in rt.inbox("disc"):
            claimed.append(_claim(payload, parent, level, depth, mem, par_h))

    rt.superstep(absorb)
    if claimed:
        return unique_ids(np.concatenate([c for c in claimed if len(c)]))
    return np.empty(0, dtype=np.int64)


def _claim(payload, parent, level, depth, mem, par_h) -> np.ndarray:
    tgt, src = payload
    mem.read(par_h, idx=tgt, mode="rand")
    fresh = parent[tgt] < 0
    t2 = tgt[fresh]
    if len(t2) == 0:
        return np.empty(0, dtype=np.int64)
    mem.write(par_h, idx=t2, mode="rand")
    parent[t2] = src[fresh]
    level[t2] = depth
    return unique_ids(t2)


def _level_pull(g, rt, mem, off_h, adj_h, par_h, owner, parent, level,
                in_front, depth) -> np.ndarray:
    """Bottom-up level: allgather the frontier bitmap, then scan locally."""
    bitmap_bytes = (g.n + 7) // 8
    found: list[np.ndarray] = []

    def exchange(p: int) -> None:
        # allgather modeled as P-1 bitmap messages per rank
        for q in range(rt.P):
            if q != p:
                rt.send(q, None, nbytes=bitmap_bytes // rt.P + 1,
                        tag="bitmap")

    rt.superstep(exchange)

    def scan(p: int) -> None:
        rt.inbox("bitmap")   # consume the bitmap fragments
        vs = rt.owned(p)
        if len(vs) == 0:
            return
        mem.read(par_h, start=int(vs[0]), count=len(vs), mode="seq")
        unvisited = vs[parent[vs] < 0]
        if len(unvisited) == 0:
            return
        # the per-vertex early-exit scan as one masked first-hit pass
        starts, nbrs, seg = gather_rows(g, unvisited)
        scanned, hits, hit_w = first_hits(
            nbrs, seg, masked_first_hit(in_front[nbrs], seg))
        hit_vs = unvisited[hits]
        StreamMemory(mem).replay([
            rand_op("read", off_h, idx=unvisited,
                    seg=np.arange(len(unvisited) + 1, dtype=np.int64),
                    counts=np.full(len(unvisited), 2, dtype=np.int64)),
            seq_op("read", adj_h, counts=scanned, starts=starts),
            rand_op("write", par_h, idx=hit_vs,
                    seg=row_offsets(hits)),
        ], interleave=True)
        if len(hit_vs):
            parent[hit_vs] = hit_w
            level[hit_vs] = depth
            found.append(hit_vs)

    rt.superstep(scan)
    if found:
        # dedup: a crash-rerun of scan appends its discoveries twice
        return unique_ids(np.concatenate(found))
    return np.empty(0, dtype=np.int64)
