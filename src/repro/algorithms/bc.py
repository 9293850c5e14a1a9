"""Push- and pull-based Betweenness Centrality (Brandes; Algorithm 5).

Two phases per source vertex (both instances of the generalized BFS of
Algorithm 3):

* **forward**: level-synchronized BFS counting shortest paths
  (``sigma``).  Pushing accumulates ``sigma[v]`` into successors --
  remote *float* adds, hence locks; pulling has every newly-reached
  vertex sum its parents' sigmas locally.
* **backward**: dependency accumulation from the deepest level upward,
  ``delta[v] += sigma[v]/sigma[w] * (1 + delta[w])`` over tree edges.
  Pushing writes predecessors' float deltas under locks; pulling walks
  *successor* sets (the Madduri et al. [39] inversion the paper cites)
  and only writes locally.

Section 4.9's conclusion -- the push/pull difference in BC is the
*type* of conflict (float locks vs. integer/no atomics) -- is directly
visible in the counter output.

Sources may be sampled (``sources=k`` or an explicit list); the
approximation follows Bader et al. [2], and the exact variant is used
for oracle comparisons in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.common import (
    PULL, PUSH, AlgoResult, GraphArrays, check_direction, gather_edge_positions,
)
from repro.graph.builder import unique_ids
from repro.graph.csr import CSRGraph
from repro.runtime.sm import SMRuntime


@dataclass
class BCResult(AlgoResult):
    bc: np.ndarray = None
    forward_time: float = 0.0     #: simulated time of all forward sweeps
    backward_time: float = 0.0    #: simulated time of all backward sweeps
    n_sources: int = 0


def betweenness_centrality(g: CSRGraph, rt: SMRuntime, direction: str = PULL,
                           sources=None, seed: int = 0) -> BCResult:
    """Brandes BC on the simulated runtime.

    ``sources``: None = all vertices (exact); an int = that many
    sampled sources; an iterable = explicit source list.
    """
    check_direction(direction)
    mem = rt.mem
    ga = GraphArrays(mem, g)
    n = g.n
    if sources is None:
        src_list = np.arange(n)
    elif np.isscalar(sources):
        rng = np.random.default_rng(seed)
        src_list = rng.choice(n, size=min(int(sources), n), replace=False)
    else:
        src_list = np.asarray(list(sources), dtype=np.int64)

    bc = np.zeros(n)
    sigma = np.zeros(n)
    delta = np.zeros(n)
    level = np.full(n, -1, dtype=np.int64)
    bc_h = mem.register("bc.bc", bc)
    sigma_h = mem.register("bc.sigma", sigma)
    delta_h = mem.register("bc.delta", delta)
    level_h = mem.register("bc.level", level)

    start_time = rt.time
    start_counters = rt.total_counters()
    fwd_time = 0.0
    bwd_time = 0.0

    for s in src_list:
        sigma[:] = 0.0
        delta[:] = 0.0
        level[:] = -1
        sigma[s] = 1.0
        level[s] = 0

        t0 = rt.time
        levels = _forward(g, rt, mem, ga, int(s), sigma, level, sigma_h,
                          level_h, direction)
        fwd_time += rt.time - t0

        t0 = rt.time
        _backward(g, rt, mem, ga, sigma, delta, level, levels, sigma_h,
                  delta_h, level_h, direction)
        bwd_time += rt.time - t0

        # accumulate bc += delta on owned blocks (always local)
        def acc_body(t: int, vs: np.ndarray) -> None:
            if len(vs) == 0:
                return
            mask = (level[vs] > 0)
            bc[vs[mask]] += delta[vs[mask]]
            mem.read(delta_h, start=int(vs[0]), count=len(vs))
            mem.read(bc_h, start=int(vs[0]), count=len(vs))
            mem.write(bc_h, start=int(vs[0]), count=len(vs))
            mem.flop(len(vs))

        rt.for_each_thread(acc_body)

    if not g.directed:
        bc /= 2.0

    return BCResult(
        direction=direction,
        time=rt.time - start_time,
        counters=rt.total_counters() - start_counters,
        iterations=len(src_list),
        bc=bc,
        forward_time=fwd_time,
        backward_time=bwd_time,
        n_sources=len(src_list),
    )


def _forward(g, rt, mem, ga, s: int, sigma, level, sigma_h, level_h,
             direction: str) -> int:
    """Level-synchronized sigma-counting BFS; returns the deepest level."""
    frontier = np.array([s], dtype=np.int64)
    cur = 0
    while len(frontier):
        nxt_frags: list[np.ndarray] = []
        if direction == PUSH:
            def body(t: int, vs: np.ndarray) -> None:
                pos = gather_edge_positions(g.offsets, vs)
                if len(vs):
                    mem.read(ga.off, idx=vs, count=len(vs) + 1, mode="rand")
                    mem.read(sigma_h, idx=vs, mode="rand")
                if len(pos) == 0:
                    return
                nbrs = g.adj[pos]
                srcs = np.repeat(vs, g.offsets[vs + 1] - g.offsets[vs])
                mem.read(ga.adj, count=len(nbrs), mode="seq")
                mem.read(level_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                fresh_mask = level[nbrs] < 0
                fresh = unique_ids(nbrs[fresh_mask])
                if len(fresh):
                    # claim with integer CAS
                    mem.cas(level_h, idx=nbrs[fresh_mask], successes=len(fresh),
                            mode="rand")
                    level[fresh] = cur + 1
                    nxt_frags.append(fresh)
                tree = level[nbrs] == cur + 1
                if tree.any():
                    # float accumulation into successors: lock per edge
                    tgt = nbrs[tree]
                    mem.lock(sigma_h, idx=tgt, mode="rand")
                    mem.write(sigma_h, idx=tgt, mode="rand")
                    np.add.at(sigma, tgt, sigma[srcs[tree]])
                    mem.flop(int(tree.sum()))

            rt.parallel_for(frontier, body, by_owner=True)
        else:
            def body(t: int, vs: np.ndarray) -> None:
                if len(vs) == 0:
                    return
                mem.read(level_h, start=int(vs[0]), count=len(vs))
                mem.branch_cond(len(vs))
                unvisited = vs[level[vs] < 0]
                pos = gather_edge_positions(g.offsets, unvisited)
                if len(pos) == 0:
                    return
                nbrs = g.adj[pos]
                owners = np.repeat(unvisited,
                                   g.offsets[unvisited + 1] - g.offsets[unvisited])
                mem.read(ga.off, idx=unvisited, count=len(unvisited) + 1,
                         mode="rand")
                mem.read(ga.adj, count=len(nbrs), mode="seq")
                mem.read(level_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                parent_mask = level[nbrs] == cur
                if not parent_mask.any():
                    return
                mem.read(sigma_h, idx=nbrs[parent_mask], mode="rand")
                contrib = np.zeros(g.n)
                np.add.at(contrib, owners[parent_mask], sigma[nbrs[parent_mask]])
                reached = unique_ids(owners[parent_mask])
                rt.owned_write_check(reached)
                level[reached] = cur + 1
                sigma[reached] = contrib[reached]
                mem.write(level_h, idx=reached, mode="rand")
                mem.write(sigma_h, idx=reached, mode="rand")
                mem.flop(int(parent_mask.sum()))
                nxt_frags.append(reached)

            rt.for_each_thread(body)
        frontier = (unique_ids(np.concatenate(nxt_frags))
                    if nxt_frags else np.empty(0, dtype=np.int64))
        cur += 1
    return cur - 1


def _backward(g, rt, mem, ga, sigma, delta, level, max_level: int,
              sigma_h, delta_h, level_h, direction: str) -> None:
    """Dependency accumulation from the deepest level up."""
    # vertices grouped by level once (the tree structure is known)
    for lev in range(max_level, 0, -1):
        if direction == PUSH:
            layer = np.flatnonzero(level == lev)

            def body(t: int, vs: np.ndarray) -> None:
                pos = gather_edge_positions(g.offsets, vs)
                if len(vs):
                    mem.read(ga.off, idx=vs, count=len(vs) + 1, mode="rand")
                    mem.read(sigma_h, idx=vs, mode="rand")
                    mem.read(delta_h, idx=vs, mode="rand")
                if len(pos) == 0:
                    return
                nbrs = g.adj[pos]
                srcs = np.repeat(vs, g.offsets[vs + 1] - g.offsets[vs])
                mem.read(ga.adj, count=len(nbrs), mode="seq")
                mem.read(level_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                pred = level[nbrs] == lev - 1
                if not pred.any():
                    return
                tgt, ws = nbrs[pred], srcs[pred]
                mem.read(sigma_h, idx=tgt, mode="rand")
                vals = sigma[tgt] / sigma[ws] * (1.0 + delta[ws])
                # remote float adds: one lock per tree edge
                mem.lock(delta_h, idx=tgt, mode="rand")
                mem.write(delta_h, idx=tgt, mode="rand")
                np.add.at(delta, tgt, vals)
                mem.flop(3 * int(pred.sum()))

            rt.parallel_for(layer, body, by_owner=True)
        else:
            layer = np.flatnonzero(level == lev - 1)

            def body(t: int, vs: np.ndarray) -> None:
                mine = vs[level[vs] == lev - 1] if len(vs) else vs
                pos = gather_edge_positions(g.offsets, mine)
                if len(mine):
                    mem.read(level_h, start=int(vs[0]), count=len(vs))
                    mem.read(ga.off, idx=mine, count=len(mine) + 1, mode="rand")
                if len(pos) == 0:
                    return
                nbrs = g.adj[pos]
                owners = np.repeat(mine, g.offsets[mine + 1] - g.offsets[mine])
                mem.read(ga.adj, count=len(nbrs), mode="seq")
                mem.read(level_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                succ = level[nbrs] == lev
                if not succ.any():
                    return
                u = nbrs[succ]
                mem.read(sigma_h, idx=u, mode="rand")
                mem.read(delta_h, idx=u, mode="rand")
                ratios = (1.0 + delta[u]) / sigma[u]
                acc = np.zeros(g.n)
                np.add.at(acc, owners[succ], ratios)
                touched = unique_ids(owners[succ])
                rt.owned_write_check(touched)
                delta[touched] += sigma[touched] * acc[touched]
                mem.write(delta_h, idx=touched, mode="rand")
                mem.flop(3 * int(succ.sum()))

            # only threads owning level-(lev-1) vertices do work, but the
            # pull sweep still runs owner-computes over all blocks
            rt.parallel_for(layer, body, by_owner=True)
