"""Push- and pull-based Prim MST (the Section-3.7 technical-report extension).

The paper focuses on Borůvka because "the classical sequential
algorithms Prim and Kruskal lack parallelism", deferring their push/pull
treatment to the technical report.  Prim's parallelizable piece is the
*key update* after a vertex u joins the tree, and it exhibits exactly
the dichotomy:

* **push**: u's owner walks N(u) and lowers the keys of non-tree
  neighbors -- remote (key, parent) writes, one CAS-min per improving
  edge, O(d(u)) work per round;
* **pull**: every non-tree vertex checks *itself* whether u is among
  its neighbors (one binary search in its own sorted list) and lowers
  its own key locally -- zero conflicts but Θ(remaining) probes per
  round, the familiar read-heavy pull profile.

The minimum-key selection per round is a parallel reduction over owned
blocks in both variants.  Per-component restarts make the result a
minimum spanning forest, validated against Kruskal/networkx.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.common import (
    PUSH, AlgoResult, GraphArrays, check_direction,
)
from repro.graph.csr import CSRGraph
from repro.runtime.sm import SMRuntime


@dataclass
class PrimResult(AlgoResult):
    edges: list = field(default_factory=list)
    total_weight: float = 0.0
    rounds: int = 0


def prim_mst(g: CSRGraph, rt: SMRuntime, direction: str = PUSH) -> PrimResult:
    """Minimum spanning forest via Prim with push/pull key updates."""
    check_direction(direction)
    mem = rt.mem
    ga = GraphArrays(mem, g)
    n = g.n
    weights = g.weights if g.weights is not None else np.ones(len(g.adj))
    wgt_h = ga.wgt or mem.register("prim.unit_weights", weights)

    key = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    in_tree = np.zeros(n, dtype=bool)
    key_h = mem.register("prim.key", key)
    par_h = mem.register("prim.parent", parent)
    tree_h = mem.register("prim.in_tree", n, 1)

    start_time = rt.time
    start_counters = rt.total_counters()
    edges: list[tuple[int, int]] = []
    total_weight = 0.0
    rounds = 0

    # deterministic per-component restarts: lowest-id unreached vertex
    next_root = 0
    best_per_thread = np.full((rt.P, 2), np.inf)  # (key, vertex)

    while True:
        # ---- select the minimum-key non-tree vertex (parallel reduction)
        def select_body(t: int, vs: np.ndarray) -> None:
            if len(vs) == 0:
                best_per_thread[t] = (np.inf, np.inf)
                return
            mem.read(tree_h, start=int(vs[0]), count=len(vs))
            mem.read(key_h, start=int(vs[0]), count=len(vs))
            mem.branch_cond(len(vs))
            cand = vs[~in_tree[vs]]
            if len(cand) == 0 or not np.isfinite(key[cand]).any():
                best_per_thread[t] = (np.inf, np.inf)
                return
            i = int(np.argmin(key[cand]))
            best_per_thread[t] = (key[cand[i]], cand[i])

        rt.for_each_thread(select_body)
        t_best = int(np.argmin(best_per_thread[:, 0]))
        if np.isinf(best_per_thread[t_best, 0]):
            # no fringe vertex: start a new component (or finish)
            while next_root < n and in_tree[next_root]:
                next_root += 1
            if next_root >= n:
                break
            u = next_root
            key[u] = 0.0
        else:
            u = int(best_per_thread[t_best, 1])
            edges.append((min(u, int(parent[u])), max(u, int(parent[u]))))
            total_weight += float(key[u])
        # master-step tree marking runs as a traced sequential region:
        # outside one, the store would be invisible to checkpoint
        # rollback and counter reconciliation (ANL006).  So does the
        # push key update's read of u's neighbor-list bounds.
        def mark_root(u: int = u) -> None:
            in_tree[u] = True
            mem.write(tree_h, idx=u, mode="rand")
            if direction == PUSH:
                mem.read(ga.off, idx=u, count=2, mode="rand")

        rt.sequential(mark_root)
        rounds += 1

        # ---- key update ------------------------------------------------------
        o0, o1 = int(g.offsets[u]), int(g.offsets[u + 1])
        nbrs = g.adj[o0:o1]
        wts = weights[o0:o1]
        if direction == PUSH:
            def update_body(t: int, chunk: np.ndarray) -> None:
                # chunk indexes into u's neighbor list ([in par] over N(u))
                if len(chunk) == 0:
                    return
                mem.read(ga.adj, start=o0 + int(chunk[0]), count=len(chunk))
                mem.read(wgt_h, start=o0 + int(chunk[0]), count=len(chunk))
                ws = nbrs[chunk]
                mem.read(tree_h, idx=ws, mode="rand")
                mem.read(key_h, idx=ws, mode="rand")
                mem.branch_cond(len(chunk))
                improving = (~in_tree[ws]) & (wts[chunk] < key[ws])
                tgt = ws[improving]
                if len(tgt) == 0:
                    return
                # remote (key, parent) update: CAS-min per improving edge.
                # Each neighbor w appears once in N(u) and the chunks
                # partition N(u), so parent writers never collide.
                # effects: disjoint-writers prim.parent
                mem.cas(key_h, idx=tgt, mode="rand")
                mem.write(par_h, idx=tgt, mode="rand")
                np.minimum.at(key, tgt, wts[chunk][improving])
                changed = wts[chunk][improving] <= key[tgt]
                parent[tgt[changed]] = u

            rt.parallel_for(np.arange(len(nbrs)), update_body)
        else:
            def update_body(t: int, vs: np.ndarray) -> None:
                if len(vs) == 0:
                    return
                mem.read(tree_h, start=int(vs[0]), count=len(vs))
                mem.branch_cond(len(vs))
                fringe = vs[~in_tree[vs]]
                for v in fringe:
                    vo0, vo1 = int(g.offsets[v]), int(g.offsets[v + 1])
                    dv = vo1 - vo0
                    mem.read(ga.off, idx=int(v), count=2, mode="rand")
                    if dv == 0:
                        continue
                    # binary search for u in the own sorted neighbor list
                    probes = max(1, int(np.log2(max(dv, 2))))
                    mem.read(ga.adj, count=probes, mode="rand",
                             start=vo0)
                    mem.branch_cond(probes)
                    i = int(np.searchsorted(g.adj[vo0:vo1], u))
                    if i >= dv or g.adj[vo0 + i] != u:
                        continue
                    w = float(weights[vo0 + i])
                    mem.read(wgt_h, idx=vo0 + i, mode="rand")
                    if w < key[v]:
                        rt.owned_write_check(int(v))
                        key[v] = w
                        parent[v] = u
                        mem.write(key_h, idx=int(v), mode="rand")
                        mem.write(par_h, idx=int(v), mode="rand")

            rt.for_each_thread(update_body)

    return PrimResult(
        direction=direction,
        time=rt.time - start_time,
        counters=rt.total_counters() - start_counters,
        iterations=rounds,
        edges=sorted(edges),
        total_weight=total_weight,
        rounds=rounds,
    )
