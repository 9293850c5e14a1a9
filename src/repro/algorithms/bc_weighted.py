"""Weighted Betweenness Centrality (Section 4.5's SSSP-based variant).

"For directed graphs, SSSP (e.g., Δ-stepping) must be used to compute
each shortest-path tree.  Given the shortest-path tree the partial
centrality scores can be computed via BFS in the same way as for
undirected graphs."

Per source: (1) Δ-Stepping (push or pull -- the same tradeoffs as
Section 4.4) computes distances; (2) a distance-ordered forward sweep
counts path multiplicities over the shortest-path DAG (tree edges are
the tight relaxations ``dist[w] == dist[v] + W(v,w)``); (3) the
backward accumulation pushes partial scores to predecessors (float
locks) or pulls them from successors (local writes), exactly as in the
unweighted :mod:`repro.algorithms.bc`.

Validated against ``networkx.betweenness_centrality(weight=...)``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bc import BCResult
from repro.algorithms.common import (
    PULL, PUSH, GraphArrays, check_direction,
)
from repro.algorithms.sssp_delta import sssp_delta
from repro.graph.csr import CSRGraph
from repro.runtime.sm import SMRuntime


def betweenness_centrality_weighted(
    g: CSRGraph, rt: SMRuntime, direction: str = PULL, sources=None,
    delta: float | None = None, seed: int = 0,
) -> BCResult:
    """Brandes BC over weighted shortest paths, push or pull."""
    check_direction(direction)
    if g.weights is None:
        raise ValueError("weighted BC needs edge weights; "
                         "use repro.algorithms.bc for hop counts")
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
    dlt = np.zeros(n)
    bc_h = mem.register("wbc.bc", bc)
    sigma_h = mem.register("wbc.sigma", sigma)
    delta_h = mem.register("wbc.delta", dlt)
    dist_h = mem.register("wbc.dist.view", n, 8)

    start_time = rt.time
    start_counters = rt.total_counters()
    fwd_time = 0.0
    bwd_time = 0.0
    weights = g.weights

    for s in src_list:
        # ---- phase 1: distances via Δ-Stepping (instrumented) ------------------
        t0 = rt.time
        dist = sssp_delta(g, rt, int(s), delta=delta,
                          direction=direction).dist

        # ---- phase 2: sigma over the shortest-path DAG in distance order ------
        sigma[:] = 0.0
        sigma[s] = 1.0
        reach = np.flatnonzero(np.isfinite(dist))
        order = reach[np.argsort(dist[reach], kind="stable")]

        def sigma_body(t: int, vs: np.ndarray) -> None:
            # vs is a distance-ordered slice; DAG edges only point forward
            for v in vs:
                o0, o1 = int(g.offsets[v]), int(g.offsets[v + 1])
                nbrs = g.adj[o0:o1]
                mem.read(ga.off, idx=int(v), count=2, mode="rand")
                mem.read(ga.adj, start=o0, count=o1 - o0)
                mem.read(dist_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                tight = np.isclose(dist[nbrs], dist[v] + weights[o0:o1])
                if tight.any():
                    tgt = nbrs[tight]
                    # float accumulation into successors: push uses locks,
                    # pull re-derives it below (modeled identically here
                    # since the sweep is sequential-in-distance)
                    mem.lock(sigma_h, idx=tgt, mode="rand") \
                        if direction == PUSH else \
                        mem.read(sigma_h, idx=tgt, mode="rand")
                    mem.write(sigma_h, idx=tgt, mode="rand")
                    sigma[tgt] += sigma[v]
                    mem.flop(int(tight.sum()))

        # process in distance order; correctness needs the order respected,
        # so the sweep runs as one sequential region (the per-source
        # parallelism of Section 4.5 comes from independent sources)
        rt.sequential(lambda: sigma_body(0, order))

        # ---- phase 3: backward accumulation ---------------------------------------
        t1 = rt.time
        fwd_time += t1 - t0
        dlt[:] = 0.0

        def backward() -> None:
            for v in order[::-1]:
                o0, o1 = int(g.offsets[v]), int(g.offsets[v + 1])
                nbrs = g.adj[o0:o1]
                mem.read(ga.off, idx=int(v), count=2, mode="rand")
                mem.read(ga.adj, start=o0, count=o1 - o0)
                mem.read(dist_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                if direction == PUSH:
                    # push partial scores to predecessors (float locks)
                    pred = np.isclose(dist[v], dist[nbrs] + weights[o0:o1])
                    tgt = nbrs[pred]
                    if len(tgt) == 0 or sigma[v] == 0:
                        continue
                    vals = sigma[tgt] / sigma[v] * (1.0 + dlt[v])
                    mem.lock(delta_h, idx=tgt, mode="rand")
                    mem.write(delta_h, idx=tgt, mode="rand")
                    dlt[tgt] += vals
                    mem.flop(3 * len(tgt))
                else:
                    # pull from successors (local writes only)
                    succ = np.isclose(dist[nbrs], dist[v] + weights[o0:o1])
                    u = nbrs[succ]
                    u = u[sigma[u] > 0]
                    if len(u) == 0 or sigma[v] == 0:
                        continue
                    mem.read(sigma_h, idx=u, mode="rand")
                    mem.read(delta_h, idx=u, mode="rand")
                    dlt[v] += float(np.sum(sigma[v] / sigma[u] * (1.0 + dlt[u])))
                    mem.write(delta_h, idx=int(v), mode="rand")
                    mem.flop(3 * len(u))

        rt.sequential(backward)
        bwd_time += rt.time - t1

        def acc_body(t: int, vs: np.ndarray) -> None:
            if len(vs) == 0:
                return
            mask = (vs != s) & np.isfinite(dist[vs])
            bc[vs[mask]] += dlt[vs[mask]]
            mem.read(delta_h, start=int(vs[0]), count=len(vs))
            mem.write(bc_h, start=int(vs[0]), count=len(vs))

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
