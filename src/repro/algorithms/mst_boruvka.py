"""Push- and pull-based Borůvka MST (Algorithm 7).

Every iteration has the three phases the paper's Figure 4 times
separately:

* **FM (Find Minimum)** -- per supervertex, the minimum-weight edge
  leaving it.  Pull: each supervertex scans its members' edges and
  keeps a local minimum (reads only).  Push: scanning supervertices
  *push* candidate edges into the records of the neighboring
  supervertices (CAS-min on remote records); a supervertex's own
  minimum is produced entirely by its neighbors.
* **BMT (Build Merge Tree)** -- resolve the chosen partners into a
  merge forest (2-cycle breaking + pointer jumping).  Push already
  stored the partner flag (``new_flag``) during FM; pull must gather
  ``sv_flag[min_e_w]`` here -- which is why the paper measures push
  *faster* in BMT.
* **M (Merge)** -- relabel members, concatenate member lists, commit
  the chosen edges to the MST.

Ties are broken by (weight, v, w) lexicographic order, making the run
deterministic; the resulting forest weight is validated against
Kruskal/networkx.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.common import (
    PULL, AlgoResult, GraphArrays, check_direction, gather_edge_positions,
)
from repro.graph.csr import CSRGraph
from repro.runtime.sm import SMRuntime


@dataclass
class MSTResult(AlgoResult):
    edges: list = field(default_factory=list)     #: MST edges as (v, w) pairs
    total_weight: float = 0.0
    phase_times: dict = field(default_factory=dict)  #: phase -> per-iteration times


def boruvka_mst(g: CSRGraph, rt: SMRuntime, direction: str = PULL) -> MSTResult:
    """Compute a minimum spanning forest on the simulated runtime."""
    check_direction(direction)
    mem = rt.mem
    ga = GraphArrays(mem, g)
    n = g.n
    weights = g.weights if g.weights is not None else np.ones(len(g.adj))
    wgt_h = ga.wgt or mem.register("mst.unit_weights", weights)

    sv_flag = np.arange(n, dtype=np.int64)
    members: dict[int, np.ndarray] = {v: np.array([v], dtype=np.int64)
                                      for v in range(n)}
    active = np.arange(n, dtype=np.int64)

    INF = np.inf
    min_wgt = np.full(n, INF)
    min_v = np.full(n, -1, dtype=np.int64)
    min_w = np.full(n, -1, dtype=np.int64)
    new_flag = np.full(n, -1, dtype=np.int64)

    flag_h = mem.register("mst.sv_flag", sv_flag)
    minw_h = mem.register("mst.min_wgt", min_wgt)
    rec_h = mem.register("mst.min_rec", 3 * n, 8)  # (v, w, new_flag) records

    mst_edges: set[tuple[int, int]] = set()
    total_weight = 0.0
    phase_times: dict[str, list[float]] = {"FM": [], "BMT": [], "M": []}

    start_time = rt.time
    start_counters = rt.total_counters()
    iterations = 0

    def owner_of_flag(f: np.ndarray):
        return rt.part.owner(f)

    while len(active) > 1:
        iterations += 1

        # reset candidate records for active supervertices
        min_wgt[active] = INF
        min_v[active] = -1
        min_w[active] = -1
        new_flag[active] = -1

        # ---- Phase FM -------------------------------------------------------
        t0 = rt.time
        any_edge = [False]

        def fm_body(t: int, flags: np.ndarray) -> None:
            for f in flags:
                mem_vs = members[int(f)]
                pos = gather_edge_positions(g.offsets, mem_vs)
                mem.read(ga.off, idx=mem_vs, count=len(mem_vs) + 1, mode="rand")
                if len(pos) == 0:
                    continue
                nbrs = g.adj[pos]
                w = weights[pos]
                srcs = np.repeat(mem_vs,
                                 g.offsets[mem_vs + 1] - g.offsets[mem_vs])
                mem.read(ga.adj, count=len(nbrs), mode="seq")
                mem.read(wgt_h, count=len(nbrs), mode="seq")
                mem.read(flag_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                foreign = sv_flag[nbrs] != f
                if not foreign.any():
                    continue
                any_edge[0] = True
                fv, fw, fwgt = srcs[foreign], nbrs[foreign], w[foreign]
                fflag = sv_flag[fw]
                if direction == PULL:
                    # local minimum over candidates; ties broken by the
                    # endpoint-symmetric key (weight, min end, max end) so
                    # both sides of an edge order candidates identically
                    order = np.lexsort((np.maximum(fv, fw),
                                        np.minimum(fv, fw), fwgt))
                    bi = order[0]
                    min_wgt[f] = fwgt[bi]
                    min_v[f] = fv[bi]
                    min_w[f] = fw[bi]
                    # partner flag resolved later (BMT) in pulling
                    mem.write(minw_h, idx=int(f), mode="rand")
                    mem.write(rec_h, idx=int(f), count=2, mode="rand")
                else:
                    # push candidates into each foreign supervertex's record
                    mem.read(minw_h, idx=fflag, mode="rand")  # pre-check
                    better = _lex_better(fwgt, fw, fv, min_wgt[fflag],
                                         min_v[fflag], min_w[fflag])
                    idxs = np.flatnonzero(better)
                    mem.branch_cond(len(fflag))
                    if len(idxs) == 0:
                        continue
                    # the CAS-min claims the record slot too; all claims
                    # hit the min-weight array -> batched-atomic stream
                    mem.cas(minw_h, idx=fflag[idxs], mode="rand",
                            batched=True, covers=[(rec_h, fflag[idxs])])
                    mem.write(rec_h, idx=fflag[idxs], count=3 * len(idxs),
                              mode="rand")
                    for i in idxs:
                        tf = int(fflag[i])
                        if _lex_better_scalar(float(fwgt[i]), int(fw[i]), int(fv[i]),
                                              float(min_wgt[tf]), int(min_v[tf]),
                                              int(min_w[tf])):
                            # the record is (weight, v-in-target, w-in-source):
                            # from the target's perspective the edge endpoint
                            # inside it is fw[i] and the outside one fv[i]
                            min_wgt[tf] = float(fwgt[i])
                            min_v[tf] = int(fw[i])
                            min_w[tf] = int(fv[i])
                            new_flag[tf] = int(f)

        rt.parallel_for(active, fm_body, by_owner=True)
        phase_times["FM"].append(rt.time - t0)
        if not any_edge[0]:
            break

        # ---- Phase BMT -------------------------------------------------------
        t0 = rt.time
        has_edge = active[np.isfinite(min_wgt[active])]

        def bmt_body(t: int, flags: np.ndarray) -> None:
            if len(flags) == 0:
                return
            if direction == PULL:
                # partner = supervertex of the chosen remote endpoint
                mem.read(rec_h, idx=flags, count=len(flags), mode="rand")
                mem.read(flag_h, idx=min_w[flags], mode="rand")
                new_flag[flags] = sv_flag[min_w[flags]]
                mem.write(rec_h, idx=flags, mode="rand")
            else:
                # push stored the partner during FM: a single record read
                mem.read(rec_h, idx=flags, mode="rand")
            mem.branch_cond(len(flags))

        rt.parallel_for(has_edge, bmt_body, by_owner=True)

        # merge-forest resolution: break 2-cycles, then pointer-jump
        parent = np.arange(n, dtype=np.int64)

        def resolve() -> None:
            parent[has_edge] = new_flag[has_edge]
            # 2-cycle rule: the smaller flag of a mutual pair is the root
            mutual = parent[parent[has_edge]] == has_edge
            roots = has_edge[mutual & (has_edge < parent[has_edge])]
            parent[roots] = roots
            jumps = 0
            p = parent
            while True:
                jumps += 1
                nxt = p[p]
                mem.read(flag_h, idx=has_edge, mode="rand")
                mem.write(flag_h, idx=has_edge, mode="rand")
                if np.array_equal(nxt, p) or jumps > 2 * int(np.log2(max(n, 2))) + 4:
                    break
                p = nxt
            parent[:] = p

        rt.sequential(resolve)
        phase_times["BMT"].append(rt.time - t0)

        # ---- Phase M ---------------------------------------------------------
        t0 = rt.time
        new_members: dict[int, list[np.ndarray]] = {}
        for f in active:
            root = int(parent[f])
            new_members.setdefault(root, []).append(members[int(f)])
            if np.isfinite(min_wgt[f]):
                a, b_ = int(min_v[f]), int(min_w[f])
                e = (min(a, b_), max(a, b_))
                if e not in mst_edges:
                    mst_edges.add(e)
                    total_weight += float(min_wgt[f])

        def merge_body(t: int, flags: np.ndarray) -> None:
            for f in flags:
                mem_vs = np.concatenate(new_members[int(f)])
                sv_flag[mem_vs] = f
                mem.write(flag_h, idx=mem_vs, mode="rand")
                mem.read(flag_h, idx=mem_vs, mode="rand")
                members[int(f)] = mem_vs

        roots_arr = np.array(sorted(new_members), dtype=np.int64)
        rt.parallel_for(roots_arr, merge_body, by_owner=True)
        stale = set(int(f) for f in active) - set(int(f) for f in roots_arr)
        for f in stale:
            members.pop(f, None)
        active = roots_arr
        phase_times["M"].append(rt.time - t0)

    return MSTResult(
        direction=direction,
        time=rt.time - start_time,
        counters=rt.total_counters() - start_counters,
        iterations=iterations,
        edges=sorted(mst_edges),
        total_weight=total_weight,
        phase_times=phase_times,
    )


def _lex_better(wgt, w_end, v_end, cur_wgt, cur_v, cur_w):
    """Vectorized improvement test on the endpoint-symmetric edge key
    (weight, min endpoint, max endpoint); strict total order over edges,
    which is what keeps Borůvka's choice graph free of long cycles."""
    lo, hi = np.minimum(w_end, v_end), np.maximum(w_end, v_end)
    cur_lo, cur_hi = np.minimum(cur_v, cur_w), np.maximum(cur_v, cur_w)
    no_cur = cur_v < 0
    better = (wgt < cur_wgt) | no_cur
    eq = (wgt == cur_wgt) & ~no_cur
    better |= eq & (lo < cur_lo)
    better |= eq & (lo == cur_lo) & (hi < cur_hi)
    return better


def _lex_better_scalar(wgt, w_end, v_end, cur_wgt, cur_v, cur_w):
    if cur_v < 0:
        return True
    if wgt != cur_wgt:
        return wgt < cur_wgt
    lo, hi = min(w_end, v_end), max(w_end, v_end)
    cur_lo, cur_hi = min(cur_v, cur_w), max(cur_v, cur_w)
    if lo != cur_lo:
        return lo < cur_lo
    return hi < cur_hi
