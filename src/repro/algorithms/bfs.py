"""Push- (top-down) and pull- (bottom-up) based BFS (Algorithm 3).

* **push / top-down**: every frontier vertex scans its neighbors and
  claims the unvisited ones with a CAS on the parent slot -- O(m) total
  edge scans, O(m) CAS attempts, plus a k-filter (frontier merge) per
  level.
* **pull / bottom-up**: every *unvisited* vertex scans its own
  neighbors looking for a parent in the current frontier and stops at
  the first hit -- no atomics at all (only t[v] writes v), but every
  level re-touches all unvisited vertices, giving the O(D·m) read bound
  of Section 4.3.

The direction-optimizing switch of Beamer et al. (the paper's [4]) is
implemented in :mod:`repro.strategies.switching` on top of these two.

Vertices carry a level (hop distance) and a parent pointer; both are
validated against the sequential reference and networkx.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.common import (
    PUSH, AlgoResult, GraphArrays, check_direction,
)
from repro.graph.csr import CSRGraph
from repro.runtime.frontier import ThreadLocalFrontiers
from repro.runtime.sm import SMRuntime


@dataclass
class BFSResult(AlgoResult):
    parent: np.ndarray = None        #: parent[v] in the BFS tree; -1 unreached, root its own parent
    level: np.ndarray = None         #: hop distance; -1 unreached
    frontier_sizes: list = field(default_factory=list)
    directions: list = field(default_factory=list)  #: direction used per level


def bfs(g: CSRGraph, rt: SMRuntime, root: int, direction: str = PUSH,
        ) -> BFSResult:
    """Single-direction BFS from ``root`` on the simulated runtime."""
    check_direction(direction)
    state = BFSState(g, rt, root)
    while state.frontier_nonempty():
        state.step(direction)
    return state.result(direction)


class BFSState:
    """Reusable BFS machinery: one level per :meth:`step`, direction chosen
    per call (this is what the direction-optimizing strategy drives)."""

    def __init__(self, g: CSRGraph, rt: SMRuntime, root: int) -> None:
        if not (0 <= root < g.n):
            raise ValueError("root out of range")
        self.g = g
        # pulling scans *incoming* edges (Section 4.8); identical to g
        # for undirected graphs, the transposed CSR otherwise
        self.gin = g.transposed()
        self.rt = rt
        mem = rt.mem
        self.mem = mem
        self.ga = GraphArrays(mem, g)
        self.ga_in = (GraphArrays(mem, self.gin, prefix="gin")
                      if g.directed else self.ga)
        self.parent = np.full(g.n, -1, dtype=np.int64)
        self.level = np.full(g.n, -1, dtype=np.int64)
        self.in_front = np.zeros(g.n, dtype=bool)
        self.parent_h = mem.register("bfs.parent", self.parent)
        self.level_h = mem.register("bfs.level", self.level)
        self.front_h = mem.register("bfs.in_front", g.n, 1)
        self.frontier = np.array([root], dtype=np.int64)
        self.parent[root] = root
        self.level[root] = 0
        self.in_front[root] = True
        self.cur_level = 0
        self.frontier_sizes: list[int] = [1]
        self.iteration_times: list[float] = []
        self.directions: list[str] = []
        self.start_time = rt.time
        self.start_counters = rt.total_counters()

    def frontier_nonempty(self) -> bool:
        return len(self.frontier) > 0

    # -- one level ------------------------------------------------------------
    def step(self, direction: str) -> None:
        check_direction(direction)
        tr = getattr(self.rt, "tracer", None)
        if tr is not None:
            tr.on_frontier(self.cur_level, len(self.frontier), self.g.n)
        self.rt.annotate(f"bfs.{direction}")
        t0 = self.rt.time
        if direction == PUSH:
            nxt = self._step_push()
        else:
            nxt = self._step_pull()
        # frontier bitmap swap: clear the old frontier, set the new one
        self.in_front[:] = False
        self.in_front[nxt] = True
        self.frontier = nxt
        self.cur_level += 1
        self.frontier_sizes.append(len(nxt))
        self.iteration_times.append(self.rt.time - t0)
        self.directions.append(direction)

    def _step_push(self) -> np.ndarray:
        g, rt, mem = self.g, self.rt, self.mem
        my_f = ThreadLocalFrontiers(rt.P)
        parent, level = self.parent, self.level
        nxt_level = self.cur_level + 1

        def body(t: int, vs: np.ndarray) -> None:
            for v in vs:
                o0, o1 = int(g.offsets[v]), int(g.offsets[v + 1])
                mem.read(self.ga.off, idx=int(v), count=2, mode="rand")
                nbrs = g.adj[o0:o1]
                mem.read(self.ga.adj, start=o0, count=o1 - o0)
                mem.read(self.parent_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                fresh = nbrs[parent[nbrs] < 0]
                if len(fresh) == 0:
                    continue
                # claim each unvisited neighbor with a CAS; in the
                # deterministic superstep every attempt succeeds
                # the winning CAS also owns the level store; the claims
                # all target the parent array, so they form the
                # segregated same-array stream the batched-atomic
                # discount models (Section 5 / Table 4)
                mem.cas(self.parent_h, idx=fresh, mode="rand",
                        batched=True, covers=[(self.level_h, fresh)])
                mem.write(self.level_h, idx=fresh, mode="rand")
                parent[fresh] = v
                level[fresh] = nxt_level
                my_f.extend(t, fresh)

        # Algorithm 3's level shape: explore, k-filter the my_Fs into F,
        # one barrier.  The merge runs as its own (serial) phase so its
        # events are attributed to a region instead of landing on an
        # arbitrary thread with no simulated time attached
        rt.parallel_for(self.frontier, body, by_owner=True, barrier=False)
        nxt = np.empty(0, dtype=np.int64)

        def kfilter() -> None:
            nonlocal nxt
            nxt = my_f.merge(mem, handle=self.front_h)
            # the merged frontier is written back as the new bitmap
            if len(nxt):
                mem.write(self.front_h, idx=nxt, mode="rand")

        rt.annotate("bfs.kfilter")
        rt.sequential(kfilter, barrier=False)
        rt.barrier()
        return nxt

    def _step_pull(self) -> np.ndarray:
        g, rt, mem = self.gin, self.rt, self.mem
        my_f = ThreadLocalFrontiers(rt.P)
        parent, level, in_front = self.parent, self.level, self.in_front
        nxt_level = self.cur_level + 1

        def body(t: int, vs: np.ndarray) -> None:
            unvisited = vs[parent[vs] < 0]
            mem.read(self.parent_h, start=int(vs[0]) if len(vs) else 0,
                     count=len(vs))
            mem.branch_cond(len(vs))
            for v in unvisited:
                o0, o1 = int(g.offsets[v]), int(g.offsets[v + 1])
                mem.read(self.ga_in.off, idx=int(v), count=2, mode="rand")
                nbrs = g.adj[o0:o1]
                if len(nbrs) == 0:
                    continue
                flags = in_front[nbrs]
                hit = int(np.argmax(flags)) if flags.any() else -1
                # early exit: only the prefix up to the first hit is scanned
                scanned = (hit + 1) if hit >= 0 else len(nbrs)
                mem.read(self.ga_in.adj, start=o0, count=scanned)
                mem.read(self.front_h, idx=nbrs[:scanned], mode="rand")
                mem.branch_cond(scanned)
                if hit >= 0:
                    w = int(nbrs[hit])
                    rt.owned_write_check(v)
                    parent[v] = w
                    level[v] = nxt_level
                    mem.write(self.parent_h, idx=int(v), mode="rand")
                    mem.write(self.level_h, idx=int(v), mode="rand")
                    my_f.add(t, int(v))

        rt.for_each_thread(body)
        # pulling needs no k-filter: membership was tested per vertex
        return my_f.merge(dedup=False)

    # -- result ------------------------------------------------------------------
    def result(self, label: str) -> BFSResult:
        return BFSResult(
            direction=label,
            time=self.rt.time - self.start_time,
            counters=self.rt.total_counters() - self.start_counters,
            iterations=len(self.iteration_times),
            iteration_times=self.iteration_times,
            parent=self.parent,
            level=self.level,
            frontier_sizes=self.frontier_sizes,
            directions=self.directions,
        )
