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

Each level body evaluates its thread's block as array passes: the push
step is a CSC SpMSpV whose write-once combining rule
(:func:`~repro.la.spmv.first_claim`) picks the CAS that wins when the
block's vertices run in turn, the pull step the masked first-hit
SpMSpV of Yang, Buluç & Owens (:func:`~repro.la.spmv.masked_first_hit`).
The block's memory traffic is one :class:`~repro.streams.StreamMemory`
stream segmented per vertex: merged into one ``access_batch`` under the
cache simulator, lowered to the per-vertex verb calls under every
memory proxy (race detectors, fault proxy, footprint recorder).
``tests/test_sm_level_bodies.py`` keeps the per-vertex loops and
compares the two after every region.  Both engines run these bodies.

The direction-optimizing switch of Beamer et al. (the paper's [4]) is
implemented in :mod:`repro.strategies.switching` on top of these two.

Vertices carry a level (hop distance) and a parent pointer; both are
validated against the sequential reference and networkx.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.common import (
    PUSH, AlgoResult, GraphArrays, check_direction, first_hits,
    gather_edge_positions, row_offsets,
)
from repro.graph.csr import CSRGraph
from repro.la.spmv import first_claim, masked_first_hit
from repro.runtime.frontier import ThreadLocalFrontiers
from repro.runtime.sm import SMRuntime
from repro.streams.memory import StreamMemory
from repro.streams.ops import concat_ranges, rand_op, seq_op


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
        self.streams = StreamMemory(mem)
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
        g, rt, mem, st = self.g, self.rt, self.mem, self.streams
        my_f = ThreadLocalFrontiers(rt.P)
        parent, level = self.parent, self.level
        nxt_level = self.cur_level + 1

        def body(t: int, vs: np.ndarray) -> None:
            if len(vs) == 0:
                return
            starts = g.offsets[vs].astype(np.int64)
            deg = g.offsets[vs + 1] - starts
            nbrs = g.adj[gather_edge_positions(g.offsets, vs)]
            seg = row_offsets(deg)
            # the first edge-order occurrence of each unvisited target is
            # the CAS that wins when the block's vertices run in turn
            fresh_pos = first_claim(nbrs, parent[nbrs] < 0)
            fresh_w = nbrs[fresh_pos].astype(np.int64)
            fresh_src = np.repeat(vs, deg)[fresh_pos]
            owner = np.searchsorted(seg, fresh_pos, side="right") - 1
            seg_f = row_offsets(np.bincount(owner, minlength=len(vs)))
            # the winning CAS also owns the level store; the claims all
            # target the parent array, so they form the segregated
            # same-array stream the batched-atomic discount models
            # (Section 5 / Table 4)
            st.replay([
                rand_op("read", self.ga.off, idx=vs,
                        seg=np.arange(len(vs) + 1, dtype=np.int64),
                        counts=np.full(len(vs), 2, dtype=np.int64)),
                seq_op("read", self.ga.adj, counts=deg, starts=starts),
                rand_op("read", self.parent_h, idx=nbrs, seg=seg),
                rand_op("cas", self.parent_h, idx=fresh_w, seg=seg_f,
                        batched=True, covers=[(self.level_h, fresh_w)]),
                rand_op("write", self.level_h, idx=fresh_w, seg=seg_f),
            ], interleave=True)
            mem.branch_cond(int(deg.sum()))
            parent[fresh_w] = fresh_src
            level[fresh_w] = nxt_level
            my_f.extend(t, fresh_w)

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
        g, rt, mem, st = self.gin, self.rt, self.mem, self.streams
        my_f = ThreadLocalFrontiers(rt.P)
        parent, level, in_front = self.parent, self.level, self.in_front
        nxt_level = self.cur_level + 1

        def body(t: int, vs: np.ndarray) -> None:
            unvisited = vs[parent[vs] < 0]
            mem.read(self.parent_h, start=int(vs[0]) if len(vs) else 0,
                     count=len(vs))
            mem.branch_cond(len(vs))
            if len(unvisited) == 0:
                return
            starts = g.offsets[unvisited].astype(np.int64)
            seg = row_offsets(g.offsets[unvisited + 1] - starts)
            nbrs = g.adj[gather_edge_positions(g.offsets, unvisited)]
            # early exit: only the prefix up to the first hit is scanned
            scanned, hits, hit_w = first_hits(
                nbrs, seg, masked_first_hit(in_front[nbrs], seg))
            pre = concat_ranges(seg[:-1], scanned)
            hit_vs = unvisited[hits]
            seg_h = row_offsets(hits)
            st.replay([
                rand_op("read", self.ga_in.off, idx=unvisited,
                        seg=np.arange(len(unvisited) + 1, dtype=np.int64),
                        counts=np.full(len(unvisited), 2, dtype=np.int64)),
                seq_op("read", self.ga_in.adj, counts=scanned, starts=starts),
                rand_op("read", self.front_h, idx=nbrs[pre],
                        seg=row_offsets(scanned)),
                rand_op("write", self.parent_h, idx=hit_vs, seg=seg_h),
                rand_op("write", self.level_h, idx=hit_vs, seg=seg_h),
            ], interleave=True)
            mem.branch_cond(int(scanned.sum()))
            rt.owned_write_check(hit_vs)
            parent[hit_vs] = hit_w
            level[hit_vs] = nxt_level
            my_f.extend(t, hit_vs)

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
