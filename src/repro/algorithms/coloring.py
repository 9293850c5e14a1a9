"""Push- and pull-based Boman Graph Coloring (Algorithm 6).

Each iteration has two phases:

1. ``seq_color_partition``: every thread first-fit colors the vertices
   of its partition that still need a color, respecting constraints
   from already-colored *local* neighbors plus the variant-specific
   remote-constraint source:

   * **push**: the vertex's row of the ``avail`` bitmap, which
     conflicting neighbors have been writing into (a compact C-cell
     sequential scan);
   * **pull**: the colors of all neighbors re-read from the snapshot of
     the previous iteration (d(v) random reads).

   Remote colors assigned *in the same iteration* are invisible
   (threads run concurrently), which is what creates conflicts.

2. ``fix_conflicts``: border vertices scan their cross-partition
   neighbors; for every conflicting pair the higher-id endpoint is
   scheduled for recoloring -- push writes the *remote* endpoint's
   avail row, pull marks the *own* vertex.  Both guard the marking with
   a lock, matching Table 1's identical lock counts for the two BGC
   variants; the read/miss asymmetry (pull touches more) comes from
   phase 1.

Iterations repeat until no conflicts remain (or ``max_iterations``).
The result is always a proper coloring (asserted in tests).
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
class ColoringResult(AlgoResult):
    colors: np.ndarray = None
    n_colors: int = 0
    conflicts_per_iteration: list = field(default_factory=list)


class BGCState:
    """Shared machinery for plain BGC and the Section-5 strategies."""

    def __init__(self, g: CSRGraph, rt: SMRuntime, max_colors: int = 1024) -> None:
        self.g = g
        self.rt = rt
        mem = rt.mem
        self.mem = mem
        self.ga = GraphArrays(mem, g)
        self.C = max_colors
        self.colors = np.full(g.n, -1, dtype=np.int64)
        self.colors_prev = np.full(g.n, -1, dtype=np.int64)
        self.avail = np.ones((g.n, max_colors), dtype=bool)
        self.need = np.ones(g.n, dtype=bool)       # needs (re)coloring
        self.colors_h = mem.register("bgc.colors", self.colors)
        # the avail bitmap is bit-packed: rows of ceil(C/64) machine words
        self.row_words = (max_colors + 63) // 64
        self.avail_h = mem.register("bgc.avail", g.n * self.row_words, 8)
        self.need_h = mem.register("bgc.need", g.n, 1)
        self.owner_of = rt.part.owner(np.arange(g.n, dtype=np.int64))
        self.border = rt.part.border_vertices(g)
        self.border_mask = np.zeros(g.n, dtype=bool)
        self.border_mask[self.border] = True

    # -- phase 1 -------------------------------------------------------------
    def color_partitions(self, direction: str, only: np.ndarray | None = None
                         ) -> int:
        """First-fit color every vertex with ``need`` set; returns count."""
        g, rt, mem = self.g, self.rt, self.mem
        colors, avail, need = self.colors, self.avail, self.need
        colored = [0]

        def body(t: int, vs: np.ndarray) -> None:
            mem.read(self.need_h, start=int(vs[0]) if len(vs) else 0,
                     count=len(vs))
            mem.branch_cond(len(vs))
            todo = vs[need[vs]]
            if only is not None:
                todo = todo[np.isin(todo, only)]
            for v in todo:
                o0, o1 = int(g.offsets[v]), int(g.offsets[v + 1])
                nbrs = g.adj[o0:o1]
                mem.read(self.ga.off, idx=int(v), count=2, mode="rand")
                mem.read(self.ga.adj, start=o0, count=o1 - o0)
                local = nbrs[self.owner_of[nbrs] == t]
                forbidden = np.zeros(self.C, dtype=bool)
                # constraints from already-colored local neighbors (live)
                mem.read(self.colors_h, idx=local, mode="rand")
                mem.branch_cond(len(local))
                lc = colors[local]
                forbidden[lc[lc >= 0]] = True
                if direction == PUSH:
                    # remote constraints were pushed into the avail row
                    # (a short scan of bit-packed words)
                    row = avail[v]
                    mem.read(self.avail_h, start=int(v) * self.row_words,
                             count=self.row_words)
                    forbidden |= ~row
                else:
                    # pull: re-read all remote neighbors' snapshot colors
                    remote = nbrs[self.owner_of[nbrs] != t]
                    mem.read(self.colors_h, idx=remote, mode="rand")
                    mem.branch_cond(len(remote))
                    rc = self.colors_prev[remote]
                    forbidden[rc[rc >= 0]] = True
                free = np.flatnonzero(~forbidden)
                if len(free) == 0:
                    raise RuntimeError(
                        f"max_colors={self.C} exhausted at vertex {v}")
                rt.owned_write_check(int(v))
                colors[v] = int(free[0])
                need[v] = False
                mem.write(self.colors_h, idx=int(v), mode="rand")
                mem.write(self.need_h, idx=int(v), mode="rand")
                colored[0] += 1

        rt.for_each_thread(body)
        return colored[0]

    # -- phase 2 -------------------------------------------------------------
    def fix_conflicts(self, direction: str) -> int:
        """Detect cross-partition conflicts; schedule the higher endpoint.

        Returns the number of conflicting pairs found.
        """
        g, rt, mem = self.g, self.rt, self.mem
        colors, avail, need = self.colors, self.avail, self.need
        found = [0]

        def body(t: int, vs: np.ndarray) -> None:
            for v in vs:
                o0, o1 = int(g.offsets[v]), int(g.offsets[v + 1])
                nbrs = g.adj[o0:o1]
                mem.read(self.ga.off, idx=int(v), count=2, mode="rand")
                mem.read(self.ga.adj, start=o0, count=o1 - o0)
                remote = nbrs[self.owner_of[nbrs] != t]
                if len(remote) == 0:
                    continue
                mem.read(self.colors_h, idx=int(v), mode="rand")
                mem.read(self.colors_h, idx=remote, mode="rand")
                mem.branch_cond(len(remote))
                conflict = remote[colors[remote] == colors[v]]
                if len(conflict) == 0:
                    continue
                cv = int(colors[v])
                if direction == PUSH:
                    # the higher-id remote endpoints are re-scheduled by v
                    tgt = conflict[conflict > v]
                    found[0] += len(tgt)
                    if len(tgt):
                        words = tgt * self.row_words + cv // 64
                        # one critical section per re-scheduled vertex:
                        # clears its avail bit and raises its need flag
                        mem.lock(self.avail_h, idx=words, mode="rand",
                                 covers=[(self.need_h, tgt)])
                        mem.write(self.avail_h, idx=words, mode="rand")
                        mem.write(self.need_h, idx=tgt, mode="rand")
                        avail[tgt, cv] = False
                        need[tgt] = True
                else:
                    # v re-schedules itself iff it is the higher endpoint
                    lower = conflict[conflict < v]
                    found[0] += len(lower)
                    if len(lower):
                        rt.owned_write_check(int(v))
                        mem.lock(self.colors_h, idx=int(v), count=len(lower),
                                 mode="rand")
                        mem.write(self.need_h, idx=int(v), mode="rand")
                        need[v] = True

        rt.parallel_for(self.border, body, by_owner=True)
        return found[0]

    def snapshot(self) -> None:
        self.colors_prev[:] = self.colors


def boman_coloring(g: CSRGraph, rt: SMRuntime, direction: str = PUSH,
                   max_colors: int = 1024, max_iterations: int = 256
                   ) -> ColoringResult:
    """Run plain BGC until conflict-free (or the iteration cap)."""
    check_direction(direction)
    state = BGCState(g, rt, max_colors)
    start_time = rt.time
    start_counters = rt.total_counters()
    iteration_times: list[float] = []
    conflicts: list[int] = []
    it = 0
    while it < max_iterations:
        it += 1
        t0 = rt.time
        state.color_partitions(direction)
        state.snapshot()
        n_conf = state.fix_conflicts(direction)
        iteration_times.append(rt.time - t0)
        conflicts.append(n_conf)
        if n_conf == 0:
            break
    return ColoringResult(
        direction=direction,
        time=rt.time - start_time,
        counters=rt.total_counters() - start_counters,
        iterations=it,
        iteration_times=iteration_times,
        colors=state.colors,
        n_colors=int(state.colors.max()) + 1 if g.n else 0,
        conflicts_per_iteration=conflicts,
    )
