"""Push- and pull-based Connected Components (label propagation).

Section 4.7 notes that dedicated PRAM connectivity algorithms
(Awerbuch–Shiloach [1]) beat Borůvka's bounds; label propagation is the
practical workhorse that exhibits the push/pull dichotomy cleanly, so
we include it as the connectivity substrate:

* every vertex carries a component label (initially its own id);
* **push**: vertices whose label changed last round write
  ``min(label)`` into their neighbors -- remote combining writes, one
  CAS-min per improving edge, but only the *changed frontier* does work
  (the push advantage of Section 3.8);
* **pull**: every still-active vertex recomputes its label as the min
  over its neighborhood -- local writes only, but full rescans per
  round.

Labels converge to the component minimum; the round count is bounded by
the largest component diameter.  An optional pointer-jumping shortcut
(the Shiloach–Vishkin ingredient) collapses label chains in O(log n)
extra rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.common import (
    PUSH, AlgoResult, GraphArrays, check_direction,
    gather_edge_positions,
)
from repro.graph.builder import unique_ids
from repro.graph.csr import CSRGraph
from repro.runtime.sm import SMRuntime


@dataclass
class CCResult(AlgoResult):
    labels: np.ndarray = None     #: component label per vertex (= min member id)
    n_components: int = 0
    rounds: int = 0


def connected_components(g: CSRGraph, rt: SMRuntime, direction: str = PUSH,
                         pointer_jumping: bool = False) -> CCResult:
    """Label-propagation connected components on the simulated runtime.

    ``pointer_jumping=True`` adds a label-shortcut pass per round
    (labels chase their own labels), which collapses long chains and
    cuts the round count on high-diameter graphs at the cost of extra
    reads -- ablated in the test suite.
    """
    check_direction(direction)
    if g.directed:
        raise ValueError("connected components is defined on undirected graphs")
    mem = rt.mem
    ga = GraphArrays(mem, g)
    n = g.n
    labels = np.arange(n, dtype=np.int64)
    label_h = mem.register("cc.labels", labels)
    active_h = mem.register("cc.active", n, 1)

    start_time = rt.time
    start_counters = rt.total_counters()
    iteration_times: list[float] = []

    active = np.arange(n, dtype=np.int64)   # changed last round
    rounds = 0
    limit = 2 * n + 16

    while len(active) and rounds < limit:
        rounds += 1
        t0 = rt.time
        changed_frags: list[np.ndarray] = []

        if direction == PUSH:
            rt.annotate("cc.push")

            def body(t: int, vs: np.ndarray) -> None:
                pos = gather_edge_positions(g.offsets, vs)
                if len(vs):
                    mem.read(ga.off, idx=vs, count=len(vs) + 1, mode="rand")
                    mem.read(label_h, idx=vs, mode="rand")
                if len(pos) == 0:
                    return
                nbrs = g.adj[pos]
                srcs = np.repeat(vs, g.offsets[vs + 1] - g.offsets[vs])
                mem.read(ga.adj, count=len(nbrs), mode="seq")
                mem.read(label_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                vals = labels[srcs]
                improving = vals < labels[nbrs]
                tgt = nbrs[improving].astype(np.int64)
                if len(tgt) == 0:
                    return
                # CAS-min per improving edge (remote combining write);
                # one array, contiguous issue -> batched-atomic stream
                mem.cas(label_h, idx=tgt, mode="rand", batched=True)
                before = labels[tgt].copy()
                np.minimum.at(labels, tgt, vals[improving])
                moved = unique_ids(tgt[labels[tgt] < before])
                if len(moved):
                    changed_frags.append(moved)

            rt.parallel_for(active, body, by_owner=True)
        else:
            rt.annotate("cc.pull")

            def body(t: int, vs: np.ndarray) -> None:
                if len(vs) == 0:
                    return
                mem.read(active_h, start=int(vs[0]), count=len(vs))
                mem.branch_cond(len(vs))
                # rescan: any vertex adjacent to a changed vertex may move;
                # the conservative pull sweep checks every owned vertex
                pos = gather_edge_positions(g.offsets, vs)
                if len(pos) == 0:
                    return
                nbrs = g.adj[pos]
                mem.read(ga.off, start=int(vs[0]), count=len(vs) + 1)
                mem.read(ga.adj, count=len(nbrs), mode="seq")
                mem.read(label_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                # per-vertex min over the neighborhood (vectorized segments)
                lo = int(g.offsets[vs[0]])
                starts = (g.offsets[vs] - lo).astype(np.int64)
                ends = (g.offsets[vs + 1] - lo).astype(np.int64)
                nbr_labels = labels[nbrs]
                out = labels[vs].copy()
                nonempty = ends > starts
                if nonempty.any():
                    mins_arr = np.minimum.reduceat(nbr_labels,
                                                   starts[nonempty])
                    out[nonempty] = np.minimum(out[nonempty], mins_arr)
                rt.owned_write_check(vs)
                moved = vs[out < labels[vs]]
                labels[vs] = out
                mem.write(label_h, start=int(vs[0]), count=len(vs))
                if len(moved):
                    changed_frags.append(moved)

            rt.for_each_thread(body)

        if pointer_jumping:
            rt.annotate("cc.jump")

            def jump(t: int, vs: np.ndarray) -> None:
                if len(vs) == 0:
                    return
                mem.read(label_h, start=int(vs[0]), count=len(vs))
                mem.read(label_h, idx=labels[vs], mode="rand")
                shorter = labels[labels[vs]]
                moved = vs[shorter < labels[vs]]
                rt.owned_write_check(vs)
                labels[vs] = shorter
                mem.write(label_h, start=int(vs[0]), count=len(vs))
                if len(moved):
                    changed_frags.append(moved)

            rt.for_each_thread(jump)

        # push processes only the changed frontier next round; pull's
        # sweep is global but terminates on quiescence
        active = (unique_ids(np.concatenate(changed_frags))
                  if changed_frags else np.empty(0, dtype=np.int64))

        # the frontier bitmap write used to happen outside any region,
        # invisible to the tracer (and unattributable in reconcile);
        # run it as an annotated sequential phase instead
        def frontier_write() -> None:
            mem.write(active_h, idx=active, mode="rand")

        rt.annotate("cc.frontier")
        rt.sequential(frontier_write)
        iteration_times.append(rt.time - t0)

    return CCResult(
        direction=direction,
        time=rt.time - start_time,
        counters=rt.total_counters() - start_counters,
        iterations=rounds,
        iteration_times=iteration_times,
        labels=labels,
        n_components=len(unique_ids(labels)),
        rounds=rounds,
    )
