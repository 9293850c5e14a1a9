"""Output checks for benchmark cells, run outside every timed span.

Three checks per cell:

* **pins** -- ``time_mtu`` and the nonzero counter totals equal the
  values pinned in ``pins.json`` (regenerate with ``pin.py`` only when
  a change is meant to move simulated cost);
* **reference** -- the result matches :mod:`repro.algorithms.reference`
  (BFS levels exactly, SSSP distances and PageRank ranks within
  tolerance) or, for CC, induces the same partition as scipy's
  ``connected_components``; BFS/SSSP must also reach at least
  :data:`MIN_REACH` of the vertices, so a degenerate instance cannot
  silently measure no work;
* **reconcile** -- a traced cell's tracer totals equal the runtime's
  counters (``Tracer.reconcile``).
"""

from __future__ import annotations

import json
import os

import numpy as np

#: least share of vertices a BFS/SSSP cell must reach
MIN_REACH = 0.90

#: PageRank tolerance against the reference power iteration
RANK_RTOL, RANK_ATOL = 1e-9, 1e-12

#: SSSP distance tolerance against Dijkstra
DIST_RTOL = 1e-9

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


def load_pins(path: str = PINS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cell_pin(rt) -> dict:
    """What a cell pins: simulated time and nonzero counter totals."""
    return {"time_mtu": rt.time,
            "counters": {k: v for k, v in rt.total_counters().to_dict().items()
                         if v}}


def check_pin(rt, pin: dict | None) -> list[str]:
    if pin is None:
        return ["no pinned values for this cell"]
    got = json.loads(json.dumps(cell_pin(rt)))
    problems = []
    if got["time_mtu"] != pin["time_mtu"]:
        problems.append(f"time_mtu {got['time_mtu']!r} != pinned "
                        f"{pin['time_mtu']!r}")
    for key in sorted(set(got["counters"]) | set(pin["counters"])):
        a, b = got["counters"].get(key, 0), pin["counters"].get(key, 0)
        if a != b:
            problems.append(f"counter {key} {a} != pinned {b}")
    return problems


def check_reconcile(tracer) -> list[str]:
    if tracer is None:
        return []
    traced, actual = tracer.reconcile()
    if traced.to_dict() != actual.to_dict():
        return ["tracer totals do not reconcile with the runtime counters"]
    return []


def result_array(cell, result) -> np.ndarray:
    """The per-vertex output array of a cell's result."""
    return {"pagerank": lambda r: r.ranks, "bfs": lambda r: r.level,
            "sssp": lambda r: r.dist,
            "cc": lambda r: r.labels}[cell.algorithm](result)


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two labelings induce the same partition of the vertices."""
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == np.unique(a).size == np.unique(b).size


class ReferenceChecker:
    """Checks results against the sequential references, computing each
    algorithm's reference once (outside the timed passes)."""

    def __init__(self, config: dict) -> None:
        self.config = config
        self._refs: dict[str, tuple[int, np.ndarray]] = {}

    def reference(self, algorithm: str) -> tuple[int, np.ndarray]:
        """``(n, per-vertex reference output)`` for ``algorithm``."""
        if algorithm not in self._refs:
            from repro.algorithms import reference
            from repro.analysis.runner import instance_graph
            c = self.config
            g = instance_graph(c["dataset"], c["n"], d_bar=4.0,
                               seed=c["seed"], weighted=algorithm == "sssp")
            if algorithm == "pagerank":
                ref = reference.pagerank_reference(
                    g, iterations=c["iterations"])
            elif algorithm == "bfs":
                ref = reference.bfs_reference(g, 0)
            elif algorithm == "sssp":
                ref = reference.sssp_reference(g, 0)
            else:
                from scipy.sparse import csr_matrix
                from scipy.sparse.csgraph import connected_components
                adj = csr_matrix((np.ones(len(g.adj)), g.adj, g.offsets),
                                 shape=(g.n, g.n))
                ref = connected_components(adj, directed=False)[1]
            self._refs[algorithm] = (g.n, ref)
        return self._refs[algorithm]

    def check(self, cell, result) -> list[str]:
        out = result_array(cell, result)
        n, ref = self.reference(cell.algorithm)
        if cell.algorithm == "pagerank":
            ok = np.allclose(out, ref, rtol=RANK_RTOL, atol=RANK_ATOL)
            return [] if ok else ["ranks differ from pagerank_reference"]
        if cell.algorithm == "cc":
            ok = same_partition(np.asarray(out), ref)
            return [] if ok else ["components differ from scipy's partition"]
        if cell.algorithm == "bfs":
            reached = int((out >= 0).sum())
            ok = np.array_equal(out, ref)
            problems = [] if ok else ["levels differ from bfs_reference"]
        else:
            reached = int(np.isfinite(out).sum())
            fin = np.isfinite(ref)
            ok = (np.array_equal(np.isfinite(out), fin)
                  and np.allclose(out[fin], ref[fin], rtol=DIST_RTOL))
            problems = [] if ok else ["distances differ from sssp_reference"]
        if reached < MIN_REACH * n:
            problems.append(f"degenerate instance: reached {reached} of "
                            f"{n} vertices (< {MIN_REACH:.0%})")
        return problems
