"""Differential check of the array-at-a-time DM pull scans.

DM BFS's bottom-up ``scan`` and Δ-Stepping's ``relax_local`` evaluate a
rank's unvisited/unsettled vertices as array passes and replay their
memory traffic through one :class:`~repro.streams.StreamMemory` stream
per rank per superstep.  The reference below is the per-vertex
formulation they replace, kept here as test-local copies of the two
loop bodies.  A runtime subclass swaps the reference body in for the
kernel's own at every superstep launch (the reference reads the
kernel's state through the body's closure), so both formulations run
inside the same kernel driver.  Compared per seeded instance: the
result arrays, the inner-iteration counts, every rank's counters and
the simulated time after every superstep, and the verb call sequence a
recording :class:`~repro.machine.memory.MemoryProxy` sees.  No
Hypothesis, so the file runs where only NumPy and pytest are installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import dm_sssp
from repro.algorithms.dm_bfs import dm_bfs
from repro.algorithms.dm_sssp import dm_sssp_delta
from repro.analysis.runner import instance_graph
from repro.graph.builder import from_edges
from repro.machine.memory import MemoryProxy, _count, as_index_array
from repro.observability.driver import default_fault_plan
from repro.observability.hwcounters import equip_cache_sim
from repro.runtime.dm import DMRuntime
from repro.runtime.faults import attach_fault_injector

DATASETS = ("road", "er", "rmat", "comm")
PROCS = (1, 2, 3, 4, 8)
N = 400


# -- the per-vertex reference bodies ------------------------------------------

def reference_scan(p: int, env: dict) -> None:
    """DM BFS bottom-up scan, one vertex and one verb call at a time."""
    rt, mem, g = env["rt"], env["mem"], env["g"]
    parent, level, in_front = env["parent"], env["level"], env["in_front"]
    rt.inbox("bitmap")
    vs = rt.owned(p)
    if len(vs) == 0:
        return
    mem.read(env["par_h"], start=int(vs[0]), count=len(vs), mode="seq")
    unvisited = vs[parent[vs] < 0]
    mine: list[int] = []
    for v in unvisited:
        o0, o1 = int(g.offsets[v]), int(g.offsets[v + 1])
        nbrs = g.adj[o0:o1]
        mem.read(env["off_h"], idx=int(v), count=2, mode="rand")
        if len(nbrs) == 0:
            continue
        flags = in_front[nbrs]
        hit = int(np.argmax(flags)) if flags.any() else -1
        scanned = (hit + 1) if hit >= 0 else len(nbrs)
        mem.read(env["adj_h"], start=o0, count=scanned)
        if hit >= 0:
            parent[v] = int(nbrs[hit])
            level[v] = env["depth"]
            mem.write(env["par_h"], idx=int(v), mode="rand")
            mine.append(int(v))
    if mine:
        env["found"].append(np.asarray(mine, dtype=np.int64))


def reference_relax_local(p: int, env: dict) -> None:
    """Δ-Stepping pull relaxation: the sequential (Gauss-Seidel) sweep."""
    rt, mem, g = env["rt"], env["mem"], env["g"]
    dist, bidx, owner = env["dist"], env["bidx"], env["owner"]
    b, delta, weights = env["b"], env["delta"], env["weights"]
    remote_dist = {}
    remote_b = {}
    for _, payload in rt.inbox("rep"):
        ids, ds, bs = payload
        for i, dd, bb in zip(ids, ds, bs):
            remote_dist[int(i)] = float(dd)
            remote_b[int(i)] = int(bb)
    vs = rt.owned(p)
    unsettled = vs[dist[vs] > b * delta]
    for v in unsettled:
        o0, o1 = int(g.offsets[v]), int(g.offsets[v + 1])
        nbrs = g.adj[o0:o1]
        mem.read(env["off_h"], idx=int(v), count=2, mode="rand")
        mem.read(env["adj_h"], start=o0, count=o1 - o0)
        mem.branch_cond(o1 - o0)
        best = dist[v]
        for i, w in enumerate(nbrs):
            w = int(w)
            if owner[w] == p:
                dw, bw = dist[w], bidx[w]
                mem.read(env["dist_h"], idx=w, mode="rand")
            elif w in remote_dist:
                dw, bw = remote_dist[w], remote_b[w]
            else:
                continue
            if bw == b:
                cand = dw + weights[o0 + i]
                mem.flop(1)
                if cand < best:
                    best = cand
        if best < dist[v]:
            dist[v] = best
            new_b = int(best // delta)
            bidx[v] = new_b
            mem.write(env["dist_h"], idx=int(v), mode="rand")
            if new_b == b:
                env["refill"][v] = True


class SteppedRuntime(DMRuntime):
    """A DM runtime that logs every rank's counters and the time after
    each superstep.  With ``reference`` it launches the per-vertex twin
    of each pull-scan body in the body's place; the twin reads the
    kernel's state through the body's closure at call time (the kernel
    rebinds ``b`` and ``depth`` between supersteps)."""

    def __init__(self, n: int, P: int, reference: bool) -> None:
        super().__init__(n, P)
        self.reference = reference
        self.steps: list = []

    def superstep(self, body) -> None:
        name = body.__qualname__.replace(".<locals>", "")
        if self.reference and name in ("_level_pull.scan",
                                        "dm_sssp_delta.relax_local"):
            cells = body.__code__.co_freevars

            def twin(p: int) -> None:
                env = {c: cell.cell_contents
                       for c, cell in zip(cells, body.__closure__)}
                if "layouts" in env:
                    # relax_local reaches the graph, the owners and the
                    # weights through its row-layout cache
                    lay = env["layouts"]
                    env.update(g=lay.g, owner=lay.owner, weights=lay.weights)
                if name == "_level_pull.scan":
                    reference_scan(p, env)
                else:
                    reference_relax_local(p, env)

            super().superstep(twin)
        else:
            super().superstep(body)
        self.steps.append(([c.to_dict() for c in self.proc_counters],
                           self.time))


# -- observation ---------------------------------------------------------------

class CallRecorder(MemoryProxy):
    """Logs every memory verb call that names at least one item as
    ``(rank, verb, array, mode, items, count, start)``.  Zero-item calls
    (an empty adjacency range) carry no address and no event; the
    stream replay's element-wise lowering does not issue them."""

    def __init__(self, inner, calls: list) -> None:
        super().__init__(inner)
        self.calls = calls

    def _log(self, verb, handle, idx, count, mode, start) -> None:
        n = _count(idx, count)
        if n:
            items = None if idx is None else \
                tuple(as_index_array(idx).tolist())
            self.calls.append((self.thread, verb, handle.name, mode, items,
                               n, start))

    def read(self, handle, idx=None, count=None, mode="seq", start=None):
        self._log("read", handle, idx, count, mode, start)
        self.inner.read(handle, idx=idx, count=count, mode=mode, start=start)

    def write(self, handle, idx=None, count=None, mode="seq", start=None):
        self._log("write", handle, idx, count, mode, start)
        self.inner.write(handle, idx=idx, count=count, mode=mode,
                         start=start)


def _run(kernel: str, g, P: int, *, reference: bool, cache_scale: int = 0,
         faults: bool = False, record: bool = False):
    """One DM pull run; returns (observables, per-superstep log, calls)."""
    rt = SteppedRuntime(g.n, P, reference)
    if cache_scale:
        equip_cache_sim(rt, cache_scale=cache_scale)
    if faults:
        attach_fault_injector(rt, default_fault_plan(3))
    calls: list = []
    if record:
        rt.mem = CallRecorder(rt.mem, calls)
    if kernel == "bfs":
        r = dm_bfs(g, rt, 0, variant="pull")
        seen = {"level": r.level.tolist(), "parent": r.parent.tolist(),
                "levels": r.levels}
    elif kernel == "switching":
        r = dm_bfs(g, rt, 0, variant="switching")
        seen = {"level": r.level.tolist(), "parent": r.parent.tolist(),
                "directions": r.directions}
    else:
        r = dm_sssp_delta(g, rt, 0, variant="pull")
        seen = {"dist": r.dist.tolist(), "epochs": r.epochs,
                "inner": r.inner_iterations}
    seen["time"] = rt.time
    return seen, rt.steps, calls


def _assert_same(kernel, g, P, **kw) -> None:
    got = _run(kernel, g, P, reference=False, **kw)
    want = _run(kernel, g, P, reference=True, **kw)
    assert got[0] == want[0]
    assert len(got[1]) == len(want[1])
    for i, (a, b) in enumerate(zip(got[1], want[1])):
        assert a == b, f"superstep {i}"
    assert got[2] == want[2]


def _graph(dataset: str, weighted: bool, seed: int = 5):
    return instance_graph(dataset, N, d_bar=4.0, seed=seed, weighted=weighted)


def _tied(g):
    """The same topology with small integer weights: many equal
    candidates per vertex, and updates that stay in their bucket."""
    w = 1.0 + np.floor(g.weights) % 3
    edges = np.stack([np.repeat(np.arange(g.n), np.diff(g.offsets)),
                      g.adj.astype(np.int64)], axis=1)
    keep = edges[:, 0] < edges[:, 1]
    return from_edges(g.n, edges[keep], w[keep], directed=False)


def _directed(seed: int = 9, n: int = 150):
    """A directed graph: a vertex's readers are its in-neighbours."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(4 * n, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    lattice = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    edges = np.concatenate([lattice, edges])
    return from_edges(n, edges, rng.uniform(1.0, 10.0, len(edges)),
                      directed=True)


# -- tests ---------------------------------------------------------------------

@pytest.mark.parametrize("P", PROCS)
@pytest.mark.parametrize("dataset", DATASETS)
class TestAgainstPerVertexLoops:
    def test_bfs_pull(self, dataset, P):
        _assert_same("bfs", _graph(dataset, False), P)

    def test_sssp_pull(self, dataset, P):
        _assert_same("sssp", _graph(dataset, True), P)


class TestConfigurations:
    @pytest.mark.parametrize("P", (3, 4))
    @pytest.mark.parametrize("dataset", ("road", "er"))
    def test_tied_weights(self, dataset, P):
        _assert_same("sssp", _tied(_graph(dataset, True)), P)

    @pytest.mark.parametrize("P", (1, 3))
    def test_unit_weights(self, P):
        _assert_same("sssp", _graph("road", False), P)

    @pytest.mark.parametrize("kernel", ("bfs", "sssp"))
    def test_directed(self, kernel):
        _assert_same(kernel, _directed(), 3)

    def test_switching_bfs(self):
        _assert_same("switching", _graph("rmat", False), 4)

    @pytest.mark.parametrize("kernel", ("bfs", "sssp"))
    @pytest.mark.parametrize("dataset", ("road", "comm"))
    def test_cache_sim(self, kernel, dataset):
        _assert_same(kernel, _graph(dataset, kernel == "sssp"), 3,
                     cache_scale=16)

    @pytest.mark.parametrize("kernel", ("bfs", "sssp"))
    def test_faults(self, kernel):
        _assert_same(kernel, _graph("road", kernel == "sssp"), 4,
                     faults=True)


class TestCallSequence:
    @pytest.mark.parametrize("P", (2, 4))
    @pytest.mark.parametrize("dataset", ("road", "rmat"))
    @pytest.mark.parametrize("kernel", ("bfs", "sssp"))
    def test_recorded_calls(self, kernel, dataset, P):
        g = _graph(dataset, kernel == "sssp")
        got = _run(kernel, g, P, reference=False, record=True)
        want = _run(kernel, g, P, reference=True, record=True)
        assert got[2] and got[2] == want[2]
        assert got[0] == want[0] and got[1] == want[1]

    def test_cache_sim_calls(self):
        _assert_same("sssp", _graph("road", True), 4, cache_scale=64,
                     record=True)


def test_road_sweep_exercises_the_repair(monkeypatch):
    """A road lattice makes later vertices of a sweep read earlier
    updates, so the Jacobi pass alone is not the sweep."""
    recomputed = []
    recompute = dm_sssp._PullSweep.recompute

    def counting(self, k):
        recomputed.append(k)
        return recompute(self, k)

    monkeypatch.setattr(dm_sssp._PullSweep, "recompute", counting)
    _assert_same("sssp", _graph("road", True), 4)
    assert len(recomputed) > 0
