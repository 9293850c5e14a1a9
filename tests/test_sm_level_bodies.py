"""Differential check of the array-at-a-time SM level bodies.

BFS's two level steps (``BFSState._step_push``/``_step_pull``) and
Δ-Stepping's pull epoch (``DeltaStepping._epoch_pull``) evaluate each
thread's block as array passes and replay its memory traffic through
one :class:`~repro.streams.StreamMemory` stream.  The reference below
is the per-vertex formulation they replace, kept here as test-local
copies of the three methods; state subclasses swap them in, so both
formulations run inside the same driver and over the same registered
state.  Compared per seeded instance: the result arrays, every thread's
counters and the simulated time after every region, the tracer's event
stream (every region's per-thread deltas), and the verb call sequence a
recording :class:`~repro.machine.memory.MemoryProxy` sees (under a
proxy the stream is lowered to element-wise calls).  No Hypothesis, so
the file runs where only NumPy and pytest are installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bc_weighted import betweenness_centrality_weighted
from repro.algorithms.bfs import BFSState
from repro.algorithms.common import gather_edge_positions
from repro.algorithms.sssp_delta import DeltaStepping
from repro.analysis.runner import instance_graph
from repro.graph.builder import from_edges
from repro.machine.memory import MemoryProxy, _count, as_index_array
from repro.observability.export import to_jsonl_lines
from repro.observability.hwcounters import equip_cache_sim
from repro.observability.tracer import attach_tracer
from repro.runtime.frontier import ThreadLocalFrontiers
from repro.runtime.sm import SMRuntime
from repro.runtime.sm_faults import SMFaultPlan, attach_sm_fault_injector
from repro.strategies.switching import direction_optimizing_bfs

DATASETS = ("er", "rmat", "road", "comm")
PROCS = (1, 2, 3, 4, 8)
MEMORIES = ("counting", "cachesim")
KERNELS = ("bfs-push", "bfs-pull", "sssp-pull")
N = 400

#: every SM fault class at once (the plan of tests/test_sm_faults.py)
CHAOS = SMFaultPlan(seed=7, straggler=0.05, lock_preempt=0.10,
                    cas_lost=0.08, cas_duplicate=0.08, store_delay=0.05,
                    crash=0.02)


# -- the per-vertex reference bodies ------------------------------------------

class ReferenceBFSState(BFSState):
    """BFS levels one frontier (push) or unvisited (pull) vertex and one
    verb call at a time."""

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
                mem.cas(self.parent_h, idx=fresh, mode="rand",
                        batched=True, covers=[(self.level_h, fresh)])
                mem.write(self.level_h, idx=fresh, mode="rand")
                parent[fresh] = v
                level[fresh] = nxt_level
                my_f.extend(t, fresh)

        rt.parallel_for(self.frontier, body, by_owner=True, barrier=False)
        nxt = np.empty(0, dtype=np.int64)

        def kfilter() -> None:
            nonlocal nxt
            nxt = my_f.merge(mem, handle=self.front_h)
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
        return my_f.merge(dedup=False)


class ReferenceDeltaStepping(DeltaStepping):
    """Δ-Stepping whose pull epoch relaxes one unsettled owner at a time."""

    def _epoch_pull(self, b: int) -> int:
        g, rt, mem, ga = self.g, self.rt, self.mem, self.ga
        dist, bidx, delta = self.dist, self.bidx, self.delta
        dist_h, bidx_h, wgt_h = self.dist_h, self.bidx_h, self.wgt_h
        weights = self.weights
        prev_active = np.zeros(g.n, dtype=bool)
        prev_active[bidx == b] = True
        active_h = mem.register("sssp.active", g.n, 1)
        itr = 0
        threshold = b * delta
        while True:
            itr += 1
            newly_active: list[np.ndarray] = []
            first = itr == 1

            def body(t: int, vs: np.ndarray) -> None:
                if len(vs) == 0:
                    return
                mem.read(dist_h, start=int(vs[0]), count=len(vs))
                mem.branch_cond(len(vs))
                unsettled = vs[dist[vs] > threshold]
                if len(unsettled) == 0:
                    return
                pos = gather_edge_positions(g.offsets, unsettled)
                if len(pos) == 0:
                    return
                nbrs = g.adj[pos]
                w = weights[pos]
                owners = np.repeat(unsettled, g.offsets[unsettled + 1]
                                   - g.offsets[unsettled])
                mem.read(ga.off, idx=unsettled, count=len(unsettled) + 1,
                         mode="rand")
                mem.read(ga.adj, count=len(nbrs), mode="seq")
                mem.read(bidx_h, idx=nbrs, mode="rand")
                mem.branch_cond(len(nbrs))
                in_bucket = bidx[nbrs] == b
                if not first:
                    mem.read(active_h, idx=nbrs[in_bucket], mode="rand")
                    in_bucket &= prev_active[nbrs]
                if not in_bucket.any():
                    return
                cpos = np.flatnonzero(in_bucket)
                mem.lock(dist_h, idx=nbrs[cpos], mode="rand")
                mem.read(wgt_h, count=len(cpos), mode="seq")
                cand = dist[nbrs[cpos]] + w[cpos]
                mem.flop(len(cpos))
                own = owners[cpos]
                order = np.argsort(own, kind="stable")
                own_s, cand_s = own[order], cand[order]
                cut = np.flatnonzero(np.diff(own_s)) + 1
                groups = np.split(cand_s, cut)
                uniq = own_s[np.r_[0, cut]] if len(own_s) else own_s
                mem.branch_cond(len(cpos))
                for v, vals in zip(uniq, groups):
                    best = float(vals.min())
                    if best < dist[v]:
                        rt.owned_write_check(int(v))
                        dist[v] = best
                        new_b = int(best // delta)
                        bidx[v] = new_b
                        mem.write(dist_h, idx=int(v), mode="rand")
                        mem.write(bidx_h, idx=int(v), mode="rand")
                        if new_b == b:
                            newly_active.append(np.array([v]))

            rt.for_each_thread(body)
            if not newly_active:
                break
            prev_active[:] = False
            prev_active[np.concatenate(newly_active)] = True
        return itr


# -- observation ---------------------------------------------------------------

class SteppedRuntime(SMRuntime):
    """An SM runtime that logs, after every region, every thread's
    counters, the simulated time and the bytes of the ``watch`` arrays
    (the kernel state under test)."""

    def __init__(self, g, P: int) -> None:
        super().__init__(g, P)
        self.watch: tuple = ()
        self.steps: list = []

    def _log(self) -> None:
        self.steps.append(([c.to_dict() for c in self.thread_counters],
                           self.time, [a.tobytes() for a in self.watch]))

    def _region(self, chunks, body, barrier) -> None:
        super()._region(chunks, body, barrier)
        self._log()

    def sequential(self, body, thread: int = 0, barrier: bool = True) -> None:
        super().sequential(body, thread, barrier)
        self._log()


def _items(idx):
    return None if idx is None else tuple(as_index_array(idx).tolist())


class CallRecorder(MemoryProxy):
    """Logs every memory verb call that names at least one item, with
    every keyword that reaches the model.  Zero-item calls (an empty
    adjacency range) carry no address and no event; the stream replay's
    element-wise lowering does not issue them."""

    def __init__(self, inner, calls: list) -> None:
        super().__init__(inner)
        self.calls = calls

    def _log(self, verb, handle, idx, count, **kw) -> None:
        n = _count(idx, count)
        if n:
            if kw.get("covers"):
                kw["covers"] = [(h.name, _items(ci)) for h, ci in kw["covers"]]
            self.calls.append((self.thread, verb, handle.name, _items(idx),
                               n, sorted(kw.items())))

    def read(self, handle, idx=None, count=None, mode="seq", start=None):
        self._log("read", handle, idx, count, mode=mode, start=start)
        self.inner.read(handle, idx=idx, count=count, mode=mode, start=start)

    def write(self, handle, idx=None, count=None, mode="seq", start=None):
        self._log("write", handle, idx, count, mode=mode, start=start)
        self.inner.write(handle, idx=idx, count=count, mode=mode,
                         start=start)

    def cas(self, handle, idx=None, count=None, successes=None, mode="rand",
            start=None, batched=False, covers=None):
        self._log("cas", handle, idx, count, successes=successes, mode=mode,
                  start=start, batched=batched, covers=covers)
        self.inner.cas(handle, idx=idx, count=count, successes=successes,
                       mode=mode, start=start, batched=batched, covers=covers)

    def lock(self, handle, idx=None, count=None, mode="rand", start=None,
             covers=None):
        self._log("lock", handle, idx, count, mode=mode, start=start,
                  covers=covers)
        self.inner.lock(handle, idx=idx, count=count, mode=mode, start=start,
                        covers=covers)


def _run(kernel: str, g, P: int, *, reference: bool, memory: str = "counting",
         record: bool = False, plan: SMFaultPlan | None = None, root: int = 0):
    """One run of ``kernel`` (``bfs-push``, ``bfs-pull``, ``sssp-pull``);
    returns (observables, per-region log, recorded calls)."""
    rt = SteppedRuntime(g, P)
    if memory == "cachesim":
        equip_cache_sim(rt, cache_scale=64)
    tracer = attach_tracer(rt, graph=g)
    inj = attach_sm_fault_injector(rt, plan) if plan is not None else None
    calls: list = []
    if record:
        rt.mem = CallRecorder(rt.mem, calls)
    algo, direction = kernel.split("-")
    if algo == "bfs":
        state = (ReferenceBFSState if reference else BFSState)(g, rt, root)
        rt.watch = (state.parent, state.level)
        while state.frontier_nonempty():
            state.step(direction)
        r = state.result(direction)
        seen = {"parent": r.parent.tolist(), "level": r.level.tolist(),
                "sizes": r.frontier_sizes, "level_times": r.iteration_times}
    else:
        cls = ReferenceDeltaStepping if reference else DeltaStepping
        state = cls(g, rt, root, None)
        rt.watch = (state.dist, state.bidx)
        r = state.run(direction)
        seen = {"dist": r.dist.tolist(), "epochs": r.epoch_times,
                "inner": r.inner_iterations}
    seen["time"] = rt.time
    seen["counters"] = [c.to_dict() for c in rt.thread_counters]
    seen["events"] = to_jsonl_lines(tracer)
    if inj is not None:
        seen["schedule"] = repr(inj.schedule)
        seen["stats"] = inj.stats.to_dict()
    return seen, rt.steps, calls


def _assert_same(kernel, g, P, **kw):
    """Compare the array run with the reference run; returns the array
    run's ``_run`` triple."""
    got = _run(kernel, g, P, reference=False, **kw)
    want = _run(kernel, g, P, reference=True, **kw)
    assert len(got[1]) == len(want[1])
    for i, (a, b) in enumerate(zip(got[1], want[1])):
        assert a == b, f"region {i}"
    for key in want[0]:
        assert got[0][key] == want[0][key], key
    assert got[2] == want[2]
    return got


# -- instances -----------------------------------------------------------------

def _graph(dataset: str, weighted: bool, seed: int = 5):
    return instance_graph(dataset, N, d_bar=4.0, seed=seed, weighted=weighted)


def _edges(g) -> np.ndarray:
    return np.stack([np.repeat(np.arange(g.n), np.diff(g.offsets)),
                     g.adj.astype(np.int64)], axis=1)


def _reweighted(g, weights):
    """The same undirected topology with the given per-arc weights (one
    value per pair, taken from its lower-to-higher arc)."""
    edges = _edges(g)
    keep = edges[:, 0] < edges[:, 1]
    return from_edges(g.n, edges[keep], weights[keep], directed=False)


def _tied(g):
    """Small integer weights: many equal candidates per vertex."""
    return _reweighted(g, 1.0 + np.floor(g.weights) % 3)


def _zero_weights(g):
    """Integer weights 0..3: zero-weight edges settle a vertex on the
    bucket's lower edge inside an epoch."""
    return _reweighted(g, np.floor(g.weights) % 4)


def _directed(seed: int = 9, n: int = 150):
    """A directed graph: pulling scans in-edges, pushing out-edges, and a
    reached vertex can have no out-edges."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(4 * n, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    lattice = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    edges = np.concatenate([lattice, edges])
    return from_edges(n, edges, rng.uniform(1.0, 10.0, len(edges)),
                      directed=True)


def _sparse_ids(g):
    """``g`` relabelled onto the even ids of twice as many vertices: every
    odd vertex has degree zero."""
    edges = _edges(g)
    keep = edges[:, 0] < edges[:, 1]
    w = None if g.weights is None else g.weights[keep]
    return from_edges(2 * g.n, 2 * edges[keep], w, directed=False)


def _graph_for(kernel: str, dataset: str):
    return _graph(dataset, kernel.startswith("sssp"))


# -- tests ---------------------------------------------------------------------

@pytest.mark.parametrize("memory", MEMORIES)
@pytest.mark.parametrize("P", PROCS)
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_against_per_vertex_loops(kernel, dataset, P, memory):
    got = _assert_same(kernel, _graph_for(kernel, dataset), P, memory=memory)
    if memory == "cachesim":
        # the simulated cache must actually be exercised
        assert sum(c["l1_misses"] for c in got[0]["counters"]) > 0


@pytest.mark.parametrize("P", (2, 4))
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_recorded_calls(kernel, dataset, P):
    got = _assert_same(kernel, _graph_for(kernel, dataset), P, record=True)
    assert got[2]


class TestConfigurations:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_directed(self, kernel):
        _assert_same(kernel, _directed(), 3, record=True)
        _assert_same(kernel, _directed(), 3, memory="cachesim")

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_zero_degree_vertices(self, kernel):
        g = _sparse_ids(_graph_for(kernel, "er"))
        _assert_same(kernel, g, 4, record=True)
        _assert_same(kernel, g, 4, memory="cachesim")

    @pytest.mark.parametrize("kernel", ("bfs-push", "bfs-pull"))
    def test_isolated_root(self, kernel):
        g = _sparse_ids(_graph("er", False))
        seen = _assert_same(kernel, g, 3, root=1, record=True)[0]
        assert seen["sizes"] == [1, 0]

    @pytest.mark.parametrize("memory", MEMORIES)
    @pytest.mark.parametrize("dataset", ("road", "er"))
    def test_tied_weights(self, dataset, memory):
        _assert_same("sssp-pull", _tied(_graph(dataset, True)), 4,
                     memory=memory)

    @pytest.mark.parametrize("memory", MEMORIES)
    @pytest.mark.parametrize("P", (1, 3, 8))
    def test_zero_weights(self, P, memory):
        _assert_same("sssp-pull", _zero_weights(_graph("er", True)), P,
                     memory=memory)

    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_faults(self, kernel, seed):
        # a crash rolls back only the registered arrays and reruns the
        # body, so state a body carries across bodies must survive it
        plan = SMFaultPlan(seed=seed, straggler=0.05, crash=0.2)
        seen = _assert_same(kernel, _graph_for(kernel, "er"), 4, plan=plan,
                            record=True)[0]
        assert seen["stats"]["crashes"] > 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_chaos_faults(self, kernel):
        # lost and duplicated claims, lock preemption and delayed stores
        # draw the injector's RNG per verb call
        seen = _assert_same(kernel, _graph_for(kernel, "er"), 4, plan=CHAOS,
                            record=True)[0]
        assert seen["stats"]["stragglers"] > 0


class TestOtherCallers:
    """Direction-optimizing BFS and weighted BC build the base state
    classes themselves; the reference methods are patched onto them."""

    def test_switching_bfs(self, monkeypatch):
        g = _graph("rmat", False)

        def run():
            rt = SteppedRuntime(g, 4)
            tracer = attach_tracer(rt, graph=g)
            r = direction_optimizing_bfs(g, rt, 0)
            return (r.parent.tolist(), r.directions, rt.steps,
                    to_jsonl_lines(tracer))

        got = run()
        assert {"push", "pull"} <= set(got[1])
        for name in ("_step_push", "_step_pull"):
            monkeypatch.setattr(BFSState, name,
                                getattr(ReferenceBFSState, name))
        assert got == run()

    def test_weighted_bc_pull(self, monkeypatch):
        g = _graph("er", True)

        def run():
            rt = SteppedRuntime(g, 3)
            r = betweenness_centrality_weighted(g, rt, "pull",
                                                sources=[0, 7, 19])
            return r.bc.tobytes(), rt.steps

        got = run()
        monkeypatch.setattr(DeltaStepping, "_epoch_pull",
                            ReferenceDeltaStepping._epoch_pull)
        assert got == run()
