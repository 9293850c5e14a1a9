"""Differential checks of DM Δ-Stepping's two newer array paths.

* **Pull row layouts.**  ``_PullLayouts.of`` hands ``request_out`` and
  ``relax_local`` one ``_PullRows`` per rank and unsettled set, and
  builds a new one only when the set changes.  Every layout it returns
  must equal a layout built fresh for the call's set, field by field,
  and a run whose ``of`` rebuilds on every call must match the cached
  run in results, every message payload in order, each rank's counters
  and the time after every superstep, and the trace event stream.  A
  cache that keeps a rank's layout after its set changed fails the
  field check.
* **Push ``relax_out``.**  The array pass replaces a per-vertex loop;
  a test-local copy of that loop is swapped in at every superstep (it
  reads the kernel's state through the body's closure) and both runs
  are compared on the same observables plus the verb calls a
  recording :class:`~repro.machine.memory.MemoryProxy` sees.

No Hypothesis, so the file runs where only NumPy and pytest are
installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import dm_sssp
from repro.algorithms.dm_sssp import dm_sssp_delta
from repro.analysis.runner import instance_graph
from repro.graph.builder import from_edges
from repro.observability.export import to_jsonl_lines
from repro.observability.hwcounters import equip_cache_sim
from repro.observability.tracer import attach_tracer
from repro.runtime.dm import DMRuntime
from repro.runtime.faults import FaultPlan, attach_fault_injector
from tests.test_dm_pull_scans import CallRecorder

DATASETS = ("road", "er", "rmat", "comm")
PROCS = (1, 2, 3, 4, 8)
N = 300


# -- the per-vertex reference ---------------------------------------------------

def reference_relax_out(p: int, env: dict) -> None:
    """Δ-Stepping push relaxation, one vertex and one verb call at a
    time; batches go out in the order their rank first appears."""
    rt, mem, g = env["rt"], env["mem"], env["g"]
    dist, weights, owner = env["dist"], env["weights"], env["owner"]
    vs = rt.owned(p)
    act = vs[env["active_mask"][vs]]
    if len(act) == 0:
        return
    batches: dict[int, list] = {}
    for v in act:
        o0, o1 = int(g.offsets[v]), int(g.offsets[v + 1])
        nbrs = g.adj[o0:o1]
        mem.read(env["off_h"], idx=int(v), count=2, mode="rand")
        mem.read(env["adj_h"], start=o0, count=o1 - o0)
        cand = dist[v] + weights[o0:o1]
        mem.flop(o1 - o0)
        for q in range(rt.P):
            sel = owner[nbrs] == q
            if not sel.any():
                continue
            batches.setdefault(q, []).append(
                (nbrs[sel].astype(np.int64), cand[sel]))
    for q, parts in batches.items():
        tgt = np.concatenate([t for t, _ in parts])
        val = np.concatenate([v for _, v in parts])
        if q == p:
            env["local_pairs"].setdefault(p, []).append((tgt, val))
        else:
            rt.send(q, (tgt, val), nbytes=16 * len(tgt), tag="relax")


def _plain(payload):
    """A message payload as comparable values (arrays with dtype)."""
    if isinstance(payload, np.ndarray):
        return (payload.dtype.str, payload.tolist())
    if isinstance(payload, tuple):
        return tuple(_plain(x) for x in payload)
    return payload


class LoggedRuntime(DMRuntime):
    """A DM runtime that logs every message (payload included) and each
    rank's counters and the time after every superstep.  With
    ``reference`` it launches :func:`reference_relax_out` in place of
    the kernel's ``relax_out``."""

    def __init__(self, n: int, P: int, reference: bool = False) -> None:
        super().__init__(n, P)
        self.reference = reference
        self.sent: list = []
        self.steps: list = []

    def send(self, dest, payload, nbytes=None, tag=None) -> None:
        self.sent.append((self.superstep_index, self.rank, dest, tag,
                          nbytes, _plain(payload)))
        super().send(dest, payload, nbytes=nbytes, tag=tag)

    def superstep(self, body) -> None:
        name = body.__qualname__.replace(".<locals>", "")
        if self.reference and name == "dm_sssp_delta.relax_out":
            cells = body.__code__.co_freevars

            def twin(p: int) -> None:
                env = {c: cell.cell_contents
                       for c, cell in zip(cells, body.__closure__)}
                reference_relax_out(p, env)

            super().superstep(twin)
        else:
            super().superstep(body)
        self.steps.append(([c.to_dict() for c in self.proc_counters],
                           self.time))


def _run(g, P: int, variant: str, *, reference: bool = False,
         delta: float | None = None, cache_scale: int = 0,
         plan: FaultPlan | None = None, record: bool = False) -> dict:
    rt = LoggedRuntime(g.n, P, reference)
    if cache_scale:
        equip_cache_sim(rt, cache_scale=cache_scale)
    tracer = attach_tracer(rt, graph=g)
    if plan is not None:
        attach_fault_injector(rt, plan)
    calls: list = []
    if record:
        rt.mem = CallRecorder(rt.mem, calls)
    r = dm_sssp_delta(g, rt, 0, delta=delta, variant=variant)
    return {"dist": r.dist.tolist(), "epochs": r.epochs,
            "inner": r.inner_iterations, "time": rt.time,
            "sent": rt.sent, "steps": rt.steps, "calls": calls,
            "events": to_jsonl_lines(tracer)}


def _assert_same(got: dict, want: dict) -> None:
    for key in ("dist", "epochs", "inner", "time"):
        assert got[key] == want[key], key
    assert len(got["steps"]) == len(want["steps"])
    for i, (a, b) in enumerate(zip(got["steps"], want["steps"])):
        assert a == b, f"superstep {i}"
    assert len(got["sent"]) == len(want["sent"])
    for i, (a, b) in enumerate(zip(got["sent"], want["sent"])):
        assert a == b, f"message {i}"
    assert got["calls"] == want["calls"]
    assert got["events"] == want["events"]


# -- instances --------------------------------------------------------------------

def _reweighted(g, kind: str):
    """``g``'s topology with unit, integer 0–3 or all-zero weights."""
    src = np.repeat(np.arange(g.n), np.diff(g.offsets))
    keep = src < g.adj
    edges = np.stack([src[keep], g.adj[keep].astype(np.int64)], axis=1)
    w = {"unit": np.ones(len(edges)),
         "int03": np.floor(g.weights[keep]) % 4,
         "zero": np.zeros(len(edges))}[kind]
    return from_edges(g.n, edges, w, directed=False)


def _graph(dataset: str, kind: str = "unit", seed: int = 5):
    g = instance_graph(dataset, N, d_bar=4.0, seed=seed, weighted=True)
    return g if kind == "uniform" else _reweighted(g, kind)


def _with_sinks(n: int = 160, seed: int = 3):
    """A directed graph in which every fifth vertex has in-edges but no
    out-edges: zero-degree vertices that become active."""
    rng = np.random.default_rng(seed)
    edges = np.concatenate([
        np.stack([np.arange(n - 1), np.arange(1, n)], axis=1),
        rng.integers(0, n, size=(3 * n, 2))])
    edges = edges[(edges[:, 0] != edges[:, 1]) & (edges[:, 0] % 5 != 4)]
    return from_edges(n, edges, rng.integers(0, 4, len(edges)).astype(float),
                      directed=True)


#: the zero-weight cells need an explicit bucket width
_DELTA = {"unit": None, "int03": None, "zero": 1.0}


# -- pull row layouts ---------------------------------------------------------------

_FIELDS = ("ids", "starts", "deg", "pos", "adj", "own", "rem", "rem_adj",
           "w", "seg", "slot", "own_slot", "nz", "heads")


def _same_layout(got, want) -> None:
    for f in _FIELDS:
        a, b = getattr(got, f), getattr(want, f)
        assert a.dtype == b.dtype and np.array_equal(a, b), f
    assert [(q, a.dtype.str, a.tolist()) for q, a in got.asks] == \
        [(q, a.dtype.str, a.tolist()) for q, a in want.asks]
    assert got.readers() == want.readers()


def _checked(of):
    """``of`` whose every answer is compared with a fresh build."""
    def checked_of(self, p, ids):
        lay = of(self, p, ids)
        _same_layout(lay, dm_sssp._PullRows(self.g, self.owner,
                                             self.weights, p, ids))
        return lay
    return checked_of


def _rebuild_every_call(self, p, ids):
    return dm_sssp._PullRows(self.g, self.owner, self.weights, p, ids)


def _stale(self, p, ids):
    """A cache that ignores changes to the set: one layout per rank."""
    lay = self._last.get(p)
    if lay is None:
        lay = self._last[p] = dm_sssp._PullRows(self.g, self.owner,
                                                 self.weights, p, ids)
    return lay


def _cached_vs_rebuilt(monkeypatch, g, P, **kw) -> dict:
    of = dm_sssp._PullLayouts.of
    monkeypatch.setattr(dm_sssp._PullLayouts, "of", _checked(of))
    got = _run(g, P, "pull", **kw)
    monkeypatch.setattr(dm_sssp._PullLayouts, "of", _rebuild_every_call)
    want = _run(g, P, "pull", **kw)
    _assert_same(got, want)
    return got


@pytest.mark.parametrize("kind", ("unit", "int03", "zero"))
@pytest.mark.parametrize("P", PROCS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_cached_layouts_match_rebuilt(monkeypatch, dataset, P, kind):
    _cached_vs_rebuilt(monkeypatch, _graph(dataset, kind), P,
                       delta=_DELTA[kind])


def test_crash_rollback_cell(monkeypatch):
    """Crashed attempts rerun against restored windows."""
    plan = FaultPlan(seed=4, crash=0.25, straggler=0.1, drop=0.1)
    got = _cached_vs_rebuilt(monkeypatch, _graph("road", "int03"), 4,
                             plan=plan)
    assert any('"label":"crash"' in line for line in got["events"])


def test_sets_change_inside_an_epoch(monkeypatch):
    """Zero weights settle vertices inside an epoch, so a rank's set
    changes between inner iterations of one bucket: the cache rebuilds
    there, not only when the epoch advances."""
    builds: list = []
    init = dm_sssp._PullRows.__init__

    def counting(self, g, owner, weights, p, ids):
        builds.append((p, len(ids)))
        init(self, g, owner, weights, p, ids)

    monkeypatch.setattr(dm_sssp._PullRows, "__init__", counting)
    r = _run(_graph("road", "zero"), 4, "pull", delta=1.0)
    assert r["epochs"] == 1 and r["inner"] > 1
    assert len(builds) > 4


def test_a_stale_cache_fails(monkeypatch):
    monkeypatch.setattr(dm_sssp._PullLayouts, "of", _checked(_stale))
    with pytest.raises(AssertionError):
        _run(_graph("road", "int03"), 4, "pull")


# -- push relax_out -------------------------------------------------------------------

def _array_vs_loop(g, P, **kw) -> dict:
    got = _run(g, P, "push", **kw)
    want = _run(g, P, "push", reference=True, **kw)
    _assert_same(got, want)
    assert got["sent"] or P == 1
    return got


@pytest.mark.parametrize("P", PROCS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_relax_out_matches_the_loop(dataset, P):
    _array_vs_loop(_graph(dataset, "uniform"), P)


class TestRelaxOutConfigurations:
    @pytest.mark.parametrize("kind", ("unit", "int03"))
    def test_weights(self, kind):
        _array_vs_loop(_graph("road", kind), 3)

    def test_zero_weights(self):
        _array_vs_loop(_graph("er", "zero"), 4, delta=1.0)

    @pytest.mark.parametrize("P", (2, 4))
    def test_zero_degree_active_vertices(self, P):
        """Sinks still issue their offset read and ``flop(0)``."""
        g = _with_sinks()
        got = _array_vs_loop(g, P, record=True)
        sinks = set(np.flatnonzero(np.diff(g.offsets) == 0).tolist())
        assert any(c[2] == "dmsssp.offsets" and c[4][0] in sinks
                   for c in got["calls"])

    def test_send_order_is_first_appearance(self):
        """Some rank sends its batches in an order other than
        ascending destination."""
        got = _array_vs_loop(_graph("rmat", "uniform"), 8)
        by_step: dict = {}
        for step, rank, dest, tag, _, _ in got["sent"]:
            if tag == "relax":
                by_step.setdefault((step, rank), []).append(dest)
        assert any(d != sorted(d) for d in by_step.values())

    @pytest.mark.parametrize("dataset", ("road", "comm"))
    def test_cache_sim(self, dataset):
        _array_vs_loop(_graph(dataset, "uniform"), 3, cache_scale=16)

    def test_faults(self):
        _array_vs_loop(_graph("road", "uniform"), 4,
                       plan=FaultPlan(seed=2, crash=0.2, drop=0.1,
                                      duplicate=0.1, straggler=0.1))

    @pytest.mark.parametrize("P", (2, 4))
    @pytest.mark.parametrize("dataset", ("road", "rmat"))
    def test_recorded_calls(self, dataset, P):
        got = _array_vs_loop(_graph(dataset, "uniform"), P, record=True)
        assert got["calls"]
