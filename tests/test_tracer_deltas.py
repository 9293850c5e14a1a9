"""The tracer's counter deltas and the rollup fold against the old path.

A DM superstep's or SM region's trace event carries each lane's nonzero
counter delta, and :class:`~repro.observability.sinks.RollupSink` folds
it into the ``repro-metrics/3`` rollup.  Both runtimes used to snapshot
:class:`~repro.machine.counters.PerfCounters` copies, subtract them
(``PerfCounters.__sub__``) and keep the nonzero fields; the fold
priced the bounding lane's communication through
``MachineSpec.time_parts(PerfCounters(**delta))``, and the sinks sized
every retained value with an element-wise walk.  The copies below keep
that path test-locally; every cell runs once through it and once
through the shipped one, and the event stream, the rollup document, the
traced totals and every peak-bytes figure must be equal.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.machine.cost_model import MACHINES
from repro.machine.counters import PerfCounters
from repro.observability import driver, events, sinks, tracer
from repro.observability.events import approx_value_nbytes
from repro.observability.export import _dumps, to_jsonl_lines

NAMES = tuple(f.name for f in fields(PerfCounters))


# -- the old path, test-local ---------------------------------------------------

def old_to_dict(c: PerfCounters) -> dict:
    return {k: getattr(c, k) for k in NAMES}


def old_nonzero(c: PerfCounters) -> dict:
    return {k: v for k, v in old_to_dict(c).items() if v}


def old_value_nbytes(v) -> int:
    """The element-wise walk behind a sink's retained-bytes charge."""
    if isinstance(v, dict):
        return 64 + sum(56 + len(k) + old_value_nbytes(x)
                        for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return 56 + sum(8 + old_value_nbytes(x) for x in v)
    if isinstance(v, str):
        return 49 + len(v)
    return 28


def old_comm_parts(m, c: PerfCounters) -> dict:
    """The communication terms ``MachineSpec.time_parts`` itemized."""
    parts = {
        "messages": c.messages * m.net_alpha,
        "msg_bytes": c.msg_bytes * m.net_beta,
        "collectives": c.collectives * m.w_collective,
        "collective_bytes": c.collective_bytes * m.net_beta,
        "remote_gets": c.remote_gets * m.w_remote_get,
        "remote_puts": c.remote_puts * m.w_remote_put,
        "remote_acc_int": c.remote_acc_int * m.w_remote_acc_int,
        "remote_acc_float": c.remote_acc_float * m.w_remote_acc_float,
        "remote_bytes": c.remote_bytes * m.net_beta,
        "flushes": c.flushes * m.w_flush,
    }
    return {k: v for k, v in parts.items() if v}


class OldTracer(tracer.Tracer):
    """Snapshots as ``PerfCounters`` copies, its own lane clock."""

    def on_superstep_begin(self, index, befores) -> None:
        rt = self.rt
        self._ss_t0 = rt.time
        self._ss_befores = [rt.machine.time(c) for c in rt.proc_counters]
        self._ss_snaps = [PerfCounters(**old_to_dict(c))
                          for c in rt.proc_counters]

    def on_superstep_end(self, index, spans, stall) -> None:
        rt = self.rt
        deltas = [c - s for c, s in zip(rt.proc_counters, self._ss_snaps)]
        span = max(spans) if spans else 0.0
        label = getattr(rt, "_label", "") or f"superstep-{index}"
        self._emit("superstep", ts=self._ss_t0, dur=span, label=label,
                   data={"index": int(index),
                         "spans": [float(s) for s in spans],
                         "deltas": [old_nonzero(d) for d in deltas],
                         "stall": float(stall)})
        t = self._ss_t0 + span
        if stall > 0:
            self._emit("stall", ts=t, dur=stall, label="recovery-stall",
                       data={"index": int(index)})
            t += stall
        self._emit("barrier", ts=t, dur=rt.machine.w_barrier,
                   label="barrier", data={"barriers": rt.P})
        self._ss_befores = []
        self._ss_snaps = []


class OldRollup(sinks.RollupSink):
    """The fold's per-step accounting as it was."""

    def _on_step(self, ev) -> None:
        deltas = ev.data["deltas"]
        counters: dict = {}
        for d in deltas:
            for k, v in d.items():
                counters[k] = counters.get(k, 0) + v
        step = {"index": ev.data["index"], "kind": ev.kind,
                "label": ev.label, "ts": ev.ts, "time": ev.dur,
                "counters": counters}
        self._steps.append(step)
        self._nbytes += 64 + old_value_nbytes(step)
        self._mark()
        agg = self._phases.get(ev.label)
        if agg is None:
            self._phase_order.append(ev.label)
            agg = self._phases[ev.label] = {"label": ev.label, "events": 0,
                                            "time": 0.0, "counters": {}}
            self._nbytes += 256
        agg["events"] += 1
        agg["time"] += ev.dur
        for k, v in counters.items():
            agg["counters"][k] = agg["counters"].get(k, 0) + v
        for d in deltas:
            for k, v in d.items():
                self._totals[k] = self._totals[k] + v
        spans = ev.data["spans"]
        dur = ev.dur
        bl = (max(range(len(spans)), key=lambda t: spans[t]) if spans else 0)
        delta = deltas[bl] if bl < len(deltas) else {}
        parts = old_comm_parts(self.tracer.rt.machine, PerfCounters(**delta))
        cm = min(sum(parts.get(k, 0.0) for k in sinks.COMM_COUNTERS), dur)
        stalls = ev.data.get("stalls")
        inj = (min(stalls[bl], dur - cm)
               if stalls and bl < len(stalls) else 0.0)
        cp = dur - cm - inj
        self._compute += cp
        self._comm += cm
        self._injected += inj
        P = len(self._lane_busy)
        for t in range(P):
            s = min(spans[t], dur) if t < len(spans) else 0.0
            self._lane_busy[t] += s
            self._lane_idle[t] += dur - s
        if bl < P:
            self._lane_critical[bl] += dur
        interval = {"index": ev.data["index"], "kind": ev.kind,
                    "label": ev.label, "lane": bl, "time": dur,
                    "compute": cp, "comm": cm, "injected": inj}
        self._intervals.append(interval)
        self._nbytes += 64 + old_value_nbytes(interval)
        self._mark()


# -- one cell, both paths ---------------------------------------------------------

SINKS = {
    "buffer": lambda rollup: None,
    "rollup": lambda rollup: [rollup()],
    "buffer+rollup": lambda rollup: [sinks.BufferSink(), rollup()],
    "sampling": lambda rollup: [sinks.SamplingSink(max_events=48, seed=2)],
}


def _observe(cell: dict, sink: str) -> dict:
    rt, tr, _, result = driver.run_traced(
        sinks=SINKS[sink](sinks.RollupSink), **cell)
    fold = tr.fold()
    seen = {"rollup": _dumps(fold.rollup()),
            "totals": fold.traced_totals().to_dict(),
            "peak": tr.peak_sink_bytes,
            "sink_peaks": [s.peak_nbytes for s in tr.sinks],
            "time": rt.time}
    if tr.find_sink(sinks.BufferSink) is not None:
        seen["events"] = to_jsonl_lines(tr)
    return seen


def _observe_old(monkeypatch, cell: dict, sink: str) -> dict:
    with monkeypatch.context() as m:
        # SM regions build their deltas through nonzero_delta
        m.setattr(PerfCounters, "nonzero_delta",
                  lambda c, before: old_nonzero(c - PerfCounters(**before)))
        # Tracer.fold and SamplingSink build their rollups by these names
        m.setattr(tracer, "RollupSink", OldRollup)
        m.setattr(sinks, "RollupSink", OldRollup)
        # every sink sizes its rows and events by these names
        m.setattr(events, "approx_value_nbytes", old_value_nbytes)
        m.setattr(sinks, "approx_value_nbytes", old_value_nbytes)

        def attach(rt, graph=None, sinks=None):
            rt.tracer = OldTracer(rt, graph=graph, sinks=sinks)
            return rt.tracer

        m.setattr(driver, "attach_tracer", attach)
        rt, tr, _, result = driver.run_traced(
            sinks=SINKS[sink](OldRollup), **cell)
        fold = tr.fold()
        assert isinstance(fold, OldRollup)
        seen = {"rollup": _dumps(fold.rollup()),
                "totals": fold.traced_totals().to_dict(),
                "peak": tr.peak_sink_bytes,
                "sink_peaks": [s.peak_nbytes for s in tr.sinks],
                "time": rt.time}
        if tr.find_sink(sinks.BufferSink) is not None:
            seen["events"] = to_jsonl_lines(tr)
    return seen


DM_CELLS = [
    dict(algorithm=a, variant=v, dm=True, dataset=d, n=160, P=P, **extra)
    for a, v in (("sssp", "push"), ("sssp", "pull"), ("bfs", "pull"),
                 ("pagerank", "rma-push"), ("pagerank", "mp"))
    for d, P, extra in (("road", 4, {"cache_scale": 0}),
                        ("er", 3, {}),                       # cache sim
                        ("road", 4, {"faults": True, "cache_scale": 0}),
                        ("comm", 2, {"faults": True, "fault_seed": 3}))
]
SM_CELLS = [
    dict(algorithm=a, variant=v, dataset="er", n=160, P=4, **extra)
    for a in ("pagerank", "bfs", "sssp", "cc") for v in ("push", "pull")
    for extra in ({}, {"faults": True, "cache_scale": 0})
]


def _id(cell: dict) -> str:
    flags = "".join(f"-{k}" for k in ("faults",) if cell.get(k))
    return (f"{'dm' if cell.get('dm') else 'sm'}-{cell['algorithm']}-"
            f"{cell['variant']}-{cell['dataset']}-P{cell['P']}"
            f"-c{cell.get('cache_scale', 64)}{flags}")


@pytest.mark.parametrize("sink", ("buffer", "rollup"))
@pytest.mark.parametrize("cell", DM_CELLS + SM_CELLS, ids=_id)
def test_same_trace_as_the_old_path(monkeypatch, cell, sink):
    got = _observe(cell, sink)
    want = _observe_old(monkeypatch, cell, sink)
    assert got == want


@pytest.mark.parametrize("sink", ("buffer+rollup", "sampling"))
@pytest.mark.parametrize("cell", [DM_CELLS[6], DM_CELLS[9], SM_CELLS[2]],
                         ids=_id)
def test_sink_mixes(monkeypatch, cell, sink):
    got = _observe(cell, sink)
    want = _observe_old(monkeypatch, cell, sink)
    assert got == want


# -- the pieces, on their own -------------------------------------------------------

def _random_counters(rng, n: int) -> list[PerfCounters]:
    out = []
    for _ in range(n):
        vals = rng.integers(0, 5, len(NAMES)) * (rng.random(len(NAMES)) < 0.4)
        out.append(PerfCounters(**dict(zip(NAMES, vals.tolist()))))
    return out


def test_to_dict_is_the_fields_in_order():
    c = _random_counters(np.random.default_rng(0), 1)[0]
    assert list(c.to_dict()) == list(NAMES)
    assert c.to_dict() == old_to_dict(c)
    assert c.copy() == c and c.copy() is not c


@pytest.mark.parametrize("seed", range(3))
def test_nonzero_delta_matches_subtraction(seed):
    rng = np.random.default_rng(seed)
    a, b = _random_counters(rng, 2)
    before = b.to_dict()
    # negative fields included: a need not dominate b
    assert a.nonzero_delta(before) == old_nonzero(a - b)
    assert list(a.nonzero_delta(before)) == list(old_nonzero(a - b))


class _Tag(str):
    pass


def test_value_nbytes_matches_the_walk():
    """The bulk charges of scalar and string items equal the walk, and
    subclasses, tuples, NumPy scalars and nesting fall back to it."""
    from collections import OrderedDict
    from enum import IntEnum

    Level = IntEnum("Level", "LOW HIGH")
    leaves = [0, -3, 2.5, True, None, "", "window", _Tag("tag"),
              np.int64(4), np.float32(1.5), Level.HIGH]
    values = [{}, [], (), leaves, tuple(leaves), [1, 2.0, None, False],
              {"a": 1, "bb": 2.0, "ccc": None, "d": True},
              {"owner": 1, "window": "dmpr.rank", "dtype": None},
              {"tag": _Tag("x")}, OrderedDict(a=1, b="two"),
              {"deltas": [{"reads": 3}, {}], "spans": [1.0, 2.0],
               "detail": [0, "drop", (1, "x")]},
              [[1, 2], {"k": [None, "v"]}, "s"], "plain", 7, None]
    for v in values:
        assert approx_value_nbytes(v) == old_value_nbytes(v), v


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_comm_time_matches_the_itemized_terms(name):
    m = MACHINES[name]
    rng = np.random.default_rng(len(name))
    for c in _random_counters(rng, 50):
        delta = old_nonzero(c)
        parts = old_comm_parts(m, PerfCounters(**delta))
        want = sum(parts.get(k, 0.0) for k in sinks.COMM_COUNTERS)
        got = m.comm_time(delta)
        assert got == want and type(got) is type(want)
        assert {k: v for k, v in m.time_parts(c).items()
                if k in sinks.COMM_COUNTERS} == old_comm_parts(m, c)


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_comm_weights_are_the_comm_terms_of_time(name):
    """``time`` of the communication fields alone adds the same
    products in the same order as ``comm_time``: the table prices each
    counter with ``time``'s own weight."""
    m = MACHINES[name]
    rng = np.random.default_rng(7 + len(name))
    for c in _random_counters(rng, 50):
        delta = {k: v for k, v in old_nonzero(c).items()
                 if k in sinks.COMM_COUNTERS}
        assert m.time(PerfCounters(**delta)) == m.comm_time(delta)
