"""Chaos schedules pinned across code versions.

The other fault tests check that one seed repeats within one tree.
This file compares against a recorded tree: for every chaos cell of
``repro analyze --faults`` it holds the fault schedule and the
accounting that tree produced, so a refactor of the fault layer that
moves a draw, renames an event, or changes a wait, a counter or the
simulated time fails here.

Cells: every :data:`~repro.analysis.runner.DM_MATRIX` and
:data:`~repro.analysis.runner.SM_MATRIX` cell on the ``er`` and
``road`` instances (n=64, d̄=4, seed 7) at P=4, with the runtime and
checker built as :func:`~repro.analysis.runner.run_cell` builds them.
Plans: each runtime's ``chaos`` plan at fault seeds 0 and 1, once with
``RecoveryConfig()`` and once raw (``recovery=None``).  Per run the
fixture holds the sha256 of ``repr(injector.schedule)``, the schedule
length, the fault stats, ``rt.time`` as a hex float and the nonzero
total counters.  Result arrays are left out: the counters and time already
move with any change to what a kernel computed.

Regenerate only for a change that is meant to move a schedule::

    PYTHONPATH=src python tests/test_fault_schedule_pins.py

:func:`test_alltoallv_waits_are_pinned` pins one more thing, where
``FaultInjector.perturb_alltoallv`` charges its waits; see there.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.dm_race import attach_dm_race_detector
from repro.analysis.race import attach_race_detector
from repro.analysis.runner import (
    DM_MATRIX, SM_MATRIX, _PR_ITERATIONS, default_fault_plans,
    default_sm_fault_plans, instance_graph,
)
from repro.kernels import BY_LABEL, launch
from repro.machine.cost_model import XC30, XC40
from repro.machine.memory import CountingMemory
from repro.observability.driver import run_traced
from repro.observability.export import to_jsonl_lines
from repro.runtime.dm import DMRuntime
from repro.runtime.faults import RecoveryConfig, attach_fault_injector
from repro.runtime.sm import SMRuntime
from repro.runtime.sm_faults import attach_sm_fault_injector

FIXTURE = Path(__file__).parent / "fixtures" / "fault_schedule_pins.json"

P = 4
N = 64
SEEDS = (0, 1)
DATASETS = ("er", "road")
RECOVERY = {"recovery": RecoveryConfig(), "raw": None}

RUNS = [
    (runtime, dataset, algorithm, variant, seed, rec)
    for runtime, matrix in (("dm", DM_MATRIX), ("sm", SM_MATRIX))
    for dataset in DATASETS
    for algorithm, variants in matrix
    for variant in variants
    for seed in SEEDS
    for rec in RECOVERY
]


def _key(run: tuple) -> str:
    runtime, dataset, algorithm, variant, seed, rec = run
    return f"{runtime} {dataset} {algorithm} {variant} seed={seed} {rec}"


@functools.lru_cache(maxsize=None)
def _graph(dataset: str, weighted: bool):
    return instance_graph(dataset, N, 4.0, 7, weighted)


def _runtime(runtime: str, g):
    """The runtime and checker of ``run_cell``, without the tracer."""
    if runtime == "sm":
        m = XC30.scaled(64)
        rt = SMRuntime(g, P=P, machine=m, memory=CountingMemory(m.hierarchy))
        attach_race_detector(rt, track_read_conflicts=False)
    else:
        rt = DMRuntime(g.n, P, machine=XC40.scaled(64))
        attach_dm_race_detector(rt)
    return rt


def observe(run: tuple) -> dict:
    """One chaos run's pinned observables, JSON-ready."""
    runtime, dataset, algorithm, variant, seed, rec = run
    k = BY_LABEL[algorithm]
    g = _graph(dataset, k.weighted)
    rt = _runtime(runtime, g)
    if runtime == "sm":
        plan = dict(default_sm_fault_plans(seed))["chaos"]
        attach = attach_sm_fault_injector
    else:
        plan = dict(default_fault_plans(seed))["chaos"]
        attach = attach_fault_injector
    injector = attach(rt, plan, recovery=RECOVERY[rec])
    launch(k, variant, g, rt, _PR_ITERATIONS["faults"], dm=runtime == "dm")
    counters = {name: v for name, v in rt.total_counters().to_dict().items()
                if v}
    return {
        "schedule": hashlib.sha256(
            repr(injector.schedule).encode()).hexdigest(),
        "events": len(injector.schedule),
        "stats": injector.stats.to_dict(),
        "time": float(rt.time).hex(),
        "counters": counters,
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_chaos_run(pins):
    assert sorted(pins) == sorted(_key(run) for run in RUNS)


@pytest.mark.parametrize("run", RUNS, ids=_key)
def test_schedule_and_accounting_are_pinned(pins, run):
    assert observe(run) == pins[_key(run)]


#: sha256 of the JSONL lines of ``repro trace pagerank --variant mp --dm
#: --faults --fault-seed S`` (er, n=96, P=4, cache scale 64)
ALLTOALLV_TRACES = {
    0: "ce337829a71d28199e125425cea534909c1b126c7ab94a45e01454b9ec88af53",
    1: "bf35d5ab0540d5f978081f96c2865bd4d8758e0abb6edb26421783c756491493",
    2: "910d995fa9f639ab16a4fc65c5906234c29d7bdf7d81c296dab69fbf0c3a59cc",
    3: "55f28045012aee51aa45bcf5776d3b94bee630939f956f8a4125c59c0e02a68b",
}


@pytest.mark.parametrize("fault_seed", sorted(ALLTOALLV_TRACES))
def test_alltoallv_waits_are_pinned(fault_seed):
    """DM PageRank ``mp`` under faults, traced, against a recorded tree.

    ``perturb_alltoallv`` ends the collective with ``rt.time +=
    self.consume_stall()``.  Without that line the stall stays pending
    and the next superstep charges it at its barrier: ``rt.time``,
    stats and schedules stay the same, and only the trace's stall
    events move, so the schedule pins above cannot see it; this trace
    hash does.  The runs also drive each rank's cache simulator under
    faults.  ROADMAP item 5 (``alltoallv`` inside a superstep) moves
    these waits into the barrier stall on purpose and must re-record
    the hashes.
    """
    _, tr, _, _ = run_traced("pagerank", "mp", dm=True, faults=True,
                             fault_seed=fault_seed)
    lines = "\n".join(to_jsonl_lines(tr)).encode()
    assert hashlib.sha256(lines).hexdigest() == ALLTOALLV_TRACES[fault_seed]


if __name__ == "__main__":
    doc = {_key(run): observe(run) for run in RUNS}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(doc)} runs, {sum(v['events'] for v in doc.values())} "
          f"scheduled events -> {FIXTURE}")
