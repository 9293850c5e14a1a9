"""The benchmark's three workloads and the cell runner.

A workload is a fixed list of cells (algorithm, variant) run through
:func:`repro.observability.driver.run_traced` on one configuration --
the same entry point ``repro trace`` uses, so every cell pays instance
generation, runtime set-up, the kernel, the repro tracer and (where the
workload exports) ``write_outputs``.  Nothing here imports ``repro`` at
module load: ``setup_s`` times that import.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    algorithm: str
    variant: str

    @property
    def name(self) -> str:
        return f"{self.algorithm}/{self.variant}"


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``run_traced`` keyword arguments shared by every cell
    config: dict
    cells: tuple[Cell, ...]
    #: repro tracer: None (off), "buffer" (default sink), "rollup"
    tracer: str | None
    #: run ``write_outputs`` (JSONL, Chrome, metrics, flame) per cell
    export: bool
    #: kernel modules the cells dispatch to (imported during set-up)
    modules: tuple[str, ...]


_SM_CELLS = tuple(Cell(a, v) for a in ("pagerank", "bfs", "sssp", "cc")
                  for v in ("push", "pull"))
_SM_KERNELS = ("repro.algorithms.pagerank", "repro.algorithms.bfs",
               "repro.algorithms.sssp_delta",
               "repro.algorithms.connected_components")

#: the reason for each workload is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload(
        name="table1-cachesim",
        config=dict(dataset="er", n=2000, P=4, seed=7, iterations=5,
                    cache_scale=64, engine="interpreted"),
        cells=_SM_CELLS, tracer="buffer", export=True,
        modules=_SM_KERNELS),
    Workload(
        name="batched-100k",
        config=dict(dataset="er", n=100000, P=4, seed=7, iterations=5,
                    cache_scale=0, engine="batched"),
        cells=_SM_CELLS, tracer=None, export=False,
        modules=("repro.streams.kernels",)),
    Workload(
        name="dm-road",
        # 40x40 lattice: BFS from 0 reaches 1566 vertices at depth 76;
        # a pass is short enough for ~6 passes per 30 s run
        config=dict(dm=True, dataset="road", n=1600, P=4, seed=7,
                    iterations=5, cache_scale=0),
        cells=(Cell("bfs", "push"), Cell("bfs", "pull"),
               Cell("sssp", "push"), Cell("sssp", "pull"),
               Cell("pagerank", "rma-push"), Cell("pagerank", "rma-pull")),
        tracer="rollup", export=False,
        modules=("repro.algorithms.dm_bfs", "repro.algorithms.dm_sssp",
                 "repro.algorithms.dm_pagerank")),
)}

#: warm-up cell size: tiny, so set-up measures import and first-call cost
WARM_UP = {"n": 96, "iterations": 1}


def run_cell(w: Workload, cell: Cell, out_dir: str, **overrides):
    """Run one cell; returns ``(rt, tracer, result)``.

    ``overrides`` replace configuration keys (the warm-up shrinks
    ``n``).  Module attributes are looked up at call time, so wrappers
    the traced pass installs are the ones called.
    """
    from repro.observability import driver, export, sinks

    config = dict(w.config, **overrides)
    sink_list = [sinks.RollupSink()] if w.tracer == "rollup" else None
    rt, tracer, _, result = driver.run_traced(
        cell.algorithm, cell.variant, sinks=sink_list,
        traced=w.tracer is not None, **config)
    if w.export:
        export.write_outputs(tracer, os.path.join(out_dir, w.name),
                             flame=True)
    return rt, tracer, result


def warm_up(w: Workload, out_dir: str) -> None:
    """Import ``repro`` and the workload's kernels, run one tiny cell."""
    import importlib

    import repro.observability.driver  # noqa: F401
    for module in w.modules:
        importlib.import_module(module)
    run_cell(w, w.cells[0], out_dir, **WARM_UP)


def sim_ops(rt) -> int:
    """Simulated reads + writes + atomics + locks of one finished cell."""
    c = rt.total_counters()
    return int(c.reads + c.writes + c.atomics + c.locks)
