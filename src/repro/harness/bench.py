"""The committed perf baseline ``BENCH_trace.json`` (``repro-bench/3``).

Two cell families derived from one sweep:

* **baseline** -- the original deterministic small-graph grid: PR /
  BFS / SSSP x push / pull x SM / DM on one seeded ER instance, each
  cell run under a tracer with the trace-driven cache simulation
  equipped (:func:`repro.observability.hwcounters.equip_cache_sim`),
  so the baseline records, per Table-1/Table-3 cell:

  - the end-to-end simulated ``time_mtu`` and nonzero counter totals,
    **including the L1/L2/L3/TLB miss columns** of the paper's Table 1;
  - the per-phase breakdown (``rt.annotate`` labels with their time and
    counter aggregates) -- the attribution surface ``repro bench diff``
    points at when a metric drifts;
  - the partition edge-cut next to the communication verb counts;
  - the critical-path decomposition (compute / comm / sync / off-path
    idle; the five on-path components sum to ``time_mtu``) and the
    traffic-matrix totals, both verified against the tracer before the
    cell is recorded -- the inputs ``repro bench speedup`` attributes
    winners with;
  - the event-kind counts (trace shape).

  The family runs under either engine (``--engine batched`` swaps in
  the stream kernels); the counters are certified byte-identical, so
  ``repro bench diff`` at zero tolerance against an
  interpreted-generated baseline is the batched engine's drift gate.

* **large** -- a 100x-scale grid (PR / BFS / SSSP / CC x push / pull,
  SM) that only the batched engine can sweep in reasonable time; it
  runs with the analytic miss model (``cache_scale=0``) and pins down
  the batched engine's behavior at a size where per-element Python
  dispatch would dominate.

Everything is seeded and timestamps are simulated, so two sweeps
produce byte-identical files; ``repro bench diff`` compares a fresh
sweep against the committed copy with per-metric tolerances instead of
``cmp``.
"""

from __future__ import annotations

import json
import os

from repro.kernels import DIRECTIONS, KERNELS

#: versioned schema tag of the baseline file
BENCH_SCHEMA = "repro-bench/3"

#: the baseline-family grid: (algorithm, direction) x (sm, dm), over
#: the kernels with a DM and a batched entry, so the family runs on both
#: runtimes under either engine
BENCH_ALGORITHMS = tuple(k.name for k in KERNELS if k.dm and k.batched)

#: one deterministic instance for every baseline cell
BENCH_CONFIG = {"dataset": "er", "n": 96, "P": 4, "seed": 7,
                "iterations": 5, "cache_scale": 64}

#: the large-family grid (SM only; always the batched engine)
LARGE_ALGORITHMS = tuple(k.name for k in KERNELS if k.batched)

#: 100x the baseline vertex count; analytic miss model (cache_scale=0)
LARGE_CONFIG = {"dataset": "er", "n": 9600, "P": 4, "seed": 7,
                "iterations": 5, "cache_scale": 0}


def _run_cell(algorithm: str, variant: str, runtime: str, config: dict,
              family: str, engine: str) -> dict:
    from repro.observability.driver import run_traced
    from repro.observability.sinks import RollupSink

    fold = RollupSink()
    rt, tracer, resolved, _ = run_traced(
        algorithm, variant=variant, dm=(runtime == "dm"),
        dataset=config["dataset"], n=config["n"],
        P=config["P"], seed=config["seed"],
        iterations=config["iterations"],
        cache_scale=config["cache_scale"], engine=engine,
        sinks=[fold])
    totals, actual = tracer.reconcile()
    if totals.to_dict() != actual.to_dict():
        raise RuntimeError(
            f"bench cell {algorithm}/{variant}/{runtime}/{family} "
            f"[{engine}]: tracer reconciliation failed")
    critical = fold.critical()["totals"]
    if not critical["reconciled"]:
        raise RuntimeError(
            f"bench cell {algorithm}/{variant}/{runtime}/{family} "
            f"[{engine}]: critical-path decomposition "
            f"({critical['decomposed_mtu']}) does not sum to the run "
            f"time ({critical['time_mtu']})")
    traffic = fold.traffic()
    for field, count in traffic["totals"].items():
        if count != getattr(totals, field):
            raise RuntimeError(
                f"bench cell {algorithm}/{variant}/{runtime}/{family} "
                f"[{engine}]: traffic matrix {field}={count} does not "
                f"reconcile with the counter total "
                f"{getattr(totals, field)}")
    phases = [{
        "label": p["label"],
        "events": p["events"],
        "time_mtu": p["time"],
        "counters": p["counters"],
    } for p in fold.rollup()["phases"]]
    return {
        "algorithm": algorithm,
        "variant": variant,
        "resolved_variant": resolved,
        "runtime": runtime,
        "family": family,
        "engine": engine,
        "machine": getattr(rt.machine, "name", "?"),
        "time_mtu": rt.time,
        "counters": {k: v for k, v in totals.to_dict().items() if v},
        "phases": phases,
        "cut": tracer.cut,
        "critical": {k: critical[k] for k in
                     ("compute", "comm", "injected_stall", "sync",
                      "recovery_stall", "off_path_idle")},
        "traffic": {k: v for k, v in traffic["totals"].items() if v},
        "events": dict(tracer.kind_counts),
    }


def bench_sweep(engine: str = "interpreted") -> dict:
    """Run the full grid; returns the ``BENCH_trace.json`` document.

    ``engine`` selects the execution engine of the *baseline* family
    (DM cells are an exact passthrough either way); the large family
    always runs batched -- it exists to exercise the batched engine at
    a scale the interpreted kernels cannot sweep quickly.
    """
    cells = []
    for algorithm in BENCH_ALGORITHMS:
        for variant in DIRECTIONS:
            for runtime in ("sm", "dm"):
                cells.append(_run_cell(algorithm, variant, runtime,
                                       BENCH_CONFIG, "baseline", engine))
    for algorithm in LARGE_ALGORITHMS:
        for variant in DIRECTIONS:
            cells.append(_run_cell(algorithm, variant, "sm",
                                   LARGE_CONFIG, "large", "batched"))
    return {"schema": BENCH_SCHEMA, "kind": "trace",
            "config": {"baseline": dict(BENCH_CONFIG),
                       "large": dict(LARGE_CONFIG)},
            "cells": cells}


def write_bench(out: str, engine: str = "interpreted") -> str:
    """Run the sweep and write ``BENCH_trace.json``; returns its path.

    ``out`` is the target ``.json`` file (or a directory that receives
    ``BENCH_trace.json``).
    """
    path = out
    if not out.endswith(".json"):
        path = os.path.join(out, "BENCH_trace.json")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    doc = bench_sweep(engine=engine)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
    return path
