"""Hardware-counter attribution for traced runs (the paper's Table 1).

The paper explains *why* push beats pull (or vice versa) with PAPI
cache counters: pull variants issue random reads of neighbor state
while push variants stream adjacency arrays, so the two directions
show very different L1/L2/L3/TLB miss columns (Section 6.1, Table 1).
The repo has carried a trace-driven cache/TLB simulator since the
seed (:mod:`repro.machine.cache` behind
:class:`~repro.machine.memory.CacheSimMemory`), but traced runs used
the analytic :class:`~repro.machine.memory.CountingMemory`, whose
miss estimates round to zero on the small stand-in instances -- trace
spans carried no cache columns at all.

:func:`equip_cache_sim` closes that gap: it shrinks the runtime's
machine geometry (the same ``MachineSpec.scaled`` convention every
experiment uses to restore the out-of-cache regime, DESIGN.md §2) and
swaps in a :class:`CacheSimMemory` with one private L1/L2/TLB per
lane -- L3 shared for SM threads, private per rank for DM processes
(separate nodes).  From then on every region/superstep delta the
tracer snapshots carries exact per-lane miss counts, and
:meth:`Tracer.reconcile` covers them like any other
:class:`~repro.machine.counters.PerfCounters` field.

The rollup's ``cache`` view renders the per-phase cache columns the
way Table 1 does; :func:`miss_asymmetry` extracts the push-vs-pull
miss-rate comparison the paper builds its direction arguments on.
"""

from __future__ import annotations

from repro.machine.memory import CacheSimMemory

#: the PerfCounters fields that come from the cache/TLB simulation
CACHE_COUNTERS = ("l1_misses", "l2_misses", "l3_misses", "tlb_d_misses")

#: Table-1 column order: memory traffic, then the miss hierarchy
TABLE1_COLUMNS = ("reads", "writes") + CACHE_COUNTERS

#: default cache-shrink factor for traced runs (matches ``repro run``)
DEFAULT_CACHE_SCALE = 64


def equip_cache_sim(rt, cache_scale: int = DEFAULT_CACHE_SCALE
                    ) -> CacheSimMemory:
    """Re-equip a runtime with a trace-driven cache simulation.

    Scales the runtime's machine geometry down by ``cache_scale`` and
    installs a fresh :class:`CacheSimMemory` over the scaled hierarchy
    with one lane per simulated thread/rank.  DM runtimes get private
    L3s (ranks live on different nodes); SM threads share one L3 slice
    (the paper's Xeons).  Call before running the kernel -- the new
    model starts cold and registers arrays on first use.
    """
    is_dm = hasattr(rt, "superstep")
    if cache_scale and cache_scale > 1:
        rt.machine = rt.machine.scaled(cache_scale)
    mem = CacheSimMemory(rt.machine.hierarchy, n_threads=rt.P,
                         shared_l3=not is_dm)
    rt.mem = mem
    counters = rt.proc_counters if is_dm else rt.thread_counters
    mem.set_counters(counters[0])
    return mem


def miss_rates(counters: dict) -> dict:
    """Per-read miss rates for one counter dict (cell, phase, or run)."""
    reads = counters.get("reads", 0)
    if not reads:
        return {k: 0.0 for k in CACHE_COUNTERS}
    return {k: counters.get(k, 0) / reads for k in CACHE_COUNTERS}


def miss_asymmetry(push_counters: dict, pull_counters: dict) -> dict:
    """Compare push vs pull miss rates (paper Section 6.1).

    Returns ``{counter: pull_rate - push_rate}`` -- positive values
    mean the pull variant misses more per read, the signature of its
    random neighbor-state reads vs push's streamed adjacency scans.
    """
    push = miss_rates(push_counters)
    pull = miss_rates(pull_counters)
    return {k: pull[k] - push[k] for k in CACHE_COUNTERS}


__all__ = [
    "CACHE_COUNTERS",
    "DEFAULT_CACHE_SCALE",
    "TABLE1_COLUMNS",
    "equip_cache_sim",
    "miss_asymmetry",
    "miss_rates",
]
