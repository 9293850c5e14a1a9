"""Batched pull Δ-Stepping against the interpreted kernel, cell by cell.

The batched pull body lays out each thread's unsettled rows once and
reuses them while the ``dist > b*delta`` mask they were built from is
unchanged; a zero-weight edge can settle a vertex on ``b*delta`` inside
an epoch, so the integer weights below (0..3) are the cells that see a
mask change.  Every cell compares each thread's counters, the simulated
time, ``dist`` and the inner iteration count with the interpreter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.sssp_delta import sssp_delta
from repro.generators import erdos_renyi
from repro.graph.builder import from_edges
from repro.observability.hwcounters import equip_cache_sim
from repro.runtime.sm import SMRuntime
from repro.streams.kernels import sssp_delta_batched

N = 400


def _graph(weights: str, seed: int):
    """ER(N, d_bar=4): uniform weights on [1, 100), integer weights
    0..3, no weights, or a directed copy with integer weights 1..4."""
    if weights in ("uniform", "none"):
        return erdos_renyi(N, d_bar=4.0, seed=seed,
                           weighted=weights == "uniform")
    edges = erdos_renyi(N, d_bar=4.0, seed=seed).edges()
    rng = np.random.default_rng(seed)
    if weights == "int0-3":
        return from_edges(N, edges, rng.integers(0, 4, len(edges)))
    # both arcs of each pair, with independent weights
    arcs = np.concatenate([edges, edges[:, ::-1]])
    return from_edges(N, arcs, rng.integers(1, 5, len(arcs)), directed=True)


def _run(kernel, g, P: int, cache_scale: int):
    rt = SMRuntime(g, P)
    if cache_scale:
        equip_cache_sim(rt, cache_scale=cache_scale)
    res = kernel(g, rt, source=0, direction="pull")
    return rt, res


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("cache_scale", [0, 64])
@pytest.mark.parametrize("P", [1, 3, 4, 8])
@pytest.mark.parametrize("weights", ["uniform", "int0-3", "none", "directed"])
def test_batched_pull_matches_interpreted(weights, P, cache_scale, seed):
    g = _graph(weights, seed)
    rt_i, res_i = _run(sssp_delta, g, P, cache_scale)
    rt_b, res_b = _run(sssp_delta_batched, g, P, cache_scale)
    assert res_i.epochs > 1
    assert [c.to_dict() for c in rt_b.thread_counters] == \
        [c.to_dict() for c in rt_i.thread_counters]
    assert rt_b.time == rt_i.time
    assert res_b.dist.tobytes() == res_i.dist.tobytes()
    assert res_b.inner_iterations == res_i.inner_iterations
    assert res_b.epoch_times == res_i.epoch_times
