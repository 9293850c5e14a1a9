"""Sort-based vertex-set primitives against the NumPy calls they replace.

``unique_ids`` stands in for ``np.unique`` on vertex ids, ``first_claim``
finds first occurrences with a stable argsort instead of
``np.unique(..., return_index=True)``, and ``ThreadLocalFrontiers``
converts array fragments with one ``tolist``.  Each must give exactly
what the NumPy formulation gives: values, dtype and order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builder import run_starts, unique_ids
from repro.la.spmv import first_claim
from repro.runtime.frontier import ThreadLocalFrontiers

DTYPES = (np.int32, np.int64)


def _cases(dtype):
    rng = np.random.default_rng(5)
    yield np.empty(0, dtype=dtype)
    yield np.array([7], dtype=dtype)
    yield np.full(9, 4, dtype=dtype)
    yield np.array([5, 1, 5, 3, 1, 1, 9, 0, 9], dtype=dtype)
    yield np.arange(20, dtype=dtype)[::-1]
    for size, high in ((50, 10), (1000, 300), (4096, 5000)):
        yield rng.integers(0, high, size).astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_unique_ids_matches_np_unique(dtype):
    for ids in _cases(dtype):
        got, want = unique_ids(ids), np.unique(ids)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_stable_run_starts_match_return_index(dtype):
    for ids in _cases(dtype):
        order = np.argsort(ids, kind="stable")
        _, want = np.unique(ids, return_index=True)
        assert np.array_equal(order[run_starts(ids[order])], want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_first_claim_matches_return_index(dtype):
    rng = np.random.default_rng(11)
    for targets in _cases(dtype):
        eligible = rng.random(len(targets)) < 0.7
        pos = np.flatnonzero(eligible)
        _, fi = np.unique(targets[pos], return_index=True)
        want = np.sort(pos[fi])
        got = first_claim(targets, eligible)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _merge_reference(frags: list[list[int]], dedup: bool) -> np.ndarray:
    """The per-element fragment merge ``ThreadLocalFrontiers`` replaced."""
    parts = [np.asarray(f, dtype=np.int64) for f in frags if f]
    if not parts:
        return np.empty(0, dtype=np.int64)
    merged = np.concatenate(parts)
    return np.unique(merged) if dedup else np.sort(merged)


@pytest.mark.parametrize("dedup", [True, False])
def test_frontier_fragments_match_per_element_merge(dedup):
    rng = np.random.default_rng(2)
    P = 3
    front = ThreadLocalFrontiers(P)
    ref: list[list[int]] = [[] for _ in range(P)]
    for step in range(40):
        t = int(rng.integers(P))
        if step % 3 == 0:
            v = int(rng.integers(100))
            front.add(t, np.int64(v))
            ref[t].append(v)
        else:
            vs = rng.integers(0, 100, int(rng.integers(0, 12)))
            vs = vs.astype(DTYPES[step % 2])
            front.extend(t, vs)
            ref[t].extend(int(v) for v in vs)
    assert front.sizes() == [len(f) for f in ref]
    assert all(type(v) is int for f in front.frags for v in f)
    got, want = front.merge(dedup=dedup), _merge_reference(ref, dedup)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert front.sizes() == [0] * P
    assert len(front.merge(dedup=dedup)) == 0
