"""Differential certification of the batched stream engine.

The contract of :mod:`repro.streams` is *byte identity*: running a
kernel through the batched engine must produce exactly the counters,
phase rollup, simulated time, and result arrays of the interpreted
per-element kernel -- not approximately, not within tolerance.  These
tests run every ported kernel on every generator family in both
directions and compare the two engines field by field, under both the
flat counting memory (the analytic path) and the trace-driven cache
simulator (the merged ``access_batch`` path).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.kernels import KERNELS
from repro.observability.driver import run_traced
from repro.observability.export import metrics_rollup

#: the kernels with a batched entry.  Only PageRank's runs code of its
#: own; the BFS, SSSP and CC entries call the interpreted kernels, so
#: their cells check the entries' wiring, and tests/test_sm_level_bodies.py
#: certifies the array phases those kernels run under both engines
ALGORITHMS = [k.name for k in KERNELS if k.batched]
DATASETS = ("er", "rmat", "road", "comm")
VARIANTS = ("push", "pull")


def _result_arrays(algorithm: str, result) -> list[np.ndarray]:
    """The output arrays a kernel is judged on (not timing metadata)."""
    return {
        "pagerank": lambda r: [r.ranks],
        "bfs": lambda r: [r.parent, r.level],
        "sssp": lambda r: [r.dist],
        "cc": lambda r: [r.labels],
    }[algorithm](result)


def _run(algorithm: str, variant: str, dataset: str, engine: str,
         cache_scale: int = 0):
    rt, tracer, _resolved, result = run_traced(
        algorithm, variant=variant, dataset=dataset, n=96, iterations=5,
        cache_scale=cache_scale, engine=engine)
    return rt, tracer, result


def _fingerprint(rt, tracer) -> dict:
    """Everything observable about a traced run, JSON-normalized."""
    traced, actual = tracer.reconcile()
    roll = metrics_rollup(tracer)
    return {
        "time": rt.time,
        "traced": traced.to_dict(),
        "actual": actual.to_dict(),
        "totals": roll["totals"],
        "phases": roll["phases"],
    }


class TestCounterIdentity:
    """Flat counting memory: the analytic fast path must land on the
    per-call interpreter's counters bit for bit."""

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_batched_matches_interpreted(self, algorithm, variant, dataset):
        rt_i, tr_i, res_i = _run(algorithm, variant, dataset, "interpreted")
        rt_b, tr_b, res_b = _run(algorithm, variant, dataset, "batched")
        fp_i, fp_b = _fingerprint(rt_i, tr_i), _fingerprint(rt_b, tr_b)
        assert fp_i["traced"] == fp_i["actual"], "interpreted reconcile"
        assert fp_b["traced"] == fp_b["actual"], "batched reconcile"
        # canonical JSON so a failure shows *which* field drifted
        assert json.dumps(fp_b, sort_keys=True) == \
            json.dumps(fp_i, sort_keys=True)
        for a_i, a_b in zip(_result_arrays(algorithm, res_i),
                            _result_arrays(algorithm, res_b)):
            assert np.array_equal(a_i, a_b)


class TestCacheSimIdentity:
    """Trace-driven cache simulator: the merged ``access_batch`` path
    must see exactly the address stream of the per-call interpreter."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_simulated_misses_identical(self, algorithm, variant):
        rt_i, tr_i, _ = _run(algorithm, variant, "er", "interpreted",
                             cache_scale=64)
        rt_b, tr_b, _ = _run(algorithm, variant, "er", "batched",
                             cache_scale=64)
        fp_i, fp_b = _fingerprint(rt_i, tr_i), _fingerprint(rt_b, tr_b)
        assert fp_b["traced"] == fp_b["actual"], "batched reconcile"
        assert json.dumps(fp_b, sort_keys=True) == \
            json.dumps(fp_i, sort_keys=True)
        # the cache-sim columns must actually be exercised, or this
        # test certifies nothing
        assert fp_b["totals"]["l1_misses"] > 0


class TestEventTaxonomy:
    """The tracer's event stream -- not just the totals -- must keep the
    same taxonomy: same kinds, same per-kind counts, same phase labels
    in the same order."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_event_kinds_and_phases(self, algorithm, variant):
        _, tr_i, _ = _run(algorithm, variant, "er", "interpreted")
        _, tr_b, _ = _run(algorithm, variant, "er", "batched")

        def taxonomy(tracer):
            kinds: dict[str, int] = {}
            for ev in tracer.events:
                kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
            phases = [p["label"] for p in metrics_rollup(tracer)["phases"]]
            return kinds, phases

        assert taxonomy(tr_b) == taxonomy(tr_i)


class TestEffectsReconciliation:
    """The static write-effect golden must cover the batched kernels'
    dynamic footprints too (the recorder is a memory proxy, so batched
    streams reach it through the element-wise lowering)."""

    @pytest.fixture(scope="class")
    def cells(self):
        from repro.observability.footprint import reconcile_effects

        return {engine: reconcile_effects(n=64, iterations=2, engine=engine)
                for engine in ("interpreted", "batched")}

    def test_batched_footprints_covered(self, cells):
        batched = cells["batched"]
        assert len(batched) == 14
        bad = [c for c in batched if not c.ok]
        assert bad == [], "\n".join(
            f"{c.algorithm}/{c.variant} dm={c.dm}: traced {c.missing} "
            f"missing from static set {c.static}" for c in bad)

    def test_engines_trace_the_same_footprints(self, cells):
        def traced(engine):
            return [(c.algorithm, c.variant, c.dm, c.traced)
                    for c in cells[engine]]

        assert len(cells["interpreted"]) == 14
        assert all(c.traced for c in cells["interpreted"])
        assert traced("batched") == traced("interpreted")


class TestEngineValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            run_traced("pagerank", engine="vectorised")

    def test_unported_variant_rejected(self):
        with pytest.raises(ValueError, match="no batched kernel"):
            run_traced("bfs", variant="switching", engine="batched")

    def test_dm_is_a_passthrough(self):
        # DM kernels already batch their communication per superstep;
        # the batched engine runs them unchanged rather than erroring
        rt, tracer, _, _ = run_traced("pagerank", dm=True, engine="batched",
                                      cache_scale=0)
        traced, actual = tracer.reconcile()
        assert traced.to_dict() == actual.to_dict()
