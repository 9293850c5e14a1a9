"""Tests for the static effect-inference pass (ANL1xx)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.effect_report import render_text, report_to_json
from repro.analysis.effects import KERNELS, analyze_effects, effects_source

REPO = Path(__file__).parent.parent
GOLDEN = REPO / "EFFECTS.json"


@pytest.fixture(scope="module")
def report():
    return analyze_effects()


def _rules(rep):
    return [f.rule for f in rep.findings]


class TestCleanTree:
    def test_all_17_kernels_have_signatures(self, report):
        assert len(report.kernels) == len(KERNELS) == 17
        for name, keff in report.kernels.items():
            assert keff.phases, f"{name}: no phases inferred"
            assert keff.write_set, f"{name}: empty write set"

    @pytest.mark.parametrize("name", [
        "bc_approx", "bc_weighted", "betweenness_centrality", "bfs",
        "connected_components", "dm_bfs", "dm_sssp_delta",
        "frontier_exploit_coloring", "pagerank", "prim_mst", "sssp_delta"])
    def test_push_pull_kernels_keep_a_phase_on_each_side(self, report, name):
        # the pass follows calls, not function references: a body reached
        # only through a passed-in function drops its phase from here
        declared = {p.declared for p in report.kernels[name].phases}
        assert {"push", "pull"} <= declared, \
            f"{name}: declared phases {sorted(map(str, declared))}"

    def test_zero_false_direction_or_ownership_findings(self, report):
        errors = report.errors()
        assert errors == [], "\n".join(str(f) for f in errors)
        assert report.ok

    def test_dm_kernels_have_comm_footprints(self, report):
        for name in ("dm_pagerank", "dm_bfs", "dm_sssp_delta",
                     "dm_triangle_count"):
            comm = [p.comm for p in report.kernels[name].phases if p.comm]
            assert comm, f"{name}: no DM verb footprint inferred"

    def test_direction_taxonomy_on_pagerank(self, report):
        phases = {p.label: p for p in report.kernels["pagerank"].phases}
        assert phases["pr.pull"].inferred == "pull"
        assert phases["pr.push"].inferred == "push"
        # PA's local phase writes only the thread's own block
        assert phases["pr.pa-local"].inferred == "local"
        assert phases["pr.pa-local"].writes == ["pr.acc.block*"]

    def test_atomic_verdicts_on_pagerank(self, report):
        phases = {p.label: p for p in report.kernels["pagerank"].phases}
        push = phases["pr.push"].atomics[0]
        assert (push["verb"], push["verdict"]) == ("cas", "needed")
        remote = phases["pr.pa-remote"].atomics[0]
        assert remote["verdict"] == "batched"

    def test_golden_report_is_current(self, report):
        """EFFECTS.json must match a fresh inference; regenerate with
        ``python -m repro.analysis.effect_report -o EFFECTS.json``."""
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert report_to_json(report) == golden

    def test_text_rendering_covers_all_kernels(self, report):
        text = render_text(report)
        for name, _, _ in KERNELS:
            assert name in text


class TestSeededBugs:
    """Each seeded-bug kernel trips exactly its rule."""

    def test_anl101_pull_phase_writes_neighbor_state(self):
        src = """
def kernel(g, rt, mem, colors_h):
    def pull_body(t, vs):
        for v in vs:
            nbrs = g.neighbors(v)
            mem.cas(colors_h, idx=nbrs, mode="rand")
    rt.for_each_thread(pull_body)
"""
        assert _rules(effects_source(src)) == ["ANL101"]

    def test_anl101_direction_branch_classification(self):
        src = """
def kernel(g, rt, mem, h, direction):
    def body(t, vs):
        for v in vs:
            nbrs = g.neighbors(v)
            if direction == PULL:
                mem.cas(h, idx=nbrs, mode="rand")
    rt.for_each_thread(body)
"""
        assert _rules(effects_source(src)) == ["ANL101"]

    def test_anl102_unprotected_neighbor_store(self):
        src = """
def kernel(g, rt, mem, h):
    def body(t, vs):
        for v in vs:
            nbrs = g.neighbors(v)
            mem.write(h, idx=nbrs, mode="rand")
    rt.parallel_for(items, body, by_owner=True)
"""
        assert _rules(effects_source(src)) == ["ANL102"]

    def test_anl102_suppressed_by_covering_atomic(self):
        src = """
def kernel(g, rt, mem, h, aux_h):
    def body(t, vs):
        for v in vs:
            nbrs = g.neighbors(v)
            mem.lock(aux_h, idx=nbrs, mode="rand", covers=[(h, nbrs)])
            mem.write(h, idx=nbrs, mode="rand")
    rt.parallel_for(items, body, by_owner=True)
"""
        assert _rules(effects_source(src)) == []

    def test_anl102_suppressed_by_ownership_guard(self):
        src = """
def kernel(g, rt, mem, h, owner):
    def body(t, vs):
        for v in vs:
            nbrs = g.neighbors(v)
            for w in nbrs:
                if owner[w] == t:
                    mem.write(h, idx=w, mode="rand")
    rt.parallel_for(items, body, by_owner=True)
"""
        assert _rules(effects_source(src)) == []

    def test_anl102_sequential_phase_exempt(self):
        src = """
def kernel(g, rt, mem, h):
    def body():
        for v in range(g.n):
            nbrs = g.neighbors(v)
            mem.write(h, idx=nbrs, mode="rand")
    rt.sequential(body)
"""
        assert _rules(effects_source(src)) == []

    def test_anl103_own_indexed_atomic_is_relaxable(self):
        src = """
def kernel(rt, mem, h):
    def body(t, vs):
        for v in vs:
            mem.faa(h, idx=int(v), mode="rand")
    rt.parallel_for(items, body, by_owner=True)
"""
        rep = effects_source(src)
        assert _rules(rep) == ["ANL103"]
        assert "relaxable" in rep.findings[0].message

    def test_anl103_neighbor_atomic_stays_needed(self):
        src = """
def kernel(g, rt, mem, h):
    def body(t, vs):
        for v in vs:
            nbrs = g.neighbors(v)
            mem.faa(h, idx=nbrs, mode="rand")
    rt.parallel_for(items, body, by_owner=True)
"""
        rep = effects_source(src)
        assert _rules(rep) == []
        atomics = rep.kernels["kernel"].phases[0].atomics
        assert atomics[0]["verdict"] == "needed"

    def test_anl104_disjoint_adjacent_phases(self):
        src = """
def kernel(rt, mem, a_h, b_h):
    def phase_a(t, vs):
        mem.write(a_h, idx=vs, mode="rand")
    rt.for_each_thread(phase_a)
    def phase_b(t, vs):
        mem.read(b_h, idx=vs, mode="rand")
        mem.write(b_h, idx=vs, mode="rand")
    rt.for_each_thread(phase_b)
"""
        rep = effects_source(src)
        assert _rules(rep) == ["ANL104"]
        assert rep.allowlist and rep.allowlist[0]["after"] == "phase_a"

    def test_anl104_not_raised_on_overlapping_phases(self):
        src = """
def kernel(rt, mem, a_h):
    def phase_a(t, vs):
        mem.write(a_h, idx=vs, mode="rand")
    rt.for_each_thread(phase_a)
    def phase_b(t, vs):
        mem.read(a_h, idx=vs, mode="rand")
    rt.for_each_thread(phase_b)
"""
        rep = effects_source(src)
        assert _rules(rep) == []
        assert rep.allowlist == []

    def test_anl104_alias_hint_blocks_elision(self):
        src = """
def kernel(rt, mem, a_h, b_h):
    # effects: alias a.blocks* -> b.main
    def phase_a(t, vs):
        mem.write("a.blocks0", idx=vs, mode="rand")
    rt.for_each_thread(phase_a)
    def phase_b(t, vs):
        mem.read("b.main", idx=vs, mode="rand")
        mem.write("b.main", idx=vs, mode="rand")
    rt.for_each_thread(phase_b)
"""
        rep = effects_source(src)
        assert _rules(rep) == []

    def test_anl105_unregistered_window(self):
        src = """
def kernel(g, rt):
    def body(p):
        rt.accumulate(1, [1.0], window="w.acc", idx=[0], dtype="float")
    rt.superstep(body)
"""
        rep = effects_source(src)
        assert _rules(rep) == ["ANL105"]
        assert "register_window" in rep.findings[0].message

    def test_anl105_registered_window_is_clean(self):
        src = """
def kernel(g, rt, acc):
    rt.register_window("w.acc", acc)
    def body(p):
        rt.accumulate(1, [1.0], window="w.acc", idx=[0], dtype="float")
    rt.superstep(body)
"""
        assert _rules(effects_source(src)) == []

    def test_anl105_send_to_wrong_rank(self):
        src = """
def kernel(g, rt, owner, vals):
    def body(p):
        nbrs = g.neighbors(p)
        for q in range(4):
            sel = owner[nbrs] == q
            rt.send(p, vals[sel], nbytes=8, tag="x")
    rt.superstep(body)
"""
        rep = effects_source(src)
        assert _rules(rep) == ["ANL105"]
        assert "non-owner" in rep.findings[0].message

    def test_anl105_send_to_selected_rank_is_clean(self):
        src = """
def kernel(g, rt, owner, vals):
    def body(p):
        nbrs = g.neighbors(p)
        for q in range(4):
            sel = owner[nbrs] == q
            rt.send(q, vals[sel], nbytes=8, tag="x")
    rt.superstep(body)
"""
        assert _rules(effects_source(src)) == []

    def test_disjoint_writers_hint_suppresses_anl102(self):
        src = """
def kernel(g, rt, mem):
    # effects: disjoint-writers k.parent
    def body(t, vs):
        for v in vs:
            nbrs = g.neighbors(v)
            mem.write("k.parent", idx=nbrs, mode="rand")
    rt.parallel_for(items, body, by_owner=True)
"""
        assert _rules(effects_source(src)) == []


class TestHelperExpansion:
    def test_helper_memory_ops_join_the_phase_signature(self):
        src = """
def flush(mem, h, pairs):
    mem.write(h, idx=pairs, mode="rand")

def kernel(rt, mem, h):
    def body(p):
        flush(mem, h, [1, 2])
    rt.superstep(body)
"""
        rep = effects_source(src)
        phase = rep.kernels["kernel"].phases[0]
        assert "h" in phase.writes

    def test_message_derived_writes_are_not_flagged(self):
        # the dm_sssp apply pattern: a helper stores at indices unpacked
        # from message payloads -- unknown provenance, never ANL102
        src = """
def apply(mem, h, pairs):
    for tgt, val in pairs:
        mem.write(h, idx=int(tgt), mode="rand")

def kernel(rt, mem, h):
    def body(p):
        apply(mem, h, rt.inbox("relax"))
    rt.superstep(body)
"""
        assert _rules(effects_source(src)) == []


class TestStreamOps:
    """A ``rand_op``/``seq_op`` in a stream replay is the access the
    equivalent ``mem.<verb>`` call makes: same arrays, same index
    provenance, same inferred direction."""

    MEM = """
def kernel(g, rt, mem, st, off_h, adj_h, dist_h, lvl_h):
    def relax(p):
        vs = rt.owned(p)
        nbrs = g.adj[vs]
        mem.read(off_h, idx=vs, count=2, mode="rand")
        mem.read(adj_h, start=0, count=len(nbrs))
        mem.read(dist_h, idx=nbrs, mode="rand")
        mem.write(dist_h, idx=vs, mode="rand")
{extra_mem}
    rt.superstep(relax)
"""
    STREAM = """
def kernel(g, rt, mem, st, off_h, adj_h, dist_h, lvl_h):
    def relax(p):
        vs = rt.owned(p)
        nbrs = g.adj[vs]
        st.replay([
            rand_op("read", off_h, idx=vs, counts=[2]),
            seq_op("read", adj_h, counts=[len(nbrs)], starts=[0]),
            rand_op("read", dist_h, nbrs),
            rand_op("write", dist_h, idx=vs),
{extra_stream}
        ])
    rt.superstep(relax)
"""

    @staticmethod
    def _signature(src):
        phase = effects_source(src).kernels["kernel"].phases[0].to_json()
        phase.pop("line")
        for atomic in phase["atomics"]:
            atomic.pop("line")
        return phase

    def test_pull_twin(self):
        mem = self._signature(self.MEM.format(extra_mem=""))
        stream = self._signature(self.STREAM.format(extra_stream=""))
        assert mem["inferred"] == "pull"
        assert mem["reads"] == ["adj_h", "dist_h", "off_h"]
        assert stream == mem

    def test_push_twin_with_covers(self):
        mem = self._signature(self.MEM.format(
            extra_mem="        mem.cas(lvl_h, idx=nbrs, "
                      "covers=[(dist_h, nbrs)])"))
        stream = self._signature(self.STREAM.format(
            extra_stream="            rand_op(\"cas\", lvl_h, nbrs, "
                         "covers=[(dist_h, nbrs)]),"))
        assert mem["inferred"] == "push"
        assert mem["atomics"] == [{"verb": "cas", "arrays": ["lvl_h"],
                                   "index": "neighbor",
                                   "verdict": "needed"}]
        assert stream == mem

    LAYOUT = """
def kernel(g, rt, mem, st, layouts, off_h, adj_h, dist_h, lvl_h):
    def relax(p):
        vs = rt.owned(p)
        lay = layouts.of(p, vs)
        st.replay([
            rand_op("read", off_h, idx=vs, counts=[2]),
            seq_op("read", adj_h, counts=[len(lay.pos)], starts=[0]),
            rand_op("read", dist_h, lay.{rows}[lay.own]),
            rand_op("write", dist_h, idx=vs),
        ])
    rt.superstep(relax)
"""

    def test_layout_rows_named_adj_stay_neighbour_valued(self):
        """DM Δ-Stepping's pull layout gathers the rows once and keeps
        them as ``lay.adj``: an index drawn from an attribute named
        ``adj`` is neighbour-valued, as ``g.adj``'s is, so the phase
        still reads as pull.  Under any other name the gather would be
        invisible and the phase would drop to local."""
        mem = self._signature(self.MEM.format(extra_mem=""))
        layout = self._signature(self.LAYOUT.format(rows="adj"))
        hidden = self._signature(self.LAYOUT.format(rows="nbrs"))
        assert layout == mem
        assert hidden["inferred"] == "local"

    def test_dm_sssp_pull_relaxation_reads_neighbours(self, report):
        phase = {p.label: p for p in
                 report.kernels["dm_sssp_delta"].phases}["relax_local"]
        assert (phase.declared, phase.inferred) == ("pull", "pull")
        assert phase.reads == ["dmsssp.adj", "dmsssp.dist",
                               "dmsssp.offsets"]


class TestReconciliation:
    def test_static_write_sets_cover_dynamic_traces(self, report):
        from repro.observability.footprint import reconcile_effects

        cells = reconcile_effects(report=report, n=64, iterations=2)
        assert len(cells) == 14
        bad = [c for c in cells if not c.ok]
        assert bad == [], "\n".join(
            f"{c.algorithm}/{c.variant} dm={c.dm}: traced {c.missing} "
            f"missing from static set {c.static}" for c in bad)

    def test_recorder_sees_through_covers(self):
        from repro.observability.driver import run_traced
        from repro.observability.footprint import FootprintRecorder

        rec = FootprintRecorder()
        run_traced("sssp", variant="push", n=64, iterations=2,
                   cache_scale=0, attach=rec.install)
        # the lock covers= declares the bucket-array store of the
        # (dist, bucket) critical section
        assert "sssp.bidx" in rec.written
        assert "sssp.dist" in rec.written


class TestCLI:
    def test_effects_clean_tree_exit_zero(self, capsys):
        from repro.__main__ import main
        assert main(["analyze", "--effects", "--no-reconcile"]) == 0
        out = capsys.readouterr().out
        assert "effects: 0 error(s)" in out

    def test_effects_json_document(self, capsys):
        from repro.__main__ import main
        assert main(["analyze", "--effects", "--no-reconcile",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-analyze/1"
        assert doc["ok"] is True
        eff = doc["passes"]["effects"]
        assert eff["report"]["schema"] == "repro-effects/1"
        assert len(eff["report"]["kernels"]) == 17

    def test_lint_json_failure_exit_one(self, capsys):
        from repro.__main__ import main
        fixture = str(Path(__file__).parent / "fixtures"
                      / "bad_push_kernel.py")
        rc = main(["analyze", "--lint", "--format", "json", fixture])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["ok"] is False
        assert any(f["rule"] == "ANL002"
                   for f in doc["passes"]["lint"]["findings"])
