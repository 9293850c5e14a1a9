"""Tests for the static AST lint pass over push/pull kernels."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import lint_file, lint_paths, lint_source

PACKAGE_DIR = Path(__file__).parent.parent / "src" / "repro"
ALGORITHMS_DIR = PACKAGE_DIR / "algorithms"
FIXTURE = Path(__file__).parent / "fixtures" / "bad_push_kernel.py"


def _rules(findings):
    return {f.rule for f in findings}


#: the three direction-chain shapes the lint and effect passes once
#: classified differently; each hides a raw push store (ANL002)
DIRECTION_BRANCH_SHAPES = {
    # stores under `if direction == PUSH:` are push even in a
    # neutrally-named body
    "if-else": """
def kernel(rt, mem, h, val, direction):
    def body(t, vs):
        if direction == PUSH:
            val[vs + 1] = 1
            mem.write(h, idx=vs + 1, mode="rand")
        else:
            val[vs] = 1
            mem.write(h, idx=vs, mode="rand")
    rt.for_each_thread(body)
""",
    # each launch runs the `body` bound at its own statement, not the
    # last def of that name in the scope
    "same-named-bodies": """
def kernel(rt, mem, h, val, direction):
    if direction == PUSH:
        def body(t, vs):
            val[vs + 1] = 1
            mem.write(h, idx=vs + 1, mode="rand")
        rt.for_each_thread(body)
    else:
        def body(t, vs):
            val[vs] = 1
            mem.write(h, idx=vs, mode="rand")
        rt.for_each_thread(body)
""",
    # PageRank's shape: both directions named, so the trailing else is
    # neither and the body's name classifies it
    "if-pull-elif-push-else": """
def kernel(rt, mem, h, acc, direction):
    if direction == PULL:
        def pull_body(t, vs):
            mem.read(h, idx=vs)
        rt.for_each_thread(pull_body)
    elif direction == PUSH:
        def push_body(t, vs):
            mem.cas(h, idx=vs + 1, mode="rand")
        rt.for_each_thread(push_body)
    else:
        def push_pa_body(t, vs):
            acc[vs + 1] += 1.0
            mem.write(h, idx=vs + 1, mode="rand")
        rt.for_each_thread(push_pa_body)
""",
    # triangle counting's shape: only push was named, so the trailing
    # else is pull and its cas cannot cover the push stores
    "if-push-elif-push-pa-else": """
def kernel(rt, mem, h, tc, direction):
    def body(t, vs):
        for v in vs:
            u = v + 1
            if direction == PUSH:
                tc[u] += 1
                mem.write(h, idx=u, mode="rand")
            elif direction == PUSH_PA:
                tc[u] += 1
                mem.write(h, idx=u, mode="rand")
            else:
                mem.cas(h, idx=v, mode="rand")
    rt.for_each_thread(body)
""",
}


class TestShippedKernels:
    @pytest.mark.parametrize("package", ["algorithms", "strategies", ""])
    def test_algorithms_package_is_clean(self, package):
        findings = lint_paths([PACKAGE_DIR / package])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_broken_fixture_is_flagged(self):
        findings = lint_file(FIXTURE)
        assert findings, "the seeded raw remote store must be flagged"
        assert "ANL002" in _rules(findings)


class TestRules:
    def test_anl001_store_bypassing_memory(self):
        src = """
def kernel(rt, mem, h, shared):
    def body(t, vs):
        shared[vs + 1] = 0.0
    rt.for_each_thread(body)
"""
        findings = lint_source(src)
        assert _rules(findings) == {"ANL001"}
        assert "shared" in findings[0].message

    def test_anl001_scatter_ufunc_counts_as_store(self):
        src = """
import numpy as np
def kernel(rt, shared):
    def body(t, vs):
        np.add.at(shared, vs * 2, 1.0)
    rt.parallel_for(items, body)
"""
        assert _rules(lint_source(src)) == {"ANL001"}

    def test_anl001_not_raised_when_declared(self):
        src = """
def kernel(rt, mem, h, shared):
    def body(t, vs):
        shared[vs + 1] = 0.0
        mem.write(h, idx=vs + 1, mode="rand")
    rt.for_each_thread(body)
"""
        assert lint_source(src) == []

    def test_local_temporaries_are_exempt(self):
        src = """
import numpy as np
def kernel(rt, mem, h):
    def body(t, vs):
        tmp = np.zeros(8)
        tmp[3] = 1.0
        mem.read(h, idx=vs)
    rt.for_each_thread(body)
"""
        assert lint_source(src) == []

    def test_param_indexed_slots_are_exempt(self):
        """arr[t] / arr[vs] are thread-private by the runtime contract."""
        src = """
def kernel(rt, scratch, owned):
    def body(t, vs):
        scratch[t] = 1.0
        owned[vs] = 0.0
    rt.for_each_thread(body)
"""
        assert lint_source(src) == []

    def test_anl002_push_store_without_atomics(self):
        src = """
def kernel(rt, mem, h, level):
    def push_body(t, vs):
        level[vs + 1] = 0
        mem.write(h, idx=vs + 1, mode="rand")
    rt.parallel_for(items, push_body)
"""
        assert _rules(lint_source(src)) == {"ANL002"}

    def test_anl002_satisfied_by_cas(self):
        src = """
def kernel(rt, mem, h, level):
    def push_body(t, vs):
        mem.cas(h, idx=vs + 1, mode="rand")
        level[vs + 1] = 0
        mem.write(h, idx=vs + 1, mode="rand")
    rt.parallel_for(items, push_body)
"""
        assert lint_source(src) == []

    @pytest.mark.parametrize("shape", DIRECTION_BRANCH_SHAPES)
    def test_direction_branch_classification(self, shape):
        findings = lint_source(DIRECTION_BRANCH_SHAPES[shape])
        assert _rules(findings) == {"ANL002"}

    def test_anl003_ownership_check_in_push(self):
        src = """
def kernel(rt, mem, h, val):
    def push_body(t, vs):
        rt.owned_write_check(vs)
        val[vs + 1] = 1
        mem.cas(h, idx=vs + 1, mode="rand")
        mem.write(h, idx=vs + 1, mode="rand")
    rt.parallel_for(items, push_body)
"""
        assert _rules(lint_source(src)) == {"ANL003"}

    def test_ownership_check_in_pull_is_fine(self):
        src = """
def kernel(rt, mem, h, val):
    def pull_body(t, vs):
        rt.owned_write_check(vs)
        val[vs] = 1
        mem.write(h, idx=vs, mode="rand")
    rt.for_each_thread(pull_body)
"""
        assert lint_source(src) == []

    def test_anl004_missing_barrier(self):
        src = """
def kernel(rt, mem, h):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body, barrier=False)
"""
        assert _rules(lint_source(src)) == {"ANL004"}

    def test_anl004_explicit_barrier_suffices(self):
        src = """
def kernel(rt, mem, h):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body, barrier=False)
    rt.barrier()
"""
        assert lint_source(src) == []

    def test_anl004_caller_barrier_one_level_up_suffices(self):
        # the fused-phases idiom: a helper launches barrier-less regions
        # and every caller closes the epoch itself (mirrors ANL005's
        # one-level helper expansion)
        src = """
def fused(rt, mem, h):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body, barrier=False)

def kernel(rt, mem, h):
    fused(rt, mem, h)
    rt.barrier()
"""
        assert lint_source(src) == []

    def test_anl004_caller_without_barrier_still_flagged(self):
        src = """
def fused(rt, mem, h):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body, barrier=False)

def kernel(rt, mem, h):
    fused(rt, mem, h)
"""
        findings = lint_source(src)
        assert _rules(findings) == {"ANL004"}
        assert "callers" in findings[0].message

    def test_anl004_one_bad_caller_among_good_ones_flags(self):
        # every caller must barrier; a single leaky call site taints the
        # helper
        src = """
def fused(rt, mem, h):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body, barrier=False)

def kernel_a(rt, mem, h):
    fused(rt, mem, h)
    rt.barrier()

def kernel_b(rt, mem, h):
    fused(rt, mem, h)
"""
        assert _rules(lint_source(src)) == {"ANL004"}

    def test_anl004_uncalled_helper_is_flagged(self):
        # no caller at all means nobody closes the epoch
        src = """
def fused(rt, mem, h):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body, barrier=False)
"""
        assert _rules(lint_source(src)) == {"ANL004"}

    def test_anl004_partial_caller_without_barrier_flagged(self):
        # a caller that only *references* the helper through
        # functools.partial is still a caller for the all-callers check
        src = """
def fused(rt, mem, h, alpha):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body, barrier=False)

def kernel(rt, mem, h, schedule):
    step = partial(fused, rt, mem, h)
    schedule(step)
"""
        assert _rules(lint_source(src)) == {"ANL004"}

    def test_anl004_partial_caller_with_barrier_suffices(self):
        src = """
def fused(rt, mem, h, alpha):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body, barrier=False)

def kernel(rt, mem, h, schedule):
    step = partial(fused, rt, mem, h)
    schedule(step)
    rt.barrier()
"""
        assert lint_source(src) == []

    def test_anl004_lambda_caller_without_barrier_flagged(self):
        src = """
def fused(rt, mem, h):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body, barrier=False)

def kernel(rt, mem, h, schedule):
    schedule(lambda: fused(rt, mem, h))
"""
        assert _rules(lint_source(src)) == {"ANL004"}

    def test_anl004_lambda_caller_with_barrier_suffices(self):
        src = """
def fused(rt, mem, h):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body, barrier=False)

def kernel(rt, mem, h, schedule):
    schedule(lambda: fused(rt, mem, h))
    rt.barrier()
"""
        assert lint_source(src) == []

    def test_partial_wrapped_region_body_is_resolved(self):
        # rt.for_each_thread(partial(helper, ...)) must unwrap to the
        # helper so body rules still apply
        src = """
def kernel(rt, mem, h, shared):
    def helper(alpha, lo, hi):
        shared[lo:hi] = alpha
    rt.for_each_thread(partial(helper, 2.0))
"""
        assert _rules(lint_source(src)) == {"ANL001"}

    def test_lambda_trampoline_is_resolved(self):
        src = """
def kernel(rt, mem, h, shared):
    def helper(lo, hi):
        shared[lo:hi] = 0.0
    rt.sequential(lambda: helper(0, 8))
"""
        assert _rules(lint_source(src)) == {"ANL001"}

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n")
        assert _rules(findings) == {"ANL000"}


class TestCLIExitCodes:
    def test_lint_clean_kernels_exit_zero(self):
        from repro.__main__ import main
        assert main(["analyze", "--lint", str(ALGORITHMS_DIR)]) == 0

    def test_lint_broken_fixture_exit_nonzero(self, capsys):
        from repro.__main__ import main
        assert main(["analyze", "--lint", str(FIXTURE)]) != 0
        assert "ANL002" in capsys.readouterr().out


class TestANL005:
    def test_untagged_send_in_superstep_body(self):
        src = """
def kernel(g, rt):
    def body(p):
        rt.send(1, (1, 2), nbytes=16)
    rt.superstep(body)
"""
        findings = lint_source(src)
        assert _rules(findings) == {"ANL005"}
        assert "tag=" in findings[0].message

    def test_windowless_rma_verbs(self):
        src = """
def kernel(g, rt):
    def body(p):
        rt.accumulate(1, [1.0], idx=[0], dtype="float")
        rt.put(0, [1], idx=[0])
        rt.rma_accumulate(1, 4, idx=[0])
    rt.superstep(body)
"""
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["ANL005"] * 3
        assert all("window=" in f.message for f in findings)

    def test_helper_called_from_body_is_scanned(self):
        src = """
def kernel(g, rt):
    def flush(q):
        rt.send(q, None, nbytes=8)
    def body(p):
        flush(p)
    rt.superstep(body)
"""
        assert _rules(lint_source(src)) == {"ANL005"}

    def test_tagged_and_windowed_calls_are_clean(self):
        src = """
def kernel(g, rt):
    def body(p):
        rt.send(1, None, nbytes=8, tag="disc")
        rt.accumulate(1, [1.0], window="acc", idx=[0], dtype="float")
        rt.put(0, [1], window="acc", idx=[0])
    rt.superstep(body)
"""
        assert lint_source(src) == []

    def test_ufunc_accumulate_not_confused(self):
        src = """
import numpy as np
import itertools

def kernel(g, rt):
    def body(p):
        np.add.accumulate([1, 2])
        list(itertools.accumulate([1, 2]))
    rt.superstep(body)
"""
        assert lint_source(src) == []

    def test_comm_outside_superstep_not_flagged(self):
        # ANL005 is scoped to superstep bodies; module-level helpers that
        # are never launched as bodies are out of its jurisdiction
        src = """
def helper(rt):
    rt.send(1, None, nbytes=8)
"""
        assert lint_source(src) == []


class TestANL006:
    def test_store_outside_any_region_is_flagged(self):
        # the seeded bug: a master-step store issued directly between
        # regions -- no boundary for checkpoint rollback to undo it
        src = """
def kernel(rt, mem, h):
    def body(t, vs):
        mem.read(h, idx=vs)
    rt.for_each_thread(body)
    mem.write(h, idx=0, mode="rand")
"""
        findings = lint_source(src)
        assert _rules(findings) == {"ANL006"}
        assert "checkpoint" in findings[0].message

    def test_atomic_verbs_outside_regions_are_flagged(self):
        src = """
def kernel(rt, mem, h):
    mem.cas(h, idx=0, mode="rand")
    mem.faa(h, idx=1, mode="rand")
"""
        findings = lint_source(src)
        assert _rules(findings) == {"ANL006"}
        assert "cas" in findings[0].message and "faa" in findings[0].message

    def test_store_inside_region_body_is_clean(self):
        src = """
def kernel(rt, mem, h):
    def body(t, vs):
        mem.write(h, idx=vs, mode="rand")
    rt.for_each_thread(body)
"""
        assert lint_source(src) == []

    def test_sequential_region_body_is_clean(self):
        # the mst_prim fix pattern: wrap the master-step store in
        # rt.sequential so it lands inside a traced region
        src = """
def kernel(rt, mem, h):
    def mark(u=0):
        mem.write(h, idx=u, mode="rand")
    rt.sequential(mark)
"""
        assert lint_source(src) == []

    def test_helper_called_from_body_is_clean(self):
        # one-level expansion, as in ANL004/ANL005
        src = """
def kernel(rt, mem, h):
    def relax(w):
        mem.cas(h, idx=w, mode="rand")
    def body(t, vs):
        for w in vs:
            relax(w)
    rt.parallel_for(items, body)
"""
        assert lint_source(src) == []

    def test_if_else_double_def_body_is_clean(self):
        # both branches define `body`; only one wins static scope
        # resolution, but name-based coverage must clear both
        src = """
def kernel(rt, mem, h, direction):
    if direction == PULL:
        def body(t, vs):
            mem.write(h, idx=vs, mode="rand")
    else:
        def body(t, vs):
            mem.cas(h, idx=vs + 1, mode="rand")
            mem.write(h, idx=vs + 1, mode="rand")
    rt.for_each_thread(body)
"""
        assert lint_source(src) == []

    def test_superstep_body_store_is_clean(self):
        src = """
def kernel(g, rt, mem, h):
    def body(p):
        mem.write(h, idx=p, mode="rand")
    rt.superstep(body)
"""
        assert lint_source(src) == []

    def test_store_helper_never_launched_is_flagged(self):
        src = """
def kernel(rt, mem, h):
    def orphan():
        mem.write(h, idx=3, mode="rand")
    orphan()
"""
        findings = lint_source(src)
        assert _rules(findings) == {"ANL006"}

    # a method is covered when a region body in another module of the
    # run calls it by attribute name and that module imports its class
    # (ThreadLocalFrontiers.merge under BFS's k-filter)
    FRONTIERS = """
class Frontiers:
    def merge(self, mem, h):
        mem.write(h, idx=0, mode="rand")
"""

    def test_method_called_from_importing_module_is_clean(self, tmp_path):
        (tmp_path / "frontiers.py").write_text(self.FRONTIERS)
        (tmp_path / "kernel.py").write_text("""
from frontiers import Frontiers

def kernel(rt, mem, h):
    f = Frontiers()
    def kfilter():
        f.merge(mem, h)
    rt.sequential(kfilter)
""")
        assert lint_paths([tmp_path]) == []
        # the method's module alone cannot see its caller
        assert _rules(lint_file(tmp_path / "frontiers.py")) == {"ANL006"}

    def test_caller_without_the_class_import_stays_flagged(self, tmp_path):
        (tmp_path / "frontiers.py").write_text(self.FRONTIERS)
        (tmp_path / "kernel.py").write_text("""
def kernel(rt, mem, h, f):
    def kfilter():
        f.merge(mem, h)
    rt.sequential(kfilter)
""")
        findings = lint_paths([tmp_path])
        assert [(f.rule, Path(f.path).name, f.func) for f in findings] == [
            ("ANL006", "frontiers.py", "Frontiers.merge")]
