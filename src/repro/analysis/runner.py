"""One cell runner for the dynamic passes of ``python -m repro analyze``.

A :class:`Cell` names one kernel execution: the runtime (``"sm"`` or
``"dm"``), the Section-4 algorithm, the variant (an SM direction or a
DM backend), and an optional named fault plan.  :func:`run_cell` runs
it on a fresh runtime with the matching checker attached -- the race
detector (:mod:`repro.analysis.race`) on SM, the epoch checker
(:mod:`repro.analysis.dm_race`) on DM -- then the optional tracer and
the optional fault injector, in that order, so the perturbing proxy
wraps the detecting one and re-issued recovery ops are checked too.
The returned :class:`CellRun` records every check the pass applied;
its ``ok`` is their conjunction.

Each pass is a short cell list over one instance pair (plain and
weighted, from :func:`instance_graph`):

* :func:`analyze_algorithms` -- the seven paper algorithms x push/pull
  on SM: race-clean and within the Section-4 PRAM conflict bound
  (:func:`~repro.analysis.crosscheck.crosscheck`);
* :func:`analyze_dm` -- the four DM kernels x backends
  (:data:`DM_MATRIX`): epoch-clean, flushed, and within the cut-based
  communication bound (:func:`~repro.analysis.crosscheck.dm_crosscheck`);
* :func:`analyze_faults` -- the chaos suite: :data:`DM_MATRIX` and
  :data:`SM_MATRIX` under seeded fault plans with recovery enabled.
  Every run must converge to the sequential reference (PageRank to
  1e-9: recovery replays legally reassociate float sums), stay
  checker-clean and flushed, and account its overhead: never faster
  than its fault-free twin, strictly slower whenever recovery did
  costly work.  SM runs also carry a tracer whose counter
  reconciliation must hold exactly.  The cut bound is not applied:
  retransmissions exceed the lossless bound by design, and the
  overhead table is the fault-mode replacement.

Kernels, checkers, fault layers, references and the tracer are
imported at call time, so importing this module for
:func:`instance_graph` (as ``repro trace`` does) stays cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from repro.generators import community_graph, erdos_renyi, rmat, road_network
from repro.graph.csr import CSRGraph
from repro.kernels import BY_LABEL, DIRECTIONS, KERNELS, LABELS, launch

if TYPE_CHECKING:
    from repro.analysis.crosscheck import CrossCheckResult, DMCommCheckResult
    from repro.analysis.race import RaceReport
    from repro.runtime.faults import FaultPlan
    from repro.runtime.sm_faults import SMFaultPlan

#: (algorithm, tuple of backend variants) per kernel with a DM entry,
#: backends in Section 6.3 order
DM_MATRIX = tuple((k.label, k.dm_variants) for k in KERNELS if k.dm)

#: the SM chaos cells: each kernel with a sequential reference x
#: direction (the race pass covers BC/BGC/MST fault-free)
SM_MATRIX = tuple((k.label, DIRECTIONS) for k in KERNELS if k.reference)

#: PageRank iterations per pass (small: the chaos suite is a grid)
_PR_ITERATIONS = {"race": 5, "dm": 3, "faults": 3}

#: average degree of the generated instances
_D_BAR = 4.0

#: DM result field counting how often a cut edge may legitimately be
#: re-examined (PR: iterations; BFS: levels; SSSP-Δ: inner iterations)
_DM_ROUNDS = {"PR": "iterations", "BFS": "levels",
              "SSSP-Δ": "inner_iterations"}


@dataclass(frozen=True)
class Cell:
    """One kernel execution of an analysis pass."""

    runtime: str               #: "sm" or "dm"
    algorithm: str             #: Section-4 label, e.g. "SSSP-Δ"
    variant: str               #: SM direction or DM backend
    plan_name: str = ""        #: fault plan name ("" = fault-free)
    plan: FaultPlan | SMFaultPlan | None = None


@dataclass(frozen=True)
class CellRun:
    """One executed :class:`Cell` and the checks its pass applied.

    A check the pass did not apply stays ``None`` and has no vote.
    """

    cell: Cell
    report: RaceReport         #: race detector (SM) / epoch checker (DM)
    time: float                #: rt.time
    #: the Section-4 conflict bound (SM) / cut bound (DM) verdict
    check: CrossCheckResult | DMCommCheckResult | None = None
    pending_unflushed: int | None = None   #: DM ops never flushed
    unattributed_ops: int | None = None    #: DM RMA ops with no window=
    reconciled: bool | None = None         #: Tracer.reconcile holds
    converged: bool | None = None          #: result equals the reference
    base_time: float | None = None         #: fault-free twin's rt.time
    fired: int = 0             #: fault events injected
    costly: int = 0            #: recovery actions that must cost time

    @property
    def overhead(self) -> float:
        return self.time - self.base_time

    @property
    def overhead_accounted(self) -> bool:
        """No faulted run may be faster; costly recovery must be slower."""
        if self.time < self.base_time - 1e-9:
            return False
        return self.costly == 0 or self.time > self.base_time

    def checks(self) -> dict[str, bool]:
        """The verdict of every check the pass applied, by name."""
        verdicts = {"clean": self.report.clean}
        if self.check is not None:
            verdicts["bound"] = self.check.ok
        if self.pending_unflushed is not None:
            verdicts["flushed"] = self.pending_unflushed == 0
        if self.converged is not None:
            verdicts["converged"] = self.converged
        if self.reconciled is not None:
            verdicts["reconciled"] = self.reconciled
        if self.base_time is not None:
            verdicts["accounted"] = self.overhead_accounted
        return verdicts

    @property
    def ok(self) -> bool:
        return all(self.checks().values())

    def __str__(self) -> str:
        c, r = self.cell, self.report
        line = f"{c.runtime:3s} {c.algorithm:7s} {c.variant:9s} "
        if c.plan is not None:
            line += f"{c.plan_name:12s} seed={c.plan.seed:<3d} "
        status = "clean" if r.clean else f"{len(r.races)} RACE(S)"
        line += f"{status:12s} epochs={r.epochs:4d}"
        if self.check is not None:
            k = self.check
            line += (f"  Wconf={k.observed_write:7d}  Rconf={k.observed_read:7d}"
                     if c.runtime == "sm" else
                     f"  rma={k.observed_remote:6d}  msg={k.observed_messages:6d}")
            line += f"  bound={'ok' if k.ok else 'FAIL'}"
        if self.pending_unflushed:
            line += f"  UNFLUSHED={self.pending_unflushed}"
        if self.base_time is not None:
            pct = 100.0 * self.overhead / self.base_time if self.base_time else 0.0
            line += f"  fired={self.fired:4d}  overhead={pct:7.1f}%"
        failed = [name for name, ok in self.checks().items() if not ok]
        return line + (f"  FAIL: {', '.join(failed)}" if failed else "")


def _side(n: int) -> int:
    return max(3, math.ceil(math.sqrt(max(n, 1))))


#: the analysis instance families, built from ``(n, d_bar, seed,
#: weighted)`` at roughly ``n`` vertices.  ``"er"`` is Erdős–Rényi at
#: exactly ``n``; ``"rmat"`` rounds up to the nearest power of two
#: (skewed degrees); ``"road"`` is the sparsified lattice at
#: ``ceil(sqrt(n))²`` vertices -- the high-diameter extreme of Table 2,
#: where traversal kernels run many thin supersteps; ``"comm"`` is the
#: Chung-Lu community graph with planted hubs -- the communication-heavy
#: extreme, where cross-partition edges dominate and push variants
#: hammer remote accumulators.  Builders look generators up in this
#: module's globals when called, so wrappers installed there run.
INSTANCES: dict[str, Callable[[int, float, int, bool], CSRGraph]] = {
    "er": lambda n, d_bar, seed, weighted: erdos_renyi(
        n, d_bar=d_bar, seed=seed, weighted=weighted),
    "rmat": lambda n, d_bar, seed, weighted: rmat(
        max(4, math.ceil(math.log2(max(n, 2)))), d_bar=d_bar, seed=seed,
        weighted=weighted),
    "road": lambda n, d_bar, seed, weighted: road_network(
        _side(n), _side(n), seed=seed, weighted=weighted),
    "comm": lambda n, d_bar, seed, weighted: community_graph(
        max(n, 16), d_bar=max(d_bar, 8.0), seed=seed, weighted=weighted),
}


def instance_graph(dataset: str, n: int, d_bar: float, seed: int,
                   weighted: bool) -> CSRGraph:
    """Build the :data:`INSTANCES` family ``dataset`` at roughly ``n``
    vertices."""
    if dataset not in INSTANCES:
        raise ValueError(f"unknown dataset {dataset!r}; choose from "
                         f"{', '.join(INSTANCES)}")
    return INSTANCES[dataset](n, d_bar, seed, weighted)


def _bound(cell: Cell, g: CSRGraph, rt, result, report: RaceReport, P: int,
           slack: float) -> CrossCheckResult | DMCommCheckResult:
    """The Section-4 conflict bound (SM) or cut bound (DM) of one run."""
    from repro.analysis.crosscheck import crosscheck, dm_crosscheck
    from repro.graph.partition_strategies import edge_cut
    a = cell.algorithm
    if cell.runtime == "dm":
        if a == "TC":
            # one get per witness pair: a cut edge carries up to d_hat
            # neighbor fetches plus one accumulate each
            rounds = 1 + int(g.max_degree)
        else:
            rounds = max(1, int(getattr(result, _DM_ROUNDS[a])))
        return dm_crosscheck(a, cell.variant, result.counters,
                             m_cross=edge_cut(g, rt.part), P=P,
                             supersteps=max(1, report.epochs), rounds=rounds,
                             slack=slack)
    it = max(1, int(getattr(result, "iterations", 1) or 1))
    params = {"iterations": it}
    if a == "SSSP-Δ":
        params["iterations"] = max(1, int(getattr(result, "epochs", it)))
        params["inner_iterations"] = max(
            1, int(getattr(result, "inner_iterations", it)))
    if a == "BC":
        params["sources"] = max(1, int(getattr(result, "n_sources", it)))
    return crosscheck(a, cell.variant, report, n=g.n, m=g.m,
                      d_hat=g.max_degree, P=P, slack=slack, **params)


def _reference(algorithm: str, g: CSRGraph) -> np.ndarray:
    """The chaos reference, called like the kernel."""
    from repro.algorithms import reference
    k = BY_LABEL[algorithm]
    kwargs = {k.start: 0} if k.start else {}
    if k.iterations:
        kwargs["iterations"] = _PR_ITERATIONS["faults"]
    return getattr(reference, k.reference[0])(g, **kwargs)


def _converged(algorithm: str, result, ref: np.ndarray) -> bool:
    """The result matches the reference within the row's tolerance
    (PageRank: recovery replays legally reassociate float sums)."""
    _, name, atol = BY_LABEL[algorithm].reference
    got = getattr(result, name)
    return bool(np.array_equal(got, ref) if atol is None
                else np.allclose(got, ref, atol=atol))


def run_cell(cell: Cell, g: CSRGraph, P: int, iterations: int, *,
             slack: float | None = None, traced: bool = False,
             ref: np.ndarray | None = None) -> CellRun:
    """Run one cell under a fresh checker and apply the pass's checks.

    The runtime is ``XC30`` (SM) or ``XC40`` (DM) at ``scaled(64)``;
    PageRank runs ``iterations`` iterations.  ``slack`` applies the
    bound check, ``traced`` attaches a tracer and checks its counter
    reconciliation, and ``ref`` checks the result against a sequential
    reference.  A cell with a fault plan runs under the injector with
    recovery enabled.
    """
    if cell.runtime == "sm":
        from repro.analysis.race import attach_race_detector
        from repro.machine.cost_model import XC30
        from repro.machine.memory import CountingMemory
        from repro.runtime.sm import SMRuntime
        m = XC30.scaled(64)
        rt = SMRuntime(g, P=P, machine=m, memory=CountingMemory(m.hierarchy))
        # read-conflict tallies feed only the bound check
        detector = attach_race_detector(
            rt, track_read_conflicts=slack is not None)
    else:
        from repro.analysis.dm_race import attach_dm_race_detector
        from repro.machine.cost_model import XC40
        from repro.runtime.dm import DMRuntime
        rt = DMRuntime(g.n, P, machine=XC40.scaled(64))
        detector = attach_dm_race_detector(rt)
    tracer = injector = None
    if traced:
        from repro.observability.tracer import attach_tracer
        tracer = attach_tracer(rt)
    if cell.plan is not None:
        # last: the perturbing proxy must wrap the detecting one, so
        # re-issued recovery ops are checked too
        from repro.runtime.faults import attach_fault_injector
        from repro.runtime.sm_faults import attach_sm_fault_injector
        injector = (attach_sm_fault_injector if cell.runtime == "sm"
                    else attach_fault_injector)(rt, cell.plan)
    _, result = launch(BY_LABEL[cell.algorithm], cell.variant, g, rt,
                       iterations, dm=cell.runtime == "dm")
    report = detector.report()
    applied = {}
    if cell.runtime == "dm":
        applied.update(pending_unflushed=detector.pending_unflushed,
                       unattributed_ops=detector.unattributed_ops)
    if slack is not None:
        applied["check"] = _bound(cell, g, rt, result, report, P, slack)
    if tracer is not None:
        traced_totals, actual = tracer.reconcile()
        applied["reconciled"] = traced_totals.to_dict() == actual.to_dict()
    if ref is not None:
        applied["converged"] = _converged(cell.algorithm, result, ref)
    if injector is not None:
        applied.update(fired=injector.stats.fired(),
                       costly=injector.stats.costly())
    return CellRun(cell=cell, report=report, time=rt.time, **applied)


def _instances(dataset: str, n: int, seed: int) -> dict[bool, CSRGraph]:
    """A pass's instance pair, keyed by ``weighted``."""
    return {w: instance_graph(dataset, n, _D_BAR, seed, weighted=w)
            for w in (False, True)}


def _collect(runs: Iterable[CellRun],
             progress: Callable[[str], None] | None) -> list[CellRun]:
    """Run a pass's cells, reporting each as it finishes."""
    out = []
    for run in runs:
        if progress is not None:
            progress(str(run))
        out.append(run)
    return out


def analyze_algorithms(n: int = 120, P: int = 4, seed: int = 7,
                       slack: float = 4.0,
                       algorithms: Iterable[str] | None = None,
                       dataset: str = "er",
                       progress: Callable[[str], None] | None = None
                       ) -> list[CellRun]:
    """The race pass: one :class:`CellRun` per (algorithm, direction)
    on the :data:`INSTANCES` family ``dataset``."""
    algos = tuple(algorithms) if algorithms else LABELS
    unknown = set(algos) - set(LABELS)
    if unknown:
        raise ValueError(f"unknown algorithm(s) {sorted(unknown)}; "
                         f"choose from {LABELS}")
    graphs = _instances(dataset, n, seed)
    return _collect(
        (run_cell(Cell("sm", a, d), graphs[BY_LABEL[a].weighted], P,
                  _PR_ITERATIONS["race"], slack=slack)
         for a in algos for d in DIRECTIONS), progress)


def analyze_dm(n: int = 96, P: int = 4, seed: int = 7, slack: float = 4.0,
               dataset: str = "er",
               progress: Callable[[str], None] | None = None
               ) -> list[CellRun]:
    """The DM pass: one :class:`CellRun` per :data:`DM_MATRIX` cell.

    ``dataset`` follows :func:`instance_graph`; ``"road"`` runs many
    thin supersteps, so the epoch and cut bounds are exercised across
    far more barriers per run, and ``"comm"`` pushes most edges across
    the partition cut, stressing the message/RMA epoch checks.
    """
    graphs = _instances(dataset, n, seed)
    return _collect(
        (run_cell(Cell("dm", a, v), graphs[BY_LABEL[a].weighted], P,
                  _PR_ITERATIONS["dm"], slack=slack)
         for a, variants in DM_MATRIX for v in variants), progress)


def default_fault_plans(seed: int) -> list[tuple[str, FaultPlan]]:
    """The DM plan grid: one plan per fault class, plus everything."""
    from repro.runtime.faults import FaultPlan
    return [
        ("drop", FaultPlan(seed=seed, drop=0.15)),
        ("duplicate", FaultPlan(seed=seed, duplicate=0.15,
                                rma_duplicate=0.15)),
        ("delay", FaultPlan(seed=seed, delay=0.15, reorder=0.10)),
        ("rma-lost", FaultPlan(seed=seed, rma_lost=0.20)),
        ("straggler", FaultPlan(seed=seed, straggler=0.10,
                                straggler_factor=4.0)),
        ("crash", FaultPlan(seed=seed, crash=0.04)),
        ("chaos", FaultPlan(seed=seed, drop=0.10, duplicate=0.08,
                            delay=0.08, reorder=0.05, rma_lost=0.10,
                            rma_duplicate=0.08, straggler=0.05,
                            crash=0.02)),
    ]


def default_sm_fault_plans(seed: int) -> list[tuple[str, SMFaultPlan]]:
    """The SM plan grid: one plan per fault class, plus everything."""
    from repro.runtime.sm_faults import SMFaultPlan
    return [
        ("straggler", SMFaultPlan(seed=seed, straggler=0.15,
                                  straggler_factor=4.0)),
        ("preempt", SMFaultPlan(seed=seed, lock_preempt=0.20)),
        ("cas-lost", SMFaultPlan(seed=seed, cas_lost=0.15)),
        ("cas-dup", SMFaultPlan(seed=seed, cas_duplicate=0.15)),
        ("store-delay", SMFaultPlan(seed=seed, store_delay=0.10)),
        ("crash", SMFaultPlan(seed=seed, crash=0.06)),
        ("chaos", SMFaultPlan(seed=seed, straggler=0.05, lock_preempt=0.10,
                              cas_lost=0.08, cas_duplicate=0.08,
                              store_delay=0.05, crash=0.02)),
    ]


#: runtime -> (cell matrix, default plan grid)
_CHAOS = {"dm": (DM_MATRIX, default_fault_plans),
          "sm": (SM_MATRIX, default_sm_fault_plans)}


def analyze_faults(n: int = 64, P: int = 4, seed: int = 7,
                   dataset: str = "er", fault_seeds: Iterable[int] = (0, 1),
                   runtimes: Iterable[str] = ("dm", "sm"),
                   plans: Iterable[tuple[str, FaultPlan | SMFaultPlan]]
                   | None = None,
                   progress: Callable[[str], None] | None = None
                   ) -> list[CellRun]:
    """The chaos pass: one :class:`CellRun` per cell x plan x seed.

    ``runtimes`` picks the matrices, in order: :data:`DM_MATRIX` and
    :data:`SM_MATRIX`.  ``fault_seeds`` re-seed the *plans* (the
    instance stays fixed), so every plan's fault schedule is sampled
    more than once.  ``plans`` replaces each runtime's default grid
    (:func:`default_fault_plans` / :func:`default_sm_fault_plans`), so
    its plans must suit every runtime named.  ``dataset`` follows
    :func:`instance_graph`; ``"comm"`` puts most traffic on the cut, so
    dropped/duplicated messages hit the widest exchanges.  Every cell
    first runs fault-free; a baseline that fails any check raises
    :class:`AssertionError`.
    """
    graphs = _instances(dataset, n, seed)
    return _collect(_chaos(graphs, P, runtimes, tuple(fault_seeds), plans),
                    progress)


def _chaos(graphs: dict[bool, CSRGraph], P: int, runtimes: Iterable[str],
           fault_seeds: tuple[int, ...], plans) -> Iterator[CellRun]:
    iterations = _PR_ITERATIONS["faults"]
    refs: dict[str, np.ndarray] = {}
    for runtime in runtimes:
        matrix, default_grid = _CHAOS[runtime]
        traced = runtime == "sm"
        for algorithm, variants in matrix:
            g = graphs[BY_LABEL[algorithm].weighted]
            if algorithm not in refs:
                refs[algorithm] = _reference(algorithm, g)
            for variant in variants:
                base = run_cell(Cell(runtime, algorithm, variant), g, P,
                                iterations, traced=traced,
                                ref=refs[algorithm])
                if not base.ok:
                    raise AssertionError(f"fault-free baseline broken: "
                                         f"{runtime} {algorithm}/{variant}")
                for fseed in fault_seeds:
                    for name, proto in (plans if plans is not None
                                        else default_grid(fseed)):
                        plan = (proto if proto.seed == fseed
                                else replace(proto, seed=fseed))
                        run = run_cell(
                            Cell(runtime, algorithm, variant, name, plan),
                            g, P, iterations, traced=traced,
                            ref=refs[algorithm])
                        yield replace(run, base_time=base.time)


def overhead_table(runs: list[CellRun]) -> list[dict]:
    """Mean relative overhead per (runtime, algorithm, backend, plan) --
    the Table-style fault-overhead curves of the chaos suite."""
    rows: dict[tuple, list[float]] = {}
    for r in runs:
        if r.base_time:
            c = r.cell
            rows.setdefault((c.runtime, c.algorithm, c.variant, c.plan_name),
                            []).append(r.overhead / r.base_time)
    return [
        {"runtime": rtm, "algorithm": a, "variant": v, "plan": p,
         "overhead_pct": round(100.0 * sum(vals) / len(vals), 1)}
        for (rtm, a, v, p), vals in rows.items()
    ]


def _overhead_blocks(runs: list[CellRun]) -> Iterator[tuple]:
    """Per runtime, in run order: ``(runtime, plan columns, [(algorithm,
    variant, mean overhead % per plan)])`` -- derived from the runs so
    the DM and SM grids (different plan vocabularies) each get their
    own correctly-labeled block."""
    pct = {(row["runtime"], row["algorithm"], row["variant"], row["plan"]):
           row["overhead_pct"] for row in overhead_table(runs)}
    blocks: dict[str, tuple[list, list]] = {}
    for r in runs:
        c = r.cell
        rows, plans = blocks.setdefault(c.runtime, ([], []))
        if (c.algorithm, c.variant) not in rows:
            rows.append((c.algorithm, c.variant))
        if c.plan_name not in plans:
            plans.append(c.plan_name)
    for rtm, (rows, plans) in blocks.items():
        yield rtm, plans, [(a, v, [pct.get((rtm, a, v, p), 0.0) for p in plans])
                           for a, v in rows]


def format_overhead_table(runs: list[CellRun]) -> str:
    lines = []
    for rtm, plans, rows in _overhead_blocks(runs):
        lines.append(f"{rtm} fault overhead (mean % of fault-free time):")
        lines.append(f"{'kernel':9s}{'backend':11s}"
                     + "".join(f"{name:>12s}" for name in plans))
        lines += [f"{a:9s}{v:11s}" + "".join(f"{x:>11.1f}%" for x in vals)
                  for a, v, vals in rows]
    return "\n".join(lines)


def markdown_overhead_table(runs: list[CellRun]) -> str:
    """The same overhead curves as GitHub-flavored markdown (the CI
    step-summary rendering of the combined SM+DM chaos grid)."""
    lines = []
    for rtm, plans, rows in _overhead_blocks(runs):
        lines += [f"### {rtm.upper()} fault overhead "
                  "(mean % of fault-free time)", "",
                  "| kernel | backend | " + " | ".join(plans) + " |",
                  "|---|---|" + "---|" * len(plans)]
        lines += [f"| {a} | {v} | " + " | ".join(f"{x:.1f}%" for x in vals)
                  + " |" for a, v, vals in rows]
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
