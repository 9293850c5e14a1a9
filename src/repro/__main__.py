"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    List the machine models and registered datasets.
``stats <dataset> [--scale N]``
    Generate a dataset and print its Table-2-style statistics.
``run <algorithm> <dataset> [--direction push|pull] [...]``
    Run one algorithm on the simulated machine and print the result
    summary plus the event counters.
``experiments [...]``
    Forwarded to :mod:`repro.harness.run_all`.
``analyze [...]``
    Race-detect, epoch-check, lint, and chaos-test the kernels.
``trace <algorithm> [--variant v] [--dm] [--faults] [--flame] --out DIR``
    Run one kernel under the observability tracer and export the
    Chrome trace, JSONL event log, metrics rollup, and (with
    ``--flame``) a folded-stack flamegraph
    (:mod:`repro.observability`); ``--bench`` writes the
    ``BENCH_trace.json`` perf-baseline sweep instead.
``bench diff <baseline> <candidate> [--tolerance-pct N] [--markdown]``
    Semantic perf-baseline comparison: metric-by-metric diff of two
    ``repro-bench/*`` documents with drift attributed to
    cell -> phase -> counter; exits nonzero only on out-of-tolerance
    drift (:mod:`repro.observability.regress`).
``bench speedup <doc> [--pairs push:pull,mp:rma,...] [--markdown]``
    Config-vs-config comparison: join one (or, with ``--against``,
    two) ``repro-bench/*`` documents' cells across a variant/runtime/
    engine/family axis and emit deterministic winner-by-factor tables
    with per-counter attribution -- the shape of the paper's
    Figures 5-9 (:mod:`repro.observability.speedup`).
``bench history <doc> [--history PATH] [--label L] [--markdown]``
    Append a ``repro-bench/*`` snapshot to the append-only
    ``BENCH_history.jsonl`` timeline and print per-cell trend tables
    with regression flagging (:mod:`repro.observability.history`).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.kernels import BY_NAME, LABELS, VARIANTS
from repro.machine.counters import format_count


def _build_parser() -> argparse.ArgumentParser:
    from repro.analysis.runner import INSTANCES
    from repro.generators.registry import DATASETS

    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list machines and datasets")

    stats = sub.add_parser("stats", help="dataset statistics")
    stats.add_argument("dataset", choices=tuple(DATASETS))
    stats.add_argument("--scale", type=int, default=12)
    stats.add_argument("--seed", type=int, default=42)

    run = sub.add_parser("run", help="run one algorithm")
    run.add_argument("algorithm", choices=tuple(BY_NAME))
    run.add_argument("dataset", choices=tuple(DATASETS))
    run.add_argument("--direction", default="pull",
                     choices=("push", "pull", "push-pa"))
    run.add_argument("--scale", type=int, default=12)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--threads", "-P", type=int, default=16)
    run.add_argument("--machine", default="XC30")
    run.add_argument("--cache-scale", type=int, default=64)
    run.add_argument("--iterations", type=int, default=10,
                     help="PageRank iterations; BC sampled sources")
    run.add_argument("--source", type=int, default=None,
                     help="root vertex for traversals (default: max degree)")

    exp = sub.add_parser("experiments",
                         help="regenerate the paper's tables and figures")
    exp.add_argument("rest", nargs=argparse.REMAINDER)

    an = sub.add_parser(
        "analyze",
        help="race-detect and lint the push/pull kernels")
    an.add_argument("paths", nargs="*",
                    help="files/directories to lint (default: the shipped "
                         "repro.algorithms package)")
    an.add_argument("--lint", action="store_true",
                    help="run only the static AST lint pass")
    an.add_argument("--race", action="store_true",
                    help="run only the dynamic race detector")
    an.add_argument("--dm", action="store_true",
                    help="run only the distributed-memory epoch checker")
    an.add_argument("--sm", action="store_true",
                    help="with --faults: restrict the chaos suite to the "
                         "shared-memory matrix; alone: run only the "
                         "dynamic race detector (alias of --race)")
    an.add_argument("--faults", action="store_true",
                    help="run the chaos suite: kernels under seeded fault "
                         "plans with recovery (off by default; scope with "
                         "--sm / --dm / --all, default --all)")
    an.add_argument("--all", action="store_true",
                    help="with --faults: run both runtimes' chaos "
                         "matrices (the default scope)")
    an.add_argument("--effects", action="store_true",
                    help="run the static effect-inference pass (ANL1xx) "
                         "over the 17-kernel matrix and reconcile the "
                         "inferred write sets against dynamic traces "
                         "(off by default)")
    an.add_argument("--no-reconcile", action="store_true",
                    help="with --effects: skip the dynamic write-set "
                         "reconciliation (one traced run per kernel and "
                         "push/pull)")
    an.add_argument("--format", default="text", choices=("text", "json"),
                    help="output format; json emits one machine-readable "
                         "document over all selected passes "
                         "(exit codes: 0 clean, 1 findings, 2 usage error)")
    an.add_argument("--fault-seeds", type=int, default=2,
                    help="number of fault-plan seeds per chaos cell")
    an.add_argument("--dataset", default="er", choices=tuple(INSTANCES),
                    help="instance family for the dynamic pass")
    an.add_argument("--threads", "-P", type=int, default=4)
    an.add_argument("--scale", type=int, default=120,
                    help="vertex count of the check instance")
    an.add_argument("--seed", type=int, default=7)
    an.add_argument("--slack", type=float, default=4.0,
                    help="multiplier on the PRAM conflict bounds")
    an.add_argument("--algorithm", action="append", dest="algorithms",
                    metavar="NAME",
                    help="restrict the dynamic pass (repeatable); "
                         "names as in Section 4: " + " ".join(LABELS))

    tr = sub.add_parser(
        "trace",
        help="run one kernel under the tracer and export "
             "Chrome-trace/JSONL/metrics views")
    tr.add_argument("algorithm", nargs="?", default=None,
                    choices=tuple(BY_NAME))
    tr.add_argument("--variant", default="push", choices=VARIANTS,
                    help="push/pull; push-pa (SM pagerank, triangles); "
                         "switching (bfs); with --dm, a row's backends")
    tr.add_argument("--engine", default="interpreted",
                    choices=("interpreted", "batched"),
                    help="batched = stream-emitting kernels "
                         "(repro.streams); byte-identical counters, "
                         "far less Python dispatch")
    tr.add_argument("--dm", action="store_true",
                    help="run on the distributed-memory runtime")
    tr.add_argument("--faults", action="store_true",
                    help="inject the runtime's default chaos fault "
                         "plan (SM or DM)")
    tr.add_argument("--out", required=True,
                    help="output directory (or the target file "
                         "with --bench)")
    tr.add_argument("--dataset", default="er", choices=tuple(INSTANCES))
    tr.add_argument("--scale", type=int, default=96,
                    help="vertex count of the traced instance")
    tr.add_argument("--seed", type=int, default=7)
    tr.add_argument("--threads", "-P", type=int, default=4, dest="procs")
    tr.add_argument("--iterations", type=int, default=5)
    tr.add_argument("--fault-seed", type=int, default=1)
    tr.add_argument("--bench", action="store_true",
                    help="write the BENCH_trace.json perf baseline "
                         "sweep instead of a single trace")
    tr.add_argument("--flame", action="store_true",
                    help="also export the folded-stack flamegraph "
                         "(flame.folded; feeds flamegraph.pl/speedscope)")
    tr.add_argument("--cache-scale", type=int, default=64,
                    help="cache-simulation scale factor for counter "
                         "attribution (0 disables the cache simulator)")
    tr.add_argument("--sink", default="buffer",
                    choices=("buffer", "stream", "rollup", "sampling"),
                    help="event retention strategy: buffer = keep every "
                         "event (default, full post-hoc exports); stream "
                         "= constant-memory incremental JSONL + online "
                         "rollup; rollup = metrics.json only, O(steps) "
                         "memory; sampling = seeded span sample for "
                         "Chrome/flame plus the exact rollup")
    tr.add_argument("--sample-events", type=int, default=4096,
                    help="with --sink sampling: span retention cap")
    tr.add_argument("--sample-seed", type=int, default=0,
                    help="with --sink sampling: reservoir seed "
                         "(same seed + config = identical sample)")
    tr.add_argument("--wallclock", action="store_true",
                    help="measure real seconds next to simulated mtu: "
                         "runs an untraced twin first, reports tracer "
                         "overhead and per-phase wall time, and adds a "
                         "'wallclock' block to metrics.json")
    tr.add_argument("--overhead-budget", type=float, default=None,
                    metavar="X",
                    help="fail (exit 1) if traced wall time exceeds X times "
                         "the untraced run (implies --wallclock)")

    bench = sub.add_parser(
        "bench",
        help="perf-baseline operations (semantic diff with tolerances)")
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    bd = bsub.add_parser(
        "diff",
        help="compare two repro-bench documents metric-by-metric")
    bd.add_argument("baseline", help="committed baseline JSON")
    bd.add_argument("candidate", help="freshly generated JSON to compare")
    bd.add_argument("--tolerance-pct", type=float, default=0.0,
                    help="allowed drift per metric, in percent of the "
                         "baseline value (default 0: exact)")
    bd.add_argument("--markdown", action="store_true",
                    help="print a markdown report instead of the plain "
                         "summary")
    bd.add_argument("--report", default=None, metavar="PATH",
                    help="also write the machine-readable verdict "
                         "(repro-benchdiff/1) to PATH")
    bs = bsub.add_parser(
        "speedup",
        help="config-vs-config winner-by-factor tables (the shape of "
             "the paper's Figures 5-9) with per-counter attribution")
    bs.add_argument("doc", help="repro-bench document to analyze")
    bs.add_argument("--against", default=None, metavar="PATH",
                    help="second repro-bench document; its cells join "
                         "the pool (e.g. an --engine batched sweep for "
                         "an interpreted:batched pair)")
    bs.add_argument("--pairs", default="push:pull",
                    help="comma-separated a:b axis pairs, e.g. "
                         "push:pull,sm:dm,mp:rma,interpreted:batched,"
                         "baseline:large (default: push:pull)")
    bs.add_argument("--markdown", action="store_true",
                    help="print paper-style markdown tables instead of "
                         "the plain summary")
    bs.add_argument("--report", default=None, metavar="PATH",
                    help="also write the machine-readable document "
                         "(repro-speedup/1) to PATH")
    bh = bsub.add_parser(
        "history",
        help="append-only bench timeline: record repro-bench snapshots "
             "and print per-cell trend tables with regression flags")
    bh.add_argument("doc", nargs="?", default=None,
                    help="repro-bench document to append as a new "
                         "snapshot (omit to only report on the existing "
                         "timeline)")
    bh.add_argument("--history", default="BENCH_history.jsonl",
                    metavar="PATH",
                    help="timeline file (repro-bench-history/1 lines; "
                         "created on first append)")
    bh.add_argument("--label", default=None,
                    help="snapshot label (default: the doc file name)")
    bh.add_argument("--stamp", action="store_true",
                    help="record the current UTC time on the snapshot "
                         "(off by default so committed timelines stay "
                         "deterministic)")
    bh.add_argument("--markdown", action="store_true",
                    help="print a markdown trend table instead of the "
                         "plain summary")
    bh.add_argument("--last", type=int, default=8, metavar="N",
                    help="show at most the last N snapshots per cell")
    bh.add_argument("--threshold-pct", type=float, default=0.0,
                    help="flag cells whose time_mtu grew more than this "
                         "percent over the previous snapshot (default 0: "
                         "any growth)")
    bh.add_argument("--gate", action="store_true",
                    help="exit 1 when any cell is flagged as a regression")
    return ap


def _cmd_info() -> int:
    from repro.generators.registry import DATASETS
    from repro.machine.cost_model import MACHINES

    print("machine models:")
    for name, m in MACHINES.items():
        print(f"  {name:<8} {m.cores} cores x {m.smt} SMT, "
              f"atomic={m.w_atomic:.0f}c lock={m.w_lock:.0f}c "
              f"L3 miss={m.w_l3_miss:.0f}c")
    print("\ndatasets (paper Table 2 stand-ins):")
    for name, spec in DATASETS.items():
        print(f"  {name:<5} {spec.description}")
        print(f"        paper: n={spec.paper_n} m={spec.paper_m} "
              f"d̄={spec.paper_d_bar} D={spec.paper_diameter}")
    return 0


def _cmd_stats(args) -> int:
    from repro.generators.registry import load_dataset
    from repro.graph.properties import graph_stats

    g = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    s = graph_stats(g)
    print(f"{args.dataset} @ scale {args.scale}: {g}")
    for k, v in s.as_row().items():
        print(f"  {k:<3} = {v}")
    return 0


def _cmd_run(args) -> int:
    from repro.generators.registry import load_dataset
    from repro.kernels import launch
    from repro.machine.cost_model import MACHINES
    from repro.machine.memory import CountingMemory
    from repro.runtime.sm import SMRuntime

    if args.machine not in MACHINES:
        print(f"unknown machine {args.machine!r}; have {sorted(MACHINES)}",
              file=sys.stderr)
        return 2
    k = BY_NAME[args.algorithm]
    g = load_dataset(args.dataset, scale=args.scale, seed=args.seed,
                     weighted=k.weighted)
    machine = MACHINES[args.machine].scaled(args.cache_scale)
    rt = SMRuntime(g, P=args.threads, machine=machine,
                   memory=CountingMemory(machine.hierarchy))
    src = (args.source if args.source is not None
           else int(np.argmax(np.diff(g.offsets))))
    # --iterations also sets BC's sampled-source count
    budget = {"sources": args.iterations} if "sources" in k.kwargs else {}
    _, r = launch(k, args.direction, g, rt, args.iterations, start=src,
                  **budget)

    print(f"{args.algorithm} [{args.direction}] on {args.dataset} "
          f"(scale {args.scale}, T={args.threads}, {args.machine}): "
          f"{k.summary(r, g, src)}")
    print(f"simulated time: {r.time:,.0f} mtu")
    c = r.counters
    print("events: " + "  ".join(
        f"{name}={format_count(getattr(c, name))}"
        for name in ("reads", "writes", "atomics", "locks", "l3_misses",
                     "branches_cond")))
    return 0


def _run_summary(r) -> dict:
    c = r.cell
    key = ({"algorithm": c.algorithm, "direction": c.variant}
           if c.plan is None else
           {"runtime": c.runtime, "algorithm": c.algorithm,
            "variant": c.variant, "plan": c.plan_name, "seed": c.plan.seed})
    return {**key, "ok": r.ok, "races": [str(x) for x in r.report.races]}


def _report_pass(name: str, runs: list, say, doc: dict) -> bool:
    """Report one dynamic pass's runs; returns whether any failed."""
    bad = [r for r in runs if not r.ok]
    for r in bad:
        if r.check is not None:
            say(r.check)
        for race in r.report.races[:8]:
            say("  " + str(race))
    unit = "cell"
    if name == "faults":
        from repro.analysis.runner import format_overhead_table
        say(format_overhead_table(runs))
        unit = "run"
    say(f"{name}: {len(bad)} failing {unit}(s) of {len(runs)}")
    doc["passes"][name] = {unit + "s": [_run_summary(r) for r in runs],
                           "ok": not bad}
    return bool(bad)


def _cmd_analyze(args) -> int:
    """Exit policy, identical across passes and formats: 0 = every
    selected pass clean, 1 = any pass produced findings/failures,
    2 = usage or configuration error."""
    import json as _json
    from pathlib import Path

    from repro.analysis import runner
    from repro.analysis.lint import lint_paths
    from repro.harness.config import clamped_scale

    # each flag selects its pass; with none given, run everything except
    # the chaos suite and effect inference, which are opt-in (grids of
    # whole-kernel runs).  With --faults, --sm/--dm/--all scope the
    # chaos matrices instead of selecting their usual passes.
    opted = (args.lint, args.race, args.dm, args.sm, args.faults,
             args.effects)
    default_on = not any(opted)
    do_lint = args.lint or default_on
    do_race = args.race or (args.sm and not args.faults) or default_on
    do_dm = (args.dm and not args.faults) or default_on
    do_faults = args.faults
    do_effects = args.effects
    as_json = args.format == "json"
    say = (lambda *a, **k: None) if as_json else print
    progress = None if as_json else print
    doc: dict = {"schema": "repro-analyze/1", "passes": {}}
    failed = False

    if do_faults and args.fault_seeds < 1:
        print(f"--fault-seeds must be at least 1, got {args.fault_seeds}",
              file=sys.stderr)
        return 2

    if do_lint:
        paths = args.paths or [str(Path(__file__).parent / "algorithms")]
        missing = [p for p in paths if not Path(p).exists()]
        if missing:
            print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
            return 2
        if not any(Path(p).is_file() or any(Path(p).rglob("*.py"))
                   for p in paths):
            print(f"no *.py file(s) under: {', '.join(paths)}",
                  file=sys.stderr)
            return 2
        findings = lint_paths(paths)
        for f in findings:
            say(f)
        say(f"lint: {len(findings)} finding(s) over {len(paths)} path(s)")
        doc["passes"]["lint"] = {
            "findings": [{"rule": f.rule, "path": f.path, "line": f.line,
                          "message": f.message} for f in findings],
            "ok": not findings,
        }
        failed |= bool(findings)

    try:
        if do_race:
            n_alg = len(args.algorithms or LABELS)
            say(f"race detector: {n_alg} algorithm"
                f"{'' if n_alg == 1 else 's'} x push/pull, "
                f"P={args.threads}, {args.dataset} n={args.scale}")
            failed |= _report_pass("race", runner.analyze_algorithms(
                n=args.scale, P=args.threads, seed=args.seed,
                slack=args.slack, algorithms=args.algorithms,
                dataset=args.dataset, progress=progress), say, doc)
        if do_dm:
            n_dm = (clamped_scale(args.scale, 96,
                                  reason="the default full-analysis DM pass "
                                         "caps its epoch grid; pass --dm to "
                                         "run the requested scale")
                    if not args.dm else args.scale)
            say(f"epoch checker: {len(runner.DM_MATRIX)} DM kernels x "
                f"backends, P={args.threads}, {args.dataset} n={n_dm}")
            failed |= _report_pass("dm", runner.analyze_dm(
                n=n_dm, P=args.threads, seed=args.seed, slack=args.slack,
                dataset=args.dataset, progress=progress), say, doc)
        if do_faults:
            n_f = clamped_scale(args.scale, 96,
                                reason="the chaos suite replays whole kernel "
                                       "grids per fault seed")
            seeds = tuple(range(args.fault_seeds))
            scoped = args.sm or args.dm
            runs = []
            for rtm, matrix, axis in (("dm", runner.DM_MATRIX, "backends"),
                                      ("sm", runner.SM_MATRIX, "push/pull")):
                if scoped and not (getattr(args, rtm) or args.all):
                    continue
                say(f"chaos suite: {len(matrix)} {rtm.upper()} kernels x "
                    f"{axis} x fault plans, P={args.threads}, "
                    f"{args.dataset} n={n_f}, {len(seeds)} fault seed(s)")
                runs += runner.analyze_faults(
                    n=n_f, P=args.threads, seed=args.seed,
                    dataset=args.dataset, fault_seeds=seeds, runtimes=(rtm,),
                    progress=progress)
            failed |= _report_pass("faults", runs, say, doc)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if do_effects:
        from repro.analysis.effect_report import render_text, report_to_json
        from repro.analysis.effects import KERNELS, analyze_effects
        from repro.observability.footprint import (
            RECONCILE_CELLS, reconcile_effects,
        )

        say(f"effect inference: {len(KERNELS)} kernels (SM+DM), "
            "rules ANL101-ANL105")
        report = analyze_effects()
        say(render_text(report), end="")
        effects_failed = not report.ok
        entry = {"report": report_to_json(report), "ok": report.ok}
        if not args.no_reconcile:
            say("reconciling static write sets against dynamic traces "
                f"({len(RECONCILE_CELLS)} cells)...")
            cells = reconcile_effects(
                report=report, P=args.threads,
                progress=None if as_json else (
                    lambda a, v, d: print(
                        f"  .. {a} {v} [{'dm' if d else 'sm'}]")))
            bad_cells = [c for c in cells if not c.ok]
            for c in bad_cells:
                say(f"  RECONCILE FAIL {c.algorithm}/{c.variant} "
                    f"[{'dm' if c.dm else 'sm'}]: traced writes "
                    f"{c.missing} not in the static write set")
            say(f"reconcile: {len(bad_cells)} failing cell(s) of "
                f"{len(cells)}")
            entry["reconcile"] = [c.to_json() for c in cells]
            entry["ok"] = entry["ok"] and not bad_cells
            effects_failed |= bool(bad_cells)
        say(f"effects: {len(report.errors())} error(s), "
            f"{len(report.advice())} advisory finding(s)")
        doc["passes"]["effects"] = entry
        failed |= effects_failed

    doc["ok"] = not failed
    if as_json:
        print(_json.dumps(doc, indent=2))
    return 1 if failed else 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # forward everything after "experiments" verbatim (argparse REMAINDER
    # refuses leading flags)
    if argv and argv[0] == "experiments":
        from repro.harness.run_all import main as run_all_main
        return run_all_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "trace":
        from repro.observability.driver import trace_main
        try:
            return trace_main(args)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.command == "bench":
        if args.bench_command == "speedup":
            from repro.observability.speedup import speedup_main
            return speedup_main(args)
        if args.bench_command == "history":
            from repro.observability.history import history_main
            return history_main(args)
        from repro.observability.regress import diff_main
        return diff_main(args)
    from repro.harness.run_all import main as run_all_main
    return run_all_main(args.rest)


if __name__ == "__main__":
    sys.exit(main())
