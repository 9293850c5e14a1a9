"""The ``python -m repro trace`` entry point.

Runs any row of the kernel table (:mod:`repro.kernels`) on a
deterministic generated instance with a
:class:`~repro.observability.tracer.Tracer` attached, optionally on
the DM runtime and optionally under the runtime's default chaos fault
plan, then writes the exports into a directory::

    python -m repro trace pagerank --variant push --out /tmp/t
    python -m repro trace pagerank --variant pull --flame --out /tmp/t
    python -m repro trace pagerank --variant push --dm --faults --out /tmp/t
    python -m repro trace bfs --variant push --faults --flame --out /tmp/t
    python -m repro trace triangles --variant rma-pull --dm --out /tmp/t
    python -m repro trace --bench --out BENCH_trace.json

By default the run is equipped with the trace-driven cache simulation
(:func:`repro.observability.hwcounters.equip_cache_sim`), so every
span delta and the metrics rollup carry the Table-1 L1/L2/L3/TLB miss
columns; ``--cache-scale 0`` falls back to flat counting memory.
Everything is seeded, so two invocations with the same flags produce
byte-identical ``events.jsonl`` / ``trace.json`` / ``metrics.json`` /
``flame.folded``.
"""

from __future__ import annotations

import sys

from repro.kernels import BY_NAME, launch
from repro.observability.export import write_outputs
from repro.observability.hwcounters import DEFAULT_CACHE_SCALE, equip_cache_sim
from repro.observability.tracer import attach_tracer

#: execution engines: "interpreted" = the kernels in repro.algorithms,
#: "batched" = their entries in repro.streams.kernels -- byte-identical
#: counters.  Only PageRank's differ (a semiring port replaying numpy op
#: batches); the batched BFS, Δ-Stepping and CC entries call the
#: interpreted kernels, whose vertex-walking phases replay op streams
#: under both engines
TRACE_ENGINES = ("interpreted", "batched")


def default_fault_plan(seed: int = 1):
    """The chaos plan ``--faults --dm`` injects: every fault class
    enabled at rates that make recovery near-certain on a short run."""
    from repro.runtime.faults import FaultPlan
    return FaultPlan(seed=seed, drop=0.15, duplicate=0.05, delay=0.05,
                     rma_lost=0.2, rma_duplicate=0.1, straggler=0.1,
                     crash=0.05)


def default_sm_fault_plan(seed: int = 1):
    """The SM twin: every SM fault class enabled, crash included, so a
    traced run shows stragglers, retries, fences, and rollbacks."""
    from repro.runtime.sm_faults import SMFaultPlan
    return SMFaultPlan(seed=seed, straggler=0.1, lock_preempt=0.1,
                       cas_lost=0.05, cas_duplicate=0.05, store_delay=0.05,
                       crash=0.05)


def run_traced(algorithm: str, variant: str = "push", dm: bool = False,
               faults: bool = False, dataset: str = "er", n: int = 96,
               P: int = 4, seed: int = 7, iterations: int = 5,
               fault_seed: int = 1, cache_scale: int = DEFAULT_CACHE_SCALE,
               attach=None, engine: str = "interpreted", sinks=None,
               wallclock: bool = False, traced: bool = True):
    """Run one kernel under a fresh tracer.

    Returns ``(rt, tracer, resolved_variant, result)``.  ``faults``
    attaches the runtime's chaos injector under its default plan
    (:func:`default_fault_plan` / :func:`default_sm_fault_plan`); on
    the SM side this also forces the batched engine onto its oracle
    lowering, so both engines observe the same fault schedule.  A
    nonzero
    ``cache_scale`` swaps in the trace-driven cache simulator (scaled
    down by that factor) so span deltas carry cache/TLB miss counters;
    ``cache_scale=0`` keeps the runtime's flat counting memory.
    ``attach``, when given, is called with the fully equipped runtime
    right before dispatch -- the hook the effect-inference layer uses to
    install its dynamic write-footprint recorder.  ``engine="batched"``
    dispatches to the stream-emitting kernels (:mod:`repro.streams`);
    counters, span deltas, and results are byte-identical to the
    interpreted kernels (certified by tests/test_streams_differential).

    ``sinks`` selects the tracer's retention strategy
    (:mod:`repro.observability.sinks`; default: one buffering sink).
    ``wallclock=True`` attaches the wall-clock self-profiler.
    ``traced=False`` skips the tracer entirely (``tracer`` comes back
    ``None``) -- the untraced twin the overhead measurement compares
    against.
    """
    from repro.analysis.runner import instance_graph
    k = BY_NAME.get(algorithm)
    if k is None:
        raise ValueError(f"unknown algorithm {algorithm!r}; "
                         f"choose from {tuple(BY_NAME)}")
    if engine not in TRACE_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {TRACE_ENGINES}")
    g = instance_graph(dataset, n, d_bar=4.0, seed=seed, weighted=k.weighted)
    if dm:
        from repro.runtime.dm import DMRuntime
        rt = DMRuntime(g.n, P)
    else:
        from repro.runtime.sm import SMRuntime
        rt = SMRuntime(g, P)
    if cache_scale:
        equip_cache_sim(rt, cache_scale=cache_scale)
    tracer = attach_tracer(rt, graph=g, sinks=sinks) if traced else None
    if tracer is not None and wallclock:
        tracer.enable_wallclock()
    if faults:
        if dm:
            from repro.runtime.faults import attach_fault_injector
            attach_fault_injector(rt, default_fault_plan(fault_seed))
        else:
            from repro.runtime.sm_faults import attach_sm_fault_injector
            attach_sm_fault_injector(rt, default_sm_fault_plan(fault_seed))
    if attach is not None:
        attach(rt)
    # DM kernels already batch their communication per superstep, so the
    # batched engine runs DM cells unchanged (docs/streams.md)
    resolved, result = launch(k, variant, g, rt, iterations, dm=dm,
                              batched=engine == "batched")
    return rt, tracer, resolved, result


def _make_sinks(args):
    """Build the sink list the ``--sink`` flag selects (None = default
    buffer).  The streaming sink opens its file at attach, so the
    output directory is created here."""
    import os

    from repro.observability.sinks import (
        JsonlStreamSink, RollupSink, SamplingSink,
    )
    if args.sink == "buffer":
        return None
    if args.sink == "rollup":
        return [RollupSink()]
    if args.sink == "sampling":
        return [SamplingSink(max_events=args.sample_events,
                             seed=args.sample_seed)]
    # stream: constant-memory JSONL plus the online rollup so
    # metrics.json and the reconciliation checks still exist
    os.makedirs(args.out, exist_ok=True)
    return [JsonlStreamSink(os.path.join(args.out, "events.jsonl")),
            RollupSink()]


def trace_main(args) -> int:
    """Back the ``repro trace`` CLI subcommand; returns an exit code."""
    if args.bench:
        from repro.harness.bench import write_bench
        path = write_bench(args.out, engine=args.engine)
        print(f"wrote perf baseline: {path}")
        return 0
    if args.algorithm is None:
        print("error: an algorithm is required unless --bench is given",
              file=sys.stderr)
        return 2
    budget = args.overhead_budget
    wallclock = args.wallclock or budget is not None
    config = dict(
        variant=args.variant, dm=args.dm, faults=args.faults,
        dataset=args.dataset, n=args.scale, P=args.procs, seed=args.seed,
        iterations=args.iterations, fault_seed=args.fault_seed,
        cache_scale=args.cache_scale, engine=args.engine)
    untraced_s = None
    if wallclock:
        import time

        # warm the kernel/engine imports on a tiny instance so neither
        # timed run pays first-import cost, then time the untraced twin
        warm = dict(config, n=min(96, args.scale), iterations=1)
        run_traced(args.algorithm, **warm, traced=False)
        t0 = time.perf_counter()
        run_traced(args.algorithm, **config, traced=False)
        untraced_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        rt, tracer, resolved, _result = run_traced(
            args.algorithm, **config, sinks=_make_sinks(args),
            wallclock=True)
        tracer.wallclock.finish(
            traced_s=time.perf_counter() - t0, untraced_s=untraced_s,
            peak_sink_bytes=tracer.peak_sink_bytes)
    else:
        rt, tracer, resolved, _result = run_traced(
            args.algorithm, **config, sinks=_make_sinks(args))
    paths = write_outputs(tracer, args.out, flame=args.flame)
    from repro.observability.sinks import format_bytes
    kinds = tracer.kind_counts
    runtime = "dm" if args.dm else "sm"
    print(f"traced {args.algorithm}/{resolved} [{runtime}] on "
          f"{args.dataset} n={args.scale} P={args.procs}: "
          f"{tracer.n_events} events, {rt.time:,.0f} mtu")
    print("  " + "  ".join(f"{k}={kinds[k]}" for k in sorted(kinds)))
    print("  sinks: " + ", ".join(s.name for s in tracer.sinks)
          + f"  events={tracer.n_events}"
          + f"  peak-sink-mem={format_bytes(tracer.peak_sink_bytes)}")
    traced, actual = tracer.reconcile()
    status = "ok" if traced.to_dict() == actual.to_dict() else "MISMATCH"
    print(f"  counter reconciliation: {status}")
    crit = tracer.critical_totals()
    tstatus = "ok" if crit["reconciled"] else "MISMATCH"
    print(f"  time decomposition: {tstatus} "
          f"(compute={crit['compute']:,.0f} comm={crit['comm']:,.0f} "
          f"sync={crit['sync']:,.0f} "
          f"stall={crit['injected_stall'] + crit['recovery_stall']:,.0f} "
          f"off-path={crit['off_path_idle']:,.0f})")
    if wallclock:
        wc = tracer.wallclock
        rate = wc.events / wc.traced_s if wc.traced_s else 0.0
        print(f"  wallclock: traced={wc.traced_s:.3f}s "
              f"untraced={untraced_s:.3f}s "
              f"overhead={wc.overhead_x:.2f}x "
              f"({rate:,.0f} events/s)")
    for key in ("jsonl", "chrome", "metrics", "flame"):
        if key in paths:
            print(f"  {key}: {paths[key]}")
    skipped = [k for k in (("chrome", "metrics")
                           + (("flame",) if args.flame else ()))
               if k not in paths]
    if skipped:
        print("  skipped (no sink retains what these need): "
              + ", ".join(skipped))
    ok = status == "ok" and tstatus == "ok"
    if budget is not None and wc.overhead_x is not None \
            and wc.overhead_x > budget:
        print(f"  OVERHEAD BUDGET EXCEEDED: {wc.overhead_x:.2f}x > "
              f"{budget:.2f}x (traced {wc.traced_s:.3f}s vs untraced "
              f"{untraced_s:.3f}s)")
        ok = False
    return 0 if ok else 1
