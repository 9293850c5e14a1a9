"""Wall-clock benchmark of the Python simulator.

Run from the repository root::

    python3 perfbench/run.py --workload table1-cachesim --seed 1 --seconds 30
    python3 perfbench/run.py --workload dm-road --trace 1
    python3 perfbench/run.py --workload all      # every metric, every workload

One workload per process.  ``--trace 0`` measures the end-to-end
metrics (``wall_s``, ``setup_s``, ``sim_ops_per_s``, ``peak_rss_mb``)
with no span wrapper installed, its times rescaled to a reference host
speed (:func:`host_probe`); ``--trace 1`` alternates untraced and
traced passes and reports the per-layer split (see ``spans.py``).  Every
cell of every pass is checked (``checks.py``) outside its timed span;
the last stdout line is one JSON object with ``correct``, ``attempted``
(cell runs), ``failed`` (cell runs whose check failed, the
``cells_failed`` metric) and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: fresh-process set-up samples; ``setup_s`` is their median
SETUP_SAMPLES = 5

#: closure tolerance: layer self times + other.s vs trace.wall_s
CLOSURE_TOL = 0.01

#: median :func:`host_probe` time on the 2-vCPU VM the benchmark was
#: built on; timed-run seconds are rescaled to this host speed
PROBE_REF_S = 0.016

#: thread pools pinned to one thread: each workload runs on one core
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import repro
from workloads import WORKLOADS, warm_up
warm_up(WORKLOADS[{name!r}], {out!r})
print(repr(time.perf_counter() - t0))
"""


def host_probe() -> float:
    """Seconds one fixed pure-Python integer loop takes: the host's
    current speed for interpreter-bound work.

    On a shared host the speed drifts by up to 2x over minutes; the
    probe's median over a run tracks that drift, and the timed run
    rescales its seconds by ``PROBE_REF_S / probe median`` so runs made
    at different host speeds compare.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(150_000):
        x += i * i % 7
    return time.perf_counter() - t0


def setup_seconds(name: str) -> float:
    """Median over fresh processes of ``import repro`` + one warm-up
    cell, each rescaled by host probes taken just before and after."""
    code = _SETUP_PROBE.format(src=SRC, here=HERE, name=name, out=OUT)
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = host_probe()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        probe = (before + host_probe()) / 2
        seconds = float(proc.stdout.strip().splitlines()[-1])
        samples.append(seconds * PROBE_REF_S / probe)
    return statistics.median(samples)


class Passes:
    """Runs passes over a workload's cells and checks every cell run."""

    def __init__(self, w, seed: int) -> None:
        from checks import load_pins
        self.w = w
        self.rng = random.Random(seed)
        self.pins = load_pins().get(w.name, {})
        self.first: dict[str, object] = {}
        self.runs: dict[str, int] = {c.name: 0 for c in w.cells}
        self.failed: dict[str, int] = {c.name: 0 for c in w.cells}
        self.sim_ops: dict[str, int] = {}
        self.tracer_events = 0
        self.peak_sink_bytes = 0
        #: :func:`host_probe` times, one before every cell run
        self.probes: list[float] = []

    def run(self, cell_fn) -> dict[str, float]:
        """One pass in a seeded cell order; returns seconds per cell."""
        import numpy as np

        from checks import check_pin, check_reconcile, result_array
        from workloads import sim_ops

        cells = list(self.w.cells)
        self.rng.shuffle(cells)
        seconds: dict[str, float] = {}
        self.tracer_events = 0
        for cell in cells:
            gc.collect()    # no earlier cell's garbage is collected in this one
            self.probes.append(host_probe())
            t0 = time.perf_counter()
            rt, tracer, result = cell_fn(self.w, cell, OUT)
            seconds[cell.name] = time.perf_counter() - t0
            problems = (check_pin(rt, self.pins.get(cell.name))
                        + check_reconcile(tracer))
            out = result_array(cell, result)
            if cell.name not in self.first:
                self.first[cell.name] = (result, np.array(out))
            elif not np.array_equal(out, self.first[cell.name][1]):
                problems.append("result differs from the first pass")
            self.runs[cell.name] += 1
            if problems:
                self.failed[cell.name] += 1
                self._complain(cell, problems)
            self.sim_ops[cell.name] = sim_ops(rt)
            if tracer is not None:
                self.tracer_events += tracer.n_events
                self.peak_sink_bytes = max(self.peak_sink_bytes,
                                           tracer.peak_sink_bytes)
        return seconds

    def _complain(self, cell, problems: list[str]) -> None:
        for p in problems:
            print(f"CHECK FAILED {self.w.name} {cell.name}: {p}",
                  file=sys.stderr)

    def check_references(self) -> None:
        """Reference checks on the first pass's results (later passes
        were compared against those)."""
        from checks import ReferenceChecker
        ref = ReferenceChecker(self.w.config)
        for cell in self.w.cells:
            problems = ref.check(cell, self.first[cell.name][0])
            if problems:
                # every run of the cell produced this same result
                self._complain(cell, problems)
                self.failed[cell.name] = self.runs[cell.name]

    @property
    def attempted(self) -> int:
        return sum(self.runs.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


def _cell_medians(samples: list[dict[str, float]]) -> float:
    """Sum over cells of each cell's median seconds across passes."""
    return sum(statistics.median(s[name] for s in samples)
               for name in samples[0])


def _until(deadline: float, durations: list[float]) -> bool:
    """Whether another pass of mean length would end nearer the deadline
    than stopping now does."""
    return time.perf_counter() + statistics.fmean(durations) / 2 < deadline


def timed_run(w, seed: int, seconds: float) -> dict:
    from spans import installed_wrappers
    from workloads import run_cell, warm_up

    setup_s = setup_seconds(w.name)
    warm_up(w, OUT)
    passes = Passes(w, seed)
    samples, durations = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if installed_wrappers():
            raise RuntimeError("span wrappers are installed during the "
                               "timed pass: " + ", ".join(installed_wrappers()))
        t0 = time.perf_counter()
        samples.append(passes.run(run_cell))
        durations.append(time.perf_counter() - t0)
        if not _until(deadline, durations):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes.check_references()
    speed = PROBE_REF_S / statistics.median(passes.probes)
    wall_s = _cell_medians(samples) * speed
    print(f"host speed {speed:.3f} of reference; unscaled wall "
          f"{wall_s / speed:.4f} s")
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "sim_ops_per_s": (sum(passes.sim_ops.values()) / wall_s, "ops/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    return _result(passes, metrics, len(samples))


def traced_run(w, seed: int, seconds: float) -> dict:
    from spans import (
        LAYER_METRICS, ROOT as ROOT_SPAN, TIME_METRICS, SpanInstaller,
        SpanRecorder, folded_stacks, layer_metrics,
    )
    from workloads import run_cell, warm_up

    warm_up(w, OUT)
    passes = Passes(w, seed)
    rec = SpanRecorder()
    rooted = rec.wrap(run_cell, ROOT_SPAN, "other.s")
    plain, traced, per_pass, durations = [], [], [], []
    closure_ok = True
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        plain.append(passes.run(run_cell))
        rec.clear()
        with SpanInstaller(rec):
            traced.append(passes.run(rooted))
        durations.append(time.perf_counter() - t0)
        layers = layer_metrics(rec, passes.tracer_events,
                               passes.peak_sink_bytes)
        per_pass.append(layers)
        wall = sum(traced[-1].values())
        closed = sum(layers[name] for name in TIME_METRICS)
        if abs(closed - wall) > CLOSURE_TOL * wall:
            closure_ok = False
            print(f"CLOSURE FAILED {w.name}: layer self times sum to "
                  f"{closed:.6f} s, traced cells took {wall:.6f} s",
                  file=sys.stderr)
        if not _until(deadline, durations):
            break
    passes.check_references()
    os.makedirs(os.path.join(OUT, w.name), exist_ok=True)
    with open(os.path.join(OUT, w.name, "spans.folded"), "w") as fh:
        for path, s in sorted(folded_stacks(rec).items()):
            fh.write(f"{path} {round(s * 1e6)}\n")
    trace_wall = _cell_medians(traced)
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.wall_s":
            metrics[name] = (trace_wall, unit)
        elif name == "trace.overhead_x":
            metrics[name] = (trace_wall / _cell_medians(plain), unit)
        else:
            metrics[name] = (statistics.median(p[name] for p in per_pass),
                             unit)
    return _result(passes, metrics, len(traced), closure_ok)


def _result(passes, metrics: dict, n_passes: int,
            closure_ok: bool = True) -> dict:
    return {
        "correct": passes.n_failed == 0 and closure_ok,
        "attempted": passes.attempted,
        "failed": passes.n_failed,
        "passes": n_passes,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def _print_result(name: str, trace: int, res: dict) -> None:
    """Human-readable lines, then the one-line JSON result (last)."""
    print(f"{name} [trace={trace}]: {res['passes']} pass(es), "
          f"cells_run={res['attempted']} cells_failed={res['failed']}")
    for key, m in res["metrics"].items():
        print(f"  {key:26s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({k: res[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced; prints
    every metric and the wall / dominant-layer table."""
    from spans import dominant_layers
    from workloads import WORKLOADS

    results: dict[tuple[str, int], dict] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results[name, trace] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    print("\n| workload | wall_s (untraced) | dominant layer "
          "(share of traced self time) | next two |")
    print("|---|---|---|---|")
    for name in WORKLOADS:
        wall = results[name, 0]["metrics"]["wall_s"]["value"]
        ranked = dominant_layers(results[name, 1]["metrics"])
        cells = [f"`{k}` {share:.0%}" for k, share in ranked[:3]]
        print(f"| {name} | {wall:.2f} s | {cells[0]} | "
              f"{', '.join(cells[1:])} |")
    ok = all(r["correct"] for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the cell order of every pass")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget: passes repeat while one "
                             "more would end nearer to it than stopping")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}",
              file=sys.stderr)
        return 2
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or 'all'")
    w = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    res = run(w, args.seed, args.seconds)
    _print_result(w.name, args.trace, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
