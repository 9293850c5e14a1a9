"""Folded-stack flamegraph export of a recorded trace.

The folded format is the lingua franca of flamegraph tooling (Brendan
Gregg's ``flamegraph.pl``, speedscope, inferno): one line per unique
stack, semicolon-separated frames, a space, and a positive integer
weight.  We fold the simulated timeline as::

    <runtime>;<lane>;<phase>  <mtu>

* ``<runtime>`` is ``sm`` or ``dm`` (the root frame);
* ``<lane>`` is ``thread N`` / ``rank N``;
* ``<phase>`` is the region/superstep label the kernel declared via
  ``rt.annotate`` (``pr.pull``, ``bfs.kfilter [seq]``, ...), or one of
  the synthetic frames ``[off-path]`` (the lane's slack inside a region
  whose critical path was another lane -- exactly the
  ``off_path_idle`` total of the metrics rollup's ``critical_path``),
  ``[barrier]`` and ``[stall]``
  (synchronization / recovery waits).  ``[stall]`` appears two ways:
  barrier-gating recovery stalls land on every lane, while per-lane
  injected span stretch (SM stragglers, lock-preempt waits -- the
  region event's ``data["stalls"]``) is carved out of the injured
  lane's phase frame only, so a flamegraph of a chaotic run shows
  exactly *which* thread lost time to which fault.

Weights are simulated mtu rounded to integers, so every lane's total
width equals the run's simulated time and two runs of the same seeded
configuration produce **byte-identical** files (lines are emitted in
sorted order).  Zero-weight stacks are dropped -- flamegraph.pl
rejects non-positive counts -- which also keeps empty traces valid
(an empty folded file renders as an empty graph).
"""

from __future__ import annotations


def folded_stacks(tracer) -> list[str]:
    """The folded-stack lines (sorted, no trailing newline)."""
    rt = tracer.rt
    root = "dm" if tracer.is_dm else "sm"
    noun = "rank" if tracer.is_dm else "thread"
    weights: dict[tuple[str, ...], float] = {}

    def add(lane_frame: str, phase: str, w: float) -> None:
        if w <= 0.0:
            return
        key = (root, lane_frame, phase)
        weights[key] = weights.get(key, 0.0) + w

    lanes = [f"{noun} {t}" for t in range(rt.P)]
    for ev in tracer.events:
        if ev.kind in ("region", "superstep"):
            spans = ev.data["spans"]
            stalls = ev.data.get("stalls")
            for t, s in enumerate(spans):
                if t >= rt.P:
                    continue
                w = min(s, ev.dur)
                # injected per-lane stretch is part of the span but not
                # of the phase's real work: carve it into [stall]
                st = min(stalls[t], w) if stalls else 0.0
                add(lanes[t], ev.label, w - st)
                add(lanes[t], "[stall]", st)
                add(lanes[t], "[off-path]", ev.dur - w)
        elif ev.kind == "barrier":
            for lane in lanes:
                add(lane, "[barrier]", ev.dur)
        elif ev.kind == "stall":
            if ev.lane is not None and ev.lane < rt.P:
                add(lanes[ev.lane], "[stall]", ev.dur)
            else:
                for lane in lanes:
                    add(lane, "[stall]", ev.dur)

    lines = []
    for key in sorted(weights):
        w = int(round(weights[key]))
        if w > 0:
            lines.append(";".join(key) + f" {w}")
    return lines


def write_flame(tracer, path: str) -> str:
    """Write the folded stacks to ``path``; returns the path.

    The output feeds straight into standard tooling::

        flamegraph.pl flame.folded > flame.svg
        speedscope flame.folded
    """
    lines = folded_stacks(tracer)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return path


__all__ = ["folded_stacks", "write_flame"]
