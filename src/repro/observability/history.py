"""The append-only bench-history timeline (``repro bench history``).

``repro bench diff`` answers "did the tree drift from the committed
baseline" -- a two-point comparison.  This module gives the baselines a
*trajectory*: every recorded ``repro-bench/*`` document becomes one
compact snapshot line in an append-only JSONL timeline
(``BENCH_history.jsonl``, schema ``repro-bench-history/1``), and the
CLI renders per-cell trend tables across snapshots with regression
flagging.  The committed timeline is seeded from the committed
``BENCH_trace.json`` (deterministic: no timestamp unless ``--stamp``),
and CI appends a stamped snapshot per run so the artifact carries the
measured trajectory even though the committed file stays fixed.

A snapshot keeps only the cell-level trend surface -- ``time_mtu``,
the run counters, and the critical-path decomposition per cell, keyed
exactly like ``bench diff`` keys cells
(:func:`repro.observability.regress._cell_key`) -- so a timeline of
hundreds of snapshots stays small and every line is diffable against
any other.

* :func:`snapshot_from_doc` -- one ``repro-bench/*`` document -> one
  snapshot dict.
* :func:`load_history` / :func:`append_snapshot` -- the JSONL file.
* :func:`trend_rows` / :func:`regressions` -- the per-cell trajectory
  and the cells whose latest ``time_mtu`` grew past the threshold.
* :func:`render_trend` -- plain or markdown trend table.
* :func:`history_main` -- the CLI entry point.
"""

from __future__ import annotations

import json
import os

from repro.observability.export import _dumps
from repro.observability.regress import (
    BenchDiffError, _cell_key, load_baseline,
)

#: versioned schema tag of one timeline line
HISTORY_SCHEMA = "repro-bench-history/1"


def _numeric(d: dict | None) -> dict:
    """Numeric leaves only (the diffable trend surface)."""
    if not isinstance(d, dict):
        return {}
    return {k: v for k, v in d.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def snapshot_from_doc(doc: dict, label: str, source: str,
                      recorded: str | None = None) -> dict:
    """Compress one ``repro-bench/*`` document into a timeline snapshot.

    ``recorded`` is an ISO-8601 UTC stamp or ``None`` -- the committed
    timeline keeps it ``None`` so regeneration is byte-deterministic;
    CI passes a real stamp (``--stamp``).
    """
    cells = []
    for cell in doc["cells"]:
        cells.append({
            "key": _cell_key(cell),
            "time_mtu": cell["time_mtu"],
            "counters": _numeric(cell.get("counters")),
            "critical": _numeric(cell.get("critical")),
        })
    cells.sort(key=lambda c: c["key"])
    return {
        "schema": HISTORY_SCHEMA,
        "label": label,
        "source": source,
        "bench_schema": doc.get("schema"),
        "kind": doc.get("kind", "trace"),
        "recorded": recorded,
        "cells": cells,
    }


def load_history(path: str) -> list[dict]:
    """Parse the timeline file into snapshot dicts (oldest first)."""
    snapshots = []
    with open(path) as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                snap = json.loads(line)
            except json.JSONDecodeError as exc:
                raise BenchDiffError(
                    f"history {path!r} line {i}: not valid JSON: "
                    f"{exc}") from exc
            if snap.get("schema") != HISTORY_SCHEMA:
                raise BenchDiffError(
                    f"history {path!r} line {i}: schema "
                    f"{snap.get('schema')!r} is not {HISTORY_SCHEMA!r}")
            snapshots.append(snap)
    return snapshots


def append_snapshot(path: str, snapshot: dict) -> None:
    """Append one snapshot line (creates the file on first use)."""
    with open(path, "a") as fh:
        fh.write(_dumps(snapshot) + "\n")


def trend_rows(snapshots: list[dict], last: int = 8) -> list[dict]:
    """Per-cell ``time_mtu`` trajectory over the last ``last`` snapshots.

    Each row: ``{"key", "values" (one per shown snapshot, None where
    the cell is absent), "pct_prev" (last vs previous, None when either
    is missing/zero), "pct_first" (last vs first shown)}``.
    """
    shown = snapshots[-last:] if last else snapshots
    keys = sorted({c["key"] for s in shown for c in s["cells"]})
    by_snap = [{c["key"]: c["time_mtu"] for c in s["cells"]} for s in shown]
    rows = []
    for key in keys:
        values = [m.get(key) for m in by_snap]
        present = [v for v in values if v is not None]
        pct_prev = pct_first = None
        if values and values[-1] is not None:
            prior = [v for v in values[:-1] if v is not None]
            if prior and prior[-1]:
                pct_prev = 100.0 * (values[-1] - prior[-1]) / prior[-1]
            if len(present) > 1 and present[0]:
                pct_first = 100.0 * (values[-1] - present[0]) / present[0]
        rows.append({"key": key, "values": values,
                     "pct_prev": pct_prev, "pct_first": pct_first})
    return rows


def regressions(snapshots: list[dict], threshold_pct: float = 0.0,
                last: int = 8) -> list[dict]:
    """Cells whose latest ``time_mtu`` grew more than ``threshold_pct``
    percent over the previous snapshot that had the cell."""
    return [r for r in trend_rows(snapshots, last=last)
            if r["pct_prev"] is not None and r["pct_prev"] > threshold_pct]


def _fmt(v) -> str:
    if v is None:
        return "—"
    return f"{v:,.0f}"


def _fmt_pct(v) -> str:
    return "—" if v is None else f"{v:+.2f}%"


def render_trend(snapshots: list[dict], markdown: bool = False,
                 last: int = 8, threshold_pct: float = 0.0) -> str:
    """The trend table over the last ``last`` snapshots."""
    shown = snapshots[-last:] if last else snapshots
    rows = trend_rows(snapshots, last=last)
    flagged = {r["key"] for r in regressions(snapshots,
                                             threshold_pct=threshold_pct,
                                             last=last)}
    labels = [s["label"] for s in shown]
    lines = []
    if markdown:
        lines.append("## Bench history (time_mtu per cell)")
        lines.append("")
        lines.append(f"{len(snapshots)} snapshot(s) on the timeline; "
                     f"showing the last {len(shown)}.")
        lines.append("")
        lines.append("| cell | " + " | ".join(labels)
                     + " | Δ% prev | Δ% first | |")
        lines.append("|---|" + "---:|" * (len(labels) + 2) + "---|")
        for r in rows:
            flag = "REGRESSION" if r["key"] in flagged else ""
            lines.append(
                "| " + r["key"] + " | "
                + " | ".join(_fmt(v) for v in r["values"])
                + f" | {_fmt_pct(r['pct_prev'])}"
                + f" | {_fmt_pct(r['pct_first'])} | {flag} |")
    else:
        lines.append(f"bench history: {len(snapshots)} snapshot(s), "
                     f"showing last {len(shown)}: " + " -> ".join(labels))
        for r in rows:
            flag = "  REGRESSION" if r["key"] in flagged else ""
            lines.append(
                f"  {r['key']}: "
                + " -> ".join(_fmt(v) for v in r["values"])
                + f"  ({_fmt_pct(r['pct_prev'])} vs prev)" + flag)
    return "\n".join(lines)


def record(history_path: str, doc_path: str, label: str | None = None,
           stamp: bool = False) -> dict:
    """Load ``doc_path``, append it to the timeline, return the snapshot."""
    doc = load_baseline(doc_path)
    name = os.path.basename(doc_path)
    recorded = None
    if stamp:
        import datetime
        recorded = datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ")
    snap = snapshot_from_doc(doc, label=label or name, source=name,
                             recorded=recorded)
    append_snapshot(history_path, snap)
    return snap


def history_main(args) -> int:
    """Back the ``repro bench history`` CLI subcommand."""
    import sys

    try:
        snapshots = (load_history(args.history)
                     if os.path.exists(args.history) else [])
        if args.doc is not None:
            snapshots.append(record(args.history, args.doc,
                                    label=args.label, stamp=args.stamp))
    except BenchDiffError as exc:
        print(f"bench history: error: {exc}", file=sys.stderr)
        return 2
    if not snapshots:
        print(f"bench history: no timeline at {args.history!r} and no "
              f"document to record; pass a repro-bench JSON to seed it",
              file=sys.stderr)
        return 2
    print(render_trend(snapshots, markdown=args.markdown, last=args.last,
                       threshold_pct=args.threshold_pct))
    flagged = regressions(snapshots, threshold_pct=args.threshold_pct,
                          last=args.last)
    if flagged:
        print()
        for r in flagged:
            prior = [v for v in r["values"][:-1] if v is not None]
            print(f"REGRESSION {r['key']}: {_fmt(prior[-1])} -> "
                  f"{_fmt(r['values'][-1])} time_mtu "
                  f"({_fmt_pct(r['pct_prev'])} > "
                  f"{args.threshold_pct:g}% threshold)")
        if args.gate:
            return 1
    return 0


__all__ = ["HISTORY_SCHEMA", "append_snapshot", "history_main",
           "load_history", "record", "regressions", "render_trend",
           "snapshot_from_doc", "trend_rows"]
