"""Semantic perf-baseline diffing (``repro bench diff``).

CI used to gate the committed ``BENCH_trace.json`` byte-for-byte with
``cmp``, which can only say "changed" -- never *what* changed or *by
how much*.  This module compares two ``repro-bench/*`` documents
metric by metric and attributes every drift to the specific
**cell -> phase -> counter** that moved, the same attribution the
paper's Table 1 does by hand.

* :func:`diff_bench` -- compare two loaded baseline documents under a
  relative tolerance; returns a :class:`BenchDiff`.
* :class:`BenchDiff` -- the drift list plus ``verdict()`` (the
  machine-readable ``repro-benchdiff/1`` document) and
  ``markdown()``/``summary()`` reports.
* :func:`diff_main` -- the ``repro bench diff`` CLI entry point.

Tolerance semantics: a metric drifts out of tolerance when its
relative change exceeds ``tolerance_pct`` percent (a metric appearing
or vanishing is always out of tolerance, as is a structural change --
a cell or phase present on one side only).  Drift *direction* is
classified per record -- ``regression`` when the metric grew (every
baseline metric is a cost: time, misses, messages), ``improvement``
when it shrank -- but both directions gate, because either means the
committed baseline no longer describes the tree and must be
regenerated.  The exit code is 0 when every metric is within
tolerance, 1 on out-of-tolerance drift, 2 on malformed or
schema-mismatched input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: versioned schema tag of the machine-readable verdict
BENCHDIFF_SCHEMA = "repro-benchdiff/1"


class BenchDiffError(ValueError):
    """Malformed or incomparable baseline input (CLI exit code 2)."""


@dataclass(frozen=True)
class Drift:
    """One metric that differs between baseline and candidate."""

    cell: str                #: "algorithm/variant/runtime"
    scope: str               #: cell | phase | events | critical | traffic | structure
    phase: str | None        #: phase label for scope == "phase"
    metric: str              #: time_mtu, a counter name, or an event kind
    baseline: float
    candidate: float
    out_of_tolerance: bool

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    @property
    def pct(self) -> float | None:
        """Relative drift in percent; None when the baseline is 0."""
        if self.baseline == 0:
            return None
        return 100.0 * (self.candidate - self.baseline) / abs(self.baseline)

    @property
    def direction(self) -> str:
        return "regression" if self.candidate > self.baseline else "improvement"

    def where(self) -> str:
        place = self.cell
        if self.phase is not None:
            place += f" :: {self.phase}"
        return f"{place} :: {self.metric}"

    def to_dict(self) -> dict:
        return {
            "cell": self.cell, "scope": self.scope, "phase": self.phase,
            "metric": self.metric, "baseline": self.baseline,
            "candidate": self.candidate, "delta": self.delta,
            "pct": self.pct, "direction": self.direction,
            "out_of_tolerance": self.out_of_tolerance,
        }


@dataclass
class BenchDiff:
    """Outcome of one baseline comparison."""

    tolerance_pct: float
    schema: str                      #: the (shared) repro-bench schema
    cells_compared: int
    drifts: list[Drift] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.out_of_tolerance for d in self.drifts)

    @property
    def failing(self) -> list[Drift]:
        return [d for d in self.drifts if d.out_of_tolerance]

    def verdict(self) -> dict:
        """The machine-readable ``repro-benchdiff/1`` document."""
        failing = self.failing
        return {
            "schema": BENCHDIFF_SCHEMA,
            "bench_schema": self.schema,
            "tolerance_pct": self.tolerance_pct,
            "cells_compared": self.cells_compared,
            "ok": self.ok,
            "drifts": [d.to_dict() for d in self.drifts],
            "summary": {
                "total_drifts": len(self.drifts),
                "out_of_tolerance": len(failing),
                "regressions": sum(d.direction == "regression"
                                   for d in failing),
                "improvements": sum(d.direction == "improvement"
                                    for d in failing),
                "cells_affected": sorted({d.cell for d in failing}),
            },
        }

    def summary(self) -> str:
        """One-line human verdict."""
        if not self.drifts:
            return (f"bench diff: clean -- {self.cells_compared} cells "
                    f"identical at ±{self.tolerance_pct:g}% tolerance")
        failing = self.failing
        if not failing:
            return (f"bench diff: ok -- {len(self.drifts)} drift(s) all "
                    f"within ±{self.tolerance_pct:g}% over "
                    f"{self.cells_compared} cells")
        cells = sorted({d.cell for d in failing})
        return (f"bench diff: FAIL -- {len(failing)} out-of-tolerance "
                f"drift(s) (±{self.tolerance_pct:g}%) in "
                f"{len(cells)} cell(s): {', '.join(cells)}")

    def markdown(self, max_within: int = 20) -> str:
        """Markdown report: verdict line + attribution table."""
        lines = [
            "## Perf baseline diff",
            "",
            self.summary(),
            "",
        ]
        if not self.drifts:
            return "\n".join(lines)
        lines += [
            "| cell | phase | metric | baseline | candidate | Δ | Δ% | verdict |",
            "|---|---|---|---:|---:|---:|---:|---|",
        ]
        shown_within = 0
        hidden = 0
        for d in self.drifts:
            if not d.out_of_tolerance:
                if shown_within >= max_within:
                    hidden += 1
                    continue
                shown_within += 1
            pct = "new" if d.pct is None else f"{d.pct:+.2f}%"
            verdict = (d.direction if d.out_of_tolerance
                       else "within tolerance")
            lines.append(
                f"| {d.cell} | {d.phase or '—'} | {d.metric} "
                f"| {_num(d.baseline)} | {_num(d.candidate)} "
                f"| {_num(d.delta, signed=True)} | {pct} | {verdict} |")
        if hidden:
            lines.append("")
            lines.append(f"… and {hidden} more within-tolerance drift(s).")
        return "\n".join(lines)


def _num(v: float, signed: bool = False) -> str:
    text = f"{v:+g}" if signed else f"{v:g}"
    return text


def load_baseline(path: str) -> dict:
    """Load and structurally validate one ``repro-bench/*`` document."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BenchDiffError(f"cannot read baseline {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchDiffError(f"baseline {path!r} is not valid JSON: "
                             f"{exc}") from exc
    if not isinstance(doc, dict):
        raise BenchDiffError(f"baseline {path!r}: expected a JSON object")
    schema = doc.get("schema")
    if not isinstance(schema, str) or not schema.startswith("repro-bench/"):
        raise BenchDiffError(
            f"baseline {path!r}: schema {schema!r} is not a repro-bench/* "
            f"document")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not all(
            isinstance(c, dict) for c in cells):
        raise BenchDiffError(f"baseline {path!r}: missing or malformed "
                             f"'cells' list")
    for cell in cells:
        if not all(k in cell for k in ("algorithm", "variant", "runtime",
                                       "time_mtu")):
            raise BenchDiffError(
                f"baseline {path!r}: cell {cell.get('algorithm')!r} lacks "
                f"the algorithm/variant/runtime/time_mtu keys")
    return doc


def _cell_key(cell: dict) -> str:
    key = f"{cell['algorithm']}/{cell['variant']}/{cell['runtime']}"
    # repro-bench/3 documents carry multiple cell families (baseline /
    # large); older documents predate the field and keep the bare key.
    # "engine" is deliberately NOT part of the key: an interpreted
    # baseline and a batched candidate must land on the same cells --
    # that comparison IS the zero-drift gate.
    family = cell.get("family")
    return f"{key}/{family}" if family else key


def _within(base: float, cand: float, tolerance_pct: float) -> bool:
    if base == cand:
        return True
    if base == 0:
        return False  # a metric appeared (or the sign flipped from zero)
    return abs(cand - base) / abs(base) * 100.0 <= tolerance_pct


def _compare_dict(out: list[Drift], cell: str, scope: str,
                  phase: str | None, base: dict, cand: dict,
                  tolerance_pct: float) -> None:
    # only numeric leaves are diffable metrics (the cut block also
    # carries a per-lane list; structural lists are compared elsewhere)
    base = {k: v for k, v in base.items() if isinstance(v, (int, float))}
    cand = {k: v for k, v in cand.items() if isinstance(v, (int, float))}
    for metric in sorted(set(base) | set(cand)):
        b = float(base.get(metric, 0))
        c = float(cand.get(metric, 0))
        if b == c:
            continue
        out.append(Drift(cell=cell, scope=scope, phase=phase, metric=metric,
                         baseline=b, candidate=c,
                         out_of_tolerance=not _within(b, c, tolerance_pct)))


def diff_bench(baseline: dict, candidate: dict,
               tolerance_pct: float = 0.0) -> BenchDiff:
    """Compare two loaded baseline documents metric by metric.

    Raises :class:`BenchDiffError` when the documents are not
    comparable (different schema, kind, or sweep config).
    """
    if baseline.get("schema") != candidate.get("schema"):
        raise BenchDiffError(
            f"schema mismatch: baseline is {baseline.get('schema')!r}, "
            f"candidate is {candidate.get('schema')!r} -- regenerate the "
            f"older document before diffing")
    if baseline.get("kind", "trace") != candidate.get("kind", "trace"):
        raise BenchDiffError(
            f"kind mismatch: baseline is {baseline.get('kind', 'trace')!r}, "
            f"candidate is {candidate.get('kind', 'trace')!r}")
    if baseline.get("config") != candidate.get("config"):
        raise BenchDiffError(
            f"sweep config mismatch: baseline ran {baseline.get('config')!r}"
            f", candidate ran {candidate.get('config')!r} -- the cells are "
            f"not comparable")

    base_cells = {_cell_key(c): c for c in baseline["cells"]}
    cand_cells = {_cell_key(c): c for c in candidate["cells"]}
    drifts: list[Drift] = []

    for key in sorted(set(base_cells) | set(cand_cells)):
        if key not in cand_cells:
            drifts.append(Drift(cell=key, scope="structure", phase=None,
                                metric="cell-missing-from-candidate",
                                baseline=1, candidate=0,
                                out_of_tolerance=True))
            continue
        if key not in base_cells:
            drifts.append(Drift(cell=key, scope="structure", phase=None,
                                metric="cell-missing-from-baseline",
                                baseline=0, candidate=1,
                                out_of_tolerance=True))
            continue
        b, c = base_cells[key], cand_cells[key]
        _compare_dict(drifts, key, "cell", None,
                      {"time_mtu": b["time_mtu"]},
                      {"time_mtu": c["time_mtu"]}, tolerance_pct)
        _compare_dict(drifts, key, "cell", None, b.get("counters", {}),
                      c.get("counters", {}), tolerance_pct)
        _compare_dict(drifts, key, "events", None, b.get("events", {}),
                      c.get("events", {}), tolerance_pct)
        _compare_dict(drifts, key, "cell", None,
                      b.get("cut") or {}, c.get("cut") or {}, tolerance_pct)
        # PR 9 cell blocks: the critical-path decomposition and the
        # traffic-matrix totals drift-gate like any other metric
        _compare_dict(drifts, key, "critical", None,
                      b.get("critical") or {}, c.get("critical") or {},
                      tolerance_pct)
        _compare_dict(drifts, key, "traffic", None,
                      b.get("traffic") or {}, c.get("traffic") or {},
                      tolerance_pct)
        bp = {p["label"]: p for p in b.get("phases", [])}
        cp = {p["label"]: p for p in c.get("phases", [])}
        for label in sorted(set(bp) | set(cp)):
            if label not in cp or label not in bp:
                missing = "candidate" if label not in cp else "baseline"
                drifts.append(Drift(cell=key, scope="structure", phase=label,
                                    metric=f"phase-missing-from-{missing}",
                                    baseline=float(label in bp),
                                    candidate=float(label in cp),
                                    out_of_tolerance=True))
                continue
            _compare_dict(
                drifts, key, "phase", label,
                {"time_mtu": bp[label].get("time_mtu", 0),
                 "events": bp[label].get("events", 0)},
                {"time_mtu": cp[label].get("time_mtu", 0),
                 "events": cp[label].get("events", 0)}, tolerance_pct)
            _compare_dict(drifts, key, "phase", label,
                          bp[label].get("counters", {}),
                          cp[label].get("counters", {}), tolerance_pct)

    return BenchDiff(tolerance_pct=tolerance_pct,
                     schema=baseline["schema"],
                     cells_compared=len(set(base_cells) & set(cand_cells)),
                     drifts=drifts)


def diff_paths(baseline_path: str, candidate_path: str,
               tolerance_pct: float = 0.0) -> BenchDiff:
    """Load two baseline files and diff them."""
    return diff_bench(load_baseline(baseline_path),
                      load_baseline(candidate_path),
                      tolerance_pct=tolerance_pct)


def diff_main(args) -> int:
    """Back the ``repro bench diff`` CLI subcommand; returns exit code."""
    import sys

    try:
        diff = diff_paths(args.baseline, args.candidate,
                          tolerance_pct=args.tolerance_pct)
    except BenchDiffError as exc:
        print(f"bench diff: error: {exc}", file=sys.stderr)
        return 2
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(diff.verdict(), fh, sort_keys=True, indent=1,
                      allow_nan=False)
            fh.write("\n")
    if args.markdown:
        print(diff.markdown())
    else:
        print(diff.summary())
        for d in diff.failing[:40]:
            pct = "new" if d.pct is None else f"{d.pct:+.2f}%"
            print(f"  [{d.direction}] {d.where()}: "
                  f"{_num(d.baseline)} -> {_num(d.candidate)} ({pct})")
        if len(diff.failing) > 40:
            print(f"  ... and {len(diff.failing) - 40} more")
    return 0 if diff.ok else 1


__all__ = [
    "BENCHDIFF_SCHEMA",
    "BenchDiff",
    "BenchDiffError",
    "Drift",
    "diff_bench",
    "diff_main",
    "diff_paths",
    "load_baseline",
]
