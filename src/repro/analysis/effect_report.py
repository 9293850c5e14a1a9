"""Rendering and golden-file plumbing for the effect-inference pass.

The JSON document (schema ``repro-effects/1``) is deterministic --
kernels sorted by name, phases in (path, line) order, findings sorted by
location -- so the committed golden file ``EFFECTS.json`` diffs cleanly
in CI: a kernel edit that changes any inferred signature fails loudly
until the golden is regenerated with::

    PYTHONPATH=src python -m repro.analysis.effect_report -o EFFECTS.json
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.effects import EffectReport, analyze_effects

SCHEMA = "repro-effects/1"


def report_to_json(report: EffectReport) -> dict:
    return {
        "schema": SCHEMA,
        "kernels": {name: report.kernels[name].to_json()
                    for name in sorted(report.kernels)},
        "findings": [f.to_json() for f in report.findings],
        "allowlist": report.allowlist,
    }


def render_json(report: EffectReport) -> str:
    return json.dumps(report_to_json(report), indent=2, sort_keys=False) + "\n"


def render_text(report: EffectReport) -> str:
    lines: list[str] = []
    for name in sorted(report.kernels):
        k = report.kernels[name]
        lines.append(f"{name}  ({k.path}:{k.entry})")
        for p in k.phases:
            decl = p.declared or "-"
            lines.append(
                f"  [{p.kind:10}] {p.label:18} line {p.line:<4} "
                f"declared={decl:5} inferred={p.inferred}")
            if p.reads:
                lines.append(f"      reads:  {', '.join(p.reads)}")
            if p.writes:
                lines.append(f"      writes: {', '.join(p.writes)}")
            for a in p.atomics:
                lines.append(
                    f"      atomic {a['verb']} {','.join(a['arrays'])} "
                    f"[{a['index']}] -> {a['verdict']}")
            if p.comm:
                for s in p.comm.get("sends", ()):
                    lines.append(f"      send tag={s['tag']} -> {s['dest']}")
                for r in p.comm.get("rma", ()):
                    lines.append(
                        f"      {r['verb']} window={','.join(r['windows'])} "
                        f"-> {r['dest']}")
                for g in p.comm.get("gets", ()):
                    lines.append(
                        f"      rma_get window={','.join(g['windows'])} "
                        f"<- {g['dest']}")
        if k.write_set:
            lines.append(f"  write set: {', '.join(k.write_set)}")
        if k.windows:
            lines.append(f"  windows:   {', '.join(k.windows)}")
        lines.append("")
    if report.findings:
        lines.append("findings:")
        lines.extend(f"  {f}" for f in report.findings)
    else:
        lines.append("findings: none")
    if report.allowlist:
        lines.append("barrier-elision allowlist (ANL104):")
        lines.extend(
            f"  {a['kernel']}: {a['after']} || {a['before']} "
            f"({a['path']}:{a['line']})"
            for a in report.allowlist)
    return "\n".join(lines) + "\n"


def write_report(path: str | Path, report: EffectReport | None = None) -> Path:
    """Write the canonical JSON effect report (golden regeneration)."""
    if report is None:
        report = analyze_effects()
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_json(report), encoding="utf-8")
    return out


def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.analysis.effect_report",
        description="Regenerate the canonical JSON effect report.")
    ap.add_argument("-o", "--output", default="EFFECTS.json",
                    help="output path (default: EFFECTS.json)")
    args = ap.parse_args(argv)
    out = write_report(args.output)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
