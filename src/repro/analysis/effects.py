"""Static effect inference over the push/pull kernels (ANL1xx).

An abstract-interpretation pass over every kernel in
:mod:`repro.algorithms` (SM and DM) plus the Section-5 strategy
kernels.  Per traced phase (SM parallel region / sequential phase) or
superstep body, the pass infers an **effect signature**:

* the registered arrays the phase reads and writes (resolved through
  ``mem.register`` sites, :class:`~repro.algorithms.common.GraphArrays`
  fields, and f-string register names, which become glob patterns);
* the *index provenance* of each access -- own vertex (``v`` routed by
  ``by_owner``/``for_each_thread``/``rt.owned``), neighbor (derived
  from ``adj`` slices / ``g.neighbors``), frontier-derived work items,
  message payloads, or unknown;
* the inferred direction: a phase that *writes* neighbor-indexed state
  pushes; one that only *reads* neighbor state and writes own state
  pulls (the CSR=pull / CSC=push taxonomy of Section 7 made checkable);
* every atomic with a necessity verdict -- ``needed``,
  ``relaxable-to-store`` (all writers provably distinct: own-indexed or
  covered by a ``disjoint-writers`` hint, the GrS/CR candidate set of
  Section 5), or ``batched`` (already declared ``batched=True``);
* DM verb footprints: message tags, windows targeted by data-carrying
  RMA, and the ownership selections feeding each destination rank.

From the signatures five certified facts are derived:

``ANL101`` (direction-mismatch, error)
    A pull-classified phase writes neighbor-indexed state (store,
    CAS, or FAA whose index provenance is ``neighbor``) without an
    ownership guard.  Pull means *read* remote, write own.
``ANL102`` (non-owned plain store, error)
    A plain ``mem.write`` with neighbor index provenance, unprotected
    by any lock/atomic ``covers=`` in the same body, outside a
    sequential phase, and not under an ownership guard -- the static
    form of the dynamic owner-write check.
``ANL103`` (unnecessary atomic, advice)
    An atomic/lock whose writers are provably distinct (own-indexed,
    or ``disjoint-writers``-hinted) could relax to a plain store --
    the Greedy-Switch / Conflict-Removal candidate set.
``ANL104`` (barrier-elidable, advice)
    Two statically adjacent SM phases separated by a barrier whose
    read/write sets are disjoint (alias-hint aware): the barrier can
    be elided.  Emitted as an allowlist the future async scheduler
    consumes (ROADMAP: bounded-staleness mode).
``ANL105`` (DM verb/ownership mismatch, error)
    A data-carrying RMA verb targets a window never registered with
    ``rt.register_window``, or a verb's destination rank differs from
    the owner selection that built its payload/indices.

Inference hints: kernels may annotate facts the pass cannot prove with
``# effects:`` comments -- ``# effects: alias <glob> -> <name>``
declares physical aliasing (PageRank-PA's per-thread accumulator
slices), ``# effects: disjoint-writers <name>...`` declares that all
concurrent writers of an array hit distinct indices (Prim's
per-adjacency-row relaxation).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.lint import (
    ATOMIC_DECLS, FRONTIER, NEIGHBOR, OWN, STORE_DECLS, Hints, Launch,
    ModuleIndex, PhaseScan, covers_name, helpers, link, pattern_overlap,
)
from repro.kernels import EFFECT_ENTRIES

SEVERITY = {
    "ANL101": "error", "ANL102": "error", "ANL103": "advice",
    "ANL104": "advice", "ANL105": "error",
}

#: data-carrying DM verbs that require a registered window
DATA_RMA_VERBS = {"put", "accumulate"}

#: the effect matrix: (name, module relpath under src/repro, entry
#: function).  11 SM kernels, 4 DM kernels, 2 strategy kernels.
KERNELS: tuple[tuple[str, str, str], ...] = tuple(
    (name, module.replace(".", "/") + ".py", fn)
    for name, entry in EFFECT_ENTRIES.items()
    for module, _, fn in [entry.partition(":")])


@dataclass(frozen=True)
class EffectFinding:
    """One certified ANL1xx fact."""

    rule: str
    severity: str
    path: str
    line: int
    kernel: str
    phase: str
    message: str

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: {self.rule} ({self.severity}) "
                f"[{self.kernel}/{self.phase}] {self.message}")

    def to_json(self) -> dict:
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line, "kernel": self.kernel,
                "phase": self.phase, "message": self.message}


@dataclass
class PhaseSignature:
    """Inferred effects of one parallel region / sequential phase /
    superstep body."""

    label: str
    kind: str                     # "parallel" | "sequential" | "superstep"
    path: str
    line: int
    body: str                     # body function qualname
    declared: str | None          # direction by name/branch convention
    inferred: str                 # "push" | "pull" | "local"
    reads: list[str] = field(default_factory=list)
    writes: list[str] = field(default_factory=list)
    atomics: list[dict] = field(default_factory=list)
    comm: dict | None = None      # DM verb footprint

    def to_json(self) -> dict:
        out = {
            "label": self.label, "kind": self.kind, "line": self.line,
            "body": self.body, "declared": self.declared,
            "inferred": self.inferred, "reads": self.reads,
            "writes": self.writes, "atomics": self.atomics,
        }
        if self.comm is not None:
            out["comm"] = self.comm
        return out


@dataclass
class KernelEffects:
    """Whole-kernel effect signature: ordered phases + flat write set."""

    name: str
    path: str
    entry: str
    phases: list[PhaseSignature] = field(default_factory=list)
    write_set: list[str] = field(default_factory=list)
    windows: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"path": self.path, "entry": self.entry,
                "phases": [p.to_json() for p in self.phases],
                "write_set": self.write_set, "windows": self.windows}


@dataclass
class EffectReport:
    """The full inference result over the kernel matrix."""

    kernels: dict[str, KernelEffects]
    findings: list[EffectFinding]
    allowlist: list[dict]         # ANL104 entries for the async scheduler

    def errors(self) -> list[EffectFinding]:
        return [f for f in self.findings if f.severity == "error"]

    def advice(self) -> list[EffectFinding]:
        return [f for f in self.findings if f.severity == "advice"]

    @property
    def ok(self) -> bool:
        return not self.errors()


# ---------------------------------------------------------------------------
# kernel-level assembly
# ---------------------------------------------------------------------------

def _load_modules(paths: Iterable[Path]) -> list[ModuleIndex]:
    mods = [ModuleIndex(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(set(paths))]
    link(mods)
    return mods


def _function_table(mods: list[ModuleIndex]) -> dict:
    """name -> list of (module, node) for top-level funcs and classes."""
    table: dict[str, list] = {}
    for mod in mods:
        for name, node in mod.top_funcs.items():
            table.setdefault(name, []).append((mod, node))
        for name, cls in mod.classes.items():
            table.setdefault(name, []).append((mod, cls))
        for name, nodes in mod.methods.items():
            for n in nodes:
                table.setdefault(name, []).append((mod, n))
    return table


def _reach(entry_mod: ModuleIndex, entry_fn: ast.AST,
           mods: list[ModuleIndex]) -> set[int]:
    """ids of functions/classes reachable from ``entry_fn`` by name."""
    table = _function_table(mods)
    by_mod = {id(m): m for m in mods}
    seen: set[int] = set()
    work: list[tuple] = [(entry_mod, entry_fn)]
    while work:
        mod, node = work.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    work.append((mod, stmt))
            continue
        # nested defs belong to their enclosing function's kernel, and
        # so do the names they call
        callees: set[str] = set()
        inner = [node]
        while inner:
            sub = inner.pop()
            seen.add(id(sub))
            callees.update(c for c, _ in mod.calls_from.get(id(sub), ()))
            inner.extend(mod.nested.get(id(sub), ()))
        for callee in callees:
            for cmod, cnode in table.get(callee, ()):
                # same-module targets always qualify; cross-module ones
                # only when the entry module imports the name
                if cmod is mod or callee in mod.imports:
                    work.append((by_mod[id(cmod)], cnode))
    return seen


def _flat_write_set(scan: PhaseScan) -> tuple[set, set]:
    """(mem write set, DM window write set) of one def's scan; a
    kernel's flat write set is the union over the defs it reaches,
    nested defs included."""
    windows = {n for r in scan.comm.get("rma", ())
               if r["verb"] in DATA_RMA_VERBS for n in r["windows"]}
    writes = {n for op in scan.ops if op["verb"] in STORE_DECLS
              for n in op["arrays"] + op["covers"]}
    return writes | windows, windows


def _phase_label(mod: ModuleIndex, launch: Launch, body_fn) -> str:
    best = None
    for fn_id, line, label in mod.annotates:
        if fn_id == id(launch.enclosing) and line < launch.line:
            if best is None or line > best[0]:
                best = (line, label)
    if best is not None:
        return best[1]
    name = getattr(body_fn, "name", None)
    if name:
        return name
    return f"L{launch.line}"


def _inferred_direction(scan: PhaseScan) -> str:
    """push if the phase writes neighbor-indexed state, pull if it only
    reads it, else local."""
    neighbor_writes = any(
        op["verb"] in {"write", "cas", "faa"} and op["index"] == NEIGHBOR
        for op in scan.ops)
    neighbor_reads = any(
        op["verb"] == "read" and op["index"] == NEIGHBOR
        for op in scan.ops)
    if neighbor_writes:
        return "push"
    return "pull" if neighbor_reads else "local"


def _atomic_verdict(op: dict, hints: Hints) -> str:
    if op["index"] == OWN or hints.is_disjoint(op["arrays"]):
        return "relaxable-to-store"
    if op["batched"]:
        return "batched"
    return "needed"


def _rel(path: str) -> str:
    """Stable repo-relative path for reports (…/src/repro/… onward)."""
    p = Path(path).as_posix()
    marker = "src/repro/"
    i = p.rfind(marker)
    return p[i:] if i >= 0 else p


def _scan_launch(mod: ModuleIndex, launch: Launch, kernel: str,
                 findings: list[EffectFinding]) -> PhaseSignature | None:
    body = mod.body_of(launch)
    if body is None:
        return None
    body_fn, qual, declared = body
    superstep = launch.method == "superstep"
    own_items = launch.by_owner or launch.method == "for_each_thread"
    items_prov = OWN if own_items else FRONTIER
    scan = PhaseScan(mod, items_prov, superstep)
    if launch.enclosing is not None:
        scan.seed_from(launch.enclosing, launch.line)
    scan.scan(body_fn)
    # memory ops, verbs and covers of the helpers the body calls join its
    # signature.  Helper parameters carry unknown provenance, so the
    # expansion completes the read/write/comm footprint (ANL104
    # soundness) but can never manufacture an ANL101/ANL102 by itself
    for helper in helpers(mod, body_fn):
        if helper is launch.enclosing:
            continue
        sub = PhaseScan(mod, superstep=superstep).scan(helper)
        scan.ops.extend(sub.ops)
        scan.covered |= sub.covered
        for key, vals in sub.comm.items():
            scan.comm.setdefault(key, []).extend(vals)
    inferred = _inferred_direction(scan)
    label = _phase_label(mod, launch, body_fn)
    kind = ("superstep" if superstep
            else "sequential" if launch.method == "sequential"
            else "parallel")
    path = _rel(mod.path)

    atomics = []
    for op in scan.ops:
        if op["verb"] not in ATOMIC_DECLS:
            continue
        verdict = _atomic_verdict(op, mod.hints)
        atomics.append({"verb": op["verb"],
                        "arrays": list(op["arrays"]),
                        "index": op["index"], "verdict": verdict,
                        "line": op["line"]})
        if verdict == "relaxable-to-store":
            findings.append(EffectFinding(
                "ANL103", SEVERITY["ANL103"], path, op["line"], kernel,
                label,
                f"atomic {op['verb']} on {list(op['arrays'])} has provably "
                f"distinct writers ({'own-indexed' if op['index'] == OWN else 'disjoint-writers hint'}): "
                f"relaxable to a plain store (GrS/CR candidate, Section 5)"))

    # ANL101/ANL102 are SM-concurrency rules: DM superstep memory is
    # rank-private (cross-rank effects only flow through verbs, ANL105's
    # domain), so a neighbor-indexed local store there is just staging
    for op in (() if superstep else scan.ops):
        eff_dir = op["ctx"] or declared
        if (op["verb"] in {"write", "cas", "faa"}
                and op["index"] == NEIGHBOR
                and eff_dir == "pull"
                and not op["guard"] and not scan.ownership_checks):
            findings.append(EffectFinding(
                "ANL101", SEVERITY["ANL101"], path, op["line"], kernel,
                label,
                f"pull-classified phase writes neighbor-indexed "
                f"array(s) {list(op['arrays'])} via {op['verb']}: pull "
                f"reads remote state and writes own state only "
                f"(direction mismatch)"))
        if (op["verb"] == "write" and op["index"] == NEIGHBOR
                and kind != "sequential"
                and not op["guard"] and not scan.ownership_checks
                and not mod.hints.is_disjoint(op["arrays"])
                and not any(covers_name(n, scan.covered)
                            for n in op["arrays"])):
            findings.append(EffectFinding(
                "ANL102", SEVERITY["ANL102"], path, op["line"], kernel,
                label,
                f"plain store to neighbor-indexed array(s) "
                f"{list(op['arrays'])} without lock/atomic cover or "
                f"ownership guard: a non-owned write outside the "
                f"Section-3.8 contract"))

    if superstep:
        _check_dm(mod, scan, kernel, label, path, findings)

    comm = None
    if scan.comm:
        comm = {}
        if "sends" in scan.comm:
            comm["sends"] = [
                {"tag": s["tag"], "dest": s["dest"]}
                for s in scan.comm["sends"]]
        if "rma" in scan.comm:
            comm["rma"] = [
                {"verb": r["verb"], "windows": list(r["windows"]),
                 "index": r["index"], "dest": r["dest"]}
                for r in scan.comm["rma"]]
        if "gets" in scan.comm:
            comm["gets"] = [
                {"windows": list(g["windows"]), "dest": g["dest"]}
                for g in scan.comm["gets"]]
        if "inbox" in scan.comm:
            comm["inbox"] = scan.comm["inbox"]

    return PhaseSignature(
        label=label, kind=kind, path=path, line=launch.line, body=qual,
        declared=declared, inferred=inferred,
        reads=sorted(scan.reads()), writes=sorted(scan.writes()),
        atomics=atomics, comm=comm)


def _check_dm(mod: ModuleIndex, scan: PhaseScan, kernel: str, label: str,
              path: str, findings: list[EffectFinding]) -> None:
    for r in scan.comm.get("rma", ()):
        if r["verb"] in DATA_RMA_VERBS:
            registered = any(
                pattern_overlap(w, reg)
                for w in r["windows"] for reg in mod.windows)
            if not registered:
                findings.append(EffectFinding(
                    "ANL105", SEVERITY["ANL105"], path, r["line"], kernel,
                    label,
                    f"data-carrying rt.{r['verb']} targets window(s) "
                    f"{list(r['windows'])} never registered with "
                    f"rt.register_window: the update has no storage to "
                    f"land in and is invisible to crash rollback"))
        dest = r["dest"]
        for q in r["selected"]:
            if dest is not None and q != dest:
                findings.append(EffectFinding(
                    "ANL105", SEVERITY["ANL105"], path, r["line"], kernel,
                    label,
                    f"rt.{r['verb']} destination rank '{dest}' differs "
                    f"from the ownership selection 'owner == {q}' that "
                    f"built its operands: the update lands on the wrong "
                    f"rank"))
    for s in scan.comm.get("sends", ()):
        dest = s["dest"]
        for q in s["selected"]:
            if dest is not None and q != dest:
                findings.append(EffectFinding(
                    "ANL105", SEVERITY["ANL105"], path, s["line"], kernel,
                    label,
                    f"rt.send destination rank '{dest}' differs from the "
                    f"ownership selection 'owner == {q}' that built its "
                    f"payload: the message is routed to a non-owner"))


def _anl104(mod: ModuleIndex, kernel: str,
            phases: list[tuple[Launch, PhaseSignature]],
            findings: list[EffectFinding], allowlist: list[dict]) -> None:
    """Adjacent barrier-separated SM phases with disjoint effect sets."""
    per_fn: dict[int, list] = {}
    for launch, sig in phases:
        if sig is None or launch.method == "superstep":
            continue
        per_fn.setdefault(id(launch.enclosing), []).append((launch, sig))
    for entries in per_fn.values():
        entries.sort(key=lambda e: e[0].line)
        for (la, sa), (lb, sb) in zip(entries, entries[1:]):
            barriers = mod.barrier_lines.get(id(la.enclosing), [])
            explicit = any(la.line < ln < lb.line for ln in barriers)
            if not la.barrier and not explicit:
                continue             # already fused, ANL004's domain
            wa = mod.hints.expand(sa.writes)
            wb = mod.hints.expand(sb.writes)
            ra, rb = mod.hints.expand(sa.reads), mod.hints.expand(sb.reads)
            conflict = (
                any(pattern_overlap(x, y) for x in wa for y in (wb | rb))
                or any(pattern_overlap(x, y) for x in wb for y in ra))
            if conflict:
                continue
            findings.append(EffectFinding(
                "ANL104", SEVERITY["ANL104"], sa.path, lb.line, kernel,
                sa.label,
                f"barrier between phases '{sa.label}' (line {la.line}) and "
                f"'{sb.label}' (line {lb.line}) separates disjoint effect "
                f"sets: elidable (GS candidate; async-scheduler allowlist)"))
            allowlist.append({
                "kernel": kernel, "path": sa.path,
                "after": sa.label, "before": sb.label,
                "line": lb.line})


def analyze_modules(mods: list[ModuleIndex],
                    entries: Iterable[tuple[str, ModuleIndex, str]]
                    ) -> EffectReport:
    """Infer effects for ``entries`` = (kernel name, module, entry fn)."""
    kernels: dict[str, KernelEffects] = {}
    findings: list[EffectFinding] = []
    allowlist: list[dict] = []
    scanned: dict[int, tuple] = {}       # id(launch) -> (sig, finding slice)
    flat: dict[int, tuple] = {}          # id(def) -> its flat write set
    by_mod_launch = [(mod, launch) for mod in mods for launch in mod.launches]

    for kname, emod, efn_name in entries:
        efn = emod.top_funcs.get(efn_name)
        if efn is None:
            raise ValueError(
                f"kernel entry {efn_name!r} not found in {emod.path}")
        reach = _reach(emod, efn, mods)
        keff = KernelEffects(name=kname, path=_rel(emod.path),
                             entry=efn_name)
        kernel_phases: list[tuple[Launch, PhaseSignature]] = []
        phase_mods: dict[int, ModuleIndex] = {}
        for mod, launch in by_mod_launch:
            if launch.enclosing is None or id(launch.enclosing) not in reach:
                continue
            if id(launch.call) in scanned:
                sig, cached = scanned[id(launch.call)]
                findings.extend(
                    EffectFinding(f.rule, f.severity, f.path, f.line,
                                  kname, f.phase, f.message)
                    for f in cached)
            else:
                before = len(findings)
                sig = _scan_launch(mod, launch, kname, findings)
                scanned[id(launch.call)] = (sig, list(findings[before:]))
            if sig is not None:
                kernel_phases.append((launch, sig))
                phase_mods[id(launch)] = mod
        kernel_phases.sort(key=lambda e: (e[1].path, e[0].line))
        keff.phases = [sig for _, sig in kernel_phases]

        # whole-kernel flat write set (regions + epilogue bookkeeping)
        writes: set[str] = set()
        windows: set[str] = set()
        for mod in mods:
            for fn in mod.funcs:
                if id(fn) in reach:
                    if id(fn) not in flat:
                        flat[id(fn)] = _flat_write_set(PhaseScan(mod).scan(fn))
                    w, win = flat[id(fn)]
                    writes |= w
                    windows |= win
            windows |= {w for w in mod.windows
                        if any(id(f) in reach for f in mod.funcs
                               if f is not None)} if mod is emod else set()
        keff.write_set = sorted(writes - {"?"})
        keff.windows = sorted(windows - {"?"})
        kernels[kname] = keff

        # ANL104 needs the per-kernel phase ordering
        for mod in mods:
            mod_phases = [(la, sig) for la, sig in kernel_phases
                          if phase_mods[id(la)] is mod]
            if mod_phases:
                _anl104(mod, kname, mod_phases, findings, allowlist)

    # de-duplicate findings shared by several kernels (helper modules)
    seen: set[tuple] = set()
    unique: list[EffectFinding] = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule,
                                             f.kernel)):
        key = (f.rule, f.path, f.line, f.message)
        if key in seen:
            continue
        seen.add(key)
        unique.append(f)
    allow_seen: set[tuple] = set()
    allow_unique: list[dict] = []
    for a in sorted(allowlist, key=lambda a: (a["path"], a["line"],
                                              a["kernel"])):
        key = (a["path"], a["line"])
        if key in allow_seen:
            continue
        allow_seen.add(key)
        allow_unique.append(a)
    return EffectReport(kernels=kernels, findings=unique,
                        allowlist=allow_unique)


def analyze_effects(root: Path | None = None) -> EffectReport:
    """Run the inference over the shipped 17-kernel matrix."""
    if root is None:
        root = Path(__file__).resolve().parent.parent
    files = {root / rel for _, rel, _ in KERNELS}
    files |= set((root / "algorithms").glob("*.py"))
    files |= set((root / "strategies").glob("*.py"))
    mods = _load_modules(files)
    by_path = {Path(m.path).resolve(): m for m in mods}
    entries = [(name, by_path[(root / rel).resolve()], fn)
               for name, rel, fn in KERNELS]
    return analyze_modules(mods, entries)


def effects_source(source: str, path: str = "<string>") -> EffectReport:
    """Ad-hoc inference over one module: every top-level function that
    (transitively) launches a phase becomes a kernel entry."""
    mod = ModuleIndex(source, path)
    entries = []
    for name, fn in mod.top_funcs.items():
        reach = _reach(mod, fn, [mod])
        if any(id(la.enclosing) in reach for la in mod.launches
               if la.enclosing is not None):
            entries.append((name, mod, name))
    return analyze_modules([mod], entries)
