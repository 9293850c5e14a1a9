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
import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.lint import (
    ATOMIC_DECLS, RUNTIME_NAMES, STORE_DECLS, BranchVisitor, Launch,
    ModuleIndex, mem_receiver, resolve_fn, trailing,
)
from repro.kernels import EFFECT_ENTRIES

SEVERITY = {
    "ANL101": "error", "ANL102": "error", "ANL103": "advice",
    "ANL104": "advice", "ANL105": "error",
}

#: write-effect memory verbs (lock taken as a write-side critical section)
WRITE_VERBS = {"write", "cas", "faa", "lock"}
#: GraphArrays field -> registered-name suffix
GRAPH_ARRAY_FIELDS = {"off": "offsets", "adj": "adj", "wgt": "weights"}
#: data-carrying DM verbs that require a registered window
DATA_RMA_VERBS = {"put", "accumulate"}

#: the effect matrix: (name, module relpath under src/repro, entry
#: function).  11 SM kernels, 4 DM kernels, 2 strategy kernels.
KERNELS: tuple[tuple[str, str, str], ...] = tuple(
    (name, module.replace(".", "/") + ".py", fn)
    for name, entry in EFFECT_ENTRIES.items()
    for module, _, fn in [entry.partition(":")])

_HINT_RE = re.compile(
    r"#\s*effects:\s*(alias|disjoint-writers)\s+(.+?)\s*$")


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


def _pattern_overlap(a: str, b: str) -> bool:
    """Do two (possibly glob) array names denote overlapping storage?"""
    return fnmatch.fnmatchcase(a, b) or fnmatch.fnmatchcase(b, a)


def _covers_name(name: str, patterns: Iterable[str]) -> bool:
    return any(_pattern_overlap(name, p) for p in patterns)


def _register_name(expr: ast.AST) -> str | None:
    """Registered-array name of a ``mem.register`` first argument.

    Constants resolve exactly; f-strings become glob patterns
    (``f"pr.acc.block{t}"`` -> ``pr.acc.block*``).
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr):
        parts = []
        for v in expr.values:
            if isinstance(v, ast.Constant):
                parts.append(str(v.value))
            else:
                parts.append("*")
        return "".join(parts)
    return None


class _Hints:
    """Parsed ``# effects:`` hint comments of one module."""

    def __init__(self, source: str) -> None:
        self.aliases: list[tuple[str, str]] = []   # (glob, canonical)
        self.disjoint: list[str] = []              # array name patterns
        for line in source.splitlines():
            m = _HINT_RE.search(line)
            if not m:
                continue
            kind, payload = m.group(1), m.group(2)
            if kind == "alias" and "->" in payload:
                glob, _, canon = payload.partition("->")
                self.aliases.append((glob.strip(), canon.strip()))
            elif kind == "disjoint-writers":
                self.disjoint.extend(payload.replace(",", " ").split())

    def expand(self, names: Iterable[str]) -> set[str]:
        """Close a name set under the alias hints (both directions)."""
        out = set(names)
        for glob, canon in self.aliases:
            if any(_pattern_overlap(n, glob) for n in out):
                out.add(canon)
            if any(_pattern_overlap(n, canon) for n in out):
                out.add(glob)
        return out

    def is_disjoint(self, names: Iterable[str]) -> bool:
        return any(_covers_name(n, self.disjoint) for n in names)


class _ModuleInfo(ModuleIndex):
    """A module's :class:`~repro.analysis.lint.ModuleIndex` plus the
    effect facts: ``# effects:`` hints, register names, windows,
    annotate labels and imports."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.hints = _Hints(source)
        self.annotates: list[tuple] = []                # (id(fn), line, label)
        self.registers: dict[str, str] = {}             # trailing -> pattern
        self.ga_vars: dict[str, set] = {}               # trailing -> prefixes
        self.windows: set[str] = set()
        self.imports: dict[str, str] = {}               # name -> module
        self.ext_registers: dict[str, str] = {}         # from imported modules
        # the base constructor visits the tree, so the effect facts'
        # containers must exist before it runs
        super().__init__(ast.parse(source, filename=path))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.imports[alias.asname or alias.name] = node.module or ""

    def resolve_handle(self, name: str) -> str:
        """Registered-array pattern a handle variable's trailing name
        denotes, falling back to imported modules' register sites."""
        return (self.registers.get(name)
                or self.ext_registers.get(name)
                or name)

    # -- handle / window registration -----------------------------------------
    def _note_register(self, target: ast.AST, value: ast.AST) -> None:
        name = trailing(target)
        if name is None:
            return
        for candidate in _ifexp_arms(value):
            if isinstance(candidate, ast.ListComp):
                candidate = candidate.elt
            if (isinstance(candidate, ast.Call)
                    and isinstance(candidate.func, ast.Attribute)
                    and candidate.func.attr == "register"
                    and candidate.args):
                pattern = _register_name(candidate.args[0])
                if pattern is not None:
                    self.registers[name] = pattern
            elif (isinstance(candidate, ast.Call)
                    and isinstance(candidate.func, ast.Name)
                    and candidate.func.id == "GraphArrays"):
                prefix = "g"
                for kw in candidate.keywords:
                    if kw.arg == "prefix" and isinstance(kw.value, ast.Constant):
                        prefix = str(kw.value.value)
                self.ga_vars.setdefault(name, set()).add(prefix)
            elif trailing(candidate) in self.ga_vars:
                self.ga_vars.setdefault(name, set()).update(
                    self.ga_vars[trailing(candidate)])

    def visit_Assign(self, node: ast.Assign) -> None:
        for tgt in node.targets:
            self._note_register(tgt, node.value)
        self.generic_visit(node)

    # -- annotate labels and windows ------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if isinstance(f, ast.Attribute) and node.args:
            if f.attr == "annotate":
                label = _register_name(node.args[0])
                if label is not None:
                    self.annotates.append(
                        (id(self._enclosing()), node.lineno, label))
            elif f.attr == "register_window":
                pattern = _register_name(node.args[0])
                if pattern is None:
                    t = trailing(node.args[0])
                    pattern = self.registers.get(t, t) if t else None
                if pattern is not None:
                    self.windows.add(pattern)
        super().visit_Call(node)


def _ifexp_arms(expr: ast.AST) -> list[ast.AST]:
    if isinstance(expr, ast.IfExp):
        return _ifexp_arms(expr.body) + _ifexp_arms(expr.orelse)
    return [expr]


# ---------------------------------------------------------------------------
# per-phase abstract interpretation
# ---------------------------------------------------------------------------

#: provenance lattice values the rules key on
OWN, NEIGHBOR, FRONTIER, MESSAGE, UNKNOWN = (
    "own", "neighbor", "frontier", "message", "unknown")

_PROPAGATING_NP = {"unique", "concatenate", "repeat", "asarray", "sort",
                   "array", "setdiff1d", "intersect1d"}


class _PhaseScan(BranchVisitor):
    """Abstract interpretation of one phase body: declared accesses with
    index provenance, direction branches, ownership guards, DM verbs."""

    def __init__(self, mod: _ModuleInfo, items_prov: str,
                 superstep: bool) -> None:
        self.mod = mod
        self.superstep = superstep
        self.env: dict[str, str] = {}
        self.ops: list[dict] = []
        self.comm: dict[str, list] = {}
        self.covered: set[str] = set()
        self.ownership_checked = False
        self.selections: dict[str, str] = {}
        self.called: set[str] = set()
        self._guard = 0
        self._items_prov = items_prov

    def seed_from(self, enclosing: ast.AST, before_line: int) -> None:
        """Pre-bind closure variables: provenance of enclosing-function
        assignments textually before the launch (no ops are recorded --
        ``prov`` is pure)."""
        def walk(stmts: list) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if getattr(stmt, "lineno", before_line) >= before_line:
                    continue
                if isinstance(stmt, ast.Assign):
                    tag = self.prov(stmt.value)
                    for tgt in stmt.targets:
                        if (isinstance(tgt, ast.Tuple)
                                and isinstance(stmt.value, ast.Tuple)
                                and len(tgt.elts) == len(stmt.value.elts)):
                            for t, v in zip(tgt.elts, stmt.value.elts):
                                self._bind(t, self.prov(v))
                        else:
                            self._bind(tgt, tag)
                elif isinstance(stmt, ast.For):
                    self._bind(stmt.target, self.prov(stmt.iter))
                for field_name in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, field_name, None)
                    if isinstance(inner, list):
                        walk(inner)
        body = getattr(enclosing, "body", None)
        if isinstance(body, list):
            walk(body)

    def scan(self, fn: ast.AST) -> "_PhaseScan":
        args = getattr(getattr(fn, "args", None), "args", [])
        if self.superstep:
            if args:
                self.env[args[0].arg] = "rank"
        else:
            if len(args) >= 1:
                self.env[args[0].arg] = "thread"
            if len(args) >= 2:
                self.env[args[1].arg] = self._items_prov
        body = getattr(fn, "body", None)
        for stmt in (body if isinstance(body, list) else [ast.Expr(body)]):
            self.visit(stmt)
        return self

    # -- provenance -----------------------------------------------------------
    def prov(self, e: ast.AST) -> str:
        if isinstance(e, ast.Name):
            return self.env.get(e.id, UNKNOWN)
        if isinstance(e, ast.Constant):
            return "const"
        if isinstance(e, ast.Attribute):
            if e.attr == "adj":
                return NEIGHBOR
            if "front" in e.attr.lower():
                return FRONTIER
            return UNKNOWN
        if isinstance(e, ast.Subscript):
            return self._elem_prov(e.value)
        if isinstance(e, ast.Call):
            return self._call_prov(e)
        if isinstance(e, ast.IfExp):
            a, b = self.prov(e.body), self.prov(e.orelse)
            return a if a == b else UNKNOWN
        if isinstance(e, (ast.List, ast.Tuple)):
            tags = {self.prov(x) for x in e.elts}
            return tags.pop() if len(tags) == 1 else UNKNOWN
        if isinstance(e, ast.Compare):
            if self._owner_compare(e) is not None:
                return "ownermask"
            return UNKNOWN
        return UNKNOWN

    def _elem_prov(self, base: ast.AST) -> str:
        """Element provenance of an indexed/sliced array expression."""
        if isinstance(base, ast.Attribute) and base.attr == "adj":
            return NEIGHBOR
        if isinstance(base, ast.Name):
            if "owner" in base.id.lower():
                return "owner"
            return self.env.get(base.id, UNKNOWN)
        if isinstance(base, ast.Subscript):
            return self._elem_prov(base.value)
        if isinstance(base, ast.Attribute):
            return UNKNOWN
        return UNKNOWN

    def _call_prov(self, e: ast.Call) -> str:
        f = e.func
        if isinstance(f, ast.Attribute):
            recv = f.value
            if f.attr.endswith("neighbors"):
                return NEIGHBOR
            if (f.attr == "owned" and isinstance(recv, ast.Name)
                    and recv.id in RUNTIME_NAMES):
                return OWN
            if f.attr == "inbox":
                return MESSAGE
            if f.attr in {"astype", "copy", "ravel", "flatten"}:
                return self.prov(recv)
            if f.attr in _PROPAGATING_NP and e.args:
                return self.prov(e.args[0])
            if f.attr == "owner" and e.args:
                return "owner"
            if f.attr == "flatnonzero" and e.args:
                text = ast.dump(e.args[0]).lower()
                if "front" in text or "active" in text:
                    return FRONTIER
                return UNKNOWN
        if isinstance(f, ast.Name) and f.id in {"int", "abs", "sorted",
                                                "list"} and e.args:
            return self.prov(e.args[0])
        return UNKNOWN

    def _owner_compare(self, e: ast.AST) -> str | None:
        """Rank name an ``owner[...] == q`` style compare selects for."""
        if not (isinstance(e, ast.Compare) and len(e.ops) == 1
                and isinstance(e.ops[0], ast.Eq)):
            return None
        sides = [e.left, e.comparators[0]]
        tags = [self.prov(s) for s in sides]
        for tag, other in ((tags[0], sides[1]), (tags[1], sides[0])):
            if tag == "owner" and isinstance(other, ast.Name):
                return other.id
        return None

    def _owner_selected(self, node: ast.AST) -> set[str]:
        """Rank names whose ownership selections feed ``node``."""
        out: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self.selections:
                out.add(self.selections[sub.id])
            elif isinstance(sub, ast.Compare):
                q = self._owner_compare(sub)
                if q is not None:
                    out.add(q)
        return out

    # -- statements -----------------------------------------------------------
    def visit_branch(self, node: ast.If) -> None:
        guard = self._is_ownership_guard(node.test)
        self._guard += guard
        super().visit_branch(node)
        self._guard -= guard

    def _is_ownership_guard(self, test: ast.AST) -> bool:
        for sub in ast.walk(test):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "is_local"):
                return True
            if isinstance(sub, ast.Compare) and len(sub.ops) == 1 and \
                    isinstance(sub.ops[0], ast.Eq):
                tags = {self.prov(sub.left), self.prov(sub.comparators[0])}
                if "owner" in tags and tags & {"rank", "thread"}:
                    return True
        return False

    def _bind(self, target: ast.AST, tag: str) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = tag
        elif isinstance(target, (ast.Tuple, ast.List)):
            for e in target.elts:
                self._bind(e, tag)

    def visit_Assign(self, node: ast.Assign) -> None:
        tag = self.prov(node.value)
        for tgt in node.targets:
            if isinstance(tgt, ast.Tuple) and isinstance(node.value, ast.Tuple) \
                    and len(tgt.elts) == len(node.value.elts):
                for t, v in zip(tgt.elts, node.value.elts):
                    self._bind(t, self.prov(v))
            else:
                self._bind(tgt, tag)
        # remember ownership selections: sel = owner[...] == q, or
        # ask = nbrs[owner[nbrs] == q]
        ranks = set()
        for sub in ast.walk(node.value):
            q = self._owner_compare(sub) if isinstance(sub, ast.Compare) \
                else None
            if q is not None:
                ranks.add(q)
        if len(ranks) == 1 and isinstance(node.targets[0], ast.Name):
            self.selections[node.targets[0].id] = ranks.pop()
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        it = node.iter
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range"):
            tag = "rank" if self.superstep else "const"
        elif (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "enumerate" and it.args):
            self._bind(node.target, self.prov(it.args[0]))
            if isinstance(node.target, ast.Tuple) and node.target.elts:
                self._bind(node.target.elts[0], "const")
            for stmt in node.body + node.orelse:
                self.visit(stmt)
            return
        else:
            tag = self.prov(it)
        self._bind(node.target, tag)
        self.visit(it)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass                     # nested defs are their own phases

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- declared accesses and DM verbs ---------------------------------------
    def _handle_names(self, expr: ast.AST) -> tuple[str, ...]:
        names: set[str] = set()
        for arm in _ifexp_arms(expr):
            if isinstance(arm, ast.Subscript):        # slice_hs[t] lists
                arm = arm.value
            t = trailing(arm)
            if isinstance(arm, ast.Constant) and isinstance(arm.value, str):
                names.add(arm.value)
            elif isinstance(arm, ast.Attribute) and \
                    arm.attr in GRAPH_ARRAY_FIELDS:
                base = trailing(arm.value)
                prefixes = self.mod.ga_vars.get(base or "", set())
                if prefixes:
                    names.update(f"{p}.{GRAPH_ARRAY_FIELDS[arm.attr]}"
                                 for p in prefixes)
                elif t:
                    names.add(t)
            elif t is not None:
                names.add(self.mod.resolve_handle(t))
        return tuple(sorted(names)) or ("?",)

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if isinstance(f, ast.Attribute):
            recv = f.value
            if (f.attr in STORE_DECLS | {"read"} and node.args
                    and mem_receiver(f)):
                self._note_mem(node, f.attr)
            elif f.attr == "owned_write_check":
                self.ownership_checked = True
            elif (isinstance(recv, ast.Name) and recv.id in RUNTIME_NAMES):
                self._note_rt(node, f.attr)
        elif isinstance(f, ast.Name):
            self.called.add(f.id)
        self.generic_visit(node)

    def _note_mem(self, node: ast.Call, verb: str) -> None:
        arrays = self._handle_names(node.args[0])
        kw = {k.arg: k.value for k in node.keywords}
        idx = kw.get("idx")
        prov = self.prov(idx) if idx is not None else "block"
        covers: list[str] = []
        cov = kw.get("covers")
        if isinstance(cov, (ast.List, ast.Tuple)):
            for entry in cov.elts:
                if isinstance(entry, (ast.Tuple, ast.List)) and entry.elts:
                    covers.extend(self._handle_names(entry.elts[0]))
        batched = isinstance(kw.get("batched"), ast.Constant) and \
            bool(kw["batched"].value)
        self.ops.append({
            "verb": verb, "arrays": arrays, "index": prov,
            "line": node.lineno, "ctx": self.ctx,
            "guard": self._guard > 0, "batched": batched,
            "covers": tuple(covers),
        })
        if verb in ATOMIC_DECLS:
            self.covered.update(arrays)
            self.covered.update(covers)

    def _note_rt(self, node: ast.Call, verb: str) -> None:
        kw = {k.arg: k.value for k in node.keywords}
        dest = node.args[0] if node.args else None
        dest_name = dest.id if isinstance(dest, ast.Name) else None
        if verb == "send":
            tag = kw.get("tag")
            self.comm.setdefault("sends", []).append({
                "tag": (tag.value if isinstance(tag, ast.Constant) else None),
                "dest": dest_name, "line": node.lineno,
                "selected": sorted(self._owner_selected(node)),
            })
        elif verb in DATA_RMA_VERBS | {"rma_put", "rma_accumulate",
                                       "rma_get"}:
            win = kw.get("window")
            windows = self._handle_names(win) if win is not None else ("?",)
            idx = kw.get("idx")
            entry = {
                "verb": verb, "windows": windows,
                "index": self.prov(idx) if idx is not None else "block",
                "dest": dest_name, "line": node.lineno,
                "selected": sorted(self._owner_selected(node)),
            }
            key = "gets" if verb == "rma_get" else "rma"
            self.comm.setdefault(key, []).append(entry)
        elif verb == "inbox":
            tag = node.args[0] if node.args else kw.get("tag")
            self.comm.setdefault("inbox", []).append(
                tag.value if isinstance(tag, ast.Constant) else None)

    # -- derived sets ---------------------------------------------------------
    def reads(self) -> set[str]:
        out = {n for op in self.ops if op["verb"] == "read"
               for n in op["arrays"]}
        for g in self.comm.get("gets", ()):
            out.update(g["windows"])
        return out

    def writes(self) -> set[str]:
        out = set()
        for op in self.ops:
            if op["verb"] in WRITE_VERBS:
                out.update(op["arrays"])
                out.update(op["covers"])
        for r in self.comm.get("rma", ()):
            if r["verb"] != "rma_get":
                out.update(r["windows"])
        return out


# ---------------------------------------------------------------------------
# kernel-level assembly
# ---------------------------------------------------------------------------

def _load_modules(paths: Iterable[Path]) -> list[_ModuleInfo]:
    mods = [_ModuleInfo(str(p), p.read_text(encoding="utf-8"))
            for p in sorted(set(paths))]
    _link_registers(mods)
    return mods


def _link_registers(mods: list[_ModuleInfo]) -> None:
    """Let ``state.colors_h``-style cross-module handle attributes resolve
    through the register sites of the module the class was imported from."""
    by_dotted = {}
    for mod in mods:
        p = Path(mod.path).as_posix()
        i = p.rfind("src/repro/")
        if i >= 0:
            by_dotted[p[i + 4:-3].replace("/", ".")] = mod
    for mod in mods:
        for module_name in set(mod.imports.values()):
            src = by_dotted.get(module_name)
            if src is None or src is mod:
                continue
            for k, v in src.registers.items():
                mod.ext_registers.setdefault(k, v)


def _function_table(mods: list[_ModuleInfo]) -> dict:
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


def _reach(entry_mod: _ModuleInfo, entry_fn: ast.AST,
           mods: list[_ModuleInfo]) -> set[int]:
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
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                seen.add(id(sub))
                callees.update(mod.calls_from.get(id(sub), ()))
        for callee in callees:
            for cmod, cnode in table.get(callee, ()):
                # same-module targets always qualify; cross-module ones
                # only when the entry module imports the name
                if cmod is mod or callee in mod.imports:
                    work.append((by_mod[id(cmod)], cnode))
    return seen


def _flat_write_set(mod: _ModuleInfo, fn: ast.AST) -> tuple[set, set]:
    """(mem write set, DM window write set) of a whole function."""
    scan = _PhaseScan(mod, UNKNOWN, superstep=True)
    args = getattr(getattr(fn, "args", None), "args", [])
    for a in args:
        scan.env.setdefault(a.arg, UNKNOWN)
    body = getattr(fn, "body", None)
    if isinstance(body, list):
        # walk everything including nested defs: a flat over-approximation
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    f = node.func
                    if isinstance(f, ast.Attribute):
                        if (f.attr in STORE_DECLS and node.args
                                and mem_receiver(f)):
                            scan._note_mem(node, f.attr)
                        elif (isinstance(f.value, ast.Name)
                                and f.value.id in RUNTIME_NAMES
                                and f.attr in DATA_RMA_VERBS):
                            scan._note_rt(node, f.attr)
    mem_writes = scan.writes()
    win_writes = {n for r in scan.comm.get("rma", ())
                  for n in r["windows"]}
    return mem_writes, win_writes


def _expand_helpers(mod: _ModuleInfo, launch: Launch, scan: _PhaseScan,
                    body_fn, superstep: bool) -> None:
    """One-level helper expansion (the ANL005 convention): memory ops,
    verbs, and covers of plain functions the body calls join its
    signature.  Helper parameters carry unknown provenance, so the
    expansion completes the read/write/comm footprint (ANL104 soundness)
    but can never manufacture an ANL101/ANL102 by itself."""
    for name in sorted(scan.called):
        fn = resolve_fn(ast.Name(id=name), launch.scopes)
        if fn is None:
            fn = mod.top_funcs.get(name)
        if (fn is None or fn is body_fn or fn is launch.enclosing
                or not isinstance(fn, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))):
            continue
        sub = _PhaseScan(mod, UNKNOWN, superstep)
        for a in getattr(fn.args, "args", []):
            sub.env[a.arg] = UNKNOWN
        for stmt in fn.body:
            sub.visit(stmt)
        scan.ops.extend(sub.ops)
        scan.covered |= sub.covered
        for key, vals in sub.comm.items():
            scan.comm.setdefault(key, []).extend(vals)


def _phase_label(mod: _ModuleInfo, launch: Launch, body_fn) -> str:
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


def _inferred_direction(scan: _PhaseScan) -> str:
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


def _atomic_verdict(op: dict, hints: _Hints) -> str:
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


def _scan_launch(mod: _ModuleInfo, launch: Launch, kernel: str,
                 findings: list[EffectFinding]) -> PhaseSignature | None:
    body = mod.body_of(launch)
    if body is None:
        return None
    body_fn, qual, declared = body
    superstep = launch.method == "superstep"
    own_items = launch.by_owner or launch.method == "for_each_thread"
    items_prov = OWN if own_items else FRONTIER
    scan = _PhaseScan(mod, items_prov, superstep)
    if launch.enclosing is not None:
        scan.seed_from(launch.enclosing, launch.line)
    scan.scan(body_fn)
    _expand_helpers(mod, launch, scan, body_fn, superstep)
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
                and not op["guard"] and not scan.ownership_checked):
            findings.append(EffectFinding(
                "ANL101", SEVERITY["ANL101"], path, op["line"], kernel,
                label,
                f"pull-classified phase writes neighbor-indexed "
                f"array(s) {list(op['arrays'])} via {op['verb']}: pull "
                f"reads remote state and writes own state only "
                f"(direction mismatch)"))
        if (op["verb"] == "write" and op["index"] == NEIGHBOR
                and kind != "sequential"
                and not op["guard"] and not scan.ownership_checked
                and not mod.hints.is_disjoint(op["arrays"])
                and not any(_covers_name(n, scan.covered)
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


def _check_dm(mod: _ModuleInfo, scan: _PhaseScan, kernel: str, label: str,
              path: str, findings: list[EffectFinding]) -> None:
    for r in scan.comm.get("rma", ()):
        if r["verb"] in DATA_RMA_VERBS:
            registered = any(
                _pattern_overlap(w, reg)
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


def _anl104(mod: _ModuleInfo, kernel: str,
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
                any(_pattern_overlap(x, y) for x in wa for y in (wb | rb))
                or any(_pattern_overlap(x, y) for x in wb for y in ra))
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


def analyze_modules(mods: list[_ModuleInfo],
                    entries: Iterable[tuple[str, _ModuleInfo, str]]
                    ) -> EffectReport:
    """Infer effects for ``entries`` = (kernel name, module, entry fn)."""
    kernels: dict[str, KernelEffects] = {}
    findings: list[EffectFinding] = []
    allowlist: list[dict] = []
    scanned: dict[int, tuple] = {}       # id(launch) -> (sig, finding slice)
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
        phase_mods: dict[int, _ModuleInfo] = {}
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
                    w, win = _flat_write_set(mod, fn)
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
    mod = _ModuleInfo(path, source)
    entries = []
    for name, fn in mod.top_funcs.items():
        reach = _reach(mod, fn, [mod])
        if any(id(la.enclosing) in reach for la in mod.launches
               if la.enclosing is not None):
            entries.append((name, mod, name))
    return analyze_modules([mod], entries)
