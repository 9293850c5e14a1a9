"""Static lint pass over push/pull kernels (the "analyze --lint" half).

The instrumented-algorithm convention is that every mutation of shared
state inside a parallel region is *declared* to the memory model, and
that remote writes in push kernels go through the atomic/lock
primitives (Section 3.8).  These properties are checkable from the AST
without running anything; six rules are enforced:

``ANL001`` (unaccounted-store)
    A parallel-region body stores into a shared array (subscript
    assignment or ``np.<ufunc>.at``) but declares **no** store at all to
    the memory model (no ``.write``/``.cas``/``.faa``/``.lock``): the
    mutation is invisible to every counter, cache and conflict model.
``ANL002`` (push-raw-store)
    A push-classified body stores into shared arrays without a single
    atomic/lock declaration on its push path -- the missing-atomics bug
    class the race detector catches dynamically.
``ANL003`` (push-ownership-check)
    A push-classified body calls ``owned_write_check``: the ownership
    assertion is the *pull* half of the contract; push code reaching it
    indicates a confused variant.
``ANL004`` (missing-barrier)
    A function launches a region with ``barrier=False`` but neither it
    nor its callers close the epoch: the function never calls
    ``.barrier()`` itself, and no module-local caller of the function
    (one level up the call edges) issues one either (the fused-phases
    idiom, where a helper runs several barrier-less regions and the
    caller barriers once, is clean).  With no barrier at either level
    the region's accesses bleed into the next epoch with no
    synchronization point.
``ANL005`` (untyped-channel)
    A superstep body (the distributed-memory analogue of a parallel
    region) or a helper it calls (one level, the buffered-flush idiom)
    calls ``rt.send`` without ``tag=`` or a data-carrying RMA verb
    (``rt.put`` / ``rt.accumulate`` / ``rt.rma_put`` /
    ``rt.rma_accumulate``) without ``window=``.  Untagged messages
    cannot be matched by ``inbox(tag)`` (the epoch checker's early-inbox
    rule keys on tags), and window-less RMA is invisible to the
    write-vs-accumulate epoch discipline and to crash rollback.
``ANL006`` (unrecoverable-store)
    A function calls a store verb (``mem.write``/``cas``/``faa``/
    ``lock``) on the instrumented memory but is neither a traced
    region/superstep body nor a helper called from one (one level).
    Such stores execute outside every region boundary, so the fault
    layer's region-granular checkpoint/rollback cannot undo them
    (unrecoverable by construction) and the tracer's counter
    reconciliation cannot see them -- the bug class fixed in BFS's
    k-filter by moving it into a traced sequential region.  Coverage
    follows calls among the files linted together: a method is covered
    when a covered body in another module calls it by attribute name
    and that module imports the method's class
    (``ThreadLocalFrontiers.merge`` under BFS's k-filter); linting the
    method's module alone still flags it.

Direction classification is heuristic but matches the repo's idiom: a
body (or an enclosing function) named ``*push*``/``*pull*``, or a body
defined/storing under an ``if direction == PUSH:``-style branch (see
:class:`BranchVisitor` for ``if/elif/else`` chains).  Unclassifiable
bodies only get the direction-agnostic rules.

This module is the one static pass of both rule sets: these rules and
effect inference (:mod:`repro.analysis.effects`) read one
:class:`ModuleIndex` per module, one body scanner (:class:`PhaseScan`)
and one helper expansion (:func:`helpers`).
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

REGION_METHODS = {"parallel_for": 1, "for_each_thread": 0, "sequential": 0}
#: DM runtime receivers whose comm verbs ANL005 checks (keeps ufunc
#: methods like ``np.add.accumulate`` / ``itertools.accumulate`` out)
RUNTIME_NAMES = {"rt", "runtime"}
RMA_VERBS = {"put", "accumulate", "rma_put", "rma_accumulate"}
STORE_DECLS = {"write", "cas", "faa", "lock"}
#: receivers ANL006 and effect inference treat as the instrumented memory
MEMORY_NAMES = {"mem", "memory"}
ATOMIC_DECLS = {"cas", "faa", "lock"}
SCATTER_UFUNCS = {"add", "subtract", "minimum", "maximum", "multiply",
                  "bitwise_or", "bitwise_and", "logical_or", "logical_and"}
DIRECTION_CONSTS = {"PUSH": "push", "PUSH_PA": "push", "PULL": "pull",
                    "push": "push", "push-pa": "push", "pull": "pull"}
#: GraphArrays field -> registered-name suffix
GRAPH_ARRAY_FIELDS = {"off": "offsets", "adj": "adj", "wgt": "weights"}

_HINT_RE = re.compile(
    r"#\s*effects:\s*(alias|disjoint-writers)\s+(.+?)\s*$")


@dataclass(frozen=True)
class LintFinding:
    rule: str
    path: str
    line: int
    func: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.func}] {self.message}"


def trailing(expr: ast.AST) -> str | None:
    """Last identifier of a Name / dotted-attribute expression."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _direction_compared(test: ast.expr) -> str | None:
    """'push'/'pull' if ``test`` is a ``direction == PUSH``-style compare."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)):
        return None
    for side in (test.left, test.comparators[0]):
        if isinstance(side, ast.Name) and side.id in DIRECTION_CONSTS:
            return DIRECTION_CONSTS[side.id]
        if isinstance(side, ast.Constant) and side.value in DIRECTION_CONSTS:
            return DIRECTION_CONSTS[side.value]
    return None


def _name_direction(chain: Iterable[str]) -> str | None:
    """Innermost-first scan of a qualname chain for push/pull markers."""
    for name in chain:
        low = name.lower()
        has_push, has_pull = "push" in low, "pull" in low
        if has_push and not has_pull:
            return "push"
        if has_pull and not has_push:
            return "pull"
    return None


def _scatter_target(call: ast.Call) -> str | None:
    """Array name mutated by an ``np.<ufunc>.at(arr, ...)`` call."""
    f = call.func
    if (isinstance(f, ast.Attribute) and f.attr == "at"
            and isinstance(f.value, ast.Attribute)
            and f.value.attr in SCATTER_UFUNCS and call.args):
        return trailing(call.args[0])
    return None


def mem_receiver(f: ast.Attribute) -> bool:
    """True for ``mem.<verb>`` / ``rt.mem.<verb>``-shaped receivers."""
    return trailing(f.value) in MEMORY_NAMES


def pattern_overlap(a: str, b: str) -> bool:
    """Do two (possibly glob) array names denote overlapping storage?"""
    return fnmatch.fnmatchcase(a, b) or fnmatch.fnmatchcase(b, a)


def covers_name(name: str, patterns: Iterable[str]) -> bool:
    return any(pattern_overlap(name, p) for p in patterns)


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


def _ifexp_arms(expr: ast.AST) -> list[ast.AST]:
    if isinstance(expr, ast.IfExp):
        return _ifexp_arms(expr.body) + _ifexp_arms(expr.orelse)
    return [expr]


class Hints:
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
            if any(pattern_overlap(n, glob) for n in out):
                out.add(canon)
            if any(pattern_overlap(n, canon) for n in out):
                out.add(glob)
        return out

    def is_disjoint(self, names: Iterable[str]) -> bool:
        return any(covers_name(n, self.disjoint) for n in names)


class BranchVisitor(ast.NodeVisitor):
    """A visitor that knows the direction branch each statement sits
    under: ``self.ctx`` is ``"push"``/``"pull"`` inside the body of an
    ``if direction == PUSH:``-style test, else the enclosing context.

    The trailing ``else`` of a direction chain (an ``if`` whose ``elif``
    tests all compare the direction) takes the one direction no test in
    the chain named, or ``None`` when both were named: ``if PULL / elif
    PUSH / else`` is neither (PageRank's PUSH_PA arm), ``if PUSH / elif
    PUSH_PA / else`` is pull.  A plain ``if/else`` is the one-test case.
    Subclasses hook :meth:`visit_branch` to see each test with its body.
    """

    ctx: str | None = None

    def visit_branch(self, node: ast.If) -> None:
        for stmt in node.body:
            self.visit(stmt)

    def visit_If(self, node: ast.If) -> None:
        saved, named = self.ctx, set()
        while True:
            d = _direction_compared(node.test)
            self.visit(node.test)
            self.ctx = d or saved
            self.visit_branch(node)
            self.ctx = saved
            if d is None:
                break
            named.add(d)
            tail = node.orelse
            if not (len(tail) == 1 and isinstance(tail[0], ast.If)
                    and _direction_compared(tail[0].test)):
                break
            node = tail[0]
        if named:
            rest = {"push", "pull"} - named
            self.ctx = rest.pop() if len(rest) == 1 else None
        for stmt in node.orelse:
            self.visit(stmt)
        self.ctx = saved


@dataclass
class Launch:
    """One region or superstep launch site."""

    call: ast.Call
    method: str                  # a REGION_METHODS key, or "superstep"
    body_expr: ast.AST
    enclosing: ast.AST | None    # innermost enclosing function
    chain: tuple                 # enclosing names, innermost first
    scopes: list[dict]           # name -> def, as bound at the launch
    ctx: str | None              # direction branch at the call site
    by_owner: bool
    barrier: bool                # launch closes with a barrier
    line: int


def resolve_fn(expr: ast.AST, scopes: list[dict]):
    """The FunctionDef (or Lambda) a body argument refers to in
    ``scopes``, following ``lambda: helper(...)`` trampolines and
    ``functools.partial(helper, ...)``; None if untraceable."""
    if isinstance(expr, ast.Name):
        return next((s[expr.id] for s in reversed(scopes) if expr.id in s),
                    None)
    if isinstance(expr, ast.Lambda):
        call = expr.body
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            return resolve_fn(call.func, scopes) or expr
        return expr
    if (isinstance(expr, ast.Call) and trailing(expr.func) == "partial"
            and expr.args):
        return resolve_fn(expr.args[0], scopes)
    return None


class ModuleIndex(BranchVisitor):
    """Single-pass module index: function defs by scope (each with its
    qualname chain and the direction branch it sits under), region and
    superstep launches, barrier lines, call edges, and the facts effect
    inference reads: ``# effects:`` hints, register names, windows,
    annotate labels and imports."""

    def __init__(self, source: str, path: str = "<string>") -> None:
        self.path = path
        self.hints = Hints(source)
        self.scopes: list[dict] = [{}]
        self.stack: list[tuple] = []                    # (name, def or None)
        self.lambdas: list[ast.Lambda] = []             # around the visit
        self.defs_ctx: dict[int, str | None] = {}
        self.defs_chain: dict[int, tuple] = {}
        self.funcs: list[ast.AST] = []
        self.classes: dict[str, ast.ClassDef] = {}
        self.methods: dict[str, list[ast.AST]] = {}     # class-body defs
        self.by_name: dict[str, list[ast.AST]] = {}     # every other def
        self.top_funcs: dict[str, ast.AST] = {}
        self.nested: dict[int, list[ast.AST]] = {}      # id(fn) -> inner defs
        self.launches: list[Launch] = []
        self.barrier_lines: dict[int, list[int]] = {}   # id(fn) -> linenos
        # id(def or lambda) -> [(callee, called by attribute)]
        self.calls_from: dict[int, list[tuple[str, bool]]] = {}
        self.annotates: list[tuple] = []                # (id(fn), line, label)
        self.registers: dict[str, str] = {}             # trailing -> pattern
        self.ga_vars: dict[str, set] = {}               # trailing -> prefixes
        self.windows: set[str] = set()
        self.imports: dict[str, str] = {}               # name -> module
        # filled by link(): facts of the modules this one imports from
        self.ext_registers: dict[str, str] = {}
        self.imported_methods: dict[str, list[ast.AST]] = {}
        self.visit(ast.parse(source, filename=path))

    def _enclosing(self):
        for _name, node in reversed(self.stack):
            if node is not None:
                return node
        return None

    def _chain(self) -> tuple:
        return tuple(n for n, _ in reversed(self.stack))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scopes[-1][node.name] = node
        self.funcs.append(node)
        self.defs_ctx[id(node)] = self.ctx
        self.defs_chain[id(node)] = (node.name,) + self._chain()
        if not self.stack:
            self.top_funcs[node.name] = node
        enc = self._enclosing()
        if enc is not None:
            self.nested.setdefault(id(enc), []).append(node)
        in_class = bool(self.stack) and self.stack[-1][1] is None
        (self.methods if in_class else self.by_name).setdefault(
            node.name, []).append(node)
        saved, self.ctx = self.ctx, None
        self.stack.append((node.name, node))
        self.scopes.append({})
        for stmt in node.body:
            self.visit(stmt)
        self.scopes.pop()
        self.stack.pop()
        self.ctx = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes[node.name] = node
        self.stack.append((node.name, None))
        self.scopes.append({})
        for stmt in node.body:
            self.visit(stmt)
        self.scopes.pop()
        self.stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.lambdas.append(node)
        self.generic_visit(node)
        self.lambdas.pop()

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.imports[alias.asname or alias.name] = node.module or ""

    def visit_Call(self, node: ast.Call) -> None:
        enc = self._enclosing()
        f = node.func
        callee = trailing(f)
        if callee is not None:
            edges = [(callee, isinstance(f, ast.Attribute))]
            # functools.partial(helper, ...) makes the enclosing function
            # a caller of ``helper`` even though ``helper`` is an argument
            if (callee == "partial" and node.args
                    and isinstance(node.args[0], ast.Name)):
                edges.append((node.args[0].id, False))
            # a lambda is a caller too (lambda region bodies)
            for owner in (enc, *self.lambdas):
                if owner is not None:
                    self.calls_from.setdefault(id(owner), []).extend(edges)
        if isinstance(f, ast.Attribute):
            if f.attr in REGION_METHODS or f.attr == "superstep":
                self._note_launch(node, f.attr, enc)
            elif f.attr == "barrier":
                self.barrier_lines.setdefault(id(enc), []).append(node.lineno)
            elif f.attr == "annotate" and node.args:
                label = _register_name(node.args[0])
                if label is not None:
                    self.annotates.append((id(enc), node.lineno, label))
            elif f.attr == "register_window" and node.args:
                pattern = _register_name(node.args[0])
                if pattern is None:
                    t = trailing(node.args[0])
                    pattern = self.registers.get(t, t) if t else None
                if pattern is not None:
                    self.windows.add(pattern)
        self.generic_visit(node)

    def _note_launch(self, node: ast.Call, method: str, enc) -> None:
        pos = 0 if method == "superstep" else REGION_METHODS[method]
        kw = {k.arg: k.value for k in node.keywords}
        body = kw.get("body")
        if body is None and len(node.args) > pos:
            body = node.args[pos]
        if body is None:
            return

        def flag(name: str, default: bool) -> bool:
            v = kw.get(name)
            return bool(v.value) if isinstance(v, ast.Constant) else default

        # snapshot the bindings as of this statement: a later def reusing
        # the same body name (push/pull variants) must not shadow it
        self.launches.append(Launch(
            call=node, method=method, body_expr=body, enclosing=enc,
            chain=self._chain(), scopes=[dict(s) for s in self.scopes],
            ctx=self.ctx, by_owner=flag("by_owner", False),
            barrier=flag("barrier", True), line=node.lineno))

    # -- handle registration --------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for tgt in node.targets:
            self._note_register(tgt, node.value)
        self.generic_visit(node)

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

    def resolve_handle(self, name: str) -> str:
        """Registered-array pattern a handle variable's trailing name
        denotes, falling back to imported modules' register sites."""
        return (self.registers.get(name)
                or self.ext_registers.get(name)
                or name)

    # -- launched bodies ------------------------------------------------------
    def body_of(self, launch: Launch) -> tuple | None:
        """``(fn, qualname, declared direction)`` of the body a launch
        runs, or None when it cannot be resolved.  The direction is the
        branch the def sits under (the launch's branch for a lambda or
        an unbranched def), else a push/pull marker in the name chain."""
        fn = resolve_fn(launch.body_expr, launch.scopes)
        if fn is None:
            return None
        if isinstance(fn, ast.Lambda):
            chain, ctx = launch.chain, launch.ctx
            qual = ".".join(reversed(chain) or ("<module>",)) + ".<lambda>"
        else:
            chain = self.defs_chain[id(fn)]
            ctx = self.defs_ctx[id(fn)] or launch.ctx
            qual = ".".join(reversed(chain))
        return fn, qual, ctx or _name_direction(chain)

    def bodies(self, superstep: bool):
        """``(launch, fn, qualname, direction)`` per distinct resolved
        region (or superstep) body, first launch first."""
        seen: set[int] = set()
        for launch in self.launches:
            if (launch.method == "superstep") != superstep:
                continue
            body = self.body_of(launch)
            if body is not None and id(body[0]) not in seen:
                seen.add(id(body[0]))
                yield (launch, *body)


def link(mods: Iterable[ModuleIndex]) -> None:
    """Resolve each module's ``from <module> import <name>`` against the
    other modules indexed in the same run (matched by path suffix):
    handle attributes resolve through the exporting module's register
    sites, and an imported class's methods become targets of the
    importer's attribute calls (:func:`helpers`)."""
    mods = list(mods)
    by_stem: dict[str, list[ModuleIndex]] = {}
    for mod in mods:
        by_stem.setdefault(Path(mod.path).stem, []).append(mod)
    for mod in mods:
        for name, module in mod.imports.items():
            tail = "/" + module.replace(".", "/") + ".py"
            for src in by_stem.get(module.rpartition(".")[2], ()):
                if src is mod or not (
                        "/" + Path(src.path).as_posix()).endswith(tail):
                    continue
                for k, v in src.registers.items():
                    mod.ext_registers.setdefault(k, v)
                cls = src.classes.get(name)
                for d in (cls.body if cls is not None else ()):
                    if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mod.imported_methods.setdefault(d.name, []).append(d)


def helpers(index: ModuleIndex, fn) -> list:
    """The one helper expansion: the defs ``fn`` (a def or a lambda)
    calls, one level down ``index``'s call edges, by name and sorted by
    name.  A plain call names the module's defs outside class bodies;
    an attribute call names its methods and those of the classes it
    imports from modules linked into the same run.  ``fn`` is left
    out."""
    found: dict[int, ast.AST] = {}
    for name, attr in index.calls_from.get(id(fn), ()):
        targets = (index.methods.get(name, [])
                   + index.imported_methods.get(name, [])
                   if attr else index.by_name.get(name, []))
        for d in targets:
            if d is not fn:
                found.setdefault(id(d), d)
    return sorted(found.values(), key=lambda d: d.name)


# ---------------------------------------------------------------------------
# the body scanner
# ---------------------------------------------------------------------------

#: provenance lattice values the rules key on
OWN, NEIGHBOR, FRONTIER, MESSAGE, UNKNOWN = (
    "own", "neighbor", "frontier", "message", "unknown")

_PROPAGATING_NP = {"unique", "concatenate", "repeat", "asarray", "sort",
                   "array", "setdiff1d", "intersect1d"}


class PhaseScan(BranchVisitor):
    """The one body scanner: abstract interpretation of one phase body
    (or a helper, or any def), each fact tagged with the direction
    branch it sits under.  Effect inference reads the declared accesses
    with index provenance (``ops``), ownership guards, the DM verbs
    (``comm``) and their derived read/write sets; the lint rules read
    the raw stores (``stores``, minus ``local_names``), every store-verb
    call (``decls``), ``ownership_checks`` and ``untyped`` channels.

    ``items`` is the provenance of a launched region body's work items
    (its first parameter is the thread, or a superstep body's the rank);
    without it the parameters stay ``unknown``, as for helpers."""

    def __init__(self, mod: ModuleIndex, items: str | None = None,
                 superstep: bool = False) -> None:
        self.mod = mod
        self.superstep = superstep
        self.env: dict[str, str] = {}
        self.ops: list[dict] = []
        self.comm: dict[str, list] = {}
        self.covered: set[str] = set()
        self.selections: dict[str, str] = {}
        self.stores: list[tuple] = []            # (array, line, ctx)
        self.local_names: set[str] = set()
        self.params: set[str] = set()
        # (verb, line, ctx, on mem/memory, inside a lambda)
        self.decls: list[tuple] = []
        self.ownership_checks: list[tuple] = []  # (line, ctx)
        self.untyped: list[tuple] = []           # (verb, line, missing kw)
        self._guard = 0
        self._lambdas = 0
        self._items_prov = items

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

    def scan(self, fn: ast.AST) -> "PhaseScan":
        args = getattr(getattr(fn, "args", None), "args", [])
        self.params.update(a.arg for a in args)
        self.local_names.update(self.params)
        if self._items_prov is not None:
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
                                                "list", "unique_ids"} and e.args:
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

    def _note_targets(self, targets: Iterable[ast.AST], line: int) -> None:
        """Raw subscript stores and body-local names of assignment
        targets.  ``arr[t]`` / ``arr[vs]`` with a bare parameter as the
        index is thread-private by the runtime's contract (disjoint
        chunks, per-thread slots), so it is no store."""
        for tgt in targets:
            if isinstance(tgt, ast.Tuple):
                self._note_targets(tgt.elts, line)
            elif isinstance(tgt, ast.Subscript):
                name = trailing(tgt.value)
                sl = tgt.slice
                if name is not None and not (isinstance(sl, ast.Name)
                                             and sl.id in self.params):
                    self.stores.append((name, line, self.ctx))
            elif isinstance(tgt, ast.Name):
                self.local_names.add(tgt.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_targets(node.targets, node.lineno)
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
        self._note_targets([node.target], node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_targets([node.target], node.lineno)
            self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        target, it = node.target, node.iter
        for e in (target.elts if isinstance(target, ast.Tuple) else [target]):
            if isinstance(e, ast.Name):
                self.local_names.add(e.id)
        func = (it.func.id if isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name) else None)
        if func == "range":
            self._bind(target, "rank" if self.superstep else "const")
        elif func == "enumerate" and it.args:
            self._bind(target, self.prov(it.args[0]))
            if isinstance(target, ast.Tuple) and target.elts:
                self._bind(target.elts[0], "const")
        else:
            self._bind(target, self.prov(it))
        self.visit(it)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.local_names.add(node.name)  # nested defs are their own phases

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._lambdas += 1
        self.generic_visit(node)
        self._lambdas -= 1

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
        scatter = _scatter_target(node)
        if scatter is not None:
            self.stores.append((scatter, node.lineno, self.ctx))
        if isinstance(f, ast.Attribute):
            recv = f.value
            if f.attr in STORE_DECLS:
                self.decls.append((f.attr, node.lineno, self.ctx,
                                   mem_receiver(f), self._lambdas > 0))
            if (f.attr in STORE_DECLS | {"read"} and node.args
                    and mem_receiver(f)):
                self._note_mem(node, f.attr)
            elif f.attr == "owned_write_check":
                self.ownership_checks.append((node.lineno, self.ctx))
            elif (isinstance(recv, ast.Name) and recv.id in RUNTIME_NAMES):
                self._note_rt(node, f.attr)
        elif (isinstance(f, ast.Name) and f.id in ("rand_op", "seq_op")
                and node.args and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in STORE_DECLS | {"read"}):
            # stream-op constructors (repro.streams.ops): the verb is
            # the first positional arg and the handle the second; the
            # op is the access the equivalent mem.<verb> call would make
            verb = node.args[0].value
            if verb in STORE_DECLS:
                self.decls.append((verb, node.lineno, self.ctx, False,
                                   self._lambdas > 0))
            if len(node.args) > 1:
                idx = (node.args[2] if f.id == "rand_op"
                       and len(node.args) > 2 else None)
                self._note_mem(node, verb, node.args[1], idx)
        self.generic_visit(node)

    def _note_mem(self, node: ast.Call, verb: str,
                  handle: ast.AST | None = None,
                  idx: ast.AST | None = None) -> None:
        """One access: ``mem.<verb>(handle, idx=...)``, or a stream op
        whose ``handle`` and positional ``idx`` the caller passes."""
        arrays = self._handle_names(node.args[0] if handle is None
                                    else handle)
        kw = {k.arg: k.value for k in node.keywords}
        idx = kw.get("idx", idx)
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
            if tag is None:
                self.untyped.append(("send", node.lineno, "tag"))
            self.comm.setdefault("sends", []).append({
                "tag": (tag.value if isinstance(tag, ast.Constant) else None),
                "dest": dest_name, "line": node.lineno,
                "selected": sorted(self._owner_selected(node)),
            })
        elif verb in RMA_VERBS | {"rma_get"}:
            win = kw.get("window")
            if win is None and verb in RMA_VERBS:
                self.untyped.append((verb, node.lineno, "window"))
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
            if op["verb"] in STORE_DECLS:
                out.update(op["arrays"])
                out.update(op["covers"])
        for r in self.comm.get("rma", ()):
            if r["verb"] != "rma_get":
                out.update(r["windows"])
        return out


# ---------------------------------------------------------------------------
# the ANL00x rules
# ---------------------------------------------------------------------------

def _body_name(body_expr: ast.AST) -> str | None:
    """The local-function name a region body argument names, if any
    (plain reference, lambda trampoline, or functools.partial)."""
    if isinstance(body_expr, ast.Name):
        return body_expr.id
    if (isinstance(body_expr, ast.Lambda)
            and isinstance(body_expr.body, ast.Call)
            and isinstance(body_expr.body.func, ast.Name)):
        return body_expr.body.func.id
    if (isinstance(body_expr, ast.Call)
            and trailing(body_expr.func) == "partial"
            and body_expr.args):
        return _body_name(body_expr.args[0])
    return None


def _covered(index: ModuleIndex) -> set[int]:
    """ids of the defs ANL006 counts as inside a region boundary: every
    launched region/superstep body and the helpers it calls.  A body is
    also every def named like the launch's body argument: the idiom that
    defines ``body`` once per direction branch and launches it once after
    both defs resolves only the later def, but every same-named def is a
    region body somewhere, which is exactly what this rule needs."""
    roots: dict[int, ast.AST] = {}
    for launch in index.launches:
        fn = resolve_fn(launch.body_expr, launch.scopes)
        named = index.by_name.get(_body_name(launch.body_expr), [])
        for root in ([fn] if fn is not None else []) + named:
            roots.setdefault(id(root), root)
    covered = set(roots)
    for root in roots.values():
        covered.update(id(h) for h in helpers(index, root))
    return covered


def _lint_module(index: ModuleIndex, covered: set[int]) -> list[LintFinding]:
    path = index.path
    findings: list[LintFinding] = []

    # ANL004: barrier=False with no barrier in the same function AND
    # none guaranteed by the callers (one level up the call edges: a
    # helper running barrier-less regions is clean when every
    # module-local caller issues the closing .barrier() itself)
    for launch in index.launches:
        enclosing = launch.enclosing
        if (launch.method == "superstep" or launch.barrier
                or id(enclosing) in index.barrier_lines):
            continue
        name = getattr(enclosing, "name", None)
        callers = [g for g in index.funcs
                   if g is not enclosing and name is not None
                   and any(c == name for c, _ in index.calls_from.get(
                       id(g), ()))]
        if callers and all(id(g) in index.barrier_lines for g in callers):
            continue
        func = ".".join(reversed(launch.chain)) or "<module>"
        findings.append(LintFinding(
            "ANL004", path, launch.line, func,
            "region launched with barrier=False but neither the "
            "function nor all of its callers call .barrier(): "
            "accesses leak into the next epoch unsynchronized"))

    for _launch, fn, qual, direction in index.bodies(superstep=False):
        scan = PhaseScan(index).scan(fn)
        shared = [(n, ln, ctx) for n, ln, ctx in scan.stores
                  if n not in scan.local_names]

        if shared and not scan.decls:
            lines = sorted({ln for _, ln, _ in shared})
            names = sorted({n for n, _, _ in shared})
            findings.append(LintFinding(
                "ANL001", path, lines[0], qual,
                f"stores to shared array(s) {names} bypass the "
                f"instrumented memory (no write/cas/faa/lock declared "
                f"in the region body; store lines {lines})"))

        push_stores = [(n, ln) for n, ln, ctx in shared
                       if (ctx or direction) == "push"]
        # an atomic/lock protects the push path unless it sits in an
        # explicit pull branch
        push_atomics = [d for d in scan.decls
                        if d[0] in ATOMIC_DECLS and d[2] != "pull"]
        if push_stores and not push_atomics:
            names = sorted({n for n, _ in push_stores})
            findings.append(LintFinding(
                "ANL002", path, push_stores[0][1], qual,
                f"push kernel stores to shared array(s) {names} "
                f"without any atomic/lock declaration: remote "
                f"writes must go through cas/faa/lock (Section 3.8)"))

        for ln, ctx in scan.ownership_checks:
            if (ctx or direction) == "push":
                findings.append(LintFinding(
                    "ANL003", path, ln, qual,
                    "push kernel calls owned_write_check: the ownership "
                    "assertion is the pull contract; push variants "
                    "declare remote writes with atomics/locks instead"))

    # ANL005: untyped channels inside superstep bodies and their helpers
    for _launch, fn, qual, _direction in index.bodies(superstep=True):
        for part in (fn, *helpers(index, fn)):
            for verb, ln, missing in PhaseScan(index).scan(part).untyped:
                what = ("messages cannot be matched by inbox(tag) and "
                        "evade the epoch checker's channel discipline"
                        if missing == "tag" else
                        "the operation is invisible to the "
                        "write-vs-accumulate epoch rules and to crash "
                        "rollback")
                findings.append(LintFinding(
                    "ANL005", path, ln, qual,
                    f"superstep body calls rt.{verb}(...) without "
                    f"{missing}=: {what}"))

    # ANL006: store verbs on the instrumented memory (outside lambdas,
    # which are their own scopes) in a def no region boundary covers --
    # unreachable by region-granular checkpoint/rollback and invisible
    # to counter reconciliation
    for fn in index.funcs:
        # a def's direct store-verb calls are among its attribute call
        # edges, so most defs need no scan
        if id(fn) in covered or not any(
                attr and c in STORE_DECLS
                for c, attr in index.calls_from.get(id(fn), ())):
            continue
        stores = [(verb, ln) for verb, ln, _ctx, on_mem, in_lambda
                  in PhaseScan(index).scan(fn).decls
                  if on_mem and not in_lambda]
        if not stores:
            continue
        qual = ".".join(reversed(index.defs_chain[id(fn)]))
        verbs = sorted({v for v, _ in stores})
        findings.append(LintFinding(
            "ANL006", path, stores[0][1], qual,
            f"mem.{'/'.join(verbs)} outside any traced region or "
            f"superstep body: the store has no region boundary for the "
            f"fault layer to checkpoint, so a crash cannot roll it "
            f"back (and counter reconciliation cannot see it)"))

    return findings


def _lint(sources: Iterable[tuple[str, str]]) -> list[LintFinding]:
    """Lint ``(path, source)`` pairs as one run: indexed and linked
    together, findings in input order."""
    units: list[ModuleIndex | LintFinding] = []
    for path, source in sources:
        try:
            units.append(ModuleIndex(source, path))
        except SyntaxError as exc:
            units.append(LintFinding("ANL000", path, exc.lineno or 0,
                                     "<module>", f"syntax error: {exc.msg}"))
    indexes = [u for u in units if isinstance(u, ModuleIndex)]
    link(indexes)
    covered = set().union(*(_covered(index) for index in indexes))
    findings: list[LintFinding] = []
    for u in units:
        findings.extend(_lint_module(u, covered)
                        if isinstance(u, ModuleIndex) else [u])
    return findings


def lint_source(source: str, path: str = "<string>") -> list[LintFinding]:
    """Lint one module's source; returns findings (empty = clean)."""
    return _lint([(path, source)])


def lint_file(path: str | Path) -> list[LintFinding]:
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_paths(paths: Iterable[str | Path]) -> list[LintFinding]:
    """Lint files and/or directories (recursing into ``*.py``) as one
    run, so ANL006 coverage follows calls among them."""
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return _lint((str(f), f.read_text(encoding="utf-8")) for f in files)
