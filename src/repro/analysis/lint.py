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
    ``.barrier()`` itself, and -- mirroring ANL005's one-level helper
    expansion -- no module-local caller of the function issues one
    either (the fused-phases idiom, where a helper runs several
    barrier-less regions and the caller barriers once, is clean).  With
    no barrier at either level the region's accesses bleed into the
    next epoch with no synchronization point.
``ANL006`` (unrecoverable-store)
    A function calls a store verb (``mem.write``/``cas``/``faa``/
    ``lock``) on the instrumented memory but is neither a traced
    region/superstep body nor a helper called from one (one-level
    expansion, as in ANL004/ANL005).  Such stores execute outside every
    region boundary, so the fault layer's region-granular
    checkpoint/rollback cannot undo them (unrecoverable by
    construction) and the tracer's counter reconciliation cannot see
    them -- the bug class PR 4 fixed in BFS's k-filter by moving it
    into a traced sequential region.
``ANL005`` (untyped-channel)
    A superstep body (the distributed-memory analogue of a parallel
    region) calls ``rt.send`` without ``tag=`` or a data-carrying RMA
    verb (``rt.put`` / ``rt.accumulate`` / ``rt.rma_put`` /
    ``rt.rma_accumulate``) without ``window=``.  Untagged messages
    cannot be matched by ``inbox(tag)`` (the epoch checker's early-inbox
    rule keys on tags), and window-less RMA is invisible to the
    write-vs-accumulate epoch discipline and to crash rollback.
    Superstep bodies are resolved through ``rt.superstep(body)`` call
    sites, including one level of local helper calls (buffered-flush
    idiom).

Direction classification is heuristic but matches the repo's idiom: a
body (or an enclosing function) named ``*push*``/``*pull*``, or a body
defined/storing under an ``if direction == PUSH:``-style branch (see
:class:`BranchVisitor` for ``if/elif/else`` chains).  Unclassifiable
bodies only get the direction-agnostic rules.

:class:`ModuleIndex` is the one module index of both static passes:
these rules and effect inference (:mod:`repro.analysis.effects`) read
its defs, launches, barriers and call edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

REGION_METHODS = {"parallel_for": 1, "for_each_thread": 0, "sequential": 0}
#: DM runtime receivers whose comm verbs ANL005 checks (keeps ufunc
#: methods like ``np.add.accumulate`` / ``itertools.accumulate`` out)
RUNTIME_NAMES = {"rt", "runtime"}
RMA_VERBS = {"put", "accumulate", "rma_put", "rma_accumulate"}
STORE_DECLS = {"write", "cas", "faa", "lock"}
#: receivers ANL006 treats as the instrumented memory model
MEMORY_NAMES = {"mem", "memory"}
ATOMIC_DECLS = {"cas", "faa", "lock"}
SCATTER_UFUNCS = {"add", "subtract", "minimum", "maximum", "multiply",
                  "bitwise_or", "bitwise_and", "logical_or", "logical_and"}
DIRECTION_CONSTS = {"PUSH": "push", "PUSH_PA": "push", "PULL": "pull",
                    "push": "push", "push-pa": "push", "pull": "pull"}


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


def _store_target(node: ast.AST) -> str | None:
    """Base array name of a subscript store target, if recognizable."""
    return trailing(node.value) if isinstance(node, ast.Subscript) else None


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


class _BodyScan(BranchVisitor):
    """Collect stores/declarations/ownership-checks of one region body,
    each tagged with the direction branch it sits under (or None)."""

    def __init__(self) -> None:
        self.stores: list[tuple] = []        # (name, line, ctx)
        self.decls: list[tuple] = []         # (kind, line, ctx)
        self.ownership_checks: list[tuple] = []  # (line, ctx)
        self.local_names: set[str] = set()
        self.params: set[str] = set()

    def scan(self, fn: ast.AST, params: Iterable[str]) -> "_BodyScan":
        self.params.update(params)
        self.local_names.update(params)
        body = fn.body if isinstance(body := getattr(fn, "body", None), list) \
            else [ast.Expr(value=body)]
        for stmt in body:
            self.visit(stmt)
        return self

    # stores ------------------------------------------------------------------
    def _note_targets(self, targets: Iterable[ast.AST], line: int) -> None:
        for tgt in targets:
            if isinstance(tgt, ast.Tuple):
                self._note_targets(tgt.elts, line)
                continue
            name = _store_target(tgt)
            if name is not None:
                # arr[t] / arr[vs] with a bare region-body parameter as
                # the index is thread-private by the runtime's contract
                # (disjoint chunks, per-thread slots)
                sl = tgt.slice if isinstance(tgt, ast.Subscript) else None
                if isinstance(sl, ast.Name) and sl.id in self.params:
                    continue
                self.stores.append((name, line, self.ctx))
            elif isinstance(tgt, ast.Name):
                self.local_names.add(tgt.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_targets(node.targets, node.lineno)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_targets([node.target], node.lineno)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_targets([node.target], node.lineno)
            self.visit(node.value)

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name):
            self.local_names.add(node.target.id)
        elif isinstance(node.target, ast.Tuple):
            for e in node.target.elts:
                if isinstance(e, ast.Name):
                    self.local_names.add(e.id)
        self.generic_visit(node)

    # calls -------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        scatter = _scatter_target(node)
        if scatter is not None:
            self.stores.append((scatter, node.lineno, self.ctx))
        f = node.func
        if isinstance(f, ast.Attribute):
            if f.attr in STORE_DECLS:
                self.decls.append((f.attr, node.lineno, self.ctx))
            elif f.attr == "owned_write_check":
                self.ownership_checks.append((node.lineno, self.ctx))
        elif isinstance(f, ast.Name) and f.id in ("rand_op", "seq_op"):
            # stream-op constructors (repro.streams.ops): the verb is
            # the first positional arg; a store verb declares the store
            # just like the equivalent mem.<verb> call would
            if (node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value in STORE_DECLS):
                self.decls.append((node.args[0].value, node.lineno,
                                   self.ctx))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # nested defs: their stores belong to their own region (if any)
        self.local_names.add(node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def shared_stores(self) -> list[tuple]:
        return [(n, ln, ctx) for n, ln, ctx in self.stores
                if n not in self.local_names]


class _DirectStoreScan(ast.NodeVisitor):
    """Store-verb calls on the instrumented memory in one function's
    *direct* body -- nested defs and lambdas are their own (possibly
    region-covered) scopes and are skipped."""

    def __init__(self) -> None:
        self.stores: list[tuple] = []        # (verb, line)

    def scan(self, fn: ast.AST) -> "_DirectStoreScan":
        for stmt in getattr(fn, "body", []) or []:
            self.visit(stmt)
        return self

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr in STORE_DECLS
                and mem_receiver(f)):
            self.stores.append((f.attr, node.lineno))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


class _CommScan(ast.NodeVisitor):
    """Collect a superstep body's comm-verb calls and local helper calls
    (for ANL005's one-level helper expansion)."""

    def __init__(self) -> None:
        self.violations: list[tuple] = []    # (verb, line, missing kw)
        self.helper_calls: list[str] = []    # local functions invoked

    def scan(self, fn: ast.AST) -> "_CommScan":
        body = getattr(fn, "body", None)
        for stmt in (body if isinstance(body, list) else [ast.Expr(body)]):
            self.visit(stmt)
        return self

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if isinstance(f, ast.Name):
            self.helper_calls.append(f.id)
        elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and f.value.id in RUNTIME_NAMES):
            kwargs = {kw.arg for kw in node.keywords}
            if f.attr == "send" and "tag" not in kwargs:
                self.violations.append(("send", node.lineno, "tag"))
            elif f.attr in RMA_VERBS and "window" not in kwargs:
                self.violations.append((f.attr, node.lineno, "window"))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass                     # nested defs are their own bodies

    visit_AsyncFunctionDef = visit_FunctionDef


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
    superstep launches, barrier lines, and call edges."""

    def __init__(self, tree: ast.AST) -> None:
        self.scopes: list[dict] = [{}]
        self.stack: list[tuple] = []                    # (name, def or None)
        self.defs_ctx: dict[int, str | None] = {}
        self.defs_chain: dict[int, tuple] = {}
        self.funcs: list[ast.AST] = []
        self.classes: dict[str, ast.ClassDef] = {}
        self.methods: dict[str, list[ast.AST]] = {}
        self.top_funcs: dict[str, ast.AST] = {}
        self.launches: list[Launch] = []
        self.barrier_lines: dict[int, list[int]] = {}   # id(fn) -> linenos
        self.calls_from: dict[int, list] = {}           # id(fn) -> callees
        self.visit(tree)

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
        elif self.stack[-1][1] is None:                 # class body
            self.methods.setdefault(node.name, []).append(node)
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

    def visit_Call(self, node: ast.Call) -> None:
        enc = self._enclosing()
        f = node.func
        callee = trailing(f)
        if enc is not None and callee is not None:
            edges = self.calls_from.setdefault(id(enc), [])
            edges.append(callee)
            # functools.partial(helper, ...) makes the enclosing function
            # a caller of ``helper`` even though ``helper`` is an argument
            if (callee == "partial" and node.args
                    and isinstance(node.args[0], ast.Name)):
                edges.append(node.args[0].id)
        if isinstance(f, ast.Attribute):
            if f.attr in REGION_METHODS or f.attr == "superstep":
                self._note_launch(node, f.attr, enc)
            elif f.attr == "barrier":
                self.barrier_lines.setdefault(id(enc), []).append(node.lineno)
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


def lint_source(source: str, path: str = "<string>") -> list[LintFinding]:
    """Lint one module's source; returns findings (empty = clean)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintFinding("ANL000", path, exc.lineno or 0, "<module>",
                            f"syntax error: {exc.msg}")]
    index = ModuleIndex(tree)
    findings: list[LintFinding] = []

    # ANL004: barrier=False with no barrier in the same function AND
    # none guaranteed by the callers (one-level caller expansion: a
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
                   and name in index.calls_from.get(id(g), ())]
        if callers and all(id(g) in index.barrier_lines for g in callers):
            continue
        func = ".".join(reversed(launch.chain)) or "<module>"
        findings.append(LintFinding(
            "ANL004", path, launch.line, func,
            "region launched with barrier=False but neither the "
            "function nor all of its callers call .barrier(): "
            "accesses leak into the next epoch unsynchronized"))

    for _launch, fn, qual, direction in index.bodies(superstep=False):
        scan = _BodyScan().scan(fn, [a.arg for a in fn.args.args])
        shared = scan.shared_stores()

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

    # ANL005: untyped channels inside superstep bodies
    for launch, fn, qual, _direction in index.bodies(superstep=True):
        scan = _CommScan().scan(fn)
        expanded: set[int] = {id(fn)}
        for helper in scan.helper_calls:
            h = resolve_fn(ast.Name(id=helper), launch.scopes)
            if h is not None and id(h) not in expanded:
                expanded.add(id(h))
                scan.scan(h)
        for verb, ln, missing in scan.violations:
            what = ("messages cannot be matched by inbox(tag) and evade "
                    "the epoch checker's channel discipline"
                    if missing == "tag" else
                    "the operation is invisible to the write-vs-accumulate "
                    "epoch rules and to crash rollback")
            findings.append(LintFinding(
                "ANL005", path, ln, qual,
                f"superstep body calls rt.{verb}(...) without "
                f"{missing}=: {what}"))

    # ANL006: store verbs on the instrumented memory outside every
    # region/superstep boundary -- unreachable by region-granular
    # checkpoint/rollback (and invisible to counter reconciliation).
    # Covered = a resolved region/superstep body, or a module-local
    # function called from one (one-level helper expansion).
    covered: set[int] = set()
    body_names: set[str] = set()
    for launch in index.launches:
        fn = resolve_fn(launch.body_expr, launch.scopes)
        if fn is not None:
            covered.add(id(fn))
        name = _body_name(launch.body_expr)
        if name is not None:
            body_names.add(name)
    by_name: dict[str, list[int]] = {}
    for fn in index.funcs:
        by_name.setdefault(fn.name, []).append(id(fn))
    # name-based coverage: the idiom that defines ``body`` once per
    # direction branch and launches it once after both defs resolves
    # only the later def -- every same-named def is a region body
    # somewhere, which is exactly what this rule needs
    for name in body_names:
        covered.update(by_name.get(name, ()))
    helper_ids: set[int] = set()
    for fn in index.funcs:
        if id(fn) in covered:
            for callee in index.calls_from.get(id(fn), ()):
                helper_ids.update(by_name.get(callee, ()))
    covered |= helper_ids
    for fn in index.funcs:
        if id(fn) in covered:
            continue
        stores = _DirectStoreScan().scan(fn).stores
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


def lint_file(path: str | Path) -> list[LintFinding]:
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def lint_paths(paths: Iterable[str | Path]) -> list[LintFinding]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    findings: list[LintFinding] = []
    for raw in paths:
        p = Path(raw)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            findings.extend(lint_file(f))
    return findings
